/**
 * @file
 * Host-parallelism determinism harness.
 *
 * The contract of MsmOptions::hostThreads is that every observable
 * output — the MSM point (bit-for-bit, not just as a group element),
 * the aggregated KernelStats and hostOps — is identical for every
 * thread count.
 * These tests run the same computation with hostThreads in {1, 2, 8}
 * and compare at the representation level: XYZZ coordinates are
 * checked limb-by-limb via Fq::operator== (XYZZPoint::operator== is
 * only group equality and would hide a divergent-but-equivalent
 * representation). Comparing thread counts with each other cannot
 * catch a miscount every count shares, so the engine's chunked
 * bucket sums are also held to a reference rebuilt through the
 * layers' public entry points, and the scatter kernels' exact bucket
 * sequences and stats to known answers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/ec/curves.h"
#include "src/gpusim/cluster.h"
#include "src/msm/batch_affine.h"
#include "src/msm/bucket_reduce.h"
#include "src/msm/engine.h"
#include "src/msm/precompute.h"
#include "src/msm/reference.h"
#include "src/msm/scatter.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"

namespace distmsm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;
using gpusim::KernelStats;

constexpr int kThreadCounts[] = {1, 2, 8};

/** Representation-level equality: every coordinate, every limb. */
template <typename Curve>
::testing::AssertionResult
bitIdentical(const XYZZPoint<Curve> &a, const XYZZPoint<Curve> &b)
{
    if (a.x == b.x && a.y == b.y && a.zz == b.zz && a.zzz == b.zzz)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "XYZZ representations differ (group-equal: "
           << (a == b ? "yes" : "no") << ")";
}

// ---------------------------------------------------------------
// End-to-end MsmEngine::compute across thread counts and curves.
// ---------------------------------------------------------------

struct EngineVariant
{
    const char *name;
    bool hierarchical;
    bool signedDigits;
    bool precompute;
    bool glv = false;
    bool batchAffine = false;
};

constexpr EngineVariant kVariants[] = {
    {"naive_plain", false, false, false},
    {"hier_signed", true, true, false},
    {"hier_signed_precompute", true, true, true},
    {"hier_batch_affine", true, false, false, false, true},
    {"hier_glv", true, false, false, true, false},
    {"hier_signed_glv_batch", true, true, false, true, true},
    {"hier_signed_pre_glv_batch", true, true, true, true, true},
};

template <typename Curve>
void
checkEngineDeterminism(std::uint64_t seed, int gpus)
{
    Prng prng(seed);
    const auto points = msm::generatePoints<Curve>(220, prng);
    const auto scalars = msm::generateScalars<Curve>(220, prng);
    const Cluster cluster(DeviceSpec::a100(), gpus);
    const auto reference = msm::msmNaive<Curve>(points, scalars);

    for (const auto &variant : kVariants) {
        SCOPED_TRACE(variant.name);
        msm::MsmOptions options;
        options.windowBitsOverride = 5;
        options.hierarchicalScatter = variant.hierarchical;
        options.signedDigits = variant.signedDigits;
        options.precompute = variant.precompute;
        options.glv = variant.glv;
        options.batchAffine = variant.batchAffine;
        options.scatter.blockDim = 64;
        options.scatter.gridDim = 4;
        options.scatter.sharedBytesPerBlock = 64 * 1024;

        options.hostThreads = 1;
        const msm::MsmEngine<Curve> sequential(points, cluster,
                                               options);
        const auto base = sequential.compute(scalars);
        // The sequential path is also *correct*, not just a fixed
        // point of the comparison.
        EXPECT_EQ(base.value, reference);

        for (const int threads : kThreadCounts) {
            SCOPED_TRACE("hostThreads=" + std::to_string(threads));
            options.hostThreads = threads;
            const msm::MsmEngine<Curve> engine(points, cluster,
                                               options);
            const auto got = engine.compute(scalars);
            EXPECT_TRUE(bitIdentical(got.value, base.value));
            EXPECT_EQ(got.stats, base.stats);
            EXPECT_EQ(got.hostOps, base.hostOps);
        }
    }
}

TEST(Determinism, MsmEngineBn254AcrossHostThreads)
{
    checkEngineDeterminism<Bn254>(0x5EED0254, /*gpus=*/8);
}

TEST(Determinism, MsmEngineBls381AcrossHostThreads)
{
    checkEngineDeterminism<Bls381>(0x5EED0381, /*gpus=*/4);
}

TEST(Determinism, MsmEngineSingleGpuAcrossHostThreads)
{
    checkEngineDeterminism<Bn254>(0x5EED0001, /*gpus=*/1);
}

// ---------------------------------------------------------------
// The engine's bucket-sum chunks charge the unsplit launch.
// ---------------------------------------------------------------

/** One MSM rebuilt through the layers' public entry points. */
struct UnsplitMsm
{
    XYZZPoint<Bn254> value = XYZZPoint<Bn254>::identity();
    KernelStats stats;
    std::uint64_t hostOps = 0;
    /** Scattered ids of the fullest device group. */
    std::size_t maxGroupIds = 0;
};

/**
 * The launch @p plan describes, fault-free, for unsigned digits
 * without GLV: each scatter as the engine configures it, ONE
 * batchAffineAccumulate per device group (lockstep-merged), then the
 * engine's host reduce — the combined pass's bucket reduce, or each
 * window's bucket reduce and the Horner chain. @p table holds the
 * precompute rows when the plan uses them.
 */
UnsplitMsm
unsplitMsm(const std::vector<AffinePoint<Bn254>> &points,
           const std::vector<BigInt<Bn254::Fr::kLimbs>> &scalars,
           const msm::MsmPlan &plan, const msm::MsmOptions &options,
           int num_gpus, const msm::PrecomputeTable<Bn254> *table)
{
    using Xyzz = XYZZPoint<Bn254>;
    const unsigned s = plan.windowBits;
    const std::size_t n = points.size();
    const std::size_t n_buckets = plan.numBuckets + 1;
    msm::ScatterConfig cfg = options.scatter;
    cfg.fieldBackend = plan.fieldBackend;
    UnsplitMsm out;
    // Scatter @p ids, sum its buckets in @p groups unsplit groups
    // with @p point_of into @p sums, and merge both launches' stats.
    const auto launch = [&](const std::vector<std::uint32_t> &ids,
                            int groups, auto &&point_of,
                            std::vector<Xyzz> &sums) {
        const msm::ScatterResult sc =
            plan.hierarchicalScatter ? msm::hierarchicalScatter(ids, s, cfg)
                                     : msm::naiveScatter(ids, s, cfg);
        EXPECT_TRUE(sc.ok);
        KernelStats ec;
        for (int g = 0; g < groups; ++g) {
            const std::size_t lo = 1 + (n_buckets - 1) * g / groups;
            const std::size_t hi = 1 + (n_buckets - 1) * (g + 1) / groups;
            std::size_t group_ids = 0;
            for (std::size_t b = lo; b < hi; ++b)
                group_ids += sc.buckets[b].size();
            out.maxGroupIds = std::max(out.maxGroupIds, group_ids);
            KernelStats gs;
            msm::BatchAffineScratch<Bn254> scratch;
            msm::batchAffineAccumulate<Bn254>(sc.buckets, lo, hi, point_of,
                                              sums, gs, scratch);
            ec.mergeLockstep(gs);
        }
        out.stats.merge(sc.stats);
        out.stats.merge(ec);
    };
    const auto digit = [&](unsigned w, std::size_t i) {
        return static_cast<std::uint32_t>(
            scalars[i].bits(static_cast<std::size_t>(w) * s, s));
    };

    msm::ReduceStats rs;
    if (plan.precompute) {
        std::vector<std::uint32_t> ids(std::size_t{plan.numWindows} * n);
        for (unsigned w = 0; w < plan.numWindows; ++w)
            for (std::size_t i = 0; i < n; ++i)
                ids[w * n + i] = digit(w, i);
        std::vector<Xyzz> sums(n_buckets, Xyzz::identity());
        launch(ids, num_gpus,
               [&](std::uint32_t e) { return table->rows[e / n][e % n]; },
               sums);
        out.value = msm::bucketReduceSerial<Bn254>(sums, &rs);
        out.hostOps = rs.padds + rs.pdbls;
        return out;
    }
    const int groups = plan.bucketsSplitAcrossGpus ? plan.gpusPerWindow : 1;
    std::vector<Xyzz> window_points(plan.numWindows);
    for (unsigned w = 0; w < plan.numWindows; ++w) {
        std::vector<std::uint32_t> ids(n);
        for (std::size_t i = 0; i < n; ++i)
            ids[i] = digit(w, i);
        std::vector<Xyzz> sums(n_buckets, Xyzz::identity());
        launch(ids, groups, [&](std::uint32_t i) { return points[i]; },
               sums);
        rs = msm::ReduceStats{};
        window_points[w] = msm::bucketReduceSerial<Bn254>(sums, &rs);
        out.hostOps += rs.padds + 1;
    }
    for (unsigned w = plan.numWindows; w-- > 0;) {
        if (!out.value.isIdentity())
            for (unsigned b = 0; b < s; ++b, ++out.hostOps)
                out.value = pdbl(out.value);
        out.value = padd(out.value, window_points[w]);
    }
    return out;
}

TEST(Determinism, ChunkedEngineChargesUnsplitLaunch)
{
    // The engine cuts every device group's buckets into chunks of
    // about 2^14 scattered ids and sums the chunks on the host pool;
    // its KernelStats, hostOps and value must still be the unsplit
    // launch's. Comparing thread counts with each other would not
    // catch a consistent miscount, so each run is held to a reference
    // rebuilt through the layers' public entry points.
    struct Case
    {
        const char *name;
        bool precompute;
        unsigned windowBits;
        int gpus;
        std::size_t points;
        unsigned scalarBits;
    };
    const Case cases[] = {
        // The combined pass: 51 table rows of 3000 bases, naive
        // scatter, one slice of 3-4 of the 31 buckets per device.
        {"precompute_naive_8dev", true, 5, 8, 3000, 254},
        // 32 windows on 64 devices: 2 GPUs per window. Scalars below
        // 2^16 fill windows 0 and 1 with 40,000 ids each.
        {"windowed_split_64dev", false, 8, 64, 40000, 16},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Prng prng(0xC4A2C5 + c.points);
        const auto points = msm::generatePoints<Bn254>(c.points, prng);
        auto scalars = msm::generateScalars<Bn254>(c.points, prng);
        for (auto &k : scalars)
            k.truncateToBits(c.scalarBits);
        const Cluster cluster(DeviceSpec::a100(), c.gpus);
        msm::MsmOptions options;
        options.windowBitsOverride = c.windowBits;
        options.precompute = c.precompute;
        options.hierarchicalScatter = !c.precompute;
        options.batchAffine = true;

        UnsplitMsm want;
        for (const int threads : {1, 4, 8}) {
            SCOPED_TRACE("hostThreads=" + std::to_string(threads));
            options.hostThreads = threads;
            const msm::MsmEngine<Bn254> engine(points, cluster, options);
            const msm::MsmPlan &plan = engine.plan();
            if (threads == 1) {
                ASSERT_EQ(plan.precompute, c.precompute);
                ASSERT_FALSE(plan.glv || plan.signedDigits);
                ASSERT_EQ(plan.hierarchicalScatter, !c.precompute);
                if (!c.precompute) {
                    ASSERT_GT(plan.gpusPerWindow, 1);
                }
                const auto table =
                    c.precompute ? msm::buildPrecomputeTable<Bn254>(
                                       points, plan.numWindows,
                                       plan.windowBits, false,
                                       /*host_threads=*/8)
                                 : nullptr;
                want = unsplitMsm(points, scalars, plan, options, c.gpus,
                                  table.get());
                // More than one chunk's worth in some group, so the
                // engine really split a launch.
                ASSERT_GT(want.maxGroupIds, std::size_t{1} << 14);
            }
            const auto got = engine.compute(scalars);
            EXPECT_TRUE(bitIdentical(got.value, want.value));
            EXPECT_EQ(got.stats, want.stats);
            EXPECT_EQ(got.hostOps, want.hostOps);
        }
    }
}

// ---------------------------------------------------------------
// Scatter kernels: exact bucket contents and stats.
// ---------------------------------------------------------------

/** 64-bit FNV-1a over every bucket's length and exact id sequence. */
std::uint64_t
bucketDigest(const std::vector<std::vector<std::uint32_t>> &buckets)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](std::uint32_t word) {
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (word >> (8 * byte)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    };
    for (const auto &bucket : buckets) {
        mix(static_cast<std::uint32_t>(bucket.size()));
        for (const std::uint32_t id : bucket)
            mix(id);
    }
    return h;
}

/**
 * One scatter launch pinned by known answers: the digest of its
 * unsorted bucket sequences and its full KernelStats (the EC-op
 * fields stay zero). The literals describe the simulated program, so
 * a host-side rework of the executor or the scatter kernels must
 * leave every one of them unchanged.
 */
struct ScatterKat
{
    const char *name;
    bool hierarchical;
    unsigned windowBits;
    std::size_t elements;
    std::uint32_t maxId; ///< ids are uniform over [0, maxId]
    int blockDim;
    int gridDim;
    std::size_t sharedBytesPerBlock;
    std::uint64_t digest;
    KernelStats stats;
};

// The last two geometries give 128 x 8 threads 4 elements each (4096
// ids); at s = 6 the counters and offsets take 512 bytes of shared
// memory and one tile row 128 x 2 = 256 more.
const ScatterKat kScatterKats[] = {
    // Groth16's launch: 1 row per thread against a capacity of 79.
    {"groth16_s4", true, 4, 16320, 8, 1024, 64, 160 * 1024,
     0x9FD07C40DFAF8E5Full,
     {.phases = 5, .globalAtomics = 128, .globalConflictWeight = 2048,
      .globalMaxConflict = 16, .sharedAtomics = 29086,
      .sharedConflictWeight = 3334022, .sharedMaxConflict = 140,
      .sharedAccesses = 16591, .gmemBytes = 58172}},
    // A windowed launch: 2 rows per thread against a capacity of 48.
    {"windowed_s13", true, 13, 131072, 4096, 1024, 64, 160 * 1024,
     0x01BFBE8CADFA73B6ull,
     {.phases = 7, .globalAtomics = 103235,
      .globalConflictWeight = 2666109, .globalMaxConflict = 40,
      .sharedAtomics = 262084, .sharedConflictWeight = 327144,
      .sharedMaxConflict = 5, .sharedAccesses = 1179618,
      .gmemBytes = 524168}},
    // Row capacity equal to the elements per thread: one full tile.
    {"one_full_tile", true, 6, 4096, 63, 128, 8, 512 + 4 * 256,
     0xE99F9C3657F6F838ull,
     {.phases = 11, .globalAtomics = 504, .globalConflictWeight = 4032,
      .globalMaxConflict = 8, .sharedAtomics = 8092,
      .sharedConflictWeight = 24252, .sharedMaxConflict = 8,
      .sharedAccesses = 5070, .gmemBytes = 16184}},
    // One row short of that: two tiles.
    {"two_tiles", true, 6, 4096, 63, 128, 8, 512 + 3 * 256,
     0x7173433211BD7EE4ull,
     {.phases = 14, .globalAtomics = 927, .globalConflictWeight = 6925,
      .globalMaxConflict = 8, .sharedAtomics = 8092,
      .sharedConflictWeight = 24252, .sharedMaxConflict = 8,
      .sharedAccesses = 6094, .gmemBytes = 16184}},
    {"empty", true, 4, 0, 8, 1024, 64, 160 * 1024,
     0xB9B23F3A46FD0825ull, {}},
    {"naive_s10", false, 10, 131072, 1023, 1024, 64, 160 * 1024,
     0x117CE2B22AB64CBEull,
     {.phases = 2, .globalAtomics = 130963,
      .globalConflictWeight = 8523755, .globalMaxConflict = 96,
      .gmemBytes = 5238520}},
};

TEST(Determinism, ScatterKnownAnswers)
{
    for (const ScatterKat &kat : kScatterKats) {
        SCOPED_TRACE(kat.name);
        Prng prng(0x5CA77E5 + kat.elements + kat.maxId);
        std::vector<std::uint32_t> ids(kat.elements);
        for (auto &id : ids)
            id = static_cast<std::uint32_t>(prng.below(kat.maxId + 1));
        msm::ScatterConfig config;
        config.blockDim = kat.blockDim;
        config.gridDim = kat.gridDim;
        config.sharedBytesPerBlock = kat.sharedBytesPerBlock;
        const auto got =
            kat.hierarchical
                ? msm::hierarchicalScatter(ids, kat.windowBits, config)
                : msm::naiveScatter(ids, kat.windowBits, config);
        ASSERT_TRUE(got.ok);
        EXPECT_EQ(bucketDigest(got.buckets), kat.digest);
        EXPECT_EQ(got.stats, kat.stats);
    }
}

} // namespace
} // namespace distmsm
