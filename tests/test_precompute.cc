/**
 * @file
 * Tests for the fixed-base precomputation subsystem: the table
 * build, the combined single-bucket-pass engine path, the cross-proof
 * BaseTableCache, the planner's memory-budget decision, and the
 * Groth16 prover plumbed through engine-backed MSMs.
 */

#include <gtest/gtest.h>

#include "src/ec/curves.h"
#include "src/msm/distmsm.h"
#include "src/msm/precompute.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "src/support/trace.h"
#include "src/zksnark/groth16.h"
#include "src/zksnark/workloads.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;

MsmOptions
testOptions(unsigned s)
{
    MsmOptions o;
    o.windowBitsOverride = s;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 128 * 1024;
    return o;
}

template <typename Curve>
gpusim::CurveProfile
profileOf()
{
    return gpusim::CurveProfile{
        Curve::kName, Curve::Fq::Params::kBits, Curve::kScalarBits,
        Curve::kAIsZero,
        glv::CurveGlv<Curve>::kSupported ? glv::kHalfScalarBits : 0};
}

/** All 8 {glv, batchAffine, precompute} combos against msmNaive. */
template <typename Curve>
void
runAllFlagCombos(std::uint64_t seed)
{
    Prng prng(seed);
    const std::size_t n = 150;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const auto naive = msmNaive<Curve>(points, scalars);
    const Cluster cluster(DeviceSpec::a100(), 4);
    for (const bool glv : {false, true}) {
        for (const bool batch_affine : {false, true}) {
            for (const bool precompute : {false, true}) {
                MsmOptions options = testOptions(5);
                options.glv = glv;
                options.batchAffine = batch_affine;
                options.precompute = precompute;
                const auto result = computeDistMsm<Curve>(
                    points, scalars, cluster, options);
                EXPECT_EQ(result.value, naive)
                    << Curve::kName << " glv=" << glv
                    << " batchAffine=" << batch_affine
                    << " precompute=" << precompute;
                if (precompute) {
                    EXPECT_TRUE(result.plan.precompute);
                    EXPECT_GT(result.plan.tableBytes, 0u);
                    EXPECT_GT(result.hostOps, 0u);
                }
            }
        }
    }
}

TEST(PrecomputeKat, AllFlagCombosBn254)
{
    runAllFlagCombos<Bn254>(0xC0DE);
}

TEST(PrecomputeKat, AllFlagCombosBls381)
{
    runAllFlagCombos<Bls381>(0xC1DE);
}

TEST(PrecomputeKat, SignedDigitCombosMatchNaive)
{
    Prng prng(0xC2DE);
    const std::size_t n = 120;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const auto naive = msmNaive<Bn254>(points, scalars);
    const Cluster cluster(DeviceSpec::a100(), 4);
    for (const bool glv : {false, true}) {
        for (const bool batch_affine : {false, true}) {
            MsmOptions options = testOptions(5);
            options.signedDigits = true;
            options.glv = glv;
            options.batchAffine = batch_affine;
            options.precompute = true;
            const auto result = computeDistMsm<Bn254>(
                points, scalars, cluster, options);
            EXPECT_EQ(result.value, naive)
                << "glv=" << glv
                << " batchAffine=" << batch_affine;
        }
    }
}

TEST(PrecomputeDeterminism, BitIdenticalAcrossHostThreads)
{
    Prng prng(0xD0D0);
    const std::size_t n = 170;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), 4);

    auto run = [&](int host_threads) {
        MsmOptions options = testOptions(6);
        options.precompute = true;
        options.glv = true;
        options.batchAffine = true;
        options.signedDigits = true;
        options.hostThreads = host_threads;
        // Fresh tables each run: the parallel table build itself is
        // part of the determinism contract.
        BaseTableCache<Bn254>::global().clear();
        const MsmEngine<Bn254> engine(points, cluster, options);
        return engine.compute(scalars);
    };

    const auto base = run(1);
    for (const int threads : {2, 4}) {
        const auto other = run(threads);
        EXPECT_EQ(other.value, base.value) << threads;
        EXPECT_EQ(other.hostOps, base.hostOps) << threads;
        EXPECT_EQ(other.stats.paccOps, base.stats.paccOps);
        EXPECT_EQ(other.stats.paddOps, base.stats.paddOps);
        EXPECT_EQ(other.stats.affineAddOps,
                  base.stats.affineAddOps);
        EXPECT_EQ(other.stats.globalAtomics,
                  base.stats.globalAtomics);
    }
}

/** Same infinity flag and the same Montgomery limbs of x and y. */
bool
sameBits(const AffinePoint<Bn254> &a, const AffinePoint<Bn254> &b)
{
    return a.infinity == b.infinity && a.x == b.x && a.y == b.y;
}

TEST(PrecomputeTableBuild, RowsAreBitExactWindowMultiples)
{
    // More bases than one chunk and not a multiple of it, so a full
    // and a partial chunk each normalize their own slice of a row.
    const std::size_t n = kTableChunkBases + 37;
    const unsigned windows = 4, s = 3;
    Prng prng(0x7AB1E);
    auto points = generatePoints<Bn254>(n, prng);
    points[5] = AffinePoint<Bn254>::identity();
    for (const bool glv : {false, true}) {
        std::vector<AffinePoint<Bn254>> bases = points;
        if (glv)
            for (const auto &p : points)
                bases.push_back(glv::endomorphism<Bn254>(p));
        std::vector<std::vector<AffinePoint<Bn254>>> want(windows);
        for (unsigned j = 0; j < windows; ++j) {
            BigInt<4> factor{};
            factor.setBit(j * s);
            for (const auto &b : bases)
                want[j].push_back(
                    pmul(XYZZPoint<Bn254>::fromAffine(b), factor)
                        .toAffine());
        }
        for (const int threads : {1, 4}) {
            const auto table = buildPrecomputeTable<Bn254>(
                bases, windows, s, glv, threads);
            EXPECT_EQ(table->buildPdbls,
                      precomputeBuildPdbls(bases.size(), windows, s));
            EXPECT_EQ(table->bytes,
                      precomputeTableBytes(bases.size(), windows, 32));
            ASSERT_EQ(table->rows.size(), windows);
            for (unsigned j = 0; j < windows; ++j) {
                const auto &row = table->rows[j];
                ASSERT_EQ(row.size(), bases.size());
                for (std::size_t i = 0; i < bases.size(); ++i)
                    EXPECT_TRUE(sameBits(row[i], want[j][i]))
                        << "glv=" << glv << " threads=" << threads
                        << " j=" << j << " i=" << i;
                for (std::size_t i = 0; glv && i < n; ++i)
                    EXPECT_TRUE(sameBits(
                        row[n + i], glv::endomorphism<Bn254>(row[i])))
                        << "threads=" << threads << " j=" << j
                        << " i=" << i;
            }
        }
    }
}

TEST(PrecomputeTableBuild, RejectsGlvBasesThatAreNotPhiImages)
{
    // Earlier cases have started the global thread pool: re-execute
    // the binary for the death-test child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Prng prng(0x7AB1F);
    const auto points = generatePoints<Bn254>(8, prng);
    // The points themselves in place of their phi images.
    auto bases = points;
    bases.insert(bases.end(), points.begin(), points.end());
    EXPECT_EXIT(buildPrecomputeTable<Bn254>(bases, 3, 4, true, 1),
                ::testing::ExitedWithCode(1), "phi images");
}

TEST(BaseTableCacheTest, SecondEngineSkipsTableBuild)
{
    Prng prng(0xCAC4E);
    const std::size_t n = 100;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const auto naive = msmNaive<Bn254>(points, scalars);
    const Cluster cluster(DeviceSpec::a100(), 2);
    MsmOptions options = testOptions(5);
    options.precompute = true;

    auto &cache = BaseTableCache<Bn254>::global();
    cache.clear();
    const auto before = cache.stats();

    support::TraceRecorder trace;
    options.trace = &trace;

    const MsmEngine<Bn254> cold(points, cluster, options);
    EXPECT_FALSE(cold.tableCacheHit());
    EXPECT_EQ(cold.compute(scalars).value, naive);
    EXPECT_EQ(cache.stats().misses, before.misses + 1);
    EXPECT_EQ(cache.stats().hits, before.hits);

    // Same bases + same geometry: the second engine must reuse the
    // table instead of rebuilding (the cross-proof cache contract).
    const MsmEngine<Bn254> warm(points, cluster, options);
    EXPECT_TRUE(warm.tableCacheHit());
    EXPECT_EQ(warm.compute(scalars).value, naive);
    EXPECT_EQ(cache.stats().misses, before.misses + 1);
    EXPECT_EQ(cache.stats().hits, before.hits + 1);

    // The metrics lanes record the build-vs-hit split.
    EXPECT_EQ(trace.metrics().value("engine/precompute/cache_misses"),
              1.0);
    EXPECT_EQ(trace.metrics().value("engine/precompute/cache_hits"),
              1.0);
    EXPECT_GT(trace.metrics().value("engine/precompute/table_bytes"),
              0.0);

    // Different geometry misses again (the key includes the window).
    MsmOptions other = options;
    other.windowBitsOverride = 6;
    const MsmEngine<Bn254> regeo(points, cluster, other);
    EXPECT_FALSE(regeo.tableCacheHit());
    EXPECT_EQ(regeo.compute(scalars).value, naive);
}

TEST(BaseTableCacheTest, FingerprintIsOrderAndValueSensitive)
{
    Prng prng(0xF1F1);
    auto points = generatePoints<Bn254>(16, prng);
    const auto base = fingerprintBases<Bn254>(points);
    std::swap(points[0], points[1]);
    EXPECT_NE(fingerprintBases<Bn254>(points), base);
    std::swap(points[0], points[1]);
    EXPECT_EQ(fingerprintBases<Bn254>(points), base);
    points.pop_back();
    EXPECT_NE(fingerprintBases<Bn254>(points), base);
}

TEST(BaseTableCacheTest, LruEvictsOldestEntry)
{
    BaseTableCache<Bn254> cache; // local instance, not global()
    ASSERT_EQ(BaseTableCache<Bn254>::kCapacity, 4u);
    auto build = [] {
        return std::make_shared<PrecomputeTable<Bn254>>();
    };
    const auto key = [](std::uint64_t fp) {
        TableCacheKey k;
        k.fingerprint = fp;
        return k;
    };
    for (std::uint64_t fp = 1; fp <= 4; ++fp)
        cache.findOrBuild(key(fp), build);
    cache.findOrBuild(key(1), build); // refresh 1: now 2 is LRU
    cache.findOrBuild(key(5), build); // evicts 2
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    bool hit = false;
    for (const std::uint64_t fp : {1, 3, 4, 5}) {
        cache.findOrBuild(key(fp), build, &hit);
        EXPECT_TRUE(hit) << "key " << fp;
    }
    cache.findOrBuild(key(2), build, &hit);
    EXPECT_FALSE(hit); // was evicted
    EXPECT_EQ(cache.stats().evictions, 2u);
}

/** A precompute engine's planned table size is its built table's. */
template <typename Curve>
void
expectPlannedTableBytes()
{
    SCOPED_TRACE(Curve::kName);
    Prng prng(0x7AB1E);
    const auto points = generatePoints<Curve>(8, prng);
    const Cluster cluster(DeviceSpec::a100(), 2);
    MsmOptions options = testOptions(16);
    options.precompute = true;
    support::TraceRecorder trace;
    options.trace = &trace;
    const MsmEngine<Curve> engine(points, cluster, options);
    ASSERT_TRUE(engine.plan().precompute);
    EXPECT_EQ(trace.metrics().value("engine/precompute/table_bytes"),
              static_cast<double>(engine.plan().tableBytes));
}

TEST(PrecomputePlanner, PlannedTableBytesMatchBuiltTable)
{
    expectPlannedTableBytes<Bn254>();
    expectPlannedTableBytes<Bls377>();
    expectPlannedTableBytes<Bls381>();
    expectPlannedTableBytes<Mnt4753>();
}

TEST(PrecomputePlanner, DeclinesWhenTableExceedsMemoryBudget)
{
    // 200 bases * 51 windows * 64 B = 652 KiB of tables against a
    // 1 MiB device (budget: half). The window is pinned, so the
    // planner cannot shrink the table and must decline.
    DeviceSpec tiny = DeviceSpec::a100();
    tiny.globalMemBytes = 1ull << 20;
    const Cluster cluster(tiny, 4);
    MsmOptions options = testOptions(5);
    options.precompute = true;
    const auto plan =
        planMsm(profileOf<Bn254>(), 200, cluster, options);
    EXPECT_FALSE(plan.precompute);
    EXPECT_EQ(plan.tableBytes, 0u);
    EXPECT_EQ(plan.windowBits, 5u);

    // The engine honors the declined plan and still computes the
    // right answer through the per-window path.
    Prng prng(0xDEC1);
    const auto points = generatePoints<Bn254>(200, prng);
    const auto scalars = generateScalars<Bn254>(200, prng);
    const auto result =
        computeDistMsm<Bn254>(points, scalars, cluster, options);
    EXPECT_FALSE(result.plan.precompute);
    EXPECT_EQ(result.value, msmNaive<Bn254>(points, scalars));
}

TEST(PrecomputePlanner, GrowsWindowUntilTableFits)
{
    // With the window choice left to the planner, a tight budget
    // shrinks the table by growing the window (fewer rows) instead
    // of declining.
    DeviceSpec tight = DeviceSpec::a100();
    tight.globalMemBytes = 3ull << 20; // budget 1.5 MiB
    const Cluster cluster(tight, 4);
    MsmOptions options;
    options.precompute = true;
    const std::uint64_t n = 1000;
    const auto plan =
        planMsm(profileOf<Bn254>(), n, cluster, options);
    ASSERT_TRUE(plan.precompute);
    EXPECT_LE(plan.tableBytes, tight.globalMemBytes / 2);
    EXPECT_EQ(plan.tableBytes,
              precomputeTableBytes(n, plan.numWindows, 32));

    MsmOptions unbounded = options;
    const Cluster big(DeviceSpec::a100(), 4);
    const auto roomy =
        planMsm(profileOf<Bn254>(), n, big, unbounded);
    ASSERT_TRUE(roomy.precompute);
    EXPECT_GE(plan.windowBits, roomy.windowBits);
    EXPECT_GT(plan.windowBits, 0u);
}

TEST(PrecomputePlanner, UnmodeledMemoryIsUnbounded)
{
    DeviceSpec nomem = DeviceSpec::a100();
    nomem.globalMemBytes = 0;
    const Cluster cluster(nomem, 4);
    MsmOptions options = testOptions(5);
    options.precompute = true;
    const auto plan =
        planMsm(profileOf<Bn254>(), 1 << 12, cluster, options);
    EXPECT_TRUE(plan.precompute);
}

TEST(PrecomputeTimeline, EstimateDropsDoublingChainAndPricesBuild)
{
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions options;
    options.hierarchicalScatter = false;
    const auto base = estimateDistMsm(profileOf<Bn254>(), 1 << 20,
                                      cluster, options);
    options.precompute = true;
    const auto pre = estimateDistMsm(profileOf<Bn254>(), 1 << 20,
                                     cluster, options);
    EXPECT_EQ(base.tableBuildNs, 0.0);
    EXPECT_GT(pre.tableBuildNs, 0.0);
    // The one-time build is amortized, not part of the steady state.
    const double pre_total = pre.totalNs();
    EXPECT_LT(pre_total, pre_total + pre.tableBuildNs);
    // No per-window host chain: the combined shape's window reduce
    // is strictly cheaper.
    EXPECT_LT(pre.windowReduceNs, base.windowReduceNs);
}

TEST(Groth16Engines, EngineBackedProofVerifiesAndReusesCache)
{
    using F = Bn254::Fr;
    Prng circuit_prng(0x6E61);
    const auto built =
        zksnark::buildMulChainCircuit<F>(24, 2, circuit_prng);
    const auto trapdoor = zksnark::Trapdoor<F>::random(circuit_prng);
    const auto keys = zksnark::setup<Bn254>(built.r1cs, trapdoor);
    const std::vector<F> public_inputs(
        built.wires.begin() + 1,
        built.wires.begin() + 1 + built.r1cs.numPublic());

    const Cluster cluster(DeviceSpec::a100(), 2);
    MsmOptions options = testOptions(5);
    options.precompute = true;
    options.glv = true;
    options.batchAffine = true;

    BaseTableCache<Bn254>::global().clear();
    const auto before = BaseTableCache<Bn254>::global().stats();

    const zksnark::ProverEngines<Bn254> engines(keys.pk, cluster,
                                                options);
    const auto after_build = BaseTableCache<Bn254>::global().stats();
    EXPECT_GT(after_build.misses, before.misses);

    Prng prng(0x6E62);
    const auto proof =
        zksnark::prove<Bn254>(keys.pk, built.r1cs, built.wires, prng,
                              nullptr, nullptr, &engines);
    EXPECT_TRUE(zksnark::verify<Bn254>(keys.vk, proof,
                                       public_inputs));

    // The engine-backed proof is the same group element family as
    // the serial reference (randomness aside, both must verify; the
    // MSM values are pinned by proverMsm's bit-identical contract).
    Prng prng2(0x6E62);
    const auto serial = zksnark::prove<Bn254>(keys.pk, built.r1cs,
                                              built.wires, prng2);
    EXPECT_TRUE(proof.a == serial.a);
    EXPECT_TRUE(proof.c == serial.c);

    // A second proving session over the same proving key builds no
    // new tables: every per-table lookup hits.
    const zksnark::ProverEngines<Bn254> again(keys.pk, cluster,
                                              options);
    const auto after_again = BaseTableCache<Bn254>::global().stats();
    EXPECT_EQ(after_again.misses, after_build.misses);
    EXPECT_GT(after_again.hits, after_build.hits);
}

} // namespace
} // namespace distmsm::msm
