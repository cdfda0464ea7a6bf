/**
 * @file
 * End-to-end MSM tests: reference implementations, workload
 * generation, the functional DistMSM execution across cluster
 * shapes, the planner and the baseline models.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "src/ec/curves.h"
#include "src/msm/baseline_profiles.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::CurveProfile;
using gpusim::DeviceSpec;

template <typename Curve>
struct Workload
{
    std::vector<AffinePoint<Curve>> points;
    std::vector<BigInt<Curve::Fr::kLimbs>> scalars;
};

template <typename Curve>
Workload<Curve>
makeWorkload(std::size_t n, std::uint64_t seed)
{
    Prng prng(seed);
    Workload<Curve> w;
    w.points = generatePoints<Curve>(n, prng);
    w.scalars = generateScalars<Curve>(n, prng);
    return w;
}

/** Small scatter geometry so functional runs stay fast. */
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

TEST(WorkloadGen, PointsAreOnCurveAndDistinct)
{
    Prng prng(0x90A7);
    const auto points = generatePoints<Bn254>(64, prng);
    ASSERT_EQ(points.size(), 64u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_TRUE(points[i].isOnCurve());
        EXPECT_FALSE(points[i].infinity);
        for (std::size_t j = i + 1; j < points.size(); ++j)
            EXPECT_FALSE(points[i] == points[j]);
    }
}

TEST(WorkloadGen, ScalarsRespectWidth)
{
    Prng prng(0x90A8);
    const auto scalars = generateScalars<Bls377>(100, prng);
    for (const auto &k : scalars)
        EXPECT_LE(k.bitLength(), 253u);
}

TEST(ReferenceMsm, HandCases)
{
    using Xyzz = XYZZPoint<Bn254>;
    const auto g = Bn254::generator();
    const Xyzz gx = Xyzz::fromAffine(g);

    // 1 * G = G
    EXPECT_EQ(msmNaive<Bn254>({g}, std::vector<BigInt<4>>{
                                       BigInt<4>::fromU64(1)}),
              gx);
    // 0 * G = O
    EXPECT_TRUE(msmNaive<Bn254>({g}, std::vector<BigInt<4>>{
                                         BigInt<4>::zero()})
                    .isIdentity());
    // 2G + 3G = 5G
    const auto two_g = pdbl(gx).toAffine();
    const std::vector<AffinePoint<Bn254>> pts = {g, two_g};
    const std::vector<BigInt<4>> ks = {BigInt<4>::fromU64(2),
                                       BigInt<4>::fromU64(3)};
    EXPECT_EQ(msmNaive<Bn254>(pts, ks),
              pmul(gx, BigInt<4>::fromU64(8)));
}

template <typename C>
class MsmCurveTest : public ::testing::Test
{
};

using MsmCurves = ::testing::Types<Bn254, Bls377, Bls381, Mnt4753>;
TYPED_TEST_SUITE(MsmCurveTest, MsmCurves);

TYPED_TEST(MsmCurveTest, SerialPippengerMatchesNaive)
{
    const auto w = makeWorkload<TypeParam>(40, 0xAB);
    const auto naive = msmNaive<TypeParam>(w.points, w.scalars);
    for (unsigned s : {3u, 8u, 13u}) {
        EXPECT_EQ(msmSerialPippenger<TypeParam>(w.points, w.scalars,
                                                s),
                  naive)
            << "s=" << s;
    }
}

TYPED_TEST(MsmCurveTest, DistMsmMatchesNaive)
{
    const auto w = makeWorkload<TypeParam>(50, 0xAC);
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto result = computeDistMsm<TypeParam>(
        w.points, w.scalars, cluster, testOptions(8));
    EXPECT_EQ(result.value, msmNaive<TypeParam>(w.points, w.scalars));
}

TEST(DistMsm, MatchesAcrossClusterShapes)
{
    const auto w = makeWorkload<Bn254>(300, 0xAD);
    const auto expect = msmNaive<Bn254>(w.points, w.scalars);
    for (int gpus : {1, 4, 16, 32, 64}) {
        const Cluster cluster(DeviceSpec::a100(), gpus);
        const auto result = computeDistMsm<Bn254>(
            w.points, w.scalars, cluster, testOptions(7));
        EXPECT_EQ(result.value, expect) << gpus << " GPUs";
    }
}

TEST(DistMsm, MatchesWithNaiveScatterAndGpuReduce)
{
    const auto w = makeWorkload<Bls381>(120, 0xAE);
    const auto expect = msmNaive<Bls381>(w.points, w.scalars);
    MsmOptions options = testOptions(6);
    options.hierarchicalScatter = false;
    options.cpuBucketReduce = false;
    const Cluster cluster(DeviceSpec::a100(), 4);
    const auto result =
        computeDistMsm<Bls381>(w.points, w.scalars, cluster, options);
    EXPECT_EQ(result.value, expect);
}

TEST(DistMsm, MatchesAcrossWindowSizes)
{
    const auto w = makeWorkload<Bn254>(150, 0xAF);
    const auto expect = msmNaive<Bn254>(w.points, w.scalars);
    for (unsigned s : {2u, 5u, 9u, 12u}) {
        const Cluster cluster(DeviceSpec::a100(), 8);
        const auto result = computeDistMsm<Bn254>(
            w.points, w.scalars, cluster, testOptions(s));
        EXPECT_EQ(result.value, expect) << "s=" << s;
    }
}

TEST(DistMsm, HandlesDegenerateInputs)
{
    const Cluster cluster(DeviceSpec::a100(), 2);
    // All-zero scalars.
    auto w = makeWorkload<Bn254>(32, 0xB0);
    for (auto &k : w.scalars)
        k = BigInt<4>::zero();
    EXPECT_TRUE(computeDistMsm<Bn254>(w.points, w.scalars, cluster,
                                      testOptions(6))
                    .value.isIdentity());
    // Repeated identical points (forces pdbl paths in buckets).
    auto w2 = makeWorkload<Bn254>(4, 0xB1);
    std::vector<AffinePoint<Bn254>> same(
        16, Bn254::generator());
    std::vector<BigInt<4>> ones(16, BigInt<4>::fromU64(3));
    const auto result = computeDistMsm<Bn254>(same, ones, cluster,
                                              testOptions(6));
    EXPECT_EQ(result.value,
              pmul(XYZZPoint<Bn254>::fromAffine(Bn254::generator()),
                   BigInt<4>::fromU64(48)));
}

TEST(DistMsm, StatsAreAccumulated)
{
    const auto w = makeWorkload<Bn254>(200, 0xB2);
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto result = computeDistMsm<Bn254>(w.points, w.scalars,
                                              cluster, testOptions(7));
    EXPECT_GT(result.stats.paccOps, 0u);
    EXPECT_GT(result.stats.sharedAtomics, 0u);
    EXPECT_GT(result.hostOps, 0u);
    // Every non-zero scalar chunk costs one PACC.
    std::uint64_t nonzero_chunks = 0;
    const unsigned s = result.plan.windowBits;
    for (const auto &k : w.scalars) {
        for (unsigned win = 0; win < result.plan.numWindows; ++win)
            nonzero_chunks += k.bits(win * s, s) != 0;
    }
    EXPECT_EQ(result.stats.paccOps, nonzero_chunks);
}

// Default options at s = 16: the plan resolves the requested
// hierarchical scatter to the naive kernel, so the run succeeds and is
// exactly the run that asked for the naive scatter.
TEST(DistMsm, WideWindowFallsBackToNaiveScatter)
{
    const auto w = makeWorkload<Bn254>(std::size_t{1} << 10, 0xB3);
    const auto expect = msmSerialPippenger<Bn254>(w.points, w.scalars, 8);
    const Cluster cluster(DeviceSpec::a100(), 4);
    for (const int threads : {1, 4}) {
        MsmOptions options;
        options.windowBitsOverride = 16;
        options.hostThreads = threads;
        const auto got = tryComputeDistMsm<Bn254>(w.points, w.scalars,
                                                  cluster, options);
        ASSERT_TRUE(got.isOk()) << got.status().toString();
        EXPECT_EQ(got->value, expect) << "hostThreads=" << threads;

        options.hierarchicalScatter = false;
        const auto naive = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, options);
        ASSERT_TRUE(naive.isOk()) << naive.status().toString();
        EXPECT_TRUE(bitEqual(got->value, naive->value));
        EXPECT_EQ(got->stats, naive->stats);
        EXPECT_EQ(got->hostOps, naive->hostOps);
        EXPECT_EQ(0, std::memcmp(&got->fault, &naive->fault,
                                 sizeof(gpusim::FaultReport)));
    }
}

// The hierarchical kernel needs 2^s counters plus a one-element tile
// in a block's shared memory: the default ScatterConfig (160 KiB)
// holds that up to s = 14. A caller who asked for the naive scatter
// always gets it.
TEST(Planner, HierarchicalScatterResolvedAgainstSharedMemory)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 1);
    for (const unsigned s : {14u, 15u, 16u}) {
        MsmOptions options;
        options.windowBitsOverride = s;
        EXPECT_EQ(planMsm(curve, 1ull << 20, cluster, options)
                      .hierarchicalScatter,
                  s == 14)
            << "s=" << s;
        options.hierarchicalScatter = false;
        EXPECT_FALSE(planMsm(curve, 1ull << 20, cluster, options)
                         .hierarchicalScatter)
            << "s=" << s;
    }
}

TEST(Planner, SplitsBucketsWhenGpusExceedWindows)
{
    const CurveProfile curve = CurveProfile::bls377();
    const Cluster cluster(DeviceSpec::a100(), 32);
    MsmOptions options;
    options.windowBitsOverride = 16; // 16 windows < 32 GPUs
    const MsmPlan plan =
        planMsm(curve, 1ull << 26, cluster, options);
    EXPECT_TRUE(plan.bucketsSplitAcrossGpus);
    EXPECT_EQ(plan.gpusPerWindow, 2);
    EXPECT_EQ(plan.windowsPerGpu, 1u);
}

TEST(Planner, WholeWindowsOnSmallClusters)
{
    const CurveProfile curve = CurveProfile::bls377();
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions options;
    options.windowBitsOverride = 16;
    const MsmPlan plan =
        planMsm(curve, 1ull << 26, cluster, options);
    EXPECT_FALSE(plan.bucketsSplitAcrossGpus);
    EXPECT_EQ(plan.windowsPerGpu, 2u);
    // Paper's small-window multi-GPU regime: many threads per
    // bucket, warp multiples.
    options.windowBitsOverride = 11;
    const MsmPlan small =
        planMsm(curve, 1ull << 26, cluster, options);
    EXPECT_GE(small.threadsPerBucket, 32);
    EXPECT_EQ(small.threadsPerBucket % 32, 0);
}

TEST(Planner, EstimatesScaleDown)
{
    // More GPUs => shorter simulated MSM (DistMSM's design goal).
    const CurveProfile curve = CurveProfile::bls381();
    MsmOptions options;
    double prev = 1e100;
    for (int gpus : {1, 8, 16, 32}) {
        const Cluster cluster(DeviceSpec::a100(), gpus);
        const auto t =
            estimateDistMsm(curve, 1ull << 26, cluster, options);
        EXPECT_LT(t.totalNs(), prev) << gpus;
        prev = t.totalNs();
    }
}

TEST(Planner, EstimatesGrowWithN)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions options;
    double prev = 0;
    for (unsigned logn : {22u, 24u, 26u, 28u}) {
        const auto t = estimateDistMsm(curve, 1ull << logn, cluster,
                                       options);
        EXPECT_GT(t.totalNs(), prev);
        prev = t.totalNs();
    }
}

TEST(Baselines, TableTwoCurveSupport)
{
    const auto &baselines = allBaselines();
    ASSERT_EQ(baselines.size(), 6u);
    auto find = [&](const char *name) -> const BaselineProfile & {
        for (const auto &b : baselines) {
            if (std::string(b.name) == name)
                return b;
        }
        ADD_FAILURE() << name;
        return baselines.front();
    };
    EXPECT_TRUE(find("Bellperson").supports(CurveProfile::bls381()));
    EXPECT_FALSE(find("Bellperson").supports(CurveProfile::bn254()));
    EXPECT_TRUE(find("cuZK").supports(CurveProfile::mnt4753()));
    EXPECT_TRUE(find("Yrrid").supports(CurveProfile::bls377()));
    EXPECT_FALSE(find("Yrrid").supports(CurveProfile::bls381()));
    EXPECT_TRUE(find("Mina").supports(CurveProfile::mnt4753()));
    EXPECT_FALSE(find("Sppark").supports(CurveProfile::mnt4753()));
}

TEST(Baselines, YrridWinsSingleGpuBls377)
{
    // Table 3: DistMSM "lags behind Yrrid for BLS12-377 when using
    // only one GPU".
    const CurveProfile curve = CurveProfile::bls377();
    const Cluster one(DeviceSpec::a100(), 1);
    const auto best = bestBaseline(curve, 1ull << 24, one);
    EXPECT_STREQ(best.profile->name, "Yrrid");
    const auto dist = estimateDistMsm(curve, 1ull << 24, one, {});
    EXPECT_GT(dist.totalNs(), best.timeline.totalNs());
}

TEST(Baselines, DistMsmOvertakesWithManyGpus)
{
    // The headline shape: DistMSM beats the best baseline at scale,
    // on every curve.
    for (const auto &curve :
         {CurveProfile::bn254(), CurveProfile::bls377(),
          CurveProfile::bls381(), CurveProfile::mnt4753()}) {
        const Cluster many(DeviceSpec::a100(), 32);
        const auto best = bestBaseline(curve, 1ull << 26, many);
        const auto dist =
            estimateDistMsm(curve, 1ull << 26, many, {});
        EXPECT_LT(dist.totalNs(), best.timeline.totalNs())
            << curve.name;
    }
}

TEST(Baselines, YrridScalesWorstOnBls377)
{
    // Figure 8: "Yrrid, despite its superior single-GPU performance,
    // scales the least effectively."
    const CurveProfile curve = CurveProfile::bls377();
    const Cluster one(DeviceSpec::a100(), 1);
    const Cluster many(DeviceSpec::a100(), 32);
    double worst_speedup = 1e100;
    const char *worst_name = nullptr;
    for (const auto &b : allBaselines()) {
        if (!b.supports(curve))
            continue;
        const double speedup =
            b.estimate(curve, 1ull << 26, one).totalNs() /
            b.estimate(curve, 1ull << 26, many).totalNs();
        if (speedup < worst_speedup) {
            worst_speedup = speedup;
            worst_name = b.name;
        }
    }
    EXPECT_STREQ(worst_name, "Yrrid");
}

TEST(Baselines, DistMsmScalesNearLinearlyAtLargeN)
{
    // "at the data point where N = 2^28, the performance on 32 GPUs
    // is 31x that of a single GPU."
    const CurveProfile curve = CurveProfile::bls377();
    const Cluster one(DeviceSpec::a100(), 1);
    const Cluster many(DeviceSpec::a100(), 32);
    const double speedup =
        estimateDistMsm(curve, 1ull << 28, one, {}).totalNs() /
        estimateDistMsm(curve, 1ull << 28, many, {}).totalNs();
    EXPECT_GT(speedup, 18.0);
    EXPECT_LE(speedup, 33.0);
}

} // namespace
} // namespace distmsm::msm
