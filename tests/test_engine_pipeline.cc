/**
 * @file
 * Tests for the reusable MsmEngine, the proving pipeline model
 * (Section 3.2.3's overlapped bucket-reduce), wNAF scalar
 * multiplication and fixed-base window tables.
 */

#include <gtest/gtest.h>

#include "src/ec/curves.h"
#include "src/ec/scalar_mul.h"
#include "src/msm/distmsm.h"
#include "src/msm/pipeline.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"

namespace distmsm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;

msm::MsmOptions
smallOptions(unsigned s)
{
    msm::MsmOptions o;
    o.windowBitsOverride = s;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 64 * 1024;
    return o;
}

TEST(MsmEngineTest, ReusedAcrossScalarVectors)
{
    Prng prng(0xE6);
    const auto points = msm::generatePoints<Bn254>(100, prng);
    const Cluster cluster(DeviceSpec::a100(), 8);
    const msm::MsmEngine<Bn254> engine(points, cluster,
                                       smallOptions(7));
    for (int round = 0; round < 3; ++round) {
        const auto scalars =
            msm::generateScalars<Bn254>(100, prng);
        const auto result = engine.compute(scalars);
        EXPECT_EQ(result.value,
                  msm::msmNaive<Bn254>(points, scalars))
            << "round " << round;
    }
}

TEST(MsmEngineTest, PrecomputeTableBuiltOnce)
{
    Prng prng(0xE7);
    const auto points = msm::generatePoints<Bn254>(60, prng);
    const Cluster cluster(DeviceSpec::a100(), 4);
    auto options = smallOptions(6);
    options.precompute = true;
    const msm::MsmEngine<Bn254> engine(points, cluster, options);
    // Two computes reuse the same table; both must be right.
    for (int round = 0; round < 2; ++round) {
        const auto scalars = msm::generateScalars<Bn254>(60, prng);
        EXPECT_EQ(engine.compute(scalars).value,
                  msm::msmNaive<Bn254>(points, scalars));
    }
}

TEST(MsmEngineTest, RejectsWrongScalarCount)
{
    // Earlier cases have started the global thread pool. A forked
    // ("fast") death-test child would run the pool's destructor on
    // exit(1) and join workers that do not exist in the child; the
    // threadsafe style re-executes the binary for the child instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Prng prng(0xE8);
    const auto points = msm::generatePoints<Bn254>(16, prng);
    const Cluster cluster(DeviceSpec::a100(), 1);
    const msm::MsmEngine<Bn254> engine(points, cluster,
                                       smallOptions(4));
    const auto scalars = msm::generateScalars<Bn254>(8, prng);
    EXPECT_EXIT(engine.compute(scalars),
                ::testing::ExitedWithCode(1), "mismatch");
}

TEST(Pipeline, MakespanRecurrence)
{
    using msm::PipelineTask;
    // Host stages fully hidden behind GPU stages: 4 ns below the
    // serial 3 * (10 + 2).
    std::vector<PipelineTask> tasks = {
        {10, 2}, {10, 2}, {10, 2}};
    EXPECT_DOUBLE_EQ(msm::pipelineMakespanNs(tasks), 32.0);
    // Host-bound pipeline: host becomes the critical path.
    tasks = {{2, 10}, {2, 10}, {2, 10}};
    EXPECT_DOUBLE_EQ(msm::pipelineMakespanNs(tasks), 32.0);
    // Single task: no overlap possible.
    tasks = {{5, 7}};
    EXPECT_DOUBLE_EQ(msm::pipelineMakespanNs(tasks), 12.0);
    // No tasks: nothing to schedule.
    EXPECT_DOUBLE_EQ(msm::pipelineMakespanNs({}), 0.0);
}

TEST(Pipeline, BoundsHold)
{
    using msm::PipelineTask;
    Prng prng(0x91);
    std::vector<PipelineTask> tasks;
    double gpu_sum = 0, host_sum = 0;
    for (int i = 0; i < 12; ++i) {
        PipelineTask t{1.0 + static_cast<double>(prng.below(100)),
                       1.0 + static_cast<double>(prng.below(100))};
        gpu_sum += t.gpuNs;
        host_sum += t.hostNs;
        tasks.push_back(t);
    }
    const double pipelined = msm::pipelineMakespanNs(tasks);
    EXPECT_GE(pipelined, std::max(gpu_sum, host_sum));
    EXPECT_LE(pipelined, gpu_sum + host_sum);
}

TEST(Timeline, TransferBelongsToTheGpuStage)
{
    // Section 3.2.3's overlap model: the device-to-host transfer is
    // part of the GPU stage the host reduce hides behind, never a
    // separate serial term (the accounting bug this PR fixes).
    msm::MsmTimeline t;
    t.scatterNs = 100;
    t.bucketSumNs = 200;
    t.transferNs = 50;
    t.bucketReduceNs = 300;
    t.windowReduceNs = 10;
    t.cpuReduce = true;
    t.reduceOverlapped = true;
    EXPECT_DOUBLE_EQ(t.gpuNs(), 300.0);
    EXPECT_DOUBLE_EQ(t.gpuStageNs(), 350.0);
    EXPECT_DOUBLE_EQ(t.hostStageNs(), 310.0);
    // Reduce (300) hides entirely behind the GPU stage (350).
    EXPECT_DOUBLE_EQ(t.totalNs(), 350.0 + 10.0);
    // A longer reduce exposes only its tail past the GPU stage.
    t.bucketReduceNs = 500;
    EXPECT_DOUBLE_EQ(t.totalNs(), 350.0 + 150.0 + 10.0);
    // No overlap: the full reduce serializes.
    t.reduceOverlapped = false;
    EXPECT_DOUBLE_EQ(t.totalNs(), 350.0 + 500.0 + 10.0);
    // GPU-resident reduce joins the GPU stage.
    t.cpuReduce = false;
    EXPECT_DOUBLE_EQ(t.gpuStageNs(), 850.0);
    EXPECT_DOUBLE_EQ(t.totalNs(), 850.0 + 10.0);
}

TEST(Pipeline, OneTaskEqualsTimelineTotal)
{
    // Regression for the reconciled overlap accounting: a pipeline
    // of one MSM must take exactly the standalone timeline's
    // totalNs() with overlapReduce on — previously the pipeline
    // double-charged the hidden reduce and serialized the transfer.
    const auto curve = gpusim::CurveProfile::bn254();
    for (const int gpus : {1, 8}) {
        const Cluster cluster(DeviceSpec::a100(), gpus);
        for (const unsigned s : {11u, 16u}) {
            msm::MsmOptions options;
            options.windowBitsOverride = s;
            options.overlapReduce = true;
            const auto t = msm::estimateDistMsm(curve, 1ull << 22,
                                                cluster, options);
            const auto estimate = msm::estimateProvingPipeline(
                curve, 1ull << 22, cluster, options, 1);
            EXPECT_DOUBLE_EQ(estimate.pipelinedNs, t.totalNs())
                << "gpus=" << gpus << " s=" << s;
            const auto multi = msm::estimateProvingPipeline(
                curve, std::vector<std::uint64_t>{1ull << 22},
                cluster, options);
            EXPECT_DOUBLE_EQ(multi.pipelinedNs, t.totalNs())
                << "heterogeneous overload, gpus=" << gpus;
        }
    }
}

TEST(Pipeline, ScheduleRealizesMakespan)
{
    using msm::PipelineTask;
    const std::vector<PipelineTask> tasks = {
        {10, 4}, {6, 12}, {8, 3}};
    const auto slots = msm::pipelineSchedule(tasks);
    ASSERT_EQ(slots.size(), tasks.size());
    EXPECT_DOUBLE_EQ(slots.back().hostEndNs,
                     msm::pipelineMakespanNs(tasks));
    double gpu_cursor = 0.0;
    double host_done = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_DOUBLE_EQ(slots[i].gpuStartNs, gpu_cursor);
        gpu_cursor += tasks[i].gpuNs;
        EXPECT_DOUBLE_EQ(slots[i].gpuEndNs, gpu_cursor);
        // Host slot starts when both dependencies are met.
        EXPECT_DOUBLE_EQ(
            slots[i].hostStartNs,
            std::max(host_done, slots[i].gpuEndNs));
        host_done = slots[i].hostEndNs;
    }
}

TEST(Pipeline, HidesCpuReduceAtScale)
{
    // Section 3.2.3: with several MSMs per proof the CPU reduce is
    // essentially free.
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    msm::MsmOptions options;
    options.windowBitsOverride = 11; // engage the CPU reduce
    const auto estimate = msm::estimateProvingPipeline(
        curve, 1ull << 24, cluster, options, 4);
    EXPECT_LT(estimate.pipelinedNs, estimate.serialNs);
    EXPECT_GT(estimate.hiddenFraction(), 0.0);
    // The pipelined time approaches the pure GPU time.
    double gpu_only = 0;
    for (const auto &t : estimate.tasks)
        gpu_only += t.gpuNs;
    EXPECT_LT(estimate.pipelinedNs, 1.25 * gpu_only);
}

template <typename C>
class ScalarMulTest : public ::testing::Test
{
  protected:
    using Xyzz = XYZZPoint<C>;
    Prng prng_{0x3CA1A};

    BigInt<C::Fr::kLimbs>
    randScalar()
    {
        auto k = BigInt<C::Fr::kLimbs>::random(prng_);
        k.truncateToBits(C::kScalarBits);
        return k;
    }
};

using ScalarCurves = ::testing::Types<Bn254, Mnt4753>;
TYPED_TEST_SUITE(ScalarMulTest, ScalarCurves);

TYPED_TEST(ScalarMulTest, WnafDigitsAreValid)
{
    for (unsigned w : {2u, 4u, 6u}) {
        const auto k = this->randScalar();
        const auto digits = wnafDigits(k, w);
        const std::int32_t bound = (1 << (w - 1)) - 1;
        int last_nonzero = -static_cast<int>(w);
        for (std::size_t i = 0; i < digits.size(); ++i) {
            if (digits[i] == 0)
                continue;
            EXPECT_EQ(digits[i] % 2 != 0, true) << "digit must be odd";
            EXPECT_LE(digits[i], bound);
            EXPECT_GE(digits[i], -bound);
            EXPECT_GE(static_cast<int>(i) - last_nonzero,
                      static_cast<int>(w))
                << "non-adjacency violated";
            last_nonzero = static_cast<int>(i);
        }
    }
}

TYPED_TEST(ScalarMulTest, WnafMatchesDoubleAndAdd)
{
    using Xyzz = typename ScalarMulTest<TypeParam>::Xyzz;
    const Xyzz g = Xyzz::fromAffine(TypeParam::generator());
    for (unsigned w : {2u, 4u, 5u}) {
        const auto k = this->randScalar();
        EXPECT_EQ(pmulWnaf(g, k, w), pmul(g, k)) << "w=" << w;
    }
    // Edges.
    EXPECT_TRUE(
        pmulWnaf(g, BigInt<4>::zero(), 4).isIdentity());
    EXPECT_EQ(pmulWnaf(g, BigInt<4>::fromU64(1), 4), g);
}

TYPED_TEST(ScalarMulTest, FixedBaseTableMatchesPmul)
{
    using Xyzz = typename ScalarMulTest<TypeParam>::Xyzz;
    const Xyzz g = Xyzz::fromAffine(TypeParam::generator());
    const FixedBaseTable<TypeParam> table(g, TypeParam::kScalarBits,
                                          6);
    for (int i = 0; i < 5; ++i) {
        const auto k = this->randScalar();
        EXPECT_EQ(table.mul(k), pmul(g, k));
    }
    EXPECT_TRUE(table.mul(BigInt<4>::zero()).isIdentity());
    EXPECT_EQ(table.mul(BigInt<4>::fromU64(1)), g);
}

} // namespace
} // namespace distmsm
