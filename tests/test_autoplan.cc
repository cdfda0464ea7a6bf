/**
 * @file
 * Autoscheduling planner tests (msm/autoplan.h).
 *
 * The contracts under test:
 *  - Search never loses: the searched plan's analytic totalNs is <=
 *    the heuristic plan's across a randomized (curve, N, topology,
 *    option-mask, fault plan, watchdog) sweep — guaranteed by
 *    seeding the SearchDriver with the heuristic candidate and
 *    displacing it only on a strictly better score. Ties return the
 *    heuristic's exact plan.
 *  - Engine differential: an engine driven by the searched plan
 *    computes the same MSM value as the heuristic engine and the
 *    serial Pippenger reference.
 *  - The satellite bugfixes: the threadsPerBucket override respects
 *    the 1024-thread cap and the idle guard, and the N-dim baseline
 *    charges the ceiling slice (the slowest GPU's share).
 */

#include <gtest/gtest.h>

#include <string>

#include "src/ec/curves.h"
#include "src/msm/autoplan.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "tests/same_plan.h"
#include "tests/sweep_cases.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::CollectivePolicy;
using gpusim::CurveProfile;
using gpusim::DeviceSpec;
using gpusim::FaultPlan;
using gpusim::FieldBackend;
using gpusim::Topology;

CurveProfile
curveByIndex(unsigned i)
{
    switch (i % 4) {
      case 0:
        return CurveProfile::bn254();
      case 1:
        return CurveProfile::bls377();
      case 2:
        return CurveProfile::bls381();
      default:
        return CurveProfile::mnt4753();
    }
}

// ---------------------------------------------------------------
// Search-never-loses sweep: randomized (curve, N, topology, option
// mask, fault plan, watchdog) cases, fixed seeds for a stable tier-1
// corpus; DISTMSM_SWEEP_CASES deepens the sweep in CI soak runs.
// ---------------------------------------------------------------
TEST(AutoplanSweep, SearchNeverLosesToHeuristic)
{
    const long cases = sweepCases(16);
    const auto check = [](const CurveProfile &curve, unsigned log_n,
                          const Cluster &cluster, const MsmOptions &base,
                          const std::string &where) {
        const std::uint64_t n = std::uint64_t{1} << log_n;
        MsmOptions heur = base;
        heur.planner = PlannerMode::Heuristic;
        MsmOptions search = base;
        search.planner = PlannerMode::Search;

        const double heur_ns =
            estimateDistMsm(curve, n, cluster, heur).totalNs();
        const double search_ns =
            estimateDistMsm(curve, n, cluster, search).totalNs();
        EXPECT_LE(search_ns, heur_ns) << where;

        // The plan alone reprices the search: priced under the
        // caller's own options it reproduces the searched score
        // exactly, so no searched decision lives outside the plan.
        const AutoPlanResult r = autoplanMsm(curve, n, cluster, search);
        EXPECT_EQ(estimateDistMsmWithPlan(curve, n, cluster, search,
                                          r.plan)
                      .totalNs(),
                  r.searchedNs)
            << where;

        // The search is deterministic: re-planning returns the
        // same plan bit-identically.
        EXPECT_TRUE(samePlan(planMsm(curve, n, cluster, search),
                             planMsm(curve, n, cluster, search)))
            << where;
    };

    // One fixed input first: BN254 at 2^20 on 8 flat GPUs with
    // default options, the planner comparison the README quotes.
    check(CurveProfile::bn254(), 20, Cluster(DeviceSpec::a100(), 8),
          MsmOptions{}, "fixed: BN254 N=2^20 on flat 8, defaults");

    Prng prng(0xA070);
    // Faults and the watchdog move totalNs, so the search must win
    // under them too. They come from their own stream, which keeps
    // every other draw of the fault-free corpus.
    Prng fault_prng(0xFA17);
    constexpr const char *kFaultSpecs[] = {
        "", "degrade:dev=0,factor=8", "hang:dev=0", "flaky:dev=0,p=1",
        "corrupt:dev=0"};
    for (long c = 0; c < cases; ++c) {
        const CurveProfile curve =
            curveByIndex(static_cast<unsigned>(prng.below(4)));
        const unsigned log_n =
            14 + static_cast<unsigned>(prng.below(11)); // [14, 24]
        Topology topology;
        switch (prng.below(3)) {
          case 0:
            topology = Topology::flat(
                1 + static_cast<int>(prng.below(16)));
            break;
          case 1:
            topology =
                Topology::dgx(1 + static_cast<int>(prng.below(4)),
                              1 + static_cast<int>(prng.below(8)));
            break;
          default: {
            const auto topo_or = Topology::parse(
                "nodes=2,gpus=4,intra=ring,nics=2");
            ASSERT_TRUE(topo_or.isOk());
            topology = *topo_or;
          }
        }
        const Cluster cluster(DeviceSpec::a100(), topology);

        MsmOptions base;
        base.signedDigits = prng.below(2) != 0;
        base.glv = prng.below(2) != 0;
        base.batchAffine = prng.below(2) != 0;
        base.precompute = prng.below(2) != 0;
        base.cpuBucketReduce = prng.below(2) != 0;
        base.overlapReduce = prng.below(2) != 0;
        if (prng.below(4) == 0)
            base.windowBitsOverride =
                8 + static_cast<unsigned>(prng.below(10));
        constexpr CollectivePolicy kPolicies[] = {
            CollectivePolicy::Gather, CollectivePolicy::Ring,
            CollectivePolicy::Tree, CollectivePolicy::ReduceScatter,
            CollectivePolicy::Auto};
        base.collective = kPolicies[prng.below(5)];
        constexpr FieldBackend kBackends[] = {
            FieldBackend::Auto, FieldBackend::CudaCore,
            FieldBackend::TensorCore};
        base.fieldBackend = kBackends[prng.below(3)];
        const char *fault_spec = kFaultSpecs[fault_prng.below(5)];
        const auto faults_or = FaultPlan::parse(fault_spec);
        ASSERT_TRUE(faults_or.isOk()) << fault_spec;
        base.faults = *faults_or;
        base.watchdog = fault_prng.below(2) != 0;
        const std::string where =
            "case " + std::to_string(c) + ": " + curve.name +
            " N=2^" + std::to_string(log_n) + " on " +
            topology.describe() + ", faults '" + fault_spec +
            "', watchdog " + (base.watchdog ? "on" : "off");
        check(curve, log_n, cluster, base, where);
    }
}

// On a tie (every candidate >= the seed) the search returns the
// heuristic's exact plan; in general the searched plan matches
// searchedNs and the heuristic plan heuristicNs.
TEST(AutoplanSweep, SeedIsHeuristicPlan)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const std::uint64_t n = 1ull << 20;
    MsmOptions base;

    const AutoPlanResult r = autoplanMsm(curve, n, cluster, base);
    EXPECT_DOUBLE_EQ(
        r.heuristicNs,
        estimateDistMsm(curve, n, cluster, base).totalNs());
    // The returned plan alone reprices the search under the caller's
    // options. Its fieldBackendAuto reports the caller's contract
    // (base asked Auto, so the provenance bit stays true even when
    // the search pinned a backend for pricing).
    EXPECT_EQ(
        estimateDistMsmWithPlan(curve, n, cluster, base, r.plan)
            .totalNs(),
        r.searchedNs);
    EXPECT_TRUE(r.plan.fieldBackendAuto);
    EXPECT_LE(r.searchedNs, r.heuristicNs);
    EXPECT_GE(r.evaluated, 1u);
}

// ---------------------------------------------------------------
// Engine differential: searched plans compute the same MSM value
// as heuristic plans (XYZZ projective equality, which is the
// cross-plan contract — different window/digit choices produce
// different representatives of the same point).
// ---------------------------------------------------------------
TEST(AutoplanEngine, SearchedPlanMatchesHeuristicResult)
{
    using Curve = Bn254;
    Prng prng(0xBEEF);
    const std::size_t n = 1u << 10;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), 4);

    MsmOptions base;
    base.windowBitsOverride = 8;
    base.scatter.blockDim = 64;
    base.scatter.gridDim = 4;
    base.scatter.sharedBytesPerBlock = 128 * 1024;
    base.hostThreads = 1;

    MsmOptions heur = base;
    heur.planner = PlannerMode::Heuristic;
    MsmOptions search = base;
    search.planner = PlannerMode::Search;

    const auto expect = msmSerialPippenger<Curve>(points, scalars, 8);
    const auto heur_result =
        computeDistMsm<Curve>(points, scalars, cluster, heur);
    const auto search_result =
        computeDistMsm<Curve>(points, scalars, cluster, search);
    EXPECT_TRUE(heur_result.value == expect);
    EXPECT_TRUE(search_result.value == expect);
    EXPECT_TRUE(search_result.value == heur_result.value);
}

// The engine adopts the searched candidate's functional knobs but
// must not engage the slow tcmul differential execution unless the
// *user* forced the tensor-core backend.
TEST(AutoplanEngine, SearchWithFreeWindowMatchesReference)
{
    using Curve = Bls381;
    Prng prng(0xCAFE);
    const std::size_t n = 1u << 9;
    const auto points = generatePoints<Curve>(n, prng);
    const auto scalars = generateScalars<Curve>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), 2);

    MsmOptions search;
    search.planner = PlannerMode::Search;
    search.scatter.blockDim = 64;
    search.scatter.gridDim = 4;
    search.scatter.sharedBytesPerBlock = 128 * 1024;
    search.hostThreads = 1;

    const auto result =
        computeDistMsm<Curve>(points, scalars, cluster, search);
    const auto expect = msmSerialPippenger<Curve>(points, scalars, 8);
    EXPECT_TRUE(result.value == expect);
}

// ---------------------------------------------------------------
// Satellite bugfixes.
// ---------------------------------------------------------------

// A forced threadsPerBucket=4096 must come back capped: the 1024
// block cap when buckets are dense, the 2x-points-per-bucket idle
// guard when they are not.
TEST(PlannerFixes, ThreadsPerBucketOverrideIsCapped)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);

    MsmOptions options;
    options.windowBitsOverride = 8; // 255 buckets, ppb ~ 4k
    options.threadsPerBucket = 4096;
    const MsmPlan plan =
        planMsm(curve, 1ull << 20, cluster, options);
    EXPECT_EQ(plan.threadsPerBucket, 1024);

    // Sparse buckets: the idle guard (2 * points_per_bucket) wins
    // over the override — the forced 4096 cannot conjure work.
    MsmOptions sparse;
    sparse.windowBitsOverride = 8;
    sparse.threadsPerBucket = 4096;
    const MsmPlan sparse_plan =
        planMsm(curve, 1ull << 8, cluster, sparse);
    EXPECT_LE(sparse_plan.threadsPerBucket, 8);

    // No override: the legacy grow loop is untouched.
    MsmOptions plain;
    plain.windowBitsOverride = 8;
    const MsmPlan plain_plan =
        planMsm(curve, 1ull << 20, cluster, plain);
    EXPECT_LE(plain_plan.threadsPerBucket, 1024);
    EXPECT_GE(plain_plan.threadsPerBucket, 1);
}

// The N-dim baseline charges ceil(N / numGpus) — the slowest GPU's
// share. With the window pinned, N = 8k+1 must cost exactly what
// N = 8k+8 costs (same per-GPU slice) and strictly more than
// N = 8k (a larger slice), which the old truncating division got
// backwards (8k+1 priced as 8k).
TEST(PlannerFixes, NdimBaselineUsesCeilingSlice)
{
    const CurveProfile curve = CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto kernel = gpusim::EcKernelVariant::full();
    const std::uint64_t n = 1ull << 20; // divisible by 8

    const double at_n =
        estimateNdimBaseline(curve, n, cluster, kernel, 16)
            .totalNs();
    const double just_over =
        estimateNdimBaseline(curve, n + 1, cluster, kernel, 16)
            .totalNs();
    const double next_full =
        estimateNdimBaseline(curve, n + 8, cluster, kernel, 16)
            .totalNs();
    EXPECT_GT(just_over, at_n);
    EXPECT_DOUBLE_EQ(just_over, next_full);
}

} // namespace
} // namespace distmsm::msm
