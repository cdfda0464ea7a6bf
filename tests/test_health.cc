/**
 * @file
 * Straggler-aware degradation tests: the fault grammar's
 * degrade/flaky/hang clauses, the HealthTracker escalation ladder, the
 * engine's watchdog speculation, quarantine-driven re-planning, and
 * the chaos-soak differential sweep.
 *
 * The contract (DESIGN.md Sections 6 and 11): every recovery path —
 * speculation, transfer failover, quarantine resharding — returns a
 * value bit-identical to the fault-free run at every hostThreads
 * setting, and the watchdog's priced wait is strictly below the
 * stall a watchdog-less run would suffer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/gpusim/health.h"
#include "src/msm/distmsm.h"
#include "src/msm/workload.h"
#include "src/support/metrics.h"
#include "src/support/prng.h"
#include "src/support/trace.h"
#include "tests/same_plan.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;
using gpusim::FaultKind;
using gpusim::FaultPlan;
using gpusim::HealthState;
using gpusim::HealthTracker;
using gpusim::TransferFault;
using support::StatusCode;

MsmOptions
healthTestOptions(unsigned s = 8)
{
    MsmOptions o;
    o.windowBitsOverride = s;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 128 * 1024;
    return o;
}

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

// --- Fault grammar: degrade / flaky / hang / @attempt ----------------

TEST(StragglerGrammar, AcceptsDegradeFlakyHang)
{
    const auto plan_or = FaultPlan::parse(
        "degrade:dev=0,factor=4@win=1;flaky:dev=3,p=0.5;"
        "hang:dev=2@win=2;delay:dev=1,ns=5e8@attempt=1");
    ASSERT_TRUE(plan_or.isOk()) << plan_or.status().toString();
    const FaultPlan &plan = *plan_or;
    ASSERT_EQ(plan.events.size(), 4u);

    EXPECT_TRUE(plan.hasStragglerFaults());
    EXPECT_TRUE(plan.degraded(0));
    EXPECT_FALSE(plan.degraded(3));
    // Onset ordinal: healthy before win=1, 4x slower from it on.
    EXPECT_DOUBLE_EQ(plan.degradeFactor(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(plan.degradeFactor(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(plan.degradeFactor(0, 7), 4.0);
    EXPECT_DOUBLE_EQ(plan.degradeFactor(1, 7), 1.0);

    EXPECT_DOUBLE_EQ(plan.flakyProbability(3), 0.5);
    EXPECT_DOUBLE_EQ(plan.flakyProbability(0), 0.0);

    EXPECT_EQ(plan.hangWindow(2), 2);
    EXPECT_EQ(plan.hangWindow(0), -1);

    // @attempt routes the delay to the named retry, not the first.
    EXPECT_DOUBLE_EQ(plan.transferDelayNs(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(plan.transferDelayNs(1, 1), 5e8);
    EXPECT_DOUBLE_EQ(plan.transferDelayNs(1, 2), 0.0);
}

TEST(StragglerGrammar, DegradeFactorsCompound)
{
    const auto plan_or = FaultPlan::parse(
        "degrade:dev=1,factor=2;degrade:dev=1,factor=3@win=2");
    ASSERT_TRUE(plan_or.isOk());
    EXPECT_DOUBLE_EQ(plan_or->degradeFactor(1, 0), 2.0);
    EXPECT_DOUBLE_EQ(plan_or->degradeFactor(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(plan_or->degradeFactor(1, 2), 6.0);
}

TEST(StragglerGrammar, RejectsMalformedClauses)
{
    const char *bad[] = {
        "degrade:dev=0",              // degrade without factor
        "degrade:factor=2",           // degrade without dev
        "degrade:dev=0,factor=0.5",   // slowdown below 1
        "degrade:dev=0,factor=nan",   // non-finite factor
        "flaky:dev=0",                // flaky without p
        "flaky:p=0.5",                // flaky without dev
        "flaky:dev=0,p=1.5",          // probability above 1
        "flaky:dev=0,p=-0.1",         // negative probability
        "hang:win=1",                 // hang without dev
        "delay:dev=0,ns=-5",          // negative delay
        "delay:dev=0,ns=nan",         // non-finite delay
        "delay:dev=0,ns=inf",         // non-finite delay
    };
    for (const char *spec : bad) {
        const auto plan_or = FaultPlan::parse(spec);
        EXPECT_FALSE(plan_or.isOk()) << spec;
        if (!plan_or.isOk()) {
            EXPECT_EQ(plan_or.status().code(),
                      StatusCode::InvalidArgument)
                << spec;
        }
    }
}

TEST(StragglerGrammar, FlakyCoinIsSeededAndDeterministic)
{
    const auto plan_or = FaultPlan::parse("flaky:dev=1,p=0.5;seed:9");
    ASSERT_TRUE(plan_or.isOk());
    const FaultPlan &plan = *plan_or;
    // Same (seed, transfer index) -> same outcome, every time.
    int corrupted = 0;
    for (std::uint64_t x = 0; x < 256; ++x) {
        const TransferFault first = plan.transferFault(x, 1);
        EXPECT_EQ(first, plan.transferFault(x, 1));
        EXPECT_EQ(plan.transferFault(x, 0), TransferFault::None);
        if (first == TransferFault::Flaky)
            ++corrupted;
    }
    // A fair seeded coin at p=0.5 lands well inside [64, 192].
    EXPECT_GT(corrupted, 64);
    EXPECT_LT(corrupted, 192);

    // p=1 corrupts every transfer; p=0 none.
    const auto always = FaultPlan::parse("flaky:dev=1,p=1");
    ASSERT_TRUE(always.isOk());
    const auto never = FaultPlan::parse("flaky:dev=1,p=0");
    ASSERT_TRUE(never.isOk());
    for (std::uint64_t x = 0; x < 64; ++x) {
        EXPECT_EQ(always->transferFault(x, 1), TransferFault::Flaky);
        EXPECT_EQ(never->transferFault(x, 1), TransferFault::None);
    }
}

// --- HealthTracker ladder --------------------------------------------

TEST(HealthLadder, EscalatesThroughProbationToQuarantine)
{
    HealthTracker t(4);
    EXPECT_EQ(t.numDevices(), 4);
    EXPECT_EQ(t.state(1), HealthState::Healthy);
    const std::uint64_t g0 = t.generation();

    t.recordChecksumFailure(1);
    EXPECT_EQ(t.state(1), HealthState::Probation);
    EXPECT_TRUE(t.schedulable(1));
    EXPECT_GT(t.generation(), g0);

    t.recordTimeout(1);
    EXPECT_EQ(t.state(1), HealthState::Probation);
    t.recordStraggler(1);
    EXPECT_EQ(t.state(1), HealthState::Quarantined);
    EXPECT_FALSE(t.schedulable(1));
    EXPECT_EQ(t.numQuarantined(), 1);
    EXPECT_EQ(t.schedulableDevices(),
              (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(t.device(1).checksumFailures, 1u);
    EXPECT_EQ(t.device(1).timeouts, 1u);
    EXPECT_EQ(t.device(1).stragglerEvents, 1u);
}

TEST(HealthLadder, HangQuarantinesImmediately)
{
    HealthTracker t(2);
    t.recordHang(0);
    EXPECT_EQ(t.state(0), HealthState::Quarantined);
    EXPECT_EQ(t.device(0).hangs, 1u);
    EXPECT_EQ(t.schedulableDevices(), (std::vector<int>{1}));
}

TEST(HealthLadder, CleanWindowsReintegrateProbation)
{
    HealthTracker t(2);
    t.recordChecksumFailure(0);
    ASSERT_EQ(t.state(0), HealthState::Probation);
    const std::uint64_t g = t.generation();

    const int need = gpusim::kReintegrateCleanWindows;
    for (int i = 0; i < need - 1; ++i)
        t.recordCleanWindow(0);
    EXPECT_EQ(t.state(0), HealthState::Probation);
    // A fault resets the streak: reintegration starts over.
    t.recordTimeout(0);
    for (int i = 0; i < need - 1; ++i)
        t.recordCleanWindow(0);
    EXPECT_EQ(t.state(0), HealthState::Probation);
    t.recordCleanWindow(0);
    EXPECT_EQ(t.state(0), HealthState::Healthy);
    EXPECT_EQ(t.device(0).faultScore, 0);
    EXPECT_GT(t.generation(), g);
}

TEST(HealthLadder, CleanProbeParolesQuarantineToProbation)
{
    HealthTracker t(2);
    t.recordHang(1);
    ASSERT_EQ(t.state(1), HealthState::Quarantined);
    // Clean windows do NOT redeem a quarantined device...
    for (int i = 0; i < 8; ++i)
        t.recordCleanWindow(1);
    EXPECT_EQ(t.state(1), HealthState::Quarantined);
    // ...only a clean probe does, and only back to Probation.
    t.recordCleanProbe(1);
    EXPECT_EQ(t.state(1), HealthState::Probation);
    EXPECT_EQ(t.device(1).probes, 1u);
    EXPECT_EQ(t.device(1).cleanStreak, 0);
    const int need = gpusim::kReintegrateCleanWindows;
    for (int i = 0; i < need; ++i)
        t.recordCleanWindow(1);
    EXPECT_EQ(t.state(1), HealthState::Healthy);
}

TEST(HealthLadder, RecordMetricsExportsGauges)
{
    HealthTracker t(3);
    t.recordHang(2);
    t.recordChecksumFailure(0);
    support::MetricsRegistry metrics;
    t.recordMetrics(metrics);
    EXPECT_DOUBLE_EQ(metrics.value("health/devices"), 3.0);
    EXPECT_DOUBLE_EQ(metrics.value("health/quarantined_devices"),
                     1.0);
    EXPECT_DOUBLE_EQ(metrics.value("health/probation_devices"), 1.0);
    EXPECT_DOUBLE_EQ(metrics.value("health/hangs"), 1.0);
    EXPECT_DOUBLE_EQ(metrics.value("health/checksum_failures"), 1.0);
    EXPECT_GE(metrics.value("health/generation"), 2.0);
}

// --- Watchdog speculation (engine) -----------------------------------

class WatchdogTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kN = std::size_t{1} << 12;

    void
    SetUp() override
    {
        workload_ = makeWorkload<Bn254>(kN, 0x4EA1);
        const auto clean_or = tryComputeDistMsm<Bn254>(
            workload_.points, workload_.scalars, cluster_,
            healthTestOptions());
        ASSERT_TRUE(clean_or.isOk());
        clean_ = *clean_or;
    }

    Cluster cluster_{DeviceSpec::a100(), 8};
    Workload<Bn254> workload_;
    MsmResult<Bn254> clean_;
};

TEST_F(WatchdogTest, DegradedDeviceSpeculatesBitIdentically)
{
    // The acceptance gate: degrade:dev=0,factor=4 on 8 devices
    // completes with speculative re-execution and the result is
    // bit-identical to the fault-free run at every hostThreads.
    for (const int threads : {1, 4, 8}) {
        auto options = healthTestOptions();
        options.hostThreads = threads;
        const auto plan_or =
            FaultPlan::parse("degrade:dev=0,factor=4");
        ASSERT_TRUE(plan_or.isOk());
        options.faults = *plan_or;
        const auto result_or = tryComputeDistMsm<Bn254>(
            workload_.points, workload_.scalars, cluster_, options);
        ASSERT_TRUE(result_or.isOk())
            << result_or.status().toString();
        const auto &r = *result_or;
        EXPECT_TRUE(bitEqual(r.value, clean_.value))
            << "hostThreads=" << threads;
        EXPECT_EQ(r.stats, clean_.stats);
        EXPECT_EQ(r.hostOps, clean_.hostOps);
        EXPECT_GE(r.fault.stragglersDetected, 1u);
        EXPECT_GE(r.fault.stragglerRespawns, 1u);
        EXPECT_EQ(r.fault.stragglerRespawns,
                  r.fault.speculativeWins +
                      r.fault.speculativeLosses);
        // The watchdog's priced wait beats the un-watched stall.
        EXPECT_GT(r.fault.stragglerStallNs, 0.0);
        EXPECT_LT(r.fault.stragglerWaitNs,
                  r.fault.stragglerStallNs);
    }
}

TEST_F(WatchdogTest, MildDegradeStretchesWithoutRespawn)
{
    // factor below the slack: the deadline never fires.
    auto options = healthTestOptions();
    const auto plan_or =
        FaultPlan::parse("degrade:dev=3,factor=1.5");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_TRUE(result_or.isOk());
    EXPECT_TRUE(bitEqual(result_or->value, clean_.value));
    EXPECT_EQ(result_or->fault.stragglerRespawns, 0u);
    EXPECT_GT(result_or->fault.stragglerWaitNs, 0.0);
}

TEST_F(WatchdogTest, HangRecoversWithWatchdogFailsWithout)
{
    auto options = healthTestOptions();
    const auto plan_or = FaultPlan::parse("hang:dev=2@win=1");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_TRUE(result_or.isOk())
        << result_or.status().toString();
    EXPECT_TRUE(bitEqual(result_or->value, clean_.value));
    EXPECT_EQ(result_or->fault.hangs, 1u);
    EXPECT_GE(result_or->fault.speculativeWins, 1u);
    EXPECT_EQ(result_or->stats, clean_.stats);
    EXPECT_EQ(result_or->hostOps, clean_.hostOps);

    auto no_watchdog = options;
    no_watchdog.watchdog = false;
    const auto fail_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, no_watchdog);
    ASSERT_FALSE(fail_or.isOk());
    EXPECT_EQ(fail_or.status().code(), StatusCode::TransferTimeout);
}

TEST_F(WatchdogTest, FlakyWithoutTrackerExhaustsRetries)
{
    // flaky:p=1 is a persistently corrupt link; without a health
    // tracker there is no failover and the typed error surfaces.
    auto options = healthTestOptions();
    const auto plan_or = FaultPlan::parse("flaky:dev=0,p=1");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_FALSE(result_or.isOk());
    EXPECT_EQ(result_or.status().code(),
              StatusCode::TransferCorrupt);
}

TEST_F(WatchdogTest, DelayOnRetryBacksOffAndRecovers)
{
    // @attempt=1 hits the first retry (forced by a one-shot
    // corruption): the backoff price lands in the report and the
    // run still recovers bit-identically.
    auto options = healthTestOptions();
    const auto plan_or =
        FaultPlan::parse("corrupt:xfer=0;delay:dev=0,ns=1@attempt=1");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_TRUE(result_or.isOk())
        << result_or.status().toString();
    EXPECT_TRUE(bitEqual(result_or->value, clean_.value));
    EXPECT_GE(result_or->fault.retries, 1u);
    EXPECT_GT(result_or->fault.backoffNs, 0.0);
    EXPECT_GT(result_or->fault.delayNs, 0.0);
}

// --- Timeline pricing -------------------------------------------------

TEST(WatchdogTimeline, SpeculationBeatsTheStall)
{
    // Acceptance gate: with the watchdog, the priced makespan under
    // degrade:dev=0,factor=4 is strictly below the no-watchdog
    // stall behind the straggler.
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    auto options = healthTestOptions();
    const auto plan_or = FaultPlan::parse("degrade:dev=0,factor=4");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;

    const auto watched =
        estimateDistMsm(curve, 1ull << 18, cluster, options);
    auto off = options;
    off.watchdog = false;
    const auto stalled =
        estimateDistMsm(curve, 1ull << 18, cluster, off);
    EXPECT_GT(watched.stragglerNs, 0.0);
    EXPECT_LT(watched.stragglerNs, stalled.stragglerNs);
    EXPECT_LT(watched.totalNs(), stalled.totalNs());

    // Fault-free pricing is untouched by the watchdog knobs.
    auto clean = healthTestOptions();
    const auto base =
        estimateDistMsm(curve, 1ull << 18, cluster, clean);
    clean.watchdog = false;
    const auto base_off =
        estimateDistMsm(curve, 1ull << 18, cluster, clean);
    EXPECT_DOUBLE_EQ(base.totalNs(), base_off.totalNs());
    EXPECT_DOUBLE_EQ(base.stragglerNs, 0.0);
    EXPECT_DOUBLE_EQ(base.backoffNs, 0.0);
    EXPECT_LT(base.totalNs(), watched.totalNs());
}

TEST(WatchdogTimeline, KilledDevicesAreNoRespawnTarget)
{
    // Every fast device is killed, so the engine's watchdog finds no
    // respawn target faster than the 8x stragglers (FaultPlan::
    // survives) and waits the full factor. The timeline must price
    // the same 7x stall, not a respawn onto a dead device.
    const auto curve = gpusim::CurveProfile::bn254();
    const auto w = makeWorkload<Bn254>(1 << 10, 0x4EA2);
    struct Row
    {
        int gpus;
        const char *spec;
    };
    for (const Row row :
         {Row{2, "kill:dev=0;degrade:dev=1,factor=8"},
          Row{4, "kill:dev=0;kill:dev=2;degrade:dev=1,factor=8;"
                 "degrade:dev=3,factor=8"}}) {
        SCOPED_TRACE(row.spec);
        const Cluster cluster(DeviceSpec::a100(), row.gpus);
        auto options = healthTestOptions();
        const auto plan_or = FaultPlan::parse(row.spec);
        ASSERT_TRUE(plan_or.isOk());
        options.faults = *plan_or;

        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, options);
        ASSERT_TRUE(result_or.isOk())
            << result_or.status().toString();
        // Two GPUs leave the straggler no peer at all; four leave an
        // equally slow one, whose copy never wins.
        if (row.gpus == 2) {
            EXPECT_EQ(result_or->fault.stragglerRespawns, 0u);
        }
        EXPECT_EQ(result_or->fault.speculativeWins, 0u);

        const MsmTimeline t = estimateDistMsmWithPlan(
            curve, w.points.size(), cluster, options, result_or->plan);
        EXPECT_DOUBLE_EQ(t.stragglerNs,
                         7.0 * (t.scatterNs + t.bucketSumNs));
    }
}

TEST(WatchdogTimeline, TimelinePricesTheEngineVerdicts)
{
    // With one straggling device, the timeline's stragglerNs is the
    // engine's own booked wait: the same watchdogVerdict per window
    // ordinal or slice, at every onset, merge and watchdog setting.
    // `units` pins the wait in per-unit estimates (watchdogUnitNs).
    const auto curve = gpusim::CurveProfile::bn254();
    const auto w = makeWorkload<Bn254>(1 << 10, 0x4EA4);
    using gpusim::CollectivePolicy;
    struct Row
    {
        const char *spec;
        bool slices;
        CollectivePolicy merge;
        bool watchdog;
        int gpus;
        std::uint64_t respawns;
        double units;
    };
    constexpr auto kGather = CollectivePolicy::Gather;
    for (const Row row : {
             // 8 windows per device; a respawned window adopts its
             // copy at 2 + 1 estimates, a stretched one at 8.
             Row{"degrade:dev=1,factor=8", false, kGather, true, 4, 8,
                 16},
             Row{"degrade:dev=1,factor=8@win=1", false, kGather, true, 4,
                 7, 14},
             Row{"degrade:dev=1,factor=8@win=7", false, kGather, true, 4,
                 1, 2},
             Row{"hang:dev=1@win=5", false, kGather, true, 4, 3, 6},
             Row{"degrade:dev=1,factor=8@win=1", false,
                 CollectivePolicy::Ring, true, 4, 7, 14},
             Row{"degrade:dev=1,factor=8@win=1", false, kGather, false,
                 4, 0, 49},
             // A hung slice is resharded at its deadline; a degraded
             // slice stretches and is never respawned.
             Row{"hang:dev=1", true, kGather, true, 4, 1, 2},
             Row{"degrade:dev=1,factor=8", true, kGather, true, 4, 0, 7},
             // 32 windows on 64 GPUs: device 3 holds one.
             Row{"degrade:dev=3,factor=8", false, kGather, true, 64, 1,
                 2},
         }) {
        SCOPED_TRACE(std::string(row.spec) + " on " +
                     std::to_string(row.gpus) + " GPUs, " +
                     (row.slices ? "slices" : "windows") +
                     (row.watchdog ? "" : ", watchdog off"));
        const Cluster cluster(DeviceSpec::a100(), row.gpus);
        auto options = healthTestOptions();
        options.hostThreads = 1;
        options.precompute = row.slices;
        options.hierarchicalScatter = !row.slices;
        options.collective = row.merge;
        options.watchdog = row.watchdog;
        const auto plan_or = FaultPlan::parse(row.spec);
        ASSERT_TRUE(plan_or.isOk());
        options.faults = *plan_or;

        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, options);
        ASSERT_TRUE(result_or.isOk())
            << result_or.status().toString();
        const MsmPlan &plan = result_or->plan;
        ASSERT_EQ(plan.precompute, row.slices);
        EXPECT_EQ(result_or->fault.stragglerRespawns, row.respawns);

        const MsmTimeline t = estimateDistMsmWithPlan(
            curve, w.points.size(), cluster, options, plan);
        EXPECT_DOUBLE_EQ(t.stragglerNs, result_or->fault.stragglerWaitNs);
        EXPECT_DOUBLE_EQ(t.stragglerNs,
                         row.units * watchdogUnitNs(plan, t, row.gpus));
    }
}

TEST(WatchdogTimeline, FlakyLinksPriceTheirBackoff)
{
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 4);
    auto options = healthTestOptions();
    const auto plan_or = FaultPlan::parse("flaky:dev=1,p=0.5");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    const auto t =
        estimateDistMsm(curve, 1ull << 16, cluster, options);
    EXPECT_GT(t.backoffNs, 0.0);
    EXPECT_DOUBLE_EQ(t.stragglerNs, 0.0);
    EXPECT_GT(t.totalNs(), t.gpuStageNs());
}

TEST(WatchdogTimeline, FaultFreeWatchdogAndHealthCostNothing)
{
    // On a fault-free run the watchdog and an attached health tracker
    // are pure bookkeeping: the engine computes the same value, the
    // same counters and the same report, and the timeline prices the
    // same total as a run with both off.
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 4);
    const auto w = makeWorkload<Bn254>(1 << 10, 0x4EA3);
    for (const bool glv : {false, true}) {
        for (const bool precompute : {false, true}) {
            SCOPED_TRACE(std::string("glv ") + (glv ? "on" : "off") +
                         ", precompute " + (precompute ? "on" : "off"));
            MsmOptions off = healthTestOptions();
            off.batchAffine = true;
            off.glv = glv;
            off.precompute = precompute;
            off.hierarchicalScatter = !precompute;
            off.watchdog = false;
            HealthTracker tracker(4);
            MsmOptions on = off;
            on.watchdog = true;
            on.health = &tracker;

            const auto on_or =
                tryComputeDistMsm<Bn254>(w.points, w.scalars, cluster, on);
            const auto off_or = tryComputeDistMsm<Bn254>(
                w.points, w.scalars, cluster, off);
            ASSERT_TRUE(on_or.isOk()) << on_or.status().toString();
            ASSERT_TRUE(off_or.isOk()) << off_or.status().toString();
            EXPECT_TRUE(bitEqual(on_or->value, off_or->value));
            EXPECT_EQ(on_or->stats, off_or->stats);
            EXPECT_EQ(on_or->hostOps, off_or->hostOps);
            EXPECT_EQ(0, std::memcmp(&on_or->fault, &off_or->fault,
                                     sizeof on_or->fault));
            EXPECT_EQ(estimateDistMsmWithPlan(curve, w.points.size(),
                                              cluster, on, on_or->plan)
                          .totalNs(),
                      estimateDistMsmWithPlan(curve, w.points.size(),
                                              cluster, off,
                                              off_or->plan)
                          .totalNs());
        }
    }

    // The same holds at the 2^18 geometry of the checksum gate.
    const Cluster flat8(DeviceSpec::a100(), 8);
    HealthTracker tracker(8);
    MsmOptions off;
    off.signedDigits = true;
    off.windowBitsOverride = 13;
    off.watchdog = false;
    MsmOptions on = off;
    on.watchdog = true;
    on.health = &tracker;
    EXPECT_EQ(estimateDistMsm(curve, 1ull << 18, flat8, on).totalNs(),
              estimateDistMsm(curve, 1ull << 18, flat8, off).totalNs());
}

// --- Quarantine, re-planning and probes ------------------------------

TEST(Quarantine, PlanningClusterExcludesQuarantinedDevices)
{
    const Cluster cluster(DeviceSpec::a100(), 8);
    HealthTracker tracker(8);
    EXPECT_EQ(planningCluster(cluster, &tracker).numGpus(), 8);
    EXPECT_EQ(planningCluster(cluster, nullptr).numGpus(), 8);
    tracker.recordHang(5);
    const Cluster shrunk = planningCluster(cluster, &tracker);
    EXPECT_EQ(shrunk.numGpus(), 7);

    // The planner sees the shrunken fleet: the same plan as an
    // explicitly 7-GPU cluster carries.
    const auto curve = gpusim::CurveProfile::bn254();
    auto options = healthTestOptions();
    options.health = &tracker;
    const auto with_health =
        planMsm(curve, 1ull << 16, cluster, options);
    options.health = nullptr;
    const auto over_seven =
        planMsm(curve, 1ull << 16, shrunk, options);
    EXPECT_EQ(with_health.windowsPerGpu, over_seven.windowsPerGpu);
    EXPECT_EQ(with_health.numWindows, over_seven.numWindows);

    // Search mode shrinks the fleet once too: with device 1
    // quarantined it searches exactly the 7-GPU fleet, not a fleet
    // shrunk a second time (at s = 10 the 6- and 7-GPU searches
    // disagree).
    HealthTracker search_tracker(8);
    search_tracker.recordHang(1);
    auto search = healthTestOptions(10);
    search.planner = PlannerMode::Search;
    search.health = &search_tracker;
    const auto searched = planMsm(curve, 1ull << 16, cluster, search);
    const Cluster search_fleet =
        planningCluster(cluster, &search_tracker);
    search.health = nullptr;
    EXPECT_TRUE(samePlan(
        searched, planMsm(curve, 1ull << 16, search_fleet, search)));
}

TEST(Quarantine, FlakyDeviceQuarantinesThenReplansWithoutIt)
{
    // The second acceptance gate: flaky:dev=2,p=1 under a tracker
    // fails over (result still bit-identical), drives device 2 to
    // Quarantined, and the next compute re-plans over the 7
    // survivors — no transfer from device 2 ever happens again, so
    // no corruption is even injected.
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto w = makeWorkload<Bn254>(1 << 12, 0x9A11);

    auto clean_options = healthTestOptions();
    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, clean_options);
    ASSERT_TRUE(clean_or.isOk());

    HealthTracker tracker(8);
    auto options = healthTestOptions();
    const auto plan_or = FaultPlan::parse("flaky:dev=2,p=1");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    options.health = &tracker;
    MsmEngine<Bn254> engine(w.points, cluster, options);

    const auto first_or = engine.tryCompute(w.scalars);
    ASSERT_TRUE(first_or.isOk()) << first_or.status().toString();
    EXPECT_TRUE(bitEqual(first_or->value, clean_or->value));
    EXPECT_EQ(first_or->stats, clean_or->stats);
    EXPECT_GE(first_or->fault.transferFailovers, 1u);
    EXPECT_GE(first_or->fault.corruptDetected, 3u);
    EXPECT_EQ(tracker.state(2), HealthState::Quarantined);
    EXPECT_GE(tracker.device(2).checksumFailures, 3u);

    // Second run: stale generation -> re-plan over the survivors;
    // device 2 is never scheduled, so the flaky link goes silent.
    support::TraceRecorder trace;
    // (tracker state persists; the trace captures the health gauges)
    const auto second_or = engine.tryCompute(w.scalars);
    ASSERT_TRUE(second_or.isOk()) << second_or.status().toString();
    EXPECT_TRUE(bitEqual(second_or->value, clean_or->value));
    EXPECT_EQ(second_or->fault.corruptInjected, 0u);
    EXPECT_EQ(second_or->fault.corruptDetected, 0u);
    EXPECT_EQ(second_or->fault.transferFailovers, 0u);
    EXPECT_EQ(second_or->plan.windowsPerGpu,
              planMsm(gpusim::CurveProfile::bn254(), w.points.size(),
                      planningCluster(cluster, &tracker),
                      clean_options)
                  .windowsPerGpu);

    // The probe rides the same flaky link (p=1 corrupts it too):
    // no parole, one more checksum failure on the books.
    const auto probes_before = tracker.device(2).checksumFailures;
    EXPECT_EQ(engine.probeQuarantinedDevices(), 0);
    EXPECT_EQ(tracker.state(2), HealthState::Quarantined);
    EXPECT_EQ(tracker.device(2).checksumFailures,
              probes_before + 1);
}

TEST(Quarantine, SearchReplansFromTheCallersOptions)
{
    // The Search-mode twin: after device 2's quarantine the engine
    // re-searches from the caller's options (not from the first
    // winner's knobs), so its plan is exactly what planMsm makes of
    // them, and the survivors still compute the clean value.
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto w = makeWorkload<Bn254>(1 << 12, 0x9A11);
    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, healthTestOptions());
    ASSERT_TRUE(clean_or.isOk());

    HealthTracker tracker(8);
    auto options = healthTestOptions();
    options.planner = PlannerMode::Search;
    const auto plan_or = FaultPlan::parse("flaky:dev=2,p=1");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    options.health = &tracker;
    MsmEngine<Bn254> engine(w.points, cluster, options);

    const auto first_or = engine.tryCompute(w.scalars);
    ASSERT_TRUE(first_or.isOk()) << first_or.status().toString();
    EXPECT_TRUE(first_or->value == clean_or->value);
    EXPECT_EQ(tracker.state(2), HealthState::Quarantined);

    const auto second_or = engine.tryCompute(w.scalars);
    ASSERT_TRUE(second_or.isOk()) << second_or.status().toString();
    EXPECT_TRUE(second_or->value == clean_or->value);
    EXPECT_EQ(second_or->fault.corruptInjected, 0u);
    EXPECT_TRUE(samePlan(engine.plan(),
                         planMsm(gpusim::CurveProfile::bn254(),
                                 w.points.size(), cluster, options)));
}

TEST(Quarantine, CleanProbeParolesAndCleanWindowsReintegrate)
{
    // A device quarantined for a past hang, probed over a now-clean
    // link: parole to Probation, re-plan brings it back into the
    // rotation, and its clean windows walk it home to Healthy.
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto w = makeWorkload<Bn254>(1 << 12, 0x9A12);

    HealthTracker tracker(8);
    tracker.recordHang(1);
    ASSERT_EQ(tracker.state(1), HealthState::Quarantined);

    auto options = healthTestOptions();
    options.health = &tracker;
    MsmEngine<Bn254> engine(w.points, cluster, options);
    // Planned post-quarantine: 7 schedulable devices.
    const auto first_or = engine.tryCompute(w.scalars);
    ASSERT_TRUE(first_or.isOk());

    ASSERT_EQ(engine.probeQuarantinedDevices(), 1);
    EXPECT_EQ(tracker.state(1), HealthState::Probation);
    EXPECT_EQ(tracker.device(1).probes, 1u);

    // The parole bumped the generation: the next compute re-plans
    // over all 8 and device 1's fault-free windows reintegrate it.
    const auto second_or = engine.tryCompute(w.scalars);
    ASSERT_TRUE(second_or.isOk());
    EXPECT_TRUE(bitEqual(second_or->value, first_or->value));
    EXPECT_EQ(tracker.state(1), HealthState::Healthy);
    EXPECT_EQ(tracker.device(1).faultScore, 0);
    EXPECT_GE(tracker.device(1).cleanWindows,
              static_cast<std::uint64_t>(
                  gpusim::kReintegrateCleanWindows));
}

TEST(Quarantine, MetricsSurfaceHealthAndStragglerCounters)
{
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto w = makeWorkload<Bn254>(1 << 12, 0x9A13);
    HealthTracker tracker(8);
    support::TraceRecorder trace;
    auto options = healthTestOptions();
    const auto plan_or =
        FaultPlan::parse("degrade:dev=0,factor=4;flaky:dev=2,p=1");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    options.health = &tracker;
    options.trace = &trace;
    const auto result_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_TRUE(result_or.isOk()) << result_or.status().toString();

    const auto &metrics = trace.metrics();
    EXPECT_GE(metrics.value("fault/stragglers_detected"), 1.0);
    EXPECT_GE(metrics.value("fault/straggler_respawns"), 1.0);
    EXPECT_DOUBLE_EQ(
        metrics.value("fault/straggler_respawns"),
        metrics.value("fault/speculative_wins") +
            metrics.value("fault/speculative_losses"));
    EXPECT_GE(metrics.value("fault/transfer_failovers"), 1.0);
    EXPECT_GT(metrics.value("fault/backoff_ns"), 0.0);
    EXPECT_GT(metrics.value("fault/straggler_stall_ns"),
              metrics.value("fault/straggler_wait_ns"));
    EXPECT_DOUBLE_EQ(metrics.value("health/devices"), 8.0);
    // Both offenders end up quarantined: the flaky link after three
    // checksum failures, and the persistent 4x straggler after
    // blowing three window deadlines.
    EXPECT_DOUBLE_EQ(metrics.value("health/quarantined_devices"),
                     2.0);
    EXPECT_GE(metrics.value("health/straggler_events"), 1.0);
}

// --- Chaos soak -------------------------------------------------------

TEST(ChaosSoak, MixedFaultSweepStaysBitIdentical)
{
    // Differential soak: degrade + hang + kill + one-shot corruption
    // + a flaky link (failover via the tracker), across seeds and
    // hostThreads — every run must match the fault-free value,
    // stats and hostOps exactly, and the fault pipeline itself must
    // not drift across thread counts.
    const Cluster cluster(DeviceSpec::a100(), 8);
    const auto w = makeWorkload<Bn254>(1 << 11, 0xC4A0);

    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, healthTestOptions());
    ASSERT_TRUE(clean_or.isOk());

    for (const std::uint64_t seed : {11ull, 77ull, 3030ull}) {
        gpusim::FaultReport reference;
        bool have_reference = false;
        for (const int threads : {1, 4}) {
            HealthTracker tracker(8);
            auto options = healthTestOptions();
            options.hostThreads = threads;
            options.health = &tracker;
            const auto plan_or = FaultPlan::parse(
                "degrade:dev=1,factor=3;hang:dev=2@win=1;"
                "kill:dev=3;corrupt:xfer=5;flaky:dev=4,p=0.3;"
                "seed:" + std::to_string(seed));
            ASSERT_TRUE(plan_or.isOk());
            options.faults = *plan_or;
            const auto result_or = tryComputeDistMsm<Bn254>(
                w.points, w.scalars, cluster, options);
            ASSERT_TRUE(result_or.isOk())
                << "seed=" << seed << " threads=" << threads
                << ": " << result_or.status().toString();
            const auto &r = *result_or;
            EXPECT_TRUE(bitEqual(r.value, clean_or->value))
                << "seed=" << seed << " threads=" << threads;
            EXPECT_EQ(r.stats, clean_or->stats);
            EXPECT_EQ(r.hostOps, clean_or->hostOps);
            EXPECT_EQ(r.fault.devicesLost, 1u);
            EXPECT_EQ(r.fault.hangs, 1u);
            EXPECT_GE(r.fault.stragglerRespawns, 1u);
            if (!have_reference) {
                reference = r.fault;
                have_reference = true;
            } else {
                // The whole report — injection, recovery, pricing —
                // is deterministic across hostThreads.
                EXPECT_EQ(0, std::memcmp(&r.fault, &reference,
                                         sizeof reference))
                    << "seed=" << seed;
            }
        }
    }
}

} // namespace
} // namespace distmsm::msm
