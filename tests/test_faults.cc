/**
 * @file
 * Fault injection and fault-tolerant recovery tests.
 *
 * The contract under test (DESIGN.md Section 6): the engine NEVER
 * returns a wrong answer. A recoverable fault (device loss with
 * survivors, transient corruption, transfer timeout within the retry
 * budget) is absorbed and the result is bit-identical to the
 * fault-free run — value, simulator statistics and host-op count.
 * An unrecoverable fault (persistent corruption past
 * kMaxTransferRetries, all devices lost) surfaces as a typed
 * support::Status from tryCompute / tryProve, not as an abort. The
 * whole fault pipeline is deterministic across hostThreads, traces
 * included.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/gpusim/health.h"
#include "src/msm/checksum.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "src/support/trace.h"
#include "src/zksnark/groth16.h"
#include "src/zksnark/workloads.h"
#include "tests/same_plan.h"
#include "tests/spec_mutator.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;
using gpusim::FaultKind;
using gpusim::FaultPlan;
using gpusim::TransferFault;
using support::StatusCode;

MsmOptions
faultTestOptions(unsigned s = 8)
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

// --- FaultPlan::parse ------------------------------------------------

TEST(FaultPlanParse, AcceptsFullGrammar)
{
    const auto plan_or = FaultPlan::parse(
        "kill:dev=2@win=1;corrupt:xfer=3;corrupt:dev=0;"
        "delay:dev=1,ns=5e8;seed:77");
    ASSERT_TRUE(plan_or.isOk()) << plan_or.status().toString();
    const FaultPlan &plan = *plan_or;
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.seed, 77u);

    EXPECT_EQ(plan.events[0].kind, FaultKind::KillDevice);
    EXPECT_EQ(plan.events[0].device, 2);
    EXPECT_EQ(plan.events[0].window, 1);
    EXPECT_EQ(plan.killWindow(2), 1);
    EXPECT_EQ(plan.killWindow(0), -1);

    EXPECT_EQ(plan.events[1].kind, FaultKind::CorruptTransfer);
    EXPECT_EQ(plan.transferFault(3, 5), TransferFault::Corrupt);
    EXPECT_EQ(plan.transferFault(4, 5), TransferFault::None);

    EXPECT_EQ(plan.events[2].kind,
              FaultKind::CorruptDeviceTransfers);
    // Every transfer of dev 0.
    EXPECT_EQ(plan.transferFault(99, 0), TransferFault::Corrupt);

    EXPECT_EQ(plan.events[3].kind, FaultKind::DelayTransfer);
    EXPECT_DOUBLE_EQ(plan.transferDelayNs(1, 0), 5e8);
    EXPECT_DOUBLE_EQ(plan.transferDelayNs(1, 1), 0.0); // retry clean
    EXPECT_DOUBLE_EQ(plan.transferDelayNs(0, 0), 0.0);
}

TEST(FaultPlanParse, EarliestKillWindowWins)
{
    const auto plan_or =
        FaultPlan::parse("kill:dev=1@win=3;kill:dev=1@win=1");
    ASSERT_TRUE(plan_or.isOk());
    EXPECT_EQ(plan_or->killWindow(1), 1);
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "bogus:clause",        // unknown clause
        "kill:win=1",          // kill without dev
        "kill:dev=x",          // non-numeric
        "corrupt:ns=3",        // corrupt without xfer/dev
        "delay:dev=1",         // delay without ns
        "delay:ns=5e8",        // delay without dev
        "seed:",               // empty seed
        "kill:dev=010",        // leading zero (was octal 8)
        "kill:dev=08",         // leading zero
        "kill:dev=0x2",        // hex prefix
        "kill:dev=+3",         // sign
        "kill:dev= 3",         // whitespace
        "corrupt:xfer=-1",     // negative (was index 2^64 - 1)
        "seed:-5",             // negative seed
    };
    for (const char *spec : bad) {
        const auto plan_or = FaultPlan::parse(spec);
        EXPECT_FALSE(plan_or.isOk()) << "accepted: " << spec;
        if (!plan_or.isOk()) {
            EXPECT_EQ(plan_or.status().code(),
                      StatusCode::InvalidArgument)
                << spec;
        }
    }
}

TEST(FaultPlanParse, EmptySpecIsEmptyPlan)
{
    const auto plan_or = FaultPlan::parse("");
    ASSERT_TRUE(plan_or.isOk());
    EXPECT_TRUE(plan_or->empty());
    // Stray separators are benign (trailing ';' from shell quoting).
    const auto trailing = FaultPlan::parse("kill:dev=1;;");
    ASSERT_TRUE(trailing.isOk());
    EXPECT_EQ(trailing->events.size(), 1u);
}

TEST(FaultPlanSource, EnvSpecPlansLikeOptionsFaults)
{
    // DISTMSM_FAULT_SPEC is parsed once per process, so the engine
    // runs in a child that sets it first. The global thread pool may
    // already run here: the threadsafe style re-executes the binary
    // for the child instead of forking this process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("DISTMSM_FAULT_SPEC", "hang:dev=0", 1);
            Prng prng(0xE5F);
            const auto points = generatePoints<Bn254>(1 << 10, prng);
            const Cluster cluster(DeviceSpec::a100(), 2);
            MsmOptions options;
            options.planner = PlannerMode::Search;
            const MsmEngine<Bn254> engine(points, cluster, options);
            // The engine plans the environment plan exactly as it
            // plans the same spec passed in MsmOptions::faults.
            options.faults = *FaultPlan::parse("hang:dev=0");
            const MsmPlan expect =
                planMsm(gpusim::CurveProfile::bn254(), points.size(),
                        cluster, options);
            std::exit(samePlan(engine.plan(), expect) ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

// Mutants of the accepted specs above (and of StragglerGrammar's in
// test_health.cc) parse to a typed error or to a plan the engine can
// index: no device below 0 outside corrupt:xfer, finite numbers.
TEST(FaultPlanParse, MutantsAreRejectedOrWellFormed)
{
    const std::vector<std::string> seeds = {
        "kill:dev=2@win=1;corrupt:xfer=3;corrupt:dev=0;"
        "delay:dev=1,ns=5e8;seed:77",
        "kill:dev=1@win=3;kill:dev=1@win=1",
        "kill:dev=1;;",
        "degrade:dev=0,factor=4@win=1;flaky:dev=3,p=0.5;"
        "hang:dev=2@win=2;delay:dev=1,ns=5e8@attempt=1",
    };
    Prng prng(0xF022);
    const int mutants = specFuzzMutants();
    for (int i = 0; i < mutants; ++i) {
        const std::string spec = mutateSpec(seeds, ';', prng);
        const auto plan_or = FaultPlan::parse(spec);
        if (!plan_or.isOk()) {
            ASSERT_EQ(plan_or.status().code(),
                      StatusCode::InvalidArgument)
                << spec;
            continue;
        }
        for (const gpusim::FaultEvent &ev : plan_or->events) {
            ASSERT_TRUE(ev.kind == FaultKind::CorruptTransfer ||
                        ev.device >= 0)
                << spec;
            ASSERT_GE(ev.window, 0) << spec;
            ASSERT_GE(ev.attempt, 0) << spec;
            ASSERT_TRUE(std::isfinite(ev.delayNs) && ev.delayNs >= 0.0)
                << spec;
            ASSERT_TRUE(std::isfinite(ev.factor) && ev.factor >= 1.0)
                << spec;
            ASSERT_TRUE(std::isfinite(ev.probability) &&
                        ev.probability >= 0.0 &&
                        ev.probability <= 1.0)
                << spec;
        }
    }
}

// --- Checksum primitives ---------------------------------------------

TEST(Checksum, DigestDetectsEveryInjectedByteFlip)
{
    Prng prng(0xC5);
    const auto affine = generatePoints<Bn254>(24, prng);
    std::vector<XYZZPoint<Bn254>> points;
    points.reserve(affine.size());
    for (const auto &p : affine)
        points.push_back(XYZZPoint<Bn254>::fromAffine(p));

    const std::uint64_t seed = 0xC0FFEE;
    const auto digest = rlcDigest<Bn254>(points, seed, 0);

    for (std::uint64_t xfer = 0; xfer < 32; ++xfer) {
        auto bytes = serializePoints<Bn254>(points);
        gpusim::corruptBytes(bytes, /*seed=*/0xFA177 + xfer, xfer);
        const auto got = deserializePoints<Bn254>(bytes);
        const auto rederived = rlcDigest<Bn254>(got, seed, 0);
        EXPECT_FALSE(bitEqual(rederived, digest))
            << "byte flip of transfer " << xfer << " went undetected";
    }
    // Clean round trip must agree.
    const auto clean = deserializePoints<Bn254>(
        serializePoints<Bn254>(points));
    EXPECT_TRUE(bitEqual(rlcDigest<Bn254>(clean, seed, 0), digest));
}

TEST(Checksum, PooledDigestEqualsSerialFold)
{
    // The digest's [rho]P terms run on the host pool; folded in
    // payload order they must give the serial loop's digest limb for
    // limb at every thread count. 1,023 points: one combined-pass
    // bucket array at s = 10, keyed sparsely as after a reshard.
    constexpr std::size_t kPoints = 1023;
    Prng prng(0xD16E57);
    const auto affine = generatePoints<Bn254>(kPoints, prng);
    std::vector<XYZZPoint<Bn254>> points;
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < kPoints; ++i) {
        // Distinct XYZZ representations, not just affine lifts.
        points.push_back(pdbl(XYZZPoint<Bn254>::fromAffine(affine[i])));
        keys.push_back(3 * i + prng.below(3) + (i > 500 ? 4096 : 0));
    }
    const std::uint64_t seed = 0xC0FFEE;
    XYZZPoint<Bn254> serial = XYZZPoint<Bn254>::identity();
    for (std::size_t i = 0; i < kPoints; ++i)
        serial = padd(serial,
                      pmul(points[i], BigInt<Bn254::Fr::kLimbs>::fromU64(
                                          rlcRho(seed, keys[i]))));
    for (const int threads : {1, 4, 8}) {
        SCOPED_TRACE("host_threads=" + std::to_string(threads));
        gpusim::FaultReport report;
        EXPECT_TRUE(bitEqual(
            rlcKeyedDigest(points, keys, seed, &report, threads), serial));
        EXPECT_EQ(report.checksummed, kPoints);
        EXPECT_EQ(report.verifyEcOps, kPoints * (kRhoEcOps + 1));
    }
}

TEST(Checksum, CorruptBytesIsDeterministic)
{
    std::vector<std::uint8_t> a(256, 0xAA), b(256, 0xAA);
    gpusim::corruptBytes(a, 7, 3);
    gpusim::corruptBytes(b, 7, 3);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, std::vector<std::uint8_t>(256, 0xAA));
    std::vector<std::uint8_t> c(256, 0xAA);
    gpusim::corruptBytes(c, 7, 4); // different transfer index
    EXPECT_NE(a, c);
}

// --- Device-loss kill matrix -----------------------------------------

class KillMatrixTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kN = std::size_t{1} << 14;

    void
    SetUp() override
    {
        workload_ = makeWorkload<Bn254>(kN, 0xFA01);
        const auto clean_or = tryComputeDistMsm<Bn254>(
            workload_.points, workload_.scalars, cluster_,
            faultTestOptions());
        ASSERT_TRUE(clean_or.isOk());
        clean_ = *clean_or;
        ASSERT_EQ(clean_.fault.devicesLost, 0u);
    }

    Cluster cluster_{DeviceSpec::a100(), 4};
    Workload<Bn254> workload_;
    MsmResult<Bn254> clean_;
};

TEST_F(KillMatrixTest, EachDeviceLossRecoversBitIdentically)
{
    // Kill every device in turn, at its first window and at its
    // second: survivors recompute the lost windows and the final
    // point, the simulator statistics and the host-op count are all
    // bit-identical to the fault-free run.
    for (int dev = 0; dev < 4; ++dev) {
        for (int win = 0; win < 2; ++win) {
            auto options = faultTestOptions();
            options.faults.events.push_back(
                {FaultKind::KillDevice, dev, win, 0, 0.0});
            const auto result_or = tryComputeDistMsm<Bn254>(
                workload_.points, workload_.scalars, cluster_,
                options);
            ASSERT_TRUE(result_or.isOk())
                << "dev=" << dev << " win=" << win << ": "
                << result_or.status().toString();
            const auto &r = *result_or;
            EXPECT_TRUE(bitEqual(r.value, clean_.value))
                << "dev=" << dev << " win=" << win;
            EXPECT_EQ(r.stats, clean_.stats)
                << "dev=" << dev << " win=" << win;
            EXPECT_EQ(r.hostOps, clean_.hostOps)
                << "dev=" << dev << " win=" << win;
            EXPECT_EQ(r.fault.devicesLost, 1u);
            EXPECT_GE(r.fault.windowsResharded, 1u);
            // Killing at window 1 spares the ordinal-0 window.
            if (win == 1) {
                EXPECT_LT(r.fault.windowsResharded,
                          r.plan.numWindows / 4 + 1);
            }
        }
    }
}

TEST_F(KillMatrixTest, TwoSimultaneousLossesStillRecover)
{
    auto options = faultTestOptions();
    options.faults.events.push_back(
        {FaultKind::KillDevice, 0, 0, 0, 0.0});
    options.faults.events.push_back(
        {FaultKind::KillDevice, 3, 1, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_TRUE(result_or.isOk()) << result_or.status().toString();
    EXPECT_TRUE(bitEqual(result_or->value, clean_.value));
    EXPECT_EQ(result_or->stats, clean_.stats);
    EXPECT_EQ(result_or->fault.devicesLost, 2u);
}

TEST(DeviceLoss, AllDevicesLostReturnsTypedError)
{
    const auto w = makeWorkload<Bn254>(256, 0xFA02);
    const Cluster cluster(DeviceSpec::a100(), 2);
    auto options = faultTestOptions();
    options.faults.events.push_back(
        {FaultKind::KillDevice, 0, 0, 0, 0.0});
    options.faults.events.push_back(
        {FaultKind::KillDevice, 1, 0, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_FALSE(result_or.isOk());
    EXPECT_EQ(result_or.status().code(), StatusCode::DeviceLost);
}

TEST(DeviceLoss, CombinedPrecomputePathRecovers)
{
    // The fixed-base precompute path shards bucket slices instead of
    // windows; a kill clause must reshard the dead device's whole
    // slice onto a survivor with a bit-identical result.
    const auto w = makeWorkload<Bn254>(1 << 10, 0xFA03);
    const Cluster cluster(DeviceSpec::a100(), 4);
    auto options = faultTestOptions(0);
    options.precompute = true;

    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_TRUE(clean_or.isOk());
    ASSERT_TRUE(clean_or->plan.precompute)
        << "planner declined precompute; test needs the combined path";

    for (int dev = 0; dev < 4; ++dev) {
        auto faulty = options;
        faulty.faults.events.push_back(
            {FaultKind::KillDevice, dev, 0, 0, 0.0});
        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, faulty);
        ASSERT_TRUE(result_or.isOk())
            << "dev=" << dev << ": " << result_or.status().toString();
        EXPECT_TRUE(bitEqual(result_or->value, clean_or->value))
            << "dev=" << dev;
        EXPECT_EQ(result_or->stats, clean_or->stats) << "dev=" << dev;
        EXPECT_EQ(result_or->fault.devicesLost, 1u);
        EXPECT_GE(result_or->fault.windowsResharded, 1u);
    }
}

// --- Transfer corruption ---------------------------------------------

TEST(Corruption, SeededSweepAllDetectedAndRecovered)
{
    // 32 cases: corrupt each transfer index under a per-case seed.
    // Indices past the run's transfer count inject nothing; every
    // injected corruption must be detected by the RLC checksum and
    // healed by a retry, with a bit-identical final result.
    const auto w = makeWorkload<Bn254>(1 << 10, 0xFA04);
    const Cluster cluster(DeviceSpec::a100(), 4);

    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, faultTestOptions());
    ASSERT_TRUE(clean_or.isOk());
    const std::uint64_t live_transfers = clean_or->fault.transfers;
    ASSERT_GE(live_transfers, 4u);

    std::uint64_t injected_cases = 0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        auto options = faultTestOptions();
        options.faults.seed = 0xFA177 + i * 0x9E37;
        options.faults.events.push_back(
            {FaultKind::CorruptTransfer, -1, 0, i, 0.0});
        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, options);
        ASSERT_TRUE(result_or.isOk())
            << "xfer=" << i << ": " << result_or.status().toString();
        const auto &r = *result_or;
        EXPECT_TRUE(bitEqual(r.value, clean_or->value)) << "xfer=" << i;
        EXPECT_EQ(r.stats, clean_or->stats) << "xfer=" << i;
        if (i < live_transfers) {
            EXPECT_EQ(r.fault.corruptInjected, 1u) << "xfer=" << i;
            EXPECT_EQ(r.fault.corruptDetected, 1u)
                << "undetected corruption at xfer=" << i;
            EXPECT_GE(r.fault.retries, 1u) << "xfer=" << i;
            ++injected_cases;
        } else {
            EXPECT_EQ(r.fault.corruptInjected, 0u) << "xfer=" << i;
        }
    }
    EXPECT_EQ(injected_cases, live_transfers);
}

TEST(Corruption, PersistentCorruptionExhaustsRetries)
{
    const auto w = makeWorkload<Bn254>(512, 0xFA05);
    const Cluster cluster(DeviceSpec::a100(), 4);
    auto options = faultTestOptions();
    options.faults.events.push_back(
        {FaultKind::CorruptDeviceTransfers, 1, 0, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_FALSE(result_or.isOk());
    EXPECT_EQ(result_or.status().code(), StatusCode::TransferCorrupt);
}

TEST(Corruption, UndetectableWithoutChecksumsButStillInjected)
{
    // With checksums off the engine cannot detect corruption: the
    // run completes, the result differs from the clean run, and the
    // report shows injected > detected. (trace_summary --check flags
    // exactly this imbalance.)
    const auto w = makeWorkload<Bn254>(512, 0xFA06);
    const Cluster cluster(DeviceSpec::a100(), 4);

    auto clean_options = faultTestOptions();
    clean_options.verifyChecksums = false;
    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, clean_options);
    ASSERT_TRUE(clean_or.isOk());

    auto options = clean_options;
    options.faults.events.push_back(
        {FaultKind::CorruptTransfer, -1, 0, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_TRUE(result_or.isOk());
    EXPECT_EQ(result_or->fault.corruptInjected, 1u);
    EXPECT_EQ(result_or->fault.corruptDetected, 0u);
    EXPECT_FALSE(bitEqual(result_or->value, clean_or->value))
        << "the corrupted payload happened to round-trip cleanly; "
           "pick a different seed";
}

// --- Transfer delay / timeout ----------------------------------------

TEST(Timeout, DelayedTransferTimesOutThenRetriesClean)
{
    const auto w = makeWorkload<Bn254>(512, 0xFA08);
    const Cluster cluster(DeviceSpec::a100(), 4);

    const auto clean_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, faultTestOptions());
    ASSERT_TRUE(clean_or.isOk());

    auto options = faultTestOptions();
    options.faults.events.push_back(
        {FaultKind::DelayTransfer, 2, 0, 0, /*delayNs=*/1e9});
    const auto result_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_TRUE(result_or.isOk()) << result_or.status().toString();
    EXPECT_TRUE(bitEqual(result_or->value, clean_or->value));
    EXPECT_GE(result_or->fault.timeouts, 1u);
    EXPECT_GE(result_or->fault.retries, 1u);
}

TEST(Timeout, SlowButWithinBudgetJustAccumulatesDelay)
{
    const auto w = makeWorkload<Bn254>(512, 0xFA09);
    const Cluster cluster(DeviceSpec::a100(), 4);
    auto options = faultTestOptions();
    options.faults.events.push_back(
        {FaultKind::DelayTransfer, 0, 0, 0, /*delayNs=*/1e6});
    const auto result_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, options);
    ASSERT_TRUE(result_or.isOk());
    EXPECT_EQ(result_or->fault.timeouts, 0u);
    EXPECT_DOUBLE_EQ(result_or->fault.delayNs, 1e6);
}

// --- Faults under hierarchical topologies / collectives --------------

class TopologyFaultTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t kN = std::size_t{1} << 12;

    void
    SetUp() override
    {
        workload_ = makeWorkload<Bn254>(kN, 0xFA10);
        const auto clean_or = tryComputeDistMsm<Bn254>(
            workload_.points, workload_.scalars, cluster_,
            faultTestOptions());
        ASSERT_TRUE(clean_or.isOk());
        clean_ = *clean_or;
    }

    gpusim::Topology topo_ = gpusim::Topology::dgx(2, 4);
    Cluster cluster_{DeviceSpec::a100(), topo_};
    Workload<Bn254> workload_;
    MsmResult<Bn254> clean_;
};

TEST_F(TopologyFaultTest, DeviceKillMidCollectiveReshards)
{
    // Kill every device in turn under a forced ring, tree and
    // reduce-scatter merge: the dead device drops out of the
    // collective schedule entirely (ALL its windows reshard onto
    // survivors) and the result stays bit-identical to the
    // fault-free gather run.
    for (const auto policy :
         {gpusim::CollectivePolicy::Ring,
          gpusim::CollectivePolicy::Tree,
          gpusim::CollectivePolicy::ReduceScatter}) {
        for (int dev = 0; dev < 8; ++dev) {
            auto options = faultTestOptions();
            options.collective = policy;
            options.faults.events.push_back(
                {FaultKind::KillDevice, dev, 0, 0, 0.0});
            const auto result_or = tryComputeDistMsm<Bn254>(
                workload_.points, workload_.scalars, cluster_,
                options);
            ASSERT_TRUE(result_or.isOk())
                << gpusim::collectivePolicyName(policy)
                << " dev=" << dev << ": "
                << result_or.status().toString();
            const auto &r = *result_or;
            EXPECT_TRUE(bitEqual(r.value, clean_.value))
                << gpusim::collectivePolicyName(policy)
                << " dev=" << dev;
            EXPECT_EQ(r.stats, clean_.stats) << "dev=" << dev;
            EXPECT_EQ(r.hostOps, clean_.hostOps) << "dev=" << dev;
            EXPECT_EQ(r.fault.devicesLost, 1u);
            // Under a collective the whole per-device share moves.
            EXPECT_EQ(r.fault.windowsResharded,
                      static_cast<std::uint64_t>(
                          r.plan.numWindows / 8));
            // The topology-aware policy found same-node survivors.
            EXPECT_GE(r.fault.reshardsIntraNode, 1u)
                << "dev=" << dev;
        }
    }
}

TEST_F(TopologyFaultTest, WholeNodeKillReshardsCrossNode)
{
    // Lose all of node 1 (devices 4..7) mid-collective: no same-node
    // survivor exists, so every reshard must cross the inter-node
    // fabric, and the result is still bit-identical.
    auto options = faultTestOptions();
    options.collective = gpusim::CollectivePolicy::Tree;
    for (int dev = 4; dev < 8; ++dev)
        options.faults.events.push_back(
            {FaultKind::KillDevice, dev, 0, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_TRUE(result_or.isOk()) << result_or.status().toString();
    EXPECT_TRUE(bitEqual(result_or->value, clean_.value));
    EXPECT_EQ(result_or->stats, clean_.stats);
    EXPECT_EQ(result_or->fault.devicesLost, 4u);
    EXPECT_GE(result_or->fault.windowsResharded, 4u);
    EXPECT_EQ(result_or->fault.reshardsIntraNode, 0u);
    EXPECT_EQ(result_or->fault.reshardsCrossNode,
              result_or->fault.windowsResharded);
}

TEST_F(TopologyFaultTest, TransientCorruptionMidCollectiveHeals)
{
    // A one-shot corruption of an early device-to-device hop is
    // detected by the keyed RLC digest at the receiving device and
    // healed by a retry of that hop alone — on the pipelined ring
    // and on a sharded reduce-scatter round alike.
    for (const auto policy :
         {gpusim::CollectivePolicy::Ring,
          gpusim::CollectivePolicy::ReduceScatter}) {
        auto options = faultTestOptions();
        options.collective = policy;
        options.faults.events.push_back(
            {FaultKind::CorruptTransfer, -1, 0, /*transfer=*/1, 0.0});
        const auto result_or = tryComputeDistMsm<Bn254>(
            workload_.points, workload_.scalars, cluster_, options);
        ASSERT_TRUE(result_or.isOk())
            << gpusim::collectivePolicyName(policy) << ": "
            << result_or.status().toString();
        EXPECT_TRUE(bitEqual(result_or->value, clean_.value))
            << gpusim::collectivePolicyName(policy);
        EXPECT_EQ(result_or->stats, clean_.stats);
        EXPECT_EQ(result_or->fault.corruptInjected, 1u);
        EXPECT_EQ(result_or->fault.corruptDetected, 1u);
        EXPECT_GE(result_or->fault.retries, 1u);
    }
}

TEST_F(TopologyFaultTest, PersistentCorruptionMidCollectiveIsTyped)
{
    // A device that corrupts every payload it forwards exhausts the
    // retry budget; the engine surfaces the typed Status instead of
    // merging poisoned partial sums.
    auto options = faultTestOptions();
    options.collective = gpusim::CollectivePolicy::Tree;
    options.faults.events.push_back(
        {FaultKind::CorruptDeviceTransfers, 5, 0, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_FALSE(result_or.isOk());
    EXPECT_EQ(result_or.status().code(),
              StatusCode::TransferCorrupt);
}

TEST_F(TopologyFaultTest, AllDevicesLostUnderCollectiveIsTyped)
{
    auto options = faultTestOptions();
    options.collective = gpusim::CollectivePolicy::Ring;
    for (int dev = 0; dev < 8; ++dev)
        options.faults.events.push_back(
            {FaultKind::KillDevice, dev, 0, 0, 0.0});
    const auto result_or = tryComputeDistMsm<Bn254>(
        workload_.points, workload_.scalars, cluster_, options);
    ASSERT_FALSE(result_or.isOk());
    EXPECT_EQ(result_or.status().code(), StatusCode::DeviceLost);
}

// --- Prover integration ----------------------------------------------

TEST(ProverFaults, ExhaustedRetriesSurfaceFromTryProve)
{
    using F = Bn254Fr;
    Prng circuit_prng(0x21);
    const auto built =
        zksnark::buildMulChainCircuit<F>(20, 3, circuit_prng);
    Prng trapdoor_prng(0x6789);
    const auto trapdoor = zksnark::Trapdoor<F>::random(trapdoor_prng);
    const auto keys = zksnark::setup<Bn254>(built.r1cs, trapdoor);
    const Cluster cluster(DeviceSpec::a100(), 2);

    // Clean engines first: tryProve succeeds and verifies.
    Prng prng_ok(0x1111);
    const zksnark::ProverEngines<Bn254> engines(
        keys.pk, cluster, faultTestOptions());
    const auto proof_or = zksnark::tryProve<Bn254>(
        keys.pk, built.r1cs, built.wires, prng_ok, nullptr, nullptr,
        &engines);
    ASSERT_TRUE(proof_or.isOk()) << proof_or.status().toString();
    const std::vector<F> public_inputs(
        built.wires.begin() + 1,
        built.wires.begin() + 1 + built.r1cs.numPublic());
    EXPECT_TRUE(
        zksnark::verify<Bn254>(keys.vk, *proof_or, public_inputs));

    // Persistent corruption on every device: the first MSM exhausts
    // its retries and tryProve returns the typed Status — no abort,
    // no wrong proof.
    auto faulty_options = faultTestOptions();
    faulty_options.faults.events.push_back(
        {FaultKind::CorruptDeviceTransfers, 0, 0, 0, 0.0});
    faulty_options.faults.events.push_back(
        {FaultKind::CorruptDeviceTransfers, 1, 0, 0, 0.0});
    const zksnark::ProverEngines<Bn254> faulty_engines(
        keys.pk, cluster, faulty_options);
    Prng prng_bad(0x1111);
    const auto bad_or = zksnark::tryProve<Bn254>(
        keys.pk, built.r1cs, built.wires, prng_bad, nullptr, nullptr,
        &faulty_engines);
    ASSERT_FALSE(bad_or.isOk());
    EXPECT_EQ(bad_or.status().code(), StatusCode::TransferCorrupt);
}

TEST(ProverFaults, RecoverableFaultsLeaveProofVerifiable)
{
    using F = Bn254Fr;
    Prng circuit_prng(0x22);
    const auto built =
        zksnark::buildMulChainCircuit<F>(16, 3, circuit_prng);
    Prng trapdoor_prng(0x6790);
    const auto trapdoor = zksnark::Trapdoor<F>::random(trapdoor_prng);
    const auto keys = zksnark::setup<Bn254>(built.r1cs, trapdoor);
    const Cluster cluster(DeviceSpec::a100(), 4);

    auto options = faultTestOptions();
    options.faults.events.push_back(
        {FaultKind::KillDevice, 1, 0, 0, 0.0});
    options.faults.events.push_back(
        {FaultKind::CorruptTransfer, -1, 0, 1, 0.0});
    const zksnark::ProverEngines<Bn254> engines(keys.pk, cluster,
                                                options);
    Prng prng(0x3333);
    const auto proof_or = zksnark::tryProve<Bn254>(
        keys.pk, built.r1cs, built.wires, prng, nullptr, nullptr,
        &engines);
    ASSERT_TRUE(proof_or.isOk()) << proof_or.status().toString();
    const std::vector<F> public_inputs(
        built.wires.begin() + 1,
        built.wires.begin() + 1 + built.r1cs.numPublic());
    EXPECT_TRUE(
        zksnark::verify<Bn254>(keys.vk, *proof_or, public_inputs));
}

// --- Determinism of the fault pipeline -------------------------------

TEST(FaultDeterminism, TraceBytesIdenticalAcrossHostThreads)
{
    // The full degraded-mode pipeline — kill, reshard, corruption,
    // detection, retry — must emit byte-identical traces and metrics
    // at every hostThreads setting, exactly like the fault-free path
    // (trace.h's determinism contract).
    const auto w = makeWorkload<Bn254>(1 << 10, 0xFA0A);
    const Cluster cluster(DeviceSpec::a100(), 4);

    std::string reference_trace, reference_metrics;
    XYZZPoint<Bn254> reference_value;
    for (const int threads : {1, 2, 8}) {
        support::TraceRecorder trace;
        auto options = faultTestOptions();
        options.hostThreads = threads;
        options.trace = &trace;
        options.faults.events.push_back(
            {FaultKind::KillDevice, 2, 1, 0, 0.0});
        options.faults.events.push_back(
            {FaultKind::CorruptTransfer, -1, 0, 1, 0.0});
        options.faults.events.push_back(
            {FaultKind::DelayTransfer, 0, 0, 0, /*delayNs=*/1e9});
        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, options);
        ASSERT_TRUE(result_or.isOk())
            << result_or.status().toString();

        std::ostringstream trace_os, metrics_os;
        trace.writeChromeJson(trace_os);
        trace.writeMetricsJson(metrics_os);
        if (threads == 1) {
            reference_trace = trace_os.str();
            reference_metrics = metrics_os.str();
            reference_value = result_or->value;
            EXPECT_GT(reference_trace.size(), 2u);
            EXPECT_NE(reference_trace.find("fault/"),
                      std::string::npos);
            EXPECT_NE(reference_metrics.find("fault/retries"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(bitEqual(result_or->value, reference_value));
            EXPECT_EQ(trace_os.str(), reference_trace)
                << "fault trace drifted at hostThreads=" << threads;
            EXPECT_EQ(metrics_os.str(), reference_metrics)
                << "fault metrics drifted at hostThreads=" << threads;
        }
    }
}

TEST(FaultDeterminism, ReportIdenticalAcrossHostThreads)
{
    const auto w = makeWorkload<Bn254>(512, 0xFA0B);
    const Cluster cluster(DeviceSpec::a100(), 4);

    gpusim::FaultReport reference;
    for (const int threads : {1, 4}) {
        auto options = faultTestOptions();
        options.hostThreads = threads;
        options.faults.events.push_back(
            {FaultKind::KillDevice, 0, 0, 0, 0.0});
        options.faults.events.push_back(
            {FaultKind::CorruptTransfer, -1, 0, 2, 0.0});
        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, cluster, options);
        ASSERT_TRUE(result_or.isOk());
        if (threads == 1) {
            reference = result_or->fault;
            EXPECT_EQ(reference.devicesLost, 1u);
        } else {
            const auto &r = result_or->fault;
            EXPECT_EQ(r.faultsInjected, reference.faultsInjected);
            EXPECT_EQ(r.corruptInjected, reference.corruptInjected);
            EXPECT_EQ(r.corruptDetected, reference.corruptDetected);
            EXPECT_EQ(r.retries, reference.retries);
            EXPECT_EQ(r.windowsResharded,
                      reference.windowsResharded);
            EXPECT_EQ(r.transfers, reference.transfers);
            EXPECT_EQ(r.checksummed, reference.checksummed);
            EXPECT_EQ(r.verifyEcOps, reference.verifyEcOps);
        }
    }
}

// --- Zero-fault overhead ---------------------------------------------

TEST(FaultOverhead, ChecksumsOffReproducesPreFaultStatistics)
{
    // verifyChecksums must not leak into the determinism books:
    // stats, hostOps and the result are identical with and without
    // the verification layer (its EC work lives in FaultReport).
    const auto w = makeWorkload<Bn254>(1 << 10, 0xFA0C);
    const Cluster cluster(DeviceSpec::a100(), 4);

    auto with = faultTestOptions();
    const auto with_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, with);
    ASSERT_TRUE(with_or.isOk());

    auto without = faultTestOptions();
    without.verifyChecksums = false;
    const auto without_or = tryComputeDistMsm<Bn254>(
        w.points, w.scalars, cluster, without);
    ASSERT_TRUE(without_or.isOk());

    EXPECT_TRUE(bitEqual(with_or->value, without_or->value));
    EXPECT_EQ(with_or->stats, without_or->stats);
    EXPECT_EQ(with_or->hostOps, without_or->hostOps);
    EXPECT_GT(with_or->fault.verifyEcOps, 0u);
    EXPECT_EQ(without_or->fault.verifyEcOps, 0u);
}

TEST(FaultOverhead, ChecksumOverheadUnderThreePercentAt2e18)
{
    // The acceptance gate: enabling transfer checksums must move the
    // fault-free end-to-end estimate at 2^18 by less than 3%. The
    // raw digest work (verifyNs) is nonzero, but it overlaps the GPU
    // stage exactly like the CPU bucket-reduce, so almost none of it
    // reaches the critical path.
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions options; // defaults: checksums on
    const auto t =
        estimateDistMsm(curve, 1ull << 18, cluster, options);
    ASSERT_GT(t.verifyNs, 0.0);

    MsmOptions off;
    off.verifyChecksums = false;
    const auto t_off =
        estimateDistMsm(curve, 1ull << 18, cluster, off);
    EXPECT_DOUBLE_EQ(t_off.verifyNs, 0.0);
    const double overhead = t.totalNs() - t_off.totalNs();
    EXPECT_GE(overhead, 0.0);
    EXPECT_LT(overhead, 0.03 * t_off.totalNs())
        << "checksum overhead " << overhead << " ns on a "
        << t_off.totalNs() << " ns baseline";
    // The exposed overhead can never exceed the raw digest work.
    EXPECT_LE(overhead, t.verifyNs);
}

// --- Characterization matrix: windowed vs combined shapes ------------

/**
 * Every (execution shape, merge, fault) cell on a 2x2 DGX topology at
 * N = 2^10, each run at hostThreads 1 and 4. A cell pins its status
 * code and, when it recovers, all 18 integer FaultReport fields; its
 * value, KernelStats and hostOps must equal the shape's fault-free
 * run, which itself equals serial Pippenger. The literals also pin
 * where the shapes differ: a combined precompute pass loses a killed
 * device's bucket slice whole (whatever the kill window), reshards a
 * hung or quarantined slice onto a survivor, never respawns a
 * degraded one, and under a plan-Gather merge ships one transfer per
 * slice.
 */
enum class Shape { Windowed, Combined };

enum class CellFault {
    None,
    KillWin0,
    KillWin1,
    Hang,
    Degrade4,
    Flaky,
    Quarantine,
};

/** The integer FaultReport fields, in declaration order. */
using ReportInts = std::array<std::uint64_t, 18>;

ReportInts
reportInts(const gpusim::FaultReport &r)
{
    return {r.faultsInjected,     r.corruptInjected,
            r.corruptDetected,    r.timeouts,
            r.retries,            r.windowsResharded,
            r.reshardsIntraNode,  r.reshardsCrossNode,
            r.devicesLost,        r.transfers,
            r.checksummed,        r.verifyEcOps,
            r.stragglersDetected, r.stragglerRespawns,
            r.speculativeWins,    r.speculativeLosses,
            r.hangs,              r.transferFailovers};
}

struct MatrixCell
{
    Shape shape;
    gpusim::CollectivePolicy merge;
    CellFault fault;
    StatusCode code;
    /** Expected reportInts() of a recovered run (ignored on error). */
    ReportInts report;
};

const char *
shapeName(Shape s)
{
    return s == Shape::Windowed ? "Windowed" : "Combined";
}

const char *
cellFaultName(CellFault f)
{
    switch (f) {
    case CellFault::None: return "None";
    case CellFault::KillWin0: return "KillWin0";
    case CellFault::KillWin1: return "KillWin1";
    case CellFault::Hang: return "Hang";
    case CellFault::Degrade4: return "Degrade4";
    case CellFault::Flaky: return "Flaky";
    case CellFault::Quarantine: return "Quarantine";
    }
    return "?";
}

/** Every fault targets device 1 (node 0 of dgx(2, 2)). */
const char *
cellFaultSpec(CellFault f)
{
    switch (f) {
    case CellFault::KillWin0: return "kill:dev=1@win=0";
    case CellFault::KillWin1: return "kill:dev=1@win=1";
    case CellFault::Hang: return "hang:dev=1";
    case CellFault::Degrade4: return "degrade:dev=1,factor=4";
    case CellFault::Flaky: return "flaky:dev=1,p=0.5;seed:1";
    case CellFault::None:
    case CellFault::Quarantine: return "";
    }
    return "";
}

/** A pinned window keeps a quarantine re-plan on the same geometry. */
MsmOptions
shapeOptions(Shape shape)
{
    auto o = faultTestOptions(8);
    o.precompute = shape == Shape::Combined;
    return o;
}

const Workload<Bn254> &
matrixWorkload()
{
    static const Workload<Bn254> w =
        makeWorkload<Bn254>(std::size_t{1} << 10, 0xFA20);
    return w;
}

Cluster
matrixCluster()
{
    return Cluster(DeviceSpec::a100(), gpusim::Topology::dgx(2, 2));
}

/** The shape's fault-free gather run at hostThreads 1. */
const MsmResult<Bn254> &
shapeBaseline(Shape shape)
{
    static std::map<Shape, MsmResult<Bn254>> cache;
    auto it = cache.find(shape);
    if (it != cache.end())
        return it->second;
    auto options = shapeOptions(shape);
    options.hostThreads = 1;
    const auto &w = matrixWorkload();
    const MsmResult<Bn254> r =
        computeDistMsm<Bn254>(w.points, w.scalars, matrixCluster(),
                              options);
    return cache.emplace(shape, r).first->second;
}

std::string
reportRow(const ReportInts &r)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < r.size(); ++i)
        os << (i ? ", " : "") << r[i];
    os << "}";
    return os.str();
}

class ShapeFaultMatrix : public ::testing::TestWithParam<MatrixCell>
{
};

TEST_P(ShapeFaultMatrix, PinsStatusReportAndBits)
{
    const MatrixCell &cell = GetParam();
    const auto &w = matrixWorkload();
    const MsmResult<Bn254> &clean = shapeBaseline(cell.shape);
    ASSERT_TRUE(clean.value ==
                msmSerialPippenger<Bn254>(w.points, w.scalars, 8));
    ASSERT_EQ(clean.plan.precompute, cell.shape == Shape::Combined)
        << "the planner changed the execution shape";

    for (const int threads : {1, 4}) {
        auto options = shapeOptions(cell.shape);
        options.hostThreads = threads;
        options.collective = cell.merge;
        const auto plan_or = FaultPlan::parse(cellFaultSpec(cell.fault));
        ASSERT_TRUE(plan_or.isOk());
        options.faults = *plan_or;
        gpusim::HealthTracker health(4);
        if (cell.fault == CellFault::Quarantine) {
            health.recordHang(1);
            ASSERT_FALSE(health.schedulable(1));
            options.health = &health;
        }
        const auto result_or = tryComputeDistMsm<Bn254>(
            w.points, w.scalars, matrixCluster(), options);
        const StatusCode code = result_or.isOk()
                                    ? StatusCode::Ok
                                    : result_or.status().code();
        EXPECT_EQ(code, cell.code)
            << "threads=" << threads << " got "
            << support::statusCodeName(code);
        if (!result_or.isOk())
            continue;
        const auto &r = *result_or;
        EXPECT_TRUE(bitEqual(r.value, clean.value))
            << "threads=" << threads;
        EXPECT_EQ(r.stats, clean.stats) << "threads=" << threads;
        EXPECT_EQ(r.hostOps, clean.hostOps) << "threads=" << threads;
        EXPECT_EQ(reportInts(r.fault), cell.report)
            << "threads=" << threads << " report "
            << reportRow(reportInts(r.fault));
    }
}

using gpusim::CollectivePolicy;
constexpr CollectivePolicy kGather = CollectivePolicy::Gather;
constexpr CollectivePolicy kTree = CollectivePolicy::Tree;
constexpr CollectivePolicy kRs = CollectivePolicy::ReduceScatter;

const MatrixCell kMatrixCells[] = {
    {Shape::Windowed, kGather, CellFault::None, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 64, 1664, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kGather, CellFault::KillWin0, StatusCode::Ok,
     {1, 0, 0, 0, 0, 8, 3, 5, 1, 3, 64, 1664, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kGather, CellFault::KillWin1, StatusCode::Ok,
     {1, 0, 0, 0, 0, 7, 3, 4, 1, 4, 64, 1664, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kGather, CellFault::Hang, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 64, 1664, 8, 8, 8, 0, 1, 0}},
    {Shape::Windowed, kGather, CellFault::Degrade4, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 64, 1664, 8, 8, 8, 0, 0, 0}},
    {Shape::Windowed, kGather, CellFault::Flaky, StatusCode::Ok,
     {1, 1, 1, 0, 1, 0, 0, 0, 0, 5, 80, 2080, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kGather, CellFault::Quarantine, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 64, 1664, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kTree, CellFault::None, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 128, 3328, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kTree, CellFault::KillWin0, StatusCode::Ok,
     {1, 0, 0, 0, 0, 8, 3, 5, 1, 3, 126, 3276, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kTree, CellFault::KillWin1, StatusCode::Ok,
     {1, 0, 0, 0, 0, 8, 3, 5, 1, 3, 126, 3276, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kTree, CellFault::Hang, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 112, 2912, 8, 8, 8, 0, 1, 0}},
    {Shape::Windowed, kTree, CellFault::Degrade4, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 3, 112, 2912, 8, 8, 8, 0, 0, 0}},
    {Shape::Windowed, kTree, CellFault::Flaky, StatusCode::Ok,
     {2, 2, 2, 0, 2, 0, 0, 0, 0, 6, 160, 4160, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kTree, CellFault::Quarantine, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 126, 3276, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kRs, CellFault::None, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 112, 2912, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kRs, CellFault::KillWin0, StatusCode::Ok,
     {1, 0, 0, 0, 0, 8, 3, 5, 1, 9, 172, 4472, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kRs, CellFault::KillWin1, StatusCode::Ok,
     {1, 0, 0, 0, 0, 8, 3, 5, 1, 9, 172, 4472, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kRs, CellFault::Hang, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 9, 174, 4524, 8, 8, 8, 0, 1, 0}},
    {Shape::Windowed, kRs, CellFault::Degrade4, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 9, 174, 4524, 8, 8, 8, 0, 0, 0}},
    {Shape::Windowed, kRs, CellFault::Flaky, StatusCode::Ok,
     {3, 3, 3, 0, 3, 0, 0, 0, 0, 19, 144, 3744, 0, 0, 0, 0, 0, 0}},
    {Shape::Windowed, kRs, CellFault::Quarantine, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 106, 2756, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kGather, CellFault::None, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 510, 13260, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kGather, CellFault::KillWin0, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 1, 4, 510, 13260, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kGather, CellFault::KillWin1, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 1, 4, 510, 13260, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kGather, CellFault::Hang, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 0, 4, 510, 13260, 1, 1, 1, 0, 1, 0}},
    {Shape::Combined, kGather, CellFault::Degrade4, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 510, 13260, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kGather, CellFault::Flaky, StatusCode::Ok,
     {1, 1, 1, 0, 1, 0, 0, 0, 0, 5, 638, 16588, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kGather, CellFault::Quarantine, StatusCode::Ok,
     {0, 0, 0, 0, 0, 1, 1, 0, 0, 4, 510, 13260, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kTree, CellFault::None, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1022, 26572, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kTree, CellFault::KillWin0, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 1, 3, 894, 23244, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kTree, CellFault::KillWin1, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 1, 3, 894, 23244, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kTree, CellFault::Hang, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 0, 3, 894, 23244, 1, 1, 1, 0, 1, 0}},
    {Shape::Combined, kTree, CellFault::Degrade4, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1022, 26572, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kTree, CellFault::Flaky, StatusCode::Ok,
     {2, 2, 2, 0, 2, 0, 0, 0, 0, 6, 1278, 33228, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kTree, CellFault::Quarantine, StatusCode::Ok,
     {0, 0, 0, 0, 0, 1, 1, 0, 0, 3, 894, 23244, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kRs, CellFault::None, StatusCode::Ok,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 16, 1662, 43212, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kRs, CellFault::KillWin0, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 1, 9, 1360, 35360, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kRs, CellFault::KillWin1, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 1, 9, 1360, 35360, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kRs, CellFault::Hang, StatusCode::Ok,
     {1, 0, 0, 0, 0, 1, 1, 0, 0, 9, 1360, 35360, 1, 1, 1, 0, 1, 0}},
    {Shape::Combined, kRs, CellFault::Degrade4, StatusCode::Ok,
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 16, 1662, 43212, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kRs, CellFault::Flaky, StatusCode::Ok,
     {3, 3, 3, 0, 3, 0, 0, 0, 0, 19, 1950, 50700, 0, 0, 0, 0, 0, 0}},
    {Shape::Combined, kRs, CellFault::Quarantine, StatusCode::Ok,
     {0, 0, 0, 0, 0, 1, 1, 0, 0, 9, 1360, 35360, 0, 0, 0, 0, 0, 0}},
};

INSTANTIATE_TEST_SUITE_P(
    Cells, ShapeFaultMatrix, ::testing::ValuesIn(kMatrixCells),
    [](const ::testing::TestParamInfo<MatrixCell> &info) {
        const char *merge =
            info.param.merge == kGather ? "Gather"
            : info.param.merge == kTree ? "Tree"
                                        : "ReduceScatter";
        return std::string(shapeName(info.param.shape)) + "_" + merge +
               "_" + cellFaultName(info.param.fault);
    });

} // namespace
} // namespace distmsm::msm
