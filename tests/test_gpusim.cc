/**
 * @file
 * Tests for the GPU simulator: device occupancy, the functional SIMT
 * executor with contention accounting, the analytic cost model and
 * the cluster helpers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/gpusim/cluster.h"
#include "src/gpusim/cost_model.h"
#include "src/gpusim/device.h"
#include "src/gpusim/executor.h"

namespace distmsm::gpusim {
namespace {

TEST(Device, PresetsAreSane)
{
    for (const auto &d : {DeviceSpec::a100(), DeviceSpec::rtx4090(),
                          DeviceSpec::rx6900xt()}) {
        EXPECT_GT(d.smCount, 0) << d.name;
        EXPECT_GT(d.int32Tops, 0.0) << d.name;
        EXPECT_GT(d.maxConcurrentThreads(), 1 << 16) << d.name;
    }
    // Section 4.3: A100 tensor int8 is 8x the int32-equivalent of
    // CUDA cores (624 int8 TOPS vs 19.5 int32 TOPS = 156 * 4).
    const auto a100 = DeviceSpec::a100();
    EXPECT_NEAR(a100.tensorInt8Tops / 4.0 / a100.int32Tops, 8.0, 0.1);
    // Section 5.2: RTX 4090 has 2.12x the A100's int32 throughput.
    EXPECT_NEAR(DeviceSpec::rtx4090().int32Tops / a100.int32Tops,
                2.12, 0.03);
}

TEST(Device, PaperThreadCapacity)
{
    // Section 3.2.2: "mainstream GPUs can support approximately 2^16
    // concurrent threads."
    const auto a100 = DeviceSpec::a100();
    EXPECT_GE(a100.maxConcurrentThreads(), 1 << 16);
    EXPECT_LT(a100.maxConcurrentThreads(), 1 << 19);
}

TEST(Device, OccupancyMonotoneInRegisters)
{
    const auto d = DeviceSpec::a100();
    double prev = 1.0;
    for (int regs = 16; regs <= 256; regs += 16) {
        const double occ = d.occupancy(regs, 0, 256);
        EXPECT_LE(occ, prev);
        EXPECT_GT(occ, 0.0);
        prev = occ;
    }
}

TEST(Device, OccupancyLimitedBySharedMemory)
{
    const auto d = DeviceSpec::a100();
    const double no_shm = d.occupancy(32, 0, 256);
    const double big_shm = d.occupancy(32, d.sharedMemPerSm, 256);
    EXPECT_LT(big_shm, no_shm);
}

TEST(Executor, PhaseRunsEveryThread)
{
    KernelLaunch launch(4, 32, 0);
    std::vector<int> hits(launch.gridThreads(), 0);
    launch.phase([&](ThreadCtx &ctx) { ++hits[ctx.gid()]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    EXPECT_EQ(launch.stats().phases, 1u);
}

TEST(Executor, AtomicAddReturnsOldValue)
{
    KernelLaunch launch(1, 8, 0);
    WordArray counter(1, WordArray::Space::Global);
    std::vector<std::uint64_t> olds(8);
    launch.phase([&](ThreadCtx &ctx) {
        olds[ctx.gid()] = launch.atomicAdd(counter, 0, 1, ctx);
    });
    EXPECT_EQ(counter.read(0), 8u);
    // Each thread saw a distinct reservation slot — the property the
    // scatter kernels rely on.
    std::vector<bool> seen(8, false);
    for (auto o : olds) {
        ASSERT_LT(o, 8u);
        EXPECT_FALSE(seen[o]);
        seen[o] = true;
    }
}

TEST(Executor, ReservationsUniqueAcrossConcurrentBlocks)
{
    // Every thread of a 16-block grid reserves a slot on one word
    // while blocks run on concurrent host threads: the reservations
    // must still be exactly the slots [0, 1024), as on hardware.
    constexpr int kGrid = 16;
    constexpr int kBlock = 64;
    constexpr std::uint64_t kThreads = kGrid * kBlock;
    for (const int host_threads : {4, 8}) {
        SCOPED_TRACE("host_threads=" + std::to_string(host_threads));
        KernelLaunch launch(kGrid, kBlock, 0, host_threads);
        WordArray counter(1, WordArray::Space::Global);
        std::vector<std::uint64_t> olds(kThreads);
        launch.phase([&](ThreadCtx &ctx) {
            olds[ctx.gid()] = launch.atomicAdd(counter, 0, 1, ctx);
        });
        EXPECT_EQ(counter.read(0), kThreads);
        std::sort(olds.begin(), olds.end());
        for (std::uint64_t slot = 0; slot < kThreads; ++slot)
            ASSERT_EQ(olds[slot], slot);
        EXPECT_EQ(launch.stats().globalAtomics, kThreads);
        EXPECT_EQ(launch.stats().globalMaxConflict, kThreads);
        EXPECT_EQ(launch.stats().globalConflictWeight,
                  kThreads * kThreads);
    }
}

TEST(Executor, HotAddressContentionIsRecorded)
{
    KernelLaunch launch(2, 64, 0);
    WordArray counter(4, WordArray::Space::Global);
    launch.phase([&](ThreadCtx &ctx) {
        launch.atomicAdd(counter, 0, 1, ctx); // all 128 collide
    });
    EXPECT_EQ(launch.stats().globalAtomics, 128u);
    EXPECT_EQ(launch.stats().globalMaxConflict, 128u);
    EXPECT_EQ(launch.stats().globalConflictWeight, 128u * 128u);
}

TEST(Executor, SpreadAddressesDoNotContend)
{
    KernelLaunch launch(2, 64, 0);
    WordArray counters(128, WordArray::Space::Global);
    launch.phase([&](ThreadCtx &ctx) {
        launch.atomicAdd(counters, ctx.gid(), 1, ctx);
    });
    EXPECT_EQ(launch.stats().globalMaxConflict, 1u);
    EXPECT_EQ(launch.stats().globalConflictWeight, 128u);
}

TEST(Executor, ContentionIsPerPhase)
{
    // The same address hit in two different phases is not concurrent.
    KernelLaunch launch(1, 16, 0);
    WordArray counter(1, WordArray::Space::Global);
    for (int round = 0; round < 2; ++round) {
        launch.phase([&](ThreadCtx &ctx) {
            launch.atomicAdd(counter, 0, 1, ctx);
        });
    }
    EXPECT_EQ(launch.stats().globalMaxConflict, 16u);
    EXPECT_EQ(launch.stats().globalConflictWeight, 2u * 16u * 16u);
}

TEST(Executor, SharedAtomicsScopedPerBlock)
{
    // Shared memory is per block: the same index used by different
    // blocks does not contend.
    KernelLaunch launch(4, 32, 8);
    launch.phase([&](ThreadCtx &ctx) {
        launch.atomicAdd(launch.shared(ctx.bid), 0, 1, ctx);
    });
    EXPECT_EQ(launch.stats().sharedAtomics, 128u);
    EXPECT_EQ(launch.stats().sharedMaxConflict, 32u);
    for (int b = 0; b < 4; ++b)
        EXPECT_EQ(launch.shared(b).read(0), 32u);
}

TEST(Executor, ReduceAddMatchesAtomicAdd)
{
    // The return-less reduction must land the words and contention
    // statistics of the fetch-add it replaces, with its blocks on one
    // host thread or concurrent (where it defers to the barrier) —
    // also when one phase mixes both kinds on the same words.
    constexpr int kGrid = 16;
    constexpr int kBlock = 64;
    constexpr std::size_t kWords = 40;
    enum class Mode { Atomic, Reduce, Mixed };
    const auto run = [&](Mode mode, int host_threads) {
        KernelLaunch launch(kGrid, kBlock, 0, host_threads);
        WordArray words(kWords, WordArray::Space::Global);
        for (std::uint64_t round = 0; round < 3; ++round) {
            launch.phase([&](ThreadCtx &ctx) {
                // A third of the grid hits word 0; the rest spread.
                const std::size_t i =
                    ctx.gid() % 3 == 0
                        ? 0
                        : (static_cast<std::size_t>(ctx.gid()) * 7 +
                           round) % kWords;
                const std::uint64_t v = 1 + ctx.tid + round;
                const bool reduce = mode == Mode::Reduce ||
                                    (mode == Mode::Mixed && ctx.bid % 2);
                if (reduce)
                    launch.reduceAdd(words, i, v, ctx);
                else
                    launch.atomicAdd(words, i, v, ctx);
            });
        }
        std::vector<std::uint64_t> out;
        for (std::size_t i = 0; i < kWords; ++i)
            out.push_back(words.read(i));
        return std::make_pair(out, launch.stats());
    };
    const auto base = run(Mode::Atomic, 1);
    EXPECT_EQ(base.second.globalAtomics, 3u * kGrid * kBlock);
    EXPECT_GT(base.second.globalConflictWeight,
              base.second.globalAtomics); // contention was measured
    for (const int host_threads : {1, 4}) {
        for (const Mode mode : {Mode::Atomic, Mode::Reduce, Mode::Mixed}) {
            SCOPED_TRACE("host_threads=" + std::to_string(host_threads) +
                         " mode=" + std::to_string(static_cast<int>(mode)));
            const auto got = run(mode, host_threads);
            EXPECT_EQ(got.first, base.first);
            EXPECT_EQ(got.second, base.second);
        }
    }
}

TEST(CostModel, RegisterCountsMatchPaper)
{
    const CostModel model(DeviceSpec::a100());
    // "the straightforward PADD implementation requires 132
    // registers per thread for BLS12-377 and 264 for MNT4753"
    // (big-integer registers, before aux state).
    const auto baseline = EcKernelVariant::baseline();
    const auto bls = CurveProfile::bls377();
    const auto mnt = CurveProfile::mnt4753();
    EXPECT_EQ(model.peakLiveBigints(baseline, EcOp::Padd) *
                  static_cast<int>(bls.regsPerBigint()),
              132);
    EXPECT_EQ(model.peakLiveBigints(baseline, EcOp::Padd) *
                  static_cast<int>(mnt.regsPerBigint()),
              264);
    // "At its peak, it demands 9 concurrent live big integers, using
    // up to 216 registers per thread" (PACC on MNT4753).
    EXPECT_EQ(model.peakLiveBigints(baseline, EcOp::Pacc) *
                  static_cast<int>(mnt.regsPerBigint()),
              216);
}

TEST(CostModel, OptimizationsReduceThroughputTime)
{
    const CostModel model(DeviceSpec::a100());
    const auto curve = CurveProfile::bls377();
    constexpr std::uint64_t kOps = 1 << 20;

    EcKernelVariant v = EcKernelVariant::baseline();
    const double base =
        model.ecThroughputNs(curve, v, EcOp::Pacc, kOps);
    v.dedicatedPacc = true;
    const double pacc = model.ecThroughputNs(curve, v, EcOp::Pacc, kOps);
    EXPECT_LT(pacc, base);
    v.optimalOrder = true;
    const double sched = model.ecThroughputNs(curve, v, EcOp::Pacc, kOps);
    EXPECT_LE(sched, pacc);
    v.explicitSpill = true;
    const double spill = model.ecThroughputNs(curve, v, EcOp::Pacc, kOps);
    EXPECT_LE(spill, sched * 1.05); // small traffic cost allowed
    v.tensorCoreMont = true;
    v.onTheFlyCompact = true;
    const double full = model.ecThroughputNs(curve, v, EcOp::Pacc, kOps);
    EXPECT_LT(full, base);
}

TEST(CostModel, PaccSavesFourModmuls)
{
    const CostModel model(DeviceSpec::a100());
    const auto curve = CurveProfile::bn254();
    EcKernelVariant none = EcKernelVariant::baseline();
    EcKernelVariant pacc_only;
    pacc_only.dedicatedPacc = true;
    const double ratio =
        model.ecOpCudaOps(curve, none, EcOp::Pacc) /
        model.ecOpCudaOps(curve, pacc_only, EcOp::Pacc);
    // 14 vs 10 modular multiplications ~ 1.4x arithmetic.
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 1.45);
}

TEST(CostModel, TensorCoreTrafficPenaltyWithoutCompaction)
{
    const CostModel model(DeviceSpec::a100());
    const auto curve = CurveProfile::bls381();
    constexpr std::uint64_t kOps = 1 << 20;
    EcKernelVariant with_tc{true, true, true, true, false};
    EcKernelVariant with_compact{true, true, true, true, true};
    EcKernelVariant no_tc{true, true, true, false, false};
    const double raw =
        model.ecThroughputNs(curve, with_tc, EcOp::Pacc, kOps);
    const double compact =
        model.ecThroughputNs(curve, with_compact, EcOp::Pacc, kOps);
    const double without =
        model.ecThroughputNs(curve, no_tc, EcOp::Pacc, kOps);
    // Section 5.3.3: direct TC deployment is a slowdown; compaction
    // turns it into a win for the 25x-bit curves.
    EXPECT_GT(raw, without);
    EXPECT_LT(compact, without);
}

TEST(CostModel, CompactionHurtsMnt4753)
{
    // Section 5.3.3: "for MNT4753, there remains a 8.2% slowdown"
    // from the register pressure of the zero lanes.
    const CostModel model(DeviceSpec::a100());
    const auto curve = CurveProfile::mnt4753();
    constexpr std::uint64_t kOps = 1 << 18;
    EcKernelVariant with_compact{true, true, true, true, true};
    EcKernelVariant no_tc{true, true, true, false, false};
    const double compact =
        model.ecThroughputNs(curve, with_compact, EcOp::Pacc, kOps);
    const double without =
        model.ecThroughputNs(curve, no_tc, EcOp::Pacc, kOps);
    EXPECT_GT(compact, without);
    EXPECT_LT(compact, without * 1.3);
}

TEST(CostModel, MntToBls377KernelRatioNearPaper)
{
    // Section 5.3.3: the PADD kernel on MNT4753 takes ~5.2x the
    // BLS12-377 time although it needs only ~4x the arithmetic.
    const CostModel model(DeviceSpec::a100());
    constexpr std::uint64_t kOps = 1 << 20;
    const auto v = EcKernelVariant::full();
    const double mnt = model.ecThroughputNs(CurveProfile::mnt4753(), v,
                                            EcOp::Pacc, kOps);
    const double bls = model.ecThroughputNs(CurveProfile::bls377(), v,
                                            EcOp::Pacc, kOps);
    const double ratio = mnt / bls;
    EXPECT_GT(ratio, 4.0) << "register pressure must cost extra";
    EXPECT_LT(ratio, 9.0);
}

TEST(CostModel, AtomicCostScalesWithContention)
{
    const CostModel model(DeviceSpec::a100());
    KernelStats calm;
    calm.globalAtomics = 1000;
    calm.globalConflictWeight = 1000; // conflict-free
    KernelStats hot = calm;
    hot.globalConflictWeight = 64 * 1000; // 64 writers per address
    EXPECT_GT(model.atomicNs(hot, 1 << 16),
              4 * model.atomicNs(calm, 1 << 16));
}

TEST(CostModel, SerialChainSlowerPerOpThanThroughput)
{
    const CostModel model(DeviceSpec::a100());
    const auto curve = CurveProfile::bls381();
    const auto v = EcKernelVariant::full();
    const double serial_per_op =
        model.ecSerialNs(curve, v, EcOp::Padd, 1000) / 1000;
    const double throughput_per_op =
        model.ecThroughputNs(curve, v, EcOp::Padd, 1 << 20) /
        (1 << 20);
    // This gap is why bucket-reduce belongs on the CPU (Sec. 3.2.3).
    EXPECT_GT(serial_per_op, 100 * throughput_per_op);
}

TEST(CostModel, HostIs128xSlowerThanDevice)
{
    const CostModel model(DeviceSpec::a100());
    const auto curve = CurveProfile::bls381();
    const HostSpec host;
    const double host_ns = model.hostEcNs(curve, 1 << 20, host);
    const double gpu_ns = model.ecThroughputNs(
        curve, EcKernelVariant::full(), EcOp::Pacc, 1 << 20);
    EXPECT_NEAR(host_ns / gpu_ns, 128.0, 1.0);
}

TEST(KernelStats, MergeSumsPhasesAcrossSerialLaunches)
{
    KernelStats a, b;
    a.phases = 3;
    a.globalAtomics = 10;
    a.globalMaxConflict = 4;
    b.phases = 5;
    b.globalAtomics = 7;
    b.globalMaxConflict = 9;
    a.merge(b);
    EXPECT_EQ(a.phases, 8u) << "serial launches stack their phases";
    EXPECT_EQ(a.globalAtomics, 17u);
    EXPECT_EQ(a.globalMaxConflict, 9u);
}

TEST(KernelStats, MergeLockstepMaxesPhasesAcrossDevices)
{
    // Four devices running the same launch in lockstep: the work
    // counts sum, but the launch's phase structure must not
    // multiply by the device count (the double-count this PR's
    // bugfix removes from the engine's bucket-group merge).
    KernelStats one_device;
    one_device.phases = 6;
    one_device.paccOps = 100;
    one_device.sharedMaxConflict = 2;

    KernelStats four_devices;
    for (int d = 0; d < 4; ++d)
        four_devices.mergeLockstep(one_device);
    EXPECT_EQ(four_devices.phases, one_device.phases)
        << "lockstep devices share one launch's phases";
    EXPECT_EQ(four_devices.paccOps, 4 * one_device.paccOps);
    EXPECT_EQ(four_devices.sharedMaxConflict, 2u);

    // Serial merge of the same parts would have counted 24 phases.
    KernelStats serial;
    for (int d = 0; d < 4; ++d)
        serial.merge(one_device);
    EXPECT_EQ(serial.phases, 24u);
}

TEST(KernelStats, RecordMetricsFeedsEveryCounter)
{
    KernelStats s;
    s.phases = 2;
    s.globalAtomics = 11;
    s.globalMaxConflict = 5;
    s.paccOps = 40;
    support::MetricsRegistry metrics;
    s.recordMetrics(metrics, "k/");
    EXPECT_DOUBLE_EQ(metrics.value("k/phases"), 2.0);
    EXPECT_DOUBLE_EQ(metrics.value("k/global_atomics"), 11.0);
    EXPECT_DOUBLE_EQ(metrics.value("k/pacc_ops"), 40.0);
    // add() accumulates; max() keeps the maximum.
    s.globalMaxConflict = 3;
    s.recordMetrics(metrics, "k/");
    EXPECT_DOUBLE_EQ(metrics.value("k/global_atomics"), 22.0);
    EXPECT_DOUBLE_EQ(metrics.value("k/global_max_conflict"), 5.0);
}

TEST(Cluster, GatherFollowsTwoLevelTopology)
{
    const Cluster small(DeviceSpec::a100(), 2);
    const Cluster node(DeviceSpec::a100(), 8);
    const Cluster two_nodes(DeviceSpec::a100(), 16);
    const Cluster four_nodes(DeviceSpec::a100(), 32);
    const std::uint64_t bytes = 1 << 20;
    EXPECT_LT(small.gatherNs(bytes), node.gatherNs(bytes));
    // Crossing the node boundary pays the inter-node fabric, which
    // is far narrower than NVLink.
    EXPECT_GT(two_nodes.gatherNs(bytes), node.gatherNs(bytes));
    EXPECT_GT(four_nodes.gatherNs(bytes),
              two_nodes.gatherNs(bytes));
    EXPECT_EQ(node.numNodes(), 1);
    EXPECT_EQ(four_nodes.numNodes(), 4);
}

} // namespace
} // namespace distmsm::gpusim
