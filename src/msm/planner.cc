#include "src/msm/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "src/gpusim/health.h"
#include "src/msm/autoplan.h"
#include "src/msm/checksum.h"
#include "src/msm/precompute.h"

#include "src/support/check.h"
#include "src/support/trace.h"

namespace distmsm::msm {

using gpusim::CostModel;
using gpusim::CurveProfile;
using gpusim::EcKernelVariant;
using gpusim::EcOp;
using gpusim::KernelStats;

namespace {

/** XYZZ point size in bytes for transfer accounting. */
std::uint64_t
xyzzBytes(const CurveProfile &curve)
{
    return 4ull * curve.limbs64() * 8;
}

/** Largest window the planner will grow to for precompute tables:
 *  past this, bucket storage and the reduce tail dwarf the saving. */
constexpr unsigned kMaxPrecomputeWindowBits = 24;

} // namespace

const char *
plannerModeName(PlannerMode mode)
{
    switch (mode) {
      case PlannerMode::Heuristic:
        return "heuristic";
      case PlannerMode::Search:
        return "search";
    }
    return "?";
}

bool
parsePlannerMode(std::string_view text, PlannerMode *out)
{
    if (text == "heuristic") {
        *out = PlannerMode::Heuristic;
    } else if (text == "search") {
        *out = PlannerMode::Search;
    } else {
        return false;
    }
    return true;
}

MsmPlan
planMsm(const CurveProfile &curve, std::uint64_t n,
        const gpusim::Cluster &cluster, const MsmOptions &options)
{
    const gpusim::Cluster planning =
        planningCluster(cluster, options.health);
    if (options.planner != PlannerMode::Heuristic)
        return autoplanMsm(curve, n, planning, options).plan;
    return planMsmHeuristic(curve, n, planning, options);
}

gpusim::Cluster
planningCluster(const gpusim::Cluster &cluster,
                const gpusim::HealthTracker *health)
{
    if (health == nullptr)
        return cluster;
    int schedulable = 0;
    for (int d = 0; d < cluster.numGpus(); ++d)
        if (d >= health->numDevices() || health->schedulable(d))
            ++schedulable;
    if (schedulable == cluster.numGpus() || schedulable == 0)
        return cluster;
    gpusim::Topology topo = cluster.topology();
    topo.totalGpus = schedulable;
    return gpusim::Cluster(cluster.device(), topo, cluster.host(),
                           cluster.model().params());
}

std::pair<unsigned, std::uint64_t>
windowGeometry(unsigned scalar_bits, unsigned window_bits,
               bool signed_digits)
{
    const unsigned windows = windowCount(scalar_bits, window_bits);
    // One extra window absorbs the final carry; buckets halve.
    if (signed_digits)
        return {windows + 1, std::uint64_t{1} << (window_bits - 1)};
    return {windows, (std::uint64_t{1} << window_bits) - 1};
}

MsmPlan
planMsmHeuristic(const CurveProfile &curve, std::uint64_t n,
                 const gpusim::Cluster &cluster,
                 const MsmOptions &options)
{
    MsmPlan plan;
    // GLV rewrites the problem before planning: 2n points against
    // half-width scalars (silently off without curve constants).
    plan.glv = options.glv && curve.glvScalarBits != 0;
    plan.scalarBits =
        plan.glv ? curve.glvScalarBits : curve.scalarBits;
    const std::uint64_t n_eff = plan.glv ? 2 * n : n;

    WorkloadConfig wc;
    wc.numPoints = n_eff;
    wc.scalarBits = plan.scalarBits;
    wc.numGpus = cluster.numGpus();
    wc.threadsPerGpu = cluster.device().maxConcurrentThreads();

    plan.windowBits = options.windowBitsOverride != 0
                          ? options.windowBitsOverride
                          : optimalWindowSize(wc);

    // Fixed-base precompute tables: every device holds all W rows of
    // n_eff affine points (precomputeTableBytes, at the bytes an Fq
    // element stores). Hold that against half the device's global
    // memory (the other half stays for scalars, bucket ids and bucket
    // state). A larger window shrinks W, so when the caller left the
    // window size to the planner, grow it until the table fits;
    // decline precompute when it cannot fit (pinned override, or no
    // reasonable window fits) rather than plan an impossible layout.
    if (options.precompute) {
        const std::uint64_t mem = cluster.device().globalMemBytes;
        const std::uint64_t budget =
            mem == 0 ? std::numeric_limits<std::uint64_t>::max()
                     : mem / 2;
        const auto table_bytes = [&](unsigned s) {
            return precomputeTableBytes(
                n_eff,
                windowGeometry(plan.scalarBits, s, options.signedDigits)
                    .first,
                curve.limbs64() * 8);
        };
        unsigned s = plan.windowBits;
        if (options.windowBitsOverride == 0) {
            while (table_bytes(s) > budget && s < kMaxPrecomputeWindowBits)
                ++s;
        }
        if (table_bytes(s) <= budget) {
            plan.precompute = true;
            plan.windowBits = s;
            plan.tableBytes = table_bytes(s);
        }
    }

    std::tie(plan.numWindows, plan.numBuckets) = windowGeometry(
        plan.scalarBits, plan.windowBits, options.signedDigits);
    plan.signedDigits = options.signedDigits;
    plan.batchAffine = options.batchAffine;
    plan.cpuBucketReduce = options.cpuBucketReduce;
    plan.collectiveAuto =
        options.collective == gpusim::CollectivePolicy::Auto;
    // The hierarchical kernel needs 2^s counters plus a tile in
    // shared memory; above that (s > 14 on the A100) DistMSM falls
    // back to the naive scatter, which single-GPU window sizes
    // prefer anyway (Figure 11).
    plan.hierarchicalScatter =
        options.hierarchicalScatter &&
        hierarchicalSharedBytes(plan.windowBits, options.scatter, 1) <=
            options.scatter.sharedBytesPerBlock;

    if (cluster.numGpus() >= 2 * static_cast<int>(plan.numWindows)) {
        plan.bucketsSplitAcrossGpus = true;
        plan.gpusPerWindow = cluster.numGpus() /
                             static_cast<int>(plan.numWindows);
        plan.windowsPerGpu = 1;
    } else {
        plan.gpusPerWindow = 1;
        plan.windowsPerGpu =
            (plan.numWindows + cluster.numGpus() - 1) /
            cluster.numGpus();
    }

    // Enough threads per bucket to occupy the device (Section 3.2.2),
    // rounded to a warp multiple so the hardware scheduler absorbs
    // bucket skew.
    const double buckets_per_gpu = std::max<double>(
        1.0, static_cast<double>(plan.numBuckets) /
                 plan.gpusPerWindow);
    const double want = static_cast<double>(wc.threadsPerGpu) /
                        buckets_per_gpu;
    // More threads than expected points per bucket would idle; one
    // thread per bucket suffices when buckets already cover the
    // device (the traditional large-window allocation).
    const double points_per_bucket =
        static_cast<double>(n_eff) /
        std::max<double>(1.0, static_cast<double>(plan.numBuckets));
    int tpb = 1;
    while (tpb < want && tpb < 1024 && tpb < 2 * points_per_bucket)
        tpb *= 2;
    // The override raises the floor but must respect the same
    // ceilings the grow loop does: the 1024-thread block cap and the
    // 2x-points-per-bucket idle guard (a forced 4096 comes back
    // capped, not blowing past what the device can co-schedule).
    int tpb_cap = static_cast<int>(std::min<double>(
        1024.0, 2 * points_per_bucket));
    tpb_cap = std::max(tpb_cap, 1);
    plan.threadsPerBucket =
        std::max(tpb, std::min(options.threadsPerBucket, tpb_cap));

    // Collective tuner: price the dominant merge payload (the
    // per-device bucket-sum share of the CPU-reduce placement, the
    // same message estimateDistMsm charges transferNs for) against
    // the topology's link model and resolve the policy to a
    // concrete strategy. A forced policy maps straight through;
    // Auto takes the argmin of the per-strategy predictions.
    const double windows_per_gpu_f =
        static_cast<double>(plan.numWindows) / cluster.numGpus();
    const double sums_per_gpu = std::min(
        static_cast<double>(plan.numBuckets),
        static_cast<double>(plan.numBuckets) * windows_per_gpu_f);
    plan.mergeBytesPerGpu = static_cast<std::uint64_t>(
        sums_per_gpu * xyzzBytes(curve));
    plan.collective =
        gpusim::CollectiveTimeEstimator(cluster.topology(),
                                        cluster.device())
            .pick(options.collective, cluster.numGpus(),
                  plan.mergeBytesPerGpu);

    // Field-backend resolution: a forced choice maps straight
    // through; Auto prices the dominant accumulation kernel (the
    // bucket sum retiring one EC add per scattered point) under both
    // backends and takes the argmin. Kernels that never modeled
    // tensor cores (baseline(), --no-tc) stay on CUDA cores — Auto
    // must not silently upgrade an explicitly stripped variant.
    plan.fieldBackend = options.fieldBackend;
    plan.fieldBackendAuto =
        options.fieldBackend == gpusim::FieldBackend::Auto;
    if (plan.fieldBackendAuto) {
        if (!options.kernel.tensorCoreMont) {
            plan.fieldBackend = gpusim::FieldBackend::CudaCore;
        } else {
            const EcOp acc_op = plan.batchAffine ? EcOp::AffineAdd
                                                 : EcOp::Pacc;
            const std::uint64_t acc_ops = std::max<std::uint64_t>(
                1, n_eff * plan.numWindows / cluster.numGpus());
            const CostModel &model = cluster.model();
            const double tc_ns = model.ecThroughputNs(
                curve,
                applyFieldBackend(options.kernel,
                                  gpusim::FieldBackend::TensorCore),
                acc_op, acc_ops);
            const double cc_ns = model.ecThroughputNs(
                curve,
                applyFieldBackend(options.kernel,
                                  gpusim::FieldBackend::CudaCore),
                acc_op, acc_ops);
            plan.fieldBackend =
                tc_ns < cc_ns ? gpusim::FieldBackend::TensorCore
                              : gpusim::FieldBackend::CudaCore;
        }
    }
    return plan;
}

KernelStats
synthesizeScatterStats(bool hierarchical, std::uint64_t elements,
                       unsigned window_bits,
                       const ScatterConfig &config)
{
    KernelStats stats;
    const double buckets = std::ldexp(1.0, window_bits) - 1.0;
    const double inserted = elements * buckets / (buckets + 1.0);
    const std::uint64_t threads =
        static_cast<std::uint64_t>(config.blockDim) * config.gridDim;
    const std::uint64_t k =
        (elements + threads - 1) / std::max<std::uint64_t>(threads, 1);
    stats.phases = k;

    if (!hierarchical) {
        stats.globalAtomics = static_cast<std::uint64_t>(inserted);
        // Per phase, ~threads writes land on `buckets` addresses.
        const double c =
            std::max(1.0, static_cast<double>(threads) / buckets);
        stats.globalConflictWeight = static_cast<std::uint64_t>(
            inserted * c);
        stats.globalMaxConflict = static_cast<std::uint64_t>(c);
        stats.gmemBytes = static_cast<std::uint64_t>(
            inserted * config.globalIdBytes *
            config.uncoalescedWriteFactor);
        return stats;
    }

    // Hierarchical: two shared-atomic passes (count + place), block
    // prefix sums, and one global atomic per (block, tile, non-empty
    // local bucket).
    const double block_c = std::max(
        1.0, static_cast<double>(config.blockDim) / buckets);
    stats.sharedAtomics = static_cast<std::uint64_t>(2 * inserted);
    stats.sharedConflictWeight =
        static_cast<std::uint64_t>(2 * inserted * block_c);
    stats.sharedMaxConflict = static_cast<std::uint64_t>(block_c);

    if (hierarchicalSharedBytes(window_bits, config, 1) >
        config.sharedBytesPerBlock) {
        return stats; // kernel would not run; callers check ok first
    }
    const std::size_t fixed_bytes =
        hierarchicalSharedBytes(window_bits, config, 0);
    const double k_tile = std::floor(
        static_cast<double>(config.sharedBytesPerBlock - fixed_bytes) /
        (static_cast<double>(config.blockDim) * config.localIdBytes));
    const double tile_elems = k_tile * config.blockDim;
    const double tiles =
        std::ceil(static_cast<double>(elements) /
                  (tile_elems * config.gridDim));
    // Non-empty local buckets per (block, tile): balls-into-bins.
    const double nonempty =
        buckets * (1.0 - std::exp(-tile_elems / buckets));
    const double flushes = tiles * config.gridDim * nonempty;
    stats.globalAtomics = static_cast<std::uint64_t>(flushes);
    // Concurrent flushers of one bucket address: the grid's blocks.
    const double flush_c = std::max(
        1.0, config.gridDim * nonempty / buckets);
    stats.globalConflictWeight =
        static_cast<std::uint64_t>(flushes * flush_c);
    stats.globalMaxConflict = static_cast<std::uint64_t>(flush_c);
    stats.sharedAccesses = static_cast<std::uint64_t>(
        inserted + tiles * config.gridDim * 2 * (buckets + 1));
    stats.gmemBytes = static_cast<std::uint64_t>(
        inserted * config.globalIdBytes);
    return stats;
}

double
scatterLaunchNs(const gpusim::Cluster &cluster,
                const ScatterConfig &config, std::uint64_t elements,
                const KernelStats &stats)
{
    const CostModel &model = cluster.model();
    const int threads = static_cast<int>(std::min<std::uint64_t>(
        cluster.device().maxConcurrentThreads(),
        static_cast<std::uint64_t>(config.blockDim) * config.gridDim));
    return model.scatterComputeNs(elements, threads) +
           model.atomicNs(stats, threads) +
           model.gmemNs(stats.gmemBytes);
}

MsmTimeline
estimateDistMsm(const CurveProfile &curve, std::uint64_t n,
                const gpusim::Cluster &cluster,
                const MsmOptions &options)
{
    const MsmPlan plan =
        options.planner == PlannerMode::Heuristic
            ? planMsmHeuristic(curve, n, cluster, options)
            : autoplanMsm(curve, n, cluster, options).plan;
    return estimateDistMsmWithPlan(curve, n, cluster, options, plan);
}

MsmTimeline
estimateDistMsmWithPlan(const CurveProfile &curve, std::uint64_t n,
                        const gpusim::Cluster &cluster,
                        const MsmOptions &options, const MsmPlan &plan)
{
    const CostModel &model = cluster.model();
    const auto &spec = cluster.device();
    // Every execution decision (scatter kernel, accumulation, reduce
    // placement, merge strategy, field backend) is read off the
    // plan, so the timeline prices exactly what the engine runs and
    // attributes the same work to the same unit.
    const EcKernelVariant kernel =
        applyFieldBackend(options.kernel, plan.fieldBackend);
    const double buckets = static_cast<double>(plan.numBuckets);
    // GLV: twice the points flow through scatter and accumulation,
    // but the windows (computed by planMsm) already halved.
    const std::uint64_t n_eff = plan.glv ? 2 * n : n;

    // Flexible fractional distribution (Section 3.2.2): a GPU may
    // own whole windows, or a fraction of one window's buckets —
    // "this can be achieved simply by launching a different number
    // of thread blocks".
    const double windows_per_gpu =
        static_cast<double>(plan.numWindows) / cluster.numGpus();

    MsmTimeline t;
    t.reduceOverlapped = options.overlapReduce;
    t.fieldBackend = plan.fieldBackend;

    // --- Scatter (per GPU, concurrent across GPUs) ---
    // A GPU scans the N coefficients of every window it touches; in
    // the sub-window regime it inserts only its bucket slice.
    const double scanned = std::max(1.0, windows_per_gpu) * n_eff;
    const double inserted = windows_per_gpu * n_eff;
    const KernelStats scatter_stats = synthesizeScatterStats(
        plan.hierarchicalScatter, static_cast<std::uint64_t>(inserted),
        plan.windowBits, options.scatter);
    t.scatterNs = scatterLaunchNs(cluster, options.scatter,
                                  static_cast<std::uint64_t>(scanned),
                                  scatter_stats);

    // --- Bucket sum (per GPU) ---
    // Each GPU sums the buckets it owns, then (precomputed points,
    // Section 2.3.1) merges its windows bucket-wise so at most one
    // 2^s-bucket set leaves each GPU.
    const std::uint64_t acc_ops =
        static_cast<std::uint64_t>(inserted);
    // Batched-affine accumulation replaces the 10-mul pacc with the
    // ~7-modmul amortized affine add.
    const EcOp acc_op =
        plan.batchAffine ? EcOp::AffineAdd : EcOp::Pacc;
    const double buckets_per_gpu = buckets * windows_per_gpu;
    const std::uint64_t tree_padds = static_cast<std::uint64_t>(
        buckets_per_gpu * (plan.threadsPerBucket - 1));
    // Precomputed tables land every window's digit in the *same*
    // bucket set during scatter, so no bucket-wise window merge
    // remains on the device.
    const std::uint64_t merge_padds =
        plan.precompute
            ? 0
            : static_cast<std::uint64_t>(
                  buckets * std::max(0.0, windows_per_gpu - 1.0));
    t.bucketSumNs =
        model.ecThroughputNs(curve, kernel, acc_op,
                             acc_ops) +
        model.ecThroughputNs(curve, kernel, EcOp::Padd,
                             tree_padds + merge_padds);

    // --- Bucket reduce ---
    // The planner prices both placements (Section 3.2.3's CPU
    // offload vs the GPU-resident reduce, which must also merge the
    // per-GPU sets) and takes the cheaper one; the overlapped CPU
    // reduce is charged only for the part peeking past the GPU work.
    const double sums_per_gpu = std::min(buckets, buckets_per_gpu);
    const double incoming = cluster.numGpus() * sums_per_gpu;
    const std::uint64_t host_padds = static_cast<std::uint64_t>(
        std::max(0.0, incoming - buckets) + 2.0 * buckets);
    const double host_reduce_ns =
        model.hostEcNs(curve, host_padds, cluster.host());

    const double nt = spec.maxConcurrentThreads();
    const double gpu_reduce_ns =
        model.ecThroughputNs(
            curve, kernel, EcOp::Padd,
            static_cast<std::uint64_t>(
                std::max(0.0, incoming - buckets) / cluster.numGpus() +
                2.0 * (buckets + 1.0))) +
        model.ecSerialNs(curve, kernel, EcOp::Padd,
                         static_cast<std::uint64_t>(
                             plan.windowBits + std::log2(nt)));

    // Each placement implies its own transfer volume (the CPU reduce
    // pulls every bucket sum to the host; the GPU reduce ships one
    // partial result per GPU), so both are priced before the choice
    // — under the plan's merge strategy. Gather reproduces the
    // legacy cluster.gatherNs pricing bit-exactly; ring/tree route
    // the same disjoint payloads over the topology's NVLink/IB
    // links instead of all-to-host. Scalars and points are staged on
    // the devices before the timed region, as in the baselines' MSM
    // benchmarks, so their upload is not charged here.
    const gpusim::CollectiveTimeEstimator merge_est(
        cluster.topology(), cluster.device());
    const gpusim::CollectiveCosts cpu_merge_costs = merge_est.costs(
        cluster.numGpus(),
        static_cast<std::uint64_t>(sums_per_gpu * xyzzBytes(curve)));
    const gpusim::CollectiveCosts gpu_merge_costs = merge_est.costs(
        cluster.numGpus(), xyzzBytes(curve));
    // CollectivePolicy::Auto re-resolves per (topology, payload):
    // the CPU-reduce placement merges the full bucket-sum share, the
    // GPU-reduce placement ships one partial per GPU — two very
    // different payloads, so each gets its own congestion-priced
    // argmin instead of inheriting the plan-time pick (which was
    // made at the CPU placement's payload). Forced policies keep the
    // plan's resolved strategy for both, bit-compatible with every
    // earlier timeline.
    const gpusim::CollectiveAlgo cpu_algo =
        plan.collectiveAuto ? cpu_merge_costs.best() : plan.collective;
    const gpusim::CollectiveAlgo gpu_algo =
        plan.collectiveAuto ? gpu_merge_costs.best() : plan.collective;
    const double transfer_cpu_ns = cpu_merge_costs.ns(cpu_algo);
    const double transfer_gpu_ns = gpu_merge_costs.ns(gpu_algo);

    // The overlapped host reduce hides behind the GPU *stage* —
    // kernels plus the transfer streaming the sums out (Section
    // 3.2.3, mirrored by MsmTimeline::totalNs()).
    const double gpu_side_ns = t.scatterNs + t.bucketSumNs;
    const double effective_host_ns =
        options.overlapReduce
            ? std::max(0.0, host_reduce_ns -
                                (gpu_side_ns + transfer_cpu_ns))
            : host_reduce_ns;
    const bool cpu_reduce = plan.cpuBucketReduce &&
                            effective_host_ns < gpu_reduce_ns;
    t.cpuReduce = cpu_reduce;
    t.bucketReduceNs = cpu_reduce ? host_reduce_ns : gpu_reduce_ns;
    t.transferNs = cpu_reduce ? transfer_cpu_ns : transfer_gpu_ns;
    t.collective = cpu_reduce ? cpu_algo : gpu_algo;
    t.mergeCosts = cpu_reduce ? cpu_merge_costs : gpu_merge_costs;

    // --- Transfer checksum verification (fault layer) ---
    // Each device folds its per-window partial sums into one RLC
    // digest ([rho]S is a kRhoBits-wide double-and-add) before the
    // gather; the host re-derives the digest over every received
    // point and compares. One short scalar-mul per window, so the
    // cost scales with the window count, not with N — which is what
    // keeps the fault-free overhead under the 3%-of-totalNs gate.
    if (options.verifyChecksums) {
        const double wpg = std::max(1.0, windows_per_gpu);
        const double device_digest_ns =
            model.ecThroughputNs(
                curve, kernel, EcOp::Pdbl,
                static_cast<std::uint64_t>(wpg * kRhoBits)) +
            model.ecThroughputNs(
                curve, kernel, EcOp::Padd,
                static_cast<std::uint64_t>(wpg * (kRhoBits / 2 + 1)));
        const double host_rederive_ns = model.hostEcNs(
            curve,
            static_cast<std::uint64_t>(plan.numWindows) *
                    (kRhoEcOps + 1) +
                cluster.numGpus(),
            cluster.host());
        t.verifyNs = device_digest_ns + host_rederive_ns;
    }

    // --- Window reduce (host; a handful of points per GPU) ---
    if (plan.precompute) {
        // One combined bucket pass: the host only folds the per-GPU
        // partials — the serial inter-window double-and-add chain
        // (s doublings per window) is gone, and so are the
        // per-window launch rounds.
        t.windowReduceNs =
            model.hostEcNs(curve, cluster.numGpus(), cluster.host()) +
            4.0 * model.params().kernelLaunchUs * 1e3;
        // One-time table construction, amortized across proofs via
        // the base cache; excluded from totalNs() (see MsmTimeline).
        t.tableBuildNs = model.ecThroughputNs(
            curve, kernel, EcOp::Pdbl,
            precomputeBuildPdbls(n_eff, plan.numWindows,
                                 plan.windowBits));
    } else {
        t.windowReduceNs = model.hostEcNs(
            curve, cluster.numGpus() + plan.numWindows,
            cluster.host());

        // Fixed pipeline overhead: the scatter / sum / merge /
        // reduce launches and their synchronization (the floor
        // visible at small N).
        t.windowReduceNs +=
            8.0 * model.params().kernelLaunchUs * 1e3;
    }

    // --- Straggler + backoff pricing (fault layer) ---
    // Stragglers price the engine's watchdog verdicts over its
    // fault-free placement (window w on device w mod G at ordinal
    // w / G, slice d on device d): each device waits its units'
    // adopted completions past the estimate, and the merge waits for
    // the worst device. A hang nobody takes over prices the
    // kTransferTimeoutNs stand-in (the engine fails that run); a unit
    // lost to a kill, and its reshard, price nothing. Backoff prices
    // the expected dead-wire wait of flaky / persistently corrupt
    // devices' retries. Fault-free plans leave both fields zero.
    if (!options.faults.empty()) {
        const gpusim::FaultPlan &fplan = options.faults;
        const int num_gpus = cluster.numGpus();
        std::vector<int> survivors;
        for (int d = 0; d < num_gpus; ++d)
            if (fplan.survives(d))
                survivors.push_back(d);
        std::vector<double> wait_units(num_gpus, 0.0);
        const int n_units =
            plan.precompute ? num_gpus : static_cast<int>(plan.numWindows);
        for (int u = 0; u < n_units; ++u) {
            const int d = u % num_gpus;
            const WatchdogVerdict v = watchdogVerdict(
                fplan, d, plan.precompute ? kSliceOrdinal : u / num_gpus,
                plan.collective != gpusim::CollectiveAlgo::Gather,
                options.watchdog, survivors);
            if (!v.killed)
                wait_units[d] += v.adopted - 1.0;
        }
        const double unit_ns = watchdogUnitNs(plan, t, num_gpus);
        for (const double wait : wait_units)
            t.stragglerNs = std::max(
                t.stragglerNs,
                std::isinf(wait) ? kTransferTimeoutNs : wait * unit_ns);

        for (int d = 0; d < cluster.numGpus(); ++d) {
            double p = fplan.flakyProbability(d);
            for (const gpusim::FaultEvent &ev : fplan.events)
                if (ev.kind ==
                        gpusim::FaultKind::CorruptDeviceTransfers &&
                    ev.device == d)
                    p = 1.0;
            if (p <= 0.0)
                continue;
            double odds = 1.0;
            for (int a = 1; a <= kMaxTransferRetries; ++a) {
                odds *= p;
                t.backoffNs += odds * retryBackoffNs(a);
            }
        }
    }

    if (options.trace != nullptr)
        traceMsmTimeline(*options.trace, plan, t, cluster);
    return t;
}

WatchdogVerdict
watchdogVerdict(const gpusim::FaultPlan &faults, int device, int ordinal,
                bool whole_device, bool watchdog,
                const std::vector<int> &survivors)
{
    const auto hits = [&](int onset) {
        return onset >= 0 && (whole_device || ordinal >= onset);
    };
    WatchdogVerdict v;
    v.killed = hits(faults.killWindow(device));
    if (v.killed)
        return v;
    v.factor = faults.degradeFactor(device, ordinal);
    v.hang = hits(faults.hangWindow(device));
    v.late = watchdog && (v.hang || (ordinal != kSliceOrdinal &&
                                     v.factor > kWatchdogSlack));
    constexpr double kNever = std::numeric_limits<double>::infinity();
    double target_factor = kNever;
    if (v.late) {
        for (const int c : survivors) {
            const double cf = faults.degradeFactor(c, 0);
            if (c != device && cf < target_factor) {
                target_factor = cf;
                v.target = c;
            }
        }
    }
    const double copy = kWatchdogSlack + target_factor;
    const double original = v.hang ? kNever : v.factor;
    v.copyWins = copy < original;
    v.adopted = std::min(original, copy);
    return v;
}

namespace {

/** Deterministic 64-bit FNV-1a, used to salt flow-arrow ids. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

void
traceMsmTimeline(support::TraceRecorder &trace, const MsmPlan &plan,
                 const MsmTimeline &t,
                 const gpusim::Cluster &cluster,
                 const std::string &label, double start_ns)
{
    namespace lane = support::tracelane;
    const std::string prefix = label.empty() ? label : label + "/";
    cluster.labelTraceLanes(trace);

    // Span layout mirrors MsmTimeline::totalNs() exactly: the last
    // span on any lane ends at start_ns + t.totalNs().
    const double scatter_end = start_ns + t.scatterNs;
    const double sum_end = scatter_end + t.bucketSumNs;
    const double gpu_end = start_ns + t.gpuNs();
    const double gpu_stage_end = start_ns + t.gpuStageNs();
    const double total_end = start_ns + t.totalNs();

    support::TraceArgs plan_args;
    plan_args.arg("window_bits", static_cast<double>(plan.windowBits))
        .arg("num_windows", static_cast<double>(plan.numWindows))
        .arg("num_buckets", static_cast<double>(plan.numBuckets))
        .arg("gpus_per_window",
             static_cast<double>(plan.gpusPerWindow));

    for (int d = 0; d < cluster.numGpus(); ++d) {
        const int pid = lane::devicePid(d);
        trace.span(prefix + "scatter", "phase", pid,
                   lane::kComputeTid, start_ns, t.scatterNs,
                   plan_args);
        trace.span(prefix + "bucket-sum", "phase", pid,
                   lane::kComputeTid, scatter_end, t.bucketSumNs);
        if (!t.cpuReduce)
            trace.span(prefix + "bucket-reduce", "phase", pid,
                       lane::kComputeTid, sum_end, t.bucketReduceNs);
        trace.span(prefix + "transfer", "transfer", pid,
                   lane::kTransferTid, gpu_end, t.transferNs);
        trace.flow(prefix + "sums", fnv1a(prefix) ^
                       static_cast<std::uint64_t>(d),
                   pid, lane::kTransferTid, gpu_stage_end,
                   lane::kHostPid, lane::kComputeTid, gpu_stage_end);
    }

    if (t.cpuReduce) {
        // Overlapped: the host reduce runs alongside the GPU stage
        // and the makespan is max(gpuStage, reduce) + windowReduce.
        const double reduce_start =
            t.reduceOverlapped ? start_ns : gpu_stage_end;
        trace.span(prefix + "bucket-reduce", "phase", lane::kHostPid,
                   lane::kComputeTid, reduce_start, t.bucketReduceNs);
    }
    if (t.verifyNs > 0.0) {
        // Digest verification follows the host bucket-reduce in the
        // overlappable host stage (MsmTimeline::totalNs()): together
        // they either hide behind the GPU stage or serialize after
        // it, and the window reduce always closes the timeline.
        const double verify_start =
            (t.reduceOverlapped ? start_ns : gpu_stage_end) +
            (t.cpuReduce ? t.bucketReduceNs : 0.0);
        trace.span(prefix + "verify", "phase", lane::kHostPid,
                   lane::kComputeTid, verify_start, t.verifyNs);
    }
    trace.span(prefix + "window-reduce", "phase", lane::kHostPid,
               lane::kComputeTid, total_end - t.windowReduceNs,
               t.windowReduceNs);

    auto &metrics = trace.metrics();
    const std::string mp = "timeline/" + prefix;
    metrics.set(mp + "scatter_ns", t.scatterNs);
    metrics.set(mp + "bucket_sum_ns", t.bucketSumNs);
    metrics.set(mp + "bucket_reduce_ns", t.bucketReduceNs);
    metrics.set(mp + "window_reduce_ns", t.windowReduceNs);
    metrics.set(mp + "transfer_ns", t.transferNs);
    metrics.set(mp + "verify_ns", t.verifyNs);
    metrics.set(mp + "straggler_ns", t.stragglerNs);
    metrics.set(mp + "backoff_ns", t.backoffNs);
    metrics.set(mp + "total_ns", t.totalNs());
    metrics.set(mp + "cpu_reduce", t.cpuReduce ? 1.0 : 0.0);
    metrics.set(mp + "precompute", plan.precompute ? 1.0 : 0.0);
    // Amortized one-time cost; deliberately not part of total_ns
    // (trace_summary's overlap check reconciles spans vs total).
    metrics.set(mp + "table_build_ns", t.tableBuildNs);
    metrics.set(mp + "num_gpus",
                static_cast<double>(cluster.numGpus()));
    // Merge strategy and the tuner's per-strategy predictions for
    // the same payload (0 = gather, 1 = ring, 2 = tree, 3 = reduce-
    // scatter), so bench harnesses can read the gather-vs-collective
    // spread without re-deriving the link model.
    metrics.set(mp + "collective",
                static_cast<double>(static_cast<int>(t.collective)));
    metrics.set(mp + "merge_gather_ns", t.mergeCosts.gatherNs);
    metrics.set(mp + "merge_ring_ns", t.mergeCosts.ringNs);
    metrics.set(mp + "merge_tree_ns", t.mergeCosts.treeNs);
    metrics.set(mp + "merge_reduce_scatter_ns",
                t.mergeCosts.reduceScatterNs);
    // Resolved field-arithmetic backend the EC kernels were priced
    // under (gpusim::FieldBackend: 1 = cuda-core, 2 = tensor-core),
    // plus whether the planner's Auto resolution made the pick.
    metrics.set(mp + "field_backend",
                static_cast<double>(
                    static_cast<int>(plan.fieldBackend)));
    metrics.set(mp + "field_backend_auto",
                plan.fieldBackendAuto ? 1.0 : 0.0);
}

MsmTimeline
estimateNdimBaseline(const CurveProfile &curve, std::uint64_t n,
                     const gpusim::Cluster &cluster,
                     const EcKernelVariant &kernel,
                     unsigned window_bits_override,
                     bool rigid_single_gpu_design)
{
    const CostModel &model = cluster.model();
    const auto &spec = cluster.device();

    // The single-GPU design picks its window size for one GPU and
    // keeps it when scaled out (the rigidity the paper criticizes).
    WorkloadConfig wc;
    wc.numPoints = n;
    wc.scalarBits = curve.scalarBits;
    wc.numGpus = 1;
    wc.threadsPerGpu = spec.maxConcurrentThreads();
    // Production single-GPU libraries cap the window near 16 bits:
    // bucket storage and the reduce tail grow with 2^s while the
    // bucket-sum saving flattens. The rigid NO-OPT design of Section
    // 5.3 keeps its single-GPU-optimal (large) window instead.
    unsigned s = window_bits_override != 0 ? window_bits_override
                                           : optimalWindowSize(wc);
    if (window_bits_override == 0 && !rigid_single_gpu_design)
        s = std::min(16u, s);
    const unsigned n_win = windowCount(curve.scalarBits, s);
    const double buckets = std::ldexp(1.0, s) - 1.0;

    // Each GPU runs the whole Pippenger on its ceil(N / N_gpu) slice:
    // the makespan is the slowest GPU's share, and truncating here
    // would silently drop up to numGpus-1 points from the baseline's
    // scatter/bucket-sum charge at non-divisible N.
    const std::uint64_t slice =
        (n + cluster.numGpus() - 1) / cluster.numGpus();

    MsmTimeline t;
    t.cpuReduce = false;
    t.fieldBackend = kernel.tensorCoreMont
                         ? gpusim::FieldBackend::TensorCore
                         : gpusim::FieldBackend::CudaCore;

    const ScatterConfig scatter_cfg;
    const std::uint64_t scanned =
        static_cast<std::uint64_t>(n_win) * slice;
    const KernelStats scatter_stats =
        synthesizeScatterStats(false, scanned, s, scatter_cfg);
    t.scatterNs =
        scatterLaunchNs(cluster, scatter_cfg, scanned, scatter_stats);

    // Bucket sum: one thread per bucket per window (the traditional
    // allocation), plus nothing extra for trees.
    t.bucketSumNs = model.ecThroughputNs(curve, kernel, EcOp::Pacc,
                                         scanned);

    // Bucket reduce on the GPU, per window, not merged: chunked
    // running sums (2 PADDs per bucket) plus a serial combine tail
    // per window. The throughput part shrinks with s fixed, but the
    // per-window tails and the host merge below refuse to scale
    // with the GPU count (Section 3.1's criticism).
    const double nt = spec.maxConcurrentThreads();
    if (rigid_single_gpu_design) {
        // The paper's NO-OPT reduce: every bucket is scaled to
        // 2^i B_i (s PADD + s PDBL per bucket) before the parallel
        // reduction, per window, with the per-window combine chains
        // serialized — the "notably inefficient" parallel
        // bucket-reduce of Section 3.2.3.
        t.bucketReduceNs =
            model.ecThroughputNs(
                curve, kernel, EcOp::Padd,
                static_cast<std::uint64_t>(n_win * 2.0 * s *
                                           (buckets + 1.0))) +
            n_win * model.ecSerialNs(
                        curve, kernel, EcOp::Padd,
                        static_cast<std::uint64_t>(
                            s + std::log2(nt)));
    } else {
        // Chunked running sums (2 PADDs per bucket); the windows are
        // independent, so their serial combine chains overlap across
        // the device and one chain's latency remains.
        t.bucketReduceNs =
            model.ecThroughputNs(
                curve, kernel, EcOp::Padd,
                static_cast<std::uint64_t>(n_win * 2.0 *
                                           (buckets + 1.0))) +
            model.ecSerialNs(curve, kernel, EcOp::Padd,
                             static_cast<std::uint64_t>(
                                 s + std::log2(nt)));
    }

    // Host merges N_gpu partial results per window and combines
    // windows with s doublings each.
    t.windowReduceNs = model.hostEcNs(
        curve,
        static_cast<std::uint64_t>(n_win) *
            (cluster.numGpus() + s + 1),
        cluster.host());

    const std::uint64_t results_bytes =
        static_cast<std::uint64_t>(n_win) * xyzzBytes(curve);
    t.transferNs = cluster.gatherNs(results_bytes);
    return t;
}

} // namespace distmsm::msm
