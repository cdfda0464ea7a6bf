/**
 * @file
 * The DistMSM execution planner and analytic time estimator.
 *
 * Given a curve, an input size and a cluster, the planner decides the
 * window size (per-thread workload model, Section 3.1), the work
 * distribution (whole windows per GPU, or buckets of a window split
 * across GPUs, Section 3.2.2), the scatter kernel and where
 * bucket-reduce runs (Section 3.2.3). The plan records every
 * execution decision, and both the functional execution (distmsm.h)
 * and the analytic timeline used at paper-scale N read it rather than
 * MsmOptions, so the two cannot drift apart.
 */

#ifndef DISTMSM_MSM_PLANNER_H
#define DISTMSM_MSM_PLANNER_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/gpusim/cluster.h"
#include "src/gpusim/collectives.h"
#include "src/gpusim/cost_model.h"
#include "src/gpusim/faults.h"
#include "src/msm/scatter.h"
#include "src/msm/timeline.h"
#include "src/msm/workload_model.h"

namespace distmsm::support {
class TraceRecorder;
}

namespace distmsm::gpusim {
class HealthTracker;
}

namespace distmsm::msm {

/**
 * How planMsm arrives at the plan.
 *
 *  - `Heuristic` — the legacy hand-tuned rules (window model,
 *    precompute grow-or-decline, bucket-split threshold, ...);
 *    bit-compatible with every release before the autoscheduler.
 *  - `Search` — the cost-model-scored plan search of msm/autoplan.h,
 *    seeded with the heuristic plan so it can only tie or win; it
 *    runs on every planMsm call.
 */
enum class PlannerMode { Heuristic, Search };

const char *plannerModeName(PlannerMode mode);

/** Parses "heuristic" / "search". Returns false and leaves @p out
 *  untouched on anything else. */
bool parsePlannerMode(std::string_view text, PlannerMode *out);

/** User-facing knobs of a DistMSM run. */
struct MsmOptions
{
    /** 0 = choose s from the workload model. */
    unsigned windowBitsOverride = 0;
    /** Request the hierarchical (Algorithm 3) scatter over the naive
     *  one; the plan resolves it against shared memory
     *  (MsmPlan::hierarchicalScatter). */
    bool hierarchicalScatter = true;
    /** Offload bucket-reduce to the host CPU (Section 3.2.3). */
    bool cpuBucketReduce = true;
    /** Overlap the host reduce with GPU work (pipelined proving). */
    bool overlapReduce = true;
    /** Minimum threads cooperating on one bucket; the planner grows
     *  this toward a warp multiple while the device has idle
     *  capacity (Section 3.2.2). */
    int threadsPerBucket = 1;
    /** Signed-digit windows: buckets halve to 2^(s-1) (Section 6's
     *  ZPrize technique, adopted by DistMSM). */
    bool signedDigits = false;
    /** Precompute 2^(js) P_i so windows merge before bucket-reduce
     *  (Section 2.3.1). */
    bool precompute = false;
    /** GLV endomorphism decomposition: each (scalar, point) pair
     *  becomes two half-width pairs (P and phi(P) = (beta*x, y)),
     *  halving the window passes for the same bucket count. Silently
     *  ignored on curves without generated GLV constants. */
    bool glv = false;
    /** Batched-affine bucket accumulation: per-bucket affine running
     *  sums whose addition slopes share one Montgomery batch
     *  inversion per round (~6 muls per accumulation vs pacc's 10). */
    bool batchAffine = false;
    /**
     * Merge strategy for the bucket/window merge (gpusim/
     * collectives.h): a forced gather/ring/tree/reduce-scatter, or
     * Auto to let the link-cost tuner pick per (topology, message
     * size, device count) — re-resolved at every merge point, not
     * once per plan, so congestion-priced winners are picked per
     * payload. Gather — the default — is the paper's all-to-host
     * baseline and reproduces the legacy execution exactly.
     */
    gpusim::CollectivePolicy collective =
        gpusim::CollectivePolicy::Gather;
    /** EC kernel optimization set (Section 4). */
    gpusim::EcKernelVariant kernel = gpusim::EcKernelVariant::full();
    /**
     * Field-arithmetic backend for the simulated kernels' Montgomery
     * multiplications (Section 4.3). `Auto` — the default — lets the
     * planner price both backends with the cost model and pick the
     * cheaper one per (curve, N, window bits); a forced `CudaCore` /
     * `TensorCore` overrides both the pricing and, for TensorCore,
     * routes the functional engine's field muls through the
     * tcmul::montMulTC differential path (bit-identical to CIOS,
     * ~10-60x slower to simulate). Auto never engages the
     * differential path: it prices TC but executes the host
     * multiplier (Fp::operator*: the ADX kernel or CIOS).
     */
    gpusim::FieldBackend fieldBackend = gpusim::FieldBackend::Auto;
    /** Scatter launch geometry. */
    ScatterConfig scatter;
    /**
     * Host threads driving the functional execution (scalar
     * decomposition, window scatters, bucket-sum chunks, window
     * reduces, transfer digests, the precompute table build). Follows
     * support::resolveHostThreads: 0 = DISTMSM_HOST_THREADS env or
     * hardware_concurrency, 1 = the exact legacy sequential path,
     * n = at most n threads. Results are bit-identical either way.
     */
    int hostThreads = 0;
    /**
     * Fault injection plan (gpusim/faults.h). When it is empty (the
     * default) MsmEngine fills it from DISTMSM_FAULT_SPEC at
     * construction, before planning; an explicit plan wins over the
     * environment. The planner and the estimators read only this
     * field.
     */
    gpusim::FaultPlan faults;
    /**
     * RLC-checksum every simulated device->host transfer (msm/
     * checksum.h). Costs one short scalar-mul per shipped point,
     * priced as MsmTimeline::verifyNs (< 3% of totalNs at 2^18); off
     * reproduces the pre-fault-layer timelines exactly. Corruption
     * can only be *detected* while this is on.
     */
    bool verifyChecksums = true;
    /**
     * Cost-model-derived straggler watchdog (watchdogVerdict). Every
     * unit gets a deadline of kWatchdogSlack x the calibrated
     * per-unit estimate; a window that blows it (degrade beyond the
     * slack, or a hang) is speculatively re-dispatched onto the
     * fastest healthy survivor, and a hung slice is resharded. The
     * adopted copy is chosen by priced completion with a fixed
     * canonical tie-break (the original wins ties), so results stay
     * bit-identical at every hostThreads setting. Off: a hang is a
     * typed error and a degrade merely stalls the merge.
     */
    bool watchdog = true;
    /**
     * Optional per-device health ladder (gpusim/health.h). When set,
     * the engine records timeouts / checksum failures / stragglers /
     * hangs into it, excludes quarantined devices from scheduling
     * and resharding, fails transfers over to healthy survivors
     * after retry exhaustion, and re-plans when the tracker's
     * generation changes. Null (the default) keeps the legacy
     * fail-fast behavior. Borrowed, not owned; must outlive the
     * engine.
     */
    gpusim::HealthTracker *health = nullptr;
    /** Seeds the RLC coefficients (device and host must agree). */
    std::uint64_t checksumSeed = 0xC0FFEEull;
    /**
     * Structured tracing sink (support/trace.h). When non-null, the
     * analytic estimators emit per-device timeline lanes and the
     * functional engine emits kernel-launch and simulated-phase
     * spans plus flat metrics. Null (the default) keeps every
     * instrumentation site zero-cost; MsmEngine additionally falls
     * back to the DISTMSM_TRACE environment toggle.
     */
    support::TraceRecorder *trace = nullptr;
    /**
     * Plan selection strategy (see PlannerMode). The default keeps
     * the legacy heuristics; Search routes planMsm through the
     * autoscheduler in msm/autoplan.h.
     */
    PlannerMode planner = PlannerMode::Heuristic;
};

/**
 * Transfer attempts repeated after a detected corruption or timeout
 * before the engine gives up and returns the typed Status. 2
 * tolerates every transient (one-shot) fault while a persistent fault
 * still terminates promptly.
 */
inline constexpr int kMaxTransferRetries = 2;

/** Transfer attempts slower than this (injected delay) time out. */
inline constexpr double kTransferTimeoutNs = 1e8;

/** Watchdog deadline multiplier over the calibrated per-unit
 *  estimate (MsmOptions::watchdog, watchdogUnitNs). */
inline constexpr double kWatchdogSlack = 2.0;

/** The window ordinal of a precompute slice: a slice spans every
 *  window, so every kill, hang and degrade onset has passed. */
inline constexpr int kSliceOrdinal = std::numeric_limits<int>::max();

/** The watchdog's decision for one work unit (watchdogVerdict). */
struct WatchdogVerdict
{
    bool killed = false;  ///< lost with its device; the reshard re-runs it
    double factor = 1.0;  ///< slowdown on its device (degrade clauses)
    bool hang = false;    ///< never completes on its device
    bool late = false;    ///< the watchdog is on and the deadline blown
    int target = -1;      ///< respawn device, -1 for none
    bool copyWins = false; ///< the respawned copy is the one adopted
    /** Completion of the adopted copy in per-unit estimates; infinite
     *  for a hang that nobody takes over. */
    double adopted = 1.0;
};

/**
 * The one watchdog rule, which MsmEngine executes and
 * estimateDistMsmWithPlan prices, for the unit at @p ordinal (or
 * kSliceOrdinal) on @p device. Kills, hangs and degrades hit ordinals
 * at or past their onset; kills and hangs hit every unit of the
 * device when @p whole_device (a merge other than Gather). A hung
 * unit, or a window slower than kWatchdogSlack, is late: its copy on
 * the fastest other of @p survivors (lowest index on ties) starts at
 * the deadline and is adopted only when it completes strictly
 * earlier. A degraded slice is never respawned.
 */
WatchdogVerdict watchdogVerdict(const gpusim::FaultPlan &faults,
                                int device, int ordinal,
                                bool whole_device, bool watchdog,
                                const std::vector<int> &survivors);

/**
 * Transfer retries back off exponentially instead of retrying
 * immediately: retry a >= 1 waits kBackoffBaseNs x 2^(a-1), capped at
 * kBackoffMaxNs (the engine adds deterministic seeded jitter). Priced
 * into FaultReport::backoffNs and MsmTimeline::backoffNs; the retry
 * *count* and results are unchanged.
 */
inline constexpr double kBackoffBaseNs = 2e5;
inline constexpr double kBackoffMaxNs = 5e6;

/** Un-jittered backoff before retry @p attempt (>= 1). */
inline double
retryBackoffNs(int attempt)
{
    return std::min(kBackoffMaxNs,
                    kBackoffBaseNs *
                        static_cast<double>(1ull << (attempt - 1)));
}

/** A concrete execution plan. */
struct MsmPlan
{
    unsigned windowBits = 0;
    unsigned numWindows = 0;
    /** Effective scalar width the windows cover: the curve's scalar
     *  bits, or the GLV half-scalar width when glv is active. */
    unsigned scalarBits = 0;
    /** GLV active: 2n half-width (scalar, point) pairs. */
    bool glv = false;
    /** Buckets per window excluding bucket 0 (halved when signed). */
    std::uint64_t numBuckets = 0;
    bool signedDigits = false;
    /** GPUs cooperating on each window (1 = whole windows per GPU). */
    int gpusPerWindow = 1;
    /** Windows handled by the busiest GPU. */
    unsigned windowsPerGpu = 0;
    /** Threads summing each bucket. */
    int threadsPerBucket = 32;
    bool bucketsSplitAcrossGpus = false;
    /**
     * Fixed-base precompute tables active. Requested via
     * MsmOptions::precompute but *owned by the planner*: the tables
     * multiply base storage by the window count, so the planner
     * grows the window size until the table fits the device's
     * global-memory budget, or declines (false) when it cannot
     * (pinned windowBitsOverride, or no window size fits). The
     * engine and the analytic estimator both key off this field.
     */
    bool precompute = false;
    /** Bytes of the per-device precompute table (0 when declined). */
    std::uint64_t tableBytes = 0;
    /**
     * The concrete merge strategy: MsmOptions::collective resolved
     * by the link-cost tuner (Auto), or the forced choice. Drives
     * both the functional engine's merge path and the analytic
     * transfer pricing.
     */
    gpusim::CollectiveAlgo collective = gpusim::CollectiveAlgo::Gather;
    /** Per-device payload bytes the tuner priced the merge at. */
    std::uint64_t mergeBytesPerGpu = 0;
    /**
     * The resolved field-arithmetic backend: MsmOptions::fieldBackend
     * with Auto replaced by the cost model's per-(curve, N, s) pick.
     * Never Auto in a built plan. Drives the kernel variant every
     * cost-model call prices (via gpusim::applyFieldBackend) and the
     * engine's per-backend op attribution.
     */
    gpusim::FieldBackend fieldBackend = gpusim::FieldBackend::CudaCore;
    /** True when the planner's Auto resolution chose the backend (vs
     *  a forced MsmOptions::fieldBackend). Only a forced TensorCore
     *  executes the tcmul differential path. */
    bool fieldBackendAuto = false;
    /** Batched-affine bucket accumulation (MsmOptions::batchAffine). */
    bool batchAffine = false;
    /** The bucket reduce may run on the host CPU
     *  (MsmOptions::cpuBucketReduce); the timeline still takes the
     *  cheaper placement. */
    bool cpuBucketReduce = true;
    /** MsmOptions::collective was Auto: every merge point re-resolves
     *  the strategy against its own payload instead of keeping
     *  `collective`. */
    bool collectiveAuto = false;
    /**
     * The scatter kernel: MsmOptions::hierarchicalScatter, and only
     * when its 2^s counters plus a one-element tile fit the block's
     * shared memory (hierarchicalSharedBytes). Above that (s > 14 on
     * the A100) DistMSM scatters naively, as Figure 11 prescribes.
     */
    bool hierarchicalScatter = true;
};

/** Fault-free GPU time of one work unit priced by @p t — a window's
 *  share of its device's scatter and bucket sum, or a whole slice:
 *  the watchdog's deadline is kWatchdogSlack times this. */
inline double
watchdogUnitNs(const MsmPlan &plan, const MsmTimeline &t, int num_gpus)
{
    const double windows =
        static_cast<double>(plan.numWindows) / num_gpus;
    return (t.scatterNs + t.bucketSumNs) /
           (plan.precompute ? 1.0 : std::max(1.0, windows));
}

/**
 * (numWindows, numBuckets) of @p window_bits windows over
 * @p scalar_bits-bit scalars, as planMsmHeuristic records them in
 * MsmPlan: signed digits add one window for the final carry and halve
 * the buckets (bucket 0 excluded).
 */
std::pair<unsigned, std::uint64_t> windowGeometry(unsigned scalar_bits,
                                                  unsigned window_bits,
                                                  bool signed_digits);

/**
 * Build the plan for @p n points on @p cluster, honoring
 * MsmOptions::planner: the legacy heuristics, or the cost-model
 * search. Quarantined devices of MsmOptions::health are removed
 * first (planningCluster), once, whichever planner runs.
 */
MsmPlan planMsm(const gpusim::CurveProfile &curve, std::uint64_t n,
                const gpusim::Cluster &cluster,
                const MsmOptions &options);

/**
 * The legacy hand-tuned planner, ignoring MsmOptions::planner. This
 * is both `PlannerMode::Heuristic`'s implementation and the search's
 * seed/pruning oracle: autoplan realizes every candidate through
 * these rules so searched plans stay inside the space the engine can
 * execute.
 */
MsmPlan planMsmHeuristic(const gpusim::CurveProfile &curve,
                         std::uint64_t n,
                         const gpusim::Cluster &cluster,
                         const MsmOptions &options);

/**
 * The cluster the planner should plan against once quarantined
 * devices are removed: @p cluster itself when @p health is null or
 * nothing is quarantined (or everything is — an empty cluster cannot
 * be planned; the engine reports the error instead), otherwise a
 * copy whose topology holds only the schedulable device count.
 * planMsm applies it before dispatching, so either planner sizes the
 * plan for the shrunken fleet. Not idempotent: a shrunken cluster
 * still numbers its devices from 0, so apply it once per plan.
 */
gpusim::Cluster planningCluster(const gpusim::Cluster &cluster,
                                const gpusim::HealthTracker *health);

/**
 * Analytically synthesized scatter statistics for @p elements
 * uniformly random bucket ids into 2^s buckets, matching what the
 * functional kernels measure (validated by tests).
 */
gpusim::KernelStats
synthesizeScatterStats(bool hierarchical, std::uint64_t elements,
                       unsigned window_bits,
                       const ScatterConfig &config);

/**
 * Simulated time of one scatter launch with @p config over
 * @p elements scanned ids that produced @p stats: index work, atomic
 * traffic and device-memory traffic, summed in that order, on
 * min(device threads, blockDim x gridDim) threads of @p cluster's
 * device. The timeline, the N-dim baseline and the engine's traced
 * launches all price a scatter through this.
 */
double scatterLaunchNs(const gpusim::Cluster &cluster,
                       const ScatterConfig &config,
                       std::uint64_t elements,
                       const gpusim::KernelStats &stats);

/**
 * Analytic end-to-end timeline of DistMSM under @p options
 * (paper-scale N allowed; nothing is executed).
 */
MsmTimeline estimateDistMsm(const gpusim::CurveProfile &curve,
                            std::uint64_t n,
                            const gpusim::Cluster &cluster,
                            const MsmOptions &options);

/**
 * estimateDistMsm against an explicit @p plan instead of re-running
 * planMsm. The plan search scores candidates through this entry so a
 * Search-mode options struct cannot recurse back into the search.
 * Every execution decision comes from @p plan; @p options supplies
 * only what no plan decides (kernel variant, scatter geometry,
 * overlap, checksums, faults, watchdog, trace).
 */
MsmTimeline estimateDistMsmWithPlan(const gpusim::CurveProfile &curve,
                                    std::uint64_t n,
                                    const gpusim::Cluster &cluster,
                                    const MsmOptions &options,
                                    const MsmPlan &plan);

/**
 * Emit the analytic timeline of one MSM as trace spans: per-device
 * compute/transfer lanes plus the host-CPU lane, laid out on the
 * simulated-time axis exactly as totalNs() accounts them (scatter,
 * bucket-sum, reduce, transfer, window-reduce; overlap rules
 * applied). The last span ends at @p timeline .totalNs(). @p label
 * prefixes the span names ("msm0/scatter"), letting pipelined MSMs
 * share the device lanes.
 */
void traceMsmTimeline(support::TraceRecorder &trace,
                      const MsmPlan &plan,
                      const MsmTimeline &timeline,
                      const gpusim::Cluster &cluster,
                      const std::string &label = {},
                      double start_ns = 0.0);

/**
 * Analytic timeline of a single-GPU-design Pippenger scaled to
 * multiple GPUs by splitting the points (N-dim), the way the paper
 * augments baselines without native multi-GPU support. The kernel
 * variant models the baseline's arithmetic maturity.
 */
MsmTimeline
estimateNdimBaseline(const gpusim::CurveProfile &curve,
                     std::uint64_t n, const gpusim::Cluster &cluster,
                     const gpusim::EcKernelVariant &kernel,
                     unsigned window_bits_override = 0,
                     bool rigid_single_gpu_design = false);

} // namespace distmsm::msm

#endif // DISTMSM_MSM_PLANNER_H
