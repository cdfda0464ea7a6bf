/**
 * @file
 * Simulated time breakdown of one MSM execution.
 */

#ifndef DISTMSM_MSM_TIMELINE_H
#define DISTMSM_MSM_TIMELINE_H

#include "src/gpusim/collectives.h"
#include "src/gpusim/cost_model.h"

namespace distmsm::msm {

/** Per-step simulated times (ns) for one MSM. */
struct MsmTimeline
{
    double scatterNs = 0.0;
    double bucketSumNs = 0.0;
    /** Bucket-reduce on its executor (GPU or host, see cpuReduce). */
    double bucketReduceNs = 0.0;
    double windowReduceNs = 0.0;
    double transferNs = 0.0;
    /**
     * Checksum verification (Section "fault model"): each device
     * folds its per-window partial sums into one RLC digest before
     * the gather, and the host re-derives the digest from the
     * received points. Host-side cost; overlaps the GPU stage like
     * the CPU bucket-reduce does. Zero when verification is off, so
     * every pre-existing timeline is unchanged.
     */
    double verifyNs = 0.0;
    /**
     * One-time fixed-base table construction (plan.precompute).
     * Excluded from totalNs(): the tables depend only on the bases,
     * so a proving service amortizes the build across every proof
     * sharing the proving key (BaseTableCache); steady-state MSM
     * latency is what totalNs() reports. Cold-start cost is this
     * field, surfaced separately in traces and benchmarks.
     */
    double tableBuildNs = 0.0;
    /**
     * Straggler wait on the critical path: the worst device's
     * watchdog verdicts (watchdogVerdict), the engine's
     * FaultReport::stragglerWaitNs when one device straggles. Zero on
     * fault-free runs, so every pre-existing timeline is unchanged.
     */
    double stragglerNs = 0.0;
    /**
     * Expected exponential-backoff wait ahead of transfer retries
     * (flaky / persistently corrupt devices). Zero without such
     * faults.
     */
    double backoffNs = 0.0;
    /** True when bucket-reduce runs on the host CPU. */
    bool cpuReduce = false;
    /**
     * The merge strategy transferNs was priced with (the plan's
     * tuner-resolved collective), plus the per-strategy predictions
     * for the same merge so traces and benches can show the
     * gather-vs-ring-vs-tree-vs-reduce-scatter spread. Gather with
     * all-zero costs before the estimator runs.
     */
    gpusim::CollectiveAlgo collective = gpusim::CollectiveAlgo::Gather;
    gpusim::CollectiveCosts mergeCosts;
    /**
     * The field-arithmetic backend every EC kernel above was priced
     * under (the plan's resolved MsmOptions::fieldBackend). CudaCore
     * until an estimator stamps it.
     */
    gpusim::FieldBackend fieldBackend = gpusim::FieldBackend::CudaCore;
    /**
     * True when the CPU reduce overlaps GPU work (Section 3.2.3:
     * proof generation pipelines several MSMs, so the host reduce of
     * one window hides behind the GPU work of the next).
     */
    bool reduceOverlapped = false;

    /** GPU compute time (kernels only, no transfers). */
    double
    gpuNs() const
    {
        return scatterNs + bucketSumNs +
               (cpuReduce ? 0.0 : bucketReduceNs);
    }

    /**
     * The overlappable GPU stage: kernels plus the device-to-host
     * transfer. Section 3.2.3 models transfers as overlapping the
     * *host* reduce (the sums of window w stream out while the GPU
     * scatters window w+1), so the transfer belongs to the GPU stage
     * that the host reduce can hide behind — the same stage the
     * pipeline estimator treats as one MSM's GPU occupancy.
     */
    double
    gpuStageNs() const
    {
        return gpuNs() + transferNs;
    }

    /**
     * Host-side work, ignoring overlap: the CPU bucket-reduce (when
     * placed on the host) plus the final window reduce.
     */
    double
    hostStageNs() const
    {
        return (cpuReduce ? bucketReduceNs : 0.0) + verifyNs +
               windowReduceNs;
    }

    /**
     * End-to-end simulated time with the overlap rules applied.
     *
     * The host bucket-reduce hides behind the GPU stage —
     * gpuStageNs(), *including* the transfer — except for its
     * non-overlappable tail; the window reduce always serializes at
     * the end. This is the same decomposition
     * estimateProvingPipeline uses (gpu stage + exposed host tail),
     * so a one-task pipeline's makespan equals totalNs() exactly.
     */
    double
    totalNs() const
    {
        double host = windowReduceNs;
        // Digest verification joins the CPU bucket-reduce in the
        // overlappable host stage: both run while the GPUs work on
        // the next pipelined MSM, so only their combined tail beyond
        // gpuStageNs() is exposed.
        const double overlappable =
            verifyNs + (cpuReduce ? bucketReduceNs : 0.0);
        if (reduceOverlapped) {
            host += overlappable > gpuStageNs()
                        ? overlappable - gpuStageNs()
                        : 0.0;
        } else {
            host += overlappable;
        }
        // Straggler and backoff penalties serialize: the merge
        // cannot finish before the slowest window's adopted copy,
        // and backoff is dead wire time. They live outside
        // gpuStageNs() so the fault-free pipeline equality
        // (1-task pipelinedNs == totalNs) is untouched.
        return gpuStageNs() + host + stragglerNs + backoffNs;
    }

    double totalMs() const { return totalNs() / 1e6; }
};

} // namespace distmsm::msm

#endif // DISTMSM_MSM_TIMELINE_H
