/**
 * @file
 * MSM pipelining across a proof (paper Section 3.2.3).
 *
 * "Proof generation involves several MSM calculations and other GPU
 * tasks, which means that bucket-reduce can be efficiently
 * pipelined": while the GPUs run MSM k+1's scatter and bucket sums,
 * the host CPU reduces MSM k's buckets. This module models that
 * two-stage pipeline (GPU stage, host stage) and exposes the
 * makespan computation the Table 4 composition relies on.
 */

#ifndef DISTMSM_MSM_PIPELINE_H
#define DISTMSM_MSM_PIPELINE_H

#include <cstdint>
#include <vector>

#include "src/msm/planner.h"

namespace distmsm::msm {

/**
 * One pipelined task: GPU work followed by dependent host work.
 *
 * For MSM tasks built by estimateProvingPipeline, gpuNs is the
 * timeline's overlappable GPU stage (kernels + transfer,
 * MsmTimeline::gpuStageNs()) and hostNs is the *exposed* host tail
 * totalNs() - gpuStageNs(): the intra-MSM overlap of the host reduce
 * behind its own GPU stage is already consumed, so the flow-shop
 * recurrence only stacks the parts that genuinely serialize. A
 * one-task pipeline's makespan therefore equals totalNs() exactly.
 */
struct PipelineTask
{
    double gpuNs = 0.0;
    double hostNs = 0.0;
};

/**
 * Makespan of a two-stage pipeline: the GPU processes tasks back to
 * back; each task's host stage starts when both its GPU stage and
 * the previous host stage are done (the classic two-machine flow
 * shop recurrence). The last pipelineSchedule slot's hostEndNs, 0
 * with no tasks.
 */
double pipelineMakespanNs(const std::vector<PipelineTask> &tasks);

/** Scheduled interval of one task on each pipeline stage. */
struct PipelineSlot
{
    double gpuStartNs = 0.0;
    double gpuEndNs = 0.0;
    double hostStartNs = 0.0;
    double hostEndNs = 0.0;
};

/**
 * The per-task schedule realizing pipelineMakespanNs: slot i's GPU
 * interval is back to back after slot i-1's, and its host interval
 * starts at max(own GPU end, previous host end). The last slot's
 * hostEndNs is the makespan. Used by the trace emission to draw the
 * task lanes, and useful for tools that visualize overlap.
 */
std::vector<PipelineSlot>
pipelineSchedule(const std::vector<PipelineTask> &tasks);

/** Simulated timing of a pipelined proof generation. */
struct ProvingPipelineEstimate
{
    std::vector<PipelineTask> tasks;
    double pipelinedNs = 0.0;
    /**
     * The no-overlap baseline: every MSM's full GPU stage plus its
     * full host stage (MsmTimeline::hostStageNs()), with no hiding
     * anywhere — the denominator of hiddenFraction(). Note this is
     * *not* the sum of the tasks' gpuNs + hostNs, whose hostNs is
     * already the exposed tail.
     */
    double serialNs = 0.0;

    double hiddenFraction() const
    {
        return serialNs > 0 ? 1.0 - pipelinedNs / serialNs : 0.0;
    }
};

/**
 * Estimate the @p num_msms MSMs of one proof (Groth16 runs four) on
 * @p cluster with the host bucket-reduce pipelined behind the GPU
 * stages of subsequent MSMs.
 */
ProvingPipelineEstimate
estimateProvingPipeline(const gpusim::CurveProfile &curve,
                        std::uint64_t n,
                        const gpusim::Cluster &cluster,
                        const MsmOptions &options, int num_msms);

/**
 * Heterogeneous form: one pipelined task per entry of @p msm_sizes
 * (real proofs mix MSM lengths — e.g. Groth16's A/B1/B2/C differ
 * once the QAP is pruned), each size's timeline evaluated in input
 * order.
 */
ProvingPipelineEstimate
estimateProvingPipeline(const gpusim::CurveProfile &curve,
                        const std::vector<std::uint64_t> &msm_sizes,
                        const gpusim::Cluster &cluster,
                        const MsmOptions &options);

} // namespace distmsm::msm

#endif // DISTMSM_MSM_PIPELINE_H
