#include "src/msm/pipeline.h"

#include <algorithm>
#include <string>

#include "src/support/check.h"
#include "src/support/trace.h"

namespace distmsm::msm {

std::vector<PipelineSlot>
pipelineSchedule(const std::vector<PipelineTask> &tasks)
{
    std::vector<PipelineSlot> slots(tasks.size());
    double gpu_done = 0.0;
    double host_done = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        slots[i].gpuStartNs = gpu_done;
        gpu_done += tasks[i].gpuNs;
        slots[i].gpuEndNs = gpu_done;
        slots[i].hostStartNs = std::max(host_done, gpu_done);
        host_done = slots[i].hostStartNs + tasks[i].hostNs;
        slots[i].hostEndNs = host_done;
    }
    return slots;
}

double
pipelineMakespanNs(const std::vector<PipelineTask> &tasks)
{
    const std::vector<PipelineSlot> slots = pipelineSchedule(tasks);
    return slots.empty() ? 0.0 : slots.back().hostEndNs;
}

namespace {

/** Decompose one timeline into its pipelined task (see PipelineTask). */
PipelineTask
taskFromTimeline(const MsmTimeline &t)
{
    PipelineTask task;
    task.gpuNs = t.gpuStageNs();
    task.hostNs = t.totalNs() - t.gpuStageNs();
    return task;
}

/**
 * Emit the pipeline's task lanes (tracelane::kPipelinePid, tid 0
 * GPU stage / tid 1 host stage) so the overlap between consecutive
 * MSMs is visible in Perfetto.
 */
void
tracePipeline(support::TraceRecorder &trace,
              const ProvingPipelineEstimate &estimate)
{
    namespace lane = support::tracelane;
    trace.labelProcess(lane::kPipelinePid, "proving pipeline");
    trace.labelThread(lane::kPipelinePid, lane::kComputeTid,
                      "gpu stage");
    trace.labelThread(lane::kPipelinePid, lane::kTransferTid,
                      "host stage");
    const std::vector<PipelineSlot> slots =
        pipelineSchedule(estimate.tasks);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::string name = "msm" + std::to_string(i);
        support::TraceArgs args;
        args.arg("gpu_ns", estimate.tasks[i].gpuNs)
            .arg("host_ns", estimate.tasks[i].hostNs);
        trace.span(name + "/gpu", "pipeline", lane::kPipelinePid,
                   lane::kComputeTid, slots[i].gpuStartNs,
                   slots[i].gpuEndNs - slots[i].gpuStartNs, args);
        if (estimate.tasks[i].hostNs > 0.0)
            trace.span(name + "/host", "pipeline",
                       lane::kPipelinePid, lane::kTransferTid,
                       slots[i].hostStartNs,
                       slots[i].hostEndNs - slots[i].hostStartNs);
    }
    auto &metrics = trace.metrics();
    metrics.set("pipeline/tasks",
                static_cast<double>(estimate.tasks.size()));
    metrics.set("pipeline/pipelined_ns", estimate.pipelinedNs);
    metrics.set("pipeline/serial_ns", estimate.serialNs);
    metrics.set("pipeline/hidden_fraction",
                estimate.hiddenFraction());
}

} // namespace

ProvingPipelineEstimate
estimateProvingPipeline(const gpusim::CurveProfile &curve,
                        std::uint64_t n,
                        const gpusim::Cluster &cluster,
                        const MsmOptions &options, int num_msms)
{
    DISTMSM_REQUIRE(num_msms >= 1, "need at least one MSM");
    // The per-task estimate keeps the caller's overlapReduce: the
    // task already accounts its intra-MSM overlap, and the pipeline
    // only stacks the exposed host tails (see PipelineTask). The
    // task lanes are traced here, not per estimateDistMsm call.
    MsmOptions opts = options;
    opts.trace = nullptr;
    const MsmTimeline t = estimateDistMsm(curve, n, cluster, opts);

    ProvingPipelineEstimate estimate;
    estimate.tasks.assign(num_msms, taskFromTimeline(t));
    estimate.pipelinedNs = pipelineMakespanNs(estimate.tasks);
    estimate.serialNs =
        num_msms * (t.gpuStageNs() + t.hostStageNs());
    if (options.trace != nullptr)
        tracePipeline(*options.trace, estimate);
    return estimate;
}

ProvingPipelineEstimate
estimateProvingPipeline(const gpusim::CurveProfile &curve,
                        const std::vector<std::uint64_t> &msm_sizes,
                        const gpusim::Cluster &cluster,
                        const MsmOptions &options)
{
    DISTMSM_REQUIRE(!msm_sizes.empty(), "need at least one MSM");
    MsmOptions opts = options;
    opts.trace = nullptr; // task lanes traced below, once

    ProvingPipelineEstimate estimate;
    for (const std::uint64_t n : msm_sizes) {
        const MsmTimeline t = estimateDistMsm(curve, n, cluster, opts);
        estimate.tasks.push_back(taskFromTimeline(t));
        estimate.serialNs += t.gpuStageNs() + t.hostStageNs();
    }
    estimate.pipelinedNs = pipelineMakespanNs(estimate.tasks);
    if (options.trace != nullptr)
        tracePipeline(*options.trace, estimate);
    return estimate;
}

} // namespace distmsm::msm
