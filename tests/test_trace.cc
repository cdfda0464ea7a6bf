/**
 * @file
 * Tests for the structured tracing and metrics layer: the recorder
 * and registry primitives, the deterministic Chrome-trace export,
 * the analytic-timeline span layout (spans must sum to totalNs()
 * under the overlap rules), and the engine-level guarantees that
 * (a) enabling tracing changes neither the result point nor the
 * KernelStats and (b) the exported trace and metrics are
 * byte-identical for every host-thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/ec/curves.h"
#include "src/msm/distmsm.h"
#include "src/msm/pipeline.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "src/support/trace.h"

namespace distmsm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;
using support::MetricsRegistry;
using support::TraceRecorder;
namespace lane = support::tracelane;

TEST(Metrics, AddMaxSetSemantics)
{
    MetricsRegistry m;
    EXPECT_TRUE(m.empty());
    m.add("a", 2.0);
    m.add("a", 3.0);
    m.max("b", 5.0);
    m.max("b", 1.0);
    m.set("c", 7.0);
    m.set("c", 4.0);
    EXPECT_DOUBLE_EQ(m.value("a"), 5.0);
    EXPECT_DOUBLE_EQ(m.value("b"), 5.0);
    EXPECT_DOUBLE_EQ(m.value("c"), 4.0);
    EXPECT_DOUBLE_EQ(m.value("missing"), 0.0);
    EXPECT_EQ(m.size(), 3u);
}

TEST(Metrics, FormatValueIsDeterministic)
{
    // Exactly-representable integers render without a decimal point
    // so traces stay byte-stable across compilers.
    EXPECT_EQ(MetricsRegistry::formatValue(0.0), "0");
    EXPECT_EQ(MetricsRegistry::formatValue(42.0), "42");
    EXPECT_EQ(MetricsRegistry::formatValue(-3.0), "-3");
    EXPECT_EQ(MetricsRegistry::formatValue(1e15), "1000000000000000");
    EXPECT_EQ(MetricsRegistry::formatValue(2.5), "2.5");
    // Round-trippable float formatting for the rest.
    EXPECT_EQ(std::stod(MetricsRegistry::formatValue(0.1)), 0.1);
}

TEST(Metrics, JsonIsSortedByKey)
{
    MetricsRegistry m;
    m.set("z/last", 1.0);
    m.set("a/first", 2.0);
    m.set("m/mid", 3.5);
    std::ostringstream os;
    m.writeJson(os);
    const std::string json = os.str();
    EXPECT_LT(json.find("a/first"), json.find("m/mid"));
    EXPECT_LT(json.find("m/mid"), json.find("z/last"));
    EXPECT_NE(json.find("\"a/first\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"m/mid\": 3.5"), std::string::npos);
}

TEST(Trace, RecordsSpansInstantsAndFlows)
{
    TraceRecorder trace;
    trace.span("work", "phase", 1, 0, 100.0, 50.0,
               support::TraceArgs().arg("n", 3.0));
    trace.instant("marker", "phase", 1, 0, 120.0);
    trace.flow("xfer", 7, 1, 1, 150.0, 0, 0, 150.0);
    EXPECT_EQ(trace.eventCount(), 4u); // flow = 's' + 'f' pair

    const auto events = trace.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Sorted by timestamp.
    EXPECT_EQ(events[0].name, "work");
    EXPECT_EQ(events[0].ph, 'X');
    EXPECT_DOUBLE_EQ(events[0].durNs, 50.0);
    ASSERT_EQ(events[0].args.size(), 1u);
    EXPECT_EQ(events[0].args[0].first, "n");
    EXPECT_EQ(events[0].args[0].second, "3");
    EXPECT_EQ(events[1].ph, 'i');
    EXPECT_EQ(events[2].tsNs, 150.0);
    EXPECT_EQ(events[3].tsNs, 150.0);
}

TEST(Trace, ChromeJsonIsWellFormed)
{
    TraceRecorder trace;
    trace.labelProcess(1, "gpu0");
    trace.labelThread(1, 0, "compute");
    trace.span("scatter \"q\"", "phase", 1, 0, 1000.0, 500.0,
               support::TraceArgs().arg("kind", "naive"));
    std::ostringstream os;
    trace.writeChromeJson(os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""),
              std::string::npos);
    // Metadata lane names precede the events.
    EXPECT_LT(json.find("process_name"), json.find("scatter"));
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // ts/dur exported in microseconds: 1000 ns -> 1 us.
    EXPECT_NE(json.find("\"ts\":1,"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":0.5"), std::string::npos);
    // Quotes inside names are escaped.
    EXPECT_NE(json.find("scatter \\\"q\\\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\":\"naive\""), std::string::npos);
}

TEST(Trace, ExportIsIndependentOfInsertionOrder)
{
    TraceRecorder forward, backward;
    for (int i = 0; i < 16; ++i)
        forward.span(std::string("s").append(std::to_string(i)), "c",
                     i % 3, 0, static_cast<double>(i % 5), 1.0);
    for (int i = 15; i >= 0; --i)
        backward.span(std::string("s").append(std::to_string(i)), "c",
                      i % 3, 0, static_cast<double>(i % 5), 1.0);
    std::ostringstream a, b;
    forward.writeChromeJson(a);
    backward.writeChromeJson(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(Trace, MetricsPathPairsWithTracePath)
{
    EXPECT_EQ(support::traceMetricsPath("trace.json"),
              "trace.metrics.json");
    EXPECT_EQ(support::traceMetricsPath("/tmp/x/run.json"),
              "/tmp/x/run.metrics.json");
    EXPECT_EQ(support::traceMetricsPath("noext"),
              "noext.metrics.json");
}

/** Max end time over events on the analytic device + host lanes. */
double
analyticLaneEnd(const std::vector<support::TraceEvent> &events,
                int num_gpus)
{
    double end = 0.0;
    for (const auto &e : events) {
        if (e.ph != 'X')
            continue;
        const bool device_lane =
            e.pid >= lane::kDevicePidBase &&
            e.pid < lane::kDevicePidBase + num_gpus;
        if (e.pid != lane::kHostPid && !device_lane)
            continue;
        end = std::max(end, e.tsNs + e.durNs);
    }
    return end;
}

TEST(Trace, TimelineSpansEndAtTotalNs)
{
    const auto curve = gpusim::CurveProfile::bn254();
    // Cover both reduce placements and both overlap settings.
    struct Case
    {
        unsigned windowBits;
        bool overlap;
        bool cpuReduce;
    };
    for (const Case &c :
         {Case{11, true, true}, Case{11, false, true},
          Case{22, true, false}, Case{11, true, false}}) {
        const Cluster cluster(DeviceSpec::a100(), 8);
        TraceRecorder trace;
        msm::MsmOptions options;
        options.windowBitsOverride = c.windowBits;
        options.overlapReduce = c.overlap;
        options.cpuBucketReduce = c.cpuReduce;
        options.trace = &trace;
        const auto t = msm::estimateDistMsm(curve, 1ull << 22,
                                            cluster, options);
        const double end =
            analyticLaneEnd(trace.snapshot(), cluster.numGpus());
        EXPECT_NEAR(end, t.totalNs(), 1e-6 * t.totalNs())
            << "s=" << c.windowBits << " overlap=" << c.overlap
            << " cpuReduce=" << c.cpuReduce;
        EXPECT_DOUBLE_EQ(
            trace.metrics().value("timeline/total_ns"), t.totalNs());
        // Per-device lanes must actually exist.
        bool device_span = false;
        for (const auto &e : trace.snapshot())
            device_span |= e.pid == lane::devicePid(1) && e.ph == 'X';
        EXPECT_TRUE(device_span);
    }
}

TEST(Trace, TimelineRecordsStragglerAndBackoff)
{
    // Both are part of total_ns, so the trace shows them too. A
    // straggler past its onset and a flaky link make both non-zero.
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 4);
    TraceRecorder trace;
    msm::MsmOptions options;
    options.windowBitsOverride = 8;
    const auto plan_or = gpusim::FaultPlan::parse(
        "degrade:dev=1,factor=8@win=1;flaky:dev=2,p=0.5");
    ASSERT_TRUE(plan_or.isOk());
    options.faults = *plan_or;
    options.trace = &trace;
    const auto t = msm::estimateDistMsm(curve, 1ull << 10, cluster,
                                        options);
    EXPECT_GT(t.stragglerNs, 0.0);
    EXPECT_GT(t.backoffNs, 0.0);
    EXPECT_DOUBLE_EQ(trace.metrics().value("timeline/straggler_ns"),
                     t.stragglerNs);
    EXPECT_DOUBLE_EQ(trace.metrics().value("timeline/backoff_ns"),
                     t.backoffNs);
}

TEST(Trace, PipelineLanesMatchSchedule)
{
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    TraceRecorder trace;
    msm::MsmOptions options;
    options.windowBitsOverride = 11;
    options.trace = &trace;
    const auto estimate = msm::estimateProvingPipeline(
        curve, 1ull << 22, cluster, options, 4);
    const auto slots = msm::pipelineSchedule(estimate.tasks);
    ASSERT_EQ(slots.size(), 4u);
    EXPECT_DOUBLE_EQ(slots.back().hostEndNs, estimate.pipelinedNs);
    // Each task's GPU span appears at its scheduled slot.
    const auto events = trace.snapshot();
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const std::string name = "msm" + std::to_string(i) + "/gpu";
        const auto it = std::find_if(
            events.begin(), events.end(), [&](const auto &e) {
                return e.name == name &&
                       e.pid == lane::kPipelinePid;
            });
        ASSERT_NE(it, events.end()) << name;
        EXPECT_DOUBLE_EQ(it->tsNs, slots[i].gpuStartNs);
        EXPECT_DOUBLE_EQ(it->tsNs + it->durNs, slots[i].gpuEndNs);
    }
    EXPECT_DOUBLE_EQ(trace.metrics().value("pipeline/pipelined_ns"),
                     estimate.pipelinedNs);
}

msm::MsmOptions
engineOptions()
{
    msm::MsmOptions o;
    o.windowBitsOverride = 6;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 64 * 1024;
    return o;
}

TEST(Trace, EngineTracingChangesNoResultOrStats)
{
    Prng prng(0x7A);
    const auto points = msm::generatePoints<Bn254>(96, prng);
    const auto scalars = msm::generateScalars<Bn254>(96, prng);
    const Cluster cluster(DeviceSpec::a100(), 4);

    const msm::MsmEngine<Bn254> plain(points, cluster,
                                      engineOptions());
    const auto baseline = plain.compute(scalars);

    TraceRecorder trace;
    auto traced_options = engineOptions();
    traced_options.trace = &trace;
    const msm::MsmEngine<Bn254> traced(points, cluster,
                                       traced_options);
    const auto traced_result = traced.compute(scalars);

    EXPECT_EQ(traced_result.value, baseline.value);
    EXPECT_EQ(traced_result.stats, baseline.stats);
    EXPECT_EQ(traced_result.hostOps, baseline.hostOps);
    EXPECT_GT(trace.eventCount(), 0u);
    EXPECT_FALSE(trace.metrics().empty());
    // The kernel-launch lane carries one scatter span per window.
    std::size_t launch_spans = 0;
    for (const auto &e : trace.snapshot())
        launch_spans += e.pid == lane::kKernelsPid && e.ph == 'X';
    EXPECT_EQ(launch_spans, traced_result.plan.numWindows);
}

TEST(Trace, EngineExportIsByteIdenticalAcrossHostThreads)
{
    Prng prng(0x7B);
    const auto points = msm::generatePoints<Bn254>(128, prng);
    const auto scalars = msm::generateScalars<Bn254>(128, prng);
    const Cluster cluster(DeviceSpec::a100(), 4);

    std::string reference_trace, reference_metrics;
    for (const int threads : {1, 2, 8}) {
        TraceRecorder trace;
        auto options = engineOptions();
        options.signedDigits = true;
        options.hostThreads = threads;
        options.trace = &trace;
        const msm::MsmEngine<Bn254> engine(points, cluster, options);
        (void)engine.compute(scalars);

        std::ostringstream trace_os, metrics_os;
        trace.writeChromeJson(trace_os);
        trace.writeMetricsJson(metrics_os);
        if (threads == 1) {
            reference_trace = trace_os.str();
            reference_metrics = metrics_os.str();
            EXPECT_GT(reference_trace.size(), 2u);
        } else {
            EXPECT_EQ(trace_os.str(), reference_trace)
                << "trace drifted at hostThreads=" << threads;
            EXPECT_EQ(metrics_os.str(), reference_metrics)
                << "metrics drifted at hostThreads=" << threads;
        }
    }
}

TEST(Trace, PipelineEstimateUnchangedByTracing)
{
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    msm::MsmOptions options;
    options.windowBitsOverride = 11;
    const auto plain = msm::estimateProvingPipeline(
        curve, 1ull << 22, cluster, options, 4);
    TraceRecorder trace;
    options.trace = &trace;
    const auto traced = msm::estimateProvingPipeline(
        curve, 1ull << 22, cluster, options, 4);
    EXPECT_DOUBLE_EQ(traced.pipelinedNs, plain.pipelinedNs);
    EXPECT_DOUBLE_EQ(traced.serialNs, plain.serialNs);
}

} // namespace
} // namespace distmsm
