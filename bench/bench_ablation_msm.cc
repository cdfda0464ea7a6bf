/**
 * @file
 * Ablation study of DistMSM's design choices (beyond the paper's
 * figures): each row disables or changes exactly one knob of the
 * full configuration and reports the simulated impact at three
 * cluster scales, for BLS12-381 at N = 2^26.
 *
 * Complements Figures 10-12: those isolate the paper's two
 * optimization families; this sweeps every planner/runtime decision
 * the library exposes, including the extensions (signed digits,
 * precomputation, pipelining).
 */

#include "bench/common.h"

#include "src/msm/pipeline.h"
#include "src/msm/planner.h"

int
main()
{
    using namespace distmsm;
    using gpusim::Cluster;
    using gpusim::DeviceSpec;
    bench::banner(
        "Ablation", "one-knob ablations of the DistMSM design",
        "simulated BLS12-381, N = 2^26; every row changes exactly "
        "one option relative to the full configuration");

    const auto curve = gpusim::CurveProfile::bls381();
    constexpr std::uint64_t kN = 1ull << 26;
    const std::vector<int> gpu_counts = {1, 8, 32};

    struct Row
    {
        const char *name;
        msm::MsmOptions options;
    };
    std::vector<Row> rows;
    rows.push_back({"full configuration", {}});
    {
        // The scatter and reduce knobs only matter in the
        // small-window multi-GPU regime; pin s = 11 (Figure 11's
        // setting) for those comparisons.
        msm::MsmOptions o;
        o.windowBitsOverride = 11;
        rows.push_back({"s pinned to 11 (base)", o});
        o.hierarchicalScatter = false;
        rows.push_back({"s=11, naive scatter", o});
    }
    {
        msm::MsmOptions o;
        o.windowBitsOverride = 11;
        o.cpuBucketReduce = false;
        rows.push_back({"s=11, GPU bucket-reduce", o});
    }
    {
        msm::MsmOptions o;
        o.windowBitsOverride = 11;
        o.overlapReduce = false;
        rows.push_back({"s=11, no reduce overlap", o});
    }
    {
        msm::MsmOptions o;
        o.kernel = gpusim::EcKernelVariant{true, true, true, false,
                                           false};
        rows.push_back({"- no tensor cores", o});
    }
    {
        msm::MsmOptions o;
        o.kernel = gpusim::EcKernelVariant::baseline();
        rows.push_back({"- unoptimized kernel", o});
    }
    {
        msm::MsmOptions o;
        o.signedDigits = true;
        rows.push_back({"+ signed digits", o});
    }
    {
        msm::MsmOptions o;
        o.glv = true;
        rows.push_back({"+ GLV decomposition", o});
    }
    {
        msm::MsmOptions o;
        o.batchAffine = true;
        rows.push_back({"+ batched-affine acc", o});
    }
    {
        msm::MsmOptions o;
        o.glv = true;
        o.batchAffine = true;
        o.signedDigits = true;
        rows.push_back({"+ GLV + batch + signed", o});
    }
    {
        msm::MsmOptions o;
        o.precompute = true;
        rows.push_back({"+ fixed-base precompute", o});
    }
    {
        msm::MsmOptions o;
        o.glv = true;
        o.batchAffine = true;
        o.precompute = true;
        rows.push_back({"+ GLV + batch + precomp", o});
    }
    {
        msm::MsmOptions o;
        o.windowBitsOverride = 20;
        rows.push_back({"s pinned to 20", o});
    }

    TextTable t;
    {
        std::vector<std::string> header = {"configuration"};
        for (int g : gpu_counts)
            header.push_back(std::to_string(g) + " GPU(s), ms");
        header.push_back("vs full (8)");
        t.header(header);
    }
    double full_8_ms = 0.0;
    for (const auto &row : rows) {
        std::vector<std::string> cells = {row.name};
        double this_8_ms = 0.0;
        for (int gpus : gpu_counts) {
            const Cluster cluster(DeviceSpec::a100(), gpus);
            const double ms =
                msm::estimateDistMsm(curve, kN, cluster,
                                     row.options)
                    .totalMs();
            if (gpus == 8)
                this_8_ms = ms;
            cells.push_back(TextTable::num(ms, 2));
        }
        if (full_8_ms == 0.0)
            full_8_ms = this_8_ms;
        cells.push_back(TextTable::num(this_8_ms / full_8_ms, 2) +
                        "x");
        t.row(cells);
    }
    std::printf("%s\n", t.render().c_str());

    // Pipelining ablation: the Section 3.2.3 overlap across a
    // proof's four MSMs.
    const Cluster node(DeviceSpec::a100(), 8);
    {
        msm::MsmOptions pre;
        pre.glv = true;
        pre.batchAffine = true;
        pre.precompute = true;
        const auto pre_plan = msm::planMsm(curve, kN, node, pre);
        if (pre_plan.precompute) {
            const auto pre_t =
                msm::estimateDistMsm(curve, kN, node, pre);
            std::printf(
                "fixed-base table build (one-time, amortized by "
                "BaseTableCache; excluded above): %.2f ms for "
                "%.1f GiB of tables\n",
                pre_t.tableBuildNs / 1e6,
                pre_plan.tableBytes / (1024.0 * 1024 * 1024));
        } else {
            // At paper scale the table cannot fit: the precompute
            // rows above fell back to the per-window path by design.
            std::printf(
                "fixed-base precompute declined by the planner at "
                "N = 2^26 (table exceeds the %.0f GiB device "
                "budget); the precompute rows above ran the "
                "per-window fallback. See the perfbench workload "
                "msm-precompute-2p16 for a proving-key-scale run "
                "where the table fits.\n",
                node.device().globalMemBytes / 2.0 /
                    (1024.0 * 1024 * 1024));
        }
    }
    msm::MsmOptions pipe_options;
    pipe_options.windowBitsOverride = 11; // CPU reduce engaged
    const auto pipe = msm::estimateProvingPipeline(curve, kN, node,
                                                   pipe_options, 4);
    std::printf("four pipelined MSMs: %.2f ms pipelined vs %.2f ms "
                "serial (%.1f%% of host reduce hidden)\n",
                pipe.pipelinedNs / 1e6, pipe.serialNs / 1e6,
                100 * pipe.hiddenFraction());
    return 0;
}
