/**
 * @file
 * Command-line MSM driver.
 *
 * Usage:
 *   msm_cli [curve] [log2_N] [num_gpus] [flags...]
 *
 *   curve:   bn254 | bls377 | bls381 | mnt4753   (default bn254)
 *   log2_N:  input size exponent                  (default 24)
 *   gpus:    simulated A100 count                 (default 8)
 *   flags:   --naive-scatter --gpu-reduce --signed --no-tc
 *            --field-backend=<auto|cuda-core|tensor-core>
 *            --glv --batch-affine --precompute
 *            --planner=<heuristic|search>
 *            --topology=<spec>
 *            --collective=<gather|ring|tree|reduce-scatter|auto>
 *            --window=<s> --functional=<log2 n>
 *            --faults=<spec> --no-checksums --no-watchdog
 *            --health --fault-report --help
 *
 * Prints the plan, the simulated timeline breakdown at the requested
 * scale and, with --functional, runs the algorithm functionally at a
 * reduced size and checks the result against the serial reference.
 * --faults injects deterministic faults into the functional run (see
 * --help for the spec grammar); recoverable faults still produce a
 * result bit-identical to the fault-free run, unrecoverable ones exit
 * with the typed error instead of a wrong answer. An unknown flag or
 * curve, or a malformed number, is a usage error (exit 2).
 */

#include <cstdio>
#include <optional>
#include <string>

#include "src/ec/curves.h"
#include "src/msm/distmsm.h"
#include "src/msm/workload.h"
#include "src/support/parse.h"
#include "src/support/table.h"
#include "src/support/trace.h"

namespace {

using namespace distmsm;

std::optional<gpusim::CurveProfile>
curveByName(const std::string &name)
{
    if (name == "bn254")
        return gpusim::CurveProfile::bn254();
    if (name == "bls377")
        return gpusim::CurveProfile::bls377();
    if (name == "bls381")
        return gpusim::CurveProfile::bls381();
    if (name == "mnt4753")
        return gpusim::CurveProfile::mnt4753();
    return std::nullopt;
}

int
usageError(const std::string &what)
{
    std::fprintf(stderr, "msm_cli: %s (see --help)\n", what.c_str());
    return 2;
}

void
printHelp()
{
    std::printf(
        "msm_cli [curve] [log2_N] [num_gpus] [flags...]\n"
        "\n"
        "  curve:   bn254 | bls377 | bls381 | mnt4753  (default "
        "bn254)\n"
        "  log2_N:  input size exponent                (default 24)\n"
        "  gpus:    simulated A100 count               (default 8)\n"
        "\n"
        "flags:\n"
        "  --naive-scatter      disable the hierarchical scatter\n"
        "  --gpu-reduce         keep bucket-reduce on the GPUs\n"
        "  --signed             signed-digit windows\n"
        "  --glv                GLV endomorphism decomposition\n"
        "  --batch-affine       batched-affine bucket accumulation\n"
        "  --precompute         fixed-base precompute tables\n"
        "  --no-tc              disable tensor-core Montgomery\n"
        "  --field-backend=<b>  field-arithmetic backend for the\n"
        "                       simulated kernels:\n"
        "                         auto         cost-model pick "
        "(default)\n"
        "                         cuda-core    int32 CIOS\n"
        "                         tensor-core  tcmul differential "
        "path\n"
        "                       (functional runs on tensor-core "
        "execute\n"
        "                       every field mul through the TC "
        "model;\n"
        "                       results stay bit-identical)\n"
        "  --planner=<p>        plan selection strategy:\n"
        "                         heuristic  hand-tuned rules "
        "(default)\n"
        "                         search     cost-model plan search\n"
        "  --topology=<spec>    hierarchical cluster topology;\n"
        "                       comma-separated keys:\n"
        "                         nodes=N      node count\n"
        "                         gpus=G       GPUs per node\n"
        "                         intra=ring|fc  NVLink wiring\n"
        "                         nvlink=GBs nvlink_us=US  NVLink "
        "link\n"
        "                         ib=GBs ib_us=US  inter-node link\n"
        "                         nics=K       NICs per node\n"
        "                       example: "
        "--topology='nodes=4,gpus=8,intra=ring'\n"
        "                       (overrides the positional gpu "
        "count)\n"
        "  --collective=<c>     bucket/window merge strategy:\n"
        "                       gather | ring | tree | "
        "reduce-scatter |\n"
        "                       auto (tuner re-resolves per merge "
        "payload)\n"
        "  --window=<s>         pin the window size\n"
        "  --functional=<ln>    run functionally at N = 2^ln and\n"
        "                       check against serial Pippenger\n"
        "\n"
        "fault injection (functional runs; also honoured via the\n"
        "DISTMSM_FAULT_SPEC environment variable):\n"
        "  --faults=<spec>      deterministic fault plan; clauses\n"
        "                       separated by ';':\n"
        "                         kill:dev=K[@win=J]  device K dies "
        "at its\n"
        "                                             J-th window "
        "(default 0)\n"
        "                         corrupt:xfer=N      flip a bit in "
        "global\n"
        "                                             transfer index "
        "N\n"
        "                         corrupt:dev=K       corrupt every "
        "transfer\n"
        "                                             from device K\n"
        "                         delay:dev=K,ns=X[@attempt=A]\n"
        "                                             delay device "
        "K's A-th\n"
        "                                             transfer "
        "attempt by X ns\n"
        "                                             (default "
        "attempt 0)\n"
        "                         degrade:dev=K,factor=F[@win=J]\n"
        "                                             device K runs "
        "F x slower\n"
        "                                             from its J-th "
        "window on\n"
        "                         flaky:dev=K,p=P     corrupt each "
        "transfer from\n"
        "                                             device K with "
        "probability P\n"
        "                                             (seeded, "
        "deterministic)\n"
        "                         hang:dev=K[@win=J]  device K stops "
        "responding\n"
        "                                             at its J-th "
        "window\n"
        "                         seed:S              seed the "
        "corruption PRNG\n"
        "                       example: "
        "--faults='kill:dev=1;corrupt:xfer=3'\n"
        "                       (K, J, N, A, S are plain decimal "
        "integers;\n"
        "                       a transfer retries up to 2 times "
        "and times\n"
        "                       out past 1e8 ns of delay)\n"
        "  --no-checksums       disable RLC transfer checksums "
        "(corruption\n"
        "                       goes undetected; faster)\n"
        "  --no-watchdog        disable straggler speculation; a "
        "degrade\n"
        "                       stalls the run, a hang fails it\n"
        "  --health             attach a device-health tracker "
        "(probation /\n"
        "                       quarantine ladder) to the "
        "functional run\n"
        "                       and print its summary\n"
        "  --fault-report       print the fault/recovery counters "
        "after a\n"
        "                       functional run\n");
}

void
printFaultReport(const gpusim::FaultReport &r)
{
    std::printf(
        "\nfault report:\n"
        "  injected: %llu total (%llu corruptions, %llu timeouts, "
        "%llu devices lost, %llu hangs)\n"
        "  detected: %llu corruptions, %llu retries, %llu windows "
        "resharded, %llu transfer failovers\n"
        "  watchdog: %llu stragglers detected, %llu respawns "
        "(%llu speculative wins, %llu losses)\n"
        "  waits:    %.0f ns backoff, %.0f ns straggler wait "
        "(vs %.0f ns un-watched stall)\n"
        "  verify:   %llu transfers, %llu points checksummed, %llu "
        "EC ops (off the determinism books)\n",
        static_cast<unsigned long long>(r.faultsInjected),
        static_cast<unsigned long long>(r.corruptInjected),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.devicesLost),
        static_cast<unsigned long long>(r.hangs),
        static_cast<unsigned long long>(r.corruptDetected),
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.windowsResharded),
        static_cast<unsigned long long>(r.transferFailovers),
        static_cast<unsigned long long>(r.stragglersDetected),
        static_cast<unsigned long long>(r.stragglerRespawns),
        static_cast<unsigned long long>(r.speculativeWins),
        static_cast<unsigned long long>(r.speculativeLosses),
        r.backoffNs, r.stragglerWaitNs, r.stragglerStallNs,
        static_cast<unsigned long long>(r.transfers),
        static_cast<unsigned long long>(r.checksummed),
        static_cast<unsigned long long>(r.verifyEcOps));
}

void
printHealthSummary(const gpusim::HealthTracker &tracker)
{
    std::printf("\ndevice health (generation %llu):\n",
                static_cast<unsigned long long>(
                    tracker.generation()));
    for (int d = 0; d < tracker.numDevices(); ++d) {
        const auto &h = tracker.device(d);
        std::printf(
            "  dev%d: %-11s score %d, %llu clean window(s), "
            "%llu timeout(s), %llu checksum failure(s), "
            "%llu straggler(s), %llu hang(s)\n",
            d, gpusim::healthStateName(h.state), h.faultScore,
            static_cast<unsigned long long>(h.cleanWindows),
            static_cast<unsigned long long>(h.timeouts),
            static_cast<unsigned long long>(h.checksumFailures),
            static_cast<unsigned long long>(h.stragglerEvents),
            static_cast<unsigned long long>(h.hangs));
    }
}

template <typename Curve>
int
functionalCheck(unsigned log_n, const gpusim::Cluster &cluster,
                msm::MsmOptions options, bool fault_report,
                bool track_health)
{
    Prng prng(0xC11);
    const std::size_t n = std::size_t{1} << log_n;
    std::printf("\nfunctional check at N = 2^%u (%zu points)...\n",
                log_n, n);
    const auto points = msm::generatePoints<Curve>(n, prng);
    const auto scalars = msm::generateScalars<Curve>(n, prng);
    if (options.windowBitsOverride == 0)
        options.windowBitsOverride = 8;
    gpusim::HealthTracker tracker(cluster.numGpus());
    if (track_health)
        options.health = &tracker;
    const auto result_or = msm::tryComputeDistMsm<Curve>(
        points, scalars, cluster, options);
    if (!result_or.isOk()) {
        std::printf("UNRECOVERABLE FAULT: %s\n",
                    result_or.status().toString().c_str());
        return 2;
    }
    const auto &result = *result_or;
    const auto expect =
        msm::msmSerialPippenger<Curve>(points, scalars, 8);
    if (!(result.value == expect)) {
        std::printf("FUNCTIONAL MISMATCH\n");
        return 1;
    }
    std::printf("matches the serial Pippenger reference; "
                "%llu PACC, %llu global atomics, %llu host ops.\n",
                static_cast<unsigned long long>(result.stats.paccOps),
                static_cast<unsigned long long>(
                    result.stats.globalAtomics),
                static_cast<unsigned long long>(result.hostOps));
    if (fault_report)
        printFaultReport(result.fault);
    if (track_health)
        printHealthSummary(tracker);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string curve_name = "bn254";
    unsigned log_n = 24;
    int gpus = 8;
    unsigned functional = 0;
    bool fault_report = false;
    bool track_health = false;
    bool have_topology = false;
    gpusim::Topology topology;
    msm::MsmOptions options;

    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return 0;
        } else if (arg == "--naive-scatter") {
            options.hierarchicalScatter = false;
        } else if (arg == "--gpu-reduce") {
            options.cpuBucketReduce = false;
        } else if (arg == "--signed") {
            options.signedDigits = true;
        } else if (arg == "--glv") {
            options.glv = true;
        } else if (arg == "--batch-affine") {
            options.batchAffine = true;
        } else if (arg == "--precompute") {
            options.precompute = true;
        } else if (arg == "--no-tc") {
            options.kernel.tensorCoreMont = false;
            options.kernel.onTheFlyCompact = false;
        } else if (arg.rfind("--field-backend=", 0) == 0) {
            if (!gpusim::parseFieldBackend(arg.substr(16),
                                           &options.fieldBackend)) {
                std::fprintf(
                    stderr,
                    "bad --field-backend '%s' (want auto, "
                    "cuda-core or tensor-core)\n",
                    arg.substr(16).c_str());
                return 2;
            }
        } else if (arg.rfind("--planner=", 0) == 0) {
            if (!msm::parsePlannerMode(arg.substr(10),
                                       &options.planner))
                return usageError("bad " + arg +
                                  "; want heuristic or search");
        } else if (arg == "--no-checksums") {
            options.verifyChecksums = false;
        } else if (arg == "--no-watchdog") {
            options.watchdog = false;
        } else if (arg == "--health") {
            track_health = true;
        } else if (arg == "--fault-report") {
            fault_report = true;
        } else if (arg.rfind("--faults=", 0) == 0) {
            const auto plan_or =
                gpusim::FaultPlan::parse(arg.substr(9));
            if (!plan_or.isOk()) {
                std::fprintf(stderr, "bad --faults spec: %s\n",
                             plan_or.status().toString().c_str());
                return 2;
            }
            options.faults = *plan_or;
        } else if (arg.rfind("--topology=", 0) == 0) {
            const auto topo_or =
                gpusim::Topology::parse(arg.substr(11));
            if (!topo_or.isOk()) {
                std::fprintf(stderr, "bad --topology spec: %s\n",
                             topo_or.status().toString().c_str());
                return 2;
            }
            topology = *topo_or;
            have_topology = true;
        } else if (arg.rfind("--collective=", 0) == 0) {
            const auto policy_or =
                gpusim::parseCollectivePolicy(arg.substr(13));
            if (!policy_or.isOk()) {
                std::fprintf(stderr, "bad --collective: %s\n",
                             policy_or.status().toString().c_str());
                return 2;
            }
            options.collective = *policy_or;
        } else if (arg.rfind("--window=", 0) == 0) {
            if (!support::parseDecimal(arg.substr(9),
                                       options.windowBitsOverride))
                return usageError("bad " + arg);
        } else if (arg.rfind("--functional=", 0) == 0) {
            if (!support::parseDecimal(arg.substr(13), functional))
                return usageError("bad " + arg);
        } else if (arg[0] == '-') {
            return usageError("unknown flag '" + arg + "'");
        } else if (positional == 0) {
            curve_name = arg;
            ++positional;
        } else if (positional == 1) {
            if (!support::parseDecimal(arg, log_n) || log_n > 63)
                return usageError("bad log2_N '" + arg + "'");
            ++positional;
        } else if (positional == 2) {
            if (!support::parseDecimal(arg, gpus) || gpus < 1)
                return usageError("bad GPU count '" + arg + "'");
            ++positional;
        } else {
            return usageError("unexpected argument '" + arg + "'");
        }
    }
    const std::optional<gpusim::CurveProfile> curve =
        curveByName(curve_name);
    if (!curve)
        return usageError("unknown curve '" + curve_name + "'");

    // A malformed DISTMSM_FAULT_SPEC is a typed parse error, not a
    // crash: surface it up front, before any work runs against a
    // plan the user didn't ask for. Without --faults the environment
    // plan is the run's plan, so the printed plan and timeline price
    // the faults the functional run injects.
    {
        const auto env_or = gpusim::globalFaultPlanFromEnv();
        if (!env_or.isOk()) {
            std::fprintf(stderr, "%s\n",
                         env_or.status().toString().c_str());
            return 2;
        }
        if (options.faults.empty() && *env_or != nullptr)
            options.faults = **env_or;
    }

    // DISTMSM_TRACE=path.json records the simulated timeline (and,
    // with --functional, the engine's per-window spans) and flushes
    // the Chrome trace plus metrics JSON at exit.
    options.trace = support::globalTraceFromEnv();

    if (!have_topology)
        topology = gpusim::Topology::flat(gpus);
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(),
                                  topology);
    std::printf("DistMSM: %s, N = 2^%u, %d simulated A100(s)\n",
                curve->name, log_n, cluster.numGpus());
    std::printf("topology: %s\n\n",
                cluster.topology().describe().c_str());

    const auto plan =
        msm::planMsm(*curve, 1ull << log_n, cluster, options);
    std::printf("plan: s = %u, %u windows (%llu buckets%s), %u "
                "window(s)/GPU%s, %d thread(s)/bucket\n",
                plan.windowBits, plan.numWindows,
                static_cast<unsigned long long>(plan.numBuckets),
                plan.signedDigits ? ", signed" : "",
                plan.windowsPerGpu,
                plan.bucketsSplitAcrossGpus ? ", buckets split" : "",
                plan.threadsPerBucket);
    std::printf("      field backend: %s%s\n",
                gpusim::fieldBackendName(plan.fieldBackend),
                plan.fieldBackendAuto ? " (auto-selected)" : "");
    std::printf("      planner: %s\n",
                msm::plannerModeName(options.planner));
    if (plan.precompute) {
        std::printf("      fixed-base precompute: %.1f MiB of "
                    "tables, windows merge into one bucket pass\n",
                    plan.tableBytes / (1024.0 * 1024.0));
    } else if (options.precompute) {
        std::printf("      fixed-base precompute declined by the "
                    "planner (table exceeds the memory budget)\n");
    }
    {
        const gpusim::CollectiveTimeEstimator est(
            cluster.topology(), cluster.device());
        const auto merge_costs =
            est.costs(cluster.numGpus(), plan.mergeBytesPerGpu);
        std::printf(
            "      merge: %s (policy %s); predicted gather %.3f / "
            "ring %.3f / tree %.3f / reduce-scatter %.3f ms\n",
            gpusim::collectiveAlgoName(plan.collective),
            gpusim::collectivePolicyName(options.collective),
            merge_costs.gatherNs / 1e6, merge_costs.ringNs / 1e6,
            merge_costs.treeNs / 1e6,
            merge_costs.reduceScatterNs / 1e6);
    }

    const auto t =
        msm::estimateDistMsm(*curve, 1ull << log_n, cluster, options);
    TextTable table;
    table.header({"stage", "simulated ms"});
    table.row({"bucket scatter", TextTable::num(t.scatterNs / 1e6, 3)});
    table.row({"bucket sum", TextTable::num(t.bucketSumNs / 1e6, 3)});
    table.row({t.cpuReduce ? "bucket reduce (CPU)"
                           : "bucket reduce (GPU)",
               TextTable::num(t.bucketReduceNs / 1e6, 3)});
    table.row({"window reduce", TextTable::num(t.windowReduceNs / 1e6,
                                               3)});
    table.row({"transfers", TextTable::num(t.transferNs / 1e6, 3)});
    if (t.verifyNs > 0.0) {
        table.row({"checksum verify",
                   TextTable::num(t.verifyNs / 1e6, 3)});
    }
    if (t.stragglerNs > 0.0) {
        table.row({"straggler wait",
                   TextTable::num(t.stragglerNs / 1e6, 3)});
    }
    if (t.backoffNs > 0.0) {
        table.row({"retry backoff",
                   TextTable::num(t.backoffNs / 1e6, 3)});
    }
    if (t.tableBuildNs > 0.0) {
        table.row({"table build (one-time)",
                   TextTable::num(t.tableBuildNs / 1e6, 3)});
    }
    table.row({"total (with overlap)", TextTable::num(t.totalMs(), 3)});
    std::printf("\n%s", table.render().c_str());

    if (functional != 0) {
        if (curve_name == "bls377") {
            return functionalCheck<distmsm::Bls377>(
                functional, cluster, options, fault_report,
                track_health);
        }
        if (curve_name == "bls381") {
            return functionalCheck<distmsm::Bls381>(
                functional, cluster, options, fault_report,
                track_health);
        }
        if (curve_name == "mnt4753") {
            return functionalCheck<distmsm::Mnt4753>(
                functional, cluster, options, fault_report,
                track_health);
        }
        return functionalCheck<distmsm::Bn254>(
            functional, cluster, options, fault_report,
            track_health);
    }
    return 0;
}
