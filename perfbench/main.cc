/**
 * @file
 * Command line of the DistMSM benchmark binary.
 *
 *   distmsm_perfbench --workload NAME --seed N --seconds S
 *                     --trace 0|1 [--spans PATH]
 *
 * Informational lines start with '#'. The last line of standard
 * output is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}; --trace 0 reports the end-to-end metrics, --trace 1
 * the per-layer ones.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/**
 * Variables the library reads when its options leave a field empty
 * (thread count, fault plan, tracing, plan cache, planner beam). A
 * run that inherits one would not measure the configuration it
 * reports, so they are cleared before the library first reads them.
 */
constexpr const char *kLibraryEnv[] = {
    "DISTMSM_HOST_THREADS", "DISTMSM_FAULT_SPEC", "DISTMSM_TRACE",
    "DISTMSM_PLAN_CACHE", "DISTMSM_AUTOPLAN_BEAM"};

/** CPUs this process may run on, as nproc counts them. */
int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "distmsm_perfbench: %s\nusage: distmsm_perfbench "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\nworkloads: %s\n",
                 why, perfbench::workloadNames().c_str());
    return 2;
}

void
printJson(const perfbench::Report &rep)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"metrics\": {",
                rep.failed == 0 && rep.problems.empty() ? "true"
                                                         : "false",
                (unsigned long long)rep.attempted,
                (unsigned long long)rep.failed);
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const auto &m = rep.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            cfg.workload = value;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(cfg.seconds > 0.0 && cfg.seconds <= 600.0))
                return usage("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            cfg.trace = value == "1";
        } else if (arg == "--spans") {
            cfg.spansPath = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    const perfbench::Workload *w = perfbench::findWorkload(cfg.workload);
    if (w == nullptr)
        return usage("unknown or missing --workload");
    if (!have_seed)
        return usage("missing or malformed --seed");
    std::string cleared;
    for (const char *var : kLibraryEnv)
        if (std::getenv(var) != nullptr) {
            cleared += std::string(cleared.empty() ? "" : ",") + var;
            unsetenv(var);
        }
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "distmsm_perfbench: refusing to time an "
                         "unoptimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    cfg.hostThreads = usableCpus();
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1;
    std::printf("# env: workload=%s seed=%llu seconds=%g trace=%d "
                "build_type=%s compiler=\"%s\" nproc=%d "
                "host_threads=%d loadavg=%.2f,%.2f,%.2f "
                "cleared_env=%s\n",
                w->name, (unsigned long long)cfg.seed, cfg.seconds,
                cfg.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, __VERSION__,
                cfg.hostThreads, cfg.hostThreads, load[0], load[1],
                load[2], cleared.empty() ? "none" : cleared.c_str());
    std::fflush(stdout);

    const perfbench::Report rep = cfg.trace
                                      ? perfbench::runTraced(*w, cfg)
                                      : perfbench::runClosedLoop(*w, cfg);
    printJson(rep);
    return 0;
}
