/**
 * @file
 * The closed-loop run behind the end-to-end metrics.
 *
 * One caller makes each call back to back on fresh inputs
 * until --seconds have passed (and at least Workload::minOps ran).
 * Only the library call itself is timed; input generation and the
 * result checks run between calls. Every result is checked: an MSM
 * against its known-discrete-log expectation, a proof with
 * zksnark::verify.
 */

#include <sys/resource.h>

#include <cstdio>
#include <memory>

#include "bench.h"
#include "src/msm/checksum.h"
#include "src/msm/pipeline.h"
#include "src/msm/precompute.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/timer.h"

namespace perfbench {

namespace dm = distmsm;

namespace {

/**
 * Peak resident memory so far. The closed loop samples it after its
 * first Workload::minOps operations: freed transient buffers stay in
 * the allocator's arenas, so the peak creeps up with every further
 * operation, and a time-bounded loop would make it depend on speed.
 */
double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

void
printTimes(const char *label, const std::vector<double> &times)
{
    std::printf("# %s:", label);
    for (const double t : times)
        std::printf(" %.4g", t);
    std::printf("\n");
}

/** The simulated counters of one call, for run-to-run diffs. */
void
printSim(const char *label, const MsmOut &r)
{
    const auto &s = r.stats;
    const auto &f = r.fault;
    std::printf("# sim %s: phases=%llu global_atomics=%llu "
                "conflict_weight=%llu gmem_bytes=%llu padd=%llu "
                "pacc=%llu pdbl=%llu affine_add=%llu batch_inv=%llu "
                "host_ops=%llu transfers=%llu retries=%llu "
                "reshards=%llu respawns=%llu checksummed=%llu\n",
                label, (unsigned long long)s.phases,
                (unsigned long long)s.globalAtomics,
                (unsigned long long)s.globalConflictWeight,
                (unsigned long long)s.gmemBytes,
                (unsigned long long)s.paddOps,
                (unsigned long long)s.paccOps,
                (unsigned long long)s.pdblOps,
                (unsigned long long)s.affineAddOps,
                (unsigned long long)s.batchInvOps,
                (unsigned long long)r.hostOps,
                (unsigned long long)f.transfers,
                (unsigned long long)f.retries,
                (unsigned long long)f.windowsResharded,
                (unsigned long long)f.stragglerRespawns,
                (unsigned long long)f.checksummed);
}

void
printTimeline(const char *label, const dm::msm::MsmTimeline &t)
{
    std::printf("# model %s: total=%.17g scatter=%.17g "
                "bucket_sum=%.17g bucket_reduce=%.17g "
                "window_reduce=%.17g transfer=%.17g verify=%.17g "
                "table_build=%.17g straggler=%.17g backoff=%.17g "
                "(simulated ns)\n",
                label, t.totalNs(), t.scatterNs, t.bucketSumNs,
                t.bucketReduceNs, t.windowReduceNs, t.transferNs,
                t.verifyNs, t.tableBuildNs, t.stragglerNs, t.backoffNs);
}

/**
 * The full metric set: the latency under its per-kind name (msm_s
 * or prove_s), the two model numbers and the failure share. The
 * gated subset goes on the final JSON line.
 */
void
printSummary(const char *latency_name, double latency_s,
             double model_ms, double model_2p24_ms, const Report &rep)
{
    std::printf("# metrics: %s=%.6g s  model_msm_ms=%.17g sim_ms  "
                "model_2p24_ms=%.17g sim_ms  fail_ratio=%.6g "
                "failed/attempted\n",
                latency_name, latency_s, model_ms, model_2p24_ms,
                rep.attempted == 0
                    ? 0.0
                    : static_cast<double>(rep.failed) /
                          static_cast<double>(rep.attempted));
}

Report
runMsm(const Workload &w, const RunConfig &cfg)
{
    Report rep;
    dm::Prng prng(cfg.seed);
    const std::size_t n = std::size_t{1} << w.logN;
    const KnownBases bases = makeBases(n, prng);
    const dm::gpusim::Cluster cluster = w.cluster();
    const dm::msm::MsmOptions options = w.options(cfg.hostThreads);

    // Set-up: engine construction (plan, GLV images, precompute
    // tables) from a cold table cache.
    std::unique_ptr<Engine> engine;
    std::vector<double> setup;
    for (int i = 0; i < w.warmupSetups + w.setupReps; ++i) {
        engine.reset();
        dm::msm::BaseTableCache<Curve>::global().clear();
        dm::Timer timer;
        engine = std::make_unique<Engine>(bases.points, cluster,
                                          options);
        const double s = timer.seconds();
        if (i >= w.warmupSetups)
            setup.push_back(s);
    }
    const dm::msm::MsmPlan &plan = engine->plan();
    std::printf("# plan: window_bits=%u windows=%u buckets=%llu "
                "glv=%d signed=%d precompute=%d collective=%s\n",
                plan.windowBits, plan.numWindows,
                (unsigned long long)plan.numBuckets, plan.glv ? 1 : 0,
                plan.signedDigits ? 1 : 0, plan.precompute ? 1 : 0,
                dm::gpusim::collectiveAlgoName(plan.collective));
    if (options.precompute && !plan.precompute)
        rep.problem("the planner declined the precompute tables");

    // Warm-up on input 0, kept for the repeat check below.
    const std::vector<Scalar> k0 =
        dm::msm::generateScalars<Curve>(n, prng);
    const Xyzz want0 = expectedMsm(bases, k0);
    const auto first = engine->tryCompute(k0);
    if (!first.isOk() || !(first->value == want0))
        rep.problem("warm-up MSM failed or is wrong");

    std::vector<double> times;
    double peak_mib = 0.0;
    const dm::Timer loop;
    while (loop.seconds() < cfg.seconds ||
           static_cast<int>(times.size()) < w.minOps) {
        const std::vector<Scalar> k =
            dm::msm::generateScalars<Curve>(n, prng);
        const Xyzz want = expectedMsm(bases, k);
        dm::Timer timer;
        const auto r = engine->tryCompute(k);
        times.push_back(timer.seconds());
        if (static_cast<int>(times.size()) == w.minOps)
            peak_mib = peakRssMib();
        if (!r.isOk()) {
            rep.check(false, "MSM returned " + r.status().toString());
            continue;
        }
        rep.check(r->value == want, "MSM result is wrong");
        // The fault plan and its coins do not depend on the scalars,
        // so every call injects and recovers identically.
        if (first.isOk() && !sameFaults(r->fault, first->fault))
            rep.problem("fault counters differ between calls");
    }

    // Simulated statistics repeat exactly on a repeated input.
    const auto again = engine->tryCompute(k0);
    if (!first.isOk() || !again.isOk() || !sameStats(*first, *again) ||
        !dm::msm::bitEqual<Curve>(first->value, again->value))
        rep.problem("simulated statistics differ on a repeated input");
    if (first.isOk())
        printSim("input0", *first);

    // One independent cross-check of the expectation itself.
    const Xyzz serial =
        dm::msm::msmSerialPippenger<Curve>(bases.points, k0, 12);
    if (!(serial == want0))
        rep.problem("serial Pippenger disagrees with the expectation");

    const auto profile = curveProfile();
    const auto timeline = dm::msm::estimateDistMsmWithPlan(
        profile, n, cluster, options, plan);
    if (!sameTimeline(timeline, dm::msm::estimateDistMsmWithPlan(
                                    profile, n, cluster, options, plan)))
        rep.problem("cost-model timeline is not deterministic");
    const auto timeline_2p24 = estimate2p24(cluster, options);
    printTimeline("msm", timeline);
    printTimeline("2p24", timeline_2p24);

    const double op_s = median(times);
    printTimes("set-up times (s)", setup);
    printTimes("msm times (s)", times);
    printSummary("msm_s", op_s, timeline.totalMs(),
                 timeline_2p24.totalMs(), rep);
    rep.add("op_s", op_s, "s");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peak_mib, "MiB");
    return rep;
}

Report
runGroth16(const Workload &w, const RunConfig &cfg)
{
    namespace zk = dm::zksnark;
    Report rep;
    dm::Prng prng(cfg.seed);
    const dm::gpusim::Cluster cluster = w.cluster();
    const dm::msm::MsmOptions options = w.options(cfg.hostThreads);

    // Inputs: the circuit and its trusted-setup keys (not set-up).
    const RollupCircuit c0 =
        buildRollup(Fr::random(prng), Fr::random(prng));
    const auto keys = zk::setup<Curve>(
        c0.r1cs, zk::Trapdoor<Fr>::random(prng));
    std::printf("# circuit: constraints=%zu wires=%zu domain=%zu\n",
                c0.r1cs.numConstraints(), c0.wires.size(),
                zk::qapDomainSize(c0.r1cs));

    // Set-up: the prover's four staged engines.
    std::unique_ptr<zk::ProverEngines<Curve>> engines;
    std::vector<double> setup;
    for (int i = 0; i < w.warmupSetups + w.setupReps; ++i) {
        engines.reset();
        dm::Timer timer;
        engines = std::make_unique<zk::ProverEngines<Curve>>(
            keys.pk, cluster, options);
        const double s = timer.seconds();
        if (i >= w.warmupSetups)
            setup.push_back(s);
    }
    const auto &pa = engines->a->plan();
    std::printf("# plan (A): window_bits=%u windows=%u buckets=%llu\n",
                pa.windowBits, pa.numWindows,
                (unsigned long long)pa.numBuckets);

    dm::Prng blinding(cfg.seed ^ 0xB1D0B1D0ull);
    const auto warm = zk::tryProve(keys.pk, c0.r1cs, c0.wires,
                                   blinding, nullptr, nullptr,
                                   engines.get());
    if (!warm.isOk() || !zk::verify(keys.vk, *warm, c0.publicInputs))
        rep.problem("warm-up proof failed or does not verify");

    std::vector<double> times, msm_times;
    double peak_mib = 0.0;
    const dm::Timer loop;
    while (loop.seconds() < cfg.seconds ||
           static_cast<int>(times.size()) < w.minOps) {
        const RollupCircuit c =
            buildRollup(Fr::random(prng), Fr::random(prng));
        DISTMSM_REQUIRE(c.r1cs.numConstraints() ==
                            c0.r1cs.numConstraints(),
                        "fresh witness changed the circuit");
        zk::ProverTiming timing;
        dm::Timer timer;
        const auto proof = zk::tryProve(keys.pk, c0.r1cs, c.wires,
                                        blinding, &timing, nullptr,
                                        engines.get());
        times.push_back(timer.seconds());
        if (static_cast<int>(times.size()) == w.minOps)
            peak_mib = peakRssMib();
        if (!proof.isOk()) {
            rep.check(false, "prove returned " +
                                 proof.status().toString());
            continue;
        }
        msm_times.push_back(timing.msmSeconds);
        rep.check(zk::verify(keys.vk, *proof, c.publicInputs),
                  "proof does not verify");
    }

    // Repeat check and serial cross-check on the A-query MSM.
    const std::vector<Scalar> wires0 = rawScalars(c0.wires);
    const auto first = engines->a->tryCompute(wires0);
    const auto again = engines->a->tryCompute(wires0);
    if (!first.isOk() || !again.isOk() || !sameStats(*first, *again) ||
        !dm::msm::bitEqual<Curve>(first->value, again->value))
        rep.problem("simulated statistics differ on a repeated input");
    if (first.isOk()) {
        printSim("A-query", *first);
        const Xyzz serial = dm::msm::msmSerialPippenger<Curve>(
            keys.pk.aPoints, wires0, 8);
        if (!(serial == first->value))
            rep.problem("serial Pippenger disagrees with the engine");
    }

    const auto profile = curveProfile();
    const std::vector<std::uint64_t> sizes = {
        keys.pk.aPoints.size(), keys.pk.bPoints.size(),
        keys.pk.lPoints.size(), keys.pk.hPoints.size()};
    const auto pipeline = dm::msm::estimateProvingPipeline(
        profile, sizes, cluster, options);
    if (pipeline.pipelinedNs !=
        dm::msm::estimateProvingPipeline(profile, sizes, cluster, options)
            .pipelinedNs)
        rep.problem("cost-model pipeline is not deterministic");
    const auto timeline_2p24 = estimate2p24(cluster, options);
    std::printf("# model pipeline: pipelined=%.17g serial=%.17g "
                "(simulated ns)\n",
                pipeline.pipelinedNs, pipeline.serialNs);
    printTimeline("2p24", timeline_2p24);

    const double op_s = median(times);
    printTimes("set-up times (s)", setup);
    printTimes("prove times (s)", times);
    printTimes("msm stage times (s)", msm_times);
    printSummary("prove_s", op_s, pipeline.pipelinedNs / 1e6,
                 timeline_2p24.totalMs(), rep);
    rep.add("op_s", op_s, "s");
    rep.add("setup_s", median(setup), "s");
    rep.add("peak_rss_mb", peak_mib, "MiB");
    return rep;
}

} // namespace

Report
runClosedLoop(const Workload &w, const RunConfig &cfg)
{
    return w.kind == Kind::Groth16 ? runGroth16(w, cfg)
                                   : runMsm(w, cfg);
}

} // namespace perfbench
