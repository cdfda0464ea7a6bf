/**
 * @file
 * Shared declarations of the DistMSM benchmark.
 *
 * The benchmark calls the library only through its public headers. The
 * closed-loop run (closed_loop.cc) times whole operations for the
 * end-to-end metrics; the traced run (traced_run.cc) replays one
 * operation through the layers' entry points for the per-layer
 * metrics. workloads.cc holds what both share: the four workload
 * definitions and their seeded, self-checking inputs.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/ec/point.h"
#include "src/gpusim/cluster.h"
#include "src/msm/engine.h"
#include "src/msm/planner.h"
#include "src/support/prng.h"
#include "src/zksnark/groth16.h"

namespace perfbench {

using Curve = distmsm::Bn254;
using Fr = Curve::Fr;
using Scalar = distmsm::BigInt<Fr::kLimbs>;
using Affine = distmsm::AffinePoint<Curve>;
using Xyzz = distmsm::XYZZPoint<Curve>;
using Engine = distmsm::msm::MsmEngine<Curve>;
using MsmOut = distmsm::msm::MsmResult<Curve>;

/** Command line of one benchmark process. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (empty: not written). */
    std::string spansPath;
    /** MsmOptions::hostThreads of every timed call (nproc). */
    int hostThreads = 1;
};

/** One named metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run prints: the checks' verdict and its metrics. */
struct Report
{
    std::uint64_t attempted = 0;
    /** Operations that returned a non-OK Status or a wrong result. */
    std::uint64_t failed = 0;
    /** Any other broken check (determinism, replay identity). */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record a broken check; printed as it happens. */
    void problem(const std::string &what);

    /** Count one checked operation. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            problem(what);
        }
    }
};

enum class Kind { Msm, Groth16 };

/** One benchmark workload: its inputs and the options it runs. */
struct Workload
{
    const char *name;
    Kind kind;
    /** log2 of the MSM bases (MSM workloads; the groth16 circuit
     *  fixes its own sizes). */
    unsigned logN;
    /** MsmOptions::windowBitsOverride (0: the planner chooses). */
    unsigned windowBits;
    bool signedDigits;
    bool hierarchicalScatter;
    /** Warm fixed-base tables, built in set-up. */
    bool precompute;
    /** Topology::dgx(4, 8) with collective Auto instead of 8 flat
     *  GPUs with gather. */
    bool dgx;
    /** FaultPlan spec injected on every call (null: none). */
    const char *faultSpec;
    /** Set-up repetitions timed for setup_s, after warmupSetups
     *  untimed ones. */
    int setupReps;
    int warmupSetups;
    /** Fewest timed operations, however short --seconds is. */
    int minOps;

    distmsm::gpusim::Cluster cluster() const;
    /** The options every engine of the workload runs with. */
    distmsm::msm::MsmOptions options(int host_threads) const;
};

/** The workload named @p name, or null. */
const Workload *findWorkload(const std::string &name);
/** Names of every workload, for the usage message. */
std::string workloadNames();

/** The cost-model profile the engine derives for Curve. */
distmsm::gpusim::CurveProfile curveProfile();

/**
 * MSM bases with known discrete logs: P_i = (start + i) G, the walk
 * generatePoints produces. Each MSM result then has an O(n) expected
 * value (sum_i k_i (start + i)) G.
 */
struct KnownBases
{
    std::vector<Affine> points;
    Fr start;
};

KnownBases makeBases(std::size_t n, distmsm::Prng &prng);
/** Field elements as the integer scalars an MSM takes. */
std::vector<Scalar> rawScalars(const std::vector<Fr> &values);
Xyzz expectedMsm(const KnownBases &bases,
                 const std::vector<Scalar> &scalars);

/**
 * The cost model's paper-scale number: @p options on @p cluster at
 * 2^24 points, with the window left to the planner.
 */
distmsm::msm::MsmTimeline
estimate2p24(const distmsm::gpusim::Cluster &cluster,
             const distmsm::msm::MsmOptions &options);

/**
 * The rollup circuit: 254-bit range checks (bit decomposition) over
 * the state of an x^5 S-box chain whose round constants come from a
 * fixed stream. The constraint system depends only on that stream;
 * @p input (public) and @p key (private) only change the witness,
 * so one proving key serves every fresh witness.
 */
struct RollupCircuit
{
    distmsm::zksnark::R1cs<Fr> r1cs;
    std::vector<Fr> wires;
    std::vector<Fr> publicInputs;
};

RollupCircuit buildRollup(const Fr &input, const Fr &key);

/** Exact comparisons of the simulator's returned statistics. */
bool sameStats(const MsmOut &a, const MsmOut &b);
bool sameFaults(const distmsm::gpusim::FaultReport &a,
                const distmsm::gpusim::FaultReport &b);
bool sameTimeline(const distmsm::msm::MsmTimeline &a,
                  const distmsm::msm::MsmTimeline &b);

/** Median of @p v (v non-empty). */
double median(std::vector<double> v);

Report runClosedLoop(const Workload &w, const RunConfig &cfg);
Report runTraced(const Workload &w, const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
