#include "src/msm/autoplan.h"

#include <vector>

#include "src/sched/schedule_search.h"
#include "src/support/trace.h"

namespace distmsm::msm {
namespace {

using gpusim::CollectivePolicy;
using gpusim::CurveProfile;
using gpusim::FieldBackend;

/** Window-bits dimension: the caller's pin, or the model's pick (0)
 *  bracketed two bits each way within the planner's [4, 24] range. */
std::vector<unsigned>
windowCandidates(const MsmOptions &base, unsigned heuristic_bits)
{
    if (base.windowBitsOverride != 0)
        return {base.windowBitsOverride};
    std::vector<unsigned> out{0};
    for (int d = -2; d <= 2; ++d) {
        const int s = static_cast<int>(heuristic_bits) + d;
        if (s >= 4 && s <= 24)
            out.push_back(static_cast<unsigned>(s));
    }
    return out;
}

/** The knob value lists one search enumerates (fixed order; a
 *  pinned option collapses its dimension to a singleton). */
struct SearchDims
{
    std::vector<unsigned> windows;
    std::vector<bool> toggles{false, true};
    std::vector<bool> glvs;
    std::vector<bool> cpuReduce;
    std::vector<FieldBackend> backends;
    std::vector<CollectivePolicy> collectives;
    std::vector<int> tpbs;
};

SearchDims
buildDims(const CurveProfile &curve, const MsmOptions &base,
          const MsmPlan &seed_plan)
{
    SearchDims d;
    d.windows = windowCandidates(base, seed_plan.windowBits);
    d.glvs = curve.glvScalarBits == 0 ? std::vector<bool>{false}
                                      : std::vector<bool>{false, true};
    d.tpbs = {base.threadsPerBucket};
    if (2 * seed_plan.threadsPerBucket != base.threadsPerBucket)
        d.tpbs.push_back(2 * seed_plan.threadsPerBucket);
    if (base.fieldBackend != FieldBackend::Auto) {
        d.backends = {base.fieldBackend};
    } else if (!base.kernel.tensorCoreMont) {
        // Auto must not resurrect an explicitly stripped variant.
        d.backends = {FieldBackend::CudaCore};
    } else {
        d.backends = {FieldBackend::CudaCore,
                      FieldBackend::TensorCore};
    }
    if (base.collective == CollectivePolicy::Ring ||
        base.collective == CollectivePolicy::Tree ||
        base.collective == CollectivePolicy::ReduceScatter) {
        d.collectives = {base.collective};
    } else {
        // Gather (the legacy default) and Auto both mean "merge
        // strategy not pinned": search the four concrete
        // strategies against the full timeline, which sees overlap
        // effects the link tuner's local argmin cannot.
        d.collectives = {CollectivePolicy::Gather,
                         CollectivePolicy::Ring,
                         CollectivePolicy::Tree,
                         CollectivePolicy::ReduceScatter};
    }
    d.cpuReduce = base.cpuBucketReduce ? std::vector<bool>{false, true}
                                       : std::vector<bool>{false};
    return d;
}

} // namespace

AutoPlanResult
autoplanMsm(const CurveProfile &curve, std::uint64_t n,
            const gpusim::Cluster &cluster, const MsmOptions &base)
{
    const std::uint64_t evals_before =
        gpusim::CostModel::evaluations();
    // A candidate is the caller's options with the searched knobs
    // set. The probe is planned through the heuristic rules (never
    // back into the search) and priced silently: thousands of probes
    // must not spam the caller's timeline.
    MsmOptions probe = base;
    probe.planner = PlannerMode::Heuristic;
    probe.trace = nullptr;
    MsmPlan plan;
    const auto score = [&] {
        plan = planMsmHeuristic(curve, n, cluster, probe);
        return estimateDistMsmWithPlan(curve, n, cluster, probe, plan)
            .totalNs();
    };
    // The caller's own knobs are the seed: the heuristic plan.
    sched::SearchDriver<MsmPlan, double> driver;
    const double seed_ns = score();
    driver.seed(plan, seed_ns);

    const SearchDims dims = buildDims(curve, base, plan);
    for (const unsigned w : dims.windows)
        for (const bool sd : dims.toggles)
            for (const bool glv : dims.glvs)
                for (const bool ba : dims.toggles)
                    for (const bool pre : dims.toggles)
                        for (const bool cpu : dims.cpuReduce)
                            for (const FieldBackend fb : dims.backends)
                                for (const CollectivePolicy cp :
                                     dims.collectives)
                                    for (const int tpb : dims.tpbs) {
                                        probe.windowBitsOverride = w;
                                        probe.signedDigits = sd;
                                        probe.glv = glv;
                                        probe.batchAffine = ba;
                                        probe.precompute = pre;
                                        probe.cpuBucketReduce = cpu;
                                        probe.fieldBackend = fb;
                                        probe.collective = cp;
                                        probe.threadsPerBucket = tpb;
                                        const double ns = score();
                                        driver.consider(plan, ns);
                                    }

    AutoPlanResult r;
    r.plan = driver.best();
    // The caller asked Auto (or pinned a backend); whether *this*
    // search or the heuristic's local rule resolved it, the plan's
    // provenance bit reports the caller's contract.
    r.plan.fieldBackendAuto = base.fieldBackend == FieldBackend::Auto;
    r.searchedNs = driver.bestScore();
    r.heuristicNs = seed_ns;
    r.evaluated = driver.stats().evaluated;
    r.costModelEvals = gpusim::CostModel::evaluations() - evals_before;
    if (base.trace != nullptr) {
        auto &m = base.trace->metrics();
        m.set("autoplan/evaluated", static_cast<double>(r.evaluated));
        m.set("autoplan/cost_model_evals",
              static_cast<double>(r.costModelEvals));
        m.set("autoplan/searched_ns", r.searchedNs);
        m.set("autoplan/heuristic_ns", r.heuristicNs);
    }
    return r;
}

} // namespace distmsm::msm
