/**
 * @file
 * Cost-model-scored MSM plan search (the autoscheduler).
 *
 * The hand-tuned planner (msm/planner.cc) fixes each knob with a
 * local rule: the window size from the per-thread workload model, the
 * backend from one kernel comparison, the collective from the link
 * tuner, everything else from the caller's flags. This module instead
 * searches the joint space — window bits, signed digits, GLV,
 * batch-affine, precompute, CPU-vs-GPU reduce placement, field
 * backend, collective strategy (gather/ring/tree/reduce-scatter),
 * and threads per bucket — exhaustively, and scores every candidate
 * end to end with the calibrated analytic timeline
 * (estimateDistMsmWithPlan's totalNs), in the spirit of Halide's
 * autoschedulers.
 *
 * Guarantees:
 *  - The heuristic plan is the search's seed: candidates displace it
 *    only on a *strictly* smaller totalNs (sched::SearchDriver), so
 *    the searched plan never scores worse than the heuristic one and
 *    ties return the heuristic's exact plan (bit-compatibility).
 *  - Candidates are realized through planMsmHeuristic, so every
 *    searched plan stays inside the space the functional engine can
 *    execute, and scoring probes pin PlannerMode::Heuristic — the
 *    search cannot recurse into itself.
 *  - The returned plan alone is what runs: it records every searched
 *    decision, so the engine executes it and
 *    estimateDistMsmWithPlan(caller's options, plan) reprices it to
 *    exactly searchedNs.
 *  - The search is deterministic: a fixed enumeration order and
 *    first-seen tie-breaks make repeated calls agree bit-exactly.
 *
 * Plans are searched on every call, never cached: a full search
 * costs a few milliseconds, and its answer depends on every option
 * the timeline prices (faults and the watchdog included), which no
 * hand-kept cache key tracks reliably.
 */

#ifndef DISTMSM_MSM_AUTOPLAN_H
#define DISTMSM_MSM_AUTOPLAN_H

#include <cstdint>

#include "src/gpusim/cluster.h"
#include "src/gpusim/cost_model.h"
#include "src/msm/planner.h"

namespace distmsm::msm {

/** Outcome of one plan search. */
struct AutoPlanResult
{
    /** The argmin plan (the heuristic plan when nothing beat it). */
    MsmPlan plan;
    /** Analytic totalNs of the searched / heuristic plans. */
    double searchedNs = 0.0;
    double heuristicNs = 0.0;
    /** Candidates scored, seed included. */
    std::uint64_t evaluated = 0;
    /** CostModel::evaluations() delta across the search. */
    std::uint64_t costModelEvals = 0;
};

/**
 * Search the plan space for @p n points of @p curve on @p cluster,
 * exactly as given: planMsm has already removed quarantined devices.
 * @p base supplies the starting knobs and constraints: forced
 * choices (windowBitsOverride, a non-Auto fieldBackend, a forced
 * ring/tree collective) pin the corresponding dimension rather than
 * being second-guessed. Every call runs the search, whatever
 * base.planner says.
 *
 * Metrics (when base.trace is attached):
 * autoplan/{evaluated,cost_model_evals,searched_ns,heuristic_ns}
 * describe the last search.
 */
AutoPlanResult autoplanMsm(const gpusim::CurveProfile &curve,
                           std::uint64_t n,
                           const gpusim::Cluster &cluster,
                           const MsmOptions &base);

} // namespace distmsm::msm

#endif // DISTMSM_MSM_AUTOPLAN_H
