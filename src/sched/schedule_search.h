/**
 * @file
 * Exhaustive search for register-minimal execution orders.
 *
 * Section 4.2.1: instead of heuristic instruction scheduling, DistMSM
 * enumerates topological orders of the PADD/PACC operation DAGs and
 * picks one with the fewest concurrently live big integers. The search
 * here is an exact dynamic program over subsets of executed
 * operations; the paper's "scheduling unit" fusion (pairing each
 * subtraction with the multiply that feeds it) is implemented as well
 * and shown to preserve the optimum while shrinking the search space.
 */

#ifndef DISTMSM_SCHED_SCHEDULE_SEARCH_H
#define DISTMSM_SCHED_SCHEDULE_SEARCH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sched/dag.h"

namespace distmsm::sched {

/**
 * Deterministic argmin driver shared by the searchers in this repo:
 * the subset-DP kernel scheduler below and the MSM plan search
 * (msm/autoplan.*). Candidates are fed in a fixed enumeration order;
 * only a *strictly* better score displaces the incumbent, so ties
 * resolve to the first-seen candidate. Seeding the driver with the
 * heuristic baseline therefore guarantees both that the search never
 * loses to the heuristic and that it returns the heuristic's exact
 * answer whenever nothing beats it (bit-compatibility on ties).
 *
 * @tparam Candidate copyable candidate description.
 * @tparam Score totally ordered score (double ns, int registers, ...).
 */
template <typename Candidate, typename Score = double>
class SearchDriver
{
  public:
    /** Counters exported by the search's callers (trace metrics). */
    struct Stats
    {
        /** Candidates scored (seed included). */
        std::uint64_t evaluated = 0;
    };

    /** Install the baseline candidate; counts as one evaluation. */
    void
    seed(const Candidate &candidate, Score score)
    {
        best_ = candidate;
        best_score_ = score;
        seeded_ = true;
        ++stats_.evaluated;
    }

    /**
     * Offer a scored candidate. Returns true when it strictly beat
     * the incumbent (or no seed existed yet) and became the new best.
     */
    bool
    consider(const Candidate &candidate, Score score)
    {
        ++stats_.evaluated;
        if (seeded_ && !(score < best_score_))
            return false;
        best_ = candidate;
        best_score_ = score;
        seeded_ = true;
        return true;
    }

    const Candidate &best() const { return best_; }
    Score bestScore() const { return best_score_; }
    const Stats &stats() const { return stats_; }

  private:
    Candidate best_{};
    Score best_score_{};
    bool seeded_ = false;
    Stats stats_;
};

/** Result of a schedule search. */
struct ScheduleResult
{
    /** An optimal topological order (op indices). */
    std::vector<int> order;
    /** Peak number of concurrently live big integers. */
    int peak = 0;
    /** Distinct subset states visited by the dynamic program. */
    std::uint64_t statesExplored = 0;
};

/**
 * Find an execution order of @p dag minimizing the peak number of
 * concurrently live big integers. Exact (dynamic program over
 * executed-op subsets); supports DAGs of up to 31 operations.
 */
ScheduleResult findOptimalOrder(const OpDag &dag);

/** A scheduling unit: ops executed consecutively as a block. */
struct Unit
{
    std::vector<int> ops;
};

/**
 * Fuse operations into scheduling units following the paper's
 * observation: running a subtraction immediately after the multiply
 * that defines its newest operand retires that operand at once, so
 * the pair can be scheduled atomically without losing optimality.
 */
std::vector<Unit> fuseUnits(const OpDag &dag);

/**
 * Schedule search restricted to unit granularity. Returns a full op
 * order (units expanded).
 */
ScheduleResult findOptimalUnitOrder(const OpDag &dag,
                                    const std::vector<Unit> &units);

/**
 * Number of topological orders of @p dag (the paper bounds the PACC
 * search by 12! and notes the true count is far smaller).
 */
std::uint64_t countTopologicalOrders(const OpDag &dag);

} // namespace distmsm::sched

#endif // DISTMSM_SCHED_SCHEDULE_SEARCH_H
