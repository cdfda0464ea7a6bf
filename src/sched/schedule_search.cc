#include "src/sched/schedule_search.h"

#include <algorithm>
#include <unordered_map>

#include "src/support/check.h"

namespace distmsm::sched {
namespace {

/**
 * Precomputed, order-independent liveness machinery.
 *
 * For a subset `mask` of executed ops, a value is live at the boundary
 * iff it is defined (input, or its defining op is in `mask`) and still
 * needed (it is an output, or some op outside `mask` reads it). The
 * cost of running one more op depends only on `mask`, which makes the
 * subset dynamic program exact.
 */
class MaskModel
{
  public:
    explicit MaskModel(const OpDag &dag) : dag_(dag)
    {
        const auto &ops = dag.ops();
        n_ = static_cast<int>(ops.size());
        DISTMSM_REQUIRE(n_ <= 31, "DAG too large for subset search");
        use_mask_.assign(dag.numValues(), 0);
        for (int i = 0; i < n_; ++i) {
            for (ValueId s : ops[i].srcs)
                use_mask_[s] |= 1u << i;
            deps_mask_.push_back(0);
            for (int d : dag.depsOf(i))
                deps_mask_[i] |= 1u << d;
        }
        is_output_.assign(dag.numValues(), false);
        for (ValueId v : dag.outputs())
            is_output_[v] = true;
    }

    int numOps() const { return n_; }

    bool
    ready(std::uint32_t mask, int op) const
    {
        return (mask & (1u << op)) == 0 &&
               (deps_mask_[op] & ~mask) == 0;
    }

    /**
     * Live big integers at the boundary after executing `mask`.
     *
     * A defined value is live while a later op (or the live-out
     * contract) still needs it. An input is live only between its
     * first use inside `mask` (it is loaded from memory on demand)
     * and its last use.
     */
    int
    liveAt(std::uint32_t mask) const
    {
        int live = 0;
        for (std::size_t v = 0; v < use_mask_.size(); ++v) {
            const int def = dag_.definingOp(static_cast<ValueId>(v));
            const bool needed = is_output_[v] ||
                                (use_mask_[v] & ~mask) != 0;
            if (!needed)
                continue;
            if (def >= 0) {
                if ((mask & (1u << def)) != 0)
                    ++live;
            } else if (!dag_.isMemoryResident(
                           static_cast<ValueId>(v)) ||
                       (use_mask_[v] & mask) != 0) {
                // Register-resident input, or a memory-resident one
                // already loaded and still needed.
                ++live;
            }
        }
        return live;
    }

    /** Register demand while executing @p op from boundary @p mask. */
    int
    duringCost(std::uint32_t mask, int op) const
    {
        int live = liveAt(mask);
        const Operation &o = dag_.ops()[op];
        // Inputs making their first appearance are loaded now
        // (each distinct operand counted once).
        for (std::size_t k = 0; k < o.srcs.size(); ++k) {
            const ValueId s = o.srcs[k];
            bool repeat = false;
            for (std::size_t j = 0; j < k; ++j)
                repeat |= o.srcs[j] == s;
            if (!repeat && dag_.isMemoryResident(s) &&
                (use_mask_[s] & mask) == 0) {
                ++live;
            }
        }
        if (o.isMul())
            return live + 1;
        const std::uint32_t after = mask | (1u << op);
        for (ValueId s : o.srcs) {
            const bool dies = !is_output_[s] &&
                              (use_mask_[s] & ~after) == 0;
            if (dies)
                return live;
        }
        return live + 1;
    }

  private:
    const OpDag &dag_;
    int n_ = 0;
    std::vector<std::uint32_t> use_mask_;
    std::vector<std::uint32_t> deps_mask_;
    std::vector<bool> is_output_;
};

/** Subset DP minimizing the max op cost along the remaining suffix. */
class SubsetSearch
{
  public:
    SubsetSearch(const MaskModel &model,
                 const std::vector<Unit> &units)
        : model_(model), units_(units)
    {
    }

    int
    solve(std::uint32_t mask)
    {
        if (mask == full())
            return 0;
        auto it = memo_.find(mask);
        if (it != memo_.end())
            return it->second;
        // One argmin step of the DP, phrased through the shared
        // SearchDriver: units in enumeration order, strict
        // improvement only — first-seen wins ties, exactly the
        // deterministic contract the MSM plan search reuses.
        SearchDriver<std::size_t, int> driver;
        driver.seed(units_.size(), 1 << 20);
        for (std::size_t u = 0; u < units_.size(); ++u) {
            std::uint32_t next = mask;
            int cost = 0;
            if (!unitReady(mask, u, next, cost))
                continue;
            driver.consider(u, std::max(cost, solve(next)));
        }
        memo_.emplace(mask, driver.bestScore());
        return driver.bestScore();
    }

    /** Greedy reconstruction of one optimal order. */
    std::vector<int>
    reconstruct()
    {
        std::vector<int> order;
        std::uint32_t mask = 0;
        while (mask != full()) {
            const int target = solve(mask);
            bool advanced = false;
            for (std::size_t u = 0; u < units_.size() && !advanced;
                 ++u) {
                std::uint32_t next = mask;
                int cost = 0;
                if (!unitReady(mask, u, next, cost))
                    continue;
                if (std::max(cost, solve(next)) == target) {
                    for (int op : units_[u].ops)
                        order.push_back(op);
                    mask = next;
                    advanced = true;
                }
            }
            DISTMSM_ASSERT(advanced);
        }
        return order;
    }

    std::uint64_t states() const { return memo_.size(); }

  private:
    std::uint32_t
    full() const
    {
        return (model_.numOps() >= 32)
                   ? ~0u
                   : ((1u << model_.numOps()) - 1);
    }

    /**
     * Whether unit @p u can run from @p mask; if so set @p next to
     * the resulting mask and @p cost to the unit's peak during-cost.
     */
    bool
    unitReady(std::uint32_t mask, std::size_t u, std::uint32_t &next,
              int &cost) const
    {
        next = mask;
        cost = 0;
        for (int op : units_[u].ops) {
            if (!model_.ready(next, op))
                return false;
            cost = std::max(cost, model_.duringCost(next, op));
            next |= 1u << op;
        }
        return true;
    }

    const MaskModel &model_;
    const std::vector<Unit> &units_;
    std::unordered_map<std::uint32_t, int> memo_;
};

std::vector<Unit>
singletonUnits(int n)
{
    std::vector<Unit> units(n);
    for (int i = 0; i < n; ++i)
        units[i].ops = {i};
    return units;
}

ScheduleResult
search(const OpDag &dag, const std::vector<Unit> &units)
{
    MaskModel model(dag);
    SubsetSearch dp(model, units);
    ScheduleResult result;
    const int suffix_peak = dp.solve(0);
    result.order = dp.reconstruct();
    // The boundary live count at the start (the used inputs) also
    // bounds the peak.
    result.peak = std::max(suffix_peak, model.liveAt(0));
    result.statesExplored = dp.states();
    DISTMSM_ASSERT(dag.isValidOrder(result.order));
    DISTMSM_ASSERT(dag.peakLive(result.order) == result.peak);
    return result;
}

} // namespace

ScheduleResult
findOptimalOrder(const OpDag &dag)
{
    return search(dag, singletonUnits(static_cast<int>(dag.numOps())));
}

ScheduleResult
findOptimalUnitOrder(const OpDag &dag, const std::vector<Unit> &units)
{
    return search(dag, units);
}

std::vector<Unit>
fuseUnits(const OpDag &dag)
{
    const auto &ops = dag.ops();
    const int n = static_cast<int>(ops.size());

    // Transitive ancestor sets: anc[i] = ops that must precede op i.
    std::vector<std::uint32_t> anc(n, 0);
    for (int i = 0; i < n; ++i) {
        for (int d : dag.depsOf(i))
            anc[i] |= anc[d] | (1u << d);
    }

    // A subtraction s may be fused right after the multiply m that
    // defines its newest operand only when this adds no scheduling
    // constraint: every other dependency of s must already be an
    // ancestor of m (the paper's example is P = U2 - X1 after
    // U2 = X2 * ZZ1, whose other operand is a live-in). Fusing then
    // retires m's result immediately, which never hurts the optimum.
    std::vector<int> unit_of(n);
    std::vector<Unit> units;
    for (int i = 0; i < n; ++i) {
        const Operation &op = ops[i];
        if (op.kind != Operation::Kind::Mul) {
            int newest = -1;
            for (ValueId s : op.srcs)
                newest = std::max(newest, dag.definingOp(s));
            const bool constraint_free =
                newest >= 0 &&
                (anc[i] & ~(anc[newest] | (1u << newest))) == 0;
            if (constraint_free && ops[newest].isMul() &&
                units[unit_of[newest]].ops.size() == 1) {
                unit_of[i] = unit_of[newest];
                units[unit_of[i]].ops.push_back(i);
                continue;
            }
        }
        unit_of[i] = static_cast<int>(units.size());
        units.push_back(Unit{{i}});
    }
    return units;
}

std::uint64_t
countTopologicalOrders(const OpDag &dag)
{
    MaskModel model(dag);
    const int n = model.numOps();
    DISTMSM_REQUIRE(n <= 31, "DAG too large");
    std::unordered_map<std::uint32_t, std::uint64_t> memo;
    memo.reserve(1u << std::min(n, 22));
    const std::uint32_t full = (n == 31) ? 0x7FFFFFFFu
                                         : ((1u << n) - 1);

    // Iterative DFS-free evaluation: process masks in increasing
    // popcount via recursion with memoization.
    struct Counter
    {
        const MaskModel &model;
        std::uint32_t full;
        std::unordered_map<std::uint32_t, std::uint64_t> memo;

        std::uint64_t
        count(std::uint32_t mask)
        {
            if (mask == full)
                return 1;
            auto it = memo.find(mask);
            if (it != memo.end())
                return it->second;
            std::uint64_t total = 0;
            for (int op = 0; op < model.numOps(); ++op) {
                if (model.ready(mask, op))
                    total += count(mask | (1u << op));
            }
            memo.emplace(mask, total);
            return total;
        }
    } counter{model, full, {}};

    return counter.count(0);
}

} // namespace distmsm::sched
