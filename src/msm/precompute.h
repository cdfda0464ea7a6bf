/**
 * @file
 * Fixed-base precomputation tables and the cross-proof base cache.
 *
 * In a proving service the MSM bases are fixed by the proving key
 * while the scalars change per proof (paper Section 2.2). The classic
 * fixed-base trick (Section 2.3.1, the sppark/PipeMSM-style layout)
 * precomputes the shifted copies
 *
 *   row j of the table:  [2^(j*s)] P_i   for every base P_i
 *
 * so the digit of *any* window lands in the *same* bucket array: the
 * per-window passes collapse into one combined bucket accumulation
 * and the serial inter-window double-and-add (Horner) reduction
 * disappears. Tables are stored affine (zero-skipping batch
 * inversions) because every accumulation path (pacc and the
 * batched-affine adds) consumes affine operands.
 *
 * Cost shape: the table multiplies base storage by W (bytes =
 * W * n_eff * 2 * fieldBytes, n_eff = n, or 2n with the GLV images).
 * The host build doubles only the n point chains, (W-1) * s
 * doublings each: phi commutes with doubling and affine coordinates
 * are canonical, so the phi half of every row is (beta * x, y) of the
 * point half, one field multiplication per point. Each row is
 * batch-normalized with one inversion per chunk of bases. The cost
 * model (precomputeBuildPdbls, PrecomputeTable::buildPdbls and
 * MsmTimeline::tableBuildNs) still prices n_eff chains, so with GLV
 * the simulated build does twice the host's doublings. Both are
 * scalar-independent, so BaseTableCache amortizes them across proofs:
 * tables are keyed by a fingerprint of the base points plus the table
 * geometry, and repeated Groth16 proofs against the same proving key
 * reuse the tables across MsmEngine instances. The planner
 * (planner.cc) owns the memory-budget decision — shrink the window
 * count (grow c) or decline precompute when the device's
 * global-memory model cannot hold the table.
 */

#ifndef DISTMSM_MSM_PRECOMPUTE_H
#define DISTMSM_MSM_PRECOMPUTE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/ec/point.h"
#include "src/msm/glv.h"
#include "src/support/check.h"
#include "src/support/thread_pool.h"

namespace distmsm::msm {

namespace detail {

/**
 * Feed a field element's canonical limbs into a fingerprint mixer.
 * Base fields expose their Montgomery-form limbs directly (canonical
 * per value); extension fields (Fp2 of the G2 groups) recurse over
 * their coefficients.
 */
template <typename Mix, typename F>
void
mixFieldLimbs(Mix &&mix, const F &f)
{
    if constexpr (requires { f.montgomeryForm(); }) {
        for (const auto limb : f.montgomeryForm().limb)
            mix(limb);
    } else {
        mixFieldLimbs(mix, f.c0());
        mixFieldLimbs(mix, f.c1());
    }
}

} // namespace detail

/**
 * Table memory: W rows of n affine points, 2 field elements of
 * @p field_bytes each (the bytes an Fq element stores). The planner
 * holds this against the device's global-memory budget and the build
 * records it (DESIGN.md "Fixed-base precompute").
 */
inline std::uint64_t
precomputeTableBytes(std::uint64_t n_bases, unsigned num_windows,
                     unsigned field_bytes)
{
    return n_bases * num_windows * 2ull * field_bytes;
}

/** Doublings spent building a table (the amortized cost). */
inline std::uint64_t
precomputeBuildPdbls(std::uint64_t n_bases, unsigned num_windows,
                     unsigned window_bits)
{
    if (num_windows <= 1)
        return 0;
    return n_bases * (num_windows - 1) *
           static_cast<std::uint64_t>(window_bits);
}

/** One built table plus the facts needed to price and account it. */
template <typename Curve>
struct PrecomputeTable
{
    unsigned windowBits = 0;
    unsigned numWindows = 0;
    /** Bases included the GLV endomorphism images phi(P_i). */
    bool glv = false;
    std::uint64_t buildPdbls = 0;
    std::uint64_t bytes = 0;
    /** rows[j][i] = 2^(j * windowBits) * base_i, affine. */
    std::vector<std::vector<AffinePoint<Curve>>> rows;
};

/**
 * Deterministic FNV-1a fingerprint of a base-point vector: limbs of
 * both coordinates (Montgomery form — canonical per value) plus the
 * infinity flag, mixed per index. Order-sensitive by construction,
 * since MSM bases are positional.
 */
template <typename Curve>
std::uint64_t
fingerprintBases(const std::vector<AffinePoint<Curve>> &points)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(points.size());
    for (const auto &p : points) {
        mix(p.infinity ? 1 : 0);
        if (p.infinity)
            continue;
        detail::mixFieldLimbs(mix, p.x);
        detail::mixFieldLimbs(mix, p.y);
    }
    return h;
}

/** Cache key: base-set fingerprint + the table geometry. */
struct TableCacheKey
{
    std::uint64_t fingerprint = 0;
    std::uint64_t numBases = 0;
    unsigned windowBits = 0;
    unsigned numWindows = 0;
    bool glv = false;

    bool
    operator<(const TableCacheKey &o) const
    {
        if (fingerprint != o.fingerprint)
            return fingerprint < o.fingerprint;
        if (numBases != o.numBases)
            return numBases < o.numBases;
        if (windowBits != o.windowBits)
            return windowBits < o.windowBits;
        if (numWindows != o.numWindows)
            return numWindows < o.numWindows;
        return glv < o.glv;
    }
};

/**
 * Process-wide cache of precompute tables, shared by every MsmEngine
 * of a curve. Entries are immutable (shared_ptr<const>), so a hit is
 * safe to use while another thread builds a different key. A small
 * LRU capacity (kCapacity) bounds memory when many distinct base sets
 * stream through (randomized sweeps); a proving service touches a
 * handful of fixed keys and never evicts.
 */
template <typename Curve>
class BaseTableCache
{
  public:
    using TablePtr = std::shared_ptr<const PrecomputeTable<Curve>>;

    /** Tables retained before the least recently used is evicted. */
    static constexpr std::size_t kCapacity = 4;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    /** The per-curve process-wide instance. */
    static BaseTableCache &
    global()
    {
        static BaseTableCache cache;
        return cache;
    }

    /**
     * Return the table for @p key, building it via @p builder on a
     * miss. @p hit (optional) reports whether the table came from the
     * cache. The builder runs under the cache lock: concurrent
     * engines constructing the same key build once.
     */
    template <typename Builder>
    TablePtr
    findOrBuild(const TableCacheKey &key, Builder &&builder,
                bool *hit = nullptr)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++tick_;
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            it->second.lastUse = tick_;
            if (hit != nullptr)
                *hit = true;
            return it->second.table;
        }
        ++stats_.misses;
        if (hit != nullptr)
            *hit = false;
        TablePtr table = builder();
        DISTMSM_REQUIRE(table != nullptr,
                        "table builder returned null");
        while (entries_.size() >= kCapacity) {
            auto lru = entries_.begin();
            for (auto e = entries_.begin(); e != entries_.end(); ++e)
                if (e->second.lastUse < lru->second.lastUse)
                    lru = e;
            entries_.erase(lru);
            ++stats_.evictions;
        }
        entries_.emplace(key, Entry{table, tick_});
        return table;
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return stats_;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    /** Drop every entry (cold-cache benchmarks; stats kept). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.clear();
    }

  private:
    struct Entry
    {
        TablePtr table;
        std::uint64_t lastUse = 0;
    };

    mutable std::mutex mutex_;
    std::map<TableCacheKey, Entry> entries_;
    std::uint64_t tick_ = 0;
    Stats stats_;
};

/**
 * Bases per chunk of the table build: the unit of host parallelism
 * and of batch normalization (one inversion per chunk per row). Any
 * size gives the same table.
 */
inline constexpr std::size_t kTableChunkBases = 256;

/**
 * Build a PrecomputeTable for @p bases: the n MSM points, followed,
 * when the plan runs GLV, by their n images phi(P_i) (the engine's
 * layout), so rows[j][n + i] = phi(rows[j][i]).
 *
 * Only the n point chains are doubled; the phi half of each row is
 * derived from the point half. Once the rows are allocated, the build
 * is one parallelFor over chunks of kTableChunkBases points: each
 * chunk walks its chains through every row and normalizes its own
 * slice of the row. A chain touches only its own slots and an inverse
 * is unique, so the table is bit-identical at every @p host_threads,
 * a resolved width >= 1 (support::parallelFor). buildPdbls still
 * counts a chain per base, phi images included (the simulated build).
 */
template <typename Curve>
std::shared_ptr<const PrecomputeTable<Curve>>
buildPrecomputeTable(const std::vector<AffinePoint<Curve>> &bases,
                     unsigned num_windows, unsigned window_bits,
                     bool glv, int host_threads)
{
    using Affine = AffinePoint<Curve>;
    using Xyzz = XYZZPoint<Curve>;
    DISTMSM_REQUIRE(!glv || bases.size() % 2 == 0,
                    "GLV table bases must be points then phi images");
    const std::size_t n = glv ? bases.size() / 2 : bases.size();
    auto table = std::make_shared<PrecomputeTable<Curve>>();
    table->windowBits = window_bits;
    table->numWindows = num_windows;
    table->glv = glv;
    table->buildPdbls =
        precomputeBuildPdbls(bases.size(), num_windows, window_bits);
    table->bytes = precomputeTableBytes(bases.size(), num_windows,
                                        sizeof(typename Curve::Fq));
    auto &rows = table->rows;
    rows.resize(std::max(num_windows, 1u));
    rows[0] = bases;
    // Rows are allocated (and first touched) in parallel: serially
    // this took about 6% of a 2^16-base GLV build on 4 vCPUs.
    support::parallelFor(
        1, rows.size(),
        [&](std::size_t j) { rows[j].resize(bases.size()); },
        host_threads);

    std::atomic<bool> bad_phi{false};
    const std::size_t chunks =
        (n + kTableChunkBases - 1) / kTableChunkBases;
    support::parallelFor(
        0, chunks,
        [&](std::size_t c) {
            const std::size_t lo = c * kTableChunkBases;
            const std::size_t hi = std::min(n, lo + kTableChunkBases);
            std::vector<Xyzz> chains;
            chains.reserve(hi - lo);
            for (std::size_t i = lo; i < hi; ++i) {
                chains.push_back(Xyzz::fromAffine(bases[i]));
                if (glv && !(bases[n + i] ==
                             glv::endomorphismIfSupported<Curve>(
                                 bases[i])))
                    bad_phi.store(true, std::memory_order_relaxed);
            }
            AffineBatchScratch<typename Curve::Fq> scratch;
            for (unsigned j = 1; j < num_windows; ++j) {
                for (auto &p : chains)
                    for (unsigned b = 0; b < window_bits; ++b)
                        p = pdbl(p);
                Affine *row = rows[j].data();
                toAffineBatch<Curve>(chains, row + lo, scratch);
                if (glv)
                    for (std::size_t i = lo; i < hi; ++i)
                        row[n + i] =
                            glv::endomorphismIfSupported<Curve>(row[i]);
            }
        },
        host_threads);
    DISTMSM_REQUIRE(!bad_phi.load(),
                    "GLV table bases must be points then phi images");
    return table;
}

} // namespace distmsm::msm

#endif // DISTMSM_MSM_PRECOMPUTE_H
