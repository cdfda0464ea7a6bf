/**
 * @file
 * Batched-affine bucket accumulation.
 *
 * The legacy bucket sum pays one 10-mul XYZZ pacc per scattered
 * point (plus a 14-mul padd tree merging the cooperating threads'
 * partial chains). Production MSM libraries (gnark, sppark, cuZK)
 * instead sum each bucket with *affine* additions whose slope
 * denominators share one Montgomery batch inversion:
 *
 *   lambda = (y2 - y1) / (x2 - x1)
 *   x3 = lambda^2 - x1 - x2,  y3 = lambda * (x1 - x3) - y1
 *
 * i.e. 3 multiplications plus a share of the batch inversion
 * (3 muls per element amortized, epsilon inversions) — ~6 muls per
 * accumulated point against pacc's 10.
 *
 * Batches are built by *pairwise tree reduction*: every bucket's
 * pending points are paired up (all pairs are independent additions,
 * so one round can batch every pair of every bucket of the device
 * group into a single inversion) and each round halves every bucket
 * until one point remains. A bucket of c points still costs exactly
 * c - 1 additions, but the group needs only ceil(log2(max bucket))
 * inversions in total.
 *
 * The pending points live in a structure-of-arrays arena: x and y
 * coordinate vectors sized once per call from the range's id count,
 * with one flat segment per bucket. A round makes two sequential
 * walks over the active segments. The pairing walk writes one slope
 * denominator per pair. The completion walk re-derives the same
 * pairs, so no pair list is kept: pair t of a segment writes slot t,
 * and the odd leftover moves after that bucket's pairs. It completes
 * two pairs per step, so that their multiply chains overlap in the
 * CPU, and one pair at a spilled pair or at a segment's end.
 *
 * The x2 == x1 edge cases (doubling when y2 == y1, cancellation when
 * y2 == -y1) cannot use the shared slope; such a pair is routed out
 * of the batch into a per-bucket XYZZ spill point via the
 * identity-tolerant pacc, in pair order, exactly like the fallback
 * kernels real batched-affine implementations keep for these rare
 * collisions.
 *
 * Splitting a range changes no result: a bucket's rounds, pairs and
 * spills depend only on its own points, and an inverse is the same
 * whichever batch computes it. Only the inversion count depends on
 * the cut, so the call returns a mask with bit r set when round r ran
 * an inversion (a bucket of c points takes ceil(log2 c) rounds, at
 * most 32 with 32-bit ids). A launch split into chunks charges the
 * popcount of the OR of its chunks' masks; its other counters sum.
 *
 * Everything is sequential per call, and the engine merges the
 * chunks in fixed order, so results are bit-identical for every
 * host-thread count (the engine's determinism contract).
 */

#ifndef DISTMSM_MSM_BATCH_AFFINE_H
#define DISTMSM_MSM_BATCH_AFFINE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/ec/op_counters.h"
#include "src/ec/point.h"
#include "src/field/batch_inverse.h"
#include "src/gpusim/stats.h"

namespace distmsm::msm {

/** Reusable per-call scratch of batchAffineAccumulate. */
template <typename Curve>
struct BatchAffineScratch
{
    /** Coordinates of the pending affine points, in flat per-bucket
     *  segments; each round compacts every segment in place. */
    std::vector<typename Curve::Fq> xs;
    std::vector<typename Curve::Fq> ys;
    std::vector<std::size_t> segOff;
    std::vector<std::size_t> segLen;
    /** Buckets still holding more than one point. */
    std::vector<std::size_t> active;
    /** One slope denominator per batched pair, in walk order. */
    std::vector<typename Curve::Fq> denoms;
    std::vector<typename Curve::Fq> prefix;
    /** Per-bucket XYZZ spill for the equal-x edge cases. */
    std::vector<XYZZPoint<Curve>> spill;
};

/**
 * Accumulate the scattered points of buckets [@p lo, @p hi) into
 * @p sums (indexed by absolute bucket id) using batched-affine
 * additions. @p point_of maps a scattered id to the (possibly
 * negated or precomputed) affine point it contributes, exactly as in
 * bucketSumTree. EC work is charged to @p stats (affineAddOps /
 * batchInvOps / paccOps for the spilled edge cases) and to
 * ec::opCounters() in field-op units. Returns the rounds that ran an
 * inversion (bit r: round r), whose popcount is the batchInvOps
 * charged here.
 */
template <typename Curve, typename PointOf>
std::uint64_t
batchAffineAccumulate(
    const std::vector<std::vector<std::uint32_t>> &buckets,
    std::size_t lo, std::size_t hi, PointOf &&point_of,
    std::vector<XYZZPoint<Curve>> &sums,
    gpusim::KernelStats &stats, BatchAffineScratch<Curve> &scratch)
{
    using Fq = typename Curve::Fq;
    using Affine = AffinePoint<Curve>;
    using Xyzz = XYZZPoint<Curve>;
    hi = std::min(hi, buckets.size());
    if (lo >= hi)
        return 0;
    const std::size_t width = hi - lo;
    auto &xs = scratch.xs;
    auto &ys = scratch.ys;
    auto &seg_off = scratch.segOff;
    auto &seg_len = scratch.segLen;
    auto &active = scratch.active;
    auto &spill = scratch.spill;

    // Materialize every bucket's points once (point_of builds a
    // fresh, possibly negated copy) into contiguous segments;
    // identity contributions drop here.
    std::size_t ids = 0;
    for (std::size_t b = lo; b < hi; ++b)
        ids += buckets[b].size();
    xs.resize(ids);
    ys.resize(ids);
    seg_off.resize(width);
    seg_len.resize(width);
    active.clear();
    spill.assign(width, Xyzz::identity());
    std::size_t end = 0;
    for (std::size_t i = 0; i < width; ++i) {
        seg_off[i] = end;
        for (const std::uint32_t id : buckets[lo + i]) {
            const Affine p = point_of(id);
            if (!p.infinity) {
                xs[end] = p.x;
                ys[end] = p.y;
                ++end;
            }
        }
        seg_len[i] = end - seg_off[i];
        if (seg_len[i] > 1)
            active.push_back(i);
    }

    // The pair at j, j + 1 adds into slot out; the inputs of every
    // pair of a step are read before any of its outputs is written.
    const auto complete_one = [&](std::size_t j, const Fq &inv,
                                  std::size_t out) {
        const Fq lambda = (ys[j + 1] - ys[j]) * inv;
        const Fq x3 = lambda.sqr() - xs[j] - xs[j + 1];
        ys[out] = lambda * (xs[j] - x3) - ys[j];
        xs[out] = x3;
    };
    // Two independent pairs, at j and j + 2, into out and out + 1,
    // their multiply chains interleaved.
    const auto complete_two = [&](std::size_t j, const Fq *inv,
                                  std::size_t out) {
        const Fq l0 = (ys[j + 1] - ys[j]) * inv[0];
        const Fq l1 = (ys[j + 3] - ys[j + 2]) * inv[1];
        const Fq x0 = l0.sqr() - xs[j] - xs[j + 1];
        const Fq x1 = l1.sqr() - xs[j + 2] - xs[j + 3];
        const Fq y0 = l0 * (xs[j] - x0) - ys[j];
        const Fq y1 = l1 * (xs[j + 2] - x1) - ys[j + 2];
        xs[out] = x0;
        ys[out] = y0;
        xs[out + 1] = x1;
        ys[out + 1] = y1;
    };

    std::uint64_t inv_rounds = 0;
    for (unsigned round = 0; !active.empty(); ++round) {
        // Pair up each active bucket; all pairs are independent, so
        // the whole round shares one inversion. Equal-x pairs have no
        // slope and are spilled by the completion walk.
        scratch.denoms.clear();
        for (const std::size_t i : active) {
            const std::size_t seg_end = seg_off[i] + seg_len[i];
            for (std::size_t j = seg_off[i]; j + 1 < seg_end; j += 2)
                if (!(xs[j] == xs[j + 1]))
                    scratch.denoms.push_back(xs[j + 1] - xs[j]);
        }
        const std::size_t pairs = scratch.denoms.size();
        if (pairs > 0) {
            batchInverse(scratch.denoms, scratch.prefix);
            ++stats.batchInvOps;
            inv_rounds |= std::uint64_t{1} << round;
        }

        // Complete every pair in pairing order. A segment's outputs
        // never pass its unread inputs, so compaction is in place.
        const Fq *inv = scratch.denoms.data();
        std::size_t n_active = 0;
        for (const std::size_t i : active) {
            const std::size_t off = seg_off[i];
            const std::size_t seg_end = off + seg_len[i];
            std::size_t out = off;
            std::size_t j = off;
            while (j + 1 < seg_end) {
                if (xs[j] == xs[j + 1]) {
                    // Doubling or cancellation: no shared slope.
                    // Route the pair through the tolerant pacc.
                    spill[i] = pacc(spill[i], Affine::fromXY(xs[j], ys[j]));
                    spill[i] = pacc(spill[i],
                                    Affine::fromXY(xs[j + 1], ys[j + 1]));
                    stats.paccOps += 2;
                    j += 2;
                } else if (j + 3 < seg_end && !(xs[j + 2] == xs[j + 3])) {
                    complete_two(j, inv, out);
                    inv += 2;
                    out += 2;
                    j += 4;
                } else {
                    complete_one(j, *inv, out);
                    ++inv;
                    ++out;
                    j += 2;
                }
            }
            if (j < seg_end) {
                // The odd leftover, after its bucket's pairs.
                xs[out] = xs[j];
                ys[out] = ys[j];
                ++out;
            }
            seg_len[i] = out - off;
            if (seg_len[i] > 1)
                active[n_active++] = i;
        }
        active.resize(n_active);

        if (pairs > 0) {
            auto &ops = ec::opCounters();
            ++ops.inv;
            ops.mul += 3 * (pairs - 1) + 3 * pairs;
            ops.sqr += pairs; // lambda^2
            ops.add += 6 * pairs;
            stats.affineAddOps += pairs;
        }
    }

    // Fold spill and the surviving point into the output slot.
    for (std::size_t i = 0; i < width; ++i) {
        const Affine root =
            seg_len[i] > 0 ? Affine::fromXY(xs[seg_off[i]], ys[seg_off[i]])
                           : Affine::identity();
        if (spill[i].isIdentity()) {
            sums[lo + i] = Xyzz::fromAffine(root);
        } else if (root.infinity) {
            sums[lo + i] = spill[i];
        } else {
            sums[lo + i] = pacc(spill[i], root);
            ++stats.paccOps;
        }
    }
    return inv_rounds;
}

} // namespace distmsm::msm

#endif // DISTMSM_MSM_BATCH_AFFINE_H
