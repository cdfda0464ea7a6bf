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
 * inversions in total, and both the gather and the completion walk
 * the bucket arena sequentially.
 *
 * The x2 == x1 edge cases (doubling when y2 == y1, cancellation when
 * y2 == -y1) cannot use the shared slope; such a pair is routed out
 * of the batch into a per-bucket XYZZ spill point via the
 * identity-tolerant pacc, exactly like the fallback kernels real
 * batched-affine implementations keep for these rare collisions.
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
    std::vector<typename Curve::Fq> denoms;
    std::vector<typename Curve::Fq> prefix;
    /** Flat per-bucket segments of pending affine points; each
     *  round compacts every segment in place. */
    std::vector<AffinePoint<Curve>> arena;
    std::vector<std::size_t> segOff;
    std::vector<std::size_t> segLen;
    /** Arena index of each batched pair's first input / its output. */
    std::vector<std::size_t> pairIn;
    std::vector<std::size_t> pairOut;
    /** Odd leftovers moved after the completion pass consumed their
     *  round's pair inputs (from/to arena indices). */
    std::vector<std::size_t> carryFrom;
    std::vector<std::size_t> carryTo;
    /** Buckets still holding more than one point. */
    std::vector<std::size_t> active;
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
    auto &ops = ec::opCounters();

    // Materialize every bucket's points once (point_of builds a
    // fresh, possibly negated copy) into contiguous segments;
    // identity contributions drop here.
    scratch.arena.clear();
    scratch.segOff.resize(width);
    scratch.segLen.resize(width);
    scratch.active.clear();
    scratch.spill.assign(width, Xyzz::identity());
    auto &spill = scratch.spill;
    for (std::size_t i = 0; i < width; ++i) {
        scratch.segOff[i] = scratch.arena.size();
        for (const std::uint32_t id : buckets[lo + i]) {
            const Affine p = point_of(id);
            if (!p.infinity)
                scratch.arena.push_back(p);
        }
        scratch.segLen[i] =
            scratch.arena.size() - scratch.segOff[i];
        if (scratch.segLen[i] > 1)
            scratch.active.push_back(i);
    }

    std::uint64_t inv_rounds = 0;
    for (unsigned round = 0; !scratch.active.empty(); ++round) {
        scratch.denoms.clear();
        scratch.pairIn.clear();
        scratch.pairOut.clear();
        scratch.carryFrom.clear();
        scratch.carryTo.clear();

        // Pair up each active bucket; all pairs are independent, so
        // the whole round shares one inversion.
        for (const std::size_t i : scratch.active) {
            const std::size_t off = scratch.segOff[i];
            const std::size_t len = scratch.segLen[i];
            std::size_t kept = 0;
            for (std::size_t j = 0; j + 1 < len; j += 2) {
                const Affine &a = scratch.arena[off + j];
                const Affine &b = scratch.arena[off + j + 1];
                if (a.x == b.x) {
                    // Doubling or cancellation: no shared slope.
                    // Route the pair through the tolerant pacc.
                    spill[i] = pacc(spill[i], a);
                    spill[i] = pacc(spill[i], b);
                    stats.paccOps += 2;
                    continue;
                }
                scratch.denoms.push_back(b.x - a.x);
                scratch.pairIn.push_back(off + j);
                scratch.pairOut.push_back(off + kept);
                ++kept;
            }
            if ((len & 1) != 0) {
                // The odd leftover moves only after the completion
                // pass has read this round's pair inputs.
                scratch.carryFrom.push_back(off + len - 1);
                scratch.carryTo.push_back(off + kept);
                ++kept;
            }
            scratch.segLen[i] = kept;
        }

        if (!scratch.denoms.empty()) {
            batchInverse(scratch.denoms, scratch.prefix);
            ++stats.batchInvOps;
            inv_rounds |= std::uint64_t{1} << round;
            ++ops.inv;
            if (scratch.denoms.size() > 1)
                ops.mul += 3 * (scratch.denoms.size() - 1);

            // Complete every pair. Each output index is at most its
            // pair's first input index, and pairs complete in gather
            // order, so in-place compaction never clobbers an unread
            // input.
            for (std::size_t k = 0; k < scratch.denoms.size(); ++k) {
                const Affine &a = scratch.arena[scratch.pairIn[k]];
                const Affine &b =
                    scratch.arena[scratch.pairIn[k] + 1];
                const Fq lambda = (b.y - a.y) * scratch.denoms[k];
                const Fq x3 = lambda.sqr() - a.x - b.x;
                const Fq y3 = lambda * (a.x - x3) - a.y;
                scratch.arena[scratch.pairOut[k]] =
                    Affine::fromXY(x3, y3);
                ops.mul += 3;
                ops.sqr += 1; // lambda^2
                ops.add += 6;
                ++stats.affineAddOps;
            }
        }

        for (std::size_t k = 0; k < scratch.carryFrom.size(); ++k)
            scratch.arena[scratch.carryTo[k]] =
                scratch.arena[scratch.carryFrom[k]];

        std::size_t n_active = 0;
        for (const std::size_t i : scratch.active) {
            if (scratch.segLen[i] > 1)
                scratch.active[n_active++] = i;
        }
        scratch.active.resize(n_active);
    }

    // Fold spill and the surviving point into the output slot.
    for (std::size_t i = 0; i < width; ++i) {
        const Affine root =
            scratch.segLen[i] > 0
                ? scratch.arena[scratch.segOff[i]]
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
