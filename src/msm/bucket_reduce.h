/**
 * @file
 * Bucket-reduce implementations (paper Sections 2.3 and 3.2.3).
 *
 * Bucket-reduce turns per-bucket sums B_1 .. B_(M-1) into the window
 * result sum_i i * B_i. Three implementations:
 *
 *  - bucketReduceSerial: the textbook two-running-sums pass
 *    (2 (M-1) PADDs); what the host CPU executes when DistMSM
 *    offloads the step (Section 3.2.3).
 *  - bucketReduceChunked: the parallel form production GPU
 *    libraries use — T chunks reduced independently with local
 *    running sums, each chunk's total weighted by its base index,
 *    then combined; functional model of the GPU-resident reduce.
 *  - bucketReduceWeighted: the paper's "compute 2^i B_i prior to
 *    parallel reduction" formulation, which scales every bucket
 *    independently (s PADD + s PDBL each) — embarrassingly parallel
 *    but much more total work; this inefficiency is why Section
 *    3.2.3 moves the step to the CPU.
 *
 * All three return identical points (asserted by the tests).
 */

#ifndef DISTMSM_MSM_BUCKET_REDUCE_H
#define DISTMSM_MSM_BUCKET_REDUCE_H

#include <vector>

#include "src/ec/point.h"
#include "src/field/backend.h"
#include "src/support/check.h"

namespace distmsm::msm {

/** Op tallies of one reduce execution. */
struct ReduceStats
{
    std::uint64_t padds = 0;
    std::uint64_t pdbls = 0;
};

/**
 * Serial running sums: for i from M-1 down to 1,
 * running += B_i; acc += running. Returns sum_i i * B_i.
 *
 * Field-backend attribution: this is the CPU-offloaded step, so its
 * field arithmetic always takes the host multiplier (Fp::operator*:
 * the ADX kernel or CIOS) even when the calling thread holds a
 * tensor-core field::TcBackendScope — the host has no tensor cores.
 * The device-resident forms below (chunked / weighted) model GPU
 * kernels and inherit the caller's scope instead.
 */
template <typename Curve>
XYZZPoint<Curve>
bucketReduceSerial(const std::vector<XYZZPoint<Curve>> &buckets,
                   ReduceStats *stats = nullptr)
{
    using Xyzz = XYZZPoint<Curve>;
    const field::TcBackendScope host_scope(false);
    Xyzz running = Xyzz::identity();
    Xyzz acc = Xyzz::identity();
    for (std::size_t b = buckets.size(); b-- > 1;) {
        running = padd(running, buckets[b]);
        acc = padd(acc, running);
        if (stats)
            stats->padds += 2;
    }
    return acc;
}

/** k * P for a small non-negative integer k (double-and-add). */
template <typename Curve>
XYZZPoint<Curve>
smallMultiple(const XYZZPoint<Curve> &p, std::uint64_t k,
              ReduceStats *stats = nullptr)
{
    using Xyzz = XYZZPoint<Curve>;
    Xyzz acc = Xyzz::identity();
    for (int bit = 63; bit >= 0; --bit) {
        if (!acc.isIdentity()) {
            acc = pdbl(acc);
            if (stats)
                ++stats->pdbls;
        }
        if ((k >> bit) & 1) {
            acc = padd(acc, p);
            if (stats)
                ++stats->padds;
        }
    }
    return acc;
}

/**
 * Chunked parallel reduce with @p num_chunks workers:
 * sum_{i in chunk} i*B_i = (local running sums relative to the
 * chunk base) + base * (chunk bucket total); chunk results are
 * combined pairwise.
 */
template <typename Curve>
XYZZPoint<Curve>
bucketReduceChunked(const std::vector<XYZZPoint<Curve>> &buckets,
                    std::size_t num_chunks,
                    ReduceStats *stats = nullptr)
{
    using Xyzz = XYZZPoint<Curve>;
    DISTMSM_REQUIRE(num_chunks >= 1, "need at least one chunk");
    const std::size_t m = buckets.size();
    std::vector<Xyzz> partials;
    for (std::size_t c = 0; c < num_chunks; ++c) {
        // Chunk over buckets [lo, hi), skipping bucket 0.
        const std::size_t lo =
            std::max<std::size_t>(1, 1 + (m - 1) * c / num_chunks);
        const std::size_t hi = 1 + (m - 1) * (c + 1) / num_chunks;
        if (lo >= hi)
            continue;
        Xyzz running = Xyzz::identity();
        Xyzz local = Xyzz::identity();
        Xyzz total = Xyzz::identity();
        for (std::size_t b = hi; b-- > lo;) {
            running = padd(running, buckets[b]);
            local = padd(local, running);
            if (stats)
                stats->padds += 2;
        }
        total = running; // sum of the chunk's buckets
        // local = sum (i - lo + 1) * B_i, so
        // sum_{i in [lo,hi)} i * B_i = local + (lo - 1) * total.
        Xyzz weighted = smallMultiple(total, lo - 1, stats);
        partials.push_back(padd(local, weighted));
        if (stats)
            ++stats->padds;
    }
    // Pairwise combine (the log2 tree of Section 3.1's tail).
    while (partials.size() > 1) {
        std::vector<Xyzz> next;
        for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
            next.push_back(padd(partials[i], partials[i + 1]));
            if (stats)
                ++stats->padds;
        }
        if (partials.size() % 2 == 1)
            next.push_back(partials.back());
        partials = std::move(next);
    }
    return partials.empty() ? Xyzz::identity() : partials.front();
}

/**
 * The paper's weighted form: scale every bucket to i * B_i
 * independently, then tree-reduce. Correct but work-inflated —
 * the motivation for the CPU offload.
 */
template <typename Curve>
XYZZPoint<Curve>
bucketReduceWeighted(const std::vector<XYZZPoint<Curve>> &buckets,
                     ReduceStats *stats = nullptr)
{
    using Xyzz = XYZZPoint<Curve>;
    std::vector<Xyzz> weighted;
    weighted.reserve(buckets.size());
    for (std::size_t i = 1; i < buckets.size(); ++i) {
        if (buckets[i].isIdentity())
            continue;
        weighted.push_back(smallMultiple(buckets[i], i, stats));
    }
    while (weighted.size() > 1) {
        std::vector<Xyzz> next;
        for (std::size_t i = 0; i + 1 < weighted.size(); i += 2) {
            next.push_back(padd(weighted[i], weighted[i + 1]));
            if (stats)
                ++stats->padds;
        }
        if (weighted.size() % 2 == 1)
            next.push_back(weighted.back());
        weighted = std::move(next);
    }
    return weighted.empty() ? Xyzz::identity() : weighted.front();
}

} // namespace distmsm::msm

#endif // DISTMSM_MSM_BUCKET_REDUCE_H
