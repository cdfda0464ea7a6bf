/**
 * @file
 * Batched-affine bucket accumulation and batch-inversion tests:
 * group equality against the legacy bucketSumTree on random and
 * adversarial bucket contents (duplicates, inverse pairs, identity
 * contributions, empty and single-point buckets), the amortized
 * field-op accounting (~6 muls per accumulated point against pacc's
 * 10), range splitting (a range summed chunk by chunk gives the same
 * bits and, with the inversion rounds OR-ed, the same stats), a
 * known-answer digest of sums and stats, and the scratch-buffer /
 * zero-skipping batchInverse variants with the zero rejection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/ec/curves.h"
#include "src/field/batch_inverse.h"
#include "src/gpusim/stats.h"
#include "src/msm/batch_affine.h"
#include "src/msm/engine.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "tests/sweep_cases.h"

namespace distmsm {
namespace {

using Curve = Bn254;
using Affine = AffinePoint<Curve>;
using Xyzz = XYZZPoint<Curve>;
using Fq = Curve::Fq;
using Buckets = std::vector<std::vector<std::uint32_t>>;

/** Sum every bucket with the legacy pacc-based tree. */
std::vector<Xyzz>
legacySums(const Buckets &buckets,
           const std::vector<Affine> &points)
{
    gpusim::KernelStats stats;
    std::vector<Xyzz> sums(buckets.size(), Xyzz::identity());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        sums[b] = msm::bucketSumTree<Curve>(
            buckets[b], [&](std::uint32_t id) { return points[id]; },
            /*threads_per_bucket=*/1, stats);
    }
    return sums;
}

/** Sum every bucket with the batched-affine path. */
std::vector<Xyzz>
batchedSums(const Buckets &buckets,
            const std::vector<Affine> &points,
            gpusim::KernelStats *stats_out = nullptr)
{
    gpusim::KernelStats stats;
    msm::BatchAffineScratch<Curve> scratch;
    std::vector<Xyzz> sums(buckets.size(), Xyzz::identity());
    msm::batchAffineAccumulate<Curve>(
        buckets, 0, buckets.size(),
        [&](std::uint32_t id) { return points[id]; }, sums, stats,
        scratch);
    if (stats_out != nullptr)
        *stats_out = stats;
    return sums;
}

void
expectSameSums(const Buckets &buckets,
               const std::vector<Affine> &points)
{
    const auto expected = legacySums(buckets, points);
    const auto got = batchedSums(buckets, points);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        SCOPED_TRACE("bucket " + std::to_string(b));
        EXPECT_EQ(got[b], expected[b]);
    }
}

TEST(BatchAffine, MatchesLegacyOnRandomBuckets)
{
    Prng prng(0xBA7C4);
    const auto points = msm::generatePoints<Curve>(256, prng);
    Buckets buckets(37);
    for (int i = 0; i < 600; ++i) {
        buckets[prng.below(buckets.size())].push_back(
            static_cast<std::uint32_t>(prng.below(points.size())));
    }
    expectSameSums(buckets, points);
}

TEST(BatchAffine, EmptyAndSinglePointBuckets)
{
    Prng prng(0xBA7C5);
    const auto points = msm::generatePoints<Curve>(8, prng);
    const Buckets buckets = {{}, {3}, {}, {0, 1}, {7}, {}};
    expectSameSums(buckets, points);
}

TEST(BatchAffine, DuplicatePointsForceDoubling)
{
    // Repeated ids make x2 == x1 with y2 == y1: the doubling edge
    // case must route through the XYZZ spill, not the shared slope.
    Prng prng(0xBA7C6);
    const auto points = msm::generatePoints<Curve>(6, prng);
    const Buckets buckets = {
        {0, 0},             // immediate doubling
        {1, 1, 1, 1},       // repeated doubling + re-merge
        {2, 3, 2, 3, 2},    // interleaved duplicates
        {4, 4, 5},          // doubling then a fresh point
    };
    gpusim::KernelStats stats;
    const auto got = batchedSums(buckets, points, &stats);
    const auto expected = legacySums(buckets, points);
    for (std::size_t b = 0; b < buckets.size(); ++b)
        EXPECT_EQ(got[b], expected[b]) << "bucket " << b;
    EXPECT_GT(stats.paccOps, 0u); // the spill path actually ran
}

TEST(BatchAffine, InversePairsCancel)
{
    // point_of maps odd ids to the negation of the even id's point,
    // as the engine's signed-digit path does: P + (-P) hits the
    // x2 == x1, y2 == -y1 cancellation edge.
    Prng prng(0xBA7C7);
    const auto base = msm::generatePoints<Curve>(4, prng);
    auto point_of = [&](std::uint32_t id) {
        const Affine p = base[id / 2];
        return (id % 2 != 0) ? p.negated() : p;
    };
    const Buckets buckets = {
        {0, 1},          // P - P = identity
        {0, 1, 2},       // cancellation then a survivor
        {2, 4, 3, 5},    // interleaved pair cancellations
        {6, 6, 7, 7},    // double then cancel the doubles
    };
    gpusim::KernelStats batch_stats, legacy_stats;
    msm::BatchAffineScratch<Curve> scratch;
    std::vector<Xyzz> got(buckets.size(), Xyzz::identity());
    msm::batchAffineAccumulate<Curve>(buckets, 0, buckets.size(),
                                      point_of, got, batch_stats,
                                      scratch);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const auto expected = msm::bucketSumTree<Curve>(
            buckets[b], point_of, 1, legacy_stats);
        EXPECT_EQ(got[b], expected) << "bucket " << b;
    }
    EXPECT_TRUE(got[0].isIdentity());
}

TEST(BatchAffine, IdentityContributionsAreSkipped)
{
    // Ids mapping to the point at infinity (bucket 0 / zero digits
    // in the engine) contribute nothing and must not poison a batch.
    Prng prng(0xBA7C8);
    const auto base = msm::generatePoints<Curve>(3, prng);
    auto point_of = [&](std::uint32_t id) {
        return id == 9 ? Affine::identity() : base[id % 3];
    };
    const Buckets buckets = {{9, 9, 9}, {9, 0, 9, 1}, {2, 9}};
    gpusim::KernelStats stats;
    msm::BatchAffineScratch<Curve> scratch;
    std::vector<Xyzz> got(buckets.size(), Xyzz::identity());
    msm::batchAffineAccumulate<Curve>(buckets, 0, buckets.size(),
                                      point_of, got, stats, scratch);
    EXPECT_TRUE(got[0].isIdentity());
    EXPECT_EQ(got[1], padd(Xyzz::fromAffine(base[0]),
                           Xyzz::fromAffine(base[1])));
    EXPECT_EQ(got[2], Xyzz::fromAffine(base[2]));
}

TEST(BatchAffine, SubrangeOnlyTouchesItsSlots)
{
    Prng prng(0xBA7C9);
    const auto points = msm::generatePoints<Curve>(16, prng);
    Buckets buckets(8);
    for (int i = 0; i < 64; ++i)
        buckets[prng.below(8)].push_back(
            static_cast<std::uint32_t>(prng.below(16)));
    const auto expected = legacySums(buckets, points);

    gpusim::KernelStats stats;
    msm::BatchAffineScratch<Curve> scratch;
    std::vector<Xyzz> sums(buckets.size(), Xyzz::identity());
    msm::batchAffineAccumulate<Curve>(
        buckets, 2, 5, [&](std::uint32_t id) { return points[id]; },
        sums, stats, scratch);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        if (b >= 2 && b < 5)
            EXPECT_EQ(sums[b], expected[b]) << "bucket " << b;
        else
            EXPECT_TRUE(sums[b].isIdentity()) << "bucket " << b;
    }
}

TEST(BatchAffine, FieldMulCountDropsBelowPacc)
{
    // The acceptance accounting: with wide rounds the amortized cost
    // is 3 intrinsic + ~3 inversion muls per accumulated point, well
    // under the 10 muls/point the pacc path pays.
    Prng prng(0xBA7CA);
    const std::size_t kBuckets = 64, kPerBucket = 8;
    const auto points =
        msm::generatePoints<Curve>(kBuckets * kPerBucket, prng);
    Buckets buckets(kBuckets);
    for (std::size_t b = 0; b < kBuckets; ++b) {
        for (std::size_t j = 0; j < kPerBucket; ++j)
            buckets[b].push_back(
                static_cast<std::uint32_t>(b * kPerBucket + j));
    }
    const std::size_t n = kBuckets * kPerBucket;

    auto &ops = ec::opCounters();
    ops.reset();
    const auto legacy = legacySums(buckets, points);
    const std::uint64_t legacy_muls = ops.mul;
    // n points, first of each bucket is a load: pacc on the rest.
    EXPECT_EQ(legacy_muls, 10 * (n - kBuckets));

    ops.reset();
    gpusim::KernelStats stats;
    const auto batched = batchedSums(buckets, points, &stats);
    const std::uint64_t batch_muls = ops.mul;
    for (std::size_t b = 0; b < kBuckets; ++b)
        EXPECT_EQ(batched[b], legacy[b]);

    // kPerBucket - 1 adds per bucket, each 3 intrinsic muls plus
    // 3(m-1)/m < 3 amortized inversion muls; the pairwise tree
    // needs only log2(kPerBucket) inversion rounds.
    const std::uint64_t adds = n - kBuckets;
    EXPECT_EQ(stats.affineAddOps, adds);
    EXPECT_EQ(stats.batchInvOps, 3u); // 8 -> 4 -> 2 -> 1
    EXPECT_EQ(ops.inv, 3u);
    EXPECT_LT(batch_muls, 6 * adds);
    EXPECT_LT(3 * batch_muls, 2 * legacy_muls); // > 1.5x fewer muls
}

// ---------------------------------------------------------------
// Chunked ranges: what the engine's bucket-chunk tasks rely on.
// ---------------------------------------------------------------

/** What one batched-affine launch over a range produced. */
struct RangeSums
{
    std::vector<Xyzz> sums;
    gpusim::KernelStats stats;
};

/**
 * Sum buckets [lo, hi) one chunk at a time, cutting before each of
 * @p cuts (ascending, inside (lo, hi)), and charge the unsplit launch:
 * the chunks' stats sum, except that the launch ran one inversion per
 * round any chunk inverted in.
 */
template <typename PointOf>
RangeSums
chunkedSums(const Buckets &buckets, std::size_t lo, std::size_t hi,
            const std::vector<std::size_t> &cuts, PointOf &&point_of)
{
    RangeSums out;
    out.sums.assign(buckets.size(), Xyzz::identity());
    std::uint64_t rounds = 0;
    std::size_t start = lo;
    std::vector<std::size_t> ends = cuts;
    ends.push_back(hi);
    for (const std::size_t end : ends) {
        gpusim::KernelStats chunk;
        msm::BatchAffineScratch<Curve> scratch;
        rounds |= msm::batchAffineAccumulate<Curve>(
            buckets, start, end, point_of, out.sums, chunk, scratch);
        out.stats.merge(chunk);
        start = end;
    }
    out.stats.batchInvOps = static_cast<std::uint64_t>(std::popcount(rounds));
    return out;
}

/** Bit-equal sums and field-by-field equal stats. */
::testing::AssertionResult
sameRange(const RangeSums &got, const RangeSums &want)
{
    for (std::size_t b = 0; b < want.sums.size(); ++b)
        if (!msm::bitEqual(got.sums[b], want.sums[b]))
            return ::testing::AssertionFailure()
                   << "bucket " << b << " differs";
    if (!(got.stats == want.stats))
        return ::testing::AssertionFailure()
               << "stats differ: batchInvOps " << got.stats.batchInvOps
               << " vs " << want.stats.batchInvOps << ", affineAddOps "
               << got.stats.affineAddOps << " vs "
               << want.stats.affineAddOps << ", paccOps "
               << got.stats.paccOps << " vs " << want.stats.paccOps;
    return ::testing::AssertionSuccess();
}

/**
 * Adversarial bucket contents, shuffled by @p prng: empty, single,
 * pair, 2^k and 2^k + 1 point buckets, equal-x pairs that spill
 * (doubling and cancelling) and identity contributions. Ids 2j and
 * 2j + 1 map to a base point and its negation; kIdentityId maps to
 * the point at infinity.
 */
constexpr std::uint32_t kIdentityId = 0xFFFF;

Buckets
adversarialBuckets(Prng &prng, std::size_t n_bases)
{
    const auto id = [&] {
        return static_cast<std::uint32_t>(prng.below(2 * n_bases));
    };
    Buckets buckets;
    buckets.push_back({});
    buckets.push_back({id()});
    buckets.push_back({id(), id()});
    for (const std::size_t k : {2u, 3u, 4u, 5u, 6u}) {
        for (const std::size_t size : {std::size_t{1} << k,
                                       (std::size_t{1} << k) + 1}) {
            std::vector<std::uint32_t> bucket(size);
            for (auto &i : bucket)
                i = id();
            buckets.push_back(std::move(bucket));
        }
    }
    const std::uint32_t a = 2 * static_cast<std::uint32_t>(
                                    prng.below(n_bases));
    const std::uint32_t b = 2 * static_cast<std::uint32_t>(
                                    prng.below(n_bases));
    buckets.push_back({a, a});             // doubling spill
    buckets.push_back({a, a + 1});         // cancelling spill
    buckets.push_back({a, a, a + 1, b});   // both, then a survivor
    buckets.push_back({b, a, b, a, b + 1, a + 1, id(), id()});
    // Equal-x pairs behind a slope pair: two bases distinct from a
    // and from each other.
    const std::uint32_t c =
        2 * static_cast<std::uint32_t>((a / 2 + 1) % n_bases);
    const std::uint32_t d =
        2 * static_cast<std::uint32_t>((a / 2 + 2) % n_bases);
    buckets.push_back({c, d, a, a});       // a pair, then doubling
    buckets.push_back({c, d, a, a + 1});   // a pair, then cancelling
    buckets.push_back({c, d, c, d});       // equal x only in round 1
    buckets.push_back({kIdentityId});
    buckets.push_back({kIdentityId, a, kIdentityId, b, id()});
    for (std::size_t i = buckets.size(); i-- > 1;)
        std::swap(buckets[i], buckets[prng.below(i + 1)]);
    return buckets;
}

TEST(BatchAffine, ChunkedRangesMatchWholeRange)
{
    Prng prng(0xC4C4ED);
    const auto base = msm::generatePoints<Curve>(24, prng);
    const auto point_of = [&](std::uint32_t id) {
        if (id == kIdentityId)
            return Affine::identity();
        const Affine p = base[id / 2];
        return (id % 2 != 0) ? p.negated() : p;
    };
    const auto whole = [&](const Buckets &buckets, std::size_t lo,
                           std::size_t hi) {
        RangeSums out;
        out.sums.assign(buckets.size(), Xyzz::identity());
        msm::BatchAffineScratch<Curve> scratch;
        const std::uint64_t rounds = msm::batchAffineAccumulate<Curve>(
            buckets, lo, hi, point_of, out.sums, out.stats, scratch);
        EXPECT_EQ(static_cast<std::uint64_t>(std::popcount(rounds)),
                  out.stats.batchInvOps);
        return out;
    };

    // Fixed widths over one adversarial layout, bucket 0 excluded as
    // in the engine.
    const Buckets fixed = adversarialBuckets(prng, base.size());
    const std::size_t lo = 1, hi = fixed.size();
    const RangeSums want = whole(fixed, lo, hi);
    ASSERT_GT(want.stats.paccOps, 0u);     // the spill path ran
    ASSERT_GT(want.stats.batchInvOps, 4u); // a deep tree
    for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7},
                                    hi - lo}) {
        SCOPED_TRACE("width " + std::to_string(width));
        std::vector<std::size_t> cuts;
        for (std::size_t c = lo + width; c < hi; c += width)
            cuts.push_back(c);
        EXPECT_TRUE(sameRange(chunkedSums(fixed, lo, hi, cuts, point_of),
                              want));
    }

    // Seeded random layouts, sub-ranges and cuts.
    const long cases = sweepCases(64);
    for (long c = 0; c < cases; ++c) {
        SCOPED_TRACE("case " + std::to_string(c));
        const Buckets buckets = adversarialBuckets(prng, base.size());
        const std::size_t r_lo = prng.below(4);
        const std::size_t r_hi =
            buckets.size() - static_cast<std::size_t>(prng.below(4));
        const std::uint64_t cut_odds = 1 + prng.below(6);
        std::vector<std::size_t> cuts;
        for (std::size_t b = r_lo + 1; b < r_hi; ++b)
            if (prng.below(cut_odds) == 0)
                cuts.push_back(b);
        ASSERT_TRUE(sameRange(
            chunkedSums(buckets, r_lo, r_hi, cuts, point_of),
            whole(buckets, r_lo, r_hi)));
    }
}

/** 64-bit FNV-1a, fed one 64-bit word at a time. */
struct Fnv1a
{
    std::uint64_t h = 0xCBF29CE484222325ull;

    void
    mix(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (word >> (8 * byte)) & 0xFF;
            h *= 0x100000001B3ull;
        }
    }

    void
    mix(const Fq &v)
    {
        for (const std::uint64_t limb : v.montgomeryForm().limb)
            mix(limb);
    }
};

TEST(BatchAffine, KnownAnswers)
{
    // One digest over fixed seeded layouts: every sum's Montgomery
    // limbs, the returned round mask, every KernelStats field and the
    // field-op tallies. The literal was taken from the kernel with an
    // AffinePoint arena and a one-chain batchInverse; a rework of the
    // kernel must reproduce it bit for bit.
    Prng prng(0x4B4A7);
    const auto base = msm::generatePoints<Curve>(512, prng);
    const auto signed_point = [&](std::uint32_t id) {
        if (id == kIdentityId)
            return Affine::identity();
        const Affine p = base[id / 2];
        return (id % 2 != 0) ? p.negated() : p;
    };
    Fnv1a digest;
    const auto run = [&](const Buckets &buckets, std::size_t lo,
                         std::size_t hi) {
        auto &ops = ec::opCounters();
        ops.reset();
        gpusim::KernelStats stats;
        msm::BatchAffineScratch<Curve> scratch;
        std::vector<Xyzz> sums(buckets.size(), Xyzz::identity());
        digest.mix(msm::batchAffineAccumulate<Curve>(
            buckets, lo, hi, signed_point, sums, stats, scratch));
        for (const Xyzz &s : sums) {
            digest.mix(s.x);
            digest.mix(s.y);
            digest.mix(s.zz);
            digest.mix(s.zzz);
        }
        for (const std::uint64_t v :
             {stats.phases, stats.globalAtomics,
              stats.globalConflictWeight, stats.globalMaxConflict,
              stats.sharedAtomics, stats.sharedConflictWeight,
              stats.sharedMaxConflict, stats.sharedAccesses,
              stats.gmemBytes, stats.paddOps, stats.paccOps,
              stats.pdblOps, stats.affineAddOps, stats.batchInvOps})
            digest.mix(v);
        for (const std::uint64_t v : {ops.mul, ops.sqr, ops.add, ops.inv})
            digest.mix(v);
        return stats;
    };

    // Adversarial layouts over few bases, whole and in sub-ranges.
    for (int layout = 0; layout < 6; ++layout) {
        const Buckets buckets = adversarialBuckets(prng, 24);
        run(buckets, 1, buckets.size());
        run(buckets, layout, buckets.size() - layout);
    }
    // Wide rounds of every size mod 4: uniform ids over 97 buckets,
    // then sizes skewed toward the low buckets (deep trees), then a
    // pool of 6 bases whose repeats spill in every round.
    const struct
    {
        std::uint32_t pool; ///< ids are uniform over [0, pool)
        bool skewed;
    } kLayouts[] = {{1024, false}, {1024, true}, {12, false}};
    for (const auto &[pool, skewed] : kLayouts) {
        Buckets buckets(97);
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t b =
                skewed ? prng.below(prng.below(buckets.size()) + 1)
                       : prng.below(buckets.size());
            buckets[b].push_back(
                static_cast<std::uint32_t>(prng.below(pool)));
        }
        const auto stats = run(buckets, 1, buckets.size());
        EXPECT_GT(stats.batchInvOps, 4u);
    }
    EXPECT_EQ(digest.h, 0x05585726FFB9A14Dull);
}

// ---------------------------------------------------------------
// batchInverse variants.
// ---------------------------------------------------------------

/** @p n random non-zero field elements. */
std::vector<Fq>
nonZeroValues(Prng &prng, std::size_t n)
{
    std::vector<Fq> values(n);
    for (auto &v : values) {
        do {
            v = Fq::random(prng);
        } while (v.isZero());
    }
    return values;
}

TEST(BatchInverse, ScratchOverloadMatchesElementwise)
{
    Prng prng(0xBA7CB);
    std::vector<Fq> scratch;
    // Every lane fill of the first blocks, around two block
    // boundaries and a wide batch; one scratch across all of them.
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 17; ++n)
        sizes.push_back(n);
    for (const std::size_t n : {31u, 32u, 33u, 63u, 64u, 65u, 4096u, 3u})
        sizes.push_back(n);
    for (const std::size_t n : sizes) {
        SCOPED_TRACE("n = " + std::to_string(n));
        std::vector<Fq> values = nonZeroValues(prng, n);
        const auto saved = values;
        batchInverse(values, scratch);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(values[i], saved[i].inverse()) << i;
    }
    // Random sizes: an inverse is the unique reduced y with x y = 1,
    // which one product checks at a fraction of an inversion's cost.
    const long cases = sweepCases(64);
    for (long c = 0; c < cases; ++c) {
        const std::size_t n = 1 + prng.below(std::size_t{1} << 12);
        SCOPED_TRACE("case " + std::to_string(c) + ", n = " +
                     std::to_string(n));
        std::vector<Fq> values = nonZeroValues(prng, n);
        const auto saved = values;
        batchInverse(values, scratch);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_LT(values[i].montgomeryForm(), Fq::modulus()) << i;
            ASSERT_EQ(values[i] * saved[i], Fq::one()) << i;
        }
    }
}

TEST(BatchInverse, ZeroElementIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Prng prng(0xBA7CF);
    for (const std::size_t n : {1u, 4u, 7u, 8u, 9u, 64u}) {
        for (const std::size_t zero_at : {std::size_t{0}, std::size_t{3},
                                          std::size_t{4}, n - 1}) {
            if (zero_at >= n)
                continue;
            SCOPED_TRACE("n = " + std::to_string(n) + ", zero at " +
                         std::to_string(zero_at));
            std::vector<Fq> values = nonZeroValues(prng, n);
            values[zero_at] = Fq::zero();
            std::vector<Fq> scratch;
            EXPECT_EXIT(batchInverse(values, scratch),
                        ::testing::ExitedWithCode(1),
                        "batchInverse of zero element");
        }
    }
}

TEST(BatchInverse, SkipZeroFlagsAndInverts)
{
    Prng prng(0xBA7CC);
    std::vector<Fq> scratch;
    std::vector<std::uint8_t> skipped;
    // Zeros at the front, middle and back of the batch.
    std::vector<Fq> values(9);
    const std::vector<std::size_t> zeros = {0, 4, 8};
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (std::find(zeros.begin(), zeros.end(), i) != zeros.end())
            values[i] = Fq::zero();
        else
            do {
                values[i] = Fq::random(prng);
            } while (values[i].isZero());
    }
    const auto saved = values;
    const std::size_t n_skipped =
        batchInverseSkipZero(values, scratch, skipped);
    EXPECT_EQ(n_skipped, zeros.size());
    ASSERT_EQ(skipped.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (saved[i].isZero()) {
            EXPECT_EQ(skipped[i], 1) << i;
            EXPECT_TRUE(values[i].isZero()) << i;
        } else {
            EXPECT_EQ(skipped[i], 0) << i;
            EXPECT_EQ(values[i], saved[i].inverse()) << i;
        }
    }
}

TEST(BatchInverse, SkipZeroAllZeroAndEmpty)
{
    std::vector<Fq> scratch;
    std::vector<std::uint8_t> skipped;
    std::vector<Fq> values;
    EXPECT_EQ(batchInverseSkipZero(values, scratch, skipped), 0u);
    EXPECT_TRUE(skipped.empty());
    values.assign(5, Fq::zero());
    EXPECT_EQ(batchInverseSkipZero(values, scratch, skipped), 5u);
    for (const auto &v : values)
        EXPECT_TRUE(v.isZero());
}

TEST(BatchInverse, SkipZeroSingleElement)
{
    Prng prng(0xBA7CD);
    std::vector<Fq> scratch;
    std::vector<std::uint8_t> skipped;
    // Single non-zero: the prefix walk degenerates to one step.
    const Fq a = Fq::random(prng);
    std::vector<Fq> values{a};
    EXPECT_EQ(batchInverseSkipZero(values, scratch, skipped), 0u);
    EXPECT_EQ(values[0], a.inverse());
    // Single zero: skipped, left untouched.
    values = {Fq::zero()};
    EXPECT_EQ(batchInverseSkipZero(values, scratch, skipped), 1u);
    EXPECT_EQ(skipped[0], 1);
    EXPECT_TRUE(values[0].isZero());
}

TEST(BatchInverse, SkipZeroAtBatchBoundaries)
{
    // Zero in the first slot exercises the `!skipped[0]` tail write;
    // zero in the last slot exercises the backward walk's entry.
    Prng prng(0xBA7CE);
    std::vector<Fq> scratch;
    std::vector<std::uint8_t> skipped;
    for (const std::size_t zero_at : {std::size_t{0}, std::size_t{5}}) {
        std::vector<Fq> values;
        for (std::size_t i = 0; i < 6; ++i)
            values.push_back(i == zero_at ? Fq::zero()
                                          : Fq::random(prng));
        const auto saved = values;
        EXPECT_EQ(batchInverseSkipZero(values, scratch, skipped),
                  1u);
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i == zero_at) {
                EXPECT_EQ(skipped[i], 1);
                EXPECT_TRUE(values[i].isZero());
            } else {
                EXPECT_EQ(skipped[i], 0);
                EXPECT_EQ(values[i], saved[i].inverse()) << i;
            }
        }
    }
}

} // namespace
} // namespace distmsm
