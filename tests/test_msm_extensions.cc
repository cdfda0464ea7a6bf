/**
 * @file
 * Tests for the MSM extensions the paper's Section 6 credits to the
 * ZPrize lineage and adopts: signed-digit windows, precomputation of
 * per-window point multiples, and the bucket-reduce implementation
 * family (serial / chunked-parallel / weighted).
 */

#include <gtest/gtest.h>

#include "src/ec/curves.h"
#include "src/msm/bucket_reduce.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/signed_digits.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;

MsmOptions
testOptions(unsigned s)
{
    MsmOptions o;
    o.windowBitsOverride = s;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 128 * 1024;
    return o;
}

TEST(SignedDigits, DigitsStayInRange)
{
    Prng prng(0x51);
    for (unsigned s : {2u, 5u, 11u, 16u}) {
        for (int iter = 0; iter < 20; ++iter) {
            BigInt<4> k = BigInt<4>::random(prng);
            k.truncateToBits(254);
            const auto digits = signedWindowDigits(k, 254, s);
            EXPECT_EQ(digits.size(), (254 + s - 1) / s + 1);
            const std::int64_t half = std::int64_t{1} << (s - 1);
            for (auto d : digits) {
                EXPECT_GE(d, -half);
                EXPECT_LE(d, half);
            }
        }
    }
}

TEST(SignedDigits, ReassemblesToScalar)
{
    Prng prng(0x52);
    for (unsigned s : {3u, 8u, 13u}) {
        for (int iter = 0; iter < 30; ++iter) {
            BigInt<4> k = BigInt<4>::random(prng);
            k.truncateToBits(254);
            const auto digits = signedWindowDigits(k, 254, s);
            EXPECT_TRUE(signedDigitsReassemble(digits, k, s))
                << "s=" << s;
        }
    }
}

TEST(SignedDigits, EdgeScalars)
{
    const unsigned s = 4;
    // Zero.
    auto digits = signedWindowDigits(BigInt<4>::zero(), 254, s);
    for (auto d : digits)
        EXPECT_EQ(d, 0);
    // All-ones (maximum carry propagation).
    BigInt<4> max{};
    for (auto &l : max.limb)
        l = ~0ull;
    max.truncateToBits(254);
    digits = signedWindowDigits(max, 254, s);
    EXPECT_TRUE(signedDigitsReassemble(digits, max, s));
    // Exactly half a window (the tie case m == 2^(s-1) keeps m).
    const auto half = BigInt<4>::fromU64(8); // 2^(4-1)
    digits = signedWindowDigits(half, 254, s);
    EXPECT_EQ(digits[0], 8);
    EXPECT_TRUE(signedDigitsReassemble(digits, half, s));
}

TEST(SignedDigits, PlusHalfBoundaryKat)
{
    // Audit KAT for the signed-digit boundary: signedWindowDigits
    // keeps m == +2^(s-1) as the digit +half (asymmetric range
    // [-half, +half]), so every bucket array must have half+1 slots.
    // This scalar hits +half in every full window the 254-bit width
    // can express: nibble pattern 0x88... gives chunk 8 = 2^(4-1)
    // with no carry anywhere.
    const unsigned s = 4;
    BigInt<4> k{};
    for (auto &l : k.limb)
        l = 0x8888888888888888ull;
    k.truncateToBits(254); // clears bits 254/255 -> top window is 0
    const auto digits = signedWindowDigits(k, 254, s);
    const std::int32_t half = 1 << (s - 1);
    // Windows 0..62 are full nibbles, all +half; the truncated top
    // window and the carry window are 0.
    ASSERT_EQ(digits.size(), 65u);
    for (std::size_t w = 0; w < 63; ++w)
        EXPECT_EQ(digits[w], half) << "window " << w;
    EXPECT_EQ(digits[63], 0);
    EXPECT_EQ(digits[64], 0);
    EXPECT_TRUE(signedDigitsReassemble(digits, k, s));

    // The engine must route bucket +half correctly end to end, with
    // every accumulation path that indexes the halved bucket array.
    Prng prng(0x55);
    const auto points = generatePoints<Bn254>(48, prng);
    std::vector<BigInt<4>> scalars(48, k); // every point hits +half
    const auto naive = msmNaive<Bn254>(points, scalars);
    for (const bool batch_affine : {false, true}) {
        for (const bool precompute : {false, true}) {
            const Cluster cluster(DeviceSpec::a100(), 4);
            MsmOptions options = testOptions(s);
            options.signedDigits = true;
            options.batchAffine = batch_affine;
            options.precompute = precompute;
            const auto result = computeDistMsm<Bn254>(
                points, scalars, cluster, options);
            EXPECT_EQ(result.value, naive)
                << "batchAffine=" << batch_affine
                << " precompute=" << precompute;
        }
    }

    // GLV half-width path: the decomposed halves run through the
    // same signed windows; the crafted scalar must still survive.
    MsmOptions glv_options = testOptions(s);
    glv_options.signedDigits = true;
    glv_options.glv = true;
    const Cluster cluster(DeviceSpec::a100(), 4);
    EXPECT_EQ(computeDistMsm<Bn254>(points, scalars, cluster,
                                    glv_options)
                  .value,
              naive);
}

TEST(SignedDigits, SerialPippengerMatchesNaive)
{
    Prng prng(0x53);
    const auto points = generatePoints<Bn254>(40, prng);
    const auto scalars = generateScalars<Bn254>(40, prng);
    const auto naive = msmNaive<Bn254>(points, scalars);
    for (unsigned s : {3u, 8u, 12u}) {
        EXPECT_EQ(msmSerialPippengerSigned<Bn254>(points, scalars, s),
                  naive)
            << "s=" << s;
    }
}

TEST(SignedDigits, DistMsmMatchesNaive)
{
    Prng prng(0x54);
    const auto points = generatePoints<Bls381>(120, prng);
    const auto scalars = generateScalars<Bls381>(120, prng);
    const auto naive = msmNaive<Bls381>(points, scalars);
    for (int gpus : {1, 8}) {
        const Cluster cluster(DeviceSpec::a100(), gpus);
        MsmOptions options = testOptions(7);
        options.signedDigits = true;
        const auto result = computeDistMsm<Bls381>(points, scalars,
                                                   cluster, options);
        EXPECT_EQ(result.value, naive) << gpus << " GPUs";
        // Signed windows: one extra window, half the buckets.
        EXPECT_EQ(result.plan.numWindows,
                  windowCount(Bls381::kScalarBits, 7) + 1);
        EXPECT_EQ(result.plan.numBuckets, 1ull << 6);
    }
}

TEST(KernelStatsAggregation, PhasesDoNotScaleWithDeviceCount)
{
    // The engine merges the per-device bucket groups of one window
    // with KernelStats::mergeLockstep: running the identical MSM on
    // a bucket-split multi-GPU cluster must not multiply the phase
    // count (launch structure) relative to a single device, while
    // the result stays bit-identical.
    Prng prng(0x56);
    const auto points = generatePoints<Bn254>(64, prng);
    const auto scalars = generateScalars<Bn254>(64, prng);
    MsmOptions options;
    options.windowBitsOverride = 16; // 16 windows
    options.hierarchicalScatter = false;

    const Cluster one_gpu(DeviceSpec::a100(), 1);
    const auto single =
        computeDistMsm<Bn254>(points, scalars, one_gpu, options);

    const Cluster split(DeviceSpec::a100(), 32);
    const auto multi =
        computeDistMsm<Bn254>(points, scalars, split, options);
    ASSERT_TRUE(multi.plan.bucketsSplitAcrossGpus);
    ASSERT_GT(multi.plan.gpusPerWindow, 1);

    EXPECT_EQ(multi.value, single.value);
    EXPECT_EQ(multi.stats.phases, single.stats.phases)
        << "lockstep devices must share, not stack, launch phases";
}

TEST(SignedDigits, HalvesBucketCountInPlan)
{
    const auto curve = gpusim::CurveProfile::bn254();
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions options;
    options.windowBitsOverride = 12;
    const auto plain = planMsm(curve, 1 << 20, cluster, options);
    options.signedDigits = true;
    const auto signed_plan = planMsm(curve, 1 << 20, cluster, options);
    EXPECT_EQ(plain.numBuckets, (1ull << 12) - 1);
    EXPECT_EQ(signed_plan.numBuckets, 1ull << 11);
    EXPECT_EQ(signed_plan.numWindows, plain.numWindows + 1);
}

TEST(SignedDigits, ReducesSimulatedReduceTime)
{
    // Half the buckets => cheaper bucket-reduce and transfers.
    const auto curve = gpusim::CurveProfile::bls381();
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions plain;
    plain.cpuBucketReduce = false; // same executor for both sides
    MsmOptions with_signed = plain;
    with_signed.signedDigits = true;
    const auto t_plain =
        estimateDistMsm(curve, 1ull << 26, cluster, plain);
    const auto t_signed =
        estimateDistMsm(curve, 1ull << 26, cluster, with_signed);
    EXPECT_LT(t_signed.bucketReduceNs, t_plain.bucketReduceNs);
}

TEST(Precompute, TableHoldsWindowMultiples)
{
    Prng prng(0x55);
    const auto points = generatePoints<Bn254>(6, prng);
    const unsigned s = 5, windows = 4;
    const auto table =
        buildPrecomputeTable<Bn254>(points, windows, s, false, 1)->rows;
    ASSERT_EQ(table.size(), windows);
    using Xyzz = XYZZPoint<Bn254>;
    for (unsigned j = 0; j < windows; ++j) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            BigInt<4> factor{};
            factor.setBit(j * s);
            EXPECT_EQ(Xyzz::fromAffine(table[j][i]),
                      pmul(Xyzz::fromAffine(points[i]), factor))
                << "j=" << j << " i=" << i;
        }
    }
}

TEST(Precompute, DistMsmMatchesNaive)
{
    Prng prng(0x56);
    const auto points = generatePoints<Bn254>(80, prng);
    const auto scalars = generateScalars<Bn254>(80, prng);
    const auto naive = msmNaive<Bn254>(points, scalars);
    const Cluster cluster(DeviceSpec::a100(), 8);
    MsmOptions options = testOptions(9);
    options.precompute = true;
    const auto result =
        computeDistMsm<Bn254>(points, scalars, cluster, options);
    EXPECT_EQ(result.value, naive);
    // With merged windows the host never runs Horner doublings:
    // every host op is a reduce/merge PADD.
    EXPECT_GT(result.hostOps, 0u);
}

TEST(Precompute, ComposesWithSignedDigits)
{
    Prng prng(0x57);
    const auto points = generatePoints<Bn254>(64, prng);
    const auto scalars = generateScalars<Bn254>(64, prng);
    const auto naive = msmNaive<Bn254>(points, scalars);
    const Cluster cluster(DeviceSpec::a100(), 4);
    MsmOptions options = testOptions(6);
    options.precompute = true;
    options.signedDigits = true;
    const auto result =
        computeDistMsm<Bn254>(points, scalars, cluster, options);
    EXPECT_EQ(result.value, naive);
}

class BucketReduceTest : public ::testing::Test
{
  protected:
    using Xyzz = XYZZPoint<Bn254>;

    std::vector<Xyzz>
    randomBuckets(std::size_t m, std::uint64_t seed)
    {
        Prng prng(seed);
        std::vector<Xyzz> buckets(m, Xyzz::identity());
        const Xyzz g = Xyzz::fromAffine(Bn254::generator());
        for (std::size_t b = 1; b < m; ++b) {
            if (prng.below(4) == 0)
                continue; // keep some buckets empty
            buckets[b] =
                pmul(g, BigInt<1>::fromU64(1 + prng.below(1000)));
        }
        return buckets;
    }
};

TEST_F(BucketReduceTest, ChunkedMatchesSerial)
{
    const auto buckets = randomBuckets(65, 0x60);
    const auto serial = bucketReduceSerial<Bn254>(buckets);
    for (std::size_t chunks : {1u, 2u, 7u, 16u, 64u, 100u}) {
        EXPECT_EQ(bucketReduceChunked<Bn254>(buckets, chunks),
                  serial)
            << chunks << " chunks";
    }
}

TEST_F(BucketReduceTest, WeightedMatchesSerial)
{
    const auto buckets = randomBuckets(33, 0x61);
    EXPECT_EQ(bucketReduceWeighted<Bn254>(buckets),
              bucketReduceSerial<Bn254>(buckets));
}

TEST_F(BucketReduceTest, SmallMultipleIsScalarMul)
{
    const Xyzz g = Xyzz::fromAffine(Bn254::generator());
    for (std::uint64_t k : {0ull, 1ull, 2ull, 7ull, 100ull, 4097ull}) {
        EXPECT_EQ(smallMultiple(g, k),
                  pmul(g, BigInt<1>::fromU64(k)))
            << "k=" << k;
    }
}

TEST_F(BucketReduceTest, WeightedCostsMoreThanSerial)
{
    // The work inflation that motivates the CPU offload (Sec. 3.2.3).
    const auto buckets = randomBuckets(129, 0x62);
    ReduceStats serial_stats, weighted_stats;
    bucketReduceSerial<Bn254>(buckets, &serial_stats);
    bucketReduceWeighted<Bn254>(buckets, &weighted_stats);
    EXPECT_GT(weighted_stats.padds + weighted_stats.pdbls,
              2 * (serial_stats.padds + serial_stats.pdbls));
}

TEST_F(BucketReduceTest, EmptyAndTinyInputs)
{
    const std::vector<Xyzz> empty(1, Xyzz::identity());
    EXPECT_TRUE(bucketReduceSerial<Bn254>(empty).isIdentity());
    EXPECT_TRUE(bucketReduceChunked<Bn254>(empty, 4).isIdentity());
    const auto two = randomBuckets(2, 0x63);
    EXPECT_EQ(bucketReduceChunked<Bn254>(two, 8),
              bucketReduceSerial<Bn254>(two));
}

} // namespace
} // namespace distmsm::msm
