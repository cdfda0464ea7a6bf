/**
 * @file
 * Tests for compressed point encoding, proof serialization and the
 * dedicated squaring path, including seeded mutation fuzzing of the
 * point and proof decoders.
 */

#include <gtest/gtest.h>

#include "src/bigint/squaring.h"
#include "src/ec/bn254_g2.h"
#include "src/ec/curves.h"
#include "src/ec/encoding.h"
#include "src/field/field_params.h"
#include "src/support/prng.h"
#include "src/zksnark/proof_io.h"
#include "src/zksnark/workloads.h"
#include "tests/spec_mutator.h"

namespace distmsm {
namespace {

/** A random small multiple of the generator. */
template <typename C>
AffinePoint<C>
randomPoint(Prng &prng)
{
    const auto k = BigInt<1>::fromU64(2 + prng.below(1 << 20));
    return pmul(XYZZPoint<C>::fromAffine(C::generator()), k).toAffine();
}

/** x^3 + ax + b is a square or zero: some curve point has this x. */
template <typename C>
bool
onCurveX(const typename C::Fq &x)
{
    return (x.sqr() * x + C::a() * x + C::b()).legendre() != -1;
}

/**
 * @p bytes is a well-formed non-identity encoding whose x is on the
 * curve, read here without the decoder.
 */
template <typename C>
bool
namesCurveX(const std::vector<std::uint8_t> &bytes)
{
    using Fq = typename C::Fq;
    if (bytes.size() != encodedPointSize<C>() ||
        (bytes[0] != static_cast<std::uint8_t>(PointFlag::EvenY) &&
         bytes[0] != static_cast<std::uint8_t>(PointFlag::OddY)))
        return false;
    typename Fq::Base raw{};
    const std::size_t n_bytes = bytes.size() - 1;
    for (std::size_t b = 0; b < n_bytes; ++b)
        raw.limb[b / 8] |=
            static_cast<std::uint64_t>(bytes[n_bytes - b]) << (8 * (b % 8));
    return raw < Fq::modulus() && onCurveX<C>(Fq::fromRaw(raw));
}

/** [r]P == O: @p p lies in the order-r subgroup. */
template <typename C>
bool
inSubgroup(const AffinePoint<C> &p)
{
    return pmul(XYZZPoint<C>::fromAffine(p), C::Fr::modulus())
        .isIdentity();
}

template <typename C>
class EncodingTest : public ::testing::Test
{
  protected:
    Prng prng_{0xE4C0};

    AffinePoint<C> randPoint() { return randomPoint<C>(prng_); }
};

using AllCurves = ::testing::Types<Bn254, Bls377, Bls381, Mnt4753>;
TYPED_TEST_SUITE(EncodingTest, AllCurves);

TYPED_TEST(EncodingTest, RoundTrip)
{
    for (int i = 0; i < 8; ++i) {
        const auto p = this->randPoint();
        const auto bytes = encodePoint<TypeParam>(p);
        ASSERT_EQ(bytes.size(), encodedPointSize<TypeParam>());
        const auto decoded = decodePoint<TypeParam>(bytes);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, p);
    }
}

TYPED_TEST(EncodingTest, IdentityRoundTrip)
{
    const auto id = AffinePoint<TypeParam>::identity();
    const auto bytes = encodePoint<TypeParam>(id);
    EXPECT_EQ(bytes[0], 0);
    const auto decoded = decodePoint<TypeParam>(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->infinity);
}

TYPED_TEST(EncodingTest, NegatedPointDiffersOnlyInFlag)
{
    const auto p = this->randPoint();
    const auto a = encodePoint<TypeParam>(p);
    const auto b = encodePoint<TypeParam>(p.negated());
    EXPECT_NE(a[0], b[0]);
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]);
}

TYPED_TEST(EncodingTest, RejectsMalformed)
{
    auto bytes = encodePoint<TypeParam>(this->randPoint());
    // Bad flag.
    auto bad = bytes;
    bad[0] = 7;
    EXPECT_FALSE(decodePoint<TypeParam>(bad).has_value());
    // Wrong length.
    bad = bytes;
    bad.pop_back();
    EXPECT_FALSE(decodePoint<TypeParam>(bad).has_value());
    // Identity with trailing garbage.
    bad.assign(encodedPointSize<TypeParam>(), 0);
    bad.back() = 1;
    EXPECT_FALSE(decodePoint<TypeParam>(bad).has_value());
    // x >= p (all 0xff bytes).
    bad.assign(encodedPointSize<TypeParam>(), 0xFF);
    bad[0] = 2;
    EXPECT_FALSE(decodePoint<TypeParam>(bad).has_value());
}

TYPED_TEST(EncodingTest, RejectsNonCurveX)
{
    // Find a small x whose RHS is a non-residue and require reject.
    using Fq = typename TypeParam::Fq;
    for (std::uint64_t x = 1; x < 200; ++x) {
        const Fq fx = Fq::fromU64(x);
        const Fq rhs =
            fx.sqr() * fx + TypeParam::a() * fx + TypeParam::b();
        if (rhs.legendre() == -1) {
            auto p = AffinePoint<TypeParam>::fromXY(fx, Fq::zero());
            p.infinity = false;
            auto bytes = encodePoint<TypeParam>(p);
            bytes[0] = 2;
            EXPECT_FALSE(
                decodePoint<TypeParam>(bytes).has_value());
            return;
        }
    }
    GTEST_SKIP() << "no small non-curve x found";
}

/**
 * The curve has a cofactor, so most x on it name a point outside the
 * order-r subgroup: the first 20 small ones all do, and each must be
 * rejected.
 */
template <typename C>
void
rejectsSmallXPointsOutsideG1()
{
    using Fq = typename C::Fq;
    int found = 0;
    for (std::uint64_t x = 0; x < 200 && found < 20; ++x) {
        const Fq fx = Fq::fromU64(x);
        if (!onCurveX<C>(fx))
            continue;
        ++found;
        Fq y = (fx.sqr() * fx + C::a() * fx + C::b()).sqrt();
        if (y.toRaw().bit(0))
            y = -y;
        const auto p = AffinePoint<C>::fromXY(fx, y);
        ASSERT_TRUE(p.isOnCurve()) << "x = " << x;
        ASSERT_FALSE(inSubgroup(p)) << "x = " << x;
        const auto bytes = encodePoint<C>(p);
        ASSERT_EQ(bytes[0], static_cast<std::uint8_t>(PointFlag::EvenY));
        EXPECT_FALSE(decodePoint<C>(bytes).has_value()) << "x = " << x;
    }
    EXPECT_EQ(found, 20);
}

TEST(EncodingSubgroup, RejectsBls381PointsOutsideG1)
{
    rejectsSmallXPointsOutsideG1<Bls381>();
}

TEST(EncodingSubgroup, RejectsBls377PointsOutsideG1)
{
    rejectsSmallXPointsOutsideG1<Bls377>();
}

TEST(EncodingSubgroup, RejectsBn254G2PointsOutsideG2)
{
    // BN254's G2 cofactor is 2p - r: the ten smallest n >= 1 for
    // which x = n + u lies on the twist (where the generator search
    // starts) all name points outside G2, and each must be rejected
    // with either sign.
    using Fq2 = Bn254G2::Fq;
    std::vector<std::uint64_t> on_twist;
    for (std::uint64_t n = 1; on_twist.size() < 10; ++n) {
        const Fq2 x{Bn254Fq::fromU64(n), Bn254Fq::one()};
        const Fq2 rhs = x.sqr() * x + Bn254G2::b();
        if (rhs.isZero() || !rhs.isSquare())
            continue;
        on_twist.push_back(n);
        const auto p = AffinePoint<Bn254G2>::fromXY(x, rhs.sqrt());
        ASSERT_TRUE(p.isOnCurve()) << "n = " << n;
        ASSERT_FALSE(inSubgroup(p)) << "n = " << n;
        EXPECT_FALSE(
            decodePoint<Bn254G2>(encodePoint<Bn254G2>(p)).has_value())
            << "n = " << n;
        EXPECT_FALSE(decodePoint<Bn254G2>(encodePoint<Bn254G2>(
                         p.negated()))
                         .has_value())
            << "n = " << n;
    }
    EXPECT_EQ(on_twist, (std::vector<std::uint64_t>{2, 3, 4, 5, 6, 8, 11,
                                                     12, 13, 14}));
}

/** Lower-case hex of @p bytes. */
std::string
toHex(const std::vector<std::uint8_t> &bytes)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 15];
    }
    return out;
}

TEST(EncodingPins, G1AndG2BytesAreStable)
{
    // One codec serves Fp and Fp2 coordinates; the wire bytes of
    // both groups stay what they were when each had its own codec.
    const auto g1 = pmul(XYZZPoint<Bn254>::fromAffine(Bn254::generator()),
                         BigInt<1>::fromU64(0x1234567))
                        .toAffine();
    EXPECT_EQ(toHex(encodePoint<Bn254>(g1)),
              "031fa2f28623a9edb99fa68deaef7bcfff995513a4f650793015e434f0e"
              "803f3ca");
    EXPECT_EQ(toHex(encodePoint<Bn254>(g1.negated())),
              "021fa2f28623a9edb99fa68deaef7bcfff995513a4f650793015e434f0e"
              "803f3ca");
    const auto g2 = Bn254G2::generator();
    EXPECT_EQ(toHex(encodePoint<Bn254G2>(g2)),
              "020cc52155d015f5bfe14a977f613d2d1fc2dd71966abf025a3dea3444a"
              "fb7eeed27d409ede13256511fb71acc9b73965ec3ee0cf9768aa74bfdaa"
              "33a3d1af123c");
    EXPECT_EQ(toHex(encodePoint<Bn254G2>(g2.negated())),
              "030cc52155d015f5bfe14a977f613d2d1fc2dd71966abf025a3dea3444a"
              "fb7eeed27d409ede13256511fb71acc9b73965ec3ee0cf9768aa74bfdaa"
              "33a3d1af123c");
}

template <typename C>
class GeneratorOrder : public ::testing::Test
{
};

using SubgroupCheckedGroups =
    ::testing::Types<Bn254, Bls377, Bls381, Bn254G2>;
TYPED_TEST_SUITE(GeneratorOrder, SubgroupCheckedGroups);

TYPED_TEST(GeneratorOrder, GeneratorHasOrderR)
{
    // r is prime, so [r]G = O with G != O means G has order exactly r:
    // the generator lies in the subgroup decodePoint accepts.
    const auto g = TypeParam::generator();
    ASSERT_FALSE(g.infinity);
    EXPECT_TRUE(g.isOnCurve());
    EXPECT_TRUE(inSubgroup(g));
}

TEST(ProofIo, RoundTripAndSize)
{
    namespace zk = zksnark;
    Prng prng(0x10);
    auto built = zk::buildMulChainCircuit<Bn254Fr>(16, 2, prng);
    const auto trapdoor = zk::Trapdoor<Bn254Fr>::random(prng);
    const auto keys = zk::setup<Bn254>(built.r1cs, trapdoor);
    const auto proof =
        zk::prove<Bn254>(keys.pk, built.r1cs, built.wires, prng);

    const auto bytes = zk::serializeProof<Bn254>(proof);
    EXPECT_EQ(bytes.size(), zk::proofSize<Bn254>());
    // The wire portion a pairing verifier would need is three
    // compressed G1 points: 3 * 33 = 99 bytes on BN254 (the paper's
    // 127-byte proofs carry one G2 element instead).
    EXPECT_EQ(zk::proofPointBytes<Bn254>(), 99u);

    const auto round = zk::deserializeProof<Bn254>(bytes);
    ASSERT_TRUE(round.has_value());
    EXPECT_TRUE(round->a == proof.a);
    EXPECT_TRUE(round->b == proof.b);
    EXPECT_TRUE(round->c == proof.c);
    EXPECT_EQ(round->aScalar, proof.aScalar);

    // The deserialized proof still verifies.
    const std::vector<Bn254Fr> inputs(
        built.wires.begin() + 1,
        built.wires.begin() + 1 + built.r1cs.numPublic());
    EXPECT_TRUE(zk::verify<Bn254>(keys.vk, *round, inputs));

    // Corrupt a byte: either decode fails or verification fails.
    auto bad = bytes;
    bad[5] ^= 0x40;
    const auto tampered = zk::deserializeProof<Bn254>(bad);
    if (tampered.has_value()) {
        EXPECT_FALSE(zk::verify<Bn254>(keys.vk, *tampered, inputs));
    }
}

/**
 * Mutants of valid point encodings are rejected, or decode to an
 * on-curve point whose encoding is the mutant byte for byte: every
 * accepted input is the one canonical encoding of its point. On a
 * curve whose decoder checks the subgroup, every accepted point also
 * lies in it.
 */
template <typename C>
void
fuzzDecodePoint(std::uint64_t seed)
{
    Prng prng(seed);
    std::vector<std::vector<std::uint8_t>> seeds = {
        encodePoint<C>(AffinePoint<C>::identity())};
    for (int i = 0; i < 4; ++i) {
        const auto p = randomPoint<C>(prng);
        seeds.push_back(encodePoint<C>(p));
        seeds.push_back(encodePoint<C>(p.negated()));
    }
    const int mutants = specFuzzMutants();
    int accepted = 0;
    int curve_x = 0;
    for (int i = 0; i < mutants; ++i) {
        const std::vector<std::uint8_t> bytes = mutateBytes(seeds, prng);
        if constexpr (C::kSubgroupCheck)
            curve_x += namesCurveX<C>(bytes);
        const auto point = decodePoint<C>(bytes);
        if (!point)
            continue;
        ++accepted;
        ASSERT_TRUE(point->isOnCurve()) << "mutant " << i;
        if constexpr (C::kSubgroupCheck) {
            ASSERT_TRUE(inSubgroup(*point)) << "mutant " << i;
        }
        ASSERT_EQ(encodePoint<C>(*point), bytes) << "mutant " << i;
    }
    if constexpr (C::kSubgroupCheck) {
        // Flipped x bits land on the curve about half the time, but
        // few of those points lie in the subgroup: the floor counts
        // on-curve x, and both the subgroup's accepting and
        // rejecting branches must run.
        EXPECT_GT(curve_x, mutants / 20);
        EXPECT_GT(accepted, 0);
        EXPECT_LT(accepted, curve_x);
    } else {
        // Flipped x bits land on the curve about half the time, so
        // the accepting branch is exercised too.
        EXPECT_GT(accepted, mutants / 20);
    }
}

TEST(EncodingFuzz, DecodePointMutantsBn254)
{
    fuzzDecodePoint<Bn254>(0xF0A1);
}

TEST(EncodingFuzz, DecodePointMutantsBls381)
{
    fuzzDecodePoint<Bls381>(0xF0A2);
}

// Mutants of serialized proofs are rejected, or deserialize to a
// proof that serializes back to the mutant byte for byte.
TEST(EncodingFuzz, DeserializeProofMutantsBn254)
{
    namespace zk = zksnark;
    Prng prng(0xF0A3);
    std::vector<std::vector<std::uint8_t>> seeds;
    for (int i = 0; i < 3; ++i) {
        zk::Proof<Bn254> proof;
        proof.a = XYZZPoint<Bn254>::fromAffine(randomPoint<Bn254>(prng));
        proof.b = XYZZPoint<Bn254>::fromAffine(randomPoint<Bn254>(prng));
        // One seed carries the identity, so its flag byte mutates too.
        proof.c = i == 0 ? XYZZPoint<Bn254>::identity()
                         : XYZZPoint<Bn254>::fromAffine(
                               randomPoint<Bn254>(prng));
        proof.aScalar = Bn254Fr::random(prng);
        proof.bScalar = Bn254Fr::random(prng);
        proof.cScalar = Bn254Fr::random(prng);
        seeds.push_back(zk::serializeProof<Bn254>(proof));
    }
    const int mutants = specFuzzMutants();
    int accepted = 0;
    for (int i = 0; i < mutants; ++i) {
        const std::vector<std::uint8_t> bytes = mutateBytes(seeds, prng);
        const auto proof = zk::deserializeProof<Bn254>(bytes);
        if (!proof)
            continue;
        ++accepted;
        ASSERT_EQ(zk::serializeProof<Bn254>(*proof), bytes)
            << "mutant " << i;
    }
    EXPECT_GT(accepted, mutants / 20);
}

template <typename P>
class SquaringTest : public ::testing::Test
{
};

using AllFieldParams =
    ::testing::Types<Bn254FqParams, Bn254FrParams, Bls377FqParams,
                     Bls377FrParams, Bls381FqParams, Bls381FrParams,
                     Mnt4753FqParams, Mnt4753FrParams>;
TYPED_TEST_SUITE(SquaringTest, AllFieldParams);

TYPED_TEST(SquaringTest, SqrFullMatchesMulFull)
{
    Prng prng(0x5012);
    using B = BigInt<TypeParam::kLimbs>;
    for (int i = 0; i < 40; ++i) {
        const B a = B::random(prng);
        EXPECT_EQ(sqrFull(a), mulFull(a, a));
    }
    // Edges.
    EXPECT_EQ(sqrFull(B::zero()), mulFull(B::zero(), B::zero()));
    B max{};
    for (auto &l : max.limb)
        l = ~0ull;
    EXPECT_EQ(sqrFull(max), mulFull(max, max));
}

TYPED_TEST(SquaringTest, MontSqrMatchesMontMul)
{
    Prng prng(0x5013);
    using B = BigInt<TypeParam::kLimbs>;
    const B mod = B::fromLimbs(TypeParam::kModulus);
    for (int i = 0; i < 25; ++i) {
        const B a = B::randomBelow(prng, mod);
        EXPECT_EQ(montSqr(a, mod, TypeParam::kInv64),
                  montMulCIOS(a, a, mod, TypeParam::kInv64));
    }
}

} // namespace
} // namespace distmsm
