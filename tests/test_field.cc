/**
 * @file
 * Field-axiom and special-function tests for Fp over all eight fields.
 */

#include <gtest/gtest.h>

#include <array>

#include "src/field/field_params.h"
#include "src/support/prng.h"
#include "tests/sweep_cases.h"

namespace distmsm {
namespace {

template <typename P>
class FieldTest : public ::testing::Test
{
  protected:
    using F = Fp<P>;
    Prng prng_{0xF00D};
    F rand() { return F::random(prng_); }
};

using AllFieldParams =
    ::testing::Types<Bn254FqParams, Bn254FrParams, Bls377FqParams,
                     Bls377FrParams, Bls381FqParams, Bls381FrParams,
                     Mnt4753FqParams, Mnt4753FrParams>;
TYPED_TEST_SUITE(FieldTest, AllFieldParams);

TYPED_TEST(FieldTest, ModulusBitsMatchPaperTable1)
{
    // Table 1 of the paper lists the field widths.
    using F = typename FieldTest<TypeParam>::F;
    EXPECT_EQ(F::modulus().bitLength(), TypeParam::kBits);
}

TYPED_TEST(FieldTest, Identities)
{
    using F = typename FieldTest<TypeParam>::F;
    for (int i = 0; i < 20; ++i) {
        const F a = this->rand();
        EXPECT_EQ(a + F::zero(), a);
        EXPECT_EQ(a * F::one(), a);
        EXPECT_EQ(a * F::zero(), F::zero());
        EXPECT_EQ(a - a, F::zero());
        EXPECT_EQ(a + (-a), F::zero());
    }
}

TYPED_TEST(FieldTest, CommutativeAssociativeDistributive)
{
    using F = typename FieldTest<TypeParam>::F;
    for (int i = 0; i < 20; ++i) {
        const F a = this->rand(), b = this->rand(), c = this->rand();
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TYPED_TEST(FieldTest, SqrMatchesMul)
{
    for (int i = 0; i < 20; ++i) {
        const auto a = this->rand();
        EXPECT_EQ(a.sqr(), a * a);
        EXPECT_EQ(a.dbl(), a + a);
    }
}

TYPED_TEST(FieldTest, InverseRoundTrip)
{
    using F = typename FieldTest<TypeParam>::F;
    for (int i = 0; i < 10; ++i) {
        F a = this->rand();
        if (a.isZero())
            a = F::fromU64(3);
        EXPECT_EQ(a * a.inverse(), F::one());
        EXPECT_EQ(a.inverse().inverse(), a);
    }
    EXPECT_EQ(F::one().inverse(), F::one());
}

TYPED_TEST(FieldTest, RawRoundTrip)
{
    using F = typename FieldTest<TypeParam>::F;
    for (int i = 0; i < 20; ++i) {
        const auto raw =
            F::Base::randomBelow(this->prng_, F::modulus());
        EXPECT_EQ(F::fromRaw(raw).toRaw(), raw);
    }
    EXPECT_TRUE(F::zero().toRaw().isZero());
    EXPECT_TRUE(F::one().toRaw().isU64(1));
}

TYPED_TEST(FieldTest, SmallIntegerArithmetic)
{
    using F = typename FieldTest<TypeParam>::F;
    EXPECT_EQ(F::fromU64(3) + F::fromU64(4), F::fromU64(7));
    EXPECT_EQ(F::fromU64(6) * F::fromU64(7), F::fromU64(42));
    EXPECT_EQ(F::fromU64(10) - F::fromU64(4), F::fromU64(6));
}

TYPED_TEST(FieldTest, PowMatchesRepeatedMul)
{
    using F = typename FieldTest<TypeParam>::F;
    const F a = this->rand();
    F expect = F::one();
    for (std::uint64_t e = 0; e < 12; ++e) {
        EXPECT_EQ(a.pow(BigInt<1>::fromU64(e)), expect);
        expect *= a;
    }
}

TYPED_TEST(FieldTest, FermatLittleTheorem)
{
    using F = typename FieldTest<TypeParam>::F;
    auto e = F::modulus();
    e.subInPlace(F::Base::fromU64(1));
    F a = this->rand();
    if (a.isZero())
        a = F::fromU64(2);
    EXPECT_EQ(a.pow(e), F::one());
}

TYPED_TEST(FieldTest, LegendreAndSqrt)
{
    using F = typename FieldTest<TypeParam>::F;
    EXPECT_EQ(F::zero().legendre(), 0);
    EXPECT_EQ(F::one().legendre(), 1);
    // The generated QNR really is a non-residue.
    EXPECT_EQ(F::fromU64(TypeParam::kQnrSmall).legendre(), -1);
    int qr_seen = 0;
    for (int i = 0; i < 8; ++i) {
        const F a = this->rand();
        const F square = a.sqr();
        EXPECT_EQ(square.legendre(), a.isZero() ? 0 : 1);
        const F root = square.sqrt();
        EXPECT_EQ(root.sqr(), square);
        ++qr_seen;
    }
    EXPECT_GT(qr_seen, 0);
}

TYPED_TEST(FieldTest, SqrtIsCanonical)
{
    // sqrt returns the lexicographically smaller of the two roots.
    for (int i = 0; i < 5; ++i) {
        const auto a = this->rand();
        const auto root = a.sqr().sqrt();
        const auto other = -root;
        EXPECT_LE(root.toRaw(), other.toRaw());
    }
}

TYPED_TEST(FieldTest, RootOfUnityHasExactOrder)
{
    using F = typename FieldTest<TypeParam>::F;
    const F w =
        F::fromRaw(F::Base::fromLimbs(TypeParam::kRootOfUnity));
    // w^(2^adicity) == 1 but w^(2^(adicity-1)) == -1.
    F v = w;
    for (unsigned i = 0; i + 1 < TypeParam::kTwoAdicity; ++i)
        v = v.sqr();
    EXPECT_EQ(v, -F::one());
    EXPECT_EQ(v.sqr(), F::one());
}

TYPED_TEST(FieldTest, RandomIsReducedAndVaried)
{
    using F = typename FieldTest<TypeParam>::F;
    const F a = this->rand();
    const F b = this->rand();
    EXPECT_FALSE(a == b); // astronomically unlikely
    EXPECT_LT(a.toRaw(), F::modulus());
}

/** a + b as N + 1 limbs, by __int128 limb sums (no addc). */
template <std::size_t N>
std::array<std::uint64_t, N + 1>
wideSum(const BigInt<N> &a, const BigInt<N> &b)
{
    std::array<std::uint64_t, N + 1> s{};
    unsigned __int128 acc = 0;
    for (std::size_t i = 0; i < N; ++i) {
        acc += static_cast<unsigned __int128>(a.limb[i]) + b.limb[i];
        s[i] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
    }
    s[N] = static_cast<std::uint64_t>(acc);
    return s;
}

/** x - y mod 2^(64N) for x >= y, by __int128 limb differences. */
template <std::size_t N>
BigInt<N>
wideDiff(const std::array<std::uint64_t, N + 1> &x, const BigInt<N> &y)
{
    BigInt<N> d{};
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < N; ++i) {
        const unsigned __int128 t =
            static_cast<unsigned __int128>(x[i]) - y.limb[i] - borrow;
        d.limb[i] = static_cast<std::uint64_t>(t);
        borrow = static_cast<std::uint64_t>(t >> 64) != 0 ? 1 : 0;
    }
    return d;
}

/** Slow (a + b) mod p: widen, compare, subtract once. */
template <std::size_t N>
BigInt<N>
slowAddMod(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
    const auto s = wideSum(a, b);
    BigInt<N> low{};
    for (std::size_t i = 0; i < N; ++i)
        low.limb[i] = s[i];
    return s[N] != 0 || low >= p ? wideDiff(s, p) : low;
}

/** Slow (a - b) mod p: a - b, or a + p - b when a < b. */
template <std::size_t N>
BigInt<N>
slowSubMod(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
    return wideDiff(a >= b ? wideSum(a, BigInt<N>::zero()) : wideSum(a, p),
                    b);
}

TYPED_TEST(FieldTest, AddSubMatchReference)
{
    using F = typename FieldTest<TypeParam>::F;
    using B = typename F::Base;
    const B p = F::modulus();
    const auto check = [&](const B &a, const B &b) {
        const B sum = addMod(a, b, p), diff = subMod(a, b, p);
        EXPECT_EQ(sum, slowAddMod(a, b, p))
            << "a = " << a.toHex() << ", b = " << b.toHex();
        EXPECT_EQ(diff, slowSubMod(a, b, p))
            << "a = " << a.toHex() << ", b = " << b.toHex();
        // The field operators are these two.
        EXPECT_EQ((F::fromMontgomery(a) + F::fromMontgomery(b))
                      .montgomeryForm(),
                  sum);
        EXPECT_EQ((F::fromMontgomery(a) - F::fromMontgomery(b))
                      .montgomeryForm(),
                  diff);
    };
    B pm1 = p;
    pm1.subInPlace(B::fromU64(1));
    const long cases = sweepCases(10000);
    for (long i = 0; i < cases && !this->HasFailure(); ++i) {
        const B a = B::randomBelow(this->prng_, p);
        const B b = B::randomBelow(this->prng_, p);
        check(a, b);
        if (i % 16 != 0)
            continue;
        // Edges around a random a: 0, p - 1, a = b, a + b = p and
        // a + b = p - 1, each in both operand orders.
        B to_p = p, to_pm1 = pm1;
        to_p.subInPlace(a);
        to_pm1.subInPlace(a);
        for (const B &e : {B::zero(), pm1, a, to_pm1}) {
            check(a, e);
            check(e, a);
        }
        if (!a.isZero()) {
            check(a, to_p);
            check(to_p, a);
        }
    }
    for (const B &a : {B::zero(), pm1}) {
        for (const B &b : {B::zero(), pm1})
            check(a, b);
    }
}

TYPED_TEST(FieldTest, MulSqrMatchCios)
{
    using F = typename FieldTest<TypeParam>::F;
    using B = typename F::Base;
    const B p = F::modulus();
    const auto cios = [&](const B &a, const B &b) {
        return montMulCIOS(a, b, p, TypeParam::kInv64);
    };
    const auto check = [&](const B &a, const B &b) {
        const F fa = F::fromMontgomery(a), fb = F::fromMontgomery(b);
        EXPECT_EQ((fa * fb).montgomeryForm(), cios(a, b))
            << "a = " << a.toHex() << ", b = " << b.toHex();
        EXPECT_EQ(fa.sqr().montgomeryForm(), cios(a, a))
            << "a = " << a.toHex();
    };
    B pm1 = p;
    pm1.subInPlace(B::fromU64(1));
    const B edges[] = {B::zero(), B::fromU64(1), pm1,
                       B::fromLimbs(TypeParam::kR),
                       B::fromLimbs(TypeParam::kR2)};
    for (const B &a : edges) {
        for (const B &b : edges)
            check(a, b);
    }
    const long cases = sweepCases(10000);
    for (long i = 0; i < cases && !this->HasFailure(); ++i) {
        check(B::randomBelow(this->prng_, p),
              B::randomBelow(this->prng_, p));
    }
}

} // namespace
} // namespace distmsm
