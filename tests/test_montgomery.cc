/**
 * @file
 * Tests for Montgomery multiplication: the SOS / CIOS / FIOS variants
 * agree with each other and with an independently-verified slow
 * modular multiplication, across all eight fields; the 4-limb ADX
 * kernel matches CIOS bit for bit.
 */

#include <gtest/gtest.h>

#include "src/bigint/bigint.h"
#include "src/bigint/montgomery.h"
#include "src/field/field_params.h"
#include "src/support/prng.h"
#include "tests/sweep_cases.h"

namespace distmsm {
namespace {

/** Slow, obviously-correct reduction of a 2N-limb value modulo p. */
template <std::size_t N>
BigInt<N>
slowMod(const std::array<std::uint64_t, 2 * N> &wide, const BigInt<N> &p)
{
    BigInt<2 * N> v{};
    for (std::size_t i = 0; i < 2 * N; ++i)
        v.limb[i] = wide[i];
    BigInt<2 * N> m{};
    for (std::size_t i = 0; i < N; ++i)
        m.limb[i] = p.limb[i];
    const std::size_t shift_max = 2 * N * 64 - p.bitLength();
    for (std::size_t k = shift_max + 1; k-- > 0;) {
        const BigInt<2 * N> shifted = m.shl(k);
        if (v >= shifted)
            v.subInPlace(shifted);
    }
    BigInt<N> r{};
    for (std::size_t i = 0; i < N; ++i)
        r.limb[i] = v.limb[i];
    return r;
}

/** Slow modular multiply built only from mulFull + slowMod. */
template <std::size_t N>
BigInt<N>
slowMulMod(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &p)
{
    return slowMod<N>(mulFull(a, b), p);
}

template <typename P>
class MontgomeryTest : public ::testing::Test
{
  protected:
    static constexpr std::size_t N = P::kLimbs;
    using B = BigInt<N>;

    B mod_ = B::fromLimbs(P::kModulus);
    B r_ = B::fromLimbs(P::kR);
    B r2_ = B::fromLimbs(P::kR2);
    Prng prng_{0xF1E1D};

    B randElem() { return B::randomBelow(prng_, mod_); }
};

using AllFieldParams =
    ::testing::Types<Bn254FqParams, Bn254FrParams, Bls377FqParams,
                     Bls377FrParams, Bls381FqParams, Bls381FrParams,
                     Mnt4753FqParams, Mnt4753FrParams>;
TYPED_TEST_SUITE(MontgomeryTest, AllFieldParams);

TYPED_TEST(MontgomeryTest, GeneratedConstantsConsistent)
{
    // R = 2^(64N) mod p: R * 1 (montgomery-multiplied) == 1 scaled
    // back; verify via slow arithmetic: R == slowMod(2^(64N)).
    constexpr std::size_t N = TypeParam::kLimbs;
    std::array<std::uint64_t, 2 * N> wide{};
    wide[N] = 1; // 2^(64N)
    EXPECT_EQ(slowMod<N>(wide, this->mod_), this->r_);
    // R2 == R * R mod p.
    EXPECT_EQ(slowMulMod(this->r_, this->r_, this->mod_), this->r2_);
    // inv64 * p == -1 mod 2^64.
    EXPECT_EQ(TypeParam::kInv64 * this->mod_.limb[0], ~0ull);
}

TYPED_TEST(MontgomeryTest, VariantsAgree)
{
    for (int iter = 0; iter < 60; ++iter) {
        const auto a = this->randElem();
        const auto b = this->randElem();
        const auto sos =
            montMulSOS(a, b, this->mod_, TypeParam::kInv64);
        const auto cios =
            montMulCIOS(a, b, this->mod_, TypeParam::kInv64);
        const auto fios =
            montMulFIOS(a, b, this->mod_, TypeParam::kInv64);
        EXPECT_EQ(sos, cios);
        EXPECT_EQ(sos, fios);
        EXPECT_LT(sos, this->mod_);
    }
}

TYPED_TEST(MontgomeryTest, MatchesSlowArithmetic)
{
    // montMul(a, b) * R == a * b (mod p), with both sides evaluated
    // by the independently tested slow path.
    for (int iter = 0; iter < 25; ++iter) {
        const auto a = this->randElem();
        const auto b = this->randElem();
        const auto mont =
            montMulCIOS(a, b, this->mod_, TypeParam::kInv64);
        const auto lhs = slowMulMod(mont, this->r_, this->mod_);
        const auto rhs = slowMulMod(a, b, this->mod_);
        EXPECT_EQ(lhs, rhs);
    }
}

TYPED_TEST(MontgomeryTest, MulByRIsIdentity)
{
    for (int iter = 0; iter < 25; ++iter) {
        const auto a = this->randElem();
        EXPECT_EQ(montMulCIOS(a, this->r_, this->mod_,
                              TypeParam::kInv64),
                  a);
    }
}

TYPED_TEST(MontgomeryTest, EdgeOperands)
{
    using B = BigInt<TypeParam::kLimbs>;
    const B zero = B::zero();
    B pm1 = this->mod_;
    pm1.subInPlace(B::fromU64(1));
    const B one = B::fromU64(1);
    for (const auto &a : {zero, one, pm1}) {
        for (const auto &b : {zero, one, pm1}) {
            const auto cios =
                montMulCIOS(a, b, this->mod_, TypeParam::kInv64);
            const auto sos =
                montMulSOS(a, b, this->mod_, TypeParam::kInv64);
            const auto fios =
                montMulFIOS(a, b, this->mod_, TypeParam::kInv64);
            EXPECT_EQ(cios, sos);
            EXPECT_EQ(cios, fios);
            EXPECT_LT(cios, this->mod_);
        }
    }
}

TYPED_TEST(MontgomeryTest, PowFermat)
{
    // a^(p-1) == 1 for a != 0 (Fermat's little theorem); exercises
    // montPow and, transitively, hundreds of multiplications.
    using B = BigInt<TypeParam::kLimbs>;
    const MontgomeryParams<TypeParam::kLimbs> params{
        this->mod_, TypeParam::kInv64, this->r_, this->r2_};
    B e = this->mod_;
    e.subInPlace(B::fromU64(1));
    for (int iter = 0; iter < 3; ++iter) {
        B a = this->randElem();
        if (a.isZero())
            a = B::fromU64(5);
        // Convert to Montgomery form first.
        const B am = montMulCIOS(a, this->r2_, this->mod_,
                                 TypeParam::kInv64);
        EXPECT_EQ(montPow(am, e, params), this->r_);
    }
}

TYPED_TEST(MontgomeryTest, ModInverse)
{
    using B = BigInt<TypeParam::kLimbs>;
    for (int iter = 0; iter < 10; ++iter) {
        B a = this->randElem();
        if (a.isZero())
            a = B::fromU64(7);
        const B inv = modInverse(a, this->mod_);
        EXPECT_TRUE(slowMulMod(a, inv, this->mod_).isU64(1));
    }
    // Inverse of one is one.
    EXPECT_TRUE(modInverse(B::fromU64(1), this->mod_).isU64(1));
}

TYPED_TEST(MontgomeryTest, MontReduceOfWideValue)
{
    // montReduce(t) == t * R^-1 mod p, verified as
    // montReduce(t) * R == t (mod p).
    constexpr std::size_t N = TypeParam::kLimbs;
    for (int iter = 0; iter < 20; ++iter) {
        // t = a * b with a, b < p keeps t < p * R as required.
        const auto a = this->randElem();
        const auto b = this->randElem();
        const auto t = mulFull(a, b);
        const auto red =
            montReduce<N>(t, this->mod_, TypeParam::kInv64);
        EXPECT_EQ(slowMulMod(red, this->r_, this->mod_),
                  slowMod<N>(t, this->mod_));
    }
}

template <typename P>
class MontgomeryAdxTest : public MontgomeryTest<P>
{
};

using FourLimbFieldParams =
    ::testing::Types<Bn254FqParams, Bn254FrParams, Bls377FrParams,
                     Bls381FrParams>;
TYPED_TEST_SUITE(MontgomeryAdxTest, FourLimbFieldParams);

TYPED_TEST(MontgomeryAdxTest, AdxMatchesCios)
{
#if defined(__x86_64__)
    if (!montAdxSupported())
        GTEST_SKIP() << "this CPU lacks BMI2 or ADX";
    using B = BigInt<4>;
    const B &p = this->mod_;
    const auto check = [&](const B &a, const B &b) {
        const B adx = montMulAdx4(a, b, p, TypeParam::kInv64);
        EXPECT_EQ(adx, montMulCIOS(a, b, p, TypeParam::kInv64))
            << "a = " << a.toHex() << ", b = " << b.toHex();
        EXPECT_LT(adx, p);
    };
    B pm1 = p, pm2 = p;
    pm1.subInPlace(B::fromU64(1));
    pm2.subInPlace(B::fromU64(2));
    const B edges[] = {B::zero(), B::fromU64(1), B::fromU64(2), pm2,
                       pm1,       this->r_,      this->r2_};
    for (const B &a : edges) {
        for (const B &b : edges)
            check(a, b);
    }
    const long pairs = sweepCases(10000);
    for (long i = 0; i < pairs && !this->HasFailure(); ++i)
        check(this->randElem(), this->randElem());
#else
    GTEST_SKIP() << "the ADX kernel is built on x86-64 only";
#endif
}

} // namespace
} // namespace distmsm
