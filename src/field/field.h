/**
 * @file
 * Prime-field elements in Montgomery form.
 *
 * Fp<Params> wraps a BigInt in Montgomery representation and provides
 * the arithmetic the EC layer consumes. Params is a traits struct
 * (see field_params.h) carrying the modulus and reduction constants
 * generated by tools/gen_constants.py.
 */

#ifndef DISTMSM_FIELD_FIELD_H
#define DISTMSM_FIELD_FIELD_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "src/bigint/bigint.h"
#include "src/bigint/montgomery.h"
#include "src/bigint/squaring.h"
#include "src/ec/op_counters.h"
#include "src/field/backend.h"
#include "src/support/check.h"
#include "src/support/prng.h"
#include "src/tcmul/mont_tc.h"

namespace distmsm {

/**
 * An element of GF(p), stored in Montgomery form.
 *
 * @tparam P field parameter traits (see field_params.h).
 */
template <typename P>
class Fp
{
  public:
    using Params = P;
    static constexpr std::size_t kLimbs = P::kLimbs;
    using Base = BigInt<kLimbs>;

    /** The Montgomery context for this field. */
    static constexpr MontgomeryParams<kLimbs>
    mont()
    {
        return MontgomeryParams<kLimbs>{
            Base::fromLimbs(P::kModulus), P::kInv64,
            Base::fromLimbs(P::kR), Base::fromLimbs(P::kR2)};
    }

    /** The field modulus. */
    static constexpr Base modulus() { return Base::fromLimbs(P::kModulus); }

    constexpr Fp() : v_{} {}

    /** Additive identity. */
    static constexpr Fp zero() { return Fp{}; }

    /** Multiplicative identity. */
    static constexpr Fp
    one()
    {
        Fp r;
        r.v_ = Base::fromLimbs(P::kR);
        return r;
    }

    /** From a small integer. */
    static constexpr Fp
    fromU64(std::uint64_t v)
    {
        return fromRaw(Base::fromU64(v));
    }

    /** From a raw (non-Montgomery) integer < modulus. */
    static constexpr Fp
    fromRaw(const Base &raw)
    {
        Fp r;
        r.v_ = montMulCIOS(raw, Base::fromLimbs(P::kR2),
                           modulus(), P::kInv64);
        return r;
    }

    /** From hex text (raw value, reduced requirement on caller). */
    static Fp
    fromHex(std::string_view text)
    {
        return fromRaw(Base::fromHex(text));
    }

    /** Adopt an already-Montgomery-form representation. */
    static constexpr Fp
    fromMontgomery(const Base &m)
    {
        Fp r;
        r.v_ = m;
        return r;
    }

    /** Uniformly random field element. */
    static Fp
    random(Prng &prng)
    {
        Fp r;
        r.v_ = Base::randomBelow(prng, modulus());
        // The sampled value is interpreted directly as a Montgomery
        // representation; uniform either way.
        return r;
    }

    /** Raw (standard-form) integer value. */
    constexpr Base
    toRaw() const
    {
        std::array<std::uint64_t, 2 * kLimbs> wide{};
        for (std::size_t i = 0; i < kLimbs; ++i)
            wide[i] = v_.limb[i];
        return montReduce<kLimbs>(wide, modulus(), P::kInv64);
    }

    /** Montgomery-form representation (for the simulator layers). */
    constexpr const Base &montgomeryForm() const { return v_; }

    std::string toHex() const { return toRaw().toHex(); }

    constexpr bool isZero() const { return v_.isZero(); }
    constexpr bool operator==(const Fp &o) const { return v_ == o.v_; }

    constexpr Fp
    operator+(const Fp &o) const
    {
        Fp r;
        r.v_ = addMod(v_, o.v_, kMod);
        return r;
    }

    constexpr Fp
    operator-(const Fp &o) const
    {
        Fp r;
        r.v_ = subMod(v_, o.v_, kMod);
        return r;
    }

    constexpr Fp
    operator-() const
    {
        return zero() - *this;
    }

    /**
     * The per-field tensor-core Montgomery context (digit matrix of
     * the modulus, pre-permuted for compaction). Built once per
     * field on first use; thread-safe magic static.
     */
    static const tcmul::TcMontgomeryContext<kLimbs> &
    tcContext()
    {
        static const tcmul::TcMontgomeryContext<kLimbs> ctx(
            modulus(), P::kInv64);
        return ctx;
    }

    /**
     * Montgomery product. Every path returns the same fully reduced
     * value, in this order: constant evaluation takes CIOS; a thread
     * inside a field::TcBackendScope takes the tensor-core model
     * (field/backend.h), counted as tcMul; a 4-limb field on an
     * x86-64 CPU with BMI2 and ADX takes montMulAdx4; anything else
     * takes CIOS.
     */
    constexpr Fp
    operator*(const Fp &o) const
    {
        Fp r;
        if (std::is_constant_evaluated())
            r.v_ = montMulCIOS(v_, o.v_, modulus(), P::kInv64);
        else
            r.v_ = hostMul(v_, o.v_);
        return r;
    }

    constexpr Fp &operator+=(const Fp &o) { return *this = *this + o; }
    constexpr Fp &operator-=(const Fp &o) { return *this = *this - o; }
    constexpr Fp &operator*=(const Fp &o) { return *this = *this * o; }

    /**
     * Squaring. The dedicated square (sqrFull + one reduction,
     * bench_micro_field's BM_MontSqr row) halves the limb products
     * and wins from 6 limbs up (~1.25x on BLS12-377/381, ~1.5x on
     * MNT4753). At 4 limbs the product a * a is faster: the ADX
     * kernel where the CPU has it, else CIOS, whose interleaved
     * reduction beats the separate full square + reduce. Every
     * choice computes the same fully reduced Montgomery product, so
     * it is invisible to results.
     */
    constexpr Fp
    sqr() const
    {
        Fp r;
        if (std::is_constant_evaluated())
            r.v_ = montMulCIOS(v_, v_, modulus(), P::kInv64);
        else if (kLimbs >= 6 && !field::tcBackendActive())
            r.v_ = montSqr(v_, modulus(), P::kInv64);
        else
            r.v_ = hostMul(v_, v_);
        return r;
    }

    /** Doubling (x + x). */
    constexpr Fp dbl() const { return *this + *this; }

    /** Raise to a raw integer exponent. */
    template <std::size_t M>
    constexpr Fp
    pow(const BigInt<M> &e) const
    {
        Fp r;
        r.v_ = montPow(v_, e, mont());
        return r;
    }

    /** Multiplicative inverse; requires a non-zero element. */
    Fp
    inverse() const
    {
        DISTMSM_REQUIRE(!isZero(), "inverse of zero field element");
        // v_ = a*R; inv(v_) = a^-1 R^-1; multiply by R^2 twice to get
        // a^-1 * R (Montgomery form of a^-1).
        Base inv = modInverse(v_, modulus());
        Fp r;
        r.v_ = montMulCIOS(inv, Base::fromLimbs(P::kR2), modulus(),
                           P::kInv64);
        r.v_ = montMulCIOS(r.v_, Base::fromLimbs(P::kR2), modulus(),
                           P::kInv64);
        return r;
    }

    /** Legendre symbol: 1 (QR), -1 (QNR) or 0, as an int. */
    int
    legendre() const
    {
        if (isZero())
            return 0;
        Base e = modulus();
        e.subInPlace(Base::fromU64(1));
        e = e.shr(1);
        const Fp l = pow(e);
        if (l == one())
            return 1;
        return -1;
    }

    /**
     * Square root via Tonelli-Shanks; requires a quadratic residue
     * (legendre() == 1) or zero. Returns the lexicographically smaller
     * root.
     */
    Fp
    sqrt() const
    {
        if (isZero())
            return zero();
        DISTMSM_REQUIRE(legendre() == 1, "sqrt of a non-residue");
        // Write p - 1 = q * 2^s with q odd.
        Base q = modulus();
        q.subInPlace(Base::fromU64(1));
        unsigned s = 0;
        while (!q.bit(0)) {
            q = q.shr(1);
            ++s;
        }
        Fp z = fromU64(P::kQnrSmall);
        Fp c = z.pow(q);
        Fp t = pow(q);
        Base qp1 = q;
        qp1.addInPlace(Base::fromU64(1));
        Fp r = pow(qp1.shr(1));
        unsigned m = s;
        while (!(t == one())) {
            Fp t2i = t;
            unsigned i = 0;
            for (i = 1; i < m; ++i) {
                t2i = t2i.sqr();
                if (t2i == one())
                    break;
            }
            Fp b = c;
            for (unsigned k = 0; k + i + 1 < m; ++k)
                b = b.sqr();
            m = i;
            c = b.sqr();
            t = t * c;
            r = r * b;
        }
        // Normalize: return min(r, p - r) in raw representation.
        const Fp neg = -r;
        return neg.toRaw() < r.toRaw() ? neg : r;
    }

  private:
    static_assert(kLimbs != 4 || P::kModulus[3] <= kMontNoCarryTopLimb,
                  "4-limb moduli must meet the no-carry CIOS bound");

    /** The modulus as one static object, so the 4-limb add, sub and
     *  multiply kernels read it from memory instead of each call
     *  storing it to the stack first. */
    static constexpr Base kMod = Base::fromLimbs(P::kModulus);

    /**
     * The tensor-core model's product, counted as tcMul. It has no
     * dedicated squaring (the digit matrix is built from the
     * constant operand), so squares take it too.
     */
    [[gnu::noinline]] static Base
    tcMul(const Base &a, const Base &b)
    {
        ++ec::opCounters().tcMul;
        return tcmul::montMulTC(a, b, tcContext());
    }

    /** CIOS out of line, the fallback beside the ADX kernel. */
    [[gnu::noinline]] static Base
    ciosMul(const Base &a, const Base &b)
    {
        return montMulCIOS(a, b, modulus(), P::kInv64);
    }

    /** The runtime product (see operator*). */
    static Base
    hostMul(const Base &a, const Base &b)
    {
        if (field::tcBackendActive())
            return tcMul(a, b);
#if defined(__x86_64__)
        if constexpr (kLimbs == 4) {
            if (montAdxSupported())
                return montMulAdx4(a, b, kMod, P::kInv64);
            return ciosMul(a, b);
        }
#endif
        return montMulCIOS(a, b, modulus(), P::kInv64);
    }

    Base v_;
};

} // namespace distmsm

#endif // DISTMSM_FIELD_FIELD_H
