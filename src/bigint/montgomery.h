/**
 * @file
 * Montgomery modular multiplication.
 *
 * Implements the three operand-scanning strategies analysed by
 * Koc, Acar and Kaliski ("Analyzing and Comparing Montgomery
 * Multiplication Algorithms"), which the paper cites as the standard
 * implementation space (Section 2.2):
 *
 *  - SOS  (Separated Operand Scanning): full 2N-limb product first,
 *    then N reduction sweeps. This is Algorithm 2 in the paper and the
 *    variant whose second wide multiplication (m * n) DistMSM deploys
 *    to tensor cores (src/tcmul).
 *  - CIOS (Coarsely Integrated Operand Scanning): multiplication and
 *    reduction interleaved per outer limb; the portable fast path.
 *  - FIOS (Finely Integrated Operand Scanning): both inner loops fused.
 *
 * On x86-64, montMulAdx4 is CIOS for 4 limbs in inline assembly with
 * MULX and the two carry flags (ADCX/ADOX); Fp dispatches to it when
 * the CPU has BMI2 and ADX.
 *
 * All variants assume inputs < modulus and R = 2^(64N), and return a
 * value < modulus. n0' ("inv64") is -modulus^-1 mod 2^64, the
 * substitution the paper highlights for reducing C * n' work.
 */

#ifndef DISTMSM_BIGINT_MONTGOMERY_H
#define DISTMSM_BIGINT_MONTGOMERY_H

#include <array>
#include <cstdint>

#include "src/bigint/bigint.h"
#include "src/bigint/squaring.h"
#include "src/support/check.h"

namespace distmsm {

/**
 * Montgomery context: the modulus together with its precomputed
 * reduction constants. One static instance exists per field.
 */
template <std::size_t N>
struct MontgomeryParams
{
    BigInt<N> modulus;
    /** -modulus^-1 mod 2^64. */
    std::uint64_t inv64;
    /** R mod modulus (the Montgomery form of 1). */
    BigInt<N> r;
    /** R^2 mod modulus (for conversion into Montgomery form). */
    BigInt<N> r2;
};

/** Final conditional subtraction shared by all reduction variants. */
template <std::size_t N>
constexpr BigInt<N>
montFinalSub(BigInt<N> t, std::uint64_t extra_bit, const BigInt<N> &mod)
{
    if (extra_bit != 0 || t >= mod)
        t.subInPlace(mod);
    return t;
}

/**
 * Montgomery reduction of a 2N-limb value: returns t * R^-1 mod m.
 * @p t must be < m * R (always true for products of reduced inputs).
 */
template <std::size_t N>
constexpr BigInt<N>
montReduce(std::array<std::uint64_t, 2 * N> t,
           const BigInt<N> &mod, std::uint64_t inv64)
{
    std::uint64_t overflow = 0;
    for (std::size_t i = 0; i < N; ++i) {
        const std::uint64_t m = t[i] * inv64;
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < N; ++j) {
            t[i + j] = mac(m, mod.limb[j], t[i + j], carry, carry);
        }
        // Propagate the sweep's carry through the upper limbs.
        for (std::size_t j = i + N; carry != 0; ++j) {
            if (j == 2 * N) {
                overflow += carry;
                break;
            }
            std::uint64_t c = carry;
            carry = 0;
            t[j] = addc(t[j], c, carry);
            c = 0;
        }
    }
    BigInt<N> r{};
    for (std::size_t i = 0; i < N; ++i)
        r.limb[i] = t[N + i];
    return montFinalSub(r, overflow, mod);
}

/** SOS Montgomery multiplication (paper Algorithm 2). */
template <std::size_t N>
constexpr BigInt<N>
montMulSOS(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &mod,
           std::uint64_t inv64)
{
    return montReduce<N>(mulFull(a, b), mod, inv64);
}

/** CIOS Montgomery multiplication; the portable fast path. */
template <std::size_t N>
constexpr BigInt<N>
montMulCIOS(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &mod,
            std::uint64_t inv64)
{
    std::uint64_t t[N + 2] = {};
    for (std::size_t i = 0; i < N; ++i) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < N; ++j)
            t[j] = mac(a.limb[j], b.limb[i], t[j], carry, carry);
        std::uint64_t c2 = 0;
        t[N] = addc(t[N], carry, c2);
        t[N + 1] = c2;

        const std::uint64_t m = t[0] * inv64;
        carry = 0;
        mac(m, mod.limb[0], t[0], carry, carry);
        for (std::size_t j = 1; j < N; ++j)
            t[j - 1] = mac(m, mod.limb[j], t[j], carry, carry);
        c2 = 0;
        t[N - 1] = addc(t[N], carry, c2);
        t[N] = t[N + 1] + c2;
    }
    BigInt<N> r{};
    for (std::size_t i = 0; i < N; ++i)
        r.limb[i] = t[i];
    return montFinalSub(r, t[N], mod);
}

/** FIOS Montgomery multiplication; fused inner loops. */
template <std::size_t N>
constexpr BigInt<N>
montMulFIOS(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &mod,
            std::uint64_t inv64)
{
    using U128 = unsigned __int128;
    std::uint64_t t[N + 1] = {};
    for (std::size_t i = 0; i < N; ++i) {
        U128 sum = static_cast<U128>(a.limb[0]) * b.limb[i] + t[0];
        const std::uint64_t m = static_cast<std::uint64_t>(sum) * inv64;
        U128 red = static_cast<U128>(m) * mod.limb[0] +
                   static_cast<std::uint64_t>(sum);
        std::uint64_t c1 = static_cast<std::uint64_t>(sum >> 64);
        std::uint64_t c2 = static_cast<std::uint64_t>(red >> 64);
        for (std::size_t j = 1; j < N; ++j) {
            sum = static_cast<U128>(a.limb[j]) * b.limb[i] + t[j] + c1;
            c1 = static_cast<std::uint64_t>(sum >> 64);
            red = static_cast<U128>(m) * mod.limb[j] +
                  static_cast<std::uint64_t>(sum) + c2;
            c2 = static_cast<std::uint64_t>(red >> 64);
            t[j - 1] = static_cast<std::uint64_t>(red);
        }
        const U128 tail = static_cast<U128>(t[N]) + c1 + c2;
        t[N - 1] = static_cast<std::uint64_t>(tail);
        t[N] = static_cast<std::uint64_t>(tail >> 64);
    }
    BigInt<N> r{};
    for (std::size_t i = 0; i < N; ++i)
        r.limb[i] = t[i];
    return montFinalSub(r, t[N], mod);
}

/**
 * Montgomery squaring via the dedicated big-integer square (each
 * cross product computed once and doubled; see bigint/squaring.h)
 * followed by a full SOS-style reduction sweep.
 */
template <std::size_t N>
constexpr BigInt<N>
montSqr(const BigInt<N> &a, const BigInt<N> &mod, std::uint64_t inv64)
{
    return montReduce<N>(sqrFull(a), mod, inv64);
}

/**
 * Largest top limb of a modulus for which the 4-limb CIOS below may
 * drop the (N+1)-th carry word ("no-carry" CIOS): with the top limb
 * below 2^63 - 1, every intermediate t stays below 2^256 and the
 * carry into limb N never overflows. Every 4-limb field here meets
 * it (Fp static_asserts so).
 */
inline constexpr std::uint64_t kMontNoCarryTopLimb = 0x7ffffffffffffffeull;

#if defined(__x86_64__)

/**
 * True when this CPU has BMI2 (MULX) and ADX (ADCX/ADOX), the
 * instructions montMulAdx4 uses. Detected once per process; the CPU
 * model is initialized here because a dynamic initializer may
 * multiply before main runs.
 */
inline bool
montAdxSupported()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("bmi2") &&
               __builtin_cpu_supports("adx");
    }();
    return supported;
}

/**
 * 4-limb no-carry CIOS Montgomery multiplication with MULX and two
 * independent carry chains (ADCX on CF, ADOX on OF). Returns the same
 * fully reduced product as montMulCIOS for a, b < mod, provided
 * mod.limb[3] <= kMontNoCarryTopLimb; requires montAdxSupported().
 * Each outer step adds a * b[i] into t (lo words on OF, hi words on
 * CF), then adds m * mod with m = t[0] * inv64 and shifts t down one
 * limb; the final conditional subtraction is a borrow and cmov.
 * Always inlined: GCC sizes an asm statement by its line count and
 * would otherwise call it, paying a return through memory on every
 * product.
 */
[[gnu::always_inline]] inline BigInt<4>
montMulAdx4(const BigInt<4> &a, const BigInt<4> &b, const BigInt<4> &mod,
            std::uint64_t inv64)
{
    std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, lo = 0, hi = 0, s = 0;
    // t += m * mod, then t >>= 64, with m = t0 * inv64. hi holds
    // limb 4 of t on entry; s takes the new t0.
#define DISTMSM_MONT_ADX_REDUCE                                         \
    "movq %[inv], %%rdx\n\t"                                          \
    "imulq %[t0], %%rdx\n\t"                                          \
    "xorl %k[lo], %k[lo]\n\t"                                         \
    "mulxq 0(%[q]), %[lo], %[s]\n\t"                                  \
    "adcxq %[t0], %[lo]\n\t"                                          \
    "adcxq %[t1], %[s]\n\t"                                           \
    "mulxq 8(%[q]), %[lo], %[t1]\n\t"                                 \
    "adoxq %[lo], %[s]\n\t"                                           \
    "adcxq %[t2], %[t1]\n\t"                                          \
    "mulxq 16(%[q]), %[lo], %[t2]\n\t"                                \
    "adoxq %[lo], %[t1]\n\t"                                          \
    "adcxq %[t3], %[t2]\n\t"                                          \
    "mulxq 24(%[q]), %[lo], %[t3]\n\t"                                \
    "adoxq %[lo], %[t2]\n\t"                                          \
    "movl $0, %k[lo]\n\t"                                             \
    "adcxq %[lo], %[t3]\n\t"                                          \
    "adoxq %[hi], %[t3]\n\t"                                          \
    "movq %[s], %[t0]\n\t"
    // t += a * b[i]: lo words on the OF chain, hi words on CF; both
    // chains end in hi, the new limb 4.
#define DISTMSM_MONT_ADX_ROW(OFF)                                       \
    "movq " #OFF "(%[b]), %%rdx\n\t"                                  \
    "xorl %k[lo], %k[lo]\n\t"                                         \
    "mulxq 0(%[a]), %[lo], %[hi]\n\t"                                 \
    "adoxq %[lo], %[t0]\n\t"                                          \
    "adcxq %[hi], %[t1]\n\t"                                          \
    "mulxq 8(%[a]), %[lo], %[hi]\n\t"                                 \
    "adoxq %[lo], %[t1]\n\t"                                          \
    "adcxq %[hi], %[t2]\n\t"                                          \
    "mulxq 16(%[a]), %[lo], %[hi]\n\t"                                \
    "adoxq %[lo], %[t2]\n\t"                                          \
    "adcxq %[hi], %[t3]\n\t"                                          \
    "mulxq 24(%[a]), %[lo], %[hi]\n\t"                                \
    "adoxq %[lo], %[t3]\n\t"                                          \
    "movl $0, %k[lo]\n\t"                                             \
    "adcxq %[lo], %[hi]\n\t"                                          \
    "adoxq %[lo], %[hi]\n\t"
    __asm__(
        // Row 0 starts from t = 0: one plain ADD/ADC chain.
        "movq 0(%[b]), %%rdx\n\t"
        "mulxq 0(%[a]), %[t0], %[t1]\n\t"
        "mulxq 8(%[a]), %[lo], %[t2]\n\t"
        "addq %[lo], %[t1]\n\t"
        "mulxq 16(%[a]), %[lo], %[t3]\n\t"
        "adcq %[lo], %[t2]\n\t"
        "mulxq 24(%[a]), %[lo], %[hi]\n\t"
        "adcq %[lo], %[t3]\n\t"
        "adcq $0, %[hi]\n\t"
        DISTMSM_MONT_ADX_REDUCE
        DISTMSM_MONT_ADX_ROW(8)
        DISTMSM_MONT_ADX_REDUCE
        DISTMSM_MONT_ADX_ROW(16)
        DISTMSM_MONT_ADX_REDUCE
        DISTMSM_MONT_ADX_ROW(24)
        DISTMSM_MONT_ADX_REDUCE
        // t < 2 * mod: keep t - mod unless the subtraction borrows.
        "movq %[t0], %[lo]\n\t"
        "subq 0(%[q]), %[lo]\n\t"
        "movq %[t1], %[hi]\n\t"
        "sbbq 8(%[q]), %[hi]\n\t"
        "movq %[t2], %%rdx\n\t"
        "sbbq 16(%[q]), %%rdx\n\t"
        "movq %[t3], %[s]\n\t"
        "sbbq 24(%[q]), %[s]\n\t"
        "cmovncq %[lo], %[t0]\n\t"
        "cmovncq %[hi], %[t1]\n\t"
        "cmovncq %%rdx, %[t2]\n\t"
        "cmovncq %[s], %[t3]"
        : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
          [lo] "=&r"(lo), [hi] "=&r"(hi), [s] "=&r"(s)
        : [a] "r"(a.limb), [b] "r"(b.limb), [q] "r"(mod.limb),
          [inv] "rm"(inv64)
        : "rdx", "cc", "memory");
#undef DISTMSM_MONT_ADX_ROW
#undef DISTMSM_MONT_ADX_REDUCE
    return BigInt<4>{{t0, t1, t2, t3}};
}

#endif // __x86_64__

/**
 * Montgomery exponentiation: base (Montgomery form) raised to the raw
 * integer exponent @p e; returns Montgomery form.
 */
template <std::size_t N, std::size_t M>
constexpr BigInt<N>
montPow(const BigInt<N> &base, const BigInt<M> &e,
        const MontgomeryParams<N> &p)
{
    BigInt<N> acc = p.r; // Montgomery 1
    const std::size_t top = e.bitLength();
    for (std::size_t i = top; i-- > 0;) {
        acc = montSqr(acc, p.modulus, p.inv64);
        if (e.bit(i))
            acc = montMulCIOS(acc, base, p.modulus, p.inv64);
    }
    return acc;
}

/**
 * Modular inverse of @p a (raw form) modulo the odd prime @p mod via
 * the binary extended Euclidean algorithm. @p a must be non-zero.
 * Returns the raw-form inverse.
 */
template <std::size_t N>
BigInt<N>
modInverse(const BigInt<N> &a, const BigInt<N> &mod)
{
    DISTMSM_REQUIRE(!a.isZero(), "modInverse of zero");
    BigInt<N> u = a, v = mod;
    BigInt<N> x1 = BigInt<N>::fromU64(1), x2 = BigInt<N>::zero();

    auto halve_mod = [&](BigInt<N> &x) {
        // x = x/2 mod `mod` (mod odd): if x even shift, else (x+mod)/2
        // where the addition's carry becomes the result's top bit.
        std::uint64_t carry = 0;
        if (x.bit(0))
            carry = x.addInPlace(mod);
        x = x.shr(1);
        if (carry)
            x.limb[N - 1] |= std::uint64_t{1} << 63;
    };

    while (!u.isU64(1) && !v.isU64(1)) {
        while (!u.bit(0)) {
            u = u.shr(1);
            halve_mod(x1);
        }
        while (!v.bit(0)) {
            v = v.shr(1);
            halve_mod(x2);
        }
        if (u >= v) {
            u.subInPlace(v);
            x1 = subMod(x1, x2, mod);
        } else {
            v.subInPlace(u);
            x2 = subMod(x2, x1, mod);
        }
    }
    return u.isU64(1) ? x1 : x2;
}

} // namespace distmsm

#endif // DISTMSM_BIGINT_MONTGOMERY_H
