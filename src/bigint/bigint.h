/**
 * @file
 * Fixed-width little-endian big integers.
 *
 * BigInt<N> is an N-limb (64-bit limbs) unsigned integer. It is the
 * storage type for field elements of every supported curve: N = 4
 * covers 254/255-bit values, N = 6 covers 377/381-bit values and
 * N = 12 covers 753-bit values.
 *
 * The type is a trivially copyable aggregate so arrays of points can
 * be memcpy'd into the simulated device memories.
 */

#ifndef DISTMSM_BIGINT_BIGINT_H
#define DISTMSM_BIGINT_BIGINT_H

#include <array>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/support/hex.h"
#include "src/support/prng.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace distmsm {

/**
 * Add with carry-in (0 or 1); returns the sum and sets @p carry to
 * the carry-out. On x86-64 it is one ADC on the CPU's carry flag.
 */
inline std::uint64_t
addc(std::uint64_t a, std::uint64_t b, std::uint64_t &carry)
{
#if defined(__x86_64__)
    unsigned long long s = 0;
    carry = _addcarry_u64(static_cast<unsigned char>(carry), a, b, &s);
    return s;
#else
    const unsigned __int128 s =
        static_cast<unsigned __int128>(a) + b + carry;
    carry = static_cast<std::uint64_t>(s >> 64);
    return static_cast<std::uint64_t>(s);
#endif
}

/**
 * Subtract with borrow-in (0 or 1); returns the difference and sets
 * @p borrow (0/1). On x86-64 it is one SBB on the CPU's carry flag.
 */
inline std::uint64_t
subb(std::uint64_t a, std::uint64_t b, std::uint64_t &borrow)
{
#if defined(__x86_64__)
    unsigned long long d = 0;
    borrow = _subborrow_u64(static_cast<unsigned char>(borrow), a, b, &d);
    return d;
#else
    const unsigned __int128 d = static_cast<unsigned __int128>(a) - b -
                                borrow;
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    return static_cast<std::uint64_t>(d);
#endif
}

/** a * b + c + d without overflow; returns low limb, sets @p hi. */
inline std::uint64_t
mac(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d,
    std::uint64_t &hi)
{
    const unsigned __int128 t =
        static_cast<unsigned __int128>(a) * b + c + d;
    hi = static_cast<std::uint64_t>(t >> 64);
    return static_cast<std::uint64_t>(t);
}

/**
 * Fixed-width unsigned integer with N 64-bit limbs, little-endian.
 */
template <std::size_t N>
struct BigInt
{
    static_assert(N >= 1);

    /** Number of limbs. */
    static constexpr std::size_t kLimbs = N;
    /** Width in bits. */
    static constexpr std::size_t kBits = 64 * N;

    std::uint64_t limb[N];

    /** The zero value. */
    static constexpr BigInt
    zero()
    {
        return BigInt{};
    }

    /** Value from a single 64-bit word. */
    static constexpr BigInt
    fromU64(std::uint64_t v)
    {
        BigInt r{};
        r.limb[0] = v;
        return r;
    }

    /** Value from a little-endian limb array. */
    static constexpr BigInt
    fromLimbs(const std::uint64_t *src)
    {
        BigInt r{};
        for (std::size_t i = 0; i < N; ++i)
            r.limb[i] = src[i];
        return r;
    }

    /** Parse from hex ("0x" optional); returns zero on failure. */
    static BigInt
    fromHex(std::string_view text)
    {
        BigInt r{};
        hexToLimbs(text, r.limb, N);
        return r;
    }

    /** Uniformly random value over the full 64*N-bit range. */
    static BigInt
    random(Prng &prng)
    {
        BigInt r{};
        for (std::size_t i = 0; i < N; ++i)
            r.limb[i] = prng();
        return r;
    }

    /** Uniformly random value strictly below @p bound (bound != 0). */
    static BigInt
    randomBelow(Prng &prng, const BigInt &bound)
    {
        // Rejection sampling from [0, 2^ceil(log2 bound)).
        const std::size_t bits = bound.bitLength();
        BigInt r;
        do {
            r = random(prng);
            r.truncateToBits(bits);
        } while (r >= bound);
        return r;
    }

    constexpr bool
    isZero() const
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (limb[i] != 0)
                return false;
        }
        return true;
    }

    /** true when the value fits in 64 bits and equals @p v. */
    constexpr bool
    isU64(std::uint64_t v) const
    {
        if (limb[0] != v)
            return false;
        for (std::size_t i = 1; i < N; ++i) {
            if (limb[i] != 0)
                return false;
        }
        return true;
    }

    constexpr bool
    operator==(const BigInt &o) const
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (limb[i] != o.limb[i])
                return false;
        }
        return true;
    }

    constexpr std::strong_ordering
    operator<=>(const BigInt &o) const
    {
        for (std::size_t i = N; i-- > 0;) {
            if (limb[i] != o.limb[i])
                return limb[i] <=> o.limb[i];
        }
        return std::strong_ordering::equal;
    }

    /** Bit @p i (0 = least significant). */
    constexpr bool
    bit(std::size_t i) const
    {
        return (limb[i / 64] >> (i % 64)) & 1;
    }

    /** Set bit @p i to 1. */
    constexpr void
    setBit(std::size_t i)
    {
        limb[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    /** Position of the highest set bit plus one; 0 for the zero value. */
    constexpr std::size_t
    bitLength() const
    {
        for (std::size_t i = N; i-- > 0;) {
            if (limb[i] != 0)
                return 64 * i + 64 - std::countl_zero(limb[i]);
        }
        return 0;
    }

    /**
     * Extract @p width bits starting at bit @p offset (width <= 64).
     * Bits beyond the top are read as zero. This is the scalar-window
     * extraction used by Pippenger's algorithm.
     */
    constexpr std::uint64_t
    bits(std::size_t offset, std::size_t width) const
    {
        if (offset >= kBits || width == 0)
            return 0;
        const std::size_t li = offset / 64;
        const std::size_t sh = offset % 64;
        std::uint64_t v = limb[li] >> sh;
        if (sh != 0 && li + 1 < N)
            v |= limb[li + 1] << (64 - sh);
        if (width < 64)
            v &= (std::uint64_t{1} << width) - 1;
        return v;
    }

    /** Zero all bits at positions >= @p bits. */
    constexpr void
    truncateToBits(std::size_t bits)
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (64 * i >= bits) {
                limb[i] = 0;
            } else if (64 * (i + 1) > bits) {
                limb[i] &= (std::uint64_t{1} << (bits % 64)) - 1;
            }
        }
    }

    /** this += o; returns the carry-out. */
    constexpr std::uint64_t
    addInPlace(const BigInt &o)
    {
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < N; ++i)
            limb[i] = addc(limb[i], o.limb[i], carry);
        return carry;
    }

    /** this -= o; returns the borrow-out (0 or 1). */
    constexpr std::uint64_t
    subInPlace(const BigInt &o)
    {
        std::uint64_t borrow = 0;
        for (std::size_t i = 0; i < N; ++i)
            limb[i] = subb(limb[i], o.limb[i], borrow);
        return borrow;
    }

    /** Logical right shift by @p k bits (k < 64*N). */
    constexpr BigInt
    shr(std::size_t k) const
    {
        BigInt r{};
        const std::size_t limb_shift = k / 64;
        const std::size_t bit_shift = k % 64;
        for (std::size_t i = 0; i + limb_shift < N; ++i) {
            r.limb[i] = limb[i + limb_shift] >> bit_shift;
            if (bit_shift != 0 && i + limb_shift + 1 < N)
                r.limb[i] |= limb[i + limb_shift + 1] << (64 - bit_shift);
        }
        return r;
    }

    /** Logical left shift by @p k bits (k < 64*N); high bits drop. */
    constexpr BigInt
    shl(std::size_t k) const
    {
        BigInt r{};
        const std::size_t limb_shift = k / 64;
        const std::size_t bit_shift = k % 64;
        for (std::size_t i = N; i-- > limb_shift;) {
            r.limb[i] = limb[i - limb_shift] << bit_shift;
            if (bit_shift != 0 && i > limb_shift) {
                r.limb[i] |=
                    limb[i - limb_shift - 1] >> (64 - bit_shift);
            }
        }
        return r;
    }

    /** Render as 0x-prefixed hex. */
    std::string
    toHex() const
    {
        return hexFromLimbs(limb, N);
    }
};

/** Full 2N-limb product of two N-limb integers (schoolbook). */
template <std::size_t N>
constexpr std::array<std::uint64_t, 2 * N>
mulFull(const BigInt<N> &a, const BigInt<N> &b)
{
    std::array<std::uint64_t, 2 * N> t{};
    for (std::size_t i = 0; i < N; ++i) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; j < N; ++j)
            t[i + j] = mac(a.limb[i], b.limb[j], t[i + j], carry, carry);
        t[i + N] = carry;
    }
    return t;
}

/**
 * Low N limbs of a * b (wrapping, i.e. the product mod 2^(64N)).
 * With values read as two's complement this is exact signed
 * arithmetic mod 2^(64N) — the representation the GLV decomposition
 * uses for its short lattice coordinates.
 */
template <std::size_t N>
constexpr BigInt<N>
mulLow(const BigInt<N> &a, const BigInt<N> &b)
{
    BigInt<N> t{};
    for (std::size_t i = 0; i < N; ++i) {
        std::uint64_t carry = 0;
        for (std::size_t j = 0; i + j < N; ++j)
            t.limb[i + j] =
                mac(a.limb[i], b.limb[j], t.limb[i + j], carry,
                    carry);
    }
    return t;
}

/**
 * (a + b) mod m, assuming a, b < m. Both a + b and a + b - m are
 * computed and one is selected by mask, so no branch depends on the
 * operands.
 */
template <std::size_t N>
constexpr BigInt<N>
addMod(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &m)
{
    BigInt<N> s{}, d{};
    std::uint64_t carry = 0, borrow = 0;
    for (std::size_t i = 0; i < N; ++i)
        s.limb[i] = addc(a.limb[i], b.limb[i], carry);
    for (std::size_t i = 0; i < N; ++i)
        d.limb[i] = subb(s.limb[i], m.limb[i], borrow);
    // The carry is limb N of the sum: a + b < m exactly when the
    // (N+1)-limb subtraction still borrows there.
    subb(carry, 0, borrow);
    const std::uint64_t keep_sum = 0 - borrow;
    for (std::size_t i = 0; i < N; ++i)
        d.limb[i] ^= (s.limb[i] ^ d.limb[i]) & keep_sum;
    return d;
}

/**
 * (a - b) mod m, assuming a, b < m: m is added back under the
 * borrow mask, with no branch on the operands.
 */
template <std::size_t N>
constexpr BigInt<N>
subMod(const BigInt<N> &a, const BigInt<N> &b, const BigInt<N> &m)
{
    BigInt<N> d{};
    std::uint64_t borrow = 0, carry = 0;
    for (std::size_t i = 0; i < N; ++i)
        d.limb[i] = subb(a.limb[i], b.limb[i], borrow);
    const std::uint64_t add_mod = 0 - borrow;
    for (std::size_t i = 0; i < N; ++i)
        d.limb[i] = addc(d.limb[i], m.limb[i] & add_mod, carry);
    return d;
}

} // namespace distmsm

#endif // DISTMSM_BIGINT_BIGINT_H
