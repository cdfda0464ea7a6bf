/**
 * @file
 * Compressed point encoding.
 *
 * zkSNARK deployments ship proofs over the wire ("proof sizes under
 * 1KB", 127 bytes in the paper's Table 4 setting), so points travel
 * compressed: one flag byte carrying the identity marker or the sign
 * of y, then the x coordinate in big-endian bytes. Decoding recovers
 * y as the square root of x^3 + ax + b with the recorded sign. One
 * codec serves both coordinate fields through two per-field rules
 * (FieldCodec): how a coordinate is laid out in bytes, and which of
 * {y, -y} counts as the positive root.
 */

#ifndef DISTMSM_EC_ENCODING_H
#define DISTMSM_EC_ENCODING_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/ec/point.h"
#include "src/field/fp2.h"

namespace distmsm {

/**
 * Per-field encoding rules of a prime field: the canonical value in
 * big-endian bytes, and the parity of y as its sign.
 */
template <typename F>
struct FieldCodec
{
    static constexpr std::size_t kBytes = (F::Params::kBits + 7) / 8;

    static void
    write(const F &v, std::uint8_t *out)
    {
        const auto raw = v.toRaw();
        for (std::size_t i = 0; i < kBytes; ++i) {
            const std::size_t byte = kBytes - 1 - i;
            out[i] = static_cast<std::uint8_t>(raw.limb[byte / 8] >>
                                               (8 * (byte % 8)));
        }
    }

    /** nullopt for a non-canonical value (>= the modulus). */
    static std::optional<F>
    read(const std::uint8_t *in)
    {
        typename F::Base raw{};
        for (std::size_t i = 0; i < kBytes; ++i) {
            const std::size_t byte = kBytes - 1 - i;
            raw.limb[byte / 8] |= static_cast<std::uint64_t>(in[i])
                                  << (8 * (byte % 8));
        }
        if (!(raw < F::modulus()))
            return std::nullopt;
        return F::fromRaw(raw);
    }

    static bool sign(const F &y) { return y.toRaw().bit(0); }

    static bool isSquare(const F &v) { return v.legendre() != -1; }
};

/**
 * Per-field encoding rules of Fp2: c1 then c0, each by the base
 * field's rule, and "(c1, c0) of y is lexicographically greater
 * than that of -y" as the sign.
 */
template <typename F, typename BetaTag>
struct FieldCodec<Fp2<F, BetaTag>>
{
    using E = Fp2<F, BetaTag>;
    static constexpr std::size_t kBytes = 2 * FieldCodec<F>::kBytes;

    static void
    write(const E &v, std::uint8_t *out)
    {
        FieldCodec<F>::write(v.c1(), out);
        FieldCodec<F>::write(v.c0(), out + FieldCodec<F>::kBytes);
    }

    static std::optional<E>
    read(const std::uint8_t *in)
    {
        const auto c1 = FieldCodec<F>::read(in);
        const auto c0 = FieldCodec<F>::read(in + FieldCodec<F>::kBytes);
        if (!c1 || !c0)
            return std::nullopt;
        return E{*c0, *c1};
    }

    static bool
    sign(const E &y)
    {
        const E neg = -y;
        const auto a1 = y.c1().toRaw(), b1 = neg.c1().toRaw();
        if (!(a1 == b1))
            return b1 < a1;
        return neg.c0().toRaw() < y.c0().toRaw();
    }

    static bool isSquare(const E &v) { return v.isSquare(); }
};

/** Encoded size in bytes for Curve: one flag byte + x coordinate. */
template <typename Curve>
constexpr std::size_t
encodedPointSize()
{
    return 1 + FieldCodec<typename Curve::Fq>::kBytes;
}

/** Flag-byte values: 2 + the sign of y (FieldCodec::sign). */
enum class PointFlag : std::uint8_t
{
    Identity = 0,
    EvenY = 2,
    OddY = 3,
};

/** Compress @p p to flag byte + big-endian x. */
template <typename Curve>
std::vector<std::uint8_t>
encodePoint(const AffinePoint<Curve> &p)
{
    using Codec = FieldCodec<typename Curve::Fq>;
    std::vector<std::uint8_t> out(encodedPointSize<Curve>(), 0);
    if (p.infinity) {
        out[0] = static_cast<std::uint8_t>(PointFlag::Identity);
        return out;
    }
    out[0] = static_cast<std::uint8_t>(
        Codec::sign(p.y) ? PointFlag::OddY : PointFlag::EvenY);
    Codec::write(p.x, out.data() + 1);
    return out;
}

/**
 * Decompress; returns nullopt for malformed input (bad flag, x not
 * on the curve, or a non-canonical x) and, on curves whose
 * kSubgroupCheck is set, for a point outside the order-r subgroup
 * ([r]P != O).
 */
template <typename Curve>
std::optional<AffinePoint<Curve>>
decodePoint(const std::vector<std::uint8_t> &bytes)
{
    using Fq = typename Curve::Fq;
    using Codec = FieldCodec<Fq>;
    if (bytes.size() != encodedPointSize<Curve>())
        return std::nullopt;
    if (bytes[0] == static_cast<std::uint8_t>(PointFlag::Identity)) {
        for (std::size_t i = 1; i < bytes.size(); ++i) {
            if (bytes[i] != 0)
                return std::nullopt;
        }
        return AffinePoint<Curve>::identity();
    }
    if (bytes[0] != static_cast<std::uint8_t>(PointFlag::EvenY) &&
        bytes[0] != static_cast<std::uint8_t>(PointFlag::OddY)) {
        return std::nullopt;
    }

    const std::optional<Fq> x = Codec::read(bytes.data() + 1);
    if (!x)
        return std::nullopt;
    const Fq rhs = x->sqr() * *x + Curve::a() * *x + Curve::b();
    Fq y = Fq::zero(); // rhs == 0: a two-torsion point
    if (!rhs.isZero()) {
        if (!Codec::isSquare(rhs))
            return std::nullopt;
        y = rhs.sqrt();
        const bool want_sign =
            bytes[0] == static_cast<std::uint8_t>(PointFlag::OddY);
        if (Codec::sign(y) != want_sign)
            y = -y;
    }
    const auto p = AffinePoint<Curve>::fromXY(*x, y);
    if constexpr (Curve::kSubgroupCheck) {
        if (!pmul(XYZZPoint<Curve>::fromAffine(p), Curve::Fr::modulus())
                 .isIdentity())
            return std::nullopt;
    }
    return p;
}

} // namespace distmsm

#endif // DISTMSM_EC_ENCODING_H
