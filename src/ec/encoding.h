/**
 * @file
 * Compressed point encoding.
 *
 * zkSNARK deployments ship proofs over the wire ("proof sizes under
 * 1KB", 127 bytes in the paper's Table 4 setting), so points travel
 * compressed: the x coordinate in big-endian bytes plus one flag
 * byte carrying the identity marker and the parity of y. Decoding
 * recovers y as the square root of x^3 + ax + b with the recorded
 * parity.
 */

#ifndef DISTMSM_EC_ENCODING_H
#define DISTMSM_EC_ENCODING_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/ec/point.h"

namespace distmsm {

/** Encoded size in bytes for Curve: one flag byte + x coordinate. */
template <typename Curve>
constexpr std::size_t
encodedPointSize()
{
    return 1 + (Curve::Fq::Params::kBits + 7) / 8;
}

/** Flag-byte values. */
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
    std::vector<std::uint8_t> out(encodedPointSize<Curve>(), 0);
    if (p.infinity) {
        out[0] = static_cast<std::uint8_t>(PointFlag::Identity);
        return out;
    }
    out[0] = static_cast<std::uint8_t>(
        p.y.toRaw().bit(0) ? PointFlag::OddY : PointFlag::EvenY);
    const auto raw = p.x.toRaw();
    const std::size_t n_bytes = out.size() - 1;
    for (std::size_t i = 0; i < n_bytes; ++i) {
        const std::size_t byte = n_bytes - 1 - i;
        out[1 + i] = static_cast<std::uint8_t>(
            raw.limb[byte / 8] >> (8 * (byte % 8)));
    }
    return out;
}

/**
 * Decompress; returns nullopt for malformed input (bad flag, x not
 * on the curve, or x >= p) and, on curves whose kSubgroupCheck is
 * set, for a point outside the order-r subgroup ([r]P != O).
 */
template <typename Curve>
std::optional<AffinePoint<Curve>>
decodePoint(const std::vector<std::uint8_t> &bytes)
{
    using Fq = typename Curve::Fq;
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

    typename Fq::Base raw{};
    const std::size_t n_bytes = bytes.size() - 1;
    for (std::size_t i = 0; i < n_bytes; ++i) {
        const std::size_t byte = n_bytes - 1 - i;
        raw.limb[byte / 8] |= static_cast<std::uint64_t>(bytes[1 + i])
                              << (8 * (byte % 8));
    }
    if (!(raw < Fq::modulus()))
        return std::nullopt;

    const Fq x = Fq::fromRaw(raw);
    const Fq rhs = x.sqr() * x + Curve::a() * x + Curve::b();
    Fq y = Fq::zero(); // rhs == 0: a two-torsion point
    if (!rhs.isZero()) {
        if (rhs.legendre() != 1)
            return std::nullopt;
        y = rhs.sqrt();
        const bool want_odd =
            bytes[0] == static_cast<std::uint8_t>(PointFlag::OddY);
        if (y.toRaw().bit(0) != want_odd)
            y = -y;
    }
    const auto p = AffinePoint<Curve>::fromXY(x, y);
    if constexpr (Curve::kSubgroupCheck) {
        if (!pmul(XYZZPoint<Curve>::fromAffine(p), Curve::Fr::modulus())
                 .isIdentity())
            return std::nullopt;
    }
    return p;
}

} // namespace distmsm

#endif // DISTMSM_EC_ENCODING_H
