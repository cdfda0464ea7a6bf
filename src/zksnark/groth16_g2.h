/**
 * @file
 * The G2 half of Groth16.
 *
 * In the real protocol the proof element B lives in G2 (the
 * pairing's second source group); that is what makes a BN254 proof
 * ~127 bytes (two compressed G1 points + one compressed G2 point)
 * and why provers run one of their MSMs over G2. This header adds
 * that half on top of the G1 pipeline of groth16.h:
 *
 *  - extendSetupG2: [B_j(t)]G2, [beta]G2, [delta]G2 tables;
 *  - proveB2: B over G2 via a genuine G2 MSM with the same
 *    randomization s as the G1 proof;
 *  - verifyWithG2: the trapdoor-oracle checks plus B2's shadow;
 *  - a compressed wire encoding: 33 + 65 + 33 = 131 bytes on BN254.
 */

#ifndef DISTMSM_ZKSNARK_GROTH16_G2_H
#define DISTMSM_ZKSNARK_GROTH16_G2_H

#include <optional>

#include "src/ec/bn254_g2.h"
#include "src/msm/engine.h"
#include "src/zksnark/groth16.h"

namespace distmsm::zksnark {

/** G1/G2 group pair of a pairing-friendly curve. */
struct Bn254Pair
{
    using G1 = Bn254;
    using G2 = Bn254G2;
};

/** The G2 additions to a proving key. */
template <typename Pair>
struct ProvingKeyG2
{
    using G2 = typename Pair::G2;
    AffinePoint<G2> g2;
    AffinePoint<G2> betaG2, deltaG2;
    std::vector<AffinePoint<G2>> bPoints;
};

/** Build the G2 tables from the (scalar) proving key. */
template <typename Pair>
ProvingKeyG2<Pair>
extendSetupG2(const ProvingKey<typename Pair::G1> &pk)
{
    using G2 = typename Pair::G2;
    using Xyzz = XYZZPoint<G2>;
    ProvingKeyG2<Pair> ext;
    ext.g2 = G2::generator();
    const FixedBaseTable<G2> table(Xyzz::fromAffine(ext.g2),
                                   G2::kScalarBits);
    ext.betaG2 = table.mul(pk.beta.toRaw()).toAffine();
    ext.deltaG2 = table.mul(pk.delta.toRaw()).toAffine();
    std::vector<Xyzz> raw;
    raw.reserve(pk.bQuery.size());
    for (const auto &b : pk.bQuery)
        raw.push_back(table.mul(b.toRaw()));
    ext.bPoints = toAffineBatch<G2>(raw);
    return ext;
}

/**
 * B over G2: [beta]G2 + MSM(bPoints, wires) + [s]deltaG2, with the
 * same blinding s the G1 proof used.
 */
template <typename Pair>
XYZZPoint<typename Pair::G2>
proveB2(const ProvingKeyG2<Pair> &ext,
        const std::vector<typename Pair::G1::Fr> &wires,
        const typename Pair::G1::Fr &s_blind)
{
    using G2 = typename Pair::G2;
    using Xyzz = XYZZPoint<G2>;
    const Xyzz msm_part =
        detail::proverMsm<G2>(ext.bPoints, wires);
    Xyzz b2 = padd(Xyzz::fromAffine(ext.betaG2), msm_part);
    b2 = padd(b2, pmul(Xyzz::fromAffine(ext.deltaG2),
                       s_blind.toRaw()));
    return b2;
}

/** G1 checks plus the G2 element's shadow consistency. */
template <typename Pair>
bool
verifyWithG2(const VerifyingKey<typename Pair::G1> &vk,
             const Proof<typename Pair::G1> &proof,
             const XYZZPoint<typename Pair::G2> &b2,
             const std::vector<typename Pair::G1::Fr> &public_inputs)
{
    using G2 = typename Pair::G2;
    if (!verify<typename Pair::G1>(vk, proof, public_inputs))
        return false;
    const auto g2 =
        XYZZPoint<G2>::fromAffine(G2::generator());
    return b2 == pmul(g2, proof.bScalar.toRaw());
}

// ---------------------------------------------------------------
// Compressed G2 point encoding (BN254-specific layout): one flag
// byte + big-endian c1 then c0 of x. The flag records identity or
// which of {y, -y} is lexicographically larger (compared as
// (c1, c0) raw integers).
// ---------------------------------------------------------------

/** Bytes of a compressed Bn254 G2 point. */
constexpr std::size_t
encodedG2PointSize()
{
    return 1 + 2 * 32;
}

namespace g2detail {

inline void
appendFq(std::vector<std::uint8_t> &out, const Bn254Fq &v)
{
    const auto raw = v.toRaw();
    for (std::size_t i = 0; i < 32; ++i) {
        const std::size_t byte = 31 - i;
        out.push_back(static_cast<std::uint8_t>(
            raw.limb[byte / 8] >> (8 * (byte % 8))));
    }
}

inline Bn254Fq
readFq(const std::vector<std::uint8_t> &bytes, std::size_t off,
       bool &ok)
{
    BigInt<4> raw{};
    for (std::size_t i = 0; i < 32; ++i) {
        const std::size_t byte = 31 - i;
        raw.limb[byte / 8] |=
            static_cast<std::uint64_t>(bytes[off + i])
            << (8 * (byte % 8));
    }
    if (!(raw < Bn254Fq::modulus()))
        ok = false;
    return Bn254Fq::fromRaw(raw);
}

/** Lexicographic (c1, c0) comparison of raw representations. */
inline bool
lexGreater(const Bn254Fq2 &a, const Bn254Fq2 &b)
{
    const auto a1 = a.c1().toRaw(), b1 = b.c1().toRaw();
    if (!(a1 == b1))
        return b1 < a1;
    return b.c0().toRaw() < a.c0().toRaw();
}

} // namespace g2detail

/** Compress a Bn254 G2 point. */
inline std::vector<std::uint8_t>
encodeG2Point(const AffinePoint<Bn254G2> &p)
{
    std::vector<std::uint8_t> out;
    out.reserve(encodedG2PointSize());
    if (p.infinity) {
        out.assign(encodedG2PointSize(), 0);
        return out;
    }
    out.push_back(g2detail::lexGreater(p.y, -p.y) ? 3 : 2);
    g2detail::appendFq(out, p.x.c1());
    g2detail::appendFq(out, p.x.c0());
    return out;
}

/** Decompress; nullopt on malformed input. */
inline std::optional<AffinePoint<Bn254G2>>
decodeG2Point(const std::vector<std::uint8_t> &bytes)
{
    if (bytes.size() != encodedG2PointSize())
        return std::nullopt;
    if (bytes[0] == 0) {
        for (std::size_t i = 1; i < bytes.size(); ++i) {
            if (bytes[i] != 0)
                return std::nullopt;
        }
        return AffinePoint<Bn254G2>::identity();
    }
    if (bytes[0] != 2 && bytes[0] != 3)
        return std::nullopt;
    bool ok = true;
    const Bn254Fq c1 = g2detail::readFq(bytes, 1, ok);
    const Bn254Fq c0 = g2detail::readFq(bytes, 33, ok);
    if (!ok)
        return std::nullopt;
    const Bn254Fq2 x{c0, c1};
    const Bn254Fq2 rhs = x.sqr() * x + Bn254G2::b();
    if (!rhs.isSquare())
        return std::nullopt;
    Bn254Fq2 y = rhs.sqrt();
    const bool want_greater = bytes[0] == 3;
    if (g2detail::lexGreater(y, -y) != want_greater)
        y = -y;
    return AffinePoint<Bn254G2>::fromXY(x, y);
}

} // namespace distmsm::zksnark

#endif // DISTMSM_ZKSNARK_GROTH16_G2_H
