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
 *  - verifyWithG2: the trapdoor-oracle checks plus B2's shadow.
 *
 * G2 points compress through the same ec/encoding.h codec as G1
 * points: 33 + 65 + 33 = 131 bytes on the wire on BN254.
 */

#ifndef DISTMSM_ZKSNARK_GROTH16_G2_H
#define DISTMSM_ZKSNARK_GROTH16_G2_H

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

} // namespace distmsm::zksnark

#endif // DISTMSM_ZKSNARK_GROTH16_G2_H
