/**
 * @file
 * The BN254 G2 group: the sextic twist E'(Fp2): y^2 = x^3 + 3/(9+u).
 *
 * Real Groth16 proofs carry one element of G2 (that is what brings
 * the paper's proofs to ~127 bytes), and provers run one of their
 * MSMs over G2 points. The library's EC and MSM layers are generic
 * in the coordinate field, so this traits struct plus Fp2 is all G2
 * takes.
 *
 * The generator is derived at first use: the smallest-x point on the
 * twist, cleared by the BN cofactor h2 = 2p - r (for BN curves
 * #E'(Fp2) = r * (2p - r)), which puts it in the r-torsion subgroup
 * — required so that mod-r scalar arithmetic and the group law
 * commute. A test multiplies the generator by r and checks the
 * identity, pinning both the twist choice and the cofactor identity.
 */

#ifndef DISTMSM_EC_BN254_G2_H
#define DISTMSM_EC_BN254_G2_H

#include "src/ec/curves.h"
#include "src/field/fp2.h"

namespace distmsm {

/** u^2 = -1 in BN254's Fp2. */
struct Bn254Fq2Beta
{
    static constexpr Bn254Fq
    value()
    {
        return -Bn254Fq::one();
    }
};

using Bn254Fq2 = Fp2<Bn254Fq, Bn254Fq2Beta>;

/** BN254 G2 curve traits (compatible with the EC/MSM templates). */
struct Bn254G2
{
    using Fq = Bn254Fq2;
    using Fr = Bn254Fr;
    static constexpr unsigned kScalarBits = 254;
    static constexpr bool kAIsZero = true;
    /** decodePoint rejects twist points outside G2: the cofactor
     *  2p - r leaves almost every twist point outside it. */
    static constexpr bool kSubgroupCheck = true;
    static constexpr const char *kName = "BN254-G2";

    static Fq
    a()
    {
        return Fq::zero();
    }

    /** b' = 3 / (9 + u), the D-type sextic twist coefficient. */
    static Fq
    b()
    {
        static const Fq b2 = [] {
            const Fq xi{Bn254Fq::fromU64(9), Bn254Fq::one()};
            return Fq::fromU64(3) * xi.inverse();
        }();
        return b2;
    }

    /** The BN G2 cofactor h2 = 2p - r. */
    static BigInt<5>
    cofactor()
    {
        BigInt<5> h{};
        for (std::size_t i = 0; i < 4; ++i)
            h.limb[i] = Bn254Fq::modulus().limb[i];
        BigInt<5> p_wide = h;
        h.addInPlace(p_wide); // 2p
        BigInt<5> r_wide{};
        for (std::size_t i = 0; i < 4; ++i)
            r_wide.limb[i] = Bn254Fr::modulus().limb[i];
        h.subInPlace(r_wide);
        return h;
    }

    /** An r-torsion generator (cofactor-cleared smallest-x point). */
    static AffinePoint<Bn254G2>
    generator()
    {
        static const AffinePoint<Bn254G2> g = [] {
            for (std::uint64_t n = 1;; ++n) {
                // Try x = n + u to engage both coordinates.
                const Fq x{Bn254Fq::fromU64(n), Bn254Fq::one()};
                const Fq rhs = x.sqr() * x + b();
                if (!rhs.isSquare() || rhs.isZero())
                    continue;
                const auto p = AffinePoint<Bn254G2>::fromXY(
                    x, rhs.sqrt());
                const auto cleared =
                    pmul(XYZZPoint<Bn254G2>::fromAffine(p),
                         cofactor());
                if (cleared.isIdentity())
                    continue;
                return cleared.toAffine();
            }
        }();
        return g;
    }
};

} // namespace distmsm

#endif // DISTMSM_EC_BN254_G2_H
