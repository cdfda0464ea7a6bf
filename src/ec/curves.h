/**
 * @file
 * The four curves evaluated in the paper (Table 1): BN254, BLS12-377,
 * BLS12-381 and MNT4753 (stand-in coefficients; see DESIGN.md).
 *
 * Each traits struct provides the base field Fq, scalar field Fr,
 * curve coefficients and a verified generator point.
 */

#ifndef DISTMSM_EC_CURVES_H
#define DISTMSM_EC_CURVES_H

#include "src/ec/point.h"
#include "src/field/curve_constants.h"
#include "src/field/field_params.h"

namespace distmsm {

/**
 * Expands one generated curve namespace into a traits struct.
 * subgroup_check makes decodePoint reject points outside the order-r
 * subgroup. It is set on BLS12-377 and BLS12-381, whose G1 has a
 * cofactor; BN254 G1 has cofactor 1, and the MNT4753 generator here
 * lies outside the subgroup itself, because its b is synthesized
 * (DESIGN.md Section 1).
 */
#define DISTMSM_CURVE(Name, ns, FqT, FrT, a_is_zero, subgroup_check)    \
    struct Name                                                         \
    {                                                                   \
        using Fq = FqT;                                                 \
        using Fr = FrT;                                                 \
        static constexpr unsigned kScalarBits =                         \
            constants::ns::kScalarBits;                                 \
        static constexpr bool kAIsZero = a_is_zero;                     \
        static constexpr bool kSubgroupCheck = subgroup_check;          \
        static constexpr const char *kName = #Name;                     \
        static constexpr Fq                                             \
        a()                                                             \
        {                                                               \
            return Fq::fromRaw(                                         \
                Fq::Base::fromLimbs(constants::ns::kA));                \
        }                                                               \
        static constexpr Fq                                             \
        b()                                                             \
        {                                                               \
            return Fq::fromRaw(                                         \
                Fq::Base::fromLimbs(constants::ns::kB));                \
        }                                                               \
        static AffinePoint<Name>                                        \
        generator()                                                     \
        {                                                               \
            return AffinePoint<Name>::fromXY(                           \
                Fq::fromRaw(Fq::Base::fromLimbs(constants::ns::kGx)),   \
                Fq::fromRaw(Fq::Base::fromLimbs(constants::ns::kGy)));  \
        }                                                               \
    }

DISTMSM_CURVE(Bn254, bn254, Bn254Fq, Bn254Fr, true, false);
DISTMSM_CURVE(Bls377, bls377, Bls377Fq, Bls377Fr, true, true);
DISTMSM_CURVE(Bls381, bls381, Bls381Fq, Bls381Fr, true, true);
DISTMSM_CURVE(Mnt4753, mnt4753, Mnt4753Fq, Mnt4753Fr, false, false);

#undef DISTMSM_CURVE

} // namespace distmsm

#endif // DISTMSM_EC_CURVES_H
