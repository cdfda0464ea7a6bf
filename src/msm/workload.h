/**
 * @file
 * MSM workload generation: pseudo-random point and scalar vectors.
 *
 * In the paper's setting the point vector is fixed (it comes from the
 * trusted setup) while scalars vary per proof. Points are generated
 * as the walk G, (k+1)G, (k+2)G, ... (one PACC each) and normalized
 * to affine with a single batched inversion, which scales to millions
 * of points; distribution does not matter for MSM correctness or
 * cost, only distinctness and curve membership do.
 */

#ifndef DISTMSM_MSM_WORKLOAD_H
#define DISTMSM_MSM_WORKLOAD_H

#include <vector>

#include "src/ec/point.h"
#include "src/support/prng.h"

namespace distmsm::msm {

/** @return n distinct affine points on @p Curve. */
template <typename Curve>
std::vector<AffinePoint<Curve>>
generatePoints(std::size_t n, Prng &prng)
{
    using Xyzz = XYZZPoint<Curve>;
    const AffinePoint<Curve> g = Curve::generator();

    // Random starting multiple, then a +G walk.
    auto start = BigInt<Curve::Fr::kLimbs>::random(prng);
    start.truncateToBits(Curve::kScalarBits - 1);
    start.setBit(1); // keep it >= 2 so the walk never hits G or O

    std::vector<Xyzz> walk;
    walk.reserve(n);
    Xyzz current = pmul(Xyzz::fromAffine(g), start);
    for (std::size_t i = 0; i < n; ++i) {
        walk.push_back(current);
        current = pacc(current, g);
    }

    // Batch-normalize: invert all ZZ and ZZZ in one pass.
    return toAffineBatch<Curve>(walk);
}

/** @return n uniformly random scalars of Curve::kScalarBits bits. */
template <typename Curve>
std::vector<BigInt<Curve::Fr::kLimbs>>
generateScalars(std::size_t n, Prng &prng)
{
    using Scalar = BigInt<Curve::Fr::kLimbs>;
    std::vector<Scalar> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        Scalar k = Scalar::random(prng);
        k.truncateToBits(Curve::kScalarBits);
        out.push_back(k);
    }
    return out;
}

} // namespace distmsm::msm

#endif // DISTMSM_MSM_WORKLOAD_H
