/**
 * @file
 * Short-Weierstrass curve points in affine and XYZZ coordinates.
 *
 * The XYZZ system ("with ZZ" in the EFD; paper Section 2.2) represents
 * (x, y) as (X, Y, ZZ, ZZZ) with x = X/ZZ, y = Y/ZZZ and the
 * invariant ZZ^3 = ZZZ^2. A point with ZZ == 0 is the identity.
 *
 * Three operations drive MSM:
 *  - padd: full addition (paper Algorithm 1), 14 modular multiplies;
 *  - pacc: mixed accumulation of an affine point, the dedicated kernel
 *    of paper Algorithm 4, 10 modular multiplies;
 *  - pdbl: doubling.
 * Each handles the identity/equal/negative special cases that arise in
 * bucket accumulation.
 */

#ifndef DISTMSM_EC_POINT_H
#define DISTMSM_EC_POINT_H

#include "src/ec/op_counters.h"
#include "src/field/batch_inverse.h"
#include "src/support/check.h"

namespace distmsm {

/** Affine point; infinity flag marks the identity. */
template <typename Curve>
struct AffinePoint
{
    using Fq = typename Curve::Fq;

    Fq x;
    Fq y;
    bool infinity = true;

    static constexpr AffinePoint
    identity()
    {
        return AffinePoint{};
    }

    static constexpr AffinePoint
    fromXY(const Fq &x, const Fq &y)
    {
        AffinePoint p;
        p.x = x;
        p.y = y;
        p.infinity = false;
        return p;
    }

    constexpr AffinePoint
    negated() const
    {
        AffinePoint p = *this;
        if (!p.infinity)
            p.y = -p.y;
        return p;
    }

    /** y^2 == x^3 + a*x + b (identity counts as on-curve). */
    bool
    isOnCurve() const
    {
        if (infinity)
            return true;
        const Fq rhs = x.sqr() * x + Curve::a() * x + Curve::b();
        return y.sqr() == rhs;
    }

    constexpr bool
    operator==(const AffinePoint &o) const
    {
        if (infinity || o.infinity)
            return infinity == o.infinity;
        return x == o.x && y == o.y;
    }
};

/** XYZZ-coordinate point; ZZ == 0 marks the identity. */
template <typename Curve>
struct XYZZPoint
{
    using Fq = typename Curve::Fq;

    Fq x;
    Fq y;
    Fq zz;
    Fq zzz;

    static constexpr XYZZPoint
    identity()
    {
        return XYZZPoint{};
    }

    static constexpr XYZZPoint
    fromAffine(const AffinePoint<Curve> &p)
    {
        XYZZPoint r{};
        if (!p.infinity) {
            r.x = p.x;
            r.y = p.y;
            r.zz = Fq::one();
            r.zzz = Fq::one();
        }
        return r;
    }

    constexpr bool isIdentity() const { return zz.isZero(); }

    constexpr XYZZPoint
    negated() const
    {
        XYZZPoint r = *this;
        r.y = -r.y;
        return r;
    }

    /** Normalize to affine (one field inversion). */
    AffinePoint<Curve>
    toAffine() const
    {
        if (isIdentity())
            return AffinePoint<Curve>::identity();
        const Fq zz_inv = zz.inverse();
        const Fq zzz_inv = zzz.inverse();
        return AffinePoint<Curve>::fromXY(x * zz_inv, y * zzz_inv);
    }

    /** Equality as curve points (cross-multiplied, no inversion). */
    bool
    operator==(const XYZZPoint &o) const
    {
        if (isIdentity() || o.isIdentity())
            return isIdentity() == o.isIdentity();
        return x * o.zz == o.x * zz && y * o.zzz == o.y * zzz;
    }
};

/** Buffers of toAffineBatch, reused across one thread's calls. */
template <typename Fq>
struct AffineBatchScratch
{
    std::vector<Fq> denoms;
    std::vector<Fq> prefix;
    std::vector<std::uint8_t> skipped;
};

/**
 * Batch-normalize XYZZ points to affine form into
 * out[0, points.size()).
 * Identity points have zz == zzz == 0, which the zero-skipping batch
 * inversion routes around; their outputs are the affine identity.
 */
template <typename Curve>
void
toAffineBatch(const std::vector<XYZZPoint<Curve>> &points,
              AffinePoint<Curve> *out,
              AffineBatchScratch<typename Curve::Fq> &scratch)
{
    auto &denoms = scratch.denoms;
    denoms.clear();
    for (const auto &p : points) {
        denoms.push_back(p.zz);
        denoms.push_back(p.zzz);
    }
    batchInverseSkipZero(denoms, scratch.prefix, scratch.skipped);
    for (std::size_t i = 0; i < points.size(); ++i) {
        out[i] = scratch.skipped[2 * i]
                     ? AffinePoint<Curve>::identity()
                     : AffinePoint<Curve>::fromXY(
                           points[i].x * denoms[2 * i],
                           points[i].y * denoms[2 * i + 1]);
    }
}

/** toAffineBatch into a new vector, with call-local scratch. */
template <typename Curve>
std::vector<AffinePoint<Curve>>
toAffineBatch(const std::vector<XYZZPoint<Curve>> &points)
{
    std::vector<AffinePoint<Curve>> out(points.size());
    AffineBatchScratch<typename Curve::Fq> scratch;
    toAffineBatch<Curve>(points, out.data(), scratch);
    return out;
}

/** Point doubling (EFD dbl-2008-s-1 adapted for XYZZ). */
template <typename Curve>
XYZZPoint<Curve>
pdbl(const XYZZPoint<Curve> &p)
{
    using Fq = typename Curve::Fq;
    if (p.isIdentity())
        return p;
    if (p.y.isZero())
        return XYZZPoint<Curve>::identity();
    auto &ops = ec::opCounters();

    const Fq u = p.y.dbl();
    const Fq v = u.sqr();
    const Fq w = u * v;
    const Fq s = p.x * v;
    Fq m = p.x.sqr();
    m = m.dbl() + m; // 3 * X^2
    if constexpr (!Curve::kAIsZero)
        m += Curve::a() * p.zz.sqr();
    XYZZPoint<Curve> r;
    r.x = m.sqr() - s.dbl();
    r.y = m * (s - r.x) - w * p.y;
    r.zz = v * p.zz;
    r.zzz = w * p.zzz;
    ops.mul += Curve::kAIsZero ? 9 : 11;
    ops.sqr += Curve::kAIsZero ? 3 : 4; // V, M, X3 (+ ZZ^2 if a != 0)
    ops.add += 6;
    return r;
}

/**
 * Full point addition in XYZZ coordinates (paper Algorithm 1).
 * Handles identity operands, P + P (falls back to pdbl) and P + (-P).
 */
template <typename Curve>
XYZZPoint<Curve>
padd(const XYZZPoint<Curve> &p1, const XYZZPoint<Curve> &p2)
{
    using Fq = typename Curve::Fq;
    if (p1.isIdentity())
        return p2;
    if (p2.isIdentity())
        return p1;
    auto &ops = ec::opCounters();

    const Fq u1 = p1.x * p2.zz;
    const Fq u2 = p2.x * p1.zz;
    const Fq s1 = p1.y * p2.zzz;
    const Fq s2 = p2.y * p1.zzz;
    const Fq p = u2 - u1;
    const Fq r = s2 - s1;
    if (p.isZero()) {
        if (r.isZero())
            return pdbl(p1);
        return XYZZPoint<Curve>::identity();
    }
    const Fq pp = p.sqr();
    const Fq ppp = pp * p;
    const Fq q = u1 * pp;
    Fq v = r.sqr();
    v = v - ppp;
    v = v - q;
    XYZZPoint<Curve> out;
    out.x = v - q;
    const Fq t = q - out.x;
    out.y = r * t - s1 * ppp;
    const Fq zz = p1.zz * p2.zz;
    out.zz = zz * pp;
    const Fq zzz = p1.zzz * p2.zzz;
    out.zzz = zzz * ppp;
    ops.mul += 14;
    ops.sqr += 2; // PP and R^2
    ops.add += 7;
    return out;
}

/**
 * Dedicated point-accumulation kernel (paper Algorithm 4):
 * acc' = acc + P for an affine P (ZZ = ZZZ = 1), 10 modular
 * multiplies instead of 14.
 */
template <typename Curve>
XYZZPoint<Curve>
pacc(const XYZZPoint<Curve> &acc, const AffinePoint<Curve> &p)
{
    using Fq = typename Curve::Fq;
    if (p.infinity)
        return acc;
    if (acc.isIdentity())
        return XYZZPoint<Curve>::fromAffine(p);
    auto &ops = ec::opCounters();

    const Fq u2 = p.x * acc.zz;
    const Fq s2 = p.y * acc.zzz;
    const Fq pp_ = u2 - acc.x;
    const Fq r = s2 - acc.y;
    if (pp_.isZero()) {
        if (r.isZero())
            return pdbl(acc);
        return XYZZPoint<Curve>::identity();
    }
    const Fq pp = pp_.sqr();
    const Fq ppp = pp * pp_;
    const Fq q = acc.x * pp;
    Fq v = r.sqr();
    v = v - ppp;
    v = v - q;
    XYZZPoint<Curve> out;
    out.x = v - q;
    const Fq t = q - out.x;
    out.y = r * t - acc.y * ppp;
    out.zz = acc.zz * pp;
    out.zzz = acc.zzz * ppp;
    ops.mul += 10;
    ops.sqr += 2; // PP and R^2
    ops.add += 7;
    return out;
}

/** Scalar multiplication by a raw integer (double-and-add). */
template <typename Curve, typename Scalar>
XYZZPoint<Curve>
pmul(const XYZZPoint<Curve> &p, const Scalar &k)
{
    XYZZPoint<Curve> acc = XYZZPoint<Curve>::identity();
    for (std::size_t i = k.bitLength(); i-- > 0;) {
        acc = pdbl(acc);
        if (k.bit(i))
            acc = padd(acc, p);
    }
    return acc;
}

} // namespace distmsm

#endif // DISTMSM_EC_POINT_H
