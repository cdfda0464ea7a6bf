#!/usr/bin/env python3
"""Generate src/field/curve_constants.h.

Every numeric constant used by the field and curve layers is derived here
from the (primality-checked) moduli, so no constant is hand-transcribed.
Run from the repository root:

    python3 tools/gen_constants.py > src/field/curve_constants.h
"""

import random
import sys


def is_prime(n, k=48):
    if n < 2:
        return False
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(0xD15713)
    for _ in range(k):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a, p):
    return pow(a, (p - 1) // 2, p)


def tonelli(n, p):
    """Square root of n mod p (p odd prime, n a QR)."""
    assert legendre(n, p) == 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    if s == 1:
        return pow(n, (p + 1) // 4, p)
    z = 2
    while legendre(z, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2i, i = t, 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def smallest_qnr(p):
    """Smallest quadratic non-residue of GF(p).

    A QNR z suffices everywhere a full group generator would be used:
    Tonelli-Shanks needs a QNR, and w = z^((p-1)/2^s) has exact
    multiplicative order 2^s because z^((p-1)/2) = -1.
    """
    z = 2
    while legendre(z, p) != p - 1:
        z += 1
    return z


def ec_add(P, Q, p, a):
    """Affine short-Weierstrass addition; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_mul(k, P, p, a):
    acc = None
    while k:
        if k & 1:
            acc = ec_add(acc, P, p, a)
        P = ec_add(P, P, p, a)
        k >>= 1
    return acc


def limbs(x, n):
    out = []
    for _ in range(n):
        out.append(x & 0xFFFFFFFFFFFFFFFF)
        x >>= 64
    assert x == 0
    return out


def fmt_limbs(x, n):
    ls = limbs(x, n)
    return ", ".join("0x%016xull" % l for l in ls)


FIELDS = {
    # name: (modulus, limbs)
    "bn254_fq": (
        21888242871839275222246405745257275088696311157297823662689037894645226208583,
        4,
    ),
    "bn254_fr": (
        21888242871839275222246405745257275088548364400416034343698204186575808495617,
        4,
    ),
    "bls377_fq": (
        0x01AE3A4617C510EAC63B05C06CA1493B1A22D9F300F5138F1EF3622FBA094800170B5D44300000008508C00000000001,
        6,
    ),
    "bls377_fr": (
        0x12AB655E9A2CA55660B44D1E5C37B00159AA76FED00000010A11800000000001,
        4,
    ),
    "bls381_fq": (
        0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB,
        6,
    ),
    "bls381_fr": (
        0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001,
        4,
    ),
    "mnt4753_fq": (
        41898490967918953402344214791240637128170709919953949071783502921025352812571106773058893763790338921418070971888253786114353726529584385201591605722013126468931404347949840543007986327743462853720628051692141265303114721689601,
        12,
    ),
    "mnt4753_fr": (
        41898490967918953402344214791240637128170709919953949071783502921025352812571106773058893763790338921418070971888458477323173057491593855069696241854796396165721416325350064441470418137846398469611935719059908164220784476160001,
        12,
    ),
}

# curve name: (fq field, fr field, a, b, scalar_bits)
CURVES = {
    "bn254": ("bn254_fq", "bn254_fr", 0, 3, 254),
    "bls377": ("bls377_fq", "bls377_fr", 0, 1, 253),
    "bls381": ("bls381_fq", "bls381_fr", 0, 4, 255),
    "mnt4753": ("mnt4753_fq", "mnt4753_fr", 2, 1, 753),
}

# Cofactor of the order-r subgroup (h = #E(Fq) / r) for the curves
# whose generated generator must be cofactor-cleared into the
# r-torsion: the GLV eigenvalue relation lambda*P == phi(P) only
# holds there. h is the one published parameter not derivable from
# the moduli alone; both values are asserted below (h*r*G == O and
# r*(h*G) == O).
COFACTORS = {
    "bn254": 1,
    # (x - 1)^2 / 3 for the BLS12-377 parameter x = 0x8508c00000000001.
    "bls377": 0x170B5D44300000000000000000000000,
    "bls381": 0x396C8C005555E1568C00AAAB0000AAAB,
}

# Curves that get GLV endomorphism constants (j == 0, a == 0).
GLV_CURVES = ["bn254", "bls381"]

# |k1|, |k2| bound (bits) asserted for every GLV decomposition.
GLV_HALF_SCALAR_BITS = 128


def curve_generator(name):
    """Generator point of CURVES[name], cofactor-cleared when the
    smallest-x point is not already in the order-r subgroup."""
    fq, fr, a, b, _ = CURVES[name]
    p = FIELDS[fq][0]
    r = FIELDS[fr][0]
    x = 1
    while True:
        rhs = (x * x * x + a * x + b) % p
        if rhs != 0 and legendre(rhs, p) == 1:
            y = tonelli(rhs, p)
            y = min(y, p - y)
            break
        x += 1
    assert (y * y - (x * x * x + a * x + b)) % p == 0
    h = COFACTORS.get(name)
    if h is not None:
        assert ec_mul(h * r, (x, y), p, a) is None, name
        if h != 1:
            x, y = ec_mul(h, (x, y), p, a)
        assert ec_mul(r, (x, y), p, a) is None, name
    return x, y


def glv_lattice_basis(lam, r):
    """Short basis of {(c, d) : c + d*lam == 0 mod r}: collect the
    extended-Euclid remainder vectors (r_i, -t_i), keep the two
    shortest independent ones (max-norm), orient det = +r."""
    rows = [(1, 0, r), (0, 1, lam)]
    while rows[-1][2] != 0:
        q = rows[-2][2] // rows[-1][2]
        rows.append(
            tuple(rows[-2][i] - q * rows[-1][i] for i in range(3))
        )
    cands = []
    for s, t, rem in rows:
        if rem == 0:
            continue
        assert (rem + (-t) * lam) % r == 0
        cands.append((rem, -t))
    cands.sort(key=lambda v: max(abs(v[0]), abs(v[1])))
    v1 = cands[0]
    v2 = next(
        v for v in cands if v1[0] * v[1] - v1[1] * v[0] != 0
    )
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det < 0:
        v2 = (-v2[0], -v2[1])
        det = -det
    assert det == r, "basis determinant must be +-r"
    bound = 1 << GLV_HALF_SCALAR_BITS
    for v in (v1, v2):
        assert max(abs(v[0]), abs(v[1])) < bound
    return v1, v2


def rnd_div(num, den):
    """round(num / den) to nearest, den > 0, num may be negative."""
    q, rem = divmod(num, den)
    return q + (1 if 2 * rem >= den else 0)


def glv_constants(name):
    """Derive (beta, lambda, basis, g1, g2) and validate that the
    exact integer transcription of msm/glv.h's decomposition stays
    within GLV_HALF_SCALAR_BITS and round-trips mod r."""
    fq, fr, a, _, sbits = CURVES[name]
    p = FIELDS[fq][0]
    r = FIELDS[fr][0]
    assert a == 0, "GLV cube-root endomorphism needs a == 0"

    # Roots of x^2 + x + 1: lambda mod r, beta mod p.
    sq_r = tonelli(r - 3, r)
    sq_p = tonelli(p - 3, p)
    lams = [(-1 + s) * pow(2, -1, r) % r for s in (sq_r, r - sq_r)]
    betas = [(-1 + s) * pow(2, -1, p) % p for s in (sq_p, p - sq_p)]

    # Pick the consistent (beta, lambda) pair against the generator:
    # lambda * G == (beta * Gx, Gy).
    gx, gy = curve_generator(name)
    pair = None
    for lam in lams:
        qx, qy = ec_mul(lam, (gx, gy), p, a)
        assert qy in (gy, p - gy)
        if qy != gy:
            continue
        for beta in betas:
            if qx == beta * gx % p:
                pair = (beta, lam)
    assert pair is not None, "no consistent (beta, lambda) pair"
    beta, lam = pair
    assert pow(beta, 3, p) == 1 and beta != 1
    assert pow(lam, 3, r) == 1 and lam != 1

    (a1, b1), (a2, b2) = glv_lattice_basis(lam, r)
    m = 384  # fixed-point shift of the rounding multipliers
    g1 = rnd_div(b2 << m, r)
    g2 = rnd_div(-b1 << m, r)

    def decompose(k):
        # Exact-integer model of glv.h: reduce, estimate the lattice
        # coordinates via the precomputed multipliers, subtract.
        k %= r
        c1 = (k * abs(g1) + (1 << (m - 1))) >> m
        c2 = (k * abs(g2) + (1 << (m - 1))) >> m
        if g1 < 0:
            c1 = -c1
        if g2 < 0:
            c2 = -c2
        k1 = k - c1 * a1 - c2 * a2
        k2 = -c1 * b1 - c2 * b2
        return k1, k2

    rng = random.Random(0x61B5)
    samples = [0, 1, 2, r - 1, r - lam, lam, r >> 1]
    samples += [(1 << sbits) - 1, 1 << (sbits - 1)]
    samples += [rng.randrange(0, 1 << sbits) for _ in range(4000)]
    bound = 1 << GLV_HALF_SCALAR_BITS
    for k in samples:
        k1, k2 = decompose(k)
        assert (k1 + k2 * lam - k) % r == 0, hex(k)
        assert abs(k1) < bound and abs(k2) < bound, hex(k)
    return beta, lam, (a1, b1), (a2, b2), g1, g2


def emit_field(name, p, n, out):
    assert is_prime(p), name
    bits = p.bit_length()
    r = pow(2, 64 * n, p)
    r2 = r * r % p
    inv64 = (-pow(p, -1, 1 << 64)) % (1 << 64)
    t, s = p - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = smallest_qnr(p)
    w = pow(z, (p - 1) >> s, p)
    out.append("namespace %s {" % name)
    out.append("inline constexpr std::size_t kLimbs = %d;" % n)
    out.append("inline constexpr unsigned kBits = %d;" % bits)
    out.append("inline constexpr unsigned kTwoAdicity = %d;" % s)
    out.append("inline constexpr std::uint64_t kInv64 = 0x%016xull;" % inv64)
    out.append("inline constexpr std::uint64_t kQnrSmall = %d;" % z)
    for cname, val in [
        ("kModulus", p),
        ("kR", r),
        ("kR2", r2),
        ("kRootOfUnity", w),
    ]:
        out.append(
            "inline constexpr std::uint64_t %s[%d] = {%s};"
            % (cname, n, fmt_limbs(val, n))
        )
    out.append("} // namespace %s" % name)
    out.append("")


def emit_curve(name, fq, fr, a, b, sbits, out):
    p = FIELDS[fq][0]
    n = FIELDS[fq][1]
    # Generator: smallest x >= 1 with x^3 + ax + b a QR, then
    # cofactor-cleared into the order-r subgroup where h is known.
    x, y = curve_generator(name)
    assert (y * y - (x * x * x + a * x + b)) % p == 0
    out.append("namespace %s {" % name)
    out.append("inline constexpr unsigned kScalarBits = %d;" % sbits)
    for cname, val in [("kA", a), ("kB", b), ("kGx", x), ("kGy", y)]:
        out.append(
            "inline constexpr std::uint64_t %s[%d] = {%s};"
            % (cname, n, fmt_limbs(val, n))
        )
    out.append("} // namespace %s" % name)
    out.append("")


def emit_glv(name, out):
    fq, fr, _, _, _ = CURVES[name]
    nq = FIELDS[fq][1]
    nr = FIELDS[fr][1]
    beta, lam, (a1, b1), (a2, b2), g1, g2 = glv_constants(name)
    out.append("namespace %s_glv {" % name)
    out.append(
        "inline constexpr unsigned kHalfScalarBits = %d;"
        % GLV_HALF_SCALAR_BITS
    )
    out.append(
        "inline constexpr std::uint64_t kBeta[%d] = {%s};"
        % (nq, fmt_limbs(beta, nq))
    )
    out.append(
        "inline constexpr std::uint64_t kLambda[%d] = {%s};"
        % (nr, fmt_limbs(lam, nr))
    )
    for cname, val in [
        ("kA1", a1),
        ("kB1", b1),
        ("kA2", a2),
        ("kB2", b2),
    ]:
        out.append(
            "inline constexpr std::uint64_t %s[%d] = {%s};"
            % (cname, nr, fmt_limbs(abs(val), nr))
        )
        out.append(
            "inline constexpr bool %sNeg = %s;"
            % (cname, "true" if val < 0 else "false")
        )
    for cname, val in [("kG1", g1), ("kG2", g2)]:
        out.append(
            "inline constexpr std::uint64_t %s[%d] = {%s};"
            % (cname, 2 * nr, fmt_limbs(abs(val), 2 * nr))
        )
        out.append(
            "inline constexpr bool %sNeg = %s;"
            % (cname, "true" if val < 0 else "false")
        )
    out.append("} // namespace %s_glv" % name)
    out.append("")


def main():
    out = []
    out.append("// Generated by tools/gen_constants.py -- do not edit.")
    out.append("//")
    out.append("// Field and curve constants for BN254, BLS12-377,")
    out.append("// BLS12-381 and MNT4753 (stand-in curve coefficients for")
    out.append("// MNT4753; see DESIGN.md). All limbs little-endian base")
    out.append("// 2^64; values are raw (not Montgomery form).")
    out.append("#ifndef DISTMSM_FIELD_CURVE_CONSTANTS_H")
    out.append("#define DISTMSM_FIELD_CURVE_CONSTANTS_H")
    out.append("")
    out.append("#include <cstddef>")
    out.append("#include <cstdint>")
    out.append("")
    out.append("namespace distmsm::constants {")
    out.append("")
    for name, (p, n) in FIELDS.items():
        emit_field(name, p, n, out)
    for name, (fq, fr, a, b, sbits) in CURVES.items():
        emit_curve(name, fq, fr, a, b, sbits, out)
    for name in GLV_CURVES:
        emit_glv(name, out)
    out.append("} // namespace distmsm::constants")
    out.append("")
    out.append("#endif // DISTMSM_FIELD_CURVE_CONSTANTS_H")
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
