/**
 * @file
 * A Groth16-style prover pipeline.
 *
 * The paper's Table 4 measures end-to-end Groth16 proving (R1CS
 * constraints, BN254): the stages are NTT (the quotient polynomial),
 * MSM (the multi-exponentiations over the proving-key points — 78.2%
 * of the work) and "others". This module implements that pipeline
 * functionally: trusted setup from an explicit trapdoor, a prover
 * whose MSM backend is this library, and a verifier.
 *
 * Substitution note (see DESIGN.md): verification uses the setup
 * trapdoor instead of pairings. The proof carries discrete-log
 * "shadows" of its group elements; the verifier checks (1) that each
 * proof point really is [shadow]G — which pins every MSM the prover
 * ran — and (2) the Groth16 equation a*b = alpha*beta + ic*gamma +
 * c*delta in the scalar field, which holds exactly when the QAP
 * division was exact, i.e. the witness satisfies the R1CS. This is a
 * bit-exact test oracle for the prover's arithmetic, not a
 * cryptographic verifier (the real system hands proofs to libsnark).
 */

#ifndef DISTMSM_ZKSNARK_GROTH16_H
#define DISTMSM_ZKSNARK_GROTH16_H

#include <memory>
#include <vector>

#include "src/ec/point.h"
#include "src/ec/scalar_mul.h"
#include "src/msm/engine.h"
#include "src/msm/reference.h"
#include "src/support/status.h"
#include "src/support/timer.h"
#include "src/support/trace.h"
#include "src/zksnark/qap.h"

namespace distmsm::zksnark {

/** The toxic waste; kept by the test oracle, destroyed in practice. */
template <typename F>
struct Trapdoor
{
    F t, alpha, beta, gamma, delta;

    static Trapdoor
    random(Prng &prng)
    {
        return Trapdoor{F::random(prng), F::random(prng),
                        F::random(prng), F::random(prng),
                        F::random(prng)};
    }
};

/** Proving key: scalar tables plus the EC points the MSMs consume. */
template <typename Curve>
struct ProvingKey
{
    using F = typename Curve::Fr;
    using Affine = AffinePoint<Curve>;

    std::size_t numPublic = 0;
    F alpha, beta, delta;

    // Scalar (dlog) tables.
    std::vector<F> aQuery; ///< A_j(t), per wire
    std::vector<F> bQuery; ///< B_j(t), per wire
    std::vector<F> lQuery; ///< (beta A_j + alpha B_j + C_j)/delta, private wires
    std::vector<F> hQuery; ///< t^i Z(t)/delta, i < n-1

    // The corresponding curve points.
    Affine g;
    Affine alphaG, betaG, deltaG;
    std::vector<Affine> aPoints;
    std::vector<Affine> bPoints;
    std::vector<Affine> lPoints;
    std::vector<Affine> hPoints;
};

/** Verification key for the trapdoor oracle. */
template <typename Curve>
struct VerifyingKey
{
    using F = typename Curve::Fr;

    F alphaBeta; ///< alpha * beta
    F gamma, delta;
    std::vector<F> ic; ///< (beta A_j + alpha B_j + C_j)/gamma, public
};

/** A proof with its discrete-log shadows. */
template <typename Curve>
struct Proof
{
    XYZZPoint<Curve> a, b, c;
    typename Curve::Fr aScalar, bScalar, cScalar;
    /** Blinding randomness (kept so the G2 extension can rebuild B
     *  over G2 with the same randomization; see groth16_g2.h). */
    typename Curve::Fr rBlind, sBlind;
};

/** Wall-clock stage breakdown of one prove() call. */
struct ProverTiming
{
    double nttSeconds = 0.0;
    double msmSeconds = 0.0;
    double otherSeconds = 0.0;
    std::size_t msmPoints = 0; ///< total points across all MSMs
    std::size_t domainSize = 0;

    double
    totalSeconds() const
    {
        return nttSeconds + msmSeconds + otherSeconds;
    }
};

template <typename Curve>
struct KeyPair
{
    ProvingKey<Curve> pk;
    VerifyingKey<Curve> vk;
};

/**
 * Engine-backed MSM backend for prove(): one staged MsmEngine per
 * proving-key point table (A, B, L, H). Construct once per proving
 * key and pass to prove(); repeated proofs reuse the engines' staged
 * state, and with MsmOptions::precompute the fixed-base tables come
 * from the cross-proof BaseTableCache — even a freshly constructed
 * ProverEngines for the same proving key skips the table builds.
 * prove() without engines keeps the serial Pippenger reference.
 */
template <typename Curve>
struct ProverEngines
{
    using Engine = msm::MsmEngine<Curve>;

    std::unique_ptr<Engine> a, b, l, h;

    ProverEngines(const ProvingKey<Curve> &pk,
                  const gpusim::Cluster &cluster,
                  const msm::MsmOptions &options = msm::MsmOptions{})
    {
        auto make = [&](const std::vector<AffinePoint<Curve>> &pts)
            -> std::unique_ptr<Engine> {
            if (pts.empty())
                return nullptr;
            return std::make_unique<Engine>(pts, cluster, options);
        };
        a = make(pk.aPoints);
        b = make(pk.bPoints);
        l = make(pk.lPoints);
        h = make(pk.hPoints);
    }
};

namespace detail {

/** Fixed-base multiples [k]G as affine points, batched. */
template <typename Curve>
std::vector<AffinePoint<Curve>>
fixedBaseMultiples(const AffinePoint<Curve> &g,
                   const std::vector<typename Curve::Fr> &scalars)
{
    using Xyzz = XYZZPoint<Curve>;
    // One shared window table amortizes the generator's doublings
    // across the whole proving key.
    static thread_local const FixedBaseTable<Curve> table(
        Xyzz::fromAffine(g), Curve::kScalarBits);
    std::vector<Xyzz> raw;
    raw.reserve(scalars.size());
    for (const auto &k : scalars)
        raw.push_back(table.mul(k.toRaw()));

    return toAffineBatch<Curve>(raw);
}

/** MSM over Fr scalars via the serial Pippenger reference, or the
 *  staged engine when @p engine is non-null (the engine's result is
 *  bit-identical to the reference; pinned by the MSM KAT suite).
 *  Returns the typed Status of an unrecoverable injected fault
 *  (MsmEngine::tryCompute) instead of aborting. */
template <typename Curve>
support::StatusOr<XYZZPoint<Curve>>
tryProverMsm(const std::vector<AffinePoint<Curve>> &points,
             const std::vector<typename Curve::Fr> &scalars,
             const msm::MsmEngine<Curve> *engine = nullptr)
{
    DISTMSM_ASSERT(points.size() == scalars.size());
    std::vector<BigInt<Curve::Fr::kLimbs>> raw;
    raw.reserve(scalars.size());
    for (const auto &s : scalars)
        raw.push_back(s.toRaw());
    if (points.empty())
        return XYZZPoint<Curve>::identity();
    if (engine != nullptr) {
        support::StatusOr<msm::MsmResult<Curve>> result =
            engine->tryCompute(raw);
        if (!result.isOk())
            return result.status();
        return result->value;
    }
    return msm::msmSerialPippenger<Curve>(points, raw, 8);
}

/** tryProverMsm with the legacy hard-failure contract. */
template <typename Curve>
XYZZPoint<Curve>
proverMsm(const std::vector<AffinePoint<Curve>> &points,
          const std::vector<typename Curve::Fr> &scalars,
          const msm::MsmEngine<Curve> *engine = nullptr)
{
    support::StatusOr<XYZZPoint<Curve>> result =
        tryProverMsm(points, scalars, engine);
    DISTMSM_REQUIRE(result.isOk(),
                    result.status().toString().c_str());
    return *result;
}

} // namespace detail

/** Trusted setup for @p r1cs from an explicit trapdoor. */
template <typename Curve>
KeyPair<Curve>
setup(const R1cs<typename Curve::Fr> &r1cs,
      const Trapdoor<typename Curve::Fr> &trapdoor)
{
    using F = typename Curve::Fr;
    const auto ev = evaluateQapAt(r1cs, trapdoor.t);

    KeyPair<Curve> keys;
    ProvingKey<Curve> &pk = keys.pk;
    pk.numPublic = r1cs.numPublic();
    pk.alpha = trapdoor.alpha;
    pk.beta = trapdoor.beta;
    pk.delta = trapdoor.delta;
    pk.aQuery = ev.a;
    pk.bQuery = ev.b;

    const F gamma_inv = trapdoor.gamma.inverse();
    const F delta_inv = trapdoor.delta.inverse();

    VerifyingKey<Curve> &vk = keys.vk;
    vk.alphaBeta = trapdoor.alpha * trapdoor.beta;
    vk.gamma = trapdoor.gamma;
    vk.delta = trapdoor.delta;

    for (std::size_t j = 0; j < r1cs.numWires(); ++j) {
        const F combined = trapdoor.beta * ev.a[j] +
                           trapdoor.alpha * ev.b[j] + ev.c[j];
        if (j <= r1cs.numPublic()) {
            vk.ic.push_back(combined * gamma_inv);
        } else {
            pk.lQuery.push_back(combined * delta_inv);
        }
    }

    // H query: t^i * Z(t) / delta for i = 0 .. n-2.
    const F z_over_delta = ev.zt * delta_inv;
    F ti = F::one();
    for (std::size_t i = 0; i + 1 < ev.domainSize; ++i) {
        pk.hQuery.push_back(ti * z_over_delta);
        ti *= trapdoor.t;
    }

    // Materialize the EC point tables.
    pk.g = Curve::generator();
    const auto blind = detail::fixedBaseMultiples<Curve>(
        pk.g, {trapdoor.alpha, trapdoor.beta, trapdoor.delta});
    pk.alphaG = blind[0];
    pk.betaG = blind[1];
    pk.deltaG = blind[2];
    pk.aPoints = detail::fixedBaseMultiples<Curve>(pk.g, pk.aQuery);
    pk.bPoints = detail::fixedBaseMultiples<Curve>(pk.g, pk.bQuery);
    pk.lPoints = detail::fixedBaseMultiples<Curve>(pk.g, pk.lQuery);
    pk.hPoints = detail::fixedBaseMultiples<Curve>(pk.g, pk.hQuery);
    return keys;
}

/**
 * Produce a proof for @p wires (which must satisfy @p r1cs).
 * Stage times are reported through @p timing when non-null.
 *
 * Tracing: when @p trace is non-null (or DISTMSM_TRACE is set), the
 * NTT / MSM / other stage breakdown is emitted as spans on the
 * prover lane (support::tracelane::kProverPid). These spans use the
 * *host wall-clock* axis — they are real measured durations, not
 * simulated time, and are therefore excluded from the determinism
 * contract (see trace.h).
 *
 * Fault tolerance: when the MSM engines run under a fault plan
 * (MsmOptions::faults / DISTMSM_FAULT_SPEC), recoverable faults are
 * absorbed inside the engines and the proof is bit-identical to a
 * fault-free run; an unrecoverable fault surfaces as the typed
 * Status of the failing MSM — never a wrong proof, never an abort.
 */
template <typename Curve>
support::StatusOr<Proof<Curve>>
tryProve(const ProvingKey<Curve> &pk,
         const R1cs<typename Curve::Fr> &r1cs,
         const std::vector<typename Curve::Fr> &wires, Prng &prng,
         ProverTiming *timing = nullptr,
         support::TraceRecorder *trace = nullptr,
         const ProverEngines<Curve> *engines = nullptr)
{
    using F = typename Curve::Fr;
    using Xyzz = XYZZPoint<Curve>;
    DISTMSM_REQUIRE(r1cs.isSatisfied(wires),
                    "witness does not satisfy the constraint system");

    ProverTiming local;
    Timer timer;

    // --- NTT stage: the quotient polynomial h(x). ---
    const std::vector<F> h = computeQuotientH(r1cs, wires);
    local.nttSeconds = timer.seconds();
    local.domainSize = qapDomainSize(r1cs);

    // --- MSM stage: the four multi-exponentiations. Any engine hit
    // by an unrecoverable injected fault fails the whole proof with
    // its typed Status (first failing MSM in A, B, L, H order). ---
    timer.reset();
    const support::StatusOr<Xyzz> a_or = detail::tryProverMsm<Curve>(
        pk.aPoints, wires,
        engines != nullptr ? engines->a.get() : nullptr);
    if (!a_or.isOk())
        return a_or.status();
    const Xyzz a_base = *a_or;
    const support::StatusOr<Xyzz> b_or = detail::tryProverMsm<Curve>(
        pk.bPoints, wires,
        engines != nullptr ? engines->b.get() : nullptr);
    if (!b_or.isOk())
        return b_or.status();
    const Xyzz b_base = *b_or;
    const std::vector<F> private_wires(
        wires.begin() + pk.numPublic + 1, wires.end());
    const support::StatusOr<Xyzz> l_or = detail::tryProverMsm<Curve>(
        pk.lPoints, private_wires,
        engines != nullptr ? engines->l.get() : nullptr);
    if (!l_or.isOk())
        return l_or.status();
    const Xyzz l_base = *l_or;
    const support::StatusOr<Xyzz> h_or = detail::tryProverMsm<Curve>(
        pk.hPoints, h,
        engines != nullptr ? engines->h.get() : nullptr);
    if (!h_or.isOk())
        return h_or.status();
    const Xyzz h_base = *h_or;
    local.msmSeconds = timer.seconds();
    local.msmPoints = pk.aPoints.size() + pk.bPoints.size() +
                      pk.lPoints.size() + h.size();

    // --- Others: blinding and final combination. ---
    timer.reset();
    const F r = F::random(prng);
    const F s = F::random(prng);
    Proof<Curve> proof;
    proof.rBlind = r;
    proof.sBlind = s;

    // Scalar shadows.
    F aw = pk.alpha, bw = pk.beta;
    for (std::size_t j = 0; j < wires.size(); ++j) {
        aw += wires[j] * pk.aQuery[j];
        bw += wires[j] * pk.bQuery[j];
    }
    aw += r * pk.delta;
    bw += s * pk.delta;
    F cw = F::zero();
    for (std::size_t j = 0; j < private_wires.size(); ++j)
        cw += private_wires[j] * pk.lQuery[j];
    for (std::size_t i = 0; i < h.size(); ++i)
        cw += h[i] * pk.hQuery[i];
    cw += s * aw + r * bw - r * s * pk.delta;
    proof.aScalar = aw;
    proof.bScalar = bw;
    proof.cScalar = cw;

    // Group elements.
    const Xyzz delta_g = Xyzz::fromAffine(pk.deltaG);
    proof.a = padd(padd(Xyzz::fromAffine(pk.alphaG), a_base),
                   pmul(delta_g, r.toRaw()));
    proof.b = padd(padd(Xyzz::fromAffine(pk.betaG), b_base),
                   pmul(delta_g, s.toRaw()));
    Xyzz c = padd(l_base, h_base);
    c = padd(c, pmul(proof.a, s.toRaw()));
    c = padd(c, pmul(proof.b, r.toRaw()));
    c = padd(c, pmul(delta_g, (r * s).toRaw()).negated());
    proof.c = c;
    local.otherSeconds = timer.seconds();

    if (trace == nullptr)
        trace = support::globalTraceFromEnv();
    if (trace != nullptr) {
        namespace lane = support::tracelane;
        trace->labelProcess(lane::kProverPid,
                            "groth16 prover (wall-clock)");
        trace->labelThread(lane::kProverPid, lane::kComputeTid,
                           "stages");
        const double ntt_ns = local.nttSeconds * 1e9;
        const double msm_ns = local.msmSeconds * 1e9;
        const double other_ns = local.otherSeconds * 1e9;
        support::TraceArgs ntt_args;
        ntt_args.arg("domain_size",
                     static_cast<double>(local.domainSize));
        trace->span("ntt", "prover", lane::kProverPid,
                    lane::kComputeTid, 0.0, ntt_ns,
                    std::move(ntt_args));
        support::TraceArgs msm_args;
        msm_args.arg("msm_points",
                     static_cast<double>(local.msmPoints));
        trace->span("msm", "prover", lane::kProverPid,
                    lane::kComputeTid, ntt_ns, msm_ns,
                    std::move(msm_args));
        trace->span("other", "prover", lane::kProverPid,
                    lane::kComputeTid, ntt_ns + msm_ns, other_ns);
        auto &metrics = trace->metrics();
        metrics.add("prover/ntt_seconds", local.nttSeconds);
        metrics.add("prover/msm_seconds", local.msmSeconds);
        metrics.add("prover/other_seconds", local.otherSeconds);
        metrics.add("prover/msm_points",
                    static_cast<double>(local.msmPoints));
    }

    if (timing)
        *timing = local;
    return proof;
}

/** tryProve with the legacy hard-failure contract. */
template <typename Curve>
Proof<Curve>
prove(const ProvingKey<Curve> &pk,
      const R1cs<typename Curve::Fr> &r1cs,
      const std::vector<typename Curve::Fr> &wires, Prng &prng,
      ProverTiming *timing = nullptr,
      support::TraceRecorder *trace = nullptr,
      const ProverEngines<Curve> *engines = nullptr)
{
    support::StatusOr<Proof<Curve>> proof =
        tryProve(pk, r1cs, wires, prng, timing, trace, engines);
    DISTMSM_REQUIRE(proof.isOk(), proof.status().toString().c_str());
    return std::move(*proof);
}

/**
 * Trapdoor verification (test oracle; see the file comment).
 *
 * @param public_inputs wires 1 .. numPublic (without the leading 1).
 */
template <typename Curve>
bool
verify(const VerifyingKey<Curve> &vk, const Proof<Curve> &proof,
       const std::vector<typename Curve::Fr> &public_inputs)
{
    using F = typename Curve::Fr;
    using Xyzz = XYZZPoint<Curve>;
    if (public_inputs.size() + 1 != vk.ic.size())
        return false;

    // (1) The points must match their shadows: this pins every MSM
    // and point operation the prover performed.
    const Xyzz g = Xyzz::fromAffine(Curve::generator());
    if (!(proof.a == pmul(g, proof.aScalar.toRaw())) ||
        !(proof.b == pmul(g, proof.bScalar.toRaw())) ||
        !(proof.c == pmul(g, proof.cScalar.toRaw()))) {
        return false;
    }

    // (2) The Groth16 equation in the exponent.
    F ic = vk.ic[0];
    for (std::size_t i = 0; i < public_inputs.size(); ++i)
        ic += public_inputs[i] * vk.ic[i + 1];
    const F lhs = proof.aScalar * proof.bScalar;
    const F rhs = vk.alphaBeta + ic * vk.gamma +
                  proof.cScalar * vk.delta;
    return lhs == rhs;
}

} // namespace distmsm::zksnark

#endif // DISTMSM_ZKSNARK_GROTH16_H
