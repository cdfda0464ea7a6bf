/**
 * @file
 * Random-linear-combination transfer checksums.
 *
 * Each simulated device appends an RLC digest to the partial sums it
 * ships to the host: D = sum_k [rho_k] S_k, with the rho_k drawn as
 * small (kRhoBits-bit) scalars from a seeded PRNG keyed by the
 * payload's global indices. The host re-derives D from the received
 * points and compares the two digests limb-for-limb — a flipped byte
 * anywhere in the payload (a coordinate or the digest itself)
 * changes the comparison. This is the same aggregation trick
 * zksnark/batch_verify.h uses to collapse a batch of pairing checks,
 * shrunk to a per-transfer integrity check: one extra scalar
 * multiplication per shipped point, priced as MsmTimeline::verifyNs.
 *
 * The digest is one [rho_k]S_k term per point, folded with padd in
 * payload order. The terms are independent, so rlcKeyedDigest can
 * compute them in one parallelFor and fold them serially: the
 * digest is limb-for-limb the same at every host-thread count.
 *
 * The rho width trades soundness against verification cost. 17 bits
 * (top bit forced so the chain length is fixed and rho is never
 * zero) keeps the digest under ~26 EC ops per point, which is what
 * holds the fault-free overhead below the 3%-of-totalNs acceptance
 * gate at 2^18 while still detecting every byte flip the seeded
 * injection sweep produces.
 */

#ifndef DISTMSM_MSM_CHECKSUM_H
#define DISTMSM_MSM_CHECKSUM_H

#include <cstdint>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <vector>

#include "src/bigint/bigint.h"
#include "src/ec/point.h"
#include "src/gpusim/faults.h"
#include "src/support/prng.h"
#include "src/support/thread_pool.h"

namespace distmsm::msm {

/** Width of the RLC coefficients (top bit forced). */
constexpr unsigned kRhoBits = 17;

/** EC ops (pdbl + expected padd) one [rho]P costs, for pricing. */
constexpr unsigned kRhoEcOps = kRhoBits + kRhoBits / 2;

/**
 * The RLC coefficient for payload index @p k under @p seed:
 * kRhoBits wide, top bit set, identical on the "device" (digest
 * before serialization) and the host (re-derivation after receipt).
 */
inline std::uint32_t
rlcRho(std::uint64_t seed, std::uint64_t k)
{
    Prng prng(seed ^ ((k + 1) * 0xD1B54A32D192ED03ull));
    const std::uint32_t low_mask = (1u << (kRhoBits - 1)) - 1;
    return (1u << (kRhoBits - 1)) |
           (static_cast<std::uint32_t>(prng()) & low_mask);
}

/**
 * D = sum_i [rho_{keys[i]}] points[i] — the only digest loop. Transfer
 * payloads are keyed by global window (or bucket) index rather than
 * a contiguous range, so the host re-derives the same rho for each
 * point no matter which device shipped it after a reshard. The
 * [rho]P terms run on up to @p host_threads threads, a resolved
 * width >= 1 (support::parallelFor; 1 is the serial loop), and fold
 * in payload order, so the digest does not depend on the width.
 * The digest's EC work is tallied into @p report (verifyEcOps) —
 * never into KernelStats or hostOps, so zero-fault simulator
 * statistics stay bit-identical to a build without checksums.
 */
template <typename Curve>
XYZZPoint<Curve>
rlcKeyedDigest(const std::vector<XYZZPoint<Curve>> &points,
               const std::vector<std::uint64_t> &keys,
               std::uint64_t seed,
               gpusim::FaultReport *report = nullptr,
               int host_threads = 1)
{
    using Scalar = BigInt<Curve::Fr::kLimbs>;
    std::vector<XYZZPoint<Curve>> terms(points.size());
    support::parallelFor(
        0, points.size(),
        [&](std::size_t i) {
            terms[i] = pmul(points[i],
                            Scalar::fromU64(rlcRho(seed, keys[i])));
        },
        host_threads);
    XYZZPoint<Curve> digest = XYZZPoint<Curve>::identity();
    for (const XYZZPoint<Curve> &term : terms)
        digest = padd(digest, term);
    if (report != nullptr) {
        report->verifyEcOps += points.size() * (kRhoEcOps + 1);
        report->checksummed += points.size();
    }
    return digest;
}

/** rlcKeyedDigest over the contiguous keys base_index, base_index +
 *  1, ... */
template <typename Curve>
XYZZPoint<Curve>
rlcDigest(const std::vector<XYZZPoint<Curve>> &points,
          std::uint64_t seed, std::uint64_t base_index,
          gpusim::FaultReport *report = nullptr)
{
    std::vector<std::uint64_t> keys(points.size());
    std::iota(keys.begin(), keys.end(), base_index);
    return rlcKeyedDigest(points, keys, seed, report);
}

/**
 * Serialize XYZZ points into the simulated transfer payload.
 * XYZZPoint is trivially copyable (four field elements, no
 * indirection), so the wire format is the in-memory limb layout —
 * exactly what a real cudaMemcpy of a device result buffer moves.
 */
template <typename Curve>
std::vector<std::uint8_t>
serializePoints(const std::vector<XYZZPoint<Curve>> &points)
{
    static_assert(
        std::is_trivially_copyable_v<XYZZPoint<Curve>>,
        "XYZZ transfer payloads rely on the raw limb layout");
    std::vector<std::uint8_t> bytes(points.size() *
                                    sizeof(XYZZPoint<Curve>));
    if (!bytes.empty())
        std::memcpy(bytes.data(), points.data(), bytes.size());
    return bytes;
}

template <typename Curve>
std::vector<XYZZPoint<Curve>>
deserializePoints(const std::vector<std::uint8_t> &bytes)
{
    std::vector<XYZZPoint<Curve>> points(bytes.size() /
                                         sizeof(XYZZPoint<Curve>));
    if (!points.empty())
        std::memcpy(points.data(), bytes.data(),
                    points.size() * sizeof(XYZZPoint<Curve>));
    return points;
}

/** Limb-level equality (operator== is only group equality). */
template <typename Curve>
bool
bitEqual(const XYZZPoint<Curve> &a, const XYZZPoint<Curve> &b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

} // namespace distmsm::msm

#endif // DISTMSM_MSM_CHECKSUM_H
