/**
 * @file
 * Batch field inversion (Montgomery's trick).
 *
 * Inverts n field elements with one modular inversion and about 3n
 * multiplications; used to normalize large point arrays to affine
 * form and to amortize the inversion of the batched-affine bucket
 * accumulator's slope denominators. The hot-path callers loop over
 * many small batches, so every variant takes a caller-owned scratch
 * buffer that is grown once and reused across calls.
 *
 * batchInverse runs four lanes: element i belongs to lane i mod 4,
 * and each lane keeps its own prefix chain. A field multiply is a
 * long dependent chain, so the four independent chains overlap in
 * the CPU where one chain would wait on each product. One inversion
 * of the four lane products serves every lane. An inverse is unique,
 * so the lanes change no result bit.
 */

#ifndef DISTMSM_FIELD_BATCH_INVERSE_H
#define DISTMSM_FIELD_BATCH_INVERSE_H

#include <cstdint>
#include <vector>

#include "src/support/check.h"

namespace distmsm {

/**
 * Replace every element of @p values with its inverse, reusing
 * @p scratch for the lanes' prefix products (resized as needed,
 * capacity kept across calls). All elements must be non-zero; a zero
 * is rejected before any element is written.
 */
template <typename Fq>
void
batchInverse(std::vector<Fq> &values, std::vector<Fq> &scratch)
{
    constexpr std::size_t kLanes = 4;
    const std::size_t n = values.size();
    if (n == 0)
        return;
    // scratch[i + 4] is the product of values[i], values[i - 4], ...
    // down to its lane's first element; scratch[0..3] hold one, the
    // product of an empty lane.
    scratch.resize(n + kLanes);
    Fq acc[kLanes] = {Fq::one(), Fq::one(), Fq::one(), Fq::one()};
    for (std::size_t k = 0; k < kLanes; ++k)
        scratch[k] = acc[k];
    for (std::size_t i = 0; i < n; i += kLanes) {
        for (std::size_t k = 0; k < kLanes && i + k < n; ++k) {
            acc[k] *= values[i + k];
            scratch[i + k + kLanes] = acc[k];
        }
    }
    const Fq low = acc[0] * acc[1];
    const Fq high = acc[2] * acc[3];
    const Fq total = low * high;
    // A product of field elements is zero exactly when a factor is.
    DISTMSM_REQUIRE(!total.isZero(), "batchInverse of zero element");
    const Fq inv_total = total.inverse();
    const Fq inv_low = inv_total * high;
    const Fq inv_high = inv_total * low;
    // inv[k] is the inverse of lane k's running product.
    Fq inv[kLanes] = {inv_low * acc[1], inv_low * acc[0],
                      inv_high * acc[3], inv_high * acc[2]};
    for (std::size_t i = (n - 1) / kLanes * kLanes + kLanes; i > 0;) {
        i -= kLanes;
        for (std::size_t k = kLanes; k-- > 0;) {
            if (i + k >= n)
                continue;
            const Fq this_inv = inv[k] * scratch[i + k];
            inv[k] *= values[i + k];
            values[i + k] = this_inv;
        }
    }
}

/** Convenience overload with a call-local scratch buffer. */
template <typename Fq>
void
batchInverse(std::vector<Fq> &values)
{
    std::vector<Fq> scratch;
    batchInverse(values, scratch);
}

/**
 * Zero-tolerant batch inversion: zero elements are left as zero and
 * flagged in @p skipped (resized to values.size(); 1 = skipped).
 * Every non-zero element is replaced with its inverse. Returns the
 * number of skipped slots. Used where zeros encode routed-out edge
 * cases (identity points, equal-x additions) rather than errors.
 */
template <typename Fq>
std::size_t
batchInverseSkipZero(std::vector<Fq> &values,
                     std::vector<Fq> &scratch,
                     std::vector<std::uint8_t> &skipped)
{
    skipped.assign(values.size(), 0);
    if (values.empty())
        return 0;
    // scratch[i] = product of the non-zero values[0..i].
    scratch.resize(values.size());
    std::size_t n_skipped = 0;
    Fq acc = Fq::one();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i].isZero()) {
            skipped[i] = 1;
            ++n_skipped;
        } else {
            acc *= values[i];
        }
        scratch[i] = acc;
    }
    Fq inv = acc.inverse();
    for (std::size_t i = values.size(); i-- > 1;) {
        if (skipped[i])
            continue;
        const Fq this_inv = inv * scratch[i - 1];
        inv *= values[i];
        values[i] = this_inv;
    }
    if (!skipped[0])
        values[0] = inv;
    return n_skipped;
}

} // namespace distmsm

#endif // DISTMSM_FIELD_BATCH_INVERSE_H
