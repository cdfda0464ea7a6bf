/**
 * @file
 * Field-operation counters for EC arithmetic.
 *
 * The paper's analysis is in units of modular multiplications (14 per
 * PADD, 10 per PACC); these counters let tests assert the formula
 * costs and let the simulator's cost model calibrate from real runs.
 */

#ifndef DISTMSM_EC_OP_COUNTERS_H
#define DISTMSM_EC_OP_COUNTERS_H

#include <cstdint>

namespace distmsm::ec {

/** Global tallies of field operations executed by the EC layer. */
struct OpCounters
{
    std::uint64_t mul = 0;
    /** Squarings among `mul` (sqr <= mul): the share the dedicated
     *  squaring path (bigint/squaring.h) serves at roughly half the
     *  cross-product work of a general product. Kept as a subset so
     *  the paper's modmul formulas (14/10 per PADD/PACC) still read
     *  directly off `mul`. */
    std::uint64_t sqr = 0;
    std::uint64_t add = 0; ///< additions and subtractions
    std::uint64_t inv = 0; ///< full modular inversions
    /**
     * Fp products this thread actually retired through the
     * tensor-core differential path (field/backend.h scope active).
     * Counted at the field-dispatch layer, one per executed
     * multiplication or squaring — unlike `mul`/`sqr`, which the EC
     * formulas charge at their nominal per-op constants — so tests
     * can assert both that the backend engaged (tcMul > 0) and that
     * it did all the work (tcMul covers every runtime product).
     */
    std::uint64_t tcMul = 0;

    void
    reset()
    {
        mul = 0;
        sqr = 0;
        add = 0;
        inv = 0;
        tcMul = 0;
    }
};

/**
 * The calling thread's counter instance. Thread-local so EC
 * arithmetic executed on support::parallelFor's workers never races:
 * calibration and tests reset/read the counters around serial code
 * on their own thread.
 */
inline OpCounters &
opCounters()
{
    static thread_local OpCounters counters;
    return counters;
}

} // namespace distmsm::ec

#endif // DISTMSM_EC_OP_COUNTERS_H
