/**
 * @file
 * Analytic timing model for the simulated GPUs.
 *
 * Converts the counts produced by the functional executor (and by the
 * MSM planner's workload formulas) into simulated time on a given
 * DeviceSpec. The model captures the effects the paper's evaluation
 * turns on:
 *
 *  - EC kernel throughput limited by integer throughput *and*
 *    occupancy, where occupancy follows from registers per thread =
 *    (peak live big integers) x (registers per big integer) + aux —
 *    the quantity the scheduler (src/sched) minimizes;
 *  - the dedicated PACC kernel's 10-vs-14 modular multiplications;
 *  - explicit spilling: fewer registers, plus shared-memory traffic
 *    for the transferred big integers;
 *  - tensor-core Montgomery: the constant-operand half of the wide
 *    multiplications runs on tensor cores concurrently with CUDA
 *    cores; without on-the-fly compaction the expanded outputs pay a
 *    4x memory-traffic penalty, with compaction they stay in
 *    registers at the price of extra register pressure (hurting
 *    753-bit curves, Section 5.3.3);
 *  - atomic costs that grow with per-address contention (Section 3.2);
 *  - host<->device transfers and the 128x GPU:CPU EC ratio.
 *
 * All tunable coefficients live in CostParams; EXPERIMENTS.md records
 * the calibration.
 */

#ifndef DISTMSM_GPUSIM_COST_MODEL_H
#define DISTMSM_GPUSIM_COST_MODEL_H

#include <cstdint>
#include <string_view>

#include "src/gpusim/device.h"
#include "src/gpusim/stats.h"

namespace distmsm::gpusim {

/** Static description of a curve's arithmetic, for the model. */
struct CurveProfile
{
    const char *name;
    unsigned fieldBits;  ///< base-field width (Table 1)
    unsigned scalarBits; ///< scalar width (Table 1)
    bool aIsZero;        ///< curve coefficient a == 0
    /** Half-scalar width of the GLV decomposition (0 = no GLV
     *  constants for this curve; the planner falls back). */
    unsigned glvScalarBits = 0;

    unsigned limbs64() const { return (fieldBits + 63) / 64; }
    /** 32-bit registers per big integer (24 for MNT4753, Sec. 5.1). */
    unsigned regsPerBigint() const { return (fieldBits + 31) / 32; }

    static CurveProfile bn254();
    static CurveProfile bls377();
    static CurveProfile bls381();
    static CurveProfile mnt4753();
};

/** Which of the Section 4 kernel optimizations are enabled. */
struct EcKernelVariant
{
    bool dedicatedPacc = false;   ///< PADD -> PACC (Section 4.1)
    bool optimalOrder = false;    ///< exhaustive schedule (4.2.1)
    bool explicitSpill = false;   ///< spill to shared memory (4.2.2)
    bool tensorCoreMont = false;  ///< m*n on tensor cores (4.3)
    bool onTheFlyCompact = false; ///< in-register compaction (4.3)

    /** The NO-OPT baseline kernel of Section 5.3. */
    static EcKernelVariant baseline() { return {}; }

    /** All optimizations on (the DistMSM kernel). */
    static EcKernelVariant
    full()
    {
        return {true, true, true, true, true};
    }
};

/**
 * Field-arithmetic backend for the simulated EC kernels: which unit
 * retires the wide Montgomery multiplications. `CudaCore` is the
 * classic CIOS path on the int32 ALUs; `TensorCore` offloads the
 * constant-operand half (m * n) to the uint8 digit-matrix product of
 * Figure 6/7, priced at the device's int8 tensor throughput plus the
 * fragment pack / column-sum compaction marshalling. `Auto` lets the
 * planner pick per (curve, N, window bits) from the cost model —
 * tensor cores win on <=384-bit fields and lose on MNT4753, where
 * compaction's zero lanes swamp the offloaded MACs (Section 5.3.3).
 */
enum class FieldBackend { Auto, CudaCore, TensorCore };

const char *fieldBackendName(FieldBackend backend);

/** Parses "auto" / "cuda-core" / "tensor-core" (also "cuda", "tc",
 *  "tensor"). Returns false and leaves @p out untouched on junk. */
bool parseFieldBackend(std::string_view text, FieldBackend *out);

/**
 * Resolves a kernel variant against an explicit backend choice:
 * `CudaCore` strips the tensor-core legs (tensorCoreMont,
 * onTheFlyCompact), `TensorCore` forces them on, `Auto` returns the
 * variant unchanged (the planner has already folded its pick into
 * the plan). Every cost-model call in the MSM path routes through
 * this so pricing and attribution agree with the executed backend.
 */
EcKernelVariant applyFieldBackend(EcKernelVariant v,
                                  FieldBackend backend);

/** Tunable coefficients of the analytic model. */
struct CostParams
{
    /** int32-op equivalents per 64-bit multiply-accumulate. */
    double opsPerMac = 6.0;
    /** int32-op equivalents per 64-bit add-with-carry. */
    double opsPerAdd = 2.0;
    /** Aux registers per thread (addresses, indices, loop state). */
    int auxRegisters = 16;
    /** Resident threads per SM at which issue slots saturate
     *  (latency hiding is about absolute warps, not the fraction of
     *  a device's architectural maximum). */
    double saturationThreadsPerSm = 1024.0;
    /** int8 tensor ops per byte-MAC of the digit-matrix product. */
    double tcOpsPerByteMac = 1.0;
    /**
     * int32 ops of marshalling per 64-bit MAC offloaded to tensor
     * cores: packing the multiplier digits into fragment layout and
     * folding the column sums back into the running Montgomery
     * state. This is why the paper's net TC gain is a few percent
     * (Figure 12), not the raw 8x throughput headroom.
     */
    double tcMarshalOpsPerOffloadedMac = 4.0;
    /**
     * Extra marshalling per offloaded MAC, per 384 bits of operand
     * beyond the first: the zero lanes of Figure 7 grow with the
     * operand width, which is Section 5.3.3's MNT4753 compaction
     * regression.
     */
    double compactWideMarshalFactor = 0.79;
    /** int32 ops of index arithmetic per scatter element. */
    double scatterOpsPerElement = 12.0;
    /** Launch + synchronization overhead per kernel launch, us. */
    double kernelLaunchUs = 25.0;
    /**
     * int32-op equivalents per limb per modmul for storing the raw
     * (uncompacted) tensor-core lanes to memory and reloading them
     * (Section 4.3's conventional method; calibrated to the paper's
     * -6.8% net slowdown).
     */
    double tcRawStoreOpsPerLimb = 39.0;
};

/** EC operation kinds for the kernel model. AffineAdd is one
 *  batched-affine bucket accumulation: 3 intrinsic multiplications
 *  plus the amortized share of the shared batch inversion (~3 more
 *  muls and epsilon inversions), priced at 7 modmuls against pacc's
 *  10 with pacc-like register pressure. */
enum class EcOp { Pacc, Padd, Pdbl, AffineAdd };

/** Modular multiplications of one EC op under kernel variant @p v —
 *  the unit the per-backend op accounting is denominated in. */
int ecOpModmuls(const EcKernelVariant &v, EcOp op, bool a_is_zero);

/**
 * Timing model bound to one device.
 */
class CostModel
{
  public:
    explicit CostModel(const DeviceSpec &spec,
                       const CostParams &params = CostParams{});

    const DeviceSpec &device() const { return spec_; }
    const CostParams &params() const { return params_; }

    /** Peak live big integers of the dominant kernel under @p v. */
    int peakLiveBigints(const EcKernelVariant &v, EcOp op) const;

    /** Registers per thread for the EC kernel under @p v. */
    int regsPerThread(const CurveProfile &curve,
                      const EcKernelVariant &v, EcOp op) const;

    /** Occupancy of the EC kernel (block size 256, spill shmem). */
    double kernelOccupancy(const CurveProfile &curve,
                           const EcKernelVariant &v, EcOp op) const;

    /**
     * Total device time (ns) to retire @p total_ops EC operations
     * when the grid supplies enough parallel work to keep the device
     * saturated (the bucket-sum regime). Includes spill traffic and
     * tensor-core effects of @p v.
     */
    double ecThroughputNs(const CurveProfile &curve,
                          const EcKernelVariant &v, EcOp op,
                          std::uint64_t total_ops) const;

    /**
     * Latency (ns) of a *dependent chain* of @p chain_ops EC
     * operations executed by one thread while the rest of the device
     * idles (the parallel bucket-reduce regime, Section 3.2.3).
     */
    double ecSerialNs(const CurveProfile &curve,
                      const EcKernelVariant &v, EcOp op,
                      std::uint64_t chain_ops) const;

    /** int32-op equivalents one EC operation costs a single thread. */
    double ecOpCudaOps(const CurveProfile &curve,
                       const EcKernelVariant &v, EcOp op) const;

    /**
     * Simulated nanoseconds consumed by the atomic traffic in
     * @p stats, using the contention-scaled cost of Section 3.2,
     * spread over @p active_threads.
     */
    double atomicNs(const KernelStats &stats,
                    int active_threads) const;

    /** Simulated ns for the scatter's per-element index work. */
    double scatterComputeNs(std::uint64_t elements,
                            int active_threads) const;

    /** Device-memory traffic time. */
    double gmemNs(std::uint64_t bytes) const;

    /** Host<->device transfer time for @p bytes. */
    double transferNs(std::uint64_t bytes) const;

    /**
     * Serial host (CPU) time for @p ops EC additions, derived from
     * the per-op GPU cost via the paper's 128x extrapolation.
     */
    double hostEcNs(const CurveProfile &curve, std::uint64_t ops,
                    const HostSpec &host) const;

    /**
     * Process-wide monotone count of pricing evaluations (every
     * ecThroughputNs / ecSerialNs / atomicNs / scatterComputeNs /
     * gmemNs / transferNs / hostEcNs call, any CostModel instance).
     * The MSM plan search records the delta across its run as the
     * `autoplan/cost_model_evals` metric. Relaxed atomic: a counter,
     * not a synchronization point.
     */
    static std::uint64_t evaluations();

  private:
    double effectiveIssue(double occupancy) const;

    DeviceSpec spec_;
    CostParams params_;
};

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_COST_MODEL_H
