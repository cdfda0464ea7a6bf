/**
 * @file
 * Bucket-scatter kernels (paper Section 3.2.1).
 *
 * The scatter step distributes point indices into 2^s buckets keyed
 * by the window's scalar chunk. Two kernels are provided, both run on
 * the functional SIMT executor so their atomic behaviour is measured,
 * not assumed:
 *
 *  - naiveScatter: one global atomic reservation per element. Fine
 *    for the large windows a single GPU prefers; at the small
 *    windows of multi-GPU configurations the per-address contention
 *    (~ concurrent threads / 2^s) explodes (Figure 11).
 *
 *  - hierarchicalScatter: Algorithm 3. Each thread block scatters a
 *    K-element-per-thread tile into *shared memory* first — counting
 *    pass into per-bucket counters, block prefix sum to size each
 *    bucket exactly (Figure 4b), placement pass — and then flushes
 *    every local bucket with a single global atomic. Global atomics
 *    drop by ~K * blockDim / 2^s; the paper's configuration (1024
 *    threads, K = 64, 128 KB of 16-bit point ids) cuts them 64x at
 *    N_bucket = 1024. Requires 2^s counters plus the tile to fit in
 *    shared memory, which fails for s > 14 — visible in Figure 11.
 *    Tile sizing: K = min(rows that fit in sharedBytesPerBlock beside
 *    the counters and offsets, elements per thread). Capping K at the
 *    elements per thread never changes the tile count, so the phases
 *    and every KernelStats counter are those of the full-budget
 *    tile; it only keeps the simulated shared arrays and register
 *    cache as small as the input (one row for Groth16's s = 4
 *    launch, against a capacity of 79).
 */

#ifndef DISTMSM_MSM_SCATTER_H
#define DISTMSM_MSM_SCATTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/cost_model.h"
#include "src/gpusim/executor.h"

namespace distmsm::msm {

/** Launch geometry for the scatter kernels. */
struct ScatterConfig
{
    int blockDim = 1024;
    int gridDim = 64; ///< 64 * 1024 = 2^16 threads (paper's N_T)
    /** Shared memory budget per block, bytes (paper example 128KB+). */
    std::size_t sharedBytesPerBlock = 160 * 1024;
    /** Bytes of one cached point id in shared memory (reg_idx||tid). */
    int localIdBytes = 2;
    /** Bytes of one flushed point id in device memory. */
    int globalIdBytes = 4;
    /**
     * Sector amplification of the naive kernel's scattered 4-byte
     * writes (random addresses touch a whole 32-byte sector); the
     * hierarchical flush streams coalesced ranges instead.
     */
    int uncoalescedWriteFactor = 10;
    /**
     * Unused: nothing reads it. The scatter kernels run their blocks
     * in order on the calling thread (gpusim/executor.h); the field
     * stays only until the benchmark harness stops writing it.
     */
    int hostThreads = 0;
    /**
     * Structured tracing: when non-null, the scatter's KernelLaunch
     * emits a per-launch span named @ref traceLabel on the
     * kernel-launch lane @ref traceLane (see KernelLaunch::setTrace).
     * Null keeps the kernels untraced at zero cost.
     */
    support::TraceRecorder *trace = nullptr;
    std::string traceLabel;
    int traceLane = 0;
    /**
     * The field backend the surrounding MSM resolved
     * (MsmPlan::fieldBackend). The scatter kernels are integer-only —
     * they issue no field multiplications, so the backend never
     * changes their cost or output — but the knob is threaded through
     * so traced launches carry the backend in their span label and
     * the per-backend lanes line up across every kernel of a run.
     */
    gpusim::FieldBackend fieldBackend = gpusim::FieldBackend::CudaCore;
};

/** Output of a scatter: per-bucket point-id lists plus stats. */
struct ScatterResult
{
    bool ok = false; ///< false: see status for the typed reason
    /** Typed failure channel mirroring `ok` (KernelFault when the
     *  launch geometry or shared-memory configuration cannot run),
     *  consumed by MsmEngine's fault-tolerant path. */
    support::Status status{support::StatusCode::KernelFault,
                           "scatter not executed"};
    std::vector<std::vector<std::uint32_t>> buckets;
    gpusim::KernelStats stats;
};

/**
 * Scatter with one global atomic per element.
 *
 * @param bucket_ids bucket id of every element (already masked to s
 *        bits; id 0 means "skip": zero scalar chunks add nothing).
 * @param window_bits s.
 */
ScatterResult naiveScatter(const std::vector<std::uint32_t> &bucket_ids,
                           unsigned window_bits,
                           const ScatterConfig &config);

/** Three-level hierarchical scatter (Algorithm 3). */
ScatterResult
hierarchicalScatter(const std::vector<std::uint32_t> &bucket_ids,
                    unsigned window_bits, const ScatterConfig &config);

/**
 * Shared-memory demand of the hierarchical kernel: counters, offsets
 * and the point-id tile for K elements per thread.
 */
std::size_t hierarchicalSharedBytes(unsigned window_bits,
                                    const ScatterConfig &config,
                                    int elems_per_thread);

/** The paper's per-thread register estimate for the register cache. */
int hierarchicalRegistersPerThread(int elems_per_thread);

} // namespace distmsm::msm

#endif // DISTMSM_MSM_SCATTER_H
