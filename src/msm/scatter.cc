#include "src/msm/scatter.h"

#include <algorithm>
#include <utility>

#include "src/support/check.h"

namespace distmsm::msm {

using gpusim::KernelLaunch;
using gpusim::ThreadCtx;
using gpusim::WordArray;

namespace {

/** Elements each thread handles so the grid covers n elements (0
 *  for an empty grid, which validateLaunch then rejects). */
int
elemsPerThread(std::size_t n, const ScatterConfig &config)
{
    const std::size_t threads =
        static_cast<std::size_t>(config.blockDim) * config.gridDim;
    return threads == 0 ? 0
                        : static_cast<int>((n + threads - 1) / threads);
}

/**
 * Span label of a traced scatter launch: the configured (or default)
 * label suffixed with the resolved field backend, matching the
 * engine's backend-suffixed compute lanes. Purely an attribution
 * aid — the scatter kernels execute no field arithmetic.
 */
std::string
scatterTraceLabel(const ScatterConfig &config,
                  const char *default_label)
{
    const std::string base = config.traceLabel.empty()
                                 ? default_label
                                 : config.traceLabel;
    return base + " [" +
           gpusim::fieldBackendName(config.fieldBackend) + "]";
}

/**
 * Host-side landing zone for scattered (bucket, point-id) pairs.
 * Blocks of a phase may run on concurrent host threads, so each
 * block appends to its own staging vector; drain() empties them into
 * the result buckets in block index order, which reproduces exactly
 * the bid-major/tid-minor order of the sequential execution.
 */
class BlockStaging
{
  public:
    explicit BlockStaging(int grid_dim) : per_block_(grid_dim) {}

    void
    push(const ThreadCtx &ctx, std::uint32_t bucket,
         std::uint32_t addr)
    {
        per_block_[static_cast<std::size_t>(ctx.bid)].emplace_back(
            bucket, addr);
    }

    void
    drain(std::vector<std::vector<std::uint32_t>> &buckets)
    {
        for (auto &blk : per_block_) {
            for (const auto &[bucket, addr] : blk)
                buckets[bucket].push_back(addr);
            blk.clear();
        }
    }

  private:
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        per_block_;
};

} // namespace

std::size_t
hierarchicalSharedBytes(unsigned window_bits,
                        const ScatterConfig &config,
                        int elems_per_thread)
{
    const std::size_t n_buckets = std::size_t{1} << window_bits;
    // Counters + offsets (4 bytes each) and the point-id tile.
    return n_buckets * 4 * 2 +
           static_cast<std::size_t>(elems_per_thread) *
               config.blockDim * config.localIdBytes;
}

int
hierarchicalRegistersPerThread(int elems_per_thread)
{
    // K cached bucket ids at 16 bits each, packed into 32-bit
    // registers ("register usage per thread is 32" for K = 64).
    return elems_per_thread / 2;
}

ScatterResult
naiveScatter(const std::vector<std::uint32_t> &bucket_ids,
             unsigned window_bits, const ScatterConfig &config)
{
    const std::size_t n_buckets = std::size_t{1} << window_bits;
    ScatterResult result;
    result.status = KernelLaunch::validateLaunch(
        config.gridDim, config.blockDim, 0);
    if (!result.status.isOk())
        return result;
    result.ok = true;
    result.buckets.assign(n_buckets, {});

    KernelLaunch launch(config.gridDim, config.blockDim, 0,
                        config.hostThreads);
    if (config.trace != nullptr)
        launch.setTrace(config.trace,
                        scatterTraceLabel(config, "naive-scatter"),
                        config.traceLane);
    WordArray counters(n_buckets, WordArray::Space::Global);
    const int k = elemsPerThread(bucket_ids.size(), config);
    BlockStaging staging(config.gridDim);

    // One element per thread per phase: atomics within a phase are
    // the concurrent ones. The staging places the ids host-side, so
    // no thread reads its counter: a return-less reduceAdd.
    for (int reg_idx = 0; reg_idx < k; ++reg_idx) {
        launch.phase([&](ThreadCtx &ctx) {
            const std::size_t addr =
                static_cast<std::size_t>(reg_idx) *
                    ctx.gridThreads() +
                ctx.gid();
            if (addr >= bucket_ids.size())
                return;
            const std::uint32_t bucket = bucket_ids[addr];
            if (bucket == 0)
                return; // zero chunk contributes nothing
            launch.reduceAdd(counters, bucket, 1, ctx);
            staging.push(ctx, bucket,
                         static_cast<std::uint32_t>(addr));
            launch.countGmemBytes(
                ctx,
                static_cast<std::uint64_t>(config.globalIdBytes) *
                    config.uncoalescedWriteFactor);
        });
        staging.drain(result.buckets);
    }
    result.stats = launch.stats();
    return result;
}

ScatterResult
hierarchicalScatter(const std::vector<std::uint32_t> &bucket_ids,
                    unsigned window_bits, const ScatterConfig &config)
{
    const std::size_t n_buckets = std::size_t{1} << window_bits;
    ScatterResult result;

    if (hierarchicalSharedBytes(window_bits, config, 1) >
        config.sharedBytesPerBlock) {
        // Not even a one-element tile fits beside the counters (the
        // s > 14 failures of Figure 11).
        result.ok = false;
        result.status = support::Status(
            support::StatusCode::KernelFault,
            "hierarchical scatter cannot run at window size " +
                std::to_string(window_bits) +
                ": 2^s counters leave no shared-memory tile "
                "(use naive scatter)");
        return result;
    }
    // Tile size: the rows that fit beside the counters and offsets,
    // capped at the elements per thread (see scatter.h).
    const int k_total = elemsPerThread(bucket_ids.size(), config);
    const std::size_t k_fit =
        (config.sharedBytesPerBlock -
         hierarchicalSharedBytes(window_bits, config, 0)) /
        (static_cast<std::size_t>(config.blockDim) *
         config.localIdBytes);
    const int k_tile = static_cast<int>(
        std::min(k_fit, static_cast<std::size_t>(k_total)));

    // Shared layout per block: [0, B) counters, [B, 2B) offsets,
    // [2B, 2B + K*blockDim) point-id tile.
    const std::size_t tile_base = 2 * n_buckets;
    const std::size_t tile_words =
        static_cast<std::size_t>(k_tile) * config.blockDim;
    result.status = KernelLaunch::validateLaunch(
        config.gridDim, config.blockDim, tile_base + tile_words);
    if (!result.status.isOk())
        return result;
    result.ok = true;
    result.buckets.assign(n_buckets, {});

    KernelLaunch launch(config.gridDim, config.blockDim,
                        tile_base + tile_words, config.hostThreads);
    if (config.trace != nullptr)
        launch.setTrace(
            config.trace,
            scatterTraceLabel(config, "hierarchical-scatter"),
            config.traceLane);
    WordArray global_counters(n_buckets, WordArray::Space::Global);

    // Per-thread "register cache" of bucket ids (Algorithm 3 line 5),
    // refilled every tile.
    std::vector<std::uint32_t> reg_cache(
        static_cast<std::size_t>(k_tile) * launch.gridThreads());
    BlockStaging staging(config.gridDim);

    for (int tile = 0; tile * k_tile < k_total; ++tile) {
        const int reg_lo = tile * k_tile;
        const int reg_hi = std::min(k_total, reg_lo + k_tile);

        // Reset the block-local counters.
        launch.phase([&](ThreadCtx &ctx) {
            if (ctx.tid == 0)
                launch.shared(ctx.bid).fill(0);
        });

        // Level 1: count into shared per-bucket counters.
        for (int reg_idx = reg_lo; reg_idx < reg_hi; ++reg_idx) {
            launch.phase([&](ThreadCtx &ctx) {
                const std::size_t addr =
                    static_cast<std::size_t>(reg_idx) *
                        ctx.gridThreads() +
                    ctx.gid();
                const std::size_t slot =
                    static_cast<std::size_t>(reg_idx - reg_lo) *
                        launch.gridThreads() +
                    ctx.gid();
                if (addr >= bucket_ids.size()) {
                    reg_cache[slot] = ~std::uint32_t{0};
                    return;
                }
                const std::uint32_t bucket = bucket_ids[addr];
                reg_cache[slot] = bucket;
                if (bucket == 0)
                    return;
                launch.atomicAdd(launch.shared(ctx.bid), bucket, 1,
                                 ctx);
            });
        }

        // Level 2: per-block exclusive prefix sum of the counters
        // into the offsets region (Algorithm 3 line 7).
        launch.phase([&](ThreadCtx &ctx) {
            if (ctx.tid != 0)
                return;
            WordArray &shm = launch.shared(ctx.bid);
            std::uint64_t running = 0;
            for (std::size_t b = 0; b < n_buckets; ++b) {
                shm.write(n_buckets + b, running);
                running += shm.read(b);
                launch.countSharedAccess(ctx, 2);
            }
        });

        // Level 3: place point ids into the exactly-sized shared
        // buckets (lines 8-11). The stored id is reg_idx || tid.
        for (int reg_idx = reg_lo; reg_idx < reg_hi; ++reg_idx) {
            launch.phase([&](ThreadCtx &ctx) {
                const std::size_t slot =
                    static_cast<std::size_t>(reg_idx - reg_lo) *
                        launch.gridThreads() +
                    ctx.gid();
                const std::uint32_t bucket = reg_cache[slot];
                if (bucket == ~std::uint32_t{0} || bucket == 0)
                    return;
                WordArray &shm = launch.shared(ctx.bid);
                const std::uint64_t pos = launch.atomicAdd(
                    shm, n_buckets + bucket, 1, ctx);
                const std::uint64_t local_id =
                    (static_cast<std::uint64_t>(reg_idx) << 16) |
                    ctx.tid;
                shm.write(tile_base + pos, local_id);
                launch.countSharedAccess(ctx, 1);
            });
        }

        // Flush: one global atomic per (block, non-empty bucket)
        // reserves the output range, then the tile segment streams
        // out (lines 12-15). Thread b handles buckets b, b+dim, ...
        // The staging places the ids host-side, so the reservation's
        // old value is unused: a return-less reduceAdd.
        launch.phase([&](ThreadCtx &ctx) {
            WordArray &shm = launch.shared(ctx.bid);
            for (std::size_t b = ctx.tid; b < n_buckets;
                 b += ctx.blockDim) {
                const std::uint64_t count = shm.read(b);
                if (count == 0)
                    continue;
                launch.reduceAdd(global_counters, b, count, ctx);
                // Reconstruct global ids: reg_idx || bid || tid.
                const std::uint64_t end = shm.read(n_buckets + b);
                for (std::uint64_t p = end - count; p < end; ++p) {
                    const std::uint64_t local_id =
                        shm.read(tile_base + p);
                    const std::uint32_t reg_idx =
                        static_cast<std::uint32_t>(local_id >> 16);
                    const std::uint32_t tid =
                        static_cast<std::uint32_t>(local_id &
                                                   0xFFFF);
                    const std::size_t addr =
                        static_cast<std::size_t>(reg_idx) *
                            launch.gridThreads() +
                        static_cast<std::size_t>(ctx.bid) *
                            ctx.blockDim +
                        tid;
                    staging.push(
                        ctx, static_cast<std::uint32_t>(b),
                        static_cast<std::uint32_t>(addr));
                }
                launch.countGmemBytes(ctx,
                                      count * config.globalIdBytes);
            }
        });
        staging.drain(result.buckets);
    }

    result.stats = launch.stats();
    return result;
}

} // namespace distmsm::msm
