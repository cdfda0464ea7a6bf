/**
 * @file
 * Microbenchmarks of the MSM implementations on this host: serial
 * Pippenger across window sizes and input sizes (BN254), and the
 * functional DistMSM execution (simulator overhead included).
 */

#include <benchmark/benchmark.h>

#include <map>

#include "src/ec/curves.h"
#include "src/msm/distmsm.h"
#include "src/msm/workload.h"

namespace distmsm::msm {
namespace {

struct Inputs
{
    std::vector<AffinePoint<Bn254>> points;
    std::vector<BigInt<4>> scalars;
};

const Inputs &
inputs(std::size_t n)
{
    static std::map<std::size_t, Inputs> cache;
    auto it = cache.find(n);
    if (it == cache.end()) {
        Prng prng(0xB127 + n);
        Inputs in;
        in.points = generatePoints<Bn254>(n, prng);
        in.scalars = generateScalars<Bn254>(n, prng);
        it = cache.emplace(n, std::move(in)).first;
    }
    return it->second;
}

void
BM_SerialPippenger(benchmark::State &state)
{
    const auto &in = inputs(static_cast<std::size_t>(state.range(0)));
    const unsigned s = static_cast<unsigned>(state.range(1));
    for (auto _ : state) {
        auto r = msmSerialPippenger<Bn254>(in.points, in.scalars, s);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerialPippenger)
    ->Args({1 << 10, 4})
    ->Args({1 << 10, 8})
    ->Args({1 << 10, 12})
    ->Args({1 << 12, 8})
    ->Args({1 << 14, 8})
    ->Unit(benchmark::kMillisecond);

void
BM_FunctionalDistMsm(benchmark::State &state)
{
    const auto &in = inputs(static_cast<std::size_t>(state.range(0)));
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(),
                                  static_cast<int>(state.range(1)));
    MsmOptions options;
    options.windowBitsOverride = 8;
    options.scatter.blockDim = 256;
    options.scatter.gridDim = 8;
    for (auto _ : state) {
        auto r = computeDistMsm<Bn254>(in.points, in.scalars,
                                       cluster, options);
        benchmark::DoNotOptimize(r.value);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FunctionalDistMsm)
    ->Args({1 << 10, 1})
    ->Args({1 << 10, 8})
    ->Args({1 << 12, 8})
    ->Unit(benchmark::kMillisecond);

/**
 * Engine hot path at fixed geometry (BN254, 8 GPUs), run by hand:
 * legacy, each flag alone, and both flags. The engine (plan, phi
 * points, precompute tables) is built outside the timing loop, the
 * way a prover reusing a fixed point vector runs; flags toggle the
 * GLV decomposition and batched-affine accumulation. s = 13 keeps
 * the hierarchical scatter feasible (s > 14 exceeds shared memory)
 * while staying near the 2^18 optimum.
 */
void
engineHotPath(benchmark::State &state, bool glv, bool batch_affine)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &in = inputs(n);
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(), 8);
    MsmOptions options;
    options.windowBitsOverride = 13;
    options.signedDigits = true;
    options.glv = glv;
    options.batchAffine = batch_affine;
    const MsmEngine<Bn254> engine(in.points, cluster, options);
    for (auto _ : state) {
        auto r = engine.compute(in.scalars);
        benchmark::DoNotOptimize(r.value);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_EngineMsmLegacy(benchmark::State &state)
{
    engineHotPath(state, false, false);
}
BENCHMARK(BM_EngineMsmLegacy)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineMsmGlv(benchmark::State &state)
{
    engineHotPath(state, true, false);
}
BENCHMARK(BM_EngineMsmGlv)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineMsmBatchAffine(benchmark::State &state)
{
    engineHotPath(state, false, true);
}
BENCHMARK(BM_EngineMsmBatchAffine)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineMsmGlvBatchAffine(benchmark::State &state)
{
    engineHotPath(state, true, true);
}
BENCHMARK(BM_EngineMsmGlvBatchAffine)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

/**
 * Precompute geometry for the fixed-base rows: the combined bucket
 * pass makes one scatter over W*n elements and skips the Horner
 * doubling chain entirely, so the optimal window is wider than the
 * per-window engine's. s = 16 needs the naive scatter (hierarchical
 * shared-memory staging is infeasible past s = 14).
 */
MsmOptions
precomputeOptions()
{
    MsmOptions options;
    options.windowBitsOverride = 16;
    options.signedDigits = false;
    options.hierarchicalScatter = false;
    options.glv = true;
    options.batchAffine = true;
    options.precompute = true;
    return options;
}

/**
 * Warm cache: the proving-service steady state. The table is built
 * once (engine constructed outside the loop, after a throwaway
 * construction primes BaseTableCache), so iterations measure the
 * combined single-pass MSM only.
 */
void
BM_EngineMsmPrecomputeWarm(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &in = inputs(n);
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(), 8);
    const MsmEngine<Bn254> engine(in.points, cluster,
                                  precomputeOptions());
    for (auto _ : state) {
        auto r = engine.compute(in.scalars);
        benchmark::DoNotOptimize(r.value);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineMsmPrecomputeWarm)
    ->Arg(1 << 14)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

/**
 * Cold cache: every iteration clears BaseTableCache and rebuilds the
 * engine, so the table construction (the amortized one-time cost) is
 * inside the measurement. Warm vs cold is the table-reuse ablation;
 * BaseTableCacheTest.SecondEngineSkipsTableBuild holds the reuse in
 * tier-1.
 */
void
BM_EngineMsmPrecomputeCold(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto &in = inputs(n);
    const gpusim::Cluster cluster(gpusim::DeviceSpec::a100(), 8);
    const auto options = precomputeOptions();
    for (auto _ : state) {
        BaseTableCache<Bn254>::global().clear();
        const MsmEngine<Bn254> engine(in.points, cluster, options);
        auto r = engine.compute(in.scalars);
        benchmark::DoNotOptimize(r.value);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineMsmPrecomputeCold)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond);

void
BM_NaiveMsm(benchmark::State &state)
{
    const auto &in = inputs(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto r = msmNaive<Bn254>(in.points, in.scalars);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_NaiveMsm)->Arg(1 << 8)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace distmsm::msm

BENCHMARK_MAIN();
