/**
 * @file
 * Microbenchmarks of the big-integer and field substrate on this
 * host: the three Montgomery variants (SOS / CIOS / FIOS) per field
 * width, the carry-flag kernel montMulAdx4 (BM_MontMulAdx, the four
 * 4-limb fields; skipped with an error on a CPU without BMI2 + ADX),
 * and the field operations Fp dispatches: multiplication (the ADX
 * kernel where it runs, else CIOS), addition, subtraction, squaring
 * and inversion. Every row is a dependent chain, so it reads latency,
 * not throughput. These numbers calibrate the per-operation costs
 * behind the simulator.
 */

#include <benchmark/benchmark.h>

#include "src/field/field_params.h"
#include "src/support/prng.h"

namespace distmsm {
namespace {

template <typename P>
void
setupOperands(BigInt<P::kLimbs> &a, BigInt<P::kLimbs> &b,
              BigInt<P::kLimbs> &mod)
{
    Prng prng(0xBE7C);
    mod = BigInt<P::kLimbs>::fromLimbs(P::kModulus);
    a = BigInt<P::kLimbs>::randomBelow(prng, mod);
    b = BigInt<P::kLimbs>::randomBelow(prng, mod);
}

template <typename P>
void
BM_MontMulSOS(benchmark::State &state)
{
    BigInt<P::kLimbs> a, b, mod;
    setupOperands<P>(a, b, mod);
    for (auto _ : state) {
        a = montMulSOS(a, b, mod, P::kInv64);
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_MontMulCIOS(benchmark::State &state)
{
    BigInt<P::kLimbs> a, b, mod;
    setupOperands<P>(a, b, mod);
    for (auto _ : state) {
        a = montMulCIOS(a, b, mod, P::kInv64);
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_MontMulFIOS(benchmark::State &state)
{
    BigInt<P::kLimbs> a, b, mod;
    setupOperands<P>(a, b, mod);
    for (auto _ : state) {
        a = montMulFIOS(a, b, mod, P::kInv64);
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_MontMulAdx(benchmark::State &state)
{
#if defined(__x86_64__)
    if (!montAdxSupported()) {
        state.SkipWithError("this CPU lacks BMI2 or ADX");
        return;
    }
    BigInt<P::kLimbs> a, b, mod;
    setupOperands<P>(a, b, mod);
    for (auto _ : state) {
        a = montMulAdx4(a, b, mod, P::kInv64);
        benchmark::DoNotOptimize(a);
    }
#else
    state.SkipWithError("the ADX kernel is built on x86-64 only");
#endif
}

/** Dedicated Montgomery squaring (sqrFull + one reduce): compare
 *  against BM_MontMul* to read the sqr-vs-mul saving directly. */
template <typename P>
void
BM_MontSqr(benchmark::State &state)
{
    BigInt<P::kLimbs> a, b, mod;
    setupOperands<P>(a, b, mod);
    for (auto _ : state) {
        a = montSqr(a, mod, P::kInv64);
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_FieldAdd(benchmark::State &state)
{
    Prng prng(0xADD);
    auto a = Fp<P>::random(prng);
    const auto b = Fp<P>::random(prng);
    for (auto _ : state) {
        a += b;
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_FieldSub(benchmark::State &state)
{
    Prng prng(0x5B);
    auto a = Fp<P>::random(prng);
    const auto b = Fp<P>::random(prng);
    for (auto _ : state) {
        a -= b;
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_FieldMul(benchmark::State &state)
{
    Prng prng(0x3E1);
    auto a = Fp<P>::random(prng);
    const auto b = Fp<P>::random(prng);
    for (auto _ : state) {
        a *= b;
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_FieldSqr(benchmark::State &state)
{
    Prng prng(0x5A);
    auto a = Fp<P>::random(prng);
    for (auto _ : state) {
        a = a.sqr();
        benchmark::DoNotOptimize(a);
    }
}

template <typename P>
void
BM_FieldInverse(benchmark::State &state)
{
    Prng prng(0x1F);
    auto a = Fp<P>::random(prng);
    for (auto _ : state) {
        a = a.inverse();
        benchmark::DoNotOptimize(a);
    }
}

#define DISTMSM_FIELD_BENCH(P)                                       \
    BENCHMARK(BM_MontMulSOS<P>);                                     \
    BENCHMARK(BM_MontMulCIOS<P>);                                    \
    BENCHMARK(BM_MontMulFIOS<P>);                                    \
    BENCHMARK(BM_MontSqr<P>);                                        \
    BENCHMARK(BM_FieldAdd<P>);                                       \
    BENCHMARK(BM_FieldSub<P>);                                       \
    BENCHMARK(BM_FieldMul<P>);                                       \
    BENCHMARK(BM_FieldSqr<P>);                                       \
    BENCHMARK(BM_FieldInverse<P>)

DISTMSM_FIELD_BENCH(Bn254FqParams);
DISTMSM_FIELD_BENCH(Bls377FqParams);
DISTMSM_FIELD_BENCH(Bls381FqParams);
DISTMSM_FIELD_BENCH(Mnt4753FqParams);

BENCHMARK(BM_MontMulAdx<Bn254FqParams>);
BENCHMARK(BM_MontMulAdx<Bn254FrParams>);
BENCHMARK(BM_MontMulAdx<Bls377FrParams>);
BENCHMARK(BM_MontMulAdx<Bls381FrParams>);

} // namespace
} // namespace distmsm

BENCHMARK_MAIN();
