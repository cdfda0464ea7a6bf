/**
 * @file
 * Parameterized property sweeps: the distributed MSM agrees with the
 * serial references across the cross-product of window sizes,
 * cluster shapes, scatter kernels and digit encodings; field and NTT
 * laws hold across sizes and seeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "src/ec/curves.h"
#include "src/gpusim/collectives.h"
#include "src/gpusim/topology.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/scatter.h"
#include "src/msm/workload.h"
#include "src/ntt/ntt.h"
#include "src/support/prng.h"
#include "tests/sweep_cases.h"

namespace distmsm {
namespace {

using gpusim::Cluster;
using gpusim::DeviceSpec;

// ---------------------------------------------------------------
// DistMSM configuration sweep: (window bits, gpus, hierarchical,
// signed digits).
// ---------------------------------------------------------------
using MsmConfig = std::tuple<unsigned, int, bool, bool>;

class DistMsmSweep : public ::testing::TestWithParam<MsmConfig>
{
  protected:
    static const std::vector<AffinePoint<Bn254>> &
    points()
    {
        static const auto pts = [] {
            Prng prng(0xABCD);
            return msm::generatePoints<Bn254>(160, prng);
        }();
        return pts;
    }

    static const std::vector<BigInt<4>> &
    scalars()
    {
        static const auto ks = [] {
            Prng prng(0xDCBA);
            return msm::generateScalars<Bn254>(160, prng);
        }();
        return ks;
    }

    static const XYZZPoint<Bn254> &
    expected()
    {
        static const auto e = msm::msmNaive<Bn254>(points(),
                                                   scalars());
        return e;
    }
};

TEST_P(DistMsmSweep, MatchesNaive)
{
    const auto [s, gpus, hierarchical, use_signed] = GetParam();
    msm::MsmOptions options;
    options.windowBitsOverride = s;
    options.hierarchicalScatter = hierarchical;
    options.signedDigits = use_signed;
    options.scatter.blockDim = 64;
    options.scatter.gridDim = 4;
    options.scatter.sharedBytesPerBlock = 64 * 1024;
    const Cluster cluster(DeviceSpec::a100(), gpus);
    const auto result = msm::computeDistMsm<Bn254>(
        points(), scalars(), cluster, options);
    EXPECT_EQ(result.value, expected());
}

INSTANTIATE_TEST_SUITE_P(
    WindowAndClusterGrid, DistMsmSweep,
    ::testing::Combine(::testing::Values(3u, 6u, 10u),
                       ::testing::Values(1, 8, 32),
                       ::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<MsmConfig> &info) {
        // Built with appends: chained operator+ trips a GCC 12
        // -Wrestrict false positive at -O3 (PR 105329).
        std::string name = "s";
        name += std::to_string(std::get<0>(info.param));
        name += "_g";
        name += std::to_string(std::get<1>(info.param));
        name += std::get<2>(info.param) ? "_hier" : "_naive";
        name += std::get<3>(info.param) ? "_signed" : "_plain";
        return name;
    });

// ---------------------------------------------------------------
// Seeded randomized differential sweep: random problem sizes,
// window widths, cluster shapes, kernels, digit encodings and host
// thread counts, each checked against the serial Pippenger
// reference. The seed is fixed so the tier-1 corpus is stable;
// DISTMSM_SWEEP_CASES deepens the sweep for soak runs (sweepCases).
// ---------------------------------------------------------------
TEST(RandomDifferentialSweep, MatchesSerialReference)
{
    const long cases = sweepCases(32);
    Prng prng(0xF00D);
    for (long c = 0; c < cases; ++c) {
        std::size_t n =
            1 + static_cast<std::size_t>(prng.below(4096));
        const unsigned s =
            2 + static_cast<unsigned>(prng.below(12)); // [2, 13]
        const int gpus = 1 + static_cast<int>(prng.below(8));
        const bool use_signed = prng.below(2) != 0;
        bool hierarchical = prng.below(2) != 0;
        const bool use_glv = prng.below(2) != 0;
        const bool batch_affine = prng.below(2) != 0;
        constexpr int kThreadChoices[] = {0, 1, 2, 8};
        const int host_threads = kThreadChoices[prng.below(4)];
        // Topology shape: the legacy flat cluster, or a
        // hierarchical nodes x gpus split of the same device count
        // (possibly ragged) on an NVSwitch or ring NVLink fabric.
        const int topo_kind = static_cast<int>(prng.below(3));
        const int gpn = 1 + static_cast<int>(prng.below(4));
        // Merge strategy: forced gather/ring/tree or the tuner.
        constexpr gpusim::CollectivePolicy kPolicies[] = {
            gpusim::CollectivePolicy::Gather,
            gpusim::CollectivePolicy::Ring,
            gpusim::CollectivePolicy::Tree,
            gpusim::CollectivePolicy::Auto,
        };
        const gpusim::CollectivePolicy policy =
            kPolicies[prng.below(4)];
        // Field backend: Auto (cost-model pick, CIOS execution),
        // forced CUDA cores, or forced tensor cores. A forced
        // TensorCore run executes every field mul through the tcmul
        // differential model — 1-2 orders of magnitude slower — so
        // those draws cap n to keep the sweep fast.
        constexpr gpusim::FieldBackend kBackends[] = {
            gpusim::FieldBackend::Auto,
            gpusim::FieldBackend::CudaCore,
            gpusim::FieldBackend::TensorCore,
        };
        const gpusim::FieldBackend backend =
            kBackends[prng.below(3)];
        if (backend == gpusim::FieldBackend::TensorCore)
            n = std::min<std::size_t>(n, 512);

        gpusim::Topology topo = gpusim::Topology::flat(gpus);
        if (topo_kind != 0) {
            topo = gpusim::Topology::dgx((gpus + gpn - 1) / gpn,
                                         gpn);
            topo.totalGpus = gpus; // ragged last node allowed
            if (topo_kind == 2)
                topo.intra = gpusim::IntraTopo::Ring;
        }

        msm::MsmOptions options;
        options.collective = policy;
        options.fieldBackend = backend;
        options.windowBitsOverride = s;
        options.signedDigits = use_signed;
        options.glv = use_glv;
        options.batchAffine = batch_affine;
        options.hostThreads = host_threads;
        options.scatter.blockDim = 64;
        options.scatter.gridDim = 4;
        options.scatter.sharedBytesPerBlock = 64 * 1024;
        // The hierarchical kernel needs 2^s counters + offsets and a
        // one-element tile in shared memory; infeasible draws fall
        // back to the naive kernel (the engine treats infeasible
        // scatter as fatal, mirroring Figure 11's s > 14 cutoff).
        const std::size_t fixed_bytes = (std::size_t{1} << s) * 8;
        if (hierarchical &&
            fixed_bytes +
                    static_cast<std::size_t>(
                        options.scatter.blockDim) *
                        options.scatter.localIdBytes >
                options.scatter.sharedBytesPerBlock) {
            hierarchical = false;
        }
        options.hierarchicalScatter = hierarchical;

        SCOPED_TRACE("case " + std::to_string(c) + ": n=" +
                     std::to_string(n) + " s=" + std::to_string(s) +
                     " gpus=" + std::to_string(gpus) +
                     (hierarchical ? " hier" : " naive") +
                     (use_signed ? " signed" : " plain") +
                     (use_glv ? " glv" : "") +
                     (batch_affine ? " batch" : "") +
                     " hostThreads=" + std::to_string(host_threads) +
                     " topo=" + topo.describe() + " collective=" +
                     gpusim::collectivePolicyName(policy) +
                     " backend=" +
                     gpusim::fieldBackendName(backend));

        const auto points = msm::generatePoints<Bn254>(n, prng);
        const auto scalars = msm::generateScalars<Bn254>(n, prng);
        const Cluster cluster(DeviceSpec::a100(), topo);
        const auto result = msm::computeDistMsm<Bn254>(
            points, scalars, cluster, options);
        EXPECT_EQ(result.value,
                  msm::msmSerialPippenger<Bn254>(points, scalars, s));
    }
}

// ---------------------------------------------------------------
// Serial Pippenger window sweep on every curve-width class.
// ---------------------------------------------------------------
class PippengerWindowSweep
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PippengerWindowSweep, AllWindowsAgree)
{
    const unsigned s = GetParam();
    Prng prng(0x1234 + s);
    const auto points = msm::generatePoints<Bls381>(30, prng);
    const auto scalars = msm::generateScalars<Bls381>(30, prng);
    const auto naive = msm::msmNaive<Bls381>(points, scalars);
    EXPECT_EQ(msm::msmSerialPippenger<Bls381>(points, scalars, s),
              naive);
    if (s >= 2) {
        EXPECT_EQ(msm::msmSerialPippengerSigned<Bls381>(points,
                                                        scalars, s),
                  naive);
    }
}

INSTANTIATE_TEST_SUITE_P(WindowRange, PippengerWindowSweep,
                         ::testing::Range(1u, 15u, 2u));

// ---------------------------------------------------------------
// NTT round trips across the size/field grid.
// ---------------------------------------------------------------
using NttConfig = std::tuple<unsigned, std::uint64_t>;

class NttSweep : public ::testing::TestWithParam<NttConfig>
{
};

TEST_P(NttSweep, RoundTripAndConvolution)
{
    const auto [log_n, seed] = GetParam();
    const std::size_t n = std::size_t{1} << log_n;
    Prng prng(seed);
    const ntt::EvaluationDomain<Bn254Fr> domain(n);
    std::vector<Bn254Fr> poly(n);
    for (auto &x : poly)
        x = Bn254Fr::random(prng);
    auto work = poly;
    domain.forward(work);
    domain.inverse(work);
    EXPECT_EQ(work, poly);
    // Convolution theorem spot check at a random evaluation point.
    std::vector<Bn254Fr> q(n / 2 + 1);
    for (auto &x : q)
        x = Bn254Fr::random(prng);
    const auto prod = ntt::multiplyPolys(poly, q);
    const Bn254Fr x = Bn254Fr::random(prng);
    EXPECT_EQ(ntt::evaluatePoly(prod, x),
              ntt::evaluatePoly(poly, x) * ntt::evaluatePoly(q, x));
}

INSTANTIATE_TEST_SUITE_P(
    SizeSeedGrid, NttSweep,
    ::testing::Combine(::testing::Values(1u, 4u, 7u, 10u),
                       ::testing::Values(11ull, 222ull)));

// ---------------------------------------------------------------
// Field law sweep across seeds (all four base fields).
// ---------------------------------------------------------------
class FieldLawSweep : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    template <typename F>
    static void
    check(std::uint64_t seed)
    {
        Prng prng(seed);
        const F a = F::random(prng), b = F::random(prng),
                c = F::random(prng);
        EXPECT_EQ((a + b) * c, a * c + b * c);
        EXPECT_EQ(a.sqr() - b.sqr(), (a + b) * (a - b));
        if (!a.isZero()) {
            EXPECT_EQ(a * b * a.inverse(), b);
        }
        EXPECT_EQ((a * b).sqr(), a.sqr() * b.sqr());
    }
};

TEST_P(FieldLawSweep, AllBaseFields)
{
    check<Bn254Fq>(GetParam());
    check<Bls377Fq>(GetParam() + 1);
    check<Bls381Fq>(GetParam() + 2);
    check<Mnt4753Fq>(GetParam() + 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FieldLawSweep,
                         ::testing::Range(std::uint64_t{900},
                                          std::uint64_t{910}));

} // namespace
} // namespace distmsm
