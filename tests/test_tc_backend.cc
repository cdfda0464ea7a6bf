/**
 * @file
 * Selectable field-arithmetic backend tests.
 *
 * The contract: FieldBackend is a pure attribution/pricing knob —
 * MsmEngine results are bit-identical between CudaCore and
 * TensorCore on every curve, because the tcmul differential path
 * computes the same fully-reduced Montgomery product as CIOS
 * (test_tcmul pins the multiplier itself; these tests pin the
 * dispatch wiring, the planner's Auto resolution and the metrics).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ec/curves.h"
#include "src/field/backend.h"
#include "src/msm/distmsm.h"
#include "src/msm/reference.h"
#include "src/msm/workload.h"
#include "src/support/prng.h"
#include "src/support/trace.h"

namespace distmsm::msm {
namespace {

using gpusim::Cluster;
using gpusim::CurveProfile;
using gpusim::DeviceSpec;
using gpusim::EcKernelVariant;
using gpusim::FieldBackend;
using gpusim::Topology;

/** Small scatter geometry so functional runs stay fast. */
MsmOptions
testOptions(unsigned s)
{
    MsmOptions o;
    o.windowBitsOverride = s;
    o.scatter.blockDim = 64;
    o.scatter.gridDim = 4;
    o.scatter.sharedBytesPerBlock = 128 * 1024;
    return o;
}

// --- FieldBackend plumbing (cost_model.h) ---------------------------

TEST(FieldBackendKnob, ParseAndNames)
{
    FieldBackend b = FieldBackend::Auto;
    EXPECT_TRUE(gpusim::parseFieldBackend("cuda-core", &b));
    EXPECT_EQ(b, FieldBackend::CudaCore);
    EXPECT_TRUE(gpusim::parseFieldBackend("tensor-core", &b));
    EXPECT_EQ(b, FieldBackend::TensorCore);
    EXPECT_TRUE(gpusim::parseFieldBackend("tc", &b));
    EXPECT_EQ(b, FieldBackend::TensorCore);
    EXPECT_TRUE(gpusim::parseFieldBackend("auto", &b));
    EXPECT_EQ(b, FieldBackend::Auto);
    EXPECT_FALSE(gpusim::parseFieldBackend("vulkan", &b));
    EXPECT_STREQ(gpusim::fieldBackendName(FieldBackend::CudaCore),
                 "cuda-core");
    EXPECT_STREQ(gpusim::fieldBackendName(FieldBackend::TensorCore),
                 "tensor-core");
    EXPECT_STREQ(gpusim::fieldBackendName(FieldBackend::Auto),
                 "auto");
}

TEST(FieldBackendKnob, ApplyFieldBackendSemantics)
{
    // CudaCore strips the TC flags from any variant.
    EcKernelVariant cc = gpusim::applyFieldBackend(
        EcKernelVariant::full(), FieldBackend::CudaCore);
    EXPECT_FALSE(cc.tensorCoreMont);
    EXPECT_FALSE(cc.onTheFlyCompact);
    EXPECT_TRUE(cc.dedicatedPacc); // non-field flags untouched

    // TensorCore on an already-TC variant is the identity — the
    // conventional-compaction ablation row must keep its pricing.
    EcKernelVariant tc_plain = EcKernelVariant::full();
    tc_plain.onTheFlyCompact = false;
    const EcKernelVariant kept = gpusim::applyFieldBackend(
        tc_plain, FieldBackend::TensorCore);
    EXPECT_TRUE(kept.tensorCoreMont);
    EXPECT_FALSE(kept.onTheFlyCompact);

    // Upgrading a non-TC variant turns on the full TC path.
    const EcKernelVariant up = gpusim::applyFieldBackend(
        EcKernelVariant::baseline(), FieldBackend::TensorCore);
    EXPECT_TRUE(up.tensorCoreMont);
    EXPECT_TRUE(up.onTheFlyCompact);

    // Auto changes nothing at this layer.
    const EcKernelVariant same = gpusim::applyFieldBackend(
        tc_plain, FieldBackend::Auto);
    EXPECT_EQ(same.tensorCoreMont, tc_plain.tensorCoreMont);
    EXPECT_EQ(same.onTheFlyCompact, tc_plain.onTheFlyCompact);
}

// --- Fp dispatch differential ---------------------------------------

template <typename Fq>
void
fieldDifferential(std::uint64_t seed)
{
    using Base = typename Fq::Base;
    Prng prng(seed);

    Base pm1 = Fq::modulus();
    pm1.subInPlace(Base::fromU64(1));
    std::vector<Fq> edge = {
        Fq::zero(), Fq::one(), Fq::fromRaw(pm1),
        // Largest legal Montgomery representation (the reduction
        // boundary): the representation p-1 rather than the value.
        Fq::fromMontgomery(pm1),
    };
    std::vector<Fq> elems = edge;
    for (int i = 0; i < 16; ++i)
        elems.push_back(Fq::random(prng));

    for (const Fq &a : elems) {
        for (const Fq &b : elems) {
            const Fq want_mul = a * b;     // CIOS (no scope)
            const Fq want_sqr = a.sqr();   // CIOS / dedicated square
            ec::opCounters().reset();
            {
                const field::TcBackendScope scope(true);
                EXPECT_TRUE(field::tcBackendActive());
                EXPECT_EQ(a * b, want_mul);
                EXPECT_EQ(a.sqr(), want_sqr);
            }
            EXPECT_FALSE(field::tcBackendActive());
            // One tcMul per executed product: the mul and the sqr.
            EXPECT_EQ(ec::opCounters().tcMul, 2u);
            // Outside the scope nothing routes through tcmul.
            EXPECT_EQ(a * b, want_mul);
            EXPECT_EQ(ec::opCounters().tcMul, 2u);
        }
    }
}

TEST(TcFieldDispatch, Bn254MatchesCios) { fieldDifferential<Bn254Fq>(0xB1); }
TEST(TcFieldDispatch, Bls381MatchesCios) { fieldDifferential<Bls381Fq>(0xB2); }

TEST(TcFieldDispatch, ScopeNests)
{
    const field::TcBackendScope outer(true);
    EXPECT_TRUE(field::tcBackendActive());
    {
        const field::TcBackendScope inner(false);
        EXPECT_FALSE(field::tcBackendActive());
    }
    EXPECT_TRUE(field::tcBackendActive());
}

// --- Planner Auto resolution ----------------------------------------

TEST(FieldBackendPlanner, AutoPicksTcOnSmallFieldsCudaOnMnt)
{
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));
    const MsmOptions options = testOptions(8);

    for (const CurveProfile &curve :
         {CurveProfile::bn254(), CurveProfile::bls377(),
          CurveProfile::bls381()}) {
        const MsmPlan plan =
            planMsm(curve, 1u << 16, cluster, options);
        EXPECT_TRUE(plan.fieldBackendAuto) << curve.name;
        EXPECT_EQ(plan.fieldBackend, FieldBackend::TensorCore)
            << curve.name;
    }

    // MNT4753's 12-limb digit matrices blow past the fragment size;
    // compaction zero-lanes make the tensor path the slower one
    // (paper Section 5.3.3), so Auto keeps CUDA cores.
    const MsmPlan mnt = planMsm(CurveProfile::mnt4753(), 1u << 16,
                                cluster, options);
    EXPECT_TRUE(mnt.fieldBackendAuto);
    EXPECT_EQ(mnt.fieldBackend, FieldBackend::CudaCore);
}

TEST(FieldBackendPlanner, BaselineKernelResolvesToCudaCore)
{
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));
    MsmOptions options = testOptions(8);
    options.kernel = EcKernelVariant::baseline();
    const MsmPlan plan = planMsm(CurveProfile::bn254(), 1u << 16,
                                 cluster, options);
    EXPECT_TRUE(plan.fieldBackendAuto);
    EXPECT_EQ(plan.fieldBackend, FieldBackend::CudaCore);
}

TEST(FieldBackendPlanner, ForcedBackendIsRespected)
{
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));
    MsmOptions options = testOptions(8);
    options.fieldBackend = FieldBackend::CudaCore;
    const MsmPlan cc = planMsm(CurveProfile::bn254(), 1u << 16,
                               cluster, options);
    EXPECT_FALSE(cc.fieldBackendAuto);
    EXPECT_EQ(cc.fieldBackend, FieldBackend::CudaCore);

    options.fieldBackend = FieldBackend::TensorCore;
    const MsmPlan tc = planMsm(CurveProfile::mnt4753(), 1u << 16,
                               cluster, options);
    EXPECT_FALSE(tc.fieldBackendAuto);
    EXPECT_EQ(tc.fieldBackend, FieldBackend::TensorCore);
}

TEST(FieldBackendPlanner, TcBeatsCudaCoreWhereAutoSaysSo)
{
    // The pricing behind the Auto pick, stated directly: on BN254 at
    // paper scales the TC variant's bucket-sum throughput must beat
    // the CUDA-core variant's (the paper's ~8x int32 MACs offload
    // minus marshalling), and the inverse on MNT4753.
    const gpusim::CostModel model(DeviceSpec::a100(),
                                  gpusim::CostParams{});
    const EcKernelVariant tc = gpusim::applyFieldBackend(
        EcKernelVariant::full(), FieldBackend::TensorCore);
    const EcKernelVariant cc = gpusim::applyFieldBackend(
        EcKernelVariant::full(), FieldBackend::CudaCore);
    const std::uint64_t ops = 1u << 20;
    EXPECT_LT(model.ecThroughputNs(CurveProfile::bn254(), tc,
                                   gpusim::EcOp::Pacc, ops),
              model.ecThroughputNs(CurveProfile::bn254(), cc,
                                   gpusim::EcOp::Pacc, ops));
    EXPECT_GT(model.ecThroughputNs(CurveProfile::mnt4753(), tc,
                                   gpusim::EcOp::Pacc, ops),
              model.ecThroughputNs(CurveProfile::mnt4753(), cc,
                                   gpusim::EcOp::Pacc, ops));
}

// --- Engine differential --------------------------------------------

template <typename Curve>
void
engineBackendDifferential(std::size_t n, unsigned s,
                          std::uint64_t seed)
{
    Prng prng(seed);
    const auto points = generatePoints<Curve>(n, prng);
    auto scalars = generateScalars<Curve>(n, prng);
    // Edge scalars ride along: 0, 1 and r-1 exercise the empty
    // bucket, the no-op digit and the all-ones digit paths under
    // both backends.
    using Scalar = BigInt<Curve::Fr::kLimbs>;
    if (n >= 3) {
        scalars[0] = Scalar::zero();
        scalars[1] = Scalar::fromU64(1);
        Scalar rm1 = Curve::Fr::modulus();
        rm1.subInPlace(Scalar::fromU64(1));
        scalars[2] = rm1;
    }
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));

    MsmOptions options = testOptions(s);
    options.fieldBackend = FieldBackend::CudaCore;
    const auto cc =
        computeDistMsm<Curve>(points, scalars, cluster, options);

    options.fieldBackend = FieldBackend::TensorCore;
    const auto tc =
        computeDistMsm<Curve>(points, scalars, cluster, options);

    // Bit-identical results and identical measured work.
    EXPECT_EQ(cc.value, tc.value);
    EXPECT_EQ(cc.stats.paccOps, tc.stats.paccOps);
    EXPECT_EQ(cc.stats.paddOps, tc.stats.paddOps);
    EXPECT_EQ(cc.stats.globalAtomics, tc.stats.globalAtomics);

    // And both match the serial reference.
    const auto expect =
        msmSerialPippenger<Curve>(points, scalars, s);
    EXPECT_EQ(cc.value, expect);
}

TEST(TcBackendEngine, Bn254Differential)
{
    engineBackendDifferential<Bn254>(200, 8, 0xE1);
}

TEST(TcBackendEngine, Bls381Differential)
{
    engineBackendDifferential<Bls381>(160, 8, 0xE2);
}

TEST(TcBackendEngine, Bn254FeatureStackedDifferential)
{
    Prng prng(0xE3);
    const std::size_t n = 192;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));

    MsmOptions options = testOptions(6);
    options.signedDigits = true;
    options.glv = true;
    options.batchAffine = true;
    options.precompute = true;

    options.fieldBackend = FieldBackend::CudaCore;
    const auto cc =
        computeDistMsm<Bn254>(points, scalars, cluster, options);
    options.fieldBackend = FieldBackend::TensorCore;
    const auto tc =
        computeDistMsm<Bn254>(points, scalars, cluster, options);
    EXPECT_EQ(cc.value, tc.value);
    EXPECT_EQ(cc.value,
              msmSerialPippenger<Bn254>(points, scalars, 8));
}

TEST(TcBackendEngine, TensorCoreDeterministicAcrossHostThreads)
{
    Prng prng(0xE4);
    const std::size_t n = 128;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));

    MsmOptions options = testOptions(8);
    options.fieldBackend = FieldBackend::TensorCore;
    options.hostThreads = 1;
    const auto base =
        computeDistMsm<Bn254>(points, scalars, cluster, options);
    for (int threads : {2, 8}) {
        options.hostThreads = threads;
        const auto run =
            computeDistMsm<Bn254>(points, scalars, cluster, options);
        EXPECT_EQ(run.value, base.value) << threads;
        EXPECT_EQ(run.stats.paccOps, base.stats.paccOps) << threads;
        EXPECT_EQ(run.stats.gmemBytes, base.stats.gmemBytes)
            << threads;
    }
}

// --- Metrics / trace attribution ------------------------------------

TEST(TcBackendMetrics, EngineEmitsBackendLanes)
{
    Prng prng(0xE5);
    const std::size_t n = 96;
    const auto points = generatePoints<Bn254>(n, prng);
    const auto scalars = generateScalars<Bn254>(n, prng);
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(4));

    {
        support::TraceRecorder trace;
        MsmOptions options = testOptions(8);
        options.trace = &trace;
        options.fieldBackend = FieldBackend::TensorCore;
        computeDistMsm<Bn254>(points, scalars, cluster, options);
        const auto &m = trace.metrics();
        EXPECT_EQ(m.value("engine/field_backend"),
                  double(int(FieldBackend::TensorCore)));
        EXPECT_EQ(m.value("engine/field_backend_auto"), 0.0);
        EXPECT_EQ(m.value("engine/field_backend_tc_executed"), 1.0);
        EXPECT_GT(m.value("engine/field_backend_tc_modmuls"), 0.0);
    }
    {
        support::TraceRecorder trace;
        MsmOptions options = testOptions(8);
        options.trace = &trace;
        options.fieldBackend = FieldBackend::CudaCore;
        computeDistMsm<Bn254>(points, scalars, cluster, options);
        const auto &m = trace.metrics();
        EXPECT_EQ(m.value("engine/field_backend"),
                  double(int(FieldBackend::CudaCore)));
        EXPECT_EQ(m.value("engine/field_backend_tc_executed"), 0.0);
        EXPECT_GT(m.value("engine/field_backend_cuda_modmuls"), 0.0);
    }
}

TEST(TcBackendMetrics, TimelineRecordsResolvedBackend)
{
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(8));
    support::TraceRecorder trace;
    MsmOptions options;
    options.trace = &trace;
    const auto t = estimateDistMsm(CurveProfile::bn254(), 1u << 20,
                                   cluster, options);
    EXPECT_EQ(t.fieldBackend, FieldBackend::TensorCore);
    EXPECT_EQ(trace.metrics().value("timeline/field_backend"),
              double(int(FieldBackend::TensorCore)));
    EXPECT_EQ(trace.metrics().value("timeline/field_backend_auto"),
              1.0);
}

TEST(TcBackendTimeline, AutoNeverLosesToEitherForcedBackend)
{
    // The planner's pick must be at least as good as both forced
    // backends under the timeline model — on every curve and at
    // several scales (this is the point of the knob).
    const Cluster cluster(DeviceSpec::a100(), Topology::flat(8));
    const std::string bn254 = CurveProfile::bn254().name;
    const std::string mnt4753 = CurveProfile::mnt4753().name;
    for (const CurveProfile &curve :
         {CurveProfile::bn254(), CurveProfile::bls381(),
          CurveProfile::mnt4753()}) {
        for (unsigned logn : {14u, 16u, 18u, 20u, 22u, 24u}) {
            MsmOptions options;
            const auto auto_t = estimateDistMsm(
                curve, 1ull << logn, cluster, options);
            const MsmPlan plan =
                planMsm(curve, 1ull << logn, cluster, options);
            options.fieldBackend = FieldBackend::CudaCore;
            const auto cc_t = estimateDistMsm(
                curve, 1ull << logn, cluster, options);
            options.fieldBackend = FieldBackend::TensorCore;
            const auto tc_t = estimateDistMsm(
                curve, 1ull << logn, cluster, options);
            EXPECT_LE(auto_t.totalNs(),
                      std::min(cc_t.totalNs(), tc_t.totalNs()) *
                          (1.0 + 1e-12))
                << curve.name << " 2^" << logn;
            // The per-curve winner: tensor cores on BN254 from 2^14
            // to 2^22, CUDA cores on MNT4753 (12-limb operands) at
            // 2^20.
            if (curve.name == bn254 && logn <= 22) {
                EXPECT_LT(tc_t.totalNs(), cc_t.totalNs())
                    << "2^" << logn;
                EXPECT_EQ(plan.fieldBackend, FieldBackend::TensorCore)
                    << "2^" << logn;
            }
            if (curve.name == mnt4753 && logn == 20) {
                EXPECT_LT(cc_t.totalNs(), tc_t.totalNs());
                EXPECT_EQ(plan.fieldBackend, FieldBackend::CudaCore);
            }
        }
    }
}

} // namespace
} // namespace distmsm::msm
