/**
 * @file
 * Stateful MSM engine.
 *
 * In zkSNARK proving the point vector is fixed by the trusted setup
 * while the scalars change per proof (paper Section 2.2). MsmEngine
 * captures that usage: construct it once with the points, the
 * cluster and the options — it plans the execution and obtains the
 * fixed-base precomputation tables (built, or reused from the
 * process-wide BaseTableCache when another engine already built them
 * for the same bases and geometry) — then call compute() per scalar
 * vector. computeDistMsm() in distmsm.h is the one-shot convenience
 * wrapper.
 *
 * Phase pipeline
 * --------------
 * Every compute() runs decompose -> scatter -> assign -> execute ->
 * ship -> reduce -> record over a per-call MsmRun (DESIGN.md Section
 * 4, "One phase pipeline"). Without precompute the work unit is a
 * window: it scatters and sums its own buckets, and the window points
 * merge through the serial Horner recurrence. With precompute
 * (plan.precompute) the table rows 2^(js) P_i realign every window's
 * digit into ONE bucket set: one combined scatter over numWindows * n
 * elements, one unit per device summing its slice of the buckets, and
 * one bucket-reduce — no final doubling chain.
 */

#ifndef DISTMSM_MSM_ENGINE_H
#define DISTMSM_MSM_ENGINE_H

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/ec/point.h"
#include "src/field/backend.h"
#include "src/field/batch_inverse.h"
#include "src/gpusim/faults.h"
#include "src/gpusim/health.h"
#include "src/msm/batch_affine.h"
#include "src/msm/bucket_reduce.h"
#include "src/msm/checksum.h"
#include "src/msm/glv.h"
#include "src/msm/planner.h"
#include "src/msm/precompute.h"
#include "src/msm/scatter.h"
#include "src/msm/signed_digits.h"
#include "src/support/check.h"
#include "src/support/prng.h"
#include "src/support/status.h"
#include "src/support/thread_pool.h"
#include "src/support/trace.h"

namespace distmsm::msm {

/** Output of a functional DistMSM run. */
template <typename Curve>
struct MsmResult
{
    XYZZPoint<Curve> value;
    MsmPlan plan;
    /** Aggregated simulator statistics across all GPUs/windows. */
    gpusim::KernelStats stats;
    /** EC additions executed by the host (reduce steps). */
    std::uint64_t hostOps = 0;
    /**
     * What the fault layer injected, detected and recovered during
     * this run (gpusim/faults.h). All zero on a fault-free run; the
     * digest EC work (verifyEcOps) is deliberately kept out of both
     * `stats` and `hostOps` so a zero-fault run's counters are
     * bit-identical to a build without the fault layer.
     */
    gpusim::FaultReport fault;
};

/**
 * Sum one bucket with @p threads_per_bucket cooperating threads:
 * independent partial chains followed by a pairwise tree reduction
 * (Section 3.2.2). @p point_of maps a scattered id to the (possibly
 * negated or precomputed) affine point it contributes.
 */
template <typename Curve, typename PointOf>
XYZZPoint<Curve>
bucketSumTree(const std::vector<std::uint32_t> &ids,
              PointOf &&point_of, int threads_per_bucket,
              gpusim::KernelStats &stats)
{
    using Xyzz = XYZZPoint<Curve>;
    const std::size_t m = ids.size();
    const int t = threads_per_bucket;
    std::vector<Xyzz> partials;
    partials.reserve(t);
    for (int lane = 0; lane < t; ++lane) {
        Xyzz acc = Xyzz::identity();
        for (std::size_t i = lane; i < m;
             i += static_cast<std::size_t>(t)) {
            acc = pacc(acc, point_of(ids[i]));
            ++stats.paccOps;
        }
        partials.push_back(acc);
    }
    // Pairwise tree reduction: log2(t) SIMD steps.
    while (partials.size() > 1) {
        std::vector<Xyzz> next;
        for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
            next.push_back(padd(partials[i], partials[i + 1]));
            ++stats.paddOps;
        }
        if (partials.size() % 2 == 1)
            next.push_back(partials.back());
        partials = std::move(next);
    }
    return partials.front();
}

/** Reusable MSM executor over a fixed point vector. */
template <typename Curve>
class MsmEngine
{
  public:
    using Scalar = BigInt<Curve::Fr::kLimbs>;

    MsmEngine(std::vector<AffinePoint<Curve>> points,
              const gpusim::Cluster &cluster,
              const MsmOptions &options = MsmOptions{})
        : points_(std::move(points)), cluster_(cluster),
          options_(options)
    {
        // DISTMSM_TRACE=path.json turns tracing on without touching
        // call sites; an explicit MsmOptions::trace wins.
        if (options_.trace == nullptr)
            options_.trace = support::globalTraceFromEnv();
        // DISTMSM_FAULT_SPEC likewise, resolved once before the first
        // plan so planning, pricing and injection all read
        // options_.faults; an explicit MsmOptions::faults wins. A
        // malformed spec is kept and returned by every tryCompute.
        if (options_.faults.empty()) {
            const support::StatusOr<const gpusim::FaultPlan *> env =
                gpusim::globalFaultPlanFromEnv();
            if (!env.isOk())
                fault_status_ = env.status();
            else if (*env != nullptr)
                options_.faults = **env;
        }
        curve_profile_ = gpusim::CurveProfile{
            Curve::kName, Curve::Fq::Params::kBits,
            Curve::kScalarBits, Curve::kAIsZero,
            glv::CurveGlv<Curve>::kSupported ? glv::kHalfScalarBits
                                             : 0};
        planAndStage();
    }

    const MsmPlan &plan() const { return plan_; }
    std::size_t numPoints() const { return points_.size(); }
    /** The precompute table came from the cross-proof cache. */
    bool tableCacheHit() const { return table_cache_hit_; }

    /**
     * Run one MSM against the staged points.
     *
     * Host parallelism (options.hostThreads): the signed-digit
     * decomposition, the windows' scatters, the bucket-sum chunks of
     * every unit, the windows' bucket reduces and the [rho]P terms
     * of every transfer digest all run concurrently on the
     * support::ThreadPool; a scatter launch runs its blocks in order
     * inside its task. Every parallel task writes only its own slot
     * and the slots are merged in the exact order of the sequential
     * algorithm (windows high-to-low, chunks, groups and devices
     * ascending, digest terms in payload order), so the returned
     * point, the KernelStats, hostOps and the FaultReport are
     * bit-identical for every thread count — hostThreads == 1 is the
     * serial execution. The chunks charge the unsplit launch's
     * KernelStats (execute).
     */
    MsmResult<Curve>
    compute(const std::vector<Scalar> &scalars) const
    {
        support::StatusOr<MsmResult<Curve>> result =
            tryCompute(scalars);
        DISTMSM_REQUIRE(result.isOk(),
                        result.status().toString().c_str());
        return std::move(*result);
    }

    /**
     * compute() with a typed error channel. Faults the recovery
     * layer absorbs (a killed device whose windows reshard onto
     * survivors, a corrupted or delayed transfer that succeeds
     * within kMaxTransferRetries) still return a value — bit
     * identical to the fault-free run — with the injections and
     * recoveries tallied in MsmResult::fault. Unrecoverable faults
     * (every device lost, a persistently corrupt link exhausting its
     * retries) return the typed Status instead; a wrong answer is
     * never returned, because every accepted transfer passed its RLC
     * digest check (when MsmOptions::verifyChecksums is on).
     */
    support::StatusOr<MsmResult<Curve>>
    tryCompute(const std::vector<Scalar> &scalars) const
    {
        if (scalars.size() != points_.size())
            return support::Status(
                support::StatusCode::InvalidArgument,
                "points/scalars size mismatch");
        // A stale health generation (a quarantine, parole or
        // reintegration since planning) invalidates the plan:
        // re-plan from the caller's options — so Search
        // re-searches — over the changed schedulable fleet before
        // reading any plan field. Not thread-safe against concurrent
        // tryCompute calls on one engine; health tracking is a
        // sequential-coordinator feature.
        if (options_.health != nullptr &&
            options_.health->generation() != planned_generation_)
            planAndStage();
        if (!fault_status_.isOk())
            return fault_status_;

        MsmRun run;
        run.result.plan = plan_;
        run.devFaulted.assign(
            static_cast<std::size_t>(cluster_.numGpus()), 0);
        run.hostThreads =
            support::resolveHostThreads(options_.hostThreads);
        const std::uint64_t msm_idx =
            options_.trace != nullptr
                ? msm_counter_.fetch_add(1,
                                         std::memory_order_relaxed)
                : 0;
        run.tracePrefix = "msm" + std::to_string(msm_idx) + "/";
        if (options_.trace != nullptr)
            labelEngineLanes(*options_.trace);

        decompose(run, scalars);
        support::Status status = scatter(run);
        if (status.isOk())
            status = assign(run);
        if (status.isOk())
            status = execute(run);
        if (status.isOk())
            status = ship(run);
        if (!status.isOk())
            return status;
        reduce(run);
        record(run);
        return std::move(run.result);
    }

  private:
    using Xyzz = XYZZPoint<Curve>;

    /** What executing one work unit produced. */
    struct UnitOut
    {
        support::Status status{support::StatusCode::KernelFault,
                               "unit not executed"};
        /** A window's own scatter (slices share the pass's). */
        gpusim::KernelStats scatterStats;
        /** Bucket-sum work, lockstep across the unit's groups. */
        gpusim::KernelStats ecStats;
        /** A window's bucket reduce and the window point it made. */
        ReduceStats reduceStats;
        Xyzz point = Xyzz::identity();
    };

    /**
     * Per-call state threaded through the phases. A work unit is a
     * window, or (slices) one device's slice of the combined pass's
     * bucket array; unit u owns the keys keyRange(u) of `keyed` — its
     * window point, or its bucket sums. The ship moves exactly those
     * points, and the RLC digests use the same keys, so a reshard
     * never changes the digest a payload must match.
     */
    struct MsmRun
    {
        MsmResult<Curve> result;
        /** Injections/detections in their deterministic order, for
         *  the fault trace track. */
        std::vector<std::string> faultLog;
        /** Devices that showed any fault this run — the complement
         *  earns clean windows on the health ladder. */
        std::vector<std::uint8_t> devFaulted;
        /** Next canonical transfer-attempt index (corrupt:xfer=N). */
        std::uint64_t xferCounter = 0;
        std::string tracePrefix;
        int hostThreads = 1;

        /** The scalars the windows read: the inputs, or their GLV
         *  halves (half i drives P_i, half n + i drives phi(P_i)). */
        const std::vector<Scalar> *scalars = nullptr;
        std::vector<Scalar> halfScalars;
        std::vector<std::uint8_t> glvNeg;
        std::vector<std::vector<std::int32_t>> digits;
        std::size_t nEff = 0;
        /** Buckets per bucket set, bucket 0 included. */
        std::size_t numBuckets = 0;

        bool slices = false;
        unsigned numUnits = 0;
        /** The combined pass's scatter and per-element negation. */
        ScatterResult scattered;
        std::vector<std::uint8_t> negs;
        /** The combined pass's bucket reduce. */
        ReduceStats reduceStats;
        std::vector<Xyzz> keyed;

        /** Devices that can take over work — FaultPlan::survives and
         *  not quarantined when assign ran — ascending. Quarantine
         *  never lifts inside a tryCompute, so this list filtered by
         *  the tracker's live schedulable() is exactly the devices
         *  alive and schedulable now. */
        std::vector<int> survivors;
        /** Device each unit executes and ships on. */
        std::vector<int> execDev;
        /** Straggling windows re-executed beside their original. */
        std::vector<std::uint8_t> dual;
        std::vector<UnitOut> units;
    };

    /**
     * One execution of a unit inside execute(): the unit itself or a
     * straggling window's dual copy. A window owns its scatter, its
     * per-element negation and its bucket sums; a slice reads the
     * combined pass's and sums into MsmRun::keyed.
     */
    struct UnitExec
    {
        unsigned unit = 0;
        UnitOut *out = nullptr;
        ScatterResult scattered;
        std::vector<std::uint8_t> negs;
        std::vector<Xyzz> sums;
    };

    /** Buckets [lo, hi) of group @p group of execution @p exec. */
    struct BucketChunk
    {
        std::size_t exec;
        int group;
        std::size_t lo;
        std::size_t hi;
    };

    /**
     * Scattered ids per bucket-sum chunk (execute's pass 2): small
     * enough that a call's chunks balance over the host threads,
     * large enough that each chunk's per-round batch inversion stays
     * a small share of its affine additions.
     */
    static constexpr std::size_t kChunkIds = std::size_t{1} << 14;

    /** The keys unit @p u owns: its window, or its slice's buckets. */
    static std::pair<std::size_t, std::size_t>
    keyRange(const MsmRun &run, unsigned u)
    {
        if (!run.slices)
            return {u, u + 1};
        const std::size_t b = run.numBuckets - 1;
        return {1 + b * u / run.numUnits, 1 + b * (u + 1) / run.numUnits};
    }

    /**
     * The device a unit is booked on — its trace lane, metric prefix
     * and health credit: a window's executing device, a slice's own
     * device (a resharded slice's owner is faulted and earns
     * nothing).
     */
    static int
    bookedDevice(const MsmRun &run, unsigned u)
    {
        return run.slices ? static_cast<int>(u) : run.execDev[u];
    }

    /**
     * Decompose: GLV halves and signed digits for every scalar (each
     * scalar writes only its own slots), then the unit layout — one
     * unit per window, or one bucket slice per device when the plan
     * runs the combined precompute pass.
     */
    void
    decompose(MsmRun &run, const std::vector<Scalar> &scalars) const
    {
        auto &pool = support::ThreadPool::global();
        const std::size_t n_base = points_.size();
        if constexpr (glv::CurveGlv<Curve>::kSupported) {
            if (plan_.glv) {
                run.halfScalars.resize(2 * n_base);
                run.glvNeg.assign(2 * n_base, 0);
                pool.parallelFor(
                    0, n_base,
                    [&](std::size_t i) {
                        const auto split =
                            glv::decompose<Curve>(scalars[i]);
                        run.halfScalars[i] = split.k1;
                        run.halfScalars[n_base + i] = split.k2;
                        run.glvNeg[i] = split.neg1;
                        run.glvNeg[n_base + i] = split.neg2;
                    },
                    run.hostThreads);
            }
        }
        run.scalars = plan_.glv ? &run.halfScalars : &scalars;
        run.nEff = run.scalars->size();
        // The window passes cover plan_.scalarBits — the GLV half
        // width when active.
        if (plan_.signedDigits) {
            run.digits.resize(run.nEff);
            pool.parallelFor(
                0, run.nEff,
                [&](std::size_t i) {
                    run.digits[i] = signedWindowDigits(
                        (*run.scalars)[i], plan_.scalarBits,
                        plan_.windowBits);
                },
                run.hostThreads);
        }
        run.numBuckets = plan_.numBuckets + 1;
        run.slices = plan_.precompute;
        run.numUnits = run.slices
                           ? static_cast<unsigned>(cluster_.numGpus())
                           : plan_.numWindows;
        run.keyed.assign(run.slices ? run.numBuckets : plan_.numWindows,
                         Xyzz::identity());
    }

    /** Window @p w's digits of every effective scalar, as (bucket
     *  magnitude, negate) pairs written to @p ids / @p negs. */
    void
    windowDigits(const MsmRun &run, unsigned w, std::uint32_t *ids,
                 std::uint8_t *negs) const
    {
        const unsigned s = plan_.windowBits;
        for (std::size_t i = 0; i < run.nEff; ++i) {
            if (plan_.signedDigits) {
                const std::int32_t d = run.digits[i][w];
                ids[i] = static_cast<std::uint32_t>(d < 0 ? -d : d);
                negs[i] = d < 0;
            } else {
                ids[i] = static_cast<std::uint32_t>(
                    (*run.scalars)[i].bits(
                        static_cast<std::size_t>(w) * s, s));
                negs[i] = 0;
            }
            // A negative half-scalar flips its contribution;
            // composes with the signed-digit flip.
            if (plan_.glv)
                negs[i] ^= run.glvNeg[i];
        }
    }

    /** One scatter launch over @p ids, traced as @p label on kernel
     *  lane @p lane. */
    ScatterResult
    scatterIds(const std::vector<std::uint32_t> &ids,
               const std::string &label, int lane) const
    {
        ScatterConfig cfg = options_.scatter;
        cfg.fieldBackend = plan_.fieldBackend;
        if (options_.trace != nullptr) {
            cfg.trace = options_.trace;
            cfg.traceLabel = label;
            cfg.traceLane = lane;
        }
        return plan_.hierarchicalScatter
                   ? hierarchicalScatter(ids, plan_.windowBits, cfg)
                   : naiveScatter(ids, plan_.windowBits, cfg);
    }

    /**
     * Scatter phase of the combined pass: element e = w * nEff + i
     * carries table row w of base i into the bucket of digit (w, i),
     * and one scatter sorts them all into the single shared bucket
     * array. Windows skip this phase: each scatters its own digits
     * in execute's first pass, so a dual-execution copy re-runs the
     * scatter like every other step of the window.
     */
    support::Status
    scatter(MsmRun &run) const
    {
        if (!run.slices)
            return support::Status::ok();
        const unsigned n_windows = plan_.numWindows;
        const std::uint64_t total64 =
            static_cast<std::uint64_t>(n_windows) * run.nEff;
        DISTMSM_REQUIRE(
            total64 <= std::numeric_limits<std::uint32_t>::max(),
            "combined precompute pass exceeds 32-bit element ids");
        std::vector<std::uint32_t> ids(total64);
        run.negs.resize(total64);
        support::ThreadPool::global().parallelFor(
            0, n_windows,
            [&](std::size_t w) {
                const std::size_t e = w * run.nEff;
                windowDigits(run, static_cast<unsigned>(w),
                             ids.data() + e, run.negs.data() + e);
            },
            run.hostThreads);
        run.scattered =
            scatterIds(ids, run.tracePrefix + "combined/scatter", 0);
        return run.scattered.status;
    }

    /**
     * Assign phase: place every unit on a device, list the run's
     * survivors, classify the fault plan's device faults, and execute
     * each unit's watchdogVerdict — run where placed, reshard onto a
     * survivor (pickSurvivor), or respawn on the verdict's target.
     * Sequential, devices and units ascending, so detection, health
     * escalation and target choice are identical at every
     * hostThreads setting.
     *
     * Windows round-robin over the *schedulable* devices (quarantined
     * ones sit out; without a tracker that is every device, the
     * legacy w % numGpus layout); the fault grammar's win= names the
     * ordinal of a window on its device. Slices are one per device
     * and span every window (kSliceOrdinal): a kill at any window, a
     * hang or a quarantine loses the device's whole slice to a
     * survivor, and a degrade stretches it, never respawned.
     */
    support::Status
    assign(MsmRun &run) const
    {
        const gpusim::FaultPlan &fp = options_.faults;
        gpusim::FaultReport &report = run.result.fault;
        gpusim::HealthTracker *const health = options_.health;
        const int num_gpus = cluster_.numGpus();
        const unsigned n_units = run.numUnits;
        const auto quarantined = [&](int d) {
            return health != nullptr && d < health->numDevices() &&
                   !health->schedulable(d);
        };
        const auto at_window = [&](int k) {
            return run.slices ? std::string()
                              : "@win" + std::to_string(k);
        };

        std::vector<int> placement;
        for (int d = 0; d < num_gpus; ++d)
            if (run.slices || !quarantined(d))
                placement.push_back(d);
        if (placement.empty())
            return support::Status(
                support::StatusCode::DeviceLost,
                "all " + std::to_string(num_gpus) +
                    " devices quarantined; nothing schedulable");
        const int n_place = static_cast<int>(placement.size());
        const auto ordinal = [n_place](unsigned u) {
            return static_cast<int>(u) / n_place;
        };
        run.execDev.resize(n_units);
        for (unsigned u = 0; u < n_units; ++u)
            run.execDev[u] = placement[static_cast<int>(u) % n_place];
        std::vector<std::uint8_t> lost(n_units, 0);
        run.dual.assign(n_units, 0);
        // Hung devices cannot take over work either; with the
        // watchdog off a hang is rejected below before any reshard
        // happens.
        for (int d = 0; d < num_gpus; ++d)
            if (fp.survives(d) && !quarantined(d))
                run.survivors.push_back(d);

        // --- Device faults ---
        for (int d = 0; d < num_gpus; ++d) {
            const int kw = fp.killWindow(d);
            if (kw < 0)
                continue;
            ++report.devicesLost;
            ++report.faultsInjected;
            run.devFaulted[static_cast<std::size_t>(d)] = 1;
            run.faultLog.push_back("kill/dev" + std::to_string(d) +
                                   at_window(kw));
        }
        for (int d = 0; d < num_gpus; ++d) {
            if (fp.degraded(d)) {
                ++report.faultsInjected;
                run.devFaulted[static_cast<std::size_t>(d)] = 1;
                run.faultLog.push_back("degrade/dev" + std::to_string(d));
            }
            const int hw = fp.hangWindow(d);
            if (hw >= 0) {
                ++report.hangs;
                ++report.faultsInjected;
                run.devFaulted[static_cast<std::size_t>(d)] = 1;
                if (health != nullptr)
                    health->recordHang(d);
                run.faultLog.push_back("hang/dev" + std::to_string(d) +
                                       at_window(hw));
            }
        }

        // --- Watchdog verdicts: kills, hangs and stragglers ---
        // Killed units, and hung or quarantined slices, go to the
        // reshard below. Both copies of a respawned window execute the
        // same deterministic unit, so the adopted point is
        // bit-identical either way (execute asserts it). Waits are
        // summed in per-unit estimates and priced once, as the
        // timeline prices them.
        double wait_units = 0.0;
        double stall_units = 0.0;
        for (unsigned u = 0; u < n_units; ++u) {
            const int d = run.execDev[u];
            const WatchdogVerdict v = watchdogVerdict(
                fp, d, run.slices ? kSliceOrdinal : ordinal(u),
                plan_.collective != gpusim::CollectiveAlgo::Gather,
                options_.watchdog, run.survivors);
            if (v.killed || (run.slices && !v.hang && quarantined(d))) {
                lost[u] = 1;
                continue;
            }
            if (v.hang && !options_.watchdog)
                return support::Status(
                    support::StatusCode::TransferTimeout,
                    "device " + std::to_string(d) +
                        " hung and the watchdog is off");
            if (v.late) {
                ++report.stragglersDetected;
                if (health != nullptr && !v.hang)
                    health->recordStraggler(d);
                if (v.hang && v.target < 0)
                    return support::Status(
                        support::StatusCode::DeviceLost,
                        "device " + std::to_string(d) +
                            " hung and no healthy candidate remains "
                            "to respawn onto");
            }
            wait_units += v.adopted - 1.0;
            if (v.hang)
                report.stragglerStallNs += kTransferTimeoutNs;
            else
                stall_units += v.factor - 1.0;
            if (v.target < 0)
                continue;
            ++report.stragglerRespawns;
            ++(v.copyWins ? report.speculativeWins
                          : report.speculativeLosses);
            if (run.slices) {
                lost[u] = 1; // a hung slice's copy is its reshard
                continue;
            }
            run.faultLog.push_back("respawn/w" + std::to_string(u) +
                                   "/dev" + std::to_string(d) + "->dev" +
                                   std::to_string(v.target));
            run.dual[u] = !v.hang;
            if (v.copyWins)
                run.execDev[u] = v.target;
        }
        report.stragglerWaitNs += wait_units * unit_estimate_ns_;
        report.stragglerStallNs += stall_units * unit_estimate_ns_;

        // --- Recovery: reshard lost units onto the survivors ---
        // A unit recomputes from the same scattered input on any
        // device, so recovery is bit-identical by construction; the
        // survivor that recomputes a unit also ships it.
        std::size_t resharded = 0;
        for (unsigned u = 0; u < n_units; ++u) {
            if (!lost[u])
                continue;
            const int dead = run.execDev[u];
            const int target = pickSurvivor(run, dead, resharded++,
                                            [](int) { return true; });
            if (target < 0)
                return support::Status(
                    support::StatusCode::DeviceLost,
                    "all " + std::to_string(num_gpus) +
                        " devices lost; no survivor to reshard "
                        "onto");
            if (cluster_.topology().sameNode(target, dead))
                ++report.reshardsIntraNode;
            else
                ++report.reshardsCrossNode;
            run.execDev[u] = target;
        }
        report.windowsResharded += resharded;
        return support::Status::ok();
    }

    /**
     * Execute phase, as three flat pool passes so that no simulated
     * device's share sets the host's makespan. Every unit executes —
     * first runs, reshards and watchdog respawns alike, since a
     * unit's result does not depend on its device — plus a copy of
     * each straggling (not hung) window, a genuine dual execution
     * that must agree bit-for-bit and whose stats are discarded.
     *  1. Each window and copy builds its digits and scatters them
     *     (the combined pass scattered once in scatter()). The first
     *     failing unit (ascending) surfaces.
     *  2. One pass over every bucket chunk of every execution: each
     *     group's bucket range is cut at bucket boundaries into
     *     chunks of about kChunkIds scattered ids (cutChunks), and
     *     each chunk sums into its execution's own bucket slots.
     *  3. Each window and copy reduces its buckets to its window
     *     point.
     * The chunks charge the launch the plan describes (mergeChunks),
     * so every counter is the unsplit launch's.
     */
    support::Status
    execute(MsmRun &run) const
    {
        auto &pool = support::ThreadPool::global();
        run.units.resize(run.numUnits);
        const std::size_t n_duals = static_cast<std::size_t>(
            std::count(run.dual.begin(), run.dual.end(), 1));
        std::vector<UnitOut> copies(n_duals);
        std::vector<UnitExec> execs(run.numUnits + n_duals);
        for (unsigned u = 0, k = 0; u < run.numUnits; ++u) {
            execs[u].unit = u;
            execs[u].out = &run.units[u];
            if (!run.dual[u])
                continue;
            execs[run.numUnits + k].unit = u;
            execs[run.numUnits + k].out = &copies[k];
            ++k;
        }

        if (run.slices) {
            for (UnitOut &unit : run.units)
                unit.status = support::Status::ok();
        } else {
            pool.parallelFor(
                0, execs.size(),
                [&](std::size_t j) { scatterWindow(run, execs[j]); },
                run.hostThreads);
            for (const UnitOut &unit : run.units)
                if (!unit.status.isOk())
                    return unit.status;
        }

        const std::vector<BucketChunk> chunks = cutChunks(run, execs);
        std::vector<gpusim::KernelStats> chunk_stats(chunks.size());
        std::vector<std::uint64_t> inv_rounds(chunks.size(), 0);
        pool.parallelFor(
            0, chunks.size(),
            [&](std::size_t c) {
                // Simulated-kernel field muls execute on the forced
                // backend; entered per task, on its worker thread.
                const field::TcBackendScope tc_scope(tcExecuted());
                inv_rounds[c] = sumChunk(run, execs[chunks[c].exec],
                                         chunks[c], chunk_stats[c]);
            },
            run.hostThreads);
        mergeChunks(chunks, chunk_stats, inv_rounds, execs);

        if (run.slices)
            return support::Status::ok();
        pool.parallelFor(
            0, execs.size(),
            [&](std::size_t j) {
                UnitOut &out = *execs[j].out;
                out.point = bucketReduceSerial<Curve>(execs[j].sums,
                                                      &out.reduceStats);
            },
            run.hostThreads);
        for (std::size_t k = 0; k < n_duals; ++k) {
            const UnitExec &copy = execs[run.numUnits + k];
            DISTMSM_ASSERT(
                bitEqual(copy.out->point, run.units[copy.unit].point));
        }
        for (unsigned w = 0; w < run.numUnits; ++w)
            run.keyed[w] = run.units[w].point;
        return support::Status::ok();
    }

    /**
     * Pass 1 of a window execution: its digits and its own scatter
     * launch, traced on the window's kernel-launch lane so the launch
     * span carries exactly this window's contention.
     */
    void
    scatterWindow(const MsmRun &run, UnitExec &e) const
    {
        std::vector<std::uint32_t> ids(run.nEff);
        e.negs.resize(run.nEff);
        windowDigits(run, e.unit, ids.data(), e.negs.data());
        e.scattered = scatterIds(ids,
                                 run.tracePrefix + "w" +
                                     std::to_string(e.unit) + "/scatter",
                                 static_cast<int>(e.unit));
        e.out->status = e.scattered.status;
        e.out->scatterStats = e.scattered.stats;
        if (e.scattered.ok)
            e.sums.assign(run.numBuckets, Xyzz::identity());
    }

    /**
     * Pass 2's task list, executions and their groups ascending. A
     * group is one of a window's plan_.gpusPerWindow bucket groups
     * (Section 3.2.2) or a slice's whole key range. Each group's
     * range is cut before any bucket that would take its chunk past
     * kChunkIds ids, so only a bucket larger than that stands alone
     * above it. The cut reads only the scatter output, never
     * hostThreads.
     */
    std::vector<BucketChunk>
    cutChunks(const MsmRun &run, const std::vector<UnitExec> &execs) const
    {
        std::vector<BucketChunk> chunks;
        for (std::size_t j = 0; j < execs.size(); ++j) {
            const auto &buckets = bucketsOf(run, execs[j]);
            std::size_t lo = 1, hi = run.numBuckets;
            int groups = plan_.bucketsSplitAcrossGpus ? plan_.gpusPerWindow
                                                      : 1;
            if (run.slices) {
                std::tie(lo, hi) = keyRange(run, execs[j].unit);
                groups = 1;
            }
            for (int g = 0; g < groups; ++g) {
                const std::size_t g_lo = lo + (hi - lo) * g / groups;
                const std::size_t g_hi = std::min(
                    lo + (hi - lo) * (g + 1) / groups, buckets.size());
                std::size_t start = g_lo, ids = 0;
                for (std::size_t b = g_lo; b < g_hi; ++b) {
                    if (b > start && ids + buckets[b].size() > kChunkIds) {
                        chunks.push_back({j, g, start, b});
                        start = b;
                        ids = 0;
                    }
                    ids += buckets[b].size();
                }
                if (start < g_hi)
                    chunks.push_back({j, g, start, g_hi});
            }
        }
        return chunks;
    }

    /**
     * Sum chunk @p c of execution @p e into its bucket slots: the
     * window's own sums, or the combined pass's shared bucket array.
     * Returns the batch-affine inversion rounds (none for the pacc
     * tree).
     */
    std::uint64_t
    sumChunk(MsmRun &run, UnitExec &e, const BucketChunk &c,
             gpusim::KernelStats &stats) const
    {
        const std::size_t n_eff = run.nEff;
        const std::size_t n_base = points_.size();
        const std::vector<std::uint8_t> &negs =
            run.slices ? run.negs : e.negs;
        const auto &buckets = bucketsOf(run, e);
        std::vector<Xyzz> &sums = run.slices ? run.keyed : e.sums;
        auto point_of = [&](std::uint32_t idx) {
            const AffinePoint<Curve> &base =
                run.slices ? table_->rows[idx / n_eff][idx % n_eff]
                : idx < n_base ? points_[idx]
                               : phi_points_[idx - n_base];
            return negs[idx] ? base.negated() : base;
        };
        if (plan_.batchAffine) {
            BatchAffineScratch<Curve> scratch;
            return batchAffineAccumulate<Curve>(buckets, c.lo, c.hi,
                                                point_of, sums, stats,
                                                scratch);
        }
        for (std::size_t b = c.lo; b < c.hi; ++b)
            if (!buckets[b].empty())
                sums[b] = bucketSumTree<Curve>(buckets[b], point_of,
                                               plan_.threadsPerBucket,
                                               stats);
        return 0;
    }

    /**
     * Charge every execution the launch the plan describes. A bucket's
     * sum does not depend on which buckets share its inversions, so
     * only batchInvOps depends on the cut: a group ran one inversion
     * per round any of its chunks inverted in, the popcount of the OR
     * of their round masks. Every other counter sums, chunks
     * ascending. The groups are one launch running on their devices
     * in lockstep: work counts sum, the shared phase structure does
     * not (see KernelStats::mergeLockstep; pinned by the 1-vs-4
     * device stats test).
     */
    static void
    mergeChunks(const std::vector<BucketChunk> &chunks,
                const std::vector<gpusim::KernelStats> &chunk_stats,
                const std::vector<std::uint64_t> &inv_rounds,
                std::vector<UnitExec> &execs)
    {
        for (std::size_t c = 0; c < chunks.size();) {
            gpusim::KernelStats group;
            std::uint64_t rounds = 0;
            std::size_t d = c;
            for (; d < chunks.size() && chunks[d].exec == chunks[c].exec &&
                   chunks[d].group == chunks[c].group;
                 ++d) {
                group.merge(chunk_stats[d]);
                rounds |= inv_rounds[d];
            }
            group.batchInvOps =
                static_cast<std::uint64_t>(std::popcount(rounds));
            execs[chunks[c].exec].out->ecStats.mergeLockstep(group);
            c = d;
        }
    }

    /** The scattered buckets execution @p e sums. */
    static const std::vector<std::vector<std::uint32_t>> &
    bucketsOf(const MsmRun &run, const UnitExec &e)
    {
        return run.slices ? run.scattered.buckets : e.scattered.buckets;
    }

    /**
     * Ship phase: every unit's keyed points reach the host through
     * the checksummed transfer layer, sequentially, one canonical
     * index per attempt (the counter corrupt:xfer names), so faults
     * land identically at every hostThreads setting. Each device
     * ships one payload (its units ascending); slices under a
     * plan-Gather ship one each, so a survivor carrying a resharded
     * slice ships it separately. One walk over the merge's
     * CollectiveSchedule serves every strategy: a Gather schedule
     * has no steps and no root, so every payload ships straight to
     * the host; ring / tree / reduce-scatter route each step's keys
     * k with shard < 0 || k % shardCount == shard device-to-device
     * (the receiver concatenating), then ship the root's union. The
     * keys are disjoint, so no point is combined in flight and the
     * union is bit-identical to a gather; the RLC digests are keyed
     * by global index, so re-routing never changes the digest a
     * payload must match. Under an Auto policy
     * (plan.collectiveAuto) a collective plan is re-resolved against
     * the busiest payload actually shipped; kill semantics stay
     * keyed off the planned strategy.
     */
    support::Status
    ship(MsmRun &run) const
    {
        const bool per_slice =
            run.slices &&
            plan_.collective == gpusim::CollectiveAlgo::Gather;
        const std::size_t n_payloads =
            per_slice ? run.numUnits
                      : static_cast<std::size_t>(cluster_.numGpus());
        std::vector<std::vector<Xyzz>> payloads(n_payloads);
        std::vector<std::vector<std::uint64_t>> keys(n_payloads);
        std::vector<int> sender(n_payloads);
        for (unsigned u = 0; u < run.numUnits; ++u) {
            const std::size_t k =
                per_slice ? u
                          : static_cast<std::size_t>(run.execDev[u]);
            sender[k] = run.execDev[u];
            const auto [lo, hi] = keyRange(run, u);
            for (std::size_t key = lo; key < hi; ++key) {
                payloads[k].push_back(run.keyed[key]);
                keys[k].push_back(key);
            }
        }
        std::vector<int> members;
        std::uint64_t max_bytes = 0;
        for (std::size_t k = 0; k < n_payloads; ++k) {
            if (payloads[k].empty())
                continue;
            members.push_back(static_cast<int>(k));
            max_bytes = std::max<std::uint64_t>(
                max_bytes, payloads[k].size() * sizeof(Xyzz));
        }
        const gpusim::Topology &topo = cluster_.topology();
        gpusim::CollectiveAlgo algo = plan_.collective;
        if (algo != gpusim::CollectiveAlgo::Gather && plan_.collectiveAuto)
            algo = gpusim::CollectiveTimeEstimator(topo, cluster_.device())
                       .pick(gpusim::CollectivePolicy::Auto,
                             static_cast<int>(members.size()),
                             max_bytes);
        const gpusim::CollectiveSchedule sched =
            gpusim::buildCollectiveSchedule(algo, topo, members);

        namespace lane = support::tracelane;
        support::TraceRecorder *const trace = options_.trace;
        const std::uint64_t digest_pts =
            options_.verifyChecksums ? 1 : 0;
        double cursor = 0.0;
        std::uint64_t bytes_intra = 0;
        std::uint64_t bytes_inter = 0;
        for (const gpusim::CollectiveStep &step : sched.steps) {
            auto &src_pts = payloads[step.src];
            auto &src_keys = keys[step.src];
            // Split the sender's payload into the forwarded part and
            // the rest, preserving order on both sides.
            std::vector<Xyzz> ship_pts, stay_pts;
            std::vector<std::uint64_t> ship_keys, stay_keys;
            for (std::size_t i = 0; i < src_keys.size(); ++i) {
                const bool moves =
                    step.shard < 0 ||
                    static_cast<int>(src_keys[i] %
                                     static_cast<std::uint64_t>(
                                         sched.shardCount)) == step.shard;
                (moves ? ship_pts : stay_pts).push_back(src_pts[i]);
                (moves ? ship_keys : stay_keys).push_back(src_keys[i]);
            }
            src_pts = std::move(stay_pts);
            src_keys = std::move(stay_keys);
            std::vector<Xyzz> received;
            const support::Status shipped = shipPayload(
                run, step.src, ship_pts, ship_keys, received);
            if (!shipped.isOk())
                return shipped;
            const std::uint64_t wire_bytes =
                (received.size() + digest_pts) * sizeof(Xyzz);
            if (topo.sameNode(step.src, step.dst))
                bytes_intra += wire_bytes;
            else
                bytes_inter += wire_bytes;
            if (trace != nullptr) {
                const double dur =
                    topo.linkNs(step.src, step.dst, wire_bytes);
                trace->labelThread(lane::engineDevicePid(step.src),
                                   lane::kTransferTid, "transfer");
                trace->span(
                    "collective/" + run.tracePrefix +
                        std::string(gpusim::collectiveAlgoName(algo)),
                    "transfer", lane::engineDevicePid(step.src),
                    lane::kTransferTid, cursor, dur,
                    support::TraceArgs()
                        .arg("dst", std::to_string(step.dst))
                        .arg("points",
                             static_cast<double>(received.size())));
                cursor += dur;
            }
            payloads[step.dst].insert(payloads[step.dst].end(),
                                      received.begin(), received.end());
            keys[step.dst].insert(keys[step.dst].end(), ship_keys.begin(),
                                  ship_keys.end());
        }

        const std::vector<int> to_host =
            sched.root < 0 ? members : std::vector<int>{sched.root};
        std::uint64_t bytes_host = 0;
        for (const int k : to_host) {
            std::vector<Xyzz> received;
            const support::Status shipped = shipPayload(
                run, sender[k], payloads[k], keys[k], received);
            if (!shipped.isOk())
                return shipped;
            for (std::size_t i = 0; i < received.size(); ++i)
                run.keyed[keys[k][i]] = received[i];
            bytes_host += (received.size() + digest_pts) * sizeof(Xyzz);
        }
        if (trace != nullptr && sched.root >= 0) {
            auto &metrics = trace->metrics();
            const std::string cp = "collective/" + run.tracePrefix;
            metrics.add(cp + "steps",
                        static_cast<double>(sched.steps.size()));
            metrics.add(cp + "bytes_intra",
                        static_cast<double>(bytes_intra));
            metrics.add(cp + "bytes_inter",
                        static_cast<double>(bytes_inter));
            metrics.add(cp + "bytes_host",
                        static_cast<double>(bytes_host));
        }
        return support::Status::ok();
    }

    /**
     * Reduce phase on the host. Windows merge strictly high-to-low
     * through the serial Horner recurrence (s doublings per window);
     * the combined pass reduces its one bucket array. The slices are
     * one bucket-sum launch across the cluster, so their stats merge
     * in lockstep after the combined scatter's.
     */
    void
    reduce(MsmRun &run) const
    {
        MsmResult<Curve> &result = run.result;
        if (run.slices) {
            gpusim::KernelStats ec;
            for (const UnitOut &unit : run.units)
                ec.mergeLockstep(unit.ecStats);
            result.stats.merge(run.scattered.stats);
            result.stats.merge(ec);
            result.value =
                bucketReduceSerial<Curve>(run.keyed, &run.reduceStats);
            result.hostOps +=
                run.reduceStats.padds + run.reduceStats.pdbls;
            return;
        }
        Xyzz total = Xyzz::identity();
        for (unsigned w = run.numUnits; w-- > 0;) {
            const UnitOut &unit = run.units[w];
            result.stats.merge(unit.scatterStats);
            result.stats.merge(unit.ecStats);
            if (!total.isIdentity()) {
                for (unsigned b = 0; b < plan_.windowBits; ++b) {
                    total = pdbl(total);
                    ++result.hostOps;
                }
            }
            total = padd(total, run.keyed[w]);
            result.hostOps += unit.reduceStats.padds + 1;
        }
        result.value = total;
    }

    /**
     * Record phase: every unit whose booked device saw no fault this
     * run earns a clean window toward probation reintegration (units
     * ascending — deterministic streak growth); then, when tracing,
     * the unit spans and metrics, the field-backend attribution and
     * the fault track.
     */
    void
    record(const MsmRun &run) const
    {
        gpusim::HealthTracker *const health = options_.health;
        if (health != nullptr)
            for (unsigned u = 0; u < run.numUnits; ++u) {
                const int d = bookedDevice(run, u);
                if (d < health->numDevices() &&
                    !run.devFaulted[static_cast<std::size_t>(d)])
                    health->recordCleanWindow(d);
            }
        support::TraceRecorder *const trace = options_.trace;
        if (trace == nullptr)
            return;
        traceUnits(run, *trace);
        emitFieldBackendMetrics(*trace, run.result.stats);
        emitFaultTrace(*trace, run.result.fault, run.faultLog);
    }

    /**
     * Every unit's phases as spans and metrics on the simulated time
     * axis: the measured stats are mapped through the cost model and
     * emitted in a fixed order regardless of hostThreads, so the
     * spans are deterministic even though the units executed
     * concurrently. Windows land on their executing device's lane
     * (descending, back to back per device), each with its scatter,
     * bucket sum and host bucket-reduce. The combined pass's one
     * scatter sits on device 0's lane; every slice's bucket sum
     * starts after it on its own device, and the one bucket-reduce
     * runs on the host.
     */
    void
    traceUnits(const MsmRun &run, support::TraceRecorder &trace) const
    {
        namespace lane = support::tracelane;
        const auto &cost_model = cluster_.model();
        auto &metrics = trace.metrics();
        const std::string &prefix = run.tracePrefix;
        const auto reduce_ns = [&](const ReduceStats &rs) {
            return cost_model.hostEcNs(curve_profile_,
                                       rs.padds + rs.pdbls,
                                       cluster_.host());
        };

        double pass_scatter_ns = 0.0;
        if (run.slices) {
            const std::uint64_t elements =
                static_cast<std::uint64_t>(plan_.numWindows) * run.nEff;
            const gpusim::KernelStats &st = run.scattered.stats;
            pass_scatter_ns =
                scatterLaunchNs(cluster_, options_.scatter, elements, st);
            const std::string cl = prefix + "combined/";
            trace.span(cl + "scatter", "phase",
                       lane::engineDevicePid(0), lane::kComputeTid, 0.0,
                       pass_scatter_ns,
                       support::TraceArgs()
                           .arg("elements",
                                static_cast<double>(elements))
                           .arg("global_atomics",
                                static_cast<double>(st.globalAtomics)));
            const std::string mp0 = "engine/" + prefix + "dev0/combined/";
            st.recordMetrics(metrics, mp0 + "scatter/");
            metrics.add(mp0 + "scatter_ns", pass_scatter_ns);
            const double rns = reduce_ns(run.reduceStats);
            trace.span(cl + "bucket-reduce", "phase",
                       lane::kEngineHostPid, lane::kComputeTid, 0.0,
                       rns);
            metrics.add("engine/" + prefix + "combined/bucket_reduce_ns",
                        rns);
        }

        std::vector<double> dev_cursor(
            static_cast<std::size_t>(cluster_.numGpus()), 0.0);
        double host_cursor = 0.0;
        for (unsigned u = run.numUnits; u-- > 0;) {
            const UnitOut &unit = run.units[u];
            const int d = bookedDevice(run, u);
            const int pid = lane::engineDevicePid(d);
            const std::string unit_label =
                run.slices ? std::string("combined/")
                           : std::string("w") + std::to_string(u) + "/";
            const std::string name = prefix + unit_label;
            const std::string mp = "engine/" + prefix + "dev" +
                                   std::to_string(d) + "/" + unit_label;
            const double sum_ns = bucketSumNs(unit.ecStats);
            double sum_start = pass_scatter_ns;
            if (!run.slices) {
                const gpusim::KernelStats &st = unit.scatterStats;
                const double sc_ns = scatterLaunchNs(
                    cluster_, options_.scatter, run.nEff, st);
                trace.span(
                    name + "scatter", "phase", pid, lane::kComputeTid,
                    dev_cursor[d], sc_ns,
                    support::TraceArgs()
                        .arg("global_atomics",
                             static_cast<double>(st.globalAtomics))
                        .arg("global_conflict_weight",
                             static_cast<double>(
                                 st.globalConflictWeight))
                        .arg("global_max_conflict",
                             static_cast<double>(
                                 st.globalMaxConflict)));
                st.recordMetrics(metrics, mp + "scatter/");
                metrics.add(mp + "scatter_ns", sc_ns);
                sum_start = dev_cursor[d] + sc_ns;
                dev_cursor[d] += sc_ns + sum_ns;
            }
            trace.span(name + "bucket-sum", "phase", pid,
                       lane::kComputeTid, sum_start, sum_ns);
            unit.ecStats.recordMetrics(metrics, mp + "ec/");
            metrics.add(mp + "bucket_sum_ns", sum_ns);
            if (!run.slices) {
                const double rns = reduce_ns(unit.reduceStats);
                if (rns > 0.0) {
                    trace.span(name + "bucket-reduce", "phase",
                               lane::kEngineHostPid, lane::kComputeTid,
                               host_cursor, rns);
                    host_cursor += rns;
                }
                metrics.add(mp + "bucket_reduce_ns", rns);
            }
        }
    }

    /**
     * Obtain the precompute table: a BaseTableCache lookup keyed by
     * the base fingerprint and the plan geometry, building on a
     * miss. A proving loop constructing one engine per proof against
     * the same proving key pays the build once.
     */
    void
    acquireTable(int host_threads) const
    {
        TableCacheKey key;
        // The phi images are derived deterministically from the
        // points, so fingerprinting the points alone identifies the
        // GLV-folded table too (glv is part of the key).
        key.fingerprint = fingerprintBases<Curve>(points_);
        key.numBases = points_.size();
        key.windowBits = plan_.windowBits;
        key.numWindows = plan_.numWindows;
        key.glv = plan_.glv;
        table_ = BaseTableCache<Curve>::global().findOrBuild(
            key,
            [&] {
                std::vector<AffinePoint<Curve>> bases = points_;
                bases.insert(bases.end(), phi_points_.begin(),
                             phi_points_.end());
                return buildPrecomputeTable<Curve>(
                    bases, plan_.numWindows, plan_.windowBits,
                    plan_.glv, host_threads);
            },
            &table_cache_hit_);

        support::TraceRecorder *const trace = options_.trace;
        if (trace == nullptr)
            return;
        namespace lane = support::tracelane;
        auto &metrics = trace->metrics();
        metrics.add("engine/precompute/cache_hits",
                    table_cache_hit_ ? 1.0 : 0.0);
        metrics.add("engine/precompute/cache_misses",
                    table_cache_hit_ ? 0.0 : 1.0);
        metrics.set("engine/precompute/table_bytes",
                    static_cast<double>(table_->bytes));
        trace->labelProcess(lane::kEngineHostPid, "engine host");
        trace->labelThread(lane::kEngineHostPid, kPrecomputeTid,
                           "precompute");
        support::TraceArgs args;
        args.arg("table_bytes",
                 static_cast<double>(table_->bytes))
            .arg("rows", static_cast<double>(plan_.numWindows))
            .arg("bases", static_cast<double>(key.numBases));
        if (table_cache_hit_) {
            // Cached-hit lane: the amortized path is an instant, not
            // a span — no simulated time is spent.
            trace->instant("precompute/table-cache-hit", "phase",
                           lane::kEngineHostPid, kPrecomputeTid, 0.0,
                           std::move(args));
        } else {
            // Priced from the op count (deterministic), never wall
            // clock: (W-1) * s doublings per base at GPU throughput.
            const double build_ns = cluster_.model().ecThroughputNs(
                curve_profile_, eff_kernel_, gpusim::EcOp::Pdbl,
                table_->buildPdbls);
            trace->span("precompute/table-build", "phase",
                        lane::kEngineHostPid, kPrecomputeTid, 0.0,
                        build_ns, std::move(args));
        }
    }

    /**
     * Plan and stage everything the plan needs: the constructor's
     * first plan, and the re-plan after a health-generation change.
     * planMsm plans the caller's options in their own planner mode,
     * so Search re-searches over the quarantine-shrunken cluster.
     * The plan records every execution decision; the engine reads
     * it, never the options it came from. Mutates the mutable
     * planning state, so concurrent tryCompute calls on one engine
     * are not supported with a tracker attached.
     */
    void
    planAndStage() const
    {
        plan_ = planMsm(curve_profile_, points_.size(), cluster_,
                        options_);
        // Every cost-model price uses the kernel variant as the
        // plan's resolved field backend executes it.
        eff_kernel_ = gpusim::applyFieldBackend(options_.kernel,
                                                plan_.fieldBackend);
        const int host_threads =
            support::resolveHostThreads(options_.hostThreads);
        if (plan_.glv && phi_points_.empty()) {
            // The endomorphism images phi(P_i) = (beta * x_i, y_i)
            // are scalar-independent: staged once, like the points.
            phi_points_.resize(points_.size());
            support::ThreadPool::global().parallelFor(
                0, points_.size(),
                [&](std::size_t i) {
                    phi_points_[i] =
                        glv::endomorphismIfSupported<Curve>(
                            points_[i]);
                },
                host_threads);
        }
        // The plan, not the caller's request: the planner may have
        // declined precompute (device memory budget) or grown the
        // window.
        if (plan_.precompute)
            acquireTable(host_threads);
        if (options_.health != nullptr)
            planned_generation_ = options_.health->generation();
        refreshUnitEstimate();
    }

    /**
     * Calibrated fault-free per-unit GPU time (watchdogUnitNs) — the
     * base of the watchdog deadline (slack x this) and of the
     * straggler pricing. Computed only when a tracker is attached or
     * the fault plan contains degrade/hang clauses, so fault-free
     * engines skip the cost-model call entirely (zero overhead).
     */
    void
    refreshUnitEstimate() const
    {
        unit_estimate_ns_ = 0.0;
        if (options_.health == nullptr &&
            !options_.faults.hasStragglerFaults())
            return;
        MsmOptions est_opts = options_;
        // The estimate prices the *healthy* unit (the deadline
        // base), silently: no trace spans, no fault penalties.
        est_opts.trace = nullptr;
        est_opts.faults = gpusim::FaultPlan{};
        unit_estimate_ns_ = watchdogUnitNs(
            plan_,
            estimateDistMsmWithPlan(curve_profile_, points_.size(),
                                    cluster_, est_opts, plan_),
            cluster_.numGpus());
    }

  public:
    /**
     * Probe each quarantined device with one out-of-band verified
     * transfer (a single attempt through the same serialize /
     * inject / digest path, at a transfer index far above any real
     * counter so it cannot collide with corrupt:xfer clauses). A
     * clean probe paroles the device to Probation
     * (HealthTracker::recordCleanProbe); a corrupted one records
     * another checksum failure. Returns the number paroled. No-op
     * without a tracker.
     */
    int
    probeQuarantinedDevices() const
    {
        gpusim::HealthTracker *const health = options_.health;
        if (health == nullptr || !fault_status_.isOk())
            return 0;
        const gpusim::FaultPlan &fplan = options_.faults;
        int paroled = 0;
        const int n_dev =
            std::min(cluster_.numGpus(), health->numDevices());
        for (int d = 0; d < n_dev; ++d) {
            if (health->schedulable(d))
                continue;
            const std::uint64_t xfer =
                kProbeXferBase + probe_counter_++;
            std::vector<Xyzz> got;
            if (wireTrip({Xyzz::identity()}, {0}, true,
                         fplan.transferFault(xfer, d) !=
                             gpusim::TransferFault::None,
                         fplan.seed, xfer, nullptr, 1, got)) {
                health->recordCleanProbe(d);
                ++paroled;
            } else {
                health->recordChecksumFailure(d);
            }
        }
        return paroled;
    }

  private:
    /**
     * One trip over the simulated wire: append the device-side keyed
     * digest to @p points (when @p digest), serialize, flip one byte
     * when @p corrupt (seeded by @p seed and @p xfer), deserialize
     * into @p got and re-derive the digest host-side. Returns whether
     * the two digests agree limb-for-limb (always true undigested);
     * the digest work is tallied into @p report when given, and its
     * terms run on @p host_threads pool threads.
     */
    bool
    wireTrip(const std::vector<Xyzz> &points,
             const std::vector<std::uint64_t> &keys, bool digest,
             bool corrupt, std::uint64_t seed, std::uint64_t xfer,
             gpusim::FaultReport *report, int host_threads,
             std::vector<Xyzz> &got) const
    {
        std::vector<Xyzz> wire = points;
        if (digest)
            wire.push_back(rlcKeyedDigest(points, keys,
                                          options_.checksumSeed, report,
                                          host_threads));
        std::vector<std::uint8_t> bytes = serializePoints<Curve>(wire);
        if (corrupt)
            gpusim::corruptBytes(bytes, seed, xfer);
        got = deserializePoints<Curve>(bytes);
        if (!digest)
            return true;
        const Xyzz device_digest = got.back();
        got.pop_back();
        return bitEqual(rlcKeyedDigest(got, keys, options_.checksumSeed,
                                       report, host_threads),
                        device_digest);
    }

    /**
     * Ship one payload under the fault plan: append the device-side
     * RLC digest, serialize, apply any injected delay or byte
     * corruption, deserialize, re-derive the digest host-side and
     * compare limb-for-limb — retrying (with a fresh canonical
     * attempt index) up to kMaxTransferRetries times. Every retry
     * waits out an exponential backoff (retryBackoffNs:
     * kBackoffBaseNs doubling per attempt, capped at kBackoffMaxNs)
     * plus a deterministic seeded jitter — simulated time, priced
     * into FaultReport::backoffNs, never wall clock. Each observed
     * fault marks the sender faulted (it forfeits its clean window)
     * and feeds the health tracker when one is attached. When every
     * attempt from @p device fails and a tracker is attached, the
     * payload fails over once: a second sender, picked among the
     * survivors the tracker still schedules, runs the same attempts.
     * The payload bytes live host-side either way and the RLC
     * digests are keyed by global index, so the redirect is purely a
     * routing decision. On success @p received holds the accepted
     * points, bit-identical to @p points whenever nothing corrupted
     * the wire; otherwise the typed Status of the final failed
     * attempt returns.
     */
    support::Status
    shipPayload(MsmRun &run, int device, const std::vector<Xyzz> &points,
                const std::vector<std::uint64_t> &rho_keys,
                std::vector<Xyzz> &received) const
    {
        const gpusim::FaultPlan &fplan = options_.faults;
        gpusim::FaultReport &report = run.result.fault;
        gpusim::HealthTracker *const tracker = options_.health;
        support::Status last(support::StatusCode::TransferTimeout,
                             "transfer never attempted");
        int sender = device;
        for (int attempt = 0;; ++attempt) {
            if (attempt > kMaxTransferRetries) {
                // The failover target is never the origin, so a
                // second sender means the one failover is spent.
                if (tracker == nullptr || sender != device)
                    return last;
                sender = pickSurvivor(
                    run, device, report.transferFailovers, [&](int c) {
                        return c != device &&
                               (c >= tracker->numDevices() ||
                                tracker->schedulable(c));
                    });
                if (sender < 0)
                    return last;
                ++report.transferFailovers;
                run.faultLog.push_back("failover/dev" +
                                       std::to_string(device) + "->dev" +
                                       std::to_string(sender));
                attempt = 0;
            }
            gpusim::HealthTracker *const health =
                (tracker != nullptr && sender < tracker->numDevices())
                    ? tracker
                    : nullptr;
            const std::uint64_t xfer = run.xferCounter++;
            ++report.transfers;
            if (attempt > 0) {
                ++report.retries;
                // Exponential backoff with seeded jitter: dead wire
                // time in the simulated timeline. The jitter PRNG is
                // keyed by (plan seed, attempt's transfer index), so
                // the wait is bit-identical at every hostThreads.
                const double backoff = retryBackoffNs(attempt);
                Prng jitter_rng(fplan.seed ^
                                (xfer * 0x9E3779B97F4A7C15ull) ^
                                0xBACC0FFull);
                const double jitter =
                    backoff * 0.25 *
                    (static_cast<double>(jitter_rng() >> 11) *
                     0x1.0p-53);
                report.backoffNs += backoff + jitter;
            }
            const double delay =
                fplan.transferDelayNs(sender, attempt);
            if (delay > 0.0) {
                report.delayNs += delay;
                ++report.faultsInjected;
                run.faultLog.push_back("delay/dev" +
                                    std::to_string(sender) +
                                    "/xfer" + std::to_string(xfer));
                if (delay > kTransferTimeoutNs) {
                    ++report.timeouts;
                    run.devFaulted[static_cast<std::size_t>(sender)] = 1;
                    if (health != nullptr)
                        health->recordTimeout(sender);
                    last = support::Status(
                        support::StatusCode::TransferTimeout,
                        "device " + std::to_string(sender) +
                            " transfer attempt " +
                            std::to_string(attempt) +
                            " exceeded the timeout");
                    continue;
                }
            }
            const gpusim::TransferFault tf =
                fplan.transferFault(xfer, sender);
            if (tf != gpusim::TransferFault::None) {
                ++report.corruptInjected;
                ++report.faultsInjected;
                run.devFaulted[static_cast<std::size_t>(sender)] = 1;
                run.faultLog.push_back(
                    (tf == gpusim::TransferFault::Flaky
                         ? "flaky/dev"
                         : "corrupt/dev") +
                    std::to_string(sender) + "/xfer" +
                    std::to_string(xfer));
            }
            std::vector<Xyzz> got;
            if (!wireTrip(points, rho_keys, options_.verifyChecksums,
                          tf != gpusim::TransferFault::None, fplan.seed,
                          xfer, &report, run.hostThreads, got)) {
                ++report.corruptDetected;
                if (health != nullptr)
                    health->recordChecksumFailure(sender);
                run.faultLog.push_back("detect/dev" +
                                       std::to_string(sender) + "/xfer" +
                                       std::to_string(xfer));
                last = support::Status(
                    support::StatusCode::TransferCorrupt,
                    "device " + std::to_string(sender) +
                        " transfer digest mismatch (attempt " +
                        std::to_string(attempt) + ")");
                continue;
            }
            received = std::move(got);
            return support::Status::ok();
        }
    }

    /**
     * The one survivor picker of reshard and transfer failover: the
     * @p ordinal -th, round-robin, of the run's survivors that
     * @p eligible admits, ordered @p origin's node first (NVLink-local
     * recovery), then cross-node, both ascending; -1 when none is
     * eligible. On a single-node cluster the order IS the ascending
     * survivor list, so a reshard lands on survivors[i % size].
     */
    template <typename Eligible>
    int
    pickSurvivor(const MsmRun &run, int origin, std::size_t ordinal,
                 Eligible &&eligible) const
    {
        std::vector<int> pref;
        for (const bool same : {true, false})
            for (const int c : run.survivors)
                if (eligible(c) &&
                    cluster_.topology().sameNode(c, origin) == same)
                    pref.push_back(c);
        return pref.empty() ? -1 : pref[ordinal % pref.size()];
    }

    /**
     * The fault layer's trace track: one instant per injection or
     * detection (deterministic ordinals as the logical time axis) on
     * the engine-host process, plus the flat "fault/" counters.
     */
    void
    emitFaultTrace(support::TraceRecorder &trace,
                   const gpusim::FaultReport &report,
                   const std::vector<std::string> &log) const
    {
        namespace lane = support::tracelane;
        trace.labelProcess(lane::kEngineHostPid, "engine host");
        trace.labelThread(lane::kEngineHostPid, kFaultTid, "faults");
        for (std::size_t i = 0; i < log.size(); ++i)
            trace.instant("fault/" + log[i], "fault",
                          lane::kEngineHostPid, kFaultTid,
                          static_cast<double>(i) * 1000.0);
        const auto d = [](auto v) { return static_cast<double>(v); };
        const std::pair<const char *, double> counters[] = {
            {"faults_injected", d(report.faultsInjected)},
            {"corrupt_injected", d(report.corruptInjected)},
            {"corrupt_detected", d(report.corruptDetected)},
            {"timeouts", d(report.timeouts)},
            {"retries", d(report.retries)},
            {"windows_resharded", d(report.windowsResharded)},
            {"reshards_intra_node", d(report.reshardsIntraNode)},
            {"reshards_cross_node", d(report.reshardsCrossNode)},
            {"devices_lost", d(report.devicesLost)},
            {"transfers", d(report.transfers)},
            {"checksums", d(report.checksummed)},
            {"verify_ec_ops", d(report.verifyEcOps)},
            {"delay_ns", report.delayNs},
            {"stragglers_detected", d(report.stragglersDetected)},
            {"straggler_respawns", d(report.stragglerRespawns)},
            {"speculative_wins", d(report.speculativeWins)},
            {"speculative_losses", d(report.speculativeLosses)},
            {"hangs", d(report.hangs)},
            {"transfer_failovers", d(report.transferFailovers)},
            {"backoff_ns", report.backoffNs},
            {"straggler_wait_ns", report.stragglerWaitNs},
            {"straggler_stall_ns", report.stragglerStallNs},
        };
        for (const auto &[name, value] : counters)
            trace.metrics().add(std::string("fault/") + name, value);
        if (options_.health != nullptr)
            options_.health->recordMetrics(trace.metrics());
    }

    /** The EC op counts of one bucket-sum launch, by cost-model op. */
    static std::array<std::pair<gpusim::EcOp, std::uint64_t>, 4>
    ecOps(const gpusim::KernelStats &ec)
    {
        return {{{gpusim::EcOp::Pacc, ec.paccOps},
                 {gpusim::EcOp::Padd, ec.paddOps},
                 {gpusim::EcOp::Pdbl, ec.pdblOps},
                 {gpusim::EcOp::AffineAdd, ec.affineAddOps}}};
    }

    /** Cost-model time of one bucket-sum launch's EC work. */
    double
    bucketSumNs(const gpusim::KernelStats &ec) const
    {
        double ns = 0.0;
        for (const auto &[op, count] : ecOps(ec))
            ns += cluster_.model().ecThroughputNs(curve_profile_,
                                                  eff_kernel_, op, count);
        return ns;
    }

    /**
     * Modular multiplications the measured EC work retired, in the
     * cost model's per-op units — the denomination of the
     * per-backend attribution metrics.
     */
    double
    kernelModmuls(const gpusim::KernelStats &ec) const
    {
        double modmuls = 0.0;
        for (const auto &[op, count] : ecOps(ec))
            modmuls += static_cast<double>(count) *
                       gpusim::ecOpModmuls(eff_kernel_, op,
                                           curve_profile_.aIsZero);
        return modmuls;
    }

    /**
     * Flat per-backend attribution for one compute(): which backend
     * the run's kernel modmuls belong to, derived deterministically
     * from the merged KernelStats (identical at every hostThreads).
     */
    void
    emitFieldBackendMetrics(support::TraceRecorder &trace,
                            const gpusim::KernelStats &stats) const
    {
        auto &metrics = trace.metrics();
        const bool tc = plan_.fieldBackend ==
                        gpusim::FieldBackend::TensorCore;
        metrics.set("engine/field_backend",
                    static_cast<double>(
                        static_cast<int>(plan_.fieldBackend)));
        metrics.set("engine/field_backend_auto",
                    plan_.fieldBackendAuto ? 1.0 : 0.0);
        const double modmuls = kernelModmuls(stats);
        metrics.add(tc ? "engine/field_backend_tc_modmuls"
                       : "engine/field_backend_cuda_modmuls",
                    modmuls);
        metrics.set("engine/field_backend_tc_executed",
                    tcExecuted() ? 1.0 : 0.0);
    }

    /**
     * The differential tcmul execution only runs on a forced
     * TensorCore; an Auto-resolved TC prices the offload but executes
     * the host multiplier (Fp::operator*: the ADX kernel or CIOS),
     * bit-identical either way.
     */
    bool
    tcExecuted() const
    {
        return plan_.fieldBackend == gpusim::FieldBackend::TensorCore &&
               !plan_.fieldBackendAuto;
    }

    void
    labelEngineLanes(support::TraceRecorder &trace) const
    {
        namespace lane = support::tracelane;
        // Suffix the compute lane with the resolved backend so a
        // trace viewer shows per-backend lanes without a metric
        // lookup.
        const std::string compute_label =
            std::string("windows [") +
            gpusim::fieldBackendName(plan_.fieldBackend) + "]";
        for (int d = 0; d < cluster_.numGpus(); ++d) {
            trace.labelProcess(lane::engineDevicePid(d),
                               "engine gpu" + std::to_string(d));
            trace.labelThread(lane::engineDevicePid(d),
                              lane::kComputeTid, compute_label);
        }
        trace.labelProcess(lane::kEngineHostPid, "engine host");
        trace.labelThread(lane::kEngineHostPid, lane::kComputeTid,
                          "reduce");
    }

    /** Engine-host track carrying table-build / cache-hit events. */
    static constexpr int kPrecomputeTid = 2;
    /** Engine-host track carrying fault injection/detection events. */
    static constexpr int kFaultTid = 3;
    /**
     * Quarantine probes draw transfer indices from here upward — far
     * above any real transfer counter, so a probe can never collide
     * with a corrupt:xfer=N clause aimed at the compute path.
     */
    static constexpr std::uint64_t kProbeXferBase = 1ull << 62;

    std::vector<AffinePoint<Curve>> points_;
    // The mutable planning state below changes only when a
    // health-generation change re-plans from inside the const
    // tryCompute (see planAndStage). Engines with a tracker attached
    // must not run concurrent tryCompute calls; without one, nothing
    // here ever changes after construction.
    /** phi(P_i) images when the plan enabled GLV (else empty). */
    mutable std::vector<AffinePoint<Curve>> phi_points_;
    gpusim::Cluster cluster_;
    /** What the caller asked for; the plan decides what runs. */
    MsmOptions options_;
    /** A malformed DISTMSM_FAULT_SPEC, returned by every tryCompute
     *  (ok otherwise). */
    support::Status fault_status_;
    gpusim::CurveProfile curve_profile_;
    mutable MsmPlan plan_;
    /**
     * options_.kernel with the plan's resolved field backend applied
     * (gpusim::applyFieldBackend) — the variant every cost-model
     * query in the engine prices against.
     */
    mutable gpusim::EcKernelVariant eff_kernel_;
    /** Shared precompute table (plan_.precompute; else null). */
    mutable std::shared_ptr<const PrecomputeTable<Curve>> table_;
    mutable bool table_cache_hit_ = false;
    /** Health generation plan_ was computed against. */
    mutable std::uint64_t planned_generation_ = 0;
    /** Per-unit GPU time (ns) of refreshUnitEstimate. */
    mutable double unit_estimate_ns_ = 0.0;
    /** Monotone probe ordinal (offsets kProbeXferBase). */
    mutable std::uint64_t probe_counter_ = 0;
    /** Orders trace labels of successive compute() calls. */
    mutable std::atomic<std::uint64_t> msm_counter_{0};
};

} // namespace distmsm::msm

#endif // DISTMSM_MSM_ENGINE_H
