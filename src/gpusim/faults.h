/**
 * @file
 * Deterministic fault injection for the simulated cluster.
 *
 * A FaultPlan is a static, seeded description of the faults one run
 * must experience: kill device i at its j-th window, flip bytes of
 * the N-th host<->device transfer (or of every transfer a device
 * makes), delay a device's transfer past the engine's timeout, slow
 * a device down persistently (degrade), corrupt its transfers with a
 * seeded probability (flaky), or stop it responding mid-window
 * (hang). Because the plan is data — not a callback racing with
 * execution — and because MsmEngine draws transfer indices from a
 * sequential host-side counter, the injected faults, the recovery
 * path and the final result are bit-identical for every hostThreads
 * setting.
 *
 * A run's plan is MsmOptions::faults; MsmEngine folds the
 * DISTMSM_FAULT_SPEC environment plan into it at construction when
 * the caller set none, so planning, pricing and injection all read
 * the same plan. Spec grammar (clauses joined by ';'):
 *
 *   kill:dev=K[@win=J]     device K dies at its J-th assigned window
 *                          (J defaults to 0: before any work)
 *   corrupt:xfer=N         flip one byte of transfer attempt N
 *                          (one-shot; the retry sees clean bytes)
 *   corrupt:dev=K          flip one byte of EVERY transfer from
 *                          device K (persistent; exhausts retries)
 *   delay:dev=K,ns=X[@attempt=A]
 *                          delay device K's transfer attempt A
 *                          (default 0: the first attempt) by X ns;
 *                          times out when X exceeds
 *                          msm::kTransferTimeoutNs (1e8)
 *   degrade:dev=K,factor=F[@win=J]
 *                          device K computes F x slower from its
 *                          J-th window on (persistent straggler;
 *                          F >= 1, default onset J = 0)
 *   flaky:dev=K,p=P        corrupt each transfer from device K with
 *                          seeded probability P in [0, 1] (the coin
 *                          derives from (seed, transfer index), so
 *                          the same transfers flip on every run)
 *   hang:dev=K[@win=J]     device K stops responding at its J-th
 *                          window: the window never completes
 *                          without the engine's watchdog
 *   seed:S                 seed for the corruption byte/mask and the
 *                          flaky coin
 *
 * K, J, N, A and S are plain decimal integers (digits only: no sign,
 * base prefix or leading zero); X, F and P are finite decimals.
 *
 * Example: "kill:dev=2@win=1;degrade:dev=0,factor=4;flaky:dev=3,p=1".
 */

#ifndef DISTMSM_GPUSIM_FAULTS_H
#define DISTMSM_GPUSIM_FAULTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/support/status.h"

namespace distmsm::gpusim {

/** One injected fault. */
enum class FaultKind {
    KillDevice,            ///< device dies at a window boundary
    CorruptTransfer,       ///< one-shot byte flip of transfer N
    CorruptDeviceTransfers,///< persistent byte flips from device K
    DelayTransfer,         ///< delay one attempt of device K
    DegradeDevice,         ///< persistent compute slowdown (factor)
    FlakyTransfers,        ///< seeded per-transfer corruption odds
    HangDevice,            ///< device stops responding mid-window
};

struct FaultEvent
{
    FaultKind kind = FaultKind::KillDevice;
    int device = -1;           ///< target device (all kinds but xfer)
    int window = 0;            ///< kill/hang/degrade onset ordinal
    std::uint64_t transfer = 0;///< corrupt:xfer=N target index
    double delayNs = 0.0;      ///< delay amount
    int attempt = 0;           ///< delay: the attempt it hits
    double factor = 1.0;       ///< degrade slowdown (>= 1)
    double probability = 0.0;  ///< flaky corruption odds in [0, 1]
};

/** How the fault plan treats one transfer attempt. */
enum class TransferFault {
    None,    ///< clean wire
    Corrupt, ///< a corrupt:xfer / corrupt:dev clause names it
    Flaky,   ///< the flaky coin came up corrupted
};

/** A static, seeded set of faults for one run. */
struct FaultPlan
{
    /** Seeds the corruption byte/mask and the flaky coin. */
    std::uint64_t seed = 0xFA177;
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /** Parse the DISTMSM_FAULT_SPEC grammar (see file comment). */
    static support::StatusOr<FaultPlan> parse(const std::string &spec);

    /**
     * Ordinal of the window at which @p device dies, or -1 when the
     * plan keeps it alive. Multiple kill clauses for one device take
     * the earliest window.
     */
    int killWindow(int device) const;

    /**
     * Ordinal of the window at which @p device hangs (stops
     * responding), or -1 when it never does. Multiple hang clauses
     * take the earliest window.
     */
    int hangWindow(int device) const;

    /**
     * Compute slowdown of @p device at its @p window_ordinal -th
     * window: the product of the factors of every degrade clause
     * whose onset ordinal is <= @p window_ordinal. 1.0 when healthy.
     */
    double degradeFactor(int device, int window_ordinal) const;

    /**
     * True when no kill clause and no hang clause names @p device:
     * the device can take over another device's work. The one
     * survivor rule the engine's reshard, respawn and failover
     * targets and the timeline's respawn pricing share.
     */
    bool survives(int device) const;

    /** True when any degrade clause targets @p device. */
    bool degraded(int device) const;

    /** Largest flaky corruption probability targeting @p device
     *  (0.0 when none do). */
    double flakyProbability(int device) const;

    /** True when the plan contains degrade or hang clauses — the
     *  faults only the engine's watchdog pass can observe. */
    bool hasStragglerFaults() const;

    /**
     * How transfer attempt @p transfer_index (the engine's
     * sequential counter) from @p device fares: Corrupt when a
     * one-shot corrupt:xfer clause names the index or a persistent
     * corrupt:dev clause names the device, Flaky when a flaky
     * clause's seeded coin (keyed by seed and transfer index, so the
     * outcome is identical at every hostThreads setting) comes up
     * corrupted, None otherwise.
     */
    TransferFault transferFault(std::uint64_t transfer_index,
                                int device) const;

    /** Injected delay (ns) for @p device 's attempt @p attempt
     *  (each delay clause hits the attempt its @attempt names,
     *  default 0: the first). */
    double transferDelayNs(int device, int attempt) const;
};

/**
 * Deterministically flip one byte of @p bytes in place: the byte
 * index and the non-zero XOR mask derive from (@p seed, @p
 * transfer_index) alone, so the same plan corrupts the same bit
 * pattern on every run and at every hostThreads setting.
 */
void corruptBytes(std::vector<std::uint8_t> &bytes,
                  std::uint64_t seed, std::uint64_t transfer_index);

/**
 * Process-wide plan from DISTMSM_FAULT_SPEC, parsed once. Returns
 * nullptr when the variable is unset or empty, and the typed
 * InvalidArgument Status when the spec is malformed — the caller
 * decides whether that is fatal (msm_cli exits non-zero; the engine
 * propagates it out of tryCompute).
 */
support::StatusOr<const FaultPlan *> globalFaultPlanFromEnv();

/**
 * What the fault layer saw and did during one MSM: injected faults,
 * detections, recoveries and the verification work performed.
 * Deliberately separate from KernelStats so a zero-fault run's
 * simulator statistics stay bit-identical to a build without the
 * fault layer.
 *
 * Every field is an 8-byte counter (u64 or double ns); kFieldCount
 * and the static_assert below pin the layout, which comparisons by
 * memcmp rely on.
 */
struct FaultReport
{
    std::uint64_t faultsInjected = 0;   ///< kills + corruptions + delays
    std::uint64_t corruptInjected = 0;  ///< transfers corrupted in flight
    std::uint64_t corruptDetected = 0;  ///< checksum mismatches raised
    std::uint64_t timeouts = 0;         ///< transfer attempts timed out
    std::uint64_t retries = 0;          ///< transfer attempts repeated
    std::uint64_t windowsResharded = 0; ///< windows re-run on survivors
    /** Reshard targets on the dead device's own node (the
     *  topology-aware policy prefers these: NVLink-local recovery). */
    std::uint64_t reshardsIntraNode = 0;
    /** Reshard targets that had to cross the inter-node fabric. */
    std::uint64_t reshardsCrossNode = 0;
    std::uint64_t devicesLost = 0;      ///< devices the plan killed
    std::uint64_t transfers = 0;        ///< transfer attempts, total
    std::uint64_t checksummed = 0;      ///< payloads digest-verified
    std::uint64_t verifyEcOps = 0;      ///< EC ops spent on digests
    double delayNs = 0.0;               ///< injected transfer delay
    /** Windows whose deadline the watchdog saw blown (degrade beyond
     *  the slack factor, or a hang). */
    std::uint64_t stragglersDetected = 0;
    /** Speculative re-dispatches the watchdog launched. */
    std::uint64_t stragglerRespawns = 0;
    /** Respawns whose speculative copy was adopted. */
    std::uint64_t speculativeWins = 0;
    /** Respawns the original outran (wasted speculation). */
    std::uint64_t speculativeLosses = 0;
    std::uint64_t hangs = 0;            ///< hang faults observed
    /** Payloads re-shipped through a healthy survivor after the
     *  origin device exhausted its transfer retries. */
    std::uint64_t transferFailovers = 0;
    /** Exponential-backoff wait priced before retries. */
    double backoffNs = 0.0;
    /** Priced straggler penalty of this run (watchdog engaged). */
    double stragglerWaitNs = 0.0;
    /** Counterfactual stall had no watchdog respawned the windows. */
    double stragglerStallNs = 0.0;

    /** 8-byte fields above; bump when adding one. */
    static constexpr std::size_t kFieldCount = 22;
};

static_assert(sizeof(FaultReport) ==
                  FaultReport::kFieldCount * sizeof(std::uint64_t),
              "FaultReport gained a field: bump kFieldCount");

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_FAULTS_H
