/**
 * @file
 * Per-device health tracking for straggler-aware degradation.
 *
 * A HealthTracker owns one DeviceHealth record per simulated device
 * and runs the escalation ladder
 *
 *     Healthy  --fault-->  Probation  --fault-->  Quarantined
 *        ^                     |                       |
 *        +--- N clean windows--+      clean probe -----+
 *                                     (back to Probation)
 *
 * Faults are the engine's observations: transfer timeouts, checksum
 * failures, straggler (blown-deadline) windows, and hangs. A hang
 * jumps straight to Quarantined — a device that stopped responding
 * is not worth probation. Quarantined devices are excluded from
 * scheduling and resharding; every state change bumps a generation
 * counter so MsmEngine can invalidate its autoplan and re-search
 * over the shrunken device set.
 *
 * The tracker is NOT thread-safe: every call site is sequential
 * host-side bookkeeping (fault handling and the pre-dispatch
 * watchdog pass run on the coordinating thread), which is also what
 * keeps the ladder deterministic at every hostThreads setting.
 */

#ifndef DISTMSM_GPUSIM_HEALTH_H
#define DISTMSM_GPUSIM_HEALTH_H

#include <cstdint>
#include <vector>

namespace distmsm::support {
class MetricsRegistry;
}

namespace distmsm::gpusim {

/** Rung of the escalation ladder. */
enum class HealthState : std::uint32_t {
    Healthy = 0,
    Probation = 1,
    Quarantined = 2,
};

const char *healthStateName(HealthState state);

/** Weighted fault score at which Healthy becomes Probation. */
inline constexpr int kProbationThreshold = 1;
/** Weighted fault score at which a device is quarantined. A hang
 *  carries this full weight: immediate quarantine. */
inline constexpr int kQuarantineThreshold = 3;
/** Consecutive clean windows before Probation returns to Healthy
 *  (and the fault score resets). */
inline constexpr int kReintegrateCleanWindows = 4;

/** Rolling per-device health record. */
struct DeviceHealth
{
    std::uint64_t timeouts = 0;         ///< transfer attempts timed out
    std::uint64_t checksumFailures = 0; ///< digest mismatches observed
    std::uint64_t stragglerEvents = 0;  ///< blown watchdog deadlines
    std::uint64_t hangs = 0;            ///< stopped-responding events
    std::uint64_t cleanWindows = 0;     ///< windows finished clean
    std::uint64_t probes = 0;           ///< quarantine probes attempted
    /** Weighted fault score driving the ladder (resets on
     *  reintegration). */
    std::int32_t faultScore = 0;
    /** Consecutive clean windows since the last fault. */
    std::int32_t cleanStreak = 0;
    HealthState state = HealthState::Healthy;
};

class HealthTracker
{
  public:
    explicit HealthTracker(int num_devices);

    int numDevices() const
    {
        return static_cast<int>(devices_.size());
    }

    const DeviceHealth &device(int index) const;
    HealthState state(int index) const
    {
        return device(index).state;
    }

    /** Quarantined devices must not be scheduled or reshard
     *  targets; Probation devices keep working (that is how they
     *  earn clean windows). */
    bool schedulable(int device) const
    {
        return state(device) != HealthState::Quarantined;
    }

    /** Ascending indices of every schedulable device. */
    std::vector<int> schedulableDevices() const;

    int numQuarantined() const;
    int numProbation() const;

    /** Bumped on every state transition; MsmEngine re-plans when
     *  the generation it planned against goes stale. */
    std::uint64_t generation() const { return generation_; }

    void recordTimeout(int device);
    void recordChecksumFailure(int device);
    void recordStraggler(int device);
    /** A hang carries kQuarantineThreshold weight: the device is
     *  quarantined immediately. */
    void recordHang(int device);

    /** Device finished a window with no faults observed. Probation
     *  devices reintegrate after kReintegrateCleanWindows
     *  consecutive clean windows; quarantined devices do NOT redeem
     *  themselves this way (they are not scheduled — a clean window
     *  for them would be vacuous). */
    void recordCleanWindow(int device);

    /** A quarantine probe (out-of-band verified transfer) came back
     *  clean: the device re-enters the ladder at Probation with a
     *  fresh streak, so reintegration still requires
     *  kReintegrateCleanWindows real clean windows. */
    void recordCleanProbe(int device);

    /** Export health/<prefix>* gauges (states, counters,
     *  generation) into @p metrics. */
    void recordMetrics(support::MetricsRegistry &metrics,
                       const char *prefix = "health/") const;

  private:
    void escalate(int device, int weight);

    std::vector<DeviceHealth> devices_;
    std::uint64_t generation_ = 0;
};

} // namespace distmsm::gpusim

#endif // DISTMSM_GPUSIM_HEALTH_H
