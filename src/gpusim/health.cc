#include "src/gpusim/health.h"

#include <string>

#include "src/support/check.h"
#include "src/support/metrics.h"

namespace distmsm::gpusim {

const char *
healthStateName(HealthState state)
{
    switch (state) {
    case HealthState::Healthy:
        return "healthy";
    case HealthState::Probation:
        return "probation";
    case HealthState::Quarantined:
        return "quarantined";
    }
    return "?";
}

HealthTracker::HealthTracker(int num_devices)
    : devices_(static_cast<std::size_t>(
          num_devices > 0 ? num_devices : 0))
{
    DISTMSM_REQUIRE(num_devices > 0,
                    "HealthTracker wants at least one device");
}

const DeviceHealth &
HealthTracker::device(int device) const
{
    DISTMSM_ASSERT(device >= 0 &&
                   device < static_cast<int>(devices_.size()));
    return devices_[static_cast<std::size_t>(device)];
}

std::vector<int>
HealthTracker::schedulableDevices() const
{
    std::vector<int> out;
    out.reserve(devices_.size());
    for (int d = 0; d < numDevices(); ++d)
        if (schedulable(d))
            out.push_back(d);
    return out;
}

int
HealthTracker::numQuarantined() const
{
    int n = 0;
    for (const DeviceHealth &h : devices_)
        n += h.state == HealthState::Quarantined;
    return n;
}

int
HealthTracker::numProbation() const
{
    int n = 0;
    for (const DeviceHealth &h : devices_)
        n += h.state == HealthState::Probation;
    return n;
}

void
HealthTracker::escalate(int device, int weight)
{
    DeviceHealth &h =
        devices_[static_cast<std::size_t>(device)];
    h.faultScore += weight;
    h.cleanStreak = 0;
    HealthState next = h.state;
    if (h.faultScore >= kQuarantineThreshold)
        next = HealthState::Quarantined;
    else if (h.faultScore >= kProbationThreshold &&
             h.state == HealthState::Healthy)
        next = HealthState::Probation;
    if (next != h.state) {
        h.state = next;
        ++generation_;
    }
}

void
HealthTracker::recordTimeout(int device)
{
    ++devices_[static_cast<std::size_t>(device)].timeouts;
    escalate(device, 1);
}

void
HealthTracker::recordChecksumFailure(int device)
{
    ++devices_[static_cast<std::size_t>(device)].checksumFailures;
    escalate(device, 1);
}

void
HealthTracker::recordStraggler(int device)
{
    ++devices_[static_cast<std::size_t>(device)].stragglerEvents;
    escalate(device, 1);
}

void
HealthTracker::recordHang(int device)
{
    ++devices_[static_cast<std::size_t>(device)].hangs;
    escalate(device, kQuarantineThreshold);
}

void
HealthTracker::recordCleanWindow(int device)
{
    DeviceHealth &h =
        devices_[static_cast<std::size_t>(device)];
    if (h.state == HealthState::Quarantined)
        return;
    ++h.cleanWindows;
    ++h.cleanStreak;
    if (h.state == HealthState::Probation &&
        h.cleanStreak >= kReintegrateCleanWindows) {
        h.state = HealthState::Healthy;
        h.faultScore = 0;
        ++generation_;
    }
}

void
HealthTracker::recordCleanProbe(int device)
{
    DeviceHealth &h =
        devices_[static_cast<std::size_t>(device)];
    ++h.probes;
    if (h.state != HealthState::Quarantined)
        return;
    h.state = HealthState::Probation;
    // Parole, not acquittal: the score sits at the probation
    // threshold and the streak restarts, so the device still has to
    // earn kReintegrateCleanWindows clean windows to become Healthy.
    h.faultScore = kProbationThreshold;
    h.cleanStreak = 0;
    ++generation_;
}

void
HealthTracker::recordMetrics(support::MetricsRegistry &metrics,
                             const char *prefix) const
{
    const std::string p(prefix);
    metrics.set(p + "devices", static_cast<double>(numDevices()));
    metrics.set(p + "quarantined_devices",
                static_cast<double>(numQuarantined()));
    metrics.set(p + "probation_devices",
                static_cast<double>(numProbation()));
    metrics.set(p + "generation",
                static_cast<double>(generation_));
    double timeouts = 0, checksum = 0, stragglers = 0, hangs = 0;
    double clean = 0, probes = 0;
    for (const DeviceHealth &h : devices_) {
        timeouts += static_cast<double>(h.timeouts);
        checksum += static_cast<double>(h.checksumFailures);
        stragglers += static_cast<double>(h.stragglerEvents);
        hangs += static_cast<double>(h.hangs);
        clean += static_cast<double>(h.cleanWindows);
        probes += static_cast<double>(h.probes);
    }
    metrics.set(p + "timeouts", timeouts);
    metrics.set(p + "checksum_failures", checksum);
    metrics.set(p + "straggler_events", stragglers);
    metrics.set(p + "hangs", hangs);
    metrics.set(p + "clean_windows", clean);
    metrics.set(p + "probes", probes);
}

} // namespace distmsm::gpusim
