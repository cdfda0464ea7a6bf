#include "src/gpusim/faults.h"

#include <cstdlib>
#include <memory>

#include "src/support/check.h"
#include "src/support/parse.h"
#include "src/support/prng.h"

namespace distmsm::gpusim {

using support::Status;
using support::StatusCode;
using support::StatusOr;

namespace {

/** Split @p s on @p sep, dropping empty pieces. */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t next = s.find(sep, pos);
        const std::size_t end =
            next == std::string::npos ? s.size() : next;
        if (end > pos)
            out.push_back(s.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

Status
malformed(const std::string &clause, const char *why)
{
    return Status(StatusCode::InvalidArgument,
                  "fault spec clause '" + clause + "': " + why);
}

/** Parse "key=value" pairs of one clause body ("dev=2,ns=5e8"). */
bool
parseFields(const std::string &body,
            std::vector<std::pair<std::string, std::string>> &fields)
{
    for (const std::string &part : split(body, ',')) {
        const std::size_t at = part.find('@');
        // kill:dev=K@win=J nests with '@'; flatten both pieces.
        for (const std::string &kv :
             at == std::string::npos
                 ? std::vector<std::string>{part}
                 : std::vector<std::string>{part.substr(0, at),
                                            part.substr(at + 1)}) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= kv.size())
                return false;
            fields.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        }
    }
    return !fields.empty();
}

/** Non-negative finite double: NaN, inf and negatives are parse
 *  errors (a NaN delay would otherwise slip past `v < 0`). */
bool
parseDouble(const std::string &s, double &out)
{
    double v = 0.0;
    if (!support::parseFinite(s, v) || v < 0.0)
        return false;
    out = v;
    return true;
}

} // namespace

StatusOr<FaultPlan>
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    for (const std::string &clause : split(spec, ';')) {
        const std::size_t colon = clause.find(':');
        if (colon == std::string::npos)
            return malformed(clause, "expected '<kind>:<fields>'");
        const std::string kind = clause.substr(0, colon);
        const std::string body = clause.substr(colon + 1);

        if (kind == "seed") {
            if (!support::parseDecimal(body, plan.seed))
                return malformed(clause, "seed wants an integer");
            continue;
        }

        std::vector<std::pair<std::string, std::string>> fields;
        if (!parseFields(body, fields))
            return malformed(clause, "expected key=value fields");

        FaultEvent ev;
        bool have_dev = false, have_xfer = false, have_ns = false;
        bool have_factor = false, have_p = false;
        for (const auto &[key, value] : fields) {
            if (key == "dev") {
                if (!support::parseDecimal(value, ev.device))
                    return malformed(clause, "bad dev index");
                have_dev = true;
            } else if (key == "win") {
                if (!support::parseDecimal(value, ev.window))
                    return malformed(clause, "bad win ordinal");
            } else if (key == "xfer") {
                if (!support::parseDecimal(value, ev.transfer))
                    return malformed(clause, "bad xfer index");
                have_xfer = true;
            } else if (key == "ns") {
                if (!parseDouble(value, ev.delayNs))
                    return malformed(
                        clause,
                        "bad ns value (wants finite, >= 0)");
                have_ns = true;
            } else if (key == "attempt") {
                if (!support::parseDecimal(value, ev.attempt))
                    return malformed(clause, "bad attempt ordinal");
            } else if (key == "factor") {
                if (!parseDouble(value, ev.factor) ||
                    ev.factor < 1.0)
                    return malformed(
                        clause,
                        "bad factor (wants finite, >= 1)");
                have_factor = true;
            } else if (key == "p") {
                if (!parseDouble(value, ev.probability) ||
                    ev.probability > 1.0)
                    return malformed(
                        clause, "bad p (wants a value in [0, 1])");
                have_p = true;
            } else {
                return malformed(clause,
                                 "unknown field (dev/win/xfer/ns/"
                                 "attempt/factor/p)");
            }
        }

        if (kind == "kill") {
            if (!have_dev)
                return malformed(clause, "kill wants dev=K");
            ev.kind = FaultKind::KillDevice;
        } else if (kind == "corrupt") {
            if (have_dev == have_xfer)
                return malformed(clause,
                                 "corrupt wants dev=K or xfer=N");
            ev.kind = have_xfer ? FaultKind::CorruptTransfer
                                : FaultKind::CorruptDeviceTransfers;
        } else if (kind == "delay") {
            if (!have_dev || !have_ns)
                return malformed(clause, "delay wants dev=K,ns=X");
            ev.kind = FaultKind::DelayTransfer;
        } else if (kind == "degrade") {
            if (!have_dev || !have_factor)
                return malformed(clause,
                                 "degrade wants dev=K,factor=F");
            ev.kind = FaultKind::DegradeDevice;
        } else if (kind == "flaky") {
            if (!have_dev || !have_p)
                return malformed(clause, "flaky wants dev=K,p=P");
            ev.kind = FaultKind::FlakyTransfers;
        } else if (kind == "hang") {
            if (!have_dev)
                return malformed(clause, "hang wants dev=K");
            ev.kind = FaultKind::HangDevice;
        } else {
            return malformed(clause,
                             "unknown kind (kill/corrupt/delay/"
                             "degrade/flaky/hang/seed)");
        }
        plan.events.push_back(ev);
    }
    return plan;
}

int
FaultPlan::killWindow(int device) const
{
    int win = -1;
    for (const FaultEvent &ev : events) {
        if (ev.kind != FaultKind::KillDevice || ev.device != device)
            continue;
        if (win < 0 || ev.window < win)
            win = ev.window;
    }
    return win;
}

int
FaultPlan::hangWindow(int device) const
{
    int win = -1;
    for (const FaultEvent &ev : events) {
        if (ev.kind != FaultKind::HangDevice || ev.device != device)
            continue;
        if (win < 0 || ev.window < win)
            win = ev.window;
    }
    return win;
}

bool
FaultPlan::survives(int device) const
{
    for (const FaultEvent &ev : events)
        if ((ev.kind == FaultKind::KillDevice ||
             ev.kind == FaultKind::HangDevice) &&
            ev.device == device)
            return false;
    return true;
}

double
FaultPlan::degradeFactor(int device, int window_ordinal) const
{
    double factor = 1.0;
    for (const FaultEvent &ev : events) {
        if (ev.kind == FaultKind::DegradeDevice &&
            ev.device == device && ev.window <= window_ordinal)
            factor *= ev.factor;
    }
    return factor;
}

bool
FaultPlan::degraded(int device) const
{
    for (const FaultEvent &ev : events)
        if (ev.kind == FaultKind::DegradeDevice &&
            ev.device == device)
            return true;
    return false;
}

double
FaultPlan::flakyProbability(int device) const
{
    double p = 0.0;
    for (const FaultEvent &ev : events) {
        if (ev.kind == FaultKind::FlakyTransfers &&
            ev.device == device && ev.probability > p)
            p = ev.probability;
    }
    return p;
}

bool
FaultPlan::hasStragglerFaults() const
{
    for (const FaultEvent &ev : events)
        if (ev.kind == FaultKind::DegradeDevice ||
            ev.kind == FaultKind::HangDevice)
            return true;
    return false;
}

TransferFault
FaultPlan::transferFault(std::uint64_t transfer_index,
                         int device) const
{
    for (const FaultEvent &ev : events) {
        if (ev.kind == FaultKind::CorruptTransfer &&
            ev.transfer == transfer_index)
            return TransferFault::Corrupt;
        if (ev.kind == FaultKind::CorruptDeviceTransfers &&
            ev.device == device)
            return TransferFault::Corrupt;
    }
    const double p = flakyProbability(device);
    if (p > 0.0) {
        // The coin is a pure function of (seed, transfer index):
        // the engine's sequential transfer counter makes the same
        // attempts flip at every hostThreads setting. A distinct
        // mixing constant keeps the coin stream independent of the
        // corruptBytes byte/mask stream.
        Prng coin(seed ^ (transfer_index * 0xD1B54A32D192ED03ull) ^
                  0xF1AC7);
        const double draw =
            static_cast<double>(coin() >> 11) * 0x1.0p-53;
        if (draw < p)
            return TransferFault::Flaky;
    }
    return TransferFault::None;
}

double
FaultPlan::transferDelayNs(int device, int attempt) const
{
    double delay = 0.0;
    for (const FaultEvent &ev : events) {
        if (ev.kind == FaultKind::DelayTransfer &&
            ev.device == device && ev.attempt == attempt)
            delay += ev.delayNs;
    }
    return delay;
}

void
corruptBytes(std::vector<std::uint8_t> &bytes, std::uint64_t seed,
             std::uint64_t transfer_index)
{
    if (bytes.empty())
        return;
    Prng prng(seed ^ (transfer_index * 0x9E3779B97F4A7C15ull));
    const std::size_t idx =
        static_cast<std::size_t>(prng.below(bytes.size()));
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1 + prng.below(255));
    bytes[idx] ^= mask;
}

StatusOr<const FaultPlan *>
globalFaultPlanFromEnv()
{
    struct EnvPlan
    {
        std::unique_ptr<FaultPlan> plan;
        Status status;
    };
    static const EnvPlan env = [] {
        EnvPlan e;
        const char *spec = std::getenv("DISTMSM_FAULT_SPEC");
        if (spec == nullptr || spec[0] == '\0')
            return e;
        StatusOr<FaultPlan> parsed = FaultPlan::parse(spec);
        if (!parsed.isOk()) {
            e.status = Status(
                parsed.status().code(),
                "DISTMSM_FAULT_SPEC: " + parsed.status().message());
            return e;
        }
        e.plan = std::make_unique<FaultPlan>(std::move(*parsed));
        return e;
    }();
    if (!env.status.isOk())
        return env.status;
    return static_cast<const FaultPlan *>(env.plan.get());
}

} // namespace distmsm::gpusim
