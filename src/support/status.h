/**
 * @file
 * Lightweight error channel for the fault-tolerant execution layer.
 *
 * Every gpusim/msm/zksnark API that can fail under the fault model
 * (device loss, corrupted or timed-out transfers, kernels that cannot
 * launch, mismatching results) returns a Status or StatusOr<T>
 * instead of aborting, so the retry/re-shard machinery in MsmEngine
 * can observe the failure and recover. The taxonomy mirrors the
 * fault-injection kinds of src/gpusim/faults.h.
 *
 * Deliberately minimal (no payloads beyond a message, no chaining):
 * the simulator needs a typed, propagatable failure channel, not a
 * full absl::Status clone.
 */

#ifndef DISTMSM_SUPPORT_STATUS_H
#define DISTMSM_SUPPORT_STATUS_H

#include <string>
#include <utility>

#include "src/support/check.h"

namespace distmsm::support {

/** Failure taxonomy of the distributed MSM fault model. */
enum class StatusCode {
    Ok = 0,
    /** A simulated device died; its shard must be redistributed. */
    DeviceLost,
    /** A host<->device payload failed its RLC checksum. */
    TransferCorrupt,
    /** A transfer exceeded msm::kTransferTimeoutNs. */
    TransferTimeout,
    /** A kernel could not launch (bad geometry, shared memory). */
    KernelFault,
    /** Host-side re-derivation disagreed with the device digest. */
    ResultMismatch,
    /** Malformed user input (e.g. an unparsable fault spec). */
    InvalidArgument,
};

/** Printable name of a status code ("DEVICE_LOST"). */
inline const char *
statusCodeName(StatusCode code)
{
    switch (code) {
    case StatusCode::Ok:
        return "OK";
    case StatusCode::DeviceLost:
        return "DEVICE_LOST";
    case StatusCode::TransferCorrupt:
        return "TRANSFER_CORRUPT";
    case StatusCode::TransferTimeout:
        return "TRANSFER_TIMEOUT";
    case StatusCode::KernelFault:
        return "KERNEL_FAULT";
    case StatusCode::ResultMismatch:
        return "RESULT_MISMATCH";
    case StatusCode::InvalidArgument:
        return "INVALID_ARGUMENT";
    }
    return "UNKNOWN";
}

/** A status code plus a human-readable message. */
class Status
{
  public:
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status ok() { return Status{}; }

    bool isOk() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "TRANSFER_CORRUPT: device 2 digest mismatch" (or "OK"). */
    std::string
    toString() const
    {
        if (isOk())
            return "OK";
        if (message_.empty())
            return statusCodeName(code_);
        return std::string(statusCodeName(code_)) + ": " + message_;
    }

    bool
    operator==(const Status &other) const
    {
        return code_ == other.code_ && message_ == other.message_;
    }

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/** A value or the Status explaining why there is none. */
template <typename T>
class StatusOr
{
  public:
    /** Implicit from a value (the common success return). */
    StatusOr(T value) : value_(std::move(value)) {}

    /** Implicit from a non-ok Status. */
    StatusOr(Status status) : status_(std::move(status))
    {
        DISTMSM_ASSERT(!status_.isOk());
    }

    bool isOk() const { return status_.isOk(); }
    const Status &status() const { return status_; }

    /** The value; the caller must have checked isOk(). */
    T &
    value()
    {
        DISTMSM_ASSERT(status_.isOk());
        return value_;
    }

    const T &
    value() const
    {
        DISTMSM_ASSERT(status_.isOk());
        return value_;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status status_;
    T value_{};
};

} // namespace distmsm::support

/** Propagate a non-ok Status out of the enclosing function. */
#define DISTMSM_RETURN_IF_ERROR(expr)                                   \
    do {                                                                \
        ::distmsm::support::Status status__ = (expr);                   \
        if (!status__.isOk())                                           \
            return status__;                                            \
    } while (0)

#endif // DISTMSM_SUPPORT_STATUS_H
