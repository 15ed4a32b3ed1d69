/**
 * @file
 * Recoverable error model for library code.
 *
 * Library paths that can fail on *input* (corrupt trace files,
 * truncated streams, injected faults, failed fleet shards) return a
 * Status or StatusOr<T> instead of calling dlw_fatal: the caller —
 * not the library — decides whether a malformed record aborts the
 * run, is skipped, or is clamped, and a CLI boundary converts the
 * final Status into an exit code.  dlw_panic/dlw_assert remain the
 * tool for broken internal invariants; Status is for the outside
 * world misbehaving.
 *
 * A Status carries a coarse code, a message, and a context chain:
 * each layer that propagates an error can prepend where it was
 * ("reading 'fleet-3.bin'", "shard 17") so the final rendering reads
 * outermost-first like a call path.
 */

#ifndef DLW_COMMON_STATUS_HH
#define DLW_COMMON_STATUS_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace dlw
{

/** Coarse error taxonomy; see DESIGN.md "Failure model". */
enum class StatusCode
{
    kOk = 0,
    /** Caller passed something unusable (bad policy name, bad spec). */
    kInvalidArgument,
    /** Input data violates its format's invariants. */
    kCorruptData,
    /** Input ended before the format said it would. */
    kTruncated,
    /** The operating system failed an I/O operation. */
    kIoError,
    /** A stated precondition of the operation does not hold. */
    kFailedPrecondition,
    /** Transient failure; retrying may succeed (fleet shards). */
    kUnavailable,
    /** A dlw bug surfaced as a recoverable error. */
    kInternal,
};

/** Human-readable code name ("CorruptData"). */
const char *statusCodeName(StatusCode code);

/**
 * Result of an operation that may fail recoverably.
 */
class Status
{
  public:
    /** Success. */
    Status() = default;

    /** Failure with a code and message; code must not be kOk. */
    Status(StatusCode code, std::string message);

    static Status invalidArgument(std::string msg);
    static Status corruptData(std::string msg);
    static Status truncated(std::string msg);
    static Status ioError(std::string msg);
    static Status failedPrecondition(std::string msg);
    static Status unavailable(std::string msg);
    static Status internal(std::string msg);

    bool ok() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /**
     * Prepend one frame to the context chain.
     *
     * Called while an error propagates outward, so later frames are
     * more "outer"; toString() renders them outermost-first.
     *
     * @param frame Where the error passed through.
     * @return *this, for chaining on the return path.
     */
    Status &withContext(std::string frame);

    /** Outermost-first context frames. */
    const std::vector<std::string> &context() const { return context_; }

    /** "[CorruptData] reading 'x.csv': line 7: bad op 'Q'". */
    std::string toString() const;

    bool
    operator==(const Status &o) const
    {
        return code_ == o.code_ && message_ == o.message_ &&
               context_ == o.context_;
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
    std::vector<std::string> context_; ///< outermost first
};

/**
 * A Status crossing a boundary that can only signal by throwing
 * (thread-pool tasks, legacy void/value-returning APIs).
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status status)
        : std::runtime_error(status.toString()),
          status_(std::move(status))
    {
    }

    const Status &status() const { return status_; }

  private:
    Status status_;
};

/**
 * Either a value or the Status explaining its absence.
 */
template <typename T>
class StatusOr
{
  public:
    /** Failure; the status must not be kOk. */
    StatusOr(Status status) : status_(std::move(status))
    {
        dlw_assert(!status_.ok(),
                   "StatusOr built from an OK status without a value");
    }

    /** Success. */
    StatusOr(T value) : value_(std::move(value)) {}

    bool ok() const { return value_.has_value(); }

    /** The error (or OK when a value is present). */
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        dlw_assert(value_.has_value(),
                   "value() on a failed StatusOr: ", status_.toString());
        return *value_;
    }

    T &
    value() &
    {
        dlw_assert(value_.has_value(),
                   "value() on a failed StatusOr: ", status_.toString());
        return *value_;
    }

    /** Move the value out (e.g. `auto t = std::move(r).value()`). */
    T &&
    value() &&
    {
        dlw_assert(value_.has_value(),
                   "value() on a failed StatusOr: ", status_.toString());
        return std::move(*value_);
    }

    /** Value, or throw StatusError at a boundary that must throw. */
    T &&
    valueOrThrow() &&
    {
        if (!value_.has_value())
            throw StatusError(status_);
        return std::move(*value_);
    }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace dlw

#endif // DLW_COMMON_STATUS_HH
