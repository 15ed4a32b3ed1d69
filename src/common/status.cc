#include "common/status.hh"

#include <sstream>

namespace dlw
{

const char *
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::kOk:
        return "Ok";
      case StatusCode::kInvalidArgument:
        return "InvalidArgument";
      case StatusCode::kCorruptData:
        return "CorruptData";
      case StatusCode::kTruncated:
        return "Truncated";
      case StatusCode::kIoError:
        return "IoError";
      case StatusCode::kFailedPrecondition:
        return "FailedPrecondition";
      case StatusCode::kUnavailable:
        return "Unavailable";
      case StatusCode::kInternal:
        return "Internal";
    }
    return "Unknown";
}

Status::Status(StatusCode code, std::string message)
    : code_(code), message_(std::move(message))
{
    dlw_assert(code != StatusCode::kOk,
               "error Status needs a non-OK code");
}

Status
Status::invalidArgument(std::string msg)
{
    return Status(StatusCode::kInvalidArgument, std::move(msg));
}

Status
Status::corruptData(std::string msg)
{
    return Status(StatusCode::kCorruptData, std::move(msg));
}

Status
Status::truncated(std::string msg)
{
    return Status(StatusCode::kTruncated, std::move(msg));
}

Status
Status::ioError(std::string msg)
{
    return Status(StatusCode::kIoError, std::move(msg));
}

Status
Status::failedPrecondition(std::string msg)
{
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
}

Status
Status::unavailable(std::string msg)
{
    return Status(StatusCode::kUnavailable, std::move(msg));
}

Status
Status::internal(std::string msg)
{
    return Status(StatusCode::kInternal, std::move(msg));
}

Status &
Status::withContext(std::string frame)
{
    context_.insert(context_.begin(), std::move(frame));
    return *this;
}

std::string
Status::toString() const
{
    if (ok())
        return "OK";
    std::ostringstream os;
    os << '[' << statusCodeName(code_) << "] ";
    for (const std::string &frame : context_)
        os << frame << ": ";
    os << message_;
    return os.str();
}

} // namespace dlw
