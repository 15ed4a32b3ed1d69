#include "trace/mstrace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace trace
{

MsTrace::MsTrace(std::string drive_id, Tick start, Tick duration)
    : drive_id_(std::move(drive_id)), start_(start), duration_(duration)
{
    dlw_assert(windowEndFits(start, duration),
               "trace window negative or ending past the largest tick");
}

void
MsTrace::setWindow(Tick start, Tick duration)
{
    dlw_assert(windowEndFits(start, duration),
               "trace window negative or ending past the largest tick");
    start_ = start;
    duration_ = duration;
}

void
MsTrace::appendExtending(const Request &req)
{
    append(req);
    if (req.arrival < start_)
        start_ = req.arrival;
    if (req.arrival >= start_ + duration_)
        duration_ = req.arrival - start_ + 1;
}

const Request &
MsTrace::at(std::size_t i) const
{
    dlw_assert(i < reqs_.size(), "request index out of range");
    return reqs_[i];
}

void
MsTrace::sortByArrival()
{
    std::stable_sort(reqs_.begin(), reqs_.end(), ByArrival{});
}

Status
MsTrace::checkValid() const
{
    auto complain = [&](const std::string &msg) {
        return Status::corruptData("trace '" + drive_id_ + "': " + msg);
    };

    Tick prev = start_;
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
        const Request &r = reqs_[i];
        if (r.blocks == 0)
            return complain("request with zero blocks");
        if (r.arrival < prev)
            return complain("arrivals not sorted");
        if (r.arrival < start_ || r.arrival >= end())
            return complain("arrival outside observation window");
        prev = r.arrival;
    }
    return Status();
}

bool
MsTrace::validate(bool fail_hard) const
{
    Status s = checkValid();
    if (s.ok())
        return true;
    if (fail_hard)
        throw StatusError(s);
    return false;
}

std::size_t
MsTrace::readCount() const
{
    return static_cast<std::size_t>(
        std::count_if(reqs_.begin(), reqs_.end(),
                      [](const Request &r) { return r.isRead(); }));
}

double
MsTrace::readFraction() const
{
    if (reqs_.empty())
        return 0.0;
    return static_cast<double>(readCount()) /
           static_cast<double>(reqs_.size());
}

std::uint64_t
MsTrace::totalBytes() const
{
    std::uint64_t total = 0;
    for (const Request &r : reqs_)
        total += r.bytes();
    return total;
}

double
MsTrace::meanRequestBlocks() const
{
    if (reqs_.empty())
        return 0.0;
    std::uint64_t blocks = 0;
    for (const Request &r : reqs_)
        blocks += r.blocks;
    return static_cast<double>(blocks) /
           static_cast<double>(reqs_.size());
}

double
MsTrace::arrivalRate() const
{
    if (reqs_.empty() || duration_ <= 0)
        return 0.0;
    return static_cast<double>(reqs_.size()) / ticksToSeconds(duration_);
}

std::vector<double>
MsTrace::interarrivals() const
{
    std::vector<double> gaps;
    if (reqs_.size() < 2)
        return gaps;
    gaps.reserve(reqs_.size() - 1);
    for (std::size_t i = 1; i < reqs_.size(); ++i) {
        gaps.push_back(static_cast<double>(reqs_[i].arrival -
                                           reqs_[i - 1].arrival));
    }
    return gaps;
}

stats::BinnedSeries
MsTrace::binCounts(Tick bin_width, Filter which) const
{
    const StatusOr<std::size_t> bins =
        stats::binsCovering(start_, duration_, bin_width);
    stats::BinnedSeries series(start_, bin_width, bins.value());
    for (const Request &r : reqs_) {
        if (which == Filter::Reads && !r.isRead())
            continue;
        if (which == Filter::Writes && !r.isWrite())
            continue;
        series.accumulateAt(r.arrival, 1.0);
    }
    return series;
}

double
MsTrace::sequentialFraction() const
{
    if (reqs_.size() < 2)
        return 0.0;
    std::size_t seq = 0;
    for (std::size_t i = 1; i < reqs_.size(); ++i) {
        if (reqs_[i].lba == reqs_[i - 1].lbaEnd())
            ++seq;
    }
    return static_cast<double>(seq) /
           static_cast<double>(reqs_.size() - 1);
}

} // namespace trace
} // namespace dlw
