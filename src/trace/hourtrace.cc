#include "trace/hourtrace.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace trace
{

HourTrace::HourTrace(std::string drive_id, Tick start)
    : drive_id_(std::move(drive_id)), start_(start)
{
}

const HourBucket &
HourTrace::at(std::size_t h) const
{
    dlw_assert(h < buckets_.size(), "hour index out of range");
    return buckets_[h];
}

HourBucket &
HourTrace::bucketFor(std::size_t h)
{
    if (h >= buckets_.size())
        buckets_.resize(h + 1);
    return buckets_[h];
}

HourBucket &
HourTrace::bucketAt(Tick t)
{
    dlw_assert(t >= start_, "tick before hour-trace start");
    return bucketFor(static_cast<std::size_t>((t - start_) / kHour));
}

std::uint64_t
HourTrace::totalRequests() const
{
    std::uint64_t t = 0;
    for (const HourBucket &b : buckets_)
        t += b.total();
    return t;
}

std::uint64_t
HourTrace::totalBlocks() const
{
    std::uint64_t t = 0;
    for (const HourBucket &b : buckets_)
        t += b.totalBlocks();
    return t;
}

double
HourTrace::meanUtilization() const
{
    if (buckets_.empty())
        return 0.0;
    double s = 0.0;
    for (const HourBucket &b : buckets_)
        s += b.utilization();
    return s / static_cast<double>(buckets_.size());
}

double
HourTrace::idleHourFraction() const
{
    if (buckets_.empty())
        return 0.0;
    std::size_t idle = 0;
    for (const HourBucket &b : buckets_) {
        if (b.total() == 0)
            ++idle;
    }
    return static_cast<double>(idle) /
           static_cast<double>(buckets_.size());
}

double
HourTrace::busyHourFraction(double threshold) const
{
    if (buckets_.empty())
        return 0.0;
    std::size_t busy = 0;
    for (const HourBucket &b : buckets_) {
        if (b.utilization() >= threshold)
            ++busy;
    }
    return static_cast<double>(busy) /
           static_cast<double>(buckets_.size());
}

std::size_t
HourTrace::longestBusyRun(double threshold) const
{
    std::size_t best = 0;
    std::size_t run = 0;
    for (const HourBucket &b : buckets_) {
        if (b.utilization() >= threshold) {
            ++run;
            best = std::max(best, run);
        } else {
            run = 0;
        }
    }
    return best;
}

stats::BinnedSeries
HourTrace::requestSeries() const
{
    stats::BinnedSeries s(start_, kHour, buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        s.at(i) = static_cast<double>(buckets_[i].total());
    return s;
}

std::vector<double>
HourTrace::hourOfWeekProfile() const
{
    std::vector<double> sums(168, 0.0);
    std::vector<std::size_t> counts(168, 0);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        std::size_t slot = i % 168;
        sums[slot] += static_cast<double>(buckets_[i].total());
        ++counts[slot];
    }
    for (std::size_t s = 0; s < 168; ++s) {
        if (counts[s] > 0)
            sums[s] /= static_cast<double>(counts[s]);
    }
    return sums;
}

} // namespace trace
} // namespace dlw
