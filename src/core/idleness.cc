#include "core/idleness.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace core
{

IdlenessAnalysis::IdlenessAnalysis(const disk::ServiceLog &log)
{
    intervals_ = log.idleIntervals();
    std::sort(intervals_.begin(), intervals_.end());
    window_ = log.window_end - log.window_start;

    suffix_sum_.assign(intervals_.size() + 1, 0);
    for (std::size_t i = intervals_.size(); i-- > 0;)
        suffix_sum_[i] = suffix_sum_[i + 1] + intervals_[i];
    total_idle_ = suffix_sum_.empty() ? 0 : suffix_sum_[0];
}

double
IdlenessAnalysis::idleFraction() const
{
    if (window_ <= 0)
        return 0.0;
    return static_cast<double>(total_idle_) /
           static_cast<double>(window_);
}

Tick
IdlenessAnalysis::meanInterval() const
{
    if (intervals_.empty())
        return 0;
    return total_idle_ / static_cast<Tick>(intervals_.size());
}

Tick
IdlenessAnalysis::intervalQuantile(double q) const
{
    dlw_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    dlw_assert(!intervals_.empty(), "no idle intervals");
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(intervals_.size() - 1) + 0.5);
    return intervals_[std::min(idx, intervals_.size() - 1)];
}

Tick
IdlenessAnalysis::longestInterval() const
{
    return intervals_.empty() ? 0 : intervals_.back();
}

double
IdlenessAnalysis::idleMassAtLeast(Tick t) const
{
    if (total_idle_ <= 0)
        return 0.0;
    const auto it =
        std::lower_bound(intervals_.begin(), intervals_.end(), t);
    const auto idx = static_cast<std::size_t>(it - intervals_.begin());
    return static_cast<double>(suffix_sum_[idx]) /
           static_cast<double>(total_idle_);
}

std::vector<std::pair<double, double>>
IdlenessAnalysis::lengthCdf(std::size_t points) const
{
    dlw_assert(points >= 2, "cdf needs at least two points");
    std::vector<std::pair<double, double>> out;
    if (intervals_.empty())
        return out;
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double q = static_cast<double>(i) /
                         static_cast<double>(points - 1);
        out.emplace_back(static_cast<double>(intervalQuantile(q)), q);
    }
    return out;
}

std::vector<std::pair<Tick, double>>
IdlenessAnalysis::massCurve(std::size_t points) const
{
    dlw_assert(points >= 2, "mass curve needs at least two points");
    std::vector<std::pair<Tick, double>> out;
    if (intervals_.empty())
        return out;

    const double lo = std::log10(static_cast<double>(kMsec));
    const double hi = std::log10(
        std::max<double>(static_cast<double>(longestInterval()),
                         static_cast<double>(kMsec) * 10.0));
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double lg = lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(points - 1);
        const auto t = static_cast<Tick>(std::pow(10.0, lg));
        out.emplace_back(t, idleMassAtLeast(t));
    }
    return out;
}

IdleFigures
IdleFold::finish(Tick window_end) const
{
    IdleFold last = *this;
    if (window_end > at_)
        last.gap(window_end - at_);
    IdleFigures f;
    const Tick window = window_end - start_;
    if (window > 0)
        f.fraction = static_cast<double>(last.total_) /
                     static_cast<double>(window);
    if (last.count_ != 0)
        f.mean_interval = last.total_ / static_cast<Tick>(last.count_);
    if (last.total_ > 0)
        f.mass_at_least = static_cast<double>(last.mass_) /
                          static_cast<double>(last.total_);
    return f;
}

} // namespace core
} // namespace dlw
