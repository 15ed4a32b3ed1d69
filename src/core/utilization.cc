#include "core/utilization.hh"

#include <algorithm>

#include "common/logging.hh"
#include "stats/ecdf.hh"

namespace dlw
{
namespace core
{

UtilizationAccumulator::UtilizationAccumulator(Tick bin_width)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
    p_.bin_width = bin_width;
}

void
UtilizationAccumulator::observe(double u)
{
    dlw_assert(u >= -1e-9 && u <= 1.0 + 1e-9,
               "utilization outside [0, 1]");
    p_.series.push_back(u);
    ecdf_.add(u);
    sum_ += u;
    if (u <= 0.0)
        ++idle_;
    if (u >= 0.9)
        ++saturated_;
    p_.peak = std::max(p_.peak, u);
}

UtilizationProfile
UtilizationAccumulator::finish()
{
    if (p_.series.empty())
        return p_;
    const double n = static_cast<double>(p_.series.size());
    p_.mean = sum_ / n;
    p_.median = ecdf_.median();
    p_.p95 = ecdf_.quantile(0.95);
    p_.idle_fraction = static_cast<double>(idle_) / n;
    p_.saturated_fraction = static_cast<double>(saturated_) / n;
    return p_;
}

namespace
{

UtilizationProfile
profileFromSeries(const std::vector<double> &series, Tick bin_width)
{
    UtilizationAccumulator acc(bin_width);
    for (double u : series)
        acc.observe(u);
    return acc.finish();
}

} // anonymous namespace

UtilizationProfile
utilizationProfile(const disk::ServiceLog &log, Tick bin_width)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
    stats::BinnedSeries s = log.utilizationSeries(bin_width);
    // Clip FP residue from interval splitting.
    std::vector<double> v = s.values();
    for (double &x : v)
        x = std::clamp(x, 0.0, 1.0);
    return profileFromSeries(std::move(v), bin_width);
}

UtilizationProfile
utilizationProfile(const trace::HourTrace &trace)
{
    std::vector<double> v;
    v.reserve(trace.hours());
    for (const trace::HourBucket &b : trace.buckets())
        v.push_back(std::clamp(b.utilization(), 0.0, 1.0));
    return profileFromSeries(std::move(v), kHour);
}

} // namespace core
} // namespace dlw
