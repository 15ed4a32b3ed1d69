#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

LogHistogram::LogHistogram(double lo, double hi,
                           std::size_t bins_per_decade)
    : lo_(lo), hi_(hi)
{
    dlw_assert(lo > 0.0 && hi > lo, "log histogram range invalid");
    dlw_assert(bins_per_decade >= 1, "log histogram resolution invalid");
    log_lo_ = std::log10(lo);
    log_width_ = 1.0 / static_cast<double>(bins_per_decade);
    // Exact (bins_per_decade is a small integer); the bin map
    // multiplies by it rather than dividing by log_width_.
    inv_log_width_ = static_cast<double>(bins_per_decade);
    double decades = std::log10(hi) - log_lo_;
    auto bins = static_cast<std::size_t>(
        std::ceil(decades / log_width_ - 1e-9));
    counts_.assign(std::max<std::size_t>(bins, 1), 0.0);
}

void
LogHistogram::add(double x)
{
    addWeighted(x, 1.0);
}

void
LogHistogram::addWeighted(double x, double weight)
{
    total_ += weight;
    if (!(x >= lo_)) { // also catches NaN and non-positive values
        underflow_ += weight;
        return;
    }
    if (x >= hi_) {
        overflow_ += weight;
        return;
    }
    auto idx = static_cast<std::size_t>(
        (std::log10(x) - log_lo_) * inv_log_width_);
    if (idx >= counts_.size())
        idx = counts_.size() - 1;
    counts_[idx] += weight;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    dlw_assert(counts_.size() == other.counts_.size() &&
               lo_ == other.lo_ && hi_ == other.hi_,
               "merging log histograms with different layouts");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
}

double
LogHistogram::binWeight(std::size_t i) const
{
    dlw_assert(i < counts_.size(), "bin index out of range");
    return counts_[i];
}

double
LogHistogram::binLower(std::size_t i) const
{
    return std::pow(10.0, log_lo_ + log_width_ * static_cast<double>(i));
}

double
LogHistogram::binUpper(std::size_t i) const
{
    return std::pow(10.0,
                    log_lo_ + log_width_ * static_cast<double>(i + 1));
}

double
LogHistogram::quantile(double q) const
{
    dlw_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    if (total_ <= 0.0)
        return lo_;
    double target = q * total_;
    double acc = underflow_;
    if (acc >= target && underflow_ > 0.0)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (acc + counts_[i] >= target) {
            double frac = counts_[i] > 0.0
                ? (target - acc) / counts_[i]
                : 0.0;
            double lg = log_lo_ + log_width_ *
                (static_cast<double>(i) + frac);
            return std::pow(10.0, lg);
        }
        acc += counts_[i];
    }
    return hi_;
}

} // namespace stats
} // namespace dlw
