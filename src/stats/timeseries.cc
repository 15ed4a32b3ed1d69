#include "stats/timeseries.hh"

#include <algorithm>
#include <string>

#include "common/binenc.hh"
#include "common/logging.hh"

namespace dlw
{
namespace stats
{

StatusOr<std::size_t>
binsCovering(Tick start, Tick duration, Tick bin_width)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
    if (duration < 0)
        return Status::corruptData("negative observation window");
    const Tick bins =
        duration / bin_width + (duration % bin_width != 0 ? 1 : 0);
    Tick span = 0;
    Tick end = 0;
    if (__builtin_mul_overflow(bins, bin_width, &span) ||
        __builtin_add_overflow(start, span, &end)) {
        return Status::corruptData(
            "observation window of " + std::to_string(duration) +
            " ns from tick " + std::to_string(start) +
            " cannot be binned at " + std::to_string(bin_width) +
            " ns: its last bin ends past the largest tick");
    }
    return static_cast<std::size_t>(bins);
}

BinnedSeries::BinnedSeries(Tick start, Tick bin_width, std::size_t bins)
    : start_(start), bin_width_(bin_width), values_(bins, 0.0)
{
    dlw_assert(bin_width > 0, "bin width must be positive");
}

double
BinnedSeries::at(std::size_t i) const
{
    dlw_assert(i < values_.size(), "bin index out of range");
    return values_[i];
}

double &
BinnedSeries::at(std::size_t i)
{
    dlw_assert(i < values_.size(), "bin index out of range");
    return values_[i];
}

Tick
BinnedSeries::binStart(std::size_t i) const
{
    return start_ + bin_width_ * static_cast<Tick>(i);
}

void
BinnedSeries::accumulateAt(Tick t, double amount)
{
    dlw_assert(t >= start_, "tick before series start");
    auto idx = static_cast<std::size_t>((t - start_) / bin_width_);
    if (idx >= values_.size())
        values_.resize(idx + 1, 0.0);
    values_[idx] += amount;
}

void
BinnedSeries::accumulateInterval(Tick from, Tick to, double amount)
{
    dlw_assert(from >= start_, "interval before series start");
    if (to <= from)
        return;
    extendTo(to - 1);
    const double span = static_cast<double>(to - from);
    auto first = static_cast<std::size_t>((from - start_) / bin_width_);
    auto last = static_cast<std::size_t>((to - 1 - start_) / bin_width_);
    for (std::size_t i = first; i <= last; ++i) {
        Tick b0 = binStart(i);
        Tick b1 = b0 + bin_width_;
        Tick lo = std::max(from, b0);
        Tick hi = std::min(to, b1);
        values_[i] += amount * static_cast<double>(hi - lo) / span;
    }
}

void
BinnedSeries::extendTo(Tick t)
{
    dlw_assert(t >= start_, "tick before series start");
    auto idx = static_cast<std::size_t>((t - start_) / bin_width_);
    if (idx >= values_.size())
        values_.resize(idx + 1, 0.0);
}

BinnedSeries
BinnedSeries::aggregate(std::size_t factor) const
{
    dlw_assert(factor >= 1, "aggregation factor must be >= 1");
    if (factor == 1)
        return *this;
    BinnedSeries out(start_, bin_width_ * static_cast<Tick>(factor));
    out.values_.reserve((values_.size() + factor - 1) / factor);
    for (std::size_t i = 0; i < values_.size(); i += factor) {
        double s = 0.0;
        std::size_t hi = std::min(i + factor, values_.size());
        for (std::size_t j = i; j < hi; ++j)
            s += values_[j];
        out.values_.push_back(s);
    }
    return out;
}

double
BinnedSeries::total() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return s;
}

double
BinnedSeries::peak() const
{
    double m = 0.0;
    for (double v : values_)
        m = std::max(m, v);
    return m;
}

double
BinnedSeries::peakToMean() const
{
    if (values_.empty())
        return 0.0;
    double mean = total() / static_cast<double>(values_.size());
    if (mean == 0.0)
        return 0.0;
    return peak() / mean;
}

void
BinnedSeries::saveState(BinEnc &enc) const
{
    enc.i64(start_);
    enc.i64(bin_width_);
    enc.f64vec(values_);
}

bool
BinnedSeries::loadState(BinDec &dec)
{
    const Tick start = dec.i64();
    const Tick bin_width = dec.i64();
    std::vector<double> values = dec.f64vec();
    if (!dec.ok() || bin_width <= 0)
        return false;
    start_ = start;
    bin_width_ = bin_width;
    values_ = std::move(values);
    return true;
}

} // namespace stats
} // namespace dlw
