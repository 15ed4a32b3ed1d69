#include "stats/ecdf.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dlw
{
namespace stats
{

void
Ecdf::add(double x)
{
    data_.push_back(x);
    sorted_ = false;
}

void
Ecdf::ensureSorted() const
{
    if (!sorted_) {
        std::sort(data_.begin(), data_.end());
        sorted_ = true;
    }
}

double
Ecdf::quantile(double q) const
{
    dlw_assert(q >= 0.0 && q <= 1.0, "quantile out of range");
    dlw_assert(!data_.empty(), "quantile of empty ecdf");
    ensureSorted();
    if (data_.size() == 1)
        return data_[0];
    double pos = q * static_cast<double>(data_.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= data_.size())
        return data_.back();
    return data_[lo] + frac * (data_[lo + 1] - data_[lo]);
}

std::vector<std::pair<double, double>>
Ecdf::curve(std::size_t n) const
{
    dlw_assert(n >= 2, "cdf curve needs at least two points");
    std::vector<std::pair<double, double>> out;
    if (data_.empty())
        return out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        double q = static_cast<double>(i) / static_cast<double>(n - 1);
        out.emplace_back(quantile(q), q);
    }
    return out;
}

std::vector<double>
Ecdf::sorted() const
{
    ensureSorted();
    return data_;
}

} // namespace stats
} // namespace dlw
