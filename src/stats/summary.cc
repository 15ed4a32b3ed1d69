#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

namespace dlw
{
namespace stats
{

Summary
Summary::fromRaw(std::uint64_t n, double mean, double m2, double min,
                 double max)
{
    Summary s;
    s.m_ = {static_cast<double>(n), mean, m2};
    s.min_ = min;
    s.max_ = max;
    return s;
}

void
Summary::add(double x)
{
    m_.add(x);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Summary::merge(const Summary &other)
{
    if (other.m_.n == 0.0)
        return;
    if (m_.n == 0.0) {
        *this = other;
        return;
    }

    const double na = m_.n;
    const double nb = other.m_.n;
    const double nx = na + nb;
    const double delta = other.m_.mean - m_.mean;

    m_.m2 = m_.m2 + other.m_.m2 + delta * delta * na * nb / nx;
    m_.mean = (na * m_.mean + nb * other.m_.mean) / nx;
    m_.n = nx;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Summary::clear()
{
    *this = Summary();
}

double
Summary::variance() const
{
    if (m_.n < 1.0)
        return 0.0;
    return m_.m2 / m_.n;
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

double
Summary::cv() const
{
    if (m_.n == 0.0 || m_.mean == 0.0)
        return 0.0;
    return stddev() / std::fabs(m_.mean);
}

} // namespace stats
} // namespace dlw
