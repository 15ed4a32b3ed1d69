/**
 * @file
 * Idleness analysis.
 *
 * The paper's second finding: drives "experience long stretches of
 * idleness", which matters because background work (scrubbing,
 * destaging, power management) lives in idle intervals and needs
 * them to be long, not merely frequent.  The analysis therefore
 * reports not only the idle-interval length distribution but the
 * idle-time mass above a duration threshold: what fraction of all
 * idle time sits in intervals long enough to use.
 */

#ifndef DLW_CORE_IDLENESS_HH
#define DLW_CORE_IDLENESS_HH

#include <algorithm>
#include <utility>
#include <vector>

#include "disk/drive.hh"
#include "stats/ecdf.hh"

namespace dlw
{
namespace core
{

/**
 * Complete idleness characterization of one drive run.
 */
class IdlenessAnalysis
{
  public:
    /** Analyse the idle structure of a service log. */
    explicit IdlenessAnalysis(const disk::ServiceLog &log);

    /** Number of idle intervals. */
    std::size_t count() const { return intervals_.size(); }

    /** Total idle time. */
    Tick totalIdle() const { return total_idle_; }

    /** Idle fraction of the window (1 - utilization). */
    double idleFraction() const;

    /** Mean idle-interval length (0 when none). */
    Tick meanInterval() const;

    /** Idle-interval length at a quantile. */
    Tick intervalQuantile(double q) const;

    /** Longest idle interval. */
    Tick longestInterval() const;

    /**
     * Fraction of total idle *time* contained in intervals at least
     * t long — the usable-idleness measure.
     */
    double idleMassAtLeast(Tick t) const;

    /**
     * CDF curve of interval lengths: (length, P(X <= length)) at n
     * points, for the E4 figure.
     */
    std::vector<std::pair<double, double>> lengthCdf(
        std::size_t points) const;

    /**
     * Idle-mass curve: (threshold, idleMassAtLeast(threshold)) over
     * geometrically spaced thresholds between 1 ms and the longest
     * interval.
     */
    std::vector<std::pair<Tick, double>> massCurve(
        std::size_t points) const;

    /** Raw interval lengths (sorted ascending). */
    const std::vector<Tick> &intervals() const { return intervals_; }

  private:
    std::vector<Tick> intervals_; // sorted
    std::vector<Tick> suffix_sum_; // idle mass in intervals >= i
    Tick total_idle_ = 0;
    Tick window_ = 0;
};

/** The idle figures a drive characterization reports. */
struct IdleFigures
{
    double fraction = 0.0;      ///< IdlenessAnalysis::idleFraction()
    Tick mean_interval = 0;     ///< IdlenessAnalysis::meanInterval()
    double mass_at_least = 0.0; ///< IdlenessAnalysis::idleMassAtLeast(t)
};

/**
 * IdleFigures folded from a drive's busy intervals as they close.
 * They are integer sums and a count, so unlike IdlenessAnalysis this
 * needs no sorted copy of the intervals, and the values are the same
 * bits.
 */
class IdleFold
{
  public:
    /**
     * @param window_start Start of the observation window.
     * @param t            Idle-mass threshold.
     */
    IdleFold(Tick window_start, Tick t)
        : start_(window_start), at_(window_start), t_(t)
    {
    }

    /** One busy interval, after every interval added before it. */
    void
    add(const trace::BusyInterval &iv)
    {
        if (iv.first > at_)
            gap(iv.first - at_);
        at_ = std::max(at_, iv.second);
    }

    /** The figures over [window_start, window_end). */
    IdleFigures finish(Tick window_end) const;

  private:
    void
    gap(Tick g)
    {
        total_ += g;
        if (g >= t_)
            mass_ += g;
        ++count_;
    }

    Tick start_;
    Tick at_; ///< end of the busy time so far
    Tick t_;
    Tick total_ = 0;
    Tick mass_ = 0;
    std::size_t count_ = 0;
};

} // namespace core
} // namespace dlw

#endif // DLW_CORE_IDLENESS_HH
