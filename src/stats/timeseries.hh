/**
 * @file
 * Fixed-width binned time series.
 *
 * The multi-scale analyses all reduce a trace to "value per bin of
 * width w" series: request counts per 10 ms, busy nanoseconds per
 * second, bytes written per hour.  BinnedSeries owns that
 * representation and the aggregation operator that re-bins a series
 * to a coarser scale, which is the core mechanic behind the paper's
 * "same workload, different time-scales" methodology.
 */

#ifndef DLW_STATS_TIMESERIES_HH
#define DLW_STATS_TIMESERIES_HH

#include <cstddef>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace dlw
{

class BinEnc;
class BinDec;

namespace stats
{

/**
 * Bins of width bin_width (> 0) that cover the window [start, start +
 * duration): the ceiling of duration / bin_width, computed without
 * overflow.  CorruptData when duration is negative or the last bin
 * would end past the largest Tick: no series can be laid over such a
 * window.
 */
StatusOr<std::size_t> binsCovering(Tick start, Tick duration,
                                   Tick bin_width);

/**
 * A value per fixed-width time bin, anchored at a start tick.
 */
class BinnedSeries
{
  public:
    /**
     * @param start     Tick of the left edge of bin 0.
     * @param bin_width Width of every bin in ticks (> 0).
     * @param bins      Initial number of bins (all zero).
     */
    BinnedSeries(Tick start, Tick bin_width, std::size_t bins = 0);

    /** Left edge of bin 0. */
    Tick start() const { return start_; }

    /** Width of each bin in ticks. */
    Tick binWidth() const { return bin_width_; }

    /** Number of bins. */
    std::size_t size() const { return values_.size(); }

    /** True when the series holds no bins. */
    bool empty() const { return values_.empty(); }

    /** Value in bin i (bounds-checked). */
    double at(std::size_t i) const;

    /** Mutable value in bin i (bounds-checked). */
    double &at(std::size_t i);

    /** Left-edge tick of bin i. */
    Tick binStart(std::size_t i) const;

    /**
     * Add amount into the bin containing tick t, growing the series
     * as needed.  Ticks before start() are rejected.
     */
    void accumulateAt(Tick t, double amount);

    /**
     * Spread an interval [from, to) across the bins it overlaps,
     * weighting amount by the overlap fraction.  Used to convert
     * busy intervals into per-bin busy time.
     */
    void accumulateInterval(Tick from, Tick to, double amount);

    /** Grow (zero-filled) so that tick t falls inside the series. */
    void extendTo(Tick t);

    /**
     * Re-bin to a coarser scale.
     *
     * @param factor Number of current bins per new bin (>= 1).
     * @return A series with bin width factor * binWidth(); a trailing
     *         partial group is kept (summed as-is).
     */
    BinnedSeries aggregate(std::size_t factor) const;

    /** Raw bin values. */
    const std::vector<double> &values() const & { return values_; }

    /** The raw bin values, moved out of an expiring series. */
    std::vector<double> values() && { return std::move(values_); }

    /** Replace the raw values (size may change). */
    void setValues(std::vector<double> v) { values_ = std::move(v); }

    /** Sum of all bins. */
    double total() const;

    /** Largest bin value (0 when empty). */
    double peak() const;

    /**
     * Peak-to-mean ratio, a coarse burstiness measure (0 when the
     * mean is zero).
     */
    double peakToMean() const;

    /** Append anchor, bin width and raw values (bit-exact). */
    void saveState(BinEnc &enc) const;

    /**
     * Restore state written by saveState(); false on truncation or
     * a non-positive bin width.
     */
    bool loadState(BinDec &dec);

  private:
    Tick start_;
    Tick bin_width_;
    std::vector<double> values_;
};

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_TIMESERIES_HH
