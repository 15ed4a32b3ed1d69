/**
 * @file
 * Sample autocorrelation of a series.
 *
 * Slowly decaying positive autocorrelation of per-bin request counts
 * is one of the signatures of bursty, long-range-dependent disk
 * traffic the paper reports.
 */

#ifndef DLW_STATS_ACF_HH
#define DLW_STATS_ACF_HH

#include <cstddef>
#include <vector>

namespace dlw
{
namespace stats
{

/**
 * Bins autocorrelation() centers at a time.  It never holds a
 * window-long centered copy of its series, only one scratch window
 * of this many bins plus max_lag: each chunk of the series is
 * centered into it together with the max_lag bins that follow, and
 * every lag's sum carries on from chunk to chunk.
 */
constexpr std::size_t kAcfChunkBins = std::size_t{1} << 14;

/**
 * Sample autocorrelation function.
 *
 * @param xs       Series values (length >= 2).
 * @param max_lag  Largest lag to evaluate (clamped to length - 1).
 * @return acf[k] for k = 0..max_lag; acf[0] == 1 unless the series is
 *         constant, in which case every entry is 0.
 */
std::vector<double> autocorrelation(const std::vector<double> &xs,
                                    std::size_t max_lag);

/**
 * Smallest lag at which the autocorrelation drops below a threshold.
 *
 * @param acf       Autocorrelation values from autocorrelation().
 * @param threshold Cut level (e.g. 1/e or 0.1).
 * @return First lag k >= 1 with acf[k] < threshold, or acf.size()
 *         when it never drops below (long memory).
 */
std::size_t decorrelationLag(const std::vector<double> &acf,
                             double threshold);

} // namespace stats
} // namespace dlw

#endif // DLW_STATS_ACF_HH
