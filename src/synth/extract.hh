/**
 * @file
 * Workload-model extraction: trace -> parameters -> regenerator.
 *
 * The inverse of the synthesis pipeline, and the standard use of a
 * characterization study: measure a real trace, extract a compact
 * parametric model, and regenerate statistically similar synthetic
 * traffic of any length.  The extractor estimates the arrival
 * structure (Poisson vs ON/OFF burst trains), the read/write mix
 * and its run persistence, the request-size body, and the
 * sequentiality, then builds a Workload from them.
 *
 * Deliberately not extracted (documented limitation): the spatial
 * hot-spot skew — regenerated traffic reproduces sequentiality but
 * places random runs uniformly.
 */

#ifndef DLW_SYNTH_EXTRACT_HH
#define DLW_SYNTH_EXTRACT_HH

#include <string>
#include <vector>

#include "core/pass.hh"
#include "synth/workload.hh"
#include "trace/mstrace.hh"

namespace dlw
{
namespace synth
{

/**
 * Parametric model distilled from one trace.
 */
struct ExtractedModel
{
    /** Device capacity the model places requests within. */
    Lba capacity = 0;

    // Arrival structure.
    /** Long-run arrival rate, requests/second. */
    double rate = 0.0;
    /** Interarrival coefficient of variation (measured). */
    double interarrival_cv = 0.0;
    /** True when the ON/OFF structure was used (cv clearly > 1). */
    bool bursty = false;
    /** Arrival rate inside bursts, requests/second. */
    double burst_rate = 0.0;
    /** Mean ON (burst) duration in ticks. */
    Tick mean_on = 0;
    /** Mean OFF (gap) duration in ticks. */
    Tick mean_off = 0;

    // Mix.
    /** Long-run read fraction. */
    double read_fraction = 0.0;
    /** Direction-run persistence in [0, 0.95]. */
    double persistence = 0.0;

    // Sizes.
    /** Median request size in blocks. */
    BlockCount size_median = 8;
    /** Log-space spread of sizes (0 = fixed size). */
    double size_sigma = 0.0;
    /** Largest observed size in blocks. */
    BlockCount size_max = 8;

    // Spatial.
    /** Measured sequential fraction, reused as run-continue prob. */
    double sequential_fraction = 0.0;

    /**
     * Build a Workload that regenerates traffic with these
     * parameters.
     */
    Workload build() const;

    /** One-line human-readable description. */
    std::string describe() const;
};

/**
 * Streaming model extraction.
 *
 * Accumulates every per-request estimate (rate, mix, sequentiality,
 * direction changes, size body, interarrival gaps) in one trip over
 * the stream.  The seed extractor materialized tr.interarrivals()
 * twice (once for the CV, once inside the ON/OFF fit); the
 * accumulator records the gap vector exactly once per pass and
 * derives both from it.  The gap and log-size vectors are the two
 * deliberate O(n) auxiliaries — the ON/OFF segmentation and the
 * size body both need order statistics (medians) that have no
 * bounded-memory exact form; everything else is O(1) state.
 */
class ModelAccumulator : public core::TraceAccumulator
{
  public:
    /** @param capacity Device capacity in blocks (> 0). */
    explicit ModelAccumulator(Lba capacity);

    const char *name() const override { return "model"; }

    void begin(const trace::MsStreamHeader &meta) override;
    void observe(const trace::RequestBatch &batch) override;
    void finish() override;

    /** The fitted model (valid after finish()). */
    const ExtractedModel &model() const { return m_; }

  private:
    ExtractedModel m_;
    Tick duration_ = 0;
    std::size_t n_ = 0;
    std::size_t reads_ = 0;
    std::size_t seq_ = 0;
    std::size_t changes_ = 0;
    std::vector<double> gaps_;
    std::vector<double> log_sizes_;
    BlockCount max_blocks_ = 1;
    Tick prev_arrival_ = 0;
    Lba prev_end_ = 0;
    bool prev_read_ = false;
    bool have_prev_ = false;
};

/**
 * Extract a model from a trace.
 *
 * @param tr       Source trace (>= 100 requests for stable
 *                 estimates; fewer is fatal).
 * @param capacity Device capacity in blocks (>= every lbaEnd()).
 * @return The fitted model.
 */
ExtractedModel extractModel(const trace::MsTrace &tr, Lba capacity);

} // namespace synth
} // namespace dlw

#endif // DLW_SYNTH_EXTRACT_HH
