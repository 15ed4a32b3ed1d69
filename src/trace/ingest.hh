/**
 * @file
 * Corrupt-record policy and per-file ingestion statistics.
 *
 * At fleet scale (thousands of drives, three trace granularities)
 * truncated files and mangled records are routine, so every trace
 * reader takes an IngestOptions choosing what a corrupt record does:
 *
 *   kAbort          stop and return the error (the strict default —
 *                   matches the seed readers' behaviour, minus the
 *                   process exit)
 *   kSkipAndCount   drop the record, count it, keep reading
 *   kBestEffortClamp salvage the record when a well-defined repair
 *                   exists (zero-length request -> 1 block, lowercase
 *                   op code, out-of-range counter pinned to its
 *                   domain); otherwise skip and count
 *
 * Whatever the policy, the reader fills an IngestStats so reports can
 * show exactly what was read, skipped, clamped, and recovered.
 * Header-level corruption (bad magic, missing format line) is never
 * recoverable: there is nothing to resynchronize on.
 */

#ifndef DLW_TRACE_INGEST_HH
#define DLW_TRACE_INGEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "obs/span.hh"

namespace dlw
{
namespace trace
{

/** What a reader does with a corrupt record. */
enum class RecordPolicy
{
    kAbort,
    kSkipAndCount,
    kBestEffortClamp,
};

/** Parse "abort" / "skip" / "clamp". */
StatusOr<RecordPolicy> parseRecordPolicy(const std::string &name);

/**
 * What one ingestion pass read, dropped, and repaired.
 */
struct IngestStats
{
    /** Records accepted into the trace. */
    std::uint64_t records_read = 0;
    /** Corrupt records dropped under skip/clamp policies. */
    std::uint64_t records_skipped = 0;
    /** Records salvaged by clamping a field into its domain. */
    std::uint64_t records_clamped = 0;
    /** Corrupt events observed (skipped + clamped + aborting one). */
    std::uint64_t errors = 0;
    /** Input bytes of all accepted records. */
    std::uint64_t bytes_read = 0;
    /**
     * Input bytes of records accepted after the first corrupt event —
     * data the kAbort policy would have thrown away.
     */
    std::uint64_t bytes_recovered = 0;
    /** First few error messages, for reports. */
    std::vector<std::string> error_samples;

    /** True when any corruption was observed. */
    bool dirty() const { return errors != 0; }

    /** Record one corrupt event (caps stored samples). */
    void noteError(std::string msg, std::size_t max_samples);

    /** One-line summary ("read 961, skipped 4, clamped 2, ..."). */
    std::string summary() const;
};

/**
 * Reader configuration.
 */
struct IngestOptions
{
    RecordPolicy policy = RecordPolicy::kAbort;
    /** Cap on IngestStats::error_samples. */
    std::size_t max_error_samples = 4;
};

/**
 * RAII observability hook shared by every trace reader: times the
 * whole pass as an "ingest.parse" span and, on destruction, adds the
 * enclosed IngestStats to the process-wide ingest.* counters (see
 * docs/METRICS.md).  Costs one relaxed atomic load when metrics are
 * disarmed, like everything in src/obs.
 */
class IngestMetricsScope
{
  public:
    /** @param st The pass's stats; must outlive this scope. */
    explicit IngestMetricsScope(const IngestStats &st);
    ~IngestMetricsScope();

    IngestMetricsScope(const IngestMetricsScope &) = delete;
    IngestMetricsScope &operator=(const IngestMetricsScope &) = delete;

  private:
    const IngestStats &st_;
    obs::ScopedSpan span_;
};

/**
 * Force-register every ingest.* metric so snapshots cover the
 * ingestion schema even before a reader runs (dlwtool --metrics
 * calls this up front).
 */
void registerIngestMetrics();

} // namespace trace
} // namespace dlw

#endif // DLW_TRACE_INGEST_HH
