/**
 * @file
 * Snapshot assembly and the three export formats.
 *
 * A Snapshot is one consistent read of the whole observability
 * layer: every registered metric (sorted by name) plus the
 * aggregated span tree.  Exporters are pure functions of the
 * snapshot, so golden tests can render hand-built snapshots:
 *
 *   renderText  aligned human-readable listing (the `run-report`
 *               block and `--metrics=text`)
 *   renderJson  one line of machine-readable JSON (`--metrics=json`,
 *               BENCH_*.json)
 *   renderProm  Prometheus text exposition format, metrics only
 *               (`--metrics=prom`; spans have no Prometheus
 *               equivalent and are omitted)
 *
 * BenchReportGuard gives every bench binary a self-recording perf
 * trajectory: it arms the registry for main()'s lifetime and writes
 * BENCH_<name>.json — wall time plus the full snapshot — on exit.
 */

#ifndef DLW_OBS_EXPORT_HH
#define DLW_OBS_EXPORT_HH

#include <chrono>
#include <string>

#include "common/status.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"

namespace dlw
{
namespace obs
{

/**
 * One consistent read of metrics and spans.
 */
struct Snapshot
{
    std::vector<MetricSnapshot> metrics; ///< ascending by name
    SpanStats spans;                     ///< synthetic root
};

/** Snapshot the registry and the span tree. */
Snapshot takeSnapshot();

/** Export format selector for --metrics. */
enum class ExportFormat
{
    kText,
    kJson,
    kProm,
};

/** Parse "text" / "json" / "prom"; InvalidArgument otherwise. */
StatusOr<ExportFormat> parseExportFormat(const std::string &name);

/**
 * The exporters' compact number: 12 significant digits, and 0 for
 * inf or nan, which JSON cannot carry.
 */
std::string formatNumber(double v);

/** Aligned human-readable metrics + span tree. */
std::string renderText(const Snapshot &snap);

/** Single-line JSON object ({"metrics":{...},"spans":{...}}). */
std::string renderJson(const Snapshot &snap);

/** Prometheus text exposition (metrics only, `dlw_` prefix). */
std::string renderProm(const Snapshot &snap);

/** Render in the chosen format. */
std::string render(const Snapshot &snap, ExportFormat format);

/**
 * RAII perf-trajectory recorder for bench binaries.
 *
 * Construct first thing in main(); on destruction writes
 * BENCH_<name>.json into $DLW_BENCH_DIR (default: the working
 * directory) with the run's wall time and the full snapshot.
 */
class BenchReportGuard
{
  public:
    explicit BenchReportGuard(std::string name);
    ~BenchReportGuard();

    BenchReportGuard(const BenchReportGuard &) = delete;
    BenchReportGuard &operator=(const BenchReportGuard &) = delete;

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace dlw

#endif // DLW_OBS_EXPORT_HH
