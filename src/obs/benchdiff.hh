/**
 * @file
 * Bench-regression gate: parse BENCH_*.json perf trajectories and
 * diff two of them against configurable thresholds.
 *
 * Every bench binary leaves a BENCH_<name>.json behind
 * (obs::BenchReportGuard): wall time plus a full metrics snapshot.
 * Until now nothing consumed that trajectory.  `dlwtool bench-diff
 * old.json new.json` closes the loop: it compares wall time, every
 * counter/gauge value, and every histogram's count and p95, flags
 * changes beyond the thresholds, and exits nonzero so CI can turn a
 * silent slowdown into an annotation.
 *
 * What counts as a regression:
 *  - wall time up by more than `wall_pct`
 *  - a histogram p95 up by more than `p95_pct` (latency shift)
 *  - a counter/gauge/histogram-count drifting by more than
 *    `counter_pct` in either direction — volume metrics are
 *    deterministic per bench, so drift means the workload changed,
 *    which invalidates the wall-time comparison
 *
 * The one exception is a short named list of metrics that are not
 * deterministic by design: today only `fleet.pool.steals`, whose
 * value depends on thread scheduling and core count (fleet/pool.hh).
 * Such a metric is still compared and rendered, with the verdict
 * `ungated`, but never counts as a regression.
 *
 * The JSON parser underneath is a minimal zero-dependency recursive
 * descent over the subset BENCH files use (objects, arrays, strings,
 * numbers, bools, null) — exposed because the timeline tests reuse
 * it to validate exported traces.
 */

#ifndef DLW_OBS_BENCHDIFF_HH
#define DLW_OBS_BENCHDIFF_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "obs/metrics.hh"

namespace dlw
{
namespace obs
{

/**
 * One parsed JSON value (tree).
 */
struct JsonValue
{
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kObject,
        kArray,
    };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    /** Object members in source order. */
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse a complete JSON document (trailing junk is an error). */
StatusOr<JsonValue> parseJson(const std::string &text);

/** One metric's comparable numbers inside a bench report. */
struct BenchSample
{
    MetricType type = MetricType::kCounter;
    double value = 0.0;        ///< counter value or gauge level
    std::uint64_t count = 0;   ///< histogram observation count
    double p95 = 0.0;          ///< histogram p95
};

/** A parsed BENCH_<name>.json. */
struct BenchReport
{
    std::string bench;
    double wall_seconds = 0.0;
    std::map<std::string, BenchSample> metrics;
};

/** Parse BENCH json text into a report. */
StatusOr<BenchReport> parseBenchReport(const std::string &json_text);

/** Read and parse a BENCH json file. */
StatusOr<BenchReport> readBenchReport(const std::string &path);

/** Regression thresholds, in percent. */
struct BenchDiffThresholds
{
    double wall_pct = 10.0;    ///< wall-time growth budget
    double p95_pct = 15.0;     ///< histogram p95 growth budget
    double counter_pct = 5.0;  ///< volume drift budget (either way)
};

/** One compared quantity. */
struct BenchDiffEntry
{
    std::string key; ///< "wall_seconds", "<metric>", "<metric>.p95"
    double old_value = 0.0;
    double new_value = 0.0;
    /** Percent change relative to old (100 when old == 0, new != 0). */
    double delta_pct = 0.0;
    bool regressed = false;
    /** Compared but exempt from the gate: never regressed. */
    bool ungated = false;
};

/** The full comparison. */
struct BenchDiffResult
{
    std::vector<BenchDiffEntry> entries; ///< ascending by key
    std::vector<std::string> only_old;   ///< metrics that disappeared
    std::vector<std::string> only_new;   ///< metrics that appeared
    bool regressed = false;              ///< any entry regressed
};

/** Compare two reports under the thresholds. */
BenchDiffResult diffBenchReports(const BenchReport &older,
                                 const BenchReport &newer,
                                 const BenchDiffThresholds &thresholds);

/** Human-readable diff table (changed quantities plus wall time). */
std::string renderBenchDiff(const BenchReport &older,
                            const BenchReport &newer,
                            const BenchDiffResult &diff);

} // namespace obs
} // namespace dlw

#endif // DLW_OBS_BENCHDIFF_HH
