/**
 * @file
 * dlwtool's batch commands: generate, convert, corrupt, analyze,
 * characterize, family, fleet, run-report and bench-diff.  Each reads
 * files or synthesizes a workload and prints its report on stdout.
 */

#include <chrono>
#include <iostream>
#include <string>

#include "commands.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/strutil.hh"
#include "core/characterize.hh"
#include "core/pass.hh"
#include "disk/drive.hh"
#include "fleet/pipeline.hh"
#include "fleet/pool.hh"
#include "obs/benchdiff.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "synth/family.hh"
#include "trace/binio.hh"
#include "trace/corrupt.hh"
#include "trace/csvio.hh"
#include "trace/ingest.hh"
#include "trace/source.hh"
#include "trace/spc.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace tool
{

namespace
{

/** The --on-corrupt policy shared by every reader. */
trace::IngestOptions
ingestOptions(const Options &opts)
{
    trace::IngestOptions io;
    io.policy = trace::parseRecordPolicy(
                    opts.get("on-corrupt", "abort")).valueOrThrow();
    return io;
}

trace::MsTrace
readAny(const std::string &path, const trace::IngestOptions &io,
        trace::IngestStats *stats)
{
    if (endsWith(path, ".bin"))
        return trace::readMsBinary(path, io, stats).valueOrThrow();
    if (endsWith(path, ".csv"))
        return trace::readMsCsv(path, io, stats).valueOrThrow();
    if (endsWith(path, ".spc"))
        return trace::readSpc(path, path, io, stats).valueOrThrow();
    dlw_fatal("unknown trace extension on '", path,
              "' (want .csv, .bin, or .spc)");
}

void
writeAny(const std::string &path, const trace::MsTrace &tr)
{
    if (endsWith(path, ".bin")) {
        trace::writeMsBinary(path, tr);
        return;
    }
    if (endsWith(path, ".csv")) {
        trace::writeMsCsv(path, tr);
        return;
    }
    dlw_fatal("unknown output extension on '", path,
              "' (want .csv or .bin)");
}

/** The --batch option (streaming chunk capacity, 1 .. 2^20). */
std::size_t
batchOption(const Options &opts)
{
    const auto n = opts.getInt(
        "batch",
        static_cast<std::int64_t>(trace::kDefaultBatchRequests));
    if (n < 1)
        dlw_fatal("--batch must be >= 1");
    if (static_cast<std::uint64_t>(n) > trace::kMaxBatchRequests)
        dlw_fatal("--batch must be <= ", trace::kMaxBatchRequests);
    return static_cast<std::size_t>(n);
}

} // anonymous namespace

int
cmdGenerate(const Options &opts)
{
    const std::string out = opts.get("out", "trace.csv");
    const std::string klass = opts.get("class", "oltp");
    const double rate = opts.getDouble("rate", 60.0);
    const double minutes = opts.getDouble("minutes", 10.0);
    const auto seed =
        static_cast<std::uint64_t>(opts.getInt("seed", 1));

    StatusOr<fleet::FleetPreset> preset = fleet::parseFleetPreset(klass);
    if (!preset.ok() || preset.value() == fleet::FleetPreset::Mixed)
        dlw_fatal("unknown workload class '", klass,
                  "' (oltp|fileserver|streaming|backup)");
    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    synth::Workload w = fleet::makeWorkload(
        preset.value(), cfg.geometry.capacityBlocks(), rate, seed);
    Rng rng(seed);
    trace::MsTrace tr = w.generate(
        rng, klass + "-" + std::to_string(seed), 0,
        static_cast<Tick>(minutes * static_cast<double>(kMinute)));
    writeAny(out, tr);
    std::cout << "wrote " << tr.size() << " requests to " << out
              << '\n';
    return 0;
}

int
cmdConvert(const Options &opts)
{
    const std::string in = opts.get("in", "");
    const std::string out = opts.get("out", "");
    if (in.empty() || out.empty())
        dlw_fatal("convert needs --in and --out");
    trace::IngestStats stats;
    trace::MsTrace tr = readAny(in, ingestOptions(opts), &stats);
    if (stats.dirty())
        std::cerr << "ingest: " << stats.summary() << '\n';
    writeAny(out, tr);
    std::cout << "converted " << tr.size() << " requests: " << in
              << " -> " << out << '\n';
    return 0;
}

int
cmdAnalyze(const Options &opts)
{
    const std::string in = opts.get("in", "");
    if (in.empty())
        dlw_fatal("analyze needs --in");
    const trace::IngestOptions io = ingestOptions(opts);
    const std::size_t batch = batchOption(opts);

    disk::DriveConfig cfg = opts.get("drive", "enterprise") ==
                                    "nearline"
        ? disk::DriveConfig::makeNearline()
        : disk::DriveConfig::makeEnterprise();
    if (opts.get("cache", "on") == "off")
        cfg.cache.enabled = false;
    disk::DiskDrive drive(cfg);

    // One O(batch)-memory trip over a .csv/.bin file: the drive pulls
    // it through the order check and the trace-derived fold.  Only
    // .spc input and a file that fails the order check (unsorted, out
    // of window, zero-size) are read whole, sorted and validated, then
    // take the same trip; the output does not depend on which.
    if (endsWith(in, ".csv") || endsWith(in, ".bin")) {
        auto src = trace::openMsSource(in, io).valueOrThrow();
        StatusOr<core::DriveCharacterization> c =
            core::serviceAndCharacterize(drive, *src, batch);
        if (c.status().code() != StatusCode::kInvalidArgument) {
            const core::DriveCharacterization r =
                std::move(c).valueOrThrow();
            if (src->stats().dirty())
                std::cout << "ingestion: " << src->stats().summary()
                          << "\n\n";
            std::cout << r.render();
            return 0;
        }
    }

    trace::IngestStats stats;
    trace::MsTrace tr = readAny(in, io, &stats);
    if (stats.dirty())
        std::cout << "ingestion: " << stats.summary() << "\n\n";
    tr.sortByArrival();
    tr.validate(true);
    trace::MsTraceSource src(tr);
    std::cout << core::serviceAndCharacterize(drive, src, batch)
                     .valueOrThrow()
                     .render();
    return 0;
}

int
cmdFleet(const Options &opts)
{
    fleet::FleetConfig cfg;
    cfg.drives = static_cast<std::size_t>(opts.getInt("drives", 64));
    cfg.threads = static_cast<std::size_t>(opts.getInt(
        "threads",
        static_cast<std::int64_t>(
            fleet::ThreadPool::hardwareThreads())));
    cfg.preset = fleet::parseFleetPreset(
                     opts.get("preset", "mixed")).valueOrThrow();
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 20090614));
    cfg.rate = opts.getDouble("rate", 60.0);
    cfg.window = static_cast<Tick>(opts.getDouble("minutes", 2.0) *
                                   static_cast<double>(kMinute));
    cfg.nearline = opts.get("drive", "enterprise") == "nearline";
    cfg.max_attempts =
        static_cast<std::size_t>(opts.getInt("retries", 3));
    cfg.batch_requests = batchOption(opts);

    const auto t0 = std::chrono::steady_clock::now();
    fleet::FleetResult result = fleet::runFleet(cfg);
    const auto t1 = std::chrono::steady_clock::now();

    // Report on stdout is byte-identical at any --threads; timing
    // goes to stderr so it never perturbs that contract.
    std::cout << fleet::renderFleetReport(cfg, result);
    std::cerr << "fleet: " << cfg.drives << " drives on "
              << cfg.threads << " threads in "
              << std::chrono::duration<double>(t1 - t0).count()
              << " s\n";
    if (!result.failures.empty() || result.retries != 0) {
        std::cerr << "fleet: " << result.failures.size()
                  << " drive(s) failed, " << result.retries
                  << " retry attempt(s)\n";
    }
    return 0;
}

int
cmdCorrupt(const Options &opts)
{
    const std::string in = opts.get("in", "");
    const std::string out = opts.get("out", "");
    if (in.empty() || out.empty())
        dlw_fatal("corrupt needs --in and --out");

    trace::CorruptSpec spec;
    spec.mode = trace::parseCorruptMode(
                    opts.get("mode", "bitflip")).valueOrThrow();
    spec.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    spec.count = static_cast<std::size_t>(opts.getInt("count", 1));
    spec.offset = static_cast<std::size_t>(opts.getInt("offset", 0));

    Status s = trace::corruptFile(in, out, spec);
    if (!s.ok())
        throw StatusError(s);
    std::cout << "corrupted " << in << " -> " << out << " (mode "
              << trace::corruptModeName(spec.mode) << ", seed "
              << spec.seed << ", count " << spec.count << ")\n";
    return 0;
}

int
cmdFamily(const Options &opts)
{
    const std::string out = opts.get("out", "family.csv");
    const auto drives =
        static_cast<std::size_t>(opts.getInt("drives", 128));
    const auto min_h =
        static_cast<std::size_t>(opts.getInt("min-hours", 4380));
    const auto max_h =
        static_cast<std::size_t>(opts.getInt("max-hours", 43800));
    synth::FamilyConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 42));
    cfg.family = opts.get("name", "DLW-E15K");

    synth::FamilyModel model(cfg);
    trace::LifetimeTrace lt =
        model.generateLifetimeTrace(drives, min_h, max_h);
    trace::writeLifetimeCsv(out, lt);
    std::cout << "wrote " << lt.size() << " lifetime records to "
              << out << '\n';
    return 0;
}

/**
 * characterize: the trace-derived characterization only (burstiness,
 * arrival dynamics, read/write mix) — no drive model, no service
 * pass, so it works one-shot over a stream.  This is the batch twin
 * of a dlwd session: the daemon's final report for a streamed trace
 * is byte-identical to `dlwtool characterize` over the same file.
 */
int
cmdCharacterize(const Options &opts)
{
    const std::string in = opts.get("in", "");
    if (in.empty())
        dlw_fatal("characterize needs --in");
    auto src = trace::openMsSource(in, ingestOptions(opts)).valueOrThrow();
    std::cout << core::characterizeTrace(*src, batchOption(opts))
                     .valueOrThrow()
                     .render();
    return 0;
}

/**
 * bench-diff: the regression gate over two BenchReportGuard
 * snapshots.  Exit 0 when clean, 2 when any tracked quantity moved
 * beyond its threshold — distinct from 1 (usage/IO errors) so CI can
 * tell "slower" from "broken".
 */
int
cmdBenchDiff(const std::string &old_path, const std::string &new_path,
             const Options &opts)
{
    obs::BenchDiffThresholds th;
    th.wall_pct = opts.getDouble("max-wall-pct", th.wall_pct);
    th.p95_pct = opts.getDouble("max-p95-pct", th.p95_pct);
    th.counter_pct =
        opts.getDouble("max-counter-pct", th.counter_pct);

    obs::BenchReport older =
        obs::readBenchReport(old_path).valueOrThrow();
    obs::BenchReport newer =
        obs::readBenchReport(new_path).valueOrThrow();
    obs::BenchDiffResult diff =
        obs::diffBenchReports(older, newer, th);
    std::cout << obs::renderBenchDiff(older, newer, diff);
    return diff.regressed ? 2 : 0;
}

int
cmdRunReport(const Options &opts)
{
    // run-report always observes itself, --metrics or not: register
    // every schema so the report shows untouched metrics at zero.
    registerAllMetrics();
    obs::enable();

    const int rc = opts.has("in") ? cmdAnalyze(opts) : cmdFleet(opts);
    if (rc != 0)
        return rc;
    std::cout << '\n' << obs::renderText(obs::takeSnapshot());
    return 0;
}

} // namespace tool
} // namespace dlw
