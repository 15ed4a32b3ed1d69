/**
 * @file
 * dlwtool — command-line front end for the dlw toolkit.
 *
 * Subcommands live in one table, kCommands: each row is a name, a
 * handler and the usage text, whose --flags are the flags the command
 * accepts.  `dlwtool --help` prints them all.  The handlers live in
 * cmd_batch.cc and cmd_daemon.cc (declared in commands.hh).
 *
 * Formats are chosen by file extension: .csv, .bin, .spc.
 *
 * Fault tolerance: --on-corrupt picks the corrupt-record policy for
 * every reader (abort|skip|clamp), and the global --fault option arms
 * named failure points ("trace.open:once;fleet.shard:mod=8") before
 * the command runs.  This is the CLI boundary of the Status error
 * model: library failures arrive here as StatusError and leave as an
 * exit code.
 *
 * Observability: the global --metrics text|json|prom option enables
 * the obs registry for the duration of the command and emits a
 * snapshot afterwards — to stderr by default, or to --metrics-out
 * FILE — so stdout (and its byte-identity contracts) is never
 * perturbed.  See docs/METRICS.md for the metric reference.
 *
 * Tracing: the global --trace-out FILE option arms the timeline
 * flight recorder (obs/timeline.hh) plus the counter sampler for the
 * duration of the command and writes a Chrome trace_event JSON file
 * afterwards — loadable in Perfetto or chrome://tracing.  A crash
 * handler dumps the last-N events to the same file on a fatal
 * signal.  Like --metrics, only stderr and the output file are
 * touched; stdout stays byte-identical.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "commands.hh"
#include "common/fault.hh"
#include "common/options.hh"
#include "common/status.hh"
#include "core/characterize.hh"
#include "core/pass.hh"
#include "daemon/server.hh"
#include "fleet/pipeline.hh"
#include "obs/export.hh"
#include "obs/sampler.hh"
#include "obs/timeline.hh"
#include "obs/timeline_export.hh"
#include "trace/ingest.hh"
#include "trace/source.hh"

namespace dlw
{
namespace tool
{

/** Register every subsystem's metric schema with the obs registry. */
void
registerAllMetrics()
{
    trace::registerIngestMetrics();
    trace::registerBatchMetrics();
    fleet::registerFleetMetrics();
    core::registerCoreMetrics();
    core::registerPassMetrics();
    daemon::registerDaemonMetrics();
}

} // namespace tool
} // namespace dlw

namespace
{

using namespace dlw;
using namespace dlw::tool;

/**
 * One dlwtool command.  The flags it accepts are the --flags its usage
 * text names, so help and the unknown-flag check cannot disagree.
 */
struct Command
{
    const char *name;
    /** Null for bench-diff, whose positional inputs main() parses. */
    int (*run)(const dlw::Options &);
    const char *usage;
    /** Commands whose flags this one accepts as well. */
    std::vector<std::string> accepts_flags_of = {};
};

/** Every command, in help order. */
const std::vector<Command> kCommands = {
    {"analyze", cmdAnalyze,
     "  analyze     --in FILE [--drive enterprise|nearline]\n"
     "              [--cache on|off] [--on-corrupt abort|skip|clamp]\n"
     "              [--batch N]\n"},
    {"bench-diff", nullptr,
     "  bench-diff  OLD.json NEW.json    (BENCH_* perf snapshots)\n"
     "              [--max-wall-pct P] [--max-p95-pct P]\n"
     "              [--max-counter-pct P]    exit 2 on regression\n"},
    {"characterize", cmdCharacterize,
     "  characterize --in FILE    trace-derived characterization\n"
     "              only (no drive model) — the batch twin of a\n"
     "              dlwd streaming session\n"
     "              [--on-corrupt abort|skip|clamp] [--batch N]\n"},
    {"convert", cmdConvert,
     "  convert     --in FILE --out FILE      (.csv/.bin/.spc)\n"
     "              [--on-corrupt abort|skip|clamp]\n"},
    {"corrupt", cmdCorrupt,
     "  corrupt     --in FILE --out FILE\n"
     "              --mode truncate|bitflip|garbage|dup|reorder\n"
     "              --seed S --count N --offset B\n"},
    {"family", cmdFamily,
     "  family      --drives N --min-hours A --max-hours B\n"
     "              --seed S --name NAME --out FILE\n"},
    {"fleet", cmdFleet,
     "  fleet       --drives N --threads T\n"
     "              --preset oltp|fileserver|streaming|backup|mixed\n"
     "              --rate R --minutes M --seed S --retries K\n"
     "              [--drive enterprise|nearline] [--batch N]\n"},
    {"generate", cmdGenerate,
     "  generate    --class oltp|fileserver|streaming|backup\n"
     "              --rate R --minutes M --seed S --out FILE\n"},
    {"run-report", cmdRunReport,
     "  run-report  analyze (--in FILE) or fleet (no --in) plus the\n"
     "              observability report: accepts the union of the\n"
     "              analyze and fleet options\n",
     {"analyze", "fleet"}},
    {"serve", cmdServe,
     "  serve       run dlwd: stream traces in, characterize\n"
     "              live, query reports over HTTP\n"
     "              [--port P] [--port-file F] [--max-conns N]\n"
     "              [--max-buffer-kb K] [--threads T]\n"
     "              [--drain-grace-ms MS]\n"
     "              [--first-byte-timeout-ms MS]\n"
     "              [--header-timeout-ms MS]\n"
     "              [--idle-timeout-ms MS]\n"
     "              [--write-stall-timeout-ms MS]\n"
     "              (0 disables a deadline)\n"
     "              [--state-dir DIR] [--ckpt-ms MS]\n"
     "              crash-safe session checkpoints\n"
     "              [--qos on|off] per-tenant/class ratekeeper\n"
     "              [--qos-target-qd N] [--qos-target-p95-us US]\n"
     "              [--qos-min-rate R] [--qos-max-rate R]\n"
     "              ratekeeper tuning\n"},
    {"stream", cmdStream,
     "  stream      --in FILE    stream a .csv/.bin trace to a\n"
     "              running dlwd and print the final report\n"
     "              [--host H] [--port P] [--tenant NAME]\n"
     "              [--class interactive|bulk|background]\n"
     "              [--connect-timeout-ms MS] [--retries K]\n"
     "              [--retry-seed S]    exit 3 when the server\n"
     "              closes the connection mid-session\n"
     "              [--trace-id ID]    tag the session for\n"
     "              end-to-end tracing; with --trace-out the\n"
     "              server's spans are fetched and merged into\n"
     "              the trace file (an id is self-assigned when\n"
     "              only --trace-out is given)\n"},
    {"top", cmdTop,
     "  top         live daemon dashboard: poll GET /v1/stats\n"
     "              and redraw each interval\n"
     "              [--host H] [--port P] [--interval-ms MS]\n"
     "              [--iterations N]    N=1 prints one frame\n"
     "              and exits (script mode); 0 runs until ^C\n"},
};

/** The command called `name`, or null. */
const Command *
findCommand(const std::string &name)
{
    auto it = std::find_if(kCommands.begin(), kCommands.end(),
                           [&](const Command &c) { return name == c.name; });
    return it == kCommands.end() ? nullptr : &*it;
}

const char *kGlobalUsage =
    "\n"
    "global options (any command):\n"
    "  --fault SPEC      arm failure points before the command runs,\n"
    "                    e.g. \"trace.open:once\" or\n"
    "                    \"fleet.shard:mod=8;trace.read.record:nth=100\"\n"
    "                    (modes: nth=N, mod=N, p=P[,seed=S], once)\n"
    "  --metrics FMT     emit an observability snapshot after the\n"
    "                    command (text|json|prom); goes to stderr so\n"
    "                    stdout reports stay byte-identical\n"
    "  --metrics-out F   write the snapshot to file F instead of\n"
    "                    stderr (implies --metrics, default text)\n"
    "  --max-rss-mb N    after the command, fail (exit 1) when the\n"
    "                    process's peak RSS exceeded N MiB; the\n"
    "                    bounded-memory guard CI runs on the\n"
    "                    streaming pipeline\n"
    "  --trace-out F     record a timeline of the command (spans,\n"
    "                    instants, counter tracks) and write Chrome\n"
    "                    trace_event JSON to F — open it in Perfetto\n"
    "                    (ui.perfetto.dev) or chrome://tracing; a\n"
    "                    fatal signal dumps the flight recorder to\n"
    "                    the same file\n"
    "\n"
    "see docs/METRICS.md for every metric the snapshot can contain\n";

void
usage(std::ostream &os)
{
    os << "dlwtool <command> [--option value ...]\n"
          "\n"
          "commands:\n";
    for (const Command &c : kCommands)
        os << c.usage;
    os << kGlobalUsage;
}

/** Print one command's usage (full usage for an unknown command). */
void
usageFor(std::ostream &os, const std::string &cmd)
{
    const Command *c = findCommand(cmd);
    if (c == nullptr) {
        usage(os);
        return;
    }
    os << "usage:\n" << c->usage << kGlobalUsage;
}

/** The --flags a usage text names. */
std::set<std::string>
flagsIn(const std::string &text)
{
    std::set<std::string> out;
    for (std::size_t at = text.find("--"); at != std::string::npos;
         at = text.find("--", at + 2)) {
        const std::size_t end = text.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyz0123456789-", at + 2);
        out.insert(text.substr(at + 2, end - (at + 2)));
    }
    return out;
}

/**
 * Reject flags the command does not accept, pointing at the relevant
 * usage instead of silently ignoring the typo.
 */
bool
validateFlags(const Command &cmd, const dlw::Options &opts)
{
    std::set<std::string> allowed =
        flagsIn(std::string(cmd.usage) + kGlobalUsage);
    for (const std::string &other : cmd.accepts_flags_of)
        allowed.merge(flagsIn(findCommand(other)->usage));
    bool ok = true;
    for (const std::string &key : opts.keys()) {
        if (allowed.count(key))
            continue;
        std::cerr << "dlwtool " << cmd.name << ": unknown option --"
                  << key << '\n';
        ok = false;
    }
    if (!ok)
        usageFor(std::cerr, cmd.name);
    return ok;
}

/**
 * The --metrics / --metrics-out surface: arms the registry before the
 * command and emits one snapshot afterwards (also after a failed
 * command — observability of failures is half the point).
 */
class MetricsEmitter
{
  public:
    void
    setup(const dlw::Options &opts)
    {
        if (!opts.has("metrics") && !opts.has("metrics-out"))
            return;
        format_ = obs::parseExportFormat(opts.get("metrics", "text"))
                      .valueOrThrow();
        out_path_ = opts.get("metrics-out", "");
        registerAllMetrics();
        obs::enable();
        armed_ = true;
    }

    void
    emit()
    {
        if (!armed_)
            return;
        armed_ = false;
        std::string text = obs::render(obs::takeSnapshot(), format_);
        if (!text.empty() && text.back() != '\n')
            text += '\n';
        if (out_path_.empty()) {
            std::cerr << text;
            return;
        }
        std::ofstream os(out_path_);
        if (!os) {
            std::cerr << "dlwtool: cannot write metrics to '"
                      << out_path_ << "'\n";
            return;
        }
        os << text;
    }

  private:
    bool armed_ = false;
    obs::ExportFormat format_ = obs::ExportFormat::kText;
    std::string out_path_;
};

/**
 * The --trace-out surface: arms the timeline recorder, the crash
 * dump, and the counter sampler before the command, then writes the
 * Chrome trace afterwards (also after a failed command — the
 * flight-recorder view of a failure is the interesting one).  The
 * sampler holds its own obs sink so gauge tracks move even without
 * --metrics; that sink never writes stdout, so the byte-identity
 * contracts hold.
 */
class TimelineEmitter
{
  public:
    void
    setup(const dlw::Options &opts)
    {
        if (!opts.has("trace-out"))
            return;
        out_path_ = opts.get("trace-out", "trace.json");
        registerAllMetrics();
        obs::enableTimeline();
        obs::installTimelineCrashHandler(out_path_);
        sampler_.start();
        armed_ = true;
    }

    void
    emit()
    {
        if (!armed_)
            return;
        armed_ = false;
        sampler_.stop();
        obs::disarmTimelineCrashHandler();
        obs::TimelineSnapshot snap = obs::timelineSnapshot();
        obs::disableTimeline();
        // A stream session may have fetched the server's timeline:
        // its events join the same traceEvents array, so one Perfetto
        // file shows both processes.
        const Status s =
            obs::writeChromeTrace(out_path_, snap, g_server_trace_fragment);
        if (!s.ok()) {
            std::cerr << "dlwtool: cannot write trace: "
                      << s.toString() << '\n';
            return;
        }
        std::cerr << "trace: " << snap.events.size()
                  << " event(s) from " << snap.threads
                  << " thread(s)";
        if (snap.dropped != 0)
            std::cerr << ", " << snap.dropped
                      << " dropped to ring wraparound";
        std::cerr << " -> " << out_path_ << '\n';
    }

  private:
    bool armed_ = false;
    std::string out_path_;
    obs::CounterSampler sampler_;
};

/**
 * The --max-rss-mb guard: compares the process's peak resident set
 * against the budget and turns an overrun into a nonzero exit.  The
 * verdict goes to stderr so the stdout byte-identity contracts hold
 * with or without the flag.
 */
int
checkRssBudget(const dlw::Options &opts, int rc)
{
    if (!opts.has("max-rss-mb"))
        return rc;
    const std::int64_t budget = opts.getInt("max-rss-mb", 0);
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const std::int64_t peak_kib = ru.ru_maxrss; // KiB on Linux
    char peak_mib[32];
    std::snprintf(peak_mib, sizeof peak_mib, "%.1f",
                  static_cast<double>(peak_kib) / 1024.0);
    std::cerr << "rss: peak " << peak_mib << " MiB, budget " << budget
              << " MiB\n";
    // Whole KiB against whole KiB: a peak a fraction of a MiB over
    // the budget fails it.  A budget too large for KiB never does.
    std::int64_t budget_kib = 0;
    const bool over = __builtin_mul_overflow(budget, 1024, &budget_kib)
                          ? budget < 0
                          : peak_kib > budget_kib;
    if (over) {
        std::cerr << "rss: budget exceeded\n";
        return rc == 0 ? 1 : rc;
    }
    return rc;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Usage errors exit 2, uniformly: no arguments, an unknown
    // command, an unknown flag, missing positionals.  Exit 1 is
    // reserved for a correct invocation that failed.
    if (argc < 2) {
        usage(std::cerr);
        return 2;
    }
    const std::string cmd = argv[1];
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
        if (argc > 2)
            usageFor(std::cout, argv[2]);
        else
            usage(std::cout);
        return 0;
    }
    const Command *command = findCommand(cmd);
    if (command == nullptr) {
        std::cerr << "dlwtool: unknown command '" << cmd << "'\n";
        usage(std::cerr);
        return 2;
    }

    // bench-diff takes its two inputs positionally (old first, like
    // diff itself); everything else is pure --key value.
    const bool diff = command->run == nullptr;
    if (diff && (argc < 4 || argv[2][0] == '-' || argv[3][0] == '-')) {
        std::cerr << "dlwtool bench-diff: need OLD.json NEW.json\n";
        usageFor(std::cerr, cmd);
        return 2;
    }
    const int first = diff ? 4 : 2;
    const std::string shape = dlw::Options::shapeError(argc, argv, first);
    if (!shape.empty()) {
        std::cerr << "dlwtool " << cmd << ": " << shape << '\n';
        usageFor(std::cerr, cmd);
        return 2;
    }
    dlw::Options opts(argc, argv, first);
    if (!validateFlags(*command, opts))
        return 2;

    MetricsEmitter metrics;
    TimelineEmitter timeline;
    try {
        if (diff)
            return cmdBenchDiff(argv[2], argv[3], opts);
        if (opts.has("fault")) {
            Status s = fault::armFromSpec(opts.get("fault", ""));
            if (!s.ok())
                throw StatusError(s);
        }
        metrics.setup(opts);
        timeline.setup(opts);
        const int rc = command->run(opts);
        timeline.emit();
        metrics.emit();
        return checkRssBudget(opts, rc);
    } catch (const StatusError &e) {
        // The CLI boundary of the Status model: render the error,
        // exit nonzero, and leave core dumps to real crashes.
        std::cerr << "dlwtool: " << e.status().toString() << '\n';
        timeline.emit();
        metrics.emit();
        return 1;
    }
}
