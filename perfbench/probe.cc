/**
 * @file
 * Per-layer probe of the dlw benchmark.
 *
 * Runs one benchmark workload in-process, split into calls of each
 * module's public functions, with spans recorded around each call,
 * so the per-layer cost of each module can be read off without
 * touching the program:
 *
 *   dlw_probe fleet   --drives N --threads T --rate R --minutes M
 *                     --seed S --report-out F --spans-out F
 *   dlw_probe analyze --csv F.csv --bin F.bin --report-out F
 *                     --spans-out F
 *   dlw_probe live    --payloads a.csv,b.bin,...   (each with a
 *                     reference report beside it in <payload>.ref)
 *
 * Tracing overhead compares runs that differ only by their spans:
 * fleet runs the program's runFleet with its own obs spans armed (as
 * `dlwtool fleet --trace-out` arms them) and disarmed; analyze runs
 * the same split path with the probe's spans on and off.  The runs
 * alternate, so the host's drift hits both sides alike.  Every
 * report must equal the others byte for byte; a mismatch exits 1.
 * The last stdout line is one JSON object of metrics.  Spans stay in
 * memory and are written out (Chrome trace_event JSON) when the mode
 * ends.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/options.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/strutil.hh"
#include "core/characterize.hh"
#include "core/live.hh"
#include "disk/drive.hh"
#include "fleet/merge.hh"
#include "fleet/pipeline.hh"
#include "fleet/pool.hh"
#include "net/buffer.hh"
#include "net/wire.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "synth/workload.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace
{

using namespace dlw;
using Clock = std::chrono::steady_clock;

/** Traced/untraced pairs a batch mode runs (medians are reported). */
constexpr int kPairs = 3;
/** Times the live mode runs each session payload. */
constexpr int kSessionRepeats = 5;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Small dense id per thread, for span lanes. */
int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

/** One recorded span: name, thread, interval and causing span. */
struct SpanRec
{
    const char *name = "";
    int tid = 0;
    int parent = -1;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
};

/**
 * In-memory span store shared by every thread.  Each thread keeps
 * its own stack of open spans, so a span's parent is the innermost
 * span open on the same thread when it began.
 */
class Tracer
{
  public:
    /** While false, spans record nothing and read no clock. */
    bool on = true;

    int
    begin(const char *name)
    {
        SpanRec r;
        r.name = name;
        r.tid = threadIndex();
        r.parent = stack().empty() ? -1 : stack().back();
        r.t0 = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(r);
        const int id = static_cast<int>(spans_.size() - 1);
        stack().push_back(id);
        return id;
    }

    std::uint64_t
    end(int id)
    {
        const std::uint64_t t1 = nowNs();
        stack().pop_back();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].t1 = t1;
        return t1 - spans_[static_cast<std::size_t>(id)].t0;
    }

    /** Forget every span (no span may be open). */
    void clear() { spans_.clear(); }

    /** Finished spans (call once every thread is done). */
    const std::vector<SpanRec> &spans() const { return spans_; }

    /** Self time of every span: duration minus its children's. */
    std::vector<std::uint64_t>
    selfTimes() const
    {
        std::vector<std::uint64_t> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].t1 - spans_[i].t0;
        for (const SpanRec &s : spans_) {
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
        }
        return self;
    }

    void
    writeChromeTrace(const std::string &path) const
    {
        if (path.empty())
            return;
        std::ofstream os(path);
        os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const SpanRec &s = spans_[i];
            os << (i ? "," : "") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
               << ",\"ts\":" << s.t0 / 1000.0
               << ",\"dur\":" << (s.t1 - s.t0) / 1000.0 << '}';
        }
        os << "]}\n";
    }

  private:
    static std::vector<int> &
    stack()
    {
        thread_local std::vector<int> s;
        return s;
    }

    std::mutex mu_;
    std::vector<SpanRec> spans_;
};

Tracer g_tracer;

/**
 * RAII span; close() ends it early and returns its duration (0 while
 * the tracer is off).
 */
class Span
{
  public:
    explicit Span(const char *name)
        : id_(g_tracer.on ? g_tracer.begin(name) : -1)
    {
    }
    ~Span() { close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t
    close()
    {
        if (!closed_ && id_ >= 0) {
            ns_ = g_tracer.end(id_);
            closed_ = true;
        }
        return ns_;
    }

  private:
    int id_;
    bool closed_ = false;
    std::uint64_t ns_ = 0;
};

/** Flat metric map printed as the probe's last stdout line. */
class Metrics
{
  public:
    void set(const std::string &k, double v) { m_[k] = v; }

    void
    print() const
    {
        std::ostringstream os;
        os << std::setprecision(10) << '{';
        bool first = true;
        for (const auto &[k, v] : m_) {
            os << (first ? "" : ", ") << '"' << k << "\": " << v;
            first = false;
        }
        os << "}\n";
        std::cout << os.str();
    }

  private:
    std::map<std::string, double> m_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Summed self time per span name (every thread). */
std::map<std::string, std::uint64_t>
selfByName()
{
    std::map<std::string, std::uint64_t> out;
    const auto self = g_tracer.selfTimes();
    for (std::size_t i = 0; i < self.size(); ++i)
        out[g_tracer.spans()[i].name] += self[i];
    return out;
}

bool
writeAndCompare(const std::string &path, const std::string &traced,
                const std::string &untraced, const char *what)
{
    if (!path.empty())
        std::ofstream(path, std::ios::binary) << traced;
    if (traced == untraced)
        return true;
    std::cerr << "dlw_probe: " << what
              << ": traced report differs from the untraced one\n";
    return false;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw StatusError(Status::ioError("cannot open '" + path + "'"));
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

// ---- fleet ------------------------------------------------------------

/** One finished span of the program's own, read off its timeline. */
struct ProgramSpan
{
    const char *name = "";
    std::uint32_t tid = 0;
    std::uint64_t ns = 0;
};

/** Pair the timeline's begin and end events into finished spans. */
std::vector<ProgramSpan>
programSpans(const obs::TimelineSnapshot &snap)
{
    if (snap.dropped != 0)
        throw StatusError(Status::internal("timeline ring overflowed"));
    std::map<std::uint32_t, std::vector<const obs::TimelineEvent *>> open;
    std::vector<ProgramSpan> out;
    for (const obs::TimelineEvent &e : snap.events) {
        auto &stack = open[e.tid];
        if (e.kind == obs::TimelineEventKind::kBegin) {
            stack.push_back(&e);
        } else if (e.kind == obs::TimelineEventKind::kEnd &&
                   !stack.empty()) {
            out.push_back({stack.back()->name, e.tid,
                           e.ts_ns - stack.back()->ts_ns});
            stack.pop_back();
        }
    }
    return out;
}

/** Figures of one armed runFleet, from the program's own spans. */
struct FleetRunFigures
{
    double shard_s_p50 = 0.0;
    double shard_s_max = 0.0;
    double parallel_efficiency = 0.0;
    double fold_ns = 0.0;
    double merge_us = 0.0;
    double attributed = 0.0;
};

/**
 * characterizeDrive's spans are fleet.shard > {generate, service,
 * characterize}; runFleet wraps them in fleet.run and ends with
 * fleet.merge.  The critical path is the busiest worker's stage time
 * plus the serial merge; attribution compares it with fleet.run.
 */
FleetRunFigures
fleetRunFigures(const std::vector<ProgramSpan> &spans, std::size_t threads)
{
    FleetRunFigures f;
    std::vector<double> shard_s;
    std::map<std::uint32_t, std::uint64_t> worker_stage_ns;
    std::uint64_t run_ns = 0;
    std::uint64_t merge_ns = 0;
    for (const ProgramSpan &s : spans) {
        const std::string name = s.name;
        if (name == "fleet.shard")
            shard_s.push_back(static_cast<double>(s.ns) * 1e-9);
        else if (name == "fleet.run")
            run_ns = s.ns;
        else if (name == "fleet.merge")
            merge_ns = s.ns;
        else if (name == "generate" || name == "service" ||
                 name == "characterize")
            worker_stage_ns[s.tid] += s.ns;
        if (name == "characterize")
            f.fold_ns += static_cast<double>(s.ns);
    }
    if (shard_s.empty() || run_ns == 0)
        throw StatusError(Status::internal("fleet spans missing"));
    std::uint64_t busiest = 0;
    for (const auto &[tid, ns] : worker_stage_ns)
        busiest = std::max(busiest, ns);
    double shard_sum = 0.0;
    for (double s : shard_s)
        shard_sum += s;
    f.shard_s_p50 = median(shard_s);
    f.shard_s_max = *std::max_element(shard_s.begin(), shard_s.end());
    f.parallel_efficiency =
        shard_sum / (static_cast<double>(threads) *
                     static_cast<double>(run_ns) * 1e-9);
    f.merge_us = static_cast<double>(merge_ns) * 1e-3;
    f.attributed = static_cast<double>(busiest + merge_ns) /
                   static_cast<double>(run_ns);
    return f;
}

/** Counts completions and sums their response times. */
class TallySink : public disk::CompletionSink
{
  public:
    void
    onCompletion(const disk::Completion &c) override
    {
        ++count;
        response_ticks += static_cast<double>(c.response());
    }

    std::uint64_t count = 0;
    double response_ticks = 0.0;
};

/** Per-drive figures of the layer split. */
struct DriveFigures
{
    std::string klass;
    std::uint64_t requests = 0;
    std::uint64_t service_ns = 0;
    double response_ticks = 0.0;
    double window_ticks = 0.0;
    std::uint64_t busy_intervals = 0;
    std::uint64_t destages = 0;
};

synth::Workload
classWorkload(const std::string &klass, Lba capacity, double rate,
              std::uint64_t seed)
{
    if (klass == "oltp")
        return synth::Workload::makeOltp(capacity, rate, seed);
    if (klass == "fileserver")
        return synth::Workload::makeFileServer(capacity, rate, seed);
    if (klass == "streaming")
        return synth::Workload::makeStreaming(capacity, rate);
    return synth::Workload::makeBackup(capacity, rate);
}

/**
 * One drive of the mixed fleet's class rotation, at the fleet's rate,
 * window and drive model, split into its layers: synthesis drained
 * into memory, then DiskDrive::service over the in-memory trace with
 * a completion sink — the streaming engine path dlwtool fleet takes —
 * so synthesis is excluded from the disk time.  The drives are the
 * probe's own seeded ones, not copies of the fleet's shards.
 */
bool
splitDrive(const fleet::FleetConfig &cfg, std::size_t index,
           DriveFigures &fig)
{
    static const char *const kClasses[] = {"oltp", "fileserver",
                                           "streaming", "backup"};
    const disk::DriveConfig dcfg = disk::DriveConfig::makeEnterprise();
    Rng rng = Rng(cfg.seed).fork(index);
    fig.klass = kClasses[index % 4];
    synth::Workload workload =
        classWorkload(fig.klass, dcfg.geometry.capacityBlocks(), cfg.rate,
                      rng.engine()());

    trace::MsTrace tr;
    {
        Span s("synth.generate");
        synth::WorkloadSource src = workload.openSource(
            rng, fig.klass + "-" + std::to_string(index), 0, cfg.window);
        Status st = trace::drainToTrace(src, tr, cfg.batch_requests);
        if (!st.ok())
            throw StatusError(st);
    }

    TallySink sink;
    disk::ServiceLog log;
    {
        Span s("disk.service");
        disk::DiskDrive drive(dcfg);
        trace::MsTraceSource src(tr);
        log = drive.service(src, &sink, cfg.batch_requests);
        fig.service_ns = s.close();
    }
    fig.requests = tr.size();
    fig.response_ticks = sink.response_ticks;
    fig.window_ticks = static_cast<double>(cfg.window);
    fig.busy_intervals = log.busy.size();
    fig.destages = log.destages;
    return sink.count == tr.size() && log.completions.empty();
}

int
runFleetProbe(const Options &opts)
{
    fleet::FleetConfig cfg;
    cfg.drives = static_cast<std::size_t>(opts.getInt("drives", 16));
    cfg.threads = static_cast<std::size_t>(opts.getInt("threads", 4));
    cfg.preset = fleet::FleetPreset::Mixed;
    cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 1));
    cfg.rate = opts.getDouble("rate", 120.0);
    cfg.window = static_cast<Tick>(opts.getDouble("minutes", 10.0) *
                                   static_cast<double>(kMinute));
    Metrics m;

    // A first untraced runFleet warms the process up and gives the
    // reference report.  Then the program's runFleet untraced and
    // with its own spans armed, alternating; the armed runs give the
    // fleet and shard figures.
    const std::string ref_report =
        fleet::renderFleetReport(cfg, fleet::runFleet(cfg));
    std::string report;
    bool same = true;
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::vector<double> overhead, p50, maxs, eff, fold, merge, attributed,
        render_us;
    for (int r = 0; r < kPairs; ++r) {
        std::uint64_t ns[2] = {0, 0}; // untraced, traced
        for (int k = 0; k < 2; ++k) {
            const bool armed = (k + r) % 2 == 1;
            if (armed) {
                obs::enable();
                obs::enableTimeline();
                obs::resetTimeline();
            }
            const std::uint64_t t0 = nowNs();
            const fleet::FleetResult res = fleet::runFleet(cfg);
            ns[armed] = nowNs() - t0;
            if (!armed) {
                same = writeAndCompare("", fleet::renderFleetReport(cfg, res),
                                       ref_report, "fleet") &&
                       same;
                continue;
            }
            const auto spans = programSpans(obs::timelineSnapshot());
            obs::disableTimeline();
            obs::disable();
            const FleetRunFigures f = fleetRunFigures(spans, cfg.threads);
            p50.push_back(f.shard_s_p50);
            maxs.push_back(f.shard_s_max);
            eff.push_back(f.parallel_efficiency);
            fold.push_back(f.fold_ns);
            merge.push_back(f.merge_us);
            attributed.push_back(f.attributed);
            {
                Span s("fleet.render");
                report = fleet::renderFleetReport(cfg, res);
                render_us.push_back(static_cast<double>(s.close()) * 1e-3);
            }
            same = writeAndCompare("", report, ref_report, "fleet") && same;
            requests = res.aggregate.requests;
            cache_hits = res.aggregate.cache_hits;
        }
        overhead.push_back(static_cast<double>(ns[1]) /
                               static_cast<double>(ns[0]) -
                           1.0);
    }
    same = writeAndCompare(opts.get("report-out", ""), report, ref_report,
                           "fleet") &&
           same;
    const double req = static_cast<double>(requests);
    m.set("fleet.shard_s_p50", median(p50));
    m.set("fleet.shard_s_max", median(maxs));
    m.set("fleet.parallel_efficiency", median(eff));
    m.set("fleet.merge_us", median(merge));
    m.set("fleet.render_us", median(render_us));
    m.set("core.shard_fold_ns_per_req", median(fold) / req);
    m.set("disk.cache_hit_frac.fleet", static_cast<double>(cache_hits) / req);
    m.set("obs.trace_overhead_frac.fleet-mixed", median(overhead));
    m.set("obs.attributed_frac.fleet-mixed", median(attributed));

    // The layer split: synthesis and the drive model per class.
    std::vector<DriveFigures> figs(cfg.drives);
    std::vector<char> ok(cfg.drives, 0);
    {
        fleet::ThreadPool pool(cfg.threads);
        fleet::parallelFor(pool, cfg.drives, [&](std::size_t i) {
            ok[i] = splitDrive(cfg, i, figs[i]) ? 1 : 0;
        });
    }
    if (std::count(ok.begin(), ok.end(), 0) != 0) {
        std::cerr << "dlw_probe: fleet: a drive lost completions\n";
        same = false;
    }
    g_tracer.writeChromeTrace(opts.get("spans-out", ""));

    std::uint64_t split_requests = 0;
    std::uint64_t busy = 0;
    std::uint64_t destages = 0;
    std::map<std::string, std::uint64_t> cls_ns;
    std::map<std::string, std::uint64_t> cls_req;
    std::map<std::string, double> cls_resp;
    std::map<std::string, double> cls_window;
    for (const DriveFigures &f : figs) {
        split_requests += f.requests;
        busy += f.busy_intervals;
        destages += f.destages;
        cls_ns[f.klass] += f.service_ns;
        cls_req[f.klass] += f.requests;
        cls_resp[f.klass] += f.response_ticks;
        cls_window[f.klass] += f.window_ticks;
    }
    const double split_req = static_cast<double>(split_requests);
    for (const auto &[k, ns] : cls_ns) {
        m.set("disk.service_ns_per_req." + k,
              static_cast<double>(ns) /
                  static_cast<double>(cls_req[k]));
        // Little's law: mean requests in the drive = sum of response
        // times over the observation window.
        m.set("disk.mean_in_system." + k, cls_resp[k] / cls_window[k]);
    }
    m.set("synth.generate_ns_per_req",
          static_cast<double>(selfByName()["synth.generate"]) / split_req);
    m.set("disk.busy_intervals_per_req",
          static_cast<double>(busy) / split_req);
    m.set("disk.destages_per_req",
          static_cast<double>(destages) / split_req);
    m.print();
    return same ? 0 : 1;
}

// ---- analyze ----------------------------------------------------------

/** Drain a file source into memory; its span's time lands in `ns`. */
trace::MsTrace
decodeFile(const std::string &path, const char *span_name,
           std::uint64_t &ns)
{
    Span s(span_name);
    auto src = trace::openMsSource(path, trace::IngestOptions())
                   .valueOrThrow();
    trace::MsTrace tr;
    Status st = trace::drainToTrace(*src, tr);
    if (!st.ok())
        throw StatusError(st);
    ns = s.close();
    return tr;
}

/** Span times of one split analyze run (0 while the tracer is off). */
struct AnalyzeFigures
{
    std::vector<double> decode_ns;
    std::uint64_t service_ns = 0;
    std::uint64_t characterize_ns = 0;
    std::uint64_t root_ns = 0;
};

/**
 * dlwtool analyze's three trips — a validating decode, a service
 * trip, a characterization trip — each decode drained into memory so
 * decode, drive model and characterization time apart.
 */
std::string
splitAnalyze(const std::string &csv, AnalyzeFigures &fig,
             disk::ServiceLog &log, std::uint64_t &requests)
{
    Span root("analyze");
    std::uint64_t ns = 0;
    decodeFile(csv, "trace.decode", ns);
    fig.decode_ns.push_back(static_cast<double>(ns));
    trace::MsTrace tr = decodeFile(csv, "trace.decode", ns);
    fig.decode_ns.push_back(static_cast<double>(ns));
    requests = tr.size();
    {
        Span s("disk.service");
        disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
        trace::MsTraceSource src(tr);
        log = drive.service(src);
        fig.service_ns = s.close();
    }
    tr = decodeFile(csv, "trace.decode", ns);
    fig.decode_ns.push_back(static_cast<double>(ns));
    core::DriveCharacterization c;
    {
        Span s("core.characterize");
        trace::MsTraceSource src(tr);
        c = core::characterizeMs(src, log);
        fig.characterize_ns = s.close();
    }
    std::string report;
    {
        Span s("core.render");
        report = c.render();
    }
    fig.root_ns = root.close();
    return report;
}

int
runAnalyzeProbe(const Options &opts)
{
    const std::string csv = opts.get("csv", "");
    const std::string bin = opts.get("bin", "");
    Metrics m;

    // A first untraced run warms the process up and gives the
    // reference report.  Then the split path with the tracer off and
    // on, alternating.  Only the traced runs' spans are kept (those
    // of the last one).
    disk::ServiceLog log;
    std::uint64_t requests = 0;
    g_tracer.on = false;
    AnalyzeFigures warm;
    const std::string ref_report = splitAnalyze(csv, warm, log, requests);
    std::string report;
    bool same = true;
    std::vector<double> overhead, decode, service, characterize,
        attributed;
    for (int r = 0; r < kPairs; ++r) {
        std::uint64_t ns[2] = {0, 0}; // untraced, traced
        for (int k = 0; k < 2; ++k) {
            const bool traced = (k + r) % 2 == 1;
            g_tracer.on = traced;
            if (traced)
                g_tracer.clear();
            AnalyzeFigures fig;
            const std::uint64_t t0 = nowNs();
            report = splitAnalyze(csv, fig, log, requests);
            ns[traced] = nowNs() - t0;
            same = writeAndCompare("", report, ref_report, "analyze") &&
                   same;
            if (!traced)
                continue;
            const double req = static_cast<double>(requests);
            decode.push_back(median(fig.decode_ns) / req);
            service.push_back(static_cast<double>(fig.service_ns) / req);
            characterize.push_back(
                static_cast<double>(fig.characterize_ns) / req);
            // Every span below the root is a layer call, so their
            // summed self time over the root's says how much of the
            // run they account for.
            std::uint64_t layers = 0;
            for (const auto &[name, self] : selfByName()) {
                if (name != "analyze")
                    layers += self;
            }
            attributed.push_back(static_cast<double>(layers) /
                                 static_cast<double>(fig.root_ns));
        }
        overhead.push_back(static_cast<double>(ns[1]) /
                               static_cast<double>(ns[0]) -
                           1.0);
    }
    g_tracer.on = true;
    same = writeAndCompare(opts.get("report-out", ""), report, ref_report,
                           "analyze") &&
           same;

    const double req = static_cast<double>(requests);
    double resp = 0.0;
    std::uint64_t hits = 0;
    for (const disk::Completion &c : log.completions) {
        resp += static_cast<double>(c.response());
        hits += c.cache_hit ? 1 : 0;
    }
    m.set("trace.csv_decode_ns_per_req", median(decode));
    m.set("disk.service_ns_per_req.analyze", median(service));
    m.set("core.characterize_ns_per_req", median(characterize));
    m.set("disk.mean_in_system.analyze",
          resp / static_cast<double>(log.window_end - log.window_start));
    m.set("disk.cache_hit_frac.analyze", static_cast<double>(hits) / req);
    {
        std::uint64_t ns = 0;
        const trace::MsTrace tb = decodeFile(bin, "trace.bin_decode", ns);
        m.set("trace.bin_decode_ns_per_req",
              static_cast<double>(ns) / static_cast<double>(tb.size()));
    }
    g_tracer.writeChromeTrace(opts.get("spans-out", ""));
    m.set("obs.trace_overhead_frac.analyze-csv", median(overhead));
    m.set("obs.attributed_frac.analyze-csv", median(attributed));
    m.print();
    return same ? 0 : 1;
}

// ---- live (the daemon's session path, in-process) ---------------------

/** Bytes a dlwd client puts on the wire after the hello line. */
std::string
wirePayload(const std::string &file, net::StreamFormat fmt)
{
    if (fmt == net::StreamFormat::kCsv)
        return file;
    const std::size_t chunk = 64 * 1024;
    std::string out;
    for (std::size_t off = 0; off < file.size(); off += chunk) {
        net::appendFrame(out, file.data() + off,
                         std::min(chunk, file.size() - off));
    }
    net::appendEndFrame(out);
    return out;
}

/**
 * One session as dlwd runs it: socket-sized chunks into a
 * StreamDecoder, every full batch into a LiveCharacterization, then
 * finish and render.  Returns the report; decode time lands in
 * `decode_ns`.
 */
std::string
liveSession(const std::string &wire, net::StreamFormat fmt,
            std::uint64_t &decode_ns)
{
    net::StreamDecoder dec(fmt, net::kMaxFrameBytes);
    std::unique_ptr<core::LiveCharacterization> live;
    trace::RequestBatch batch;
    auto check = [](const Status &st) {
        if (!st.ok())
            throw StatusError(st);
    };
    auto fold = [&] {
        if (live == nullptr && dec.headerReady())
            live = std::make_unique<core::LiveCharacterization>(
                dec.header());
        for (;;) {
            bool got = false;
            {
                Span s("net.stream_decode");
                got = dec.take(batch);
                decode_ns += s.close();
            }
            if (!got)
                return;
            Span s("core.live_observe");
            check(live->observe(batch));
        }
    };
    auto drain = [&](net::ByteQueue &q) {
        Span s("net.stream_decode");
        check(dec.drain(q));
        decode_ns += s.close();
    };

    const std::size_t chunk = 64 * 1024;
    net::ByteQueue q;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
        q.append(wire.data() + off, std::min(chunk, wire.size() - off));
        drain(q);
        fold();
    }
    if (fmt == net::StreamFormat::kCsv && !q.empty()) {
        q.append("\n", 1);
        drain(q);
    }
    check(dec.endOfInput());
    fold();
    if (live == nullptr)
        live = std::make_unique<core::LiveCharacterization>(dec.header());
    Span s("core.live_finish");
    return live->finish().render();
}

int
runLiveProbe(const Options &opts)
{
    const auto payloads = split(opts.get("payloads", ""), ',');
    Metrics m;
    bool same = true;
    std::map<std::string, std::uint64_t> decode_ns;
    std::map<std::string, std::uint64_t> records;
    std::map<std::string, std::uint64_t> wire_bytes;
    std::uint64_t all_records = 0;
    for (int r = 0; r < kSessionRepeats; ++r) {
        for (const std::string &path : payloads) {
            const bool bin = endsWith(path, ".bin");
            const auto fmt =
                bin ? net::StreamFormat::kBin : net::StreamFormat::kCsv;
            const std::string key = bin ? "bin" : "csv";
            const std::string wire = wirePayload(readFile(path), fmt);
            std::uint64_t ns = 0;
            std::string report;
            {
                Span s("session");
                report = liveSession(wire, fmt, ns);
            }
            same = writeAndCompare("", report, readFile(path + ".ref"),
                                   path.c_str()) &&
                   same;
            // Requests in the session: the report's source of truth
            // is the trace, so count them from a file decode.
            auto src = trace::openMsSource(path, trace::IngestOptions())
                           .valueOrThrow();
            trace::RequestBatch batch;
            std::uint64_t n = 0;
            while (src->next(batch))
                n += batch.size();
            decode_ns[key] += ns;
            records[key] += n;
            wire_bytes[key] += wire.size();
            all_records += n;
        }
    }
    for (const auto &[key, ns] : decode_ns) {
        m.set("net.stream_decode_ns_per_req." + key,
              static_cast<double>(ns) /
                  static_cast<double>(records[key]));
        m.set("net.wire_bytes_per_req." + key,
              static_cast<double>(wire_bytes[key]) /
                  static_cast<double>(records[key]));
    }
    std::vector<double> finish_us;
    for (const SpanRec &s : g_tracer.spans()) {
        if (std::string(s.name) == "core.live_finish")
            finish_us.push_back(static_cast<double>(s.t1 - s.t0) * 1e-3);
    }
    m.set("core.live_observe_ns_per_req",
          static_cast<double>(selfByName()["core.live_observe"]) /
              static_cast<double>(all_records));
    m.set("core.live_finish_us", median(finish_us));
    g_tracer.writeChromeTrace(opts.get("spans-out", ""));
    m.print();
    return same ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: dlw_probe fleet|analyze|live [--key value]...\n";
        return 2;
    }
    const std::string mode = argv[1];
    const Options opts(argc, argv, 2);
    try {
        if (mode == "fleet")
            return runFleetProbe(opts);
        if (mode == "analyze")
            return runAnalyzeProbe(opts);
        if (mode == "live")
            return runLiveProbe(opts);
    } catch (const StatusError &e) {
        std::cerr << "dlw_probe: " << e.status().message() << '\n';
        return 1;
    }
    std::cerr << "dlw_probe: unknown mode '" << mode << "'\n";
    return 2;
}
