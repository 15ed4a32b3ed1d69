/**
 * @file
 * M7: multi-tenant QoS — admission overhead and storm isolation.
 *
 * Two behaviours are measured.  First, overhead: the ratekeeper's
 * admit+charge hot path is micro-timed and scaled by the number of
 * admission checks an interactive session actually performs, then
 * expressed as a percentage of that session's unloaded wall time —
 * the acceptance floor is <= 1%.  Second, isolation: a 3:1 bulk
 * storm (12 bulk streamers against 4 interactive clients) runs once
 * against a QoS-off daemon and once against a QoS-on daemon with a
 * deliberately tight bulk budget; the interactive connect-to-report
 * p95 must improve by >= 2x when the ratekeeper throttles the storm.
 *
 * Both floors are enforced only under --qos-gate (the CI release
 * bench step); the plain run — the ctest smoke — checks structure
 * (every interactive report byte-identical to the unloaded
 * reference) and records the measurements.  The BenchReportGuard
 * snapshot carries fixed-work counters and boolean floor gauges so
 * BENCH_qos.json stays deterministic for the bench-diff gate.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchutil.hh"
#include "common/rng.hh"
#include "daemon/server.hh"
#include "net/client.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "qos/ratekeeper.hh"
#include "qos/tag.hh"
#include "synth/workload.hh"
#include "trace/csvio.hh"

using namespace dlw;

namespace
{

constexpr int kBulkClients = 12;
constexpr int kInteractiveClients = 4;
constexpr int kRoundsPerClient = 8;
constexpr std::size_t kBatch = 4096;

/**
 * A bulk streamer: loops full sessions of `payload` under one shared
 * bulk tenant until `stop`.  Short socket timeouts stand in for an
 * interruptible client — under throttle the send blocks on TCP
 * backpressure, times out, and the loop re-checks the flag.  Session
 * completion is irrelevant here; the storm only exists as pressure.
 */
void
bulkWorker(std::uint16_t port, const std::string &payload,
           std::atomic<bool> &stop)
{
    const net::Endpoint to{.port = port, .io_timeout_ms = 250};
    while (!stop.load(std::memory_order_relaxed))
        (void)bench::streamReport(to, payload, "storm",
                                  qos::WorkClass::kBulk);
}

/**
 * Run the 3:1 storm against the daemon on `port`: launch the bulk
 * streamers, then time interactive connect-to-report sessions.
 * Returns the interactive p95 in seconds (and every report via
 * `reports` for the byte-identity check); 0 on structural failure.
 */
double
stormInteractiveP95(std::uint16_t port, const std::string &bulk_payload,
                    const std::string &lat_payload,
                    std::vector<std::string> &reports)
{
    std::atomic<bool> stop{false};
    std::vector<std::thread> storm;
    storm.reserve(kBulkClients);
    for (int i = 0; i < kBulkClients; ++i)
        storm.emplace_back([&] {
            bulkWorker(port, bulk_payload, stop);
        });
    // Let the storm actually land before sampling.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    const net::Endpoint to{.port = port};
    std::vector<double> lat(
        static_cast<std::size_t>(kInteractiveClients) *
        kRoundsPerClient);
    reports.assign(lat.size(), {});
    std::vector<std::thread> clients;
    clients.reserve(kInteractiveClients);
    for (int c = 0; c < kInteractiveClients; ++c)
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRoundsPerClient; ++r) {
                const std::size_t slot = static_cast<std::size_t>(
                    c * kRoundsPerClient + r);
                const double t0 = bench::nowSeconds();
                reports[slot] = bench::streamReport(
                    to, lat_payload, "lat" + std::to_string(c));
                lat[slot] = bench::nowSeconds() - t0;
            }
        });
    for (auto &t : clients)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : storm)
        t.join();

    for (const std::string &r : reports)
        if (r.empty())
            return 0.0;
    std::sort(lat.begin(), lat.end());
    return lat[(lat.size() * 95 + 99) / 100 - 1];
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    obs::BenchReportGuard obs_guard("qos");
    bool gate = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--qos-gate") == 0)
            gate = true;

    std::cout << "Multi-tenant QoS: admission overhead and storm "
                 "isolation (M7)\n\n";
    bool ok = true;

    // Payloads: a heavy bulk trace (the storm) and a light
    // interactive one (the latency probe).
    Rng rng(bench::kSeed);
    synth::Workload wb =
        synth::Workload::makeOltp(1 << 24, 2000.0, 11);
    const trace::MsTrace bulk_tr =
        wb.generate(rng, "m7-bulk", 0, 2 * kMinute);
    std::ostringstream bulk_csv;
    trace::writeMsCsv(bulk_csv, bulk_tr);
    const std::string bulk_payload = bulk_csv.str();

    Rng rng2(bench::kSeed + 1);
    synth::Workload wi = synth::Workload::makeOltp(1 << 24, 200.0, 7);
    const trace::MsTrace lat_tr =
        wi.generate(rng2, "m7-lat", 0, 10 * kSec);
    std::ostringstream lat_csv;
    trace::writeMsCsv(lat_csv, lat_tr);
    const std::string lat_payload = lat_csv.str();

    // ---- Overhead: the ratekeeper hot path, micro-timed ----------
    // An interactive session performs one admit+charge pair per
    // consumed read chunk; bound that by its batch count and express
    // the total against the session's unloaded wall time.
    qos::Ratekeeper rk;
    const qos::TagId itag{qos::internTenant("lat0"),
                          qos::WorkClass::kInteractive};
    constexpr int kMicroReps = 1'000'000;
    std::uint64_t now_ns = 1;
    const double m0 = bench::nowSeconds();
    for (int i = 0; i < kMicroReps; ++i) {
        now_ns += 1000;
        (void)rk.admit(itag, now_ns);
        rk.charge(itag, kBatch);
    }
    const double admit_charge_ns =
        (bench::nowSeconds() - m0) * 1e9 / kMicroReps;

    daemon::ServerConfig idle_cfg;
    idle_cfg.port = 0;
    daemon::Server idle_server(idle_cfg);
    if (!idle_server.start().ok()) {
        std::cerr << "FAIL: idle server start\n";
        return 1;
    }
    std::thread idle_loop([&idle_server] { (void)idle_server.run(); });
    const net::Endpoint idle_to{.port = idle_server.port()};

    // Unloaded reference session: also the byte-identity reference
    // for every interactive report below.
    std::string reference;
    double session_wall_s = 0.0;
    constexpr int kIdleReps = 8;
    for (int i = 0; i < kIdleReps; ++i) {
        const double t0 = bench::nowSeconds();
        const std::string r =
            bench::streamReport(idle_to, lat_payload, "lat0");
        session_wall_s += bench::nowSeconds() - t0;
        if (reference.empty())
            reference = r;
        if (r.empty() || r != reference) {
            std::cout << "FAIL: unloaded reports diverged\n";
            ok = false;
        }
    }
    session_wall_s /= kIdleReps;
    idle_server.requestStop();
    idle_loop.join();

    const double admit_calls =
        static_cast<double>(lat_tr.size()) / kBatch + 2.0;
    const double overhead_pct = admit_charge_ns * admit_calls /
                                (session_wall_s * 1e9) * 100.0;
    const bool overhead_ok = overhead_pct <= 1.0;
    std::cout << "overhead:  admit+charge " << admit_charge_ns
              << " ns/call x " << admit_calls
              << " calls/session = "
              << (admit_charge_ns * admit_calls / 1e3)
              << " us vs " << (session_wall_s * 1e3)
              << " ms session wall  (" << overhead_pct << "%"
              << (overhead_ok ? ", <= 1% floor" : "") << ")\n";
    if (!overhead_ok)
        std::cout << "FAIL: admission overhead above 1% of an "
                     "interactive session\n";

    // ---- Storm, QoS off: the unprotected baseline ----------------
    daemon::ServerConfig off_cfg;
    off_cfg.port = 0;
    off_cfg.max_connections = 64;
    off_cfg.drain_grace_ms = 500;
    daemon::Server off_server(off_cfg);
    if (!off_server.start().ok()) {
        std::cerr << "FAIL: qos-off server start\n";
        return 1;
    }
    std::thread off_loop([&off_server] { (void)off_server.run(); });
    std::vector<std::string> off_reports;
    const double p95_off = stormInteractiveP95(
        off_server.port(), bulk_payload, lat_payload, off_reports);
    off_server.requestStop();
    off_loop.join();

    // ---- Storm, QoS on: tight bulk budget, same pressure ---------
    // The bulk class budget is squeezed to a small fixed rate so the
    // shared storm bucket goes into debt within one burst and the
    // streams park on TCP backpressure — no AIMD ramp needed for the
    // bench to be stable.
    daemon::ServerConfig on_cfg;
    on_cfg.port = 0;
    on_cfg.max_connections = 64;
    on_cfg.drain_grace_ms = 500;
    on_cfg.qos = true;
    on_cfg.qos_config.max_rate_per_sec = 20'000;
    on_cfg.qos_config.min_rate_per_sec = 5'000;
    daemon::Server on_server(on_cfg);
    if (!on_server.start().ok()) {
        std::cerr << "FAIL: qos-on server start\n";
        return 1;
    }
    std::thread on_loop([&on_server] { (void)on_server.run(); });
    std::vector<std::string> on_reports;
    const double p95_on = stormInteractiveP95(
        on_server.port(), bulk_payload, lat_payload, on_reports);
    on_server.requestStop();
    on_loop.join();

    if (p95_off == 0.0 || p95_on == 0.0) {
        std::cout << "FAIL: an interactive session under the storm "
                     "returned no report\n";
        ok = false;
    }
    for (const std::string &r : off_reports)
        if (!r.empty() && r != reference) {
            std::cout << "FAIL: qos-off storm report diverged from "
                         "the unloaded reference\n";
            ok = false;
            break;
        }
    for (const std::string &r : on_reports)
        if (!r.empty() && r != reference) {
            std::cout << "FAIL: qos-on storm report diverged from "
                         "the unloaded reference\n";
            ok = false;
            break;
        }

    const double improvement =
        p95_on > 0.0 ? p95_off / p95_on : 0.0;
    const bool p95_ok = improvement >= 2.0;
    std::cout << "isolation: interactive p95 under " << kBulkClients
              << ":" << kInteractiveClients << " bulk storm  off "
              << (p95_off * 1e3) << " ms, on " << (p95_on * 1e3)
              << " ms  (" << improvement << "x"
              << (p95_ok ? ", >= 2x floor" : "") << ")\n";
    if (!p95_ok)
        std::cout << "FAIL: ratekeeper improved interactive p95 by "
                     "less than 2x\n";

    // Deterministic snapshot for the bench-diff gate: live counters
    // (session/byte counts, qos decisions) vary with timing, so the
    // snapshot is reset to fixed work volumes plus the two floor
    // verdicts.
    obs::Registry::instance().resetValues();
    obs::counter("bench.qos.interactive_sessions", "sessions",
                 "bench",
                 "timed interactive sessions per storm phase "
                 "(fixed work)")
        .add(static_cast<std::uint64_t>(kInteractiveClients) *
             kRoundsPerClient);
    obs::counter("bench.qos.bulk_clients", "clients", "bench",
                 "bulk streamers in the storm (fixed work)")
        .add(kBulkClients);
    obs::counter("bench.qos.lat_records", "requests", "bench",
                 "records per interactive probe trace (fixed work)")
        .add(lat_tr.size());
    obs::gauge("bench.qos.off_overhead_le1pct", "bool", "bench",
               "1 when ratekeeper admission costs <= 1% of an "
               "interactive session")
        .set(overhead_ok ? 1 : 0);
    obs::gauge("bench.qos.interactive_p95_ge2x", "bool", "bench",
               "1 when QoS-on improved storm interactive p95 >= 2x")
        .set(p95_ok ? 1 : 0);

    if (gate && (!overhead_ok || !p95_ok))
        ok = false;
    std::cout << "\n" << (ok ? "OK" : "FAILED") << "\n";
    return ok ? 0 : 1;
}
