/**
 * @file
 * M6: the daemon under sustained connections and under overload.
 *
 * Two behaviours are measured.  First, sustained service: waves of
 * concurrent streaming clients hit one dlwd and every per-client
 * report must come back byte-identical, with per-client throughput
 * (records served per second) recorded.  Second, shedding: with the
 * connection budget deliberately filled by idle sessions, every
 * further attempt must be refused with the overload error rather
 * than queued, and the refusal rate is recorded.
 *
 * The BenchReportGuard snapshot carries the daemon's own counters
 * (daemon.sessions.*, net.shed.*, daemon.fold_seconds) alongside the
 * wall numbers printed here, so BENCH_daemon.json is the perf
 * trajectory for the network layer.
 */

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
#include "synth/workload.hh"
#include "trace/csvio.hh"

using namespace dlw;

int
main()
{
    obs::BenchReportGuard obs_guard("daemon");

    std::cout << "Daemon under load: sustained sessions and "
                 "shedding (M6)\n\n";
    bool ok = true;

    // One oltp trace shared by every client; heavy enough that the
    // fold dominates framing overhead.
    Rng rng(bench::kSeed);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 200.0, 11);
    const trace::MsTrace tr =
        w.generate(rng, "m6-drive", 0, 2 * kMinute);
    std::ostringstream csv;
    trace::writeMsCsv(csv, tr);
    const std::string payload = csv.str();
    const std::size_t n_records = tr.size();

    daemon::ServerConfig cfg;
    cfg.port = 0;
    cfg.max_connections = 128;
    daemon::Server server(cfg);
    if (!server.start().ok()) {
        std::cerr << "FAIL: server start\n";
        return 1;
    }
    std::thread loop([&server] { (void)server.run(); });

    // ---- Sustained waves of concurrent clients -------------------
    constexpr int kWaves = 4;
    constexpr int kClientsPerWave = 16;
    const net::Endpoint to{.port = server.port()};

    std::string reference;
    int mismatches = 0;
    const double t0 = bench::nowSeconds();
    for (int wave = 0; wave < kWaves; ++wave) {
        std::vector<std::string> reports(kClientsPerWave);
        std::vector<std::thread> clients;
        clients.reserve(kClientsPerWave);
        for (int c = 0; c < kClientsPerWave; ++c)
            clients.emplace_back([&, c] {
                reports[static_cast<std::size_t>(c)] =
                    bench::streamReport(to, payload,
                                        "bench" + std::to_string(c));
            });
        for (auto &t : clients)
            t.join();
        for (const std::string &r : reports) {
            if (reference.empty())
                reference = r;
            if (r.empty() || r != reference)
                ++mismatches;
        }
    }
    const double sustained_s = bench::nowSeconds() - t0;
    const int n_sessions = kWaves * kClientsPerWave;
    const double rec_per_s =
        static_cast<double>(n_records) * n_sessions / sustained_s;

    std::cout << "sustained: " << n_sessions << " sessions of "
              << n_records << " records in " << sustained_s
              << " s  (" << rec_per_s << " records/s, "
              << (rec_per_s / n_sessions) << " per client)\n";
    if (reference.empty() || mismatches != 0) {
        std::cout << "FAIL: " << mismatches
                  << " sessions differed from the first report\n";
        ok = false;
    }

    // ---- Shedding: fill the budget, then probe -------------------
    // Idle sessions (hello sent, stream left open) pin connection
    // slots, so every probe past the budget must be refused.
    constexpr int kHold = 8;
    constexpr int kProbes = 32;

    daemon::ServerConfig shed_cfg;
    shed_cfg.port = 0;
    shed_cfg.max_connections = kHold;
    daemon::Server shed_server(shed_cfg);
    if (!shed_server.start().ok()) {
        std::cerr << "FAIL: shed server start\n";
        server.requestStop();
        loop.join();
        return 1;
    }
    std::thread shed_loop([&shed_server] { (void)shed_server.run(); });

    const net::Endpoint shed_to{.port = shed_server.port()};
    const std::string hold =
        net::renderStreamHello(net::StreamFormat::kCsv, "hold");
    std::vector<net::ClientConn> held;
    for (int i = 0; i < kHold; ++i) {
        StatusOr<net::ClientConn> c = net::ClientConn::dial(shed_to);
        if (c.ok() && c.value().sendAll(hold).ok())
            held.push_back(std::move(c).value());
    }
    // Let the event loop accept the holders before probing.
    while (shed_server.activeConnections() <
           static_cast<std::size_t>(kHold))
        std::this_thread::yield();

    int shed = 0;
    const double t1 = bench::nowSeconds();
    for (int i = 0; i < kProbes; ++i) {
        net::StreamHello probe;
        probe.tenant = "probe";
        StatusOr<net::StreamReply> r =
            net::streamSession(shed_to, probe, std::string_view());
        if (!r.ok() && r.status().message() == "server overloaded")
            ++shed;
    }
    const double shed_s = bench::nowSeconds() - t1;

    std::cout << "shedding:  " << shed << "/" << kProbes
              << " probes refused past a budget of " << kHold
              << " (" << (100.0 * shed / kProbes) << "%, "
              << (kProbes / shed_s) << " refusals/s)\n";
    if (shed != kProbes) {
        std::cout << "FAIL: " << (kProbes - shed)
                  << " probes were not shed\n";
        ok = false;
    }

    held.clear();
    shed_server.requestStop();
    shed_loop.join();
    server.requestStop();
    loop.join();

    std::cout << "\n" << (ok ? "OK" : "FAILED") << "\n";
    return ok ? 0 : 1;
}
