/**
 * @file
 * M5: the streaming pipeline's pass fusion and bounded memory.
 *
 * Two claims are measured.  First, pass fusion: the characterization
 * kernels used to take one trip over the trace each; the streaming
 * pass runs them fused in a single trip, so the fused wall time
 * should sit well under the summed single-kernel passes.  Second,
 * bounded memory: the fleet keeps per-shard residency at O(batch),
 * so the process peak RSS of a long fleet run stays small.
 *
 * Bit-identity of the fused and per-kernel numbers is asserted on
 * the way; a mismatch fails the binary, which doubles as a smoke
 * test.
 */

#include <chrono>
#include <iostream>

#include <sys/resource.h>

#include "benchutil.hh"
#include "core/burstiness.hh"
#include "core/footprint.hh"
#include "core/pass.hh"
#include "core/report.hh"
#include "core/rwmix.hh"
#include "fleet/pipeline.hh"
#include "obs/export.hh"
#include "trace/source.hh"

using namespace dlw;

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of this process in MiB (monotone). */
long
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024; // ru_maxrss is KiB on Linux
}

fleet::FleetConfig
heavyFleet()
{
    // A long window at a sub-saturation rate: each shard's trace and
    // completion vector would be large enough that materializing
    // them moves RSS, without drowning the drive model in queueing.
    fleet::FleetConfig cfg;
    cfg.drives = 16;
    cfg.threads = 4;
    cfg.preset = fleet::FleetPreset::Mixed;
    cfg.seed = bench::kSeed;
    cfg.rate = 120.0;
    cfg.window = 10 * kMinute;
    return cfg;
}

} // anonymous namespace

int
main()
{
    obs::BenchReportGuard obs_guard("streaming");
    trace::registerBatchMetrics();
    core::registerPassMetrics();

    std::cout << "Streaming pipeline: single fused pass and bounded "
                 "memory (M5)\n\n";
    bool ok = true;

    // ---- Pass fusion: one trip vs one trip per kernel ------------
    Rng rng(bench::kSeed);
    synth::Workload w = synth::Workload::makeFileServer(1 << 24, 800.0);
    const trace::MsTrace tr =
        w.generate(rng, "m5-drive", 0, 5 * kMinute);
    const Lba capacity = 1 << 24;

    const double t0 = nowSeconds();
    const core::BurstinessReport b_ref = core::analyzeBurstiness(tr);
    const core::RwDynamics rw_ref = core::analyzeRwDynamics(tr);
    const core::FootprintReport f_ref =
        core::analyzeFootprint(tr, capacity);
    const double multi_s = nowSeconds() - t0;

    core::BurstinessAccumulator b;
    core::RwMixAccumulator rw;
    core::FootprintAccumulator f(capacity);
    const double t1 = nowSeconds();
    trace::MsTraceSource src(tr);
    core::CharacterizationPass pass;
    pass.add(b);
    pass.add(rw);
    pass.add(f);
    pass.run(src);
    const double fused_s = nowSeconds() - t1;

    ok = ok && b.report().interarrival_cv == b_ref.interarrival_cv &&
         rw.report().mean_run_length == rw_ref.mean_run_length &&
         f.report().extent_gini == f_ref.extent_gini;

    core::Table ft("pass fusion over " + std::to_string(tr.size()) +
                       " requests",
                   {"path", "trips", "wall s"});
    ft.addRow({"one pass per kernel", "3", core::cell(multi_s)});
    ft.addRow({"fused single pass", "1", core::cell(fused_s)});
    ft.print(std::cout);
    std::cout << "fusion speedup: " << core::cell(multi_s / fused_s)
              << "x; kernel outputs "
              << (ok ? "bit-identical" : "DIFFER") << "\n\n";

    // ---- Bounded memory: peak RSS of a long streamed fleet -------
    const long rss_start = peakRssMb();
    const double t2 = nowSeconds();
    const fleet::FleetResult streamed = fleet::runFleet(heavyFleet());
    const double stream_s = nowSeconds() - t2;
    const long rss_stream = peakRssMb();

    core::Table mt("fleet memory: 16 drives x 120 req/s x 10 min",
                   {"path", "drives", "wall s", "peak RSS MiB"});
    mt.addRow({"streamed (O(batch)/shard)",
               std::to_string(streamed.shards.size()),
               core::cell(stream_s), std::to_string(rss_stream)});
    mt.print(std::cout);
    std::cout << "start RSS " << rss_start << " MiB\n";
    return ok ? 0 : 1;
}
