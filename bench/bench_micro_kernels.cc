/**
 * @file
 * M1 — microbenchmarks of the toolkit's hot kernels.
 *
 * Two parts:
 *
 *  1. A deterministic SIMD-kernel phase (runs first, under its own
 *     BenchReportGuard) that times the autocorrelation's lag sums on
 *     a fixed binned series under every dispatchable kernel table,
 *     prints the speedup table, streams a fixed trace through the
 *     fused characterization pass, and snapshots BENCH_kernels.json
 *     for the bench-diff CI gate.  The phase does fixed work, so
 *     every counter in the snapshot is reproducible to the digit.
 *     When the AVX2 table is dispatchable, the phase *enforces* the
 *     >= 2x speedup floor on the ACF lag sums by exiting nonzero
 *     below it.
 *
 *  2. The pre-existing google-benchmark suite (workload synthesis
 *     per drive class, Rng draws, drive servicing, binary trace I/O,
 *     estimators).  Adaptive iteration counts make gbench numbers
 *     non-deterministic, which is why this part runs after the guard
 *     above has been destroyed and is not snapshot-gated.
 *     `--kernels-only` skips it (what CI runs).
 */

#include <benchmark/benchmark.h>

#include "obs/export.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "benchutil.hh"
#include "core/burstiness.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "obs/metrics.hh"
#include "stats/hurst.hh"
#include "stats/simd/simd.hh"
#include "synth/bmodel.hh"
#include "trace/aggregate.hh"
#include "trace/binio.hh"

using namespace dlw;

namespace
{

// ------------------------------------------------------------------
// Deterministic kernel phase
// ------------------------------------------------------------------

namespace simd = stats::simd;

/** The ACF kernel's fixed input: series length, lags, calls/trial. */
constexpr std::size_t kAcfSeries = 16384;
constexpr std::size_t kAcfLags = 64;
constexpr int kAcfReps = 100;

/** Local xorshift so inputs never depend on libc or repo RNG state. */
struct XRng
{
    std::uint64_t s;
    explicit XRng(std::uint64_t seed) : s(seed ? seed : 1) {}
    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
    double
    uniform(double lo, double hi)
    {
        const double u = static_cast<double>(next() >> 11) *
                         0x1.0p-53;
        return lo + u * (hi - lo);
    }
};

/** Bursty sorted arrivals: long same-bin runs, like real traces. */
std::vector<Tick>
burstyTicks(std::size_t n)
{
    std::vector<Tick> t;
    t.reserve(n);
    XRng rng(0xd15c);
    Tick now = 0;
    while (t.size() < n) {
        const std::size_t burst = 1 + rng.next() % 37;
        for (std::size_t i = 0; i < burst && t.size() < n; ++i) {
            t.push_back(now);
            if (rng.next() % 4 == 0)
                now += static_cast<Tick>(rng.next() % 3);
        }
        now += static_cast<Tick>(rng.next() % (20 * kMsec));
    }
    return t;
}

std::vector<double>
uniformSamples(std::size_t n, double lo, double hi)
{
    std::vector<double> xs;
    xs.reserve(n);
    XRng rng(0x5a11);
    for (std::size_t i = 0; i < n; ++i)
        xs.push_back(rng.uniform(lo, hi));
    return xs;
}

double
nowSecs()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-3 seconds per call of f() over `reps` calls per trial. */
template <typename F>
double
secsPerCall(F &&f, int reps)
{
    f(); // warm caches and the dispatch pointer
    double best = 1e300;
    for (int trial = 0; trial < 3; ++trial) {
        const double t0 = nowSecs();
        for (int i = 0; i < reps; ++i)
            f();
        const double dt = (nowSecs() - t0) / reps;
        if (dt < best)
            best = dt;
    }
    return best;
}

/**
 * Run the deterministic phase: per-ISA timings, speedup table,
 * snapshot metrics.  Returns nonzero when the AVX2 speedup floor
 * (>= 2x on the ACF lag sums) is violated.
 */
int
runKernelPhase()
{
    // Spiky values of both signs, like the centered count series
    // autocorrelation() hands the kernel.
    std::vector<double> acf_xs =
        uniformSamples(kAcfSeries, -3.0, 40.0);
    for (std::size_t i = 0; i < kAcfSeries; i += 97)
        acf_xs[i] = 900.0;
    std::vector<double> acf_out(kAcfLags);

    struct Row
    {
        simd::Isa isa;
        double acf; ///< seconds per call
    };
    std::vector<Row> rows;
    for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
        if (!simd::supported(isa))
            continue;
        simd::force(isa);
        const simd::KernelOps &k = simd::ops();
        auto call = [&] {
            std::fill(acf_out.begin(), acf_out.end(), 0.0);
            k.acf_lags(acf_xs.data(), kAcfSeries, kAcfSeries, 1,
                       kAcfLags, acf_out.data());
            benchmark::DoNotOptimize(acf_out.data());
        };
        rows.push_back({isa, secsPerCall(call, kAcfReps)});
    }
    simd::force(simd::bestSupported());

    const Row &scalar = rows.front();
    std::printf("ACF lag-sum kernel timings, %zu-bin series x %zu lags "
                "(ns per lag product, best of 3; speedup vs scalar)\n",
                kAcfSeries, kAcfLags);
    std::printf("%-8s %s\n", "isa", "acf_lags");
    for (const Row &r : rows) {
        std::printf("%-8s %7.2f (%4.2fx)\n", simd::isaName(r.isa),
                    r.acf / (kAcfSeries * kAcfLags) * 1e9,
                    scalar.acf / r.acf);
    }

    // Deterministic end-to-end slice so the snapshot also carries the
    // wired accumulator counters (core.pass.*, core.kernel.isa).
    {
        trace::MsTrace tr;
        XRng trng(0x7ace);
        std::vector<Tick> arrivals = burstyTicks(50000);
        for (Tick t : arrivals) {
            trace::Request r;
            r.arrival = t;
            r.lba = trng.next() % (1u << 24);
            r.blocks =
                1 + static_cast<BlockCount>(trng.next() % 256);
            r.op = trng.next() % 3 ? trace::Op::Write
                                   : trace::Op::Read;
            tr.appendExtending(r);
        }
        core::BurstinessAccumulator burst;
        core::RwMixAccumulator rw;
        core::TraceTotalsAccumulator totals;
        trace::MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(burst);
        pass.add(rw);
        pass.add(totals);
        pass.run(src);
        obs::counter("bench.kernels.pass_requests", "requests",
                     "bench", "requests streamed through the fused "
                     "pass by the kernel phase (fixed work)")
            .add(totals.count());
    }
    // Fixed-work volume counter: series length per timed call.  The
    // bench-diff gate holds this to +-5%, i.e. exactly equal, so the
    // wall-time comparison always covers the same work.
    obs::counter("bench.kernels.elements", "elements", "bench",
                 "kernel-folded elements in the timed phase "
                 "(fixed work)")
        .add(static_cast<std::uint64_t>(rows.size()) * kAcfReps *
             kAcfSeries);

    obs::Gauge &acf_ok = obs::gauge(
        "bench.kernels.avx2_acf_ge2x", "bool", "bench",
        "1 when the AVX2 ACF lag-sum kernel beat scalar by >= 2x");
    if (!simd::supported(simd::Isa::kAvx2)) {
        std::printf("AVX2 not dispatchable on this build/CPU; "
                    "speedup floor not checked\n");
        return 0;
    }
    const double acf_speedup = scalar.acf / rows.back().acf;
    acf_ok.set(acf_speedup >= 2.0 ? 1 : 0);
    if (acf_speedup < 2.0) {
        std::fprintf(stderr,
                     "FAIL: AVX2 speedup floor (>= 2x) violated: "
                     "acf_lags %.2fx\n",
                     acf_speedup);
        return 1;
    }
    return 0;
}

// ------------------------------------------------------------------
// google-benchmark suite (non-deterministic, not snapshot-gated)
// ------------------------------------------------------------------

trace::MsTrace
sampleTrace(Tick window)
{
    Rng rng(1);
    synth::Workload w = synth::Workload::makeOltp(1 << 24, 200.0);
    return w.generate(rng, "micro", 0, window);
}

/** The fleet's four drive classes at 120 req/s, by benchmark arg. */
synth::Workload
classWorkload(std::int64_t klass)
{
    constexpr Lba kCap = 1 << 24;
    constexpr double kRate = 120.0;
    switch (klass) {
      case 0:
        return synth::Workload::makeOltp(kCap, kRate);
      case 1:
        return synth::Workload::makeFileServer(kCap, kRate);
      case 2:
        return synth::Workload::makeStreaming(kCap, kRate);
      default:
        return synth::Workload::makeBackup(kCap, kRate);
    }
}

/**
 * Request generation as a fleet drive does it: open the class's
 * source (the arrival draws) and drain next() into one batch (the
 * per-request size, direction and placement draws).
 */
void
BM_WorkloadGenerate(benchmark::State &state)
{
    static const char *const kNames[] = {"oltp", "fileserver",
                                         "streaming", "backup"};
    state.SetLabel(kNames[state.range(0)]);
    const synth::Workload w = classWorkload(state.range(0));
    Rng rng(1);
    trace::RequestBatch batch;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        synth::WorkloadSource src = w.openSource(rng, "g", 0, kMinute);
        while (src.next(batch)) {
            benchmark::DoNotOptimize(batch.lbasData());
            benchmark::ClobberMemory();
        }
        requests += src.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_WorkloadGenerate)->DenseRange(0, 3);

/** One Rng method per benchmark arg, 1024 draws per iteration. */
void
BM_RngDraw(benchmark::State &state)
{
    static const char *const kNames[] = {"uniform", "bernoulli",
                                         "exponential", "lognormal"};
    const std::int64_t which = state.range(0);
    state.SetLabel(kNames[which]);
    constexpr int kDraws = 1024;
    Rng rng(1);
    for (auto _ : state) {
        double acc = 0.0;
        for (int i = 0; i < kDraws; ++i) {
            switch (which) {
              case 0:
                acc += rng.uniform();
                break;
              case 1:
                acc += rng.bernoulli(0.67);
                break;
              case 2:
                acc += rng.exponential(2.5);
                break;
              default:
                acc += rng.lognormal(2.0, 1.0);
                break;
            }
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kDraws);
}
BENCHMARK(BM_RngDraw)->DenseRange(0, 3);

void
BM_DriveService(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(10 * kSec);
    disk::DriveConfig cfg = disk::DriveConfig::makeEnterprise();
    std::uint64_t requests = 0;
    for (auto _ : state) {
        disk::DiskDrive drive(cfg);
        disk::ServiceLog log = drive.service(tr);
        requests += log.completions.size();
        benchmark::DoNotOptimize(log);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_DriveService);

void
BM_BModelCounts(benchmark::State &state)
{
    Rng rng(2);
    synth::BModel bm(0.8, static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state) {
        auto counts = bm.counts(rng, 1'000'000);
        benchmark::DoNotOptimize(counts);
    }
}
BENCHMARK(BM_BModelCounts)->Arg(12)->Arg(16)->Arg(20);

void
BM_BinaryRoundTrip(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(30 * kSec);
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        std::stringstream ss(std::ios::in | std::ios::out |
                             std::ios::binary);
        trace::writeMsBinary(ss, tr);
        trace::MsTrace back = trace::readMsBinary(ss);
        bytes += ss.str().size();
        benchmark::DoNotOptimize(back);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_BinaryRoundTrip);

void
BM_HurstAggVar(benchmark::State &state)
{
    Rng rng(3);
    std::vector<double> xs;
    for (int i = 0; i < 1 << 16; ++i)
        xs.push_back(static_cast<double>(rng.poisson(10.0)));
    for (auto _ : state) {
        auto est = stats::hurstAggregatedVariance(xs);
        benchmark::DoNotOptimize(est);
    }
}
BENCHMARK(BM_HurstAggVar);

void
BM_BurstinessReport(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(60 * kSec);
    for (auto _ : state) {
        auto rep = core::analyzeBurstiness(tr);
        benchmark::DoNotOptimize(rep);
    }
}
BENCHMARK(BM_BurstinessReport);

void
BM_MsToHour(benchmark::State &state)
{
    trace::MsTrace tr = sampleTrace(60 * kSec);
    for (auto _ : state) {
        auto hour = trace::msToHour(tr);
        benchmark::DoNotOptimize(hour);
    }
}
BENCHMARK(BM_MsToHour);

void
BM_FamilyHourSynthesis(benchmark::State &state)
{
    synth::FamilyModel family = bench::makeFamily();
    synth::DriveProfile p = family.sampleProfile(0);
    for (auto _ : state) {
        auto t = family.generateHourTrace(p, 24 * 7);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_FamilyHourSynthesis);

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool kernels_only = false;
    // Strip our flag before gbench sees the argv.
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--kernels-only") == 0) {
            kernels_only = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }

    int rc;
    {
        // Scoped so BENCH_kernels.json snapshots the deterministic
        // phase only — gbench's adaptive iteration counts would
        // poison every counter in it.
        obs::BenchReportGuard obs_guard("kernels");
        rc = runKernelPhase();
    }
    if (rc != 0 || kernels_only)
        return rc;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
