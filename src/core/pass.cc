#include "core/pass.hh"

#include "common/binenc.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "stats/simd/simd.hh"

namespace dlw
{
namespace core
{

namespace
{

/** Fusion bookkeeping for the streaming characterization pass. */
struct PassMetrics
{
    obs::Counter &runs = obs::counter("core.pass.runs",
        "passes", "core",
        "fused characterization passes over a request stream");
    obs::Counter &batches = obs::counter("core.pass.batches",
        "batches", "core",
        "request batches fanned out to accumulators by passes");
    obs::Counter &fused = obs::counter("core.pass.accumulators",
        "accumulators", "core",
        "accumulators fed by passes (divide by core.pass.runs "
        "for the mean fusion width)");
    obs::Gauge &kernel_isa = obs::gauge("core.kernel.isa",
        "isa", "core",
        "active SIMD kernel table (0 scalar, 2 avx2); "
        "set at the start of every pass");
};

PassMetrics &
passMetrics()
{
    static PassMetrics *m = new PassMetrics();
    return *m;
}

} // anonymous namespace

void
registerPassMetrics()
{
    passMetrics();
}

void
notePassRun(std::size_t accumulators)
{
    if (!obs::enabled())
        return;
    PassMetrics &m = passMetrics();
    m.runs.add(1);
    m.fused.add(accumulators);
    m.kernel_isa.set(static_cast<std::int64_t>(stats::simd::activeIsa()));
}

void
notePassBatch()
{
    if (obs::enabled())
        passMetrics().batches.add(1);
}

Status
TraceTotalsAccumulator::begin(const trace::MsStreamHeader &meta)
{
    duration_ = meta.duration;
    return Status();
}

void
TraceTotalsAccumulator::observe(const trace::RequestBatch &batch)
{
    n_ += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i)
        reads_ += batch.isRead(i) ? 1 : 0;
}

double
TraceTotalsAccumulator::readFraction() const
{
    if (n_ == 0)
        return 0.0;
    return static_cast<double>(reads_) / static_cast<double>(n_);
}

double
TraceTotalsAccumulator::arrivalRate() const
{
    if (n_ == 0 || duration_ <= 0)
        return 0.0;
    return static_cast<double>(n_) / ticksToSeconds(duration_);
}

void
TraceTotalsAccumulator::saveState(BinEnc &enc) const
{
    enc.u64(n_);
    enc.u64(reads_);
    enc.i64(duration_);
}

bool
TraceTotalsAccumulator::loadState(BinDec &dec)
{
    n_ = static_cast<std::size_t>(dec.u64());
    reads_ = static_cast<std::size_t>(dec.u64());
    duration_ = dec.i64();
    return dec.ok();
}

Status
CharacterizationPass::run(trace::RequestSource &src,
                          std::size_t batch_requests)
{
    obs::ScopedSpan span("core.pass");
    notePassRun(accs_.size());

    const trace::MsStreamHeader meta = src.header();
    for (TraceAccumulator *acc : accs_) {
        Status s = acc->begin(meta);
        if (!s.ok())
            return s;
    }

    trace::RequestBatch batch(batch_requests);
    while (src.next(batch)) {
        notePassBatch();
        for (TraceAccumulator *acc : accs_)
            acc->observe(batch);
    }

    Status s = src.status();
    if (!s.ok())
        return s;
    for (TraceAccumulator *acc : accs_)
        acc->finish();
    return s;
}

} // namespace core
} // namespace dlw
