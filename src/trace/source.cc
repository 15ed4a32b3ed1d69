#include "trace/source.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/timeline.hh"

namespace dlw
{
namespace trace
{

namespace
{

/**
 * The trace.batch.* metric family: how many chunks the streaming
 * pipeline decoded, how many requests rode in them, and the largest
 * chunk payload seen — the number the O(batch) memory claim is
 * about.
 */
struct BatchMetrics
{
    obs::Counter &batches = obs::counter("trace.batch.batches",
        "batches", "trace",
        "request batches delivered by streaming sources");
    obs::Counter &requests = obs::counter("trace.batch.requests",
        "requests", "trace",
        "requests delivered inside streaming batches");
    obs::Gauge &peak_bytes = obs::gauge("trace.batch.peak_bytes",
        "bytes", "trace",
        "largest single-batch payload observed (the streaming "
        "pipeline's per-chunk memory bound)");
};

BatchMetrics &
batchMetrics()
{
    static BatchMetrics *m = new BatchMetrics();
    return *m;
}

} // anonymous namespace

void
registerBatchMetrics()
{
    batchMetrics();
}

void
noteBatchDecoded(const RequestBatch &batch)
{
    if (obs::timelineEnabled()) {
        obs::emitInstant("trace.batch.decoded");
        obs::emitCounter("trace.batch.bytes",
                         static_cast<double>(batch.byteSize()));
    }
    if (!obs::enabled())
        return;
    BatchMetrics &m = batchMetrics();
    m.batches.add(1);
    m.requests.add(batch.size());
    const auto bytes = static_cast<std::int64_t>(batch.byteSize());
    if (bytes > m.peak_bytes.value())
        m.peak_bytes.set(bytes);
}

bool
MsTraceSource::next(RequestBatch &batch)
{
    batch.clear();
    const std::vector<Request> &reqs = trace_.requests();
    if (pos_ >= reqs.size())
        return false;
    const std::size_t n =
        std::min(batch.capacity(), reqs.size() - pos_);
    for (std::size_t i = 0; i < n; ++i)
        batch.append(reqs[pos_ + i]);
    pos_ += n;
    noteBatchDecoded(batch);
    return true;
}

Status
drainToTrace(RequestSource &src, MsTrace &out,
             std::size_t batch_requests)
{
    out.setDriveId(src.driveId());
    out.setWindow(src.start(), src.duration());
    RequestBatch batch(batch_requests);
    while (src.next(batch)) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            out.append(batch.get(i));
    }
    return src.status();
}

} // namespace trace
} // namespace dlw
