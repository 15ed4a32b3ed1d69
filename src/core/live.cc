#include "core/live.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace dlw
{
namespace core
{

namespace
{

/** JSON number: finite values via %.12g, everything else null. */
void
jsonNum(std::ostringstream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os << buf;
}

void
jsonField(std::ostringstream &os, bool &first, const char *key,
          double v)
{
    os << (first ? "" : ",") << '"' << key << "\":";
    jsonNum(os, v);
    first = false;
}

void
jsonField(std::ostringstream &os, bool &first, const char *key,
          std::uint64_t v)
{
    os << (first ? "" : ",") << '"' << key << "\":" << v;
    first = false;
}

/** Escape the characters JSON strings cannot carry verbatim. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // anonymous namespace

LiveCharacterization::LiveCharacterization(trace::MsStreamHeader meta)
    : meta_(std::move(meta)), prev_(meta_.start)
{
    burstiness_.begin(meta_);
    rwmix_.begin(meta_);
    totals_.begin(meta_);
}

Status
LiveCharacterization::observe(const trace::RequestBatch &batch)
{
    const Tick end = meta_.start + meta_.duration;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Tick at = batch.arrival(i);
        if (batch.blocks(i) != 0 && at >= prev_ && at < end) {
            prev_ = at;
            continue;
        }
        // Only a failing request pays for the message.
        std::ostringstream os;
        if (batch.blocks(i) == 0) {
            os << "zero-length request at stream offset " << n_ + i;
        } else if (at < prev_) {
            os << "out-of-order arrival at stream offset " << n_ + i
               << " (" << at << " after " << prev_ << ")";
        } else {
            os << "arrival outside the observation window at stream"
                  " offset "
               << n_ + i;
        }
        return Status::invalidArgument(os.str());
    }
    burstiness_.observe(batch);
    rwmix_.observe(batch);
    totals_.observe(batch);
    n_ += batch.size();
    return Status();
}

DriveCharacterization
LiveCharacterization::assemble(const BurstinessAccumulator &b,
                               const RwMixAccumulator &rw,
                               const TraceTotalsAccumulator &t) const
{
    DriveCharacterization c;
    c.drive_id = meta_.drive_id;
    c.ms_burstiness = b.report();
    c.ms_rw = rw.report();
    c.arrival_rate = t.arrivalRate();
    c.read_fraction = t.readFraction();
    return c;
}

DriveCharacterization
LiveCharacterization::snapshot() const
{
    // Copies absorb the finish(); the live accumulators never see it.
    BurstinessAccumulator b = burstiness_;
    RwMixAccumulator rw = rwmix_;
    TraceTotalsAccumulator t = totals_;
    b.finish();
    rw.finish();
    t.finish();
    return assemble(b, rw, t);
}

void
LiveCharacterization::saveState(BinEnc &enc) const
{
    enc.str(meta_.drive_id);
    enc.i64(meta_.start);
    enc.i64(meta_.duration);
    burstiness_.saveState(enc);
    rwmix_.saveState(enc);
    totals_.saveState(enc);
    enc.u64(n_);
    enc.i64(prev_);
}

std::unique_ptr<LiveCharacterization>
LiveCharacterization::restore(BinDec &dec)
{
    trace::MsStreamHeader meta;
    meta.drive_id = dec.str();
    meta.start = dec.i64();
    meta.duration = dec.i64();
    if (!dec.ok())
        return nullptr;
    auto live = std::make_unique<LiveCharacterization>(meta);
    if (!live->burstiness_.loadState(dec) ||
        !live->rwmix_.loadState(dec) || !live->totals_.loadState(dec))
        return nullptr;
    live->n_ = dec.u64();
    live->prev_ = dec.i64();
    if (!dec.ok())
        return nullptr;
    return live;
}

DriveCharacterization
LiveCharacterization::finish()
{
    if (!finished_) {
        finished_ = true;
        burstiness_.finish();
        rwmix_.finish();
        totals_.finish();
    }
    return assemble(burstiness_, rwmix_, totals_);
}

std::string
renderCharacterizationJson(const DriveCharacterization &c)
{
    std::ostringstream os;
    bool first = true;
    os << '{';
    os << "\"drive\":\"" << jsonEscape(c.drive_id) << '"';
    first = false;
    if (c.arrival_rate)
        jsonField(os, first, "arrival_rate", *c.arrival_rate);
    if (c.read_fraction)
        jsonField(os, first, "read_fraction", *c.read_fraction);
    if (c.mean_response_ms)
        jsonField(os, first, "mean_response_ms", *c.mean_response_ms);
    if (c.idle_fraction)
        jsonField(os, first, "idle_fraction", *c.idle_fraction);
    if (c.ms_burstiness) {
        const BurstinessReport &b = *c.ms_burstiness;
        jsonField(os, first, "interarrival_cv", b.interarrival_cv);
        jsonField(os, first, "peak_to_mean", b.peak_to_mean);
        jsonField(os, first, "hurst_var", b.hurst_var.h);
        jsonField(os, first, "hurst_rs", b.hurst_rs.h);
        if (!b.idc.empty()) {
            jsonField(os, first, "idc_finest", b.idc.front().idc);
            jsonField(os, first, "idc_coarsest", b.idc.back().idc);
        }
        jsonField(os, first, "decorrelation_lag",
                  static_cast<std::uint64_t>(b.decorrelation_lag));
    }
    if (c.ms_rw) {
        const RwDynamics &d = *c.ms_rw;
        jsonField(os, first, "mean_run_length", d.mean_run_length);
        jsonField(os, first, "write_dominated_fraction",
                  d.write_dominated_fraction);
        jsonField(os, first, "longest_write_run",
                  static_cast<std::uint64_t>(d.longest_write_run));
        jsonField(os, first, "write_bursts",
                  static_cast<std::uint64_t>(d.write_bursts));
    }
    os << '}';
    return os.str();
}

} // namespace core
} // namespace dlw
