#include "daemon/session.hh"

#include <cstdio>
#include <sstream>
#include <utility>

#include "common/strutil.hh"
#include "daemon/server_internal.hh"
#include "obs/timeline.hh"

namespace dlw
{
namespace daemon
{

namespace
{

/** True when `id` is "<tenant>-<digits>", the form sessions get. */
bool
isSessionIdOf(const std::string &id, const std::string &tenant)
{
    const std::size_t n = tenant.size() + 1;
    return id.size() > n && id.compare(0, n, tenant + "-") == 0 &&
           id.find_first_not_of("0123456789", n) == std::string::npos;
}

} // namespace

const char *
sessionStageName(SessionStage s)
{
    switch (s) {
    case SessionStage::kRead:
        return "read";
    case SessionStage::kDecode:
        return "decode";
    case SessionStage::kAdmit:
        return "admit";
    case SessionStage::kFold:
        return "fold";
    case SessionStage::kMerge:
        return "merge";
    }
    return "?";
}

obs::Histogram &
sessionStageHistogram(SessionStage s)
{
    static obs::Histogram &read = obs::histogram("daemon.stage.read_seconds", "s", "daemon", "socket-read latency per readable event");
    static obs::Histogram &decode = obs::histogram("daemon.stage.decode_seconds", "s", "daemon", "wire-decode latency per consumed chunk");
    static obs::Histogram &admit = obs::histogram("daemon.stage.admit_seconds", "s", "daemon", "QoS admission-decision latency per chunk");
    static obs::Histogram &fold = obs::histogram("daemon.stage.fold_seconds", "s", "daemon", "incremental accumulator-fold latency per chunk");
    static obs::Histogram &merge = obs::histogram("daemon.stage.merge_seconds", "s", "daemon", "final finish-and-render latency per session");
    switch (s) {
    case SessionStage::kRead:
        return read;
    case SessionStage::kDecode:
        return decode;
    case SessionStage::kAdmit:
        return admit;
    case SessionStage::kFold:
        return fold;
    case SessionStage::kMerge:
        return merge;
    }
    return merge;
}

void
StageStats::note(std::uint64_t ns)
{
    ++count;
    total_ns += ns;
    if (ns > max_ns)
        max_ns = ns;
    std::size_t b = 0;
    for (std::uint64_t v = ns; v > 1 && b + 1 < buckets.size(); v >>= 1)
        ++b;
    ++buckets[b];
}

double
StageStats::quantileNs(double q) const
{
    if (count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank >= count)
        rank = count - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (seen > rank) {
            // Geometric midpoint of [2^b, 2^(b+1)), capped at max.
            const double mid =
                static_cast<double>(std::uint64_t(1) << b) * 1.5;
            return mid < static_cast<double>(max_ns)
                ? mid
                : static_cast<double>(max_ns);
        }
    }
    return static_cast<double>(max_ns);
}

const char *
sessionStateName(SessionState s)
{
    switch (s) {
    case SessionState::kStreaming:
        return "streaming";
    case SessionState::kDone:
        return "done";
    case SessionState::kAborted:
        return "aborted";
    }
    return "?";
}

Session::Session(std::string id, std::string tenant,
                 net::StreamFormat format, qos::WorkClass klass,
                 std::string trace_id)
    : id_(std::move(id)), tenant_(std::move(tenant)),
      tag_{qos::internTenant(tenant_), klass}, format_(format),
      trace_id_(std::move(trace_id)),
      decoder_(format, net::kMaxFrameBytes)
{
    started_at_ms_ = wallNowMs();
    started_ns_ = nowNs();
    internTraceNames();
}

void
Session::internTraceNames()
{
    if (trace_id_.empty())
        return;
    // One interning per traced session, never on the data path.
    const std::string p = "trace/" + trace_id_ + "/server.";
    tl_span_ = obs::internTimelineName(p + "session");
    tl_decode_ = obs::internTimelineName(p + "decode");
    tl_fold_ = obs::internTimelineName(p + "fold");
    tl_park_ = obs::internTimelineName(p + "park");
    tl_report_ = obs::internTimelineName(p + "report");
}

void
Session::noteStage(SessionStage st, std::uint64_t ns)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stages_[static_cast<std::size_t>(st)].note(ns);
    }
    sessionStageHistogram(st).record(static_cast<double>(ns) * 1e-9);
}

std::uint64_t
Session::durationMs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return durationMsLocked();
}

std::uint64_t
Session::durationMsLocked() const
{
    if (final_duration_ms_ != 0 || state_ != SessionState::kStreaming)
        return final_duration_ms_;
    return (nowNs() - started_ns_) / 1000000;
}

Status
Session::consume(net::ByteQueue &in)
{
    const std::size_t before = in.size();
    if (tl_decode_ != nullptr)
        obs::emitBegin(tl_decode_);
    const std::uint64_t t0 = nowNs();
    Status s = decoder_.drain(in);
    const std::uint64_t t1 = nowNs();
    if (tl_decode_ != nullptr)
        obs::emitEnd(tl_decode_);
    noteStage(SessionStage::kDecode, t1 - t0);
    {
        std::lock_guard<std::mutex> lock(mu_);
        payload_bytes_ += before - in.size();
    }
    if (!s.ok()) {
        abort(s.message());
        return s;
    }
    s = foldPending();
    noteStage(SessionStage::kFold, nowNs() - t1);
    if (!s.ok())
        abort(s.message());
    return s;
}

Status
Session::finishInput(net::ByteQueue &in)
{
    // A CSV file whose last record line has no trailing newline is
    // legal from disk (getline delivers it), so it must be legal
    // over the wire too: complete the line and drain it.
    if (format_ == net::StreamFormat::kCsv && !in.empty()) {
        in.append("\n", 1);
        Status s = consume(in);
        if (!s.ok())
            return s;
    }
    Status s = decoder_.endOfInput();
    if (!s.ok()) {
        abort(s.message());
        return s;
    }
    s = foldPending();
    if (!s.ok()) {
        abort(s.message());
        return s;
    }
    // A header-only stream is valid (an empty trace characterizes to
    // an empty report), but no header at all cannot reach here: the
    // decoder fails endOfInput() first.
    std::lock_guard<std::mutex> lock(mu_);
    if (live_ == nullptr) {
        live_ = std::make_unique<core::LiveCharacterization>(
            decoder_.header());
    }
    return Status();
}

void
Session::abort(const std::string &why)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == SessionState::kStreaming) {
        state_ = SessionState::kAborted;
        error_ = why;
    }
}

std::string
Session::finalReportText()
{
    const std::uint64_t t0 = nowNs();
    std::string text;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!final_text_.empty())
            return final_text_; // restored (or refolded) done session
        const core::DriveCharacterization c = live_->finish();
        if (state_ == SessionState::kStreaming)
            state_ = SessionState::kDone;
        // Cache everything a restart needs to keep serving this
        // session: finish() consumed the accumulators, so this is
        // the last moment the result can be rendered.
        final_records_ = live_->requests();
        final_char_json_ = core::renderCharacterizationJson(c);
        final_text_ = c.render();
        final_duration_ms_ = (nowNs() - started_ns_) / 1000000;
        if (final_duration_ms_ == 0)
            final_duration_ms_ = 1; // sub-ms sessions still rank
        text = final_text_;
    }
    noteStage(SessionStage::kMerge, nowNs() - t0);
    return text;
}

void
Session::writeSummary(std::ostream &os, bool with_error) const
{
    os << "{\"session\":\"" << jsonEscape(id_) << "\",\"tenant\":\""
       << jsonEscape(tenant_) << "\",\"class\":\""
       << qos::workClassName(tag_.klass) << "\",\"state\":\""
       << sessionStateName(state_) << "\"";
    if (!trace_id_.empty())
        os << ",\"trace\":\"" << jsonEscape(trace_id_) << "\"";
    if (with_error && !error_.empty())
        os << ",\"error\":\"" << jsonEscape(error_) << "\"";
    std::uint64_t recs = 0;
    if (live_ != nullptr)
        recs = live_->requests();
    else if (!final_char_json_.empty())
        recs = final_records_;
    const std::uint64_t dur_ms = durationMsLocked();
    os << ",\"started_at_ms\":" << started_at_ms_
       << ",\"duration_ms\":" << dur_ms << ",\"records_per_s\":";
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.1f",
                  (recs == 0 || dur_ms == 0)
                      ? 0.0
                      : static_cast<double>(recs) * 1000.0 /
                            static_cast<double>(dur_ms));
    os << rate;
}

std::string
Session::summaryJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    writeSummary(os, false);
    os << '}';
    return os.str();
}

std::string
Session::reportJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    writeSummary(os, true);
    os << ",\"stages\":{";
    bool first_stage = true;
    for (std::size_t i = 0; i < kSessionStageCount; ++i) {
        const StageStats &st = stages_[i];
        if (st.count == 0)
            continue;
        if (!first_stage)
            os << ',';
        first_stage = false;
        char buf[160];
        std::snprintf(
            buf, sizeof(buf),
            "\"%s\":{\"count\":%llu,\"mean_us\":%.3f,"
            "\"max_us\":%.3f,\"p50_us\":%.3f,\"p95_us\":%.3f,"
            "\"p99_us\":%.3f}",
            sessionStageName(static_cast<SessionStage>(i)),
            static_cast<unsigned long long>(st.count),
            static_cast<double>(st.total_ns) /
                static_cast<double>(st.count) / 1000.0,
            static_cast<double>(st.max_ns) / 1000.0,
            st.quantileNs(0.50) / 1000.0,
            st.quantileNs(0.95) / 1000.0,
            st.quantileNs(0.99) / 1000.0);
        os << buf;
    }
    os << '}';
    if (live_ != nullptr) {
        os << ",\"records\":" << live_->requests()
           << ",\"characterization\":"
           << core::renderCharacterizationJson(live_->snapshot());
    } else if (!final_char_json_.empty()) {
        // Restored after a restart: the live accumulators are gone,
        // but the fold's rendered result survives in the checkpoint.
        os << ",\"records\":" << final_records_
           << ",\"characterization\":" << final_char_json_;
    } else {
        os << ",\"records\":0";
    }
    os << "}\n";
    return os.str();
}

SessionState
Session::state() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

std::uint64_t
Session::records() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return live_ == nullptr ? 0 : live_->requests();
}

bool
Session::settleOnce()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (settled_)
        return false;
    settled_ = true;
    return true;
}

std::uint64_t
Session::payloadBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return payload_bytes_;
}

void
Session::saveState(BinEnc &enc) const
{
    std::lock_guard<std::mutex> lock(mu_);
    enc.str(id_);
    enc.str(tenant_);
    enc.u8(static_cast<std::uint8_t>(tag_.klass));
    enc.u8(format_ == net::StreamFormat::kBin ? 1 : 0);
    enc.u8(static_cast<std::uint8_t>(state_));
    enc.str(error_);
    enc.u8(settled_ ? 1 : 0);
    enc.u64(payload_bytes_);
    const bool has_final = !final_text_.empty();
    enc.u8(has_final ? 1 : 0);
    if (has_final) {
        enc.str(final_text_);
        enc.str(final_char_json_);
        enc.u64(final_records_);
    }
    decoder_.saveState(enc);
    // Post-finish accumulators are consumed; the final blob above
    // carries everything a done session still serves.
    const bool has_live = live_ != nullptr && !has_final;
    enc.u8(has_live ? 1 : 0);
    if (has_live)
        live_->saveState(enc);
    // v4: trace identity and latency attribution ride at the tail so
    // every earlier field keeps its v3 offset.
    enc.str(trace_id_);
    enc.u64(started_at_ms_);
    enc.u64(final_duration_ms_);
    for (const StageStats &st : stages_) {
        enc.u64(st.count);
        enc.u64(st.total_ns);
        enc.u64(st.max_ns);
        for (std::uint32_t b : st.buckets)
            enc.u32(b);
    }
}

std::shared_ptr<Session>
Session::restore(BinDec &dec)
{
    const std::string id = dec.str();
    const std::string tenant = dec.str();
    const std::uint8_t klass = dec.u8();
    const std::uint8_t format = dec.u8();
    const std::uint8_t state = dec.u8();
    // The id names the checkpoint file and, like the tenant, is
    // served in JSON: a blob whose strings a hello could not have
    // produced is garbled, not restorable.
    if (!dec.ok() || klass >= qos::kWorkClassCount || format > 1 ||
        state > static_cast<std::uint8_t>(SessionState::kAborted) ||
        !net::isIdToken(tenant) || !isSessionIdOf(id, tenant))
        return nullptr;
    auto s = std::make_shared<Session>(
        id, tenant,
        format ? net::StreamFormat::kBin : net::StreamFormat::kCsv,
        static_cast<qos::WorkClass>(klass));
    s->state_ = static_cast<SessionState>(state);
    s->error_ = dec.str();
    s->settled_ = dec.u8() != 0;
    s->payload_bytes_ = dec.u64();
    if (dec.u8() != 0) {
        s->final_text_ = dec.str();
        s->final_char_json_ = dec.str();
        s->final_records_ = dec.u64();
    }
    if (!s->decoder_.loadState(dec))
        return nullptr;
    if (dec.u8() != 0) {
        s->live_ = core::LiveCharacterization::restore(dec);
        if (s->live_ == nullptr)
            return nullptr;
    }
    s->trace_id_ = dec.str();
    if (!s->trace_id_.empty() && !net::isIdToken(s->trace_id_))
        return nullptr;
    s->internTraceNames();
    s->started_at_ms_ = dec.u64();
    s->final_duration_ms_ = dec.u64();
    for (StageStats &st : s->stages_) {
        st.count = dec.u64();
        st.total_ns = dec.u64();
        st.max_ns = dec.u64();
        for (std::uint32_t &b : st.buckets)
            b = dec.u32();
    }
    if (!dec.ok())
        return nullptr;
    return s;
}

Status
Session::foldPending()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (live_ == nullptr) {
        if (!decoder_.headerReady())
            return Status();
        // A header whose window cannot be binned aborts this session
        // only; no live state is kept (or checkpointed) for it.
        auto live = std::make_unique<core::LiveCharacterization>(
            decoder_.header());
        if (!live->status().ok())
            return live->status();
        live_ = std::move(live);
    }
    while (decoder_.take(batch_)) {
        Status s = live_->observe(batch_);
        if (!s.ok())
            return s;
    }
    return Status();
}

} // namespace daemon
} // namespace dlw
