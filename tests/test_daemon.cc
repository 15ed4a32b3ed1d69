/**
 * @file
 * The network and daemon layer: ByteQueue, the incremental HTTP
 * parser, the DLWS1 stream decoder (both encodings, fed in
 * adversarial fragment sizes), and end-to-end sessions against a
 * live epoll server — including the byte-identity contract between
 * a streamed session's report and the batch `characterize` path.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binenc.hh"
#include "common/fault.hh"
#include "core/burstiness.hh"
#include "core/live.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "daemon/checkpoint.hh"
#include "daemon/server.hh"
#include "daemon/session.hh"
#include "net/buffer.hh"
#include "net/client.hh"
#include "net/http.hh"
#include "net/timer.hh"
#include "net/wire.hh"
#include "obs/benchdiff.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "qos/tag.hh"
#include "trace/stream.hh"

namespace
{

using namespace dlw;

// ---------------------------------------------------------------------------
// ByteQueue

TEST(ByteQueue, AppendConsumeFind)
{
    net::ByteQueue q;
    EXPECT_TRUE(q.empty());
    q.append("hello\nworld");
    EXPECT_EQ(q.size(), 11u);
    EXPECT_EQ(q.find('\n'), 5u);
    q.consume(6);
    EXPECT_EQ(q.size(), 5u);
    EXPECT_EQ(std::string(q.data(), q.size()), "world");
    EXPECT_EQ(q.find('\n'), net::ByteQueue::npos);
    q.consume(5);
    EXPECT_TRUE(q.empty());
}

TEST(ByteQueue, CompactionKeepsBytesIntact)
{
    net::ByteQueue q;
    std::string all;
    // Interleave appends and consumes so the dead prefix repeatedly
    // crosses the compaction threshold.
    std::string drained;
    for (int i = 0; i < 200; ++i) {
        std::string chunk(257, static_cast<char>('a' + i % 26));
        q.append(chunk);
        all += chunk;
        const std::size_t take = q.size() / 2 + 1;
        drained.append(q.data(), take);
        q.consume(take);
    }
    drained.append(q.data(), q.size());
    q.consume(q.size());
    EXPECT_EQ(drained, all);
}

// ---------------------------------------------------------------------------
// HTTP parser

TEST(HttpParser, ParsesOneRequest)
{
    net::ByteQueue in;
    in.append("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    net::HttpParser p;
    net::HttpRequest req;
    std::string why;
    ASSERT_EQ(p.next(in, req, why), net::HttpParser::Result::kRequest);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.target, "/healthz");
    EXPECT_EQ(req.headerValue("host"), "x");
    EXPECT_TRUE(req.keepAlive());
    EXPECT_TRUE(in.empty());
}

TEST(HttpParser, ByteAtATime)
{
    const std::string raw =
        "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
    net::ByteQueue in;
    net::HttpParser p;
    net::HttpRequest req;
    std::string why;
    for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
        in.append(&raw[i], 1);
        ASSERT_EQ(p.next(in, req, why),
                  net::HttpParser::Result::kNeedMore)
            << "at byte " << i;
    }
    in.append(&raw[raw.size() - 1], 1);
    ASSERT_EQ(p.next(in, req, why), net::HttpParser::Result::kRequest);
    EXPECT_EQ(req.target, "/metrics");
    EXPECT_FALSE(req.keepAlive());
}

TEST(HttpParser, PipelinedRequests)
{
    net::ByteQueue in;
    in.append("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
    net::HttpParser p;
    net::HttpRequest req;
    std::string why;
    ASSERT_EQ(p.next(in, req, why), net::HttpParser::Result::kRequest);
    EXPECT_EQ(req.target, "/a");
    ASSERT_EQ(p.next(in, req, why), net::HttpParser::Result::kRequest);
    EXPECT_EQ(req.target, "/b");
    EXPECT_EQ(p.next(in, req, why),
              net::HttpParser::Result::kNeedMore);
}

TEST(HttpParser, OversizedHeadIsAnError)
{
    net::ByteQueue in;
    in.append("GET / HTTP/1.1\r\n");
    std::string filler = "X-Pad: " + std::string(1024, 'p') + "\r\n";
    while (in.size() <= net::kMaxHttpHeadBytes)
        in.append(filler);
    net::HttpParser p;
    net::HttpRequest req;
    std::string why;
    EXPECT_EQ(p.next(in, req, why), net::HttpParser::Result::kError);
}

TEST(HttpParser, MalformedRequestLine)
{
    net::ByteQueue in;
    in.append("NONSENSE\r\n\r\n");
    net::HttpParser p;
    net::HttpRequest req;
    std::string why;
    EXPECT_EQ(p.next(in, req, why), net::HttpParser::Result::kError);
}

TEST(HttpParser, GarbageHeadAnySplit)
{
    // A malformed head must be rejected no matter how the bytes are
    // fragmented — the same split matrix the decoder runs under.
    const std::string raw = "\x01\x02 NONSENSE\r\nbroken\r\n\r\n";
    for (std::size_t step : {1ul, 3ul, 7ul, 64ul}) {
        net::ByteQueue in;
        net::HttpParser p;
        net::HttpRequest req;
        std::string why;
        net::HttpParser::Result last =
            net::HttpParser::Result::kNeedMore;
        for (std::size_t off = 0;
             off < raw.size() &&
             last == net::HttpParser::Result::kNeedMore;
             off += step) {
            in.append(raw.data() + off,
                      std::min(step, raw.size() - off));
            last = p.next(in, req, why);
        }
        EXPECT_EQ(last, net::HttpParser::Result::kError)
            << "step " << step;
    }
}

TEST(HttpParser, OversizedHeadAnySplit)
{
    std::string raw = "GET / HTTP/1.1\r\n";
    while (raw.size() <= net::kMaxHttpHeadBytes)
        raw += "X-Pad: " + std::string(997, 'p') + "\r\n";
    for (std::size_t step : {3ul, 64ul, 1024ul}) {
        net::ByteQueue in;
        net::HttpParser p;
        net::HttpRequest req;
        std::string why;
        net::HttpParser::Result last =
            net::HttpParser::Result::kNeedMore;
        for (std::size_t off = 0;
             off < raw.size() &&
             last == net::HttpParser::Result::kNeedMore;
             off += step) {
            in.append(raw.data() + off,
                      std::min(step, raw.size() - off));
            last = p.next(in, req, why);
        }
        EXPECT_EQ(last, net::HttpParser::Result::kError)
            << "step " << step;
    }
}

// ---------------------------------------------------------------------------
// Stream hello

TEST(StreamHello, RoundTrip)
{
    net::StreamHello h;
    ASSERT_TRUE(
        net::parseStreamHello("DLWS1 csv tenant-7", h).ok());
    EXPECT_EQ(h.format, net::StreamFormat::kCsv);
    EXPECT_EQ(h.tenant, "tenant-7");
    ASSERT_TRUE(net::parseStreamHello("DLWS1 bin", h).ok());
    EXPECT_EQ(h.format, net::StreamFormat::kBin);
    EXPECT_EQ(h.tenant, "anon");
    EXPECT_FALSE(net::parseStreamHello("DLWS1 xml", h).ok());
    EXPECT_FALSE(net::parseStreamHello("GET / HTTP/1.1", h).ok());
    EXPECT_FALSE(net::parseStreamHello("DLWS1 csv bad*tenant", h).ok());
}

TEST(StreamHello, WorkloadClassField)
{
    net::StreamHello h;
    // No class field: defaults to interactive (the pre-QoS wire).
    ASSERT_TRUE(net::parseStreamHello("DLWS1 csv t", h).ok());
    EXPECT_EQ(h.klass, qos::WorkClass::kInteractive);

    ASSERT_TRUE(net::parseStreamHello("DLWS1 csv t bulk", h).ok());
    EXPECT_EQ(h.tenant, "t");
    EXPECT_EQ(h.klass, qos::WorkClass::kBulk);
    ASSERT_TRUE(
        net::parseStreamHello("DLWS1 bin t background", h).ok());
    EXPECT_EQ(h.klass, qos::WorkClass::kBackground);
    ASSERT_TRUE(
        net::parseStreamHello("DLWS1 bin t interactive", h).ok());
    EXPECT_EQ(h.klass, qos::WorkClass::kInteractive);

    EXPECT_FALSE(net::parseStreamHello("DLWS1 csv t batch", h).ok());
    // A 5th field is no longer an error — it is the trace id (see
    // TraceIdField below); a 6th still is.
    EXPECT_FALSE(
        net::parseStreamHello("DLWS1 csv t bulk x extra", h).ok());
}

TEST(StreamHello, RenderOmitsDefaultClassForWireCompat)
{
    // The default (interactive) class renders exactly the pre-QoS
    // hello: old servers keep accepting new clients.
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kCsv, "t"),
              "DLWS1 csv t\n");
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kCsv, "t",
                                     qos::WorkClass::kInteractive),
              "DLWS1 csv t\n");
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kBin, "t",
                                     qos::WorkClass::kBulk),
              "DLWS1 bin t bulk\n");
    // A classed hello with no tenant still needs the tenant slot.
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kCsv, "",
                                     qos::WorkClass::kBackground),
              "DLWS1 csv anon background\n");
    // Render/parse round trip.
    net::StreamHello h;
    ASSERT_TRUE(net::parseStreamHello(
                    "DLWS1 bin t bulk", h).ok());
    EXPECT_EQ(net::renderStreamHello(h.format, h.tenant, h.klass),
              "DLWS1 bin t bulk\n");
}

TEST(StreamHello, TraceIdField)
{
    net::StreamHello h;
    // No trace field: empty id (the pre-tracing wire).
    ASSERT_TRUE(net::parseStreamHello("DLWS1 csv t bulk", h).ok());
    EXPECT_TRUE(h.trace_id.empty());

    ASSERT_TRUE(
        net::parseStreamHello("DLWS1 csv t bulk req-9.a_b", h).ok());
    EXPECT_EQ(h.tenant, "t");
    EXPECT_EQ(h.klass, qos::WorkClass::kBulk);
    EXPECT_EQ(h.trace_id, "req-9.a_b");

    // A traced hello forces the tenant and class slots, so the
    // renderer fills defaults positionally.
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kCsv, "t",
                                     qos::WorkClass::kBulk, "req-9"),
              "DLWS1 csv t bulk req-9\n");
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kCsv, "",
                                     qos::WorkClass::kInteractive,
                                     "req-9"),
              "DLWS1 csv anon interactive req-9\n");
    // No trace id: bytes identical to the pre-tracing hello.
    EXPECT_EQ(net::renderStreamHello(net::StreamFormat::kCsv, "t",
                                     qos::WorkClass::kBulk, ""),
              "DLWS1 csv t bulk\n");

    // Render/parse round trip through all five fields.
    ASSERT_TRUE(net::parseStreamHello("DLWS1 bin t background x.1",
                                      h).ok());
    EXPECT_EQ(net::renderStreamHello(h.format, h.tenant, h.klass,
                                     h.trace_id),
              "DLWS1 bin t background x.1\n");

    // Bad ids: charset and length are both enforced.
    EXPECT_FALSE(
        net::parseStreamHello("DLWS1 csv t bulk bad*id", h).ok());
    EXPECT_FALSE(net::parseStreamHello(
                     "DLWS1 csv t bulk " + std::string(65, 'x'), h)
                     .ok());
    EXPECT_FALSE(net::parseStreamHello(
                     "DLWS1 csv t bulk id extra", h).ok());
}

TEST(StreamHello, AckCarriesServerTimestamp)
{
    // The ack appends the server clock so clients can align the two
    // timelines.
    EXPECT_EQ(net::renderStreamAck("s-1", 12345),
              "DLWS1 ok s-1 12345\n");
}

TEST(StreamHello, IdTokenRule)
{
    EXPECT_TRUE(net::isIdToken("a"));
    EXPECT_TRUE(net::isIdToken("Acme-9.x_y"));
    EXPECT_TRUE(net::isIdToken(std::string(64, 'x')));
    EXPECT_FALSE(net::isIdToken(""));
    EXPECT_FALSE(net::isIdToken(std::string(65, 'x')));
    for (const char *bad : {"a/b", "../x", "a\"b", "a b", "a\\b", "\xc3\xa9"})
        EXPECT_FALSE(net::isIdToken(bad)) << bad;

    // The hello says which half of the rule a tenant broke.
    net::StreamHello h;
    EXPECT_EQ(net::parseStreamHello("DLWS1 csv " + std::string(65, 't'), h)
                  .message(),
              "bad tenant id length");
    EXPECT_EQ(net::parseStreamHello("DLWS1 csv a/b", h).message(),
              "bad tenant id (want [A-Za-z0-9._-])");
}

// ---------------------------------------------------------------------------
// Stream decoder, CSV

/** A small well-formed CSV trace (n records, 1 ms apart). */
std::string
csvTrace(std::size_t n)
{
    std::ostringstream os;
    os << "# dlw-ms-v1,drv-a,0," << (n + 1) * 1000000ull << "\n";
    os << "arrival_ns,lba,blocks,op\n";
    for (std::size_t i = 0; i < n; ++i) {
        os << i * 1000000ull << ',' << (i * 64) % 4096 << ','
           << 8 + (i % 3) * 8 << ',' << (i % 4 == 0 ? 'W' : 'R')
           << '\n';
    }
    return os.str();
}

/** Feed `payload` to a decoder in fragments of `step` bytes. */
Status
feed(net::StreamDecoder &dec, const std::string &payload,
     std::size_t step)
{
    net::ByteQueue q;
    for (std::size_t off = 0; off < payload.size(); off += step) {
        q.append(payload.data() + off,
                 std::min(step, payload.size() - off));
        Status s = dec.drain(q);
        if (!s.ok())
            return s;
    }
    return dec.endOfInput();
}

TEST(StreamDecoderCsv, PartialReadsAnySplit)
{
    const std::string payload = csvTrace(50);
    for (std::size_t step : {1ul, 3ul, 7ul, 64ul, payload.size()}) {
        net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
        ASSERT_TRUE(feed(dec, payload, step).ok()) << "step " << step;
        EXPECT_TRUE(dec.done());
        EXPECT_EQ(dec.records(), 50u);
        EXPECT_EQ(dec.header().drive_id, "drv-a");
        trace::RequestBatch batch(16);
        std::size_t total = 0;
        while (dec.take(batch))
            total += batch.size();
        EXPECT_EQ(total, 50u);
    }
}

TEST(StreamDecoderCsv, DeliversOnlyFullBatchesWhileLive)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
    net::ByteQueue q;
    q.append(csvTrace(10));
    ASSERT_TRUE(dec.drain(q).ok());
    trace::RequestBatch batch(16);
    // 10 < capacity 16 and the stream is still live: no delivery.
    EXPECT_FALSE(dec.take(batch));
    ASSERT_TRUE(dec.endOfInput().ok());
    EXPECT_TRUE(dec.take(batch));
    EXPECT_EQ(batch.size(), 10u);
}

TEST(StreamDecoderCsv, BadHeaderFails)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
    net::ByteQueue q;
    q.append("# not-a-trace,x\n");
    EXPECT_FALSE(dec.drain(q).ok());
}

TEST(StreamDecoderCsv, CorruptRecordAborts)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
    net::ByteQueue q;
    q.append("# dlw-ms-v1,d,0,1000000000\n"
             "arrival_ns,lba,blocks,op\n"
             "12,34,0,R\n"); // zero-length request
    EXPECT_FALSE(dec.drain(q).ok());
}

TEST(StreamDecoderCsv, OversizedLineFails)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, 64);
    net::ByteQueue q;
    q.append(std::string(80, 'x')); // no newline in sight
    EXPECT_FALSE(dec.drain(q).ok());
}

TEST(StreamDecoderCsv, EofBeforeHeaderIsTruncated)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
    EXPECT_FALSE(dec.endOfInput().ok());
}

// ---------------------------------------------------------------------------
// Stream decoder, binary

/** A DLWMS1 header announcing `count` records. */
std::string
binHeader(const std::string &id, std::int64_t start, std::int64_t duration,
          std::uint64_t count)
{
    std::string out(trace::kMsBinaryMagic.begin(),
                    trace::kMsBinaryMagic.end());
    const std::uint32_t id_len = static_cast<std::uint32_t>(id.size());
    out.append(reinterpret_cast<const char *>(&id_len), 4);
    out += id;
    out.append(reinterpret_cast<const char *>(&start), 8);
    out.append(reinterpret_cast<const char *>(&duration), 8);
    out.append(reinterpret_cast<const char *>(&count), 8);
    return out;
}

/** The raw DLWMS1 byte stream matching csvTrace(n). */
std::string
binTrace(std::size_t n)
{
    std::string out = binHeader(
        "drv-a", 0, static_cast<std::int64_t>((n + 1) * 1000000ull), n);
    for (std::size_t i = 0; i < n; ++i) {
        trace::MsRawRecord r{};
        r.arrival = static_cast<std::int64_t>(i * 1000000ull);
        r.lba = (i * 64) % 4096;
        r.blocks = static_cast<std::uint32_t>(8 + (i % 3) * 8);
        r.op = (i % 4 == 0) ? 1 : 0;
        out.append(reinterpret_cast<const char *>(&r), sizeof(r));
    }
    return out;
}

/** Chop a raw payload into wire frames of `frame_bytes` each. */
std::string
frame(const std::string &raw, std::size_t frame_bytes,
      bool end_frame = true)
{
    std::string out;
    for (std::size_t off = 0; off < raw.size(); off += frame_bytes) {
        net::appendFrame(out, raw.data() + off,
                         std::min(frame_bytes, raw.size() - off));
    }
    if (end_frame)
        net::appendEndFrame(out);
    return out;
}

TEST(StreamDecoderBin, PartialReadsAnySplit)
{
    const std::string payload = frame(binTrace(40), 37);
    for (std::size_t step : {1ul, 5ul, 13ul, 101ul, payload.size()}) {
        net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
        ASSERT_TRUE(feed(dec, payload, step).ok()) << "step " << step;
        EXPECT_TRUE(dec.done());
        EXPECT_EQ(dec.records(), 40u);
    }
}

TEST(StreamDecoderBin, AbruptEofIsTruncated)
{
    const std::string payload = frame(binTrace(40), 64,
                                      /*end_frame=*/false);
    net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
    net::ByteQueue q;
    q.append(payload);
    ASSERT_TRUE(dec.drain(q).ok());
    EXPECT_FALSE(dec.done());
    EXPECT_FALSE(dec.endOfInput().ok());
}

TEST(StreamDecoderBin, OversizedFrameFails)
{
    net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
    net::ByteQueue q;
    const std::uint32_t huge = net::kMaxFrameBytes + 1;
    q.append(reinterpret_cast<const char *>(&huge), 4);
    EXPECT_FALSE(dec.drain(q).ok());
}

TEST(StreamDecoderBin, ShortRecordCountFails)
{
    // End frame lands while records are missing.
    std::string raw = binTrace(10);
    raw.resize(raw.size() - sizeof(trace::MsRawRecord));
    net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
    net::ByteQueue q;
    q.append(frame(raw, 4096));
    EXPECT_FALSE(dec.drain(q).ok());
}

TEST(StreamDecoderBin, TrailingBytesFail)
{
    std::string raw = binTrace(10);
    raw += "junk";
    net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
    net::ByteQueue q;
    q.append(frame(raw, 4096));
    EXPECT_FALSE(dec.drain(q).ok());
}

TEST(StreamDecoderBin, BadMagicFails)
{
    std::string raw = binTrace(5);
    raw[0] = 'X';
    net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
    net::ByteQueue q;
    q.append(frame(raw, 4096));
    EXPECT_FALSE(dec.drain(q).ok());
}

// ---------------------------------------------------------------------------
// Stream decoder: adversarial inputs across the split matrix.  A
// malformed stream must fail identically whether it arrives whole or
// one byte at a time (short reads reorder nothing, only fragment).

/** Feed until the decoder errors; returns the first bad Status. */
Status
feedExpectError(net::StreamFormat format, const std::string &payload)
{
    for (std::size_t step : {1ul, 3ul, 7ul, 64ul}) {
        net::StreamDecoder dec(format, 1 << 20);
        const Status s = feed(dec, payload, step);
        EXPECT_FALSE(s.ok()) << "step " << step << " accepted garbage";
        if (s.ok())
            return s;
    }
    net::StreamDecoder dec(format, 1 << 20);
    return feed(dec, payload, payload.size());
}

TEST(StreamDecoderCsv, GarbageRecordAnySplit)
{
    const std::string payload =
        "# dlw-ms-v1,d,0,1000000000\n"
        "arrival_ns,lba,blocks,op\n"
        "100,64,8,R\n"
        "not,a,record,at all\n";
    EXPECT_FALSE(feedExpectError(net::StreamFormat::kCsv,
                                 payload).ok());
}

TEST(StreamDecoderCsv, TruncatedStreamAnySplit)
{
    // Header only, cut before any record line completes: every split
    // must agree the stream is truncated at end-of-input.
    const std::string payload = "# dlw-ms-v1,d,0,1000000000\n"
                                "arrival_ns,lba,blocks,op\n"
                                "100,64,8"; // no newline, no op
    for (std::size_t step : {1ul, 3ul, 7ul, 64ul}) {
        net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
        net::ByteQueue q;
        for (std::size_t off = 0; off < payload.size(); off += step) {
            q.append(payload.data() + off,
                     std::min(step, payload.size() - off));
            ASSERT_TRUE(dec.drain(q).ok()) << "step " << step;
        }
        EXPECT_FALSE(dec.done()) << "step " << step;
    }
}

TEST(StreamDecoderBin, GarbageRecordAnySplit)
{
    // Flip bytes inside the record region (op field becomes junk).
    std::string raw = binTrace(10);
    for (std::size_t i = raw.size() - sizeof(trace::MsRawRecord);
         i < raw.size(); ++i)
        raw[i] = '\xff';
    EXPECT_FALSE(feedExpectError(net::StreamFormat::kBin,
                                 frame(raw, 37)).ok());
}

TEST(StreamDecoderBin, OversizedFrameAnySplit)
{
    // The poisoned length prefix must be caught even when it arrives
    // one byte at a time (partial-prefix accumulation).
    std::string payload;
    const std::uint32_t huge = net::kMaxFrameBytes + 1;
    payload.append(reinterpret_cast<const char *>(&huge), 4);
    payload.append(16, 'z');
    for (std::size_t step : {1ul, 2ul, 3ul, 5ul}) {
        net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
        net::ByteQueue q;
        bool failed = false;
        for (std::size_t off = 0; off < payload.size() && !failed;
             off += step) {
            q.append(payload.data() + off,
                     std::min(step, payload.size() - off));
            failed = !dec.drain(q).ok();
        }
        EXPECT_TRUE(failed) << "step " << step;
    }
}

// ---------------------------------------------------------------------------
// Timer wheel

TEST(TimerWheel, ExpiresInDeadlineOrderAcrossTicks)
{
    net::TimerWheel w(1'000'000, 8); // 1 ms slots, 8 of them
    std::vector<std::uint64_t> due;
    w.expire(0, due); // prime the tick cursor
    ASSERT_TRUE(due.empty());

    w.schedule(1, 5'000'000);
    w.schedule(2, 3'000'000);
    w.schedule(3, 50'000'000); // several laps out
    EXPECT_EQ(w.size(), 3u);
    EXPECT_EQ(w.nextDeadline(), 3'000'000u);

    w.expire(2'000'000, due);
    EXPECT_TRUE(due.empty());

    w.expire(3'500'000, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 2u);
    due.clear();

    // A long sleep spanning more than one lap drains everything due.
    w.expire(60'000'000, due);
    std::sort(due.begin(), due.end());
    ASSERT_EQ(due.size(), 2u);
    EXPECT_EQ(due[0], 1u);
    EXPECT_EQ(due[1], 3u);
    EXPECT_EQ(w.size(), 0u);
    EXPECT_EQ(w.nextDeadline(), UINT64_MAX);
}

TEST(TimerWheel, SameTickScheduleFiresNextExpire)
{
    // A deadline scheduled into the current (already-swept) tick must
    // fire on the next expire(), not a full lap later.
    net::TimerWheel w(10'000'000, 256);
    std::vector<std::uint64_t> due;
    w.expire(100'000'000, due);
    w.schedule(7, 100'000'001); // same 10 ms tick, already past
    w.expire(100'000'002, due);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0], 7u);
}

TEST(TimerWheel, RearmKeepsLazyEntries)
{
    // Re-arming adds an entry; the stale one still surfaces and the
    // caller is expected to revalidate (lazy cancellation).
    net::TimerWheel w(1'000'000, 16);
    std::vector<std::uint64_t> due;
    w.expire(0, due);
    w.schedule(9, 2'000'000);
    w.schedule(9, 8'000'000);
    EXPECT_EQ(w.size(), 2u);
    w.expire(3'000'000, due);
    ASSERT_EQ(due.size(), 1u); // the stale entry
    EXPECT_EQ(due[0], 9u);
    due.clear();
    w.expire(9'000'000, due);
    ASSERT_EQ(due.size(), 1u); // the live one
    EXPECT_EQ(due[0], 9u);
}

// ---------------------------------------------------------------------------
// BinEnc / BinDec

TEST(BinEnc, RoundTripsEveryField)
{
    std::string blob;
    BinEnc enc(blob);
    enc.u8(0xab);
    enc.u32(0xdeadbeefu);
    enc.u64(0x0123456789abcdefull);
    enc.i64(-42);
    enc.f64(0.1); // not exactly representable: bit-exactness matters
    enc.str("hello");
    enc.f64vec({1.5, -2.25, 1e-300});

    BinDec dec(blob);
    EXPECT_EQ(dec.u8(), 0xab);
    EXPECT_EQ(dec.u32(), 0xdeadbeefu);
    EXPECT_EQ(dec.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(dec.i64(), -42);
    EXPECT_EQ(dec.f64(), 0.1);
    EXPECT_EQ(dec.str(), "hello");
    const std::vector<double> v = dec.f64vec();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], -2.25);
    EXPECT_TRUE(dec.ok());
    EXPECT_EQ(dec.remaining(), 0u);
}

TEST(BinDec, TruncationLatchesFailure)
{
    std::string blob;
    BinEnc enc(blob);
    enc.u64(7);
    enc.str("payload");
    for (std::size_t cut = 0; cut < blob.size(); ++cut) {
        BinDec dec(blob.data(), cut);
        dec.u64();
        dec.str();
        EXPECT_FALSE(dec.ok()) << "cut " << cut;
        // Latched: everything after the failure reads as zero.
        EXPECT_EQ(dec.u64(), 0u);
        EXPECT_EQ(dec.str(), "");
    }
}

TEST(BinDec, PoisonedLengthRejectedBeforeAllocation)
{
    std::string blob;
    BinEnc enc(blob);
    enc.u64(UINT64_MAX); // claims ~16 EiB of string
    blob += "xx";
    BinDec dec(blob);
    EXPECT_EQ(dec.str(), "");
    EXPECT_FALSE(dec.ok());

    std::string blob2;
    BinEnc enc2(blob2);
    enc2.u64(UINT64_MAX / 4); // n * 8 wraps to 2^64 - 8
    BinDec dec2(blob2);
    EXPECT_TRUE(dec2.f64vec().empty());
    EXPECT_FALSE(dec2.ok());

    std::string blob3;
    BinEnc enc3(blob3);
    enc3.u64(std::uint64_t{1} << 61); // n * 8 wraps to 0
    blob3 += "xx";
    BinDec dec3(blob3);
    EXPECT_TRUE(dec3.f64vec().empty());
    EXPECT_FALSE(dec3.ok());
}

TEST(BurstinessCheckpoint, WrappingScaleCountRejected)
{
    core::BurstinessAccumulator acc;
    std::string blob;
    BinEnc enc(blob);
    acc.saveState(enc);
    // The scale count follows the 8-byte base bin; 2^61 scales of 8
    // bytes each wrap to 0 bytes.
    const std::uint64_t wraps = std::uint64_t{1} << 61;
    std::memcpy(&blob[8], &wraps, sizeof wraps);
    core::BurstinessAccumulator back;
    BinDec dec(blob);
    EXPECT_FALSE(back.loadState(dec));
}

// ---------------------------------------------------------------------------
// Decoder checkpoint: save mid-stream, restore, finish elsewhere.

TEST(StreamDecoderCsv, SaveRestoreMidStreamAnySplit)
{
    const std::string payload = csvTrace(90);
    for (std::size_t step : {1ul, 3ul, 7ul, 64ul}) {
        const std::size_t half = payload.size() / 2;
        net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
        net::ByteQueue q;
        for (std::size_t off = 0; off < half; off += step) {
            q.append(payload.data() + off,
                     std::min(step, half - off));
            ASSERT_TRUE(dec.drain(q).ok());
        }

        std::string blob;
        BinEnc enc(blob);
        dec.saveState(enc);

        net::StreamDecoder back(net::StreamFormat::kCsv, 1 << 20);
        BinDec bd(blob);
        ASSERT_TRUE(back.loadState(bd)) << "step " << step;

        // The un-consumed queue remainder plus the rest of the
        // payload finish the restored decoder exactly.
        std::string rest(q.data(), q.size());
        q.consume(q.size());
        rest.append(payload.data() + half, payload.size() - half);
        ASSERT_TRUE(feed(back, rest, step).ok()) << "step " << step;
        EXPECT_TRUE(back.done());
        EXPECT_EQ(back.records(), 90u);
    }
}

TEST(StreamDecoderBin, SaveRestoreMidFrame)
{
    const std::string payload = frame(binTrace(60), 41);
    const std::size_t cut = payload.size() / 3 + 1; // mid-frame
    net::StreamDecoder dec(net::StreamFormat::kBin, 1 << 20);
    net::ByteQueue q;
    q.append(payload.data(), cut);
    ASSERT_TRUE(dec.drain(q).ok());

    std::string blob;
    BinEnc enc(blob);
    dec.saveState(enc);

    net::StreamDecoder back(net::StreamFormat::kBin, 1 << 20);
    BinDec bd(blob);
    ASSERT_TRUE(back.loadState(bd));
    std::string rest(q.data(), q.size());
    q.consume(q.size());
    rest.append(payload.data() + cut, payload.size() - cut);
    ASSERT_TRUE(feed(back, rest, 13).ok());
    EXPECT_TRUE(back.done());
    EXPECT_EQ(back.records(), 60u);
}

TEST(StreamDecoder, GarbledStateRejected)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, 1 << 20);
    net::ByteQueue q;
    q.append(csvTrace(20));
    ASSERT_TRUE(dec.drain(q).ok());
    std::string blob;
    BinEnc enc(blob);
    dec.saveState(enc);

    // Every strict prefix must be rejected, never half-loaded.
    for (std::size_t cut = 0; cut < blob.size();
         cut += std::max<std::size_t>(1, blob.size() / 37)) {
        net::StreamDecoder back(net::StreamFormat::kCsv, 1 << 20);
        BinDec bd(blob.data(), cut);
        EXPECT_FALSE(back.loadState(bd)) << "cut " << cut;
    }
}

// ---------------------------------------------------------------------------
// Wire/file equivalence: a streamed trace characterizes exactly like
// the same bytes read from disk.

/** Write `content` to a unique temp file; returns its path. */
std::string
writeTemp(const std::string &content, const std::string &suffix)
{
    static int seq = 0;
    std::string path = ::testing::TempDir() + "dlw_daemon_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(seq++) + suffix;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
}

/** The batch path: file -> openMsSource -> LiveCharacterization. */
std::string
characterizeFile(const std::string &path)
{
    auto src =
        trace::openMsSource(path, trace::IngestOptions{}).valueOrThrow();
    trace::MsStreamHeader meta;
    meta.drive_id = src->driveId();
    meta.start = src->start();
    meta.duration = src->duration();
    core::LiveCharacterization live(meta);
    trace::RequestBatch batch;
    while (src->next(batch)) {
        const Status s = live.observe(batch);
        if (!s.ok())
            throw StatusError(s);
    }
    const Status st = src->status();
    if (!st.ok())
        throw StatusError(st);
    return live.finish().render();
}

TEST(SessionEquivalence, CsvSessionMatchesBatch)
{
    const std::string payload = csvTrace(200);
    const std::string path = writeTemp(payload, ".csv");

    daemon::Session s("t-1", "t", net::StreamFormat::kCsv);
    net::ByteQueue q;
    for (std::size_t off = 0; off < payload.size(); off += 7) {
        q.append(payload.data() + off,
                 std::min<std::size_t>(7, payload.size() - off));
        const Status st = s.consume(q);
        ASSERT_TRUE(st.ok()) << st.toString();
    }
    const Status st = s.finishInput(q);
    ASSERT_TRUE(st.ok()) << st.toString();
    EXPECT_EQ(s.finalReportText(), characterizeFile(path));
    EXPECT_EQ(s.state(), daemon::SessionState::kDone);
    std::remove(path.c_str());
}

TEST(SessionEquivalence, BinSessionMatchesCsvSession)
{
    // Same records, both encodings: identical reports.
    daemon::Session cs("c-1", "c", net::StreamFormat::kCsv);
    net::ByteQueue cq;
    cq.append(csvTrace(120));
    ASSERT_TRUE(cs.consume(cq).ok());
    ASSERT_TRUE(cs.finishInput(cq).ok());

    daemon::Session bs("b-1", "b", net::StreamFormat::kBin);
    net::ByteQueue bq;
    bq.append(frame(binTrace(120), 333));
    ASSERT_TRUE(bs.consume(bq).ok());
    ASSERT_TRUE(bs.finishInput(bq).ok());

    EXPECT_EQ(cs.finalReportText(), bs.finalReportText());
}

TEST(Session, MidStreamJsonReport)
{
    daemon::Session s("t-2", "t", net::StreamFormat::kCsv);
    net::ByteQueue q;
    q.append(csvTrace(5000));
    ASSERT_TRUE(s.consume(q).ok());
    const std::string json = s.reportJson();
    EXPECT_NE(json.find("\"state\":\"streaming\""), std::string::npos);
    EXPECT_NE(json.find("\"characterization\":{"), std::string::npos);
    // The snapshot must not perturb the final result.
    ASSERT_TRUE(s.finishInput(q).ok());
    daemon::Session ref("t-3", "t", net::StreamFormat::kCsv);
    net::ByteQueue rq;
    rq.append(csvTrace(5000));
    ASSERT_TRUE(ref.consume(rq).ok());
    ASSERT_TRUE(ref.finishInput(rq).ok());
    EXPECT_EQ(s.finalReportText(), ref.finalReportText());
}

TEST(Session, ReportCarriesTimingAndStages)
{
    daemon::Session s("t-4", "t", net::StreamFormat::kCsv,
                      qos::WorkClass::kInteractive, "req-42");
    EXPECT_EQ(s.traceId(), "req-42");
    net::ByteQueue q;
    q.append(csvTrace(200));
    ASSERT_TRUE(s.consume(q).ok());
    ASSERT_TRUE(s.finishInput(q).ok());
    s.finalReportText();

    const std::string json = s.reportJson();
    EXPECT_NE(json.find("\"trace\":\"req-42\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"started_at_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"duration_ms\":"), std::string::npos);
    EXPECT_NE(json.find("\"records_per_s\":"), std::string::npos);
    // decode/fold were noted by consume(), merge by the final render;
    // read/admit belong to the server loop and stay absent here.
    EXPECT_NE(json.find("\"stages\":{"), std::string::npos);
    EXPECT_NE(json.find("\"decode\":{\"count\":"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"merge\":{\"count\":"), std::string::npos)
        << json;
    EXPECT_EQ(json.find("\"read\":{"), std::string::npos) << json;

    // An untraced session's report has no trace key at all.
    daemon::Session u("t-5", "t", net::StreamFormat::kCsv);
    EXPECT_EQ(u.traceId(), "");
    EXPECT_EQ(u.tlSpan(), nullptr);
    EXPECT_EQ(u.reportJson().find("\"trace\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live server integration

/** Blocking client socket with a receive timeout. */
class TestClient
{
  public:
    explicit TestClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        timeval tv{10, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        connected_ =
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0;
    }

    ~TestClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    void
    send(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t w = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(w, 0);
            off += static_cast<std::size_t>(w);
        }
    }

    void halfClose() { ::shutdown(fd_, SHUT_WR); }

    std::string
    recvLine()
    {
        std::string line;
        char c = 0;
        while (::read(fd_, &c, 1) == 1) {
            if (c == '\n')
                break;
            line += c;
        }
        return line;
    }

    std::string
    recvAll()
    {
        std::string all;
        char buf[4096];
        ssize_t r;
        while ((r = ::read(fd_, buf, sizeof(buf))) > 0)
            all.append(buf, static_cast<std::size_t>(r));
        return all;
    }

    std::string
    recvBytes(std::size_t n)
    {
        std::string out;
        char buf[4096];
        while (out.size() < n) {
            const ssize_t r = ::read(
                fd_, buf,
                std::min(sizeof(buf), n - out.size()));
            if (r <= 0)
                break;
            out.append(buf, static_cast<std::size_t>(r));
        }
        return out;
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
};

/** A running server plus its loop thread. */
class ServerFixture
{
  public:
    explicit ServerFixture(daemon::ServerConfig cfg)
    {
        cfg.port = 0;
        server_ = std::make_unique<daemon::Server>(cfg);
        const Status s = server_->start();
        EXPECT_TRUE(s.ok()) << s.toString();
        thread_ = std::thread([this] { run_status_ = server_->run(); });
    }

    ~ServerFixture() { stop(); }

    void
    stop()
    {
        if (!thread_.joinable())
            return;
        server_->requestStop();
        thread_.join();
        EXPECT_TRUE(run_status_.ok()) << run_status_.toString();
    }

    std::uint16_t port() const { return server_->port(); }

  private:
    std::unique_ptr<daemon::Server> server_;
    std::thread thread_;
    Status run_status_;
};

/** The raw response (status line, head and body) to one GET. */
std::string
httpGet(std::uint16_t port, const std::string &target)
{
    net::Endpoint to;
    to.port = port;
    to.io_timeout_ms = 10000;
    StatusOr<std::string> r = net::httpGet(to, target);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    return r.ok() ? r.value() : std::string();
}

/** Session id from a "DLWS1 ok <id> <ts>" ack (first token only). */
std::string
ackSessionId(const std::string &ack)
{
    std::string id = ack.substr(std::strlen("DLWS1 ok "));
    const std::size_t sp = id.find(' ');
    if (sp != std::string::npos)
        id.resize(sp);
    return id;
}

TEST(ServerIntegration, HealthzAndMetrics)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    const std::string health = httpGet(f.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(health.find("\"version\":\"dlwd/1.0\""),
              std::string::npos);
    EXPECT_NE(health.find("\"uptime_s\":"), std::string::npos);
    EXPECT_NE(health.find("\"active_sessions\":0"), std::string::npos);
    const std::string prom = httpGet(f.port(), "/metrics");
    EXPECT_NE(prom.find("dlw_net_accepted_total"), std::string::npos);
    EXPECT_NE(prom.find("dlw_daemon_sessions_opened_total"),
              std::string::npos);
    const std::string missing =
        httpGet(f.port(), "/v1/sessions/nope/report");
    EXPECT_NE(missing.find("404"), std::string::npos);
}

TEST(ServerIntegration, CsvSessionEndToEnd)
{
    obs::ScopedEnable metrics;
    const std::string payload = csvTrace(300);
    const std::string path = writeTemp(payload, ".csv");
    const std::string expected = characterizeFile(path);
    std::remove(path.c_str());

    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "acme"));
    const std::string ack = c.recvLine();
    ASSERT_NE(ack.find("DLWS1 ok acme-"), std::string::npos) << ack;

    c.send(payload);
    c.halfClose();

    const std::string head = c.recvLine();
    ASSERT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
    const std::size_t nbytes = static_cast<std::size_t>(
        std::stoul(head.substr(std::strlen("DLWR1 ok "))));
    EXPECT_EQ(c.recvBytes(nbytes), expected);
}

TEST(NetClient, StreamSessionMatchesBatchForCsvAndBin)
{
    const std::string path = writeTemp(csvTrace(300), ".csv");
    const std::string expected = characterizeFile(path);
    std::remove(path.c_str());

    ServerFixture f(daemon::ServerConfig{});
    net::Endpoint to;
    to.port = f.port();
    to.io_timeout_ms = 10000;
    net::StreamHello hello;
    hello.tenant = "cli";
    std::string acked;
    std::istringstream csv(csvTrace(300));
    StatusOr<net::StreamReply> r = net::streamSession(
        to, hello, csv,
        [&](const net::StreamReply &ack) { acked = ack.session_id; });
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().report, expected);
    EXPECT_EQ(r.value().session_id, acked);
    EXPECT_EQ(acked.rfind("cli-", 0), 0u) << acked;
    EXPECT_NE(r.value().server_ack_ns, 0u);

    // The client frames a bin payload; the report is the same bytes.
    hello.format = net::StreamFormat::kBin;
    const std::string bin = binTrace(300);
    r = net::streamSession(to, hello, std::string_view(bin));
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value().report, expected);
}

TEST(NetClient, FailuresCarryTheirRetryClass)
{
    net::Endpoint to;
    to.io_timeout_ms = 10000;
    net::StreamHello hello;
    const std::string payload = csvTrace(10);
    {
        // Shed before admission: Unavailable, worth a retry.
        daemon::ServerConfig cfg;
        cfg.max_connections = 0;
        ServerFixture f(cfg);
        to.port = f.port();
        StatusOr<net::StreamReply> r =
            net::streamSession(to, hello, std::string_view(payload));
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
        EXPECT_EQ(r.status().message(), "server overloaded");
    }
    ServerFixture f(daemon::ServerConfig{});
    to.port = f.port();

    // The server rejecting the payload: FailedPrecondition, with the
    // server's text.
    StatusOr<net::StreamReply> r = net::streamSession(
        to, hello, std::string_view("# not-a-trace,x\n"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
        << r.status().toString();
    EXPECT_FALSE(r.status().message().empty());

    // HTTP: a 200 yields its body; anything else names the status.
    StatusOr<std::string> health = net::httpGetBody(to, "/healthz");
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_EQ(health.value().rfind("{\"status\":\"ok\"", 0), 0u)
        << health.value();
    StatusOr<std::string> missing = net::httpGetBody(to, "/nope");
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.status().message().find("404"), std::string::npos)
        << missing.status().toString();

    // Nobody listening: a connection-level Unavailable.
    f.stop();
    r = net::streamSession(to, hello, std::string_view(payload));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(r.status().message().rfind("connect 127.0.0.1:", 0), 0u)
        << r.status().toString();
}

TEST(ServerIntegration, QosOnReportsStayByteIdentical)
{
    obs::ScopedEnable metrics;
    const std::string payload = csvTrace(300);
    const std::string path = writeTemp(payload, ".csv");
    const std::string expected = characterizeFile(path);
    std::remove(path.c_str());

    daemon::ServerConfig cfg;
    cfg.qos = true;
    ServerFixture f(cfg);

    // A bulk-tagged session on an idle daemon streams through
    // unthrottled and its report matches batch characterize byte
    // for byte — QoS touches scheduling, never results.
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "acme",
                                  qos::WorkClass::kBulk));
    const std::string ack = c.recvLine();
    ASSERT_NE(ack.find("DLWS1 ok acme-"), std::string::npos) << ack;
    c.send(payload);
    c.halfClose();
    const std::string head = c.recvLine();
    ASSERT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
    const std::size_t nbytes = static_cast<std::size_t>(
        std::stoul(head.substr(std::strlen("DLWR1 ok "))));
    EXPECT_EQ(c.recvBytes(nbytes), expected);

    // The session list reports the negotiated tag.
    const std::string list = httpGet(f.port(), "/v1/sessions");
    EXPECT_NE(list.find("\"tenant\":\"acme\""), std::string::npos)
        << list;
    EXPECT_NE(list.find("\"class\":\"bulk\""), std::string::npos)
        << list;

    // The qos.* schema is live on /metrics with the ratekeeper on.
    const std::string prom = httpGet(f.port(), "/metrics");
    EXPECT_NE(prom.find("dlw_qos_ratekeeper_ticks_total"),
              std::string::npos);
    EXPECT_NE(prom.find("dlw_qos_tag_admitted_total"),
              std::string::npos);
}

TEST(ServerIntegration, SessionListReportsDefaultTagWithQosOff)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "solo"));
    c.recvLine();
    c.send(csvTrace(20));
    c.halfClose();
    c.recvAll();
    const std::string list = httpGet(f.port(), "/v1/sessions");
    EXPECT_NE(list.find("\"tenant\":\"solo\""), std::string::npos)
        << list;
    EXPECT_NE(list.find("\"class\":\"interactive\""),
              std::string::npos)
        << list;
}

TEST(ServerIntegration, TracedSessionAckClockAndReport)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "acme",
                                  qos::WorkClass::kInteractive,
                                  "req-ack"));
    const std::string ack = c.recvLine();
    ASSERT_NE(ack.find("DLWS1 ok "), std::string::npos) << ack;
    // "DLWS1 ok <id> <ts>": the ack's 4th field is the server's
    // monotonic clock, a bare non-negative integer.
    const std::string session_id = ackSessionId(ack);
    const std::size_t last_sp = ack.rfind(' ');
    const std::string ts = ack.substr(last_sp + 1);
    ASSERT_NE(ts, session_id) << ack; // the 4th field exists
    ASSERT_FALSE(ts.empty());
    for (const char ch : ts)
        EXPECT_TRUE(ch >= '0' && ch <= '9') << ack;

    c.send(csvTrace(30));
    c.halfClose();
    c.recvAll();

    // The session report carries the trace id and the server-side
    // stage latencies (read/decode noted by the loop thread).
    const std::string json = httpGet(
        f.port(), "/v1/sessions/" + session_id + "/report");
    EXPECT_NE(json.find("\"trace\":\"req-ack\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"read\":{\"count\":"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"decode\":{\"count\":"), std::string::npos)
        << json;
}

TEST(ServerIntegration, StatsEndpoint)
{
    obs::ScopedEnable metrics;
    daemon::ServerConfig cfg;
    cfg.qos = true;
    ServerFixture f(cfg);
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "acme",
                                  qos::WorkClass::kBulk));
    c.recvLine();
    c.send(csvTrace(50));
    c.halfClose();
    c.recvAll();

    const std::string resp = httpGet(f.port(), "/v1/stats");
    EXPECT_NE(resp.find("200 OK"), std::string::npos);
    const std::size_t split = resp.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    const auto doc = obs::parseJson(resp.substr(split + 4));
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const obs::JsonValue &v = doc.value();
    EXPECT_NE(v.find("uptime_s"), nullptr);
    EXPECT_NE(v.find("fold_p95_us"), nullptr);
    ASSERT_NE(v.find("pool"), nullptr);
    EXPECT_NE(v.find("pool")->find("queue_depth"), nullptr);
    const obs::JsonValue *stages = v.find("stages");
    ASSERT_NE(stages, nullptr);
    ASSERT_NE(stages->find("decode"), nullptr);
    EXPECT_GE(stages->find("decode")->find("count")->number, 1.0);
    const obs::JsonValue *tenants = v.find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->items.size(), 1u);
    EXPECT_EQ(tenants->items[0].find("tenant")->str, "acme");
    EXPECT_EQ(tenants->items[0].find("class")->str, "bulk");
    const obs::JsonValue *qosv = v.find("qos");
    ASSERT_NE(qosv, nullptr);
    EXPECT_TRUE(qosv->find("enabled")->boolean);
    ASSERT_NE(qosv->find("limits"), nullptr);
    EXPECT_NE(qosv->find("limits")->find("bulk"), nullptr);
    const obs::JsonValue *tags = qosv->find("tags");
    ASSERT_NE(tags, nullptr);
    ASSERT_EQ(tags->items.size(), 1u);
    EXPECT_EQ(tags->items[0].find("tenant")->str, "acme");
    EXPECT_EQ(tags->items[0].find("class")->str, "bulk");
}

TEST(ServerIntegration, SessionListCarriesTimingFields)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "acme",
                                  qos::WorkClass::kInteractive,
                                  "req-list-1"));
    c.recvLine();
    c.send(csvTrace(40));
    c.halfClose();
    c.recvAll();
    const std::string list = httpGet(f.port(), "/v1/sessions");
    EXPECT_NE(list.find("\"trace\":\"req-list-1\""),
              std::string::npos)
        << list;
    EXPECT_NE(list.find("\"started_at_ms\":"), std::string::npos);
    EXPECT_NE(list.find("\"duration_ms\":"), std::string::npos);
    EXPECT_NE(list.find("\"records_per_s\":"), std::string::npos);
}

TEST(ServerIntegration, TimelineEndpointLiveUnderLoad)
{
    obs::ScopedEnable metrics;
    obs::resetTimeline();
    obs::enableTimeline(std::size_t(1) << 12);
    {
        ServerFixture f(daemon::ServerConfig{});
        // Poll /v1/timeline while several sessions stream: the
        // endpoint snapshots the live ring, no quiesce, and every
        // response must still be complete, well-formed JSON.
        std::atomic<bool> done{false};
        std::thread poller([&] {
            while (!done.load()) {
                const std::string resp =
                    httpGet(f.port(), "/v1/timeline");
                EXPECT_NE(resp.find("200 OK"), std::string::npos);
                const std::size_t split = resp.find("\r\n\r\n");
                ASSERT_NE(split, std::string::npos);
                const auto doc =
                    obs::parseJson(resp.substr(split + 4));
                ASSERT_TRUE(doc.ok()) << doc.status().toString();
                ASSERT_NE(doc.value().find("traceEvents"), nullptr);
            }
        });
        const std::string payload = csvTrace(400);
        std::vector<std::thread> clients;
        for (int i = 0; i < 4; ++i) {
            clients.emplace_back([&f, &payload, i] {
                TestClient c(f.port());
                ASSERT_TRUE(c.connected());
                c.send(net::renderStreamHello(
                    net::StreamFormat::kCsv, "load",
                    qos::WorkClass::kInteractive,
                    "req-load-" + std::to_string(i)));
                c.recvLine();
                c.send(payload);
                c.halfClose();
                c.recvAll();
            });
        }
        for (std::thread &t : clients)
            t.join();
        done.store(true);
        poller.join();

        // After the storm the live timeline serves the per-trace
        // server spans for every session.
        const std::string resp = httpGet(f.port(), "/v1/timeline");
        for (int i = 0; i < 4; ++i) {
            EXPECT_NE(resp.find("trace/req-load-" +
                                std::to_string(i) +
                                "/server.session"),
                      std::string::npos)
                << "session " << i;
        }
        EXPECT_NE(resp.find("server.decode"), std::string::npos);
    }
    obs::disableTimeline();
}

TEST(ServerIntegration, BinSessionAndLiveReport)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kBin, "bintest"));
    const std::string ack = c.recvLine();
    const std::string session_id = ackSessionId(ack);

    // First half of the frames, then query the live report.
    const std::string raw = binTrace(500);
    const std::string half1(raw.data(), raw.size() / 2);
    const std::string half2(raw.data() + raw.size() / 2,
                            raw.size() - raw.size() / 2);
    std::string framed;
    net::appendFrame(framed, half1.data(), half1.size());
    c.send(framed);

    // Mid-stream the session is queryable and still streaming (with
    // the default 4096-record batch nothing has folded yet — live
    // folds happen on full batches only).
    const std::string live = httpGet(
        f.port(), "/v1/sessions/" + session_id + "/report");
    EXPECT_NE(live.find("\"state\":\"streaming\""), std::string::npos)
        << live;

    framed.clear();
    net::appendFrame(framed, half2.data(), half2.size());
    net::appendEndFrame(framed);
    c.send(framed);

    const std::string head = c.recvLine();
    ASSERT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
    const std::size_t nbytes = static_cast<std::size_t>(
        std::stoul(head.substr(std::strlen("DLWR1 ok "))));
    const std::string report = c.recvBytes(nbytes);
    EXPECT_FALSE(report.empty());

    // After the fold the HTTP report flips to done.
    const std::string done = httpGet(
        f.port(), "/v1/sessions/" + session_id + "/report");
    EXPECT_NE(done.find("\"state\":\"done\""), std::string::npos)
        << done;
}

TEST(ServerIntegration, AbruptDisconnectMidStream)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    {
        TestClient c(f.port());
        ASSERT_TRUE(c.connected());
        c.send(net::renderStreamHello(net::StreamFormat::kBin, "gone"));
        c.recvLine();
        const std::string raw = binTrace(100);
        std::string framed;
        net::appendFrame(framed, raw.data(), raw.size() / 3);
        c.send(framed);
        // Destructor closes the socket with the stream incomplete.
    }
    // The server survives and answers; the session aborts.
    for (int tries = 0; tries < 100; ++tries) {
        const std::string list = httpGet(f.port(), "/v1/sessions");
        if (list.find("\"state\":\"aborted\"") != std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const std::string list = httpGet(f.port(), "/v1/sessions");
    EXPECT_NE(list.find("\"state\":\"aborted\""), std::string::npos)
        << list;
}

TEST(ServerIntegration, CorruptStreamGetsErrorResponse)
{
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send("DLWS1 csv\n");
    c.recvLine();
    c.send("# dlw-ms-v1,d,0,1000000000\n"
           "arrival_ns,lba,blocks,op\n"
           "garbage line that is not a record\n");
    const std::string resp = c.recvLine();
    EXPECT_NE(resp.find("DLWR1 error"), std::string::npos) << resp;
}

TEST(ServerIntegration, UnbinnableWindowFailsOnlyItsSession)
{
    // Windows whose bins or end overflow a tick: each must fail its
    // own session with an error response, and the daemon must go on
    // serving the next session.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    ServerFixture f(daemon::ServerConfig{});
    struct Case
    {
        net::StreamFormat format;
        std::string payload;
    };
    const std::string records = "arrival_ns,lba,blocks,op\n0,0,8,R\n";
    const std::vector<Case> cases = {
        {net::StreamFormat::kCsv,
         "# dlw-ms-v1,x,0," + std::to_string(kMax) + "\n" + records},
        {net::StreamFormat::kCsv,
         "# dlw-ms-v1,x,1000," + std::to_string(kMax) + "\n" + records},
        {net::StreamFormat::kBin, frame(binHeader("x", 0, kMax, 0), 64)},
        {net::StreamFormat::kBin, frame(binHeader("x", 1000, kMax, 0), 64)},
    };
    for (const Case &k : cases) {
        TestClient c(f.port());
        ASSERT_TRUE(c.connected());
        c.send(net::renderStreamHello(k.format, "acme"));
        const std::string ack = c.recvLine();
        ASSERT_NE(ack.find("DLWS1 ok acme-"), std::string::npos) << ack;
        c.send(k.payload);
        c.halfClose();
        const std::string resp = c.recvLine();
        EXPECT_NE(resp.find("DLWR1 error"), std::string::npos) << resp;
    }

    const std::string payload = csvTrace(300);
    const std::string path = writeTemp(payload, ".csv");
    const std::string expected = characterizeFile(path);
    std::remove(path.c_str());
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "acme"));
    const std::string ack = c.recvLine();
    ASSERT_NE(ack.find("DLWS1 ok acme-"), std::string::npos) << ack;
    c.send(payload);
    c.halfClose();
    const std::string head = c.recvLine();
    ASSERT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
    const std::size_t nbytes = static_cast<std::size_t>(
        std::stoul(head.substr(std::strlen("DLWR1 ok "))));
    EXPECT_EQ(c.recvBytes(nbytes), expected);
}

TEST(ServerIntegration, ShedsPastConnectionBudget)
{
    obs::ScopedEnable metrics;
    daemon::ServerConfig cfg;
    cfg.max_connections = 0; // everything sheds
    ServerFixture f(cfg);

    const std::string http = httpGet(f.port(), "/healthz");
    EXPECT_NE(http.find("503"), std::string::npos) << http;

    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send("DLWS1 csv shedme\n");
    const std::string resp = c.recvLine();
    EXPECT_NE(resp.find("DLWR1 error overloaded"), std::string::npos)
        << resp;
}

// ---------------------------------------------------------------------------
// Session checkpoints

/** Serialize a session to a blob via BinEnc. */
std::string
sessionBlob(const daemon::Session &s)
{
    std::string blob;
    BinEnc enc(blob);
    s.saveState(enc);
    return blob;
}

/**
 * csvTrace(n)'s records in 24-request cycles that open with a write
 * run: 12 writes in the first quarter of the trace, 9 after it.
 */
std::string
burstyCsvTrace(std::size_t n)
{
    std::string out = csvTrace(n);
    std::size_t at = out.find("\n0,");
    for (std::size_t i = 0; i < n; ++i) {
        at = out.find('\n', at + 1) - 1;
        out[at] = i % 24 < (i < n / 4 ? 12u : 9u) ? 'W' : 'R';
        ++at;
    }
    return out;
}

/** The "records" and "characterization" tail of a reportJson(). */
std::string
characterizationJson(const daemon::Session &s)
{
    const std::string json = s.reportJson();
    const std::size_t at = json.find("\"records\":");
    return at == std::string::npos ? std::string() : json.substr(at);
}

TEST(SessionCheckpoint, MidStreamRestoreKeepsByteIdentity)
{
    struct Case
    {
        net::StreamFormat format;
        std::string payload;
        /** Bytes per consume() before the checkpoint. */
        std::size_t step;
    };
    // The bursty trace's first half holds more than one 4096-request
    // batch, so write bursts close in the live fold before the
    // checkpoint.
    const Case cases[] = {
        {net::StreamFormat::kCsv, csvTrace(130), 7},
        {net::StreamFormat::kBin, frame(binTrace(130), 53), 7},
        {net::StreamFormat::kCsv, burstyCsvTrace(10000), 4096},
    };
    for (const Case &tc : cases) {
        // Control: one uninterrupted session.
        daemon::Session a("t-1", "t", tc.format);
        net::ByteQueue aq;
        aq.append(tc.payload);
        ASSERT_TRUE(a.consume(aq).ok());
        ASSERT_TRUE(a.finishInput(aq).ok());
        const std::string expected = a.finalReportText();
        const std::string expected_json = characterizationJson(a);
        ASSERT_NE(expected_json.find("\"characterization\":{"),
                  std::string::npos)
            << expected_json;

        // Interrupted: feed half, checkpoint, restore, feed the rest.
        daemon::Session b("t-1", "t", tc.format);
        net::ByteQueue bq;
        const std::size_t half = tc.payload.size() / 2;
        for (std::size_t off = 0; off < half; off += tc.step) {
            bq.append(tc.payload.data() + off,
                      std::min(tc.step, half - off));
            ASSERT_TRUE(b.consume(bq).ok());
        }
        const std::string blob = sessionBlob(b);
        BinDec dec(blob);
        std::shared_ptr<daemon::Session> r =
            daemon::Session::restore(dec);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->id(), "t-1");
        EXPECT_EQ(r->state(), daemon::SessionState::kStreaming);

        // Undelivered queue bytes belong to the connection, not the
        // checkpoint: replay them into the restored session first.
        net::ByteQueue rq;
        rq.append(bq.data(), bq.size());
        rq.append(tc.payload.data() + half, tc.payload.size() - half);
        ASSERT_TRUE(r->consume(rq).ok());
        ASSERT_TRUE(r->finishInput(rq).ok());
        EXPECT_EQ(r->finalReportText(), expected);
        EXPECT_EQ(characterizationJson(*r), expected_json);
    }
}

TEST(SessionCheckpoint, DoneSessionServesSameReportAfterRestore)
{
    daemon::Session s("acme-3", "acme", net::StreamFormat::kCsv);
    net::ByteQueue q;
    q.append(csvTrace(80));
    ASSERT_TRUE(s.consume(q).ok());
    ASSERT_TRUE(s.finishInput(q).ok());
    const std::string text = s.finalReportText();
    const std::uint64_t payload_bytes = s.payloadBytes();

    const std::string blob = sessionBlob(s);
    BinDec dec(blob);
    std::shared_ptr<daemon::Session> r = daemon::Session::restore(dec);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->state(), daemon::SessionState::kDone);
    EXPECT_EQ(r->payloadBytes(), payload_bytes);
    EXPECT_EQ(r->finalReportText(), text);
    const std::string json = r->reportJson();
    EXPECT_NE(json.find("\"state\":\"done\""), std::string::npos);
    EXPECT_NE(json.find("\"characterization\":{"), std::string::npos);
    EXPECT_NE(json.find("\"records\":80"), std::string::npos) << json;
}

TEST(SessionCheckpoint, TraceAndLatencySurviveRestore)
{
    daemon::Session s("acme-7", "acme", net::StreamFormat::kCsv,
                      qos::WorkClass::kBulk, "req-7");
    net::ByteQueue q;
    q.append(csvTrace(60));
    ASSERT_TRUE(s.consume(q).ok());
    ASSERT_TRUE(s.finishInput(q).ok());
    s.finalReportText();

    const std::string blob = sessionBlob(s);
    BinDec dec(blob);
    std::shared_ptr<daemon::Session> r = daemon::Session::restore(dec);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->traceId(), "req-7");
    EXPECT_NE(r->tlSpan(), nullptr);
    const std::string json = r->reportJson();
    EXPECT_NE(json.find("\"trace\":\"req-7\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"decode\":{\"count\":"), std::string::npos)
        << json;
    // The duration froze at finish time; a restored done session
    // must not keep aging.
    EXPECT_EQ(r->durationMs(), s.durationMs());
    EXPECT_EQ(r->startedAtMs(), s.startedAtMs());
}

TEST(SessionCheckpoint, SummaryOpensTheReportBeforeAndAfterRestore)
{
    daemon::Session s("acme-8", "acme", net::StreamFormat::kCsv,
                      qos::WorkClass::kBulk, "req-8");
    net::ByteQueue q;
    q.append(csvTrace(80));
    ASSERT_TRUE(s.consume(q).ok());
    ASSERT_TRUE(s.finishInput(q).ok());
    s.finalReportText();

    // /v1/sessions lists the same summary fields the report opens
    // with, for a folded session and for its restored twin alike.
    const std::string blob = sessionBlob(s);
    BinDec dec(blob);
    std::shared_ptr<daemon::Session> r = daemon::Session::restore(dec);
    ASSERT_NE(r, nullptr);
    for (const daemon::Session *x : {&s, r.get()}) {
        std::string summary = x->summaryJson();
        ASSERT_FALSE(summary.empty());
        EXPECT_EQ(summary.back(), '}');
        summary.pop_back();
        EXPECT_EQ(x->reportJson().compare(0, summary.size(), summary), 0)
            << summary << "\n" << x->reportJson();
        EXPECT_EQ(summary.find("\"records_per_s\":0.0"),
                  std::string::npos)
            << summary;
    }
    EXPECT_EQ(r->summaryJson(), s.summaryJson());
}

TEST(SessionCheckpoint, TruncatedSessionBlobRejected)
{
    daemon::Session s("t-9", "t", net::StreamFormat::kCsv);
    net::ByteQueue q;
    q.append(csvTrace(40));
    ASSERT_TRUE(s.consume(q).ok());
    const std::string blob = sessionBlob(s);
    for (std::size_t cut = 0; cut < blob.size();
         cut += std::max<std::size_t>(1, blob.size() / 53)) {
        BinDec dec(blob.data(), cut);
        EXPECT_EQ(daemon::Session::restore(dec), nullptr)
            << "cut " << cut;
    }
}

TEST(SessionCheckpoint, FileRoundTripAndRejection)
{
    const std::string dir = ::testing::TempDir() + "dlw_ckpt_" +
                            std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);

    daemon::Session s("t-1", "t", net::StreamFormat::kCsv);
    net::ByteQueue q;
    q.append(csvTrace(25));
    ASSERT_TRUE(s.consume(q).ok());
    const Status st = daemon::saveSessionCheckpoint(dir, s);
    ASSERT_TRUE(st.ok()) << st.toString();

    const std::vector<std::string> files =
        daemon::listCheckpointFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0], daemon::checkpointPath(dir, "t-1"));

    StatusOr<std::shared_ptr<daemon::Session>> r =
        daemon::loadSessionCheckpoint(files[0]);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(r.value()->id(), "t-1");

    // Wrong magic: rejected, not guessed at.
    {
        std::ofstream os(daemon::checkpointPath(dir, "bad"),
                         std::ios::binary);
        os << "NOTACKPT garbage";
    }
    {
        const auto bad = daemon::loadSessionCheckpoint(
            daemon::checkpointPath(dir, "bad"));
        ASSERT_FALSE(bad.ok());
        EXPECT_EQ(bad.status().code(), StatusCode::kCorruptData);
        EXPECT_EQ(bad.status().message(), "bad magic");
    }

    // Future version: rejected.
    {
        std::string blob = daemon::kCheckpointMagic;
        BinEnc enc(blob);
        enc.u32(daemon::kCheckpointVersion + 1);
        s.saveState(enc);
        std::ofstream os(daemon::checkpointPath(dir, "vnext"),
                         std::ios::binary);
        os << blob;
    }
    {
        const auto vnext = daemon::loadSessionCheckpoint(
            daemon::checkpointPath(dir, "vnext"));
        ASSERT_FALSE(vnext.ok());
        EXPECT_EQ(vnext.status().code(),
                  StatusCode::kFailedPrecondition);
        EXPECT_NE(vnext.status().message().find(
                      "newer than this daemon supports"),
                  std::string::npos)
            << vnext.status().toString();
    }

    daemon::removeSessionCheckpoint(dir, "t-1");
    EXPECT_EQ(daemon::listCheckpointFiles(dir).size(), 2u);
    EXPECT_TRUE(daemon::listCheckpointFiles("/no/such/dir").empty());
}

TEST(SessionCheckpoint, RestoreRejectsIdsNoHelloCouldCarry)
{
    struct Case
    {
        const char *id;
        const char *tenant;
        const char *trace;
    };
    const Case bad[] = {
        {"../escape", "a\"b", ""}, // a path and a JSON breaker
        {"../escape", "t", ""},    // id is not <tenant>-<digits>
        {"t-1x", "t", ""},
        {"u-1", "t", ""},
        {"t-", "t", ""},
        {"t-1", "", ""},
        {"t-1", "t", "a/b"}, // trace id outside [A-Za-z0-9._-]
    };
    for (const Case &c : bad) {
        daemon::Session s(c.id, c.tenant, net::StreamFormat::kCsv,
                          qos::WorkClass::kInteractive, c.trace);
        const std::string blob = sessionBlob(s);
        BinDec dec(blob.data(), blob.size());
        EXPECT_EQ(daemon::Session::restore(dec), nullptr)
            << c.id << " / " << c.tenant << " / " << c.trace;
    }
    daemon::Session good("t.x-12", "t.x", net::StreamFormat::kCsv,
                         qos::WorkClass::kBulk, "req-1");
    const std::string blob = sessionBlob(good);
    BinDec dec(blob.data(), blob.size());
    const std::shared_ptr<daemon::Session> back =
        daemon::Session::restore(dec);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->id(), "t.x-12");
    EXPECT_EQ(back->traceId(), "req-1");
}

TEST(SessionCheckpoint, PreTagVersionRejectedNotDefaultTagged)
{
    const std::string dir = ::testing::TempDir() + "dlw_ckpt_v2_" +
                            std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);

    // Forge a v2-era blob: header says version 2 and the session
    // body predates the class byte.  The loader must refuse with an
    // explicit status — silently restoring it would default-tag a
    // session whose class the client never negotiated.  v4 and v5
    // blobs (a current session under an old header) are refused
    // alike: their gap lanes, write runs or trace totals are laid
    // out differently.
    std::string v2_body;
    {
        BinEnc enc(v2_body);
        enc.str("t-1"); // id
        enc.str("t");   // tenant (v2 layout: format byte comes next)
    }
    daemon::Session s("t-1", "t", net::StreamFormat::kCsv);
    net::ByteQueue q;
    q.append(csvTrace(25));
    ASSERT_TRUE(s.consume(q).ok());
    const std::pair<std::uint32_t, std::string> olds[] = {
        {2, v2_body},
        {4, sessionBlob(s)},
        {5, sessionBlob(s)},
    };
    const std::string path = daemon::checkpointPath(dir, "t-1");
    for (const auto &[version, body] : olds) {
        std::string blob = daemon::kCheckpointMagic;
        BinEnc enc(blob);
        enc.u32(version);
        blob += body;
        {
            std::ofstream os(path, std::ios::binary);
            os << blob;
        }

        const auto old = daemon::loadSessionCheckpoint(path);
        ASSERT_FALSE(old.ok()) << "v" << version;
        EXPECT_EQ(old.status().code(), StatusCode::kFailedPrecondition)
            << "v" << version;
        EXPECT_NE(old.status().message().find(
                      "predates this daemon's session layout"),
                  std::string::npos)
            << old.status().toString();
    }

    daemon::removeSessionCheckpoint(dir, "t-1");
}

// ---------------------------------------------------------------------------
// Deadline evictions against a live server

TEST(ServerIntegration, EvictsSilentConnectionAtFirstByteDeadline)
{
    obs::ScopedEnable metrics;
    daemon::ServerConfig cfg;
    cfg.first_byte_timeout_ms = 50;
    ServerFixture f(cfg);
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    // Say nothing: the server must hang up on its own.
    EXPECT_EQ(c.recvAll(), "");
    const std::string prom = httpGet(f.port(), "/metrics");
    EXPECT_NE(prom.find("dlw_daemon_evict_first_byte_total"),
              std::string::npos);
}

TEST(ServerIntegration, SlowLorisHelloIsEvictedOnAbsoluteDeadline)
{
    obs::ScopedEnable metrics;
    daemon::ServerConfig cfg;
    cfg.header_timeout_ms = 80;
    ServerFixture f(cfg);
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    // Trickle bytes inside the deadline window: progress on the
    // connection restarts nothing — the header deadline is absolute
    // from the first byte, so the eviction still lands at ~80 ms.
    c.send("D");
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    c.send("L");
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    c.send("W");
    const std::string resp = c.recvLine();
    EXPECT_NE(resp.find("DLWR1 error timeout"), std::string::npos)
        << resp;
    // The server is still healthy afterwards.
    EXPECT_NE(httpGet(f.port(), "/healthz").find("200 OK"),
              std::string::npos);
}

TEST(ServerIntegration, SlowHttpHeadGets408)
{
    obs::ScopedEnable metrics;
    daemon::ServerConfig cfg;
    cfg.header_timeout_ms = 50;
    ServerFixture f(cfg);
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send("GET /healthz HTTP/1.1\r\nHost:"); // head never completes
    const std::string resp = c.recvAll();
    EXPECT_NE(resp.find("408"), std::string::npos) << resp;
}

TEST(ServerIntegration, IdleStreamSessionIsFailedNotHung)
{
    obs::ScopedEnable metrics;
    daemon::ServerConfig cfg;
    cfg.idle_timeout_ms = 60;
    ServerFixture f(cfg);
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "idler"));
    c.recvLine();
    // Send no payload: the session must fail with a protocol-level
    // error instead of holding the slot forever.
    const std::string resp = c.recvLine();
    EXPECT_NE(resp.find("DLWR1 error timeout"), std::string::npos)
        << resp;
    const std::string list = httpGet(f.port(), "/v1/sessions");
    EXPECT_NE(list.find("\"state\":\"aborted\""), std::string::npos)
        << list;
}

// ---------------------------------------------------------------------------
// Socket-level fault injection

TEST(ServerIntegration, InjectedShortReadsAndEintrKeepByteIdentity)
{
    const std::string payload = csvTrace(250);
    const std::string path = writeTemp(payload, ".csv");
    const std::string expected = characterizeFile(path);
    std::remove(path.c_str());

    // Every other daemon read is clamped to one byte, every fifth
    // returns EINTR, every third write is clamped: the report bytes
    // must not care.
    fault::ScopedFault faults(
        "net.io.read.short:mod=2;net.io.read.eintr:mod=5;"
        "net.io.write.short:mod=3");
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "fault"));
    const std::string ack = c.recvLine();
    ASSERT_NE(ack.find("DLWS1 ok "), std::string::npos) << ack;
    c.send(payload);
    c.halfClose();
    const std::string head = c.recvLine();
    ASSERT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
    const std::size_t nbytes = static_cast<std::size_t>(
        std::stoul(head.substr(std::strlen("DLWR1 ok "))));
    EXPECT_EQ(c.recvBytes(nbytes), expected);
}

TEST(ServerIntegration, InjectedResetAbortsSessionNotReport)
{
    // A connection reset mid-payload must abort the session — never
    // complete it as if the half-open stream were a clean EOF.
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "reset"));
    c.recvLine();
    c.send("# dlw-ms-v1,d,0,1000000000\n"
           "arrival_ns,lba,blocks,op\n");
    // Let the server drain those bytes before arming the fault, so
    // the injected reset hits this connection's next read.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    {
        fault::ScopedFault faults("net.io.read.reset:once");
        c.send("0,64,8,R\n");
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    for (int tries = 0; tries < 100; ++tries) {
        const std::string list = httpGet(f.port(), "/v1/sessions");
        if (list.find("\"state\":\"aborted\"") != std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const std::string list = httpGet(f.port(), "/v1/sessions");
    EXPECT_NE(list.find("\"state\":\"aborted\""), std::string::npos)
        << list;
}

// ---------------------------------------------------------------------------
// State directory: sessions survive a server restart

TEST(ServerIntegration, StateDirSurvivesRestart)
{
    const std::string dir = ::testing::TempDir() + "dlw_state_" +
                            std::to_string(::getpid());
    daemon::ServerConfig cfg;
    cfg.state_dir = dir;
    cfg.checkpoint_interval_ms = 10;

    const std::string payload = csvTrace(160);
    std::string session_id;
    std::string report;
    {
        ServerFixture f(cfg);
        TestClient c(f.port());
        ASSERT_TRUE(c.connected());
        c.send(net::renderStreamHello(net::StreamFormat::kCsv,
                                      "boot"));
        const std::string ack = c.recvLine();
        ASSERT_NE(ack.find("DLWS1 ok "), std::string::npos) << ack;
        session_id = ackSessionId(ack);
        c.send(payload);
        c.halfClose();
        const std::string head = c.recvLine();
        ASSERT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
        const std::size_t nbytes = static_cast<std::size_t>(
            std::stoul(head.substr(std::strlen("DLWR1 ok "))));
        report = c.recvBytes(nbytes);
        // Graceful stop writes the final checkpoints.
    }
    {
        ServerFixture f(cfg);
        const std::string json = httpGet(
            f.port(), "/v1/sessions/" + session_id + "/report");
        EXPECT_NE(json.find("\"state\":\"done\""), std::string::npos)
            << json;
        EXPECT_NE(json.find("\"records\":160"), std::string::npos)
            << json;
        EXPECT_NE(json.find("\"characterization\":{"),
                  std::string::npos)
            << json;

        // New sessions must not collide with restored ids.
        TestClient c(f.port());
        ASSERT_TRUE(c.connected());
        c.send(net::renderStreamHello(net::StreamFormat::kCsv,
                                      "boot"));
        const std::string ack = c.recvLine();
        ASSERT_NE(ack.find("DLWS1 ok "), std::string::npos) << ack;
        EXPECT_NE(ackSessionId(ack), session_id);
    }
}

TEST(ServerIntegration, GarbledCheckpointStaysInsideTheStateDir)
{
    // A blob naming id "../escape" and tenant a"b: restored as is, its
    // checkpoint would land beside the state dir and its tenant would
    // break the /v1/sessions JSON.
    const std::string base = ::testing::TempDir() + "dlw_garbled_" +
                             std::to_string(::getpid());
    const std::string dir = base + "/state";
    ::mkdir(base.c_str(), 0755);
    ::mkdir(dir.c_str(), 0755);
    {
        daemon::Session evil("../escape", "a\"b", net::StreamFormat::kCsv);
        std::string blob = daemon::kCheckpointMagic;
        BinEnc enc(blob);
        enc.u32(daemon::kCheckpointVersion);
        evil.saveState(enc);
        std::ofstream os(dir + "/evil.ckpt", std::ios::binary);
        os << blob;
    }
    const StatusOr<std::shared_ptr<daemon::Session>> loaded =
        daemon::loadSessionCheckpoint(dir + "/evil.ckpt");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptData);

    daemon::ServerConfig cfg;
    cfg.state_dir = dir;
    cfg.checkpoint_interval_ms = 10;
    {
        ServerFixture f(cfg);
        const std::string list = httpGet(f.port(), "/v1/sessions");
        const std::size_t split = list.find("\r\n\r\n");
        ASSERT_NE(split, std::string::npos) << list;
        EXPECT_TRUE(obs::parseJson(list.substr(split + 4)).ok()) << list;
        EXPECT_EQ(list.find("escape"), std::string::npos) << list;
        const std::string stats = httpGet(f.port(), "/v1/stats");
        EXPECT_TRUE(
            obs::parseJson(stats.substr(stats.find("\r\n\r\n") + 4))
                .ok())
            << stats;
        // Let a few checkpoint sweeps run; the graceful stop then
        // checkpoints every session once more.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    struct stat st;
    EXPECT_NE(::stat((base + "/escape.ckpt").c_str(), &st), 0);
    // A garbled blob is dropped, not left to trip the next start.
    EXPECT_NE(::stat((dir + "/evil.ckpt").c_str(), &st), 0);
}

/**
 * A pending-request count whose 21-byte records wrap to 5 bytes:
 * (2^64 + 5) / 21.
 */
constexpr std::uint64_t kPendingWrapsTo5 = 878416384462359601ULL;

/** A fresh decoder's state with its trailing pending count set. */
std::string
freshDecoderBlob(std::uint64_t n_pending)
{
    net::StreamDecoder dec(net::StreamFormat::kCsv, net::kMaxFrameBytes);
    std::string blob;
    BinEnc enc(blob);
    dec.saveState(enc);
    std::memcpy(&blob[blob.size() - 8], &n_pending, sizeof n_pending);
    return blob;
}

TEST(ServerIntegration, CheckpointWithWrappingLengthIsDropped)
{
    // A session blob whose decoder claims kPendingWrapsTo5 pending
    // requests, more than the session tail's bytes can hold: like any
    // garbled blob it must fail the load and be dropped, never throw
    // out of the restore and stop the daemon's start.
    const std::string dir = ::testing::TempDir() + "dlw_wrap_" +
                            std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0755);
    const std::string path = daemon::checkpointPath(dir, "t-1");
    {
        daemon::Session s("t-1", "t", net::StreamFormat::kCsv);
        std::string blob = daemon::kCheckpointMagic;
        BinEnc enc(blob);
        enc.u32(daemon::kCheckpointVersion);
        s.saveState(enc);
        const std::string fresh = freshDecoderBlob(0);
        const std::size_t at = blob.find(fresh);
        ASSERT_NE(at, std::string::npos);
        blob.replace(at, fresh.size(), freshDecoderBlob(kPendingWrapsTo5));
        std::ofstream os(path, std::ios::binary);
        os << blob;
    }
    const StatusOr<std::shared_ptr<daemon::Session>> loaded =
        daemon::loadSessionCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruptData);

    daemon::ServerConfig cfg;
    cfg.state_dir = dir;
    {
        ServerFixture f(cfg);
        const std::string list = httpGet(f.port(), "/v1/sessions");
        EXPECT_EQ(list.find("\"t-1\""), std::string::npos) << list;
    }
    struct stat st;
    EXPECT_NE(::stat(path.c_str(), &st), 0);
}

/** The header csvTrace(40) opens with: what a session sees first. */
trace::MsStreamHeader
csvTrace40Header()
{
    trace::MsStreamHeader meta;
    meta.drive_id = "drv-a";
    meta.start = 0;
    meta.duration = 41 * 1000000;
    return meta;
}

/**
 * LiveCharacterization state for csvTrace(40)'s header and no
 * request, with the burstiness part swapped for a blob that loads but
 * that finish() cannot run on (a zero aggregation scale), or the
 * rwmix part for one that no stream writes (more read bins than bins).
 */
std::string
unfinishableLiveBlob(bool zero_scale)
{
    const trace::MsStreamHeader meta = csvTrace40Header();
    std::string blob;
    BinEnc enc(blob);
    enc.str(meta.drive_id);
    enc.i64(meta.start);
    enc.i64(meta.duration);
    core::BurstinessAccumulator b(10 * kMsec,
                                  zero_scale ? std::vector<std::size_t>{1, 0}
                                             : std::vector<std::size_t>{});
    b.begin(meta);
    b.saveState(enc);
    if (zero_scale) {
        core::RwMixAccumulator rw;
        rw.begin(meta);
        rw.saveState(enc);
    } else {
        // Two read bins, one total bin.
        enc.i64(kMinute);
        stats::BinnedSeries(0, kMinute, 2).saveState(enc);
        stats::BinnedSeries(0, kMinute, 1).saveState(enc);
        for (int i = 0; i < 6; ++i)
            enc.u64(0);
        enc.u8(0);
    }
    core::TraceTotalsAccumulator t;
    t.begin(meta);
    t.saveState(enc);
    enc.u64(0);
    enc.i64(meta.start);
    return blob;
}

/**
 * A checkpoint of session t-1, mid-stream after csvTrace(40)'s header,
 * whose live state is the `live` blob.
 */
std::string
sessionBlobWithLive(const std::string &live)
{
    daemon::Session s("t-1", "t", net::StreamFormat::kCsv);
    const std::string payload = csvTrace(40);
    net::ByteQueue q;
    q.append(payload.substr(0, payload.find("\n0,") + 1));
    EXPECT_TRUE(s.consume(q).ok());
    const std::string blob = sessionBlob(s);

    std::string fresh;
    BinEnc enc(fresh);
    core::LiveCharacterization(csvTrace40Header()).saveState(enc);
    const std::size_t at = blob.find(fresh);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(blob.find(fresh, at + 1), std::string::npos);
    if (at == std::string::npos)
        return blob;
    std::string bad = blob;
    bad.replace(at, fresh.size(), live);
    return bad;
}

TEST(SessionCheckpoint, RestoreRejectsLiveStateFinishCannotRun)
{
    for (bool zero_scale : {true, false}) {
        const std::string live = unfinishableLiveBlob(zero_scale);
        BinDec live_dec(live);
        EXPECT_EQ(core::LiveCharacterization::restore(live_dec), nullptr)
            << "zero_scale " << zero_scale;
        const std::string blob =
            sessionBlobWithLive(unfinishableLiveBlob(zero_scale));
        BinDec dec(blob);
        EXPECT_EQ(daemon::Session::restore(dec), nullptr)
            << "zero_scale " << zero_scale;
    }
}

TEST(SessionCheckpoint, RestoreRejectsUnbinnableWindow)
{
    // Live state whose window cannot be binned: restore used to size
    // the bins from the blob's header and die on the overflowed count.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const trace::MsStreamHeader ok = csvTrace40Header();
    std::string valid;
    BinEnc venc(valid);
    core::LiveCharacterization(ok).saveState(venc);
    std::string ok_head;
    BinEnc henc(ok_head);
    henc.str(ok.drive_id);
    henc.i64(ok.start);
    henc.i64(ok.duration);
    ASSERT_EQ(valid.compare(0, ok_head.size(), ok_head), 0);

    const std::pair<std::int64_t, std::int64_t> windows[] = {
        {0, kMax}, {1000, kMax}, {kMax, 1}, {0, -1}};
    for (const auto &[start, duration] : windows) {
        std::string live;
        BinEnc enc(live);
        enc.str(ok.drive_id);
        enc.i64(start);
        enc.i64(duration);
        live += valid.substr(ok_head.size());
        BinDec live_dec(live);
        EXPECT_EQ(core::LiveCharacterization::restore(live_dec), nullptr)
            << start << " + " << duration;
        const std::string blob = sessionBlobWithLive(live);
        BinDec dec(blob);
        EXPECT_EQ(daemon::Session::restore(dec), nullptr)
            << start << " + " << duration;
    }
}

TEST(ServerIntegration, UnfinishableCheckpointIsDropped)
{
    // A mid-stream session is restored with its live state, and its
    // first report runs a finish on a copy of it: a blob that loads
    // but that finish() cannot run on must be dropped at the restore,
    // not take the daemon down at that report.
    for (bool zero_scale : {true, false}) {
        const std::string dir = ::testing::TempDir() + "dlw_unfinishable_" +
                                std::to_string(::getpid()) +
                                (zero_scale ? "_scale" : "_rwmix");
        ::mkdir(dir.c_str(), 0755);
        const std::string path = daemon::checkpointPath(dir, "t-1");
        {
            std::string blob = daemon::kCheckpointMagic;
            BinEnc enc(blob);
            enc.u32(daemon::kCheckpointVersion);
            blob += sessionBlobWithLive(unfinishableLiveBlob(zero_scale));
            std::ofstream os(path, std::ios::binary);
            os << blob;
        }
        daemon::ServerConfig cfg;
        cfg.state_dir = dir;
        {
            ServerFixture f(cfg);
            const std::string report =
                httpGet(f.port(), "/v1/sessions/t-1/report");
            EXPECT_NE(report.find("404"), std::string::npos) << report;
            const std::string health = httpGet(f.port(), "/healthz");
            EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
        }
        struct stat st;
        EXPECT_NE(::stat(path.c_str(), &st), 0);
    }
}

TEST(ServerIntegration, DrainCompletesInFlightSession)
{
    obs::ScopedEnable metrics;
    ServerFixture f(daemon::ServerConfig{});
    TestClient c(f.port());
    ASSERT_TRUE(c.connected());
    c.send(net::renderStreamHello(net::StreamFormat::kCsv, "drain"));
    c.recvLine();
    const std::string payload = csvTrace(100);
    c.send(payload.substr(0, payload.size() / 2));

    // SIGTERM semantics: stop accepting, finish what's in flight.
    std::thread stopper([&f] { f.stop(); });
    c.send(payload.substr(payload.size() / 2));
    c.halfClose();
    const std::string head = c.recvLine();
    EXPECT_NE(head.find("DLWR1 ok "), std::string::npos) << head;
    stopper.join();
}

} // anonymous namespace
