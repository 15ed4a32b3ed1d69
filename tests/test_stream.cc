/**
 * @file
 * Streaming-pipeline tests: batch/source mechanics, streamed file
 * decoding against the whole-trace readers, chunking invariance of
 * the characterization pass (bit-identical results at every batch
 * size), the streamed drive-service path, observation windows at the
 * Tick limits, and the block-buffered file decoders against a copy of
 * the getline decoders they replaced.
 */

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "core/burstiness.hh"
#include "core/characterize.hh"
#include "core/footprint.hh"
#include "core/live.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "disk/drive.hh"
#include "synth/extract.hh"
#include "synth/workload.hh"
#include "trace/batch.hh"
#include "trace/binio.hh"
#include "trace/csvio.hh"
#include "trace/gate.hh"
#include "trace/source.hh"
#include "trace/stream.hh"

namespace dlw
{
namespace
{

using trace::MsTrace;
using trace::MsTraceSource;
using trace::RequestBatch;

/** The batch sizes every chunking-invariance sweep runs over. */
const std::vector<std::size_t> kSweep = {1, 7, 64, 4096};

MsTrace
sample(Tick window = 20 * kSec, double rate = 40.0)
{
    Rng rng(9);
    synth::Workload w = synth::Workload::makeOltp(1 << 20, rate);
    return w.generate(rng, "stream-drive", 0, window);
}

// ---- RequestBatch ----------------------------------------------

TEST(RequestBatch, AppendClearAndColumns)
{
    RequestBatch b(4);
    EXPECT_EQ(b.capacity(), 4u);
    EXPECT_TRUE(b.empty());
    trace::Request r;
    r.arrival = 10;
    r.lba = 100;
    r.blocks = 8;
    r.op = trace::Op::Write;
    b.append(r);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.arrival(0), 10);
    EXPECT_EQ(b.lba(0), 100u);
    EXPECT_EQ(b.blocks(0), 8u);
    EXPECT_FALSE(b.isRead(0));
    EXPECT_EQ(b.lbaEnd(0), 108u);
    EXPECT_TRUE(b.get(0) == r);
    b.clear();
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.capacity(), 4u);
}

TEST(RequestBatch, EveryBatchButTheLastIsFull)
{
    const MsTrace tr = sample();
    ASSERT_GT(tr.size(), 100u);
    MsTraceSource src(tr);
    RequestBatch batch(64);
    std::size_t batches = 0;
    std::size_t total = 0;
    bool saw_partial = false;
    while (src.next(batch)) {
        ++batches;
        total += batch.size();
        // A partial batch may only be the final one.
        EXPECT_FALSE(saw_partial) << "partial batch mid-stream";
        if (!batch.full())
            saw_partial = true;
    }
    EXPECT_EQ(total, tr.size());
    EXPECT_EQ(batches, (tr.size() + 63) / 64);
}

TEST(RequestSource, DrainRoundTripsTheTrace)
{
    const MsTrace tr = sample();
    for (std::size_t bs : kSweep) {
        MsTraceSource src(tr);
        MsTrace out;
        ASSERT_TRUE(trace::drainToTrace(src, out, bs).ok());
        EXPECT_EQ(out.driveId(), tr.driveId());
        EXPECT_EQ(out.start(), tr.start());
        EXPECT_EQ(out.duration(), tr.duration());
        ASSERT_EQ(out.size(), tr.size());
        for (std::size_t i = 0; i < tr.size(); ++i)
            EXPECT_TRUE(out.at(i) == tr.at(i)) << "record " << i;
    }
}

// ---- Streaming file decode vs whole-trace readers ---------------

TEST(StreamDecode, CsvStreamEqualsWholeRead)
{
    const MsTrace tr = sample();
    std::stringstream ss;
    trace::writeMsCsv(ss, tr);
    const std::string text = ss.str();

    for (std::size_t bs : kSweep) {
        std::istringstream is(text);
        auto src = trace::openMsCsvSource(is, trace::IngestOptions{});
        ASSERT_TRUE(src.ok());
        MsTrace out;
        ASSERT_TRUE(trace::drainToTrace(*src.value(), out, bs).ok());
        ASSERT_EQ(out.size(), tr.size());
        for (std::size_t i = 0; i < tr.size(); ++i)
            EXPECT_TRUE(out.at(i) == tr.at(i)) << "record " << i;
    }
}

TEST(StreamDecode, SkipPolicyMatchesWholeReadOnCorruptCsv)
{
    const std::string text =
        "# dlw-ms-v1,d,0,100000\n"
        "arrival_ns,lba,blocks,op\n"
        "10,0,8,R\n"
        "garbage line\n"
        "20,8,0,W\n"
        "30,16,4,W\n"
        "40,24,2,X\n"
        "50,32,1,R\n";
    trace::IngestOptions skip;
    skip.policy = trace::RecordPolicy::kSkipAndCount;

    trace::IngestStats whole_stats;
    std::istringstream whole_is(text);
    StatusOr<MsTrace> whole =
        trace::readMsCsv(whole_is, skip, &whole_stats);
    ASSERT_TRUE(whole.ok());

    for (std::size_t bs : {std::size_t{1}, std::size_t{2},
                           std::size_t{4096}}) {
        std::istringstream is(text);
        auto src = trace::openMsCsvSource(is, skip);
        ASSERT_TRUE(src.ok());
        MsTrace out;
        ASSERT_TRUE(trace::drainToTrace(*src.value(), out, bs).ok());
        ASSERT_EQ(out.size(), whole.value().size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_TRUE(out.at(i) == whole.value().at(i));
        const trace::IngestStats &st = src.value()->stats();
        EXPECT_EQ(st.records_read, whole_stats.records_read);
        EXPECT_EQ(st.records_skipped, whole_stats.records_skipped);
        EXPECT_EQ(st.errors, whole_stats.errors);
    }
}

TEST(StreamDecode, AbortPolicyReportsTheSameError)
{
    const std::string text = "# dlw-ms-v1,d,0,100000\n"
                             "arrival_ns,lba,blocks,op\n"
                             "10,0,8,R\n"
                             "broken\n";
    std::istringstream whole_is(text);
    StatusOr<MsTrace> whole =
        trace::readMsCsv(whole_is, trace::IngestOptions{});
    ASSERT_FALSE(whole.ok());

    std::istringstream is(text);
    auto src = trace::openMsCsvSource(is, trace::IngestOptions{});
    ASSERT_TRUE(src.ok());
    RequestBatch batch(1);
    // The intact prefix is delivered, then the stream dies.
    ASSERT_TRUE(src.value()->next(batch));
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_FALSE(src.value()->next(batch));
    const Status st = src.value()->status();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), whole.status().code());
    EXPECT_EQ(st.message(), whole.status().message());
}

// ---- Record codec: the literal corruption texts ----------------

/** One CSV record parse: its `why`, and whether it was clamped. */
std::pair<std::string, bool>
csvWhy(const std::string &line, bool clamp,
       trace::Request *out = nullptr)
{
    trace::Request r;
    const trace::MsRecordParse p =
        trace::parseMsCsvRecordLine(line, clamp, r);
    if (out)
        *out = r;
    return {p.why, p.clamped};
}

TEST(CsvRecordLine, FieldCountTexts)
{
    for (bool clamp : {false, true}) {
        EXPECT_EQ(csvWhy("1,2,3", clamp).first, "expected 4 fields");
        EXPECT_EQ(csvWhy("1,2,3,R,x", clamp).first,
                  "expected 4 fields");
        EXPECT_EQ(csvWhy("1,2,3,R,", clamp).first, "expected 4 fields");
        EXPECT_EQ(csvWhy("1", clamp).first, "expected 4 fields");
    }
}

TEST(CsvRecordLine, PaddedFieldsParse)
{
    trace::Request r;
    EXPECT_EQ(csvWhy("10 ,\t20, 8 , W", false, &r).first, "");
    EXPECT_EQ(r.arrival, 10);
    EXPECT_EQ(r.lba, 20u);
    EXPECT_EQ(r.blocks, 8u);
    EXPECT_EQ(r.op, trace::Op::Write);
    EXPECT_EQ(csvWhy("-1,0,1,R", false, &r).first, "");
    EXPECT_EQ(r.arrival, -1);
}

TEST(CsvRecordLine, MalformedFieldTexts)
{
    for (bool clamp : {false, true}) {
        EXPECT_EQ(csvWhy("1 x ,2,3,R", clamp).first,
                  "malformed arrival '1 x'");
        EXPECT_EQ(csvWhy(",2,3,R", clamp).first,
                  "malformed arrival ''");
        EXPECT_EQ(csvWhy("+5,2,3,R", clamp).first,
                  "malformed arrival '+5'");
        EXPECT_EQ(csvWhy("18446744073709551616,2,3,R", clamp).first,
                  "malformed arrival '18446744073709551616'");
        EXPECT_EQ(csvWhy("1, ,3,R", clamp).first, "malformed lba ''");
        EXPECT_EQ(csvWhy("1,-1,3,R", clamp).first,
                  "malformed lba '-1'");
        EXPECT_EQ(csvWhy("1,18446744073709551616,3,R", clamp).first,
                  "malformed lba '18446744073709551616'");
        EXPECT_EQ(csvWhy("1,2,+5,R", clamp).first,
                  "malformed blocks '+5'");
        EXPECT_EQ(csvWhy("1,2,,R", clamp).first,
                  "malformed blocks ''");
        EXPECT_FALSE(csvWhy("1,2,,R", clamp).second);
    }
}

TEST(CsvRecordLine, OpTexts)
{
    EXPECT_EQ(csvWhy("1,2,3,", false),
              std::make_pair(std::string("bad op ''"), false));
    EXPECT_EQ(csvWhy("1,2,3, X", false),
              std::make_pair(std::string("bad op 'X'"), false));
    EXPECT_EQ(csvWhy("1,2,3,X", true),
              std::make_pair(std::string("bad op 'X'"), false));
    EXPECT_EQ(csvWhy("1,2,3,r", false),
              std::make_pair(std::string("bad op 'r'"), false));
    trace::Request r;
    EXPECT_EQ(csvWhy("1,2,3, w", true, &r),
              std::make_pair(std::string("lowercase op 'w'"), true));
    EXPECT_EQ(r.op, trace::Op::Write);
    EXPECT_EQ(r.blocks, 3u);
}

TEST(CsvRecordLine, ZeroBlocksTexts)
{
    trace::Request r;
    EXPECT_EQ(csvWhy("1,2,0,R", false),
              std::make_pair(std::string("zero-length request"), false));
    EXPECT_EQ(csvWhy("1,2,0,R", true, &r),
              std::make_pair(std::string("zero-length request"), true));
    EXPECT_EQ(r.blocks, 1u);
    // A lowercase op repaired too: the zero length names the record.
    EXPECT_EQ(csvWhy("1,2,0,r", true, &r),
              std::make_pair(std::string("zero-length request"), true));
    EXPECT_EQ(r.blocks, 1u);
    EXPECT_EQ(r.op, trace::Op::Read);
    // A bad op is not repairable; its text wins.
    EXPECT_EQ(csvWhy("1,2,0,Q", true),
              std::make_pair(std::string("bad op 'Q'"), false));
}

TEST(RawRecord, BadOpAndZeroBlocksIsRepairedWhole)
{
    const trace::MsRawRecord raw{5, 9, 0, 7, {0, 0, 0}};
    for (bool clamp : {false, true}) {
        trace::Request r;
        const trace::MsRecordParse p =
            trace::decodeMsRawRecord(raw, clamp, r);
        EXPECT_EQ(p.why, "bad op byte");
        EXPECT_EQ(p.clamped, clamp);
        if (clamp) {
            EXPECT_EQ(r.blocks, 1u);
            EXPECT_EQ(r.op, trace::Op::Write);
        }
    }
    trace::Request r;
    const trace::MsRecordParse zero = trace::decodeMsRawRecord(
        trace::MsRawRecord{5, 9, 0, 1, {0, 0, 0}}, true, r);
    EXPECT_EQ(zero.why, "zero-length request");
    EXPECT_TRUE(zero.clamped);
    EXPECT_EQ(r.blocks, 1u);
}

TEST(RawRecord, BadOpAndZeroBlocksUnderEveryPolicy)
{
    MsTrace tr("raw", 0, 1000);
    trace::Request a;
    a.arrival = 10;
    a.lba = 4;
    a.blocks = 8;
    tr.append(a);
    a.arrival = 20;
    tr.append(a);
    std::ostringstream os;
    trace::writeMsBinary(os, tr);
    std::string bytes = os.str();
    // Poison the last record: zero blocks and op byte 7.
    const std::size_t rec = bytes.size() - sizeof(trace::MsRawRecord);
    const std::uint32_t zero = 0;
    std::memcpy(&bytes[rec + 16], &zero, sizeof zero);
    bytes[rec + 20] = 7;

    for (trace::RecordPolicy policy :
         {trace::RecordPolicy::kAbort,
          trace::RecordPolicy::kSkipAndCount,
          trace::RecordPolicy::kBestEffortClamp}) {
        std::istringstream is(bytes);
        trace::IngestOptions opts;
        opts.policy = policy;
        StatusOr<MsTrace> got =
            trace::drainMsSource(trace::openMsBinarySource(is, opts),
                                 nullptr);
        const int name = static_cast<int>(policy);
        if (policy == trace::RecordPolicy::kAbort) {
            ASSERT_FALSE(got.ok()) << name;
            EXPECT_NE(got.status().message().find(
                          "bad op byte at record 1"),
                      std::string::npos)
                << got.status().message();
            continue;
        }
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().message();
        if (policy == trace::RecordPolicy::kSkipAndCount) {
            EXPECT_EQ(got.value().size(), 1u);
        } else {
            ASSERT_EQ(got.value().size(), 2u);
            EXPECT_EQ(got.value().at(1).blocks, 1u);
            EXPECT_EQ(got.value().at(1).op, trace::Op::Write);
        }
    }
}

// ---- Chunking invariance of the characterization kernels --------

TEST(CharacterizationPass, BurstinessIsChunkingInvariant)
{
    const MsTrace tr = sample();
    const core::BurstinessReport ref = core::analyzeBurstiness(tr);
    for (std::size_t bs : kSweep) {
        core::BurstinessAccumulator acc;
        MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(acc);
        ASSERT_TRUE(pass.run(src, bs).ok());
        const core::BurstinessReport &got = acc.report();
        EXPECT_EQ(got.interarrival_cv, ref.interarrival_cv);
        EXPECT_EQ(got.peak_to_mean, ref.peak_to_mean);
        EXPECT_EQ(got.hurst_var.h, ref.hurst_var.h);
        EXPECT_EQ(got.decorrelation_lag, ref.decorrelation_lag);
        ASSERT_EQ(got.idc.size(), ref.idc.size());
        for (std::size_t i = 0; i < ref.idc.size(); ++i)
            EXPECT_EQ(got.idc[i].idc, ref.idc[i].idc);
        ASSERT_EQ(got.acf.size(), ref.acf.size());
        for (std::size_t i = 0; i < ref.acf.size(); ++i)
            EXPECT_EQ(got.acf[i], ref.acf[i]);
    }
}

TEST(CharacterizationPass, RwMixIsChunkingInvariant)
{
    const MsTrace tr = sample();
    const core::RwDynamics ref = core::analyzeRwDynamics(tr, kSec);
    for (std::size_t bs : kSweep) {
        core::RwMixAccumulator acc(kSec);
        MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(acc);
        ASSERT_TRUE(pass.run(src, bs).ok());
        const core::RwDynamics &got = acc.report();
        EXPECT_EQ(got.read_fraction, ref.read_fraction);
        EXPECT_EQ(got.read_fraction_stddev, ref.read_fraction_stddev);
        EXPECT_EQ(got.write_dominated_fraction,
                  ref.write_dominated_fraction);
        EXPECT_EQ(got.mean_run_length, ref.mean_run_length);
        EXPECT_EQ(got.longest_write_run, ref.longest_write_run);
        EXPECT_EQ(got.write_bursts, ref.write_bursts);
        EXPECT_EQ(got.read_fraction_series, ref.read_fraction_series);
    }
}

TEST(CharacterizationPass, FootprintIsChunkingInvariant)
{
    const MsTrace tr = sample();
    const Lba capacity = 1 << 20;
    const core::FootprintReport ref =
        core::analyzeFootprint(tr, capacity);
    for (std::size_t bs : kSweep) {
        core::FootprintAccumulator acc(capacity);
        MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(acc);
        ASSERT_TRUE(pass.run(src, bs).ok());
        const core::FootprintReport &got = acc.report();
        EXPECT_EQ(got.extents_touched, ref.extents_touched);
        EXPECT_EQ(got.footprint_fraction, ref.footprint_fraction);
        EXPECT_EQ(got.top1_share, ref.top1_share);
        EXPECT_EQ(got.top10_share, ref.top10_share);
        EXPECT_EQ(got.extent_gini, ref.extent_gini);
        EXPECT_EQ(got.mean_run_requests, ref.mean_run_requests);
        EXPECT_EQ(got.longest_run_requests, ref.longest_run_requests);
        EXPECT_EQ(got.mean_seek_blocks, ref.mean_seek_blocks);
    }
}

TEST(CharacterizationPass, ModelExtractionIsChunkingInvariant)
{
    const MsTrace tr = sample(60 * kSec);
    const Lba capacity = 1 << 20;
    const synth::ExtractedModel ref =
        synth::extractModel(tr, capacity);
    for (std::size_t bs : kSweep) {
        synth::ModelAccumulator acc(capacity);
        MsTraceSource src(tr);
        core::CharacterizationPass pass;
        pass.add(acc);
        ASSERT_TRUE(pass.run(src, bs).ok());
        const synth::ExtractedModel &got = acc.model();
        EXPECT_EQ(got.rate, ref.rate);
        EXPECT_EQ(got.interarrival_cv, ref.interarrival_cv);
        EXPECT_EQ(got.bursty, ref.bursty);
        EXPECT_EQ(got.burst_rate, ref.burst_rate);
        EXPECT_EQ(got.mean_on, ref.mean_on);
        EXPECT_EQ(got.mean_off, ref.mean_off);
        EXPECT_EQ(got.read_fraction, ref.read_fraction);
        EXPECT_EQ(got.persistence, ref.persistence);
        EXPECT_EQ(got.size_median, ref.size_median);
        EXPECT_EQ(got.size_sigma, ref.size_sigma);
        EXPECT_EQ(got.size_max, ref.size_max);
        EXPECT_EQ(got.sequential_fraction, ref.sequential_fraction);
    }
}

TEST(CharacterizationPass, FusedAccumulatorsMatchSeparatePasses)
{
    const MsTrace tr = sample();
    const core::BurstinessReport b_ref = core::analyzeBurstiness(tr);
    const core::RwDynamics rw_ref = core::analyzeRwDynamics(tr);

    // One trip over the stream, both kernels riding it.
    core::BurstinessAccumulator b;
    core::RwMixAccumulator rw;
    MsTraceSource src(tr);
    core::CharacterizationPass pass;
    pass.add(b);
    pass.add(rw);
    ASSERT_TRUE(pass.run(src).ok());
    EXPECT_EQ(b.report().interarrival_cv, b_ref.interarrival_cv);
    EXPECT_EQ(b.report().hurst_var.h, b_ref.hurst_var.h);
    EXPECT_EQ(rw.report().mean_run_length, rw_ref.mean_run_length);
    EXPECT_EQ(rw.report().read_fraction, rw_ref.read_fraction);
}

// ---- End-to-end render identity ---------------------------------

TEST(StreamingPipeline, RenderIsByteIdenticalAtEveryBatchSize)
{
    const MsTrace tr = sample();
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());

    // Seed path: whole trace in, whole completion vector out.
    const disk::ServiceLog ref_log = drive.service(tr);
    const std::string ref =
        core::characterizeMs(tr, ref_log).render();

    for (std::size_t bs : kSweep) {
        MsTraceSource service_src(tr);
        const disk::ServiceLog log =
            drive.service(service_src, nullptr, bs);
        MsTraceSource pass_src(tr);
        const std::string got =
            core::characterizeMs(pass_src, log).render();
        EXPECT_EQ(got, ref) << "batch size " << bs;
    }
}

TEST(StreamingPipeline, StreamedServiceLogMatchesWholeTrace)
{
    const MsTrace tr = sample();
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    const disk::ServiceLog ref = drive.service(tr);

    for (std::size_t bs : kSweep) {
        MsTraceSource src(tr);
        const disk::ServiceLog log = drive.service(src, nullptr, bs);
        EXPECT_EQ(log.window_start, ref.window_start);
        EXPECT_EQ(log.window_end, ref.window_end);
        EXPECT_EQ(log.read_hits, ref.read_hits);
        EXPECT_EQ(log.buffered_writes, ref.buffered_writes);
        EXPECT_EQ(log.write_through, ref.write_through);
        EXPECT_EQ(log.destages, ref.destages);
        ASSERT_EQ(log.busy.size(), ref.busy.size());
        for (std::size_t i = 0; i < ref.busy.size(); ++i) {
            EXPECT_EQ(log.busy[i].first, ref.busy[i].first);
            EXPECT_EQ(log.busy[i].second, ref.busy[i].second);
        }
        ASSERT_EQ(log.completions.size(), ref.completions.size());
        for (std::size_t i = 0; i < ref.completions.size(); ++i) {
            EXPECT_EQ(log.completions[i].index,
                      ref.completions[i].index);
            EXPECT_EQ(log.completions[i].finish,
                      ref.completions[i].finish);
        }
    }
}

/** Collects the streamed completions for order checks. */
class RecordingSink : public disk::CompletionSink
{
  public:
    void
    onCompletion(const disk::Completion &c) override
    {
        completions.push_back(c);
    }

    std::vector<disk::Completion> completions;
};

TEST(StreamingPipeline, CompletionSinkSeesTheExactCompletionStream)
{
    const MsTrace tr = sample();
    disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
    const disk::ServiceLog ref = drive.service(tr);

    MsTraceSource src(tr);
    RecordingSink sink;
    const disk::ServiceLog log = drive.service(src, &sink);

    // With a sink the log stays lean...
    EXPECT_TRUE(log.completions.empty());
    // ...and the sink saw the exact stream, in the exact order.
    ASSERT_EQ(sink.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < ref.completions.size(); ++i) {
        EXPECT_EQ(sink.completions[i].index, ref.completions[i].index);
        EXPECT_EQ(sink.completions[i].arrival,
                  ref.completions[i].arrival);
        EXPECT_EQ(sink.completions[i].finish,
                  ref.completions[i].finish);
        EXPECT_EQ(sink.completions[i].cache_hit,
                  ref.completions[i].cache_hit);
    }
}

TEST(StreamingPipeline, WorkloadSourceMatchesGenerate)
{
    synth::Workload w = synth::Workload::makeFileServer(1 << 20, 30.0);
    Rng rng_a(11);
    const MsTrace ref = w.generate(rng_a, "wsrc", 0, 10 * kSec);

    Rng rng_b(11);
    synth::WorkloadSource src =
        w.openSource(rng_b, "wsrc", 0, 10 * kSec);
    EXPECT_EQ(src.size(), ref.size());
    MsTrace out;
    ASSERT_TRUE(trace::drainToTrace(src, out, 17).ok());
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_TRUE(out.at(i) == ref.at(i)) << "record " << i;
}

// ---- Interarrival edge cases (regression) -----------------------

TEST(Interarrivals, EmptyAndSingleRequestTracesAreSafe)
{
    // Underflow regression: size() - 1 on an empty trace must not
    // wrap; both degenerate traces yield no gaps.
    MsTrace empty("e", 0, kSec);
    EXPECT_TRUE(empty.interarrivals().empty());

    MsTrace one("o", 0, kSec);
    trace::Request r;
    r.arrival = 10;
    r.blocks = 8;
    one.append(r);
    EXPECT_TRUE(one.interarrivals().empty());

    MsTrace two("t", 0, kSec);
    r.arrival = 10;
    two.append(r);
    r.arrival = 25;
    two.append(r);
    const std::vector<double> gaps = two.interarrivals();
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0], 15.0);
}

TEST(Interarrivals, DegenerateTracesCharacterizeCleanly)
{
    // The streaming accumulators must survive the same degenerate
    // inputs the vector path guarded against.
    MsTrace one("o", 0, kSec);
    trace::Request r;
    r.arrival = 10;
    r.blocks = 8;
    one.append(r);
    const core::BurstinessReport rep = core::analyzeBurstiness(one);
    EXPECT_EQ(rep.interarrival_cv, 0.0);

    MsTrace empty("e", 0, kSec);
    const core::BurstinessReport rep0 = core::analyzeBurstiness(empty);
    EXPECT_EQ(rep0.interarrival_cv, 0.0);
}

// ---- Observation windows at the Tick limits ---------------------
//
// A decoder refuses a header whose window end, start + duration,
// does not fit a Tick; a window that fits but whose last bin would
// end past the largest Tick decodes, and every consumer that lays
// bins over it refuses it with CorruptData instead of sizing a series
// from an overflowed count.

constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** A header's window, and whether its end fits a Tick. */
struct WindowCase
{
    const char *name;
    Tick start;
    Tick duration;
    bool end_fits;
};

const WindowCase kDecodeWindows[] = {
    {"LargestWindow", 0, kMaxTick, true},
    {"EndsAtLargestTick", kMaxTick - 100, 100, true},
    {"EndPastLargestTick", 1, kMaxTick, false},
    {"LateStartLargestDuration", 1000, kMaxTick, false},
    {"StartAtLargestTick", kMaxTick, 1, false},
    {"NegativeDuration", 0, -1, false},
};

/** A CSV ms trace with `window` and no records. */
std::string
csvWindowTrace(const WindowCase &w)
{
    return "# dlw-ms-v1,w," + std::to_string(w.start) + "," +
           std::to_string(w.duration) + "\narrival_ns,lba,blocks,op\n";
}

/** A DLWMS1 ms trace with `window` and no records. */
std::string
binWindowTrace(const WindowCase &w)
{
    std::string out(trace::kMsBinaryMagic.begin(),
                    trace::kMsBinaryMagic.end());
    const std::uint32_t id_len = 1;
    const std::uint64_t count = 0;
    out.append(reinterpret_cast<const char *>(&id_len), 4);
    out += "w";
    out.append(reinterpret_cast<const char *>(&w.start), 8);
    out.append(reinterpret_cast<const char *>(&w.duration), 8);
    out.append(reinterpret_cast<const char *>(&count), 8);
    return out;
}

enum class Decoder
{
    CsvStream,
    CsvWhole,
    BinStream,
    BinWhole,
};

const char *
decoderName(Decoder d)
{
    switch (d) {
      case Decoder::CsvStream:
        return "CsvStream";
      case Decoder::CsvWhole:
        return "CsvWhole";
      case Decoder::BinStream:
        return "BinStream";
      case Decoder::BinWhole:
        return "BinWhole";
    }
    return "?";
}

/** Decode `w` with `d`: the window it delivers, or the refusal. */
StatusOr<std::pair<Tick, Tick>>
decodeWindow(Decoder d, const WindowCase &w)
{
    const bool csv = d == Decoder::CsvStream || d == Decoder::CsvWhole;
    std::istringstream is(csv ? csvWindowTrace(w) : binWindowTrace(w));
    const trace::IngestOptions opts;
    if (d == Decoder::CsvStream || d == Decoder::BinStream) {
        auto src = csv ? trace::openMsCsvSource(is, opts)
                       : trace::openMsBinarySource(is, opts);
        if (!src.ok())
            return src.status();
        return std::make_pair(src.value()->start(),
                              src.value()->duration());
    }
    auto tr = csv ? trace::readMsCsv(is, opts)
                  : trace::readMsBinary(is, opts);
    if (!tr.ok())
        return tr.status();
    return std::make_pair(tr.value().start(), tr.value().duration());
}

class DecodeWindow
    : public ::testing::TestWithParam<std::tuple<Decoder, WindowCase>>
{
};

TEST_P(DecodeWindow, RefusesOnlyAnEndPastTheLargestTick)
{
    const auto [d, w] = GetParam();
    const StatusOr<std::pair<Tick, Tick>> got = decodeWindow(d, w);
    if (w.end_fits) {
        ASSERT_TRUE(got.ok()) << got.status().message();
        EXPECT_EQ(got.value().first, w.start);
        EXPECT_EQ(got.value().second, w.duration);
    } else {
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), StatusCode::kCorruptData)
            << got.status().message();
    }
}

INSTANTIATE_TEST_SUITE_P(
    DecodersAndWindows, DecodeWindow,
    ::testing::Combine(::testing::Values(Decoder::CsvStream,
                                         Decoder::CsvWhole,
                                         Decoder::BinStream,
                                         Decoder::BinWhole),
                       ::testing::ValuesIn(kDecodeWindows)),
    [](const ::testing::TestParamInfo<DecodeWindow::ParamType> &p) {
        return std::string(decoderName(std::get<0>(p.param))) + "_" +
               std::get<1>(p.param).name;
    });

/** A window, and whether 10 ms and one-minute bins both fit it. */
struct BinWindowCase
{
    const char *name;
    Tick start;
    Tick duration;
    bool binnable;
};

/** Windows a decoder delivers: each one's end fits a Tick. */
const BinWindowCase kDecodedBinWindows[] = {
    {"LargestWindow", 0, kMaxTick, false},
    {"LastBinPastLargestTick", kMaxTick - 5, 5, false},
    {"MinuteBelowLargestTick", kMaxTick - 2 * kMinute, kMinute, true},
};

/**
 * The decoded windows and one whose end overflows, which only a
 * checkpoint's live state can carry to an accumulator.
 */
const BinWindowCase kStateBinWindows[] = {
    kDecodedBinWindows[0],
    kDecodedBinWindows[1],
    kDecodedBinWindows[2],
    {"EndPastLargestTick", 1000, kMaxTick, false},
};

enum class Consumer
{
    Burstiness,
    RwMix,
    Live,
    CharacterizeTrace,
    ServiceAndCharacterize,
};

const char *
consumerName(Consumer c)
{
    switch (c) {
      case Consumer::Burstiness:
        return "Burstiness";
      case Consumer::RwMix:
        return "RwMix";
      case Consumer::Live:
        return "Live";
      case Consumer::CharacterizeTrace:
        return "CharacterizeTrace";
      case Consumer::ServiceAndCharacterize:
        return "ServiceAndCharacterize";
    }
    return "?";
}

/** The status `c` ends with over an empty stream on window `w`. */
Status
consumeWindow(Consumer c, const BinWindowCase &w)
{
    const trace::MsStreamHeader meta{"w", w.start, w.duration};
    switch (c) {
      case Consumer::Burstiness:
        return core::BurstinessAccumulator().begin(meta);
      case Consumer::RwMix:
        return core::RwMixAccumulator().begin(meta);
      case Consumer::Live:
        return core::LiveCharacterization(meta).status();
      case Consumer::CharacterizeTrace: {
        const MsTrace tr("w", w.start, w.duration);
        MsTraceSource src(tr);
        return core::characterizeTrace(src).status();
      }
      case Consumer::ServiceAndCharacterize: {
        const MsTrace tr("w", w.start, w.duration);
        MsTraceSource src(tr);
        disk::DiskDrive drive(disk::DriveConfig::makeEnterprise());
        return core::serviceAndCharacterize(drive, src).status();
      }
    }
    return Status::internal("unknown consumer");
}

class BinWindow
    : public ::testing::TestWithParam<std::tuple<Consumer, BinWindowCase>>
{
};

TEST_P(BinWindow, RefusesAWindowItCannotBin)
{
    const auto [c, w] = GetParam();
    const Status s = consumeWindow(c, w);
    if (w.binnable) {
        EXPECT_TRUE(s.ok()) << s.message();
    } else {
        EXPECT_EQ(s.code(), StatusCode::kCorruptData) << s.message();
    }
}

std::string
binWindowName(const ::testing::TestParamInfo<BinWindow::ParamType> &p)
{
    return std::string(consumerName(std::get<0>(p.param))) + "_" +
           std::get<1>(p.param).name;
}

INSTANTIATE_TEST_SUITE_P(
    Accumulators, BinWindow,
    ::testing::Combine(::testing::Values(Consumer::Burstiness,
                                         Consumer::RwMix,
                                         Consumer::Live),
                       ::testing::ValuesIn(kStateBinWindows)),
    binWindowName);

// A RequestSource's window end fits a Tick (the drive model forms
// it), so the source consumers see only decoded windows.
INSTANTIATE_TEST_SUITE_P(
    Sources, BinWindow,
    ::testing::Combine(
        ::testing::Values(Consumer::CharacterizeTrace,
                          Consumer::ServiceAndCharacterize),
        ::testing::ValuesIn(kDecodedBinWindows)),
    binWindowName);

// ---- Block decode against the getline oracle -------------------
//
// The oracle is a copy of the file decoders as they were before the
// sources read their input in blocks: std::getline per CSV line,
// istream::read per binary record, and the find-based record parser
// that trimmed each field with std::isspace.  The block decoders must
// match it in every record, every corruption text (line numbers and
// record indexes included) and every IngestStats field.

namespace oracle
{

std::string_view
trimView(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

template <typename T>
bool
tryParse(std::string_view s, T &out)
{
    const std::string_view t = trimView(s);
    T v = 0;
    auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || p != t.data() + t.size())
        return false;
    out = v;
    return true;
}

std::string
quoted(std::string_view what, std::string_view field)
{
    std::string s(what);
    s += " '";
    s += trimView(field);
    s += '\'';
    return s;
}

std::string
atLine(std::size_t lineno, const std::string &what)
{
    std::ostringstream os;
    os << "line " << lineno << ": " << what;
    return os.str();
}

trace::MsRecordParse
parseLine(std::string_view trimmed, bool clamp, trace::Request &out)
{
    trace::MsRecordParse p;
    std::array<std::string_view, 4> f;
    std::size_t nf = 0;
    for (std::size_t start = 0; nf <= f.size();) {
        const std::size_t comma = trimmed.find(',', start);
        if (nf < f.size())
            f[nf] = trimmed.substr(start, comma - start);
        ++nf;
        if (comma == std::string_view::npos)
            break;
        start = comma + 1;
    }
    std::uint64_t blocks = 0;
    if (nf != f.size()) {
        p.why = "expected 4 fields";
    } else if (!tryParse(f[0], out.arrival)) {
        p.why = quoted("malformed arrival", f[0]);
    } else if (!tryParse(f[1], out.lba)) {
        p.why = quoted("malformed lba", f[1]);
    } else if (!tryParse(f[2], blocks)) {
        p.why = quoted("malformed blocks", f[2]);
    } else {
        out.blocks = static_cast<BlockCount>(blocks);
        const std::string_view op = trimView(f[3]);
        if (op == "R") {
            out.op = trace::Op::Read;
        } else if (op == "W") {
            out.op = trace::Op::Write;
        } else if (clamp && (op == "r" || op == "w")) {
            out.op = op == "r" ? trace::Op::Read : trace::Op::Write;
            p.clamped = true;
            p.why = quoted("lowercase op", op);
        } else {
            p.why = quoted("bad op", op);
        }
        if ((p.why.empty() || p.clamped) && out.blocks == 0) {
            p.clamped = clamp;
            p.why = "zero-length request";
            if (clamp)
                out.blocks = 1;
        }
    }
    return p;
}

class CsvSource final : public trace::FileSource
{
  public:
    CsvSource(const trace::IngestOptions &opts,
              trace::MsStreamHeader head, std::istream &is)
        : FileSource(opts, head.drive_id, head.start, head.duration),
          is_(is)
    {
    }

    bool
    next(RequestBatch &batch) override
    {
        batch.clear();
        if (done_)
            return false;
        std::string line;
        while (!batch.full() && std::getline(is_, line)) {
            ++lineno_;
            const std::string_view t = trimView(line);
            if (t.empty())
                continue;
            const std::size_t record_bytes = line.size() + 1;
            std::string why;
            bool was_clamped = false;
            trace::Request r;
            if (FAULT_POINT("trace.read.record")) {
                why = atLine(lineno_,
                             "injected fault at trace.read.record");
            } else {
                trace::MsRecordParse p =
                    parseLine(t, gate_.clampMode(), r);
                was_clamped = p.clamped;
                if (!p.why.empty())
                    why = atLine(lineno_, p.why);
            }
            if (!why.empty()) {
                Status s = gate_.corrupt(why);
                if (!s.ok()) {
                    status_ = std::move(s);
                    done_ = true;
                    return false;
                }
                if (!was_clamped) {
                    gate_.skip();
                    continue;
                }
                gate_.clamped();
            }
            batch.append(r);
            gate_.accept(record_bytes);
        }
        if (!batch.full())
            done_ = true;
        return !batch.empty();
    }

  private:
    std::istream &is_;
    std::size_t lineno_ = 2;
};

StatusOr<std::unique_ptr<trace::FileSource>>
openCsv(std::istream &is, const trace::IngestOptions &opts)
{
    std::string line;
    if (!std::getline(is, line))
        return Status::truncated("empty ms-trace CSV");
    trace::MsStreamHeader head;
    Status hs = trace::parseMsCsvHeaderLine(line, head);
    if (!hs.ok())
        return hs;
    if (!std::getline(is, line))
        return Status::truncated("truncated CSV: missing column header");
    return std::unique_ptr<trace::FileSource>(
        new CsvSource(opts, std::move(head), is));
}

template <typename T>
bool
readRaw(std::istream &is, T &v)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    return static_cast<bool>(is);
}

class BinarySource final : public trace::FileSource
{
  public:
    BinarySource(const trace::IngestOptions &opts, std::string id,
                 Tick start, Tick duration, std::uint64_t count,
                 std::istream &is)
        : FileSource(opts, std::move(id), start, duration), is_(is),
          count_(count)
    {
    }

    bool
    next(RequestBatch &batch) override
    {
        batch.clear();
        if (done_)
            return false;
        const bool clamp = gate_.clampMode();
        while (!batch.full() && i_ < count_) {
            trace::MsRawRecord raw{};
            if (!readRaw(is_, raw)) {
                std::ostringstream os;
                os << "truncated binary trace at record " << i_
                   << " of " << count_;
                gate_.st.noteError(os.str(), opts_.max_error_samples);
                if (opts_.policy == trace::RecordPolicy::kAbort) {
                    status_ = Status::truncated(os.str());
                    done_ = true;
                    return false;
                }
                gate_.st.records_skipped += count_ - i_;
                i_ = count_;
                break;
            }
            const std::uint64_t rec = i_++;
            std::string why;
            bool was_clamped = false;
            trace::Request r;
            if (FAULT_POINT("trace.read.record")) {
                std::ostringstream os;
                os << "injected fault at trace.read.record (record "
                   << rec << ")";
                why = os.str();
            } else {
                trace::MsRecordParse p =
                    trace::decodeMsRawRecord(raw, clamp, r);
                was_clamped = p.clamped;
                if (!p.why.empty()) {
                    std::ostringstream os;
                    os << p.why << " at record " << rec;
                    why = os.str();
                }
            }
            if (!why.empty()) {
                Status s = gate_.corrupt(why);
                if (!s.ok()) {
                    status_ = std::move(s);
                    done_ = true;
                    return false;
                }
                if (!was_clamped) {
                    gate_.skip();
                    continue;
                }
                gate_.clamped();
            }
            batch.append(r);
            gate_.accept(sizeof(trace::MsRawRecord));
        }
        if (i_ >= count_)
            done_ = true;
        return !batch.empty();
    }

  private:
    std::istream &is_;
    std::uint64_t count_ = 0;
    std::uint64_t i_ = 0;
};

StatusOr<std::unique_ptr<trace::FileSource>>
openBinary(std::istream &is, const trace::IngestOptions &opts)
{
    std::array<char, 8> magic{};
    is.read(magic.data(), magic.size());
    if (!is || magic != trace::kMsBinaryMagic)
        return Status::corruptData("not a dlw binary ms trace (bad magic)");
    std::uint32_t id_len = 0;
    if (!readRaw(is, id_len)) {
        return Status::truncated(
            "truncated binary trace while reading id length");
    }
    if (id_len > 4096) {
        std::ostringstream os;
        os << "implausible drive-id length " << id_len;
        return Status::corruptData(os.str());
    }
    std::string id(id_len, '\0');
    is.read(id.data(), id_len);
    if (!is) {
        return Status::truncated(
            "truncated binary trace while reading drive id");
    }
    Tick start = 0, duration = 0;
    std::uint64_t count = 0;
    if (!readRaw(is, start) || !readRaw(is, duration) ||
        !readRaw(is, count)) {
        return Status::truncated(
            "truncated binary trace while reading header");
    }
    if (duration < 0)
        return Status::corruptData("negative duration in binary header");
    return std::unique_ptr<trace::FileSource>(
        new BinarySource(opts, std::move(id), start, duration, count, is));
}

} // namespace oracle

/** Everything a drain of one source observes. */
struct Decoded
{
    Status open;
    std::string drive_id;
    Tick start = 0;
    Tick duration = 0;
    std::vector<trace::Request> records;
    Status end;
    trace::IngestStats stats;
};

using Opener = StatusOr<std::unique_ptr<trace::FileSource>> (*)(
    std::istream &, const trace::IngestOptions &);

Decoded
decode(Opener open, const std::string &bytes,
       const trace::IngestOptions &opts, std::size_t batch_requests)
{
    std::istringstream is(bytes);
    auto src = open(is, opts);
    Decoded d;
    if (!src.ok()) {
        d.open = src.status();
        return d;
    }
    trace::FileSource &s = *src.value();
    d.drive_id = s.driveId();
    d.start = s.start();
    d.duration = s.duration();
    RequestBatch batch(batch_requests);
    while (s.next(batch)) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            d.records.push_back(batch.get(i));
    }
    d.end = s.status();
    d.stats = s.stats();
    return d;
}

::testing::AssertionResult
sameDecode(const Decoded &want, const Decoded &got)
{
    auto fail = [](const char *what) {
        return ::testing::AssertionFailure() << what << " differs";
    };
    if (got.open.code() != want.open.code() ||
        got.open.message() != want.open.message()) {
        return ::testing::AssertionFailure()
               << "open: '" << got.open.toString() << "' vs oracle '"
               << want.open.toString() << "'";
    }
    if (got.drive_id != want.drive_id || got.start != want.start ||
        got.duration != want.duration)
        return fail("header");
    if (got.end.code() != want.end.code() ||
        got.end.message() != want.end.message()) {
        return ::testing::AssertionFailure()
               << "status: '" << got.end.toString() << "' vs oracle '"
               << want.end.toString() << "'";
    }
    if (got.records.size() != want.records.size()) {
        return ::testing::AssertionFailure()
               << got.records.size() << " records vs oracle "
               << want.records.size();
    }
    for (std::size_t i = 0; i < got.records.size(); ++i) {
        if (!(got.records[i] == want.records[i]))
            return ::testing::AssertionFailure() << "record " << i;
    }
    const trace::IngestStats &a = got.stats;
    const trace::IngestStats &b = want.stats;
    if (a.records_read != b.records_read ||
        a.records_skipped != b.records_skipped ||
        a.records_clamped != b.records_clamped ||
        a.errors != b.errors || a.bytes_read != b.bytes_read ||
        a.bytes_recovered != b.bytes_recovered)
        return fail("IngestStats counts");
    if (a.error_samples != b.error_samples)
        return fail("error texts");
    return ::testing::AssertionSuccess();
}

const trace::RecordPolicy kPolicies[] = {
    trace::RecordPolicy::kAbort, trace::RecordPolicy::kSkipAndCount,
    trace::RecordPolicy::kBestEffortClamp};

trace::IngestOptions
keepEveryText(trace::RecordPolicy policy)
{
    trace::IngestOptions opts;
    opts.policy = policy;
    opts.max_error_samples = 1 << 20;
    return opts;
}

std::string
bytesOf(const char *s, std::size_t n)
{
    return std::string(s, n);
}

/** Record lines at the parser's edges (no newline in any). */
const std::vector<std::string> &
edgeLines()
{
    static const std::vector<std::string> lines = {
        "10,0,8,R", "20,8,4,W", "  30 ,\t16 , 2 ,  R  ", "40,24,2,W\r",
        "", "   ", "\t\v\f\r", "\r",
        "1,2,3", "1,2,3,R,x", "1,2,3,R,", ",,,", ",", "1",
        "+5,2,3,R", "5,+2,3,R", "5,-2,3,R", "-5,2,3,R", "5,2,-3,R",
        "-,2,3,R", "5,2,3,+R", "- 5,2,3,R", "5,2,3,R R",
        bytesOf("5,2\0,3,R", 8), bytesOf("5\0,2,3,R", 8),
        bytesOf("\0", 1), bytesOf("5,2,3,R\0", 8), bytesOf("\0 5,2,3,W", 9),
        "9223372036854775807,2,3,R", "9223372036854775808,2,3,R",
        "-9223372036854775808,2,3,R", "-9223372036854775809,2,3,R",
        "1,18446744073709551615,3,R", "1,18446744073709551616,3,R",
        "1,2,18446744073709551615,R", "1,2,4294967296,W",
        "1,2,18446744073709551616,R", "1,2,0,R", "1,2,0,r", "1,2,0,Q",
        "1,2,3,r", "1,2,3,w", "1,2,3,x", "1,2,3,RW", "1,2,3, W ",
        "1,2,3,\vR\f", "1,2,3,", "1 2,3,4,R", "1,2 3,4,R", "0x10,2,3,R",
        "1e3,2,3,R", "01,002,0003,R", "\xff,2,3,R", "1,2,3,\xc2\xa0R",
        "7 , 7 , 7 , w", "00000000000000000000000000001,2,3,R",
    };
    return lines;
}

/** A seeded mutation of an edge line: inserts, deletes, swaps. */
std::string
mutate(Rng &rng, std::string line)
{
    static const char kAlphabet[] = "0123456789,,,  \t\r\v\f+-RWrwx\xff";
    const std::size_t alphabet = sizeof(kAlphabet) - 1; // no final NUL
    const auto edits = rng.uniformInt(0, 3);
    for (std::int64_t k = 0; k < edits; ++k) {
        const auto at = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(line.size())));
        const char c = rng.bernoulli(0.05)
                           ? '\0'
                           : kAlphabet[rng.uniformInt(
                                 0, static_cast<std::int64_t>(alphabet) -
                                        1)];
        switch (rng.uniformInt(0, 2)) {
        case 0:
            line.insert(line.begin() + static_cast<std::ptrdiff_t>(at), c);
            break;
        case 1:
            if (at < line.size())
                line.erase(at, 1);
            break;
        default:
            if (at < line.size())
                line[at] = c;
            break;
        }
    }
    return line;
}

std::vector<std::string>
mutatedCorpus(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    const std::vector<std::string> &edges = edgeLines();
    std::vector<std::string> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.bernoulli(0.5)) {
            // A record as the writer prints it.
            out.push_back(mutate(
                rng, std::to_string(rng.uniformInt(0, 1LL << 42)) + "," +
                         std::to_string(rng.uniformInt(0, 1LL << 30)) +
                         "," + std::to_string(rng.uniformInt(0, 256)) +
                         (rng.bernoulli(0.5) ? ",R" : ",W")));
            continue;
        }
        const auto pick = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(edges.size()) - 1));
        out.push_back(mutate(rng, edges[pick]));
    }
    return out;
}

/** `lines` joined by LF or CRLF at random, with a final newline or not. */
std::string
joinLines(Rng &rng, const std::vector<std::string> &lines,
          bool final_newline)
{
    std::string text;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        text += lines[i];
        if (i + 1 < lines.size() || final_newline)
            text += rng.bernoulli(0.3) ? "\r\n" : "\n";
    }
    return text;
}

TEST(BlockDecode, RecordParserMatchesTheOracle)
{
    std::vector<std::string> lines = mutatedCorpus(20, 20000);
    lines.insert(lines.end(), edgeLines().begin(), edgeLines().end());
    for (const std::string &line : lines) {
        const std::string_view t = trimView(line);
        if (t.empty())
            continue;
        for (bool clamp : {false, true}) {
            trace::Request want, got;
            const trace::MsRecordParse a =
                oracle::parseLine(t, clamp, want);
            const trace::MsRecordParse b =
                trace::parseMsCsvRecordLine(t, clamp, got);
            ASSERT_EQ(b.why, a.why) << "line '" << line << "'";
            ASSERT_EQ(b.clamped, a.clamped) << "line '" << line << "'";
            if (a.usable()) {
                ASSERT_TRUE(got == want) << "line '" << line << "'";
            }
        }
    }
}

TEST(BlockDecode, CsvHeadersMatchTheOracle)
{
    const std::vector<std::string> files = {
        "",
        "\n",
        "# dlw-ms-v1,d,0,1000",
        "# dlw-ms-v1,d,0,1000\n",
        "# dlw-ms-v1,d,0,1000\r\narrival_ns,lba,blocks,op",
        "# dlw-ms-v1,d,0,1000\narrival_ns,lba,blocks,op\n",
        "# dlw-ms-v1,d,0,1000\narrival_ns,lba,blocks,op\n1,2,3,R",
        "  # dlw-ms-v1 , d ,0, 1000 \r\n\n1,2,3,R\n",
        "# dlw-ms-v1,d,0,-1\nx\n",
        "# dlw-ms-v1,d,0\nx\n",
        "# dlw-ms-v2,d,0,1000\nx\n",
        bytesOf("# dlw-ms-v1,d\0,0,1000\nx\n1,2,3,R\n", 32),
    };
    for (const std::string &text : files) {
        for (trace::RecordPolicy policy : kPolicies) {
            const trace::IngestOptions opts = keepEveryText(policy);
            ASSERT_TRUE(sameDecode(decode(oracle::openCsv, text, opts, 7),
                                   decode(trace::openMsCsvSource, text,
                                          opts, 7)))
                << "file '" << text << "'";
        }
    }
}

TEST(BlockDecode, CsvMatchesTheOracleAtEveryRefillOffset)
{
    // The column-header line is never parsed, so its length moves
    // the first block boundary across every byte of the records.
    const std::string head = "# dlw-ms-v1,edge,0,100000000\n";
    Rng rng(7);
    std::vector<std::string> lines = edgeLines();
    const std::vector<std::string> more = mutatedCorpus(8, 40);
    lines.insert(lines.end(), more.begin(), more.end());
    for (bool final_newline : {true, false}) {
        const std::string records = joinLines(rng, lines, final_newline);
        ASSERT_LT(head.size() + records.size() + 1,
                  trace::kDecodeBlockBytes);
        for (trace::RecordPolicy policy : kPolicies) {
            const trace::IngestOptions opts = keepEveryText(policy);
            const std::string base = head + "c\n" + records;
            const Decoded want = decode(oracle::openCsv, base, opts, 5);
            for (std::size_t at = 0; at <= records.size(); ++at) {
                const std::size_t column =
                    trace::kDecodeBlockBytes - head.size() - 1 - at;
                const std::string text =
                    head + std::string(column, 'c') + "\n" + records;
                ASSERT_TRUE(sameDecode(
                    want, decode(trace::openMsCsvSource, text, opts, 5)))
                    << "policy " << static_cast<int>(policy)
                    << ", refill at record byte " << at
                    << (final_newline ? "" : ", no final newline");
            }
        }
    }
}

TEST(BlockDecode, CsvMatchesTheOracleOnAMutatedCorpus)
{
    Rng rng(11);
    std::vector<std::string> lines = mutatedCorpus(12, 6000);
    // Lines longer than a block: a valid record padded inside a
    // field, and garbage.
    lines.insert(lines.begin() + 100,
                 "7," + std::string(3 * trace::kDecodeBlockBytes, ' ') +
                     "8,9,W");
    lines.insert(lines.begin() + 3000,
                 std::string(trace::kDecodeBlockBytes + 5, 'x'));
    lines.push_back(std::string(2 * trace::kDecodeBlockBytes, ' '));
    lines.push_back("11,12,13,W");
    for (bool final_newline : {true, false}) {
        const std::string text = "# dlw-ms-v1,mut,5,100000000\n"
                                 "arrival_ns,lba,blocks,op\r\n" +
                                 joinLines(rng, lines, final_newline);
        ASSERT_GT(text.size(), 4 * trace::kDecodeBlockBytes);
        for (trace::RecordPolicy policy : kPolicies) {
            const trace::IngestOptions opts = keepEveryText(policy);
            for (std::size_t bs : kSweep) {
                const Decoded want =
                    decode(oracle::openCsv, text, opts, bs);
                EXPECT_TRUE(sameDecode(
                    want, decode(trace::openMsCsvSource, text, opts, bs)))
                    << "policy " << static_cast<int>(policy) << ", batch " << bs
                    << (final_newline ? "" : ", no final newline");
                if (policy == trace::RecordPolicy::kSkipAndCount &&
                    bs == 4096) {
                    // The corpus must reach the far end and exercise
                    // every branch, or the comparison proves little.
                    EXPECT_GT(want.stats.records_read, 1000u);
                    EXPECT_GT(want.stats.records_skipped, 1000u);
                }
            }
        }
    }
}

TEST(BlockDecode, FaultPointFiresOnTheSameRecords)
{
    const std::string text = "# dlw-ms-v1,f,0,100000\n"
                             "arrival_ns,lba,blocks,op\n"
                             "1,0,8,R\n\n2,8,8,W\n3,16,8,R\n"
                             "4,24,8,W\r\n5,32,8,R\n6,40,8,W";
    MsTrace tr("f", 0, 100000);
    for (Tick t = 1; t <= 9; ++t) {
        trace::Request r;
        r.arrival = t;
        r.lba = static_cast<Lba>(8 * t);
        r.blocks = 8;
        tr.append(r);
    }
    std::ostringstream bin;
    trace::writeMsBinary(bin, tr);
    for (trace::RecordPolicy policy : kPolicies) {
        const trace::IngestOptions opts = keepEveryText(policy);
        for (const auto &[open_old, open_new, bytes] :
             {std::make_tuple(Opener(oracle::openCsv),
                              Opener(trace::openMsCsvSource), text),
              std::make_tuple(Opener(oracle::openBinary),
                              Opener(trace::openMsBinarySource),
                              bin.str())}) {
            Decoded want, got;
            {
                fault::ScopedFault f("trace.read.record:nth=3");
                want = decode(open_old, bytes, opts, 2);
            }
            {
                fault::ScopedFault f("trace.read.record:nth=3");
                got = decode(open_new, bytes, opts, 2);
            }
            EXPECT_GT(want.stats.errors, 0u);
            EXPECT_TRUE(sameDecode(want, got))
                << "policy " << static_cast<int>(policy);
        }
    }
}

/** A binary trace of `n` records; record `bad` has zero blocks, op 7. */
std::string
binaryTrace(std::size_t n, std::size_t bad)
{
    MsTrace tr("bin-drive", 3, 1000000);
    for (std::size_t i = 0; i < n; ++i) {
        trace::Request r;
        r.arrival = static_cast<Tick>(10 * i);
        r.lba = 8 * i;
        r.blocks = 8;
        r.op = i % 2 == 0 ? trace::Op::Read : trace::Op::Write;
        tr.append(r);
    }
    std::ostringstream os;
    trace::writeMsBinary(os, tr);
    std::string bytes = os.str();
    const std::size_t rec = bytes.size() -
                            (n - bad) * sizeof(trace::MsRawRecord);
    const std::uint32_t zero = 0;
    std::memcpy(&bytes[rec + 16], &zero, sizeof zero);
    bytes[rec + 20] = 7;
    return bytes;
}

TEST(BlockDecode, BinaryMatchesTheOracleAtEveryTruncation)
{
    // Small: every prefix, header bytes included.  Large: past one
    // block, cut at every byte of the last three records.
    const std::string small = binaryTrace(6, 2);
    const std::size_t n_large =
        2 * trace::kDecodeBlockBytes / sizeof(trace::MsRawRecord) + 3;
    const std::string large = binaryTrace(n_large, n_large - 2);
    const std::size_t cut_from =
        large.size() - 3 * sizeof(trace::MsRawRecord);
    for (trace::RecordPolicy policy : kPolicies) {
        const trace::IngestOptions opts = keepEveryText(policy);
        for (std::size_t len = 0; len <= small.size(); ++len) {
            const std::string bytes = small.substr(0, len);
            ASSERT_TRUE(sameDecode(
                decode(oracle::openBinary, bytes, opts, 4),
                decode(trace::openMsBinarySource, bytes, opts, 4)))
                << "policy " << static_cast<int>(policy) << ", " << len
                << " of " << small.size() << " bytes";
        }
        for (std::size_t len = cut_from; len <= large.size(); ++len) {
            const std::string bytes = large.substr(0, len);
            ASSERT_TRUE(sameDecode(
                decode(oracle::openBinary, bytes, opts, 4096),
                decode(trace::openMsBinarySource, bytes, opts, 4096)))
                << "policy " << static_cast<int>(policy) << ", " << len
                << " of " << large.size() << " bytes";
        }
    }
    // A trailing byte past the records is ignored by both.
    const trace::IngestOptions opts;
    EXPECT_TRUE(
        sameDecode(decode(oracle::openBinary, small + "z", opts, 4),
                   decode(trace::openMsBinarySource, small + "z", opts,
                          4)));
}

} // anonymous namespace
} // namespace dlw
