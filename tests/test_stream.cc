/**
 * @file
 * Streaming-pipeline tests: batch/source mechanics, streamed file
 * decoding against the whole-trace readers, chunking invariance of
 * the characterization pass (bit-identical results at every batch
 * size), and the streamed drive-service path.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "core/burstiness.hh"
#include "core/characterize.hh"
#include "core/footprint.hh"
#include "core/pass.hh"
#include "core/rwmix.hh"
#include "disk/drive.hh"
#include "synth/extract.hh"
#include "synth/workload.hh"
#include "trace/batch.hh"
#include "trace/binio.hh"
#include "trace/csvio.hh"
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
        const char *name = trace::recordPolicyName(policy);
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

} // anonymous namespace
} // namespace dlw
