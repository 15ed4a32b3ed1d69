/**
 * @file
 * Round-trip and malformed-input tests for trace CSV, binary, and
 * SPC formats.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "synth/workload.hh"
#include "trace/binio.hh"
#include "trace/csvio.hh"
#include "trace/spc.hh"

namespace dlw
{
namespace trace
{
namespace
{

MsTrace
sampleMs()
{
    Rng rng(9);
    synth::Workload w = synth::Workload::makeOltp(1 << 20, 40.0);
    return w.generate(rng, "unit-drive", 0, 10 * kSec);
}

TEST(CsvIo, MsRoundTrip)
{
    MsTrace a = sampleMs();
    std::stringstream ss;
    writeMsCsv(ss, a);
    MsTrace b = readMsCsv(ss, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.driveId(), a.driveId());
    EXPECT_EQ(b.start(), a.start());
    EXPECT_EQ(b.duration(), a.duration());
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(a.at(i) == b.at(i)) << "record " << i;
}

TEST(CsvIo, MsRejectsBadHeader)
{
    std::stringstream ss("not a header\n");
    StatusOr<MsTrace> r = readMsCsv(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("bad ms-trace header"),
              std::string::npos);
}

TEST(CsvIo, MsRejectsBadOp)
{
    std::stringstream ss("# dlw-ms-v1,d,0,1000\n"
                         "arrival_ns,lba,blocks,op\n"
                         "10,0,8,X\n");
    StatusOr<MsTrace> r = readMsCsv(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("bad op"), std::string::npos);
}

TEST(CsvIo, MsRejectsShortRow)
{
    std::stringstream ss("# dlw-ms-v1,d,0,1000\n"
                         "arrival_ns,lba,blocks,op\n"
                         "10,0,8\n");
    StatusOr<MsTrace> r = readMsCsv(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("expected 4 fields"),
              std::string::npos);
}

TEST(CsvIo, LifetimeWriterFormat)
{
    LifetimeTrace a("FAM-X");
    LifetimeRecord r;
    r.drive_id = "d0";
    r.power_on = 10 * kHour;
    r.busy = kHour;
    r.reads = 4;
    r.writes = 2;
    r.read_blocks = 32;
    r.write_blocks = 16;
    r.peak_hour_requests = 3;
    r.saturated_hours = 1;
    r.longest_saturated_run = 1;
    a.append(r);
    std::stringstream ss;
    writeLifetimeCsv(ss, a);
    EXPECT_EQ(ss.str(),
              "# dlw-lifetime-v1,FAM-X\n"
              "drive_id,power_on_ns,busy_ns,reads,writes,read_blocks,"
              "write_blocks,peak_hour_requests,saturated_hours,"
              "longest_saturated_run\n"
              "d0,36000000000000,3600000000000,4,2,32,16,3,1,1\n");
}

TEST(BinIo, RoundTripExact)
{
    MsTrace a = sampleMs();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMsBinary(ss, a);
    MsTrace b = readMsBinary(ss);
    EXPECT_EQ(b.driveId(), a.driveId());
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(a.at(i) == b.at(i)) << "record " << i;
}

TEST(BinIo, RejectsBadMagic)
{
    std::stringstream ss("GARBAGE!more garbage");
    StatusOr<MsTrace> r = readMsBinary(ss, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("bad magic"),
              std::string::npos);
}

TEST(BinIo, RejectsTruncation)
{
    MsTrace a = sampleMs();
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    writeMsBinary(ss, a);
    std::string data = ss.str();
    std::stringstream cut(data.substr(0, data.size() / 2),
                          std::ios::in | std::ios::binary);
    StatusOr<MsTrace> r = readMsBinary(cut, IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTruncated);
    EXPECT_NE(r.status().message().find("truncated"),
              std::string::npos);
}

TEST(BinIo, FileRoundTrip)
{
    MsTrace a = sampleMs();
    const std::string path =
        ::testing::TempDir() + "/dlw_binio_test.bin";
    writeMsBinary(path, a);
    MsTrace b = readMsBinary(path, IngestOptions{}).valueOrThrow();
    EXPECT_EQ(b.size(), a.size());
}

TEST(Spc, ParsesAndSorts)
{
    std::stringstream ss(
        "0,1000,4096,r,0.002\n"
        "0,2000,512,W,0.001\n"
        "1,3000,512,r,0.003\n");
    MsTrace t = readSpc(ss, "spc-drive", IngestOptions{}).valueOrThrow();
    ASSERT_EQ(t.size(), 3u);
    // Sorted by arrival.
    EXPECT_EQ(t.at(0).lba, 2000u);
    EXPECT_TRUE(t.at(0).isWrite());
    EXPECT_EQ(t.at(1).lba, 1000u);
    EXPECT_EQ(t.at(1).blocks, 8u);
    EXPECT_EQ(t.at(1).arrival, 2 * kMsec);
    EXPECT_TRUE(t.validate());
}

TEST(Spc, AsuFilter)
{
    std::stringstream ss(
        "0,1000,512,r,0.001\n"
        "1,2000,512,r,0.002\n"
        "0,3000,512,r,0.003\n");
    MsTrace t =
        readSpc(ss, "d", IngestOptions{}, nullptr, 0).valueOrThrow();
    EXPECT_EQ(t.size(), 2u);
}

TEST(Spc, SkipsCommentsAndBlanks)
{
    std::stringstream ss(
        "# header comment\n"
        "\n"
        "0,1000,512,r,0.001\n");
    MsTrace t = readSpc(ss, "d", IngestOptions{}).valueOrThrow();
    EXPECT_EQ(t.size(), 1u);
}

TEST(Spc, RejectsBadSize)
{
    std::stringstream ss("0,1000,100,r,0.001\n");
    StatusOr<MsTrace> r = readSpc(ss, "d", IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
    EXPECT_NE(r.status().message().find("multiple of 512"),
              std::string::npos);
}

TEST(Spc, CorruptLinesFollowThePolicy)
{
    const std::string input = "0,0,4096,r,0.001\n"  // good, 17 bytes
                              "0,8,100,w,0.002\n"   // clamp: 512 B
                              "0,16,4096,x,0.003\n" // bad opcode
                              "0,24,4096,w,-0.5\n"  // clamp: t = 0
                              "abc\n"               // too few fields
                              "0,32,512,r,0.004\n"; // good
    const std::string first_error =
        "SPC line 2: size not a positive multiple of 512";
    struct Case
    {
        RecordPolicy policy;
        std::uint64_t read, skipped, clamped;
    };
    for (const Case &c : {Case{RecordPolicy::kSkipAndCount, 2, 4, 0},
                          Case{RecordPolicy::kBestEffortClamp, 4, 2, 2}}) {
        std::stringstream ss(input);
        IngestOptions opts;
        opts.policy = c.policy;
        IngestStats st;
        StatusOr<MsTrace> r = readSpc(ss, "d", opts, &st);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        EXPECT_EQ(r.value().size(), c.read);
        EXPECT_EQ(st.records_read, c.read);
        EXPECT_EQ(st.records_skipped, c.skipped);
        EXPECT_EQ(st.records_clamped, c.clamped);
        EXPECT_EQ(st.errors, 4u);
        ASSERT_FALSE(st.error_samples.empty());
        EXPECT_EQ(st.error_samples.front(), first_error);
        EXPECT_EQ(st.bytes_recovered, st.bytes_read - 17);
    }
    std::stringstream ss(input);
    IngestStats st;
    StatusOr<MsTrace> r = readSpc(ss, "d", IngestOptions{}, &st);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().message(), first_error);
    EXPECT_EQ(st.records_read, 1u);
    EXPECT_EQ(st.errors, 1u);
}

TEST(Spc, RoundTripThroughWriter)
{
    MsTrace a = sampleMs();
    std::stringstream ss;
    writeSpc(ss, a);
    MsTrace b =
        readSpc(ss, a.driveId(), IngestOptions{}).valueOrThrow();
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(b.at(i).lba, a.at(i).lba);
        EXPECT_EQ(b.at(i).blocks, a.at(i).blocks);
        EXPECT_EQ(b.at(i).op, a.at(i).op);
        // Timestamps survive to nanosecond resolution.
        EXPECT_NEAR(static_cast<double>(b.at(i).arrival),
                    static_cast<double>(a.at(i).arrival), 1.0);
    }
}

TEST(CsvIo, MissingFile)
{
    StatusOr<MsTrace> r =
        readMsCsv("/nonexistent/path/trace.csv", IngestOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_NE(r.status().message().find("cannot open"),
              std::string::npos);
}

} // anonymous namespace
} // namespace trace
} // namespace dlw
