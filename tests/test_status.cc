/**
 * @file
 * Unit tests for the recoverable error model (common/status) and the
 * shared retry backoff (common/retry): the rendering every CLI error
 * line and DLWR1 error response goes through, and the one schedule
 * the fleet's shard retries and the stream client's reconnects wait
 * on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.hh"
#include "common/status.hh"

namespace dlw
{
namespace
{

// ---- Status ----

struct Factory
{
    Status (*make)(std::string);
    StatusCode code;
    const char *name;
};

const Factory kFactories[] = {
    {&Status::invalidArgument, StatusCode::kInvalidArgument,
     "InvalidArgument"},
    {&Status::corruptData, StatusCode::kCorruptData, "CorruptData"},
    {&Status::truncated, StatusCode::kTruncated, "Truncated"},
    {&Status::ioError, StatusCode::kIoError, "IoError"},
    {&Status::failedPrecondition, StatusCode::kFailedPrecondition,
     "FailedPrecondition"},
    {&Status::unavailable, StatusCode::kUnavailable, "Unavailable"},
    {&Status::internal, StatusCode::kInternal, "Internal"},
};

class StatusFactory : public ::testing::TestWithParam<Factory>
{
};

TEST_P(StatusFactory, CarriesItsCodeNameAndMessage)
{
    const Factory f = GetParam();
    const Status s = f.make("line 7: bad op 'Q'");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), f.code);
    EXPECT_STREQ(statusCodeName(s.code()), f.name);
    EXPECT_EQ(s.message(), "line 7: bad op 'Q'");
    EXPECT_TRUE(s.context().empty());
    EXPECT_EQ(s.toString(),
              std::string("[") + f.name + "] line 7: bad op 'Q'");
    // The factory is the two-argument constructor under a name.
    EXPECT_EQ(s, Status(f.code, "line 7: bad op 'Q'"));
}

INSTANTIATE_TEST_SUITE_P(
    EveryErrorCode, StatusFactory, ::testing::ValuesIn(kFactories),
    [](const ::testing::TestParamInfo<Factory> &p) {
        return std::string(p.param.name);
    });

TEST(Status, DefaultIsOk)
{
    const Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kOk);
    EXPECT_STREQ(statusCodeName(s.code()), "Ok");
    EXPECT_EQ(s.toString(), "OK");
    EXPECT_EQ(s, Status());
}

TEST(Status, ContextRendersOutermostFirst)
{
    // Frames are prepended on the way out, so the last one added is
    // the outermost and renders first, like a call path.
    Status s = Status::corruptData("line 7: bad op 'Q'");
    s.withContext("reading 'x.csv'").withContext("shard 17");
    ASSERT_EQ(s.context().size(), 2u);
    EXPECT_EQ(s.context()[0], "shard 17");
    EXPECT_EQ(s.context()[1], "reading 'x.csv'");
    EXPECT_EQ(s.toString(),
              "[CorruptData] shard 17: reading 'x.csv': line 7: bad op 'Q'");
    // Context never changes the code or the message.
    EXPECT_EQ(s.code(), StatusCode::kCorruptData);
    EXPECT_EQ(s.message(), "line 7: bad op 'Q'");
}

TEST(Status, EqualityComparesCodeMessageAndContext)
{
    const Status a = Status::truncated("eof");
    EXPECT_EQ(a, Status::truncated("eof"));
    EXPECT_FALSE(a == Status::corruptData("eof"));
    EXPECT_FALSE(a == Status::truncated("eof at 12"));
    Status framed = Status::truncated("eof");
    framed.withContext("reading 'a.bin'");
    EXPECT_FALSE(a == framed);
    EXPECT_FALSE(a == Status());
}

TEST(StatusOr, HoldsAValue)
{
    StatusOr<std::vector<int>> r(std::vector<int>{1, 2, 3});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(r.value().size(), 3u);
    r.value().push_back(4);
    const std::vector<int> moved = std::move(r).value();
    EXPECT_EQ(moved, (std::vector<int>{1, 2, 3, 4}));
}

TEST(StatusOr, HoldsAnError)
{
    Status why = Status::ioError("open failed");
    why.withContext("reading 'gone.csv'");
    const StatusOr<int> r(why);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status(), why);
}

TEST(StatusOr, ValueOrThrowCarriesTheStatus)
{
    EXPECT_EQ(StatusOr<int>(5).valueOrThrow(), 5);
    const Status why = Status::unavailable("shard 3 failed");
    try {
        (void)StatusOr<int>(why).valueOrThrow();
        FAIL() << "valueOrThrow on an error did not throw";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status(), why);
        EXPECT_EQ(std::string(e.what()), why.toString());
    }
}

TEST(StatusDeathTest, MisuseIsAnInvariantFailure)
{
    EXPECT_DEATH(Status(StatusCode::kOk, "fine"), "non-OK code");
    EXPECT_DEATH(StatusOr<int>{Status()}, "OK status without a value");
    const StatusOr<int> failed(Status::internal("boom"));
    EXPECT_DEATH((void)failed.value(), "value\\(\\) on a failed StatusOr");
}

// ---- Retry backoff ----

constexpr double kBaseMs = 1.0;
constexpr double kCapMs = 16.0;

/** min(base * 2^(attempt - 1), cap): the un-jittered delay. */
double
unjitteredMs(std::size_t attempt)
{
    return std::min(kBaseMs * std::ldexp(1.0, static_cast<int>(attempt) - 1),
                    kCapMs);
}

class RetryBackoff : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RetryBackoff, JitterStaysInHalfToOneAndAHalfOfTheCappedBase)
{
    const std::size_t attempt = GetParam();
    const double base = unjitteredMs(attempt);
    double lo = base * 1.5;
    double hi = 0.0;
    for (std::uint64_t seed : {0ull, 1ull, 42ull, 0x9e3779b97f4a7c15ull}) {
        for (std::uint64_t key = 0; key < 256; ++key) {
            const double ms =
                retryBackoffMs(seed, key, attempt, kBaseMs, kCapMs);
            ASSERT_GE(ms, 0.5 * base) << "seed " << seed << " key " << key;
            ASSERT_LT(ms, 1.5 * base) << "seed " << seed << " key " << key;
            // A pure function of (seed, key, attempt).
            ASSERT_EQ(ms,
                      retryBackoffMs(seed, key, attempt, kBaseMs, kCapMs));
            lo = std::min(lo, ms);
            hi = std::max(hi, ms);
        }
    }
    // 1024 draws cover most of the band: the jitter is not constant.
    EXPECT_LT(lo, 0.6 * base);
    EXPECT_GT(hi, 1.4 * base);
}

TEST_P(RetryBackoff, KeysDrawDistinctJitter)
{
    const std::size_t attempt = GetParam();
    std::set<double> delays;
    for (std::uint64_t key = 0; key < 64; ++key)
        delays.insert(retryBackoffMs(7, key, attempt, kBaseMs, kCapMs));
    // Work items that fail together do not retry in lock step.
    EXPECT_EQ(delays.size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(
    Attempts, RetryBackoff, ::testing::Values(1, 2, 3, 4, 5, 6, 8, 12),
    [](const ::testing::TestParamInfo<std::size_t> &p) {
        return "attempt" + std::to_string(p.param);
    });

TEST(RetryBackoffSchedule, MeanDoublesUntilTheCap)
{
    // Averaged over many keys the jitter factor is about 1, so the
    // mean delay traces the capped doubling: 1, 2, 4, 8, 16, 16 ms.
    for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
        double sum = 0.0;
        const int keys = 4000;
        for (int key = 0; key < keys; ++key)
            sum += retryBackoffMs(3, static_cast<std::uint64_t>(key),
                                  attempt, kBaseMs, kCapMs);
        EXPECT_NEAR(sum / keys, unjitteredMs(attempt),
                    0.03 * unjitteredMs(attempt))
            << "attempt " << attempt;
    }
}

TEST(RetryBackoffSchedule, SeedChangesTheJitterNotTheBand)
{
    int differ = 0;
    for (std::uint64_t key = 0; key < 32; ++key) {
        const double a = retryBackoffMs(1, key, 3, 100.0, 2000.0);
        const double b = retryBackoffMs(2, key, 3, 100.0, 2000.0);
        EXPECT_GE(b, 200.0);
        EXPECT_LT(b, 600.0);
        differ += a != b;
    }
    EXPECT_EQ(differ, 32);
}

} // anonymous namespace
} // namespace dlw
