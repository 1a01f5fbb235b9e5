#include "stats.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace keqbench {
namespace {

TEST(PercentileTest, NearestRankCarriesSampleCountAndTail)
{
    std::vector<double> samples;
    for (int i = 100; i >= 1; --i)
        samples.push_back(i);
    Percentile p90 = percentile(samples, 0.9);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);
    Percentile p50 = percentile(samples, 0.5);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.beyond, 50u);
}

TEST(PercentileTest, SmallAndEmptySampleSets)
{
    Percentile one = percentile({7.0}, 0.9);
    EXPECT_EQ(one.value, 7.0);
    EXPECT_EQ(one.samples, 1u);
    EXPECT_EQ(one.beyond, 0u);

    Percentile none = percentile({}, 0.5);
    EXPECT_EQ(none.samples, 0u);
    EXPECT_EQ(none.value, 0.0);

    // Ten samples: p90 is the 9th, so exactly one lies beyond it.
    Percentile ten =
        percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9);
    EXPECT_EQ(ten.value, 9.0);
    EXPECT_EQ(ten.beyond, 1u);
}

TEST(RequestTallyTest, FailedRequestCountsAndMissesEveryLatencyLimit)
{
    RequestTally tally;
    for (int i = 1; i <= 9; ++i)
        tally.record(i * 1e-3, true, 8);
    tally.record(1e-3, false, 8); // fast, but wrong
    EXPECT_EQ(tally.attempted(), 10u);
    EXPECT_EQ(tally.failed(), 1u);
    EXPECT_DOUBLE_EQ(tally.failedRatio(), 0.1);
    EXPECT_EQ(tally.functions(), 80u);
    // The failed request ranks last: it is the slowest sample, not the
    // fastest, so the maximum is infinite and p90 is the 9th success.
    EXPECT_TRUE(std::isinf(tally.latencyMs(1.0).value));
    EXPECT_NEAR(tally.latencyMs(0.9).value, 9.0, 1e-9);
    EXPECT_NEAR(tally.latencyMs(0.5).value, 5.0, 1e-9);
}

TEST(RequestTallyTest, MergeKeepsFailuresAndEmptyRatioIsZero)
{
    RequestTally empty;
    EXPECT_EQ(empty.failedRatio(), 0.0);
    RequestTally a, b;
    a.record(0.002, true, 8);
    b.record(0.004, false, 1);
    a.merge(b);
    EXPECT_EQ(a.attempted(), 2u);
    EXPECT_EQ(a.failed(), 1u);
    EXPECT_EQ(a.functions(), 9u);
    EXPECT_DOUBLE_EQ(a.failedRatio(), 0.5);
}

TEST(PassRatesTest, MediansOverPasses)
{
    // Three passes of 288 functions; the middle one ran on a stolen
    // CPU and took three times as long.
    std::vector<PassSample> passes = {
        {2.0, 3.0, 288}, {6.0, 9.0, 288}, {2.4, 3.6, 288}};
    PassRates rates = medianPassRates(passes);
    EXPECT_EQ(rates.passes, 3u);
    EXPECT_DOUBLE_EQ(rates.functionsPerSecond, 288 / 2.4);
    EXPECT_DOUBLE_EQ(rates.cpuSecondsPerFunction, 3.6 / 288);
}

TEST(PassRatesTest, EmptyPassesAreSkipped)
{
    EXPECT_EQ(medianPassRates({}).passes, 0u);
    EXPECT_EQ(medianPassRates({}).functionsPerSecond, 0.0);
    PassRates one = medianPassRates({{0.0, 0.0, 0}, {1.0, 0.5, 8}});
    EXPECT_EQ(one.passes, 1u);
    EXPECT_DOUBLE_EQ(one.functionsPerSecond, 8.0);
    EXPECT_DOUBLE_EQ(one.cpuSecondsPerFunction, 0.5 / 8);
}

Span
make(uint64_t id, uint64_t parent, double start, double end)
{
    Span span;
    span.id = id;
    span.parent = parent;
    span.start = start;
    span.end = end;
    return span;
}

TEST(SelfTimeTest, OverlappingChildrenAreSubtractedOnce)
{
    // Parent [0, 10]; two children overlap on [3, 4] (two pool threads)
    // and a third sticks out past the parent's end. Covered: [1, 6] and
    // [8, 10] = 7, so the parent's self time is 3.
    std::vector<Span> spans = {make(1, 0, 0, 10), make(2, 1, 1, 4),
                               make(3, 1, 3, 6), make(4, 1, 8, 12)};
    std::vector<double> self = selfTimes(spans);
    EXPECT_NEAR(self[0], 3.0, 1e-12);
    EXPECT_NEAR(self[1], 3.0, 1e-12);
    EXPECT_NEAR(self[2], 3.0, 1e-12);
    EXPECT_NEAR(self[3], 4.0, 1e-12);
}

TEST(SelfTimeTest, GrandchildrenOnlyReduceTheirOwnParent)
{
    // request [0, 10] -> function [2, 8] -> check [5, 8] -> backend [6, 8]
    std::vector<Span> spans = {make(1, 0, 0, 10), make(2, 1, 2, 8),
                               make(3, 2, 5, 8), make(4, 3, 6, 8)};
    std::vector<double> self = selfTimes(spans);
    EXPECT_NEAR(self[0], 4.0, 1e-12);
    EXPECT_NEAR(self[1], 3.0, 1e-12);
    EXPECT_NEAR(self[2], 1.0, 1e-12);
    EXPECT_NEAR(self[3], 2.0, 1e-12);
}

TEST(SelfTimeTest, NestedAndIdenticalChildrenDoNotDoubleCount)
{
    std::vector<Span> spans = {make(1, 0, 0, 10), make(2, 1, 2, 6),
                               make(3, 1, 3, 5), make(4, 1, 2, 6)};
    EXPECT_NEAR(selfTimes(spans)[0], 6.0, 1e-12);
}

TEST(SpanRecorderTest, AssignsSequentialIdsAndKeepsCounts)
{
    SpanRecorder recorder;
    Span a = make(0, 0, 0, 1);
    a.name = "request";
    uint64_t id = recorder.record(a);
    EXPECT_EQ(id, 1u);
    uint64_t reserved = recorder.newId();
    EXPECT_EQ(reserved, 2u);
    Span b = make(reserved, id, 0.5, 0.75);
    b.counts["queries"] = 3;
    EXPECT_EQ(recorder.record(b), 2u);
    EXPECT_EQ(recorder.record(make(0, 0, 0, 1)), 3u);
    std::vector<Span> spans = recorder.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[1].parent, 1u);
    EXPECT_EQ(spans[1].counts.at("queries"), 3.0);
    std::string json = traceEventJson(spans, {{"seed", "7"}});
    EXPECT_NE(json.find("\"seed\":\"7\""), std::string::npos);
    EXPECT_NE(json.find("\"queries\":3"), std::string::npos);
}

TEST(JsonTest, NumbersKeepTheirDigitsAndNonFiniteIsNull)
{
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonString("a\"b\n"), "\"a\\\"b\\n\"");
}

} // namespace
} // namespace keqbench
