/** @file Wire protocol: term round-trips are byte-identical across
 *  fresh factories (the sandbox's cache-fingerprint contract), every
 *  typed frame survives encode/decode, and corrupted or hostile bytes
 *  decode-fail instead of reaching a TermFactory precondition. */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/smt/caching_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/wire.h"
#include "src/support/rng.h"

namespace keq::smt::wire {
namespace {

std::string
encodedBytes(const std::vector<Term> &terms)
{
    Encoder enc;
    encodeTerms(enc, terms);
    return enc.take();
}

/** encode -> decode into a fresh factory -> re-encode; asserts success. */
std::vector<Term>
roundTrip(const std::vector<Term> &terms, TermFactory &into)
{
    std::string bytes = encodedBytes(terms); // Decoder borrows the buffer
    Decoder dec(bytes);
    std::vector<Term> out;
    EXPECT_TRUE(decodeTerms(dec, into, nullptr, out)) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    return out;
}

/** A structurally rich assertion set over shared subterms. */
std::vector<Term>
exampleAssertions(TermFactory &f)
{
    Term x = f.var("x", Sort::bitVec(32));
    Term y = f.var("y", Sort::bitVec(32));
    Term p = f.var("p", Sort::boolSort());
    Term mem = f.var("mem", Sort::memArray());
    Term addr = f.var("addr", Sort::bitVec(64));

    Term sum = f.bvAdd(x, f.bvMul(y, f.bvConst(32, 3)));
    Term wide = f.concat(f.extract(sum, 31, 16), f.extract(sum, 15, 0));
    Term loaded = f.select(f.store(mem, addr, f.extract(x, 7, 0)), addr);
    return {
        f.mkImplies(p, f.bvUlt(sum, f.bvConst(32, 1u << 20))),
        f.mkEq(wide, sum),
        f.mkEq(f.zext(loaded, 32), f.bvAnd(x, f.bvConst(32, 0xff))),
        f.mkIte(p, f.mkEq(x, y), f.bvSlt(x, f.bvConst(32, 0))),
    };
}

TEST(WireTermCodec, RoundTripIsByteIdenticalAcrossFreshFactories)
{
    TermFactory source;
    std::vector<Term> terms = exampleAssertions(source);
    std::string bytes = encodedBytes(terms);

    TermFactory replay;
    std::vector<Term> rebuilt = roundTrip(terms, replay);
    ASSERT_EQ(rebuilt.size(), terms.size());

    // The codec's core guarantee: re-encoding the rebuilt DAG from the
    // fresh factory reproduces the original bytes exactly, so
    // structural fingerprints agree across the process boundary.
    EXPECT_EQ(encodedBytes(rebuilt), bytes);
}

TEST(WireTermCodec, CacheFingerprintsAgreeAcrossTheBoundary)
{
    TermFactory source;
    std::vector<Term> terms = exampleAssertions(source);
    TermFactory replay;
    std::vector<Term> rebuilt = roundTrip(terms, replay);

    // The parent-side CachingSolver and the worker-side one key their
    // caches with the same normalized fingerprint.
    EXPECT_EQ(CachingSolver::normalizedKey(terms),
              CachingSolver::normalizedKey(rebuilt));
}

TEST(WireTermCodec, SharedSubtermsStaySharedAfterReplay)
{
    TermFactory source;
    Term x = source.var("x", Sort::bitVec(16));
    Term shared = source.bvAdd(x, source.bvConst(16, 1));
    std::vector<Term> terms = {
        source.bvUlt(shared, source.bvConst(16, 100)),
        source.mkEq(shared, source.bvConst(16, 7)),
    };

    TermFactory replay;
    size_t before = replay.nodeCount();
    std::vector<Term> rebuilt = roundTrip(terms, replay);
    // Hash-consing must merge the shared `x + 1` node: the replayed
    // factory grows by exactly the source DAG's reachable node count.
    EXPECT_EQ(replay.nodeCount() - before, 7u)
        << "x, 1, x+1, 100, x+1<100, 7, x+1==7 -- x+1 built once";
    EXPECT_EQ(encodedBytes(rebuilt), encodedBytes(terms));
}

TEST(WireTermCodec, DuplicateRootsAreLegal)
{
    TermFactory source;
    Term t = source.mkEq(source.var("a", Sort::bitVec(8)),
                         source.bvConst(8, 1));
    TermFactory replay;
    std::vector<Term> rebuilt = roundTrip({t, t, t}, replay);
    ASSERT_EQ(rebuilt.size(), 3u);
    EXPECT_EQ(rebuilt[0].id(), rebuilt[1].id());
    EXPECT_EQ(rebuilt[1].id(), rebuilt[2].id());
}

TEST(WireTermCodec, RandomizedRoundTrips)
{
    support::Rng rng(0x313373);
    for (int iteration = 0; iteration < 50; ++iteration) {
        TermFactory f;
        std::vector<Term> pool;
        pool.push_back(f.var("a", Sort::bitVec(32)));
        pool.push_back(f.var("b", Sort::bitVec(32)));
        pool.push_back(f.bvConst(32, rng.next()));
        for (int step = 0; step < 30; ++step) {
            Term x = pool[rng.below(pool.size())];
            Term y = pool[rng.below(pool.size())];
            switch (rng.below(5)) {
              case 0: pool.push_back(f.bvAdd(x, y)); break;
              case 1: pool.push_back(f.bvXor(x, y)); break;
              case 2: pool.push_back(f.bvMul(x, y)); break;
              case 3:
                pool.push_back(
                    f.mkIte(f.bvUlt(x, y), x, y));
                break;
              default:
                pool.push_back(f.bvNot(x));
                break;
            }
        }
        std::vector<Term> roots = {
            f.mkEq(pool.back(), pool[pool.size() - 2]),
            f.bvUle(pool[pool.size() - 3], pool.back()),
        };
        TermFactory replay;
        std::vector<Term> rebuilt = roundTrip(roots, replay);
        ASSERT_EQ(encodedBytes(rebuilt), encodedBytes(roots))
            << "iteration " << iteration;
    }
}

TEST(WireTermCodec, TruncatedBytesFailCleanly)
{
    TermFactory source;
    std::string bytes = encodedBytes(exampleAssertions(source));
    // Every proper prefix must decode-fail without aborting.
    for (size_t cut = 0; cut < bytes.size(); cut += 3) {
        std::string torn = bytes.substr(0, cut);
        Decoder dec(torn);
        TermFactory replay;
        std::vector<Term> out;
        EXPECT_FALSE(decodeTerms(dec, replay, nullptr, out))
            << "prefix of " << cut << " bytes decoded";
    }
}

TEST(WireTermCodec, BitFlippedBytesNeverReachAFactoryAssert)
{
    TermFactory source;
    std::string bytes = encodedBytes(exampleAssertions(source));
    // Flip every byte through a handful of masks. Decode may succeed
    // (some flips produce a different-but-valid DAG) but must never
    // abort; when it fails it must report a reason.
    for (size_t at = 0; at < bytes.size(); ++at) {
        for (uint8_t mask : {0x01, 0x80, 0xff}) {
            std::string mutated = bytes;
            mutated[at] = static_cast<char>(mutated[at] ^ mask);
            Decoder dec(mutated);
            TermFactory replay;
            std::vector<Term> out;
            if (!decodeTerms(dec, replay, nullptr, out)) {
                EXPECT_FALSE(dec.error().empty());
            }
        }
    }
}

TEST(WireTermCodec, VarSortContextRejectsCrossQueryCollisions)
{
    TermFactory source;
    Term as_bv = source.var("v", Sort::bitVec(32));
    std::string first = encodedBytes(
        {source.mkEq(as_bv, source.bvConst(32, 1))});

    TermFactory other;
    Term as_bool = other.var("v", Sort::boolSort());
    std::string second = encodedBytes({other.mkNot(as_bool)});

    // One worker session: same factory, same persistent context.
    TermFactory session;
    VarSortContext vars;
    {
        Decoder dec(first);
        std::vector<Term> out;
        ASSERT_TRUE(decodeTerms(dec, session, &vars, out))
            << dec.error();
    }
    {
        Decoder dec(second);
        std::vector<Term> out;
        EXPECT_FALSE(decodeTerms(dec, session, &vars, out))
            << "redeclaring v at a different sort must fail";
        EXPECT_FALSE(dec.error().empty());
    }
}

/** Stamps every SolverStats field with a distinct value from @p base. */
SolverStats
stampedStats(uint64_t base)
{
    SolverStats stats;
    uint64_t next = base;
    forEachStatsField(
        [&](StatsField, auto &field) {
            field = static_cast<std::decay_t<decltype(field)>>(next++);
        },
        stats);
    return stats;
}

/** Backend that adds a fixed delta to its stats on every checkSat. */
class StampingSolver : public Solver
{
  public:
    StampingSolver(TermFactory &factory, SolverStats delta)
        : factory_(factory), delta_(delta)
    {}

    SatResult
    checkSat(const std::vector<Term> &) override
    {
        stats_ += delta_;
        return SatResult::Unsat;
    }

    void setTimeoutMs(unsigned) override {}
    const SolverStats &stats() const override { return stats_; }

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    TermFactory &factory_;
    SolverStats delta_;
    SolverStats stats_;
};

/**
 * The KEQ_SOLVER_STATS table drives every aggregate: each field gets a
 * distinct value through the table, so a field dropped from (or
 * duplicated in) any generated list cannot cancel out.
 */
TEST(SolverStatsTable, EveryFieldAggregatesByItsClass)
{
    const SolverStats big = stampedStats(1000);
    const SolverStats small = stampedStats(1);

    SolverStats sum = big;
    sum += small;
    SolverStats diff = big - small;
    SolverStats foldedNonVerdict;
    foldNonVerdictStats(foldedNonVerdict, big);
    SolverStats foldedBackend;
    foldBackendStats(foldedBackend, big);
    forEachStatsField(
        [&](StatsField field, const auto &b, const auto &s,
            const auto &plus, const auto &minus, const auto &nonVerdict,
            const auto &backend) {
            SCOPED_TRACE(statsKey(field));
            EXPECT_EQ(plus, b + s);
            EXPECT_EQ(minus, b - s);
            bool isVerdict = field.cls == StatsClass::Verdict;
            EXPECT_EQ(nonVerdict, isVerdict ? 0 : b);
            EXPECT_EQ(backend, field.cls == StatsClass::Backend ? b : 0);
        },
        big, small, sum, diff, foldedNonVerdict, foldedBackend);

    // CachingSolver counts its Verdict and CacheStage fields itself and
    // folds only the Backend class from the backend below it.
    TermFactory tf;
    StampingSolver backend(tf, big);
    CachingSolver::Options options;
    options.simplify = false;
    options.slice = false;
    CachingSolver caching(tf, backend, std::make_shared<QueryCache>(),
                          options);
    Term x = tf.var("x", Sort::bitVec(8));
    ASSERT_EQ(caching.checkSat({tf.mkEq(x, tf.bvConst(8, 3))}),
              SatResult::Unsat);
    forEachStatsField(
        [&](StatsField field, const auto &got, const auto &stamped) {
            SCOPED_TRACE(statsKey(field));
            if (field.cls == StatsClass::Backend)
                EXPECT_EQ(got, stamped);
            else
                EXPECT_LT(got, stamped) << "folded from the backend";
        },
        caching.stats(), big);
    EXPECT_EQ(caching.stats().queries, 1u);
    EXPECT_EQ(caching.stats().cacheMisses, 1u);

    // Wire round trip.
    Encoder enc;
    encodeStats(enc, big);
    std::string bytes = enc.take();
    Decoder dec(bytes);
    SolverStats back;
    ASSERT_TRUE(decodeStats(dec, back)) << dec.error();
    EXPECT_TRUE(dec.atEnd());
    forEachStatsField(
        [&](StatsField field, const auto &got, const auto &sent) {
            EXPECT_EQ(got, sent) << statsKey(field);
        },
        back, big);
}

/**
 * The `keqc --stats-json` "solver" keys, in order. This literal list
 * is the reference: renaming or reordering a table row must show up
 * here.
 */
TEST(SolverStatsTable, JsonKeysMatchTheGoldenOrder)
{
    const std::vector<std::string> golden = {
        "queries",
        "sat",
        "unsat",
        "unknown",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "rewrite_resolved",
        "rewrite_applications",
        "slice_resolved",
        "sliced_assertions",
        "incremental_reused",
        "incremental_solves",
        "incremental_fallbacks",
        "cold_solves",
        "watchdog_interrupts",
        "guarded_retries",
        "guarded_escalations",
        "escalated_resolved",
        "solver_crashes",
        "faults_injected",
        "worker_crashes",
        "worker_restarts",
        "heartbeat_timeouts",
        "wire_bytes_sent",
        "wire_bytes_received",
        "portfolio_wins_0",
        "portfolio_wins_1",
        "portfolio_wins_2",
        "portfolio_wins_3",
        "portfolio_cancellations",
        "cross_lane_disagreements",
        "total_seconds",
    };
    std::vector<std::string> keys;
    SolverStats stats;
    forEachStatsField(
        [&](StatsField field, const auto &) {
            keys.push_back(statsKey(field));
        },
        stats);
    EXPECT_EQ(keys, golden);
}

TEST(WireFrames, TypedFramesRoundTrip)
{
    std::string error;

    ReadyFrame ready{kProtocolVersion, 4242};
    std::string payload = encodeReady(ready);
    FrameType type;
    std::string body;
    // encode* returns the full length-prefixed frame; strip the u32
    // prefix the way the transport does before splitting.
    ASSERT_GT(payload.size(), 4u);
    ASSERT_TRUE(splitFrame(payload.substr(4), type, body));
    EXPECT_EQ(type, FrameType::Ready);
    ReadyFrame ready_back;
    ASSERT_TRUE(decodeReady(body, ready_back, error)) << error;
    EXPECT_EQ(ready_back.protocolVersion, kProtocolVersion);
    EXPECT_EQ(ready_back.pid, 4242u);

    HeartbeatFrame beat{7, 123456};
    ASSERT_TRUE(splitFrame(encodeHeartbeat(beat).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Heartbeat);
    HeartbeatFrame beat_back;
    ASSERT_TRUE(decodeHeartbeat(body, beat_back, error)) << error;
    EXPECT_EQ(beat_back.querySeq, 7u);
    EXPECT_EQ(beat_back.rssKb, 123456u);

    ResetFrame reset{2500, 256, "int2bv:random_seed=7"};
    ASSERT_TRUE(splitFrame(encodeReset(reset).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Reset);
    ResetFrame reset_back;
    ASSERT_TRUE(decodeReset(body, reset_back, error)) << error;
    EXPECT_EQ(reset_back.timeoutMs, 2500u);
    EXPECT_EQ(reset_back.memoryBudgetMb, 256u);
    EXPECT_EQ(reset_back.strategy, "int2bv:random_seed=7");

    CancelFrame cancel{77};
    ASSERT_TRUE(splitFrame(encodeCancel(cancel).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Cancel);
    CancelFrame cancel_back;
    ASSERT_TRUE(decodeCancel(body, cancel_back, error)) << error;
    EXPECT_EQ(cancel_back.seq, 77u);

    TermFactory f;
    QueryFrame query;
    query.seq = 99;
    query.timeoutMs = 1000;
    query.assertions = exampleAssertions(f);
    ASSERT_TRUE(splitFrame(encodeQuery(query).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Query);
    TermFactory replay;
    QueryFrame query_back;
    ASSERT_TRUE(decodeQuery(body, replay, nullptr, query_back, error))
        << error;
    EXPECT_EQ(query_back.seq, 99u);
    EXPECT_EQ(query_back.timeoutMs, 1000u);
    ASSERT_EQ(query_back.assertions.size(), query.assertions.size());

    ResultFrame result;
    result.seq = 99;
    result.result = SatResult::Unsat;
    result.failureKind = FailureKind::None;
    result.unknownReason = "";
    result.stats.queries = 1;
    result.stats.unsat = 1;
    ASSERT_TRUE(splitFrame(encodeResult(result).substr(4), type, body));
    EXPECT_EQ(type, FrameType::Result);
    ResultFrame result_back;
    ASSERT_TRUE(decodeResult(body, result_back, error)) << error;
    EXPECT_EQ(result_back.seq, 99u);
    EXPECT_EQ(result_back.result, SatResult::Unsat);
    EXPECT_EQ(result_back.stats.unsat, 1u);

    ASSERT_TRUE(
        splitFrame(encodeError("boom\twith\nbytes").substr(4), type,
                   body));
    EXPECT_EQ(type, FrameType::Error);
    std::string message;
    ASSERT_TRUE(decodeError(body, message));
    EXPECT_EQ(message, "boom\twith\nbytes");

    ASSERT_TRUE(splitFrame(encodeShutdown().substr(4), type, body));
    EXPECT_EQ(type, FrameType::Shutdown);
}

/** The Reset layout is pinned byte for byte: the two retired flag
 *  bytes after the budgets are still sent, always as 1. */
TEST(WireFrames, ResetEncodingIsByteStable)
{
    static const char kExpected[] =
        "\x20\x00\x00\x00"             // payload length 32
        "\x05"                         // FrameType::Reset
        "\xc4\x09\x00\x00"             // timeoutMs 2500
        "\x00\x01\x00\x00"             // memoryBudgetMb 256
        "\x01\x01"                     // retired flag bytes
        "\x14" "int2bv:random_seed=7"; // strategy, length 20
    ResetFrame reset{2500, 256, "int2bv:random_seed=7"};
    EXPECT_EQ(encodeReset(reset),
              std::string(kExpected, sizeof kExpected - 1));
}

TEST(WireFrames, ResetStrategyDefaultsToTheV1Stack)
{
    // An empty strategy string is the v1-equivalent session: the
    // worker builds the same default incremental stack it always did.
    ResetFrame reset{1000, 0, {}};
    EXPECT_TRUE(reset.strategy.empty());

    FrameType type;
    std::string body, error;
    ASSERT_TRUE(splitFrame(encodeReset(reset).substr(4), type, body));
    ResetFrame back;
    ASSERT_TRUE(decodeReset(body, back, error)) << error;
    EXPECT_TRUE(back.strategy.empty());
}

TEST(WireFrames, PortfolioFailureKindSurvivesTheResultFrame)
{
    // A cross-lane disagreement travels the wire as a first-class
    // failure kind; the discriminant bound admits it and nothing past.
    ResultFrame result;
    result.seq = 5;
    result.result = SatResult::Unknown;
    result.failureKind = FailureKind::PortfolioDisagreement;
    result.unknownReason = "portfolio disagreement: default=sat, cold=unsat";
    result.stats.crossLaneDisagreements = 1;

    FrameType type;
    std::string body, error;
    ASSERT_TRUE(splitFrame(encodeResult(result).substr(4), type, body));
    ResultFrame back;
    ASSERT_TRUE(decodeResult(body, back, error)) << error;
    EXPECT_EQ(back.failureKind, FailureKind::PortfolioDisagreement);
    EXPECT_EQ(back.stats.crossLaneDisagreements, 1u);
    EXPECT_EQ(back.unknownReason, result.unknownReason);
}

TEST(WireFrames, TruncatedCancelFailsCleanly)
{
    std::string payload = encodeCancel({42}).substr(4);
    FrameType type;
    std::string body;
    ASSERT_TRUE(splitFrame(payload, type, body));
    std::string error;
    CancelFrame out;
    for (size_t cut = 0; cut < body.size(); ++cut) {
        EXPECT_FALSE(decodeCancel(body.substr(0, cut), out, error))
            << "prefix of " << cut << " bytes decoded";
    }
}

TEST(WireFrames, HostileResultDiscriminantsAreRejected)
{
    ResultFrame result;
    result.seq = 1;
    result.result = SatResult::Sat;
    std::string payload = encodeResult(result).substr(4);
    FrameType type;
    std::string body;
    ASSERT_TRUE(splitFrame(payload, type, body));

    // Corrupt the SatResult and FailureKind discriminants (first two
    // bytes after the seq varuint) to out-of-range values.
    std::string error;
    for (size_t at = 0; at < body.size(); ++at) {
        std::string mutated = body;
        mutated[at] = static_cast<char>(0xee);
        ResultFrame out;
        if (!decodeResult(mutated, out, error)) {
            EXPECT_FALSE(error.empty());
        }
    }
}

TEST(WireFrames, SplitFrameRejectsGarbage)
{
    FrameType type;
    std::string body;
    EXPECT_FALSE(splitFrame("", type, body));
    EXPECT_FALSE(splitFrame(std::string(1, '\x00'), type, body));
    EXPECT_FALSE(splitFrame(std::string(1, '\x63'), type, body));
}

} // namespace
} // namespace keq::smt::wire
