/** @file Property tests for the memoizing solver cache: key
 *  normalization, the never-cache-Unknown contract, model reuse, and
 *  counter bookkeeping. */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/smt/caching_solver.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/diagnostics.h"

namespace keq::smt {
namespace {

/**
 * Backend with a scripted answer sequence. Counts every call, so tests
 * can assert exactly which queries reached the backend and which were
 * answered by the cache layers in front of it.
 */
class ScriptedSolver : public Solver
{
  public:
    explicit ScriptedSolver(TermFactory &factory) : factory_(factory) {}

    std::deque<SatResult> script;
    SatResult fallback = SatResult::Unsat;
    size_t calls = 0;

    SatResult
    checkSat(const std::vector<Term> &) override
    {
        ++calls;
        SatResult result = fallback;
        if (!script.empty()) {
            result = script.front();
            script.pop_front();
        }
        ++stats_.queries;
        switch (result) {
        case SatResult::Sat: ++stats_.sat; break;
        case SatResult::Unsat: ++stats_.unsat; break;
        case SatResult::Unknown: ++stats_.unknown; break;
        }
        return result;
    }

    void setTimeoutMs(unsigned) override {}
    const SolverStats &stats() const override { return stats_; }

  protected:
    TermFactory &factory() override { return factory_; }

  private:
    TermFactory &factory_;
    SolverStats stats_;
};

Term
var32(TermFactory &tf, const char *name)
{
    return tf.var(name, Sort::bitVec(32));
}

/**
 * Preprocessing disabled: the tests below assert exact backend-call and
 * hit/miss counts of the *cache layers*, which requires queries to reach
 * them instead of being resolved by the rewrite engine or the slicer.
 * The optimization-stack stages have their own tests (simplifier_test,
 * slicer_test) plus stack-level ones at the bottom of this file.
 */
// Not constexpr: the audit hooks added to Options are std::functions.
const CachingSolver::Options kCacheOnly = [] {
    CachingSolver::Options options;
    options.simplify = false;
    options.slice = false;
    return options;
}();

/**
 * x == a && x == b with a != b: unsatisfiable, so neither pooled models
 * nor random probes can ever answer it — every key miss must reach the
 * backend. The workhorse for backend-call-count assertions.
 */
std::vector<Term>
contradiction(TermFactory &tf, const char *name, uint64_t a, uint64_t b)
{
    Term x = var32(tf, name);
    return {tf.mkEq(x, tf.bvConst(32, a)),
            tf.mkEq(x, tf.bvConst(32, b))};
}

TEST(NormalizedKeyTest, OrderAndDuplicatesDoNotChangeTheKey)
{
    TermFactory tf;
    Term p = tf.bvUlt(var32(tf, "a"), var32(tf, "b"));
    Term q = tf.bvUlt(var32(tf, "b"), var32(tf, "c"));

    std::string key = CachingSolver::normalizedKey({p, q});
    EXPECT_EQ(CachingSolver::normalizedKey({q, p}), key);
    EXPECT_EQ(CachingSolver::normalizedKey({p, q, p}), key);
    EXPECT_EQ(CachingSolver::normalizedKey({q, q, p, q}), key);
}

TEST(NormalizedKeyTest, DistinctQueriesGetDistinctKeys)
{
    TermFactory tf;
    Term p = tf.bvUlt(var32(tf, "a"), var32(tf, "b"));
    Term q = tf.bvUlt(var32(tf, "b"), var32(tf, "c"));

    EXPECT_NE(CachingSolver::normalizedKey({p}),
              CachingSolver::normalizedKey({q, p}));
    // a < b and its converse are alpha-equivalent one assertion at a
    // time, but the *set* {a<b, b<a} must not collapse to {a<b}: shared
    // variable numbering across the whole set keeps them apart.
    Term converse = tf.bvUlt(var32(tf, "b"), var32(tf, "a"));
    EXPECT_NE(CachingSolver::normalizedKey({p, converse}),
              CachingSolver::normalizedKey({p}));
    EXPECT_NE(CachingSolver::normalizedKey({p}),
              CachingSolver::normalizedKey(
                  {tf.bvUlt(var32(tf, "a"), tf.bvConst(32, 7))}));
}

TEST(NormalizedKeyTest, AlphaRenamingDoesNotChangeTheKey)
{
    TermFactory tf;
    // Same query shape over disjoint variable names: alpha-equivalent,
    // hence equisatisfiable, hence safe (and profitable) to share a key.
    Term p1 = tf.bvUlt(tf.bvAdd(var32(tf, "x"), tf.bvConst(32, 3)),
                       var32(tf, "y"));
    Term p2 = tf.bvUlt(tf.bvAdd(var32(tf, "u"), tf.bvConst(32, 3)),
                       var32(tf, "v"));
    EXPECT_EQ(CachingSolver::normalizedKey({p1}),
              CachingSolver::normalizedKey({p2}));
}

TEST(NormalizedKeyTest, KeysAreFactoryIndependent)
{
    // The cache is shared across workers that each own a private
    // hash-consing factory; equal queries built in different factories
    // must map to the same key.
    TermFactory tf1;
    TermFactory tf2;
    auto build = [](TermFactory &tf) {
        return std::vector<Term>{
            tf.bvUlt(var32(tf, "a"), var32(tf, "b")),
            tf.mkEq(tf.bvAdd(var32(tf, "a"), tf.bvConst(32, 1)),
                    var32(tf, "c"))};
    };
    EXPECT_EQ(CachingSolver::normalizedKey(build(tf1)),
              CachingSolver::normalizedKey(build(tf2)));
}

TEST(CachingSolverTest, UnknownIsNeverCached)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    CachingSolver solver(tf, backend, std::make_shared<QueryCache>(),
                         kCacheOnly);
    std::vector<Term> query = contradiction(tf, "x", 1, 2);

    backend.script = {SatResult::Unknown, SatResult::Unknown,
                      SatResult::Unsat};
    EXPECT_EQ(solver.checkSat(query), SatResult::Unknown);
    EXPECT_EQ(solver.checkSat(query), SatResult::Unknown);
    EXPECT_EQ(backend.calls, 2u)
        << "an Unknown verdict must not be served from the cache";

    // A definitive answer is cached; the backend is not asked again.
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(backend.calls, 3u);
}

TEST(CachingSolverTest, DeterministicProbingAnswersSatWithoutBackend)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    // The backend would (wrongly) say Unsat — it must never be asked,
    // because probe evaluation *proves* Sat for x == 1.
    backend.fallback = SatResult::Unsat;
    auto cache = std::make_shared<QueryCache>();
    CachingSolver solver(tf, backend, cache, kCacheOnly);

    std::vector<Term> query{
        tf.mkEq(var32(tf, "x"), tf.bvConst(32, 1))};
    EXPECT_EQ(solver.checkSat(query), SatResult::Sat);
    EXPECT_EQ(backend.calls, 0u);
    EXPECT_EQ(solver.stats().cacheHits, 1u);
    EXPECT_EQ(cache->stats().modelHits, 1u);

    // The Sat verdict was inserted under its key: a repeat is a key hit.
    EXPECT_EQ(solver.checkSat(query), SatResult::Sat);
    EXPECT_EQ(backend.calls, 0u);
    EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(CachingSolverTest, CountersAddUp)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    CachingSolver solver(tf, backend, cache, kCacheOnly);

    backend.script = {SatResult::Unsat, SatResult::Unknown,
                      SatResult::Unsat};
    std::vector<Term> q1 = contradiction(tf, "x", 1, 2);
    std::vector<Term> q2 = contradiction(tf, "x", 3, 4);
    solver.checkSat(q1);                      // miss -> backend Unsat
    solver.checkSat(q1);                      // key hit
    solver.checkSat(q2);                      // miss -> backend Unknown
    solver.checkSat(q2);                      // miss again -> Unsat
    solver.checkSat({tf.mkEq(var32(tf, "y"), // probe-provable Sat
                             tf.bvConst(32, 0))});

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(stats.queries, 5u);
    EXPECT_EQ(stats.cacheHits + stats.cacheMisses, stats.queries)
        << "every query is either a hit or a miss";
    EXPECT_EQ(stats.sat + stats.unsat + stats.unknown, stats.queries)
        << "cached answers must still be counted as verdicts";
    EXPECT_EQ(stats.cacheHits, 2u);  // one key hit + one model hit
    EXPECT_EQ(stats.cacheMisses, 3u);
    EXPECT_EQ(stats.cacheMisses, backend.calls);

    CacheStats cstats = cache->stats();
    EXPECT_EQ(cstats.hits + cstats.misses, stats.queries);
    EXPECT_LE(cstats.modelHits, cstats.misses);
    EXPECT_EQ(cstats.backendCalls(), backend.calls);
    EXPECT_DOUBLE_EQ(cstats.hitRate(), 2.0 / 5.0);
}

TEST(CachingSolverTest, ModelFromBackendIsReusedAcrossQueries)
{
    TermFactory tf;
    Z3Solver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    CachingSolver solver(tf, backend, cache, kCacheOnly);

    // Query A forces the backend to produce a model with x = 77 (no
    // probe can guess 77: the fixed probes are 0, ~0 and 1, and the 45
    // seeded random draws have a ~2^-26 chance of hitting it).
    Term x = var32(tf, "x");
    EXPECT_EQ(solver.checkSat({tf.mkEq(x, tf.bvConst(32, 77))}),
              SatResult::Sat);
    EXPECT_EQ(cache->stats().misses, 1u);
    ASSERT_EQ(cache->models().size(), 1u)
        << "a Sat answer must pool the backend's model";

    // Query B has a different key but is satisfied by the pooled model
    // (x + 1 == 78), so evaluation answers it without the backend.
    uint64_t backend_before = backend.stats().queries;
    EXPECT_EQ(solver.checkSat({tf.mkEq(tf.bvAdd(x, tf.bvConst(32, 1)),
                                       tf.bvConst(32, 78))}),
              SatResult::Sat);
    EXPECT_EQ(backend.stats().queries, backend_before);
    EXPECT_EQ(cache->stats().modelHits, 1u);
}

TEST(CachingSolverTest, RewriteEngineResolvesTrivialQueriesBeforeCache)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    CachingSolver solver(tf, backend, cache); // full stack (defaults)

    // x == 1 && x == 2: equality propagation substitutes 1 for x and
    // folds 1 == 2 to false — Unsat with no backend, no cache lookup.
    EXPECT_EQ(solver.checkSat(contradiction(tf, "x", 1, 2)),
              SatResult::Unsat);
    // x == 7 alone: the definitional equality rewrites away entirely.
    EXPECT_EQ(solver.checkSat(
                  {tf.mkEq(var32(tf, "x"), tf.bvConst(32, 7))}),
              SatResult::Sat);
    EXPECT_EQ(backend.calls, 0u);
    EXPECT_EQ(cache->stats().hits + cache->stats().misses, 0u)
        << "rewrite-resolved queries must not touch the cache";

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(stats.rewriteResolved, 2u);
    EXPECT_GT(stats.rewriteApplications, 0u);
    EXPECT_EQ(stats.queries, 2u);
    EXPECT_EQ(stats.sat, 1u);
    EXPECT_EQ(stats.unsat, 1u);
}

TEST(CachingSolverTest, StackInvariantEveryQueryResolvedByOneStage)
{
    TermFactory tf;
    Z3Solver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    CachingSolver solver(tf, backend, cache); // full stack (defaults)

    Term x = var32(tf, "x");
    Term y = var32(tf, "y");
    std::vector<std::vector<Term>> queries = {
        {tf.mkEq(x, tf.bvConst(32, 1))},             // rewrite: Sat
        contradiction(tf, "x", 1, 2),                // rewrite: Unsat
        {tf.bvUlt(x, y)},                            // probe/backend
        {tf.bvUlt(x, y)},                            // repeat
        {tf.bvUlt(tf.bvMul(x, x), tf.bvConst(32, 9)),
         tf.bvUlt(y, tf.bvAdd(y, tf.bvConst(32, 1)))}, // two cones
    };
    for (const std::vector<Term> &query : queries)
        EXPECT_NE(solver.checkSat(query), SatResult::Unknown);

    const SolverStats &stats = solver.stats();
    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_EQ(stats.rewriteResolved + stats.sliceResolved +
                  stats.cacheHits + stats.cacheMisses,
              stats.queries);
    EXPECT_EQ(stats.sat + stats.unsat + stats.unknown, stats.queries);
    EXPECT_GE(stats.rewriteResolved, 2u);
}

TEST(QueryCacheTest, RejectsUnknownAndReturnsStoredVerdicts)
{
    QueryCache cache;
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.insert("k1", SatResult::Sat);
    cache.insert("k2", SatResult::Unsat);
    EXPECT_THROW(cache.insert("k3", SatResult::Unknown),
                 support::InternalError);
    EXPECT_EQ(cache.lookup("k1"), SatResult::Sat);
    EXPECT_EQ(cache.lookup("k2"), SatResult::Unsat);
    EXPECT_FALSE(cache.lookup("k3").has_value());
    EXPECT_EQ(cache.stats().entries, 2u);

    cache.clear();
    EXPECT_FALSE(cache.lookup("k1").has_value());
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryCacheTest, EvictionKeepsShardsBounded)
{
    QueryCache cache(/*max_entries_per_shard=*/2);
    for (int i = 0; i < 256; ++i)
        cache.insert("key-" + std::to_string(i), SatResult::Unsat);
    CacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, 16u * 2u) << "16 shards x 2 entries max";
    EXPECT_EQ(stats.entries + stats.evictions, 256u);
}

TEST(QueryCacheTest, EvictionIsLeastRecentlyUsed)
{
    // A key that is touched before every insert is always the
    // most-recently-used entry of its shard, so LRU eviction can never
    // pick it no matter how hard the shard churns. (The old policy
    // evicted an arbitrary bucket and would drop it eventually.)
    QueryCache cache(/*max_entries_per_shard=*/4, /*max_bytes=*/0);
    cache.insert("pinned", SatResult::Sat);
    for (int i = 0; i < 512; ++i) {
        ASSERT_TRUE(cache.lookup("pinned").has_value()) << "i=" << i;
        cache.insert("filler-" + std::to_string(i), SatResult::Unsat);
    }
    EXPECT_EQ(cache.lookup("pinned"), SatResult::Sat);
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(QueryCacheTest, ByteBudgetBoundsResidency)
{
    constexpr size_t kBudget = 64 << 10; // 64 KiB across 16 shards
    QueryCache cache(/*max_entries_per_shard=*/0, kBudget);
    const std::string padding(100, 'x');
    for (int i = 0; i < 1000; ++i)
        cache.insert(padding + std::to_string(i), SatResult::Unsat);
    CacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LT(stats.entries, 1000u);
    // Accounted bytes respect the budget (the never-evict-the-newest
    // rule can overshoot by at most one entry per shard).
    EXPECT_LE(stats.bytes,
              kBudget + 16 * (padding.size() + 8 +
                              QueryCache::kEntryOverheadBytes));
    EXPECT_EQ(stats.entries + stats.evictions, 1000u);
}

// ---- Trust-but-verify auditing of preloaded (journal-warm) hits ----

/**
 * Builds cache-only options that audit every unaudited hit, with a
 * scripted pristine solver whose answers and call count the test
 * controls via shared state.
 */
CachingSolver::Options
auditEverything(std::shared_ptr<std::deque<SatResult>> script,
                std::shared_ptr<size_t> calls,
                SatResult fallback = SatResult::Unsat)
{
    CachingSolver::Options options = kCacheOnly;
    options.auditRate = 1.0;
    options.auditSolverFactory =
        [script, calls, fallback](TermFactory &tf)
        -> std::unique_ptr<Solver> {
        auto pristine = std::make_unique<ScriptedSolver>(tf);
        ++*calls;
        pristine->fallback = fallback;
        if (!script->empty()) {
            pristine->script.push_back(script->front());
            script->pop_front();
        }
        return pristine;
    };
    return options;
}

TEST(CachingSolverAuditTest, PassingAuditMarksEntryAndAuditsOnce)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    auto script = std::make_shared<std::deque<SatResult>>();
    auto pristineCalls = std::make_shared<size_t>(0);
    CachingSolver solver(tf, backend, cache,
                         auditEverything(script, pristineCalls));

    std::vector<Term> query = contradiction(tf, "x", 1, 2);
    cache->insertPreloaded(CachingSolver::normalizedKey(query),
                           SatResult::Unsat);
    EXPECT_EQ(cache->stats().preloaded, 1u);

    // First warm hit: the pristine recheck confirms Unsat, the entry is
    // marked audited, the stored verdict is served, the backend is
    // never consulted.
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(*pristineCalls, 1u);
    EXPECT_EQ(backend.calls, 0u);
    EXPECT_EQ(cache->stats().auditPasses, 1u);

    // Later hits skip the audit: it is trust-but-verify, not
    // verify-every-time.
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(*pristineCalls, 1u);
    EXPECT_EQ(solver.stats().cacheHits, 2u);
}

TEST(CachingSolverAuditTest, MismatchQuarantinesAndResolvesFresh)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    backend.fallback = SatResult::Unsat;
    auto cache = std::make_shared<QueryCache>();
    auto script = std::make_shared<std::deque<SatResult>>();
    auto pristineCalls = std::make_shared<size_t>(0);
    CachingSolver::Options options =
        auditEverything(script, pristineCalls);
    std::vector<std::string> mismatchKeys;
    SatResult mismatchStored{};
    SatResult mismatchRecheck{};
    options.onAuditMismatch = [&](const std::string &key,
                                  SatResult stored, SatResult recheck) {
        mismatchKeys.push_back(key);
        mismatchStored = stored;
        mismatchRecheck = recheck;
    };
    CachingSolver solver(tf, backend, cache, options);

    // Seed a rotten journal claim: the contradiction is Unsat, but the
    // preloaded record says Sat. Model replay cannot confirm it (no
    // model satisfies a contradiction), the pristine recheck says
    // Unsat, and the entry must be quarantined — never served.
    std::vector<Term> query = contradiction(tf, "x", 5, 6);
    std::string key = CachingSolver::normalizedKey(query);
    cache->insertPreloaded(key, SatResult::Sat);

    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat)
        << "the served verdict must come from the fresh solve, "
           "byte-identical to a daemonless run";
    ASSERT_EQ(mismatchKeys.size(), 1u);
    EXPECT_EQ(mismatchKeys[0], key);
    EXPECT_EQ(mismatchStored, SatResult::Sat);
    EXPECT_EQ(mismatchRecheck, SatResult::Unsat);
    EXPECT_EQ(backend.calls, 1u)
        << "after quarantine the query falls through to the normal "
           "miss path";
    CacheStats stats = cache->stats();
    EXPECT_EQ(stats.auditMismatches, 1u);
    EXPECT_EQ(stats.quarantined, 1u);

    // The fresh verdict replaced the rotten one and is fully trusted:
    // a repeat is a plain hit, no audit, no backend.
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(backend.calls, 1u);
    EXPECT_EQ(cache->stats().auditMismatches, 1u);
}

TEST(CachingSolverAuditTest, UnknownRecheckIsInconclusive)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    auto script = std::make_shared<std::deque<SatResult>>(
        std::deque<SatResult>{SatResult::Unknown, SatResult::Unsat});
    auto pristineCalls = std::make_shared<size_t>(0);
    CachingSolver solver(tf, backend, cache,
                         auditEverything(script, pristineCalls));

    std::vector<Term> query = contradiction(tf, "x", 7, 8);
    cache->insertPreloaded(CachingSolver::normalizedKey(query),
                           SatResult::Unsat);

    // Recheck #1 times out (Unknown): the stored verdict is served but
    // the entry stays unaudited, so the next hit gets a fresh audit.
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(*pristineCalls, 1u);
    EXPECT_EQ(cache->stats().auditPasses, 0u);

    // Recheck #2 confirms; now the entry is audited for good.
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(*pristineCalls, 2u);
    EXPECT_EQ(cache->stats().auditPasses, 1u);
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(*pristineCalls, 2u);
    EXPECT_EQ(backend.calls, 0u);
}

TEST(CachingSolverAuditTest, StoredSatConfirmedByModelReplayProof)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    auto cache = std::make_shared<QueryCache>();
    auto script = std::make_shared<std::deque<SatResult>>();
    auto pristineCalls = std::make_shared<size_t>(0);
    CachingSolver solver(tf, backend, cache,
                         auditEverything(script, pristineCalls));

    // x == 1 is probe-provable: the audit confirms the stored Sat by
    // concrete evaluation alone — no pristine solver, no backend.
    std::vector<Term> query{
        tf.mkEq(var32(tf, "x"), tf.bvConst(32, 1))};
    cache->insertPreloaded(CachingSolver::normalizedKey(query),
                           SatResult::Sat);

    EXPECT_EQ(solver.checkSat(query), SatResult::Sat);
    EXPECT_EQ(*pristineCalls, 0u);
    EXPECT_EQ(backend.calls, 0u);
    EXPECT_EQ(cache->stats().auditPasses, 1u);
}

TEST(CachingSolverAuditTest, FreshInsertsAreNeverAudited)
{
    TermFactory tf;
    ScriptedSolver backend(tf);
    backend.fallback = SatResult::Unsat;
    auto cache = std::make_shared<QueryCache>();
    auto script = std::make_shared<std::deque<SatResult>>();
    auto pristineCalls = std::make_shared<size_t>(0);
    CachingSolver solver(tf, backend, cache,
                         auditEverything(script, pristineCalls));

    // A verdict this run earned from the backend is not a month-old
    // claim; hitting it later must not spend audit rechecks.
    std::vector<Term> query = contradiction(tf, "y", 1, 2);
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(solver.checkSat(query), SatResult::Unsat);
    EXPECT_EQ(backend.calls, 1u);
    EXPECT_EQ(*pristineCalls, 0u);
}

TEST(QueryCacheTest, PreloadedInsertNeverFiresListenerOrClobbers)
{
    QueryCache cache;
    size_t listenerCalls = 0;
    cache.setInsertListener(
        [&](const std::string &, SatResult) { ++listenerCalls; });

    cache.insertPreloaded("warm", SatResult::Unsat);
    EXPECT_EQ(listenerCalls, 0u)
        << "preloads come FROM the journal; re-journaling them would "
           "double every record per restart";
    bool unaudited = false;
    EXPECT_EQ(cache.lookup("warm", &unaudited), SatResult::Unsat);
    EXPECT_TRUE(unaudited);

    // A fresh insert fires the listener and is born trusted.
    cache.insert("earned", SatResult::Sat);
    EXPECT_EQ(listenerCalls, 1u);
    EXPECT_EQ(cache.lookup("earned", &unaudited), SatResult::Sat);
    EXPECT_FALSE(unaudited);

    // Preloading over a resident trusted entry must not resurrect the
    // unaudited flag.
    cache.insertPreloaded("earned", SatResult::Sat);
    EXPECT_EQ(cache.lookup("earned", &unaudited), SatResult::Sat);
    EXPECT_FALSE(unaudited);

    // markAudited clears the flag; quarantine removes the entry.
    cache.markAudited("warm");
    EXPECT_EQ(cache.lookup("warm", &unaudited), SatResult::Unsat);
    EXPECT_FALSE(unaudited);
    EXPECT_TRUE(cache.quarantine("warm"));
    EXPECT_FALSE(cache.lookup("warm").has_value());
    EXPECT_FALSE(cache.quarantine("warm"));
    EXPECT_EQ(cache.stats().quarantined, 1u);
}

TEST(QueryCacheTest, BytesTrackInsertionsAndClear)
{
    QueryCache cache;
    EXPECT_EQ(cache.stats().bytes, 0u);
    cache.insert("abc", SatResult::Sat);
    EXPECT_EQ(cache.stats().bytes,
              3 + QueryCache::kEntryOverheadBytes);
    cache.insert("defgh", SatResult::Unsat);
    EXPECT_EQ(cache.stats().bytes,
              3 + 5 + 2 * QueryCache::kEntryOverheadBytes);
    // Re-inserting an existing key must not double-charge.
    cache.insert("abc", SatResult::Sat);
    EXPECT_EQ(cache.stats().bytes,
              3 + 5 + 2 * QueryCache::kEntryOverheadBytes);
    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
}

} // namespace
} // namespace keq::smt
