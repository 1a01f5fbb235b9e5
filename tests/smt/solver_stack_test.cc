/** @file buildSolverStack: no Z3 context before a query reaches the
 *  backend, the derived escalation ladder with and without a fault
 *  plan, sandbox specs leaving containment to the worker, and the
 *  worker's spec keeping mid-query cancellation. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/smt/lazy_z3_state.h"
#include "src/smt/sandbox.h"
#include "src/smt/solver_stack.h"
#include "src/smt/term_factory.h"

namespace keq::smt {
namespace {

/** x * 3 == 7 over 8 bits: Sat (x = 0xad), but not by folding. */
std::vector<Term>
oddProductQuery(TermFactory &f)
{
    Term x = f.var("x", Sort::bitVec(8));
    return {f.mkEq(f.bvMul(x, f.bvConst(8, 3)), f.bvConst(8, 7))};
}

/**
 * 64-bit factoring of a semiprime whose factors are capped at 32 bits:
 * Z3 chews on it far longer than any test waits (see sandbox_test.cc).
 */
std::vector<Term>
hardQuery(TermFactory &f)
{
    Sort bv64 = Sort::bitVec(64);
    Term x = f.var("hard_x", bv64);
    Term y = f.var("hard_y", bv64);
    Term one = f.bvConst(64, 1);
    Term cap = f.bvConst(64, 0x100000000ULL);
    return {
        f.mkEq(f.bvMul(x, y), f.bvConst(64, 0xa3c7961cd171ec7dULL)),
        f.bvUgt(x, one),
        f.bvUgt(y, one),
        f.bvUlt(x, cap),
        f.bvUlt(y, cap),
    };
}

/** A one-lane roster whose backend gives up at once: rlimit=1. */
std::vector<LaneConfig>
starvedLane()
{
    std::vector<LaneConfig> lanes;
    std::string error;
    EXPECT_TRUE(parsePortfolioLanes("cold:rlimit=1", lanes, error))
        << error;
    return lanes;
}

TEST(SolverStack, DefaultSpecIsABareColdSolver)
{
    TermFactory f;
    SolverStack stack = buildSolverStack(f, {});
    EXPECT_EQ(stack.guard, nullptr);
    EXPECT_EQ(stack.top->checkSat(oddProductQuery(f)), SatResult::Sat);
    EXPECT_EQ(stack.top->stats().queries, 1u);
}

/**
 * Z3 contexts are built by the first query that reaches a backend, so
 * a stack whose queries are all answered above its backend costs none.
 * Every stack shape builds 0 contexts, however it is configured or
 * interrupted, until a query gets through.
 */
TEST(SolverStack, NoShapeBuildsAZ3ContextBeforeAQueryReachesIt)
{
    std::vector<std::pair<std::string, SolverStackSpec>> shapes;
    shapes.emplace_back("plain", SolverStackSpec{});
    SolverStackSpec incremental;
    incremental.incremental = true;
    shapes.emplace_back("incremental", incremental);
    SolverStackSpec one_lane;
    one_lane.lanes = defaultPortfolioLanes(1);
    shapes.emplace_back("one lane", one_lane);
    SolverStackSpec portfolio;
    portfolio.lanes = defaultPortfolioLanes(3);
    shapes.emplace_back("3-lane portfolio", portfolio);
    SolverStackSpec guarded;
    guarded.faults.seed = 7;
    guarded.faults.unknownPercent = 100;
    guarded.guard = GuardedSolverOptions{};
    shapes.emplace_back("guard with rungs", guarded);
    SolverStackSpec audited;
    audited.cache = std::make_shared<QueryCache>();
    audited.caching.auditRate = 0.5;
    shapes.emplace_back("audited cache", audited);

    for (const auto &[name, spec] : shapes) {
        TermFactory f;
        // x * 3 == 7 forces x = 0xad; excluding it leaves no model for
        // the cache's probes to find, so the query reaches Z3.
        std::vector<Term> query = oddProductQuery(f);
        query.push_back(f.mkNot(f.mkEq(f.var("x", Sort::bitVec(8)),
                                       f.bvConst(8, 0xad))));
        uint64_t before = z3ContextsCreated();
        SolverStack stack = buildSolverStack(f, spec);
        stack.top->setTimeoutMs(10000);
        stack.top->enableModelCapture(true);
        stack.top->interruptQuery();
        EXPECT_EQ(z3ContextsCreated(), before) << name;
        EXPECT_EQ(stack.top->checkSat(query), SatResult::Unsat) << name;
        EXPECT_GE(z3ContextsCreated(), before + 1) << name;
    }
}

TEST(SolverStack, WithoutPlanUnknownResolvesAfterOneEscalation)
{
    TermFactory f;
    SolverStackSpec spec;
    spec.lanes = starvedLane();
    spec.guard = GuardedSolverOptions{};
    SolverStack stack = buildSolverStack(f, spec);
    ASSERT_NE(stack.guard, nullptr);

    EXPECT_EQ(stack.top->checkSat(oddProductQuery(f)), SatResult::Sat);
    const SolverStats &stats = stack.top->stats();
    // No plan, no fresh rung: the primary's retry fails too, and the
    // next rung is the pristine one, which answers.
    EXPECT_EQ(stats.guardedEscalations, 1u);
    EXPECT_EQ(stats.escalatedResolved, 1u);
    EXPECT_EQ(stack.top->lastFailureKind(), FailureKind::None);
}

TEST(SolverStack, WithPlanQueryStillReachesThePristineRung)
{
    TermFactory f;
    SolverStackSpec spec;
    spec.cache = std::make_shared<QueryCache>();
    spec.faults.seed = 7;
    spec.faults.unknownPercent = 100;
    spec.guard = GuardedSolverOptions{};
    SolverStack stack = buildSolverStack(f, spec);

    // Every injected rung answers Unknown; only the pristine terminal
    // rung, reached through the fresh injected one, converges.
    EXPECT_EQ(stack.top->checkSat(oddProductQuery(f)), SatResult::Sat);
    const SolverStats &stats = stack.top->stats();
    EXPECT_EQ(stats.guardedEscalations, 2u);
    EXPECT_EQ(stats.escalatedResolved, 1u);
    EXPECT_GT(stats.faultsInjected, 0u);
    EXPECT_EQ(stats.queries, 1u);
    EXPECT_EQ(stats.sat, 1u);
}

TEST(SolverStack, SandboxSpecBuildsNoParentSideInjectorOrGuard)
{
    // Never started: building a stack only opens a session id.
    WorkerSupervisor supervisor(SandboxOptions{});
    TermFactory f;
    SolverStackSpec spec;
    spec.sandbox = &supervisor;
    spec.faults.seed = 7;
    spec.faults.unknownPercent = 100;
    spec.guard = GuardedSolverOptions{};

    SolverStack bare = buildSolverStack(f, spec);
    EXPECT_EQ(bare.guard, nullptr);
    EXPECT_NE(dynamic_cast<SandboxSolver *>(bare.top), nullptr)
        << "nothing may sit above the sandbox backend";

    spec.cache = std::make_shared<QueryCache>();
    SolverStack cached = buildSolverStack(f, spec);
    EXPECT_EQ(cached.guard, nullptr);
    EXPECT_NE(dynamic_cast<CachingSolver *>(cached.top), nullptr)
        << "the cache front stays in the parent, directly on top";
}

TEST(SolverStack, WorkerSpecKeepsCancellableReaping)
{
    TermFactory f;
    SolverStackSpec spec;
    std::string error;
    ASSERT_TRUE(parsePortfolioLanes("default", spec.lanes, error));
    spec.cache = std::make_shared<QueryCache>();
    GuardedSolverOptions guard;
    guard.cancellable = true;
    spec.guard = guard;
    SolverStack stack = buildSolverStack(f, spec);
    ASSERT_NE(stack.guard, nullptr);

    std::vector<Term> hard = hardQuery(f);
    std::atomic<bool> done{false};
    SatResult result = SatResult::Sat;
    std::thread solve([&] {
        result = stack.top->checkSat(hard);
        done = true;
    });
    // Keep reaping until the query returns: a cancel that lands before
    // checkSat starts is reset at its entry.
    while (!done) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stack.guard->cancelCurrentQuery();
    }
    solve.join();
    EXPECT_EQ(result, SatResult::Unknown);
    EXPECT_EQ(stack.top->lastFailureKind(), FailureKind::Cancelled);
}

} // namespace
} // namespace keq::smt
