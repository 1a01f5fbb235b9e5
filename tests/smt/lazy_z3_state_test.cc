/** @file Lazy Z3 contexts in both backends: no context before the
 *  first query, interrupts before it are dropped, and interrupts that
 *  race the context's creation never produce a wrong verdict. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/smt/incremental_z3_solver.h"
#include "src/smt/lazy_z3_state.h"
#include "src/smt/term_factory.h"
#include "src/smt/z3_solver.h"
#include "src/support/rng.h"

namespace keq::smt {
namespace {

/** x == 7 plus f(x) ==/!= f(7) for an f of @p depth mul/xor rounds:
 *  Sat when @p equal, else Unsat, and never decided by folding. */
std::vector<Term>
chainQuery(TermFactory &tf, bool equal, uint64_t depth)
{
    Term x = tf.var("x", Sort::bitVec(32));
    Term fx = x;
    Term f7 = tf.bvConst(32, 7);
    for (uint64_t d = 0; d < depth; ++d) {
        fx = tf.bvAdd(tf.bvMul(fx, tf.bvConst(32, d + 3)),
                      tf.bvXor(fx, tf.bvConst(32, d)));
        f7 = tf.bvAdd(tf.bvMul(f7, tf.bvConst(32, d + 3)),
                      tf.bvXor(f7, tf.bvConst(32, d)));
    }
    Term same = tf.mkEq(fx, f7);
    return {tf.mkEq(x, tf.bvConst(32, 7)), equal ? same : tf.mkNot(same)};
}

template <class Backend>
class LazyZ3ContextTest : public ::testing::Test
{};

using Backends = ::testing::Types<Z3Solver, IncrementalZ3Solver>;
TYPED_TEST_SUITE(LazyZ3ContextTest, Backends);

TYPED_TEST(LazyZ3ContextTest, TheFirstQueryBuildsTheOnlyContext)
{
    TermFactory tf;
    uint64_t before = z3ContextsCreated();
    TypeParam solver(tf);
    solver.setTimeoutMs(5000);
    solver.setMemoryBudgetMb(1024);
    solver.enableModelCapture(true);
    EXPECT_EQ(z3ContextsCreated(), before) << "no query, no context";

    EXPECT_EQ(solver.checkSat(chainQuery(tf, true, 4)), SatResult::Sat);
    EXPECT_EQ(solver.checkSat(chainQuery(tf, false, 4)),
              SatResult::Unsat);
    EXPECT_EQ(z3ContextsCreated(), before + 1);
}

/** Before the first query there is no context to cancel: the
 *  interrupt is dropped and the query answers as if it never came. */
TYPED_TEST(LazyZ3ContextTest, AnInterruptBeforeAnyQueryIsDropped)
{
    TermFactory tf;
    TypeParam solver(tf);
    solver.interruptQuery();
    solver.interruptQuery();
    EXPECT_EQ(solver.checkSat(chainQuery(tf, false, 20)),
              SatResult::Unsat);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::None);
    EXPECT_EQ(solver.checkSat(chainQuery(tf, true, 20)), SatResult::Sat);
    EXPECT_EQ(solver.lastFailureKind(), FailureKind::None);
}

/**
 * A second thread fires interruptQuery() nonstop while the first
 * checkSat of a fresh solver builds its context, so interrupts land
 * before, during and after the state is published; it gives up after
 * a random 0-4 ms, so some rounds answer. Each answer may degrade to a
 * typed Unknown or a crash, never to the wrong verdict.
 */
TYPED_TEST(LazyZ3ContextTest, InterruptsRacingContextCreationNeverLie)
{
    support::Rng rng(0x1a2c);
    size_t wrong = 0;
    size_t untyped = 0;
    for (int round = 0; round < 24; ++round) {
        const bool sat = round % 2 == 0;
        TermFactory tf;
        TypeParam solver(tf);
        std::vector<Term> query = chainQuery(tf, sat, 60);
        auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(rng.below(4000));
        std::atomic<bool> spinning{false};
        std::atomic<bool> stop{false};
        std::thread hammer([&] {
            while (!stop.load() &&
                   std::chrono::steady_clock::now() < give_up) {
                solver.interruptQuery();
                spinning.store(true);
            }
            spinning.store(true);
        });
        while (!spinning.load())
            std::this_thread::yield();
        try {
            SatResult result = solver.checkSat(query);
            if (result == (sat ? SatResult::Unsat : SatResult::Sat))
                ++wrong;
            if (result == SatResult::Unknown &&
                solver.lastFailureKind() == FailureKind::None)
                ++untyped;
        } catch (const SolverCrashError &) {
            // A crash is not a verdict; the guard ladder absorbs it.
        }
        stop.store(true);
        hammer.join();
    }
    EXPECT_EQ(wrong, 0u);
    EXPECT_EQ(untyped, 0u);
}

} // namespace
} // namespace keq::smt
