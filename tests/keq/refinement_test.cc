/** @file Undefined-behaviour and refinement handling (Section 4.6). */

#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/isel/isel.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/symbolic_semantics.h"
#include "src/llvmir/verifier.h"
#include "src/sem/acceptability.h"
#include "src/vcgen/vcgen.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::checker {
namespace {

driver::FunctionReport
validate(const char *source, driver::PipelineOptions options = {})
{
    llvmir::Module module = llvmir::parseModule(source);
    llvmir::verifyModuleOrThrow(module);
    return driver::validateFunction(module, module.functions.back(),
                                    options);
}

TEST(RefinementTest, NswOverflowDegradesToRefinement)
{
    driver::FunctionReport report = validate(R"(
define i32 @bump(i32 %a) {
entry:
  %r = add nsw i32 %a, 1
  ret i32 %r
}
)");
    // The translation is correct, but input UB is reachable, so only
    // refinement is claimed (Section 4.6's automatic fallback).
    EXPECT_EQ(report.verdict.kind, VerdictKind::Refines)
        << report.detail;
    EXPECT_TRUE(report.verdict.usedRefinementFallback);
    EXPECT_EQ(report.outcome, driver::Outcome::Succeeded);
}

TEST(RefinementTest, UnreachableNswIsStillEquivalent)
{
    driver::FunctionReport report = validate(R"(
define i32 @safe(i32 %a) {
entry:
  %m = and i32 %a, 65535
  %r = add nsw i32 %m, 1
  ret i32 %r
}
)");
    // The overflow condition is unsatisfiable (masked operand), so the
    // checker proves full equivalence.
    EXPECT_EQ(report.verdict.kind, VerdictKind::Equivalent)
        << report.detail;
    EXPECT_FALSE(report.verdict.usedRefinementFallback);
}

TEST(RefinementTest, DivisionByRegisterRefines)
{
    driver::FunctionReport report = validate(R"(
define i32 @div(i32 %a, i32 %b) {
entry:
  %q = sdiv i32 %a, %b
  ret i32 %q
}
)");
    // LLVM division UB (b == 0, INT_MIN / -1) maps onto the x86 #DE
    // fault; the proof succeeds as a refinement.
    EXPECT_EQ(report.verdict.kind, VerdictKind::Refines)
        << report.detail;
    EXPECT_EQ(report.outcome, driver::Outcome::Succeeded);
}

TEST(RefinementTest, UnsignedDivisionByRegisterRefines)
{
    driver::FunctionReport report = validate(R"(
define i32 @udivrem(i32 %a, i32 %b) {
entry:
  %q = udiv i32 %a, %b
  %r = urem i32 %a, %b
  %s = add i32 %q, %r
  ret i32 %s
}
)");
    EXPECT_EQ(report.verdict.kind, VerdictKind::Refines)
        << report.detail;
}

TEST(RefinementTest, UnreachableTerminatorAccepted)
{
    driver::FunctionReport report = validate(R"(
define i32 @partial(i32 %a) {
entry:
  %c = icmp ult i32 %a, 10
  br i1 %c, label %ok, label %impossible
ok:
  ret i32 %a
impossible:
  unreachable
}
)");
    // `unreachable` is input UB; UD2 on the output side is acceptable.
    EXPECT_TRUE(report.verdict.validated()) << report.detail;
}

TEST(RefinementTest, RefinementOnlyModeReportsRefines)
{
    driver::PipelineOptions options;
    options.checker.refinementOnly = true;
    driver::FunctionReport report = validate(R"(
define i32 @f(i32 %a) {
entry:
  ret i32 %a
}
)",
                                             options);
    EXPECT_EQ(report.verdict.kind, VerdictKind::Refines);
}

TEST(AcceptabilityTest, IselPolicyTable)
{
    sem::IselAcceptability acceptability;
    // Input-side UB accepts any output behaviour.
    EXPECT_TRUE(acceptability.errorAcceptsAnyOutput(
        sem::ErrorKind::SignedOverflow));
    EXPECT_TRUE(
        acceptability.errorAcceptsAnyOutput(sem::ErrorKind::OutOfBounds));
    EXPECT_FALSE(acceptability.errorAcceptsAnyOutput(sem::ErrorKind::None));
    // Same-kind errors relate.
    EXPECT_TRUE(acceptability.errorsRelated(sem::ErrorKind::OutOfBounds,
                                            sem::ErrorKind::OutOfBounds));
    // The x86 divide fault covers both LLVM division UB kinds.
    EXPECT_TRUE(acceptability.errorsRelated(
        sem::ErrorKind::SignedOverflow, sem::ErrorKind::DivByZero));
    EXPECT_TRUE(acceptability.errorsRelated(sem::ErrorKind::DivByZero,
                                            sem::ErrorKind::DivByZero));
    // But not unrelated kinds.
    EXPECT_FALSE(acceptability.errorsRelated(
        sem::ErrorKind::OutOfBounds, sem::ErrorKind::DivByZero));
    EXPECT_TRUE(acceptability.requiresMemoryEquality());
}

TEST(RefinementTest, NswInsideLoopStillValidates)
{
    driver::FunctionReport report = validate(R"(
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %s = phi i32 [ 0, %entry ], [ %snext, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %snext = add nsw i32 %s, %i
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %s
}
)");
    EXPECT_EQ(report.verdict.kind, VerdictKind::Refines)
        << report.detail;
}

/**
 * A solver whose every query comes back Unknown with a fixed failure
 * classification — WorkerKilled stands for a sandbox worker SIGKILLed
 * under the query, None for honest incompleteness.
 */
class UnknownSolver : public smt::Solver
{
  public:
    UnknownSolver(smt::TermFactory &factory, FailureKind failure)
        : factory_(factory), failure_(failure)
    {}

    smt::SatResult
    checkSat(const std::vector<smt::Term> &) override
    {
        ++stats_.queries;
        ++stats_.unknown;
        return smt::SatResult::Unknown;
    }
    void setTimeoutMs(unsigned) override {}
    FailureKind lastFailureKind() const override { return failure_; }
    const smt::SolverStats &stats() const override { return stats_; }

  protected:
    smt::TermFactory &factory() override { return factory_; }

  private:
    smt::TermFactory &factory_;
    FailureKind failure_;
    smt::SolverStats stats_;
};

/**
 * Checks @p source's last function against @p failure's UnknownSolver.
 * The function must reach the solver only through the conservative
 * "is the input-side UB reachable?" check.
 */
Verdict
checkWithUnknowns(const char *source, FailureKind failure)
{
    llvmir::Module module = llvmir::parseModule(source);
    llvmir::verifyModuleOrThrow(module);
    const llvmir::Function &fn = module.functions.back();
    isel::FunctionHints hints;
    vx86::MFunction mfn = isel::lowerFunction(module, fn, {}, hints);
    vcgen::VcResult vc = vcgen::generateSyncPoints(fn, mfn, hints);
    vx86::MModule mmodule;
    mmodule.functions.push_back(std::move(mfn));
    smt::TermFactory factory;
    mem::MemoryLayout layout;
    llvmir::populateLayout(module, layout);
    llvmir::SymbolicSemantics sem_a(module, factory, layout);
    vx86::SymbolicSemantics sem_b(mmodule, factory, layout);
    UnknownSolver solver(factory, failure);
    sem::IselAcceptability acceptability;
    Checker checker(sem_a, sem_b, acceptability, solver);
    return checker.check(fn.name, fn.name, vc.points);
}

/** Clean verdict: Equivalent, the UB check answering Unsat. */
const char *const kMaskedNsw = R"(
define i32 @safe(i32 %a) {
entry:
  %m = and i32 %a, 65535
  %r = add nsw i32 %m, 1
  ret i32 %r
}
)";

TEST(RefinementTest, ClassifiedUnknownOnUbReachabilityIsAFailure)
{
    // A killed worker is an infrastructure failure, not evidence that
    // the UB is reachable: degrading to Refines would report a weaker
    // verdict than the clean run's with fail=none.
    Verdict verdict =
        checkWithUnknowns(kMaskedNsw, FailureKind::WorkerKilled);
    EXPECT_EQ(verdict.failure, FailureKind::WorkerKilled);
    EXPECT_EQ(verdict.kind, VerdictKind::Timeout);
    EXPECT_FALSE(verdict.usedRefinementFallback);
}

TEST(RefinementTest, UnclassifiedUnknownOnUbReachabilityRefines)
{
    // Honest incompleteness stays conservative: the UB may be
    // reachable, so only refinement is claimed.
    Verdict verdict = checkWithUnknowns(kMaskedNsw, FailureKind::None);
    EXPECT_EQ(verdict.kind, VerdictKind::Refines) << verdict.reason;
    EXPECT_EQ(verdict.failure, FailureKind::None);
    EXPECT_TRUE(verdict.usedRefinementFallback);
}

} // namespace
} // namespace keq::checker
