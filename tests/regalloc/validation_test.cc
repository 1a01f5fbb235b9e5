/** @file KEQ validating register allocation (the paper's Section 1
 *  "ongoing work" experiment): same checker, vx86 on both sides. */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/isel/isel.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/keq/checker.h"
#include "src/regalloc/regalloc.h"
#include "src/smt/z3_solver.h"
#include "src/vcgen/regalloc_vcgen.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::regalloc {
namespace {

const char *const kStraightLine = R"(
define i32 @f(i32 %a, i32 %b) {
entry:
  %1 = add i32 %a, %b
  %2 = xor i32 %1, %a
  ret i32 %2
}
)";

const char *const kSwappingPhis = R"(
define i32 @swapsum(i32 %n) {
entry:
  br label %head
head:
  %x = phi i32 [ 1, %entry ], [ %y, %body ]
  %y = phi i32 [ 2, %entry ], [ %x, %body ]
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %inc = add i32 %i, 1
  br label %head
done:
  %r = add i32 %x, %y
  ret i32 %r
}
)";

const char *const kMemoryTraffic = R"(
@g = external global i32
define i32 @f(i32 %v) {
entry:
  %slot = alloca i32
  store i32 %v, i32* %slot
  %w = load i32, i32* @g
  %x = load i32, i32* %slot
  %y = add i32 %w, %x
  store i32 %y, i32* @g
  ret i32 %y
}
)";

const char *const kCallBoundaries = R"(
declare i32 @ext(i32)
define i32 @f(i32 %a, i32 %b) {
entry:
  %r = call i32 @ext(i32 %a)
  %s = add i32 %r, %b
  ret i32 %s
}
)";

/** Twenty values live at once: more than the register file holds. */
std::string
pressureOverflowSource()
{
    std::string source = "define i32 @fat(i32 %a) {\nentry:\n";
    for (int i = 0; i < 20; ++i) {
        source += "  %v" + std::to_string(i) + " = add i32 %a, " +
                  std::to_string(i) + "\n";
    }
    source += "  %acc0 = add i32 %v0, %v1\n";
    for (int i = 2; i < 20; ++i) {
        source += "  %acc" + std::to_string(i - 1) + " = add i32 %acc" +
                  std::to_string(i - 2) + ", %v" + std::to_string(i) +
                  "\n";
    }
    source += "  ret i32 %acc18\n}\n";
    return source;
}

const char *const kCorpusSample = R"(
define i32 @a(i32 %p0, i32 %p1, i32 %p2) {
entry:
  %1 = add i32 %p0, %p1
  %c = icmp slt i32 %1, %p2
  br i1 %c, label %t, label %e
t:
  br label %j
e:
  br label %j
j:
  %m = phi i32 [ %1, %t ], [ %p2, %e ]
  ret i32 %m
}
define i32 @b(i32 %p0) {
entry:
  %q = udiv i32 %p0, 3
  %r = urem i32 %q, 7
  ret i32 %r
}
)";

/** Figure 6 corpus functions in the RA golden. */
constexpr size_t kGoldenCorpusFunctions = 48;

driver::FunctionReport
validateRA(const char *source)
{
    llvmir::Module module = llvmir::parseModule(source);
    llvmir::verifyModuleOrThrow(module);
    return driver::validateRegAlloc(module, module.functions.back(), {});
}

TEST(RegAllocValidationTest, StraightLine)
{
    driver::FunctionReport report = validateRA(kStraightLine);
    EXPECT_EQ(report.verdict.kind, checker::VerdictKind::Equivalent)
        << report.detail;
}

TEST(RegAllocValidationTest, LoopWithSwappingPhis)
{
    // The classic parallel-copy hazard: phi destinations exchange
    // values every iteration; a naive sequential copy lowering would
    // corrupt one of them and KEQ would catch it.
    driver::FunctionReport report = validateRA(kSwappingPhis);
    EXPECT_EQ(report.verdict.kind, checker::VerdictKind::Equivalent)
        << report.detail;
}

TEST(RegAllocValidationTest, MemoryTraffic)
{
    driver::FunctionReport report = validateRA(kMemoryTraffic);
    EXPECT_EQ(report.verdict.kind, checker::VerdictKind::Equivalent)
        << report.detail;
}

TEST(RegAllocValidationTest, CallBoundaries)
{
    driver::FunctionReport report = validateRA(kCallBoundaries);
    EXPECT_EQ(report.verdict.kind, checker::VerdictKind::Equivalent)
        << report.detail;
}

TEST(RegAllocValidationTest, PressureOverflowIsUnsupported)
{
    driver::FunctionReport report =
        validateRA(pressureOverflowSource().c_str());
    EXPECT_EQ(report.outcome, driver::Outcome::Unsupported);
}

/** A deliberately broken "allocator" must be rejected: swap the
 *  registers of two interfering values behind the VC generator's back. */
TEST(RegAllocValidationTest, CorruptedAllocationRejected)
{
    const char *source = R"(
define i32 @sum(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inc, %body ]
  %s = phi i32 [ 0, %entry ], [ %snext, %body ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %done
body:
  %snext = add i32 %s, %i
  %inc = add i32 %i, 1
  br label %head
done:
  ret i32 %s
}
)";
    llvmir::Module module = llvmir::parseModule(source);
    llvmir::verifyModuleOrThrow(module);
    isel::FunctionHints hints;
    vx86::MFunction pre =
        isel::lowerFunction(module, module.functions[0], {}, hints);
    AllocationResult allocation = allocateRegisters(pre);

    // Miscompile: in the allocated code, redirect every use of the phi
    // destinations' two registers to a single one (clobbering one
    // value), while keeping the hints claiming the original assignment.
    std::vector<std::string> phi_regs;
    for (const vx86::MInst &inst : pre.blocks[1].insts) {
        if (inst.op == vx86::MOpcode::PHI) {
            phi_regs.push_back(
                allocation.assignment.at(inst.ops[0].reg));
        }
    }
    ASSERT_GE(phi_regs.size(), 2u);
    for (vx86::MBasicBlock &block : allocation.fn.blocks) {
        for (vx86::MInst &inst : block.insts) {
            for (vx86::MOperand &op : inst.ops) {
                if (op.kind == vx86::MOperand::Kind::PhysReg &&
                    op.reg == phi_regs[1]) {
                    op.reg = phi_regs[0];
                }
            }
        }
    }

    vcgen::VcResult vc = vcgen::generateRegAllocSyncPoints(pre,
                                                           allocation);
    smt::TermFactory factory;
    mem::MemoryLayout layout;
    llvmir::populateLayout(module, layout);
    vx86::MModule pre_module, post_module;
    pre_module.functions.push_back(std::move(pre));
    post_module.functions.push_back(std::move(allocation.fn));
    vx86::SymbolicSemantics sem_a(pre_module, factory, layout);
    vx86::SymbolicSemantics sem_b(post_module, factory, layout);
    smt::Z3Solver solver(factory);
    sem::IselAcceptability acceptability;
    checker::Checker keq_checker(sem_a, sem_b, acceptability, solver,
                                 {});
    checker::Verdict verdict =
        keq_checker.check("@sum", "@sum", vc.points);
    EXPECT_EQ(verdict.kind, checker::VerdictKind::NotValidated);
}

TEST(RegAllocValidationTest, CorpusSample)
{
    // A slice of corpus functions whose pressure fits the register file
    // must all validate (same-language pair, same unchanged checker).
    llvmir::Module module = llvmir::parseModule(kCorpusSample);
    llvmir::verifyModuleOrThrow(module);
    for (const llvmir::Function &fn : module.functions) {
        driver::FunctionReport report =
            driver::validateRegAlloc(module, fn, {});
        EXPECT_EQ(report.outcome, driver::Outcome::Succeeded)
            << fn.name << ": " << report.detail;
    }
}

/**
 * Byte-identity gate for RA validation: the canonical summary of every
 * case above, plus a slice of the Figure 6 corpus (which reaches the
 * solver), must match the lines pinned in ra_golden.txt. Verdicts, failure kinds,
 * query/step/pair counts and details are all part of the pin.
 */
TEST(RegAllocValidationTest, CanonicalSummariesMatchGolden)
{
    std::string summary;
    auto add_module = [&](const std::string &source) {
        llvmir::Module module = llvmir::parseModule(source);
        llvmir::verifyModuleOrThrow(module);
        for (const llvmir::Function &fn : module.functions) {
            if (fn.isDeclaration())
                continue;
            summary += driver::validateRegAlloc(module, fn, {})
                           .canonicalSummary() +
                       "\n";
        }
    };
    for (const char *source : {kStraightLine, kSwappingPhis,
                               kMemoryTraffic, kCallBoundaries,
                               kCorpusSample})
        add_module(source);
    add_module(pressureOverflowSource());
    driver::CorpusOptions corpus;
    corpus.seed = 0x6cc2006;
    corpus.functionCount = kGoldenCorpusFunctions;
    add_module(driver::generateCorpusSource(corpus));

    std::ifstream golden(KEQ_RA_GOLDEN);
    ASSERT_TRUE(golden) << "missing " << KEQ_RA_GOLDEN;
    std::stringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(summary, expected.str());
}

} // namespace
} // namespace keq::regalloc
