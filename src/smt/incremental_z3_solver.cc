#include "src/smt/incremental_z3_solver.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include <z3++.h>

#include "src/smt/z3_lowering.h"
#include "src/support/diagnostics.h"
#include "src/support/stopwatch.h"

namespace keq::smt {

namespace {

/**
 * Makes Z3 interrupts safe to deliver at any moment.
 *
 * Z3_interrupt cancels the context, and only check() clears that
 * again. An interrupt that lands outside check() (a late watchdog
 * re-fire, a Cancel for a query that already answered, a reaped
 * portfolio lane) leaves the context cancelled: push() then throws,
 * and add() after a push() silently drops its assertion, so the next
 * check() answers a weaker query (a Sat that should be Unsat).
 * checkSat brackets its pushes: begin() clears a pending interrupt,
 * and interruptedSince() says whether one arrived after begin(), in
 * which case the assertions just pushed cannot be trusted.
 */
class InterruptLatch
{
  public:
    explicit InterruptLatch(z3::context &ctx) : ctx_(ctx) {}

    /** Cancels the context's current work; safe from any thread. */
    void
    interrupt()
    {
        ctx_.interrupt();
        // Count after interrupting, so a begin() that read the count
        // before this interrupt landed sees it in interruptedSince().
        ++count_;
    }

    /** Owner thread: clears any pending interrupt; returns a token. */
    uint64_t
    begin()
    {
        uint64_t seen = count_.load();
        if (seen != cleared_) {
            // check() on an empty simple solver clears the flag in a
            // few microseconds; built on first use, as most solvers
            // are never interrupted.
            if (!idle_)
                idle_.emplace(ctx_, z3::solver::simple());
            idle_->check();
            cleared_ = seen;
        }
        return seen;
    }

    /** True when an interrupt arrived after begin() returned @p token. */
    bool interruptedSince(uint64_t token) const { return count_ != token; }

  private:
    z3::context &ctx_;
    std::optional<z3::solver> idle_;
    std::atomic<uint64_t> count_{0};
    uint64_t cleared_ = 0; ///< owner thread only
};

} // namespace

struct IncrementalZ3Solver::Impl
{
    z3::context ctx;
    Z3Lowering lowering{ctx};
    /**
     * Logic-specialized solver: every checker term is quantifier-free
     * bitvector/bool/array, and naming the logic keeps Z3 on the
     * specialized engine even in incremental (push/pop) mode, where the
     * plain combined solver would fall back to the generic SMT core —
     * measurably slower on exactly our query mix.
     */
    z3::solver solver{ctx, "QF_AUFBV"};
    InterruptLatch latch{ctx};
    /** Assertions currently on the scope stack, one scope each. */
    std::vector<Term> scopes;
    /** Limits currently applied to `solver`; track the setters. */
    unsigned appliedTimeoutMs = 0;
    unsigned appliedMemoryMb = 0;
    bool limitsApplied = false;

    void interrupt() { latch.interrupt(); }

    void
    applyLimits(z3::solver &target, unsigned timeout_ms,
                unsigned memory_mb)
    {
        z3::params params(ctx);
        // Z3's own "no limit" sentinel; lets a nonzero limit be
        // cleared again without recreating the solver.
        params.set("timeout",
                   timeout_ms == 0 ? 4294967295u : timeout_ms);
        params.set("max_memory",
                   memory_mb == 0 ? 4294967295u : memory_mb);
        target.set(params);
    }

    /** Drops all live scopes, e.g. after an Unknown poisons state. */
    void
    reset()
    {
        solver = z3::solver(ctx);
        scopes.clear();
        appliedTimeoutMs = 0;
        appliedMemoryMb = 0;
        limitsApplied = false;
    }
};

IncrementalZ3Solver::IncrementalZ3Solver(TermFactory &factory,
                                         BackendTuning tuning)
    : factory_(factory), tuning_(std::move(tuning))
{}

IncrementalZ3Solver::~IncrementalZ3Solver() = default;

bool
IncrementalZ3Solver::lastModel(Assignment *out) const
{
    if (!lastModel_.has_value())
        return false;
    *out = *lastModel_;
    return true;
}

void
IncrementalZ3Solver::setTimeoutMs(unsigned timeout_ms)
{
    timeoutMs_ = timeout_ms;
}

void
IncrementalZ3Solver::setMemoryBudgetMb(unsigned budget_mb)
{
    memoryBudgetMb_ = budget_mb;
}

void
IncrementalZ3Solver::interruptQuery()
{
    impl_.interrupt();
}

SatResult
IncrementalZ3Solver::checkSat(const std::vector<Term> &assertions)
{
    support::Stopwatch watch;
    lastUnknownReason_.clear();
    lastFailure_ = FailureKind::None;
    Impl &impl = impl_.get();
    if (!impl.limitsApplied || impl.appliedTimeoutMs != timeoutMs_ ||
        impl.appliedMemoryMb != memoryBudgetMb_) {
        impl.applyLimits(impl.solver, timeoutMs_, memoryBudgetMb_);
        if (!tuning_.empty())
            applyTuningParams(impl.ctx, impl.solver, tuning_);
        impl.appliedTimeoutMs = timeoutMs_;
        impl.appliedMemoryMb = memoryBudgetMb_;
        impl.limitsApplied = true;
    }

    // Rewind to the longest prefix shared with the previous query, then
    // push the new suffix one scope at a time. Hash-consing makes the
    // prefix comparison a pointer check. Assertions are added directly
    // (plain scoped asserts, no assumption literals): Z3's full
    // preprocessing stays enabled, which matters more than the lemmas an
    // assumption-based encoding would additionally retain.
    size_t prefix = 0;
    z3::check_result z3_result = z3::unknown;
    std::optional<z3::model> model;
    try {
        uint64_t token = impl.latch.begin();
        while (prefix < impl.scopes.size() &&
               prefix < assertions.size() &&
               impl.scopes[prefix].id() == assertions[prefix].id()) {
            ++prefix;
        }
        if (impl.scopes.size() > prefix) {
            impl.solver.pop(
                static_cast<unsigned>(impl.scopes.size() - prefix));
            impl.scopes.resize(prefix);
        }
        for (size_t i = prefix; i < assertions.size(); ++i) {
            KEQ_ASSERT(assertions[i].sort().isBool(),
                       "checkSat: non-bool assertion");
            impl.solver.push();
            impl.solver.add(impl.lowering.lower(assertions[i]));
            impl.scopes.push_back(assertions[i]);
        }
        // An interrupt during the pushes may have made Z3 ignore some of
        // them: rebuild the scope stack and report the interrupt, never
        // a verdict over the weakened query.
        bool interrupted = impl.latch.interruptedSince(token);
        if (interrupted) {
            impl.reset();
            lastUnknownReason_ = "canceled";
        } else {
            z3_result = impl.solver.check();
            stats_.incrementalReused += prefix;
            if (prefix > 0)
                ++stats_.incrementalSolves;
            else
                ++stats_.coldSolves;

            if (z3_result == z3::sat && captureModels_) {
                try {
                    model.emplace(impl.solver.get_model());
                } catch (const z3::exception &) {
                }
            }
        }

        if (z3_result == z3::unknown && !interrupted) {
            // Soundness guardrail: never report an Unknown that a cold
            // solver would have answered. Retry fresh, then rebuild the
            // persistent solver — its state may be poisoned. (After a
            // watchdog interrupt this fallback check re-enters Z3; the
            // watchdog re-interrupts until we return.)
            ++stats_.incrementalFallbacks;
            z3::solver fallback(impl.ctx);
            impl.applyLimits(fallback, timeoutMs_, memoryBudgetMb_);
            if (!tuning_.empty())
                applyTuningParams(impl.ctx, fallback, tuning_);
            // Never pushed, it only buffers its assertions until check(),
            // so a pending interrupt cannot make it drop one.
            for (const Term &assertion : assertions)
                fallback.add(impl.lowering.lower(assertion));
            z3_result = fallback.check();
            if (z3_result == z3::unknown)
                lastUnknownReason_ = fallback.reason_unknown();
            if (z3_result == z3::sat && captureModels_) {
                try {
                    model.emplace(fallback.get_model());
                } catch (const z3::exception &) {
                }
            }
            impl.reset();
        }
    } catch (const z3::exception &error) {
        // The scope stack may hold a half-pushed assertion; rebuild
        // before anyone reuses this solver.
        impl.reset();
        std::string what = error.msg();
        lastFailure_ = what.find("memory") != std::string::npos
                           ? FailureKind::MemoryBudget
                           : FailureKind::SolverCrash;
        throw SolverCrashError("z3(incremental): " + what);
    }
    if (z3_result == z3::unknown)
        lastFailure_ = classifyUnknownReason(lastUnknownReason_);

    ++stats_.queries;
    stats_.totalSeconds += watch.seconds();

    lastModel_.reset();
    if (model.has_value()) {
        lastModel_.emplace();
        try {
            extractModel(*model, &*lastModel_);
        } catch (const z3::exception &) {
            lastModel_.reset();
        }
    }

    switch (z3_result) {
      case z3::sat:
        ++stats_.sat;
        return SatResult::Sat;
      case z3::unsat:
        ++stats_.unsat;
        return SatResult::Unsat;
      case z3::unknown:
        ++stats_.unknown;
        return SatResult::Unknown;
    }
    KEQ_ASSERT(false, "checkSat: unhandled Z3 result");
    return SatResult::Unknown;
}

} // namespace keq::smt
