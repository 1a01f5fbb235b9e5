#ifndef KEQ_SMT_SOLVER_H
#define KEQ_SMT_SOLVER_H

/**
 * @file
 * Solver interface used by the KEQ checker.
 *
 * The checker only needs two questions answered: satisfiability of a
 * conjunction, and validity of an implication. Keeping the interface this
 * small lets the checker stay agnostic of the backing solver, mirroring
 * how the paper's K framework fronts Z3.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/smt/term.h"
#include "src/support/failure.h"

namespace keq::smt {

/** Outcome of a satisfiability query. */
enum class SatResult { Sat, Unsat, Unknown };

/**
 * Ordered (name, value) backend tuning parameters — the knobs a
 * portfolio lane turns ("bv.enable_int2bv" = "true", "random_seed" =
 * "7"). Applied best-effort: a parameter the backend build does not
 * recognize is skipped, never fatal, so lane specs stay portable
 * across Z3 versions.
 */
using BackendTuning = std::vector<std::pair<std::string, std::string>>;

const char *satResultName(SatResult result);

/**
 * How a SolverStats field aggregates across stack layers:
 *  - Verdict: the logical-query counters (queries/sat/unsat/unknown).
 *    Every layer counts one query per checkSat itself, so decorators
 *    never fold them from the layers below (foldNonVerdictStats).
 *  - CacheStage: what CachingSolver counts itself (its rewrite, slice
 *    and cache stages, and the wall time it spends in its backend). It
 *    never folds these from its backend, so a sandboxed backend's
 *    worker-side cache traffic cannot break the one-stage-per-query
 *    invariant below.
 *  - Backend: work the layers under the cache perform (incremental
 *    reuse, recovery, transport, portfolio races); every decorator
 *    folds it up.
 */
enum class StatsClass { Verdict, CacheStage, Backend };

const char *statsClassName(StatsClass cls);

/**
 * Every SolverStats field, declared once, in --stats-json and wire
 * order: X(type, member, json key, class) for scalars and
 * L(type, member, json key prefix, class) for the per-lane portfolio
 * array (keys prefix0..prefix{kPortfolioMaxLanes-1}). The struct
 * members, the arithmetic, CachingSolver's backend fold, the wire
 * codec and keqc's printers are all generated from this table; adding
 * a row changes the wire layout (bump wire::kProtocolVersion).
 *
 * For a CachingSolver every query is resolved by exactly one stage:
 *   rewriteResolved + sliceResolved + cacheHits + cacheMisses
 *     == queries.
 * The fault-tolerance, sandbox and portfolio rows count recovery work,
 * IPC overhead and race outcomes, never logical queries: the verdict
 * rows stay byte-identical whether or not faults occurred or lanes
 * raced, which is what lets the chaos suites diff canonical summaries.
 */
#define KEQ_SOLVER_STATS(X, L)                                              \
    X(uint64_t, queries, "queries", Verdict)                                \
    X(uint64_t, sat, "sat", Verdict)                                        \
    X(uint64_t, unsat, "unsat", Verdict)                                    \
    X(uint64_t, unknown, "unknown", Verdict)                                \
    /* Memoization (nonzero only when a CachingSolver fronts the stack) */  \
    X(uint64_t, cacheHits, "cache_hits", CacheStage)                        \
    X(uint64_t, cacheMisses, "cache_misses", CacheStage)                    \
    X(uint64_t, cacheEvictions, "cache_evictions", CacheStage)              \
    /* Query optimization stages: rewrite engine, COI slicing */            \
    X(uint64_t, rewriteResolved, "rewrite_resolved", CacheStage)            \
    X(uint64_t, rewriteApplications, "rewrite_applications", CacheStage)    \
    X(uint64_t, sliceResolved, "slice_resolved", CacheStage)                \
    X(uint64_t, slicedAssertions, "sliced_assertions", CacheStage)          \
    /* Incremental backend: reused prefix assertions, warm/cold checks, */  \
    /* Unknown -> fresh-solver fallbacks */                                 \
    X(uint64_t, incrementalReused, "incremental_reused", Backend)           \
    X(uint64_t, incrementalSolves, "incremental_solves", Backend)           \
    X(uint64_t, incrementalFallbacks, "incremental_fallbacks", Backend)     \
    X(uint64_t, coldSolves, "cold_solves", Backend)                         \
    /* Fault tolerance (GuardedSolver / FaultInjectingSolver) */            \
    X(uint64_t, watchdogInterrupts, "watchdog_interrupts", Backend)         \
    X(uint64_t, guardedRetries, "guarded_retries", Backend)                 \
    X(uint64_t, guardedEscalations, "guarded_escalations", Backend)         \
    X(uint64_t, escalatedResolved, "escalated_resolved", Backend)           \
    X(uint64_t, solverCrashes, "solver_crashes", Backend)                   \
    X(uint64_t, faultsInjected, "faults_injected", Backend)                 \
    /* Process isolation (SandboxSolver / WorkerSupervisor) */              \
    X(uint64_t, workerCrashes, "worker_crashes", Backend)                   \
    X(uint64_t, workerRestarts, "worker_restarts", Backend)                 \
    X(uint64_t, heartbeatTimeouts, "heartbeat_timeouts", Backend)           \
    X(uint64_t, wireBytesSent, "wire_bytes_sent", Backend)                  \
    X(uint64_t, wireBytesReceived, "wire_bytes_received", Backend)          \
    /* Portfolio races: first-answer wins per lane, losers interrupted, */  \
    /* definite-verdict mismatches between lanes */                         \
    L(uint64_t, portfolioWins, "portfolio_wins_", Backend)                  \
    X(uint64_t, portfolioCancellations, "portfolio_cancellations",          \
      Backend)                                                              \
    X(uint64_t, crossLaneDisagreements, "cross_lane_disagreements",         \
      Backend)                                                              \
    /* Wall time spent below the reporting layer */                         \
    X(double, totalSeconds, "total_seconds", CacheStage)

/** Aggregate statistics over the life of a solver. */
struct SolverStats
{
    static constexpr size_t kPortfolioMaxLanes = 4;

#define KEQ_STATS_DECLARE(type, member, key, cls) type member = 0;
#define KEQ_STATS_DECLARE_LANES(type, member, key, cls)                     \
    type member[kPortfolioMaxLanes] = {};
    KEQ_SOLVER_STATS(KEQ_STATS_DECLARE, KEQ_STATS_DECLARE_LANES)
#undef KEQ_STATS_DECLARE
#undef KEQ_STATS_DECLARE_LANES

    SolverStats &operator+=(const SolverStats &rhs);
    /** Field-wise difference; used to attribute counters to one check. */
    SolverStats operator-(const SolverStats &rhs) const;
};

/** One table row as a visitor sees it. */
struct StatsField
{
    const char *key; ///< json key (the lane prefix for lane slots)
    int lane;        ///< lane index for portfolio slots, -1 otherwise
    StatsClass cls;
};

/**
 * Calls fn(StatsField, field&) for every field of @p stats in table
 * order (each portfolio lane slot separately). Pass two stats objects
 * to visit them side by side: fn(StatsField, field&, other.field&).
 */
template <typename Fn, typename... Stats>
void
forEachStatsField(Fn &&fn, Stats &...stats)
{
#define KEQ_STATS_VISIT(type, member, key, cls)                             \
    fn(StatsField{key, -1, StatsClass::cls}, stats.member...);
#define KEQ_STATS_VISIT_LANES(type, member, key, cls)                       \
    for (size_t lane = 0; lane < SolverStats::kPortfolioMaxLanes; ++lane)   \
        fn(StatsField{key, static_cast<int>(lane), StatsClass::cls},        \
           stats.member[lane]...);
    KEQ_SOLVER_STATS(KEQ_STATS_VISIT, KEQ_STATS_VISIT_LANES)
#undef KEQ_STATS_VISIT
#undef KEQ_STATS_VISIT_LANES
}

/** The json key of @p field ("portfolio_wins_2" for a lane slot). */
std::string statsKey(const StatsField &field);

/**
 * Adds every field of @p delta to @p into EXCEPT the Verdict class
 * (queries, sat, unsat, unknown). Decorators that retry or escalate
 * (GuardedSolver, FaultInjectingSolver) count one logical query per
 * checkSat call themselves, but must still surface the work their
 * rungs performed — cache traffic, incremental reuse, injected faults,
 * backend seconds — without inflating the query/verdict counts that
 * the canonical (byte-identical) summaries are built from.
 */
void foldNonVerdictStats(SolverStats &into, const SolverStats &delta);

/**
 * Adds only the Backend class of @p delta to @p into: what a
 * CachingSolver takes from the stack below it.
 */
void foldBackendStats(SolverStats &into, const SolverStats &delta);

class Assignment; // evaluator.h

/**
 * Thrown when a backend solver fails abnormally (a z3::exception or an
 * injected crash) rather than answering Unknown. The GuardedSolver
 * absorbs these while ladder rungs remain; only an exhausted ladder
 * lets one escape to the checker, which classifies it
 * FailureKind::SolverCrash.
 */
class SolverCrashError : public std::runtime_error
{
  public:
    explicit SolverCrashError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * Maps a backend's reason_unknown() string onto the taxonomy. Z3 reports
 * "timeout"/"canceled"/"max. memory exceeded" style reasons; anything
 * unrecognized is an honest SolverUnknown (incompleteness).
 */
FailureKind classifyUnknownReason(const std::string &reason);

/** Abstract satisfiability oracle. */
class Solver
{
  public:
    virtual ~Solver() = default;

    /** Checks satisfiability of the conjunction of @p assertions. */
    virtual SatResult checkSat(const std::vector<Term> &assertions) = 0;

    /**
     * Asks the solver to retain the satisfying model of each Sat answer
     * so that lastModel() can surface it. Off by default: extracting
     * models costs time the plain pipeline never recoups. Backends
     * without model support may ignore this.
     */
    virtual void enableModelCapture(bool enabled) { (void)enabled; }

    /**
     * Copies the model of the most recent Sat answer into @p out.
     *
     * @return false when no model is available (capture disabled, last
     *         answer not Sat, or the backend cannot produce models).
     */
    virtual bool lastModel(Assignment *out) const
    {
        (void)out;
        return false;
    }

    /**
     * Proves `hypothesis => conclusion` by checking that
     * `hypothesis && !conclusion` is unsatisfiable.
     *
     * @return true only when the implication is proven valid; Unknown
     *         results (e.g. timeouts) report false.
     */
    bool proveImplication(Term hypothesis, Term conclusion);

    /** Per-query timeout; 0 means no limit. */
    virtual void setTimeoutMs(unsigned timeout_ms) = 0;

    /**
     * Soft per-query memory budget in MB; 0 means no limit. Backends
     * that cannot enforce one may ignore it.
     */
    virtual void setMemoryBudgetMb(unsigned budget_mb)
    {
        (void)budget_mb;
    }

    /**
     * Asks the backend to abandon the in-flight checkSat as soon as
     * possible (the interrupted query returns Unknown). Must be safe to
     * call from another thread — this is the watchdog's lever. Decorators
     * forward to their backend; the default is a no-op for backends with
     * nothing to interrupt.
     */
    virtual void interruptQuery() {}

    /**
     * Backend's explanation of the most recent Unknown answer (e.g.
     * Z3's reason_unknown()); empty when unavailable or the last answer
     * was definite.
     */
    virtual std::string lastUnknownReason() const { return {}; }

    /**
     * Taxonomy classification of the most recent checkSat: None for a
     * definite answer, otherwise why the query failed. Decorators that
     * retry/escalate (GuardedSolver) report the classification of the
     * final attempt.
     */
    virtual FailureKind lastFailureKind() const
    {
        return FailureKind::None;
    }

    virtual const SolverStats &stats() const = 0;

  protected:
    /** Factory that owns the terms this solver receives. */
    virtual TermFactory &factory() = 0;
};

} // namespace keq::smt

#endif // KEQ_SMT_SOLVER_H
