#ifndef KEQ_SMT_SOLVER_STACK_H
#define KEQ_SMT_SOLVER_STACK_H

/**
 * @file
 * The one place that decides which solver layers wrap which, bottom-up:
 * backend (sandbox | portfolio | lane | incremental | cold Z3), cache,
 * fault injector, guard. Each layer is built only when its spec field
 * asks for it (DESIGN.md §8 tabulates the stack of every caller).
 *
 * The guard's ladder is derived, not configured: a fresh fault-injected
 * cold rung exists only when the rung-1 plan faults.derive(1) is
 * enabled (without a plan it would duplicate the terminal rung), and
 * the terminal rung is always a pristine cold Z3Solver. A sandbox spec
 * builds backend and cache only: the worker runs its own guard, and the
 * guard's deadlineMs caps each sandboxed query's timeout instead.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/smt/caching_solver.h"
#include "src/smt/fault_injection.h"
#include "src/smt/guarded_solver.h"
#include "src/smt/portfolio_solver.h"

namespace keq::smt {

class WorkerSupervisor; // sandbox.h

/** What to stack; the default value is one cold Z3Solver. */
struct SolverStackSpec
{
    /** Lane roster: >1 races a portfolio, 1 builds that lane's backend,
     *  0 builds the plain backend. */
    std::vector<LaneConfig> lanes;
    /** The roster as sandbox workers receive it (Reset strategies). */
    std::vector<std::string> laneEntries;
    /** Plain backend: IncrementalZ3Solver instead of a cold Z3Solver. */
    bool incremental = false;
    /** Non-null routes every query to this worker pool. */
    WorkerSupervisor *sandbox = nullptr;
    /** Verdict store; null builds no cache layer. */
    std::shared_ptr<QueryCache> cache;
    /** Audits without a re-check solver get a pristine cold Z3Solver. */
    CachingSolverOptions caching;
    FaultPlan faults;
    std::optional<GuardedSolverOptions> guard;
};

/** An assembled stack. Owns every layer; members are declared
 *  bottom-up, so destruction runs top-down. */
struct SolverStack
{
    std::unique_ptr<Solver> backend;
    std::unique_ptr<CachingSolver> cache;
    std::unique_ptr<FaultInjectingSolver> injector;
    std::unique_ptr<GuardedSolver> guard; ///< null without guard options
    Solver *top = nullptr; ///< the outermost layer: what the checker uses
};

SolverStack buildSolverStack(TermFactory &factory,
                             const SolverStackSpec &spec);

} // namespace keq::smt

#endif // KEQ_SMT_SOLVER_STACK_H
