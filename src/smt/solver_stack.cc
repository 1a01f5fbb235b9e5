#include "src/smt/solver_stack.h"

#include "src/smt/incremental_z3_solver.h"
#include "src/smt/sandbox.h"
#include "src/smt/z3_solver.h"

namespace keq::smt {

SolverStack
buildSolverStack(TermFactory &factory, const SolverStackSpec &spec)
{
    SolverStack stack;
    if (spec.sandbox != nullptr)
        stack.backend = std::make_unique<SandboxSolver>(
            factory, *spec.sandbox, spec.laneEntries,
            spec.guard.has_value() ? spec.guard->deadlineMs : 0);
    else if (spec.lanes.size() > 1)
        stack.backend =
            std::make_unique<PortfolioSolver>(factory, spec.lanes);
    else if (spec.lanes.size() == 1)
        stack.backend = makeLaneBackend(factory, spec.lanes.front());
    else if (spec.incremental)
        stack.backend = std::make_unique<IncrementalZ3Solver>(factory);
    else
        stack.backend = std::make_unique<Z3Solver>(factory);
    stack.top = stack.backend.get();

    if (spec.cache != nullptr) {
        CachingSolverOptions options = spec.caching;
        if (options.auditRate > 0.0 && !options.auditSolverFactory)
            options.auditSolverFactory = [](TermFactory &f) {
                return std::make_unique<Z3Solver>(f);
            };
        stack.cache = std::make_unique<CachingSolver>(
            factory, *stack.top, spec.cache, std::move(options));
        stack.top = stack.cache.get();
    }
    if (spec.sandbox != nullptr)
        return stack;

    // Above the cache, so injected misbehavior exercises retry and
    // escalation without ever reaching the stored verdicts.
    if (spec.faults.enabled()) {
        stack.injector = std::make_unique<FaultInjectingSolver>(
            factory, *stack.top, spec.faults);
        stack.top = stack.injector.get();
    }
    if (spec.guard.has_value()) {
        std::vector<GuardedSolver::RungFactory> rungs;
        FaultPlan rung1 = spec.faults.derive(1);
        if (rung1.enabled())
            rungs.push_back([&factory, rung1] {
                return std::make_unique<FaultInjectingSolver>(
                    factory, std::make_unique<Z3Solver>(factory), rung1);
            });
        // Pristine and untuned even under a tuned lane: a query that
        // needs the terminal rung converges to the reference solver.
        rungs.push_back(
            [&factory] { return std::make_unique<Z3Solver>(factory); });
        stack.guard = std::make_unique<GuardedSolver>(
            factory, *stack.top, std::move(rungs), *spec.guard);
        stack.top = stack.guard.get();
    }
    return stack;
}

} // namespace keq::smt
