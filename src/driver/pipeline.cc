#include "src/driver/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "src/driver/checkpoint.h"
#include "src/llvmir/layout_builder.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/symbolic_semantics.h"
#include "src/llvmir/verifier.h"
#include "src/memory/layout.h"
#include "src/smt/solver_stack.h"
#include "src/smt/term_factory.h"
#include "src/support/diagnostics.h"
#include "src/support/journal.h"
#include "src/support/stopwatch.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/regalloc/regalloc.h"
#include "src/vcgen/regalloc_vcgen.h"
#include "src/vx86/symbolic_semantics.h"

namespace keq::driver {

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::Succeeded: return "Succeeded";
      case Outcome::Timeout: return "Failed due to timeout";
      case Outcome::OutOfMemory: return "Failed due to out-of-memory";
      case Outcome::Other: return "Other";
      case Outcome::Unsupported: return "Unsupported";
    }
    return "?";
}

std::string
FunctionReport::canonicalSummary() const
{
    std::ostringstream os;
    os << function << " | " << outcomeName(outcome) << " | "
       << checker::verdictKindName(verdict.kind)
       << " | fail=" << failureKindName(verdict.failure)
       << " | refine=" << (verdict.usedRefinementFallback ? 1 : 0)
       << " | queries=" << verdict.stats.solverQueries
       << " points=" << verdict.stats.pointsChecked
       << " steps=" << verdict.stats.symbolicSteps
       << " pairs=" << verdict.stats.pairsExamined
       << " | llvm=" << llvmInstructions << " x86=" << x86Instructions
       << " sync=" << syncPointCount << " spec=" << specTextSize
       << " | " << detail;
    return os.str();
}

size_t
ModuleReport::countOutcome(Outcome outcome) const
{
    size_t count = 0;
    for (const FunctionReport &report : functions) {
        if (report.outcome == outcome)
            ++count;
    }
    return count;
}

std::string
ModuleReport::renderTable() const
{
    size_t unsupported = countOutcome(Outcome::Unsupported);
    size_t total = functions.size() - unsupported;
    std::ostringstream os;
    os << "Result                       | #Functions\n";
    os << "-----------------------------+-----------\n";
    auto row = [&](Outcome outcome) {
        os << outcomeName(outcome);
        for (size_t i = std::string(outcomeName(outcome)).size(); i < 29;
             ++i) {
            os << ' ';
        }
        os << "| " << countOutcome(outcome) << "\n";
    };
    row(Outcome::Succeeded);
    row(Outcome::Timeout);
    row(Outcome::OutOfMemory);
    row(Outcome::Other);
    os << "Total                        | " << total << "\n";
    if (unsupported > 0) {
        os << "(excluded: " << unsupported
           << " functions outside the supported fragment)\n";
    }
    return os.str();
}

std::string
ModuleReport::canonicalSummary() const
{
    std::ostringstream os;
    for (const FunctionReport &report : functions)
        os << report.canonicalSummary() << "\n";
    return os.str();
}

namespace {

/**
 * How one validation gets its solver stack. The default value is the
 * reference stack (plain cold Z3), used by the free entry points and
 * by register-allocation validation.
 */
struct StackRequest
{
    smt::SolverStackSpec spec;
    /** Set when the Pipeline's lane roster did not parse: every
     *  function then ends Unsupported with this message. */
    std::string rosterError;
    support::CancellationToken cancel;
    unsigned memoryBudgetMb = 0;
};

/**
 * The language-parametric half of validation, shared by ISel
 * (LLVM x Virtual x86) and register allocation (Virtual x86 x Virtual
 * x86): given the two programs of a pair and its sync points, set up
 * factory and layout, build the stack, run KEQ and map the verdict to
 * an outcome. Every non-thread-safe component is created here, so
 * concurrent invocations share nothing but the optional query cache.
 */
template <class SemA, class SemB, class ProgramA, class ProgramB>
void
checkPair(FunctionReport &report, const llvmir::Module &module,
          const ProgramA &program_a, const ProgramB &program_b,
          const vcgen::VcResult &vc, const PipelineOptions &options,
          const StackRequest &request)
{
    report.syncPointCount = vc.points.points.size();
    report.specTextSize = vc.points.specTextSize();
    if (options.specSizeBudget > 0 &&
        report.specTextSize > options.specSizeBudget) {
        report.outcome = Outcome::OutOfMemory;
        report.detail = "sync-point specification exceeds the parse "
                        "memory budget (" +
                        std::to_string(report.specTextSize) + " chars)";
        return;
    }

    smt::TermFactory factory;
    mem::MemoryLayout layout;
    llvmir::populateLayout(module, layout);
    SemA sem_a(program_a, factory, layout);
    SemB sem_b(program_b, factory, layout);
    if (!request.rosterError.empty())
        throw support::Error("invalid portfolio lane spec: " +
                             request.rosterError);
    smt::SolverStack stack = smt::buildSolverStack(factory, request.spec);
    smt::Solver &solver = *stack.top;
    if (request.memoryBudgetMb > 0)
        solver.setMemoryBudgetMb(request.memoryBudgetMb);

    checker::CheckerConfig checker_config = options.checker;
    if (request.cancel.valid())
        checker_config.cancel = request.cancel;
    sem::IselAcceptability acceptability;
    checker::Checker checker(sem_a, sem_b, acceptability, solver,
                             checker_config);
    const std::string &name = report.function;
    report.verdict = checker.check(name, name, vc.points);

    switch (report.verdict.kind) {
      case checker::VerdictKind::Equivalent:
      case checker::VerdictKind::Refines:
        report.outcome = Outcome::Succeeded;
        break;
      case checker::VerdictKind::Timeout:
        report.outcome = Outcome::Timeout;
        break;
      case checker::VerdictKind::OutOfMemory:
        report.outcome = Outcome::OutOfMemory;
        break;
      case checker::VerdictKind::NotValidated:
        report.outcome = Outcome::Other;
        break;
    }
    report.detail = report.verdict.reason;
    if (!vc.adequate && report.outcome == Outcome::Other) {
        report.detail += " [VC generator warnings: " +
                         std::to_string(vc.warnings.size()) + "]";
    }
}

/**
 * Runs one caller's pair construction (@p build: lowering, VC
 * generation, then checkPair) with the shared bookkeeping: report
 * identity, timing, and support::Error -> Unsupported.
 */
template <class Build>
FunctionReport
validatePair(const llvmir::Function &fn, Build build)
{
    FunctionReport report;
    report.function = fn.name;
    report.llvmInstructions = fn.instructionCount();
    support::Stopwatch watch;
    try {
        build(report);
    } catch (const support::Error &error) {
        report.outcome = Outcome::Unsupported;
        report.detail = error.what();
    }
    report.seconds = watch.seconds();
    return report;
}

/** ISel's half: VC generation for an (LLVM, Virtual x86) pair whose
 *  machine side exists already — from ISel or the fuzz mutator. */
void
checkIselPair(FunctionReport &report, const llvmir::Module &module,
              const llvmir::Function &fn, vx86::MFunction mfn,
              const isel::FunctionHints &hints,
              const PipelineOptions &options, const StackRequest &request)
{
    report.x86Instructions = mfn.instructionCount();
    vcgen::VcResult vc =
        vcgen::generateSyncPoints(fn, mfn, hints, options.vc);
    vx86::MModule mmodule;
    mmodule.functions.push_back(std::move(mfn));
    checkPair<llvmir::SymbolicSemantics, vx86::SymbolicSemantics>(
        report, module, module, mmodule, vc, options, request);
}

/** Lower with ISel (unsupported constructs surface here, before any
 *  pair exists), then validate the pair. */
FunctionReport
validateFunctionImpl(const llvmir::Module &module,
                     const llvmir::Function &fn,
                     const PipelineOptions &options,
                     const StackRequest &request)
{
    return validatePair(fn, [&](FunctionReport &report) {
        isel::FunctionHints hints;
        vx86::MFunction mfn =
            isel::lowerFunction(module, fn, options.isel, hints);
        checkIselPair(report, module, fn, std::move(mfn), hints, options,
                      request);
    });
}

std::vector<const llvmir::Function *>
definedFunctions(const llvmir::Module &module)
{
    std::vector<const llvmir::Function *> functions;
    for (const llvmir::Function &fn : module.functions) {
        if (!fn.isDeclaration())
            functions.push_back(&fn);
    }
    return functions;
}

} // namespace

FunctionReport
validateFunction(const llvmir::Module &module, const llvmir::Function &fn,
                 const PipelineOptions &options)
{
    return validateFunctionImpl(module, fn, options, {});
}

FunctionReport
validateFunctionPair(const llvmir::Module &module,
                     const llvmir::Function &fn, vx86::MFunction mfn,
                     const isel::FunctionHints &hints,
                     const PipelineOptions &options)
{
    return validatePair(fn, [&](FunctionReport &report) {
        checkIselPair(report, module, fn, std::move(mfn), hints, options,
                      {});
    });
}

FunctionReport
validateRegAlloc(const llvmir::Module &module, const llvmir::Function &fn,
                 const PipelineOptions &options)
{
    return validatePair(fn, [&](FunctionReport &report) {
        isel::FunctionHints hints;
        vx86::MFunction pre =
            isel::lowerFunction(module, fn, options.isel, hints);
        regalloc::AllocationResult allocation =
            regalloc::allocateRegisters(pre);
        report.x86Instructions = allocation.fn.instructionCount();
        vcgen::VcResult vc =
            vcgen::generateRegAllocSyncPoints(pre, allocation);
        vx86::MModule pre_module;
        pre_module.functions.push_back(std::move(pre));
        vx86::MModule post_module;
        post_module.functions.push_back(std::move(allocation.fn));
        checkPair<vx86::SymbolicSemantics, vx86::SymbolicSemantics>(
            report, module, pre_module, post_module, vc, options, {});
    });
}

// --- Pipeline ------------------------------------------------------------

namespace {

/** The configured verdict store: entry cap + byte budget (LRU). */
std::shared_ptr<smt::QueryCache>
makeQueryCache(const ExecutionOptions &exec)
{
    return std::make_shared<smt::QueryCache>(
        exec.cacheShardCapacity, exec.cacheMemoryMb << 20);
}

} // namespace

Pipeline::Pipeline(PipelineOptions options, ExecutionOptions exec)
    : options_(std::move(options)), exec_(std::move(exec))
{
    if (exec_.externalCache != nullptr)
        cache_ = exec_.externalCache;
    else if (exec_.solverCache && exec_.sharedCache)
        cache_ = makeQueryCache(exec_);

    // Portfolio lane roster: an explicit spec wins, then the lane
    // count; no lanes keeps the pre-portfolio stack byte-identical.
    // Sandbox workers receive the spec's entries verbatim.
    if (!exec_.portfolioLaneSpec.empty()) {
        if (smt::parsePortfolioLanes(exec_.portfolioLaneSpec, spec_.lanes,
                                     rosterError_))
            spec_.laneEntries =
                support::split(exec_.portfolioLaneSpec, ',');
    } else if (exec_.portfolioLanes > 1) {
        spec_.lanes = smt::defaultPortfolioLanes(exec_.portfolioLanes);
        for (const smt::LaneConfig &lane : spec_.lanes)
            spec_.laneEntries.push_back(lane.name);
    }
    spec_.incremental = exec_.incrementalSolver;
    spec_.caching.simplify = exec_.simplifyQueries;
    spec_.caching.slice = exec_.sliceQueries;
    spec_.caching.auditRate = exec_.auditRate;
    spec_.caching.auditSeed = exec_.auditSeed;
    spec_.caching.onAuditMismatch = exec_.onAuditMismatch;
    spec_.guard.emplace();
    spec_.guard->retries = exec_.solverRetries;
    spec_.guard->cancel = exec_.cancel;
}

FunctionReport
Pipeline::validateFunction(const llvmir::Module &module,
                           const llvmir::Function &fn,
                           unsigned deadlineMsCap)
{
    StackRequest request{.spec = spec_,
                         .rosterError = rosterError_,
                         .cancel = exec_.cancel,
                         .memoryBudgetMb = exec_.solverMemoryMb};
    smt::SolverStackSpec &spec = request.spec;
    spec.sandbox = sandboxSupervisor(1);
    // Caching without a shared cache: this function gets its own.
    spec.cache = cache_ == nullptr && exec_.solverCache
                     ? makeQueryCache(exec_)
                     : cache_;
    // Derived from the function name, not the scheduling order, so
    // serial and parallel chaos runs draw identical fault schedules.
    spec.faults = exec_.faults.derive(support::fnv1a64(fn.name));
    // The tighter of the configured deadline and the caller's cap (the
    // daemon passes each job's *remaining* wall budget here).
    spec.guard->deadlineMs = exec_.deadlineMs;
    if (deadlineMsCap > 0 &&
        (exec_.deadlineMs == 0 || deadlineMsCap < exec_.deadlineMs))
        spec.guard->deadlineMs = deadlineMsCap;
    return validateFunctionImpl(module, fn, options_, request);
}

smt::WorkerSupervisor *
Pipeline::sandboxSupervisor(unsigned workers)
{
    if (!exec_.sandbox || sandboxDegraded_)
        return nullptr;
    if (supervisor_ != nullptr && supervisor_->started())
        return supervisor_.get();

    // Each concurrent function validation leases one worker per
    // portfolio lane (WorkerSupervisor::solve leases them atomically),
    // so the default pool is jobs x lanes; an undersized explicit pool still
    // works — the race just degrades to fewer lanes.
    unsigned lanes = std::max<unsigned>(spec_.lanes.size(), 1);
    smt::SandboxOptions sandbox;
    sandbox.workerPath = exec_.workerPath;
    sandbox.workers =
        exec_.sandboxWorkers > 0
            ? exec_.sandboxWorkers
            : std::max<unsigned>(workers, 1) * lanes;
    sandbox.workerMemoryMb = exec_.workerMemoryMb;
    sandbox.memoryBudgetMb = exec_.solverMemoryMb;
    sandbox.chaosKillRate = exec_.sandboxChaosKillRate;
    sandbox.chaosSeed = exec_.sandboxChaosSeed;
    sandbox.cancel = exec_.cancel;
    supervisor_ = std::make_unique<smt::WorkerSupervisor>(sandbox);
    std::string error;
    if (!supervisor_->start(error)) {
        // Graceful degradation: a missing or broken worker binary must
        // not fail the run — warn once and keep the in-process stack.
        std::fprintf(stderr,
                     "keq: solver sandbox disabled: %s "
                     "(falling back to in-process solving)\n",
                     error.c_str());
        supervisor_.reset();
        sandboxDegraded_ = true;
        return nullptr;
    }
    return supervisor_.get();
}

ModuleReport
Pipeline::run(const llvmir::Module &module)
{
    return runWithJobs(module, 1);
}

ModuleReport
Pipeline::runParallel(const llvmir::Module &module)
{
    return runWithJobs(module, exec_.jobs);
}

ModuleReport
Pipeline::runParallel(const llvmir::Module &module, unsigned jobs)
{
    return runWithJobs(module, jobs);
}

ModuleReport
Pipeline::runWithJobs(const llvmir::Module &module, unsigned jobs)
{
    std::vector<const llvmir::Function *> functions =
        definedFunctions(module);

    ModuleReport report;
    report.functions.resize(functions.size());

    // Crash-safe checkpointing: restore decided verdicts up front, then
    // journal each fresh verdict as it lands. The decided map is frozen
    // before the parallel phase, so workers read it without locking.
    std::unordered_map<std::string, FunctionReport> decided;
    std::unique_ptr<CheckpointJournal> journal;
    if (!exec_.checkpointPath.empty()) {
        std::string fingerprint = moduleFingerprint(module);
        bool meta_present = false;
        if (exec_.resume) {
            CheckpointJournal::Load loaded = CheckpointJournal::load(
                exec_.checkpointPath, fingerprint);
            if (!loaded.ok)
                throw support::Error(loaded.error);
            decided = std::move(loaded.decided);
            meta_present = loaded.hasMeta;
            report.droppedCheckpointRecords = loaded.truncatedRecords;
        } else {
            // Fresh campaign: a stale checkpoint at this path would
            // poison a later --resume, so drop it now.
            std::remove(exec_.checkpointPath.c_str());
        }
        journal = std::make_unique<CheckpointJournal>(
            exec_.checkpointPath, fingerprint, meta_present,
            exec_.checkpointFsync);
    }

    smt::CacheStats cache_before;
    if (cache_ != nullptr)
        cache_before = cache_->stats();

    // Validation is CPU-bound, so oversubscribing cores only adds
    // contention (Z3's allocator locks, context switches): clamp the
    // worker count to the host parallelism and the amount of work.
    // jobs == 0 means "one worker per core".
    unsigned workers = jobs == 0 ? support::ThreadPool::hardwareThreads()
                                 : jobs;
    workers = std::min<unsigned>(
        {workers, support::ThreadPool::hardwareThreads(),
         static_cast<unsigned>(
             std::max<size_t>(functions.size(), 1))});

    // Start the sandbox pool (sized for the workers) before fanning out,
    // so the degradation warning prints once, not once per task.
    sandboxSupervisor(workers);

    auto validate_one = [&](size_t index) {
        const llvmir::Function &fn = *functions[index];
        auto hit = decided.find(fn.name);
        if (hit != decided.end()) {
            report.functions[index] = hit->second;
            return;
        }
        if (exec_.cancel.cancelled()) {
            // Don't even start ISel/VC generation: produce the same
            // cancelled verdict the checker would, just sooner. Never
            // journaled, so a resumed run recomputes it.
            FunctionReport &out = report.functions[index];
            out.function = fn.name;
            out.llvmInstructions = fn.instructionCount();
            out.outcome = Outcome::Timeout;
            out.verdict.kind = checker::VerdictKind::Timeout;
            out.verdict.failure = FailureKind::Cancelled;
            out.verdict.reason = "cancelled";
            out.detail = "cancelled";
            return;
        }
        report.functions[index] = validateFunction(module, fn);
        if (journal != nullptr)
            journal->record(report.functions[index]);
    };

    if (workers <= 1) {
        for (size_t i = 0; i < functions.size(); ++i)
            validate_one(i);
    } else {
        support::ThreadPool pool(workers);
        support::parallelFor(pool, functions.size(), validate_one);
    }

    // Merge in deterministic input order (not completion order).
    for (const FunctionReport &fn : report.functions)
        report.solverStats += fn.verdict.stats.solverStats;
    report.resumedFunctions = 0;
    for (const llvmir::Function *fn : functions) {
        if (decided.count(fn->name) != 0)
            ++report.resumedFunctions;
    }
    if (cache_ != nullptr) {
        smt::CacheStats after = cache_->stats();
        report.cacheStats.hits = after.hits - cache_before.hits;
        report.cacheStats.misses = after.misses - cache_before.misses;
        report.cacheStats.modelHits =
            after.modelHits - cache_before.modelHits;
        report.cacheStats.evictions =
            after.evictions - cache_before.evictions;
        report.cacheStats.entries = after.entries;
    } else {
        report.cacheStats.hits = report.solverStats.cacheHits;
        report.cacheStats.misses = report.solverStats.cacheMisses;
        report.cacheStats.evictions = report.solverStats.cacheEvictions;
    }
    return report;
}

ModuleReport
validateModule(const llvmir::Module &module,
               const PipelineOptions &options)
{
    ModuleReport report;
    for (const llvmir::Function &fn : module.functions) {
        if (fn.isDeclaration())
            continue;
        report.functions.push_back(
            validateFunction(module, fn, options));
    }
    return report;
}

ModuleReport
validateSource(const std::string &llvm_source,
               const PipelineOptions &options)
{
    llvmir::Module module = llvmir::parseModule(llvm_source);
    llvmir::verifyModuleOrThrow(module);
    return validateModule(module, options);
}

} // namespace keq::driver
