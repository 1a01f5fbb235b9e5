/**
 * @file
 * keqbench — one command that measures keq end to end and layer by
 * layer, and checks every verdict against a known answer.
 *
 *   keqbench --workload keqd-cold|keqd-warm --seed N --seconds S
 *            --trace 0|1 [--work-dir DIR]
 *
 * A request is one 8-function module of the Figure 6 corpus
 * (driver::generateCorpusSource), sent to an in-process keqd; each pass
 * sends the corpus's first 192 functions as 24 modules in a seed-drawn
 * order, with a known-answer probe after every 6 modules: an IselBug
 * exemplar of fuzz::mutationCatalog() lowered clean (must validate) or
 * buggy (its exemplar function must be rejected). Callers run a closed
 * loop for --seconds. With --trace 0 the last stdout line carries the
 * end-to-end metrics; with --trace 1 the run repeats the same requests
 * with spans recorded around every call into keq and reports the
 * per-layer metrics (see README.md for the span tree and the metric ->
 * layer map). keq is driven only through its public entry points.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <z3.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/fuzz/mutation_catalog.h"
#include "src/isel/isel.h"
#include "src/llvmir/parser.h"
#include "src/llvmir/verifier.h"
#include "src/service/client.h"
#include "src/service/job_options.h"
#include "src/service/server.h"
#include "src/support/rng.h"
#include "src/vcgen/vcgen.h"
#include "stats.h"

namespace {

using namespace keq;
using keqbench::PassSample;
using keqbench::Percentile;
using keqbench::RequestTally;
using keqbench::Span;
using keqbench::SpanRecorder;

/** The Figure 6 corpus seed (E1, E11, E15). */
constexpr uint64_t kCorpusSeed = 0x6cc2006;
/**
 * Functions of the Figure 6 corpus every pass covers. Past the first
 * 256, @fn260 takes 2.1 s and @fn315 17.7 s on their own (see
 * README.md, "Requests and the corpus").
 */
constexpr size_t kUniverseFunctions = 192;
constexpr size_t kFunctionsPerModule = 8;
constexpr size_t kModulesPerPass = kUniverseFunctions / kFunctionsPerModule;
/**
 * One known-answer probe follows every kModulesPerProbe modules, so a
 * pass carries both IselBug exemplars of the catalogue, clean and buggy.
 */
constexpr size_t kModulesPerProbe = 6;
constexpr size_t kProbesPerPass = kModulesPerPass / kModulesPerProbe;
constexpr size_t kPassRequests = kModulesPerPass + kProbesPerPass;
/**
 * The daemon's parsed-module cache holds 32 module texts and is emptied
 * when it fills (kMaxCachedModules in src/service/server.cc). A pass has
 * to fit in it, or keqd-warm cycling through the pass would reparse
 * every module (see README.md, "Workloads").
 */
constexpr size_t kDaemonModuleCache = 32;
static_assert(kModulesPerPass + kProbesPerPass <= kDaemonModuleCache);
/** Worker threads of the daemon pool and of the replay (see README.md). */
constexpr unsigned kJobs = 2;
/** DaemonClient connections, one caller thread each. */
constexpr size_t kCallers = 2;
/**
 * Set-ups per untraced run; setup_s is their median. A run sets up at
 * least kSetupRepeats times and until kSetupSeconds have passed,
 * tear-downs included: a keqd-cold set-up takes milliseconds, and the
 * median of a few such short timings moves with every hiccup of the
 * host. (Stopping a daemon takes about 0.2 s, so the budget counts it.)
 */
constexpr size_t kSetupRepeats = 7;
constexpr double kSetupSeconds = 4.0;

// --- Command line ---------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build";
    std::string gitCommit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "keqbench: " << why
              << "\nusage: keqbench --workload keqd-cold|keqd-warm"
                 " --seed N --seconds S --trace 0|1 [--work-dir DIR]"
                 " [--git-commit SHA] [--source-digest HEX]\n";
    std::exit(2);
}

uint64_t
parseNumber(const std::string &flag, const std::string &text)
{
    try {
        size_t used = 0;
        unsigned long long value = std::stoull(text, &used, 0);
        if (used == text.size())
            return value;
    } catch (const std::exception &) {
    }
    usage("bad value for " + flag + ": '" + text + "'");
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = parseNumber(flag, value);
        else if (flag == "--seconds")
            options.seconds = static_cast<unsigned>(parseNumber(flag, value));
        else if (flag == "--trace")
            options.trace = parseNumber(flag, value) != 0;
        else if (flag == "--work-dir")
            options.workDir = value;
        else if (flag == "--git-commit")
            options.gitCommit = value;
        else if (flag == "--source-digest")
            options.sourceDigest = value;
        else
            usage("unknown flag " + flag);
    }
    if (options.workload != "keqd-cold" && options.workload != "keqd-warm")
        usage("unknown workload '" + options.workload + "'");
    if (options.seconds == 0)
        usage("--seconds must be positive");
    return options;
}

// --- Host and build metadata -----------------------------------------------

std::map<std::string, std::string>
metadata(const Options &options)
{
    unsigned major = 0, minor = 0, build = 0, revision = 0;
    Z3_get_version(&major, &minor, &build, &revision);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const bool sanitizer = true;
#else
    const bool sanitizer = false;
#endif
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    std::string buildType = KEQBENCH_BUILD_TYPE;
    bool flagged = sanitizer || !optimized || buildType == "Debug";
    return {
        {"workload", options.workload},
        {"seed", std::to_string(options.seed)},
        {"seconds", std::to_string(options.seconds)},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"build_type", buildType},
        {"compiler", KEQBENCH_COMPILER},
        {"z3_version", std::to_string(major) + "." + std::to_string(minor) +
                           "." + std::to_string(build)},
        {"git_commit", options.gitCommit},
        {"source_digest", options.sourceDigest},
        {"sanitizer", sanitizer ? "yes" : "no"},
        {"not_for_timing", flagged ? "yes" : "no"},
    };
}

// --- Request stream ---------------------------------------------------------

/** One translation unit submitted as a unit, with its known answer. */
struct Request
{
    std::string label;
    std::string text;
    /** Defined functions in module order (the verdicts' order). */
    std::vector<std::string> functions;
    driver::PipelineOptions options;
    /** The function expected to be rejected; empty = all must succeed. */
    std::string rejected;
};

/**
 * The Figure 6 corpus (driver::generateCorpusSource, seed 0x6cc2006,
 * default options; the corpus of E1, E11 and E15), cut into its
 * prelude and one text chunk per function.
 */
struct Universe
{
    std::string prelude;
    std::vector<std::string> chunks;
    std::vector<std::string> names;

    Universe()
    {
        driver::CorpusOptions corpus;
        corpus.seed = kCorpusSeed;
        corpus.functionCount = kUniverseFunctions;
        std::string text = driver::generateCorpusSource(corpus);
        size_t first = text.find("\ndefine ");
        if (first == std::string::npos)
            throw std::runtime_error("corpus has no functions");
        prelude = text.substr(0, first + 1);
        for (size_t at = first + 1; at < text.size();) {
            size_t next = text.find("\ndefine ", at);
            size_t end = next == std::string::npos ? text.size() : next + 1;
            chunks.push_back(text.substr(at, end - at));
            at = end;
        }
        for (const llvmir::Function &fn : llvmir::parseModule(text).functions)
            if (!fn.isDeclaration())
                names.push_back(fn.name);
        if (names.size() != kUniverseFunctions ||
            chunks.size() != kUniverseFunctions)
            throw std::runtime_error("corpus split mismatch");
    }
};

std::vector<const fuzz::Mutation *>
iselBugProbes()
{
    std::vector<const fuzz::Mutation *> probes;
    for (const fuzz::Mutation &m : fuzz::mutationCatalog())
        if (m.kind == fuzz::MutationKind::IselBug)
            probes.push_back(&m);
    return probes;
}

/**
 * Request @p slot of pass @p pass. Slot 6 of every 7 is a known-answer
 * probe (the IselBug exemplars, clean then buggy, in catalogue order);
 * the others are the universe's modules (module m = corpus functions
 * 8m .. 8m+7, as the generator lays them out), in an order drawn afresh
 * for every pass from the seed. Module contents do not depend on the
 * seed: which heavy functions share a module decides the latency tail,
 * and a seed-drawn grouping made latency_p90_ms swing by a third
 * between seeds.
 */
Request
makeRequest(const Universe &universe, uint64_t seed, size_t pass,
            size_t slot)
{
    Request request;
    if (slot % (kModulesPerProbe + 1) == kModulesPerProbe) {
        static const std::vector<const fuzz::Mutation *> probes =
            iselBugProbes();
        size_t which = (slot / (kModulesPerProbe + 1)) % (2 * probes.size());
        const fuzz::Mutation &m = *probes[which / 2];
        bool buggy = which % 2 == 1;
        request.label = std::string("probe ") + m.id +
                        (buggy ? " buggy" : " clean");
        request.text = m.exemplar;
        request.options.isel = buggy ? m.buggyOptions : m.cleanOptions;
        if (buggy)
            request.rejected = m.exemplarFunction;
        for (const llvmir::Function &fn :
             llvmir::parseModule(request.text).functions)
            if (!fn.isDeclaration())
                request.functions.push_back(fn.name);
        return request;
    }
    std::vector<size_t> order(kModulesPerPass);
    std::iota(order.begin(), order.end(), size_t{0});
    support::Rng::stream(seed, pass).shuffle(order);
    size_t module = order[slot - slot / (kModulesPerProbe + 1)];
    request.label = "pass " + std::to_string(pass) + " module " +
                    std::to_string(module);
    request.text = universe.prelude;
    for (size_t k = 0; k < kFunctionsPerModule; ++k) {
        size_t fn = module * kFunctionsPerModule + k;
        request.text += universe.chunks[fn];
        request.functions.push_back(universe.names[fn]);
    }
    return request;
}

/**
 * The request sequence of one run: pass after pass over the universe.
 * Pass 0 is made during set-up; later passes on first use. A cycling
 * stream (keqd-warm) repeats pass 0.
 */
class Stream
{
  public:
    Stream(uint64_t seed, bool cycle) : seed_(seed), cycle_(cycle)
    {
        for (size_t i = 0; i < kPassRequests; ++i)
            requests_.push_back(makeRequest(universe_, seed_, 0, i));
    }

    const Request &
    at(size_t index)
    {
        if (cycle_)
            return requests_[index % kPassRequests];
        std::lock_guard<std::mutex> lock(mutex_);
        while (requests_.size() <= index) {
            size_t next = requests_.size();
            requests_.push_back(makeRequest(universe_, seed_,
                                            next / kPassRequests,
                                            next % kPassRequests));
        }
        return requests_[index]; // deque: references survive growth
    }

  private:
    Universe universe_;
    uint64_t seed_;
    bool cycle_;
    std::mutex mutex_;
    std::deque<Request> requests_;
};

// --- Known answers ------------------------------------------------------------

/** Empty when @p reports match @p request's known answer. */
std::string
checkAnswer(const Request &request,
            const std::vector<driver::FunctionReport> &reports)
{
    if (reports.size() != request.functions.size())
        return request.label + ": " + std::to_string(reports.size()) +
               " verdicts for " + std::to_string(request.functions.size()) +
               " functions";
    for (size_t i = 0; i < reports.size(); ++i) {
        const driver::FunctionReport &r = reports[i];
        if (r.function != request.functions[i])
            return request.label + ": verdict for " + r.function +
                   " where " + request.functions[i] + " was expected";
        bool expectReject = r.function == request.rejected;
        bool ok = expectReject
                      ? r.outcome == driver::Outcome::Other &&
                            r.verdict.kind == checker::VerdictKind::NotValidated
                      : r.outcome == driver::Outcome::Succeeded;
        if (!ok)
            return request.label + ": " + r.function + " expected " +
                   (expectReject ? "rejected" : "Succeeded") + ", got " +
                   driver::outcomeName(r.outcome) + " (" + r.detail + ")";
    }
    return {};
}

std::string
canonical(const std::vector<driver::FunctionReport> &reports)
{
    driver::ModuleReport module;
    module.functions = reports;
    return module.canonicalSummary();
}

/**
 * Runs @p body(0 .. n-1) on n threads (0 on the calling one) and joins
 * them; an exception escaping any of them is rethrown after the join.
 */
template <typename Body>
void
onThreads(size_t n, Body body)
{
    std::vector<std::exception_ptr> errors(n);
    auto guarded = [&](size_t i) {
        try {
            body(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (size_t i = 1; i < n; ++i)
        threads.emplace_back(guarded, i);
    guarded(0);
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

// --- Tracing helpers ------------------------------------------------------------

unsigned
threadTag()
{
    static std::atomic<unsigned> next{1};
    thread_local unsigned tag = next.fetch_add(1);
    return tag;
}

Span
makeSpan(const char *name, uint64_t parent, uint64_t request, double start,
         double end)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.start = start;
    span.end = end;
    span.thread = threadTag();
    return span;
}

void
addSolverCounts(Span &span, const smt::SolverStats &s)
{
    span.counts["queries"] = static_cast<double>(s.queries);
    span.counts["rewrite_resolved"] = static_cast<double>(s.rewriteResolved);
    span.counts["slice_resolved"] = static_cast<double>(s.sliceResolved);
    span.counts["cache_hits"] = static_cast<double>(s.cacheHits);
    span.counts["cache_misses"] = static_cast<double>(s.cacheMisses);
    span.counts["backend_checks"] =
        static_cast<double>(s.incrementalSolves + s.coldSolves);
    span.counts["backend_s"] = s.totalSeconds;
}

/**
 * Validates @p request through @p pipeline with spans:
 *   request -> llvmir.parse, driver.function* -> keq.check -> smt.backend
 * Functions run as Pipeline::validateFunction calls on the benchmark's
 * own pool of kJobs threads. keq.check and smt.backend carry the
 * durations CheckStats reports and are placed at the end of their
 * parent: only their lengths are measured, not their position.
 */
std::vector<driver::FunctionReport>
tracedPipelineRequest(driver::Pipeline &pipeline, const Request &request,
                      uint64_t requestId, SpanRecorder &trace)
{
    uint64_t root = trace.newId();
    double start = trace.now();
    llvmir::Module module = llvmir::parseModule(request.text);
    llvmir::verifyModuleOrThrow(module);
    trace.record(makeSpan("llvmir.parse", root, requestId, start, trace.now()));

    std::vector<const llvmir::Function *> functions;
    for (const llvmir::Function &fn : module.functions)
        if (!fn.isDeclaration())
            functions.push_back(&fn);
    uint64_t modelHitsBefore =
        pipeline.cache() ? pipeline.cache()->stats().modelHits : 0;

    std::vector<driver::FunctionReport> reports(functions.size());
    std::atomic<size_t> next{0};
    auto worker = [&](size_t) {
        for (size_t i; (i = next.fetch_add(1)) < functions.size();) {
            double t0 = trace.now();
            reports[i] = pipeline.validateFunction(module, *functions[i]);
            double t1 = trace.now();
            const checker::CheckStats &stats = reports[i].verdict.stats;
            Span fn = makeSpan("driver.function", root, requestId, t0, t1);
            fn.id = trace.newId();
            double checkStart = std::max(t0, t1 - stats.totalSeconds);
            Span check =
                makeSpan("keq.check", fn.id, requestId, checkStart, t1);
            check.id = trace.newId();
            check.counts["symbolic_steps"] =
                static_cast<double>(stats.symbolicSteps);
            check.counts["pairs_examined"] =
                static_cast<double>(stats.pairsExamined);
            check.counts["points_checked"] =
                static_cast<double>(stats.pointsChecked);
            Span backend = makeSpan(
                "smt.backend", check.id, requestId,
                std::max(checkStart, t1 - stats.solverStats.totalSeconds), t1);
            trace.record(std::move(fn));
            trace.record(std::move(check));
            trace.record(std::move(backend));
        }
    };
    onThreads(std::min<size_t>(kJobs, functions.size()), worker);

    Span span = makeSpan("request", 0, requestId, start, trace.now());
    span.id = root;
    span.counts["functions"] = static_cast<double>(functions.size());
    span.counts["model_hits"] = static_cast<double>(
        (pipeline.cache() ? pipeline.cache()->stats().modelHits : 0) -
        modelHitsBefore);
    trace.record(std::move(span));
    return reports;
}

/**
 * Timed replays of ISel and VC generation on the request's functions
 * (the pipeline runs both internally without exposing their cost):
 *   layers -> isel.lower, vcgen.sync   (one pair per function)
 */
void
traceLayers(const Request &request, uint64_t requestId, SpanRecorder &trace)
{
    llvmir::Module module = llvmir::parseModule(request.text);
    uint64_t root = trace.newId();
    double start = trace.now();
    for (const llvmir::Function &fn : module.functions) {
        if (fn.isDeclaration())
            continue;
        double t0 = trace.now();
        isel::FunctionHints hints;
        vx86::MFunction mfn = isel::lowerFunction(module, fn,
                                                  request.options.isel, hints);
        double t1 = trace.now();
        vcgen::VcResult vc =
            vcgen::generateSyncPoints(fn, mfn, hints, request.options.vc);
        double t2 = trace.now();
        Span lower = makeSpan("isel.lower", root, requestId, t0, t1);
        lower.counts["mir_instructions"] =
            static_cast<double>(mfn.instructionCount());
        Span sync = makeSpan("vcgen.sync", root, requestId, t1, t2);
        sync.counts["sync_points"] = static_cast<double>(vc.points.points.size());
        trace.record(std::move(lower));
        trace.record(std::move(sync));
    }
    Span span = makeSpan("layers", 0, requestId, start, trace.now());
    span.id = root;
    trace.record(std::move(span));
}

// --- Workloads -----------------------------------------------------------------

/** Result of one request as a caller saw it. */
struct Served
{
    std::vector<driver::FunctionReport> reports;
    std::string error; ///< transport/parse failure; reports then invalid
};

/** Daemon counters summed over every daemon a run started. */
struct ServiceCounters
{
    uint64_t jobsCompleted = 0;
    uint64_t busyRejects = 0;
    uint64_t dedupHits = 0;
    uint64_t storeEntries = 0;
    uint64_t storeBytes = 0;
};

/**
 * An in-process keqd (service::Server, jobs = 2, verdict journal in a
 * private directory) serving two DaemonClient connections over a Unix
 * socket. keqd-cold restarts it with an empty journal after every pass,
 * so no pass sees verdicts of an earlier one; keqd-warm primes it with
 * one untimed pass and then replays that pass.
 */
class Keqd
{
  public:
    Keqd(std::string dir, bool warm, Stream &stream)
        : dir_(std::move(dir)), warm_(warm)
    {
        start();
        if (warm_)
            prime(stream);
    }

    ~Keqd()
    {
        stop();
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
    }

    Keqd(const Keqd &) = delete;
    Keqd &operator=(const Keqd &) = delete;

    /**
     * Serves @p request on caller @p caller; spans go to @p trace under
     * @p requestId (the request's stream index + 1).
     */
    Served
    serve(size_t caller, const Request &request, uint64_t requestId,
          SpanRecorder *trace)
    {
        Served out;
        std::vector<bool> decided;
        double start = trace ? trace->now() : 0.0;
        std::string error;
        if (!clients_[caller]->validateFunctions(
                request.text, request.functions, request.options,
                out.reports, decided, error))
            out.error = request.label + ": " + error;
        if (trace != nullptr) {
            Span span = makeSpan("service.request", 0, requestId, start,
                                 trace->now());
            smt::SolverStats sum;
            for (const driver::FunctionReport &r : out.reports)
                sum += r.verdict.stats.solverStats;
            addSolverCounts(span, sum);
            trace->record(std::move(span));
        }
        return out;
    }

    /**
     * Known-answer check beyond checkAnswer for stream index @p index:
     * on keqd-warm, byte-identity with the priming pass. Empty when fine.
     */
    std::string
    extraCheck(size_t index,
               const std::vector<driver::FunctionReport> &reports) const
    {
        if (warm_ && canonical(reports) != primed_.at(index % kPassRequests))
            return "request " + std::to_string(index) +
                   ": warm verdicts differ from the priming pass";
        return {};
    }

    /** Called between passes, while no request is in flight. */
    void
    endPass()
    {
        if (warm_)
            return;
        stop();
        start();
    }

    /** Daemon counters summed over every daemon started so far. */
    ServiceCounters
    counters() const
    {
        ServiceCounters sum = retired_;
        add(sum, current());
        return sum;
    }

  private:
    void
    start()
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        service::ServerOptions options;
        options.socketPath = dir_ + "/keqd.sock";
        options.jobs = kJobs;
        options.verdictJournalPath = dir_ + "/verdicts.journal";
        server_ = std::make_unique<service::Server>(options);
        std::string error;
        if (!server_->start(error))
            throw std::runtime_error("daemon start: " + error);
        for (size_t c = 0; c < kCallers; ++c) {
            service::DaemonClientOptions co;
            co.endpoints = {service::unixEndpoint(options.socketPath)};
            co.clientName = "keqbench-" + std::to_string(c);
            clients_.push_back(std::make_unique<service::DaemonClient>(co));
            if (!clients_.back()->connect(error))
                throw std::runtime_error("daemon connect: " + error);
        }
    }

    void
    stop()
    {
        if (server_ == nullptr)
            return;
        add(retired_, current());
        for (auto &client : clients_)
            client->close();
        clients_.clear();
        server_->stop();
        server_.reset();
    }

    ServiceCounters
    current() const
    {
        ServiceCounters now;
        if (server_ == nullptr)
            return now;
        service::ServerStats stats = server_->stats();
        smt::wire::JobStatusFrame status = server_->statusFrame();
        now.jobsCompleted = stats.completed;
        now.busyRejects = stats.busyRejects;
        now.dedupHits = stats.dedupHits;
        now.storeEntries = status.storeEntries;
        now.storeBytes = status.storeBytes;
        return now;
    }

    static void
    add(ServiceCounters &into, const ServiceCounters &more)
    {
        into.jobsCompleted += more.jobsCompleted;
        into.busyRejects += more.busyRejects;
        into.dedupHits += more.dedupHits;
        into.storeEntries += more.storeEntries;
        into.storeBytes += more.storeBytes;
    }

    /** One untimed pass of the stream through both clients. */
    void
    prime(Stream &stream)
    {
        primed_.assign(kPassRequests, {});
        std::vector<std::string> errors(kCallers);
        std::atomic<size_t> next{0};
        onThreads(kCallers, [&](size_t c) {
            for (size_t i; (i = next.fetch_add(1)) < kPassRequests;) {
                const Request &request = stream.at(i);
                Served served = serve(c, request, i + 1, nullptr);
                std::string why = served.error.empty()
                                      ? checkAnswer(request, served.reports)
                                      : served.error;
                if (!why.empty() && errors[c].empty())
                    errors[c] = "priming: " + why;
                primed_[i] = canonical(served.reports);
            }
        });
        for (const std::string &e : errors)
            if (!e.empty())
                throw std::runtime_error(e);
    }

    std::string dir_;
    bool warm_;
    std::unique_ptr<service::Server> server_;
    std::vector<std::unique_ptr<service::DaemonClient>> clients_;
    std::vector<std::string> primed_;
    ServiceCounters retired_; ///< counters of daemons already stopped
};

// --- Timed phases ------------------------------------------------------------------

struct Phase
{
    RequestTally tally; ///< every request served
    /**
     * Requests of complete passes: every pass serves the same modules,
     * so their latency percentiles do not depend on where in its last,
     * partial pass a run stopped.
     */
    RequestTally completeTally;
    /** Complete passes only; a run's last pass is usually partial. */
    std::vector<PassSample> passes;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    /** Requests served from each pass (a pass's first N slots). */
    std::vector<size_t> perPass;
    std::vector<std::string> failures;

    /** Stream indices served, ascending. */
    std::vector<size_t>
    served() const
    {
        std::vector<size_t> out;
        for (size_t pass = 0; pass < perPass.size(); ++pass)
            for (size_t slot = 0; slot < perPass[pass]; ++slot)
                out.push_back(pass * kPassRequests + slot);
        return out;
    }
};

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/**
 * Runs the closed loop pass by pass: the callers take a pass's requests
 * in slot order, each caller sending its next request when its previous
 * verdicts are in, until @p seconds have passed (untraced) or, when
 * @p repeat is given, exactly the first repeat[p] requests of each pass
 * p (the traced repeat of an untraced phase).
 */
Phase
runPhase(Keqd &keqd, Stream &stream, double seconds,
         const std::vector<size_t> *repeat, SpanRecorder *trace)
{
    Phase phase;
    std::mutex mutex; // guards phase while callers run
    auto begin = std::chrono::steady_clock::now();
    auto deadline = begin + std::chrono::duration<double>(seconds);
    auto expired = [&] {
        return repeat == nullptr && std::chrono::steady_clock::now() >= deadline;
    };
    double cpuBefore = processCpuSeconds();

    for (size_t pass = 0;; ++pass) {
        if (repeat != nullptr ? pass >= repeat->size() : expired())
            break;
        size_t limit = repeat != nullptr ? (*repeat)[pass] : kPassRequests;
        std::atomic<size_t> next{0};
        std::atomic<size_t> taken{0};
        auto passBegin = std::chrono::steady_clock::now();
        double passCpu = processCpuSeconds();
        RequestTally passTally;
        auto loop = [&](size_t c) {
            for (;;) {
                if (expired())
                    break;
                size_t slot = next.fetch_add(1);
                if (slot >= limit)
                    break;
                taken.fetch_add(1);
                size_t index = pass * kPassRequests + slot;
                const Request &request = stream.at(index);
                auto t0 = std::chrono::steady_clock::now();
                Served served = keqd.serve(c, request, index + 1, trace);
                auto t1 = std::chrono::steady_clock::now();
                std::string why = served.error;
                if (why.empty())
                    why = checkAnswer(request, served.reports);
                if (why.empty())
                    why = keqd.extraCheck(index, served.reports);
                std::lock_guard<std::mutex> lock(mutex);
                double latency = std::chrono::duration<double>(t1 - t0).count();
                phase.tally.record(latency, why.empty(),
                                   request.functions.size());
                passTally.record(latency, why.empty(), request.functions.size());
                if (!why.empty())
                    phase.failures.push_back(why);
            }
        };
        onThreads(kCallers, loop);
        phase.perPass.push_back(taken.load());
        if (taken.load() == kPassRequests) {
            phase.passes.push_back(
                {std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - passBegin)
                     .count(),
                 processCpuSeconds() - passCpu, passTally.functions()});
            phase.completeTally.merge(passTally);
            keqd.endPass();
        }
    }

    phase.wallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
    phase.cpuSeconds = processCpuSeconds() - cpuBefore;
    return phase;
}

// --- Results --------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; ///< printed beside the value (sample counts)
};

std::string
percentileNote(const Percentile &p)
{
    return "n=" + std::to_string(p.samples) + ", " + std::to_string(p.beyond) +
           " beyond";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    return keqbench::percentile(std::move(values), 0.5).value;
}

/**
 * functions_per_s and CPU per function of @p phase: medians over its
 * complete passes, or the whole phase when it completed none.
 */
keqbench::PassRates
phaseRates(const Phase &phase)
{
    if (!phase.passes.empty())
        return keqbench::medianPassRates(phase.passes);
    return keqbench::medianPassRates(
        {{phase.wallSeconds, phase.cpuSeconds, phase.tally.functions()}});
}

/** Per-layer metrics from the traced run's spans (see README.md). */
std::vector<Metric>
layerMetrics(const std::vector<Span> &spans, double untracedFps, double tracedFps,
             const ServiceCounters &before, const ServiceCounters &after)
{
    std::vector<double> self = keqbench::selfTimes(spans);
    std::map<std::string, double> total, selfTotal;
    std::map<std::string, std::map<std::string, double>> counts;
    std::vector<double> fnMs, serviceMs;
    std::map<uint64_t, double> requestDur, serviceDur;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        total[s.name] += s.duration();
        selfTotal[s.name] += self[i];
        for (const auto &[key, value] : s.counts)
            counts[s.name][key] += value;
        if (s.name == "driver.function")
            fnMs.push_back(s.duration() * 1e3);
        if (s.name == "request")
            requestDur[s.request] = s.duration();
        if (s.name == "service.request") {
            serviceDur[s.request] = s.duration();
            serviceMs.push_back(s.duration() * 1e3);
        }
    }
    std::vector<double> serviceSelfMs;
    for (const auto &[request, duration] : serviceDur)
        if (requestDur.count(request) != 0)
            serviceSelfMs.push_back((duration - requestDur[request]) * 1e3);

    double functions = std::max(1.0, counts["request"]["functions"]);
    auto perFn = [&](double v) { return v / functions; };
    // smt.* come from the daemon's JobVerdict frames, except model hits,
    // which it does not export: those come from the replay.
    std::map<std::string, double> &smt = counts["service.request"];
    double queries = smt["queries"];
    double noBackend =
        queries > 0 ? 1.0 - smt["cache_misses"] / queries : 1.0;
    Percentile p50 = keqbench::percentile(fnMs, 0.5);
    Percentile p90 = keqbench::percentile(fnMs, 0.9);
    Percentile svc = keqbench::percentile(serviceMs, 0.5);
    Percentile svcSelf = keqbench::percentile(serviceSelfMs, 0.5);
    auto delta = [](uint64_t a, uint64_t b) {
        return static_cast<double>(b) - static_cast<double>(a);
    };

    std::vector<Metric> out = {
        {"llvmir.parse_s", perFn(total["llvmir.parse"]), "s/function", ""},
        {"isel.lower_s", perFn(total["isel.lower"]), "s/function", ""},
        {"isel.mir_instructions", perFn(counts["isel.lower"]["mir_instructions"]),
         "count/function", ""},
        {"vcgen.sync_s", perFn(total["vcgen.sync"]), "s/function", ""},
        {"vcgen.sync_points", perFn(counts["vcgen.sync"]["sync_points"]),
         "count/function", ""},
        {"driver.validate_s", perFn(selfTotal["driver.function"]),
         "s/function", ""},
        {"driver.fn_p50_ms", p50.value, "ms", percentileNote(p50)},
        {"driver.fn_p90_ms", p90.value, "ms", percentileNote(p90)},
        {"keq.check_s", perFn(total["keq.check"]), "s/function", ""},
        {"keq.self_s", perFn(selfTotal["keq.check"]), "s/function", ""},
        {"keq.symbolic_steps", perFn(counts["keq.check"]["symbolic_steps"]),
         "count/function", ""},
        {"keq.pairs_examined", perFn(counts["keq.check"]["pairs_examined"]),
         "count/function", ""},
        {"keq.points_checked", perFn(counts["keq.check"]["points_checked"]),
         "count/function", ""},
        {"smt.backend_s", perFn(smt["backend_s"]), "s/function", ""},
        {"smt.queries", perFn(queries), "count/function", ""},
        {"smt.rewrite_resolved", perFn(smt["rewrite_resolved"]),
         "count/function", ""},
        {"smt.slice_resolved", perFn(smt["slice_resolved"]), "count/function",
         ""},
        {"smt.cache_hits", perFn(smt["cache_hits"]), "count/function", ""},
        {"smt.model_hits", perFn(counts["request"]["model_hits"]),
         "count/function", ""},
        {"smt.cache_misses", perFn(smt["cache_misses"]), "count/function", ""},
        {"smt.backend_checks", perFn(smt["backend_checks"]), "count/function",
         ""},
        {"smt.no_backend_ratio", noBackend, "ratio",
         "queries=" + std::to_string(static_cast<uint64_t>(queries))},
        {"service.request_ms_p50", svc.value, "ms", percentileNote(svc)},
        {"service.self_ms_p50", svcSelf.value, "ms", percentileNote(svcSelf)},
        {"service.jobs_completed",
         delta(before.jobsCompleted, after.jobsCompleted), "count", ""},
        {"service.busy_rejects", delta(before.busyRejects, after.busyRejects),
         "count", ""},
        {"service.dedup_hits", delta(before.dedupHits, after.dedupHits),
         "count", ""},
        {"service.store_entries",
         delta(before.storeEntries, after.storeEntries), "count", ""},
        {"service.store_bytes", delta(before.storeBytes, after.storeBytes),
         "bytes", ""},
        {"trace.overhead_ratio", tracedFps > 0 ? untracedFps / tracedFps : 0.0,
         "ratio", ""},
    };
    return out;
}

/**
 * Prints the human-readable table and, as the last line, the result
 * JSON. @p outcome holds every request the run made, replays included;
 * its failed_ratio is the printed one.
 */
void
printResult(const Options &options, const RequestTally &outcome,
            const std::vector<std::string> &failures,
            const std::vector<Metric> &metrics)
{
    std::map<std::string, std::string> meta = metadata(options);
    std::cout << "keqbench " << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n";
    std::cout << "meta {";
    bool first = true;
    for (const auto &[key, value] : meta) {
        std::cout << (first ? "" : ",") << keqbench::jsonString(key) << ":"
                  << keqbench::jsonString(value);
        first = false;
    }
    std::cout << "}\n";
    if (meta["not_for_timing"] == "yes")
        std::cout << "WARNING: debug or sanitizer build; timings are not "
                     "comparable\n";
    std::cout << "requests attempted=" << outcome.attempted()
              << " failed=" << outcome.failed() << " failed_ratio="
              << keqbench::jsonNumber(outcome.failedRatio())
              << " functions=" << outcome.functions() << "\n";
    for (const Metric &m : metrics) {
        std::printf("  %-24s %16.6f %-14s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
    for (size_t i = 0; i < failures.size() && i < 10; ++i)
        std::cout << "MISMATCH " << failures[i] << "\n";

    std::ostringstream line;
    line << "{\"correct\":" << (outcome.failed() == 0 ? "true" : "false")
         << ",\"attempted\":" << outcome.attempted()
         << ",\"failed\":" << outcome.failed() << ",\"metrics\":{";
    first = true;
    for (const Metric &m : metrics) {
        line << (first ? "" : ",") << keqbench::jsonString(m.name)
             << ":{\"value\":" << keqbench::jsonNumber(m.value)
             << ",\"unit\":" << keqbench::jsonString(m.unit) << "}";
        first = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
}

/** A stream and the daemon serving it (destroyed in that order). */
struct SetUp
{
    std::unique_ptr<Stream> stream;
    std::unique_ptr<Keqd> keqd;
};

SetUp
setUp(const Options &options, int instance)
{
    bool warm = options.workload == "keqd-warm";
    SetUp s;
    s.stream = std::make_unique<Stream>(options.seed, warm);
    std::string dir = options.workDir + "/run/keqd-" +
                      std::to_string(::getpid()) + "-" +
                      std::to_string(instance);
    s.keqd = std::make_unique<Keqd>(dir, warm, *s.stream);
    return s;
}

int
runUntraced(const Options &options)
{
    std::vector<double> setupSeconds;
    SetUp s;
    auto setUpBegin = std::chrono::steady_clock::now();
    while (setupSeconds.size() < kSetupRepeats ||
           std::chrono::steady_clock::now() - setUpBegin <
               std::chrono::duration<double>(kSetupSeconds)) {
        s = SetUp{}; // tear the previous instance down first
        auto t0 = std::chrono::steady_clock::now();
        s = setUp(options, static_cast<int>(setupSeconds.size()));
        setupSeconds.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
    }
    Phase phase =
        runPhase(*s.keqd, *s.stream, options.seconds, nullptr, nullptr);
    s = SetUp{};

    const RequestTally &t = phase.tally;
    const RequestTally &timed =
        phase.completeTally.attempted() > 0 ? phase.completeTally : t;
    Percentile p50 = timed.latencyMs(0.5);
    Percentile p90 = timed.latencyMs(0.9);
    double functions = static_cast<double>(std::max<size_t>(t.functions(), 1));
    keqbench::PassRates rates = phaseRates(phase);
    char overall[128];
    std::snprintf(overall, sizeof overall,
                  "median of %zu passes; whole phase %.3f/s", rates.passes,
                  static_cast<double>(t.functions()) / phase.wallSeconds);
    char overallCpu[96];
    std::snprintf(overallCpu, sizeof overallCpu, "whole phase %.4f ms",
                  phase.cpuSeconds * 1e3 / functions);
    std::vector<Metric> metrics = {
        {"functions_per_s", rates.functionsPerSecond, "1/s", overall},
        {"latency_p50_ms", p50.value, "ms", percentileNote(p50)},
        {"latency_p90_ms", p90.value, "ms", percentileNote(p90)},
        {"cpu_ms_per_function", rates.cpuSecondsPerFunction * 1e3, "ms",
         overallCpu},
        {"peak_rss_mb", peakRssMb(), "MB", ""},
        {"setup_s", median(setupSeconds), "s",
         "median of " + std::to_string(setupSeconds.size())},
    };
    printResult(options, t, phase.failures, metrics);
    return t.failed() == 0 ? 0 : 1;
}

int
runTraced(const Options &options)
{
    // Untraced pass first: its throughput is the overhead baseline, and
    // the requests it served are exactly what the traced pass repeats.
    SetUp s = setUp(options, 0);
    Phase plain =
        runPhase(*s.keqd, *s.stream, options.seconds, nullptr, nullptr);
    s = SetUp{};
    s = setUp(options, 1);

    SpanRecorder trace;
    ServiceCounters before = s.keqd->counters();
    Phase traced = runPhase(*s.keqd, *s.stream, options.seconds,
                            &plain.perPass, &trace);
    ServiceCounters after = s.keqd->counters();
    s.keqd.reset(); // replays below run without a live daemon

    // The daemon's own layers are invisible from the client, so the same
    // requests are replayed through in-process Pipelines that have seen
    // what the daemon had seen: one long-lived Pipeline per job-options
    // key (the daemon's pool), started afresh with each keqd-cold pass
    // and primed with the pass for keqd-warm. Every replay is a request
    // of its own: it counts as attempted, and a wrong verdict or an
    // exception counts it as failed.
    RequestTally replays;
    std::vector<std::string> replayFailures;
    auto replay = [&](const Request &r, auto &&body) {
        double t0 = trace.now();
        std::string why;
        try {
            why = body();
        } catch (const std::exception &e) {
            why = e.what();
        }
        replays.record(trace.now() - t0, why.empty(), r.functions.size());
        if (!why.empty())
            replayFailures.push_back("replay: " + r.label + ": " + why);
    };
    std::map<std::string, std::unique_ptr<driver::Pipeline>> pipelines;
    auto pipelineFor = [&](const Request &r) -> driver::Pipeline & {
        std::string key =
            service::jobOptionsKey(service::encodeJobOptions(r.options));
        auto &slot = pipelines[key];
        if (!slot)
            slot = std::make_unique<driver::Pipeline>(r.options);
        return *slot;
    };
    bool warm = options.workload == "keqd-warm";
    if (warm)
        for (size_t i = 0; i < kPassRequests; ++i) {
            const Request &r = s.stream->at(i);
            replay(r, [&] {
                return checkAnswer(
                    r, pipelineFor(r)
                           .runParallel(llvmir::parseModule(r.text), kJobs)
                           .functions);
            });
        }
    size_t pass = 0;
    for (size_t index : traced.served()) {
        if (!warm && index / kPassRequests != pass) {
            pipelines.clear();
            pass = index / kPassRequests;
        }
        const Request &r = s.stream->at(index);
        replay(r, [&] {
            std::string why = checkAnswer(
                r, tracedPipelineRequest(pipelineFor(r), r, index + 1, trace));
            traceLayers(r, index + 1, trace);
            return why;
        });
    }
    s = SetUp{};

    std::vector<Span> spans = trace.spans();
    std::vector<Metric> metrics =
        layerMetrics(spans, phaseRates(plain).functionsPerSecond,
                     phaseRates(traced).functionsPerSecond, before, after);

    std::string traceDir = options.workDir + "/traces";
    std::filesystem::create_directories(traceDir);
    std::string tracePath = traceDir + "/" + options.workload + "-seed" +
                            std::to_string(options.seed) + ".trace.json";
    std::ofstream(tracePath) << keqbench::traceEventJson(spans,
                                                         metadata(options));
    std::cout << "trace " << tracePath << " (" << spans.size() << " spans)\n";

    RequestTally outcome = plain.tally;
    outcome.merge(traced.tally);
    outcome.merge(replays);
    std::vector<std::string> failures = plain.failures;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    failures.insert(failures.end(), replayFailures.begin(),
                    replayFailures.end());
    printResult(options, outcome, failures, metrics);
    return outcome.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    try {
        return options.trace ? runTraced(options) : runUntraced(options);
    } catch (const std::exception &e) {
        std::cerr << "keqbench: " << e.what() << "\n";
        return 1;
    }
}
