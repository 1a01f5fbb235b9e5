#include "src/smt/sandbox.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include <poll.h>

#include "src/smt/term_factory.h"
#include "src/support/rng.h"

namespace keq::smt {

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kPumpTickMs = 10;       ///< reply pump poll tick
constexpr unsigned kHandshakeMs = 10000;   ///< Ready deadline
constexpr unsigned kReapGraceMs = 500;     ///< voluntary-exit window
constexpr unsigned kMinBackoffMs = 25;

unsigned
elapsedMs(Clock::time_point since)
{
    return static_cast<unsigned>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

} // namespace

std::string
discoverWorkerBinary(const std::string &explicitPath)
{
    if (!explicitPath.empty()) {
        return support::isExecutableFile(explicitPath) ? explicitPath
                                                       : std::string();
    }
    if (const char *env = std::getenv("KEQ_SOLVER_WORKER")) {
        if (support::isExecutableFile(env))
            return env;
    }
    std::string dir = support::currentExecutableDir();
    if (dir.empty())
        return {};
    for (const char *relative :
         {"/keq-solver-worker", "/../tools/keq-solver-worker"}) {
        std::string candidate = dir + relative;
        if (support::isExecutableFile(candidate))
            return candidate;
    }
    return {};
}

FailureKind
classifyWorkerDeath(const support::ExitStatus &status, uint64_t lastRssKb,
                    unsigned workerMemoryMb)
{
    if (status.exited && status.exitCode == kWorkerOomExitCode)
        return FailureKind::WorkerOom;
    if (status.signaled && workerMemoryMb > 0) {
        // The kernel reports an RLIMIT_AS breach as a plain signal
        // (SIGSEGV from a failed stack/heap grow, or the OOM killer's
        // SIGKILL); attribute the death to the cap when the last
        // heartbeat put the worker within 80% of it.
        uint64_t capKb = uint64_t(workerMemoryMb) * 1024;
        if (lastRssKb >= capKb - capKb / 5)
            return FailureKind::WorkerOom;
    }
    return FailureKind::WorkerKilled;
}

WorkerSupervisor::WorkerSupervisor(SandboxOptions options)
    : options_(std::move(options))
{
    if (options_.workers == 0)
        options_.workers = 1;
    for (unsigned i = 0; i < options_.workers; ++i)
        slots_.push_back(std::make_unique<Slot>());
}

WorkerSupervisor::~WorkerSupervisor()
{
    stop();
}

bool
WorkerSupervisor::start(std::string &error)
{
    if (started_)
        return true;
    workerPath_ = discoverWorkerBinary(options_.workerPath);
    if (workerPath_.empty()) {
        error = options_.workerPath.empty()
                    ? "no keq-solver-worker binary found (set "
                      "KEQ_SOLVER_WORKER or --worker-path)"
                    : "worker binary not executable: " +
                          options_.workerPath;
        return false;
    }
    started_ = true;
    if (options_.chaosKillRate > 0.0) {
        chaosRate_.store(options_.chaosKillRate,
                         std::memory_order_relaxed);
        chaosStop_ = false;
        chaosThread_ = std::thread([this] { chaosLoop(); });
    }
    return true;
}

void
WorkerSupervisor::stop()
{
    if (chaosThread_.joinable()) {
        chaosStop_ = true;
        chaosThread_.join();
    }
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto &slot : slots_) {
        if (slot->alive) {
            slot->chaosPid = 0;
            // A polite Shutdown lets the worker flush and exit; the
            // grace period escalates to SIGKILL for wedged ones.
            slot->proc.channel().sendFrame(wire::encodeShutdown());
            slot->proc.waitOrKill(kReapGraceMs);
            slot->alive = false;
        }
    }
    started_ = false;
}

uint64_t
WorkerSupervisor::newSessionId()
{
    return nextSession_.fetch_add(1);
}

SolverStats
WorkerSupervisor::transportTotals() const
{
    std::unique_lock<std::mutex> lock(totalsMutex_);
    return totals_;
}

void
WorkerSupervisor::bumpTotals(const SolverStats &delta)
{
    std::unique_lock<std::mutex> lock(totalsMutex_);
    totals_ += delta;
}

std::vector<WorkerSupervisor::Slot *>
WorkerSupervisor::leaseSlots(size_t n)
{
    // All-or-nothing under one lock: a group either grabs every slot it
    // needs in a single critical section or grabs none and waits. Two
    // concurrent groups can therefore never deadlock on partial leases
    // (one of them always completes first).
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::vector<Slot *> free;
        for (auto &slot : slots_) {
            if (!slot->busy)
                free.push_back(slot.get());
        }
        if (free.size() >= n) {
            free.resize(n);
            for (Slot *slot : free)
                slot->busy = true;
            return free;
        }
        slotFree_.wait(lock);
    }
}

void
WorkerSupervisor::releaseSlot(Slot *slot)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        slot->busy = false;
    }
    // notify_all, not notify_one: a group waiter needing several slots
    // must re-check on every release, and waking only one waiter could
    // starve it behind single-slot waiters.
    slotFree_.notify_all();
}

support::ExitStatus
WorkerSupervisor::reapWorker(Slot &slot)
{
    slot.chaosPid = 0; // stop the chaos thread signalling this pid
    support::ExitStatus status = slot.proc.waitOrKill(kReapGraceMs);
    slot.alive = false;
    slot.sessionId = 0;
    slot.strategy.clear();
    slot.backoffMs = slot.backoffMs == 0
                         ? kMinBackoffMs
                         : std::min(slot.backoffMs * 2,
                                    options_.maxRespawnBackoffMs);
    return status;
}

bool
WorkerSupervisor::transmit(Slot &slot, const std::string &frame,
                           SolverStats &transport)
{
    if (!slot.proc.channel().sendFrame(frame))
        return false;
    transport.wireBytesSent += frame.size();
    return true;
}

support::IoStatus
WorkerSupervisor::receive(Slot &slot, std::string &payload,
                          unsigned deadlineMs, SolverStats &transport)
{
    support::FramedChannel &channel = slot.proc.channel();
    uint64_t before = channel.bytesReceived();
    support::IoStatus status = channel.recvFrame(payload, deadlineMs);
    transport.wireBytesReceived += channel.bytesReceived() - before;
    return status;
}

bool
WorkerSupervisor::spawnWorker(Slot &slot, std::string &error,
                              SolverStats &transport)
{
    if (slot.backoffMs > 0) {
        // Jittered backoff so a pool of crashed workers doesn't respawn
        // in lockstep.
        support::Rng rng(options_.chaosSeed ^
                         nextQuerySeq_.fetch_add(1));
        unsigned base = slot.backoffMs;
        unsigned wait = base / 2 + static_cast<unsigned>(
                                       rng.below(base / 2 + 1));
        std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    }
    std::vector<std::string> argv = {workerPath_};
    if (options_.workerMemoryMb > 0)
        argv.push_back("--memory-mb=" +
                       std::to_string(options_.workerMemoryMb));
    if (options_.workerCpuSeconds > 0)
        argv.push_back("--cpu-seconds=" +
                       std::to_string(options_.workerCpuSeconds));
    argv.push_back("--heartbeat-ms=" +
                   std::to_string(options_.heartbeatIntervalMs));

    slot.proc = support::Subprocess();
    if (!slot.proc.spawn(argv, error))
        return false;

    // Handshake: the worker leads with Ready carrying its protocol
    // version; anything else (or silence) means a broken binary.
    std::string payload;
    support::IoStatus st = receive(slot, payload, kHandshakeMs, transport);
    if (st == support::IoStatus::Timeout) {
        error = "worker handshake timed out";
        reapWorker(slot);
        return false;
    }
    if (st == support::IoStatus::Error) {
        error = "worker handshake sent a corrupt frame";
        reapWorker(slot);
        return false;
    }
    if (st != support::IoStatus::Ok) {
        support::ExitStatus dead = reapWorker(slot);
        error = "worker died during handshake (" + dead.describe() + ")";
        return false;
    }
    wire::FrameType type;
    std::string body;
    wire::ReadyFrame ready;
    std::string decodeError;
    if (!wire::splitFrame(payload, type, body) ||
        type != wire::FrameType::Ready ||
        !wire::decodeReady(body, ready, decodeError)) {
        error = "worker handshake sent a non-Ready frame";
        reapWorker(slot);
        return false;
    }
    if (ready.protocolVersion != wire::kProtocolVersion) {
        error = "worker protocol version " +
                std::to_string(ready.protocolVersion) + " != supervisor " +
                std::to_string(wire::kProtocolVersion);
        reapWorker(slot);
        return false;
    }
    if (slot.everSpawned)
        ++transport.workerRestarts;
    slot.everSpawned = true;
    slot.alive = true;
    slot.sessionId = 0;
    slot.strategy.clear();
    slot.lastRssKb = 0;
    slot.chaosPid = slot.proc.pid();
    return true;
}

bool
WorkerSupervisor::dispatchQuery(Slot &slot, uint64_t sessionId,
                                const std::string &strategy,
                                uint64_t seq,
                                const std::vector<Term> &assertions,
                                unsigned timeoutMs,
                                const std::atomic<bool> *interrupted,
                                SolverStats &transport,
                                std::string &spawnError)
{
    // Bounded respawn + redispatch: a worker that dies *here* has not
    // consumed the query, so it is respawned and the query redispatched;
    // a death after dispatch costs exactly this query (classified by
    // the caller's await loop).
    auto cancelled = [&] {
        return (interrupted != nullptr &&
                interrupted->load(std::memory_order_relaxed)) ||
               options_.cancel.cancelled();
    };
    for (unsigned attempt = 0;
         attempt < options_.spawnAttempts && !cancelled(); ++attempt) {
        if (!slot.alive && !spawnWorker(slot, spawnError, transport))
            continue;
        if (slot.sessionId != sessionId || slot.strategy != strategy) {
            wire::ResetFrame reset;
            reset.timeoutMs = timeoutMs;
            reset.memoryBudgetMb = options_.memoryBudgetMb;
            reset.strategy = strategy;
            if (!transmit(slot, wire::encodeReset(reset), transport)) {
                reapWorker(slot);
                ++transport.workerCrashes;
                continue;
            }
            slot.sessionId = sessionId;
            slot.strategy = strategy;
        }
        wire::QueryFrame query;
        query.seq = seq;
        query.timeoutMs = timeoutMs;
        query.assertions = assertions;
        if (!transmit(slot, wire::encodeQuery(query), transport)) {
            reapWorker(slot);
            ++transport.workerCrashes;
            continue;
        }
        return true;
    }
    return false;
}

namespace {

/** Per-lane bookkeeping for one query (a race when several lanes). */
struct LaneRun
{
    std::string strategy;
    bool finished = false;
    bool haveResult = false; ///< a Result frame (any kind) arrived
    bool cancelSent = false;
    Clock::time_point cancelAt{};
    Clock::time_point lastFrame{};
    SatResult result = SatResult::Unknown;
    FailureKind kind = FailureKind::None;
    std::string reason;
    SolverStats stats;
};

bool
isDefinite(const LaneRun &lane)
{
    return lane.haveResult && lane.kind == FailureKind::None &&
           lane.result != SatResult::Unknown;
}

} // namespace

WorkerSupervisor::QueryOutcome
WorkerSupervisor::solve(uint64_t sessionId,
                        const std::vector<Term> &assertions,
                        unsigned timeoutMs,
                        const std::atomic<bool> *interrupted,
                        const std::vector<std::string> &lanes)
{
    QueryOutcome out;
    SolverStats transport;
    if (!started_) {
        out.failureKind = FailureKind::WorkerKilled;
        out.unknownReason = "sandbox supervisor not started";
        return out;
    }

    // A race only when the caller asked for several lanes; one lane
    // (or none: the default stack) is a plain sandboxed query.
    bool race = lanes.size() > 1;
    std::vector<std::string> strategies =
        lanes.empty() ? std::vector<std::string>{std::string()} : lanes;
    // Racing more lanes than the pool has workers would block the
    // atomic lease forever; degrade to the widest race that fits.
    size_t laneCount = std::min(strategies.size(), slots_.size());
    std::vector<Slot *> leased = leaseSlots(laneCount);
    uint64_t seq = nextQuerySeq_.fetch_add(1);

    auto cancelled = [&] {
        return (interrupted != nullptr &&
                interrupted->load(std::memory_order_relaxed)) ||
               options_.cancel.cancelled();
    };

    std::vector<LaneRun> runs(laneCount);
    size_t unfinished = 0;
    auto finishLane = [&](LaneRun &lane, FailureKind kind,
                          std::string reason) {
        lane.finished = true;
        lane.kind = kind;
        lane.reason = std::move(reason);
        --unfinished;
    };
    // Kills the lane's worker for a protocol violation: its session
    // state is untrusted, so the process is recycled.
    auto killLane = [&](LaneRun &lane, Slot &slot, FailureKind kind,
                        std::string reason) {
        slot.proc.kill(SIGKILL);
        reapWorker(slot);
        ++transport.workerCrashes;
        finishLane(lane, kind, std::move(reason));
    };

    // Every lane gets the same query seq: a worker only ever has one
    // query in flight, so the seq disambiguates per-stream, and a
    // single seq lets one CancelFrame value serve the whole group.
    std::string spawnError;
    for (size_t i = 0; i < laneCount; ++i) {
        runs[i].strategy = strategies[i];
        if (!cancelled() &&
            dispatchQuery(*leased[i], sessionId, strategies[i], seq,
                          assertions, timeoutMs, interrupted, transport,
                          spawnError)) {
            // The heartbeat clock starts once the query is out: a
            // respawn inside the dispatch is not worker silence.
            runs[i].lastFrame = Clock::now();
            ++unfinished;
            continue;
        }
        // Dead on arrival; a race tolerates it as long as some other
        // lane dispatched.
        runs[i].finished = true;
        if (cancelled()) {
            runs[i].kind = FailureKind::Cancelled;
            runs[i].reason = "cancelled before dispatch";
        } else {
            runs[i].kind = FailureKind::WorkerKilled;
            runs[i].reason =
                (race ? "cannot dispatch portfolio lane '" +
                            strategies[i] + "'"
                      : std::string("cannot dispatch to a sandbox "
                                    "worker")) +
                (spawnError.empty() ? std::string() : ": " + spawnError);
        }
    }

    auto sendCancel = [&](LaneRun &lane, Slot &slot) {
        if (lane.finished || lane.cancelSent)
            return;
        wire::CancelFrame cancel;
        cancel.seq = seq;
        // A failed write means the worker already died; the pump will
        // reap and classify it.
        transmit(slot, wire::encodeCancel(cancel), transport);
        lane.cancelSent = true;
        lane.cancelAt = Clock::now();
    };

    // Handles one whole frame from lane @p i's worker.
    int winner = -1;
    auto onFrame = [&](size_t i, const std::string &payload) {
        LaneRun &lane = runs[i];
        Slot &slot = *leased[i];
        lane.lastFrame = Clock::now();
        wire::FrameType type;
        std::string body;
        if (!wire::splitFrame(payload, type, body)) {
            killLane(lane, slot, FailureKind::WorkerKilled,
                     "worker sent an unknown frame type");
            return;
        }
        switch (type) {
        case wire::FrameType::Heartbeat: {
            wire::HeartbeatFrame beat;
            std::string error;
            if (wire::decodeHeartbeat(body, beat, error))
                slot.lastRssKb = beat.rssKb;
            break; // liveness refreshed above
        }
        case wire::FrameType::Result: {
            wire::ResultFrame result;
            std::string error;
            if (!wire::decodeResult(body, result, error) ||
                result.seq != seq) {
                killLane(lane, slot, FailureKind::WorkerKilled,
                         error.empty() ? "worker answered the wrong query"
                                       : "corrupt result frame: " + error);
                break;
            }
            lane.haveResult = true;
            lane.result = result.result;
            lane.stats = result.stats;
            slot.backoffMs = 0; // healthy answer resets the backoff
            finishLane(lane, result.failureKind, result.unknownReason);
            if (isDefinite(lane) && winner < 0) {
                winner = static_cast<int>(i);
                for (size_t j = 0; j < runs.size(); ++j) {
                    if (j != i)
                        sendCancel(runs[j], *leased[j]);
                }
            }
            break;
        }
        case wire::FrameType::Error: {
            // The worker refused the query (undecodable frame).
            std::string message;
            wire::decodeError(body, message);
            killLane(lane, slot, FailureKind::SolverCrash,
                     "worker rejected query: " + message);
            break;
        }
        default:
            killLane(lane, slot, FailureKind::WorkerKilled,
                     "unexpected frame from worker");
            break;
        }
    };

    // --- The reply pump: one poll over every unfinished lane ----------
    // Receives are resumable, so a tick that ends mid-frame loses
    // nothing; liveness deadlines are checked on every tick.
    bool userCancelled = false;
    std::vector<pollfd> fds;
    std::vector<size_t> owners;
    while (unfinished > 0) {
        if (cancelled()) {
            // Cancellation beats every other classification: kill the
            // workers (their in-flight query is abandoned) and report
            // Cancelled so the caller never journals this verdict.
            userCancelled = true;
            for (size_t i = 0; i < runs.size(); ++i) {
                if (runs[i].finished)
                    continue;
                leased[i]->proc.kill(SIGKILL);
                reapWorker(*leased[i]);
                finishLane(runs[i], FailureKind::Cancelled, "cancelled");
            }
            break;
        }
        fds.clear();
        owners.clear();
        for (size_t i = 0; i < runs.size(); ++i) {
            if (!runs[i].finished) {
                fds.push_back({leased[i]->proc.channel().readFd(), POLLIN,
                               0});
                owners.push_back(i);
            }
        }
        // An interrupted poll is just an idle tick.
        if (::poll(fds.data(), fds.size(), kPumpTickMs) < 0) {
            for (pollfd &fd : fds)
                fd.revents = 0;
        }
        for (size_t k = 0; k < fds.size(); ++k) {
            size_t i = owners[k];
            LaneRun &lane = runs[i];
            Slot &slot = *leased[i];
            if (fds[k].revents != 0) {
                std::string payload;
                support::IoStatus st =
                    receive(slot, payload, kPumpTickMs, transport);
                if (st == support::IoStatus::Ok) {
                    onFrame(i, payload);
                    continue;
                }
                if (st == support::IoStatus::Error) {
                    killLane(lane, slot, FailureKind::WorkerKilled,
                             "worker sent a corrupt frame");
                    continue;
                }
                if (st == support::IoStatus::Eof) {
                    support::ExitStatus dead = reapWorker(slot);
                    ++transport.workerCrashes;
                    // A loser dying after its Cancel is still just a
                    // cancellation; an uncancelled lane's death is a
                    // real (contained) failure of that lane only.
                    finishLane(lane,
                               lane.cancelSent
                                   ? FailureKind::Cancelled
                                   : classifyWorkerDeath(
                                         dead, slot.lastRssKb,
                                         options_.workerMemoryMb),
                               "worker died (" + dead.describe() + ")");
                    continue;
                }
                // Timeout: the frame is still arriving; it resumes on
                // the next tick.
            }
            if (lane.cancelSent &&
                elapsedMs(lane.cancelAt) > kReapGraceMs) {
                // The loser ignored its Cancel frame (wedged in native
                // code); reap it the hard way. Still a cancellation,
                // not a timeout: the race was over.
                slot.proc.kill(SIGKILL);
                reapWorker(slot);
                finishLane(lane, FailureKind::Cancelled,
                           "cancelled (killed after grace)");
            } else if (elapsedMs(lane.lastFrame) >
                       options_.heartbeatGraceMs) {
                // Silent worker: wedged in native code, SIGSTOPped, or
                // spinning without heartbeats. Kill and classify as a
                // timeout — the query never produced evidence of a
                // crash, only of taking too long.
                slot.proc.kill(SIGKILL);
                reapWorker(slot);
                ++transport.heartbeatTimeouts;
                finishLane(lane, FailureKind::Timeout,
                           "worker heartbeat deadline");
            }
        }
    }

    // --- Classify ------------------------------------------------------
    for (const LaneRun &lane : runs)
        out.stats += lane.stats;

    bool sawSat = false;
    bool sawUnsat = false;
    for (const LaneRun &lane : runs) {
        if (!isDefinite(lane))
            continue;
        sawSat = sawSat || lane.result == SatResult::Sat;
        sawUnsat = sawUnsat || lane.result == SatResult::Unsat;
    }

    if (!race) {
        // A lone lane's outcome is the worker's, exactly as sent: an
        // unclassified Unknown keeps FailureKind::None.
        const LaneRun &lane = runs.front();
        out.result = lane.result;
        out.failureKind = lane.kind;
        out.unknownReason = lane.reason;
    } else if (userCancelled) {
        out.result = SatResult::Unknown;
        out.failureKind = FailureKind::Cancelled;
        out.unknownReason = "cancelled";
    } else if (sawSat && sawUnsat) {
        // Two lanes produced conflicting definite verdicts on the same
        // assertion set: a solver soundness bug. Refuse to pick a side.
        ++out.stats.crossLaneDisagreements;
        std::string detail;
        for (const LaneRun &lane : runs) {
            if (!isDefinite(lane))
                continue;
            if (!detail.empty())
                detail += ", ";
            detail += lane.strategy + "=" +
                      (lane.result == SatResult::Sat ? "sat" : "unsat");
        }
        out.result = SatResult::Unknown;
        out.failureKind = FailureKind::PortfolioDisagreement;
        out.unknownReason = "portfolio disagreement: " + detail;
    } else if (winner >= 0) {
        const LaneRun &won = runs[static_cast<size_t>(winner)];
        out.result = won.result;
        out.failureKind = FailureKind::None;
        out.unknownReason.clear();
        size_t winSlot =
            std::min(static_cast<size_t>(winner),
                     SolverStats::kPortfolioMaxLanes - 1);
        ++out.stats.portfolioWins[winSlot];
        for (const LaneRun &lane : runs) {
            if (&lane != &won && lane.cancelSent && !isDefinite(lane))
                ++out.stats.portfolioCancellations;
        }
    } else {
        // Every lane failed. Surface the most informative lane: any
        // classified failure beats Cancelled (which here only marks
        // dead-on-arrival lanes of an already-failed race).
        const LaneRun *pick = &runs.front();
        for (const LaneRun &lane : runs) {
            if (pick->kind == FailureKind::Cancelled &&
                lane.kind != FailureKind::Cancelled)
                pick = &lane;
        }
        out.result = SatResult::Unknown;
        out.failureKind = pick->kind != FailureKind::None
                              ? pick->kind
                              : FailureKind::SolverUnknown;
        out.unknownReason = pick->reason;
    }

    for (Slot *slot : leased)
        releaseSlot(slot);
    out.stats += transport;
    bumpTotals(transport);
    return out;
}

void
WorkerSupervisor::chaosLoop()
{
    support::Rng rng(options_.chaosSeed);
    while (!chaosStop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.chaosTickMs));
        std::unique_lock<std::mutex> lock(mutex_);
        for (auto &slot : slots_) {
            if (!slot->busy)
                continue;
            int pid = slot->chaosPid.load(std::memory_order_relaxed);
            if (pid <= 0)
                continue;
            double roll =
                static_cast<double>(rng.below(1u << 20)) /
                static_cast<double>(1u << 20);
            if (roll < chaosRate_.load(std::memory_order_relaxed)) {
                // Real signals through the real kernel path: half the
                // kills are abrupt (SIGKILL), half look like solver
                // bugs (SIGSEGV).
                ::kill(pid, rng.below(2) == 0 ? SIGKILL : SIGSEGV);
            }
        }
    }
}

// --- SandboxSolver ------------------------------------------------------

SandboxSolver::SandboxSolver(TermFactory &factory,
                             WorkerSupervisor &supervisor,
                             std::vector<std::string> laneStrategies,
                             unsigned deadlineMs)
    : factory_(factory), supervisor_(supervisor),
      sessionId_(supervisor.newSessionId()),
      laneStrategies_(std::move(laneStrategies)), deadlineMs_(deadlineMs),
      timeoutMs_(deadlineMs)
{}

SatResult
SandboxSolver::checkSat(const std::vector<Term> &assertions)
{
    interrupted_.store(false, std::memory_order_relaxed);
    ++stats_.queries;
    WorkerSupervisor::QueryOutcome outcome = supervisor_.solve(
        sessionId_, assertions, timeoutMs_, &interrupted_, laneStrategies_);
    switch (outcome.result) {
    case SatResult::Sat:
        ++stats_.sat;
        break;
    case SatResult::Unsat:
        ++stats_.unsat;
        break;
    case SatResult::Unknown:
        ++stats_.unknown;
        break;
    }
    // The worker already counted its own logical queries; fold in only
    // the work counters so this stack reports one query per checkSat.
    foldNonVerdictStats(stats_, outcome.stats);
    lastFailure_ = outcome.failureKind;
    lastUnknownReason_ = outcome.unknownReason;
    return outcome.result;
}

void
SandboxSolver::setTimeoutMs(unsigned timeout_ms)
{
    // 0 means "no limit" on both sides; otherwise the tighter wins.
    timeoutMs_ = timeout_ms;
    if (deadlineMs_ != 0 && (timeout_ms == 0 || deadlineMs_ < timeout_ms))
        timeoutMs_ = deadlineMs_;
}

void
SandboxSolver::setMemoryBudgetMb(unsigned budget_mb)
{
    // The soft budget is a session property shipped in the Reset frame
    // from SandboxOptions::memoryBudgetMb; the hard cap is the worker's
    // rlimit. Nothing to adjust per solver.
    (void)budget_mb;
}

void
SandboxSolver::interruptQuery()
{
    interrupted_.store(true, std::memory_order_relaxed);
}

std::string
SandboxSolver::lastUnknownReason() const
{
    return lastUnknownReason_;
}

FailureKind
SandboxSolver::lastFailureKind() const
{
    return lastFailure_;
}

} // namespace keq::smt
