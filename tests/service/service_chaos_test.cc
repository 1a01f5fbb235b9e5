/** @file Daemon chaos: a real keq-daemon process (KEQ_DAEMON_BIN) is
 *  SIGKILLed mid-run. The contract under fire: clients classify the
 *  loss and degrade to local solving with verdicts identical to an
 *  undisturbed run, nothing hangs, and a restarted daemon serves the
 *  verdicts its journal survived with. */

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/driver/corpus.h"
#include "src/driver/pipeline.h"
#include "src/llvmir/parser.h"
#include "src/service/client.h"
#include "src/service/socket.h"

namespace keq::service {
namespace {

std::string
uniquePath(const std::string &stem, const std::string &ext)
{
    return (std::filesystem::temp_directory_path() /
            ("keqd-chaos-" + stem + "-" + std::to_string(::getpid()) +
             ext))
        .string();
}

/** Spawns the real daemon binary; returns its pid (or -1). */
pid_t
spawnDaemon(const std::vector<std::string> &args)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    std::vector<const char *> argv;
    argv.push_back(KEQ_DAEMON_BIN);
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    ::execv(KEQ_DAEMON_BIN, const_cast<char *const *>(argv.data()));
    _exit(127);
}

/** Waits until the daemon accepts (handshake works), up to 10 s. */
bool
waitForDaemon(const std::string &socket)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        DaemonClientOptions options;
        options.socketPath = socket;
        options.connectTimeoutMs = 50;
        DaemonClient probe(options);
        std::string error;
        if (probe.connect(error))
            return true;
        ::usleep(50 * 1000);
    }
    return false;
}

void
reap(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
}

std::vector<std::string>
definedFunctions(const std::string &source)
{
    llvmir::Module module = llvmir::parseModule(source);
    std::vector<std::string> names;
    for (const llvmir::Function &fn : module.functions)
        if (!fn.isDeclaration())
            names.push_back(fn.name);
    return names;
}

std::string
moduleSource(size_t functions)
{
    driver::CorpusOptions options;
    options.seed = 0xc4a05;
    options.functionCount = functions;
    return driver::generateCorpusSource(options);
}

TEST(ServiceChaosTest, SigkillMidRunDegradesWithoutHanging)
{
    std::string socket = uniquePath("kill", ".sock");
    std::string source = moduleSource(8);
    std::vector<std::string> names = definedFunctions(source);
    driver::PipelineOptions poptions;

    pid_t daemon = spawnDaemon({"--socket=" + socket, "--jobs=1"});
    ASSERT_GT(daemon, 0);
    ASSERT_TRUE(waitForDaemon(socket)) << "daemon never came up";

    DaemonClientOptions copts;
    copts.socketPath = socket;
    // A dead daemon must surface fast — this bounds the whole test.
    copts.verdictTimeoutMs = 10000;
    DaemonClient client(copts);
    std::string error;
    ASSERT_TRUE(client.connect(error)) << error;

    // The killer fires while jobs are in flight (jobs=1 serializes the
    // daemon side, so 8 functions give it a wide window).
    std::thread killer([&] {
        ::usleep(60 * 1000);
        ::kill(daemon, SIGKILL);
    });

    std::vector<driver::FunctionReport> reports;
    std::vector<bool> decided;
    bool complete = client.validateFunctions(source, names, poptions,
                                             reports, decided, error);
    killer.join();
    reap(daemon);
    std::remove(socket.c_str());

    // Race-tolerant: the daemon may have finished everything before
    // the kill landed. What must NEVER happen is a hang (the timeout
    // above bounds that) or an unclassified failure.
    if (!complete) {
        EXPECT_NE(client.failure(), FailureKind::None);
        EXPECT_FALSE(error.empty());
    }

    // Degradation path: splice daemon verdicts with local recomputes;
    // the merged summary must match an undisturbed local run.
    driver::Pipeline local(poptions);
    llvmir::Module module = llvmir::parseModule(source);
    driver::ModuleReport merged;
    size_t index = 0;
    size_t recomputed = 0;
    for (const llvmir::Function &fn : module.functions) {
        if (fn.isDeclaration())
            continue;
        if (index < decided.size() && decided[index]) {
            merged.functions.push_back(reports[index]);
        } else {
            merged.functions.push_back(
                local.validateFunction(module, fn));
            ++recomputed;
        }
        ++index;
    }
    if (!complete) {
        EXPECT_GT(recomputed, 0u);
    }

    driver::Pipeline reference(poptions);
    EXPECT_EQ(merged.canonicalSummary(),
              reference.run(module).canonicalSummary());
}

TEST(ServiceChaosTest, RestartedDaemonServesJournaledVerdicts)
{
    std::string socket = uniquePath("restart", ".sock");
    std::string journal = uniquePath("restart", ".journal");
    std::remove(journal.c_str());
    std::string source = moduleSource(5);
    std::vector<std::string> names = definedFunctions(source);
    driver::PipelineOptions poptions;

    // First life: decide everything, journaling each fresh verdict.
    pid_t first = spawnDaemon({"--socket=" + socket,
                               "--verdict-journal=" + journal,
                               "--journal-fsync=record"});
    ASSERT_GT(first, 0);
    ASSERT_TRUE(waitForDaemon(socket));
    std::string firstSummary;
    {
        DaemonClientOptions copts;
        copts.socketPath = socket;
        DaemonClient client(copts);
        std::string error;
        ASSERT_TRUE(client.connect(error)) << error;
        std::vector<driver::FunctionReport> reports;
        std::vector<bool> decided;
        ASSERT_TRUE(client.validateFunctions(source, names, poptions,
                                             reports, decided, error))
            << error;
        driver::ModuleReport report;
        report.functions = reports;
        firstSummary = report.canonicalSummary();
    }
    // SIGKILL: no flush, no unlink; only the journal's own per-record
    // durability (fsync=record) protects the verdicts.
    ::kill(first, SIGKILL);
    reap(first);
    std::remove(socket.c_str());
    ASSERT_TRUE(std::filesystem::exists(journal));

    // Second life: same journal, fresh process and socket.
    pid_t second = spawnDaemon({"--socket=" + socket,
                                "--verdict-journal=" + journal});
    ASSERT_GT(second, 0);
    ASSERT_TRUE(waitForDaemon(socket));
    {
        DaemonClientOptions copts;
        copts.socketPath = socket;
        DaemonClient client(copts);
        std::string error;
        ASSERT_TRUE(client.connect(error)) << error;
        std::vector<driver::FunctionReport> reports;
        std::vector<bool> decided;
        ASSERT_TRUE(client.validateFunctions(source, names, poptions,
                                             reports, decided, error))
            << error;
        driver::ModuleReport report;
        report.functions = reports;
        EXPECT_EQ(report.canonicalSummary(), firstSummary);

        // Every cache-stage query must be served from the preloaded
        // store: the restarted daemon solved nothing new.
        uint64_t hits = 0;
        uint64_t misses = 0;
        for (const driver::FunctionReport &fn : reports) {
            hits += fn.verdict.stats.solverStats.cacheHits;
            misses += fn.verdict.stats.solverStats.cacheMisses;
        }
        EXPECT_GT(hits, 0u);
        EXPECT_EQ(misses, 0u);
    }
    ::kill(second, SIGTERM);
    reap(second);
    std::remove(socket.c_str());
    std::remove(journal.c_str());
}

TEST(ServiceChaosTest, StaleSocketFromKilledDaemonIsReclaimed)
{
    std::string socket = uniquePath("stale", ".sock");
    pid_t first = spawnDaemon({"--socket=" + socket});
    ASSERT_GT(first, 0);
    ASSERT_TRUE(waitForDaemon(socket));
    ::kill(first, SIGKILL);
    reap(first);
    // The socket file is left behind by SIGKILL...
    ASSERT_TRUE(std::filesystem::exists(socket));

    // ...and a fresh daemon detects it is dead, reclaims the path, and
    // serves clients.
    pid_t second = spawnDaemon({"--socket=" + socket});
    ASSERT_GT(second, 0);
    EXPECT_TRUE(waitForDaemon(socket))
        << "restarted daemon failed to reclaim the stale socket";
    ::kill(second, SIGTERM);
    reap(second);
    std::remove(socket.c_str());
}

} // namespace
} // namespace keq::service
