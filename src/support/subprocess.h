#ifndef KEQ_SUPPORT_SUBPROCESS_H
#define KEQ_SUPPORT_SUBPROCESS_H

/**
 * @file
 * Minimal POSIX subprocess primitive for the solver sandbox.
 *
 * The out-of-process solver workers (smt::WorkerSupervisor) need exactly
 * four things from the OS: spawn a child with its stdin/stdout replaced
 * by pipes, exchange frames on those pipes with a deadline, deliver
 * signals, and classify how the child died. Subprocess wraps that and
 * nothing more — no shell, no pty, no environment surgery — so the
 * sandbox layer stays portable across the POSIX systems we build on.
 *
 * The pipe pair is a support::FramedChannel (framed_channel.h), the
 * same transport keqd uses on sockets: deadline-aware, resumable
 * receives, so the supervisor's heartbeat protocol turns "no bytes for
 * too long" into a contained, classified worker failure instead of a
 * hung parent; and EPIPE-safe sends, so writing to a crashed worker
 * surfaces as an error return, never a parent death.
 */

#include <string>
#include <vector>

#include "src/support/framed_channel.h"

namespace keq::support {

/** How a child process terminated (decoded waitpid status). */
struct ExitStatus
{
    bool exited = false;   ///< normal exit; exitCode is valid
    int exitCode = 0;
    bool signaled = false; ///< killed by a signal; signal is valid
    int signal = 0;

    /** "exit code N" / "signal N (SIGxxx)" for diagnostics. */
    std::string describe() const;
};

/**
 * One spawned child connected by a stdin/stdout pipe pair.
 *
 * Movable, not copyable. The destructor closes the pipes and, if the
 * child is still running, SIGKILLs and reaps it — a Subprocess never
 * outlives its owner as a zombie.
 */
class Subprocess
{
  public:
    Subprocess() = default;
    ~Subprocess();

    Subprocess(Subprocess &&rhs) noexcept;
    Subprocess &operator=(Subprocess &&rhs) noexcept;
    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    /**
     * Forks and execs @p argv (argv[0] is the binary path; PATH is not
     * searched). The child's stdin/stdout become the pipe ends; stderr
     * is inherited so worker diagnostics reach the operator.
     *
     * @return false with @p error set when the pipes or fork fail, or
     *         when the exec fails inside the child (detected by the
     *         close-on-exec status pipe, so a bad binary path reports
     *         here rather than as a dead worker later).
     */
    bool spawn(const std::vector<std::string> &argv, std::string &error);

    bool running() const { return pid_ > 0 && !reaped_; }
    int pid() const { return pid_; }

    /** The frame transport to the child (its stdout -> its stdin). */
    FramedChannel &channel() { return channel_; }

    /** Sends @p signo; false when the child is already gone. */
    bool kill(int signo);

    /**
     * Non-blocking reap. Returns true once the child has been waited
     * for (then @p status is valid); repeated calls keep returning the
     * cached status.
     */
    bool tryWait(ExitStatus &status);

    /**
     * Blocking reap with an escalation fuse: waits up to @p grace_ms
     * for a voluntary exit, then SIGKILLs and waits for real.
     */
    ExitStatus waitOrKill(unsigned grace_ms);

  private:
    void killAndReap();
    void reset();

    int pid_ = -1;
    FramedChannel channel_;
    bool reaped_ = false;
    ExitStatus status_;
};

/** Directory of the running executable ("" when undeterminable). */
std::string currentExecutableDir();

/** True when @p path names an executable regular file. */
bool isExecutableFile(const std::string &path);

} // namespace keq::support

#endif // KEQ_SUPPORT_SUBPROCESS_H
