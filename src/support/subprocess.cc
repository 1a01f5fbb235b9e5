#include "src/support/subprocess.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace keq::support {

using Clock = std::chrono::steady_clock;

std::string
ExitStatus::describe() const
{
    if (exited)
        return "exit code " + std::to_string(exitCode);
    if (signaled) {
        std::string name;
#ifdef _GNU_SOURCE
        const char *abbrev = sigabbrev_np(signal);
        if (abbrev != nullptr)
            name = std::string(" (SIG") + abbrev + ")";
#endif
        return "signal " + std::to_string(signal) + name;
    }
    return "still running";
}

Subprocess::~Subprocess() { killAndReap(); }

void
Subprocess::killAndReap()
{
    if (running()) {
        ::kill(pid_, SIGKILL);
        int raw = 0;
        ::waitpid(pid_, &raw, 0);
    }
}

Subprocess::Subprocess(Subprocess &&rhs) noexcept
{
    *this = std::move(rhs);
}

Subprocess &
Subprocess::operator=(Subprocess &&rhs) noexcept
{
    if (this != &rhs) {
        killAndReap();
        pid_ = rhs.pid_;
        channel_ = std::move(rhs.channel_);
        reaped_ = rhs.reaped_;
        status_ = rhs.status_;
        rhs.reset();
    }
    return *this;
}

void
Subprocess::reset()
{
    pid_ = -1;
    reaped_ = false;
    status_ = ExitStatus{};
}

bool
Subprocess::spawn(const std::vector<std::string> &argv,
                  std::string &error)
{
    if (argv.empty()) {
        error = "empty argv";
        return false;
    }
    // Every end is close-on-exec from birth: a sibling spawned by
    // another thread must not inherit this child's pipes. An inherited
    // execStatus write end would block the read below until that
    // sibling exits; an inherited stdin write end would keep this
    // child from ever seeing EOF.
    int toChild[2];   // parent writes -> child stdin
    int fromChild[2]; // child stdout -> parent reads
    int execStatus[2]; // reports exec failure; EOF on exec
    if (::pipe2(toChild, O_CLOEXEC) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    if (::pipe2(fromChild, O_CLOEXEC) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        ::close(toChild[0]);
        ::close(toChild[1]);
        return false;
    }
    if (::pipe2(execStatus, O_CLOEXEC) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        ::close(toChild[0]);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        ::close(fromChild[1]);
        return false;
    }

    // Built before fork: the child may not allocate (another thread
    // can hold the allocator lock at the moment of the fork).
    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        for (int fd : {toChild[0], toChild[1], fromChild[0],
                       fromChild[1], execStatus[0], execStatus[1]})
            ::close(fd);
        return false;
    }

    if (pid == 0) {
        // Child. Only async-signal-safe calls until exec. The pipe ends
        // close on exec; stdin/stdout must not (dup2 onto the same
        // number keeps the flag, so clear it explicitly).
        ::dup2(toChild[0], STDIN_FILENO);
        ::dup2(fromChild[1], STDOUT_FILENO);
        ::fcntl(STDIN_FILENO, F_SETFD, 0);
        ::fcntl(STDOUT_FILENO, F_SETFD, 0);
        ::execv(args[0], args.data());
        // exec failed: report errno through the status pipe, then die.
        int err = errno;
        ssize_t ignored = ::write(execStatus[1], &err, sizeof err);
        (void)ignored;
        ::_exit(127);
    }

    // Parent.
    ::close(toChild[0]);
    ::close(fromChild[1]);
    ::close(execStatus[1]);
    int execErrno = 0;
    ssize_t got = ::read(execStatus[0], &execErrno, sizeof execErrno);
    ::close(execStatus[0]);
    if (got > 0) {
        // exec failed inside the child; reap it now.
        int raw = 0;
        ::waitpid(pid, &raw, 0);
        ::close(toChild[1]);
        ::close(fromChild[0]);
        error = argv[0] + ": exec failed: " + std::strerror(execErrno);
        return false;
    }

    pid_ = pid;
    channel_ = FramedChannel(fromChild[0], toChild[1]);
    reaped_ = false;
    status_ = ExitStatus{};
    return true;
}

bool
Subprocess::kill(int signo)
{
    if (pid_ <= 0 || reaped_)
        return false;
    return ::kill(pid_, signo) == 0;
}

bool
Subprocess::tryWait(ExitStatus &status)
{
    if (pid_ <= 0)
        return false;
    if (reaped_) {
        status = status_;
        return true;
    }
    int raw = 0;
    pid_t got = ::waitpid(pid_, &raw, WNOHANG);
    if (got != pid_)
        return false;
    reaped_ = true;
    if (WIFEXITED(raw)) {
        status_.exited = true;
        status_.exitCode = WEXITSTATUS(raw);
    } else if (WIFSIGNALED(raw)) {
        status_.signaled = true;
        status_.signal = WTERMSIG(raw);
    }
    status = status_;
    return true;
}

ExitStatus
Subprocess::waitOrKill(unsigned grace_ms)
{
    ExitStatus status;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(grace_ms);
    while (!tryWait(status)) {
        if (Clock::now() >= deadline) {
            kill(SIGKILL);
            int raw = 0;
            if (::waitpid(pid_, &raw, 0) == pid_) {
                reaped_ = true;
                if (WIFEXITED(raw)) {
                    status_.exited = true;
                    status_.exitCode = WEXITSTATUS(raw);
                } else if (WIFSIGNALED(raw)) {
                    status_.signaled = true;
                    status_.signal = WTERMSIG(raw);
                }
            }
            return status_;
        }
        ::usleep(2000);
    }
    return status;
}

std::string
currentExecutableDir()
{
    char buffer[4096];
    ssize_t got =
        ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
    if (got <= 0)
        return {};
    buffer[got] = '\0';
    std::string path(buffer);
    size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

bool
isExecutableFile(const std::string &path)
{
    struct stat st;
    return !path.empty() && ::stat(path.c_str(), &st) == 0 &&
           S_ISREG(st.st_mode) && ::access(path.c_str(), X_OK) == 0;
}

} // namespace keq::support
