/**
 * @file
 * Fork-isolated campaign workers: frame codec + supervisor loop.
 */

#include "fuzzer/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/diagnostics.h"
#include "support/serialize.h"

namespace ubfuzz::fuzzer {

std::string
encodeUnitFrame(int unit, const detail::UnitOutput &out)
{
    return support::encodeRecord(unit, out);
}

bool
decodeUnitFrame(std::string_view bytes, int expectedUnit,
                detail::UnitOutput &out)
{
    size_t end = 0;
    std::optional<std::string_view> payload =
        support::readRecord(bytes, end);
    int unit = -1;
    detail::UnitOutput decoded;
    // Exactly one record: a worker writes its frame and exits, so
    // trailing bytes are as much a tear as missing ones.
    if (!payload || end != bytes.size() ||
        !support::decodeRecord(*payload, unit, decoded) ||
        unit != expectedUnit)
        return false;
    out = std::move(decoded);
    return true;
}

namespace {

detail::UnitOutput
computeUnit(const CampaignConfig &config, int unit, CorpusMemo *memo,
            const UnitWorkFn &work)
{
    if (work)
        return work(config, unit, memo);
    return detail::runCampaignUnitRecorded(config, unit, memo);
}

bool
stopRequested(const std::atomic<bool> *stop)
{
    return stop && stop->load(std::memory_order_relaxed);
}

void
writeAll(int fd, std::string_view bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // supervisor went away; it will classify the tear
        }
        off += static_cast<size_t>(n);
    }
}

[[noreturn]] void
runWorker(int writeFd, const CampaignConfig &config, int unit,
          int attempt, CorpusMemo *memo, const UnitWorkFn &work)
{
    // The worker is a fork of the supervisor: restore default signal
    // dispositions so a terminal Ctrl-C kills workers outright while
    // the supervisor drains gracefully (it re-kills us anyway).
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    const FailureInjection &inj = config.failureInjection;
    const bool injected = inj.firesOn(unit, attempt);
    if (injected && inj.kind == FailureInjection::Kind::Crash)
        ::_exit(101); // dies before producing a single byte
    if (injected && inj.kind == FailureInjection::Kind::Hang) {
        for (;;)
            ::pause(); // watchdog food: only SIGKILL gets us out
    }

    std::string frame =
        encodeUnitFrame(unit, computeUnit(config, unit, memo, work));
    if (injected && inj.kind == FailureInjection::Kind::TornPipe) {
        writeAll(writeFd, std::string_view(frame).substr(
                              0, std::min<size_t>(inj.tornBytes,
                                                  frame.size())));
        ::_exit(102); // died mid-write: the supervisor sees a torn frame
    }
    writeAll(writeFd, frame);
    // _exit, never exit: the child shares the parent's stdio buffers
    // and must not flush them a second time.
    ::_exit(0);
}

enum class AttemptStatus : uint8_t { Frame, Crash, Timeout, Stopped };

AttemptStatus
runAttempt(const CampaignConfig &config, int unit, int attempt,
           CorpusMemo *memo, const std::atomic<bool> *stop,
           const UnitWorkFn &work, detail::UnitOutput &out)
{
    int fds[2];
    if (::pipe(fds) != 0)
        UBF_FATAL("pipe() failed: ", std::strerror(errno));

    // Pending stdio output would be duplicated by the fork.
    std::fflush(nullptr);

    // Hold the corpus-memo mutex across fork() so the child inherits a
    // consistent memo map and a lock its own (continuing) thread owns —
    // with --jobs N other worker threads may be mid-insert right now.
    std::unique_lock<std::mutex> memoLock;
    if (memo)
        memoLock = memo->forkLock();
    pid_t pid = ::fork();
    if (pid == 0) {
        if (memoLock.owns_lock())
            memoLock.unlock();
        ::close(fds[0]);
        runWorker(fds[1], config, unit, attempt, memo, work);
    }
    if (memoLock.owns_lock())
        memoLock.unlock();
    ::close(fds[1]);
    if (pid < 0) {
        ::close(fds[0]);
        UBF_FATAL("fork() failed: ", std::strerror(errno));
    }

    const bool hasDeadline = config.unitTimeoutMs > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config.unitTimeoutMs);

    std::string buf;
    char chunk[4096];
    AttemptStatus status = AttemptStatus::Crash;
    for (;;) {
        if (stopRequested(stop)) {
            status = AttemptStatus::Stopped;
            break;
        }
        // Short ticks so stop requests and the deadline are both
        // noticed promptly even while the worker is silent.
        int waitMs = 50;
        if (hasDeadline) {
            auto left = std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
            if (left <= 0) {
                status = AttemptStatus::Timeout;
                break;
            }
            waitMs = static_cast<int>(
                std::min<long long>(waitMs, left));
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int pr = ::poll(&pfd, 1, waitMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break; // classified as crash: no complete frame arrived
        }
        if (pr == 0)
            continue;
        ssize_t n = ::read(fds[0], chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0) {
            // EOF. The frame decides, not the exit status: a complete,
            // checksummed frame is a result; anything less is a crash.
            status = decodeUnitFrame(buf, unit, out)
                         ? AttemptStatus::Frame
                         : AttemptStatus::Crash;
            break;
        }
        buf.append(chunk, static_cast<size_t>(n));
    }

    if (status == AttemptStatus::Timeout ||
        status == AttemptStatus::Stopped)
        ::kill(pid, SIGKILL);
    ::close(fds[0]);
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    return status;
}

} // namespace

SuperviseOutcome
superviseUnit(const CampaignConfig &config, int unit, CorpusMemo *memo,
              const std::atomic<bool> *stop, const UnitWorkFn &work)
{
    SuperviseOutcome result;
    for (int attempt = 0;; attempt++) {
        if (stopRequested(stop)) {
            result.kind = SuperviseOutcome::Kind::Aborted;
            return result;
        }
        detail::UnitOutput out;
        switch (runAttempt(config, unit, attempt, memo, stop, work,
                           out)) {
          case AttemptStatus::Frame:
            result.kind = SuperviseOutcome::Kind::Completed;
            result.out = std::move(out);
            return result;
          case AttemptStatus::Stopped:
            result.kind = SuperviseOutcome::Kind::Aborted;
            return result;
          case AttemptStatus::Crash:
            result.workerCrashes++;
            break;
          case AttemptStatus::Timeout:
            result.workerTimeouts++;
            break;
        }
        if (attempt >= config.retries) {
            result.kind = SuperviseOutcome::Kind::Quarantined;
            return result;
        }
        result.retried++;
        // Exponential backoff before the retry, in stop-aware slices.
        auto backoffEnd =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(std::min<long long>(
                5LL << std::min(attempt, 6), 250));
        while (std::chrono::steady_clock::now() < backoffEnd) {
            if (stopRequested(stop)) {
                result.kind = SuperviseOutcome::Kind::Aborted;
                return result;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
}

} // namespace ubfuzz::fuzzer
