#include "runtime/worker.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/interrupt.h"
#include "base/logging.h"
#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "runtime/fault.h"
#include "runtime/thread_pool.h"
#include "sim/simulator.h"

namespace fsmoe::runtime {

namespace {

void
backoffBeforeRetry(const RobustOptions &opts, int failed_attempts)
{
    stats::counter("robust.retry.count").inc();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retryBackoffMs(opts, failed_attempts)));
}

// --------------------------------------------------------- in-process

SweepResult
attemptInProcess(const Scenario &s, const RobustOptions &opts)
{
    const std::string label = s.label();
    std::string last_error;
    for (int attempt = 1; attempt <= opts.maxAttempts; ++attempt) {
        if (attempt > 1)
            backoffBeforeRetry(opts, attempt - 1);
        if (fault::shouldInject(fault::Site::WorkerCrash, label, attempt)) {
            // No isolation boundary: a worker crash IS a process
            // crash — exactly the mid-sweep kill --resume recovers.
            ::_exit(137);
        }
        try {
            SweepResult r = evaluateScenario(s, attempt);
            stats::counter("robust.scenario.ok").inc();
            return r;
        } catch (const std::exception &e) {
            last_error = e.what();
            stats::counter("robust.scenario.failedAttempts").inc();
            FSMOE_WARN("scenario ", label, " attempt ", attempt, "/",
                       opts.maxAttempts, " failed: ", last_error);
        }
    }
    stats::counter("robust.scenario.quarantined").inc();
    return failureRecord(s, ResultStatus::Quarantined, opts.maxAttempts,
                         last_error);
}

// ------------------------------------------------------------ isolate

bool
writeAll(int fd, const std::string &text)
{
    size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

[[noreturn]] void
childMain(int fd, const Scenario &s, int attempt)
{
    const std::string label = s.label();
    if (fault::shouldInject(fault::Site::WorkerCrash, label, attempt))
        ::_exit(137); // isolated: only this scenario's attempt dies
    if (fault::shouldInject(fault::Site::WorkerTimeout, label, attempt)) {
        for (;;) // hang until the supervisor's watchdog SIGKILLs us
            ::pause();
    }
    std::string msg;
    try {
        msg = "ok " + toJsonRecord(evaluateScenario(s, attempt)) + "\n";
    } catch (const std::exception &e) {
        msg = std::string("err ") + e.what() + "\n";
    }
    writeAll(fd, msg);
    ::_exit(0);
}

/**
 * Drain @p fd until EOF or @p deadline. Returns false on watchdog
 * expiry (output collected so far is kept).
 */
bool
readUntilDeadline(int fd, std::chrono::steady_clock::time_point deadline,
                  std::string *out)
{
    char buf[4096];
    for (;;) {
        const auto now = std::chrono::steady_clock::now();
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count();
        if (left <= 0)
            return false;
        struct pollfd pfd = {fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, static_cast<int>(left));
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return true; // treat as EOF; exit status will classify
        }
        if (pr == 0)
            return false; // timed out
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return true;
        }
        if (n == 0)
            return true; // EOF: child finished writing
        out->append(buf, static_cast<size_t>(n));
    }
}

/**
 * One forked attempt. Returns true with *result on success; false
 * with *error describing the crash/timeout/eval failure.
 */
bool
attemptForked(const Scenario &s, const RobustOptions &opts, int attempt,
              SweepResult *result, std::string *error)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        *error = std::string("pipe failed: ") + std::strerror(errno);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        *error = std::string("fork failed: ") + std::strerror(errno);
        return false;
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(fds[1], s, attempt);
    }
    ::close(fds[1]);
    stats::counter("robust.worker.forks").inc();

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts.timeoutMs);
    std::string reply;
    const bool finished = readUntilDeadline(fds[0], deadline, &reply);
    ::close(fds[0]);
    if (!finished) {
        ::kill(pid, SIGKILL);
        stats::counter("robust.worker.timeouts").inc();
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!finished) {
        *error = "worker timed out after " + std::to_string(opts.timeoutMs) +
                 " ms (killed)";
        return false;
    }

    if (reply.rfind("ok ", 0) == 0 && !reply.empty() &&
        reply.back() == '\n') {
        std::string parse_error;
        if (parseJsonRecord(reply.substr(3, reply.size() - 4), result,
                            &parse_error)) {
            result->attempts = attempt;
            return true;
        }
        *error = "worker reply unparsable: " + parse_error;
        return false;
    }
    if (reply.rfind("err ", 0) == 0) {
        *error = reply.substr(4);
        if (!error->empty() && error->back() == '\n')
            error->pop_back();
        return false;
    }
    stats::counter("robust.worker.crashes").inc();
    std::ostringstream oss;
    if (WIFSIGNALED(status))
        oss << "worker killed by signal " << WTERMSIG(status);
    else
        oss << "worker exited with status "
            << (WIFEXITED(status) ? WEXITSTATUS(status) : status)
            << " before reporting a result";
    *error = oss.str();
    return false;
}

SweepResult
attemptIsolated(const Scenario &s, const RobustOptions &opts)
{
    std::string last_error;
    for (int attempt = 1; attempt <= opts.maxAttempts; ++attempt) {
        if (attempt > 1)
            backoffBeforeRetry(opts, attempt - 1);
        SweepResult r;
        if (attemptForked(s, opts, attempt, &r, &last_error)) {
            stats::counter("robust.scenario.ok").inc();
            return r;
        }
        stats::counter("robust.scenario.failedAttempts").inc();
        FSMOE_WARN("scenario ", s.label(), " attempt ", attempt, "/",
                   opts.maxAttempts, " failed: ", last_error);
    }
    stats::counter("robust.scenario.quarantined").inc();
    return failureRecord(s, ResultStatus::Quarantined, opts.maxAttempts,
                         last_error);
}

} // namespace

SweepResult
failureRecord(const Scenario &s, ResultStatus status, int attempts,
              const std::string &error)
{
    SweepResult r;
    r.model = s.model;
    r.cluster = s.cluster;
    r.schedule = s.schedule;
    r.batch = s.batch;
    r.seqLen = s.seqLen;
    r.numLayers = s.numLayers;
    r.numExperts = s.numExperts;
    r.rMax = s.rMax;
    r.status = status;
    r.attempts = attempts;
    r.error = error;
    return r;
}

int
retryBackoffMs(const RobustOptions &opts, int attempt)
{
    long ms = opts.backoffBaseMs;
    for (int i = 1; i < attempt && ms < opts.backoffMaxMs; ++i)
        ms *= 2;
    if (ms > opts.backoffMaxMs)
        ms = opts.backoffMaxMs;
    return static_cast<int>(ms);
}

SweepResult
evaluateScenario(const Scenario &s, int attempt)
{
    if (fault::shouldInject(fault::Site::EvalError, s.label(), attempt)) {
        throw std::runtime_error("injected eval fault (attempt " +
                                 std::to_string(attempt) + ")");
    }
    // Schedule::build plus one simulation: the engine's content cache
    // returns bit-identical results, so a robust run's bytes match the
    // plain engine's exactly.
    ScenarioResult r;
    r.scenario = s;
    const core::ModelCost cost = ScenarioRegistry::instance().makeCost(s);
    auto schedule = core::Schedule::create(s.schedule);
    sim::TaskGraph graph = schedule->build(cost);
    r.sim = sim::Simulator{}.run(graph);
    r.makespanMs = r.sim.makespan;
    SweepResult out = SweepResult::fromScenarioResult(r);
    out.attempts = attempt;
    return out;
}

std::vector<SweepResult>
runRobust(const std::vector<Scenario> &grid, const RobustOptions &opts,
          Journal *journal)
{
    fault::configureFromEnv();
    std::vector<SweepResult> results(grid.size());
    std::vector<char> done(grid.size(), 0);
    if (journal != nullptr) {
        for (const auto &entry : journal->recovered()) {
            // Only Ok entries count as finished; failed/quarantined
            // ones get a fresh retry budget (a resume without fault
            // injection then converges to the clean run's bytes).
            if (entry.first < grid.size() &&
                entry.second.status == ResultStatus::Ok) {
                results[entry.first] = entry.second;
                done[entry.first] = 1;
                stats::counter("robust.scenario.resumed").inc();
            }
        }
    }

    // The journal append below finishes even when a stop signal has
    // already been recorded — the handler only sets a flag — so a
    // Ctrl-C never tears the record in flight; it only prevents new
    // scenarios from starting.
    std::atomic<int> finished{0};
    const auto finish = [&](size_t i, SweepResult r) {
        if (journal != nullptr) {
            std::string error;
            if (!journal->append(i, r, &error))
                FSMOE_WARN(error);
        }
        results[i] = std::move(r);
        const int n = finished.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opts.stopAfterResults > 0 && n >= opts.stopAfterResults)
            interrupt::requestStop(SIGTERM);
    };

    if (opts.isolate) {
        // The supervisor must stay single-threaded: forking from a
        // threaded process can deadlock the child on locks held by
        // other threads at fork time.
        for (size_t i = 0; i < grid.size(); ++i) {
            if (interrupt::stopRequested())
                break;
            if (done[i] == 0)
                finish(i, attemptIsolated(grid[i], opts));
        }
    } else {
        ThreadPool pool(opts.numThreads);
        std::vector<std::future<void>> pending;
        pending.reserve(grid.size());
        for (size_t i = 0; i < grid.size(); ++i) {
            if (done[i] != 0)
                continue;
            pending.push_back(pool.submit([&, i]() {
                if (interrupt::stopRequested())
                    return; // graceful stop: never start new work
                finish(i, attemptInProcess(grid[i], opts));
            }));
        }
        for (auto &f : pending)
            f.get();
    }
    return results;
}

} // namespace fsmoe::runtime
