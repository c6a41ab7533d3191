/**
 * @file
 * fsmoe_ledger — the layer-ledger benchmark program.
 *
 * Times the three runs users make, cold, in a closed loop with one
 * client (the next iteration starts when the previous one ends):
 *
 *   sweep_demo_cold  SweepEngine::run(demoGrid) + toSweepResults +
 *                    writeResultsJson, what `fsmoe_sweep --out-json`
 *                    does;
 *   tune_cold        one Tuner::tune advisor query;
 *   service_demo     one SweepServer::runJob over the same grid with
 *                    two forked workers, a fresh journal and a merged
 *                    output file.
 *
 * Every iteration is cold: a fresh engine, tuner or server, and
 * core::clearSolverCaches() before it starts. With --trace 0 the
 * program reports end-to-end metrics; with --trace 1 it calls each
 * layer's public functions itself, records spans around those calls,
 * reads the library's existing counters as deltas around them, and
 * reports per-layer metrics plus a Chrome trace. It measures from the
 * outside: nothing under src/ knows it is being measured.
 *
 * The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * The exit code is 0 only when every output check passed and the
 * build is optimized, unsanitized and unaudited.
 */
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/audit.h"
#include "base/fileio.h"
#include "base/json.h"
#include "base/sanitizers.h"
#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/solver_cache.h"
#include "ledger_math.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "runtime/tuner.h"
#include "service/job.h"
#include "service/sweep_server.h"
#include "sim/simulator.h"

extern char **environ;

namespace {

using namespace fsmoe;
using Clock = std::chrono::steady_clock;

const char *const kOutDir = ".bench_out";
const char *const kBaselineGrid = "bench/baselines/demo_grid.json";
const char *const kBaselineTune = "bench/baselines/demo_tune.json";
constexpr uint64_t kDefaultSeed = 0;
constexpr int kSetupSpawns = 31;
constexpr int kServiceWorkers = 2;
/// What the host speed probe takes on a host at reference speed.
constexpr double kProbeNominalMs = 4.0;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** CLOCK_MONOTONIC in ns: comparable between parent and child. */
int64_t
monotonicNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Host speed probe: a fixed compute-bound loop that runs no fsmoe
 * code; the median of five reps, ms. The benchmark's host is shared,
 * and its speed drifts by 20-40% over minutes. The program's compute
 * slows in step with this loop (a pointer chase over a few MB tracked
 * it far worse), so each run times the probe before every iteration
 * and scales its timings by kProbeNominalMs / probe median: the drift
 * cancels between runs.
 */
volatile double probeSink = 0.0;

double
probeMs()
{
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        uint64_t x = 88172645463325252ULL;
        double sum = 0.0;
        for (int i = 0; i < 400000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const double v = static_cast<double>(x >> 11) * 0x1.0p-53;
            sum += v > 0.3 ? std::sqrt(v) : v / (1.0 + sum * 1e-9);
        }
        probeSink = sum; // keeps the loop from being optimised away
        reps.push_back(msBetween(t0, Clock::now()));
    }
    // The median rep: a preemption inside one rep is not host speed.
    return ledger::median(reps);
}

/**
 * Hypervisor steal of @p cpus since boot, summed, ms (the "cpuN" lines
 * of /proc/stat). On a shared VM the hypervisor deschedules busy
 * vCPUs: wall time then stretches while CPU time, which excludes
 * steal, does not. Idle vCPUs accrue steal too, so only the steal of
 * the CPUs a workload is pinned to says what that workload lost.
 */
double
stealMs(const std::vector<int> &cpus)
{
    std::ifstream in("/proc/stat");
    std::string line;
    uint64_t ticks = 0;
    size_t found = 0;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        uint64_t v[8] = {}; // user nice system idle iowait irq softirq steal
        fields >> name;
        for (int cpu : cpus) {
            if (name != "cpu" + std::to_string(cpu))
                continue;
            for (uint64_t &f : v)
                fields >> f;
            if (!fields)
                break;
            ticks += v[7];
            ++found;
        }
    }
    if (found != cpus.size())
        throw std::runtime_error("cannot read steal time from /proc/stat");
    return static_cast<double>(ticks) * 1e3 / sysconf(_SC_CLK_TCK);
}

/**
 * Pin this thread, the threads it creates and the processes it forks
 * from now on to @p count CPUs, starting with the one it runs on, and
 * return them; count 0 allows every online CPU again.
 */
std::vector<int>
pinCpus(int count)
{
    const int n = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    const int first = sched_getcpu();
    if (first < 0)
        throw std::runtime_error("cannot tell which CPU this runs on");
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < (count > 0 ? std::min(count, n) : n); ++i) {
        const int cpu = count > 0 ? (first + i) % n : i;
        CPU_SET(cpu, &set);
        cpus.push_back(cpu);
    }
    if (sched_setaffinity(0, sizeof set, &set) != 0)
        throw std::runtime_error("cannot set the CPU affinity");
    return count > 0 ? cpus : std::vector<int>{};
}

/** User + system CPU of this process and its reaped children, ms. */
double
cpuMs()
{
    double ms = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        struct rusage ru;
        getrusage(who, &ru);
        for (const struct timeval &tv : {ru.ru_utime, ru.ru_stime})
            ms += tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
    }
    return ms;
}

/** A numeric field of /proc/self/status, e.g. "VmHWM" or "Threads". */
double
procStatus(const std::string &field)
{
    std::string status;
    if (fileio::readTextFile("/proc/self/status", &status)) {
        const size_t at = status.find("\n" + field + ":");
        if (at != std::string::npos)
            return std::stod(status.substr(at + field.size() + 2));
    }
    throw std::runtime_error("cannot read " + field +
                             " from /proc/self/status");
}

/**
 * Peak resident set of this process image, MB. Read from VmHWM, not
 * ru_maxrss: Linux carries ru_maxrss across exec, so it would report
 * the launching process's footprint whenever that was larger.
 */
double
peakRssMb()
{
    return procStatus("VmHWM") / 1024.0; // kB
}

/** SweepServer forks its workers: no other thread may exist then. */
void
requireSingleThreaded()
{
    if (procStatus("Threads") != 1)
        throw std::runtime_error("a thread is alive while the service "
                                 "forks its workers");
}

// ---------------------------------------------------------------------
// Build and environment guard.
// ---------------------------------------------------------------------

struct BuildEnv
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    bool optimized = true;
#else
    bool optimized = false;
#endif
    bool sanitized = FSMOE_SANITIZERS_ENABLED != 0;
    bool audited = FSMOE_AUDIT_ENABLED != 0;
    std::string buildType = FSMOE_LEDGER_BUILD_TYPE;
#ifdef __clang__
    std::string compiler = "clang " __clang_version__;
#else
    std::string compiler = "gcc " __VERSION__;
#endif
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);

    bool valid() const { return optimized && !sanitized && !audited; }

    std::string describe() const
    {
        std::ostringstream oss;
        oss << "nproc=" << nproc << " compiler=\"" << compiler
            << "\" build=" << buildType
            << " optimized=" << (optimized ? "yes" : "no")
            << " sanitized=" << (sanitized ? "yes" : "no")
            << " audited=" << (audited ? "yes" : "no")
            << " valid=" << (valid() ? "yes" : "NO");
        return oss.str();
    }
};

// ---------------------------------------------------------------------
// Options and seeded inputs.
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false; ///< Child mode: set up, report, exit.
    std::string self;        ///< argv[0], re-spawned to time set-up.
};

uint64_t
splitmix64(uint64_t *state)
{
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The program's inputs for one seed. The default seed gives the
 * blessed inputs (demo grid over batches {1,2}; the demo advisor
 * query at batch 1); other seeds draw two batches from {1,2,4,8} and
 * a tune batch from {1,2,4}.
 */
struct Inputs
{
    std::vector<int64_t> batches{1, 2};
    int64_t tuneBatch = 1;

    bool blessedGrid() const
    {
        return batches == std::vector<int64_t>{1, 2};
    }
    bool blessedTune() const { return tuneBatch == 1; }
};

Inputs
drawInputs(uint64_t seed)
{
    Inputs in;
    if (seed == kDefaultSeed)
        return in;
    uint64_t state = seed;
    const int64_t pool[] = {1, 2, 4, 8};
    const size_t a = splitmix64(&state) % 4;
    size_t b = splitmix64(&state) % 3;
    if (b >= a)
        ++b;
    in.batches = {pool[std::min(a, b)], pool[std::max(a, b)]};
    in.tuneBatch = pool[splitmix64(&state) % 3];
    return in;
}

// ---------------------------------------------------------------------
// Counters the library already keeps, read as deltas around calls.
// ---------------------------------------------------------------------

struct Counts
{
    uint64_t simRuns = 0;
    uint64_t simTasks = 0;
    uint64_t finalRuns = 0; ///< Engine simulations of built graphs.
    uint64_t pipelineCold = 0;
    uint64_t pipelineHits = 0;
    uint64_t partitionCold = 0;
    uint64_t partitionHits = 0;
    double solveMs = 0.0;
    uint64_t streamed = 0;
    uint64_t journalAppends = 0;
    uint64_t shardsAssigned = 0;
    uint64_t shardsReassigned = 0;
    uint64_t workersSpawned = 0;
    uint64_t workersRestarted = 0;
    uint64_t heartbeatsMissed = 0; ///< Timing-dependent, not work.

    static Counts read()
    {
        struct Refs
        {
            stats::Counter &runs = stats::counter("sim.runs");
            stats::Counter &tasks = stats::counter("sim.tasks.executed");
            stats::Histogram &simulate =
                stats::histogram("sweep.simulate.ms");
            stats::Counter &streamed =
                stats::counter("service.results.streamed");
            stats::Counter &appends =
                stats::counter("robust.journal.appends");
            stats::Counter &assigned =
                stats::counter("service.shards.assigned");
            stats::Counter &reassigned =
                stats::counter("service.shards.reassigned");
            stats::Counter &spawned =
                stats::counter("service.workers.spawned");
            stats::Counter &restarted =
                stats::counter("service.workers.restarted");
            stats::Counter &missed =
                stats::counter("service.heartbeats.missed");
        };
        static Refs r;
        const core::SolverCacheStats s = core::solverCacheStats();
        Counts c;
        c.simRuns = r.runs.value();
        c.simTasks = r.tasks.value();
        c.finalRuns = r.simulate.count();
        c.pipelineCold = s.pipelineMisses;
        c.pipelineHits = s.pipelineHits;
        c.partitionCold = s.partitionMisses;
        c.partitionHits = s.partitionHits;
        c.solveMs = s.solveMs;
        c.streamed = r.streamed.value();
        c.journalAppends = r.appends.value();
        c.shardsAssigned = r.assigned.value();
        c.shardsReassigned = r.reassigned.value();
        c.workersSpawned = r.spawned.value();
        c.workersRestarted = r.restarted.value();
        c.heartbeatsMissed = r.missed.value();
        return c;
    }

    /** this - @p before. clearSolverCaches() zeroes the solver
     *  counters, so take both reads after it. */
    Counts since(const Counts &b) const
    {
        Counts d;
        d.simRuns = simRuns - b.simRuns;
        d.simTasks = simTasks - b.simTasks;
        d.finalRuns = finalRuns - b.finalRuns;
        d.pipelineCold = pipelineCold - b.pipelineCold;
        d.pipelineHits = pipelineHits - b.pipelineHits;
        d.partitionCold = partitionCold - b.partitionCold;
        d.partitionHits = partitionHits - b.partitionHits;
        d.solveMs = solveMs - b.solveMs;
        d.streamed = streamed - b.streamed;
        d.journalAppends = journalAppends - b.journalAppends;
        d.shardsAssigned = shardsAssigned - b.shardsAssigned;
        d.shardsReassigned = shardsReassigned - b.shardsReassigned;
        d.workersSpawned = workersSpawned - b.workersSpawned;
        d.workersRestarted = workersRestarted - b.workersRestarted;
        d.heartbeatsMissed = heartbeatsMissed - b.heartbeatsMissed;
        return d;
    }
};

/** Named deterministic work counts: must repeat exactly. */
using WorkCounts = std::vector<std::pair<std::string, uint64_t>>;

std::string
formatCounts(const WorkCounts &w)
{
    std::string s;
    for (const auto &kv : w)
        s += (s.empty() ? "" : " ") + kv.first + "=" +
             std::to_string(kv.second);
    return s;
}

// ---------------------------------------------------------------------
// Spans, kept in memory and written out once at the end.
// ---------------------------------------------------------------------

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string label;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;
    };

    /** RAII span: opens at construction, closes at destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string name, std::string label = "")
            : t_(t), index_(t.open(std::move(name), std::move(label)))
        {
        }
        ~Scope() { t_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int index_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    double durationMs(int i) const
    {
        return (spans_[i].endUs - spans_[i].startUs) / 1e3;
    }

    /** Self time of every span, ms (duration minus child coverage). */
    std::vector<double> selfMs() const
    {
        std::vector<std::vector<ledger::Interval>> kids(spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                kids[s.parent].push_back({s.startUs, s.endUs});
        std::vector<double> out(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            out[i] = ledger::selfTime(spans_[i].startUs, spans_[i].endUs,
                                      kids[i]) /
                     1e3;
        return out;
    }

    /** Chrome trace_event JSON: one complete ("X") event per span. */
    std::string chromeJson() const
    {
        std::ostringstream oss;
        oss << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            oss << (i ? ",\n" : "\n") << "{\"name\":\""
                << json::escape(s.name) << "\",\"ph\":\"X\",\"pid\":1,"
                << "\"tid\":1,\"ts\":" << json::fmtDouble(s.startUs)
                << ",\"dur\":" << json::fmtDouble(s.endUs - s.startUs)
                << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
            if (!s.label.empty())
                oss << ",\"label\":\"" << json::escape(s.label) << "\"";
            oss << "}}";
        }
        oss << "\n],\"displayTimeUnit\":\"ms\"}\n";
        return oss.str();
    }

  private:
    int open(std::string name, std::string label)
    {
        Span s;
        s.name = std::move(name);
        s.label = std::move(label);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.startUs = nowUs();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int index)
    {
        spans_[index].endUs = nowUs();
        stack_.pop_back();
    }

    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---------------------------------------------------------------------
// Metric tables: every name here is listed in BENCHMARK.json.
// ---------------------------------------------------------------------

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"scenarios_per_s", "scenarios/s"},
        {"query_ms_p50", "ms"},
        {"cpu_ms_p50", "ms"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const char *const kSlugs[] = {"fsmoe",          "fsmoe-no-iio", "tutel",
                              "tutel-improved", "pipemoe-lina", "ds-moe"};

const std::vector<MetricDef> &
layerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"scenario.make_cost_ms", "ms"},
            {"scenario.make_cost_calls", "count"},
        };
        for (const char *slug : kSlugs)
            d.push_back({std::string("schedules.build_ms.") + slug, "ms"});
        for (const char *slug : kSlugs)
            d.push_back(
                {std::string("schedules.build_calls.") + slug, "count"});
        const std::vector<MetricDef> rest = {
            {"solver.solve_ms", "ms"},
            {"solver.pipeline_cold", "count"},
            {"solver.partition_cold", "count"},
            {"solver.hit_ratio", "fraction"},
            {"degree_search.sims", "count"},
            {"degree_search.tasks", "count"},
            {"sim.final_ms", "ms"},
            {"sim.final_runs", "count"},
            {"sim.final_tasks", "count"},
            {"sim.ns_per_task", "ns"},
            {"sim.useful_ratio", "fraction"},
            {"sweep_engine.cost_cache_hits", "count"},
            {"sweep_engine.cost_cache_misses", "count"},
            {"sweep_engine.sim_cache_hits", "count"},
            {"sweep_engine.sim_cache_misses", "count"},
            {"result_store.encode_ms", "ms"},
            {"result_store.write_ms", "ms"},
            {"result_store.bytes", "bytes"},
            {"tuner.specs_evaluated", "count"},
            {"tuner.sims", "count"},
            {"tuner.sims_in_build", "count"},
            {"tuner.tasks", "count"},
            {"tuner.engine_build_ms", "ms"},
            {"tuner.engine_simulate_ms", "ms"},
            {"tuner.solver_ms", "ms"},
            {"tuner.frontier_size", "count"},
            {"tuner.sim_cache_hit_ratio", "fraction"},
            {"service.job_ms", "ms"},
            {"service.overhead_ms", "ms"},
            {"service.results_streamed", "count"},
            {"service.journal_appends", "count"},
            {"service.shards_assigned", "count"},
            {"service.shards_reassigned", "count"},
            {"service.workers_spawned", "count"},
            {"service.workers_restarted", "count"},
            {"service.heartbeats_missed", "count"},
            {"share.make_cost", "fraction"},
            {"share.solver", "fraction"},
            {"share.build_other", "fraction"},
            {"share.sim_final", "fraction"},
            {"share.result_store", "fraction"},
            {"share.service", "fraction"},
            {"share.unattributed", "fraction"},
            {"trace.iteration_ms", "ms"},
            {"trace.untraced_ms", "ms"},
            {"trace.overhead_ratio", "ratio"},
            {"host.probe_ms", "ms"},
            {"host.steal_ms", "ms"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

/** Schedule spec -> metric slug: "PipeMoE+Lina" -> "pipemoe-lina". */
std::string
slugOf(const std::string &spec)
{
    std::string slug = spec.substr(0, spec.find('?'));
    for (char &c : slug)
        c = c == '+' ? '-' : static_cast<char>(std::tolower(c));
    return slug;
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/** Everything set-up builds before the first timed iteration. */
struct Setup
{
    std::string workload;
    Inputs inputs;
    std::vector<runtime::Scenario> grid; ///< Sweep and service.
    runtime::TuneQuery query;            ///< Tune.
    service::JobSpec job;                ///< Service.
    std::string journalPath;
    std::string outPath;
    std::string baseline; ///< Blessed bytes, when the inputs are blessed.
    bool blessed = false;
    std::vector<int> pinnedCpus; ///< CPUs the timed loop runs on.

    size_t unitsPerIteration() const
    {
        return workload == "tune_cold" ? 1 : grid.size();
    }
};

Setup
setUp(const Options &opts)
{
    Setup s;
    s.workload = opts.workload;
    s.inputs = drawInputs(opts.seed);
    if (::mkdir(kOutDir, 0755) != 0 && errno != EEXIST)
        throw std::runtime_error(std::string("cannot create ") + kOutDir);
    s.outPath = std::string(kOutDir) + "/" + s.workload + ".out.json";
    std::string baselinePath;
    if (s.workload == "tune_cold") {
        s.query.model = "gpt2xl-moe";
        s.query.cluster = "testbedA";
        s.query.seqLen = 1024;
        s.query.batch = s.inputs.tuneBatch;
        s.blessed = s.inputs.blessedTune();
        baselinePath = kBaselineTune;
    } else if (s.workload == "sweep_demo_cold" ||
               s.workload == "service_demo") {
        s.grid = runtime::demoGrid(s.inputs.batches);
        s.blessed = s.inputs.blessedGrid();
        baselinePath = kBaselineGrid;
        if (s.workload == "service_demo") {
            s.job.name = "ledger";
            s.job.batches = s.inputs.batches;
            s.job.outPath = s.outPath;
            s.journalPath = std::string(kOutDir) + "/service_demo.journal";
        }
    } else {
        throw std::invalid_argument("unknown workload '" + s.workload +
                                    "' (sweep_demo_cold, tune_cold, "
                                    "service_demo)");
    }
    if (s.blessed) {
        std::string error;
        if (!fileio::readTextFile(baselinePath, &s.baseline, &error))
            throw std::runtime_error("cannot read baseline: " + error);
    }
    return s;
}

/** One timed iteration's observations. */
struct Sample
{
    double wallMs = 0.0;
    double cpuMs = 0.0;
    double probeMs = 0.0; ///< Host speed probe just before, untimed.
    double stealMs = 0.0; ///< Steal on the pinned CPUs meanwhile.
    std::string bytes; ///< The output, checked after the timer stops.
    size_t failedUnits = 0;
    WorkCounts work;
    size_t specsEvaluated = 0; ///< Tune only.
    runtime::SweepStats engineStats; ///< Sweep and tune.
};

std::string
readOutput(const std::string &path)
{
    std::string text, error;
    if (!fileio::readTextFile(path, &text, &error))
        throw std::runtime_error("cannot read output: " + error);
    return text;
}

/** Work counts the iteration's counter deltas must repeat exactly. */
WorkCounts
workCounts(const Setup &s, const Counts &d, size_t specs)
{
    if (s.workload == "service_demo")
        return {{"results_streamed", d.streamed},
                {"shards_assigned", d.shardsAssigned},
                {"journal_appends", d.journalAppends}};
    WorkCounts w = {{"sims", d.simRuns},
                    {"tasks", d.simTasks},
                    {"pipeline_cold", d.pipelineCold},
                    {"partition_cold", d.partitionCold}};
    if (s.workload == "tune_cold")
        w.push_back({"specs_evaluated", specs});
    return w;
}

/**
 * One cold, untraced iteration: exactly the calls a user's run makes.
 * Counter reads and the output read-back sit outside the timer.
 */
Sample
runIteration(const Setup &s)
{
    core::clearSolverCaches();
    if (s.workload == "service_demo")
        ::unlink(s.journalPath.c_str());
    Sample out;
    const Counts c0 = Counts::read();
    const double steal0 = stealMs(s.pinnedCpus);
    const double cpu0 = cpuMs();
    const auto t0 = Clock::now();
    if (s.workload == "sweep_demo_cold") {
        runtime::SweepEngine engine(runtime::SweepOptions{1});
        const auto results = engine.run(s.grid);
        if (!runtime::writeResultsJson(s.outPath,
                                       runtime::toSweepResults(results)))
            throw std::runtime_error("cannot write " + s.outPath);
        out.engineStats = engine.stats();
    } else if (s.workload == "tune_cold") {
        runtime::TuneOptions topts;
        topts.numThreads = 1;
        runtime::Tuner tuner(topts);
        const runtime::TuneAnswer answer = tuner.tune(s.query);
        out.bytes = runtime::Tuner::answerJson(answer);
        out.specsEvaluated = answer.evaluated;
        out.engineStats = tuner.engine().stats();
    } else {
        requireSingleThreaded();
        service::ServerOptions sopts;
        sopts.numWorkers = kServiceWorkers;
        service::SweepServer server(sopts);
        service::JobOutcome outcome;
        server.runJob(s.job, s.journalPath, /*resume=*/false, &outcome);
        if (!outcome.ok)
            out.failedUnits = s.grid.size();
        else
            out.failedUnits = outcome.quarantined;
    }
    const auto t1 = Clock::now();
    out.cpuMs = cpuMs() - cpu0;
    out.stealMs = stealMs(s.pinnedCpus) - steal0;
    out.wallMs = msBetween(t0, t1);
    out.work = workCounts(s, Counts::read().since(c0), out.specsEvaluated);
    if (s.workload != "tune_cold" && out.failedUnits < s.grid.size())
        out.bytes = readOutput(s.outPath);
    return out;
}

/**
 * The same inputs on a 2-thread engine (or tuner): output bytes must
 * not depend on the thread count.
 */
std::string
referenceOutput(const Setup &s)
{
    pinCpus(0); // two threads need more than one CPU; nothing timed follows
    core::clearSolverCaches();
    if (s.workload == "tune_cold") {
        runtime::TuneOptions topts;
        topts.numThreads = 2;
        runtime::Tuner tuner(topts);
        return runtime::Tuner::answerJson(tuner.tune(s.query));
    }
    runtime::SweepEngine engine(runtime::SweepOptions{2});
    return runtime::toJson(runtime::toSweepResults(engine.run(s.grid)));
}

/** Checks every iteration's output and work counts as it lands. */
class Checker
{
  public:
    explicit Checker(const Setup &s) : s_(s) {}

    void check(const Sample &x)
    {
        attempted_ += s_.unitsPerIteration();
        failed_ += x.failedUnits;
        bool bad = false;
        if (!seen_) {
            seen_ = true;
            first_ = x.bytes;
            firstWork_ = x.work;
            if (s_.blessed && x.bytes != s_.baseline) {
                note("output differs from the blessed baseline");
                bad = true;
            }
        } else if (x.bytes != first_) {
            note("output differs from the first iteration's");
            bad = true;
        }
        if (x.work != firstWork_) {
            note("work counts drifted: " + formatCounts(x.work) +
                 " vs first " + formatCounts(firstWork_));
            bad = true;
        }
        if (bad)
            failed_ += s_.unitsPerIteration() - x.failedUnits;
    }

    /** A 2-thread run of the same inputs must match byte for byte. */
    void checkReference(const std::string &bytes)
    {
        attempted_ += s_.unitsPerIteration();
        if (bytes != first_) {
            note("2-thread reference output differs");
            failed_ += s_.unitsPerIteration();
        }
    }

    /** The traced run's output must equal the untraced run's. */
    void checkTraced(const std::string &bytes)
    {
        attempted_ += s_.unitsPerIteration();
        if (bytes != first_) {
            note("traced output differs from the untraced output");
            failed_ += s_.unitsPerIteration();
        }
    }

    size_t attempted() const { return attempted_; }
    size_t failed() const { return failed_; }
    const WorkCounts &work() const { return firstWork_; }

  private:
    void note(const std::string &what)
    {
        std::fprintf(stderr, "ledger: CHECK FAILED (%s): %s\n",
                     s_.workload.c_str(), what.c_str());
    }

    const Setup &s_;
    bool seen_ = false;
    std::string first_;
    WorkCounts firstWork_;
    size_t attempted_ = 0;
    size_t failed_ = 0;
};

/** Closed loop: iterate until @p seconds elapse (at least min_iters). */
std::vector<Sample>
closedLoop(const Setup &s, double seconds, int min_iters, Checker &checker)
{
    std::vector<Sample> samples;
    const auto start = Clock::now();
    while (static_cast<int>(samples.size()) < min_iters ||
           msBetween(start, Clock::now()) < seconds * 1e3) {
        const double probe = probeMs();
        samples.push_back(runIteration(s));
        samples.back().probeMs = probe;
        checker.check(samples.back());
        // Release, not clear: kept capacity would grow the peak RSS
        // with the number of iterations.
        std::string().swap(samples.back().bytes);
        WorkCounts().swap(samples.back().work);
    }
    return samples;
}

/**
 * Set-up time: re-spawn this binary kSetupSpawns times in
 * --setup-only mode and take the median time from spawn to the end
 * of set-up (registries, grid or query, baselines). Covers exec and
 * static initialisation, so work moved there shows. The host speed
 * probe runs before each spawn.
 */
struct SetupTiming
{
    double seconds = 0.0; ///< Median, raw.
    double probeMs = 0.0; ///< Median host speed probe alongside.
};

SetupTiming
measureSetup(const Options &opts)
{
    std::vector<double> secs, probes;
    const std::string seed = std::to_string(opts.seed);
    for (int i = 0; i < kSetupSpawns; ++i) {
        probes.push_back(probeMs());
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("pipe failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, fds[0]);
        posix_spawn_file_actions_addclose(&fa, fds[1]);
        std::vector<std::string> args = {opts.self,         "--setup-only",
                                         "--workload",      opts.workload,
                                         "--seed",          seed};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_t pid = 0;
        const int64_t t0 = monotonicNs();
        const int rc = posix_spawn(&pid, opts.self.c_str(), &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(fds[1]);
        std::string text;
        char buf[256];
        ssize_t n = 0;
        while (rc == 0 && ((n = ::read(fds[0], buf, sizeof buf)) > 0 ||
                           (n < 0 && errno == EINTR)))
            if (n > 0)
                text.append(buf, static_cast<size_t>(n));
        ::close(fds[0]);
        int status = 0;
        if (rc == 0)
            while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
            }
        if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
            text.empty())
            throw std::runtime_error("set-up spawn failed");
        secs.push_back((std::stoll(text) - t0) / 1e9);
    }
    return SetupTiming{ledger::median(secs), ledger::median(probes)};
}

// ---------------------------------------------------------------------
// Traced iterations: fsmoe_ledger calls each layer itself.
// ---------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/**
 * The sweep, layer by layer on one thread in the engine's order:
 * makeCost memoised by costKey, Schedule::create + build, the final
 * Simulator::run, then toSweepResults/toJson and writeResultsJson.
 * Solver and degree-search work inside build() is read from the
 * solver cache and sim counters around each build call.
 */
std::string
tracedSweepIteration(const Setup &s, Tracer &tracer, Metrics *m)
{
    core::clearSolverCaches();
    Metrics &mm = *m;
    std::string bytes;
    Tracer::Scope iteration(tracer, "iteration", s.workload);
    std::map<std::string, std::shared_ptr<const core::ModelCost>> costs;
    std::vector<runtime::ScenarioResult> results(s.grid.size());
    for (size_t i = 0; i < s.grid.size(); ++i) {
        const runtime::Scenario &sc = s.grid[i];
        Tracer::Scope scenario(tracer, "scenario", sc.label());
        std::shared_ptr<const core::ModelCost> &cost = costs[sc.costKey()];
        if (cost == nullptr) {
            Tracer::Scope span(tracer, "scenario.make_cost");
            cost = std::make_shared<const core::ModelCost>(
                runtime::ScenarioRegistry::instance().makeCost(sc));
            mm["scenario.make_cost_calls"] += 1;
        }
        const std::string slug = slugOf(sc.schedule);
        const Counts c0 = Counts::read();
        sim::TaskGraph graph;
        {
            Tracer::Scope span(tracer, "schedules.build." + slug);
            graph = core::Schedule::create(sc.schedule)->build(*cost);
        }
        const Counts d = Counts::read().since(c0);
        mm["schedules.build_calls." + slug] += 1;
        mm["solver.solve_ms"] += d.solveMs;
        mm["solver.pipeline_cold"] += d.pipelineCold;
        mm["solver.partition_cold"] += d.partitionCold;
        mm["solver.hits"] += d.pipelineHits + d.partitionHits;
        mm["degree_search.sims"] += d.simRuns;
        mm["degree_search.tasks"] += d.simTasks;
        runtime::ScenarioResult &r = results[i];
        {
            Tracer::Scope span(tracer, "sim.final");
            r.sim = sim::Simulator{}.run(graph);
        }
        mm["sim.final_runs"] += 1;
        mm["sim.final_tasks"] += graph.size();
        r.scenario = sc;
        r.makespanMs = r.sim.makespan;
    }
    std::vector<runtime::SweepResult> rows;
    {
        Tracer::Scope span(tracer, "result_store.encode");
        rows = runtime::toSweepResults(results);
        bytes = runtime::toJson(rows);
    }
    {
        Tracer::Scope span(tracer, "result_store.write");
        if (!runtime::writeResultsJson(s.outPath, rows))
            throw std::runtime_error("cannot write " + s.outPath);
    }
    mm["result_store.bytes"] = static_cast<double>(bytes.size());
    return bytes;
}

/**
 * One advisor query: its inner layers run inside the tuner's engine,
 * so their split comes from the engine's stats and the library's
 * counters read around the call.
 */
std::string
tracedTuneIteration(const Setup &s, Tracer &tracer, Metrics *m)
{
    core::clearSolverCaches();
    Metrics &mm = *m;
    runtime::TuneOptions topts;
    topts.numThreads = 1;
    runtime::Tuner tuner(topts);
    const Counts c0 = Counts::read();
    runtime::TuneAnswer answer;
    {
        Tracer::Scope iteration(tracer, "iteration", s.workload);
        Tracer::Scope span(tracer, "tuner.tune");
        answer = tuner.tune(s.query);
    }
    const Counts d = Counts::read().since(c0);
    const runtime::SweepStats es = tuner.engine().stats();
    const double inBuild = static_cast<double>(d.simRuns - d.finalRuns);
    mm["tuner.specs_evaluated"] = static_cast<double>(answer.evaluated);
    mm["tuner.sims"] = static_cast<double>(d.simRuns);
    mm["tuner.sims_in_build"] = inBuild;
    mm["tuner.tasks"] = static_cast<double>(d.simTasks);
    mm["tuner.engine_build_ms"] = es.graphBuildMs;
    mm["tuner.engine_simulate_ms"] = es.simulateMs;
    mm["tuner.solver_ms"] = d.solveMs;
    mm["tuner.frontier_size"] = static_cast<double>(answer.frontier.size());
    const double probes =
        static_cast<double>(es.simCacheHits + es.simCacheMisses);
    mm["tuner.sim_cache_hit_ratio"] =
        probes > 0 ? static_cast<double>(es.simCacheHits) / probes : 0.0;
    mm["scenario.make_cost_ms"] = es.costDeriveMs;
    mm["scenario.make_cost_calls"] = static_cast<double>(es.costCacheMisses);
    mm["solver.solve_ms"] = d.solveMs;
    mm["solver.pipeline_cold"] = static_cast<double>(d.pipelineCold);
    mm["solver.partition_cold"] = static_cast<double>(d.partitionCold);
    mm["solver.hits"] =
        static_cast<double>(d.pipelineHits + d.partitionHits);
    mm["degree_search.sims"] = inBuild;
    mm["sim.final_runs"] = static_cast<double>(d.finalRuns);
    mm["sim.final_ms"] = es.simulateMs;
    return runtime::Tuner::answerJson(answer);
}

/** One service job with the supervisor's counters read around it. */
std::string
tracedServiceIteration(const Setup &s, Tracer &tracer, Metrics *m)
{
    core::clearSolverCaches();
    ::unlink(s.journalPath.c_str());
    Metrics &mm = *m;
    requireSingleThreaded();
    const Counts c0 = Counts::read();
    service::JobOutcome outcome;
    {
        Tracer::Scope iteration(tracer, "iteration", s.workload);
        Tracer::Scope span(tracer, "service.job");
        service::ServerOptions sopts;
        sopts.numWorkers = kServiceWorkers;
        service::SweepServer(sopts).runJob(s.job, s.journalPath, false,
                                           &outcome);
    }
    if (!outcome.ok || outcome.quarantined != 0)
        throw std::runtime_error("traced service job failed: " +
                                 outcome.error);
    const Counts d = Counts::read().since(c0);
    mm["service.results_streamed"] = static_cast<double>(d.streamed);
    mm["service.journal_appends"] = static_cast<double>(d.journalAppends);
    mm["service.shards_assigned"] = static_cast<double>(d.shardsAssigned);
    mm["service.shards_reassigned"] =
        static_cast<double>(d.shardsReassigned);
    mm["service.workers_spawned"] = static_cast<double>(d.workersSpawned);
    mm["service.workers_restarted"] =
        static_cast<double>(d.workersRestarted);
    mm["service.heartbeats_missed"] =
        static_cast<double>(d.heartbeatsMissed);
    const std::string bytes = readOutput(s.outPath);
    mm["result_store.bytes"] = static_cast<double>(bytes.size());
    return bytes;
}

/** Self-time shares of a traced iteration; they sum to 1. */
const char *const kShares[] = {"share.make_cost",    "share.solver",
                               "share.build_other",  "share.sim_final",
                               "share.result_store", "share.service",
                               "share.unattributed"};

/**
 * Fold one traced iteration's spans (those from @p first on) into
 * layer times and self-time shares of the iteration.
 */
void
foldSpans(const Tracer &tracer, size_t first, Metrics *m)
{
    Metrics &mm = *m;
    const auto &spans = tracer.spans();
    const std::vector<double> self = tracer.selfMs();
    double iterationMs = 0.0, buildSelf = 0.0, unattributed = 0.0;
    for (size_t i = first; i < spans.size(); ++i) {
        const std::string &name = spans[i].name;
        const double ms = tracer.durationMs(static_cast<int>(i));
        if (name == "iteration") {
            iterationMs = ms;
            unattributed += self[i];
        } else if (name == "scenario") {
            unattributed += self[i];
        } else if (name == "scenario.make_cost") {
            mm["scenario.make_cost_ms"] += ms;
            mm["share.make_cost"] += self[i];
        } else if (name.rfind("schedules.build.", 0) == 0) {
            mm["schedules.build_ms." + name.substr(16)] += ms;
            buildSelf += self[i];
        } else if (name == "sim.final") {
            mm["sim.final_ms"] += ms;
            mm["share.sim_final"] += self[i];
        } else if (name == "result_store.encode") {
            mm["result_store.encode_ms"] += ms;
            mm["share.result_store"] += self[i];
        } else if (name == "result_store.write") {
            mm["result_store.write_ms"] += ms;
            mm["share.result_store"] += self[i];
        } else if (name == "service.job") {
            mm["service.job_ms"] += ms; // shares: see layerLedger()
        } else if (name == "tuner.tune") {
            // The tuner's engine stats split its span: solver inside
            // build, the rest of build (degree-search simulations and
            // graph construction), final simulations, cost derivation.
            const double solver = mm["tuner.solver_ms"];
            const double build = mm["tuner.engine_build_ms"];
            mm["share.solver"] += solver;
            mm["share.build_other"] += build - solver;
            mm["share.sim_final"] += mm["tuner.engine_simulate_ms"];
            mm["share.make_cost"] += mm["scenario.make_cost_ms"];
            unattributed += self[i] - build -
                            mm["tuner.engine_simulate_ms"] -
                            mm["scenario.make_cost_ms"];
        }
    }
    if (buildSelf > 0.0) {
        mm["share.solver"] += mm["solver.solve_ms"];
        mm["share.build_other"] += buildSelf - mm["solver.solve_ms"];
    }
    mm["share.unattributed"] += unattributed;
    mm["trace.iteration_ms"] = iterationMs;
    for (const char *share : kShares)
        mm[share] = iterationMs > 0 ? mm[share] / iterationMs : 0.0;
}

/** Derived per-layer ratios, once the raw values are in. */
void
finishLayerMetrics(Metrics *m)
{
    Metrics &mm = *m;
    const double solves =
        mm["solver.pipeline_cold"] + mm["solver.partition_cold"];
    const double lookups = solves + mm["solver.hits"];
    mm["solver.hit_ratio"] = lookups > 0 ? mm["solver.hits"] / lookups : 0;
    mm.erase("solver.hits");
    if (mm["sim.final_tasks"] > 0)
        mm["sim.ns_per_task"] =
            mm["sim.final_ms"] * 1e6 / mm["sim.final_tasks"];
    const double runs = mm["sim.final_runs"] + mm["degree_search.sims"];
    mm["sim.useful_ratio"] = runs > 0 ? mm["sim.final_runs"] / runs : 0.0;
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Result
{
    bool correct = false;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::pair<MetricDef, double>> metrics;
};

std::string
resultJson(const Result &r)
{
    std::ostringstream oss;
    oss << "{\"correct\": " << (r.correct ? "true" : "false")
        << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &kv = r.metrics[i];
        oss << (i ? ", " : "") << "\"" << kv.first.name
            << "\": {\"value\": " << json::fmtDouble(kv.second)
            << ", \"unit\": \"" << kv.first.unit << "\"}";
    }
    oss << "}}";
    return oss.str();
}

/** Median, spread and (when supported) tail of per-iteration times. */
void
printTiming(const char *name, const std::vector<double> &v)
{
    std::printf("  %-16s %12.4f ms           median of n=%zu", name,
                ledger::median(v), v.size());
    if (v.size() >= 2)
        std::printf(", iqr %.1f%%", 100.0 * ledger::relativeIqr(v));
    const ledger::Tail tail = ledger::highestSupportedTail(v);
    if (tail.percentile > 0)
        std::printf(", p%g %.4f ms (%zu beyond)", tail.percentile,
                    tail.value, tail.beyond);
    std::printf("\n");
}

/** Per-run record with environment and raw samples, for later study. */
void
writeRecord(const Options &opts, const BuildEnv &env, const Result &r,
            const std::vector<Sample> &samples, const WorkCounts &work)
{
    std::ostringstream oss;
    oss << "{\"workload\": \"" << opts.workload << "\", \"seed\": "
        << opts.seed << ", \"trace\": " << (opts.trace ? 1 : 0)
        << ",\n \"env\": {\"nproc\": " << env.nproc << ", \"compiler\": \""
        << json::escape(env.compiler) << "\", \"build_type\": \""
        << env.buildType << "\", \"valid\": "
        << (env.valid() ? "true" : "false") << "},\n \"wall_ms\": [";
    for (size_t i = 0; i < samples.size(); ++i)
        oss << (i ? ", " : "") << json::fmtDouble(samples[i].wallMs);
    oss << "],\n \"cpu_ms\": [";
    for (size_t i = 0; i < samples.size(); ++i)
        oss << (i ? ", " : "") << json::fmtDouble(samples[i].cpuMs);
    oss << "],\n \"steal_ms\": [";
    for (size_t i = 0; i < samples.size(); ++i)
        oss << (i ? ", " : "") << json::fmtDouble(samples[i].stealMs);
    oss << "],\n \"probe_ms\": [";
    for (size_t i = 0; i < samples.size(); ++i)
        oss << (i ? ", " : "") << json::fmtDouble(samples[i].probeMs);
    oss << "],\n \"work_counts\": {";
    for (size_t i = 0; i < work.size(); ++i)
        oss << (i ? ", " : "") << "\"" << work[i].first
            << "\": " << work[i].second;
    oss << "},\n \"result\": " << resultJson(r) << "}\n";
    const std::string path = std::string(kOutDir) + "/" + opts.workload +
                             "-seed" + std::to_string(opts.seed) +
                             (opts.trace ? "-trace" : "") + ".json";
    std::string error;
    if (!fileio::atomicWriteFile(path, oss.str(), &error))
        throw std::runtime_error("cannot write record: " + error);
}

/**
 * The end-to-end metrics of an untraced run, as on a dedicated host at
 * reference speed. Each iteration's wall time is multiplied by
 * cpu / (cpu + steal of its pinned CPUs), the share of its CPU time
 * the hypervisor left it; for one busy CPU that is wall - steal. The
 * medians are then scaled by the speed probe (see probeMs). Raw
 * medians are printed too.
 */
void
endToEnd(const Setup &s, const std::vector<Sample> &samples,
         const SetupTiming &setup, Checker &checker, Result *r)
{
    std::vector<double> wall, unstolen, cpu, steal, probe;
    for (const Sample &x : samples) {
        wall.push_back(x.wallMs);
        unstolen.push_back(x.wallMs * x.cpuMs / (x.cpuMs + x.stealMs));
        cpu.push_back(x.cpuMs);
        steal.push_back(x.stealMs);
        probe.push_back(x.probeMs);
    }
    const double scale = kProbeNominalMs / ledger::median(probe);
    const double wallMs = ledger::median(unstolen) * scale;
    // A tuner query's scenarios are the specs its search evaluates.
    const double units =
        s.workload == "tune_cold"
            ? static_cast<double>(samples.front().specsEvaluated)
            : static_cast<double>(s.grid.size());
    const double values[] = {
        units / (wallMs / 1e3), wallMs, ledger::median(cpu) * scale,
        setup.seconds * kProbeNominalMs / setup.probeMs, peakRssMb()};
    for (size_t i = 0; i < endToEndMetrics().size(); ++i)
        r->metrics.push_back({endToEndMetrics()[i], values[i]});
    // After the loop: no thread may exist while the service forks.
    checker.checkReference(referenceOutput(s));

    printTiming("iteration", wall);
    printTiming("less steal", unstolen);
    printTiming("iteration cpu", cpu);
    printTiming("steal", steal);
    printTiming("speed probe", probe);
    std::printf("  set-up           %12.4f ms           median of n=%d, "
                "speed probe %.4f ms\n",
                setup.seconds * 1e3, kSetupSpawns, setup.probeMs);
    std::printf("  timings below are at reference host speed: less steal "
                "x %g ms / speed probe median\n",
                kProbeNominalMs);
    for (const auto &kv : r->metrics) {
        const std::string &name = kv.first.name;
        const size_t n = name == "setup_s"       ? kSetupSpawns
                         : name == "peak_rss_mb" ? 1
                                                 : samples.size();
        std::printf("  %-16s %12.4f %-12s n=%zu\n", name.c_str(), kv.second,
                    kv.first.unit.c_str(), n);
    }
}

/**
 * The per-layer metrics: traced iterations after the untraced ones in
 * @p samples, each layer value the median over traced iterations.
 */
void
layerLedger(const Setup &s, const std::vector<Sample> &samples,
            double seconds, Checker &checker, Result *r)
{
    Tracer tracer;
    std::vector<Metrics> traced;
    const auto start = Clock::now();
    while (traced.size() < 2 ||
           msBetween(start, Clock::now()) < seconds * 1e3) {
        const size_t first = tracer.spans().size();
        Metrics m;
        std::string bytes;
        if (s.workload == "sweep_demo_cold")
            bytes = tracedSweepIteration(s, tracer, &m);
        else if (s.workload == "tune_cold")
            bytes = tracedTuneIteration(s, tracer, &m);
        else
            bytes = tracedServiceIteration(s, tracer, &m);
        checker.checkTraced(bytes);
        foldSpans(tracer, first, &m);
        finishLayerMetrics(&m);
        traced.push_back(std::move(m));
    }
    Metrics med;
    for (const MetricDef &def : layerMetrics()) {
        std::vector<double> v;
        for (Metrics &m : traced)
            v.push_back(m[def.name]);
        med[def.name] = ledger::median(v);
    }
    std::vector<double> wall, probe, steal;
    for (const Sample &x : samples) {
        wall.push_back(x.wallMs);
        probe.push_back(x.probeMs);
        steal.push_back(x.stealMs);
    }
    const double untracedMs = ledger::median(wall);
    med["host.probe_ms"] = ledger::median(probe);
    med["host.steal_ms"] = ledger::median(steal);
    med["trace.untraced_ms"] = untracedMs;
    med["trace.overhead_ratio"] = med["trace.iteration_ms"] / untracedMs;
    // The engine's cache counters come from the untraced run: a fresh
    // engine per iteration, so the last one stands for all.
    if (s.workload != "service_demo") {
        const runtime::SweepStats &es = samples.back().engineStats;
        med["sweep_engine.cost_cache_hits"] = es.costCacheHits;
        med["sweep_engine.cost_cache_misses"] = es.costCacheMisses;
        med["sweep_engine.sim_cache_hits"] = es.simCacheHits;
        med["sweep_engine.sim_cache_misses"] = es.simCacheMisses;
    }
    if (s.workload == "service_demo") {
        // What the service costs over the same sweep in-process on as
        // many threads as it has workers; the rest of a job is the
        // workers' compute, which this process cannot split.
        std::vector<double> refMs;
        for (int i = 0; i < 3; ++i) {
            Tracer::Scope span(tracer, "service.reference_sweep");
            const auto t0 = Clock::now();
            checker.checkReference(referenceOutput(s));
            refMs.push_back(msBetween(t0, Clock::now()));
        }
        med["service.overhead_ms"] =
            med["service.job_ms"] - ledger::median(refMs);
        med["share.service"] =
            med["service.overhead_ms"] / med["service.job_ms"];
        med["share.unattributed"] = 1.0 - med["share.service"];
    } else {
        checker.checkReference(referenceOutput(s));
    }
    const std::string tracePath =
        std::string(kOutDir) + "/trace-" + s.workload + ".json";
    std::string error;
    if (!fileio::atomicWriteFile(tracePath, tracer.chromeJson(), &error))
        throw std::runtime_error("cannot write trace: " + error);
    for (const MetricDef &def : layerMetrics())
        r->metrics.push_back({def, med[def.name]});

    std::printf("  traced %zu iteration(s), %zu spans -> %s\n", traced.size(),
                tracer.spans().size(), tracePath.c_str());
    std::printf("  tracing overhead: traced %.1f ms / untraced median %.1f "
                "ms = %.3f\n",
                med["trace.iteration_ms"], untracedMs,
                med["trace.overhead_ratio"]);
    std::printf("  layer shares of the traced iteration:");
    for (const char *share : kShares)
        if (med[share] != 0.0)
            std::printf(" %s=%.1f%%", share + 6, 100.0 * med[share]);
    std::printf("\n");
    if (s.workload == "tune_cold")
        std::printf("  degree_search.tasks, sim.final_tasks and "
                    "sim.ns_per_task are 0 here: the tuner's final and "
                    "in-build simulations share one task counter (see "
                    "tuner.tasks)\n");
    if (s.workload == "service_demo")
        std::printf("  service.heartbeats_missed is timing-dependent, not "
                    "a work count\n");
    for (const auto &kv : r->metrics)
        std::printf("  %-34s %14.4f %s\n", kv.first.name.c_str(), kv.second,
                    kv.first.unit.c_str());
}

int
run(const Options &opts)
{
    const BuildEnv env;
    // Fault injection is for the robustness suites, never a benchmark.
    ::unsetenv("FSMOE_FAULT");
    Setup s = setUp(opts);
    // Set-up spawns happen before any thread exists in this process.
    const SetupTiming setup = measureSetup(opts);
    // Pinned, the steal of the loop's CPUs is what it lost to the
    // hypervisor: one CPU for sweep and tune, which run one thread at a
    // time, and one per process for the service's supervisor and two
    // workers.
    s.pinnedCpus = pinCpus(s.workload == "service_demo" ? 3 : 1);

    std::printf("ledger %s seed=%llu trace=%d\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? 1 : 0);
    std::printf("  env: %s\n", env.describe().c_str());
    if (s.workload == "tune_cold")
        std::printf("  inputs: gpt2xl-moe/testbedA L=1024 batch=%lld",
                    static_cast<long long>(s.query.batch));
    else
        std::printf("  inputs: demo grid batches={%lld,%lld}, %zu scenarios",
                    static_cast<long long>(s.inputs.batches[0]),
                    static_cast<long long>(s.inputs.batches[1]),
                    s.grid.size());
    std::printf("%s\n", s.blessed ? " (blessed: checked against baseline)"
                                  : " (held out)");

    // A traced run spends half its time untraced, for the overhead.
    const double loopSeconds = opts.trace ? opts.seconds / 2 : opts.seconds;
    Checker checker(s);
    const std::vector<Sample> samples =
        closedLoop(s, loopSeconds, 3, checker);
    std::printf("  work counts per iteration (deterministic): %s\n",
                formatCounts(checker.work()).c_str());

    Result r;
    if (opts.trace)
        layerLedger(s, samples, loopSeconds, checker, &r);
    else
        endToEnd(s, samples, setup, checker, &r);

    r.attempted = checker.attempted();
    r.failed = checker.failed();
    r.correct = r.failed == 0 && env.valid();
    if (!env.valid())
        std::fprintf(stderr, "ledger: result INVALID: the build must be "
                             "optimized, unsanitized and unaudited\n");
    std::printf("  error_rate       %12.6f fraction     %zu failed of %zu "
                "attempted\n",
                r.attempted ? static_cast<double>(r.failed) / r.attempted
                            : 0.0,
                r.failed, r.attempted);
    writeRecord(opts, env, r, samples, checker.work());
    std::printf("%s\n", resultJson(r).c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.self = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = std::stoi(value()) != 0;
        else if (a == "--setup-only")
            o.setupOnly = true;
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opts = parseArgs(argc, argv);
        if (opts.setupOnly) {
            setUp(opts);
            std::printf("%lld\n", static_cast<long long>(monotonicNs()));
            return 0;
        }
        return run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger: error: %s\n", e.what());
        return 2;
    }
}
