/**
 * @file
 * The scenario-sweep engine: fans Scenario evaluations across a
 * ThreadPool and owns every simulation they need, memoizing three
 * things —
 *
 *   1. ModelCost derivation, keyed by Scenario::costKey() (every
 *      field except the schedule), so all schedule variants of one
 *      configuration price the workload once;
 *   2. full SimResults, keyed by (costKey, schedule spec), so repeated
 *      sweeps — warm re-runs, overlapping grids, regression
 *      baselines — skip graph construction and simulation entirely;
 *   3. simulations by graph content, keyed by TaskGraph::digest(), so
 *      each distinct task graph is simulated once per engine however
 *      many specs build it. Auto-degree schedules (Tutel, PipeMoE+Lina
 *      at degree=0) do not run their own degree search: the engine
 *      runs core::searchDegree() with this cache as its makespan
 *      oracle, so "tutel" shares simulations with "tutel?degree=4",
 *      and a search's winning graph is never simulated a second time.
 *      A degree whose lower bound already reaches the search's best
 *      makespan is never digested or looked up (nor built, when the
 *      schedule's pre-build loads rule it out), and the search hands
 *      back the winning graph rather than the engine rebuilding it.
 *      Degree-search entries keep only the makespan; an entry keeps
 *      its full SimResult only once a final graph needs it (plus, while
 *      a search runs, the search's best graph so far), which bounds
 *      the cache's memory by the final graphs.
 *
 * Determinism contract: the simulator itself is single-threaded and
 * deterministic, and the engine parallelises only *across* scenarios —
 * each scenario's graph is built and simulated by exactly one worker,
 * and results land in input order. A sweep on N threads is therefore
 * byte-identical to the same sweep on 1 thread, cached results are
 * byte-identical to recomputed ones (runtime_test and sim_cache_test
 * assert both), and cache hit/miss counts depend only on the scenario
 * list, never on thread timing (see costFor()). For the content cache
 * that takes one more rule: run() evaluates every scenario that runs a
 * degree search after every scenario that does not, so a fixed-degree
 * graph's full result is always in the cache before a search that
 * shares it starts.
 *
 * Thread-safety: run() must not be called concurrently from multiple
 * threads on one engine (results are keyed by input index); stats(),
 * clearCostCache() and clearSimCache() may be called from any thread
 * at any time. The caches persist across run() calls until cleared,
 * and are scoped to the engine: a new engine starts cold.
 */
#ifndef FSMOE_RUNTIME_SWEEP_ENGINE_H
#define FSMOE_RUNTIME_SWEEP_ENGINE_H

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedules/schedule.h"
#include "runtime/scenario.h"
#include "runtime/thread_pool.h"
#include "sim/simulator.h"
#include "sim/task_graph.h"

namespace fsmoe::runtime {

/** Engine configuration. */
struct SweepOptions
{
    /// Worker threads; 0 picks the hardware concurrency.
    int numThreads = 0;
    /// Bounded work-queue depth (backpressure for huge grids).
    size_t queueCapacity = 256;
    /// Also retain each scenario's TaskGraph (needed for Chrome-trace
    /// export; costs memory proportional to grid size). Graphs are
    /// never cached, so every scenario's graph is rebuilt and the
    /// (costKey, schedule) cache is bypassed — its hit/miss counters
    /// do not move — but the SimResult still comes from the content
    /// cache: a graph the engine has simulated is not simulated again.
    bool keepGraphs = false;
    /// Memoize simulations: SimResults by (costKey, schedule) and
    /// simulated graphs by content. Disable to force re-simulation
    /// (e.g. when benchmarking the simulator itself).
    bool enableSimCache = true;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    double makespanMs = 0.0;
    sim::SimResult sim;   ///< Full per-task timing.
    sim::TaskGraph graph; ///< Populated only with keepGraphs.
};

/** Counters of one engine lifetime (caches persist across run calls). */
struct SweepStats
{
    size_t scenariosRun = 0;
    size_t costCacheHits = 0;
    size_t costCacheMisses = 0;
    size_t simCacheHits = 0;
    size_t simCacheMisses = 0;
    /// Content-cache lookups (degree-search and final graphs) served
    /// without simulating, and those that ran Simulator::run.
    size_t graphCacheHits = 0;
    size_t graphCacheMisses = 0;
    double lastSweepWallMs = 0.0;

    // Per-stage wall time, summed across workers (so on N threads the
    // stages can add up to ~N x lastSweepWallMs). Only cache-miss work
    // is counted — a cache hit contributes nothing. Graph build covers
    // building the scenario's graph: solver calls (see
    // core::solverCacheStats for their share) and, for auto-degree
    // schedules, the whole degree search — its simulations included,
    // which degreeSearchMs reports on their own. Feeds `--profile`.
    double costDeriveMs = 0.0;   ///< Cold ModelCost derivations.
    double graphBuildMs = 0.0;   ///< Schedule build incl. degree search.
    double degreeSearchMs = 0.0; ///< Simulator::run inside searches.
    double simulateMs = 0.0;     ///< Simulator::run on final graphs.
};

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Evaluate every scenario and return results in input order.
     * Reentrant with respect to both caches; not safe to call
     * concurrently from multiple threads.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios);

    /**
     * run() with SweepOptions::keepGraphs overridden for this call
     * only. Lets one engine interleave cached probe sweeps
     * (keep_graphs = false, SimResult cache active) with graph-bearing
     * metric passes (keep_graphs = true) without rebuilding its caches
     * — the tuner's frontier pass relies on this.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios,
                                    bool keep_graphs);

    const SweepOptions &options() const { return options_; }
    SweepStats stats() const;

    /** Drop every memoized ModelCost. */
    void clearCostCache();

    /** Drop every memoized SimResult, by spec and by graph content. */
    void clearSimCache();

  private:
    /**
     * Memoized ModelCost lookup. The first caller of a key inserts an
     * in-flight future and computes (a miss); every later caller —
     * including concurrent ones — waits on that future (a hit), so hit
     * counts depend only on the scenario list, never on thread timing.
     */
    std::shared_ptr<const core::ModelCost> costFor(const Scenario &s);

    /**
     * Memoized simulation keyed by (costKey, schedule), same
     * in-flight-future protocol as costFor(). @p cost must be the
     * scenario's own ModelCost and @p schedule its schedule (both used
     * on a miss).
     */
    std::shared_ptr<const sim::SimResult>
    simFor(const Scenario &s, const std::shared_ptr<const core::ModelCost> &cost,
           const core::Schedule &schedule);

    /** One content-cache entry; see the file comment. */
    struct GraphEntry
    {
        double makespan = 0.0;
        /// The full result, valid() while some final graph or running
        /// search holds it. Guarded by mu_, like pinned.
        std::shared_future<std::shared_ptr<const sim::SimResult>> full;
        bool pinned = false; ///< A final graph: never drop full.
    };

    /** A running degree search's view of the content cache. */
    struct SearchState
    {
        double best;                         ///< Least makespan so far.
        std::shared_ptr<GraphEntry> holding; ///< Its full result, if
                                             ///< this search made it.
    };

    /**
     * Build @p schedule's graph — through the degree search when it
     * has one — and return its SimResult, from the content cache when
     * enabled. Charges SweepStats::graphBuildMs. With
     * @p graph_out the built graph is retained (the keepGraphs path).
     */
    std::shared_ptr<const sim::SimResult>
    evaluate(const core::ModelCost &cost, const core::Schedule &schedule,
             sim::TaskGraph *graph_out = nullptr);

    /** The degree search's makespan oracle: a content-cache lookup. */
    double searchMakespan(const sim::TaskGraph &graph, SearchState *search);

    /** The final graph's full SimResult: a content-cache lookup. */
    std::shared_ptr<const sim::SimResult>
    finalResult(const sim::TaskGraph &graph);

    /**
     * Content-cache entry of @p graph, same in-flight-future protocol
     * as costFor(). On a miss it simulates (setting *simulated) and
     * keeps the full result in the entry iff the makespan is below
     * @p keep_below.
     */
    std::shared_ptr<GraphEntry> graphEntry(const sim::TaskGraph &graph,
                                           bool final_graph,
                                           double keep_below,
                                           bool *simulated);

    /** Let go of the full result @p search holds, unless pinned. */
    void release(SearchState *search);

    /** Simulator::run, charged to the final or degree-search stage. */
    std::shared_ptr<const sim::SimResult>
    simulate(const sim::TaskGraph &graph, bool final_graph);

    /** Count one content-cache lookup. */
    void countGraphLookup(bool simulated);

    SweepOptions options_;
    mutable std::mutex mu_;
    std::unordered_map<std::string,
                       std::shared_future<
                           std::shared_ptr<const core::ModelCost>>>
        cost_cache_;
    std::unordered_map<std::string,
                       std::shared_future<
                           std::shared_ptr<const sim::SimResult>>>
        sim_cache_;
    std::unordered_map<sim::GraphDigest,
                       std::shared_future<std::shared_ptr<GraphEntry>>,
                       sim::GraphDigestHash>
        graph_cache_;
    SweepStats stats_;
};

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_SWEEP_ENGINE_H
