#include "runtime/sweep_engine.h"

#include <chrono>
#include <limits>
#include <utility>

#include "base/audit.h"
#include "base/logging.h"
#include "base/stats.h"
#include "core/schedules/schedule_registry.h"
#include "runtime/self_trace.h"

namespace fsmoe::runtime {

namespace {

/**
 * Registry handles for the engine's telemetry, resolved once. The
 * same counters back every SweepEngine in the process (the registry
 * is process-wide); the per-engine SweepStats struct remains the
 * per-lifetime view.
 */
struct EngineStats
{
    stats::Counter &scenarios = stats::counter("sweep.scenarios.completed");
    stats::Counter &costHits = stats::counter("sweep.costCache.hits");
    stats::Counter &costMisses = stats::counter("sweep.costCache.misses");
    stats::Counter &simHits = stats::counter("sweep.simCache.hits");
    stats::Counter &simMisses = stats::counter("sweep.simCache.misses");
    stats::Counter &graphHits = stats::counter("sweep.graphCache.hits");
    stats::Counter &graphMisses = stats::counter("sweep.graphCache.misses");
    stats::Histogram &costDeriveMs = stats::histogram("sweep.costDerive.ms");
    stats::Histogram &graphBuildMs = stats::histogram("sweep.graphBuild.ms");
    stats::Histogram &degreeSearchMs =
        stats::histogram("sweep.degreeSearch.ms");
    stats::Histogram &simulateMs = stats::histogram("sweep.simulate.ms");
    stats::Histogram &sweepWallMs = stats::histogram("sweep.wall.ms");

    static EngineStats &instance()
    {
        static EngineStats s;
        return s;
    }
};

#if FSMOE_AUDIT_ENABLED

/**
 * Field-by-field payload fingerprints for the cache-key collision
 * audit (base/audit.h): two payloads fingerprint equal iff every field
 * is bit-identical, matching the byte-identity contract the caches
 * must preserve.
 */
void
mixModel(audit::Fingerprint *fp, const core::LinearModel &m)
{
    fp->mix(m.alpha).mix(m.beta).mix(m.r2);
}

uint64_t
fingerprintCost(const core::ModelCost &c)
{
    audit::Fingerprint fp;
    mixModel(&fp, c.models.alltoall);
    mixModel(&fp, c.models.allgather);
    mixModel(&fp, c.models.reducescatter);
    mixModel(&fp, c.models.allreduce);
    mixModel(&fp, c.models.gemm);
    fp.mix(static_cast<uint64_t>(c.layers.size()));
    for (const core::LayerCost &l : c.layers) {
        const core::Workload &w = l.workload;
        fp.mix(w.a2aBytes).mix(w.agBytes).mix(w.rsBytes);
        fp.mix(w.expertMacs).mix(w.expertGemms).mix(w.attnMacs);
        fp.mix(w.routingMacs).mix(w.orderBytes).mix(w.gradBytes);
        for (const core::PhaseTimes *p : {&l.fwd, &l.bwd}) {
            fp.mix(p->a2a).mix(p->allgather).mix(p->reducescatter);
            fp.mix(p->experts).mix(p->routing).mix(p->order);
            fp.mix(p->attention).mix(p->gradAllReduce);
        }
    }
    fp.mix(c.rMax).mix(c.dsA2aOverhead).mix(c.dsKernelOverhead);
    return fp.digest();
}

uint64_t
fingerprintSim(const sim::SimResult &r)
{
    audit::Fingerprint fp;
    fp.mix(r.makespan);
    fp.mix(static_cast<uint64_t>(r.trace.size()));
    for (const sim::TaskTrace &t : r.trace)
        fp.mix(t.id).mix(t.start).mix(t.finish);
    for (double v : r.opTime)
        fp.mix(v);
    for (double v : r.linkBusyMs)
        fp.mix(v);
    return fp.digest();
}

/**
 * Independent fingerprint of everything TaskGraph::digest() covers,
 * so a digest collision between two different graphs panics.
 */
uint64_t
fingerprintGraph(const sim::TaskGraph &g)
{
    audit::Fingerprint fp;
    fp.mix(static_cast<uint64_t>(g.size()));
    for (const sim::Task &t : g.tasks()) {
        fp.mix(static_cast<int>(t.op)).mix(static_cast<int>(t.link));
        fp.mix(t.stream).mix(t.priority).mix(t.duration);
        fp.mix(static_cast<uint64_t>(t.depCount));
        for (sim::TaskId d : g.deps(t.id))
            fp.mix(d);
    }
    return fp.digest();
}

#endif // FSMOE_AUDIT_ENABLED

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

SweepEngine::SweepEngine(SweepOptions options) : options_(options) {}

SweepStats
SweepEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
SweepEngine::clearCostCache()
{
    std::lock_guard<std::mutex> lock(mu_);
    cost_cache_.clear();
}

void
SweepEngine::clearSimCache()
{
    std::lock_guard<std::mutex> lock(mu_);
    sim_cache_.clear();
    graph_cache_.clear();
}

std::shared_ptr<const core::ModelCost>
SweepEngine::costFor(const Scenario &s)
{
    const std::string key = s.costKey();
    std::promise<std::shared_ptr<const core::ModelCost>> promise;
    std::shared_future<std::shared_ptr<const core::ModelCost>> hit;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cost_cache_.find(key);
        if (it != cost_cache_.end()) {
            ++stats_.costCacheHits;
            hit = it->second;
        } else {
            ++stats_.costCacheMisses;
            cost_cache_.emplace(key, promise.get_future().share());
        }
    }
    EngineStats &es = EngineStats::instance();
    if (hit.valid()) {
        es.costHits.inc();
        return hit.get(); // may wait on the in-flight computing worker
    }
    es.costMisses.inc();
    try {
        const auto c0 = std::chrono::steady_clock::now();
        auto cost = [&] {
            SelfSpan span("costDerive", "stage");
            return std::make_shared<const core::ModelCost>(
                ScenarioRegistry::instance().makeCost(s));
        }();
        const double derive_ms = msSince(c0);
        es.costDeriveMs.observe(derive_ms);
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.costDeriveMs += derive_ms;
        }
        // Every cold compute registers its payload fingerprint: a
        // second compute of the same key with different bytes means
        // costKey() under-identifies the scenario — panic, not cache.
        FSMOE_AUDIT(audit::checkCacheKey("sweep.cost", key,
                                         fingerprintCost(*cost)));
        promise.set_value(cost);
        return cost;
    } catch (...) {
        // Propagate to in-flight waiters but drop the entry, so a
        // fixed preset (re-registered builder) can succeed later
        // instead of replaying a stale failure forever.
        promise.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(mu_);
            cost_cache_.erase(key);
        }
        throw;
    }
}

std::shared_ptr<const sim::SimResult>
SweepEngine::simFor(const Scenario &s,
                    const std::shared_ptr<const core::ModelCost> &cost,
                    const core::Schedule &schedule)
{
    // costKey() never contains the schedule, so appending the spec
    // yields a unique (configuration, schedule-variant) key;
    // parameterized variants of one schedule cache separately.
    const std::string key = s.costKey() + '|' + s.schedule;
    std::promise<std::shared_ptr<const sim::SimResult>> promise;
    std::shared_future<std::shared_ptr<const sim::SimResult>> hit;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sim_cache_.find(key);
        if (it != sim_cache_.end()) {
            ++stats_.simCacheHits;
            hit = it->second;
        } else {
            ++stats_.simCacheMisses;
            sim_cache_.emplace(key, promise.get_future().share());
        }
    }
    EngineStats &es = EngineStats::instance();
    if (hit.valid()) {
        es.simHits.inc();
        return hit.get(); // may wait on the in-flight computing worker
    }
    es.simMisses.inc();
    try {
        auto result = evaluate(*cost, schedule);
        FSMOE_AUDIT(audit::checkCacheKey("sweep.sim", key,
                                         fingerprintSim(*result)));
        promise.set_value(result);
        return result;
    } catch (...) {
        promise.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(mu_);
            sim_cache_.erase(key);
        }
        throw;
    }
}

std::shared_ptr<const sim::SimResult>
SweepEngine::evaluate(const core::ModelCost &cost,
                      const core::Schedule &schedule,
                      sim::TaskGraph *graph_out)
{
    const auto t0 = std::chrono::steady_clock::now();
    sim::TaskGraph graph;
    SearchState search{std::numeric_limits<double>::infinity(), nullptr};
    {
        SelfSpan span("graphBuild", "stage");
        if (schedule.searchesDegree()) {
            core::searchDegree(
                schedule, cost,
                [&](const sim::TaskGraph &g) {
                    return searchMakespan(g, &search);
                },
                &graph);
        } else {
            graph = schedule.build(cost);
        }
    }
    const double build_ms = msSince(t0);
    EngineStats::instance().graphBuildMs.observe(build_ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.graphBuildMs += build_ms;
    }
    auto result = finalResult(graph);
    release(&search);
    if (graph_out != nullptr)
        *graph_out = std::move(graph);
    return result;
}

double
SweepEngine::searchMakespan(const sim::TaskGraph &graph, SearchState *search)
{
    if (!options_.enableSimCache)
        return simulate(graph, /*final_graph=*/false)->makespan;
    bool simulated = false;
    std::shared_ptr<GraphEntry> entry =
        graphEntry(graph, /*final_graph=*/false, search->best, &simulated);
    countGraphLookup(simulated);
    const double makespan = entry->makespan;
    if (makespan < search->best) {
        // The search's best so far keeps its full result (when this
        // search made it), in case it wins; the one it beat lets go.
        search->best = makespan;
        release(search);
        if (simulated)
            search->holding = std::move(entry);
    }
    return makespan;
}

std::shared_ptr<const sim::SimResult>
SweepEngine::finalResult(const sim::TaskGraph &graph)
{
    if (!options_.enableSimCache)
        return simulate(graph, /*final_graph=*/true);
    bool simulated = false;
    std::shared_ptr<GraphEntry> entry =
        graphEntry(graph, /*final_graph=*/true,
                   std::numeric_limits<double>::infinity(), &simulated);
    std::promise<std::shared_ptr<const sim::SimResult>> promise;
    std::shared_future<std::shared_ptr<const sim::SimResult>> full;
    bool upgrade = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        entry->pinned = true;
        if (!entry->full.valid()) {
            // Only a degree search simulated this graph, and it kept
            // the makespan alone: simulate again for the full result.
            entry->full = promise.get_future().share();
            upgrade = true;
        }
        full = entry->full;
    }
    countGraphLookup(simulated || upgrade);
    if (upgrade) {
        try {
            promise.set_value(simulate(graph, /*final_graph=*/true));
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            entry->full = {};
            throw;
        }
    }
    return full.get(); // may wait on the in-flight computing worker
}

std::shared_ptr<SweepEngine::GraphEntry>
SweepEngine::graphEntry(const sim::TaskGraph &graph, bool final_graph,
                        double keep_below, bool *simulated)
{
    const sim::GraphDigest key = graph.digest();
    // Every lookup registers the graph's independent fingerprint under
    // its digest: two different graphs with one digest panic here.
    FSMOE_AUDIT(audit::checkCacheKey("sim.graph", key.hex(),
                                     fingerprintGraph(graph)));
    std::promise<std::shared_ptr<GraphEntry>> promise;
    std::shared_future<std::shared_ptr<GraphEntry>> hit;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = graph_cache_.find(key);
        if (it != graph_cache_.end())
            hit = it->second;
        else
            graph_cache_.emplace(key, promise.get_future().share());
    }
    *simulated = !hit.valid();
    if (hit.valid())
        return hit.get(); // may wait on the in-flight computing worker
    try {
        std::shared_ptr<const sim::SimResult> result =
            simulate(graph, final_graph);
        auto entry = std::make_shared<GraphEntry>();
        entry->makespan = result->makespan;
        if (result->makespan < keep_below) {
            std::promise<std::shared_ptr<const sim::SimResult>> ready;
            ready.set_value(std::move(result));
            entry->full = ready.get_future().share();
        }
        promise.set_value(entry);
        return entry;
    } catch (...) {
        promise.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(mu_);
            graph_cache_.erase(key);
        }
        throw;
    }
}

void
SweepEngine::release(SearchState *search)
{
    if (search->holding == nullptr)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!search->holding->pinned)
        search->holding->full = {};
    search->holding.reset();
}

std::shared_ptr<const sim::SimResult>
SweepEngine::simulate(const sim::TaskGraph &graph, bool final_graph)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::shared_ptr<const sim::SimResult> result;
    {
        SelfSpan span(final_graph ? "simulate" : "degreeSearch", "stage");
        result = std::make_shared<const sim::SimResult>(
            sim::Simulator{}.run(graph));
    }
    const double ms = msSince(t0);
    EngineStats &es = EngineStats::instance();
    (final_graph ? es.simulateMs : es.degreeSearchMs).observe(ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        (final_graph ? stats_.simulateMs : stats_.degreeSearchMs) += ms;
    }
    return result;
}

void
SweepEngine::countGraphLookup(bool simulated)
{
    EngineStats &es = EngineStats::instance();
    (simulated ? es.graphMisses : es.graphHits).inc();
    std::lock_guard<std::mutex> lock(mu_);
    ++(simulated ? stats_.graphCacheMisses : stats_.graphCacheHits);
}

std::vector<ScenarioResult>
SweepEngine::run(const std::vector<Scenario> &scenarios, bool keep_graphs)
{
    // run() is documented non-concurrent, so a scoped swap of the
    // option is safe and keeps one code path.
    const bool saved = options_.keepGraphs;
    options_.keepGraphs = keep_graphs;
    auto results = run(scenarios);
    options_.keepGraphs = saved;
    return results;
}

std::vector<ScenarioResult>
SweepEngine::run(const std::vector<Scenario> &scenarios)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ScenarioResult> results(scenarios.size());

    // Degree searches run after every other scenario (see the file
    // comment): fixed-degree graphs are then in the content cache with
    // their full results before any search can simulate them first and
    // keep only a makespan. An invalid spec is left null here and
    // reported by the worker, as Schedule::create always has.
    const core::ScheduleRegistry &registry =
        core::ScheduleRegistry::instance();
    std::vector<std::unique_ptr<core::Schedule>> schedules(scenarios.size());
    std::vector<size_t> fixed, searching;
    for (size_t i = 0; i < scenarios.size(); ++i) {
        std::string error;
        schedules[i] = registry.tryCreate(scenarios[i].schedule, &error);
        (schedules[i] != nullptr && schedules[i]->searchesDegree()
             ? searching
             : fixed)
            .push_back(i);
    }

    {
        ThreadPool pool(options_.numThreads, options_.queueCapacity);
        const auto evaluateAll = [&](const std::vector<size_t> &indices) {
            std::vector<std::future<void>> done;
            done.reserve(indices.size());
            for (size_t i : indices) {
                done.push_back(pool.submit([&, i]() {
                    const Scenario &s = scenarios[i];
                    SelfSpan span(s.label(), "scenario");
                    auto cost = costFor(s);
                    if (schedules[i] == nullptr)
                        schedules[i] = core::Schedule::create(s.schedule);
                    const core::Schedule &schedule = *schedules[i];
                    ScenarioResult &out = results[i];
                    out.scenario = s;
                    if (options_.keepGraphs)
                        out.sim = *evaluate(*cost, schedule, &out.graph);
                    else if (options_.enableSimCache)
                        out.sim = *simFor(s, cost, schedule);
                    else
                        out.sim = *evaluate(*cost, schedule);
                    out.makespanMs = out.sim.makespan;
                    EngineStats::instance().scenarios.inc();
                }));
            }
            for (auto &f : done)
                f.get(); // rethrows worker exceptions
        };
        evaluateAll(fixed);
        evaluateAll(searching);
    }

    const double wall_ms = msSince(t0);
    EngineStats::instance().sweepWallMs.observe(wall_ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.scenariosRun += scenarios.size();
        stats_.lastSweepWallMs = wall_ms;
    }
    return results;
}

} // namespace fsmoe::runtime
