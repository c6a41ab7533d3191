/**
 * @file
 * The content-addressed simulation layer:
 *  - TaskGraph::digest() covers exactly what the simulator reads — every
 *    such field moves it, a label does not;
 *  - core::searchDegree() picks the same pipeline degree as the private
 *    loops it replaced (kept as referenceDegree in sim_reference.h),
 *    ties included, although it skips any degree whose pre-build link
 *    loads or sim::makespanLowerBound already reach the best makespan,
 *    and hands back the winner's graph;
 *  - the sweep engine's content cache changes no output byte and no
 *    deterministic work count across thread counts, and simulates each
 *    distinct graph of the demo grid that a search could not rule out
 *    exactly once.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/audit.h"
#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "runtime/tuner.h"
#include "sim/simulator.h"
#include "sim/task_graph.h"
#include "sim_reference.h"

namespace fsmoe {
namespace {

// ------------------------------------------------------------- digest

/** One task as the digest tests spell it. */
struct TaskSpec
{
    sim::OpType op = sim::OpType::Experts;
    sim::Link link = sim::Link::Compute;
    int stream = 0;
    int priority = 0;
    double duration = 1.0;
    std::vector<sim::TaskId> deps;
    const char *label = "t";
};

sim::TaskGraph
buildGraph(const std::vector<TaskSpec> &specs)
{
    sim::TaskGraph g;
    for (const TaskSpec &t : specs)
        g.addTask(t.label, t.op, t.link, t.stream, t.duration, t.deps,
                  t.priority);
    return g;
}

std::vector<TaskSpec>
baseSpecs()
{
    std::vector<TaskSpec> specs(4);
    specs[1].deps = {0};
    specs[1].link = sim::Link::InterNode;
    specs[1].stream = 1;
    specs[2].deps = {0, 1};
    specs[2].duration = 0.25;
    specs[3].deps = {2};
    specs[3].priority = 1;
    return specs;
}

TEST(GraphDigest, EqualGraphsDigestEqualAndLabelsDoNotCount)
{
    const sim::GraphDigest base = buildGraph(baseSpecs()).digest();
    EXPECT_EQ(buildGraph(baseSpecs()).digest(), base);

    std::vector<TaskSpec> relabelled = baseSpecs();
    relabelled[2].label = "renamed";
    const sim::TaskGraph g = buildGraph(relabelled);
    EXPECT_EQ(g.digest(), base);
    // ...and the simulator agrees that the label changes nothing.
    EXPECT_EQ(sim::Simulator{}.run(g).makespan,
              sim::Simulator{}.run(buildGraph(baseSpecs())).makespan);
}

TEST(GraphDigest, EverySimulatorReadFieldChangesIt)
{
    const sim::GraphDigest base = buildGraph(baseSpecs()).digest();
    std::set<std::string> seen = {base.hex()};
    const auto expectMoves = [&](const char *what, auto mutate) {
        std::vector<TaskSpec> specs = baseSpecs();
        mutate(specs[2]);
        const sim::GraphDigest d = buildGraph(specs).digest();
        EXPECT_NE(d, base) << what;
        EXPECT_TRUE(seen.insert(d.hex()).second)
            << what << " collides with another mutation";
    };
    expectMoves("op", [](TaskSpec &t) { t.op = sim::OpType::Attention; });
    expectMoves("link", [](TaskSpec &t) { t.link = sim::Link::IntraNode; });
    expectMoves("stream", [](TaskSpec &t) { t.stream = 2; });
    expectMoves("priority", [](TaskSpec &t) { t.priority = 1; });
    expectMoves("duration", [](TaskSpec &t) {
        t.duration = std::nextafter(t.duration, 1.0);
    });
    // -0.0 == 0.0 compares equal but is a different bit pattern.
    expectMoves("duration 0.0", [](TaskSpec &t) { t.duration = 0.0; });
    expectMoves("duration -0.0", [](TaskSpec &t) { t.duration = -0.0; });
    expectMoves("dep count", [](TaskSpec &t) { t.deps = {0}; });
    expectMoves("dep id", [](TaskSpec &t) { t.deps = {1, 1}; });
    expectMoves("dep order", [](TaskSpec &t) { t.deps = {1, 0}; });

    // The task count: one more (all-default) task moves it too.
    std::vector<TaskSpec> longer = baseSpecs();
    longer.push_back(TaskSpec{});
    EXPECT_NE(buildGraph(longer).digest(), base);
    EXPECT_NE(sim::TaskGraph().digest(), base);
}

// -------------------------------------------------------- degree search

core::ModelCost
demoCost(const char *model, const char *cluster, int64_t seq_len,
         int num_layers)
{
    runtime::Scenario s;
    s.model = model;
    s.cluster = cluster;
    s.seqLen = seq_len;
    s.numLayers = num_layers;
    return runtime::ScenarioRegistry::instance().makeCost(s);
}

double
plainMakespan(const sim::TaskGraph &g)
{
    return sim::Simulator{}.run(g).makespan;
}

/** searchDegree() and build() agree with the reference loop. */
void
expectReferenceDegree(const core::Schedule &schedule,
                      const core::ModelCost &cost, const std::string &what)
{
    ASSERT_TRUE(schedule.searchesDegree()) << what;
    const int oracle = core::referenceDegree(schedule, cost);
    sim::TaskGraph winner;
    EXPECT_EQ(core::searchDegree(schedule, cost, plainMakespan, &winner),
              oracle)
        << what;
    // The search hands back the winner's graph, and build() runs the
    // same search.
    EXPECT_EQ(winner.digest(),
              schedule.buildWithDegree(cost, oracle).digest())
        << what;
    EXPECT_EQ(schedule.build(cost).digest(),
              schedule.buildWithDegree(cost, oracle).digest())
        << what;
}

TEST(DegreeSearch, SharedSearchPicksTheReferenceLoopsDegree)
{
    const std::vector<core::ModelCost> costs = {
        demoCost("gpt2xl-moe", "testbedA", 1024, 4),
        demoCost("mixtral-7b", "testbedB", 256, 3),
    };
    // chunkMB = 1/1024 is the tuner's smallest Lina bucket: ~122k-task
    // graphs at the demo query's shape.
    for (const char *spec :
         {"Tutel", "Tutel-Improved", "PipeMoE+Lina",
          "PipeMoE+Lina?chunkMB=200", "PipeMoE+Lina?chunkMB=2",
          "PipeMoE+Lina?chunkMB=0.0009765625"}) {
        const auto schedule = core::Schedule::create(spec);
        for (const core::ModelCost &cost : costs)
            expectReferenceDegree(*schedule, cost, spec);
    }
    EXPECT_FALSE(core::Schedule::create("Tutel?degree=4")->searchesDegree());
    EXPECT_FALSE(core::Schedule::create("FSMoE")->searchesDegree());
}

TEST(DegreeSearch, PicksTheReferenceDegreeOnEveryDemoGridSearch)
{
    size_t searches = 0;
    for (const runtime::Scenario &s : runtime::demoGrid()) {
        const auto schedule = core::Schedule::create(s.schedule);
        if (!schedule->searchesDegree())
            continue;
        expectReferenceDegree(
            *schedule, runtime::ScenarioRegistry::instance().makeCost(s),
            s.label());
        ++searches;
    }
    EXPECT_GT(searches, 0u);
}

/**
 * A hand-built tie: one compute task per degree whose duration is
 * kTimes[r - 1], so degrees 3, 5 and 6 tie at the minimum. Padding
 * tasks of zero duration on a second stream keep every degree's graph
 * distinct in content without moving its makespan. Its graphs depend
 * on r outside the MoE pipeline, so it derives no pre-build loads.
 */
class TieSchedule : public core::AdaptiveDegreeSchedule
{
  public:
    static constexpr double kTimes[] = {9, 7, 2, 8, 2, 2, 3, 4};

    explicit TieSchedule(int degree) : AdaptiveDegreeSchedule(degree, {}) {}

    sim::TaskGraph
    buildWithDegree(const core::ModelCost &, int r) const override
    {
        sim::TaskGraph g;
        g.addTask("tie", sim::OpType::Other, sim::Link::Compute, 0,
                  kTimes[r - 1]);
        for (int i = 0; i < r; ++i)
            g.addTask("pad", sim::OpType::Other, sim::Link::IntraNode, 1,
                      0.0);
        return g;
    }

    std::vector<core::LinkLoads>
    degreeLinkLoads(const core::ModelCost &,
                    const sim::TaskGraph &) const override
    {
        return {};
    }
};

/** TieSchedule claiming the pipeline-only loads it does not have. */
class DriftingTieSchedule : public TieSchedule
{
  public:
    DriftingTieSchedule() : TieSchedule(0) {}

    std::vector<core::LinkLoads>
    degreeLinkLoads(const core::ModelCost &model,
                    const sim::TaskGraph &degree_one) const override
    {
        return AdaptiveDegreeSchedule::degreeLinkLoads(model, degree_one);
    }
};

TEST(DegreeSearch, TiesKeepTheLowestDegree)
{
    core::ModelCost cost;
    cost.rMax = 8;
    const TieSchedule schedule(0);
    // Degrees 5 and 6 tie with 3 and their bound is exact, so the
    // search rules them out on bound == best, not on a simulation.
    for (int r : {3, 5, 6})
        EXPECT_EQ(sim::makespanLowerBound(schedule.buildWithDegree(cost, r)),
                  2.0);
    EXPECT_EQ(core::referenceDegree(schedule, cost), 3);
    EXPECT_EQ(core::searchDegree(schedule, cost, plainMakespan), 3);
    EXPECT_EQ(schedule.build(cost).digest(),
              schedule.buildWithDegree(cost, 3).digest());
}

TEST(DegreeSearch, AuditCatchesLoadsOfABuilderThatDependsOnROutsideThePipeline)
{
    core::ModelCost cost;
    cost.rMax = 8;
    const DriftingTieSchedule schedule;
    // With no layers the claimed loads are degree 1's 9 ms at every
    // degree, which would rule degree 2 (7 ms) out unbuilt...
    const std::vector<core::LinkLoads> loads = schedule.degreeLinkLoads(
        cost, schedule.buildWithDegree(cost, 1));
    ASSERT_EQ(loads.size(), 9u);
    EXPECT_GT(loads[2].lowerBound(),
              plainMakespan(schedule.buildWithDegree(cost, 2)));
    // ...and the audit build of that degree catches it.
    if (!audit::compiledIn() || !audit::enabled())
        GTEST_SKIP() << "audits are compiled out of this build";
    EXPECT_DEATH(core::searchDegree(schedule, cost, plainMakespan),
                 "outside appendMoePhase");
}

// ------------------------------------------------------ engine cache

std::string
gridBytes(const std::vector<runtime::ScenarioResult> &results)
{
    return runtime::toJson(runtime::toSweepResults(results));
}

void
expectSameSims(const std::vector<runtime::ScenarioResult> &a,
               const std::vector<runtime::ScenarioResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const sim::SimResult &x = a[i].sim;
        const sim::SimResult &y = b[i].sim;
        ASSERT_EQ(x.trace.size(), y.trace.size()) << i;
        for (size_t t = 0; t < x.trace.size(); ++t) {
            ASSERT_EQ(x.trace[t].id, y.trace[t].id);
            ASSERT_EQ(std::memcmp(&x.trace[t].start, &y.trace[t].start,
                                  sizeof(double)),
                      0)
                << a[i].scenario.label();
            ASSERT_EQ(std::memcmp(&x.trace[t].finish, &y.trace[t].finish,
                                  sizeof(double)),
                      0)
                << a[i].scenario.label();
        }
        EXPECT_EQ(std::memcmp(x.opTime.data(), y.opTime.data(),
                              sizeof x.opTime),
                  0);
        EXPECT_EQ(std::memcmp(x.linkBusyMs.data(), y.linkBusyMs.data(),
                              sizeof x.linkBusyMs),
                  0);
    }
}

/**
 * What the engine must simulate for @p grid: each distinct graph that
 * a scenario builds, or that a degree search could not rule out by its
 * lower bounds — simulated once each — and how many search degrees the
 * bounds ruled out, and the pre-build one alone, counted per search.
 * Worked out here from the graphs, the schedule's pre-build loads and
 * sim::makespanLowerBound, not from searchDegree().
 */
struct ExpectedWork
{
    std::set<std::string> simulated;
    uint64_t pruned = 0;
    uint64_t unbuilt = 0;
};

ExpectedWork
expectedWork(const std::vector<runtime::Scenario> &grid)
{
    ExpectedWork work;
    for (const runtime::Scenario &s : grid) {
        const core::ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        const auto schedule = core::Schedule::create(s.schedule);
        if (!schedule->searchesDegree()) {
            work.simulated.insert(schedule->build(cost).digest().hex());
            continue;
        }
        // Degree 1 is always simulated; a later degree only when both
        // bounds are below every makespan seen so far. The winner is
        // among the simulated graphs, so the final graph adds nothing.
        const sim::TaskGraph one = schedule->buildWithDegree(cost, 1);
        const std::vector<core::LinkLoads> loads =
            schedule->degreeLinkLoads(cost, one);
        double best = std::numeric_limits<double>::infinity();
        for (int r = 1; r <= cost.rMax; ++r) {
            if (!loads.empty() && loads[r].lowerBound() >= best) {
                ++work.pruned;
                ++work.unbuilt;
                continue;
            }
            const sim::TaskGraph g = schedule->buildWithDegree(cost, r);
            if (sim::makespanLowerBound(g) >= best) {
                ++work.pruned;
                continue;
            }
            work.simulated.insert(g.digest().hex());
            best = std::min(best, plainMakespan(g));
        }
    }
    return work;
}

TEST(SimCache, DemoGridIsByteIdenticalWithTheCacheOnOrOff)
{
    const auto grid = runtime::demoGrid();
    runtime::SweepOptions off;
    off.numThreads = 1;
    off.enableSimCache = false;
    const auto reference = runtime::SweepEngine(off).run(grid);
    const std::string bytes = gridBytes(reference);
    for (int threads : {1, 4}) {
        for (bool cache : {true, false}) {
            runtime::SweepOptions opts;
            opts.numThreads = threads;
            opts.enableSimCache = cache;
            const auto results = runtime::SweepEngine(opts).run(grid);
            EXPECT_EQ(gridBytes(results), bytes)
                << threads << " threads, cache " << cache;
            expectSameSims(results, reference);
        }
    }
}

TEST(SimCache, DemoGridSimulatesEachDistinctGraphOnce)
{
    const auto grid = runtime::demoGrid();
    const ExpectedWork expected = expectedWork(grid);
    const size_t distinct = expected.simulated.size();
    EXPECT_GT(expected.unbuilt, 0u);
    stats::Counter &runs = stats::counter("sim.runs");
    stats::Counter &pruned = stats::counter("core.degreeSearch.pruned");
    stats::Counter &unbuilt = stats::counter("core.degreeSearch.unbuilt");
    for (int threads : {1, 4}) {
        runtime::SweepEngine engine({threads});
        const uint64_t before = runs.value();
        const uint64_t pruned_before = pruned.value();
        const uint64_t unbuilt_before = unbuilt.value();
        engine.run(grid);
        EXPECT_EQ(runs.value() - before, distinct) << threads << " threads";
        EXPECT_EQ(pruned.value() - pruned_before, expected.pruned)
            << threads << " threads";
        EXPECT_EQ(unbuilt.value() - unbuilt_before, expected.unbuilt)
            << threads << " threads";
        const runtime::SweepStats st = engine.stats();
        EXPECT_EQ(st.graphCacheMisses, distinct);
        // Every final graph is looked up once, every search graph once
        // per searching scenario.
        EXPECT_GT(st.graphCacheHits, 0u);

        // A warm re-run is served by the (costKey, schedule) cache.
        const uint64_t warm = runs.value();
        engine.run(grid);
        EXPECT_EQ(runs.value(), warm);
    }
}

TEST(SimCache, KeepGraphsRunsTakeResultsFromTheContentCache)
{
    const auto grid = runtime::demoGrid({1});
    runtime::SweepEngine engine({/*numThreads=*/2});
    const auto cold = engine.run(grid);
    stats::Counter &runs = stats::counter("sim.runs");
    const uint64_t before = runs.value();
    const auto kept = engine.run(grid, /*keep_graphs=*/true);
    EXPECT_EQ(runs.value(), before) << "metric pass re-simulated";
    expectSameSims(kept, cold);
    for (size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(kept[i].graph.size(), kept[i].sim.trace.size());

    // clearSimCache() drops the content cache too: everything cold.
    engine.clearSimCache();
    engine.run(grid);
    EXPECT_GT(runs.value(), before);
}

TEST(SimCache, DemoTuneAnswerAndSimCountDoNotDependOnThreads)
{
    // The blessed answer predates the content cache: it was produced
    // by an engine that simulated every degree-search graph itself.
    std::ifstream in(FSMOE_TUNE_BASELINE, std::ios::binary);
    ASSERT_TRUE(in.good());
    const std::string baseline((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    runtime::TuneQuery query;
    query.model = "gpt2xl-moe";
    query.cluster = "testbedA";
    stats::Counter &runs = stats::counter("sim.runs");
    std::vector<uint64_t> sims;
    for (int threads : {1, 4}) {
        runtime::TuneOptions opts;
        opts.numThreads = threads;
        runtime::Tuner tuner(opts);
        const uint64_t before = runs.value();
        const std::string answer =
            runtime::Tuner::answerJson(tuner.tune(query));
        sims.push_back(runs.value() - before);
        EXPECT_TRUE(answer == baseline) << threads << " threads";
    }
    EXPECT_EQ(sims[0], sims[1]);
    // 56 final graphs and the 3 degree-search graphs the bound could
    // not rule out (the CI profile smoke gates the same count).
    EXPECT_EQ(sims[0], 59u);
}

TEST(SimCache, AuditRegistersEveryGraphUnderItsDigest)
{
    if (!audit::compiledIn() || !audit::enabled())
        GTEST_SKIP() << "audits are compiled out of this build";
    stats::Counter &checks = stats::counter("audit.cacheKey.checks");
    const uint64_t before = checks.value();
    runtime::SweepEngine engine({/*numThreads=*/1});
    engine.run(runtime::demoGrid({1}));
    const runtime::SweepStats st = engine.stats();
    // One "sim.graph" check per content lookup, on top of the cost and
    // spec caches' own checks.
    EXPECT_GE(checks.value() - before,
              st.graphCacheHits + st.graphCacheMisses);
}

/**
 * The engine resolves the tie the same way through its content cache
 * (the winner's graph has 1 + r tasks). This registers a schedule with
 * the process-wide registry, which would add it to every demo grid and
 * tuner search after it, so its suite comes last in this file.
 */
TEST(EngineDegreeSearch, KeepsTheLowestDegreeOnATie)
{
    core::ScheduleRegistry &reg = core::ScheduleRegistry::instance();
    core::ScheduleInfo info;
    info.name = "sim-cache-test-tie";
    info.description = "hand-built degree tie";
    info.params = {{"degree", core::ScheduleParamType::Int, "0",
                    "fixed degree; 0 searches", 0.0, 8.0}};
    reg.registerSchedule(info, [](const core::ScheduleParams &p) {
        return std::make_unique<TieSchedule>(
            static_cast<int>(p.getInt("degree", 0)));
    });
    std::vector<runtime::Scenario> grid;
    for (const char *spec : {"sim-cache-test-tie", "sim-cache-test-tie?degree=5",
                             "sim-cache-test-tie?degree=0"}) {
        runtime::Scenario s;
        s.model = "gpt2xl-moe";
        s.cluster = "testbedA";
        s.numLayers = 1;
        s.rMax = 8;
        s.schedule = spec;
        grid.push_back(s);
    }
    // The degree=5 graph, plus the search graphs the bound leaves in;
    // the two searches and degree=5 share them.
    const size_t distinct = expectedWork(grid).simulated.size();
    stats::Counter &runs = stats::counter("sim.runs");
    const uint64_t before = runs.value();
    runtime::SweepEngine engine({/*numThreads=*/2});
    const auto results = engine.run(grid);
    EXPECT_EQ(runs.value() - before, distinct);
    const size_t expected_tasks[] = {1 + 3, 1 + 5, 1 + 3};
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(results[i].sim.trace.size(), expected_tasks[i])
            << grid[i].schedule;
        EXPECT_EQ(results[i].makespanMs, 2.0) << grid[i].schedule;
    }
}

} // namespace
} // namespace fsmoe
