/**
 * @file
 * Equivalence fuzzing of the heap-based simulator against the retained
 * naive reference (tests/sim_reference.h).
 *
 * The production inner loop maintains per-link ready heaps
 * incrementally; the reference rescans every stream per link per
 * event. Both implement the same machine model, so on ANY graph they
 * must agree *bit-exactly* — makespan, per-op busy times, and the full
 * per-task trace. The fuzzer exercises the corners that matter for
 * that claim: zero-duration barriers, priority classes, deep FIFO
 * streams, wide fan-in, and simultaneous completions; a second test
 * runs every registered schedule's real graph through both engines.
 *
 * The same graphs check sim::makespanLowerBound, which the degree
 * search prunes with: it must never exceed the simulated makespan.
 * Neither may the pre-build bound a degree search checks first
 * (core::AdaptiveDegreeSchedule::degreeLinkLoads), on demo-grid and
 * random model costs.
 */
#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "runtime/scenario.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "sim_reference.h"

namespace fsmoe::sim {
namespace {

/**
 * A random DAG shaped to stress the arbitration paths: random streams
 * and links, ~10% zero-duration tasks, ~25% background-priority tasks,
 * up to 3 backward dependencies each, and quantised durations so that
 * equal readiness times (the id tie-break) actually occur.
 */
TaskGraph
randomDag(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> n_dist(2, 160);
    std::uniform_int_distribution<int> stream_count_dist(1, 8);
    const int n = n_dist(rng);
    const int num_streams = stream_count_dist(rng);

    std::uniform_int_distribution<int> stream_dist(0, num_streams - 1);
    std::uniform_int_distribution<int> link_dist(
        0, static_cast<int>(Link::NumLinks) - 1);
    std::uniform_int_distribution<int> op_dist(
        0, static_cast<int>(OpType::NumOpTypes) - 1);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> quantum(1, 40);
    std::uniform_int_distribution<int> dep_count_dist(0, 3);

    TaskGraph g;
    g.reserve(n, 3 * n);
    std::vector<TaskId> deps;
    for (int i = 0; i < n; ++i) {
        deps.clear();
        if (i > 0) {
            std::uniform_int_distribution<TaskId> dep_dist(0, i - 1);
            int k = dep_count_dist(rng);
            for (int d = 0; d < k; ++d) {
                TaskId cand = dep_dist(rng);
                if (std::find(deps.begin(), deps.end(), cand) == deps.end())
                    deps.push_back(cand);
            }
        }
        // Durations on a 0.25 ms grid force readiness-time ties.
        const double duration =
            pct(rng) < 10 ? 0.0 : 0.25 * quantum(rng);
        const int priority = pct(rng) < 25 ? 1 : 0;
        g.addTask({"t", i}, static_cast<OpType>(op_dist(rng)),
                  static_cast<Link>(link_dist(rng)), stream_dist(rng),
                  duration, deps, priority);
    }
    return g;
}

/** Bitwise agreement of two runs over one graph. */
void
expectIdentical(const TaskGraph &g, const SimResult &got,
                const SimResult &want, const std::string &what)
{
    ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
    EXPECT_EQ(got.makespan, want.makespan) << what;
    for (size_t op = 0; op < want.opTime.size(); ++op)
        EXPECT_EQ(got.opTime[op], want.opTime[op])
            << what << ": op " << opTypeName(static_cast<OpType>(op));
    for (size_t i = 0; i < want.trace.size(); ++i) {
        EXPECT_EQ(got.trace[i].id, want.trace[i].id) << what << " #" << i;
        EXPECT_EQ(got.trace[i].start, want.trace[i].start)
            << what << ": " << g.taskName(static_cast<TaskId>(i));
        EXPECT_EQ(got.trace[i].finish, want.trace[i].finish)
            << what << ": " << g.taskName(static_cast<TaskId>(i));
    }
}

TEST(SimFuzz, MatchesNaiveReferenceOnRandomDags)
{
    constexpr int kSeeds = 120;
    Simulator simulator;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xf5013e5u + static_cast<unsigned>(seed));
        TaskGraph g = randomDag(rng);
        SimResult fast = simulator.run(g);
        SimResult ref = referenceRun(g);
        expectIdentical(g, fast, ref, "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at seed " << seed << " ("
                   << g.size() << " tasks, " << g.numStreams()
                   << " streams)";
    }
}

/** A three-layer model on @p cluster, the shape the sweep simulates. */
core::ModelCost
threeLayerCost(const sim::ClusterSpec &cluster)
{
    core::LayerShape shape;
    shape.batch = 2;
    shape.seqLen = 512;
    shape.embed = 2048;
    shape.hidden = 3 * 2048;
    shape.numExperts = cluster.numNodes;
    core::ParallelConfig par = model::paperParallelism(cluster);
    core::ModelCost cost;
    cost.models = core::PerfModelSet::fromCluster(cluster);
    for (int i = 0; i < 3; ++i)
        cost.layers.push_back(core::makeLayerCost(cost.models, shape, par));
    return cost;
}

TEST(SimFuzz, MatchesNaiveReferenceOnScheduleGraphs)
{
    // Real graphs from every registered schedule plugin, both
    // testbeds: the exact shapes the sweep hot path simulates.
    for (const sim::ClusterSpec &cluster : {testbedA(), testbedB()}) {
        const core::ModelCost cost = threeLayerCost(cluster);
        for (const std::string &name :
             core::ScheduleRegistry::instance().names()) {
            TaskGraph graph = core::Schedule::create(name)->build(cost);
            SimResult fast = Simulator{}.run(graph);
            SimResult ref = referenceRun(graph);
            expectIdentical(graph, fast, ref, name);
        }
    }
}

// ------------------------------------------------- makespan lower bound

TEST(MakespanLowerBound, NeverExceedsTheMakespanOnRandomDags)
{
    Simulator simulator;
    for (int seed = 0; seed < 120; ++seed) {
        std::mt19937 rng(0xf5013e5u + static_cast<unsigned>(seed));
        const TaskGraph g = randomDag(rng);
        EXPECT_LE(makespanLowerBound(g), simulator.run(g).makespan)
            << "seed " << seed;
    }
}

TEST(MakespanLowerBound, NeverExceedsTheMakespanOnScheduleGraphs)
{
    // Every graph a degree search can build (r = 1..16), and every
    // other schedule's one graph.
    for (const sim::ClusterSpec &cluster : {testbedA(), testbedB()}) {
        const core::ModelCost cost = threeLayerCost(cluster);
        ASSERT_EQ(cost.rMax, 16);
        for (const std::string &name :
             core::ScheduleRegistry::instance().names()) {
            const auto schedule = core::Schedule::create(name);
            std::vector<TaskGraph> graphs;
            if (schedule->searchesDegree()) {
                for (int r = 1; r <= cost.rMax; ++r)
                    graphs.push_back(schedule->buildWithDegree(cost, r));
            } else {
                graphs.push_back(schedule->build(cost));
            }
            for (size_t i = 0; i < graphs.size(); ++i)
                EXPECT_LE(makespanLowerBound(graphs[i]),
                          Simulator{}.run(graphs[i]).makespan)
                    << name << " graph " << i;
        }
    }
}

TEST(MakespanLowerBound, EqualsTheMakespanOnASingleLinkChain)
{
    // One stream on one link: each task waits for the one before, so
    // the chain term adds the durations exactly as the simulator does.
    TaskGraph g;
    for (int i = 0; i < 50; ++i)
        g.addTask({"t", i}, OpType::Experts, Link::Compute, 0,
                  0.1 * (i % 7) + 1.0 / 3.0);
    EXPECT_EQ(makespanLowerBound(g), Simulator{}.run(g).makespan);
}

TEST(MakespanLowerBound, LinkMarginCoversOutOfIdOrderExecution)
{
    // Four tasks share the compute link. Ids 0 and 1 (stream 0,
    // background priority) carry 2^-53 each; ids 2 and 3 (streams 1
    // and 2) carry 0.5 each and win the link first. In execution order
    // the link adds 0.5 + 0.5 = 1, then 1 + 2^-53 rounds back to 1
    // (ties to even), twice. In id order, 2^-53 + 2^-53 = 2^-52 is
    // exact, and so is everything after: the sum lands on 1 + 2^-52.
    const double tiny = std::ldexp(1.0, -53);
    TaskGraph g;
    g.addTask("b", OpType::GradAllReduce, Link::Compute, 0, tiny, {}, 1);
    g.addTask("c", OpType::GradAllReduce, Link::Compute, 0, tiny, {}, 1);
    g.addTask("a1", OpType::Experts, Link::Compute, 1, 0.5);
    g.addTask("a2", OpType::Experts, Link::Compute, 2, 0.5);
    const SimResult sim = Simulator{}.run(g);
    ASSERT_EQ(sim.makespan, 1.0);
    ASSERT_EQ(sim.trace[1].finish, 1.0) << "the tiny tasks ran last";

    double id_order_sum = 0.0;
    for (const Task &t : g.tasks())
        id_order_sum += t.duration;
    // Pruning on the raw id-order sum would rule this graph out against
    // a best makespan of 1 + 2^-52 that it actually beats...
    EXPECT_EQ(id_order_sum, 1.0 + 2 * tiny);
    EXPECT_GT(id_order_sum, sim.makespan);
    // ...and the margin brings the link term back under the makespan.
    // (The chain term is only 0.5 here, so the link term is the bound.)
    const double bound = makespanLowerBound(g);
    EXPECT_LE(bound, sim.makespan);
    EXPECT_GT(bound, 0.5);
}

// -------------------------------------------------- pre-build link loads

/**
 * A random model of 1-4 layers under perf models whose startup term is
 * 0, under 1 ms, or large (20-70 ms): per-chunk times at every degree
 * from startup-free to startup-dominated.
 */
core::ModelCost
randomCost(std::mt19937 &rng)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> kind(0, 2);
    const auto linear = [&](double volume) {
        core::LinearModel m;
        switch (kind(rng)) {
          case 0: m.alpha = 0.0; break;
          case 1: m.alpha = unit(rng); break;
          default: m.alpha = 20.0 + 50.0 * unit(rng); break;
        }
        m.beta = 50.0 * unit(rng) / volume; // up to 50 ms per whole task
        return m;
    };
    core::ModelCost cost;
    cost.models.alltoall = linear(1e8);
    cost.models.allgather = linear(1e8);
    cost.models.reducescatter = linear(1e8);
    cost.models.allreduce = linear(1e7);
    cost.models.gemm = linear(1e10);
    std::uniform_int_distribution<int> layers(1, 4), gemms(1, 4);
    for (int i = layers(rng); i > 0; --i) {
        core::LayerCost lc;
        lc.workload.a2aBytes = 1e8 * unit(rng);
        lc.workload.agBytes = 1e8 * unit(rng);
        lc.workload.rsBytes = 1e8 * unit(rng);
        lc.workload.expertMacs = 1e10 * unit(rng);
        lc.workload.expertGemms = gemms(rng);
        lc.workload.gradBytes = 1e7 * unit(rng);
        lc.fwd = core::forwardTimes(cost.models, lc.workload);
        lc.bwd = core::backwardTimes(cost.models, lc.workload);
        lc.fwd.attention = 10.0 * unit(rng);
        lc.bwd.attention = 2.0 * lc.fwd.attention;
        cost.layers.push_back(lc);
    }
    return cost;
}

/** The tuner's smallest Lina bucket: one gradient task per KB. */
constexpr const char *kSmallestBucket = "PipeMoE+Lina?chunkMB=0.0009765625";

/** Every registered degree-searching spec, plus @p extra if given. */
std::vector<std::string>
searchingSpecs(const char *extra)
{
    std::vector<std::string> specs;
    for (const std::string &name : core::ScheduleRegistry::instance().names())
        if (core::Schedule::create(name)->searchesDegree())
            specs.push_back(name);
    if (extra != nullptr)
        specs.push_back(extra);
    return specs;
}

/**
 * At every degree, the loads match the built graph's own per-link sums
 * within their margins, and their bound never exceeds its makespan.
 */
void
expectLoadsBoundTheMakespan(const core::Schedule &schedule,
                            const core::ModelCost &cost,
                            const std::string &what)
{
    const std::vector<core::LinkLoads> loads =
        schedule.degreeLinkLoads(cost, schedule.buildWithDegree(cost, 1));
    ASSERT_EQ(loads.size(), static_cast<size_t>(cost.rMax) + 1) << what;
    for (int r = 1; r <= cost.rMax; ++r) {
        const TaskGraph g = schedule.buildWithDegree(cost, r);
        const LinkTimes built = linkSums(g);
        for (size_t l = 0; l < built.size(); ++l)
            EXPECT_LE(std::fabs(loads[r].sum[l] - built[l]),
                      loads[r].margin[l])
                << what << " r=" << r << " link " << l;
        EXPECT_LE(loads[r].lowerBound(), Simulator{}.run(g).makespan)
            << what << " r=" << r;
    }
}

TEST(PreBuildLoads, NeverExceedTheMakespanOnDemoGridCosts)
{
    std::set<std::string> seen;
    for (const runtime::Scenario &s : runtime::demoGrid({1})) {
        if (!seen.insert(s.costKey()).second)
            continue;
        const core::ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        // The smallest bucket on the demo tune query's model (121k and
        // 242k tasks a graph); mixtral's would take 1-2 M.
        for (const std::string &spec : searchingSpecs(
                 s.model == "gpt2xl-moe" ? kSmallestBucket : nullptr))
            expectLoadsBoundTheMakespan(*core::Schedule::create(spec), cost,
                                        spec + " on " + s.label());
    }
    EXPECT_GT(seen.size(), 1u);
}

TEST(PreBuildLoads, NeverExceedTheMakespanOnRandomCosts)
{
    for (int seed = 0; seed < 12; ++seed) {
        std::mt19937 rng(0x10adu + static_cast<unsigned>(seed));
        const core::ModelCost cost = randomCost(rng);
        for (const std::string &spec : searchingSpecs(kSmallestBucket))
            expectLoadsBoundTheMakespan(*core::Schedule::create(spec), cost,
                                        spec + " seed " +
                                            std::to_string(seed));
    }
}

TEST(PreBuildLoads, MarginCoversTheClosedFormsRounding)
{
    // One Tutel layer with 1 ms of forward attention and free
    // communication: the compute link never idles, and its last finish
    // is its durations added in execution order. The expert chunks are
    // 2^-54 forward and 2^-53 backward (the alpha term only), so each
    // rounds away when added to 1, and the simulated makespan is 1 at
    // every degree.
    core::ModelCost cost;
    cost.models.gemm.alpha = std::ldexp(1.0, -54);
    core::LayerCost lc;
    lc.workload.expertGemms = 1;
    lc.fwd.attention = 1.0;
    cost.layers.push_back(lc);
    const auto schedule = core::Schedule::create("Tutel");
    const TaskGraph g = schedule->buildWithDegree(cost, 16);
    const SimResult sim = Simulator{}.run(g);
    ASSERT_EQ(sim.makespan, 1.0);
    ASSERT_EQ(sim.busyOf(Link::Compute), 1.0);

    // The closed form swaps degree 1's pipeline part for degree 16's
    // exactly, 16 * (2^-54 + 2^-53) = 12 * 2^-52: it lands on
    // fl(1 - 3 * 2^-54) + 12 * 2^-52 = 1 + 11 * 2^-52...
    const std::vector<core::LinkLoads> loads =
        schedule->degreeLinkLoads(cost, schedule->buildWithDegree(cost, 1));
    const core::LinkLoads &at = loads[16];
    const size_t compute = static_cast<size_t>(Link::Compute);
    EXPECT_EQ(at.sum[compute], 1.0 + 11 * std::ldexp(1.0, -52));
    EXPECT_GT(at.sum[compute], sim.busyOf(Link::Compute));
    // ...and the margin brings the bound back under the makespan.
    EXPECT_LE(at.lowerBound(), sim.makespan);
    EXPECT_GT(at.lowerBound(), 1.0 - std::ldexp(1.0, -40));
}

} // namespace
} // namespace fsmoe::sim
