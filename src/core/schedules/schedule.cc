#include "core/schedules/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/audit.h"
#include "base/logging.h"
#include "base/stats.h"

namespace fsmoe::core {

namespace {

/** The link intra-node collectives use. */
sim::Link
commLink(bool merged)
{
    return merged ? sim::Link::InterNode : sim::Link::IntraNode;
}

/** One MoE phase's per-chunk durations at pipeline degree r. */
struct ChunkTimes
{
    double a2a; ///< Each dispatch and each combine.
    double ag;
    double rs;
    double exp;
};

ChunkTimes
chunkTimes(const PerfModelSet &models, const LayerCost &lc, Phase phase,
           int r)
{
    const PipelineProblem prob =
        makeProblem(models, lc.workload, phase, 0.0, r);
    return {prob.a2a.chunk(r), prob.ag.chunk(r), prob.rs.chunk(r),
            prob.exp.chunk(r)};
}

/** The pipeline chunks detail::appendMoePhase emits over one model. */
struct PipelineLoads
{
    sim::LinkTimes sum{}; ///< Their durations per link.
    double tasks = 0.0;   ///< How many there are.
};

/** Pipeline chunks of every layer, forward and backward, at degree r. */
PipelineLoads
pipelineLoads(const ModelCost &model, int r,
              const detail::PipelineBuildOptions &opts)
{
    const size_t inter = static_cast<size_t>(sim::Link::InterNode);
    const size_t intra = static_cast<size_t>(commLink(opts.mergeCommLinks));
    const size_t compute = static_cast<size_t>(sim::Link::Compute);
    PipelineLoads loads;
    for (const LayerCost &lc : model.layers) {
        for (Phase phase : {Phase::Forward, Phase::Backward}) {
            const ChunkTimes c = chunkTimes(model.models, lc, phase, r);
            loads.sum[inter] += r * c.a2a; // dispatch
            loads.sum[intra] += r * c.ag;
            loads.sum[compute] += r * c.exp;
            loads.sum[intra] += r * c.rs;
            loads.sum[inter] += r * c.a2a; // combine
            loads.tasks += 5.0 * r;
        }
    }
    return loads;
}

#if FSMOE_AUDIT_ENABLED
/**
 * Drift guard: build the degree @p loads ruled out and check that they
 * match its own per-link sums within their margins, which hold only
 * while the builder depends on r through appendMoePhase alone. Never
 * simulates, so simulation counts are the same with audits on or off.
 */
void
auditLinkLoads(const Schedule &schedule, const ModelCost &model, int r,
               const LinkLoads &loads)
{
    static stats::Counter &checks =
        stats::counter("audit.degreeSearch.loadChecks");
    const sim::LinkTimes built =
        sim::linkSums(schedule.buildWithDegree(model, r));
    for (size_t l = 0; l < built.size(); ++l) {
        if (!(std::fabs(loads.sum[l] - built[l]) <= loads.margin[l]))
            FSMOE_PANIC("schedule '", schedule.spec(), "' degree ", r,
                        ": link ", l, " sums to ", built[l],
                        " but its pre-build load is ", loads.sum[l],
                        " +- ", loads.margin[l],
                        " (does the builder depend on r outside "
                        "appendMoePhase?)");
    }
    checks.inc();
}
#endif

} // namespace

double
LinkLoads::lowerBound() const
{
    double bound = 0.0;
    for (size_t l = 0; l < sum.size(); ++l)
        bound = std::max(bound, sum[l] - margin[l]);
    return bound;
}

LayerCost
makeLayerCost(const PerfModelSet &models, const LayerShape &shape,
              const ParallelConfig &par)
{
    LayerCost lc;
    lc.workload = deriveWorkload(shape, par);
    lc.fwd = forwardTimes(models, lc.workload);
    lc.bwd = backwardTimes(models, lc.workload);
    return lc;
}

double
Schedule::iterationTimeMs(const ModelCost &model) const
{
    return simulate(model).makespan;
}

sim::SimResult
Schedule::simulate(const ModelCost &model, sim::TaskGraph *graph_out) const
{
    sim::TaskGraph graph = build(model);
    sim::Simulator simulator;
    sim::SimResult result = simulator.run(graph);
    if (graph_out)
        *graph_out = std::move(graph);
    return result;
}

sim::TaskGraph
Schedule::buildWithDegree(const ModelCost &model, int r) const
{
    (void)model;
    FSMOE_PANIC("schedule '", name_, "' has no pipeline degree to fix (r=",
                r, ")");
}

std::vector<LinkLoads>
Schedule::degreeLinkLoads(const ModelCost &model,
                          const sim::TaskGraph &degree_one) const
{
    (void)model;
    (void)degree_one;
    return {};
}

int
searchDegree(const Schedule &schedule, const ModelCost &model,
             const GraphMakespan &makespan, sim::TaskGraph *winner)
{
    static stats::Counter &pruned = stats::counter("core.degreeSearch.pruned");
    static stats::Counter &unbuilt =
        stats::counter("core.degreeSearch.unbuilt");
    // The last graph built, of degree `built`; the previous one is
    // freed before each build, so no two search graphs are ever alive.
    sim::TaskGraph graph;
    int built = 0;
    const auto build = [&](int r) {
        graph = sim::TaskGraph();
        graph = schedule.buildWithDegree(model, r);
        built = r;
    };
    build(1);
    int best_r = 1;
    double best_t = makespan(graph);
    const std::vector<LinkLoads> loads =
        schedule.degreeLinkLoads(model, graph);
    for (int r = 2; r <= model.rMax; ++r) {
        // A degree whose lower bound reaches best_t cannot pass the
        // strict < below, whatever it simulates to: check the bound
        // that needs no graph first, then the built graph's own.
        if (!loads.empty() && loads[r].lowerBound() >= best_t) {
            FSMOE_AUDIT(auditLinkLoads(schedule, model, r, loads[r]));
            unbuilt.inc();
            pruned.inc();
            continue;
        }
        build(r);
        if (sim::makespanLowerBound(graph) >= best_t) {
            pruned.inc();
            continue;
        }
        const double t = makespan(graph);
        if (t < best_t) {
            best_t = t;
            best_r = r;
        }
    }
    if (winner != nullptr) {
        if (built != best_r)
            build(best_r);
        *winner = std::move(graph);
    }
    return best_r;
}

sim::TaskGraph
AdaptiveDegreeSchedule::build(const ModelCost &model) const
{
    if (degree_ > 0)
        return buildWithDegree(model, degree_);
    const sim::Simulator simulator{};
    sim::TaskGraph graph;
    searchDegree(
        *this, model,
        [&](const sim::TaskGraph &g) { return simulator.run(g).makespan; },
        &graph);
    return graph;
}

/*
 * Why sum - margin never exceeds the simulated makespan T of degree
 * r's graph G_r, on each link. Let u = 2^-53, n_1 the task count of
 * degree 1's graph G_1 and m_r the pipeline chunks at degree r, so
 * N = n_1 + m_r bounds the task count of G_1, of G_r and the chunk
 * count of either pipeline on any link.
 *
 * On a link, G_r's durations are G_1's with G_1's pipeline chunks
 * (exact sum P_1) swapped for G_r's (exact sum P_r): only
 * appendMoePhase depends on r. So their exact sum is
 * S_r = S_1 - P_1 + P_r, with S_1 G_1's exact sum. The code forms
 * s1 (G_1's id-order sum), p1 and pr (r * chunk products, then summed)
 * and sum = fl(fl(s1 - p1) + pr). For k non-negative terms, any
 * recursive summation is within gamma_k S of the exact sum S, with
 * gamma_k = k u / (1 - k u), and one more u covers pr's products.
 * With M = s1 + p1 + pr, the three sums are off by at most
 * (N + 1) u M together, and the two outer operations by u M each
 * (|s1 - p1| and the result are <= M). So |sum - S_r| <= (N + 3) u M,
 * up to terms of order (N u)^2 M.
 *
 * The simulator finishes the link's last task no earlier than G_r's
 * durations summed in execution order (the makespanLowerBound proof in
 * sim/simulator.cc), which is >= (1 - gamma_N) S_r >= S_r - N u M. So
 * T >= sum - (2N + 3) u M. The margin is 4 (N + 1) u M, and forming
 * fl(sum - fl(4 (N + 1) u * fl(M))) rounds three more times (M twice,
 * the difference once; each at most u M), which the 2N + 1 spare
 * units cover. The same two estimates put G_r's own id-order sum
 * within (2N + 3) u M of `sum`, which is what the audit checks.
 */
std::vector<LinkLoads>
AdaptiveDegreeSchedule::degreeLinkLoads(const ModelCost &model,
                                        const sim::TaskGraph &degree_one) const
{
    const sim::LinkTimes one = sim::linkSums(degree_one);
    const PipelineLoads one_pipe = pipelineLoads(model, 1, opts_);
    std::vector<LinkLoads> loads(static_cast<size_t>(model.rMax) + 1);
    for (int r = 1; r <= model.rMax; ++r) {
        const PipelineLoads pipe = pipelineLoads(model, r, opts_);
        const double n = static_cast<double>(degree_one.size()) + pipe.tasks;
        const double rel = std::ldexp(4.0 * (n + 1.0), -53);
        LinkLoads &at = loads[static_cast<size_t>(r)];
        for (size_t l = 0; l < one.size(); ++l) {
            at.sum[l] = (one[l] - one_pipe.sum[l]) + pipe.sum[l];
            at.margin[l] = rel * (one[l] + one_pipe.sum[l] + pipe.sum[l]);
        }
    }
    return loads;
}

namespace detail {

const char *
streamName(int stream)
{
    switch (stream) {
      case kCompute: return "compute";
      case kDispatch: return "dispatch";
      case kAllGather: return "allgather";
      case kReduceScatter: return "reducescatter";
      case kCombine: return "combine";
      case kGradAllReduce: return "grad-allreduce";
      default: return nullptr;
    }
}

void
reserveIteration(sim::TaskGraph &graph, size_t num_layers, int r_max,
                 size_t grad_tasks)
{
    const size_t r = static_cast<size_t>(std::max(1, r_max));
    // Per layer per phase: attention, routing, order, iorder, up to
    // 5r pipeline chunks, and an in-pipeline Gradient-AllReduce; plus
    // slack for per-layer gradient tasks (Lina buckets, Tutel slices,
    // exposed tails) and the end-of-iteration barrier.
    const size_t per_phase = 5 + 5 * r;
    graph.reserve(num_layers * 2 * per_phase + 8 * num_layers + 2 +
                      grad_tasks,
                  num_layers * 2 * (6 * r + 8) + 8 * num_layers + 8 +
                      2 * grad_tasks);
}

sim::TaskId
appendAttention(sim::TaskGraph &graph, const LayerCost &lc, Phase phase,
                const PipelineBuildOptions &opts, sim::TaskId dep)
{
    (void)opts;
    const PhaseTimes &t = phase == Phase::Forward ? lc.fwd : lc.bwd;
    if (dep < 0)
        return graph.addTask("attention", sim::OpType::Attention,
                             sim::Link::Compute, kCompute, t.attention);
    return graph.addTask("attention", sim::OpType::Attention,
                         sim::Link::Compute, kCompute, t.attention, {dep});
}

sim::TaskId
appendMoePhase(sim::TaskGraph &graph, const LayerCost &lc,
               const PerfModelSet &models, Phase phase, int r,
               const PipelineBuildOptions &opts, sim::TaskId dep,
               double gar_ms, sim::TaskId *gar_out)
{
    FSMOE_CHECK_ARG(r >= 1, "pipeline degree must be >= 1");
    const PhaseTimes &t = phase == Phase::Forward ? lc.fwd : lc.bwd;
    const ChunkTimes chunk = chunkTimes(models, lc, phase, r);

    const int s_comp = kCompute;
    const int s_disp = opts.sequential ? kCompute : kDispatch;
    const int s_ag = opts.sequential ? kCompute : kAllGather;
    const int s_rs = opts.sequential ? kCompute : kReduceScatter;
    const int s_comb = opts.sequential ? kCompute : kCombine;
    // Gradient-AllReduce gets its own queue; the Fig. 3d placement
    // (after the last dispatch chunk) is enforced by its dependency,
    // and a separate queue keeps later layers' dispatches from
    // queueing behind it.
    const int s_gar = opts.sequential ? kCompute : kGradAllReduce;

    const sim::Link l_inter = sim::Link::InterNode;
    const sim::Link l_intra = commLink(opts.mergeCommLinks);

    const sim::TaskId routing =
        dep < 0 ? graph.addTask("routing", sim::OpType::Routing,
                                sim::Link::Compute, s_comp, t.routing)
                : graph.addTask("routing", sim::OpType::Routing,
                                sim::Link::Compute, s_comp, t.routing,
                                {dep});
    sim::TaskId order = graph.addTask("order", sim::OpType::Order,
                                      sim::Link::Compute, s_comp, t.order,
                                      {routing});

    // Pipelined body: dispatch_i -> allgather_i -> experts_i ->
    // reducescatter_i -> combine_i, all chunks independent of each
    // other except through the shared links and streams. Labels are
    // lazy {base, chunk} pairs, so none of this formats or allocates
    // strings on the sweep hot path.
    std::vector<sim::TaskId> dispatch(r), combine(r);
    for (int i = 0; i < r; ++i) {
        dispatch[i] = graph.addTask({"d", i}, sim::OpType::AlltoAll,
                                    l_inter, s_disp, chunk.a2a, {order});
    }
    sim::TaskId gar = -1;
    if (gar_ms > 0.0) {
        // Background priority: the partitioner sized this AllReduce to
        // fit the pipeline's slack, and yielding the channel to
        // AlltoAll chunks keeps it from stretching the pipeline when
        // the estimate is tight.
        gar = graph.addTask("gar", sim::OpType::GradAllReduce, l_inter,
                            s_gar, gar_ms, {dispatch[r - 1]},
                            /*priority=*/1);
    }
    if (gar_out)
        *gar_out = gar;
    for (int i = 0; i < r; ++i) {
        sim::TaskId ag = graph.addTask({"g", i}, sim::OpType::AllGather,
                                       l_intra, s_ag, chunk.ag, {dispatch[i]});
        sim::TaskId exp = graph.addTask({"e", i}, sim::OpType::Experts,
                                        sim::Link::Compute, s_comp, chunk.exp,
                                        {ag});
        sim::TaskId rs = graph.addTask({"s", i}, sim::OpType::ReduceScatter,
                                       l_intra, s_rs, chunk.rs, {exp});
        combine[i] = graph.addTask({"c", i}, sim::OpType::AlltoAll, l_inter,
                                   s_comb, chunk.a2a, {rs});
    }

    // The inverse order waits for every combined chunk; the gradient
    // AllReduce does not gate it (only the end-of-iteration barrier
    // waits for AllReduces, so they may spill into later dense work).
    std::vector<sim::TaskId> tail_deps;
    tail_deps.reserve(r);
    tail_deps.push_back(combine.back());
    for (int i = 0; i + 1 < r; ++i)
        tail_deps.push_back(combine[i]);
    return graph.addTask("iorder", sim::OpType::Order, sim::Link::Compute,
                         s_comp, t.order, std::move(tail_deps));
}

std::vector<GeneralizedLayer>
makeGeneralizedLayers(const ModelCost &model)
{
    std::vector<GeneralizedLayer> layers;
    layers.reserve(model.layers.size());
    // Backward executes model layers last-to-first.
    for (auto it = model.layers.rbegin(); it != model.layers.rend(); ++it) {
        GeneralizedLayer gl;
        gl.moe = makeProblem(model.models, it->workload, Phase::Backward,
                             0.0, model.rMax);
        gl.denseOlpMs = it->bwd.attention + it->bwd.routing +
                        2.0 * it->bwd.order;
        gl.gradBytes = it->workload.gradBytes;
        layers.push_back(gl);
    }
    return layers;
}

} // namespace detail

} // namespace fsmoe::core
