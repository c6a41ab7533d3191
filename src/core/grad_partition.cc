#include "core/grad_partition.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "base/logging.h"
#include "base/stats.h"

namespace fsmoe::core {

namespace {

/** AllReduce time for a byte count, zero for an empty slice. */
double
garTime(const LinearModel &ar, double bytes)
{
    return bytes > 0.0 ? ar.predict(bytes) : 0.0;
}

/** Bytes whose AllReduce fits inside a window of @p ms milliseconds. */
double
garCapacity(const LinearModel &ar, double ms)
{
    return std::max(0.0, ar.inverse(ms));
}

/** True when two problems agree bit for bit in every field. */
bool
sameBits(const PipelineProblem &a, const PipelineProblem &b)
{
    auto fields = [](const PipelineProblem &p) {
        return std::array<double, 13>{
            p.a2a.alpha, p.a2a.beta, p.a2a.n,  p.ag.alpha, p.ag.beta,
            p.ag.n,      p.rs.alpha, p.rs.beta, p.rs.n,    p.exp.alpha,
            p.exp.beta,  p.exp.n,    p.tGar};
    };
    const auto fa = fields(a), fb = fields(b);
    return a.rMax == b.rMax &&
           std::memcmp(fa.data(), fb.data(), sizeof fa) == 0;
}

/** Fill a plan's solutions, times and total from its byte assignment. */
void
finalizePlan(GradPartitionPlan &plan,
             const std::vector<GeneralizedLayer> &layers,
             const LinearModel &ar, bool merged)
{
    const size_t n = layers.size();
    plan.tGar.assign(n, 0.0);
    plan.solutions.resize(n);
    plan.totalTimeMs = 0.0;
    for (size_t i = 0; i < n; ++i) {
        PipelineProblem prob = layers[i].moe;
        plan.tGar[i] = garTime(ar, plan.moeBytes[i]);
        prob.tGar = plan.tGar[i];
        plan.solutions[i] = merged ? solvePipelineMerged(prob)
                                   : solvePipeline(prob);
        plan.totalTimeMs += plan.solutions[i].tMoe + layers[i].denseOlpMs;
    }
    plan.totalTimeMs += garTime(ar, plan.exposedBytes);
}

} // namespace

GradPartitionPlan
partitionGradients(const std::vector<GeneralizedLayer> &layers,
                   const LinearModel &allreduce, const solver::DeConfig &de,
                   bool enable_step2, bool merged_channel)
{
    const size_t n = layers.size();
    FSMOE_CHECK_ARG(n >= 1, "need at least one generalized layer");

    GradPartitionPlan plan;
    plan.denseBytes.assign(n, 0.0);
    plan.moeBytes.assign(n, 0.0);

    // ---- Step 1 (Eqs. 3-4): greedy window filling. ----------------
    // Walk layers in backward execution order. A layer's gradient
    // becomes available as its backward runs (expert weight gradients
    // are produced chunk by chunk inside the pipeline), so — exactly
    // as Fig. 3d draws it — a layer can hide its *own* gradient as
    // well as anything pending from already-executed layers. Dense
    // windows fill first (they are free), then the pipeline slack.
    double pending = 0.0;
    // Unassigned bytes available at each layer, for step 2's bounds.
    std::vector<double> produced_prefix(n, 0.0);
    // The layers of one model usually pose the bit-identical problem,
    // so each run of equal problems is solved once.
    const PipelineProblem *solved = nullptr;
    PipelineSolution free_sol;
    for (size_t i = 0; i < n; ++i) {
        pending += layers[i].gradBytes;
        if (pending > 0.0) {
            double dense_cap = garCapacity(allreduce, layers[i].denseOlpMs);
            double take = std::min(pending, dense_cap);
            plan.denseBytes[i] = take;
            pending -= take;
        }
        if (pending > 0.0) {
            if (solved == nullptr || !sameBits(*solved, layers[i].moe)) {
                free_sol = merged_channel ? solvePipelineMerged(layers[i].moe)
                                          : solvePipeline(layers[i].moe);
                solved = &layers[i].moe;
            }
            double moe_cap = garCapacity(allreduce, free_sol.tOlpMoe);
            double take = std::min(pending, moe_cap);
            plan.moeBytes[i] = take;
            pending -= take;
        }
        produced_prefix[i] = pending; // bytes still unassigned after i
    }
    plan.exposedBytes = pending;

    if (!enable_step2 || pending <= 0.0) {
        finalizePlan(plan, layers, allreduce, merged_channel);
        return plan;
    }

    // ---- Step 2 (Eq. 5): optimise the remaining assignment. -------
    // Variables: extra bytes x_i ridden in layer i's pipeline on top of
    // the step-1 fill. Causality: bytes assigned to layers 0..i cannot
    // exceed the bytes left unassigned when layer i runs; violations
    // and over-assignment are penalised.
    const double remaining = pending;
    std::vector<double> lo(n, 0.0), hi(n, remaining);
    // Each layer's integer makespan as a function of t_gar, tabulated
    // once (and shared by runs of equal layers): DegreeTable::minTime
    // equals the exhaustive integer solve the objective needs, at a
    // fraction of its cost.
    std::vector<DegreeTable> tables;
    tables.reserve(n);
    std::vector<const DegreeTable *> table_of(n);
    for (size_t i = 0; i < n; ++i) {
        if (i == 0 || !sameBits(layers[i - 1].moe, layers[i].moe))
            tables.emplace_back(layers[i].moe, merged_channel);
        table_of[i] = &tables.back();
    }
    uint64_t evals = 0;
    auto objective = [&](const std::vector<double> &x) {
        ++evals;
        double total = 0.0;
        double assigned = 0.0;
        double violation = 0.0;
        double cum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            cum += x[i];
            double avail = produced_prefix[i];
            if (cum > avail)
                violation += cum - avail;
        }
        assigned = cum;
        if (assigned > remaining)
            violation += assigned - remaining;
        for (size_t i = 0; i < n; ++i)
            total += table_of[i]->minTime(
                garTime(allreduce, plan.moeBytes[i] + x[i]));
        double tail = std::max(0.0, remaining - assigned);
        total += garTime(allreduce, tail);
        // Penalty scale: one full AllReduce of the violation, squared
        // growth to push DE firmly inside the feasible region.
        if (violation > 0.0) {
            total += garTime(allreduce, violation) * 10.0 +
                     allreduce.beta * violation;
        }
        return total;
    };

    solver::DeResult best = solver::differentialEvolution(objective, lo, hi,
                                                          de);
    plan.deGenerations = best.generations;
    stats::counter("solver.step2.runs").inc();
    stats::counter("solver.de.evals").inc(evals);

    // Clip the DE solution to the feasible polytope before adopting it.
    double cum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double avail = produced_prefix[i];
        double x = std::max(0.0, best.x[i]);
        x = std::min(x, std::max(0.0, avail - cum));
        cum += x;
        plan.moeBytes[i] += x;
    }
    plan.exposedBytes = std::max(0.0, remaining - cum);
    finalizePlan(plan, layers, allreduce, merged_channel);
    return plan;
}

} // namespace fsmoe::core
