/**
 * @file
 * The retained slow solver paths, kept as test oracles.
 *
 * These are the pre-optimisation solver routines, verbatim in
 * behaviour, in namespace core::reference:
 *
 *  - caseAt / mergedMoeTime: the case tree evaluating all seven
 *    predicates, and the merged-channel makespan, as first written
 *    (production shares their expressions with DegreeTable).
 *  - solvePipeline: Algorithm 1 with one independent grid
 *    scan per case — every case solve calls caseAt on all 512 grid
 *    points (the production solver classifies the grid once).
 *  - partitionGradients: the two-step partitioner whose
 *    step-2 objective runs the full integer solve
 *    (solvePipelineExhaustive / solvePipelineMerged) for every layer
 *    on every evaluation, and whose step 1 solves every layer (the
 *    production code tabulates each layer once in a DegreeTable and
 *    reuses step-1 solutions across bit-identical layers).
 *
 * The production solver must stay *bit-identical* to these:
 * tests/solver_oracle_test.cc compares every output field with exact
 * ==. Keep this file dumb and obviously correct; it is the oracle.
 */
#ifndef FSMOE_TESTS_SOLVER_REFERENCE_H
#define FSMOE_TESTS_SOLVER_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "core/grad_partition.h"
#include "core/pipeline_solver.h"
#include "solver/minimize.h"

namespace fsmoe::core::reference {

/** Case id at degree @p r from the paper's seven predicates. */
inline int
caseAt(const PipelineProblem &p, double r)
{
    const double a2a = p.a2a.chunk(r);
    const double ag = p.ag.chunk(r);
    const double rs = p.rs.chunk(r);
    const double exp = p.exp.chunk(r);
    const double gar = p.tGar;
    const bool q1 = a2a > ag;
    const bool q2 = r * exp > 2.0 * (r - 1.0) * a2a;
    const bool q3 = r * exp > (r - 1.0) * (ag + rs);
    const bool q4 = gar > ag + rs;
    const bool q5 = gar > r * exp - 2.0 * (r - 1.0) * a2a + ag + rs;
    const bool q6 = gar > r * ag + r * rs - 2.0 * (r - 1.0) * a2a;
    const bool q7 = gar > ag + rs + r * exp - 2.0 * (r - 1.0) * a2a;
    if (q1) {
        if (q2)
            return q5 ? 1 : 2;
        return q4 ? 1 : 3;
    }
    if (q3)
        return q7 ? 1 : 2;
    return q6 ? 1 : 4;
}

/** Merged-channel makespan at degree @p r. */
inline double
mergedMoeTime(const PipelineProblem &p, double r)
{
    const double a2a = p.a2a.chunk(r);
    const double ag = p.ag.chunk(r);
    const double rs = p.rs.chunk(r);
    const double exp = p.exp.chunk(r);
    const double channel = r * (2.0 * a2a + ag + rs) + p.tGar;
    const double compute = 2.0 * a2a + ag + rs + r * exp;
    return std::max(channel, compute);
}

/** The grid-scan + golden-section constrained minimiser, unshared. */
inline std::optional<solver::Minimum>
minimizeConstrained(const std::function<double(double)> &f,
                    const std::function<bool(double)> &feasible, double lo,
                    double hi, int samples = 512)
{
    if (hi - lo < 1e-12) {
        if (!feasible(lo))
            return std::nullopt;
        return solver::Minimum{lo, f(lo)};
    }
    const double step = (hi - lo) / (samples - 1);
    double best_x = 0.0;
    double best_v = std::numeric_limits<double>::infinity();
    bool found = false;
    for (int i = 0; i < samples; ++i) {
        double x = lo + step * i;
        if (!feasible(x))
            continue;
        double v = f(x);
        if (v < best_v) {
            best_v = v;
            best_x = x;
            found = true;
        }
    }
    if (!found)
        return std::nullopt;

    double left = best_x, right = best_x;
    while (left - step >= lo && feasible(left - step))
        left -= step;
    while (right + step <= hi && feasible(right + step))
        right += step;
    solver::Minimum refined = solver::goldenSection(f, left, right);
    if (feasible(refined.x) && refined.value < best_v)
        return refined;
    return solver::Minimum{best_x, best_v};
}

/** Continuous constrained minimisation of one case objective. */
inline std::optional<solver::Minimum>
solveCase(const PipelineProblem &p, int case_id)
{
    auto objective = [&](double r) { return caseTime(p, case_id, r); };
    auto feasible = [&](double r) {
        return reference::caseAt(p, r) == case_id;
    };
    return minimizeConstrained(objective, feasible, 1.0,
                               static_cast<double>(p.rMax));
}

/** Algorithm 1 with four independent case scans. */
inline PipelineSolution
solvePipeline(const PipelineProblem &p)
{
    double best_cont_r = 1.0;
    double best_cont_t = std::numeric_limits<double>::infinity();
    for (int c = 1; c <= 4; ++c) {
        auto m = solveCase(p, c);
        if (m && m->value < best_cont_t) {
            best_cont_t = m->value;
            best_cont_r = m->x;
        }
    }
    if (!std::isfinite(best_cont_t)) {
        best_cont_r = 1.0;
        best_cont_t = analyticMoeTime(p, 1.0);
    }

    PipelineSolution sol;
    sol.rContinuous = best_cont_r;
    double best_t = std::numeric_limits<double>::infinity();
    int lo = std::max(1, static_cast<int>(std::floor(best_cont_r)) - 2);
    int hi = std::min(p.rMax, static_cast<int>(std::ceil(best_cont_r)) + 2);
    auto consider = [&](int r) {
        double t = analyticMoeTime(p, r);
        if (t < best_t) {
            best_t = t;
            sol.r = r;
        }
    };
    consider(1);
    for (int r = lo; r <= hi; ++r)
        consider(r);
    sol.tMoe = best_t;
    sol.caseId = reference::caseAt(p, sol.r);
    sol.tOlpMoe = overlappableMoeTime(p, sol.r);
    return sol;
}

inline double
garTime(const LinearModel &ar, double bytes)
{
    return bytes > 0.0 ? ar.predict(bytes) : 0.0;
}

inline double
garCapacity(const LinearModel &ar, double ms)
{
    return std::max(0.0, ar.inverse(ms));
}

inline void
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
                                   : reference::solvePipeline(prob);
        plan.totalTimeMs += plan.solutions[i].tMoe + layers[i].denseOlpMs;
    }
    plan.totalTimeMs += garTime(ar, plan.exposedBytes);
}

/** Greedy step 1 + DE step 2 with full integer solves per evaluation. */
inline GradPartitionPlan
partitionGradients(const std::vector<GeneralizedLayer> &layers,
                   const LinearModel &allreduce, const solver::DeConfig &de,
                   bool enable_step2, bool merged_channel)
{
    const size_t n = layers.size();
    GradPartitionPlan plan;
    plan.denseBytes.assign(n, 0.0);
    plan.moeBytes.assign(n, 0.0);

    double pending = 0.0;
    std::vector<double> produced_prefix(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        pending += layers[i].gradBytes;
        if (pending > 0.0) {
            double dense_cap = garCapacity(allreduce, layers[i].denseOlpMs);
            double take = std::min(pending, dense_cap);
            plan.denseBytes[i] = take;
            pending -= take;
        }
        if (pending > 0.0) {
            PipelineSolution free_sol =
                merged_channel ? solvePipelineMerged(layers[i].moe)
                               : reference::solvePipeline(layers[i].moe);
            double moe_cap = garCapacity(allreduce, free_sol.tOlpMoe);
            double take = std::min(pending, moe_cap);
            plan.moeBytes[i] = take;
            pending -= take;
        }
        produced_prefix[i] = pending;
    }
    plan.exposedBytes = pending;

    if (!enable_step2 || pending <= 0.0) {
        finalizePlan(plan, layers, allreduce, merged_channel);
        return plan;
    }

    const double remaining = pending;
    std::vector<double> lo(n, 0.0), hi(n, remaining);
    auto objective = [&](const std::vector<double> &x) {
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
        for (size_t i = 0; i < n; ++i) {
            PipelineProblem prob = layers[i].moe;
            prob.tGar = garTime(allreduce, plan.moeBytes[i] + x[i]);
            total += merged_channel ? solvePipelineMerged(prob).tMoe
                                    : solvePipelineExhaustive(prob).tMoe;
        }
        double tail = std::max(0.0, remaining - assigned);
        total += garTime(allreduce, tail);
        if (violation > 0.0) {
            total += garTime(allreduce, violation) * 10.0 +
                     allreduce.beta * violation;
        }
        return total;
    };

    solver::DeResult best = solver::differentialEvolution(objective, lo, hi,
                                                          de);
    plan.deGenerations = best.generations;

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

} // namespace fsmoe::core::reference

#endif // FSMOE_TESTS_SOLVER_REFERENCE_H
