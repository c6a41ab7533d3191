/**
 * @file
 * Exactness of the fast solver paths against the retained slow ones
 * (tests/solver_reference.h), plus property tests of the paper's
 * analytic model: case formulas agree where the t_gar predicates
 * flip, and the best integer makespan is monotone in t_gar.
 *
 * Every comparison with the oracle is exact ==: the fast paths must
 * not move one output bit.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/grad_partition.h"
#include "core/pipeline_solver.h"
#include "solver_reference.h"

namespace fsmoe::core {
namespace {

constexpr int kRMaxes[] = {1, 2, 16, 64};

double
logUniform(std::mt19937_64 &rng, double lo, double hi)
{
    std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
    return std::exp(u(rng));
}

/**
 * A random problem: per-task startups of 1 us..1 ms and total times of
 * 1 us..100 ms, so every resource can dominate and all four cases
 * occur across degrees.
 */
PipelineProblem
randomProblem(std::mt19937_64 &rng, int r_max)
{
    auto task = [&] {
        return TaskModel{logUniform(rng, 1e-3, 1.0),
                         logUniform(rng, 1e-9, 1e-6),
                         logUniform(rng, 1e6, 1e8)};
    };
    PipelineProblem p;
    p.a2a = task();
    p.ag = task();
    p.rs = task();
    p.exp = task();
    p.rMax = r_max;
    return p;
}

/**
 * The right-hand sides of Q4..Q7 at degree @p r, computed as caseAt
 * computes them: the t_gar values at which a case predicate flips.
 */
std::vector<double>
predicateBounds(const PipelineProblem &p, double r)
{
    const double a2a = p.a2a.chunk(r);
    const double ag = p.ag.chunk(r);
    const double rs = p.rs.chunk(r);
    const double exp = p.exp.chunk(r);
    return {ag + rs, r * exp - 2.0 * (r - 1.0) * a2a + ag + rs,
            r * ag + r * rs - 2.0 * (r - 1.0) * a2a,
            ag + rs + r * exp - 2.0 * (r - 1.0) * a2a};
}

/**
 * t_gar probes for @p p: zero, 1e9, and every predicate bound and
 * merged-channel crossover of every degree with its two neighbouring
 * doubles.
 */
std::vector<double>
garProbes(const PipelineProblem &p)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> out = {0.0, 1e9};
    for (int ri = 1; ri <= p.rMax; ++ri) {
        const double r = ri;
        std::vector<double> edges = predicateBounds(p, r);
        const double a2a = p.a2a.chunk(r);
        const double ag = p.ag.chunk(r);
        const double rs = p.rs.chunk(r);
        const double exp = p.exp.chunk(r);
        edges.push_back((2.0 * a2a + ag + rs + r * exp) -
                        r * (2.0 * a2a + ag + rs));
        for (double k : edges) {
            out.push_back(k);
            out.push_back(std::nextafter(k, kInf));
            out.push_back(std::nextafter(k, -kInf));
        }
    }
    return out;
}

void
expectSameSolution(const PipelineSolution &got, const PipelineSolution &want)
{
    EXPECT_EQ(got.rContinuous, want.rContinuous);
    EXPECT_EQ(got.r, want.r);
    EXPECT_EQ(got.tMoe, want.tMoe);
    EXPECT_EQ(got.caseId, want.caseId);
    EXPECT_EQ(got.tOlpMoe, want.tOlpMoe);
}

TEST(SolverOracle, CaseTreeAndMergedTimeEqualOriginals)
{
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 40; ++trial) {
        PipelineProblem p = randomProblem(rng, 64);
        for (double g : garProbes(p)) {
            p.tGar = g;
            for (int r = 1; r <= p.rMax; r += 7) {
                ASSERT_EQ(caseAt(p, r), reference::caseAt(p, r))
                    << "trial=" << trial << " r=" << r << " g=" << g;
                ASSERT_EQ(mergedMoeTime(p, r),
                          reference::mergedMoeTime(p, r))
                    << "trial=" << trial << " r=" << r << " g=" << g;
            }
        }
    }
}

TEST(SolverOracle, DegreeTableEqualsIntegerSolves)
{
    std::mt19937_64 rng(12);
    int probes = 0;
    for (int r_max : kRMaxes) {
        for (int trial = 0; trial < 40; ++trial) {
            PipelineProblem p = randomProblem(rng, r_max);
            const DegreeTable separate(p, false);
            const DegreeTable merged(p, true);
            for (double g : garProbes(p)) {
                PipelineProblem q = p;
                q.tGar = g;
                ASSERT_EQ(separate.minTime(g),
                          solvePipelineExhaustive(q).tMoe)
                    << "rMax=" << r_max << " trial=" << trial
                    << " g=" << g;
                ASSERT_EQ(merged.minTime(g), solvePipelineMerged(q).tMoe)
                    << "rMax=" << r_max << " trial=" << trial
                    << " g=" << g;
                ++probes;
            }
        }
    }
    EXPECT_GT(probes, 10000);
}

TEST(SolverOracle, SolvePipelineEqualsPerCaseScans)
{
    std::mt19937_64 rng(34);
    int cases_seen[5] = {};
    for (int r_max : kRMaxes) {
        for (int trial = 0; trial < 40; ++trial) {
            PipelineProblem p = randomProblem(rng, r_max);
            // Zero, a threshold-straddling value and a huge t_gar.
            const std::vector<double> bounds = predicateBounds(
                p, static_cast<double>(1 + trial % r_max));
            for (double g : {0.0, bounds[trial % 4],
                             std::nextafter(bounds[trial % 4], 0.0), 1e9}) {
                p.tGar = g;
                const PipelineSolution want = reference::solvePipeline(p);
                expectSameSolution(solvePipeline(p), want);
                ++cases_seen[want.caseId];
            }
        }
    }
    for (int c = 1; c <= 4; ++c)
        EXPECT_GT(cases_seen[c], 0) << "no solve ended in case " << c;
}

/** Random layer stacks: runs of bit-identical layers and odd ones. */
std::vector<GeneralizedLayer>
randomLayers(std::mt19937_64 &rng, int r_max)
{
    std::uniform_int_distribution<int> count(1, 6);
    const int n = count(rng);
    const PipelineProblem shared = randomProblem(rng, r_max);
    std::vector<GeneralizedLayer> layers(n);
    for (GeneralizedLayer &gl : layers) {
        gl.moe = rng() % 3 == 0 ? randomProblem(rng, r_max) : shared;
        gl.denseOlpMs = logUniform(rng, 1e-3, 2.0);
        gl.gradBytes = logUniform(rng, 1e6, 5e8);
    }
    return layers;
}

void
expectSamePlan(const GradPartitionPlan &got, const GradPartitionPlan &want)
{
    EXPECT_EQ(got.denseBytes, want.denseBytes);
    EXPECT_EQ(got.moeBytes, want.moeBytes);
    EXPECT_EQ(got.tGar, want.tGar);
    ASSERT_EQ(got.solutions.size(), want.solutions.size());
    for (size_t i = 0; i < got.solutions.size(); ++i)
        expectSameSolution(got.solutions[i], want.solutions[i]);
    EXPECT_EQ(got.exposedBytes, want.exposedBytes);
    EXPECT_EQ(got.totalTimeMs, want.totalTimeMs);
    EXPECT_EQ(got.deGenerations, want.deGenerations);
}

TEST(SolverOracle, PartitionGradientsEqualsFullSolveObjective)
{
    std::mt19937_64 rng(56);
    const LinearModel allreduce{0.05, 2e-8, 1.0};
    // A short DE keeps the full-solve oracle affordable; one default
    // configuration below runs the production budget.
    solver::DeConfig de;
    de.populationSize = 12;
    de.maxGenerations = 25;
    int step2_runs = 0;
    for (bool merged : {false, true}) {
        for (int r_max : kRMaxes) {
            for (int trial = 0; trial < 6; ++trial) {
                const auto layers = randomLayers(rng, r_max);
                de.seed = rng();
                const GradPartitionPlan want = reference::partitionGradients(
                    layers, allreduce, de, true, merged);
                expectSamePlan(
                    partitionGradients(layers, allreduce, de, true, merged),
                    want);
                expectSamePlan(
                    partitionGradients(layers, allreduce, de, false, merged),
                    reference::partitionGradients(layers, allreduce, de,
                                                  false, merged));
                step2_runs += want.deGenerations > 0;
            }
        }
    }
    EXPECT_GT(step2_runs, 24) << "too few trials reached step 2";

    const auto layers = randomLayers(rng, 16);
    for (bool merged : {false, true}) {
        expectSamePlan(partitionGradients(layers, allreduce, {}, true, merged),
                       reference::partitionGradients(layers, allreduce, {},
                                                     true, merged));
    }
}

/** |a - b| within 1e-9 of the larger magnitude. */
::testing::AssertionResult
relNear(double a, double b)
{
    const double tol = 1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-300});
    if (std::fabs(a - b) <= tol)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " vs " << b << " differ by " << std::fabs(a - b);
}

TEST(AnalyticModel, Case1MeetsCompetingCaseAtEachPredicateBoundary)
{
    // At the t_gar where q4/q5/q6/q7 flips, case 1's formula must
    // equal the case it replaces (3, 2, 4 and 2 respectively), so the
    // makespan is continuous in t_gar.
    constexpr int kCompeting[] = {3, 2, 4, 2};
    std::mt19937_64 rng(78);
    for (int trial = 0; trial < 200; ++trial) {
        PipelineProblem p = randomProblem(rng, 64);
        for (int r = 1; r <= p.rMax; r += 3) {
            const std::vector<double> bounds = predicateBounds(p, r);
            for (int q = 0; q < 4; ++q) {
                p.tGar = bounds[q];
                EXPECT_TRUE(relNear(caseTime(p, 1, r),
                                    caseTime(p, kCompeting[q], r)))
                    << "q" << q + 4 << " boundary, r=" << r;
            }
        }
    }
}

TEST(AnalyticModel, MinTimeIsMonotoneInTGar)
{
    std::mt19937_64 rng(90);
    for (int r_max : kRMaxes) {
        for (int trial = 0; trial < 30; ++trial) {
            const PipelineProblem p = randomProblem(rng, r_max);
            std::vector<double> gs = garProbes(p);
            for (int k = 0; k < 64; ++k)
                gs.push_back(logUniform(rng, 1e-4, 1e3));
            std::sort(gs.begin(), gs.end());
            for (bool merged : {false, true}) {
                const DegreeTable table(p, merged);
                for (size_t k = 1; k < gs.size(); ++k) {
                    const double prev = table.minTime(gs[k - 1]);
                    const double cur = table.minTime(gs[k]);
                    EXPECT_TRUE(cur >= prev || relNear(cur, prev))
                        << "merged=" << merged << " t_gar " << gs[k - 1]
                        << " -> " << gs[k] << ": " << prev << " -> "
                        << cur;
                }
            }
        }
    }
}

} // namespace
} // namespace fsmoe::core
