/**
 * @file
 * Unit tests for the numeric solvers: least squares, 1-D minimisation,
 * and differential evolution.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "solver/differential_evolution.h"
#include "solver/least_squares.h"
#include "solver/minimize.h"

namespace fsmoe::solver {
namespace {

TEST(LeastSquares, RecoversExactLine)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(0.5 + 2.0 * x);
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.intercept, 0.5, 1e-12);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LeastSquares, NoisyFitHasHighR2)
{
    std::vector<double> xs, ys;
    for (int i = 1; i <= 24; ++i) {
        double x = i * 1048576.0;
        xs.push_back(x);
        // +-0.5% deterministic wiggle.
        double noise = 1.0 + 0.005 * std::sin(i * 1.7);
        ys.push_back((0.3 + 2.2e-7 * x) * noise);
    }
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 2.2e-7, 2e-9);
    EXPECT_GT(fit.r2, 0.999);
}

TEST(LeastSquares, FlatDataGivesZeroSlopePerfectR2)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {4, 4, 4};
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(GoldenSection, FindsQuadraticMinimum)
{
    auto f = [](double x) { return (x - 2.7) * (x - 2.7) + 1.0; };
    Minimum m = goldenSection(f, 0.0, 10.0);
    EXPECT_NEAR(m.x, 2.7, 1e-4);
    EXPECT_NEAR(m.value, 1.0, 1e-8);
}

TEST(MinimizeConstrained, RespectsFeasibleRegion)
{
    auto f = [](double x) { return (x - 5.0) * (x - 5.0); };
    auto feasible = [](double x) { return x <= 3.0; };
    auto m = minimizeConstrained(f, feasible, 0.0, 10.0);
    ASSERT_TRUE(m.has_value());
    EXPECT_NEAR(m->x, 3.0, 0.05);
}

TEST(MinimizeConstrained, HandlesDisjointFeasibleSet)
{
    auto f = [](double x) { return x; };
    auto feasible = [](double x) {
        return (x >= 2.0 && x <= 3.0) || (x >= 7.0 && x <= 8.0);
    };
    auto m = minimizeConstrained(f, feasible, 0.0, 10.0);
    ASSERT_TRUE(m.has_value());
    EXPECT_NEAR(m->x, 2.0, 0.05);
}

TEST(MinimizeConstrained, ReturnsEmptyWhenInfeasible)
{
    auto f = [](double x) { return x; };
    auto feasible = [](double) { return false; };
    EXPECT_FALSE(minimizeConstrained(f, feasible, 0.0, 1.0).has_value());
}

TEST(DifferentialEvolution, SolvesSphere)
{
    auto sphere = [](const std::vector<double> &x) {
        double s = 0.0;
        for (double v : x)
            s += (v - 1.5) * (v - 1.5);
        return s;
    };
    std::vector<double> lo(4, -10.0), hi(4, 10.0);
    DeResult r = differentialEvolution(sphere, lo, hi);
    EXPECT_LT(r.value, 1e-3);
    for (double v : r.x)
        EXPECT_NEAR(v, 1.5, 0.05);
}

TEST(DifferentialEvolution, SolvesRosenbrock2D)
{
    auto rosen = [](const std::vector<double> &x) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    std::vector<double> lo(2, -2.0), hi(2, 2.0);
    DeConfig cfg;
    cfg.maxGenerations = 400;
    DeResult r = differentialEvolution(rosen, lo, hi, cfg);
    EXPECT_LT(r.value, 1e-2);
}

TEST(DifferentialEvolution, RespectsBoxBounds)
{
    auto f = [](const std::vector<double> &x) { return -x[0]; };
    std::vector<double> lo = {0.0}, hi = {2.0};
    DeResult r = differentialEvolution(f, lo, hi);
    EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(DifferentialEvolution, DeterministicGivenSeed)
{
    auto f = [](const std::vector<double> &x) {
        return std::sin(x[0]) + x[0] * x[0] * 0.1;
    };
    std::vector<double> lo = {-5.0}, hi = {5.0};
    DeResult a = differentialEvolution(f, lo, hi);
    DeResult b = differentialEvolution(f, lo, hi);
    EXPECT_EQ(a.x[0], b.x[0]);
    EXPECT_EQ(a.value, b.value);
}

} // namespace
} // namespace fsmoe::solver
