#include "core/pipeline_solver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "base/logging.h"
#include "solver/minimize.h"

namespace fsmoe::core {

PipelineProblem
makeProblem(const PerfModelSet &models, const Workload &w, Phase phase,
            double t_gar, int r_max)
{
    const double bwd = phase == Phase::Backward ? 2.0 : 1.0;
    PipelineProblem p;
    p.a2a = {models.alltoall.alpha, models.alltoall.beta, w.a2aBytes};
    p.ag = {models.allgather.alpha, models.allgather.beta, w.agBytes};
    p.rs = {models.reducescatter.alpha, models.reducescatter.beta,
            w.rsBytes};
    // Expert startup scales with GEMM launches; backward doubles both
    // the launch count and the MAC volume (input + weight gradients).
    p.exp = {models.gemm.alpha * w.expertGemms * bwd, models.gemm.beta,
             w.expertMacs * bwd};
    p.tGar = phase == Phase::Backward ? t_gar : 0.0;
    p.rMax = r_max;
    return p;
}

namespace {

/**
 * The case analysis at degree r split at its one t_gar test. The
 * t_gar-free predicates Q1-Q3 pick the case that competes with case 1
 * and the bound t_gar must exceed for case 1 to hold instead: the
 * right-hand side of Q5 or Q4 when Q1 holds, of Q7 or Q6 when not.
 */
struct CaseSplit
{
    int other;    ///< Case (2-4) that holds while t_gar <= bound.
    double bound; ///< K_r: case 1 holds once t_gar exceeds it.
};

CaseSplit
caseSplit(const PipelineProblem &p, double r)
{
    const double a2a = p.a2a.chunk(r);
    const double ag = p.ag.chunk(r);
    const double rs = p.rs.chunk(r);
    const double exp = p.exp.chunk(r);
    if (a2a > ag) {                                  // Q1
        if (r * exp > 2.0 * (r - 1.0) * a2a)         // Q2
            return {2, r * exp - 2.0 * (r - 1.0) * a2a + ag + rs}; // Q5
        return {3, ag + rs};                                       // Q4
    }
    if (r * exp > (r - 1.0) * (ag + rs))             // Q3
        return {2, ag + rs + r * exp - 2.0 * (r - 1.0) * a2a};     // Q7
    return {4, r * ag + r * rs - 2.0 * (r - 1.0) * a2a};           // Q6
}

/** mergedMoeTime's terms: channel time without t_gar, compute path. */
struct MergedTerms
{
    double channel; ///< A_r: the shared channel's busy time.
    double compute; ///< B_r: the compute-bound pipeline path.
};

MergedTerms
mergedTerms(const PipelineProblem &p, double r)
{
    const double a2a = p.a2a.chunk(r);
    const double ag = p.ag.chunk(r);
    const double rs = p.rs.chunk(r);
    const double exp = p.exp.chunk(r);
    return {r * (2.0 * a2a + ag + rs), 2.0 * a2a + ag + rs + r * exp};
}

/// Scan-grid size of each case's constrained minimisation.
constexpr int kCaseGridSamples = 512;

} // namespace

int
caseAt(const PipelineProblem &p, double r)
{
    const CaseSplit split = caseSplit(p, r);
    return p.tGar > split.bound ? 1 : split.other;
}

double
caseTime(const PipelineProblem &p, int case_id, double r)
{
    const double a2a = p.a2a.chunk(r);
    const double ag = p.ag.chunk(r);
    const double rs = p.rs.chunk(r);
    const double exp = p.exp.chunk(r);
    switch (case_id) {
      case 1: // inter-node communication dominates (Eq. 2)
        return 2.0 * r * a2a + p.tGar;
      case 2: // expert computation dominates
        return 2.0 * a2a + ag + rs + r * exp;
      case 3: // AlltoAll dominates, gar and experts small
        return 2.0 * r * a2a + ag + rs;
      case 4: // intra-node communication dominates
        return 2.0 * a2a + r * (ag + rs);
      default:
        FSMOE_PANIC("invalid case id ", case_id);
    }
}

double
analyticMoeTime(const PipelineProblem &p, double r)
{
    return caseTime(p, caseAt(p, r), r);
}

double
overlappableMoeTime(const PipelineProblem &p, double r)
{
    PipelineProblem q = p;
    q.tGar = 0.0;
    const double a2a = q.a2a.chunk(r);
    const double ag = q.ag.chunk(r);
    const double rs = q.rs.chunk(r);
    const double exp = q.exp.chunk(r);
    switch (caseAt(q, r)) {
      case 2:
        return r * exp + ag + rs - 2.0 * (r - 1.0) * a2a;
      case 3:
        return ag + rs;
      case 4:
        return r * (ag + rs) - 2.0 * (r - 1.0) * a2a;
      default:
        // Case 1 with t_gar = 0 can only occur in degenerate corners
        // (see §5.2); the inter-node link then has no slack beyond the
        // first/last chunk boundaries.
        return ag + rs;
    }
}

PipelineSolution
solvePipeline(const PipelineProblem &p)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");

    // Lines 1-6 of Algorithm 1: per-case constrained solves. The four
    // solves scan one grid, so its points are classified once here.
    const double r_max = static_cast<double>(p.rMax);
    std::array<int8_t, kCaseGridSamples> grid_case;
    for (int i = 0; i < kCaseGridSamples; ++i) {
        grid_case[i] = static_cast<int8_t>(caseAt(
            p, solver::gridPoint(1.0, r_max, kCaseGridSamples, i)));
    }
    double best_cont_r = 1.0;
    double best_cont_t = std::numeric_limits<double>::infinity();
    for (int c = 1; c <= 4; ++c) {
        auto m = solver::minimizeConstrained(
            [&](double r) { return caseTime(p, c, r); },
            [&](double r) { return caseAt(p, r) == c; }, 1.0, r_max,
            kCaseGridSamples, [&](int i) { return grid_case[i] == c; });
        if (m && m->value < best_cont_t) {
            best_cont_t = m->value;
            best_cont_r = m->x;
        }
    }
    if (!std::isfinite(best_cont_t)) {
        // No case feasible anywhere on the grid (cannot happen: the
        // cases partition the space) — fall back to r = 1.
        best_cont_r = 1.0;
        best_cont_t = analyticMoeTime(p, 1.0);
    }

    // Integer refinement: a pipeline degree is a chunk count. Probe
    // the neighbourhood of the continuous optimum plus the boundary.
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
    sol.caseId = caseAt(p, sol.r);
    sol.tOlpMoe = overlappableMoeTime(p, sol.r);
    return sol;
}

double
mergedMoeTime(const PipelineProblem &p, double r)
{
    const MergedTerms terms = mergedTerms(p, r);
    return std::max(terms.channel + p.tGar, terms.compute);
}

PipelineSolution
solvePipelineMerged(const PipelineProblem &p)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    PipelineSolution sol;
    double best_t = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= p.rMax; ++r) {
        double t = mergedMoeTime(p, r);
        if (t < best_t) {
            best_t = t;
            sol.r = r;
        }
    }
    sol.rContinuous = sol.r;
    sol.tMoe = best_t;
    sol.caseId = caseAt(p, sol.r);
    // Channel slack usable by Gradient-AllReduce without extending the
    // merged-channel makespan.
    PipelineProblem q = p;
    q.tGar = 0.0;
    sol.tOlpMoe = std::max(
        0.0, mergedMoeTime(q, sol.r) -
                 (sol.r * (2.0 * q.a2a.chunk(sol.r) + q.ag.chunk(sol.r) +
                           q.rs.chunk(sol.r))));
    return sol;
}

PipelineSolution
solvePipelineExhaustive(const PipelineProblem &p)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    PipelineSolution sol;
    double best_t = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= p.rMax; ++r) {
        double t = analyticMoeTime(p, r);
        if (t < best_t) {
            best_t = t;
            sol.r = r;
        }
    }
    sol.rContinuous = sol.r;
    sol.tMoe = best_t;
    sol.caseId = caseAt(p, sol.r);
    sol.tOlpMoe = overlappableMoeTime(p, sol.r);
    return sol;
}

DegreeTable::DegreeTable(const PipelineProblem &p, bool merged)
    : merged_(merged)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    degrees_.reserve(p.rMax);
    for (int ri = 1; ri <= p.rMax; ++ri) {
        const double r = ri;
        if (merged) {
            const MergedTerms terms = mergedTerms(p, r);
            degrees_.push_back({terms.channel, 0.0, terms.compute});
        } else {
            const CaseSplit split = caseSplit(p, r);
            degrees_.push_back({2.0 * r * p.a2a.chunk(r), split.bound,
                                caseTime(p, split.other, r)});
        }
    }
}

double
DegreeTable::minTime(double t_gar) const
{
    // Same first-strict-minimum scan as the integer solvers.
    double best = std::numeric_limits<double>::infinity();
    if (merged_) {
        for (const Degree &d : degrees_) {
            const double t = std::max(d.garBase + t_gar, d.otherTime);
            if (t < best)
                best = t;
        }
    } else {
        for (const Degree &d : degrees_) {
            const double t =
                t_gar > d.threshold ? d.garBase + t_gar : d.otherTime;
            if (t < best)
                best = t;
        }
    }
    return best;
}

} // namespace fsmoe::core
