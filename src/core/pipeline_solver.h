/**
 * @file
 * Adaptive pipeline-degree optimisation (paper §4, Algorithm 1).
 *
 * Splitting the MoE layer's input into r chunks pipelines four task
 * types: AlltoAll dispatch/combine (inter-node), ESP-AllGather and
 * ESP-ReduceScatter (intra-node), and expert computation. The paper
 * classifies which resource dominates into four cases via predicates
 * Q1..Q7, derives a closed-form makespan t1..t4 per case, and solves
 * each case's constrained minimisation, returning the best (r, t).
 *
 * The Gradient-AllReduce time t_gar rides the inter-node link inside
 * the MoE pipeline (Fig. 3d): it is zero in the forward phase and
 * supplied by the gradient partitioner (§5) in the backward phase.
 */
#ifndef FSMOE_CORE_PIPELINE_SOLVER_H
#define FSMOE_CORE_PIPELINE_SOLVER_H

#include <vector>

#include "core/moe_config.h"
#include "core/perf_model.h"

namespace fsmoe::core {

/** One task's linear model plus its total volume. */
struct TaskModel
{
    double alpha = 0.0; ///< Startup, ms.
    double beta = 0.0;  ///< ms per unit volume.
    double n = 0.0;     ///< Total volume (bytes or MACs).

    /** Per-chunk time at pipeline degree r (Eq. 1). */
    double chunk(double r) const { return alpha + beta * n / r; }
};

/** Inputs of Algorithm 1 for one MoE layer and one phase. */
struct PipelineProblem
{
    TaskModel a2a; ///< AlltoAll (dispatch; combine is symmetric).
    TaskModel ag;  ///< ESP-AllGather.
    TaskModel rs;  ///< ESP-ReduceScatter.
    TaskModel exp; ///< Expert computation.
    double tGar = 0.0; ///< Gradient-AllReduce time to hide (ms).
    int rMax = 64;     ///< Largest pipeline degree considered.
};

/** Which phase of training a problem describes. */
enum class Phase { Forward, Backward };

/**
 * Build a PipelineProblem from fitted models and a workload.
 * Backward doubles the expert GEMM launches and MAC volume (§4.4);
 * @p t_gar is only meaningful for the backward phase.
 */
PipelineProblem makeProblem(const PerfModelSet &models, const Workload &w,
                            Phase phase, double t_gar = 0.0, int r_max = 64);

/** Output of the solver. */
struct PipelineSolution
{
    double rContinuous = 1.0; ///< Optimum of the paper's continuous solve.
    int r = 1;                ///< Integer pipeline degree actually used.
    double tMoe = 0.0;        ///< Predicted MoE-layer time at r (ms).
    int caseId = 0;           ///< Which of the four cases held at r (1-4).
    double tOlpMoe = 0.0;     ///< Overlappable time inside the pipeline
                              ///< (§5.2), evaluated at r with t_gar = 0.
};

/**
 * Case id (1..4) that holds at degree @p r under the paper's
 * predicates Q1..Q7; exactly one always does.
 */
int caseAt(const PipelineProblem &p, double r);

/** Case formula t1..t4 evaluated at @p r (no case check). */
double caseTime(const PipelineProblem &p, int case_id, double r);

/**
 * The paper's analytic MoE-layer makespan at degree @p r: the formula
 * of whichever case holds at r.
 */
double analyticMoeTime(const PipelineProblem &p, double r);

/**
 * Overlappable time t_olp,moe at degree @p r (paper §5.2): how much
 * Gradient-AllReduce can hide inside the pipeline without extending
 * it. Evaluates the problem with t_gar forced to zero.
 */
double overlappableMoeTime(const PipelineProblem &p, double r);

/**
 * Algorithm 1: solve the four constrained case minimisations
 * (continuous r via grid-refined golden section, standing in for the
 * paper's SLSQP; the four share one scan grid, classified once), then
 * refine to the best feasible integer degree in [1, rMax] using the
 * analytic makespan.
 */
PipelineSolution solvePipeline(const PipelineProblem &p);

/**
 * Brute-force reference: evaluate analyticMoeTime at every integer r
 * in [1, rMax] and return the argmin. Used to validate solvePipeline
 * and DegreeTable.
 */
PipelineSolution solvePipelineExhaustive(const PipelineProblem &p);

/**
 * Analytic makespan when intra-node collectives ride the inter-node
 * channel (the FSMoE-No-IIO ablation and the Tutel baselines): the
 * channel serialises dispatch, AllGather, ReduceScatter, combine and
 * Gradient-AllReduce, so the makespan is the larger of the channel's
 * busy time and the compute-bound pipeline path.
 */
double mergedMoeTime(const PipelineProblem &p, double r);

/** Integer argmin of mergedMoeTime over [1, rMax]. */
PipelineSolution solvePipelineMerged(const PipelineProblem &p);

/**
 * The integer-degree makespan of one problem as a function of t_gar,
 * precomputed for the step-2 search (§5.3), which re-solves the same
 * layer at thousands of t_gar values.
 *
 * For a fixed degree r, t_gar enters the separate-channel makespan
 * through a single threshold: case 1 (C_r + t_gar, C_r = 2 r a2a)
 * holds once t_gar exceeds K_r, the Q4/Q5/Q6/Q7 bound that Q1-Q3
 * select, and the competing case's t-independent T_r holds below it.
 * The merged-channel makespan is max(A_r + t_gar, B_r). The table
 * stores those constants per degree, each computed by the same code
 * as caseAt, caseTime and mergedMoeTime, so minTime(g) equals (==)
 * solvePipelineExhaustive(p with tGar = g).tMoe, or
 * solvePipelineMerged's when @p merged, while doing no divisions.
 */
class DegreeTable
{
  public:
    /** Tabulate @p p (its tGar is ignored) for degrees 1..rMax. */
    DegreeTable(const PipelineProblem &p, bool merged);

    /** Least makespan over every degree at t_gar = @p t_gar. */
    double minTime(double t_gar) const;

  private:
    /** Per-degree constants: C_r, K_r, T_r or A_r, -, B_r. */
    struct Degree
    {
        double garBase;   ///< C_r (separate) or A_r (merged).
        double threshold; ///< K_r (separate only).
        double otherTime; ///< T_r (separate) or B_r (merged).
    };

    bool merged_;
    std::vector<Degree> degrees_;
};

} // namespace fsmoe::core

#endif // FSMOE_CORE_PIPELINE_SOLVER_H
