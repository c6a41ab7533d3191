/**
 * @file
 * The `--profile` report shared by fsmoe_sweep and fsmoe_tune: where
 * did an engine's time go, layer by layer, and how much work did each
 * layer do?
 *
 * Stage times come from one engine's SweepStats: they are summed
 * across workers (so they can exceed wall time on several threads) and
 * count only cache-miss work. The solver line re-slices part of the
 * graph-build line (Algorithm-1 and step-2 solves run inside
 * Schedule::build), and degree-search simulations are reported on a
 * line of their own. Ratios, work counts and per-simulation latency
 * come from the process-wide stats registry, so repeated runs in one
 * process accumulate there; the work counts (simulator runs, tasks,
 * degree-search graphs ruled out by bound and how many of those were
 * never built, step-2 runs, DE evaluations) are deterministic for a
 * given run on one thread, and CI gates them exactly.
 */
#ifndef FSMOE_RUNTIME_PROFILE_REPORT_H
#define FSMOE_RUNTIME_PROFILE_REPORT_H

#include "runtime/sweep_engine.h"

namespace fsmoe::runtime {

/**
 * Print the report to stdout. @p wall_label and @p wall_ms name and
 * give the end-to-end wall time the stages add up to (a sweep's, or
 * one advisor query's).
 */
void printProfile(const SweepStats &stats, const char *wall_label,
                  double wall_ms);

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_PROFILE_REPORT_H
