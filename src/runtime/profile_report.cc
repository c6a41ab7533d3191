#include "runtime/profile_report.h"

#include <cstdint>
#include <cstdio>

#include "base/stats.h"
#include "core/solver_cache.h"

namespace fsmoe::runtime {

namespace {

unsigned long long
count(const char *name)
{
    return static_cast<unsigned long long>(stats::counter(name).value());
}

/** One "hits of total" line of the process-wide ratio block. */
void
printRatio(const char *label, uint64_t hits, uint64_t misses)
{
    const uint64_t total = hits + misses;
    const double pct = total > 0 ? 100.0 * static_cast<double>(hits) /
                                       static_cast<double>(total)
                                 : 0.0;
    std::printf("  %-28s %5.1f%%  (%llu of %llu)\n", label, pct,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(total));
}

} // namespace

void
printProfile(const SweepStats &stats, const char *wall_label, double wall_ms)
{
    const core::SolverCacheStats solver = core::solverCacheStats();
    const stats::Histogram &search_ms =
        stats::histogram("sweep.degreeSearch.ms");
    const stats::Histogram &final_ms = stats::histogram("sweep.simulate.ms");
    std::printf("\nper-stage profile (summed across workers):\n");
    std::printf("  %-28s %10.1f ms  (%zu cold, %zu cached)\n",
                "cost derivation", stats.costDeriveMs,
                stats.costCacheMisses, stats.costCacheHits);
    std::printf("  %-28s %10.1f ms\n", "graph build",
                stats.graphBuildMs - stats.degreeSearchMs);
    std::printf("  %-28s %10.1f ms  (%llu cold, %llu cached; "
                "process-wide; %llu step-2 runs, %llu DE evals)\n",
                "  of which solver solves", solver.solveMs,
                static_cast<unsigned long long>(solver.pipelineMisses +
                                                solver.partitionMisses),
                static_cast<unsigned long long>(solver.pipelineHits +
                                                solver.partitionHits),
                count("solver.step2.runs"), count("solver.de.evals"));
    std::printf("  %-28s %10.1f ms  (%llu simulated, %llu ruled out by "
                "bound, %llu of them unbuilt; process-wide)\n",
                "degree-search sims", stats.degreeSearchMs,
                static_cast<unsigned long long>(search_ms.count()),
                count("core.degreeSearch.pruned"),
                count("core.degreeSearch.unbuilt"));
    std::printf("  %-28s %10.1f ms\n", "simulate (final graphs)",
                stats.simulateMs);
    std::printf("  %-28s %10.1f ms\n", wall_label, wall_ms);

    std::printf("cache hit ratios (process-wide):\n");
    printRatio("cost cache", stats::counter("sweep.costCache.hits").value(),
               stats::counter("sweep.costCache.misses").value());
    printRatio("sim cache", stats::counter("sweep.simCache.hits").value(),
               stats::counter("sweep.simCache.misses").value());
    printRatio("graph cache",
               stats::counter("sweep.graphCache.hits").value(),
               stats::counter("sweep.graphCache.misses").value());
    printRatio("solver caches",
               stats::counter("solver.pipeline.hits").value() +
                   stats::counter("solver.partition.hits").value(),
               stats::counter("solver.pipeline.misses").value() +
                   stats::counter("solver.partition.misses").value());

    std::printf("simulations (process-wide): %llu sim.runs, %llu tasks "
                "(%llu degree-search, %llu final)\n",
                count("sim.runs"), count("sim.tasks.executed"),
                static_cast<unsigned long long>(search_ms.count()),
                static_cast<unsigned long long>(final_ms.count()));
    if (final_ms.count() > 0)
        std::printf("per-scenario simulate: mean %.3f ms, max %.3f ms "
                    "(%llu cold simulations)\n",
                    final_ms.mean(), final_ms.maxValue(),
                    static_cast<unsigned long long>(final_ms.count()));
}

} // namespace fsmoe::runtime
