/**
 * @file
 * Checks of the ledger's arithmetic (ledger_math.h): median and
 * quartiles against values Python's statistics module gives for the
 * same samples, tail selection, and span self time. Exits 1 on the
 * first failed check. Run with `python3 ledger/run.py --selftest` or
 * `ctest` in the ledger's build directory.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ledger_math.h"

namespace {

int failures = 0;

void
expectNear(double got, double want, const char *what)
{
    if (std::fabs(got - want) > 1e-12) {
        std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
        ++failures;
    }
}

void
expectQuartiles(const std::vector<double> &v, double q1, double q2,
                double q3, const char *what)
{
    const auto q = ledger::quartiles(v);
    expectNear(q[0], q1, what);
    expectNear(q[1], q2, what);
    expectNear(q[2], q3, what);
}

void
testMedianAndQuartiles()
{
    expectNear(ledger::median({3, 1, 2}), 2, "median odd");
    expectNear(ledger::median({4, 1, 3, 2}), 2.5, "median even");
    expectNear(ledger::median({7}), 7, "median single");

    // Expected values: statistics.quantiles(v, n=4) on Python 3.11.
    expectQuartiles({1, 2}, 0.75, 1.5, 2.25, "quartiles n=2 extrapolate");
    expectQuartiles({3, 1, 2}, 1, 2, 3, "quartiles n=3");
    expectQuartiles({1, 2, 3, 4}, 1.25, 2.5, 3.75, "quartiles n=4");
    expectQuartiles({5, 1, 4, 2, 3}, 1.5, 3, 4.5, "quartiles n=5");
    expectQuartiles({10, 20, 30, 40, 50, 60, 70}, 20, 40, 60,
                    "quartiles n=7");
    expectQuartiles({1.5, 2.25, 9, 4, 4, 7, 8, 100, 3, 2}, 2.1875, 4,
                    8.25, "quartiles n=10 unsorted");
    expectNear(ledger::relativeIqr({1.5, 2.25, 9, 4, 4, 7, 8, 100, 3, 2}),
               (8.25 - 2.1875) / 4, "relative iqr");
}

void
testTail()
{
    std::vector<double> v;
    for (int i = 1; i <= 19; ++i)
        v.push_back(i);
    // 19 samples: p75 is rank 15 (value 15) with 4 beyond — too few.
    if (ledger::highestSupportedTail(v).percentile != 0.0) {
        std::printf("FAIL tail: 19 samples must report no tail\n");
        ++failures;
    }
    for (int i = 20; i <= 40; ++i)
        v.push_back(i);
    // 40 samples: p90 = 36 (4 beyond), p75 = 30 (10 beyond).
    ledger::Tail t = ledger::highestSupportedTail(v);
    expectNear(t.percentile, 75, "tail 40 samples percentile");
    expectNear(t.value, 30, "tail 40 samples value");
    expectNear(static_cast<double>(t.beyond), 10, "tail 40 beyond");

    std::vector<double> big;
    for (int i = 1; i <= 1000; ++i)
        big.push_back(i);
    // 1000 samples: p99.9 has 1 beyond, p99 (990) has 10.
    t = ledger::highestSupportedTail(big);
    expectNear(t.percentile, 99, "tail 1000 samples percentile");
    expectNear(t.value, 990, "tail 1000 samples value");

    // Ties at the percentile value are not "beyond" it.
    std::vector<double> ties(40, 5.0);
    for (int i = 0; i < 9; ++i)
        ties.push_back(9.0);
    if (ledger::highestSupportedTail(ties).percentile != 0.0) {
        std::printf("FAIL tail: tied samples counted as beyond\n");
        ++failures;
    }
}

void
testSelfTime()
{
    expectNear(ledger::selfTime(0, 10, {}), 10, "self no children");
    expectNear(ledger::selfTime(0, 10, {{2, 4}, {6, 7}}), 7,
               "self disjoint children");
    // Overlapping children count once: [2,6) u [4,8) = [2,8).
    expectNear(ledger::selfTime(0, 10, {{4, 8}, {2, 6}}), 4,
               "self overlapping children");
    // A child nested in another adds nothing.
    expectNear(ledger::selfTime(0, 10, {{1, 9}, {3, 4}}), 2,
               "self nested children");
    // Children are clipped to the parent's interval.
    expectNear(ledger::selfTime(5, 10, {{0, 6}, {9, 12}}), 3,
               "self clipped children");
    // Touching children leave no gap and no double count.
    expectNear(ledger::selfTime(0, 10, {{0, 5}, {5, 10}}), 0,
               "self touching children");
}

} // namespace

int
main()
{
    testMedianAndQuartiles();
    testTail();
    testSelfTime();
    if (failures != 0) {
        std::printf("ledger_math_test: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("ledger_math_test: all checks passed\n");
    return 0;
}
