/**
 * @file
 * The ledger's own arithmetic: order statistics of timing samples and
 * span self time. Header-only so ledger_math_test.cc can check it
 * without linking the fsmoe library.
 */
#ifndef FSMOE_LEDGER_MATH_H
#define FSMOE_LEDGER_MATH_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ledger {

/** Median of @p v (mean of the middle pair for even sizes). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * First, second and third quartile, computed exactly as Python's
 * `statistics.quantiles(v, n=4)` (its default "exclusive" method), so
 * the spread the ledger prints matches what a Python reader computes
 * from the same samples. Needs at least two samples.
 */
inline std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        throw std::invalid_argument("quartiles need two samples");
    std::sort(v.begin(), v.end());
    const long m = static_cast<long>(v.size()) + 1;
    std::array<double, 3> q{};
    for (long i = 1; i <= 3; ++i) {
        // Python clamps j to [1, n-1] before taking delta, so small
        // sample sets extrapolate from the two outermost samples.
        const long j =
            std::clamp(i * m / 4, 1L, static_cast<long>(v.size()) - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    }
    return q;
}

/** (q3 - q1) / median: the run-to-run spread as a share. */
inline double
relativeIqr(const std::vector<double> &v)
{
    const std::array<double, 3> q = quartiles(v);
    return q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
}

/** A reported timing tail: percentile and its nearest-rank value. */
struct Tail
{
    double percentile = 0.0; ///< e.g. 90 for p90; 0 = no tail.
    double value = 0.0;
    size_t beyond = 0; ///< Samples strictly greater than value.
};

/**
 * The highest of p99.9, p99, p95, p90 and p75 that has at least
 * @p min_beyond samples strictly above its nearest-rank value, or a
 * Tail with percentile 0 when none has (a tail read off fewer samples
 * is noise, so it is not reported at all).
 */
inline Tail
highestSupportedTail(std::vector<double> v, size_t min_beyond = 10)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (n == 0)
            break;
        const size_t rank = std::max<size_t>(
            1, static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9)));
        const double value = v[std::min(rank, n) - 1];
        const size_t beyond = static_cast<size_t>(
            v.end() - std::upper_bound(v.begin(), v.end(), value));
        if (beyond >= min_beyond)
            return Tail{p, value, beyond};
    }
    return Tail{};
}

/** A closed-open time interval [start, end). */
using Interval = std::pair<double, double>;

/**
 * Self time of a span: its duration minus the part of [start, end)
 * covered by @p children. Children are clipped to the span, and where
 * they overlap each other the shared part is subtracted once.
 */
inline double
selfTime(double start, double end, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double cursor = start; // everything before cursor is accounted for
    for (const Interval &c : children) {
        const double lo = std::max(c.first, cursor);
        const double hi = std::min(c.second, end);
        if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
        }
    }
    return (end - start) - covered;
}

} // namespace ledger

#endif // FSMOE_LEDGER_MATH_H
