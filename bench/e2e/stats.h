// Exact statistics over raw samples for the end-to-end benchmark.
//
// Latencies are kept as raw per-sample vectors and reduced here, never
// through fixed-bucket histograms: a percentile interpolated inside a
// 200-500 us bucket is a guess, not a measurement.

#ifndef REDO_BENCH_E2E_STATS_H_
#define REDO_BENCH_E2E_STATS_H_

#include <array>
#include <vector>

namespace redo::e2e {

/// Nearest-rank percentile of `samples` (any order): the smallest
/// sample with at least `fraction` of all samples at or below it, i.e.
/// the value of rank ceil(fraction * n) in sorted order. `fraction` is
/// in (0, 1]. 0 for an empty vector.
double NearestRank(std::vector<double> samples, double fraction);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& samples);

/// The three cut points that split `values` into four equal groups,
/// computed exactly as Python's statistics.quantiles(values, n=4)
/// (method "exclusive"). Requires at least one value; one value yields
/// that value three times.
std::array<double, 3> Quartiles(std::vector<double> values);

}  // namespace redo::e2e

#endif  // REDO_BENCH_E2E_STATS_H_
