// Unit test for the benchmark's statistics: nearest-rank percentiles and
// quartiles that match Python's statistics.quantiles(values, n=4), the
// reduction the benchmark's acceptance spreads are computed with.
// Exits non-zero on the first mismatch.

#include <array>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void ExpectNear(const char* what, double got, double want) {
  Expect(std::fabs(got - want) <= 1e-12 * std::fmax(1.0, std::fabs(want)),
         what, got, want);
}

void ExpectQuartiles(const char* what, std::vector<double> values,
                     std::array<double, 3> want) {
  const std::array<double, 3> got = redo::e2e::Quartiles(std::move(values));
  for (size_t i = 0; i < 3; ++i) ExpectNear(what, got[i], want[i]);
}

}  // namespace

int main() {
  using redo::e2e::Mean;
  using redo::e2e::NearestRank;

  // Nearest rank: rank ceil(p * n), no interpolation.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  ExpectNear("p50 of 1..100", NearestRank(hundred, 0.50), 50);
  ExpectNear("p99 of 1..100", NearestRank(hundred, 0.99), 99);
  ExpectNear("p100 of 1..100", NearestRank(hundred, 1.0), 100);
  ExpectNear("p1 of 1..100", NearestRank(hundred, 0.01), 1);
  ExpectNear("p50 of {7}", NearestRank({7}, 0.5), 7);
  ExpectNear("p99 of 3 samples", NearestRank({30, 10, 20}, 0.99), 30);
  ExpectNear("p50 of 4 samples", NearestRank({4, 1, 3, 2}, 0.5), 2);
  ExpectNear("p50 of empty", NearestRank({}, 0.5), 0);

  ExpectNear("mean", Mean({1, 2, 3, 6}), 3);
  ExpectNear("mean of empty", Mean({}), 0);

  // Reference values from Python 3.11 statistics.quantiles(d, n=4).
  ExpectQuartiles("two values", {1, 2}, {0.75, 1.5, 2.25});
  ExpectQuartiles("three values", {1, 2, 3}, {1.0, 2.0, 3.0});
  ExpectQuartiles("five unsorted", {5, 1, 4, 2, 3}, {1.5, 3.0, 4.5});
  ExpectQuartiles("ten values", {10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
                  {27.5, 55.0, 82.5});
  ExpectQuartiles("fractions", {3.5, 1.25, 9.0, 7.75, 2.0, 6.5, 4.0},
                  {2.0, 4.0, 7.75});
  ExpectQuartiles("one value", {4.5}, {4.5, 4.5, 4.5});

  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
