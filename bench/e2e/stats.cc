#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace redo::e2e {

double NearestRank(std::vector<double> samples, double fraction) {
  REDO_CHECK(fraction > 0.0 && fraction <= 1.0) << fraction;
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(fraction * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  REDO_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles, method="exclusive", n=4: cut i sits at
  // position i*(n+1)/4 (1-based), interpolated between neighbours and
  // clamped to the first/last pair.
  std::array<double, 3> cuts{};
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) /
                  4.0;
  }
  return cuts;
}

}  // namespace redo::e2e
