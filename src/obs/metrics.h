// The unified metrics registry.
//
// Every subsystem in the engine keeps counters — the disk counts I/O and
// checksum failures, the buffer pool counts fetches and WAL forces, the
// log manager counts seals and scrub repairs, the injectors count the
// faults they plant, the recovery methods count redo-scan verdicts. The
// registry federates all of them behind one uniform surface:
//
//   - a *source* is a named prefix plus a collect callback that emits
//     the source's current (name, value) pairs, and an optional reset
//     callback. Sources keep owning their stats structs (callers that
//     read `disk.stats().reads` directly keep working); the registry is
//     a federation layer, not a replacement store.
//   - `TakeSnapshot()` collects every source into an immutable,
//     name-sorted Snapshot; `Snapshot::Delta()` subtracts an earlier
//     snapshot counter-by-counter, which is how callers get per-cycle
//     or per-phase accounting without resetting anything.
//   - `ResetAll()` invokes every source's reset — the uniform
//     Reset()/Delta() semantics the per-subsystem structs never agreed
//     on.
//   - registry-owned fixed-bucket histograms record latency/size
//     distributions (recovery-phase durations, record sizes); they
//     snapshot and delta like everything else.
//
// Exporters: `Snapshot::ToText()` (one "name value" line per metric,
// histograms as "name{le=B}" cumulative buckets) and `Snapshot::ToJson()`
// (a single JSON object). Both are deterministic: entries are sorted by
// name and values are integers.

#ifndef REDO_OBS_METRICS_H_
#define REDO_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace redo::obs {

/// What a snapshot entry measures. Counters are monotone and delta to
/// `after - before`; gauges are instantaneous and delta to their `after`
/// value (the latest reading, not a difference).
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Passed to a source's collect callback; the source calls Counter/Gauge
/// once per metric. Names are `<prefix>.<suffix>`.
class MetricEmitter {
 public:
  virtual ~MetricEmitter() = default;
  virtual void Counter(const std::string& name, uint64_t value) = 0;
  virtual void Gauge(const std::string& name, int64_t value) = 0;
};

/// A fixed-bucket histogram. `bounds` are inclusive upper bounds in
/// ascending order; an implicit +inf bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<uint64_t> bounds);

  void Observe(uint64_t value);
  /// Adds `other`'s observations; the bounds must be equal.
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  const std::vector<uint64_t>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1.
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }
  void Reset();

 private:
  std::vector<uint64_t> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

/// One collected metric.
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  // Counter/gauge payload.
  int64_t value = 0;
  // Histogram payload.
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> bucket_counts;
  uint64_t sum = 0;
  uint64_t count = 0;
};

/// An immutable, name-sorted collection of every registered metric at
/// one instant.
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::vector<SnapshotEntry> entries);

  const std::vector<SnapshotEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }

  /// The entry named `name`, or nullptr.
  const SnapshotEntry* Find(const std::string& name) const;

  /// Counter/gauge value of `name`; 0 if absent.
  int64_t Value(const std::string& name) const;

  /// This snapshot minus `earlier`: counters and histograms subtract
  /// entry-wise (clamped at 0 if a source was reset in between), gauges
  /// keep this snapshot's reading. Entries missing from `earlier` pass
  /// through unchanged; entries missing from *this* are dropped.
  Snapshot Delta(const Snapshot& earlier) const;

  /// A copy without entries whose name starts with `prefix` — how
  /// deterministic exports drop wall-clock histograms.
  Snapshot WithoutPrefix(const std::string& prefix) const;

  /// "name value" lines; histograms expand to cumulative buckets plus
  /// _sum/_count and interpolated _p50/_p95/_p99 summary lines.
  std::string ToText() const;

  /// One JSON object: {"name": value, ...}; histograms become
  /// {"buckets": {"le_B": n, ..., "le_inf": n}, "sum": s, "count": c}.
  std::string ToJson() const;

 private:
  std::vector<SnapshotEntry> entries_;  // sorted by name
};

/// The registry: named sources plus registry-owned histograms.
class MetricsRegistry {
 public:
  using CollectFn = std::function<void(MetricEmitter&)>;
  using ResetFn = std::function<void()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers a source. `collect` emits the source's metrics with names
  /// relative to `prefix` ("reads" under prefix "disk" collects as
  /// "disk.reads"). `reset` may be null (the source then ignores
  /// ResetAll). Re-registering a prefix replaces the old source.
  void Register(const std::string& prefix, CollectFn collect,
                ResetFn reset = nullptr);

  /// Removes a source (no-op if absent).
  void Unregister(const std::string& prefix);

  /// Creates (or returns the existing) registry-owned histogram named
  /// `name`. `bounds` are inclusive upper bounds, ascending; when the
  /// histogram already exists, `bounds` must equal its bounds (a
  /// mismatch is a REDO_CHECK failure — two callers disagreeing on
  /// bucket layout is a bug, not a preference). The pointer stays
  /// valid for the registry's lifetime.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<uint64_t> bounds);

  /// Collects every source and histogram into a name-sorted snapshot.
  Snapshot TakeSnapshot() const;

  /// Invokes every source's reset callback and resets every histogram.
  void ResetAll();

 private:
  struct Source {
    std::string prefix;
    CollectFn collect;
    ResetFn reset;
  };
  struct NamedHistogram {
    std::string name;
    std::unique_ptr<Histogram> histogram;
  };

  std::vector<Source> sources_;           // registration order
  std::vector<NamedHistogram> histograms_;
};

/// A quantile (0 < `quantile` < 1) estimated from fixed buckets by
/// linear interpolation inside the bucket holding the target rank,
/// rounded to the nearest integer. A quantile that lands in the +inf
/// bucket reports the highest finite bound (the best estimate fixed
/// buckets can express). 0 when the histogram is empty. Shared by the
/// text exporter's _p50/_p95/_p99 lines and the bench tables.
uint64_t HistogramPercentile(const std::vector<uint64_t>& bounds,
                             const std::vector<uint64_t>& bucket_counts,
                             double quantile);

/// Default latency-histogram bounds in microseconds (1us .. ~1s).
std::vector<uint64_t> LatencyBucketsUs();

/// Default size-histogram bounds in bytes (64B .. 1MiB).
std::vector<uint64_t> SizeBucketsBytes();

}  // namespace redo::obs

#endif  // REDO_OBS_METRICS_H_
