#include "obs/metrics.h"

#include <algorithm>

#include "obs/json_writer.h"
#include "util/logging.h"

namespace redo::obs {

// ---- Histogram ----

Histogram::Histogram(std::vector<uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    REDO_CHECK(bounds_[i - 1] < bounds_[i]) << "histogram bounds must ascend";
  }
}

void Histogram::Observe(uint64_t value) {
  // First bucket whose inclusive upper bound holds the value; the +inf
  // bucket (index bounds_.size()) catches everything else.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

void Histogram::Merge(const Histogram& other) {
  REDO_CHECK(bounds_ == other.bounds_) << "merging unlike histograms";
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0;
}

// ---- Snapshot ----

Snapshot::Snapshot(std::vector<SnapshotEntry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) {
              return a.name < b.name;
            });
}

const SnapshotEntry* Snapshot::Find(const std::string& name) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const SnapshotEntry& e, const std::string& n) { return e.name < n; });
  if (it == entries_.end() || it->name != name) return nullptr;
  return &*it;
}

int64_t Snapshot::Value(const std::string& name) const {
  const SnapshotEntry* entry = Find(name);
  return entry != nullptr ? entry->value : 0;
}

Snapshot Snapshot::Delta(const Snapshot& earlier) const {
  std::vector<SnapshotEntry> delta;
  delta.reserve(entries_.size());
  for (const SnapshotEntry& now : entries_) {
    const SnapshotEntry* before = earlier.Find(now.name);
    SnapshotEntry e = now;
    if (before != nullptr && now.kind == MetricKind::kCounter) {
      // Clamp at 0: a source reset between the snapshots reads as a
      // fresh start, not a negative rate.
      e.value = now.value >= before->value ? now.value - before->value : 0;
    } else if (before != nullptr && now.kind == MetricKind::kHistogram) {
      for (size_t i = 0;
           i < e.bucket_counts.size() && i < before->bucket_counts.size();
           ++i) {
        e.bucket_counts[i] = e.bucket_counts[i] >= before->bucket_counts[i]
                                 ? e.bucket_counts[i] - before->bucket_counts[i]
                                 : 0;
      }
      e.count = e.count >= before->count ? e.count - before->count : 0;
      e.sum = e.sum >= before->sum ? e.sum - before->sum : 0;
    }
    // Gauges keep the `now` reading.
    delta.push_back(std::move(e));
  }
  return Snapshot(std::move(delta));
}

uint64_t HistogramPercentile(const std::vector<uint64_t>& bounds,
                             const std::vector<uint64_t>& bucket_counts,
                             double quantile) {
  uint64_t total = 0;
  for (uint64_t c : bucket_counts) total += c;
  if (total == 0) return 0;
  const double rank = quantile * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    const uint64_t before = cumulative;
    cumulative += bucket_counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) break;  // +inf bucket: fall through
    // Linear interpolation within [previous bound, this bound].
    const uint64_t lower = i == 0 ? 0 : bounds[i - 1];
    const uint64_t upper = bounds[i];
    const double fraction =
        bucket_counts[i] == 0
            ? 1.0
            : (rank - static_cast<double>(before)) /
                  static_cast<double>(bucket_counts[i]);
    return lower +
           static_cast<uint64_t>(
               static_cast<double>(upper - lower) * fraction + 0.5);
  }
  // The quantile lands in the +inf bucket: the highest finite bound is
  // the best (under-)estimate expressible from fixed buckets.
  return bounds.empty() ? 0 : bounds.back();
}

Snapshot Snapshot::WithoutPrefix(const std::string& prefix) const {
  std::vector<SnapshotEntry> kept;
  kept.reserve(entries_.size());
  for (const SnapshotEntry& e : entries_) {
    if (e.name.compare(0, prefix.size(), prefix) == 0) continue;
    kept.push_back(e);
  }
  return Snapshot(std::move(kept));
}

std::string Snapshot::ToText() const {
  std::string out;
  for (const SnapshotEntry& e : entries_) {
    if (e.kind == MetricKind::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < e.bucket_counts.size(); ++i) {
        cumulative += e.bucket_counts[i];
        out += e.name + "{le=";
        out += i < e.bounds.size() ? std::to_string(e.bounds[i]) : "inf";
        out += "} " + std::to_string(cumulative) + "\n";
      }
      out += e.name + "_sum " + std::to_string(e.sum) + "\n";
      out += e.name + "_count " + std::to_string(e.count) + "\n";
      for (const auto& [suffix, q] :
           {std::pair<const char*, double>{"_p50", 0.50},
            {"_p95", 0.95},
            {"_p99", 0.99}}) {
        out += e.name + suffix + " " +
               std::to_string(HistogramPercentile(e.bounds, e.bucket_counts,
                                                  q)) +
               "\n";
      }
    } else {
      out += e.name + " " + std::to_string(e.value) + "\n";
    }
  }
  return out;
}

std::string Snapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  for (const SnapshotEntry& e : entries_) {
    w.Key(e.name);
    if (e.kind == MetricKind::kHistogram) {
      w.BeginObject();
      w.Key("buckets");
      w.BeginObject();
      for (size_t i = 0; i < e.bucket_counts.size(); ++i) {
        w.Key(i < e.bounds.size() ? "le_" + std::to_string(e.bounds[i])
                                  : "le_inf");
        w.UInt(e.bucket_counts[i]);
      }
      w.EndObject();
      w.Key("sum");
      w.UInt(e.sum);
      w.Key("count");
      w.UInt(e.count);
      w.EndObject();
    } else {
      w.Int(e.value);
    }
  }
  w.EndObject();
  return w.Take();
}

// ---- MetricsRegistry ----

namespace {

/// Collects emitted metrics into SnapshotEntry rows under a prefix.
class CollectingEmitter : public MetricEmitter {
 public:
  CollectingEmitter(const std::string& prefix,
                    std::vector<SnapshotEntry>* out)
      : prefix_(prefix), out_(out) {}

  void Counter(const std::string& name, uint64_t value) override {
    SnapshotEntry e;
    e.name = prefix_ + "." + name;
    e.kind = MetricKind::kCounter;
    e.value = static_cast<int64_t>(value);
    out_->push_back(std::move(e));
  }

  void Gauge(const std::string& name, int64_t value) override {
    SnapshotEntry e;
    e.name = prefix_ + "." + name;
    e.kind = MetricKind::kGauge;
    e.value = value;
    out_->push_back(std::move(e));
  }

 private:
  const std::string& prefix_;
  std::vector<SnapshotEntry>* out_;
};

}  // namespace

void MetricsRegistry::Register(const std::string& prefix, CollectFn collect,
                               ResetFn reset) {
  Unregister(prefix);
  sources_.push_back({prefix, std::move(collect), std::move(reset)});
}

void MetricsRegistry::Unregister(const std::string& prefix) {
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [&prefix](const Source& s) {
                                  return s.prefix == prefix;
                                }),
                 sources_.end());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  for (const NamedHistogram& h : histograms_) {
    if (h.name == name) {
      // Silently returning a histogram with different bounds would
      // leave one caller observing into buckets the other sized — fail
      // loudly instead.
      REDO_CHECK(h.histogram->bounds() == bounds)
          << "histogram '" << name << "' re-requested with different bounds";
      return h.histogram.get();
    }
  }
  histograms_.push_back(
      {name, std::make_unique<Histogram>(std::move(bounds))});
  return histograms_.back().histogram.get();
}

Snapshot MetricsRegistry::TakeSnapshot() const {
  std::vector<SnapshotEntry> entries;
  for (const Source& source : sources_) {
    CollectingEmitter emitter(source.prefix, &entries);
    source.collect(emitter);
  }
  for (const NamedHistogram& h : histograms_) {
    SnapshotEntry e;
    e.name = h.name;
    e.kind = MetricKind::kHistogram;
    e.bounds = h.histogram->bounds();
    e.bucket_counts = h.histogram->bucket_counts();
    e.sum = h.histogram->sum();
    e.count = h.histogram->count();
    entries.push_back(std::move(e));
  }
  return Snapshot(std::move(entries));
}

void MetricsRegistry::ResetAll() {
  for (const Source& source : sources_) {
    if (source.reset) source.reset();
  }
  for (const NamedHistogram& h : histograms_) h.histogram->Reset();
}

std::vector<uint64_t> LatencyBucketsUs() {
  return {1,    2,    5,     10,    20,    50,     100,    200,
          500,  1000, 2000,  5000,  10000, 20000,  50000,  100000,
          200000, 500000, 1000000};
}

std::vector<uint64_t> SizeBucketsBytes() {
  return {64,    128,   256,    512,    1024,   4096,  16384,
          65536, 262144, 1048576};
}

}  // namespace redo::obs
