#include "wal/log_fault_injector.h"

namespace redo::wal {

void LogFaultStats::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("bit_rots", bit_rots);
  emit.Counter("lost_copies", lost_copies);
  emit.Counter("double_faults", double_faults);
  emit.Counter("archive_rots", archive_rots);
  emit.Counter("injections", injections);
  emit.Counter("heals", heals);
}

void LogFaultInjector::RegisterMetrics(obs::MetricsRegistry& registry,
                                       const std::string& prefix) {
  registry.Register(
      prefix,
      [this](obs::MetricEmitter& emit) { stats_.EmitMetrics(emit); },
      [this]() { ResetStats(); });
}

LogFaultInjector::Damage LogFaultInjector::Roll() {
  const double r = rng_.NextDouble();
  double edge = options_.bit_rot_probability;
  if (r < edge) return Damage::kBitRot;
  edge += options_.lost_segment_probability;
  if (r < edge) return Damage::kLoseCopy;
  return Damage::kNone;
}

void LogFaultInjector::SnapshotOnce(const LogManager& log, uint64_t segment_id,
                                    LogCopy copy) {
  const auto key = std::make_pair(segment_id, copy);
  if (snapshots_.count(key) != 0) return;
  Result<SegmentCopy> image = log.PeekSegmentCopy(segment_id, copy);
  if (image.ok()) snapshots_.emplace(key, std::move(image).value());
}

bool LogFaultInjector::Apply(LogManager& log, uint64_t segment_id,
                             LogCopy copy, Damage damage) {
  if (damage == Damage::kNone) return false;
  // Snapshot before the hit: heal must restore the *intact* content,
  // and repeated damage to one copy must not capture a damaged image.
  SnapshotOnce(log, segment_id, copy);
  switch (damage) {
    case Damage::kBitRot: {
      Result<SegmentCopy> image = log.PeekSegmentCopy(segment_id, copy);
      if (!image.ok() || image.value().bytes.empty()) return false;
      const size_t offset = rng_.Below(image.value().bytes.size());
      const uint8_t mask = static_cast<uint8_t>(1u << rng_.Below(8));
      if (!log.CorruptSegmentByte(segment_id, copy, offset, mask)) {
        return false;
      }
      ++stats_.bit_rots;
      return true;
    }
    case Damage::kLoseCopy:
      if (!log.LoseSegmentCopy(segment_id, copy)) return false;
      ++stats_.lost_copies;
      return true;
    case Damage::kNone:
      return false;
  }
  return false;
}

size_t LogFaultInjector::InjectAtCrash(LogManager& log) {
  if (paused_) return 0;
  size_t injected = 0;
  for (const SegmentInfo& info : log.LiveSegments()) {
    if (!info.sealed || info.bytes == 0) continue;
    const Damage damage = Roll();
    if (damage == Damage::kNone) continue;
    const bool hit_mirror_first = rng_.Chance(0.5);
    const LogCopy first = hit_mirror_first ? LogCopy::kMirror : LogCopy::kPrimary;
    const LogCopy other = hit_mirror_first ? LogCopy::kPrimary : LogCopy::kMirror;
    if (!Apply(log, info.id, first, damage)) continue;
    ++injected;
    ++stats_.injections;
    if (rng_.Chance(options_.double_fault_probability)) {
      Damage second = Roll();
      if (second == Damage::kNone) second = damage;
      if (Apply(log, info.id, other, second)) {
        ++injected;
        ++stats_.injections;
        ++stats_.double_faults;
      }
    }
  }
  for (const SegmentInfo& info : log.ArchivedSegments()) {
    if (info.bytes == 0) continue;
    if (!rng_.Chance(options_.archive_rot_probability)) continue;
    if (Apply(log, info.id, LogCopy::kArchive, Damage::kBitRot)) {
      ++injected;
      ++stats_.injections;
      ++stats_.archive_rots;
    }
  }
  return injected;
}

size_t LogFaultInjector::HealAll(LogManager& log) {
  size_t healed = 0;
  for (const auto& [key, image] : snapshots_) {
    if (log.RestoreSegmentCopy(key.first, key.second, image)) {
      ++healed;
      ++stats_.heals;
    }
  }
  snapshots_.clear();
  return healed;
}

}  // namespace redo::wal
