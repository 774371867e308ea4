#include "obs/recovery_trace.h"

#include <chrono>

#include "obs/json_writer.h"

namespace redo::obs {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The registry counters a phase's I/O cost is computed from. These are
// the names the engine's standard sources emit (MiniDb registers the
// disk as "disk", the pool as "pool", the log as "wal").
struct PhaseCostKey {
  const char* metric;
  const char* attr;
};
constexpr PhaseCostKey kPhaseCostKeys[] = {
    {"disk.reads", "disk_reads"},
    {"disk.writes", "disk_writes"},
    {"pool.fetches", "pool_fetches"},
    {"wal.scan_decodes", "log_decodes"},
};

}  // namespace

const char* RedoVerdictName(RedoVerdict verdict) {
  switch (verdict) {
    case RedoVerdict::kApplied:
      return "applied";
    case RedoVerdict::kSkippedInstalled:
      return "skipped-installed";
    case RedoVerdict::kNotExposed:
      return "not-exposed";
  }
  return "?";
}

const char* RedoVerdictReason(RedoVerdict verdict, bool redo_all) {
  switch (verdict) {
    case RedoVerdict::kApplied:
      return redo_all ? "redo-all" : "page-lsn-older";
    case RedoVerdict::kSkippedInstalled:
      return "page-lsn-current";
    case RedoVerdict::kNotExposed:
      return "analysis-dpt";
  }
  return "?";
}

std::string TraceEvent::ToText(bool include_timing) const {
  std::string out = event;
  for (const auto& [key, value] : strings) {
    out += " " + key + "=\"" + value + "\"";
  }
  for (const auto& [key, value] : numbers) {
    out += " " + key + "=" + std::to_string(value);
  }
  if (timed && include_timing) out += " wall_us=" + std::to_string(wall_us);
  return out;
}

std::string TraceEvent::ToJson(bool include_timing) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("event");
  w.String(event);
  for (const auto& [key, value] : strings) {
    w.Key(key);
    w.String(value);
  }
  for (const auto& [key, value] : numbers) {
    w.Key(key);
    w.Int(value);
  }
  if (timed && include_timing) {
    w.Key("wall_us");
    w.UInt(wall_us);
  }
  w.EndObject();
  return w.Take();
}

RecoveryTracer::RecoveryTracer(MetricsRegistry* registry)
    : registry_(registry) {
  if (registry_ == nullptr) return;
  phase_us_ = registry_->GetHistogram("recovery.phase_us", LatencyBucketsUs());
  registry_->Register(
      "recovery",
      [this](MetricEmitter& emit) {
        emit.Counter("runs", runs_);
        emit.Counter("phases", phases_);
        emit.Counter("verdict_applied", total_verdicts_.applied);
        emit.Counter("verdict_skipped_installed",
                     total_verdicts_.skipped_installed);
        emit.Counter("verdict_not_exposed", total_verdicts_.not_exposed);
      },
      [this]() {
        runs_ = 0;
        phases_ = 0;
        total_verdicts_ = VerdictCounts{};
      });
}

RecoveryTracer::~RecoveryTracer() {
  if (registry_ != nullptr) registry_->Unregister("recovery");
}

TraceEvent& RecoveryTracer::Add(const std::string& event) {
  events_.push_back(TraceEvent{});
  events_.back().event = event;
  return events_.back();
}

void RecoveryTracer::BeginRun(const std::string& method_name) {
  if (run_depth_++ > 0) return;  // join the enclosing run
  run_verdicts_ = VerdictCounts{};
  ++runs_;
  TraceEvent& e = Add("run-begin");
  e.strings.emplace_back("method", method_name);
}

void RecoveryTracer::EndRun(bool ok, const std::string& status_message) {
  if (run_depth_ == 0) return;
  if (--run_depth_ > 0) return;
  while (!open_phases_.empty()) EndPhase();  // defensively close phases
  TraceEvent& e = Add("run-end");
  e.strings.emplace_back("status", status_message);
  e.numbers.emplace_back("ok", ok ? 1 : 0);
  e.numbers.emplace_back("applied",
                         static_cast<int64_t>(run_verdicts_.applied));
  e.numbers.emplace_back(
      "skipped_installed",
      static_cast<int64_t>(run_verdicts_.skipped_installed));
  e.numbers.emplace_back("not_exposed",
                         static_cast<int64_t>(run_verdicts_.not_exposed));
}

void RecoveryTracer::Clear() {
  events_.clear();
  open_phases_.clear();
  run_depth_ = 0;
}

void RecoveryTracer::BeginPhase(const std::string& phase) {
  TraceEvent& e = Add("phase-begin");
  e.strings.emplace_back("phase", phase);
  OpenPhase open;
  open.begin_index = events_.size() - 1;
  open.name = phase;
  open.start_us = NowMicros();
  if (registry_ != nullptr) open.start_metrics = registry_->TakeSnapshot();
  open_phases_.push_back(std::move(open));
  ++phases_;
}

void RecoveryTracer::EndPhase() {
  if (open_phases_.empty()) return;
  OpenPhase open = std::move(open_phases_.back());
  open_phases_.pop_back();
  TraceEvent& e = Add("phase-end");
  e.strings.emplace_back("phase", open.name);
  if (registry_ != nullptr) {
    const Snapshot delta = registry_->TakeSnapshot().Delta(open.start_metrics);
    for (const PhaseCostKey& key : kPhaseCostKeys) {
      if (delta.Find(key.metric) != nullptr) {
        e.numbers.emplace_back(key.attr, delta.Value(key.metric));
      }
    }
  }
  e.wall_us = NowMicros() - open.start_us;
  e.timed = true;
  if (phase_us_ != nullptr) phase_us_->Observe(e.wall_us);
}

void RecoveryTracer::CheckpointChosen(uint64_t checkpoint_lsn,
                                      uint64_t scan_start) {
  TraceEvent& e = Add("checkpoint-chosen");
  e.numbers.emplace_back("checkpoint_lsn",
                         static_cast<int64_t>(checkpoint_lsn));
  e.numbers.emplace_back("scan_start", static_cast<int64_t>(scan_start));
}

void RecoveryTracer::Verdict(uint64_t lsn, uint32_t page, RedoVerdict verdict,
                             const std::string& reason) {
  switch (verdict) {
    case RedoVerdict::kApplied:
      ++run_verdicts_.applied;
      ++total_verdicts_.applied;
      break;
    case RedoVerdict::kSkippedInstalled:
      ++run_verdicts_.skipped_installed;
      ++total_verdicts_.skipped_installed;
      break;
    case RedoVerdict::kNotExposed:
      ++run_verdicts_.not_exposed;
      ++total_verdicts_.not_exposed;
      break;
  }
  TraceEvent& e = Add("redo-verdict");
  e.strings.emplace_back("verdict", RedoVerdictName(verdict));
  e.strings.emplace_back("reason", reason);
  e.numbers.emplace_back("lsn", static_cast<int64_t>(lsn));
  e.numbers.emplace_back("page", static_cast<int64_t>(page));
}

void RecoveryTracer::Salvage(bool torn, uint64_t dropped_bytes,
                             uint64_t salvaged_records, uint64_t stable_lsn) {
  TraceEvent& e = Add("salvage");
  e.numbers.emplace_back("torn", torn ? 1 : 0);
  e.numbers.emplace_back("dropped_bytes",
                         static_cast<int64_t>(dropped_bytes));
  e.numbers.emplace_back("salvaged_records",
                         static_cast<int64_t>(salvaged_records));
  e.numbers.emplace_back("stable_lsn", static_cast<int64_t>(stable_lsn));
}

void RecoveryTracer::ScrubSummary(uint64_t segments, uint64_t repairs,
                                  uint64_t holes, uint64_t archive_repairs,
                                  uint64_t archive_holes,
                                  uint64_t first_unreadable_lsn) {
  TraceEvent& e = Add("scrub");
  e.numbers.emplace_back("segments", static_cast<int64_t>(segments));
  e.numbers.emplace_back("repairs", static_cast<int64_t>(repairs));
  e.numbers.emplace_back("holes", static_cast<int64_t>(holes));
  e.numbers.emplace_back("archive_repairs",
                         static_cast<int64_t>(archive_repairs));
  e.numbers.emplace_back("archive_holes",
                         static_cast<int64_t>(archive_holes));
  e.numbers.emplace_back("first_unreadable_lsn",
                         static_cast<int64_t>(first_unreadable_lsn));
}

void RecoveryTracer::SegmentVerdict(uint64_t segment_id, uint64_t first_lsn,
                                    uint64_t last_lsn,
                                    const std::string& state) {
  TraceEvent& e = Add("segment-verdict");
  e.strings.emplace_back("state", state);
  e.numbers.emplace_back("segment", static_cast<int64_t>(segment_id));
  e.numbers.emplace_back("first_lsn", static_cast<int64_t>(first_lsn));
  e.numbers.emplace_back("last_lsn", static_cast<int64_t>(last_lsn));
}

void RecoveryTracer::Rung(const std::string& rung,
                          uint64_t first_unreadable_lsn,
                          const std::string& evidence) {
  TraceEvent& e = Add("rung");
  e.strings.emplace_back("rung", rung);
  if (!evidence.empty()) e.strings.emplace_back("evidence", evidence);
  e.numbers.emplace_back("first_unreadable_lsn",
                         static_cast<int64_t>(first_unreadable_lsn));
}

void RecoveryTracer::Note(const std::string& message) {
  TraceEvent& e = Add("note");
  e.strings.emplace_back("message", message);
}

void RecoveryTracer::UndoVerdict(uint64_t lsn, uint64_t txn_id,
                                 const std::string& action,
                                 uint64_t undo_next) {
  TraceEvent& e = Add("undo-verdict");
  e.strings.emplace_back("action", action);
  e.numbers.emplace_back("lsn", static_cast<int64_t>(lsn));
  e.numbers.emplace_back("txn", static_cast<int64_t>(txn_id));
  e.numbers.emplace_back("undo_next", static_cast<int64_t>(undo_next));
}

std::string RecoveryTracer::ToText(bool include_timing) const {
  std::string out;
  for (const TraceEvent& e : events_) {
    out += e.ToText(include_timing);
    out += '\n';
  }
  return out;
}

std::string RecoveryTracer::ToJsonl(bool include_timing) const {
  std::string out;
  for (const TraceEvent& e : events_) {
    out += e.ToJson(include_timing);
    out += '\n';
  }
  return out;
}

}  // namespace redo::obs
