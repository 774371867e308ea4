#include "wal/log_manager.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/flight_recorder.h"
#include "util/crc32c.h"

namespace redo::wal {

namespace {

Status GapStatus(core::Lsn lsn) {
  return Status::Corruption("stable log unreadable: first unreadable LSN " +
                            std::to_string(lsn));
}

/// Wall microseconds for the commit-latency histograms — always real
/// time, independent of the flight recorder's (virtualizable) ticks.
uint64_t NowRealUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* SegmentVerdictStateName(SegmentVerdict::State state) {
  switch (state) {
    case SegmentVerdict::State::kIntact:
      return "intact";
    case SegmentVerdict::State::kRepairedFromMirror:
      return "repaired-from-mirror";
    case SegmentVerdict::State::kMirrorRebuilt:
      return "mirror-rebuilt";
    case SegmentVerdict::State::kResealed:
      return "resealed";
    case SegmentVerdict::State::kHole:
      return "hole";
  }
  return "?";
}

LogManager::LogManager(const LogManagerOptions& options) : options_(options) {
  live_.push_back(Segment{});
  live_.back().id = next_segment_id_++;
}

LogManager::~LogManager() {
  if (committer_.joinable()) HaltGroupCommit(/*freeze=*/true);
}

core::Lsn LogManager::Append(RecordType type, std::vector<uint8_t> payload) {
  return AppendWithLsn(type,
                       [&payload](core::Lsn) { return std::move(payload); });
}

core::Lsn LogManager::AppendWithLsn(
    RecordType type,
    const std::function<std::vector<uint8_t>(core::Lsn)>& encode) {
  std::unique_lock<std::mutex> lock(mu_);
  if (gc_active_.load() &&
      volatile_tail_.size() >= gc_options_.ring_capacity && !gc_frozen_ &&
      !gc_stop_) {
    // Backpressure: a full pending queue blocks the appender until the
    // committer forces it (or the pipeline dies under it).
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    const bool traced = recorder.enabled();
    const uint64_t tick0 = traced ? recorder.NowTick() : 0;
    const uint64_t real0 = NowRealUs();
    while (volatile_tail_.size() >= gc_options_.ring_capacity &&
           !gc_frozen_ && !gc_stop_) {
      ++stats_.group_ring_stalls;
      committer_cv_.notify_one();
      room_cv_.wait(lock);
    }
    if (commit_latency_.stage_wait_us != nullptr) {
      commit_latency_.stage_wait_us->Observe(NowRealUs() - real0);
    }
    if (traced) {
      recorder.EndSpan(obs::FlightEventType::kGcStageWait, tick0,
                       volatile_tail_.size());
    }
  }
  PendingRecord pending;
  LogRecord& record = pending.record;
  record.lsn = ++last_lsn_;
  record.type = type;
  // The encode callback runs under the log mutex with the assigned LSN,
  // so payloads that embed their own LSN (page images tagging the page)
  // stay consistent even with concurrent appenders.
  record.payload = encode(record.lsn);
  if (append_size_histogram_ != nullptr) {
    append_size_histogram_->Observe(record.payload.size());
  }
  // Encode the frame on the appender's dime; a force just copies bytes.
  pending.frame = EncodeRecord(record);
  const core::Lsn lsn = record.lsn;
  volatile_tail_.push_back(std::move(pending));
  ++stats_.appends;
  return lsn;
}

void LogStats::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("appends", appends);
  emit.Counter("forces", forces);
  emit.Counter("forced_records", forced_records);
  emit.Gauge("stable_bytes", static_cast<int64_t>(stable_bytes));
  emit.Counter("torn_forces", torn_forces);
  emit.Counter("torn_tail_truncations", torn_tail_truncations);
  emit.Counter("torn_bytes_dropped", torn_bytes_dropped);
  emit.Counter("salvaged_records", salvaged_records);
  emit.Counter("checkpoint_cache_hits", checkpoint_cache_hits);
  emit.Counter("checkpoint_full_scans", checkpoint_full_scans);
  emit.Counter("segments_sealed", segments_sealed);
  emit.Counter("segments_archived", segments_archived);
  emit.Counter("segments_truncated", segments_truncated);
  emit.Counter("segments_amputated", segments_amputated);
  emit.Counter("scrub_passes", scrub_passes);
  emit.Counter("mirror_repairs", mirror_repairs);
  emit.Counter("reseals", reseals);
  emit.Counter("archive_repairs", archive_repairs);
  emit.Counter("scan_cache_hits", scan_cache_hits);
  emit.Counter("scan_decodes", scan_decodes);
  emit.Counter("stable_visits", stable_visits);
  emit.Counter("group_commits", group_commits);
  emit.Counter("group_batches", group_batches);
  emit.Gauge("group_max_batch", static_cast<int64_t>(group_max_batch));
  emit.Counter("group_ring_stalls", group_ring_stalls);
  emit.Counter("group_early_closes", group_early_closes);
}

void LogManager::RegisterMetrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) {
  registry.Register(
      prefix,
      [this](obs::MetricEmitter& emit) {
        stats_.EmitMetrics(emit);
        emit.Gauge("last_lsn", static_cast<int64_t>(last_lsn_));
        emit.Gauge("stable_lsn", static_cast<int64_t>(stable_lsn_));
        emit.Gauge("live_segments", static_cast<int64_t>(live_.size()));
        emit.Gauge("archived_segments", static_cast<int64_t>(archive_.size()));
        emit.Gauge("volatile_records",
                   static_cast<int64_t>(volatile_tail_.size()));
      },
      [this]() { ResetStats(); });
}

void LogManager::StartNewActive() {
  live_.push_back(Segment{});
  live_.back().id = next_segment_id_++;
  verified_prefix_ = 0;
}

void LogManager::SealActive() {
  Segment& seg = active();
  REDO_CHECK(!seg.records.empty());
  REDO_CHECK(verified_prefix_ == seg.primary.bytes.size());
  seg.sealed = true;
  seg.first_lsn = seg.records.front().lsn;
  seg.last_lsn = seg.records.back().lsn;
  seg.primary.seal = Crc32c(seg.primary.bytes.data(), seg.primary.bytes.size());
  seg.mirror.seal = Crc32c(seg.mirror.bytes.data(), seg.mirror.bytes.size());
  Segment copy;
  copy.id = seg.id;
  copy.first_lsn = seg.first_lsn;
  copy.last_lsn = seg.last_lsn;
  copy.sealed = true;
  copy.primary = seg.primary;
  copy.mirror.lost = true;  // the archive keeps a single copy
  copy.records = seg.records;
  copy.records_valid = true;
  archive_.push_back(std::move(copy));
  ++stats_.segments_archived;
  ++stats_.segments_sealed;
  StartNewActive();
}

bool LogManager::SealActiveSegment() {
  const Segment& seg = active();
  if (seg.records.empty() || verified_prefix_ != seg.primary.bytes.size()) {
    return false;
  }
  SealActive();
  return true;
}

Status LogManager::Force(core::Lsn upto) {
  std::lock_guard<std::mutex> lock(mu_);
  return ForceLocked(upto);
}

Status LogManager::ForceLocked(core::Lsn upto) {
  ++stats_.forces;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool traced = recorder.enabled();
  const uint64_t force_tick0 = traced ? recorder.NowTick() : 0;
  const uint64_t force_real0 = NowRealUs();
  if (gc_active_.load() && gc_options_.force_latency_us > 0) {
    // One synchronous stable write per force: the device latency every
    // commit would pay alone, amortized across the batch.
    std::this_thread::sleep_for(
        std::chrono::microseconds(gc_options_.force_latency_us));
  }
  const bool verified = verified_prefix_ == active().primary.bytes.size();
  size_t moved = 0;
  for (PendingRecord& pending : volatile_tail_) {
    LogRecord& record = pending.record;
    if (record.lsn > upto) break;
    Segment& seg = active();  // re-fetch: sealing replaces the active segment
    seg.primary.bytes.insert(seg.primary.bytes.end(), pending.frame.begin(),
                             pending.frame.end());
    seg.mirror.bytes.insert(seg.mirror.bytes.end(), pending.frame.begin(),
                            pending.frame.end());
    stable_lsn_ = record.lsn;
    ++moved;
    // An acknowledged force's bytes are durable and framed; extend the
    // verified prefix (and the parsed-record cache) past them — unless
    // unverified damage already sits before them (a torn/corrupted tail
    // nobody salvaged yet), in which case only a salvage scan may
    // re-verify.
    if (verified) {
      if (seg.first_lsn == 0) seg.first_lsn = record.lsn;
      seg.last_lsn = record.lsn;
      if (record.type == RecordType::kCheckpoint) {
        checkpoints_.push_back(CheckpointOffset{seg.id, record.lsn});
      }
      seg.records.push_back(std::move(record));
      verified_prefix_ = seg.primary.bytes.size();
      if (options_.segment_bytes > 0 &&
          seg.primary.bytes.size() >= options_.segment_bytes) {
        SealActive();  // verified stays true: the new active is empty
      }
    }
  }
  volatile_tail_.erase(volatile_tail_.begin(),
                       volatile_tail_.begin() + static_cast<ptrdiff_t>(moved));
  if (moved > 0) room_cv_.notify_all();
  stats_.forced_records += moved;
  RefreshStableBytes();
  durable_cv_.notify_all();
  if (commit_latency_.force_us != nullptr) {
    commit_latency_.force_us->Observe(NowRealUs() - force_real0);
  }
  if (traced) {
    recorder.EndSpan(obs::FlightEventType::kGcForce, force_tick0, upto, moved);
  }
  return Status::Ok();
}

void LogManager::CommitterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    committer_cv_.wait(lock, [this] {
      return gc_frozen_ || gc_stop_ ||
             commit_requested_ > stable_lsn_.load() ||
             volatile_tail_.size() >= gc_options_.ring_capacity;
    });
    if (gc_frozen_) break;
    if (gc_stop_ && volatile_tail_.empty() &&
        commit_requested_ <= stable_lsn_.load()) {
      break;
    }
    // The commit window: linger so commits racing in right now join
    // this batch instead of paying for their own force, until every
    // live session has joined it. An idle session keeps the window open
    // because it might still commit inside it.
    if (gc_options_.window_us > 0 && !gc_stop_) {
      obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
      const bool traced = recorder.enabled();
      const uint64_t tick0 = traced ? recorder.NowTick() : 0;
      const bool closed_early =
          committer_cv_.wait_for(
              lock, std::chrono::microseconds(gc_options_.window_us),
              [this] {
                return gc_frozen_ || gc_stop_ || EverySessionJoined();
              }) &&
          !gc_frozen_ && !gc_stop_;
      if (closed_early) ++stats_.group_early_closes;
      if (traced) {
        recorder.EndSpan(obs::FlightEventType::kGcWindow, tick0,
                         commits_in_batch_, closed_early ? 1 : 0);
      }
      if (gc_frozen_) break;
    }
    // A full pending queue forces a drain of everything pending even
    // with no commit pending — backpressure must stall appenders, never
    // deadlock them against a committer waiting for commits.
    const core::Lsn target =
        gc_stop_ || volatile_tail_.size() >= gc_options_.ring_capacity
            ? last_lsn_.load()
            : std::min(commit_requested_, last_lsn_.load());
    // The mutex stays held until the force is stable, so every waiter
    // counted in this window is one this force covers.
    const Status forced = ForceLocked(target);
    REDO_CHECK(forced.ok()) << "group-commit force failed: "
                            << forced.ToString();
    ++stats_.group_batches;
    stats_.group_commits += commits_in_batch_;
    stats_.group_max_batch =
        std::max(stats_.group_max_batch, commits_in_batch_);
    commits_in_batch_ = 0;
    sessions_in_batch_ = 0;
  }
  // Frozen or stopping: wake everyone so nobody waits on a dead thread.
  durable_cv_.notify_all();
  room_cv_.notify_all();
}

bool LogManager::EverySessionJoined() const {
  if (gc_options_.live_sessions == nullptr) return false;
  // With no live session nobody can join, so there is nothing to wait
  // for. The count may move under us; a session that arrives after the
  // window closed commits in the next one.
  const int live = gc_options_.live_sessions->load(std::memory_order_relaxed);
  return live <= 0 || sessions_in_batch_ >= static_cast<uint64_t>(live);
}

Status LogManager::StartGroupCommit(const GroupCommitOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (committer_.joinable() || gc_active_.load()) {
    return Status::FailedPrecondition("group commit already running");
  }
  // Force any leftover records so the pipeline starts with none pending.
  REDO_RETURN_IF_ERROR(ForceLocked(last_lsn_.load()));
  gc_options_ = options;
  if (gc_options_.ring_capacity == 0) gc_options_.ring_capacity = 1;
  gc_frozen_ = false;
  gc_stop_ = false;
  commit_requested_ = 0;
  commits_in_batch_ = 0;
  sessions_in_batch_ = 0;
  gc_active_.store(true);
  committer_ = std::thread([this] { CommitterLoop(); });
  return Status::Ok();
}

void LogManager::HaltGroupCommit(bool freeze) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!committer_.joinable()) return;
    if (freeze) {
      gc_frozen_ = true;
    } else {
      gc_stop_ = true;
    }
    committer_cv_.notify_all();
    room_cv_.notify_all();
    durable_cv_.notify_all();
  }
  committer_.join();
  gc_active_.store(false);
  // gc_frozen_ stays set after a freeze: CommitWait must keep failing
  // until the next StartGroupCommit — those commits were never acked.
}

Status LogManager::StopGroupCommit() {
  if (!committer_.joinable()) {
    return Status::FailedPrecondition("group commit not running");
  }
  HaltGroupCommit(/*freeze=*/false);
  return Status::Ok();
}

void LogManager::FreezeGroupCommit() { HaltGroupCommit(/*freeze=*/true); }

Result<core::Lsn> LogManager::CommitWait(core::Lsn lsn, Waiter waiter) {
  std::unique_lock<std::mutex> lock(mu_);
  if (gc_frozen_) {
    return Status::Unavailable("group commit frozen by crash");
  }
  if (!gc_active_.load()) {
    // Serial mode: the commit pays for its own force.
    REDO_RETURN_IF_ERROR(ForceLocked(lsn));
    ++stats_.group_commits;
    return stable_lsn_.load();
  }
  if (stable_lsn_.load() >= lsn) {
    // An earlier batch already covered it.
    ++stats_.group_commits;
    return stable_lsn_.load();
  }
  commit_requested_ = std::max(commit_requested_, lsn);
  ++commits_in_batch_;
  if (waiter == Waiter::kSession) ++sessions_in_batch_;
  committer_cv_.notify_one();
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool traced = recorder.enabled();
  const uint64_t tick0 = traced ? recorder.NowTick() : 0;
  const uint64_t real0 = NowRealUs();
  durable_cv_.wait(lock,
                   [this, lsn] { return gc_frozen_ || stable_lsn_.load() >= lsn; });
  if (commit_latency_.ack_wait_us != nullptr) {
    commit_latency_.ack_wait_us->Observe(NowRealUs() - real0);
  }
  if (traced) {
    recorder.EndSpan(obs::FlightEventType::kGcAckWait, tick0, lsn);
  }
  if (stable_lsn_.load() < lsn) {
    return Status::Unavailable("group commit frozen before lsn " +
                               std::to_string(lsn) + " became durable");
  }
  return stable_lsn_.load();
}

void LogManager::Crash() {
  if (committer_.joinable()) HaltGroupCommit(/*freeze=*/true);
  std::lock_guard<std::mutex> lock(mu_);
  volatile_tail_.clear();
  // LSNs of lost records are reusable: the WAL rule guarantees no page
  // on disk carries them.
  last_lsn_ = stable_lsn_.load();
}

std::optional<std::vector<LogRecord>> LogManager::DecodeSealedCopy(
    const Segment& segment, const Copy& copy) const {
  ++stats_.scan_decodes;
  std::vector<LogRecord> records;
  size_t offset = 0;
  while (offset < copy.bytes.size()) {
    Result<LogRecord> record = DecodeRecord(copy.bytes, &offset);
    if (!record.ok()) return std::nullopt;
    records.push_back(std::move(record).value());
  }
  if (records.empty()) return std::nullopt;
  if (records.front().lsn != segment.first_lsn ||
      records.back().lsn != segment.last_lsn) {
    return std::nullopt;
  }
  return records;
}

const std::vector<LogRecord>* LogManager::ReadableSealedRecords(
    const Segment& segment) const {
  if (segment.records_valid && !segment.records.empty()) {
    ++stats_.scan_cache_hits;
    return &segment.records;
  }
  for (const Copy* copy : {&segment.primary, &segment.mirror}) {
    if (copy->lost) continue;
    std::optional<std::vector<LogRecord>> decoded =
        DecodeSealedCopy(segment, *copy);
    if (decoded.has_value()) {
      segment.records = std::move(*decoded);
      segment.records_valid = true;
      return &segment.records;
    }
  }
  return nullptr;
}

Result<ScanExtent> LogManager::VisitStable(core::Lsn from,
                                           const StableVisitor& visit) const {
  ++stats_.stable_visits;
  ScanExtent extent;
  const core::Lsn live_begin = live_begin_lsn();
  // Truncated-away prefix: served from the archive.
  if (live_begin == 0 || from < live_begin) {
    for (const Segment& seg : archive_) {
      if (live_begin != 0 && seg.last_lsn >= live_begin) break;
      if (seg.last_lsn < from) {
        extent.last_valid_lsn = seg.last_lsn;
        continue;
      }
      const std::vector<LogRecord>* records = ReadableSealedRecords(seg);
      if (records == nullptr) {
        extent.torn = true;
        return extent;
      }
      extent.last_valid_lsn = seg.last_lsn;
      for (const LogRecord& record : *records) {
        if (record.lsn >= from) REDO_RETURN_IF_ERROR(visit(record));
      }
    }
  }
  for (size_t i = 0; i < live_.size(); ++i) {
    const Segment& seg = live_[i];
    if (seg.sealed) {
      if (seg.last_lsn < from) {
        // Metadata skip: recovery does not need these records, so their
        // integrity is Scrub's business, not the scan's.
        extent.last_valid_lsn = seg.last_lsn;
        extent.valid_bytes += seg.primary.bytes.size();
        continue;
      }
      const std::vector<LogRecord>* records = ReadableSealedRecords(seg);
      if (records == nullptr) {
        // A hole: everything from here on is untrustworthy — a redo
        // prefix must be unbroken.
        extent.torn = true;
        for (size_t j = i; j < live_.size(); ++j) {
          extent.damaged_bytes += live_[j].primary.bytes.size();
        }
        return extent;
      }
      extent.last_valid_lsn = seg.last_lsn;
      extent.valid_bytes += seg.primary.bytes.size();
      for (const LogRecord& record : *records) {
        if (record.lsn >= from) REDO_RETURN_IF_ERROR(visit(record));
      }
    } else {
      // The active segment: cached verified records, then a tolerant
      // decode of any unverified (torn, unsalvaged) tail bytes.
      if (!seg.records.empty()) ++stats_.scan_cache_hits;
      for (const LogRecord& record : seg.records) {
        extent.last_valid_lsn = record.lsn;
        if (record.lsn >= from) REDO_RETURN_IF_ERROR(visit(record));
      }
      size_t offset = verified_prefix_;
      while (offset < seg.primary.bytes.size()) {
        Result<LogRecord> record = DecodeRecord(seg.primary.bytes, &offset);
        if (!record.ok()) {
          extent.torn = true;
          break;
        }
        extent.last_valid_lsn = record.value().lsn;
        if (record.value().lsn >= from) {
          REDO_RETURN_IF_ERROR(visit(record.value()));
        }
      }
      extent.valid_bytes += offset;
      extent.damaged_bytes += seg.primary.bytes.size() - offset;
    }
  }
  return extent;
}

StableScan LogManager::ScanStable(core::Lsn from) const {
  StableScan scan;
  Result<ScanExtent> extent =
      VisitStable(from, [&scan](const LogRecord& record) {
        scan.records.push_back(record);
        return Status::Ok();
      });
  static_cast<ScanExtent&>(scan) = extent.value();
  return scan;
}

Result<std::vector<LogRecord>> LogManager::StableRecords(core::Lsn from) const {
  return ScanStable(from).records;
}

Result<LogRecord> LogManager::StableRecordAt(core::Lsn lsn) const {
  if (lsn == 0 || lsn > stable_lsn_) {
    return Status::NotFound("stable log: LSN " + std::to_string(lsn) +
                            " is not stable");
  }
  auto find = [lsn](const std::vector<LogRecord>& records) -> Result<LogRecord> {
    const auto it = std::lower_bound(
        records.begin(), records.end(), lsn,
        [](const LogRecord& r, core::Lsn target) { return r.lsn < target; });
    if (it == records.end() || it->lsn != lsn) {
      return Status::NotFound("stable log: no record with LSN " +
                              std::to_string(lsn));
    }
    return *it;
  };
  // A sealed segment wholly below `lsn` is passed over, but a hole there
  // still refuses the lookup, as it would end a scan from the start of
  // that part of the log. A valid parsed cache proves the segment
  // readable without reading it.
  auto readable = [this](const Segment& seg) {
    return (seg.records_valid && !seg.records.empty()) ||
           ReadableSealedRecords(seg) != nullptr;
  };
  // Below the live log: the archive, under the scan's rules.
  const core::Lsn live_begin = live_begin_lsn();
  if (live_begin == 0 || lsn < live_begin) {
    for (const Segment& seg : archive_) {
      if (live_begin != 0 && seg.last_lsn >= live_begin) break;
      if (seg.last_lsn < lsn) {
        if (!readable(seg)) return GapStatus(seg.first_lsn);
        continue;
      }
      const std::vector<LogRecord>* records = ReadableSealedRecords(seg);
      if (records == nullptr) return GapStatus(seg.first_lsn);
      return find(*records);
    }
  }
  for (const Segment& seg : live_) {
    if (seg.sealed) {
      if (seg.last_lsn < lsn) {
        if (!readable(seg)) return GapStatus(seg.first_lsn);
        continue;
      }
      const std::vector<LogRecord>* records = ReadableSealedRecords(seg);
      if (records == nullptr) return GapStatus(seg.first_lsn);
      return find(*records);
    }
    // The active segment: the verified cache, else a tolerant decode of
    // the unverified tail up to the first damage.
    if (!seg.records.empty() && seg.records.back().lsn >= lsn) {
      ++stats_.scan_cache_hits;
      return find(seg.records);
    }
    size_t offset = verified_prefix_;
    while (offset < seg.primary.bytes.size()) {
      Result<LogRecord> record = DecodeRecord(seg.primary.bytes, &offset);
      if (!record.ok()) break;
      if (record.value().lsn == lsn) return record;
    }
  }
  return Status::NotFound("stable log: no record with LSN " +
                          std::to_string(lsn));
}

SalvageResult LogManager::SalvageTornTail() {
  REDO_CHECK(volatile_tail_.empty())
      << "salvage models recovery: call it after Crash()";
  SalvageResult result;
  result.stable_lsn_before = stable_lsn_;

  Segment& seg = active();
  size_t offset = verified_prefix_;
  core::Lsn last_valid = stable_lsn_;
  if (verified_prefix_ == 0) {
    // The whole active segment must be re-verified (CorruptStableTail
    // may have cut anywhere); rebuild its caches as we go.
    seg.records.clear();
    const uint64_t seg_id = seg.id;
    std::erase_if(checkpoints_, [seg_id](const CheckpointOffset& c) {
      return c.segment_id == seg_id;
    });
    seg.first_lsn = 0;
    seg.last_lsn = 0;
    last_valid = live_.size() >= 2 ? live_[live_.size() - 2].last_lsn : 0;
  }
  while (offset < seg.primary.bytes.size()) {
    Result<LogRecord> record = DecodeRecord(seg.primary.bytes, &offset);
    if (!record.ok()) {
      result.torn = true;
      break;
    }
    last_valid = record.value().lsn;
    if (record.value().lsn > stable_lsn_) ++result.salvaged_records;
    if (record.value().type == RecordType::kCheckpoint) {
      checkpoints_.push_back(CheckpointOffset{seg.id, record.value().lsn});
    }
    if (seg.first_lsn == 0) seg.first_lsn = record.value().lsn;
    seg.last_lsn = record.value().lsn;
    seg.records.push_back(std::move(record).value());
  }

  result.dropped_bytes = seg.primary.bytes.size() - offset;
  seg.primary.bytes.resize(offset);
  seg.mirror.bytes.resize(std::min(seg.mirror.bytes.size(), offset));
  verified_prefix_ = offset;
  stable_lsn_ = last_valid;
  last_lsn_ = stable_lsn_.load();
  result.stable_lsn_after = stable_lsn_;

  if (result.torn) {
    ++stats_.torn_tail_truncations;
    stats_.torn_bytes_dropped += result.dropped_bytes;
  }
  stats_.salvaged_records += result.salvaged_records;
  RefreshStableBytes();
  return result;
}

Result<std::optional<LogRecord>> LogManager::LatestStableCheckpoint() const {
  if (verified_prefix_ == active().primary.bytes.size()) {
    // Fast path: the active segment is fully verified, so the
    // checkpoint cache is complete.
    if (checkpoints_.empty()) return std::optional<LogRecord>{};
    const CheckpointOffset& latest = checkpoints_.back();
    const Segment* seg = FindLive(latest.segment_id);
    if (seg != nullptr) {
      const std::vector<LogRecord>* records =
          seg->sealed ? ReadableSealedRecords(*seg) : &seg->records;
      if (records != nullptr) {
        const auto it = std::lower_bound(
            records->begin(), records->end(), latest.lsn,
            [](const LogRecord& r, core::Lsn lsn) { return r.lsn < lsn; });
        if (it != records->end() && it->lsn == latest.lsn &&
            it->type == RecordType::kCheckpoint) {
          ++stats_.checkpoint_cache_hits;
          return std::optional<LogRecord>{*it};
        }
      }
    }
    // A cached location that no longer resolves means the image was
    // damaged behind our back; fall through to the tolerant scan.
  }
  ++stats_.checkpoint_full_scans;
  std::optional<LogRecord> latest;
  const Result<ScanExtent> scanned =
      VisitStable(1, [&latest](const LogRecord& record) {
        if (record.type == RecordType::kCheckpoint) latest = record;
        return Status::Ok();
      });
  if (!scanned.ok()) return scanned.status();
  return latest;
}

size_t LogManager::PendingForceBytes() const {
  size_t bytes = 0;
  for (const PendingRecord& pending : volatile_tail_) {
    bytes += pending.frame.size();
  }
  return bytes;
}

// ---- Segments, scrub, archive ----

std::vector<SegmentInfo> LogManager::LiveSegments() const {
  std::vector<SegmentInfo> infos;
  infos.reserve(live_.size());
  for (const Segment& seg : live_) {
    SegmentInfo info;
    info.id = seg.id;
    info.first_lsn = seg.first_lsn;
    info.last_lsn = seg.last_lsn;
    info.sealed = seg.sealed;
    info.bytes = seg.primary.bytes.size();
    info.primary_seal = seg.primary.seal;
    info.mirror_seal = seg.mirror.seal;
    info.archived = FindArchive(seg.id) != nullptr;
    infos.push_back(info);
  }
  return infos;
}

std::vector<SegmentInfo> LogManager::ArchivedSegments() const {
  std::vector<SegmentInfo> infos;
  infos.reserve(archive_.size());
  for (const Segment& seg : archive_) {
    SegmentInfo info;
    info.id = seg.id;
    info.first_lsn = seg.first_lsn;
    info.last_lsn = seg.last_lsn;
    info.sealed = true;
    info.bytes = seg.primary.bytes.size();
    info.primary_seal = seg.primary.seal;
    info.archived = true;
    infos.push_back(info);
  }
  return infos;
}

core::Lsn LogManager::live_begin_lsn() const {
  for (const Segment& seg : live_) {
    if (seg.first_lsn != 0) return seg.first_lsn;
  }
  return 0;
}

core::Lsn LogManager::archived_through() const {
  return archive_.empty() ? 0 : archive_.back().last_lsn;
}

ScrubReport LogManager::Scrub() {
  ScrubReport report;
  ++stats_.scrub_passes;
  auto copy_intact = [](const Copy& copy) {
    return !copy.lost &&
           Crc32c(copy.bytes.data(), copy.bytes.size()) == copy.seal;
  };
  for (Segment& seg : live_) {
    if (!seg.sealed) continue;
    ++report.segments;
    SegmentVerdict verdict;
    verdict.id = seg.id;
    verdict.first_lsn = seg.first_lsn;
    verdict.last_lsn = seg.last_lsn;
    const bool primary_ok = copy_intact(seg.primary);
    const bool mirror_ok = copy_intact(seg.mirror);
    if (primary_ok && mirror_ok) {
      verdict.state = SegmentVerdict::State::kIntact;
    } else if (primary_ok) {
      seg.mirror = seg.primary;
      ++report.repairs;
      ++stats_.mirror_repairs;
      verdict.state = SegmentVerdict::State::kMirrorRebuilt;
    } else if (mirror_ok) {
      seg.primary = seg.mirror;
      seg.records_valid = false;
      ++report.repairs;
      ++stats_.mirror_repairs;
      verdict.state = SegmentVerdict::State::kRepairedFromMirror;
    } else {
      // Neither seal verifies. The bytes themselves may still be fine
      // (a torn *seal*): accept a copy that decodes cleanly end-to-end
      // and matches the segment's LSN range, and re-derive its seal.
      bool resealed = false;
      for (Copy* copy : {&seg.primary, &seg.mirror}) {
        if (copy->lost) continue;
        std::optional<std::vector<LogRecord>> decoded =
            DecodeSealedCopy(seg, *copy);
        if (!decoded.has_value()) continue;
        copy->seal = Crc32c(copy->bytes.data(), copy->bytes.size());
        seg.records = std::move(*decoded);
        seg.records_valid = true;
        // Both copies now carry the verified, resealed bytes.
        if (copy == &seg.mirror) seg.primary = seg.mirror;
        seg.mirror = seg.primary;
        ++report.repairs;
        ++stats_.reseals;
        verdict.state = SegmentVerdict::State::kResealed;
        resealed = true;
        break;
      }
      if (!resealed) {
        verdict.state = SegmentVerdict::State::kHole;
        ++report.holes;
        if (report.first_unreadable_lsn == 0) {
          report.first_unreadable_lsn = seg.first_lsn;
        }
      }
    }
    report.verdicts.push_back(verdict);
  }
  // The archive: verify seals; repair a damaged archive copy from its
  // live twin (now scrubbed) when possible.
  for (Segment& seg : archive_) {
    SegmentVerdict verdict;
    verdict.id = seg.id;
    verdict.first_lsn = seg.first_lsn;
    verdict.last_lsn = seg.last_lsn;
    if (copy_intact(seg.primary)) {
      verdict.state = SegmentVerdict::State::kIntact;
    } else if (std::optional<std::vector<LogRecord>> decoded =
                   !seg.primary.lost ? DecodeSealedCopy(seg, seg.primary)
                                     : std::nullopt;
               decoded.has_value()) {
      seg.primary.seal =
          Crc32c(seg.primary.bytes.data(), seg.primary.bytes.size());
      seg.records = std::move(*decoded);
      seg.records_valid = true;
      ++report.archive_repairs;
      ++stats_.reseals;
      verdict.state = SegmentVerdict::State::kResealed;
    } else {
      const Segment* live = FindLive(seg.id);
      const std::vector<LogRecord>* records =
          live != nullptr && live->sealed ? ReadableSealedRecords(*live)
                                          : nullptr;
      if (records != nullptr) {
        seg.primary = live->primary;
        seg.records = *records;
        seg.records_valid = true;
        ++report.archive_repairs;
        verdict.state = SegmentVerdict::State::kRepairedFromMirror;
      } else {
        verdict.state = SegmentVerdict::State::kHole;
        ++report.archive_holes;
      }
    }
    report.archive_verdicts.push_back(verdict);
  }
  return report;
}

core::Lsn LogManager::FirstHoleLsn() const {
  for (const Segment& seg : live_) {
    if (!seg.sealed) continue;
    if (ReadableSealedRecords(seg) == nullptr) return seg.first_lsn;
  }
  return 0;
}

core::Lsn LogManager::WalkWithArchive(core::Lsn from,
                                     std::vector<LogRecord>* out) const {
  core::Lsn expected = from;
  while (expected <= stable_lsn_) {
    // Locate an intact source covering `expected`: a live segment (or
    // its archive twin), else any archive segment (truncated prefix or
    // an amputated middle).
    const std::vector<LogRecord>* records = nullptr;
    for (const Segment& seg : live_) {
      const core::Lsn first =
          seg.sealed ? seg.first_lsn
                     : (seg.records.empty() ? 0 : seg.records.front().lsn);
      const core::Lsn last =
          seg.sealed ? seg.last_lsn
                     : (seg.records.empty() ? 0 : seg.records.back().lsn);
      if (first == 0 || expected < first || expected > last) continue;
      if (!seg.sealed) {
        records = &seg.records;
        break;
      }
      records = ReadableSealedRecords(seg);
      if (records == nullptr) {
        const Segment* archived = FindArchive(seg.id);
        if (archived != nullptr) records = ReadableSealedRecords(*archived);
      }
      break;
    }
    if (records == nullptr) {
      for (const Segment& seg : archive_) {
        if (expected < seg.first_lsn || expected > seg.last_lsn) continue;
        records = ReadableSealedRecords(seg);
        break;
      }
    }
    if (records == nullptr) return expected;
    bool advanced = false;
    for (const LogRecord& record : *records) {
      if (record.lsn < expected) continue;
      if (record.lsn != expected) return expected;
      if (out != nullptr) out->push_back(record);
      ++expected;
      advanced = true;
    }
    if (!advanced) return expected;
  }
  return 0;
}

core::Lsn LogManager::FirstUncoveredLsn(core::Lsn from) const {
  return WalkWithArchive(from, nullptr);
}

Result<std::vector<LogRecord>> LogManager::ReadWithArchive(
    core::Lsn from) const {
  std::vector<LogRecord> out;
  const core::Lsn gap = WalkWithArchive(from, &out);
  if (gap != 0) return GapStatus(gap);
  return out;
}

size_t LogManager::TruncateArchived(core::Lsn upto) {
  // Never truncate the latest stable checkpoint (or anything after it):
  // recovery's scan start must stay in the live log.
  if (checkpoints_.empty()) return 0;
  const core::Lsn cap = std::min(upto, checkpoints_.back().lsn - 1);
  size_t dropped = 0;
  while (live_.size() > 1) {
    const Segment& front = live_.front();
    if (!front.sealed || front.first_lsn == 0 || front.last_lsn > cap) break;
    if (FindArchive(front.id) == nullptr) break;  // unarchived: must stay
    const uint64_t id = front.id;
    std::erase_if(checkpoints_, [id](const CheckpointOffset& c) {
      return c.segment_id == id;
    });
    live_.erase(live_.begin());
    ++dropped;
  }
  stats_.segments_truncated += dropped;
  RefreshStableBytes();
  return dropped;
}

size_t LogManager::RepairFromArchive() {
  size_t repaired = 0;
  for (Segment& seg : live_) {
    if (!seg.sealed) continue;
    if (ReadableSealedRecords(seg) != nullptr) continue;
    const Segment* archived = FindArchive(seg.id);
    if (archived == nullptr) continue;
    const std::vector<LogRecord>* records = ReadableSealedRecords(*archived);
    if (records == nullptr) continue;
    seg.primary = archived->primary;
    seg.mirror = archived->primary;
    seg.records = *records;
    seg.records_valid = true;
    ++repaired;
    ++stats_.archive_repairs;
  }
  return repaired;
}

size_t LogManager::DropUnreadableThrough(core::Lsn covered_lsn) {
  size_t dropped = 0;
  for (auto it = live_.begin(); it != live_.end();) {
    Segment& seg = *it;
    if (seg.sealed && seg.first_lsn != 0 && seg.last_lsn <= covered_lsn &&
        ReadableSealedRecords(seg) == nullptr &&
        (FindArchive(seg.id) == nullptr ||
         ReadableSealedRecords(*FindArchive(seg.id)) == nullptr)) {
      const uint64_t id = seg.id;
      std::erase_if(checkpoints_, [id](const CheckpointOffset& c) {
        return c.segment_id == id;
      });
      it = live_.erase(it);
      ++dropped;
      ++stats_.segments_amputated;
    } else {
      ++it;
    }
  }
  RefreshStableBytes();
  return dropped;
}

// ---- Fault hooks ----

size_t LogManager::TearInFlightForce(size_t bytes) {
  size_t appended = 0;
  Segment& seg = active();
  for (const PendingRecord& pending : volatile_tail_) {
    if (appended >= bytes) break;
    const size_t take = std::min(pending.frame.size(), bytes - appended);
    const auto taken = pending.frame.begin() + static_cast<ptrdiff_t>(take);
    seg.primary.bytes.insert(seg.primary.bytes.end(), pending.frame.begin(),
                             taken);
    seg.mirror.bytes.insert(seg.mirror.bytes.end(), pending.frame.begin(),
                            taken);
    appended += take;
  }
  // The bytes are unacknowledged: stable_lsn_, the verified prefix, and
  // the caches all stay put until SalvageTornTail() judges them. The
  // volatile tail is untouched — the caller crashes next.
  if (appended > 0) ++stats_.torn_forces;
  RefreshStableBytes();
  return appended;
}

void LogManager::CorruptStableTail(size_t drop_bytes) {
  size_t drop = drop_bytes;
  while (true) {
    Segment& seg = active();
    const size_t cut = std::min(drop, seg.primary.bytes.size());
    seg.primary.bytes.resize(seg.primary.bytes.size() - cut);
    seg.mirror.bytes.resize(
        std::min(seg.mirror.bytes.size(), seg.primary.bytes.size()));
    drop -= cut;
    // The cut may land mid-record anywhere; nothing in this segment is
    // verified until the next salvage re-scans it.
    seg.records.clear();
    seg.first_lsn = 0;
    seg.last_lsn = 0;
    const uint64_t id = seg.id;
    std::erase_if(checkpoints_, [id](const CheckpointOffset& c) {
      return c.segment_id == id;
    });
    verified_prefix_ = 0;
    if (drop == 0 || live_.size() == 1) break;
    // The cut consumed the whole active segment: the damage runs into
    // the sealed segment before it, whose seal is now meaningless.
    live_.pop_back();
    Segment& prev = live_.back();
    prev.sealed = false;
    prev.records.clear();
    prev.records_valid = true;
    prev.primary.seal = 0;
    prev.mirror.seal = 0;
    prev.first_lsn = 0;
    prev.last_lsn = 0;
    const uint64_t prev_id = prev.id;
    std::erase_if(checkpoints_, [prev_id](const CheckpointOffset& c) {
      return c.segment_id == prev_id;
    });
    // Tail damage voids the archive copy too (the model: the tail was
    // never durably shipped).
    std::erase_if(archive_, [prev_id](const Segment& a) {
      return a.id == prev_id;
    });
  }
  RefreshStableBytes();
}

LogManager::Segment* LogManager::FindLive(uint64_t id) {
  for (Segment& seg : live_) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

const LogManager::Segment* LogManager::FindLive(uint64_t id) const {
  for (const Segment& seg : live_) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

LogManager::Segment* LogManager::FindArchive(uint64_t id) {
  for (Segment& seg : archive_) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

const LogManager::Segment* LogManager::FindArchive(uint64_t id) const {
  for (const Segment& seg : archive_) {
    if (seg.id == id) return &seg;
  }
  return nullptr;
}

LogManager::Copy* LogManager::FindCopy(uint64_t id, LogCopy copy) {
  if (copy == LogCopy::kArchive) {
    Segment* seg = FindArchive(id);
    return seg == nullptr ? nullptr : &seg->primary;
  }
  Segment* seg = FindLive(id);
  if (seg == nullptr || !seg->sealed) return nullptr;
  return copy == LogCopy::kMirror ? &seg->mirror : &seg->primary;
}

size_t LogManager::LiveBytes() const {
  size_t bytes = 0;
  for (const Segment& seg : live_) bytes += seg.primary.bytes.size();
  return bytes;
}

bool LogManager::CorruptSegmentByte(uint64_t segment_id, LogCopy copy,
                                    size_t offset, uint8_t xor_mask) {
  Copy* target = FindCopy(segment_id, copy);
  if (target == nullptr || offset >= target->bytes.size() || xor_mask == 0) {
    return false;
  }
  target->bytes[offset] ^= xor_mask;
  Segment* seg = copy == LogCopy::kArchive ? FindArchive(segment_id)
                                           : FindLive(segment_id);
  seg->records_valid = false;  // the cache must never mask damage
  return true;
}

bool LogManager::LoseSegmentCopy(uint64_t segment_id, LogCopy copy) {
  Copy* target = FindCopy(segment_id, copy);
  if (target == nullptr) return false;
  target->lost = true;
  Segment* seg = copy == LogCopy::kArchive ? FindArchive(segment_id)
                                           : FindLive(segment_id);
  seg->records_valid = false;
  return true;
}

bool LogManager::TearSeal(uint64_t segment_id, LogCopy copy,
                          uint32_t xor_mask) {
  Copy* target = FindCopy(segment_id, copy);
  if (target == nullptr || xor_mask == 0) return false;
  target->seal ^= xor_mask;
  Segment* seg = copy == LogCopy::kArchive ? FindArchive(segment_id)
                                           : FindLive(segment_id);
  seg->records_valid = false;
  return true;
}

Result<SegmentCopyImage> LogManager::PeekSegmentCopy(uint64_t segment_id,
                                                     LogCopy copy) const {
  // FindCopy is non-const only because it returns a mutable pointer.
  LogManager* self = const_cast<LogManager*>(this);
  Copy* target = self->FindCopy(segment_id, copy);
  if (target == nullptr) {
    return Status::NotFound("no such segment copy: id=" +
                            std::to_string(segment_id));
  }
  SegmentCopyImage image;
  image.bytes = target->bytes;
  image.seal = target->seal;
  image.lost = target->lost;
  return image;
}

bool LogManager::RestoreSegmentCopy(uint64_t segment_id, LogCopy copy,
                                    const SegmentCopyImage& image) {
  Copy* target = FindCopy(segment_id, copy);
  if (target == nullptr) return false;
  target->bytes = image.bytes;
  target->seal = image.seal;
  target->lost = image.lost;
  Segment* seg = copy == LogCopy::kArchive ? FindArchive(segment_id)
                                           : FindLive(segment_id);
  seg->records_valid = false;  // re-derive from the restored bytes
  return true;
}

}  // namespace redo::wal
