#include "wal/log_manager.h"

#include <algorithm>
#include <array>
#include <chrono>

#include "obs/flight_recorder.h"

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
    case SegmentVerdict::State::kHole:
      return "hole";
  }
  return "?";
}

LogManager::LogManager(const LogManagerOptions& options) : options_(options) {
  segments_.push_back(Segment{});
  segments_.back().id = next_segment_id_++;
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
        emit.Gauge("live_segments",
                   std::count_if(segments_.begin(), segments_.end(),
                                 [](const Segment& seg) { return seg.live; }));
        emit.Gauge("archived_segments",
                   std::count_if(segments_.begin(), segments_.end(),
                                 [](const Segment& seg) {
                                   return seg.archive.has_value();
                                 }));
        emit.Gauge("volatile_records",
                   static_cast<int64_t>(volatile_tail_.size()));
      },
      [this]() { ResetStats(); });
}

void LogManager::StartNewActive() {
  segments_.push_back(Segment{});
  segments_.back().id = next_segment_id_++;
  verified_prefix_ = 0;
}

void LogManager::SealActive() {
  Segment& seg = active();
  REDO_CHECK(!seg.records.empty());
  REDO_CHECK(verified_prefix_ == seg.primary.bytes.size());
  seg.sealed = true;
  seg.first_lsn = seg.records.front().lsn;
  seg.last_lsn = seg.records.back().lsn;
  seg.archive = seg.primary;  // continuous archiving ships the sealed bytes
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
  // This force acknowledges every waiting commit it covers: they leave
  // the commit window's count, and the batch is this force's.
  const size_t waiting = waiting_commits_.size();
  std::erase_if(waiting_commits_, [this](const WaitingCommit& commit) {
    return commit.lsn <= stable_lsn_.load();
  });
  const uint64_t acked = waiting - waiting_commits_.size();
  stats_.group_commits += acked;
  stats_.group_max_batch = std::max(stats_.group_max_batch, acked);
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
                         waiting_commits_.size(), closed_early ? 1 : 0);
      }
      if (gc_frozen_) break;
    }
    // A full pending queue forces a drain of everything pending even
    // with no commit pending — backpressure must stall appenders, never
    // deadlock them against a committer waiting for commits.
    const bool drain =
        gc_stop_ || volatile_tail_.size() >= gc_options_.ring_capacity;
    // Another force (a checkpoint's, a page flush's) may have covered
    // every commit the window waited for: then there is nothing to force.
    if (!drain && commit_requested_ <= stable_lsn_.load()) continue;
    const core::Lsn target =
        drain ? last_lsn_.load()
              : std::min(commit_requested_, last_lsn_.load());
    const Status forced = ForceLocked(target);
    REDO_CHECK(forced.ok()) << "group-commit force failed: "
                            << forced.ToString();
    ++stats_.group_batches;
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
  const auto sessions = std::count_if(
      waiting_commits_.begin(), waiting_commits_.end(),
      [](const WaitingCommit& commit) {
        return commit.waiter == Waiter::kSession;
      });
  return live <= 0 || sessions >= live;
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
      waiting_commits_.clear();  // they fail: no force acknowledges them
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
  waiting_commits_.push_back({lsn, waiter});
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
    const Segment& segment, const SegmentCopy* copy) const {
  if (copy == nullptr || copy->lost) return std::nullopt;
  ++stats_.scan_decodes;
  std::vector<LogRecord> records;
  size_t offset = 0;
  while (offset < copy->bytes.size()) {
    Result<LogRecord> record = DecodeRecord(copy->bytes, &offset);
    // Every frame decodes, and the LSNs run on from the segment's first
    // without a gap.
    if (!record.ok() ||
        record.value().lsn != segment.first_lsn + records.size()) {
      return std::nullopt;
    }
    records.push_back(std::move(record).value());
  }
  if (records.empty() || records.back().lsn != segment.last_lsn) {
    return std::nullopt;
  }
  return records;
}

std::array<const SegmentCopy*, 2> LogManager::TrustedCopies(
    const Segment& segment) {
  if (segment.live) return {&segment.primary, &segment.mirror};
  return {&segment.archive.value(), nullptr};
}

const std::vector<LogRecord>* LogManager::ReadableSealedRecords(
    const Segment& segment) const {
  if (segment.records_valid && !segment.records.empty()) {
    ++stats_.scan_cache_hits;
    return &segment.records;
  }
  for (const SegmentCopy* copy : TrustedCopies(segment)) {
    std::optional<std::vector<LogRecord>> decoded =
        DecodeSealedCopy(segment, copy);
    if (decoded.has_value()) {
      segment.records = std::move(*decoded);
      segment.records_valid = true;
      return &segment.records;
    }
  }
  return nullptr;
}

std::optional<std::vector<LogRecord>> LogManager::DecodeArchiveCopy(
    const Segment& segment) const {
  return DecodeSealedCopy(
      segment, segment.archive.has_value() ? &*segment.archive : nullptr);
}

template <typename OnRecord>
size_t LogManager::DecodeTail(const Segment& segment, size_t offset,
                              OnRecord&& on_record) const {
  while (offset < segment.primary.bytes.size()) {
    Result<LogRecord> record = DecodeRecord(segment.primary.bytes, &offset);
    if (!record.ok() || !on_record(std::move(record).value())) break;
  }
  return offset;
}

bool LogManager::Reads(const Segment& segment, core::Lsn from,
                       core::Lsn live_begin) {
  if (segment.live) return true;
  // A retired segment above the live log's start was amputated from
  // inside it: only the coverage check (FirstUncoveredLsn) reads it.
  return live_begin == 0 || (from < live_begin && segment.last_lsn < live_begin);
}

Result<ScanExtent> LogManager::VisitStable(core::Lsn from,
                                           const StableVisitor& visit) const {
  ++stats_.stable_visits;
  ScanExtent extent;
  const core::Lsn live_begin = live_begin_lsn();
  for (const Segment& seg : segments_) {
    if (!Reads(seg, from, live_begin)) continue;
    if (seg.sealed) {
      if (seg.last_lsn < from) {
        // Metadata skip: recovery does not need these records, so their
        // integrity is Scrub's business, not the scan's.
        extent.last_valid_lsn = seg.last_lsn;
        continue;
      }
      const std::vector<LogRecord>* records = ReadableSealedRecords(seg);
      if (records == nullptr) {
        // A hole: everything from here on is untrustworthy — a redo
        // prefix must be unbroken.
        extent.torn = true;
        return extent;
      }
      extent.last_valid_lsn = seg.last_lsn;
      for (const LogRecord& record : *records) {
        if (record.lsn >= from) REDO_RETURN_IF_ERROR(visit(record));
      }
      continue;
    }
    // The active segment: cached verified records, then a tolerant
    // decode of any unverified (torn, unsalvaged) tail bytes.
    if (!seg.records.empty()) ++stats_.scan_cache_hits;
    for (const LogRecord& record : seg.records) {
      extent.last_valid_lsn = record.lsn;
      if (record.lsn >= from) REDO_RETURN_IF_ERROR(visit(record));
    }
    Status visited;
    const size_t end =
        DecodeTail(seg, verified_prefix_, [&](LogRecord&& record) {
          extent.last_valid_lsn = record.lsn;
          if (record.lsn >= from) visited = visit(record);
          return visited.ok();
        });
    REDO_RETURN_IF_ERROR(visited);
    extent.torn = end < seg.primary.bytes.size();
  }
  return extent;
}

Result<std::vector<LogRecord>> LogManager::StableRecords(core::Lsn from) const {
  std::vector<LogRecord> records;
  REDO_RETURN_IF_ERROR(VisitStable(from, [&records](const LogRecord& record) {
                         records.push_back(record);
                         return Status::Ok();
                       }).status());
  return records;
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
  const core::Lsn live_begin = live_begin_lsn();
  for (const Segment& seg : segments_) {
    if (!Reads(seg, lsn, live_begin)) continue;
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
    std::optional<LogRecord> found;
    DecodeTail(seg, verified_prefix_, [&](LogRecord&& record) {
      if (record.lsn == lsn) found = std::move(record);
      return !found.has_value();
    });
    if (found.has_value()) return std::move(*found);
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
  core::Lsn last_valid = stable_lsn_;
  if (verified_prefix_ == 0) {
    // The whole active segment must be re-verified (CorruptStableTail
    // may have cut anywhere); rebuild its caches as we go.
    seg.records.clear();
    ForgetCheckpoints(seg.id);
    seg.first_lsn = 0;
    seg.last_lsn = 0;
    // The last LSN before the active segment, live or retired.
    last_valid =
        segments_.size() >= 2 ? segments_[segments_.size() - 2].last_lsn : 0;
  }
  const size_t offset =
      DecodeTail(seg, verified_prefix_, [&](LogRecord&& record) {
        last_valid = record.lsn;
        if (record.lsn > stable_lsn_) ++result.salvaged_records;
        if (record.type == RecordType::kCheckpoint) {
          checkpoints_.push_back(CheckpointOffset{seg.id, record.lsn});
        }
        if (seg.first_lsn == 0) seg.first_lsn = record.lsn;
        seg.last_lsn = record.lsn;
        seg.records.push_back(std::move(record));
        return true;
      });
  result.torn = offset < seg.primary.bytes.size();

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
    const Segment* seg = Find(latest.segment_id);
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
  for (const Segment& seg : segments_) {
    if (!seg.live) continue;
    SegmentInfo info;
    info.id = seg.id;
    info.first_lsn = seg.first_lsn;
    info.last_lsn = seg.last_lsn;
    info.sealed = seg.sealed;
    info.bytes = seg.primary.bytes.size();
    info.archived = seg.archive.has_value();
    infos.push_back(info);
  }
  return infos;
}

std::vector<SegmentInfo> LogManager::ArchivedSegments() const {
  std::vector<SegmentInfo> infos;
  for (const Segment& seg : segments_) {
    if (!seg.archive.has_value()) continue;
    SegmentInfo info;
    info.id = seg.id;
    info.first_lsn = seg.first_lsn;
    info.last_lsn = seg.last_lsn;
    info.sealed = true;
    info.bytes = seg.archive->bytes.size();
    info.archived = true;
    infos.push_back(info);
  }
  return infos;
}

core::Lsn LogManager::live_begin_lsn() const {
  for (const Segment& seg : segments_) {
    if (seg.live && seg.first_lsn != 0) return seg.first_lsn;
  }
  return 0;
}

core::Lsn LogManager::archived_through() const {
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (it->archive.has_value()) return it->last_lsn;
  }
  return 0;
}

ScrubReport LogManager::Scrub() {
  ScrubReport report;
  ++stats_.scrub_passes;
  // What a copy decoded to fills the parsed cache, so the reads after
  // the scrub decode nothing again.
  auto keep = [](Segment& seg, std::vector<LogRecord>&& records) {
    seg.records = std::move(records);
    seg.records_valid = true;
  };
  for (Segment& seg : segments_) {
    if (!seg.live || !seg.sealed) continue;
    ++report.segments;
    SegmentVerdict verdict{seg.id, seg.first_lsn, seg.last_lsn};
    std::optional<std::vector<LogRecord>> primary =
        DecodeSealedCopy(seg, &seg.primary);
    std::optional<std::vector<LogRecord>> mirror =
        DecodeSealedCopy(seg, &seg.mirror);
    if (primary.has_value() && mirror.has_value()) {
      verdict.state = SegmentVerdict::State::kIntact;
    } else if (primary.has_value()) {
      seg.mirror = seg.primary;
      ++report.repairs;
      ++stats_.mirror_repairs;
      verdict.state = SegmentVerdict::State::kMirrorRebuilt;
    } else if (mirror.has_value()) {
      seg.primary = seg.mirror;
      primary = std::move(mirror);
      ++report.repairs;
      ++stats_.mirror_repairs;
      verdict.state = SegmentVerdict::State::kRepairedFromMirror;
    } else {
      verdict.state = SegmentVerdict::State::kHole;
      ++report.holes;
      if (report.first_unreadable_lsn == 0) {
        report.first_unreadable_lsn = seg.first_lsn;
      }
    }
    if (primary.has_value()) keep(seg, std::move(*primary));
    report.verdicts.push_back(verdict);
  }
  // The archive copies: a damaged one is rebuilt from its live twin
  // (now scrubbed) when that twin is readable. Re-seeding a live hole
  // from the archive is rung 2's (RepairFromArchive), not the scrub's.
  for (Segment& seg : segments_) {
    if (!seg.archive.has_value()) continue;
    SegmentVerdict verdict{seg.id, seg.first_lsn, seg.last_lsn};
    std::optional<std::vector<LogRecord>> archived = DecodeArchiveCopy(seg);
    if (archived.has_value()) {
      verdict.state = SegmentVerdict::State::kIntact;
      // A retired segment's reads trust its archive copy.
      if (!seg.live) keep(seg, std::move(*archived));
    } else if (seg.live && ReadableSealedRecords(seg) != nullptr) {
      seg.archive = seg.primary;
      ++report.archive_repairs;
      ++stats_.mirror_repairs;
      verdict.state = SegmentVerdict::State::kRepairedFromMirror;
    } else {
      verdict.state = SegmentVerdict::State::kHole;
      ++report.archive_holes;
    }
    report.archive_verdicts.push_back(verdict);
  }
  return report;
}

core::Lsn LogManager::FirstHoleLsn() const {
  for (const Segment& seg : segments_) {
    if (!seg.live || !seg.sealed) continue;
    if (ReadableSealedRecords(seg) == nullptr) return seg.first_lsn;
  }
  return 0;
}

core::Lsn LogManager::FirstUncoveredLsn(core::Lsn from) const {
  core::Lsn expected = from;
  for (const Segment& seg : segments_) {
    if (expected > stable_lsn_) break;
    // The active segment covers only its verified records.
    const core::Lsn first =
        seg.sealed ? seg.first_lsn
                   : (seg.records.empty() ? 0 : seg.records.front().lsn);
    const core::Lsn last =
        seg.sealed ? seg.last_lsn
                   : (seg.records.empty() ? 0 : seg.records.back().lsn);
    if (first == 0 || last < expected) continue;
    if (expected < first) return expected;  // no segment covers it
    std::optional<std::vector<LogRecord>> archived;
    const std::vector<LogRecord>* records =
        seg.sealed ? ReadableSealedRecords(seg) : &seg.records;
    if (records == nullptr && seg.live) {
      archived = DecodeArchiveCopy(seg);
      if (archived.has_value()) records = &*archived;
    }
    if (records == nullptr) return expected;
    for (const LogRecord& record : *records) {
      if (record.lsn < expected) continue;
      if (record.lsn != expected) return expected;
      ++expected;
    }
  }
  return expected <= stable_lsn_ ? expected : 0;
}

size_t LogManager::Retire(size_t index) {
  Segment& seg = segments_[index];
  ForgetCheckpoints(seg.id);
  if (!seg.archive.has_value()) {
    segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(index));
    return index;
  }
  seg.live = false;
  seg.primary = SegmentCopy{};
  seg.mirror = SegmentCopy{};
  seg.records.clear();
  return index + 1;
}

void LogManager::ForgetCheckpoints(uint64_t id) {
  std::erase_if(checkpoints_, [id](const CheckpointOffset& checkpoint) {
    return checkpoint.segment_id == id;
  });
}

size_t LogManager::TruncateArchived(core::Lsn upto) {
  // Never truncate the latest stable checkpoint (or anything after it).
  if (checkpoints_.empty()) return 0;
  const core::Lsn cap = std::min(upto, checkpoints_.back().lsn - 1);
  size_t retired = 0;
  for (size_t i = 0; i < segments_.size();) {
    const Segment& seg = segments_[i];
    if (!seg.live) {
      ++i;
      continue;
    }
    if (!seg.sealed || seg.first_lsn == 0 || seg.last_lsn > cap) break;
    if (!seg.archive.has_value()) break;  // unarchived: must stay
    i = Retire(i);
    ++retired;
  }
  stats_.segments_truncated += retired;
  RefreshStableBytes();
  return retired;
}

size_t LogManager::RepairFromArchive() {
  size_t repaired = 0;
  for (Segment& seg : segments_) {
    if (!seg.live || !seg.sealed) continue;
    if (ReadableSealedRecords(seg) != nullptr) continue;
    std::optional<std::vector<LogRecord>> records = DecodeArchiveCopy(seg);
    if (!records.has_value()) continue;
    seg.primary = *seg.archive;
    seg.mirror = *seg.archive;
    seg.records = std::move(*records);
    seg.records_valid = true;
    ++repaired;
    ++stats_.archive_repairs;
  }
  return repaired;
}

size_t LogManager::DropUnreadableThrough(core::Lsn covered_lsn) {
  size_t retired = 0;
  for (size_t i = 0; i < segments_.size();) {
    const Segment& seg = segments_[i];
    if (!seg.live || !seg.sealed || seg.first_lsn == 0 ||
        seg.last_lsn > covered_lsn || ReadableSealedRecords(seg) != nullptr ||
        DecodeArchiveCopy(seg).has_value()) {
      ++i;
      continue;
    }
    i = Retire(i);
    ++retired;
    ++stats_.segments_amputated;
  }
  RefreshStableBytes();
  return retired;
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
    ForgetCheckpoints(seg.id);
    verified_prefix_ = 0;
    const bool only_live = std::none_of(
        segments_.begin(), segments_.end() - 1,
        [](const Segment& earlier) { return earlier.live; });
    if (drop == 0 || only_live) break;
    // The cut consumed the whole active segment: the damage runs into
    // the live segment before it, which is active again. A segment
    // amputated in between lay past the cut.
    do {
      segments_.pop_back();
    } while (!segments_.back().live);
    Segment& prev = segments_.back();
    prev.sealed = false;
    prev.records.clear();
    prev.records_valid = true;
    prev.first_lsn = 0;
    prev.last_lsn = 0;
    ForgetCheckpoints(prev.id);
    // Tail damage voids the archive copy too (the model: the tail was
    // never durably shipped).
    prev.archive.reset();
  }
  RefreshStableBytes();
}

const LogManager::Segment* LogManager::Find(uint64_t id) const {
  // Segment ids grow in log order.
  const auto it = std::lower_bound(
      segments_.begin(), segments_.end(), id,
      [](const Segment& seg, uint64_t target) { return seg.id < target; });
  return it != segments_.end() && it->id == id ? &*it : nullptr;
}

SegmentCopy* LogManager::FindCopy(uint64_t id, LogCopy copy) {
  Segment* seg = Find(id);
  if (seg == nullptr) return nullptr;
  if (copy == LogCopy::kArchive) {
    return seg->archive.has_value() ? &*seg->archive : nullptr;
  }
  if (!seg->live || !seg->sealed) return nullptr;
  return copy == LogCopy::kMirror ? &seg->mirror : &seg->primary;
}

size_t LogManager::LiveBytes() const {
  size_t bytes = 0;
  for (const Segment& seg : segments_) bytes += seg.primary.bytes.size();
  return bytes;
}

bool LogManager::CorruptSegmentByte(uint64_t segment_id, LogCopy copy,
                                    size_t offset, uint8_t xor_mask) {
  SegmentCopy* target = FindCopy(segment_id, copy);
  if (target == nullptr || offset >= target->bytes.size() || xor_mask == 0) {
    return false;
  }
  target->bytes[offset] ^= xor_mask;
  Find(segment_id)->records_valid = false;  // the cache must never mask damage
  return true;
}

bool LogManager::LoseSegmentCopy(uint64_t segment_id, LogCopy copy) {
  SegmentCopy* target = FindCopy(segment_id, copy);
  if (target == nullptr) return false;
  target->lost = true;
  Find(segment_id)->records_valid = false;
  return true;
}

Result<SegmentCopy> LogManager::PeekSegmentCopy(uint64_t segment_id,
                                                LogCopy copy) const {
  // FindCopy is non-const only because it returns a mutable pointer.
  const SegmentCopy* target =
      const_cast<LogManager*>(this)->FindCopy(segment_id, copy);
  if (target == nullptr) {
    return Status::NotFound("no such segment copy: id=" +
                            std::to_string(segment_id));
  }
  return *target;
}

bool LogManager::RestoreSegmentCopy(uint64_t segment_id, LogCopy copy,
                                    const SegmentCopy& image) {
  SegmentCopy* target = FindCopy(segment_id, copy);
  if (target == nullptr) return false;
  *target = image;
  Find(segment_id)->records_valid = false;  // re-derive from the restored bytes
  return true;
}

}  // namespace redo::wal
