// The log manager: a volatile log tail over segmented, mirrored,
// scrubbable stable storage.
//
// Appends go to the volatile tail. Force(lsn) moves records up to lsn to
// stable storage (serialized + checksummed, modeling the disk format).
// A crash discards the volatile tail; stable records survive and can be
// scanned by recovery. The write-ahead-log protocol is enforced by the
// buffer pool calling Force before flushing a page (§7: "the write-ahead
// log protocol requires an operation's log record be forced to disk
// before the operation's effects are written to disk").
//
// Stable layout: the log body is one list of *segments* in log order.
// The last segment is the active one — an append-only byte stream
// subject to torn-tail salvage. Once the active segment reaches
// `segment_bytes`, it is *sealed* at a record boundary: its LSN range
// is fixed, it gains its *archive* copy (continuous log archiving), and
// a fresh active segment begins.
// So a segment carries up to three copies of the same bytes: a primary
// and a mirror while it belongs to the live log (mid-stream damage to
// one is repairable from the other), and an archive copy from its seal
// on. Checkpoint truncation and amputation *retire* a segment: it loses
// its live copies and stays listed while its archive copy exists. An
// ordinary read trusts the live copies of a live segment and the
// archive copy of a retired one; only the coverage check and the repair
// (FirstUncoveredLsn, RepairFromArchive) read a live segment's archive
// copy. A sealed copy is *intact* when every frame decodes and its
// LSNs run from the segment's first to its last without a gap
// (DecodeSealedCopy, the one test every reader and Scrub apply).
//
// Failure model (the log body is NOT assumed incorruptible):
//  - torn tail: a crash can interrupt an in-flight force, leaving a
//    byte-granular prefix of the force on the active segment. Per-record
//    framing (length prefix + CRC32C) makes the damage evident;
//    SalvageTornTail truncates at the last valid record.
//  - bit rot: a byte of a sealed segment copy decays; its frame's
//    CRC32C makes it evident. Scrub repairs the copy from its intact twin.
//  - lost segment: a whole segment copy becomes unreadable (lost file,
//    dead device). Repairable from the mirror, else from the archive.
// A segment with NO intact copy is a *hole*. Recovery must never scan
// past a hole — redo requires an unbroken record prefix — so holes force
// the degradation ladder (engine/degraded_recovery.h): media recovery
// from a backup plus the archive suffix, or a loud, diagnosed refusal.

// Group commit (concurrent mode): StartGroupCommit spawns a committer
// thread and switches Append/CommitWait into a pipelined mode — each
// appender adds its record (encoded once, under the log mutex, as every
// append is) to a bounded queue of pending records and returns
// immediately; commit callers block in CommitWait; the committer makes
// the whole batch stable with ONE force (the same CRC-framed bytes as
// the serial path, so stable images are indistinguishable), then wakes
// every waiter whose LSN the force covered. The committer holds the log
// mutex for the whole force, simulated device latency included, at
// every I/O queue depth. FreezeGroupCommit models the crash boundary:
// it waits for a force already holding the log, then stops the
// committer, and unacknowledged CommitWaits fail — exactly the commits
// a recovery oracle must NOT find guaranteed durable.

#ifndef REDO_WAL_LOG_MANAGER_H_
#define REDO_WAL_LOG_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "wal/log_record.h"

namespace redo::wal {

/// Configuration for the stable log's segmentation. Every live segment
/// is mirrored and every sealed segment is archived.
struct LogManagerOptions {
  /// Seal the active segment once it reaches this many bytes; 0 means
  /// never seal (one unbounded active segment — the PR-1 behavior).
  size_t segment_bytes = 0;
};

/// Which physical copy of a segment an operation targets.
enum class LogCopy { kPrimary, kMirror, kArchive };

/// Configuration of the group-commit pipeline (StartGroupCommit).
struct GroupCommitOptions {
  /// The most records that may wait for a force. An appender that
  /// finds this many pending blocks until the committer forces them.
  size_t ring_capacity = 256;
  /// The longest a commit may linger: after the first pending commit
  /// request the committer waits up to this long, collecting more
  /// requests into the same force. The window closes early once every
  /// live session (`live_sessions`) waits on a commit no force has
  /// covered yet, since no further commit could join it.
  uint64_t window_us = 100;
  /// Simulated stable-write latency charged per force while group
  /// commit is active (modeling a device fsync), with the log mutex
  /// held. 0 = no delay.
  uint64_t force_latency_us = 0;
  /// The engine's count of live sessions, which the committer reads to
  /// close a window early. Not owned; it must outlive the pipeline. Null
  /// (a log driven without sessions) keeps every window its full length.
  const std::atomic<int>* live_sessions = nullptr;
};

/// Log manager counters.
struct LogStats {
  uint64_t appends = 0;
  uint64_t forces = 0;
  uint64_t forced_records = 0;
  uint64_t stable_bytes = 0;  ///< live primary bytes (all live segments)
  // Fault-model counters.
  uint64_t torn_forces = 0;            ///< in-flight forces torn by a crash
  uint64_t torn_tail_truncations = 0;  ///< salvages that found tail damage
  uint64_t torn_bytes_dropped = 0;     ///< damaged bytes discarded by salvage
  uint64_t salvaged_records = 0;       ///< unacknowledged records recovered whole
  uint64_t checkpoint_cache_hits = 0;  ///< LatestStableCheckpoint O(1) lookups
  uint64_t checkpoint_full_scans = 0;  ///< LatestStableCheckpoint slow paths
  // Segment / mirror / archive counters.
  uint64_t segments_sealed = 0;
  uint64_t segments_archived = 0;
  uint64_t segments_truncated = 0;  ///< sealed segments dropped from the live log
  uint64_t segments_amputated = 0;  ///< unreadable segments dropped under backup cover
  uint64_t scrub_passes = 0;
  uint64_t mirror_repairs = 0;   ///< copies rebuilt from their intact twin
  uint64_t archive_repairs = 0;  ///< live segments rebuilt from the archive
  // Parsed-record cache (scans and lookups read it instead of
  // re-deserializing the stable image).
  uint64_t scan_cache_hits = 0;  ///< segments served from the parsed cache
  uint64_t scan_decodes = 0;     ///< sealed copies decoded: by a read on a
                                 ///< cold/invalid cache, and by Scrub
  uint64_t stable_visits = 0;    ///< VisitStable passes (copying scans included)
  // Group-commit counters.
  uint64_t group_commits = 0;      ///< CommitWait calls acknowledged
  uint64_t group_batches = 0;      ///< committer forces (one per batch)
  uint64_t group_max_batch = 0;    ///< most commits one force acknowledged
                                   ///< (a high-water mark: emitted as a gauge)
  uint64_t group_ring_stalls = 0;  ///< appender waits on a full pending queue
  uint64_t group_early_closes = 0;  ///< windows that ended because every
                                    ///< live session had joined

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;
};

/// Where one tolerant scan over the stable log stopped.
struct ScanExtent {
  bool torn = false;             ///< damage found after the valid prefix
  core::Lsn last_valid_lsn = 0;  ///< LSN of the last decodable record (0 if none)
};

/// Result of SalvageTornTail.
struct SalvageResult {
  bool torn = false;             ///< damage was found and truncated
  size_t dropped_bytes = 0;      ///< damaged bytes removed from the image
  size_t salvaged_records = 0;   ///< complete unacknowledged records recovered
  core::Lsn stable_lsn_before = 0;
  core::Lsn stable_lsn_after = 0;
};

/// Metadata of one segment, for inspectors and tests.
struct SegmentInfo {
  uint64_t id = 0;
  core::Lsn first_lsn = 0;  ///< 0 while the segment holds no records
  core::Lsn last_lsn = 0;
  bool sealed = false;
  size_t bytes = 0;             ///< primary copy size
  bool archived = false;        ///< an archive copy exists
};

/// One segment's scrub verdict.
struct SegmentVerdict {
  uint64_t id = 0;
  core::Lsn first_lsn = 0;
  core::Lsn last_lsn = 0;
  enum class State {
    kIntact,              ///< both copies verified
    kRepairedFromMirror,  ///< primary rebuilt from the mirror
    kMirrorRebuilt,       ///< mirror rebuilt from the primary
    kHole,                ///< no intact copy — unreadable
  } state = State::kIntact;
};

/// Short stable name of a scrub verdict state ("intact", "hole", ...).
const char* SegmentVerdictStateName(SegmentVerdict::State state);

/// Report of one scrub pass over the sealed live segments (and the
/// archive, which is verified and — where a live twin is intact —
/// repaired too).
struct ScrubReport {
  size_t segments = 0;  ///< sealed live segments examined
  size_t repairs = 0;   ///< live copies rebuilt from their twin
  size_t holes = 0;     ///< live segments with no intact copy
  size_t archive_repairs = 0;
  size_t archive_holes = 0;
  core::Lsn first_unreadable_lsn = 0;  ///< first LSN of the first live hole
  std::vector<SegmentVerdict> verdicts;          ///< live segments
  std::vector<SegmentVerdict> archive_verdicts;  ///< archived segments
  bool clean() const { return holes == 0; }
};

/// One physical copy of a segment's bytes. Fault injectors snapshot
/// copies to undo their damage (the offsite-restore model).
struct SegmentCopy {
  std::vector<uint8_t> bytes;
  bool lost = false;
};

class LogManager {
 public:
  LogManager() : LogManager(LogManagerOptions{}) {}
  explicit LogManager(const LogManagerOptions& options);
  ~LogManager();

  /// Appends a record to the volatile tail, encoding its frame; assigns
  /// and returns its LSN (monotonically increasing from 1). Thread-safe.
  /// While group commit is active it blocks when `ring_capacity` records
  /// already wait for a force (backpressure).
  core::Lsn Append(RecordType type, std::vector<uint8_t> payload);

  /// Appends a record whose payload must embed its own LSN (a page
  /// image tagging the page it describes). `encode` runs under the log
  /// mutex with the record's assigned LSN, making LSN assignment and
  /// payload encoding atomic with respect to concurrent appenders. The
  /// callback must be quick and must not call back into the log.
  core::Lsn AppendWithLsn(
      RecordType type,
      const std::function<std::vector<uint8_t>(core::Lsn)>& encode);

  /// Makes every record with lsn <= `upto` stable. Forcing beyond the
  /// last appended LSN is allowed (forces everything). Seals the active
  /// segment (and archives it) whenever it fills past `segment_bytes`.
  /// Thread-safe.
  Status Force(core::Lsn upto);

  /// Forces the entire log.
  Status ForceAll() {
    return Force(std::numeric_limits<core::Lsn>::max());
  }

  /// LSN of the last appended record (0 if none).
  core::Lsn last_lsn() const { return last_lsn_.load(); }

  /// LSN of the last *stable* record (0 if none).
  core::Lsn stable_lsn() const { return stable_lsn_.load(); }

  /// Discards the volatile tail (the crash). Stable records survive.
  /// A running group-commit pipeline is frozen and joined first: the
  /// crash takes the committer with it.
  void Crash();

  // ---- Group commit ----

  /// Starts the group-commit pipeline: a committer thread that batches
  /// pending records into one force per commit window. Any records
  /// already pending are forced first, so the pipeline starts with an
  /// empty queue. Fails if the pipeline is already running.
  Status StartGroupCommit(const GroupCommitOptions& options);

  /// Drains and stops the pipeline cleanly: everything appended is
  /// forced, every waiter is acknowledged, the committer joins.
  Status StopGroupCommit();

  /// The crash boundary: stops the committer WITHOUT starting another
  /// force. A force that already holds the log finishes whole first, and
  /// its waiters are acknowledged; a freeze never tears a force
  /// (TearInFlightForce models that). Pending records that no force
  /// covered stay volatile (a following Crash() discards them) and the
  /// remaining CommitWait callers fail with kUnavailable — their commits
  /// were never acknowledged. Idempotent.
  void FreezeGroupCommit();

  bool group_commit_active() const { return gc_active_.load(); }

  /// Who waits in CommitWait. Only a session's wait counts toward
  /// closing the commit window early: the window waits for the live
  /// sessions, and a checkpoint is not one of them.
  enum class Waiter : uint8_t { kOther, kSession };

  /// Blocks until every record with lsn <= `lsn` is stable (group mode:
  /// woken by the committer at the batch force; serial mode: forces
  /// synchronously). Returns the stable LSN at acknowledgment, or
  /// kUnavailable if the pipeline froze first — the caller must treat
  /// the commit as NOT durable.
  Result<core::Lsn> CommitWait(core::Lsn lsn, Waiter waiter = Waiter::kOther);

  /// Called once per record by VisitStable; a non-Ok result stops the
  /// scan and becomes its result.
  using StableVisitor = std::function<Status(const LogRecord&)>;

  /// The one scan body. Visits stable records with lsn >= `from`, in LSN
  /// order and in place (nothing is copied), verifying integrity, in one
  /// walk of the segment list. Sealed segments wholly below `from` are
  /// skipped by metadata; segments in range are read through the parsed
  /// cache from the copies an ordinary read trusts (a live segment's
  /// primary, then its mirror). Retired segments are read, from their
  /// archive copies, only as the prefix below the live log when `from`
  /// precedes it; one amputated from inside the live range is not read.
  /// Damage with no trusted copy is NOT an error: the scan visits the
  /// valid prefix, stops at the damage and reports `torn` (recovery must
  /// never trust bytes past a hole, so a restart refuses a torn visit,
  /// but damage must never make the valid prefix unreadable). Returns
  /// where the valid prefix ends, or the first error `visit` returned.
  /// `visit` must not append to the log or move records onto it: a
  /// force with nothing pending (a page flush while redo replays inside
  /// the visit, after the crash dropped the tail) is fine.
  Result<ScanExtent> VisitStable(core::Lsn from,
                                 const StableVisitor& visit) const;

  /// The records VisitStable visits from `from`, copied out (the valid
  /// prefix: damage ends them, as it ends the visit).
  Result<std::vector<LogRecord>> StableRecords(core::Lsn from) const;

  /// Point lookup of one stable record, following the scan's rules:
  /// below the live log it reads the archive, it refuses any LSN at or
  /// past a hole in the part of the log it reads — the archive prefix
  /// or the live log — with kCorruption naming the hole, as a scan
  /// stops there, and it tolerantly decodes an unverified active tail.
  /// Only the segment holding `lsn` is read; an earlier segment whose
  /// parsed cache is valid is known readable without a read. kNotFound
  /// for an LSN above stable_lsn() or absent from the log. The record
  /// comes back by value: a Force between two lookups may seal the
  /// active segment and move its cache.
  Result<LogRecord> StableRecordAt(core::Lsn lsn) const;

  /// Truncates the active segment at the last valid record, making tail
  /// damage permanent and acknowledged: stable_lsn() afterwards is the
  /// LSN of the last decodable record, which may be *higher* than before
  /// (complete records of a torn in-flight force are salvaged) or lower
  /// (an acknowledged-but-later-damaged tail is dropped — only the
  /// CorruptStableTail test hook can produce that). Must be called with
  /// an empty volatile tail (i.e. after Crash()); recovery calls it
  /// before any redo scan.
  SalvageResult SalvageTornTail();

  /// The latest stable checkpoint record, if any. O(1) when the active
  /// segment is fully verified: checkpoint locations are cached at force
  /// time; a tolerant full scan is the fallback while unverified tail
  /// bytes exist.
  Result<std::optional<LogRecord>> LatestStableCheckpoint() const;

  const LogStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LogStats{}; }

  /// Registers the log's counters plus live-segment gauges as a source
  /// named `prefix`.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "wal");

  /// Attaches a size histogram that Append observes with each record's
  /// payload size (nullptr detaches). Not owned.
  void set_append_size_histogram(obs::Histogram* histogram) {
    append_size_histogram_ = histogram;
  }

  /// Commit-latency attribution: where a CommitWait's time went. All
  /// pointers optional, not owned; observed in microseconds under mu_.
  struct CommitLatencyHistograms {
    /// Append blocked on a full pending queue (backpressure).
    obs::Histogram* stage_wait_us = nullptr;
    /// One force — the write+seal work plus any simulated device
    /// latency, serial or group-commit.
    obs::Histogram* force_us = nullptr;
    /// CommitWait blocked on the committer's durability signal (group
    /// mode only; serial CommitWait forces inline, so its wait IS the
    /// force).
    obs::Histogram* ack_wait_us = nullptr;
  };
  void set_commit_latency_histograms(CommitLatencyHistograms histograms) {
    commit_latency_ = histograms;
  }

  /// Encoded size of the not-yet-forced records — the most bytes an
  /// in-flight force torn by a crash could leave behind.
  size_t PendingForceBytes() const;

  // ---- Segments, scrub, archive ----

  /// Seals the active segment now (if it holds any verified records)
  /// and archives it. Returns true if a seal happened.
  /// Useful at clean points (backups) so the whole acked log is sealed.
  bool SealActiveSegment();

  /// Metadata of every live segment, in log order (last = active).
  std::vector<SegmentInfo> LiveSegments() const;

  /// Metadata of every segment's archive copy, in log order (`bytes`
  /// is the archive copy's size).
  std::vector<SegmentInfo> ArchivedSegments() const;

  /// First LSN still present in the live log (0 if the live log is
  /// empty). Records below it live only in the archive.
  core::Lsn live_begin_lsn() const;

  /// Last LSN covered by the archive (0 if no segment was archived).
  core::Lsn archived_through() const;

  /// One scrub pass: decodes both copies of every sealed live segment,
  /// repairs a damaged copy from its intact twin, and reports the
  /// segments with no intact copy (holes). Also decodes the archive,
  /// rebuilding an archive copy whose live twin is readable. What it
  /// decoded fills the parsed cache.
  ScrubReport Scrub();

  /// First LSN of the first live segment with no intact copy; 0 when the
  /// live log is readable end-to-end. Recovery must refuse to run while
  /// this is nonzero (it would silently replay a truncated prefix).
  core::Lsn FirstHoleLsn() const;

  /// First LSN >= `from` that no intact source can produce — a
  /// segment's trusted copies, else a live segment's archive copy — in
  /// one forward walk; 0 if the range [from, stable_lsn] is fully
  /// covered (RepairFromArchive can then make the live log whole).
  core::Lsn FirstUncoveredLsn(core::Lsn from) const;

  /// Checkpoint truncation: retires the live log's leading sealed
  /// segments whose records are all <= `upto`, provided they are
  /// archived and precede the latest stable checkpoint record. Their
  /// archive copies remain. Returns the number of segments retired.
  /// The log cannot decode a checkpoint's redo start, which a fuzzy
  /// checkpoint may put below its record: this cap alone does not keep
  /// a restart's scan start live. engine::TruncateLog caps there too.
  size_t TruncateArchived(core::Lsn upto);

  /// Rebuilds every unreadable live segment whose archive copy is
  /// intact. Returns the number of segments repaired.
  size_t RepairFromArchive();

  /// Retires (amputates) unreadable live sealed segments whose records
  /// are all <= `covered_lsn` (a backup covers their effects) and that
  /// no intact source can rebuild. Rung 2 runs it before media recovery
  /// so the live log is gap-free *above* the backup point again. Returns
  /// the number of segments retired.
  size_t DropUnreadableThrough(core::Lsn covered_lsn);

  // ---- Fault hooks (log-media damage) ----

  /// Fault hook: models a crash interrupting a force of the entire
  /// volatile tail after only `bytes` bytes reached stable storage. The
  /// partial bytes are appended *unacknowledged*: stable_lsn() does not
  /// move until SalvageTornTail() decides which of them form complete
  /// records. Call Crash() afterwards, as a real crash would follow.
  /// Returns the number of bytes actually appended.
  size_t TearInFlightForce(size_t bytes);

  /// Test hook: truncates the stable byte image to simulate tail damage
  /// discovered after acknowledgement (consuming sealed segments if the
  /// cut runs past the active one). Recovery must stop at the damage.
  void CorruptStableTail(size_t drop_bytes);

  /// Fault hook: XORs one byte of a segment copy (bit rot). Returns
  /// false if the segment/copy does not exist or the offset is out of
  /// range.
  bool CorruptSegmentByte(uint64_t segment_id, LogCopy copy, size_t offset,
                          uint8_t xor_mask);

  /// Fault hook: marks a whole segment copy unreadable (lost file).
  bool LoseSegmentCopy(uint64_t segment_id, LogCopy copy);

  /// Snapshot of a segment copy, so injectors can undo their damage.
  Result<SegmentCopy> PeekSegmentCopy(uint64_t segment_id,
                                      LogCopy copy) const;

  /// Restores a segment copy from a snapshot (the offsite-restore
  /// model). Returns false if the segment no longer exists.
  bool RestoreSegmentCopy(uint64_t segment_id, LogCopy copy,
                          const SegmentCopy& image);

 private:
  /// One record waiting for a force, with its wire frame (EncodeRecord),
  /// encoded once at append.
  struct PendingRecord {
    LogRecord record;
    std::vector<uint8_t> frame;
  };

  /// One log segment. While `live` it holds a primary and a mirror;
  /// from its seal on it also holds an archive copy. A retired segment
  /// (not `live`) holds only its archive copy. The parsed-record cache
  /// (`records`) holds records decoded from the copies an ordinary read
  /// trusts (TrustedCopies): for sealed segments the whole segment
  /// (invalidated by fault hooks, rebuilt by decode); for the active
  /// segment the bytes in [0, verified_prefix_).
  struct Segment {
    uint64_t id = 0;
    core::Lsn first_lsn = 0;
    core::Lsn last_lsn = 0;
    bool sealed = false;
    bool live = true;
    SegmentCopy primary;
    SegmentCopy mirror;
    std::optional<SegmentCopy> archive;
    mutable std::vector<LogRecord> records;
    mutable bool records_valid = true;
  };

  /// A forced checkpoint record's location.
  struct CheckpointOffset {
    uint64_t segment_id;
    core::Lsn lsn;
  };

  Segment& active() { return segments_.back(); }
  const Segment& active() const { return segments_.back(); }

  void StartNewActive();
  void SealActive();

  /// The one retire step (truncation, amputation): drops segment
  /// `index`'s live copies, its checkpoint offsets and its parsed cache,
  /// which was parsed from the live copies. It stays listed while its
  /// archive copy exists and leaves the list otherwise. Returns the
  /// index of the segment after it.
  size_t Retire(size_t index);

  /// Drops the cached checkpoint locations in segment `id`.
  void ForgetCheckpoints(uint64_t id);

  /// The one test of an intact sealed copy: its records, if `copy`
  /// exists, is not lost, every frame decodes, and the LSNs run from the
  /// segment's first to its last without a gap; nullopt otherwise.
  std::optional<std::vector<LogRecord>> DecodeSealedCopy(
      const Segment& segment, const SegmentCopy* copy) const;

  /// The copies of `segment` an ordinary read trusts, in the order it
  /// tries them: primary then mirror while the segment is live, its
  /// archive copy once it is retired. Unused slots are null.
  static std::array<const SegmentCopy*, 2> TrustedCopies(
      const Segment& segment);

  /// The records of a sealed segment from the first of its trusted
  /// copies that decodes; nullptr if the segment is a hole. Refills the
  /// parsed cache.
  const std::vector<LogRecord>* ReadableSealedRecords(
      const Segment& segment) const;

  /// A read of `segment`'s archive copy (DecodeSealedCopy). Leaves the
  /// parsed cache alone — while the segment is live the cache holds only
  /// its live copies' records.
  std::optional<std::vector<LogRecord>> DecodeArchiveCopy(
      const Segment& segment) const;

  /// The one decoder of unverified bytes (a scan, a lookup and salvage
  /// read the active segment's tail through it): decodes `segment`'s
  /// primary frame by frame from byte `offset`, handing each record to
  /// `on_record(LogRecord&&)`, until the bytes end, a frame does not
  /// decode, or `on_record` returns false. Returns the offset past the
  /// last record decoded.
  template <typename OnRecord>
  size_t DecodeTail(const Segment& segment, size_t offset,
                    OnRecord&& on_record) const;

  /// Whether a scan or lookup reaching back to `from` reads `segment`:
  /// every live segment, and a retired one only as part of the prefix
  /// below the live log (which begins at `live_begin`, 0 if empty), when
  /// `from` precedes the live log.
  static bool Reads(const Segment& segment, core::Lsn from,
                    core::Lsn live_begin);

  /// The listed segment with `id`, live or retired; nullptr if none.
  const Segment* Find(uint64_t id) const;
  Segment* Find(uint64_t id) {
    return const_cast<Segment*>(std::as_const(*this).Find(id));
  }
  /// Segment `id`'s `copy` where it exists — a live copy of a sealed live
  /// segment, or an archive copy; nullptr otherwise.
  SegmentCopy* FindCopy(uint64_t id, LogCopy copy);

  size_t LiveBytes() const;
  void RefreshStableBytes() { stats_.stable_bytes = LiveBytes(); }

  /// The body of Force, assuming `mu_` is held: copies each pending
  /// frame up to `upto` into the active segment and moves its record
  /// into the parsed cache, then credits every waiting commit it
  /// covers (whichever caller forced). Group mode charges the simulated
  /// device latency here, with the mutex held.
  Status ForceLocked(core::Lsn upto);

  /// The committer thread: waits for commit requests, a full pending
  /// queue (backpressure drains, it never deadlocks), or shutdown;
  /// collects a window's worth, forces once.
  void CommitterLoop();

  /// True once every live session waits on a commit no force has
  /// covered yet (always false without the engine's session count).
  /// Caller holds `mu_`.
  bool EverySessionJoined() const;

  /// Stops the committer thread (joining it). With `freeze` the
  /// pipeline halts without a final force and pending waiters fail;
  /// without, everything pending is forced and acknowledged first.
  void HaltGroupCommit(bool freeze);

  LogManagerOptions options_;
  std::atomic<core::Lsn> last_lsn_{0};
  std::atomic<core::Lsn> stable_lsn_{0};
  uint64_t next_segment_id_ = 1;
  std::vector<PendingRecord> volatile_tail_;  // records with lsn > stable_lsn_
  std::vector<Segment> segments_;  // log order; last = active (never sealed)
  size_t verified_prefix_ = 0;  // bytes of the ACTIVE segment known to decode
  std::vector<CheckpointOffset> checkpoints_;  // in LSN order
  mutable LogStats stats_;
  obs::Histogram* append_size_histogram_ = nullptr;  // not owned
  CommitLatencyHistograms commit_latency_;           // not owned

  // Concurrency. `mu_` guards every mutable field above. The serial
  // paths (recovery, scans, scrub, fault hooks) run single-threaded by
  // contract and stay lock-free; Append/Force/CommitWait and the
  // committer always lock.
  mutable std::mutex mu_;
  std::condition_variable committer_cv_;  // work for the committer
  std::condition_variable room_cv_;       // pending records forced
  std::condition_variable durable_cv_;    // stable_lsn_ advanced / frozen
  std::thread committer_;
  GroupCommitOptions gc_options_;
  std::atomic<bool> gc_active_{false};
  bool gc_frozen_ = false;  // sticky until the next StartGroupCommit
  bool gc_stop_ = false;
  core::Lsn commit_requested_ = 0;   // highest LSN a CommitWait asked for
  // Group-mode CommitWaits no force has covered yet: the window counts
  // these, and the force that covers one acknowledges and credits it.
  struct WaitingCommit {
    core::Lsn lsn;
    Waiter waiter;
  };
  std::vector<WaitingCommit> waiting_commits_;
};

}  // namespace redo::wal

#endif  // REDO_WAL_LOG_MANAGER_H_
