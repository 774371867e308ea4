// A recovery debugger: runs a workload, crashes, and dumps everything a
// recovery engineer would want to see at the crash point — the stable
// log with record types and sizes, the segment map (boundaries,
// archive status) with scrub verdicts, the checkpoint and its
// dirty page table, per-page LSN tags vs. the redo scan, the redo test's
// verdict per record, and the formal checker's invariant report.
//
// After the serial crash point, a second, transactional phase runs a
// winner / a runtime abort / an open loser through the concurrent front
// end and crashes mid-transaction: the dump then shows the analysis
// pass's winners/losers table and the CLR chains (lsn -> undo_next) on
// the stable log, followed by the undo pass's verdict.
//
// With `--json`, emits the same crash-point inspection as one JSON
// document (segment map, scrub verdicts, checkpoint DPT,
// page LSN tags, recovery outcome, transaction table, CLR chains) —
// parseable by `python3 -m json.tool`, which is exactly what CI runs
// against it.
//
// Usage: log_inspector [--json] [method] [actions] [seed]
// `method` is one of methods::MethodKindName's six names (default
// physiological); any other name prints them and exits 2. `actions`
// (default 60) is a positive integer and `seed` (default 12) a
// non-negative one; anything else, or an extra argument, prints the
// usage line and exits 2.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checker/recovery_checker.h"
#include "engine/txn.h"
#include "obs/json_writer.h"
#include "wal/log_manager.h"
#include "engine/workload.h"
#include "methods/analysis.h"
#include "methods/txn_recovery.h"

namespace {

using namespace redo;

constexpr const char* kUsage =
    "usage: log_inspector [--json] [method] [actions] [seed]\n";

int Usage(const std::string& complaint) {
  std::fprintf(stderr, "log_inspector: %s\n%s", complaint.c_str(), kUsage);
  return 2;
}

// A decimal number: digits only, so "x" or "2x" is refused instead of
// silently parsing as 0 (or 2).
bool ParseNumber(const char* text, uint64_t* out) {
  if (*text == '\0' ||
      std::strspn(text, "0123456789") != std::strlen(text)) {
    return false;
  }
  errno = 0;
  *out = std::strtoull(text, nullptr, 10);
  return errno != ERANGE;
}

void PrintSegments(const char* label, const std::vector<wal::SegmentInfo>& segments) {
  for (const wal::SegmentInfo& seg : segments) {
    std::printf("  %s seg %llu: lsn [%llu, %llu], %zu bytes, %s%s\n", label,
                (unsigned long long)seg.id, (unsigned long long)seg.first_lsn,
                (unsigned long long)seg.last_lsn, seg.bytes,
                seg.sealed ? "sealed" : "active",
                seg.archived ? ", archived" : "");
  }
}

void EmitSegmentsJson(obs::JsonWriter& w,
                      const std::vector<wal::SegmentInfo>& segments) {
  w.BeginArray();
  for (const wal::SegmentInfo& seg : segments) {
    w.BeginObject();
    w.Key("id");
    w.UInt(seg.id);
    w.Key("first_lsn");
    w.UInt(seg.first_lsn);
    w.Key("last_lsn");
    w.UInt(seg.last_lsn);
    w.Key("bytes");
    w.UInt(seg.bytes);
    w.Key("sealed");
    w.Bool(seg.sealed);
    w.Key("archived");
    w.Bool(seg.archived);
    w.EndObject();
  }
  w.EndArray();
}

void EmitVerdictsJson(obs::JsonWriter& w,
                      const std::vector<wal::SegmentVerdict>& verdicts) {
  w.BeginArray();
  for (const wal::SegmentVerdict& verdict : verdicts) {
    w.BeginObject();
    w.Key("segment");
    w.UInt(verdict.id);
    w.Key("first_lsn");
    w.UInt(verdict.first_lsn);
    w.Key("last_lsn");
    w.UInt(verdict.last_lsn);
    w.Key("state");
    w.String(wal::SegmentVerdictStateName(verdict.state));
    w.EndObject();
  }
  w.EndArray();
}

// Stages the transactional crash point on a recovered engine: a
// committed winner, a runtime abort (whose CLRs reach the stable log),
// and a transaction still open at the crash — the loser analysis must
// find. The loser's records are forced by the winner's later commit.
void StageTxnCrash(engine::MiniDb& db) {
  REDO_CHECK(db.BeginConcurrent().ok());
  engine::MiniDb::Session loser = db.NewSession();
  REDO_CHECK(loser.Begin().ok());
  REDO_CHECK(loser.WriteSlot(4, 0, 3001).ok());
  REDO_CHECK(loser.WriteSlot(5, 0, 3002).ok());
  {
    engine::MiniDb::Session aborted = db.NewSession();
    REDO_CHECK(aborted.Begin().ok());
    REDO_CHECK(aborted.WriteSlot(3, 0, 2001).ok());
    REDO_CHECK(aborted.WriteSlot(3, 1, 2002).ok());
    REDO_CHECK(aborted.Abort().ok());
    engine::MiniDb::Session winner = db.NewSession();
    REDO_CHECK(winner.Begin().ok());
    REDO_CHECK(winner.WriteSlot(2, 0, 1001).ok());
    REDO_CHECK(winner.Commit().ok());
  }
  db.Crash();  // the loser's handle outlives the crash: a true loser
}

struct ClrEntry {
  core::Lsn lsn = 0;
  core::Lsn undo_next = 0;
  size_t actions = 0;
};

// Every CLR on the stable log, grouped per transaction in log order —
// each group reads as the undo_next back-chain of one rollback.
std::map<uint64_t, std::vector<ClrEntry>> CollectClrChains(
    wal::LogManager& log) {
  std::map<uint64_t, std::vector<ClrEntry>> chains;
  Result<std::vector<wal::LogRecord>> records = log.StableRecords(1);
  if (!records.ok()) return chains;
  for (const wal::LogRecord& record : records.value()) {
    if (record.type != wal::RecordType::kClr) continue;
    Result<engine::Clr> clr = engine::DecodeClr(record.payload);
    if (!clr.ok()) continue;
    chains[clr.value().txn_id].push_back(
        {record.lsn, clr.value().undo_next, clr.value().actions.size()});
  }
  return chains;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  if (argc > 1 && std::strcmp(argv[1], "--json") == 0) {
    json = true;
    --argc;
    ++argv;
  }
  const std::optional<methods::MethodKind> kind =
      argc > 1 ? methods::ParseMethodKind(argv[1])
               : methods::MethodKind::kPhysiological;
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown method '%s'; one of:", argv[1]);
    for (const methods::MethodKind k : methods::kMethodKinds) {
      std::fprintf(stderr, " %s", methods::MethodKindName(k));
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  uint64_t actions = 60;
  uint64_t seed = 12;
  if (argc > 2 && (!ParseNumber(argv[2], &actions) || actions == 0)) {
    return Usage(std::string("'") + argv[2] +
                 "' is not a positive action count");
  }
  if (argc > 3 && !ParseNumber(argv[3], &seed)) {
    return Usage(std::string("'") + argv[3] + "' is not a seed");
  }
  if (argc > 4) {
    return Usage(std::string("unexpected argument '") + argv[4] + "'");
  }

  engine::MiniDbOptions options;
  options.num_pages = 8;
  // Unbounded cache: the transactional phase below enters the
  // concurrent front end, which forbids eviction under sessions' feet.
  options.cache_capacity = 0;
  // Small segments so the workload seals a few and the segment map below
  // has something to show.
  options.wal.segment_bytes = 256;
  engine::MiniDb db(options, methods::MakeMethod(*kind, {options.num_pages}));
  engine::TraceRecorder trace(db.disk());
  db.Attach(redo::engine::Instrumentation{&trace, nullptr});

  engine::WorkloadOptions wopts;
  wopts.num_pages = options.num_pages;
  engine::Workload workload(wopts, seed);
  Rng rng(seed);
  for (uint64_t i = 0; i < actions; ++i) {
    const engine::Action action = workload.Next();
    const Status st = engine::ExecuteAction(db, action, rng);
    REDO_CHECK(st.ok()) << st.ToString();
  }
  // Leave an unforced tail so the crash is interesting.
  if (db.log().last_lsn() > 3) {
    (void)db.log().Force(db.log().last_lsn() - 3);
  }

  db.Crash();

  if (json) {
    const std::vector<wal::SegmentInfo> live = db.log().LiveSegments();
    const std::vector<wal::SegmentInfo> archived = db.log().ArchivedSegments();
    const wal::ScrubReport scrub = db.log().Scrub();
    const methods::StableCheckpoint checkpoint =
        methods::ReadStableCheckpoint(db.log()).value();
    const core::Lsn scan_start = checkpoint.payload.redo_start;
    const auto& dpt = checkpoint.payload.dpt;
    const checker::CheckResult verdict = checker::CheckCrashState(db, trace);
    const Status recovered = db.Recover();

    obs::JsonWriter w;
    w.BeginObject();
    w.Key("method");
    w.String(db.method().name());
    w.Key("stable_lsn");
    w.UInt(db.log().stable_lsn());
    w.Key("redo_scan_start");
    w.UInt(scan_start);
    w.Key("live_segments");
    EmitSegmentsJson(w, live);
    w.Key("archived_segments");
    EmitSegmentsJson(w, archived);
    // The stable log, record by record, with each record's byte offset
    // within its segment file: segment bytes are exactly the
    // concatenated record encodings, so a cumulative EncodedRecordSize
    // walk restates the physical layout.
    w.Key("stable_log");
    w.BeginArray();
    if (const Result<std::vector<wal::LogRecord>> records =
            db.log().StableRecords(1);
        records.ok()) {
      auto find_segment = [&](core::Lsn lsn) -> const wal::SegmentInfo* {
        for (const wal::SegmentInfo& seg : live) {
          if (seg.first_lsn != 0 && seg.first_lsn <= lsn &&
              lsn <= seg.last_lsn) {
            return &seg;
          }
        }
        for (const wal::SegmentInfo& seg : archived) {
          if (seg.first_lsn != 0 && seg.first_lsn <= lsn &&
              lsn <= seg.last_lsn) {
            return &seg;
          }
        }
        return nullptr;
      };
      std::map<uint64_t, size_t> segment_offsets;
      for (const wal::LogRecord& record : records.value()) {
        const wal::SegmentInfo* seg = find_segment(record.lsn);
        size_t& offset = segment_offsets[seg != nullptr ? seg->id : 0];
        w.BeginObject();
        w.Key("lsn");
        w.UInt(record.lsn);
        w.Key("type");
        w.UInt(static_cast<uint64_t>(record.type));
        w.Key("desc");
        w.String(engine::DescribeRecord(record));
        w.Key("bytes");
        w.UInt(wal::EncodedRecordSize(record));
        w.Key("segment");
        w.UInt(seg != nullptr ? seg->id : 0);
        w.Key("offset");
        w.UInt(offset);
        w.EndObject();
        offset += wal::EncodedRecordSize(record);
      }
    }
    w.EndArray();
    w.Key("scrub");
    w.BeginObject();
    w.Key("segments");
    w.UInt(scrub.segments);
    w.Key("repairs");
    w.UInt(scrub.repairs);
    w.Key("holes");
    w.UInt(scrub.holes);
    w.Key("archive_repairs");
    w.UInt(scrub.archive_repairs);
    w.Key("archive_holes");
    w.UInt(scrub.archive_holes);
    w.Key("first_unreadable_lsn");
    w.UInt(scrub.first_unreadable_lsn);
    w.Key("verdicts");
    EmitVerdictsJson(w, scrub.verdicts);
    w.Key("archive_verdicts");
    EmitVerdictsJson(w, scrub.archive_verdicts);
    w.EndObject();
    w.Key("checkpoint_dirty_page_table");
    w.BeginArray();
    for (const auto& [page, rec_lsn] : dpt) {
      w.BeginObject();
      w.Key("page");
      w.UInt(page);
      w.Key("rec_lsn");
      w.UInt(rec_lsn);
      w.EndObject();
    }
    w.EndArray();
    w.Key("page_lsns");
    w.BeginArray();
    for (storage::PageId p = 0; p < db.num_pages(); ++p) {
      w.UInt(db.disk().PeekPage(p).lsn());
    }
    w.EndArray();
    w.Key("invariant_ok");
    w.Bool(verdict.ok);
    w.Key("recovery");
    w.BeginObject();
    w.Key("ok");
    w.Bool(recovered.ok());
    w.Key("status");
    w.String(recovered.ToString());
    const methods::RedoScanStats& stats = db.redo_scan_stats();
    w.Key("scanned");
    w.UInt(stats.scanned);
    w.Key("replayed");
    w.UInt(stats.replayed);
    w.Key("skipped_without_fetch");
    w.UInt(stats.skipped_without_fetch);
    w.Key("page_fetches");
    w.UInt(stats.page_fetches);
    w.EndObject();

    // The transactional crash point: winners/losers table + CLR chains.
    db.Attach({});
    StageTxnCrash(db);
    methods::EngineContext tctx = db.ctx();
    const Result<methods::TxnAnalysis> analysis =
        methods::AnalyzeTransactions(tctx);
    const std::map<uint64_t, std::vector<ClrEntry>> chains =
        CollectClrChains(db.log());
    const Status txn_recovered = db.Recover();

    w.Key("transactions");
    w.BeginObject();
    w.Key("analysis_ok");
    w.Bool(analysis.ok());
    if (analysis.ok()) {
      w.Key("winners");
      w.BeginArray();
      for (uint64_t txn : analysis.value().winners) w.UInt(txn);
      w.EndArray();
      w.Key("losers");
      w.BeginArray();
      for (const auto& [txn, last_lsn] : analysis.value().losers) {
        w.BeginObject();
        w.Key("txn");
        w.UInt(txn);
        w.Key("last_lsn");
        w.UInt(last_lsn);
        w.EndObject();
      }
      w.EndArray();
      w.Key("max_txn_id");
      w.UInt(analysis.value().max_txn_id);
    }
    w.Key("clr_chains");
    w.BeginArray();
    for (const auto& [txn, clrs] : chains) {
      w.BeginObject();
      w.Key("txn");
      w.UInt(txn);
      w.Key("clrs");
      w.BeginArray();
      for (const ClrEntry& clr : clrs) {
        w.BeginObject();
        w.Key("lsn");
        w.UInt(clr.lsn);
        w.Key("undo_next");
        w.UInt(clr.undo_next);
        w.Key("actions");
        w.UInt(clr.actions);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.Key("undo_recovery");
    w.BeginObject();
    w.Key("ok");
    w.Bool(txn_recovered.ok());
    w.Key("status");
    w.String(txn_recovered.ToString());
    w.Key("losers_undone");
    w.UInt(db.txn_undo_metrics().losers.load());
    w.Key("clrs_emitted");
    w.UInt(db.txn_undo_metrics().clrs_emitted.load());
    w.Key("clrs_skipped");
    w.UInt(db.txn_undo_metrics().clrs_skipped.load());
    w.EndObject();
    w.EndObject();

    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
    return verdict.ok && recovered.ok() && analysis.ok() && txn_recovered.ok()
               ? 0
               : 1;
  }

  std::printf("=== crash point (method: %s) ===\n", db.method().name());
  std::printf("log: last appended lsn lost with the crash; stable through %llu\n",
              (unsigned long long)db.log().stable_lsn());

  std::printf("\n--- log segments ---\n");
  PrintSegments("live", db.log().LiveSegments());
  PrintSegments("arch", db.log().ArchivedSegments());
  const wal::ScrubReport scrub = db.log().Scrub();
  std::printf("scrub: %zu sealed live segments, %zu repairs, %zu holes\n",
              scrub.segments, scrub.repairs, scrub.holes);
  for (const wal::SegmentVerdict& verdict : scrub.verdicts) {
    std::printf("  seg %llu lsn [%llu, %llu]: %s\n",
                (unsigned long long)verdict.id,
                (unsigned long long)verdict.first_lsn,
                (unsigned long long)verdict.last_lsn,
                wal::SegmentVerdictStateName(verdict.state));
  }

  const methods::StableCheckpoint checkpoint =
      methods::ReadStableCheckpoint(db.log()).value();
  const core::Lsn scan_start = checkpoint.payload.redo_start;
  std::printf("redo scan starts at lsn %llu\n", (unsigned long long)scan_start);
  const auto& dpt = checkpoint.payload.dpt;
  if (!dpt.empty()) {
    std::printf("checkpoint dirty page table:");
    for (const auto& [page, rec_lsn] : dpt) {
      std::printf("  p%u@%llu", page, (unsigned long long)rec_lsn);
    }
    std::printf("\n");
  }

  std::printf("\n--- stable page LSN tags ---\n");
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    std::printf("  page %u: lsn %llu\n", p,
                (unsigned long long)db.disk().PeekPage(p).lsn());
  }

  std::printf("\n--- stable log (scan region marked) ---\n");
  const std::vector<wal::LogRecord> records = db.log().StableRecords(1).value();
  for (const wal::LogRecord& record : records) {
    const bool scanned = record.lsn >= scan_start;
    std::printf("  %c %s\n", scanned ? '>' : ' ',
                engine::DescribeRecord(record).c_str());
  }

  std::printf("\n--- recovery invariant (formal checker) ---\n");
  const checker::CheckResult verdict = checker::CheckCrashState(db, trace);
  std::printf("%s\n", verdict.ToString().c_str());

  std::printf("\n--- recovery ---\n");
  const Status recovered = db.Recover();
  std::printf("recover(): %s\n", recovered.ToString().c_str());
  const methods::RedoScanStats& stats = db.redo_scan_stats();
  if (stats.scanned > 0) {
    std::printf("scanned %zu records, replayed %zu, skipped-without-fetch %zu, "
                "page fetches %zu\n",
                stats.scanned, stats.replayed, stats.skipped_without_fetch,
                stats.page_fetches);
  }

  std::printf("\n=== transactional crash point ===\n");
  db.Attach({});
  StageTxnCrash(db);
  methods::EngineContext tctx = db.ctx();
  const Result<methods::TxnAnalysis> analysis =
      methods::AnalyzeTransactions(tctx);
  if (analysis.ok()) {
    std::printf("transaction table (analysis):\n");
    for (uint64_t txn : analysis.value().winners) {
      std::printf("  txn %llu: WINNER (stable commit)\n",
                  (unsigned long long)txn);
    }
    for (const auto& [txn, last_lsn] : analysis.value().losers) {
      std::printf("  txn %llu: LOSER, undo chain tail at lsn %llu\n",
                  (unsigned long long)txn, (unsigned long long)last_lsn);
    }
    std::printf("  max txn id %llu\n",
                (unsigned long long)analysis.value().max_txn_id);
  } else {
    std::printf("analysis failed: %s\n", analysis.status().ToString().c_str());
  }
  for (const auto& [txn, clrs] : CollectClrChains(db.log())) {
    std::printf("clr chain, txn %llu:", (unsigned long long)txn);
    for (const ClrEntry& clr : clrs) {
      std::printf("  lsn %llu -> undo_next %llu (%zu actions)",
                  (unsigned long long)clr.lsn,
                  (unsigned long long)clr.undo_next, clr.actions);
    }
    std::printf("\n");
  }
  const Status txn_recovered = db.Recover();
  std::printf("undo recovery: %s — %llu losers undone, %llu CLRs emitted, "
              "%llu CLRs skipped\n",
              txn_recovered.ToString().c_str(),
              (unsigned long long)db.txn_undo_metrics().losers.load(),
              (unsigned long long)db.txn_undo_metrics().clrs_emitted.load(),
              (unsigned long long)db.txn_undo_metrics().clrs_skipped.load());
  return verdict.ok && recovered.ok() && analysis.ok() && txn_recovered.ok()
             ? 0
             : 1;
}
