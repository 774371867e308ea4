#include "checker/recovery_checker.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/conflict_graph.h"
#include "core/exposed.h"
#include "core/history.h"
#include "core/installation_graph.h"
#include "core/log.h"
#include "core/recovery.h"
#include "core/state_graph.h"

namespace redo::checker {

namespace {

using engine::TraceRecorder;

}  // namespace

std::string CheckResult::ToString() const {
  std::ostringstream out;
  out << (ok ? "OK" : "PROBLEM") << "; stable_ops=" << stable_ops
      << " checkpointed=" << checkpointed_ops;
  if (model_built) out << "; " << invariant.ToString();
  switch (failure_locus) {
    case FailureLocus::kNotDiagnosed:
      break;
    case FailureLocus::kRedoTestWrong:
      out << "\n  diagnosis: the state IS explainable by some installation "
             "prefix — the redo test / checkpoint chose the wrong set";
      break;
    case FailureLocus::kStateUnexplainable:
      out << "\n  diagnosis: NO installation prefix explains the state — the "
             "install ordering itself was violated";
      break;
  }
  for (const std::string& p : problems) out << "\n  problem: " << p;
  return out.str();
}

CheckResult CheckCrashState(engine::MiniDb& db, const TraceRecorder& trace) {
  CheckResult result;

  // 1. Read the stable log (recovery's only view of history). Records
  // below the trace epoch are pre-epoch history: their effects are
  // absorbed into the epoch-initial state, and the epoch boundary is a
  // checkpoint, so recovery never scans them — scan from the epoch
  // start, so archived/truncated pre-epoch segments (which may even
  // carry unrepairable archive rot) are skipped by metadata exactly as
  // recovery skips them.
  Result<std::vector<wal::LogRecord>> stable =
      db.log().StableRecords(std::max<core::Lsn>(1, trace.epoch_min_lsn()));
  if (!stable.ok()) {
    result.problems.push_back("stable log unreadable: " +
                              stable.status().ToString());
    return result;
  }
  std::map<core::Lsn, const wal::LogRecord*> stable_by_lsn;
  for (const wal::LogRecord& record : stable.value()) {
    if (record.type == wal::RecordType::kCheckpoint) continue;
    // Transaction records (and CLRs) are engine bookkeeping, not traced
    // operations — the atomicity oracle lives in the crash sim.
    if (wal::IsTxnMetaRecord(record.type) ||
        record.type == wal::RecordType::kClr) {
      continue;
    }
    if (record.lsn < trace.epoch_min_lsn()) continue;
    stable_by_lsn.emplace(record.lsn, &record);
  }
  result.stable_ops = stable_by_lsn.size();

  // 2. Match traced operations against stable records.
  std::map<core::Lsn, const TraceRecorder::TracedOp*> traced_by_lsn;
  for (const TraceRecorder::TracedOp& op : trace.ops()) {
    traced_by_lsn.emplace(op.lsn, &op);
  }
  std::vector<const TraceRecorder::TracedOp*> stable_ops;
  for (const auto& [lsn, record] : stable_by_lsn) {
    (void)record;
    const auto it = traced_by_lsn.find(lsn);
    if (it == traced_by_lsn.end()) {
      result.problems.push_back("no traced operation for stable record lsn=" +
                                std::to_string(lsn));
      continue;
    }
    stable_ops.push_back(it->second);
  }
  if (!result.problems.empty()) return result;

  // 3. Build the formal model: pages are variables, versions are values.
  // Each operation's written value is affine in its read versions:
  //   written = recorded_version + sum(actual_read - recorded_read).
  // When replayed from the state it originally read, it reproduces the
  // recorded version exactly; replayed from anything else it produces
  // garbage — mirroring how a real redo recomputes page contents from
  // what it reads. Recorded read versions are reconstructed by replaying
  // the version evolution over the stable LSN-prefix.
  const size_t num_pages = db.num_pages();
  core::State initial(num_pages, 0);
  for (storage::PageId p = 0; p < num_pages; ++p) {
    initial.Set(p, trace.initial_version(p));
  }

  core::History history(num_pages);
  std::vector<core::LogEntry> log_entries;
  core::State current_versions = initial;
  for (const TraceRecorder::TracedOp* op : stable_ops) {
    // Sorted, deduplicated read set (matches Operation's normalization,
    // so AffineTerm indices line up).
    std::vector<core::VarId> reads(op->reads.begin(), op->reads.end());
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    int64_t read_sum = 0;
    for (core::VarId r : reads) read_sum += current_versions.Get(r);

    std::vector<core::WriteSpec> writes;
    for (const TraceRecorder::TracedWrite& w : op->writes) {
      core::WriteSpec spec;
      spec.var = w.page;
      spec.constant = w.version - read_sum;
      for (uint32_t i = 0; i < reads.size(); ++i) {
        spec.terms.push_back(core::AffineTerm{i, 1});
      }
      writes.push_back(std::move(spec));
    }
    for (const TraceRecorder::TracedWrite& w : op->writes) {
      current_versions.Set(w.page, w.version);
    }
    const core::OpId id = history.Append(
        core::Operation(op->name, std::move(reads), std::move(writes)));
    log_entries.push_back(core::LogEntry{id, op->lsn});
  }

  const core::ConflictGraph conflict = core::ConflictGraph::Generate(history);
  const core::InstallationGraph installation =
      core::InstallationGraph::Derive(conflict);
  const core::StateGraph state_graph =
      core::StateGraph::Generate(history, conflict, initial);
  const core::Log log = core::Log::FromEntries(log_entries);

  // 4. The crash state: the stable disk, mapped to version ids.
  //
  // A page whose contents the trace never saw gets a fresh synthetic
  // version: this is either a torn/rogue write (the invariant will then
  // fail — the variable is exposed and its value unexplainable) or a
  // legitimate never-materialized intermediate of idempotent redo-all
  // recovery (partial physical logging replaying an old byte-poke onto
  // a newer page) — in which case every accessor is blind, the variable
  // is unexposed, and the invariant holds with *any* value there.
  //
  // A page holding a version produced by an operation whose log record
  // did not survive is a hard write-ahead-log violation either way.
  core::State crash_state(num_pages, 0);
  std::vector<std::string> unknown_version_notes;
  bool wal_violated = false;
  int64_t synthetic_version = -1;
  for (storage::PageId p = 0; p < num_pages; ++p) {
    const uint64_t hash = db.disk().PeekPage(p).ContentHash();
    const std::optional<int64_t> version = trace.VersionOfHash(hash);
    if (!version.has_value()) {
      unknown_version_notes.push_back(
          "disk page " + std::to_string(p) +
          " holds a version the trace never saw (torn write, or an "
          "idempotent-redo intermediate)");
      crash_state.Set(p, synthetic_version--);
      continue;
    }
    const std::optional<core::Lsn> producer =
        trace.ProducerOfVersion(*version);
    if (producer.has_value() && stable_by_lsn.count(*producer) == 0) {
      result.problems.push_back(
          "WAL violation: disk page " + std::to_string(p) +
          " holds a version produced by lost operation lsn=" +
          std::to_string(*producer));
      wal_violated = true;
    }
    crash_state.Set(p, *version);
  }
  if (wal_violated) {
    result.problems.insert(result.problems.end(),
                           unknown_version_notes.begin(),
                           unknown_version_notes.end());
    return result;
  }

  // 5. The checkpoint set: operations recovery will not even scan.
  const methods::EngineContext ctx = db.ctx();
  Result<core::Lsn> redo_start = db.method().RedoScanStart(ctx);
  if (!redo_start.ok()) {
    result.problems.push_back("cannot determine redo scan start: " +
                              redo_start.status().ToString());
    return result;
  }
  if (redo_start.value() < trace.epoch_min_lsn()) {
    result.problems.push_back(
        "redo scan would reach back before the trace epoch (epoch starts at " +
        std::to_string(trace.epoch_min_lsn()) + ", scan starts at " +
        std::to_string(redo_start.value()) + ")");
    return result;
  }
  Bitset checkpoint(history.size());
  for (core::OpId i = 0; i < history.size(); ++i) {
    if (log.LsnOf(i) < redo_start.value()) checkpoint.Set(i);
  }
  result.checkpointed_ops = checkpoint.Count();

  // 6. The formal redo test matching the engine's.
  core::PolicyFactory factory;
  switch (db.method().redo_test_kind()) {
    case methods::RecoveryMethod::RedoTestKind::kLsnTag: {
      std::map<core::VarId, core::Lsn> tags;
      for (storage::PageId p = 0; p < num_pages; ++p) {
        tags[p] = db.disk().PeekPage(p).lsn();
      }
      factory = [&history, tags] {
        return std::make_unique<core::LsnTagPolicy>(&history, tags);
      };
      break;
    }
    case methods::RecoveryMethod::RedoTestKind::kRedoAllSinceCheckpoint:
      factory = [] { return std::make_unique<core::RedoAllPolicy>(); };
      break;
  }

  // 7. The Recovery Invariant (§4.5 / Corollary 4).
  result.invariant =
      core::CheckRecoveryInvariant(history, conflict, installation, state_graph,
                                   log, checkpoint, crash_state, factory);
  result.model_built = true;
  result.ok = result.invariant.holds && result.invariant.recovered_final_state &&
              result.problems.empty();
  // Unknown versions are benign exactly when the invariant holds anyway
  // (the variables were unexposed); surface them as problems otherwise.
  if (!result.ok) {
    result.problems.insert(result.problems.end(),
                           unknown_version_notes.begin(),
                           unknown_version_notes.end());
  }

  // Failure diagnosis (small models): is the *state* recoverable at all,
  // or did the redo test merely pick the wrong set?
  if (!result.invariant.holds && history.size() <= 24) {
    const auto witness = core::FindExplainingPrefix(
        history, conflict, installation, state_graph, crash_state, 1 << 16);
    result.failure_locus = witness.has_value()
                               ? CheckResult::FailureLocus::kRedoTestWrong
                               : CheckResult::FailureLocus::kStateUnexplainable;
  }
  return result;
}

}  // namespace redo::checker
