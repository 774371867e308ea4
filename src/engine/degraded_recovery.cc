#include "engine/degraded_recovery.h"

#include "engine/txn.h"

namespace redo::engine {

namespace {

/// Emits the scrub's findings into the timeline: the summary plus one
/// segment-verdict event per segment the scrub had to touch (intact
/// segments stay silent — the evidence is the damage).
void TraceScrub(obs::RecoveryTracer* tracer, const wal::ScrubReport& scrub) {
  if (tracer == nullptr) return;
  tracer->ScrubSummary(scrub.segments, scrub.repairs, scrub.holes,
                       scrub.archive_repairs, scrub.archive_holes,
                       scrub.first_unreadable_lsn);
  for (const wal::SegmentVerdict& verdict : scrub.verdicts) {
    if (verdict.state == wal::SegmentVerdict::State::kIntact) continue;
    tracer->SegmentVerdict(verdict.id, verdict.first_lsn, verdict.last_lsn,
                           wal::SegmentVerdictStateName(verdict.state));
  }
  for (const wal::SegmentVerdict& verdict : scrub.archive_verdicts) {
    if (verdict.state == wal::SegmentVerdict::State::kIntact) continue;
    tracer->SegmentVerdict(verdict.id, verdict.first_lsn, verdict.last_lsn,
                           std::string("archive-") +
                               wal::SegmentVerdictStateName(verdict.state));
  }
}

/// Walks a transaction's undo chain back from `lsn`, as undo would:
/// the first record on it that cannot be read, or 0 when all can.
core::Lsn FirstUnreadableInChain(const wal::LogManager& log, core::Lsn lsn) {
  while (lsn != 0) {
    Result<wal::LogRecord> record = log.StableRecordAt(lsn);
    if (!record.ok()) return lsn;
    if (record.value().type == wal::RecordType::kTxnUpdate) {
      Result<TxnUpdate> update = DecodeTxnUpdate(record.value().payload);
      if (!update.ok()) return lsn;
      lsn = update.value().prev_lsn;
    } else if (record.value().type == wal::RecordType::kClr) {
      Result<Clr> clr = DecodeClr(record.value().payload);
      if (!clr.ok()) return lsn;
      lsn = clr.value().undo_next;
    } else {
      return lsn;
    }
  }
  return 0;
}

/// Rung 3: fail loudly, naming the first unreadable LSN and the remedy.
LadderReport Refuse(LadderReport report, core::Lsn lsn, std::string diagnosis,
                    obs::RecoveryTracer* tracer) {
  report.rung = LadderRung::kRefused;
  report.first_unreadable_lsn = lsn;
  report.diagnosis = std::move(diagnosis);
  if (tracer != nullptr) {
    tracer->Rung(LadderRungName(report.rung), lsn, report.diagnosis);
  }
  report.status = Status::Corruption(report.diagnosis);
  return report;
}

LadderReport RunLadder(MiniDb& db, const Backup* backup,
                       obs::RecoveryTracer* tracer);

}  // namespace

const char* LadderRungName(LadderRung rung) {
  switch (rung) {
    case LadderRung::kIntactLog:
      return "intact-log";
    case LadderRung::kMirrorRepair:
      return "mirror-repair";
    case LadderRung::kMediaRecovery:
      return "media-recovery";
    case LadderRung::kRefused:
      return "refused";
  }
  return "?";
}

std::string LadderReport::ToString() const {
  std::string s = "rung=";
  s += LadderRungName(rung);
  s += " scrub{segments=" + std::to_string(scrub.segments) +
       " repairs=" + std::to_string(scrub.repairs) +
       " holes=" + std::to_string(scrub.holes) +
       " archive_repairs=" + std::to_string(scrub.archive_repairs) +
       " archive_holes=" + std::to_string(scrub.archive_holes) + "}";
  if (rung == LadderRung::kMediaRecovery) {
    s += used_backup ? " backup=yes" : " backup=genesis";
    s += " archive_reseeds=" + std::to_string(archive_repairs);
    s += " amputated=" + std::to_string(segments_amputated);
  }
  if (rung == LadderRung::kRefused) {
    s += " first_unreadable_lsn=" + std::to_string(first_unreadable_lsn);
    s += " diagnosis=\"" + diagnosis + "\"";
  }
  return s;
}

LadderReport RecoverWithDegradation(MiniDb& db, const Backup* backup) {
  // The ladder and the ordinary recovery it may invoke are ONE timeline:
  // BeginRun nests, so db.Recover() below joins this run.
  obs::RecoveryTracer* tracer = db.recovery_tracer();
  if (tracer != nullptr) tracer->BeginRun(db.method().name());
  LadderReport report = RunLadder(db, backup, tracer);
  if (tracer != nullptr) {
    tracer->EndRun(report.status.ok(),
                   report.status.ok() ? "ok" : report.status.ToString());
  }
  return report;
}

namespace {

LadderReport RunLadder(MiniDb& db, const Backup* backup,
                       obs::RecoveryTracer* tracer) {
  LadderReport report;
  wal::LogManager& log = db.log();

  // Salvage the torn tail first, exactly as ordinary recovery would: the
  // active segment's damage model (a crash mid-force) is handled by
  // truncation, not by the ladder.
  if (log.PendingForceBytes() == 0) {
    obs::PhaseScope phase(tracer, "salvage");
    const wal::SalvageResult salvage = log.SalvageTornTail();
    if (tracer != nullptr) {
      tracer->Salvage(salvage.torn, salvage.dropped_bytes,
                      salvage.salvaged_records, salvage.stable_lsn_after);
    }
  }

  // Rungs 0/1: scrub. Decode every sealed copy and repair from the
  // intact twin. If no hole remains, the log is whole and ordinary
  // recovery is fully trustworthy.
  {
    obs::PhaseScope phase(tracer, "scrub");
    report.scrub = log.Scrub();
    TraceScrub(tracer, report.scrub);
  }
  if (report.scrub.clean()) {
    const size_t repairs = report.scrub.repairs + report.scrub.archive_repairs;
    report.rung =
        repairs > 0 ? LadderRung::kMirrorRepair : LadderRung::kIntactLog;
    if (tracer != nullptr) {
      tracer->Rung(LadderRungName(report.rung), 0,
                   repairs > 0 ? "scrub repaired " + std::to_string(repairs) +
                                     " damaged segment copies"
                               : "scrub found no damage");
    }
    report.status = db.Recover();
    return report;
  }

  // A live hole. Rung 2 is legal only if a backup subsumes everything up
  // to some LSN b, and every record in (b, stable_lsn] is readable from
  // *some* intact source (live copy or archive) with no gap.
  const core::Lsn base = backup != nullptr ? backup->backup_lsn : 0;
  const core::Lsn uncovered = log.FirstUncoveredLsn(base + 1);
  if (uncovered != 0) {
    return Refuse(
        std::move(report), uncovered,
        "stable log unreadable at LSN " + std::to_string(uncovered) +
            ": no intact live copy and no intact archive copy; " +
            (backup != nullptr
                 ? "the backup (through LSN " + std::to_string(base) +
                       ") does not reach it"
                 : "no backup is available") +
            "; needed: a backup covering LSN >= " +
            std::to_string(uncovered) +
            " or an intact copy of the damaged segment. Refusing to "
            "recover past a gap.",
        tracer);
  }

  // Rung 2: media recovery. Re-seed unreadable live segments from the
  // archive. Undo must still read the chain of every transaction open at
  // the backup: any may be a loser at the crash, and its chain reaches
  // below the backup LSN, where the coverage check did not look. Only
  // then may pages be written. Drop what nothing can rebuild but the
  // backup subsumes, so the live log is whole above the backup point,
  // and run the restart from the backup (or the genesis state — an
  // all-zero database explained by the empty log prefix, with no
  // transaction open).
  report.archive_repairs = log.RepairFromArchive();
  const std::vector<TxnTableEntry> none;
  for (const TxnTableEntry& txn :
       backup != nullptr ? backup->checkpoint.payload.txns : none) {
    const core::Lsn lsn = FirstUnreadableInChain(log, txn.last_lsn);
    if (lsn == 0) continue;
    return Refuse(
        std::move(report), lsn,
        "undo needs LSN " + std::to_string(lsn) +
            " in the chain of transaction " + std::to_string(txn.txn_id) +
            ", open at the backup (through LSN " + std::to_string(base) +
            "), and no intact live or archive copy holds it; needed: an "
            "intact copy of the segment holding LSN " + std::to_string(lsn) +
            ". Refusing to roll back past a gap.",
        tracer);
  }
  report.rung = LadderRung::kMediaRecovery;
  report.used_backup = backup != nullptr;
  if (tracer != nullptr) {
    tracer->Rung(LadderRungName(report.rung), report.scrub.first_unreadable_lsn,
                 std::string("live log hole covered by ") +
                     (backup != nullptr
                          ? "backup through LSN " + std::to_string(base) +
                                " plus the archive"
                          : "the genesis state plus the archive"));
  }
  obs::PhaseScope phase(tracer, "media-recovery");
  report.segments_amputated = log.DropUnreadableThrough(base);
  Backup genesis;
  if (backup == nullptr) genesis.pages.resize(db.num_pages());
  report.status = MediaRecover(db, backup != nullptr ? *backup : genesis);
  return report;
}

}  // namespace

}  // namespace redo::engine
