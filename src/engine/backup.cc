#include "engine/backup.h"

#include <algorithm>
#include <limits>
#include <span>

#include "methods/analysis.h"

namespace redo::engine {

Result<Backup> TakeBackup(MiniDb& db) {
  // Clean point: every method installs its cache through its own
  // channel (checkpoint for logical, flush for the rest).
  if (db.method().allows_background_flush()) {
    REDO_RETURN_IF_ERROR(db.FlushEverything());
  }
  REDO_RETURN_IF_ERROR(db.Checkpoint());
  REDO_RETURN_IF_ERROR(db.log().ForceAll());

  Backup backup;
  backup.backup_lsn = db.log().stable_lsn();
  backup.pages.reserve(db.num_pages());
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    backup.pages.push_back(db.disk().PeekPage(p));
  }
  return backup;
}

void DestroyMedia(MiniDb& db) {
  db.pool().Crash();
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    REDO_CHECK(db.disk().WritePage(p, storage::Page()).ok());
  }
}

namespace {

Status RestoreAndReplay(MiniDb& db, const Backup& backup, core::Lsn upto_lsn) {
  if (backup.pages.size() != db.num_pages()) {
    return Status::InvalidArgument("backup size does not match the database");
  }
  // Whatever survived is untrustworthy: restore the archive.
  db.pool().Crash();
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    REDO_RETURN_IF_ERROR(db.disk().WritePage(p, backup.pages[p]));
  }
  // Replay the stable log suffix in order, up to the requested point.
  // ReadWithArchive pulls from every intact source — live copies first,
  // archive copies for live holes and truncated-away prefixes — and
  // verifies the LSN sequence is gap-free, so media recovery either
  // replays the *whole* suffix or fails naming the first unreadable LSN
  // (never a silently truncated prefix).
  Result<std::vector<wal::LogRecord>> records =
      db.log().ReadWithArchive(backup.backup_lsn + 1);
  if (!records.ok()) return records.status();
  const std::vector<wal::LogRecord>& suffix = records.value();
  const auto end = std::find_if(
      suffix.begin(), suffix.end(),
      [upto_lsn](const wal::LogRecord& r) { return r.lsn > upto_lsn; });
  // Every record after the backup point is uninstalled relative to the
  // restored pages, so the replay is redo-all under every method. It
  // records no verdicts and no scan counts: the timeline and the stats
  // describe crash recovery.
  methods::EngineContext ctx = db.ctx();
  ctx.tracer = nullptr;
  REDO_RETURN_IF_ERROR(methods::ReplayInLogOrder(
      db.method(), ctx, std::span(suffix.begin(), end),
      par::InstantRedoOptions{}, /*stats=*/nullptr));
  // Media recovery is atomic in this simulation: make the result stable
  // before returning (a crash during media recovery in a real system
  // restarts the restore from the backup, which remains available).
  return db.pool().FlushAll();
}

}  // namespace

Status MediaRecover(MiniDb& db, const Backup& backup) {
  return RestoreAndReplay(db, backup,
                          std::numeric_limits<core::Lsn>::max());
}

Status PointInTimeRecover(MiniDb& db, const Backup& backup,
                          core::Lsn upto_lsn) {
  if (upto_lsn < backup.backup_lsn) {
    return Status::InvalidArgument(
        "point-in-time target precedes the backup; use an older backup");
  }
  return RestoreAndReplay(db, backup, upto_lsn);
}

}  // namespace redo::engine
