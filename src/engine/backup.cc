#include "engine/backup.h"

#include <algorithm>

namespace redo::engine {

Result<Backup> TakeBackup(MiniDb& db) {
  // Clean point: every method installs its cache through its own
  // channel (checkpoint for logical, flush for the rest).
  REDO_RETURN_IF_ERROR(db.FlushEverything());
  REDO_RETURN_IF_ERROR(db.Checkpoint());
  REDO_RETURN_IF_ERROR(db.log().ForceAll());

  Backup backup;
  backup.backup_lsn = db.log().stable_lsn();
  Result<methods::StableCheckpoint> checkpoint =
      methods::ReadStableCheckpoint(db.log());
  if (!checkpoint.ok()) return checkpoint.status();
  backup.checkpoint = std::move(checkpoint).value();
  if (backup.checkpoint.lsn != backup.backup_lsn) {
    return Status::FailedPrecondition(
        "backup: records followed its checkpoint; take it quiesced");
  }
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

Status MediaRecover(MiniDb& db, const Backup& backup) {
  if (backup.pages.size() != db.num_pages()) {
    return Status::InvalidArgument("backup size does not match the database");
  }
  // Whatever survived is untrustworthy: restore the backup.
  db.Crash();
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    REDO_RETURN_IF_ERROR(db.disk().WritePage(p, backup.pages[p]));
  }
  REDO_RETURN_IF_ERROR(db.Recover({backup.checkpoint, backup.backup_lsn}));
  // Media recovery is atomic in this simulation: make the result stable
  // before returning (a crash during media recovery in a real system
  // restarts the restore from the backup, which remains available).
  REDO_RETURN_IF_ERROR(db.pool().FlushAll());
  REDO_RETURN_IF_ERROR(db.Checkpoint());
  return db.log().ForceAll();
}

Result<size_t> TruncateLog(MiniDb& db, core::Lsn upto) {
  Result<methods::StableCheckpoint> checkpoint =
      methods::ReadStableCheckpoint(db.log());
  if (!checkpoint.ok()) return checkpoint.status();
  return db.log().TruncateArchived(
      std::min(upto, methods::ScanStart(checkpoint.value()) - 1));
}

}  // namespace redo::engine
