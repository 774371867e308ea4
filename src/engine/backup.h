// Backups and media recovery.
//
// Media failure destroys the stable *state* but not the stable log. The
// theory covers this directly: recovery may start from any explained
// stable state (Theorem 3), and a backup is one, explained by the prefix
// of operations logged up to the backup point. So media recovery is the
// crash restart started at the backup: restore its pages, then run
// Recover() anchored at the checkpoint the backup kept, reading no
// record at or below the backup LSN. Analysis, the method's own redo
// test and loser undo all run, so a transaction open at the crash is
// rolled back exactly as crash recovery rolls it back. (System R's
// checkpoint/staging §6.1 story is the same mechanism applied
// continuously.)
//
// A backup is taken at a clean point — cache flushed, checkpoint
// written, log forced — so it is explained by exactly the operations
// with lsn <= backup_lsn under every method (LSN methods could take
// fuzzy backups; we keep the clean point so one Backup type serves all
// six methods).

#ifndef REDO_ENGINE_BACKUP_H_
#define REDO_ENGINE_BACKUP_H_

#include <vector>

#include "engine/minidb.h"

namespace redo::engine {

/// A full-database backup: page images, the log position they reflect
/// and the checkpoint written there (its transaction table seeds media
/// recovery's undo pass).
struct Backup {
  std::vector<storage::Page> pages;
  core::Lsn backup_lsn = 0;  ///< every op with lsn <= this is installed
  methods::StableCheckpoint checkpoint;  ///< lsn 0: none (genesis)
};

/// Takes a clean backup: flushes the cache, checkpoints (the only
/// install for methods that forbid flushes), forces the log, snapshots
/// the disk. FailedPrecondition if a record followed the checkpoint (a
/// backup needs a quiesced engine).
Result<Backup> TakeBackup(MiniDb& db);

/// Simulates a media failure: zeroes every stable page (the log
/// survives — it lives on separate media).
void DestroyMedia(MiniDb& db);

/// Media recovery: Crash(), write the backup's pages, run the restart
/// anchored at the backup (db.Recover with the backup's checkpoint and
/// LSN), then flush and take a checkpoint that re-anchors the next
/// restart after the replayed suffix: a method without a page-LSN redo
/// test (logical) must not replay it again onto the installed state.
/// Fails as the restart fails, e.g. Corruption at a live-log hole (the
/// ladder's rung 2 repairs or amputates those first) or at a record
/// the method's log can never hold.
Status MediaRecover(MiniDb& db, const Backup& backup);

/// Checkpoint truncation that keeps every restart's scan start live:
/// retires the archived live segments whose records are all <= `upto`
/// and precede min(latest stable checkpoint, its redo start). Returns
/// the number of segments retired.
Result<size_t> TruncateLog(MiniDb& db, core::Lsn upto);

}  // namespace redo::engine

#endif  // REDO_ENGINE_BACKUP_H_
