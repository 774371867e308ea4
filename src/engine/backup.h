// Backups and media recovery.
//
// Media failure destroys the stable *state* but not the stable log. The
// theory covers this directly: a backup is a stable state explained by
// the prefix of operations logged up to the backup point, so restoring
// it and replaying the stable log suffix is ordinary redo recovery from
// an older explained state. (System R's checkpoint/staging §6.1 story is
// the same mechanism applied continuously.)
//
// A backup is taken at a clean point — cache flushed, log forced — so it
// is explained by exactly the operations with lsn <= backup_lsn under
// every method (LSN methods could take fuzzy backups; we keep the clean
// point so one Backup type serves all six methods).

#ifndef REDO_ENGINE_BACKUP_H_
#define REDO_ENGINE_BACKUP_H_

#include <vector>

#include "engine/minidb.h"

namespace redo::engine {

/// A full-database backup: page images plus the log position they
/// reflect.
struct Backup {
  std::vector<storage::Page> pages;
  core::Lsn backup_lsn = 0;  ///< every op with lsn <= this is installed
};

/// Takes a clean backup: flushes the cache (checkpointing for methods
/// that only install at checkpoints), forces the log, snapshots the
/// disk.
Result<Backup> TakeBackup(MiniDb& db);

/// Simulates a media failure: zeroes every stable page (the log
/// survives — it lives on separate media).
void DestroyMedia(MiniDb& db);

/// Media recovery: restores the backup's pages and replays every stable
/// log record after the backup point (ReadWithArchive) through the
/// serial log-order replayer (methods::ReplayInLogOrder), then flushes.
/// Records at or below backup_lsn are installed by construction and
/// every later one is uninstalled relative to the restored pages, so
/// the replay is redo-all under every method, page-LSN methods
/// included: no page-LSN test runs. Each record is classified by the
/// method and replayed in its split shape, so a record the method's
/// log can never hold fails with the Corruption crash recovery
/// returns. No verdicts and no scan counts are recorded.
///
/// No undo pass follows the replay: a transaction still open at the
/// end of the replayed log keeps its updates. The ladder's re-anchor
/// checkpoint after media recovery then records an empty transaction
/// table, so no later recovery rolls that transaction back.
Status MediaRecover(MiniDb& db, const Backup& backup);

/// Point-in-time recovery: like MediaRecover but stops replaying at
/// `upto_lsn` (inclusive) — the database is rewound to exactly the state
/// after the operation with that LSN. Replaying a *prefix* of the
/// suffix is legal for the same reason recovery after a lost log tail
/// is: every log prefix describes an explained state. `upto_lsn` must be
/// >= backup.backup_lsn.
Status PointInTimeRecover(MiniDb& db, const Backup& backup, core::Lsn upto_lsn);

}  // namespace redo::engine

#endif  // REDO_ENGINE_BACKUP_H_
