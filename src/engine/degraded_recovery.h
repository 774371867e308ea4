// The degradation ladder: recovery under log-media damage.
//
// Redo recovery requires an unbroken stable-log prefix — replaying past
// a gap would produce a state that never existed, silently. So when the
// sealed log body is damaged, recovery must not improvise; it descends
// an explicit ladder, stopping at the first rung that restores a
// provably explained state:
//
//   rung 0  kIntactLog     — scrub found nothing; ordinary recovery.
//   rung 1  kMirrorRepair  — scrub found damage but every damaged copy
//                            had an intact twin (mirror); after repair
//                            the log is whole and ordinary recovery runs.
//   rung 2  kMediaRecovery — some segment has no intact live copy, but a
//                            backup plus the archive cover the hole:
//                            re-seed the live log from the archive, drop
//                            what nothing can rebuild but the backup
//                            subsumes, and run the crash restart from
//                            the backup (MediaRecover).
//   rung 3  kRefused       — the hole is uncoverable. Fail loudly with
//                            the first unreadable LSN and what would be
//                            needed. The database stays unrecovered:
//                            a refusal is the *correct* outcome, never a
//                            fallback to a guess.
//
// A rung-2 recovery ends with MediaRecover's fresh checkpoint (a fresh
// backup is still advisable): amputated segments may have carried old
// checkpoint records, and the next crash must find its scan start in the
// surviving log.

#ifndef REDO_ENGINE_DEGRADED_RECOVERY_H_
#define REDO_ENGINE_DEGRADED_RECOVERY_H_

#include <string>

#include "engine/backup.h"
#include "engine/minidb.h"

namespace redo::engine {

/// Which rung of the degradation ladder resolved a recovery attempt.
enum class LadderRung {
  kIntactLog = 0,     ///< no damage; ordinary recovery
  kMirrorRepair = 1,  ///< scrub repaired everything; ordinary recovery
  kMediaRecovery = 2, ///< backup + archive covered a live hole
  kRefused = 3,       ///< uncoverable hole; loud, diagnosed failure
};

const char* LadderRungName(LadderRung rung);

/// Outcome of one descent of the ladder.
struct LadderReport {
  LadderRung rung = LadderRung::kIntactLog;
  Status status = Status::Ok();    ///< Ok for rungs 0-2; kCorruption for rung 3
  wal::ScrubReport scrub;          ///< the pre-recovery scrub's findings
  bool used_backup = false;        ///< rung 2 restored from `backup`
  size_t archive_repairs = 0;      ///< live segments re-seeded from the archive
  size_t segments_amputated = 0;   ///< unreadable segments the backup subsumed
  core::Lsn first_unreadable_lsn = 0;  ///< rung 3: where the log becomes unreadable
  std::string diagnosis;           ///< rung 3: what happened and what would help

  std::string ToString() const;
};

/// Recovers `db` after a crash, descending the degradation ladder as far
/// as the damage demands. `backup` may be nullptr: rung 2 then restores
/// from the genesis state (an all-zero database at backup_lsn 0), which
/// covers a hole only if the archive reaches back to LSN 1. Call after
/// db.Crash(); on rungs 0-2 the database is recovered and usable, on
/// rung 3 it is left unrecovered and report.status is kCorruption.
LadderReport RecoverWithDegradation(MiniDb& db, const Backup* backup);

}  // namespace redo::engine

#endif  // REDO_ENGINE_DEGRADED_RECOVERY_H_
