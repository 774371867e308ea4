// The unified command layer: one serializable operation surface for the
// engine's concurrent front end.
//
// Before this layer the Session API was N ad-hoc entry points
// (WriteSlot / Apply / Split / ReadSlot / Begin / Commit / Abort), and
// every new driver — the checker sims, the network server, a future
// replication log — re-derived its own calling convention. Command and
// Reply are tagged unions covering that whole surface; Dispatch() is
// the single execution funnel. The public Session methods are thin
// wrappers that build a Command and unpack the Reply, so the in-process
// path, the wire-level path (src/net), and the checkers' sims all drive
// literally the same code.
//
// Both unions serialize with the WAL's little-endian payload helpers,
// so a Command/Reply round-trips byte-identically — the property the
// wire protocol (and its tests) rest on. Replies always carry the
// engine's stable LSN at reply time: a networked client can extend the
// no-lost-acked-commit oracle across the wire without a second round
// trip.

#ifndef REDO_ENGINE_COMMAND_H_
#define REDO_ENGINE_COMMAND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/minidb.h"
#include "engine/ops.h"
#include "util/status.h"

namespace redo::engine {

/// Every operation the concurrent front end executes. kApply subsumes
/// the old WriteSlot/BlindFormat/B-tree entry points: they were always
/// SinglePageOp builders, so the command layer carries the op itself.
enum class CommandType : uint8_t {
  kApply = 1,     ///< any SinglePageOp (slot write, blind format, B-tree)
  kSplit = 2,     ///< generalized cross-page op (§6.4)
  kReadSlot = 3,  ///< read one slot through the cache
  kBegin = 4,     ///< open an explicit transaction
  kCommit = 5,    ///< durability point (txn commit or plain CommitWait)
  kAbort = 6,     ///< roll the open transaction back
  kStatus = 7,    ///< engine health: recovery phase, stable LSN, sessions
};

/// Stable name for diagnostics ("apply", "split", ...).
const char* CommandTypeName(CommandType type);

/// One command. Only the fields of the active arm are meaningful; the
/// rest stay default so encode/decode round-trips are byte-identical.
struct Command {
  CommandType type = CommandType::kStatus;
  SinglePageOp op;            ///< kApply
  SplitOp split;              ///< kSplit
  storage::PageId page = 0;   ///< kReadSlot
  uint32_t slot = 0;          ///< kReadSlot
  core::Lsn lsn = 0;          ///< kCommit: wait-up-to LSN (0 = session's last)

  friend bool operator==(const Command&, const Command&) = default;
};

Command MakeWriteSlotCommand(storage::PageId page, uint32_t slot,
                             int64_t value);
Command MakeApplyCommand(SinglePageOp op);
Command MakeSplitCommand(const SplitOp& split);
Command MakeReadSlotCommand(storage::PageId page, uint32_t slot);
Command MakeBeginCommand();
Command MakeCommitCommand(core::Lsn lsn = 0);
Command MakeAbortCommand();
Command MakeStatusCommand();

/// The kStatus payload: where the engine stands, observable mid-restart.
struct EngineStatus {
  /// MiniDb::RecoveryPhase as its wire value (kIdle/kAnalyzing/
  /// kServing/kRecovered).
  uint8_t phase = 0;
  core::Lsn stable_lsn = 0;
  uint64_t live_sessions = 0;
  uint64_t num_pages = 0;
  uint64_t restarts = 0;  ///< instant restarts served so far
  bool concurrent = false;

  friend bool operator==(const EngineStatus&, const EngineStatus&) = default;
};

/// The result of one command. `code`/`message` mirror the Status the
/// old entry point returned; `stable_lsn` is the engine's stable LSN
/// when the reply was built (filled for successes AND failures, so a
/// client can always tell what has been promised durable).
struct Reply {
  CommandType type = CommandType::kStatus;  ///< echoes the command
  StatusCode code = StatusCode::kOk;
  std::string message;        ///< empty when ok
  core::Lsn stable_lsn = 0;   ///< stable LSN at reply time
  core::Lsn lsn = 0;          ///< kApply: op LSN; kCommit: acked LSN;
                              ///< kSplit: split (destination) LSN
  core::Lsn lsn2 = 0;         ///< kSplit: rewrite (source) LSN
  int64_t value = 0;          ///< kReadSlot
  uint64_t txn_id = 0;        ///< kBegin
  EngineStatus status;        ///< kStatus

  bool ok() const { return code == StatusCode::kOk; }

  friend bool operator==(const Reply&, const Reply&) = default;
};

/// Reply -> the Status the old entry points returned.
Status ReplyStatus(const Reply& reply);
/// Reply -> the typed results the old entry points returned. Calling a
/// converter on a mismatched reply type is InvalidArgument, not a crash
/// — a wire peer controls the bytes.
Result<core::Lsn> ReplyLsn(const Reply& reply);
Result<methods::RecoveryMethod::SplitLsns> ReplySplitLsns(const Reply& reply);
Result<int64_t> ReplyValue(const Reply& reply);
Result<uint64_t> ReplyTxnId(const Reply& reply);

/// Executes one command against a session — THE front-end funnel. Every
/// Session entry point, every checker sim, and the network server call
/// this; there is exactly one way to run an operation. kStatus works on
/// any session.
Reply Dispatch(MiniDb::Session& session, const Command& command);

/// The session-free subset: kStatus against the engine itself. The
/// network server answers STATUS on connections that have no session
/// yet (e.g. while recovery is still running) through this.
Reply DispatchStatus(MiniDb& db);

// ---- Wire (de)serialization ----

std::vector<uint8_t> EncodeCommand(const Command& command);
Result<Command> DecodeCommand(const std::vector<uint8_t>& bytes);

std::vector<uint8_t> EncodeReply(const Reply& reply);
Result<Reply> DecodeReply(const std::vector<uint8_t>& bytes);

}  // namespace redo::engine

#endif  // REDO_ENGINE_COMMAND_H_
