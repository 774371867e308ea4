#include "engine/command.h"

#include <utility>

#include "wal/log_record.h"

namespace redo::engine {

const char* CommandTypeName(CommandType type) {
  switch (type) {
    case CommandType::kApply:
      return "apply";
    case CommandType::kSplit:
      return "split";
    case CommandType::kReadSlot:
      return "read_slot";
    case CommandType::kBegin:
      return "begin";
    case CommandType::kCommit:
      return "commit";
    case CommandType::kAbort:
      return "abort";
    case CommandType::kStatus:
      return "status";
  }
  return "unknown";
}

Command MakeWriteSlotCommand(storage::PageId page, uint32_t slot,
                             int64_t value) {
  return MakeApplyCommand(MakeSlotWrite(page, slot, value));
}

Command MakeApplyCommand(SinglePageOp op) {
  Command command;
  command.type = CommandType::kApply;
  command.op = std::move(op);
  return command;
}

Command MakeSplitCommand(const SplitOp& split) {
  Command command;
  command.type = CommandType::kSplit;
  command.split = split;
  return command;
}

Command MakeReadSlotCommand(storage::PageId page, uint32_t slot) {
  Command command;
  command.type = CommandType::kReadSlot;
  command.page = page;
  command.slot = slot;
  return command;
}

Command MakeBeginCommand() {
  Command command;
  command.type = CommandType::kBegin;
  return command;
}

Command MakeCommitCommand(core::Lsn lsn) {
  Command command;
  command.type = CommandType::kCommit;
  command.lsn = lsn;
  return command;
}

Command MakeAbortCommand() {
  Command command;
  command.type = CommandType::kAbort;
  return command;
}

Command MakeStatusCommand() {
  Command command;
  command.type = CommandType::kStatus;
  return command;
}

Status ReplyStatus(const Reply& reply) {
  if (reply.ok()) return Status::Ok();
  return Status(reply.code, reply.message);
}

namespace {

/// Error for a converter applied to the wrong reply arm. A wire peer
/// controls the bytes, so this is a diagnosed error, never a crash.
Status WrongReplyType(const Reply& reply, const char* wanted) {
  return Status::InvalidArgument(std::string("reply type mismatch: have ") +
                                 CommandTypeName(reply.type) + ", want " +
                                 wanted);
}

}  // namespace

Result<core::Lsn> ReplyLsn(const Reply& reply) {
  if (!reply.ok()) return ReplyStatus(reply);
  if (reply.type != CommandType::kApply && reply.type != CommandType::kCommit) {
    return WrongReplyType(reply, "apply|commit");
  }
  return reply.lsn;
}

Result<methods::RecoveryMethod::SplitLsns> ReplySplitLsns(const Reply& reply) {
  if (!reply.ok()) return ReplyStatus(reply);
  if (reply.type != CommandType::kSplit) return WrongReplyType(reply, "split");
  methods::RecoveryMethod::SplitLsns lsns;
  lsns.split_lsn = reply.lsn;
  lsns.rewrite_lsn = reply.lsn2;
  return lsns;
}

Result<int64_t> ReplyValue(const Reply& reply) {
  if (!reply.ok()) return ReplyStatus(reply);
  if (reply.type != CommandType::kReadSlot) {
    return WrongReplyType(reply, "read_slot");
  }
  return reply.value;
}

Result<uint64_t> ReplyTxnId(const Reply& reply) {
  if (!reply.ok()) return ReplyStatus(reply);
  if (reply.type != CommandType::kBegin) return WrongReplyType(reply, "begin");
  return reply.txn_id;
}

namespace {

void FillError(Reply* reply, const Status& status) {
  reply->code = status.code();
  reply->message = status.message();
}

}  // namespace

Reply DispatchStatus(MiniDb& db) {
  Reply reply;
  reply.type = CommandType::kStatus;
  reply.status.phase = static_cast<uint8_t>(db.recovery_phase());
  reply.status.stable_lsn = db.log().stable_lsn();
  reply.status.live_sessions =
      static_cast<uint64_t>(db.live_sessions_.load(std::memory_order_relaxed));
  reply.status.num_pages = db.num_pages();
  reply.status.restarts =
      db.instant_redo_metrics().restarts.load(std::memory_order_relaxed);
  reply.status.concurrent = db.concurrent();
  reply.stable_lsn = reply.status.stable_lsn;
  return reply;
}

Reply Dispatch(MiniDb::Session& session, const Command& command) {
  Reply reply;
  reply.type = command.type;
  MiniDb* db = session.db_;
  if (db == nullptr) {
    FillError(&reply,
              Status::FailedPrecondition("session handle has been released"));
    return reply;
  }
  switch (command.type) {
    case CommandType::kApply: {
      Result<core::Lsn> lsn = db->SessionApply(session, command.op);
      if (lsn.ok()) {
        session.last_lsn_ = lsn.value();
        reply.lsn = lsn.value();
      } else {
        FillError(&reply, lsn.status());
      }
      break;
    }
    case CommandType::kSplit: {
      Result<methods::RecoveryMethod::SplitLsns> lsns =
          db->SessionSplit(session, command.split);
      if (lsns.ok()) {
        session.last_lsn_ = lsns.value().rewrite_lsn;
        reply.lsn = lsns.value().split_lsn;
        reply.lsn2 = lsns.value().rewrite_lsn;
      } else {
        FillError(&reply, lsns.status());
      }
      break;
    }
    case CommandType::kReadSlot: {
      Result<int64_t> value = db->SessionReadSlot(command.page, command.slot);
      if (value.ok()) {
        reply.value = value.value();
      } else {
        FillError(&reply, value.status());
      }
      break;
    }
    case CommandType::kBegin: {
      Result<uint64_t> txn = db->SessionBegin(session);
      if (txn.ok()) {
        reply.txn_id = txn.value();
      } else {
        FillError(&reply, txn.status());
      }
      break;
    }
    case CommandType::kCommit: {
      Result<core::Lsn> acked(core::Lsn{0});
      if (session.txn_id_ != 0) {
        acked = db->SessionCommitTxn(session);
      } else {
        acked = db->log().CommitWait(
            command.lsn != 0 ? command.lsn : session.last_lsn_,
            wal::LogManager::Waiter::kSession);
        if (acked.ok()) db->RecordFirstCommitDuringServing();
      }
      if (acked.ok()) {
        reply.lsn = acked.value();
      } else {
        FillError(&reply, acked.status());
      }
      break;
    }
    case CommandType::kAbort: {
      const Status aborted =
          session.txn_id_ == 0 ? Status::Ok() : db->SessionAbort(session);
      if (!aborted.ok()) FillError(&reply, aborted);
      break;
    }
    case CommandType::kStatus: {
      reply = DispatchStatus(*db);
      break;
    }
    default: {
      FillError(&reply, Status::InvalidArgument(
                            "unknown command type " +
                            std::to_string(static_cast<int>(command.type))));
      break;
    }
  }
  reply.stable_lsn = db->log().stable_lsn();
  return reply;
}

// ---- Wire (de)serialization ----

std::vector<uint8_t> EncodeCommand(const Command& command) {
  wal::PayloadWriter writer;
  writer.U8(static_cast<uint8_t>(command.type));
  switch (command.type) {
    case CommandType::kApply:
      writer.U16(static_cast<uint16_t>(command.op.type));
      writer.U32(command.op.page);
      writer.U8(command.op.blind ? 1 : 0);
      writer.U32(static_cast<uint32_t>(command.op.args.size()));
      writer.Bytes(command.op.args.data(), command.op.args.size());
      break;
    case CommandType::kSplit:
      writer.U8(static_cast<uint8_t>(command.split.transform));
      writer.U32(command.split.src);
      writer.U32(command.split.dst);
      writer.U32(command.split.arg0);
      writer.U32(command.split.arg1);
      break;
    case CommandType::kReadSlot:
      writer.U32(command.page);
      writer.U32(command.slot);
      break;
    case CommandType::kCommit:
      writer.U64(command.lsn);
      break;
    case CommandType::kBegin:
    case CommandType::kAbort:
    case CommandType::kStatus:
      break;
  }
  return writer.Take();
}

Result<Command> DecodeCommand(const std::vector<uint8_t>& bytes) {
  wal::PayloadReader reader(bytes);
  Result<uint8_t> raw_type = reader.U8();
  if (!raw_type.ok()) return raw_type.status();
  if (raw_type.value() < static_cast<uint8_t>(CommandType::kApply) ||
      raw_type.value() > static_cast<uint8_t>(CommandType::kStatus)) {
    return Status::Corruption("command: unknown type tag " +
                              std::to_string(raw_type.value()));
  }
  Command command;
  command.type = static_cast<CommandType>(raw_type.value());
  switch (command.type) {
    case CommandType::kApply: {
      Result<uint16_t> op_type = reader.U16();
      if (!op_type.ok()) return op_type.status();
      command.op.type = static_cast<wal::RecordType>(op_type.value());
      Result<uint32_t> page = reader.U32();
      if (!page.ok()) return page.status();
      command.op.page = page.value();
      Result<uint8_t> blind = reader.U8();
      if (!blind.ok()) return blind.status();
      command.op.blind = blind.value() != 0;
      Result<uint32_t> size = reader.U32();
      if (!size.ok()) return size.status();
      Result<std::vector<uint8_t>> args = reader.Bytes(size.value());
      if (!args.ok()) return args.status();
      command.op.args = std::move(args.value());
      break;
    }
    case CommandType::kSplit: {
      Result<uint8_t> transform = reader.U8();
      if (!transform.ok()) return transform.status();
      command.split.transform =
          static_cast<SplitTransform>(transform.value());
      Result<uint32_t> src = reader.U32();
      if (!src.ok()) return src.status();
      command.split.src = src.value();
      Result<uint32_t> dst = reader.U32();
      if (!dst.ok()) return dst.status();
      command.split.dst = dst.value();
      Result<uint32_t> arg0 = reader.U32();
      if (!arg0.ok()) return arg0.status();
      command.split.arg0 = arg0.value();
      Result<uint32_t> arg1 = reader.U32();
      if (!arg1.ok()) return arg1.status();
      command.split.arg1 = arg1.value();
      break;
    }
    case CommandType::kReadSlot: {
      Result<uint32_t> page = reader.U32();
      if (!page.ok()) return page.status();
      command.page = page.value();
      Result<uint32_t> slot = reader.U32();
      if (!slot.ok()) return slot.status();
      command.slot = slot.value();
      break;
    }
    case CommandType::kCommit: {
      Result<uint64_t> lsn = reader.U64();
      if (!lsn.ok()) return lsn.status();
      command.lsn = lsn.value();
      break;
    }
    case CommandType::kBegin:
    case CommandType::kAbort:
    case CommandType::kStatus:
      break;
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("command: " + std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return command;
}

std::vector<uint8_t> EncodeReply(const Reply& reply) {
  wal::PayloadWriter writer;
  writer.U8(static_cast<uint8_t>(reply.type));
  writer.U8(static_cast<uint8_t>(reply.code));
  writer.U32(static_cast<uint32_t>(reply.message.size()));
  writer.Bytes(reinterpret_cast<const uint8_t*>(reply.message.data()),
               reply.message.size());
  writer.U64(reply.stable_lsn);
  switch (reply.type) {
    case CommandType::kApply:
    case CommandType::kCommit:
      writer.U64(reply.lsn);
      break;
    case CommandType::kSplit:
      writer.U64(reply.lsn);
      writer.U64(reply.lsn2);
      break;
    case CommandType::kReadSlot:
      writer.I64(reply.value);
      break;
    case CommandType::kBegin:
      writer.U64(reply.txn_id);
      break;
    case CommandType::kStatus:
      writer.U8(reply.status.phase);
      writer.U64(reply.status.stable_lsn);
      writer.U64(reply.status.live_sessions);
      writer.U64(reply.status.num_pages);
      writer.U64(reply.status.restarts);
      writer.U8(reply.status.concurrent ? 1 : 0);
      break;
    case CommandType::kAbort:
      break;
  }
  return writer.Take();
}

Result<Reply> DecodeReply(const std::vector<uint8_t>& bytes) {
  wal::PayloadReader reader(bytes);
  Result<uint8_t> raw_type = reader.U8();
  if (!raw_type.ok()) return raw_type.status();
  if (raw_type.value() < static_cast<uint8_t>(CommandType::kApply) ||
      raw_type.value() > static_cast<uint8_t>(CommandType::kStatus)) {
    return Status::Corruption("reply: unknown type tag " +
                              std::to_string(raw_type.value()));
  }
  Reply reply;
  reply.type = static_cast<CommandType>(raw_type.value());
  Result<uint8_t> raw_code = reader.U8();
  if (!raw_code.ok()) return raw_code.status();
  if (raw_code.value() > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("reply: unknown status code " +
                              std::to_string(raw_code.value()));
  }
  reply.code = static_cast<StatusCode>(raw_code.value());
  Result<uint32_t> message_size = reader.U32();
  if (!message_size.ok()) return message_size.status();
  Result<std::vector<uint8_t>> message = reader.Bytes(message_size.value());
  if (!message.ok()) return message.status();
  reply.message.assign(message.value().begin(), message.value().end());
  Result<uint64_t> stable = reader.U64();
  if (!stable.ok()) return stable.status();
  reply.stable_lsn = stable.value();
  switch (reply.type) {
    case CommandType::kApply:
    case CommandType::kCommit: {
      Result<uint64_t> lsn = reader.U64();
      if (!lsn.ok()) return lsn.status();
      reply.lsn = lsn.value();
      break;
    }
    case CommandType::kSplit: {
      Result<uint64_t> lsn = reader.U64();
      if (!lsn.ok()) return lsn.status();
      reply.lsn = lsn.value();
      Result<uint64_t> lsn2 = reader.U64();
      if (!lsn2.ok()) return lsn2.status();
      reply.lsn2 = lsn2.value();
      break;
    }
    case CommandType::kReadSlot: {
      Result<int64_t> value = reader.I64();
      if (!value.ok()) return value.status();
      reply.value = value.value();
      break;
    }
    case CommandType::kBegin: {
      Result<uint64_t> txn = reader.U64();
      if (!txn.ok()) return txn.status();
      reply.txn_id = txn.value();
      break;
    }
    case CommandType::kStatus: {
      Result<uint8_t> phase = reader.U8();
      if (!phase.ok()) return phase.status();
      reply.status.phase = phase.value();
      Result<uint64_t> status_stable = reader.U64();
      if (!status_stable.ok()) return status_stable.status();
      reply.status.stable_lsn = status_stable.value();
      Result<uint64_t> sessions = reader.U64();
      if (!sessions.ok()) return sessions.status();
      reply.status.live_sessions = sessions.value();
      Result<uint64_t> pages = reader.U64();
      if (!pages.ok()) return pages.status();
      reply.status.num_pages = pages.value();
      Result<uint64_t> restarts = reader.U64();
      if (!restarts.ok()) return restarts.status();
      reply.status.restarts = restarts.value();
      Result<uint8_t> concurrent = reader.U8();
      if (!concurrent.ok()) return concurrent.status();
      reply.status.concurrent = concurrent.value() != 0;
      break;
    }
    case CommandType::kAbort:
      break;
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("reply: " + std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return reply;
}

}  // namespace redo::engine
