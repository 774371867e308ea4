#include "engine/workload.h"

#include <sstream>

namespace redo::engine {

std::string Action::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kSlotWrite:
      out << "write p" << page << "[" << slot << "]=" << value;
      break;
    case Kind::kBlindFormat:
      out << "format p" << page << "=" << value;
      break;
    case Kind::kSplit:
      out << "split p" << split_src << "->p" << split_dst;
      break;
    case Kind::kTransfer:
      out << "transfer p" << split_src << "[" << slot << "]->p" << split_dst
          << "[" << slot2 << "]";
      break;
    case Kind::kFlushPage:
      out << "flush p" << page;
      break;
    case Kind::kCheckpoint:
      out << "checkpoint";
      break;
    case Kind::kForceLog:
      out << "force-log";
      break;
  }
  return out.str();
}

Workload::Workload(const WorkloadOptions& options, uint64_t seed)
    : options_(options),
      rng_(seed),
      zipf_(options.num_pages, options.zipf_skew) {
  REDO_CHECK_GE(options.num_pages, 2u);
}

Action Workload::Next() {
  Action action;
  const double roll = rng_.NextDouble();
  double threshold = options_.flush_probability;
  if (roll < threshold) {
    action.kind = Action::Kind::kFlushPage;
    action.page = static_cast<storage::PageId>(zipf_.Sample(rng_));
    return action;
  }
  threshold += options_.checkpoint_probability;
  if (roll < threshold) {
    action.kind = Action::Kind::kCheckpoint;
    return action;
  }
  threshold += options_.force_log_probability;
  if (roll < threshold) {
    action.kind = Action::Kind::kForceLog;
    return action;
  }
  threshold += options_.split_probability;
  if (roll < threshold) {
    action.kind = Action::Kind::kSplit;
    action.split_src = static_cast<storage::PageId>(zipf_.Sample(rng_));
    do {
      action.split_dst =
          static_cast<storage::PageId>(rng_.Below(options_.num_pages));
    } while (action.split_dst == action.split_src);
    return action;
  }
  threshold += options_.transfer_probability;
  if (roll < threshold) {
    action.kind = Action::Kind::kTransfer;
    action.split_src = static_cast<storage::PageId>(zipf_.Sample(rng_));
    do {
      action.split_dst =
          static_cast<storage::PageId>(rng_.Below(options_.num_pages));
    } while (action.split_dst == action.split_src);
    action.slot = static_cast<uint32_t>(rng_.Below(storage::Page::NumSlots()));
    action.slot2 = static_cast<uint32_t>(rng_.Below(storage::Page::NumSlots()));
    return action;
  }
  threshold += options_.blind_format_probability;
  if (roll < threshold) {
    action.kind = Action::Kind::kBlindFormat;
    action.page = static_cast<storage::PageId>(zipf_.Sample(rng_));
    action.value = next_value_++;
    return action;
  }
  action.kind = Action::Kind::kSlotWrite;
  action.page = static_cast<storage::PageId>(zipf_.Sample(rng_));
  action.slot =
      static_cast<uint32_t>(rng_.Below(storage::Page::NumSlots()));
  action.value = next_value_++;
  return action;
}

Status ExecuteAction(MiniDb& db, const Action& action, Rng& rng) {
  switch (action.kind) {
    case Action::Kind::kSlotWrite:
      return db.NewSession()
          .WriteSlot(action.page, action.slot, action.value)
          .status();
    case Action::Kind::kBlindFormat:
      return db.NewSession()
          .Apply(MakeBlindFormat(action.page, action.value))
          .status();
    case Action::Kind::kSplit:
      return db.NewSession()
          .Split(SplitOp{SplitTransform::kSlotHalf, action.split_src,
                         action.split_dst})
          .status();
    case Action::Kind::kTransfer:
      return db.NewSession()
          .Split(MakeSlotTransfer(action.split_src, action.slot,
                                  action.split_dst, action.slot2))
          .status();
    case Action::Kind::kFlushPage:
      return db.MaybeFlushPage(action.page);
    case Action::Kind::kCheckpoint:
      return db.Checkpoint();
    case Action::Kind::kForceLog: {
      const core::Lsn last = db.log().last_lsn();
      if (last == 0) return Status::Ok();
      return db.log().Force(1 + rng.Below(last));
    }
  }
  return Status::InvalidArgument("unknown action kind");
}

}  // namespace redo::engine
