#include "redo/plan.h"

#include <string>
#include <utility>

#include "wal/log_manager.h"

namespace redo::par {

std::vector<storage::PageId> RedoTask::Writes() const {
  switch (kind) {
    case RedoTaskKind::kSinglePage:
      return {op.page};
    case RedoTaskKind::kPageImage:
      return {image_page};
    case RedoTaskKind::kSplitDst:
      return {split.dst};
    case RedoTaskKind::kWholeSplit:
      // One atomic task writes the new page and rewrites the source.
      return {split.dst, split.src};
    case RedoTaskKind::kClrRestore: {
      std::vector<storage::PageId> writes;
      writes.reserve(clr_actions.size());
      for (const engine::UndoAction& action : clr_actions) {
        writes.push_back(action.page);
      }
      return writes;
    }
  }
  return {};
}

std::vector<storage::PageId> RedoTask::Reads() const {
  switch (kind) {
    case RedoTaskKind::kSinglePage:
      if (!op.blind) return {op.page};
      return {};
    case RedoTaskKind::kPageImage:
      return {};
    case RedoTaskKind::kSplitDst: {
      std::vector<storage::PageId> reads = {split.src};
      if (engine::SplitReadsDst(split.transform)) reads.push_back(split.dst);
      return reads;
    }
    case RedoTaskKind::kWholeSplit: {
      // src is read *and* written; Reads() reports read-only pages, so
      // only dst qualifies (and only for read-modify-write transforms).
      if (engine::SplitReadsDst(split.transform)) return {split.dst};
      return {};
    }
    case RedoTaskKind::kClrRestore:
      return {};  // restores are absolute: write-only
  }
  return {};
}

Result<std::optional<RedoTask>> DecodeRedoTask(const wal::LogRecord& record,
                                               bool whole_splits) {
  RedoTask task;
  task.lsn = record.lsn;
  switch (record.type) {
    case wal::RecordType::kCheckpoint:
    case wal::RecordType::kTxnBegin:
    case wal::RecordType::kTxnCommit:
    case wal::RecordType::kTxnEnd:
    case wal::RecordType::kTxnUpdate:
      return std::optional<RedoTask>{};  // carries no redo work
    case wal::RecordType::kClr: {
      Result<engine::Clr> clr = engine::DecodeClr(record.payload);
      if (!clr.ok()) return clr.status();
      task.kind = RedoTaskKind::kClrRestore;
      task.clr_actions = std::move(clr.value().actions);
      break;
    }
    case wal::RecordType::kPageImage: {
      // Validate the image in place and keep its page id; the bytes stay
      // in the log until Finish knows whether the image survives.
      Result<engine::PageImageView> image =
          engine::ParsePageImage(record.payload);
      if (!image.ok()) return image.status();
      task.kind = RedoTaskKind::kPageImage;
      task.image_page = image.value().page;
      break;
    }
    case wal::RecordType::kPageSplit: {
      Result<engine::SplitOp> split = engine::DecodeSplitOp(record.payload);
      if (!split.ok()) return split.status();
      task.kind =
          whole_splits ? RedoTaskKind::kWholeSplit : RedoTaskKind::kSplitDst;
      task.split = split.value();
      break;
    }
    case wal::RecordType::kLogicalOp: {
      wal::PayloadReader r(record.payload);
      Result<uint16_t> inner_type = r.U16();
      if (!inner_type.ok()) return inner_type.status();
      Result<std::vector<uint8_t>> inner = r.Bytes(r.remaining());
      if (!inner.ok()) return inner.status();
      Result<engine::SinglePageOp> op = engine::DecodeSinglePageOp(
          static_cast<wal::RecordType>(inner_type.value()), inner.value());
      if (!op.ok()) return op.status();
      task.kind = RedoTaskKind::kSinglePage;
      task.op = std::move(op.value());
      break;
    }
    default: {
      Result<engine::SinglePageOp> op =
          engine::DecodeSinglePageOp(record.type, record.payload);
      if (!op.ok()) return op.status();
      task.kind = RedoTaskKind::kSinglePage;
      task.op = std::move(op.value());
      break;
    }
  }
  return std::optional<RedoTask>{std::move(task)};
}

void RedoPlanBuilder::Add(RedoTask task) {
  const size_t index = plan_.tasks.size();
  if (task.kind == RedoTaskKind::kSplitDst ||
      task.kind == RedoTaskKind::kWholeSplit ||
      (task.kind == RedoTaskKind::kClrRestore &&
       task.clr_actions.size() > 1)) {
    ++plan_.multi_page_tasks;
  }
  if (supersede_images_) {
    // Each page's last toucher, reads included: an image supersedes the
    // page's previous image only if nothing touched the page in between.
    auto touch = [this, index](storage::PageId page) {
      last_toucher_[page] = index;
    };
    switch (task.kind) {
      case RedoTaskKind::kPageImage: {
        const auto [it, first] =
            last_toucher_.try_emplace(task.image_page, index);
        if (!first) {
          RedoTask& previous = plan_.tasks[it->second];
          if (previous.kind == RedoTaskKind::kPageImage) {
            previous.superseded = true;
            ++plan_.images_superseded;
          }
          it->second = index;
        }
        break;
      }
      case RedoTaskKind::kSinglePage:
        touch(task.op.page);
        break;
      case RedoTaskKind::kSplitDst:
      case RedoTaskKind::kWholeSplit:
        touch(task.split.src);
        touch(task.split.dst);
        break;
      case RedoTaskKind::kClrRestore:
        for (const engine::UndoAction& action : task.clr_actions) {
          touch(action.page);
        }
        break;
    }
  }
  plan_.tasks.push_back(std::move(task));
}

Result<RedoPlan> RedoPlanBuilder::Finish(const wal::LogManager& log) && {
  for (RedoTask& task : plan_.tasks) {
    if (task.kind != RedoTaskKind::kPageImage || task.superseded) continue;
    // The one copy of a surviving image: the install later reads it on
    // whichever thread replays the task.
    Result<wal::LogRecord> record = log.StableRecordAt(task.lsn);
    if (!record.ok()) {
      return Status::Corruption("redo plan: image at LSN " +
                                std::to_string(task.lsn) +
                                " unreadable: " + record.status().message());
    }
    if (record.value().type != wal::RecordType::kPageImage ||
        !engine::ParsePageImage(record.value().payload).ok()) {
      return Status::Corruption("redo plan: LSN " + std::to_string(task.lsn) +
                                " no longer holds the planned page image");
    }
    task.image_payload = std::move(record.value().payload);
  }
  return std::move(plan_);
}

core::Dag BuildTaskDag(const RedoPlan& plan) {
  core::Dag dag(plan.tasks.size());
  // Per-page conflict chains (§5's edge rule, restricted to this
  // engine's operations): a read conflicts with the page's last write,
  // a write conflicts with the last write and every read since it.
  // Tasks are in ascending LSN order, so every edge runs forward and
  // the graph is acyclic by construction; multi-page tasks appear in
  // two pages' chains, which is where the chains get bridged.
  struct PageChain {
    std::optional<uint32_t> last_writer;
    std::vector<uint32_t> readers_since_write;
  };
  std::unordered_map<storage::PageId, PageChain> chains;
  for (uint32_t i = 0; i < plan.tasks.size(); ++i) {
    const RedoTask& task = plan.tasks[i];
    for (storage::PageId page : task.Reads()) {
      PageChain& chain = chains[page];
      if (chain.last_writer.has_value() && *chain.last_writer != i) {
        dag.AddEdge(*chain.last_writer, i);  // read-after-write
      }
      chain.readers_since_write.push_back(i);
    }
    for (storage::PageId page : task.Writes()) {
      PageChain& chain = chains[page];
      if (chain.last_writer.has_value() && *chain.last_writer != i) {
        dag.AddEdge(*chain.last_writer, i);  // write-after-write
      }
      for (uint32_t reader : chain.readers_since_write) {
        if (reader != i) dag.AddEdge(reader, i);  // write-after-read
      }
      chain.readers_since_write.clear();
      chain.last_writer = i;
    }
  }
  return dag;
}

}  // namespace redo::par
