#include "redo/plan.h"

#include <optional>
#include <unordered_map>

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

bool BlindFirstTouch(const RedoTask& task, storage::PageId page,
                     bool redo_all) {
  if (!redo_all) return false;
  switch (task.kind) {
    case RedoTaskKind::kPageImage:
      return page == task.image_page;
    case RedoTaskKind::kWholeSplit:
      return page == task.split.dst &&
             !engine::SplitReadsDst(task.split.transform);
    default:
      return false;
  }
}

Result<RedoPlan> BuildRedoPlan(std::vector<wal::LogRecord> records,
                               bool whole_splits) {
  RedoPlan plan;
  plan.tasks.reserve(records.size());
  for (wal::LogRecord& record : records) {
    RedoTask task;
    task.lsn = record.lsn;
    switch (record.type) {
      case wal::RecordType::kCheckpoint:
      case wal::RecordType::kTxnBegin:
      case wal::RecordType::kTxnCommit:
      case wal::RecordType::kTxnEnd:
      case wal::RecordType::kTxnUpdate:
        continue;  // carries no redo work
      case wal::RecordType::kClr: {
        Result<engine::Clr> clr = engine::DecodeClr(record.payload);
        if (!clr.ok()) return clr.status();
        task.kind = RedoTaskKind::kClrRestore;
        task.clr_actions = std::move(clr.value().actions);
        if (task.clr_actions.size() > 1) ++plan.multi_page_tasks;
        break;
      }
      case wal::RecordType::kPageImage: {
        // Peek the page id and validate the length; the raw bytes stay
        // encoded until the owning worker installs them.
        wal::PayloadReader r(record.payload);
        Result<uint32_t> page = r.U32();
        if (!page.ok()) return page.status();
        if (r.remaining() != storage::Page::kSize) {
          return Status::Corruption("page image payload truncated");
        }
        task.kind = RedoTaskKind::kPageImage;
        task.image_page = page.value();
        task.image_payload = std::move(record.payload);
        break;
      }
      case wal::RecordType::kPageSplit: {
        Result<engine::SplitOp> split = engine::DecodeSplitOp(record.payload);
        if (!split.ok()) return split.status();
        task.kind = whole_splits ? RedoTaskKind::kWholeSplit
                                 : RedoTaskKind::kSplitDst;
        task.split = split.value();
        ++plan.multi_page_tasks;
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
        task.op = op.value();
        break;
      }
      default: {
        Result<engine::SinglePageOp> op =
            engine::DecodeSinglePageOp(record.type, record.payload);
        if (!op.ok()) return op.status();
        task.kind = RedoTaskKind::kSinglePage;
        task.op = op.value();
        break;
      }
    }
    plan.tasks.push_back(std::move(task));
  }
  return plan;
}

core::Dag BuildTaskDag(const RedoPlan& plan) {
  core::Dag dag(plan.tasks.size());
  // Per-page conflict chains (§5's edge rule, restricted to this
  // engine's operations): a read conflicts with the page's last write,
  // a write conflicts with the last write and every read since it.
  // Tasks are in ascending LSN order, so every edge runs forward and
  // the graph is acyclic by construction; multi-page tasks appear in
  // two pages' chains, which is where cross-partition edges come from.
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
