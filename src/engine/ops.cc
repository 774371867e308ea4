#include "engine/ops.h"

#include <bit>
#include <cstring>
#include <sstream>

#include "btree/node_format.h"

namespace redo::engine {

namespace {

constexpr size_t kHalfSlots = Page::NumSlots() / 2;

}  // namespace

SinglePageOp MakeSlotWrite(PageId page, uint32_t slot, int64_t value) {
  wal::PayloadWriter w;
  w.U32(slot).I64(value);
  return SinglePageOp{wal::RecordType::kSlotWrite, page, w.Take(),
                      /*blind=*/false};
}

SinglePageOp MakeBlindFormat(PageId page, int64_t fill) {
  wal::PayloadWriter w;
  w.U32(0xffffffff).I64(fill);
  return SinglePageOp{wal::RecordType::kSlotWrite, page, w.Take(),
                      /*blind=*/true};
}

SinglePageOp MakeSplitRewrite(PageId page, SplitTransform transform) {
  REDO_CHECK(transform == SplitTransform::kSlotHalf)
      << "B-tree rewrites carry the new sibling id; use MakeBtreeSplitRewrite";
  wal::PayloadWriter w;
  w.U8(static_cast<uint8_t>(transform)).U32(0);
  return SinglePageOp{wal::RecordType::kPageRewrite, page, w.Take(),
                      /*blind=*/false};
}

bool SplitReadsDst(SplitTransform transform) {
  return transform == SplitTransform::kSlotTransfer ||
         transform == SplitTransform::kBtreeMerge;
}

SplitOp MakeSlotTransfer(PageId src, uint32_t src_slot, PageId dst,
                         uint32_t dst_slot) {
  REDO_CHECK_LT(src_slot, Page::NumSlots());
  REDO_CHECK_LT(dst_slot, Page::NumSlots());
  return SplitOp{SplitTransform::kSlotTransfer, src, dst, src_slot, dst_slot};
}

SinglePageOp MakeRewriteForSplit(const SplitOp& op) {
  switch (op.transform) {
    case SplitTransform::kSlotHalf:
      return MakeSplitRewrite(op.src, op.transform);
    case SplitTransform::kBtreeNode:
      return MakeBtreeSplitRewrite(op.src, op.dst);
    case SplitTransform::kSlotTransfer: {
      // Zero the moved slot: encoded as a rewrite carrying the slot.
      wal::PayloadWriter w;
      w.U8(static_cast<uint8_t>(op.transform)).U32(op.arg0);
      return SinglePageOp{wal::RecordType::kPageRewrite, op.src, w.Take(),
                          /*blind=*/false};
    }
    case SplitTransform::kBtreeMerge: {
      // Empty the merged-away right node (a blind re-format: its
      // contents moved into dst).
      wal::PayloadWriter w;
      w.U8(static_cast<uint8_t>(op.transform)).U32(0);
      return SinglePageOp{wal::RecordType::kPageRewrite, op.src, w.Take(),
                          /*blind=*/true};
    }
  }
  REDO_CHECK(false) << "unknown split transform";
  return SinglePageOp{};
}

SinglePageOp MakeBtreeSplitRewrite(PageId page, PageId new_sibling) {
  wal::PayloadWriter w;
  w.U8(static_cast<uint8_t>(SplitTransform::kBtreeNode)).U32(new_sibling);
  return SinglePageOp{wal::RecordType::kPageRewrite, page, w.Take(),
                      /*blind=*/false};
}

SinglePageOp MakeBtreeInsert(PageId page, int64_t key, int64_t value) {
  wal::PayloadWriter w;
  w.I64(key).I64(value);
  return SinglePageOp{wal::RecordType::kBtreeInsert, page, w.Take(),
                      /*blind=*/false};
}

SinglePageOp MakeBtreeRemove(PageId page, int64_t key) {
  wal::PayloadWriter w;
  w.I64(key);
  return SinglePageOp{wal::RecordType::kBtreeRemove, page, w.Take(),
                      /*blind=*/false};
}

SinglePageOp MakeBtreeInit(PageId page, bool is_leaf, uint32_t aux) {
  wal::PayloadWriter w;
  w.U8(is_leaf ? 1 : 0).U32(aux);
  return SinglePageOp{wal::RecordType::kBtreeInit, page, w.Take(),
                      /*blind=*/true};
}

Status ValidateSinglePageOp(const SinglePageOp& op) {
  wal::PayloadReader r(op.args);
  switch (op.type) {
    case wal::RecordType::kSlotWrite: {
      Result<uint32_t> slot = r.U32();
      if (!slot.ok()) return slot.status();
      Result<int64_t> value = r.I64();
      if (!value.ok()) return value.status();
      if (slot.value() != 0xffffffff && slot.value() >= Page::NumSlots()) {
        return Status::InvalidArgument("slot out of range");
      }
      return Status::Ok();
    }
    case wal::RecordType::kPageRewrite: {
      Result<uint8_t> transform = r.U8();
      if (!transform.ok()) return transform.status();
      Result<uint32_t> aux = r.U32();
      if (!aux.ok()) return aux.status();
      switch (static_cast<SplitTransform>(transform.value())) {
        case SplitTransform::kSlotHalf:
        case SplitTransform::kBtreeNode:
        case SplitTransform::kBtreeMerge:
          return Status::Ok();
        case SplitTransform::kSlotTransfer:
          if (aux.value() >= Page::NumSlots()) {
            return Status::InvalidArgument("transfer slot out of range");
          }
          return Status::Ok();
      }
      return Status::InvalidArgument("unknown split transform");
    }
    case wal::RecordType::kBtreeInsert: {
      Result<int64_t> key = r.I64();
      if (!key.ok()) return key.status();
      Result<int64_t> value = r.I64();
      return value.ok() ? Status::Ok() : value.status();
    }
    case wal::RecordType::kBtreeRemove: {
      Result<int64_t> key = r.I64();
      return key.ok() ? Status::Ok() : key.status();
    }
    case wal::RecordType::kBtreeInit: {
      Result<uint8_t> is_leaf = r.U8();
      if (!is_leaf.ok()) return is_leaf.status();
      Result<uint32_t> aux = r.U32();
      return aux.ok() ? Status::Ok() : aux.status();
    }
    default:
      return Status::InvalidArgument("not a single-page op record type");
  }
}

Status ValidateSplitOp(const SplitOp& op) {
  switch (op.transform) {
    case SplitTransform::kSlotHalf:
    case SplitTransform::kBtreeNode:
    case SplitTransform::kBtreeMerge:
      return Status::Ok();
    case SplitTransform::kSlotTransfer:
      if (op.arg0 >= Page::NumSlots() || op.arg1 >= Page::NumSlots()) {
        return Status::InvalidArgument("transfer slot out of range");
      }
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown split transform");
}

bool OpDependsOnPageShape(const SinglePageOp& op) {
  return op.type == wal::RecordType::kBtreeInsert ||
         op.type == wal::RecordType::kBtreeRemove ||
         op.type == wal::RecordType::kPageRewrite;
}

Status ValidateOpOnPage(const SinglePageOp& op, const Page& page) {
  const btree::NodeRef node(page);
  wal::PayloadReader r(op.args);
  switch (op.type) {
    case wal::RecordType::kBtreeInsert: {
      Result<int64_t> key = r.I64();
      if (!key.ok()) return key.status();
      if (!node.initialized()) {
        return Status::InvalidArgument("btree insert into uninitialized node");
      }
      if (node.count() >= btree::NodeRef::Capacity() &&
          !node.Contains(key.value())) {
        return Status::FailedPrecondition("btree node full");
      }
      return Status::Ok();
    }
    case wal::RecordType::kBtreeRemove:
      if (!node.initialized()) {
        return Status::InvalidArgument("btree remove from uninitialized node");
      }
      return Status::Ok();
    case wal::RecordType::kPageRewrite: {
      Result<uint8_t> transform = r.U8();
      if (!transform.ok()) return transform.status();
      if (static_cast<SplitTransform>(transform.value()) ==
              SplitTransform::kBtreeNode &&
          !node.initialized()) {
        return Status::InvalidArgument("btree rewrite of uninitialized node");
      }
      return Status::Ok();
    }
    default:
      return Status::Ok();
  }
}

Status ValidateSplitOnPages(const SplitOp& op, const Page& src,
                            const Page& dst) {
  const btree::NodeRef from(src);
  switch (op.transform) {
    case SplitTransform::kBtreeNode:
      if (!from.initialized()) {
        return Status::InvalidArgument("btree split of uninitialized node");
      }
      if (!from.is_leaf() && from.count() == 0) {
        return Status::InvalidArgument(
            "btree split of an internal node with no entry to push up");
      }
      return Status::Ok();
    case SplitTransform::kBtreeMerge: {
      const btree::NodeRef into(dst);
      if (!from.initialized() || !into.initialized() || !from.is_leaf() ||
          !into.is_leaf()) {
        return Status::InvalidArgument("btree merge needs two leaves");
      }
      uint32_t merged = into.count();
      for (uint32_t i = 0; i < from.count(); ++i) {
        if (!into.Contains(from.key(i))) ++merged;
      }
      if (merged > btree::NodeRef::Capacity()) {
        return Status::FailedPrecondition("btree merge overflows dst");
      }
      return Status::Ok();
    }
    case SplitTransform::kSlotHalf:
    case SplitTransform::kSlotTransfer:
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown split transform");
}

Status ApplySinglePageOp(const SinglePageOp& op, Page* page) {
  wal::PayloadReader r(op.args);
  switch (op.type) {
    case wal::RecordType::kSlotWrite: {
      Result<uint32_t> slot = r.U32();
      if (!slot.ok()) return slot.status();
      Result<int64_t> value = r.I64();
      if (!value.ok()) return value.status();
      if (slot.value() == 0xffffffff) {  // blind whole-page format
        for (size_t i = 0; i < Page::NumSlots(); ++i) {
          page->WriteSlot(i, value.value());
        }
        return Status::Ok();
      }
      if (slot.value() >= Page::NumSlots()) {
        return Status::InvalidArgument("slot out of range");
      }
      page->WriteSlot(slot.value(), value.value());
      return Status::Ok();
    }
    case wal::RecordType::kPageRewrite: {
      Result<uint8_t> transform = r.U8();
      if (!transform.ok()) return transform.status();
      Result<uint32_t> aux = r.U32();
      if (!aux.ok()) return aux.status();
      switch (static_cast<SplitTransform>(transform.value())) {
        case SplitTransform::kSlotHalf:
          for (size_t i = kHalfSlots; i < Page::NumSlots(); ++i) {
            page->WriteSlot(i, 0);
          }
          return Status::Ok();
        case SplitTransform::kBtreeNode:
          btree::SplitNodeLowerRewrite(page, aux.value());
          return Status::Ok();
        case SplitTransform::kSlotTransfer:
          if (aux.value() >= Page::NumSlots()) {
            return Status::InvalidArgument("transfer slot out of range");
          }
          page->WriteSlot(aux.value(), 0);
          return Status::Ok();
        case SplitTransform::kBtreeMerge: {
          btree::NodeRef node(page);
          node.InitLeaf(/*right_sibling=*/0);
          return Status::Ok();
        }
      }
      return Status::InvalidArgument("unknown split transform");
    }
    case wal::RecordType::kBtreeInsert: {
      Result<int64_t> key = r.I64();
      if (!key.ok()) return key.status();
      Result<int64_t> value = r.I64();
      if (!value.ok()) return value.status();
      btree::NodeRef node(page);
      if (!node.initialized()) {
        return Status::InvalidArgument("btree insert into uninitialized node");
      }
      if (!node.Insert(key.value(), static_cast<uint64_t>(value.value()))) {
        return Status::FailedPrecondition("btree node full");
      }
      return Status::Ok();
    }
    case wal::RecordType::kBtreeRemove: {
      Result<int64_t> key = r.I64();
      if (!key.ok()) return key.status();
      btree::NodeRef node(page);
      if (!node.initialized()) {
        return Status::InvalidArgument("btree remove from uninitialized node");
      }
      node.Remove(key.value());  // removing an absent key is a no-op
      return Status::Ok();
    }
    case wal::RecordType::kBtreeInit: {
      Result<uint8_t> is_leaf = r.U8();
      if (!is_leaf.ok()) return is_leaf.status();
      Result<uint32_t> aux = r.U32();
      if (!aux.ok()) return aux.status();
      btree::NodeRef node(page);
      if (is_leaf.value() != 0) {
        node.InitLeaf(aux.value());
      } else {
        node.InitInternal(aux.value());
      }
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument("not a single-page op record type");
  }
}

void ApplySplitToDst(const SplitOp& op, const Page& src, Page* dst) {
  switch (op.transform) {
    case SplitTransform::kSlotHalf: {
      for (size_t i = 0; i < kHalfSlots; ++i) {
        dst->WriteSlot(i, src.ReadSlot(kHalfSlots + i));
      }
      for (size_t i = kHalfSlots; i < Page::NumSlots(); ++i) {
        dst->WriteSlot(i, 0);
      }
      return;
    }
    case SplitTransform::kBtreeNode:
      btree::SplitNodeUpper(src, dst);
      return;
    case SplitTransform::kSlotTransfer:
      // In-place single-slot update: dst keeps its other contents.
      dst->WriteSlot(op.arg1, src.ReadSlot(op.arg0));
      return;
    case SplitTransform::kBtreeMerge: {
      const btree::NodeRef from(src);
      btree::NodeRef into(dst);
      REDO_CHECK(from.initialized() && into.initialized());
      REDO_CHECK(from.is_leaf() && into.is_leaf());
      for (uint32_t i = 0; i < from.count(); ++i) {
        REDO_CHECK(into.Insert(from.key(i), from.payload(i)));
      }
      into.set_aux(from.aux());  // bypass the emptied node in the chain
      return;
    }
  }
  REDO_CHECK(false) << "unknown split transform";
}

std::vector<uint8_t> EncodeSinglePageOp(const SinglePageOp& op) {
  wal::PayloadWriter w;
  w.U32(op.page).U8(op.blind ? 1 : 0);
  w.Bytes(op.args.data(), op.args.size());
  return w.Take();
}

Result<SinglePageOp> DecodeSinglePageOp(wal::RecordType type,
                                        const std::vector<uint8_t>& payload) {
  wal::PayloadReader r(payload);
  Result<uint32_t> page = r.U32();
  if (!page.ok()) return page.status();
  Result<uint8_t> blind = r.U8();
  if (!blind.ok()) return blind.status();
  Result<std::vector<uint8_t>> args = r.Bytes(r.remaining());
  if (!args.ok()) return args.status();
  return SinglePageOp{type, page.value(), std::move(args).value(),
                      blind.value() != 0};
}

std::vector<uint8_t> EncodeSplitOp(const SplitOp& op) {
  wal::PayloadWriter w;
  w.U8(static_cast<uint8_t>(op.transform)).U32(op.src).U32(op.dst);
  w.U32(op.arg0).U32(op.arg1);
  return w.Take();
}

Result<SplitOp> DecodeSplitOp(const std::vector<uint8_t>& payload) {
  wal::PayloadReader r(payload);
  Result<uint8_t> transform = r.U8();
  if (!transform.ok()) return transform.status();
  Result<uint32_t> src = r.U32();
  if (!src.ok()) return src.status();
  Result<uint32_t> dst = r.U32();
  if (!dst.ok()) return dst.status();
  Result<uint32_t> arg0 = r.U32();
  if (!arg0.ok()) return arg0.status();
  Result<uint32_t> arg1 = r.U32();
  if (!arg1.ok()) return arg1.status();
  if (!r.AtEnd()) return Status::Corruption("split op: bytes past the op");
  return SplitOp{static_cast<SplitTransform>(transform.value()), src.value(),
                 dst.value(), arg0.value(), arg1.value()};
}

namespace {

struct ZeroHole {
  size_t offset = 0;
  size_t length = 0;
};

// The page's longest run of zero bytes, the earliest on a tie, in one
// pass a word at a time. A nonzero word ends the run in progress at its
// first nonzero byte and starts the next run after its last one. A run
// inside one word is at most six bytes long, so a word's inner bytes
// are looked at only while no longer run has been seen.
ZeroHole FindZeroHole(const Page& page) {
  constexpr size_t kWord = sizeof(uint64_t);
  constexpr bool kLittle = std::endian::native == std::endian::little;
  const uint8_t* bytes = page.bytes().data();
  ZeroHole best;
  size_t run_start = 0;
  auto close_run = [&](size_t end) {
    if (end - run_start > best.length) best = {run_start, end - run_start};
  };
  for (size_t offset = 0; offset < Page::kSize; offset += kWord) {
    uint64_t word;
    std::memcpy(&word, bytes + offset, kWord);
    if (word == 0) continue;
    // Zero bytes before the word's first nonzero byte, and after its
    // last, in memory order.
    const size_t lead = static_cast<size_t>(
        (kLittle ? std::countr_zero(word) : std::countl_zero(word)) / 8);
    const size_t trail = static_cast<size_t>(
        (kLittle ? std::countl_zero(word) : std::countr_zero(word)) / 8);
    close_run(offset + lead);
    if (best.length < kWord - 2) {
      run_start = offset + lead + 1;
      for (size_t i = run_start; i < offset + kWord - trail; ++i) {
        if (bytes[i] != 0) {
          run_start = i + 1;
        } else if (i + 1 - run_start > best.length) {
          best = {run_start, i + 1 - run_start};
        }
      }
    }
    run_start = offset + kWord - trail;
  }
  close_run(Page::kSize);
  return best;
}

}  // namespace

void PageImageView::InstallInto(Page* out) const {
  uint8_t* dst = out->bytes().data();
  std::memcpy(dst, bytes.data(), hole_offset);
  std::memset(dst + hole_offset, 0, hole_length);
  const size_t tail = hole_offset + hole_length;
  std::memcpy(dst + tail, bytes.data() + hole_offset, Page::kSize - tail);
}

void AppendPageImage(wal::PayloadWriter& w, PageId page, const Page& image) {
  const ZeroHole hole = FindZeroHole(image);
  const uint8_t* bytes = image.bytes().data();
  const size_t tail = hole.offset + hole.length;
  w.U32(page)
      .U16(static_cast<uint16_t>(hole.offset))
      .U16(static_cast<uint16_t>(hole.length));
  w.Bytes(bytes, hole.offset).Bytes(bytes + tail, Page::kSize - tail);
}

std::vector<uint8_t> EncodePageImage(PageId page, const Page& image) {
  wal::PayloadWriter w;
  AppendPageImage(w, page, image);
  return w.Take();
}

Result<PageImageView> ReadPageImage(wal::PayloadReader& r) {
  Result<uint32_t> page = r.U32();
  if (!page.ok()) return page.status();
  Result<uint16_t> hole_offset = r.U16();
  if (!hole_offset.ok()) return hole_offset.status();
  Result<uint16_t> hole_length = r.U16();
  if (!hole_length.ok()) return hole_length.status();
  if (size_t{hole_offset.value()} + hole_length.value() > Page::kSize) {
    return Status::Corruption("page image: hole past the page end");
  }
  Result<std::span<const uint8_t>> bytes =
      r.View(Page::kSize - hole_length.value());
  if (!bytes.ok()) return Status::Corruption("page image: truncated bytes");
  return PageImageView{page.value(), hole_offset.value(), hole_length.value(),
                       bytes.value()};
}

Result<PageImageView> ParsePageImage(const std::vector<uint8_t>& payload) {
  wal::PayloadReader r(payload);
  Result<PageImageView> image = ReadPageImage(r);
  if (image.ok() && !r.AtEnd()) {
    return Status::Corruption("page image: bytes past the image");
  }
  return image;
}

Result<std::pair<PageId, Page>> DecodePageImage(
    const std::vector<uint8_t>& payload) {
  Result<PageImageView> image = ParsePageImage(payload);
  if (!image.ok()) return image.status();
  Page page;
  image.value().InstallInto(&page);
  return std::make_pair(image.value().page, page);
}

std::string DescribeRecord(const wal::LogRecord& record) {
  std::ostringstream out;
  out << "lsn=" << record.lsn << " ";
  switch (record.type) {
    case wal::RecordType::kSlotWrite:
      out << "slot-write";
      break;
    case wal::RecordType::kPageImage:
      out << "page-image";
      break;
    case wal::RecordType::kLogicalOp:
      out << "logical-op";
      break;
    case wal::RecordType::kPageSplit:
      out << "page-split";
      break;
    case wal::RecordType::kPageRewrite:
      out << "page-rewrite";
      break;
    case wal::RecordType::kCheckpoint:
      out << "checkpoint";
      break;
    case wal::RecordType::kBtreeInsert:
      out << "btree-insert";
      break;
    case wal::RecordType::kBtreeRemove:
      out << "btree-remove";
      break;
    case wal::RecordType::kBtreeInit:
      out << "btree-init";
      break;
    case wal::RecordType::kTxnBegin:
      out << "txn-begin";
      break;
    case wal::RecordType::kTxnCommit:
      out << "txn-commit";
      break;
    case wal::RecordType::kTxnEnd:
      out << "txn-end";
      break;
    case wal::RecordType::kTxnUpdate:
      out << "txn-update";
      break;
    case wal::RecordType::kClr:
      out << "clr";
      break;
  }
  out << " (" << record.payload.size() << "B)";
  return out.str();
}

}  // namespace redo::engine
