// Engine-level operations: the deterministic page updates that the
// recovery methods log and replay.
//
// Two shapes, mirroring the paper:
//   - single-page operations (read-modify-write or blind-write one page):
//     the physiological/physical/logical workhorse;
//   - split operations (read one page, write another, then rewrite the
//     source): §6.4's generalized log operations.
//
// Every operation is a pure deterministic function of the pages it
// reads, so redo during recovery regenerates exactly the original
// effects — the property the whole theory rests on.

#ifndef REDO_ENGINE_OPS_H_
#define REDO_ENGINE_OPS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "storage/page.h"
#include "util/status.h"
#include "wal/log_record.h"

namespace redo::engine {

using storage::Page;
using storage::PageId;

/// Cross-page transforms (the §6.4 class: read one page, write another,
/// then rewrite the source). Pure functions of the page payloads.
enum class SplitTransform : uint8_t {
  kSlotHalf = 1,   ///< slot array: move the upper half of the int64 slots
  kBtreeNode = 2,  ///< B-tree node: move the upper half of the entries
  /// Slot transfer (a §7 "new class of logged operation"): move the
  /// value of src[arg0] into dst[arg1]; the rewrite zeroes src[arg0].
  /// Unlike splits, the destination write modifies one slot, so the
  /// operation reads *both* pages (page-granularity read-modify-write).
  kSlotTransfer = 3,
  /// B-tree leaf merge — the split's inverse: append src's (the right
  /// sibling's) entries into dst (the left node) and take over src's
  /// right-sibling pointer; the rewrite empties src. Reads both pages.
  kBtreeMerge = 4,
};

/// True if applying the transform to dst needs dst's prior contents
/// (i.e. the logged operation reads the destination page too).
bool SplitReadsDst(SplitTransform transform);

/// A deterministic update of exactly one page.
struct SinglePageOp {
  wal::RecordType type = wal::RecordType::kSlotWrite;
  PageId page = 0;
  /// Type-specific arguments (encoded; see Encode/Decode helpers).
  std::vector<uint8_t> args;
  /// True if the update does not read the page's prior contents
  /// (physical-style blind write). Slot writes and B-tree ops read.
  bool blind = false;

  friend bool operator==(const SinglePageOp&, const SinglePageOp&) = default;
};

/// Builds a slot write: page[slot] <- value (reads the page).
SinglePageOp MakeSlotWrite(PageId page, uint32_t slot, int64_t value);

/// Builds a blind whole-page format: every slot <- fill (reads nothing).
SinglePageOp MakeBlindFormat(PageId page, int64_t fill);

/// Builds the "remove the moved half" rewrite — the Q of §6.4 (reads and
/// writes the source page). Slot-array transform only.
SinglePageOp MakeSplitRewrite(PageId page, SplitTransform transform);

/// B-tree variant of the split rewrite: also repoints the leaf's
/// right-sibling at the new page.
SinglePageOp MakeBtreeSplitRewrite(PageId page, PageId new_sibling);

/// Builds a B-tree insert / remove of (key, value) on one node page.
SinglePageOp MakeBtreeInsert(PageId page, int64_t key, int64_t value);
SinglePageOp MakeBtreeRemove(PageId page, int64_t key);

/// Formats a page as an empty B-tree node (blind write).
SinglePageOp MakeBtreeInit(PageId page, bool is_leaf, uint32_t aux);

/// Checks that `op` is a single-page op type with well-formed,
/// in-range arguments — everything ApplySinglePageOp checks that does
/// not depend on the page's contents. InvalidArgument otherwise.
/// Callers validate before logging: a record the apply then refuses
/// would stay in the log and fail the next recovery.
Status ValidateSinglePageOp(const SinglePageOp& op);

/// True if whether `page` can take `op` depends on the page's contents
/// (B-tree inserts, removes and node rewrites): ValidateOpOnPage then
/// needs the cached page.
bool OpDependsOnPageShape(const SinglePageOp& op);

/// Checks that `page` has the node shape `op` needs: a B-tree insert an
/// initialized node with a free entry (or the key already present), a
/// remove an initialized node, a kBtreeNode rewrite an initialized
/// source. Everything else passes. Callers check under the page latch,
/// before any record is appended: the apply would refuse or abort.
Status ValidateOpOnPage(const SinglePageOp& op, const Page& page);

/// Applies a single-page op to the page image. Deterministic; returns
/// InvalidArgument on malformed args. Does NOT set the page LSN (the
/// caller tags the page with the log record's LSN).
Status ApplySinglePageOp(const SinglePageOp& op, Page* page);

/// A generalized cross-page operation (§6.4): reads `src` (and, for
/// kSlotTransfer, `dst`), writes `dst`. Deterministic in the payloads.
struct SplitOp {
  SplitTransform transform = SplitTransform::kSlotHalf;
  PageId src = 0;
  PageId dst = 0;
  uint32_t arg0 = 0;  ///< kSlotTransfer: source slot
  uint32_t arg1 = 0;  ///< kSlotTransfer: destination slot

  friend bool operator==(const SplitOp&, const SplitOp&) = default;
};

/// Checks that `op` names a known transform with in-range slot
/// arguments (page ids are the engine's to range-check).
/// InvalidArgument otherwise.
Status ValidateSplitOp(const SplitOp& op);

/// Checks that `src` and `dst` have the node shapes `op` needs: a
/// kBtreeNode split an initialized source (an internal one with an
/// entry to push up), a merge two initialized leaves whose keys fit in
/// dst. Slot transforms pass. Checked under both latches, before any
/// record is appended.
Status ValidateSplitOnPages(const SplitOp& op, const Page& src,
                            const Page& dst);

/// Builds a slot transfer: dst[dst_slot] <- src[src_slot]; the paired
/// rewrite (MakeRewriteForSplit) zeroes src[src_slot].
SplitOp MakeSlotTransfer(PageId src, uint32_t src_slot, PageId dst,
                         uint32_t dst_slot);

/// The source rewrite a cross-page op implies (the Q of §6.4): drop the
/// moved half (splits) or zero the moved slot (transfers).
SinglePageOp MakeRewriteForSplit(const SplitOp& op);

/// Computes dst from src (the P of §6.4). Split transforms overwrite
/// dst entirely; kSlotTransfer updates one slot of dst in place, so
/// `dst` must hold the page's prior contents on entry.
void ApplySplitToDst(const SplitOp& op, const Page& src, Page* dst);

// ---- Record payload (de)serialization ----

std::vector<uint8_t> EncodeSinglePageOp(const SinglePageOp& op);
Result<SinglePageOp> DecodeSinglePageOp(wal::RecordType type,
                                        const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeSplitOp(const SplitOp& op);
Result<SplitOp> DecodeSplitOp(const std::vector<uint8_t>& payload);

// ---- Page images ----
//
// The one page-image format. kPageImage records (physical, partial
// physical, and physiological new-page logging) are one image each; the
// kPageRestore before-images inside kTxnUpdate and kClr payloads embed
// one per action:
//
//   u32 page id | u16 hole offset | u16 hole length | bytes outside the hole
//
// The hole is the page's longest run of zero bytes (the earliest, on a
// tie; length 0 when the page holds no zero byte). The bytes before the
// hole and the bytes after it follow the header back to back. An image
// still describes the whole page, LSN header included: installing it
// writes all Page::kSize bytes, the hole as zeros, so replaying it stays
// a blind overwrite (§6.2).

/// Bytes of the image header; an all-zero page encodes to this alone.
inline constexpr size_t kPageImageHeaderBytes = 8;

/// One image validated in place. `bytes` borrows the payload it was
/// read from: the Page::kSize - hole_length bytes around the hole.
struct PageImageView {
  PageId page = 0;
  uint16_t hole_offset = 0;
  uint16_t hole_length = 0;
  std::span<const uint8_t> bytes;

  /// Writes all Page::kSize bytes of `out`: the logged bytes around the
  /// hole, and zeros in it.
  void InstallInto(Page* out) const;
};

/// Appends the image of `image` (page `page`) to `w`. Finds the hole in
/// one pass over the page, a word at a time: this runs under the log
/// mutex, inside AppendWithLsn's callback.
void AppendPageImage(wal::PayloadWriter& w, PageId page, const Page& image);

/// A kPageImage record payload: one image and nothing else.
std::vector<uint8_t> EncodePageImage(PageId page, const Page& image);

/// Reads one image at `r`'s cursor, consuming exactly its bytes.
/// Corruption on a truncated header, a hole past the page end, or fewer
/// bytes than the hole leaves.
Result<PageImageView> ReadPageImage(wal::PayloadReader& r);

/// A kPageImage payload: ReadPageImage, and Corruption unless the image
/// is the whole payload.
Result<PageImageView> ParsePageImage(const std::vector<uint8_t>& payload);

/// A kPageImage payload as its page id and the page it installs.
Result<std::pair<PageId, Page>> DecodePageImage(
    const std::vector<uint8_t>& payload);

/// Short human-readable description of a record, for diagnostics.
std::string DescribeRecord(const wal::LogRecord& record);

}  // namespace redo::engine

#endif  // REDO_ENGINE_OPS_H_
