// The page-image codec (engine/ops.h): an image is the page id, the
// page's longest run of zero bytes (the hole), and the bytes outside
// it. These tests pin the format's size rules and its refusals, and
// mutate encoded kPageImage, kTxnUpdate, kClr and kCheckpoint payloads
// byte by byte: every mutant must decode or come back as a diagnosed
// Status.

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/ops.h"
#include "engine/txn.h"
#include "util/rng.h"

namespace redo::engine {
namespace {

// The raw layout this codec replaced: page id + every page byte.
constexpr size_t kRawImageBytes = sizeof(uint32_t) + Page::kSize;

// A page whose bytes are all nonzero except [hole_offset, hole_end).
Page PageWithHole(size_t hole_offset, size_t hole_end) {
  Page page;
  std::span<uint8_t> bytes = page.bytes();
  for (size_t i = 0; i < Page::kSize; ++i) {
    bytes[i] = (i >= hole_offset && i < hole_end)
                   ? 0
                   : static_cast<uint8_t>(1 + i % 251);
  }
  return page;
}

PageImageView Parse(const std::vector<uint8_t>& payload) {
  Result<PageImageView> image = ParsePageImage(payload);
  REDO_CHECK(image.ok()) << image.status().ToString();
  return image.value();
}

void ExpectRoundTrip(const Page& page, size_t hole_offset,
                     size_t hole_length) {
  const std::vector<uint8_t> payload = EncodePageImage(7, page);
  const PageImageView image = Parse(payload);
  EXPECT_EQ(image.page, 7u);
  EXPECT_EQ(image.hole_offset, hole_offset);
  EXPECT_EQ(image.hole_length, hole_length);
  EXPECT_EQ(payload.size(),
            kPageImageHeaderBytes + Page::kSize - hole_length);
  Result<std::pair<PageId, Page>> decoded = DecodePageImage(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().first, 7u);
  EXPECT_TRUE(decoded.value().second == page);
}

TEST(PageImageCodecTest, RoundTripsHoleAtTheStart) {
  ExpectRoundTrip(PageWithHole(0, 1000), 0, 1000);
}

TEST(PageImageCodecTest, RoundTripsHoleInTheMiddle) {
  ExpectRoundTrip(PageWithHole(1237, 3001), 1237, 3001 - 1237);
}

TEST(PageImageCodecTest, RoundTripsHoleAtTheEnd) {
  ExpectRoundTrip(PageWithHole(90, Page::kSize), 90, Page::kSize - 90);
}

TEST(PageImageCodecTest, PageWithoutZeroByteCostsFourBytesMoreThanRaw) {
  const Page page = PageWithHole(0, 0);
  ExpectRoundTrip(page, 0, 0);
  EXPECT_EQ(EncodePageImage(7, page).size(), kRawImageBytes + 4);
}

TEST(PageImageCodecTest, AllZeroPageEncodesToTheHeader) {
  const Page zeroed;
  ExpectRoundTrip(zeroed, 0, Page::kSize);
  EXPECT_EQ(EncodePageImage(7, zeroed).size(), kPageImageHeaderBytes);
}

TEST(PageImageCodecTest, HoleIsTheLongestZeroRunAndTheEarliestOnATie) {
  // Runs inside one word, across words, and of equal length: the scan
  // goes a word at a time but must still find the exact longest run.
  Page page = PageWithHole(0, 0);
  std::span<uint8_t> bytes = page.bytes();
  auto zero = [&bytes](size_t from, size_t to) {
    std::memset(bytes.data() + from, 0, to - from);
  };
  zero(9, 11);   // 2 bytes inside word 1
  zero(17, 22);  // 5 bytes inside word 2
  ExpectRoundTrip(page, 17, 5);
  zero(29, 35);  // 6 bytes across words 3 and 4
  ExpectRoundTrip(page, 29, 6);
  zero(100, 106);  // 6 bytes across words again: a tie, so not the hole
  zero(201, 207);  // 6 bytes inside word 25: a tie too
  zero(3000, 3005);  // 5 bytes: shorter
  ExpectRoundTrip(page, 29, 6);
  zero(4000, 4007);  // 7 bytes, the start of word 500: longest
  ExpectRoundTrip(page, 4000, 7);
}

TEST(PageImageCodecTest, InstallWritesEveryByte) {
  // The install is blind: whatever the frame held, the hole reads zero
  // afterwards and every other byte is the image's.
  const Page page = PageWithHole(512, 3584);
  const std::vector<uint8_t> payload = EncodePageImage(1, page);
  const PageImageView image = Parse(payload);
  Page frame = PageWithHole(0, 0);
  frame.set_lsn(99);
  image.InstallInto(&frame);
  EXPECT_TRUE(frame == page);
}

TEST(PageImageCodecTest, RefusesHolePastThePageEnd) {
  wal::PayloadWriter w;
  w.U32(1).U16(4000).U16(97);  // 4000 + 97 > 4096
  w.Bytes(std::vector<uint8_t>(Page::kSize - 97, 1).data(),
          Page::kSize - 97);
  const Result<PageImageView> image = ParsePageImage(w.Take());
  EXPECT_EQ(image.status().code(), StatusCode::kCorruption);
}

TEST(PageImageCodecTest, RefusesByteCountThatDoesNotMatchTheHole) {
  std::vector<uint8_t> payload = EncodePageImage(1, PageWithHole(100, 900));
  payload.push_back(1);  // one byte more than the hole leaves
  EXPECT_EQ(ParsePageImage(payload).status().code(), StatusCode::kCorruption);
  payload.resize(payload.size() - 2);  // one byte fewer
  EXPECT_EQ(ParsePageImage(payload).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(DecodePageImage(payload).status().code(), StatusCode::kCorruption);
}

TEST(PageImageCodecTest, RefusesTruncatedHeader) {
  const std::vector<uint8_t> payload = EncodePageImage(1, Page());
  for (size_t size = 0; size < kPageImageHeaderBytes; ++size) {
    const std::vector<uint8_t> truncated(payload.begin(),
                                         payload.begin() + size);
    EXPECT_EQ(ParsePageImage(truncated).status().code(),
              StatusCode::kCorruption)
        << size << " header bytes";
  }
}

TEST(PageImageCodecTest, BeforeImagesUseTheSameFormat) {
  // A kPageRestore's bytes are the image codec's: a near-empty page's
  // before-image costs the header and what the page holds.
  UndoAction restore;
  restore.kind = UndoAction::Kind::kPageRestore;
  restore.page = 5;
  restore.image.WriteSlot(3, 42);
  TxnUpdate update{1, 0, {restore}};
  const std::vector<uint8_t> payload = EncodeTxnUpdate(update);
  // txn id, prev LSN, action count, kind byte, then the image.
  const size_t fixed = 8 + 8 + 4 + 1;
  EXPECT_EQ(payload.size(),
            fixed + EncodePageImage(5, restore.image.page()).size());
  EXPECT_LT(payload.size(), 64u);
  Result<TxnUpdate> decoded = DecodeTxnUpdate(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().actions[0].page, 5u);
  EXPECT_TRUE(decoded.value().actions[0].image.page() ==
              restore.image.page());
}

// ---- Decoders that refuse garbage ----

// Every single-byte flip and every truncation of `payload` must decode
// or return a diagnosed Corruption; neither may crash. Unless
// `prefixes_decode`, no truncation decodes: the format's last byte is
// one it needs. Returns how many flips were refused.
size_t SweepMutants(const std::vector<uint8_t>& payload,
                    const std::function<Status(const std::vector<uint8_t>&)>&
                        decode,
                    uint64_t seed, bool prefixes_decode) {
  if (!decode(payload).ok()) {
    ADD_FAILURE() << "the unmutated payload must decode";
    return 0;
  }
  Rng rng(seed);
  size_t refused = 0;
  std::vector<uint8_t> mutant = payload;
  for (size_t i = 0; i < payload.size(); ++i) {
    for (const uint8_t mask :
         {uint8_t{0xff}, static_cast<uint8_t>(1 + rng.Below(255))}) {
      mutant[i] ^= mask;
      const Status status = decode(mutant);
      if (!status.ok()) {
        ++refused;
        EXPECT_EQ(status.code(), StatusCode::kCorruption)
            << "flip at " << i << ": " << status.ToString();
        EXPECT_FALSE(status.message().empty()) << "flip at " << i;
      }
      mutant[i] = payload[i];
    }
  }
  for (size_t size = 0; size < payload.size(); ++size) {
    const std::vector<uint8_t> truncated(payload.begin(),
                                         payload.begin() + size);
    const Status status = decode(truncated);
    if (prefixes_decode && status.ok()) continue;
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << "truncated to " << size << ": " << status.ToString();
    EXPECT_FALSE(status.message().empty()) << "truncated to " << size;
  }
  return refused;
}

// SweepMutants for a format that needs its last byte, some header flip
// of which must be refused.
void MutateAndDecode(const std::vector<uint8_t>& payload,
                     const std::function<Status(const std::vector<uint8_t>&)>&
                         decode,
                     uint64_t seed) {
  EXPECT_GT(SweepMutants(payload, decode, seed, /*prefixes_decode=*/false),
            0u)
      << "some header flip must be refused";
}

Status DecodeImageStatus(const std::vector<uint8_t>& payload) {
  return DecodePageImage(payload).status();
}
Status DecodeUpdateStatus(const std::vector<uint8_t>& payload) {
  return DecodeTxnUpdate(payload).status();
}
Status DecodeClrStatus(const std::vector<uint8_t>& payload) {
  return DecodeClr(payload).status();
}
Status DecodeCheckpointStatus(const std::vector<uint8_t>& payload) {
  return DecodeCheckpoint(payload).status();
}
Status DecodeOpStatus(const std::vector<uint8_t>& payload) {
  return DecodeSinglePageOp(wal::RecordType::kSlotWrite, payload).status();
}

// Two actions: a slot restore and a before-image with a short hole, so
// flips land in both kinds' fields and in the image bytes.
std::vector<UndoAction> MixedActions() {
  UndoAction slot;
  slot.kind = UndoAction::Kind::kSlotRestore;
  slot.page = 2;
  slot.slot = 9;
  slot.old_value = -77;
  UndoAction image;
  image.kind = UndoAction::Kind::kPageRestore;
  image.page = 3;
  image.image = PageWithHole(200, 240);
  return {slot, image};
}

TEST(DecoderMutationTest, PageImageFlipsAndTruncationsAreDiagnosed) {
  Page page = PageWithHole(1500, 3900);
  page.set_lsn(12345);
  MutateAndDecode(EncodePageImage(4, page), DecodeImageStatus, 1);
  MutateAndDecode(EncodePageImage(4, Page()), DecodeImageStatus, 2);
}

TEST(DecoderMutationTest, TxnUpdateFlipsAndTruncationsAreDiagnosed) {
  MutateAndDecode(EncodeTxnUpdate(TxnUpdate{17, 400, MixedActions()}),
                  DecodeUpdateStatus, 3);
}

TEST(DecoderMutationTest, ClrFlipsAndTruncationsAreDiagnosed) {
  MutateAndDecode(EncodeClr(Clr{17, 380, MixedActions()}), DecodeClrStatus,
                  4);
}

// Every checkpoint body, with and without a transaction table. A prefix
// may decode: cutting a whole table off leaves a valid checkpoint.
TEST(DecoderMutationTest, CheckpointFlipsAndTruncationsAreDiagnosed) {
  const std::vector<CheckpointPayload> bodies = {
      {.redo_start = 42},
      {.redo_start = 42,
       .body = CheckpointBody::kDirtyPages,
       .dpt = {{3, 40}, {5, 41}}},
      {.redo_start = 42,
       .body = CheckpointBody::kStagedPages,
       .staged_pages = {5, 3, 7}},
  };
  size_t refused = 0;
  uint64_t seed = 5;
  for (const bool table : {false, true}) {
    for (CheckpointPayload checkpoint : bodies) {
      if (table) {
        checkpoint.has_txn_table = true;
        checkpoint.txns = {{3, 90}, {11, 200}};
        checkpoint.max_txn_id = 11;
      }
      refused += SweepMutants(EncodeCheckpoint(checkpoint),
                              DecodeCheckpointStatus, seed++,
                              /*prefixes_decode=*/true);
    }
  }
  EXPECT_GT(refused, 0u) << "some count flip must be refused";
}

// A single-page op's arguments run to the payload's end, so a cut past
// the flags byte still decodes. A born op and a blind op each round-trip,
// and some flip of their flags byte sets a bit that is neither.
TEST(DecoderMutationTest, SinglePageOpFlipsAndTruncationsAreDiagnosed) {
  SinglePageOp born = MakeSlotWrite(6, 3, -9);
  born.born = true;
  const SinglePageOp blind = MakeBlindFormat(7, 5);
  size_t refused = 0;
  uint64_t seed = 9;
  for (const SinglePageOp& op : {born, blind}) {
    const std::vector<uint8_t> payload = EncodeSinglePageOp(op);
    Result<SinglePageOp> decoded = DecodeSinglePageOp(op.type, payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), op);
    refused += SweepMutants(payload, DecodeOpStatus, seed++,
                            /*prefixes_decode=*/true);
  }
  EXPECT_GT(refused, 0u) << "a flags flip past blind and born must be refused";
}

// Bit 0 of the flags byte is `blind` and bit 1 is `born`; a byte with any
// other bit is Corruption naming the byte.
TEST(DecoderMutationTest, SinglePageOpRefusesUnknownFlagBits) {
  std::vector<uint8_t> payload = EncodeSinglePageOp(MakeSlotWrite(6, 3, -9));
  constexpr size_t kFlags = 4;  // after the u32 page id
  for (int flags = 0; flags < 256; ++flags) {
    payload[kFlags] = static_cast<uint8_t>(flags);
    Result<SinglePageOp> decoded =
        DecodeSinglePageOp(wal::RecordType::kSlotWrite, payload);
    if (flags < 4) {
      ASSERT_TRUE(decoded.ok()) << flags << ": " << decoded.status().ToString();
      EXPECT_EQ(decoded.value().blind, (flags & kOpFlagBlind) != 0);
      EXPECT_EQ(decoded.value().born, (flags & kOpFlagBorn) != 0);
      EXPECT_EQ(EncodeSinglePageOp(decoded.value()), payload);
      continue;
    }
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << flags;
    EXPECT_NE(decoded.status().message().find(std::to_string(flags)),
              std::string::npos)
        << decoded.status().ToString();
  }
}

// A fixed-layout payload is whole: a decoder that stops reading before
// the end would hand back a record the bytes do not describe.
TEST(DecoderMutationTest, ByteAfterAFixedLayoutIsCorruption) {
  auto appended = [](std::vector<uint8_t> payload) {
    payload.push_back(0);
    return payload;
  };
  const std::vector<uint8_t> update =
      EncodeTxnUpdate(TxnUpdate{17, 400, MixedActions()});
  const std::vector<uint8_t> clr = EncodeClr(Clr{17, 380, MixedActions()});
  const std::vector<uint8_t> meta = EncodeTxnMeta(17);
  const std::vector<uint8_t> split =
      EncodeSplitOp(SplitOp{SplitTransform::kSlotTransfer, 1, 2, 3, 4});
  ASSERT_TRUE(DecodeTxnUpdate(update).ok());
  ASSERT_TRUE(DecodeClr(clr).ok());
  ASSERT_TRUE(DecodeTxnMeta(meta).ok());
  ASSERT_TRUE(DecodeSplitOp(split).ok());
  EXPECT_EQ(DecodeTxnUpdate(appended(update)).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeClr(appended(clr)).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeTxnMeta(appended(meta)).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeSplitOp(appended(split)).status().code(),
            StatusCode::kCorruption);
}

// The flip that lengthens an embedded before-image's hole makes the
// image one byte shorter than the payload: the reader must not stop
// there and return a different before-image.
TEST(DecoderMutationTest, HoleLengtheningFlipOfABeforeImageIsCorruption) {
  const std::vector<UndoAction> actions = MixedActions();
  const size_t hole_length = 40;  // MixedActions' image: hole [200, 240)
  for (const std::vector<uint8_t>& payload :
       {EncodeTxnUpdate(TxnUpdate{17, 400, actions}),
        EncodeClr(Clr{17, 380, actions})}) {
    // The image is the payload's last field; its hole length is the u16
    // just before the bytes outside the hole.
    const size_t at = payload.size() - (Page::kSize - hole_length) - 2;
    std::vector<uint8_t> mutant = payload;
    wal::PayloadReader field(mutant);
    ASSERT_TRUE(field.Bytes(at).ok());
    ASSERT_EQ(field.U16().value(), hole_length);
    mutant[at] ^= 0x01;  // 40 -> 41
    EXPECT_EQ(DecodeTxnUpdate(mutant).status().code(),
              StatusCode::kCorruption);
    EXPECT_EQ(DecodeClr(mutant).status().code(), StatusCode::kCorruption);
  }
}

}  // namespace
}  // namespace redo::engine
