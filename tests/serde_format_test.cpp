// Wire format-version suite. FormatV2Test covers the flat DFRM message
// family that replaced the v1 tensor-list frames (its one version on the
// wire is 3): default-codec messages are bit-exact and self-describing,
// any other version — the retired 2 included — is refused by name, and
// corruption of the params body in either of its forms (the storage body
// of nn/flat_params.h, the coded runs of a message) dies with a named
// error instead of garbage state. FormatV1Test: v1 tensor-list messages are
// rejected by name (no v1 payload is read anywhere).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "fl/message.h"
#include "nn/flat_params.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serde.h"

namespace dinar {
namespace {

// Format constants under test (mirrors of the implementation values: these
// are the on-disk/on-wire contract, so the test hard-codes them).
constexpr std::uint32_t kFlatMsgMagic = 0x4D524644;    // "DFRM"
constexpr std::uint32_t kGlobalMagicV1 = 0x474D4F44;   // "GMOD"
constexpr std::uint32_t kUpdateMagicV1 = 0x55504454;   // "UPDT"

nn::FlatParams sample_params(Rng& rng) {
  std::vector<Tensor> p;
  p.push_back(Tensor::gaussian({4, 3}, rng));
  p.push_back(Tensor::gaussian({3}, rng));
  return nn::FlatParams::from_tensors(p);
}

// Stands in for a v1 frame's tensor-list payload: the decoder refuses the
// frame on its magic, before it reads a byte of what follows.
void write_v1_trailing_bytes(BinaryWriter& w) {
  w.write_u64(2);  // the tensor count a v1 payload would open with
  w.write_u32(0xDEADBEEF);
}

void expect_bitwise_equal(const nn::FlatParams& a, const nn::FlatParams& b) {
  ASSERT_TRUE(a.same_layout(b));
  EXPECT_EQ(std::memcmp(a.as_span().data(), b.as_span().data(),
                        a.as_span().size() * sizeof(float)),
            0);
}

// ------------------------------------------------------ DFRM framing --

TEST(FormatV2Test, SerializeIsDeterministicAndRoundTripsBitExact) {
  Rng rng(1);
  fl::GlobalModelMsg g;
  g.round = 9;
  g.params = sample_params(rng);
  const auto bytes = g.serialize();
  EXPECT_EQ(bytes, g.serialize());  // byte-stable across calls

  // The frame leads with DFRM + kind + version + decoded size.
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof magic);
  EXPECT_EQ(magic, kFlatMsgMagic);
  EXPECT_EQ(bytes[4], 0);  // kind: global
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 5, sizeof version);
  EXPECT_EQ(version, 3u);
  std::uint64_t decoded = 0;
  std::memcpy(&decoded, bytes.data() + 9, sizeof decoded);
  EXPECT_EQ(decoded, static_cast<std::uint64_t>(g.params.numel()) * sizeof(float));

  fl::GlobalModelMsg back = fl::GlobalModelMsg::deserialize(bytes);
  EXPECT_EQ(back.round, 9);
  expect_bitwise_equal(back.params, g.params);
  EXPECT_EQ(back.serialize(), bytes);  // decode/encode is the identity
}

TEST(FormatV2Test, UpdateFrameCarriesKindByteAndAllFields) {
  Rng rng(2);
  fl::ModelUpdateMsg u;
  u.client_id = 42;
  u.round = 3;
  u.num_samples = 17;
  u.pre_weighted = true;
  u.params = sample_params(rng);
  const auto bytes = u.serialize();
  EXPECT_EQ(bytes[4], 1);  // kind: update

  fl::ModelUpdateMsg back = fl::ModelUpdateMsg::deserialize(bytes);
  EXPECT_EQ(back.client_id, 42);
  EXPECT_EQ(back.round, 3);
  EXPECT_EQ(back.num_samples, 17);
  EXPECT_TRUE(back.pre_weighted);
  expect_bitwise_equal(back.params, u.params);
}

TEST(FormatV2Test, ObfuscationTagsSurviveTheWire) {
  Rng rng(3);
  nn::FlatParams p = sample_params(rng);
  p.reset_index(p.index()->with_obfuscated({1}));
  fl::ModelUpdateMsg u;
  u.client_id = 1;
  u.num_samples = 5;
  u.params = p;
  fl::ModelUpdateMsg back = fl::ModelUpdateMsg::deserialize(u.serialize());
  EXPECT_FALSE(back.params.index()->entry(0).is_obfuscated);
  EXPECT_TRUE(back.params.index()->entry(1).is_obfuscated);
}

TEST(FormatV2Test, UnsupportedVersionAndWrongKindRejected) {
  Rng rng(4);
  fl::GlobalModelMsg g;
  g.params = sample_params(rng);
  auto bytes = g.serialize();

  // The retired version 2 and a future version alike: refused by name.
  for (const std::uint8_t version : {2, 99}) {
    auto other = bytes;
    other[5] = version;  // version u32 little-endian low byte
    try {
      fl::GlobalModelMsg::deserialize(other);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported format version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }

  auto wrong_kind = bytes;
  wrong_kind[4] = 1;  // update kind inside a global frame
  try {
    fl::GlobalModelMsg::deserialize(wrong_kind);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'kind'"), std::string::npos);
  }
}

TEST(FormatV2Test, CorruptEntryFlagsAndShortPayloadRejected) {
  auto index = nn::LayerIndex::build([] {
    std::vector<nn::LayerEntry> e(1);
    e[0].name = "w";
    e[0].layer_id = 0;
    e[0].shape = {2};
    return e;
  }());
  nn::FlatParams p(index, {1.0f, 2.0f});

  // Unknown flag bits in an entry header.
  {
    BinaryWriter w;
    w.write_u64(1);
    w.write_string("w");
    w.write_u32(0);
    w.write_u8(7);  // only 0/1 are defined
    w.write_i64_vector({2});
    w.write_f32_span(p.as_span().data(), 2);
    const auto bytes = w.take();
    BinaryReader r(bytes);
    EXPECT_THROW(nn::read_flat_params(r), Error);
  }
  // Payload float count disagrees with the index.
  {
    BinaryWriter w;
    w.write_u64(1);
    w.write_string("w");
    w.write_u32(0);
    w.write_u8(0);
    w.write_i64_vector({2});
    w.write_f32_span(p.as_span().data(), 1);  // one float short
    const auto bytes = w.take();
    BinaryReader r(bytes);
    EXPECT_THROW(nn::read_flat_params(r), Error);
  }
  // Truncation at every byte boundary must throw, never crash or succeed.
  {
    BinaryWriter w;
    nn::write_flat_params(w, p);
    const auto full = w.take();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      std::vector<std::uint8_t> part(full.begin(),
                                     full.begin() + static_cast<long>(cut));
      BinaryReader r(part);
      EXPECT_THROW(nn::read_flat_params(r), Error) << "cut at " << cut;
    }
  }
  // The same defects in a message's params body. A one-entry update ends
  // with the entry flags byte, the shape, then the run: encoding byte,
  // run-flags byte, two floats.
  fl::ModelUpdateMsg u;
  u.num_samples = 1;
  u.params = p;
  const auto msg = u.serialize();
  const std::size_t run = msg.size() - 2 * sizeof(float) - 2;
  const std::size_t entry_flags = run - 2 * sizeof(std::int64_t) - 1;
  for (const std::size_t at : {entry_flags, run, run + 1}) {
    auto bad = msg;
    bad[at] = 7;  // no entry flag, encoding or run flag takes this value
    EXPECT_THROW(fl::ModelUpdateMsg::deserialize(bad), Error) << "byte " << at;
  }
  auto short_payload = msg;
  short_payload.pop_back();  // one byte short of the second float
  EXPECT_THROW(fl::ModelUpdateMsg::deserialize(short_payload), Error);
}

// ---------------------------------------------------- v1 frame rejection --

TEST(FormatV1Test, LegacyGlobalFrameRejectedByName) {
  BinaryWriter w;
  w.write_u32(kGlobalMagicV1);
  w.write_i64(6);
  write_v1_trailing_bytes(w);
  try {
    fl::GlobalModelMsg::deserialize(w.take());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no longer supported"),
              std::string::npos);
  }
}

TEST(FormatV1Test, LegacyUpdateFrameRejectedByName) {
  BinaryWriter w;
  w.write_u32(kUpdateMagicV1);
  w.write_u32(11);       // client_id
  w.write_i64(2);        // round
  w.write_i64(33);       // num_samples
  w.write_u8(0);         // pre_weighted
  write_v1_trailing_bytes(w);
  try {
    fl::ModelUpdateMsg::deserialize(w.take());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("no longer supported"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dinar
