// DFRM wire codec suite (DESIGN.md §14).
//
// Unit half (WireCodecTest): per-encoding round trips, sparse top-k delta
// coding against a reference, the lossless-obfuscated escape hatch, the
// int8 scale policy on degenerate spans (all-zero / NaN / Inf), the
// raw-f32 baseline's size, and — mirroring serde_format_test — truncation
// at every byte offset plus a bit-flip sweep that must never crash, over
// default-codec messages of both kinds and an int8 + top-k update, and
// hostile layer-index headers that must fail by name.
//
// Simulation half (WireCodecSimTest): lossy codecs train and populate the
// uncoded-bytes savings counters, and the codec is transparent to the
// socket transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "fl/message.h"
#include "fl/simulation.h"
#include "fl/wire_codec.h"
#include "nn/flat_params.h"
#include "tensor/codec_kernels.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/serde.h"

namespace dinar {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

nn::FlatParams sample_params(Rng& rng) {
  std::vector<Tensor> p;
  p.push_back(Tensor::gaussian({4, 3}, rng));
  p.push_back(Tensor::gaussian({3}, rng));
  return nn::FlatParams::from_tensors(p);
}

void expect_bitwise_equal(const nn::FlatParams& a, const nn::FlatParams& b) {
  ASSERT_TRUE(a.same_layout(b));
  EXPECT_EQ(std::memcmp(a.as_span().data(), b.as_span().data(),
                        a.as_span().size() * sizeof(float)),
            0);
}

fl::KindCodec codec_of(fl::WireEncoding e, double topk = 1.0) {
  fl::KindCodec c;
  c.encoding = e;
  c.topk_fraction = topk;
  return c;
}

std::uint32_t read_version(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + 5, sizeof v);
  return v;
}

std::uint64_t read_decoded_bytes_field(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + 9, sizeof v);
  return v;
}

// ------------------------------------------------------------ validation --

TEST(WireCodecTest, ValidateConfigRejectsUnusableSettings) {
  fl::UpdateCodecConfig ok;
  EXPECT_NO_THROW(fl::validate_codec_config(ok));
  EXPECT_FALSE(ok.active());

  fl::UpdateCodecConfig bad_enc;
  bad_enc.update.encoding = static_cast<fl::WireEncoding>(9);
  EXPECT_THROW(fl::validate_codec_config(bad_enc), Error);

  fl::UpdateCodecConfig zero_topk;
  zero_topk.update.topk_fraction = 0.0;
  EXPECT_THROW(fl::validate_codec_config(zero_topk), Error);

  fl::UpdateCodecConfig over_topk;
  over_topk.update.topk_fraction = 1.5;
  EXPECT_THROW(fl::validate_codec_config(over_topk), Error);

  // Sparse broadcasts have no reference on the client side.
  fl::UpdateCodecConfig sparse_broadcast;
  sparse_broadcast.broadcast.topk_fraction = 0.5;
  try {
    fl::validate_codec_config(sparse_broadcast);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("broadcast"), std::string::npos);
  }
}

TEST(WireCodecTest, V2WireBytesPlusTwoPerEntryIsTheLosslessMessageSize) {
  // The raw-f32 baseline stays anchored to real bytes: a lossless message
  // adds one encoding and one flags byte per index entry, and its header's
  // decoded size replaces the bare arena's float count.
  Rng rng(2);
  fl::GlobalModelMsg g;
  g.round = 1;
  g.params = sample_params(rng);
  const std::uint64_t entries = g.params.index()->num_entries();
  EXPECT_EQ(g.serialize().size(), fl::v2_wire_bytes(g) + 2 * entries);

  fl::ModelUpdateMsg u;
  u.client_id = 7;
  u.round = 1;
  u.num_samples = 33;
  u.pre_weighted = true;
  u.params = sample_params(rng);
  u.params.reset_index(u.params.index()->with_obfuscated({1}));
  EXPECT_EQ(u.serialize().size(), fl::v2_wire_bytes(u) + 2 * entries);
}

// ------------------------------------------------------------- container --

TEST(WireCodecTest, ForcedV3LosslessRoundTripsBitExact) {
  Rng rng(3);
  fl::GlobalModelMsg g;
  g.round = 12;
  g.params = sample_params(rng);
  const auto bytes = g.serialize();
  EXPECT_EQ(read_version(bytes), 3u);
  // The decoded-size field at the fixed offset declares the arena bytes.
  EXPECT_EQ(read_decoded_bytes_field(bytes),
            static_cast<std::uint64_t>(g.params.numel()) * sizeof(float));

  const fl::GlobalModelMsg back = fl::GlobalModelMsg::deserialize(bytes);
  EXPECT_EQ(back.round, 12);
  expect_bitwise_equal(back.params, g.params);

  fl::ModelUpdateMsg u;
  u.client_id = 5;
  u.round = 12;
  u.num_samples = 40;
  u.pre_weighted = true;
  u.params = sample_params(rng);
  const auto ub = u.serialize();
  EXPECT_EQ(read_version(ub), 3u);
  const fl::ModelUpdateMsg uback = fl::ModelUpdateMsg::deserialize(ub);
  EXPECT_EQ(uback.client_id, 5);
  EXPECT_EQ(uback.num_samples, 40);
  EXPECT_TRUE(uback.pre_weighted);
  expect_bitwise_equal(uback.params, u.params);
  // Dense runs never consult a reference, so supplying one changes nothing.
  expect_bitwise_equal(fl::ModelUpdateMsg::deserialize(ub, &g.params).params,
                       u.params);
}

TEST(WireCodecTest, F16RepresentableValuesRoundTripExactly) {
  std::vector<Tensor> t;
  t.push_back(Tensor({2, 4}, {0.0f, -0.0f, 1.0f, -2.0f, 0.5f, 1024.0f,
                              -65504.0f, 0.25f}));
  fl::GlobalModelMsg g;
  g.params = nn::FlatParams::from_tensors(t);
  const auto back = fl::GlobalModelMsg::deserialize(
      g.serialize(codec_of(fl::WireEncoding::kF16)));
  expect_bitwise_equal(back.params, g.params);
}

TEST(WireCodecTest, LossyEncodingsAreIdempotent) {
  // encode(decode(x)) == decode(x): the second pass through the codec is
  // exact, so repeated re-serialization cannot drift.
  for (const fl::WireEncoding e :
       {fl::WireEncoding::kF16, fl::WireEncoding::kBf16, fl::WireEncoding::kInt8}) {
    Rng rng(4);
    fl::GlobalModelMsg g;
    g.params = sample_params(rng);
    const fl::KindCodec c = codec_of(e);
    const auto d1 = fl::GlobalModelMsg::deserialize(g.serialize(c));
    const auto d2 = fl::GlobalModelMsg::deserialize(d1.serialize(c));
    expect_bitwise_equal(d1.params, d2.params);
  }
}

TEST(WireCodecTest, Int8QuantizationErrorBoundedByHalfScale) {
  Rng rng(5);
  fl::GlobalModelMsg g;
  g.params = sample_params(rng);
  const auto back = fl::GlobalModelMsg::deserialize(
      g.serialize(codec_of(fl::WireEncoding::kInt8)));
  for (std::size_t i = 0; i < g.params.index()->num_entries(); ++i) {
    const auto orig = g.params.entry_span(i);
    const auto dec = back.params.entry_span(i);
    float max_abs = 0.0f;
    for (const float v : orig) max_abs = std::max(max_abs, std::fabs(v));
    const float scale = std::max(max_abs / 127.0f, 0.0f);
    for (std::size_t j = 0; j < orig.size(); ++j)
      EXPECT_LE(std::fabs(dec[j] - orig[j]), scale * 0.5f + 1e-7f)
          << "entry " << i << " coord " << j;
  }
}

TEST(WireCodecTest, Int8AllZeroEntryDecodesToExactZeros) {
  std::vector<Tensor> t;
  t.push_back(Tensor({6}, std::vector<float>(6, 0.0f)));
  fl::GlobalModelMsg g;
  g.params = nn::FlatParams::from_tensors(t);
  const auto back = fl::GlobalModelMsg::deserialize(
      g.serialize(codec_of(fl::WireEncoding::kInt8)));
  expect_bitwise_equal(back.params, g.params);  // no NaN scale, exact zeros
}

TEST(WireCodecTest, Int8NonFiniteEntryFallsBackToBitExactF32) {
  // IEEE-754 propagation (PR 5): a poisoned span must decode poisoned, not
  // be laundered through a NaN/Inf scale into numbers.
  std::vector<Tensor> t;
  t.push_back(Tensor({4}, {1.0f, std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::infinity(), 2.0f}));
  t.push_back(Tensor({3}, {0.5f, -0.5f, 3.0f}));
  fl::ModelUpdateMsg u;
  u.client_id = 1;
  u.num_samples = 3;
  u.params = nn::FlatParams::from_tensors(t);
  const auto back = fl::ModelUpdateMsg::deserialize(
      u.serialize(codec_of(fl::WireEncoding::kInt8), nullptr));
  // Entry 0 (non-finite) is bit-exact including the NaN payload; entry 1
  // is quantized but finite.
  EXPECT_EQ(std::memcmp(back.params.entry_span(0).data(),
                        u.params.entry_span(0).data(), 4 * sizeof(float)),
            0);
  EXPECT_TRUE(std::isnan(back.params.entry_span(0)[1]));
}

TEST(WireCodecTest, ObfuscatedEntriesStayLosslessByDefault) {
  Rng rng(6);
  nn::FlatParams p = sample_params(rng);
  p.reset_index(p.index()->with_obfuscated({1}));
  fl::ModelUpdateMsg u;
  u.client_id = 0;
  u.num_samples = 1;
  u.params = p;

  const auto keep = fl::ModelUpdateMsg::deserialize(
      u.serialize(codec_of(fl::WireEncoding::kInt8), nullptr));
  // Obfuscated entry 1: bit-exact. Plain entry 0: quantized (different).
  EXPECT_EQ(std::memcmp(keep.params.entry_span(1).data(),
                        p.entry_span(1).data(),
                        p.entry_span(1).size() * sizeof(float)),
            0);
  EXPECT_NE(std::memcmp(keep.params.entry_span(0).data(),
                        p.entry_span(0).data(),
                        p.entry_span(0).size() * sizeof(float)),
            0);
  EXPECT_TRUE(keep.params.index()->entry(1).is_obfuscated);

  // No encoding reaches the obfuscated entry.
  for (const fl::WireEncoding e : {fl::WireEncoding::kF16, fl::WireEncoding::kBf16}) {
    const auto back =
        fl::ModelUpdateMsg::deserialize(u.serialize(codec_of(e), nullptr));
    EXPECT_EQ(std::memcmp(back.params.entry_span(1).data(), p.entry_span(1).data(),
                          p.entry_span(1).size() * sizeof(float)),
              0)
        << fl::wire_encoding_name(e);
  }
}

// -------------------------------------------------------- sparse (top-k) --

TEST(WireCodecTest, TopKKeepsLargestDeltasAndReconstructsRestFromReference) {
  std::vector<Tensor> rt;
  rt.push_back(Tensor({8}, {1, 2, 3, 4, 5, 6, 7, 8}));
  const nn::FlatParams ref = nn::FlatParams::from_tensors(rt);

  const std::vector<float> delta{0.0f, 5.0f, -3.0f, 0.5f, 0.0f, -7.0f, 2.0f, 0.0f};
  nn::FlatParams p = ref;
  for (std::size_t i = 0; i < delta.size(); ++i) p.as_span()[i] += delta[i];

  fl::ModelUpdateMsg u;
  u.client_id = 3;
  u.num_samples = 10;
  u.params = p;
  // ceil(0.375 * 8) = 3 kept coordinates: |−7| at 5, |5| at 1, |−3| at 2.
  const auto bytes =
      u.serialize(codec_of(fl::WireEncoding::kF32, 0.375), &ref);
  const auto back = fl::ModelUpdateMsg::deserialize(bytes, &ref);
  const auto dec = back.params.as_span();
  for (const std::size_t kept : {1u, 2u, 5u})
    EXPECT_EQ(dec[kept], p.as_span()[kept]) << "kept coord " << kept;
  for (const std::size_t dropped : {0u, 3u, 4u, 6u, 7u})
    EXPECT_EQ(dec[dropped], ref.as_span()[dropped]) << "dropped coord " << dropped;

  // Sparse payloads without a reference are rejected by name on decode...
  try {
    fl::ModelUpdateMsg::deserialize(bytes, nullptr);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("reference"), std::string::npos);
  }
  // ...and on encode.
  EXPECT_THROW(u.serialize(codec_of(fl::WireEncoding::kF32, 0.375), nullptr),
               Error);
}

TEST(WireCodecTest, SparseInt8RoundTripsThroughScaledDeltas) {
  Rng rng(7);
  const nn::FlatParams ref = sample_params(rng);
  nn::FlatParams p = ref;
  Rng rng2(8);
  for (float& v : p.as_span()) v += static_cast<float>(rng2.gaussian()) * 0.01f;

  fl::ModelUpdateMsg u;
  u.client_id = 1;
  u.num_samples = 4;
  u.params = p;
  const auto back = fl::ModelUpdateMsg::deserialize(
      u.serialize(codec_of(fl::WireEncoding::kInt8, 0.25), &ref), &ref);
  // Every decoded coordinate is reference + a quantized delta: within half
  // a scale of either the true value (kept) or the reference (dropped).
  for (std::size_t i = 0; i < p.as_span().size(); ++i) {
    const float d = back.params.as_span()[i];
    const float lo = std::min(ref.as_span()[i], p.as_span()[i]) - 0.01f;
    const float hi = std::max(ref.as_span()[i], p.as_span()[i]) + 0.01f;
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

// ----------------------------------------- top-k selection vs its oracle --

// The selection the sparse encoder made before its radix select, kept as
// the oracle: nth_element + sort through an index array, largest |delta|
// first, ties to the lower index.
std::vector<std::uint32_t> oracle_topk(const std::vector<float>& delta,
                                       std::size_t k) {
  const std::size_t n = delta.size();
  std::vector<std::uint32_t> idx(n);
  for (std::size_t j = 0; j < n; ++j) idx[j] = static_cast<std::uint32_t>(j);
  const auto by_magnitude = [&](std::uint32_t a, std::uint32_t b) {
    const float aa = std::fabs(delta[a]);
    const float ab = std::fabs(delta[b]);
    if (aa != ab) return aa > ab;
    return a < b;
  };
  if (k < n)
    std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                     idx.end(), by_magnitude);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

// The update frame the encoder must emit for `u`, a one-entry model coded
// sparse against `ref`: header and layer index as in the lossless frame of
// the same message, then the sparse run of the oracle's selection.
std::vector<std::uint8_t> oracle_sparse_frame(const fl::ModelUpdateMsg& u,
                                              const nn::FlatParams& ref,
                                              const fl::KindCodec& codec) {
  const std::span<const float> p = u.params.as_span();
  const std::size_t n = p.size();
  std::vector<float> delta(n);
  for (std::size_t j = 0; j < n; ++j) delta[j] = p[j] - ref.as_span()[j];
  std::size_t k = static_cast<std::size_t>(
      std::ceil(codec.topk_fraction * static_cast<double>(n)));
  k = std::min(n, std::max<std::size_t>(1, k));
  const std::vector<std::uint32_t> idx = oracle_topk(delta, k);
  std::vector<float> vals(k);
  float max_abs = 0.0f;
  for (std::size_t j = 0; j < k; ++j) {
    vals[j] = delta[idx[j]];
    max_abs = std::max(max_abs, std::fabs(vals[j]));
  }

  std::vector<std::uint8_t> frame = u.serialize(codec_of(fl::WireEncoding::kF32), &ref);
  frame.resize(frame.size() - (2 + n * sizeof(float)));  // drop the dense run

  BinaryWriter w;
  w.write_u8(static_cast<std::uint8_t>(codec.encoding));
  w.write_u8(1);  // sparse
  float scale = 1.0f;
  if (codec.encoding == fl::WireEncoding::kInt8) {
    scale = max_abs / 127.0f;
    if (!(scale > 0.0f)) scale = 1.0f;
    w.write_f32(scale);
  }
  w.write_u64(k);
  w.write_bytes(idx.data(), k * sizeof(std::uint32_t));
  if (codec.encoding == fl::WireEncoding::kInt8) {
    std::vector<std::int8_t> packed(k);
    detail::codec_kernel_fns().pack_i8(vals.data(), k, 1.0f / scale, packed.data());
    w.write_bytes(packed.data(), k);
  } else {
    w.write_bytes(vals.data(), k * sizeof(float));
  }
  const std::vector<std::uint8_t> run = w.take();
  frame.insert(frame.end(), run.begin(), run.end());
  return frame;
}

// Encodes ref + delta keeping each k in `ks` (f32 and int8 values) and
// byte-compares every frame with the oracle's.
void expect_topk_matches_oracle(const std::vector<float>& ref_values,
                                const std::vector<float>& values,
                                const std::vector<std::size_t>& ks) {
  const auto n = static_cast<std::int64_t>(values.size());
  const nn::FlatParams ref =
      nn::FlatParams::from_tensors({Tensor({n}, ref_values)});
  fl::ModelUpdateMsg u;
  u.client_id = 2;
  u.num_samples = 5;
  u.params = nn::FlatParams::from_tensors({Tensor({n}, values)});
  for (const std::size_t k : ks) {
    // ceil((k - 0.5) / n * n) == k, and k == n still stays below 1.0.
    const double fraction = (static_cast<double>(k) - 0.5) / static_cast<double>(n);
    for (const fl::WireEncoding e : {fl::WireEncoding::kF32, fl::WireEncoding::kInt8}) {
      const fl::KindCodec codec = codec_of(e, fraction);
      EXPECT_EQ(u.serialize(codec, &ref), oracle_sparse_frame(u, ref, codec))
          << "n " << n << " k " << k << " encoding " << fl::wire_encoding_name(e);
    }
  }
}

std::vector<std::size_t> every_k(std::size_t n) {
  std::vector<std::size_t> ks;
  for (std::size_t k = 1; k <= n; ++k) ks.push_back(k);
  return ks;
}

TEST(WireCodecTest, TopKMatchesOracleOnAllEqualMagnitudes) {
  const std::vector<float> ref(16, 1.0f);
  std::vector<float> p(16, 1.25f);
  expect_topk_matches_oracle(ref, p, every_k(16));
}

TEST(WireCodecTest, TopKMatchesOracleOnOppositeSignTies) {
  const std::vector<float> ref(16, 0.0f);
  const std::vector<float> p{0.5f, -0.5f, 0.5f,  -0.5f, 1.0f,  -1.0f, 0.5f, -0.5f,
                             -1.0f, 1.0f, -0.5f, 0.25f, -0.25f, 0.5f, 2.0f, -2.0f};
  expect_topk_matches_oracle(ref, p, every_k(16));
}

TEST(WireCodecTest, TopKMatchesOracleOnSignedZeros) {
  const std::vector<float> ref(12, 0.0f);
  const std::vector<float> p{0.0f, -0.0f, 3.0f,  -0.0f, 0.0f, -3.0f,
                             -0.0f, 0.0f, 1e-3f, -0.0f, 0.0f, -0.0f};
  expect_topk_matches_oracle(ref, p, every_k(12));
}

TEST(WireCodecTest, TopKMatchesOracleOnSubnormals) {
  const float d = std::numeric_limits<float>::denorm_min();
  const float m = std::numeric_limits<float>::min();  // smallest normal
  const std::vector<float> ref(14, 0.0f);
  const std::vector<float> p{d,     -d,     3 * d, 0.0f,    -3 * d, 1000 * d, m,
                             -0.0f, 65537 * d, -1000 * d, m - d, 2 * d, -m, d};
  expect_topk_matches_oracle(ref, p, every_k(14));
}

TEST(WireCodecTest, TopKMatchesOracleOnASingleCoordinate) {
  expect_topk_matches_oracle({1.0f}, {1.3f}, {1});
  expect_topk_matches_oracle({1.0f}, {1.0f}, {1});  // a zero delta is still kept
}

TEST(WireCodecTest, TopKMatchesOracleOnLargeEntriesWithManyTies) {
  Rng rng(17);
  const std::size_t n = 3000;
  const auto on_grid = [&] {  // a multiple of 1/64: sums and deltas stay exact
    return std::round(static_cast<float>(rng.gaussian()) * 64.0f) / 64.0f;
  };
  std::vector<float> coarse_ref(n);
  std::vector<float> coarse(n);  // deltas on the grid: long runs of ties
  std::vector<float> fine_ref(n);
  std::vector<float> fine(n);  // full-precision deltas over many binades
  for (std::size_t j = 0; j < n; ++j) {
    coarse_ref[j] = on_grid();
    coarse[j] = coarse_ref[j] + on_grid();
    fine_ref[j] = static_cast<float>(rng.gaussian());
    fine[j] = fine_ref[j] + static_cast<float>(rng.gaussian() *
                                               std::pow(10.0, rng.uniform(-6.0, 1.0)));
  }
  const std::vector<std::size_t> ks{1, 2, 299, 300, 1500, n - 1, n};
  expect_topk_matches_oracle(coarse_ref, coarse, ks);
  expect_topk_matches_oracle(fine_ref, fine, ks);
}

// --------------------------------------------- corruption & compatibility --

// The byte sweeps' inputs, all decoded against `ref`: a default-codec
// broadcast and update (dense f32 runs; the update carries pre_weighted and
// an obfuscated entry), and an int8 + top-k update, which exercises every
// run field: scale, k, indices, coded values.
struct SweepInput {
  const char* name;
  std::vector<std::uint8_t> bytes;
  bool global;    // a GlobalModelMsg, else a ModelUpdateMsg
  bool lossless;  // written by the default codec
};

struct SweepCase {
  nn::FlatParams ref;
  std::vector<SweepInput> inputs;
};

SweepCase sweep_case(std::uint64_t seed) {
  Rng rng(seed);
  SweepCase c;
  c.ref = sample_params(rng);
  nn::FlatParams p = c.ref;
  Rng rng2(seed + 1);
  for (float& v : p.as_span()) v += static_cast<float>(rng2.gaussian()) * 0.1f;

  fl::GlobalModelMsg g;
  g.round = 5;
  g.params = p;
  fl::ModelUpdateMsg dense;
  dense.client_id = 3;
  dense.round = 5;
  dense.num_samples = 2;
  dense.pre_weighted = true;
  dense.params = p;
  dense.params.reset_index(p.index()->with_obfuscated({1}));
  fl::ModelUpdateMsg sparse;
  sparse.client_id = 1;
  sparse.num_samples = 2;
  sparse.params = p;
  c.inputs.push_back({"default-codec global", g.serialize(), true, true});
  c.inputs.push_back({"default-codec update", dense.serialize(), false, true});
  c.inputs.push_back(
      {"int8+top-k update",
       sparse.serialize(codec_of(fl::WireEncoding::kInt8, 0.5), &c.ref), false,
       false});
  return c;
}

TEST(WireCodecTest, TruncationAtEveryByteOffsetThrows) {
  const SweepCase c = sweep_case(9);
  for (const SweepInput& in : c.inputs) {
    EXPECT_EQ(read_version(in.bytes), 3u);
    for (std::size_t cut = 0; cut < in.bytes.size(); ++cut) {
      const std::vector<std::uint8_t> part(in.bytes.begin(),
                                           in.bytes.begin() + static_cast<long>(cut));
      if (in.global) {
        EXPECT_THROW(fl::GlobalModelMsg::deserialize(part), Error)
            << in.name << " cut at " << cut;
      } else {
        EXPECT_THROW(fl::ModelUpdateMsg::deserialize(part, &c.ref), Error)
            << in.name << " cut at " << cut;
      }
    }
  }
}

TEST(WireCodecTest, BitFlipAtEveryByteOffsetNeverCrashes) {
  // The transport's frame checksum catches in-flight flips; this sweep
  // proves the parser itself survives a flip that slipped past it — every
  // outcome is a named Error or a structurally valid message, never UB.
  // A default-codec message the decoder accepts re-encodes to exactly the
  // bytes it was decoded from: no field takes a value its writer cannot
  // produce.
  const SweepCase c = sweep_case(11);
  for (const SweepInput& in : c.inputs) {
    for (std::size_t at = 0; at < in.bytes.size(); ++at) {
      auto bent = in.bytes;
      bent[at] ^= 0xFF;
      try {
        std::int64_t numel = 0;
        std::vector<std::uint8_t> again;
        if (in.global) {
          const fl::GlobalModelMsg back = fl::GlobalModelMsg::deserialize(bent);
          numel = back.params.numel();
          again = back.serialize();
        } else {
          const fl::ModelUpdateMsg back = fl::ModelUpdateMsg::deserialize(bent, &c.ref);
          numel = back.params.numel();
          again = back.serialize();
        }
        EXPECT_EQ(numel, c.ref.numel()) << in.name << " flip at " << at;
        if (in.lossless) {
          EXPECT_EQ(again, bent) << in.name << " flip at " << at;
        }
      } catch (const Error&) {
        // rejected by name — fine
      }
    }
  }
}

TEST(WireCodecTest, TamperedDecodedBytesFieldRejected) {
  Rng rng(13);
  fl::GlobalModelMsg g;
  g.params = sample_params(rng);
  const auto bytes = g.serialize();

  // Declared size disagreeing with the index is rejected...
  auto small = bytes;
  small[9] ^= 0x04;
  EXPECT_THROW(fl::GlobalModelMsg::deserialize(small), Error);

  // ...and an absurd declared size dies at the message-layer cap before
  // any allocation happens (decompression-bomb guard, net/frame.h twin).
  auto huge = bytes;
  const std::uint64_t bomb = 1ull << 40;
  std::memcpy(huge.data() + 9, &bomb, sizeof bomb);
  try {
    fl::GlobalModelMsg::deserialize(huge);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("decoded"), std::string::npos);
  }
}

// An update message written field by field, so a test can declare any
// decoded size and layer-index header: magic, kind, version, decoded
// size, client/round/samples, the pre_weighted byte, then one index entry
// per shape (layer ids 0, 1, ...) and the raw `runs` bytes.
std::vector<std::uint8_t> handmade_update(std::uint64_t decoded_bytes,
                                          std::uint8_t pre_weighted,
                                          const std::vector<Shape>& shapes,
                                          const std::vector<std::uint8_t>& runs) {
  BinaryWriter w;
  w.write_u32(0x4D524644);  // "DFRM"
  w.write_u8(1);            // kind: update
  w.write_u32(3);
  w.write_u64(decoded_bytes);
  w.write_u32(0);  // client_id
  w.write_i64(0);  // round
  w.write_i64(1);  // num_samples
  w.write_u8(pre_weighted);
  w.write_u64(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    std::string name = "e";  // append: GCC 12 -O3 flags "lit" + string
    name.append(std::to_string(i));
    w.write_string(name);
    w.write_u32(static_cast<std::uint32_t>(i));
    w.write_u8(0);
    w.write_i64_vector(shapes[i]);
  }
  w.write_bytes(runs.data(), runs.size());
  return w.take();
}

// One dense f32 run holding 1.0f.
const std::vector<std::uint8_t> kOneFloatRun{0, 0, 0x00, 0x00, 0x80, 0x3F};

TEST(WireCodecTest, EntryWhoseByteCountWrapsIsRejectedByName) {
  // (2^62 + 1) floats are 2^64 + 4 bytes, which wraps to the 4 bytes the
  // header declares: the size check must not multiply, or the decoder goes
  // on to allocate 2^62 floats (std::length_error, not a dinar::Error).
  const std::int64_t n = (std::int64_t{1} << 62) + 1;
  const auto bytes = handmade_update(4, 0, {{n}}, kOneFloatRun);
  try {
    fl::ModelUpdateMsg::deserialize(bytes);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("decoded bytes"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodecTest, EntriesWhoseElementCountsOverflowAreRejectedByName) {
  // Each entry's numel fits int64; their sum does not (signed overflow).
  const std::int64_t n = std::int64_t{1} << 62;
  const auto bytes = handmade_update(0, 0, {{n}, {n}}, {});
  try {
    fl::ModelUpdateMsg::deserialize(bytes);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
}

TEST(WireCodecTest, PreWeightedByteOtherThanZeroOrOneIsRejectedByName) {
  EXPECT_FALSE(fl::ModelUpdateMsg::deserialize(
                   handmade_update(4, 0, {{1}}, kOneFloatRun))
                   .pre_weighted);
  EXPECT_TRUE(fl::ModelUpdateMsg::deserialize(
                  handmade_update(4, 1, {{1}}, kOneFloatRun))
                  .pre_weighted);
  try {
    fl::ModelUpdateMsg::deserialize(handmade_update(4, 2, {{1}}, kOneFloatRun));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'pre_weighted'"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- simulation level --

fl::FederatedSimulation make_sim(int seed, const fl::UpdateCodecConfig& codec,
                                 bool socket = false) {
  fl::SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.train = fl::TrainConfig{1, 32};
  cfg.codec = codec;
  cfg.socket_transport = socket;
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(240, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 3;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);
  return fl::FederatedSimulation(tiny_mlp_factory(2, 2), std::move(split), cfg,
                                 fl::DefenseBundle{});
}

TEST(WireCodecSimTest, LossyCodecTrainsAndSavesWireBytes) {
  fl::UpdateCodecConfig codec;
  codec.broadcast.encoding = fl::WireEncoding::kF16;
  codec.update.encoding = fl::WireEncoding::kInt8;
  codec.update.topk_fraction = 0.25;
  fl::FederatedSimulation sim = make_sim(22, codec);
  sim.run();

  for (const fl::RoundOutcome& out : sim.round_log()) {
    EXPECT_TRUE(out.quorum_met);
    EXPECT_EQ(out.accepted.size(), 3u);
  }
  const fl::TransportStats& s = sim.transport().stats();
  // The tiny test model's index header (entry names, shapes) dominates its
  // 202-float arena, so only strict savings are asserted here; the >= 4x
  // reduction gate runs in bench_copybw on a paper-shaped model.
  EXPECT_LT(s.bytes_up, s.bytes_up_uncoded);      // int8+top-k: smaller
  EXPECT_LT(s.bytes_down, s.bytes_down_uncoded);  // f16 broadcast: smaller
  EXPECT_TRUE(nn::flat_all_finite(sim.server().global_params()));
}

TEST(WireCodecSimTest, CodecIsTransparentToTheSocketTransport) {
  fl::UpdateCodecConfig codec;
  codec.update.encoding = fl::WireEncoding::kInt8;
  codec.update.topk_fraction = 0.5;
  fl::FederatedSimulation inproc = make_sim(23, codec, /*socket=*/false);
  inproc.run();
  fl::FederatedSimulation socket = make_sim(23, codec, /*socket=*/true);
  socket.run();
  expect_bitwise_equal(socket.server().global_params(),
                       inproc.server().global_params());
  EXPECT_EQ(socket.transport().stats().bytes_up,
            inproc.transport().stats().bytes_up);
  EXPECT_GT(socket.transport().stats().socket_frames_tx, 0u);
}

}  // namespace
}  // namespace dinar
