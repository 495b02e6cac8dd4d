#include "fl/message.h"

#include "net/frame.h"
#include "util/error.h"
#include "util/serde.h"

namespace dinar::fl {
namespace {
// Legacy v1 per-kind magics (tensor-list payload, pre-FlatParams). No v1
// payload is read anywhere; the magics survive only to reject such frames
// by name instead of "not a message".
constexpr std::uint32_t kGlobalMsgMagicV1 = 0x474D4F44;  // "GMOD"
constexpr std::uint32_t kUpdateMsgMagicV1 = 0x55504454;  // "UPDT"
// Both message kinds share one magic; the kind byte tells them apart.
constexpr std::uint32_t kFlatMsgMagic = 0x4D524644;  // "DFRM"
constexpr std::uint32_t kFlatMsgVersion = 3;
constexpr std::uint8_t kKindGlobal = 0;
constexpr std::uint8_t kKindUpdate = 1;

// The net frame layer sniffs the header to bound the declared decoded
// size before the message is ever parsed (net/frame.h mirrors these
// fields because it cannot include this layer). Keep them locked together.
static_assert(net::kMessageMagic == kFlatMsgMagic);
static_assert(net::kMessageVersion == kFlatMsgVersion);
static_assert(net::kMessageDecodedSizeOffset ==
              sizeof(kFlatMsgMagic) + sizeof(kKindGlobal) +
                  sizeof(kFlatMsgVersion));

// Runs one field's decode; a failure is rethrown naming the message type
// and the offending field, which the server's quarantine path records to
// classify corrupt updates.
template <typename Fn>
auto read_field(const char* msg_type, const char* field, Fn&& fn) {
  try {
    return fn();
  } catch (const Error& e) {
    throw Error(std::string(msg_type) + ": bad field '" + field + "': " + e.what());
  }
}

void check_exhausted(const char* msg_type, const BinaryReader& r) {
  DINAR_CHECK(r.exhausted(), msg_type << ": " << r.remaining()
                                      << " trailing bytes after field 'params'");
}

// Reads the header after the DFRM magic: checks the kind and the version,
// then reads and bounds the declared decoded size. The cap is defense in
// depth: the frame layer caps the same field, but messages also arrive
// from tests without ever crossing a frame.
std::uint64_t read_header(const char* msg_type, BinaryReader& r,
                          std::uint8_t expected_kind) {
  const std::uint8_t kind =
      read_field(msg_type, "kind", [&] { return r.read_u8(); });
  DINAR_CHECK(kind == expected_kind,
              msg_type << ": bad field 'kind': " << static_cast<int>(kind));
  const std::uint32_t version =
      read_field(msg_type, "version", [&] { return r.read_u32(); });
  DINAR_CHECK(version == kFlatMsgVersion,
              msg_type << ": unsupported format version " << version);
  const std::uint64_t decoded =
      read_field(msg_type, "decoded_bytes", [&] { return r.read_u64(); });
  DINAR_CHECK(decoded <= net::kDefaultMaxDecodedBytes,
              msg_type << ": declared decoded size " << decoded
                       << " exceeds the " << net::kDefaultMaxDecodedBytes
                       << "-byte cap");
  return decoded;
}

// Magic, kind, version, decoded size.
void write_header(BinaryWriter& w, std::uint8_t kind,
                  const nn::FlatParams& params) {
  w.write_u32(kFlatMsgMagic);
  w.write_u8(kind);
  w.write_u32(kFlatMsgVersion);
  w.write_u64(static_cast<std::uint64_t>(params.numel()) * sizeof(float));
}

}  // namespace

std::vector<std::uint8_t> GlobalModelMsg::serialize(const KindCodec& codec) const {
  BinaryWriter w;
  write_header(w, kKindGlobal, params);
  w.write_i64(round);
  write_flat_params_v3(w, params, codec, /*reference=*/nullptr);
  return w.take();
}

GlobalModelMsg GlobalModelMsg::deserialize(const std::vector<std::uint8_t>& bytes) {
  BinaryReader r(bytes);
  const std::uint32_t magic =
      read_field("GlobalModelMsg", "magic", [&] { return r.read_u32(); });
  GlobalModelMsg msg;
  DINAR_CHECK(magic != kGlobalMsgMagicV1,
              "GlobalModelMsg: v1 tensor-list frames are no longer supported "
              "(removed after the one-release deprecation window)");
  DINAR_CHECK(magic == kFlatMsgMagic, "not a global-model message");
  const std::uint64_t decoded_bytes = read_header("GlobalModelMsg", r, kKindGlobal);
  msg.round = read_field("GlobalModelMsg", "round", [&] { return r.read_i64(); });
  msg.params = read_field("GlobalModelMsg", "params", [&] {
    return read_flat_params_v3(r, decoded_bytes, /*reference=*/nullptr);
  });
  check_exhausted("GlobalModelMsg", r);
  return msg;
}

std::vector<std::uint8_t> ModelUpdateMsg::serialize(
    const KindCodec& codec, const nn::FlatParams* reference) const {
  BinaryWriter w;
  write_header(w, kKindUpdate, params);
  w.write_u32(static_cast<std::uint32_t>(client_id));
  w.write_i64(round);
  w.write_i64(num_samples);
  w.write_u8(pre_weighted ? 1 : 0);
  write_flat_params_v3(w, params, codec, reference);
  return w.take();
}

ModelUpdateMsg ModelUpdateMsg::deserialize(const std::vector<std::uint8_t>& bytes,
                                           const nn::FlatParams* reference) {
  BinaryReader r(bytes);
  const std::uint32_t magic =
      read_field("ModelUpdateMsg", "magic", [&] { return r.read_u32(); });
  ModelUpdateMsg msg;
  DINAR_CHECK(magic != kUpdateMsgMagicV1,
              "ModelUpdateMsg: v1 tensor-list frames are no longer supported "
              "(removed after the one-release deprecation window)");
  DINAR_CHECK(magic == kFlatMsgMagic, "not a model-update message");
  const std::uint64_t decoded_bytes = read_header("ModelUpdateMsg", r, kKindUpdate);
  const std::uint32_t raw_client =
      read_field("ModelUpdateMsg", "client_id", [&] { return r.read_u32(); });
  DINAR_CHECK(raw_client <= 0x7FFFFFFFu,
              "ModelUpdateMsg: bad field 'client_id': " << raw_client
                                                        << " overflows int32");
  msg.client_id = static_cast<std::int32_t>(raw_client);
  msg.round = read_field("ModelUpdateMsg", "round", [&] { return r.read_i64(); });
  msg.num_samples =
      read_field("ModelUpdateMsg", "num_samples", [&] { return r.read_i64(); });
  const std::uint8_t pre_weighted =
      read_field("ModelUpdateMsg", "pre_weighted", [&] { return r.read_u8(); });
  DINAR_CHECK(pre_weighted <= 1, "ModelUpdateMsg: bad field 'pre_weighted': "
                                     << static_cast<int>(pre_weighted));
  msg.pre_weighted = pre_weighted != 0;
  msg.params = read_field("ModelUpdateMsg", "params", [&] {
    return read_flat_params_v3(r, decoded_bytes, reference);
  });
  check_exhausted("ModelUpdateMsg", r);
  return msg;
}

std::uint64_t v2_wire_bytes(const GlobalModelMsg& msg) {
  // magic + kind + version + round, then the raw-f32 params body.
  return sizeof(kFlatMsgMagic) + sizeof(kKindGlobal) + sizeof(kFlatMsgVersion) +
         sizeof(msg.round) + flat_params_v2_bytes(msg.params);
}

std::uint64_t v2_wire_bytes(const ModelUpdateMsg& msg) {
  // magic + kind + version + client_id(u32) + round + num_samples +
  // pre_weighted(u8), then the raw-f32 params body.
  return sizeof(kFlatMsgMagic) + sizeof(kKindUpdate) + sizeof(kFlatMsgVersion) +
         sizeof(std::uint32_t) + sizeof(msg.round) + sizeof(msg.num_samples) + 1 +
         flat_params_v2_bytes(msg.params);
}

}  // namespace dinar::fl
