// Tests for the TCP socket layer (net/) and the SocketTransport seam.
//
// The wire tests run a real TcpServer on an ephemeral loopback port and
// talk to it through TcpClient — partial frames, poisoned streams,
// evictions, backpressure and reconnects all exercise the same code paths
// the load-test harness leans on. The transport tests then prove the seam
// contract: a simulation over loopback sockets is bit-identical to the
// in-process run, including under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "data/splits.h"
#include "fl/simulation.h"
#include "fl/socket_transport.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "test_helpers.h"
#include "util/error.h"

namespace dinar::net {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// Spins until `pred` holds or ~2 s pass (loopback events are fast; the
// margin is for loaded CI machines).
template <typename Pred>
bool eventually(Pred pred, double timeout_seconds = 2.0) {
  const double deadline = monotonic_seconds() + timeout_seconds;
  while (monotonic_seconds() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ------------------------------------------------------------ FrameReader --

TEST(FrameReaderTest, WholeFrameInOneFeed) {
  FrameReader r;
  const auto payload = bytes({1, 2, 3, 4});
  const auto framed = frame(payload);
  r.feed(framed.data(), framed.size());
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(r.next().has_value());
  EXPECT_FALSE(r.poisoned());
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(FrameReaderTest, ByteByByteFeedYieldsTheFrame) {
  FrameReader r;
  const auto payload = bytes({9, 8, 7});
  const auto framed = frame(payload);
  for (std::size_t i = 0; i < framed.size(); ++i) {
    const bool last = i + 1 == framed.size();
    r.feed(&framed[i], 1);
    if (!last) {
      EXPECT_FALSE(r.next().has_value()) << "premature frame at byte " << i;
    }
  }
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(FrameReaderTest, TwoFramesInOneFeed) {
  FrameReader r;
  auto wire = frame(bytes({1}));
  const auto second = frame(bytes({2, 2}));
  wire.insert(wire.end(), second.begin(), second.end());
  r.feed(wire.data(), wire.size());
  EXPECT_EQ(*r.next(), bytes({1}));
  EXPECT_EQ(*r.next(), bytes({2, 2}));
  EXPECT_FALSE(r.next().has_value());
}

TEST(FrameReaderTest, EmptyPayloadFrame) {
  FrameReader r;
  const auto framed = frame({});
  r.feed(framed.data(), framed.size());
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(FrameReaderTest, BadMagicPoisonsTheStream) {
  FrameReader r;
  auto framed = frame(bytes({1, 2, 3}));
  framed[0] ^= 0xFF;
  r.feed(framed.data(), framed.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.error(), FrameReader::Error::kBadMagic);
  // Latched: clean bytes after the poison never produce frames.
  const auto clean = frame(bytes({4}));
  r.feed(clean.data(), clean.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_TRUE(r.poisoned());
}

TEST(FrameReaderTest, OversizeLengthPoisonsWithoutAllocating) {
  FrameReader r(/*max_frame_bytes=*/64);
  const auto framed = frame(std::vector<std::uint8_t>(65, 0xAB));
  r.feed(framed.data(), kFrameHeaderBytes);  // header alone decides
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.error(), FrameReader::Error::kOversize);
}

TEST(FrameReaderTest, CorruptPayloadPoisonsWithChecksumError) {
  FrameReader r;
  auto framed = frame(bytes({1, 2, 3, 4, 5}));
  framed[framed.size() - 1] ^= 0x01;
  r.feed(framed.data(), framed.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.error(), FrameReader::Error::kBadChecksum);
}

// A minimal DFRM *message* payload header: the frame layer sniffs the
// declared decoded size at its fixed offset without parsing the message.
std::vector<std::uint8_t> message_payload(std::uint64_t decoded_bytes) {
  std::vector<std::uint8_t> p(kMessageDecodedSizeOffset + sizeof(std::uint64_t) + 4,
                              0x33);
  std::memcpy(p.data(), &kMessageMagic, sizeof kMessageMagic);
  p[4] = 1;  // kind
  std::memcpy(p.data() + 5, &kMessageVersion, sizeof kMessageVersion);
  std::memcpy(p.data() + kMessageDecodedSizeOffset, &decoded_bytes,
              sizeof decoded_bytes);
  return p;
}

TEST(FrameReaderTest, OversizeDecodedDeclarationPoisonsTheStream) {
  // Decompression-bomb guard: a tiny, checksum-valid frame whose payload
  // declares a multi-GB decoded arena poisons the stream by name, before
  // any decode-side allocation could happen.
  FrameReader r;
  const auto framed = frame(message_payload(1ull << 40));
  r.feed(framed.data(), framed.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.error(), FrameReader::Error::kOversizeDecoded);
  EXPECT_STREQ(FrameReader::to_string(r.error()), "oversize_decoded");
  EXPECT_TRUE(r.poisoned());

  // The one-shot open_frame() twin enforces the same cap.
  EXPECT_THROW(open_frame(framed), dinar::Error);

  // A declaration under the cap passes through untouched...
  FrameReader ok;
  const auto payload = message_payload(4096);
  const auto good = frame(payload);
  ok.feed(good.data(), good.size());
  ASSERT_TRUE(ok.next().has_value());
  EXPECT_FALSE(ok.poisoned());
  EXPECT_EQ(open_frame(good), payload);

  // ...and payloads of another version are never sniffed: the same huge
  // bytes at the decoded-size offset of a version-2 message mean nothing
  // here (the message decoder refuses that version by name).
  FrameReader v2;
  auto legacy = message_payload(1ull << 40);
  const std::uint32_t version2 = 2;
  std::memcpy(legacy.data() + 5, &version2, sizeof version2);
  const auto legacy_framed = frame(legacy);
  v2.feed(legacy_framed.data(), legacy_framed.size());
  ASSERT_TRUE(v2.next().has_value());
  EXPECT_FALSE(v2.poisoned());
}

TEST(FrameReaderTest, ChecksumStillWinsOverOversizeDecoded) {
  // A corrupted frame must report corruption, not trust the (equally
  // corrupt) decoded-size field: the checksum verdict comes first.
  FrameReader r;
  auto framed = frame(message_payload(1ull << 40));
  framed[framed.size() - 1] ^= 0x01;
  r.feed(framed.data(), framed.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.error(), FrameReader::Error::kBadChecksum);
}

TEST(FrameReaderTest, TornFrameCompletesAcrossFeeds) {
  FrameReader r;
  const auto payload = std::vector<std::uint8_t>(1000, 0x5A);
  const auto framed = frame(payload);
  r.feed(framed.data(), framed.size() / 2);
  EXPECT_FALSE(r.next().has_value());
  r.feed(framed.data() + framed.size() / 2, framed.size() - framed.size() / 2);
  const auto got = r.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

// ---------------------------------------------------------------- checksum --

std::uint64_t checksum_of(const std::string& s) {
  return xxh64(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

// XXH64 (seed 0) written straight from the specification, one byte at a
// time: the oracle for the production routine's word loads and tail
// branches.
std::uint64_t reference_xxh64(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ULL, P2 = 0xC2B2AE3D27D4EB4FULL,
                          P3 = 0x165667B19E3779F9ULL, P4 = 0x85EBCA77C2B2AE63ULL,
                          P5 = 0x27D4EB2F165667C5ULL;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto le = [&](std::size_t at, int bytes) {
    std::uint64_t v = 0;
    for (int b = bytes - 1; b >= 0; --b) v = (v << 8) | p[at + static_cast<std::size_t>(b)];
    return v;
  };
  auto mix = [&](std::uint64_t acc, std::uint64_t in) {
    return rotl(acc + in * P2, 31) * P1;
  };
  std::size_t i = 0;
  std::uint64_t h = P5;
  if (n >= 32) {
    std::uint64_t v[4] = {P1 + P2, P2, 0, 0 - P1};
    for (; i + 32 <= n; i += 32)
      for (std::size_t lane = 0; lane < 4; ++lane) v[lane] = mix(v[lane], le(i + 8 * lane, 8));
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (std::uint64_t lane : v) h = (h ^ mix(0, lane)) * P1 + P4;
  }
  h += n;
  for (; i + 8 <= n; i += 8) h = rotl(h ^ mix(0, le(i, 8)), 27) * P1 + P4;
  if (i + 4 <= n) {
    h = rotl(h ^ (le(i, 4) * P1), 23) * P2 + P3;
    i += 4;
  }
  for (; i < n; ++i) h = rotl(h ^ (p[i] * P5), 11) * P1;
  h = (h ^ (h >> 33)) * P2;
  h = (h ^ (h >> 29)) * P3;
  return h ^ (h >> 32);
}

TEST(FrameChecksumTest, PublishedXxh64Vectors) {
  EXPECT_EQ(checksum_of(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(checksum_of("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(checksum_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);  // 39 bytes: the four-lane stripe path
}

TEST(FrameChecksumTest, MatchesTheReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..130 walk every tail branch (8-, 4- and 1-byte steps) both
  // below and above the 32-byte stripe threshold; the offsets make the
  // word loads unaligned.
  std::vector<std::uint8_t> buf(130 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 130; ++n)
      ASSERT_EQ(xxh64(buf.data() + offset, n), reference_xxh64(buf.data() + offset, n))
          << "length " << n << " at offset " << offset;
}

TEST(FrameChecksumTest, ModelFingerprintKeepsItsFnv1aValues) {
  // fnv1a64 is no longer the frame checksum but still fingerprints models;
  // its values must never move.
  auto fnv = [](const std::string& s) {
    return fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(fnv(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv("foobar"), 0x85944171f73967e8ULL);
}

// A frame in the layout before XXH64: 'DFRM' magic and an FNV-1a checksum.
std::vector<std::uint8_t> old_layout_frame(const std::vector<std::uint8_t>& payload) {
  constexpr std::uint32_t kOldMagic = 0x4446524D;  // "DFRM"
  const std::uint64_t length = payload.size();
  const std::uint64_t checksum = fnv1a64(payload.data(), payload.size());
  std::vector<std::uint8_t> framed(kFrameHeaderBytes + payload.size());
  std::memcpy(framed.data(), &kOldMagic, sizeof kOldMagic);
  std::memcpy(framed.data() + sizeof kOldMagic, &length, sizeof length);
  std::memcpy(framed.data() + sizeof kOldMagic + sizeof length, &checksum, sizeof checksum);
  std::copy(payload.begin(), payload.end(), framed.begin() + kFrameHeaderBytes);
  return framed;
}

TEST(FrameChecksumTest, OldLayoutFrameIsRefusedAsBadMagic) {
  const auto old = old_layout_frame(bytes({1, 2, 3, 4}));
  ASSERT_EQ(old.size(), frame(bytes({1, 2, 3, 4})).size());  // same header size
  FrameReader r;
  r.feed(old.data(), old.size());
  EXPECT_FALSE(r.next().has_value());
  EXPECT_EQ(r.error(), FrameReader::Error::kBadMagic);
  EXPECT_THROW(open_frame(old), dinar::Error);
}

TEST(FrameChecksumTest, EverySingleBitFlipIsABadChecksum) {
  // Flips in the payload and in the checksum field of a 64-byte frame;
  // the magic and length fields are judged before the checksum.
  std::vector<std::uint8_t> payload(64 - kFrameHeaderBytes);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 37 + 1);
  const auto framed = frame(payload);
  ASSERT_EQ(framed.size(), 64u);
  const std::size_t checksum_at = sizeof(std::uint32_t) + sizeof(std::uint64_t);
  for (std::size_t byte = checksum_at; byte < framed.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = framed;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameReader r;
      r.feed(flipped.data(), flipped.size());
      EXPECT_FALSE(r.next().has_value()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(r.error(), FrameReader::Error::kBadChecksum)
          << "byte " << byte << " bit " << bit;
      EXPECT_THROW(open_frame(flipped), dinar::Error);
    }
}

// ------------------------------------------------------- server <-> client --

struct EchoServer {
  explicit EchoServer(ServerConfig cfg = {}) : server(cfg) {
    server.set_frame_handler([this](int conn, std::vector<std::uint8_t> payload) {
      server.send(conn, payload);
      return true;
    });
    server.start();
  }
  ~EchoServer() { server.stop(); }
  TcpServer server;
};

ClientConfig client_config(std::uint16_t port) {
  ClientConfig cc;
  cc.port = port;
  cc.backoff_initial_seconds = 0.001;
  cc.backoff_max_seconds = 0.02;
  return cc;
}

TEST(TcpTest, EchoRoundTrip) {
  EchoServer echo;
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  const auto payload = bytes({10, 20, 30});
  ASSERT_TRUE(client.send_frame(payload));
  const auto got = client.recv_frame(2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  const ServerStats s = echo.server.stats();
  EXPECT_EQ(s.frames_rx, 1u);
  EXPECT_EQ(s.frames_tx, 1u);
  EXPECT_EQ(s.protocol_errors(), 0u);
}

TEST(TcpTest, ManyFramesManyClients) {
  EchoServer echo;
  constexpr int kClients = 8, kFrames = 25;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client(client_config(echo.server.port()));
      if (!client.ensure_connected()) return;
      for (int f = 0; f < kFrames; ++f) {
        const auto payload = bytes({c, f, f + 1});
        if (!client.send_frame(payload)) return;
        const auto got = client.recv_frame(5.0);
        if (!got.has_value() || *got != payload) return;
      }
      ++ok;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_EQ(echo.server.stats().frames_rx,
            static_cast<std::uint64_t>(kClients * kFrames));
}

TEST(TcpTest, GarbageBytesEvictWithBadMagic) {
  EchoServer echo;
  std::atomic<int> evictions{0};
  std::atomic<int> last_reason{-1};
  echo.server.set_disconnect_handler([&](int, EvictReason reason) {
    last_reason = static_cast<int>(reason);
    ++evictions;
  });
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(client.send_raw(bytes({0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0,
                                     0, 0, 0, 0, 0, 0, 0, 0, 0, 0})));
  ASSERT_TRUE(eventually([&] { return evictions.load() == 1; }));
  EXPECT_EQ(last_reason.load(), static_cast<int>(EvictReason::kBadMagic));
  EXPECT_EQ(echo.server.stats().evicted_bad_magic, 1u);
  EXPECT_EQ(echo.server.stats().protocol_errors(), 1u);
  // The connection is gone: the next receive observes the close.
  EXPECT_FALSE(client.recv_frame(2.0).has_value());
  EXPECT_FALSE(client.connected());
}

TEST(TcpTest, OldLayoutFrameEvictsWithBadMagic) {
  // A peer still speaking the 'DFRM' + FNV-1a layout is refused by name.
  EchoServer echo;
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(client.send_raw(old_layout_frame(bytes({1, 2, 3, 4}))));
  ASSERT_TRUE(eventually([&] { return echo.server.stats().evicted_bad_magic == 1; }));
  EXPECT_EQ(echo.server.stats().frames_rx, 0u);
  EXPECT_FALSE(client.recv_frame(2.0).has_value());
}

TEST(TcpTest, OversizeFrameEvicts) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 1024;
  EchoServer echo(cfg);
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(client.send_frame(std::vector<std::uint8_t>(2048, 1)));
  ASSERT_TRUE(eventually([&] { return echo.server.stats().evicted_oversize == 1; }));
  EXPECT_EQ(echo.server.connection_count(), 0u);
}

TEST(TcpTest, CorruptFrameEvictsWithBadChecksum) {
  EchoServer echo;
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  auto framed = frame(bytes({1, 2, 3, 4}));
  framed.back() ^= 0x40;
  ASSERT_TRUE(client.send_raw(framed));
  ASSERT_TRUE(
      eventually([&] { return echo.server.stats().evicted_bad_checksum == 1; }));
}

TEST(TcpTest, OversizeDecodedFrameEvictsAsAProtocolError) {
  // A checksum-valid frame whose payload declares a decoded arena over
  // the cap (a decompression bomb) is a framing violation, not a close.
  EchoServer echo;
  std::atomic<int> last_reason{-1};
  echo.server.set_disconnect_handler(
      [&](int, EvictReason reason) { last_reason = static_cast<int>(reason); });
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(client.send_raw(frame(message_payload(1ull << 40))));
  ASSERT_TRUE(eventually([&] { return last_reason.load() != -1; }));
  EXPECT_EQ(last_reason.load(), static_cast<int>(EvictReason::kOversizeDecoded));
  EXPECT_STREQ(to_string(EvictReason::kOversizeDecoded), "oversize_decoded");
  const ServerStats s = echo.server.stats();
  EXPECT_EQ(s.evicted_oversize_decoded, 1u);
  EXPECT_EQ(s.evicted_peer_closed, 0u);
  EXPECT_EQ(s.protocol_errors(), 1u);
  EXPECT_FALSE(client.recv_frame(2.0).has_value());  // observes the close
}

TEST(TcpTest, ClientReconnectsAfterEviction) {
  EchoServer echo;
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  // Poison our own stream; the server evicts us.
  ASSERT_TRUE(client.send_raw(bytes({1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                                     1, 1, 1, 1, 1, 1, 1, 1, 1, 1})));
  ASSERT_TRUE(eventually([&] { return echo.server.stats().evicted_bad_magic == 1; }));
  EXPECT_FALSE(client.recv_frame(2.0).has_value());  // observes the close
  ASSERT_TRUE(client.ensure_connected());
  EXPECT_EQ(client.stats().reconnects, 1u);
  // The fresh connection works.
  ASSERT_TRUE(client.send_frame(bytes({7})));
  const auto got = client.recv_frame(2.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes({7}));
}

TEST(TcpTest, ConnectFailureRetriesWithBackoffThenGivesUp) {
  // Bind-then-close leaves a port nothing listens on.
  std::uint16_t dead_port = 0;
  {
    Socket s = tcp_listen(0, 1);
    dead_port = local_port(s);
  }
  ClientConfig cc = client_config(dead_port);
  cc.max_connect_attempts = 3;
  cc.connect_timeout_seconds = 0.2;
  TcpClient client(cc);
  EXPECT_FALSE(client.ensure_connected());
  EXPECT_EQ(client.stats().connect_failures, 3u);
  EXPECT_EQ(client.stats().connects, 0u);
}

TEST(TcpTest, SendQueueCapShedsNewestFrames) {
  ServerConfig cfg;
  cfg.send_queue_frames = 2;
  EchoServer echo(cfg);
  std::atomic<int> conn_id{-1};
  echo.server.set_frame_handler([&](int conn, std::vector<std::uint8_t>) {
    conn_id = conn;
    return true;
  });
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(client.send_frame(bytes({1})));
  ASSERT_TRUE(eventually([&] { return conn_id.load() >= 0; }));
  // The client never reads, so once the kernel buffers fill the queue
  // stays at its 2-frame cap and further sends are shed.
  const std::vector<std::uint8_t> big(1u << 20, 0x77);
  int dropped = 0;
  for (int i = 0; i < 64; ++i)
    if (!echo.server.send(conn_id.load(), big)) ++dropped;
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(echo.server.stats().tx_queue_drops, static_cast<std::uint64_t>(dropped));
}

TEST(TcpTest, HandlerRefusalCountsRxQueueDrops) {
  ServerConfig cfg;
  TcpServer server(cfg);
  server.set_frame_handler([](int, std::vector<std::uint8_t>) { return false; });
  server.start();
  TcpClient client(client_config(server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(client.send_frame(bytes({1, 2})));
  EXPECT_TRUE(eventually([&] { return server.stats().rx_queue_drops == 1; }));
  server.stop();
}

TEST(TcpTest, IdleTimeoutEvicts) {
  ServerConfig cfg;
  cfg.idle_timeout_seconds = 0.05;
  cfg.poll_interval_seconds = 0.01;
  EchoServer echo(cfg);
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  ASSERT_TRUE(eventually([&] { return echo.server.stats().evicted_idle == 1; }));
  EXPECT_EQ(echo.server.connection_count(), 0u);
}

TEST(TcpTest, SlowPeerEvicted) {
  ServerConfig cfg;
  cfg.send_queue_frames = 4;
  cfg.write_stall_timeout_seconds = 0.1;
  cfg.poll_interval_seconds = 0.01;
  EchoServer echo(cfg);
  TcpClient client(client_config(echo.server.port()));
  ASSERT_TRUE(client.ensure_connected());
  // Echoing large frames the client never drains blocks the send queue.
  const std::vector<std::uint8_t> big(4u << 20, 0x33);
  for (int i = 0; i < 4; ++i) client.send_frame(big);
  EXPECT_TRUE(eventually([&] { return echo.server.stats().evicted_slow_peer == 1; },
                         5.0));
}

TEST(TcpTest, ConnectionsBeyondCapAreShed) {
  ServerConfig cfg;
  cfg.max_connections = 2;
  EchoServer echo(cfg);
  TcpClient a(client_config(echo.server.port()));
  TcpClient b(client_config(echo.server.port()));
  ASSERT_TRUE(a.ensure_connected());
  ASSERT_TRUE(b.ensure_connected());
  ASSERT_TRUE(eventually([&] { return echo.server.connection_count() == 2; }));
  ClientConfig cc = client_config(echo.server.port());
  cc.max_connect_attempts = 1;
  TcpClient c(cc);
  // The TCP handshake may succeed before the server closes the socket;
  // what matters is that the peer is dropped and counted.
  c.ensure_connected();
  EXPECT_TRUE(eventually([&] { return echo.server.stats().connections_shed >= 1; }));
  EXPECT_FALSE(c.recv_frame(0.5).has_value());
  EXPECT_EQ(echo.server.connection_count(), 2u);
}

}  // namespace
}  // namespace dinar::net

// -------------------------------------------------- SocketTransport seam --

namespace dinar::fl {
namespace {

using dinar::testing::tiny_mlp_factory;

data::FlSplit socket_split(int clients, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = dinar::testing::make_easy_dataset(n, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = clients;
  return data::make_fl_split(full, cfg, rng);
}

TEST(SocketTransportTest, ShipRoundTripsOverTheWire) {
  SocketTransport t;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto down = t.ship(LinkDir::kDown, 0, payload);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(Transport::open(down[0]), payload);
  const auto up = t.ship(LinkDir::kUp, 0, payload);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(Transport::open(up[0]), payload);
  const TransportStats& s = t.stats();
  EXPECT_EQ(s.messages_up, 1u);
  EXPECT_EQ(s.messages_down, 1u);
  EXPECT_EQ(s.socket_frames_tx, 2u);
  EXPECT_EQ(s.socket_frames_rx, 2u);
  EXPECT_GT(s.socket_bytes_tx, 0u);
  EXPECT_EQ(s.socket_protocol_errors, 0u);
  EXPECT_EQ(t.server_stats().protocol_errors(), 0u);
}

TEST(SocketTransportTest, CorruptedInnerFrameCrossesTheWireIntact) {
  // A fault-injected corrupt copy must arrive byte-for-byte (so open()
  // rejects it at the receiver) without desyncing the envelope stream.
  SocketTransport t;
  FaultConfig faults;
  faults.corrupt_up = 1.0;
  faults.seed = 9;
  t.enable_faults(faults);
  t.faults()->begin_round(0);
  const std::vector<std::uint8_t> payload(256, 0x42);
  const auto up = t.ship(LinkDir::kUp, 0, payload);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_THROW(Transport::open(up[0]), Error);
  // The stream survives: a clean ship on the same connection still works.
  const auto down = t.ship(LinkDir::kDown, 0, payload);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(Transport::open(down[0]), payload);
  EXPECT_EQ(t.server_stats().protocol_errors(), 0u);
}

TEST(SocketTransportTest, SimulationBitIdenticalToInProcessTransport) {
  SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.train = TrainConfig{1, 32};
  cfg.seed = 11;
  FederatedSimulation in_process(tiny_mlp_factory(2, 2), socket_split(3, 200, 31),
                                 cfg, DefenseBundle{});
  cfg.socket_transport = true;
  FederatedSimulation sockets(tiny_mlp_factory(2, 2), socket_split(3, 200, 31),
                              cfg, DefenseBundle{});
  in_process.run();
  sockets.run();

  const std::span<const float> a = in_process.server().global_params().as_span();
  const std::span<const float> b = sockets.server().global_params().as_span();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]))
        << "arena diverges at float " << i;

  // Identical payload accounting; real wire traffic on the socket run only.
  EXPECT_EQ(in_process.transport().stats().bytes_up,
            sockets.transport().stats().bytes_up);
  EXPECT_EQ(in_process.transport().stats().messages_down,
            sockets.transport().stats().messages_down);
  EXPECT_EQ(in_process.transport().stats().socket_frames_tx, 0u);
  EXPECT_GT(sockets.transport().stats().socket_frames_tx, 0u);
  EXPECT_EQ(sockets.transport().stats().socket_frames_rx,
            sockets.transport().stats().socket_frames_tx);
}

TEST(SocketTransportTest, FaultedSimulationMatchesInProcessOutcomes) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  cfg.seed = 23;
  cfg.min_clients = 1;
  cfg.max_retries = 2;
  cfg.faults.drop_up = 0.3;
  cfg.faults.drop_down = 0.2;
  cfg.faults.corrupt_up = 0.2;
  cfg.faults.duplicate_up = 0.2;
  cfg.faults.seed = 5;
  FederatedSimulation in_process(tiny_mlp_factory(2, 2), socket_split(3, 200, 37),
                                 cfg, DefenseBundle{});
  cfg.socket_transport = true;
  FederatedSimulation sockets(tiny_mlp_factory(2, 2), socket_split(3, 200, 37),
                              cfg, DefenseBundle{});
  in_process.run();
  sockets.run();

  const std::span<const float> a = in_process.server().global_params().as_span();
  const std::span<const float> b = sockets.server().global_params().as_span();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]));

  // The per-round event logs agree entry by entry.
  ASSERT_EQ(in_process.round_log().size(), sockets.round_log().size());
  for (std::size_t r = 0; r < in_process.round_log().size(); ++r) {
    const RoundOutcome& x = in_process.round_log()[r];
    const RoundOutcome& y = sockets.round_log()[r];
    EXPECT_EQ(x.accepted, y.accepted) << "round " << r;
    EXPECT_EQ(x.quarantined.size(), y.quarantined.size()) << "round " << r;
    EXPECT_EQ(x.lost_update, y.lost_update) << "round " << r;
    EXPECT_EQ(x.carried_forward, y.carried_forward) << "round " << r;
    EXPECT_EQ(x.retries_used, y.retries_used) << "round " << r;
  }
}

TEST(SocketTransportTest, ParallelSimulationOverSocketsMatchesSequential) {
  SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = TrainConfig{1, 32};
  cfg.seed = 41;
  cfg.socket_transport = true;
  FederatedSimulation sequential(tiny_mlp_factory(2, 2), socket_split(4, 200, 43),
                                 cfg, DefenseBundle{});
  cfg.exec.threads = 4;
  FederatedSimulation parallel(tiny_mlp_factory(2, 2), socket_split(4, 200, 43),
                               cfg, DefenseBundle{});
  sequential.run();
  parallel.run();
  const std::span<const float> a = sequential.server().global_params().as_span();
  const std::span<const float> b = parallel.server().global_params().as_span();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]), std::bit_cast<std::uint32_t>(b[i]));
  EXPECT_EQ(sequential.transport().stats().socket_frames_tx,
            parallel.transport().stats().socket_frames_tx);
}

}  // namespace
}  // namespace dinar::fl
