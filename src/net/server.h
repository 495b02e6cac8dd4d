// TCP server speaking DFRM frames, built for graceful degradation.
//
// One poll()-based event thread owns every connection: it accepts, reads
// stream fragments into per-connection FrameReaders, hands complete
// checksum-verified payloads to the application handler, and flushes
// bounded per-peer send queues. Robustness is the design center, in order
// of violence:
//
//  - backpressure, not buffering: each peer's send queue is capped in
//    frames and bytes. A full queue drops the *newest* enqueued frame
//    (tx_queue_drops) — in the FL round protocol a lost frame is a retry,
//    an unbounded queue is an OOM. The receive side mirrors it: a handler
//    that cannot absorb a frame returns false and the frame is dropped
//    where it stands (rx_queue_drops), never parked in hidden memory.
//  - eviction with named reasons: a peer whose stream breaks framing
//    (bad magic / oversize length / checksum failure — a TCP stream has no
//    resync point after any of these), stalls its reads so long the send
//    queue cannot drain (slow peer), or goes silent past the idle timeout
//    is disconnected and counted under its specific reason. Eviction is
//    recovery, not failure: the client reconnects with backoff and the
//    round protocol retries.
//  - overload shedding: accepts beyond max_connections are closed on
//    arrival (connections_shed). Shedding the newest work keeps every
//    in-flight round intact; quorum aggregation absorbs the losses.
//
// Threading: handlers run on the event thread (keep them short — the
// round server aggregates in O(model) which is the intended use).
// send() / stats() are safe from any thread; a self-pipe wakes the poll
// loop when a cross-thread send needs flushing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace dinar::net {

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = kernel-assigned (read back via port())
  int backlog = 256;
  std::size_t max_connections = 1024;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Per-peer send queue caps; the tighter one wins.
  std::size_t send_queue_frames = 128;
  std::size_t send_queue_bytes = 64u << 20;
  // Evict a peer whose send queue has been blocked (no write progress
  // while data is queued) for this long. 0 disables.
  double write_stall_timeout_seconds = 10.0;
  // Evict a peer that has not delivered a frame for this long. 0 disables.
  double idle_timeout_seconds = 0.0;
  // Upper bound on one poll() sleep; timeout sweeps run at this cadence.
  double poll_interval_seconds = 0.05;
};

// Why the server dropped a connection.
enum class EvictReason {
  kPeerClosed,       // orderly or abortive close from the peer
  kBadMagic,         // stream bytes stopped being DFRM frames
  kOversizeFrame,    // length field exceeded max_frame_bytes
  kBadChecksum,      // complete frame failed XXH64 verification
  kOversizeDecoded,  // v3 payload declared a decoded size over the cap
  kSlowPeer,         // send queue blocked past write_stall_timeout
  kIdle,             // no frame received within idle_timeout
  kShed,             // accepted beyond max_connections, closed on arrival
  kServerStop,       // server shut down
};
const char* to_string(EvictReason reason);

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_shed = 0;
  std::uint64_t evicted_peer_closed = 0;
  std::uint64_t evicted_bad_magic = 0;
  std::uint64_t evicted_oversize = 0;
  std::uint64_t evicted_bad_checksum = 0;
  std::uint64_t evicted_oversize_decoded = 0;
  std::uint64_t evicted_slow_peer = 0;
  std::uint64_t evicted_idle = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t bytes_rx = 0;  // wire bytes read, frame headers included
  std::uint64_t bytes_tx = 0;
  std::uint64_t rx_queue_drops = 0;  // handler refused the frame
  std::uint64_t tx_queue_drops = 0;  // send queue cap shed the frame

  // Framing evictions = protocol errors (the load-test smoke gate).
  std::uint64_t protocol_errors() const {
    return evicted_bad_magic + evicted_oversize + evicted_bad_checksum +
           evicted_oversize_decoded;
  }
};

class TcpServer {
 public:
  // Returns true to accept the frame; false sheds it (rx_queue_drops).
  using FrameHandler = std::function<bool(int conn_id, std::vector<std::uint8_t> payload)>;
  using DisconnectHandler = std::function<void(int conn_id, EvictReason reason)>;

  explicit TcpServer(ServerConfig config);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  void set_frame_handler(FrameHandler handler) { on_frame_ = std::move(handler); }
  void set_disconnect_handler(DisconnectHandler handler) {
    on_disconnect_ = std::move(handler);
  }

  // Binds, listens and starts the event thread. Throws dinar::Error if the
  // port cannot be bound.
  void start();
  // Stops the event thread and closes every connection (kServerStop).
  void stop();
  bool running() const { return running_; }

  // The bound port (resolves config.port == 0 after start()).
  std::uint16_t port() const { return port_; }

  // Frames `payload` and enqueues it for `conn_id`. Returns false — and
  // counts a tx_queue_drop — when the peer's queue is at either cap, and
  // false without accounting when the connection no longer exists.
  // Thread-safe.
  bool send(int conn_id, const std::vector<std::uint8_t>& payload);

  // Live connection count. Thread-safe.
  std::size_t connection_count() const;

  // Counter snapshot. Thread-safe.
  ServerStats stats() const;

 private:
  struct Conn {
    Socket sock;
    FrameReader reader;
    std::deque<std::vector<std::uint8_t>> sendq;  // framed bytes
    std::size_t sendq_bytes = 0;
    std::size_t send_off = 0;  // progress inside sendq.front()
    double last_rx = 0.0;
    // Time of the last write progress while data was queued; the slow-peer
    // sweep evicts when (now - blocked_since) exceeds the stall timeout.
    double blocked_since = 0.0;
  };

  void event_loop();
  void accept_pending();
  // Reads once from `conn`; returns the completed frames. Sets `evict` when
  // the connection must go (reason mapped from the reader error / close).
  void service_readable(int id, std::vector<std::vector<std::uint8_t>>& frames,
                        bool& evict, EvictReason& reason);
  void flush_writable(int id);
  void sweep_timeouts();
  void evict(int id, EvictReason reason);
  void count_eviction(EvictReason reason);
  void wake();

  ServerConfig config_;
  FrameHandler on_frame_;
  DisconnectHandler on_disconnect_;

  Socket listener_;
  std::uint16_t port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> running_{false};

  mutable std::mutex mu_;  // guards conns_, stats_
  std::map<int, std::unique_ptr<Conn>> conns_;
  int next_conn_id_ = 1;
  ServerStats stats_;
};

}  // namespace dinar::net
