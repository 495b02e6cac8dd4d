// In-memory byte transport between the FL server and its clients.
//
// Messages really are serialized into byte buffers on send and parsed on
// receive, so (a) traffic accounting reflects genuine payload sizes and
// (b) nothing can leak between endpoints except through bytes — the same
// isolation a socket would give. There is no per-byte latency model: the
// simulated-latency clock (TransportStats::simulated_latency_seconds)
// advances only by injected delay faults and by add_latency (retry
// backoff), and round deadlines read it.
//
// Every payload takes the framed path: ship() wraps it in a checksummed
// frame (magic + length + XXH64, net/frame.h), routes it through an optional
// FaultInjector (drop / duplicate / corrupt / delay), and open() verifies
// the frame on receive — so any in-flight corruption is detected instead
// of silently aggregated.
// bytes_up/bytes_down keep counting pure payload bytes (the quantity the
// cost experiments report); frame overhead is accounted separately.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/faults.h"

namespace dinar::fl {

struct TransportStats {
  std::uint64_t messages_up = 0;      // client -> server (delivered copies)
  std::uint64_t messages_down = 0;    // server -> client
  std::uint64_t bytes_up = 0;         // payload bytes, excluding frames
  std::uint64_t bytes_down = 0;
  std::uint64_t frame_bytes_up = 0;   // checksum-frame overhead
  std::uint64_t frame_bytes_down = 0;
  // What bytes_up/bytes_down WOULD have been with every message's params
  // as a bare f32 arena (fl::v2_wire_bytes, the raw-f32 baseline) — the
  // other side of the wire-codec savings ratio. Accounted per delivered
  // copy by the simulation only when a compressed codec is active
  // (UpdateCodecConfig::active); zero otherwise (ratio undefined → report
  // as 1x).
  std::uint64_t bytes_up_uncoded = 0;
  std::uint64_t bytes_down_uncoded = 0;
  double simulated_latency_seconds = 0.0;

  // -- socket transport (all zero on the in-process transport) -------------
  std::uint64_t socket_frames_tx = 0;  // envelope frames written to the wire
  std::uint64_t socket_frames_rx = 0;  // envelope frames read off the wire
  std::uint64_t socket_bytes_tx = 0;   // wire bytes, envelope framing included
  std::uint64_t socket_bytes_rx = 0;
  std::uint64_t socket_reconnects = 0;       // client reconnections
  std::uint64_t socket_evictions = 0;        // server-side evictions of our peers
  std::uint64_t socket_queue_drops = 0;      // frames shed by bounded send queues
  std::uint64_t socket_protocol_errors = 0;  // poisoned streams (either side)

  // Counter-wise accumulate (used when folding deferred receipts back in).
  void merge(const TransportStats& other);
};

// Deferred accounting for one client's exchange. The parallel round
// protocol ships with a receipt so concurrent exchanges never race on the
// shared stats, then the coordinator commit()s receipts in deterministic
// client-id order — double-precision latency sums come out bit-identical
// for any thread count. Under the streaming round engine (DESIGN.md §13)
// an exchange task's completion IS the arrival event: ship() stays
// synchronous within the task, and the receipt commit happens the moment
// the coordinator reaches that client in ascending order — possibly while
// later clients' exchanges are still in flight.
struct ShipReceipt {
  TransportStats transport;
  FaultStats faults;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Attaches a fault injector; subsequent ship() calls suffer its faults.
  void enable_faults(const FaultConfig& config);
  // The attached injector, or nullptr when running fault-free.
  FaultInjector* faults() { return injector_.get(); }
  const FaultInjector* faults() const { return injector_.get(); }

  // Frames the payload, applies faults (if enabled), and accounts every
  // delivered copy. Returns the framed copies that arrived (possibly none
  // — dropped — or two — duplicated). With `receipt == nullptr` the
  // accounting lands directly in stats(). With a receipt, all accounting is deferred into it and the caller must later
  // commit() it — this is the thread-safe path: concurrent ship() calls
  // for different clients touch no shared mutable state.
  //
  // Virtual: this is the transport seam. The base class delivers in
  // process; SocketTransport (fl/socket_transport.h) overrides it to move
  // the identical framed copies over real loopback TCP, so the simulation
  // runs unchanged on either.
  virtual std::vector<std::vector<std::uint8_t>> ship(
      LinkDir dir, int client_id, const std::vector<std::uint8_t>& payload,
      ShipReceipt* receipt = nullptr);

  // Folds a deferred receipt into stats() (and the injector's fault
  // stats). Call in deterministic order, from one thread.
  void commit(const ShipReceipt& receipt);

  // Wraps a payload in [magic | u64 length | u64 XXH64 checksum | bytes].
  static std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload);
  // Verifies and strips a frame; throws dinar::Error on a bad magic,
  // length, or checksum (the message was corrupted in flight).
  static std::vector<std::uint8_t> open(const std::vector<std::uint8_t>& framed);

  // Adds simulated wall-clock (retry backoff, deadline waits).
  void add_latency(double seconds) { stats_.simulated_latency_seconds += seconds; }

  const TransportStats& stats() const { return stats_; }
  void reset_stats() { stats_ = TransportStats{}; }
  // Crash recovery: installs the persisted post-round counters verbatim
  // (absolute values, not deltas, so the double-valued latency clock —
  // which gates retry deadlines — matches the uninterrupted run bit for
  // bit).
  void restore_stats(const TransportStats& stats) { stats_ = stats; }

 protected:
  // Derived transports (socket) fold their wire accounting in here when
  // shipping without a receipt. Receipt-path accounting must go through the
  // receipt instead — concurrent ship() calls may not touch shared state.
  TransportStats& mutable_stats() { return stats_; }

 private:
  TransportStats stats_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace dinar::fl
