#include "fl/transport.h"

#include "net/frame.h"
#include "util/error.h"

namespace dinar::fl {

void TransportStats::merge(const TransportStats& other) {
  messages_up += other.messages_up;
  messages_down += other.messages_down;
  bytes_up += other.bytes_up;
  bytes_down += other.bytes_down;
  frame_bytes_up += other.frame_bytes_up;
  frame_bytes_down += other.frame_bytes_down;
  bytes_up_uncoded += other.bytes_up_uncoded;
  bytes_down_uncoded += other.bytes_down_uncoded;
  simulated_latency_seconds += other.simulated_latency_seconds;
  socket_frames_tx += other.socket_frames_tx;
  socket_frames_rx += other.socket_frames_rx;
  socket_bytes_tx += other.socket_bytes_tx;
  socket_bytes_rx += other.socket_bytes_rx;
  socket_reconnects += other.socket_reconnects;
  socket_evictions += other.socket_evictions;
  socket_queue_drops += other.socket_queue_drops;
  socket_protocol_errors += other.socket_protocol_errors;
}

void Transport::enable_faults(const FaultConfig& config) {
  injector_ = std::make_unique<FaultInjector>(config);
}

// The DFRM codec lives in net/frame.h so the socket layer and the
// in-process transport can never drift apart; these statics stay as the
// fl-facing names the round protocol and its tests use.
std::vector<std::uint8_t> Transport::frame(const std::vector<std::uint8_t>& payload) {
  return net::frame(payload);
}

std::vector<std::uint8_t> Transport::open(const std::vector<std::uint8_t>& framed) {
  return net::open_frame(framed);
}

std::vector<std::vector<std::uint8_t>> Transport::ship(
    LinkDir dir, int client_id, const std::vector<std::uint8_t>& payload,
    ShipReceipt* receipt) {
  const bool up = dir == LinkDir::kUp;
  const std::size_t payload_bytes = payload.size();
  TransportStats& acc = receipt != nullptr ? receipt->transport : stats_;

  std::vector<std::vector<std::uint8_t>> copies;
  if (injector_ != nullptr) {
    FaultedDelivery delivery = injector_->apply(
        dir, client_id, frame(payload),
        receipt != nullptr ? &receipt->faults : nullptr);
    copies = std::move(delivery.copies);
    acc.simulated_latency_seconds += delivery.extra_delay_seconds;
  } else {
    copies.push_back(frame(payload));
  }

  for (const std::vector<std::uint8_t>& copy : copies) {
    if (up) {
      ++acc.messages_up;
      acc.bytes_up += payload_bytes;
      acc.frame_bytes_up += copy.size() - payload_bytes;
    } else {
      ++acc.messages_down;
      acc.bytes_down += payload_bytes;
      acc.frame_bytes_down += copy.size() - payload_bytes;
    }
  }
  return copies;
}

void Transport::commit(const ShipReceipt& receipt) {
  stats_.merge(receipt.transport);
  if (injector_ != nullptr) injector_->merge_stats(receipt.faults);
}

}  // namespace dinar::fl
