#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <fcntl.h>

#include "util/error.h"

namespace dinar::net {
namespace {

// One read() budget per connection per loop iteration: large enough to
// drain a burst, small enough that one firehose peer cannot starve the
// other connections of the event thread.
constexpr std::size_t kReadChunk = 64u << 10;
constexpr std::size_t kReadBudget = 4 * kReadChunk;

EvictReason reason_for(FrameReader::Error e) {
  switch (e) {
    case FrameReader::Error::kBadMagic: return EvictReason::kBadMagic;
    case FrameReader::Error::kOversize: return EvictReason::kOversizeFrame;
    case FrameReader::Error::kBadChecksum: return EvictReason::kBadChecksum;
    case FrameReader::Error::kOversizeDecoded: return EvictReason::kOversizeDecoded;
    case FrameReader::Error::kNone: break;
  }
  return EvictReason::kPeerClosed;
}

}  // namespace

const char* to_string(EvictReason reason) {
  switch (reason) {
    case EvictReason::kPeerClosed: return "peer_closed";
    case EvictReason::kBadMagic: return "bad_magic";
    case EvictReason::kOversizeFrame: return "oversize_frame";
    case EvictReason::kBadChecksum: return "bad_checksum";
    case EvictReason::kOversizeDecoded: return "oversize_decoded";
    case EvictReason::kSlowPeer: return "slow_peer";
    case EvictReason::kIdle: return "idle";
    case EvictReason::kShed: return "shed";
    case EvictReason::kServerStop: return "server_stop";
  }
  return "unknown";
}

TcpServer::TcpServer(ServerConfig config) : config_(config) {}

TcpServer::~TcpServer() { stop(); }

void TcpServer::start() {
  DINAR_CHECK(!running_, "TcpServer::start() while already running");
  listener_ = tcp_listen(config_.port, config_.backlog);
  DINAR_CHECK(listener_.valid(),
              "TcpServer: cannot listen on 127.0.0.1:" << config_.port);
  port_ = local_port(listener_);
  DINAR_CHECK(::pipe(wake_pipe_) == 0, "TcpServer: wake pipe creation failed");
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  running_ = true;
  thread_ = std::thread([this] { event_loop(); });
}

void TcpServer::stop() {
  if (!running_) return;
  running_ = false;
  wake();
  if (thread_.joinable()) thread_.join();

  std::vector<int> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, conn] : conns_) ids.push_back(id);
  }
  for (const int id : ids) evict(id, EvictReason::kServerStop);
  listener_.close();
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void TcpServer::wake() {
  if (wake_pipe_[1] >= 0) {
    const std::uint8_t byte = 1;
    [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);
  }
}

bool TcpServer::send(int conn_id, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed = frame(payload);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return false;
    Conn& c = *it->second;
    if (c.sendq.size() >= config_.send_queue_frames ||
        c.sendq_bytes + framed.size() > config_.send_queue_bytes) {
      ++stats_.tx_queue_drops;
      return false;  // shed the newest frame; the round protocol retries
    }
    if (c.sendq.empty()) c.blocked_since = monotonic_seconds();
    c.sendq_bytes += framed.size();
    c.sendq.push_back(std::move(framed));
  }
  wake();
  return true;
}

std::size_t TcpServer::connection_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

ServerStats TcpServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void TcpServer::count_eviction(EvictReason reason) {
  // Caller holds mu_.
  switch (reason) {
    case EvictReason::kPeerClosed: ++stats_.evicted_peer_closed; break;
    case EvictReason::kBadMagic: ++stats_.evicted_bad_magic; break;
    case EvictReason::kOversizeFrame: ++stats_.evicted_oversize; break;
    case EvictReason::kBadChecksum: ++stats_.evicted_bad_checksum; break;
    case EvictReason::kOversizeDecoded: ++stats_.evicted_oversize_decoded; break;
    case EvictReason::kSlowPeer: ++stats_.evicted_slow_peer; break;
    case EvictReason::kIdle: ++stats_.evicted_idle; break;
    case EvictReason::kShed: ++stats_.connections_shed; break;
    case EvictReason::kServerStop: break;  // shutdown is not an eviction
  }
}

void TcpServer::evict(int id, EvictReason reason) {
  std::unique_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
    count_eviction(reason);
  }
  if (on_disconnect_) on_disconnect_(id, reason);
  // `conn` closes the socket on destruction.
}

void TcpServer::accept_pending() {
  for (;;) {
    Socket accepted = tcp_accept(listener_);
    if (!accepted.valid()) return;
    bool shed = false;
    int id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_.size() >= config_.max_connections) {
        ++stats_.connections_shed;
        shed = true;  // closing `accepted` on scope exit IS the shedding
      } else {
        id = next_conn_id_++;
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(accepted);
        conn->reader = FrameReader(config_.max_frame_bytes);
        conn->last_rx = monotonic_seconds();
        conns_.emplace(id, std::move(conn));
        ++stats_.connections_accepted;
      }
    }
    (void)shed;
  }
}

void TcpServer::service_readable(int id, std::vector<std::vector<std::uint8_t>>& frames,
                                 bool& evict_conn, EvictReason& reason) {
  // Only the event thread reads sockets or touches readers, so the
  // syscalls run lock-free; stats and queue state take mu_.
  Conn* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    c = it->second.get();
  }
  std::uint8_t chunk[kReadChunk];
  std::size_t total = 0;
  bool peer_closed = false;
  while (total < kReadBudget) {
    const auto rc = ::recv(c->sock.fd(), chunk, sizeof chunk, 0);
    if (rc > 0) {
      c->reader.feed(chunk, static_cast<std::size_t>(rc));
      total += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // ECONNRESET and friends
    break;
  }

  while (auto payload = c->reader.next()) frames.push_back(std::move(*payload));

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes_rx += total;
    stats_.frames_rx += frames.size();
    if (!frames.empty()) c->last_rx = monotonic_seconds();
  }

  if (c->reader.poisoned()) {
    evict_conn = true;
    reason = reason_for(c->reader.error());
  } else if (peer_closed) {
    evict_conn = true;
    reason = EvictReason::kPeerClosed;
  }
}

void TcpServer::flush_writable(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  while (!c.sendq.empty()) {
    const std::vector<std::uint8_t>& front = c.sendq.front();
    const auto rc = ::send(c.sock.fd(), front.data() + c.send_off,
                           front.size() - c.send_off, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: kernel buffer full again; anything else: the peer is gone
      // and the next read will evict it. Either way, stop here.
      return;
    }
    stats_.bytes_tx += static_cast<std::uint64_t>(rc);
    c.send_off += static_cast<std::size_t>(rc);
    c.blocked_since = monotonic_seconds();  // progress resets the stall clock
    if (c.send_off == front.size()) {
      c.sendq_bytes -= front.size();
      c.sendq.pop_front();
      c.send_off = 0;
      ++stats_.frames_tx;
    }
  }
}

void TcpServer::sweep_timeouts() {
  const double now = monotonic_seconds();
  std::vector<std::pair<int, EvictReason>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, conn] : conns_) {
      if (config_.write_stall_timeout_seconds > 0.0 && !conn->sendq.empty() &&
          now - conn->blocked_since > config_.write_stall_timeout_seconds) {
        victims.emplace_back(id, EvictReason::kSlowPeer);
      } else if (config_.idle_timeout_seconds > 0.0 &&
                 now - conn->last_rx > config_.idle_timeout_seconds) {
        victims.emplace_back(id, EvictReason::kIdle);
      }
    }
  }
  for (const auto& [id, reason] : victims) evict(id, reason);
}

void TcpServer::event_loop() {
  while (running_) {
    // Snapshot the connection set; only this thread mutates it, so the ids
    // stay valid until we evict them ourselves.
    std::vector<struct pollfd> fds;
    std::vector<int> ids;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fds.reserve(conns_.size() + 2);
      fds.push_back({listener_.fd(), POLLIN, 0});
      fds.push_back({wake_pipe_[0], POLLIN, 0});
      for (const auto& [id, conn] : conns_) {
        short events = POLLIN;
        if (!conn->sendq.empty()) events |= POLLOUT;
        fds.push_back({conn->sock.fd(), events, 0});
        ids.push_back(id);
      }
    }

    const int timeout_ms =
        static_cast<int>(config_.poll_interval_seconds * 1000.0) + 1;
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (!running_) break;
    if (rc < 0 && errno != EINTR) break;

    if (fds[1].revents & POLLIN) {  // drain wakeup bytes
      std::uint8_t buf[64];
      while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) accept_pending();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int id = ids[i - 2];
      if (fds[i].revents & POLLOUT) flush_writable(id);
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        std::vector<std::vector<std::uint8_t>> frames;
        bool evict_conn = false;
        EvictReason reason = EvictReason::kPeerClosed;
        service_readable(id, frames, evict_conn, reason);
        // Handler runs without the lock: it may call send() re-entrantly.
        for (std::vector<std::uint8_t>& payload : frames) {
          const bool accepted = !on_frame_ || on_frame_(id, std::move(payload));
          if (!accepted) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.rx_queue_drops;
          }
        }
        if (evict_conn) evict(id, reason);
      }
    }
    sweep_timeouts();
  }
}

}  // namespace dinar::net
