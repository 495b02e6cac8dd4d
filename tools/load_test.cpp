// Socket-transport load test: hundreds of concurrent TCP clients against a
// durable round server, with a kill -9 phase and a fault-injection phase.
//
// The binary re-executes itself in two roles:
//
//   load_test --serve <dir> <port>   round-server role: a TcpServer backed
//                                    by a store::RoundStore. Every client
//                                    "round" is one request frame; the
//                                    server WAL-appends the commit, then
//                                    acks. Acks are idempotent — a client
//                                    that never saw its ack retries the
//                                    same round and gets re-acked without a
//                                    second append — which is what makes
//                                    kill -9 recovery exactly-once.
//
//   load_test [--smoke] [work_dir]   orchestrator: spawns the server, runs
//                                    three phases of in-process client
//                                    threads (clean load, kill -9 +
//                                    restart mid-load, deliberate frame
//                                    corruption), then audits the WAL for
//                                    lost or duplicated commits and writes
//                                    BENCH_SOCKET.json. Gates (enforced in
//                                    every mode, so --smoke doubles as the
//                                    CI check): zero protocol errors in
//                                    the clean phase, a minimum rounds/sec
//                                    floor, and the exactly-once audit.
//
// Wire protocol (payloads of ordinary DFRM frames):
//   client -> server  [u32 'LREQ' | u64 client | u64 round | blob]
//   server -> client  [u32 'LACK' | u64 client | u64 round]
//   stats query       [u32 'STAT' | u64 0 | u64 0] ->
//                     [u32 'SRSP' | u64 committed | u64 protocol_errors |
//                      u64 evictions | u64 tx_drops | u64 rx_drops |
//                      u64 seq_errors | u64 accepted_conns]
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "store/io.h"
#include "store/round_store.h"
#include "util/error.h"

namespace {

namespace fs = std::filesystem;
using namespace dinar;

constexpr std::uint32_t kReqTag = 0x5145524C;   // "LREQ"
constexpr std::uint32_t kAckTag = 0x4B43414C;   // "LACK"
constexpr std::uint32_t kStatTag = 0x54415453;  // "STAT"
constexpr std::uint32_t kStatRespTag = 0x50535253;  // "SRSP"
constexpr std::size_t kHeadBytes = sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  const std::size_t at = b.size();
  b.resize(at + sizeof v);
  std::memcpy(b.data() + at, &v, sizeof v);
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  const std::size_t at = b.size();
  b.resize(at + sizeof v);
  std::memcpy(b.data() + at, &v, sizeof v);
}

std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint32_t v = 0;
  if (at + sizeof v <= b.size()) std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint64_t v = 0;
  if (at + sizeof v <= b.size()) std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

std::vector<std::uint8_t> head(std::uint32_t tag, std::uint64_t client,
                               std::uint64_t round) {
  std::vector<std::uint8_t> b;
  b.reserve(kHeadBytes);
  put_u32(b, tag);
  put_u64(b, client);
  put_u64(b, round);
  return b;
}

// Rows of named values written as a JSON array to BENCH_SOCKET.json —
// the same shape the bench harness emits, hand-rolled here so the tool
// links only the net + store layers.
class JsonRows {
 public:
  JsonRows& begin_row() {
    rows_.emplace_back();
    return *this;
  }
  JsonRows& field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    rows_.back().emplace_back(key, buf);
    return *this;
  }
  JsonRows& field(const std::string& key, std::int64_t v) {
    rows_.back().emplace_back(key, std::to_string(v));
    return *this;
  }
  JsonRows& field(const std::string& key, const std::string& v) {
    rows_.back().emplace_back(key, "\"" + v + "\"");
    return *this;
  }
  void write(const std::string& path) const {
    std::string out = "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out += "  {";
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        out += "\"" + rows_[r][f].first + "\": " + rows_[r][f].second;
        if (f + 1 < rows_[r].size()) out += ", ";
      }
      out += r + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "]\n";
    store::atomic_write_file(path, std::vector<std::uint8_t>(out.begin(), out.end()));
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

// ------------------------------------------------------------ server role --

int serve(const std::string& dir, std::uint16_t port) {
  store::RoundStore store(dir + "/store");

  // Rebuild the per-client commit cursor from the WAL: the next round each
  // client is allowed to commit. This is the recovery contract — a restart
  // remembers every acked commit and re-acks (never re-appends) retries of
  // them.
  // The record views die with this scope, before the first append.
  std::map<std::uint64_t, std::uint64_t> next_round;
  {
    const store::RoundStore::Recovered rec = store.recover();
    for (const std::span<const std::uint8_t> r : rec.wal_records) {
      if (r.size() < 2 * sizeof(std::uint64_t)) continue;
      const std::uint64_t client = get_u64(r, 0);
      const std::uint64_t round = get_u64(r, sizeof(std::uint64_t));
      if (round + 1 > next_round[client]) next_round[client] = round + 1;
    }
  }

  std::atomic<std::uint64_t> committed{0}, seq_errors{0};

  net::ServerConfig cfg;
  cfg.port = port;
  cfg.max_connections = 2048;
  cfg.max_frame_bytes = 8u << 20;
  cfg.send_queue_frames = 64;
  cfg.write_stall_timeout_seconds = 5.0;
  cfg.poll_interval_seconds = 0.02;
  net::TcpServer server(cfg);

  server.set_frame_handler([&](int conn, std::vector<std::uint8_t> payload) {
    if (payload.size() < kHeadBytes) return false;  // shed malformed requests
    const std::uint32_t tag = get_u32(payload, 0);
    const std::uint64_t client = get_u64(payload, sizeof(std::uint32_t));
    const std::uint64_t round =
        get_u64(payload, sizeof(std::uint32_t) + sizeof(std::uint64_t));
    if (tag == kStatTag) {
      const net::ServerStats s = server.stats();
      std::vector<std::uint8_t> resp;
      put_u32(resp, kStatRespTag);
      put_u64(resp, committed.load());
      put_u64(resp, s.protocol_errors());
      put_u64(resp, s.protocol_errors() + s.evicted_slow_peer + s.evicted_idle);
      put_u64(resp, s.tx_queue_drops);
      put_u64(resp, s.rx_queue_drops);
      put_u64(resp, seq_errors.load());
      put_u64(resp, s.connections_accepted);
      server.send(conn, resp);
      return true;
    }
    if (tag != kReqTag) return false;

    std::uint64_t& next = next_round[client];
    if (round == next) {
      // Commit: durable append first, ack second. A kill between the two
      // leaves the commit in the WAL and the client retrying — the retry
      // lands in the idempotent branch below.
      std::vector<std::uint8_t> record;
      put_u64(record, client);
      put_u64(record, round);
      store.append(record);
      ++next;
      ++committed;
    } else if (round + 1 > next) {
      // A gap would mean the client ran ahead of its acks: protocol bug.
      ++seq_errors;
      return true;  // no ack; the client times out and resends
    }
    // round < next falls through: duplicate retry, re-ack without append.
    server.send(conn, head(kAckTag, client, round));
    return true;
  });

  server.start();

  // Publish "<port> <pid>" once the listener is live; the orchestrator
  // polls for this file.
  {
    const std::string info =
        std::to_string(server.port()) + " " + std::to_string(::getpid()) + "\n";
    store::atomic_write_file(dir + "/server.info",
                             std::vector<std::uint8_t>(info.begin(), info.end()));
  }

  while (!fs::exists(dir + "/stop"))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  return 0;
}

// ------------------------------------------------------- client machinery --

struct ClientOutcome {
  std::uint64_t committed = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t retries = 0;
  bool finished = false;
  std::vector<double> latencies_ms;  // per committed round
};

net::ClientConfig make_client_config(std::uint16_t port) {
  net::ClientConfig cc;
  cc.port = port;
  cc.connect_timeout_seconds = 2.0;
  // A client must outlive a server kill -9 + restart: many capped-backoff
  // attempts rather than a few long ones.
  cc.max_connect_attempts = 200;
  cc.backoff_initial_seconds = 0.01;
  cc.backoff_max_seconds = 0.25;
  return cc;
}

// One honest client: `rounds` request/ack exchanges, retrying through
// evictions, timeouts and server restarts. `pace_ms` sleeps between rounds
// — the kill phase uses it to keep the fleet in-flight long enough for the
// SIGKILL to land mid-load.
ClientOutcome run_client(std::uint16_t port, std::uint64_t id, int rounds,
                         std::size_t payload_bytes, int pace_ms = 0) {
  ClientOutcome out;
  net::ClientConfig cc = make_client_config(port);
  cc.jitter_seed = 0xC11E57ULL + id;
  net::TcpClient client(cc);

  for (int round = 0; round < rounds; ++round) {
    if (pace_ms > 0 && round > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(pace_ms));
    std::vector<std::uint8_t> req = head(kReqTag, id, static_cast<std::uint64_t>(round));
    req.resize(kHeadBytes + payload_bytes,
               static_cast<std::uint8_t>(0xA0 + (id + round) % 16));
    const double deadline = net::monotonic_seconds() + 120.0;
    bool acked = false;
    while (!acked && net::monotonic_seconds() < deadline) {
      if (!client.ensure_connected()) break;
      const double t0 = net::monotonic_seconds();
      if (!client.send_frame(req)) {
        ++out.retries;
        continue;
      }
      // Drain acks until ours shows up (stale acks from resent rounds may
      // arrive first) or the attempt times out and we resend.
      const double attempt_deadline = net::monotonic_seconds() + 5.0;
      while (net::monotonic_seconds() < attempt_deadline) {
        const auto resp = client.recv_frame(attempt_deadline - net::monotonic_seconds());
        if (!resp.has_value()) break;
        if (resp->size() >= kHeadBytes && get_u32(*resp, 0) == kAckTag &&
            get_u64(*resp, sizeof(std::uint32_t)) == id &&
            get_u64(*resp, sizeof(std::uint32_t) + sizeof(std::uint64_t)) ==
                static_cast<std::uint64_t>(round)) {
          acked = true;
          out.latencies_ms.push_back((net::monotonic_seconds() - t0) * 1000.0);
          break;
        }
      }
      if (!acked) ++out.retries;
    }
    if (!acked) break;  // give up; the audit will flag the shortfall
    ++out.committed;
  }
  out.finished = out.committed == static_cast<std::uint64_t>(rounds);
  out.bytes_tx = client.stats().bytes_tx;
  out.bytes_rx = client.stats().bytes_rx;
  out.reconnects = client.stats().reconnects;
  return out;
}

// A hostile client: ships garbage and corrupted frames, expecting to be
// evicted; reconnects and does it again. Success = the server survives and
// names the evictions.
void run_fault_client(std::uint16_t port, std::uint64_t id, int iterations) {
  net::ClientConfig cc = make_client_config(port);
  cc.jitter_seed = 0xBAD + id;
  net::TcpClient client(cc);
  for (int i = 0; i < iterations; ++i) {
    if (!client.ensure_connected()) return;
    std::vector<std::uint8_t> wire;
    if (i % 2 == 0) {
      wire.assign(64, static_cast<std::uint8_t>(0xEE));  // not a DFRM header
    } else {
      wire = net::frame(std::vector<std::uint8_t>(128, 7));
      wire.back() ^= 0x10;  // valid header, corrupt payload
    }
    client.send_raw(wire);
    // The eviction lands as a peer close on our side.
    client.recv_frame(2.0);
    if (client.connected()) client.disconnect();
  }
}

struct StatSnapshot {
  std::uint64_t committed = 0, protocol_errors = 0, evictions = 0;
  std::uint64_t tx_drops = 0, rx_drops = 0, seq_errors = 0, accepted = 0;
  bool ok = false;
};

StatSnapshot query_stats(std::uint16_t port) {
  StatSnapshot s;
  net::TcpClient client(make_client_config(port));
  if (!client.ensure_connected()) return s;
  if (!client.send_frame(head(kStatTag, 0, 0))) return s;
  const auto resp = client.recv_frame(5.0);
  if (!resp.has_value() || resp->size() < 4 + 7 * 8 ||
      get_u32(*resp, 0) != kStatRespTag)
    return s;
  s.committed = get_u64(*resp, 4);
  s.protocol_errors = get_u64(*resp, 12);
  s.evictions = get_u64(*resp, 20);
  s.tx_drops = get_u64(*resp, 28);
  s.rx_drops = get_u64(*resp, 36);
  s.seq_errors = get_u64(*resp, 44);
  s.accepted = get_u64(*resp, 52);
  s.ok = true;
  return s;
}

// --------------------------------------------------------- orchestration --

struct ServerHandle {
  std::uint16_t port = 0;
  pid_t pid = -1;
};

ServerHandle spawn_server(const std::string& self, const std::string& dir,
                          std::uint16_t port, const std::string& tag) {
  fs::remove(dir + "/server.info");
  fs::remove(dir + "/stop");
  const std::string cmd = "'" + self + "' --serve '" + dir + "' " +
                          std::to_string(port) + " > '" + dir + "/server_" + tag +
                          ".log' 2>&1 &";
  DINAR_CHECK(std::system(cmd.c_str()) == 0, "failed to spawn server (" << tag << ")");
  const double deadline = net::monotonic_seconds() + 15.0;
  while (net::monotonic_seconds() < deadline) {
    if (const auto bytes = store::read_file(dir + "/server.info");
        bytes.has_value() && !bytes->empty()) {
      ServerHandle h;
      const std::string info(bytes->begin(), bytes->end());
      h.port = static_cast<std::uint16_t>(std::stoi(info));
      h.pid = static_cast<pid_t>(std::stol(info.substr(info.find(' '))));
      return h;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  DINAR_CHECK(false, "server (" << tag << ") never published server.info — see "
                                << dir << "/server_" << tag << ".log");
  return {};
}

void wait_for_exit(pid_t pid, double timeout_seconds) {
  const double deadline = net::monotonic_seconds() + timeout_seconds;
  while (net::monotonic_seconds() < deadline) {
    if (::kill(pid, 0) != 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

struct PhaseResult {
  std::string name;
  int clients = 0;
  int rounds_per_client = 0;
  std::uint64_t committed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t retries = 0;
  int finished_clients = 0;
  double wall_seconds = 0.0;
  double rounds_per_sec = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
  double bytes_per_round = 0.0;
};

PhaseResult run_phase(const std::string& name, std::uint16_t port, int clients,
                      std::uint64_t id_base, int rounds, std::size_t payload_bytes,
                      int pace_ms = 0, const std::function<void()>& mid_phase = {}) {
  PhaseResult pr;
  pr.name = name;
  pr.clients = clients;
  pr.rounds_per_client = rounds;
  std::vector<ClientOutcome> outcomes(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const double t0 = net::monotonic_seconds();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      outcomes[static_cast<std::size_t>(c)] =
          run_client(port, id_base + static_cast<std::uint64_t>(c), rounds,
                     payload_bytes, pace_ms);
    });
  }
  if (mid_phase) mid_phase();
  for (std::thread& t : threads) t.join();
  pr.wall_seconds = net::monotonic_seconds() - t0;

  std::vector<double> lat;
  std::uint64_t bytes = 0;
  for (const ClientOutcome& o : outcomes) {
    pr.committed += o.committed;
    pr.reconnects += o.reconnects;
    pr.retries += o.retries;
    pr.finished_clients += o.finished ? 1 : 0;
    bytes += o.bytes_tx + o.bytes_rx;
    lat.insert(lat.end(), o.latencies_ms.begin(), o.latencies_ms.end());
  }
  pr.rounds_per_sec =
      pr.wall_seconds > 0.0 ? static_cast<double>(pr.committed) / pr.wall_seconds : 0.0;
  pr.bytes_per_round =
      pr.committed > 0 ? static_cast<double>(bytes) / static_cast<double>(pr.committed)
                       : 0.0;
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    pr.p50_ms = lat[lat.size() / 2];
    pr.p99_ms = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
  }
  std::printf(
      "phase %-8s %4d clients x %d rounds: %llu commits in %.2fs "
      "(%.1f rounds/s, p50 %.2fms, p99 %.2fms, %llu reconnects, %llu retries)\n",
      name.c_str(), clients, rounds, static_cast<unsigned long long>(pr.committed),
      pr.wall_seconds, pr.rounds_per_sec, pr.p50_ms, pr.p99_ms,
      static_cast<unsigned long long>(pr.reconnects),
      static_cast<unsigned long long>(pr.retries));
  return pr;
}

// Audits the WAL: every client that was supposed to commit rounds
// 0..rounds-1 did so exactly once, in order, with nothing extra.
bool audit_store(const std::string& dir,
                 const std::map<std::uint64_t, int>& expected_rounds,
                 std::uint64_t* total_commits, std::uint64_t* duplicates) {
  store::RoundStore store(dir + "/store");
  const store::RoundStore::Recovered rec = store.recover();
  std::map<std::uint64_t, std::uint64_t> next;  // client -> expected next round
  *total_commits = 0;
  *duplicates = 0;
  bool ok = true;
  for (const std::span<const std::uint8_t> r : rec.wal_records) {
    if (r.size() < 2 * sizeof(std::uint64_t)) {
      std::printf("AUDIT FAIL: runt WAL record of %zu bytes\n", r.size());
      ok = false;
      continue;
    }
    const std::uint64_t client = get_u64(r, 0);
    const std::uint64_t round = get_u64(r, sizeof(std::uint64_t));
    ++*total_commits;
    if (round != next[client]) {
      if (round < next[client]) ++*duplicates;
      std::printf("AUDIT FAIL: client %llu committed round %llu, expected %llu\n",
                  static_cast<unsigned long long>(client),
                  static_cast<unsigned long long>(round),
                  static_cast<unsigned long long>(next[client]));
      ok = false;
      continue;
    }
    ++next[client];
  }
  for (const auto& [client, rounds] : expected_rounds) {
    const std::uint64_t got = next.count(client) != 0 ? next[client] : 0;
    if (got != static_cast<std::uint64_t>(rounds)) {
      std::printf("AUDIT FAIL: client %llu has %llu commits, expected %d\n",
                  static_cast<unsigned long long>(client),
                  static_cast<unsigned long long>(got), rounds);
      ok = false;
    }
  }
  return ok;
}

int orchestrate(const std::string& self, const std::string& work, bool smoke) {
  fs::remove_all(work);
  fs::create_directories(work);

  const int clean_clients = smoke ? 64 : 256;
  const int clean_rounds = smoke ? 4 : 8;
  const int kill_clients = smoke ? 16 : 64;
  const int kill_rounds = smoke ? 8 : 10;
  const int fault_clients = smoke ? 4 : 8;
  const int fault_iters = smoke ? 3 : 5;
  const int honest_clients = smoke ? 8 : 16;
  const int honest_rounds = 3;
  const std::size_t payload = smoke ? 2048 : 4096;
  const double min_rounds_per_sec = 5.0;

  ServerHandle server = spawn_server(self, work, 0, "initial");
  std::printf("server up on 127.0.0.1:%u (pid %d)\n", server.port, server.pid);

  // -- phase 1: clean load ---------------------------------------------------
  const PhaseResult clean =
      run_phase("clean", server.port, clean_clients, /*id_base=*/0, clean_rounds,
                payload);
  const StatSnapshot clean_stats = query_stats(server.port);
  DINAR_CHECK(clean_stats.ok, "stats query after clean phase failed");

  // -- phase 2: kill -9 mid-load, restart, clients ride it out ---------------
  std::atomic<bool> killed{false};
  const std::uint64_t kill_base = 1000;
  // Clients pace themselves so the phase is still mid-flight when the
  // SIGKILL lands; the reconnect gate below proves they rode through it.
  const PhaseResult killp = run_phase(
      "kill9", server.port, kill_clients, kill_base, kill_rounds, payload,
      /*pace_ms=*/75, [&] {
        // Let the fleet get some commits in, then kill the server the hard
        // way and restart it on the same port + store.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        ::kill(server.pid, SIGKILL);
        wait_for_exit(server.pid, 10.0);
        server = spawn_server(self, work, server.port, "restarted");
        killed = true;
      });
  DINAR_CHECK(killed.load(), "kill phase never killed the server");

  // -- phase 3: hostile frames + honest traffic ------------------------------
  std::vector<std::thread> hostiles;
  for (int f = 0; f < fault_clients; ++f)
    hostiles.emplace_back(
        [&, f] { run_fault_client(server.port, 9000 + static_cast<std::uint64_t>(f),
                                  fault_iters); });
  const std::uint64_t honest_base = 2000;
  const PhaseResult faultp = run_phase("faults", server.port, honest_clients,
                                       honest_base, honest_rounds, payload);
  for (std::thread& t : hostiles) t.join();
  const StatSnapshot final_stats = query_stats(server.port);
  DINAR_CHECK(final_stats.ok, "final stats query failed");

  // -- shutdown + audit ------------------------------------------------------
  store::atomic_write_file(work + "/stop", std::vector<std::uint8_t>{1});
  wait_for_exit(server.pid, 15.0);

  std::map<std::uint64_t, int> expected;
  for (int c = 0; c < clean_clients; ++c) expected[static_cast<std::uint64_t>(c)] =
      clean_rounds;
  for (int c = 0; c < kill_clients; ++c)
    expected[kill_base + static_cast<std::uint64_t>(c)] = kill_rounds;
  for (int c = 0; c < honest_clients; ++c)
    expected[honest_base + static_cast<std::uint64_t>(c)] = honest_rounds;
  std::uint64_t total_commits = 0, duplicates = 0;
  const bool audit_ok = audit_store(work, expected, &total_commits, &duplicates);

  // -- report ----------------------------------------------------------------
  JsonRows json;
  for (const PhaseResult* pr : {&clean, &killp, &faultp}) {
    json.begin_row()
        .field("phase", pr->name)
        .field("clients", static_cast<std::int64_t>(pr->clients))
        .field("rounds_per_client", static_cast<std::int64_t>(pr->rounds_per_client))
        .field("committed", static_cast<std::int64_t>(pr->committed))
        .field("finished_clients", static_cast<std::int64_t>(pr->finished_clients))
        .field("wall_seconds", pr->wall_seconds)
        .field("rounds_per_sec", pr->rounds_per_sec)
        .field("p50_ms", pr->p50_ms)
        .field("p99_ms", pr->p99_ms)
        .field("bytes_per_round", pr->bytes_per_round)
        .field("reconnects", static_cast<std::int64_t>(pr->reconnects))
        .field("retries", static_cast<std::int64_t>(pr->retries));
  }
  json.begin_row()
      .field("phase", std::string("audit"))
      .field("total_commits", static_cast<std::int64_t>(total_commits))
      .field("duplicate_commits", static_cast<std::int64_t>(duplicates))
      .field("clean_protocol_errors",
             static_cast<std::int64_t>(clean_stats.protocol_errors))
      .field("final_protocol_errors",
             static_cast<std::int64_t>(final_stats.protocol_errors))
      .field("evictions", static_cast<std::int64_t>(final_stats.evictions))
      .field("tx_queue_drops", static_cast<std::int64_t>(final_stats.tx_drops))
      .field("rx_queue_drops", static_cast<std::int64_t>(final_stats.rx_drops))
      .field("seq_errors", static_cast<std::int64_t>(final_stats.seq_errors))
      .field("exactly_once", std::string(audit_ok ? "pass" : "FAIL"));
  json.write("BENCH_SOCKET.json");

  // -- gates (enforced in every mode) ----------------------------------------
  int failures = 0;
  if (!audit_ok || duplicates != 0) {
    std::printf("GATE FAIL: commits lost or duplicated across kill -9\n");
    ++failures;
  }
  if (clean_stats.protocol_errors != 0) {
    std::printf("GATE FAIL: %llu protocol errors during the clean phase\n",
                static_cast<unsigned long long>(clean_stats.protocol_errors));
    ++failures;
  }
  if (clean.rounds_per_sec < min_rounds_per_sec) {
    std::printf("GATE FAIL: clean phase %.1f rounds/s < %.1f floor\n",
                clean.rounds_per_sec, min_rounds_per_sec);
    ++failures;
  }
  if (clean.finished_clients != clean_clients ||
      killp.finished_clients != kill_clients ||
      faultp.finished_clients != honest_clients) {
    std::printf("GATE FAIL: not every honest client finished (%d/%d, %d/%d, %d/%d)\n",
                clean.finished_clients, clean_clients, killp.finished_clients,
                kill_clients, faultp.finished_clients, honest_clients);
    ++failures;
  }
  if (final_stats.protocol_errors == 0) {
    std::printf("GATE FAIL: fault phase produced no named protocol evictions — "
                "the hostile clients were vacuous\n");
    ++failures;
  }
  if (killp.reconnects == 0) {
    std::printf("GATE FAIL: no client reconnected in the kill phase — the "
                "SIGKILL landed on an idle server\n");
    ++failures;
  }
  std::printf("load test: %s (%llu commits, %llu wire evictions)\n",
              failures == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(total_commits),
              static_cast<unsigned long long>(final_stats.evictions));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 4 && std::string(argv[1]) == "--serve")
      return serve(argv[2], static_cast<std::uint16_t>(std::atoi(argv[3])));
    bool smoke = false;
    std::string work = "load_test_work";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") smoke = true;
      else work = arg;
    }
    const std::string self = fs::canonical("/proc/self/exe").string();
    return orchestrate(self, work, smoke);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load_test: %s\n", e.what());
    return 1;
  }
}
