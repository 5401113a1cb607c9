// periodica_router: fault-tolerant front end for a fleet of periodicad
// shards (docs/SERVING.md, "Multi-node serving"). Clients connect to the
// router exactly as they would to a single daemon — same newline-delimited
// JSON protocol, over a Unix socket (--listen_socket) and/or TCP
// (--listen_port) — and the router:
//
//   * consistent-hashes each (tenant, session) routing key onto the ring of
//     healthy shards (serve::ShardMap), so any router replica computes the
//     same placement and a shard flap only remaps the keys it owned;
//   * supervises every shard over a dedicated heartbeat connection: a ping
//     that misses its deadline (or a dropped connection) marks the shard
//     down within one heartbeat interval, and reconnect probes back off
//     exponentially with jitter (tools/retry_backoff.h) until the shard
//     answers again;
//   * migrates live sessions: when the owning shard dies mid-stream, the
//     key re-routes to the next healthy shard and a NOT_FOUND from the new
//     owner is transparently repaired with an internal
//     stream_open{resume:true} — the new shard thaws the session from the
//     shared checkpoint directory and the original request is resent once.
//     With the shards running --checkpoint_each_feed (ack-after-persist)
//     and clients sending explicit feed offsets, the migrated stream's
//     detector output is byte-identical to a never-migrated run
//     (tools/soak.sh stage 4 asserts exactly that);
//   * propagates structured backpressure: shard OVERLOADED/QUOTA_EXCEEDED
//     responses are relayed verbatim (retry_after_ms intact), and when no
//     healthy shard exists the router answers its own OVERLOADED with a
//     retry hint instead of hanging or dropping the connection.
//
// The router itself holds no session state — only the placement ring, a
// sticky migration map, and per-connection buffers — so it restarts in
// milliseconds and two replicas can front the same fleet.
//
// Single-threaded: one util::EventLoop multiplexes client connections,
// per-(client, shard) upstream connections and heartbeat timers. Every
// member below is loop-confined unless stated otherwise.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "periodica/serve/server.h"
#include "periodica/serve/shard_map.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/event_loop.h"
#include "periodica/util/fault_injector.h"
#include "periodica/util/flags.h"
#include "periodica/util/json.h"
#include "periodica/util/rng.h"
#include "periodica/util/socket.h"
#include "periodica/util/status.h"
#include "periodica/util/tcp.h"
#include "retry_backoff.h"

namespace periodica::tools {
namespace {

using serve::ConnectionPtr;
using serve::ErrorResponse;
using serve::OkResponse;
using serve::RequestTenant;
using util::EventLoop;
using util::JsonValue;
using util::LineBuffer;

// --- Configuration ---------------------------------------------------------

struct RouterConfig {
  std::string listen_socket;           // Unix socket for clients ("" = off)
  std::string listen_host = "127.0.0.1";
  std::int64_t listen_port = -1;       // TCP for clients (-1 = off, 0 = any)
  std::string shards;                  // "name=host:port,..." (required)
  std::int64_t virtual_nodes = 64;
  std::int64_t heartbeat_ms = 300;     // ping interval per shard
  std::int64_t heartbeat_timeout_ms = 0;  // pong deadline (0 = 2x interval)
  std::int64_t reconnect_base_ms = 100;   // backoff base for down shards
  std::int64_t reconnect_max_ms = 2000;   // backoff cap (pre-jitter)
  std::int64_t route_retries = 3;      // re-route attempts per request
  std::int64_t retry_after_ms = 250;   // hint in router-origin OVERLOADED
  std::int64_t max_request_bytes = 64 << 20;
  std::int64_t pin_ttl_s = 3600;       // idle migration-pin expiry (0 = never)
  std::string faults;                  // "site:nth[:repeat],..." like the daemon
};

struct ShardSpec {
  std::string name;
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "--shards name=host:port,name=host:port". Every shard needs a
/// unique non-empty name (it is the ring identity and the stats key).
Status ParseShards(const std::string& spec, std::vector<ShardSpec>* out) {
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("--shards item '" + item +
                                     "' is not name=host:port");
    }
    ShardSpec shard;
    shard.name = item.substr(0, eq);
    PERIODICA_ASSIGN_OR_RETURN(const util::TcpEndpoint endpoint,
                               util::ParseHostPort(item.substr(eq + 1)));
    shard.host = endpoint.host;
    shard.port = endpoint.port;
    for (const ShardSpec& seen : *out) {
      if (seen.name == shard.name) {
        return Status::InvalidArgument("--shards name '" + shard.name +
                                       "' appears twice");
      }
    }
    out->push_back(std::move(shard));
  }
  if (out->empty()) {
    return Status::InvalidArgument("--shards requires at least one shard");
  }
  return Status::OK();
}

// --- Router ----------------------------------------------------------------

class Router {
 public:
  Router(RouterConfig config, std::vector<ShardSpec> specs)
      : config_(std::move(config)),
        specs_(std::move(specs)),
        ring_(static_cast<std::size_t>(config_.virtual_nodes)),
        rng_(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(::getpid())) {}

  Status Run();

 private:
  // One non-blocking line connection to a shard: a client's upstream or a
  // shard's heartbeat. Its helpers (Connect..Close) return failures as a
  // Status; the owner applies its policy (UpstreamFailed, HeartbeatLost).
  // Only upstreams fire the tcp/write and tcp/read fault sites.
  struct Line {
    util::UniqueFd fd;
    LineBuffer in;
    std::string out;
    std::size_t out_offset = 0;
    bool connecting = false;
    bool fault_sites = false;
  };

  // The request a client connection currently has in flight, with the
  // routing state needed to re-dispatch it when its shard dies under it.
  struct InFlight {
    bool active = false;
    std::string line;        // verbatim request (relayed bytes, not re-dumped)
    std::string method;
    std::string tenant;
    std::string session;
    std::string route_key;
    JsonValue id;
    bool has_id = false;
    int attempts = 0;        // dispatches so far (re-routes count)
    bool resume_tried = false;   // one migration repair per request
    // The repair chain replaces the client's request with internal ones:
    // kDiscard drops a stale duplicate copy (a zombie left by a health
    // flap) before kResume thaws the authoritative checkpoint; then the
    // original request is resent. kNone = the client's own request is out.
    enum class Repair { kNone, kDiscard, kResume };
    Repair repair = Repair::kNone;
    std::string target;      // shard currently serving it
  };

  // Routing state of one client connection, created with its first
  // request and dropped when the server closes the connection.
  struct Client {
    explicit Client(ConnectionPtr conn_in) : conn(std::move(conn_in)) {}
    const ConnectionPtr conn;
    InFlight flight;
    // By shard: a client's requests to one shard flow down one line, in
    // order, so per-connection serial semantics survive the hop.
    std::map<std::string, std::unique_ptr<Line>> upstreams;
  };
  using ClientPtr = std::shared_ptr<Client>;

  // Health supervision for one shard: a dedicated heartbeat connection plus
  // the timers that drive pings, pong deadlines and reconnect backoff.
  struct Shard {
    ShardSpec spec;
    bool up = false;
    Line hb;
    bool awaiting_pong = false;
    std::uint64_t ping_timer = 0;      // next scheduled ping (0 = none)
    std::uint64_t deadline_timer = 0;  // pong deadline (0 = none)
    bool reconnect_scheduled = false;
    std::int64_t backoff_attempt = 0;
    // Stats.
    std::uint64_t marked_down = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t pings = 0;
    std::uint64_t forwarded = 0;
  };

  // Client side (serve::Server callbacks).
  void HandleRequestLine(const ConnectionPtr& conn, const std::string& line);
  void OnClientClosed(const ConnectionPtr& conn);

  // Routing.
  void DispatchInFlight(const ClientPtr& client);
  void FinishWithLocalResponse(const ClientPtr& client,
                               JsonValue response);
  JsonValue RouterOverloaded(const std::string& message) const;
  JsonValue HandleStats() const;

  // Lines. Flush finishes a pending connect first; Queue appends a line
  // and flushes unless still connecting; Drain treats EOF as a failure.
  Status Connect(Line* line, const ShardSpec& spec,
                 EventLoop::Handler handler);
  Status Queue(Line* line, const std::string& text);
  Status Flush(Line* line);
  Status Drain(Line* line);
  void Close(Line* line);

  // Upstreams.
  Line* GetOrConnectUpstream(const ClientPtr& client,
                             const std::string& shard_name);
  void SendOnUpstream(const ClientPtr& client, const std::string& shard_name,
                      const std::string& line);
  void OnUpstreamReadable(const ClientPtr& client,
                          const std::string& shard_name);
  void OnUpstreamWritable(const ClientPtr& client,
                          const std::string& shard_name);
  void HandleUpstreamResponse(const ClientPtr& client,
                              const std::string& shard_name,
                              const std::string& line);
  void DropUpstream(const ClientPtr& client,
                    const std::string& shard_name);
  /// An upstream line failed: drop it and mark its shard down.
  void UpstreamFailed(const ClientPtr& client, const std::string& shard_name,
                      const Status& status);

  // Shard supervision.
  Shard* FindShard(const std::string& name);
  void StartHeartbeatConnect(const std::string& name);
  void OnHeartbeatReadable(const std::string& name);
  void OnHeartbeatWritable(const std::string& name);
  void SendPing(const std::string& name);
  void OnPingDeadline(const std::string& name);
  /// The heartbeat failed: close it, then mark an up shard down (which
  /// schedules the reconnect) or schedule the next reconnect of a down one.
  void HeartbeatLost(Shard* shard, const std::string& reason);
  void MarkShardUp(const std::string& name);
  void MarkShardDown(const std::string& name, const std::string& reason);
  void ScheduleReconnect(Shard* shard);

  // Zombie hygiene (see the Pin struct).
  /// Queues a fire-and-forget control request on the shard's heartbeat
  /// connection. Replies are drained by the heartbeat reader (any complete
  /// response settles an outstanding ping; extras are ignored), so control
  /// traffic cannot desynchronise a client connection's serial protocol.
  void QueueShardControl(Shard* shard, const std::string& line);
  /// Best-effort stream_discard of (tenant, session) on every up shard
  /// except `keep`: after a repair pins the session to `keep`, any other
  /// live copy is a stale duplicate that would shadow NOT_FOUND repair and
  /// serve wrong detects.
  void DiscardElsewhere(const std::string& keep, const std::string& tenant,
                        const std::string& session);
  [[nodiscard]] static std::string DiscardRequestLine(
      const std::string& tenant, const std::string& session);
  /// Reaps migration pins idle for --pin_ttl_s (abandoned sessions), with a
  /// best-effort stream_discard of the live copy left on the pinned shard,
  /// then re-arms itself. No-op once shutdown begins.
  void SweepPins();
  void SchedulePinSweep();

  void BeginShutdown();

  const RouterConfig config_;
  const std::vector<ShardSpec> specs_;

  /// All below are loop-confined (single event-loop thread; see the
  /// EventLoop confinement discipline).
  /// lint: unguarded(loop_): loop-confined
  std::unique_ptr<EventLoop> loop_;
  /// lint: unguarded(server_): loop-confined
  std::unique_ptr<serve::Server> server_;
  /// lint: unguarded(ring_): loop-confined
  serve::ShardMap ring_;
  /// lint: unguarded(rng_): loop-confined (backoff jitter)
  Rng rng_;
  /// lint: unguarded(shards_): loop-confined
  std::map<std::string, Shard> shards_;
  /// lint: unguarded(clients_): loop-confined
  std::map<const serve::Connection*, ClientPtr> clients_;
  /// Sticky placement overrides: once a session migrates — or is placed on
  /// a fallback shard because its primary was down — its key pins to that
  /// shard until stream_close, so a flapping original owner cannot pull
  /// the stream back onto its stale state. The tenant/session pair is kept
  /// so stale duplicate copies can be purged with stream_discard. Pins for
  /// sessions their clients abandoned (no stream_close ever routed here)
  /// are reaped after --pin_ttl_s idle seconds by SweepPins, so the map
  /// stays bounded by the live working set.
  struct Pin {
    std::string shard;
    std::string tenant;
    std::string session;
    std::chrono::steady_clock::time_point last_used{};
  };
  /// lint: unguarded(migrations_): loop-confined
  std::map<std::string, Pin> migrations_;
  /// lint: unguarded(round_robin_): loop-confined (keyless request spread)
  std::uint64_t round_robin_ = 0;
  /// lint: unguarded(shutting_down_): loop-confined
  bool shutting_down_ = false;
  // Router-level stats (loop-confined).
  /// lint: unguarded(forwarded_): loop-confined
  std::uint64_t forwarded_ = 0;
  /// lint: unguarded(sessions_migrated_): loop-confined
  std::uint64_t sessions_migrated_ = 0;
  /// lint: unguarded(rerouted_): loop-confined
  std::uint64_t rerouted_ = 0;
  /// lint: unguarded(no_shard_rejections_): loop-confined
  std::uint64_t no_shard_rejections_ = 0;
  /// lint: unguarded(retries_exhausted_): loop-confined
  std::uint64_t retries_exhausted_ = 0;
  /// lint: unguarded(fallback_pins_): loop-confined
  std::uint64_t fallback_pins_ = 0;
  /// lint: unguarded(discards_sent_): loop-confined
  std::uint64_t discards_sent_ = 0;
  /// lint: unguarded(pins_expired_): loop-confined
  std::uint64_t pins_expired_ = 0;
};

// --- Client side -----------------------------------------------------------

void Router::HandleRequestLine(const ConnectionPtr& conn,
                               const std::string& line) {
  ClientPtr& slot = clients_[conn.get()];
  if (slot == nullptr) slot = std::make_shared<Client>(conn);
  const ClientPtr client = slot;  // a reply below may close and erase it
  InFlight& flight = client->flight;
  flight = InFlight{};
  const Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok() || !parsed.value().is_object()) {
    FinishWithLocalResponse(client, ErrorResponse("INVALID_ARGUMENT",
                                                  "bad request JSON"));
    return;
  }
  const JsonValue& request = parsed.value();
  if (const JsonValue* found = request.Find("id"); found != nullptr) {
    flight.id = *found;
    flight.has_id = true;
  }
  flight.method = request.GetString("method", "");
  const JsonValue* params_ptr = request.Find("params");
  const JsonValue params =
      params_ptr != nullptr ? *params_ptr : JsonValue(JsonValue::Object{});

  // ping and stats are answered by the router itself: ping because health
  // probes must not depend on shard health, stats because the interesting
  // numbers (shard states, migrations) live here.
  if (flight.method == "ping") {
    JsonValue::Object result;
    result["pong"] = true;
    result["router"] = true;
    FinishWithLocalResponse(client, OkResponse(std::move(result)));
    return;
  }
  if (flight.method == "stats") {
    FinishWithLocalResponse(client, HandleStats());
    return;
  }

  flight.tenant = RequestTenant(params);
  flight.session = params.GetString("session", "");
  if (flight.method.rfind("stream_", 0) == 0) {
    if (flight.session.empty()) {
      FinishWithLocalResponse(
          client, ErrorResponse("INVALID_ARGUMENT",
                                "the router requires params.session on "
                                "stream_* requests (it is the routing key)"));
      return;
    }
    flight.route_key = store::JoinKey({flight.tenant, flight.session});
  } else if (flight.method == "mine") {
    // Cache affinity: repeat mines for one series land on one shard (whose
    // result cache then hits). Keyless mines spread round-robin.
    const std::string series_id = params.GetString("series_id", "");
    flight.route_key =
        series_id.empty()
            ? "rr" + std::to_string(round_robin_++)
            : store::JoinKey({flight.tenant, series_id});
  } else {
    // sleep and anything future: spread; unknown methods fail shard-side.
    flight.route_key = "rr" + std::to_string(round_robin_++);
  }
  flight.line = line;
  flight.active = true;
  DispatchInFlight(client);
}

void Router::FinishWithLocalResponse(const ClientPtr& client,
                                     JsonValue response) {
  if (client->flight.has_id) {
    response.mutable_object()["id"] = client->flight.id;
  }
  client->flight = InFlight{};
  server_->Reply(client->conn, response.Dump());
}

JsonValue Router::RouterOverloaded(const std::string& message) const {
  JsonValue response = ErrorResponse("OVERLOADED", message);
  JsonValue::Object& error =
      response.mutable_object()["error"].mutable_object();
  error["retry_after_ms"] = static_cast<std::size_t>(config_.retry_after_ms);
  error["router"] = true;
  return response;
}

JsonValue Router::HandleStats() const {
  JsonValue::Object shards;
  std::size_t up = 0;
  for (const auto& [name, shard] : shards_) {
    JsonValue::Object entry;
    entry["up"] = shard.up;
    entry["addr"] = shard.spec.host + ":" + std::to_string(shard.spec.port);
    entry["marked_down"] = static_cast<std::size_t>(shard.marked_down);
    entry["reconnects"] = static_cast<std::size_t>(shard.reconnects);
    entry["pings"] = static_cast<std::size_t>(shard.pings);
    entry["forwarded"] = static_cast<std::size_t>(shard.forwarded);
    if (shard.up) ++up;
    shards[name] = JsonValue(std::move(entry));
  }
  JsonValue::Object result;
  result["router"] = true;
  result["shards"] = JsonValue(std::move(shards));
  result["shard_count"] = shards_.size();
  result["up_count"] = up;
  result["connections"] = server_->num_connections();
  result["forwarded"] = static_cast<std::size_t>(forwarded_);
  result["sessions_migrated"] = static_cast<std::size_t>(sessions_migrated_);
  result["rerouted"] = static_cast<std::size_t>(rerouted_);
  result["migration_pins"] = migrations_.size();
  result["no_shard_rejections"] =
      static_cast<std::size_t>(no_shard_rejections_);
  result["retries_exhausted"] = static_cast<std::size_t>(retries_exhausted_);
  result["fallback_pins"] = static_cast<std::size_t>(fallback_pins_);
  result["discards_sent"] = static_cast<std::size_t>(discards_sent_);
  result["pins_expired"] = static_cast<std::size_t>(pins_expired_);
  return OkResponse(std::move(result));
}

// --- Routing ---------------------------------------------------------------

void Router::DispatchInFlight(const ClientPtr& client) {
  InFlight& flight = client->flight;
  if (!flight.active || client->conn->closed()) return;
  if (flight.attempts > config_.route_retries) {
    ++retries_exhausted_;
    FinishWithLocalResponse(
        client, RouterOverloaded("routing retries exhausted for '" +
                                 flight.method + "'"));
    return;
  }
  if (flight.attempts > 0) ++rerouted_;

  // Sticky migration pin first (only while its shard stays healthy), then
  // the consistent-hash ring over healthy shards.
  std::optional<std::string> target;
  if (const auto pin = migrations_.find(flight.route_key);
      pin != migrations_.end()) {
    if (ring_.IsUp(pin->second.shard)) {
      pin->second.last_used = std::chrono::steady_clock::now();
      target = pin->second.shard;
    } else {
      migrations_.erase(pin);
    }
  }
  if (!target.has_value()) target = ring_.Pick(flight.route_key);
  if (!target.has_value()) {
    ++no_shard_rejections_;
    FinishWithLocalResponse(client,
                            RouterOverloaded("no healthy shard available"));
    return;
  }
  flight.target = *target;
  flight.repair = InFlight::Repair::kNone;
  if (GetOrConnectUpstream(client, *target) == nullptr) {
    // Could not even start a connection: treat the shard as dead. That
    // re-dispatches this request (attempts + 1) along with any other
    // in-flight request targeting it.
    MarkShardDown(*target, "connect failed");
    return;
  }
  SendOnUpstream(client, *target, flight.line);
}

// --- Lines -----------------------------------------------------------------

Status Router::Connect(Line* line, const ShardSpec& spec,
                       EventLoop::Handler handler) {
  bool connected = false;
  PERIODICA_ASSIGN_OR_RETURN(
      line->fd, util::TcpConnectStart(spec.host, spec.port, &connected));
  line->connecting = !connected;
  line->in = LineBuffer();
  line->out.clear();
  line->out_offset = 0;
  Status added = loop_->Add(line->fd.get(), /*want_read=*/true,
                            /*want_write=*/true, std::move(handler));
  if (!added.ok()) line->fd.Close();
  return added;
}

Status Router::Queue(Line* line, const std::string& text) {
  line->out += text;
  line->out.push_back('\n');
  return line->connecting ? Status::OK() : Flush(line);
}

Status Router::Flush(Line* line) {
  if (line->connecting) {
    const Status status = util::TcpConnectFinish(line->fd.get());
    if (!status.ok()) return Status::IOError("connect: " + status.message());
    line->connecting = false;
  }
  if (line->fault_sites && !util::FaultInjector::Check("tcp/write").ok()) {
    return Status::IOError("injected write fault");
  }
  const Result<bool> sent =
      util::SendSome(line->fd.get(), line->out, &line->out_offset);
  if (!sent.ok()) return Status::IOError("write: " + sent.status().message());
  if (sent.value()) {
    line->out.clear();
    line->out_offset = 0;
  }
  (void)loop_->SetInterest(line->fd.get(), /*want_read=*/true,
                           /*want_write=*/!line->out.empty());
  return Status::OK();
}

Status Router::Drain(Line* line) {
  if (line->fault_sites && !util::FaultInjector::Check("tcp/read").ok()) {
    return Status::IOError("injected read fault");
  }
  const Result<bool> eof = util::DrainReadable(line->fd.get(), &line->in);
  if (!eof.ok()) return Status::IOError("read: " + eof.status().message());
  if (eof.value()) return Status::IOError("EOF");
  return Status::OK();
}

void Router::Close(Line* line) {
  if (!line->fd.valid()) return;
  loop_->Remove(line->fd.get());
  line->fd.Close();
  line->connecting = false;
}

// --- Upstreams -------------------------------------------------------------

Router::Line* Router::GetOrConnectUpstream(const ClientPtr& client,
                                           const std::string& shard_name) {
  if (const auto it = client->upstreams.find(shard_name);
      it != client->upstreams.end()) {
    return it->second.get();
  }
  Shard* shard = FindShard(shard_name);
  if (shard == nullptr) return nullptr;
  auto upstream = std::make_unique<Line>();
  upstream->fault_sites = true;
  EventLoop::Handler handler;
  handler.on_readable = [this, weak = std::weak_ptr<Client>(client),
                         shard_name] {
    if (auto client = weak.lock()) OnUpstreamReadable(client, shard_name);
  };
  handler.on_writable = [this, weak = std::weak_ptr<Client>(client),
                         shard_name] {
    if (auto client = weak.lock()) OnUpstreamWritable(client, shard_name);
  };
  if (!Connect(upstream.get(), shard->spec, std::move(handler)).ok()) {
    return nullptr;
  }
  Line* raw = upstream.get();
  client->upstreams.emplace(shard_name, std::move(upstream));
  return raw;
}

void Router::SendOnUpstream(const ClientPtr& client,
                            const std::string& shard_name,
                            const std::string& line) {
  const Status status = Queue(client->upstreams.at(shard_name).get(), line);
  if (!status.ok()) UpstreamFailed(client, shard_name, status);
}

void Router::OnUpstreamWritable(const ClientPtr& client,
                                const std::string& shard_name) {
  const auto it = client->upstreams.find(shard_name);
  if (it == client->upstreams.end()) return;
  const Status status = Flush(it->second.get());
  if (!status.ok()) UpstreamFailed(client, shard_name, status);
}

void Router::OnUpstreamReadable(const ClientPtr& client,
                                const std::string& shard_name) {
  const auto it = client->upstreams.find(shard_name);
  if (it == client->upstreams.end()) return;
  Line* upstream = it->second.get();
  if (const Status status = Drain(upstream); !status.ok()) {
    UpstreamFailed(client, shard_name, status);
    return;
  }
  // At most one response is outstanding per upstream (serial semantics),
  // but the migration repair sends a follow-up request from inside the
  // handler, so keep popping until the buffer runs dry.
  while (true) {
    const std::optional<std::string> line = upstream->in.NextLine();
    if (!line.has_value()) break;
    HandleUpstreamResponse(client, shard_name, *line);
    if (client->conn->closed()) return;
    if (client->upstreams.find(shard_name) == client->upstreams.end()) return;
  }
}

void Router::HandleUpstreamResponse(const ClientPtr& client,
                                    const std::string& shard_name,
                                    const std::string& line) {
  InFlight& flight = client->flight;
  if (!flight.active || flight.target != shard_name) return;  // stale
  const Result<JsonValue> parsed = JsonValue::Parse(line);
  const bool ok =
      parsed.ok() && parsed.value().GetBool("ok", false);
  std::string error_code;
  if (parsed.ok() && !ok) {
    if (const JsonValue* error = parsed.value().Find("error");
        error != nullptr) {
      error_code = error->GetString("code", "");
    }
  }

  if (flight.repair == InFlight::Repair::kDiscard) {
    // Reply to our internal stream_discard of a stale duplicate (any
    // outcome is fine — NOT_FOUND just means there was nothing to purge).
    // Proceed to the resume step against the authoritative checkpoint.
    flight.repair = InFlight::Repair::kResume;
    JsonValue::Object params;
    params["tenant"] = flight.tenant;
    params["session"] = flight.session;
    params["resume"] = true;
    JsonValue::Object request;
    request["method"] = std::string("stream_open");
    request["params"] = JsonValue(std::move(params));
    SendOnUpstream(client, shard_name, JsonValue(std::move(request)).Dump());
    return;
  }

  if (flight.repair == InFlight::Repair::kResume) {
    // This is the reply to our internal stream_open{resume:true}. Success
    // (or "already open", meaning a concurrent repair won) pins the session
    // to this shard and resends the original request; anything else (no
    // checkpoint to thaw, shard overloaded) is surfaced to the client with
    // its own id.
    flight.repair = InFlight::Repair::kNone;
    const bool already_open =
        error_code == "INVALID_ARGUMENT" &&
        line.find("already open") != std::string::npos;
    if (ok || already_open) {
      const auto pin = migrations_.find(flight.route_key);
      if (pin == migrations_.end() || pin->second.shard != shard_name) {
        migrations_[flight.route_key] =
            Pin{shard_name, flight.tenant, flight.session,
                std::chrono::steady_clock::now()};
        ++sessions_migrated_;
        // Any other live copy of this session is now a stale duplicate: it
        // would shadow future NOT_FOUND repair and serve wrong detects.
        DiscardElsewhere(shard_name, flight.tenant, flight.session);
      }
      SendOnUpstream(client, shard_name, flight.line);
      return;
    }
    JsonValue relayed =
        parsed.ok() && parsed.value().Find("error") != nullptr
            ? ErrorResponse(error_code.empty() ? "NOT_FOUND" : error_code,
                            "session migration failed: " +
                                parsed.value()
                                    .Find("error")
                                    ->GetString("message", ""))
            : ErrorResponse("NOT_FOUND", "session migration failed");
    FinishWithLocalResponse(client, std::move(relayed));
    return;
  }

  // NOT_FOUND on a stream the router routed here usually means the session
  // lived on a shard that died: repair by thawing from the shared
  // checkpoint directory, once per request. A feed bounced with an offset
  // mismatch is the same wound with a different scar — the shard holds a
  // stale duplicate of the session (left by a health flap) whose size
  // cannot match the client's position — so repair purges that copy first,
  // then thaws. A genuinely bad client offset survives the repair: the
  // thawed session rejects the resent feed the same way, and that reply is
  // relayed.
  const bool stream_request = flight.method == "stream_feed" ||
                              flight.method == "stream_detect" ||
                              flight.method == "stream_close";
  const bool stale_copy_suspect =
      flight.method == "stream_feed" && error_code == "INVALID_ARGUMENT" &&
      line.find("does not match session size") != std::string::npos;
  if (!ok && stream_request && !flight.resume_tried &&
      (error_code == "NOT_FOUND" || stale_copy_suspect)) {
    flight.resume_tried = true;
    JsonValue::Object params;
    params["tenant"] = flight.tenant;
    params["session"] = flight.session;
    JsonValue::Object request;
    if (stale_copy_suspect) {
      flight.repair = InFlight::Repair::kDiscard;
      request["method"] = std::string("stream_discard");
    } else {
      // Nothing to purge on a NOT_FOUND: go straight to the resume step.
      flight.repair = InFlight::Repair::kResume;
      params["resume"] = true;
      request["method"] = std::string("stream_open");
    }
    request["params"] = JsonValue(std::move(params));
    SendOnUpstream(client, shard_name, JsonValue(std::move(request)).Dump());
    return;
  }

  if (ok && flight.method == "stream_close") {
    migrations_.erase(flight.route_key);  // placement reverts to the ring
  } else if (ok && flight.method.rfind("stream_", 0) == 0) {
    // Served off the primary (the ring walked past a down owner): pin the
    // key here. Without the pin, the owner's recovery would pull the next
    // request back to a shard without the live state — and worse, a later
    // repair there would strand THIS copy as a zombie that serves stale
    // detects once its shard takes ring traffic again.
    const std::optional<std::string> primary =
        ring_.PickPrimary(flight.route_key);
    if (primary.has_value() && *primary != shard_name &&
        migrations_.find(flight.route_key) == migrations_.end()) {
      migrations_[flight.route_key] =
          Pin{shard_name, flight.tenant, flight.session,
              std::chrono::steady_clock::now()};
      ++fallback_pins_;
    }
  }
  ++forwarded_;
  if (Shard* shard = FindShard(shard_name); shard != nullptr) {
    ++shard->forwarded;
  }
  flight = InFlight{};
  server_->Reply(client->conn, line);  // the shard's exact bytes
}

void Router::DropUpstream(const ClientPtr& client,
                          const std::string& shard_name) {
  const auto it = client->upstreams.find(shard_name);
  if (it == client->upstreams.end()) return;
  Close(it->second.get());
  client->upstreams.erase(it);
}

void Router::UpstreamFailed(const ClientPtr& client,
                            const std::string& shard_name,
                            const Status& status) {
  DropUpstream(client, shard_name);
  MarkShardDown(shard_name, "upstream " + status.message());
}

void Router::OnClientClosed(const ConnectionPtr& conn) {
  const auto it = clients_.find(conn.get());
  if (it == clients_.end()) return;
  const ClientPtr client = it->second;
  clients_.erase(it);
  client->flight = InFlight{};
  for (auto& [name, upstream] : client->upstreams) Close(upstream.get());
  client->upstreams.clear();
}

// --- Shard supervision -----------------------------------------------------

Router::Shard* Router::FindShard(const std::string& name) {
  const auto it = shards_.find(name);
  return it == shards_.end() ? nullptr : &it->second;
}

void Router::StartHeartbeatConnect(const std::string& name) {
  Shard* shard = FindShard(name);
  if (shard == nullptr || shard->hb.fd.valid() || shutting_down_) return;
  EventLoop::Handler handler;
  handler.on_readable = [this, name] { OnHeartbeatReadable(name); };
  handler.on_writable = [this, name] { OnHeartbeatWritable(name); };
  if (!Connect(&shard->hb, shard->spec, std::move(handler)).ok()) {
    ScheduleReconnect(shard);
    return;
  }
  if (!shard->hb.connecting) SendPing(name);
}

void Router::OnHeartbeatWritable(const std::string& name) {
  Shard* shard = FindShard(name);
  if (shard == nullptr || !shard->hb.fd.valid()) return;
  const bool was_connecting = shard->hb.connecting;
  if (const Status status = Flush(&shard->hb); !status.ok()) {
    HeartbeatLost(shard, "heartbeat " + status.message());
    return;
  }
  if (was_connecting) SendPing(name);
}

void Router::SendPing(const std::string& name) {
  Shard* shard = FindShard(name);
  if (shard == nullptr || !shard->hb.fd.valid() ||
      shard->hb.connecting || shutting_down_) {
    return;
  }
  shard->awaiting_pong = true;
  ++shard->pings;
  if (shard->deadline_timer != 0) loop_->CancelTimer(shard->deadline_timer);
  const std::int64_t timeout = config_.heartbeat_timeout_ms > 0
                                   ? config_.heartbeat_timeout_ms
                                   : 2 * config_.heartbeat_ms;
  shard->deadline_timer = loop_->RunAfter(
      std::chrono::milliseconds(timeout), [this, name] {
        OnPingDeadline(name);
      });
  const Status status =
      Queue(&shard->hb, "{\"id\":\"hb\",\"method\":\"ping\"}");
  if (!status.ok()) HeartbeatLost(shard, "heartbeat " + status.message());
}

void Router::OnHeartbeatReadable(const std::string& name) {
  Shard* shard = FindShard(name);
  if (shard == nullptr || !shard->hb.fd.valid()) return;
  if (const Status status = Drain(&shard->hb); !status.ok()) {
    HeartbeatLost(shard, "heartbeat " + status.message());
    return;
  }
  while (true) {
    const std::optional<std::string> line = shard->hb.in.NextLine();
    if (!line.has_value()) break;
    // Any complete response settles the outstanding ping.
    if (!shard->awaiting_pong) continue;
    shard->awaiting_pong = false;
    if (shard->deadline_timer != 0) {
      loop_->CancelTimer(shard->deadline_timer);
      shard->deadline_timer = 0;
    }
    if (!shard->up) MarkShardUp(name);
    if (shard->ping_timer != 0) loop_->CancelTimer(shard->ping_timer);
    shard->ping_timer = loop_->RunAfter(
        std::chrono::milliseconds(config_.heartbeat_ms),
        [this, name] { SendPing(name); });
  }
}

void Router::OnPingDeadline(const std::string& name) {
  Shard* shard = FindShard(name);
  if (shard == nullptr) return;
  shard->deadline_timer = 0;
  if (!shard->awaiting_pong) return;  // pong won the race
  HeartbeatLost(shard, "ping deadline exceeded");
}

void Router::HeartbeatLost(Shard* shard, const std::string& reason) {
  Close(&shard->hb);
  if (shard->up) {
    MarkShardDown(shard->spec.name, reason);
  } else {
    ScheduleReconnect(shard);
  }
}

void Router::MarkShardUp(const std::string& name) {
  Shard* shard = FindShard(name);
  if (shard == nullptr || shard->up) return;
  shard->up = true;
  shard->backoff_attempt = 0;
  ring_.SetUp(name, true);
  std::fprintf(stderr, "periodica_router: shard %s up (%s:%u)\n",
               name.c_str(), shard->spec.host.c_str(),
               static_cast<unsigned>(shard->spec.port));
  // Rejoin purge: while this shard was away, any session pinned elsewhere
  // may have left a stale live copy here (it went down mid-stream; the
  // stream repaired onto a peer). Discard those copies now, before ring
  // traffic can reach them — they hold superseded state and their
  // per-feed checkpoints would fight the real owner's.
  // Snapshot the discard lines before sending: QueueShardControl can flush,
  // and a failed flush re-enters MarkShardDown -> DispatchInFlight, which
  // may erase from migrations_ — never send while iterating it.
  std::vector<std::string> discards;
  discards.reserve(migrations_.size());
  for (const auto& [key, pin] : migrations_) {
    if (pin.shard == name) continue;
    discards.push_back(DiscardRequestLine(pin.tenant, pin.session));
  }
  for (const std::string& line : discards) {
    QueueShardControl(shard, line);
    ++discards_sent_;
  }
}

void Router::MarkShardDown(const std::string& name,
                           const std::string& reason) {
  Shard* shard = FindShard(name);
  if (shard == nullptr) return;
  const bool was_up = shard->up;
  shard->up = false;
  ring_.SetUp(name, false);
  shard->awaiting_pong = false;
  if (shard->deadline_timer != 0) {
    loop_->CancelTimer(shard->deadline_timer);
    shard->deadline_timer = 0;
  }
  if (shard->ping_timer != 0) {
    loop_->CancelTimer(shard->ping_timer);
    shard->ping_timer = 0;
  }
  Close(&shard->hb);
  if (was_up) {
    ++shard->marked_down;
    std::fprintf(stderr, "periodica_router: shard %s down (%s)\n",
                 name.c_str(), reason.c_str());
  }
  ScheduleReconnect(shard);

  // Fail over every client touching the dead shard: idle upstreams are
  // closed (their next use would just fail slower), in-flight requests
  // re-dispatch against the ring minus this shard. Collect first — the
  // re-dispatches below can mutate clients_.
  std::vector<ClientPtr> affected;
  for (const auto& [conn, client] : clients_) {
    if (client->upstreams.find(name) != client->upstreams.end() ||
        (client->flight.active && client->flight.target == name)) {
      affected.push_back(client);
    }
  }
  for (const ClientPtr& client : affected) {
    if (client->conn->closed()) continue;
    DropUpstream(client, name);
    if (client->flight.active && client->flight.target == name) {
      ++client->flight.attempts;
      if (client->flight.repair != InFlight::Repair::kNone) {
        // The shard died mid-repair (discard/resume chain unfinished), so
        // the repair never happened: give the next target its one attempt,
        // or a thawable checkpoint would be surfaced as NOT_FOUND.
        client->flight.resume_tried = false;
      }
      client->flight.repair = InFlight::Repair::kNone;
      DispatchInFlight(client);
    }
  }
}

std::string Router::DiscardRequestLine(const std::string& tenant,
                                       const std::string& session) {
  JsonValue::Object params;
  params["tenant"] = tenant;
  params["session"] = session;
  JsonValue::Object request;
  request["id"] = std::string("gc");
  request["method"] = std::string("stream_discard");
  request["params"] = JsonValue(std::move(params));
  return JsonValue(std::move(request)).Dump();
}

void Router::QueueShardControl(Shard* shard, const std::string& line) {
  if (!shard->hb.fd.valid() || shutting_down_) return;
  const Status status = Queue(&shard->hb, line);
  if (!status.ok()) HeartbeatLost(shard, "heartbeat " + status.message());
}

void Router::DiscardElsewhere(const std::string& keep,
                              const std::string& tenant,
                              const std::string& session) {
  for (auto& [name, shard] : shards_) {
    if (name == keep || !shard.up) continue;
    QueueShardControl(&shard, DiscardRequestLine(tenant, session));
    ++discards_sent_;
  }
}

void Router::SweepPins() {
  if (shutting_down_) return;
  const auto now = std::chrono::steady_clock::now();
  const auto ttl = std::chrono::seconds(config_.pin_ttl_s);
  // Collect first: the discards below can flush a heartbeat, and a failed
  // flush re-enters MarkShardDown -> DispatchInFlight, which may mutate
  // migrations_ under a live iterator.
  std::vector<Pin> expired;
  for (auto it = migrations_.begin(); it != migrations_.end();) {
    if (now - it->second.last_used >= ttl) {
      expired.push_back(it->second);
      it = migrations_.erase(it);
    } else {
      ++it;
    }
  }
  for (const Pin& pin : expired) {
    ++pins_expired_;
    // With the pin gone, placement reverts to the ring; a live copy left
    // on the pinned shard would be a zombie there, so drop it. The on-disk
    // checkpoint survives — a returning client still repairs via thaw.
    if (Shard* shard = FindShard(pin.shard); shard != nullptr && shard->up) {
      QueueShardControl(shard, DiscardRequestLine(pin.tenant, pin.session));
      ++discards_sent_;
    }
  }
  SchedulePinSweep();
}

void Router::SchedulePinSweep() {
  if (config_.pin_ttl_s <= 0 || shutting_down_) return;
  // Sweep a few times per TTL so expiry lag stays a fraction of the TTL.
  std::int64_t period_ms = config_.pin_ttl_s * 1000 / 4;
  if (period_ms < 1000) period_ms = 1000;
  loop_->RunAfter(std::chrono::milliseconds(period_ms),
                  [this] { SweepPins(); });
}

void Router::ScheduleReconnect(Shard* shard) {
  if (shard->reconnect_scheduled || shutting_down_) return;
  shard->reconnect_scheduled = true;
  ++shard->reconnects;
  const std::int64_t delay = NextBackoffMs(
      shard->backoff_attempt++, /*retry_after_ms=*/0,
      config_.reconnect_max_ms, config_.reconnect_base_ms, &rng_);
  const std::string name = shard->spec.name;
  loop_->RunAfter(std::chrono::milliseconds(delay), [this, name] {
    Shard* shard = FindShard(name);
    if (shard == nullptr) return;
    shard->reconnect_scheduled = false;
    StartHeartbeatConnect(name);
  });
}

// --- Lifecycle -------------------------------------------------------------

void Router::BeginShutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  // The router holds no durable state: stop accepting, let clients see EOF
  // and retry against a restarted router. Shards drain on their own.
  server_->StopAccepting();
  loop_->Stop();
}

Status Router::Run() {
  PERIODICA_ASSIGN_OR_RETURN(loop_, EventLoop::Create());

  for (const ShardSpec& spec : specs_) {
    PERIODICA_RETURN_NOT_OK(ring_.AddShard(spec.name));
    ring_.SetUp(spec.name, false);  // down until the first pong
    Shard shard;
    shard.spec = spec;
    shards_.emplace(spec.name, std::move(shard));
  }

  serve::Server::Options options;
  options.name = "periodica_router";
  options.unix_path = config_.listen_socket;
  options.tcp_host = config_.listen_host;
  options.tcp_port = config_.listen_port;
  options.max_line_bytes = static_cast<std::size_t>(config_.max_request_bytes);
  options.on_line = [this](const ConnectionPtr& conn, const std::string& line) {
    HandleRequestLine(conn, line);
  };
  options.on_close = [this](const ConnectionPtr& conn) {
    OnClientClosed(conn);
  };
  options.on_shutdown = [this] { BeginShutdown(); };
  server_ = std::make_unique<serve::Server>(loop_.get(), std::move(options));
  PERIODICA_RETURN_NOT_OK(server_->Start());

  for (const ShardSpec& spec : specs_) {
    StartHeartbeatConnect(spec.name);
  }
  SchedulePinSweep();

  std::fprintf(stderr,
               "periodica_router: routing %zu shards (heartbeat %lld ms)\n",
               specs_.size(),
               static_cast<long long>(config_.heartbeat_ms));
  return loop_->Run();
}

// --- main ------------------------------------------------------------------

int Main(int argc, char** argv) {
  RouterConfig config;
  FlagSet flags("periodica_router");
  flags.AddString("listen_socket", &config.listen_socket,
                  "Unix socket to accept clients on");
  flags.AddInt64("listen_port", &config.listen_port,
                 "TCP port to accept clients on (0 = let the kernel pick; "
                 "-1 = Unix socket only)");
  flags.AddString("listen_host", &config.listen_host,
                  "bind address for --listen_port");
  flags.AddString("shards", &config.shards,
                  "shard fleet as name=host:port,... (required; names are "
                  "the consistent-hash ring identities)");
  flags.AddInt64("virtual_nodes", &config.virtual_nodes,
                 "ring positions per shard (placement smoothness)");
  flags.AddInt64("heartbeat_ms", &config.heartbeat_ms,
                 "ping interval per shard");
  flags.AddInt64("heartbeat_timeout_ms", &config.heartbeat_timeout_ms,
                 "pong deadline before a shard is marked down (0 = twice "
                 "the heartbeat interval)");
  flags.AddInt64("reconnect_base_ms", &config.reconnect_base_ms,
                 "base for the down-shard reconnect backoff");
  flags.AddInt64("reconnect_max_ms", &config.reconnect_max_ms,
                 "cap on the reconnect backoff (pre-jitter)");
  flags.AddInt64("route_retries", &config.route_retries,
                 "re-route attempts per request before OVERLOADED");
  flags.AddInt64("retry_after_ms", &config.retry_after_ms,
                 "retry hint in router-origin OVERLOADED rejections");
  flags.AddInt64("max_request_bytes", &config.max_request_bytes,
                 "largest accepted request line");
  flags.AddInt64("pin_ttl_s", &config.pin_ttl_s,
                 "expire a migration pin after this many idle seconds, "
                 "discarding the abandoned session's live copy (0 = never)");
  flags.AddString("faults", &config.faults,
                  "fault sites to arm for the process lifetime, as "
                  "site:nth[:repeat],... (tools/soak.sh)");
  flags.SetEpilog(
      "Routes the periodicad protocol across a fleet of TCP shards with\n"
      "health-checked consistent hashing and live session migration\n"
      "(docs/SERVING.md). SIGTERM/SIGINT shut the router down; it holds no\n"
      "durable state.");
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "periodica_router: %s\n%s",
                 status.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  if (config.listen_socket.empty() && config.listen_port < 0) {
    std::fprintf(stderr,
                 "periodica_router: --listen_socket or --listen_port is "
                 "required\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  if (config.listen_port > 65535) {
    std::fprintf(stderr, "periodica_router: --listen_port must be <= 65535\n");
    return 2;
  }
  if (config.heartbeat_ms <= 0 || config.heartbeat_timeout_ms < 0 ||
      config.reconnect_base_ms <= 0 || config.reconnect_max_ms <= 0 ||
      config.route_retries < 0 || config.retry_after_ms < 0 ||
      config.max_request_bytes <= 0 || config.virtual_nodes <= 0 ||
      config.pin_ttl_s < 0) {
    std::fprintf(stderr, "periodica_router: flag out of range\n");
    return 2;
  }
  std::vector<ShardSpec> specs;
  if (const Status status = ParseShards(config.shards, &specs);
      !status.ok()) {
    std::fprintf(stderr, "periodica_router: %s\n", status.ToString().c_str());
    return 2;
  }

  std::vector<std::unique_ptr<util::ScopedFault>> armed_faults;
  if (const Status status = util::ArmFaults(config.faults, &armed_faults);
      !status.ok()) {
    std::fprintf(stderr, "periodica_router: %s\n", status.ToString().c_str());
    return 2;
  }

  Router router(std::move(config), std::move(specs));
  if (const Status status = router.Run(); !status.ok()) {
    std::fprintf(stderr, "periodica_router: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace periodica::tools

int main(int argc, char** argv) { return periodica::tools::Main(argc, argv); }
