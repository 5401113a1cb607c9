// periodicad: a long-running periodicity-mining service over a local Unix
// socket, speaking newline-delimited JSON (docs/SERVING.md).
//
// Architecture (the multi-tenant stream hub):
//
//  * one epoll event loop (util::EventLoop) multiplexes every connection on
//    a single thread — connections are serve::Server state machines, not
//    threads, so the daemon's thread count is O(worker pool), never
//    O(connections);
//  * CPU-bound work (mine, stream_detect, sleep) is dispatched to a bounded
//    util::JobQueue; the completion hands its response back to the loop via
//    Post(), which writes it out when the socket is writable;
//  * streaming-session state lives in a serve::SessionTable keyed by
//    (tenant, session): slab-allocated control blocks, per-tenant
//    util::MemoryBudget quotas, and fair-share LRU eviction of idle
//    sessions to bit-exact checkpoints (thawed transparently on next use);
//  * admission control: past queue depth/latency limits the request is
//    *rejected* with a structured OVERLOADED error carrying a retry-after
//    hint; past tenant quotas with nothing evictable it is rejected with
//    QUOTA_EXCEEDED, same shape;
//  * deadlines and a watchdog: every mining job runs under a
//    CancellationToken; a watchdog thread cancels jobs that exceed the
//    wedge timeout, turning a hung worker into a partial result;
//  * graceful drain: SIGTERM/SIGINT stop admission, finish in-flight jobs
//    and flush their responses, checkpoint every open streaming session
//    (core/checkpoint.h) to the one serve::CheckpointSink — --store_dir or
//    --checkpoint_dir, never both — and exit 0.
//
//  * durability (--store_dir): a log-structured KV store (store/kv_store.h)
//    holds session checkpoints and a mine result cache keyed by
//    ("mine", tenant, series_id, config-hash); recovery replays the WAL and
//    scrubs segments at startup, so sessions thaw bit-identically after a
//    crash and repeat mine queries are served from the store.
//
//  * multi-node (--tcp_port): the same protocol served over TCP beside the
//    Unix socket, so periodica_router can consistent-hash sessions across
//    N shard daemons. With --checkpoint_each_feed every acked feed is
//    durable in the shared --checkpoint_dir, which is what lets a
//    router re-route a session to a peer shard mid-stream and replay the
//    one ambiguous in-flight feed idempotently (params.offset).
//
// Fault-injection sites "server/accept", "server/read", "server/write",
// "tcp/accept", "tcp/read", "tcp/write", "event_loop/poll" and the store/*
// family (armed via --faults) let the soak test walk the failure edges of
// the exact binary that serves real traffic.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "periodica/core/memory_estimate.h"
#include "periodica/core/miner.h"
#include "periodica/core/streaming_detector.h"
#include "periodica/serve/checkpoint_sink.h"
#include "periodica/serve/server.h"
#include "periodica/serve/session_table.h"
#include "periodica/series/series.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/cancellation.h"
#include "periodica/util/crc32.h"
#include "periodica/util/event_loop.h"
#include "periodica/util/fault_injector.h"
#include "periodica/util/flags.h"
#include "periodica/util/job_queue.h"
#include "periodica/util/json.h"
#include "periodica/util/memory_budget.h"
#include "periodica/util/sync.h"

namespace periodica::tools {
namespace {

using serve::ConnectionPtr;
using serve::ErrorResponse;
using serve::OkResponse;
using serve::RequestTenant;
using serve::SessionTable;
using util::EventLoop;
using util::JobQueue;
using util::JsonValue;

struct DaemonConfig {
  std::string socket_path;
  std::string tcp_host = "127.0.0.1";
  std::int64_t tcp_port = -1;  ///< -1 = no TCP listener; 0 = ephemeral port
  std::string checkpoint_dir;
  std::string store_dir;  ///< durable KvStore root; "" disables the store
  std::int64_t store_wal_rotate_bytes = 0;  ///< 0 = library default
  /// Opened in Main() (so recovery failures abort startup with a clear
  /// message), owned there, borrowed by the daemon for its whole life —
  /// like `sink`, over `store` or `checkpoint_dir` (null with neither).
  store::KvStore* store = nullptr;
  serve::CheckpointSink* sink = nullptr;
  std::int64_t workers = 1;
  std::int64_t max_queue_depth = 16;
  double max_queue_latency_ms = 0.0;
  std::int64_t memory_budget_bytes = 0;   // mining pool; 0 = unlimited
  std::int64_t request_budget_bytes = 0;  // per-request default cap
  std::int64_t session_budget_bytes = 0;  // resident sessions, all tenants
  std::int64_t tenant_budget_bytes = 0;   // resident sessions, per tenant
  std::int64_t max_sessions_per_tenant = 0;
  std::int64_t quota_retry_after_ms = 100;
  std::int64_t default_deadline_ms = 0;
  std::int64_t wedge_timeout_ms = 0;  // watchdog cancel threshold; 0 = off
  std::int64_t watchdog_interval_ms = 250;
  std::int64_t max_request_bytes = 64 << 20;
  /// Persist a session checkpoint after every stream_open/stream_feed, so a
  /// peer shard sharing the checkpoint backend can thaw the session at the
  /// last acked symbol (live migration). A feed is acked only after its
  /// checkpoint landed.
  bool checkpoint_each_feed = false;
  std::int64_t mine_cache_ttl_s = 0;      ///< 0 = cache entries never expire
  std::int64_t mine_cache_max_bytes = 0;  ///< 0 = no size bound
  std::string faults;  // "site:nth[:repeat],..." armed for the process life
};

/// Per-tenant request counters (stats surface). Loop-confined.
struct TenantCounters {
  std::uint64_t opens = 0;
  std::uint64_t feeds = 0;
  std::uint64_t symbols = 0;
  std::uint64_t detects = 0;
  std::uint64_t closes = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config)
      : config_(std::move(config)),
        pool_(static_cast<std::size_t>(
            std::max<std::int64_t>(0, config_.memory_budget_bytes))),
        queue_(MakeQueueOptions(config_)),
        table_(MakeTableOptions(config_)) {}

  Status Run();

 private:
  static JobQueue::Options MakeQueueOptions(const DaemonConfig& config) {
    JobQueue::Options options;
    options.num_threads = static_cast<std::size_t>(config.workers);
    options.max_queue_depth =
        static_cast<std::size_t>(config.max_queue_depth);
    options.max_queue_latency_ms = config.max_queue_latency_ms;
    return options;
  }

  static SessionTable::Options MakeTableOptions(const DaemonConfig& config) {
    SessionTable::Options options;
    options.sink = config.sink;
    options.global_budget_bytes = static_cast<std::size_t>(
        std::max<std::int64_t>(0, config.session_budget_bytes));
    options.tenant_budget_bytes = static_cast<std::size_t>(
        std::max<std::int64_t>(0, config.tenant_budget_bytes));
    options.max_sessions_per_tenant = static_cast<std::size_t>(
        std::max<std::int64_t>(0, config.max_sessions_per_tenant));
    options.quota_retry_after_ms = config.quota_retry_after_ms;
    return options;
  }

  // Request dispatch (loop thread).
  void HandleRequestLine(const ConnectionPtr& conn, const std::string& line);
  void EnqueueResponse(const ConnectionPtr& conn, const JsonValue& response);

  // Request handlers. Immediate handlers run wholly on the loop thread and
  // return the response; queued handlers return nullopt after dispatching
  // to the job queue (the completion posts the response back), or an
  // immediate error (validation, overload).
  JsonValue HandlePing();
  JsonValue HandleStats();
  JsonValue HandleStreamOpen(const JsonValue& params);
  JsonValue HandleStreamFeed(const JsonValue& params);
  JsonValue HandleStreamClose(const JsonValue& params);
  JsonValue HandleStreamDiscard(const JsonValue& params);
  std::optional<JsonValue> HandleSleep(const ConnectionPtr& conn,
                                       const JsonValue& params,
                                       const JsonValue* id);
  std::optional<JsonValue> HandleMine(const ConnectionPtr& conn,
                                      const JsonValue& params,
                                      const JsonValue* id);
  std::optional<JsonValue> HandleStreamDetect(const ConnectionPtr& conn,
                                              const JsonValue& params,
                                              const JsonValue* id);

  /// Submits `work` to the job queue; the completion posts the response
  /// (with `id` echoed) back to the loop, which writes it to `conn` if the
  /// connection is still alive. Returns the structured OVERLOADED (or
  /// draining) rejection when admission fails, nullopt when queued.
  std::optional<JsonValue> StartQueued(const ConnectionPtr& conn,
                                       JobQueue::Priority priority,
                                       std::function<JsonValue()> work,
                                       const JsonValue* id);

  // Drain sequence (loop thread).
  void BeginDrain();
  void CheckpointSessionsForDrain();

  void WatchdogLoop();

  // Mine-cache bounding (--mine_cache_ttl_s / --mine_cache_max_bytes).
  [[nodiscard]] bool MineCacheBounded() const {
    return config_.mine_cache_ttl_s > 0 || config_.mine_cache_max_bytes > 0;
  }
  /// Wall-clock milliseconds (cache records carry absolute timestamps so
  /// TTLs survive restarts).
  static std::int64_t WallMs() {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  }
  /// Rebuilds the in-memory cache index from the store at startup (before
  /// the loop thread serves), evicting anything already over budget.
  void LoadMineCacheIndex();
  /// Records a fresh cache write and enforces the size bound (loop thread).
  void OnMineCachePut(const std::string& key, std::size_t bytes,
                      std::int64_t stored_ms);
  /// Tombstones `key` in the store and forgets it in the index.
  void DropMineCacheKey(const std::string& key);
  /// Evicts oldest-written entries until under --mine_cache_max_bytes.
  void EnforceMineCacheBytes();

  TenantCounters& CountersFor(const std::string& tenant) {
    return tenant_counters_[tenant];
  }

  /// Session checkpoints have somewhere durable to go.
  [[nodiscard]] bool Durable() const { return config_.sink != nullptr; }

  const DaemonConfig config_;  ///< immutable after construction
  util::MemoryBudget pool_;  // lint: unguarded(pool_): internally atomic
  JobQueue queue_;           // lint: unguarded(queue_): has its own mutex
  SessionTable table_;       // lint: unguarded(table_): has its own mutex

  // The event loop and everything it confines. The loop_ pointer itself is
  // set once in Run() before any other thread exists; Post() is its
  // thread-safe entry point. lint: unguarded(loop_): set before threads start
  std::unique_ptr<EventLoop> loop_;
  /// Listeners and connections; created in Run() like loop_.
  /// lint: unguarded(server_): loop-confined
  std::unique_ptr<serve::Server> server_;
  /// lint: unguarded(tenant_counters_): loop-confined
  std::map<std::string, TenantCounters> tenant_counters_;
  /// Result-cache traffic for `mine` requests carrying a series_id.
  /// lint: unguarded(mine_cache_hits_): loop-confined
  std::uint64_t mine_cache_hits_ = 0;
  /// lint: unguarded(mine_cache_misses_): loop-confined
  std::uint64_t mine_cache_misses_ = 0;
  /// The bounded cache's view of its own contents: key -> (record bytes,
  /// written-at wall ms). Workers write records; the index is maintained on
  /// the loop thread via Post, like every other counter here.
  struct MineCacheEntry {
    std::size_t bytes = 0;
    std::int64_t stored_ms = 0;
  };
  /// lint: unguarded(mine_cache_index_): loop-confined
  std::map<std::string, MineCacheEntry> mine_cache_index_;
  /// lint: unguarded(mine_cache_bytes_): loop-confined
  std::size_t mine_cache_bytes_ = 0;
  /// Size-bound evictions. lint: unguarded(mine_cache_evictions_): loop-confined
  std::uint64_t mine_cache_evictions_ = 0;
  /// TTL expiries. lint: unguarded(mine_cache_expired_): loop-confined
  std::uint64_t mine_cache_expired_ = 0;
  /// lint: unguarded(draining_): loop-confined
  bool draining_ = false;
  /// Runs queue_.Drain() off-loop so completions can still flush through
  /// the live loop. Created and joined by the loop thread (join happens
  /// after Run() returns). lint: unguarded(drain_thread_): loop-confined
  std::thread drain_thread_;

  /// In-flight mining jobs, for the watchdog: id -> (token, start).
  struct FlightRecord {
    util::CancellationToken* token;
    std::chrono::steady_clock::time_point start;
  };
  util::Mutex flights_mutex_;
  std::map<std::uint64_t, FlightRecord> flights_
      PERIODICA_GUARDED_BY(flights_mutex_);
  std::uint64_t next_flight_id_ PERIODICA_GUARDED_BY(flights_mutex_) = 0;
  /// Jobs the watchdog has ever cancelled (surfaced in `stats`).
  ///
  /// Ordering: relaxed — monotone statistic; the cancellation itself goes
  /// through CancellationToken, not through this counter.
  std::atomic<std::uint64_t> watchdog_cancels_{0};
};

// --- JSON response helpers -------------------------------------------------

JsonValue StatusToResponse(const Status& status) {
  std::string code = "INTERNAL";
  if (status.IsInvalidArgument()) code = "INVALID_ARGUMENT";
  if (status.IsResourceExhausted()) code = "RESOURCE_EXHAUSTED";
  if (status.IsUnavailable()) code = "OVERLOADED";
  if (status.IsNotFound()) code = "NOT_FOUND";
  if (status.IsIOError()) code = "IO_ERROR";
  return ErrorResponse(code, status.message());
}

/// Maps a SessionTable failure to the wire: quota rejections become the
/// structured QUOTA_EXCEEDED error with a retry hint, everything else goes
/// through the generic status mapping.
JsonValue TableStatusToResponse(const Status& status,
                                const SessionTable::Rejection& rejection) {
  if (!rejection.quota_exceeded) return StatusToResponse(status);
  JsonValue response = ErrorResponse("QUOTA_EXCEEDED", status.message());
  JsonValue::Object& error =
      response.mutable_object()["error"].mutable_object();
  error["retry_after_ms"] =
      static_cast<std::size_t>(rejection.retry_after_ms);
  error["tenant"] = rejection.tenant;
  return response;
}

JsonValue TableToJson(const PeriodicityTable& table,
                      std::size_t max_entries_returned) {
  JsonValue::Array summaries;
  summaries.reserve(table.summaries().size());
  for (const PeriodSummary& summary : table.summaries()) {
    JsonValue::Object entry;
    entry["period"] = summary.period;
    entry["confidence"] = summary.best_confidence;
    entry["periodicities"] = summary.num_periodicities;
    entry["aggregate_only"] = summary.aggregate_only;
    summaries.push_back(JsonValue(std::move(entry)));
  }
  JsonValue::Array entries;
  const std::size_t limit =
      std::min(max_entries_returned, table.entries().size());
  entries.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    const SymbolPeriodicity& hit = table.entries()[i];
    JsonValue::Object entry;
    entry["period"] = hit.period;
    entry["position"] = hit.position;
    entry["symbol"] = static_cast<std::size_t>(hit.symbol);
    entry["confidence"] = hit.confidence;
    entries.push_back(JsonValue(std::move(entry)));
  }
  JsonValue::Object result;
  result["summaries"] = JsonValue(std::move(summaries));
  result["entries"] = JsonValue(std::move(entries));
  result["entries_truncated"] =
      (table.entries().size() > limit) || table.truncated();
  result["partial"] = table.partial();
  return JsonValue(std::move(result));
}

JobQueue::Priority ParsePriority(const JsonValue& params) {
  const std::string name = params.GetString("priority", "normal");
  if (name == "high") return JobQueue::Priority::kHigh;
  if (name == "low") return JobQueue::Priority::kLow;
  return JobQueue::Priority::kNormal;
}

// --- Request dispatch ------------------------------------------------------

void Daemon::HandleRequestLine(const ConnectionPtr& conn,
                               const std::string& line) {
  const Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    EnqueueResponse(
        conn, ErrorResponse("INVALID_ARGUMENT", "bad request JSON: " +
                                                    parsed.status().message()));
    return;
  }
  const JsonValue& request = parsed.value();
  if (!request.is_object()) {
    EnqueueResponse(
        conn, ErrorResponse("INVALID_ARGUMENT",
                            "request must be a JSON object"));
    return;
  }
  JsonValue id;
  bool has_id = false;
  if (const JsonValue* found = request.Find("id"); found != nullptr) {
    id = *found;
    has_id = true;
  }
  const std::string method = request.GetString("method", "");
  const JsonValue* params_ptr = request.Find("params");
  const JsonValue params =
      params_ptr != nullptr ? *params_ptr : JsonValue(JsonValue::Object{});

  std::optional<JsonValue> response;
  if (method == "ping") {
    response = HandlePing();
  } else if (method == "stats") {
    response = HandleStats();
  } else if (method == "sleep") {
    response = HandleSleep(conn, params, has_id ? &id : nullptr);
  } else if (method == "mine") {
    response = HandleMine(conn, params, has_id ? &id : nullptr);
  } else if (method == "stream_open") {
    response = HandleStreamOpen(params);
  } else if (method == "stream_feed") {
    response = HandleStreamFeed(params);
  } else if (method == "stream_detect") {
    response = HandleStreamDetect(conn, params, has_id ? &id : nullptr);
  } else if (method == "stream_close") {
    response = HandleStreamClose(params);
  } else if (method == "stream_discard") {
    response = HandleStreamDiscard(params);
  } else {
    response = ErrorResponse("INVALID_ARGUMENT",
                             "unknown method '" + method + "'");
  }
  if (response.has_value()) {
    // Echo the request id so clients can pipeline. (Queued handlers echo it
    // in their completion instead.)
    if (has_id) response->mutable_object()["id"] = id;
    EnqueueResponse(conn, *std::move(response));
  }
}

void Daemon::EnqueueResponse(const ConnectionPtr& conn,
                             const JsonValue& response) {
  server_->Reply(conn, response.Dump());
}

// --- Request handlers ------------------------------------------------------

std::optional<JsonValue> Daemon::StartQueued(
    const ConnectionPtr& conn, JobQueue::Priority priority,
    std::function<JsonValue()> work, const JsonValue* id) {
  JobQueue::OverloadInfo overload;
  std::weak_ptr<serve::Connection> weak = conn;
  JsonValue id_copy;
  const bool has_id = id != nullptr;
  if (has_id) id_copy = *id;
  const Status admitted = queue_.TrySubmit(
      priority,
      [this, weak = std::move(weak), work = std::move(work), id_copy,
       has_id] {
        JsonValue response = work();
        if (has_id) response.mutable_object()["id"] = id_copy;
        loop_->Post([this, weak, response = std::move(response)] {
          const ConnectionPtr conn = weak.lock();
          if (conn == nullptr) return;  // peer went away
          EnqueueResponse(conn, response);
        });
      },
      &overload);
  if (!admitted.ok()) {
    // Every admission failure is retryable from the client's point of view:
    // the job never ran. That includes a job lost between admission and the
    // worker pool (the job_queue/enqueue fault site), which surfaces as a
    // structured rejection rather than leaking an internal I/O code.
    JsonValue rejection =
        (admitted.IsUnavailable() || admitted.IsResourceExhausted())
            ? StatusToResponse(admitted)
            : ErrorResponse("OVERLOADED",
                            "job not admitted: " + std::string(
                                admitted.message()));
    JsonValue::Object& error =
        rejection.mutable_object()["error"].mutable_object();
    error["retry_after_ms"] =
        static_cast<std::size_t>(overload.retry_after.count());
    error["queue_depth"] = overload.queue_depth;
    error["draining"] = overload.draining;
    return rejection;
  }
  return std::nullopt;
}

JsonValue Daemon::HandlePing() {
  JsonValue::Object result;
  result["pong"] = true;
  return OkResponse(std::move(result));
}

JsonValue Daemon::HandleStats() {
  const JobQueue::Stats stats = queue_.GetStats();
  JsonValue::Object queue;
  queue["depth"] = stats.queue_depth;
  queue["running"] = stats.running;
  queue["accepted"] = stats.accepted;
  queue["rejected"] = stats.rejected;
  queue["completed"] = stats.completed;
  queue["latency_ewma_ms"] = stats.queue_latency_ewma_ms;
  queue["oldest_running_ms"] = stats.oldest_running_ms;
  queue["workers"] = queue_.num_workers();
  JsonValue::Object memory;
  memory["pool_limit"] = pool_.limit();
  memory["pool_used"] = pool_.used();
  memory["pool_high_water"] = pool_.high_water();

  const SessionTable::Stats table = table_.GetStats();
  JsonValue::Object session_table;
  session_table["sessions"] = table.sessions;
  session_table["resident"] = table.resident;
  session_table["resident_bytes"] = table.resident_bytes;
  session_table["budget_limit"] = table.global_budget_limit;
  session_table["budget_high_water"] = table.global_high_water;
  session_table["evictions"] = table.evictions;
  session_table["thaws"] = table.thaws;
  session_table["quota_rejections"] = table.quota_rejections;
  session_table["slab_capacity"] = table.slab_capacity;
  session_table["slab_chunks"] = table.slab_chunks;
  {
    // Eviction-pressure view: how long resident idle sessions have sat
    // unused (buckets <1s, 1-10s, 10-60s, 60-600s, >=600s). Read with the
    // per-tenant eviction counts below.
    JsonValue::Array buckets;
    buckets.reserve(table.idle_age_buckets.size());
    for (const std::size_t count : table.idle_age_buckets) {
      buckets.push_back(JsonValue(count));
    }
    session_table["idle_age_buckets"] = JsonValue(std::move(buckets));
  }

  JsonValue::Object tenants;
  for (const auto& [name, tenant] : table.tenants) {
    JsonValue::Object entry;
    entry["sessions"] = tenant.sessions;
    entry["resident"] = tenant.resident;
    entry["resident_bytes"] = tenant.resident_bytes;
    entry["budget_limit"] = tenant.budget_limit;
    entry["opened"] = tenant.opened;
    entry["evictions"] = tenant.evictions;
    entry["thaws"] = tenant.thaws;
    entry["quota_rejections"] = tenant.quota_rejections;
    const auto counters = tenant_counters_.find(name);
    if (counters != tenant_counters_.end()) {
      entry["feeds"] = counters->second.feeds;
      entry["symbols"] = counters->second.symbols;
      entry["detects"] = counters->second.detects;
      entry["opens"] = counters->second.opens;
      entry["closes"] = counters->second.closes;
    }
    tenants[name] = JsonValue(std::move(entry));
  }

  JsonValue::Object event_loop;
  event_loop["polls"] = loop_->polls();
  event_loop["fds"] = loop_->num_fds();

  JsonValue::Object store;
  store["enabled"] = config_.store != nullptr;
  store["mine_cache_hits"] = mine_cache_hits_;
  store["mine_cache_misses"] = mine_cache_misses_;
  store["mine_cache_evictions"] = mine_cache_evictions_;
  store["mine_cache_expired"] = mine_cache_expired_;
  if (MineCacheBounded()) {
    store["mine_cache_entries"] = mine_cache_index_.size();
    store["mine_cache_bytes"] = mine_cache_bytes_;
  }
  if (config_.store != nullptr) {
    const store::KvStore::Stats kv = config_.store->GetStats();
    store["keys"] = kv.keys;
    store["wal_bytes"] = kv.wal_bytes;
    store["segments"] = kv.segments;
    store["puts"] = kv.puts;
    store["deletes"] = kv.deletes;
    store["gets"] = kv.gets;
    store["hits"] = kv.hits;
    store["rotations"] = kv.rotations;
    store["compactions"] = kv.compactions;
    store["recoveries"] = kv.recoveries;
    store["recovered_records"] = kv.recovered_records;
    store["torn_tail_bytes"] = kv.torn_tail_bytes;
    store["scrub_errors"] = kv.scrub_errors;
  }

  JsonValue::Object result;
  result["queue"] = JsonValue(std::move(queue));
  result["memory"] = JsonValue(std::move(memory));
  result["store"] = JsonValue(std::move(store));
  result["sessions"] = table.sessions;
  result["session_table"] = JsonValue(std::move(session_table));
  result["tenants"] = JsonValue(std::move(tenants));
  result["connections"] = server_->num_connections();
  result["event_loop"] = JsonValue(std::move(event_loop));
  result["watchdog_cancels"] =
      watchdog_cancels_.load(std::memory_order_relaxed);
  result["draining"] = queue_.draining();
  return OkResponse(std::move(result));
}

std::optional<JsonValue> Daemon::HandleSleep(
    const ConnectionPtr& conn, const JsonValue& params, const JsonValue* id) {
  // Diagnostic: occupies one worker slot for `ms`, cancellable like a real
  // mine. Lets operators (and the e2e tests) probe admission control, the
  // watchdog and drain behavior with precisely-timed load.
  const auto ms = static_cast<std::int64_t>(params.GetNumber("ms", 0));
  if (ms < 0 || ms > 60000) {
    return ErrorResponse("INVALID_ARGUMENT",
                         "sleep: params.ms must be in [0, 60000]");
  }
  return StartQueued(conn, ParsePriority(params), [this, ms]() {
    util::CancellationToken token;
    std::uint64_t flight_id = 0;
    {
      util::MutexLock lock(&flights_mutex_);
      flight_id = next_flight_id_++;
      flights_.emplace(flight_id,
                       FlightRecord{&token, std::chrono::steady_clock::now()});
    }
    const auto wake_at = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(ms);
    while (std::chrono::steady_clock::now() < wake_at && !token.Expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    {
      util::MutexLock lock(&flights_mutex_);
      flights_.erase(flight_id);
    }
    JsonValue::Object result;
    result["partial"] = token.Expired();
    return OkResponse(std::move(result));
  }, id);
}

std::optional<JsonValue> Daemon::HandleMine(
    const ConnectionPtr& conn, const JsonValue& params, const JsonValue* id) {
  const std::string text = params.GetString("series", "");
  if (text.empty()) {
    return ErrorResponse("INVALID_ARGUMENT",
                         "mine: params.series (single-letter symbol string) "
                         "is required and must be non-empty");
  }
  MinerOptions options;
  options.threshold = params.GetNumber("threshold", options.threshold);
  options.min_period = static_cast<std::size_t>(
      params.GetNumber("min_period", 1));
  options.max_period = static_cast<std::size_t>(
      params.GetNumber("max_period", 0));
  options.min_pairs = static_cast<std::size_t>(
      params.GetNumber("min_pairs", 1));
  options.positions = params.GetBool("positions", true);
  const std::string engine = params.GetString("engine", "auto");
  if (engine == "exact") {
    options.engine = MinerEngine::kExact;
  } else if (engine == "fft") {
    options.engine = MinerEngine::kFft;
  } else if (engine != "auto") {
    return ErrorResponse("INVALID_ARGUMENT",
                         "mine: unknown engine '" + engine + "'");
  }
  // Per-request budget: the request may *lower* the server default, never
  // raise past it.
  const auto server_cap =
      static_cast<std::size_t>(config_.request_budget_bytes);
  auto request_cap = static_cast<std::size_t>(
      params.GetNumber("memory_budget_bytes",
                       static_cast<double>(server_cap)));
  if (server_cap != 0) {
    request_cap = request_cap == 0 ? server_cap
                                   : std::min(request_cap, server_cap);
  }
  options.memory_budget_bytes = request_cap;
  if (pool_.limit() != 0) options.memory_budget = &pool_;
  auto deadline_ms = static_cast<std::size_t>(params.GetNumber(
      "deadline_ms", static_cast<double>(config_.default_deadline_ms)));
  const std::size_t max_entries_returned = static_cast<std::size_t>(
      params.GetNumber("max_entries_returned", 100));

  // Result cache: a request that names its series (params.series_id) is
  // keyed by ("mine", tenant, series_id, config-hash) in the durable store,
  // where the config hash covers every input that shapes the response. A
  // repeat query is answered from the store on the loop thread — no queue
  // slot, no recompute, works across daemon restarts — with "cached": true
  // so callers can tell. Partial (deadline/cancel) results are never cached.
  std::string cache_key;
  if (config_.store != nullptr) {
    const std::string series_id = params.GetString("series_id", "");
    if (!series_id.empty()) {
      if (!SessionTable::ValidName(series_id)) {
        return ErrorResponse("INVALID_ARGUMENT",
                             "mine: params.series_id must be a non-empty name "
                             "without '/', '..' or '@'");
      }
      const std::string config_canon =
          std::to_string(options.threshold) + "|" +
          std::to_string(options.min_period) + "|" +
          std::to_string(options.max_period) + "|" +
          std::to_string(options.min_pairs) + "|" +
          (options.positions ? "p" : "-") + "|" + engine + "|" +
          std::to_string(max_entries_returned);
      util::Crc32 hash;
      hash.Update(text.data(), text.size());
      hash.Update(config_canon.data(), config_canon.size());
      char hex[16];
      std::snprintf(hex, sizeof(hex), "%08x",
                    static_cast<unsigned>(hash.value()));
      cache_key = store::JoinKey(
          {"mine", RequestTenant(params), series_id, hex});
      if (Result<std::string> stored = config_.store->Get(cache_key);
          stored.ok()) {
        Result<JsonValue> cached = JsonValue::Parse(*stored);
        if (cached.ok() && cached.value().is_object() &&
            cached.value().Find("result") != nullptr &&
            cached.value().Find("result")->is_object()) {
          // TTL check: records carry the wall time they were written
          // (cached_at_ms). Pre-TTL records lack it and count as stale the
          // moment a TTL is configured — the conservative reading.
          bool fresh = true;
          if (config_.mine_cache_ttl_s > 0) {
            const auto stored_ms = static_cast<std::int64_t>(
                cached.value().GetNumber("cached_at_ms", 0));
            fresh = stored_ms > 0 &&
                    WallMs() - stored_ms <= config_.mine_cache_ttl_s * 1000;
          }
          if (fresh) {
            ++mine_cache_hits_;
            JsonValue response = std::move(cached.value());
            response.mutable_object().erase("cached_at_ms");
            response.mutable_object()["result"].mutable_object()["cached"] =
                true;
            return response;
          }
          ++mine_cache_expired_;
          DropMineCacheKey(cache_key);
        }
        // A record that no longer parses is treated as a miss; recompute
        // and overwrite it.
      }
      ++mine_cache_misses_;
    }
  }

  Result<SymbolSeries> series = SymbolSeries::FromString(text);
  if (!series.ok()) return StatusToResponse(series.status());

  // Advisory admission check before the queue: a request that cannot fit
  // even an *empty* pool is rejected immediately with the full estimate —
  // no queue slot, no allocation. (The engines still charge for real.)
  if (pool_.limit() != 0) {
    const MineMemoryEstimate estimate = EstimateMineMemory(
        series.value().size(), series.value().alphabet().size(), options);
    if (estimate.total_bytes() > pool_.limit()) {
      return ErrorResponse(
          "RESOURCE_EXHAUSTED",
          "mine rejected at admission: estimated peak memory " +
              estimate.ToString() + " exceeds the process pool of " +
              util::FormatBytes(pool_.limit()));
    }
  }

  return StartQueued(conn, ParsePriority(params), [this, series =
                                                       std::move(
                                                           series.value()),
                                                   options, deadline_ms,
                                                   max_entries_returned,
                                                   cache_key]() mutable {
    util::CancellationToken token;
    if (deadline_ms > 0) {
      token.SetTimeout(std::chrono::milliseconds(deadline_ms));
    }
    options.cancellation = &token;
    std::uint64_t flight_id = 0;
    {
      util::MutexLock lock(&flights_mutex_);
      flight_id = next_flight_id_++;
      flights_.emplace(flight_id,
                       FlightRecord{&token, std::chrono::steady_clock::now()});
    }
    const Result<MiningResult> mined = ObscureMiner(options).Mine(series);
    {
      util::MutexLock lock(&flights_mutex_);
      flights_.erase(flight_id);
    }
    if (!mined.ok()) return StatusToResponse(mined.status());
    JsonValue response = TableToJson(mined.value().periodicities,
                                     max_entries_returned);
    JsonValue::Object& result = response.mutable_object();
    result["n"] = mined.value().series_length;
    result["sigma"] = mined.value().alphabet_size;
    result["engine"] =
        mined.value().engine_used == MinerEngine::kExact ? "exact" : "fft";
    result["partial"] = mined.value().partial;
    JsonValue ok = OkResponse(std::move(result));
    if (!cache_key.empty() && !mined.value().partial) {
      // KvStore serializes internally, so the worker can write the cache
      // record directly. A failed write only costs the next query a
      // recompute — never the response. The record is stamped with the wall
      // time for TTL expiry; the stamp is stripped before a hit is served.
      const std::int64_t now_ms = WallMs();
      JsonValue record = ok;
      record.mutable_object()["cached_at_ms"] =
          static_cast<std::size_t>(now_ms);
      const std::string value = record.Dump();
      if (const Status stored = config_.store->Put(cache_key, value);
          !stored.ok()) {
        std::fprintf(stderr, "periodicad: mine cache write failed: %s\n",
                     stored.ToString().c_str());
      } else if (MineCacheBounded()) {
        loop_->Post([this, cache_key, bytes = value.size(), now_ms] {
          OnMineCachePut(cache_key, bytes, now_ms);
        });
      }
    }
    return ok;
  }, id);
}

JsonValue Daemon::HandleStreamOpen(const JsonValue& params) {
  const std::string name = params.GetString("session", "");
  const std::string tenant = RequestTenant(params);
  if (!SessionTable::ValidName(name) || !SessionTable::ValidName(tenant)) {
    return ErrorResponse("INVALID_ARGUMENT",
                         "stream_open: params.session (and params.tenant, if "
                         "set) must be non-empty names without '/', '..' or "
                         "'@'");
  }
  if (queue_.draining() || draining_) {
    return ErrorResponse("OVERLOADED", "daemon is draining for shutdown");
  }
  const bool resume = params.GetBool("resume", false);
  StreamingPeriodDetector::Options options;
  std::size_t alphabet_size = 0;
  if (resume) {
    if (!Durable()) {
      return ErrorResponse("INVALID_ARGUMENT",
                           "stream_open: resume requires --checkpoint_dir "
                           "or --store_dir");
    }
  } else {
    options.max_period = static_cast<std::size_t>(
        params.GetNumber("max_period", 0));
    options.block_size = static_cast<std::size_t>(
        params.GetNumber("block_size", 0));
    alphabet_size = static_cast<std::size_t>(
        params.GetNumber("alphabet_size", 0));
    if (options.max_period == 0 || alphabet_size == 0) {
      return ErrorResponse("INVALID_ARGUMENT",
                           "stream_open: params.max_period and "
                           "params.alphabet_size are required (or resume)");
    }
  }
  SessionTable::Rejection rejection;
  const Result<SessionTable::OpenResult> opened =
      table_.Open(tenant, name, alphabet_size, options, resume, &rejection);
  if (!opened.ok()) {
    if (opened.status().IsInvalidArgument() && !resume &&
        table_.Contains(tenant, name)) {
      return ErrorResponse("INVALID_ARGUMENT", "stream_open: session '" +
                                                   name +
                                                   "' is already open");
    }
    return TableStatusToResponse(opened.status(), rejection);
  }
  ++CountersFor(tenant).opens;
  if (config_.checkpoint_each_feed && !resume && Durable()) {
    // Per-feed durability covers the open itself: a shard that dies before
    // the first feed still leaves a thawable snapshot for its successor.
    Status saved;
    {
      // Scoped: the Handle holds the session mutex, and the failure path's
      // Close relocks it — the Handle must die before Close runs.
      SessionTable::Rejection checkpoint_rejection;
      Result<SessionTable::Handle> handle =
          table_.Acquire(tenant, name, &checkpoint_rejection);
      if (handle.ok()) saved = table_.Checkpoint(handle.value());
    }
    if (!saved.ok()) {
      (void)table_.Close(tenant, name, /*checkpoint=*/false);
      return StatusToResponse(saved);
    }
  }
  JsonValue::Object result;
  result["session"] = name;
  result["tenant"] = tenant;
  result["size"] = opened.value().size;
  return OkResponse(std::move(result));
}

JsonValue Daemon::HandleStreamFeed(const JsonValue& params) {
  const std::string name = params.GetString("session", "");
  const std::string tenant = RequestTenant(params);
  const std::string symbols = params.GetString("symbols", "");
  // Optional at-least-once guard: a client that knows its stream position
  // sends params.offset (symbols already in the session before this chunk).
  // A retried feed whose first delivery was applied-but-unacked is then
  // detected as a duplicate and acked without re-appending — what keeps a
  // migrated session byte-identical when the router replays the one
  // ambiguous in-flight request.
  const auto offset =
      static_cast<std::int64_t>(params.GetNumber("offset", -1));
  SessionTable::Rejection rejection;
  Result<SessionTable::Handle> handle =
      table_.Acquire(tenant, name, &rejection);
  if (!handle.ok()) {
    if (handle.status().IsNotFound()) {
      return ErrorResponse("NOT_FOUND", "no open session '" + name + "'");
    }
    return TableStatusToResponse(handle.status(), rejection);
  }
  StreamingPeriodDetector* detector = handle.value().detector();
  if (offset >= 0) {
    const std::size_t size = detector->size();
    const auto expected = static_cast<std::size_t>(offset);
    if (size == expected + symbols.size() && !symbols.empty()) {
      // Exact replay of the previous chunk: ack idempotently.
      if (config_.checkpoint_each_feed && Durable()) {
        if (const Status saved = table_.Checkpoint(handle.value());
            !saved.ok()) {
          return StatusToResponse(saved);
        }
      }
      JsonValue::Object result;
      result["consumed"] = symbols.size();
      result["size"] = size;
      result["duplicate"] = true;
      return OkResponse(std::move(result));
    }
    if (size != expected) {
      return ErrorResponse(
          "INVALID_ARGUMENT",
          "stream_feed: offset " + std::to_string(offset) +
              " does not match session size " + std::to_string(size));
    }
  }
  const Alphabet& alphabet = detector->alphabet();
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const Result<SymbolId> id =
        alphabet.Find(std::string(1, symbols[i]));
    if (!id.ok()) {
      return ErrorResponse("INVALID_ARGUMENT",
                           "stream_feed: symbol '" +
                               std::string(1, symbols[i]) + "' at offset " +
                               std::to_string(i) +
                               " is outside the session alphabet (symbols "
                               "before it were consumed)");
    }
    detector->Append(id.value());
  }
  if (config_.checkpoint_each_feed && Durable()) {
    // Ack-after-persist: the response is withheld until the checkpoint
    // landed, so "acked" always implies "thawable elsewhere". On failure
    // the in-memory append stands but the client retries with its offset,
    // which the duplicate guard above resolves exactly once.
    if (const Status saved = table_.Checkpoint(handle.value());
        !saved.ok()) {
      return StatusToResponse(saved);
    }
  }
  TenantCounters& counters = CountersFor(tenant);
  ++counters.feeds;
  counters.symbols += symbols.size();
  JsonValue::Object result;
  result["consumed"] = symbols.size();
  result["size"] = detector->size();
  return OkResponse(std::move(result));
}

std::optional<JsonValue> Daemon::HandleStreamDetect(
    const ConnectionPtr& conn, const JsonValue& params, const JsonValue* id) {
  const std::string name = params.GetString("session", "");
  const std::string tenant = RequestTenant(params);
  if (!table_.Contains(tenant, name)) {
    return ErrorResponse("NOT_FOUND", "no open session '" + name + "'");
  }
  const double threshold = params.GetNumber("threshold", 0.5);
  const auto min_period = static_cast<std::size_t>(
      params.GetNumber("min_period", 1));
  const auto min_pairs = static_cast<std::size_t>(
      params.GetNumber("min_pairs", 1));
  ++CountersFor(tenant).detects;
  return StartQueued(conn, ParsePriority(params), [this, tenant, name,
                                                   threshold, min_period,
                                                   min_pairs]() {
    // Acquire on the worker: an evicted session thaws here, off the loop
    // thread, so the file read never stalls other connections.
    SessionTable::Rejection rejection;
    Result<SessionTable::Handle> handle =
        table_.Acquire(tenant, name, &rejection);
    if (!handle.ok()) {
      if (handle.status().IsNotFound()) {
        return ErrorResponse("NOT_FOUND", "no open session '" + name + "'");
      }
      return TableStatusToResponse(handle.status(), rejection);
    }
    StreamingPeriodDetector* detector = handle.value().detector();
    const PeriodicityTable table =
        detector->Detect(threshold, min_period, min_pairs);
    JsonValue response = TableToJson(table, 0);
    response.mutable_object()["size"] = detector->size();
    return OkResponse(std::move(response.mutable_object()));
  }, id);
}

JsonValue Daemon::HandleStreamClose(const JsonValue& params) {
  const std::string name = params.GetString("session", "");
  const std::string tenant = RequestTenant(params);
  const bool checkpoint = params.GetBool("checkpoint", false);
  if (checkpoint && !Durable()) {
    if (!table_.Contains(tenant, name)) {
      return ErrorResponse("NOT_FOUND", "no open session '" + name + "'");
    }
    return ErrorResponse("INVALID_ARGUMENT",
                         "stream_close: checkpoint requires "
                         "--checkpoint_dir or --store_dir");
  }
  const Result<SessionTable::CloseResult> closed =
      table_.Close(tenant, name, checkpoint);
  if (!closed.ok()) {
    if (closed.status().IsNotFound()) {
      return ErrorResponse("NOT_FOUND", "no open session '" + name + "'");
    }
    return StatusToResponse(closed.status());
  }
  ++CountersFor(tenant).closes;
  JsonValue::Object result;
  result["session"] = name;
  result["tenant"] = tenant;
  result["size"] = closed.value().size;
  if (!closed.value().checkpoint_path.empty()) {
    result["checkpoint"] = closed.value().checkpoint_path;
  }
  return OkResponse(std::move(result));
}

JsonValue Daemon::HandleStreamDiscard(const JsonValue& params) {
  // Migration fence: drops the local in-memory copy of a session whose
  // ownership moved to another shard. No checkpoint is written and the
  // on-disk snapshot is left alone — it may already be the new owner's
  // authoritative state (see SessionTable::Discard). The router sends this
  // to purge stale duplicates; it is safe to call on any open session.
  const std::string name = params.GetString("session", "");
  const std::string tenant = RequestTenant(params);
  const Result<SessionTable::CloseResult> discarded =
      table_.Discard(tenant, name);
  if (!discarded.ok()) {
    if (discarded.status().IsNotFound()) {
      return ErrorResponse("NOT_FOUND", "no open session '" + name + "'");
    }
    return StatusToResponse(discarded.status());
  }
  JsonValue::Object result;
  result["session"] = name;
  result["tenant"] = tenant;
  result["size"] = discarded.value().size;
  result["discarded"] = true;
  return OkResponse(std::move(result));
}

// --- Mine-cache bounding ---------------------------------------------------

void Daemon::LoadMineCacheIndex() {
  // Runs in Run() before the loop serves, so the loop-confined index is
  // built race-free. Unbounded configs skip it: the pre-bound behavior
  // (grow forever, serve exact hits) is preserved byte-for-byte.
  if (config_.store == nullptr || !MineCacheBounded()) return;
  const std::string prefix = store::JoinKey({"mine", ""});
  for (const std::string& key : config_.store->ListKeys(prefix)) {
    const Result<std::string> value = config_.store->Get(key);
    if (!value.ok()) continue;
    MineCacheEntry entry;
    entry.bytes = value.value().size();
    if (const Result<JsonValue> record = JsonValue::Parse(value.value());
        record.ok() && record.value().is_object()) {
      entry.stored_ms = static_cast<std::int64_t>(
          record.value().GetNumber("cached_at_ms", 0));
    }
    mine_cache_bytes_ += entry.bytes;
    mine_cache_index_.emplace(key, entry);
  }
  EnforceMineCacheBytes();
  if (!mine_cache_index_.empty()) {
    std::fprintf(stderr,
                 "periodicad: mine cache holds %zu entries (%zu bytes)\n",
                 mine_cache_index_.size(), mine_cache_bytes_);
  }
}

void Daemon::OnMineCachePut(const std::string& key, std::size_t bytes,
                            std::int64_t stored_ms) {
  MineCacheEntry& entry = mine_cache_index_[key];
  mine_cache_bytes_ -= entry.bytes;  // 0 for a brand-new key
  entry.bytes = bytes;
  entry.stored_ms = stored_ms;
  mine_cache_bytes_ += bytes;
  EnforceMineCacheBytes();
}

void Daemon::DropMineCacheKey(const std::string& key) {
  if (const Status dropped = config_.store->Delete(key); !dropped.ok()) {
    std::fprintf(stderr, "periodicad: mine cache tombstone failed: %s\n",
                 dropped.ToString().c_str());
  }
  const auto it = mine_cache_index_.find(key);
  if (it != mine_cache_index_.end()) {
    mine_cache_bytes_ -= it->second.bytes;
    mine_cache_index_.erase(it);
  }
}

void Daemon::EnforceMineCacheBytes() {
  if (config_.mine_cache_max_bytes <= 0) return;
  const auto cap = static_cast<std::size_t>(config_.mine_cache_max_bytes);
  while (mine_cache_bytes_ > cap && !mine_cache_index_.empty()) {
    // Evict the oldest-written record (pre-TTL records with no stamp sort
    // first, so legacy entries drain before fresh ones).
    auto oldest = mine_cache_index_.begin();
    for (auto it = mine_cache_index_.begin(); it != mine_cache_index_.end();
         ++it) {
      if (it->second.stored_ms < oldest->second.stored_ms) oldest = it;
    }
    const std::string key = oldest->first;
    DropMineCacheKey(key);
    ++mine_cache_evictions_;
  }
}

// --- Drain and watchdog ----------------------------------------------------

void Daemon::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  std::fprintf(stderr, "periodicad: draining...\n");
  // Stop accepting: no new connections, and the queue rejects new work with
  // draining=true for anything that still races in.
  server_->StopAccepting();
  // Drain the queue off-loop: in-flight jobs finish and their completions
  // flush through the still-running loop; the final posted task runs once
  // every completion is already behind it (Post order is submission order).
  drain_thread_ = std::thread([this] {
    queue_.Drain();
    loop_->Post([this] {
      server_->WhenFlushed([this] {
        CheckpointSessionsForDrain();
        loop_->Stop();
      });
    });
  });
}

void Daemon::CheckpointSessionsForDrain() {
  std::vector<std::string> log;
  table_.CheckpointAllForDrain(&log);
  for (const std::string& line : log) {
    std::fprintf(stderr, "periodicad: %s\n", line.c_str());
  }
}

void Daemon::WatchdogLoop() {
  while (!serve::Server::ShutdownRequested()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.watchdog_interval_ms));
    if (config_.wedge_timeout_ms <= 0) continue;
    const auto now = std::chrono::steady_clock::now();
    util::MutexLock lock(&flights_mutex_);
    for (auto& [id, flight] : flights_) {
      const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
          now - flight.start);
      if (age.count() >= config_.wedge_timeout_ms &&
          !flight.token->cancelled()) {
        // A wedged (or merely over-budget) job: cancel cooperatively. The
        // engine stops at its next stage boundary and returns a partial
        // result; the worker slot comes back.
        flight.token->RequestCancel();
        watchdog_cancels_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "periodicad: watchdog cancelled job %llu after %lld ms\n",
                     static_cast<unsigned long long>(id),
                     static_cast<long long>(age.count()));
      }
    }
  }
}

Status Daemon::Run() {
  PERIODICA_ASSIGN_OR_RETURN(loop_, EventLoop::Create());
  serve::Server::Options options;
  options.name = "periodicad";
  options.unix_path = config_.socket_path;
  options.tcp_host = config_.tcp_host;
  options.tcp_port = config_.tcp_port;
  options.max_line_bytes = static_cast<std::size_t>(config_.max_request_bytes);
  options.on_line = [this](const ConnectionPtr& conn, const std::string& line) {
    HandleRequestLine(conn, line);
  };
  options.on_shutdown = [this] { BeginDrain(); };
  server_ = std::make_unique<serve::Server>(loop_.get(), std::move(options));
  PERIODICA_RETURN_NOT_OK(server_->Start());

  LoadMineCacheIndex();

  std::fprintf(stderr, "periodicad: serving on %s (%zu workers, depth %lld)\n",
               config_.socket_path.c_str(), queue_.num_workers(),
               static_cast<long long>(config_.max_queue_depth));

  std::thread watchdog([this] { WatchdogLoop(); });

  // One thread multiplexes every connection; it returns after the drain
  // sequence (BeginDrain -> queue drained -> responses flushed ->
  // sessions checkpointed -> Stop).
  const Status served = loop_->Run();

  serve::Server::RequestShutdown();  // stops the watchdog
  if (drain_thread_.joinable()) drain_thread_.join();
  watchdog.join();
  PERIODICA_RETURN_NOT_OK(served);
  std::fprintf(stderr, "periodicad: drained, exiting\n");
  return Status::OK();
}

int Main(int argc, char** argv) {
  DaemonConfig config;
  FlagSet flags("periodicad");
  flags.AddString("socket", &config.socket_path,
                  "Unix socket path to serve on (required)");
  flags.AddInt64("tcp_port", &config.tcp_port,
                 "also serve the same protocol on this TCP port (0 = let "
                 "the kernel pick, printed to stderr; -1 = no TCP "
                 "listener). This is the shard transport periodica_router "
                 "speaks");
  flags.AddString("tcp_host", &config.tcp_host,
                  "address the TCP listener binds (default 127.0.0.1; set "
                  "0.0.0.0 only behind a trusted network — the protocol is "
                  "unauthenticated)");
  flags.AddString("checkpoint_dir", &config.checkpoint_dir,
                  "directory for streaming-session checkpoints (drain and "
                  "eviction target; empty disables checkpointing AND "
                  "quota eviction unless --store_dir is set instead)");
  flags.AddString("store_dir", &config.store_dir,
                  "directory for the durable KV store (WAL + sorted "
                  "segments): session checkpoints and the mine result cache "
                  "live here and survive crashes; empty disables it (not "
                  "with --checkpoint_dir)");
  flags.AddInt64("store_wal_rotate_bytes", &config.store_wal_rotate_bytes,
                 "rotate the store WAL into a sorted segment past this many "
                 "bytes (0 = library default; the soak shrinks it to "
                 "exercise rotation and compaction under faults)");
  flags.AddInt64("workers", &config.workers,
                 "mining worker threads (0 = hardware concurrency)");
  flags.AddInt64("max_queue_depth", &config.max_queue_depth,
                 "max jobs waiting before OVERLOADED rejection");
  flags.AddDouble("max_queue_latency_ms", &config.max_queue_latency_ms,
                  "queue-wait EWMA limit for admission (0 = depth only)");
  flags.AddInt64("memory_budget_bytes", &config.memory_budget_bytes,
                 "process-global mining memory pool (0 = unlimited)");
  flags.AddInt64("request_budget_bytes", &config.request_budget_bytes,
                 "per-request memory cap; requests may lower but not raise "
                 "it (0 = unlimited)");
  flags.AddInt64("session_budget_bytes", &config.session_budget_bytes,
                 "resident streaming-session bytes across all tenants; past "
                 "it idle sessions evict to checkpoints (0 = unlimited)");
  flags.AddInt64("tenant_budget_bytes", &config.tenant_budget_bytes,
                 "resident streaming-session bytes per tenant (0 = "
                 "unlimited)");
  flags.AddInt64("max_sessions_per_tenant", &config.max_sessions_per_tenant,
                 "open sessions (resident + evicted) per tenant before "
                 "QUOTA_EXCEEDED (0 = no cap)");
  flags.AddInt64("quota_retry_after_ms", &config.quota_retry_after_ms,
                 "retry hint carried in QUOTA_EXCEEDED rejections");
  flags.AddInt64("default_deadline_ms", &config.default_deadline_ms,
                 "deadline for requests that do not set one (0 = none)");
  flags.AddInt64("wedge_timeout_ms", &config.wedge_timeout_ms,
                 "watchdog cancels mining jobs running longer than this "
                 "(0 = never)");
  flags.AddInt64("watchdog_interval_ms", &config.watchdog_interval_ms,
                 "watchdog scan interval");
  flags.AddInt64("max_request_bytes", &config.max_request_bytes,
                 "max bytes in one request line");
  flags.AddBool("checkpoint_each_feed", &config.checkpoint_each_feed,
                "persist the session checkpoint after every stream_open/"
                "stream_feed (ack-after-persist); with a shared "
                "--checkpoint_dir this is what lets periodica_router "
                "migrate live sessions to a peer shard");
  flags.AddInt64("mine_cache_ttl_s", &config.mine_cache_ttl_s,
                 "expire mine-cache records older than this many seconds "
                 "(tombstoned on next lookup; 0 = never expire)");
  flags.AddInt64("mine_cache_max_bytes", &config.mine_cache_max_bytes,
                 "bound the mine result cache; oldest records are "
                 "tombstoned past this many bytes (0 = unbounded)");
  flags.AddString("faults", &config.faults,
                  "fault sites to arm: site:nth[:repeat],... (e.g. "
                  "server/read:3:repeat)");
  flags.SetEpilog(
      "Serves newline-delimited JSON requests over a Unix socket; see\n"
      "docs/SERVING.md for the protocol, overload semantics and capacity\n"
      "planning. One epoll event loop multiplexes every connection;\n"
      "streaming sessions are multi-tenant with per-tenant memory quotas\n"
      "(idle sessions evict to --store_dir or --checkpoint_dir and thaw on\n"
      "next use). SIGTERM drains gracefully: admission stops, in-flight\n"
      "jobs finish, streaming sessions checkpoint, exit code 0.");
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "periodicad: %s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "periodicad: --socket is required\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  if (config.tcp_port > 65535) {
    std::fprintf(stderr, "periodicad: --tcp_port must be in [0, 65535]\n");
    return 2;
  }
  if (!config.store_dir.empty() && !config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "periodicad: --store_dir and --checkpoint_dir are "
                         "mutually exclusive\n");
    return 2;
  }
  if (config.checkpoint_each_feed && config.checkpoint_dir.empty() &&
      config.store_dir.empty()) {
    std::fprintf(stderr,
                 "periodicad: --checkpoint_each_feed requires "
                 "--checkpoint_dir or --store_dir\n");
    return 2;
  }
  std::unique_ptr<serve::CheckpointSink> sink;
  if (!config.checkpoint_dir.empty()) {
    // Eviction and drain both write here; a missing directory would
    // silently turn every eviction into a quota rejection.
    std::error_code error;
    std::filesystem::create_directories(config.checkpoint_dir, error);
    if (error) {
      std::fprintf(stderr, "periodicad: cannot create --checkpoint_dir %s: %s\n",
                   config.checkpoint_dir.c_str(), error.message().c_str());
      return 2;
    }
    sink = serve::MakeDirectoryCheckpointSink(config.checkpoint_dir);
  }

  std::vector<std::unique_ptr<util::ScopedFault>> armed_faults;
  if (const Status status = util::ArmFaults(config.faults, &armed_faults);
      !status.ok()) {
    std::fprintf(stderr, "periodicad: %s\n", status.ToString().c_str());
    return 2;
  }

  // Open the durable store before serving: recovery (WAL replay, segment
  // scrub) happens here, so a damaged store stops the daemon with a precise
  // error instead of surfacing corruption to some later request. Faults
  // armed above are live during recovery — the soak kills the daemon
  // mid-write and restarts it through this exact path.
  std::unique_ptr<store::KvStore> kv_store;
  if (!config.store_dir.empty()) {
    store::KvStore::Options store_options;
    store_options.dir = config.store_dir;
    if (config.store_wal_rotate_bytes > 0) {
      store_options.wal_rotate_bytes =
          static_cast<std::size_t>(config.store_wal_rotate_bytes);
    }
    Result<std::unique_ptr<store::KvStore>> opened =
        store::KvStore::Open(std::move(store_options));
    if (!opened.ok()) {
      std::fprintf(stderr, "periodicad: cannot open --store_dir %s: %s\n",
                   config.store_dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    kv_store = std::move(opened.value());
    config.store = kv_store.get();
    sink = serve::MakeStoreCheckpointSink(kv_store.get());
    const store::KvStore::Stats stats = kv_store->GetStats();
    if (stats.recoveries > 0) {
      std::fprintf(stderr,
                   "periodicad: store recovered %llu records (%llu torn "
                   "tail bytes discarded, %zu segments)\n",
                   static_cast<unsigned long long>(stats.recovered_records),
                   static_cast<unsigned long long>(stats.torn_tail_bytes),
                   stats.segments);
    }
  }

  config.sink = sink.get();
  Daemon daemon(std::move(config));
  if (const Status status = daemon.Run(); !status.ok()) {
    std::fprintf(stderr, "periodicad: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace periodica::tools

int main(int argc, char** argv) { return periodica::tools::Main(argc, argv); }
