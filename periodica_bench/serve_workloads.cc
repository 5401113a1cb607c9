// The serving workloads. daemon_mixed drives one store-backed periodicad
// over its Unix socket; routed_stream drives periodica_router in front of
// two TCP shards. Both start the real binaries inside the run's work
// directory and load them from this one process with at most
// RunConfig::threads connections, one load thread each.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <thread>

#include "bench.h"
#include "periodica/core/checkpoint.h"
#include "periodica/core/streaming_detector.h"
#include "periodica/serve/shard_map.h"
#include "periodica/series/series.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/atomic_file.h"

namespace periodica::e2e {
namespace {

enum class Method { kFeed, kDetect, kMineHit, kMineMiss, kOpen, kClose };
constexpr std::size_t kMethods = 6;

const char* MethodName(Method method) {
  static const char* const kNames[kMethods] = {
      "feed", "detect", "mine_hit", "mine_miss", "open", "close"};
  return kNames[static_cast<std::size_t>(method)];
}

const char* SpanName(Method method) {
  static const char* const kNames[kMethods] = {
      "wire.feed",      "wire.detect", "wire.mine_hit",
      "wire.mine_miss", "wire.open",   "wire.close"};
  return kNames[static_cast<std::size_t>(method)];
}

/// The traffic of one serving workload. Rates are fixed here, never derived
/// at run time: about half the closed-loop capacity measured on the
/// calibration host (README.md).
struct ServeSpec {
  bool routed = false;
  std::size_t sessions = 0;
  std::size_t tenants = 4;
  std::size_t sigma = 0;
  std::size_t max_period = 0;
  std::size_t feed_symbols = 0;
  double feed_rate = 0.0;  ///< stream_feed arrivals per second
  double mine_rate = 0.0;  ///< mine arrivals per second
  std::size_t detect_every = 3;  ///< stream_detect after every k-th feed
  std::size_t rotate_every = 0;  ///< feeds per session before close + open
  double zipf_s = 0.8;
  std::size_t prefill_feeds = 0;  ///< feeds per session before measuring
  std::size_t hot_series = 32;
  std::size_t mine_n = 4096;
  std::size_t mine_sigma = 8;
  std::size_t mine_max_period = 256;
  double mine_threshold = 0.5;
  double detect_threshold = 0.5;
  double open_share = 0.6;  ///< share of --seconds spent in the open loop
  double tail = 0.9;        ///< percentile reported as op_tail_ms
  std::size_t sample_every = 16;  ///< sessions replayed in-process
  std::size_t mine_sample_every = 8;
};

ServeSpec SpecFor(const RunConfig& config) {
  ServeSpec spec;
  if (config.workload == "daemon_mixed") {
    spec.sessions = 64;
    spec.sigma = 8;
    spec.max_period = 168;
    spec.feed_symbols = 128;
    spec.feed_rate = 60.0;
    spec.mine_rate = 20.0;
    spec.prefill_feeds = 3;
  } else {
    spec.routed = true;
    spec.sessions = 256;
    spec.sigma = 4;
    spec.max_period = 96;
    spec.feed_symbols = 256;
    spec.feed_rate = 150.0;
    spec.rotate_every = 32;
  }
  if (config.smoke) {
    spec.sessions = spec.routed ? 32 : 16;
    spec.hot_series = 4;
    spec.prefill_feeds = std::min<std::size_t>(spec.prefill_feeds, 2);
    if (spec.routed) spec.rotate_every = 4;
  }
  return spec;
}

/// `prefix` followed by `index`, e.g. "t3".
std::string Numbered(const char* prefix, std::size_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& value : cdf_) value /= total;
  }
  std::size_t Draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// A planted-period string over the first `sigma` letters with 10%
/// replacement noise, continuing at `offset` of the pattern.
std::string PlantedSymbols(std::mt19937_64& rng, const std::string& pattern,
                           std::size_t offset, std::size_t count,
                           std::size_t sigma) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> letter(0, static_cast<int>(sigma) - 1);
  std::string symbols;
  symbols.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char c = pattern[(offset + i) % pattern.size()];
    if (unit(rng) < 0.1) c = static_cast<char>('a' + letter(rng));
    symbols.push_back(c);
  }
  return symbols;
}

std::string RandomPattern(std::mt19937_64& rng, std::size_t period,
                          std::size_t sigma) {
  std::uniform_int_distribution<int> letter(0, static_cast<int>(sigma) - 1);
  std::string pattern;
  for (std::size_t i = 0; i < period; ++i) {
    pattern.push_back(static_cast<char>('a' + letter(rng)));
  }
  return pattern;
}

/// A finished (or current) session generation kept for the in-process
/// replay: everything fed, and the last stream_detect the server returned.
struct Generation {
  std::string tenant;
  std::string name;
  std::string history;
  std::string last_detect;  ///< Dump of the result object ("" = none)
  std::size_t last_detect_size = 0;
  bool diverged = false;  ///< a feed failed; the server state is unknown
};

/// Client-side view of one streaming session. Owned by one load thread.
struct Session {
  std::size_t index = 0;
  std::string tenant;
  std::size_t generation = 0;
  std::string pattern;
  std::mt19937_64 rng;
  std::size_t feeds = 0;  ///< in the current generation
  Generation current;
  std::vector<Generation> finished;  ///< kept only for sampled sessions

  [[nodiscard]] std::string Name() const {
    std::string name = "s";
    name += std::to_string(index);
    name += "-g";
    name += std::to_string(generation);
    return name;
  }
};

/// The JSON periodicad renders for a table (its TableToJson), so outputs
/// computed in-process compare byte for byte with the wire.
JsonValue TableJson(const PeriodicityTable& table, std::size_t max_entries) {
  JsonValue::Array summaries;
  for (const PeriodSummary& summary : table.summaries()) {
    JsonValue::Object entry;
    entry["period"] = summary.period;
    entry["confidence"] = summary.best_confidence;
    entry["periodicities"] = summary.num_periodicities;
    entry["aggregate_only"] = summary.aggregate_only;
    summaries.push_back(JsonValue(std::move(entry)));
  }
  JsonValue::Array entries;
  const std::size_t limit = std::min(max_entries, table.entries().size());
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

/// The result object of a stream_detect on `detector`.
std::string DetectJson(const StreamingPeriodDetector& detector,
                       double threshold) {
  JsonValue result = TableJson(detector.Detect(threshold, 1, 1), 0);
  result.mutable_object()["size"] = detector.size();
  return result.Dump();
}

constexpr std::size_t kMaxEntriesReturned = 100;

MinerOptions MineOptions(const ServeSpec& spec) {
  MinerOptions options;
  options.threshold = spec.mine_threshold;
  options.max_period = spec.mine_max_period;
  return options;
}

/// The result object of a `mine` computed in-process.
Result<std::string> ExpectedMineJson(const std::string& series_text,
                                     const MinerOptions& options) {
  PERIODICA_ASSIGN_OR_RETURN(const SymbolSeries series,
                             SymbolSeries::FromString(series_text));
  PERIODICA_ASSIGN_OR_RETURN(const MiningResult mined,
                             ObscureMiner(options).Mine(series));
  JsonValue result = TableJson(mined.periodicities, kMaxEntriesReturned);
  JsonValue::Object& object = result.mutable_object();
  object["n"] = mined.series_length;
  object["sigma"] = mined.alphabet_size;
  object["engine"] =
      mined.engine_used == MinerEngine::kExact ? "exact" : "fft";
  object["partial"] = mined.partial;
  return result.Dump();
}

/// The `result` of a response as a comparable string, minus "cached".
std::string ResultDump(const JsonValue& response) {
  const JsonValue* result = response.Find("result");
  if (result == nullptr) return "";
  JsonValue copy = *result;
  copy.mutable_object().erase("cached");
  return copy.Dump();
}

/// A number at `path` inside a stats response's result (0 when missing).
double Stat(const JsonValue& stats, std::initializer_list<const char*> path) {
  const JsonValue* node = stats.Find("result");
  for (const char* key : path) {
    if (node == nullptr) return 0.0;
    node = node->Find(key);
  }
  return node == nullptr || !node->is_number() ? 0.0 : node->as_number();
}

// --- The load generator ----------------------------------------------------

/// Where the load connects: the daemon's Unix socket or the router's port.
struct Endpoint {
  std::string unix_path;
  std::uint16_t port = 0;

  [[nodiscard]] Result<WireClient> Dial() const {
    return unix_path.empty() ? WireClient::DialTcp(port)
                             : WireClient::DialUnix(unix_path);
  }
};

/// One completed request: latency from when it was due (open loop: its
/// scheduled send time) and from when it was sent.
struct Exchange {
  Method method;
  double latency_ms;
  double service_ms;
};

/// Request and response lines kept for the per-layer replays.
struct WireSample {
  std::string request;
  std::string response;
};
constexpr std::size_t kWireSamples = 64;

/// A fresh mine whose response is checked against an in-process Mine.
struct SampledMine {
  std::string series;
  std::string result;
};

/// What every load thread reads and nothing writes while load runs.
struct LoadContext {
  const ServeSpec* spec = nullptr;
  Endpoint endpoint;
  std::uint64_t seed = 0;
  std::size_t workers = 1;
  std::vector<std::string> hot_series;
  std::vector<std::string> hot_results;  ///< first uncached response each
  Tracer* tracer = nullptr;
};

/// One load thread's connection and tallies; merged after join. A worker
/// owns the sessions whose index is congruent to its id, so each session's
/// requests stay in order on one connection.
struct Worker {
  std::size_t id = 0;
  std::optional<WireClient> client;
  std::mt19937_64 rng;
  std::vector<Exchange> samples;
  std::vector<double> lags_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t fresh_mines = 0;
  std::int64_t next_request = 0;
  std::vector<SampledMine> sampled_mines;
  std::vector<std::string> mismatches;
  std::vector<std::vector<WireSample>> wire =
      std::vector<std::vector<WireSample>>(kMethods);
};

/// Sends one request without retrying; a refusal, an error or a broken
/// connection counts as a failed operation.
std::optional<JsonValue> Call(const LoadContext& context, Worker* worker,
                              Method method, const std::string& line,
                              Clock::time_point due) {
  ++worker->attempted;
  if (!worker->client.has_value()) {
    Result<WireClient> dialed = context.endpoint.Dial();
    if (!dialed.ok()) {
      ++worker->failed;
      return std::nullopt;
    }
    worker->client.emplace(std::move(dialed.value()));
  }
  const Clock::time_point sent = Clock::now();
  std::optional<Result<std::string>> reply;
  {
    const std::int64_t request =
        static_cast<std::int64_t>(worker->id << 32) + worker->next_request++;
    const Tracer::Span span =
        context.tracer->Scope(SpanName(method), request);
    reply.emplace(worker->client->Call(line));
  }
  const Clock::time_point done = Clock::now();
  if (!reply->ok()) {
    ++worker->failed;
    worker->client.reset();
    return std::nullopt;
  }
  Result<JsonValue> parsed = JsonValue::Parse(reply->value());
  if (!parsed.ok() || !parsed.value().GetBool("ok", false)) {
    ++worker->failed;
    if (worker->failed <= 3) {
      std::fprintf(stderr, "periodica_bench: %s failed: %.200s\n",
                   MethodName(method), reply->value().c_str());
    }
    return std::nullopt;
  }
  worker->samples.push_back(Exchange{
      method, std::chrono::duration<double, std::milli>(done - due).count(),
      std::chrono::duration<double, std::milli>(done - sent).count()});
  std::vector<WireSample>& wire =
      worker->wire[static_cast<std::size_t>(method)];
  if (wire.size() < kWireSamples) wire.push_back({line, reply->value()});
  return std::move(parsed.value());
}

JsonValue::Object SessionParams(const Session& session) {
  JsonValue::Object params;
  params["tenant"] = session.tenant;
  params["session"] = session.Name();
  return params;
}

JsonValue::Object OpenParams(const ServeSpec& spec, const Session& session) {
  JsonValue::Object params = SessionParams(session);
  params["max_period"] = spec.max_period;
  params["alphabet_size"] = spec.sigma;
  return params;
}

std::size_t ResultSize(const JsonValue& response) {
  const JsonValue* result = response.Find("result");
  return result == nullptr
             ? 0
             : static_cast<std::size_t>(result->GetNumber("size", 0));
}

void DoDetect(const LoadContext& context, Worker* worker, Session* session) {
  JsonValue::Object params = SessionParams(*session);
  params["threshold"] = context.spec->detect_threshold;
  const std::optional<JsonValue> response =
      Call(context, worker, Method::kDetect,
           RequestLine("stream_detect", std::move(params)), Clock::now());
  if (!response.has_value()) return;
  session->current.last_detect = ResultDump(*response);
  session->current.last_detect_size = ResultSize(*response);
}

/// Closes the session and opens its next generation under a fresh name.
void Rotate(const LoadContext& context, Worker* worker, Session* session) {
  (void)Call(context, worker, Method::kClose,
             RequestLine("stream_close", SessionParams(*session)),
             Clock::now());
  if (session->index % context.spec->sample_every == 0) {
    session->finished.push_back(std::move(session->current));
  }
  ++session->generation;
  session->feeds = 0;
  session->current = Generation();
  session->current.tenant = session->tenant;
  session->current.name = session->Name();
  if (!Call(context, worker, Method::kOpen,
            RequestLine("stream_open", OpenParams(*context.spec, *session)),
            Clock::now())
           .has_value()) {
    session->current.diverged = true;
  }
}

/// One stream_feed, then the detect and rotation it triggers.
void DoFeed(const LoadContext& context, Worker* worker, Session* session,
            Clock::time_point due) {
  const ServeSpec& spec = *context.spec;
  Generation& current = session->current;
  const std::string chunk =
      PlantedSymbols(session->rng, session->pattern, current.history.size(),
                     spec.feed_symbols, spec.sigma);
  JsonValue::Object params = SessionParams(*session);
  params["symbols"] = chunk;
  params["offset"] = current.history.size();
  const std::optional<JsonValue> response =
      Call(context, worker, Method::kFeed,
           RequestLine("stream_feed", std::move(params)), due);
  if (!response.has_value()) {
    current.diverged = true;
    return;
  }
  current.history += chunk;
  ++session->feeds;
  if (ResultSize(*response) != current.history.size()) {
    worker->mismatches.push_back("feed of " + current.name +
                                 " acknowledged a wrong session size");
  }
  if (session->feeds % spec.detect_every == 0) {
    DoDetect(context, worker, session);
  }
  if (spec.rotate_every != 0 && session->feeds == spec.rotate_every) {
    Rotate(context, worker, session);
  }
}

std::string MineLine(const ServeSpec& spec, const std::string& series,
                     const std::string& series_id, std::size_t tenant) {
  JsonValue::Object params;
  params["series"] = series;
  params["series_id"] = series_id;
  params["tenant"] = Numbered("t", tenant % spec.tenants);
  params["threshold"] = spec.mine_threshold;
  params["max_period"] = spec.mine_max_period;
  return RequestLine("mine", std::move(params));
}

/// One `mine`: a hot series id (a cache hit) or a fresh one.
void DoMine(const LoadContext& context, Worker* worker, bool hot,
            std::size_t hot_index, Clock::time_point due) {
  const ServeSpec& spec = *context.spec;
  std::string series;
  std::string series_id;
  std::size_t tenant = hot_index;
  if (hot) {
    series = context.hot_series[hot_index];
    series_id = Numbered("hot", hot_index);
  } else {
    const std::size_t counter = worker->fresh_mines++;
    std::uniform_int_distribution<std::size_t> period(5, 40);
    series = PlantedSymbols(
        worker->rng,
        RandomPattern(worker->rng, period(worker->rng), spec.mine_sigma), 0,
        spec.mine_n, spec.mine_sigma);
    series_id = Numbered("f", worker->id) + Numbered("-", counter);
    tenant = counter;
  }
  const std::optional<JsonValue> response =
      Call(context, worker, hot ? Method::kMineHit : Method::kMineMiss,
           MineLine(spec, series, series_id, tenant), due);
  if (!response.has_value()) return;
  const JsonValue* result = response->Find("result");
  const bool cached = result != nullptr && result->GetBool("cached", false);
  if (hot) {
    if (!cached) {
      worker->mismatches.push_back("mine of " + series_id +
                                   " missed the durable result cache");
    } else if (ResultDump(*response) != context.hot_results[hot_index]) {
      worker->mismatches.push_back("cache hit for " + series_id +
                                   " differs from its first response");
    }
  } else if (cached) {
    worker->mismatches.push_back("fresh series " + series_id +
                                 " was served from the cache");
  } else if (worker->fresh_mines % spec.mine_sample_every == 1) {
    worker->sampled_mines.push_back({series, ResultDump(*response)});
  }
}

/// One scheduled arrival of the open loop.
struct Arrival {
  double at_s = 0.0;
  bool mine = false;
  bool hot = false;
  std::size_t index = 0;  ///< session index, or hot series index
};

/// Draws what arrives next: the workload's mix of feeds and mines, with
/// Zipf-popular sessions and hot series. The kinds follow a fixed cycle
/// (every k-th arrival a mine, alternately hot and fresh), so every seed
/// sends the same mix and only which sessions and series, and when, change.
class Mix {
 public:
  Mix(const ServeSpec& spec, std::uint64_t seed)
      : spec_(spec),
        sessions_(spec.sessions, spec.zipf_s),
        hot_(std::max<std::size_t>(spec.hot_series, 1), spec.zipf_s),
        mine_cycle_(spec.mine_rate > 0.0
                        ? static_cast<std::size_t>(std::lround(
                              (spec.feed_rate + spec.mine_rate) /
                              spec.mine_rate))
                        : 0) {
    // Popularity ranks map to a seeded permutation of sessions, so the hot
    // ones spread over tenants and connections.
    rank_to_session_.resize(spec.sessions);
    for (std::size_t i = 0; i < spec.sessions; ++i) rank_to_session_[i] = i;
    std::mt19937_64 rng(seed ^ 0x5e55u);
    std::shuffle(rank_to_session_.begin(), rank_to_session_.end(), rng);
  }

  [[nodiscard]] double rate() const {
    return spec_.feed_rate + spec_.mine_rate;
  }

  /// The `k`-th arrival of a stream.
  Arrival Draw(std::size_t k, std::mt19937_64& rng) const {
    Arrival arrival;
    arrival.mine = mine_cycle_ != 0 && k % mine_cycle_ == mine_cycle_ - 1;
    if (arrival.mine) {
      arrival.hot = (k / mine_cycle_) % 2 == 0;
      arrival.index = arrival.hot ? hot_.Draw(rng) : 0;
    } else {
      arrival.index = DrawSession(rng);
    }
    return arrival;
  }

  [[nodiscard]] std::size_t DrawSession(std::mt19937_64& rng) const {
    return rank_to_session_[sessions_.Draw(rng)];
  }

 private:
  const ServeSpec& spec_;
  Zipf sessions_;
  Zipf hot_;
  std::size_t mine_cycle_;
  std::vector<std::size_t> rank_to_session_;
};

/// Seeded Poisson arrivals over `seconds`, split by owning worker: feeds go
/// to the worker owning the session, mines round-robin.
std::vector<std::vector<Arrival>> Schedule(const Mix& mix, double seconds,
                                           std::size_t workers,
                                           std::mt19937_64& rng) {
  std::vector<std::vector<Arrival>> schedule(workers);
  std::exponential_distribution<double> gap(mix.rate());
  std::size_t mines = 0;
  std::size_t k = 0;
  for (double at = gap(rng); at < seconds; at += gap(rng)) {
    Arrival arrival = mix.Draw(k++, rng);
    arrival.at_s = at;
    const std::size_t owner =
        arrival.mine ? mines++ % workers : arrival.index % workers;
    schedule[owner].push_back(arrival);
  }
  return schedule;
}

void Execute(const LoadContext& context, Worker* worker,
             std::vector<Session>* sessions, const Arrival& arrival,
             Clock::time_point due) {
  if (arrival.mine) {
    DoMine(context, worker, arrival.hot, arrival.index, due);
  } else {
    DoFeed(context, worker, &(*sessions)[arrival.index], due);
  }
}

/// Open loop: every arrival is sent at its scheduled time, or as soon as
/// the connection is free. Latency counts from the scheduled time; the lag
/// records how late the generator itself was once the connection was free.
void OpenLoop(const LoadContext& context, Worker* worker,
              std::vector<Session>* sessions,
              const std::vector<Arrival>& arrivals, Clock::time_point start) {
  Clock::time_point free_at = start;
  for (const Arrival& arrival : arrivals) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.at_s));
    std::this_thread::sleep_until(due);
    worker->lags_ms.push_back(std::chrono::duration<double, std::milli>(
                                  Clock::now() - std::max(due, free_at))
                                  .count());
    Execute(context, worker, sessions, arrival, due);
    free_at = Clock::now();
  }
}

/// Closed loop: the same mix, each request sent as soon as the previous
/// one on this connection completed.
void ClosedLoop(const LoadContext& context, Worker* worker,
                std::vector<Session>* sessions, const Mix& mix,
                Clock::time_point deadline) {
  for (std::size_t k = 0; Clock::now() < deadline; ++k) {
    Arrival arrival = mix.Draw(k, worker->rng);
    // Feeds stay on the connection that owns the session.
    for (int tries = 0; !arrival.mine &&
                        arrival.index % context.workers != worker->id &&
                        tries < 64;
         ++tries) {
      arrival.index = mix.DrawSession(worker->rng);
    }
    if (!arrival.mine && arrival.index % context.workers != worker->id) {
      arrival.index = worker->id;
    }
    Execute(context, worker, sessions, arrival, Clock::now());
  }
}

/// Runs `body(worker)` on every worker's own thread and joins them. Until
/// they finish, this thread calls `monitor()` every 100 ms.
template <typename Body, typename Monitor>
void OnWorkers(std::vector<Worker>* workers, Body&& body, Monitor&& monitor) {
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(workers->size());
  for (Worker& worker : *workers) {
    threads.emplace_back([&body, &worker, &finished] {
      body(&worker);
      finished.fetch_add(1);
    });
  }
  while (finished.load() < threads.size()) {
    monitor();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (std::thread& thread : threads) thread.join();
}

/// Moves every worker's samples out (the phase they belong to ended).
std::vector<Exchange> TakeSamples(std::vector<Worker>* workers) {
  std::vector<Exchange> samples;
  for (Worker& worker : *workers) {
    samples.insert(samples.end(), worker.samples.begin(),
                   worker.samples.end());
    worker.samples.clear();
  }
  return samples;
}

std::vector<double> Latencies(const std::vector<Exchange>& samples) {
  std::vector<double> values;
  for (const Exchange& sample : samples) values.push_back(sample.latency_ms);
  return values;
}

// --- Servers ---------------------------------------------------------------

constexpr auto kStartTimeout = std::chrono::seconds(30);
constexpr auto kDrainTimeout = std::chrono::seconds(60);

/// The processes behind one serving workload: one daemon, or two shards
/// and the router in front of them.
struct Servers {
  std::vector<std::unique_ptr<ChildProcess>> processes;  ///< router last
  Endpoint load;                    ///< where requests go
  std::vector<Endpoint> daemons;    ///< every periodicad, for stats
  std::vector<std::string> shard_names;
  std::uint16_t router_port = 0;

  [[nodiscard]] double ResidentMb() const {
    double total = 0.0;
    for (const auto& process : processes) total += process->ResidentMb();
    return total;
  }

  /// Drains every process (the router first) and reports the first error.
  Status Stop() {
    Status first = Status::OK();
    for (auto it = processes.rbegin(); it != processes.rend(); ++it) {
      const Status stopped = (*it)->Terminate(kDrainTimeout);
      if (first.ok() && !stopped.ok()) first = stopped;
    }
    processes.clear();
    return first;
  }
};

std::size_t SessionBudgetBytes(const ServeSpec& spec, std::size_t shards) {
  StreamingPeriodDetector::Options options;
  options.max_period = spec.max_period;
  // Half of what the sessions need resident, so eviction and thaw run.
  return spec.sessions / shards *
         StreamingPeriodDetector::EstimateMemoryBytes(spec.sigma, options) /
         2;
}

Result<std::unique_ptr<ChildProcess>> SpawnDaemon(
    const std::string& dir, std::vector<std::string> args,
    const std::string& log) {
  PERIODICA_ASSIGN_OR_RETURN(
      std::unique_ptr<ChildProcess> daemon,
      ChildProcess::Spawn(PERIODICAD_PATH, args, dir, dir + "/" + log));
  PERIODICA_RETURN_NOT_OK(
      daemon->WaitForLogLine("periodicad: serving on", kStartTimeout)
          .status());
  return daemon;
}

/// daemon_mixed: one daemon on the work directory's store.
Result<Servers> StartDaemon(const RunConfig& config, const ServeSpec& spec,
                            const std::string& log) {
  Servers servers;
  PERIODICA_ASSIGN_OR_RETURN(
      std::unique_ptr<ChildProcess> daemon,
      SpawnDaemon(config.work_dir,
                  {"--socket=d.sock", "--store_dir=store", "--workers=2",
                   "--checkpoint_each_feed",
                   "--session_budget_bytes=" +
                       std::to_string(SessionBudgetBytes(spec, 1))},
                  log));
  servers.processes.push_back(std::move(daemon));
  servers.load.unix_path = config.work_dir + "/d.sock";
  servers.daemons.push_back(servers.load);
  return servers;
}

Result<std::uint16_t> ScrapePort(ChildProcess* process,
                                 const std::string& prefix) {
  PERIODICA_ASSIGN_OR_RETURN(const std::string rest,
                             process->WaitForLogLine(prefix, kStartTimeout));
  const long port = std::strtol(rest.c_str(), nullptr, 10);
  if (port <= 0 || port > 65535) return Status::IOError("bad port " + rest);
  return static_cast<std::uint16_t>(port);
}

/// routed_stream: two TCP shards sharing a checkpoint directory, and the
/// router. Ready once the router reports both shards up.
Result<Servers> StartRouted(const RunConfig& config, const ServeSpec& spec) {
  Servers servers;
  std::string shards;
  for (const std::string name : {"s0", "s1"}) {
    const std::string dir = config.work_dir + "/" + name;
    std::filesystem::create_directories(dir);
    PERIODICA_ASSIGN_OR_RETURN(
        std::unique_ptr<ChildProcess> shard,
        ChildProcess::Spawn(
            PERIODICAD_PATH,
            {"--socket=s.sock", "--tcp_port=0", "--workers=1",
             "--checkpoint_dir=../ckpt", "--checkpoint_each_feed",
             "--session_budget_bytes=" +
                 std::to_string(SessionBudgetBytes(spec, 2))},
            dir, dir + "/shard.log"));
    PERIODICA_ASSIGN_OR_RETURN(
        const std::uint16_t port,
        ScrapePort(shard.get(), "periodicad: tcp listening on 127.0.0.1:"));
    servers.processes.push_back(std::move(shard));
    Endpoint endpoint;
    endpoint.port = port;
    servers.daemons.push_back(endpoint);
    servers.shard_names.push_back(name);
    shards += (shards.empty() ? "" : ",") + name + "=127.0.0.1:" +
              std::to_string(port);
  }
  const std::string dir = config.work_dir + "/router";
  std::filesystem::create_directories(dir);
  PERIODICA_ASSIGN_OR_RETURN(
      std::unique_ptr<ChildProcess> router,
      ChildProcess::Spawn(PERIODICA_ROUTER_PATH,
                          {"--listen_port=0", "--shards=" + shards,
                           "--heartbeat_ms=100"},
                          dir, dir + "/router.log"));
  PERIODICA_ASSIGN_OR_RETURN(
      servers.router_port,
      ScrapePort(router.get(),
                 "periodica_router: tcp listening on 127.0.0.1:"));
  servers.processes.push_back(std::move(router));
  servers.load.port = servers.router_port;
  const Clock::time_point deadline = Clock::now() + kStartTimeout;
  while (true) {
    Result<WireClient> client = servers.load.Dial();
    if (client.ok()) {
      const Result<JsonValue> stats =
          client.value().CallJson(JsonValue(JsonValue::Object{
              {"method", JsonValue("stats")}}));
      if (stats.ok() && Stat(stats.value(), {"up_count"}) == 2.0) break;
    }
    if (Clock::now() > deadline) {
      return Status::IOError("router never saw both shards up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return servers;
}

Result<JsonValue> FetchStats(const Endpoint& endpoint) {
  PERIODICA_ASSIGN_OR_RETURN(WireClient client, endpoint.Dial());
  return client.CallJson(
      JsonValue(JsonValue::Object{{"method", JsonValue("stats")}}));
}

/// Counters summed over every daemon of a deployment.
struct Counters {
  double rejected = 0.0;
  double evictions = 0.0;
  double thaws = 0.0;
  double polls = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double puts = 0.0;
  double rotations = 0.0;
  double compactions = 0.0;
  double queue_ewma_ms = 0.0;  ///< mean over daemons (a level, not a count)

  Counters operator-(const Counters& before) const {
    Counters delta = *this;
    delta.rejected -= before.rejected;
    delta.evictions -= before.evictions;
    delta.thaws -= before.thaws;
    delta.polls -= before.polls;
    delta.cache_hits -= before.cache_hits;
    delta.cache_misses -= before.cache_misses;
    delta.puts -= before.puts;
    delta.rotations -= before.rotations;
    delta.compactions -= before.compactions;
    return delta;
  }
};

Result<Counters> ReadCounters(const Servers& servers) {
  Counters counters;
  for (const Endpoint& daemon : servers.daemons) {
    PERIODICA_ASSIGN_OR_RETURN(const JsonValue stats, FetchStats(daemon));
    counters.rejected += Stat(stats, {"queue", "rejected"});
    counters.evictions += Stat(stats, {"session_table", "evictions"});
    counters.thaws += Stat(stats, {"session_table", "thaws"});
    counters.polls += Stat(stats, {"event_loop", "polls"});
    counters.cache_hits += Stat(stats, {"store", "mine_cache_hits"});
    counters.cache_misses += Stat(stats, {"store", "mine_cache_misses"});
    counters.puts += Stat(stats, {"store", "puts"});
    counters.rotations += Stat(stats, {"store", "rotations"});
    counters.compactions += Stat(stats, {"store", "compactions"});
    counters.queue_ewma_ms += Stat(stats, {"queue", "latency_ewma_ms"}) /
                              static_cast<double>(servers.daemons.size());
  }
  return counters;
}

/// Requests the router forwarded to each shard.
Result<std::vector<double>> ForwardedPerShard(const Servers& servers) {
  Endpoint router;
  router.port = servers.router_port;
  PERIODICA_ASSIGN_OR_RETURN(const JsonValue stats, FetchStats(router));
  std::vector<double> forwarded;
  for (const std::string& name : servers.shard_names) {
    forwarded.push_back(Stat(stats, {"shards", name.c_str(), "forwarded"}));
  }
  return forwarded;
}

// --- Set-up and measurement ------------------------------------------------

constexpr int kSetupRepeats = 5;

std::vector<Session> MakeSessions(const ServeSpec& spec, std::uint64_t seed) {
  std::vector<Session> sessions(spec.sessions);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Session& session = sessions[i];
    session.index = i;
    session.tenant = Numbered("t", i % spec.tenants);
    session.rng.seed(seed * 1000003 + i);
    session.pattern = RandomPattern(session.rng, 5 + i % 20, spec.sigma);
    session.current.tenant = session.tenant;
    session.current.name = session.Name();
  }
  return sessions;
}

std::vector<Worker> MakeWorkers(std::size_t count, std::uint64_t seed) {
  std::vector<Worker> workers(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers[i].id = i;
    workers[i].rng.seed(seed * 7919 + 101 * (i + 1));
  }
  return workers;
}

/// Opens every session (fresh, or resumed from its checkpoint) on one
/// connection.
Status OpenAll(const LoadContext& context, std::vector<Session>* sessions,
               bool resume, Worker* worker) {
  for (Session& session : *sessions) {
    JsonValue::Object params = OpenParams(*context.spec, session);
    if (resume) {
      params = SessionParams(session);
      params["resume"] = true;
    }
    const std::optional<JsonValue> response =
        Call(context, worker, Method::kOpen,
             RequestLine("stream_open", std::move(params)), Clock::now());
    if (!response.has_value() ||
        ResultSize(*response) != session.current.history.size()) {
      return Status::IOError("stream_open of " + session.Name() + " failed");
    }
  }
  return Status::OK();
}

/// daemon_mixed phase 0: a fresh daemon gets every session with a few
/// feeds and a first (uncached) mine of every hot series, then drains.
Status FillStore(const RunConfig& config, LoadContext* context,
                 std::vector<Session>* sessions) {
  const ServeSpec& spec = *context->spec;
  PERIODICA_ASSIGN_OR_RETURN(Servers servers,
                             StartDaemon(config, spec, "fill.log"));
  context->endpoint = servers.load;
  Worker worker;
  PERIODICA_RETURN_NOT_OK(OpenAll(*context, sessions, false, &worker));
  for (std::size_t round = 0; round < spec.prefill_feeds; ++round) {
    for (Session& session : *sessions) {
      DoFeed(*context, &worker, &session, Clock::now());
    }
  }
  for (std::size_t j = 0; j < context->hot_series.size(); ++j) {
    const std::optional<JsonValue> response = Call(
        *context, &worker, Method::kMineMiss,
        MineLine(spec, context->hot_series[j], Numbered("hot", j), j),
        Clock::now());
    if (!response.has_value()) break;
    context->hot_results.push_back(ResultDump(*response));
  }
  if (worker.failed != 0 || !worker.mismatches.empty()) {
    return Status::IOError("filling the store failed");
  }
  return servers.Stop();
}

/// Samples of one measured phase.
struct Measured {
  std::vector<Exchange> open;
  std::vector<Exchange> closed;
  double seconds = 0.0;  ///< wall time of both loops
  double closed_seconds = 0.0;
  std::vector<double> lags_ms;
  std::vector<double> resident_mb;  ///< servers' resident set, every 100 ms
};

/// The open loop for `open_s`, then the closed loop for `closed_s`.
Measured Measure(const LoadContext& context, const Servers& servers,
                 std::vector<Worker>* workers, std::vector<Session>* sessions,
                 double open_s, double closed_s,
                 std::uint64_t schedule_seed) {
  const Mix mix(*context.spec, context.seed);
  std::mt19937_64 rng(schedule_seed);
  const std::vector<std::vector<Arrival>> schedule =
      Schedule(mix, open_s, workers->size(), rng);
  Measured measured;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point start = begin + std::chrono::milliseconds(20);
  const auto sample = [&] {
    measured.resident_mb.push_back(servers.ResidentMb());
  };
  OnWorkers(
      workers,
      [&](Worker* worker) {
        OpenLoop(context, worker, sessions, schedule[worker->id], start);
      },
      sample);
  measured.open = TakeSamples(workers);
  for (Worker& worker : *workers) {
    measured.lags_ms.insert(measured.lags_ms.end(), worker.lags_ms.begin(),
                            worker.lags_ms.end());
    worker.lags_ms.clear();
  }
  if (closed_s > 0.0) {
    const Clock::time_point closed_start = Clock::now();
    const Clock::time_point deadline =
        closed_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(closed_s));
    OnWorkers(
        workers,
        [&](Worker* worker) {
          ClosedLoop(context, worker, sessions, mix, deadline);
        },
        sample);
    measured.closed_seconds = MillisSince(closed_start) / 1000.0;
    measured.closed = TakeSamples(workers);
  }
  measured.seconds = MillisSince(begin) / 1000.0;
  return measured;
}

// --- Correctness and layer replays -----------------------------------------

template <typename Fn>
void Timed(Tracer* tracer, const char* name, std::vector<double>* samples,
           Fn&& fn) {
  const Tracer::Span span = tracer->Scope(name);
  const Clock::time_point start = Clock::now();
  fn();
  if (samples != nullptr) samples->push_back(MillisSince(start));
}

/// Per-feed layer times (ms) from replaying session histories.
struct StreamCosts {
  std::vector<double> append;
  std::vector<double> encode;
  std::vector<double> decode;
  std::vector<double> persist;  ///< store Put, or the checkpoint file write
  std::vector<double> fetch;    ///< store Get of a checkpoint (thaw read)
  std::vector<double> detect;
  double checkpoint_bytes = 0.0;
  std::size_t symbols = 0;
};

/// Where replayed checkpoints are persisted: a store like the daemon's, or
/// loose files like the shards'.
struct ReplaySink {
  store::KvStore* store = nullptr;
  std::string dir;
};

/// Replays one session generation feed by feed in-process and checks that
/// it agrees with the last stream_detect the server returned; this is what
/// shows that eviction, thaw and routing changed nothing. With `costs`, also
/// times each layer a served feed passes through.
void ReplayGeneration(const ServeSpec& spec, const Generation& generation,
                      Tracer* tracer, const ReplaySink* sink,
                      StreamCosts* costs,
                      std::vector<std::string>* mismatches) {
  if (generation.diverged) return;
  StreamingPeriodDetector::Options options;
  options.max_period = spec.max_period;
  Result<StreamingPeriodDetector> created =
      StreamingPeriodDetector::Create(Alphabet::Latin(spec.sigma), options);
  if (!created.ok()) {
    mismatches->push_back("cannot create a replay detector");
    return;
  }
  StreamingPeriodDetector& detector = created.value();
  bool checked = generation.last_detect.empty();
  std::size_t feeds = 0;
  for (std::size_t offset = 0; offset < generation.history.size();
       offset += spec.feed_symbols) {
    const std::string chunk =
        generation.history.substr(offset, spec.feed_symbols);
    Timed(tracer, "core.stream_append", costs ? &costs->append : nullptr,
          [&] {
            for (const char c : chunk) {
              detector.Append(static_cast<SymbolId>(c - 'a'));
            }
          });
    ++feeds;
    if (costs != nullptr) {
      costs->symbols += chunk.size();
      std::string bytes;
      Timed(tracer, "core.checkpoint_encode", &costs->encode, [&] {
        bytes = EncodeDetectorCheckpoint(detector).ValueOrDie();
      });
      costs->checkpoint_bytes += static_cast<double>(bytes.size());
      Timed(tracer, "core.checkpoint_decode", &costs->decode, [&] {
        (void)DecodeDetectorCheckpoint(bytes, "replay").ValueOrDie();
      });
      const std::string key =
          store::JoinKey({"ckpt", generation.tenant, generation.name});
      Timed(tracer, "store.persist_checkpoint", &costs->persist, [&] {
        const Status stored =
            sink->store != nullptr
                ? sink->store->Put(key, bytes)
                : util::AtomicWriteFile(
                      sink->dir + "/" + generation.name + ".pchk", bytes);
        if (!stored.ok()) mismatches->push_back(stored.ToString());
      });
      if (sink->store != nullptr) {
        Timed(tracer, "store.get_checkpoint", &costs->fetch,
              [&] { (void)sink->store->Get(key); });
      }
      if (feeds % spec.detect_every == 0) {
        Timed(tracer, "core.stream_detect", &costs->detect, [&] {
          (void)detector.Detect(spec.detect_threshold, 1, 1);
        });
      }
    }
    if (!checked && detector.size() == generation.last_detect_size) {
      checked = true;
      if (DetectJson(detector, spec.detect_threshold) !=
          generation.last_detect) {
        mismatches->push_back("stream_detect of " + generation.name +
                              " differs from the in-process replay");
      }
    }
  }
  if (!checked) {
    mismatches->push_back("replay of " + generation.name +
                          " never reached its last detect");
  }
}

/// JSON layer times (ms) of one method, from its recorded wire lines.
struct JsonCosts {
  double decode = 0.0;           ///< request line parse
  double encode = 0.0;           ///< response dump
  double response_decode = 0.0;  ///< response line parse (router side)
};

JsonCosts MeasureJson(const std::vector<WireSample>& samples) {
  std::vector<double> decode;
  std::vector<double> encode;
  std::vector<double> response_decode;
  for (const WireSample& sample : samples) {
    Clock::time_point start = Clock::now();
    (void)JsonValue::Parse(sample.request);
    decode.push_back(MillisSince(start));
    start = Clock::now();
    const Result<JsonValue> response = JsonValue::Parse(sample.response);
    response_decode.push_back(MillisSince(start));
    if (!response.ok()) continue;
    start = Clock::now();
    (void)response.value().Dump();
    encode.push_back(MillisSince(start));
  }
  return JsonCosts{Median(decode), Median(encode), Median(response_decode)};
}

/// Layer times (ms) per request of one method.
struct MethodCost {
  double json = 0.0;
  double parse = 0.0;
  MineLayerTimes mine;
  double store = 0.0;
  double checkpoint = 0.0;
  double stream = 0.0;
  double queue = 0.0;
  double hop = 0.0;

  [[nodiscard]] double Sum() const {
    return json + parse + mine.Sum() + store + checkpoint + stream + queue +
           hop;
  }
};

/// Replays sampled `mine` misses through the mining layers and the result
/// cache, and hits through the cache read. Fills the two methods' costs.
Status ReplayMines(const ServeSpec& spec, const std::vector<Worker>& workers,
                   Tracer* tracer, store::KvStore* store, MethodCost* miss,
                   MethodCost* hit, Report* report) {
  std::vector<MineLayerTimes> layers;
  std::vector<double> parse;
  std::vector<double> compute;
  std::vector<double> put;
  std::vector<double> get;
  std::vector<double> record_parse;
  double candidates = 0.0;
  double pairs = 0.0;
  double matches = 0.0;
  double entries = 0.0;
  double cells = 0.0;
  std::int64_t request = 2000000;
  for (const Worker& worker : workers) {
    for (const WireSample& sample :
         worker.wire[static_cast<std::size_t>(Method::kMineMiss)]) {
      if (layers.size() >= 16) break;
      PERIODICA_ASSIGN_OR_RETURN(const JsonValue parsed,
                                 JsonValue::Parse(sample.request));
      const std::string text =
          parsed.Find("params")->GetString("series", "");
      Clock::time_point start = Clock::now();
      PERIODICA_ASSIGN_OR_RETURN(const SymbolSeries series,
                                 SymbolSeries::FromString(text));
      parse.push_back(MillisSince(start));
      PERIODICA_ASSIGN_OR_RETURN(
          const MineReplay replay,
          ReplayMine(series, MineOptions(spec), tracer, ++request));
      layers.push_back(MineLayers(tracer->Summarize(request)));
      candidates += static_cast<double>(replay.candidates);
      pairs += static_cast<double>(replay.pairs_examined);
      matches += static_cast<double>(replay.matches);
      cells += static_cast<double>(replay.candidates) *
               static_cast<double>(series.size());
      entries += static_cast<double>(
          replay.result.periodicities.entries().size());
      start = Clock::now();
      (void)ObscureMiner(MineOptions(spec)).Mine(series);
      compute.push_back(MillisSince(start));
      const std::string key = "mine-" + std::to_string(request);
      Timed(tracer, "store.put_cache", &put,
            [&] { (void)store->Put(key, sample.response); });
      std::string stored;
      Timed(tracer, "store.get_cache", &get,
            [&] { stored = store->Get(key).ValueOrDie(); });
      start = Clock::now();
      (void)JsonValue::Parse(stored);
      record_parse.push_back(MillisSince(start));
      report->AddAttempted(1);
    }
  }
  if (layers.empty()) return Status::OK();
  const double count = static_cast<double>(layers.size());
  MineLayerTimes mean;
  for (const MineLayerTimes& one : layers) {
    mean.indicator_build += one.indicator_build / count;
    mean.stage1 += one.stage1 / count;
    mean.prefilter += one.prefilter / count;
    mean.stage2 += one.stage2 / count;
    mean.emit += one.emit / count;
  }
  miss->parse = Median(parse);
  miss->mine = mean;
  miss->store = Median(put);
  hit->store = Median(get);
  hit->json += Median(record_parse);
  report->Set("core.prefilter_candidates", candidates / count, "count",
              layers.size());
  report->Set("core.prefilter_survival", candidates / pairs, "frac",
              layers.size());
  report->Set("util.bitset.match_density", cells == 0.0 ? 0.0 : matches / cells,
              "frac", layers.size());
  report->Set("core.entries", entries / count, "count", layers.size());
  report->Set("core.replay_coverage", mean.Sum() / Median(compute), "frac",
              layers.size());
  report->Set("core.mine_compute_ms", Median(compute), "ms", compute.size());
  report->Set("series.parse_us", Median(parse) * 1000.0, "us", parse.size());
  report->Set("store.put_cache_ms", Median(put), "ms", put.size());
  report->Set("store.get_us", Median(get) * 1000.0, "us", get.size());
  return Status::OK();
}

/// router.hop_ms: identical stream_detects alternately through the router
/// and straight to the shard that owns the session.
Result<double> MeasureRouterHop(const ServeSpec& spec, const Servers& servers,
                                const std::vector<Session>& sessions,
                                Report* report) {
  serve::ShardMap ring;
  for (const std::string& name : servers.shard_names) {
    PERIODICA_RETURN_NOT_OK(ring.AddShard(name));
  }
  PERIODICA_ASSIGN_OR_RETURN(WireClient via, servers.load.Dial());
  std::vector<WireClient> direct;
  for (const Endpoint& daemon : servers.daemons) {
    PERIODICA_ASSIGN_OR_RETURN(WireClient client, daemon.Dial());
    direct.push_back(std::move(client));
  }
  std::vector<double> via_ms;
  std::vector<double> direct_ms;
  for (const Session& session : sessions) {
    if (session.index % spec.sample_every != 0 || session.current.diverged) {
      continue;
    }
    const std::optional<std::string> owner =
        ring.Pick(store::JoinKey({session.tenant, session.Name()}));
    const std::size_t shard = static_cast<std::size_t>(
        std::find(servers.shard_names.begin(), servers.shard_names.end(),
                  owner.value_or("")) -
        servers.shard_names.begin());
    if (shard >= direct.size()) continue;
    JsonValue::Object params = SessionParams(session);
    params["threshold"] = spec.detect_threshold;
    const std::string line = RequestLine("stream_detect", std::move(params));
    for (int pair = 0; pair < 5; ++pair) {
      Clock::time_point start = Clock::now();
      PERIODICA_ASSIGN_OR_RETURN(const std::string routed, via.Call(line));
      via_ms.push_back(MillisSince(start));
      start = Clock::now();
      PERIODICA_ASSIGN_OR_RETURN(const std::string straight,
                                 direct[shard].Call(line));
      direct_ms.push_back(MillisSince(start));
      report->AddAttempted(2);
      if (routed != straight) {
        report->Mismatch("stream_detect of " + session.Name() +
                         " differs through the router");
      }
    }
  }
  return Median(via_ms) - Median(direct_ms);
}

std::size_t CountOf(const std::vector<Exchange>& samples, Method method) {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(),
      [method](const Exchange& sample) { return sample.method == method; }));
}

std::vector<double> ServiceTimes(const std::vector<Exchange>& samples,
                                 Method method) {
  std::vector<double> values;
  for (const Exchange& sample : samples) {
    if (sample.method == method) values.push_back(sample.service_ms);
  }
  return values;
}

/// The per-layer metrics of a serving run: stats deltas, replayed layer
/// costs per method, and each layer's share of the request time.
Status ReportLayers(const RunConfig& config, const ServeSpec& spec,
                    const std::vector<Worker>& workers,
                    const std::vector<Session>& sessions,
                    const Measured& measured, const Counters& delta,
                    const std::vector<double>& forwarded, double hop_ms,
                    Tracer* tracer, Report* report) {
  std::vector<Exchange> all = measured.open;
  all.insert(all.end(), measured.closed.begin(), measured.closed.end());
  const double feeds = static_cast<double>(CountOf(all, Method::kFeed));
  const double detects = static_cast<double>(CountOf(all, Method::kDetect));
  const double thaw_ratio =
      feeds + detects == 0.0 ? 0.0 : delta.thaws / (feeds + detects);

  // Stream layers from the sampled sessions' histories.
  const std::string replay_dir = config.work_dir + "/replay";
  std::filesystem::create_directories(replay_dir);
  std::unique_ptr<store::KvStore> replay_store;
  ReplaySink sink;
  sink.dir = replay_dir;
  if (!spec.routed) {
    store::KvStore::Options options;
    options.dir = replay_dir + "/store";
    PERIODICA_ASSIGN_OR_RETURN(replay_store,
                               store::KvStore::Open(std::move(options)));
    sink.store = replay_store.get();
  }
  StreamCosts stream;
  std::vector<std::string> mismatches;
  for (const Session& session : sessions) {
    if (session.index % spec.sample_every != 0) continue;
    for (const Generation& generation : session.finished) {
      ReplayGeneration(spec, generation, tracer, &sink, &stream, &mismatches);
    }
    ReplayGeneration(spec, session.current, tracer, &sink, &stream,
                     &mismatches);
  }
  for (const std::string& what : mismatches) report->Mismatch(what);

  // Per-method costs.
  std::vector<MethodCost> cost(kMethods);
  std::vector<JsonCosts> json(kMethods);
  for (std::size_t m = 0; m < kMethods; ++m) {
    std::vector<WireSample> samples;
    for (const Worker& worker : workers) {
      samples.insert(samples.end(), worker.wire[m].begin(),
                     worker.wire[m].end());
    }
    json[m] = MeasureJson(samples);
    // The shard decodes the request and encodes the response; a router
    // also decodes both.
    cost[m].json = json[m].decode + json[m].encode;
    if (spec.routed) {
      cost[m].json += json[m].decode + json[m].response_decode;
    }
    cost[m].hop = hop_ms;
  }
  MethodCost& feed = cost[static_cast<std::size_t>(Method::kFeed)];
  MethodCost& detect = cost[static_cast<std::size_t>(Method::kDetect)];
  feed.stream = Median(stream.append);
  feed.checkpoint = Median(stream.encode) + thaw_ratio * Median(stream.decode);
  feed.store = Median(stream.persist) + thaw_ratio * Median(stream.fetch);
  detect.stream = Median(stream.detect);
  detect.checkpoint = thaw_ratio * Median(stream.decode);
  detect.store = thaw_ratio * Median(stream.fetch);
  detect.queue = delta.queue_ewma_ms;
  cost[static_cast<std::size_t>(Method::kOpen)].checkpoint =
      Median(stream.encode);
  cost[static_cast<std::size_t>(Method::kOpen)].store = Median(stream.persist);
  if (!spec.routed) {
    MethodCost& miss = cost[static_cast<std::size_t>(Method::kMineMiss)];
    PERIODICA_RETURN_NOT_OK(ReplayMines(
        spec, workers, tracer, replay_store.get(), &miss,
        &cost[static_cast<std::size_t>(Method::kMineHit)], report));
    miss.queue = delta.queue_ewma_ms;
  }

  // Shares of the open-loop request time, weighted by how often each
  // method ran; the residual is transport, event loop and anything no
  // replayed layer covers.
  double total = 0.0;
  MethodCost weighted;
  double residual = 0.0;
  for (std::size_t m = 0; m < kMethods; ++m) {
    const auto method = static_cast<Method>(m);
    const std::vector<double> service = ServiceTimes(measured.open, method);
    if (service.empty()) continue;
    const double n = static_cast<double>(service.size());
    const double p50 = Median(service);
    total += n * p50;
    residual += n * (p50 - cost[m].Sum());
    weighted.json += n * cost[m].json;
    weighted.parse += n * cost[m].parse;
    weighted.mine.indicator_build += n * cost[m].mine.indicator_build;
    weighted.mine.stage1 += n * cost[m].mine.stage1;
    weighted.mine.prefilter += n * cost[m].mine.prefilter;
    weighted.mine.stage2 += n * cost[m].mine.stage2;
    weighted.mine.emit += n * cost[m].mine.emit;
    weighted.store += n * cost[m].store;
    weighted.checkpoint += n * cost[m].checkpoint;
    weighted.stream += n * cost[m].stream;
    weighted.queue += n * cost[m].queue;
    weighted.hop += n * cost[m].hop;
    const std::string name = MethodName(method);
    report->Set("wire." + name + "_p50_ms", p50, "ms", service.size());
    report->Set("wire." + name + "_p99_ms", Percentile(service, 0.99), "ms",
                service.size());
    report->Set("wire." + name + "_residual_ms", p50 - cost[m].Sum(), "ms",
                service.size());
  }
  const std::size_t n_open = measured.open.size();
  const auto share = [&](double value) {
    return total == 0.0 ? 0.0 : value / total;
  };
  report->Set("core.indicator_build_share",
              share(weighted.mine.indicator_build), "frac", n_open);
  report->Set("fft.stage1_share", share(weighted.mine.stage1), "frac", n_open);
  report->Set("core.prefilter_share", share(weighted.mine.prefilter), "frac",
              n_open);
  report->Set("util.bitset.stage2_share", share(weighted.mine.stage2), "frac",
              n_open);
  report->Set("core.emit_share", share(weighted.mine.emit), "frac", n_open);
  report->Set("core.pattern_share", 0.0, "frac", n_open);
  report->Set("util.json_share", share(weighted.json), "frac", n_open);
  report->Set("series.parse_share", share(weighted.parse), "frac", n_open);
  report->Set("store.io_share", share(weighted.store), "frac", n_open);
  report->Set("core.checkpoint_share", share(weighted.checkpoint), "frac",
              n_open);
  report->Set("core.stream_share", share(weighted.stream), "frac", n_open);
  report->Set("util.job_queue.wait_share", share(weighted.queue), "frac",
              n_open);
  report->Set("router.hop_share", share(weighted.hop), "frac", n_open);
  report->Set("residual_share", share(residual), "frac", n_open);

  // Counters over the measured phases.
  const double requests = static_cast<double>(all.size());
  report->Set("util.job_queue.rejected", delta.rejected, "count", 1);
  report->Set("util.job_queue.wait_ewma_ms", delta.queue_ewma_ms, "ms", 1);
  const double lookups = delta.cache_hits + delta.cache_misses;
  report->Set("store.cache_hit_ratio",
              lookups == 0.0 ? 0.0 : delta.cache_hits / lookups, "frac",
              static_cast<std::size_t>(lookups));
  report->Set("store.rotations_per_kput",
              delta.puts == 0.0 ? 0.0 : 1000.0 * delta.rotations / delta.puts,
              "count", static_cast<std::size_t>(delta.puts));
  report->Set("store.compactions_per_kput",
              delta.puts == 0.0 ? 0.0
                                : 1000.0 * delta.compactions / delta.puts,
              "count", static_cast<std::size_t>(delta.puts));
  report->Set("serve.evictions_per_s", delta.evictions / measured.seconds,
              "1/s", 1);
  report->Set("serve.thaws_per_s", delta.thaws / measured.seconds, "1/s", 1);
  report->Set("serve.thaw_ratio", thaw_ratio, "frac",
              static_cast<std::size_t>(feeds + detects));
  report->Set("util.event_loop.polls_per_request",
              requests == 0.0 ? 0.0 : delta.polls / requests, "count",
              all.size());
  double skew = 0.0;
  if (!forwarded.empty()) {
    double sum = 0.0;
    double max = 0.0;
    for (const double count : forwarded) {
      sum += count;
      max = std::max(max, count);
    }
    skew = sum == 0.0 ? 0.0
                      : max / (sum / static_cast<double>(forwarded.size()));
  }
  report->Set("router.shard_skew", skew, "frac", forwarded.size());
  std::size_t late = 0;
  for (const double lag : measured.lags_ms) late += lag > 1.0 ? 1 : 0;
  report->Set("load.late_frac",
              measured.lags_ms.empty()
                  ? 0.0
                  : static_cast<double>(late) /
                        static_cast<double>(measured.lags_ms.size()),
              "frac", measured.lags_ms.size());
  report->Set("load.lag_p99_ms", Percentile(measured.lags_ms, 0.99), "ms",
              measured.lags_ms.size());
  const double checkpoints = static_cast<double>(stream.encode.size());
  report->Set("core.checkpoint_bytes",
              checkpoints == 0.0 ? 0.0 : stream.checkpoint_bytes / checkpoints,
              "B", stream.encode.size());
  report->Set("core.checkpoint_encode_ms", Median(stream.encode), "ms",
              stream.encode.size());
  report->Set("core.checkpoint_decode_ms", Median(stream.decode), "ms",
              stream.decode.size());
  report->Set("store.persist_checkpoint_ms", Median(stream.persist), "ms",
              stream.persist.size());
  report->Set("core.stream_append_ns_per_symbol",
              stream.append.empty()
                  ? 0.0
                  : Median(stream.append) * 1e6 /
                        static_cast<double>(spec.feed_symbols),
              "ns", stream.append.size());
  report->Set("core.stream_detect_ms", Median(stream.detect), "ms",
              stream.detect.size());
  const JsonCosts& feed_json = json[static_cast<std::size_t>(Method::kFeed)];
  report->Set("util.json.decode_us", feed_json.decode * 1000.0, "us", 1);
  report->Set("util.json.encode_us", feed_json.encode * 1000.0, "us", 1);
  if (spec.routed) report->Set("router.hop_ms", hop_ms, "ms", 1);
  for (const MetricSpec& metric : PerLayerMetrics()) {
    // Layers off this workload's path (patterns, or mining behind a router
    // that only streams) read 0.
    if (!report->Has(metric.name)) {
      report->Set(metric.name, 0.0, metric.unit, 0);
    }
  }
  return Status::OK();
}

}  // namespace

Status RunServeWorkload(const RunConfig& config, Report* report) {
  const ServeSpec spec = SpecFor(config);
  std::vector<Session> sessions = MakeSessions(spec, config.seed);
  Tracer quiet(false);
  Tracer tracer(config.trace);
  LoadContext context;
  context.spec = &spec;
  context.seed = config.seed;
  context.workers = config.threads;
  context.tracer = &quiet;
  std::vector<std::string> setup_mismatches;

  if (!spec.routed) {
    std::mt19937_64 rng(config.seed * 7919 + 1);
    for (std::size_t j = 0; j < spec.hot_series; ++j) {
      context.hot_series.push_back(PlantedSymbols(
          rng, RandomPattern(rng, 8 + j % 9, spec.mine_sigma), 0, spec.mine_n,
          spec.mine_sigma));
    }
    PERIODICA_RETURN_NOT_OK(FillStore(config, &context, &sessions));
  }

  // Set-up: daemon_mixed restarts on the filled store and resumes every
  // session; routed_stream spawns the shards and the router and opens every
  // session. Repeated, the last deployment is the measured one.
  std::vector<double> setups;
  std::optional<Servers> servers;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (spec.routed) {
      std::error_code ignored;
      std::filesystem::remove_all(config.work_dir, ignored);
      std::filesystem::create_directories(config.work_dir, ignored);
      sessions = MakeSessions(spec, config.seed);
    }
    const Clock::time_point start = Clock::now();
    Result<Servers> started =
        spec.routed
            ? StartRouted(config, spec)
            : StartDaemon(config, spec, "daemon-" + std::to_string(r) + ".log");
    if (!started.ok()) return started.status();
    servers.emplace(std::move(started.value()));
    context.endpoint = servers->load;
    Worker worker;
    PERIODICA_RETURN_NOT_OK(
        OpenAll(context, &sessions, /*resume=*/!spec.routed, &worker));
    setups.push_back(MillisSince(start) / 1000.0);
    if (r + 1 < kSetupRepeats) PERIODICA_RETURN_NOT_OK(servers->Stop());
  }

  std::vector<Worker> workers = MakeWorkers(config.threads, config.seed);
  PERIODICA_ASSIGN_OR_RETURN(const Counters before, ReadCounters(*servers));
  std::vector<double> forwarded_before;
  if (spec.routed) {
    PERIODICA_ASSIGN_OR_RETURN(forwarded_before, ForwardedPerShard(*servers));
  }
  // Timed while the servers idle, so their own load cannot slow it.
  std::vector<double> references;
  TimeReferenceKernel(&references);
  const double open_s = config.seconds * spec.open_share;
  const Measured measured =
      Measure(context, *servers, &workers, &sessions, open_s,
              config.seconds - open_s, config.seed * 31 + 7);
  TimeReferenceKernel(&references);
  PERIODICA_ASSIGN_OR_RETURN(const Counters after, ReadCounters(*servers));
  std::vector<double> forwarded;
  if (spec.routed) {
    PERIODICA_ASSIGN_OR_RETURN(forwarded, ForwardedPerShard(*servers));
    for (std::size_t i = 0; i < forwarded.size(); ++i) {
      forwarded[i] -= forwarded_before[i];
    }
  }
  report->Set("rss_mb", Median(measured.resident_mb), "MB",
              measured.resident_mb.size());
  report->Set("host.reference_ms", Median(references), "ms",
              references.size());
  const std::vector<double> latencies = Latencies(measured.open);
  report->Set("setup_s", Median(setups), "s", setups.size());
  report->Set("op_p50_ms", Median(latencies), "ms", latencies.size());
  report->Set("op_tail_ms", Percentile(latencies, spec.tail), "ms",
              latencies.size());
  report->Set("ops_per_s",
              static_cast<double>(measured.closed.size()) /
                  measured.closed_seconds,
              "1/s", measured.closed.size());

  double hop_ms = 0.0;
  if (config.trace) {
    // Two more short open loops, the second with a span per request: the
    // tracing overhead, measured back to back on the same server state.
    const Measured plain =
        Measure(context, *servers, &workers, &sessions, open_s / 2, 0.0,
                config.seed * 31 + 8);
    context.tracer = &tracer;
    const Measured traced =
        Measure(context, *servers, &workers, &sessions, open_s / 2, 0.0,
                config.seed * 31 + 9);
    report->Set("trace_overhead_frac",
                Median(Latencies(traced.open)) /
                        Median(Latencies(plain.open)) -
                    1.0,
                "frac", traced.open.size());
    if (spec.routed) {
      PERIODICA_ASSIGN_OR_RETURN(
          hop_ms, MeasureRouterHop(spec, *servers, sessions, report));
    }
  }
  if (const Status stopped = servers->Stop(); !stopped.ok()) {
    report->Mismatch("servers did not drain cleanly: " + stopped.ToString());
  }

  for (const Worker& worker : workers) {
    report->AddAttempted(worker.attempted);
    report->AddFailed(worker.failed);
    for (const std::string& what : worker.mismatches) report->Mismatch(what);
  }
  // Sampled fresh mines against in-process Mine.
  for (const Worker& worker : workers) {
    for (const SampledMine& mine : worker.sampled_mines) {
      report->AddAttempted(1);
      const Result<std::string> expected =
          ExpectedMineJson(mine.series, MineOptions(spec));
      if (!expected.ok() || expected.value() != mine.result) {
        report->Mismatch("a mine response differs from in-process Mine");
      }
    }
  }
  if (config.trace) {
    PERIODICA_RETURN_NOT_OK(ReportLayers(config, spec, workers, sessions,
                                         measured, after - before, forwarded,
                                         hop_ms, &tracer, report));
    if (!config.out_dir.empty()) {
      PERIODICA_RETURN_NOT_OK(tracer.WriteChromeTrace(
          config.out_dir + "/trace_" + config.workload + ".json"));
    }
  } else {
    // Every 16th session replayed in-process against its last detect.
    std::vector<std::string> mismatches;
    for (const Session& session : sessions) {
      if (session.index % spec.sample_every != 0) continue;
      for (const Generation& generation : session.finished) {
        ReplayGeneration(spec, generation, &quiet, nullptr, nullptr,
                         &mismatches);
      }
      ReplayGeneration(spec, session.current, &quiet, nullptr, nullptr,
                       &mismatches);
    }
    for (const std::string& what : mismatches) report->Mismatch(what);
  }
  return Status::OK();
}

}  // namespace periodica::e2e
