// End-to-end tests for periodica_router: fork two real periodicad shards
// serving TCP, put the router in front of them, and assert the multi-node
// contracts of docs/SERVING.md — request forwarding, heartbeat-driven
// down-detection, live session migration with byte-identical stream_detect
// output, and router-origin OVERLOADED when no healthy shard exists.

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../tools/unix_socket.h"
#include "periodica/serve/shard_map.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/json.h"

namespace periodica::tools {
namespace {

using util::JsonValue;

std::string UniqueDir() {
  static std::atomic<int> counter{0};
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("router_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir;
}

/// Forks `binary` with `args`, redirecting the child's stderr to
/// `stderr_path` so tests can scrape machine-readable startup lines.
pid_t SpawnWithStderr(const char* binary, std::vector<std::string> args,
                      const std::string& stderr_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    std::FILE* log = std::fopen(stderr_path.c_str(), "w");
    if (log != nullptr) {
      ::dup2(::fileno(log), 2);
      std::setvbuf(stderr, nullptr, _IONBF, 0);
    }
    ::execv(binary, argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

/// A periodicad shard serving both its Unix socket and a TCP port — an
/// ephemeral one unless `port` is set — scraped from the daemon's "tcp
/// listening" stderr line.
class ShardProcess {
 public:
  explicit ShardProcess(std::vector<std::string> extra_args,
                        std::uint16_t port = 0) {
    dir_ = UniqueDir();
    socket_ = dir_ + "/d.sock";
    std::vector<std::string> args = {PERIODICAD_PATH, "--socket=" + socket_,
                                     "--tcp_port=" + std::to_string(port)};
    for (std::string& arg : extra_args) args.push_back(std::move(arg));
    pid_ = SpawnWithStderr(PERIODICAD_PATH, std::move(args),
                           dir_ + "/stderr.log");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline && tcp_port_ == 0) {
      std::ifstream log(dir_ + "/stderr.log");
      std::string line;
      while (std::getline(log, line)) {
        const std::string prefix = "periodicad: tcp listening on 127.0.0.1:";
        if (line.rfind(prefix, 0) == 0) {
          tcp_port_ = static_cast<std::uint16_t>(
              std::stoi(line.substr(prefix.size())));
          break;
        }
      }
      if (tcp_port_ == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    EXPECT_GT(tcp_port_, 0) << "shard did not report its TCP port";
  }

  ~ShardProcess() { Kill(); }

  /// SIGKILLs the shard (the crash under test) and reaps it.
  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

 private:
  std::string dir_;
  std::string socket_;
  std::uint16_t tcp_port_ = 0;
  pid_t pid_ = -1;
};

/// The router under test, serving clients on a Unix socket and routing to
/// the given shard TCP endpoints with a fast heartbeat.
class RouterProcess {
 public:
  explicit RouterProcess(const std::vector<std::uint16_t>& shard_ports,
                         std::vector<std::string> extra_args = {}) {
    dir_ = UniqueDir();
    socket_ = dir_ + "/r.sock";
    std::string shards;
    for (std::size_t i = 0; i < shard_ports.size(); ++i) {
      if (i > 0) shards += ",";
      shards += "s" + std::to_string(i) + "=127.0.0.1:" +
                std::to_string(shard_ports[i]);
    }
    std::vector<std::string> args = {
        PERIODICA_ROUTER_PATH,  "--listen_socket=" + socket_,
        "--shards=" + shards,   "--heartbeat_ms=100",
        "--reconnect_base_ms=50", "--reconnect_max_ms=200",
        "--retry_after_ms=50"};
    for (std::string& arg : extra_args) args.push_back(std::move(arg));
    pid_ = SpawnWithStderr(PERIODICA_ROUTER_PATH, std::move(args),
                           dir_ + "/stderr.log");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (ConnectUnix(socket_).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "router did not come up on " << socket_;
  }

  ~RouterProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  [[nodiscard]] const std::string& socket_path() const { return socket_; }

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
};

/// One connection; Call sends a request and reads the reply.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    Result<FdHandle> fd = ConnectUnix(socket_path);
    if (fd.ok()) fd_ = std::move(fd.value());
  }

  [[nodiscard]] bool connected() const { return fd_.valid(); }

  JsonValue Call(const std::string& method, JsonValue::Object params) {
    JsonValue::Object request;
    request["id"] = std::size_t{1};
    request["method"] = method;
    request["params"] = JsonValue(std::move(params));
    if (!SendLine(fd_.get(), JsonValue(std::move(request)).Dump()).ok()) {
      return JsonValue();
    }
    LineReader reader(fd_.get());
    Result<std::string> line = reader.Next();
    if (!line.ok()) return JsonValue();
    Result<JsonValue> response = JsonValue::Parse(line.value());
    return response.ok() ? response.value() : JsonValue();
  }

 private:
  FdHandle fd_;
};

std::string ErrorCode(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("code", "");
}

/// result.<key> from a router stats response, or -1 when missing.
double RouterStat(const std::string& router_socket, const std::string& key) {
  Client client(router_socket);
  const JsonValue stats = client.Call("stats", {});
  const JsonValue* result = stats.Find("result");
  return result == nullptr ? -1.0 : result->GetNumber(key, -1.0);
}

/// Polls the router's stats until `up_count` equals `want` (or fails after
/// `deadline_ms`). Returns the time it took.
std::chrono::milliseconds WaitForUpCount(const std::string& router_socket,
                                         double want, int deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (RouterStat(router_socket, "up_count") == want) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "router never reached up_count=" << want;
  return std::chrono::milliseconds(deadline_ms);
}

/// Calls through a fresh connection, retrying transient failures the way a
/// real client would (feeds carry offsets, so retries are idempotent).
JsonValue CallWithRetry(const std::string& router_socket,
                        const std::string& method, JsonValue::Object params,
                        int attempts = 20) {
  JsonValue last;
  for (int i = 0; i < attempts; ++i) {
    Client client(router_socket);
    if (client.connected()) {
      last = client.Call(method, params);
      if (last.GetBool("ok", false)) return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return last;
}

std::string PeriodicSeries(std::size_t n, std::size_t period) {
  std::string series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(static_cast<char>('a' + (i % period) % 3));
  }
  return series;
}

TEST(RouterTest, PingAndStatsAreAnsweredLocally) {
  ShardProcess shard_a({});
  ShardProcess shard_b({});
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()});

  Client client(router.socket_path());
  ASSERT_TRUE(client.connected());
  const JsonValue pong = client.Call("ping", {});
  ASSERT_TRUE(pong.GetBool("ok", false)) << pong.Dump();
  EXPECT_TRUE(pong.Find("result")->GetBool("router", false))
      << "ping must be answered by the router, not a shard";

  EXPECT_EQ(RouterStat(router.socket_path(), "shard_count"), 2.0);
  WaitForUpCount(router.socket_path(), 2.0, 5000);
}

TEST(RouterTest, ForwardsMineToShards) {
  ShardProcess shard_a({});
  ShardProcess shard_b({});
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  JsonValue::Object params;
  params["series"] = PeriodicSeries(120, 3);
  params["threshold"] = 0.9;
  const JsonValue mined = CallWithRetry(router.socket_path(), "mine", params);
  ASSERT_TRUE(mined.GetBool("ok", false)) << mined.Dump();
  bool found_period_3 = false;
  for (const JsonValue& summary :
       mined.Find("result")->Find("summaries")->as_array()) {
    if (summary.GetNumber("period", 0) == 3.0) found_period_3 = true;
  }
  EXPECT_TRUE(found_period_3) << mined.Dump();
  EXPECT_GE(RouterStat(router.socket_path(), "forwarded"), 1.0);
}

TEST(RouterTest, DeadShardIsMarkedDownAndTrafficReroutes) {
  ShardProcess shard_a({});
  ShardProcess shard_b({});
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  shard_a.Kill();
  // Heartbeats run every 100ms with a 200ms deadline: detection must land
  // well within a few intervals even on a loaded CI host.
  const auto took = WaitForUpCount(router.socket_path(), 1.0, 5000);
  EXPECT_LT(took.count(), 3000) << "down-detection took too long";

  // The surviving shard carries all traffic.
  JsonValue::Object params;
  params["series"] = PeriodicSeries(60, 4);
  for (int i = 0; i < 4; ++i) {
    const JsonValue mined =
        CallWithRetry(router.socket_path(), "mine", params);
    ASSERT_TRUE(mined.GetBool("ok", false)) << mined.Dump();
  }
}

/// shards.s0.<key> from a router stats response, or -1 when missing.
double FirstShardStat(const std::string& router_socket,
                      const std::string& key) {
  Client client(router_socket);
  const JsonValue stats = client.Call("stats", {});
  const JsonValue* result = stats.Find("result");
  const JsonValue* shards =
      result == nullptr ? nullptr : result->Find("shards");
  const JsonValue* s0 = shards == nullptr ? nullptr : shards->Find("s0");
  return s0 == nullptr ? -1.0 : s0->GetNumber(key, -1.0);
}

// The heartbeat's reconnect path: a shard killed and restarted on the same
// port is probed back, answers a ping and rejoins the ring.
TEST(RouterTest, RestartedShardIsMarkedUpAgain) {
  auto shard_a = std::make_unique<ShardProcess>(std::vector<std::string>{});
  ShardProcess shard_b({});
  const std::uint16_t port = shard_a->tcp_port();
  RouterProcess router({port, shard_b.tcp_port()});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  shard_a->Kill();
  WaitForUpCount(router.socket_path(), 1.0, 5000);
  // Restart only after a probe has failed against the dead port and been
  // rescheduled: the mark-down schedules the first reconnect, every later
  // one follows a failed attempt.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (FirstShardStat(router.socket_path(), "reconnects") < 2.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(FirstShardStat(router.socket_path(), "reconnects"), 2.0)
      << "a failed reconnect probe was never retried";
  shard_a = std::make_unique<ShardProcess>(std::vector<std::string>{}, port);
  ASSERT_EQ(shard_a->tcp_port(), port);
  WaitForUpCount(router.socket_path(), 2.0, 5000);
  EXPECT_GE(FirstShardStat(router.socket_path(), "marked_down"), 1.0);
}

TEST(RouterTest, StreamRequestsWithoutSessionAreRejectedLocally) {
  ShardProcess shard({});
  RouterProcess router({shard.tcp_port()});

  Client client(router.socket_path());
  ASSERT_TRUE(client.connected());
  JsonValue::Object feed;
  feed["symbols"] = "abc";
  EXPECT_EQ(ErrorCode(client.Call("stream_feed", feed)), "INVALID_ARGUMENT");
  // The connection survives the rejection and keeps serving.
  EXPECT_TRUE(client.Call("ping", {}).GetBool("ok", false));
}

TEST(RouterTest, AllShardsDownYieldsRouterOverloaded) {
  ShardProcess shard({});
  RouterProcess router({shard.tcp_port()});
  WaitForUpCount(router.socket_path(), 1.0, 5000);

  shard.Kill();
  WaitForUpCount(router.socket_path(), 0.0, 5000);

  Client client(router.socket_path());
  JsonValue::Object params;
  params["series"] = "abcabc";
  const JsonValue rejected = client.Call("mine", params);
  ASSERT_EQ(ErrorCode(rejected), "OVERLOADED") << rejected.Dump();
  const JsonValue* error = rejected.Find("error");
  EXPECT_GE(error->GetNumber("retry_after_ms", -1), 0.0)
      << "router-origin OVERLOADED must carry a retry hint";
  EXPECT_GE(RouterStat(router.socket_path(), "no_shard_rejections"), 1.0);
}

// The acceptance scenario: sessions streamed through the router survive the
// SIGKILL of their shard — the router re-routes, the successor thaws from
// the shared checkpoint directory, and stream_detect is byte-identical to a
// never-migrated control run on a standalone daemon.
TEST(RouterTest, LiveMigrationKeepsDetectByteIdentical) {
  const std::string checkpoints = UniqueDir();
  ShardProcess shard_a(
      {"--checkpoint_dir=" + checkpoints, "--checkpoint_each_feed"});
  ShardProcess shard_b(
      {"--checkpoint_dir=" + checkpoints, "--checkpoint_each_feed"});
  ShardProcess control({});  // plain daemon, never migrated
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  const std::string series = PeriodicSeries(240, 4);
  const std::string first_half = series.substr(0, 120);
  const std::string second_half = series.substr(120);

  // 8 sessions across 2 tenants: consistent hashing spreads them over both
  // shards, so some live on the shard about to die.
  struct Session {
    std::string tenant;
    std::string name;
  };
  std::vector<Session> sessions;
  for (int i = 0; i < 8; ++i) {
    sessions.push_back({i % 2 == 0 ? "tenant_a" : "tenant_b",
                        "stream" + std::to_string(i)});
  }

  Client control_client(control.socket_path());
  ASSERT_TRUE(control_client.connected());
  for (const Session& session : sessions) {
    JsonValue::Object open;
    open["tenant"] = session.tenant;
    open["session"] = session.name;
    open["max_period"] = std::size_t{16};
    open["alphabet_size"] = std::size_t{3};
    const JsonValue routed =
        CallWithRetry(router.socket_path(), "stream_open", open);
    ASSERT_TRUE(routed.GetBool("ok", false)) << routed.Dump();
    ASSERT_TRUE(control_client.Call("stream_open", open).GetBool("ok", false));

    JsonValue::Object feed;
    feed["tenant"] = session.tenant;
    feed["session"] = session.name;
    feed["symbols"] = first_half;
    feed["offset"] = std::size_t{0};
    const JsonValue fed =
        CallWithRetry(router.socket_path(), "stream_feed", feed);
    ASSERT_TRUE(fed.GetBool("ok", false)) << fed.Dump();
    ASSERT_TRUE(control_client.Call("stream_feed", feed).GetBool("ok", false));
  }

  // Kill one shard mid-stream. Its sessions migrate on next touch.
  shard_a.Kill();
  WaitForUpCount(router.socket_path(), 1.0, 5000);

  for (const Session& session : sessions) {
    JsonValue::Object feed;
    feed["tenant"] = session.tenant;
    feed["session"] = session.name;
    feed["symbols"] = second_half;
    feed["offset"] = first_half.size();
    const JsonValue fed =
        CallWithRetry(router.socket_path(), "stream_feed", feed);
    ASSERT_TRUE(fed.GetBool("ok", false))
        << session.tenant << "/" << session.name << ": " << fed.Dump();
    ASSERT_TRUE(control_client.Call("stream_feed", feed).GetBool("ok", false));
  }

  for (const Session& session : sessions) {
    JsonValue::Object detect;
    detect["tenant"] = session.tenant;
    detect["session"] = session.name;
    detect["threshold"] = 0.5;
    const JsonValue routed =
        CallWithRetry(router.socket_path(), "stream_detect", detect);
    ASSERT_TRUE(routed.GetBool("ok", false)) << routed.Dump();
    const JsonValue reference = control_client.Call("stream_detect", detect);
    ASSERT_TRUE(reference.GetBool("ok", false));
    EXPECT_EQ(routed.Dump(), reference.Dump())
        << "migrated detect must be byte-identical for " << session.tenant
        << "/" << session.name;
  }

  // The hash ring spreads 8 sessions over 2 shards, so the kill must have
  // migrated at least one.
  EXPECT_GE(RouterStat(router.socket_path(), "sessions_migrated"), 1.0);

  std::error_code ignored;
  std::filesystem::remove_all(checkpoints, ignored);
}

/// First session name ("z0", "z1", ...) whose routing key the router's
/// ring (shards named s0..s<n-1>, default virtual nodes) assigns to `want`
/// as primary owner. Replicates the router's placement exactly, so tests
/// can plant sessions on a chosen shard.
std::string SessionPrimariedOn(std::size_t shard_count,
                               const std::string& want,
                               const std::string& tenant) {
  serve::ShardMap ring;
  for (std::size_t i = 0; i < shard_count; ++i) {
    EXPECT_TRUE(ring.AddShard("s" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 1000; ++i) {
    const std::string name = "z" + std::to_string(i);
    if (ring.PickPrimary(store::JoinKey({tenant, name})) == want) {
      return name;
    }
  }
  ADD_FAILURE() << "no session name primaried on " << want;
  return "z0";
}

// stream_discard is the migration fence: it drops the shard's live copy of
// a session but never touches the checkpoint — the snapshot may already
// belong to the session's new owner.
TEST(RouterTest, DiscardDropsTheLiveCopyButNeverTheCheckpoint) {
  const std::string checkpoints = UniqueDir();
  ShardProcess shard(
      {"--checkpoint_dir=" + checkpoints, "--checkpoint_each_feed"});
  Client client(shard.socket_path());
  ASSERT_TRUE(client.connected());

  JsonValue::Object open;
  open["session"] = "disc0";
  open["max_period"] = std::size_t{16};
  open["alphabet_size"] = std::size_t{3};
  ASSERT_TRUE(client.Call("stream_open", open).GetBool("ok", false));
  JsonValue::Object feed;
  feed["session"] = "disc0";
  feed["symbols"] = PeriodicSeries(120, 3);
  feed["offset"] = std::size_t{0};
  ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));

  JsonValue::Object key;
  key["session"] = "disc0";
  const JsonValue discarded = client.Call("stream_discard", key);
  ASSERT_TRUE(discarded.GetBool("ok", false)) << discarded.Dump();
  EXPECT_EQ(discarded.Find("result")->GetNumber("size", 0), 120.0);
  EXPECT_TRUE(discarded.Find("result")->GetBool("discarded", false));

  // The live copy is gone...
  EXPECT_EQ(ErrorCode(client.Call("stream_discard", key)), "NOT_FOUND");
  feed["offset"] = std::size_t{120};
  EXPECT_EQ(ErrorCode(client.Call("stream_feed", feed)), "NOT_FOUND");

  // ...but the checkpoint survived: resume thaws the full session.
  JsonValue::Object resume;
  resume["session"] = "disc0";
  resume["resume"] = true;
  const JsonValue thawed = client.Call("stream_open", resume);
  ASSERT_TRUE(thawed.GetBool("ok", false)) << thawed.Dump();
  EXPECT_EQ(thawed.Find("result")->GetNumber("size", 0), 120.0);

  std::error_code ignored;
  std::filesystem::remove_all(checkpoints, ignored);
}

// A stream_open served by a fallback shard (the ring walked past its down
// primary) must pin the key there — otherwise the primary's recovery pulls
// later requests back to a shard without the live state and strands the
// fallback's copy as a stale duplicate.
TEST(RouterTest, FallbackPlacementPinsTheSession) {
  ShardProcess shard_a({});
  ShardProcess shard_b({});
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  const std::string session = SessionPrimariedOn(2, "s0", "default");
  shard_a.Kill();
  WaitForUpCount(router.socket_path(), 1.0, 5000);

  JsonValue::Object open;
  open["session"] = session;
  open["max_period"] = std::size_t{16};
  open["alphabet_size"] = std::size_t{3};
  const JsonValue opened =
      CallWithRetry(router.socket_path(), "stream_open", open);
  ASSERT_TRUE(opened.GetBool("ok", false)) << opened.Dump();
  EXPECT_GE(RouterStat(router.socket_path(), "fallback_pins"), 1.0);
  EXPECT_GE(RouterStat(router.socket_path(), "migration_pins"), 1.0);

  // Traffic follows the pin.
  JsonValue::Object feed;
  feed["session"] = session;
  feed["symbols"] = PeriodicSeries(120, 3);
  feed["offset"] = std::size_t{0};
  ASSERT_TRUE(CallWithRetry(router.socket_path(), "stream_feed", feed)
                  .GetBool("ok", false));
}

// A session its client abandons (no stream_close ever arrives) must not
// pin forever: after --pin_ttl_s idle seconds the router reaps the pin and
// best-effort discards the abandoned live copy on the pinned shard, so
// migrations_ stays bounded by the live working set.
TEST(RouterTest, IdleMigrationPinExpiresAfterTtl) {
  ShardProcess shard_a({});
  ShardProcess shard_b({});
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()},
                       {"--pin_ttl_s=1"});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  // Pin via fallback placement: the primary is down, so the open lands
  // (and pins) on the surviving shard.
  const std::string session = SessionPrimariedOn(2, "s0", "default");
  shard_a.Kill();
  WaitForUpCount(router.socket_path(), 1.0, 5000);
  JsonValue::Object open;
  open["session"] = session;
  open["max_period"] = std::size_t{16};
  open["alphabet_size"] = std::size_t{3};
  ASSERT_TRUE(CallWithRetry(router.socket_path(), "stream_open", open)
                  .GetBool("ok", false));
  ASSERT_GE(RouterStat(router.socket_path(), "migration_pins"), 1.0);

  // Abandon the session and wait out the TTL plus one sweep period.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline &&
         RouterStat(router.socket_path(), "pins_expired") < 1.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(RouterStat(router.socket_path(), "pins_expired"), 1.0);
  EXPECT_EQ(RouterStat(router.socket_path(), "migration_pins"), 0.0);
  EXPECT_GE(RouterStat(router.socket_path(), "discards_sent"), 1.0);
}

// A health flap can leave two live copies of one session: an open that
// landed on a fallback shard while the primary was briefly down, then the
// stream repaired back onto the recovered primary. The stale copy must not
// capture traffic after the primary dies for real — a feed that trips on
// its mismatched size makes the router discard the stale copy, thaw the
// authoritative checkpoint, and replay; detect output stays byte-identical
// to a never-migrated control daemon.
TEST(RouterTest, StaleDuplicateCopyIsDiscardedAndRepaired) {
  const std::string checkpoints = UniqueDir();
  ShardProcess shard_a(
      {"--checkpoint_dir=" + checkpoints, "--checkpoint_each_feed"});
  ShardProcess shard_b(
      {"--checkpoint_dir=" + checkpoints, "--checkpoint_each_feed"});
  ShardProcess control({});
  RouterProcess router({shard_a.tcp_port(), shard_b.tcp_port()});
  WaitForUpCount(router.socket_path(), 2.0, 5000);

  const std::string session = SessionPrimariedOn(2, "s0", "default");
  const std::string series = PeriodicSeries(240, 4);
  const std::string first_half = series.substr(0, 120);
  const std::string second_half = series.substr(120);

  JsonValue::Object open;
  open["session"] = session;
  open["max_period"] = std::size_t{16};
  open["alphabet_size"] = std::size_t{3};

  Client control_client(control.socket_path());
  ASSERT_TRUE(control_client.connected());
  ASSERT_TRUE(control_client.Call("stream_open", open).GetBool("ok", false));
  ASSERT_TRUE(CallWithRetry(router.socket_path(), "stream_open", open)
                  .GetBool("ok", false));

  // Plant the zombie: the same session opened directly on the non-primary
  // shard — exactly what a transient primary mark-down during the open
  // used to produce (before the first feed, so the authoritative feed
  // checkpoints land after its empty snapshot).
  Client zombie_planter(shard_b.socket_path());
  ASSERT_TRUE(zombie_planter.connected());
  ASSERT_TRUE(zombie_planter.Call("stream_open", open).GetBool("ok", false));

  JsonValue::Object feed;
  feed["session"] = session;
  feed["symbols"] = first_half;
  feed["offset"] = std::size_t{0};
  ASSERT_TRUE(control_client.Call("stream_feed", feed).GetBool("ok", false));
  ASSERT_TRUE(CallWithRetry(router.socket_path(), "stream_feed", feed)
                  .GetBool("ok", false));

  // The primary dies; the ring now lands the key on the shard holding the
  // stale size-0 duplicate, whose size cannot match the client's offset.
  shard_a.Kill();
  WaitForUpCount(router.socket_path(), 1.0, 5000);

  feed["symbols"] = second_half;
  feed["offset"] = first_half.size();
  const JsonValue fed =
      CallWithRetry(router.socket_path(), "stream_feed", feed);
  ASSERT_TRUE(fed.GetBool("ok", false))
      << "feed must repair past the stale duplicate: " << fed.Dump();
  ASSERT_TRUE(control_client.Call("stream_feed", feed).GetBool("ok", false));

  JsonValue::Object detect;
  detect["session"] = session;
  detect["threshold"] = 0.5;
  const JsonValue routed =
      CallWithRetry(router.socket_path(), "stream_detect", detect);
  ASSERT_TRUE(routed.GetBool("ok", false)) << routed.Dump();
  const JsonValue reference = control_client.Call("stream_detect", detect);
  ASSERT_TRUE(reference.GetBool("ok", false));
  EXPECT_EQ(routed.Dump(), reference.Dump())
      << "repaired detect must be byte-identical";
  EXPECT_GE(RouterStat(router.socket_path(), "sessions_migrated"), 1.0);

  std::error_code ignored;
  std::filesystem::remove_all(checkpoints, ignored);
}

}  // namespace
}  // namespace periodica::tools
