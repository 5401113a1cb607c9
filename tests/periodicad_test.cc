// End-to-end tests for periodicad: spawn the real daemon binary, speak the
// wire protocol over its Unix socket, and assert the robustness contracts
// of docs/SERVING.md — exact overload accounting (no silent drops), upfront
// memory-estimate rejection, watchdog cancellation, and SIGTERM draining
// that checkpoints streaming sessions and exits 0.

#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../tools/unix_socket.h"
#include "periodica/util/json.h"

namespace periodica::tools {
namespace {

using util::JsonValue;

std::string UniqueDir() {
  static std::atomic<int> counter{0};
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("periodicad_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter.fetch_add(1)));
  std::filesystem::create_directories(dir);
  return dir;
}

/// The daemon under test, as a child process. Kills with SIGKILL on
/// destruction unless the test already waited for it.
class DaemonProcess {
 public:
  explicit DaemonProcess(std::vector<std::string> extra_args) {
    dir_ = UniqueDir();
    socket_ = dir_ + "/d.sock";
    std::vector<std::string> args = {PERIODICAD_PATH, "--socket=" + socket_};
    for (std::string& arg : extra_args) args.push_back(std::move(arg));
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // Quiet the child's stderr chatter unless a test fails mysteriously.
      ::execv(PERIODICAD_PATH, argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    // Wait for the socket to accept connections.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (ConnectUnix(socket_).ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "daemon did not come up on " << socket_;
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  /// Sends SIGTERM and returns the daemon's exit code (-1 on abnormal
  /// death). Marks the process reaped.
  int TerminateAndWait() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  [[nodiscard]] const std::string& socket_path() const { return socket_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
};

/// One connection to the daemon; Call sends a request and reads the reply.
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

/// result.queue.<key> from a stats response, or `fallback` when any level
/// is missing (e.g. the call failed).
double QueueStat(const JsonValue& stats, const std::string& key,
                 double fallback) {
  const JsonValue* result = stats.Find("result");
  if (result == nullptr) return fallback;
  const JsonValue* queue = result->Find("queue");
  if (queue == nullptr) return fallback;
  return queue->GetNumber(key, fallback);
}

/// Polls `stats` on `client` until one mining job is on a worker.
void WaitForRunningJob(Client& client) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (QueueStat(client.Call("stats", {}), "running", 0.0) >= 1.0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "no job reached a worker in time";
}

std::string PeriodicSeries(std::size_t n, std::size_t period) {
  std::string series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(static_cast<char>('a' + (i % period) % 3));
  }
  return series;
}

TEST(PeriodicadTest, PingStatsAndMine) {
  DaemonProcess daemon({});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());

  const JsonValue pong = client.Call("ping", {});
  EXPECT_TRUE(pong.GetBool("ok", false)) << pong.Dump();

  JsonValue::Object params;
  params["series"] = PeriodicSeries(120, 3);
  params["threshold"] = 0.9;
  const JsonValue mined = client.Call("mine", params);
  ASSERT_TRUE(mined.GetBool("ok", false)) << mined.Dump();
  const JsonValue* result = mined.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->GetBool("partial", true));
  const JsonValue* summaries = result->Find("summaries");
  ASSERT_NE(summaries, nullptr);
  bool found_period_3 = false;
  for (const JsonValue& summary : summaries->as_array()) {
    if (summary.GetNumber("period", 0) == 3.0) found_period_3 = true;
  }
  EXPECT_TRUE(found_period_3) << mined.Dump();

  // The worker bumps `completed` just after the response is handed to the
  // connection thread, so poll briefly instead of asserting instantly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  double completed = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    const JsonValue stats = client.Call("stats", {});
    ASSERT_TRUE(stats.GetBool("ok", false));
    completed = QueueStat(stats, "completed", -1);
    if (completed >= 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(completed, 1.0);
}

TEST(PeriodicadTest, MalformedAndUnknownRequestsAreStructuredErrors) {
  DaemonProcess daemon({});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(ErrorCode(client.Call("no_such_method", {})), "INVALID_ARGUMENT");
  JsonValue::Object params;
  params["series"] = "abc!?$";
  EXPECT_EQ(ErrorCode(client.Call("mine", params)), "INVALID_ARGUMENT");
  // The connection survives garbage and keeps serving.
  EXPECT_TRUE(client.Call("ping", {}).GetBool("ok", false));
}

// The ISSUE's acceptance scenario: 1 worker, 2 queue slots, a 16-request
// burst while the worker is pinned. Every request must come back either
// accepted-and-completed or OVERLOADED-with-retry-hint; the sum accounts
// for all 16.
TEST(PeriodicadTest, OverloadBurstAccountsEveryRequest) {
  DaemonProcess daemon({"--workers=1", "--max_queue_depth=2"});
  ASSERT_TRUE(Client(daemon.socket_path()).connected());

  // Pin the worker from a dedicated connection (response arrives later).
  std::thread pin([&daemon] {
    Client client(daemon.socket_path());
    JsonValue::Object params;
    params["ms"] = std::size_t{3000};
    const JsonValue response = client.Call("sleep", params);
    EXPECT_TRUE(response.GetBool("ok", false));
  });
  // Wait until the sleep job occupies the worker.
  Client probe(daemon.socket_path());
  WaitForRunningJob(probe);

  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> burst;
  burst.reserve(16);
  for (int i = 0; i < 16; ++i) {
    burst.emplace_back([&daemon, &accepted, &rejected] {
      Client client(daemon.socket_path());
      JsonValue::Object params;
      params["ms"] = std::size_t{1};
      const JsonValue response = client.Call("sleep", params);
      if (response.GetBool("ok", false)) {
        accepted.fetch_add(1);
        return;
      }
      ASSERT_EQ(ErrorCode(response), "OVERLOADED") << response.Dump();
      const JsonValue* error = response.Find("error");
      EXPECT_GE(error->GetNumber("retry_after_ms", -1), 10.0);
      EXPECT_EQ(error->GetBool("draining", true), false);
      rejected.fetch_add(1);
    });
  }
  for (std::thread& thread : burst) thread.join();
  pin.join();

  EXPECT_EQ(accepted.load() + rejected.load(), 16) << "no silent drops";
  EXPECT_EQ(accepted.load(), 2) << "exactly the two queue slots";
  EXPECT_EQ(rejected.load(), 14);

  // All three accepted jobs (pin + 2 slots) have responded, but the worker
  // bumps `completed` just after handing each response over — poll briefly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  JsonValue stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = probe.Call("stats", {});
    if (QueueStat(stats, "completed", -1) >= 3.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(QueueStat(stats, "completed", -1), 3.0) << stats.Dump();
  EXPECT_EQ(QueueStat(stats, "rejected", -1), 14.0);
}

TEST(PeriodicadTest, OversizedRequestRejectedUpfrontWithEstimate) {
  DaemonProcess daemon({"--request_budget_bytes=20000"});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  JsonValue::Object params;
  params["series"] = PeriodicSeries(30000, 7);
  params["engine"] = "fft";
  const JsonValue response = client.Call("mine", params);
  ASSERT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(ErrorCode(response), "RESOURCE_EXHAUSTED");
  const std::string message =
      response.Find("error")->GetString("message", "");
  EXPECT_NE(message.find("estimated peak memory"), std::string::npos)
      << message;
  EXPECT_NE(message.find("indicators"), std::string::npos)
      << "estimate breakdown missing: " << message;
  // The daemon is fine afterwards.
  EXPECT_TRUE(client.Call("ping", {}).GetBool("ok", false));
}

TEST(PeriodicadTest, WatchdogCancelsWedgedJobs) {
  DaemonProcess daemon({"--wedge_timeout_ms=200", "--watchdog_interval_ms=50"});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());
  JsonValue::Object params;
  params["ms"] = std::size_t{30000};
  const auto start = std::chrono::steady_clock::now();
  const JsonValue response = client.Call("sleep", params);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  const JsonValue* result = response.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->GetBool("partial", false))
      << "watchdog cancellation must surface as a partial result";
  EXPECT_LT(elapsed.count(), 10000) << "the 30 s job must be cut short";

  const JsonValue stats = client.Call("stats", {});
  const JsonValue* stats_result = stats.Find("result");
  ASSERT_NE(stats_result, nullptr);
  EXPECT_GE(stats_result->GetNumber("watchdog_cancels", 0), 1.0);
}

TEST(PeriodicadTest, SigtermDrainsInFlightWorkAndExitsZero) {
  DaemonProcess daemon({"--workers=1"});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());

  std::atomic<bool> got_response{false};
  std::thread in_flight([&daemon, &got_response] {
    Client slow(daemon.socket_path());
    JsonValue::Object params;
    params["ms"] = std::size_t{800};
    const JsonValue response = slow.Call("sleep", params);
    EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
    EXPECT_FALSE(response.Find("result")->GetBool("partial", true))
        << "drain must let the job finish, not cancel it";
    got_response.store(true);
  });
  // Make sure the job is on the worker, then TERM the daemon under it.
  WaitForRunningJob(client);
  EXPECT_EQ(daemon.TerminateAndWait(), 0) << "graceful drain exits 0";
  in_flight.join();
  EXPECT_TRUE(got_response.load())
      << "the in-flight response must be delivered before exit";
}

TEST(PeriodicadTest, StreamingSessionCheckpointsOnDrainAndResumes) {
  const std::string series = PeriodicSeries(600, 5);
  const std::string first_half = series.substr(0, 300);
  const std::string second_half = series.substr(300);

  JsonValue::Object open;
  open["session"] = "s1";
  open["max_period"] = std::size_t{32};
  open["alphabet_size"] = std::size_t{3};

  // Uninterrupted reference run.
  std::string reference;
  {
    DaemonProcess daemon({});
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.Call("stream_open", open).GetBool("ok", false));
    JsonValue::Object feed;
    feed["session"] = "s1";
    feed["symbols"] = series;
    ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));
    JsonValue::Object detect;
    detect["session"] = "s1";
    detect["threshold"] = 0.5;
    const JsonValue detected = client.Call("stream_detect", detect);
    ASSERT_TRUE(detected.GetBool("ok", false)) << detected.Dump();
    reference = detected.Dump();
  }

  // Interrupted run: feed half, SIGTERM (drain checkpoints the session),
  // restart with the same checkpoint dir, resume, feed the rest.
  const std::string dir = UniqueDir();
  {
    DaemonProcess daemon({"--checkpoint_dir=" + dir});
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.Call("stream_open", open).GetBool("ok", false));
    JsonValue::Object feed;
    feed["session"] = "s1";
    feed["symbols"] = first_half;
    ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));
    ASSERT_EQ(daemon.TerminateAndWait(), 0);
    ASSERT_TRUE(std::filesystem::exists(dir + "/s1.pchk"))
        << "drain must checkpoint the open session";
  }
  {
    DaemonProcess daemon({"--checkpoint_dir=" + dir});
    Client client(daemon.socket_path());
    JsonValue::Object resume;
    resume["session"] = "s1";
    resume["resume"] = true;
    const JsonValue reopened = client.Call("stream_open", resume);
    ASSERT_TRUE(reopened.GetBool("ok", false)) << reopened.Dump();
    EXPECT_EQ(reopened.Find("result")->GetNumber("size", 0), 300.0);
    JsonValue::Object feed;
    feed["session"] = "s1";
    feed["symbols"] = second_half;
    ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));
    JsonValue::Object detect;
    detect["session"] = "s1";
    detect["threshold"] = 0.5;
    const JsonValue detected = client.Call("stream_detect", detect);
    ASSERT_TRUE(detected.GetBool("ok", false));
    EXPECT_EQ(detected.Dump(), reference)
        << "resume through drain must be byte-identical to uninterrupted";
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// Regression: with --checkpoint_each_feed, a failed per-open checkpoint
// used to self-deadlock the daemon — the failure path called Close() while
// the checkpoint's Handle still held the session mutex, wedging the loop
// thread forever. The open must come back as an error, the daemon must
// stay responsive, and the half-open session must be gone.
TEST(PeriodicadTest, FailedOpenCheckpointRespondsAndClosesTheSession) {
  const std::string dir = UniqueDir();
  DaemonProcess daemon({"--checkpoint_dir=" + dir, "--checkpoint_each_feed",
                        "--faults=atomic_file/write:1"});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());

  JsonValue::Object open;
  open["session"] = "s1";
  open["max_period"] = std::size_t{16};
  open["alphabet_size"] = std::size_t{3};
  const JsonValue failed = client.Call("stream_open", open);
  EXPECT_FALSE(failed.GetBool("ok", true)) << failed.Dump();
  EXPECT_EQ(ErrorCode(failed), "IO_ERROR") << failed.Dump();

  // Deadlock would hang this ping (session bookkeeping runs on the loop
  // thread). The fault is consumed, so the retried open — same name, which
  // the failure path must have closed — now succeeds end to end.
  EXPECT_TRUE(client.Call("ping", {}).GetBool("ok", false));
  const JsonValue reopened = client.Call("stream_open", open);
  EXPECT_TRUE(reopened.GetBool("ok", false)) << reopened.Dump();

  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// The event-loop acceptance criterion: the daemon's thread count is
// O(worker pool), not O(connections). With 1000 connections held open, the
// process may run the loop thread, the workers, the watchdog and a few
// runtime threads — nowhere near 1000.
TEST(PeriodicadTest, ThreadCountStaysFlatWithAThousandConnections) {
  DaemonProcess daemon({"--workers=2"});
  Client control(daemon.socket_path());
  ASSERT_TRUE(control.connected());

  std::vector<FdHandle> held;
  held.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    Result<FdHandle> fd = ConnectUnix(daemon.socket_path());
    for (int retry = 0; !fd.ok() && retry < 50; ++retry) {
      // The listen backlog can fill while the loop is busy accepting.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      fd = ConnectUnix(daemon.socket_path());
    }
    ASSERT_TRUE(fd.ok()) << "connection " << i << ": "
                         << fd.status().ToString();
    held.push_back(std::move(fd.value()));
  }

  // Wait until the loop has registered (nearly) all of them, then check the
  // kernel's thread count for the daemon process.
  double connections = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const JsonValue stats = control.Call("stats", {});
    const JsonValue* result = stats.Find("result");
    ASSERT_NE(result, nullptr) << stats.Dump();
    connections = result->GetNumber("connections", 0);
    if (connections >= 1001.0) break;  // 1000 held + the control client
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(connections, 1001.0);

  std::ifstream status("/proc/" + std::to_string(daemon.pid()) + "/status");
  ASSERT_TRUE(status.is_open());
  int threads = -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      threads = std::stoi(line.substr(8));
      break;
    }
  }
  ASSERT_GT(threads, 0);
  EXPECT_LE(threads, 8) << "thread count must be O(workers), got " << threads
                        << " with 1000 open connections";

  // The daemon still serves through the crowd.
  EXPECT_TRUE(control.Call("ping", {}).GetBool("ok", false));
}

// Tenant quotas travel the wire: past the per-tenant session cap the daemon
// answers QUOTA_EXCEEDED with a retry hint, other tenants are untouched,
// and the rejection is visible in per-tenant stats.
TEST(PeriodicadTest, TenantQuotaRejectsWithRetryHintAndShowsInStats) {
  DaemonProcess daemon(
      {"--max_sessions_per_tenant=2", "--quota_retry_after_ms=123"});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());

  auto open = [&](const std::string& tenant, const std::string& session) {
    JsonValue::Object params;
    params["tenant"] = tenant;
    params["session"] = session;
    params["max_period"] = std::size_t{16};
    params["alphabet_size"] = std::size_t{3};
    return client.Call("stream_open", params);
  };
  ASSERT_TRUE(open("acme", "s1").GetBool("ok", false));
  ASSERT_TRUE(open("acme", "s2").GetBool("ok", false));

  const JsonValue denied = open("acme", "s3");
  ASSERT_FALSE(denied.GetBool("ok", true)) << denied.Dump();
  EXPECT_EQ(ErrorCode(denied), "QUOTA_EXCEEDED");
  const JsonValue* error = denied.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetNumber("retry_after_ms", -1), 123.0);
  EXPECT_EQ(error->GetString("tenant", ""), "acme");

  // Another tenant (and the default tenant) are isolated from acme's cap.
  EXPECT_TRUE(open("beta", "s1").GetBool("ok", false));
  JsonValue::Object untenanted;
  untenanted["session"] = "s1";
  untenanted["max_period"] = std::size_t{16};
  untenanted["alphabet_size"] = std::size_t{3};
  EXPECT_TRUE(client.Call("stream_open", untenanted).GetBool("ok", false));

  // Same (tenant, session) key spaces are disjoint: acme@s1, beta@s1 and
  // default@s1 coexist; feeding one does not touch the others.
  JsonValue::Object feed;
  feed["tenant"] = "beta";
  feed["session"] = "s1";
  feed["symbols"] = "abcabc";
  ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));

  const JsonValue stats = client.Call("stats", {});
  const JsonValue* result = stats.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* tenants = result->Find("tenants");
  ASSERT_NE(tenants, nullptr) << stats.Dump();
  const JsonValue* acme = tenants->Find("acme");
  ASSERT_NE(acme, nullptr) << stats.Dump();
  EXPECT_EQ(acme->GetNumber("sessions", -1), 2.0);
  EXPECT_GE(acme->GetNumber("quota_rejections", -1), 1.0);
  const JsonValue* beta = tenants->Find("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->GetNumber("quota_rejections", -1), 0.0);
  EXPECT_EQ(beta->GetNumber("feeds", -1), 1.0);
  EXPECT_EQ(beta->GetNumber("symbols", -1), 6.0);

  EXPECT_EQ(daemon.TerminateAndWait(), 0);
}

// Eviction end to end: a budgeted daemon under per-tenant memory pressure
// evicts cold sessions to checkpoints and thaws them on the next feed, with
// the counters visible in session_table stats.
TEST(PeriodicadTest, BudgetPressureEvictsAndThawsThroughTheWire) {
  const std::string dir = UniqueDir();
  // Room for roughly one ~100 KB session per tenant: the second open must
  // evict the first instead of failing.
  DaemonProcess daemon({"--checkpoint_dir=" + dir,
                        "--tenant_budget_bytes=150000"});
  Client client(daemon.socket_path());
  ASSERT_TRUE(client.connected());

  auto request = [&](const std::string& method, const std::string& session,
                     JsonValue::Object params) {
    params["tenant"] = "acme";
    params["session"] = session;
    return client.Call(method, std::move(params));
  };
  JsonValue::Object geometry;
  geometry["max_period"] = std::size_t{16};
  geometry["alphabet_size"] = std::size_t{3};
  ASSERT_TRUE(request("stream_open", "hot", geometry).GetBool("ok", false));
  JsonValue::Object feed;
  feed["symbols"] = "abcabcabcabc";
  ASSERT_TRUE(request("stream_feed", "hot", feed).GetBool("ok", false));

  const JsonValue second = request("stream_open", "cold", geometry);
  ASSERT_TRUE(second.GetBool("ok", false))
      << "eviction should make room, not reject: " << second.Dump();
  EXPECT_TRUE(std::filesystem::exists(dir + "/acme@hot.pchk"))
      << "the idle session must have been checkpointed out";

  // Feeding the evicted session thaws it transparently, same state.
  const JsonValue thawed = request("stream_feed", "hot", feed);
  ASSERT_TRUE(thawed.GetBool("ok", false)) << thawed.Dump();
  EXPECT_EQ(thawed.Find("result")->GetNumber("size", 0), 24.0);

  const JsonValue stats = client.Call("stats", {});
  const JsonValue* table = stats.Find("result")->Find("session_table");
  ASSERT_NE(table, nullptr) << stats.Dump();
  EXPECT_GE(table->GetNumber("evictions", 0), 1.0);
  EXPECT_GE(table->GetNumber("thaws", 0), 1.0);

  EXPECT_EQ(daemon.TerminateAndWait(), 0);
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

/// Runs the real periodica_client binary against `daemon` and returns its
/// exit code (-1 on abnormal death). Stdout is silenced — the tests assert
/// on exit codes, the shell contract scripts branch on.
int RunClient(const DaemonProcess& daemon,
              const std::vector<std::string>& extra_args) {
  std::vector<std::string> args = {PERIODICA_CLIENT_PATH,
                                   "--socket=" + daemon.socket_path()};
  for (const std::string& arg : extra_args) args.push_back(arg);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::freopen("/dev/null", "w", stdout);
    ::execv(PERIODICA_CLIENT_PATH, argv.data());
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Satellite #1: the client retries structured OVERLOADED rejections with
// backoff. job_queue/enqueue:1 makes the daemon lose exactly the first
// admitted job (surfaced as OVERLOADED with a retry hint), so a client
// allowed one retry succeeds where a fail-fast client exits 4.
TEST(PeriodicadTest, ClientRetriesOverloadedRejectionsWithBackoff) {
  {
    DaemonProcess daemon({"--faults=job_queue/enqueue:1"});
    EXPECT_EQ(RunClient(daemon, {"--method=sleep", "--params={\"ms\":1}",
                                 "--max_retries=2"}),
              0)
        << "one retry must absorb the single injected enqueue fault";
  }
  {
    DaemonProcess daemon({"--faults=job_queue/enqueue:1"});
    EXPECT_EQ(RunClient(daemon, {"--method=sleep", "--params={\"ms\":1}"}),
              4)
        << "the default is fail-fast: surface the rejection as exit 4";
  }
}

// Tentpole serving path #1: a mine request that names its series is cached
// in the durable store and answered from it on repeat — including across a
// full daemon restart.
TEST(PeriodicadTest, MineResultCacheHitsRepeatQueriesAcrossRestart) {
  const std::string dir = UniqueDir();
  JsonValue::Object params;
  params["series"] = PeriodicSeries(120, 3);
  params["series_id"] = "sensor-7";
  params["threshold"] = 0.9;

  std::string first_result;
  {
    DaemonProcess daemon({"--store_dir=" + dir + "/store"});
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.connected());
    const JsonValue first = client.Call("mine", params);
    ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
    EXPECT_FALSE(first.Find("result")->GetBool("cached", false))
        << "first query must be computed, not served from the cache";
    first_result = first.Find("result")->Dump();

    const JsonValue second = client.Call("mine", params);
    ASSERT_TRUE(second.GetBool("ok", false)) << second.Dump();
    EXPECT_TRUE(second.Find("result")->GetBool("cached", false))
        << second.Dump();

    // A different config hashes to a different key — no false sharing.
    JsonValue::Object other = params;
    other["threshold"] = 0.5;
    const JsonValue recomputed = client.Call("mine", other);
    ASSERT_TRUE(recomputed.GetBool("ok", false));
    EXPECT_FALSE(recomputed.Find("result")->GetBool("cached", false));

    const JsonValue stats = client.Call("stats", {});
    const JsonValue* store = stats.Find("result")->Find("store");
    ASSERT_NE(store, nullptr) << stats.Dump();
    EXPECT_TRUE(store->GetBool("enabled", false));
    EXPECT_EQ(store->GetNumber("mine_cache_hits", -1), 1.0);
    EXPECT_EQ(store->GetNumber("mine_cache_misses", -1), 2.0);
    EXPECT_GE(store->GetNumber("wal_bytes", 0), 1.0);
    EXPECT_EQ(daemon.TerminateAndWait(), 0);
  }
  {
    // The cache is durable: the restarted daemon recovers it from the WAL
    // and serves the repeat query without recomputing.
    DaemonProcess daemon({"--store_dir=" + dir + "/store"});
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.connected());
    const JsonValue cached = client.Call("mine", params);
    ASSERT_TRUE(cached.GetBool("ok", false)) << cached.Dump();
    EXPECT_TRUE(cached.Find("result")->GetBool("cached", false))
        << "the cache must survive a restart";
    JsonValue stripped = cached;
    stripped.mutable_object()["result"].mutable_object().erase("cached");
    EXPECT_EQ(stripped.Find("result")->Dump(), first_result)
        << "the cached answer must be byte-identical to the computed one";
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// Tentpole serving path #2: with --store_dir (and no --checkpoint_dir) the
// drain checkpoint goes through the KV store's WAL, and a session resumed
// after a full daemon restart detects byte-identically to an uninterrupted
// run.
TEST(PeriodicadTest, StoreBackedSessionsThawBitIdenticalAfterRestart) {
  const std::string series = PeriodicSeries(600, 5);
  const std::string first_half = series.substr(0, 300);
  const std::string second_half = series.substr(300);

  JsonValue::Object open;
  open["session"] = "s1";
  open["max_period"] = std::size_t{32};
  open["alphabet_size"] = std::size_t{3};

  std::string reference;
  {
    DaemonProcess daemon({});
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.Call("stream_open", open).GetBool("ok", false));
    JsonValue::Object feed;
    feed["session"] = "s1";
    feed["symbols"] = series;
    ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));
    JsonValue::Object detect;
    detect["session"] = "s1";
    detect["threshold"] = 0.5;
    const JsonValue detected = client.Call("stream_detect", detect);
    ASSERT_TRUE(detected.GetBool("ok", false)) << detected.Dump();
    reference = detected.Dump();
  }

  const std::string dir = UniqueDir();
  {
    DaemonProcess daemon({"--store_dir=" + dir + "/store"});
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.Call("stream_open", open).GetBool("ok", false));
    JsonValue::Object feed;
    feed["session"] = "s1";
    feed["symbols"] = first_half;
    ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));
    ASSERT_EQ(daemon.TerminateAndWait(), 0);
    // Durability went through the store, not loose checkpoint files.
    ASSERT_TRUE(std::filesystem::exists(dir + "/store/wal.log"));
  }
  {
    DaemonProcess daemon({"--store_dir=" + dir + "/store"});
    Client client(daemon.socket_path());
    JsonValue::Object resume;
    resume["session"] = "s1";
    resume["resume"] = true;
    const JsonValue reopened = client.Call("stream_open", resume);
    ASSERT_TRUE(reopened.GetBool("ok", false)) << reopened.Dump();
    EXPECT_EQ(reopened.Find("result")->GetNumber("size", 0), 300.0);
    JsonValue::Object feed;
    feed["session"] = "s1";
    feed["symbols"] = second_half;
    ASSERT_TRUE(client.Call("stream_feed", feed).GetBool("ok", false));
    JsonValue::Object detect;
    detect["session"] = "s1";
    detect["threshold"] = 0.5;
    const JsonValue detected = client.Call("stream_detect", detect);
    ASSERT_TRUE(detected.GetBool("ok", false));
    EXPECT_EQ(detected.Dump(), reference)
        << "store-backed resume must be byte-identical to uninterrupted";

    // The recovery that made this possible is visible in stats.
    const JsonValue stats = client.Call("stats", {});
    const JsonValue* store = stats.Find("result")->Find("store");
    ASSERT_NE(store, nullptr);
    EXPECT_GE(store->GetNumber("recoveries", 0), 1.0);
    EXPECT_EQ(store->GetNumber("scrub_errors", -1), 0.0);
    // Satellite #2: the eviction-pressure histogram rides along in stats.
    const JsonValue* table = stats.Find("result")->Find("session_table");
    ASSERT_NE(table, nullptr);
    const JsonValue* buckets = table->Find("idle_age_buckets");
    ASSERT_NE(buckets, nullptr) << stats.Dump();
    ASSERT_EQ(buckets->as_array().size(), 5u);
    double total = 0;
    for (const JsonValue& bucket : buckets->as_array()) {
      total += bucket.as_number();
    }
    EXPECT_EQ(total, 1.0) << "one resident idle session: " << stats.Dump();
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// A daemon checkpoints to exactly one sink and reads only what it writes,
// so asking for both backends is a usage error at startup, not a silent
// preference for one of them.
TEST(PeriodicadTest, StoreDirAndCheckpointDirAreMutuallyExclusive) {
  const std::string dir = UniqueDir();
  std::vector<std::string> args = {
      PERIODICAD_PATH, "--socket=" + dir + "/d.sock",
      "--store_dir=" + dir + "/store", "--checkpoint_dir=" + dir + "/ckpt"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::string log = dir + "/stderr.log";
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::freopen(log.c_str(), "w", stderr);
    ::execv(PERIODICAD_PATH, argv.data());
    ::_exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::ifstream in(log);
  const std::string message((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(message.find("--store_dir"), std::string::npos) << message;
  EXPECT_NE(message.find("--checkpoint_dir"), std::string::npos) << message;
  EXPECT_FALSE(std::filesystem::exists(dir + "/store"))
      << "the daemon must refuse before opening either backend";
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

TEST(PeriodicadTest, FaultInjectedReadsDropConnectionsNotTheDaemon) {
  // Every read fails: each connection is dropped before serving a request,
  // exactly as if the peer vanished mid-line. The daemon itself must keep
  // accepting, survive the storm, and still drain cleanly on SIGTERM.
  DaemonProcess daemon({"--faults=server/read:1:repeat"});
  for (int i = 0; i < 5; ++i) {
    Client client(daemon.socket_path());
    ASSERT_TRUE(client.connected()) << "accept must keep working";
    EXPECT_TRUE(client.Call("ping", {}).is_null())
        << "the injected read failure drops the connection";
  }
  EXPECT_EQ(daemon.TerminateAndWait(), 0);
}

}  // namespace
}  // namespace periodica::tools
