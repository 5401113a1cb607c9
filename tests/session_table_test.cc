#include "periodica/serve/session_table.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/core/streaming_detector.h"
#include "periodica/serve/checkpoint_sink.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/rng.h"

namespace periodica::serve {
namespace {

class SessionTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "session_table_test_" +
           std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// One resident session costs this much, per the estimator the table
  /// charges with (max_period=16, sigma=3, default block size).
  static std::size_t SessionBytes() {
    StreamingPeriodDetector::Options options;
    options.max_period = 16;
    return StreamingPeriodDetector::EstimateMemoryBytes(3, options);
  }

  /// Table options checkpointing to `sink`, which the fixture owns so it
  /// outlives every table of the test.
  SessionTable::Options SinkOptions(std::unique_ptr<CheckpointSink> sink) {
    SessionTable::Options options;
    options.sink = sinks_.emplace_back(std::move(sink)).get();
    return options;
  }

  SessionTable::Options BaseOptions(const std::string& dir) {
    return SinkOptions(MakeDirectoryCheckpointSink(dir));
  }

  static Result<SessionTable::OpenResult> OpenSmall(SessionTable* table,
                                                    const std::string& tenant,
                                                    const std::string& id,
                                                    SessionTable::Rejection*
                                                        rejection) {
    StreamingPeriodDetector::Options options;
    options.max_period = 16;
    return table->Open(tenant, id, /*alphabet_size=*/3, options,
                       /*resume=*/false, rejection);
  }

  static void Feed(SessionTable* table, const std::string& tenant,
                   const std::string& id, const std::string& symbols) {
    SessionTable::Rejection rejection;
    Result<SessionTable::Handle> handle =
        table->Acquire(tenant, id, &rejection);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    for (char c : symbols) {
      handle.value().detector()->Append(
          static_cast<SymbolId>(c - 'a'));
    }
  }

  std::string dir_;
  std::vector<std::unique_ptr<CheckpointSink>> sinks_;
};

TEST_F(SessionTableTest, OpenAcquireCloseLifecycle) {
  SessionTable table(BaseOptions(dir_));
  SessionTable::Rejection rejection;
  Result<SessionTable::OpenResult> opened =
      OpenSmall(&table, "acme", "s1", &rejection);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().size, 0u);
  EXPECT_TRUE(table.Contains("acme", "s1"));
  EXPECT_FALSE(table.Contains("other", "s1"));  // tenants are namespaces

  Feed(&table, "acme", "s1", "abcabcabc");
  {
    Result<SessionTable::Handle> handle =
        table.Acquire("acme", "s1", &rejection);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle.value().detector()->size(), 9u);
  }

  // Duplicate open fails; unknown sessions are NotFound.
  EXPECT_TRUE(OpenSmall(&table, "acme", "s1", &rejection)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      table.Acquire("acme", "nope", &rejection).status().IsNotFound());
  EXPECT_TRUE(table.Close("acme", "nope", false).status().IsNotFound());

  Result<SessionTable::CloseResult> closed = table.Close("acme", "s1", true);
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed.value().size, 9u);
  EXPECT_EQ(closed.value().checkpoint_path, dir_ + "/acme@s1.pchk");
  EXPECT_TRUE(std::filesystem::exists(closed.value().checkpoint_path));
  EXPECT_FALSE(table.Contains("acme", "s1"));
}

TEST_F(SessionTableTest, DefaultTenantKeepsLegacyCheckpointName) {
  // On the directory sink the default tenant keeps the pre-tenant
  // `<id>.pchk` file; any other tenant gets `<tenant>@<id>.pchk`.
  SessionTable table(BaseOptions(dir_));
  SessionTable::Rejection rejection;
  for (const std::string tenant : {"default", "acme"}) {
    ASSERT_TRUE(OpenSmall(&table, tenant, "s1", &rejection).ok());
    Result<SessionTable::CloseResult> closed =
        table.Close(tenant, "s1", /*checkpoint=*/true);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    EXPECT_TRUE(std::filesystem::exists(closed.value().checkpoint_path));
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/s1.pchk"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/acme@s1.pchk"));
}

TEST_F(SessionTableTest, ValidNameRejectsPathTricks) {
  EXPECT_TRUE(SessionTable::ValidName("s1"));
  EXPECT_TRUE(SessionTable::ValidName("a-b_c.9"));
  EXPECT_FALSE(SessionTable::ValidName(""));
  EXPECT_FALSE(SessionTable::ValidName("a/b"));
  EXPECT_FALSE(SessionTable::ValidName(".."));
  EXPECT_FALSE(SessionTable::ValidName("x..y"));
  EXPECT_FALSE(SessionTable::ValidName("a@b"));  // '@' is the tenant sep
  EXPECT_FALSE(SessionTable::ValidName(std::string(201, 'a')));
}

// The S3 regression: force eviction under tenant memory pressure, feed the
// evicted session again (transparent thaw), and require detection output
// bit-identical to a session that was never evicted.
TEST_F(SessionTableTest, EvictedSessionThawsBitIdentical) {
  // Budget for two resident sessions per tenant: opening the third evicts
  // the LRU-idle one.
  SessionTable::Options options = BaseOptions(dir_);
  options.tenant_budget_bytes = 2 * SessionBytes() + SessionBytes() / 2;
  SessionTable table(options);

  // The control lives in an unbudgeted table and is never evicted.
  SessionTable control_table(BaseOptions(dir_ + "/control"));
  std::filesystem::create_directories(dir_ + "/control");

  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "victim", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&control_table, "acme", "victim", &rejection).ok());

  // Identical prefix into both detectors.
  Rng rng(7);
  std::string prefix;
  for (int i = 0; i < 200; ++i) {
    prefix.push_back(static_cast<char>('a' + rng.UniformInt(3)));
  }
  Feed(&table, "acme", "victim", prefix);
  Feed(&control_table, "acme", "victim", prefix);

  // Two more opens push the tenant over budget; "victim" is LRU → evicted.
  ASSERT_TRUE(OpenSmall(&table, "acme", "filler1", &rejection).ok());
  Feed(&table, "acme", "filler1", "abc");
  ASSERT_TRUE(OpenSmall(&table, "acme", "filler2", &rejection).ok());
  const SessionTable::Stats mid = table.GetStats();
  ASSERT_GE(mid.evictions, 1u) << "tenant budget did not force an eviction";
  ASSERT_TRUE(std::filesystem::exists(dir_ + "/acme@victim.pchk"));
  EXPECT_TRUE(table.Contains("acme", "victim"));  // still open, just cold

  // Feeding again thaws transparently; same suffix into the control.
  std::string suffix;
  for (int i = 0; i < 100; ++i) {
    suffix.push_back(static_cast<char>('a' + rng.UniformInt(3)));
  }
  Feed(&table, "acme", "victim", suffix);
  Feed(&control_table, "acme", "victim", suffix);
  const SessionTable::Stats after = table.GetStats();
  EXPECT_GE(after.thaws, 1u);

  // Detection must be bit-identical to the never-evicted control.
  SessionTable::Rejection r2;
  Result<SessionTable::Handle> thawed = table.Acquire("acme", "victim", &r2);
  ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();
  Result<SessionTable::Handle> fresh =
      control_table.Acquire("acme", "victim", &r2);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(thawed.value().detector()->size(),
            fresh.value().detector()->size());
  const PeriodicityTable thawed_result =
      thawed.value().detector()->Detect(0.3, 2, 1);
  const PeriodicityTable fresh_result =
      fresh.value().detector()->Detect(0.3, 2, 1);
  EXPECT_EQ(thawed_result.entries(), fresh_result.entries());
  EXPECT_EQ(thawed_result.summaries(), fresh_result.summaries());
}

TEST_F(SessionTableTest, QuotaRejectsWhenNothingIsEvictable) {
  // No sink: eviction is impossible, so quota pressure must turn
  // into a structured rejection, not an eviction.
  SessionTable::Options options;
  options.tenant_budget_bytes = SessionBytes() + SessionBytes() / 2;
  options.quota_retry_after_ms = 77;
  SessionTable table(options);

  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "s1", &rejection).ok());
  Result<SessionTable::OpenResult> denied =
      OpenSmall(&table, "acme", "s2", &rejection);
  ASSERT_TRUE(denied.status().IsResourceExhausted());
  EXPECT_TRUE(rejection.quota_exceeded);
  EXPECT_EQ(rejection.retry_after_ms, 77);
  EXPECT_EQ(rejection.tenant, "acme");
  EXPECT_FALSE(table.Contains("acme", "s2"));

  // Another tenant has its own budget and is unaffected.
  SessionTable::Rejection other;
  EXPECT_TRUE(OpenSmall(&table, "beta", "s1", &other).ok());

  const SessionTable::Stats stats = table.GetStats();
  EXPECT_EQ(stats.quota_rejections, 1u);
  EXPECT_EQ(stats.tenants.at("acme").quota_rejections, 1u);
  EXPECT_EQ(stats.tenants.at("beta").quota_rejections, 0u);
}

TEST_F(SessionTableTest, SessionCapIsPerTenant) {
  SessionTable::Options options = BaseOptions(dir_);
  options.max_sessions_per_tenant = 2;
  SessionTable table(options);
  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "s1", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&table, "acme", "s2", &rejection).ok());
  EXPECT_TRUE(OpenSmall(&table, "acme", "s3", &rejection)
                  .status()
                  .IsResourceExhausted());
  EXPECT_TRUE(OpenSmall(&table, "beta", "s1", &rejection).ok());
  // Closing frees a slot.
  ASSERT_TRUE(table.Close("acme", "s1", false).ok());
  EXPECT_TRUE(OpenSmall(&table, "acme", "s3", &rejection).ok());
}

TEST_F(SessionTableTest, GlobalBudgetEvictsFairShareAcrossTenants) {
  // Global budget holds 3 resident sessions; tenant "hog" owns 3, then
  // "small" opens one — the fair-share evictor must take a hog session,
  // not reject small.
  SessionTable::Options options = BaseOptions(dir_);
  options.global_budget_bytes = 3 * SessionBytes() + SessionBytes() / 2;
  SessionTable table(options);
  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "hog", "h1", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&table, "hog", "h2", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&table, "hog", "h3", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&table, "small", "s1", &rejection).ok());

  const SessionTable::Stats stats = table.GetStats();
  EXPECT_EQ(stats.sessions, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.tenants.at("hog").evictions, 1u);
  EXPECT_EQ(stats.tenants.at("small").evictions, 0u);
  EXPECT_EQ(stats.tenants.at("small").resident, 1u);
  // h1 was the oldest idle hog session.
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/hog@h1.pchk"));
}

TEST_F(SessionTableTest, AcquirePinsAgainstEviction) {
  SessionTable::Options options = BaseOptions(dir_);
  options.tenant_budget_bytes = SessionBytes() + SessionBytes() / 2;
  SessionTable table(options);
  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "pinned", &rejection).ok());

  Result<SessionTable::Handle> held =
      table.Acquire("acme", "pinned", &rejection);
  ASSERT_TRUE(held.ok());
  // While "pinned" is held it cannot be evicted; with nothing else
  // evictable the second open must be rejected, not deadlock.
  Result<SessionTable::OpenResult> denied =
      OpenSmall(&table, "acme", "other", &rejection);
  EXPECT_TRUE(denied.status().IsResourceExhausted());
  EXPECT_TRUE(rejection.quota_exceeded);
}

TEST_F(SessionTableTest, CloseWithoutCheckpointRemovesStaleFile) {
  SessionTable::Options options = BaseOptions(dir_);
  options.tenant_budget_bytes = SessionBytes() + SessionBytes() / 2;
  SessionTable table(options);
  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "old", &rejection).ok());
  Feed(&table, "acme", "old", "abcabc");
  // Evict "old" by opening another session.
  ASSERT_TRUE(OpenSmall(&table, "acme", "new", &rejection).ok());
  const std::string path = dir_ + "/acme@old.pchk";
  ASSERT_TRUE(std::filesystem::exists(path));
  // Closing without checkpoint=true must not leave the eviction file
  // behind to be resumed later.
  ASSERT_TRUE(table.Close("acme", "old", false).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(SessionTableTest, DrainCheckpointsEveryResidentSession) {
  SessionTable table(BaseOptions(dir_));
  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "a", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&table, "default", "b", &rejection).ok());
  Feed(&table, "acme", "a", "abcabc");

  std::vector<std::string> log;
  EXPECT_EQ(table.CheckpointAllForDrain(&log), 0u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/acme@a.pchk"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/b.pchk"));

  // The drain checkpoint resumes bit-exactly into a fresh table.
  SessionTable resumed(BaseOptions(dir_));
  Result<SessionTable::OpenResult> opened =
      resumed.Open("acme", "a", 0, {}, /*resume=*/true, &rejection);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().size, 6u);
}

TEST_F(SessionTableTest, ConcurrentChurnAcrossTenantsStaysConsistent) {
  SessionTable::Options options = BaseOptions(dir_);
  options.tenant_budget_bytes = 2 * SessionBytes() + SessionBytes() / 2;
  SessionTable table(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      const std::string tenant = "t" + std::to_string(t % 2);
      for (int i = 0; i < kRounds; ++i) {
        const std::string id =
            "s" + std::to_string(t) + "_" + std::to_string(i % 5);
        SessionTable::Rejection rejection;
        StreamingPeriodDetector::Options detector_options;
        detector_options.max_period = 16;
        if (table.Open(tenant, id, 3, detector_options, false, &rejection)
                .ok()) {
          SessionTable::Rejection r2;
          if (Result<SessionTable::Handle> handle =
                  table.Acquire(tenant, id, &r2);
              handle.ok()) {
            handle.value().detector()->Append(0);
            handle.value().detector()->Append(1);
          }
          (void)table.Close(tenant, id, (i % 3) == 0);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const SessionTable::Stats stats = table.GetStats();
  EXPECT_EQ(stats.sessions, 0u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

// --- Store-backed checkpoints ------------------------------------------------
//
// The same lifecycle, but durability goes through store::KvStore (WAL +
// segments) instead of loose .pchk files. The contract under test: a
// store-backed table behaves exactly like a file-backed one — evictions
// thaw bit-identically, Close(checkpoint=true) survives a full store
// reopen — with no .pchk files ever appearing.

class StoreBackedSessionTest : public SessionTableTest {
 protected:
  std::unique_ptr<store::KvStore> OpenStore() {
    store::KvStore::Options options;
    options.dir = dir_ + "/store";
    Result<std::unique_ptr<store::KvStore>> opened =
        store::KvStore::Open(std::move(options));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return opened.ok() ? std::move(opened.value()) : nullptr;
  }

  SessionTable::Options StoreOnlyOptions(store::KvStore* kv) {
    return SinkOptions(MakeStoreCheckpointSink(kv));
  }
};

TEST_F(StoreBackedSessionTest, EvictionThawsBitIdenticalWithNoFiles) {
  std::unique_ptr<store::KvStore> kv = OpenStore();
  ASSERT_NE(kv, nullptr);
  SessionTable::Options options = StoreOnlyOptions(kv.get());
  options.tenant_budget_bytes = 2 * SessionBytes() + SessionBytes() / 2;
  SessionTable table(options);
  SessionTable control(StoreOnlyOptions(kv.get()));

  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "victim", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&control, "acme", "victim", &rejection).ok());
  Rng rng(11);
  std::string prefix;
  for (int i = 0; i < 200; ++i) {
    prefix.push_back(static_cast<char>('a' + rng.UniformInt(3)));
  }
  Feed(&table, "acme", "victim", prefix);
  Feed(&control, "acme", "victim", prefix);

  ASSERT_TRUE(OpenSmall(&table, "acme", "filler1", &rejection).ok());
  Feed(&table, "acme", "filler1", "abc");
  ASSERT_TRUE(OpenSmall(&table, "acme", "filler2", &rejection).ok());
  ASSERT_GE(table.GetStats().evictions, 1u)
      << "tenant budget did not force an eviction through the store";

  std::string suffix;
  for (int i = 0; i < 100; ++i) {
    suffix.push_back(static_cast<char>('a' + rng.UniformInt(3)));
  }
  Feed(&table, "acme", "victim", suffix);
  Feed(&control, "acme", "victim", suffix);
  EXPECT_GE(table.GetStats().thaws, 1u);

  SessionTable::Rejection r2;
  Result<SessionTable::Handle> thawed = table.Acquire("acme", "victim", &r2);
  ASSERT_TRUE(thawed.ok()) << thawed.status().ToString();
  Result<SessionTable::Handle> fresh = control.Acquire("acme", "victim", &r2);
  ASSERT_TRUE(fresh.ok());
  const PeriodicityTable thawed_result =
      thawed.value().detector()->Detect(0.3, 2, 1);
  const PeriodicityTable fresh_result =
      fresh.value().detector()->Detect(0.3, 2, 1);
  EXPECT_EQ(thawed_result.entries(), fresh_result.entries());
  EXPECT_EQ(thawed_result.summaries(), fresh_result.summaries());

  // Everything durable went through the store: no loose checkpoint files.
  std::size_t pchk_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".pchk") ++pchk_files;
  }
  EXPECT_EQ(pchk_files, 0u);
}

TEST_F(StoreBackedSessionTest, CloseCheckpointSurvivesStoreReopen) {
  // The full-restart path: checkpoint to the store, tear down table AND
  // store (daemon death), recover the store from disk, resume. The thawed
  // session must detect bit-identically to the pre-restart one.
  PeriodicityTable before = [&] {
    std::unique_ptr<store::KvStore> kv = OpenStore();
    SessionTable table(StoreOnlyOptions(kv.get()));
    SessionTable::Rejection rejection;
    EXPECT_TRUE(OpenSmall(&table, "acme", "s1", &rejection).ok());
    Feed(&table, "acme", "s1", "abcabcabcabcabcabc");
    Result<SessionTable::Handle> handle =
        table.Acquire("acme", "s1", &rejection);
    EXPECT_TRUE(handle.ok());
    const PeriodicityTable result =
        handle.value().detector()->Detect(0.3, 2, 1);
    handle = SessionTable::Handle();  // release before Close
    Result<SessionTable::CloseResult> closed = table.Close("acme", "s1", true);
    EXPECT_TRUE(closed.ok()) << closed.status().ToString();
    EXPECT_EQ(closed.value().checkpoint_path, "store://acme/s1");
    EXPECT_EQ(closed.value().size, 18u);
    return result;
  }();

  std::unique_ptr<store::KvStore> kv = OpenStore();  // WAL replay happens here
  ASSERT_NE(kv, nullptr);
  EXPECT_GE(kv->GetStats().recoveries, 1u);
  SessionTable table(StoreOnlyOptions(kv.get()));
  SessionTable::Rejection rejection;
  Result<SessionTable::OpenResult> resumed =
      table.Open("acme", "s1", 0, {}, /*resume=*/true, &rejection);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().size, 18u);
  Result<SessionTable::Handle> handle = table.Acquire("acme", "s1", &rejection);
  ASSERT_TRUE(handle.ok());
  const PeriodicityTable after = handle.value().detector()->Detect(0.3, 2, 1);
  EXPECT_EQ(before.entries(), after.entries());
  EXPECT_EQ(before.summaries(), after.summaries());
}

TEST_F(StoreBackedSessionTest, CloseWithoutCheckpointDropsTheStoreRecord) {
  std::unique_ptr<store::KvStore> kv = OpenStore();
  ASSERT_NE(kv, nullptr);
  {
    SessionTable table(StoreOnlyOptions(kv.get()));
    SessionTable::Rejection rejection;
    ASSERT_TRUE(OpenSmall(&table, "acme", "s1", &rejection).ok());
    Feed(&table, "acme", "s1", "abcabc");
    ASSERT_TRUE(table.Close("acme", "s1", true).ok());
    // Reopen-from-checkpoint, then close *declining* the checkpoint: the
    // stale record must not survive to be resumed later.
    ASSERT_TRUE(table.Open("acme", "s1", 0, {}, true, &rejection).ok());
    ASSERT_TRUE(table.Close("acme", "s1", false).ok());
  }
  SessionTable table(StoreOnlyOptions(kv.get()));
  SessionTable::Rejection rejection;
  EXPECT_FALSE(table.Open("acme", "s1", 0, {}, true, &rejection).ok());
}

TEST_F(StoreBackedSessionTest, DrainCheckpointsEverySessionToTheStore) {
  std::unique_ptr<store::KvStore> kv = OpenStore();
  ASSERT_NE(kv, nullptr);
  {
    SessionTable table(StoreOnlyOptions(kv.get()));
    SessionTable::Rejection rejection;
    ASSERT_TRUE(OpenSmall(&table, "acme", "a", &rejection).ok());
    ASSERT_TRUE(OpenSmall(&table, "default", "b", &rejection).ok());
    Feed(&table, "acme", "a", "abcabc");
    std::vector<std::string> log;
    EXPECT_EQ(table.CheckpointAllForDrain(&log), 0u);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_NE(log[0].find("store://"), std::string::npos) << log[0];
  }
  SessionTable resumed(StoreOnlyOptions(kv.get()));
  SessionTable::Rejection rejection;
  Result<SessionTable::OpenResult> opened =
      resumed.Open("acme", "a", 0, {}, /*resume=*/true, &rejection);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().size, 6u);
  EXPECT_TRUE(resumed.Open("default", "b", 0, {}, true, &rejection).ok());
}

TEST_F(SessionTableTest, IdleAgeHistogramCountsResidentIdleSessions) {
  SessionTable table(BaseOptions(dir_));
  SessionTable::Rejection rejection;
  ASSERT_TRUE(OpenSmall(&table, "acme", "s1", &rejection).ok());
  ASSERT_TRUE(OpenSmall(&table, "acme", "s2", &rejection).ok());

  SessionTable::Stats stats = table.GetStats();
  std::size_t total = 0;
  for (const std::size_t bucket : stats.idle_age_buckets) total += bucket;
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(stats.idle_age_buckets[0], 2u);  // both touched just now

  // A pinned session is in use, not idle — it leaves the histogram.
  Result<SessionTable::Handle> held = table.Acquire("acme", "s1", &rejection);
  ASSERT_TRUE(held.ok());
  stats = table.GetStats();
  total = 0;
  for (const std::size_t bucket : stats.idle_age_buckets) total += bucket;
  EXPECT_EQ(total, 1u);
}

}  // namespace
}  // namespace periodica::serve
