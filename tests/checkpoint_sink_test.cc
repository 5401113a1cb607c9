// The session table's one checkpoint sink (serve/checkpoint_sink.h): both
// real sinks round-trip a detector bit-identically and report pinned
// locations, and the table's two sink-failure edges — a failed eviction
// Put and a failed thaw Get — degrade without losing or leaking state.

#include "periodica/serve/checkpoint_sink.h"

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "periodica/core/checkpoint.h"
#include "periodica/core/streaming_detector.h"
#include "periodica/serve/session_table.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/rng.h"

namespace periodica::serve {
namespace {

std::string TestDir() {
  return ::testing::TempDir() + "checkpoint_sink_test_" +
         std::to_string(::getpid()) + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

StreamingPeriodDetector::Options SmallOptions() {
  StreamingPeriodDetector::Options options;
  options.max_period = 16;
  return options;
}

/// A detector over {a, b, c} fed `n` seeded random symbols.
StreamingPeriodDetector RandomDetector(std::size_t n, std::uint64_t seed) {
  Result<StreamingPeriodDetector> created =
      StreamingPeriodDetector::Create(Alphabet::Latin(3), SmallOptions());
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    created->Append(static_cast<SymbolId>(rng.UniformInt(3)));
  }
  return std::move(created.value());
}

enum class SinkKind { kStore, kDirectory };

class CheckpointSinkRoundTripTest
    : public ::testing::TestWithParam<SinkKind> {
 protected:
  void SetUp() override {
    dir_ = TestDir();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    if (GetParam() == SinkKind::kStore) {
      store::KvStore::Options options;
      options.dir = dir_ + "/store";
      Result<std::unique_ptr<store::KvStore>> opened =
          store::KvStore::Open(std::move(options));
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      store_ = std::move(opened.value());
      sink_ = MakeStoreCheckpointSink(store_.get());
    } else {
      sink_ = MakeDirectoryCheckpointSink(dir_);
    }
  }
  void TearDown() override {
    sink_.reset();
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<store::KvStore> store_;
  std::unique_ptr<CheckpointSink> sink_;
};

TEST_P(CheckpointSinkRoundTripTest, PutGetIsBitIdenticalAndDropForgets) {
  EXPECT_FALSE(sink_->Get("acme", "s1").ok()) << "nothing written yet";

  const StreamingPeriodDetector detector = RandomDetector(300, 5);
  ASSERT_TRUE(sink_->Put("acme", "s1", detector).ok());
  Result<StreamingPeriodDetector> read = sink_->Get("acme", "s1");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  // Bit-identical: the re-encoded envelope matches byte for byte.
  Result<std::string> before = EncodeDetectorCheckpoint(detector);
  Result<std::string> after = EncodeDetectorCheckpoint(read.value());
  ASSERT_TRUE(before.ok() && after.ok());
  EXPECT_EQ(before.value(), after.value());
  EXPECT_EQ(read->Detect(0.3, 2, 1).entries(),
            detector.Detect(0.3, 2, 1).entries());

  // Put replaces; tenants are namespaces.
  const StreamingPeriodDetector longer = RandomDetector(500, 6);
  ASSERT_TRUE(sink_->Put("acme", "s1", longer).ok());
  EXPECT_EQ(sink_->Get("acme", "s1")->size(), 500u);
  EXPECT_FALSE(sink_->Get("other", "s1").ok());

  sink_->Drop("acme", "s1");
  EXPECT_FALSE(sink_->Get("acme", "s1").ok());
  sink_->Drop("acme", "s1");  // best-effort: dropping twice is harmless
}

INSTANTIATE_TEST_SUITE_P(
    CheckpointSinks, CheckpointSinkRoundTripTest,
    ::testing::Values(SinkKind::kStore, SinkKind::kDirectory),
    [](const ::testing::TestParamInfo<SinkKind>& info) {
      return info.param == SinkKind::kStore ? "store" : "directory";
    });

TEST(CheckpointSinkTest, LocationsArePinned) {
  // These strings reach clients as stream_close's "checkpoint" and the
  // drain log; they must not drift.
  const auto store_sink = MakeStoreCheckpointSink(nullptr);  // unused here
  EXPECT_EQ(store_sink->Location("acme", "s1"), "store://acme/s1");
  const auto dir_sink = MakeDirectoryCheckpointSink("/ckpt");
  EXPECT_EQ(dir_sink->Location("default", "s1"), "/ckpt/s1.pchk");
  EXPECT_EQ(dir_sink->Location("acme", "s1"), "/ckpt/acme@s1.pchk");
}

/// A directory sink whose Put and Get can be made to fail.
class FaultySink final : public CheckpointSink {
 public:
  explicit FaultySink(std::string dir)
      : inner_(MakeDirectoryCheckpointSink(std::move(dir))) {}

  Status Put(const std::string& tenant, const std::string& id,
             const StreamingPeriodDetector& detector) override {
    if (fail_put) return Status::IOError("injected put failure");
    return inner_->Put(tenant, id, detector);
  }
  Result<StreamingPeriodDetector> Get(const std::string& tenant,
                                      const std::string& id) override {
    if (fail_get) return Status::IOError("injected get failure");
    return inner_->Get(tenant, id);
  }
  void Drop(const std::string& tenant, const std::string& id) override {
    inner_->Drop(tenant, id);
  }
  [[nodiscard]] std::string Location(const std::string& tenant,
                                     const std::string& id) const override {
    return inner_->Location(tenant, id);
  }

  bool fail_put = false;
  bool fail_get = false;

 private:
  std::unique_ptr<CheckpointSink> inner_;
};

class CheckpointSinkTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    sink_ = std::make_unique<FaultySink>(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::size_t SessionBytes() {
    return StreamingPeriodDetector::EstimateMemoryBytes(3, SmallOptions());
  }

  /// A table on the faulty sink with room for one resident session.
  SessionTable::Options OneSessionOptions() {
    SessionTable::Options options;
    options.sink = sink_.get();
    options.tenant_budget_bytes = SessionBytes() + SessionBytes() / 2;
    options.quota_retry_after_ms = 33;
    return options;
  }

  static Status Open(SessionTable* table, const std::string& id,
                     SessionTable::Rejection* rejection) {
    return table->Open("acme", id, 3, SmallOptions(), /*resume=*/false,
                       rejection)
        .status();
  }

  static void Feed(SessionTable* table, const std::string& id,
                   const std::string& symbols) {
    SessionTable::Rejection rejection;
    Result<SessionTable::Handle> handle =
        table->Acquire("acme", id, &rejection);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    for (const char c : symbols) {
      handle.value().detector()->Append(static_cast<SymbolId>(c - 'a'));
    }
  }

  std::string dir_;
  std::unique_ptr<FaultySink> sink_;
};

TEST_F(CheckpointSinkTableTest, FailedEvictionPutKeepsTheVictimResident) {
  SessionTable table(OneSessionOptions());
  SessionTable::Rejection rejection;
  ASSERT_TRUE(Open(&table, "victim", &rejection).ok());
  Feed(&table, "victim", "abcabc");

  // The only evictable session cannot be checkpointed, so the open that
  // needs its memory becomes a structured quota rejection.
  sink_->fail_put = true;
  const Status denied = Open(&table, "newcomer", &rejection);
  EXPECT_TRUE(denied.IsResourceExhausted()) << denied.ToString();
  EXPECT_TRUE(rejection.quota_exceeded);
  EXPECT_EQ(rejection.retry_after_ms, 33);
  EXPECT_EQ(rejection.tenant, "acme");
  EXPECT_FALSE(table.Contains("acme", "newcomer"));

  SessionTable::Stats stats = table.GetStats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.resident_bytes, SessionBytes());
  EXPECT_EQ(stats.tenants.at("acme").quota_rejections, 1u);

  // The victim kept its state in memory: no thaw is needed to read it.
  {
    SessionTable::Rejection unused;
    Result<SessionTable::Handle> handle =
        table.Acquire("acme", "victim", &unused);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(handle.value().detector()->size(), 6u);
  }
  EXPECT_EQ(table.GetStats().thaws, 0u);

  // Once the sink recovers, the same open evicts and succeeds.
  sink_->fail_put = false;
  SessionTable::Rejection later;
  EXPECT_TRUE(Open(&table, "newcomer", &later).ok());
  EXPECT_EQ(table.GetStats().evictions, 1u);
}

TEST_F(CheckpointSinkTableTest,
       FailedThawGetReleasesTheChargeAndStaysEvicted) {
  SessionTable table(OneSessionOptions());
  SessionTable::Rejection rejection;
  ASSERT_TRUE(Open(&table, "cold", &rejection).ok());
  Feed(&table, "cold", "abcabc");
  ASSERT_TRUE(Open(&table, "hot", &rejection).ok());  // evicts "cold"
  ASSERT_EQ(table.GetStats().evictions, 1u);
  ASSERT_TRUE(table.Close("acme", "hot", /*checkpoint=*/false).ok());
  ASSERT_EQ(table.GetStats().resident_bytes, 0u);

  sink_->fail_get = true;
  SessionTable::Rejection thaw_rejection;
  const Status failed =
      table.Acquire("acme", "cold", &thaw_rejection).status();
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_FALSE(thaw_rejection.quota_exceeded) << "not a quota failure";

  // The charge taken for the thaw is back, and the session is still open
  // but evicted.
  SessionTable::Stats stats = table.GetStats();
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.thaws, 0u);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_TRUE(table.Contains("acme", "cold"));

  // A later Acquire thaws it with its state intact.
  sink_->fail_get = false;
  {
    SessionTable::Rejection unused;
    Result<SessionTable::Handle> handle =
        table.Acquire("acme", "cold", &unused);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(handle.value().detector()->size(), 6u);
  }
  stats = table.GetStats();
  EXPECT_EQ(stats.thaws, 1u);
  EXPECT_EQ(stats.resident_bytes, SessionBytes());
}

}  // namespace
}  // namespace periodica::serve
