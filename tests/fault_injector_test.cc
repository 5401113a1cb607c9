#include "periodica/util/fault_injector.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace periodica::util {
namespace {

TEST(FaultInjectorTest, UnarmedSiteIsOk) {
  EXPECT_TRUE(FaultInjector::Check("nobody/armed/this").ok());
  EXPECT_EQ(FaultInjector::HitCount("nobody/armed/this"), 0u);
}

TEST(FaultInjectorTest, FiresOnFirstHitByDefault) {
  ScopedFault fault("t/first", Status::IOError("injected"));
  const Status status = FaultInjector::Check("t/first");
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(status.message(), "injected");
  EXPECT_EQ(fault.hit_count(), 1u);
  EXPECT_EQ(fault.fire_count(), 1u);
}

TEST(FaultInjectorTest, FiresExactlyOnNthHit) {
  ScopedFault fault("t/nth", Status::IOError("boom"), /*fire_on_nth=*/3);
  EXPECT_TRUE(FaultInjector::Check("t/nth").ok());
  EXPECT_TRUE(FaultInjector::Check("t/nth").ok());
  EXPECT_TRUE(FaultInjector::Check("t/nth").IsIOError());
  // One-shot: the 4th hit passes again.
  EXPECT_TRUE(FaultInjector::Check("t/nth").ok());
  EXPECT_EQ(fault.hit_count(), 4u);
  EXPECT_EQ(fault.fire_count(), 1u);
}

TEST(FaultInjectorTest, RepeatFiresFromNthOnward) {
  ScopedFault fault("t/repeat", Status::IOError("boom"), /*fire_on_nth=*/2,
                    /*repeat=*/true);
  EXPECT_TRUE(FaultInjector::Check("t/repeat").ok());
  EXPECT_TRUE(FaultInjector::Check("t/repeat").IsIOError());
  EXPECT_TRUE(FaultInjector::Check("t/repeat").IsIOError());
  EXPECT_EQ(fault.fire_count(), 2u);
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  ScopedFault fault("t/site_a", Status::IOError("a down"));
  EXPECT_TRUE(FaultInjector::Check("t/site_b").ok());
  EXPECT_TRUE(FaultInjector::Check("t/site_a").IsIOError());
}

TEST(FaultInjectorTest, ScopeEndDisarms) {
  {
    ScopedFault fault("t/scoped", Status::IOError("boom"), /*fire_on_nth=*/1,
                      /*repeat=*/true);
    EXPECT_TRUE(FaultInjector::Check("t/scoped").IsIOError());
  }
  EXPECT_TRUE(FaultInjector::Check("t/scoped").ok());
  EXPECT_EQ(FaultInjector::HitCount("t/scoped"), 0u);
}

TEST(FaultInjectorTest, RearmingResetsCounters) {
  ScopedFault first("t/rearm", Status::IOError("one"), /*fire_on_nth=*/1,
                    /*repeat=*/true);
  EXPECT_TRUE(FaultInjector::Check("t/rearm").IsIOError());
  ScopedFault second("t/rearm", Status::Internal("two"), /*fire_on_nth=*/2);
  EXPECT_EQ(second.hit_count(), 0u);
  EXPECT_TRUE(FaultInjector::Check("t/rearm").ok());
  EXPECT_TRUE(FaultInjector::Check("t/rearm").IsInternal());
}

TEST(FaultInjectorTest, InjectedStatusKindIsPreserved) {
  ScopedFault fault("t/kind", Status::InvalidArgument("bad data"));
  EXPECT_TRUE(FaultInjector::Check("t/kind").IsInvalidArgument());
}

TEST(ArmFaultsTest, ParsesOneShotAndRepeatItemsSkippingEmptyOnes) {
  std::vector<std::unique_ptr<ScopedFault>> armed;
  ASSERT_TRUE(ArmFaults(",t/spec_once:3,,t/spec_repeat:2:repeat,", &armed)
                  .ok());
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_TRUE(FaultInjector::Check("t/spec_once").ok());
  EXPECT_TRUE(FaultInjector::Check("t/spec_once").ok());
  const Status fired = FaultInjector::Check("t/spec_once");
  EXPECT_TRUE(fired.IsIOError());
  EXPECT_EQ(fired.message(), "injected fault at t/spec_once");
  EXPECT_TRUE(FaultInjector::Check("t/spec_once").ok());  // one-shot

  EXPECT_TRUE(FaultInjector::Check("t/spec_repeat").ok());
  EXPECT_TRUE(FaultInjector::Check("t/spec_repeat").IsIOError());
  EXPECT_TRUE(FaultInjector::Check("t/spec_repeat").IsIOError());

  armed.clear();  // disarms
  EXPECT_TRUE(FaultInjector::Check("t/spec_repeat").ok());
  EXPECT_TRUE(ArmFaults("", &armed).ok());
  EXPECT_TRUE(armed.empty());
}

TEST(ArmFaultsTest, RejectsItemsWithoutAPositiveHitNumber) {
  for (const char* spec : {"s", "s:0", "s:x", "s:3x", "ok:1,s"}) {
    std::vector<std::unique_ptr<ScopedFault>> armed;
    EXPECT_TRUE(ArmFaults(spec, &armed).IsInvalidArgument()) << spec;
  }
}

}  // namespace
}  // namespace periodica::util
