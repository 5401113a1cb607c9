#ifndef PERIODICA_UTIL_FAULT_INJECTOR_H_
#define PERIODICA_UTIL_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "periodica/util/status.h"

namespace periodica::util {

/// Deterministic fault injection for robustness tests.
///
/// Production code sprinkles named *sites* on its failure-prone edges
/// (checkpoint I/O, stream reads):
///
///   PERIODICA_RETURN_NOT_OK(util::FaultInjector::Check("atomic_file/write"));
///
/// With nothing armed, Check is a single relaxed atomic load returning OK —
/// cheap enough to leave in release builds, which is the point: the exact
/// binary that ships is the one whose failure paths the tests walk.
///
/// Tests arm a site with a ScopedFault: the site's Nth hit (1-based, counted
/// from arming) returns the injected Status instead of OK, either once or on
/// every hit from the Nth onward. Counting is global and mutex-serialized,
/// so a schedule like "fail the 3rd write" is exactly reproducible.
class FaultInjector {
 public:
  FaultInjector() = delete;

  /// The fault hook. Returns the armed Status when `site` is armed and this
  /// hit is scheduled to fire; OK otherwise. Every call counts as one hit of
  /// `site` while it is armed.
  static Status Check(const std::string& site);

  /// Hits recorded against `site` since it was last armed (0 when unarmed).
  static std::uint64_t HitCount(const std::string& site);

  /// Times `site` actually fired since it was last armed.
  static std::uint64_t FireCount(const std::string& site);

 private:
  friend class ScopedFault;
  static void Arm(const std::string& site, Status status,
                  std::uint64_t fire_on_nth, bool repeat);
  static void Disarm(const std::string& site);
};

/// RAII arming of one fault site. While alive, `site`'s `fire_on_nth`-th hit
/// (and, with `repeat`, every later hit) fails with `status`; destruction
/// disarms the site. Re-arming an armed site resets its counters.
///
///   util::ScopedFault fault("atomic_file/rename",
///                           Status::IOError("injected"), /*fire_on_nth=*/2);
///   ... exercise the code under test ...
///   EXPECT_EQ(fault.fire_count(), 1u);
class ScopedFault {
 public:
  ScopedFault(std::string site, Status status, std::uint64_t fire_on_nth = 1,
              bool repeat = false);
  ~ScopedFault();

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  [[nodiscard]] std::uint64_t hit_count() const {
    return FaultInjector::HitCount(site_);
  }
  [[nodiscard]] std::uint64_t fire_count() const {
    return FaultInjector::FireCount(site_);
  }

 private:
  std::string site_;
};

/// Parses a "site:nth[:repeat],..." spec (the serving binaries' --faults
/// flag) and appends one ScopedFault per item to `armed`, each failing with
/// an IOError. Empty items are skipped; an item without a positive integer
/// hit number is InvalidArgument.
Status ArmFaults(const std::string& spec,
                 std::vector<std::unique_ptr<ScopedFault>>* armed);

}  // namespace periodica::util

#endif  // PERIODICA_UTIL_FAULT_INJECTOR_H_
