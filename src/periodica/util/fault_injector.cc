#include "periodica/util/fault_injector.h"

#include <atomic>
#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "periodica/util/sync.h"

namespace periodica::util {

namespace {

struct ArmedSite {
  Status status;
  std::uint64_t fire_on_nth = 1;
  bool repeat = false;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
};

/// Number of currently armed sites; the release fast path checks only this.
///
/// Ordering: relaxed. The counter is a fire-fast hint, not a
/// synchronization edge: a Check that reads 0 while another thread is
/// mid-Arm simply skips the registry, which is indistinguishable from the
/// Check having run just before the Arm. Every transition that must be
/// observed exactly — hit counting, fire scheduling, arm/disarm — happens
/// under registry_mutex below, whose lock/unlock pair provides all the
/// ordering the registry state needs.
std::atomic<int> armed_count{0};

/// Serializes all registry state; annotated so the analyzer proves every
/// Registry() caller holds it (see util/sync.h).
constinit Mutex registry_mutex;

std::unordered_map<std::string, ArmedSite>& Registry()
    PERIODICA_REQUIRES(registry_mutex);

std::unordered_map<std::string, ArmedSite>& Registry() {
  // Heap-allocated and leaked so the registry outlives static destruction —
  // ScopedFaults in other translation units may disarm during teardown.
  static auto* registry = new std::unordered_map<std::string, ArmedSite>();
  return *registry;
}

}  // namespace

Status FaultInjector::Check(const std::string& site) {
  if (armed_count.load(std::memory_order_relaxed) == 0) return Status::OK();
  MutexLock lock(&registry_mutex);
  auto it = Registry().find(site);
  if (it == Registry().end()) return Status::OK();
  ArmedSite& armed = it->second;
  ++armed.hits;
  const bool fires = armed.repeat ? armed.hits >= armed.fire_on_nth
                                  : armed.hits == armed.fire_on_nth;
  if (!fires) return Status::OK();
  ++armed.fires;
  return armed.status;
}

std::uint64_t FaultInjector::HitCount(const std::string& site) {
  MutexLock lock(&registry_mutex);
  const auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.hits;
}

std::uint64_t FaultInjector::FireCount(const std::string& site) {
  MutexLock lock(&registry_mutex);
  const auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.fires;
}

void FaultInjector::Arm(const std::string& site, Status status,
                        std::uint64_t fire_on_nth, bool repeat) {
  MutexLock lock(&registry_mutex);
  auto [it, inserted] = Registry().insert_or_assign(
      site, ArmedSite{std::move(status), fire_on_nth, repeat, 0, 0});
  (void)it;
  if (inserted) armed_count.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& site) {
  MutexLock lock(&registry_mutex);
  if (Registry().erase(site) > 0) {
    armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

ScopedFault::ScopedFault(std::string site, Status status,
                         std::uint64_t fire_on_nth, bool repeat)
    : site_(std::move(site)) {
  FaultInjector::Arm(site_, std::move(status), fire_on_nth, repeat);
}

ScopedFault::~ScopedFault() { FaultInjector::Disarm(site_); }

Status ArmFaults(const std::string& spec,
                 std::vector<std::unique_ptr<ScopedFault>>* armed) {
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("--faults item '" + item +
                                     "' is not site:nth[:repeat]");
    }
    const std::string site = item.substr(0, colon);
    std::string rest = item.substr(colon + 1);
    bool repeat = false;
    if (const std::size_t colon2 = rest.find(':');
        colon2 != std::string::npos) {
      repeat = rest.substr(colon2 + 1) == "repeat";
      rest = rest.substr(0, colon2);
    }
    char* parse_end = nullptr;
    const unsigned long long nth = std::strtoull(rest.c_str(), &parse_end, 10);
    if (parse_end == rest.c_str() || *parse_end != '\0' || nth == 0) {
      return Status::InvalidArgument("--faults item '" + item +
                                     "' has a bad hit number");
    }
    armed->push_back(std::make_unique<ScopedFault>(
        site, Status::IOError("injected fault at " + site), nth, repeat));
  }
  return Status::OK();
}

}  // namespace periodica::util
