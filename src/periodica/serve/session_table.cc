#include "periodica/serve/session_table.h"

#include <chrono>
#include <utility>

#include "periodica/util/logging.h"

namespace periodica::serve {

using util::MutexLock;

/// Per-tenant record. Never removed once created — its counters (evictions,
/// quota rejections) outlive its sessions and feed the stats report. All
/// fields except the internally-atomic pool are guarded by the table mutex;
/// Tenant is private to SessionTable and only ever touched under it.
struct SessionTable::Tenant {
  Tenant(std::string name_in, std::size_t budget_limit)
      : name(std::move(name_in)), pool(budget_limit) {}

  const std::string name;
  util::MemoryBudget pool;  ///< resident-bytes quota (0 = unlimited)
  std::size_t sessions = 0;
  std::size_t resident = 0;
  std::uint64_t opened = 0;
  std::uint64_t evictions = 0;
  std::uint64_t thaws = 0;
  std::uint64_t quota_rejections = 0;
};

/// Session control block, slab-allocated. Two guards:
///   - `mutex` serializes detector use by Handle holders; it is held for
///     the whole lifetime of a Handle (feed/detect). Table-mutex holders
///     touch the detector of *idle* sessions without it — see
///     IdleDetectorLocked for why that is safe.
///   - the remaining mutable fields are table-level bookkeeping guarded by
///     SessionTable::mutex_ (the analyzer cannot express a foreign guard,
///     hence the waivers).
struct SessionTable::Session {
  Session(std::string tenant_name, std::string id_in, Tenant* owner_in,
          std::unique_ptr<StreamingPeriodDetector> det, std::size_t bytes)
      : tenant(std::move(tenant_name)),
        id(std::move(id_in)),
        owner(owner_in),
        resident_bytes(bytes),
        detector(std::move(det)) {}

  const std::string tenant;
  const std::string id;
  Tenant* const owner;  // lint: unguarded(owner): immutable after construction
  /// Bytes charged while resident — EstimateMemoryBytes of the detector
  /// config, constant for the session's life (the sketch is bounded).
  const std::size_t resident_bytes;

  util::Mutex mutex;
  /// Null ⇔ evicted (the state lives in the sink's checkpoint).
  std::unique_ptr<StreamingPeriodDetector> detector
      PERIODICA_GUARDED_BY(mutex);

  bool resident = true;       // lint: unguarded(resident): table mutex
  std::uint64_t last_used = 0;   // lint: unguarded(last_used): table mutex
  /// Wall-clock twin of last_used, feeding the idle-age histogram.
  /// lint: unguarded(last_used_at): table mutex
  std::chrono::steady_clock::time_point last_used_at{};
  std::uint32_t pins = 0;        // lint: unguarded(pins): table mutex
  bool erased = false;           // lint: unguarded(erased): table mutex
  /// Stream length frozen at eviction, so Close can report a size without
  /// thawing. lint: unguarded(evicted_size): table mutex
  std::size_t evicted_size = 0;
  /// The sink holds a checkpoint, written by eviction, drain, an explicit
  /// checkpoint or read by resume.
  /// lint: unguarded(has_checkpoint): table mutex
  bool has_checkpoint = false;
};

// --- Handle -----------------------------------------------------------------

// The Handle owns the session mutex across its lifetime — an acquire/release
// pair the static analysis cannot follow (hence the escape hatches). The
// runtime discipline: Unlock *before* Unpin, so no thread ever waits for the
// table mutex while holding a session mutex through a handle.

SessionTable::Handle::~Handle() {
  if (session_ == nullptr) return;
  ReleaseSessionLock(session_);
  table_->Unpin(session_);
}

SessionTable::Handle& SessionTable::Handle::operator=(
    Handle&& other) noexcept {
  if (this != &other) {
    if (session_ != nullptr) {
      ReleaseSessionLock(session_);
      table_->Unpin(session_);
    }
    table_ = other.table_;
    session_ = other.session_;
    other.table_ = nullptr;
    other.session_ = nullptr;
  }
  return *this;
}

void SessionTable::Handle::ReleaseSessionLock(Session* session)
    PERIODICA_NO_THREAD_SAFETY_ANALYSIS {
  // The lock was taken in SessionTable::Acquire and handed to this Handle.
  session->mutex.Unlock();
}

StreamingPeriodDetector* SessionTable::Handle::detector() const {
  PERIODICA_DCHECK(session_ != nullptr);
  session_->mutex.AssertHeld();
  PERIODICA_DCHECK(session_->detector != nullptr);
  return session_->detector.get();
}

// --- SessionTable -----------------------------------------------------------

SessionTable::SessionTable(Options options)
    : options_(std::move(options)),
      global_pool_(options_.global_budget_bytes),
      slab_(std::make_unique<util::Slab<Session>>()) {}

SessionTable::~SessionTable() {
  // Destroy every remaining session so the slab's live-count check passes.
  // Handles must not outlive the table.
  MutexLock lock(&mutex_);
  for (auto& [key, session] : sessions_) {
    PERIODICA_DCHECK(session->pins == 0);
    DestroySessionLocked(session);
  }
  sessions_.clear();
}

bool SessionTable::ValidName(const std::string& name) {
  // Names become checkpoint file names: no path tricks, and no '@' (it
  // separates tenant from session id in the file name).
  return !name.empty() && name.size() <= 200 &&
         name.find('/') == std::string::npos &&
         name.find("..") == std::string::npos &&
         name.find('@') == std::string::npos;
}

SessionTable::Tenant* SessionTable::GetTenantLocked(const std::string& name) {
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second.get();
  auto tenant =
      std::make_unique<Tenant>(name, options_.tenant_budget_bytes);
  Tenant* raw = tenant.get();
  tenants_.emplace(name, std::move(tenant));
  return raw;
}

Status SessionTable::ChargeLocked(Tenant* tenant, std::size_t bytes,
                                  Rejection* rejection) {
  const std::string what = "session (tenant " + tenant->name + ")";
  // Tenant pool first, evicting the tenant's own idle sessions; then the
  // global pool, evicting fair-share across tenants.
  while (true) {
    Status status = tenant->pool.TryReserve(bytes, what);
    if (status.ok()) break;
    if (!EvictOneLocked(tenant)) return RejectLocked(tenant, status, rejection);
  }
  while (true) {
    Status status = global_pool_.TryReserve(bytes, what);
    if (status.ok()) return Status::OK();
    if (!EvictOneLocked(nullptr)) {
      tenant->pool.Release(bytes);
      return RejectLocked(tenant, status, rejection);
    }
  }
}

Status SessionTable::RejectLocked(Tenant* tenant, Status status,
                                  Rejection* rejection) {
  ++tenant->quota_rejections;
  ++quota_rejections_;
  if (rejection != nullptr) {
    rejection->quota_exceeded = true;
    rejection->retry_after_ms = options_.quota_retry_after_ms;
    rejection->tenant = tenant->name;
  }
  return status;
}

void SessionTable::ReleaseCharge(Tenant* tenant, std::size_t bytes) {
  tenant->pool.Release(bytes);
  global_pool_.Release(bytes);
}

bool SessionTable::EvictOneLocked(Tenant* tenant) {
  Session* victim = nullptr;
  if (tenant != nullptr) {
    // Tenant-local pressure: the tenant's own LRU idle session.
    for (auto& [key, session] : sessions_) {
      if (session->owner != tenant || session->pins > 0 ||
          !session->resident) {
        continue;
      }
      if (victim == nullptr || session->last_used < victim->last_used) {
        victim = session;
      }
    }
  } else {
    // Global pressure, fair-share: prefer the LRU idle session of the
    // tenant furthest over global_limit / active_tenants; fall back to the
    // overall LRU idle session when nobody exceeds the fair share.
    std::size_t active = 0;
    for (const auto& [name, t] : tenants_) {
      if (t->resident > 0) ++active;
    }
    const std::size_t fair_share =
        active > 0 ? global_pool_.limit() / active : 0;
    Session* over = nullptr;
    Session* any = nullptr;
    for (auto& [key, session] : sessions_) {
      if (session->pins > 0 || !session->resident) continue;
      if (any == nullptr || session->last_used < any->last_used) {
        any = session;
      }
      if (session->owner->pool.used() > fair_share) {
        if (over == nullptr ||
            session->owner->pool.used() > over->owner->pool.used() ||
            (session->owner == over->owner &&
             session->last_used < over->last_used)) {
          over = session;
        }
      }
    }
    victim = over != nullptr ? over : any;
  }
  if (victim == nullptr) return false;
  return EvictSessionLocked(victim);
}

bool SessionTable::EvictSessionLocked(Session* session) {
  if (options_.sink == nullptr) return false;
  // pins == 0 (the caller only picks idle victims), so the detector is
  // exclusively ours while we hold the table mutex.
  std::unique_ptr<StreamingPeriodDetector>& detector =
      IdleDetectorLocked(session);
  const Status saved =
      options_.sink->Put(session->tenant, session->id, *detector);
  if (!saved.ok()) return false;  // stay resident; caller degrades to quota
  const std::size_t size = detector->size();
  detector.reset();
  session->resident = false;
  session->evicted_size = size;
  session->has_checkpoint = true;
  --session->owner->resident;
  ++session->owner->evictions;
  ++evictions_;
  ReleaseCharge(session->owner, session->resident_bytes);
  return true;
}

Result<SessionTable::OpenResult> SessionTable::Open(
    const std::string& tenant_name, const std::string& id,
    std::size_t alphabet_size,
    StreamingPeriodDetector::Options detector_options, bool resume,
    Rejection* rejection) {
  if (!ValidName(tenant_name) || !ValidName(id)) {
    return Status::InvalidArgument(
        "tenant and session names must be non-empty, at most 200 bytes and "
        "contain no '/', '..' or '@'");
  }

  // Resume reads the sink outside the table mutex and takes its size and
  // charge figure from the snapshot, not the caller's parameters.
  std::unique_ptr<StreamingPeriodDetector> restored;
  if (resume) {
    if (options_.sink == nullptr) {
      return Status::InvalidArgument(
          "resume requires a checkpoint directory or a durable store");
    }
    Result<StreamingPeriodDetector> loaded =
        options_.sink->Get(tenant_name, id);
    if (!loaded.ok()) return loaded.status();
    restored = std::make_unique<StreamingPeriodDetector>(
        std::move(loaded.value()));
  }

  MutexLock lock(&mutex_);
  const Key key(tenant_name, id);
  if (sessions_.count(key) != 0) {
    return Status::InvalidArgument("session '" + id + "' (tenant " +
                                   tenant_name + ") is already open");
  }
  Tenant* tenant = GetTenantLocked(tenant_name);
  if (options_.max_sessions_per_tenant != 0 &&
      tenant->sessions >= options_.max_sessions_per_tenant) {
    return RejectLocked(
        tenant,
        Status::ResourceExhausted(
            "tenant " + tenant_name + " is at its session cap (" +
            std::to_string(options_.max_sessions_per_tenant) + ")"),
        rejection);
  }

  std::size_t bytes;
  std::unique_ptr<StreamingPeriodDetector> detector;
  if (resume) {
    bytes = StreamingPeriodDetector::EstimateMemoryBytes(
        restored->alphabet().size(), restored->options());
    detector = std::move(restored);
  } else {
    bytes = StreamingPeriodDetector::EstimateMemoryBytes(alphabet_size,
                                                         detector_options);
  }
  if (Status charged = ChargeLocked(tenant, bytes, rejection);
      !charged.ok()) {
    return charged;
  }
  if (!resume) {
    Result<StreamingPeriodDetector> created = StreamingPeriodDetector::Create(
        Alphabet::Latin(alphabet_size), detector_options);
    if (!created.ok()) {
      ReleaseCharge(tenant, bytes);
      return created.status();
    }
    detector = std::make_unique<StreamingPeriodDetector>(
        std::move(created.value()));
  }

  OpenResult result;
  result.size = detector->size();
  Session* session =
      slab_->New(tenant_name, id, tenant, std::move(detector), bytes);
  session->last_used = ++lru_tick_;
  session->last_used_at = std::chrono::steady_clock::now();
  if (resume) session->has_checkpoint = true;
  sessions_.emplace(key, session);
  ++tenant->sessions;
  ++tenant->resident;
  ++tenant->opened;
  return result;
}

Result<SessionTable::Handle> SessionTable::Acquire(
    const std::string& tenant_name, const std::string& id,
    Rejection* rejection) {
  Session* session = nullptr;
  {
    MutexLock lock(&mutex_);
    const auto it = sessions_.find(Key(tenant_name, id));
    if (it == sessions_.end()) {
      return Status::NotFound("no open session '" + id + "' (tenant " +
                              tenant_name + ")");
    }
    session = it->second;
    session->last_used = ++lru_tick_;
    session->last_used_at = std::chrono::steady_clock::now();
    ++session->pins;
  }

  // Pinned: the session can no longer be evicted or freed, and no holder of
  // the table mutex will ever wait on its mutex (evictors skip pinned
  // sessions). So taking the session mutex here — outside the table mutex —
  // only ever waits for another user of the *same* session.
  AcquireSessionLock(session);

  bool resident;
  {
    MutexLock lock(&mutex_);
    resident = session->resident;
  }
  if (!resident) {
    if (Status thawed = ThawPinned(session, rejection); !thawed.ok()) {
      ReleaseSessionLockFailed(session);
      Unpin(session);
      return thawed;
    }
  }
  return Handle(this, session);
}

void SessionTable::AcquireSessionLock(Session* session)
    PERIODICA_NO_THREAD_SAFETY_ANALYSIS {
  // Handed over to the returned Handle, which unlocks in its destructor.
  session->mutex.Lock();
}

void SessionTable::ReleaseSessionLockFailed(Session* session)
    PERIODICA_NO_THREAD_SAFETY_ANALYSIS {
  // Error path of Acquire: the lock taken by AcquireSessionLock is returned
  // without a Handle ever existing.
  session->mutex.Unlock();
}

Status SessionTable::ThawPinned(Session* session, Rejection* rejection) {
  session->mutex.AssertHeld();
  // Charge first (table mutex; may evict others — never this pinned
  // session), then read the sink outside the table mutex so the I/O does
  // not stall unrelated tenants.
  {
    MutexLock lock(&mutex_);
    if (Status charged =
            ChargeLocked(session->owner, session->resident_bytes, rejection);
        !charged.ok()) {
      return charged;
    }
    session->resident = true;
    ++session->owner->resident;
  }
  Result<StreamingPeriodDetector> loaded =
      options_.sink->Get(session->tenant, session->id);
  if (!loaded.ok()) {
    MutexLock lock(&mutex_);
    session->resident = false;
    --session->owner->resident;
    ReleaseCharge(session->owner, session->resident_bytes);
    return loaded.status();
  }
  session->detector = std::make_unique<StreamingPeriodDetector>(
      std::move(loaded.value()));
  MutexLock lock(&mutex_);
  ++session->owner->thaws;
  ++thaws_;
  return Status::OK();
}

void SessionTable::Unpin(Session* session) {
  MutexLock lock(&mutex_);
  PERIODICA_DCHECK(session->pins > 0);
  --session->pins;
  if (session->pins == 0 && session->erased) {
    DestroySessionLocked(session);
  }
}

std::unique_ptr<StreamingPeriodDetector>& SessionTable::IdleDetectorLocked(
    Session* session) PERIODICA_NO_THREAD_SAFETY_ANALYSIS {
  // The caller holds the table mutex and the session is idle, so no thread
  // holds — or can begin to take — this session's mutex (Acquire pins
  // under the table mutex first), and the last user's detector writes are
  // ordered before us by the table-mutex release in its Unpin. Bypassing
  // the session mutex here keeps every table-mutex scope free of session
  // mutexes: the lock graph's only cross-order is session -> table.
  PERIODICA_DCHECK(session->pins == 0);
  return session->detector;
}

void SessionTable::DestroySessionLocked(Session* session) {
  std::unique_ptr<StreamingPeriodDetector>& detector =
      IdleDetectorLocked(session);
  const bool was_resident = detector != nullptr;
  detector.reset();
  if (was_resident) {
    --session->owner->resident;
    ReleaseCharge(session->owner, session->resident_bytes);
  }
  slab_->Delete(session);
}

Result<SessionTable::CloseResult> SessionTable::Close(
    const std::string& tenant_name, const std::string& id, bool checkpoint) {
  return Remove(tenant_name, id,
                checkpoint ? OnRemove::kCheckpoint : OnRemove::kDrop);
}

Result<SessionTable::CloseResult> SessionTable::Discard(
    const std::string& tenant_name, const std::string& id) {
  // Neither a Put nor a Drop: a discarded copy is stale by definition, and
  // the sink's snapshot may already belong to the session's new owner.
  return Remove(tenant_name, id, OnRemove::kKeep);
}

Result<SessionTable::CloseResult> SessionTable::Remove(
    const std::string& tenant_name, const std::string& id, OnRemove action) {
  Session* session = nullptr;
  {
    MutexLock lock(&mutex_);
    const auto it = sessions_.find(Key(tenant_name, id));
    if (it == sessions_.end()) {
      return Status::NotFound("no open session '" + id + "' (tenant " +
                              tenant_name + ")");
    }
    session = it->second;
    ++session->pins;  // keeps the block alive while we snapshot below
    session->erased = true;
    sessions_.erase(it);
    --session->owner->sessions;
  }

  const bool checkpoint = action == OnRemove::kCheckpoint;
  CloseResult result;
  Status failure = Status::OK();
  {
    MutexLock lock(&session->mutex);  // waits for an in-flight feed/detect
    if (session->detector != nullptr) {
      result.size = session->detector->size();
      if (checkpoint && options_.sink != nullptr) {
        failure = options_.sink->Put(tenant_name, id, *session->detector);
        if (failure.ok()) {
          result.checkpoint_path = options_.sink->Location(tenant_name, id);
        }
      }
    } else {
      // Evicted: the eviction snapshot is already current (any feed would
      // have thawed it first).
      MutexLock table(&mutex_);
      result.size = session->evicted_size;
      if (checkpoint) {
        result.checkpoint_path = options_.sink->Location(tenant_name, id);
      }
    }
  }
  {
    // Drop a stale snapshot when the caller declined a checkpoint, so a
    // later resume cannot silently revive out-of-date state.
    MutexLock lock(&mutex_);
    if (action == OnRemove::kDrop && session->has_checkpoint) {
      options_.sink->Drop(tenant_name, id);
    }
  }
  Unpin(session);
  if (!failure.ok()) return failure;
  return result;
}

std::size_t SessionTable::CheckpointAllForDrain(
    std::vector<std::string>* log) {
  // Call quiesced (workers drained, no live handles): pinned sessions are
  // skipped — their detector belongs to the pinning thread, possibly
  // mid-thaw, and only idle sessions may be touched under the table mutex.
  MutexLock lock(&mutex_);
  std::size_t failures = 0;
  for (auto& [key, session] : sessions_) {
    if (options_.sink == nullptr) {
      ++failures;
      if (log != nullptr) {
        std::size_t size = 0;
        if (session->pins == 0) {
          const auto& detector = IdleDetectorLocked(session);
          if (detector != nullptr) size = detector->size();
        }
        log->push_back("dropping session " + session->id + " (tenant " +
                       session->tenant + ", " + std::to_string(size) +
                       " symbols): no checkpoint directory or store");
      }
      continue;
    }
    if (session->pins > 0) {
      ++failures;
      if (log != nullptr) {
        log->push_back("session " + session->id + " (tenant " +
                       session->tenant + "): still pinned, not checkpointed");
      }
      continue;
    }
    if (!session->resident) continue;  // eviction snapshot already current
    const std::string path =
        options_.sink->Location(session->tenant, session->id);
    const Status saved = options_.sink->Put(session->tenant, session->id,
                                            *IdleDetectorLocked(session));
    if (saved.ok()) {
      session->has_checkpoint = true;
      if (log != nullptr) {
        log->push_back("checkpointed session " + session->id + " (tenant " +
                       session->tenant + ") -> " + path);
      }
    } else {
      ++failures;
      if (log != nullptr) {
        log->push_back("checkpoint of session " + session->id + " (tenant " +
                       session->tenant + ") failed: " + saved.message());
      }
    }
  }
  return failures;
}

Status SessionTable::Checkpoint(const Handle& handle) {
  if (!handle.valid()) {
    return Status::InvalidArgument("Checkpoint: invalid handle");
  }
  if (options_.sink == nullptr) {
    return Status::InvalidArgument(
        "Checkpoint: no checkpoint directory or store configured");
  }
  Session* session = handle.session_;
  // The handle owns the session mutex, so detector() is stable and the
  // snapshot is consistent; tenant/id are immutable. The table mutex is
  // taken only afterwards (session -> table is the one sanctioned lock
  // order) to publish has_checkpoint.
  PERIODICA_RETURN_NOT_OK(
      options_.sink->Put(session->tenant, session->id, *handle.detector()));
  MutexLock lock(&mutex_);
  session->has_checkpoint = true;
  return Status::OK();
}

bool SessionTable::Contains(const std::string& tenant,
                            const std::string& id) const {
  MutexLock lock(&mutex_);
  return sessions_.count(Key(tenant, id)) != 0;
}

SessionTable::Stats SessionTable::GetStats() const {
  MutexLock lock(&mutex_);
  Stats stats;
  stats.sessions = sessions_.size();
  stats.global_budget_limit = global_pool_.limit();
  stats.global_high_water = global_pool_.high_water();
  stats.evictions = evictions_;
  stats.thaws = thaws_;
  stats.quota_rejections = quota_rejections_;
  stats.slab_capacity = slab_->capacity();
  stats.slab_chunks = slab_->num_chunks();
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [key, session] : sessions_) {
    if (!session->resident || session->pins > 0) continue;
    const auto idle = std::chrono::duration_cast<std::chrono::seconds>(
                          now - session->last_used_at)
                          .count();
    const std::size_t bucket = idle < 1    ? 0
                               : idle < 10  ? 1
                               : idle < 60  ? 2
                               : idle < 600 ? 3
                                            : 4;
    ++stats.idle_age_buckets[bucket];
  }
  for (const auto& [name, tenant] : tenants_) {
    TenantStats t;
    t.sessions = tenant->sessions;
    t.resident = tenant->resident;
    t.resident_bytes = tenant->pool.used();
    t.budget_limit = tenant->pool.limit();
    t.opened = tenant->opened;
    t.evictions = tenant->evictions;
    t.thaws = tenant->thaws;
    t.quota_rejections = tenant->quota_rejections;
    stats.resident += t.resident;
    stats.resident_bytes += t.resident_bytes;
    stats.tenants.emplace(name, t);
  }
  return stats;
}

}  // namespace periodica::serve
