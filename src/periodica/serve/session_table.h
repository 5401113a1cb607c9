#ifndef PERIODICA_SERVE_SESSION_TABLE_H_
#define PERIODICA_SERVE_SESSION_TABLE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "periodica/core/streaming_detector.h"
#include "periodica/serve/checkpoint_sink.h"
#include "periodica/util/arena.h"
#include "periodica/util/memory_budget.h"
#include "periodica/util/result.h"
#include "periodica/util/status.h"
#include "periodica/util/sync.h"

namespace periodica::serve {

/// Multi-tenant ownership layer for online detector state — the middle
/// tier of the stream hub (docs/SERVING.md). Sessions are keyed by
/// (tenant, session-id); their control blocks live in slab storage
/// (util/arena.h) so tens of thousands of small, churning sessions draw
/// from a few stable chunks instead of fragmenting the heap, and their
/// resident bytes are charged against per-tenant util::MemoryBudget pools
/// plus one global pool.
///
/// Under memory pressure the table *evicts* idle sessions instead of
/// rejecting work: the victim's detector is checkpointed through the
/// table's CheckpointSink (serve/checkpoint_sink.h) and its memory is
/// released; the next Acquire *thaws* it transparently from that
/// checkpoint. Victims are chosen LRU-idle — never a pinned session — first
/// within the over-budget tenant, and for global pressure fair-share: the
/// tenant furthest over `global_limit / active_tenants` gives up its
/// oldest idle session first. Only when nothing is evictable does the
/// caller see a structured quota rejection (`Rejection::quota_exceeded`,
/// wire code QUOTA_EXCEEDED) with a retry hint.
///
/// Locking discipline (deadlock-free by construction):
///   - A session's mutex is only taken by a thread that first *pinned* the
///     session under the table mutex (Acquire); pinned sessions are never
///     evicted or destroyed.
///   - A table-mutex holder never takes a session mutex. Paths that touch
///     an idle (pins == 0) session's detector under the table mutex alone
///     (eviction, destroy, drain) are safe without it: nobody holds — or
///     can take — that session's mutex, and the previous user's writes are
///     ordered by the table-mutex hand-off in its Unpin.
/// The only cross-acquisition order is therefore session mutex -> table
/// mutex (thaw, unpin), so the lock graph has no cycle.
///
/// Thread-safety: all public methods may be called concurrently. A Handle
/// must be acquired, used and released on one thread (it holds the
/// session's mutex for its lifetime).
class SessionTable {
 public:
  struct Options {
    /// Where eviction, close, drain and per-feed checkpoints go, and where
    /// thaw and resume read them back (not owned; must outlive the table).
    /// Null disables eviction (quota pressure then rejects immediately),
    /// resume and drain snapshots.
    CheckpointSink* sink = nullptr;
    /// Resident-session bytes allowed across all tenants (0 = unlimited).
    std::size_t global_budget_bytes = 0;
    /// Resident-session bytes allowed per tenant (0 = unlimited).
    std::size_t tenant_budget_bytes = 0;
    /// Open sessions (resident + evicted) allowed per tenant (0 = no cap).
    std::size_t max_sessions_per_tenant = 0;
    /// Hint carried in quota rejections.
    std::int64_t quota_retry_after_ms = 100;
  };

  /// Structured reason for a quota failure, wire-protocol-ready (the daemon
  /// maps it to a QUOTA_EXCEEDED error). Only meaningful when the returning
  /// Status is ResourceExhausted and `quota_exceeded` is set.
  struct Rejection {
    bool quota_exceeded = false;
    std::int64_t retry_after_ms = 0;
    std::string tenant;
  };

  struct TenantStats {
    std::size_t sessions = 0;        ///< open (resident + evicted)
    std::size_t resident = 0;        ///< sessions with in-memory state
    std::size_t resident_bytes = 0;  ///< bytes charged to the tenant pool
    std::size_t budget_limit = 0;
    std::uint64_t opened = 0;
    std::uint64_t evictions = 0;
    std::uint64_t thaws = 0;
    std::uint64_t quota_rejections = 0;
  };

  struct Stats {
    std::size_t sessions = 0;
    std::size_t resident = 0;
    std::size_t resident_bytes = 0;
    std::size_t global_budget_limit = 0;
    std::size_t global_high_water = 0;
    std::uint64_t evictions = 0;
    std::uint64_t thaws = 0;
    std::uint64_t quota_rejections = 0;
    std::size_t slab_capacity = 0;  ///< session slots ever carved
    std::size_t slab_chunks = 0;
    /// Idle-age histogram over resident, unpinned sessions — time since
    /// each was last opened or acquired, bucketed <1s, 1–10s, 10–60s,
    /// 60–600s, ≥600s. Read together with per-tenant `evictions`, this is
    /// the eviction-pressure view `periodicad stats` exposes: lots of
    /// young-bucket sessions plus climbing evictions means the working set
    /// genuinely exceeds the budget, not that stale sessions are lingering.
    std::array<std::size_t, 5> idle_age_buckets{};
    std::map<std::string, TenantStats> tenants;
  };

  explicit SessionTable(Options options);
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  class Handle;

  struct OpenResult {
    /// Symbols already incorporated (0 fresh, >0 after resume).
    std::size_t size = 0;
  };

  /// Creates a session, or restores one from its checkpoint when `resume`
  /// (ignoring `alphabet_size`/`detector_options`, which the snapshot
  /// carries). Fails InvalidArgument on a duplicate key or bad name,
  /// ResourceExhausted (with `rejection` filled) on quota.
  Result<OpenResult> Open(const std::string& tenant, const std::string& id,
                          std::size_t alphabet_size,
                          StreamingPeriodDetector::Options detector_options,
                          bool resume, Rejection* rejection);

  /// Pins the session and returns a Handle with the session mutex held and
  /// the detector resident (thawed from its checkpoint if it was evicted —
  /// which can fail on quota, filling `rejection`). NotFound when no such
  /// session is open. Acquire, use and destroy the Handle on one thread.
  Result<Handle> Acquire(const std::string& tenant, const std::string& id,
                         Rejection* rejection);

  struct CloseResult {
    std::size_t size = 0;
    /// Set when a checkpoint was written (or already current, for an
    /// evicted session closed with checkpoint=true).
    std::string checkpoint_path;
  };

  /// Closes the session, optionally checkpointing first. A session pinned
  /// elsewhere is removed from the table immediately; its memory is
  /// reclaimed when the last pin drops.
  Result<CloseResult> Close(const std::string& tenant, const std::string& id,
                            bool checkpoint);

  /// Drops the in-memory session without touching durable state: no
  /// checkpoint is written and — unlike Close(checkpoint=false) — an
  /// existing snapshot is NOT deleted. This is the migration fence for a
  /// shard that lost ownership of a session: the router discards the stale
  /// local copy while the shared-checkpoint-directory snapshot (now owned
  /// by the successor shard) stays authoritative. NotFound when the
  /// session is not open here.
  Result<CloseResult> Discard(const std::string& tenant,
                              const std::string& id);

  /// Drain support: checkpoints every resident session (evicted sessions
  /// already have a current snapshot on disk). Appends one human-readable
  /// line per session to `log` when non-null; returns the number of
  /// sessions whose checkpoint failed.
  std::size_t CheckpointAllForDrain(std::vector<std::string>* log);

  /// Persists the pinned session's current state through the sink without
  /// closing or unpinning it. This is the per-feed durability mode behind
  /// `periodicad --checkpoint_each_feed` and the write side of live
  /// migration: a peer shard sharing the checkpoint directory thaws from
  /// the snapshot this writes. InvalidArgument when the handle is invalid
  /// or the table has no sink.
  Status Checkpoint(const Handle& handle);

  [[nodiscard]] Stats GetStats() const;

  /// True when (tenant, id) is currently open (resident or evicted). A
  /// cheap pre-check only — the answer can change before the caller acts.
  [[nodiscard]] bool Contains(const std::string& tenant,
                              const std::string& id) const;

  /// Name rule shared by tenants and session ids: non-empty, no '/', no
  /// "..", at most 200 bytes (names become checkpoint file names).
  [[nodiscard]] static bool ValidName(const std::string& name);

 private:
  struct Tenant;
  struct Session;

 public:
  /// RAII pin + lock: while alive, the session cannot be evicted or freed
  /// and its mutex is held by this thread. Move-only; single-threaded use.
  class Handle {
   public:
    Handle() = default;
    ~Handle();
    Handle(Handle&& other) noexcept
        : table_(other.table_), session_(other.session_) {
      other.table_ = nullptr;
      other.session_ = nullptr;
    }
    Handle& operator=(Handle&& other) noexcept;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    [[nodiscard]] bool valid() const { return session_ != nullptr; }
    /// The resident detector; never null on a valid handle.
    [[nodiscard]] StreamingPeriodDetector* detector() const;

   private:
    friend class SessionTable;
    Handle(SessionTable* table, Session* session)
        : table_(table), session_(session) {}

    /// Releases the session mutex the Handle has owned since Acquire — a
    /// hand-off the static analysis cannot follow.
    static void ReleaseSessionLock(Session* session)
        PERIODICA_NO_THREAD_SAFETY_ANALYSIS;

    SessionTable* table_ = nullptr;
    Session* session_ = nullptr;
  };

 private:
  using Key = std::pair<std::string, std::string>;  // (tenant, id)

  /// Reserves `bytes` for `tenant` against both pools, evicting idle
  /// sessions (tenant-local first, then fair-share globally) as needed.
  Status ChargeLocked(Tenant* tenant, std::size_t bytes,
                      Rejection* rejection) PERIODICA_REQUIRES(mutex_);
  /// Counts a quota rejection of `tenant`, fills `rejection` when non-null
  /// and returns `status`.
  Status RejectLocked(Tenant* tenant, Status status, Rejection* rejection)
      PERIODICA_REQUIRES(mutex_);
  void ReleaseCharge(Tenant* tenant, std::size_t bytes)
      PERIODICA_REQUIRES(mutex_);
  /// Evicts one idle resident session of `tenant` (nullptr = fair-share
  /// pick across tenants). False when nothing is evictable.
  bool EvictOneLocked(Tenant* tenant) PERIODICA_REQUIRES(mutex_);
  /// Checkpoint + drop the detector of an idle session. False when the
  /// checkpoint write failed (the session stays resident).
  bool EvictSessionLocked(Session* session) PERIODICA_REQUIRES(mutex_);
  /// Restores an evicted, *pinned* session's detector from its checkpoint:
  /// charges the budgets (table mutex; may evict others), then reads the
  /// sink outside the table mutex. Called with the session mutex held.
  Status ThawPinned(Session* session, Rejection* rejection)
      PERIODICA_EXCLUDES(mutex_);
  /// Takes the session mutex for hand-off to a Handle (escape hatch: the
  /// matching release happens in the Handle's destructor).
  void AcquireSessionLock(Session* session)
      PERIODICA_NO_THREAD_SAFETY_ANALYSIS;
  /// Error-path counterpart: releases the lock taken by AcquireSessionLock
  /// when no Handle will be constructed.
  void ReleaseSessionLockFailed(Session* session)
      PERIODICA_NO_THREAD_SAFETY_ANALYSIS;
  /// What removing a session does with its checkpoint: write a fresh one
  /// (Close with checkpoint), drop the stale one (Close without), or leave
  /// the sink untouched (Discard).
  enum class OnRemove { kCheckpoint, kDrop, kKeep };
  Result<CloseResult> Remove(const std::string& tenant, const std::string& id,
                             OnRemove action) PERIODICA_EXCLUDES(mutex_);
  /// Unpins; frees the slab slot of an erased session on the last unpin.
  void Unpin(Session* session) PERIODICA_EXCLUDES(mutex_);
  void DestroySessionLocked(Session* session) PERIODICA_REQUIRES(mutex_);
  /// The detector of a session known idle (pins == 0) by a table-mutex
  /// holder. Safe without the session mutex: Acquire pins under the table
  /// mutex before locking a session, so pins == 0 under the table mutex
  /// means no thread holds (or can take) this session's mutex, and the
  /// last user's detector writes are ordered by the table-mutex release in
  /// its Unpin. Keeping the table mutex out of session-mutex scopes is
  /// what makes the lock graph acyclic — do not re-introduce a
  /// table-then-session acquisition here.
  std::unique_ptr<StreamingPeriodDetector>& IdleDetectorLocked(
      Session* session) PERIODICA_REQUIRES(mutex_);
  Tenant* GetTenantLocked(const std::string& name)
      PERIODICA_REQUIRES(mutex_);
  const Options options_;  ///< immutable after construction

  mutable util::Mutex mutex_;
  std::map<Key, Session*> sessions_ PERIODICA_GUARDED_BY(mutex_);
  /// Tenant records are never removed (their counters outlive their
  /// sessions); unique_ptr keeps the incomplete Tenant type out of the map
  /// instantiation here.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_
      PERIODICA_GUARDED_BY(mutex_);
  std::uint64_t lru_tick_ PERIODICA_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ PERIODICA_GUARDED_BY(mutex_) = 0;
  std::uint64_t thaws_ PERIODICA_GUARDED_BY(mutex_) = 0;
  std::uint64_t quota_rejections_ PERIODICA_GUARDED_BY(mutex_) = 0;
  /// Process-wide resident-bytes pool. Internally atomic; only mutated
  /// under mutex_ so charge+evict decisions are serialized.
  /// lint: unguarded(global_pool_): internally atomic
  util::MemoryBudget global_pool_;
  /// Session control blocks. Internally synchronized slab; slots are freed
  /// on close (last unpin). Indirect because Slab<T> needs the complete
  /// Session type. lint: unguarded(slab_): internally synchronized
  std::unique_ptr<util::Slab<Session>> slab_;
};

}  // namespace periodica::serve

#endif  // PERIODICA_SERVE_SESSION_TABLE_H_
