#ifndef PERIODICA_SERVE_CHECKPOINT_SINK_H_
#define PERIODICA_SERVE_CHECKPOINT_SINK_H_

#include <memory>
#include <string>

#include "periodica/core/streaming_detector.h"
#include "periodica/store/kv_store.h"
#include "periodica/util/result.h"
#include "periodica/util/status.h"

namespace periodica::serve {

/// Where a streaming session's checkpoints live — the serving layer's one
/// durable decision. A one-pass sketch cannot be rebuilt once its stream is
/// gone, so eviction, resume, per-feed durability and the drain snapshot
/// all go through exactly one sink, chosen at startup per deployment shape
/// (the factories below). A sink reads only what it writes: there is no
/// cross-backend fallback. Every value is the bit-exact core/checkpoint.h
/// PCHK envelope.
///
/// Thread-safety: all methods may be called concurrently (the session
/// table calls them both under and outside its mutex). Writes of one
/// (tenant, id) are the caller's to serialize; the table does so through
/// the session's pin.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Durably stores `detector` as (tenant, id)'s checkpoint, replacing any
  /// previous one.
  virtual Status Put(const std::string& tenant, const std::string& id,
                     const StreamingPeriodDetector& detector) = 0;
  /// Reads (tenant, id)'s checkpoint back bit-identically. Fails when none
  /// was written or it was dropped: NotFound from the store, an IO error
  /// for a missing file.
  virtual Result<StreamingPeriodDetector> Get(const std::string& tenant,
                                              const std::string& id) = 0;
  /// Best-effort removal: a checkpoint that survives only wastes a resume.
  virtual void Drop(const std::string& tenant, const std::string& id) = 0;
  /// Where (tenant, id)'s checkpoint lives, as reported to clients
  /// (`stream_close`'s "checkpoint") and in drain log lines.
  [[nodiscard]] virtual std::string Location(const std::string& tenant,
                                             const std::string& id) const = 0;
};

/// A single-node daemon's sink: records in `store` (not owned; must outlive
/// the sink) under ("ckpt", tenant, id), located at "store://<tenant>/<id>".
/// The store is single-writer, so shards never share one.
[[nodiscard]] std::unique_ptr<CheckpointSink> MakeStoreCheckpointSink(
    store::KvStore* store);

/// The multi-node sink: atomically renamed `<dir>/<tenant>@<id>.pchk`
/// files, which shards behind a router share for live migration. The
/// "default" tenant keeps the pre-tenant `<dir>/<id>.pchk` name.
[[nodiscard]] std::unique_ptr<CheckpointSink> MakeDirectoryCheckpointSink(
    std::string dir);

}  // namespace periodica::serve

#endif  // PERIODICA_SERVE_CHECKPOINT_SINK_H_
