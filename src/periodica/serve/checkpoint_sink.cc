#include "periodica/serve/checkpoint_sink.h"

#include <cstdio>
#include <utility>

#include "periodica/core/checkpoint.h"

namespace periodica::serve {
namespace {

class StoreSink final : public CheckpointSink {
 public:
  explicit StoreSink(store::KvStore* store) : store_(store) {}

  Status Put(const std::string& tenant, const std::string& id,
             const StreamingPeriodDetector& detector) override {
    PERIODICA_ASSIGN_OR_RETURN(const std::string envelope,
                               EncodeDetectorCheckpoint(detector));
    return store_->Put(store::JoinKey({"ckpt", tenant, id}), envelope);
  }
  Result<StreamingPeriodDetector> Get(const std::string& tenant,
                                      const std::string& id) override {
    PERIODICA_ASSIGN_OR_RETURN(
        const std::string envelope,
        store_->Get(store::JoinKey({"ckpt", tenant, id})));
    return DecodeDetectorCheckpoint(envelope, Location(tenant, id));
  }
  void Drop(const std::string& tenant, const std::string& id) override {
    (void)store_->Delete(store::JoinKey({"ckpt", tenant, id}));
  }
  [[nodiscard]] std::string Location(const std::string& tenant,
                                     const std::string& id) const override {
    return "store://" + tenant + "/" + id;
  }

 private:
  store::KvStore* const store_;
};

class DirectorySink final : public CheckpointSink {
 public:
  explicit DirectorySink(std::string dir) : dir_(std::move(dir)) {}

  Status Put(const std::string& tenant, const std::string& id,
             const StreamingPeriodDetector& detector) override {
    return SaveCheckpoint(detector, Location(tenant, id));
  }
  Result<StreamingPeriodDetector> Get(const std::string& tenant,
                                      const std::string& id) override {
    return LoadDetectorCheckpoint(Location(tenant, id));
  }
  void Drop(const std::string& tenant, const std::string& id) override {
    std::remove(Location(tenant, id).c_str());
  }
  [[nodiscard]] std::string Location(const std::string& tenant,
                                     const std::string& id) const override {
    if (tenant == "default") return dir_ + "/" + id + ".pchk";
    return dir_ + "/" + tenant + "@" + id + ".pchk";
  }

 private:
  const std::string dir_;
};

}  // namespace

std::unique_ptr<CheckpointSink> MakeStoreCheckpointSink(
    store::KvStore* store) {
  return std::make_unique<StoreSink>(store);
}

std::unique_ptr<CheckpointSink> MakeDirectoryCheckpointSink(std::string dir) {
  return std::make_unique<DirectorySink>(std::move(dir));
}

}  // namespace periodica::serve
