#include "periodica/core/checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "periodica/util/atomic_file.h"
#include "periodica/util/crc32.h"
#include "periodica/util/fault_injector.h"

namespace periodica {

namespace {

constexpr char kMagic[4] = {'P', 'C', 'H', 'K'};
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8;  // magic, version, kind, n
constexpr std::size_t kFooterSize = 4;              // CRC-32

/// Appends fixed-width little-endian fields to a growing buffer.
class Encoder {
 public:
  void PutU32(std::uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
    }
  }
  void PutU64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
    }
  }
  void PutDouble(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  void PutString(const std::string& text) {
    PutU64(text.size());
    PutBytes(text.data(), text.size());
  }

  [[nodiscard]] const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
};

/// Reads the fields back, failing with a precise offset on truncation.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Status GetU32(std::uint32_t* out) {
    PERIODICA_RETURN_NOT_OK(Need(4));
    *out = 0;
    for (int i = 0; i < 4; ++i) {
      *out |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }
  Status GetU64(std::uint64_t* out) {
    PERIODICA_RETURN_NOT_OK(Need(8));
    *out = 0;
    for (int i = 0; i < 8; ++i) {
      *out |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }
  Status GetDouble(double* out) {
    std::uint64_t bits = 0;
    PERIODICA_RETURN_NOT_OK(GetU64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }
  Status GetString(std::string* out) {
    std::uint64_t size = 0;
    PERIODICA_RETURN_NOT_OK(GetU64(&size));
    PERIODICA_RETURN_NOT_OK(Need(size));
    out->assign(data_.substr(pos_, size));
    pos_ += size;
    return Status::OK();
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  Status Need(std::uint64_t bytes) {
    if (bytes > data_.size() - pos_) {
      return Status::InvalidArgument(
          "truncated checkpoint payload at offset " + std::to_string(pos_));
    }
    return Status::OK();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

void EncodeAlphabet(const Alphabet& alphabet, Encoder* enc) {
  enc->PutU64(alphabet.size());
  for (std::size_t k = 0; k < alphabet.size(); ++k) {
    enc->PutString(alphabet.name(static_cast<SymbolId>(k)));
  }
}

Result<Alphabet> DecodeAlphabet(Decoder* dec) {
  std::uint64_t size = 0;
  PERIODICA_RETURN_NOT_OK(dec->GetU64(&size));
  if (size == 0 || size > kMaxAlphabetSize) {
    return Status::InvalidArgument("checkpoint alphabet size " +
                                   std::to_string(size) + " out of range");
  }
  std::vector<std::string> names;
  names.reserve(size);
  for (std::uint64_t k = 0; k < size; ++k) {
    std::string name;
    PERIODICA_RETURN_NOT_OK(dec->GetString(&name));
    names.push_back(std::move(name));
  }
  return Alphabet::FromNames(std::move(names));
}

template <typename T>
void EncodeVector(const std::vector<T>& values, Encoder* enc) {
  enc->PutU64(values.size());
  for (const T value : values) {
    if constexpr (std::is_same_v<T, double>) {
      enc->PutDouble(value);
    } else {
      enc->PutU64(static_cast<std::uint64_t>(value));
    }
  }
}

Status DecodeDoubleVector(Decoder* dec, std::vector<double>* out) {
  std::uint64_t size = 0;
  PERIODICA_RETURN_NOT_OK(dec->GetU64(&size));
  out->clear();
  out->reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    double value = 0.0;
    PERIODICA_RETURN_NOT_OK(dec->GetDouble(&value));
    out->push_back(value);
  }
  return Status::OK();
}

Status DecodeU64Vector(Decoder* dec, std::vector<std::uint64_t>* out) {
  std::uint64_t size = 0;
  PERIODICA_RETURN_NOT_OK(dec->GetU64(&size));
  out->clear();
  out->reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t value = 0;
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&value));
    out->push_back(value);
  }
  return Status::OK();
}

Status DecodeSymbolVector(Decoder* dec, std::size_t sigma,
                          std::vector<SymbolId>* out) {
  std::uint64_t size = 0;
  PERIODICA_RETURN_NOT_OK(dec->GetU64(&size));
  out->clear();
  out->reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t value = 0;
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&value));
    if (value >= sigma) {
      return Status::InvalidArgument("checkpoint symbol " +
                                     std::to_string(value) +
                                     " outside the alphabet");
    }
    out->push_back(static_cast<SymbolId>(value));
  }
  return Status::OK();
}

/// Wraps `payload` in the header/CRC envelope — the byte string both the
/// file and store persistence paths share.
std::string EncodeSnapshot(CheckpointKind kind, const std::string& payload) {
  Encoder file;
  file.PutBytes(kMagic, sizeof(kMagic));
  file.PutU32(kCheckpointFormatVersion);
  file.PutU32(static_cast<std::uint32_t>(kind));
  file.PutU64(payload.size());
  file.PutBytes(payload.data(), payload.size());
  Encoder footer;
  footer.PutU32(util::Crc32Of(file.buffer()));
  return file.buffer() + footer.buffer();
}

/// Wraps `payload` in the envelope and writes it atomically.
Status WriteSnapshot(CheckpointKind kind, const std::string& payload,
                     const std::string& path) {
  return util::AtomicWriteFile(path, EncodeSnapshot(kind, payload));
}

/// Fully verifies the envelope in `contents`; on success `*payload` holds
/// the kind-specific field stream. `context` names the source ("'<path>'",
/// a store key) in every error message.
Result<CheckpointKind> ParseSnapshot(std::string_view contents,
                                     const std::string& context,
                                     std::string* payload) {
  if (contents.size() < kHeaderSize + kFooterSize) {
    return Status::InvalidArgument(
        "'" + context + "' is not a checkpoint: " +
        std::to_string(contents.size()) + " bytes is shorter than the " +
        std::to_string(kHeaderSize + kFooterSize) + "-byte envelope");
  }
  if (std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + context +
                                   "' is not a checkpoint (bad magic)");
  }
  Decoder dec(contents.substr(sizeof(kMagic)));
  std::uint32_t version = 0;
  std::uint32_t kind_raw = 0;
  std::uint64_t payload_size = 0;
  PERIODICA_RETURN_NOT_OK(dec.GetU32(&version));
  PERIODICA_RETURN_NOT_OK(dec.GetU32(&kind_raw));
  PERIODICA_RETURN_NOT_OK(dec.GetU64(&payload_size));
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "'" + context + "': unsupported checkpoint version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  if (kind_raw != static_cast<std::uint32_t>(
                      CheckpointKind::kStreamingDetector) &&
      kind_raw !=
          static_cast<std::uint32_t>(CheckpointKind::kOnlineTracker)) {
    return Status::InvalidArgument("'" + context +
                                   "': unknown checkpoint payload kind " +
                                   std::to_string(kind_raw));
  }
  const std::size_t expected = kHeaderSize + payload_size + kFooterSize;
  if (contents.size() != expected) {
    return Status::InvalidArgument(
        "'" + context + "' is torn: header declares " +
        std::to_string(expected) + " bytes, file has " +
        std::to_string(contents.size()));
  }
  const std::string_view checked = contents.substr(
      0, kHeaderSize + payload_size);
  Decoder footer(contents.substr(checked.size()));
  std::uint32_t stored_crc = 0;
  PERIODICA_RETURN_NOT_OK(footer.GetU32(&stored_crc));
  if (util::Crc32Of(checked) != stored_crc) {
    return Status::InvalidArgument(
        "'" + context + "': checksum mismatch (torn or corrupted snapshot)");
  }
  payload->assign(checked.substr(kHeaderSize));
  return static_cast<CheckpointKind>(kind_raw);
}

/// Reads and fully verifies the envelope from a file.
Result<CheckpointKind> ReadSnapshot(const std::string& path,
                                    std::string* payload) {
  if (const Status fault = util::FaultInjector::Check("checkpoint/read");
      !fault.ok()) {
    return Status::IOError("cannot read checkpoint '" + path +
                           "': " + fault.message());
  }
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::IOError("cannot read checkpoint '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string contents = buffer.str();
  return ParseSnapshot(contents, path, payload);
}

}  // namespace

namespace internal {

/// Befriended by the streaming classes: the only code that reads and writes
/// their private state, keeping the public API free of representation
/// details.
class CheckpointAccess {
 public:
  static void EncodeCorrelator(const fft::BoundedLagAutocorrelator& c,
                               Encoder* enc) {
    enc->PutU64(c.max_lag_);
    enc->PutU64(c.block_size_);
    enc->PutU64(c.n_);
    EncodeVector(c.accumulated_, enc);
    EncodeVector(c.tail_, enc);
    EncodeVector(c.pending_, enc);
  }

  static Status DecodeCorrelatorInto(Decoder* dec,
                                     fft::BoundedLagAutocorrelator* c) {
    std::uint64_t max_lag = 0;
    std::uint64_t block_size = 0;
    std::uint64_t n = 0;
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&max_lag));
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&block_size));
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&n));
    if (block_size == 0) {
      return Status::InvalidArgument("checkpoint correlator block size 0");
    }
    std::vector<double> accumulated;
    std::vector<double> tail;
    std::vector<double> pending;
    PERIODICA_RETURN_NOT_OK(DecodeDoubleVector(dec, &accumulated));
    PERIODICA_RETURN_NOT_OK(DecodeDoubleVector(dec, &tail));
    PERIODICA_RETURN_NOT_OK(DecodeDoubleVector(dec, &pending));
    if (accumulated.size() != max_lag + 1 || tail.size() > max_lag ||
        pending.size() >= block_size) {
      return Status::InvalidArgument(
          "checkpoint correlator state is inconsistent");
    }
    c->max_lag_ = max_lag;
    c->block_size_ = block_size;
    c->n_ = n;
    c->accumulated_ = std::move(accumulated);
    c->tail_ = std::move(tail);
    c->pending_ = std::move(pending);
    return Status::OK();
  }

  static Result<std::string> EncodeDetector(
      const StreamingPeriodDetector& detector) {
    Encoder enc;
    EncodeAlphabet(detector.alphabet_, &enc);
    enc.PutU64(detector.options_.max_period);
    enc.PutU64(detector.options_.block_size);
    enc.PutU64(detector.n_);
    enc.PutU64(detector.correlators_.size());
    for (const fft::BoundedLagAutocorrelator& c : detector.correlators_) {
      EncodeCorrelator(c, &enc);
    }
    return enc.buffer();
  }

  static Result<StreamingPeriodDetector> DecodeDetector(Decoder* dec) {
    PERIODICA_ASSIGN_OR_RETURN(Alphabet alphabet, DecodeAlphabet(dec));
    StreamingPeriodDetector::Options options;
    std::uint64_t max_period = 0;
    std::uint64_t block_size = 0;
    std::uint64_t n = 0;
    std::uint64_t num_correlators = 0;
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&max_period));
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&block_size));
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&n));
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&num_correlators));
    options.max_period = max_period;
    options.block_size = block_size;
    if (num_correlators != alphabet.size()) {
      return Status::InvalidArgument(
          "checkpoint detector has " + std::to_string(num_correlators) +
          " correlators for a " + std::to_string(alphabet.size()) +
          "-symbol alphabet");
    }
    PERIODICA_ASSIGN_OR_RETURN(
        StreamingPeriodDetector detector,
        StreamingPeriodDetector::Create(std::move(alphabet), options));
    detector.n_ = n;
    for (fft::BoundedLagAutocorrelator& c : detector.correlators_) {
      PERIODICA_RETURN_NOT_OK(DecodeCorrelatorInto(dec, &c));
      if (c.max_lag() != options.max_period) {
        return Status::InvalidArgument(
            "checkpoint correlator lag bound disagrees with the detector's "
            "max_period");
      }
    }
    return detector;
  }

  static std::string EncodeTracker(const OnlinePeriodicityTracker& tracker) {
    Encoder enc;
    EncodeAlphabet(tracker.alphabet_, &enc);
    EncodeVector(tracker.periods_, &enc);
    enc.PutU64(tracker.n_);
    EncodeVector(tracker.f2_, &enc);
    EncodeVector(tracker.ring_, &enc);
    EncodeVector(tracker.head_, &enc);
    return enc.buffer();
  }

  static Result<OnlinePeriodicityTracker> DecodeTracker(Decoder* dec) {
    PERIODICA_ASSIGN_OR_RETURN(Alphabet alphabet, DecodeAlphabet(dec));
    std::vector<std::uint64_t> periods_raw;
    PERIODICA_RETURN_NOT_OK(DecodeU64Vector(dec, &periods_raw));
    std::vector<std::size_t> periods;
    periods.reserve(periods_raw.size());
    for (const std::uint64_t p : periods_raw) {
      if (p == 0) {
        return Status::InvalidArgument("checkpoint tracker period 0");
      }
      if (!periods.empty() && periods.back() >= p) {
        return Status::InvalidArgument(
            "checkpoint tracker periods are not strictly increasing");
      }
      periods.push_back(static_cast<std::size_t>(p));
    }
    const std::size_t sigma = alphabet.size();
    PERIODICA_ASSIGN_OR_RETURN(
        OnlinePeriodicityTracker tracker,
        OnlinePeriodicityTracker::Create(std::move(alphabet), periods));
    std::uint64_t n = 0;
    PERIODICA_RETURN_NOT_OK(dec->GetU64(&n));
    std::vector<std::uint64_t> f2;
    PERIODICA_RETURN_NOT_OK(DecodeU64Vector(dec, &f2));
    std::vector<SymbolId> ring;
    std::vector<SymbolId> head;
    PERIODICA_RETURN_NOT_OK(DecodeSymbolVector(dec, sigma, &ring));
    PERIODICA_RETURN_NOT_OK(DecodeSymbolVector(dec, sigma, &head));
    if (f2.size() != tracker.f2_.size() ||
        ring.size() != tracker.ring_.size() || head.size() > ring.size()) {
      return Status::InvalidArgument(
          "checkpoint tracker table sizes are inconsistent");
    }
    const std::size_t expected_head =
        std::min<std::size_t>(n, tracker.ring_.size());
    if (head.size() != expected_head) {
      return Status::InvalidArgument(
          "checkpoint tracker head length disagrees with its stream "
          "position");
    }
    tracker.n_ = n;
    tracker.f2_ = std::move(f2);
    tracker.ring_ = std::move(ring);
    tracker.head_ = std::move(head);
    return tracker;
  }
};

}  // namespace internal

namespace {

/// Kind check + field-stream decode shared by the file and in-memory loads.
Result<StreamingPeriodDetector> DecodeDetectorPayload(
    CheckpointKind kind, const std::string& payload,
    const std::string& context) {
  if (kind != CheckpointKind::kStreamingDetector) {
    return Status::InvalidArgument(
        "'" + context + "' holds an OnlinePeriodicityTracker snapshot, not a "
        "StreamingPeriodDetector");
  }
  Decoder dec(payload);
  PERIODICA_ASSIGN_OR_RETURN(
      StreamingPeriodDetector detector,
      internal::CheckpointAccess::DecodeDetector(&dec));
  if (!dec.exhausted()) {
    return Status::InvalidArgument(
        "'" + context + "': trailing bytes after the detector payload");
  }
  return detector;
}

Result<OnlinePeriodicityTracker> DecodeTrackerPayload(
    CheckpointKind kind, const std::string& payload,
    const std::string& context) {
  if (kind != CheckpointKind::kOnlineTracker) {
    return Status::InvalidArgument(
        "'" + context + "' holds a StreamingPeriodDetector snapshot, not an "
        "OnlinePeriodicityTracker");
  }
  Decoder dec(payload);
  PERIODICA_ASSIGN_OR_RETURN(
      OnlinePeriodicityTracker tracker,
      internal::CheckpointAccess::DecodeTracker(&dec));
  if (!dec.exhausted()) {
    return Status::InvalidArgument(
        "'" + context + "': trailing bytes after the tracker payload");
  }
  return tracker;
}

}  // namespace

Status SaveCheckpoint(const StreamingPeriodDetector& detector,
                      const std::string& path) {
  PERIODICA_ASSIGN_OR_RETURN(const std::string payload,
                             internal::CheckpointAccess::EncodeDetector(
                                 detector));
  return WriteSnapshot(CheckpointKind::kStreamingDetector, payload, path);
}

Status SaveCheckpoint(const OnlinePeriodicityTracker& tracker,
                      const std::string& path) {
  return WriteSnapshot(CheckpointKind::kOnlineTracker,
                       internal::CheckpointAccess::EncodeTracker(tracker),
                       path);
}

Result<std::string> EncodeDetectorCheckpoint(
    const StreamingPeriodDetector& detector) {
  PERIODICA_ASSIGN_OR_RETURN(const std::string payload,
                             internal::CheckpointAccess::EncodeDetector(
                                 detector));
  return EncodeSnapshot(CheckpointKind::kStreamingDetector, payload);
}

Result<std::string> EncodeTrackerCheckpoint(
    const OnlinePeriodicityTracker& tracker) {
  return EncodeSnapshot(CheckpointKind::kOnlineTracker,
                        internal::CheckpointAccess::EncodeTracker(tracker));
}

Result<CheckpointKind> ProbeCheckpoint(const std::string& path) {
  std::string payload;
  return ReadSnapshot(path, &payload);
}

Result<StreamingPeriodDetector> LoadDetectorCheckpoint(
    const std::string& path) {
  std::string payload;
  PERIODICA_ASSIGN_OR_RETURN(const CheckpointKind kind,
                             ReadSnapshot(path, &payload));
  return DecodeDetectorPayload(kind, payload, path);
}

Result<OnlinePeriodicityTracker> LoadTrackerCheckpoint(
    const std::string& path) {
  std::string payload;
  PERIODICA_ASSIGN_OR_RETURN(const CheckpointKind kind,
                             ReadSnapshot(path, &payload));
  return DecodeTrackerPayload(kind, payload, path);
}

Result<StreamingPeriodDetector> DecodeDetectorCheckpoint(
    std::string_view bytes, const std::string& context) {
  std::string payload;
  PERIODICA_ASSIGN_OR_RETURN(const CheckpointKind kind,
                             ParseSnapshot(bytes, context, &payload));
  return DecodeDetectorPayload(kind, payload, context);
}

Result<OnlinePeriodicityTracker> DecodeTrackerCheckpoint(
    std::string_view bytes, const std::string& context) {
  std::string payload;
  PERIODICA_ASSIGN_OR_RETURN(const CheckpointKind kind,
                             ParseSnapshot(bytes, context, &payload));
  return DecodeTrackerPayload(kind, payload, context);
}

}  // namespace periodica
