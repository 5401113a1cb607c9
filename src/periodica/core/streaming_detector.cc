#include "periodica/core/streaming_detector.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "periodica/core/detail.h"
#include "periodica/util/logging.h"

namespace periodica {

StreamingPeriodDetector::StreamingPeriodDetector(Alphabet alphabet,
                                                 Options options)
    : alphabet_(std::move(alphabet)), options_(options) {
  correlators_.reserve(alphabet_.size());
  for (std::size_t k = 0; k < alphabet_.size(); ++k) {
    correlators_.emplace_back(options_.max_period, options_.block_size);
  }
}

Result<StreamingPeriodDetector> StreamingPeriodDetector::Create(
    Alphabet alphabet, Options options) {
  if (alphabet.size() == 0) {
    return Status::InvalidArgument("alphabet must be non-empty");
  }
  if (options.max_period < 1) {
    return Status::InvalidArgument("max_period must be >= 1");
  }
  return StreamingPeriodDetector(std::move(alphabet), options);
}

std::size_t StreamingPeriodDetector::EstimateMemoryBytes(
    std::size_t alphabet_size, const Options& options) {
  // Mirrors BoundedLagAutocorrelator storage (fft/chunked.h): accumulated
  // lags r[0..max_lag], the retained max_lag-sample tail, and up to one
  // block of buffered input, all doubles.
  const std::size_t block = options.block_size != 0
                                ? options.block_size
                                : std::max<std::size_t>(
                                      4 * options.max_period, 4096);
  const std::size_t per_symbol_doubles =
      (options.max_period + 1) + options.max_period + block;
  return alphabet_size * per_symbol_doubles * sizeof(double) +
         alphabet_size * sizeof(fft::BoundedLagAutocorrelator);
}

void StreamingPeriodDetector::Append(SymbolId symbol) {
  PERIODICA_DCHECK(static_cast<std::size_t>(symbol) < alphabet_.size());
  for (std::size_t k = 0; k < correlators_.size(); ++k) {
    const double value = k == static_cast<std::size_t>(symbol) ? 1.0 : 0.0;
    correlators_[k].Append(std::span<const double>(&value, 1));
  }
  ++n_;
}

Status StreamingPeriodDetector::Consume(SeriesStream* stream) {
  if (stream == nullptr) {
    return Status::InvalidArgument("stream must not be null");
  }
  if (!(stream->alphabet() == alphabet_)) {
    return Status::InvalidArgument(
        "stream alphabet differs from the detector's");
  }
  while (const std::optional<SymbolId> symbol = stream->Next()) {
    if (static_cast<std::size_t>(*symbol) >= alphabet_.size()) {
      return Status::InvalidArgument(
          "out-of-alphabet symbol " +
          std::to_string(static_cast<std::size_t>(*symbol)) +
          " at stream position " + std::to_string(n_) + " (alphabet has " +
          std::to_string(alphabet_.size()) + " symbols)");
    }
    Append(*symbol);
  }
  return stream->status();
}

PeriodicityTable StreamingPeriodDetector::Detect(double threshold,
                                                 std::size_t min_period,
                                                 std::size_t min_pairs) const {
  PeriodicityTable table;
  if (n_ < 2) return table;
  // The FFT engine's periods-only mode over the bounded lags: each
  // correlator's lag sums, rounded to match counts, go through the engine's
  // pre-filter and aggregate summaries.
  const std::size_t lags = std::min(options_.max_period, n_ - 1) + 1;
  std::vector<std::vector<std::uint64_t>> match_counts(correlators_.size());
  for (std::size_t k = 0; k < correlators_.size(); ++k) {
    const std::vector<double> raw = correlators_[k].Lags();
    match_counts[k].resize(std::min(lags, raw.size()));
    for (std::size_t p = 0; p < match_counts[k].size(); ++p) {
      match_counts[k][p] = static_cast<std::uint64_t>(
          std::max<long long>(std::llround(raw[p]), 0));
    }
  }
  MinerOptions options;
  options.threshold = threshold;
  options.min_period = min_period;
  options.min_pairs = min_pairs;
  const std::vector<internal::Candidate> candidates =
      internal::PrefilterCandidates(match_counts, n_, options);
  for (const std::span<const internal::Candidate> group :
       internal::PeriodGroups(candidates)) {
    table.AddSummary(internal::AggregateSummary(n_, group));
  }
  PERIODICA_DCHECK(table.IsCanonical());
  return table;
}

}  // namespace periodica
