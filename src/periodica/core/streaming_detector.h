#ifndef PERIODICA_CORE_STREAMING_DETECTOR_H_
#define PERIODICA_CORE_STREAMING_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "periodica/core/periodicity.h"
#include "periodica/fft/chunked.h"
#include "periodica/series/alphabet.h"
#include "periodica/series/stream.h"
#include "periodica/util/result.h"

namespace periodica {

namespace internal {
class CheckpointAccess;
}  // namespace internal

/// One-pass candidate-period detection over an unbounded stream in bounded
/// memory — the paper's data-streams motivation taken to its limit. The
/// FFT engine already reads the input once but keeps the per-symbol
/// indicator vectors (O(sigma * n) bits); this detector keeps only a
/// BoundedLagAutocorrelator per symbol, O(sigma * (block + max_period))
/// doubles *total*, independent of the stream length.
///
/// Because the stream is never stored, per-position refinement is
/// impossible: Detect() returns the periods-only table with aggregate
/// upper-bound confidences — exactly the detection phase the paper times in
/// Fig. 5, and exactly what FftConvolutionMiner produces with
/// `positions = false` (equality is property-tested). Feed the candidates
/// into an OnlinePeriodicityTracker to recover exact per-position statistics
/// from that point in the stream onward.
class StreamingPeriodDetector {
 public:
  struct Options {
    /// Largest period detectable; fixes the memory budget.
    std::size_t max_period = 0;
    /// Chunk size for the bounded correlators (0 = max(4*max_period, 4096)).
    std::size_t block_size = 0;
  };

  static Result<StreamingPeriodDetector> Create(Alphabet alphabet,
                                                Options options);

  /// Upper bound on the resident working memory of a detector created with
  /// `options` over an `alphabet_size`-symbol alphabet. Because the sketch
  /// is bounded by construction — per symbol one accumulated-lag vector, a
  /// max_period-sample tail and at most one buffered block — the bound is
  /// independent of how much stream is fed, so a session table can charge a
  /// session's bytes once at creation and trust the figure forever
  /// (serve/session_table.h layers per-tenant quotas on exactly this).
  [[nodiscard]] static std::size_t EstimateMemoryBytes(
      std::size_t alphabet_size, const Options& options);

  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }
  [[nodiscard]] std::size_t max_period() const { return options_.max_period; }
  [[nodiscard]] const Options& options() const { return options_; }
  /// Symbols consumed so far.
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Feeds the next symbol; `symbol` must belong to the alphabet (use
  /// Consume, or a ResilientStream, for unvalidated input).
  void Append(SymbolId symbol);

  /// Drains `stream` to exhaustion. Fails with InvalidArgument on an
  /// alphabet mismatch or an out-of-alphabet symbol (carrying the stream
  /// position) and propagates the stream's own error if it dies mid-read;
  /// symbols consumed before the failure remain incorporated, so a caller
  /// may checkpoint and retry with a fresh source.
  Status Consume(SeriesStream* stream);

  /// Candidate periods over everything consumed so far: every period in
  /// [min_period, max_period] some symbol's aggregate match count could
  /// satisfy Definition 1 at threshold `threshold` (the lossless aggregate
  /// criterion of the FFT engine). Summaries carry upper-bound confidences
  /// and are flagged `aggregate_only`.
  [[nodiscard]] PeriodicityTable Detect(double threshold,
                                        std::size_t min_period = 1,
                                        std::size_t min_pairs = 1) const;

 private:
  /// Checkpoint/resume (core/checkpoint.h) snapshots and restores the
  /// private state.
  friend class internal::CheckpointAccess;

  StreamingPeriodDetector(Alphabet alphabet, Options options);

  Alphabet alphabet_;
  Options options_;
  std::vector<fft::BoundedLagAutocorrelator> correlators_;  // one per symbol
  std::size_t n_ = 0;  ///< symbols consumed
};

}  // namespace periodica

#endif  // PERIODICA_CORE_STREAMING_DETECTOR_H_
