#ifndef PERIODICA_FFT_CHUNKED_H_
#define PERIODICA_FFT_CHUNKED_H_

#include <span>
#include <vector>

namespace periodica::internal {
class CheckpointAccess;
}  // namespace periodica::internal

namespace periodica::fft {

/// Streaming autocorrelation restricted to lags 0..max_lag, computed block
/// by block with O(block + max_lag) working memory instead of O(n).
///
/// This is the in-core stand-in for the paper's external-memory remark
/// (Sect. 3.1: "an external FFT algorithm [19] can be used for large sizes
/// of databases mined while on disk"): when the interesting periods are
/// bounded, an unbounded stream can be correlated by feeding it through in
/// chunks — each block is correlated against itself plus the retained
/// max_lag-sample tail of the prefix, so every pair (i, i+d) with
/// d <= max_lag is counted exactly once. StreamingPeriodDetector
/// (core/streaming_detector.h) keeps one per symbol; the batch miner's
/// bounded-lag counts come from stage 1's lag words instead.
class BoundedLagAutocorrelator {
 public:
  /// `block_size` 0 picks max(4 * max_lag, 4096).
  explicit BoundedLagAutocorrelator(std::size_t max_lag,
                                    std::size_t block_size = 0);

  [[nodiscard]] std::size_t max_lag() const { return max_lag_; }
  [[nodiscard]] std::size_t block_size() const { return block_size_; }
  /// Samples consumed so far.
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Feeds the next chunk (any length, including empty).
  void Append(std::span<const double> chunk);

  /// The autocorrelation r[d] = sum_i x_i x_{i+d} for d = 0..max_lag over
  /// everything appended so far. May be called repeatedly; Append may
  /// continue afterwards.
  [[nodiscard]] std::vector<double> Lags() const;

 private:
  /// Checkpointing (core/checkpoint.h) snapshots and restores the private
  /// stream state.
  friend class ::periodica::internal::CheckpointAccess;

  void ProcessBuffered();
  /// Slides tail_ forward over `block` (the last <= max_lag samples of the
  /// stream so far).
  void AdvanceTail(const std::vector<double>& block);

  std::size_t max_lag_;
  std::size_t block_size_;
  std::vector<double> accumulated_;  // r[0..max_lag]
  std::vector<double> tail_;        // last <= max_lag samples of the prefix
  std::vector<double> pending_;     // buffered input < block_size
  std::size_t n_ = 0;
};

}  // namespace periodica::fft

#endif  // PERIODICA_FFT_CHUNKED_H_
