#include "periodica/fft/chunked.h"

#include <algorithm>

#include "periodica/fft/convolution.h"
#include "periodica/util/logging.h"

namespace periodica::fft {

namespace {

/// Adds to `acc[d]` (d = 0..max_lag) every pair (i, i+d) whose later element
/// lies in `block`, given the `tail` of retained history immediately
/// preceding it (y = tail ++ block). Two correlations cover all lags:
///  * z = CrossCorrelation(block, y), z[p] = sum_i block[i] y[i+p]: the pair
///    (y[j-d], block[j]) contributes at p = have - d, so lags d <= have come
///    from z[have - d];
///  * v = CrossCorrelation(y, block), v[q] = sum_i y[i] block[i+q]: the pair
///    (y[i], block[i+q]) sits at global distance q + have regardless of
///    whether y[i] is in the tail or the block, so lags d > have come from
///    v[d - have]. (Only reachable while the retained tail is still shorter
///    than max_lag, i.e. near the start of the stream.)
void AccumulateBlock(const std::vector<double>& tail,
                     std::span<const double> block, std::size_t max_lag,
                     std::vector<double>* acc) {
  if (block.empty()) return;
  const std::size_t have = tail.size();
  std::vector<double> joined;
  joined.reserve(have + block.size());
  joined.insert(joined.end(), tail.begin(), tail.end());
  joined.insert(joined.end(), block.begin(), block.end());
  const std::vector<double> z = CrossCorrelation(block, joined);
  const std::size_t near_lags = std::min(max_lag, have);
  for (std::size_t d = 0; d <= near_lags; ++d) {
    (*acc)[d] += z[have - d];
  }
  if (have < max_lag) {
    const std::vector<double> v = CrossCorrelation(joined, block);
    const std::size_t far_lags =
        std::min(max_lag, have + block.size() - 1);
    for (std::size_t d = have + 1; d <= far_lags; ++d) {
      (*acc)[d] += v[d - have];
    }
  }
}

}  // namespace

BoundedLagAutocorrelator::BoundedLagAutocorrelator(std::size_t max_lag,
                                                   std::size_t block_size)
    : max_lag_(max_lag),
      block_size_(block_size != 0 ? block_size
                                  : std::max<std::size_t>(4 * max_lag, 4096)),
      accumulated_(max_lag + 1, 0.0) {
  PERIODICA_CHECK_GE(block_size_, 1u);
  tail_.reserve(max_lag_);
  pending_.reserve(block_size_);
}

void BoundedLagAutocorrelator::Append(std::span<const double> chunk) {
  for (const double sample : chunk) {
    pending_.push_back(sample);
    if (pending_.size() >= block_size_) {
      ProcessBuffered();
    }
  }
}

void BoundedLagAutocorrelator::AdvanceTail(const std::vector<double>& block) {
  // Retain the last <= max_lag samples (tail ++ block) as the next tail.
  if (max_lag_ == 0) return;
  std::vector<double> next_tail;
  next_tail.reserve(max_lag_);
  if (block.size() >= max_lag_) {
    next_tail.assign(block.end() - static_cast<std::ptrdiff_t>(max_lag_),
                     block.end());
  } else {
    const std::size_t from_tail = max_lag_ - block.size();
    const std::size_t tail_start =
        tail_.size() > from_tail ? tail_.size() - from_tail : 0;
    next_tail.assign(tail_.begin() + static_cast<std::ptrdiff_t>(tail_start),
                     tail_.end());
    next_tail.insert(next_tail.end(), block.begin(), block.end());
  }
  tail_ = std::move(next_tail);
}

void BoundedLagAutocorrelator::ProcessBuffered() {
  if (pending_.empty()) return;
  AccumulateBlock(tail_, pending_, max_lag_, &accumulated_);
  AdvanceTail(pending_);
  n_ += pending_.size();
  pending_.clear();
}

std::vector<double> BoundedLagAutocorrelator::Lags() const {
  std::vector<double> result = accumulated_;
  // Account for the buffered remainder without disturbing stream state
  // (snapshot semantics; Append may continue afterwards).
  if (!pending_.empty()) {
    AccumulateBlock(tail_, pending_, max_lag_, &result);
  }
  return result;
}

}  // namespace periodica::fft
