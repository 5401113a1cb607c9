#include "periodica/core/memory_estimate.h"

#include <algorithm>

#include "periodica/core/periodicity.h"
#include "periodica/core/stage1.h"
#include "periodica/core/stage2.h"
#include "periodica/util/cpu_features.h"
#include "periodica/util/memory_budget.h"
#include "periodica/util/thread_pool.h"

namespace periodica {

namespace {

std::size_t NextPowerOfTwoBytes(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::size_t DirectFftScratchBytes(std::size_t n) {
  // Autocorrelation(): the input copy (n doubles), the zero-padded real
  // buffer (padded doubles), the half-spectrum (padded/2+1 complex = ~padded
  // doubles) and the inverse output (padded doubles), padded =
  // NextPowerOfTwo(2n) <= 4n.
  const std::size_t padded = NextPowerOfTwoBytes(2 * std::max<std::size_t>(n, 1));
  return 8 * n + 3 * 8 * padded;
}

}  // namespace

namespace internal {

std::size_t Stage1ScratchBytes(std::size_t n, std::size_t max_period) {
  if (Stage1UsesLagWords(n, max_period + 1, util::ActiveSimdKernel())) {
    return 0;
  }
  return DirectFftScratchBytes(n);
}

std::size_t ExactPeriodScratchBytes(std::size_t n) {
  // One period of the exact engine: matched bit positions (<= n size_t,
  // since at most n positions can match one lag across all symbols), their
  // (symbol, phase) keys, and the PhaseCount output.
  return 2 * 8 * n + 24 * n;
}

std::size_t Stage2WindowGroups(std::size_t workers) {
  return workers > 1 ? 4 * workers : 1;
}

std::size_t MaxPossibleEntries(std::size_t n, std::size_t sigma,
                               std::size_t min_period,
                               std::size_t max_period) {
  // Period p contributes at most min(p * sigma, n) entries: one per
  // (position < p, symbol) pair, but also no more than one per position of
  // the series that matches at lag p. Summed in closed form with the
  // crossover at t = n / sigma; evaluated in floating point and clamped, as
  // the true value only matters when it is *small*.
  if (max_period < min_period || sigma == 0) return 0;
  const auto f = [](long double x) { return x * (x + 1) / 2; };
  const std::size_t t = n / sigma;
  long double total = 0;
  const std::size_t ramp_end = std::min(max_period, t);
  if (ramp_end >= min_period) {
    total += static_cast<long double>(sigma) *
             (f(static_cast<long double>(ramp_end)) -
              f(static_cast<long double>(min_period) - 1));
  }
  if (max_period > t) {
    total += static_cast<long double>(n) *
             static_cast<long double>(max_period - std::max(t, min_period - 1));
  }
  constexpr long double kCap = 1e18L;
  return total > kCap ? static_cast<std::size_t>(kCap)
                      : static_cast<std::size_t>(total);
}

}  // namespace internal

MineMemoryEstimate EstimateMineMemory(std::size_t n, std::size_t sigma,
                                      const MinerOptions& options) {
  MineMemoryEstimate estimate;
  if (n == 0 || sigma == 0) return estimate;

  std::size_t max_period = options.max_period == 0 ? n / 2 : options.max_period;
  max_period = std::min(max_period, n > 0 ? n - 1 : 0);
  const std::size_t min_period = std::max<std::size_t>(options.min_period, 1);
  const std::size_t threads =
      util::ThreadPool::ResolveThreadCount(options.num_threads);

  MinerEngine engine = options.engine;
  if (engine == MinerEngine::kAuto) {
    engine = n <= options.auto_engine_cutoff ? MinerEngine::kExact
                                             : MinerEngine::kFft;
  }

  estimate.indicator_bytes = sigma * ((n + 63) / 64) * 8;

  if (engine == MinerEngine::kExact) {
    // The exact engine walks one sigma*n-bit mapping (counted as the
    // indicator term) with per-period scratch: matched bit positions + keys
    // (<= sigma*n matches of 8 bytes each in the worst case) + counts.
    estimate.workers = 1;  // the exact engine is sequential
    estimate.counts_bytes = 0;
    estimate.indicator_bytes = ((sigma * n + 63) / 64) * 8;
    estimate.stage1_scratch_bytes = internal::ExactPeriodScratchBytes(n);
    estimate.stage2_scratch_bytes = 0;
  } else {
    const std::size_t workers =
        std::min<std::size_t>(threads, std::max<std::size_t>(sigma, 1));
    estimate.workers = workers;
    estimate.counts_bytes = sigma * (max_period + 1) * 8;
    const std::size_t per_task = internal::Stage1ScratchBytes(n, max_period);
    estimate.lag_words = per_task == 0;
    estimate.stage1_scratch_bytes = per_task * workers;
    if (options.positions) {
      // Stage 2 runs one task per period group, not per symbol, so its
      // concurrency is the window over the whole pool, not min(threads,
      // sigma); there are never more groups than periods mined.
      const std::size_t periods =
          max_period >= min_period ? max_period - min_period + 1 : 0;
      const std::size_t groups =
          std::min(internal::Stage2WindowGroups(threads), periods);
      estimate.stage2_scratch_bytes =
          internal::Stage2GroupBoundBytes(n, sigma, max_period) * groups;
    }
  }
  if (options.positions) {
    estimate.entry_bytes =
        std::min(options.max_entries,
                 internal::MaxPossibleEntries(n, sigma, min_period,
                                              max_period)) *
        sizeof(SymbolPeriodicity);
  }
  return estimate;
}

std::string MineMemoryEstimate::ToString() const {
  std::string out = "total " + util::FormatBytes(total_bytes()) +
                    " (indicators " + util::FormatBytes(indicator_bytes);
  if (counts_bytes != 0) {
    out += ", counts " + util::FormatBytes(counts_bytes);
  }
  out += ", fft " + util::FormatBytes(stage1_scratch_bytes) +
         (lag_words ? " lag-words" : " direct") +
         " x" + std::to_string(workers) + " workers";
  if (stage2_scratch_bytes != 0) {
    out += ", phase-split " + util::FormatBytes(stage2_scratch_bytes);
  }
  if (entry_bytes != 0) {
    out += ", entries " + util::FormatBytes(entry_bytes);
  }
  out += ")";
  return out;
}

}  // namespace periodica
