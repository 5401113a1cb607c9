#ifndef PERIODICA_CORE_MEMORY_ESTIMATE_H_
#define PERIODICA_CORE_MEMORY_ESTIMATE_H_

#include <cstddef>
#include <string>

#include "periodica/core/options.h"

namespace periodica {

/// Predicted peak working memory of one Mine call, broken down by stage so a
/// rejection message can say *what* is too big. The estimate exists for
/// admission control: a serving process checks it against the per-request
/// cap and the process-global pool *before* allocating anything, so an
/// oversized request (the sigma*n-bit expansion can reach multi-GB) fails
/// with a precise ResourceExhausted instead of OOM-killing every other
/// request's in-flight state.
///
/// The numbers are upper bounds on the dominant allocations (indicator
/// bitsets, FFT scratch, phase-split buffers, stored entries), path-aware:
/// the stage-1 word path (core/stage1.h) needs no FFT scratch, and
/// periods-only mode drops the stage-2 terms entirely. Control-block
/// overhead is not modeled;
/// docs/SERVING.md derives the capacity-planning formula from these terms.
struct MineMemoryEstimate {
  /// Per-symbol indicator bitsets: sigma * ceil(n/64) words. Live for the
  /// whole call (and for the miner's lifetime when it is kept for reuse).
  std::size_t indicator_bytes = 0;
  /// Aggregate match-count vectors, sigma * (max_period + 1) u64s. Live
  /// from stage 1 until the call returns.
  std::size_t counts_bytes = 0;
  /// Stage-1 FFT scratch: per-worker transform buffers (zero on the word
  /// path).
  std::size_t stage1_scratch_bytes = 0;
  /// Stage-2 phase-split scratch (positions mode only): the worst-case
  /// bit-planes and passing per-phase counts of one period group
  /// (internal::Stage2GroupBoundBytes), times the groups one window holds
  /// at once (internal::Stage2WindowGroups, capped by the periods mined).
  std::size_t stage2_scratch_bytes = 0;
  /// Detailed entry storage cap: max_entries * sizeof(SymbolPeriodicity)
  /// (positions mode only; summaries are negligible).
  std::size_t entry_bytes = 0;
  /// True when the stage-1 word path (shifted AND-popcount per lag) was
  /// assumed.
  bool lag_words = false;
  /// Concurrent stage-1 workers the FFT scratch was multiplied by.
  std::size_t workers = 1;

  /// Allocations held for the whole call: indicators + counts.
  [[nodiscard]] std::size_t fixed_bytes() const {
    return indicator_bytes + counts_bytes;
  }
  /// Peak: fixed + the worst single stage + entries (entries accumulate
  /// while stage 2 scratch is still live, so the two add).
  [[nodiscard]] std::size_t total_bytes() const {
    const std::size_t stage2 = stage2_scratch_bytes + entry_bytes;
    return fixed_bytes() +
           (stage1_scratch_bytes > stage2 ? stage1_scratch_bytes : stage2);
  }

  /// One-line breakdown for error messages and the stats endpoint, e.g.
  /// "total 1.53 GiB (indicators 976.56 MiB, counts 4.00 MiB, fft 512.00
  /// MiB direct x4 workers, phase-split 64.00 MiB, entries 56.00 MiB)".
  [[nodiscard]] std::string ToString() const;
};

/// Estimates the peak working memory of mining a length-`n` series over a
/// `sigma`-symbol alphabet with `options` (engine selection included: the
/// exact engine's bit-parallel scratch is modeled when it would run).
[[nodiscard]] MineMemoryEstimate EstimateMineMemory(std::size_t n,
                                                    std::size_t sigma,
                                                    const MinerOptions& options);

namespace internal {

/// These per-stage terms are shared with the engines' mid-flight budget
/// charges, so what the estimate predicts is exactly what Mine reserves.
///
/// Per-task stage-1 scratch of the FFT engine for lags 0..max_period
/// (max_period < n): none when Stage1UsesLagWords picks the word path for
/// the active SIMD kernel, else the direct FFT's.
[[nodiscard]] std::size_t Stage1ScratchBytes(std::size_t n,
                                             std::size_t max_period);
/// Worst-case scratch of one period of the exact engine (stage 2 of the
/// FFT engine has its own terms, core/stage2.h).
[[nodiscard]] std::size_t ExactPeriodScratchBytes(std::size_t n);
/// Period groups whose stage-2 splits Mine runs, and holds charged, at
/// once: one window of the `workers`-thread pool (1 when sequential).
[[nodiscard]] std::size_t Stage2WindowGroups(std::size_t workers);

}  // namespace internal

}  // namespace periodica

#endif  // PERIODICA_CORE_MEMORY_ESTIMATE_H_
