#ifndef PERIODICA_CORE_MEMORY_ESTIMATE_H_
#define PERIODICA_CORE_MEMORY_ESTIMATE_H_

#include <cstddef>
#include <string>

#include "periodica/core/options.h"
#include "periodica/core/stage1.h"

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
/// bitsets, stage-1 scratch, phase-split buffers, stored entries),
/// path-aware: below the lag-word/FFT crossover (core/stage1.h) stage 1
/// needs at most the pair walk's position list, not the FFT's buffers, and
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
  /// Stage-1 scratch: per-worker bound of the assumed path's buffers (the
  /// FFT's transform buffers, or the pair walk's 4n-byte position list).
  /// For the exact engine, its per-period scratch instead.
  std::size_t stage1_scratch_bytes = 0;
  /// Stage-2 phase-split scratch (positions mode only): the worst-case
  /// bit-planes and passing per-phase counts of one period group
  /// (internal::Stage2GroupBoundBytes), times the groups one window holds
  /// at once (internal::Stage2WindowGroups, capped by the periods mined).
  std::size_t stage2_scratch_bytes = 0;
  /// Detailed entry storage cap: max_entries * sizeof(SymbolPeriodicity)
  /// (positions mode only; summaries are negligible).
  std::size_t entry_bytes = 0;
  /// The stage-1 path whose scratch bounds every symbol's: kPairs below the
  /// lag-word/FFT crossover (a symbol there takes the pair walk or the
  /// scratch-free word path), kFft above it.
  internal::Stage1Path stage1_path = internal::Stage1Path::kFft;
  /// Concurrent stage-1 workers the stage-1 scratch was multiplied by.
  std::size_t workers = 1;
  /// The engine the estimate resolved (kAuto never appears here).
  MinerEngine engine = MinerEngine::kFft;

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
  /// "total 1.53 GiB (indicators 976.56 MiB, counts 4.00 MiB, stage1 512.00
  /// MiB direct x4 workers, phase-split 64.00 MiB, entries 56.00 MiB)"; the
  /// exact engine's term reads "exact-period <bytes>".
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
/// Stage-1 scratch of one symbol with `set_bits` set bits of a length-`n`
/// indicator on `path`: 4 * set_bits for the pair walk's position list,
/// none on the word path, the direct FFT's buffers on the FFT path.
[[nodiscard]] std::size_t Stage1ScratchBytes(Stage1Path path, std::size_t n,
                                             std::size_t set_bits);
/// Worst-case scratch of one period of the exact engine (stage 2 of the
/// FFT engine has its own terms, core/stage2.h).
[[nodiscard]] std::size_t ExactPeriodScratchBytes(std::size_t n);
/// Period groups whose stage-2 splits Mine runs, and holds charged, at
/// once: one window of the `workers`-thread pool (1 when sequential).
[[nodiscard]] std::size_t Stage2WindowGroups(std::size_t workers);

}  // namespace internal

}  // namespace periodica

#endif  // PERIODICA_CORE_MEMORY_ESTIMATE_H_
