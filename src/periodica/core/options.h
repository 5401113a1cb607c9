#ifndef PERIODICA_CORE_OPTIONS_H_
#define PERIODICA_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "periodica/util/cancellation.h"
#include "periodica/util/memory_budget.h"

namespace periodica {

/// Which convolution engine evaluates the mining.
enum class MinerEngine {
  /// Exact bitset engine for small inputs, FFT engine otherwise.
  kAuto,
  /// The paper's literal algorithm: the weighted self-convolution of the
  /// sigma*n binary vector, evaluated exactly with bitset arithmetic.
  /// O(sigma * n^2 / 64); ground truth for tests and small series.
  kExact,
  /// The production engine: one real FFT per symbol computes every shift's
  /// match count at once (O(sigma * n log n)); candidate periods are then
  /// refined in-memory to exact Definition-1 entries.
  kFft,
};

/// Options for ObscureMiner (see miner.h). Defaults follow the paper:
/// periods range over 1..n/2 and detection uses the periodicity threshold
/// psi.
struct MinerOptions {
  /// The periodicity threshold psi of Definition 1, in (0, 1].
  double threshold = 0.5;

  /// Periods examined are min_period..max_period. max_period == 0 means n/2
  /// (the paper's loop bound).
  std::size_t min_period = 1;
  std::size_t max_period = 0;

  /// Minimum number of consecutive-occurrence opportunities
  /// (ceil((n-l)/p) - 1) a phase must offer to count as evidence. The
  /// paper's definition corresponds to 1, where a projection with a single
  /// pair reaches any threshold from one chance repetition — the source of
  /// its hard-to-explain large periods (e.g. the 123-day CIMEG period).
  /// Raising this filters those trivially-supported periods.
  std::size_t min_pairs = 1;

  MinerEngine engine = MinerEngine::kAuto;

  /// kAuto switches from the exact engine to the FFT engine above this
  /// length.
  std::size_t auto_engine_cutoff = 2048;

  /// Worker threads for the FFT engine's independent sub-problems: the
  /// per-symbol autocorrelation FFTs and the per-period W_{p,k} -> W_{p,k,l}
  /// phase splits each run as their own task, merged back in a fixed order.
  /// 0 = one worker per hardware thread, 1 = fully sequential (the default,
  /// and the pre-parallel behavior). Output is byte-identical for every
  /// value — only wall time changes (see docs/PERFORMANCE.md). The exact
  /// engine and the pattern stage ignore this field.
  std::size_t num_threads = 1;

  /// Cooperative cancellation for long mines (not owned; may be null). The
  /// engines poll the token at their stage boundaries — between per-symbol
  /// FFTs, between period groups — and stop cleanly when it trips: Mine
  /// still succeeds, returns everything finished so far, and flags the
  /// result partial (MiningResult::partial, rendered in the report).
  /// Periods already emitted are exact; later periods are simply absent.
  const util::CancellationToken* cancellation = nullptr;

  /// Wall-clock budget for one Mine call in milliseconds, measured from
  /// entry (0 = unlimited). Same clean-stop semantics as `cancellation`;
  /// both may be set, whichever trips first wins.
  std::size_t deadline_ms = 0;

  /// Per-request working-memory cap in bytes (0 = unlimited). Enforced
  /// twice: ObscureMiner::Mine rejects upfront — with the full
  /// MineMemoryEstimate breakdown in the error — any request whose predicted
  /// peak exceeds the cap, and the FFT engine additionally charges its
  /// actual stage allocations against the cap mid-flight, so a request that
  /// outgrows its prediction fails with ResourceExhausted instead of
  /// swelling the process (see core/memory_estimate.h).
  std::size_t memory_budget_bytes = 0;

  /// Optional process-global memory pool shared by concurrent Mine calls
  /// (not owned; may be null). The engines reserve their allocations here
  /// too, so the *sum* of concurrent requests stays bounded: when the pool
  /// runs dry the request that overflowed it fails with ResourceExhausted
  /// and every other request keeps its memory. A serving layer typically
  /// also pre-reserves the fixed (indicator) bytes at admission time.
  util::MemoryBudget* memory_budget = nullptr;

  /// When true (default), the result carries exact per-(symbol, position)
  /// entries (Definition 1) for every candidate period. When false, only
  /// per-period summaries with aggregate upper-bound confidences are
  /// produced — the detection phase the paper times in Fig. 5, O(n log n).
  bool positions = true;

  /// Safety cap on stored detailed entries; summaries are unaffected. When
  /// the cap trips, PeriodicityTable::truncated() is set.
  std::size_t max_entries = 1u << 20;

  /// When positive, detected periodicities are additionally screened
  /// against the i.i.d. null (see core/significance.h): entries whose
  /// binomial upper-tail probability exceeds this p-value are dropped and
  /// summaries are rebuilt. 0 disables screening (the paper's behavior).
  /// Requires positions mode.
  double significance_p_value = 0.0;

  /// When true, the miner also forms candidate periodic patterns
  /// (Definitions 2 and 3) and estimates their supports.
  bool mine_patterns = false;

  /// Periods to mine patterns for; empty means every detected period.
  std::vector<std::size_t> pattern_periods;

  /// Minimum pattern support; 0 means use `threshold`.
  double pattern_threshold = 0.0;

  /// Cap on emitted patterns (the Cartesian product of Definition 3 can be
  /// combinatorial); PatternSet::truncated() reports a trip.
  std::size_t max_patterns = 100000;
};

}  // namespace periodica

#endif  // PERIODICA_CORE_OPTIONS_H_
