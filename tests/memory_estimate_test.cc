#include "periodica/core/memory_estimate.h"

#include <string>

#include <gtest/gtest.h>

#include "periodica/core/miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/series/stream.h"
#include "periodica/util/memory_budget.h"

namespace periodica {
namespace {

SymbolSeries PeriodicSeries(std::size_t n, std::size_t period) {
  SyntheticSpec spec;
  spec.length = n;
  spec.period = period;
  spec.alphabet_size = 4;
  spec.seed = 42;
  SymbolSeries series = GeneratePerfect(spec).value();
  return ApplyNoise(series, NoiseSpec::Replacement(0.1)).value();
}

TEST(MemoryEstimateTest, ExactEngineModeledBelowCutoff) {
  MinerOptions options;  // kAuto, cutoff 2048
  const MineMemoryEstimate estimate = EstimateMineMemory(1000, 4, options);
  EXPECT_EQ(estimate.workers, 1u);
  // sigma*n bits rounded to words: ceil(4000/64)*8 = 504 bytes.
  EXPECT_EQ(estimate.indicator_bytes, 504u);
  EXPECT_GT(estimate.stage1_scratch_bytes, 0u);
  EXPECT_EQ(estimate.counts_bytes, 0u) << "exact engine keeps no count table";
  EXPECT_GE(estimate.total_bytes(), estimate.fixed_bytes());
}

TEST(MemoryEstimateTest, FftEngineScalesWithLengthAndWorkers) {
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.num_threads = 1;
  const MineMemoryEstimate one = EstimateMineMemory(100000, 4, options);
  options.num_threads = 4;
  const MineMemoryEstimate four = EstimateMineMemory(100000, 4, options);
  EXPECT_EQ(four.workers, 4u);
  EXPECT_GT(four.stage1_scratch_bytes, one.stage1_scratch_bytes);
  EXPECT_EQ(four.indicator_bytes, one.indicator_bytes)
      << "indicators are shared, not per-worker";

  const MineMemoryEstimate longer = EstimateMineMemory(400000, 4, options);
  EXPECT_GT(longer.indicator_bytes, four.indicator_bytes);
  EXPECT_GT(longer.stage1_scratch_bytes, four.stage1_scratch_bytes);
}

TEST(MemoryEstimateTest, WorkersNeverExceedAlphabet) {
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.num_threads = 16;
  const MineMemoryEstimate estimate = EstimateMineMemory(100000, 3, options);
  EXPECT_LE(estimate.workers, 3u);
}

TEST(MemoryEstimateTest, WordPathChargesNoStage1Scratch) {
  // max_period 128 of n = 2^20 is far below the crossover: stage 1 runs
  // shifted AND-popcounts over the indicators and allocates no transform.
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.max_period = 128;
  options.num_threads = 4;
  const MineMemoryEstimate estimate = EstimateMineMemory(1u << 20, 4, options);
  EXPECT_TRUE(estimate.lag_words);
  EXPECT_EQ(estimate.stage1_scratch_bytes, 0u);
  EXPECT_NE(estimate.ToString().find("lag-words"), std::string::npos);
}

TEST(MemoryEstimateTest, PeriodsOnlyDropsStage2Terms) {
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.positions = false;
  const MineMemoryEstimate estimate = EstimateMineMemory(100000, 4, options);
  EXPECT_EQ(estimate.stage2_scratch_bytes, 0u);
  EXPECT_EQ(estimate.entry_bytes, 0u);
}

TEST(MemoryEstimateTest, EntryBytesBoundedByDataNotJustCap) {
  // A small request cannot produce max_entries entries; the estimate must
  // use the closed-form data bound, or modest budgets would reject it.
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  const MineMemoryEstimate small = EstimateMineMemory(1000, 4, options);
  EXPECT_LT(small.entry_bytes,
            options.max_entries * sizeof(SymbolPeriodicity));
}

TEST(MemoryEstimateTest, ToStringNamesEveryTerm) {
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  const std::string text = EstimateMineMemory(100000, 4, options).ToString();
  EXPECT_NE(text.find("total"), std::string::npos);
  EXPECT_NE(text.find("indicators"), std::string::npos);
  EXPECT_NE(text.find("fft"), std::string::npos);
  EXPECT_NE(text.find("entries"), std::string::npos);
}

// --- End-to-end budget enforcement through ObscureMiner ---

TEST(MinerBudgetTest, UpfrontRejectionCarriesEstimate) {
  const SymbolSeries series = PeriodicSeries(20000, 7);
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.memory_budget_bytes = 1024;  // absurdly small
  const Result<MiningResult> result = ObscureMiner(options).Mine(series);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_NE(result.status().message().find("estimated peak memory"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("indicators"), std::string::npos)
      << "the rejection names the per-stage breakdown: "
      << result.status().message();
}

TEST(MinerBudgetTest, GenerousBudgetDoesNotChangeResults) {
  const SymbolSeries series = PeriodicSeries(6000, 13);
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  const Result<MiningResult> bare = ObscureMiner(options).Mine(series);
  ASSERT_TRUE(bare.ok());

  options.memory_budget_bytes = 1u << 30;
  util::MemoryBudget pool(1u << 30);
  options.memory_budget = &pool;
  const Result<MiningResult> budgeted = ObscureMiner(options).Mine(series);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_EQ(budgeted.value().periodicities.entries(),
            bare.value().periodicities.entries())
      << "budget accounting must not perturb detection";
  EXPECT_EQ(pool.used(), 0u) << "every charge must be released";
  EXPECT_GT(pool.high_water(), 0u) << "the mine did charge the pool";
}

TEST(MinerBudgetTest, WordPathFitsBelowTheDirectFftScratch) {
  // A budget too small for one 2n-double transform buffer still admits a
  // small-max_period mine: the word path never allocates that buffer.
  const SymbolSeries series = PeriodicSeries(1u << 16, 7);
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.max_period = 64;
  options.positions = false;
  const MineMemoryEstimate estimate =
      EstimateMineMemory(series.size(), 4, options);
  ASSERT_TRUE(estimate.lag_words);
  options.memory_budget_bytes = estimate.total_bytes();
  ASSERT_LT(options.memory_budget_bytes, 8 * series.size())
      << "the budget must not fit the FFT's input copy alone";
  const Result<MiningResult> result = ObscureMiner(options).Mine(series);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result.value().periodicities.summaries().empty());
}

TEST(MinerBudgetTest, PoolCappedAtTheEstimateAdmitsEveryThreadCount) {
  // A constant series is stage 2's worst case: every position matches at
  // every lag, so each period group's phase split charges close to its
  // Stage2GroupBoundBytes bound, and a parallel mine holds a whole
  // window of groups charged at once. The estimate must cover that at
  // every worker count, whatever the alphabet.
  constexpr std::size_t kLength = std::size_t{1} << 14;
  for (const std::size_t sigma : {1u, 2u}) {
    SymbolSeries series(Alphabet::Latin(sigma));
    for (std::size_t i = 0; i < kLength; ++i) series.Append(0);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      MinerOptions options;
      options.engine = MinerEngine::kFft;
      options.max_period = 512;
      options.num_threads = threads;
      const MineMemoryEstimate estimate =
          EstimateMineMemory(series.size(), sigma, options);
      util::MemoryBudget pool(estimate.total_bytes());
      options.memory_budget = &pool;
      const Result<MiningResult> result = ObscureMiner(options).Mine(series);
      EXPECT_TRUE(result.ok())
          << "sigma " << sigma << ", " << threads << " threads, estimate "
          << estimate.ToString() << ": " << result.status();
      EXPECT_EQ(pool.used(), 0u);
    }
  }
}

TEST(MemoryEstimateTest, Stage2TermTracksThePoolHighWater) {
  // The estimate bounds each stage-2 group by max_period, sigma and
  // bit_width(n), not by n, so at 8 threads (a window of 32 groups) it
  // stays within 2x of what a constant series really holds at peak.
  constexpr std::size_t kLength = std::size_t{1} << 16;
  SymbolSeries series(Alphabet::Latin(1));
  for (std::size_t i = 0; i < kLength; ++i) series.Append(0);
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  options.max_period = 1024;
  options.num_threads = 8;
  const MineMemoryEstimate estimate =
      EstimateMineMemory(series.size(), 1, options);
  util::MemoryBudget pool(0);  // unlimited; records the high water
  options.memory_budget = &pool;
  const Result<MiningResult> result = ObscureMiner(options).Mine(series);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(estimate.total_bytes(), pool.high_water()) << estimate.ToString();
  EXPECT_LT(estimate.total_bytes(), 2 * pool.high_water())
      << estimate.ToString() << " vs high water " << pool.high_water();
}

TEST(MinerBudgetTest, SharedPoolExhaustionFailsMidFlight) {
  const SymbolSeries series = PeriodicSeries(6000, 13);
  MinerOptions options;
  options.engine = MinerEngine::kFft;
  // No per-request cap (so no upfront rejection); the shared pool is nearly
  // full, as if other requests held it — the charge itself must fail.
  util::MemoryBudget pool(1u << 30);
  ASSERT_TRUE(pool.TryReserve((1u << 30) - 1000, "other requests").ok());
  options.memory_budget = &pool;
  const Result<MiningResult> result = ObscureMiner(options).Mine(series);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  pool.Release((1u << 30) - 1000);
  EXPECT_EQ(pool.used(), 0u) << "the failed mine leaked its charges";
}

TEST(MinerBudgetTest, ExactEngineEnforcesBudgetToo) {
  const SymbolSeries series = PeriodicSeries(1500, 7);
  MinerOptions options;
  options.engine = MinerEngine::kExact;
  options.memory_budget_bytes = 512;
  const Result<MiningResult> result = ObscureMiner(options).Mine(series);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(MinerBudgetTest, StreamingMineHonorsBudget) {
  const SymbolSeries series = PeriodicSeries(20000, 7);
  MinerOptions options;
  options.memory_budget_bytes = 1024;
  VectorStream stream(series);
  const Result<MiningResult> result = ObscureMiner(options).Mine(&stream);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

}  // namespace
}  // namespace periodica
