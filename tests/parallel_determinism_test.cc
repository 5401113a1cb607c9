// Determinism contract of the parallel mining engine: for any
// MinerOptions::num_threads, the miner's output — entries, summaries,
// truncation flag, and the rendered report text — is byte-identical to the
// sequential (num_threads = 1) run. The tests run the pool well
// oversubscribed (8 workers) so TSan sees real concurrency in the ctest
// matrix regardless of the host's core count.

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/core/exact_miner.h"
#include "periodica/core/fft_miner.h"
#include "periodica/core/miner.h"
#include "periodica/core/report.h"
#include "periodica/gen/synthetic.h"

namespace periodica {
namespace {

/// A noisy periodic series large enough that both mining stages have real
/// work to spread across workers.
SymbolSeries NoisySeries(std::size_t length, std::size_t alphabet_size,
                         std::size_t period) {
  SyntheticSpec spec;
  spec.length = length;
  spec.alphabet_size = alphabet_size;
  spec.period = period;
  spec.seed = 42;
  auto perfect = GeneratePerfect(spec);
  EXPECT_TRUE(perfect.ok());
  auto noisy = ApplyNoise(*perfect, NoiseSpec::Replacement(0.2, /*seed=*/9));
  EXPECT_TRUE(noisy.ok());
  return *noisy;
}

std::string RenderedReport(const SymbolSeries& series,
                           const MinerOptions& options) {
  auto result = ObscureMiner(options).Mine(series);
  EXPECT_TRUE(result.ok()) << result.status();
  std::ostringstream out;
  ReportOptions report;
  report.format = ReportFormat::kCsv;
  EXPECT_TRUE(
      RenderMiningResult(*result, series.alphabet(), report, out).ok());
  return out.str();
}

void ExpectTablesIdentical(const PeriodicityTable& sequential,
                           const PeriodicityTable& parallel,
                           const std::string& label) {
  EXPECT_EQ(sequential.entries(), parallel.entries()) << label;
  EXPECT_EQ(sequential.summaries(), parallel.summaries()) << label;
  EXPECT_EQ(sequential.truncated(), parallel.truncated()) << label;
}

TEST(ParallelDeterminismTest, PositionsModeMatchesSequential) {
  const SymbolSeries series = NoisySeries(4096, 6, 25);
  const FftConvolutionMiner miner(series);
  MinerOptions options;
  options.threshold = 0.3;
  const PeriodicityTable sequential = miner.Mine(options);
  EXPECT_FALSE(sequential.entries().empty());
  for (const std::size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    ExpectTablesIdentical(sequential, miner.Mine(options),
                          "num_threads = " + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, PeriodsOnlyModeMatchesSequential) {
  const SymbolSeries series = NoisySeries(4096, 6, 25);
  const FftConvolutionMiner miner(series);
  MinerOptions options;
  options.threshold = 0.3;
  options.positions = false;
  const PeriodicityTable sequential = miner.Mine(options);
  EXPECT_FALSE(sequential.summaries().empty());
  for (const std::size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    ExpectTablesIdentical(sequential, miner.Mine(options),
                          "num_threads = " + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, MaxEntriesTruncationPointIsStable) {
  // The entry cap trips mid-period on this input; the truncation point (and
  // the truncated flag) must not depend on worker scheduling.
  const SymbolSeries series = NoisySeries(2048, 4, 12);
  const FftConvolutionMiner miner(series);
  MinerOptions options;
  options.threshold = 0.2;
  options.max_entries = 17;
  const PeriodicityTable sequential = miner.Mine(options);
  EXPECT_TRUE(sequential.truncated());
  EXPECT_EQ(sequential.entries().size(), 17u);
  for (const std::size_t threads : {2u, 8u}) {
    options.num_threads = threads;
    ExpectTablesIdentical(sequential, miner.Mine(options),
                          "num_threads = " + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, MaxEntriesCutKeepsTheFirstEntriesInCountOrder) {
  // Both engines test a period's phases in (symbol, phase) order and cut at
  // max_entries in that order; only the kept entries are then ordered
  // canonically. So a cap inside a period keeps the first max_entries
  // entries in (period, symbol, position) order — not the first ones in
  // canonical order — at every worker count. Summaries are never cut.
  const SymbolSeries series = NoisySeries(2048, 4, 12);
  const FftConvolutionMiner fft_miner(series);
  const ExactConvolutionMiner exact_miner(series);
  MinerOptions options;
  options.threshold = 0.2;
  const PeriodicityTable full = fft_miner.Mine(options);
  ASSERT_FALSE(full.truncated());
  std::vector<SymbolPeriodicity> count_order = full.entries();
  std::sort(count_order.begin(), count_order.end(),
            [](const SymbolPeriodicity& a, const SymbolPeriodicity& b) {
              return std::tie(a.period, a.symbol, a.position) <
                     std::tie(b.period, b.symbol, b.position);
            });
  // Caps at the first symbol boundaries inside a period, and one past each:
  // the cut keeps a symbol's phases and none, or one, of the next symbol's.
  std::vector<std::size_t> caps;
  for (std::size_t i = 1; i < count_order.size() && caps.size() < 4; ++i) {
    if (count_order[i].period == count_order[i - 1].period &&
        count_order[i].symbol != count_order[i - 1].symbol) {
      caps.push_back(i);
      caps.push_back(i + 1);
    }
  }
  ASSERT_EQ(caps.size(), 4u);
  bool cut_order_matters = false;
  for (const std::size_t cap : caps) {
    std::vector<SymbolPeriodicity> expected(count_order.begin(),
                                            count_order.begin() + cap);
    std::sort(expected.begin(), expected.end(), CanonicalOrder{});
    const std::vector<SymbolPeriodicity> canonical_prefix(
        full.entries().begin(), full.entries().begin() + cap);
    cut_order_matters |= canonical_prefix != expected;
    options.max_entries = cap;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      options.num_threads = threads;
      const std::string label = "max_entries = " + std::to_string(cap) +
                                ", num_threads = " + std::to_string(threads);
      for (const PeriodicityTable& table :
           {fft_miner.Mine(options), exact_miner.Mine(options)}) {
        EXPECT_EQ(table.entries(), expected) << label;
        EXPECT_EQ(table.summaries(), full.summaries()) << label;
        EXPECT_TRUE(table.truncated()) << label;
      }
    }
  }
  // Cutting after a canonical sort would have kept different entries.
  EXPECT_TRUE(cut_order_matters);
}

TEST(ParallelDeterminismTest, RenderedReportIsByteIdenticalAcrossThreads) {
  const SymbolSeries series = NoisySeries(4096, 6, 25);
  MinerOptions options;
  options.threshold = 0.3;
  options.engine = MinerEngine::kFft;
  options.num_threads = 1;
  const std::string sequential = RenderedReport(series, options);
  EXPECT_FALSE(sequential.empty());
  for (const std::size_t threads : {0u, 2u, 8u}) {
    options.num_threads = threads;
    EXPECT_EQ(sequential, RenderedReport(series, options))
        << "num_threads = " << threads;
  }
}

TEST(ParallelDeterminismTest, StreamPathMatchesSequential) {
  const SymbolSeries series = NoisySeries(4096, 6, 25);
  MinerOptions options;
  options.threshold = 0.3;
  const ObscureMiner miner(options);
  VectorStream sequential_stream(series);
  auto sequential = miner.Mine(&sequential_stream);
  ASSERT_TRUE(sequential.ok());
  for (const std::size_t threads : {2u, 8u}) {
    MinerOptions parallel_options = options;
    parallel_options.num_threads = threads;
    VectorStream stream(series);
    auto parallel = ObscureMiner(parallel_options).Mine(&stream);
    ASSERT_TRUE(parallel.ok());
    ExpectTablesIdentical(sequential->periodicities, parallel->periodicities,
                          "num_threads = " + std::to_string(threads));
  }
}

}  // namespace
}  // namespace periodica
