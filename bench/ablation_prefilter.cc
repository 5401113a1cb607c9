// Ablation: the FFT engine's aggregate pre-filter (DESIGN.md Sect. 6).
// Candidate (period, symbol) pairs whose total FFT match count cannot
// support Definition 1 at any phase are dropped before per-phase refinement.
// This bench sweeps the periodicity threshold and reports how much
// refinement work the pre-filter saves — and verifies it is lossless by
// comparing the surviving periods against the exact engine's output.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "periodica/core/detail.h"
#include "periodica/core/exact_miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/stopwatch.h"
#include "periodica/util/table.h"

namespace periodica::bench {
namespace {

int Run(int argc, char** argv) {
  std::int64_t length = 2000;
  std::int64_t period = 25;
  double noise = 0.2;
  FlagSet flags("ablation_prefilter");
  flags.AddInt64("length", &length, "series length (symbols)");
  flags.AddInt64("period", &period, "embedded period");
  flags.AddDouble("noise", &noise, "replacement noise ratio");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));

  SyntheticSpec spec;
  spec.length = static_cast<std::size_t>(length);
  spec.alphabet_size = 10;
  spec.period = static_cast<std::size_t>(period);
  spec.seed = 4;
  SymbolSeries series = GeneratePerfect(spec).ValueOrDie();
  series = ApplyNoise(series, NoiseSpec::Replacement(noise, 5)).ValueOrDie();

  const std::size_t n = series.size();
  const std::size_t sigma = series.alphabet().size();
  const std::size_t max_period = n / 2;
  const std::size_t total_pairs = sigma * max_period;

  std::cout << "Ablation: lossless aggregate pre-filter in the FFT engine\n"
            << "n = " << n << ", sigma = " << sigma
            << ", periods 1.." << max_period << " => " << total_pairs
            << " (period, symbol) pairs before filtering\n\n";

  FftConvolutionMiner fft_miner(series);
  ExactConvolutionMiner exact_miner(series);

  std::vector<std::vector<std::uint64_t>> match_counts;
  for (std::size_t k = 0; k < sigma; ++k) {
    match_counts.push_back(
        fft_miner.MatchCounts(static_cast<SymbolId>(k), max_period));
  }

  TextTable table({"Threshold", "Survivors", "Survive %", "Detected periods",
                   "FFT time (s)", "Lossless"});
  for (const double threshold : {0.9, 0.7, 0.5, 0.3, 0.1}) {
    MinerOptions options;
    options.threshold = threshold;
    // The engine's own pre-filter decides the survivors.
    const std::size_t survivors =
        internal::PrefilterCandidates(match_counts, n, options).size();
    Stopwatch watch;
    const PeriodicityTable fft_table = fft_miner.Mine(options);
    const double seconds = watch.ElapsedSeconds();
    const PeriodicityTable exact_table = exact_miner.Mine(options);

    const bool lossless = fft_table.Periods() == exact_table.Periods() &&
                          fft_table.entries().size() ==
                              exact_table.entries().size();
    table.AddRow({FormatDouble(threshold, 1), std::to_string(survivors),
                  FormatDouble(100.0 * static_cast<double>(survivors) /
                                   static_cast<double>(total_pairs),
                               1),
                  std::to_string(fft_table.Periods().size()),
                  FormatDouble(seconds, 3), lossless ? "yes" : "NO"});
    PERIODICA_CHECK(lossless) << "pre-filter dropped a true periodicity";
  }
  table.Print(std::cout);
  std::cout << "\nReading: higher thresholds let the pre-filter discard "
               "almost every (period, symbol) pair before the per-phase "
               "refinement; at low thresholds more survive (the filter is "
               "necessarily weak at large periods) but the output stays "
               "identical to the exact engine at every threshold.\n";
  return 0;
}

}  // namespace
}  // namespace periodica::bench

int main(int argc, char** argv) { return periodica::bench::Run(argc, argv); }
