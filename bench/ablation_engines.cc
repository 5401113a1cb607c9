// Ablation: exact bitset engine vs FFT engine (DESIGN.md Sect. 6). The
// exact engine evaluates the paper's weighted convolution with bitset
// arithmetic (O(sigma n^2 / 64)); the FFT engine is O(sigma n log n) plus
// refinement. This bench measures where the FFT engine overtakes the exact
// one (n = 512 on the host EXPERIMENTS.md reports); it does not set
// MinerOptions::auto_engine_cutoff, which also decides whether periods-only
// output carries exact summaries.

#include <iostream>
#include <string>

#include "bench_util.h"
#include "periodica/core/exact_miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/stopwatch.h"
#include "periodica/util/table.h"

namespace periodica::bench {
namespace {

int Run(int argc, char** argv) {
  std::int64_t min_length = 256;
  std::int64_t max_length = 16384;
  double threshold = 0.5;
  FlagSet flags("ablation_engines");
  flags.AddInt64("min_length", &min_length, "smallest series length");
  flags.AddInt64("max_length", &max_length, "largest series length");
  flags.AddDouble("threshold", &threshold, "periodicity threshold");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));

  std::cout << "Ablation: exact bitset engine vs FFT engine "
               "(full-detection time, periods 1..n/2)\n\n";
  TextTable table({"n", "Exact (s)", "FFT (s)", "Exact/FFT", "Equal output"});
  for (std::int64_t n = min_length; n <= max_length; n *= 2) {
    SyntheticSpec spec;
    spec.length = static_cast<std::size_t>(n);
    spec.alphabet_size = 10;
    spec.period = 25;
    spec.seed = 6;
    SymbolSeries series = GeneratePerfect(spec).ValueOrDie();
    series = ApplyNoise(series, NoiseSpec::Replacement(0.2, 7)).ValueOrDie();

    MinerOptions options;
    options.threshold = threshold;

    Stopwatch exact_watch;
    const PeriodicityTable exact = ExactConvolutionMiner(series).Mine(options);
    const double exact_seconds = exact_watch.ElapsedSeconds();

    Stopwatch fft_watch;
    const PeriodicityTable fft = FftConvolutionMiner(series).Mine(options);
    const double fft_seconds = fft_watch.ElapsedSeconds();

    const bool equal = exact.entries().size() == fft.entries().size() &&
                       exact.Periods() == fft.Periods();
    table.AddRow({std::to_string(n), FormatDouble(exact_seconds, 4),
                  FormatDouble(fft_seconds, 4),
                  FormatDouble(exact_seconds / fft_seconds, 2),
                  equal ? "yes" : "NO"});
    PERIODICA_CHECK(equal);
  }
  table.Print(std::cout);
  std::cout << "\nReading: the quadratic engine keeps up only on the "
               "shortest series and loses increasingly badly as n grows. "
               "The kAuto cutoff (2048) stays above the crossover because "
               "it also picks exact (exact engine) or aggregate-bound (FFT "
               "engine) summaries in periods-only mode.\n";
  return 0;
}

}  // namespace
}  // namespace periodica::bench

int main(int argc, char** argv) { return periodica::bench::Run(argc, argv); }
