// Thread-scaling microbenchmark for the parallel mining engine: mines one
// synthetic series at several MinerOptions::num_threads values, checks the
// outputs are identical, and with --json writes the machine-readable record
// behind BENCH_parallel.json — the start of the repo's recorded perf
// trajectory.
//
//   micro_parallel                         # n = 2^18, threads 1 2 4 8
//   micro_parallel --n 1048576 --json out.json
//
// JSON schema (one object): bench, n, sigma, period, max_period, repeats,
// hardware_threads (with hardware_concurrency kept as a deprecated alias),
// results[] of {threads, wall_ms, speedup} where speedup = sequential
// wall_ms / this wall_ms (so 2.0 means twice as fast as --threads 1).
// Wall times are the minimum over --repeats runs. On a 1-thread host the
// speedup column is meaningless (every row contends for the same core), so
// the bench still runs the determinism sweep but refuses to record it: no
// JSON file is written and the process exits with status 3 (distinct from
// 0 = recorded and 1 = error) so scripts cannot silently commit a 1-thread
// baseline.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/stopwatch.h"
#include "periodica/util/table.h"

namespace periodica::bench {
namespace {

std::string FormatMs(double ms) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << ms;
  return out.str();
}

int Run(int argc, char** argv) {
  std::int64_t n = std::int64_t{1} << 18;
  std::int64_t sigma = 8;
  std::int64_t period = 25;
  std::int64_t max_period = 4096;
  std::int64_t repeats = 3;
  std::string json;  // never defaults to a committed baseline
  bool paper_scale = PaperScaleFromEnv();
  FlagSet flags("micro_parallel");
  flags.AddInt64("n", &n, "series length (default 2^18)");
  flags.AddInt64("sigma", &sigma, "alphabet size");
  flags.AddInt64("period", &period, "embedded period of the synthetic input");
  flags.AddInt64("max_period", &max_period,
                 "largest period mined (0 = n/2; bounded by default so the "
                 "positions-mode sweep stays proportional to n log n)");
  flags.AddInt64("repeats", &repeats, "runs per thread count (min is kept)");
  flags.AddString("json", &json,
                  "write machine-readable results here (default '' = "
                  "skip)");
  flags.AddBool("paper_scale", &paper_scale, "use a 1M-symbol series");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));
  if (paper_scale) n = std::int64_t{1} << 20;

  SyntheticSpec spec;
  spec.length = static_cast<std::size_t>(n);
  spec.alphabet_size = static_cast<std::size_t>(sigma);
  spec.period = static_cast<std::size_t>(period);
  spec.seed = 42;
  const SymbolSeries series =
      ApplyNoise(GeneratePerfect(spec).ValueOrDie(),
                 NoiseSpec::Replacement(0.1, /*seed=*/9))
          .ValueOrDie();
  const FftConvolutionMiner miner(series);

  MinerOptions options;
  options.threshold = 0.3;
  options.positions = true;
  options.max_period = static_cast<std::size_t>(max_period);

  // Warm up: fault in the input and populate the FFT plan cache so the
  // sequential baseline is not charged for one-time twiddle construction.
  options.num_threads = 1;
  const PeriodicityTable reference = miner.Mine(options);

  const unsigned hardware = std::thread::hardware_concurrency();
  std::cout << "micro_parallel: n = " << series.size() << ", sigma = "
            << sigma << ", period = " << period << ", max_period = "
            << max_period << ", repeats = " << repeats
            << ", hardware threads = " << hardware << "\n\n";
  const bool single_core = hardware <= 1;
  if (single_core) {
    std::cerr << "warning: this host reports 1 hardware thread; every row "
                 "below contends for the same core, so the speedup column "
                 "reads as \"no speedup\" regardless of engine quality. "
                 "The determinism sweep still runs, but no JSON is written "
                 "and the exit status is 3 — record baselines on a "
                 "multi-core host.\n\n";
  }

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<double> wall_ms;
  TextTable table({"Threads", "Wall (ms)", "Speedup vs 1"});
  for (const std::size_t threads : thread_counts) {
    options.num_threads = threads;
    double best_ms = std::numeric_limits<double>::infinity();
    for (std::int64_t rep = 0; rep < repeats; ++rep) {
      Stopwatch watch;
      const PeriodicityTable mined = miner.Mine(options);
      best_ms = std::min(best_ms, watch.ElapsedSeconds() * 1000.0);
      // The determinism guarantee, asserted at benchmark scale: parallel
      // runs must reproduce the sequential table exactly.
      PERIODICA_CHECK(mined.entries() == reference.entries());
      PERIODICA_CHECK(mined.summaries() == reference.summaries());
    }
    wall_ms.push_back(best_ms);
    table.AddRow({std::to_string(threads), FormatMs(best_ms),
                  FormatDouble(wall_ms.front() / best_ms, 2)});
  }
  table.Print(std::cout);
  std::cout << "\nSpeedup saturates at the physical core count; on a "
               "single-core host every row stays near 1.0 (determinism is "
               "still exercised). See docs/PERFORMANCE.md.\n";

  if (single_core) {
    std::cout << "skipping " << (json.empty() ? "JSON output" : json)
              << ": 1-thread host, nothing comparable to record "
                 "(exit status 3)\n";
    return 3;
  }

  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "cannot write --json file " << json << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"micro_parallel\",\n"
        << "  \"n\": " << series.size() << ",\n"
        << "  \"sigma\": " << sigma << ",\n"
        << "  \"period\": " << period << ",\n"
        << "  \"max_period\": " << max_period << ",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"hardware_threads\": " << hardware << ",\n"
        << "  \"hardware_concurrency\": " << hardware << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      out << "    {\"threads\": " << thread_counts[i] << ", \"wall_ms\": "
          << FormatMs(wall_ms[i]) << ", \"speedup\": "
          << FormatDouble(wall_ms.front() / wall_ms[i], 3) << "}"
          << (i + 1 < thread_counts.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace periodica::bench

int main(int argc, char** argv) { return periodica::bench::Run(argc, argv); }
