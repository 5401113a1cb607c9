// Per-stage performance harness for the mining pipeline: times the hot
// stages separately — indicator construction, stage-1 per-symbol match
// counts and stage-2 DynamicBitset phase refinement (each once per
// available SIMD kernel, through the same stage functions Mine() composes:
// MatchCounts, internal::PrefilterCandidates and PhaseCounts), and the
// streaming detector's chunked bounded-lag correlator — and,
// with --json, writes the record behind BENCH_stages.json, the baseline
// tools/perf_gate.py gates CI against.
//
//   stagebench                       # full scale: n = 2^18, max_period 4096
//   stagebench --quick               # CI scale: n = 2^16, max_period 1024
//   stagebench --json out.json       # also write the JSON record
//
// Methodology (docs/PERFORMANCE.md, "Measuring: stagebench"): every stage
// runs once unrecorded to warm caches (FFT plans, twiddles, page faults),
// then --repeats recorded runs; the JSON keeps every wall-clock sample plus
// min/mean/max and the minimum cycle count (util::CycleCount — see
// "cycle_counter" in the output for the unit). Stages 1 and 2 run once per
// kernel available on this host via the ScopedSimdKernelOverride test hook.
// Stage 1 records which path (lag words or FFT, core/stage1.h) each symbol
// took under that kernel and the kernel's crossover lag count, and asserts
// every kernel produced the same counts; stage 2 asserts the same with a
// checksum over the phase counts, and its scalar-vs-best ratio is reported
// as "stage2_simd_speedup".
//
// JSON schema: documented in bench/README.md ("BENCH_stages.json").

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "periodica/core/detail.h"
#include "periodica/core/stage1.h"
#include "periodica/fft/chunked.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/cpu_features.h"
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

const char* ArchName() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

/// The CPU model the host reports ("unknown" where it does not), recorded
/// so a baseline names the machine it came from.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(" \t"));
    std::string escaped;  // JSON-safe: drop quotes and backslashes
    for (const char c : model) {
      if (c != '"' && c != '\\') escaped += c;
    }
    return escaped;
  }
  return "unknown";
}

/// One timed stage: every recorded wall sample plus the minimum cycle count.
struct StageResult {
  std::string stage;
  std::string kernel;  // "default" when the stage does not dispatch on SIMD
  std::vector<double> samples_ms;
  std::uint64_t cycles_min = 0;
  /// Stage 1 only: the path each symbol took and the kernel's crossover.
  std::vector<internal::Stage1Path> paths;
  std::size_t crossover_lags = 0;

  [[nodiscard]] double MinMs() const {
    return *std::min_element(samples_ms.begin(), samples_ms.end());
  }
  [[nodiscard]] double MeanMs() const {
    return std::accumulate(samples_ms.begin(), samples_ms.end(), 0.0) /
           static_cast<double>(samples_ms.size());
  }
  [[nodiscard]] double MaxMs() const {
    return *std::max_element(samples_ms.begin(), samples_ms.end());
  }
};

/// Runs `body` once unrecorded (warm-up) and `repeats` recorded times.
template <typename Body>
StageResult TimeStage(const std::string& stage, const std::string& kernel,
                      std::int64_t repeats, Body&& body) {
  StageResult result;
  result.stage = stage;
  result.kernel = kernel;
  result.cycles_min = std::numeric_limits<std::uint64_t>::max();
  body();  // warm-up: plans, twiddles, and page faults land here
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    const std::uint64_t cycles_begin = util::CycleCount();
    Stopwatch watch;
    body();
    result.samples_ms.push_back(watch.ElapsedSeconds() * 1000.0);
    const std::uint64_t cycles = util::CycleCount() - cycles_begin;
    result.cycles_min = std::min(result.cycles_min, cycles);
  }
  return result;
}

int Run(int argc, char** argv) {
  std::int64_t n = std::int64_t{1} << 18;
  // Default sigma 32: the paper's target regime is obscure patterns — rare
  // symbols over a sizeable alphabet — which makes the stage-2 match masks
  // sparse (about one match per 16 words here). Stage-2 SIMD gains are
  // density-dependent; see docs/PERFORMANCE.md for the dense-regime
  // (--sigma 8) numbers.
  std::int64_t sigma = 32;
  std::int64_t period = 25;
  std::int64_t max_period = 4096;
  std::int64_t repeats = 5;
  double threshold = 0.3;
  bool quick = false;
  std::string json;  // never defaults to a committed baseline
  FlagSet flags("stagebench");
  flags.AddInt64("n", &n, "series length (default 2^18)");
  flags.AddInt64("sigma", &sigma,
                 "alphabet size (controls stage-2 match density)");
  flags.AddInt64("period", &period, "embedded period of the synthetic input");
  flags.AddInt64("max_period", &max_period, "largest period mined");
  flags.AddInt64("repeats", &repeats, "recorded runs per stage (min is kept)");
  flags.AddDouble("threshold", &threshold,
                  "pre-filter threshold deciding the stage-2 candidate set");
  flags.AddBool("quick", &quick,
                "CI scale: n = 2^16, max_period = 1024, repeats = 3 "
                "(overrides --n/--max_period/--repeats)");
  flags.AddString("json", &json,
                  "write machine-readable results here (default '' = "
                  "skip)");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));
  if (quick) {
    n = std::int64_t{1} << 16;
    max_period = 1024;
    repeats = 3;
  }

  // Same synthetic input family as micro_parallel: a planted period with 10%
  // replacement noise, fixed seeds, so numbers are comparable run to run.
  SyntheticSpec spec;
  spec.length = static_cast<std::size_t>(n);
  spec.alphabet_size = static_cast<std::size_t>(sigma);
  spec.period = static_cast<std::size_t>(period);
  spec.seed = 42;
  const SymbolSeries series =
      ApplyNoise(GeneratePerfect(spec).ValueOrDie(),
                 NoiseSpec::Replacement(0.1, /*seed=*/9))
          .ValueOrDie();
  const std::size_t length = series.size();
  const std::size_t max_lag =
      std::min(static_cast<std::size_t>(max_period), length - 1);

  std::cout << "stagebench: n = " << length << ", sigma = " << sigma
            << ", period = " << period << ", max_period = " << max_period
            << ", threshold = " << threshold << ", repeats = " << repeats
            << (quick ? " (--quick)" : "") << "\n"
            << "host: arch = " << ArchName() << ", simd = "
            << util::SimdKernelName(util::BestSimdKernel())
            << ", cycle counter = " << util::CycleCounterName()
            << ", hardware threads = "
            << std::thread::hardware_concurrency() << "\n\n";

  std::vector<StageResult> results;

  // --- Stage 0: indicator construction (the miner's one pass). -----------
  results.push_back(TimeStage("indicator_build", "default", repeats, [&] {
    const FftConvolutionMiner built(series);
    PERIODICA_CHECK(built.size() == length);
  }));

  // The miner every later stage reads from (indicators built once, outside
  // the timed regions).
  const FftConvolutionMiner miner(series);

  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);

  // --- Stage 1: per-symbol match counts, once per available SIMD kernel. --
  // The kernel decides the path (lag words or FFT) as well as the word
  // loop's speed, so each kernel gets its own row; every kernel must
  // produce the counts the first one did.
  std::vector<std::vector<std::uint64_t>> match_counts;
  for (int ki = 0; ki < num_kernels; ++ki) {
    const util::SimdKernel kernel = kernels[ki];
    const util::ScopedSimdKernelOverride forced(kernel);
    std::vector<std::vector<std::uint64_t>> counts(
        static_cast<std::size_t>(sigma));
    std::vector<internal::Stage1Path> paths(counts.size());
    StageResult timed = TimeStage(
        "stage1_match_counts", util::SimdKernelName(kernel), repeats, [&] {
          for (std::size_t k = 0; k < counts.size(); ++k) {
            counts[k] = miner.MatchCounts(static_cast<SymbolId>(k), max_lag,
                                          &paths[k]);
          }
        });
    if (match_counts.empty()) match_counts = counts;
    PERIODICA_CHECK(counts == match_counts)
        << "kernel " << util::SimdKernelName(kernel)
        << " produced different stage-1 counts than "
        << util::SimdKernelName(kernels[0]);
    timed.paths = std::move(paths);
    timed.crossover_lags = internal::Stage1CrossoverLags(length, kernel);
    results.push_back(std::move(timed));
  }

  // Candidate derivation: Mine()'s own pre-filter at --threshold (default
  // min_period and min_pairs), so stage 2 below refines the same
  // (period, symbol) set a real --threshold mine would.
  MinerOptions options;
  options.threshold = threshold;
  const std::vector<internal::Candidate> candidates =
      internal::PrefilterCandidates(match_counts, length, options);
  const std::vector<std::span<const internal::Candidate>> groups =
      internal::PeriodGroups(candidates);

  // --- Stage 2: phase refinement, once per available SIMD kernel. --------
  // Mine()'s stage 2 per period group: FftConvolutionMiner::PhaseCounts
  // collects the matching positions with CollectAndShifted and splits them
  // into per-phase counts. The checksum folds every (phase, count) pair, so
  // a kernel that produced different positions — or a different order —
  // cannot go unnoticed.
  std::uint64_t reference_checksum = 0;
  bool have_reference = false;
  double stage2_scalar_min_ms = 0.0;
  double stage2_best_min_ms = 0.0;
  for (int ki = 0; ki < num_kernels; ++ki) {
    const util::SimdKernel kernel = kernels[ki];
    const util::ScopedSimdKernelOverride forced(kernel);
    std::uint64_t checksum = 0;
    std::vector<internal::PhaseCount> phase_counts;
    StageResult timed = TimeStage(
        "stage2_phase_refine", util::SimdKernelName(kernel), repeats, [&] {
          checksum = 0;
          for (const std::span<const internal::Candidate> group : groups) {
            phase_counts.clear();
            miner.PhaseCounts(group.front().period, group, &phase_counts);
            for (const internal::PhaseCount& count : phase_counts) {
              checksum = checksum * 1000003u +
                         static_cast<std::uint64_t>(count.phase + 1) * 31u +
                         count.f2;
            }
          }
        });
    if (!have_reference) {
      reference_checksum = checksum;
      have_reference = true;
    }
    PERIODICA_CHECK(checksum == reference_checksum)
        << "kernel " << util::SimdKernelName(kernel)
        << " produced different phase counts than "
        << util::SimdKernelName(kernels[0]);
    if (kernel == util::SimdKernel::kScalar) {
      stage2_scalar_min_ms = timed.MinMs();
      if (stage2_best_min_ms == 0.0) stage2_best_min_ms = timed.MinMs();
    } else {
      stage2_best_min_ms = timed.MinMs();
    }
    results.push_back(std::move(timed));
  }
  const double stage2_simd_speedup =
      stage2_best_min_ms > 0.0 ? stage2_scalar_min_ms / stage2_best_min_ms
                               : 1.0;

  // --- Stage 3: the chunked bounded-lag correlator. -----------------------
  results.push_back(TimeStage("chunked_correlator", "default", repeats, [&] {
    fft::BoundedLagAutocorrelator correlator(max_lag, /*block_size=*/0);
    std::vector<double> buffer;
    const std::size_t chunk =
        std::max<std::size_t>(correlator.block_size(), 4096);
    for (std::size_t start = 0; start < length;) {
      const std::size_t end = std::min(length, start + chunk);
      buffer.assign(end - start, 0.0);
      for (std::size_t i = start; i < end; ++i) {
        if (series[i] == 0) buffer[i - start] = 1.0;
      }
      correlator.Append(buffer);
      start = end;
    }
    const std::vector<double> lags = correlator.Lags();
    PERIODICA_CHECK(lags.size() == max_lag + 1);
  }));

  TextTable table({"Stage", "Kernel", "Min (ms)", "Mean (ms)", "Max (ms)",
                   "Stage-1 paths"});
  for (const StageResult& result : results) {
    std::string paths;
    if (!result.paths.empty()) {
      const auto words = static_cast<std::size_t>(
          std::count(result.paths.begin(), result.paths.end(),
                     internal::Stage1Path::kLagWords));
      paths = std::to_string(words) + " lag_words, " +
              std::to_string(result.paths.size() - words) + " fft (" +
              std::to_string(max_lag + 1) + " lags, crossover " +
              std::to_string(result.crossover_lags) + ")";
    }
    table.AddRow({result.stage, result.kernel, FormatMs(result.MinMs()),
                  FormatMs(result.MeanMs()), FormatMs(result.MaxMs()),
                  paths});
  }
  table.Print(std::cout);
  std::cout << "\nstage-2 SIMD speedup over scalar (min/min): "
            << FormatDouble(stage2_simd_speedup, 2) << "x ("
            << candidates.size() << " candidates refined)\n";

  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "cannot write --json file " << json << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"stagebench\",\n"
        << "  \"schema_version\": 2,\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"n\": " << length << ",\n"
        << "  \"sigma\": " << sigma << ",\n"
        << "  \"period\": " << period << ",\n"
        << "  \"max_period\": " << max_period << ",\n"
        << "  \"threshold\": " << FormatDouble(threshold, 6) << ",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"arch\": \"" << ArchName() << "\",\n"
        << "  \"cpu_model\": \"" << CpuModel() << "\",\n"
        << "  \"simd_detected\": \""
        << util::SimdKernelName(util::BestSimdKernel()) << "\",\n"
        << "  \"cycle_counter\": \"" << util::CycleCounterName() << "\",\n"
        << "  \"stage2_simd_speedup\": "
        << FormatDouble(stage2_simd_speedup, 3) << ",\n"
        << "  \"stages\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const StageResult& result = results[i];
      out << "    {\"stage\": \"" << result.stage << "\", \"kernel\": \""
          << result.kernel << "\", \"wall_ms\": {\"min\": "
          << FormatMs(result.MinMs()) << ", \"mean\": "
          << FormatMs(result.MeanMs()) << ", \"max\": "
          << FormatMs(result.MaxMs()) << "}, \"cycles_min\": "
          << result.cycles_min << ", \"samples_ms\": [";
      for (std::size_t s = 0; s < result.samples_ms.size(); ++s) {
        out << FormatMs(result.samples_ms[s])
            << (s + 1 < result.samples_ms.size() ? ", " : "");
      }
      out << "]";
      if (!result.paths.empty()) {
        out << ", \"crossover_lags\": " << result.crossover_lags
            << ", \"paths\": [";
        for (std::size_t k = 0; k < result.paths.size(); ++k) {
          out << "\"" << internal::Stage1PathName(result.paths[k]) << "\""
              << (k + 1 < result.paths.size() ? ", " : "");
        }
        out << "]";
      }
      out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace periodica::bench

int main(int argc, char** argv) { return periodica::bench::Run(argc, argv); }
