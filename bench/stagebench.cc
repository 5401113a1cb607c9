// Per-stage performance harness for the mining pipeline: times the hot
// stages separately — indicator construction, stage-1 per-symbol match
// counts (as Mine() computes them, plus the lag-word path forced under each
// available SIMD kernel) and stage-2 phase refinement,
// through the same stage functions Mine() composes (MatchCounts,
// internal::PrefilterCandidates and PhaseCounts), and the streaming
// detector's chunked bounded-lag correlator — and, with --json, writes the
// record behind BENCH_stages.json, the baseline tools/perf_gate.py gates CI
// against.
//
//   stagebench                       # full scale: n = 2^18, max_period 4096
//   stagebench --quick               # CI scale: n = 2^16, max_period 1024
//   stagebench --json out.json       # also write the JSON record
//
// Methodology (docs/PERFORMANCE.md, "Measuring: stagebench"): every stage
// runs once unrecorded to warm caches (FFT plans, twiddles, page faults),
// then --repeats recorded rounds, each timing every stage once, so each
// row's samples span the whole run; the JSON keeps every wall-clock sample
// plus min/mean/max and the minimum cycle count (util::CycleCount — see
// "cycle_counter" in the output for the unit). Stage 1 gets one row for the
// work Mine() does ("stage1_match_counts", under the active kernel), which
// records the path (pairs, lag words or FFT, core/stage1.h) each symbol
// took and the kernel's lag-word/FFT crossover, and one row per kernel
// available on this host ("stage1_lag_words", via the
// ScopedSimdKernelOverride test hook) that forces the lag-word path for
// every symbol over the first min(lags, kLagWordRowLags) lags — the one
// stage-1 path that dispatches on SIMD. Every row must produce the same
// counts over the lags it computes, and the lag-word rows' scalar-vs-best
// ratio is reported as "stage1_simd_speedup". Stage 2 does not dispatch on a
// kernel: it runs once, as Mine() does, keeping only the phases that pass
// --threshold.
//
// JSON schema: documented in bench/README.md ("BENCH_stages.json").

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
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

/// Lags the stage1_lag_words rows compute: lag words cost the same per lag,
/// so a prefix measures the kernel without the full-scale scalar row taking
/// most of the run.
constexpr std::size_t kLagWordRowLags = 512;

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
  /// The stage-1 [default] row only: the path each symbol took and the
  /// lag-word/FFT crossover of the active kernel.
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

/// A stage under test: its row, and the work one recorded sample times.
struct Stage {
  StageResult result;
  std::function<void()> body;
};

/// Appends a stage and runs its body once unrecorded (warm-up: plans,
/// twiddles and page faults land here, and the outputs later stages read
/// are computed).
void AddStage(std::vector<Stage>& stages, std::string stage,
              std::string kernel, std::function<void()> body) {
  body();
  Stage added;
  added.result.stage = std::move(stage);
  added.result.kernel = std::move(kernel);
  added.result.cycles_min = std::numeric_limits<std::uint64_t>::max();
  added.body = std::move(body);
  stages.push_back(std::move(added));
}

/// Records `repeats` rounds, each timing every stage once in order. A row's
/// samples are spread over the whole run instead of one stretch of it: on a
/// shared host whose speed drifts over seconds, back-to-back samples of one
/// stage share one speed, and their minimum swings from run to run.
void TimeRounds(std::vector<Stage>& stages, std::int64_t repeats) {
  for (std::int64_t rep = 0; rep < repeats; ++rep) {
    for (Stage& stage : stages) {
      const std::uint64_t cycles_begin = util::CycleCount();
      Stopwatch watch;
      stage.body();
      stage.result.samples_ms.push_back(watch.ElapsedSeconds() * 1000.0);
      const std::uint64_t cycles = util::CycleCount() - cycles_begin;
      stage.result.cycles_min = std::min(stage.result.cycles_min, cycles);
    }
  }
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
  flags.AddInt64("repeats", &repeats,
                 "recorded rounds of every stage (min is kept)");
  flags.AddDouble("threshold", &threshold,
                  "pre-filter threshold deciding the stage-2 candidate set");
  flags.AddBool("quick", &quick,
                "CI scale: n = 2^16, max_period = 1024, repeats = 10 "
                "(overrides --n/--max_period/--repeats)");
  flags.AddString("json", &json,
                  "write machine-readable results here (default '' = "
                  "skip)");
  PERIODICA_CHECK_OK(flags.Parse(argc, argv));
  if (quick) {
    n = std::int64_t{1} << 16;
    max_period = 1024;
    repeats = 10;
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

  std::vector<Stage> stages;

  // --- Stage 0: indicator construction (the miner's one pass). -----------
  AddStage(stages, "indicator_build", "default", [&] {
    const FftConvolutionMiner built(series);
    PERIODICA_CHECK(built.size() == length);
  });

  // The miner every later stage reads from (indicators built once, outside
  // the timed regions).
  const FftConvolutionMiner miner(series);

  // --- Stage 1: per-symbol match counts. --------------------------------
  // The [default] row is Mine()'s stage 1: MatchCounts picks each symbol's
  // path under the active kernel. The pair walk does not dispatch on SIMD,
  // so that row cannot compare kernels; the stage1_lag_words rows force the
  // lag-word path under each available kernel instead, over the first
  // lag_word_lags lags, where they must match the [default] row's counts.
  const std::size_t sigma_size = static_cast<std::size_t>(sigma);
  const std::size_t lags = max_lag + 1;
  std::vector<std::vector<std::uint64_t>> match_counts(sigma_size);
  std::vector<internal::Stage1Path> paths(sigma_size);
  const std::size_t stage1_row = stages.size();
  AddStage(stages, "stage1_match_counts", "default", [&] {
    for (std::size_t k = 0; k < sigma_size; ++k) {
      match_counts[k] =
          miner.MatchCounts(static_cast<SymbolId>(k), max_lag, &paths[k]);
    }
  });

  std::vector<DynamicBitset> indicators(sigma_size, DynamicBitset(length));
  for (std::size_t i = 0; i < length; ++i) indicators[series[i]].Set(i);
  int num_kernels = 0;
  const util::SimdKernel* kernels = util::AvailableSimdKernels(&num_kernels);
  const std::size_t lag_word_lags = std::min(lags, kLagWordRowLags);
  const std::size_t first_lag_words = stages.size();
  std::vector<std::vector<std::vector<std::uint64_t>>> kernel_counts(
      static_cast<std::size_t>(num_kernels),
      std::vector<std::vector<std::uint64_t>>(sigma_size));
  for (std::size_t ki = 0; ki < kernel_counts.size(); ++ki) {
    const util::SimdKernel kernel = kernels[ki];
    std::vector<std::vector<std::uint64_t>>& counts = kernel_counts[ki];
    AddStage(stages, "stage1_lag_words", util::SimdKernelName(kernel),
             [&, kernel] {
               const util::ScopedSimdKernelOverride forced(kernel);
               for (std::size_t k = 0; k < counts.size(); ++k) {
                 counts[k] = internal::Stage1MatchCounts(
                     indicators[k], lag_word_lags,
                     internal::Stage1Path::kLagWords);
               }
             });
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

  // --- Stage 2: phase refinement. --------------------------------------
  // Mine()'s stage 2 per period group: FftConvolutionMiner::PhaseCounts
  // sums the match mask's columns in bit-planes and returns the phases
  // that pass Definition 1 at --threshold. It is one portable word loop
  // with no SIMD dispatch, so it gets one "default" row. The checksum
  // folds every kept (phase, count) pair.
  std::uint64_t stage2_checksum = 0;
  std::size_t stage2_kept = 0;
  std::vector<internal::PhaseCount> phase_counts;
  AddStage(stages, "stage2_phase_refine", "default", [&] {
    stage2_checksum = 0;
    stage2_kept = 0;
    for (const std::span<const internal::Candidate> group : groups) {
      phase_counts.clear();
      miner.PhaseCounts(group.front().period, group, options, &phase_counts);
      stage2_kept += phase_counts.size();
      for (const internal::PhaseCount& count : phase_counts) {
        stage2_checksum =
            stage2_checksum * 1000003u +
            static_cast<std::uint64_t>(count.phase + 1) * 31u + count.f2;
      }
    }
  });

  // --- Stage 3: the chunked bounded-lag correlator. -----------------------
  AddStage(stages, "chunked_correlator", "default", [&] {
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
  });

  TimeRounds(stages, repeats);

  std::vector<StageResult> results;
  for (Stage& stage : stages) results.push_back(std::move(stage.result));
  StageResult& stage1 = results[stage1_row];
  stage1.paths = paths;
  stage1.crossover_lags =
      internal::Stage1CrossoverLags(length, util::ActiveSimdKernel());
  double stage1_scalar_min_ms = 0.0;
  double stage1_best_min_ms = 0.0;
  for (std::size_t ki = 0; ki < kernel_counts.size(); ++ki) {
    const util::SimdKernel kernel = kernels[ki];
    for (std::size_t k = 0; k < sigma_size; ++k) {
      PERIODICA_CHECK(
          std::ranges::equal(kernel_counts[ki][k],
                             std::span(match_counts[k]).first(lag_word_lags)))
          << "forced lag words under " << util::SimdKernelName(kernel)
          << " gave symbol " << k << " different stage-1 counts than the "
          << internal::Stage1PathName(paths[k]) << " path";
    }
    const double min_ms = results[first_lag_words + ki].MinMs();
    if (kernel == util::SimdKernel::kScalar) {
      stage1_scalar_min_ms = min_ms;
      if (stage1_best_min_ms == 0.0) stage1_best_min_ms = min_ms;
    } else {
      stage1_best_min_ms = min_ms;
    }
  }
  const double stage1_simd_speedup =
      stage1_best_min_ms > 0.0 ? stage1_scalar_min_ms / stage1_best_min_ms
                               : 1.0;

  TextTable table({"Stage", "Kernel", "Min (ms)", "Mean (ms)", "Max (ms)",
                   "Stage-1 paths"});
  for (const StageResult& result : results) {
    std::ostringstream paths;
    if (!result.paths.empty()) {
      for (const internal::Stage1Path path :
           {internal::Stage1Path::kPairs, internal::Stage1Path::kLagWords,
            internal::Stage1Path::kFft}) {
        paths << std::count(result.paths.begin(), result.paths.end(), path)
              << " " << internal::Stage1PathName(path)
              << (path == internal::Stage1Path::kFft ? " " : ", ");
      }
      paths << "(" << lags << " lags, crossover " << result.crossover_lags
            << ")";
    }
    table.AddRow({result.stage, result.kernel, FormatMs(result.MinMs()),
                  FormatMs(result.MeanMs()), FormatMs(result.MaxMs()),
                  paths.str()});
  }
  table.Print(std::cout);
  std::cout << "\nstage-1 lag-word SIMD speedup over scalar (min/min): "
            << FormatDouble(stage1_simd_speedup, 2) << "x\n"
            << "stage 2: " << candidates.size() << " candidates refined, "
            << stage2_kept << " phases kept (checksum " << stage2_checksum
            << ")\n";

  if (!json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "cannot write --json file " << json << "\n";
      return 1;
    }
    out << "{\n"
        << "  \"bench\": \"stagebench\",\n"
        << "  \"schema_version\": 4,\n"
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
        << "  \"stage1_simd_speedup\": "
        << FormatDouble(stage1_simd_speedup, 3) << ",\n"
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
