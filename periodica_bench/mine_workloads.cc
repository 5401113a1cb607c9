// The in-process workloads: mine_sparse and mine_dense call
// ObscureMiner::Mine directly on a seeded planted-period series.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <tuple>

#include "bench.h"
#include "periodica/core/detail.h"
#include "periodica/core/fft_miner.h"
#include "periodica/core/pattern_miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/util/bitset.h"

namespace periodica::e2e {
namespace {

constexpr std::size_t kPlantedPeriod = 25;
constexpr double kNoiseRatio = 0.1;
/// Length of the prefix mined by both engines for the exact-vs-FFT gate.
constexpr std::size_t kExactPrefix = 4096;
/// Cold set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Untimed mines between set-up and the timed loop.
constexpr int kWarmups = 2;
/// 1-thread layer replays per traced run; layer times are their medians.
constexpr int kReplays = 9;
/// Request ids of the replay spans (timed mines use their index).
constexpr std::int64_t kReplayRequest = 1000000;

struct MineSpec {
  std::size_t sigma = 0;
  std::size_t n = 0;
  std::size_t max_period = 0;
  double threshold = 0.0;
  bool patterns = false;
  /// Digest of the 1-thread table for --seed 1 (0 = none recorded).
  std::uint64_t seed1_digest = 0;
  /// Tail percentile: the highest with at least ten samples beyond it at
  /// the run length the workload is calibrated for. A 20 s run times 200
  /// mines on a quiet calibration host but only 60 on a loaded one, so p80.
  double tail = 0.8;
};

MineSpec SpecFor(const RunConfig& config) {
  MineSpec spec;
  if (config.workload == "mine_sparse") {
    // The paper's obscure regime: rare symbols over a sizeable alphabet,
    // periods far below n. Stage 1 (one FFT per symbol) dominates, so a
    // stage-1 change shows here.
    spec = {32, std::size_t{1} << 16, 1024, 0.3, false, 0xa6a22b8710b69ed8};
  } else {
    // Four symbols: stage 1 is four transforms, while dense stage-2 splits,
    // the per-period emission and the pattern stage dominate. A stage-1
    // change should leave this workload unchanged.
    spec = {4, std::size_t{1} << 16, 1024, 0.5, true, 0xbce3137e8d9f3510};
  }
  if (config.smoke) {
    spec.n = std::size_t{1} << 13;
    spec.max_period = 512;
    spec.seed1_digest = 0;
  }
  return spec;
}

SymbolSeries MakeSeries(const MineSpec& spec, std::uint64_t seed) {
  SyntheticSpec synthetic;
  synthetic.length = spec.n;
  synthetic.alphabet_size = spec.sigma;
  synthetic.period = kPlantedPeriod;
  synthetic.seed = seed;
  return ApplyNoise(GeneratePerfect(synthetic).ValueOrDie(),
                    NoiseSpec::Replacement(kNoiseRatio, seed * 7919 + 13))
      .ValueOrDie();
}

MinerOptions OptionsFor(const MineSpec& spec, std::size_t threads) {
  MinerOptions options;
  options.threshold = spec.threshold;
  options.max_period = spec.max_period;
  options.engine = MinerEngine::kFft;
  options.positions = true;
  options.num_threads = threads;
  options.mine_patterns = spec.patterns;
  if (spec.patterns) options.pattern_periods = {kPlantedPeriod};
  return options;
}

/// One cold set-up: its time and the peak resident set of the process
/// that did it.
struct ColdSetup {
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
};

/// Generates the input and runs the first mine (plan and twiddle warm-up
/// included) in a forked child, so every sample starts cold and its peak
/// memory is that of one user-visible mine. Must run while this process has
/// no other threads.
Result<ColdSetup> ColdSetupInChild(const MineSpec& spec, std::uint64_t seed,
                                   const MinerOptions& options) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IOError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    const Clock::time_point start = Clock::now();
    const SymbolSeries series = MakeSeries(spec, seed);
    const bool ok = ObscureMiner(options).Mine(series).ok();
    const ColdSetup sample{MillisSince(start) / 1000.0, SelfPeakRssMb()};
    const bool written =
        ::write(fds[1], &sample, sizeof(sample)) == sizeof(sample);
    ::_exit(ok && written ? 0 : 1);
  }
  ::close(fds[1]);
  ColdSetup sample;
  const bool read_ok =
      ::read(fds[0], &sample, sizeof(sample)) == sizeof(sample);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::IOError("cold set-up child failed");
  }
  return sample;
}

/// Runs Mine until `seconds` have passed (and at least `min_ops` times),
/// returning per-mine latencies and recording each table's digest.
std::vector<double> TimedMines(const ObscureMiner& miner,
                               const SymbolSeries& series, double seconds,
                               std::size_t min_ops, Tracer* tracer,
                               std::vector<std::uint64_t>* digests,
                               Report* report) {
  std::vector<double> latencies;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (latencies.size() < min_ops || Clock::now() < deadline) {
    report->AddAttempted(1);
    Clock::time_point start;
    std::optional<Result<MiningResult>> mined;
    {
      const Tracer::Span span = tracer->Scope(
          "mine", static_cast<std::int64_t>(latencies.size()));
      start = Clock::now();
      mined.emplace(miner.Mine(series));
    }
    const double elapsed = MillisSince(start);
    if (!mined->ok()) {
      report->AddFailed(1);
      report->Mismatch("Mine failed: " + mined->status().ToString());
      continue;
    }
    latencies.push_back(elapsed);
    digests->push_back(ResultDigest(mined->value()));
  }
  return latencies;
}

/// Per-layer medians over several replays.
MineLayerTimes MedianLayers(const std::vector<MineLayerTimes>& replays) {
  const auto median = [&](double MineLayerTimes::*field) {
    std::vector<double> values;
    for (const MineLayerTimes& replay : replays) {
      values.push_back(replay.*field);
    }
    return Median(values);
  };
  MineLayerTimes layers;
  layers.indicator_build = median(&MineLayerTimes::indicator_build);
  layers.stage1 = median(&MineLayerTimes::stage1);
  layers.prefilter = median(&MineLayerTimes::prefilter);
  layers.stage2 = median(&MineLayerTimes::stage2);
  layers.emit = median(&MineLayerTimes::emit);
  layers.pattern = median(&MineLayerTimes::pattern);
  layers.replays = replays.size();
  layers.symbol_ffts = replays.empty() ? 0 : replays.front().symbol_ffts;
  return layers;
}

MineLayerTimes Scaled(MineLayerTimes layers, double factor) {
  layers.indicator_build *= factor;
  layers.stage1 *= factor;
  layers.prefilter *= factor;
  layers.stage2 *= factor;
  layers.emit *= factor;
  layers.pattern *= factor;
  return layers;
}

template <typename Fn>
double MedianMillis(int repeats, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(MillisSince(start));
  }
  return Median(samples);
}

}  // namespace

Result<MineReplay> ReplayMine(const SymbolSeries& series,
                              const MinerOptions& options, Tracer* tracer,
                              std::int64_t request) {
  const Tracer::Span root = tracer->Scope("core.mine_replay", request);
  MineReplay replay;
  const std::size_t n = series.size();
  const std::size_t sigma = series.alphabet().size();
  std::optional<FftConvolutionMiner> miner;
  {
    const Tracer::Span span = tracer->Scope("core.indicator_build", request);
    miner.emplace(series);
  }
  std::size_t max_period = options.max_period == 0 ? n / 2
                                                   : options.max_period;
  max_period = std::min(max_period, n - 1);
  const std::size_t min_period = std::max<std::size_t>(options.min_period, 1);
  // The miner's own bitsets are private; stage 2 walks a copy built here,
  // outside every layer span.
  std::vector<DynamicBitset> indicators(sigma, DynamicBitset(n));
  for (std::size_t i = 0; i < n; ++i) indicators[series[i]].Set(i);

  std::vector<std::vector<std::uint64_t>> match_counts(sigma);
  {
    const Tracer::Span span = tracer->Scope("fft.stage1", request);
    for (std::size_t k = 0; k < sigma; ++k) {
      if (indicators[k].Count() == 0) continue;
      const Tracer::Span fft = tracer->Scope("fft.match_counts", request);
      match_counts[k] =
          miner->MatchCounts(static_cast<SymbolId>(k), max_period);
    }
  }

  struct Candidate {
    std::size_t period;
    SymbolId symbol;
  };
  std::vector<Candidate> candidates;
  {
    // The lossless aggregate pre-filter, exactly as FftConvolutionMiner
    // applies it.
    const Tracer::Span span = tracer->Scope("core.prefilter", request);
    for (std::size_t k = 0; k < sigma; ++k) {
      const std::vector<std::uint64_t>& counts = match_counts[k];
      for (std::size_t p = min_period; p < counts.size(); ++p) {
        if (counts[p] == 0) continue;
        if ((n + p - 1) / p - 1 < options.min_pairs) continue;
        const double min_pairs =
            static_cast<double>(internal::MinPairCount(n, p));
        if (static_cast<double>(counts[p]) + 1e-9 <
            options.threshold * min_pairs) {
          continue;
        }
        candidates.push_back(Candidate{p, static_cast<SymbolId>(k)});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tie(a.period, a.symbol) <
                       std::tie(b.period, b.symbol);
              });
  }
  replay.candidates = candidates.size();
  replay.pairs_examined =
      sigma * (max_period >= min_period ? max_period - min_period + 1 : 0);

  PeriodicityTable table;
  std::vector<std::size_t> positions;
  std::vector<std::uint64_t> phase_counts;
  std::vector<internal::PhaseCount> group_counts;
  for (std::size_t start = 0; start < candidates.size();) {
    const std::size_t p = candidates[start].period;
    std::size_t end = start;
    while (end < candidates.size() && candidates[end].period == p) ++end;
    group_counts.clear();
    {
      const Tracer::Span span = tracer->Scope("util.bitset.stage2", request);
      phase_counts.assign(p, 0);
      for (std::size_t c = start; c < end; ++c) {
        const DynamicBitset& indicator = indicators[candidates[c].symbol];
        positions.clear();
        indicator.CollectAndShifted(indicator, p, &positions);
        replay.matches += positions.size();
        std::fill(phase_counts.begin(), phase_counts.end(), 0);
        std::size_t base = 0;
        for (const std::size_t i : positions) {
          if (i - base >= p) base = i - base >= 2 * p ? i - (i % p) : base + p;
          ++phase_counts[i - base];
        }
        for (std::size_t phase = 0; phase < p; ++phase) {
          if (phase_counts[phase] == 0) continue;
          group_counts.push_back(internal::PhaseCount{
              candidates[c].symbol, phase, phase_counts[phase]});
        }
      }
    }
    {
      const Tracer::Span span = tracer->Scope("core.emit", request);
      internal::EmitPeriod(n, p, group_counts, options, &table);
    }
    start = end;
  }
  {
    const Tracer::Span span = tracer->Scope("core.emit", request);
    table.SortCanonical();
  }
  replay.result.periodicities = std::move(table);
  replay.result.series_length = n;
  replay.result.alphabet_size = sigma;
  replay.result.engine_used = MinerEngine::kFft;
  if (!options.mine_patterns) return replay;

  // ObscureMiner's pattern stage over the requested periods.
  const Tracer::Span span = tracer->Scope("core.pattern", request);
  std::vector<std::size_t> periods = options.pattern_periods;
  if (periods.empty()) periods = replay.result.periodicities.Periods();
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
  PatternMinerOptions pattern_options;
  pattern_options.min_support = options.pattern_threshold > 0.0
                                    ? options.pattern_threshold
                                    : options.threshold;
  PatternSet& patterns = replay.result.patterns;
  for (const std::size_t period : periods) {
    if (period >= n) continue;
    const std::vector<std::vector<SymbolId>> sets =
        replay.result.periodicities.SymbolSets(period);
    if (std::all_of(sets.begin(), sets.end(),
                    [](const auto& set) { return set.empty(); })) {
      continue;
    }
    if (patterns.size() >= options.max_patterns) {
      patterns.set_truncated(true);
      break;
    }
    pattern_options.max_patterns = options.max_patterns - patterns.size();
    PERIODICA_ASSIGN_OR_RETURN(
        const PatternSet set,
        MinePatternsForPeriod(series, period, sets, pattern_options));
    for (const ScoredPattern& scored : set.patterns()) patterns.Add(scored);
    if (set.truncated()) patterns.set_truncated(true);
  }
  patterns.SortCanonical();
  return replay;
}

MineLayerTimes MineLayers(const std::map<std::string, Tracer::Totals>& spans) {
  const auto self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ms;
  };
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  const auto count = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? std::size_t{0} : it->second.count;
  };
  MineLayerTimes layers;
  layers.indicator_build = self("core.indicator_build");
  layers.stage1 = total("fft.stage1");
  layers.prefilter = self("core.prefilter");
  layers.stage2 = self("util.bitset.stage2");
  layers.emit = self("core.emit");
  layers.pattern = self("core.pattern");
  layers.replays = count("core.mine_replay");
  layers.symbol_ffts = count("fft.match_counts");
  return layers;
}

Status RunMineWorkload(const RunConfig& config, Report* report) {
  const MineSpec spec = SpecFor(config);
  const MinerOptions options = OptionsFor(spec, config.mine_threads);
  MinerOptions one_thread = options;
  one_thread.num_threads = 1;

  // Set-up: input generation plus the first mine, each sample in a fresh
  // child process (run before this process starts any thread).
  std::vector<double> setups;
  std::vector<double> peaks;
  for (int i = 0; i < kSetupRepeats; ++i) {
    PERIODICA_ASSIGN_OR_RETURN(const ColdSetup sample,
                               ColdSetupInChild(spec, config.seed, options));
    setups.push_back(sample.seconds);
    peaks.push_back(sample.peak_rss_mb);
  }
  report->Set("setup_s", Median(setups), "s", setups.size());
  report->Set("rss_mb", Median(peaks), "MB", peaks.size());

  const SymbolSeries series = MakeSeries(spec, config.seed);
  const ObscureMiner miner(options);
  for (int i = 0; i < kWarmups; ++i) {
    if (const Result<MiningResult> warm = miner.Mine(series); !warm.ok()) {
      return warm.status();
    }
  }

  Tracer untraced(false);
  std::vector<std::uint64_t> digests;
  const std::size_t min_ops = config.smoke ? 3 : 10;
  std::vector<double> references;
  TimeReferenceKernel(&references);
  const std::vector<double> latencies = TimedMines(
      miner, series, config.seconds, min_ops, &untraced, &digests, report);
  TimeReferenceKernel(&references);
  report->Set("host.reference_ms", Median(references), "ms",
              references.size());
  double total_ms = 0.0;
  for (const double latency : latencies) total_ms += latency;
  const double p50 = Median(latencies);
  report->Set("op_p50_ms", p50, "ms", latencies.size());
  report->Set("op_tail_ms", Percentile(latencies, spec.tail), "ms",
              latencies.size());
  report->Set("ops_per_s",
              static_cast<double>(latencies.size()) / (total_ms / 1000.0),
              "1/s", latencies.size());

  // Correctness: every timed table equals the 1-thread table, which equals
  // the digest recorded for seed 1, and the exact engine agrees with the
  // FFT engine on a prefix.
  const std::optional<Result<MiningResult>> reference(
      ObscureMiner(one_thread).Mine(series));
  report->AddAttempted(1);
  if (!reference->ok()) {
    report->AddFailed(1);
    report->Mismatch("1-thread Mine failed: " +
                     reference->status().ToString());
    return Status::OK();
  }
  const std::uint64_t digest = ResultDigest(reference->value());
  std::printf("%s: 1-thread table digest %s (%zu entries)\n",
              config.workload.c_str(), HexDigest(digest).c_str(),
              reference->value().periodicities.entries().size());
  for (const std::uint64_t timed : digests) {
    if (timed != digest) {
      report->Mismatch("a " + std::to_string(config.mine_threads) +
                       "-thread table differs from the 1-thread table");
      break;
    }
  }
  if (config.seed == 1 && spec.seed1_digest != 0 &&
      digest != spec.seed1_digest) {
    report->Mismatch("seed-1 digest " + HexDigest(digest) +
                     " differs from the recorded " +
                     HexDigest(spec.seed1_digest));
  }
  {
    std::vector<SymbolId> head(series.data().begin(),
                               series.data().begin() +
                                   std::min(kExactPrefix, series.size()));
    const SymbolSeries prefix(series.alphabet(), std::move(head));
    MinerOptions exact = one_thread;
    exact.mine_patterns = false;
    exact.max_period = std::min(spec.max_period, prefix.size() / 2);
    exact.engine = MinerEngine::kExact;
    MinerOptions fft = exact;
    fft.engine = MinerEngine::kFft;
    const Result<MiningResult> by_exact = ObscureMiner(exact).Mine(prefix);
    const Result<MiningResult> by_fft = ObscureMiner(fft).Mine(prefix);
    report->AddAttempted(2);
    if (!by_exact.ok() || !by_fft.ok() ||
        ResultDigest(by_exact.value()) != ResultDigest(by_fft.value())) {
      report->Mismatch("exact and FFT engines disagree on the " +
                       std::to_string(prefix.size()) + "-symbol prefix");
    }
  }
  if (!config.trace) return Status::OK();

  // Traced run: the same timed loop with a span per mine gives the tracing
  // overhead; the 1-thread replay gives the per-layer self times.
  Tracer tracer(true);
  std::vector<std::uint64_t> traced_digests;
  const std::vector<double> traced = TimedMines(
      miner, series, config.seconds / 2, min_ops, &tracer, &traced_digests,
      report);
  report->Set("trace_overhead_frac", Median(traced) / p50 - 1.0, "frac",
              traced.size());

  // 1-thread Mine, the run's T-thread Mine and the layer replay alternate,
  // so machine drift hits every side alike; shares are medians over the
  // replays.
  std::vector<MineLayerTimes> replays;
  std::vector<MineLayerTimes> shares;
  std::vector<double> one_thread_samples;
  std::vector<double> threaded_samples;
  MineReplay work;
  for (int r = 0; r < kReplays; ++r) {
    const double one_thread_ms =
        MedianMillis(1, [&] { (void)ObscureMiner(one_thread).Mine(series); });
    threaded_samples.push_back(
        MedianMillis(1, [&] { (void)miner.Mine(series); }));
    const std::int64_t request = kReplayRequest + r;
    Result<MineReplay> replay =
        ReplayMine(series, one_thread, &tracer, request);
    report->AddAttempted(1);
    if (!replay.ok() || ResultDigest(replay.value().result) != digest) {
      report->Mismatch("the layer replay's table differs from Mine's");
      return Status::OK();
    }
    const MineLayerTimes layers = MineLayers(tracer.Summarize(request));
    replays.push_back(layers);
    shares.push_back(Scaled(layers, 1.0 / one_thread_ms));
    one_thread_samples.push_back(one_thread_ms);
    work = std::move(replay.value());
  }
  const MineLayerTimes layers = MedianLayers(replays);
  const MineLayerTimes share = MedianLayers(shares);
  const double one_thread_ms = Median(one_thread_samples);

  // Stage 1 against stage 2 at the run's thread count.
  const FftConvolutionMiner built(series);
  MinerOptions detect_only = options;
  detect_only.positions = false;
  const double detect_only_ms =
      MedianMillis(3, [&] { (void)built.Mine(detect_only); });
  const double positions_ms =
      MedianMillis(3, [&] { (void)built.Mine(options); });

  report->Set("core.indicator_build_share", share.indicator_build, "frac",
              kReplays);
  report->Set("fft.stage1_share", share.stage1, "frac", kReplays);
  report->Set("core.prefilter_share", share.prefilter, "frac", kReplays);
  report->Set("util.bitset.stage2_share", share.stage2, "frac", kReplays);
  report->Set("core.emit_share", share.emit, "frac", kReplays);
  report->Set("core.pattern_share", share.pattern, "frac", kReplays);
  report->Set("residual_share", 1.0 - share.Sum(), "frac", kReplays);
  report->Set("core.replay_coverage", share.Sum(), "frac", kReplays);
  report->Set("core.prefilter_candidates",
              static_cast<double>(work.candidates), "count", 1);
  report->Set("core.prefilter_survival",
              static_cast<double>(work.candidates) /
                  static_cast<double>(work.pairs_examined),
              "frac", 1);
  report->Set("util.bitset.match_density",
              work.candidates == 0
                  ? 0.0
                  : static_cast<double>(work.matches) /
                        (static_cast<double>(work.candidates) *
                         static_cast<double>(series.size())),
              "frac", 1);
  report->Set("core.entries",
              static_cast<double>(work.result.periodicities.entries().size()),
              "count", 1);
  report->Set("core.parallel_efficiency",
              one_thread_ms / (static_cast<double>(config.mine_threads) *
                               Median(threaded_samples)),
              "frac", threaded_samples.size());
  // Absolute layer times, printed and kept in the result file.
  report->Set("core.mine_1t_ms", one_thread_ms, "ms", kReplays);
  report->Set("core.indicator_build_ms", layers.indicator_build, "ms", 1);
  report->Set("fft.stage1_ms", layers.stage1, "ms", 1);
  report->Set("fft.stage1_ms_per_symbol",
              layers.symbol_ffts == 0
                  ? 0.0
                  : layers.stage1 / static_cast<double>(layers.symbol_ffts),
              "ms", layers.symbol_ffts);
  report->Set("core.prefilter_ms", layers.prefilter, "ms", 1);
  report->Set("util.bitset.stage2_ms", layers.stage2, "ms", 1);
  report->Set("core.emit_ms", layers.emit, "ms", 1);
  report->Set("core.pattern_ms", layers.pattern, "ms", 1);
  report->Set("core.detect_only_ms", detect_only_ms, "ms", 3);
  report->Set("core.refine_emit_ms", positions_ms - detect_only_ms, "ms", 3);
  for (const MetricSpec& spec_metric : PerLayerMetrics()) {
    // Serving layers are off this workload's path.
    if (!report->Has(spec_metric.name)) {
      report->Set(spec_metric.name, 0.0, spec_metric.unit, 0);
    }
  }
  if (!config.out_dir.empty()) {
    PERIODICA_RETURN_NOT_OK(tracer.WriteChromeTrace(
        config.out_dir + "/trace_" + config.workload + ".json"));
  }
  return Status::OK();
}

}  // namespace periodica::e2e
