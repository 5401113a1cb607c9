#ifndef PERIODICA_BENCH_E2E_BENCH_H_
#define PERIODICA_BENCH_E2E_BENCH_H_

// Shared pieces of periodica_bench (README.md in this directory): the run
// configuration, the metric report, span tracing, percentiles, result
// digests, child processes and the wire client the serving workloads use.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "periodica/core/miner.h"
#include "periodica/util/json.h"
#include "periodica/util/result.h"
#include "periodica/util/status.h"
#include "periodica/util/tcp.h"
#include "unix_socket.h"

namespace periodica::e2e {

using util::JsonValue;
using Clock = std::chrono::steady_clock;

/// Everything one invocation needs to run one workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run
  bool trace = false;     ///< traced run: report the per-layer metrics
  bool smoke = false;     ///< ~1 s scale through the same code paths
  std::string out_dir;    ///< result and trace files ("" = none)
  std::string work_dir;   ///< server state; removed when the run ends
  /// min(4, hardware threads): load threads and connections.
  std::size_t threads = 1;
  /// min(2, hardware threads): MinerOptions::num_threads of the in-process
  /// workloads. On the calibration host (four shared vCPUs) four mining
  /// threads spread 12% from run to run, two spread 6-9%.
  std::size_t mine_threads = 1;
};

/// A metric name with its unit and the direction that counts as better.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
};

/// The end-to-end metrics every workload reports with tracing off, and the
/// per-layer metrics every workload reports with tracing on. BENCHMARK.json
/// lists exactly these; the smoke run fails when one is missing.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Percentile p in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Collects metric values, operation counts and correctness failures for
/// one workload run, then renders the human table, the result file and the
/// one-line result the benchmark prints last.
class Report {
 public:
  /// Records `name`. `samples` is how many measurements the value rests on.
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  [[nodiscard]] bool Has(const std::string& name) const;
  [[nodiscard]] double Value(const std::string& name) const;

  void AddAttempted(std::uint64_t count) { attempted_ += count; }
  void AddFailed(std::uint64_t count) { failed_ += count; }
  /// Records a correctness failure; the run then exits non-zero.
  void Mismatch(const std::string& what);
  [[nodiscard]] bool correct() const { return mismatches_.empty(); }

  /// Names of `specs` this report has not set.
  [[nodiscard]] std::vector<std::string> Missing(
      const std::vector<MetricSpec>& specs) const;

  /// One line per metric: name, value, unit, sample count.
  [[nodiscard]] std::string Table() const;
  /// The last stdout line: correct, attempted, failed and the metrics of
  /// `specs` (end-to-end or per-layer).
  [[nodiscard]] std::string ResultLine(
      const std::vector<MetricSpec>& specs) const;
  /// Every metric with its unit and samples, plus the run's settings.
  [[nodiscard]] JsonValue ToJson(const RunConfig& config) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> mismatches_;
};

/// Spans recorded in the benchmark's own code around calls into each layer:
/// name, start, end, parent span and request id, kept in memory and written
/// as a Chrome trace-event file. Disabled tracers record nothing.
///
/// Thread-safety: Begin/End may be called from several threads; a span's
/// parent is the innermost span open on the calling thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span: ends when destroyed.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, std::int64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  [[nodiscard]] Span Scope(const char* name, std::int64_t request = -1) {
    return Span(this, name, request);
  }

  /// Self and total time per span name, in milliseconds, over every span
  /// or only those of `request`.
  struct Totals {
    double self_ms = 0.0;
    double total_ms = 0.0;
    std::size_t count = 0;
  };
  static constexpr std::int64_t kAllRequests = -2;
  [[nodiscard]] std::map<std::string, Totals> Summarize(
      std::int64_t request = kAllRequests) const;

  /// Writes every span as a Chrome trace-event ("X" phase) JSON file.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int64_t parent;
    std::int64_t request;
    std::uint32_t thread;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::int64_t Begin(const char* name, std::int64_t request);
  void End(std::int64_t index);

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// FNV-1a digest of a mining result: entries, summaries, patterns and flags.
/// Equal digests mean byte-identical tables.
std::uint64_t ResultDigest(const MiningResult& result);
std::string HexDigest(std::uint64_t digest);

double MillisSince(Clock::time_point start);

/// Times a fixed reference kernel, made of bench-owned code only (no
/// periodica call), 16 times (~0.3 s) and appends each time in ms. Every
/// run does this right before and right after its measured phase and
/// reports the median as `host.reference_ms`: the speed of the host at the
/// time, so that drift of a shared host between two sets of runs can be
/// told apart from a change to the code.
void TimeReferenceKernel(std::vector<double>* samples_ms);

/// Peak resident set of this process (ru_maxrss) in MiB.
double SelfPeakRssMb();

/// A server process started in `cwd` with stderr sent to `log_path`.
/// The destructor SIGKILLs and reaps a process that is still running.
class ChildProcess {
 public:
  static Result<std::unique_ptr<ChildProcess>> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& cwd, const std::string& log_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  /// Waits until a line starting with `prefix` appears in the log and
  /// returns the rest of that line; fails on timeout or early exit.
  Result<std::string> WaitForLogLine(const std::string& prefix,
                                     std::chrono::milliseconds timeout);
  /// VmRSS (resident set) of the running process in MiB.
  [[nodiscard]] double ResidentMb() const;
  /// SIGTERM, then waits for exit; SIGKILL past `timeout`. OK only for a
  /// clean exit with status 0.
  Status Terminate(std::chrono::milliseconds timeout);

 private:
  ChildProcess(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}
  pid_t pid_;
  std::string log_path_;
};

/// One blocking newline-delimited JSON connection to a daemon or router.
class WireClient {
 public:
  static Result<WireClient> DialUnix(const std::string& path);
  static Result<WireClient> DialTcp(std::uint16_t port);

  /// Sends one request line and returns the response line.
  Result<std::string> Call(const std::string& line);
  /// Call() on a JSON request, parsing the response.
  Result<JsonValue> CallJson(const JsonValue& request);

 private:
  explicit WireClient(util::UniqueFd fd);
  util::UniqueFd fd_;
  std::unique_ptr<tools::LineReader> reader_;
};

/// {"method": method, "params": params} as one wire line.
std::string RequestLine(const std::string& method, JsonValue::Object params);

/// One mine replayed through the public layer calls, with its work counts.
struct MineReplay {
  MiningResult result;
  std::size_t candidates = 0;      ///< (period, symbol) pairs past stage 1
  std::size_t pairs_examined = 0;  ///< sigma * periods in range
  std::uint64_t matches = 0;       ///< positions collected in stage 2
};

/// Does ObscureMiner::Mine's work at one thread through the layers' public
/// calls, with a span around each: "core.indicator_build"
/// (FftConvolutionMiner), "fft.stage1" with one "fft.match_counts" per
/// symbol, "core.prefilter", "util.bitset.stage2" and "core.emit" per
/// period, and "core.pattern". Callers check that the result equals Mine's.
Result<MineReplay> ReplayMine(const SymbolSeries& series,
                              const MinerOptions& options, Tracer* tracer,
                              std::int64_t request);

/// Self time (ms) of the replayed mining layers, summed over every replay
/// a tracer recorded.
struct MineLayerTimes {
  double indicator_build = 0.0;
  double stage1 = 0.0;
  double prefilter = 0.0;
  double stage2 = 0.0;
  double emit = 0.0;
  double pattern = 0.0;
  std::size_t replays = 0;
  std::size_t symbol_ffts = 0;

  [[nodiscard]] double Sum() const {
    return indicator_build + stage1 + prefilter + stage2 + emit + pattern;
  }
};
MineLayerTimes MineLayers(const std::map<std::string, Tracer::Totals>& spans);

/// Runs the named workload; fills `report`. Non-OK only when the run could
/// not be carried out at all (a server failed to start, a socket broke).
Status RunMineWorkload(const RunConfig& config, Report* report);
Status RunServeWorkload(const RunConfig& config, Report* report);

}  // namespace periodica::e2e

#endif  // PERIODICA_BENCH_E2E_BENCH_H_
