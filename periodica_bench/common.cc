#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <thread>

#include "bench.h"

namespace periodica::e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"op_p50_ms", "ms", "lower"},
      {"op_tail_ms", "ms", "lower"},
      {"ops_per_s", "1/s", "higher"},
      {"rss_mb", "MB", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  // Shares divide a layer's self time by the workload's operation time, so
  // they are defined on every workload; a layer off the workload's path
  // reads 0. Absolute layer times are printed and written to the result
  // file beside them.
  static const std::vector<MetricSpec> specs = {
      {"core.indicator_build_share", "frac", "lower"},
      {"fft.stage1_share", "frac", "lower"},
      {"core.prefilter_share", "frac", "lower"},
      {"util.bitset.stage2_share", "frac", "lower"},
      {"core.emit_share", "frac", "lower"},
      {"core.pattern_share", "frac", "lower"},
      {"util.json_share", "frac", "lower"},
      {"series.parse_share", "frac", "lower"},
      {"store.io_share", "frac", "lower"},
      {"core.checkpoint_share", "frac", "lower"},
      {"core.stream_share", "frac", "lower"},
      {"util.job_queue.wait_share", "frac", "lower"},
      {"router.hop_share", "frac", "lower"},
      {"residual_share", "frac", "lower"},
      {"core.prefilter_candidates", "count", "lower"},
      {"core.prefilter_survival", "frac", "lower"},
      {"util.bitset.match_density", "frac", "lower"},
      {"core.entries", "count", "lower"},
      {"core.parallel_efficiency", "frac", "higher"},
      {"core.replay_coverage", "frac", "higher"},
      {"core.checkpoint_bytes", "B", "lower"},
      {"util.job_queue.rejected", "count", "lower"},
      {"store.cache_hit_ratio", "frac", "higher"},
      {"store.rotations_per_kput", "count", "lower"},
      {"store.compactions_per_kput", "count", "lower"},
      {"serve.evictions_per_s", "1/s", "lower"},
      {"serve.thaws_per_s", "1/s", "lower"},
      {"serve.thaw_ratio", "frac", "lower"},
      {"util.event_loop.polls_per_request", "count", "lower"},
      {"router.shard_skew", "frac", "lower"},
      {"load.late_frac", "frac", "lower"},
      {"trace_overhead_frac", "frac", "lower"},
  };
  return specs;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(rank));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = rank - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * weight;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

// --- Report ----------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Entry{value, unit, samples};
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::Value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Mismatch(const std::string& what) {
  std::fprintf(stderr, "periodica_bench: MISMATCH: %s\n", what.c_str());
  mismatches_.push_back(what);
}

std::vector<std::string> Report::Missing(
    const std::vector<MetricSpec>& specs) const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : specs) {
    if (!Has(spec.name)) missing.emplace_back(spec.name);
  }
  return missing;
}

std::string Report::Table() const {
  std::string table;
  char line[256];
  for (const auto& [name, entry] : metrics_) {
    std::snprintf(line, sizeof(line), "  %-40s %18.6f %-6s n=%zu\n",
                  name.c_str(), entry.value, entry.unit.c_str(),
                  entry.samples);
    table += line;
  }
  std::snprintf(line, sizeof(line),
                "  attempted=%llu failed=%llu correct=%s\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                correct() ? "true" : "false");
  table += line;
  return table;
}

std::string Report::ResultLine(const std::vector<MetricSpec>& specs) const {
  JsonValue::Object metrics;
  for (const MetricSpec& spec : specs) {
    JsonValue::Object metric;
    metric["value"] = Value(spec.name);
    metric["unit"] = spec.unit;
    metrics[spec.name] = JsonValue(std::move(metric));
  }
  JsonValue::Object line;
  line["correct"] = correct();
  line["attempted"] = static_cast<std::size_t>(attempted_);
  line["failed"] = static_cast<std::size_t>(failed_);
  line["metrics"] = JsonValue(std::move(metrics));
  return JsonValue(std::move(line)).Dump();
}

JsonValue Report::ToJson(const RunConfig& config) const {
  JsonValue::Object metrics;
  for (const auto& [name, entry] : metrics_) {
    JsonValue::Object metric;
    metric["value"] = entry.value;
    metric["unit"] = entry.unit;
    metric["samples"] = entry.samples;
    metrics[name] = JsonValue(std::move(metric));
  }
  JsonValue::Array mismatches;
  for (const std::string& what : mismatches_) mismatches.emplace_back(what);
  JsonValue::Object result;
  result["workload"] = config.workload;
  result["seed"] = static_cast<std::size_t>(config.seed);
  result["seconds"] = config.seconds;
  result["trace"] = config.trace;
  result["smoke"] = config.smoke;
  result["threads"] = config.threads;
  result["correct"] = correct();
  result["attempted"] = static_cast<std::size_t>(attempted_);
  result["failed"] = static_cast<std::size_t>(failed_);
  result["mismatches"] = JsonValue(std::move(mismatches));
  result["metrics"] = JsonValue(std::move(metrics));
  return JsonValue(std::move(result));
}

// --- Tracer ----------------------------------------------------------------

namespace {

/// Spans open on this thread, innermost last.
thread_local std::vector<std::int64_t> t_open_spans;

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, std::int64_t request)
    : tracer_(tracer) {
  if (tracer_->enabled_) index_ = tracer_->Begin(name, request);
}

Tracer::Span::~Span() {
  if (index_ >= 0) tracer_->End(index_);
}

std::int64_t Tracer::Begin(const char* name, std::int64_t request) {
  const std::int64_t parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  std::int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<std::int64_t>(records_.size());
    records_.push_back(Record{name, parent, request, ThreadIndex(),
                              Clock::now(), Clock::time_point{}});
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::End(std::int64_t index) {
  const Clock::time_point now = Clock::now();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(index)].end = now;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize(
    std::int64_t request) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children run nested and sequentially on their parent's thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> child_ms(records_.size(), 0.0);
  std::vector<double> duration_ms(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    duration_ms[i] =
        std::chrono::duration<double, std::milli>(record.end - record.start)
            .count();
    if (record.parent >= 0) {
      child_ms[static_cast<std::size_t>(record.parent)] += duration_ms[i];
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (request != kAllRequests && records_[i].request != request) continue;
    Totals& entry = totals[records_[i].name];
    entry.self_ms += duration_ms[i] - child_ms[i];
    entry.total_ms += duration_ms[i];
    ++entry.count;
  }
  return totals;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const double ts_us = std::chrono::duration<double, std::micro>(
                             record.start - origin_)
                             .count();
    const double dur_us = std::chrono::duration<double, std::micro>(
                              record.end - record.start)
                              .count();
    char event[512];
    std::snprintf(event, sizeof(event),
                  "%s\n{\"name\":\"%s\",\"cat\":\"periodica_bench\","
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
                  "\"request\":%lld}}",
                  i == 0 ? "" : ",", record.name, record.thread, ts_us,
                  dur_us, i, static_cast<long long>(record.parent),
                  static_cast<long long>(record.request));
    out << event;
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

// --- Digests and clocks ----------------------------------------------------

namespace {

class Fnv1a {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

}  // namespace

std::uint64_t ResultDigest(const MiningResult& result) {
  Fnv1a hash;
  const PeriodicityTable& table = result.periodicities;
  hash.Add(table.entries().size());
  for (const SymbolPeriodicity& entry : table.entries()) {
    hash.Add(entry.period);
    hash.Add(entry.position);
    hash.Add(static_cast<std::uint64_t>(entry.symbol));
    hash.Add(entry.f2);
    hash.Add(entry.pairs);
    hash.Add(entry.confidence);
  }
  hash.Add(table.summaries().size());
  for (const PeriodSummary& summary : table.summaries()) {
    hash.Add(summary.period);
    hash.Add(summary.best_confidence);
    hash.Add(summary.num_periodicities);
    hash.Add(static_cast<std::uint64_t>(summary.best_symbol));
    hash.Add(summary.best_position);
    hash.Add(summary.aggregate_only);
  }
  hash.Add(table.truncated());
  hash.Add(table.partial());
  hash.Add(result.patterns.size());
  for (const ScoredPattern& scored : result.patterns.patterns()) {
    for (const std::optional<SymbolId>& slot : scored.pattern.slots()) {
      hash.Add(slot.has_value());
      hash.Add(static_cast<std::uint64_t>(slot.value_or(0)));
    }
    hash.Add(scored.support);
    hash.Add(scored.count);
  }
  hash.Add(result.patterns.truncated());
  return hash.value();
}

std::string HexDigest(std::uint64_t digest) {
  char text[20];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

namespace {
volatile float g_reference_sink = 0.0f;
}  // namespace

void TimeReferenceKernel(std::vector<double>* samples_ms) {
  // Sorting, then a strided gather-multiply over 512 KiB of floats: cache-
  // and floating-point-bound like a mine, on one thread, so it shows how
  // fast one vCPU of the host runs.
  std::vector<float> input(std::size_t{1} << 17);
  std::mt19937 rng(12345);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  for (float& value : input) value = unit(rng);
  for (int sample = 0; sample < 16; ++sample) {
    const Clock::time_point start = Clock::now();
    std::vector<float> values = input;
    std::sort(values.begin(), values.end());
    float sum = 0.0f;
    for (int round = 0; round < 8; ++round) {
      for (std::size_t i = 0; i < values.size(); ++i) {
        sum += values[i] * values[(i * 7) % values.size()];
      }
    }
    g_reference_sink = sum;  // keeps the work from being optimised away
    samples_ms->push_back(MillisSince(start));
  }
}

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Child processes -------------------------------------------------------

Result<std::unique_ptr<ChildProcess>> ChildProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& cwd, const std::string& log_path) {
  // Everything the child touches is prepared before fork: between fork and
  // exec it only makes async-signal-safe calls.
  std::vector<std::string> storage;
  storage.reserve(args.size() + 1);
  storage.push_back(binary);
  for (const std::string& arg : args) storage.push_back(arg);
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IOError("cannot create " + log_path + ": " +
                           std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    if (::chdir(cwd.c_str()) != 0) ::_exit(126);
    ::dup2(log_fd, 1);
    ::dup2(log_fd, 2);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return std::unique_ptr<ChildProcess>(new ChildProcess(pid, log_path));
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

Result<std::string> ChildProcess::WaitForLogLine(
    const std::string& prefix, std::chrono::milliseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    std::ifstream log(log_path_);
    std::string line;
    while (std::getline(log, line)) {
      if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::IOError("process exited before printing '" + prefix +
                             "' (see " + log_path_ + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::IOError("timed out waiting for '" + prefix + "' in " +
                         log_path_);
}

double ChildProcess::ResidentMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

Status ChildProcess::Terminate(std::chrono::milliseconds timeout) {
  if (pid_ <= 0) return Status::IOError("process already exited");
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + timeout;
  int status = 0;
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return Status::OK();
      return Status::IOError("server exited abnormally (see " + log_path_ +
                             ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  return Status::IOError("server did not drain within the timeout");
}

// --- Wire client -----------------------------------------------------------

WireClient::WireClient(util::UniqueFd fd)
    : fd_(std::move(fd)),
      reader_(std::make_unique<tools::LineReader>(fd_.get())) {}

Result<WireClient> WireClient::DialUnix(const std::string& path) {
  PERIODICA_ASSIGN_OR_RETURN(util::UniqueFd fd, tools::ConnectUnix(path));
  return WireClient(std::move(fd));
}

Result<WireClient> WireClient::DialTcp(std::uint16_t port) {
  PERIODICA_ASSIGN_OR_RETURN(util::UniqueFd fd,
                             util::TcpConnectBlocking("127.0.0.1", port));
  return WireClient(std::move(fd));
}

Result<std::string> WireClient::Call(const std::string& line) {
  PERIODICA_RETURN_NOT_OK(tools::SendLine(fd_.get(), line));
  return reader_->Next();
}

Result<JsonValue> WireClient::CallJson(const JsonValue& request) {
  PERIODICA_ASSIGN_OR_RETURN(const std::string line, Call(request.Dump()));
  return JsonValue::Parse(line);
}

std::string RequestLine(const std::string& method, JsonValue::Object params) {
  JsonValue::Object request;
  request["method"] = method;
  request["params"] = JsonValue(std::move(params));
  return JsonValue(std::move(request)).Dump();
}

}  // namespace periodica::e2e
