// periodica_bench: the repository's end-to-end and per-layer benchmark.
//
//   periodica_bench --workload mine_sparse --seed 3 --seconds 10 --trace 0
//   periodica_bench --smoke              # every workload at ~1 s scale
//
// Each run prints a table of every metric (name, value, unit, sample count)
// and, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed` and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Any correctness mismatch exits 1. The
// workloads, metrics and bounds are documented in README.md.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "periodica/util/flags.h"

namespace periodica::e2e {
namespace {

const std::vector<std::string>& Workloads() {
  static const std::vector<std::string> names = {
      "mine_sparse", "mine_dense", "daemon_mixed", "routed_stream"};
  return names;
}

/// Runs one workload and prints its table and result line. Returns the
/// process exit code for it.
int RunOne(const RunConfig& config) {
  std::error_code ignored;
  std::filesystem::remove_all(config.work_dir, ignored);
  std::filesystem::create_directories(config.work_dir, ignored);
  Report report;
  const Status status = config.workload.rfind("mine_", 0) == 0
                            ? RunMineWorkload(config, &report)
                            : RunServeWorkload(config, &report);
  std::filesystem::remove_all(config.work_dir, ignored);
  if (!status.ok()) {
    std::fprintf(stderr, "periodica_bench: %s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::vector<std::string> missing = report.Missing(EndToEndMetrics());
  if (config.trace) {
    for (const std::string& name : report.Missing(PerLayerMetrics())) {
      missing.push_back(name);
    }
  }
  std::printf(
      "== %s: seed %llu, %.3g s, trace %d, %zu load threads, %zu mining "
      "threads ==\n%s",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.threads,
      config.mine_threads, report.Table().c_str());
  if (!missing.empty()) {
    for (const std::string& name : missing) {
      std::fprintf(stderr, "periodica_bench: %s: metric %s not reported\n",
                   config.workload.c_str(), name.c_str());
    }
    return 1;
  }
  if (!config.out_dir.empty()) {
    const std::string path = config.out_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             "-trace" + (config.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << report.ToJson(config).Dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "periodica_bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("%s\n",
              report
                  .ResultLine(config.trace ? PerLayerMetrics()
                                           : EndToEndMetrics())
                  .c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload = "all";
  std::int64_t seed = 1;
  double seconds = 10.0;
  std::int64_t trace = 0;
  bool smoke = false;
  std::string out_dir;
  std::string work_dir = ".bench_build/work";
  FlagSet flags("periodica_bench");
  flags.AddString("workload", &workload,
                  "mine_sparse, mine_dense, daemon_mixed, routed_stream or "
                  "all");
  flags.AddInt64("seed", &seed, "input seed; the same seed, the same inputs");
  flags.AddDouble("seconds", &seconds, "measured time per run");
  flags.AddInt64("trace", &trace,
                 "1 = traced run reporting the per-layer metrics and "
                 "writing trace_<workload>.json under --out");
  flags.AddBool("smoke", &smoke,
                "~1 s per workload through the same code paths, checking "
                "that every metric is reported (implies --trace 1)");
  flags.AddString("out", &out_dir, "directory for result and trace files");
  flags.AddString("work_dir", &work_dir,
                  "scratch directory for server state (removed after use)");
  flags.SetEpilog(
      "Exit codes: 0 = ran and every output was correct; 1 = a correctness\n"
      "mismatch or a failed run; 2 = usage error.");
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "periodica_bench: %s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  std::vector<std::string> selected = Workloads();
  if (workload != "all") {
    if (std::find(selected.begin(), selected.end(), workload) ==
        selected.end()) {
      std::fprintf(stderr, "periodica_bench: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
    selected = {workload};
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "periodica_bench: bad --seed, --seconds or --trace\n");
    return 2;
  }
  if (!out_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(out_dir, error);
    if (error) {
      std::fprintf(stderr, "periodica_bench: cannot create %s\n",
                   out_dir.c_str());
      return 2;
    }
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  int exit_code = 0;
  for (const std::string& name : selected) {
    RunConfig config;
    config.workload = name;
    config.seed = static_cast<std::uint64_t>(seed);
    config.seconds = smoke ? 1.0 : seconds;
    config.trace = smoke || trace == 1;
    config.smoke = smoke;
    config.out_dir = out_dir;
    config.work_dir =
        work_dir + "/" + name + "-" + std::to_string(::getpid());
    config.threads = std::min<std::size_t>(4, hardware);
    config.mine_threads = std::min<std::size_t>(2, hardware);
    exit_code = std::max(exit_code, RunOne(config));
  }
  return exit_code;
}

}  // namespace
}  // namespace periodica::e2e

int main(int argc, char** argv) { return periodica::e2e::Main(argc, argv); }
