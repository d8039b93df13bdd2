/// \file main.cc
/// Benchmark driver: runs one workload for a fixed time and prints one JSON
/// line with the correctness verdict, the values of the metrics of the
/// requested kind (end-to-end untraced, per-layer traced) by name, and the
/// host facts.
///
///   TMPDIR=<empty dir> perfbench_driver --workload sparse_deep --seed 1
///       --seconds 20 --trace 0 --work-dir <scratch dir>
///
/// perfbench/run.py builds this binary and wraps it; see perfbench/README.md.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

size_t AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (cfg.work_dir.empty()) return Usage("--work-dir is required");
  if (cfg.workload != "service_mixed" && !IsSimWorkload(cfg.workload)) {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  const char* tmp = std::getenv("TMPDIR");
  if (tmp == nullptr || *tmp == '\0' || CountEntries(tmp) != 0 ||
      !std::filesystem::is_directory(tmp)) {
    return Usage("TMPDIR must name an existing empty directory");
  }
  cfg.tmp_dir = tmp;

  size_t hw = std::thread::hardware_concurrency();
  size_t nproc = AllowedCpus();
  cfg.engine_threads = (nproc > 0 && hw > nproc) ? nproc : 0;
  cfg.resolved_threads = cfg.engine_threads > 0 ? cfg.engine_threads
                                                : std::max<size_t>(hw, 1);

  Outcome out = cfg.workload == "service_mixed" ? RunServiceWorkload(cfg)
                                                : RunSimWorkload(cfg);
  if (out.attempted == 0) out.Fail("no operation completed");
  out.per_layer["fail_frac"] =
      static_cast<double>(out.failed) / std::max<uint64_t>(out.attempted, 1);

  // Names and values only: run.py adds the units from BENCHMARK.json and
  // checks the names against it.
  qy::JsonValue metrics{qy::JsonValue::Object{}};
  for (const auto& [name, value] : cfg.trace ? out.per_layer : out.end_to_end) {
    metrics.Set(name, value);
  }

  qy::JsonValue host{qy::JsonValue::Object{}};
  host.Set("nproc", static_cast<int64_t>(nproc));
  host.Set("hardware_concurrency", static_cast<int64_t>(hw));
  host.Set("engine_threads", static_cast<int64_t>(out.engine_threads));
  host.Set("cmake_build_type", PERFBENCH_BUILD_TYPE);
  host.Set("compiler", PERFBENCH_COMPILER);

  qy::JsonValue errors{qy::JsonValue::Array{}};
  for (const std::string& e : out.errors) errors.AsArray().push_back(e);

  qy::JsonValue result{qy::JsonValue::Object{}};
  result.Set("workload", cfg.workload);
  result.Set("seed", static_cast<int64_t>(cfg.seed));
  result.Set("trace", cfg.trace);
  result.Set("correct", out.failed == 0);
  result.Set("attempted", static_cast<int64_t>(out.attempted));
  result.Set("failed", static_cast<int64_t>(out.failed));
  result.Set("metrics", std::move(metrics));
  result.Set("host", std::move(host));
  result.Set("detail", std::move(out.detail));
  result.Set("errors", std::move(errors));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
