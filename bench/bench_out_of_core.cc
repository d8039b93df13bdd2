/// \file bench_out_of_core.cc
/// Experiment E9 — out-of-core simulation (paper Sec. 3.3): sweep the memory
/// budget below the working set and show the relational backend completing
/// via aggregate spill while in-memory backends fail. Also ablates
/// spill-disabled to isolate the mechanism. The micro cases time the spill
/// round trip's parts: CRC32C throughput over one spill page and a budgeted
/// EqualSuperposition(15) on one engine thread next to its in-memory twin.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/report.h"
#include "bench/runner.h"
#include "circuit/families.h"
#include "common/checksum.h"
#include "core/qymera_sim.h"

namespace {

using namespace qy;
using bench::Backend;

constexpr int kQubits = 17;  // 2^17 rows ~ 3 MiB relational state

void PrintTable() {
  qc::QuantumCircuit circuit = qc::EqualSuperposition(kQubits);
  bench::TableReport report({"budget", "backend", "outcome", "time",
                             "rows spilled"});
  for (uint64_t budget_mib : {0ull, 16ull, 8ull, 7ull}) {
    sim::SimOptions options;
    if (budget_mib > 0) options.memory_budget_bytes = budget_mib << 20;
    std::string budget_label =
        budget_mib == 0 ? "unlimited" : std::to_string(budget_mib) + " MiB";
    for (Backend backend :
         {Backend::kQymeraSql, Backend::kStatevector, Backend::kSparse}) {
      bench::RunResult r = bench::RunSummaryOnly(backend, circuit, options);
      uint64_t spilled = 0;
      if (backend == Backend::kQymeraSql && r.ok) {
        core::QymeraOptions qopts;
        qopts.base = options;
        core::QymeraSimulator simulator(qopts);
        auto summary = simulator.Execute(circuit);
        if (summary.ok()) spilled = summary->rows_spilled;
      }
      report.AddRow({budget_label, bench::BackendName(backend),
                     r.ok ? "completed" : r.error,
                     r.ok ? bench::FormatSeconds(r.seconds) : "",
                     backend == Backend::kQymeraSql ? std::to_string(spilled)
                                                    : "-"});
    }
  }
  // Ablation: same budget, spill disabled.
  {
    sim::SimOptions options;
    options.memory_budget_bytes = 8ull << 20;
    core::QymeraOptions qopts;
    qopts.base = options;
    qopts.enable_spill = false;
    core::QymeraSimulator simulator(qopts);
    auto summary = simulator.Execute(circuit);
    report.AddRow({"8 MiB", "qymera-sql (spill off)",
                   summary.ok() ? "completed" : summary.status().ToString(),
                   "", "-"});
  }
  report.Print("E9: out-of-core sweep, equal superposition n=" +
               std::to_string(kQubits));
  std::printf(
      "\nReading: the relational backend degrades gracefully — spilled rows\n"
      "grow as the budget shrinks — and still completes at 7 MiB where the\n"
      "sparse hash map (~8.4 MiB working set) fails; disabling the spill\n"
      "reproduces that failure inside the RDBMS. The dense vector survives\n"
      "here only because a dense array is the most compact encoding of a\n"
      "fully dense state (see E3 for the sparse-circuit contrast, where it\n"
      "is the first to fall).\n");
}

void BM_OutOfCore8MiB(benchmark::State& state) {
  sim::SimOptions options;
  options.memory_budget_bytes = 8ull << 20;
  for (auto _ : state) {
    auto r = bench::RunSummaryOnly(Backend::kQymeraSql,
                                   qc::EqualSuperposition(kQubits), options);
    if (!r.ok) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OutOfCore8MiB)->Unit(benchmark::kMillisecond);

void BM_InMemoryUnlimited(benchmark::State& state) {
  sim::SimOptions options;
  for (auto _ : state) {
    auto r = bench::RunSummaryOnly(Backend::kQymeraSql,
                                   qc::EqualSuperposition(kQubits), options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InMemoryUnlimited)->Unit(benchmark::kMillisecond);

/// CRC32C over one ~1 MiB spill page; reports bytes/s.
template <uint32_t (*Crc)(const void*, size_t, uint32_t)>
void BM_Crc32c(benchmark::State& state) {
  std::string page(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<char>(i * 2654435761u >> 13);
  }
  for (auto _ : state) {
    uint32_t crc = Crc(page.data(), page.size(), 0);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_TEMPLATE(BM_Crc32c, Crc32c)->Arg(1 << 20);
BENCHMARK_TEMPLATE(BM_Crc32c, internal::Crc32cPortable)->Arg(1 << 20);

/// EqualSuperposition(15); range(0) = budget bytes per
/// 2^n rows (0 = unlimited). 70 B/row is the perfbench out_of_core budget,
/// under which the late gates' aggregations spill.
void BM_Superposition15(benchmark::State& state) {
  constexpr int kN = 15;
  qc::QuantumCircuit circuit = qc::EqualSuperposition(kN);
  core::QymeraOptions qopts;
  if (state.range(0) > 0) {
    qopts.base.memory_budget_bytes =
        (uint64_t{1} << kN) * static_cast<uint64_t>(state.range(0));
  }
  for (auto _ : state) {
    core::QymeraSimulator simulator(qopts);
    auto result = simulator.Run(circuit);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->NumNonZero());
  }
}
BENCHMARK(BM_Superposition15)->Arg(0)->Arg(70)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== E9: out-of-core simulation (Sec. 3.3) ====\n\n");
  PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
