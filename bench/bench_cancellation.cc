/// \file bench_cancellation.cc
/// Cost and responsiveness of cooperative cancellation.
///
/// Two questions the robustness work must answer with numbers:
///   1. Overhead — how much does per-chunk/per-gate QueryContext polling
///      cost when nobody cancels? (Target: < 2% on the QFT pipeline; the
///      check is two atomic loads, but it sits in every operator loop.)
///   2. Latency — once Cancel() fires mid-query, how long until the engine
///      actually returns? (Bounded by one unit of work between polls.)
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

#include "circuit/families.h"
#include "common/cancellation.h"
#include "core/qymera_sim.h"

namespace {

using namespace qy;

/// Baseline: QFT-12 end-to-end with no QueryContext installed — the polls
/// reduce to a null check in every operator loop.
void BM_Qft12NoQueryContext(benchmark::State& state) {
  const qc::QuantumCircuit circuit = qc::Qft(12);
  core::QymeraOptions qopts;
  for (auto _ : state) {
    core::QymeraSimulator simulator(qopts);
    auto summary = simulator.Execute(circuit);
    if (!summary.ok()) {
      state.SkipWithError(summary.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(summary->final_rows);
  }
}
BENCHMARK(BM_Qft12NoQueryContext)->Unit(benchmark::kMillisecond);

/// Same pipeline with an armed (never fired) QueryContext and a deadline:
/// every poll takes the full path — cancel-flag load, deadline load, clock
/// read. Compare against BM_Qft12NoQueryContext for the overhead ratio.
void BM_Qft12WithQueryContext(benchmark::State& state) {
  const qc::QuantumCircuit circuit = qc::Qft(12);
  QueryContext query;
  query.SetTimeout(std::chrono::hours(24));
  core::QymeraOptions qopts;
  qopts.base.query = &query;
  for (auto _ : state) {
    core::QymeraSimulator simulator(qopts);
    auto summary = simulator.Execute(circuit);
    if (!summary.ok()) {
      state.SkipWithError(summary.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(summary->final_rows);
  }
}
BENCHMARK(BM_Qft12WithQueryContext)->Unit(benchmark::kMillisecond);

/// Cancellation latency: fire Cancel() from another thread 5 ms into a
/// QFT-16 run (several seconds uncancelled) and measure cancel -> return.
/// The reported time is the full iteration; subtract the 5 ms delay for the
/// reaction latency itself.
void BM_Qft16CancelLatency(benchmark::State& state) {
  const qc::QuantumCircuit circuit = qc::Qft(16);
  core::QymeraOptions qopts;
  for (auto _ : state) {
    QueryContext query;
    qopts.base.query = &query;
    core::QymeraSimulator simulator(qopts);
    std::thread canceller([&query] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      query.Cancel();
    });
    auto summary = simulator.Execute(circuit);
    canceller.join();
    if (summary.ok()) {
      state.SkipWithError("QFT-16 finished before the cancel landed");
      return;
    }
  }
}
BENCHMARK(BM_Qft16CancelLatency)->Unit(benchmark::kMillisecond);

/// Raw poll cost: QueryContext::Check() in a tight loop, with and without a
/// deadline armed (the deadline adds a steady_clock read per poll).
void BM_CheckNoDeadline(benchmark::State& state) {
  QueryContext query;
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Check().ok());
  }
}
BENCHMARK(BM_CheckNoDeadline);

void BM_CheckWithDeadline(benchmark::State& state) {
  QueryContext query;
  query.SetTimeout(std::chrono::hours(24));
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Check().ok());
  }
}
BENCHMARK(BM_CheckWithDeadline);

}  // namespace

BENCHMARK_MAIN();
