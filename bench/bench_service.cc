/// \file bench_service.cc
/// Throughput of the concurrent query service across session counts: N
/// sessions, each on its own client thread, submit a fixed mixed workload
/// (gate-style join + aggregation queries and a QFT simulation) through
/// Service::Submit under one global admission budget. Counters reported per
/// iteration: queries completed, admission waits, global memory high-water.
/// The sessions=1 cell is the baseline for scaling ratios.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "circuit/families.h"
#include "circuit/json_io.h"
#include "service/service.h"

namespace {

using namespace qy;
using service::Request;
using service::Response;
using service::Service;
using service::ServiceOptions;

Request Query(const std::string& session, std::string sql) {
  Request request;
  request.op = Request::Op::kQuery;
  request.session = session;
  request.sql = std::move(sql);
  return request;
}

/// One session's workload: schema + load, three analytic queries, one
/// 6-qubit QFT simulation. Returns false on any failure.
bool RunSessionWorkload(Service* svc, const std::string& session,
                        const std::string& qft_json) {
  const char* queries[] = {
      "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
      "SELECT k, SUM(v), MIN(v), MAX(v) FROM t GROUP BY k",
      "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 32",
  };
  if (!svc->Submit(Query(session, "CREATE TABLE t (k BIGINT, v DOUBLE)"))
           .ok()) {
    return false;
  }
  std::string values;
  for (int r = 0; r < 512; ++r) {
    if (!values.empty()) values += ", ";
    values += "(" + std::to_string(r % 32) + ", " + std::to_string(r) + ")";
  }
  if (!svc->Submit(Query(session, "INSERT INTO t VALUES " + values)).ok()) {
    return false;
  }
  for (const char* sql : queries) {
    if (!svc->Submit(Query(session, sql)).ok()) return false;
  }
  Request simulate;
  simulate.op = Request::Op::kSimulate;
  simulate.session = session;
  simulate.circuit = qft_json;
  if (!svc->Submit(simulate).ok()) return false;
  // Drop the session so iterations do not accumulate state.
  Request close;
  close.op = Request::Op::kCloseSession;
  close.session = session;
  return svc->Submit(close).ok();
}

void BM_ServiceSessions(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const std::string qft_json = qc::CircuitToJson(qc::Qft(6), -1);

  ServiceOptions options;
  options.memory_budget_bytes = 512ull << 20;
  options.max_concurrent_queries = static_cast<size_t>(sessions);
  options.session_defaults.memory_budget_bytes = 64ull << 20;
  Service svc(options);

  uint64_t queries = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(sessions);
    std::atomic<bool> failed{false};
    for (int i = 0; i < sessions; ++i) {
      workers.emplace_back([&, i] {
        std::string session =
            "s" + std::to_string(i) + "_" + std::to_string(queries);
        if (!RunSessionWorkload(&svc, session, qft_json)) {
          failed.store(true);
        }
      });
    }
    for (auto& t : workers) t.join();
    if (failed.load()) {
      state.SkipWithError("session workload failed");
      break;
    }
    queries += static_cast<uint64_t>(sessions) * 6;
  }
  auto stats = svc.admission().stats();
  state.counters["queries"] =
      benchmark::Counter(static_cast<double>(queries),
                         benchmark::Counter::kIsRate);
  state.counters["adm_queued"] = static_cast<double>(stats.queued);
  state.counters["peak_mib"] =
      static_cast<double>(svc.tracker().peak()) / (1 << 20);
  svc.Shutdown(std::chrono::milliseconds(0));
}
BENCHMARK(BM_ServiceSessions)
    ->ArgName("sessions")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::printf("==== service throughput by session count ====\n");
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
