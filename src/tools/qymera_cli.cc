/// \file qymera_cli.cc
/// Command-line front end — the programmatic counterpart of the paper's web
/// UI layers (Fig. 1): circuit input via JSON file or built-in family,
/// translation inspection, simulation on any backend, and benchmarking.
///
/// Usage:
///   qymera translate <circuit.json | family:name:n>
///   qymera run       <circuit.json | family:name:n> [--backend=B]
///                    [--budget-mib=M] [--fuse=K] [--steps]
///   qymera compare   <circuit.json | family:name:n> [--budget-mib=M]
///   qymera families
///   qymera serve     [--port=N | --socket=PATH] [--budget-mib=M] ...
///   qymera connect   [--port=N | --socket=PATH] --sql=S | --simulate=SPEC
///                    | --stats | --shutdown
///
/// Backends: qymera-sql statevector sparse mps dd sql-string sql-tensor
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/report.h"
#include "bench/runner.h"
#include "bench/workloads.h"
#include "circuit/json_io.h"
#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/strings.h"
#include "core/qymera_sim.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace qy;

/// Fired by the SIGINT handler; polled cooperatively by the running query.
/// Signal handlers may only touch lock-free atomics, which is exactly what
/// CancellationToken::Cancel is.
CancellationToken g_interrupt;

extern "C" void HandleSigint(int /*sig*/) {
  g_interrupt.Cancel();
  // Restore the default handler so a second Ctrl-C force-kills the process
  // even if the query never reaches its next cancellation check.
  std::signal(SIGINT, SIG_DFL);
}

int Usage() {
  std::fprintf(stderr,
               "usage: qymera <translate|run|compare|families> "
               "[circuit.json | family:name:n] [options]\n"
               "  --backend=NAME   (run) one of: qymera-sql statevector "
               "sparse mps dd sql-string sql-tensor\n"
               "  --budget-mib=M   memory budget\n"
               "  --fuse=K         enable gate fusion up to K qubits\n"
               "  --stats          print per-operator execution profile "
               "(qymera-sql)\n"
               "  --steps          print intermediate states (qymera-sql)\n"
               "  --timeout-ms=N   (run) abort the simulation after N ms "
               "(DeadlineExceeded); Ctrl-C cancels cooperatively\n"
               "  --checkpoint-dir=D   (run) persist crash-safe checkpoints "
               "into directory D\n"
               "  --checkpoint-every=N (run) checkpoint after every N applied "
               "gates (default 1 when a dir is set)\n"
               "  --resume         (run) continue from the checkpoint in "
               "--checkpoint-dir instead of starting over\n"
               "  --failpoints=S   arm fault-injection sites, e.g. "
               "spill/write=io_error,mem/reserve=oom@3 (testing)\n"
               "  --stats-json     (run) print the run summary (incl. plan-"
               "cache counters) as JSON (qymera-sql)\n"
               "serve options:\n"
               "  --port=N         listen on 127.0.0.1:N (0 = ephemeral)\n"
               "  --socket=PATH    listen on a UNIX socket instead of TCP\n"
               "  --budget-mib=M   global memory budget (admission + tracker)\n"
               "  --session-budget-mib=M  default per-session budget\n"
               "  --max-concurrent=N      admission slots (default 4)\n"
               "  --max-queue=N           admission queue depth (default 64)\n"
               "  --idle-timeout-ms=N     GC sessions idle this long\n"
               "  --grace-ms=N            shutdown drain grace (default 5000)\n"
               "connect options:\n"
               "  --port=N / --host=IP / --socket=PATH   server address\n"
               "  --session=NAME   target session (default \"default\")\n"
               "  --sql=STMT       execute one SQL statement\n"
               "  --simulate=SPEC  run a circuit (file or family:name:n)\n"
               "  --stats | --shutdown | --close-session\n"
               "  --timeout-ms=N   per-request deadline\n"
               "  --stats-json     print the response stats object as JSON\n");
  return 2;
}

Result<qc::QuantumCircuit> LoadCircuit(const std::string& spec) {
  if (spec.rfind("family:", 0) == 0) {
    size_t second = spec.find(':', 7);
    if (second == std::string::npos) {
      return Status::InvalidArgument("family spec must be family:name:n");
    }
    std::string name = spec.substr(7, second - 7);
    int n = std::atoi(spec.c_str() + second + 1);
    QY_ASSIGN_OR_RETURN(bench::Workload workload, bench::FindWorkload(name));
    return workload.make(n);
  }
  return qc::ReadCircuitFile(spec);
}

Result<bench::Backend> ParseBackend(const std::string& name) {
  for (bench::Backend b :
       {bench::Backend::kQymeraSql, bench::Backend::kStatevector,
        bench::Backend::kSparse, bench::Backend::kMps, bench::Backend::kDd,
        bench::Backend::kSqlString, bench::Backend::kSqlTensor}) {
    if (name == bench::BackendName(b)) return b;
  }
  return Status::InvalidArgument("unknown backend: " + name);
}

struct CliOptions {
  std::string backend = "qymera-sql";
  uint64_t budget_mib = 0;
  int fuse = 0;
  bool stats = false;
  bool steps = false;
  int64_t timeout_ms = 0;   ///< 0 = no deadline
  std::string failpoints;   ///< fault-injection spec (testing)
  std::string checkpoint_dir;
  uint64_t checkpoint_every = 0;  ///< 0 = default (1) when a dir is set
  bool resume = false;
  bool stats_json = false;

  // serve / connect
  int port = 0;
  std::string host;
  std::string socket_path;
  uint64_t session_budget_mib = 0;
  size_t max_concurrent = 4;
  size_t max_queue = 64;
  int64_t idle_timeout_ms = 0;
  int64_t grace_ms = 5000;
  std::string session;
  std::string sql;
  std::string simulate;
  bool shutdown = false;
  bool close_session = false;
};

/// Unknown flags are an error rather than ignored, so a typo cannot quietly
/// run with a default (say, unbudgeted).
Result<CliOptions> ParseFlags(int argc, char** argv, int first) {
  CliOptions out;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) out.backend = arg.substr(10);
    else if (arg.rfind("--budget-mib=", 0) == 0)
      out.budget_mib = std::strtoull(arg.c_str() + 13, nullptr, 10);
    else if (arg.rfind("--fuse=", 0) == 0) out.fuse = std::atoi(arg.c_str() + 7);
    else if (arg == "--stats") out.stats = true;
    else if (arg == "--steps") out.steps = true;
    else if (arg.rfind("--timeout-ms=", 0) == 0)
      out.timeout_ms = std::strtoll(arg.c_str() + 13, nullptr, 10);
    else if (arg.rfind("--failpoints=", 0) == 0)
      out.failpoints = arg.substr(13);
    else if (arg.rfind("--checkpoint-dir=", 0) == 0)
      out.checkpoint_dir = arg.substr(17);
    else if (arg.rfind("--checkpoint-every=", 0) == 0)
      out.checkpoint_every = std::strtoull(arg.c_str() + 19, nullptr, 10);
    else if (arg == "--resume") out.resume = true;
    else if (arg == "--stats-json") out.stats_json = true;
    else if (arg.rfind("--port=", 0) == 0)
      out.port = std::atoi(arg.c_str() + 7);
    else if (arg.rfind("--host=", 0) == 0) out.host = arg.substr(7);
    else if (arg.rfind("--socket=", 0) == 0) out.socket_path = arg.substr(9);
    else if (arg.rfind("--session-budget-mib=", 0) == 0)
      out.session_budget_mib = std::strtoull(arg.c_str() + 21, nullptr, 10);
    else if (arg.rfind("--max-concurrent=", 0) == 0)
      out.max_concurrent = std::strtoull(arg.c_str() + 17, nullptr, 10);
    else if (arg.rfind("--max-queue=", 0) == 0)
      out.max_queue = std::strtoull(arg.c_str() + 12, nullptr, 10);
    else if (arg.rfind("--idle-timeout-ms=", 0) == 0)
      out.idle_timeout_ms = std::strtoll(arg.c_str() + 18, nullptr, 10);
    else if (arg.rfind("--grace-ms=", 0) == 0)
      out.grace_ms = std::strtoll(arg.c_str() + 11, nullptr, 10);
    else if (arg.rfind("--session=", 0) == 0) out.session = arg.substr(10);
    else if (arg.rfind("--sql=", 0) == 0) out.sql = arg.substr(6);
    else if (arg.rfind("--simulate=", 0) == 0) out.simulate = arg.substr(11);
    else if (arg == "--shutdown") out.shutdown = true;
    else if (arg == "--close-session") out.close_session = true;
    else return Status::InvalidArgument("unknown flag: " + arg);
  }
  return out;
}

int CmdFamilies() {
  bench::TableReport report({"name", "kind", "example (n=8)"});
  for (const bench::Workload& w : bench::StandardWorkloads()) {
    qc::QuantumCircuit c = w.make(8);
    report.AddRow({w.name, w.sparse ? "sparse" : "dense",
                   std::to_string(c.NumGates()) + " gates, depth " +
                       std::to_string(c.Depth())});
  }
  report.Print("built-in circuit families (use family:name:n)");
  return 0;
}

int CmdTranslate(const qc::QuantumCircuit& circuit, const CliOptions& cli) {
  core::QymeraOptions options;
  if (cli.fuse > 0) {
    options.enable_fusion = true;
    options.fusion.max_qubits = cli.fuse;
  }
  core::QymeraSimulator simulator(options);
  auto translation = simulator.Translate(circuit);
  if (!translation.ok()) {
    std::fprintf(stderr, "%s\n", translation.status().ToString().c_str());
    return 1;
  }
  std::printf("-- %d qubits, %zu gate tables, %zu steps, %s indices\n",
              translation->num_qubits, translation->gate_tables.size(),
              translation->steps.size(),
              translation->use_hugeint ? "HUGEINT" : "BIGINT");
  for (const auto& gate : translation->gate_tables) {
    std::printf("CREATE TABLE %s (in_s BIGINT, out_s BIGINT, r DOUBLE, "
                "i DOUBLE); -- %zu rows\n",
                gate.table_name.c_str(), gate.rows.size());
  }
  std::printf("\n%s;\n", translation->single_query.c_str());
  return 0;
}

int CmdRun(const qc::QuantumCircuit& circuit, const CliOptions& cli) {
  auto backend = ParseBackend(cli.backend);
  if (!backend.ok()) {
    std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
    return 1;
  }
  if (!cli.failpoints.empty()) {
#ifdef QY_FAILPOINTS_ENABLED
    Status armed = failpoint::ActivateFromSpec(cli.failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "%s\n", armed.ToString().c_str());
      return 2;
    }
#else
    std::fprintf(stderr,
                 "--failpoints ignored: built with -DQY_FAILPOINTS=OFF\n");
#endif
  }
  sim::SimOptions options;
  if (cli.budget_mib > 0) options.memory_budget_bytes = cli.budget_mib << 20;
  if (!cli.checkpoint_dir.empty() || cli.resume) {
    if (cli.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint-dir=D\n");
      return 2;
    }
    options.checkpoint_dir = cli.checkpoint_dir;
    options.checkpoint_every_n_gates =
        cli.checkpoint_every > 0 ? cli.checkpoint_every : 1;
    options.resume = cli.resume;
  }

  // Cooperative interruption: Ctrl-C fires g_interrupt, --timeout-ms arms a
  // deadline; the engine polls `query` once per chunk/gate.
  QueryContext query(&g_interrupt);
  if (cli.timeout_ms > 0) query.SetTimeoutMs(cli.timeout_ms);
  options.query = &query;
  std::signal(SIGINT, HandleSigint);

  core::QymeraOptions qopts;
  if (cli.fuse > 0) {
    qopts.enable_fusion = true;
    qopts.fusion.max_qubits = cli.fuse;
  }
  auto simulator = bench::MakeSimulator(*backend, options, &qopts);
  if (cli.steps && *backend == bench::Backend::kQymeraSql) {
    auto* qymera = static_cast<core::QymeraSimulator*>(simulator.get());
    qymera->set_step_callback(
        [](size_t /*step*/, const qc::Gate& gate,
           const sim::SparseState& state) {
          std::printf("after %-12s %s\n", gate.ToString().c_str(),
                      state.ToString(6).c_str());
          return Status::OK();
        });
  }
  auto state = simulator->Run(circuit);
  std::signal(SIGINT, SIG_DFL);
  if (!state.ok()) {
    std::fprintf(stderr, "%s\n", state.status().ToString().c_str());
    // Conventional exit code for "terminated by SIGINT".
    return state.status().code() == StatusCode::kCancelled ? 130 : 1;
  }
  std::printf("%s\n", state->ToString(32).c_str());
  const sim::SimMetrics& m = simulator->metrics();
  std::printf("backend=%s time=%s peak=%s nnz=%zu %s=%llu\n",
              simulator->name().c_str(),
              bench::FormatSeconds(m.wall_seconds).c_str(),
              bench::FormatBytes(m.peak_bytes).c_str(), state->NumNonZero(),
              m.backend_stat_name.empty() ? "stat" : m.backend_stat_name.c_str(),
              static_cast<unsigned long long>(m.backend_stat));
  if (cli.stats && *backend == bench::Backend::kQymeraSql) {
    auto* qymera = static_cast<core::QymeraSimulator*>(simulator.get());
    std::printf("%s", qymera->last_operator_profile().c_str());
  }
  if (cli.stats_json && *backend == bench::Backend::kQymeraSql) {
    auto* qymera = static_cast<core::QymeraSimulator*>(simulator.get());
    std::printf("%s\n",
                core::RunSummaryToJson(qymera->last_summary()).Dump(2).c_str());
  }
  return 0;
}

int CmdServe(const CliOptions& cli) {
  // Protocol writes use MSG_NOSIGNAL, but ignore SIGPIPE process-wide too so
  // no future socket/pipe write can take down every session in the server.
  std::signal(SIGPIPE, SIG_IGN);
  service::ServiceOptions sopts;
  if (cli.budget_mib > 0) sopts.memory_budget_bytes = cli.budget_mib << 20;
  sopts.max_concurrent_queries = cli.max_concurrent;
  sopts.max_queue_depth = cli.max_queue;
  sopts.session_idle_timeout_ms = cli.idle_timeout_ms;
  if (cli.session_budget_mib > 0) {
    sopts.session_defaults.memory_budget_bytes = cli.session_budget_mib << 20;
  }
  if (!cli.checkpoint_dir.empty()) {
    sopts.session_defaults.checkpoint_dir = cli.checkpoint_dir;
  }
  service::Service svc(sopts);

  service::ServerOptions ropts;
  ropts.unix_path = cli.socket_path;
  ropts.port = cli.port;
  service::Server server(&svc, ropts);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  if (!cli.socket_path.empty()) {
    std::printf("qymera serving on %s\n", cli.socket_path.c_str());
  } else {
    std::printf("qymera serving on 127.0.0.1:%d\n", server.port());
  }
  std::fflush(stdout);

  // Run until a client sends op=shutdown or Ctrl-C. The SIGINT token cannot
  // wake the condition variable, so wait in slices and poll it.
  std::signal(SIGINT, HandleSigint);
  while (!svc.shutdown_requested() && !g_interrupt.cancelled()) {
    svc.WaitForShutdownRequest(std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(200));
  }
  std::signal(SIGINT, SIG_DFL);
  std::printf("shutting down (grace %lld ms)...\n",
              static_cast<long long>(cli.grace_ms));
  svc.Shutdown(std::chrono::milliseconds(cli.grace_ms));
  server.Stop();
  std::printf("%s\n", svc.StatsJson().Dump(2).c_str());
  return 0;
}

int PrintResponse(const service::Response& response, bool stats_json) {
  if (!response.ok()) {
    std::fprintf(stderr, "%s%s\n", response.status.ToString().c_str(),
                 response.status.IsRetryable() ? " (retryable)" : "");
    return 1;
  }
  if (!response.columns.empty()) {
    for (size_t c = 0; c < response.columns.size(); ++c) {
      std::printf("%s%s", c == 0 ? "" : "\t", response.columns[c].c_str());
    }
    std::printf("\n");
    for (const auto& row : response.rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf("%s%s", c == 0 ? "" : "\t", row[c].c_str());
      }
      std::printf("\n");
    }
  }
  if (response.rows_changed > 0) {
    std::printf("rows_changed=%llu\n",
                static_cast<unsigned long long>(response.rows_changed));
  }
  if (!response.stats.is_null()) {
    std::printf("%s\n", response.stats.Dump(stats_json ? 2 : -1).c_str());
  }
  return 0;
}

int CmdConnect(const CliOptions& cli) {
  auto client = cli.socket_path.empty()
                    ? service::Client::ConnectTcp(cli.host, cli.port)
                    : service::Client::ConnectUnix(cli.socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
    return 1;
  }

  service::Request request;
  request.session = cli.session;
  request.timeout_ms = cli.timeout_ms;
  if (cli.shutdown) {
    request.op = service::Request::Op::kShutdown;
  } else if (cli.close_session) {
    request.op = service::Request::Op::kCloseSession;
  } else if (!cli.sql.empty()) {
    request.op = service::Request::Op::kQuery;
    request.sql = cli.sql;
  } else if (!cli.simulate.empty()) {
    auto circuit = LoadCircuit(cli.simulate);
    if (!circuit.ok()) {
      std::fprintf(stderr, "cannot load circuit: %s\n",
                   circuit.status().ToString().c_str());
      return 1;
    }
    request.op = service::Request::Op::kSimulate;
    request.circuit = qc::CircuitToJson(*circuit, -1);
  } else if (cli.stats || cli.stats_json) {
    request.op = service::Request::Op::kStats;
  } else {
    request.op = service::Request::Op::kPing;
  }

  auto response = client->Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  return PrintResponse(*response, cli.stats_json);
}

int CmdCompare(const qc::QuantumCircuit& circuit, const CliOptions& cli) {
  sim::SimOptions options;
  if (cli.budget_mib > 0) options.memory_budget_bytes = cli.budget_mib << 20;
  bench::TableReport report({"backend", "outcome", "time", "peak", "nnz"});
  for (bench::Backend backend : bench::MainBackends()) {
    bench::RunResult r = bench::RunSummaryOnly(backend, circuit, options);
    report.AddRow({bench::BackendName(backend), r.ok ? "ok" : r.error,
                   r.ok ? bench::FormatSeconds(r.seconds) : "",
                   r.ok ? bench::FormatBytes(r.peak_bytes) : "",
                   r.ok ? std::to_string(r.nnz) : ""});
  }
  report.Print("backend comparison: " + circuit.name());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "families") return CmdFamilies();
  bool server_side = command == "serve" || command == "--serve" ||
                     command == "connect" || command == "--connect";
  if (!server_side && argc < 3) return Usage();
  auto cli = ParseFlags(argc, argv, server_side ? 2 : 3);
  if (!cli.ok()) {
    std::fprintf(stderr, "%s\n", cli.status().ToString().c_str());
    return 1;
  }
  if (command == "serve" || command == "--serve") return CmdServe(*cli);
  if (command == "connect" || command == "--connect") return CmdConnect(*cli);
  auto circuit = LoadCircuit(argv[2]);
  if (!circuit.ok()) {
    std::fprintf(stderr, "cannot load circuit: %s\n",
                 circuit.status().ToString().c_str());
    return 1;
  }
  if (command == "translate") return CmdTranslate(*circuit, *cli);
  if (command == "run") return CmdRun(*circuit, *cli);
  if (command == "compare") return CmdCompare(*circuit, *cli);
  return Usage();
}
