/// \file service_bench.cc
/// The service_mixed workload: a closed loop with zero think time. Three
/// client connections over a UNIX socket to a service::Server (pool width 2,
/// two admission slots); clients 0 and 1 share session "shared", client 2
/// has session "solo". About one request in five simulates a small circuit
/// sent as circuit JSON; the rest are analytic queries over tables loaded at
/// set-up. Every response is checked against answers precomputed on a
/// private Database / private simulator.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "circuit/families.h"
#include "circuit/json_io.h"
#include "common/random.h"
#include "core/qymera_sim.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/sparse_sim.h"
#include "sql/database.h"

namespace perfbench {
namespace {

using qy::Result;
using qy::Status;
using qy::service::Request;
using qy::service::Response;

constexpr int kClients = 3;
constexpr size_t kOpsPerClient = 40;  ///< per-client rotation length
constexpr size_t kMinRequests = 1000;  ///< timed per untraced run, at least
constexpr size_t kPoolWidth = 2;      ///< the service's shared thread pool

/// One request of a client's rotation with its precomputed answer.
struct Op {
  Request request;
  bool simulate = false;
  size_t gates = 0;
  // op=query
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  // op=simulate
  int64_t final_rows = 0;
  double norm = 0;
};

struct Inputs {
  std::vector<std::string> load_sql;  ///< DDL + INSERTs run per session
  std::vector<std::vector<Op>> ops;   ///< per client
};

std::string SessionOf(int client) { return client < 2 ? "shared" : "solo"; }

std::vector<std::string> MakeLoadSql(uint64_t seed) {
  qy::Rng rng(seed);
  // Appends one "(key, value)" tuple; the values are drawn key first.
  auto tuple = [](std::string* sql, int64_t key, double value) {
    sql->append("(").append(std::to_string(key)).append(", ");
    sql->append(std::to_string(value)).append(")");
  };
  std::string t = "INSERT INTO t VALUES ";
  for (int r = 0; r < 4096; ++r) {
    if (r > 0) t += ", ";
    int64_t key = rng.UniformInt(0, 63);
    // Quarter steps keep every SUM exact whatever the summation order.
    tuple(&t, key, rng.UniformInt(0, 1023) / 4.0);
  }
  std::string u = "INSERT INTO u VALUES ";
  for (int k = 0; k < 64; ++k) {
    if (k > 0) u += ", ";
    tuple(&u, k, rng.UniformInt(0, 99) / 4.0);
  }
  return {"CREATE TABLE t (k BIGINT, v DOUBLE)",
          "CREATE TABLE u (k BIGINT, w DOUBLE)", t, u};
}

/// Request kinds in rotation order: one simulate per four queries. The
/// kinds are fixed by position and the query constants come from decks, so
/// every seed yields the same mix of work; the seed orders the constants and
/// draws the data and the circuits' gates.
enum class Kind { kSimulate, kJoin, kAggregate, kTopK };
constexpr Kind kRotation[] = {Kind::kSimulate, Kind::kJoin, Kind::kAggregate,
                              Kind::kJoin, Kind::kTopK};

/// The constants 1..8, each dealt once per shuffled round.
class Deck {
 public:
  int64_t Deal(qy::Rng* rng) {
    if (next_ == cards_.size()) {
      std::shuffle(cards_.begin(), cards_.end(), rng->engine());
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<int64_t> cards_{1, 2, 3, 4, 5, 6, 7, 8};
  size_t next_ = 8;
};

std::string MakeQuery(Kind kind, int64_t p) {
  switch (kind) {
    case Kind::kJoin:
      return "SELECT t.k, COUNT(*) AS n, SUM(u.w) AS w FROM t JOIN u ON "
             "t.k = u.k WHERE t.v < " +
             std::to_string(p * 32) + " GROUP BY t.k ORDER BY t.k";
    case Kind::kAggregate:
      return "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi "
             "FROM t WHERE k < " +
             std::to_string(p * 8);
    default:
      return "SELECT k, v FROM t WHERE k >= " + std::to_string(p * 7) +
             " ORDER BY v DESC, k LIMIT 16";
  }
}

/// The k-th simulate request of a client: four small circuit kinds in turn
/// (about a dozen gates each, so simulations do not dominate the queue).
qy::qc::QuantumCircuit MakeSimCircuit(size_t k, uint64_t seed) {
  switch (k % 4) {
    case 0: return QftOnBasisState(4, seed);
    case 1: return SuperposedRandomDense(5, 1, seed);
    case 2: return PermutedGhz(8, seed);
    default: return qy::qc::SparsePhase(8, 6, seed);
  }
}

/// Build every client's rotation and its expected answers (a private serial
/// Database for queries; a private serial simulator, itself checked against
/// the sparse baseline, for simulations).
Result<Inputs> MakeInputs(uint64_t seed) {
  Inputs in;
  in.load_sql = MakeLoadSql(MixSeed(seed, 1000));
  qy::sql::Database db;
  for (const std::string& sql : in.load_sql) {
    QY_RETURN_IF_ERROR(db.ExecuteScript(sql));
  }
  in.ops.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    qy::Rng rng(MixSeed(seed, 2000 + c));
    Deck decks[4];  // one per Kind
    size_t simulations = 0;
    for (size_t j = 0; j < kOpsPerClient; ++j) {
      Op op;
      op.request.session = SessionOf(c);
      // Clients are offset so their simulations do not arrive in lockstep.
      constexpr size_t kLen = std::size(kRotation);
      Kind kind = kRotation[(j + 2 * c) % kLen];
      op.simulate = kind == Kind::kSimulate;
      if (op.simulate) {
        qy::qc::QuantumCircuit circuit = MakeSimCircuit(
            simulations++, static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)));
        op.request.op = Request::Op::kSimulate;
        op.request.circuit = qy::qc::CircuitToJson(circuit, -1);
        op.gates = circuit.NumGates();
        qy::core::QymeraOptions q;
        q.num_threads = 1;
        qy::core::QymeraSimulator simulator(q);
        QY_ASSIGN_OR_RETURN(qy::sim::SparseState state,
                            simulator.Run(circuit));
        QY_ASSIGN_OR_RETURN(qy::sim::SparseState want,
                            qy::sim::SparseSimulator().Run(circuit));
        std::string why;
        if (!StatesAgree(state, want, kStateTolerance, &why)) {
          return Status::Internal("expected simulation is wrong: " + why);
        }
        const qy::core::RunSummary& summary = simulator.last_summary();
        op.final_rows = static_cast<int64_t>(summary.final_rows);
        op.norm = summary.norm_squared;
      } else {
        op.request.op = Request::Op::kQuery;
        op.request.sql =
            MakeQuery(kind, decks[static_cast<int>(kind)].Deal(&rng));
        QY_ASSIGN_OR_RETURN(qy::sql::QueryResult r,
                            db.Execute(op.request.sql));
        for (size_t k = 0; k < r.schema().NumColumns(); ++k) {
          op.columns.push_back(r.schema().column(k).name);
        }
        for (uint64_t row = 0; row < r.NumRows(); ++row) {
          std::vector<std::string> cells;
          for (size_t k = 0; k < op.columns.size(); ++k) {
            cells.push_back(r.GetString(row, k));
          }
          op.rows.push_back(std::move(cells));
        }
      }
      in.ops[c].push_back(std::move(op));
    }
  }
  return in;
}

/// "" when the response is the precomputed answer, else what differs.
std::string Verify(const Op& op, const Result<Response>& got) {
  if (!got.ok()) return "transport: " + got.status().ToString();
  if (!got->ok()) return got->status.ToString();
  if (op.simulate) {
    const qy::JsonValue* rows = got->stats.Find("final_rows");
    const qy::JsonValue* norm = got->stats.Find("norm_squared");
    if (rows == nullptr || norm == nullptr) return "simulate stats missing";
    if (rows->AsInt() != op.final_rows) return "simulate final_rows differ";
    if (std::abs(norm->AsDouble() - op.norm) > kStateTolerance ||
        std::abs(norm->AsDouble() - 1.0) > kStateTolerance) {
      return "simulate norm differs";
    }
    return "";
  }
  if (got->columns != op.columns || got->rows != op.rows) {
    return "query answer differs: " + op.request.sql;
  }
  return "";
}

/// A running service with its socket server and connected clients.
struct Stack {
  std::unique_ptr<qy::service::Service> service;
  std::unique_ptr<qy::service::Server> server;
  std::vector<qy::service::Client> clients;
};

Status Call(qy::service::Client* client, const Request& request) {
  QY_ASSIGN_OR_RETURN(Response r, client->Call(request));
  return r.status;
}

/// Service start, server start, client connects, session opens and table
/// loads — the workload's set-up.
Result<Stack> StartStack(const std::string& socket_path, const Inputs& in) {
  Stack s;
  qy::service::ServiceOptions so;
  so.num_threads = kPoolWidth;
  so.max_concurrent_queries = 2;
  s.service = std::make_unique<qy::service::Service>(so);
  qy::service::ServerOptions server_opts;
  server_opts.unix_path = socket_path;
  s.server =
      std::make_unique<qy::service::Server>(s.service.get(), server_opts);
  QY_RETURN_IF_ERROR(s.server->Start());
  for (int c = 0; c < kClients; ++c) {
    QY_ASSIGN_OR_RETURN(qy::service::Client client,
                        qy::service::Client::ConnectUnix(socket_path));
    s.clients.push_back(std::move(client));
  }
  for (int c : {0, 2}) {
    Request open;
    open.op = Request::Op::kOpenSession;
    open.session = SessionOf(c);
    QY_RETURN_IF_ERROR(Call(&s.clients[c], open));
    for (const std::string& sql : in.load_sql) {
      Request load;
      load.op = Request::Op::kQuery;
      load.session = SessionOf(c);
      load.sql = sql;
      QY_RETURN_IF_ERROR(Call(&s.clients[c], load));
    }
  }
  return s;
}

/// Tear the stack down in the documented order and check nothing is left
/// running or on disk. Returns "" or what leaked.
std::string StopStack(Stack* s, const std::string& socket_path,
                      const std::string& tmp_dir) {
  std::string err;
  s->clients.clear();
  s->service->Shutdown(std::chrono::seconds(5));
  if (s->service->pool() != nullptr && !s->service->pool()->Quiescent()) {
    err = "service pool not quiescent after Shutdown";
  }
  s->server->Stop();
  if (err.empty() && s->server->open_connections() != 0) {
    err = "server connections still open after Stop";
  }
  s->server.reset();
  s->service.reset();
  if (err.empty() && std::filesystem::exists(socket_path)) {
    err = "socket file left behind";
  }
  if (uint64_t leaked = CountEntries(tmp_dir); err.empty() && leaked != 0) {
    err = std::to_string(leaked) + " temp entries left after shutdown";
  }
  return err;
}

/// Client-side record of one request.
struct Sample {
  double seconds = 0;
  bool simulate = false;
  bool ok = false;
  double codec_s = 0;  ///< client encode + decode, timed on the side
};

/// Per-client samples of one closed-loop phase, in request order.
struct Phase {
  std::vector<std::vector<Sample>> per_client;
  uint64_t simulate_gates = 0;
  double wall_s = 0;
  double parse_s = 0;  ///< CircuitFromJson on simulate payloads (side)
  uint64_t parsed = 0;

  enum class Which { kAll, kQueries, kSimulations };

  /// Latencies of the OK requests of one kind.
  std::vector<double> Seconds(Which which = Which::kAll) const {
    std::vector<double> out;
    for (const auto& samples : per_client) {
      for (const Sample& s : samples) {
        if (s.ok && (which == Which::kAll ||
                     (which == Which::kSimulations) == s.simulate)) {
          out.push_back(s.seconds);
        }
      }
    }
    return out;
  }
};

/// Run the closed loop over `clients` for `seconds` (and at least
/// `min_requests`), one thread per client, appending to `phase`. With
/// `traced`, each client also times the codecs and the circuit parser on the
/// side, outside the request latency. Failures go to `out`.
void RunPhase(std::vector<qy::service::Client>* clients, const Inputs& in,
              double seconds, size_t min_requests, bool traced, Outcome* out,
              Phase* phase) {
  phase->per_client.resize(kClients);
  std::mutex mu;
  std::atomic<uint64_t> done{0};
  Clock::time_point start = Clock::now();
  auto after = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  Clock::time_point end = after(seconds);
  Clock::time_point cap = after(seconds * 4 + 30);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& mine = phase->per_client[c];
      size_t first = mine.size();
      std::vector<std::string> errors;
      uint64_t gates = 0, parsed = 0;
      double parse_s = 0;
      for (size_t j = 0;; ++j) {
        Clock::time_point now = Clock::now();
        if (now >= cap || (now >= end && done.load() >= min_requests)) break;
        const Op& op = in.ops[c][j % in.ops[c].size()];
        Stopwatch sw;
        Result<Response> got = (*clients)[c].Call(op.request);
        Sample sample;
        sample.seconds = sw.Lap();
        sample.simulate = op.simulate;
        done.fetch_add(1);
        std::string err = Verify(op, got);
        sample.ok = err.empty();
        if (!sample.ok) errors.push_back(err);
        if (sample.ok && op.simulate) gates += op.gates;
        if (traced && got.ok()) {
          Stopwatch side;
          std::string encoded = qy::service::EncodeRequest(op.request);
          auto decoded = qy::service::DecodeResponse(
              qy::service::EncodeResponse(*got));
          sample.codec_s = side.Lap();
          (void)encoded;
          (void)decoded;
          if (op.simulate) {
            auto circuit = qy::qc::CircuitFromJson(op.request.circuit);
            parse_s += side.Lap();
            ++parsed;
            (void)circuit;
          }
        }
        mine.push_back(sample);
      }
      std::lock_guard<std::mutex> lock(mu);
      for (const std::string& e : errors) out->Fail(e);
      out->attempted += mine.size() - first;
      phase->simulate_gates += gates;
      phase->parse_s += parse_s;
      phase->parsed += parsed;
    });
  }
  for (std::thread& t : threads) t.join();
  phase->wall_s += Seconds(start, Clock::now());
}

/// Server-side spans of one request.
struct ServerSpan {
  bool simulate = false;
  double decode_s = 0;
  double submit_s = 0;
  double encode_s = 0;
  double write_s = 0;
};

/// The per-connection loop of service::Server (read frame, decode, Submit,
/// encode, write frame) re-driven through the same public functions with a
/// span around each call. Serves one UNIX socket; connection k's spans are
/// in spans()[k], in request order. A copy of Server::ServeConnection
/// (src/service/server.cc) that must be kept in step with it; the overhead
/// check catches a copy whose time drifts.
class TracedServer {
 public:
  TracedServer(qy::service::Service* service, std::string path)
      : service_(service), path_(std::move(path)) {}
  ~TracedServer() { Stop(); }

  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  Status Start(int connections) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::IoError("socket(AF_UNIX) failed");
    ::unlink(path_.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long");
    }
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, connections) != 0) {
      return Status::IoError("bind/listen(" + path_ + ") failed");
    }
    spans_.resize(connections);
    accept_ = std::thread([this, connections] {
      for (int k = 0; k < connections; ++k) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        fds_.push_back(fd);
        threads_.emplace_back([this, fd, k] { Serve(fd, &spans_[k]); });
      }
    });
    return Status::OK();
  }

  /// Call after the clients hung up: unblock a pending accept, join, close
  /// everything and remove the socket path.
  void Stop() {
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_.joinable()) accept_.join();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    for (int fd : fds_) ::close(fd);
    fds_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      ::unlink(path_.c_str());
      listen_fd_ = -1;
    }
  }

  const std::vector<std::vector<ServerSpan>>& spans() const { return spans_; }

 private:
  void Serve(int fd, std::vector<ServerSpan>* spans) {
    std::string payload;
    for (;;) {
      auto frame = qy::service::ReadFrame(fd, &payload);
      if (!frame.ok() || !frame.value()) return;
      ServerSpan span;
      Stopwatch sw;
      auto request = qy::service::DecodeRequest(payload);
      span.decode_s = sw.Lap();
      Response response;
      if (request.ok()) {
        span.simulate = request->op == Request::Op::kSimulate;
        response = service_->Submit(request.value());
      } else {
        response.status = request.status();
      }
      span.submit_s = sw.Lap();
      std::string encoded = qy::service::EncodeResponse(response);
      span.encode_s = sw.Lap();
      bool written = qy::service::WriteFrame(fd, encoded).ok();
      span.write_s = sw.Lap();
      spans->push_back(span);
      if (!written) return;
    }
  }

  qy::service::Service* service_;
  std::string path_;
  int listen_fd_ = -1;
  std::vector<std::vector<ServerSpan>> spans_;
  // Written by the accept thread only until it is joined.
  std::vector<int> fds_;
  std::vector<std::thread> threads_;
  std::thread accept_;
};

int64_t AdmissionCounter(const qy::service::Service& svc,
                         const std::string& name) {
  qy::JsonValue stats = svc.StatsJson();
  const qy::JsonValue* admission = stats.Find("admission");
  const qy::JsonValue* v = admission ? admission->Find(name) : nullptr;
  return v ? v->AsInt() : 0;
}

}  // namespace

Outcome RunServiceWorkload(const RunConfig& cfg) {
  Outcome out;
  out.engine_threads = kPoolWidth;
  auto inputs = MakeInputs(cfg.seed);
  if (!inputs.ok()) {
    out.attempted = 1;
    out.Fail("input generation: " + inputs.status().ToString());
    return out;
  }
  std::string socket_path = cfg.work_dir + "/svc.sock";

  // Set-up, several times (each counted as an operation); the last stack
  // stays up for the measurement.
  std::vector<double> setup;
  Stack stack;
  for (int k = 0; k < kSetups; ++k) {
    ++out.attempted;
    Stopwatch sw;
    auto started = StartStack(socket_path, *inputs);
    setup.push_back(sw.Lap());
    if (!started.ok()) {
      out.Fail("set-up: " + started.status().ToString());
      return out;
    }
    stack = std::move(started).value();
    if (k + 1 < kSetups) {
      std::string err = StopStack(&stack, socket_path, cfg.tmp_dir);
      if (!err.empty()) out.Fail("cleanup: " + err);
    }
  }

  auto& e2e = out.end_to_end;
  auto& pl = out.per_layer;
  int64_t rejected0 = AdmissionCounter(*stack.service, "rejected");
  int64_t timed_out0 = AdmissionCounter(*stack.service, "timed_out");
  if (!cfg.trace) {
    Phase p;
    RunPhase(&stack.clients, *inputs, cfg.seconds, kMinRequests, false, &out,
             &p);
    std::vector<double> all = p.Seconds();
    double sim_s = Sum(p.Seconds(Phase::Which::kSimulations));
    e2e["setup_s"] = Quantile(setup, 0.5);
    e2e["latency_s_p50"] = Quantile(all, 0.5);
    // p90, as for circuits: the p99 sits where simulations queue behind each
    // other and swings by half between identical runs on a shared host.
    e2e["latency_s_tail"] = Quantile(all, 0.9);
    e2e["ops_per_s"] = all.size() / p.wall_s;
    e2e["gates_per_s"] = sim_s > 0 ? p.simulate_gates / sim_s : 0;
    e2e["peak_mib"] = stack.service->tracker().peak() / (1024.0 * 1024.0);
    out.detail.Set("requests", static_cast<int64_t>(all.size()));
    out.detail.Set("query_s_p50",
                   Quantile(p.Seconds(Phase::Which::kQueries), 0.5));
    out.detail.Set("simulate_s_p50",
                   Quantile(p.Seconds(Phase::Which::kSimulations), 0.5));
  } else {
    // Quarters alternate between service::Server and TracedServer, both on
    // the same Service, each with its own three connections.
    std::string traced_path = cfg.work_dir + "/traced.sock";
    TracedServer server(stack.service.get(), traced_path);
    Status started = server.Start(kClients);
    std::vector<qy::service::Client> clients;
    for (int c = 0; started.ok() && c < kClients; ++c) {
      auto client = qy::service::Client::ConnectUnix(traced_path);
      if (!client.ok()) started = client.status();
      if (client.ok()) clients.push_back(std::move(client).value());
    }
    if (!started.ok()) {
      out.Fail("traced server: " + started.ToString());
      clients.clear();
      server.Stop();
      std::string err = StopStack(&stack, socket_path, cfg.tmp_dir);
      if (!err.empty()) out.Fail("cleanup: " + err);
      return out;
    }
    int64_t admitted0 = AdmissionCounter(*stack.service, "admitted");
    int64_t queued0 = AdmissionCounter(*stack.service, "queued");
    Phase base, traced;
    for (int k = 0; k < 4; ++k) {
      bool tracing = k % 2 == 1;
      RunPhase(tracing ? &clients : &stack.clients, *inputs, cfg.seconds / 4,
               0, tracing, &out, tracing ? &traced : &base);
    }
    int64_t admitted = AdmissionCounter(*stack.service, "admitted") - admitted0;
    int64_t queued = AdmissionCounter(*stack.service, "queued") - queued0;
    clients.clear();
    server.Stop();

    // Pair each client sample with its server spans (same connection, same
    // position): the server spans nest inside the client's request time and
    // what they leave is the wire (socket transfer + thread hand-off).
    std::vector<double> submit, submit_query, submit_simulate, wire;
    double codec = 0, latency = 0, covered = 0;
    uint64_t paired = 0;
    for (int c = 0; c < kClients; ++c) {
      const std::vector<Sample>& cs = traced.per_client[c];
      const std::vector<ServerSpan>& ss = server.spans()[c];
      if (cs.size() != ss.size()) {
        out.Fail("traced server saw " + std::to_string(ss.size()) +
                 " requests on connection " + std::to_string(c) + ", client " +
                 std::to_string(cs.size()));
        continue;
      }
      for (size_t k = 0; k < cs.size(); ++k) {
        if (!cs[k].ok) continue;
        const ServerSpan& sp = ss[k];
        double server_s = sp.decode_s + sp.submit_s + sp.encode_s + sp.write_s;
        double codec_s = cs[k].codec_s + sp.decode_s + sp.encode_s;
        submit.push_back(sp.submit_s);
        (sp.simulate ? submit_simulate : submit_query).push_back(sp.submit_s);
        wire.push_back(cs[k].seconds - server_s - cs[k].codec_s);
        codec += codec_s;
        latency += cs[k].seconds;
        covered += server_s + cs[k].codec_s;
        ++paired;
      }
    }
    double n = std::max<double>(1, paired);
    pl["circuit.parse_s"] = traced.parse_s / std::max<double>(1, traced.parsed);
    pl["service.submit_s_p50"] = Quantile(submit, 0.5);
    pl["service.submit_s_p99"] = Quantile(submit, 0.99);
    pl["service.submit_query_s_p50"] = Quantile(submit_query, 0.5);
    pl["service.submit_simulate_s_p50"] = Quantile(submit_simulate, 0.5);
    pl["service.codec_s_per_req"] = codec / n;
    pl["service.wire_s_p50"] = Quantile(wire, 0.5);
    pl["service.admission_queued_ratio"] =
        admitted > 0 ? static_cast<double>(queued) / admitted : 0;
    pl["trace.circuit_s"] =
        Quantile(traced.Seconds(Phase::Which::kSimulations), 0.5);
    double base_p50 = Quantile(base.Seconds(), 0.5);
    double overhead =
        base_p50 > 0 ? Quantile(traced.Seconds(), 0.5) / base_p50 - 1 : 0;
    pl["trace.overhead_frac"] = overhead;
    if (std::abs(overhead) > kOverheadTolerance) {
      out.Fail("traced request p50 differs from Server's by " +
               std::to_string(overhead) +
               ": TracedServer no longer follows Server");
    }
    // The wire is measured as a residual, so the check is that the timed
    // spans never claim more than the request time they nest in.
    double unaccounted = latency > 0 ? (latency - covered) / latency : 0;
    pl["trace.unaccounted_frac"] = unaccounted;
    if (unaccounted < -kUnaccountedTolerance) {
      out.Fail("server spans exceed the client request time by " +
               std::to_string(-unaccounted));
    }
    out.detail.Set("requests_per_phase",
                   qy::JsonValue(qy::JsonValue::Array{
                       static_cast<int64_t>(base.Seconds().size()),
                       static_cast<int64_t>(paired)}));
  }
  pl["service.admission_rejected"] =
      AdmissionCounter(*stack.service, "rejected") - rejected0;
  pl["service.admission_timed_out"] =
      AdmissionCounter(*stack.service, "timed_out") - timed_out0;

  std::string err = StopStack(&stack, socket_path, cfg.tmp_dir);
  if (!err.empty()) out.Fail("cleanup: " + err);
  return out;
}

}  // namespace perfbench
