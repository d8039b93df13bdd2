/// Crash harness: fork a child that simulates with checkpointing enabled and
/// is SIGKILLed mid-run by the `crash` failpoint action (no unwinding, no
/// atexit — the real torn-process case), then assert that:
///   - the parent can resume from the surviving checkpoint and reproduce the
///     uninterrupted final state, on every backend;
///   - a crash during the checkpoint write itself (ckpt/write) leaves the
///     previous checkpoint intact (atomic publish);
///   - the dead child's spill scratch is reclaimed by the orphan sweep;
///   - the same works end-to-end through the real CLI binary (--checkpoint-dir
///     / --resume), comparing stdout of the resumed and uninterrupted runs.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "circuit/families.h"
#include "common/failpoint.h"
#include "common/temp_file.h"
#include "sim/checkpoint.h"
#include "testutil/testutil.h"

namespace qy::sim {
namespace {

namespace fs = std::filesystem;

#ifndef QY_FAILPOINTS_ENABLED

TEST(CrashHarnessTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "built with -DQY_FAILPOINTS=OFF; the crash action is "
                  "compiled out";
}

#else  // QY_FAILPOINTS_ENABLED

struct ScopedDir {
  ScopedDir() {
    static int counter = 0;
    path = (fs::temp_directory_path() /
            ("qy_crash_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::remove_all(path);
  }
  ~ScopedDir() { fs::remove_all(path); }
  std::string path;
};

SimOptions CheckpointOptions(const std::string& dir, uint64_t every,
                             bool resume) {
  SimOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every_n_gates = every;
  options.resume = resume;
  return options;
}

/// Fork a child, run `body` in it (the body is expected to die by SIGKILL
/// via an armed crash failpoint), and assert it was indeed killed.
/// fork() is safe here: these tests run single-threaded and the engine
/// starts no threads of its own.
void RunChildExpectingSigkill(const std::function<void()>& body) {
  ::fflush(nullptr);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    body();
    // Reaching here means the crash failpoint never fired; make the parent
    // fail loudly (a normal exit would be mistaken for success).
    ::_exit(42);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child was not killed by a signal (exit code "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1) << ")";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
}

void CheckCrashResume(bench::Backend backend, const qc::QuantumCircuit& circuit,
                      const std::string& name) {
  SCOPED_TRACE(std::string(bench::BackendName(backend)) + " x " + name);
  failpoint::DeactivateAll();
  core::QymeraOptions qopts;

  SimOptions plain;
  auto reference_sim = bench::MakeSimulator(backend, plain, &qopts);
  auto reference = reference_sim->Run(circuit);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ScopedDir dir;
  SimOptions ck = CheckpointOptions(dir.path, 1, /*resume=*/false);
  RunChildExpectingSigkill([&] {
    // SIGKILL self at the fourth gate — after checkpoints exist.
    failpoint::ActivateCrash("sim/gate", /*skip=*/3);
    auto sim = bench::MakeSimulator(backend, ck, &qopts);
    (void)sim->Run(circuit);
  });
  ASSERT_TRUE(fs::exists(dir.path + "/checkpoint.qyck"))
      << "child died before writing any checkpoint";

  SimOptions resume = CheckpointOptions(dir.path, 1, /*resume=*/true);
  auto resumed_sim = bench::MakeSimulator(backend, resume, &qopts);
  auto resumed = resumed_sim->Run(circuit);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  test::ExpectStatesClose(*reference, *resumed, 1e-9,
                          "resumed after SIGKILL vs uninterrupted");
}

TEST(CrashHarnessTest, SigkillMidRunThenResumeMatchesEveryBackend) {
  qc::QuantumCircuit circuit = qc::Qft(4);  // 16 gates: room to crash mid-run
  for (bench::Backend backend :
       {bench::Backend::kStatevector, bench::Backend::kSparse,
        bench::Backend::kMps, bench::Backend::kDd,
        bench::Backend::kQymeraSql}) {
    CheckCrashResume(backend, circuit, "qft4");
  }
}

TEST(CrashHarnessTest, CrashDuringCheckpointWriteLeavesPreviousOneValid) {
  qc::QuantumCircuit circuit = qc::Qft(4);
  failpoint::DeactivateAll();
  core::QymeraOptions qopts;

  SimOptions plain;
  auto reference_sim =
      bench::MakeSimulator(bench::Backend::kSparse, plain, &qopts);
  auto reference = reference_sim->Run(circuit);
  ASSERT_TRUE(reference.ok());

  ScopedDir dir;
  SimOptions ck = CheckpointOptions(dir.path, 1, /*resume=*/false);
  RunChildExpectingSigkill([&] {
    // Let a few checkpoints publish cleanly, then SIGKILL inside the write
    // path itself — between chunks or right before the rename.
    failpoint::ActivateCrash("ckpt/write", /*skip=*/7);
    auto sim = bench::MakeSimulator(bench::Backend::kSparse, ck, &qopts);
    (void)sim->Run(circuit);
  });

  // Atomic publish: whatever survived must be a *complete* checkpoint (the
  // torn write only ever touched checkpoint.qyck.tmp).
  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok())
      << "surviving checkpoint is not loadable: " << loaded.status().ToString();
  EXPECT_FALSE(fs::exists(dir.path + "/checkpoint.qyck.tmp"))
      << "Init() must have swept the torn tmp file";

  SimOptions resume = CheckpointOptions(dir.path, 1, /*resume=*/true);
  auto resumed_sim =
      bench::MakeSimulator(bench::Backend::kSparse, resume, &qopts);
  auto resumed = resumed_sim->Run(circuit);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  test::ExpectStatesClose(*reference, *resumed, 1e-9,
                          "resumed after torn checkpoint write");
}

TEST(CrashHarnessTest, OrphanSweepReclaimsDeadChildsSpillDir) {
  failpoint::DeactivateAll();
  // The child creates a spill directory (by constructing a TempFileManager
  // via a Database) and SIGKILLs itself while it still exists.
  ::fflush(nullptr);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    sql::Database db;
    (void)db.Execute("SELECT 1");
    ::kill(::getpid(), SIGKILL);
    ::_exit(42);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // The dead child's qymera_spill_<pid>_* dir is still on disk.
  std::string needle = "qymera_spill_" + std::to_string(pid) + "_";
  bool found = false;
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    if (entry.path().filename().string().rfind(needle, 0) == 0) found = true;
  }
  ASSERT_TRUE(found) << "child did not leave a spill dir behind";

  EXPECT_GE(TempFileManager::SweepOrphanSpillDirs(), 1u);
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(needle, 0), 0u)
        << "orphaned spill dir survived the sweep: " << entry.path();
  }
}

#endif  // QY_FAILPOINTS_ENABLED

// ---- end-to-end through the real CLI binary ----

#ifdef QY_CLI_BIN_PATH

/// Run the CLI via popen, capturing stdout; returns the exit status as
/// reported by pclose (or -1).
int RunCli(const std::string& args, std::string* out) {
  // `exec` makes sh replace itself with the CLI, so a SIGKILL of the
  // simulator is visible in pclose's wait status (not sh's exit code).
  std::string cmd = std::string("exec ") + QY_CLI_BIN_PATH + " " + args;
  out->clear();
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    out->append(buf, got);
  }
  return ::pclose(pipe);
}

TEST(CliTest, UnknownFlagIsAnError) {
  // An unknown flag (here one the engine no longer has) must fail loudly
  // instead of running with defaults.
  std::string out;
  int rc = RunCli("run family:ghz:3 --threads=4 2>&1", &out);
  ASSERT_TRUE(WIFEXITED(rc)) << "rc=" << rc;
  EXPECT_EQ(WEXITSTATUS(rc), 1) << out;
  EXPECT_NE(out.find("InvalidArgument"), std::string::npos) << out;
  EXPECT_NE(out.find("--threads=4"), std::string::npos) << out;
}

#ifdef QY_FAILPOINTS_ENABLED

TEST(CrashHarnessTest, CliCheckpointResumeEndToEnd) {
  ScopedDir dir;
  const std::string circuit = "family:qft:4";

  std::string uninterrupted;
  int rc = RunCli("run " + circuit + " --backend=sparse", &uninterrupted);
  ASSERT_EQ(rc, 0) << uninterrupted;

  // Crash the CLI mid-simulation via the crash failpoint action.
  std::string crashed_out;
  rc = RunCli("run " + circuit +
                  " --backend=sparse --checkpoint-dir=" + dir.path +
                  " --checkpoint-every=1 --failpoints=sim/gate=crash@5",
              &crashed_out);
  ASSERT_TRUE(WIFSIGNALED(rc)) << "CLI should have been SIGKILLed, rc=" << rc;
  EXPECT_EQ(WTERMSIG(rc), SIGKILL);
  ASSERT_TRUE(fs::exists(dir.path + "/checkpoint.qyck"));

  std::string resumed;
  rc = RunCli("run " + circuit +
                  " --backend=sparse --checkpoint-dir=" + dir.path +
                  " --checkpoint-every=1 --resume",
              &resumed);
  ASSERT_EQ(rc, 0) << resumed;

  // First stdout line is the exact rendered state: must match byte-for-byte.
  ASSERT_FALSE(uninterrupted.empty());
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed.substr(0, resumed.find('\n')),
            uninterrupted.substr(0, uninterrupted.find('\n')));
}

TEST(CrashHarnessTest, CliResumeRejectsDifferentCircuit) {
  ScopedDir dir;
  std::string out;
  int rc = RunCli("run family:qft:4 --backend=sparse --checkpoint-dir=" +
                      dir.path + " --checkpoint-every=1",
                  &out);
  ASSERT_EQ(rc, 0) << out;
  // Resuming a different circuit must fail validation, not silently run.
  rc = RunCli("run family:ghz:4 --backend=sparse --checkpoint-dir=" +
                  dir.path + " --checkpoint-every=1 --resume 2>&1",
              &out);
  ASSERT_NE(rc, 0);
  EXPECT_NE(out.find("InvalidArgument"), std::string::npos) << out;
}

#endif  // QY_FAILPOINTS_ENABLED

#endif  // QY_CLI_BIN_PATH

}  // namespace
}  // namespace qy::sim
