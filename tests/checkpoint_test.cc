/// Checkpoint/restore: checksum known answers, blob codec bounds, store
/// round-trip and corruption handling (every injected corruption must load as
/// a clean kDataLoss), manifest validation on resume, and the equivalence
/// property — an interrupted run resumed from its checkpoint produces the
/// same state as an uninterrupted run, on every backend.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "circuit/families.h"
#include "common/checksum.h"
#include "common/failpoint.h"
#include "testutil/testutil.h"

namespace qy::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the system temp root, removed on destruct.
struct ScopedDir {
  ScopedDir() {
    static int counter = 0;
    path = (fs::temp_directory_path() /
            ("qy_ckpt_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::remove_all(path);
  }
  ~ScopedDir() { fs::remove_all(path); }
  std::string path;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ChecksumTest, Crc32cKnownAnswer) {
  // The canonical CRC32C check value (RFC 3720 appendix / every impl).
  EXPECT_EQ(Crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string("")), 0u);
}

TEST(ChecksumTest, Crc32cChunkedEqualsOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t one_shot = Crc32c(data);
  uint32_t chunked = 0;
  for (size_t i = 0; i < data.size(); i += 7) {
    chunked = Crc32c(data.data() + i, std::min<size_t>(7, data.size() - i),
                     chunked);
  }
  EXPECT_EQ(chunked, one_shot);
}

TEST(ChecksumTest, Crc32cDetectsSingleBitFlips) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t clean = Crc32c(data);
  for (size_t byte : {size_t{0}, data.size() / 2, data.size() - 1}) {
    for (int bit : {0, 3, 7}) {
      std::string flipped = data;
      flipped[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32c(flipped), clean)
          << "bit " << bit << " of byte " << byte << " undetected";
    }
  }
}

TEST(ChecksumTest, Crc32cEqualsPortableAtEveryLengthAndAlignment) {
  // Crc32c takes the SSE4.2 path where the CPU has it; the portable table
  // loop is the reference. Covers every tail length of the 8-byte loop and
  // every start alignment, one-shot and accumulated across a split, with
  // the two implementations handing the running value to each other.
  std::vector<unsigned char> buf(4096 + 8);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 4096; ++len) {
      const unsigned char* p = buf.data() + off;
      uint32_t want = internal::Crc32cPortable(p, len);
      ASSERT_EQ(Crc32c(p, len), want) << "len " << len << " offset " << off;
      size_t cut = len / 3;
      ASSERT_EQ(Crc32c(p + cut, len - cut, Crc32c(p, cut)), want)
          << "chunked, len " << len << " offset " << off;
      ASSERT_EQ(Crc32c(p + cut, len - cut, internal::Crc32cPortable(p, cut)),
                want)
          << "portable then Crc32c, len " << len << " offset " << off;
      ASSERT_EQ(internal::Crc32cPortable(p + cut, len - cut, Crc32c(p, cut)),
                want)
          << "Crc32c then portable, len " << len << " offset " << off;
    }
  }
  EXPECT_EQ(internal::Crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(ChecksumTest, FingerprintFieldBoundariesMatter) {
  // Length-tagged mixing: ("ab","c") and ("a","bc") concatenate identically
  // but must fingerprint differently.
  Fingerprint a, b;
  a.MixString("ab");
  a.MixString("c");
  b.MixString("a");
  b.MixString("bc");
  EXPECT_NE(a.hash(), b.hash());
}

TEST(ChecksumTest, CircuitFingerprintSeesStructureNotName) {
  qc::QuantumCircuit c1(3, "one");
  c1.H(0).CX(0, 1).RZ(0.5, 2);
  qc::QuantumCircuit c2(3, "two");
  c2.H(0).CX(0, 1).RZ(0.5, 2);
  EXPECT_EQ(c1.Fingerprint(), c2.Fingerprint()) << "name must not matter";

  qc::QuantumCircuit c3(3);
  c3.H(0).CX(0, 1).RZ(0.5000001, 2);
  EXPECT_NE(c1.Fingerprint(), c3.Fingerprint()) << "parameters must matter";
  qc::QuantumCircuit c4(3);
  c4.H(0).CX(1, 0).RZ(0.5, 2);
  EXPECT_NE(c1.Fingerprint(), c4.Fingerprint()) << "qubit order must matter";
  qc::QuantumCircuit c5(4);
  c5.H(0).CX(0, 1).RZ(0.5, 2);
  EXPECT_NE(c1.Fingerprint(), c5.Fingerprint()) << "width must matter";
}

TEST(BlobCodecTest, RoundTrip) {
  BlobWriter w;
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.F64(-2.5);
  w.C128(Complex{0.25, -0.75});
  w.Index((BasisIndex{0xCAFEu} << 64) | BasisIndex{42});
  std::string bytes = w.TakeBytes();

  BlobReader r(bytes);
  uint32_t u32;
  uint64_t u64;
  double f64;
  Complex c;
  BasisIndex idx;
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.C128(&c).ok());
  ASSERT_TRUE(r.Index(&idx).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f64, -2.5);
  EXPECT_EQ(c, (Complex{0.25, -0.75}));
  EXPECT_TRUE(idx == ((BasisIndex{0xCAFEu} << 64) | BasisIndex{42}));
}

TEST(BlobCodecTest, ReadingPastTheEndIsDataLossNotUb) {
  BlobWriter w;
  w.U32(7);
  std::string bytes = w.TakeBytes();
  BlobReader r(bytes);
  uint64_t v;
  Status s = r.U64(&v);  // 8 bytes wanted, 4 available
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  BlobReader r2(bytes);
  uint32_t ok_v;
  ASSERT_TRUE(r2.U32(&ok_v).ok());
  Complex c;
  EXPECT_EQ(r2.C128(&c).code(), StatusCode::kDataLoss);
}

CheckpointManifest TestManifest() {
  CheckpointManifest m;
  m.backend = "sparse";
  m.circuit_fingerprint = 0x1122334455667788ull;
  m.options_fingerprint = 0x99AABBCCDDEEFF00ull;
  m.num_qubits = 5;
  m.gate_index = 12;
  return m;
}

TEST(CheckpointStoreTest, WriteThenLoadRoundTrips) {
  ScopedDir dir;
  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  std::string payload = "\x01\x02\x03 payload bytes \xFF";
  ASSERT_TRUE(store.Write(TestManifest(), payload).ok());

  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->manifest.version, 1u);
  EXPECT_EQ(loaded->manifest.backend, "sparse");
  EXPECT_EQ(loaded->manifest.circuit_fingerprint, 0x1122334455667788ull);
  EXPECT_EQ(loaded->manifest.options_fingerprint, 0x99AABBCCDDEEFF00ull);
  EXPECT_EQ(loaded->manifest.num_qubits, 5);
  EXPECT_EQ(loaded->manifest.gate_index, 12u);
  EXPECT_EQ(loaded->payload, payload);
}

TEST(CheckpointStoreTest, MissingCheckpointIsNotFound) {
  ScopedDir dir;
  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  // Remove of a non-existent checkpoint is not an error.
  EXPECT_TRUE(store.Remove().ok());
}

TEST(CheckpointStoreTest, EveryByteFlipLoadsAsDataLoss) {
  ScopedDir dir;
  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Write(TestManifest(), "payload-0123456789").ok());
  std::string clean = ReadFileBytes(store.path());
  ASSERT_FALSE(clean.empty());

  // Flip one bit in every byte of the file — header, manifest and payload
  // regions alike. Loading must never succeed and never crash.
  for (size_t i = 0; i < clean.size(); ++i) {
    std::string corrupt = clean;
    corrupt[i] ^= 0x10;
    WriteFileBytes(store.path(), corrupt);
    auto loaded = store.Load();
    ASSERT_FALSE(loaded.ok()) << "byte " << i << " flip went undetected";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "byte " << i << ": " << loaded.status().ToString();
  }
  WriteFileBytes(store.path(), clean);
  EXPECT_TRUE(store.Load().ok());
}

TEST(CheckpointStoreTest, EveryTruncationLoadsAsDataLoss) {
  ScopedDir dir;
  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Write(TestManifest(), "some payload bytes").ok());
  std::string clean = ReadFileBytes(store.path());

  for (size_t keep = 0; keep < clean.size(); ++keep) {
    WriteFileBytes(store.path(), clean.substr(0, keep));
    auto loaded = store.Load();
    ASSERT_FALSE(loaded.ok()) << "truncation to " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << "truncation to " << keep << ": " << loaded.status().ToString();
  }
}

TEST(CheckpointStoreTest, AppendedGarbageIsDataLoss) {
  ScopedDir dir;
  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  ASSERT_TRUE(store.Write(TestManifest(), "payload").ok());
  std::string bytes = ReadFileBytes(store.path());
  WriteFileBytes(store.path(), bytes + "trailing garbage");
  auto loaded = store.Load();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointStoreTest, InitSweepsOrphanedTmpFiles) {
  ScopedDir dir;
  {
    CheckpointStore store(dir.path);
    ASSERT_TRUE(store.Init().ok());
    ASSERT_TRUE(store.Write(TestManifest(), "keep me").ok());
  }
  // A crashed writer leaves a *.tmp beside the published checkpoint.
  WriteFileBytes(dir.path + "/checkpoint.qyck.tmp", "torn half-write");
  WriteFileBytes(dir.path + "/checkpoint.qyck.tmp.quarantine", "older orphan");

  CheckpointStore store(dir.path);
  ASSERT_TRUE(store.Init().ok());
  EXPECT_FALSE(fs::exists(dir.path + "/checkpoint.qyck.tmp"));
  EXPECT_FALSE(fs::exists(dir.path + "/checkpoint.qyck.tmp.quarantine"));
  // The published checkpoint survives the sweep.
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->payload, "keep me");
}

// ---- CheckpointSession manifest validation ----

SimOptions CheckpointOptions(const std::string& dir, uint64_t every,
                             bool resume) {
  SimOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every_n_gates = every;
  options.resume = resume;
  return options;
}

TEST(CheckpointSessionTest, DisabledSessionIsInert) {
  SimOptions options;  // no checkpoint_dir
  CheckpointSession session(options, "sparse", 1, 2, 3, 10);
  EXPECT_FALSE(session.enabled());
  std::string payload;
  auto begin = session.Begin(&payload);
  ASSERT_TRUE(begin.ok());
  EXPECT_EQ(*begin, 0u);
  int serialize_calls = 0;
  ASSERT_TRUE(session
                  .AfterGate(1,
                             [&] {
                               ++serialize_calls;
                               return std::string();
                             })
                  .ok());
  EXPECT_EQ(serialize_calls, 0) << "disabled session must not serialize";
}

TEST(CheckpointSessionTest, ResumeWithNoCheckpointStartsFresh) {
  ScopedDir dir;
  SimOptions options = CheckpointOptions(dir.path, 2, /*resume=*/true);
  CheckpointSession session(options, "sparse", 1, 2, 3, 10);
  std::string payload;
  auto begin = session.Begin(&payload);
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  EXPECT_EQ(*begin, 0u);
  EXPECT_TRUE(payload.empty());
}

TEST(CheckpointSessionTest, MismatchesAreInvalidArgumentNamingTheField) {
  ScopedDir dir;
  // Write a checkpoint as one identity...
  {
    SimOptions options = CheckpointOptions(dir.path, 1, false);
    CheckpointSession session(options, "sparse", /*circuit_fp=*/111,
                              /*options_fp=*/222, /*num_qubits=*/4,
                              /*total_gates=*/8);
    std::string payload;
    ASSERT_TRUE(session.Begin(&payload).ok());
    ASSERT_TRUE(session.AfterGate(1, [] { return std::string("s"); }).ok());
  }
  struct Case {
    const char* what;
    std::string backend;
    uint64_t circuit_fp, options_fp;
    int num_qubits;
    uint64_t total_gates;
    const char* expect_in_message;
  };
  const Case cases[] = {
      {"backend", "mps", 111, 222, 4, 8, "backend"},
      {"circuit", "sparse", 999, 222, 4, 8, "circuit"},
      {"options", "sparse", 111, 999, 4, 8, "options"},
      {"qubits", "sparse", 111, 222, 5, 8, "qubits"},
      {"gate index beyond circuit", "sparse", 111, 222, 4, 0, "gate index"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    SimOptions options = CheckpointOptions(dir.path, 1, /*resume=*/true);
    CheckpointSession session(options, c.backend, c.circuit_fp, c.options_fp,
                              c.num_qubits, c.total_gates);
    std::string payload;
    auto begin = session.Begin(&payload);
    ASSERT_FALSE(begin.ok());
    EXPECT_EQ(begin.status().code(), StatusCode::kInvalidArgument)
        << begin.status().ToString();
    EXPECT_NE(begin.status().message().find(c.expect_in_message),
              std::string::npos)
        << "message should name the mismatch: " << begin.status().ToString();
  }
  // The matching identity still resumes.
  SimOptions options = CheckpointOptions(dir.path, 1, /*resume=*/true);
  CheckpointSession session(options, "sparse", 111, 222, 4, 8);
  std::string payload;
  auto begin = session.Begin(&payload);
  ASSERT_TRUE(begin.ok()) << begin.status().ToString();
  EXPECT_EQ(*begin, 1u);
  EXPECT_EQ(payload, "s");
}

TEST(CheckpointSessionTest, FreshRunDropsStaleCheckpoint) {
  ScopedDir dir;
  {
    SimOptions options = CheckpointOptions(dir.path, 1, false);
    CheckpointSession session(options, "sparse", 1, 2, 3, 4);
    std::string payload;
    ASSERT_TRUE(session.Begin(&payload).ok());
    ASSERT_TRUE(session.AfterGate(1, [] { return std::string("old"); }).ok());
  }
  // A fresh (non-resume) run owns the directory: the stale checkpoint must
  // not survive to confuse a later --resume.
  SimOptions options = CheckpointOptions(dir.path, 4, false);
  CheckpointSession session(options, "sparse", 9, 9, 9, 9);
  std::string payload;
  ASSERT_TRUE(session.Begin(&payload).ok());
  CheckpointStore store(dir.path);
  EXPECT_EQ(store.Load().status().code(), StatusCode::kNotFound);
}

TEST(CheckpointSessionTest, AfterGateHonoursInterval) {
  ScopedDir dir;
  SimOptions options = CheckpointOptions(dir.path, 3, false);
  CheckpointSession session(options, "sparse", 1, 2, 3, 10);
  std::string payload;
  ASSERT_TRUE(session.Begin(&payload).ok());
  int calls = 0;
  for (uint64_t g = 1; g <= 10; ++g) {
    ASSERT_TRUE(session
                    .AfterGate(g,
                               [&] {
                                 ++calls;
                                 return std::string("g");
                               })
                    .ok());
  }
  EXPECT_EQ(calls, 3) << "gates 3, 6, 9";
  EXPECT_EQ(session.checkpoints_written(), 3u);
}

// ---- resume == uninterrupted, across all backends ----

TEST(CheckpointResumeTest, HugeAmplitudeCountIsDataLossOnEveryBackend) {
  // A well-formed, CRC-valid checkpoint whose amplitude count claims 2^40
  // entries (32 TiB): every backend that stores the amplitude list must
  // reject it before reserving anything.
  qc::QuantumCircuit circuit = qc::Ghz(4);
  for (bench::Backend backend :
       {bench::Backend::kStatevector, bench::Backend::kSparse,
        bench::Backend::kDd, bench::Backend::kQymeraSql}) {
    SCOPED_TRACE(bench::BackendName(backend));
    ScopedDir dir;
    core::QymeraOptions qopts;
    {
      SimOptions options = CheckpointOptions(dir.path, 1, false);
      auto sim = bench::MakeSimulator(backend, options, &qopts);
      ASSERT_TRUE(sim->Run(circuit).ok());
    }
    CheckpointStore store(dir.path);
    auto loaded = store.Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::string payload = loaded->payload;
    ASSERT_GE(payload.size(), sizeof(uint64_t));
    uint64_t nnz = uint64_t{1} << 40;
    std::memcpy(payload.data(), &nnz, sizeof(nnz));
    ASSERT_TRUE(store.Write(loaded->manifest, payload).ok());

    SimOptions options = CheckpointOptions(dir.path, 1, /*resume=*/true);
    auto sim = bench::MakeSimulator(backend, options, &qopts);
    auto got = sim->Run(circuit);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
        << got.status().ToString();
  }
}

#ifdef QY_FAILPOINTS_ENABLED

/// Run `circuit` on `backend` uninterrupted; then again with checkpointing
/// in a fresh dir, interrupted mid-run by an injected sim/gate failure; then
/// resume — the resumed state must match the uninterrupted one.
void CheckResumeEquivalence(bench::Backend backend,
                            const test::NamedCircuit& nc, uint64_t every) {
  SCOPED_TRACE(std::string(bench::BackendName(backend)) + " x " + nc.name +
               " x every=" + std::to_string(every));
  failpoint::DeactivateAll();
  core::QymeraOptions qopts;

  SimOptions plain;
  auto reference_sim = bench::MakeSimulator(backend, plain, &qopts);
  auto reference = reference_sim->Run(nc.circuit);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  ScopedDir dir;
  SimOptions ck_options = CheckpointOptions(dir.path, every, /*resume=*/false);

  // Interrupt the run after a few gates: the third sim/gate traversal fails.
  failpoint::Activate("sim/gate", StatusCode::kIoError,
                      "injected interruption", /*skip=*/2);
  auto interrupted_sim = bench::MakeSimulator(backend, ck_options, &qopts);
  auto interrupted = interrupted_sim->Run(nc.circuit);
  uint64_t hits = failpoint::HitCount("sim/gate");
  failpoint::DeactivateAll();
  ASSERT_GT(hits, 0u) << "circuit too small to interrupt";
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kIoError);

  // Resume and finish.
  SimOptions resume_options = CheckpointOptions(dir.path, every, true);
  auto resumed_sim = bench::MakeSimulator(backend, resume_options, &qopts);
  auto resumed = resumed_sim->Run(nc.circuit);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  test::ExpectStatesClose(*reference, *resumed, 1e-9,
                          "resumed vs uninterrupted");
}

TEST(CheckpointResumeTest, AllBackendsMatchUninterruptedRun) {
  const std::vector<test::NamedCircuit> circuits = {
      {"ghz4", qc::Ghz(4)},
      {"qft3", qc::Qft(3)},
      {"random_dense3", qc::RandomDense(3, 4, /*seed=*/7)},
      {"random_sparse5", qc::RandomSparse(5, 12, /*seed=*/42)},
  };
  for (bench::Backend backend :
       {bench::Backend::kStatevector, bench::Backend::kSparse,
        bench::Backend::kMps, bench::Backend::kDd}) {
    for (const auto& nc : circuits) {
      for (uint64_t every : {uint64_t{1}, uint64_t{3}}) {
        CheckResumeEquivalence(backend, nc, every);
      }
    }
  }
}

TEST(CheckpointResumeTest, QymeraSqlMatchesUninterruptedRun) {
  const std::vector<test::NamedCircuit> circuits = {
      {"ghz4", qc::Ghz(4)},
      {"qft3", qc::Qft(3)},
      {"random_sparse5", qc::RandomSparse(5, 12, /*seed=*/42)},
  };
  for (const auto& nc : circuits) {
    for (uint64_t every : {uint64_t{1}, uint64_t{3}}) {
      CheckResumeEquivalence(bench::Backend::kQymeraSql, nc, every);
    }
  }
}

TEST(CheckpointResumeTest, SingleQueryModeRejectsCheckpointing) {
  ScopedDir dir;
  core::QymeraOptions qopts;
  qopts.mode = core::QymeraOptions::Mode::kSingleQuery;
  qopts.base = CheckpointOptions(dir.path, 1, false);
  core::QymeraSimulator simulator(qopts);
  auto got = simulator.Run(qc::Ghz(3));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnsupported)
      << got.status().ToString();
}

TEST(CheckpointResumeTest, CorruptedCheckpointFailsResumeWithDataLoss) {
  ScopedDir dir;
  qc::QuantumCircuit circuit = qc::Ghz(4);
  core::QymeraOptions qopts;
  {
    SimOptions options = CheckpointOptions(dir.path, 1, false);
    auto sim = bench::MakeSimulator(bench::Backend::kSparse, options, &qopts);
    ASSERT_TRUE(sim->Run(circuit).ok());
  }
  CheckpointStore store(dir.path);
  std::string clean = ReadFileBytes(store.path());
  std::string corrupt = clean;
  corrupt[clean.size() / 2] ^= 0x40;
  WriteFileBytes(store.path(), corrupt);

  SimOptions options = CheckpointOptions(dir.path, 1, /*resume=*/true);
  auto sim = bench::MakeSimulator(bench::Backend::kSparse, options, &qopts);
  auto got = sim->Run(circuit);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss)
      << got.status().ToString();
}

#endif  // QY_FAILPOINTS_ENABLED

}  // namespace
}  // namespace qy::sim
