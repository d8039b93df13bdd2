#include "sim/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/checksum.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/temp_file.h"

namespace qy::sim {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'Q', 'Y', 'C', 'K', 'P', 'T', '0', '1'};
constexpr char kCheckpointFile[] = "checkpoint.qyck";

std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool ParseHexU64(const std::string& s, uint64_t* out) {
  if (s.rfind("0x", 0) != 0) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str() + 2, &end, 16);
  return end != nullptr && *end == '\0' && end != s.c_str() + 2;
}

std::string EncodeManifest(const CheckpointManifest& m) {
  JsonValue::Object obj;
  JsonValue doc(std::move(obj));
  doc.Set("version", static_cast<int64_t>(m.version));
  doc.Set("backend", m.backend);
  doc.Set("circuit_fingerprint", HexU64(m.circuit_fingerprint));
  doc.Set("options_fingerprint", HexU64(m.options_fingerprint));
  doc.Set("num_qubits", static_cast<int64_t>(m.num_qubits));
  doc.Set("gate_index", static_cast<int64_t>(m.gate_index));
  return doc.Dump();
}

Status DecodeManifest(const std::string& text, CheckpointManifest* m) {
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    return Status::DataLoss("checkpoint manifest is not valid JSON: " +
                            parsed.status().message());
  }
  const JsonValue& doc = *parsed;
  const JsonValue* version = doc.Find("version");
  const JsonValue* backend = doc.Find("backend");
  const JsonValue* circuit_fp = doc.Find("circuit_fingerprint");
  const JsonValue* options_fp = doc.Find("options_fingerprint");
  const JsonValue* num_qubits = doc.Find("num_qubits");
  const JsonValue* gate_index = doc.Find("gate_index");
  if (version == nullptr || !version->is_number() || backend == nullptr ||
      !backend->is_string() || circuit_fp == nullptr ||
      !circuit_fp->is_string() || options_fp == nullptr ||
      !options_fp->is_string() || num_qubits == nullptr ||
      !num_qubits->is_number() || gate_index == nullptr ||
      !gate_index->is_number()) {
    return Status::DataLoss("checkpoint manifest is missing fields");
  }
  m->version = static_cast<uint32_t>(version->AsInt());
  m->backend = backend->AsString();
  if (!ParseHexU64(circuit_fp->AsString(), &m->circuit_fingerprint) ||
      !ParseHexU64(options_fp->AsString(), &m->options_fingerprint)) {
    return Status::DataLoss("checkpoint manifest has malformed fingerprints");
  }
  m->num_qubits = static_cast<int>(num_qubits->AsInt());
  m->gate_index = static_cast<uint64_t>(gate_index->AsInt());
  return Status::OK();
}

/// Bounds-checked cursor over the raw checkpoint file bytes.
struct Cursor {
  const std::string& bytes;
  size_t pos = 0;

  bool Read(void* dst, size_t n) {
    if (bytes.size() - pos < n) return false;
    std::memcpy(dst, bytes.data() + pos, n);
    pos += n;
    return true;
  }
};

}  // namespace

uint64_t SimOptionsFingerprint(const SimOptions& options) {
  qy::Fingerprint fp;
  fp.MixDouble(options.prune_epsilon);
  fp.MixI64(options.mps_max_bond);
  fp.MixDouble(options.mps_truncation_eps);
  return fp.hash();
}

Status BlobReader::Raw(void* dst, size_t n) {
  if (bytes_.size() - pos_ < n) {
    return Status::DataLoss("checkpoint payload truncated");
  }
  std::memcpy(dst, bytes_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BlobReader::C128(Complex* c) {
  double re, im;
  QY_RETURN_IF_ERROR(F64(&re));
  QY_RETURN_IF_ERROR(F64(&im));
  *c = Complex{re, im};
  return Status::OK();
}

Status BlobReader::Index(BasisIndex* idx) {
  uint64_t lo, hi;
  QY_RETURN_IF_ERROR(U64(&lo));
  QY_RETURN_IF_ERROR(U64(&hi));
  *idx = (static_cast<BasisIndex>(hi) << 64) | lo;
  return Status::OK();
}

Result<AmplitudeList> DecodeAmplitudes(const std::string& payload,
                                       int num_qubits) {
  constexpr size_t kEntryBytes = 2 * sizeof(uint64_t) + 2 * sizeof(double);
  BlobReader r(payload);
  uint64_t nnz = 0;
  QY_RETURN_IF_ERROR(r.U64(&nnz));
  if (nnz > r.remaining() / kEntryBytes) {
    return Status::DataLoss("checkpoint claims " + std::to_string(nnz) +
                            " amplitudes but holds " +
                            std::to_string(r.remaining()) + " payload bytes");
  }
  AmplitudeList amps;
  amps.reserve(nnz);
  BasisIndex limit = BasisIndex{1} << num_qubits;
  for (uint64_t i = 0; i < nnz; ++i) {
    BasisIndex idx;
    Complex amp;
    QY_RETURN_IF_ERROR(r.Index(&idx));
    QY_RETURN_IF_ERROR(r.C128(&amp));
    if (idx >= limit) {
      return Status::DataLoss("checkpoint amplitude index out of range");
    }
    amps.emplace_back(idx, amp);
  }
  return amps;
}

CheckpointStore::CheckpointStore(std::string dir)
    : dir_(std::move(dir)), path_(dir_ + "/" + kCheckpointFile) {}

Status CheckpointStore::Init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + dir_ + ": " +
                           ec.message());
  }
  // Quarantine-then-remove partial writes from crashed runs. The published
  // checkpoint is never named *.tmp, so everything matched here is garbage.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    bool orphan = name.size() > 4 && name.rfind(".tmp") == name.size() - 4;
    bool stale_quarantine = name.find(".quarantine") != std::string::npos;
    if (!orphan && !stale_quarantine) continue;
    fs::path victim = entry.path();
    if (orphan) {
      fs::path quarantined = entry.path();
      quarantined += ".quarantine";
      std::error_code mv_ec;
      fs::rename(entry.path(), quarantined, mv_ec);
      if (mv_ec) continue;
      victim = quarantined;
    }
    std::error_code rm_ec;
    fs::remove(victim, rm_ec);
    if (!rm_ec) {
      std::fprintf(stderr,
                   "qymera: reclaimed orphaned checkpoint scratch %s\n",
                   name.c_str());
    }
  }
  return Status::OK();
}

Status CheckpointStore::Write(const CheckpointManifest& manifest,
                              const std::string& payload) {
  std::string manifest_text = EncodeManifest(manifest);
  std::string file;
  file.reserve(sizeof(kMagic) + 8 + manifest_text.size() + 12 +
               payload.size());
  file.append(kMagic, sizeof(kMagic));
  uint32_t mlen = static_cast<uint32_t>(manifest_text.size());
  uint32_t mcrc = Crc32c(manifest_text);
  file.append(reinterpret_cast<const char*>(&mlen), sizeof(mlen));
  file.append(reinterpret_cast<const char*>(&mcrc), sizeof(mcrc));
  file.append(manifest_text);
  uint64_t plen = payload.size();
  uint32_t pcrc = Crc32c(payload);
  file.append(reinterpret_cast<const char*>(&plen), sizeof(plen));
  file.append(reinterpret_cast<const char*>(&pcrc), sizeof(pcrc));
  file.append(payload);
  return AtomicWriteFile(path_, file);
}

Result<LoadedCheckpoint> CheckpointStore::Load() {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("no checkpoint at " + path_);
    }
    return Status::IoError("cannot open checkpoint " + path_ + ": " +
                           std::strerror(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IoError("cannot read checkpoint " + path_);
  }

  Cursor cursor{bytes};
  char magic[sizeof(kMagic)];
  if (!cursor.Read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("checkpoint " + path_ +
                            " has a corrupted header (bad magic)");
  }
  uint32_t mlen, mcrc;
  if (!cursor.Read(&mlen, sizeof(mlen)) || !cursor.Read(&mcrc, sizeof(mcrc))) {
    return Status::DataLoss("checkpoint " + path_ + " truncated in header");
  }
  if (bytes.size() - cursor.pos < mlen) {
    return Status::DataLoss("checkpoint " + path_ + " truncated in manifest");
  }
  std::string manifest_text = bytes.substr(cursor.pos, mlen);
  cursor.pos += mlen;
  if (Crc32c(manifest_text) != mcrc) {
    return Status::DataLoss("checkpoint " + path_ +
                            " manifest checksum mismatch");
  }
  LoadedCheckpoint out;
  QY_RETURN_IF_ERROR(DecodeManifest(manifest_text, &out.manifest));
  uint64_t plen;
  uint32_t pcrc;
  if (!cursor.Read(&plen, sizeof(plen)) || !cursor.Read(&pcrc, sizeof(pcrc))) {
    return Status::DataLoss("checkpoint " + path_ +
                            " truncated before payload");
  }
  if (bytes.size() - cursor.pos != plen) {
    return Status::DataLoss("checkpoint " + path_ +
                            " payload length mismatch (torn write)");
  }
  out.payload = bytes.substr(cursor.pos);
  if (Crc32c(out.payload) != pcrc) {
    return Status::DataLoss("checkpoint " + path_ +
                            " payload checksum mismatch");
  }
  return out;
}

Status CheckpointStore::Remove() {
  std::error_code ec;
  fs::remove(path_, ec);
  if (ec) {
    return Status::IoError("cannot remove checkpoint " + path_ + ": " +
                           ec.message());
  }
  return Status::OK();
}

CheckpointSession::CheckpointSession(const SimOptions& options,
                                     std::string backend,
                                     uint64_t circuit_fingerprint,
                                     uint64_t options_fingerprint,
                                     int num_qubits, uint64_t total_gates)
    : enabled_(!options.checkpoint_dir.empty()),
      every_(options.checkpoint_every_n_gates),
      resume_(options.resume),
      store_(options.checkpoint_dir),
      total_gates_(total_gates) {
  manifest_.backend = std::move(backend);
  manifest_.circuit_fingerprint = circuit_fingerprint;
  manifest_.options_fingerprint = options_fingerprint;
  manifest_.num_qubits = num_qubits;
}

Result<uint64_t> CheckpointSession::Begin(std::string* payload) {
  payload->clear();
  if (!enabled_) return uint64_t{0};
  QY_RETURN_IF_ERROR(store_.Init());
  if (!resume_) {
    // A fresh checkpointing run owns the directory: drop any checkpoint a
    // previous (possibly different) run left, so a later --resume can only
    // ever see state written by this run.
    if (every_ > 0) QY_RETURN_IF_ERROR(store_.Remove());
    return uint64_t{0};
  }
  auto loaded = store_.Load();
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      // Nothing to resume from (e.g. the run crashed before its first
      // checkpoint): start over from gate 0.
      return uint64_t{0};
    }
    return loaded.status();
  }
  const CheckpointManifest& m = loaded->manifest;
  if (m.version != manifest_.version) {
    return Status::InvalidArgument(
        "checkpoint version " + std::to_string(m.version) +
        " is not supported (want " + std::to_string(manifest_.version) + ")");
  }
  if (m.backend != manifest_.backend) {
    return Status::InvalidArgument("checkpoint was written by backend '" +
                                   m.backend + "', not '" +
                                   manifest_.backend + "'");
  }
  if (m.circuit_fingerprint != manifest_.circuit_fingerprint) {
    return Status::InvalidArgument(
        "checkpoint does not match the submitted circuit (fingerprint " +
        StrFormat("0x%016llx vs 0x%016llx",
                  static_cast<unsigned long long>(m.circuit_fingerprint),
                  static_cast<unsigned long long>(
                      manifest_.circuit_fingerprint)) +
        ")");
  }
  if (m.options_fingerprint != manifest_.options_fingerprint) {
    return Status::InvalidArgument(
        "checkpoint was written with different simulation options");
  }
  if (m.num_qubits != manifest_.num_qubits) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(m.num_qubits) + " qubits, circuit " +
        std::to_string(manifest_.num_qubits));
  }
  if (m.gate_index > total_gates_) {
    return Status::InvalidArgument(
        "checkpoint gate index " + std::to_string(m.gate_index) +
        " exceeds the circuit's " + std::to_string(total_gates_) + " gates");
  }
  manifest_.gate_index = m.gate_index;
  *payload = std::move(loaded->payload);
  return m.gate_index;
}

Status CheckpointSession::AfterGate(
    uint64_t gates_applied, const std::function<std::string()>& serialize) {
  if (!enabled_ || every_ == 0) return Status::OK();
  if (gates_applied == 0 || gates_applied % every_ != 0) return Status::OK();
  if (gates_applied == manifest_.gate_index) return Status::OK();
  manifest_.gate_index = gates_applied;
  QY_RETURN_IF_ERROR(store_.Write(manifest_, serialize()));
  ++written_;
  return Status::OK();
}

}  // namespace qy::sim
