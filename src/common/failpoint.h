/// \file failpoint.h
/// Compile-time-gated fault injection for failure-path testing.
///
/// Fallible sites in the engine are marked with QY_FAILPOINT("site/name").
/// With the CMake knob QY_FAILPOINTS ON (the default; it defines
/// QY_FAILPOINTS_ENABLED) each marker polls a process-wide registry and, when
/// the site is armed, returns an injected Status to the caller. With the knob
/// OFF the marker compiles to nothing. The registry functions below are
/// always compiled so tests and the CLI link either way.
///
/// The fast path for "no failpoint armed anywhere" is a single relaxed
/// atomic load, so leaving the sites compiled in costs nothing measurable.
///
/// Sites registered in this codebase:
///   spill/write      RecordWriter flush of spill partition pages
///   spill/read       RecordReader page fetch during partition merge
///   tempfile/create  TempFileManager::Create (one traversal per attempt;
///                    create is retried with backoff, see temp_file.h)
///   tempfile/write   TempFile::WriteBytes (one traversal per attempt)
///   mem/reserve      MemoryTracker::Reserve (injects allocation failure)
///   sim/gate         once per gate in every simulation backend's main loop
///   ckpt/write       AtomicWriteFile, per chunk and once before the rename
///                    (a `crash` here models a torn checkpoint write)
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"

namespace qy::failpoint {

/// Arm `site`: the first `skip` traversals pass, then up to `max_hits`
/// traversals fail with Status(code, message) (-1 = all subsequent ones).
/// Re-activating an armed site reconfigures it and resets its counters.
void Activate(const std::string& site, StatusCode code,
              std::string message = "", int skip = 0, int max_hits = -1);

/// Arm `site` in transient mode: after `skip` passing traversals the next
/// `fail_count` traversals fail with kIoError, then the site passes forever
/// (modeling a flaky-I/O blip that a bounded retry should absorb).
/// Equivalent to Activate(site, kIoError, msg, skip, fail_count) — kept as a
/// named entry point mirroring the `site=transient(N)` spec action.
void ActivateTransient(const std::string& site, int fail_count, int skip = 0);

/// Arm `site` in crash mode: after `skip` passing traversals the next
/// traversal SIGKILLs the process — no unwinding, no atexit, exactly the
/// torn-write crash the checkpoint/restore harness needs to reproduce.
void ActivateCrash(const std::string& site, int skip = 0);

/// Disarm `site` (its counters remain readable until the next Activate).
void Deactivate(const std::string& site);

/// Disarm everything and forget all counters.
void DeactivateAll();

/// Injected failures at `site` since it was (re)armed.
uint64_t HitCount(const std::string& site);

/// Traversals of `site` (passes + injected failures) since it was (re)armed.
uint64_t TraversalCount(const std::string& site);

/// True if any site is currently armed.
bool AnyActive();

/// Arm sites from a comma-separated spec, e.g.
/// "spill/write=io_error,mem/reserve=oom@2" (@N skips the first N
/// traversals). Actions:
///   site=CODE[@skip]          fail every post-skip traversal with CODE
///   site=CODE*N[@skip]        fail at most N traversals (max_hits)
///   site=transient(N)[@skip]  fail N traversals with io_error, then pass
///   site=crash[@skip]         SIGKILL the process at the traversal
/// Codes: io_error, oom, internal, cancelled, unsupported, data_loss.
Status ActivateFromSpec(const std::string& spec);

/// The QY_FAILPOINT hook: OK when the site is not armed (or still within its
/// skip budget), the injected Status otherwise.
Status Check(const char* site);

}  // namespace qy::failpoint

#ifdef QY_FAILPOINTS_ENABLED
/// Propagate an injected failure out of the enclosing Status-returning
/// function when `site` is armed; no-op otherwise.
#define QY_FAILPOINT(site) QY_RETURN_IF_ERROR(::qy::failpoint::Check(site))
#else
#define QY_FAILPOINT(site) \
  do {                     \
  } while (0)
#endif
