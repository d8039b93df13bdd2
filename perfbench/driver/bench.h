/// \file bench.h
/// Workload entry points of the benchmark driver.
#pragma once

#include "util.h"

namespace perfbench {

/// True for the workloads RunSimWorkload handles.
bool IsSimWorkload(const std::string& name);

/// sparse_deep / out_of_core: circuits through
/// core::QymeraSimulator::Run, each checked against a baseline backend. With
/// cfg.trace each circuit also goes through the traced per-gate driver.
Outcome RunSimWorkload(const RunConfig& cfg);

/// service_mixed: closed-loop clients over a UNIX socket against a
/// service::Server, answers checked against a private Database.
Outcome RunServiceWorkload(const RunConfig& cfg);

}  // namespace perfbench
