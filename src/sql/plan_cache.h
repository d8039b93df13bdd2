/// \file plan_cache.h
/// Bounded LRU cache of bound physical plans, keyed by raw SQL text.
///
/// A hit skips parse, bind and plan, but only when the exact SQL text
/// repeats: an ad-hoc query sent again verbatim, or a gate whose gate table,
/// qubits and step parity all match an earlier gate's. In the simulator's
/// per-gate loop that is rare, because qubit literals and per-angle gate
/// tables differ from gate to gate: 2.2% of lookups hit on the sparse_deep
/// benchmark workload, none on QFT (QFT-18: 0 hits, 181 misses). The cache
/// stores the bound plan together with its scan
/// dependencies: for every scan in the plan, the referenced table's *name*
/// and a copy of its schema at plan time. A lookup re-resolves each name in
/// the live catalog and compares schemas — if anything changed (table
/// dropped, recreated with a different shape, name now missing), the entry
/// is invalidated and the caller re-plans. This makes DDL invalidation
/// automatic even for the simulator's DROP+CREATE-per-gate cycle, where the
/// *same* name points to a fresh Table object every iteration: the stale
/// Table pointer inside the cached plan is never dereferenced, it is patched
/// to the live table on every hit before execution.
///
/// Only plans whose scans all reference named catalog tables are cacheable
/// (CTE temporaries are anonymous and die with the statement).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sql/catalog.h"
#include "sql/plan.h"

namespace qy::sql {

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;           ///< lookups that found no (valid) entry
  uint64_t invalidations = 0;    ///< entries dropped because a dep changed
  uint64_t evictions = 0;        ///< entries dropped by LRU capacity
  uint64_t inserts = 0;
};

/// One scan's dependency: where the plan node lives, what name it scanned,
/// and the schema that name had when the plan was bound.
struct ScanDep {
  PlanNode* node;          ///< scan node inside the cached plan tree
  std::string table_name;  ///< catalog name (lowercased by the catalog)
  Schema schema;           ///< schema at plan time
};

/// A cached statement: a SELECT when `ctas_target` is empty, otherwise a
/// CREATE TABLE <ctas_target> AS SELECT.
struct CachedPlan {
  PlanNodePtr plan;
  std::vector<ScanDep> deps;  ///< one per scan, DFS order
  std::string ctas_target;
  bool or_replace = false;
  bool if_not_exists = false;
};

/// Collect the scan dependencies of `plan` in DFS order. Returns false (and
/// leaves `deps` unspecified) when any scan does not reference a named
/// catalog table — such plans must not be cached.
bool CollectScanDeps(PlanNode* plan, std::vector<ScanDep>* deps);

/// LRU plan cache. Not thread-safe; the owning Database serializes access.
class PlanCache {
 public:
  /// `capacity` = max entries; 0 disables the cache entirely.
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Find a valid entry for `sql`. On a hit every scan's Table pointer has
  /// been re-resolved against `catalog` and the entry was moved to the front
  /// of the LRU list; the returned plan stays owned by the cache and is valid
  /// until the next non-const call. Returns nullptr on miss (including a
  /// formerly cached entry invalidated by DDL).
  const CachedPlan* Lookup(const std::string& sql, const Catalog& catalog);

  /// Cache a plan for `sql`. `entry.deps` must already be collected. Evicts
  /// the LRU entry at capacity. No-op when the cache is disabled.
  void Insert(const std::string& sql, CachedPlan entry);

  void Clear();
  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  const PlanCacheStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::string sql;
    CachedPlan entry;
  };

  size_t capacity_;
  std::list<Slot> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Slot>::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace qy::sql
