/// \file database.h
/// relsql public entry point: a single-process, in-memory (with disk spill)
/// relational database executing the SQL dialect Qymera generates.
///
/// Example:
/// \code
///   qy::sql::Database db;
///   db.Execute("CREATE TABLE T0 (s BIGINT, r DOUBLE, i DOUBLE)");
///   db.Execute("INSERT INTO T0 VALUES (0, 1.0, 0.0)");
///   auto result = db.Execute("SELECT s, r, i FROM T0 ORDER BY s");
/// \endcode
#pragma once

#include <memory>
#include <string>

#include "common/memory_tracker.h"
#include "common/temp_file.h"
#include "sql/binder.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/plan_cache.h"
#include "sql/query_result.h"

namespace qy::sql {

struct DatabaseOptions {
  /// Hard budget for all tracked memory (tables, hash tables, sorts).
  uint64_t memory_budget_bytes = MemoryTracker::kUnlimited;
  /// Allow hash aggregation to spill partitions to disk when over budget.
  bool enable_spill = true;
  /// Vector size of the execution engine.
  size_t chunk_size = 2048;
  /// Ignored; execution is serial. Kept only because perfbench/driver sets it.
  size_t num_threads = 1;
  /// Optional cancellation/deadline context. When set, every query executed
  /// by this Database polls it once per chunk and stops with
  /// kCancelled / kDeadlineExceeded. Not owned; must outlive the Database.
  const QueryContext* query = nullptr;
  /// Max entries of the prepared-plan cache (SQL text -> bound plan, LRU).
  /// Repeated statements skip parse/bind/plan entirely; stale entries are
  /// detected and re-planned when DDL changed a referenced table. 0 disables
  /// caching.
  size_t plan_cache_capacity = 64;
  /// Nest this database's tracker under a process-wide parent: every
  /// reservation is charged against both budgets (see MemoryTracker). Not
  /// owned; must outlive the Database.
  MemoryTracker* parent_tracker = nullptr;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Execute one SQL statement (SELECT/CREATE [AS]/INSERT/DROP/EXPLAIN).
  Result<QueryResult> Execute(const std::string& sql);

  /// Execute a ';'-separated script, discarding SELECT outputs.
  Status ExecuteScript(const std::string& sql);

  /// Plan a SELECT and return its EXPLAIN rendering.
  Result<std::string> Explain(const std::string& sql);

  Catalog& catalog() { return catalog_; }
  MemoryTracker& tracker() { return tracker_; }
  TempFileManager& temp_files() { return temp_files_; }
  const DatabaseOptions& options() const { return options_; }

  /// Per-operator execution statistics, cumulative over this Database.
  const QueryProfile& profile() const { return profile_; }

  /// Total rows spilled to disk by queries so far.
  uint64_t total_rows_spilled() const { return total_rows_spilled_; }

  /// Prepared-plan cache counters (hits/misses/invalidations/evictions).
  const PlanCacheStats& plan_cache_stats() const { return plan_cache_.stats(); }
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       const std::string* sql = nullptr);
  Result<QueryResult> RunSelect(const SelectStmt& select,
                                const std::string* sql = nullptr);
  /// Execute a cache hit (plan's scan pointers already re-resolved).
  Result<QueryResult> ExecuteCached(const CachedPlan& cached);
  /// Cache `plan` under `sql` if all its scans reference named tables.
  void CachePlan(const std::string& sql, PlanNodePtr plan,
                 std::string ctas_target, bool or_replace,
                 bool if_not_exists);
  /// Materialize a SELECT (with nested CTEs) into a fresh anonymous table.
  Result<std::unique_ptr<Table>> SelectToTable(
      const SelectStmt& select, CteScope scope,
      std::vector<std::unique_ptr<Table>>* temps, ExecStats* stats);

  /// Build the shared ExecContext for one query execution.
  ExecContext MakeContext();

  DatabaseOptions options_;
  MemoryTracker tracker_;
  TempFileManager temp_files_;
  Catalog catalog_;
  QueryProfile profile_;
  uint64_t total_rows_spilled_ = 0;
  PlanCache plan_cache_;
};

}  // namespace qy::sql
