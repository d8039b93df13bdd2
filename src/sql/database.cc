#include "sql/database.h"

#include <chrono>

#include "common/strings.h"
#include "sql/binder.h"
#include "sql/executor.h"

namespace qy::sql {

Database::Database(DatabaseOptions options)
    : options_(options),
      tracker_(options.memory_budget_bytes, options.parent_tracker),
      catalog_(&tracker_), plan_cache_(options.plan_cache_capacity) {}

Database::~Database() = default;

ExecContext Database::MakeContext() {
  ExecContext ctx;
  ctx.tracker = &tracker_;
  ctx.temp_files = &temp_files_;
  ctx.chunk_size = options_.chunk_size;
  ctx.enable_spill = options_.enable_spill;
  ctx.profile = &profile_;
  ctx.query = options_.query;
  return ctx;
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  // Cache check before parsing: a hit replays the bound plan with its scan
  // pointers re-resolved against the live catalog (see plan_cache.h).
  if (const CachedPlan* cached = plan_cache_.Lookup(sql, catalog_)) {
    return ExecuteCached(*cached);
  }
  QY_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt, &sql);
}

Result<QueryResult> Database::ExecuteCached(const CachedPlan& cached) {
  auto start = std::chrono::steady_clock::now();
  QueryResult result;
  ExecStats stats;
  if (cached.ctas_target.empty()) {
    ExecContext ctx = MakeContext();
    auto sink =
        std::make_unique<Table>("", cached.plan->output_schema, &tracker_);
    Status exec_status = ExecutePlan(*cached.plan, &ctx, sink.get());
    stats.rows_spilled += ctx.rows_spilled;
    stats.spill_partitions += ctx.spill_partitions;
    total_rows_spilled_ += ctx.rows_spilled;
    QY_RETURN_IF_ERROR(exec_status);
    result = QueryResult(std::move(sink));
  } else if (!(cached.if_not_exists && catalog_.HasTable(cached.ctas_target))) {
    QY_ASSIGN_OR_RETURN(
        Table * target,
        catalog_.CreateTable(cached.ctas_target, cached.plan->output_schema,
                             cached.or_replace));
    ExecContext ctx = MakeContext();
    Status exec_status = ExecutePlan(*cached.plan, &ctx, target);
    stats.rows_spilled += ctx.rows_spilled;
    stats.spill_partitions += ctx.spill_partitions;
    total_rows_spilled_ += ctx.rows_spilled;
    if (!exec_status.ok()) {
      // Leave the catalog clean on failure (incl. cancellation mid-query).
      (void)catalog_.DropTable(cached.ctas_target, /*if_exists=*/true);
      return exec_status;
    }
    result.rows_changed = target->NumRows();
  }
  result.stats = stats;
  result.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.stats.peak_tracked_bytes = tracker_.peak();
  return result;
}

void Database::CachePlan(const std::string& sql, PlanNodePtr plan,
                         std::string ctas_target, bool or_replace,
                         bool if_not_exists) {
  if (plan_cache_.capacity() == 0) return;
  CachedPlan entry;
  if (!CollectScanDeps(plan.get(), &entry.deps)) return;
  entry.plan = std::move(plan);
  entry.ctas_target = std::move(ctas_target);
  entry.or_replace = or_replace;
  entry.if_not_exists = if_not_exists;
  plan_cache_.Insert(sql, std::move(entry));
}

Status Database::ExecuteScript(const std::string& sql) {
  QY_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  for (const Statement& stmt : stmts) {
    QY_ASSIGN_OR_RETURN(QueryResult ignored, ExecuteStatement(stmt));
    (void)ignored;
  }
  return Status::OK();
}

Result<std::string> Database::Explain(const std::string& sql) {
  QY_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect &&
      stmt.kind != Statement::Kind::kExplain) {
    return Status::InvalidArgument("EXPLAIN supports SELECT statements only");
  }
  // Materialize CTEs so the main select binds, then render the plan.
  CteScope scope;
  std::vector<std::unique_ptr<Table>> temps;
  ExecStats stats;
  for (const auto& cte : stmt.select->ctes) {
    QY_ASSIGN_OR_RETURN(auto table,
                        SelectToTable(*cte.select, scope, &temps, &stats));
    scope[AsciiToLower(cte.name)] = table.get();
    temps.push_back(std::move(table));
  }
  QY_ASSIGN_OR_RETURN(PlanNodePtr plan,
                      BindSelect(*stmt.select, catalog_, scope));
  return plan->ToString();
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt,
                                               const std::string* sql) {
  auto start = std::chrono::steady_clock::now();
  auto finish = [&](QueryResult result) -> Result<QueryResult> {
    result.stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    result.stats.peak_tracked_bytes = tracker_.peak();
    return result;
  };
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      QY_ASSIGN_OR_RETURN(QueryResult result, RunSelect(*stmt.select, sql));
      return finish(std::move(result));
    }
    case Statement::Kind::kExplain: {
      QueryResult result;
      // Reuse Explain path through re-rendering.
      CteScope scope;
      std::vector<std::unique_ptr<Table>> temps;
      ExecStats stats;
      for (const auto& cte : stmt.select->ctes) {
        QY_ASSIGN_OR_RETURN(auto table,
                            SelectToTable(*cte.select, scope, &temps, &stats));
        scope[AsciiToLower(cte.name)] = table.get();
        temps.push_back(std::move(table));
      }
      QY_ASSIGN_OR_RETURN(PlanNodePtr plan,
                          BindSelect(*stmt.select, catalog_, scope));
      result.explain_text = plan->ToString();
      return finish(std::move(result));
    }
    case Statement::Kind::kCreateTable: {
      const CreateTableStmt& create = *stmt.create_table;
      QueryResult result;
      if (create.if_not_exists && catalog_.HasTable(create.table_name)) {
        return finish(std::move(result));
      }
      if (create.as_select) {
        // Execute the plan directly into the target table — materializing
        // into a temp and copying would double the peak memory of large
        // state relations.
        CteScope scope;
        std::vector<std::unique_ptr<Table>> temps;
        ExecStats stats;
        for (const auto& cte : create.as_select->ctes) {
          QY_ASSIGN_OR_RETURN(
              auto table, SelectToTable(*cte.select, scope, &temps, &stats));
          scope[AsciiToLower(cte.name)] = table.get();
          temps.push_back(std::move(table));
        }
        QY_ASSIGN_OR_RETURN(PlanNodePtr plan,
                            BindSelect(*create.as_select, catalog_, scope));
        QY_ASSIGN_OR_RETURN(
            Table * target,
            catalog_.CreateTable(create.table_name, plan->output_schema,
                                 create.or_replace));
        ExecContext ctx = MakeContext();
        Status exec_status = ExecutePlan(*plan, &ctx, target);
        stats.rows_spilled += ctx.rows_spilled;
        stats.spill_partitions += ctx.spill_partitions;
        total_rows_spilled_ += ctx.rows_spilled;
        if (!exec_status.ok()) {
          // Leave the catalog clean on failure.
          (void)catalog_.DropTable(create.table_name, /*if_exists=*/true);
          return exec_status;
        }
        result.rows_changed = target->NumRows();
        result.stats = stats;
        if (sql != nullptr && create.as_select->ctes.empty()) {
          CachePlan(*sql, std::move(plan), create.table_name,
                    create.or_replace, create.if_not_exists);
        }
        return finish(std::move(result));
      }
      QY_ASSIGN_OR_RETURN(
          Table * table,
          catalog_.CreateTable(create.table_name, Schema(create.columns),
                               create.or_replace));
      (void)table;
      return finish(std::move(result));
    }
    case Statement::Kind::kInsert: {
      const InsertStmt& insert = *stmt.insert;
      QY_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(insert.table_name));
      if (!insert.column_names.empty()) {
        // Column list must currently match the table's column order.
        if (insert.column_names.size() != table->schema().NumColumns()) {
          return Status::Unsupported(
              "INSERT column list must cover all table columns");
        }
        for (size_t i = 0; i < insert.column_names.size(); ++i) {
          if (!EqualsIgnoreCase(insert.column_names[i],
                                table->schema().column(i).name)) {
            return Status::Unsupported(
                "INSERT column list must match table column order");
          }
        }
      }
      QueryResult result;
      if (insert.select) {
        CteScope scope;
        std::vector<std::unique_ptr<Table>> temps;
        ExecStats stats;
        QY_ASSIGN_OR_RETURN(auto source,
                            SelectToTable(*insert.select, scope, &temps, &stats));
        if (source->schema().NumColumns() != table->schema().NumColumns()) {
          return Status::InvalidArgument(
              "INSERT SELECT arity does not match target table");
        }
        DataChunk chunk;
        for (size_t c = 0; c < source->schema().NumColumns(); ++c) {
          chunk.columns.emplace_back(source->schema().column(c).type);
        }
        for (uint64_t r = 0; r < source->NumRows(); ++r) {
          for (size_t c = 0; c < chunk.columns.size(); ++c) {
            chunk.columns[c].AppendFrom(source->column(c), r);
          }
          if (chunk.NumRows() >= options_.chunk_size) {
            QY_RETURN_IF_ERROR(table->AppendChunk(chunk));
            chunk.Clear();
          }
        }
        if (chunk.NumRows() > 0) QY_RETURN_IF_ERROR(table->AppendChunk(chunk));
        result.rows_changed = source->NumRows();
        result.stats = stats;
        return finish(std::move(result));
      }
      // VALUES rows: bind each expression as a constant.
      CteScope empty_scope;
      for (const auto& row : insert.values_rows) {
        if (row.size() != table->schema().NumColumns()) {
          return Status::InvalidArgument("INSERT row arity mismatch");
        }
        std::vector<Value> values;
        values.reserve(row.size());
        for (size_t c = 0; c < row.size(); ++c) {
          // Reuse the select machinery: a constant SELECT of one expression.
          SelectStmt constant_select;
          SelectItem item;
          item.expr = row[c]->Clone();
          constant_select.items.push_back(std::move(item));
          QY_ASSIGN_OR_RETURN(PlanNodePtr plan,
                              BindSelect(constant_select, catalog_, empty_scope));
          ExecContext ctx = MakeContext();
          Table sink("", plan->output_schema, nullptr);
          QY_RETURN_IF_ERROR(ExecutePlan(*plan, &ctx, &sink));
          if (sink.NumRows() != 1) {
            return Status::InvalidArgument(
                "INSERT VALUES expression must be scalar");
          }
          QY_ASSIGN_OR_RETURN(
              Value cast,
              sink.GetValue(0, 0).CastTo(table->schema().column(c).type));
          values.push_back(std::move(cast));
        }
        QY_RETURN_IF_ERROR(table->AppendRow(values));
        ++result.rows_changed;
      }
      return finish(std::move(result));
    }
    case Statement::Kind::kDropTable: {
      QY_RETURN_IF_ERROR(catalog_.DropTable(stmt.drop_table->table_name,
                                            stmt.drop_table->if_exists));
      return finish(QueryResult());
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Database::RunSelect(const SelectStmt& select,
                                        const std::string* sql) {
  CteScope scope;
  std::vector<std::unique_ptr<Table>> temps;
  ExecStats stats;
  if (sql != nullptr && select.ctes.empty() &&
      plan_cache_.capacity() > 0) {
    // Cacheable shape: bind here so the plan survives execution and can be
    // stored (SelectToTable discards it).
    QY_ASSIGN_OR_RETURN(PlanNodePtr plan, BindSelect(select, catalog_, scope));
    ExecContext ctx = MakeContext();
    auto sink = std::make_unique<Table>("", plan->output_schema, &tracker_);
    QY_RETURN_IF_ERROR(ExecutePlan(*plan, &ctx, sink.get()));
    stats.rows_spilled += ctx.rows_spilled;
    stats.spill_partitions += ctx.spill_partitions;
    total_rows_spilled_ += ctx.rows_spilled;
    CachePlan(*sql, std::move(plan), /*ctas_target=*/"",
              /*or_replace=*/false, /*if_not_exists=*/false);
    QueryResult result(std::move(sink));
    result.stats = stats;
    return result;
  }
  QY_ASSIGN_OR_RETURN(auto table, SelectToTable(select, scope, &temps, &stats));
  QueryResult result(std::move(table));
  result.stats = stats;
  return result;
}

Result<std::unique_ptr<Table>> Database::SelectToTable(
    const SelectStmt& select, CteScope scope,
    std::vector<std::unique_ptr<Table>>* temps, ExecStats* stats) {
  for (const auto& cte : select.ctes) {
    QY_ASSIGN_OR_RETURN(auto table,
                        SelectToTable(*cte.select, scope, temps, stats));
    scope[AsciiToLower(cte.name)] = table.get();
    temps->push_back(std::move(table));
  }
  QY_ASSIGN_OR_RETURN(PlanNodePtr plan, BindSelect(select, catalog_, scope));
  ExecContext ctx = MakeContext();
  auto sink = std::make_unique<Table>("", plan->output_schema, &tracker_);
  QY_RETURN_IF_ERROR(ExecutePlan(*plan, &ctx, sink.get()));
  stats->rows_spilled += ctx.rows_spilled;
  stats->spill_partitions += ctx.spill_partitions;
  total_rows_spilled_ += ctx.rows_spilled;
  return sink;
}

}  // namespace qy::sql
