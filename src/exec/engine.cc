#include "exec/engine.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "sql/expr_util.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/timer.h"

namespace joinboost {
namespace exec {

namespace {

using sql::CollectColumnRefs;
using sql::CollectFuncCalls;
using sql::CombineConjuncts;
using sql::OutputName;
using sql::SplitConjuncts;

/// True when every column ref of `e` resolves against `t`.
bool ResolvesAgainst(const sql::ExprPtr& e, const ExecTable& t) {
  std::vector<const sql::Expr*> refs;
  CollectColumnRefs(e, &refs);
  for (const auto* r : refs) {
    if (t.Find(r->table, r->column) < 0) return false;
  }
  return true;
}

/// Register overrides for select-list subtrees that textually match a
/// GROUP BY expression, pointing them at the grouped key column.
void OverrideGroupRefs(const sql::ExprPtr& e,
                       const std::vector<std::string>& group_sql,
                       const std::vector<VectorData>& key_cols,
                       EvalContext* ctx) {
  if (!e) return;
  if (e->kind != sql::ExprKind::kColumnRef) {
    std::string printed = sql::ToSql(*e);
    for (size_t i = 0; i < group_sql.size(); ++i) {
      if (printed == group_sql[i]) {
        ctx->overrides.emplace(e.get(), key_cols[i]);
        return;
      }
    }
  }
  if (e->kind == sql::ExprKind::kAggCall) return;
  for (const auto& a : e->args) {
    OverrideGroupRefs(a, group_sql, key_cols, ctx);
  }
}

/// Classify an ON conjunction into equi-join keys plus residual predicates
/// against the actual input schemas, then hash-join. Shared between the
/// planned and unplanned execution paths.
ExecTable JoinWithCondition(const ExecTable& current, const ExecTable& right,
                            const sql::ExprPtr& condition, sql::JoinType type,
                            EvalContext& ectx, const OpContext& octx) {
  std::vector<sql::ExprPtr> jconj;
  SplitConjuncts(condition, &jconj);
  std::vector<int> lkeys, rkeys;
  std::vector<sql::ExprPtr> residual;
  for (const auto& c : jconj) {
    bool handled = false;
    if (c->kind == sql::ExprKind::kBinary && c->op == "=" &&
        c->args[0]->kind == sql::ExprKind::kColumnRef &&
        c->args[1]->kind == sql::ExprKind::kColumnRef) {
      const auto& a = *c->args[0];
      const auto& b = *c->args[1];
      int la = current.Find(a.table, a.column);
      int rb = right.Find(b.table, b.column);
      if (la >= 0 && rb >= 0) {
        lkeys.push_back(la);
        rkeys.push_back(rb);
        handled = true;
      } else {
        int lb = current.Find(b.table, b.column);
        int ra = right.Find(a.table, a.column);
        if (lb >= 0 && ra >= 0) {
          lkeys.push_back(lb);
          rkeys.push_back(ra);
          handled = true;
        }
      }
    }
    if (!handled) residual.push_back(c);
  }
  JB_CHECK_MSG(!lkeys.empty(), "join requires at least one equi condition: "
                                   << sql::ToSql(*condition));
  ExecTable out = HashJoinExec(current, right, lkeys, rkeys, type, octx);
  if (!residual.empty()) {
    JB_CHECK_MSG(type == sql::JoinType::kInner,
                 "residual join predicates only on inner joins");
    out = FilterExec(out, *CombineConjuncts(residual), ectx, octx);
  }
  return out;
}

}  // namespace

Database::Database(EngineProfile profile) : profile_(std::move(profile)) {
  wal_ = std::make_unique<WriteAheadLog>(profile_.wal_to_disk);
  int threads = std::max(profile_.exec_threads, 1);
  unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) threads = std::min<int>(threads, static_cast<int>(hw) * 2);
  // Operators must never request more shards than the pool has workers:
  // keep the clamped count and hand it to every OpContext.
  exec_threads_ = threads;
  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
}

Database::~Database() = default;

Database::Result Database::Execute(const std::string& sql_text,
                                   const std::string& tag) {
  Timer timer;
  sql::Statement stmt = sql::Parse(sql_text);
  Result res = ExecuteStatement(stmt);
  QueryLogEntry entry;
  entry.tag = tag;
  entry.sql = sql_text;
  entry.ms = timer.Millis();
  entry.rows_out = res.table ? res.table->rows : res.affected;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    query_log_.push_back(std::move(entry));
  }
  return res;
}

std::shared_ptr<ExecTable> Database::Query(const std::string& sql_text,
                                           const std::string& tag) {
  Result res = Execute(sql_text, tag);
  JB_CHECK_MSG(res.table != nullptr, "Query() used with non-SELECT statement");
  return res.table;
}

double Database::QueryScalarDouble(const std::string& sql_text,
                                   const std::string& tag) {
  auto t = Query(sql_text, tag);
  JB_CHECK_MSG(t->rows >= 1 && !t->cols.empty(),
               "scalar query returned empty result: " << sql_text);
  Value v = t->GetValue(0, 0);
  return v.AsDouble();
}

Database::Result Database::ExecuteStatement(const sql::Statement& stmt) {
  Result res;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect:
      res.table =
          std::make_shared<ExecTable>(Query(ReadContext{}, *stmt.select));
      break;
    case sql::Statement::Kind::kExplain:
      res.table = ExecuteExplain(stmt);
      break;
    case sql::Statement::Kind::kCreateTableAs:
      if (stmt.or_replace) catalog_.DropIfExists(stmt.table);
      ExecuteCreateTableAs(stmt);
      break;
    case sql::Statement::Kind::kUpdate:
      res.affected = ExecuteUpdate(stmt);
      break;
    case sql::Statement::Kind::kDropTable:
      if (stmt.if_exists) {
        catalog_.DropIfExists(stmt.table);
      } else {
        catalog_.Drop(stmt.table);
      }
      break;
  }
  return res;
}

std::shared_ptr<ExecTable> Database::Query(const ReadContext& rctx,
                                           const std::string& sql_text) {
  Timer timer;
  sql::Statement stmt = sql::Parse(sql_text);
  JB_CHECK_MSG(stmt.kind == sql::Statement::Kind::kSelect,
               "Query(ReadContext) supports SELECT statements only");
  auto table = std::make_shared<ExecTable>(Query(rctx, *stmt.select));
  QueryLogEntry entry;
  entry.tag = rctx.tag;
  entry.sql = sql_text;
  entry.ms = timer.Millis();
  entry.rows_out = table->rows;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    query_log_.push_back(std::move(entry));
  }
  return table;
}

ExecTable Database::Query(const ReadContext& rctx,
                          const sql::SelectStmt& stmt) {
  return PlanAndExecute(rctx, stmt, nullptr);
}

ExecTable Database::PlanAndExecute(const ReadContext& rctx,
                                   const sql::SelectStmt& stmt,
                                   plan::LogicalPlan* executed) {
  const Catalog& cat = rctx.catalog ? *rctx.catalog : catalog_;
  const EngineProfile& prof = rctx.profile ? *rctx.profile : profile_;

  plan::PlanStats local;
  OpContext octx;
  octx.row_mode = !prof.columnar_exec;
  // A profile override may lower the thread budget but never exceeds the
  // pool the database was built with.
  octx.threads = std::max(1, std::min(prof.exec_threads, exec_threads_));
  octx.pool = pool_.get();
  octx.interop_scan = prof.dataframe_interop;
  octx.stats = &local;
  octx.morsel_rows = prof.morsel_rows;
  octx.parallel_threshold = prof.parallel_threshold_rows;
  octx.compressed_exec = prof.compressed_exec && prof.compression;
  octx.guard = rctx.guard;

  EvalContext ectx;
  // Subqueries resolve through the same ReadContext, so a pinned snapshot
  // (and any profile override, and the lifecycle guard) covers the whole
  // statement.
  ectx.run_subquery = [this, &rctx](const sql::SelectStmt& sub) {
    return Query(rctx, sub);
  };

  auto merge_stats = [&local, this] {
    std::lock_guard<std::mutex> lock(stats_mu_);
    plan_stats_ += local;
  };
  try {
    ExecTable current;
    if (prof.use_planner || executed) {
      plan::ParallelPolicy policy;
      policy.threads =
          prof.columnar_exec ? octx.threads : 1;  // X-row is serial
      policy.morsel_rows = prof.morsel_rows;
      policy.threshold_rows = prof.parallel_threshold_rows;
      plan::LogicalPlan lp =
          plan::PlanSelect(stmt, cat, /*for_explain=*/false, policy);
      ++local.queries_planned;
      local.predicates_pushed += lp.predicates_pushed;
      local.constants_folded += lp.constants_folded;
      if (lp.joins_reordered) ++local.joins_reordered;
      current = ExecutePlanNode(cat, *lp.data_root, octx, ectx);
      if (executed) *executed = std::move(lp);
    } else {
      current = RunFromWhere(cat, stmt, octx, ectx);
    }
    ExecTable out = FinishSelect(stmt, std::move(current), octx, ectx);
    merge_stats();
    return out;
  } catch (const QueryAborted& e) {
    // An abort is a normal lifecycle outcome: record the reason and keep the
    // counters gathered so far, then let the typed error propagate.
    switch (e.reason()) {
      case AbortReason::kCancelled:
        ++local.queries_cancelled;
        break;
      case AbortReason::kDeadlineExceeded:
        ++local.deadline_aborts;
        break;
      case AbortReason::kMemoryBudget:
        ++local.budget_aborts;
        break;
    }
    merge_stats();
    throw;
  } catch (...) {
    // Injected faults and genuine errors still merge partial counters so
    // totals never under-report work that actually ran.
    merge_stats();
    throw;
  }
}

std::string Database::ExplainSelect(const sql::SelectStmt& stmt) {
  plan::LogicalPlan lp = plan::PlanSelect(stmt, catalog_, /*for_explain=*/true,
                                          parallel_policy());
  return plan::Explain(lp);
}

std::string Database::ExplainAnalyzeSelect(const sql::SelectStmt& stmt) {
  // Render the executed plan (the execution shape, for_explain=false), not a
  // re-plan: only the executed tree carries the recorded actual rows.
  plan::LogicalPlan lp;
  ExecTable out = PlanAndExecute(ReadContext{}, stmt, &lp);
  if (lp.root) lp.root->actual_rows = static_cast<double>(out.rows);
  return plan::Explain(lp);
}

plan::ParallelPolicy Database::parallel_policy() const {
  plan::ParallelPolicy p;
  p.threads = profile_.columnar_exec ? exec_threads_ : 1;  // X-row is serial
  p.morsel_rows = profile_.morsel_rows;
  p.threshold_rows = profile_.parallel_threshold_rows;
  return p;
}

std::shared_ptr<ExecTable> Database::ExecuteExplain(
    const sql::Statement& stmt) {
  std::string text = stmt.analyze ? ExplainAnalyzeSelect(*stmt.select)
                                  : ExplainSelect(*stmt.select);
  auto dict = std::make_shared<Dictionary>();
  std::vector<int64_t> codes;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) codes.push_back(dict->GetOrAdd(line));
  auto t = std::make_shared<ExecTable>();
  t->rows = codes.size();
  t->cols.push_back({"", "plan", VectorData::FromCodes(std::move(codes),
                                                       std::move(dict))});
  return t;
}

ExecTable Database::ExecutePlanNode(const Catalog& cat,
                                    const plan::LogicalOp& op, OpContext& octx,
                                    EvalContext& ectx) {
  ExecTable result = [&]() -> ExecTable {
  switch (op.kind) {
    case plan::OpKind::kScan: {
      TablePtr base = cat.Get(op.table);
      ScanSpec spec;
      std::vector<int> subset;
      if (op.pruned) {
        subset.reserve(op.columns.size());
        for (const auto& name : op.columns) {
          int idx = base->schema().FieldIndex(name);
          if (idx >= 0) subset.push_back(idx);
        }
        spec.columns = &subset;
      }
      spec.filter = op.filter.get();
      spec.ectx = &ectx;
      return ScanTable(*base, op.qualifier, octx, spec);
    }
    case plan::OpKind::kSubqueryScan: {
      // The nested SELECT is planned by its own Query() through the
      // statement's run_subquery hook (same ReadContext — catalog and profile
      // overrides included); the child node in the tree is for EXPLAIN only.
      ExecTable t = ectx.run_subquery(*op.subquery);
      for (auto& c : t.cols) c.qualifier = op.qualifier;
      if (op.filter) t = FilterExec(t, *op.filter, ectx, octx);
      return t;
    }
    case plan::OpKind::kJoin: {
      ExecTable left = ExecutePlanNode(cat, *op.children[0], octx, ectx);
      ExecTable right = ExecutePlanNode(cat, *op.children[1], octx, ectx);
      return JoinWithCondition(left, right, op.condition, op.join_type, ectx,
                               octx);
    }
    case plan::OpKind::kFilter: {
      ExecTable t = ExecutePlanNode(cat, *op.children[0], octx, ectx);
      return FilterExec(t, *op.filter, ectx, octx);
    }
    case plan::OpKind::kNoFrom: {
      ExecTable t;
      t.rows = 1;  // SELECT <exprs> without FROM
      return t;
    }
    default:
      JB_THROW("logical operator is not executable in the data section");
  }
  }();
  // EXPLAIN ANALYZE: record observed output rows on the (mutable) plan node.
  op.actual_rows = static_cast<double>(result.rows);
  return result;
}

ExecTable Database::RunFromWhere(const Catalog& cat,
                                 const sql::SelectStmt& stmt, OpContext& octx,
                                 EvalContext& ectx) {
  // ---- FROM + pushdown + joins over the raw AST (planner off) ----
  std::vector<sql::ExprPtr> conjuncts;
  SplitConjuncts(stmt.where, &conjuncts);
  std::vector<bool> consumed(conjuncts.size(), false);

  // `allow_pushdown` is false for the nullable side of outer joins:
  // filtering it below the join changes NULL-extension semantics. Semi/anti
  // right sides DO take pushdown — their columns vanish from the join
  // output, so below the join is the only place those conjuncts can run.
  auto plan_ref = [&](const sql::TableRef& ref,
                      bool allow_pushdown) -> ExecTable {
    ExecTable t;
    if (ref.kind == sql::TableRef::Kind::kBase) {
      TablePtr base = cat.Get(ref.name);
      t = ScanTable(*base, ref.Qualifier(), octx);
    } else {
      t = ectx.run_subquery(*ref.subquery);
      for (auto& c : t.cols) c.qualifier = ref.Qualifier();
    }
    if (!allow_pushdown) return t;
    // Push down single-table conjuncts.
    std::vector<sql::ExprPtr> pushed;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!consumed[i] && ResolvesAgainst(conjuncts[i], t)) {
        pushed.push_back(conjuncts[i]);
        consumed[i] = true;
      }
    }
    if (!pushed.empty()) {
      t = FilterExec(t, *CombineConjuncts(pushed), ectx, octx);
    }
    return t;
  };

  ExecTable current;
  if (stmt.has_from) {
    current = plan_ref(stmt.from, /*allow_pushdown=*/true);
    for (const auto& jc : stmt.joins) {
      ExecTable right =
          plan_ref(jc.table, jc.type != sql::JoinType::kLeft);
      current = JoinWithCondition(current, right, jc.condition, jc.type, ectx,
                                  octx);
    }
  } else {
    current.rows = 1;  // SELECT <exprs> without FROM
  }

  // Remaining WHERE conjuncts.
  std::vector<sql::ExprPtr> remaining;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!consumed[i]) remaining.push_back(conjuncts[i]);
  }
  if (!remaining.empty()) {
    current = FilterExec(current, *CombineConjuncts(remaining), ectx, octx);
  }
  return current;
}

ExecTable Database::FinishSelect(const sql::SelectStmt& stmt,
                                 ExecTable current, OpContext& octx,
                                 EvalContext& ectx) {
  // ---- aggregation / windows ----
  std::vector<const sql::Expr*> agg_nodes;
  for (const auto& item : stmt.select_list) {
    CollectAggregates(item, &agg_nodes);
  }
  if (stmt.having) CollectAggregates(stmt.having, &agg_nodes);

  std::vector<AggSpec> specs;
  specs.reserve(agg_nodes.size());
  for (const auto* node : agg_nodes) {
    AggSpec spec;
    spec.node = node;
    spec.func = node->op;
    spec.arg = (node->args.empty() ||
                node->args[0]->kind == sql::ExprKind::kStar)
                   ? nullptr
                   : node->args[0].get();
    specs.push_back(spec);
  }

  ExecTable projected;
  if (!stmt.grouping_sets.empty()) {
    // GROUP BY GROUPING SETS: evaluate every set over the shared data
    // section in one multi-aggregate pass, then project over the stitched
    // result. GROUPING_ID() resolves to the per-row set index.
    JB_CHECK_MSG(!stmt.having, "HAVING with GROUPING SETS is not supported");
    MultiAggResult mar =
        MultiAggExec(current, stmt.grouping_sets, specs, ectx, octx);
    EvalContext pctx;
    pctx.run_subquery = ectx.run_subquery;
    for (size_t a = 0; a < specs.size(); ++a) {
      pctx.overrides.emplace(specs[a].node, mar.agg_outputs[a]);
    }
    std::vector<const sql::Expr*> gid_nodes;
    for (const auto& item : stmt.select_list) {
      CollectFuncCalls(item, "GROUPING_ID", &gid_nodes);
    }
    for (const auto* n : gid_nodes) pctx.overrides.emplace(n, mar.grouping_id);
    std::vector<VectorData> key_cols;
    for (size_t u = 0; u < mar.union_key_sql.size(); ++u) {
      key_cols.push_back(mar.table.cols[u].data);
    }
    for (const auto& item : stmt.select_list) {
      OverrideGroupRefs(item, mar.union_key_sql, key_cols, &pctx);
    }
    projected.rows = mar.table.rows;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      const auto& item = stmt.select_list[i];
      JB_CHECK_MSG(item->kind != sql::ExprKind::kStar,
                   "SELECT * with GROUPING SETS is not supported");
      VectorData v = EvalExpr(*item, mar.table, pctx);
      projected.cols.push_back({"", OutputName(*item, i), std::move(v)});
    }
  } else if (!stmt.group_by.empty() || !agg_nodes.empty()) {
    std::vector<VectorData> agg_outputs;
    ExecTable grouped = HashAggExec(current, stmt.group_by, specs, ectx, octx,
                                    &agg_outputs);
    // Final projection over the grouped table: aggregate nodes resolve via
    // overrides; textual matches of GROUP BY expressions resolve to keys.
    EvalContext pctx;
    pctx.run_subquery = ectx.run_subquery;
    for (size_t a = 0; a < specs.size(); ++a) {
      pctx.overrides.emplace(specs[a].node, agg_outputs[a]);
    }
    std::vector<std::string> group_sql;
    std::vector<VectorData> key_cols;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      group_sql.push_back(sql::ToSql(*stmt.group_by[g]));
      key_cols.push_back(grouped.cols[g].data);
    }
    for (const auto& item : stmt.select_list) {
      OverrideGroupRefs(item, group_sql, key_cols, &pctx);
    }
    if (stmt.having) {
      OverrideGroupRefs(stmt.having, group_sql, key_cols, &pctx);
      std::vector<uint32_t> sel =
          EvalPredicate(*stmt.having, grouped, pctx, /*row_mode=*/false);
      grouped = grouped.GatherRows(sel);
      for (auto& [node, vec] : pctx.overrides) {
        vec = vec.Gather(sel);
      }
    }
    projected.rows = grouped.rows;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      const auto& item = stmt.select_list[i];
      JB_CHECK_MSG(item->kind != sql::ExprKind::kStar,
                   "SELECT * with GROUP BY is not supported");
      VectorData v = EvalExpr(*item, grouped, pctx);
      projected.cols.push_back({"", OutputName(*item, i), std::move(v)});
    }
  } else {
    // Windows (non-grouped).
    std::vector<const sql::Expr*> windows;
    for (const auto& item : stmt.select_list) CollectWindows(item, &windows);
    EvalContext pctx;
    pctx.run_subquery = ectx.run_subquery;
    for (const auto* w : windows) {
      pctx.overrides.emplace(w, WindowExec(current, *w, pctx));
    }
    projected.rows = current.rows;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      const auto& item = stmt.select_list[i];
      if (item->kind == sql::ExprKind::kStar) {
        for (const auto& c : current.cols) projected.cols.push_back(c);
        continue;
      }
      VectorData v = EvalExpr(*item, current, pctx);
      projected.cols.push_back({"", OutputName(*item, i), std::move(v)});
    }
  }

  // ---- DISTINCT ----
  if (stmt.distinct && projected.rows > 0) {
    std::vector<int> cols;
    for (size_t i = 0; i < projected.cols.size(); ++i) {
      cols.push_back(static_cast<int>(i));
    }
    OpContext d_octx = octx;
    GroupResult gr = GroupRows(projected, cols, d_octx);
    projected = projected.GatherRows(gr.representatives);
  }

  // ---- ORDER BY / LIMIT (resolve against output columns) ----
  if (!stmt.order_by.empty()) {
    EvalContext octx2;
    octx2.run_subquery = ectx.run_subquery;
    projected = SortExec(projected, stmt.order_by, octx2, octx);
  }
  if (stmt.limit >= 0) projected = LimitExec(projected, stmt.limit);
  return projected;
}

void Database::RegisterTable(const TablePtr& table) {
  catalog_.Register(table);
}

void Database::LoadTable(const TablePtr& table) {
  // Apply the storage profile's horizontal chunking before compression so
  // every chunk gets its own independently decodable payload. Dataframe
  // tables stay monolithic: the interop scan shares their single plain
  // payload by pointer.
  if (profile_.chunk_rows > 0 && !table->dataframe()) {
    table->Rechunk(profile_.chunk_rows);
    size_t created = 0;
    for (size_t i = 0; i < table->num_columns(); ++i) {
      created += table->column(i)->num_chunks();
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    plan_stats_.chunks_created += created;
  }
  if (profile_.compression && !table->dataframe()) table->EncodeAll();
  catalog_.Register(table);
}

TablePtr Database::MaterializeResult(const std::string& name,
                                     const ExecTable& result,
                                     bool as_dataframe) {
  Schema schema;
  std::vector<ColumnPtr> cols;
  size_t created = 0;
  // Dataframe tables stay monolithic (interop scans share the single plain
  // payload); everything else chunks per the profile. At chunk_rows == 0 the
  // Adopt* path is zero-copy, exactly like the pre-chunking layout.
  const size_t chunk_rows = as_dataframe ? 0 : profile_.chunk_rows;
  for (size_t i = 0; i < result.cols.size(); ++i) {
    const auto& c = result.cols[i];
    std::string col_name = c.name.empty() ? "col" + std::to_string(i) : c.name;
    schema.AddField({col_name, c.data.type});
    ColumnBuilder b(c.data.type,
                    c.data.type == TypeId::kString ? c.data.dict : nullptr);
    b.ChunkRows(chunk_rows);
    if (c.data.type == TypeId::kFloat64) {
      b.AdoptDoubles(c.data.dbls);
    } else {
      b.AdoptInts(c.data.ints);
    }
    cols.push_back(b.Build());
    created += cols.back()->num_chunks();
  }
  auto table = std::make_shared<Table>(name, std::move(schema), std::move(cols));
  table->set_dataframe(as_dataframe);
  if (profile_.compression && !as_dataframe) {
    table->EncodeAll();  // real compression cost on CREATE
  }
  if (profile_.wal && !as_dataframe) {
    // Log the created data (DBMSes WAL new tables too). The records are
    // staged and appended as one atomic batch so a failed write (device
    // error, injected fault) leaves neither partial WAL entries nor a
    // registered table behind.
    std::vector<WriteAheadLog::Record> wal_recs;
    wal_recs.reserve(table->num_columns());
    for (size_t i = 0; i < table->num_columns(); ++i) {
      const auto& col = table->column(i);
      if (col->type() == TypeId::kFloat64) {
        wal_recs.push_back(WriteAheadLog::MakeDoubles(
            name, table->schema().field(i).name, {}, col->DecodeDoubles()));
      } else {
        wal_recs.push_back(WriteAheadLog::MakeInts(
            name, table->schema().field(i).name, {}, col->DecodeInts()));
      }
    }
    wal_->LogBatch(std::move(wal_recs));
  }
  catalog_.Register(table);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    plan_stats_.chunks_created += created;
  }
  return table;
}

void Database::ExecuteCreateTableAs(const sql::Statement& stmt) {
  ExecTable result = Query(ReadContext{}, *stmt.select);
  MaterializeResult(stmt.table, result, /*as_dataframe=*/false);
}

size_t Database::ExecuteUpdate(const sql::Statement& stmt) {
  // Updates are serialized and single-threaded, as in DuckDB (§5.3.2).
  std::lock_guard<std::mutex> update_lock(update_mu_);
  TablePtr table = catalog_.Get(stmt.table);
  JB_CHECK_MSG(!table->dataframe() || profile_.allow_column_swap,
               "dataframe tables are updated via column swap");

  OpContext octx;
  octx.row_mode = !profile_.columnar_exec;
  octx.threads = 1;
  octx.pool = nullptr;
  EvalContext ectx;
  ectx.run_subquery = [this](const sql::SelectStmt& sub) {
    return Query(ReadContext{}, sub);
  };

  // Decompress (cost) to evaluate and write.
  ExecTable view = ScanTable(*table, stmt.table, octx);

  std::vector<uint32_t> touched;
  if (stmt.where) {
    touched = EvalPredicate(*stmt.where, view, ectx, octx.row_mode);
  } else {
    touched.resize(view.rows);
    for (size_t i = 0; i < view.rows; ++i) touched[i] = static_cast<uint32_t>(i);
  }
  if (touched.empty()) return 0;

  // Row stores touch whole rows: emulate the row rewrite traffic.
  if (!profile_.columnar_exec) {
    size_t row_bytes = 0;
    std::vector<uint8_t> row_buffer(table->num_columns() * 8);
    volatile uint64_t sink = 0;
    for (uint32_t r : touched) {
      for (size_t c = 0; c < view.cols.size(); ++c) {
        const VectorData& v = view.cols[c].data;
        uint64_t bits = v.type == TypeId::kFloat64
                            ? [&] {
                                double d = (*v.dbls)[r];
                                uint64_t b;
                                std::memcpy(&b, &d, 8);
                                return b;
                              }()
                            : static_cast<uint64_t>((*v.ints)[r]);
        std::memcpy(&row_buffer[c * 8], &bits, 8);
      }
      sink = sink + Fnv1a(row_buffer.data(), row_buffer.size());
      row_bytes += row_buffer.size();
    }
    (void)sink;
    (void)row_bytes;
  }

  // Copy-on-write publication: replacement columns are built aside and the
  // updated table is installed with a single Register() call, which swaps
  // the catalog's TablePtr atomically. A reader that resolved the old
  // pointer keeps a fully pre-update view; a reader that resolves after the
  // install sees every SET applied. The previous in-place path could expose
  // a mid-update mix (column A rewritten, column B not yet) to a concurrent
  // reader despite update_mu_, which only serializes writers.
  std::vector<ColumnPtr> new_cols = table->columns();
  size_t chunks_rewritten = 0;
  size_t chunks_created = 0;
  // MVCC undo payloads and WAL records are STAGED during the fallible
  // evaluate/rewrite loop and only applied in the publish stage below, so an
  // exception thrown by a later SET item (bad expression, injected fault)
  // leaves the version store, the WAL, and the catalog exactly as they were.
  struct StagedUndo {
    std::string column;
    bool is_double = false;
    std::vector<double> dbls;
    std::vector<int64_t> ints;
  };
  std::vector<StagedUndo> undo;
  std::vector<WriteAheadLog::Record> wal_recs;
  for (const auto& [col_name, expr] : stmt.set_items) {
    int idx = table->schema().FieldIndex(col_name);
    JB_CHECK_MSG(idx >= 0, "UPDATE: no column " << col_name);
    const ColumnPtr& col = table->column(static_cast<size_t>(idx));

    // Evaluate the full expression, then scatter at touched rows.
    VectorData new_vals = EvalExpr(*expr, view, ectx);

    ColumnPtr replacement;
    if (col->type() == TypeId::kFloat64) {
      std::vector<double> data = col->DecodeDoubles();
      std::vector<double> old_touched;
      std::vector<double> new_touched;
      old_touched.reserve(touched.size());
      new_touched.reserve(touched.size());
      for (uint32_t r : touched) {
        old_touched.push_back(data[r]);
        double nv = new_vals.type == TypeId::kFloat64
                        ? (*new_vals.dbls)[r]
                        : static_cast<double>((*new_vals.ints)[r]);
        new_touched.push_back(nv);
        data[r] = nv;
      }
      if (profile_.mvcc) {
        undo.push_back({col_name, /*is_double=*/true, std::move(old_touched),
                        {}});
      }
      if (profile_.wal) {
        wal_recs.push_back(WriteAheadLog::MakeDoubles(stmt.table, col_name,
                                                      touched, new_touched));
      }
      // Preserve the column's chunk layout so the rewrite is invisible to
      // chunk-aligned consumers (same boundaries, new segment identities).
      replacement = ColumnBuilder(TypeId::kFloat64)
                        .ChunkOffsets(col->chunk_offsets())
                        .AppendDoubles(std::move(data))
                        .Build();
    } else {
      std::vector<int64_t> data = col->DecodeInts();
      std::vector<int64_t> old_touched;
      std::vector<int64_t> new_touched;
      for (uint32_t r : touched) {
        old_touched.push_back(data[r]);
        int64_t nv = new_vals.type == TypeId::kFloat64
                         ? static_cast<int64_t>((*new_vals.dbls)[r])
                         : (*new_vals.ints)[r];
        new_touched.push_back(nv);
        data[r] = nv;
      }
      if (profile_.mvcc) {
        undo.push_back({col_name, /*is_double=*/false, {},
                        std::move(old_touched)});
      }
      if (profile_.wal) {
        wal_recs.push_back(WriteAheadLog::MakeInts(stmt.table, col_name,
                                                   touched, new_touched));
      }
      replacement =
          col->type() == TypeId::kString
              ? ColumnBuilder(TypeId::kString, col->dict())
                    .ChunkOffsets(col->chunk_offsets())
                    .AppendCodes(std::move(data))
                    .Build()
              : ColumnBuilder(TypeId::kInt64)
                    .ChunkOffsets(col->chunk_offsets())
                    .AppendInts(std::move(data))
                    .Build();
    }
    if (profile_.compression && !table->dataframe()) replacement->Encode();
    chunks_rewritten += col->num_chunks();
    chunks_created += replacement->num_chunks();
    new_cols[static_cast<size_t>(idx)] = std::move(replacement);
  }
  auto updated = std::make_shared<Table>(stmt.table, table->schema(),
                                         std::move(new_cols));
  updated->set_dataframe(table->dataframe());
  // Publish stage: all fallible computation is done. WAL first (LogBatch is
  // all-or-nothing and the only step that can still fail), then the MVCC
  // undo records, then the single atomic catalog swap.
  if (profile_.wal) wal_->LogBatch(std::move(wal_recs));
  if (profile_.mvcc) {
    uint64_t txn = versions_.BeginTxn();
    for (auto& u : undo) {
      if (u.is_double) {
        versions_.RecordDoubles(txn, stmt.table, u.column, touched,
                                std::move(u.dbls));
      } else {
        versions_.RecordInts(txn, stmt.table, u.column, touched,
                             std::move(u.ints));
      }
    }
  }
  catalog_.Register(updated);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    plan_stats_.chunks_rewritten += chunks_rewritten;
    plan_stats_.chunks_created += chunks_created;
  }
  return touched.size();
}

TablePtr Database::AppendRows(const std::string& name, const ExecTable& rows) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  TablePtr table = catalog_.Get(name);
  JB_CHECK_MSG(rows.cols.size() >= table->num_columns(),
               "AppendRows: batch has fewer columns than " << name);
  if (rows.rows == 0) return table;  // nothing to seal

  // Copy-on-write growth, same publication discipline as ExecuteUpdate: the
  // grown table is built aside and swapped in atomically, so readers see the
  // old or the new row count, never a ragged intermediate. The batch is
  // sealed into NEW chunks behind the existing segment list, which is reused
  // by pointer — the append is O(new rows) and chunks_rewritten stays 0.
  // Dataframe tables are the exception: interop scans share a single plain
  // payload, so they rebuild monolithically (and the rebuild is counted).
  const bool monolithic = table->dataframe();
  size_t chunks_created = 0;
  size_t chunks_rewritten = 0;
  std::vector<ColumnPtr> new_cols;
  new_cols.reserve(table->num_columns());
  // WAL records are staged and batch-appended in the publish stage, so a
  // schema mismatch or injected fault on a later column leaves no trace of
  // the aborted append in the log.
  std::vector<WriteAheadLog::Record> wal_recs;
  for (size_t i = 0; i < table->num_columns(); ++i) {
    const Field& field = table->schema().field(i);
    int src = rows.Find("", field.name);
    JB_CHECK_MSG(src >= 0, "AppendRows: batch lacks column " << field.name);
    const VectorData& v = rows.cols[static_cast<size_t>(src)].data;
    const ColumnPtr& col = table->column(i);

    // Build the batch values (per type), logging them to the WAL. Only the
    // incoming rows are touched here — existing segments are never decoded.
    ColumnBuilder batch_builder(
        field.type, field.type == TypeId::kString
                        ? std::make_shared<Dictionary>(*col->dict())
                        : nullptr);
    batch_builder.ChunkRows(monolithic ? 0 : profile_.chunk_rows);
    if (field.type == TypeId::kFloat64) {
      JB_CHECK_MSG(v.type == TypeId::kFloat64,
                   "AppendRows: type mismatch for " << field.name);
      if (profile_.wal) {
        wal_recs.push_back(
            WriteAheadLog::MakeDoubles(name, field.name, {}, *v.dbls));
      }
      batch_builder.AppendDoubles(
          std::vector<double>(v.dbls->begin(), v.dbls->end()));
    } else if (field.type == TypeId::kString) {
      JB_CHECK_MSG(v.type == TypeId::kString && v.dict,
                   "AppendRows: type mismatch for " << field.name);
      // The dictionary is shared with concurrent readers of the old table
      // and must not grow under them: copy it, then translate the incoming
      // codes against the copy. The copy is an append-only superset, so the
      // codes inside existing (reused) segments stay valid.
      Dictionary& dict = *batch_builder.dict();
      std::vector<int64_t> appended;
      appended.reserve(v.ints->size());
      for (int64_t code : *v.ints) {
        appended.push_back(code == kNullInt64 ? kNullInt64
                                              : dict.GetOrAdd(v.dict->At(code)));
      }
      if (profile_.wal) {
        wal_recs.push_back(
            WriteAheadLog::MakeInts(name, field.name, {}, appended));
      }
      batch_builder.AppendCodes(std::move(appended));
    } else {
      JB_CHECK_MSG(v.type == TypeId::kInt64,
                   "AppendRows: type mismatch for " << field.name);
      if (profile_.wal) {
        wal_recs.push_back(
            WriteAheadLog::MakeInts(name, field.name, {}, *v.ints));
      }
      batch_builder.AppendInts(
          std::vector<int64_t>(v.ints->begin(), v.ints->end()));
    }
    DictionaryPtr grown_dict = batch_builder.dict();
    ColumnPtr batch_col = batch_builder.Build();
    if (profile_.compression && !monolithic) batch_col->Encode();

    ColumnPtr grown;
    if (monolithic) {
      // Dataframe rebuild: one plain chunk spanning old + new rows.
      ColumnBuilder rebuilt(field.type, grown_dict);
      if (field.type == TypeId::kFloat64) {
        std::vector<double> data = col->DecodeDoubles();
        std::vector<double> tail = batch_col->DecodeDoubles();
        data.insert(data.end(), tail.begin(), tail.end());
        rebuilt.AppendDoubles(std::move(data));
      } else {
        std::vector<int64_t> data = col->DecodeInts();
        std::vector<int64_t> tail = batch_col->DecodeInts();
        data.insert(data.end(), tail.begin(), tail.end());
        if (field.type == TypeId::kString) {
          rebuilt.AppendCodes(std::move(data));
        } else {
          rebuilt.AppendInts(std::move(data));
        }
      }
      grown = rebuilt.Build();
      chunks_rewritten += col->num_chunks();
      chunks_created += grown->num_chunks();
    } else {
      // Seal: old segments reused by pointer, batch segments behind them.
      // A zero-row placeholder chunk (freshly created empty table) is
      // dropped rather than carried forward.
      std::vector<ChunkPtr> merged;
      merged.reserve(col->num_chunks() + batch_col->num_chunks());
      for (const auto& ch : col->chunks()) {
        if (ch->rows > 0) merged.push_back(ch);
      }
      for (const auto& ch : batch_col->chunks()) merged.push_back(ch);
      chunks_created += batch_col->num_chunks();
      grown = ColumnData::FromChunks(field.type, std::move(merged),
                                     field.type == TypeId::kString
                                         ? grown_dict
                                         : nullptr);
    }
    new_cols.push_back(std::move(grown));
  }
  auto grown_table =
      std::make_shared<Table>(name, table->schema(), std::move(new_cols));
  grown_table->set_dataframe(table->dataframe());
  // Publish stage: WAL first (the only remaining fallible step), then the
  // MVCC txn marker, then the atomic catalog swap.
  if (profile_.wal) wal_->LogBatch(std::move(wal_recs));
  if (profile_.mvcc) versions_.BeginTxn();
  catalog_.Register(grown_table);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    plan_stats_.chunks_created += chunks_created;
    plan_stats_.chunks_rewritten += chunks_rewritten;
  }
  return grown_table;
}

void Database::SwapColumns(const std::string& table1, const std::string& col1,
                           const std::string& table2,
                           const std::string& col2) {
  JB_CHECK_MSG(profile_.allow_column_swap,
               "profile '" << profile_.name
                           << "' does not support column swap (the paper's "
                              "engine patch, §5.4)");
  // Writer-writer serialization. The swap itself stays in-place by design
  // (§5.4: a pointer exchange is the whole point) and is only used by the
  // trainer on its private lifted copies — serving snapshots never cover
  // mid-train lifted tables.
  std::lock_guard<std::mutex> update_lock(update_mu_);
  TablePtr t1 = catalog_.Get(table1);
  TablePtr t2 = catalog_.Get(table2);
  t1->column(col1)->SwapPayload(*t2->column(col2));
}

std::vector<Database::QueryLogEntry> Database::QueryLog() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return query_log_;
}

void Database::ClearQueryLog() {
  std::lock_guard<std::mutex> lock(log_mu_);
  query_log_.clear();
}

double Database::TotalMsForTag(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(log_mu_);
  double total = 0;
  for (const auto& e : query_log_) {
    if (e.tag == tag) total += e.ms;
  }
  return total;
}

size_t Database::CountForTag(const std::string& tag) const {
  std::lock_guard<std::mutex> lock(log_mu_);
  size_t n = 0;
  for (const auto& e : query_log_) {
    if (e.tag == tag) ++n;
  }
  return n;
}

plan::PlanStats Database::PlanStatsTotals() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return plan_stats_;
}

void Database::ClearPlanStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  plan_stats_ = plan::PlanStats();
}

}  // namespace exec
}  // namespace joinboost
