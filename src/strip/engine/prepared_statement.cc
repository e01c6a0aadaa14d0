#include "strip/engine/prepared_statement.h"

#include <optional>
#include <utility>
#include <variant>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/sql/compiled_expr.h"
#include "strip/sql/plan.h"
#include "strip/storage/record.h"

namespace strip {

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// Everything resolved at prepare time, valid for one catalog generation.
/// Conjunct / precompiled-map pointers borrow Expr nodes from the handle's
/// own `stmt_`, so a plan never outlives its statement.
struct PreparedStatement::Plan {
  uint64_t generation = 0;
  std::vector<std::string> notes;

  // --- SELECT fast path: frozen FROM resolution + classified WHERE ------
  bool select_bound = false;
  InputSet inputs;
  std::vector<Conjunct> conjuncts;
  /// Lowered FROM table names; if a task's bound tables shadow any of them
  /// at execution time, the frozen resolution would be wrong — fall back.
  std::vector<std::string> from_names;
  std::unordered_map<const Expr*, CompiledExpr> precompiled;
  bool select_index_probe = false;

  // --- single-table DML fast path ----------------------------------------
  enum class Dml { kNone, kInsert, kUpdate, kDelete };
  Dml dml = Dml::kNone;
  Table* table = nullptr;
  std::vector<int> set_cols;               // UPDATE
  std::vector<CompiledExpr> set_exprs;     // UPDATE, parallel to set_cols
  std::optional<CompiledExpr> where;       // UPDATE / DELETE; nullopt = all
  Index* index = nullptr;                  // indexed `col = const` probe
  std::optional<CompiledExpr> index_key;   // constant program for the key
  std::vector<int> insert_mapping;         // INSERT: value pos -> column
  std::vector<std::vector<CompiledExpr>> insert_rows;
};

namespace {

using Plan = PreparedStatement::Plan;

ResultSet RowsAffected(int n) {
  ResultSet rs;
  rs.schema.AddColumn("rows_affected", ValueType::kInt);
  rs.rows.push_back({Value::Int(n)});
  return rs;
}

bool IsDdlStatement(const Statement& stmt) {
  return std::holds_alternative<CreateTableStmt>(stmt) ||
         std::holds_alternative<DropTableStmt>(stmt) ||
         std::holds_alternative<CreateIndexStmt>(stmt) ||
         std::holds_alternative<CreateViewStmt>(stmt) ||
         std::holds_alternative<CreateRuleStmt>(stmt) ||
         std::holds_alternative<DropRuleStmt>(stmt);
}

/// Finds the first structurally-constant indexed `col = const` conjunct of
/// `where` (mirroring the interpreted CollectMatchingRows probe) and
/// compiles the key. Leaves plan.index null when there is none.
void PlanDmlProbe(Plan& plan, const Expr* where,
                  const ScalarFuncRegistry* funcs) {
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, conjuncts);
  const Schema& schema = plan.table->schema();
  for (const Expr* f : conjuncts) {
    if (f->kind != ExprKind::kBinary || f->bin_op != BinaryOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr& col_side = *f->args[static_cast<size_t>(side)];
      const Expr& const_side = *f->args[static_cast<size_t>(1 - side)];
      if (col_side.kind != ExprKind::kColumnRef) continue;
      if (!col_side.qualifier.empty() &&
          col_side.qualifier != plan.table->name()) {
        continue;
      }
      int c = schema.FindColumn(col_side.column);
      if (c < 0) continue;
      Index* idx = plan.table->FindIndexByPosition(c);
      if (idx == nullptr) continue;
      auto key = CompiledExpr::CompileConstant(const_side, funcs);
      if (!key.ok()) continue;  // references a column: not a constant probe
      plan.index = idx;
      plan.index_key = std::move(*key);
      plan.notes.push_back(StrFormat(
          "dml: index probe on %s.%s", plan.table->name().c_str(),
          schema.column(c).name.c_str()));
      return;
    }
  }
  plan.notes.push_back(
      StrFormat("dml: full scan of %s", plan.table->name().c_str()));
}

/// True when `expr` has no column references (so the executor's ScanInput
/// would treat it as a constant probe side).
bool IsColumnFree(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef) return false;
  for (const auto& a : expr.args) {
    if (!IsColumnFree(*a)) return false;
  }
  return true;
}

/// Mirrors ScanInput's probe detection for introspection: would any frozen
/// input be scanned through an index given these conjuncts?
bool SelectWouldProbeIndex(const InputSet& inputs,
                           const std::vector<Conjunct>& conjuncts) {
  for (const Conjunct& c : conjuncts) {
    if (c.referenced.size() > 1) continue;
    const Expr* f = c.expr;
    if (f->kind != ExprKind::kBinary || f->bin_op != BinaryOp::kEq) continue;
    for (int side = 0; side < 2; ++side) {
      const Expr& col_side = *f->args[static_cast<size_t>(side)];
      const Expr& const_side = *f->args[static_cast<size_t>(1 - side)];
      if (col_side.kind != ExprKind::kColumnRef) continue;
      auto acc = inputs.Resolve(col_side.qualifier, col_side.column);
      if (!acc.ok()) continue;
      const BoundInput& in = inputs.inputs()[static_cast<size_t>(acc->input)];
      if (in.table == nullptr) continue;
      if (in.table->FindIndexByPosition(acc->column) == nullptr) continue;
      if (!IsColumnFree(const_side)) continue;
      return true;
    }
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / plan building
// ---------------------------------------------------------------------------

PreparedStatement::PreparedStatement(Database* db, std::string sql,
                                     Statement stmt)
    : db_(db), sql_(std::move(sql)), stmt_(std::move(stmt)) {}

PreparedStatement::~PreparedStatement() = default;

bool PreparedStatement::is_select() const {
  return std::holds_alternative<SelectStmt>(stmt_);
}

bool PreparedStatement::is_ddl() const { return IsDdlStatement(stmt_); }

std::shared_ptr<const Plan> PreparedStatement::CurrentPlan() {
  // Read the generation before resolving: a concurrent DDL then at worst
  // makes this plan look stale and triggers a rebuild on the next use.
  uint64_t gen = db_->catalog_.generation();
  std::lock_guard<std::mutex> lk(mu_);
  if (plan_ == nullptr || plan_->generation != gen) {
    plan_ = BuildPlan();
  }
  return plan_;
}

std::shared_ptr<const Plan> PreparedStatement::BuildPlan() {
  auto plan = std::make_shared<Plan>();
  plan->generation = db_->catalog_.generation();
  const ScalarFuncRegistry* funcs = &db_->scalar_funcs_;

  if (!db_->options_.enable_compiled_exprs) {
    plan->notes.push_back("fallback: compiled expressions disabled");
    return plan;
  }

  auto fallback = [&](const char* what, const Status& why) {
    plan->notes.push_back(StrFormat("fallback: %s (%s)", what,
                                    why.message().c_str()));
    return plan;
  };

  if (const auto* s = std::get_if<SelectStmt>(&stmt_)) {
    // Freeze FROM against the catalog only; transition / bound tables are
    // per-execution, so any name they could supply forces the generic path.
    if (s->from.empty()) {
      return fallback("select", Status::InvalidArgument("empty FROM"));
    }
    for (const TableRef& ref : s->from) {
      std::string name = ToLower(ref.table);
      Table* table = db_->catalog_.FindTable(name);
      if (table == nullptr) {
        return fallback("select",
                        Status::NotFound(StrFormat("no table '%s'",
                                                   name.c_str())));
      }
      plan->from_names.push_back(std::move(name));
      plan->inputs.Add(ref.EffectiveName(), table, nullptr);
    }
    auto conjuncts = ClassifyConjuncts(s->where.get(), plan->inputs, nullptr);
    if (!conjuncts.ok()) return fallback("select", conjuncts.status());
    plan->conjuncts = std::move(*conjuncts);
    plan->select_bound = true;
    plan->select_index_probe =
        SelectWouldProbeIndex(plan->inputs, plan->conjuncts);

    // Pre-compile every expression the executor evaluates against join
    // rows; nodes that do not compile (aggregates, lazy errors) are simply
    // left out and handled by the executor's own per-call path.
    auto precompile = [&](const Expr* e) {
      if (e == nullptr || plan->precompiled.count(e) > 0) return;
      auto c = CompiledExpr::Compile(*e, plan->inputs, nullptr, funcs);
      if (c.ok()) plan->precompiled.emplace(e, std::move(*c));
    };
    for (const Conjunct& c : plan->conjuncts) {
      precompile(c.expr);
      precompile(c.lhs);
      precompile(c.rhs);
    }
    for (const SelectItem& item : s->items) precompile(item.expr.get());
    for (const ExprPtr& e : s->group_by) precompile(e.get());
    for (const OrderByItem& o : s->order_by) precompile(o.expr.get());
    plan->notes.push_back(StrFormat(
        "select: frozen input set (%zu inputs), %zu compiled programs, %s",
        plan->inputs.inputs().size(), plan->precompiled.size(),
        plan->select_index_probe ? "index probe" : "scan"));
    return plan;
  }

  if (const auto* s = std::get_if<UpdateStmt>(&stmt_)) {
    Table* table = db_->catalog_.FindTable(ToLower(s->table));
    if (table == nullptr) {
      return fallback("update", Status::NotFound("table not found"));
    }
    plan->table = table;
    const Schema& schema = table->schema();
    for (const auto& sc : s->sets) {
      int c = schema.FindColumn(sc.column);
      if (c < 0) return fallback("update", Status::NotFound(sc.column));
      auto prog = CompiledExpr::CompileSingleTable(
          *sc.expr, table->name(), schema, nullptr, funcs);
      if (!prog.ok()) return fallback("update set", prog.status());
      plan->set_cols.push_back(c);
      plan->set_exprs.push_back(std::move(*prog));
    }
    if (s->where != nullptr) {
      auto prog = CompiledExpr::CompileSingleTable(
          *s->where, table->name(), schema, nullptr, funcs);
      if (!prog.ok()) return fallback("update where", prog.status());
      plan->where = std::move(*prog);
    }
    plan->dml = Plan::Dml::kUpdate;
    PlanDmlProbe(*plan, s->where.get(), funcs);
    return plan;
  }

  if (const auto* s = std::get_if<DeleteStmt>(&stmt_)) {
    Table* table = db_->catalog_.FindTable(ToLower(s->table));
    if (table == nullptr) {
      return fallback("delete", Status::NotFound("table not found"));
    }
    plan->table = table;
    if (s->where != nullptr) {
      auto prog = CompiledExpr::CompileSingleTable(
          *s->where, table->name(), table->schema(), nullptr, funcs);
      if (!prog.ok()) return fallback("delete where", prog.status());
      plan->where = std::move(*prog);
    }
    plan->dml = Plan::Dml::kDelete;
    PlanDmlProbe(*plan, s->where.get(), funcs);
    return plan;
  }

  if (const auto* s = std::get_if<InsertStmt>(&stmt_)) {
    Table* table = db_->catalog_.FindTable(ToLower(s->table));
    if (table == nullptr) {
      return fallback("insert", Status::NotFound("table not found"));
    }
    plan->table = table;
    const Schema& schema = table->schema();
    if (s->columns.empty()) {
      for (int i = 0; i < schema.num_columns(); ++i) {
        plan->insert_mapping.push_back(i);
      }
    } else {
      for (const std::string& col : s->columns) {
        int c = schema.FindColumn(col);
        if (c < 0) return fallback("insert", Status::NotFound(col));
        plan->insert_mapping.push_back(c);
      }
    }
    for (const auto& row_exprs : s->rows) {
      if (row_exprs.size() != plan->insert_mapping.size()) {
        return fallback("insert",
                        Status::InvalidArgument("arity mismatch"));
      }
      std::vector<CompiledExpr> row;
      for (const ExprPtr& e : row_exprs) {
        auto prog = CompiledExpr::CompileConstant(*e, funcs);
        if (!prog.ok()) return fallback("insert values", prog.status());
        row.push_back(std::move(*prog));
      }
      plan->insert_rows.push_back(std::move(row));
    }
    plan->dml = Plan::Dml::kInsert;
    plan->notes.push_back(StrFormat("dml: insert %zu row(s) into %s",
                                    plan->insert_rows.size(),
                                    table->name().c_str()));
    return plan;
  }

  plan->notes.push_back("fallback: statement kind has no fast path");
  return plan;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// The frozen FROM resolution assumed catalog tables; a task bound table
/// with the same name would have taken precedence in BindFrom.
bool ShadowedByTask(const Plan& plan, TaskControlBlock* task) {
  if (task == nullptr) return false;
  for (const std::string& name : plan.from_names) {
    if (task->bound_tables.Find(name) != nullptr) return true;
  }
  return false;
}

}  // namespace

Result<ResultSet> PreparedStatement::Execute(
    const std::vector<Value>& params) {
  if (is_ddl()) return db_->ExecuteDdl(stmt_);
  // kAutocommit holds the DDL latch across each whole attempt: the
  // generation check in CurrentPlan and the execution against the frozen
  // Table* must be one atomic unit w.r.t. metadata DDL (ddl_latch.h).
  return db_->ExecuteAutocommit(
      [&](Transaction* txn) { return ExecuteInTxn(txn, params); });
}

Result<ResultSet> PreparedStatement::ExecuteInTxn(
    Transaction* txn, const std::vector<Value>& params,
    TaskControlBlock* task) {
  if (is_ddl()) {
    return Status::InvalidArgument(
        "DDL cannot run inside a transaction; use Execute()");
  }
  if (is_select()) {
    STRIP_ASSIGN_OR_RETURN(TempTable t, Query(txn, params, task));
    return t.Materialize();
  }
  STRIP_ASSIGN_OR_RETURN(int n, ExecuteDml(txn, params, task));
  return RowsAffected(n);
}

Result<TempTable> PreparedStatement::Query(Transaction* txn,
                                           const std::vector<Value>& params,
                                           TaskControlBlock* task) {
  const auto* s = std::get_if<SelectStmt>(&stmt_);
  if (s == nullptr) {
    return Status::InvalidArgument("Query() takes a SELECT statement");
  }
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  std::shared_ptr<const Plan> plan = CurrentPlan();
  if (plan->select_bound && !ShadowedByTask(*plan, task)) {
    ExecContext ctx;
    ctx.catalog = &db_->catalog_;
    ctx.locks = &db_->locks_;
    ctx.txn = txn;
    ctx.bound = task != nullptr ? &task->bound_tables : nullptr;
  ctx.rows_scanned = task != nullptr ? &task->rows_scanned : nullptr;
    ctx.funcs = &db_->scalar_funcs_;
    ctx.params = &params;
    ctx.precompiled = &plan->precompiled;
    SqlExecutor executor(ctx);
    return executor.ExecuteSelectBound(*s, plan->inputs, plan->conjuncts,
                                       "_result");
  }
  return db_->Query(txn, *s, task, &params);
}

Result<int> PreparedStatement::ExecuteDml(Transaction* txn,
                                          const std::vector<Value>& params,
                                          TaskControlBlock* task) {
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  std::shared_ptr<const Plan> plan = CurrentPlan();
  if (plan->dml != Plan::Dml::kNone) {
    return RunDmlFast(*plan, txn, params, task);
  }
  return db_->ExecuteDml(txn, stmt_, params, task);
}

Result<int> PreparedStatement::RunDmlFast(const Plan& plan, Transaction* txn,
                                          const std::vector<Value>& params,
                                          TaskControlBlock* task) {
  if (txn == nullptr) {
    return Status::FailedPrecondition("DML requires a transaction");
  }
  Table* table = plan.table;
  STRIP_RETURN_IF_ERROR(db_->locks_.Acquire(
      txn, LockKey::WholeTable(table), LockMode::kExclusive));

  EvalFrame frame;
  frame.params = &params;

  if (plan.dml == Plan::Dml::kInsert) {
    const Schema& schema = table->schema();
    int inserted = 0;
    for (const auto& row_progs : plan.insert_rows) {
      std::vector<Value> values(static_cast<size_t>(schema.num_columns()));
      for (size_t i = 0; i < row_progs.size(); ++i) {
        STRIP_ASSIGN_OR_RETURN(Value v, row_progs[i].Eval(frame));
        values[static_cast<size_t>(plan.insert_mapping[i])] = std::move(v);
      }
      STRIP_ASSIGN_OR_RETURN(RowHandle it,
                             table->Insert(MakeRecord(std::move(values))));
      txn->log().Append(LogOp::kInsert, table, it->id, nullptr, it->rec);
      ++inserted;
    }
    return inserted;
  }

  // UPDATE / DELETE: collect matching rows (index probe when the key
  // evaluates; the full WHERE is re-checked on every candidate), then
  // apply — the same collect-then-apply order as the interpreted path.
  auto matches = [&](const RecordRef& rec) -> Result<bool> {
    if (!plan.where.has_value()) return true;
    frame.rec = rec.get();
    STRIP_ASSIGN_OR_RETURN(Value v, plan.where->Eval(frame));
    return v.IsTruthy();
  };

  std::vector<RowHandle> targets;
  size_t visited = 0;  // rows the access path read, credited once below
  bool collected = false;
  if (plan.index != nullptr) {
    auto key = plan.index_key->Eval(frame);
    if (key.ok()) {
      std::vector<RowHandle> candidates;
      plan.index->Lookup(*key, candidates);
      visited = candidates.size();
      for (RowHandle r : candidates) {
        STRIP_ASSIGN_OR_RETURN(bool ok, matches(r->rec));
        if (ok) targets.push_back(r);
      }
      collected = true;
    }
    // Key evaluation failed: fall through to the scan — the full WHERE
    // subsumes the probe conjunct, so results (and errors) are identical.
  }
  if (!collected) {
    PageManager::ScanPos pos;
    ScanBatch batch;
    while (table->NextBatch(pos, batch)) {
      visited += batch.count;
      for (size_t i = 0; i < batch.count; ++i) {
        STRIP_ASSIGN_OR_RETURN(bool ok, matches(batch.rows[i]->rec));
        if (ok) targets.push_back(batch.rows[i]);
      }
    }
  }
  if (task != nullptr) task->rows_scanned += visited;

  if (plan.dml == Plan::Dml::kDelete) {
    for (RowHandle it : targets) {
      txn->log().Append(LogOp::kDelete, table, it->id, it->rec, nullptr);
      table->Erase(it);
    }
    return static_cast<int>(targets.size());
  }

  for (RowHandle it : targets) {
    RecordRef old_rec = it->rec;
    frame.rec = old_rec.get();
    std::vector<Value> values = old_rec->values;
    for (size_t i = 0; i < plan.set_exprs.size(); ++i) {
      STRIP_ASSIGN_OR_RETURN(Value v, plan.set_exprs[i].Eval(frame));
      values[static_cast<size_t>(plan.set_cols[i])] = std::move(v);
    }
    STRIP_RETURN_IF_ERROR(table->Update(it, MakeRecord(std::move(values))));
    txn->log().Append(LogOp::kUpdate, table, it->id, old_rec, it->rec);
  }
  return static_cast<int>(targets.size());
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

Result<std::vector<std::string>> PreparedStatement::PlanNotes() {
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  return CurrentPlan()->notes;
}

Result<bool> PreparedStatement::UsesIndexProbe() {
  DdlLatch::SharedGuard ddl(db_->ddl_latch_);
  std::shared_ptr<const Plan> plan = CurrentPlan();
  return plan->index != nullptr || plan->select_index_probe;
}

}  // namespace strip
