#include "strip/engine/prepared_statement.h"

#include <optional>
#include <utility>
#include <variant>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/sql/compiled_expr.h"
#include "strip/sql/dml.h"
#include "strip/sql/plan.h"

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

  // --- DML: the plan, or the error planning it failed with --------------
  std::optional<DmlPlan> dml;
  Status dml_error;
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
    const std::vector<std::vector<const Expr*>> filters =
        ScanFilters(plan->inputs, plan->conjuncts);
    for (size_t i = 0; i < filters.size(); ++i) {
      if (FindIndexProbe(plan->inputs, static_cast<int>(i), filters[i],
                         nullptr)
              .index != nullptr) {
        plan->select_index_probe = true;
      }
    }

    // Pre-compile every expression the executor evaluates against join
    // rows. Select items, HAVING and order keys of an aggregate query read
    // group values, addressed through the executor's aggregate list.
    auto precompile = [&](const Expr* e,
                          const std::vector<const Expr*>* aggs = nullptr) {
      if (e == nullptr || plan->precompiled.count(e) > 0) return;
      plan->precompiled.emplace(
          e, CompiledExpr::Compile(*e, plan->inputs, nullptr, funcs, aggs));
    };
    for (const Conjunct& c : plan->conjuncts) {
      precompile(c.expr);
      precompile(c.lhs);
      precompile(c.rhs);
    }
    for (const ExprPtr& e : s->group_by) precompile(e.get());
    const std::vector<const Expr*> aggs = CollectAggregates(*s, s->items);
    for (const Expr* agg : aggs) {
      if (!agg->star_arg && agg->args.size() == 1) {
        precompile(agg->args[0].get());
      }
    }
    const std::vector<const Expr*>* group_aggs =
        IsAggregateQuery(*s, s->items) ? &aggs : nullptr;
    for (const SelectItem& item : s->items) {
      precompile(item.expr.get(), group_aggs);
    }
    for (const OrderByItem& o : s->order_by) {
      precompile(o.expr.get(), group_aggs);
    }
    precompile(s->having.get(), group_aggs);
    plan->notes.push_back(StrFormat(
        "select: frozen input set (%zu inputs), %zu compiled programs, %s",
        plan->inputs.inputs().size(), plan->precompiled.size(),
        plan->select_index_probe ? "index probe" : "scan"));
    return plan;
  }

  auto dml = PlanDml(stmt_, db_->catalog_, funcs);
  if (!dml.ok()) {
    plan->dml_error = dml.status();
    plan->notes.push_back(
        StrFormat("dml: plan error (%s)", dml.status().message().c_str()));
    return plan;
  }
  plan->notes.push_back(dml->Describe());
  plan->dml = dml.take();
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
  if (!plan->dml.has_value()) return plan->dml_error;
  return RunDml(*plan->dml, txn, &db_->locks_, &params,
                task != nullptr ? &task->rows_scanned : nullptr);
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
  return plan->select_index_probe ||
         (plan->dml.has_value() && plan->dml->index != nullptr);
}

}  // namespace strip
