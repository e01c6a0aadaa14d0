#include "strip/sql/dml.h"

#include <utility>
#include <variant>

#include "strip/common/string_util.h"
#include "strip/storage/record.h"

namespace strip {

namespace {

Status NoSuchColumn(const std::string& column, const std::string& table) {
  return Status::NotFound(StrFormat("no column '%s' in table '%s'",
                                    column.c_str(), table.c_str()));
}

/// Compiles the WHERE of an UPDATE / DELETE and picks its probe.
void PlanWhere(DmlPlan& plan, const Expr* where,
               const ScalarFuncRegistry* funcs) {
  if (where == nullptr) return;
  const Schema& schema = plan.table->schema();
  plan.where =
      CompiledExpr::CompileSingleTable(*where, plan.table->name(), schema,
                                       funcs);
  InputSet inputs;
  inputs.Add(plan.table->name(), plan.table, nullptr);
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(where, conjuncts);
  IndexProbe probe = FindIndexProbe(inputs, 0, conjuncts, nullptr);
  if (probe.index == nullptr) return;
  plan.index = probe.index;
  plan.index_key = CompiledExpr::CompileConstant(*probe.key, funcs);
}

}  // namespace

std::string DmlPlan::Describe() const {
  if (kind == Kind::kInsert) {
    return StrFormat("dml: insert %zu row(s) into %s", insert_rows.size(),
                     table->name().c_str());
  }
  if (index != nullptr) {
    return StrFormat("dml: index probe on %s.%s", table->name().c_str(),
                     table->schema().column(index->column()).name.c_str());
  }
  return StrFormat("dml: full scan of %s", table->name().c_str());
}

Result<DmlPlan> PlanDml(const Statement& stmt, const Catalog& catalog,
                        const ScalarFuncRegistry* funcs) {
  DmlPlan plan;
  if (const auto* s = std::get_if<InsertStmt>(&stmt)) {
    STRIP_ASSIGN_OR_RETURN(plan.table, catalog.GetTable(s->table));
    plan.kind = DmlPlan::Kind::kInsert;
    const Schema& schema = plan.table->schema();
    if (s->columns.empty()) {
      for (int i = 0; i < schema.num_columns(); ++i) {
        plan.insert_mapping.push_back(i);
      }
    } else {
      for (const std::string& col : s->columns) {
        int c = schema.FindColumn(col);
        if (c < 0) return NoSuchColumn(col, s->table);
        plan.insert_mapping.push_back(c);
      }
    }
    for (const auto& row_exprs : s->rows) {
      if (row_exprs.size() != plan.insert_mapping.size()) {
        return Status::InvalidArgument(StrFormat(
            "INSERT arity mismatch: %zu values for %zu columns",
            row_exprs.size(), plan.insert_mapping.size()));
      }
      std::vector<CompiledExpr> row;
      for (const ExprPtr& e : row_exprs) {
        row.push_back(CompiledExpr::CompileConstant(*e, funcs));
      }
      plan.insert_rows.push_back(std::move(row));
    }
    return plan;
  }
  if (const auto* s = std::get_if<UpdateStmt>(&stmt)) {
    STRIP_ASSIGN_OR_RETURN(plan.table, catalog.GetTable(s->table));
    plan.kind = DmlPlan::Kind::kUpdate;
    const Schema& schema = plan.table->schema();
    for (const auto& sc : s->sets) {
      int c = schema.FindColumn(sc.column);
      if (c < 0) return NoSuchColumn(sc.column, s->table);
      plan.set_cols.push_back(c);
      plan.set_exprs.push_back(CompiledExpr::CompileSingleTable(
          *sc.expr, plan.table->name(), schema, funcs));
    }
    PlanWhere(plan, s->where.get(), funcs);
    return plan;
  }
  if (const auto* s = std::get_if<DeleteStmt>(&stmt)) {
    STRIP_ASSIGN_OR_RETURN(plan.table, catalog.GetTable(s->table));
    plan.kind = DmlPlan::Kind::kDelete;
    PlanWhere(plan, s->where.get(), funcs);
    return plan;
  }
  return Status::InvalidArgument("ExecuteDml takes INSERT/UPDATE/DELETE");
}

Result<int> RunDml(const DmlPlan& plan, Transaction* txn, LockManager* locks,
                   const std::vector<Value>* params, uint64_t* rows_scanned) {
  if (txn == nullptr) {
    return Status::FailedPrecondition("DML requires a transaction");
  }
  Table* table = plan.table;
  if (locks != nullptr) {
    STRIP_RETURN_IF_ERROR(locks->Acquire(txn, LockKey::WholeTable(table),
                                         LockMode::kExclusive));
  }

  EvalFrame frame;
  frame.params = params;

  if (plan.kind == DmlPlan::Kind::kInsert) {
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

  // UPDATE / DELETE: collect every target first, then apply, so an update
  // never revisits a row it already changed.
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
  if (rows_scanned != nullptr) *rows_scanned += visited;

  if (plan.kind == DmlPlan::Kind::kDelete) {
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

}  // namespace strip
