#ifndef STRIP_SQL_DML_H_
#define STRIP_SQL_DML_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/sql/compiled_expr.h"
#include "strip/storage/catalog.h"
#include "strip/txn/lock_manager.h"
#include "strip/txn/transaction.h"

namespace strip {

/// An INSERT, UPDATE or DELETE planned against one catalog generation: the
/// target table resolved, every expression compiled, and the access path
/// chosen by FindIndexProbe. Textual statements plan and run in one call;
/// prepared handles keep the plan until DDL bumps the generation. The plan
/// owns its programs and borrows only catalog objects (Table*, Index*).
struct DmlPlan {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  Table* table = nullptr;
  std::vector<int> set_cols;               // UPDATE
  std::vector<CompiledExpr> set_exprs;     // UPDATE, parallel to set_cols
  std::optional<CompiledExpr> where;       // UPDATE / DELETE; nullopt = all
  Index* index = nullptr;                  // probe; null = scan
  std::optional<CompiledExpr> index_key;   // set iff index is
  std::vector<int> insert_mapping;         // INSERT: value pos -> column
  std::vector<std::vector<CompiledExpr>> insert_rows;

  /// One line naming the statement's access path, for plan notes.
  std::string Describe() const;
};

/// Plans `stmt`. Fails with NotFound for an unknown table or column and
/// InvalidArgument for an INSERT arity mismatch or a non-DML statement.
/// Unresolvable expressions do not fail here: they raise when evaluated.
Result<DmlPlan> PlanDml(const Statement& stmt, const Catalog& catalog,
                        const ScalarFuncRegistry* funcs);

/// The one DML executor. Takes the table's exclusive lock (when `locks` is
/// set), collects the target rows — through the probe when its key
/// evaluates, else by a scan; the full WHERE is checked on every candidate
/// — and then applies and logs every change. Adds the rows the access path
/// read to `*rows_scanned` (when set) once per statement. Returns the
/// number of affected rows.
Result<int> RunDml(const DmlPlan& plan, Transaction* txn, LockManager* locks,
                   const std::vector<Value>* params, uint64_t* rows_scanned);

}  // namespace strip

#endif  // STRIP_SQL_DML_H_
