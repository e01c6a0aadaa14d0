#ifndef STRIP_SQL_PLAN_H_
#define STRIP_SQL_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/storage/bound_table_set.h"
#include "strip/storage/table.h"
#include "strip/storage/temp_table.h"

namespace strip {

/// One resolved FROM-clause input: a standard table or a temporary
/// (transition / bound) table, with its position in intermediate join rows.
struct BoundInput {
  std::string name;               // effective (alias or table) name, lowered
  Table* table = nullptr;         // exactly one of table / temp is set
  const TempTable* temp = nullptr;

  /// Standard tables contribute one RecordRef slot to join rows; temp
  /// tables have their columns copied into the join row's extras array.
  int slot = -1;
  int extra_base = -1;

  const Schema& schema() const {
    return table != nullptr ? table->schema() : temp->schema();
  }
  size_t EstimatedRows() const {
    return table != nullptr ? table->size() : temp->size();
  }
  bool is_temp() const { return temp != nullptr; }
};

/// Identifies a column of one bound input.
struct ColumnAccessor {
  int input = -1;
  int column = -1;

  bool valid() const { return input >= 0; }
};

/// An intermediate row during join processing: one RecordRef per standard
/// input (pointer scheme, §6.1) plus materialized values for temp-input
/// columns. Slots for inputs not yet joined are null.
struct JoinRow {
  std::vector<RecordRef> slots;
  std::vector<Value> extras;
};

/// The resolved FROM clause: owns the input descriptors and resolves
/// column references.
class InputSet {
 public:
  /// Adds an input; assigns slot / extra_base positions.
  void Add(std::string name, Table* table, const TempTable* temp);

  const std::vector<BoundInput>& inputs() const { return inputs_; }
  int num_slots() const { return num_slots_; }
  int num_extras() const { return num_extras_; }

  /// Resolves `qualifier.column` (empty qualifier = search all inputs;
  /// ambiguity is an error). NotFound when no input has the column.
  Result<ColumnAccessor> Resolve(const std::string& qualifier,
                                 const std::string& column) const;

  /// Reads the accessor's value from a join row.
  const Value& Read(const JoinRow& row, const ColumnAccessor& acc) const;

  /// Fills the join-row positions of input `i` from its scan row.
  /// For standard inputs `rec` is used; for temp inputs `tuple`.
  void FillFromStandard(JoinRow& row, int input, const RecordRef& rec) const;
  void FillFromTemp(JoinRow& row, int input, const TempTuple& tuple) const;

 private:
  std::vector<BoundInput> inputs_;
  int num_slots_ = 0;
  int num_extras_ = 0;
};

/// Splits a WHERE tree into top-level AND conjuncts (borrowed pointers
/// into the statement's expression tree).
void SplitConjuncts(const Expr* where, std::vector<const Expr*>& out);

/// Appends the indexes of every input referenced by `expr` (via resolvable
/// column refs) to `out`, deduplicated. Unresolvable bare names that match
/// a pseudo column are ignored. Fails on genuinely unknown columns.
Status CollectReferencedInputs(const Expr& expr, const InputSet& inputs,
                               const std::map<std::string, Value>* pseudo,
                               std::vector<int>& out);

/// A classified WHERE conjunct.
struct Conjunct {
  const Expr* expr = nullptr;
  std::vector<int> referenced;  // input indexes, sorted

  /// Equi-join decomposition: expr is `lhs = rhs` where each side
  /// references exactly one (distinct) input.
  bool equi_join = false;
  const Expr* lhs = nullptr;
  int lhs_input = -1;
  const Expr* rhs = nullptr;
  int rhs_input = -1;
};

/// Classifies the conjuncts of `where` against `inputs`.
Result<std::vector<Conjunct>> ClassifyConjuncts(
    const Expr* where, const InputSet& inputs,
    const std::map<std::string, Value>* pseudo);

/// The pushed-down filters of each input: every conjunct that references at
/// most one input, on that input (conjuncts referencing none go to input
/// 0). Conjuncts spanning inputs are join predicates and are left out.
std::vector<std::vector<const Expr*>> ScanFilters(
    const InputSet& inputs, const std::vector<Conjunct>& conjuncts);

/// An index probe that replaces a scan of one input.
struct IndexProbe {
  Index* index = nullptr;     // null: no filter can probe; scan
  const Expr* key = nullptr;  // the side of `col = key` to evaluate
};

/// The access-path rule for every scan (SELECT inputs and DML targets):
/// the first of `filters` shaped `col = key` or `key = col`, where `col`
/// names an indexed column of standard input `input` and `key` references
/// no input column — literals, parameters, function calls and pseudo
/// columns are fine. The filter itself stays in the filter list, so every
/// candidate the index returns is still checked against it.
IndexProbe FindIndexProbe(const InputSet& inputs, int input,
                          const std::vector<const Expr*>& filters,
                          const std::map<std::string, Value>* pseudo);

/// True when a SELECT aggregates: it has GROUP BY, or a select item or
/// HAVING contains an aggregate call. `items` is the (star-expanded)
/// select list.
bool IsAggregateQuery(const SelectStmt& stmt,
                      const std::vector<SelectItem>& items);

/// The aggregate calls of an aggregate SELECT in the order its per-group
/// state is kept: select items, then ORDER BY keys, then HAVING. Aggregate
/// arguments are not searched, so a nested aggregate is not listed (and
/// raises when reached). Compiled programs address a group's finalized
/// values by position in this list.
std::vector<const Expr*> CollectAggregates(
    const SelectStmt& stmt, const std::vector<SelectItem>& items);

}  // namespace strip

#endif  // STRIP_SQL_PLAN_H_
