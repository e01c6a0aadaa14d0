#ifndef STRIP_SQL_COMPILED_EXPR_H_
#define STRIP_SQL_COMPILED_EXPR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/sql/ast.h"
#include "strip/sql/expr_eval.h"
#include "strip/sql/plan.h"
#include "strip/storage/record.h"
#include "strip/storage/schema.h"

namespace strip {

/// Per-execution state for running compiled expression programs. One frame
/// is reused across rows (and across expressions): the stack and the call
/// scratch keep their capacity, so steady-state evaluation allocates
/// nothing.
struct EvalFrame {
  const JoinRow* row = nullptr;   // join-mode programs read slots/extras
  const Record* rec = nullptr;    // single-table-mode programs read values
  const std::vector<Value>* params = nullptr;
  const std::map<std::string, Value>* pseudo = nullptr;
  /// Finalized aggregate values of the current group, addressed by the
  /// aggregate list the program was compiled against.
  const std::vector<Value>* aggs = nullptr;
  /// The empty global aggregate group has no representative row: its
  /// unjoined slots and pseudo columns read as null instead of failing.
  bool null_columns = false;
  std::vector<Value> stack;
  std::vector<Value> call_args;
};

enum class ExprOpCode : uint8_t {
  kPushLiteral,  // push literals[a]
  kPushParam,    // push (*params)[a]; error when unbound
  kPushSlot,     // push row->slots[a]->values[b]     (join mode)
  kPushExtra,    // push row->extras[a]               (join mode)
  kPushRecord,   // push rec->values[a]               (single-table mode)
  kPushPseudo,   // push pseudo lookup of names[a]
  kPushAgg,      // push (*aggs)[a]
  kBinary,       // pop rhs, lhs; push EvalBinaryOp(bin_op, lhs, rhs)
  kNegate,       // pop v; push -v (null propagates)
  kNot,          // pop v; push Bool(!truthy)
  kCall,         // pop b args; push call_funcs[a](args)
  kJumpIfFalse,  // pop v; if !truthy: push Bool(false), jump to a
  kJumpIfTrue,   // pop v; if truthy: push Bool(true), jump to a
  kToBool,       // pop v; push Bool(truthy)
  kRaise,        // fail with errors[a]
};

struct ExprOp {
  ExprOpCode code = ExprOpCode::kPushLiteral;
  BinaryOp bin_op = BinaryOp::kAdd;
  int32_t a = 0;
  int32_t b = 0;
};

/// An Expr tree flattened into a postfix program over a value stack, with
/// every column reference resolved to a slot/offset at compile time —
/// evaluation performs no name hashing, no string lowering, and (after
/// frame warmup) no allocation. AND/OR short-circuit via jump opcodes (left
/// operand first, Bool result); nulls propagate through arithmetic and
/// comparisons and are falsey under AND/OR/NOT (two-valued logic).
///
/// Compilation is total: a construct that cannot be resolved (an unknown or
/// ambiguous column, an unknown function, a missing registry, a column in a
/// constant context, an aggregate outside an aggregate list) compiles to a
/// raise op carrying its Status. The error surfaces only when evaluation
/// reaches the op, so `1 = 0 and bogus = 1` is false, not an error.
class CompiledExpr {
 public:
  /// Join-row mode: columns resolve through `inputs` (inputs first, then
  /// `pseudo` for bare names). Aggregate nodes listed in `aggs` read the
  /// frame's finalized group values by their position in the list.
  static CompiledExpr Compile(const Expr& expr, const InputSet& inputs,
                              const std::map<std::string, Value>* pseudo,
                              const ScalarFuncRegistry* funcs,
                              const std::vector<const Expr*>* aggs = nullptr);

  /// Single-table mode: columns resolve against one record's schema
  /// (qualifier empty or == table name).
  static CompiledExpr CompileSingleTable(const Expr& expr,
                                         const std::string& table_name,
                                         const Schema& schema,
                                         const ScalarFuncRegistry* funcs);

  /// Constant mode: every column reference raises (INSERT values).
  /// Parameters and function calls are fine.
  static CompiledExpr CompileConstant(const Expr& expr,
                                      const ScalarFuncRegistry* funcs);

  /// Runs the program against the frame's current row / record / params.
  Result<Value> Eval(EvalFrame& frame) const;

  size_t num_ops() const { return ops_.size(); }

 private:
  friend struct ExprCompiler;

  std::vector<ExprOp> ops_;
  std::vector<Value> literals_;
  std::vector<const ScalarFunc*> call_funcs_;  // stable: registry is a map
  std::vector<std::string> names_;             // pseudo-column names
  std::vector<Status> errors_;                 // raise-op payloads
};

}  // namespace strip

#endif  // STRIP_SQL_COMPILED_EXPR_H_
