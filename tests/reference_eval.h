// The reference expression evaluator: a tree walk that resolves every
// column by name on each evaluation. The engine evaluates only through
// CompiledExpr; tests compile the same expression and check that both
// evaluators agree on the value and on the status code.

#ifndef STRIP_TESTS_REFERENCE_EVAL_H_
#define STRIP_TESTS_REFERENCE_EVAL_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "strip/common/string_util.h"
#include "strip/sql/compiled_expr.h"
#include "strip/sql/parser.h"
#include "strip/sql/plan.h"
#include "strip/storage/table.h"

namespace strip {
namespace reference {

/// Resolves column references during evaluation.
class RowContext {
 public:
  virtual ~RowContext() = default;

  /// Value of `qualifier.column` (qualifier may be empty for bare names).
  /// NotFound for unknown columns; InvalidArgument for ambiguous bare names.
  virtual Result<Value> GetColumn(const std::string& qualifier,
                                  const std::string& column) const = 0;
};

/// RowContext over a JoinRow: inputs first, then pseudo columns for bare
/// names.
class JoinRowContext final : public RowContext {
 public:
  JoinRowContext(const InputSet* inputs, const JoinRow* row,
                 const std::map<std::string, Value>* pseudo = nullptr)
      : inputs_(inputs), row_(row), pseudo_(pseudo) {}

  Result<Value> GetColumn(const std::string& qualifier,
                          const std::string& column) const override {
    auto acc = inputs_->Resolve(qualifier, column);
    if (acc.ok()) return inputs_->Read(*row_, *acc);
    if (qualifier.empty() && pseudo_ != nullptr) {
      auto it = pseudo_->find(column);
      if (it != pseudo_->end()) return it->second;
    }
    return acc.status();
  }

 private:
  const InputSet* inputs_;
  const JoinRow* row_;
  const std::map<std::string, Value>* pseudo_;
};

/// Evaluates a non-aggregate expression against `row` (null: constant
/// context). Nulls propagate through arithmetic and comparisons; AND/OR
/// short-circuit on the left operand and treat null as false.
inline Result<Value> EvalExpr(const Expr& expr, const RowContext* row,
                              const ScalarFuncRegistry* funcs,
                              const std::vector<Value>* params = nullptr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kParameter:
      if (params == nullptr || expr.param_index < 0 ||
          expr.param_index >= static_cast<int>(params->size())) {
        return Status::InvalidArgument(StrFormat(
            "unbound statement parameter ?%d", expr.param_index + 1));
      }
      return (*params)[static_cast<size_t>(expr.param_index)];
    case ExprKind::kColumnRef:
      if (row == nullptr) {
        return Status::InvalidArgument(StrFormat(
            "column '%s' referenced in a constant context",
            expr.column.c_str()));
      }
      return row->GetColumn(expr.qualifier, expr.column);
    case ExprKind::kBinary: {
      STRIP_ASSIGN_OR_RETURN(Value lhs,
                             EvalExpr(*expr.args[0], row, funcs, params));
      if (expr.bin_op == BinaryOp::kAnd || expr.bin_op == BinaryOp::kOr) {
        bool l = lhs.IsTruthy();
        if (expr.bin_op == BinaryOp::kAnd && !l) return Value::Bool(false);
        if (expr.bin_op == BinaryOp::kOr && l) return Value::Bool(true);
        STRIP_ASSIGN_OR_RETURN(Value rhs,
                               EvalExpr(*expr.args[1], row, funcs, params));
        return Value::Bool(rhs.IsTruthy());
      }
      STRIP_ASSIGN_OR_RETURN(Value rhs,
                             EvalExpr(*expr.args[1], row, funcs, params));
      return EvalBinaryOp(expr.bin_op, lhs, rhs);
    }
    case ExprKind::kUnary: {
      STRIP_ASSIGN_OR_RETURN(Value v,
                             EvalExpr(*expr.args[0], row, funcs, params));
      if (expr.un_op == UnaryOp::kNot) return Value::Bool(!v.IsTruthy());
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt) return Value::Int(-v.as_int());
      if (v.type() == ValueType::kDouble) return Value::Double(-v.as_double());
      return Status::InvalidArgument("negation of non-numeric value");
    }
    case ExprKind::kFuncCall: {
      if (funcs == nullptr) {
        return Status::InvalidArgument(StrFormat(
            "no function registry for call to '%s'", expr.func_name.c_str()));
      }
      const ScalarFunc* fn = funcs->Find(expr.func_name);
      if (fn == nullptr) {
        return Status::NotFound(
            StrFormat("unknown function '%s'", expr.func_name.c_str()));
      }
      std::vector<Value> args;
      for (const auto& a : expr.args) {
        STRIP_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, row, funcs, params));
        args.push_back(std::move(v));
      }
      return (*fn)(args);
    }
    case ExprKind::kAggregate:
      return Status::InvalidArgument(StrFormat(
          "aggregate %s() outside of a select list", expr.func_name.c_str()));
  }
  return Status::Internal("unexpected expression kind");
}

}  // namespace reference

/// Fixture for evaluating expressions over one joined row of two inputs,
/// r(x int, y double, s string, n int) = (4, 2.5, 'hi', null) and
/// t(z int) = (9), through CompiledExpr and the reference evaluator.
class ExprFixture : public ::testing::Test {
 protected:
  ExprFixture()
      : funcs_(ScalarFuncRegistry::WithBuiltins()),
        r_("r", RSchema()),
        t_("t", TSchema()) {
    inputs_.Add("r", &r_, nullptr);
    inputs_.Add("t", &t_, nullptr);
    row_.slots = {MakeRecord({Value::Int(4), Value::Double(2.5),
                              Value::Str("hi"), Value::Null()}),
                  MakeRecord({Value::Int(9)})};
  }

  /// Parses `text`, runs it both ways, and expects the same status code
  /// and (when OK) the same value and type. Returns the compiled result.
  Result<Value> Run(const std::string& text,
                    const std::vector<Value>* params = nullptr,
                    const std::map<std::string, Value>* pseudo = nullptr) {
    auto e = Parser::ParseExpression(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    if (!e.ok()) return e.status();
    CompiledExpr prog =
        CompiledExpr::Compile(**e, inputs_, pseudo, &funcs_);
    EvalFrame frame;
    frame.row = &row_;
    frame.params = params;
    frame.pseudo = pseudo;
    Result<Value> compiled = prog.Eval(frame);
    reference::JoinRowContext ctx(&inputs_, &row_, pseudo);
    Result<Value> expected = reference::EvalExpr(**e, &ctx, &funcs_, params);
    ExpectSame(text, compiled, expected);
    return compiled;
  }

  static void ExpectSame(const std::string& text, const Result<Value>& got,
                         const Result<Value>& want) {
    EXPECT_EQ(got.status().code(), want.status().code())
        << text << "\n compiled: " << got.status().ToString()
        << "\n reference: " << want.status().ToString();
    if (got.ok() && want.ok()) {
      EXPECT_EQ(got->type(), want->type()) << text;
      EXPECT_EQ(got->ToString(), want->ToString()) << text;
    }
  }

  static Schema RSchema() {
    Schema s;
    s.AddColumn("x", ValueType::kInt);
    s.AddColumn("y", ValueType::kDouble);
    s.AddColumn("s", ValueType::kString);
    s.AddColumn("n", ValueType::kInt);
    return s;
  }
  static Schema TSchema() {
    Schema s;
    s.AddColumn("z", ValueType::kInt);
    return s;
  }

  ScalarFuncRegistry funcs_;
  Table r_;
  Table t_;
  InputSet inputs_;
  JoinRow row_;
};

}  // namespace strip

#endif  // STRIP_TESTS_REFERENCE_EVAL_H_
