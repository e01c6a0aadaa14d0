// Differential tests for the expression compiler: every program is checked
// against the reference evaluator (tests/reference_eval.h), value and status
// code alike — including the raise op that carries resolution errors to
// evaluation time and the push-aggregate op that reads group values.

#include <gtest/gtest.h>

#include <variant>

#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace strip {
namespace {

class CompiledExprTest : public ExprFixture {
 protected:
  /// Compiles `text` in constant mode and checks it against the reference
  /// evaluator's constant context (no row).
  Result<Value> RunConstant(const std::string& text,
                            const std::vector<Value>* params = nullptr) {
    auto e = Parser::ParseExpression(text);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    CompiledExpr prog = CompiledExpr::CompileConstant(**e, &funcs_);
    EvalFrame frame;
    frame.params = params;
    Result<Value> got = prog.Eval(frame);
    ExpectSame(text, got, reference::EvalExpr(**e, nullptr, &funcs_, params));
    return got;
  }
};

TEST_F(CompiledExprTest, EveryExprEvalCaseMatchesReference) {
  const char* cases[] = {
      // Arithmetic and concatenation.
      "1 + 2 * 3", "x - 1", "x * y", "x / 2", "-x", "-(y)", "s + s",
      "1 / 0", "1 / 0.0",
      // Null propagation and two-valued logic.
      "n + 1", "n = 1", "-n", "n and 1", "n or 1", "not n",
      // Comparisons, including the numeric-vs-string error.
      "x = 4", "x != 4", "x < y", "y <= 2.5", "s = 'hi'", "s < 'hz'",
      "x = s",
      // Short-circuit: the right side would fail.
      "0 and (1 / 0)", "1 or (1 / 0)",
      // Qualified columns.
      "t.z + 1", "t.nope",
      // Builtin functions and their errors.
      "sqrt(16)", "exp(0)", "ln(exp(1))", "pow(2, 10)", "floor(2.7)",
      "ceil(2.2)", "abs(-3)", "abs(-3.5)", "normcdf(0)", "normcdf(100)",
      "least(3, 1, 2)", "greatest(3, 1, 2)", "sqrt(n)", "nosuchfn(1)",
      "sqrt(1, 2)", "sqrt('x')",
      // Parameters, bound and unbound.
      "? + 1", "?", "? = ?",
      // An aggregate outside an aggregate list.
      "sum(x)",
  };
  std::vector<Value> params = {Value::Int(10), Value::Str("a")};
  for (const char* text : cases) {
    Run(text, &params);
    Run(text);  // no bindings at all
  }
}

TEST_F(CompiledExprTest, ShortCircuitNeverReachesARaise) {
  ASSERT_OK_AND_ASSIGN(Value v, Run("1 = 0 and bogus = 1"));
  EXPECT_EQ(v, Value::Bool(false));
  ASSERT_OK_AND_ASSIGN(v, Run("x = 4 or nosuchfn(t.nope)"));
  EXPECT_EQ(v, Value::Bool(true));
  ASSERT_OK_AND_ASSIGN(v, Run("not (0 and sum(x))"));
  EXPECT_EQ(v, Value::Bool(true));
  // Reached, the same raises fail with their resolution codes.
  EXPECT_EQ(Run("1 = 1 and bogus = 1").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Run("x = 0 or nosuchfn(1)").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CompiledExprTest, RaiseCarriesEachResolutionError) {
  // Ambiguous bare name: two inputs both have `x`.
  InputSet twice;
  twice.Add("a", &r_, nullptr);
  twice.Add("b", &r_, nullptr);
  JoinRow both;
  both.slots = {row_.slots[0], row_.slots[0]};
  auto e = Parser::ParseExpression("x + 1");
  ASSERT_TRUE(e.ok());
  EvalFrame frame;
  frame.row = &both;
  Result<Value> got =
      CompiledExpr::Compile(**e, twice, nullptr, &funcs_).Eval(frame);
  reference::JoinRowContext ctx(&twice, &both);
  ExpectSame("x + 1", got, reference::EvalExpr(**e, &ctx, &funcs_));
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  // No function registry at all.
  auto call = Parser::ParseExpression("abs(x)");
  ASSERT_TRUE(call.ok());
  frame.row = &row_;
  got = CompiledExpr::Compile(**call, inputs_, nullptr, nullptr).Eval(frame);
  reference::JoinRowContext row_ctx(&inputs_, &row_);
  ExpectSame("abs(x)", got, reference::EvalExpr(**call, &row_ctx, nullptr));
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  // A column in a constant context raises only when reached.
  EXPECT_EQ(RunConstant("x + 1").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(Value v, RunConstant("0 and x"));
  EXPECT_EQ(v, Value::Bool(false));
  std::vector<Value> params = {Value::Int(3)};
  ASSERT_OK_AND_ASSIGN(v, RunConstant("abs(? - 5)", &params));
  EXPECT_EQ(v, Value::Int(2));
}

TEST_F(CompiledExprTest, NegationOfNonNumberFails) {
  EXPECT_EQ(Run("-s").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Run("-(s + s)").status().code(), StatusCode::kInvalidArgument);
  ASSERT_OK_AND_ASSIGN(Value v, Run("-n"));
  EXPECT_TRUE(v.is_null());
}

TEST_F(CompiledExprTest, PseudoColumnsResolveAfterInputs) {
  std::map<std::string, Value> pseudo = {{"commit_time", Value::Int(123)},
                                         {"x", Value::Int(999)}};
  ASSERT_OK_AND_ASSIGN(Value v, Run("commit_time + 1", nullptr, &pseudo));
  EXPECT_EQ(v, Value::Int(124));
  ASSERT_OK_AND_ASSIGN(v, Run("x", nullptr, &pseudo));  // input wins
  EXPECT_EQ(v, Value::Int(4));
  EXPECT_EQ(Run("r.commit_time", nullptr, &pseudo).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CompiledExprTest, SingleTableModeMatchesReference) {
  InputSet only_r;
  only_r.Add("r", &r_, nullptr);
  JoinRow row;
  row.slots = {row_.slots[0]};
  reference::JoinRowContext ctx(&only_r, &row);
  for (const char* text : {"x + 1", "r.x * y", "s + 'x'", "t.z", "bogus",
                           "0 and bogus", "n = 1"}) {
    auto e = Parser::ParseExpression(text);
    ASSERT_TRUE(e.ok());
    EvalFrame frame;
    frame.rec = row_.slots[0].get();
    ExpectSame(text,
               CompiledExpr::CompileSingleTable(**e, "r", r_.schema(), &funcs_)
                   .Eval(frame),
               reference::EvalExpr(**e, &ctx, &funcs_));
  }
}

TEST_F(CompiledExprTest, AggregateOpReadsGroupValues) {
  auto stmt = Parser::ParseStatement(
      "select sum(x) * 2 + count(*), sum(sum(x)) from r");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStmt& select = std::get<SelectStmt>(*stmt);
  std::vector<const Expr*> aggs = CollectAggregates(select, select.items);
  ASSERT_EQ(aggs.size(), 3u);  // sum(x), count(*), outer sum(sum(x))

  std::vector<Value> group = {Value::Int(5), Value::Int(3), Value::Int(7)};
  EvalFrame frame;
  frame.row = &row_;
  frame.aggs = &group;
  CompiledExpr first = CompiledExpr::Compile(*select.items[0].expr, inputs_,
                                             nullptr, &funcs_, &aggs);
  ASSERT_OK_AND_ASSIGN(Value v, first.Eval(frame));
  EXPECT_EQ(v, Value::Int(13));
  CompiledExpr second = CompiledExpr::Compile(*select.items[1].expr, inputs_,
                                              nullptr, &funcs_, &aggs);
  ASSERT_OK_AND_ASSIGN(v, second.Eval(frame));
  EXPECT_EQ(v, Value::Int(7));

  // The outer aggregate's argument is evaluated per input row, where the
  // nested aggregate is not a group value: it raises like the reference.
  const Expr& nested_arg = *aggs[2]->args[0];
  reference::JoinRowContext ctx(&inputs_, &row_);
  ExpectSame("sum(x) as an argument",
             CompiledExpr::Compile(nested_arg, inputs_, nullptr, &funcs_)
                 .Eval(frame),
             reference::EvalExpr(nested_arg, &ctx, &funcs_));
}

TEST_F(CompiledExprTest, EmptyGroupReadsColumnsAsNull) {
  auto e = Parser::ParseExpression("x + t.z");
  ASSERT_TRUE(e.ok());
  CompiledExpr prog = CompiledExpr::Compile(**e, inputs_, nullptr, &funcs_);
  JoinRow unjoined;
  unjoined.slots.resize(2);
  EvalFrame frame;
  frame.row = &unjoined;
  // An unjoined slot is a planner bug everywhere but the empty group.
  EXPECT_EQ(prog.Eval(frame).status().code(), StatusCode::kInternal);
  frame.null_columns = true;
  ASSERT_OK_AND_ASSIGN(Value v, prog.Eval(frame));
  EXPECT_TRUE(v.is_null());
}

}  // namespace
}  // namespace strip
