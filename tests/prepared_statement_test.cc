// Prepared statements, the plan cache, and their DDL-invalidation
// behavior, plus two prepared-vs-text comparisons: the semantics every
// statement keeps on both paths (lazy errors, the empty global aggregate,
// error codes), and an equivalence sweep over the PTA tables. A prepared
// handle runs a plan frozen at prepare time; textual SQL with the plan
// cache off binds and plans afresh on every execution.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/market/populate.h"
#include "strip/market/trace.h"
#include "tests/test_util.h"

namespace strip {
namespace {

void SeedTable(Database& db) {
  ASSERT_OK(db.ExecuteScript(
      "create table t (k string, v double);"
      "insert into t values ('a', 1.0), ('b', 2.0), ('c', 3.0);"));
}

TEST(PreparedStatementTest, ParamRebindingAcrossExecutions) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = ?"));

  // Same handle, different bindings, each execution independent.
  ASSERT_OK(update->Execute({Value::Double(10.0), Value::Str("a")}).status());
  ASSERT_OK(update->Execute({Value::Double(20.0), Value::Str("b")}).status());

  ASSERT_OK_AND_ASSIGN(ResultSet ra, select->Execute({Value::Str("a")}));
  ASSERT_EQ(ra.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(ra.rows[0][0].as_double(), 10.0);
  ASSERT_OK_AND_ASSIGN(ResultSet rb, select->Execute({Value::Str("b")}));
  ASSERT_EQ(rb.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rb.rows[0][0].as_double(), 20.0);
  ASSERT_OK_AND_ASSIGN(ResultSet rc, select->Execute({Value::Str("c")}));
  ASSERT_EQ(rc.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rc.rows[0][0].as_double(), 3.0);
}

TEST(PreparedStatementTest, UnboundParameterFailsCleanly) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  auto r = update->Execute({Value::Double(1.0)});  // ?2 missing
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("parameter"), std::string::npos)
      << r.status().ToString();
  // The failed execution must not leave a half-applied transaction.
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db.Execute("select v from t where k = 'a'"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 1.0);
}

TEST(PreparedStatementTest, PlanCacheSharesHandlesAndNormalizes) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h1,
                       db.Prepare("select v from t where k = 'a'"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h2,
                       db.Prepare("select v from t where k = 'a'"));
  EXPECT_EQ(h1.get(), h2.get());
  // Case / whitespace variants normalize to the same cache key; quoted
  // literals stay case-sensitive.
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h3,
                       db.Prepare("SELECT  v  FROM t\n WHERE k = 'a'"));
  EXPECT_EQ(h1.get(), h3.get());
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr h4,
                       db.Prepare("select v from t where k = 'A'"));
  EXPECT_NE(h1.get(), h4.get());

  auto stats = db.plan_cache_stats();
  EXPECT_GE(stats.hits, 2u);
  EXPECT_GE(stats.misses, 2u);
  EXPECT_GE(stats.entries, 2u);
}

TEST(PreparedStatementTest, PlanCacheEvictsAtCapacity) {
  Database::Options opts;
  opts.plan_cache_capacity = 4;
  Database db(opts);
  SeedTable(db);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(db.Execute(StrFormat("select v from t where v > %d", i))
                  .status());
  }
  EXPECT_LE(db.plan_cache_stats().entries, 4u);
}

TEST(PreparedStatementTest, CachedPlanSeesIndexCreatedLater) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = ?"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(bool sel_probe, select->UsesIndexProbe());
  ASSERT_OK_AND_ASSIGN(bool upd_probe, update->UsesIndexProbe());
  EXPECT_FALSE(sel_probe);
  EXPECT_FALSE(upd_probe);

  ASSERT_OK(db.Execute("create index t_k on t (k)").status());

  // The generation bump invalidates the frozen plans: both handles
  // re-resolve and now probe the new index — with unchanged results.
  ASSERT_OK_AND_ASSIGN(sel_probe, select->UsesIndexProbe());
  ASSERT_OK_AND_ASSIGN(upd_probe, update->UsesIndexProbe());
  EXPECT_TRUE(sel_probe);
  EXPECT_TRUE(upd_probe);
  ASSERT_OK(update->Execute({Value::Double(42.0), Value::Str("b")}).status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs, select->Execute({Value::Str("b")}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 42.0);
}

TEST(PreparedStatementTest, DropTableFailsCleanlyAndRecreateRecovers) {
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = ?"));
  ASSERT_OK(update->Execute({Value::Double(5.0), Value::Str("a")}).status());

  ASSERT_OK(db.Execute("drop table t").status());
  auto u = update->Execute({Value::Double(6.0), Value::Str("a")});
  EXPECT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kNotFound) << u.status().ToString();
  auto s = select->Execute({Value::Str("a")});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kNotFound) << s.status().ToString();

  // Recreating the table re-resolves the same cached handles against the
  // new catalog entry.
  SeedTable(db);
  ASSERT_OK(update->Execute({Value::Double(7.0), Value::Str("a")}).status());
  ASSERT_OK_AND_ASSIGN(ResultSet rs, select->Execute({Value::Str("a")}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 7.0);
}

TEST(PreparedStatementTest, TextualExecuteStaysCorrectAcrossDdl) {
  Database db;
  SeedTable(db);
  const std::string sql = "select k, v from t where k = 'b'";
  ASSERT_OK_AND_ASSIGN(ResultSet before, db.Execute(sql));
  ASSERT_OK(db.Execute("create index t_k on t (k)").status());
  ASSERT_OK_AND_ASSIGN(ResultSet after, db.Execute(sql));
  ASSERT_EQ(before.num_rows(), after.num_rows());
  EXPECT_EQ(before.rows[0][0].as_string(), after.rows[0][0].as_string());
  EXPECT_DOUBLE_EQ(before.rows[0][1].as_double(),
                   after.rows[0][1].as_double());
}

TEST(PreparedStatementTest, ConcurrentDdlAndCachedExecutionDontRace) {
  // Two-thread repro of the plan-cache DDL race: cached plans hold raw
  // Table* / Index* pointers, and DropTable frees the table immediately.
  // Without the DDL latch making check-generation-and-execute atomic, the
  // reader can execute a frozen plan against freed storage (a
  // use-after-free ASan catches, and a data race TSan catches). With it,
  // every execution either sees the old table, the new table, or a clean
  // NotFound — never freed memory.
  Database db;
  SeedTable(db);
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr select,
                       db.Prepare("select v from t where k = 'a'"));

  std::atomic<bool> stop{false};
  std::atomic<int> ok_reads{0}, clean_misses{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = select->Execute({});
      if (r.ok()) {
        ++ok_reads;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
            << r.status().ToString();
        ++clean_misses;
      }
      // The textual plan-cache path races the same way.
      auto r2 = db.Execute("select v from t where k = 'a'");
      if (!r2.ok()) {
        EXPECT_EQ(r2.status().code(), StatusCode::kNotFound)
            << r2.status().ToString();
      }
    }
  });

  // Don't start churning until the reader is actually executing, or all
  // 60 DDL cycles can finish before the thread's first iteration and the
  // test races nothing.
  while (ok_reads.load() + clean_misses.load() == 0) {
    std::this_thread::yield();
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(db.Execute("drop table t").status());
    ASSERT_OK(db.ExecuteScript(
        "create table t (k string, v double);"
        "insert into t values ('a', 1.0);"));
  }
  stop = true;
  reader.join();
  EXPECT_GT(ok_reads.load() + clean_misses.load(), 0);

  // The dust settles: cached handles re-resolve against the final table.
  ASSERT_OK_AND_ASSIGN(ResultSet rs, select->Execute({}));
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 1.0);
}

TEST(PreparedStatementTest, PlanNotesDescribeFastPath) {
  Database db;
  SeedTable(db);
  ASSERT_OK(db.Execute("create index t_k on t (k)").status());
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr update,
                       db.Prepare("update t set v = ? where k = ?"));
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> notes, update->PlanNotes());
  ASSERT_FALSE(notes.empty());
  EXPECT_NE(notes[0].find("index probe"), std::string::npos) << notes[0];
}

// ---------------------------------------------------------------------------
// Semantics both statement paths keep
// ---------------------------------------------------------------------------

/// Runs each statement through a prepared handle on one database and as
/// plan-cache-off text on an identically seeded second one.
class DmlSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options text;
    text.enable_plan_cache = false;
    text_ = std::make_unique<Database>(text);
    SeedTable(prepared_);
    SeedTable(*text_);
  }

  /// Both paths must fail with `code`, or both succeed with the same rows
  /// (returned as strings).
  std::vector<std::string> ExpectBoth(const std::string& sql,
                                      StatusCode code = StatusCode::kOk) {
    auto handle = prepared_.Prepare(sql);
    EXPECT_TRUE(handle.ok()) << sql << ": " << handle.status().ToString();
    if (!handle.ok()) return {};
    Result<ResultSet> a = (*handle)->Execute();
    Result<ResultSet> b = text_->Execute(sql);
    EXPECT_EQ(a.status().code(), code)
        << sql << "\nprepared: " << a.status().ToString();
    EXPECT_EQ(b.status().code(), code)
        << sql << "\ntext: " << b.status().ToString();
    if (!a.ok() || !b.ok()) return {};
    std::vector<std::string> rows = Rows(*a);
    EXPECT_EQ(rows, Rows(*b)) << sql;
    return rows;
  }

  static std::vector<std::string> Rows(const ResultSet& rs) {
    std::vector<std::string> out;
    for (const auto& row : rs.rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(line);
    }
    return out;
  }

  /// The seeded table is unchanged on both databases.
  void ExpectUnchanged() {
    for (Database* db : {&prepared_, text_.get()}) {
      ASSERT_OK_AND_ASSIGN(ResultSet rs,
                           db->Execute("select k, v from t order by k"));
      ASSERT_EQ(rs.num_rows(), 3u);
      for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(rs.rows[i][0].as_string(), std::string(1, 'a' + i));
        EXPECT_DOUBLE_EQ(rs.rows[i][1].as_double(), 1.0 + i);
      }
    }
  }

  Database prepared_;
  std::unique_ptr<Database> text_;
};

TEST_F(DmlSemanticsTest, UnknownColumnsInDmlFailOnlyWhenReached) {
  // The short-circuit never reaches `bogus`.
  EXPECT_EQ(ExpectBoth("update t set v = 2 where 1 = 0 and bogus = 1"),
            std::vector<std::string>{"0|"});
  EXPECT_EQ(ExpectBoth("delete from t where 1 = 0 and bogus = 1"),
            std::vector<std::string>{"0|"});
  // No row matches, so the SET expression is never evaluated.
  EXPECT_EQ(ExpectBoth("update t set v = bogus where k = 'zz'"),
            std::vector<std::string>{"0|"});
  // Row 'a' reaches `bogus`: NotFound, and nothing is applied.
  ExpectBoth("update t set v = 2 where k = 'a' and bogus = 1",
             StatusCode::kNotFound);
  ExpectBoth("update t set v = bogus where k = 'a'", StatusCode::kNotFound);
  ExpectUnchanged();
}

TEST_F(DmlSemanticsTest, LazyErrorsSurviveAnIndexProbe) {
  for (Database* db : {&prepared_, text_.get()}) {
    ASSERT_OK(db->Execute("create index t_k on t (k)").status());
  }
  EXPECT_EQ(ExpectBoth("update t set v = 2 where k = 'zz' and bogus = 1"),
            std::vector<std::string>{"0|"});
  ExpectBoth("update t set v = 2 where k = 'a' and bogus = 1",
             StatusCode::kNotFound);
  // A probe key that fails to evaluate falls back to the scan, which
  // reports the same error the key did.
  ExpectBoth("update t set v = 2 where k = 1 / 0",
             StatusCode::kInvalidArgument);
  ExpectUnchanged();
}

TEST_F(DmlSemanticsTest, EmptyGlobalAggregateReadsColumnsAsNull) {
  EXPECT_EQ(ExpectBoth("select count(*), k from t where 1 = 0"),
            std::vector<std::string>{"0|null|"});
  EXPECT_EQ(ExpectBoth("select count(*) + 1, sum(v), v * 2 from t "
                       "where v > 100"),
            std::vector<std::string>{"1|null|null|"});
  // Grouped queries over no rows produce no groups at all.
  EXPECT_TRUE(ExpectBoth("select k, count(*) from t where 1 = 0 group by k")
                  .empty());
}

TEST_F(DmlSemanticsTest, GroupExpressionsEvaluateLikeRowExpressions) {
  // Negating a non-numeric aggregate fails like negating a string column
  // (the per-group tree walk read the string as a double and aborted).
  ExpectBoth("select -max(k) from t", StatusCode::kInvalidArgument);
  ExpectBoth("select -k from t", StatusCode::kInvalidArgument);
  // AND short-circuits over group values as it does over rows.
  EXPECT_TRUE(ExpectBoth("select k, count(*) from t group by k "
                         "having count(*) > 5 and sum(v) / 0 > 1")
                  .empty());
  EXPECT_TRUE(ExpectBoth("select k from t where v > 5 and v / 0 > 1").empty());
}

TEST_F(DmlSemanticsTest, DivisionByZeroAndUnboundParameterCodes) {
  ExpectBoth("update t set v = 1 / 0 where k = 'a'",
             StatusCode::kInvalidArgument);
  ExpectBoth("select v / 0 from t", StatusCode::kInvalidArgument);
  ExpectBoth("select sum(v) / 0 from t", StatusCode::kInvalidArgument);
  ExpectBoth("update t set v = ? where k = 'a'",
             StatusCode::kInvalidArgument);
  ExpectBoth("select v from t where k = ?", StatusCode::kInvalidArgument);
  ExpectBoth("insert into t values (?, 1.0)", StatusCode::kInvalidArgument);
  ExpectUnchanged();
}

TEST_F(DmlSemanticsTest, PlanErrorsKeepTheirCodes) {
  ExpectBoth("update nosuch set v = 1", StatusCode::kNotFound);
  ExpectBoth("delete from nosuch", StatusCode::kNotFound);
  ExpectBoth("insert into nosuch values (1)", StatusCode::kNotFound);
  ExpectBoth("update t set nosuch = 1", StatusCode::kNotFound);
  ExpectBoth("insert into t (k, nosuch) values ('x', 1)",
             StatusCode::kNotFound);
  ExpectBoth("insert into t values ('x')", StatusCode::kInvalidArgument);
  ExpectUnchanged();
}

TEST_F(DmlSemanticsTest, SharedDmlPlanAcrossThreadsAndDdl) {
  // Two threads run one prepared UPDATE while DDL keeps replacing its plan
  // (an unrelated table created and dropped; midway, an index that turns
  // the scan into a probe). Every execution runs one whole DmlPlan under
  // the DDL latch, so every committed increment lands exactly once.
  ASSERT_OK_AND_ASSIGN(PreparedStatementPtr bump,
                       prepared_.Prepare("update t set v = v + 1 where k = ?"));
  std::atomic<int> committed{0};
  std::atomic<bool> stop{false};
  auto worker = [&](const char* key) {
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = bump->Execute({Value::Str(key)});
      if (r.ok()) {
        EXPECT_EQ(r->rows[0][0].as_int(), 1);
        ++committed;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kAborted)
            << r.status().ToString();
      }
    }
  };
  std::thread a(worker, "a");
  std::thread b(worker, "b");
  while (committed.load() == 0) std::this_thread::yield();
  for (int i = 0; i < 40; ++i) {
    if (i == 20) {
      ASSERT_OK(prepared_.Execute("create index t_k on t (k)").status());
    }
    ASSERT_OK(prepared_.Execute("create table churn (x int)").status());
    ASSERT_OK(prepared_.Execute("drop table churn").status());
  }
  stop = true;
  a.join();
  b.join();
  ASSERT_OK_AND_ASSIGN(bool probes, bump->UsesIndexProbe());
  EXPECT_TRUE(probes);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, prepared_.Execute("select sum(v) from t"));
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 6.0 + committed.load());
}

// ---------------------------------------------------------------------------
// Prepared vs. text equivalence
// ---------------------------------------------------------------------------

/// Two databases populated identically (reusing the PTA generators): one
/// executes through prepared handles — plans frozen once, reused across
/// executions — and one through textual SQL with the plan cache off, which
/// binds and plans every statement afresh.
class EquivalenceSweep : public ::testing::Test {
 protected:
  EquivalenceSweep() {
    Database::Options text;
    text.enable_plan_cache = false;
    prepared_ = std::make_unique<Database>();
    text_ = std::make_unique<Database>(text);
  }

  void Populate() {
    TraceOptions t;
    t.num_stocks = 40;
    t.duration_seconds = 5;
    t.target_updates = 120;
    t.seed = 1234;
    trace_ = MarketTrace::Generate(t);
    PtaConfig cfg;
    cfg.num_composites = 6;
    cfg.stocks_per_composite = 10;
    cfg.num_options = 60;
    cfg.seed = 5678;
    ASSERT_OK(PopulatePtaTables(*prepared_, trace_, cfg));
    ASSERT_OK(PopulatePtaTables(*text_, trace_, cfg));
  }

  /// Runs `sql` both ways; both must agree on status and, when OK, on
  /// every row (order included — queries in the sweep are ordered).
  void ExpectSameResult(const std::string& sql) {
    auto handle = prepared_->Prepare(sql);
    ASSERT_TRUE(handle.ok()) << sql << ": " << handle.status().ToString();
    auto a = (*handle)->Execute();
    auto b = text_->Execute(sql);
    ASSERT_EQ(a.ok(), b.ok())
        << sql << "\nprepared: " << a.status().ToString()
        << "\ntext: " << b.status().ToString();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code()) << sql;
      return;
    }
    ASSERT_EQ(a->num_rows(), b->num_rows()) << sql;
    for (size_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->rows[r].size(), b->rows[r].size()) << sql;
      for (size_t c = 0; c < a->rows[r].size(); ++c) {
        EXPECT_EQ(a->rows[r][c].ToString(), b->rows[r][c].ToString())
            << sql << " row " << r << " col " << c;
      }
    }
  }

  MarketTrace trace_;
  std::unique_ptr<Database> prepared_;
  std::unique_ptr<Database> text_;
};

TEST_F(EquivalenceSweep, QueriesAndDmlAgree) {
  Populate();

  // Apply the trace's updates through one prepared handle with rebound
  // parameters, and as textual statements with inline literals.
  ASSERT_OK_AND_ASSIGN(
      PreparedStatementPtr upd,
      prepared_->Prepare("update stocks set price = ? where symbol = ?"));
  for (const Quote& q : trace_.quotes()) {
    std::vector<Value> params = {Value::Double(q.price),
                                 Value::Str(StockSymbol(q.stock))};
    ASSERT_OK_AND_ASSIGN(ResultSet rp, upd->Execute(params));
    ASSERT_OK_AND_ASSIGN(
        ResultSet rt,
        text_->Execute(StrFormat("update stocks set price = %.17g "
                                 "where symbol = '%s'",
                                 q.price, StockSymbol(q.stock).c_str())));
    EXPECT_EQ(rp.rows[0][0].as_int(), rt.rows[0][0].as_int());
  }

  const char* queries[] = {
      "select symbol, price from stocks order by symbol",
      "select comp, price from comp_prices order by comp",
      // Join + aggregate + scalar arithmetic (the Figure-5 recompute).
      "select comp, sum(stocks.price * weight) as price "
      "from stocks, comps_list where stocks.symbol = comps_list.symbol "
      "group by comp order by comp",
      // Scalar function (f_bs) over a three-way join.
      "select option_symbol, "
      "f_bs(stocks.price, strike, expiration, stdev) as price "
      "from stocks, stock_stdev, options_list "
      "where stocks.symbol = options_list.stock_symbol "
      "and stocks.symbol = stock_stdev.symbol "
      "order by option_symbol limit 50",
      // Short-circuit evaluation: the second conjunct would divide by a
      // column value of zero only when reached.
      "select symbol from stocks where price > 1e12 and 1.0 / price > 0 "
      "order by symbol",
      // Unary minus, boolean ops, DISTINCT, HAVING.
      "select distinct comp from comps_list "
      "where not (weight < 0) or -weight > 0 order by comp",
      "select comp, count(*) as n from comps_list group by comp "
      "having count(*) > 2 order by comp",
      // Parameter-free arithmetic edge: integer vs double division.
      "select symbol, price / 4 from stocks order by symbol limit 10",
  };
  for (const char* q : queries) ExpectSameResult(q);

  // Error equivalence: division by zero surfaces identically.
  ExpectSameResult("select 1 / 0 from stocks");
  // An unknown column fails at bind time, even behind a never-true
  // conjunct; an unknown function there is never reached.
  ExpectSameResult("select symbol from stocks where price > 1e12 and bogus = 1");
  ExpectSameResult(
      "select symbol from stocks where price > 1e12 and nosuchfn(price) = 1");
}

TEST_F(EquivalenceSweep, PreparedSelectMatchesText) {
  Populate();
  ASSERT_OK_AND_ASSIGN(
      PreparedStatementPtr sel,
      prepared_->Prepare(
          "select comp, weight from comps_list where symbol = ?"));
  for (int i = 0; i < 40; ++i) {
    std::vector<Value> params = {Value::Str(StockSymbol(i))};
    ASSERT_OK_AND_ASSIGN(ResultSet a, sel->Execute(params));
    ASSERT_OK_AND_ASSIGN(
        ResultSet b,
        text_->Execute(StrFormat(
            "select comp, weight from comps_list where symbol = '%s'",
            StockSymbol(i).c_str())));
    ASSERT_EQ(a.num_rows(), b.num_rows()) << StockSymbol(i);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.rows[r][0].ToString(), b.rows[r][0].ToString());
      EXPECT_EQ(a.rows[r][1].ToString(), b.rows[r][1].ToString());
    }
  }
}

}  // namespace
}  // namespace strip
