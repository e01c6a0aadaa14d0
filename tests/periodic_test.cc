// Periodic recomputation tests (§3 notes STRIP supports it; the paper's
// example is the off-hours refresh of stock_stdev).

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "strip/engine/database.h"
#include "strip/viewmaint/view_def.h"
#include "tests/test_util.h"

namespace strip {
namespace {

Database::Options LogicalTime() {
  Database::Options o;
  o.mode = ExecutorMode::kSimulated;
  o.advance_clock_by_cost = false;
  return o;
}

TEST(PeriodicTest, RunsOncePerPeriod) {
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript("create table ticks (at int)"));
  ASSERT_OK(db.RegisterFunction("tick", [&db](FunctionContext& ctx) {
    return ctx.Exec("insert into ticks values (" +
                    std::to_string(db.Now()) + ")")
        .status();
  }));
  ASSERT_OK(db.SchedulePeriodic("job", 1.0, "tick"));
  db.simulated()->RunUntil(SecondsToMicros(5.5));
  ASSERT_OK(db.CancelPeriodic("job"));
  db.simulated()->RunUntilQuiescent();

  auto rs = db.Execute("select at from ticks order by at");
  ASSERT_OK(rs.status());
  ASSERT_EQ(rs->num_rows(), 5u);  // t = 1s..5s
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rs->rows[i][0].as_int(),
              SecondsToMicros(static_cast<double>(i + 1)));
  }
}

TEST(PeriodicTest, CancelStopsFutureTicks) {
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript("create table ticks (at int)"));
  ASSERT_OK(db.RegisterFunction("tick", [&db](FunctionContext& ctx) {
    return ctx.Exec("insert into ticks values (1)").status();
  }));
  ASSERT_OK(db.SchedulePeriodic("job", 1.0, "tick"));
  db.simulated()->RunUntil(SecondsToMicros(2.5));  // 2 ticks
  ASSERT_OK(db.CancelPeriodic("job"));
  db.simulated()->RunUntil(SecondsToMicros(10.0));
  auto rs = db.Execute("select count(*) as n from ticks");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->rows[0][0], Value::Int(2));
}

TEST(PeriodicTest, ValidationErrors) {
  Database db(LogicalTime());
  ASSERT_OK(db.RegisterFunction("f", [](FunctionContext&) {
    return Status::OK();
  }));
  EXPECT_EQ(db.SchedulePeriodic("j", 0.0, "f").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.SchedulePeriodic("j", 1.0, "nosuch").code(),
            StatusCode::kNotFound);
  ASSERT_OK(db.SchedulePeriodic("j", 1.0, "f"));
  EXPECT_EQ(db.SchedulePeriodic("j", 1.0, "f").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CancelPeriodic("other").code(), StatusCode::kNotFound);
  ASSERT_OK(db.CancelPeriodic("j"));
}

TEST(PeriodicTest, PeriodicViewRefreshKeepsViewFresh) {
  // The paper's use case: periodically recompute derived data that is not
  // maintained by rules (stock_stdev, §3) — here a materialized view
  // refreshed every 2 s.
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(R"(
    create table t (g string, v double);
    insert into t values ('a', 1.0);
    create materialized view mv as
      select g, sum(v) as total from t group by g;
  )"));
  ASSERT_OK(db.RegisterFunction("refresh_mv", [&db](FunctionContext&) {
    return db.views().RefreshView("mv");
  }));
  ASSERT_OK(db.SchedulePeriodic("refresh", 2.0, "refresh_mv"));

  ASSERT_OK(db.Execute("insert into t values ('a', 9.0)").status());
  db.simulated()->RunUntil(SecondsToMicros(1.0));
  auto rs = db.Execute("select total from mv");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][0].as_double(), 1.0);  // not yet refreshed
  db.simulated()->RunUntil(SecondsToMicros(2.5));
  rs = db.Execute("select total from mv");
  ASSERT_OK(rs.status());
  EXPECT_DOUBLE_EQ(rs->rows[0][0].as_double(), 10.0);  // refreshed at t=2
  ASSERT_OK(db.CancelPeriodic("refresh"));
}

TEST(PeriodicTest, FailedTickDoesNotKillTheJob) {
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript("create table ticks (at int)"));
  int calls = 0;
  ASSERT_OK(db.RegisterFunction("flaky", [&](FunctionContext& ctx) -> Status {
    ++calls;
    if (calls == 1) return Status::Internal("transient failure");
    return ctx.Exec("insert into ticks values (1)").status();
  }));
  ASSERT_OK(db.SchedulePeriodic("j", 1.0, "flaky"));
  db.simulated()->RunUntil(SecondsToMicros(3.5));
  ASSERT_OK(db.CancelPeriodic("j"));
  EXPECT_EQ(calls, 3);
  auto rs = db.Execute("select count(*) as n from ticks");
  ASSERT_OK(rs.status());
  EXPECT_EQ(rs->rows[0][0], Value::Int(2));  // ticks 2 and 3 succeeded
}

TEST(PeriodicTest, ThreadedDrainReturnsWhileAJobIsArmed) {
  Database::Options o;
  o.mode = ExecutorMode::kThreaded;
  o.num_workers = 2;
  Database db(o);
  ASSERT_OK(db.ExecuteScript("create table ticks (at int)"));
  ASSERT_OK(db.RegisterFunction("tick", [](FunctionContext& ctx) {
    return ctx.Exec("insert into ticks values (1)").status();
  }));
  ASSERT_OK(db.SchedulePeriodic("job", 0.02, "tick"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The job re-arms itself forever; Drain waits for a running tick, not
  // for the next armed one.
  ReturnsWithin(std::chrono::seconds(10), "Drain",
                [&] { db.threaded()->Drain(); });
  ASSERT_OK(db.CancelPeriodic("job"));
  auto rs = db.Execute("select count(*) as n from ticks");
  ASSERT_OK(rs.status());
  EXPECT_GE(rs->rows[0][0].as_int(), 1);
}

}  // namespace
}  // namespace strip
