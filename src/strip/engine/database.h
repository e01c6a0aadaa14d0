#ifndef STRIP_ENGINE_DATABASE_H_
#define STRIP_ENGINE_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "strip/common/status.h"
#include "strip/engine/ddl_latch.h"
#include "strip/engine/function_registry.h"
#include "strip/engine/prepared_statement.h"
#include "strip/obs/metrics.h"
#include "strip/obs/rule_cost.h"
#include "strip/obs/trace_ring.h"
#include "strip/rules/rule_engine.h"
#include "strip/sql/executor.h"
#include "strip/sql/parser.h"
#include "strip/storage/catalog.h"
#include "strip/txn/simulated_executor.h"
#include "strip/txn/threaded_executor.h"

namespace strip {

class ViewManager;

/// How tasks are executed (DESIGN.md §4).
enum class ExecutorMode {
  /// Discrete-event simulation on a virtual clock; deterministic,
  /// single-server. Drive time with simulated()->RunUntil(...).
  kSimulated,
  /// Real worker threads on the wall clock.
  kThreaded,
};

/// The STRIP database engine: a main-memory DBMS with the rule system of
/// §2/§6 on top. This is the library's primary entry point.
///
///   strip::Database db;
///   db.ExecuteScript("create table stocks (symbol string, price double);");
///   db.RegisterFunction("recompute", ...);
///   db.Execute("create rule r on stocks when updated price then "
///              "execute recompute unique after 1.0 seconds");
class Database {
 public:
  struct Options {
    ExecutorMode mode = ExecutorMode::kSimulated;
    SchedulingPolicy policy = SchedulingPolicy::kFifo;
    /// Threaded mode: size of the process (worker) pool.
    int num_workers = 2;
    /// Simulated mode: advance virtual time by each task's measured cost
    /// (single-CPU model). Disable for pure logical-time tests.
    bool advance_clock_by_cost = true;
    /// Rule-action transactions aborted by wait-die are retried this many
    /// times before the task fails.
    int action_retry_limit = 10;
    /// Route textual Execute / ExecuteInTxn through the LRU cache of
    /// prepared statements (keyed by normalized SQL), so repeated
    /// statements skip the parser and reuse frozen plans.
    bool enable_plan_cache = true;
    size_t plan_cache_capacity = 256;
    /// Hot-path observability (src/strip/obs/): the lifecycle trace ring,
    /// task latency histograms, and per-rule staleness probes. Counters
    /// (always on) are single relaxed atomic increments; disabling this
    /// removes the rest for overhead A/B measurements.
    bool enable_metrics = true;
    /// Lifecycle events retained by the trace ring (~5 events per task, so
    /// the default keeps the last ~1600 transactions). 0 disables tracing.
    size_t trace_capacity = 8192;
  };

  Database();
  explicit Database(Options options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- SQL entry points --------------------------------------------------
  /// Parses and executes one statement. DML / SELECT run in their own
  /// transaction (committed on success — firing rules); DDL is immediate.
  Result<ResultSet> Execute(const std::string& sql);

  /// Executes one pre-parsed statement with the same semantics.
  Result<ResultSet> Execute(const Statement& stmt);

  /// Executes a ';'-separated script, stopping at the first error.
  Status ExecuteScript(const std::string& sql);

  /// Parses `sql` once and returns a reusable handle that freezes FROM
  /// resolution, plan choice (index probe vs. scan), and slot-compiled
  /// expression programs; execute it repeatedly with '?' bindings. Handles
  /// for the same normalized SQL text are shared through an LRU cache
  /// (when Options::enable_plan_cache is set); plans self-invalidate on
  /// any DDL via the catalog generation counter. DDL statements get fresh
  /// uncached handles.
  Result<PreparedStatementPtr> Prepare(const std::string& sql);

  /// Plan-cache observability (hits / misses are cumulative).
  struct PlanCacheStats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    size_t capacity = 0;
  };
  PlanCacheStats plan_cache_stats() const;

  /// Executes a SELECT and returns the plan decisions the executor made
  /// (scan methods, join order and algorithms, aggregation, sorting) —
  /// EXPLAIN-ANALYZE-style: the query really runs, in its own transaction.
  Result<std::vector<std::string>> Explain(const std::string& sql);

  /// Executes one statement inside the caller's transaction (DML / SELECT
  /// only). `task` (optional) makes that task's bound tables visible.
  Result<ResultSet> ExecuteInTxn(Transaction* txn, const std::string& sql,
                                 TaskControlBlock* task = nullptr);

  /// Executes a pre-parsed statement inside a transaction. Parsing once
  /// and re-executing with '?' placeholder bindings in `params` is the
  /// engine's prepared-statement path; rule action functions use it to
  /// avoid per-invocation parse cost.
  Result<ResultSet> ExecuteStatement(Transaction* txn, const Statement& stmt,
                                     TaskControlBlock* task = nullptr,
                                     const std::vector<Value>* params = nullptr);

  /// Convenience: runs a SELECT inside a transaction returning the temp
  /// table (pointer-backed; cheaper than materializing a ResultSet).
  Result<TempTable> Query(Transaction* txn, const SelectStmt& stmt,
                          TaskControlBlock* task = nullptr,
                          const std::vector<Value>* params = nullptr);

  /// Plans and runs an UPDATE / INSERT / DELETE with bound parameters,
  /// returning affected rows without building a ResultSet. Rule actions
  /// that repeat a statement should prepare it instead, which keeps the
  /// plan.
  Result<int> ExecuteDml(Transaction* txn, const Statement& stmt,
                         const std::vector<Value>& params,
                         TaskControlBlock* task = nullptr);

  // --- transactions ------------------------------------------------------
  /// Starts a transaction. The pointer stays valid until Commit / Abort.
  /// `priority` (0 = the new id) sets the wait-die age; a retried
  /// transaction passes its predecessor's priority so it cannot starve.
  Result<Transaction*> Begin(uint64_t priority = 0);

  /// Commits: event-checks the log against the rules (§6.3), stamps the
  /// commit time, releases locks, then enqueues triggered action tasks.
  Status Commit(Transaction* txn);

  /// Rolls back every logged change and releases locks.
  Status Abort(Transaction* txn);

  /// Who a restarted transaction runs for (see RunRetried).
  enum class RetryScope {
    /// A task on the engine's executor: rule actions and feed upserts. No
    /// DDL latch across the attempt (an action may itself run DDL), and a
    /// backoff only on the threaded executor — the simulated one runs
    /// tasks one at a time, so a restart there never waits out a rival.
    kTask,
    /// An autocommit statement on the caller's own thread. Each attempt
    /// holds the DDL latch shared from plan check through commit and
    /// drops it before the backoff, so no sleeper holds off DDL. The
    /// backoff always applies: the rival is another caller thread,
    /// whatever the executor.
    kAutocommit,
  };

  /// Runs `body(Transaction*) -> Status` in a fresh transaction and
  /// commits it. A wait-die abort (kAborted, from the body or from the
  /// commit's rule conditions) restarts the whole transaction, up to
  /// Options::action_retry_limit times, with the FIRST attempt's priority:
  /// the restarted transaction keeps its age, becomes the oldest in time,
  /// and so cannot starve. `on_restart()` runs after every aborted
  /// attempt. Any other failure returns at once. Templates rather than
  /// std::function, so the rule-action path allocates nothing per attempt.
  template <typename Body, typename OnRestart>
  Status RunRetried(RetryScope scope, Body&& body, OnRestart&& on_restart);

  // --- rule actions / functions -------------------------------------------
  /// Registers a user (rule action) function.
  Status RegisterFunction(const std::string& name, UserFunction fn);

  /// Registers a scalar SQL function (e.g. the Black-Scholes pricer).
  Status RegisterScalarFunction(const std::string& name, ScalarFunc fn);

  // --- tasks ---------------------------------------------------------------
  /// Creates an application task (caller fills in work / release time).
  TaskPtr NewTask();

  /// Enqueues a task with the executor.
  void Submit(TaskPtr task);

  // --- periodic recomputation -----------------------------------------------
  /// Runs the registered user function `function_name` every `period`
  /// seconds (first run one period from now), each run in its own
  /// transaction with no bound tables. This is STRIP's periodic
  /// recomputation facility — e.g. refreshing stock_stdev outside trading
  /// hours (§3). Fails if the name is taken or the function is unknown.
  Status SchedulePeriodic(const std::string& name, double period_seconds,
                          const std::string& function_name);

  /// Stops the named periodic job (takes effect at its next release).
  Status CancelPeriodic(const std::string& name);

  // --- components ----------------------------------------------------------
  const Options& options() const { return options_; }
  /// The unified metrics registry: every subsystem's counters (lock
  /// manager, executors, rule engine, unique manager, plan cache) plus the
  /// latency / staleness histograms. SnapshotJson() is the export surface.
  MetricsRegistry& metrics() { return metrics_; }
  /// Per-transaction lifecycle trace of the most recent tasks
  /// (submit/delay/ready/start/commit/...); ToChromeJson() loads in
  /// chrome://tracing. Disabled (capacity 0) when !options.enable_metrics.
  TraceRing& trace_ring() { return trace_ring_; }
  Catalog& catalog() { return catalog_; }
  LockManager& locks() { return locks_; }
  RuleEngine& rules() { return *rules_; }
  FunctionRegistry& functions() { return functions_; }
  const ScalarFuncRegistry& scalar_funcs() const { return scalar_funcs_; }
  ViewManager& views() { return *views_; }
  Executor& executor() { return *executor_; }
  /// Non-null iff mode == kSimulated / kThreaded respectively.
  SimulatedExecutor* simulated() { return sim_.get(); }
  ThreadedExecutor* threaded() { return threaded_.get(); }
  Timestamp Now() const { return executor_->Now(); }

  /// Transactions begun but not yet committed / aborted — zero whenever the
  /// system is between simulated steps (chaos invariant b precondition).
  size_t NumActiveTxns() const {
    std::lock_guard<std::mutex> lk(txns_mu_);
    return txns_.size();
  }

 private:
  /// PreparedStatement executes against the engine's internals (catalog,
  /// locks, options, immediate DDL) on behalf of its owning database.
  friend class PreparedStatement;

  /// The action runner installed into rule tasks: unhooks the task from
  /// the unique hash table, then runs the user function in a fresh
  /// transaction, retrying wait-die aborts.
  Status RunActionTask(TaskControlBlock& task);

  /// Immediate (non-transactional) DDL execution.
  Result<ResultSet> ExecuteDdl(const Statement& stmt);

  /// One autocommit statement: `run(Transaction*) -> Result<ResultSet>`
  /// under RunRetried(kAutocommit), counting restarts.
  template <typename Run>
  Result<ResultSet> ExecuteAutocommit(Run&& run);

  /// Wires every subsystem stats struct into the registry as callback
  /// gauges and resolves the hot-path counter / histogram handles.
  void RegisterBuiltinMetrics();

  /// Stamps commit staleness into the task and feeds the per-rule
  /// staleness histogram + batching-factor histogram (the paper's §7
  /// metric). Called after a rule-action transaction commits.
  void RecordActionCommit(TaskControlBlock& task);

  Options options_;
  MetricsRegistry metrics_;
  TraceRing trace_ring_;
  /// Statement execution shared / metadata DDL exclusive (see ddl_latch.h):
  /// makes the plan-cache generation check-and-execute atomic w.r.t.
  /// catalog mutation.
  DdlLatch ddl_latch_;
  Catalog catalog_;
  LockManager locks_;
  ScalarFuncRegistry scalar_funcs_;
  FunctionRegistry functions_;
  std::unique_ptr<SimulatedExecutor> sim_;
  std::unique_ptr<ThreadedExecutor> threaded_;
  Executor* executor_ = nullptr;
  std::unique_ptr<RuleEngine> rules_;
  std::unique_ptr<ViewManager> views_;

  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> next_task_id_{1};

  /// One tick of a periodic job: run the function, reschedule.
  void SubmitPeriodicTick(const std::string& function_name,
                          Timestamp period,
                          std::shared_ptr<std::atomic<bool>> cancelled);

  mutable std::mutex txns_mu_;
  std::map<uint64_t, std::unique_ptr<Transaction>> txns_;

  std::mutex periodic_mu_;
  std::map<std::string, std::shared_ptr<std::atomic<bool>>> periodic_;

  /// LRU cache of prepared statements keyed by normalized SQL. The list
  /// orders keys most-recently-used first; the map holds each key's list
  /// position and handle.
  mutable std::mutex plan_mu_;
  std::list<std::string> plan_lru_;
  std::unordered_map<std::string,
                     std::pair<std::list<std::string>::iterator,
                               PreparedStatementPtr>>
      plan_cache_;

  // Registry-owned atomic counters (hot paths increment through the cached
  // pointers). The plan-cache pair used to be plain size_t — racy once
  // Execute() ran from multiple ThreadedExecutor workers.
  Counter* plan_hits_ = nullptr;
  Counter* plan_misses_ = nullptr;
  Counter* txn_begins_ = nullptr;
  Counter* txn_commits_ = nullptr;
  Counter* txn_aborts_ = nullptr;
  Counter* action_restarts_ = nullptr;
  Counter* autocommit_restarts_ = nullptr;
  /// Null when !options_.enable_metrics: batching-factor histogram
  /// (firings consumed per executed rule task).
  Histogram* batch_factor_hist_ = nullptr;
  /// Null when !options_.enable_metrics: per-rule latency breakdown and
  /// cost counters, fed by the executors at task finish (ExecutorObs).
  std::unique_ptr<RuleCostTracker> rule_cost_;
};

template <typename Body, typename OnRestart>
Status Database::RunRetried(RetryScope scope, Body&& body,
                            OnRestart&& on_restart) {
  const bool autocommit = scope == RetryScope::kAutocommit;
  uint64_t priority = 0;  // first attempt's id, kept across restarts
  for (int attempt = 0;; ++attempt) {
    Status st;
    {
      std::optional<DdlLatch::SharedGuard> ddl;
      if (autocommit) ddl.emplace(ddl_latch_);
      STRIP_ASSIGN_OR_RETURN(Transaction * txn, Begin(priority));
      if (priority == 0) priority = txn->priority();
      st = body(txn);
      if (st.ok()) {
        st = Commit(txn);  // a failed commit has already aborted
      } else {
        Status ignored = Abort(txn);
        (void)ignored;
      }
    }
    if (st.code() != StatusCode::kAborted) return st;  // done, or real
    on_restart();
    if (attempt >= options_.action_retry_limit) return st;
    if (autocommit || threaded_ != nullptr) {
      // Back off so the conflicting older transaction can finish.
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min(1 << std::min(attempt, 5), 32)));
    }
  }
}

template <typename Run>
Result<ResultSet> Database::ExecuteAutocommit(Run&& run) {
  std::optional<ResultSet> out;
  STRIP_RETURN_IF_ERROR(RunRetried(
      RetryScope::kAutocommit,
      [&](Transaction* txn) {
        auto result = run(txn);
        if (!result.ok()) return result.status();
        out = std::move(*result);
        return Status::OK();
      },
      [this] { autocommit_restarts_->Add(); }));
  return std::move(*out);
}

}  // namespace strip

#endif  // STRIP_ENGINE_DATABASE_H_
