// pta_replay: the paper's §4–5 experiment at paper scale. Each quote of the
// seeded synthetic TAQ trace is one Begin → ExecuteDml → Commit task on the
// simulated executor; the Figure 7 comp rule and the §5.2 option rule are
// installed, so commits fire rules and the delay windows batch the
// recomputes. The executor runs on logical time (the clock does not advance
// by measured cost), so which firings merge depends only on the trace and
// the rule semantics: N_r and the merge count are exact for a seed. The
// replay runs single-threaded as fast as the CPU allows, one simulated
// trading second per timed slice.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "strip/common/rng.h"
#include "strip/common/string_util.h"
#include "strip/engine/database.h"
#include "strip/market/app_functions.h"
#include "strip/market/black_scholes.h"
#include "strip/market/populate.h"
#include "strip/market/pta_runner.h"
#include "strip/market/trace.h"
#include "workloads.h"

namespace perfbench {

using strip::Database;
using strip::MarketTrace;
using strip::PreparedStatementPtr;
using strip::Status;
using strip::StrFormat;
using strip::Value;

namespace {

constexpr double kDelaySeconds = 1.0;
constexpr double kRiskFreeRate = 0.05;

struct Replayer {
  std::unique_ptr<Database> db;
  PreparedStatementPtr update;
  std::vector<Value> symbols;
};

Status SetUp(const MarketTrace& trace, const strip::PtaConfig& pta,
             Replayer* r) {
  Database::Options opts;
  opts.mode = strip::ExecutorMode::kSimulated;
  opts.advance_clock_by_cost = false;
  r->db = std::make_unique<Database>(opts);
  Database& db = *r->db;
  STRIP_RETURN_IF_ERROR(strip::PopulatePtaTables(db, trace, pta));
  STRIP_RETURN_IF_ERROR(strip::RegisterPtaFunctions(db, kRiskFreeRate));
  STRIP_RETURN_IF_ERROR(
      db.Execute(strip::CompRuleSql(strip::CompRuleVariant::kUniqueOnComp,
                                    kDelaySeconds))
          .status());
  STRIP_RETURN_IF_ERROR(
      db.Execute(strip::OptionRuleSql(
                     strip::OptionRuleVariant::kUniqueOnSymbol,
                     kDelaySeconds))
          .status());
  STRIP_ASSIGN_OR_RETURN(
      r->update, db.Prepare("update stocks set price = ? where symbol = ?"));
  r->symbols.clear();
  r->symbols.reserve(static_cast<size_t>(trace.options().num_stocks));
  for (int i = 0; i < trace.options().num_stocks; ++i) {
    r->symbols.push_back(Value::Str(strip::StockSymbol(i)));
  }
  return Status::OK();
}

/// Rows per value of column `col` of `table`, read by a raw storage scan
/// (independent of the SQL executor whose results it checks).
std::unordered_map<std::string, int64_t> CountByColumn(Database& db,
                                                       const char* table,
                                                       int col) {
  std::unordered_map<std::string, int64_t> counts;
  strip::Table* t = db.catalog().FindTable(table);
  if (t == nullptr) return counts;
  strip::PageManager::ScanPos pos;
  strip::ScanBatch batch;
  while (t->NextBatch(pos, batch)) {
    for (size_t i = 0; i < batch.count; ++i) {
      counts[batch.rows[i]->rec->values[static_cast<size_t>(col)]
                 .as_string()] += 1;
    }
  }
  return counts;
}

/// Firings the two rules must produce for `trace`: a price change of stock
/// s fires the comp rule once per composite holding s (unique on comp
/// partitions the bound table by comp) and the option rule once when s has
/// listed options.
uint64_t PredictedFirings(Database& db, const MarketTrace& trace) {
  auto comps = CountByColumn(db, "comps_list", 1);
  auto options = CountByColumn(db, "options_list", 1);
  std::vector<int64_t> per_stock(
      static_cast<size_t>(trace.options().num_stocks), 0);
  for (int i = 0; i < trace.options().num_stocks; ++i) {
    std::string sym = strip::StockSymbol(i);
    auto c = comps.find(sym);
    auto o = options.find(sym);
    per_stock[static_cast<size_t>(i)] =
        (c == comps.end() ? 0 : c->second) +
        (o != options.end() && o->second > 0 ? 1 : 0);
  }
  // A quote that repeats the stock's current price changes nothing, so it
  // raises no `updated price` event.
  std::vector<double> price = trace.initial_prices();
  uint64_t total = 0;
  for (const strip::Quote& q : trace.quotes()) {
    size_t s = static_cast<size_t>(q.stock);
    if (q.price == price[s]) continue;
    price[s] = q.price;
    total += static_cast<uint64_t>(per_stock[s]);
  }
  return total;
}

struct ReplayStats {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> slice_ms, slice_cpu_ms;
  uint64_t recomputes = 0;        // N_r
  uint64_t tasks_created = 0;
  uint64_t firings_merged = 0;
  uint64_t failed_tasks = 0;
  double recompute_cpu_s = 0;
  std::map<std::string, std::vector<double>> exec_us;  // per function
};

Status Replay(const MarketTrace& trace, Replayer& r, int replay_index,
              SpanRecorder::Buffer* spans, ReplayStats* st) {
  Database& db = *r.db;
  db.executor().set_task_observer([&](const strip::TaskControlBlock& t) {
    if (!t.result.ok()) ++st->failed_tasks;
    if (t.function_name.rfind("compute_", 0) != 0) return;
    ++st->recomputes;
    st->recompute_cpu_s += static_cast<double>(t.cpu_nanos) / 1e9;
    st->exec_us[t.function_name].push_back(
        static_cast<double>(t.cpu_nanos) / 1e3);
  });

  const std::vector<strip::Quote>& quotes = trace.quotes();
  PreparedStatementPtr update = r.update;
  const int64_t second = 1'000'000;
  const int64_t slices = trace.duration_micros() / second + 1;
  size_t next = 0;
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNanos();
  // The replay walks every CPU in turn, one stretch of slices each, each
  // replay starting on a different CPU.
  const int64_t stretch = (slices + 1) / NumCpus() + 1;
  for (int64_t k = 1; k <= slices + 1; ++k) {
    if ((k - 1) % stretch == 0) {
      PinThisThread(replay_index + static_cast<int>((k - 1) / stretch));
    }
    ScopedSpan slice(spans, "pta.slice", static_cast<uint64_t>(k));
    int64_t s0 = NowNanos();
    double c0 = ProcessCpuSeconds();
    while (next < quotes.size() && quotes[next].time <= k * second) {
      const strip::Quote q = quotes[next];
      const uint64_t request = next + 1;
      const uint64_t parent = slice.id();
      strip::TaskPtr task = db.NewTask();
      task->release_time = q.time;
      task->work = [&db, &r, update, q, spans, request,
                    parent](strip::TaskControlBlock&) -> Status {
        ScopedSpan quote(spans, "pta.quote", request, parent);
        STRIP_ASSIGN_OR_RETURN(strip::Transaction * txn, db.Begin());
        txn->set_arrival_time(q.time);
        strip::Result<int> n = 0;
        {
          ScopedSpan s(spans, "engine.execute_dml", request, quote.id());
          n = update->ExecuteDml(
              txn, {Value::Double(q.price),
                    r.symbols[static_cast<size_t>(q.stock)]});
        }
        if (!n.ok() || *n != 1) {
          Status ignored = db.Abort(txn);
          (void)ignored;
          if (!n.ok()) return n.status();
          return Status::Internal(StrFormat("stock %d not found", q.stock));
        }
        ScopedSpan s(spans, "rules.commit", request, quote.id());
        return db.Commit(txn);
      };
      db.Submit(std::move(task));
      ++next;
    }
    if (k <= slices) {
      db.simulated()->RunUntil(k * second);
    } else {
      db.simulated()->RunUntilQuiescent();  // trailing delay windows
    }
    st->slice_ms.push_back(static_cast<double>(NowNanos() - s0) / 1e6);
    st->slice_cpu_ms.push_back((ProcessCpuSeconds() - c0) * 1e3);
  }
  st->wall_s = static_cast<double>(NowNanos() - t0) / 1e9;
  st->cpu_s = ProcessCpuSeconds() - cpu0;
  UnpinThisThread();
  db.executor().set_task_observer(nullptr);
  st->tasks_created = db.rules().stats().tasks_created.load();
  st->firings_merged = db.rules().stats().firings_merged.load();
  if (next != quotes.size()) {
    return Status::Internal("replay did not submit every quote");
  }
  return Status::OK();
}

/// ns per Black-Scholes call: median over batches of 100k seeded calls.
double BlackScholesNsPerCall(uint64_t seed) {
  strip::Rng rng(seed ^ 0xb5b5b5b5ull);
  constexpr int kCalls = 100000;
  std::vector<double> s(kCalls), k(kCalls), sigma(kCalls), t(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    s[i] = rng.UniformReal(10, 120);
    k[i] = rng.UniformReal(10, 120);
    sigma[i] = rng.UniformReal(0.1, 0.6);
    t[i] = rng.UniformReal(0.05, 1.0);
  }
  std::vector<double> per_call;
  volatile double sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    int64_t t0 = NowNanos();
    double acc = 0;
    for (int i = 0; i < kCalls; ++i) {
      acc += strip::BlackScholesCall(s[i], k[i], kRiskFreeRate, sigma[i],
                                     t[i]);
    }
    per_call.push_back(static_cast<double>(NowNanos() - t0) / kCalls);
    sink = sink + acc;
  }
  return Median(per_call);
}

}  // namespace

Status RunPtaReplay(const RunConfig& cfg, WorkloadResult* out) {
  strip::TraceOptions trace_opts =
      cfg.brief ? strip::TraceOptions::Scaled(0.1)
                : strip::TraceOptions::PaperScale();
  trace_opts.seed = cfg.seed;
  strip::PtaConfig pta = strip::PtaConfig::PaperScale();
  pta.seed = cfg.seed * 0x9e3779b97f4a7c15ull + 7;
  pta.risk_free_rate = kRiskFreeRate;
  int64_t gen0 = NowNanos();
  MarketTrace trace = MarketTrace::Generate(trace_opts);
  double gen_s = static_cast<double>(NowNanos() - gen0) / 1e9;

  SpanRecorder::Buffer* spans =
      cfg.spans != nullptr ? cfg.spans->NewBuffer() : nullptr;
  std::vector<double> setup_s;
  std::vector<ReplayStats> replays;
  double replay_wall = 0;
  uint64_t predicted = 0;
  // Replay from a fresh set-up until the measured time reaches the run
  // length (at least one replay), then keep setting up until there are
  // three set-up samples.
  while (replays.empty() || (!cfg.brief && replay_wall < cfg.seconds)) {
    Replayer r;
    int64_t s0 = NowNanos();
    STRIP_RETURN_IF_ERROR(SetUp(trace, pta, &r));
    setup_s.push_back(static_cast<double>(NowNanos() - s0) / 1e9);
    if (predicted == 0) predicted = PredictedFirings(*r.db, trace);
    ReplayStats st;
    // Spans come from the first replay only (~180k of them).
    STRIP_RETURN_IF_ERROR(Replay(trace, r, static_cast<int>(replays.size()),
                                 replays.empty() ? spans : nullptr, &st));
    replay_wall += st.wall_s;

    // Correctness gates: the derived tables equal a recompute from base
    // data, and the firing/merge counts are exactly what the trace implies.
    STRIP_RETURN_IF_ERROR(strip::CheckDerivedDataConsistency(
        *r.db, kRiskFreeRate, 1e-6, /*check_comps=*/true,
        /*check_options=*/true));
    if (st.failed_tasks != 0) {
      return Status::Internal(
          StrFormat("%llu tasks failed",
                    static_cast<unsigned long long>(st.failed_tasks)));
    }
    if (st.recomputes != st.tasks_created) {
      return Status::Internal(StrFormat(
          "N_r %llu != tasks created %llu",
          static_cast<unsigned long long>(st.recomputes),
          static_cast<unsigned long long>(st.tasks_created)));
    }
    if (st.tasks_created + st.firings_merged != predicted) {
      return Status::Internal(StrFormat(
          "firings %llu created + %llu merged != %llu predicted",
          static_cast<unsigned long long>(st.tasks_created),
          static_cast<unsigned long long>(st.firings_merged),
          static_cast<unsigned long long>(predicted)));
    }
    if (!replays.empty() &&
        (st.recomputes != replays[0].recomputes ||
         st.firings_merged != replays[0].firings_merged)) {
      return Status::Internal("replays of one trace disagree on N_r");
    }
    if (spans != nullptr && replays.empty()) {
      // Registry-derived layer figures from the first replay's engine.
      strip::MetricsRegistry& m = r.db->metrics();
      uint64_t rows = 0;
      for (const auto& [name, v] : m.CounterValues()) {
        if (name.rfind("rules.cost.rows_scanned.", 0) == 0) rows += v;
      }
      Put(out->layer, "sql.rows_scanned_per_quote",
          static_cast<double>(rows) /
              static_cast<double>(trace.quotes().size()),
          "count");
      if (!cfg.brief) {
        FILE* file =
            std::fopen((cfg.work_dir + "/registry-pta_replay.json").c_str(),
                       "w");
        if (file != nullptr) {
          std::fputs(m.SnapshotJson().c_str(), file);
          std::fclose(file);
        }
      }
    }
    replays.push_back(std::move(st));
  }
  while (!cfg.brief && setup_s.size() < 3) {
    Replayer r;
    int64_t s0 = NowNanos();
    STRIP_RETURN_IF_ERROR(SetUp(trace, pta, &r));
    setup_s.push_back(static_cast<double>(NowNanos() - s0) / 1e9);
  }

  // Every replay runs the same trace, so slice k is the same work in each.
  // Taking the median over replays slice by slice, then summing, discounts
  // a slowdown of the machine that hits a minority of the replays.
  const double quotes = static_cast<double>(trace.quotes().size());
  std::vector<double> qps, slices;
  double wall_ms = 0, cpu_ms = 0;
  for (size_t k = 0; k < replays[0].slice_ms.size(); ++k) {
    std::vector<double> wall, cpu;
    for (const ReplayStats& st : replays) {
      wall.push_back(st.slice_ms[k]);
      cpu.push_back(st.slice_cpu_ms[k]);
    }
    slices.push_back(Median(wall));
    wall_ms += slices.back();
    cpu_ms += Median(cpu);
  }
  for (const ReplayStats& st : replays) qps.push_back(quotes / st.wall_s);
  const ReplayStats& first = replays[0];
  std::string per_replay;
  for (double q : qps) per_replay += StrFormat(" %.0f", q);
  out->notes.push_back("pta_replay: quotes/s per replay:" + per_replay);
  if (!cfg.brief && !EnoughBeyond(slices.size(), 0.99)) {
    return Status::Internal("too few slices for a p99");
  }
  Put(out->e2e, "setup_s", Median(setup_s), "s");
  Put(out->e2e, "ops_per_s", quotes / (wall_ms / 1e3), "1/s");
  Put(out->e2e, "cpu_us_per_op", cpu_ms * 1e3 / quotes, "us");
  Put(out->e2e, "p50_ms", Quantile(slices, 0.5), "ms");
  Put(out->e2e, "tail_ms", Quantile(slices, 0.99), "ms");
  out->attempted = static_cast<uint64_t>(quotes) * replays.size();
  out->failed = 0;
  out->notes.push_back(StrFormat(
      "pta_replay: %zu quotes x %zu replays, trace generated in %.3f s; "
      "N_r %llu, firings merged %llu, recompute CPU share %.3f; "
      "slice p50/p99 over %zu one-second slices",
      trace.quotes().size(), replays.size(), gen_s,
      static_cast<unsigned long long>(first.recomputes),
      static_cast<unsigned long long>(first.firings_merged),
      first.recompute_cpu_s / first.cpu_s, slices.size()));

  if (spans != nullptr) {
    int64_t ns = 0;
    uint64_t n = 0;
    cfg.spans->Totals("rules.commit", &ns, &n);
    Put(out->layer, "rules.commit_us_per_quote",
        n ? static_cast<double>(ns) / 1e3 / static_cast<double>(n) : 0, "us");
    cfg.spans->Totals("engine.execute_dml", &ns, &n);
    Put(out->layer, "engine.update_dml_us_per_quote",
        n ? static_cast<double>(ns) / 1e3 / static_cast<double>(n) : 0, "us");
    Put(out->layer, "rules.tasks_created",
        static_cast<double>(first.tasks_created), "count");
    Put(out->layer, "rules.firings_merged",
        static_cast<double>(first.firings_merged), "count");
    Put(out->layer, "rules.batch_factor",
        static_cast<double>(first.tasks_created + first.firings_merged) /
            static_cast<double>(first.tasks_created),
        "ratio");
    Put(out->layer, "rules.recompute_cpu_share",
        first.recompute_cpu_s / first.cpu_s, "ratio");
    for (const char* fn : {"compute_comps3", "compute_options2"}) {
      auto it = first.exec_us.find(fn);
      Put(out->layer, std::string("rules.exec_us_p50.") + fn,
          it == first.exec_us.end() ? 0 : Median(it->second), "us");
    }
    Put(out->layer, "market.bs_ns_per_call", BlackScholesNsPerCall(cfg.seed),
        "ns");
  }
  return Status::OK();
}

}  // namespace perfbench
