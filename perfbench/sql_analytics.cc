// sql_analytics: a threaded engine (2 workers) holding the paper-scale PTA
// tables plus a `comp_value` join view — sum(price * weight) over
// stocks ⋈ comps_list grouped by comp — kept by GenerateMaintenanceRule's
// dim-probe delta rules. One closed-loop client runs seeded rounds, each:
//
//   join_agg   the comp_prices join + group-by over 80k × 6600 rows;
//   group_by   a group-by over options_list (50k rows);
//   scan ×2    filtered counts (`strike between`, `weight >`);
//   points     1000 prepared point selects, then 1000 prepared point
//              updates on stocks (whose commits fire the delta rules).
//
// The analytic statements go as text through Database::Execute, so they
// take the plan-cache path; the scan bounds come from a fixed seeded set,
// so their texts repeat. Weights and prices are multiples of 1/1024, which
// keeps every sum exact: after the drain, comp_value must equal the ad-hoc
// join + group-by bit for bit.

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
#include "strip/market/populate.h"
#include "strip/market/trace.h"
#include "strip/viewmaint/rule_gen.h"
#include "workloads.h"

namespace perfbench {

using strip::Database;
using strip::PreparedStatementPtr;
using strip::Status;
using strip::StrFormat;
using strip::Value;

namespace {

constexpr int kWorkers = 2;
constexpr double kDelaySeconds = 0.2;
constexpr int kPointBatch = 1000;
constexpr int kScanVariants = 8;

const char* const kJoinAgg =
    "select comp, sum(stocks.price * weight) as value "
    "from stocks, comps_list where stocks.symbol = comps_list.symbol "
    "group by comp";
const char* const kGroupBy =
    "select stock_symbol, count(*) as n, sum(strike) as s "
    "from options_list group by stock_symbol";

/// Column `col` of every row of `table`, read by a raw storage scan.
std::vector<double> ColumnValues(Database& db, const char* table, int col) {
  std::vector<double> out;
  strip::Table* t = db.catalog().FindTable(table);
  if (t == nullptr) return out;
  strip::PageManager::ScanPos pos;
  strip::ScanBatch batch;
  while (t->NextBatch(pos, batch)) {
    for (size_t i = 0; i < batch.count; ++i) {
      out.push_back(
          batch.rows[i]->rec->values[static_cast<size_t>(col)].as_double());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Scan {
  std::string sql;
  int64_t expected = 0;  // predicted from the storage-scan oracle
  double table_rows = 0;
};

struct Engine {
  std::unique_ptr<Database> db;  // declared first: destroyed last
  std::string delta_fn;
  PreparedStatementPtr select, update;
  std::vector<Value> symbols;
  std::vector<double> prices;  // model of stocks.price, by symbol index
  std::vector<Scan> scans;     // kScanVariants per scanned table
};

Status SetUp(const RunConfig& cfg, const strip::MarketTrace& trace,
             Engine* e) {
  Database::Options opts;
  opts.mode = strip::ExecutorMode::kThreaded;
  opts.num_workers = kWorkers;
  e->db = std::make_unique<Database>(opts);
  Database& db = *e->db;
  strip::PtaConfig pta = strip::PtaConfig::PaperScale();
  pta.seed = cfg.seed * 0x9e3779b97f4a7c15ull + 11;
  STRIP_RETURN_IF_ERROR(strip::PopulatePtaTables(db, trace, pta));
  // Dyadic weights and prices (multiples of 1/1024): sums of their
  // products are exact in double, whatever the order of additions.
  STRIP_RETURN_IF_ERROR(db.RegisterScalarFunction(
      "dyadic", [](const std::vector<Value>& a) -> strip::Result<Value> {
        if (a.size() != 1 || !a[0].is_numeric()) {
          return Status::InvalidArgument("dyadic(x) takes one number");
        }
        return Value::Double(std::round(a[0].as_double() * 1024) / 1024);
      }));
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
    update comps_list set weight = dyadic(weight);
    update stocks set price = dyadic(price);
    create materialized view comp_value as
      select comp, sum(stocks.price * weight) as value
      from stocks, comps_list
      where stocks.symbol = comps_list.symbol
      group by comp;
    create index on comp_value (comp);
  )"));
  strip::RuleGenOptions gen;
  gen.delay_seconds = kDelaySeconds;
  STRIP_ASSIGN_OR_RETURN(
      strip::GeneratedRule rule,
      strip::GenerateMaintenanceRule(db, "comp_value", "stocks", gen));
  if (rule.strategy != "dim-probe") {
    return Status::Internal("comp_value rule strategy is " + rule.strategy);
  }
  e->delta_fn = rule.function_name;
  STRIP_ASSIGN_OR_RETURN(e->select,
                         db.Prepare("select price from stocks where symbol = ?"));
  STRIP_ASSIGN_OR_RETURN(
      e->update, db.Prepare("update stocks set price = ? where symbol = ?"));

  const int stocks = trace.options().num_stocks;
  e->symbols.clear();
  e->prices.assign(static_cast<size_t>(stocks), 0);
  std::unordered_map<std::string, size_t> index;
  for (int i = 0; i < stocks; ++i) {
    e->symbols.push_back(Value::Str(strip::StockSymbol(i)));
    index[strip::StockSymbol(i)] = static_cast<size_t>(i);
  }
  strip::Table* st = db.catalog().FindTable("stocks");
  strip::PageManager::ScanPos pos;
  strip::ScanBatch batch;
  while (st->NextBatch(pos, batch)) {
    for (size_t i = 0; i < batch.count; ++i) {
      const auto& v = batch.rows[i]->rec->values;
      e->prices[index.at(v[0].as_string())] = v[1].as_double();
    }
  }

  // Filtered scans with bounds from a fixed seeded set; the expected
  // counts come from sorted column copies taken by a raw storage scan.
  std::vector<double> strikes = ColumnValues(db, "options_list", 2);
  std::vector<double> weights = ColumnValues(db, "comps_list", 2);
  strip::Rng rng(cfg.seed ^ 0x5ca9ull);
  e->scans.clear();
  for (int i = 0; i < kScanVariants; ++i) {
    double lo = std::floor(rng.UniformReal(strikes.front(), strikes.back()) *
                           4) / 4;
    double hi = lo + std::ceil((strikes.back() - strikes.front()) * 0.1 * 4) / 4;
    Scan s;
    s.sql = StrFormat(
        "select count(*) as n from options_list where strike between %.17g "
        "and %.17g",
        lo, hi);
    s.expected = std::upper_bound(strikes.begin(), strikes.end(), hi) -
                 std::lower_bound(strikes.begin(), strikes.end(), lo);
    s.table_rows = static_cast<double>(strikes.size());
    e->scans.push_back(std::move(s));
  }
  for (int i = 0; i < kScanVariants; ++i) {
    double w = std::floor(rng.UniformReal(weights.front(), weights.back()) *
                          64) / 64;
    Scan s;
    s.sql = StrFormat(
        "select count(*) as n from comps_list where weight > %.17g", w);
    s.expected = weights.end() -
                 std::upper_bound(weights.begin(), weights.end(), w);
    s.table_rows = static_cast<double>(weights.size());
    e->scans.push_back(std::move(s));
  }
  // Warm-up: one of each statement, so plans are cached before measuring.
  STRIP_RETURN_IF_ERROR(db.Execute(kJoinAgg).status());
  STRIP_RETURN_IF_ERROR(db.Execute(kGroupBy).status());
  for (const Scan& s : e->scans) {
    STRIP_RETURN_IF_ERROR(db.Execute(s.sql).status());
  }
  return Status::OK();
}

/// Exact equality of comp_value and the ad-hoc join + group-by.
Status CheckView(Database& db) {
  STRIP_ASSIGN_OR_RETURN(strip::ResultSet view,
                         db.Execute("select comp, value from comp_value"));
  STRIP_ASSIGN_OR_RETURN(strip::ResultSet want, db.Execute(kJoinAgg));
  std::map<std::string, double> v, w;
  for (const auto& row : view.rows) v[row[0].as_string()] = row[1].as_double();
  for (const auto& row : want.rows) w[row[0].as_string()] = row[1].as_double();
  if (v.size() != w.size()) {
    return Status::Internal(StrFormat("comp_value has %zu rows, join %zu",
                                      v.size(), w.size()));
  }
  for (const auto& [comp, value] : w) {
    auto it = v.find(comp);
    if (it == v.end() || it->second != value) {
      return Status::Internal(StrFormat(
          "comp_value[%s] = %.17g but the join says %.17g", comp.c_str(),
          it == v.end() ? NAN : it->second, value));
    }
  }
  return Status::OK();
}

struct MixStats {
  std::vector<double> round_ms, join_ms, group_ms, scan_ms, scan_rows_per_s;
  std::vector<double> select_us, update_us;  // per call, one per batch
  double point_s = 0;
  uint64_t point_ops = 0;
  uint64_t statements = 0, failed = 0;
  uint64_t joins = 0, groups = 0, scans = 0;
  double wall_s = 0, cpu_s = 0;
};

Status RunMix(const RunConfig& cfg, Engine& e, SpanRecorder::Buffer* spans,
              MixStats* ms) {
  Database& db = *e.db;
  strip::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 3);
  const size_t min_rounds = cfg.brief ? 5 : 50;
  const int64_t t0 = NowNanos();
  const int64_t end = t0 + static_cast<int64_t>(cfg.seconds * 1e9);
  const double cpu0 = ProcessCpuSeconds();
  struct Unpin {
    ~Unpin() { UnpinThisThread(); }
  } unpin;
  auto timed = [&](const char* name, uint64_t round, uint64_t parent,
                   const std::string& sql,
                   double* ms_out) -> strip::Result<strip::ResultSet> {
    ScopedSpan span(spans, name, round, parent);
    int64_t s0 = NowNanos();
    strip::Result<strip::ResultSet> r = db.Execute(sql);
    *ms_out = static_cast<double>(NowNanos() - s0) / 1e6;
    ++ms->statements;
    if (!r.ok()) ++ms->failed;
    return r;
  };
  for (uint64_t round = 1;
       NowNanos() < end || ms->round_ms.size() < min_rounds; ++round) {
    // Each round runs on the next CPU (README.md, "Steadiness").
    PinThisThread(static_cast<int>(round - 1));
    ScopedSpan rspan(spans, "sql.round", round);
    const int64_t r0 = NowNanos();
    double t = 0;
    auto j = timed("sql.join_agg", round, rspan.id(), kJoinAgg, &t);
    if (!j.ok()) return j.status();
    if (j->num_rows() == 0) return Status::Internal("join_agg returned no rows");
    ms->join_ms.push_back(t);
    auto g = timed("sql.group_by", round, rspan.id(), kGroupBy, &t);
    if (!g.ok()) return g.status();
    ms->group_ms.push_back(t);
    for (int k = 0; k < 2; ++k) {
      // One scan of each table per round, bounds from the seeded set.
      const Scan& s =
          e.scans[static_cast<size_t>(k * kScanVariants +
                                      rng.UniformInt(0, kScanVariants - 1))];
      auto r = timed("sql.scan", round, rspan.id(), s.sql, &t);
      if (!r.ok()) return r.status();
      if (r->num_rows() != 1 || r->rows[0][0].as_int() != s.expected) {
        return Status::Internal(StrFormat(
            "'%s' counted %lld, expected %lld", s.sql.c_str(),
            r->num_rows() == 1 ? static_cast<long long>(r->rows[0][0].as_int())
                               : -1LL,
            static_cast<long long>(s.expected)));
      }
      ms->scan_ms.push_back(t);
      ms->scan_rows_per_s.push_back(s.table_rows / (t / 1e3));
    }
    {
      ScopedSpan span(spans, "engine.point_selects", round, rspan.id());
      std::vector<size_t> picks(kPointBatch);
      for (auto& p : picks) {
        p = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(e.symbols.size()) - 1));
      }
      int64_t s0 = NowNanos();
      for (size_t p : picks) {
        auto r = e.select->Execute({e.symbols[p]});
        ++ms->statements;
        if (!r.ok()) return r.status();
        if (r->num_rows() != 1 || r->rows[0][0].as_double() != e.prices[p]) {
          return Status::Internal("point select returned a wrong price");
        }
      }
      int64_t ns = NowNanos() - s0;
      ms->select_us.push_back(static_cast<double>(ns) / 1e3 / kPointBatch);
      ms->point_s += static_cast<double>(ns) / 1e9;
    }
    {
      ScopedSpan span(spans, "engine.point_updates", round, rspan.id());
      std::vector<std::pair<size_t, double>> picks(kPointBatch);
      for (auto& [p, price] : picks) {
        p = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(e.symbols.size()) - 1));
        price = static_cast<double>(rng.UniformInt(160, 8000)) / 16.0;
      }
      int64_t s0 = NowNanos();
      for (const auto& [p, price] : picks) {
        auto r = e.update->Execute({Value::Double(price), e.symbols[p]});
        ++ms->statements;
        if (!r.ok()) return r.status();
        e.prices[p] = price;
      }
      int64_t ns = NowNanos() - s0;
      ms->update_us.push_back(static_cast<double>(ns) / 1e3 / kPointBatch);
      ms->point_s += static_cast<double>(ns) / 1e9;
    }
    ms->point_ops += 2 * kPointBatch;
    ms->round_ms.push_back(static_cast<double>(NowNanos() - r0) / 1e6);
  }
  ms->wall_s = static_cast<double>(NowNanos() - t0) / 1e9;
  ms->cpu_s = ProcessCpuSeconds() - cpu0;
  return Status::OK();
}

/// Raw arena scan of comps_list (one column touched per row), rows/s.
double StorageScanRowsPerSecond(Database& db) {
  strip::Table* t = db.catalog().FindTable("comps_list");
  std::vector<double> rates;
  double sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    int64_t t0 = NowNanos();
    size_t rows = 0;
    for (int pass = 0; pass < 10; ++pass) {
      strip::PageManager::ScanPos pos;
      strip::ScanBatch batch;
      while (t->NextBatch(pos, batch)) {
        for (size_t i = 0; i < batch.count; ++i) {
          sink += batch.rows[i]->rec->values[2].as_double();
        }
        rows += batch.count;
      }
    }
    rates.push_back(static_cast<double>(rows) /
                    (static_cast<double>(NowNanos() - t0) / 1e9));
  }
  volatile double keep = sink;
  (void)keep;
  return Median(rates);
}

/// Table::IndexLookup on stocks.symbol, ns per probe.
double IndexProbeNs(Database& db, const std::vector<Value>& symbols) {
  strip::Table* t = db.catalog().FindTable("stocks");
  std::vector<strip::RowHandle> out;
  std::vector<double> per_probe;
  size_t found = 0;
  for (int rep = 0; rep < 7; ++rep) {
    int64_t t0 = NowNanos();
    for (int pass = 0; pass < 20; ++pass) {
      for (const Value& s : symbols) {
        out.clear();
        t->IndexLookup(0, s, out);
        found += out.size();
      }
    }
    per_probe.push_back(static_cast<double>(NowNanos() - t0) /
                        static_cast<double>(20 * symbols.size()));
  }
  volatile size_t keep = found;
  (void)keep;
  return Median(per_probe);
}

}  // namespace

Status RunSqlAnalytics(const RunConfig& cfg, WorkloadResult* out) {
  strip::TraceOptions trace_opts = strip::TraceOptions::PaperScale();
  trace_opts.seed = cfg.seed;
  const strip::MarketTrace trace = strip::MarketTrace::Generate(trace_opts);

  const int setups = cfg.brief ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Engine> engine;
  for (int i = 0; i < setups; ++i) {
    if (engine) engine->db->threaded()->Drain();
    // Replacing the whole Engine destroys its statements before its db.
    engine = std::make_unique<Engine>();
    int64_t s0 = NowNanos();
    STRIP_RETURN_IF_ERROR(SetUp(cfg, trace, engine.get()));
    setup_s.push_back(static_cast<double>(NowNanos() - s0) / 1e9);
  }
  Engine& e = *engine;
  Database& db = *e.db;
  SpanRecorder::Buffer* spans =
      cfg.spans != nullptr ? cfg.spans->NewBuffer() : nullptr;
  const Database::PlanCacheStats pc0 = db.plan_cache_stats();
  const double busy0 = db.metrics().GaugeValues()["executor.busy_micros"];
  MixStats ms;
  STRIP_RETURN_IF_ERROR(RunMix(cfg, e, spans, &ms));
  const Database::PlanCacheStats pc1 = db.plan_cache_stats();
  const double busy1 = db.metrics().GaugeValues()["executor.busy_micros"];
  db.threaded()->Drain();
  STRIP_RETURN_IF_ERROR(CheckView(db));
  if (db.executor().stats().tasks_failed.load() != 0) {
    return Status::Internal("view maintenance tasks failed");
  }
  const double tail_q = 0.8;
  if (!cfg.brief && !EnoughBeyond(ms.round_ms.size(), tail_q)) {
    return Status::Internal("too few rounds for the named percentile");
  }

  Put(out->e2e, "setup_s", Median(setup_s), "s");
  Put(out->e2e, "ops_per_s",
      static_cast<double>(ms.statements) / ms.wall_s, "1/s");
  Put(out->e2e, "cpu_us_per_op",
      ms.cpu_s * 1e6 / static_cast<double>(ms.statements), "us");
  // Round r ran on CPU r mod n: the median round is the median of the
  // per-CPU medians, so one slow or fast CPU does not move it.
  std::vector<double> cpu_medians;
  for (int c = 0; c < NumCpus(); ++c) {
    std::vector<double> on_cpu;
    for (size_t r = static_cast<size_t>(c); r < ms.round_ms.size();
         r += static_cast<size_t>(NumCpus())) {
      on_cpu.push_back(ms.round_ms[r]);
    }
    if (!on_cpu.empty()) cpu_medians.push_back(Median(on_cpu));
  }
  Put(out->e2e, "p50_ms", Median(cpu_medians), "ms");
  Put(out->e2e, "tail_ms", Quantile(ms.round_ms, tail_q), "ms");
  out->attempted = ms.statements;
  out->failed = ms.failed;
  const double point_ops_per_s =
      static_cast<double>(ms.point_ops) / ms.point_s;
  out->notes.push_back(StrFormat(
      "sql_analytics: %zu rounds, %llu statements (%llu failed); round "
      "p50/p80 %.1f/%.1f ms; join_agg p50 %.1f ms, group_by p50 %.1f ms, "
      "scan p50 %.2f ms; point ops %.0f/s",
      ms.round_ms.size(), static_cast<unsigned long long>(ms.statements),
      static_cast<unsigned long long>(ms.failed),
      Quantile(ms.round_ms, 0.5), Quantile(ms.round_ms, tail_q),
      Quantile(ms.join_ms, 0.5), Quantile(ms.group_ms, 0.5),
      Quantile(ms.scan_ms, 0.5), point_ops_per_s));

  if (cfg.spans != nullptr) {
    Put(out->layer, "engine.point_select_us", Median(ms.select_us), "us");
    Put(out->layer, "engine.point_update_us", Median(ms.update_us), "us");
    Put(out->layer, "engine.point_ops_per_s", point_ops_per_s, "1/s");
    const double hits = static_cast<double>(pc1.hits - pc0.hits);
    const double misses = static_cast<double>(pc1.misses - pc0.misses);
    Put(out->layer, "engine.plan_cache_hit_share",
        hits / std::max(1.0, hits + misses), "ratio");
    Put(out->layer, "sql.join_agg_p50_ms", Quantile(ms.join_ms, 0.5), "ms");
    Put(out->layer, "sql.group_by_p50_ms", Quantile(ms.group_ms, 0.5), "ms");
    Put(out->layer, "sql.scan_p50_ms", Quantile(ms.scan_ms, 0.5), "ms");
    Put(out->layer, "sql.join_agg_p80_ms", Quantile(ms.join_ms, 0.8), "ms");
    Put(out->layer, "sql.group_by_p80_ms", Quantile(ms.group_ms, 0.8), "ms");
    Put(out->layer, "sql.scan_p90_ms", Quantile(ms.scan_ms, 0.9), "ms");
    const double raw = StorageScanRowsPerSecond(db);
    Put(out->layer, "storage.scan_rows_per_s", raw, "1/s");
    Put(out->layer, "sql.scan_overhead_x", raw / Median(ms.scan_rows_per_s),
        "x");
    Put(out->layer, "storage.index_probe_ns", IndexProbeNs(db, e.symbols),
        "ns");
    const strip::Histogram* h =
        db.metrics().FindHistogram("rules.exec_us." + e.delta_fn);
    Put(out->layer, "viewmaint.delta_exec_us_p50.sql_analytics",
        h == nullptr ? 0 : h->Percentile(0.5), "us");
    Put(out->layer, "txn.executor_busy_share.sql_analytics",
        (busy1 - busy0) / (ms.wall_s * 1e6 * kWorkers), "ratio");
    if (!cfg.brief) {
      std::string path = cfg.work_dir + "/registry-sql_analytics.json";
      FILE* file = std::fopen(path.c_str(), "w");
      if (file != nullptr) {
        std::fputs(db.metrics().SnapshotJson().c_str(), file);
        std::fclose(file);
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
