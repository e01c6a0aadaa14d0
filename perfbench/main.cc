// strip_perfbench: the repository benchmark's main program.
//
//   strip_perfbench --workload pta_replay|server_feed|sql_analytics
//                   --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 runs the workload once with tracing off and reports the
// end-to-end metrics. --trace 1 runs it untraced and then traced (the
// difference is obs.trace_overhead_share), measures the layers the other
// workloads own with brief traced runs of those, and reports the per-layer
// metrics; the spans of the traced run and the engine registry snapshot
// are written under DIR. Every workload ends with a correctness gate: a
// wrong result exits non-zero instead of reporting a time.
//
// Output: informational lines, then one JSON line
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

using WorkloadFn = strip::Status (*)(const RunConfig&, WorkloadResult*);

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"pta_replay", RunPtaReplay},
    {"server_feed", RunServerFeed},
    {"sql_analytics", RunSqlAnalytics},
};

/// Every end-to-end metric, as BENCHMARK.json lists them.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "cpu_us_per_op",
                                 "ops_per_s", "p50_ms", "tail_ms"};

/// Every per-layer metric, as BENCHMARK.json lists them.
const char* const kPerLayer[] = {
    "feed.frame_codec_us_per_batch",
    "feed.wire_decode_ns_per_record",
    "feed.validate_ns_per_record",
    "net.server_request_us_p50",
    "net.server_request_us_p99",
    "net.backpressure_pauses",
    "durability.wal_append_us_per_batch",
    "durability.wal_sync_us",
    "durability.wal_bytes_per_quote",
    "durability.checkpoint_ms_p50",
    "durability.checkpoint_ms_max",
    "durability.checkpoints",
    "txn.read_abort_share",
    "txn.aborts_per_commit",
    "txn.wait_die_aborts",
    "txn.lock_wait_ms",
    "txn.queue_wait_us_p99",
    "txn.executor_busy_share.server_feed",
    "txn.executor_busy_share.sql_analytics",
    "rules.commit_us_per_quote",
    "rules.tasks_created",
    "rules.firings_merged",
    "rules.batch_factor",
    "rules.recompute_cpu_share",
    "rules.exec_us_p50.compute_comps3",
    "rules.exec_us_p50.compute_options2",
    "engine.update_dml_us_per_quote",
    "engine.point_select_us",
    "engine.point_update_us",
    "engine.point_ops_per_s",
    "engine.plan_cache_hit_share",
    "sql.rows_scanned_per_quote",
    "sql.join_agg_p50_ms",
    "sql.group_by_p50_ms",
    "sql.scan_p50_ms",
    "sql.join_agg_p80_ms",
    "sql.group_by_p80_ms",
    "sql.scan_p90_ms",
    "sql.scan_overhead_x",
    "storage.scan_rows_per_s",
    "storage.index_probe_ns",
    "viewmaint.delta_exec_us_p50.server_feed",
    "viewmaint.delta_exec_us_p50.sql_analytics",
    "viewmaint.deltas_folded_per_firing",
    "viewmaint.engine_staleness_us_p95",
    "market.bs_ns_per_call",
    "server_feed.read_p50_ms",
    "server_feed.read_p95_ms",
    "server_feed.read_fail_share",
    "server_feed.staleness_p50_ms",
    "server_feed.staleness_p95_ms",
    "obs.trace_overhead_share",
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pta_replay|server_feed|sql_analytics "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               argv0);
  return 2;
}

void PrintResult(const WorkloadResult& r,
                 const std::map<std::string, Metric>& metrics) {
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + JsonEscape(name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(m.unit) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // glibc gives threads their own malloc arenas on first contention, so
  // the number of arenas (and the peak resident set) varies from run to
  // run with thread timing. Two arenas make peak_rss_mb repeatable.
  mallopt(M_ARENA_MAX, 2);
  InitCpuSet();
  std::string workload;
  RunConfig cfg;
  int trace = -1;
  cfg.work_dir = ".bench_build/work";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else if (flag == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) selected = &w;
  }
  if (selected == nullptr || (trace != 0 && trace != 1) ||
      !(cfg.seconds > 0) || argc % 2 == 0) {
    return Usage(argv[0]);
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", cfg.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  auto run = [&](const Workload& w, const RunConfig& c,
                 WorkloadResult* out) -> bool {
    strip::Status st = w.fn(c, out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", w.name, st.ToString().c_str());
      return false;
    }
    return true;
  };

  WorkloadResult base;
  if (!run(*selected, cfg, &base)) return 1;
  Put(base.e2e, "peak_rss_mb", PeakRssMb(), "MB");
  if (trace == 0) {
    for (const char* name : kEndToEnd) {
      if (base.e2e.count(name) == 0) {
        std::fprintf(stderr, "missing end-to-end metric %s\n", name);
        return 1;
      }
    }
    PrintResult(base, base.e2e);
    return 0;
  }

  // Traced: the same workload again with spans on, then brief traced runs
  // of the other workloads for the layers they own.
  SpanRecorder spans;
  RunConfig traced_cfg = cfg;
  traced_cfg.spans = &spans;
  WorkloadResult traced;
  if (!run(*selected, traced_cfg, &traced)) return 1;
  std::map<std::string, Metric> layer = traced.layer;
  for (const Workload& w : kWorkloads) {
    if (&w == selected) continue;
    SpanRecorder other_spans;
    RunConfig brief = cfg;
    brief.spans = &other_spans;
    brief.brief = true;
    brief.seconds = 3;
    WorkloadResult r;
    if (!run(w, brief, &r)) return 1;
    for (const auto& [name, m] : r.layer) layer.emplace(name, m);
  }
  // Tracing overhead on the workload's headline figure: throughput for the
  // replay and the SQL mix, ack latency for the server.
  double overhead =
      workload == "server_feed"
          ? traced.e2e["p50_ms"].value / base.e2e["p50_ms"].value - 1.0
          : 1.0 - traced.e2e["ops_per_s"].value / base.e2e["ops_per_s"].value;
  Put(layer, "obs.trace_overhead_share", overhead, "ratio");

  std::string span_path = cfg.work_dir + "/spans-" + workload + ".json";
  if (!spans.WriteChromeJson(span_path)) {
    std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
    return 1;
  }
  traced.notes.push_back("spans: " + std::to_string(spans.size()) +
                         " written to " + span_path);

  std::map<std::string, Metric> out;
  for (const char* name : kPerLayer) {
    auto it = layer.find(name);
    if (it == layer.end()) {
      std::fprintf(stderr, "missing per-layer metric %s\n", name);
      return 1;
    }
    out[name] = it->second;
  }
  for (const std::string& n : base.notes) traced.notes.push_back(n);
  PrintResult(traced, out);
  return 0;
}
