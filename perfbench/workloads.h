// The benchmark's three workloads (see README.md for why each exists and
// which layers it loads) and the layer probes shared by their traced runs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "strip/common/status.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10;
  /// Scratch directory inside the checkout (WAL, snapshots, span files).
  std::string work_dir;
  /// Non-null in traced runs: spans around every call into a layer.
  SpanRecorder* spans = nullptr;
  /// Shortened run that only feeds per-layer metrics (a traced run of
  /// another workload measures the layers this one owns).
  bool brief = false;
};

/// §4–5 replay: paper-scale PTA tables, comp + option rules, the seeded
/// synthetic TAQ trace on the simulated executor.
strip::Status RunPtaReplay(const RunConfig& cfg, WorkloadResult* out);

/// In-process strip_server with the demo schema under an open-loop feed,
/// point reads, freshness probes and scheduled checkpoints.
strip::Status RunServerFeed(const RunConfig& cfg, WorkloadResult* out);

/// Threaded engine with paper-scale tables and a dim-probe join view; a
/// seeded closed-loop mix of analytic SQL and prepared point operations.
strip::Status RunSqlAnalytics(const RunConfig& cfg, WorkloadResult* out);

/// Adds metric `name` to `map`.
inline void Put(std::map<std::string, Metric>& map, const std::string& name,
                double value, const std::string& unit) {
  map[name] = Metric{value, unit};
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
