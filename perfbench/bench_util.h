// Shared helpers of the STRIP benchmark: clocks, process counters,
// order statistics, the in-memory span recorder of traced runs, and the
// per-workload result record.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (monotonic, process-local epoch).
int64_t NowNanos();
/// CPU seconds consumed by the whole process (all threads).
double ProcessCpuSeconds();
/// Peak resident set of the process so far, in MiB.
double PeakRssMb();
/// Sleeps until the steady clock reads `deadline_ns`.
void SleepUntil(int64_t deadline_ns);

/// The CPUs this process may run on, captured once at start-up.
void InitCpuSet();
int NumCpus();
/// Restricts the calling thread to the `k mod NumCpus()`-th allowed CPU.
/// The benchmark's driving thread moves across all CPUs during a run, so a
/// run's figures do not hinge on which (virtual) CPU the scheduler happened
/// to keep it on. Never call this on a thread that is about to start engine
/// threads: new threads inherit the mask.
void PinThisThread(int k);
/// Gives the calling thread back every CPU of the start-up set.
void UnpinThisThread();

/// Linear-interpolation quantile (q in [0,1]) of `v`, which is sorted in
/// place. Same convention as numpy's default. 0 for an empty input.
double Quantile(std::vector<double>& v, double q);
double Median(std::vector<double> v);

/// A timing reported at a fixed percentile: fails the check (returns
/// false) unless at least ten samples lie beyond `q`, so a percentile is
/// never named on fewer samples than that.
bool EnoughBeyond(size_t samples, double q);

/// One span of a traced run: a call from the benchmark into one layer.
struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;   // groups the spans of one request
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint32_t thread = 0;
};

/// In-memory span store of a traced run. Each benchmark thread records
/// into its own buffer (no locking on the hot path); the recorder writes
/// every buffer out as one Chrome trace_event file when the run ends.
class SpanRecorder {
 public:
  class Buffer {
   public:
    /// Opens a span; returns its id (pass it as `parent` to children).
    uint64_t Begin(const char* name, uint64_t request, uint64_t parent);
    void End(uint64_t id);
    /// Records a finished span with explicit times.
    void Add(const char* name, int64_t start_ns, int64_t end_ns,
             uint64_t request, uint64_t parent);
    const std::vector<Span>& spans() const { return spans_; }

   private:
    friend class SpanRecorder;
    explicit Buffer(uint32_t thread) : thread_(thread) {}
    uint32_t thread_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;  // indexes of spans not yet ended
  };

  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A buffer for one thread; stable for the recorder's lifetime.
  Buffer* NewBuffer();

  /// Sum of durations (ns) and count of spans named `name`.
  void Totals(const std::string& name, int64_t* total_ns,
              uint64_t* count) const;

  /// Writes every span as Chrome trace_event JSON ("X" events with the
  /// request id, span id and parent in args).
  bool WriteChromeJson(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when `buf` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder::Buffer* buf, const char* name, uint64_t request,
             uint64_t parent = 0)
      : buf_(buf), id_(buf ? buf->Begin(name, request, parent) : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder::Buffer* buf_;
  uint64_t id_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main().
struct WorkloadResult {
  /// End-to-end metrics (every name in BENCHMARK.json's end_to_end).
  std::map<std::string, Metric> e2e;
  /// Per-layer metrics this workload measured (traced runs only).
  std::map<std::string, Metric> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable lines printed before the result line: per-class
  /// attempted/failed counts and workload-specific figures.
  std::vector<std::string> notes;
};

/// Minimal JSON string escaping for names and notes.
std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
