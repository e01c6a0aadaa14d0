#include "bench_util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntil(int64_t deadline_ns) {
  int64_t now = NowNanos();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

namespace {
cpu_set_t g_cpus;
std::vector<int> g_cpu_ids;
}  // namespace

void InitCpuSet() {
  CPU_ZERO(&g_cpus);
  if (sched_getaffinity(0, sizeof(g_cpus), &g_cpus) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &g_cpus)) g_cpu_ids.push_back(c);
  }
}

int NumCpus() {
  return g_cpu_ids.empty() ? 1 : static_cast<int>(g_cpu_ids.size());
}

void PinThisThread(int k) {
  if (g_cpu_ids.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(g_cpu_ids[static_cast<size_t>(k % NumCpus())], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

void UnpinThisThread() {
  if (g_cpu_ids.empty()) return;
  pthread_setaffinity_np(pthread_self(), sizeof(g_cpus), &g_cpus);
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

bool EnoughBeyond(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

// --- spans --------------------------------------------------------------

uint64_t SpanRecorder::Buffer::Begin(const char* name, uint64_t request,
                                     uint64_t parent) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.thread = thread_;
  // Ids are unique per recorder: the buffer's thread index in the high
  // bits, a per-buffer sequence below.
  s.id = (static_cast<uint64_t>(thread_) << 40) | (spans_.size() + 1);
  s.start_ns = NowNanos();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::Buffer::End(uint64_t id) {
  int64_t now = NowNanos();
  // Spans nest, so the span to close is almost always the last open one.
  for (size_t i = open_.size(); i-- > 0;) {
    Span& s = spans_[open_[i]];
    if (s.id == id) {
      s.end_ns = now;
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void SpanRecorder::Buffer::Add(const char* name, int64_t start_ns,
                               int64_t end_ns, uint64_t request,
                               uint64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.request = request;
  s.parent = parent;
  s.thread = thread_;
  s.id = (static_cast<uint64_t>(thread_) << 40) | (spans_.size() + 1);
  spans_.push_back(s);
}

SpanRecorder::Buffer* SpanRecorder::NewBuffer() {
  std::lock_guard<std::mutex> lk(mu_);
  buffers_.push_back(std::unique_ptr<Buffer>(
      new Buffer(static_cast<uint32_t>(buffers_.size() + 1))));
  return buffers_.back().get();
}

void SpanRecorder::Totals(const std::string& name, int64_t* total_ns,
                          uint64_t* count) const {
  std::lock_guard<std::mutex> lk(mu_);
  *total_ns = 0;
  *count = 0;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      if (name == s.name && s.end_ns >= s.start_ns) {
        *total_ns += s.end_ns - s.start_ns;
        *count += 1;
      }
    }
  }
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) n += b->spans().size();
  return n;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans()) {
      int64_t end = s.end_ns >= s.start_ns ? s.end_ns : s.start_ns;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                   "\"id\":%llu,\"parent\":%llu}}",
                   first ? "" : ",\n", s.name, s.thread,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(end - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
