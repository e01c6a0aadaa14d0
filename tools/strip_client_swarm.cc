// strip_client_swarm: load driver and state-dump client for strip_server.
//
// Load mode (default): N client threads run a mixed feed/query workload
// against the demo schema for S seconds, then (optionally) an overload
// phase of low-priority feeders that the server's admission control should
// shed. Emits BENCH_server.json (--out=...) with client-observed latency
// percentiles, shed counts, wait-die abort counts, and the server's full
// metrics registry.
//
//   strip_client_swarm --port=N [--clients=8] [--seconds=5] [--batch=8]
//     [--symbols=64] [--feed-fraction=0.7] [--overload-clients=0]
//     [--overload-seconds=0] [--out=BENCH_server.json]
//
// Dump mode: drains the server, then prints the full contents of `quotes`
// and `quote_stats` as sorted TSV — byte-comparable across a kill -9 /
// restart cycle (the CI smoke test's recovery oracle).
//
//   strip_client_swarm --port=N --dump
//
// Shutdown mode: asks the server to stop gracefully.
//
//   strip_client_swarm --port=N --shutdown

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "pta_bench_common.h"
#include "strip/net/client.h"
#include "strip/net/protocol.h"

namespace {

using strip::AdminOp;
using strip::Client;
using strip::FeedRecord;
using strip::SessionPriority;
using strip::Status;
using strip::Value;

struct Flags {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int clients = 8;
  double seconds = 5.0;
  int batch = 8;
  int symbols = 64;
  double feed_fraction = 0.7;
  int overload_clients = 0;
  double overload_seconds = 0.0;
  std::string out;
  bool dump = false;
  bool checkpoint = false;
  bool shutdown = false;
  uint64_t seed = 42;
};

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Symbol(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "sym%04d", i);
  return buf;
}

/// One worker's tally; merged after join.
struct WorkerStats {
  std::vector<int64_t> latencies_us;
  uint64_t feed_batches = 0;
  uint64_t feed_records = 0;
  uint64_t execs = 0;
  uint64_t shed = 0;        // admission-control refusals (IsShedRefusal)
  uint64_t aborted = 0;     // wait-die aborts: failed, not shed
  uint64_t refused = 0;     // sessions refused at Hello
  uint64_t errors = 0;      // everything else
  uint64_t last_lsn = 0;
};

/// Counts a failed reply: an admission-control refusal is shed, a wait-die
/// abort (kAborted for any other reason) a failed request. Returns false
/// for any other error, after which the worker stops.
bool Tally(const Status& status, WorkerStats* out) {
  if (strip::IsShedRefusal(status)) {
    out->shed += 1;
  } else if (status.code() == strip::StatusCode::kAborted) {
    out->aborted += 1;
  } else {
    out->errors += 1;
    return false;
  }
  return true;
}

/// Runs one client until the deadline. Low-priority overload workers feed
/// only (the load the server is expected to shed); normal workers mix
/// feeds and point queries like an application would.
void RunWorker(const Flags& flags, SessionPriority priority, int worker_id,
               double seconds, WorkerStats* out) {
  std::mt19937_64 rng(flags.seed * 7919 + worker_id);
  std::uniform_int_distribution<int> sym(0, flags.symbols - 1);
  std::uniform_real_distribution<double> price(1.0, 500.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  int64_t deadline = SteadyMicros() + static_cast<int64_t>(seconds * 1e6);
  // A session refused at Hello (admission control) is retried with
  // backoff, as a well-behaved shed client would.
  std::unique_ptr<Client> client;
  for (;;) {
    auto attempt = Client::Connect(flags.host, flags.port, priority,
                                   "swarm-" + std::to_string(worker_id));
    if (attempt.ok()) {
      client = std::move(*attempt);
      break;
    }
    out->refused += 1;
    if (SteadyMicros() > deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  auto stmt = client->Prepare(
      "select total, n from quote_stats where symbol = ?");
  if (!stmt.ok()) {
    out->errors += 1;
    return;
  }
  while (SteadyMicros() < deadline) {
    bool feed = priority == SessionPriority::kLow ||
                coin(rng) < flags.feed_fraction;
    int64_t start = SteadyMicros();
    if (feed) {
      std::vector<FeedRecord> batch;
      batch.reserve(static_cast<size_t>(flags.batch));
      for (int i = 0; i < flags.batch; ++i) {
        FeedRecord rec;
        rec.at = 0;  // server stamps arrival
        rec.values = {Value::Str(Symbol(sym(rng))),
                      Value::Double(price(rng))};
        batch.push_back(std::move(rec));
      }
      auto resp = client->FeedAppend("quotes", batch);
      if (resp.ok()) {
        out->feed_batches += 1;
        out->feed_records += batch.size();
        out->last_lsn = std::max(out->last_lsn, resp->lsn);
      } else {
        // An unknown error leaves the connection state unknown: stop.
        if (!Tally(resp.status(), out)) return;
        continue;  // neither a refusal nor a failure is service latency
      }
    } else {
      auto resp = client->Exec(stmt->handle,
                                  {Value::Str(Symbol(sym(rng)))});
      if (resp.ok()) {
        out->execs += 1;
      } else {
        if (!Tally(resp.status(), out)) return;
        continue;
      }
    }
    out->latencies_us.push_back(SteadyMicros() - start);
  }
}

double PercentileOf(std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return static_cast<double>(sorted[idx]);
}

int Dump(const Flags& flags) {
  auto client = Client::Connect(flags.host, flags.port,
                                SessionPriority::kHigh, "dump");
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  // Quiesce first so the dump covers every acknowledged batch's rule
  // cascade, not a prefix of it.
  if (auto drained = (*client)->Admin(AdminOp::kDrain); !drained.ok()) {
    std::fprintf(stderr, "drain: %s\n",
                 drained.status().ToString().c_str());
    return 1;
  }
  for (const char* sql :
       {"select symbol, price from quotes order by symbol",
        "select symbol, total, n from quote_stats order by symbol"}) {
    auto stmt = (*client)->Prepare(sql);
    if (!stmt.ok()) {
      std::fprintf(stderr, "prepare: %s\n",
                   stmt.status().ToString().c_str());
      return 1;
    }
    auto rs = (*client)->Exec(stmt->handle);
    if (!rs.ok()) {
      std::fprintf(stderr, "exec: %s\n", rs.status().ToString().c_str());
      return 1;
    }
    std::printf("== %s\n", sql);
    for (const auto& row : rs->rows) {
      std::string line;
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) line += '\t';
        line += row[c].ToString();
      }
      std::printf("%s\n", line.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* name) -> const char* {
      size_t n = std::strlen(name);
      if (std::strncmp(a, name, n) == 0 && a[n] == '=') return a + n + 1;
      return nullptr;
    };
    const char* v;
    if ((v = val("--host"))) flags.host = v;
    else if ((v = val("--port"))) flags.port = static_cast<uint16_t>(std::atoi(v));
    else if ((v = val("--clients"))) flags.clients = std::atoi(v);
    else if ((v = val("--seconds"))) flags.seconds = std::atof(v);
    else if ((v = val("--batch"))) flags.batch = std::atoi(v);
    else if ((v = val("--symbols"))) flags.symbols = std::atoi(v);
    else if ((v = val("--feed-fraction"))) flags.feed_fraction = std::atof(v);
    else if ((v = val("--overload-clients"))) flags.overload_clients = std::atoi(v);
    else if ((v = val("--overload-seconds"))) flags.overload_seconds = std::atof(v);
    else if ((v = val("--out"))) flags.out = v;
    else if ((v = val("--seed"))) flags.seed = static_cast<uint64_t>(std::atoll(v));
    else if (std::strcmp(a, "--dump") == 0) flags.dump = true;
    else if (std::strcmp(a, "--checkpoint") == 0) flags.checkpoint = true;
    else if (std::strcmp(a, "--shutdown") == 0) flags.shutdown = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return 2;
    }
  }
  if (flags.port == 0) {
    std::fprintf(stderr, "--port is required\n");
    return 2;
  }

  if (flags.dump) return Dump(flags);
  if (flags.checkpoint) {
    auto client = Client::Connect(flags.host, flags.port,
                                  SessionPriority::kHigh, "checkpoint");
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    auto resp = (*client)->Admin(AdminOp::kCheckpoint);
    if (!resp.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    std::printf("checkpoint at lsn %llu\n",
                static_cast<unsigned long long>(resp->lsn));
    return 0;
  }
  if (flags.shutdown) {
    auto client = Client::Connect(flags.host, flags.port,
                                  SessionPriority::kHigh, "shutdown");
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    auto resp = (*client)->Admin(AdminOp::kShutdown);
    if (!resp.ok()) {
      std::fprintf(stderr, "shutdown: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    std::printf("server stopping (lsn %llu)\n",
                static_cast<unsigned long long>(resp->lsn));
    return 0;
  }

  // --- phase 1: steady mixed load -----------------------------------------
  std::vector<WorkerStats> stats(static_cast<size_t>(flags.clients));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < flags.clients; ++i) {
      threads.emplace_back(RunWorker, std::cref(flags),
                           SessionPriority::kNormal, i, flags.seconds,
                           &stats[static_cast<size_t>(i)]);
    }
    for (auto& t : threads) t.join();
  }

  // --- phase 2: overload (low-priority feeders the watchdog should shed) --
  std::vector<WorkerStats> overload(
      static_cast<size_t>(std::max(flags.overload_clients, 0)));
  if (flags.overload_clients > 0 && flags.overload_seconds > 0) {
    std::vector<std::thread> threads;
    for (int i = 0; i < flags.overload_clients; ++i) {
      threads.emplace_back(RunWorker, std::cref(flags),
                           SessionPriority::kLow, 1000 + i,
                           flags.overload_seconds,
                           &overload[static_cast<size_t>(i)]);
    }
    // Normal traffic continues underneath, as it would in production.
    std::vector<WorkerStats> fg(static_cast<size_t>(flags.clients));
    for (int i = 0; i < flags.clients; ++i) {
      threads.emplace_back(RunWorker, std::cref(flags),
                           SessionPriority::kNormal, 2000 + i,
                           flags.overload_seconds,
                           &fg[static_cast<size_t>(i)]);
    }
    for (auto& t : threads) t.join();
    stats.insert(stats.end(), fg.begin(), fg.end());
  }

  WorkerStats total;
  std::vector<int64_t> lat;
  for (const auto& s : stats) {
    lat.insert(lat.end(), s.latencies_us.begin(), s.latencies_us.end());
    total.feed_batches += s.feed_batches;
    total.feed_records += s.feed_records;
    total.execs += s.execs;
    total.shed += s.shed;
    total.aborted += s.aborted;
    total.refused += s.refused;
    total.errors += s.errors;
    total.last_lsn = std::max(total.last_lsn, s.last_lsn);
  }
  uint64_t overload_shed = 0, overload_refused = 0, overload_ok = 0;
  for (const auto& s : overload) {
    overload_shed += s.shed;
    overload_refused += s.refused;
    overload_ok += s.feed_batches;
    total.aborted += s.aborted;
    total.errors += s.errors;
  }
  std::sort(lat.begin(), lat.end());
  double p50 = PercentileOf(lat, 0.50);
  double p95 = PercentileOf(lat, 0.95);
  double p99 = PercentileOf(lat, 0.99);

  std::printf(
      "ops %zu (feed %llu batches / %llu records, exec %llu)  "
      "p50 %.0fus p95 %.0fus p99 %.0fus  shed %llu refused %llu "
      "aborted %llu errors %llu  last_lsn %llu\n",
      lat.size(), static_cast<unsigned long long>(total.feed_batches),
      static_cast<unsigned long long>(total.feed_records),
      static_cast<unsigned long long>(total.execs), p50, p95, p99,
      static_cast<unsigned long long>(total.shed + overload_shed),
      static_cast<unsigned long long>(total.refused + overload_refused),
      static_cast<unsigned long long>(total.aborted),
      static_cast<unsigned long long>(total.errors),
      static_cast<unsigned long long>(total.last_lsn));
  if (total.errors != 0) return 1;

  if (flags.out.empty()) return 0;

  // Pull the server's own registry + health for the report.
  auto admin = Client::Connect(flags.host, flags.port,
                               SessionPriority::kHigh, "swarm-admin");
  if (!admin.ok()) {
    std::fprintf(stderr, "admin connect: %s\n",
                 admin.status().ToString().c_str());
    return 1;
  }
  auto metrics = (*admin)->Admin(AdminOp::kMetrics);
  auto health = (*admin)->Admin(AdminOp::kHealth);
  if (!metrics.ok() || !health.ok()) {
    std::fprintf(stderr, "admin metrics/health failed\n");
    return 1;
  }

  strip::bench::BenchReport report("server");
  report.Config([&](strip::JsonWriter& w) {
    w.Key("clients").Int(flags.clients);
    w.Key("seconds").Double(flags.seconds);
    w.Key("batch").Int(flags.batch);
    w.Key("symbols").Int(flags.symbols);
    w.Key("feed_fraction").Double(flags.feed_fraction);
    w.Key("overload_clients").Int(flags.overload_clients);
    w.Key("overload_seconds").Double(flags.overload_seconds);
    w.Key("seed").Uint(flags.seed);
  });
  report.Metrics([&](strip::JsonWriter& w) {
    w.Key("client").BeginObject();
    w.Key("ops").Uint(lat.size());
    w.Key("feed_batches").Uint(total.feed_batches);
    w.Key("feed_records").Uint(total.feed_records);
    w.Key("execs").Uint(total.execs);
    w.Key("aborted").Uint(total.aborted);
    w.Key("errors").Uint(total.errors);
    w.Key("p50_us").Double(p50);
    w.Key("p95_us").Double(p95);
    w.Key("p99_us").Double(p99);
    w.Key("last_lsn").Uint(total.last_lsn);
    w.EndObject();
    w.Key("shed").BeginObject();
    w.Key("requests_shed").Uint(total.shed + overload_shed);
    w.Key("sessions_refused").Uint(total.refused + overload_refused);
    w.Key("overload_batches_admitted").Uint(overload_ok);
    w.Key("exercised")
        .Bool(overload_shed + overload_refused + total.shed > 0);
    w.EndObject();
    w.Key("health").Raw(health->body);
    w.Key("registry").Raw(metrics->body);
  });
  if (!report.WriteFile(flags.out)) {
    std::fprintf(stderr, "cannot write %s\n", flags.out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", flags.out.c_str());
  return 0;
}
