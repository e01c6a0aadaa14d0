// server_feed: an in-process strip_server serving its demo schema (a
// `quotes` feed table and the `quote_stats` view kept by generated delta
// rules with a 0.2 s window) under an open-loop load from three
// connections of this process:
//
//   feeder   FeedAppend batches of 8 quotes over 4096 symbols at a fixed
//            rate; each batch is timed from when it was due to its durable
//            ack, so a stall also counts against the batches queued behind
//            it;
//   reader   prepared point reads of quote_stats at a fixed rate, never
//            retried: a wait-die abort or any error reply is a failed read;
//   prober   every 20 ms stamps a marked price on one of 256 probe symbols
//            and polls quote_stats every 5 ms until the mark shows.
//
// A fourth thread calls Server::Checkpoint() at fixed offsets, so every
// run of one length takes the same number of checkpoints. The WAL syncs
// once per FeedAppend batch (WalSyncPolicy::kManual) into a fresh
// directory under the work directory.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/vfs.h>
#include <unistd.h>

#include "strip/common/rng.h"
#include "strip/common/string_util.h"
#include "strip/durability/wal.h"
#include "strip/feed/feed.h"
#include "strip/feed/framing.h"
#include "strip/feed/wire.h"
#include "strip/net/client.h"
#include "strip/net/protocol.h"
#include "strip/net/server.h"
#include "strip/viewmaint/rule_gen.h"
#include "workloads.h"

namespace perfbench {

using strip::Client;
using strip::FeedRecord;
using strip::Status;
using strip::StrFormat;
using strip::Value;

namespace {

// tools/strip_server's demo schema, unchanged.
constexpr const char* kDemoSchema = R"(
  create table quotes (symbol string, price double);
  create index on quotes (symbol);
  create materialized view quote_stats as
    select symbol, sum(price) as total, count(*) as n
    from quotes group by symbol;
)";

constexpr double kDelaySeconds = 0.2;
constexpr int kWorkers = 2;
constexpr int kSymbols = 4096;
constexpr int kProbeSymbols = 256;
constexpr int kBatch = 8;
// Offered load: about half the rate at which view maintenance stops
// keeping up (README.md, "Offered rates").
constexpr double kBatchesPerSecond = 250;
constexpr double kReadsPerSecond = 500;
constexpr int64_t kProbeTickNs = 5'000'000;  // poll period
constexpr int kTicksPerStamp = 4;            // one stamp per 20 ms
constexpr double kCheckpointEverySeconds = 2.5;

const char* const kReadSql =
    "select total, n from quote_stats where symbol = ?";
const char* const kProbeSql =
    "select symbol, total from quote_stats where symbol < ?";

std::string Sym(int i) { return StrFormat("s%04d", i); }
std::string ProbeSym(int i) { return StrFormat("p%03d", i); }

/// Prices are multiples of 1/16, so the view's delta arithmetic is exact.
double Price(strip::Rng& rng) {
  return static_cast<double>(160 + rng.UniformInt(0, 8000)) / 16.0;
}

struct Fixture {
  std::string dir;
  std::unique_ptr<strip::Server> server;
  std::unique_ptr<Client> feeder, reader, prober;
  uint64_t read_handle = 0, probe_handle = 0;
  std::shared_ptr<std::string> delta_fn = std::make_shared<std::string>();
  /// Guards the acked-feed model below (feeder and prober both ack).
  std::mutex mu;
  /// Last acked price per symbol (feeder and probe symbols are disjoint,
  /// so each symbol's order is one connection's order).
  std::map<std::string, double> shadow;
  uint64_t records_acked = 0;
  uint64_t max_lsn = 0;
  uint64_t feeder_lsn = 0, prober_lsn = 0;  // per-connection last ack
};

/// Folds one acked batch into the model. Acks on one connection must carry
/// strictly rising LSNs (`conn_lsn` is that connection's last one).
Status AckInto(Fixture& f, const std::vector<FeedRecord>& batch, uint64_t lsn,
               uint64_t* conn_lsn) {
  if (lsn <= *conn_lsn) {
    return Status::Internal(StrFormat(
        "ack lsn %llu after %llu", static_cast<unsigned long long>(lsn),
        static_cast<unsigned long long>(*conn_lsn)));
  }
  *conn_lsn = lsn;
  std::lock_guard<std::mutex> lk(f.mu);
  f.max_lsn = std::max(f.max_lsn, lsn);
  f.records_acked += batch.size();
  for (const FeedRecord& r : batch) {
    f.shadow[r.values[0].as_string()] = r.values[1].as_double();
  }
  return Status::OK();
}

Status SetUp(const RunConfig& cfg, int index, Fixture* f) {
  f->dir = cfg.work_dir + StrFormat("/server-%d-%d", static_cast<int>(getpid()),
                                    index);
  std::error_code ec;
  std::filesystem::remove_all(f->dir, ec);
  std::filesystem::create_directories(f->dir, ec);
  if (ec) return Status::Internal("cannot create " + f->dir);

  strip::ServerOptions o;
  o.port = 0;
  o.schema_sql = kDemoSchema;
  o.feed_tables = {"quotes"};
  o.data_dir = f->dir;
  o.sync = strip::WalSyncPolicy::kManual;
  o.checkpoint_wal_bytes = 0;
  o.engine.num_workers = kWorkers;
  o.watchdog_period_seconds = 0;  // watchdog off: no admission control
  std::shared_ptr<std::string> fn = f->delta_fn;
  o.bootstrap = [fn](strip::Database& db) -> Status {
    strip::RuleGenOptions gen;
    gen.delay_seconds = kDelaySeconds;
    STRIP_ASSIGN_OR_RETURN(
        strip::GeneratedRule rule,
        strip::GenerateMaintenanceRule(db, "quote_stats", "quotes", gen));
    *fn = rule.function_name;
    return Status::OK();
  };
  STRIP_ASSIGN_OR_RETURN(f->server, strip::Server::Start(std::move(o)));
  uint16_t port = f->server->port();
  STRIP_ASSIGN_OR_RETURN(f->feeder, Client::Connect("127.0.0.1", port,
                                                    strip::SessionPriority::kNormal,
                                                    "feeder"));
  STRIP_ASSIGN_OR_RETURN(f->reader, Client::Connect("127.0.0.1", port,
                                                    strip::SessionPriority::kNormal,
                                                    "reader"));
  STRIP_ASSIGN_OR_RETURN(f->prober, Client::Connect("127.0.0.1", port,
                                                    strip::SessionPriority::kNormal,
                                                    "prober"));
  STRIP_ASSIGN_OR_RETURN(strip::PrepareResponse rp,
                         f->reader->Prepare(kReadSql));
  f->read_handle = rp.handle;
  STRIP_ASSIGN_OR_RETURN(strip::PrepareResponse pp,
                         f->prober->Prepare(kProbeSql));
  f->probe_handle = pp.handle;

  // Every symbol gets its first quote before measuring, so reads always
  // find their row and the measured feed is all updates.
  strip::Rng rng(cfg.seed ^ 0x5eedf00dull);
  std::vector<FeedRecord> batch;
  auto flush = [&]() -> Status {
    STRIP_ASSIGN_OR_RETURN(strip::FeedAppendResponse ack,
                           f->feeder->FeedAppend("quotes", batch));
    STRIP_RETURN_IF_ERROR(AckInto(*f, batch, ack.lsn, &f->feeder_lsn));
    batch.clear();
    return Status::OK();
  };
  for (int i = 0; i < kSymbols + kProbeSymbols; ++i) {
    FeedRecord r;
    r.values = {Value::Str(i < kSymbols ? Sym(i) : ProbeSym(i - kSymbols)),
                Value::Double(Price(rng))};
    batch.push_back(std::move(r));
    if (batch.size() == 256) STRIP_RETURN_IF_ERROR(flush());
  }
  if (!batch.empty()) STRIP_RETURN_IF_ERROR(flush());
  return Status::OK();
}

void TearDown(Fixture* f) {
  f->feeder.reset();
  f->reader.reset();
  f->prober.reset();
  if (f->server) f->server->Stop();
  f->server.reset();
  std::error_code ec;
  std::filesystem::remove_all(f->dir, ec);
}

struct FeedSample {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t acked = 0;
  bool ok = false;
};

struct ReadSample {
  int64_t due = 0;
  int64_t done = 0;
  int code = 0;  // 0 = ok, else StatusCode (+100 = wrong row count)
};

struct StalenessSample {
  int64_t stamped = 0;
  int64_t seen = 0;
};

/// Everything the generator threads record; each thread owns its vectors.
struct Load {
  int64_t start = 0;     // warm-up begins
  int64_t measure = 0;   // measured phase begins
  int64_t end = 0;       // measured phase ends
  std::vector<FeedSample> feeds;
  std::vector<std::vector<FeedRecord>> sent_batches;  // first 1000, for probes
  std::vector<ReadSample> reads;
  std::vector<ReadSample> polls;
  std::vector<StalenessSample> staleness;
  uint64_t stamps = 0, stamps_failed = 0;
  std::vector<double> checkpoint_ms;
  Status feeder_status, prober_status, checkpoint_status;
};

void RunFeeder(const RunConfig& cfg, Fixture& f, Load& load,
               SpanRecorder::Buffer* spans) {
  strip::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 1);
  const double period = 1e9 / kBatchesPerSecond;
  for (uint64_t i = 0;; ++i) {
    int64_t due = load.start + static_cast<int64_t>(static_cast<double>(i) *
                                                    period);
    if (due >= load.end) break;
    std::vector<FeedRecord> batch;
    batch.reserve(kBatch);
    for (int k = 0; k < kBatch; ++k) {
      FeedRecord r;
      r.values = {Value::Str(Sym(static_cast<int>(rng.UniformInt(0, kSymbols - 1)))),
                  Value::Double(Price(rng))};
      batch.push_back(std::move(r));
    }
    SleepUntil(due);
    FeedSample s;
    s.due = due;
    s.sent = NowNanos();
    strip::Result<strip::FeedAppendResponse> ack = Status::Internal("unsent");
    {
      ScopedSpan span(spans, "net.feed_append", i + 1);
      ack = f.feeder->FeedAppend("quotes", batch);
    }
    s.acked = NowNanos();
    s.ok = ack.ok();
    if (ack.ok()) {
      Status st = AckInto(f, batch, ack->lsn, &f.feeder_lsn);
      if (!st.ok() && load.feeder_status.ok()) load.feeder_status = st;
    } else if (load.feeder_status.ok()) {
      load.feeder_status = ack.status();
    }
    load.feeds.push_back(s);
    if (load.sent_batches.size() < 1000) load.sent_batches.push_back(batch);
  }
}

void RunReader(const RunConfig& cfg, Fixture& f, Load& load,
               SpanRecorder::Buffer* spans) {
  strip::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 2);
  const double period = 1e9 / kReadsPerSecond;
  for (uint64_t i = 0;; ++i) {
    int64_t due = load.start + static_cast<int64_t>(static_cast<double>(i) *
                                                    period);
    if (due >= load.end) break;
    Value sym = Value::Str(Sym(static_cast<int>(rng.UniformInt(0, kSymbols - 1))));
    SleepUntil(due);
    ReadSample s;
    s.due = due;
    strip::Result<strip::ExecResponse> r = Status::Internal("unsent");
    {
      ScopedSpan span(spans, "net.point_read", i + 1);
      r = f.reader->Exec(f.read_handle, {sym});
    }
    s.done = NowNanos();
    if (!r.ok()) {
      s.code = static_cast<int>(r.status().code());
    } else if (r->rows.size() != 1) {
      s.code = 100;  // every symbol was preloaded: a missing row is wrong
    }
    load.reads.push_back(s);
  }
}

void RunProber(Fixture& f, Load& load, SpanRecorder::Buffer* spans) {
  struct Pending {
    std::string symbol;
    double mark;
    int64_t stamped;
  };
  std::vector<Pending> pending;
  uint64_t seq = 0;
  const Value bound = Value::Str("q");  // probe symbols sort below "q"
  for (uint64_t tick = 0;; ++tick) {
    int64_t due = load.start + static_cast<int64_t>(tick) * kProbeTickNs;
    if (due >= load.end) break;
    SleepUntil(due);
    if (tick % kTicksPerStamp == 0) {
      ++seq;
      Pending p{ProbeSym(static_cast<int>(seq % kProbeSymbols)),
                // Unique, exact marks well outside the feeder's range.
                100000.0 + static_cast<double>(seq), due};
      FeedRecord r;
      r.values = {Value::Str(p.symbol), Value::Double(p.mark)};
      std::vector<FeedRecord> batch = {r};
      strip::Result<strip::FeedAppendResponse> ack = Status::Internal("unsent");
      {
        ScopedSpan span(spans, "net.probe_stamp", seq);
        ack = f.prober->FeedAppend("quotes", batch);
      }
      ++load.stamps;
      if (ack.ok()) {
        Status st = AckInto(f, batch, ack->lsn, &f.prober_lsn);
        if (!st.ok() && load.prober_status.ok()) load.prober_status = st;
        pending.push_back(p);
      } else {
        ++load.stamps_failed;
        if (load.prober_status.ok()) load.prober_status = ack.status();
      }
    }
    if (pending.empty()) continue;
    ReadSample s;
    s.due = NowNanos();
    strip::Result<strip::ExecResponse> r = Status::Internal("unsent");
    {
      ScopedSpan span(spans, "net.probe_poll", tick + 1);
      r = f.prober->Exec(f.probe_handle, {bound});
    }
    s.done = NowNanos();
    if (!r.ok()) {
      s.code = static_cast<int>(r.status().code());
      load.polls.push_back(s);
      continue;
    }
    load.polls.push_back(s);
    std::map<std::string, double> seen;
    for (const auto& row : r->rows) {
      seen[row[0].as_string()] = row[1].as_double();
    }
    std::vector<Pending> still;
    for (const Pending& p : pending) {
      auto it = seen.find(p.symbol);
      if (it != seen.end() && it->second == p.mark) {
        load.staleness.push_back({p.stamped, s.done});
      } else {
        still.push_back(p);
      }
    }
    pending.swap(still);
  }
}

/// Sums a quote_stats-shaped result into symbol -> (total, n).
using StatsMap = std::map<std::string, std::pair<double, int64_t>>;

Status CheckFinalState(Fixture& f) {
  strip::Database& db = f.server->db();
  STRIP_ASSIGN_OR_RETURN(strip::ResultSet view,
                         db.Execute("select symbol, total, n from quote_stats"));
  STRIP_ASSIGN_OR_RETURN(
      strip::ResultSet want,
      db.Execute("select symbol, sum(price) as total, count(*) as n "
                 "from quotes group by symbol"));
  STRIP_ASSIGN_OR_RETURN(strip::ResultSet quotes,
                         db.Execute("select symbol, price from quotes"));
  auto to_map = [](const strip::ResultSet& rs) {
    StatsMap m;
    for (const auto& row : rs.rows) {
      m[row[0].as_string()] = {row[1].as_double(), row[2].as_int()};
    }
    return m;
  };
  StatsMap v = to_map(view), w = to_map(want);
  if (v != w) {
    return Status::Internal(StrFormat(
        "quote_stats (%zu rows) differs from a recompute over quotes "
        "(%zu rows)", v.size(), w.size()));
  }
  std::map<std::string, double> q;
  for (const auto& row : quotes.rows) q[row[0].as_string()] = row[1].as_double();
  if (q != f.shadow) {
    return Status::Internal("quotes differs from the acked feed");
  }
  // LSNs start at 1 and rise by one per record, across checkpoints.
  if (f.max_lsn != f.records_acked) {
    return Status::Internal(StrFormat(
        "last ack lsn %llu but %llu records acked",
        static_cast<unsigned long long>(f.max_lsn),
        static_cast<unsigned long long>(f.records_acked)));
  }
  return Status::OK();
}

double Percentile(const strip::Histogram* h, double q) {
  return h == nullptr ? 0 : h->Percentile(q);
}

std::string FsType(const std::string& dir) {
  struct statfs s {};
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: return StrFormat("0x%lx", static_cast<unsigned long>(s.f_type));
  }
}

/// The feed and durability layer probes, on this run's own batches.
Status ProbeFeedLayers(const RunConfig& cfg, const Load& load,
                       WorkloadResult* out) {
  const auto& batches = load.sent_batches;
  if (batches.empty()) return Status::Internal("no batches to probe");
  // Frame codec: FeedAppend payload -> v2 frame -> decode, per batch.
  std::vector<double> codec;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t t0 = NowNanos();
    uint64_t seq = 0;
    for (const auto& b : batches) {
      strip::FeedAppendRequest req;
      req.table = "quotes";
      req.records = b;
      strip::Frame frame;
      frame.type = strip::FrameType::kFeedAppend;
      frame.seq = ++seq;
      frame.payload = strip::Encode(req);
      std::string bytes = strip::EncodeFrame(frame);
      size_t offset = 0;
      strip::Frame decoded;
      std::string err;
      if (strip::TryDecodeFrame(bytes, &offset, &decoded, &err) !=
              strip::FrameDecode::kFrame ||
          !strip::DecodeFeedAppendRequest(decoded.payload).ok()) {
        return Status::Internal("frame round trip failed");
      }
    }
    codec.push_back(static_cast<double>(NowNanos() - t0) / 1e3 /
                    static_cast<double>(batches.size()));
  }
  Put(out->layer, "feed.frame_codec_us_per_batch", Median(codec), "us");

  std::string stream;
  size_t records = 0;
  for (const auto& b : batches) {
    for (const FeedRecord& r : b) {
      strip::AppendFeedRecord(r, &stream);
      ++records;
    }
  }
  std::vector<double> decode;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t t0 = NowNanos();
    size_t offset = 0;
    for (size_t i = 0; i < records; ++i) {
      if (!strip::DecodeFeedRecord(stream, &offset).ok()) {
        return Status::Internal("wire decode failed");
      }
    }
    decode.push_back(static_cast<double>(NowNanos() - t0) /
                     static_cast<double>(records));
  }
  Put(out->layer, "feed.wire_decode_ns_per_record", Median(decode), "ns");

  strip::Database db;
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(kDemoSchema));
  STRIP_ASSIGN_OR_RETURN(std::unique_ptr<strip::FeedImporter> importer,
                         strip::FeedImporter::Create(&db, "quotes"));
  std::vector<double> validate;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t t0 = NowNanos();
    for (const auto& b : batches) {
      for (const FeedRecord& r : b) {
        STRIP_RETURN_IF_ERROR(importer->Validate(r));
      }
    }
    validate.push_back(static_cast<double>(NowNanos() - t0) /
                       static_cast<double>(records));
  }
  Put(out->layer, "feed.validate_ns_per_record", Median(validate), "ns");

  // WAL append and sync on a benchmark-owned file, same batches, each
  // timed as one block: appends alone (one write per record, 2000 of
  // them), then append + sync per batch; the difference is the sync.
  std::string path = cfg.work_dir + StrFormat("/wal-probe-%d.log",
                                              static_cast<int>(getpid()));
  std::error_code ec;
  const size_t n = std::min<size_t>(batches.size(), 250);
  auto block = [&](bool sync, int64_t* ns) -> Status {
    std::filesystem::remove(path, ec);
    STRIP_ASSIGN_OR_RETURN(
        std::unique_ptr<strip::WalWriter> wal,
        strip::WalWriter::Open(path, 1, strip::WalSyncPolicy::kManual));
    int64_t t0 = NowNanos();
    for (size_t i = 0; i < n; ++i) {
      for (const FeedRecord& r : batches[i]) {
        STRIP_RETURN_IF_ERROR(wal->Append("quotes", r).status());
      }
      if (sync) STRIP_RETURN_IF_ERROR(wal->Sync());
    }
    *ns = NowNanos() - t0;
    return Status::OK();
  };
  int64_t append_ns = 0, both_ns = 0;
  STRIP_RETURN_IF_ERROR(block(false, &append_ns));
  STRIP_RETURN_IF_ERROR(block(true, &both_ns));
  Put(out->layer, "durability.wal_append_us_per_batch",
      static_cast<double>(append_ns) / 1e3 / static_cast<double>(n), "us");
  Put(out->layer, "durability.wal_sync_us",
      static_cast<double>(both_ns - append_ns) / 1e3 / static_cast<double>(n),
      "us");
  std::filesystem::remove(path, ec);
  return Status::OK();
}

}  // namespace

Status RunServerFeed(const RunConfig& cfg, WorkloadResult* out) {
  SpanRecorder::Buffer* feeder_spans =
      cfg.spans ? cfg.spans->NewBuffer() : nullptr;
  SpanRecorder::Buffer* reader_spans =
      cfg.spans ? cfg.spans->NewBuffer() : nullptr;
  SpanRecorder::Buffer* prober_spans =
      cfg.spans ? cfg.spans->NewBuffer() : nullptr;
  SpanRecorder::Buffer* admin_spans =
      cfg.spans ? cfg.spans->NewBuffer() : nullptr;

  // Three set-ups (start, connect, prepare, preload); the last one runs.
  const int setups = cfg.brief ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < setups; ++i) {
    if (fixture) TearDown(fixture.get());
    fixture = std::make_unique<Fixture>();
    int64_t s0 = NowNanos();
    Status st = SetUp(cfg, i, fixture.get());
    setup_s.push_back(static_cast<double>(NowNanos() - s0) / 1e9);
    if (!st.ok()) {
      TearDown(fixture.get());
      return st;
    }
  }
  Fixture& f = *fixture;
  std::string fs = FsType(f.dir);

  const double warmup_s = cfg.brief ? 0.5 : 1.0;
  const int checkpoints = std::max(
      1, static_cast<int>(cfg.seconds / kCheckpointEverySeconds + 0.5) - 1);
  Load load;
  load.start = NowNanos() + 20'000'000;
  load.measure = load.start + static_cast<int64_t>(warmup_s * 1e9);
  load.end = load.measure + static_cast<int64_t>(cfg.seconds * 1e9);
  load.feeds.reserve(static_cast<size_t>((warmup_s + cfg.seconds) *
                                         kBatchesPerSecond) + 16);
  load.reads.reserve(static_cast<size_t>((warmup_s + cfg.seconds) *
                                         kReadsPerSecond) + 16);

  strip::MetricsRegistry& m = f.server->db().metrics();
  auto counter = [&m](const std::string& name) -> double {
    auto c = m.CounterValues();
    auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto gauge = [&m](const std::string& name) -> double {
    auto g = m.GaugeValues();
    auto it = g.find(name);
    return it == g.end() ? 0.0 : it->second;
  };

  double busy0 = 0, cpu0 = 0, ckpt0 = 0;
  std::thread feeder([&] { RunFeeder(cfg, f, load, feeder_spans); });
  std::thread reader([&] { RunReader(cfg, f, load, reader_spans); });
  std::thread prober([&] { RunProber(f, load, prober_spans); });
  std::thread admin([&] {
    SleepUntil(load.measure);
    busy0 = gauge("executor.busy_micros");
    ckpt0 = counter("server.checkpoints");
    cpu0 = ProcessCpuSeconds();
    for (int k = 1; k <= checkpoints; ++k) {
      SleepUntil(load.measure + static_cast<int64_t>(
                                    cfg.seconds * 1e9 * k / (checkpoints + 1)));
      int64_t t0 = NowNanos();
      strip::Result<uint64_t> lsn = Status::Internal("unset");
      {
        ScopedSpan span(admin_spans, "durability.checkpoint",
                        static_cast<uint64_t>(k));
        lsn = f.server->Checkpoint();
      }
      load.checkpoint_ms.push_back(static_cast<double>(NowNanos() - t0) / 1e6);
      if (!lsn.ok() && load.checkpoint_status.ok()) {
        load.checkpoint_status = lsn.status();
      }
    }
  });
  feeder.join();
  reader.join();
  prober.join();
  admin.join();
  const double measured_s = static_cast<double>(NowNanos() - load.measure) / 1e9;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const double busy_us = gauge("executor.busy_micros") - busy0;
  const double checkpoints_taken = counter("server.checkpoints") - ckpt0;

  Status st = load.feeder_status;
  if (st.ok()) st = load.prober_status;
  if (st.ok()) st = load.checkpoint_status;
  if (st.ok()) {
    // Final drain, then the correctness gate.
    strip::Result<strip::AdminResponse> drained =
        f.feeder->Admin(strip::AdminOp::kDrain);
    st = drained.ok() ? CheckFinalState(f) : drained.status();
  }
  if (!st.ok()) {
    TearDown(&f);
    return st;
  }

  // --- end-to-end figures over the measured phase -----------------------
  std::vector<double> ack_ms, late_ms;
  uint64_t feeds = 0, feeds_failed = 0, quotes_acked = 0;
  for (const FeedSample& s : load.feeds) {
    if (s.due < load.measure) continue;
    ++feeds;
    if (!s.ok) {
      ++feeds_failed;
      continue;
    }
    quotes_acked += kBatch;
    ack_ms.push_back(static_cast<double>(s.acked - s.due) / 1e6);
    late_ms.push_back(static_cast<double>(s.sent - s.due) / 1e6);
  }
  for (const StalenessSample& s : load.staleness) {
    if (s.stamped >= load.measure) ++quotes_acked;  // probe marks are quotes
  }
  std::vector<double> read_ms;
  uint64_t reads = 0, reads_failed = 0, reads_aborted = 0;
  for (const ReadSample& s : load.reads) {
    if (s.due < load.measure) continue;
    ++reads;
    if (s.code != 0) {
      ++reads_failed;
      if (s.code == static_cast<int>(strip::StatusCode::kAborted)) {
        ++reads_aborted;
      }
      continue;
    }
    read_ms.push_back(static_cast<double>(s.done - s.due) / 1e6);
  }
  uint64_t polls = 0, polls_failed = 0;
  for (const ReadSample& s : load.polls) {
    if (s.due < load.measure) continue;
    ++polls;
    if (s.code != 0) ++polls_failed;
  }
  std::vector<double> stale_ms;
  for (const StalenessSample& s : load.staleness) {
    if (s.stamped >= load.measure) {
      stale_ms.push_back(static_cast<double>(s.seen - s.stamped) / 1e6);
    }
  }
  if (ack_ms.empty() || read_ms.empty() || stale_ms.empty()) {
    TearDown(&f);
    return Status::Internal("server_feed measured no acks, reads or marks");
  }
  // The named percentiles: ack p99 always, read and staleness p95 when
  // traced (they are per-layer figures).
  if (!cfg.brief &&
      (!EnoughBeyond(ack_ms.size(), 0.99) ||
       (cfg.spans != nullptr && (!EnoughBeyond(read_ms.size(), 0.95) ||
                                 !EnoughBeyond(stale_ms.size(), 0.95))))) {
    TearDown(&f);
    return Status::Internal(StrFormat(
        "too few samples for the named percentiles: %zu acks, %zu reads, "
        "%zu marks",
        ack_ms.size(), read_ms.size(), stale_ms.size()));
  }

  Put(out->e2e, "setup_s", Median(setup_s), "s");
  Put(out->e2e, "ops_per_s", static_cast<double>(quotes_acked) / measured_s,
      "1/s");
  Put(out->e2e, "cpu_us_per_op",
      cpu_s * 1e6 / static_cast<double>(quotes_acked), "us");
  Put(out->e2e, "p50_ms", Quantile(ack_ms, 0.5), "ms");
  Put(out->e2e, "tail_ms", Quantile(ack_ms, 0.99), "ms");
  out->attempted = feeds;
  out->failed = feeds_failed;
  const double read_fail_share =
      static_cast<double>(reads_failed) / static_cast<double>(reads);
  out->notes.push_back(StrFormat(
      "server_feed: WAL on %s, one fdatasync per FeedAppend batch; offered "
      "%.0f batches/s x %d quotes, %.0f reads/s; %d checkpoints",
      fs.c_str(), kBatchesPerSecond, kBatch, kReadsPerSecond,
      static_cast<int>(checkpoints_taken)));
  out->notes.push_back(StrFormat(
      "server_feed op classes: feed_append attempted %llu failed %llu; "
      "point_read attempted %llu failed %llu (wait-die %llu, share %.4f); "
      "probe_stamp attempted %llu failed %llu; probe_poll attempted %llu "
      "failed %llu",
      static_cast<unsigned long long>(feeds),
      static_cast<unsigned long long>(feeds_failed),
      static_cast<unsigned long long>(reads),
      static_cast<unsigned long long>(reads_failed),
      static_cast<unsigned long long>(reads_aborted), read_fail_share,
      static_cast<unsigned long long>(load.stamps),
      static_cast<unsigned long long>(load.stamps_failed),
      static_cast<unsigned long long>(polls),
      static_cast<unsigned long long>(polls_failed)));
  out->notes.push_back(StrFormat(
      "server_feed: ack p50 %.2f p99 %.2f ms (%zu); read p50 %.2f p95 %.2f "
      "ms (%zu ok); staleness p50 %.1f p95 %.1f ms (%zu marks); generator "
      "lateness p99 %.2f ms; checkpoint max %.1f ms; engine workers "
      "%.0f%% busy",
      Quantile(ack_ms, 0.5), Quantile(ack_ms, 0.99), ack_ms.size(),
      Quantile(read_ms, 0.5), Quantile(read_ms, 0.95), read_ms.size(),
      Quantile(stale_ms, 0.5), Quantile(stale_ms, 0.95), stale_ms.size(),
      Quantile(late_ms, 0.99),
      *std::max_element(load.checkpoint_ms.begin(), load.checkpoint_ms.end()),
      100 * busy_us / (measured_s * 1e6 * kWorkers)));

  if (cfg.spans != nullptr) {
    const strip::Histogram* req = m.FindHistogram("server.request_us");
    Put(out->layer, "net.server_request_us_p50", Percentile(req, 0.5), "us");
    Put(out->layer, "net.server_request_us_p99", Percentile(req, 0.99), "us");
    Put(out->layer, "net.backpressure_pauses",
        counter("server.backpressure_pauses"), "count");
    Put(out->layer, "durability.checkpoint_ms_p50",
        Median(load.checkpoint_ms), "ms");
    Put(out->layer, "durability.checkpoint_ms_max",
        *std::max_element(load.checkpoint_ms.begin(), load.checkpoint_ms.end()),
        "ms");
    Put(out->layer, "durability.checkpoints", checkpoints_taken, "count");
    Put(out->layer, "txn.read_abort_share",
        static_cast<double>(reads_aborted) / static_cast<double>(reads),
        "ratio");
    const double aborts = gauge("locks.wait_die_aborts");
    Put(out->layer, "txn.wait_die_aborts", aborts, "count");
    Put(out->layer, "txn.aborts_per_commit",
        aborts / std::max(1.0, counter("txn.commits")), "ratio");
    Put(out->layer, "txn.lock_wait_ms", gauge("locks.wait_micros") / 1e3,
        "ms");
    Put(out->layer, "txn.queue_wait_us_p99",
        Percentile(m.FindHistogram("task.queue_wait_us"), 0.99), "us");
    Put(out->layer, "txn.executor_busy_share.server_feed",
        busy_us / (measured_s * 1e6 * kWorkers), "ratio");
    const std::string& fn = *f.delta_fn;
    Put(out->layer, "viewmaint.delta_exec_us_p50.server_feed",
        Percentile(m.FindHistogram("rules.exec_us." + fn), 0.5), "us");
    const double firings =
        gauge("rules.tasks_created") + gauge("rules.firings_merged");
    Put(out->layer, "viewmaint.deltas_folded_per_firing",
        counter("rules.cost.deltas_folded." + fn) / std::max(1.0, firings),
        "ratio");
    Put(out->layer, "viewmaint.engine_staleness_us_p95",
        Percentile(m.FindHistogram("rules.staleness_us." + fn), 0.95), "us");
    Put(out->layer, "server_feed.read_p50_ms", Quantile(read_ms, 0.5), "ms");
    Put(out->layer, "server_feed.read_p95_ms", Quantile(read_ms, 0.95), "ms");
    Put(out->layer, "server_feed.read_fail_share", read_fail_share, "ratio");
    Put(out->layer, "server_feed.staleness_p50_ms", Quantile(stale_ms, 0.5),
        "ms");
    Put(out->layer, "server_feed.staleness_p95_ms", Quantile(stale_ms, 0.95),
        "ms");

    // WAL bytes per quote, exactly: checkpoint (empties the WAL), append
    // a known number of the run's batches, read the WAL size.
    Status wal = f.server->Checkpoint().status();
    const size_t n = std::min<size_t>(load.sent_batches.size(), 100);
    uint64_t recs = 0;
    for (size_t i = 0; wal.ok() && i < n; ++i) {
      auto ack = f.feeder->FeedAppend("quotes", load.sent_batches[i]);
      wal = ack.ok() ? AckInto(f, load.sent_batches[i], ack->lsn,
                               &f.feeder_lsn)
                     : ack.status();
      recs += load.sent_batches[i].size();
    }
    if (wal.ok()) {
      Put(out->layer, "durability.wal_bytes_per_quote",
          gauge("server.wal_bytes") / static_cast<double>(recs), "bytes");
    }
    if (wal.ok()) wal = ProbeFeedLayers(cfg, load, out);
    if (wal.ok() && !cfg.brief) {
      std::string path = cfg.work_dir + "/registry-server_feed.json";
      FILE* file = std::fopen(path.c_str(), "w");
      if (file != nullptr) {
        std::fputs(m.SnapshotJson().c_str(), file);
        std::fclose(file);
      }
    }
    if (!wal.ok()) {
      TearDown(&f);
      return wal;
    }
  }
  TearDown(&f);
  return Status::OK();
}

}  // namespace perfbench
