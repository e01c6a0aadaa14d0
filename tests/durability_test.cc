// Durability layer (durability/): the replayable feed WAL, the checkpoint
// snapshot, and the DurableLog recovery procedure that makes a restarted
// server equal to the one that crashed. The torn-tail sweep is the heart
// of it: a kill -9 can cut the log at ANY byte, and every cut must recover
// cleanly to exactly the acknowledged prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "strip/common/byteio.h"
#include "strip/common/crc32.h"
#include "strip/common/logging.h"
#include "strip/durability/durable_log.h"
#include "strip/durability/snapshot.h"
#include "strip/durability/wal.h"
#include "strip/feed/wire.h"
#include "strip/viewmaint/rule_gen.h"
#include "tests/test_util.h"

namespace strip {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "strip_durability_XXXXXX").string();
    const char* made = ::mkdtemp(tmpl.data());
    STRIP_CHECK_MSG(made != nullptr, "mkdtemp failed");
    dir_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const std::string& name = "") const {
    return name.empty() ? dir_ : dir_ + "/" + name;
  }

 private:
  std::string dir_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

FeedRecord Rec(const std::string& sym, double px) {
  FeedRecord r;
  r.values = {Value::Str(sym), Value::Double(px)};
  return r;
}

// Size of one WAL entry: fixed header (magic + lsn + len + crc) plus the
// length-prefixed table name plus the wire-v1 record.
size_t EntryBytes(const std::string& table, const FeedRecord& rec) {
  return 20 + 4 + table.size() + EncodeFeedRecord(rec).size();
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

TEST(WalTest, RoundTripReplaysEveryEntryInOrder) {
  TempDir dir;
  std::string path = dir.path("feed.wal");
  std::vector<FeedRecord> sent = {Rec("ibm", 50.0), Rec("hp", 20.5),
                                  Rec("ibm", 51.0)};
  {
    ASSERT_OK_AND_ASSIGN(auto wal,
                         WalWriter::Open(path, 1, WalSyncPolicy::kManual));
    for (size_t i = 0; i < sent.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal->Append("quotes", sent[i]));
      EXPECT_EQ(lsn, i + 1);
    }
    ASSERT_OK(wal->Sync());
    EXPECT_EQ(wal->next_lsn(), 4u);
  }

  std::vector<WalEntry> got;
  ASSERT_OK_AND_ASSIGN(WalReplayResult r,
                       WalReplay(path, 1, [&](const WalEntry& e) {
                         got.push_back(e);
                         return Status::OK();
                       }));
  EXPECT_EQ(r.entries_replayed, 3u);
  EXPECT_EQ(r.next_lsn, 4u);
  EXPECT_EQ(r.torn_bytes, 0u);
  ASSERT_EQ(got.size(), 3u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].lsn, i + 1);
    EXPECT_EQ(got[i].table, "quotes");
    ASSERT_EQ(got[i].record.values.size(), 2u);
    EXPECT_EQ(got[i].record.values[0], sent[i].values[0]);
    EXPECT_EQ(got[i].record.values[1], sent[i].values[1]);
  }
}

TEST(WalTest, ReplayFromLsnDeliversOnlyTheTail) {
  TempDir dir;
  std::string path = dir.path("feed.wal");
  {
    ASSERT_OK_AND_ASSIGN(auto wal,
                         WalWriter::Open(path, 1, WalSyncPolicy::kManual));
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK(wal->Append("quotes", Rec("s", i)).status());
    }
    ASSERT_OK(wal->Sync());
  }
  std::vector<uint64_t> lsns;
  ASSERT_OK_AND_ASSIGN(WalReplayResult r,
                       WalReplay(path, 4, [&](const WalEntry& e) {
                         lsns.push_back(e.lsn);
                         return Status::OK();
                       }));
  // Entries 1..3 are snapshot-covered: still verified, not delivered.
  EXPECT_EQ(lsns, (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(r.entries_replayed, 2u);
  EXPECT_EQ(r.next_lsn, 6u);
}

TEST(WalTest, MissingFileIsAnEmptyLog) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(
      WalReplayResult r,
      WalReplay(dir.path("absent.wal"), 1,
                [](const WalEntry&) { return Status::OK(); }));
  EXPECT_EQ(r.entries_replayed, 0u);
  EXPECT_EQ(r.next_lsn, 1u);
  EXPECT_EQ(r.valid_bytes, 0u);
}

// Satellite sweep at the WAL layer: truncate a 3-entry log at EVERY byte
// offset. Each cut must replay exactly the whole entries before the cut
// and report the rest as a torn tail — never an error, never a crash.
TEST(WalTest, TornTailTruncationSweepRecoversThePrefix) {
  TempDir dir;
  std::string path = dir.path("feed.wal");
  std::vector<FeedRecord> sent = {Rec("ibm", 50.0), Rec("hp", 20.5),
                                  Rec("sun", 13.125)};
  std::vector<size_t> boundaries = {0};
  {
    ASSERT_OK_AND_ASSIGN(auto wal,
                         WalWriter::Open(path, 1, WalSyncPolicy::kManual));
    for (const FeedRecord& rec : sent) {
      ASSERT_OK(wal->Append("quotes", rec).status());
      boundaries.push_back(boundaries.back() + EntryBytes("quotes", rec));
    }
    ASSERT_OK(wal->Sync());
  }
  std::string full = ReadFile(path);
  ASSERT_EQ(full.size(), boundaries.back());

  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::string torn_path = dir.path("torn.wal");
    WriteFile(torn_path, full.substr(0, cut));
    uint64_t delivered = 0;
    auto r = WalReplay(torn_path, 1, [&](const WalEntry&) {
      ++delivered;
      return Status::OK();
    });
    ASSERT_TRUE(r.ok()) << "cut at " << cut << ": " << r.status().ToString();
    size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(delivered, whole) << "cut at " << cut;
    EXPECT_EQ(r->valid_bytes, boundaries[whole]) << "cut at " << cut;
    EXPECT_EQ(r->torn_bytes, cut - boundaries[whole]) << "cut at " << cut;
    EXPECT_EQ(r->next_lsn, whole + 1) << "cut at " << cut;
  }
}

// REVIEW fix (medium): the group-commit rollback. A batch whose append or
// sync failed midway is truncated back out of the log, and appends after
// the rollback replay as if the batch never happened.
TEST(WalTest, TruncateToRollsBackAndAppendsContinueCleanly) {
  TempDir dir;
  std::string path = dir.path("feed.wal");
  ASSERT_OK_AND_ASSIGN(auto wal,
                       WalWriter::Open(path, 1, WalSyncPolicy::kManual));
  ASSERT_OK(wal->Append("quotes", Rec("ibm", 1.0)).status());
  ASSERT_OK(wal->Append("quotes", Rec("hp", 2.0)).status());
  uint64_t pre_bytes = wal->size_bytes();
  uint64_t pre_lsn = wal->next_lsn();

  // A "batch" of two more entries that the server then decides to abort.
  ASSERT_OK(wal->Append("quotes", Rec("sun", 3.0)).status());
  ASSERT_OK(wal->Append("quotes", Rec("dec", 4.0)).status());
  ASSERT_OK(wal->TruncateTo(pre_bytes, pre_lsn));
  EXPECT_EQ(wal->size_bytes(), pre_bytes);
  EXPECT_EQ(wal->next_lsn(), pre_lsn);
  EXPECT_FALSE(wal->poisoned());

  // The next append reuses the rolled-back LSN and the file stays a
  // clean, gap-free chain.
  ASSERT_OK_AND_ASSIGN(uint64_t lsn, wal->Append("quotes", Rec("mips", 5.0)));
  EXPECT_EQ(lsn, pre_lsn);
  ASSERT_OK(wal->Sync());

  std::vector<std::string> syms;
  ASSERT_OK_AND_ASSIGN(WalReplayResult r,
                       WalReplay(path, 1, [&](const WalEntry& e) {
                         syms.push_back(e.record.values[0].as_string());
                         return Status::OK();
                       }));
  EXPECT_EQ(r.entries_replayed, 3u);
  EXPECT_EQ(r.torn_bytes, 0u);
  EXPECT_EQ(syms, (std::vector<std::string>{"ibm", "hp", "mips"}));
}

TEST(WalTest, InteriorCorruptionIsFatalNotATear) {
  TempDir dir;
  std::string path = dir.path("feed.wal");
  FeedRecord rec = Rec("ibm", 50.0);
  {
    ASSERT_OK_AND_ASSIGN(auto wal,
                         WalWriter::Open(path, 1, WalSyncPolicy::kManual));
    for (int i = 0; i < 3; ++i) {
      ASSERT_OK(wal->Append("quotes", rec).status());
    }
    ASSERT_OK(wal->Sync());
  }
  std::string full = ReadFile(path);
  size_t entry = EntryBytes("quotes", rec);
  auto replay = [&](const std::string& bytes) {
    WriteFile(path, bytes);
    return WalReplay(path, 1, [](const WalEntry&) { return Status::OK(); })
        .status();
  };

  // A CRC-breaking flip inside entry 1's payload, with entries 2 and 3
  // intact after it: acknowledged records follow the damage, so replay
  // must refuse rather than silently truncate them away.
  std::string flipped = full;
  flipped[20 + 5] = static_cast<char>(flipped[20 + 5] ^ 0x40);
  Status st = replay(flipped);
  EXPECT_FALSE(st.ok());

  // Entry 2's magic destroyed: detected as bad interior magic.
  std::string bad_magic = full;
  bad_magic[entry] = 'Z';
  EXPECT_FALSE(replay(bad_magic).ok());

  // Control: the same flip in the LAST entry is a legitimate tear.
  std::string torn_last = full;
  torn_last[2 * entry + 20 + 5] =
      static_cast<char>(torn_last[2 * entry + 20 + 5] ^ 0x40);
  EXPECT_OK(replay(torn_last));
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Database::Options LogicalTime() {
  Database::Options o;
  o.mode = ExecutorMode::kSimulated;
  o.advance_clock_by_cost = false;
  return o;
}

constexpr const char* kSchema = R"(
  create table quotes (symbol string, price double);
  create index on quotes (symbol);
  create table counts (k string, n int);
  create index on counts (k);
)";

std::vector<std::vector<Value>> Rows(Database& db, const std::string& sql) {
  auto rs = db.Execute(sql);
  STRIP_CHECK_MSG(rs.ok(), "query failed in test helper");
  return rs->rows;
}

Database::Options Threaded() {
  Database::Options o;
  o.mode = ExecutorMode::kThreaded;
  o.num_workers = 2;
  return o;
}

// The server's demo schema with its generated maintenance rules, plus a
// rule whose bound table reads `price` through a pointer to the quotes
// record its firing saw (§6.1), all batched per symbol over a
// `delay_seconds` window: the unique rule-action tasks a checkpoint
// captures. `note_prices` logs every price its batch saw.
Status ViewSetup(Database& db, double delay_seconds) {
  STRIP_RETURN_IF_ERROR(db.ExecuteScript(R"(
    create table quotes (symbol string, price double);
    create index on quotes (symbol);
    create table seen_log (symbol string, price double);
    create materialized view quote_stats as
      select symbol, sum(price) as total, count(*) as n
      from quotes group by symbol;
  )"));
  STRIP_RETURN_IF_ERROR(db.RegisterFunction(
      "note_prices", [](FunctionContext& ctx) -> Status {
        const TempTable* seen = ctx.BoundTable("seen");
        STRIP_ASSIGN_OR_RETURN(
            PreparedStatementPtr insert,
            ctx.db().Prepare("insert into seen_log values (?, ?)"));
        for (size_t r = 0; r < seen->size(); ++r) {
          STRIP_RETURN_IF_ERROR(
              ctx.Exec(*insert, {seen->Get(r, 0), seen->Get(r, 1)})
                  .status());
        }
        return Status::OK();
      }));
  STRIP_RETURN_IF_ERROR(db.Execute(StrFormat(R"(
    create rule observe on quotes when updated
      if select n.symbol as symbol, q.price as price
           from new n, quotes q where q.symbol = n.symbol
         bind as seen
      then execute note_prices unique on symbol after %g seconds
  )", delay_seconds)).status());
  RuleGenOptions gen;
  gen.delay_seconds = delay_seconds;
  return GenerateMaintenanceRule(db, "quote_stats", "quotes", gen).status();
}

std::vector<std::vector<Value>> Stats(Database& db) {
  return Rows(db, "select symbol, total, n from quote_stats order by symbol");
}

std::vector<std::vector<Value>> SeenLog(Database& db) {
  return Rows(db, "select symbol, price from seen_log order by symbol, price");
}

uint64_t Merged(Database& db) {
  return db.rules().stats().firings_merged.load();
}

TEST(SnapshotTest, RoundTripRestoresEveryRow) {
  TempDir dir;
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(kSchema));
  ASSERT_OK(db.Execute("insert into quotes values ('ibm', 50.5)").status());
  ASSERT_OK(db.Execute("insert into quotes values ('hp', 20.25)").status());
  ASSERT_OK(db.Execute("insert into counts values ('a', 7)").status());

  ASSERT_OK_AND_ASSIGN(SnapshotData snap, CaptureSnapshot(db, 42));
  EXPECT_EQ(snap.lsn, 42u);
  std::string path = dir.path("state.snap");
  ASSERT_OK(WriteSnapshot(snap, path));

  ASSERT_OK_AND_ASSIGN(SnapshotData loaded, LoadSnapshot(path));
  EXPECT_EQ(loaded.lsn, 42u);

  Database db2(LogicalTime());
  ASSERT_OK(db2.ExecuteScript(kSchema));
  ASSERT_OK(RestoreSnapshot(db2, loaded));
  EXPECT_EQ(Rows(db2, "select * from quotes order by symbol"),
            Rows(db, "select * from quotes order by symbol"));
  EXPECT_EQ(Rows(db2, "select * from counts order by k"),
            Rows(db, "select * from counts order by k"));
}

TEST(SnapshotTest, EveryBodyByteFlipIsRejected) {
  TempDir dir;
  Database db(LogicalTime());
  ASSERT_OK(ViewSetup(db, 5.0));
  ASSERT_OK(db.Execute("insert into quotes values ('ibm', 50.5)").status());
  std::string path = dir.path("state.snap");
  ASSERT_OK_AND_ASSIGN(SnapshotData snap, CaptureSnapshot(db, 1));
  ASSERT_FALSE(snap.tasks.empty());  // the body carries a pending task
  ASSERT_OK(WriteSnapshot(snap, path));
  std::string good = ReadFile(path);

  // Header: magic + version + lsn + body length + CRC = 24 bytes; the CRC
  // covers the body, so every body flip must fail the load.
  for (size_t i = 24; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    WriteFile(path, bad);
    EXPECT_FALSE(LoadSnapshot(path).ok()) << "body byte " << i;
  }

  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xff);
  WriteFile(path, bad_magic);
  EXPECT_FALSE(LoadSnapshot(path).ok());

  std::string bad_version = good;
  bad_version[4] = static_cast<char>(bad_version[4] ^ 0xff);
  WriteFile(path, bad_version);
  EXPECT_FALSE(LoadSnapshot(path).ok());

  // Truncation at every byte fails too (a partially synced file).
  for (size_t cut = 0; cut < good.size(); ++cut) {
    WriteFile(path, good.substr(0, cut));
    EXPECT_FALSE(LoadSnapshot(path).ok()) << "truncated to " << cut;
  }
}

TEST(SnapshotTest, PendingTasksRoundTripWithTheirPinnedVersions) {
  TempDir dir;
  Database db(LogicalTime());
  ASSERT_OK(ViewSetup(db, 5.0));
  ASSERT_OK(db.Execute("insert into quotes values ('ibm', 50.5)").status());
  ASSERT_OK(db.Execute("update quotes set price = 60.0 where symbol = 'ibm'")
                .status());
  ASSERT_OK(db.Execute("update quotes set price = 70.0 where symbol = 'ibm'")
                .status());
  ASSERT_OK(db.Execute("insert into quotes values ('hp', 20.25)").status());
  db.simulated()->RunUntil(SecondsToMicros(1.0));
  ASSERT_OK_AND_ASSIGN(SnapshotData snap, CaptureSnapshot(db, 3));
  ASSERT_GE(snap.tasks.size(), 2u);
  std::string path = dir.path("state.snap");
  ASSERT_OK(WriteSnapshot(snap, path));
  ASSERT_OK_AND_ASSIGN(SnapshotData loaded, LoadSnapshot(path));
  ASSERT_EQ(loaded.tasks.size(), snap.tasks.size());

  bool saw_superseded_version = false;
  for (size_t i = 0; i < snap.tasks.size(); ++i) {
    const PendingActionTask& want = snap.tasks[i];
    const PendingActionTask& got = loaded.tasks[i];
    EXPECT_EQ(got.function_name, want.function_name);
    EXPECT_EQ(got.is_unique, want.is_unique);
    EXPECT_EQ(got.unique_key, want.unique_key);
    EXPECT_EQ(got.remaining_delay, SecondsToMicros(4.0));
    EXPECT_EQ(got.remaining_delay, want.remaining_delay);
    EXPECT_EQ(got.batched_firings, want.batched_firings);
    EXPECT_EQ(got.oldest_change_offset, want.oldest_change_offset);
    EXPECT_EQ(got.newest_change_offset, want.newest_change_offset);
    ASSERT_EQ(got.bound_tables.size(), want.bound_tables.size());
    for (size_t t = 0; t < want.bound_tables.size(); ++t) {
      const TempTable& w = want.bound_tables.tables()[t];
      const TempTable& g = got.bound_tables.tables()[t];
      // The same layout, so a live firing's MergeFrom still accepts it.
      EXPECT_EQ(g.name(), w.name());
      EXPECT_TRUE(g.schema().Equals(w.schema()));
      EXPECT_EQ(g.column_map(), w.column_map());
      EXPECT_EQ(g.num_slots(), w.num_slots());
      EXPECT_EQ(g.num_extra(), w.num_extra());
      ASSERT_EQ(g.size(), w.size());
      for (size_t r = 0; r < w.size(); ++r) {
        EXPECT_EQ(g.MaterializeRow(r), w.MaterializeRow(r));
        for (size_t sl = 0; sl < w.tuples()[r].slots.size(); ++sl) {
          const RecordRef& wr = w.tuples()[r].slots[sl];
          const RecordRef& gr = g.tuples()[r].slots[sl];
          ASSERT_EQ(gr == nullptr, wr == nullptr);
          if (wr == nullptr) continue;
          EXPECT_EQ(gr->values, wr->values);
          EXPECT_NE(gr, wr);  // a fresh record, attached to no table
          if (wr->values[1] == Value::Double(60.0)) {
            saw_superseded_version = true;
          }
        }
      }
    }
  }
  // The table holds ibm at 70.0; the first update's firing keeps the 60.0
  // version it pinned (§6.1).
  EXPECT_TRUE(saw_superseded_version);
}

TEST(SnapshotTest, VersionOneSnapshotStillLoads) {
  TempDir dir;
  // A version-1 file as the previous format wrote it: tables only, with no
  // pending-task section.
  std::string body;
  PutU32(1, &body);
  PutLengthPrefixed("quotes", &body);
  PutU32(2, &body);
  PutLengthPrefixed("symbol", &body);
  PutU8(static_cast<uint8_t>(ValueType::kString), &body);
  PutLengthPrefixed("price", &body);
  PutU8(static_cast<uint8_t>(ValueType::kDouble), &body);
  PutU64(1, &body);
  AppendValue(Value::Str("ibm"), &body);
  AppendValue(Value::Double(50.5), &body);
  std::string file;
  PutU32(kSnapshotMagic, &file);
  PutU32(1, &file);
  PutU64(7, &file);
  PutU32(static_cast<uint32_t>(body.size()), &file);
  PutU32(Crc32(body), &file);
  file += body;
  std::string path = dir.path("state.snap");
  WriteFile(path, file);

  ASSERT_OK_AND_ASSIGN(SnapshotData loaded, LoadSnapshot(path));
  EXPECT_EQ(loaded.lsn, 7u);
  EXPECT_TRUE(loaded.tasks.empty());
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(kSchema));
  ASSERT_OK(RestoreSnapshot(db, loaded));
  EXPECT_EQ(Rows(db, "select * from quotes"),
            (std::vector<std::vector<Value>>{
                {Value::Str("ibm"), Value::Double(50.5)}}));

  // Read as version 2 the same body lacks its task count: refused.
  file[4] = 2;
  WriteFile(path, file);
  EXPECT_FALSE(LoadSnapshot(path).ok());
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  TempDir dir;
  auto r = LoadSnapshot(dir.path("absent.snap"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, RestoreRejectsMismatchedSchemaAndNonEmptyTables) {
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(kSchema));
  ASSERT_OK(db.Execute("insert into quotes values ('ibm', 50.5)").status());
  ASSERT_OK_AND_ASSIGN(SnapshotData snap, CaptureSnapshot(db, 1));

  // Same table names, different column type: loud failure, not a zip.
  Database mismatched(LogicalTime());
  ASSERT_OK(mismatched.ExecuteScript(R"(
    create table quotes (symbol string, price string);
    create index on quotes (symbol);
    create table counts (k string, n int);
    create index on counts (k);
  )"));
  EXPECT_FALSE(RestoreSnapshot(mismatched, snap).ok());

  // Restoring over live rows would double them.
  Database occupied(LogicalTime());
  ASSERT_OK(occupied.ExecuteScript(kSchema));
  ASSERT_OK(
      occupied.Execute("insert into quotes values ('x', 1.0)").status());
  EXPECT_FALSE(RestoreSnapshot(occupied, snap).ok());

  // A table missing entirely.
  Database missing(LogicalTime());
  ASSERT_OK(missing.ExecuteScript(R"(
    create table quotes (symbol string, price double);
    create index on quotes (symbol);
  )"));
  EXPECT_FALSE(RestoreSnapshot(missing, snap).ok());
}

// ---------------------------------------------------------------------------
// DurableLog: the full recover -> serve -> checkpoint -> recover cycle.
// ---------------------------------------------------------------------------

class DurableDb {
 public:
  /// `setup` builds the schema and rules, as a server's schema script and
  /// bootstrap would (default: kSchema).
  explicit DurableDb(const std::string& dir,
                     Database::Options options = LogicalTime(),
                     const std::function<Status(Database&)>& setup = nullptr)
      : db_(options), log_(DurableLog::Options{dir}) {
    Status st = setup ? setup(db_) : db_.ExecuteScript(kSchema);
    STRIP_CHECK_MSG(st.ok(), "schema failed");
    auto imp = FeedImporter::Create(&db_, "quotes");
    STRIP_CHECK_MSG(imp.ok(), "importer failed");
    importer_ = imp.take();
  }

  Status Recover() {
    auto stats = log_.Recover(db_, [this](const std::string& table)
                                       -> Result<FeedImporter*> {
      if (table != "quotes") return Status::NotFound("no importer");
      return importer_.get();
    });
    STRIP_RETURN_IF_ERROR(stats.status());
    stats_ = *stats;
    return Status::OK();
  }

  // The server's ingest sequence: WAL append, sync (group commit), apply.
  Status Ingest(const FeedRecord& rec) {
    STRIP_RETURN_IF_ERROR(log_.Append("quotes", rec).status());
    STRIP_RETURN_IF_ERROR(log_.Sync());
    return importer_->ApplyNow(rec);
  }

  std::vector<std::vector<Value>> Table() {
    return Rows(db_, "select * from quotes order by symbol");
  }

  Database& db() { return db_; }
  DurableLog& log() { return log_; }
  const DurableLog::RecoveryStats& stats() const { return stats_; }

 private:
  Database db_;
  DurableLog log_;
  std::unique_ptr<FeedImporter> importer_;
  DurableLog::RecoveryStats stats_;
};

TEST(DurableLogTest, CrashReplayCheckpointAndTailRecovery) {
  TempDir dir;
  std::vector<std::vector<Value>> live_rows;

  {  // First life: ingest, then "crash" (no checkpoint, just destruction).
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    EXPECT_FALSE(d.stats().snapshot_loaded);
    EXPECT_EQ(d.stats().entries_replayed, 0u);
    ASSERT_OK(d.Ingest(Rec("ibm", 50.0)));
    ASSERT_OK(d.Ingest(Rec("hp", 20.0)));
    ASSERT_OK(d.Ingest(Rec("ibm", 51.0)));  // upsert: same key, new price
    live_rows = d.Table();
    ASSERT_EQ(live_rows.size(), 2u);
  }

  uint64_t checkpoint_lsn = 0;
  {  // Second life: WAL-only recovery must rebuild identical tables.
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    EXPECT_FALSE(d.stats().snapshot_loaded);
    EXPECT_EQ(d.stats().entries_replayed, 3u);
    EXPECT_EQ(d.stats().next_lsn, 4u);
    EXPECT_EQ(d.Table(), live_rows);

    ASSERT_OK_AND_ASSIGN(DurableLog::CheckpointStats cp,
                         d.log().Checkpoint(d.db()));
    checkpoint_lsn = cp.lsn;
    EXPECT_EQ(checkpoint_lsn, 3u);
    EXPECT_EQ(d.log().wal_bytes(), 0u);  // snapshot absorbed the log

    ASSERT_OK(d.Ingest(Rec("sun", 13.0)));  // tail past the checkpoint
    live_rows = d.Table();
    ASSERT_EQ(live_rows.size(), 3u);
  }

  {  // Third life: snapshot + WAL tail.
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    EXPECT_TRUE(d.stats().snapshot_loaded);
    EXPECT_EQ(d.stats().snapshot_lsn, checkpoint_lsn);
    EXPECT_EQ(d.stats().entries_replayed, 1u);
    EXPECT_EQ(d.stats().next_lsn, 5u);
    EXPECT_EQ(d.Table(), live_rows);
  }
}

// A checkpoint inside open delay windows captures the pending unique
// tasks instead of running them. After a crash, recovery restores them with
// their remaining delay and replays the WAL tail into them, so the derived
// state and the batching both equal those of an engine that never crashed.
TEST(DurableLogTest, CheckpointCapturesPendingUniqueTasksAcrossACrash) {
  TempDir dir;
  TempDir twin_dir;
  auto setup = [](Database& db) { return ViewSetup(db, 5.0); };
  using Batches = std::vector<std::pair<std::string, uint32_t>>;
  auto record_batches = [](Batches* out) {
    return [out](const TaskControlBlock& t) {
      if (t.kind == TaskKind::kRuleAction) {
        out->emplace_back(t.function_name, t.batched_firings);
      }
    };
  };
  auto at = [](DurableDb& d, double seconds) {
    d.db().simulated()->RunUntil(SecondsToMicros(seconds));
  };

  DurableDb twin(twin_dir.path(), LogicalTime(), setup);
  ASSERT_OK(twin.Recover());
  Batches twin_batches;
  twin.db().executor().set_task_observer(record_batches(&twin_batches));

  size_t captured = 0;
  uint64_t merged_at_checkpoint = 0;
  {
    DurableDb d(dir.path(), LogicalTime(), setup);
    ASSERT_OK(d.Recover());
    for (DurableDb* e : {&d, &twin}) {
      ASSERT_OK(e->Ingest(Rec("ibm", 50.0)));
      ASSERT_OK(e->Ingest(Rec("hp", 20.0)));
      at(*e, 1.0);
      ASSERT_OK(e->Ingest(Rec("ibm", 51.0)));
      ASSERT_OK(e->Ingest(Rec("hp", 21.0)));
      // Merges into ibm's queued tasks, and supersedes the record version
      // the first update's firing pinned (§6.1).
      ASSERT_OK(e->Ingest(Rec("ibm", 51.5)));
    }
    ASSERT_OK_AND_ASSIGN(DurableLog::CheckpointStats cp,
                         d.log().Checkpoint(d.db()));
    EXPECT_EQ(cp.lsn, 5u);
    captured = cp.pending_tasks;
    EXPECT_GE(captured, 2u);
    merged_at_checkpoint = Merged(twin.db());
    EXPECT_GE(merged_at_checkpoint, 1u);
    EXPECT_EQ(Merged(d.db()), merged_at_checkpoint);
    // Past the checkpoint, inside the open windows; then the crash: no
    // final checkpoint, and not one task has run.
    for (DurableDb* e : {&d, &twin}) {
      at(*e, 2.0);
      ASSERT_OK(e->Ingest(Rec("ibm", 52.0)));
      ASSERT_OK(e->Ingest(Rec("sun", 13.0)));
      ASSERT_OK(e->Ingest(Rec("hp", 22.0)));
    }
    EXPECT_TRUE(Stats(d.db()).empty());
    EXPECT_TRUE(SeenLog(d.db()).empty());
  }

  DurableDb d(dir.path(), LogicalTime(), setup);
  Batches batches;
  d.db().executor().set_task_observer(record_batches(&batches));
  ASSERT_OK(d.Recover());
  EXPECT_TRUE(d.stats().snapshot_loaded);
  EXPECT_EQ(d.stats().snapshot_tasks, captured);
  EXPECT_EQ(d.stats().entries_replayed, 3u);
  // The restored windows keep the 4 s they had left.
  at(d, 3.9);
  EXPECT_TRUE(batches.empty());
  d.db().simulated()->RunUntilQuiescent();
  twin.db().simulated()->RunUntilQuiescent();

  EXPECT_EQ(d.Table(), twin.Table());
  ASSERT_EQ(Stats(twin.db()).size(), 3u);
  EXPECT_EQ(Stats(d.db()), Stats(twin.db()));
  // Each firing logged the price it saw, superseded versions included.
  ASSERT_EQ(SeenLog(twin.db()).size(), 5u);
  EXPECT_EQ(SeenLog(d.db()), SeenLog(twin.db()));
  // The tail's firings merged into the restored tasks as they did live.
  EXPECT_EQ(Merged(d.db()), Merged(twin.db()) - merged_at_checkpoint);
  std::sort(batches.begin(), batches.end());
  std::sort(twin_batches.begin(), twin_batches.end());
  EXPECT_EQ(batches, twin_batches);
}

// A snapshot write that fails (here open(), made to fail even as root by a
// directory in the temp file's place) fails the checkpoint and changes
// nothing: the WAL is kept, the executor runs on, and the next checkpoint
// succeeds.
TEST(DurableLogTest, FailedSnapshotWriteKeepsTheWalAndThePendingTasks) {
  TempDir dir;
  auto setup = [](Database& db) { return ViewSetup(db, 1.0); };
  {
    DurableDb d(dir.path(), Threaded(), setup);
    ASSERT_OK(d.Recover());
    ASSERT_OK(d.Ingest(Rec("ibm", 50.0)));
    ASSERT_OK(d.Ingest(Rec("hp", 20.0)));
    const uint64_t wal_bytes = d.log().wal_bytes();
    ASSERT_GT(wal_bytes, 0u);

    fs::create_directory(dir.path("state.snap.tmp"));
    auto failed = d.log().Checkpoint(d.db());
    EXPECT_FALSE(failed.ok());
    EXPECT_FALSE(fs::exists(dir.path("state.snap")));
    EXPECT_EQ(d.log().wal_bytes(), wal_bytes);
    EXPECT_EQ(ReadFile(d.log().wal_path()).size(), wal_bytes);
    // Resumed: the pending tasks fire when their windows close.
    ReturnsWithin(std::chrono::seconds(20), "Drain",
                  [&] { d.db().threaded()->Drain(); });
    EXPECT_EQ(Stats(d.db()).size(), 2u);

    fs::remove(dir.path("state.snap.tmp"));
    ASSERT_OK(d.Ingest(Rec("sun", 13.0)));
    ASSERT_OK_AND_ASSIGN(DurableLog::CheckpointStats cp,
                         d.log().Checkpoint(d.db()));
    EXPECT_EQ(cp.lsn, 3u);
    EXPECT_EQ(d.log().wal_bytes(), 0u);
  }
  // Whether sun's task ran before that checkpoint or was captured in it,
  // recovery ends in the same state.
  DurableDb d(dir.path(), Threaded(), setup);
  ASSERT_OK(d.Recover());
  ReturnsWithin(std::chrono::seconds(20), "Drain",
                [&] { d.db().threaded()->Drain(); });
  EXPECT_EQ(Stats(d.db()).size(), 3u);
}

// A delayed task the snapshot cannot re-create fails the checkpoint, which
// writes nothing; the task is refused, not dropped.
TEST(DurableLogTest, CheckpointRefusesADelayedTaskItCannotCapture) {
  TempDir dir;
  DurableDb d(dir.path(), Threaded());
  ASSERT_OK(d.Recover());
  ASSERT_OK(d.Ingest(Rec("ibm", 50.0)));
  std::atomic<bool> ran{false};
  TaskPtr app = d.db().NewTask();
  app->release_time = d.db().Now() + SecondsToMicros(0.2);
  app->work = [&](TaskControlBlock&) {
    ran = true;
    return Status::OK();
  };
  d.db().Submit(app);

  auto cp = d.log().Checkpoint(d.db());
  ASSERT_FALSE(cp.ok());
  EXPECT_EQ(cp.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(fs::exists(dir.path("state.snap")));
  EXPECT_FALSE(fs::exists(dir.path("state.snap.tmp")));
  EXPECT_GT(d.log().wal_bytes(), 0u);
  ReturnsWithin(std::chrono::seconds(20), "Drain",
                [&] { d.db().threaded()->Drain(); });
  EXPECT_TRUE(ran.load());
  EXPECT_OK(d.log().Checkpoint(d.db()).status());
}

TEST(DurableLogTest, TornTailIsDiscardedAndLogReopensCleanly) {
  TempDir dir;
  std::string wal_path;
  {
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    ASSERT_OK(d.Ingest(Rec("ibm", 50.0)));
    ASSERT_OK(d.Ingest(Rec("hp", 20.0)));
    wal_path = d.log().wal_path();
  }
  // Crash mid-append: garbage half-entry at the end of the log.
  std::string bytes = ReadFile(wal_path);
  WriteFile(wal_path, bytes + "WA\x01\x02");

  {
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    EXPECT_EQ(d.stats().entries_replayed, 2u);
    EXPECT_EQ(d.stats().torn_bytes_discarded, 4u);
    // The tail was truncated away, so appends extend the valid prefix.
    ASSERT_OK(d.Ingest(Rec("sun", 13.0)));
  }
  {
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    EXPECT_EQ(d.stats().entries_replayed, 3u);
    EXPECT_EQ(d.stats().torn_bytes_discarded, 0u);
    EXPECT_EQ(d.Table().size(), 3u);
  }
}

// REVIEW fix (high), replay side: a WAL entry that fails validation
// against the current schema (possible only from an older build's log —
// the live server now validates before appending) is skipped with a
// count, instead of refusing to boot forever.
TEST(DurableLogTest, RecoverSkipsEntriesThatFailValidation) {
  TempDir dir;
  {
    // Hand-craft a WAL with a wrong-arity record between valid ones, the
    // way a pre-validation server could have logged it.
    ASSERT_OK_AND_ASSIGN(
        auto wal, WalWriter::Open(dir.path("feed.wal"), 1,
                                  WalSyncPolicy::kManual));
    ASSERT_OK(wal->Append("quotes", Rec("ibm", 50.0)).status());
    FeedRecord bad;
    bad.values = {Value::Str("orphan")};  // arity 1 vs 2-column schema
    ASSERT_OK(wal->Append("quotes", bad).status());
    ASSERT_OK(wal->Append("quotes", Rec("hp", 20.0)).status());
    ASSERT_OK(wal->Sync());
  }
  DurableDb d(dir.path());
  ASSERT_OK(d.Recover());
  EXPECT_EQ(d.stats().entries_replayed, 3u);
  EXPECT_EQ(d.stats().entries_skipped, 1u);
  EXPECT_EQ(d.stats().next_lsn, 4u);
  EXPECT_EQ(d.Table().size(), 2u);  // the two valid records applied
  // The log stays appendable past the skip.
  ASSERT_OK(d.Ingest(Rec("sun", 13.0)));
}

TEST(DurableLogTest, RecoverFailsOnUnknownFeedTable) {
  TempDir dir;
  {
    DurableDb d(dir.path());
    ASSERT_OK(d.Recover());
    ASSERT_OK(d.Ingest(Rec("ibm", 50.0)));
  }
  Database db(LogicalTime());
  ASSERT_OK(db.ExecuteScript(kSchema));
  DurableLog log(DurableLog::Options{dir.path()});
  auto stats = log.Recover(db, [](const std::string&) -> Result<FeedImporter*> {
    return Status::NotFound("importer registry empty");
  });
  EXPECT_FALSE(stats.ok());
}

}  // namespace
}  // namespace strip
