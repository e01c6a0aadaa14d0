#include "strip/durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "strip/common/byteio.h"
#include "strip/common/crc32.h"
#include "strip/common/string_util.h"
#include "strip/feed/wire.h"

namespace strip {

namespace {

Status SyncFd(int fd, const char* what) {
  if (::fsync(fd) != 0) {
    return Status::Internal(StrFormat(
        "fsync(%s) failed: %s", what, std::strerror(errno)));
  }
  return Status::OK();
}

/// fsyncs the directory containing `path` so the rename itself is durable.
Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal(StrFormat(
        "open('%s') for dirsync failed: %s", dir.c_str(),
        std::strerror(errno)));
  }
  Status st = SyncFd(fd, dir.c_str());
  ::close(fd);
  return st;
}

constexpr uint32_t kNoRecord = 0xffffffffu;

void PutI64(int64_t v, std::string* out) {
  PutU64(static_cast<uint64_t>(v), out);
}

void PutColumn(const Column& col, std::string* body) {
  PutLengthPrefixed(col.name, body);
  PutU8(static_cast<uint8_t>(col.type), body);
}

void PutValues(const std::vector<Value>& values, std::string* body) {
  for (const Value& v : values) AppendValue(v, body);
}

/// One bound table in its own layout: the pinned record behind each
/// pointer slot is written whole, so restore can rebuild the same layout.
void PutBoundTable(const TempTable& t, std::string* body) {
  PutLengthPrefixed(t.name(), body);
  PutU32(static_cast<uint32_t>(t.schema().num_columns()), body);
  for (int c = 0; c < t.schema().num_columns(); ++c) {
    PutColumn(t.schema().column(c), body);
    const TempColumnMap& m = t.column_map()[static_cast<size_t>(c)];
    PutU32(static_cast<uint32_t>(m.slot), body);
    PutU32(static_cast<uint32_t>(m.offset), body);
  }
  PutU32(static_cast<uint32_t>(t.num_slots()), body);
  PutU32(static_cast<uint32_t>(t.num_extra()), body);
  PutU64(t.size(), body);
  for (const TempTuple& tuple : t.tuples()) {
    for (const RecordRef& rec : tuple.slots) {
      if (rec == nullptr) {
        PutU32(kNoRecord, body);
        continue;
      }
      PutU32(static_cast<uint32_t>(rec->values.size()), body);
      PutValues(rec->values, body);
    }
    PutValues(tuple.extra, body);
  }
}

void PutPendingTask(const PendingActionTask& p, std::string* body) {
  PutLengthPrefixed(p.function_name, body);
  PutU8(p.is_unique ? 1 : 0, body);
  PutU32(static_cast<uint32_t>(p.unique_key.size()), body);
  PutValues(p.unique_key, body);
  PutI64(p.remaining_delay, body);
  PutU32(p.batched_firings, body);
  PutI64(p.oldest_change_offset, body);
  PutI64(p.newest_change_offset, body);
  PutU32(static_cast<uint32_t>(p.bound_tables.size()), body);
  for (const TempTable& t : p.bound_tables.tables()) PutBoundTable(t, body);
}

/// Reads the snapshot body; every error names the file.
class BodyReader {
 public:
  BodyReader(const std::string& path, std::string_view body)
      : path_(path), body_(body), br_(body) {}

  ByteReader& bytes() { return br_; }

  Status Corrupt(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("snapshot '%s': %s", path_.c_str(), what.c_str()));
  }

  Result<Value> ReadValue() {
    size_t off = br_.pos();
    STRIP_ASSIGN_OR_RETURN(Value v, DecodeValue(body_, &off));
    STRIP_RETURN_IF_ERROR(br_.Skip(off - br_.pos()));
    return v;
  }

  Result<std::vector<Value>> ReadValues(uint64_t n) {
    // Each value costs at least its tag byte.
    if (n > br_.remaining()) return Corrupt("value count past the body");
    std::vector<Value> out;
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      STRIP_ASSIGN_OR_RETURN(Value v, ReadValue());
      out.push_back(std::move(v));
    }
    return out;
  }

  Result<Column> ReadColumn(const std::string& table) {
    Column col;
    STRIP_ASSIGN_OR_RETURN(col.name, br_.LengthPrefixed());
    STRIP_ASSIGN_OR_RETURN(uint8_t type, br_.U8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Corrupt(StrFormat("column '%s.%s' has bad type tag %u",
                               table.c_str(), col.name.c_str(), type));
    }
    col.type = static_cast<ValueType>(type);
    return col;
  }

  Result<TempTable> ReadBoundTable();
  Result<PendingActionTask> ReadPendingTask();

 private:
  const std::string& path_;
  std::string_view body_;
  ByteReader br_;
};

Result<TempTable> BodyReader::ReadBoundTable() {
  STRIP_ASSIGN_OR_RETURN(std::string name, br_.LengthPrefixed());
  STRIP_ASSIGN_OR_RETURN(uint32_t ncols, br_.U32());
  if (ncols > br_.remaining()) {
    return Corrupt(StrFormat("bound table '%s' names %u columns",
                             name.c_str(), ncols));
  }
  std::vector<Column> columns;
  std::vector<TempColumnMap> map;
  for (uint32_t c = 0; c < ncols; ++c) {
    STRIP_ASSIGN_OR_RETURN(Column col, ReadColumn(name));
    columns.push_back(std::move(col));
    STRIP_ASSIGN_OR_RETURN(uint32_t slot, br_.U32());
    STRIP_ASSIGN_OR_RETURN(uint32_t offset, br_.U32());
    map.push_back(TempColumnMap{static_cast<int32_t>(slot),
                                static_cast<int>(offset)});
  }
  STRIP_ASSIGN_OR_RETURN(uint32_t num_slots, br_.U32());
  STRIP_ASSIGN_OR_RETURN(uint32_t num_extra, br_.U32());
  if (num_slots > br_.remaining() || num_extra > br_.remaining()) {
    return Corrupt(StrFormat("bound table '%s' has %u slots, %u extras",
                             name.c_str(), num_slots, num_extra));
  }
  // TempTable's constructor checks its map; check first, and fail softly.
  for (const TempColumnMap& m : map) {
    bool ok = m.materialized()
                  ? m.offset >= 0 && m.offset < static_cast<int>(num_extra)
                  : m.slot >= 0 && m.slot < static_cast<int>(num_slots) &&
                        m.offset >= 0;
    if (!ok) {
      return Corrupt(StrFormat("bound table '%s' maps a column to slot %d "
                               "offset %d",
                               name.c_str(), m.slot, m.offset));
    }
  }
  TempTable table(name, Schema(std::move(columns)), map,
                  static_cast<int>(num_slots), static_cast<int>(num_extra));
  STRIP_ASSIGN_OR_RETURN(uint64_t ntuples, br_.U64());
  if (ntuples > br_.remaining()) {
    return Corrupt(StrFormat("bound table '%s' names %llu tuples",
                             name.c_str(),
                             static_cast<unsigned long long>(ntuples)));
  }
  table.Reserve(ntuples);
  for (uint64_t i = 0; i < ntuples; ++i) {
    TempTuple tuple;
    tuple.slots.reserve(num_slots);
    for (uint32_t sl = 0; sl < num_slots; ++sl) {
      STRIP_ASSIGN_OR_RETURN(uint32_t n, br_.U32());
      if (n == kNoRecord) {
        tuple.slots.push_back(nullptr);
        continue;
      }
      // A fresh record, attached to no table: the version this task
      // pinned, whatever the table holds now (§6.1).
      STRIP_ASSIGN_OR_RETURN(std::vector<Value> values, ReadValues(n));
      tuple.slots.push_back(MakeRecord(std::move(values)));
    }
    STRIP_ASSIGN_OR_RETURN(tuple.extra, ReadValues(num_extra));
    for (const TempColumnMap& m : map) {
      if (m.materialized()) continue;
      const RecordRef& rec = tuple.slots[static_cast<size_t>(m.slot)];
      if (rec != nullptr &&
          static_cast<size_t>(m.offset) >= rec->values.size()) {
        return Corrupt(StrFormat("bound table '%s' reads offset %d of a "
                                 "%zu-value record",
                                 name.c_str(), m.offset, rec->values.size()));
      }
    }
    table.Append(std::move(tuple));
  }
  return table;
}

Result<PendingActionTask> BodyReader::ReadPendingTask() {
  PendingActionTask p;
  STRIP_ASSIGN_OR_RETURN(p.function_name, br_.LengthPrefixed());
  STRIP_ASSIGN_OR_RETURN(uint8_t unique, br_.U8());
  if (unique > 1) return Corrupt("pending task has a bad unique flag");
  p.is_unique = unique == 1;
  STRIP_ASSIGN_OR_RETURN(uint32_t arity, br_.U32());
  STRIP_ASSIGN_OR_RETURN(p.unique_key, ReadValues(arity));
  STRIP_ASSIGN_OR_RETURN(uint64_t delay, br_.U64());
  p.remaining_delay = static_cast<Timestamp>(delay);
  if (p.remaining_delay < 0) {
    return Corrupt(StrFormat("pending task '%s' has a negative delay",
                             p.function_name.c_str()));
  }
  STRIP_ASSIGN_OR_RETURN(p.batched_firings, br_.U32());
  STRIP_ASSIGN_OR_RETURN(uint64_t oldest, br_.U64());
  STRIP_ASSIGN_OR_RETURN(uint64_t newest, br_.U64());
  p.oldest_change_offset = static_cast<Timestamp>(oldest);
  p.newest_change_offset = static_cast<Timestamp>(newest);
  STRIP_ASSIGN_OR_RETURN(uint32_t ntables, br_.U32());
  if (ntables > br_.remaining()) {
    return Corrupt(StrFormat("pending task '%s' names %u bound tables",
                             p.function_name.c_str(), ntables));
  }
  for (uint32_t t = 0; t < ntables; ++t) {
    STRIP_ASSIGN_OR_RETURN(TempTable table, ReadBoundTable());
    Status added = p.bound_tables.Add(std::move(table));
    if (!added.ok()) return Corrupt(added.message());
  }
  return p;
}

}  // namespace

Result<SnapshotData> CaptureSnapshot(Database& db, uint64_t lsn) {
  SnapshotData snap;
  snap.lsn = lsn;
  STRIP_RETURN_IF_ERROR(db.executor().QuiesceAndVisit(
      [&](const std::vector<TaskPtr>& pending) -> Status {
        const Timestamp now = db.Now();
        for (const TaskPtr& task : pending) {
          switch (task->kind) {
            case TaskKind::kRuleAction:
              snap.tasks.push_back(RuleEngine::CaptureActionTask(*task, now));
              break;
            case TaskKind::kPeriodicTick:
              break;  // the bootstrap re-creates periodic jobs at boot
            case TaskKind::kApplication:
              return Status::FailedPrecondition(StrFormat(
                  "checkpoint: delayed application task %llu ('%s') "
                  "cannot be captured",
                  static_cast<unsigned long long>(task->id()),
                  task->function_name.c_str()));
          }
        }
        for (const std::string& name : db.catalog().ListTables()) {
          const Table* table = db.catalog().FindTable(name);
          if (table == nullptr) continue;
          TableSnapshot ts;
          ts.name = table->name();
          ts.columns = table->schema().columns();
          ts.rows.reserve(table->size());
          table->ForEachRecord([&](const RecordRef& rec) {
            ts.rows.push_back(rec->values);
          });
          snap.tables.push_back(std::move(ts));
        }
        return Status::OK();
      }));
  return snap;
}

Status WriteSnapshot(const SnapshotData& snap, const std::string& path) {
  std::string body;
  PutU32(static_cast<uint32_t>(snap.tables.size()), &body);
  for (const TableSnapshot& ts : snap.tables) {
    PutLengthPrefixed(ts.name, &body);
    PutU32(static_cast<uint32_t>(ts.columns.size()), &body);
    for (const Column& col : ts.columns) PutColumn(col, &body);
    PutU64(ts.rows.size(), &body);
    for (const std::vector<Value>& row : ts.rows) PutValues(row, &body);
  }
  PutU32(static_cast<uint32_t>(snap.tasks.size()), &body);
  for (const PendingActionTask& p : snap.tasks) PutPendingTask(p, &body);

  std::string file;
  PutU32(kSnapshotMagic, &file);
  PutU32(kSnapshotVersion, &file);
  PutU64(snap.lsn, &file);
  PutU32(static_cast<uint32_t>(body.size()), &file);
  PutU32(Crc32(body), &file);
  file += body;

  std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::Internal(StrFormat(
        "open('%s') failed: %s", tmp.c_str(), std::strerror(errno)));
  }
  const char* data = file.data();
  size_t n = file.size();
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat(
          "write('%s') failed: %s", tmp.c_str(), std::strerror(err)));
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  Status st = SyncFd(fd, tmp.c_str());
  ::close(fd);
  STRIP_RETURN_IF_ERROR(st);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(StrFormat(
        "rename('%s' -> '%s') failed: %s", tmp.c_str(), path.c_str(),
        std::strerror(errno)));
  }
  return SyncParentDir(path);
}

Result<SnapshotData> LoadSnapshot(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(StrFormat(
        "no snapshot at '%s': %s", path.c_str(), std::strerror(errno)));
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::Internal(StrFormat(
          "read('%s') failed: %s", path.c_str(), std::strerror(err)));
    }
    if (r == 0) break;
    data.append(buf, static_cast<size_t>(r));
  }
  ::close(fd);

  ByteReader r(data);
  STRIP_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument(StrFormat(
        "'%s' is not a snapshot (magic 0x%08x)", path.c_str(), magic));
  }
  STRIP_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != 1 && version != kSnapshotVersion) {
    return Status::InvalidArgument(StrFormat(
        "snapshot '%s' has unsupported version %u", path.c_str(), version));
  }
  SnapshotData snap;
  STRIP_ASSIGN_OR_RETURN(snap.lsn, r.U64());
  STRIP_ASSIGN_OR_RETURN(uint32_t body_len, r.U32());
  STRIP_ASSIGN_OR_RETURN(uint32_t crc, r.U32());
  if (body_len != r.remaining()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot '%s' truncated: header names %u body bytes, file has %zu "
        "(crash mid-checkpoint should be impossible — checkpoints rename "
        "into place)",
        path.c_str(), body_len, r.remaining()));
  }
  std::string_view body(data.data() + r.pos(), body_len);
  if (Crc32(body) != crc) {
    return Status::InvalidArgument(StrFormat(
        "snapshot '%s' failed its CRC check", path.c_str()));
  }

  BodyReader reader(path, body);
  ByteReader& br = reader.bytes();
  STRIP_ASSIGN_OR_RETURN(uint32_t ntables, br.U32());
  snap.tables.reserve(std::min<size_t>(ntables, br.remaining()));
  for (uint32_t t = 0; t < ntables; ++t) {
    TableSnapshot ts;
    STRIP_ASSIGN_OR_RETURN(ts.name, br.LengthPrefixed());
    STRIP_ASSIGN_OR_RETURN(uint32_t ncols, br.U32());
    if (ncols == 0 || ncols > br.remaining()) {
      return reader.Corrupt(StrFormat("table '%s' names %u columns",
                                      ts.name.c_str(), ncols));
    }
    for (uint32_t c = 0; c < ncols; ++c) {
      STRIP_ASSIGN_OR_RETURN(Column col, reader.ReadColumn(ts.name));
      ts.columns.push_back(std::move(col));
    }
    STRIP_ASSIGN_OR_RETURN(uint64_t nrows, br.U64());
    // Each row costs at least one tag byte per column.
    ts.rows.reserve(std::min<uint64_t>(nrows, br.remaining() / ncols));
    for (uint64_t row = 0; row < nrows; ++row) {
      STRIP_ASSIGN_OR_RETURN(std::vector<Value> values,
                             reader.ReadValues(ncols));
      ts.rows.push_back(std::move(values));
    }
    snap.tables.push_back(std::move(ts));
  }
  if (version >= 2) {
    STRIP_ASSIGN_OR_RETURN(uint32_t ntasks, br.U32());
    if (ntasks > br.remaining()) {
      return reader.Corrupt(StrFormat("names %u pending tasks", ntasks));
    }
    for (uint32_t i = 0; i < ntasks; ++i) {
      STRIP_ASSIGN_OR_RETURN(PendingActionTask p, reader.ReadPendingTask());
      snap.tasks.push_back(std::move(p));
    }
  }
  if (!br.exhausted()) {
    return reader.Corrupt(
        StrFormat("%zu trailing body bytes", br.remaining()));
  }
  return snap;
}

Status RestoreSnapshot(Database& db, const SnapshotData& snap) {
  for (const TableSnapshot& ts : snap.tables) {
    STRIP_ASSIGN_OR_RETURN(Table * table, db.catalog().GetTable(ts.name));
    if (table->size() != 0) {
      return Status::FailedPrecondition(StrFormat(
          "cannot restore into non-empty table '%s' (%zu rows)",
          ts.name.c_str(), table->size()));
    }
    const Schema& live = table->schema();
    if (live.num_columns() != static_cast<int>(ts.columns.size())) {
      return Status::FailedPrecondition(StrFormat(
          "snapshot table '%s' has %zu columns, live schema has %d — the "
          "schema script diverged from the snapshot",
          ts.name.c_str(), ts.columns.size(), live.num_columns()));
    }
    for (int c = 0; c < live.num_columns(); ++c) {
      const Column& want = ts.columns[static_cast<size_t>(c)];
      if (!EqualsIgnoreCase(live.column(c).name, want.name) ||
          live.column(c).type != want.type) {
        return Status::FailedPrecondition(StrFormat(
            "snapshot table '%s' column %d is %s %s, live schema has %s %s",
            ts.name.c_str(), c, want.name.c_str(),
            ValueTypeName(want.type), live.column(c).name.c_str(),
            ValueTypeName(live.column(c).type)));
      }
    }
    table->Reserve(ts.rows.size());
    for (const std::vector<Value>& row : ts.rows) {
      STRIP_ASSIGN_OR_RETURN(RowHandle handle,
                             table->Insert(MakeRecord(row)));
      (void)handle;
    }
  }
  // Tasks after rows, so their delay windows re-open over the state they
  // were captured with; the WAL tail replayed next merges into them.
  for (const PendingActionTask& p : snap.tasks) {
    STRIP_ASSIGN_OR_RETURN(TaskPtr task,
                           db.rules().RestoreActionTask(p, db.Now()));
    if (task != nullptr) db.Submit(std::move(task));
  }
  return Status::OK();
}

}  // namespace strip
