#include "strip/durability/durable_log.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "strip/common/logging.h"
#include "strip/common/string_util.h"

namespace strip {

DurableLog::DurableLog(Options options)
    : options_(std::move(options)),
      wal_path_(options_.dir + "/feed.wal"),
      snapshot_path_(options_.dir + "/state.snap") {}

Result<DurableLog::RecoveryStats> DurableLog::Recover(
    Database& db, const ImporterResolver& resolver) {
  std::lock_guard<std::mutex> lk(mu_);
  STRIP_CHECK_MSG(wal_ == nullptr, "DurableLog::Recover called twice");
  RecoveryStats stats;

  // 1. Snapshot, if one has ever been checkpointed.
  auto snap = LoadSnapshot(snapshot_path_);
  if (snap.ok()) {
    STRIP_RETURN_IF_ERROR(RestoreSnapshot(db, *snap));
    stats.snapshot_loaded = true;
    stats.snapshot_lsn = snap->lsn;
    stats.snapshot_tasks = snap->tasks.size();
    for (const TableSnapshot& ts : snap->tables) {
      stats.snapshot_rows += ts.rows.size();
    }
  } else if (snap.status().code() != StatusCode::kNotFound) {
    return snap.status();  // a corrupt snapshot is not silently skipped
  }

  // 2. Replay the WAL tail through the ordinary feed path.
  STRIP_ASSIGN_OR_RETURN(
      WalReplayResult replay,
      WalReplay(wal_path_, stats.snapshot_lsn + 1,
                [&](const WalEntry& entry) -> Status {
                  STRIP_ASSIGN_OR_RETURN(FeedImporter * imp,
                                         resolver(entry.table));
                  // Synchronous, in LSN order — the same total order the
                  // live server applied (its dispatch lock serializes
                  // appends), so the recovered tables are byte-identical.
                  // Re-stamp arrival onto THIS process's clock: the logged
                  // `at` belongs to the dead process's epoch; the replayed
                  // batch arrives "now" and delay windows re-open from
                  // here, which is what rebuilds the in-flight unique
                  // transactions.
                  FeedRecord rec = entry.record;
                  rec.at = db.Now();
                  Status applied = imp->ApplyNow(rec);
                  if (applied.code() == StatusCode::kInvalidArgument) {
                    // A record that cannot validate against the current
                    // schema. The live server validates every batch before
                    // its first append, so this entry came from an older
                    // build or predates a schema change. Refusing to boot
                    // would turn one bad record into a permanently dead
                    // server; skip it loudly and surface the count.
                    ++stats.entries_skipped;
                    STRIP_LOG(WARN,
                              "recovery: skipping WAL entry %llu for '%s': "
                              "%s",
                              static_cast<unsigned long long>(entry.lsn),
                              entry.table.c_str(),
                              applied.message().c_str());
                    return Status::OK();
                  }
                  return applied;
                }));
  stats.entries_replayed = replay.entries_replayed;
  stats.torn_bytes_discarded = replay.torn_bytes;
  stats.next_lsn = replay.next_lsn;
  if (stats.snapshot_lsn + 1 > stats.next_lsn) {
    // Empty / truncated WAL after a checkpoint: the snapshot is ahead.
    stats.next_lsn = stats.snapshot_lsn + 1;
  }

  // 3. Drop the torn tail so reopened appends extend the *valid* prefix —
  // appending after garbage would turn a tolerated torn tail into fatal
  // interior corruption on the next recovery.
  if (replay.torn_bytes > 0) {
    if (::truncate(wal_path_.c_str(),
                   static_cast<off_t>(replay.valid_bytes)) != 0) {
      return Status::Internal(StrFormat(
          "truncate('%s', %llu) failed: %s", wal_path_.c_str(),
          static_cast<unsigned long long>(replay.valid_bytes),
          std::strerror(errno)));
    }
  }

  STRIP_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(wal_path_, stats.next_lsn, options_.sync));
  STRIP_LOG(INFO,
            "recovery: snapshot %s (lsn %llu, %llu rows, %llu pending "
            "tasks), %llu WAL entries replayed (%llu skipped), %llu torn "
            "bytes discarded, next lsn %llu",
            stats.snapshot_loaded ? "loaded" : "absent",
            static_cast<unsigned long long>(stats.snapshot_lsn),
            static_cast<unsigned long long>(stats.snapshot_rows),
            static_cast<unsigned long long>(stats.snapshot_tasks),
            static_cast<unsigned long long>(stats.entries_replayed),
            static_cast<unsigned long long>(stats.entries_skipped),
            static_cast<unsigned long long>(stats.torn_bytes_discarded),
            static_cast<unsigned long long>(stats.next_lsn));
  return stats;
}

Result<uint64_t> DurableLog::Append(const std::string& table,
                                    const FeedRecord& rec) {
  std::lock_guard<std::mutex> lk(mu_);
  STRIP_CHECK_MSG(wal_ != nullptr, "DurableLog::Append before Recover");
  return wal_->Append(table, rec);
}

Status DurableLog::Sync() {
  std::lock_guard<std::mutex> lk(mu_);
  STRIP_CHECK_MSG(wal_ != nullptr, "DurableLog::Sync before Recover");
  return wal_->Sync();
}

Status DurableLog::RollbackTo(uint64_t wal_bytes, uint64_t next_lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  STRIP_CHECK_MSG(wal_ != nullptr, "DurableLog::RollbackTo before Recover");
  return wal_->TruncateTo(wal_bytes, next_lsn);
}

Result<DurableLog::CheckpointStats> DurableLog::Checkpoint(Database& db) {
  std::lock_guard<std::mutex> lk(mu_);
  STRIP_CHECK_MSG(wal_ != nullptr, "DurableLog::Checkpoint before Recover");
  uint64_t lsn = wal_->next_lsn() - 1;
  STRIP_ASSIGN_OR_RETURN(SnapshotData snap, CaptureSnapshot(db, lsn));
  STRIP_RETURN_IF_ERROR(WriteSnapshot(snap, snapshot_path_));
  // The snapshot covers every logged entry, so the WAL restarts empty.
  // Order matters twice. First, the snapshot is durably in place before
  // the truncate: a crash between the rename and the truncate only means
  // a few entries get replayed on top of a snapshot that already contains
  // them — idempotent upserts. Second, wal_ is replaced only after the
  // truncate and the reopen BOTH succeed: a failure on either path keeps
  // the old writer installed, so later Append/Sync/Checkpoint calls get
  // an error instead of a STRIP_CHECK abort on a null writer.
  if (::truncate(wal_path_.c_str(), 0) != 0) {
    return Status::Internal(StrFormat(
        "truncate('%s') failed: %s", wal_path_.c_str(),
        std::strerror(errno)));
  }
  auto reopened = WalWriter::Open(wal_path_, lsn + 1, options_.sync);
  if (!reopened.ok()) {
    // The file is already empty, so resync the kept writer's byte/LSN
    // accounting to it (a no-op ftruncate): its O_APPEND fd continues at
    // the emptied file's end, and a later group-commit rollback must not
    // work from a stale pre-truncate size.
    Status resync = wal_->TruncateTo(0, lsn + 1);
    STRIP_LOG(WARN, "checkpoint: WAL reopen failed (%s); keeping the "
              "previous writer (accounting resync: %s)",
              reopened.status().message().c_str(),
              resync.ok() ? "ok" : resync.message().c_str());
    return reopened.status();
  }
  wal_ = std::move(*reopened);
  STRIP_LOG(INFO,
            "checkpoint: snapshot through lsn %llu with %zu pending tasks, "
            "WAL truncated",
            static_cast<unsigned long long>(lsn), snap.tasks.size());
  return CheckpointStats{lsn, snap.tasks.size()};
}

uint64_t DurableLog::next_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return wal_ == nullptr ? 1 : wal_->next_lsn();
}

uint64_t DurableLog::wal_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return wal_ == nullptr ? 0 : wal_->size_bytes();
}

}  // namespace strip
