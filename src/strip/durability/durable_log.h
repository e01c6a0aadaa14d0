#ifndef STRIP_DURABILITY_DURABLE_LOG_H_
#define STRIP_DURABILITY_DURABLE_LOG_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "strip/common/status.h"
#include "strip/durability/snapshot.h"
#include "strip/durability/wal.h"
#include "strip/engine/database.h"

namespace strip {

/// The durability manager behind strip_server (DESIGN.md §2.6): one data
/// directory holding the feed WAL (`feed.wal`) and the latest checkpoint
/// (`state.snap`), with the recovery procedure that rebuilds a kill -9'd
/// server:
///
///   1. re-run the schema script (tables, views, rules — code, not data;
///      the caller does this before Recover());
///   2. load the newest valid snapshot and install its rows directly,
///      rules NOT firing (derived rows are already in the snapshot), then
///      re-submit the rule-action tasks that were waiting in their delay
///      windows at the checkpoint, with their remaining delay;
///   3. replay WAL entries past the snapshot LSN through the ordinary
///      FeedImporter path, rules firing — the replayed firings merge into
///      the restored unique tasks exactly as the live ones did, and
///      rebuild the tasks created after the checkpoint;
///   4. truncate any torn WAL tail (records never acknowledged) and
///      reopen the log for appending.
///
/// Exactly-once at the boundary: a client's FeedAppend is acknowledged
/// with the LSN its batch is durable through, only after fdatasync. A
/// crash before the ack loses at most unacknowledged records (the client
/// retries); a crash after the ack replays the batch — and because feed
/// records are keyed upserts applied in LSN order, replay is idempotent.
class DurableLog {
 public:
  struct Options {
    std::string dir;  // must exist
    WalSyncPolicy sync = WalSyncPolicy::kManual;
  };

  /// Resolves the importer that applies replayed records for `table`
  /// (the server's per-feed-table FeedImporter registry).
  using ImporterResolver =
      std::function<Result<FeedImporter*>(const std::string& table)>;

  struct RecoveryStats {
    bool snapshot_loaded = false;
    uint64_t snapshot_lsn = 0;
    uint64_t snapshot_rows = 0;
    uint64_t snapshot_tasks = 0;  // pending rule-action tasks restored
    uint64_t entries_replayed = 0;
    /// Replayed entries that failed validation against the current schema
    /// (skipped with a WARN instead of refusing to boot — the live server
    /// validates batches before logging, so these can only come from an
    /// older build's WAL or a schema change).
    uint64_t entries_skipped = 0;
    uint64_t torn_bytes_discarded = 0;
    uint64_t next_lsn = 1;
  };

  explicit DurableLog(Options options);

  /// Runs recovery against `db` (whose schema script must already have
  /// run) and opens the WAL for appending. Must be called exactly once,
  /// before Append/Sync/Checkpoint. Replayed records are submitted through
  /// `resolver`'s importers; the caller drains the executor afterwards if
  /// it wants recovery fully applied before serving (the server does).
  Result<RecoveryStats> Recover(Database& db,
                                const ImporterResolver& resolver);

  /// Appends one feed record; returns its LSN. Durable per the sync
  /// policy; under kManual call Sync() before acknowledging.
  Result<uint64_t> Append(const std::string& table, const FeedRecord& rec);

  /// Forces appended entries to stable storage (group commit point).
  Status Sync();

  /// Rolls the log back to a position captured (via wal_bytes() /
  /// next_lsn()) before a batch: the server's group-commit abort path. A
  /// batch whose append or sync failed midway is cut back out so the log
  /// never holds entries the client was told failed.
  Status RollbackTo(uint64_t wal_bytes, uint64_t next_lsn);

  struct CheckpointStats {
    uint64_t lsn = 0;           // the snapshot is consistent through it
    size_t pending_tasks = 0;   // delayed rule-action tasks captured
  };

  /// Writes a snapshot consistent through everything appended so far and
  /// truncates the WAL. The caller keeps new transactions and appends out
  /// for the call; the executor is paused only for the capture (see
  /// CaptureSnapshot), and pending rule tasks stay pending. On failure
  /// nothing is written and the WAL is kept.
  Result<CheckpointStats> Checkpoint(Database& db);

  /// One past the last appended entry.
  uint64_t next_lsn() const;

  /// Current WAL size (the checkpoint trigger the server polls).
  uint64_t wal_bytes() const;

  const std::string& wal_path() const { return wal_path_; }
  const std::string& snapshot_path() const { return snapshot_path_; }

 private:
  Options options_;
  std::string wal_path_;
  std::string snapshot_path_;

  mutable std::mutex mu_;
  std::unique_ptr<WalWriter> wal_;  // null until Recover
};

}  // namespace strip

#endif  // STRIP_DURABILITY_DURABLE_LOG_H_
