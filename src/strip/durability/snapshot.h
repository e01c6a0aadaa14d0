#ifndef STRIP_DURABILITY_SNAPSHOT_H_
#define STRIP_DURABILITY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/engine/database.h"

namespace strip {

/// Periodic full-state snapshot (DESIGN.md §2.6): the checkpoint half of
/// the durability story. A snapshot captures every catalog table's rows and
/// every delayed rule-action task at one pause of the executor, stamped
/// with the WAL LSN it is consistent through; recovery loads the newest
/// valid snapshot, restores the rows and then the tasks, and replays only
/// the WAL tail past its LSN. Without snapshots a long-lived server would
/// replay its entire ingest history on every restart.
///
/// The file is written to `<path>.tmp`, fsynced, and atomically renamed
/// into place, so a crash mid-checkpoint leaves the previous snapshot
/// untouched; a CRC over the whole body rejects a partially synced file.
///
/// Layout (little-endian):
///   u32 magic 'SNP1'   u32 format version (1 or 2)
///   u64 lsn            (consistent through this WAL entry, inclusive)
///   u32 body length    u32 CRC-32 of body
///   body:
///     u32 table count, then per table:
///       name (u32 len + bytes)
///       u32 column count, per column: name (u32 len + bytes) + u8 type
///       u64 row count,   per row: one tagged wire value per column
///     version 2 only — u32 pending-task count, then per task:
///       function name, u8 is_unique, u32 key arity + key values,
///       i64 remaining delay, u32 batched firings,
///       i64 oldest and newest change-time offsets,
///       u32 bound-table count, per bound table:
///         name, u32 column count, per column: name + u8 type +
///           i32 slot (-1 = materialized) + u32 offset,
///         u32 slot count, u32 extra count,
///         u64 tuple count, per tuple: per slot u32 value count
///           (0xffffffff = no record) + the pinned record's values, then
///           the extra values
///
/// Schema travels with the data so a snapshot from a mismatched schema
/// script (operator error) fails loudly at load instead of silently
/// zipping values into the wrong columns.

inline constexpr uint32_t kSnapshotMagic = 0x31504E53;  // 'SNP1'
inline constexpr uint32_t kSnapshotVersion = 2;

struct TableSnapshot {
  std::string name;
  std::vector<Column> columns;
  std::vector<std::vector<Value>> rows;
};

struct SnapshotData {
  uint64_t lsn = 0;
  std::vector<TableSnapshot> tables;
  /// Delayed rule-action tasks at the capture (none in a version-1 file).
  std::vector<PendingActionTask> tasks;
};

/// Captures every catalog table of `db` and every delayed rule-action
/// task, inside one Executor::QuiesceAndVisit pause. Armed periodic ticks
/// are skipped (the bootstrap re-creates periodic jobs at boot); any other
/// delayed task fails the capture with FailedPrecondition, since it could
/// not be re-created. The caller keeps new transactions out for the call
/// (the server holds its dispatch lock): rows are read without locks.
Result<SnapshotData> CaptureSnapshot(Database& db, uint64_t lsn);

/// Serializes and durably writes `snap` to `path` (tmp + rename + fsync).
Status WriteSnapshot(const SnapshotData& snap, const std::string& path);

/// Reads and verifies a snapshot file.
Result<SnapshotData> LoadSnapshot(const std::string& path);

/// Installs `snap`'s rows into `db`'s (already created, empty) tables,
/// bypassing transactions and rules: snapshot state already contains every
/// derived row the captured tasks have not yet written, so re-firing
/// maintenance rules here would double-apply them. Then re-submits the
/// captured tasks with their remaining delay. Fails if a table is missing,
/// non-empty, or its live schema does not match the snapshot's.
Status RestoreSnapshot(Database& db, const SnapshotData& snap);

}  // namespace strip

#endif  // STRIP_DURABILITY_SNAPSHOT_H_
