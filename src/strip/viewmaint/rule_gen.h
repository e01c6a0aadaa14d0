#ifndef STRIP_VIEWMAINT_RULE_GEN_H_
#define STRIP_VIEWMAINT_RULE_GEN_H_

#include <functional>
#include <string>
#include <vector>

#include "strip/common/status.h"
#include "strip/engine/prepared_statement.h"
#include "strip/feed/feed.h"
#include "strip/sql/ast.h"

namespace strip {

class Database;

/// Options for generated maintenance rules. The paper's §8 conjectures
/// that the [CW91] approach of deriving maintenance rules from view
/// definitions extends to deriving the unit of batching and the delay
/// window as well; this module implements that conjecture for the view
/// shapes the evaluation uses:
///
///  - aggregation views:  SELECT g, SUM(e)... [, COUNT(*)]
///                        FROM fact [, dims...] WHERE equi-joins GROUP BY g
///    maintained from the bound-table delta. Three derivation strategies,
///    picked automatically:
///      * direct     — no dimensions: deltas keyed by the group column;
///      * dim-probe  — one dimension, group key and weights on the
///        dimension side (the comp_prices shape): the condition query
///        projects only fact-local delta columns, and the action probes
///        the dimension through a prepared index lookup per net key — the
///        compute_comps3 pattern of §4.3, generated;
///      * join-in-condition — general fallback: the condition query joins
///        the dimensions at commit time and emits per-group deltas.
///    All strategies fold same-key deltas (rules/net_effect) before
///    applying, so a batched unique transaction applies one net delta per
///    group: maintenance cost O(|delta|), not O(|group|).
///
///  - projection views:   SELECT k, exprs... FROM fact [, dims...]
///                        WHERE equi-joins
///    maintained by recomputing affected rows (e.g. Black-Scholes option
///    prices), like do_options.
///
/// Known fallback limitation: with several dimensions (join-in-condition
/// strategy), an UPDATE that changes the fact-side join key matches the
/// old image against the new image's dimension rows. The dim-probe
/// strategy handles join-key updates exactly (old and new keys are probed
/// separately).
struct RuleGenOptions {
  /// Batch with a unique transaction. When true and `unique_columns` is
  /// empty, the generator picks the unit of batching itself: the delta
  /// key — the view's group column (direct / join strategies) or the fact
  /// join key (dim-probe) — "just large enough to take advantage of the
  /// redundancy in the recomputation but no larger" (§8).
  bool unique = true;
  std::vector<std::string> unique_columns;
  double delay_seconds = 1.0;
  /// Aggregation views only: also generate rules maintaining the view
  /// under INSERTs and DELETEs of fact rows (delta = +e for inserts,
  /// -e for deletes; a delta for a group not yet in the view inserts the
  /// row).
  bool handle_insert_delete = true;
  /// Aggregation views only (and only with handle_insert_delete): track
  /// membership in a hidden per-group `_count` column on the backing
  /// table, and delete a group's row once its count reaches zero — fixing
  /// the documented [CW91] limitation where a fully-deleted group left a
  /// zero-sum row behind. Row deletion is deferred to the first
  /// maintenance firing that sees no queued sibling tasks, so out-of-order
  /// batched firings can never erase a group that a pending delta will
  /// resurrect.
  bool track_group_count = true;
  /// Generated delta rules maintain the view under FACT-table changes
  /// only; dimension tables are assumed slowly changing (§3). With this
  /// set, the generator also installs a rule on every dimension table
  /// whose action recomputes the view from scratch (RefreshView), bumps
  /// the `viewmaint.dim_fallback_recompute` counter, and logs a warning —
  /// so a dim change is correct but visibly expensive in `.metrics`,
  /// instead of silently leaving the view stale.
  bool dim_change_fallback = true;
};

/// What the generator produced (for inspection / documentation).
struct GeneratedRule {
  std::string rule_name;       // the primary (update-event) rule
  std::string function_name;
  std::string rule_sql;        // display form of the primary rule
  /// Companion rules for insert/delete events (aggregation views with
  /// handle_insert_delete).
  std::vector<std::string> extra_rule_names;
  /// Which derivation the generator picked: "direct", "dim-probe",
  /// "join-in-condition", or "projection".
  std::string strategy;
  /// The prepared statements the actions address view rows with, by key
  /// (aggregation: update, AVG read, count check, erase — those
  /// generated; projection: the keyed update). The generator indexes the
  /// view's key column first, so each plans an index probe (PlanNotes).
  std::vector<PreparedStatementPtr> key_statements;
};

/// Generates and installs the maintenance rule + action function for the
/// materialized view `view_name` with respect to updates of `fact_table`
/// (the table whose changes drive maintenance; other FROM tables are
/// treated as slowly changing dimensions, as the paper does for
/// comps_list / options_list, §3).
Result<GeneratedRule> GenerateMaintenanceRule(Database& db,
                                              const std::string& view_name,
                                              const std::string& fact_table,
                                              const RuleGenOptions& options);

// ---------------------------------------------------------------------------
// Two-tier maintenance across the cluster's shard boundary (DESIGN.md §2.5)
// ---------------------------------------------------------------------------
// Tier 1 is the ordinary generated rule set above, keeping a PARTIAL
// SUM/`_count` aggregate view on each shard from that shard's slice of the
// fact table. Tier 2 watches the partial view itself: export rules fold
// each window's changes to net group deltas (rules/net_effect) and ship
// them — encoded as feed records in the EncodeGroupDeltaRow staging-row
// layout — to the merge engine, whose merge rule folds the staged deltas
// again and applies them to the top-level view. Both hops stay in delta
// form (DBSP-style composition): recomputed groups never cross the
// boundary.

/// Receives each folded group delta leaving the shard, as a feed record in
/// the staging-row layout. The cluster's sink wire-encodes the record,
/// crosses the shard boundary as bytes, and submits the decoded record to
/// the merge engine's staging importer.
using ShardDeltaSink = std::function<Status(const FeedRecord&)>;

struct ShardExportOptions {
  /// Stamped into the high bits of every `_seq` this shard emits, making
  /// staged rows unique across the cluster.
  int shard_id = 0;
  /// Export batching window: one shipment per window, folding everything
  /// the tier-1 rules did to the partial view meanwhile.
  double delay_seconds = 0.5;
};

struct ShardExportSpec {
  std::vector<std::string> rule_names;      // _upd / _ins / _del
  std::vector<std::string> function_names;
};

/// Installs the tier-2 export rules on a shard engine, watching the
/// backing table of `view_name` (a maintained SUM/COUNT aggregation view
/// with the hidden `_count` — AVG partials are rejected, quotients do not
/// ship as deltas). Call after GenerateMaintenanceRule.
Result<ShardExportSpec> GenerateShardDeltaExport(
    Database& db, const std::string& view_name,
    const ShardExportOptions& options, ShardDeltaSink sink);

struct MergeRuleOptions {
  /// Merge-side batching window: staged deltas accumulating within it are
  /// folded into one application pass over the top-level view.
  double delay_seconds = 0.5;
};

struct MergeRuleSpec {
  std::string staging_table;  // `<view>_deltas`, keyed + indexed on _seq
  std::string rule_name;
  std::string function_name;
};

/// Installs the tier-2 merge side on the merge engine: creates the staging
/// table for `view_table` (which must already exist there with the shard
/// partial views' column layout — group key first, SUM columns, `_count`
/// last) and the merge rule applying folded staged deltas to it. Groups
/// whose `_count` reaches zero are erased by the same deferred sweep the
/// tier-1 rules use.
Result<MergeRuleSpec> GenerateMergeRule(Database& db,
                                        const std::string& view_table,
                                        const MergeRuleOptions& options);

}  // namespace strip

#endif  // STRIP_VIEWMAINT_RULE_GEN_H_
