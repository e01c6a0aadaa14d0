#!/usr/bin/env python3
"""Validate exported observability JSON against its expected schema.

Three modes:

  validate_bench_json.py BENCH_foo.json [...]
      Checks the canonical BenchReport schema every bench binary emits:
      {"name": str, "repo_rev": str, "config": obj, "metrics": obj}.
      Any embedded metrics-registry snapshot (a "registry" value) is
      checked recursively: counters/gauges/histograms with well-formed
      histogram summaries and sparse bucket lists.

  validate_bench_json.py --trace trace.json [...]
      Checks Chrome trace_event JSON as written by TraceRing.ToChromeJson
      / the shell's .trace command: displayTimeUnit plus a traceEvents
      list of "X" slices (with dur) and "i" instants.

  validate_bench_json.py --self-test
      Runs the validator against embedded good and bad documents; exits
      non-zero if a bad document slips through or a good one is rejected.

Every mode rejects NaN / Infinity (both the bare JSON literals and
overflow spellings like 1e999), negative counters, and negative bucket
counts: a metric that went non-finite or negative is a bug in the
producer, not a value to chart.

Exits non-zero with a message on the first violation. Used by the CI
observability smoke step; runnable locally on any checked-in BENCH file.
"""

import json
import math
import sys


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def _reject_constant(const):
    # json calls this for the literals NaN / Infinity / -Infinity.
    raise ValueError(f"non-finite JSON literal {const!r}")


def load_strict(path, f):
    """json.load that rejects NaN/Infinity literals AND overflow floats
    (the parser turns '1e999' into inf without consulting parse_constant)."""
    try:
        doc = json.load(f, parse_constant=_reject_constant)
    except ValueError as e:
        fail(path, f"invalid JSON: {e}")

    def scan(node, where):
        if isinstance(node, float) and not math.isfinite(node):
            fail(path, f"{where}: non-finite number")
        elif isinstance(node, dict):
            for k, v in node.items():
                scan(v, f"{where}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                scan(v, f"{where}[{i}]")

    scan(doc, "$")
    return doc


def check_registry_snapshot(path, snap, where):
    if not isinstance(snap, dict):
        fail(path, f"{where}: registry snapshot is not an object")
    if not snap:  # "{}" when metrics were disabled for the run
        return
    if "merge" in snap and "counters" not in snap:
        # Cluster snapshot (Cluster::MetricsJson): per-engine registries
        # keyed "shard0".."shardN-1" and "merge", plus cluster counters.
        for k, v in snap.items():
            if k == "merge" or k.startswith("shard"):
                check_registry_snapshot(path, v, f"{where}.{k}")
            elif not isinstance(v, int) or v < 0:
                fail(path, f"{where}: cluster counter '{k}' is not a "
                           "non-negative int")
        return
    for section in ("counters", "gauges", "histograms"):
        if section not in snap:
            fail(path, f"{where}: snapshot missing '{section}'")
        if not isinstance(snap[section], dict):
            fail(path, f"{where}: '{section}' is not an object")
    for name, v in snap["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(path, f"{where}: counter '{name}' is not a non-negative int")
    for name, v in snap["gauges"].items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(path, f"{where}: gauge '{name}' is not a finite number")
    for name, h in snap["histograms"].items():
        for field in ("count", "sum", "min", "max", "mean",
                      "p50", "p95", "p99", "buckets"):
            if field not in h:
                fail(path, f"{where}: histogram '{name}' missing '{field}'")
        if not isinstance(h["count"], int) or h["count"] < 0:
            fail(path, f"{where}: histogram '{name}' count is not a "
                       "non-negative int")
        for field in ("sum", "min", "max", "mean", "p50", "p95", "p99"):
            v = h[field]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fail(path, f"{where}: histogram '{name}' field '{field}' "
                           "is not a finite number")
        total = 0
        for bucket in h["buckets"]:
            if (not isinstance(bucket, list) or len(bucket) != 2
                    or not (bucket[0] is None or isinstance(bucket[0], int))
                    or not isinstance(bucket[1], int)):
                fail(path, f"{where}: histogram '{name}' has a malformed "
                           f"bucket {bucket!r} (want [bound|null, count])")
            if bucket[1] < 0:
                fail(path, f"{where}: histogram '{name}' bucket {bucket!r} "
                           "has a negative count")
            total += bucket[1]
        if total != h["count"]:
            fail(path, f"{where}: histogram '{name}' bucket counts sum to "
                       f"{total}, expected count={h['count']}")


def find_registries(node, where="metrics"):
    """Yields every {"registry": ...} value nested in the metrics section."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "registry":
                yield where, v
            else:
                yield from find_registries(v, f"{where}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from find_registries(v, f"{where}[{i}]")


#: Per-rule breakdown histogram families the observability bench must
#: populate (at least one non-empty histogram per prefix).
_RULE_BREAKDOWN_PREFIXES = ("rules.queue_wait_us.", "rules.lock_wait_us.",
                            "rules.exec_us.")

_WATCHDOG_STATES = ("ok", "warn", "shed")


def check_observability(path, metrics):
    """Extra checks for BENCH_observability.json: the burst-overload
    watchdog timeline must show the full ok -> shed -> ok cycle, the
    post-burst registry must carry the per-rule breakdown histograms, and
    the tracing-overhead A/B must be present and sane."""
    burst = metrics.get("burst_overload")
    if not isinstance(burst, dict):
        fail(path, "metrics missing 'burst_overload' object")
    for flag in ("reached_shed", "recovered"):
        if burst.get(flag) is not True:
            fail(path, f"burst_overload.{flag} is not true — the scenario "
                       "did not demonstrate the ok->shed->ok cycle")
    timeline = burst.get("timeline")
    if not isinstance(timeline, list) or not timeline:
        fail(path, "burst_overload.timeline is not a non-empty list")
    for i, entry in enumerate(timeline):
        where = f"burst_overload.timeline[{i}]"
        if not isinstance(entry.get("phase"), str):
            fail(path, f"{where}: missing 'phase'")
        if entry.get("state") not in _WATCHDOG_STATES:
            fail(path, f"{where}: state {entry.get('state')!r} invalid")
        if not isinstance(entry.get("verdict"), dict):
            fail(path, f"{where}: 'verdict' is not an object")
    if not any(e["state"] == "shed" for e in timeline):
        fail(path, "burst_overload.timeline never reaches 'shed'")
    if timeline[-1]["state"] != "ok":
        fail(path, "burst_overload.timeline does not end at 'ok'")
    registry = burst.get("registry")
    if not isinstance(registry, dict) or "histograms" not in registry:
        fail(path, "burst_overload.registry has no histograms")
    hists = registry["histograms"]
    for prefix in _RULE_BREAKDOWN_PREFIXES:
        populated = [n for n in hists
                     if n.startswith(prefix) and hists[n].get("count", 0) > 0]
        if not populated:
            fail(path, f"no populated per-rule histogram under '{prefix}'")
    overhead = metrics.get("tracing_overhead")
    if not isinstance(overhead, dict):
        fail(path, "metrics missing 'tracing_overhead' object")
    for field in ("wall_seconds_metrics", "wall_seconds_no_metrics",
                  "overhead_fraction"):
        v = overhead.get(field)
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            fail(path, f"tracing_overhead.{field} is not a non-negative "
                       "finite number")


def check_sharded(path, metrics):
    """Extra checks for BENCH_sharded_pta.json: every configuration's run
    entry must show an intact delta pipeline (no dropped shipments) and a
    merged view verified against the single-engine replay, and the headline
    shard-speedup fields must be present and finite."""
    runs = metrics.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(path, "metrics.runs is not a non-empty list")
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            fail(path, f"{where}: not an object")
        for field in ("shards", "firings", "deltas_shipped"):
            v = run.get(field)
            if not isinstance(v, int) or v < 0:
                fail(path, f"{where}: '{field}' is not a non-negative int")
        if run["shards"] < 1:
            fail(path, f"{where}: 'shards' must be >= 1")
        fps = run.get("firings_per_second")
        if not isinstance(fps, (int, float)) or not math.isfinite(fps) \
                or fps < 0:
            fail(path, f"{where}: 'firings_per_second' is not a "
                       "non-negative finite number")
        if run.get("staging_failed") != 0:
            fail(path, f"{where}: staging_failed is not 0 — delta "
                       "shipments were dropped on the shard->merge boundary")
        if run.get("matches_single_engine") is not True:
            fail(path, f"{where}: matches_single_engine is not true — the "
                       "merged view was not verified against the "
                       "single-engine replay")
    speedup = metrics.get("speedup_4_shards_vs_1")
    if not isinstance(speedup, (int, float)) or not math.isfinite(speedup) \
            or speedup < 0:
        fail(path, "metrics.speedup_4_shards_vs_1 is not a non-negative "
                   "finite number")
    if not isinstance(metrics.get("meets_3x_target"), bool):
        fail(path, "metrics.meets_3x_target is not a bool")


def check_server(path, metrics):
    """Extra checks for BENCH_server.json: the client-observed latency
    percentiles must be present and ordered, the admission-control block
    must show the shed path was actually exercised, the health probe must
    report a valid watchdog state, and the registry must carry populated
    per-rule staleness histograms (the metric the watchdog sheds on)."""
    client = metrics.get("client")
    if not isinstance(client, dict):
        fail(path, "metrics missing 'client' object")
    # `aborted` counts wait-die aborts: failed requests, kept apart from
    # the admission-control refusals under `shed`.
    for field in ("ops", "feed_batches", "feed_records", "execs", "aborted",
                  "errors", "last_lsn"):
        v = client.get(field)
        if not isinstance(v, int) or v < 0:
            fail(path, f"client.{field} is not a non-negative int")
    if client["ops"] < 1:
        fail(path, "client.ops is 0 — the swarm did no work")
    pcts = []
    for field in ("p50_us", "p95_us", "p99_us"):
        v = client.get(field)
        if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
            fail(path, f"client.{field} is not a non-negative finite number")
        pcts.append(v)
    if not (pcts[0] <= pcts[1] <= pcts[2]):
        fail(path, "client latency percentiles are not monotone "
                   f"(p50={pcts[0]}, p95={pcts[1]}, p99={pcts[2]})")

    shed = metrics.get("shed")
    if not isinstance(shed, dict):
        fail(path, "metrics missing 'shed' object")
    for field in ("requests_shed", "sessions_refused",
                  "overload_batches_admitted"):
        v = shed.get(field)
        if not isinstance(v, int) or v < 0:
            fail(path, f"shed.{field} is not a non-negative int")
    if shed.get("exercised") is not True:
        fail(path, "shed.exercised is not true — the run never drove the "
                   "server into admission control")
    if shed["requests_shed"] + shed["sessions_refused"] < 1:
        fail(path, "shed.exercised is true but nothing was actually shed")

    health = metrics.get("health")
    if not isinstance(health, dict):
        fail(path, "metrics missing 'health' object")
    if health.get("state") not in _WATCHDOG_STATES:
        fail(path, f"health.state {health.get('state')!r} invalid")
    if not isinstance(health.get("watchdog"), bool):
        fail(path, "health.watchdog is not a bool")

    registry = metrics.get("registry")
    if not isinstance(registry, dict) or "histograms" not in registry:
        fail(path, "metrics.registry has no histograms")
    hists = registry["histograms"]
    stale = [n for n in hists if n.startswith("rules.staleness_us.")
             and hists[n].get("count", 0) > 0]
    if not stale:
        fail(path, "no populated per-rule histogram under "
                   "'rules.staleness_us.' — the watchdog had nothing "
                   "to judge")
    if hists.get("server.request_us", {}).get("count", 0) < 1:
        fail(path, "server.request_us histogram is empty")


def check_bench(path, f=None):
    doc = load_strict(path, f if f is not None else open(path))
    for field, want in (("name", str), ("repo_rev", str),
                        ("config", dict), ("metrics", dict)):
        if field not in doc:
            fail(path, f"missing top-level '{field}'")
        if not isinstance(doc[field], want):
            fail(path, f"'{field}' is not a {want.__name__}")
    if not doc["name"]:
        fail(path, "'name' is empty")
    for where, snap in find_registries(doc["metrics"]):
        check_registry_snapshot(path, snap, where)
    if doc["name"] == "observability":
        check_observability(path, doc["metrics"])
    if doc["name"] == "sharded_pta":
        check_sharded(path, doc["metrics"])
    if doc["name"] == "server":
        check_server(path, doc["metrics"])
    print(f"{path}: ok (name={doc['name']}, rev={doc['repo_rev'][:12]})")


def check_trace(path, f=None):
    doc = load_strict(path, f if f is not None else open(path))
    if doc.get("displayTimeUnit") != "ms":
        fail(path, "missing displayTimeUnit 'ms'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(path, "'traceEvents' is not a list")
    for i, e in enumerate(events):
        for field in ("name", "cat", "ph", "ts", "pid", "tid"):
            if field not in e:
                fail(path, f"traceEvents[{i}] missing '{field}'")
        if e["ph"] not in ("X", "i"):
            fail(path, f"traceEvents[{i}] has phase {e['ph']!r} "
                       "(TraceRing only emits 'X' and 'i')")
        if e["ph"] == "X" and ("dur" not in e or e["dur"] < 1):
            fail(path, f"traceEvents[{i}] 'X' slice without positive dur")
        if e["ph"] == "i" and e.get("s") != "t":
            fail(path, f"traceEvents[{i}] instant without scope 's':'t'")
    print(f"{path}: ok ({len(events)} trace events)")


# --- self-test ---------------------------------------------------------------

_GOOD_BENCH = """{
  "name": "bench", "repo_rev": "deadbeef", "config": {},
  "metrics": {"registry": {
    "counters": {"c": 3},
    "gauges": {"g": 1.5},
    "histograms": {"h": {"count": 2, "sum": 3, "min": 1, "max": 2,
                         "mean": 1.5, "p50": 1, "p95": 2, "p99": 2,
                         "buckets": [[1, 1], [null, 1]]}}
  }}
}"""

_BAD_BENCHES = {
    "NaN literal": _GOOD_BENCH.replace('"g": 1.5', '"g": NaN'),
    "Infinity literal": _GOOD_BENCH.replace('"g": 1.5', '"g": Infinity'),
    "overflow float": _GOOD_BENCH.replace('"g": 1.5', '"g": 1e999'),
    "negative counter": _GOOD_BENCH.replace('"c": 3', '"c": -3'),
    "negative bucket count": _GOOD_BENCH.replace('[1, 1]', '[1, -1]'),
    "negative histogram count":
        _GOOD_BENCH.replace('"count": 2', '"count": -2'),
    "bucket sum mismatch": _GOOD_BENCH.replace('[1, 1]', '[1, 5]'),
}

_OBS_HIST = ('{"count": 1, "sum": 5, "min": 5, "max": 5, "mean": 5, '
             '"p50": 5, "p95": 5, "p99": 5, "buckets": [[10, 1]]}')

_GOOD_OBS_BENCH = """{
  "name": "observability", "repo_rev": "deadbeef", "config": {},
  "metrics": {
    "burst_overload": {
      "reached_shed": true, "recovered": true,
      "timeline": [
        {"phase": "baseline", "state": "ok", "verdict": {"state": "ok"}},
        {"phase": "burst", "state": "shed", "verdict": {"state": "shed"}},
        {"phase": "drain", "state": "ok", "verdict": {"state": "ok"}}
      ],
      "registry": {
        "counters": {}, "gauges": {},
        "histograms": {
          "rules.queue_wait_us.track": %s,
          "rules.lock_wait_us.track": %s,
          "rules.exec_us.track": %s
        }
      }
    },
    "tracing_overhead": {"wall_seconds_metrics": 0.5,
                         "wall_seconds_no_metrics": 0.49,
                         "overhead_fraction": 0.02,
                         "meets_5pct_target": true}
  }
}""" % (_OBS_HIST, _OBS_HIST, _OBS_HIST)

_GOOD_SHARDED_BENCH = """{
  "name": "sharded_pta", "repo_rev": "deadbeef", "config": {},
  "metrics": {
    "runs": [
      {"shards": 1, "workers": 4, "firings": 100,
       "firings_per_second": 50.0, "deltas_shipped": 20,
       "staging_failed": 0, "matches_single_engine": true,
       "registry": {}},
      {"shards": 4, "workers": 4, "firings": 100,
       "firings_per_second": 175.0, "deltas_shipped": 60,
       "staging_failed": 0, "matches_single_engine": true,
       "registry": {"num_shards": 4, "deltas_shipped": 60,
                    "shard0": {"counters": {"c": 1}, "gauges": {},
                               "histograms": {}},
                    "merge": {"counters": {}, "gauges": {},
                              "histograms": {}}}}
    ],
    "speedup_4_shards_vs_1": 3.5,
    "meets_3x_target": true
  }
}"""

_BAD_SHARDED_BENCHES = {
    "dropped shipment": _GOOD_SHARDED_BENCH.replace(
        '"staging_failed": 0, "matches_single_engine": true,\n'
        '       "registry": {}},', '"staging_failed": 2, '
        '"matches_single_engine": true,\n       "registry": {}},', 1),
    "unverified merge": _GOOD_SHARDED_BENCH.replace(
        '"matches_single_engine": true', '"matches_single_engine": false',
        1),
    "zero shards": _GOOD_SHARDED_BENCH.replace('"shards": 1', '"shards": 0'),
    "missing speedup": _GOOD_SHARDED_BENCH.replace(
        '"speedup_4_shards_vs_1"', '"speedup_gone"'),
    "no target flag": _GOOD_SHARDED_BENCH.replace(
        '"meets_3x_target": true', '"meets_3x_target": "yes"'),
    "empty runs": _GOOD_SHARDED_BENCH.replace(
        '"runs": [', '"runs_gone": [').replace(
        '"speedup_4_shards_vs_1": 3.5',
        '"runs": [], "speedup_4_shards_vs_1": 3.5'),
    "bad shard sub-snapshot": _GOOD_SHARDED_BENCH.replace(
        '"shard0": {"counters": {"c": 1}',
        '"shard0": {"counters": {"c": -1}'),
    "bad cluster counter": _GOOD_SHARDED_BENCH.replace(
        '"num_shards": 4', '"num_shards": -4'),
}

_SERVER_HIST = ('{"count": 4, "sum": 40, "min": 5, "max": 15, "mean": 10, '
                '"p50": 10, "p95": 15, "p99": 15, "buckets": [[16, 4]]}')

_GOOD_SERVER_BENCH = """{
  "name": "server", "repo_rev": "deadbeef", "config": {"clients": 2},
  "metrics": {
    "client": {"ops": 100, "feed_batches": 60, "feed_records": 480,
               "execs": 40, "aborted": 0, "errors": 0, "p50_us": 900,
               "p95_us": 2000,
               "p99_us": 3000, "last_lsn": 480},
    "shed": {"requests_shed": 3, "sessions_refused": 7,
             "overload_batches_admitted": 0, "exercised": true},
    "health": {"state": "shed", "watchdog": true},
    "registry": {
      "counters": {"server.requests": 100}, "gauges": {},
      "histograms": {
        "rules.staleness_us.maintain_quote_stats": %s,
        "server.request_us": %s
      }
    }
  }
}""" % (_SERVER_HIST, _SERVER_HIST)

_BAD_SERVER_BENCHES = {
    "shed never exercised": _GOOD_SERVER_BENCH.replace(
        '"exercised": true', '"exercised": false'),
    "shed claims without counts": _GOOD_SERVER_BENCH.replace(
        '"requests_shed": 3, "sessions_refused": 7',
        '"requests_shed": 0, "sessions_refused": 0'),
    "latency inversion": _GOOD_SERVER_BENCH.replace(
        '"p50_us": 900', '"p50_us": 9000'),
    "zero ops": _GOOD_SERVER_BENCH.replace('"ops": 100', '"ops": 0'),
    "no aborted count": _GOOD_SERVER_BENCH.replace('"aborted": 0, ', ''),
    "negative feed records": _GOOD_SERVER_BENCH.replace(
        '"feed_records": 480', '"feed_records": -1'),
    "invalid health state": _GOOD_SERVER_BENCH.replace(
        '"state": "shed"', '"state": "melted"'),
    "no staleness histogram": _GOOD_SERVER_BENCH.replace(
        '"rules.staleness_us.maintain_quote_stats"',
        '"rules.elsewhere_us.maintain_quote_stats"'),
    "empty request histogram": _GOOD_SERVER_BENCH.replace(
        '"server.request_us": {"count": 4',
        '"server.request_us": {"count": 0').replace(
        '"server.request_us": {"count": 0, "sum": 40, "min": 5, "max": 15, '
        '"mean": 10, "p50": 10, "p95": 15, "p99": 15, "buckets": [[16, 4]]}',
        '"server.request_us": {"count": 0, "sum": 0, "min": 0, "max": 0, '
        '"mean": 0, "p50": 0, "p95": 0, "p99": 0, "buckets": []}'),
}

_BAD_OBS_BENCHES = {
    "never sheds": _GOOD_OBS_BENCH.replace('"reached_shed": true',
                                           '"reached_shed": false'),
    "never recovers": _GOOD_OBS_BENCH.replace('"recovered": true',
                                              '"recovered": false'),
    "invalid timeline state": _GOOD_OBS_BENCH.replace(
        '"state": "shed", "verdict"', '"state": "panic", "verdict"'),
    "timeline ends shed": _GOOD_OBS_BENCH.replace(
        '{"phase": "drain", "state": "ok", "verdict": {"state": "ok"}}',
        '{"phase": "drain", "state": "shed", "verdict": {"state": "shed"}}'),
    "empty exec breakdown": _GOOD_OBS_BENCH.replace(
        '"rules.exec_us.track": {"count": 1',
        '"rules.exec_us.track": {"count": 0', 1).replace(
        '"rules.exec_us.track": {"count": 0, "sum": 5, "min": 5, "max": 5, '
        '"mean": 5, "p50": 5, "p95": 5, "p99": 5, "buckets": [[10, 1]]}',
        '"rules.exec_us.track": {"count": 0, "sum": 0, "min": 0, "max": 0, '
        '"mean": 0, "p50": 0, "p95": 0, "p99": 0, "buckets": []}'),
    "missing overhead": _GOOD_OBS_BENCH.replace(
        '"tracing_overhead"', '"tracing_overhead_gone"'),
    "negative overhead": _GOOD_OBS_BENCH.replace(
        '"overhead_fraction": 0.02', '"overhead_fraction": -0.02'),
}


def self_test():
    import io

    check_bench("<good>", io.StringIO(_GOOD_BENCH))
    check_bench("<good observability>", io.StringIO(_GOOD_OBS_BENCH))
    check_bench("<good sharded>", io.StringIO(_GOOD_SHARDED_BENCH))
    check_bench("<good server>", io.StringIO(_GOOD_SERVER_BENCH))

    accepted = []
    for name, doc in {**_BAD_BENCHES, **_BAD_OBS_BENCHES,
                      **_BAD_SHARDED_BENCHES,
                      **_BAD_SERVER_BENCHES}.items():
        try:
            check_bench(f"<bad: {name}>", io.StringIO(doc))
            accepted.append(name)
        except SystemExit as e:
            print(f"rejected as expected [{name}]: {e}")
    if accepted:
        sys.exit(f"self-test FAILED: accepted bad documents: {accepted}")
    print("self-test: ok")


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__)
        return 2
    if argv[1] == "--self-test":
        self_test()
        return 0
    if argv[1] == "--trace":
        if len(argv) < 3:
            sys.exit("--trace requires at least one file")
        for path in argv[2:]:
            check_trace(path)
    else:
        for path in argv[1:]:
            check_bench(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
