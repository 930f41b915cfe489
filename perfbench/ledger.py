"""Turn the traced run's spans and STATS deltas into per-layer metrics.

Spans are attributed to the operation whose client-side window contains
their start, on the same connection (session spawn index).  A layer's
self time is its span's duration minus the part of that interval its
child spans cover; an asyncio span (the router's per-frame route) has as
children the same operation's top-level spans of its process that start
inside it.  ``unattributed_share`` is the share of client latency that
no span of any process covers: socket, event loop and queueing time that
a later in-program span must name.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from workloads import OP_TYPES

#: Span name -> layer column of the printed ledger.
LAYERS = (
    "sql.parse",
    "engine.compile",
    "engine.execute_plan",
    "kernels",
    "semi_open.evaluate",
    "reweight.ipf",
    "open_world.evaluate",
    "generator.fit",
    "generator.generate",
    "core.execute",
    "locks.read_wait",
    "locks.write_wait",
    "server.encode",
    "client.decode",
    "fleet.route",
    "fleet.shard_call",
    "fleet.decode",
    "fleet.gather",
    "fleet.encode",
    "storage.wal_append",
    "storage.checkpoint",
    "storage.write_page",
    "storage.fsync",
)

#: (per-layer metric, unit).  Printed for every workload; a layer the
#: workload never reaches reads 0.
PER_LAYER = (
    ("sql.parse_ms", "ms"),
    ("sql.parse_calls", "count"),
    ("engine.compile_ms", "ms"),
    ("engine.execute_plan_ms", "ms"),
    ("caches.plan_hit_ratio", "ratio"),
    ("caches.statement_hit_ratio", "ratio"),
    ("kernels.ms", "ms"),
    ("kernels.calls", "count"),
    ("kernels.rows_per_ms", "rows/ms"),
    ("semi_open.ms", "ms"),
    ("reweight.ipf_ms", "ms"),
    ("reweight.ipf_calls_per_op", "count"),
    ("reweight.ipf_iterations", "count"),
    ("caches.reweight_hit_ratio", "ratio"),
    ("open_world.self_ms", "ms"),
    ("open.repetitions_used", "count"),
    ("open_adaptive.early_stop_ratio", "ratio"),
    ("generator.fit_ms", "ms"),
    ("generator.fit_calls_per_op", "count"),
    ("generator.generate_ms", "ms"),
    ("generator.rows_per_op", "rows"),
    ("caches.generator_hit_ratio", "ratio"),
    ("core.execute_ms", "ms"),
    ("locks.read_wait_ms", "ms"),
    ("locks.write_wait_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.encode_bytes", "bytes"),
    ("client.decode_ms", "ms"),
    ("wire.residual_ms", "ms"),
    ("fleet.scatter_ms", "ms"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.merge_ms", "ms"),
    ("fleet.partial_bytes", "bytes"),
    ("fleet.retries", "count"),
    ("storage.wal_append_ms", "ms"),
    ("storage.wal_bytes_per_write", "bytes"),
    ("storage.fsyncs_per_write", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoints", "count"),
    ("storage.write_amplification", "ratio"),
    ("unattributed_share", "ratio"),
    *((f"unattributed_share.{op}", "ratio") for op in OP_TYPES),
    ("trace.overhead_pct", "%"),
)

#: Per-layer metric -> (end-to-end metric and workload it should move,
#: one pairing where it should not move).  Printed with the traced run.
PREDICTIONS = (
    ("sql.parse_ms", "semi_open_p50_ms @ closed_scan", "open_p50_ms @ fleet_scatter"),
    ("sql.parse_calls", "write_p50_ms @ ingest_refit", "closed_p50_ms @ closed_scan"),
    ("engine.compile_ms", "closed_p50_ms @ closed_scan", "write_p50_ms @ ingest_refit"),
    ("engine.execute_plan_ms", "closed_p50_ms @ closed_scan", "write_p50_ms @ ingest_refit"),
    ("caches.plan_hit_ratio", "closed_p50_ms @ closed_scan", "write_p50_ms @ ingest_refit"),
    ("caches.statement_hit_ratio", "semi_open_p50_ms @ closed_scan", "open_p50_ms @ fleet_scatter"),
    ("kernels.ms", "closed_p50_ms @ closed_scan", "write_p50_ms @ ingest_refit"),
    ("kernels.calls", "closed_p50_ms @ fleet_scatter", "write_p50_ms @ ingest_refit"),
    ("kernels.rows_per_ms", "closed_tail_ms @ closed_scan", "semi_open_p50_ms @ closed_scan"),
    ("semi_open.ms", "semi_open_p50_ms @ ingest_refit", "closed_p50_ms @ closed_scan"),
    ("reweight.ipf_ms", "semi_open_p50_ms @ ingest_refit", "semi_open_p50_ms @ closed_scan"),
    ("reweight.ipf_calls_per_op", "semi_open_tail_ms @ ingest_refit", "semi_open_p50_ms @ closed_scan"),
    ("reweight.ipf_iterations", "semi_open_p50_ms @ ingest_refit", "closed_p50_ms @ closed_scan"),
    ("caches.reweight_hit_ratio", "semi_open_p50_ms @ ingest_refit", "semi_open_p50_ms @ closed_scan"),
    ("open_world.self_ms", "open_p50_ms @ fleet_scatter", "closed_p50_ms @ closed_scan"),
    ("open.repetitions_used", "open_adaptive_p50_ms @ fleet_scatter", "open_p50_ms @ fleet_scatter"),
    ("open_adaptive.early_stop_ratio", "open_adaptive_p50_ms @ fleet_scatter", "open_p50_ms @ closed_scan"),
    ("generator.fit_ms", "open_p50_ms @ ingest_refit", "open_p50_ms @ closed_scan"),
    ("generator.fit_calls_per_op", "setup_s @ fleet_scatter", "open_p50_ms @ closed_scan"),
    ("generator.generate_ms", "open_p50_ms @ fleet_scatter", "closed_p50_ms @ closed_scan"),
    ("generator.rows_per_op", "open_adaptive_p50_ms @ fleet_scatter", "closed_p50_ms @ closed_scan"),
    ("caches.generator_hit_ratio", "open_p50_ms @ ingest_refit", "open_p50_ms @ closed_scan"),
    ("core.execute_ms", "semi_open_p50_ms @ closed_scan", "wide_p50_ms @ closed_scan"),
    ("locks.read_wait_ms", "closed_tail_ms @ ingest_refit", "open_p50_ms @ fleet_scatter"),
    ("locks.write_wait_ms", "write_tail_ms @ ingest_refit", "closed_p50_ms @ closed_scan"),
    ("server.encode_ms", "wide_p50_ms @ closed_scan", "open_p50_ms @ fleet_scatter"),
    ("server.encode_bytes", "wide_p50_ms @ closed_scan", "semi_open_p50_ms @ closed_scan"),
    ("client.decode_ms", "wide_p50_ms @ closed_scan", "open_p50_ms @ fleet_scatter"),
    ("wire.residual_ms", "semi_open_p50_ms @ closed_scan", "open_p50_ms @ fleet_scatter"),
    ("fleet.scatter_ms", "closed_p50_ms @ fleet_scatter", "closed_p50_ms @ closed_scan"),
    ("fleet.shard_skew", "closed_tail_ms @ fleet_scatter", "closed_tail_ms @ closed_scan"),
    ("fleet.merge_ms", "wide_p50_ms @ fleet_scatter", "wide_p50_ms @ closed_scan"),
    ("fleet.partial_bytes", "wide_p50_ms @ fleet_scatter", "semi_open_p50_ms @ ingest_refit"),
    ("fleet.retries", "closed_tail_ms @ fleet_scatter", "closed_tail_ms @ ingest_refit"),
    ("storage.wal_append_ms", "write_p50_ms @ ingest_refit", "write_p50_ms @ closed_scan"),
    ("storage.wal_bytes_per_write", "write_p50_ms @ ingest_refit", "write_p50_ms @ fleet_scatter"),
    ("storage.fsyncs_per_write", "write_tail_ms @ ingest_refit", "write_tail_ms @ closed_scan"),
    ("storage.checkpoint_ms", "write_tail_ms @ ingest_refit", "write_tail_ms @ fleet_scatter"),
    ("storage.checkpoints", "write_tail_ms @ ingest_refit", "closed_p50_ms @ closed_scan"),
    ("storage.write_amplification", "write_p50_ms @ ingest_refit", "write_p50_ms @ closed_scan"),
)


class OpWindow:
    __slots__ = ("kind", "conn", "t0", "t1", "spans", "repetitions")

    def __init__(self, kind, conn, t0, t1, repetitions=None):
        self.kind = kind
        self.conn = conn
        self.t0 = t0
        self.t1 = t1
        self.spans = []
        self.repetitions = repetitions


def _union_length(intervals, low, high) -> float:
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def attribute(ops: list, processes: list) -> None:
    """Attach each (process, span) to the op whose window holds its start."""
    by_conn = defaultdict(list)
    for op in ops:
        by_conn[op.conn].append(op)
    starts = {}
    for conn, conn_ops in by_conn.items():
        conn_ops.sort(key=lambda op: op.t0)
        starts[conn] = [op.t0 for op in conn_ops]
    for process, spans in processes:
        self_ms = _self_times(spans)
        for span in spans:
            span_id, name, start, end, parent, conn, extra = span
            conn_ops = by_conn.get(conn)
            if not conn_ops:
                continue
            index = bisect.bisect_right(starts[conn], start) - 1
            if index < 0:
                continue
            op = conn_ops[index]
            if start > op.t1:
                continue
            op.spans.append((process, name, start, end, self_ms[span_id], extra, parent))


def _self_times(spans: list) -> dict:
    children = defaultdict(list)
    asyncs = []
    for span in spans:
        span_id, name, start, end, parent, conn, extra = span
        if parent >= 0:
            children[parent].append((start, end))
        elif parent == -2:
            asyncs.append(span)
    # Top-level spans inside an asyncio span of the same connection are
    # its children (the router's executor calls, gather and encode).
    top = sorted(
        (span for span in spans if span[4] == -1), key=lambda span: span[2]
    )
    top_starts = [span[2] for span in top]
    for span_id, name, start, end, parent, conn, extra in asyncs:
        low = bisect.bisect_left(top_starts, start)
        high = bisect.bisect_right(top_starts, end)
        children[span_id].extend(
            (child[2], child[3]) for child in top[low:high] if child[5] == conn
        )
    result = {}
    for span_id, name, start, end, parent, conn, extra in spans:
        covered = _union_length(children.get(span_id, ()), start, end)
        result[span_id] = (end - start) - covered
    return result


def compute(ops: list, counters: dict, writes_payload: int, overhead_pct: float):
    """Per-layer metrics (JSON) and the per-op-type ledger rows (printed)."""
    total_ops = max(1, len(ops))
    by_kind = defaultdict(list)
    for op in ops:
        by_kind[op.kind].append(op)

    self_ms = defaultdict(float)  # layer -> self ms over all ops
    calls = defaultdict(int)
    duration_ms = defaultdict(float)
    extras = defaultdict(float)
    kind_self = defaultdict(lambda: defaultdict(float))
    semi_ipf_calls = 0  # rakes; BayesNet fits run IPF too, under OPEN ops
    attributed_ms = 0.0
    latency_ms = 0.0
    kind_attr = defaultdict(lambda: [0.0, 0.0])
    ipf_iterations = 0
    rows_in_kernels = 0.0
    rows_generated = 0.0
    scatter = []  # (max shard ms, min shard ms, merge ms, partial bytes)
    for op in ops:
        latency = (op.t1 - op.t0) * 1e3
        covered = _union_length(
            [(span[2], span[3]) for span in op.spans], op.t0, op.t1
        ) * 1e3
        latency_ms += latency
        attributed_ms += covered
        kind_attr[op.kind][0] += latency
        kind_attr[op.kind][1] += covered
        shard_calls = []
        merge = None
        partial_bytes = 0
        for process, name, start, end, own, extra, parent in op.spans:
            self_ms[name] += own * 1e3
            duration_ms[name] += (end - start) * 1e3
            calls[name] += 1
            kind_self[op.kind][name] += own * 1e3
            if name == "reweight.ipf":
                ipf_iterations += extra or 0
                semi_ipf_calls += op.kind == "semi_open"
            elif name == "kernels":
                rows_in_kernels += extra or 0
            elif name == "generator.generate":
                rows_generated += extra or 0
            elif name in ("server.encode", "storage.wal_append", "storage.write_page"):
                extras[name] += extra or 0
            elif name == "fleet.shard_call":
                shard_calls.append((end - start) * 1e3)
            elif name == "fleet.gather":
                merge = (merge or 0.0) + (end - start) * 1e3
            elif name == "fleet.decode":
                partial_bytes += extra or 0
        if merge is not None:  # a scattered SELECT (fan-out writes have no gather)
            scatter.append((max(shard_calls), min(shard_calls), merge, partial_bytes))

    semi_ops = len(by_kind["semi_open"])
    open_ops = by_kind["open"] + by_kind["open_adaptive"]
    writes = len(by_kind["write"])
    checkpoints = calls["storage.checkpoint"]

    def per(value, count):
        return value / count if count else 0.0

    def ratio(section):
        hits, misses = counters.get(section, (0, 0))
        return per(hits, hits + misses)

    reps = [op.repetitions for op in open_ops if op.repetitions is not None]
    runs, early = counters.get("open_adaptive", (0, 0))
    metrics = {
        "sql.parse_ms": per(self_ms["sql.parse"], total_ops),
        "sql.parse_calls": per(calls["sql.parse"], total_ops),
        "engine.compile_ms": per(self_ms["engine.compile"], total_ops),
        "engine.execute_plan_ms": per(self_ms["engine.execute_plan"], total_ops),
        "caches.plan_hit_ratio": ratio("plans"),
        "caches.statement_hit_ratio": ratio("statements"),
        "kernels.ms": per(self_ms["kernels"], total_ops),
        "kernels.calls": per(calls["kernels"], total_ops),
        "kernels.rows_per_ms": per(rows_in_kernels, duration_ms["kernels"]),
        "semi_open.ms": per(self_ms["semi_open.evaluate"], semi_ops),
        "reweight.ipf_ms": per(self_ms["reweight.ipf"], total_ops),
        "reweight.ipf_calls_per_op": per(semi_ipf_calls, semi_ops),
        "reweight.ipf_iterations": per(ipf_iterations, calls["reweight.ipf"]),
        "caches.reweight_hit_ratio": ratio("reweights"),
        "open_world.self_ms": per(self_ms["open_world.evaluate"], len(open_ops)),
        "open.repetitions_used": per(sum(reps), len(reps)),
        "open_adaptive.early_stop_ratio": per(early, runs),
        "generator.fit_ms": per(self_ms["generator.fit"], len(open_ops)),
        "generator.fit_calls_per_op": per(calls["generator.fit"], len(open_ops)),
        "generator.generate_ms": per(self_ms["generator.generate"], len(open_ops)),
        "generator.rows_per_op": per(rows_generated, len(open_ops)),
        "caches.generator_hit_ratio": ratio("generators"),
        "core.execute_ms": per(self_ms["core.execute"], total_ops),
        "locks.read_wait_ms": per(self_ms["locks.read_wait"], total_ops),
        "locks.write_wait_ms": per(self_ms["locks.write_wait"], total_ops),
        "server.encode_ms": per(self_ms["server.encode"], total_ops),
        "server.encode_bytes": per(extras["server.encode"], total_ops),
        "client.decode_ms": per(self_ms["client.decode"], total_ops),
        "wire.residual_ms": per(latency_ms - attributed_ms, total_ops),
        "fleet.scatter_ms": per(sum(s[0] for s in scatter), len(scatter)),
        "fleet.shard_skew": per(sum(s[0] / max(s[1], 1e-9) for s in scatter), len(scatter)),
        "fleet.merge_ms": per(sum(s[2] for s in scatter), len(scatter)),
        "fleet.partial_bytes": per(sum(s[3] for s in scatter), len(scatter)),
        "fleet.retries": float(counters.get("retries", 0)),
        "storage.wal_append_ms": per(duration_ms["storage.wal_append"], writes),
        "storage.wal_bytes_per_write": per(extras["storage.wal_append"], writes),
        "storage.fsyncs_per_write": per(calls["storage.fsync"], writes),
        "storage.checkpoint_ms": per(duration_ms["storage.checkpoint"], checkpoints),
        "storage.checkpoints": float(checkpoints),
        "storage.write_amplification": per(
            extras["storage.wal_append"] + extras["storage.write_page"], writes_payload
        ),
        "unattributed_share": 1.0 - per(attributed_ms, latency_ms),
        "trace.overhead_pct": overhead_pct,
    }
    for kind in OP_TYPES:
        latency, covered = kind_attr[kind]
        metrics[f"unattributed_share.{kind}"] = 1.0 - per(covered, latency) if latency else 0.0

    rows = []
    for kind in OP_TYPES:
        kind_ops = by_kind[kind]
        if not kind_ops:
            continue
        latencies = sorted((op.t1 - op.t0) * 1e3 for op in kind_ops)
        latency, covered = kind_attr[kind]
        row = {
            "op": kind,
            "n": len(kind_ops),
            "p50_ms": latencies[len(latencies) // 2],
            "unattributed_share": 1.0 - per(covered, latency),
        }
        for layer in LAYERS:
            row[layer] = per(kind_self[kind][layer], len(kind_ops))
        rows.append(row)
    return metrics, rows


def format_ledger(rows: list) -> list:
    """The per-op-type ledger as printable lines (layers with time only)."""
    used = [layer for layer in LAYERS if any(row[layer] > 0.0005 for row in rows)]
    lines = ["per-op ledger (self ms per op; traced run)"]
    header = ["op", "n", "p50_ms", "unattr"] + used
    lines.append("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        cells = [row["op"], str(row["n"]), f"{row['p50_ms']:.3f}", f"{row['unattributed_share']:.3f}"]
        cells += [f"{row[layer]:.3f}" for layer in used]
        lines.append("  ".join(f"{c:>14}" for c in cells))
    return lines


def format_predictions() -> list:
    lines = ["prediction table (per-layer metric: should move / should not move)"]
    for metric, moves, stays in PREDICTIONS:
        lines.append(f"  {metric:32} moves {moves:40} not {stays}")
    return lines
