"""Per-layer metrics from a traced pass (spans written by ``traced_serve.py``).

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover.  Read-path numbers are averaged over the
read requests of the measured window, joined to the server's dispatch
spans by ``(connection, request id)``; write-path numbers cover every
write the pass made.  A layer that did no work on a workload reports 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

ID, PARENT, NAME, START, END, ATTRS = range(6)

#: Per-layer metric names and units, in reporting order.
PER_LAYER = [
    ("server.dispatch_self_ms", "ms"),
    ("server.unattributed_ms", "ms"),
    ("server.admission_wait_ms", "ms"),
    ("server.decode_ms", "ms"),
    ("server.encode_ms", "ms"),
    ("server.response_bytes", "bytes"),
    ("query.parse_ms", "ms"),
    ("service.execute_self_ms", "ms"),
    ("service.mutate_self_ms", "ms"),
    ("service.read_lock_wait_ms", "ms"),
    ("service.write_lock_wait_ms", "ms"),
    ("service.result_hit_ratio", "1"),
    ("core.optimize_ms", "ms"),
    ("core.retrieval_ms", "ms"),
    ("core.initialization_ms", "ms"),
    ("core.transformation_ms", "ms"),
    ("core.formulation_ms", "ms"),
    ("core.transformations_per_query", "count"),
    ("core.eliminated_per_query", "count"),
    ("constraints.retrieval_hit_ratio", "1"),
    ("constraints.closure_hit_ratio", "1"),
    ("engine.plan_ms", "ms"),
    ("engine.execute_self_ms", "ms"),
    ("engine.rows_per_read", "rows"),
    ("engine.instances_retrieved_per_read", "count"),
    ("engine.pointer_traversals_per_read", "count"),
    ("engine.predicate_evaluations_per_read", "count"),
    ("engine.index_lookups_per_read", "count"),
    ("engine.store_write_ms", "ms"),
    ("durability.commit_ms", "ms"),
    ("durability.fsyncs_per_write", "count"),
    ("durability.wal_bytes_per_write", "bytes"),
    ("durability.wal_bytes_per_user_byte", "1"),
    ("durability.snapshots", "count"),
    ("subscriptions.pump_ms", "ms"),
    ("subscriptions.diffs", "count"),
    ("subscriptions.resyncs", "count"),
    ("subscriptions.push_bytes", "bytes"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "1"),
    ("trace.coverage", "1"),
]


def load_spans(path: str) -> List[list]:
    with open(path) as handle:
        return json.load(handle)["spans"]


def _ms(span) -> float:
    return (span[END] - span[START]) / 1e6


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class SpanTree:
    """Spans indexed by parent."""

    def __init__(self, spans: List[list]):
        self.children: Dict[Optional[int], List[list]] = defaultdict(list)
        for span in spans:
            self.children[span[PARENT]].append(span)

    def self_ms(self, span) -> float:
        """Duration minus the union of the child intervals (clipped)."""
        intervals = sorted(
            (max(child[START], span[START]), min(child[END], span[END]))
            for child in self.children[span[ID]]
        )
        covered, cursor = 0, span[START]
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return (span[END] - span[START] - covered) / 1e6

    def descendants(self, span):
        stack = list(self.children[span[ID]])
        while stack:
            child = stack.pop()
            yield child
            stack.extend(self.children[child[ID]])


def _delta(after: Dict[str, Any], before: Dict[str, Any], key: str) -> float:
    return after["service"]["cache"][key] - before["service"]["cache"][key]


def per_layer(untraced, traced) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of ``traced`` (overhead against ``untraced``)."""
    from drive import percentile

    tree = SpanTree(traced.spans)
    by_name: Dict[str, List[list]] = defaultdict(list)
    for span in traced.spans:
        by_name[span[NAME]].append(span)
    spans_by_id = {span[ID]: span for span in traced.spans}

    # Join each measured read to its dispatch span; collect its subtree
    # from the session root (which also holds frame decode and encode).
    dispatch = {
        (span[ATTRS]["client"], span[ATTRS]["id"]): span
        for span in by_name["server.dispatch"]
        if span[ATTRS] is not None
    }
    joined: List[Tuple[Any, list]] = []
    for sample in traced.reads:
        span = dispatch.get((sample.client_id, sample.request_id))
        if sample.ok and span is not None and span[PARENT] in spans_by_id:
            joined.append((sample, span))
    reads: Dict[str, List[list]] = defaultdict(list)
    for _, span in joined:
        root = spans_by_id[span[PARENT]]
        reads[root[NAME]].append(root)
        for child in tree.descendants(root):
            reads[child[NAME]].append(child)
    n_reads = max(1, len(joined))

    def per_read(name: str) -> float:
        return sum(_ms(span) for span in reads[name]) / n_reads

    def in_window(name: str) -> List[list]:
        start, end = traced.window_ns
        return [span for span in by_name[name] if start <= span[START] < end]

    # Write-path spans: everything from the first scheduled write on.
    write_start = min((w.due_ns for w in traced.writes), default=0)

    def writing(name: str) -> List[list]:
        return [span for span in by_name[name] if span[START] >= write_start]

    parse_ms = per_read("query.parse")
    client_ms = [sample.latency_ms for sample, _ in joined]
    optimized = [span[ATTRS] for span in reads["core.optimize"] if span[ATTRS]]
    executed = [s for s in traced.reads if s.ok and s.metrics is not None]
    acked = sum(1 for w in traced.writes if w.ok)
    wal_bytes = sum(span[ATTRS]["bytes"] for span in writing("durability.wal_frame"))
    pushes = [s for s in writing("server.encode_frame") if s[ATTRS] and s[ATTRS]["push"]]
    before, after = traced.stats_before, traced.stats_after
    subscriptions = traced.stats_end.get("subscriptions", {})
    untraced_rate = sum(1 for s in untraced.reads if s.ok) / untraced.window_s
    traced_rate = sum(1 for s in traced.reads if s.ok) / traced.window_s

    def per_exec(counter: str) -> float:
        return _mean(s.metrics[counter] for s in executed)

    def phase_ms(phase: str) -> float:
        return _mean(attrs[phase] * 1e3 for attrs in optimized)

    values = {
        "server.dispatch_self_ms": _mean(tree.self_ms(span) for _, span in joined),
        "server.unattributed_ms": _mean(s.latency_ms - _ms(span) for s, span in joined),
        "server.admission_wait_ms": _mean(_ms(s) for s in in_window("server.admission_wait")),
        "server.decode_ms": per_read("server.decode_frame")
        + per_read("server.parse_request")
        - parse_ms,
        "server.encode_ms": per_read("server.payload") + per_read("server.encode_frame"),
        "server.response_bytes": _mean(sample.response_bytes for sample, _ in joined),
        "query.parse_ms": parse_ms,
        "service.execute_self_ms": _mean(tree.self_ms(s) for s in reads["service.execute"]),
        "service.mutate_self_ms": _mean(tree.self_ms(s) for s in writing("service.mutate")),
        "service.read_lock_wait_ms": _mean(_ms(s) for s in in_window("service.read_lock_wait")),
        "service.write_lock_wait_ms": _mean(_ms(s) for s in writing("service.write_lock_wait")),
        "service.result_hit_ratio": _ratio(
            _delta(after, before, "result_hits"), _delta(after, before, "result_misses")
        ),
        "core.optimize_ms": _mean(_ms(s) for s in reads["core.optimize"]),
        "core.retrieval_ms": phase_ms("retrieval"),
        "core.initialization_ms": phase_ms("initialization"),
        "core.transformation_ms": phase_ms("transformation"),
        "core.formulation_ms": phase_ms("formulation"),
        "core.transformations_per_query": _mean(a["transformations"] for a in optimized),
        "core.eliminated_per_query": _mean(a["eliminated"] for a in optimized),
        "constraints.retrieval_hit_ratio": _ratio(
            _delta(after, before, "retrieval_hits"), _delta(after, before, "retrieval_misses")
        ),
        "constraints.closure_hit_ratio": _ratio(
            _delta(after, before, "closure_hits"), _delta(after, before, "closure_misses")
        ),
        "engine.plan_ms": _mean(_ms(s) for s in reads["engine.plan"]),
        "engine.execute_self_ms": _mean(tree.self_ms(s) for s in reads["engine.execute"]),
        "engine.rows_per_read": _mean(s.rows for s in executed),
        "engine.instances_retrieved_per_read": per_exec("instances_retrieved"),
        "engine.pointer_traversals_per_read": per_exec("pointer_traversals"),
        "engine.predicate_evaluations_per_read": per_exec("predicate_evaluations"),
        "engine.index_lookups_per_read": per_exec("index_lookups"),
        "engine.store_write_ms": _mean(_ms(s) for s in writing("engine.store_write")),
        "durability.commit_ms": _mean(_ms(s) for s in writing("durability.commit")),
        "durability.fsyncs_per_write": len(writing("durability.fsync")) / acked if acked else 0.0,
        "durability.wal_bytes_per_write": wal_bytes / acked if acked else 0.0,
        "durability.wal_bytes_per_user_byte": (
            wal_bytes / traced.write_user_bytes if traced.write_user_bytes else 0.0
        ),
        "durability.snapshots": float(len(by_name["durability.snapshot"])),
        "subscriptions.pump_ms": _mean(_ms(s) for s in writing("subscriptions.pump")),
        "subscriptions.diffs": float(subscriptions.get("diffs", 0)),
        "subscriptions.resyncs": float(subscriptions.get("resyncs", 0)),
        "subscriptions.push_bytes": _mean(s[ATTRS]["bytes"] for s in pushes),
        "loadgen.late_p99_ms": percentile(traced.late_ms, 0.99),
        "trace.overhead_ratio": traced_rate / untraced_rate if untraced_rate else 0.0,
        "trace.coverage": (
            sum(_ms(s) for s in reads["server.session"]) / sum(client_ms) if client_ms else 0.0
        ),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
