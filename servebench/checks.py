"""Correctness checks, run outside the timed window.

Each check compares what the server answered with an in-process
reference built from the same generated database (data seed 7), and
returns a list of human-readable failures (empty = passed).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from drive import exec_ops
from wire import Connection, RequestFailed
from workloads import (
    VIEW_QUERY,
    canonical,
    reference_service,
    rows_digest,
    served_setup,
    wire_query,
)

from repro.query.equivalence import equivalence_key
from repro.query.formatter import format_query
from repro.query.parser import parse_query

#: Requests in flight per round of a check lap.
CHUNK = 50


async def fan_out(conns: List[Connection], texts: List[str], op: str) -> List[Dict[str, Any]]:
    """Send ``op`` for every text, striped over the connections; results in order."""
    results: List[Optional[Dict[str, Any]]] = [None] * len(texts)

    async def worker(conn: Connection, offset: int) -> None:
        for index in range(offset, len(texts), len(conns)):
            results[index] = (await conn.call({"op": op, "query": texts[index]})).result

    await asyncio.gather(*(worker(conn, i) for i, conn in enumerate(conns)))
    return results  # type: ignore[return-value]


async def _executions(conns: List[Connection], texts: List[str]):
    """Execute every text once, :data:`CHUNK` at a time; yields (text, result)."""
    for begin in range(0, len(texts), CHUNK):
        batch = texts[begin : begin + CHUNK]
        for pair in zip(batch, await fan_out(conns, batch, "execute")):
            yield pair


async def served_executions(
    conns: List[Connection], texts: List[str]
) -> Tuple[List[int], List[int], List[str]]:
    """Operation counts, row counts and :func:`rows_digest` of one served
    execute per text."""
    ops, rows, digests = [], [], []
    async for _, result in _executions(conns, texts):
        ops.append(exec_ops(result["metrics"]))
        rows.append(result["row_count"])
        digests.append(rows_digest(result["rows"]))
    return ops, rows, digests


async def check_optimized(conns: List[Connection], db: str, texts: List[str]) -> List[str]:
    """Each served ``optimized_query`` equals the in-process optimizer's output.

    The server's result cache is keyed structurally, so a query whose
    structural twin was optimized first is answered with the twin's list
    ordering; such an answer must still be structurally equal.
    """
    optimizer = reference_service(db).optimizer
    schema = served_setup(db).schema
    served = await fan_out(conns, texts, "optimize")
    failures = []
    for text, result in zip(texts, served):
        expected = format_query(optimizer.optimize(wire_query(text, schema)).optimized)
        got = result["optimized_query"]
        if got != expected and equivalence_key(parse_query(got)) != equivalence_key(
            parse_query(expected)
        ):
            failures.append(
                f"optimized query differs for {text}: served {got}, in-process {expected}"
            )
    return failures


def fold_pushes(initial: List[Dict[str, Any]], pushes, subscription: str) -> List[Dict[str, Any]]:
    """Fold a subscription's diff/resync frames onto its initial rows."""
    from repro.subscriptions import apply_changes

    rows = list(initial)
    for _, frame in pushes:
        if frame.get("subscription") != subscription:
            continue
        if frame["push"] == "resync":
            rows = list(frame["rows"])
        else:
            rows = apply_changes(rows, frame["changes"])
    return rows


async def check_view(conn: Connection, folded: List[Dict[str, Any]]) -> List[str]:
    """The folded push stream equals a fresh execute of the view query."""
    try:
        result = (await conn.call({"op": "execute", "query": VIEW_QUERY})).result
    except RequestFailed as exc:
        return [f"fresh execute of the view failed: {exc}"]
    if canonical(result["rows"]) != canonical(folded):
        return [
            f"folded pushes ({len(folded)} rows) differ from a fresh execute "
            f"({result['row_count']} rows)"
        ]
    return []


def check_recovery(
    data_dir: str,
    db: str,
    acked_version: int,
    folded: List[Dict[str, Any]],
    texts: List[str],
    digests: List[str],
) -> List[str]:
    """Reopening the data dir restores the last acked version and the view.

    ``digests`` are the rows the server answered for ``texts`` on its
    final store; an in-process execute on the recovered store must give
    the same rows, byte for byte, in any order.
    """
    from repro.data import TABLE_4_1_SPECS, build_evaluation_setup
    from repro.durability import DurabilityManager

    fresh = build_evaluation_setup(TABLE_4_1_SPECS[db], query_count=1).database.store
    manager = DurabilityManager(data_dir)
    try:
        store, report = manager.open(fresh)
    finally:
        manager.close()
    failures = []
    if report is None or store.version != acked_version:
        failures.append(
            f"recovered store version {store.version} != last acked version {acked_version}"
        )
    service = reference_service(db, store)
    rows = service.execute(wire_query(VIEW_QUERY, service.schema)).execution.rows
    if canonical(rows) != canonical(folded):
        failures.append(
            f"recovered view ({len(rows)} rows) differs from the folded "
            f"push stream ({len(folded)} rows)"
        )
    for text, digest in zip(texts, digests):
        rows = service.execute(wire_query(text, service.schema)).execution.rows
        if rows_digest(rows) != digest:
            failures.append(f"served rows differ from in-process rows for {text}")
    return failures
