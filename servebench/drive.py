"""Traffic loops: closed-loop readers and the open-loop writer.

Each loop records raw samples only; ``run.py`` and ``spans.py`` turn
them into the reported numbers after the run.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from wire import Connection, RequestFailed, now_ns
from workloads import WriteOp


@dataclass
class Sample:
    """One request: client send/receive times and what came back."""

    sent_ns: int
    received_ns: int = 0
    ok: bool = False
    error: str = ""
    rows: int = 0
    metrics: Optional[Dict[str, int]] = None
    response_bytes: int = 0
    request_id: int = 0
    client_id: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.received_ns - self.sent_ns) / 1e6


@dataclass
class WriteSample:
    """One scheduled write: its due time, ack and the push that reflected it."""

    op: WriteOp
    due_ns: int
    acked_ns: int = 0
    ok: bool = False
    error: str = ""
    store_version: int = 0
    push_ns: int = 0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def exec_ops(metrics: Dict[str, int]) -> int:
    """The paper's primitive-operation count of one execution."""
    return (
        metrics["instances_retrieved"]
        + metrics["predicate_evaluations"]
        + metrics["pointer_traversals"]
        + metrics["index_lookups"]
    )


async def request(conn: Connection, op: str, frame: Dict[str, Any]) -> Sample:
    """Send one read and fill a :class:`Sample` (never raises on errors)."""
    sample = Sample(sent_ns=now_ns(), client_id=conn.client_id)
    try:
        reply = await conn.call(dict(frame, op=op))
    except RequestFailed as exc:
        sample.received_ns = now_ns()
        sample.error = exc.code
        return sample
    except ConnectionError as exc:
        sample.received_ns = now_ns()
        sample.error = f"connection: {exc}"
        return sample
    sample.ok = True
    sample.request_id, sample.sent_ns, sample.received_ns = reply[:3]
    sample.response_bytes = reply.size
    if op == "execute":
        sample.rows = reply.result["row_count"]
        sample.metrics = reply.result["metrics"]
    return sample


async def closed_loop(
    conn: Connection,
    op: str,
    texts: List[str],
    position: int,
    deadline_ns: int,
    whole_laps: bool = False,
) -> Tuple[List[Sample], int]:
    """Send ``op`` over ``texts`` cyclically from ``position`` until the deadline.

    With ``whole_laps``, the loop runs on past the deadline to the end of
    its current lap, so every query of ``texts`` is sent equally often
    and the mix of light and heavy requests does not depend on where the
    deadline cut the cycle.  Returns the samples and the position to
    continue from.
    """
    samples: List[Sample] = []
    start = position
    while now_ns() < deadline_ns or (whole_laps and (position - start) % len(texts)):
        text = texts[position % len(texts)]
        position += 1
        samples.append(await request(conn, op, {"query": text}))
    return samples, position


@dataclass
class WritePhase:
    """The open-loop writer's outcome plus the generator's lateness."""

    writes: List[WriteSample] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)


async def open_loop_writes(
    conn: Connection, schedule: List[WriteOp], start_ns: int
) -> WritePhase:
    """Send each write at its due time, whether or not earlier ones returned.

    Latency counts from the *due* time, so a stall also charges the
    writes queued behind it; how late the generator itself ran is kept
    separately.  A delete waits for the ack of the insert it removes.
    """
    phase = WritePhase()
    inserted: Dict[int, asyncio.Future] = {}
    loop = asyncio.get_running_loop()
    tasks = []

    async def send(op: WriteOp, sample: WriteSample) -> None:
        if op.kind == "insert":
            frame = {"op": "insert", "class": "cargo", "values": op.values}
        elif op.kind == "update":
            frame = {"op": "update", "class": "cargo", "oid": op.oid, "values": op.values}
        else:
            try:
                oid = await inserted[op.insert_index]
            except RuntimeError as exc:  # the insert it deletes never landed
                sample.error = f"target insert failed: {exc}"
                sample.acked_ns = now_ns()
                return
            frame = {"op": "delete", "class": "cargo", "oid": oid}
        future = inserted.get(op.index)
        try:
            reply = await conn.call(frame)
        except (RequestFailed, ConnectionError) as exc:
            sample.acked_ns = now_ns()
            sample.error = getattr(exc, "code", str(exc))
            if future is not None:
                future.set_exception(RuntimeError(sample.error))
                future.exception()  # retrieved: a delete may never await it
            return
        sample.ok = True
        sample.acked_ns = reply.received_ns
        sample.store_version = reply.result["store_version"]
        if future is not None:
            future.set_result(reply.result["oids"][0])

    for op in schedule:
        if op.kind == "insert":
            inserted[op.index] = loop.create_future()
        due = start_ns + int(op.due_s * 1e9)
        delay = (due - now_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_ms.append(max(0.0, (now_ns() - due) / 1e6))
        sample = WriteSample(op=op, due_ns=due)
        phase.writes.append(sample)
        tasks.append(asyncio.ensure_future(send(op, sample)))
    await asyncio.gather(*tasks)
    return phase


def join_pushes(writes: List[WriteSample], pushes, subscription: str) -> None:
    """Stamp each acked write with the first push covering its version.

    Pushes usually arrive before the writer's ack, so the join runs after
    the phase, by store version: a frame with ``version >= v`` reflects
    the write that produced version ``v``.
    """
    frames = [
        (frame["version"], received)
        for received, frame in pushes
        if frame.get("subscription") == subscription
    ]
    frames.sort(key=lambda item: item[1])
    for sample in writes:
        if not sample.ok:
            continue
        for version, received in frames:
            if version >= sample.store_version:
                sample.push_ns = received
                break


async def wait_for_pushes(
    conn: Connection, subscription: str, version: int, timeout: float
) -> bool:
    """Wait until a push frame at or past ``version`` arrived."""
    deadline = now_ns() + int(timeout * 1e9)
    while now_ns() < deadline:
        if any(
            frame.get("subscription") == subscription and frame["version"] >= version
            for _, frame in conn.pushes
        ):
            return True
        await asyncio.sleep(0.01)
    return False

