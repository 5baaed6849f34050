#!/usr/bin/env python3
"""Served-path benchmark: ``repro serve`` driven over TCP by one load process.

Usage (from the repository root)::

    python3 servebench/run.py --workload serve-optimize --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload twice, untraced and then under the
tracing launcher (``traced_serve.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The database every workload serves (``repro serve --db``).
DB = "DB2"
#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 5
#: Seconds of traffic before a closed-loop window (caches, code paths).
WARM_SECONDS = 1.0
#: Seconds of serve-optimize's trailing write phase.
TRAILING_WRITE_SECONDS = 8.0
#: Scheduled writes per second, in every write phase.
WRITE_RATE = 100.0
#: Seconds to wait after the last ack for outstanding push frames.
PUSH_GRACE = 5.0
#: Length of serve-optimize's query stream (larger than the result cache).
STREAM_LENGTH = 2000
#: serve-optimize counts execution operations on every n-th distinct query.
OPS_SAMPLE_STRIDE = 4
#: Row count at or above which a query counts as heavy.
HEAVY_ROWS = 1000
#: Seconds after which a whole run (both passes with --trace 1) is abandoned.
RUN_TIMEOUT = 170.0
#: Latency charged to a failed or refused request (it misses every tail).
FAILED_MS = 60_000.0

#: The end-to-end metrics, in reporting order: ``(name, unit)``.
END_TO_END = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("push_p50_ms", "ms"),
    ("exec_ops_per_read", "ops"),
    ("server_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Workload:
    """One traffic shape against the served database.

    A ``durable`` workload serves a WAL and runs its writes beside
    ``execute`` reads; the other runs ``optimize`` reads, then writes in
    memory after the read window.
    """

    name: str
    durable: bool
    why: str

    @property
    def read_op(self) -> str:
        return "execute" if self.durable else "optimize"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-optimize", False,
            "distinct optimize stream larger than the result cache: the four phases",
        ),
        Workload(
            "serve-write", True,
            "open-loop writes with a WAL, a live view and concurrent reads",
        ),
    )
}


@dataclass
class PassResult:
    """Everything one served pass measured, before it becomes metrics."""

    setup_s: List[float] = field(default_factory=list)
    serve_command: str = ""
    reads: list = field(default_factory=list)
    window_s: float = 0.0
    window_ns: tuple = (0, 0)
    steal_share: float = 0.0
    lap: int = 1
    writes: list = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    write_user_bytes: int = 0
    rss_mb: float = 0.0
    exec_ops_per_read: float = 0.0
    properties: Dict[str, float] = field(default_factory=dict)
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)
    stats_end: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    spans: Any = None

    @property
    def attempted(self) -> int:
        return len(self.reads) + len(self.writes)

    @property
    def failed(self) -> int:
        bad_reads = sum(1 for s in self.reads if not s.ok)
        bad_writes = sum(1 for w in self.writes if not (w.ok and w.push_ns))
        return bad_reads + bad_writes


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


async def _launch(workload: Workload, work_dir: str, trace_path: Optional[str], result: PassResult):
    """Launch the server ``SETUP_LAUNCHES`` times; keep the last one running."""
    from wire import ServedProcess

    launches = 1 if trace_path else SETUP_LAUNCHES
    for attempt in range(launches):
        args = ["--db", DB, "--engine", "vectorized"]
        data_dir = None
        if workload.durable:
            data_dir = _fresh_dir(os.path.join(work_dir, f"data-{attempt}"))
            args += ["--data-dir", data_dir]
        server = ServedProcess(ROOT, args, trace_path)
        result.setup_s.append(await server.start())
        if attempt < launches - 1:
            await server.stop()
    result.serve_command = server.command_line
    return server, data_dir


async def _write_phase(conns, seed, seconds, result, start_ns, measure_from_ns):
    """Open-loop writer on ``conns[0]``, one standing view on ``conns[1]``.

    Writes due before ``measure_from_ns`` run but are not reported.
    Returns the folded view rows and the last acked store version.
    """
    from checks import check_view, fold_pushes
    from drive import join_pushes, open_loop_writes, wait_for_pushes
    from workloads import VIEW_QUERY, perishable_cargo, write_schedule

    view = (await conns[1].call({"op": "subscribe", "query": VIEW_QUERY})).result
    sid = view["subscription"]
    schedule = write_schedule(seed, WRITE_RATE, seconds, perishable_cargo(DB))
    phase = await open_loop_writes(conns[0], schedule, start_ns)
    acked = [w.store_version for w in phase.writes if w.ok]
    if acked:
        await wait_for_pushes(conns[1], sid, max(acked), PUSH_GRACE)
    join_pushes(phase.writes, conns[1].pushes, sid)
    folded = fold_pushes(view["rows"], conns[1].pushes, sid)
    result.failures += await check_view(conns[1], folded)
    kept = [i for i, w in enumerate(phase.writes) if w.due_ns >= measure_from_ns]
    result.writes = [phase.writes[i] for i in kept]
    result.late_ms = [phase.late_ms[i] for i in kept]
    result.write_user_bytes = sum(w.op.user_bytes() for w in result.writes if w.ok)
    return folded, max(acked, default=0)


def _cpu_jiffies() -> List[int]:
    """Host-wide ``(steal, total)`` CPU jiffies from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return [fields[7] if len(fields) > 7 else 0, sum(fields)]


def _steal_share(since: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests since ``since``."""
    steal, total = (now - then for now, then in zip(_cpu_jiffies(), since))
    return steal / total if total else 0.0


@contextlib.contextmanager
def _gc_paused():
    """Pause the load process's cyclic garbage collector for a timed phase.

    Parsing responses allocates fast enough to trigger collections that
    scan every parsed row; on row-heavy DB4 reads they stalled the load
    process for 1.6 to 2.4 s of a 20 s window, and the server was charged
    for them.  What the phase allocates is freed by reference counting.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def _stats(conn):
    return (await conn.call({"op": "stats"})).result


def _close_window(result: PassResult, start_ns: int, deadline_ns: int) -> None:
    """The window runs to the deadline or the last response, if later."""
    end = max([deadline_ns] + [sample.received_ns for sample in result.reads])
    result.window_ns = (start_ns, end)
    result.window_s = (end - start_ns) / 1e9


async def _read_window(conns, seconds, texts, result) -> None:
    """Warm up, then one closed ``optimize`` loop on ``conns[0]``.

    The window lasts ``seconds`` and then runs on to the end of its lap.
    One request at a time: the server runs its Python work one thread at
    a time, so a second loop would queue requests behind each other and a
    read's latency would depend on how the two cycles interleave.
    """
    from drive import closed_loop
    from wire import now_ns

    warm_until = now_ns() + int(WARM_SECONDS * 1e9)
    _, position = await closed_loop(conns[0], "optimize", texts, 0, warm_until)
    result.stats_before = await _stats(conns[0])
    with _gc_paused():
        cpu = _cpu_jiffies()
        start = now_ns()
        deadline = start + int(seconds * 1e9)
        result.reads, _ = await closed_loop(
            conns[0], "optimize", texts, position, deadline, whole_laps=True
        )
    _close_window(result, start, deadline)
    result.steal_share = _steal_share(cpu)
    result.stats_after = await _stats(conns[0])


async def _mixed_window(conns, seed, seconds, texts, result):
    """Writer and view beside a closed-loop reader on the view's connection.

    The first ``WARM_SECONDS`` of traffic run unmeasured.
    """
    from drive import closed_loop
    from wire import now_ns

    start = now_ns()
    measure_from = start + int(WARM_SECONDS * 1e9)
    deadline = measure_from + int(seconds * 1e9)

    async def reader():
        _, position = await closed_loop(conns[1], "execute", texts, 0, measure_from)
        result.stats_before = await _stats(conns[1])
        cpu = _cpu_jiffies()
        samples, _ = await closed_loop(conns[1], "execute", texts, position, deadline)
        result.steal_share = _steal_share(cpu)
        return samples

    writer = _write_phase(conns, seed, WARM_SECONDS + seconds, result, start, measure_from)
    result.reads, view = await asyncio.gather(reader(), writer)
    _close_window(result, measure_from, deadline)
    result.stats_after = await _stats(conns[1])
    return view


async def run_pass(workload: Workload, seed: int, seconds: float, traced: bool) -> PassResult:
    """One served run of ``workload``: launch, warm, measure, check, stop."""
    from checks import check_optimized, check_recovery, served_executions
    from wire import Connection, now_ns
    from workloads import dedupe, query_texts, stratified_queries

    result = PassResult()
    work_dir = _fresh_dir(os.path.join(ROOT, ".servebench", workload.name))
    trace_path = os.path.join(work_dir, "spans.json") if traced else None
    if workload.durable:
        population = stratified_queries(DB, seed)
        texts, rows = population.texts, population.rows
        result.properties["distinct_share"] = population.distinct_share
    else:
        texts = query_texts(DB, STREAM_LENGTH, seed)
        distinct = dedupe(texts)
        result.properties["distinct_share"] = len(distinct) / len(texts)

    result.lap = len(texts)
    server, data_dir = await _launch(workload, work_dir, trace_path, result)
    conns = []
    try:
        conns = [await Connection.open(server.host, server.port) for _ in range(2)]
        if workload.durable:
            with _gc_paused():
                folded, acked = await _mixed_window(conns, seed, seconds, texts, result)
            ops, _, digests = await served_executions(conns, texts)
            result.exec_ops_per_read = statistics.fmean(ops)
        else:
            await _read_window(conns, seconds, texts, result)
            result.failures += await check_optimized(conns, DB, distinct)
            ops, rows, _ = await served_executions(conns, distinct[::OPS_SAMPLE_STRIDE])
            result.exec_ops_per_read = statistics.fmean(ops)
            with _gc_paused():
                write_start = now_ns()
                await _write_phase(
                    conns, seed, TRAILING_WRITE_SECONDS, result, write_start, write_start
                )
        result.properties["zero_row_share"] = sum(1 for r in rows if r == 0) / len(rows)
        result.properties["heavy_row_share"] = sum(1 for r in rows if r >= HEAVY_ROWS) / len(rows)
        result.stats_end = await _stats(conns[0])
        result.rss_mb = server.peak_rss_mb()
    finally:
        for conn in conns:
            await conn.close()
        exit_code = await server.stop()
    if exit_code != 0:
        tail = " | ".join(server.output[-5:])
        result.failures.append(f"server exited with code {exit_code}: {tail}")
    if workload.durable and not result.failures:
        result.failures += check_recovery(data_dir, DB, acked, folded, texts, digests)
    if traced:
        from spans import load_spans

        result.spans = load_spans(trace_path)
    return result


def latencies(result: PassResult) -> Dict[str, List[float]]:
    """Read, write (due to ack) and push (due to push) latencies in ms."""
    return {
        "read": [s.latency_ms if s.ok else FAILED_MS for s in result.reads],
        "write": [(w.acked_ns - w.due_ns) / 1e6 if w.ok else FAILED_MS for w in result.writes],
        "push": [
            (w.push_ns - w.due_ns) / 1e6 if w.ok and w.push_ns else FAILED_MS
            for w in result.writes
        ],
    }


def chunk_median(items: list, size: int, statistic) -> float:
    """Median of ``statistic`` over consecutive chunks of ``size`` items.

    The host's speed drifts from second to second; the median over chunks
    keeps a few slow seconds from moving the result.  A trailing partial
    chunk is left out, unless there is no complete chunk (a very short run).
    """
    chunks = [items[i : i + size] for i in range(0, len(items) - size + 1, size)]
    return statistics.median(statistic(chunk) for chunk in chunks or [items])


def _rate(reads: list) -> float:
    """Completed reads per second from the first send to the last response."""
    return sum(1 for s in reads if s.ok) * 1e9 / (reads[-1].received_ns - reads[0].sent_ns)


def end_to_end(result: PassResult) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one untraced pass.

    Read metrics are medians over laps (``result.lap`` requests: every
    query of the cycle once, so each lap carries the same mix of light
    and heavy requests); write metrics are medians over seconds of the
    schedule (``WRITE_RATE`` writes).
    """
    from drive import percentile

    ms = latencies(result)
    writes = int(WRITE_RATE)

    def p50(values):
        return percentile(values, 0.50)

    values = {
        "setup_s": statistics.median(result.setup_s),
        "read_p50_ms": chunk_median(ms["read"], result.lap, p50),
        "reads_per_s": chunk_median(result.reads, result.lap, _rate),
        "write_p50_ms": chunk_median(ms["write"], writes, p50),
        "push_p50_ms": chunk_median(ms["push"], writes, p50),
        "exec_ops_per_read": result.exec_ops_per_read,
        "server_rss_mb": result.rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def describe(workload: Workload, seed: int, seconds: float, result: PassResult) -> List[str]:
    """Human-readable context lines printed before the JSON result."""
    from drive import percentile

    reads = result.reads
    ok_reads = [s for s in reads if s.ok]
    rows = sum(s.rows for s in ok_reads)
    errors = sum(1 for s in reads if s.error) + sum(1 for w in result.writes if w.error)
    writes = "concurrent with the reads" if workload.durable else "after the read window"
    return [
        f"workload {workload.name} seed {seed} seconds {seconds:g}: {workload.why}",
        f"serve command: {result.serve_command}",
        f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"fsync policy {'batch (serve default)' if workload.durable else 'none (no --data-dir)'}, "
        f"write rate {WRITE_RATE:g}/s {writes}, "
        f"CPU steal during the window {100 * result.steal_share:.1f}%",
        "inputs: " + ", ".join(f"{k} {v:.3f}" for k, v in sorted(result.properties.items())),
        f"reads: {len(reads)} sent ({workload.read_op}), {len(ok_reads)} ok, "
        f"{len(ok_reads) / result.window_s:.1f}/s over the window, {len(reads) // result.lap} "
        f"whole laps of {result.lap}, rows_per_s {rows / result.window_s:.0f}",
        f"writes: {len(result.writes)} due, {sum(1 for w in result.writes if w.ok)} acked, "
        f"{sum(1 for w in result.writes if w.push_ns)} pushed, "
        f"generator late p99 {percentile(result.late_ms, 0.99):.2f} ms",
        # On a shared two-core host the tails follow the host's scheduling
        # stalls more than the program, so they are context, not metrics
        # with a bound (README.md, "Steadiness").
        "tails (not bounded): "
        + ", ".join(
            f"{kind}_p99_ms {percentile(values, 0.99):.2f} of {len(values)}"
            for kind, values in latencies(result).items()
        ),
        f"errors: {errors} failed or refused; error_ratio "
        f"{result.failed / max(1, result.attempted):.4f}",
    ] + [f"CHECK FAILED: {failure}" for failure in result.failures[:20]]


async def run(workload: Workload, seed: int, seconds: float, trace: bool):
    """Untraced pass (end-to-end), plus the traced pass when ``trace``."""
    untraced = await run_pass(workload, seed, seconds, traced=False)
    if not trace:
        return untraced, end_to_end(untraced)
    traced = await run_pass(workload, seed, seconds, traced=True)
    from spans import per_layer

    traced.failures = untraced.failures + traced.failures
    return traced, per_layer(untraced, traced)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__main__.py")):
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    workload = WORKLOADS[args.workload]
    run_all = run(workload, args.seed, args.seconds, bool(args.trace))
    # A server that stops answering must not hang the run: the timeout
    # cancels it, and each pass's cleanup still stops its server.
    result, metrics = asyncio.run(asyncio.wait_for(run_all, RUN_TIMEOUT))
    for line in describe(workload, args.seed, args.seconds, result):
        print(line)
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not result.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
