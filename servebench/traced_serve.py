"""Tracing launcher: ``repro serve`` with spans around each layer's entry points.

Usage::

    PYTHONPATH=src python servebench/traced_serve.py SPANS.json serve --db DB2 ...

Wraps the public entry points of each layer (plus the session's
per-request coroutine and the gateway pool's thread hop, which carries
the span context into worker threads), then calls ``repro.cli.main``
with the remaining arguments.  Spans are kept in memory and written to
``SPANS.json`` when ``serve`` returns after its graceful SIGTERM drain.
Nothing here changes an answer: every wrapper calls the original and
returns its result unchanged.

A span is ``[id, parent_id, name, start_ns, end_ns, attrs]`` on the
``perf_counter_ns`` clock.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import os
import sys
import time

_now = time.perf_counter_ns
_current: contextvars.ContextVar = contextvars.ContextVar("servebench_span", default=None)
_ids = itertools.count(1)
SPANS: list = []


def _begin():
    parent = _current.get()
    span_id = next(_ids)
    return span_id, parent, _current.set(span_id), _now()


def _finish(name, span_id, parent, token, start, attrs=None):
    end = _now()
    _current.reset(token)
    SPANS.append([span_id, parent, name, start, end, attrs])


def wrap(owner, attr, name, attrs=None):
    """Span every call of ``owner.attr``; ``attrs(args, result)`` adds fields."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_id, parent, token, start = _begin()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            _finish(name, span_id, parent, token, start, attrs(args, result) if attrs else None)

    setattr(owner, attr, wrapper)


def wrap_async(owner, attr, name, attrs=None):
    """Span every await of the coroutine method ``owner.attr``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        span_id, parent, token, start = _begin()
        try:
            return await original(*args, **kwargs)
        finally:
            _finish(name, span_id, parent, token, start, attrs(args) if attrs else None)

    setattr(owner, attr, wrapper)


def wrap_acquire(owner, attr, name):
    """Span only the acquisition of the context manager ``owner.attr()``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    @contextlib.contextmanager
    def wrapper(*args, **kwargs):
        with contextlib.ExitStack() as stack:
            span_id, parent, token, start = _begin()
            try:
                stack.enter_context(original(*args, **kwargs))
            finally:
                _finish(name, span_id, parent, token, start)
            yield

    setattr(owner, attr, wrapper)


def wrap_acquire_async(owner, attr, name):
    """Like :func:`wrap_acquire` for an async context manager."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    @contextlib.asynccontextmanager
    async def wrapper(*args, **kwargs):
        async with contextlib.AsyncExitStack() as stack:
            span_id, parent, token, start = _begin()
            try:
                await stack.enter_async_context(original(*args, **kwargs))
            finally:
                _finish(name, span_id, parent, token, start)
            yield

    setattr(owner, attr, wrapper)


def _carry_context_into_pool(gateway_class):
    """Worker threads inherit the submitting request's span context."""
    original_init = gateway_class.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        submit = self._pool.submit

        def submit_in_context(fn, *fn_args, **fn_kwargs):
            return submit(contextvars.copy_context().run, fn, *fn_args, **fn_kwargs)

        self._pool.submit = submit_in_context

    gateway_class.__init__ = init


def _dispatch_attrs(args):
    frame, client_id = args[1], args[2] if len(args) > 2 else ""
    return {"op": frame.get("op"), "id": frame.get("id"), "client": client_id}


def _optimize_attrs(args, result):
    if result is None:
        return None
    timings = result.timings
    return {
        "retrieval": timings.retrieval,
        "initialization": timings.initialization,
        "transformation": timings.transformation,
        "formulation": timings.formulation,
        "transformations": result.transformations_applied,
        "eliminated": len(result.eliminated_classes),
    }


def _encode_attrs(args, result):
    return {"bytes": len(result) if result is not None else 0, "push": "push" in args[0]}


def _bytes_attrs(args, result):
    return {"bytes": len(result) if result is not None else 0}


def install() -> None:
    """Wrap every measured layer boundary."""
    import repro.server.gateway as gateway
    import repro.server.protocol as protocol
    import repro.server.session as session
    from repro.caching import ReadWriteLock
    from repro.core.optimizer import SemanticQueryOptimizer
    from repro.durability import manager, wal
    from repro.engine.planner import ConventionalPlanner
    from repro.engine.storage import ShardedObjectStore
    from repro.engine.vectorized import VectorizedExecutor
    from repro.server.admission import AdmissionController
    from repro.service import OptimizationService
    from repro.subscriptions.registry import SubscriptionRegistry

    _carry_context_into_pool(gateway.QueryGateway)
    # server: session, gateway dispatch, protocol, admission
    wrap_async(session.ClientSession, "_respond", "server.session")
    wrap(session, "encode_frame", "server.encode_frame", _encode_attrs)
    wrap_async(gateway.QueryGateway, "dispatch", "server.dispatch", _dispatch_attrs)
    wrap(gateway, "decode_frame", "server.decode_frame")
    wrap(gateway, "parse_request", "server.parse_request")
    for payload in ("execution_payload", "optimization_payload", "mutation_payload"):
        wrap(gateway, payload, "server.payload")
    wrap_acquire_async(AdmissionController, "slot", "server.admission_wait")
    # query
    wrap(protocol, "parse_query", "query.parse")
    # service (+ caching's lock)
    wrap(OptimizationService, "execute", "service.execute")
    wrap(OptimizationService, "optimize", "service.optimize")
    wrap(OptimizationService, "mutate", "service.mutate")
    wrap_acquire(ReadWriteLock, "read", "service.read_lock_wait")
    wrap_acquire(ReadWriteLock, "write", "service.write_lock_wait")
    # core
    wrap(SemanticQueryOptimizer, "optimize", "core.optimize", _optimize_attrs)
    # engine
    wrap(ConventionalPlanner, "plan", "engine.plan")
    wrap(VectorizedExecutor, "execute", "engine.execute")
    for method in ("insert", "update", "delete"):
        wrap(ShardedObjectStore, method, "engine.store_write")
    # durability
    wrap(manager.DurabilityManager, "commit", "durability.commit")
    wrap(manager.DurabilityManager, "snapshot", "durability.snapshot")
    wrap(wal, "encode_frame", "durability.wal_frame", _bytes_attrs)
    wrap(os, "fsync", "durability.fsync")
    # subscriptions
    wrap(SubscriptionRegistry, "pump", "subscriptions.pump")


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve [serve args]", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out_path + ".tmp", "w") as handle:
            json.dump({"spans": SPANS}, handle, separators=(",", ":"))
        os.replace(out_path + ".tmp", out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
