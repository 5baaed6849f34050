"""Async query gateway: serve the optimizer to many concurrent clients.

This package is the network-facing layer of the system.  It fronts one
:class:`~repro.service.OptimizationService` with an asyncio TCP server
speaking a line-delimited JSON protocol, and adds everything sustained
multi-client traffic needs that the blocking service API does not have:

* :mod:`~repro.server.protocol` — the wire format and request parsing into
  the existing query AST;
* :mod:`~repro.server.admission` — bounded in-flight requests, per-client
  fairness, load shedding, graceful drain;
* :mod:`~repro.server.gateway` — dispatch (``optimize`` on the event
  loop, execute and write work on a bounded worker pool) and
  single-flight deduplication of identical in-flight ``execute`` requests;
* :mod:`~repro.server.session` — one pipelined connection;
* :mod:`~repro.server.client` — :class:`AsyncGatewayClient` (TCP or
  in-process);
* :mod:`~repro.server.loadgen` — the multi-client load generator behind
  ``python -m repro bench-client`` and ``BENCH_gateway.json``.

Start a gateway in three lines::

    gateway = QueryGateway(service)          # service has a store attached
    host, port = await gateway.start()
    await gateway.serve_forever()

or from the shell: ``python -m repro serve --db DB2 --engine vectorized``.
"""

from .admission import AdmissionController, AdmissionStats
from .client import AsyncGatewayClient
from .errors import (
    AdmissionError,
    BackupUnavailable,
    ClientQueueFull,
    GatewayDraining,
    GatewayError,
    GatewayRequestError,
    MutationError,
    ProtocolError,
    ReadOnlyError,
    ReplicationUnavailable,
    RequestTimeout,
)
from .gateway import QueryGateway
from .loadgen import LoadReport, MutationMix, connect_clients, run_load
from .protocol import PROTOCOL_VERSION, decode_frame, encode_frame, parse_request
from .session import ClientSession

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionStats",
    "AsyncGatewayClient",
    "BackupUnavailable",
    "ClientQueueFull",
    "ClientSession",
    "GatewayDraining",
    "GatewayError",
    "GatewayRequestError",
    "LoadReport",
    "MutationError",
    "MutationMix",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryGateway",
    "ReadOnlyError",
    "ReplicationUnavailable",
    "RequestTimeout",
    "connect_clients",
    "decode_frame",
    "encode_frame",
    "parse_request",
    "run_load",
]
