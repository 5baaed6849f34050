"""Process and socket plumbing of the served-path benchmark.

:class:`ServedProcess` launches one ``python -m repro serve`` subprocess
(or the tracing launcher around the same entry point) with a scrubbed
environment and times it until its first answered request.
:class:`Connection` is a minimal pipelining NDJSON client that stamps
every response and push frame with the time it was read off the socket.

Both clocks are ``time.perf_counter_ns``, which on Linux reads
``CLOCK_MONOTONIC`` and is therefore comparable across the load process
and the server process (the traced run joins spans to client requests on
it).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

#: Seconds the server gets to answer its first request after launch.
START_TIMEOUT = 60.0
#: Seconds a SIGTERM'd server gets to drain, flush its WAL and exit.
STOP_TIMEOUT = 30.0


def now_ns() -> int:
    return time.perf_counter_ns()


def server_env(root: str) -> Dict[str, str]:
    """The server's environment: no ``REPRO_*`` knobs, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


class ServedProcess:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, serve_args: List[str], trace_path: Optional[str] = None):
        self.root = root
        self.serve_args = ["--port", "0", *serve_args]
        if trace_path is None:
            self.argv = [sys.executable, "-m", "repro", "serve", *self.serve_args]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_serve.py")
            self.argv = [sys.executable, launcher, trace_path, "serve", *self.serve_args]
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.output: List[str] = []
        self._drains: List[asyncio.Task] = []

    @property
    def command_line(self) -> str:
        return " ".join(["python", "-m", "repro", "serve", *self.serve_args])

    async def start(self) -> float:
        """Launch and wait for the first answered request; returns seconds."""
        started = now_ns()
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv,
            cwd=self.root,
            env=server_env(self.root),
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
        )
        try:
            await asyncio.wait_for(self._await_listening(), START_TIMEOUT)
            conn = await Connection.open(self.host, self.port)
            try:
                await asyncio.wait_for(conn.call({"op": "stats"}), START_TIMEOUT)
            finally:
                await conn.close()
        except BaseException:
            await self.stop()
            raise
        elapsed = (now_ns() - started) / 1e9
        self._drains.append(asyncio.ensure_future(self._drain_output()))
        return elapsed

    async def _await_listening(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            raw = await self.proc.stdout.readline()
            if not raw:
                raise RuntimeError(
                    "server exited before listening:\n" + "\n".join(self.output[-20:])
                )
            line = raw.decode("utf-8", "replace").rstrip()
            self.output.append(line)
            if line.startswith("repro gateway serving"):
                address = line.split(" on ", 1)[1].split(" ", 1)[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return

    async def _drain_output(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        while True:
            raw = await self.proc.stdout.readline()
            if not raw:
                return
            self.output.append(raw.decode("utf-8", "replace").rstrip())

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    async def stop(self) -> int:
        """SIGTERM (graceful drain + WAL flush); SIGKILL after a timeout."""
        proc = self.proc
        if proc is None:
            return 0
        if proc.returncode is None:
            try:
                proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                await asyncio.wait_for(proc.wait(), STOP_TIMEOUT)
            except asyncio.TimeoutError:
                proc.kill()
                await proc.wait()
                self.output.append("benchmark: server killed after stop timeout")
                return -9
        for task in self._drains:
            await task
        self._drains.clear()
        return proc.returncode


class Reply(NamedTuple):
    """One answered request as the client saw it."""

    request_id: int
    sent_ns: int
    received_ns: int
    result: Dict[str, Any]
    size: int


class RequestFailed(Exception):
    """The server answered with an error frame."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class Connection:
    """One pipelining NDJSON connection with receive timestamps."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        sock = writer.get_extra_info("sockname")
        #: The server's ``client_id`` for this connection (its peer name).
        self.client_id = f"{sock[0]}:{sock[1]}"
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        #: ``(receive_ns, frame)`` of every push frame, in arrival order.
        self.pushes: List[Tuple[int, Dict[str, Any]]] = []
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 28)
        return cls(reader, writer)

    async def call(self, frame: Dict[str, Any]) -> Reply:
        """Send one request and wait for its :class:`Reply`.

        Raises :class:`RequestFailed` on an error frame and
        ``ConnectionError`` when the connection dies first.
        """
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        line = json.dumps(dict(frame, id=request_id), separators=(",", ":")) + "\n"
        sent = now_ns()
        try:
            self.writer.write(line.encode("utf-8"))
            await self.writer.drain()
            received, response, size = await future
        finally:
            self._pending.pop(request_id, None)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RequestFailed(error.get("code", "internal"), error.get("message", ""))
        return Reply(request_id, sent, received, response["result"], size)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = now_ns()
                frame = json.loads(line)
                if "push" in frame:
                    self.pushes.append((received, frame))
                    continue
                future = self._pending.get(frame.get("id"))
                if future is not None and not future.done():
                    future.set_result((received, frame, len(line)))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("connection closed"))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
