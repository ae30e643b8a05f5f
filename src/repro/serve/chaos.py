"""A deterministic wire-level chaos proxy for the prediction service.

:class:`ChaosProxy` sits between a client and a running server as a
plain TCP proxy and injects the faults a real network (or a crashing
peer) produces, *on purpose* and *reproducibly*:

* **connection resets** — the client-facing socket is closed with
  ``SO_LINGER`` zero, so the client sees a hard RST mid-conversation;
* **partial frames** — a response line is cut mid-JSON and the
  connection closed, exercising truncated-reply handling;
* **byte corruption** — one byte of a response line is flipped; the
  frame still *parses* as a line (and often as JSON), which is exactly
  why responses carry a CRC-32 stamp
  (:func:`repro.serve.protocol.payload_checksum`);
* **stalls** — a response is withheld for longer than a client timeout;
* **delayed delivery** — a request is forwarded late (the delayed-ACK /
  congested-uplink analogue), stretching observed latency without
  breaking anything.

Faults are *frame-aligned*: the proxy speaks the same NDJSON framing as
the service, so every fault lands on a whole request or response line
and each injection is attributable to exactly one in-flight call.

Determinism is the point — this is the serving-layer sibling of the
seeded fault-injection campaign in :mod:`repro.cluster.faults`.  Every
accepted connection gets its own pair of RNG streams derived from
``(seed, connection_index, direction)``, so for a fixed seed and a
fixed client call sequence the *same* calls hit the *same* faults on
every run.  The resilience suite and ``benchmarks/test_resilience.py``
rely on this to make "availability >= 99% under chaos" a reproducible
assertion instead of a flaky observation.

The proxy is intentionally std-lib-threaded and blocking: it must keep
working while the *server* misbehaves, restarts, or is killed, so it
shares no event loop with anything under test.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.serve.protocol import MAX_LINE_BYTES

__all__ = ["ChaosConfig", "ChaosProxy", "ChaosStats"]


@dataclass(frozen=True)
class ChaosConfig:
    """Fault rates (per frame) and magnitudes for one proxy instance.

    The defaults are the **default chaos profile** the resilience
    benchmark reports against: each server->client response line has a
    2% chance of a reset, 2% of truncation, 3% of a flipped byte and 2%
    of a stall; each client->server request line has a 5% chance of
    delayed delivery.  Roughly one call in ten hits *some* fault — harsh
    enough to exercise every retry path, mild enough that a correct
    client converges well inside its retry budget.
    """

    seed: int = 0
    #: P(hard RST instead of delivering a response line).
    reset_rate: float = 0.02
    #: P(deliver only a prefix of a response line, then close).
    partial_rate: float = 0.02
    #: P(flip one byte of a response line).
    corrupt_rate: float = 0.03
    #: P(withhold a response line for ``stall_seconds``).
    stall_rate: float = 0.02
    stall_seconds: float = 0.5
    #: P(forward a request line late by ``delay_seconds``).
    delay_rate: float = 0.05
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("reset_rate", "partial_rate", "corrupt_rate",
                     "stall_rate", "delay_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.stall_seconds < 0 or self.delay_seconds < 0:
            raise ValueError("stall_seconds and delay_seconds must be >= 0")

    @classmethod
    def clean(cls, seed: int = 0) -> "ChaosConfig":
        """A fault-free profile — the proxy becomes a plain relay, which
        is the control arm of the resilience benchmark."""
        return cls(seed=seed, reset_rate=0.0, partial_rate=0.0,
                   corrupt_rate=0.0, stall_rate=0.0, delay_rate=0.0)


class ChaosStats:
    """Thread-safe injection ledger: what the proxy actually did."""

    _FIELDS = ("connections", "requests", "responses", "resets",
               "partials", "corruptions", "stalls", "delays")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self._FIELDS}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._counts)

    @property
    def faults(self) -> int:
        """Total injected faults across all kinds."""
        with self._lock:
            return sum(self._counts[k] for k in
                       ("resets", "partials", "corruptions", "stalls",
                        "delays"))

    def __repr__(self) -> str:
        return f"ChaosStats({self.snapshot()})"


def _close(sock: socket.socket) -> None:
    """Close a socket so the peer sees FIN now.

    A bare ``close()`` is not enough: the sibling pump thread may be
    blocked in ``recv`` on this socket, and the kernel keeps the socket
    open (no FIN sent) until that call returns.  ``shutdown`` acts on the
    socket itself: it sends the FIN and wakes the blocked reader.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _hard_reset(sock: socket.socket) -> None:
    """Close a socket so the peer sees RST, not a graceful FIN.

    Linger-0 turns the close into a RST; ``shutdown(SHUT_RD)`` first wakes
    a pump blocked in ``recv`` on the socket (see :func:`_close`) without
    sending a FIN, so the close that follows really resets the peer.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _read_line(conn: socket.socket, buffer: bytearray) -> Optional[bytes]:
    """Read one NDJSON line from a socket, carrying leftover bytes in
    ``buffer`` across calls.  Returns None on EOF / reset / oversize."""
    while True:
        newline = buffer.find(b"\n")
        if newline >= 0:
            line = bytes(buffer[:newline + 1])
            del buffer[:newline + 1]
            return line
        if len(buffer) > MAX_LINE_BYTES:
            return None
        try:
            chunk = conn.recv(65536)
        except OSError:
            return None
        if not chunk:
            return None
        buffer.extend(chunk)


@dataclass
class _Connection:
    """One proxied client connection and its two seeded fault streams."""

    index: int
    client: socket.socket
    upstream: socket.socket
    up_rng: random.Random = field(repr=False)
    down_rng: random.Random = field(repr=False)
    closed: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def close(self, reset: bool = False) -> None:
        with self.lock:
            if self.closed:
                return
            self.closed = True
        if reset:
            _hard_reset(self.client)
        else:
            _close(self.client)
        _close(self.upstream)


class ChaosProxy:
    """A seeded fault-injecting TCP relay in front of a service port."""

    def __init__(self, upstream_host: str, upstream_port: int,
                 config: Optional[ChaosConfig] = None,
                 host: str = "127.0.0.1") -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.config = config if config is not None else ChaosConfig()
        self.host = host
        self.port = 0
        self.stats = ChaosStats()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: list[threading.Thread] = []
        self._connections: list[_Connection] = []
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._next_index = 0

    # -- lifecycle ------------------------------------------------------------------
    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._closing.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.host, self.port

    # -- accept / pump --------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=10.0
                )
            except OSError:
                # Server down (crashed, restarting): the client sees the
                # refusal immediately — itself a retryable fault.
                client.close()
                continue
            index = self._next_index
            self._next_index += 1
            seed = self.config.seed
            connection = _Connection(
                index=index, client=client, upstream=upstream,
                up_rng=random.Random(f"{seed}:{index}:up"),
                down_rng=random.Random(f"{seed}:{index}:down"),
            )
            self.stats.bump("connections")
            with self._lock:
                self._connections.append(connection)
            for target, name in ((self._pump_up, "up"), (self._pump_down, "down")):
                thread = threading.Thread(
                    target=target, args=(connection,),
                    name=f"chaos-{index}-{name}", daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def _pump_up(self, connection: _Connection) -> None:
        """client -> server: forward request lines, sometimes late."""
        cfg = self.config
        buffer = bytearray()
        while not connection.closed:
            line = _read_line(connection.client, buffer)
            if line is None:
                break
            self.stats.bump("requests")
            if cfg.delay_rate > 0.0 and connection.up_rng.random() < cfg.delay_rate:
                self.stats.bump("delays")
                time.sleep(cfg.delay_seconds)
            try:
                connection.upstream.sendall(line)
            except OSError:
                break
        connection.close()

    def _pump_down(self, connection: _Connection) -> None:
        """server -> client: forward response lines through the fault
        menu.  One uniform draw per line walks the rate thresholds in a
        fixed order, so a given (seed, connection, frame) always maps to
        the same fault."""
        cfg = self.config
        buffer = bytearray()
        while not connection.closed:
            line = _read_line(connection.upstream, buffer)
            if line is None:
                break
            self.stats.bump("responses")
            rng = connection.down_rng
            draw = rng.random()
            if draw < cfg.reset_rate:
                self.stats.bump("resets")
                connection.close(reset=True)
                return
            draw -= cfg.reset_rate
            if draw < cfg.partial_rate:
                self.stats.bump("partials")
                cut = max(1, int(rng.random() * (len(line) - 1)))
                try:
                    connection.client.sendall(line[:cut])
                except OSError:
                    pass
                connection.close()
                return
            draw -= cfg.partial_rate
            if draw < cfg.corrupt_rate:
                self.stats.bump("corruptions")
                # Flip one byte, never the framing newline.
                position = int(rng.random() * max(1, len(line) - 1))
                mutated = bytearray(line)
                mutated[position] ^= 0x20
                if mutated[position] == 0x0A:  # don't *create* a newline
                    mutated[position] ^= 0x01
                line = bytes(mutated)
            else:
                draw -= cfg.corrupt_rate
                if draw < cfg.stall_rate:
                    self.stats.bump("stalls")
                    time.sleep(cfg.stall_seconds)
            try:
                connection.client.sendall(line)
            except OSError:
                break
        connection.close()
