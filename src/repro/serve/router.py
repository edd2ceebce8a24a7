"""The cluster front-end: consistent-hash routing with graceful decay.

One :class:`ClusterRouter` sits in front of N
:class:`~repro.serve.server.AllocationServer` backends (usually spawned
by :class:`~repro.serve.cluster.ClusterSupervisor`) and speaks the same
JSONL protocol on both sides, so every existing client works unchanged.
The moving parts:

* **Consistent-hash routing** — engine requests route by a hash of the
  canonical ``request`` object over a ring with virtual nodes
  (:class:`HashRing`), so identical requests — hence identical engine
  ``request_key``s — always land on the same backend and the backend's
  in-flight dedup keeps collapsing concurrent duplicates.  Responses
  pass through as the backend's raw bytes (the byte-identity guarantee
  crosses the router untouched); only the *request* envelope is
  re-encoded, to re-stamp the remaining ``deadline_s`` budget per hop.
* **Active health checks** — a probe task per backend pings on a short
  interval; consecutive failures open a circuit breaker with
  exponential backoff (:class:`BackendState`), and an open breaker
  takes the backend out of the routing ring until a probe succeeds.
* **Failover** — a forward that dies in transport (backend crashed
  mid-request) or comes back ``draining``/``unavailable`` retries on
  the next distinct backend in ring order.  Requests are idempotent
  (content-hashed, cached, deterministic), so retrying a request whose
  first execution may or may not have finished is safe — at worst the
  shared cache already has the answer.  Ring order is deterministic,
  so concurrent failovers of one key all land on the same peer and
  dedup still holds.
* **Graceful degradation** — instead of the single binary ``overload``
  cliff, the router sheds probabilistically between per-backend
  in-flight watermarks (``shed_low`` → ``shed_high``), meters each
  client through a fair-admission :class:`TokenBucket` (the v2 ``client``
  envelope field; peer address otherwise), and stamps ``retry_after``
  hints on every rejection so well-behaved clients back off by the
  right amount.
* **Aggregation** — ``metrics`` fans out to every backend and merges
  counters and histogram buckets into one cluster view (per-backend
  snapshots ride along under ``backends`` for ``repro top``);
  ``debug`` merges every backend's live flight-recorder dump.
* **Drain** — ``shutdown`` (or SIGTERM via
  :func:`~repro.serve.cluster.run_cluster`) stops admission, answers
  everything already forwarded, then drains every backend.

The router deliberately holds **no request state** beyond in-flight
accounting: all memo/cache/dedup state lives in the backends and the
shared sharded :class:`~repro.engine.cache.ResultCache`, which is what
makes killing and restarting any backend survivable.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import logging
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import Histogram, MetricsRegistry
from . import protocol

logger = logging.getLogger(__name__)


def _hash_point(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing over backend names with virtual nodes.

    Virtual nodes smooth the load split (a 2-backend ring with one
    point each would route ~76/24 for unlucky hashes); ring order also
    defines each key's deterministic failover sequence.
    """

    def __init__(self, names: list[str], virtual_nodes: int = 32):
        if not names:
            raise ValueError("a hash ring needs at least one backend")
        self.names = sorted(names)
        points = []
        for name in self.names:
            for i in range(max(1, virtual_nodes)):
                points.append((_hash_point(f"{name}#{i}"), name))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [n for _, n in points]

    def order(self, key: str) -> list[str]:
        """Every backend, in this key's preference order (primary
        first, then the failover sequence)."""
        start = bisect.bisect_right(self._points, _hash_point(key))
        seen: list[str] = []
        for i in range(len(self._owners)):
            owner = self._owners[(start + i) % len(self._owners)]
            if owner not in seen:
                seen.append(owner)
                if len(seen) == len(self.names):
                    break
        return seen

    def primary(self, key: str) -> str:
        return self.order(key)[0]


class TokenBucket:
    """Fair admission: *rate* tokens/second, holding at most *burst*.

    :meth:`admit` spends one token and returns 0.0, or returns how
    many seconds until a token accrues — the ``retry_after`` hint for
    the throttled client.
    """

    def __init__(self, rate: float, burst: float,
                 now: float | None = None):
        self.rate = max(1e-9, rate)
        self.burst = max(1.0, burst)
        self.tokens = self.burst
        self.last = time.monotonic() if now is None else now

    def admit(self, now: float | None = None, cost: float = 1.0) -> float:
        if now is None:
            now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate


@dataclass
class RouterConfig:
    """Tunables of one :class:`ClusterRouter`.

    Attributes:
        host / port: listen address (port 0 binds an ephemeral port).
        virtual_nodes: ring points per backend.
        ping_interval: seconds between health probes of a healthy
            backend.
        ping_timeout: per-probe connect+roundtrip budget.
        breaker_base / breaker_cap: circuit-breaker backoff after the
            n-th consecutive probe failure is
            ``min(cap, base * 2**(n-1))`` seconds.
        shed_low / shed_high: per-backend in-flight watermarks.  Below
            ``shed_low`` everything is admitted; between them requests
            are shed with probability rising linearly to 1.0 at
            ``shed_high``.
        shed_seed: seeds the shedding RNG so chaos runs reproduce.
        bucket_rate / bucket_burst: per-client fair-admission tokens
            per second and burst capacity.
        failover_attempts: distinct backends tried per request.
        forward_timeout: per-forward roundtrip budget in seconds.
    """

    host: str = "127.0.0.1"
    port: int = 0
    virtual_nodes: int = 32
    ping_interval: float = 0.2
    ping_timeout: float = 2.0
    breaker_base: float = 0.05
    breaker_cap: float = 2.0
    shed_low: int = 64
    shed_high: int = 256
    shed_seed: int = 0
    bucket_rate: float = 500.0
    bucket_burst: float = 250.0
    failover_attempts: int = 3
    forward_timeout: float = 120.0


@dataclass
class BackendState:
    """What the router knows about one backend right now."""

    name: str
    host: str
    port: int
    #: set by the first successful probe; routing skips unhealthy
    #: backends entirely
    healthy: bool = False
    #: router-tracked concurrent forwards (the shedding signal —
    #: cheaper than asking the backend for its queue depth per request)
    inflight: int = 0
    consecutive_failures: int = 0
    #: circuit breaker: no probes or forwards until this deadline
    breaker_until: float = 0.0
    probes_ok: int = 0
    probes_failed: int = 0
    #: times the cluster supervisor replaced this backend's process
    restarts: int = 0

    def available(self, now: float) -> bool:
        return self.healthy and now >= self.breaker_until

    def describe(self, now: float) -> dict[str, Any]:
        return {"addr": f"{self.host}:{self.port}",
                "healthy": self.healthy,
                "inflight": self.inflight,
                "breaker_open": now < self.breaker_until,
                "consecutive_failures": self.consecutive_failures,
                "probes_ok": self.probes_ok,
                "probes_failed": self.probes_failed,
                "restarts": self.restarts}


class _Link:
    """One backend connection belonging to one client connection.

    Round-trips are serialized under a lock, so responses match the
    request just written and pass through as raw bytes.  A link is
    pinned to the address it dialled; when the backend restarts on a
    new port the link errors out and is re-dialled lazily.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.lock = asyncio.Lock()

    async def connect(self) -> None:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)

    async def roundtrip(self, payload: bytes, request_id: Any) -> bytes:
        """Write one request line, return the matching raw reply line."""
        # canonical responses let us match the id by substring and skip
        # a full json.loads on the forwarding hot path
        needle = None
        if isinstance(request_id, str):
            needle = b'"id":' + json.dumps(request_id).encode()
        async with self.lock:
            await self.connect()
            assert self.reader is not None and self.writer is not None
            self.writer.write(payload)
            await self.writer.drain()
            while True:
                line = await self.reader.readline()
                if not line:
                    raise ConnectionError("backend closed the connection")
                if needle is not None and needle in line \
                        and line.startswith(b'{"'):
                    return line
                try:
                    obj = json.loads(line)
                except ValueError:
                    raise ConnectionError("backend sent garbage")
                if isinstance(obj, dict) and obj.get("id") == request_id:
                    return line

    def close(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
        self.reader = self.writer = None


class ClusterRouter:
    """The asyncio front-end; owns admission, routing, and health."""

    def __init__(self, backends: dict[str, tuple[str, int]],
                 config: RouterConfig | None = None):
        self.config = config or RouterConfig()
        self.backends = {name: BackendState(name, host, port)
                         for name, (host, port) in backends.items()}
        self.ring = HashRing(list(self.backends),
                             self.config.virtual_nodes)
        self.metrics = MetricsRegistry()
        self.buckets: dict[str, TokenBucket] = {}
        self._rng = random.Random(self.config.shed_seed)
        self.draining = False
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._probe_tasks: list[asyncio.Task] = []
        self._drain_task: asyncio.Task | None = None
        self._closed = asyncio.Event()
        self._stopping = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight_total = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: called (in the loop) when the drain begins — the cluster
        #: supervisor hooks backend drain/teardown here
        self.on_drain = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        for state in self.backends.values():
            self._probe_tasks.append(
                asyncio.create_task(self._probe_loop(state)))

    def request_shutdown(self) -> None:
        """Begin the drain (idempotent; safe from a signal handler)."""
        if self._drain_task is None:
            self.draining = True
            self._drain_task = asyncio.create_task(self._drain())

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # every forward already in flight still gets its answer
        await self._idle.wait()
        self._stopping.set()
        for task in self._probe_tasks:
            task.cancel()
        if self._probe_tasks:
            await asyncio.gather(*self._probe_tasks,
                                 return_exceptions=True)
        if self.on_drain is not None:
            # backend teardown is blocking subprocess work; keep the
            # loop serving draining-rejections meanwhile
            await asyncio.get_running_loop().run_in_executor(
                None, self.on_drain)
        self._closed.set()

    def update_backend(self, name: str, host: str, port: int) -> None:
        """A backend came back on a (possibly new) address — reset its
        breaker so the next probe can mark it healthy.  Must run on the
        router's loop; the cluster supervisor goes through
        :meth:`update_backend_threadsafe`."""
        state = self.backends[name]
        state.host, state.port = host, port
        state.healthy = False
        state.consecutive_failures = 0
        state.breaker_until = 0.0
        state.restarts += 1
        self.metrics.counter("router.backend_restarts").inc()

    def update_backend_threadsafe(self, name: str, host: str,
                                  port: int) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.update_backend, name,
                                        host, port)

    # -- health ----------------------------------------------------------------

    async def _probe_loop(self, state: BackendState) -> None:
        try:
            while not self._stopping.is_set():
                now = time.monotonic()
                if now < state.breaker_until:
                    await asyncio.sleep(state.breaker_until - now)
                    continue
                if await self._probe(state):
                    if not state.healthy:
                        self.metrics.counter(
                            "router.backend_recoveries").inc()
                    state.healthy = True
                    state.consecutive_failures = 0
                    state.probes_ok += 1
                    await asyncio.sleep(self.config.ping_interval)
                else:
                    state.healthy = False
                    state.probes_failed += 1
                    state.consecutive_failures += 1
                    self.metrics.counter("router.failed_probes").inc()
                    backoff = min(
                        self.config.breaker_cap,
                        self.config.breaker_base
                        * (2 ** (state.consecutive_failures - 1)))
                    state.breaker_until = time.monotonic() + backoff
        except asyncio.CancelledError:
            pass

    async def _probe(self, state: BackendState) -> bool:
        """One fresh-connection ping against the backend's current
        address.  Fresh because a wedged accept loop must fail the
        probe even while old connections still answer."""
        writer = None
        try:
            async with asyncio.timeout(self.config.ping_timeout):
                reader, writer = await asyncio.open_connection(
                    state.host, state.port)
                writer.write(protocol.encode_line(
                    {"v": protocol.PROTOCOL_VERSION, "id": "hc",
                     "op": "ping"}))
                await writer.drain()
                line = await reader.readline()
            obj = json.loads(line) if line else None
            return bool(isinstance(obj, dict) and obj.get("ok"))
        except (ConnectionError, OSError, TimeoutError, ValueError):
            return False
        finally:
            if writer is not None:
                writer.close()

    # -- connections -----------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        links: dict[str, _Link] = {}
        peer = writer.get_extra_info("peername")
        peer_id = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) \
            else "?"
        pending: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(self._serve_line(
                    line, writer, write_lock, links, peer_id))
                pending.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._conn_tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # loop teardown with the connection still open (a client
            # outliving the drain); exit quietly — asyncio logs a
            # cancelled connection-handler task as an error
            pass
        finally:
            if pending:
                await asyncio.gather(*list(pending),
                                     return_exceptions=True)
            for link in links.values():
                link.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_line(self, line: bytes,
                          writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock,
                          links: dict[str, _Link],
                          peer_id: str) -> None:
        started = time.monotonic()
        payload = await self._route(line, links, peer_id)
        self.metrics.histogram("router.request_seconds").observe(
            time.monotonic() - started)
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _route(self, line: bytes, links: dict[str, _Link],
                     peer_id: str) -> bytes:
        """One request line → one raw response line (never raises)."""
        request_id = None
        try:
            obj = protocol.decode_line(line)
            request_id = obj.get("id")
            _, op = protocol.check_envelope(obj)
            client, deadline_s = protocol.envelope_meta(obj)
            self.metrics.counter("router.requests").inc()
            if op == "ping":
                now = time.monotonic()
                healthy = sum(1 for s in self.backends.values()
                              if s.available(now))
                return protocol.encode_line(protocol.ok_response(
                    request_id, {"pong": True, "healthy": healthy,
                                 "backends": len(self.backends)}))
            if op == "metrics":
                return protocol.encode_line(protocol.ok_response(
                    request_id, await self._aggregate_metrics(links)))
            if op == "debug":
                return protocol.encode_line(protocol.ok_response(
                    request_id, await self._aggregate_debug(links)))
            if op == "shutdown":
                self.request_shutdown()
                return protocol.encode_line(protocol.ok_response(
                    request_id, {"draining": True}))
            return await self._forward(obj, line, request_id, client,
                                       deadline_s, links, peer_id)
        except protocol.ProtocolError as exc:
            self.metrics.counter("router.bad_requests").inc()
            return protocol.encode_line(protocol.error_response(
                request_id, exc.kind, exc.message))
        except Exception as exc:  # never kill the connection loop
            logger.exception("internal error routing request")
            self.metrics.counter("router.internal_errors").inc()
            return protocol.encode_line(protocol.error_response(
                request_id, "internal",
                f"{type(exc).__name__}: {exc}"))

    # -- admission + forwarding ------------------------------------------------

    def _admission_error(self, request_id: Any, kind: str, message: str,
                         retry_after: float) -> bytes:
        return protocol.encode_line(protocol.error_response(
            request_id, kind, message, retry_after=retry_after))

    def _shed_probability(self, inflight: int) -> float:
        low, high = self.config.shed_low, self.config.shed_high
        if inflight < low:
            return 0.0
        if inflight >= high:
            return 1.0
        return (inflight - low) / max(1, high - low)

    async def _forward(self, obj: dict, line: bytes, request_id: Any,
                       client: str | None, deadline_s: float | None,
                       links: dict[str, _Link], peer_id: str) -> bytes:
        if self.draining:
            self.metrics.counter("router.drain_rejections").inc()
            return self._admission_error(
                request_id, "draining", "router is shutting down",
                retry_after=0.1)

        # fair admission: one token per engine request, metered by the
        # declared client identity (peer address when none is declared)
        bucket_key = client if client is not None else peer_id
        bucket = self.buckets.get(bucket_key)
        if bucket is None:
            bucket = TokenBucket(self.config.bucket_rate,
                                 self.config.bucket_burst)
            self.buckets[bucket_key] = bucket
        wait = bucket.admit()
        if wait > 0.0:
            self.metrics.counter("router.throttled").inc()
            return self._admission_error(
                request_id, "overload",
                f"client {bucket_key!r} over its admission rate",
                retry_after=wait)

        route_key = protocol.dumps(obj.get("request"))
        order = self.ring.order(route_key)
        now = time.monotonic()
        candidates = [self.backends[name] for name in order
                      if self.backends[name].available(now)]
        if not candidates:
            self.metrics.counter("router.unavailable").inc()
            return self._admission_error(
                request_id, "unavailable", "no healthy backend",
                retry_after=self.config.breaker_base * 4)

        # probabilistic shedding against the primary's in-flight depth:
        # never reroute shed traffic — that would defeat per-backend
        # dedup and melt the next backend too
        primary = candidates[0]
        shed_p = self._shed_probability(primary.inflight)
        if shed_p and self._rng.random() < shed_p:
            self.metrics.counter("router.shed").inc()
            return self._admission_error(
                request_id, "overload",
                f"backend {primary.name} at {primary.inflight} "
                f"in-flight; shed",
                retry_after=0.01 + 0.05 * shed_p)

        expires = now + deadline_s if deadline_s is not None else None
        attempts = max(1, self.config.failover_attempts)
        last_error = "no forward attempted"
        for state in candidates[:attempts]:
            remaining = None
            if expires is not None:
                remaining = expires - time.monotonic()
                if remaining <= 0:
                    self.metrics.counter("router.expired").inc()
                    return protocol.encode_line(protocol.error_response(
                        request_id, "expired",
                        "deadline spent before a backend answered"))
            if remaining is None:
                payload = line    # no deadline to re-stamp: pass the
            else:                 # client's bytes through untouched
                hop = dict(obj)
                hop["deadline_s"] = round(remaining, 4)
                payload = protocol.encode_line(hop)
            link = links.get(state.name)
            if link is None or (link.host, link.port) != (state.host,
                                                          state.port):
                if link is not None:
                    link.close()
                link = _Link(state.host, state.port)
                links[state.name] = link
            state.inflight += 1
            self._forward_started()
            try:
                timeout = self.config.forward_timeout
                if remaining is not None:
                    timeout = min(timeout, remaining + 0.1)
                async with asyncio.timeout(timeout):
                    raw = await link.roundtrip(payload, request_id)
            except (ConnectionError, OSError, TimeoutError) as exc:
                link.close()
                last_error = f"{state.name}: {type(exc).__name__}: {exc}"
                self.metrics.counter("router.failovers").inc()
                continue
            finally:
                state.inflight -= 1
                self._forward_finished()
            # canonical responses make success a substring check; only
            # errors (rare) pay a parse to see if the kind fails over
            if b'"ok":true' not in raw:
                response = json.loads(raw)
                kind = (response.get("error") or {}).get("kind")
                if kind in ("draining", "unavailable"):
                    last_error = f"{state.name}: {kind}"
                    self.metrics.counter("router.failovers").inc()
                    continue
            self.metrics.counter("router.forwarded").inc()
            return raw
        self.metrics.counter("router.unavailable").inc()
        return self._admission_error(
            request_id, "unavailable",
            f"every backend failed ({last_error})",
            retry_after=self.config.breaker_base * 4)

    def _forward_started(self) -> None:
        self._inflight_total += 1
        self._idle.clear()

    def _forward_finished(self) -> None:
        self._inflight_total -= 1
        if self._inflight_total <= 0:
            self._idle.set()

    # -- aggregation ops -------------------------------------------------------

    async def _backend_call(self, state: BackendState,
                            links: dict[str, _Link], op: str) -> Any:
        """One op against one backend over this connection's link;
        ``None`` if the backend could not answer."""
        link = links.get(state.name)
        if link is None or (link.host, link.port) != (state.host,
                                                      state.port):
            if link is not None:
                link.close()
            link = _Link(state.host, state.port)
            links[state.name] = link
        rid = f"agg-{op}-{state.name}"
        try:
            async with asyncio.timeout(self.config.ping_timeout):
                raw = await link.roundtrip(protocol.encode_line(
                    {"v": protocol.PROTOCOL_VERSION, "id": rid,
                     "op": op}), rid)
        except (ConnectionError, OSError, TimeoutError):
            link.close()
            return None
        response = json.loads(raw)
        return response.get("result") if response.get("ok") else None

    def _router_snapshot(self) -> dict[str, Any]:
        now = time.monotonic()
        return {
            "healthy": sum(1 for s in self.backends.values()
                           if s.available(now)),
            "draining": self.draining,
            "clients": len(self.buckets),
            "backends": {name: state.describe(now)
                         for name, state in sorted(self.backends.items())},
        }

    async def _aggregate_metrics(self, links: dict[str, _Link]
                                 ) -> dict[str, Any]:
        """Every backend's snapshot merged into one cluster view."""
        merged = MetricsRegistry()
        for name, value in self.metrics.counters().items():
            merged.counter(name).inc(value)
        histograms: dict[str, Histogram] = {}
        per_backend: dict[str, Any] = {}
        queue_depth = inflight = 0
        for name, state in sorted(self.backends.items()):
            snap = await self._backend_call(state, links, "metrics")
            if snap is None:
                per_backend[name] = None
                continue
            per_backend[name] = snap
            queue_depth += snap.get("queue_depth", 0)
            inflight += snap.get("inflight", 0)
            for cname, value in snap.get("counters", {}).items():
                merged.counter(cname).inc(value)
            for hname, hsnap in snap.get("histograms", {}).items():
                if not hsnap.get("count"):
                    continue
                combined = histograms.setdefault(hname,
                                                 Histogram(hname))
                combined.count += hsnap["count"]
                combined.total += hsnap["total"]
                combined.min = min(combined.min, hsnap["min"])
                combined.max = max(combined.max, hsnap["max"])
                combined.merge_counts(hsnap.get("buckets", []))
        snapshot = {"counters": merged.counters()}
        snapshot["histograms"] = dict(
            self.metrics.histograms(),
            **{name: h.snapshot() for name, h in sorted(
                histograms.items())})
        snapshot["queue_depth"] = queue_depth
        snapshot["inflight"] = inflight
        snapshot["router"] = self._router_snapshot()
        snapshot["backends"] = per_backend
        return snapshot

    async def _aggregate_debug(self, links: dict[str, _Link]
                               ) -> dict[str, Any]:
        """Every backend's live flight-recorder dump, merged: slowest
        across the cluster first, failures in backend order."""
        per_backend: dict[str, Any] = {}
        slowest: list[dict] = []
        failures: list[dict] = []
        recorded = 0
        for name, state in sorted(self.backends.items()):
            dump = await self._backend_call(state, links, "debug")
            per_backend[name] = dump
            if dump is None:
                continue
            recorded += dump.get("recorded", 0)
            for entry in dump.get("slowest", []):
                entry = dict(entry, backend=name)
                slowest.append(entry)
            for entry in dump.get("failures", []):
                failures.append(dict(entry, backend=name))
        slowest.sort(
            key=lambda e: -(e.get("access", {}).get("total_s") or 0.0))
        return {"recorded": recorded, "slowest": slowest,
                "failures": failures, "backends": per_backend}


async def run_router(backends: dict[str, tuple[str, int]],
                     config: RouterConfig, announce=None,
                     on_drain=None, on_started=None) -> int:
    """Start, announce, install signal-driven drain, route until done.

    *announce* receives the bound ``(host, port)`` (the CLI prints the
    ``# serving on HOST:PORT`` line from it).  *on_drain* runs — off
    the loop — once admission has stopped and in-flight forwards have
    answered; the cluster supervisor drains its backends there.
    *on_started* receives the live :class:`ClusterRouter` before
    serving begins (the cluster supervisor wires restart callbacks
    through it).
    """
    router = ClusterRouter(backends, config)
    router.on_drain = on_drain
    await router.start()
    if on_started is not None:
        on_started(router)
    if announce is not None:
        announce(config.host, router.port)
    loop = asyncio.get_running_loop()
    for sig_name in ("SIGTERM", "SIGINT"):
        import signal as _signal

        try:
            loop.add_signal_handler(getattr(_signal, sig_name),
                                    router.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass
    await router.wait_closed()
    return 0


class RouterThread:
    """An in-process router on a background thread (tests, benches).

    Usage::

        with ServerThread(engine_a) as a, ServerThread(engine_b) as b:
            backends = {"b0": ("127.0.0.1", a.port),
                        "b1": ("127.0.0.1", b.port)}
            with RouterThread(backends) as rt:
                client = ResilientClient("127.0.0.1", rt.port)
    """

    def __init__(self, backends: dict[str, tuple[str, int]],
                 config: RouterConfig | None = None):
        self.backends = backends
        self.config = config or RouterConfig()
        self.router: ClusterRouter | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def port(self) -> int:
        assert self.router is not None and self.router.port is not None
        return self.router.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.router = ClusterRouter(self.backends, self.config)
        await self.router.start()
        self._ready.set()
        await self.router.wait_closed()

    def wait_healthy(self, count: int | None = None,
                     timeout: float = 30.0) -> None:
        """Block until *count* backends (default: all) answer probes."""
        assert self.router is not None
        want = count if count is not None else len(self.backends)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            now = time.monotonic()
            healthy = sum(1 for s in self.router.backends.values()
                          if s.available(now))
            if healthy >= want:
                return
            time.sleep(0.02)
        raise TimeoutError(f"only waiting for {want} healthy backends")

    def __enter__(self) -> "RouterThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("router thread failed to start")
        self.wait_healthy()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self.router is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.router.request_shutdown)
            except RuntimeError:
                pass
        self._thread.join(timeout=60)
