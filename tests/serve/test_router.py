"""The cluster router: ring, buckets, shedding, failover, aggregation."""

import asyncio
import socket
import threading
import time

import pytest

from repro.engine import ExperimentEngine
from repro.ir import function_to_text
from repro.serve import (HashRing, ResilientClient, RetriesExhausted,
                         RouterConfig, RouterThread, ServeClient,
                         ServeConfig, ServeError, ServerThread,
                         TokenBucket, dumps, request_from_json,
                         summary_to_json)
from repro.serve import protocol
from repro.serve.router import ClusterRouter

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def spec(n: int = 0) -> dict:
    return {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [n]}


def serial_engine() -> ExperimentEngine:
    return ExperimentEngine(jobs=1, use_cache=False)


def free_port() -> int:
    """A port that was just bound and released — connecting to it
    refuses (the stand-in for a crashed backend)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def fast_config(**overrides) -> RouterConfig:
    base = dict(ping_interval=0.02, ping_timeout=2.0,
                breaker_base=0.02, breaker_cap=0.2)
    base.update(overrides)
    return RouterConfig(**base)


class TestHashRing:
    def test_order_is_deterministic_and_covers_every_backend(self):
        ring = HashRing(["b0", "b1", "b2"])
        order = ring.order("some-key")
        assert sorted(order) == ["b0", "b1", "b2"]
        assert order == HashRing(["b2", "b0", "b1"]).order("some-key")
        assert ring.primary("some-key") == order[0]

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(["b0", "b1", "b2"], virtual_nodes=64)
        counts = {"b0": 0, "b1": 0, "b2": 0}
        for i in range(600):
            counts[ring.primary(f"key-{i}")] += 1
        # virtual nodes keep every backend within a sane share
        assert min(counts.values()) >= 100

    def test_most_keys_keep_their_primary_when_a_backend_leaves(self):
        """The consistent-hashing property: removing one of three
        backends must not reshuffle keys between the survivors."""
        full = HashRing(["b0", "b1", "b2"], virtual_nodes=64)
        reduced = HashRing(["b0", "b1"], virtual_nodes=64)
        moved = 0
        for i in range(300):
            key = f"key-{i}"
            before = full.primary(key)
            if before != "b2" and reduced.primary(key) != before:
                moved += 1
        assert moved == 0

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestTokenBucket:
    def test_burst_admits_then_throttles_with_a_hint(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.admit(now=0.0) == 0.0
        assert bucket.admit(now=0.0) == 0.0
        wait = bucket.admit(now=0.0)
        assert wait == pytest.approx(0.1)   # one token at 10/s

    def test_tokens_refill_over_time_up_to_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        bucket.admit(now=0.0)
        bucket.admit(now=0.0)
        assert bucket.admit(now=0.05) > 0.0   # only half a token back
        assert bucket.admit(now=10.0) == 0.0  # refilled (capped at burst)
        assert bucket.tokens <= bucket.burst


class TestSheddingMath:
    def test_probability_ramps_between_watermarks(self):
        router = ClusterRouter({"b0": ("127.0.0.1", 1)},
                               RouterConfig(shed_low=10, shed_high=20))
        assert router._shed_probability(0) == 0.0
        assert router._shed_probability(9) == 0.0
        assert router._shed_probability(15) == pytest.approx(0.5)
        assert router._shed_probability(20) == 1.0
        assert router._shed_probability(1000) == 1.0


def route_line(n: int = 0, request_id: str = "t", **extra) -> bytes:
    envelope = {"v": 2, "id": request_id, "op": "allocate",
                "request": spec(n)}
    envelope.update(extra)
    return protocol.encode_line(envelope)


class TestForwarding:
    """Unit scenarios against :meth:`ClusterRouter._route` — backends
    are marked healthy by hand, so no probe timing is involved."""

    def run_route(self, router: ClusterRouter, line: bytes) -> dict:
        async def scenario():
            links = {}
            try:
                raw = await router._route(line, links, "test-peer")
            finally:
                for link in links.values():
                    link.close()
            return protocol.decode_line(raw)

        return asyncio.run(scenario())

    def test_failover_from_dead_primary_to_live_peer(self):
        with ServerThread(serial_engine()) as srv:
            dead = free_port()
            # make the dead backend the primary for this exact request
            route_key = protocol.dumps(spec(0))
            router = ClusterRouter({"b0": ("127.0.0.1", dead),
                                    "b1": ("127.0.0.1", dead)})
            primary = router.ring.order(route_key)[0]
            backends = {name: ("127.0.0.1",
                               dead if name == primary else srv.port)
                        for name in ("b0", "b1")}
            router = ClusterRouter(backends)
            for state in router.backends.values():
                state.healthy = True
            response = self.run_route(router, route_line(0))
        assert response["ok"] is True
        assert router.metrics.counters()["router.failovers"] == 1
        assert router.metrics.counters()["router.forwarded"] == 1

    def test_unavailable_when_no_backend_is_healthy(self):
        router = ClusterRouter({"b0": ("127.0.0.1", free_port())})
        response = self.run_route(router, route_line(0))
        assert response["ok"] is False
        error = response["error"]
        assert error["kind"] == "unavailable"
        assert error["retry_after"] > 0
        assert router.metrics.counters()["router.unavailable"] == 1

    def test_shed_above_the_watermark_is_typed_overload(self):
        router = ClusterRouter(
            {"b0": ("127.0.0.1", free_port())},
            RouterConfig(shed_low=1, shed_high=2))
        state = router.backends["b0"]
        state.healthy = True
        state.inflight = 10           # far past shed_high: p == 1.0
        response = self.run_route(router, route_line(0))
        error = response["error"]
        assert error["kind"] == "overload"
        assert "shed" in error["message"]
        assert error["retry_after"] > 0
        assert router.metrics.counters()["router.shed"] == 1

    def test_spent_deadline_answers_expired_without_forwarding(self):
        router = ClusterRouter({"b0": ("127.0.0.1", free_port())})
        router.backends["b0"].healthy = True
        response = self.run_route(router, route_line(0, deadline_s=0.0))
        assert response["error"]["kind"] == "expired"
        assert router.metrics.counters()["router.expired"] == 1
        assert "router.forwarded" not in router.metrics.counters()

    def test_per_client_token_bucket_throttles_the_flood(self):
        with ServerThread(serial_engine()) as srv:
            router = ClusterRouter(
                {"b0": ("127.0.0.1", srv.port)},
                RouterConfig(bucket_rate=0.001, bucket_burst=1.0))
            router.backends["b0"].healthy = True
            first = self.run_route(
                router, route_line(0, client="tenant-a"))
            second = self.run_route(
                router, route_line(0, client="tenant-a"))
        assert first["ok"] is True
        assert second["ok"] is False
        error = second["error"]
        assert error["kind"] == "overload"
        assert "tenant-a" in error["message"]
        assert error["retry_after"] > 0
        assert router.metrics.counters()["router.throttled"] == 1

    def test_anonymous_clients_are_metered_by_peer_address(self):
        with ServerThread(serial_engine()) as srv:
            router = ClusterRouter(
                {"b0": ("127.0.0.1", srv.port)},
                RouterConfig(bucket_rate=0.001, bucket_burst=1.0))
            router.backends["b0"].healthy = True
            line = protocol.encode_line({"v": 2, "id": "t",
                                         "op": "allocate",
                                         "request": spec(0)})
            assert self.run_route(router, line)["ok"] is True
            second = self.run_route(router, line)
        assert second["error"]["kind"] == "overload"
        assert "test-peer" in second["error"]["message"]


class TestEndToEnd:
    """Socket-level tests: two ServerThread backends behind a
    RouterThread, driven by the ordinary clients."""

    def test_byte_identity_and_dedup_survive_the_router(self):
        with ServerThread(serial_engine()) as a, \
                ServerThread(serial_engine()) as b:
            backends = {"b0": ("127.0.0.1", a.port),
                        "b1": ("127.0.0.1", b.port)}
            with RouterThread(backends, fast_config()) as rt:
                with ServeClient("127.0.0.1", rt.port) as client:
                    first = client.allocate(**spec(0))
                    again = client.allocate(**spec(0))
                    merged = client.metrics()
        local = serial_engine().run_many([request_from_json(spec(0))])[0]
        assert dumps(first) == dumps(summary_to_json(local))
        assert dumps(again) == dumps(first)
        counters = merged["counters"]
        # same spec → same backend → its memo answered the repeat
        assert counters["engine.executed"] == 1
        assert counters["engine.memo_hits"] == 1
        assert counters["router.forwarded"] == 2

    def test_ping_reports_cluster_health(self):
        with ServerThread(serial_engine()) as a, \
                ServerThread(serial_engine()) as b:
            backends = {"b0": ("127.0.0.1", a.port),
                        "b1": ("127.0.0.1", b.port)}
            with RouterThread(backends, fast_config()) as rt:
                with ServeClient("127.0.0.1", rt.port) as client:
                    pong = client.call("ping")
        assert pong == {"pong": True, "healthy": 2, "backends": 2}

    def test_metrics_aggregate_merges_histograms_and_router_state(self):
        with ServerThread(serial_engine()) as a, \
                ServerThread(serial_engine()) as b:
            backends = {"b0": ("127.0.0.1", a.port),
                        "b1": ("127.0.0.1", b.port)}
            with RouterThread(backends, fast_config()) as rt:
                with ServeClient("127.0.0.1", rt.port) as client:
                    for n in range(4):
                        client.allocate(**spec(n))
                    merged = client.metrics()
        latency = merged["histograms"]["serve.request_seconds"]
        assert latency["count"] == 4     # across both backends
        assert merged["counters"]["serve.requests"] >= 4
        router_view = merged["router"]
        assert router_view["healthy"] == 2
        assert set(router_view["backends"]) == {"b0", "b1"}
        for state in router_view["backends"].values():
            assert state["healthy"] is True
            assert state["probes_ok"] >= 1
        assert set(merged["backends"]) == {"b0", "b1"}
        per_backend_requests = sum(
            snap["counters"].get("serve.op.allocate", 0)
            for snap in merged["backends"].values() if snap)
        assert per_backend_requests == 4

    def test_debug_aggregate_tags_entries_with_their_backend(self):
        with ServerThread(serial_engine()) as a, \
                ServerThread(serial_engine()) as b:
            backends = {"b0": ("127.0.0.1", a.port),
                        "b1": ("127.0.0.1", b.port)}
            with RouterThread(backends, fast_config()) as rt:
                with ServeClient("127.0.0.1", rt.port) as client:
                    for n in range(4):
                        client.allocate(**spec(n))
                    dump = client.debug()
        assert dump["recorded"] == 4
        assert len(dump["slowest"]) == 4
        assert {entry["backend"] for entry in dump["slowest"]} \
            <= {"b0", "b1"}
        # merged view is sorted slowest-first across the cluster
        totals = [entry["access"]["total_s"]
                  for entry in dump["slowest"]]
        assert totals == sorted(totals, reverse=True)
        assert set(dump["backends"]) == {"b0", "b1"}

    def test_update_backend_repins_and_recovers(self):
        """The supervisor's restart notification path: repoint one
        backend at a new address and watch probes re-mark it healthy."""
        with ServerThread(serial_engine()) as a, \
                ServerThread(serial_engine()) as b, \
                ServerThread(serial_engine()) as c:
            backends = {"b0": ("127.0.0.1", a.port),
                        "b1": ("127.0.0.1", b.port)}
            with RouterThread(backends, fast_config()) as rt:
                assert rt.router is not None
                rt.router.update_backend_threadsafe(
                    "b1", "127.0.0.1", c.port)
                state = rt.router.backends["b1"]
                deadline = time.monotonic() + 10
                while state.port != c.port:   # scheduled on the loop
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                rt.wait_healthy()
                assert state.restarts == 1
                with ServeClient("127.0.0.1", rt.port) as client:
                    assert client.ping()
                    counters = client.metrics()["counters"]
        assert counters["router.backend_restarts"] == 1


class TestResilientClient:
    def test_non_retryable_errors_raise_immediately(self):
        with ServerThread(serial_engine()) as srv:
            with ResilientClient("127.0.0.1", srv.port) as client:
                with pytest.raises(ServeError) as exc:
                    client.allocate(kernel="no-such-kernel")
                assert client.retries == 0
        assert exc.value.kind == "bad_request"
        assert not exc.value.retryable

    def test_draining_retries_until_exhausted(self):
        with ServerThread(serial_engine()) as srv:
            assert srv.server is not None
            srv.server.draining = True
            with ResilientClient("127.0.0.1", srv.port, max_retries=2,
                                 backoff=0.001) as client:
                with pytest.raises(RetriesExhausted) as exc:
                    client.allocate(**spec(0))
                assert client.retries == 2
            srv.server.draining = False
        assert exc.value.kind == "draining"

    def test_transport_failures_reconnect_then_exhaust(self):
        client = ResilientClient("127.0.0.1", free_port(),
                                 max_retries=2, backoff=0.001)
        with pytest.raises(RetriesExhausted) as exc:
            client.ping()
        assert exc.value.kind == "unavailable"
        assert client.retries == 2

    def test_spent_deadline_expires_client_side(self):
        client = ResilientClient("127.0.0.1", free_port(), deadline=0.0)
        with pytest.raises(ServeError) as exc:
            client.ping()
        assert exc.value.kind == "expired"
        assert client.retries == 0    # never even dialled

    def test_threads_share_one_resilient_client(self):
        with ServerThread(serial_engine()) as srv:
            client = ResilientClient("127.0.0.1", srv.port)
            results = {}

            def one(n: int) -> None:
                results[n] = dumps(client.allocate(**spec(n % 2)))

            threads = [threading.Thread(target=one, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        expected = [dumps(summary_to_json(o)) for o in
                    serial_engine().run_many(
                        [request_from_json(spec(n % 2))
                         for n in range(6)])]
        assert [results[n] for n in range(6)] == expected
