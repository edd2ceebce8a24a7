"""The async server: admission control, dedup, batching, byte-identity."""

import asyncio
import concurrent.futures
import pickle
import threading
import time
import types

import pytest

from repro.engine import (ExperimentEngine, FaultPlan, SupervisorConfig,
                          request_key)
from repro.ir import function_to_text
from repro.machine import machine_with
from repro.serve import (AllocationServer, ServeClient, ServeConfig,
                         ServeError, ServerThread, dumps, execute_trace,
                         request_from_json, summary_to_json)
from repro.serve.protocol import encode_line

from ..helpers import single_loop

LOOP_TEXT = function_to_text(single_loop())


def spec(n: int = 0) -> dict:
    return {"ir_text": LOOP_TEXT, "int_regs": 4, "args": [n]}


def line(op: str, n: int = 0, request_id: str = "t") -> bytes:
    return encode_line({"v": 2, "id": request_id, "op": op,
                        "request": spec(n)})


def serial_engine(**kwargs) -> ExperimentEngine:
    return ExperimentEngine(jobs=1, use_cache=False, **kwargs)


class TestAdmission:
    """Unit tests against the server object — the batcher is started
    (or not) by hand, so queue occupancy is deterministic."""

    def test_full_queue_rejects_with_overload(self):
        async def scenario():
            server = AllocationServer(serial_engine(),
                                      ServeConfig(queue_limit=1))
            first = asyncio.ensure_future(
                server._respond(line("allocate", 0)))
            await asyncio.sleep(0)          # let it occupy the queue slot
            overloaded = await server._respond(line("allocate", 1))
            assert overloaded["ok"] is False
            assert overloaded["error"]["kind"] == "overload"
            assert overloaded["error"]["retry_after"] > 0
            assert server.metrics.counters()[
                "serve.overload_rejections"] == 1
            # now drain: run the batcher until the first answer lands
            batcher = asyncio.ensure_future(server._batcher())
            response = await first
            assert response["ok"] is True
            await server.queue.put(None)
            await batcher

        asyncio.run(scenario())

    def test_identical_inflight_requests_share_one_execution(self):
        async def scenario():
            server = AllocationServer(serial_engine(),
                                      ServeConfig(queue_limit=1))
            first = asyncio.ensure_future(
                server._respond(line("allocate", 0, "a")))
            await asyncio.sleep(0)
            # same key: joins the in-flight future, takes no queue slot
            second = asyncio.ensure_future(
                server._respond(line("allocate", 0, "b")))
            await asyncio.sleep(0)
            assert server.metrics.counters()["serve.deduplicated"] == 1
            assert server.queue.qsize() == 1
            batcher = asyncio.ensure_future(server._batcher())
            r1, r2 = await asyncio.gather(first, second)
            assert r1["ok"] and r2["ok"]
            assert dumps(r1["result"]) == dumps(r2["result"])
            assert server.engine.stats.executed == 1
            await server.queue.put(None)
            await batcher

        asyncio.run(scenario())

    def test_draining_rejects_new_work(self):
        async def scenario():
            server = AllocationServer(serial_engine(), ServeConfig())
            server.draining = True
            response = await server._respond(line("allocate", 0))
            assert response["ok"] is False
            assert response["error"]["kind"] == "draining"

        asyncio.run(scenario())

    def test_malformed_lines_get_typed_errors(self):
        async def scenario():
            server = AllocationServer(serial_engine(), ServeConfig())
            bad_json = await server._respond(b"{nope\n")
            assert bad_json["error"]["kind"] == "bad_request"
            bad_op = await server._respond(
                encode_line({"v": 2, "id": "x", "op": "explode"}))
            assert bad_op["id"] == "x"
            assert bad_op["error"]["kind"] == "bad_request"
            bad_request = await server._respond(
                encode_line({"v": 2, "id": "y", "op": "allocate",
                             "request": {"kernel": "no-such"}}))
            assert bad_request["error"]["kind"] == "bad_request"

        asyncio.run(scenario())


class GatedEngine:
    """A serial engine whose ``run_many`` records each batch (by the
    requests' first argument), signals *entered* and then blocks until
    *gate* is set.  *slots* fakes the pool size the batcher reads."""

    def __init__(self, slots: int = 1, delay: float = 0.0):
        self.inner = serial_engine()
        self.pool = types.SimpleNamespace(size=slots)
        self.delay = delay
        self.batches: list[list[int]] = []
        self.entered = threading.Semaphore(0)
        self.gate = threading.Event()

    def run_many(self, requests, **kwargs):
        self.batches.append([r.args[0] for r in requests])
        self.entered.release()
        assert self.gate.wait(timeout=30)
        time.sleep(self.delay)
        return self.inner.run_many(requests, **kwargs)

    async def wait_entered(self) -> None:
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.acquire,
                                          True, 30)


@pytest.fixture
def timed_waits(monkeypatch):
    """Records every timed ``asyncio.wait_for``/``asyncio.sleep`` —
    a batcher that lingers for stragglers makes one."""
    calls = []
    real_sleep, real_wait_for = asyncio.sleep, asyncio.wait_for

    async def sleep(delay, *args, **kwargs):
        if delay > 0:
            calls.append(("sleep", delay))
        return await real_sleep(delay, *args, **kwargs)

    async def wait_for(awaitable, timeout):
        calls.append(("wait_for", timeout))
        return await real_wait_for(awaitable, timeout)

    monkeypatch.setattr(asyncio, "sleep", sleep)
    monkeypatch.setattr(asyncio, "wait_for", wait_for)
    return calls


def send(server: AllocationServer, *ns: int) -> list[asyncio.Future]:
    return [asyncio.ensure_future(
                server._respond(line("allocate", n, f"r{n}")))
            for n in ns]


class TestBatcher:
    """The batcher dispatches the queue head at once, runs up to one
    batch per pool worker, and batches only what queued up while every
    batch slot was taken."""

    @pytest.mark.parametrize("max_batch,slots,expected", [
        (32, 1, [[0], [1, 2, 3]]),
        (2, 1, [[0], [1, 2], [3]]),
        (32, 2, [[0], [1], [2, 3]]),
    ])
    def test_arrivals_while_slots_are_taken_form_the_next_batch(
            self, max_batch, slots, expected, timed_waits):
        async def scenario():
            engine = GatedEngine(slots)
            server = AllocationServer(engine,
                                      ServeConfig(max_batch=max_batch))
            batcher = asyncio.ensure_future(server._batcher())
            running = send(server, 0)
            await engine.wait_entered()
            assert engine.batches == [[0]]
            if slots == 2:      # a free slot dispatches the next at once
                running += send(server, 1)
                await engine.wait_entered()
                assert engine.batches == [[0], [1]]
            queued = [n for n in (1, 2, 3) if n >= slots]
            running += send(server, *queued)
            await asyncio.sleep(0)          # let them reach the queue
            assert server.queue.qsize() == len(queued)
            engine.gate.set()
            responses = await asyncio.gather(*running)
            assert [r["ok"] for r in responses] == [True] * 4
            assert [r["id"] for r in responses] == ["r0", "r1", "r2", "r3"]
            assert engine.batches == expected
            await server.queue.put(None)
            await batcher

        asyncio.run(scenario())
        assert timed_waits == []

    def test_retry_after_is_one_batch_of_the_last_batch_time(self):
        async def scenario():
            engine = GatedEngine(delay=0.3)
            engine.gate.set()
            server = AllocationServer(engine, ServeConfig(queue_limit=2,
                                                          max_batch=1))
            batcher = asyncio.ensure_future(server._batcher())
            running = send(server, 0)
            await engine.wait_entered()
            running += send(server, 1, 2)   # fills the queue
            await asyncio.sleep(0)
            await running[0]                # a 0.3 s batch has finished
            await engine.wait_entered()
            running += send(server, 3)      # refills the queue
            await asyncio.sleep(0)
            assert server.queue.qsize() == 2
            overloaded = await server._respond(line("allocate", 4))
            hint = overloaded["error"]["retry_after"]
            # one batch's worth, not the whole two-batch backlog
            assert 0.3 <= hint < 0.6
            assert all(r["ok"] for r in await asyncio.gather(*running))
            await server.queue.put(None)
            await batcher

        asyncio.run(scenario())


class TestEndToEnd:
    """Socket-level tests through :class:`ServerThread`."""

    def test_allocate_is_byte_identical_to_run_many(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                served = client.allocate(**spec(0))
        local = serial_engine().run_many([request_from_json(spec(0))])[0]
        assert dumps(served) == dumps(summary_to_json(local))

    def test_trace_matches_local_trace(self, tmp_path, capsys):
        """Identical to a local ``execute_trace`` modulo wall-clock
        fields (span start/dur and timing histograms are live data),
        under every allocator the request can name; the identity block
        is what ``repro trace --format jsonl`` writes, bar ``source``."""
        import json

        from repro.cli import main

        def normalized(text):
            lines = []
            for raw in text.splitlines():
                obj = json.loads(raw)
                if obj.get("type") == "span":
                    obj.pop("start", None)
                    obj.pop("dur", None)
                elif obj.get("type") == "metrics":
                    obj = {"type": "metrics",
                           "counters": obj.get("counters")}
                lines.append(dumps(obj))
            return lines

        path = tmp_path / "loop.il"
        path.write_text(LOOP_TEXT)
        for allocator in ("iterated", "ssa"):
            request = {**spec(0), "allocator": allocator}
            with ServerThread(serial_engine()) as srv:
                with ServeClient("127.0.0.1", srv.port) as client:
                    served = client.trace(**request)
            local = execute_trace(request_from_json(request))
            assert normalized(served) == normalized(local), allocator

            assert main(["trace", str(path), "--format", "jsonl",
                         "--k", "4", "--allocator", allocator]) == 0
            cli_meta = json.loads(capsys.readouterr().out.splitlines()[0])
            meta = json.loads(served.splitlines()[0])
            assert meta.pop("source") == "<serve>"
            cli_meta.pop("source")
            assert meta == cli_meta, allocator
            root = next(obj for obj in map(json.loads, served.splitlines())
                        if obj["type"] == "span" and obj["parent"] is None)
            assert root["attrs"]["allocator"] == allocator

    def test_concurrent_clients_batch_and_agree(self):
        config = ServeConfig(max_batch=16)
        with ServerThread(serial_engine(), config) as srv:
            def one(n):
                with ServeClient("127.0.0.1", srv.port) as client:
                    return dumps(client.allocate(**spec(n % 2)))

            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                results = list(pool.map(one, range(6)))
            with ServeClient("127.0.0.1", srv.port) as client:
                metrics = client.metrics()
        locals_ = serial_engine().run_many(
            [request_from_json(spec(n % 2)) for n in range(6)])
        expected = [dumps(summary_to_json(o)) for o in locals_]
        assert results == expected
        counters = metrics["counters"]
        assert counters["serve.requests"] == 7
        # at most two distinct keys ever executed, whatever the batching
        assert counters["engine.executed"] <= 2

    def test_threads_can_share_one_client_connection(self):
        """The client lock serializes whole round-trips, so concurrent
        threads over one connection each get the answer to *their*
        request, never a neighbour's."""
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                def one(n):
                    return dumps(client.allocate(**spec(n % 2)))

                with concurrent.futures.ThreadPoolExecutor(8) as pool:
                    results = list(pool.map(one, range(16)))
        locals_ = serial_engine().run_many(
            [request_from_json(spec(n % 2)) for n in range(16)])
        assert results == [dumps(summary_to_json(o)) for o in locals_]

    def test_quarantined_request_comes_back_as_typed_failure(self):
        key = request_key(request_from_json(spec(0)))
        engine = serial_engine(
            fault_plan=FaultPlan(poison=frozenset({key})),
            supervisor=SupervisorConfig(max_attempts=1, backoff=0.0))
        with ServerThread(engine) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                with pytest.raises(ServeError) as exc:
                    client.allocate(**spec(0))
                # the connection survives the failure
                assert client.ping()
        error = exc.value.error
        assert error["kind"] == "failed"
        assert error["key"] == key
        assert error["attempts"] == 1

    def test_shutdown_op_drains_and_closes(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.allocate(**spec(0))
                client.shutdown()
            srv._thread.join(timeout=30)
            assert not srv._thread.is_alive()

    def test_metrics_expose_admission_and_engine_counters(self):
        with ServerThread(serial_engine()) as srv:
            with ServeClient("127.0.0.1", srv.port) as client:
                client.allocate(**spec(0))
                client.allocate(**spec(0))   # memo hit, same bytes
                metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["serve.op.allocate"] == 2
        assert counters["serve.batches"] >= 1
        assert counters["engine.executed"] == 1
        assert counters["engine.memo_hits"] == 1
        assert metrics["queue_depth"] == 0
        assert metrics["inflight"] == 0
