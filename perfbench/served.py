"""The served workloads: ``serve-warm`` and ``serve-mixed``.

Both run a ``repro serve --jobs 1`` subprocess with a fresh cache
directory.  Setup boots it (to the first answered ``ping``) and primes
96 kernel specs (48 kernels x k=8 x chaitin/remat), so they are memo
hits from then on.  Two closed-loop connections, each on its own thread
of this process, then send requests for ``--seconds``:

* ``serve-warm`` — every request is one of the primed specs, drawn with
  a seeded RNG: only the server, the protocol and the engine memo work;
* ``serve-mixed`` — as serve-warm, but every 8th request of a connection
  is a fresh seeded gen-m function sent as ``ir_text``.  It misses the
  memo and the cache, runs on the worker pool and is written to the
  disk cache: the engine's miss path, beside the hits.

Every response is checked: its interpreter output against the
unallocated function's, its bytes against the first response for the
same key, and, on a seeded sample, against
``dumps(summary_to_json(...))`` of an in-process
``ExperimentEngine(jobs=1, use_cache=False)``.

The router/cluster layer is left out on purpose: on a 2-core machine a
router, two backends and the load generator would measure the
scheduler.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

from harness import (ROOT, SRC, CountLedger, SpeedMeter,
                     central_percentile, geomean, mean, median, out_dir,
                     peak_rss_mb)

from inproc import (COST_MODEL, INTERP_CLASSES, REGALLOC_COUNTS,
                    exact_counts, exact_layers, span_records, tracer_for)

from repro.benchsuite import ALL_KERNELS, GeneratorConfig, random_program
from repro.engine import ExperimentEngine, execute_request, request_key
from repro.interp import run_function
from repro.ir import CountClass, function_to_text
from repro.serve.client import ServeClient
from repro.serve.protocol import dumps, request_from_json, summary_to_json

#: closed-loop connections (one thread each): the machine's 2 cores
CONNECTIONS = 2
#: in serve-mixed, every MISS_EVERY-th request of a connection misses
MISS_EVERY = 8
#: the gen-m shape of ``benchmarks/bench_build_scaling.py``
GEN_M = GeneratorConfig(n_vars=10, max_depth=3, max_stmts=8)
MISS_BASE_SEED = 2_000_000
MISS_SIZES = (100, 250)
#: serve-mixed's code-quality ratios cover the primed keys and the first
#: FIXED_MISSES functions of the miss sequence, a set that does not
#: depend on how many requests a run gets through (a 10 s run answers
#: ~85 misses); a run that answers fewer fails
FIXED_MISSES = 32
#: server boots per run; setup reports the median boot
BOOT_REPS = 3
#: priming requests between two speed samples
PRIME_BLOCK = 8
#: the timed window is cut into this many segments; load pauses between
#: them while the machine's speed is sampled
SEGMENTS = 20
#: responses per class checked byte for byte against the engine
BYTE_SAMPLE = 8
#: responses per class timed in-process for engine.exec_overhead_s
OVERHEAD_SAMPLE = 4
BOOT_TIMEOUT_S = 60.0
#: a load connection gives up on one request after this long; the
#: segment barrier waits for it a little longer
REQUEST_TIMEOUT_S = 30.0
BARRIER_TIMEOUT_S = REQUEST_TIMEOUT_S + 30.0
PHASES = ("parse", "admission", "queue_wait", "batch_wait", "execute",
          "respond")
ENGINE_COUNTERS = ("memo_hits", "cache_hits", "executed", "worker_spawns",
                   "workers_reused", "retries")


def hit_corpus() -> list[dict]:
    return [{"kernel": kernel.name, "int_regs": 8, "float_regs": 8,
             "mode": mode}
            for kernel in ALL_KERNELS for mode in ("chaitin", "remat")]


class Server:
    """One ``repro serve`` subprocess, booted to its first ``ping``."""

    def __init__(self, workdir, access_log=None):
        workdir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--jobs", "1", "--cache-dir", str(workdir / "cache")]
        if access_log is not None:
            cmd += ["--access-log", str(access_log)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.perf_counter()
        with open(workdir / "server.err", "w") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=err, text=True, env=env,
                                         cwd=ROOT)
        watchdog = threading.Timer(BOOT_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            announce = self.proc.stdout.readline().strip()
            if not announce.startswith("# serving on "):
                raise RuntimeError(f"server did not start: {announce!r}")
            self.port = int(announce.rsplit(":", 1)[1])
            with ServeClient("127.0.0.1", self.port) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.boot_s = time.perf_counter() - start

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class MissPool:
    """The fresh functions of serve-mixed, with their reference outputs.

    A fixed sequence of gen-m draws of MISS_SIZES instructions
    (duplicate texts skipped), the same in every run: a miss costs ~20x
    a hit, so misses that differed per seed would set the spread of
    every serve-mixed metric.  The seed draws the hits.  Made ahead of
    the timed region; a connection that runs past the prepared ones
    makes more between its requests.
    """

    def __init__(self, prepare: int):
        self.next_seed = MISS_BASE_SEED
        self.items: list[tuple[dict, list]] = []
        self.texts: set[str] = set()
        self.lock = threading.Lock()
        self.get(prepare - 1)

    def get(self, index: int) -> tuple[dict, list]:
        with self.lock:
            while len(self.items) <= index:
                fn = random_program(self.next_seed, GEN_M)
                self.next_seed += 1
                if not MISS_SIZES[0] <= fn.size() <= MISS_SIZES[1]:
                    continue
                text = function_to_text(fn)
                if text in self.texts:
                    continue
                self.texts.add(text)
                spec = {"ir_text": text, "int_regs": 8, "float_regs": 8,
                        "mode": "remat"}
                run = run_function(fn)
                self.items.append((spec, {"output": run.output,
                                          "cycles": COST_MODEL.cycles(
                                              run.counts)}))
            return self.items[index]


def load(port: int, thread: int, seed: int, corpus: list[dict],
         references: dict, misses: MissPool | None, barrier,
         segments: list[float], tracer, log: list) -> None:
    """One closed-loop connection: send, wait, record, repeat.  Load
    stops between segments (at *barrier*) while the machine's speed is
    measured.  An operation that raises is logged as failed and breaks
    the connection, which sends nothing more but keeps meeting the
    barrier."""
    rng = random.Random(seed * 1000 + thread)
    client = ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S,
                         client_id=f"load{thread}")
    broken = False
    sent = 0
    try:
        for seconds in segments:
            barrier.wait()
            end = time.perf_counter() + seconds
            while not broken and time.perf_counter() < end:
                is_miss = (misses is not None
                           and sent % MISS_EVERY == MISS_EVERY - 1)
                entry = {"kind": "miss" if is_miss else "hit",
                         "thread": thread}
                if is_miss:
                    entry["index"] = ((sent // MISS_EVERY) * CONNECTIONS
                                      + thread)
                sent += 1
                try:
                    if is_miss:
                        entry["spec"], entry["reference"] = misses.get(
                            entry["index"])
                    else:
                        entry["spec"] = rng.choice(corpus)
                        entry["reference"] = references[
                            entry["spec"]["kernel"]]
                    with tracer.span("ServeClient.call", kind=entry["kind"],
                                     thread=thread):
                        start = time.perf_counter()
                        entry["response"] = client.call_raw(
                            "allocate", entry["spec"])
                        entry["rtt"] = time.perf_counter() - start
                except Exception as exc:  # a failed operation, not a crash
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                    broken = True
                log.append(entry)
            barrier.wait()
    finally:
        client.close()


def normalized(rtt: float, wait: float, factor: float) -> float:
    """A round trip at the reference machine speed: the batch-timer wait
    is wall-clock time and stays; the rest is work and scales."""
    wait = min(wait, rtt)
    return wait + (rtt - wait) / factor


def phase_mean(before: dict, after: dict, phase: str) -> float:
    """Mean of one server phase over the requests between two
    ``metrics`` snapshots."""
    name = f"serve.phase.{phase}"
    first = before["histograms"].get(name, {})
    last = after["histograms"].get(name, {})
    count = last.get("count", 0) - first.get("count", 0)
    return ((last.get("total", 0.0) - first.get("total", 0.0)) / count
            if count else 0.0)


def summary_counts(result: dict) -> dict:
    """A served summary's counts, shaped like an in-process record."""
    stats, counts = result["stats"], result["counts"]
    return {
        "dyn_cycles": COST_MODEL.cycles({CountClass(c): n
                                         for c, n in counts.items()}),
        "code_size": result["allocated_size"],
        "steps": result["steps"],
        "interp": {cls.value: counts.get(cls.value, 0)
                   for cls in INTERP_CLASSES},
        "regalloc": {label: stats[field]
                     for label, field in REGALLOC_COUNTS.items()},
        "liveness_computed": stats["n_liveness_computed"],
        "blocks_reanalyzed": stats["n_incremental_blocks_reanalyzed"],
        "blocks_total": stats["n_incremental_blocks_total"],
        "max_bitset_bits": stats["max_bitset_bits"],
    }


def check_response(entry: dict, first_bytes: dict,
                   ledger: CountLedger) -> bool:
    """Output, repeat-byte and exact-count checks of one response."""
    response = entry.get("response")
    if response is None or not response.get("ok"):
        return False
    result = response["result"]
    body = dumps(result)
    key = result["key"]
    entry["key"] = key
    ok = first_bytes.setdefault(key, body) == body
    ok = result["output"] == entry["reference"]["output"] and ok
    entry["counts"] = summary_counts(result)
    return ledger.check(key, exact_counts(entry["counts"])) and ok


def read_access_log(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = tracer_for(trace)
    meter = SpeedMeter()
    run_dir = out_dir() / f"serve-{os.getpid()}"
    corpus = hit_corpus()
    compile_s = 0.0
    references = {}
    for kernel in ALL_KERNELS:
        with tracer.span("Kernel.compile", fn=kernel.name):
            start = time.perf_counter()
            fn = kernel.compile()
            compile_s += time.perf_counter() - start
        run_ = run_function(fn, list(kernel.args))
        references[kernel.name] = {"output": run_.output,
                                   "cycles": COST_MODEL.cycles(run_.counts)}
    misses = (MissPool(int(seconds * 20)) if workload == "serve-mixed"
              else None)
    access_log = run_dir / "access.jsonl" if trace else None

    boots = []
    server = None
    try:
        factors = [meter.sample(every_cpu=True)]
        for rep in range(BOOT_REPS):
            if server is not None:
                server.stop()
            last = rep == BOOT_REPS - 1
            server = Server(run_dir / f"boot{rep}",
                            access_log if last else None)
            boots.append(server.boot_s)
            factors.append(meter.sample(every_cpu=True))
        boot_s = median(boots) / mean(factors)

        prime_order = corpus[:]
        random.Random(seed).shuffle(prime_order)
        primed = []
        with ServeClient("127.0.0.1", server.port,
                         client_id="prime") as client:
            snapshots = [client.metrics()]
            factors = [meter.sample(every_cpu=True)]
            for block in range(0, len(prime_order), PRIME_BLOCK):
                for spec in prime_order[block:block + PRIME_BLOCK]:
                    entry = {"kind": "prime", "spec": spec,
                             "reference": references[spec["kernel"]]}
                    with tracer.span("ServeClient.call", kind="prime"):
                        start = time.perf_counter()
                        entry["response"] = client.call_raw("allocate",
                                                            spec)
                        entry["rtt"] = time.perf_counter() - start
                    primed.append(entry)
                factors.append(meter.sample(every_cpu=True))
            snapshots.append(client.metrics())
        wait = phase_mean(snapshots[0], snapshots[1], "batch_wait")
        prime_s = sum(normalized(e["rtt"], wait, mean(factors))
                      for e in primed)

        log: list[dict] = []
        thread_tracers = [tracer_for(trace) for _ in range(CONNECTIONS)]
        barrier = threading.Barrier(CONNECTIONS + 1,
                                    timeout=BARRIER_TIMEOUT_S)
        segments = [seconds / SEGMENTS] * SEGMENTS
        threads = [threading.Thread(
            target=load, args=(server.port, t, seed, corpus, references,
                               misses, barrier, segments, thread_tracers[t],
                               log))
            for t in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        factors, snapshots, walls = [], [], []
        with ServeClient("127.0.0.1", server.port,
                         client_id="meter") as client:
            for segment in range(SEGMENTS + 1):
                factors.append(meter.sample(every_cpu=True))
                snapshots.append(client.metrics())
                if segment == SEGMENTS:
                    break
                barrier.wait()
                start = time.perf_counter()
                barrier.wait()
                walls.append(time.perf_counter() - start)
        for thread in threads:
            thread.join()
        server_rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    # -- checks (outside the timed region) --------------------------------
    ledger = CountLedger(workload)
    first_bytes: dict[str, str] = {}
    failed = 0
    for entry in primed + log:
        entry["ok"] = check_response(entry, first_bytes, ledger)
        failed += not entry["ok"]
    ledger.save()

    by_key: dict[str, list[dict]] = {}
    for entry in primed + log:
        if "key" in entry:
            by_key.setdefault(entry["key"], []).append(entry)
    rng = random.Random(seed)
    sample = []
    for kind in ("prime", "miss"):
        keys = sorted({e["key"] for e in primed + log
                       if e["kind"] == kind and "key" in e})
        sample += rng.sample(keys, min(BYTE_SAMPLE, len(keys)))
    engine = ExperimentEngine(jobs=1, use_cache=False)
    summaries = {}
    for key in sample:
        spec = by_key[key][0]["spec"]
        summaries[key] = engine.run(request_from_json(spec))
        if dumps(summary_to_json(summaries[key])) != first_bytes[key]:
            for entry in by_key[key]:
                if entry["ok"]:
                    entry["ok"] = False
                    failed += 1

    # -- metrics ----------------------------------------------------------
    done = [e for e in log if e["ok"]]
    speed = mean(factors)
    wait = phase_mean(snapshots[0], snapshots[-1], "batch_wait")
    rtts = [normalized(e["rtt"], wait, speed) for e in done]
    # the closed loops' wall time, scaled like their round trips
    norm_wall = sum(walls) * (sum(rtts) / sum(e["rtt"] for e in done)
                              if done else 1.0)
    # the code-quality set: the primed keys and the first FIXED_MISSES
    # misses (none on serve-warm); one the run never sent is a failure
    fixed = [e for e in primed + log if e["kind"] == "prime"
             or e["kind"] == "miss" and e["index"] < FIXED_MISSES]
    unsent = ((FIXED_MISSES if misses is not None else 0)
              - sum(e["kind"] == "miss" for e in fixed))
    failed += unsent
    answered = [e["response"]["result"] for e in fixed if e["ok"]]
    ref_cycles = {e["key"]: e["reference"]["cycles"] for e in fixed
                  if e["ok"]}
    e2e = {
        "setup_s": boot_s + prime_s,
        "peak_rss_mb": server_rss,
        "ops_per_s": len(done) / norm_wall,
        "p50_ms": central_percentile(rtts, 50) * 1e3,
        "p90_ms": central_percentile(rtts, 90) * 1e3,
        "insts_per_s": sum(e["response"]["result"]["code_size"]
                           for e in done) / norm_wall,
        "cycles_ratio": geomean(
            COST_MODEL.cycles({CountClass(c): n
                               for c, n in r["counts"].items()})
            / ref_cycles[r["key"]] for r in answered),
        "size_ratio": geomean(r["allocated_size"] / r["code_size"]
                              for r in answered),
    }
    hits = [e["rtt"] for e in done if e["kind"] == "hit"]
    miss_rtts = [e["rtt"] for e in done if e["kind"] == "miss"]
    # the exact set: one response per primed key
    layers = exact_layers([by_key[e["key"]][0]["counts"] for e in primed
                           if "counts" in e])
    layers.update({
        "samples.latency": len(rtts),
        "samples.hit": len(hits),
        "samples.miss": len(miss_rtts),
        "machine.speed_factor": speed,
    })
    if trace:
        layers.update(traced_layers(
            corpus, log, by_key, sample, summaries, snapshots[0],
            snapshots[-1], read_access_log(access_log), tracer, compile_s))
        layers.update({
            "client.hit_p50_ms": central_percentile(hits, 50) * 1e3,
            "client.hit_p99_ms": central_percentile(hits, 99, 0.5) * 1e3,
            "client.miss_p50_ms": central_percentile(miss_rtts, 50) * 1e3,
            "client.miss_p90_ms": central_percentile(miss_rtts, 90) * 1e3,
        })
    shutil.rmtree(run_dir, ignore_errors=True)
    return {"attempted": len(primed) + len(log) + unsent,
            "failed": failed, "count_drift": ledger.drift, "e2e": e2e,
            "layers": layers,
            "spans": span_records(tracer, *thread_tracers)}


def traced_layers(corpus, log, by_key, sample, summaries, before, after,
                  access, tracer, compile_s: float) -> dict:
    """Per-layer metrics of a traced run: in-process timings of the
    protocol and engine entry points on the workload's corpus, the
    server's ``metrics`` op (deltas over the timed region) and its
    access log."""
    layers = {"frontend.compile_s": compile_s}
    specs = corpus + [e["spec"] for e in log
                      if e["kind"] == "miss" and "spec" in e]
    parse_s, key_s = [], []
    for spec in specs:
        with tracer.span("request_from_json"):
            start = time.perf_counter()
            request = request_from_json(spec)
            parse_s.append(time.perf_counter() - start)
        with tracer.span("request_key"):
            start = time.perf_counter()
            request_key(request)
            key_s.append(time.perf_counter() - start)
    encode_s = []
    for summary in summaries.values():
        with tracer.span("summary_to_json"):
            start = time.perf_counter()
            dumps(summary_to_json(summary))
            encode_s.append(time.perf_counter() - start)
    layers.update({"protocol.request_from_json_s": median(parse_s),
                   "engine.request_key_s": median(key_s),
                   "protocol.encode_s": median(encode_s)})

    for name in ENGINE_COUNTERS:
        layers[f"engine.{name}"] = counter_delta(before, after,
                                                 f"engine.{name}")
    for name in ("deduplicated", "overload_rejections"):
        layers[f"serve.{name}"] = counter_delta(before, after,
                                                f"serve.{name}")
    batches = [snapshot["histograms"].get("serve.batch_size", {})
               for snapshot in (before, after)]
    n_batches = batches[1].get("count", 0) - batches[0].get("count", 0)
    layers["serve.batch_size"] = (
        (batches[1].get("total", 0) - batches[0].get("total", 0))
        / n_batches if n_batches else 0.0)

    records = {(r["client"], r["client_id"]): r for r in access
               if r["op"] == "allocate"}
    window = []
    for entry in log:
        response = entry.get("response")
        if response is not None and response.get("ok"):
            record = records.get((f"load{entry['thread']}",
                                  response["id"]))
            if record is not None:
                window.append((entry, record))
    for source in ("memo", "executed"):
        chosen = [r for _, r in window if r["source"] == source]
        for phase in PHASES:
            layers[f"serve.{source}.{phase}_s"] = median(
                [r["phases"][phase] for r in chosen])
    layers["client.wire_s"] = median([e["rtt"] - r["total_s"]
                                      for e, r in window])
    executed = [r for r in access
                if r["op"] == "allocate" and r["source"] == "executed"]
    layers["engine.cache_put_s"] = median([r["cache_put_s"]
                                           for r in executed])

    # served execute phase of executed requests minus the same request
    # executed in this process
    served = {r["key"].split(":", 1)[-1]: r for r in executed}
    overhead = []
    for key in [k for k in sample if k in served][:2 * OVERHEAD_SAMPLE]:
        request = request_from_json(by_key[key][0]["spec"])
        start = time.perf_counter()
        execute_request(request)
        overhead.append(served[key]["phases"]["execute"]
                        - (time.perf_counter() - start))
    layers["engine.exec_overhead_s"] = median(overhead)
    return layers
