"""The in-process workloads: ``kernels`` and ``large-fn``.

One operation is one experiment, the path of a user running the
paper's experiments in a Python process: ``allocate()`` the function,
``run_function()`` the allocated code, and check its output against the
output of the *unallocated* function (interpreted once per input,
outside the timed region).

``kernels`` streams the 48-kernel suite in rounds.  A round runs every
kernel once, in a seeded order, each under one of the nine
(k, strategy) configurations: kernel i of the suite under configuration
(i + round) mod 9, so nine rounds cover all 432 configurations.  The
schedule is fixed and the seed orders it: the cost of one
configuration differs from another's by up to 10x, so a seeded
schedule would set the spread of every rate.

``large-fn`` allocates a fixed pool of generated functions of the gen-xl
shape (3k-4.3k instructions each) at k=8 under iterated/remat, in whole
passes over the pool in a seeded order.  The pool is fixed so that its
exact counts are the same on every run; the seed orders it.
"""

from __future__ import annotations

import math
import random
import time
from functools import partial

from harness import (CountLedger, SpeedMeter, central_percentile, geomean,
                     mean, median)

from repro.benchsuite import ALL_KERNELS, GeneratorConfig, random_program
from repro.frontend import compile_source
from repro.interp import run_function
from repro.ir import CountClass
from repro.machine import machine_with, standard_machine
from repro.obs.span import NULL_TRACER, Tracer, span_to_payload
from repro.regalloc import allocate
from repro.remat import RenumberMode

#: the nine configurations of the kernels stream: k x strategy
KERNEL_CONFIGS = tuple((k, allocator, mode)
                       for k in (6, 8, 16)
                       for allocator, mode in (("iterated", "chaitin"),
                                               ("iterated", "remat"),
                                               ("ssa", "remat")))

#: the gen-xl shape of ``benchmarks/bench_build_scaling.py``
GEN_XL = GeneratorConfig(n_vars=24, max_depth=4, max_stmts=16)
#: the large-fn pool: the first POOL_SIZE gen-xl draws from generator
#: seed POOL_BASE_SEED upward whose size is within POOL_SIZES.  An odd
#: pool puts the median (and the 90th percentile) on the samples of one
#: function, not on the edge between two.
POOL_BASE_SEED = 1000
POOL_SIZE = 5
POOL_SIZES = (2000, 5000)

#: setup is repeated this many times and the median reported
SETUP_REPS = 3
#: a run does a fixed number of kernels rounds (large-fn passes), as
#: many as fit in ``--seconds`` at the reference speed, so every run
#: times the same set of experiments
ROUND_S = 3.0
PASS_S = 5.0
#: dynamic cycles are priced by the paper's cost model (loads and
#: stores two cycles, everything else one)
COST_MODEL = standard_machine()

PHASES = ("renumber", "build", "costs", "color", "spill")
INTERP_CLASSES = (CountClass.LOAD, CountClass.STORE, CountClass.COPY,
                  CountClass.LDI, CountClass.ADDI)
#: AllocationStats fields reported as ``regalloc.*`` counts
REGALLOC_COUNTS = {
    "rounds": "n_rounds",
    "spilled_ranges": "n_spilled_ranges",
    "remat_spills": "n_remat_spills",
    "memory_spills": "n_memory_spills",
    "copies_coalesced": "n_copies_coalesced",
    "graph_builds": "n_graph_builds",
    "graph_patches": "n_graph_patches",
}


def tracer_for(trace: bool):
    """A traced run records a span around each of the benchmark's calls
    into a public function of the program, with the program's own
    tracer; an untraced run gets the no-op one."""
    return Tracer() if trace else NULL_TRACER


def span_records(*tracers) -> list[dict]:
    """The spans the *tracers* recorded, one dict per root span."""
    return [span_to_payload(root) for tracer in tracers
            for root in getattr(tracer, "roots", ())]


def strategy_label(allocator: str, mode: str) -> str:
    return "ssa" if allocator == "ssa" else f"{allocator}/{mode}"


def experiment(tracer, fn, name: str, k: int, allocator: str,
               mode: str, args: list, reference) -> dict:
    """Allocate, interpret and check one configuration; one record."""
    machine = machine_with(k)
    record = {"function": name, "k": k,
              "strategy": strategy_label(allocator, mode),
              "insts": fn.size(), "ok": False}
    try:
        with tracer.span("allocate", fn=name, k=k,
                        strategy=record["strategy"]):
            start = time.perf_counter()
            result = allocate(fn, machine, mode=RenumberMode(mode),
                              allocator=allocator)
            record["allocate_s"] = time.perf_counter() - start
        with tracer.span("run_function", fn=name):
            start = time.perf_counter()
            run = run_function(result.function, list(args))
            record["run_s"] = time.perf_counter() - start
    except Exception as exc:  # an operation failure, counted not raised
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    phases = {"cfa": result.cfa_time, "clone": result.clone_time}
    for phase in PHASES:
        phases[phase] = sum(getattr(t, phase) for t in result.round_times)
    phases["other"] = record["allocate_s"] - sum(phases.values())
    stats = result.stats
    record.update(
        ok=run.output == reference["output"],
        phases=phases,
        dyn_cycles=COST_MODEL.cycles(run.counts),
        ref_cycles=reference["cycles"],
        code_size=result.function.size(),
        steps=run.steps,
        interp={cls.value: run.count(cls) for cls in INTERP_CLASSES},
        regalloc={label: getattr(stats, field)
                  for label, field in REGALLOC_COUNTS.items()},
        liveness_computed=stats.n_liveness_computed,
        blocks_reanalyzed=stats.n_incremental_blocks_reanalyzed,
        blocks_total=stats.n_incremental_blocks_total,
        max_bitset_bits=stats.max_bitset_bits)
    return record


def exact_counts(record: dict) -> list:
    """The counts that must repeat exactly for one configuration."""
    return [record["dyn_cycles"], record["code_size"], record["steps"],
            record["interp"], record["regalloc"]]


def exact_layers(exact: list[dict]) -> dict:
    """The per-layer counts: sums over the experiments in *exact*."""
    layers = {f"regalloc.{label}": sum(r["regalloc"][label] for r in exact)
              for label in REGALLOC_COUNTS}
    layers.update({f"interp.{cls.value}": sum(r["interp"][cls.value]
                                              for r in exact)
                   for cls in INTERP_CLASSES})
    total_blocks = sum(r["blocks_total"] for r in exact)
    layers.update({
        "regalloc.code_size": sum(r["code_size"] for r in exact),
        "analysis.liveness_computed": sum(r["liveness_computed"]
                                          for r in exact),
        "analysis.blocks_reanalyzed_frac":
            sum(r["blocks_reanalyzed"] for r in exact) / total_blocks
            if total_blocks else 0.0,
        "analysis.max_bitset_bits": max((r["max_bitset_bits"]
                                         for r in exact), default=0),
        "interp.steps": sum(r["steps"] for r in exact),
        "interp.cycles": sum(r["dyn_cycles"] for r in exact),
        "samples.exact": len(exact),
    })
    return layers


def reference_run(fn, args) -> dict:
    run = run_function(fn, list(args))
    return {"output": run.output, "cycles": COST_MODEL.cycles(run.counts)}


# -- workloads ----------------------------------------------------------------

def timed_reps(meter: SpeedMeter, job) -> tuple[float, object]:
    """Median over SETUP_REPS runs of *job* at the reference machine
    speed (divided by the mean speed factor measured around the runs);
    returns it with the last run's value."""
    times = []
    factors = [meter.sample()]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        value = job()
        times.append(time.perf_counter() - start)
        factors.append(meter.sample())
    return median(times) / mean(factors), value


def timed_stream(meter: SpeedMeter, items,
                 repeats: int) -> tuple[list[dict], float]:
    """Run the experiments *items* yields, sampling the machine's speed
    (*repeats* loops) between them; returns the records and the mean
    speed factor."""
    records = []
    factors = [meter.sample(repeats)]
    for run_one in items:
        record = run_one()
        factors.append(meter.sample(repeats))
        record["speed"] = factors[-2:]
        records.append(record)
    return records, mean(factors)


def run_kernels(seed: int, seconds: float, trace: bool,
                import_s: float) -> dict:
    tracer = tracer_for(trace)
    meter = SpeedMeter()
    import_s /= meter.sample()

    def compile_all():
        fns = {}
        for kernel in ALL_KERNELS:
            with tracer.span("compile_source", fn=kernel.name):
                fns[kernel.name] = compile_source(kernel.source)
        return fns

    compile_s, fns = timed_reps(meter, compile_all)
    references = {kernel.name: reference_run(fns[kernel.name], kernel.args)
                  for kernel in ALL_KERNELS}
    args = {kernel.name: kernel.args for kernel in ALL_KERNELS}

    rng = random.Random(seed)
    names = [kernel.name for kernel in ALL_KERNELS]

    def stream():
        for round_no in range(max(1, round(seconds / ROUND_S))):
            schedule = [(name, KERNEL_CONFIGS[(i + round_no)
                                              % len(KERNEL_CONFIGS)])
                        for i, name in enumerate(names)]
            rng.shuffle(schedule)
            for name, (k, allocator, mode) in schedule:
                yield partial(experiment, tracer, fns[name], name, k,
                              allocator, mode, args[name],
                              references[name])

    records, speed = timed_stream(meter, stream(), repeats=1)
    return summarise("kernels", records, len(names), speed,
                     setup_s=import_s + compile_s, compile_s=compile_s,
                     tracer=tracer)


def large_fn_pool(tracer) -> list[tuple[str, object]]:
    pool = []
    gen_seed = POOL_BASE_SEED
    while len(pool) < POOL_SIZE:
        with tracer.span("random_program", seed=gen_seed):
            fn = random_program(gen_seed, GEN_XL)
        if POOL_SIZES[0] <= fn.size() <= POOL_SIZES[1]:
            pool.append((f"gen-xl-{gen_seed}", fn))
        gen_seed += 1
    return pool


def run_large_fn(seed: int, seconds: float, trace: bool,
                 import_s: float) -> dict:
    tracer = tracer_for(trace)
    meter = SpeedMeter()
    import_s /= meter.sample()
    generate_s, pool = timed_reps(meter, lambda: large_fn_pool(tracer))
    references = {name: reference_run(fn, ()) for name, fn in pool}

    order = pool[:]
    random.Random(seed).shuffle(order)

    def stream():
        for _ in range(max(1, round(seconds / PASS_S))):
            for name, fn in order:
                yield partial(experiment, tracer, fn, name, 8, "iterated",
                              "remat", (), references[name])

    records, speed = timed_stream(meter, stream(), repeats=5)
    return summarise("large-fn", records, len(order), speed,
                     setup_s=import_s + generate_s, compile_s=0.0,
                     tracer=tracer)


# -- metrics ------------------------------------------------------------------

def summarise(workload: str, records: list[dict], n_exact: int,
              speed: float, setup_s: float, compile_s: float,
              tracer) -> dict:
    """End-to-end and per-layer metrics of one in-process run.

    Rates and latencies cover every timed experiment, at the reference
    machine speed: divided by *speed*, the run's mean speed factor.
    Rates are per second of experiment time.  The exact counts and the
    code-quality ratios cover the first *n_exact* experiments (the
    first kernels round, or one pass over the large-fn pool), a set
    fixed by the seed alone.
    """
    ledger = CountLedger(workload)
    failed = 0
    for record in records:
        ok = record["ok"]
        if "error" not in record:
            config = f"{record['function']}/k{record['k']}/" \
                     f"{record['strategy']}"
            ok = ledger.check(config, exact_counts(record)) and ok
        record["ok"] = ok
        failed += not ok
    ledger.save()
    done = [r for r in records if "error" not in r]
    for r in done:
        r["norm"] = {"allocate": r["allocate_s"] / speed,
                     "run": r["run_s"] / speed,
                     **{phase: value / speed
                        for phase, value in r["phases"].items()}}
    exact = [r for r in records[:n_exact] if "error" not in r]
    alloc_s = [r["norm"]["allocate"] for r in done]

    e2e = {
        "setup_s": setup_s,
        "ops_per_s": len(done) / (sum(r["norm"]["allocate"]
                                      + r["norm"]["run"] for r in done)
                                  or math.inf),
        "p50_ms": central_percentile(alloc_s, 50) * 1e3,
        "p90_ms": central_percentile(alloc_s, 90) * 1e3,
        "insts_per_s": sum(r["insts"] for r in done) / (sum(alloc_s)
                                                        or math.inf),
        "cycles_ratio": geomean(r["dyn_cycles"] / r["ref_cycles"]
                                for r in exact),
        "size_ratio": geomean(r["code_size"] / r["insts"] for r in exact),
    }
    layers = {f"regalloc.{phase}_s": mean(r["norm"][phase] for r in done)
              for phase in ("allocate", "cfa", "clone", *PHASES, "other")}
    layers.update(exact_layers(exact))
    layers.update({
        "interp.run_s": mean(r["norm"]["run"] for r in done),
        "frontend.compile_s": compile_s,
        "samples.latency": len(alloc_s),
        "machine.speed_factor": speed,
    })
    rows = [{key: r.get(key) for key in
             ("function", "k", "strategy", "allocate_s", "phases",
              "speed", "norm", "dyn_cycles", "code_size", "ok", "error")}
            | {"rounds": r.get("regalloc", {}).get("rounds")}
            for r in records]
    return {"attempted": len(records), "failed": failed,
            "count_drift": ledger.drift, "e2e": e2e, "layers": layers,
            "rows": rows, "spans": span_records(tracer)}
