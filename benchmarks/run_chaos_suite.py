"""The chaos suite: a planned-fault batch, reconciled end to end.

Usage::

    PYTHONPATH=src python benchmarks/run_chaos_suite.py [--jobs N]
        [--requests N] [--seed N] [--out DIR]

Builds a batch of allocation requests, injects a seeded fault plan
(~10% transient worker crashes, two hangs caught by the per-attempt
timeout, two poison requests) plus three on-disk cache corruptions, runs
the batch under the supervised engine, and reconciles:

* every non-poison request's summary is byte-identical to a fault-free
  serial run;
* every poison request comes back as a typed ``ExperimentFailure`` after
  exactly the configured retry budget;
* every ``engine.*`` fault counter matches the injected plan.

With ``--jobs 1`` the batch runs in-process: a planned crash surfaces
as an ``InjectedFault`` exception and is retried, a planned hang is
ignored (nothing can time out an in-process attempt), and no worker
ever crashes or times out — the counters are reconciled against those
expectations instead.

Writes ``report.json`` (plus the cache's ``quarantine/``) under
``benchmarks/results/chaos/``; CI uploads the directory as an artifact
and the exit status is nonzero when any reconciliation fails — see
``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import shutil
import time

from repro.engine import (ExperimentEngine, ExperimentFailure,
                          ExperimentRequest, FaultPlan, ResultCache,
                          SupervisorConfig, corrupt_cache_entry,
                          execute_request, request_key)
from repro.ir import IRBuilder, function_to_text
from repro.machine import machine_with

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "chaos"

CRASH_FRACTION = 0.08   # transient crashes: ~10% of the batch with poison
HANGS = 2
POISON = 2
CORRUPTIONS = ("truncate", "flip", "bad_checksum")
MAX_ATTEMPTS = 3


def chaos_function():
    """A small counted loop — a few milliseconds per request."""
    b = IRBuilder("chaos", n_params=1)
    n = b.param(0)
    i = b.ldi(0)
    iv = b.function.new_reg(i.rclass)
    b.copy_to(iv, i)
    acc = b.ldi(0)
    av = b.function.new_reg(acc.rclass)
    b.copy_to(av, acc)
    b.jmp("head")
    b.label("head")
    c = b.cmp_lt(iv, n)
    b.cbr(c, "body", "exit")
    b.label("body")
    b.copy_to(av, b.add(av, iv))
    b.copy_to(iv, b.addi(iv, 1))
    b.jmp("head")
    b.label("exit")
    b.out(av)
    b.ret()
    return b.finish()


def build_requests(count: int) -> list[ExperimentRequest]:
    text = function_to_text(chaos_function())
    return [ExperimentRequest(ir_text=text, machine=machine_with(4, 4),
                              args=(n,)) for n in range(count)]


def check(report: dict, name: str, ok: bool, detail: str = "") -> None:
    report["checks"].append({"name": name, "ok": bool(ok),
                             "detail": detail})
    marker = "ok" if ok else "FAIL"
    print(f"  [{marker}] {name}" + (f" — {detail}" if detail else ""))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--timeout", type=float, default=2.0,
                        help="per-attempt timeout catching the hangs")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    if out.exists():
        shutil.rmtree(out)
    cache_dir = out / "cache"
    cache_dir.mkdir(parents=True)

    requests = build_requests(args.requests)
    keys = [request_key(r) for r in requests]
    crashes = max(1, round(CRASH_FRACTION * args.requests))
    plan = FaultPlan.seeded(keys, seed=args.seed, crashes=crashes,
                            hangs=HANGS, poison=POISON, hang_seconds=60.0)

    print(f"chaos suite: {args.requests} requests, jobs={args.jobs}, "
          f"plan={plan.describe()}, {len(CORRUPTIONS)} cache corruptions")

    # ground truth: fault-free, serial, uncached
    t0 = time.perf_counter()
    clean = ExperimentEngine(jobs=1, use_cache=False)
    expected = {key: summary for key, summary
                in zip(keys, clean.run_many(requests))}
    clean_s = time.perf_counter() - t0

    # seed and damage the cache
    cache = ResultCache(cache_dir)
    for key, request, kind in zip(keys, requests, CORRUPTIONS):
        cache.put(key, execute_request(request))
        corrupt_cache_entry(cache, key, kind)

    engine = ExperimentEngine(
        jobs=args.jobs, cache_dir=cache_dir, fault_plan=plan,
        supervisor=SupervisorConfig(timeout=args.timeout,
                                    max_attempts=MAX_ATTEMPTS,
                                    backoff=0.02))
    t0 = time.perf_counter()
    observations: dict = {}
    outcomes = engine.run_many(requests, observations=observations)
    chaos_s = time.perf_counter() - t0

    report: dict = {
        "requests": args.requests,
        "jobs": args.jobs,
        "seed": args.seed,
        "plan": plan.describe(),
        "corruptions": list(CORRUPTIONS),
        "max_attempts": MAX_ATTEMPTS,
        "clean_serial_seconds": round(clean_s, 3),
        "chaos_seconds": round(chaos_s, 3),
        "checks": [],
    }
    print(f"fault-free serial: {clean_s:.2f}s; chaos run: {chaos_s:.2f}s")

    # -- survivors byte-identical, poison typed -----------------------------
    mismatches = []
    failures: list[ExperimentFailure] = []
    for key, outcome in zip(keys, outcomes):
        if key in plan.poison:
            if not (isinstance(outcome, ExperimentFailure)
                    and outcome.attempts == MAX_ATTEMPTS):
                mismatches.append(f"poison {key[:12]}: {outcome!r}")
            else:
                failures.append(outcome)
        elif isinstance(outcome, ExperimentFailure):
            mismatches.append(f"survivor failed {key[:12]}: "
                              + outcome.describe())
        elif pickle.dumps(outcome.without_timing()) \
                != pickle.dumps(expected[key].without_timing()):
            mismatches.append(f"bytes differ for {key[:12]}")
    check(report, "survivors byte-identical to fault-free serial run",
          not mismatches, "; ".join(mismatches[:5]))
    check(report, f"poison quarantined after exactly {MAX_ATTEMPTS} "
          f"attempts", len(failures) == POISON,
          f"{len(failures)}/{POISON}")
    report["failures"] = [f.describe() for f in failures]

    # -- counter reconciliation --------------------------------------------
    counters = engine.metrics().counters()
    if args.jobs == 1:
        # in-process: crashes raise and retry, hangs run through
        hung = [key for (key, _), kind in plan.worker_faults.items()
                if kind == "hang"]
        check(report, "hangs ignored in-process (one attempt each)",
              all(observations[key].attempts == 1 for key in hung),
              ", ".join(f"{key[:12]}: {observations[key].attempts}"
                        for key in hung))
        fault_counters = {
            "engine.worker_crashes": 0,
            "engine.timeouts": 0,
            "engine.retries": crashes + POISON * (MAX_ATTEMPTS - 1),
        }
    else:
        fault_counters = {
            "engine.worker_crashes": crashes + POISON * MAX_ATTEMPTS,
            "engine.timeouts": HANGS,
            "engine.retries": crashes + HANGS + POISON * (MAX_ATTEMPTS - 1),
        }
    expected_counters = {
        **fault_counters,
        "engine.quarantined": POISON,
        "engine.failed": POISON,
        "engine.cache_corrupt": len(CORRUPTIONS),
        "engine.cache_quarantined": len(CORRUPTIONS),
        "engine.cache_hits": 0,
        "engine.executed": args.requests - POISON,
        "engine.fallback_serial": 0,
    }
    report["expected_counters"] = expected_counters
    report["observed_counters"] = {k: counters.get(k, 0)
                                   for k in expected_counters}
    for name, want in expected_counters.items():
        check(report, f"{name} == {want}", counters.get(name, 0) == want,
              f"observed {counters.get(name, 0)}")

    quarantined = [p.name for p in cache.quarantined_entries()]
    check(report, "corrupt entries landed in quarantine/",
          len(quarantined) == len(CORRUPTIONS), ", ".join(quarantined))

    ok = all(c["ok"] for c in report["checks"])
    report["ok"] = ok
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out / 'report.json'}; "
          + ("ALL CHECKS PASSED" if ok else "RECONCILIATION FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
