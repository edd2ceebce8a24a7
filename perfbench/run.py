"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json`` and
described in ``perfbench/README.md``.  With ``--trace 0`` the last line
of standard output is the end-to-end metrics; with ``--trace 1`` the
run records spans around the benchmark's calls into the program and
prints the per-layer metrics instead.  Every run also appends its
metrics to ``perfbench/out/runs.jsonl``; a traced run writes its spans
(and, in-process, one row per allocated program) beside it and reports
its tracing overhead against the untraced runs recorded there of the
same source tree and run length.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from harness import (OUT, ROOT, SRC, median, out_dir, peak_rss_mb,
                     source_digest)

WORKLOADS = ("kernels", "large-fn", "serve-warm", "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(args) -> dict:
    if args.workload in ("kernels", "large-fn"):
        start = time.perf_counter()
        import inproc
        import_s = time.perf_counter() - start
        runner = (inproc.run_kernels if args.workload == "kernels"
                  else inproc.run_large_fn)
        result = runner(args.seed, args.seconds, bool(args.trace),
                        import_s)
        result["e2e"]["peak_rss_mb"] = peak_rss_mb()
        return result
    import served
    return served.run(args.workload, args.seed, args.seconds,
                      bool(args.trace))


def tracing_overhead(run: dict) -> dict:
    """This traced *run*'s end-to-end metrics minus the median of the
    untraced runs recorded so far of the same workload, source tree and
    run length, per metric."""
    same = ("workload", "source", "seconds")
    untraced: dict[str, list[float]] = {}
    try:
        with open(OUT / "runs.jsonl", encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if not record["trace"] and all(
                        record.get(key) == run[key] for key in same):
                    for name, value in record["e2e"].items():
                        untraced.setdefault(name, []).append(value)
    except (OSError, ValueError):
        return {}
    return {name: {"traced": value, "untraced_median":
                   median(untraced[name]),
                   "untraced_runs": len(untraced[name]),
                   "overhead": value - median(untraced[name])}
            for name, value in run["e2e"].items() if untraced.get(name)}


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'} not "
              f"found); run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics()

    result = run_workload(args)
    attempted, failed = result["attempted"], result["failed"]
    e2e = result["e2e"]
    e2e["ok_frac"] = (attempted - failed) / attempted
    missing = set(declared["end_to_end"]) - set(e2e)
    unknown = set(result["layers"]) - set(declared["per_layer"])
    if missing or unknown:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}; "
                           f"not declared: {sorted(unknown)}")
    # a layer the workload bypasses did no work: it reads 0
    layers = {name: 0.0 for name in declared["per_layer"]}
    layers.update(result["layers"])

    out = out_dir()
    tag = f"{args.workload}-s{args.seed}"
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "source": source_digest(),
              "attempted": attempted, "failed": failed,
              "count_drift": result["count_drift"], "e2e": e2e,
              "layers": layers if args.trace else {}}
    if args.trace:
        record["tracing_overhead"] = tracing_overhead(record)
        write_jsonl(out / f"spans-{tag}.jsonl", result["spans"])
        if result.get("rows"):
            write_jsonl(out / f"rows-{tag}.jsonl", result["rows"])
    with open(out / "runs.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    for name, count in sorted(layers.items()):
        if name.startswith("samples."):
            print(f"# {name}: {count}", file=sys.stderr)
    if result["count_drift"]:
        print(f"# exact-count drift: {result['count_drift']}",
              file=sys.stderr)
    if args.trace:
        for name, row in sorted(record["tracing_overhead"].items()):
            print(f"# tracing overhead {name}: {row['overhead']:+.6g} "
                  f"(traced {row['traced']:.6g}, untraced median "
                  f"{row['untraced_median']:.6g} of "
                  f"{row['untraced_runs']} runs)", file=sys.stderr)

    section = declared["per_layer" if args.trace else "end_to_end"]
    values = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0 and not result["count_drift"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in section.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
