"""Shared pieces of the repository benchmark.

* :class:`SpeedMeter` — how fast the machine runs Python right now.
* statistics: percentiles, medians, geometric means.
* :class:`CountLedger` — the exact-count self-check.  Every operation's
  deterministic counts (dynamic cycles, code size, allocator and
  interpreter counters) are keyed by configuration and compared against
  every earlier sighting: in this run and in earlier runs of the same
  source tree.  A mismatch is a benchmark failure, never averaged.
* :func:`peak_rss_mb` and the output directory helpers.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import time
from pathlib import Path

#: the checkout the benchmark runs in (``perfbench/..``)
ROOT = Path(__file__).resolve().parent.parent
#: the program under test
SRC = ROOT / "src"
#: scratch output: ledgers, run records, spans, per-program rows
OUT = ROOT / "perfbench" / "out"


# -- machine speed ------------------------------------------------------------

#: the calibration loop's duration on the reference machine; normalized
#: times read as if the loop had taken exactly this long
CALIBRATION_NOMINAL_S = 0.002


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


class SpeedMeter:
    """Measures how fast the machine runs Python right now.

    The machine this benchmark is made for shares its cores: the same
    allocation took 56 ms and 100 ms within one minute, and a fixed
    pure-Python loop slowed by the same factor.  Each run samples the
    loop between its operations and divides the CPU-bound times it
    reports by the mean speed factor of the run: the loop's duration
    over :data:`CALIBRATION_NOMINAL_S`.  The loop is the benchmark's own
    code and never calls the program under test, so an optimization of
    the program cannot move it.
    """

    def __init__(self):
        self._items = [_Item(i, i * 3) for i in range(1500)]

    def _loop(self) -> None:
        table: dict[int, int] = {}
        acc = 0
        for _ in range(3):
            for item in self._items:
                key = item.key & 511
                table[key] = table.get(key, 0) + item.value
                acc ^= hash((key, item.value)) & 0xff
            seen = set()
            for i in range(1500):
                if i % 3:
                    seen.add(i * 7 & 4095)
            acc += len(seen) + sum(sorted(table.values())[:10])

    def _time(self, repeats: int) -> float:
        runs = []
        # a collection triggered inside the loop would time the heap the
        # program left behind, not the machine
        gc.disable()
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                self._loop()
                runs.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return median(runs) / CALIBRATION_NOMINAL_S

    def sample(self, repeats: int = 3, every_cpu: bool = False) -> float:
        """Run the loop *repeats* times; returns the speed factor of the
        median run (>1: the machine is slower than the reference).  With
        *every_cpu* the loop runs pinned to each CPU this process may use
        in turn and the factors are averaged: the cores are loaded
        unevenly, and the work of a server and its worker moves between
        them."""
        if not every_cpu:
            return self._time(repeats)
        cpus = os.sched_getaffinity(0)
        factors = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                factors.append(self._time(repeats))
        finally:
            os.sched_setaffinity(0, cpus)
        return mean(factors)


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile (0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def median(values) -> float:
    return percentile(values, 50)


def central_percentile(values, q: float, width: float = 5.0) -> float:
    """The *q*-th percentile read as the mean of the samples ranked
    between the (q - width)-th and (q + width)-th percentiles (at least
    the nearest-rank sample).  The benchmark's latencies come from
    functions of very different sizes, so the samples near any one rank
    are sparse; averaging a band of ranks keeps one sample's jitter from
    moving the percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.floor((q - width) / 100.0 * n))
    hi = min(n, math.ceil((q + width) / 100.0 * n))
    band = ordered[lo:hi] or [percentile(ordered, q)]
    return sum(band) / len(band)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- memory -------------------------------------------------------------------

def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of *pid*, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- output directory ---------------------------------------------------------

def out_dir() -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT


def source_digest() -> str:
    """A hash of the program (every file under ``src/``) and of this
    benchmark: the identity of the counts a ledger holds."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *OUT.parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- the exact-count self-check -----------------------------------------------

class CountLedger:
    """Deterministic per-configuration counts, checked for drift.

    ``check(config, counts)`` returns ``False`` when *config* was seen
    before — earlier in this run, or in an earlier run of the same code
    (the ledger file is keyed by :func:`source_digest`) — with different
    counts.  Runs do not pin ``PYTHONHASHSEED``, so the
    ledger also checks that the counts do not depend on the hash seed.
    """

    def __init__(self, workload: str):
        self.path = out_dir() / f"ledger-{workload}-{source_digest()}.json"
        try:
            with open(self.path, encoding="utf-8") as handle:
                self.known: dict[str, list] = json.load(handle)
        except (OSError, ValueError):
            self.known = {}
        self.drift: list[str] = []

    def check(self, config: str, counts: list) -> bool:
        counts = json.loads(json.dumps(counts))  # normalise tuples
        previous = self.known.setdefault(config, counts)
        if previous != counts:
            self.drift.append(config)
            return False
        return True

    def save(self) -> None:
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.known, handle, sort_keys=True)
        os.replace(tmp, self.path)
