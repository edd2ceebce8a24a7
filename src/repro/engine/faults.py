"""Deterministic fault injection for the experiment engine.

The chaos suite needs to *prove* the supervisor's recovery paths — not
hope they work — so every fault here is planned, seeded, and named.  A
:class:`FaultPlan` is an immutable, picklable value constructed up
front; the worker pool ships it to every worker it spawns, and both
sides consult it at fixed injection points:

worker side (``supervisor.worker_main``), per ``(request key, attempt)``:

* ``crash``  — the worker process dies abruptly (``os._exit``), the
  moral equivalent of a segfault or the OOM killer;
* ``hang``   — the worker sleeps ``hang_seconds`` before proceeding, a
  pathological-CFG stand-in that only a timeout can catch;
* ``raise``  — a transient :class:`InjectedFault` exception travels the
  normal error channel.

supervisor side:

* ``spawn_failures``  — the first N worker spawns fail, driving the
  pool-unhealthy → in-process fallback path;
* ``interrupt_after`` — a ``KeyboardInterrupt`` fires after N results
  have been delivered, driving the prompt-termination path.

cache side (:func:`corrupt_cache_entry`): four named corruption kinds —
``truncate``, ``flip``, ``wrong_key``, ``bad_checksum`` — each defeating
a different layer of the :class:`~repro.engine.cache.ResultCache`
envelope.

Everything is deterministic given the plan; :meth:`FaultPlan.seeded`
derives a plan from a seed and a key list so the chaos suite can state
its expected counters *before* the run and reconcile after.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, field, replace

#: worker-side fault kinds
CRASH = "crash"
HANG = "hang"
RAISE = "raise"

#: the exit code an injected crash dies with (recognizably not a signal)
CRASH_EXIT_CODE = 71

#: cache corruption kinds understood by :func:`corrupt_cache_entry`
CORRUPTION_KINDS = ("truncate", "flip", "wrong_key", "bad_checksum")


class InjectedFault(RuntimeError):
    """A planned transient failure (the ``raise`` fault kind)."""


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable description of every fault to inject.

    Attributes:
        worker_faults: ``(request key, attempt)`` → fault kind for
            one-shot faults (attempts are 1-based, matching
            :class:`~repro.engine.supervisor.ExperimentFailure.attempts`).
        poison: request keys that crash on *every* attempt — these must
            exhaust the retry budget and come back quarantined.
        hang_seconds: how long a ``hang`` fault sleeps.  Keep it well
            above the supervisor timeout under test; a hang that
            outlives its worker is simply never observed.
        spawn_failures: how many initial worker spawns the supervisor
            must treat as failed (``OSError``-equivalent).
        interrupt_after: raise ``KeyboardInterrupt`` in the supervisor
            once this many results have been delivered (``None`` — never).
    """

    worker_faults: dict[tuple[str, int], str] = field(default_factory=dict)
    poison: frozenset[str] = frozenset()
    hang_seconds: float = 30.0
    spawn_failures: int = 0
    interrupt_after: int | None = None

    def worker_action(self, key: str, attempt: int) -> str | None:
        """The fault a worker must inject for (*key*, *attempt*), if any."""
        if key in self.poison:
            return CRASH
        return self.worker_faults.get((key, attempt))

    def fault_keys(self) -> set[str]:
        """Every request key the plan touches on the worker side."""
        return {key for key, _ in self.worker_faults} | set(self.poison)

    @staticmethod
    def seeded(keys: list[str], seed: int = 0, crashes: int = 0,
               hangs: int = 0, raises: int = 0, poison: int = 0,
               hang_seconds: float = 30.0) -> "FaultPlan":
        """Derive a plan from *seed*: disjoint victim sets, first-attempt
        faults for the transient kinds, permanent crashes for poison."""
        unique = sorted(set(keys))
        need = crashes + hangs + raises + poison
        if need > len(unique):
            raise ValueError(f"plan wants {need} victims from "
                             f"{len(unique)} distinct keys")
        rng = random.Random(seed)
        victims = rng.sample(unique, need)
        worker_faults: dict[tuple[str, int], str] = {}
        cursor = 0
        for kind, count in ((CRASH, crashes), (HANG, hangs),
                            (RAISE, raises)):
            for key in victims[cursor:cursor + count]:
                worker_faults[(key, 1)] = kind
            cursor += count
        return FaultPlan(worker_faults=worker_faults,
                         poison=frozenset(victims[cursor:]),
                         hang_seconds=hang_seconds)

    def describe(self) -> dict[str, int]:
        """The plan's expected-counter shape (for reconciliation)."""
        kinds = {CRASH: 0, HANG: 0, RAISE: 0}
        for (_, _), kind in self.worker_faults.items():
            kinds[kind] += 1
        return {"crashes": kinds[CRASH], "hangs": kinds[HANG],
                "raises": kinds[RAISE], "poison": len(self.poison),
                "spawn_failures": self.spawn_failures}

    def with_interrupt_after(self, n: int) -> "FaultPlan":
        return replace(self, interrupt_after=n)


#: the exit code an injected backend kill dies with (distinct from the
#: worker-crash code so forensics can tell the layers apart)
SERVE_KILL_EXIT_CODE = 73


@dataclass(frozen=True)
class ServeFaultPlan:
    """Planned faults for the *serve* layer (backends and connections).

    Where :class:`FaultPlan` breaks individual worker processes inside
    one engine, this plan breaks whole backend servers and their client
    connections, so the router's recovery paths — failover, restart,
    reconnect — are provable.  Injection points:

    * ``kill_keys`` — a backend that begins *executing* one of these
      request keys dies abruptly (``os._exit``) with the request
      admitted and unanswered: the router must fail pending work over
      to a peer and the cluster supervisor must restart the corpse.
    * ``drop_keys`` — the backend computes the response, then closes
      the connection without writing it (a vanished reply).
    * ``garble_keys`` — the backend writes junk bytes instead of the
      response and closes (a corrupted reply).
    * ``hang_accept`` — ``backend id → seconds``: the named backend's
      accept loop stalls that long before serving its next connection,
      the stand-in for an event loop wedged by a pathological client;
      only health checks and circuit breakers catch it.

    Every fault fires **exactly once** across all processes: backends
    claim a marker file under ``state_dir`` (``O_EXCL``) before
    injecting, so a restarted backend does not re-kill itself on the
    retried request.  The plan is JSON round-trippable
    (:meth:`to_json` / :meth:`from_json`) because backends are separate
    processes that load it from a file (``repro serve --serve-faults``).
    """

    state_dir: str
    kill_keys: frozenset[str] = frozenset()
    drop_keys: frozenset[str] = frozenset()
    garble_keys: frozenset[str] = frozenset()
    #: backend id → seconds its accept loop stalls (once per backend)
    hang_accept: dict[str, float] = field(default_factory=dict)

    def _claim(self, marker: str) -> bool:
        """Atomically claim a one-shot fault across every process."""
        import os
        import pathlib

        path = pathlib.Path(self.state_dir) / marker
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False  # unwritable state dir: fail open, no fault
        os.close(fd)
        return True

    @staticmethod
    def _marker(kind: str, key: str) -> str:
        return f"{kind}-{hashlib.sha256(key.encode()).hexdigest()[:16]}"

    def claim_kill(self, key: str) -> bool:
        return key in self.kill_keys and self._claim(self._marker("kill", key))

    def claim_drop(self, key: str) -> bool:
        return key in self.drop_keys and self._claim(self._marker("drop", key))

    def claim_garble(self, key: str) -> bool:
        return key in self.garble_keys \
            and self._claim(self._marker("garble", key))

    def claim_accept_hang(self, backend_id: str | None) -> float:
        """Seconds this backend's accept loop must stall (0 — none)."""
        if backend_id is None or backend_id not in self.hang_accept:
            return 0.0
        if self._claim(self._marker("hang", backend_id)):
            return self.hang_accept[backend_id]
        return 0.0

    def claimed(self, kind: str) -> int:
        """How many faults of *kind* have fired so far (marker count)."""
        import pathlib

        root = pathlib.Path(self.state_dir)
        if not root.is_dir():
            return 0
        return sum(1 for p in root.iterdir()
                   if p.name.startswith(f"{kind}-"))

    @staticmethod
    def seeded(keys: list[str], state_dir: str, seed: int = 0,
               kills: int = 0, drops: int = 0, garbles: int = 0,
               hang_backends: dict[str, float] | None = None,
               ) -> "ServeFaultPlan":
        """Derive a plan from *seed*: disjoint victim keys per kind."""
        unique = sorted(set(keys))
        need = kills + drops + garbles
        if need > len(unique):
            raise ValueError(f"plan wants {need} victims from "
                             f"{len(unique)} distinct keys")
        rng = random.Random(seed)
        victims = rng.sample(unique, need)
        return ServeFaultPlan(
            state_dir=state_dir,
            kill_keys=frozenset(victims[:kills]),
            drop_keys=frozenset(victims[kills:kills + drops]),
            garble_keys=frozenset(victims[kills + drops:]),
            hang_accept=dict(hang_backends or {}))

    def describe(self) -> dict[str, int]:
        return {"kills": len(self.kill_keys), "drops": len(self.drop_keys),
                "garbles": len(self.garble_keys),
                "hangs": len(self.hang_accept)}

    def to_json(self) -> dict:
        return {"state_dir": self.state_dir,
                "kill_keys": sorted(self.kill_keys),
                "drop_keys": sorted(self.drop_keys),
                "garble_keys": sorted(self.garble_keys),
                "hang_accept": dict(self.hang_accept)}

    @staticmethod
    def from_json(obj: dict) -> "ServeFaultPlan":
        return ServeFaultPlan(
            state_dir=obj["state_dir"],
            kill_keys=frozenset(obj.get("kill_keys", ())),
            drop_keys=frozenset(obj.get("drop_keys", ())),
            garble_keys=frozenset(obj.get("garble_keys", ())),
            hang_accept={str(k): float(v) for k, v
                         in obj.get("hang_accept", {}).items()})


def corrupt_cache_entry(cache, key: str, kind: str) -> None:
    """Damage the cache entry for *key* in a named way.

    ``truncate`` cuts the file mid-payload, ``flip`` inverts one payload
    byte (defeating the checksum), ``wrong_key`` rebuilds a *valid*
    envelope whose summary carries a different key (defeating the key
    check alone), and ``bad_checksum`` zeroes the stored digest.  The
    entry must exist; every kind must read back as a miss and land in
    ``quarantine/`` exactly once.
    """
    from .cache import DIGEST_SIZE, MAGIC

    path = cache.locate(key)
    assert path is not None, f"no cache entry to corrupt for {key}"
    data = path.read_bytes()
    header = len(MAGIC) + DIGEST_SIZE
    if kind == "truncate":
        path.write_bytes(data[:header + max(1, (len(data) - header) // 2)])
    elif kind == "flip":
        body = bytearray(data)
        body[-1] ^= 0xFF
        path.write_bytes(bytes(body))
    elif kind == "wrong_key":
        summary = pickle.loads(data[header:])
        wrong = replace_key(summary, "0" * 64)
        payload = pickle.dumps(wrong, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(MAGIC + hashlib.sha256(payload).digest() + payload)
    elif kind == "bad_checksum":
        path.write_bytes(MAGIC + b"\x00" * DIGEST_SIZE + data[header:])
    else:
        raise ValueError(f"unknown corruption kind {kind!r} "
                         f"(one of {CORRUPTION_KINDS})")


def replace_key(summary, key: str):
    """A copy of *summary* claiming to answer a different request."""
    import dataclasses

    return dataclasses.replace(summary, key=key)
