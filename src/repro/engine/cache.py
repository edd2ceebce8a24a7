"""The persistent request→summary store under ``benchmarks/results/cache/``.

One file per request key, written atomically (temp file in the same
directory + ``os.replace``) so concurrent workers and concurrent engine
processes can race on the same key without ever exposing a partial file
— last writer wins, and determinism makes all writers equal.

Storage is **sharded** by the first :data:`SHARD_WIDTH` hex characters
of the key (256 subdirectories), so many server processes sharing one
store spread their directory operations instead of contending on one
giant flat directory.

Entries are **checksummed envelopes**, not bare pickles::

    MAGIC (6 bytes) | sha256(payload) (32 bytes) | payload (pickle)

so corruption — truncation, flipped bits, a stale storage format — is
*detected*, not discovered by an unpickling crash three harnesses away.
An entry that fails any layer of validation (magic, digest, unpickle,
type, key match) is moved to ``quarantine/`` beside the store, counted
in :attr:`CacheStats.corrupt`, and reported as a miss; the next write
repopulates the key.  Quarantined files are kept (not deleted) so a
corruption burst can be inspected before ``repro cache gc`` sweeps it.

Writes degrade instead of aborting: an ``OSError`` from ``put`` (disk
full, read-only cache directory) logs one warning, bumps
:attr:`CacheStats.write_errors`, and lets the run continue uncached.

Invalidation is by construction: the key hashes the full request
content plus :data:`~repro.engine.request.CACHE_VERSION`.  Changing an
experiment changes its key; changing the *implementation* requires a
version bump (or deleting the directory — it is disposable and
git-ignored).
"""

from __future__ import annotations

import hashlib
import logging
import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass

from .request import AllocationSummary

logger = logging.getLogger(__name__)

#: envelope header; the trailing byte is the storage-format version
MAGIC = b"RPRC\x00\x01"
#: raw sha256 digest length
DIGEST_SIZE = hashlib.sha256().digest_size

#: name of the corruption-quarantine subdirectory
QUARANTINE_DIR = "quarantine"

#: hex characters of key prefix per shard subdirectory (2 → 256 shards)
SHARD_WIDTH = 2

_HEX = set("0123456789abcdef")


@dataclass
class CacheStats:
    """Integrity accounting for one :class:`ResultCache` lifetime."""

    #: entries that failed envelope validation (each is also a miss)
    corrupt: int = 0
    #: corrupt entries successfully moved to ``quarantine/``
    quarantined: int = 0
    #: ``put`` calls swallowed because the filesystem refused the write
    write_errors: int = 0
    #: quarantine moves lost to another process that moved the same
    #: entry first (the entry is already gone; nothing re-counted)
    quarantine_races: int = 0


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``<repo>/benchmarks/results/cache``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    # src/repro/engine/cache.py -> repo root is three levels above repro/
    root = pathlib.Path(__file__).resolve().parents[3]
    return root / "benchmarks" / "results" / "cache"


def _envelope(payload: bytes) -> bytes:
    return MAGIC + hashlib.sha256(payload).digest() + payload


def _open_envelope(data: bytes) -> bytes | None:
    """The payload, or ``None`` if any envelope layer is damaged."""
    header = len(MAGIC) + DIGEST_SIZE
    if len(data) < header or not data.startswith(MAGIC):
        return None
    digest = data[len(MAGIC):header]
    payload = data[header:]
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


class ResultCache:
    """Disk-backed map from request key to :class:`AllocationSummary`."""

    def __init__(self, directory: pathlib.Path | str | None = None):
        self.directory = pathlib.Path(directory) if directory is not None \
            else default_cache_dir()
        self.stats = CacheStats()
        self._warned_write_error = False

    def _path(self, key: str) -> pathlib.Path:
        """The canonical (sharded) location for *key* — where writes go."""
        return self.directory / key[:SHARD_WIDTH] / f"{key}.pkl"

    def locate(self, key: str) -> pathlib.Path | None:
        """Where the entry for *key* lives, or ``None`` if absent."""
        path = self._path(key)
        return path if path.is_file() else None

    @property
    def quarantine_dir(self) -> pathlib.Path:
        return self.directory / QUARANTINE_DIR

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> AllocationSummary | None:
        """The cached summary for *key*, or ``None`` on a miss.

        A present-but-invalid entry is quarantined and reported as a
        miss — callers re-execute and overwrite, so corruption heals.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        summary = self._validate(data, key)
        if summary is None:
            self._quarantine(path)
        return summary

    def _validate(self, data: bytes,
                  key: str) -> AllocationSummary | None:
        payload = _open_envelope(data)
        if payload is None:
            return None
        try:
            summary = pickle.loads(payload)
        except Exception:   # damaged payload with a forged digest
            return None
        if not isinstance(summary, AllocationSummary) or summary.key != key:
            return None
        return summary

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside (exactly once — later reads of the
        same key are plain misses).

        Two processes can observe the same corrupt bytes and race to
        quarantine them; the loser's ``os.replace`` raises
        ``FileNotFoundError`` because the winner already moved the file.
        That case is detected and counted as a race, not as a second
        corruption — the loser must *not* fall back to ``unlink``, which
        could delete a healthy entry a third process rewrote in the
        window, nor warn about an entry that is already safely aside.
        """
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except FileNotFoundError:
            if not path.exists():
                # lost the race: another process quarantined this entry
                # between our read and the move — it did the counting
                self.stats.quarantine_races += 1
                return
            self.stats.corrupt += 1
            logger.warning("quarantined corrupt cache entry %s "
                           "(move failed)", path.name)
        except OSError:
            self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            logger.warning("quarantined corrupt cache entry %s "
                           "(move failed)", path.name)
        else:
            self.stats.corrupt += 1
            self.stats.quarantined += 1
            logger.warning("quarantined corrupt cache entry %s", path.name)

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, summary: AllocationSummary) -> bool:
        """Atomically persist *summary* (with timing stripped) at *key*.

        Returns ``False`` (after logging once and counting the error)
        when the filesystem refuses the write — a full disk or a
        read-only cache directory degrades the run to uncached, it does
        not abort it.
        """
        payload = pickle.dumps(summary.without_timing(),
                               protocol=pickle.HIGHEST_PROTOCOL)
        tmp = None
        try:
            target = self._path(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(_envelope(payload))
            os.replace(tmp, target)
            return True
        except OSError as exc:
            self.stats.write_errors += 1
            if not self._warned_write_error:
                self._warned_write_error = True
                logger.warning(
                    "result cache is not writable (%s); continuing "
                    "uncached under %s", exc, self.directory)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False
        except BaseException:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise

    # -- maintenance (the ``repro cache`` CLI) --------------------------------

    def _shard_dirs(self) -> list[pathlib.Path]:
        if not self.directory.is_dir():
            return []
        return sorted(p for p in self.directory.iterdir()
                      if p.is_dir() and len(p.name) == SHARD_WIDTH
                      and set(p.name) <= _HEX)

    def entries(self) -> list[pathlib.Path]:
        """Every entry, sorted by key."""
        return sorted((p for shard in self._shard_dirs()
                       for p in shard.iterdir() if p.suffix == ".pkl"),
                      key=lambda p: p.name)

    def quarantined_entries(self) -> list[pathlib.Path]:
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(p for p in self.quarantine_dir.iterdir()
                      if p.is_file())

    def stats_report(self) -> dict:
        """JSON-ready occupancy snapshot for ``repro cache stats``."""
        entries = self.entries()
        quarantined = self.quarantined_entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "shards": len(self._shard_dirs()),
            "quarantined_entries": len(quarantined),
            "quarantined_bytes": sum(p.stat().st_size
                                     for p in quarantined),
        }

    def verify(self) -> tuple[int, int]:
        """Validate every entry; quarantine the damaged ones.

        Returns ``(ok, corrupt)``.  The filename stem is the expected
        key, so a valid envelope holding the wrong summary also fails.
        """
        ok = corrupt = 0
        for path in self.entries():
            try:
                data = path.read_bytes()
            except OSError:
                continue
            if self._validate(data, path.stem) is None:
                self._quarantine(path)
                corrupt += 1
            else:
                ok += 1
        return ok, corrupt

    def gc(self) -> dict[str, int]:
        """Sweep quarantined entries and stray ``.tmp`` files."""
        removed_quarantined = 0
        for path in self.quarantined_entries():
            try:
                path.unlink()
                removed_quarantined += 1
            except OSError:
                pass
        removed_tmp = 0
        for shard in self._shard_dirs():
            for path in shard.iterdir():
                if path.suffix == ".tmp":
                    try:
                        path.unlink()
                        removed_tmp += 1
                    except OSError:
                        pass
        return {"quarantined_removed": removed_quarantined,
                "tmp_removed": removed_tmp}

    # -- container protocol ---------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self.locate(key) is not None

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for shard in self._shard_dirs():
            for path in shard.iterdir():
                if path.suffix in (".pkl", ".tmp"):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
