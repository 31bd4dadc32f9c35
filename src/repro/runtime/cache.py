"""Canonical instance hashing and the batch result cache.

Two identical instances submitted twice (within one batch, or across
batch runs sharing a cache file) should cost one solve.  "Identical"
means *semantically* identical: the key is a SHA-256 over the canonical
JSON serialisation of the instance (:func:`repro.io.instance_to_dict`,
keys sorted, compact separators) plus the algorithm name, so it is
stable across processes, Python versions and insertion orders — unlike
``hash()`` — and safe to persist.

The cache itself is a plain ``key -> record`` dictionary with optional
JSONL persistence: every stored record is appended to the backing file
as it arrives, so a crashed batch still leaves a warm cache behind.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.exceptions import CacheCollisionError, InvalidInstanceError
from repro.io import append_jsonl

__all__ = [
    "canonical_instance_payload",
    "task_key",
    "ResultCache",
    "ShardedResultCache",
]


def canonical_instance_payload(payload: dict[str, Any]) -> str:
    """The canonical JSON text of a serialised instance."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def task_key(payload: dict[str, Any], algorithm: str, certify: bool = False) -> str:
    """Content hash identifying one (instance, algorithm) solve task.

    The package version participates in the hash: solver behaviour and
    the ``auto`` dispatch policy are code, so a persistent cache written
    by one release must not answer for another.  Imported lazily to
    avoid a cycle (``repro/__init__`` imports this package).

    ``certify`` tasks carry extra certificate fields in their records,
    so they hash apart from plain solves of the same instance (keys of
    non-certify tasks are unchanged from earlier releases).
    """
    from repro import __version__

    digest = hashlib.sha256()
    digest.update(__version__.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(algorithm.encode("utf-8"))
    digest.update(b"\x00")
    if certify:
        digest.update(b"certify\x00")
    digest.update(canonical_instance_payload(payload).encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """``task_key -> result record`` map, optionally backed by JSONL.

    Parameters
    ----------
    path:
        When given, existing records are loaded eagerly and every
        :meth:`put` is appended to the file.  ``None`` keeps the cache
        purely in-memory (intra-batch deduplication still works).

    Notes
    -----
    Loading is *eager*: the whole history is parsed up front, which is
    the right trade for batch runs that will touch most keys anyway.
    Long-lived services with large histories should use
    :class:`ShardedResultCache`, which loads per-prefix shards lazily.

    Loading tolerates malformed lines: a run killed mid-append leaves a
    truncated tail (possibly with non-UTF-8 garbage bytes), and that
    must not brick the whole cache; duplicate keys across appending runs
    deterministically keep the newest record (last wins).  A tail
    missing its newline is healed before the first append, so the next
    record never splices onto the broken line.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: dict[str, dict[str, Any]] = {}
        self._heal_tail = False
        if self.path is not None and self.path.exists():
            text = self.path.read_text(encoding="utf-8", errors="replace")
            self._heal_tail = bool(text) and not text.endswith("\n")
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                key = record.get("key") if isinstance(record, dict) else None
                if isinstance(key, str):
                    self._records[key] = record

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def record(self, key: str) -> dict[str, Any]:
        """The stored record for ``key`` (``KeyError`` if absent).

        Hit/fresh accounting lives in :class:`~repro.runtime.batch.BatchStats`,
        which counts per submission — the right granularity for a batch.
        """
        return self._records[key]

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Store ``record`` under ``key`` (and append it to the file).

        Re-storing the *same* record is a no-op; re-storing a key with a
        *different* record raises :exc:`CacheCollisionError` — keys are
        content hashes, so a mismatch means serialisation drift or a
        poisoned cache file, and silently keeping the old record would
        mask exactly the bugs the certifier exists to catch.
        """
        existing = self._records.get(key)
        if existing is not None:
            if existing == record:
                return
            raise CacheCollisionError(
                f"cache key {key[:16]}... already holds a different record "
                "(same content hash, different data: serialisation drift "
                "or corrupted cache file)"
            )
        self._records[key] = record
        if self.path is not None:
            if self._heal_tail:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write("\n")
                self._heal_tail = False
            append_jsonl(record, self.path)


class ShardedResultCache:
    """A directory of prefix-sharded JSONL caches, loaded lazily.

    The single-file :class:`ResultCache` re-parses its entire JSONL
    history at construction — fine for a batch that will touch most
    keys, a serial-load hot path for a long-lived service that answers
    point queries.  This cache splits the ``key -> record`` space by the
    first ``shard_chars`` hex characters of the (SHA-256) task key into
    ``shard-<prefix>.jsonl`` files and opens each shard as a
    :class:`ResultCache` only on the first access of a key in it, so
    service startup is O(1) and each request pays for exactly one shard.
    Each shard therefore keeps the single-file semantics: tolerant
    loading, tail healing, and collision errors.

    Parameters
    ----------
    directory:
        Shard directory; created (with parents) if missing.
    shard_chars:
        Key-prefix length: ``1`` (default) gives 16 shards, ``2`` gives
        256.  Must match across processes sharing the directory, so it
        is persisted implicitly in the shard file names.
    """

    def __init__(self, directory: str | Path, shard_chars: int = 1) -> None:
        if not 1 <= shard_chars <= 8:
            raise InvalidInstanceError(
                f"shard_chars must be in 1..8, got {shard_chars}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_chars = shard_chars
        self._shards: dict[str, ResultCache] = {}
        # a directory written with a different prefix length would make
        # every lookup miss its records (and re-solves would write
        # conflicting duplicates beside them) — fail loudly instead
        for path in self.shard_files():
            prefix = path.stem.removeprefix("shard-")
            if len(prefix) != shard_chars:
                raise InvalidInstanceError(
                    f"{self.directory} was sharded with shard_chars="
                    f"{len(prefix)} (found {path.name}); reopen with that "
                    f"value, not {shard_chars}"
                )

    def _shard_id(self, key: str) -> str:
        # keys shorter than the prefix (not SHA-256? tests, tools) pad
        # with "_" so every shard name has the declared prefix length —
        # otherwise a short key would write a shard the reopen guard
        # reads as a different shard_chars and reject the directory
        return key[: self.shard_chars].ljust(self.shard_chars, "_")

    def _open(self, shard_id: str) -> ResultCache:
        """One shard's cache, parsing its file on first use."""
        shard = self._shards.get(shard_id)
        if shard is None:
            shard = ResultCache(self.directory / f"shard-{shard_id}.jsonl")
            self._shards[shard_id] = shard
        return shard

    def _shard(self, key: str) -> ResultCache:
        return self._open(self._shard_id(key))

    @property
    def loaded_shards(self) -> tuple[str, ...]:
        """Shard ids parsed so far (laziness is observable, and tested)."""
        return tuple(sorted(self._shards))

    def shard_files(self) -> list[Path]:
        """Every shard file currently on disk, sorted by name."""
        return sorted(self.directory.glob("shard-*.jsonl"))

    def __contains__(self, key: str) -> bool:
        return key in self._shard(key)

    def __len__(self) -> int:
        """Total record count — loads *every* shard (tests/diagnostics)."""
        for path in self.shard_files():
            self._open(path.stem.removeprefix("shard-"))
        return sum(len(shard) for shard in self._shards.values())

    def record(self, key: str) -> dict[str, Any]:
        """The stored record for ``key`` (``KeyError`` if absent)."""
        return self._shard(key).record(key)

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Store ``record`` under ``key`` and append it to its shard file."""
        self._shard(key).put(key, record)

    @classmethod
    def migrate_jsonl(
        cls,
        jsonl_path: str | Path,
        directory: str | Path,
        shard_chars: int = 1,
    ) -> "ShardedResultCache":
        """Split a flat :class:`ResultCache` JSONL file into shards.

        Existing shard contents are kept (collisions raise, as always);
        the source file is left untouched so the migration is safe to
        re-run or abort.
        """
        flat = ResultCache(jsonl_path)
        sharded = cls(directory, shard_chars=shard_chars)
        for key, record in flat._records.items():
            sharded.put(key, record)
        return sharded
