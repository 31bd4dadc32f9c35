"""The batch execution engine: many instances, one driver.

Every benchmark and example used to hand-roll the same loop — build an
instance, call :func:`repro.engine.solve`, time it, compute a lower
bound, collect a row.  :class:`BatchRunner` centralises that loop and
adds the throughput machinery the one-at-a-time path cannot offer:

* **fan-out** across a :class:`~concurrent.futures.ProcessPoolExecutor`
  reused across :meth:`BatchRunner.run` calls (``workers=1`` stays
  in-process, exactly reproducing the sequential semantics).  Tasks are
  solved by :func:`repro.engine.service.solve_payload`, as serve
  requests are, so a malformed payload or a failing algorithm costs one
  error record, not the batch.  A worker that dies gives each task it
  lost a ``BrokenProcessPool`` error record, which is not cached;
* **deduplication** — semantically identical (instance, algorithm)
  tasks are solved once per batch, keyed by the canonical content hash
  of :mod:`repro.runtime.cache`;
* **caching** — an optional JSONL-backed :class:`ResultCache` carries
  results across runs, so a warm re-run touches no solver at all;
* **streaming** — results are yielded in submission order as structured
  :class:`BatchResult` records and can be appended to JSONL through
  :mod:`repro.io` while the batch is still running.

Determinism: every registered solver is deterministic (randomness lives
in instance *generation*, which happens before the runner sees the
payload), so results are invariant under the worker count and under
cache warmth — properties the test-suite pins down.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple

from repro.certify.validators import instance_lower_bound

# a module, not its names: repro.engine.service imports repro.runtime
# (and so this module) before it defines solve_payload
from repro.engine import service
from repro.exceptions import InvalidInstanceError
from repro.io import dump_jsonl_line, frac_str, instance_to_dict
from repro.runtime.cache import ResultCache, ShardedResultCache, task_key
from repro.scheduling.instance import SchedulingInstance

__all__ = [
    "RESULT_FORMAT",
    "BatchTask",
    "BatchResult",
    "BatchStats",
    "BatchRunner",
]

RESULT_FORMAT = "repro/batch-result/v1"

#: submissions drawn from the input per scheduling round; bounds driver
#: memory on huge streams
CHUNK_JOBS = 256

#: one deduplicated solve: ``(key, payload, algorithm, certify)``
_Task = tuple[str, Any, str, bool]


class BatchTask(NamedTuple):
    """One unit of batch work: a named, serialised instance.

    ``payload`` is the canonical JSON dict of
    :func:`repro.io.instance_to_dict` — keeping tasks as plain data makes
    them cheap to hash, pickle to workers, and load from spec files.
    ``algorithm=None`` defers to the runner's default.  ``certify=True``
    audits the produced schedule through :mod:`repro.certify` and stores
    the certificate in the result record (the runner's own ``certify``
    flag turns this on batch-wide).
    """

    name: str
    payload: dict[str, Any]
    algorithm: str | None = None
    certify: bool = False


def _frac_parse(text: str | None) -> Fraction | None:
    return None if text is None else Fraction(text)


@dataclass(frozen=True)
class BatchResult:
    """The structured outcome of solving one batch item.

    Scalar summary only (no schedule): records must stay cheap to pickle
    back from workers and to stream as JSONL.  ``makespan`` and
    ``lower_bound`` are exact rationals; ``ratio`` is their float
    quotient (``None`` when the lower bound is zero or the solve
    errored).  ``cached`` marks results served from the cache or from
    intra-batch deduplication rather than a fresh solve.
    """

    index: int
    name: str
    key: str
    algorithm: str
    chosen: str | None
    instance_kind: str
    n: int
    m: int
    edges: int
    makespan: Fraction | None
    lower_bound: Fraction | None
    ratio: float | None
    feasible: bool
    wall_time_s: float
    cached: bool = False
    error: str | None = None
    certificate: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSONL-ready record (rationals as ``"num/den"`` strings)."""
        return {
            "format": RESULT_FORMAT,
            "kind": "batch_result",
            "index": self.index,
            "name": self.name,
            "key": self.key,
            "algorithm": self.algorithm,
            "chosen": self.chosen,
            "instance_kind": self.instance_kind,
            "n": self.n,
            "m": self.m,
            "edges": self.edges,
            "makespan": frac_str(self.makespan),
            "lower_bound": frac_str(self.lower_bound),
            "ratio": self.ratio,
            "feasible": self.feasible,
            "wall_time_s": self.wall_time_s,
            "cached": self.cached,
            "error": self.error,
            "certificate": self.certificate,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BatchResult":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") != "batch_result":
            raise InvalidInstanceError(
                f"expected kind 'batch_result', found {data.get('kind')!r}"
            )
        return cls(
            index=int(data["index"]),
            name=str(data["name"]),
            key=str(data["key"]),
            algorithm=str(data["algorithm"]),
            chosen=data.get("chosen"),
            instance_kind=str(data["instance_kind"]),
            n=int(data["n"]),
            m=int(data["m"]),
            edges=int(data["edges"]),
            makespan=_frac_parse(data.get("makespan")),
            lower_bound=_frac_parse(data.get("lower_bound")),
            ratio=data.get("ratio"),
            feasible=bool(data.get("feasible", False)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
            certificate=data.get("certificate"),
        )


@dataclass
class BatchStats:
    """Aggregate counters for one :meth:`BatchRunner.run` pass.

    ``wall_time_s`` sums the *solver* time of fresh solves (cache hits
    contribute nothing), i.e. the compute the batch actually spent.
    """

    total: int = 0
    solved: int = 0
    cached: int = 0
    errors: int = 0
    wall_time_s: float = 0.0


def _record(task: _Task, error: str | None) -> dict[str, Any]:
    """The cache-shape record of ``task`` with no solve result in it."""
    key, payload, algorithm, _ = task
    return {
        "format": RESULT_FORMAT,
        "kind": "batch_result",
        "index": -1,
        "name": "",
        "key": key,
        "algorithm": algorithm,
        "chosen": None,
        # a payload that is not an object has no kind to report
        "instance_kind": str(payload.get("kind") if isinstance(payload, dict) else None),
        "n": 0,
        "m": 0,
        "edges": 0,
        "makespan": None,
        "lower_bound": None,
        "ratio": None,
        "feasible": False,
        "wall_time_s": 0.0,
        "cached": False,
        "error": error,
        "certificate": None,
    }


def _exit_with_parent(driver: int, start_method: str) -> None:
    """Pool worker initializer: end the worker once its driver is gone.

    A driver killed by SIGKILL or ended by ``os._exit`` runs no exit
    hook, so nothing shuts its pool down and the idle workers would wait
    on the call queue forever.  A daemon thread polls the parent pid once
    a second and ends the worker when it is no longer the process that
    started the worker: the driver, whose pid the driver passes in (so a
    driver that died before this ran is caught by the first poll), or
    under ``forkserver`` the fork server, which exits with the driver.
    """
    parent = os.getppid() if start_method == "forkserver" else driver

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def process_pool(workers: int) -> ProcessPoolExecutor:
    """The process pool of ``repro batch`` and of ``repro serve --workers``:
    ``workers`` processes that end with their driver, however it ends."""
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_exit_with_parent,
        initargs=(os.getpid(), multiprocessing.get_start_method()),
    )


def _solve_task(task: _Task) -> dict[str, Any]:
    """Worker entry point: solve one deduplicated task.

    Must stay module-level (picklable).  Returns the cache-shape record;
    the driver stamps per-submission fields (index, name, cached).  A
    payload that does not decode gives ``n = m = edges = 0`` and the
    decode error.  With the certify flag set, the schedule is audited
    through :func:`repro.certify.certify_schedule` and the certificate
    dict is stored on the record (certification time is not billed to
    the solver's ``wall_time_s``).
    """
    _, payload, algorithm, certify = task
    instance, chosen, schedule, wall, error = service.solve_payload(payload, algorithm)
    record = _record(task, error)
    record["chosen"] = chosen
    if instance is not None:
        record.update(n=instance.n, m=instance.m, edges=instance.graph.edge_count)
    if instance is None or schedule is None:
        return record
    lower = instance_lower_bound(instance)
    record.update(
        makespan=frac_str(schedule.makespan),
        lower_bound=frac_str(lower),
        feasible=schedule.is_feasible(),
        wall_time_s=wall,
    )
    if lower is not None and lower > 0:
        record["ratio"] = float(schedule.makespan / lower)
    if certify:
        from repro.certify import certify_schedule

        record["certificate"] = certify_schedule(
            schedule, algorithm=chosen
        ).to_dict()
    return record


class BatchRunner:
    """Drive many solves through dedup, cache, and a worker pool.

    Parameters
    ----------
    algorithm:
        Default algorithm for items that do not carry their own
        (``"auto"`` applies the registry's dispatch policy per instance).
    workers:
        Process count.  ``1`` (default) solves in-process; ``>1`` fans
        tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`
        that lives across :meth:`run` calls — forking costs tens of
        milliseconds, which would dominate sweeps of many small batches.
        Workers hold no task state between tasks, so results are
        unaffected.  A worker that dies breaks the pool, and the next
        chunk starts a fresh one.  The pool is shut down by
        :meth:`close`, ``with`` exit, or garbage collection.
    cache:
        ``None`` (dedup only within the run), a path, or a ready cache
        object — a :class:`ResultCache`, a lazily-loaded
        :class:`~repro.runtime.cache.ShardedResultCache`, or anything
        with their ``in``/``record``/``put`` protocol.  An existing
        directory opens as a sharded cache, as ``repro serve
        --cache-dir`` does; any other path is a JSONL file, created on
        the first result.
    certify:
        Audit every produced schedule through :mod:`repro.certify` and
        store the certificate on the result record (per-task
        ``BatchTask.certify`` flags opt individual items in without
        this batch-wide switch).  Certify tasks hash to different cache
        keys than plain solves, so warm non-certify caches are never
        answered with (or poisoned by) certificate-carrying records.

    Accepted input items (mixable within one iterable):

    * a :class:`SchedulingInstance`;
    * a ``(name, instance)`` pair;
    * a :class:`BatchTask` / ``(name, payload_dict, algorithm)`` triple;
    * a raw serialised instance dict.
    """

    def __init__(
        self,
        algorithm: str = "auto",
        workers: int = 1,
        cache: ResultCache | str | Path | None = None,
        certify: bool = False,
    ) -> None:
        if workers < 1:
            raise InvalidInstanceError(f"workers must be >= 1, got {workers}")
        self.algorithm = algorithm
        self.workers = workers
        self.certify = certify
        if cache is None:
            self.cache: Any = ResultCache(None)
        elif isinstance(cache, (str, Path)):
            path = Path(cache)
            self.cache = ShardedResultCache(path) if path.is_dir() else ResultCache(path)
        else:
            self.cache = cache
        self.stats = BatchStats()
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # worker-pool lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the worker pool down and reap its processes (idempotent).

        In-process runners (``workers=1``) and already-closed runners
        accept the call as a no-op; the runner itself stays usable — the
        next parallel chunk simply starts a fresh pool.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "BatchRunner":
        """``with BatchRunner(...) as runner:`` — pool dies at exit."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # input normalisation
    # ------------------------------------------------------------------ #

    def _normalize(self, item: Any, index: int) -> BatchTask:
        if isinstance(item, BatchTask):
            return item
        if isinstance(item, SchedulingInstance):
            return BatchTask(f"instance-{index}", instance_to_dict(item), None)
        if isinstance(item, dict):
            return BatchTask(f"instance-{index}", item, None)
        if isinstance(item, tuple):
            if len(item) == 2:
                name, inst = item
                payload = inst if isinstance(inst, dict) else instance_to_dict(inst)
                return BatchTask(str(name), payload, None)
            if len(item) == 3:
                name, inst, algorithm = item
                payload = inst if isinstance(inst, dict) else instance_to_dict(inst)
                return BatchTask(str(name), payload, algorithm)
        raise InvalidInstanceError(
            f"cannot interpret batch item {index}: {type(item).__name__}"
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(self, items: Iterable[Any]) -> Iterator[BatchResult]:
        """Yield one :class:`BatchResult` per input item, in input order.

        Parameters
        ----------
        items:
            Any mix of the accepted item shapes (see the class
            docstring); consumed lazily in rounds of
            :data:`CHUNK_JOBS` submissions.  Within each round, unseen
            tasks are solved (possibly in parallel) before any of the
            round's results are yielded.

        Yields
        ------
        BatchResult
            One structured record per submission, in submission order;
            repeats and cache hits carry ``cached=True``.

        Notes
        -----
        Resets :attr:`stats`.  The worker pool survives the call and is
        reused by the next run; call :meth:`close` (or use the runner as
        a context manager) to tear it down deterministically.
        """
        self.stats = BatchStats()
        iterator = enumerate(items)
        while chunk := list(islice(iterator, CHUNK_JOBS)):
            yield from self._run_chunk(chunk)

    def _run_chunk(self, chunk: list[tuple[int, Any]]) -> Iterator[BatchResult]:
        prepared: list[tuple[int, BatchTask, str, bool]] = []
        to_solve: list[_Task] = []
        scheduled: set[str] = set()
        for index, item in chunk:
            task = self._normalize(item, index)
            algorithm = task.algorithm or self.algorithm
            certify = task.certify or self.certify
            key = task_key(task.payload, algorithm, certify=certify)
            fresh = key not in self.cache and key not in scheduled
            if fresh:
                scheduled.add(key)
                to_solve.append((key, task.payload, algorithm, certify))
            prepared.append((index, task, key, fresh))

        solved: dict[str, dict[str, Any]] = {}
        for job, outcome in zip(to_solve, self._solve(to_solve)):
            key = job[0]
            if isinstance(outcome, BrokenProcessPool):
                # lost with its worker: not cached, so a re-run retries it
                solved[key] = _record(job, service.failed_record(outcome)["error"])
            else:
                solved[key] = outcome
                self.cache.put(key, outcome)

        for index, task, key, fresh in prepared:
            record = dict(solved[key] if key in solved else self.cache.record(key))
            record["index"] = index
            record["name"] = task.name
            record["cached"] = not fresh
            if not fresh:
                record["wall_time_s"] = 0.0
            result = BatchResult.from_dict(record)
            self.stats.total += 1
            if fresh:
                self.stats.solved += 1
                self.stats.wall_time_s += result.wall_time_s
            else:
                self.stats.cached += 1
            if result.error is not None:
                self.stats.errors += 1
            yield result

    def _solve(
        self, tasks: list[_Task]
    ) -> list[dict[str, Any] | BrokenProcessPool]:
        """Each task's record, or the error that lost it with its worker.

        In-process when ``workers == 1``, otherwise on the pool, about
        four chunks per worker.  A dead worker breaks the pool: every
        task without a record by then is lost with it, and the broken
        pool is closed so that the next chunk starts a fresh one.
        """
        if self.workers == 1 or not tasks:
            return [_solve_task(task) for task in tasks]
        if self._pool is None:
            self._pool = process_pool(self.workers)
        chunksize = max(1, len(tasks) // (self.workers * 4))
        outcomes: list[dict[str, Any] | BrokenProcessPool] = []
        try:
            for record in self._pool.map(_solve_task, tasks, chunksize=chunksize):
                outcomes.append(record)
        except BrokenProcessPool as exc:
            outcomes.extend([exc] * (len(tasks) - len(outcomes)))
            self.close()
        return outcomes

    # ------------------------------------------------------------------ #
    # convenience drivers
    # ------------------------------------------------------------------ #

    def run_to_list(self, items: Iterable[Any]) -> list[BatchResult]:
        """Materialise :meth:`run`.

        Parameters
        ----------
        items:
            Forwarded to :meth:`run`.

        Returns
        -------
        list of BatchResult
            All results, in submission order.
        """
        return list(self.run(items))

    def run_to_jsonl(
        self,
        items: Iterable[Any],
        path: str | Path,
        append: bool = False,
    ) -> BatchStats:
        """Stream results to a JSONL file as they are produced.

        Parameters
        ----------
        items:
            Forwarded to :meth:`run`.
        path:
            Output JSONL file; one :meth:`BatchResult.to_dict` record
            per line.
        append:
            Keep existing lines instead of truncating (default
            truncates).

        Returns
        -------
        BatchStats
            The final :attr:`stats` of the run.

        Notes
        -----
        One file handle spans the whole run, flushed per record, so a
        concurrent reader always sees complete lines.
        """
        out = Path(path)
        with out.open("a" if append else "w", encoding="utf-8") as fh:
            for result in self.run(items):
                fh.write(dump_jsonl_line(result.to_dict()) + "\n")
                fh.flush()
        return self.stats
