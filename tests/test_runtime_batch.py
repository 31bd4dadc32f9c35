"""Tests for :mod:`repro.runtime` — the batch execution engine."""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest

import repro
import repro.runtime.batch as batch_module
from repro.engine import AlgorithmSpec, Capability, register_algorithm, unregister_algorithm
from repro.exceptions import InvalidInstanceError
from repro.graphs import generators
from repro.io import dump_jsonl_line, instance_to_dict, read_jsonl, save_instance
from repro.runtime import (
    BatchResult,
    BatchRunner,
    BatchTask,
    ResultCache,
    ShardedResultCache,
    build_family_graph,
    expand_specs,
    load_spec_file,
    task_key,
)
from repro.scheduling.instance import (
    UnrelatedInstance,
    identical_instance,
    unit_uniform_instance,
)
from repro.scheduling.schedule import Schedule
from repro.engine import auto_choice, solve


def small_instances(count=6):
    """A deterministic mixed bag of small instances."""
    out = []
    for i in range(count):
        graph = generators.matching_graph(2 + i % 3)
        out.append(
            (f"match-{i}", unit_uniform_instance(graph, [Fraction(2), Fraction(1)]))
        )
    return out


class TestTaskKey:
    def test_same_content_same_key(self):
        inst = identical_instance(generators.path_graph(4), [1, 2, 3, 1], 2)
        a = task_key(instance_to_dict(inst), "auto")
        b = task_key(instance_to_dict(inst), "auto")
        assert a == b

    def test_algorithm_changes_key(self):
        inst = identical_instance(generators.path_graph(4), [1, 2, 3, 1], 2)
        payload = instance_to_dict(inst)
        assert task_key(payload, "auto") != task_key(payload, "sqrt_approx")

    def test_instance_changes_key(self):
        a = identical_instance(generators.path_graph(4), [1, 2, 3, 1], 2)
        b = identical_instance(generators.path_graph(4), [1, 2, 3, 2], 2)
        assert task_key(instance_to_dict(a), "auto") != task_key(
            instance_to_dict(b), "auto"
        )


class TestResultCache:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put("k1", {"key": "k1", "makespan": "3/2"})
        reloaded = ResultCache(path)
        assert "k1" in reloaded
        assert reloaded.record("k1")["makespan"] == "3/2"

    def test_tolerates_corrupt_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put("k1", {"key": "k1", "makespan": "2"})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "k2", "trunc')  # killed mid-append
        reloaded = ResultCache(path)
        assert "k1" in reloaded and "k2" not in reloaded

    def test_membership_and_record(self):
        cache = ResultCache()
        assert "nope" not in cache
        with pytest.raises(KeyError):
            cache.record("nope")
        cache.put("k", {"key": "k"})
        assert "k" in cache and len(cache) == 1
        assert cache.record("k") == {"key": "k"}

    def test_key_includes_package_version(self, monkeypatch):
        import repro

        inst = identical_instance(generators.path_graph(4), [1, 2, 3, 1], 2)
        payload = instance_to_dict(inst)
        before = task_key(payload, "auto")
        monkeypatch.setattr(repro, "__version__", "0.0.0-other")
        assert task_key(payload, "auto") != before


class TestBatchRunner:
    def test_results_in_input_order_with_names(self):
        items = small_instances()
        results = BatchRunner().run_to_list(items)
        assert [r.index for r in results] == list(range(len(items)))
        assert [r.name for r in results] == [name for name, _ in items]

    def test_matches_direct_solve(self):
        items = small_instances()
        results = BatchRunner().run_to_list(items)
        for (_, inst), rec in zip(items, results):
            assert rec.chosen == auto_choice(inst)
            assert rec.makespan == solve(inst).makespan
            assert rec.feasible

    def test_intra_batch_dedup(self):
        name, inst = small_instances(1)[0]
        runner = BatchRunner()
        results = runner.run_to_list([(name, inst)] * 5)
        assert runner.stats.solved == 1
        assert runner.stats.cached == 4
        assert [r.cached for r in results] == [False, True, True, True, True]
        assert len({r.makespan for r in results}) == 1

    def test_worker_count_invariance(self, pool_guard):
        items = small_instances(8)
        sequential = BatchRunner(workers=1).run_to_list(items)
        with BatchRunner(workers=2) as runner:
            parallel = runner.run_to_list(items)
        key = lambda r: (r.index, r.name, r.key, r.chosen, r.makespan,
                         r.lower_bound, r.ratio, r.feasible, r.error)
        assert [key(r) for r in sequential] == [key(r) for r in parallel]

    @pytest.mark.parametrize(
        "cache_name, cache_type",
        [("cache.jsonl", ResultCache), ("shards", ShardedResultCache)],
    )
    def test_cached_rerun_is_deterministic(self, tmp_path, cache_name, cache_type):
        items = small_instances(6)
        cache_path = tmp_path / cache_name
        if cache_type is ShardedResultCache:
            # an existing directory opens as a sharded cache, as for
            # `repro serve --cache-dir`; a path not there yet is a JSONL file
            cache_path.mkdir()
        first = BatchRunner(cache=cache_path).run_to_list(items)
        runner = BatchRunner(cache=str(cache_path))
        assert type(runner.cache) is cache_type
        second = runner.run_to_list(items)
        assert runner.stats.solved == 0
        assert all(r.cached for r in second)
        assert all(r.wall_time_s == 0.0 for r in second)
        assert [(r.makespan, r.chosen, r.ratio) for r in first] == [
            (r.makespan, r.chosen, r.ratio) for r in second
        ]

    def test_mixed_item_forms(self):
        name, inst = small_instances(1)[0]
        payload = instance_to_dict(inst)
        results = BatchRunner().run_to_list(
            [inst, (name, inst), (name, payload, "sqrt_approx"),
             BatchTask(name, payload), payload]
        )
        assert len(results) == 5
        assert results[2].chosen == "sqrt_approx"
        assert results[0].makespan == results[3].makespan

    def test_inapplicable_algorithm_becomes_error_record(self):
        _, inst = small_instances(1)[0]
        ok_name, ok_inst = small_instances(2)[1]
        runner = BatchRunner()
        results = runner.run_to_list(
            [("bad", inst, "r2_fptas"), (ok_name, ok_inst)]
        )
        assert results[0].error is not None
        assert results[0].makespan is None
        assert results[1].error is None
        assert runner.stats.errors == 1

    def test_unrelated_instances_get_bounds(self):
        graph = generators.matching_graph(2)
        inst = UnrelatedInstance(graph, [[3, 1, 4, 1], [2, 7, 1, 8]])
        (rec,) = BatchRunner().run_to_list([inst])
        assert rec.lower_bound is not None
        assert rec.ratio is not None and rec.ratio >= 1.0

    def test_rejects_bad_item(self):
        with pytest.raises(InvalidInstanceError):
            BatchRunner().run_to_list([42])

    def test_rejects_bad_config(self):
        with pytest.raises(InvalidInstanceError):
            BatchRunner(workers=0)


def _raise_plugin_bug(instance):
    raise ValueError("plugin bug")


@pytest.fixture
def failing_plugins():
    """Registered plugins that fail: one raises, one returns no schedule,
    and one returns a schedule whose makespan cannot be computed."""
    names = {
        "plugin_raises": _raise_plugin_bug,
        "plugin_none": lambda instance: None,
        "plugin_forbidden": lambda instance: Schedule(instance, [0] * instance.n, check=False),
    }
    for name, run in names.items():
        register_algorithm(
            AlgorithmSpec(
                name=name, guarantee="none (test)", anchor="test", run=run,
                capability=Capability(supports_eligibility=True),
            )
        )
    try:
        yield
    finally:
        for name in names:
            unregister_algorithm(name)


def _bad_items():
    """One item per way a single item can fail, with the error it must give."""
    _, inst = small_instances(1)[0]
    payload = instance_to_dict(inst)
    no_graph = {k: v for k, v in payload.items() if k != "graph"}
    forbidden = instance_to_dict(
        UnrelatedInstance(generators.matching_graph(2), [[None, 1, 2, 3], [1, 1, 1, 1]])
    )
    return {
        "string-p": (BatchTask("bad", dict(payload, p=["x"] * inst.n)), "must be an int"),
        "non-object": (BatchTask("bad", 5), "expected a JSON object"),
        "no-graph": (BatchTask("bad", no_graph), "KeyError('graph')"),
        "unknown-algorithm": (("bad", payload, "no_such_algorithm"), "unknown algorithm"),
        "plugin-raises": (("bad", payload, "plugin_raises"), "ValueError: plugin bug"),
        "plugin-none": (("bad", payload, "plugin_none"), "NoneType"),
        "plugin-forbidden": (("bad", forbidden, "plugin_forbidden"), "job 0 is forbidden"),
    }


class TestPerItemFailures:
    """One failing item costs one error record, in its place; the batch goes on."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(_bad_items()))
    def test_one_error_record_in_place(self, case, workers, failing_plugins, pool_guard):
        if (
            workers > 1
            and case.startswith("plugin")
            and multiprocessing.get_start_method() != "fork"
        ):
            pytest.skip("workers see a plugin registered at run time only under fork")
        bad, message = _bad_items()[case]
        good = small_instances(3)[1:]
        with BatchRunner(workers=workers) as runner:
            results = runner.run_to_list([good[0], bad, good[1]])
        assert [r.name for r in results] == ["match-1", "bad", "match-2"]
        assert [r.error is None for r in results] == [True, False, True]
        assert all(r.feasible and r.makespan is not None for r in (results[0], results[2]))
        error = results[1]
        assert error.makespan is None and not error.feasible
        assert message in error.error
        if case in ("string-p", "non-object", "no-graph"):
            assert (error.n, error.m, error.edges) == (0, 0, 0)
        assert runner.stats.errors == 1 and runner.stats.solved == 3

    def test_plugin_error_worded_as_the_serve_tier_words_it(self, failing_plugins):
        from repro.engine import EngineService

        _, inst = small_instances(1)[0]
        request = {"op": "solve", "instance": instance_to_dict(inst),
                   "algorithm": "plugin_raises"}
        reply = EngineService().handle_request(request)
        (record,) = BatchRunner().run_to_list([("bad", request["instance"], "plugin_raises")])
        assert reply["error"] == record.error == "ValueError: plugin bug"


#: the child interpreter of the dead-worker test: a plugin that kills its
#: worker the first time it runs, among good items, twice on one runner
def _child_env():
    """The environment of a child interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


_DEAD_WORKER_CHILD = """
import json, multiprocessing, os, sys, time
from fractions import Fraction
from repro.engine import AlgorithmSpec, Capability, register_algorithm, solve
from repro.graphs import generators
from repro.runtime import BatchRunner, ResultCache
from repro.scheduling.instance import unit_uniform_instance

flag = sys.argv[1]

def die_once(instance):
    if not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return solve(instance)

register_algorithm(AlgorithmSpec(
    name="die_once", guarantee="none (test)", anchor="test", run=die_once,
    capability=Capability(machine_kind="uniform")))
items = [(f"good-{i}", unit_uniform_instance(
    generators.matching_graph(2 + i), [Fraction(2), Fraction(1)])) for i in range(8)]
items.insert(3, ("crash", items[0][1], "die_once"))
runner = BatchRunner(workers=2, cache=ResultCache())
start = time.perf_counter()
first = runner.run_to_list(items)
seconds = time.perf_counter() - start
first_errors = runner.stats.errors
second = runner.run_to_list(items)
runner.close()
print(json.dumps({
    "seconds": seconds,
    "first": {r.name: r.error for r in first},
    "first_errors": first_errors,
    "second": {r.name: [r.error, r.cached] for r in second},
    "children": len(multiprocessing.active_children()),
}))
"""


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see a plugin registered at run time only under fork",
)
def test_dead_worker_costs_error_records_not_the_batch(tmp_path):
    env = _child_env()
    # a session of its own, so that a hang can be killed with every worker
    with subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_CHILD, str(tmp_path / "died")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    ) as child:
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("a batch with a dead worker hung")
    assert child.returncode == 0, err
    report = json.loads(out)
    assert report["seconds"] < 10
    first = report["first"]
    assert first["crash"].startswith("BrokenProcessPool: ")
    # every other task either finished before the pool broke or was lost
    # with it, and then carries the same typed error
    lost = {name for name, error in first.items() if error is not None}
    assert all(first[name].startswith("BrokenProcessPool: ") for name in lost)
    assert report["first_errors"] == len(lost)
    # lost records were not cached: the re-run retries exactly those tasks
    # and solves every item
    assert report["second"] == {
        name: [None, name not in lost] for name in first
    }
    assert report["children"] == 0


#: the child interpreter of the orphaned-worker test: a two-worker pool
#: solves one task, then the driver ends without running any exit hook
_ORPHANING_CHILD = """
import os
from fractions import Fraction
from repro.graphs import generators
from repro.runtime import BatchRunner
from repro.scheduling.instance import unit_uniform_instance

runner = BatchRunner(workers=2)
runner.run_to_list([unit_uniform_instance(
    generators.matching_graph(2), [Fraction(2), Fraction(1)])])
print(*runner._pool._processes, flush=True)
os._exit(0)
"""


def _running(pid):
    """Whether ``pid`` is a live process (a zombie nobody reaped is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:
        return True  # no /proc: the signal probe is all there is
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_pool_workers_end_with_a_driver_that_skips_its_exit_hooks(pool_guard, tmp_path):
    """Workers of a driver ended by ``os._exit`` (or SIGKILL) do not linger."""
    env = _child_env()
    # output to files, not pipes: a lingering worker would hold a pipe
    # open; and a session of its own, so whatever outlives the test is
    # killed with it
    out, err = tmp_path / "out", tmp_path / "err"
    with out.open("w") as out_fh, err.open("w") as err_fh:
        child = subprocess.Popen(
            [sys.executable, "-c", _ORPHANING_CHILD],
            stdout=out_fh, stderr=err_fh, env=env, start_new_session=True,
        )
    try:
        assert child.wait(timeout=60) == 0, err.read_text()
        pids = [int(pid) for pid in out.read_text().split()]
        assert pids
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids)), "pool workers outlived their driver"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


#: a child that runs the pool worker initializer, then idles a second
_WATCHED_CHILD = """
import sys, time
from repro.runtime.batch import _exit_with_parent
_exit_with_parent(int(sys.argv[1]), sys.argv[2])
time.sleep(1.0)
"""


def test_worker_initializer_compares_with_the_driver_pid_it_was_given():
    """A worker whose driver died before the initializer ran ends at the
    first poll; one whose driver is its parent, or a fork-server worker
    (the fork server being its parent), lives on."""
    cases = [(-1, "fork", 1), (os.getpid(), "fork", 0), (-1, "forkserver", 0)]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _WATCHED_CHILD, str(driver), method],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_child_env(),
        )
        for driver, method, _ in cases
    ]
    try:
        for child, (_, _, code) in zip(children, cases):
            _, err = child.communicate(timeout=60)
            assert child.returncode == code, err
    finally:
        for child in children:
            child.kill()
            child.wait()


class _BreaksAfterOneTask:
    """A stand-in pool that solves its first task and then breaks."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        pass

    def map(self, fn, tasks, chunksize):
        yield fn(tasks[0])
        raise BrokenProcessPool("A child process terminated abruptly")

    def shutdown(self, cancel_futures):
        pass


def test_tasks_lost_with_the_pool_are_retried(monkeypatch):
    """Every task without a record when the pool breaks gets an uncached typed error."""
    monkeypatch.setattr(batch_module, "ProcessPoolExecutor", _BreaksAfterOneTask)
    runner = BatchRunner(workers=2)
    first = runner.run_to_list(small_instances(3))
    assert first[0].error is None
    assert all(r.error.startswith("BrokenProcessPool: ") for r in first[1:])
    assert runner._pool is None  # closed: the next chunk starts a fresh pool
    second = runner.run_to_list(small_instances(3))
    assert [(r.cached, r.error is None) for r in second] == [
        (True, True), (False, True), (False, False)
    ]


CORPUS = Path(__file__).resolve().parent / "fixtures" / "differential" / "corpus.jsonl"

#: sha256 of the batch JSONL over the frozen corpus, by ``certify``
CORPUS_DIGESTS = {
    False: "d2484f1ae0428419fb62bf1691918aab5047bb9e008974bac2e8c72f39917ab2",
    True: "8bb84fe6a9a22688d88902540ebc797f457d82bee107c55256e1d9394d9650d6",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("certify", [False, True], ids=["plain", "certify"])
def test_corpus_output_bytes_pinned(workers, certify, pool_guard):
    """The batch JSONL bytes over the frozen corpus, timing and key aside.

    ``key`` hashes the package version, so it is left out.
    """
    with CORPUS.open(encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    tasks = [BatchTask(record["id"], record["instance"]) for record in records]
    digest = hashlib.sha256()
    with BatchRunner(workers=workers, certify=certify) as runner:
        for result in runner.run(tasks):
            line = dict(result.to_dict(), wall_time_s=0.0)
            del line["key"]
            digest.update((dump_jsonl_line(line) + "\n").encode("utf-8"))
    assert len(tasks) == 68
    assert digest.hexdigest() == CORPUS_DIGESTS[certify]


class TestJsonlRoundTrip:
    def test_run_to_jsonl(self, tmp_path):
        items = small_instances(4)
        out = tmp_path / "results.jsonl"
        runner = BatchRunner()
        stats = runner.run_to_jsonl(items, out)
        assert stats.total == 4
        records = read_jsonl(out)
        assert len(records) == 4
        parsed = [BatchResult.from_dict(r) for r in records]
        direct = BatchRunner().run_to_list(items)
        assert [(p.name, p.makespan, p.ratio) for p in parsed] == [
            (d.name, d.makespan, d.ratio) for d in direct
        ]

    def test_result_dict_roundtrip(self):
        (rec,) = BatchRunner().run_to_list(small_instances(1))
        assert BatchResult.from_dict(rec.to_dict()) == rec

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(InvalidInstanceError):
            BatchResult.from_dict({"kind": "schedule"})


class TestSpecs:
    def test_count_replication_varies_seed(self):
        tasks = expand_specs(
            {
                "format": "repro/batch-spec/v1",
                "instances": [
                    {"family": "gnnp", "n": 6, "p": 0.3, "seed": 1,
                     "count": 3, "speeds": "2,1"}
                ],
            }
        )
        assert [t.name for t in tasks] == ["gnnp-n6-s1", "gnnp-n6-s2", "gnnp-n6-s3"]
        keys = {task_key(t.payload, "auto") for t in tasks}
        assert len(keys) == 3  # different seeds give different graphs

    def test_defaults_merge_and_entry_override(self):
        tasks = expand_specs(
            {
                "defaults": {"algorithm": "lpt", "speeds": "3,1"},
                "instances": [
                    {"family": "empty", "n": 4},
                    {"family": "empty", "n": 4, "algorithm": "sqrt_approx"},
                ],
            }
        )
        assert tasks[0].algorithm == "lpt"
        assert tasks[1].algorithm == "sqrt_approx"

    def test_inline_and_path_entries(self, tmp_path):
        inst = unit_uniform_instance(generators.crown(3), [Fraction(2), Fraction(1)])
        disk = tmp_path / "inst.json"
        save_instance(inst, disk)
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"format": "repro/batch-spec/v1", "instances": ['
            '{"name": "inline", "instance": %s},'
            '{"path": "inst.json"}]}'
            % __import__("json").dumps(instance_to_dict(inst)),
            encoding="utf-8",
        )
        tasks = load_spec_file(spec)
        assert [t.name for t in tasks] == ["inline", "inst"]
        results = BatchRunner().run_to_list(tasks)
        assert results[0].makespan == results[1].makespan
        assert results[1].cached  # identical payloads deduplicate

    def test_jobs_profiles(self):
        for jobs in ("unit", "uniform", "heavy_tailed", "one_giant"):
            tasks = expand_specs(
                {"instances": [{"family": "empty", "n": 5, "jobs": jobs,
                                "speeds": "1,1"}]}
            )
            assert len(tasks[0].payload["p"]) == 5

    def test_bad_specs_raise(self):
        with pytest.raises(InvalidInstanceError):
            expand_specs({"format": "other/v9", "instances": [{}]})
        with pytest.raises(InvalidInstanceError):
            expand_specs({"instances": []})
        with pytest.raises(InvalidInstanceError):
            expand_specs({"instances": [{"family": "nope", "n": 3}]})
        with pytest.raises(InvalidInstanceError):
            expand_specs({"instances": [{"name": "no-source"}]})
        with pytest.raises(InvalidInstanceError):
            expand_specs({"instances": [{"family": "empty", "n": 3, "bogus": 1}]})

    def test_build_family_graph_matches_generators(self):
        assert build_family_graph("crown", 4).edge_count == generators.crown(
            4
        ).edge_count
        with pytest.raises(InvalidInstanceError):
            build_family_graph("nope", 4)


class TestSummarize:
    def test_groups_by_chosen_algorithm(self):
        from repro.analysis.suites import batch_summary_table, summarize_batch

        results = BatchRunner().run_to_list(small_instances(4))
        rows = summarize_batch(results)
        assert len(rows) == 1
        algorithm, count, cached, errors, mean_ratio, worst, _ = rows[0]
        assert algorithm == results[0].chosen
        assert count == 4 and errors == 0
        assert worst >= mean_ratio >= 1.0
        table = batch_summary_table(results, title="t")
        assert algorithm in table and "worst ratio" in table

    def test_accepts_raw_dicts(self):
        from repro.analysis.suites import summarize_batch

        results = BatchRunner().run_to_list(small_instances(2))
        assert summarize_batch([r.to_dict() for r in results]) == summarize_batch(
            results
        )


def _fanout_tasks(runs: int, per_run: int):
    from repro.machines.profiles import power_law_speeds
    from repro.random_graphs.gilbert import gnnp

    return [
        [
            (
                f"run{s}-task{i}",
                unit_uniform_instance(
                    gnnp(5, 0.2, seed=10 * s + i), power_law_speeds(3)
                ),
            )
            for i in range(per_run)
        ]
        for s in range(runs)
    ]


@pytest.mark.usefixtures("pool_guard")
class TestPersistentPool:
    def test_pool_results_match_in_process_runs(self):
        reference = [
            [(r.name, r.makespan, r.chosen) for r in BatchRunner().run_to_list(ts)]
            for ts in _fanout_tasks(3, 3)
        ]
        with BatchRunner(workers=2) as runner:
            streams = [
                [(r.name, r.makespan, r.chosen) for r in runner.run_to_list(ts)]
                for ts in _fanout_tasks(3, 3)
            ]
        assert streams == reference

    def test_reuses_one_pool_across_runs(self):
        with BatchRunner(workers=2) as runner:
            assert runner._pool is None  # lazy: no pool before the first run
            runner.run_to_list(_fanout_tasks(1, 2)[0])
            pool = runner._pool
            assert pool is not None
            runner.run_to_list(_fanout_tasks(2, 2)[1])
            assert runner._pool is pool
        assert runner._pool is None  # context exit tears it down

    def test_close_is_idempotent_and_runner_stays_usable(self):
        runner = BatchRunner(workers=2)
        tasks = _fanout_tasks(1, 2)[0]
        first = [r.makespan for r in runner.run_to_list(tasks)]
        runner.close()
        runner.close()  # no-op
        # the next run forks a fresh pool transparently
        runner.cache = type(runner.cache)()  # fresh cache: force real solves
        assert [r.makespan for r in runner.run_to_list(tasks)] == first
        runner.close()

    def test_in_process_mode_has_no_pool(self):
        runner = BatchRunner(workers=1)
        runner.run_to_list(_fanout_tasks(1, 2)[0])
        assert runner._pool is None
        runner.close()  # accepted no-op
