"""Tests for :mod:`repro.runtime` — the batch execution engine."""

from fractions import Fraction

import pytest

from repro.exceptions import InvalidInstanceError
from repro.graphs import generators
from repro.io import instance_to_dict, read_jsonl, save_instance
from repro.runtime import (
    BatchResult,
    BatchRunner,
    BatchTask,
    ResultCache,
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

    def test_worker_count_invariance(self):
        items = small_instances(8)
        sequential = BatchRunner(workers=1).run_to_list(items)
        parallel = BatchRunner(workers=2).run_to_list(items)
        key = lambda r: (r.index, r.name, r.key, r.chosen, r.makespan,
                         r.lower_bound, r.ratio, r.feasible, r.error)
        assert [key(r) for r in sequential] == [key(r) for r in parallel]

    def test_cached_rerun_is_deterministic(self, tmp_path):
        items = small_instances(6)
        cache_path = tmp_path / "cache.jsonl"
        first = BatchRunner(cache=cache_path).run_to_list(items)
        runner = BatchRunner(cache=cache_path)
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
        with pytest.raises(InvalidInstanceError):
            BatchRunner(chunk_jobs=0)


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


class TestPersistentPool:
    @pytest.mark.parametrize("persistent", [True, False])
    def test_results_invariant_under_pool_mode(self, persistent):
        reference = [
            [(r.name, r.makespan, r.chosen) for r in BatchRunner().run_to_list(ts)]
            for ts in _fanout_tasks(3, 3)
        ]
        with BatchRunner(workers=2, persistent_pool=persistent) as runner:
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
