"""Tests for :mod:`repro.engine.service` — the persistent serving layer."""

import io
import json
from fractions import Fraction

from repro.engine import EngineService, SERVE_FORMAT
from repro.graphs import generators
from repro.io import instance_to_dict
from repro.runtime import ShardedResultCache
from repro.scheduling.instance import UnrelatedInstance, unit_uniform_instance

F = Fraction


def _payload():
    inst = unit_uniform_instance(generators.crown(4), [F(3), F(1)])
    return instance_to_dict(inst)


def _solve_request(request_id=1, **extra):
    return {"op": "solve", "id": request_id, "instance": _payload(), **extra}


class TestSolveRequests:
    def test_fresh_solve(self):
        service = EngineService()
        response = service.handle_request(_solve_request())
        assert response["format"] == SERVE_FORMAT
        assert response["ok"] and response["id"] == 1
        assert response["chosen"] == "q2_unit_exact"
        assert response["cached"] is False
        assert Fraction(response["makespan"]) > 0
        assert len(response["assignment"]) == 8
        assert service.stats.solved == 1

    def test_repeat_served_from_cache_without_resolving(self, monkeypatch):
        """The acceptance criterion: an identical repeated instance is
        answered from the cache and no solver runs."""
        import repro.engine.service as service_module

        service = EngineService()
        first = service.handle_request(_solve_request(request_id=1))
        calls = []

        def exploding_solve(*args, **kwargs):  # pragma: no cover
            calls.append(args)
            raise AssertionError("cache miss: solver was invoked again")

        monkeypatch.setattr(service_module, "solve", exploding_solve)
        monkeypatch.setattr(service_module, "auto_choice", exploding_solve)
        second = service.handle_request(_solve_request(request_id=2))
        assert calls == []
        assert second["cached"] is True and second["id"] == 2
        assert second["makespan"] == first["makespan"]
        assert second["assignment"] == first["assignment"]
        assert service.stats.cached == 1

    def test_cache_persists_across_service_instances(self, tmp_path, monkeypatch):
        import repro.engine.service as service_module

        cache_dir = tmp_path / "serve-cache"
        EngineService(cache=cache_dir).handle_request(_solve_request())
        assert ShardedResultCache(cache_dir).shard_files()

        reborn = EngineService(cache=cache_dir)
        monkeypatch.setattr(
            service_module,
            "solve",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-solved")),
        )
        response = reborn.handle_request(_solve_request(request_id=9))
        assert response["cached"] is True
        # laziness: exactly one shard was parsed for this key
        assert len(reborn.cache.loaded_shards) == 1

    def test_named_algorithm_and_distinct_cache_keys(self):
        service = EngineService()
        auto = service.handle_request(_solve_request(request_id=1))
        named = service.handle_request(
            _solve_request(request_id=2, algorithm="sqrt_approx")
        )
        assert named["chosen"] == "sqrt_approx"
        assert named["key"] != auto["key"]
        assert service.stats.solved == 2

    def test_explain_and_portfolio_requests(self):
        service = EngineService()
        explained = service.handle_request(_solve_request(explain=True))
        assert explained["explain"]["chosen"] == "q2_unit_exact"
        assert any(
            not entry["applicable"] for entry in explained["explain"]["entries"]
        )
        raced = service.handle_request(_solve_request(request_id=2, portfolio=3))
        assert raced["ok"] and raced["algorithm"] == "portfolio:3"
        # the portfolio result caches under its own key
        repeat = service.handle_request(_solve_request(request_id=3, portfolio=3))
        assert repeat["cached"] is True

    def test_portfolio_zero_and_named_algorithm_rejected(self):
        """portfolio: 0 must error like every other k < 1, and a named
        algorithm alongside portfolio is refused (as on the CLI), never
        silently dropped."""
        service = EngineService()
        zero = service.handle_request(_solve_request(portfolio=0))
        assert zero["ok"] is False and ">= 1" in zero["error"]
        named = service.handle_request(
            _solve_request(portfolio=2, algorithm="greedy")
        )
        assert named["ok"] is False and "cannot honour" in named["error"]
        assert service.stats.errors == 2

    def test_explain_still_answered_on_cache_hits(self):
        service = EngineService()
        service.handle_request(_solve_request(request_id=1))
        cached = service.handle_request(_solve_request(request_id=2, explain=True))
        assert cached["cached"] is True
        assert cached["explain"]["chosen"] == "q2_unit_exact"

    def test_r2_with_forbidden_time_routes_past_algorithm_5(self):
        """R, m = 2 with a null time used to reach r2_fptas, whose
        Algorithm 3 reduction rejects forbidden pairs; auto now skips it
        and explains why."""
        payload = {
            "format": "repro/v1",
            "kind": "unrelated_instance",
            "graph": {
                "format": "repro/v1",
                "kind": "graph",
                "n": 3,
                "side": [0, 0, 1],
                "edges": [[0, 2]],
            },
            "times": [["1", None, "2"], ["3", "4", "5"]],
        }
        line = json.dumps(
            {"op": "solve", "id": 1, "instance": payload, "explain": True}
        )
        response = json.loads(EngineService().handle_line(line))
        assert response["ok"] is True, response.get("error")
        assert response["chosen"] == "r_color_split"
        assert Fraction(response["makespan"]) == 7
        why = {e["name"]: e["why"] for e in response["explain"]["entries"]}
        assert why["r2_fptas"] == "cannot honour forbidden job/machine pairs (null times)"
        assert why["r2_two_approx"] == why["r2_fptas"]


def _k11(kind, **numbers):
    graph = {
        "format": "repro/v1",
        "kind": "graph",
        "n": 2,
        "side": [0, 1],
        "edges": [[0, 1]],
    }
    return {"format": "repro/v1", "kind": kind, "graph": graph, **numbers}


class TestOutOfRangeNumbers:
    """Exact inputs far outside float range: bounded work, typed replies."""

    def _handle(self, payload, **extra):
        line = json.dumps({"op": "solve", "id": 1, "instance": payload, **extra})
        return json.loads(EngineService().handle_line(line))

    def test_huge_speed_ratio_is_answered_promptly(self):
        """complete_multipartite's jump points c / s stop at the job
        count; up to floor(s * hi) they would number ~1e400 here."""
        response = self._handle(
            _k11("uniform_instance", p=[1, 1], speeds=["1e400", "1"])
        )
        assert response["ok"] is True, response.get("error")
        assert response["chosen"] == "complete_multipartite"
        assert response["makespan"] == "1/1"

    def test_makespan_outside_float_range_has_a_null_float(self):
        times = [["1e400", "1e400"], ["1e400", "1e400"]]
        response = self._handle(_k11("unrelated_instance", times=times))
        assert response["ok"] is True, response.get("error")
        assert Fraction(response["makespan"]) == 10**400
        assert response["makespan_float"] is None

    def test_lst_outside_float_range_is_a_typed_error(self):
        times = [["1e400", "1e400"], ["1e400", "1e400"]]
        response = self._handle(
            _k11("unrelated_instance", times=times), algorithm="lst"
        )
        assert response["ok"] is False
        assert response["error"] == (
            "a processing time is outside float range; "
            "the LP cannot represent it"
        )

    def test_makespan_float_kept_inside_float_range(self):
        response = self._handle(
            _k11("unrelated_instance", times=[["3", "1"], ["2", "5"]])
        )
        assert response["ok"] is True
        assert response["makespan_float"] == float(Fraction(response["makespan"]))


class TestErrors:
    def test_malformed_line(self):
        service = EngineService()
        response = json.loads(service.handle_line("{not json"))
        assert response["ok"] is False and "malformed" in response["error"]
        assert service.stats.errors == 1

    def test_missing_instance(self):
        service = EngineService()
        response = service.handle_request({"op": "solve", "id": 4})
        assert response["ok"] is False and "instance" in response["error"]

    def test_unknown_algorithm_is_an_error_response(self):
        service = EngineService()
        response = service.handle_request(
            _solve_request(algorithm="quantum_annealing")
        )
        assert response["ok"] is False
        assert "unknown algorithm" in response["error"]
        assert service.stats.errors == 1

    def test_infeasible_instance_is_an_error_response(self):
        inst = unit_uniform_instance(generators.crown(3), [F(1)])
        service = EngineService()
        response = service.handle_request(
            {"op": "solve", "id": 5, "instance": instance_to_dict(inst)}
        )
        assert response["ok"] is False and "two machines" in response["error"]

    def test_foreign_cache_records_are_not_served(self):
        """A cache seeded with non-serve records under a serve key must
        not be echoed back as a response (schema safety)."""
        from repro.runtime import ResultCache
        from repro.runtime.cache import task_key

        cache = ResultCache(None)
        key = task_key(_payload(), "serve/auto")
        cache.put(key, {"kind": "batch_result", "key": key})
        service = EngineService(cache=cache)
        response = service.handle_request(_solve_request())
        # the poisoned slot surfaces loudly as a collision error before
        # any solve is attempted — never as a malformed "cached" response
        assert response["ok"] is False and "non-serve record" in response["error"]
        assert service.stats.cached == 0 and service.stats.solved == 0

    def test_malformed_payload_never_kills_the_server(self):
        """Non-ReproError defects (KeyError from a truncated payload,
        ValueError from a bad portfolio count) must come back as error
        responses, not crash the persistent loop."""
        service = EngineService()
        truncated = service.handle_request(
            {"op": "solve", "id": 7, "instance": {"kind": "uniform_instance"}}
        )
        assert truncated["ok"] is False and "graph" in truncated["error"]
        bad_k = service.handle_request(_solve_request(portfolio="three"))
        assert bad_k["ok"] is False and "ValueError" in bad_k["error"]
        assert service.stats.errors == 2
        # and the service still answers afterwards
        assert service.handle_request(_solve_request(request_id=8))["ok"]

    def test_unknown_op(self):
        service = EngineService()
        response = service.handle_request({"op": "dance", "id": 6})
        assert response["ok"] is False and "unknown op" in response["error"]

    def test_errors_never_kill_the_stream(self):
        service = EngineService()
        source = [
            "{broken",
            "",
            json.dumps(_solve_request(request_id=1)),
            json.dumps({"op": "stats", "id": 2}),
        ]
        sink = io.StringIO()
        stats = service.serve_stream(source, sink)
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert len(lines) == 3  # blank line skipped
        assert lines[0]["ok"] is False
        assert lines[1]["ok"] is True
        assert lines[2]["stats"]["errors"] == 1
        assert stats.requests == 3


class TestOps:
    def test_ping_and_stats(self):
        service = EngineService()
        assert service.handle_request({"op": "ping"})["ok"] is True
        stats = service.handle_request({"op": "stats", "id": 0})
        assert stats["stats"]["requests"] == 2

    def test_stats_surface_exposes_latency_and_serving_counters(self):
        service = EngineService()
        service.handle_request(_solve_request(request_id=1))
        service.handle_request(_solve_request(request_id=2))
        block = service.handle_request({"op": "stats"})["stats"]
        for key in ("coalesced", "rejected", "connections", "uptime_s", "qps"):
            assert key in block, key
        assert block["qps"] > 0
        latency = block["latency"]
        assert latency["count"] == 2  # the stats op itself is timed after
        assert latency["p50_ms"] is not None and latency["p50_ms"] >= 0
        assert latency["p99_ms"] >= latency["p50_ms"]
        assert latency["max_ms"] >= latency["p99_ms"]

    def test_latency_reservoir_percentiles_and_window(self):
        from repro.engine import LatencyReservoir

        reservoir = LatencyReservoir(window=4)
        for ms in (10, 20, 30, 40, 1000):  # 1000 pushes 10 out the window
            reservoir.observe(ms / 1000.0)
        assert reservoir.count == 5
        snap = reservoir.snapshot()
        assert snap["window"] == 4
        assert snap["p50_ms"] == 30.0
        assert snap["p99_ms"] == 1000.0
        assert snap["max_ms"] == 1000.0

    def test_unrelated_instance_served(self):
        inst = UnrelatedInstance(
            generators.matching_graph(2), [[2, 3, 1, 4], [5, 1, 2, 2]]
        )
        response = EngineService().handle_request(
            {"op": "solve", "id": 1, "instance": instance_to_dict(inst)}
        )
        assert response["ok"] and response["chosen"] == "r2_fptas"
