"""Tests for :mod:`repro.engine.registry` — capabilities and plugins."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    ALGORITHMS,
    REGISTRY,
    AlgorithmRegistry,
    AlgorithmSpec,
    Capability,
    available_algorithms,
    register_algorithm,
    solve,
    unregister_algorithm,
)
from repro.exceptions import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    NotBipartiteError,
    ReproError,
)
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import BlockGraph, CompleteMultipartiteGraph, two_coloring
from repro.scheduling.instance import (
    UniformInstance,
    UnrelatedInstance,
    unit_uniform_instance,
)
from repro.scheduling.schedule import Schedule

F = Fraction


def _q2_unit():
    return unit_uniform_instance(generators.crown(3), [F(2), F(1)])


def _r2():
    return UnrelatedInstance(generators.matching_graph(1), [[2, 3], [5, 1]])


def _r2_forbidden():
    # job 1 cannot run on machine 0; jobs 0 and 2 conflict
    graph = BipartiteGraph(3, [(0, 2)], side=[0, 0, 1])
    return UnrelatedInstance(graph, [[1, None, 2], [3, 4, 5]])


@st.composite
def _two_colorable_graphs(draw):
    """A forest or star stored as a ``BlockGraph``, or ``K_{a,b}`` plus
    free vertices stored as a ``CompleteMultipartiteGraph``, on shuffled
    vertex ids."""
    kind = draw(st.sampled_from(["forest", "star", "join"]))
    if kind == "forest":
        n = draw(st.integers(0, 9))
        ids = draw(st.permutations(range(n)))
        # each vertex after the first hangs off an earlier one or roots a tree
        parents = [draw(st.integers(-1, v - 1)) for v in range(1, n)]
        edges = [(ids[p], ids[v]) for v, p in enumerate(parents, 1) if p >= 0]
        return BlockGraph(n, edges)
    if kind == "star":
        leaves, free = draw(st.integers(0, 7)), draw(st.integers(0, 2))
        ids = draw(st.permutations(range(leaves + 1 + free)))
        return BlockGraph(len(ids), [(ids[0], ids[i]) for i in range(1, leaves + 1)])
    a, b, free = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    ids = draw(st.permutations(range(a + b + free)))
    return CompleteMultipartiteGraph(len(ids), [ids[:a], ids[a : a + b]])


@st.composite
def _two_colorable_instances(draw):
    """``(graph, builds)``: each ``build(g)`` puts one set of job data on
    ``g``, for m = 1..4: Q with unit jobs, Q with weighted jobs, and R
    with some forbidden pairs."""
    graph = draw(_two_colorable_graphs())
    n = graph.n
    p = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    speed = st.sampled_from([F(1), F(3, 2), F(2), F(3)])
    if draw(st.booleans()):
        speeds = [F(1)] * 4
    else:
        speeds = sorted(draw(st.lists(speed, min_size=4, max_size=4)), reverse=True)
    allowed = st.sampled_from([1, 2, 3, 5, 8, 13])
    time = st.sampled_from([None, 1, 2, 3, 5, 8, 13]) if draw(st.booleans()) else allowed
    # machine 0 allows every job, so each prefix of the rows is an instance
    times = [draw(st.lists(allowed, min_size=n, max_size=n))]
    times += [draw(st.lists(time, min_size=n, max_size=n)) for _ in range(3)]
    builds = []
    for m in range(1, 5):
        builds.append(lambda g, m=m: UniformInstance(g, [1] * n, speeds[:m]))
        builds.append(lambda g, m=m: UniformInstance(g, p, speeds[:m]))
        builds.append(lambda g, m=m: UnrelatedInstance(g, times[:m]))
    return graph, builds


def _outcome(instance, name):
    """``solve``'s schedule as ``(assignment, makespan)``, or its typed
    error as ``(type, message)``."""
    try:
        schedule = solve(instance, algorithm=name)
    except ReproError as exc:
        return type(exc), str(exc)
    return schedule.assignment, schedule.makespan


class TestCapability:
    def test_default_matches_everything(self):
        cap = Capability()
        for inst in (_q2_unit(), _r2()):
            ok, reasons = cap.evaluate(inst)
            assert ok and reasons == ()

    def test_machine_kind(self):
        cap = Capability(machine_kind="unrelated")
        assert cap.check(_r2())
        ok, reasons = cap.evaluate(_q2_unit())
        assert not ok
        assert any("unrelated" in r for r in reasons)

    def test_machine_count_bounds(self):
        cap = Capability(min_machines=3)
        ok, reasons = cap.evaluate(_q2_unit())
        assert not ok and any("m >= 3" in r for r in reasons)
        cap = Capability(max_machines=1)
        ok, reasons = cap.evaluate(_q2_unit())
        assert not ok and any("m <= 1" in r for r in reasons)

    def test_unit_jobs_and_identical(self):
        unit = unit_uniform_instance(generators.crown(3), [F(2), F(1)])
        cap = Capability(machine_kind="uniform", unit_jobs=True)
        assert cap.check(unit)  # unit jobs by construction
        from repro.scheduling.instance import UniformInstance

        heavy = UniformInstance(generators.crown(3), [2, 1, 1, 1, 1, 1], [F(2), F(1)])
        assert not cap.check(heavy)
        cap = Capability(identical=True)
        assert not cap.check(heavy)  # speeds 2,1 differ

    def test_unit_jobs_requires_uniform_kind(self):
        """unit_jobs without machine_kind='uniform' would match nothing
        ever; it must be rejected at construction, not dispatch time."""
        with pytest.raises(InvalidInstanceError, match="unit_jobs"):
            Capability(unit_jobs=True)
        with pytest.raises(InvalidInstanceError, match="unit_jobs"):
            Capability(machine_kind="unrelated", unit_jobs=True)

    def test_graph_classes(self):
        edged = _q2_unit()
        empty = unit_uniform_instance(generators.empty_graph(4), [F(1), F(1)])
        kab = unit_uniform_instance(
            generators.complete_bipartite(2, 2), [F(1), F(1)]
        )
        assert not Capability(graph="edgeless").check(edged)
        assert Capability(graph="edgeless").check(empty)
        assert Capability(graph="complete_bipartite").check(kab)
        # edgeless graphs are K_{a,b}-free-plus-isolated-vertices too
        assert Capability(graph="complete_bipartite").check(empty)
        assert not Capability(graph="complete_bipartite").check(edged)

    def test_all_failed_requirements_reported(self):
        cap = Capability(machine_kind="unrelated", min_machines=3)
        ok, reasons = cap.evaluate(_q2_unit())
        assert not ok and len(reasons) == 2

    def test_check_stops_before_the_graph_scan(self, monkeypatch):
        """check returns at the first unmet requirement: a non-unit
        instance fails on unit jobs before the K_{a,b} scan runs, while
        evaluate goes on to collect every reason."""
        from repro.engine import registry
        from repro.scheduling.instance import UniformInstance

        def scan(graph):
            raise AssertionError("graph predicate called")

        monkeypatch.setattr(registry, "complete_bipartite_parts_with_free", scan)
        cap = Capability(
            machine_kind="uniform", graph="complete_bipartite", unit_jobs=True
        )
        heavy = UniformInstance(
            generators.complete_bipartite(2, 2), [2, 1, 1, 1], [F(2), F(1)]
        )
        assert cap.check(heavy) is False
        with pytest.raises(AssertionError, match="graph predicate called"):
            cap.evaluate(heavy)

    def test_invalid_fields_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Capability(machine_kind="quantum")
        with pytest.raises(InvalidInstanceError):
            Capability(graph="hypercube")
        with pytest.raises(InvalidInstanceError):
            Capability(min_machines=0)
        with pytest.raises(InvalidInstanceError):
            Capability(min_machines=3, max_machines=2)

    def test_requirements_human_readable(self):
        cap = Capability(
            machine_kind="uniform", unit_jobs=True, min_machines=2, max_machines=2
        )
        text = " / ".join(cap.requirements())
        assert "uniform" in text and "unit jobs" in text and "m = 2" in text

    def test_forbidden_pairs_need_eligibility_support(self):
        """R forbidden (None) times count as eligibility, like Q masks."""
        pinned = _r2_forbidden()
        assert pinned.has_eligibility and not _r2().has_eligibility
        ok, reasons = Capability(machine_kind="unrelated").evaluate(pinned)
        assert not ok
        assert reasons == ("cannot honour forbidden job/machine pairs (null times)",)
        assert Capability(machine_kind="unrelated", supports_eligibility=True).check(
            pinned
        )
        assert not REGISTRY["r2_fptas"].applies(pinned)
        assert not REGISTRY["r2_two_approx"].applies(pinned)


@pytest.mark.parametrize("name", ["r_color_split", "lst"])
def test_r_methods_marked_for_forbidden_pairs_honour_them(name):
    """The R methods that declare eligibility support never place a job
    on a machine where its time is forbidden."""
    rng = random.Random(7)
    assert REGISTRY[name].capability.supports_eligibility
    solved = 0
    for _ in range(20):
        m = rng.randint(2, 4)
        # lst is graph-blind, so its schedules are only feasible edgeless
        edges = [] if name == "lst" else [(0, 4), (1, 5), (2, 4)]
        graph = BipartiteGraph.from_parts(4, 4, [(u, v - 4) for u, v in edges])
        times = [[rng.randint(1, 9) for _ in range(8)] for _ in range(m)]
        for j in range(8):
            for i in rng.sample(range(m), m - 1):
                if rng.random() < 0.15:
                    times[i][j] = None
        instance = UnrelatedInstance(graph, times)
        try:
            schedule = solve(instance, algorithm=name)
        except InfeasibleInstanceError:
            continue  # the color split can find no machine pair
        solved += 1
        assert all(times[i][j] is not None for j, i in enumerate(schedule.assignment))
        assert schedule.is_feasible()
    assert solved >= 10


class TestAlgorithmSpec:
    def test_applies_derived_from_capability(self):
        spec = AlgorithmSpec(
            name="toy",
            guarantee="none",
            anchor="test",
            run=lambda inst: None,
            capability=Capability(machine_kind="unrelated"),
        )
        assert spec.applies(_r2())
        assert not spec.applies(_q2_unit())

    def test_run_required(self):
        with pytest.raises(InvalidInstanceError, match="run callable"):
            AlgorithmSpec(name="broken", guarantee="none", anchor="test")

    def test_every_builtin_spec_is_capability_backed(self):
        for spec in ALGORITHMS.values():
            assert spec.capability is not None, spec.name
            assert callable(spec.applies) and callable(spec.run)


class TestRegistry:
    def test_algorithms_is_the_live_registry(self):
        assert ALGORITHMS is REGISTRY
        assert len(ALGORITHMS) == len(available_algorithms())
        assert "sqrt_approx" in ALGORITHMS
        assert ALGORITHMS["sqrt_approx"].name == "sqrt_approx"

    def test_duplicate_registration_rejected(self):
        spec = ALGORITHMS["greedy"]
        with pytest.raises(InvalidInstanceError, match="already registered"):
            REGISTRY.register(spec)
        # replace=True round-trips to the same spec
        assert REGISTRY.register(spec, replace=True) is spec

    def test_unknown_unregister_rejected(self):
        with pytest.raises(InvalidInstanceError, match="not registered"):
            unregister_algorithm("no_such_algorithm")

    def test_plugin_lifecycle(self):
        """A registered plugin is dispatchable, listable, and solvable
        through every public route."""

        def run_toy(instance):
            return Schedule(instance, [j % instance.m for j in range(instance.n)])

        spec = AlgorithmSpec(
            name="toy_round_robin",
            guarantee="none (test plugin)",
            anchor="test fixture",
            run=run_toy,
            capability=Capability(machine_kind="uniform", graph="edgeless"),
        )
        register_algorithm(spec)
        try:
            assert "toy_round_robin" in ALGORITHMS
            inst = unit_uniform_instance(
                generators.empty_graph(4), [F(1), F(1)]
            )
            assert "toy_round_robin" in {
                s.name for s in available_algorithms(inst)
            }
            schedule = solve(inst, algorithm="toy_round_robin")
            assert schedule.is_feasible()
            # preconditions still enforced for plugins
            edged = _q2_unit()
            with pytest.raises(InvalidInstanceError, match="does not apply"):
                solve(edged, algorithm="toy_round_robin")
        finally:
            unregister_algorithm("toy_round_robin")
        assert "toy_round_robin" not in ALGORITHMS

    def test_isolated_registry_does_not_touch_global(self):
        registry = AlgorithmRegistry()
        registry.register(
            AlgorithmSpec(
                name="only_here",
                guarantee="none",
                anchor="test",
                run=lambda inst: None,
            )
        )
        assert "only_here" in registry
        assert "only_here" not in ALGORITHMS


class TestGraphRepresentationCoercion:
    """Bipartite-gated algorithms run on *structurally* bipartite graphs
    stored in any representation, as they are stored: the gate is
    :func:`is_bipartite_structure`, and the implementations read
    adjacency and ``graph.side``, which every 2-colorable graph has."""

    def _forest_block_instance(self):
        # a path 0-1-2 plus an edge 3-4 plus isolated 5,6: a forest, so
        # 2-colorable, but stored as a BlockGraph (edges are the blocks)
        graph = BlockGraph(7, [(0, 1), (1, 2), (3, 4)])
        return UniformInstance(
            graph, [3, 1, 4, 1, 5, 2, 6], sorted([F(2), F(1), F(1)], reverse=True)
        )

    def test_sqrt_approx_runs_on_block_graph(self):
        inst = self._forest_block_instance()
        schedule = solve(inst, algorithm="sqrt_approx")
        assert schedule.instance is inst
        assert schedule.is_feasible()

    @settings(max_examples=100, deadline=None)
    @given(case=_two_colorable_instances())
    def test_bipartite_methods_match_the_bipartite_graph_run(self, case):
        graph, builds = case
        native = BipartiteGraph(graph.n, graph.edges(), side=two_coloring(graph))
        names = [
            spec.name
            for spec in REGISTRY.specs()
            if spec.capability.graph in ("bipartite", "complete_bipartite")
        ]
        assert len(names) >= 11
        for build in builds:
            for name in names:
                got = _outcome(build(graph), name)
                assert got == _outcome(build(native), name), (name, build(graph))

    def test_side_rejects_odd_cycle(self):
        triangle = BlockGraph(3, [(0, 1, 2)])
        with pytest.raises(NotBipartiteError, match="odd cycle"):
            triangle.side
        with pytest.raises(NotBipartiteError, match="odd cycle"):
            triangle.vertices_on_side(0)
        with pytest.raises(NotBipartiteError, match="odd cycle"):
            BipartiteGraph(3, [(0, 1), (1, 2), (0, 2)])

    def test_bipartite_graph_side_is_its_declared_witness(self):
        # the canonical 2-coloring puts each component's smallest vertex
        # on side 0; this witness puts every one of them on side 1
        edges = [(0, 1), (1, 2), (3, 4)]
        declared = (1, 0, 1, 1, 0, 1)
        graph = BipartiteGraph(6, edges, side=declared)
        assert two_coloring(graph) == (0, 1, 0, 0, 1, 0)
        assert graph.side == declared
        assert graph.vertices_on_side(0) == [1, 4]
        assert graph.parts() == ((1, 4), (0, 2, 3, 5))

    def test_side_of_other_representations_is_their_two_coloring(self):
        forest = BlockGraph(7, [(2, 1), (1, 0), (4, 3)])
        assert forest.side == two_coloring(forest) == (0, 1, 0, 0, 1, 0, 0)
        assert forest.vertices_on_side(1) == [1, 4]
        # K_{2,2} on shuffled ids plus a free vertex
        join = CompleteMultipartiteGraph(5, [(3, 1), (4, 0)])
        assert join.side == two_coloring(join) == (0, 1, 0, 1, 0)
