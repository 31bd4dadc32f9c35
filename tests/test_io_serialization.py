"""Tests for :mod:`repro.io` — lossless JSON round trips."""

import copy
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidInstanceError
from repro.graphs import generators
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import BlockGraph, CompleteMultipartiteGraph
from repro.io import serialization
from repro.io import (
    graph_from_dict,
    graph_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    save_json,
    load_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.random_graphs.gilbert import gnnp
from repro.scheduling.instance import UniformInstance, UnrelatedInstance
from repro.scheduling.schedule import Schedule

F = Fraction


class TestGraphRoundTrip:
    def test_simple(self):
        g = BipartiteGraph(4, [(0, 1), (2, 3)])
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_empty(self):
        g = generators.empty_graph(3)
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_zero_vertices(self):
        g = BipartiteGraph(0)
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_side_witness_preserved(self):
        g = BipartiteGraph.from_parts(2, 2, [(0, 0)])
        restored = graph_from_dict(graph_to_dict(g))
        assert restored.side == g.side

    def test_json_serialisable(self):
        g = gnnp(10, 0.2, seed=1)
        text = json.dumps(graph_to_dict(g))
        assert graph_from_dict(json.loads(text)) == g

    def test_rejects_wrong_kind(self):
        data = graph_to_dict(BipartiteGraph(1))
        data["kind"] = "schedule"
        with pytest.raises(InvalidInstanceError):
            graph_from_dict(data)

    def test_rejects_future_format(self):
        data = graph_to_dict(BipartiteGraph(1))
        data["format"] = "repro/v99"
        with pytest.raises(InvalidInstanceError):
            graph_from_dict(data)


class TestInstanceRoundTrip:
    def test_uniform(self):
        g = generators.crown(3)
        inst = UniformInstance(g, [3, 1, 4, 1, 5, 9], [F(3), F(3, 2), F(1)])
        restored = instance_from_dict(instance_to_dict(inst))
        assert isinstance(restored, UniformInstance)
        assert restored.p == inst.p
        assert restored.speeds == inst.speeds
        assert restored.graph == inst.graph

    def test_uniform_exact_fractions(self):
        g = generators.empty_graph(1)
        inst = UniformInstance(g, [1], [F(1, 1_000_000_007)])
        restored = instance_from_dict(instance_to_dict(inst))
        assert restored.speeds == (F(1, 1_000_000_007),)

    def test_unrelated_with_forbidden(self):
        g = BipartiteGraph(2, [(0, 1)])
        inst = UnrelatedInstance(g, [[F(1, 3), None], [None, F(7, 2)]])
        restored = instance_from_dict(instance_to_dict(inst))
        assert isinstance(restored, UnrelatedInstance)
        assert restored.times == inst.times

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"kind": "mystery"})

    def test_non_dict_rejected(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict("not a dict")


def _wire(instance):
    """An instance payload as a client sends it: through JSON text."""
    return json.loads(json.dumps(instance_to_dict(instance)))


_PAYLOADS = {
    "q": _wire(UniformInstance(generators.matching_graph(2), [3, 1, 4, 2], [F(2), F(1)])),
    "q-eligible": _wire(
        UniformInstance(
            generators.matching_graph(2), [3, 1, 4, 2], [F(2), F(1)],
            eligible=[[0], None, None, [1]],
        )
    ),
    "r": _wire(
        UnrelatedInstance(generators.matching_graph(2), [[1, 2, 3, 4], [F(1, 2), 2, 3, 1]])
    ),
    "multipartite": _wire(
        UniformInstance(CompleteMultipartiteGraph(4, [[0, 1], [2, 3]]), [1, 1, 1, 1], [F(1)])
    ),
    "block": _wire(UniformInstance(BlockGraph(4, [[0, 1], [2, 3]]), [1, 1, 1, 1], [F(1)])),
}

#: (payload, path, value): each puts a value the decoder used to coerce
#: (or a job count it used to allocate for) at ``path``
_MUTATIONS = [
    ("q", ("p", 0), 5.9),
    ("q", ("p", 1), True),
    ("q", ("p", 2), "4"),
    ("q", ("graph", "n"), 4.7),
    ("q", ("graph", "n"), True),
    ("q", ("graph", "edges", 0), [0.9, 2.2]),
    ("q", ("graph", "edges", 0, 1), "1"),
    ("q", ("graph", "side"), [0.5, 0, 1, True]),
    ("q", ("graph", "side", 3), True),
    ("q", ("speeds", 0), True),
    ("q", ("speeds", 0), [2]),
    ("q-eligible", ("eligible", 0), [0.0]),
    ("q-eligible", ("eligible", 3), ["1"]),
    ("r", ("times", 0, 0), True),
    ("r", ("times", 1, 2), {"num": 3}),
    ("r", ("graph", "n"), 10**9),
    ("r", ("times",), []),
    ("multipartite", ("graph", "parts", 0, 0), 0.0),
    ("block", ("graph", "blocks", 1, 1), False),
]


class TestStrictDecode:
    @pytest.mark.parametrize(
        "name, path, value",
        _MUTATIONS,
        ids=[f"{name}-{'.'.join(map(str, path))}-{value!r}"[:60] for name, path, value in _MUTATIONS],
    )
    def test_refused(self, name, path, value):
        payload = copy.deepcopy(_PAYLOADS[name])
        instance_from_dict(payload)  # the unmutated payload decodes
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(payload)

    def test_declared_job_count_checked_before_the_graph_is_built(self):
        payload = copy.deepcopy(_PAYLOADS["q"])
        payload["graph"]["n"] = 10**9
        start = time.perf_counter()
        message = "4 processing requirements for 1000000000 jobs"
        with pytest.raises(InvalidInstanceError, match=message):
            instance_from_dict(payload)
        assert time.perf_counter() - start < 1.0

    def test_json_numbers_read_as_the_constructors_read_them(self):
        payload = copy.deepcopy(_PAYLOADS["q"])
        payload["speeds"] = [0.1, 0.1]
        constructed = UniformInstance(generators.matching_graph(2), [3, 1, 4, 2], [0.1, 0.1])
        assert instance_from_dict(payload).speeds == constructed.speeds == (F(1, 10), F(1, 10))
        payload = copy.deepcopy(_PAYLOADS["r"])
        payload["times"][0] = [2.5, 1, None, "3/4"]
        assert instance_from_dict(payload).times[0] == (F(5, 2), F(1), None, F(3, 4))


#: (where, value, the message that payload has always been refused with)
_TIME_REFUSALS = [
    ((0, 0), True, "malformed payload: 'times' must not be booleans"),
    ((0, 1), -3, "times[0][1] must be non-negative, got -3"),
    ((0, 1), "-3/4", "times[0][1] must be non-negative, got -3/4"),
    ((1, 1), -0.5, "times[1][1] must be non-negative, got -0.5"),
    ((0, 2), "3/0",
     "malformed 'unrelated_instance' instance payload: ZeroDivisionError('Fraction(3, 0)')"),
    ((1, 3), "abc",
     "malformed 'unrelated_instance' instance payload: "
     "ValueError(\"Invalid literal for Fraction: 'abc'\")"),
    ((0, 0), "1,2",
     "malformed 'unrelated_instance' instance payload: "
     "ValueError(\"Invalid literal for Fraction: '1,2'\")"),
]

#: strings only Fraction reads, still read as it reads them
_TIME_SPELLINGS = [
    ("1e3", F(1000)),
    ("2.5e-1", F(1, 4)),
    (" 3/4 ", F(3, 4)),
    ("\u0663/\u0664", F(3, 4)),  # Arabic-Indic digits
    ("+5", F(5)),
    ("50/4", F(25, 2)),
    ("7", F(7)),
    (0.1, F(1, 10)),
]


class TestUnrelatedWireTimes:
    def _r_payload(self):
        return copy.deepcopy(_PAYLOADS["r"])

    @pytest.mark.parametrize("at, value, message", _TIME_REFUSALS)
    def test_refusals_keep_their_messages(self, at, value, message):
        payload = self._r_payload()
        payload["times"][at[0]][at[1]] = value
        with pytest.raises(InvalidInstanceError) as refused:
            instance_from_dict(payload)
        assert str(refused.value) == message

    def test_short_row_and_job_forbidden_everywhere_refused(self):
        payload = self._r_payload()
        payload["times"][1].pop()
        with pytest.raises(InvalidInstanceError, match=r"^times\[1\] has 3 entries for 4 jobs$"):
            instance_from_dict(payload)
        payload = self._r_payload()
        payload["times"][0][2] = payload["times"][1][2] = None
        with pytest.raises(InvalidInstanceError, match="^job 2 is forbidden on every machine$"):
            instance_from_dict(payload)

    @pytest.mark.parametrize("value, expected", _TIME_SPELLINGS)
    def test_other_spellings_read_as_fraction_reads_them(self, value, expected):
        payload = self._r_payload()
        payload["times"][0][0] = value
        decoded = instance_from_dict(payload)
        assert decoded.times[0] == (expected, F(2), F(3), F(4))
        graph = graph_from_dict(payload["graph"])
        constructed = UnrelatedInstance(
            graph, [[F(t) if type(t) is str else t for t in row] for row in payload["times"]]
        )
        assert (decoded.scale, decoded.ticks) == (constructed.scale, constructed.ticks)

    def test_num_den_strings_build_no_fraction(self):
        payload = self._r_payload()
        payload["times"][0] = ["1/1", "0/5", "9/6", "12/1"]
        decoded = instance_from_dict(payload)
        assert decoded._times is None  # the Fraction view is not built
        assert (decoded.scale, decoded.ticks) == (2, ((2, 0, 3, 24), (1, 4, 6, 2)))
        payload["times"][0][0] = 1  # an integer: read through the constructor
        constructed = instance_from_dict(payload)
        assert constructed._times is not None
        assert (constructed.scale, constructed.ticks) == (decoded.scale, decoded.ticks)

    def test_unreduced_prime_denominators_decode_at_scale_one(self):
        """``"0/p"`` and ``"p/p"`` over many distinct primes are zeros and
        ones: the decoder builds no grid of the primes' product."""
        primes = [p for p in range(3, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
        assert math.prod(primes).bit_length() > serialization._WIRE_SCALE_BITS
        n = len(primes)
        times = [[f"0/{p}" for p in primes], [f"{p}/{p}" for p in primes]]
        assert serialization._wire_ticks(times) is None
        decoded = instance_from_dict({
            "format": "repro/v1", "kind": "unrelated_instance",
            "graph": graph_to_dict(generators.empty_graph(n)), "times": times,
        })
        assert (decoded.scale, decoded.ticks) == (1, ((0,) * n, (1,) * n))


#: one wire time: a JSON integer (zero included), a ``"num/den"`` string
#: that need not be reduced, bare digits, or a JSON float
_WIRE_TIMES = {
    "ints": st.integers(0, 60),
    "strings": st.one_of(
        st.tuples(st.integers(0, 60), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.integers(0, 60).map(str),
    ),
}
_WIRE_TIMES["mixed"] = st.one_of(
    _WIRE_TIMES["ints"], _WIRE_TIMES["strings"], st.sampled_from([0.0, 0.1, 0.25, 2.5, 7.0])
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 4))
def test_property_unrelated_round_trip(data, n, m):
    rows = [
        data.draw(st.lists(
            st.one_of(st.none(), _WIRE_TIMES[data.draw(st.sampled_from(sorted(_WIRE_TIMES)))]),
            min_size=n, max_size=n,
        ))
        for _ in range(m)
    ]
    for j in range(n):  # every job allowed somewhere
        if all(row[j] is None for row in rows):
            rows[0][j] = j
    graph = generators.empty_graph(n)
    payload = json.loads(json.dumps(
        {"format": "repro/v1", "kind": "unrelated_instance",
         "graph": graph_to_dict(graph), "times": rows}
    ))
    decoded = instance_from_dict(payload)
    times = tuple(
        tuple(None if t is None else F(str(t)) if type(t) is float else F(t) for t in row)
        for row in rows
    )
    assert decoded.times == times
    assert all(
        F(t, decoded.scale) == f
        for trow, frow in zip(decoded.ticks, times)
        for t, f in zip(trow, frow) if t is not None
    )
    assert math.gcd(decoded.scale, *(t for row in decoded.ticks for t in row if t is not None)) == 1
    again = instance_from_dict(json.loads(json.dumps(instance_to_dict(decoded))))
    assert (again.scale, again.ticks, again.times) == (decoded.scale, decoded.ticks, times)


class TestScheduleRoundTrip:
    def test_feasible_schedule(self):
        g = BipartiteGraph(2, [(0, 1)])
        inst = UniformInstance(g, [2, 3], [F(2), F(1)])
        schedule = Schedule(inst, [0, 1])
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.assignment == schedule.assignment
        assert restored.makespan == schedule.makespan

    def test_infeasible_schedule_survives(self):
        g = BipartiteGraph(2, [(0, 1)])
        inst = UniformInstance(g, [2, 3], [F(2), F(1)])
        bad = Schedule(inst, [0, 0], check=False)
        data = schedule_to_dict(bad)
        assert data["feasible"] is False
        restored = schedule_from_dict(data)
        assert not restored.is_feasible()

    def test_check_flag_enforces(self):
        g = BipartiteGraph(2, [(0, 1)])
        inst = UniformInstance(g, [2, 3], [F(2), F(1)])
        data = schedule_to_dict(Schedule(inst, [0, 0], check=False))
        from repro.exceptions import InvalidScheduleError

        with pytest.raises(InvalidScheduleError):
            schedule_from_dict(data, check=True)


class TestFileHelpers:
    def test_save_and_load_instance(self, tmp_path):
        g = gnnp(6, 0.3, seed=7)
        inst = UniformInstance(g, [1] * g.n, [F(2), F(1)])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        restored = load_instance(path)
        assert restored.graph == inst.graph
        assert restored.speeds == inst.speeds

    def test_save_json_returns_path(self, tmp_path):
        p = save_json({"format": "repro/v1", "kind": "graph", "n": 0,
                       "side": [], "edges": []}, tmp_path / "g.json")
        assert p.exists()
        assert load_json(p)["kind"] == "graph"


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 15),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 999),
)
def test_property_graph_round_trip(n, p, seed):
    g = gnnp(max(n, 1), p, seed=seed)
    assert graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))) == g


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=8),
    num=st.integers(1, 50),
    den=st.integers(1, 50),
)
def test_property_uniform_round_trip(sizes, num, den):
    g = generators.empty_graph(len(sizes))
    inst = UniformInstance(g, sizes, [F(num, den)])
    restored = instance_from_dict(instance_to_dict(inst))
    assert restored.p == tuple(sizes)
    assert restored.speeds == (F(num, den),)
