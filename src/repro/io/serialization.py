"""JSON (de)serialisation for the package's core objects.

Schema (``"format": "repro/v1"``):

* graph — ``{"kind": "graph", "n": int, "side": [0/1...],
  "edges": [[u, v], ...]}``
* uniform instance — ``{"kind": "uniform_instance", "graph": ...,
  "p": [int...], "speeds": ["num/den"...]}``
* unrelated instance — ``{"kind": "unrelated_instance", "graph": ...,
  "times": [["num/den" | null ...] ...]}``
* schedule — ``{"kind": "schedule", "instance": ...,
  "assignment": [int...]}``

Format ``"repro/v2"`` is the conflict-graph superset of v1.  Payloads
gain a ``"graph_kind"`` tag on graphs (``"bipartite"`` |
``"complete_multipartite"`` + ``"parts"`` | ``"block"`` + ``"blocks"``)
and an optional ``"eligible"`` field on uniform instances (per job: a
list of allowed machine indices, or ``null`` for "any machine").  A
missing ``graph_kind`` means bipartite, so **every existing v1 file
loads unchanged**, and bipartite objects still *serialise* as
byte-identical v1 — content-hash caches keyed on serialised bytes keep
hitting across the refactor.  Only payloads that need the new
vocabulary (non-bipartite graphs, eligibility masks) are written as v2.

Fractions are stored as strings so exact values survive the round trip;
this is what makes saved hardness-reduction instances (speeds like
``1/(k n)``) reloadable without loss.

Decoding never coerces: counts, ``p``, sides, edges, parts, blocks and
eligibility must be JSON integers; a speed or time is a ``"num/den"``
string or a JSON number read as the constructors read it (not ``true``).

An unrelated instance stores its times as integer ticks of ``1 /
scale`` (:attr:`~repro.scheduling.instance.UnrelatedInstance.ticks`).
The decoder reads rows of ASCII ``"num/den"`` strings (what the encoder
writes for allowed pairs) straight to ticks, a row at a time, and hands
them to :meth:`~repro.scheduling.instance.UnrelatedInstance.from_ticks`.
A payload with any other entry (an integer, a float, a null, bare
digits, a sign, spaces, an exponent, non-ASCII digits, ``"3/0"``, a
boolean), or whose written denominators have an lcm past
``_WIRE_SCALE_BITS`` bits, is read entry by entry through the
constructor, so both routes accept, value and refuse the same payloads
alike.  The encoder writes each ``t / scale`` reduced, byte for
byte as :func:`frac_str` writes it.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import chain
from operator import mul
from pathlib import Path
from typing import Any

from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.conflict import (
    BlockGraph,
    CompleteMultipartiteGraph,
    ConflictGraph,
)
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
)
from repro.scheduling.schedule import Schedule

__all__ = [
    "frac_str",
    "FORMAT_VERSION",
    "FORMAT_VERSION_V2",
    "FORMAT_VERSIONS",
    "graph_to_dict",
    "graph_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_json",
    "load_json",
    "save_instance",
    "load_instance",
]

FORMAT_VERSION = "repro/v1"
FORMAT_VERSION_V2 = "repro/v2"
FORMAT_VERSIONS = (FORMAT_VERSION, FORMAT_VERSION_V2)


def frac_str(value: Fraction | None) -> str | None:
    """Loss-free ``"num/den"`` wire form of a rational (``None`` passes).

    The one formatter every record format shares — schedules here, batch
    results, certificates, and the serve layer must stay byte-compatible
    with one another.
    """
    return None if value is None else f"{value.numerator}/{value.denominator}"


# historical private name (internal callers predate the public export)
_frac_str = frac_str


def _check_header(data: dict[str, Any], kind: str) -> None:
    if not isinstance(data, dict):
        raise InvalidInstanceError(f"expected a JSON object for {kind}")
    fmt = data.get("format", FORMAT_VERSION)
    if fmt not in FORMAT_VERSIONS:
        supported = " or ".join(repr(f) for f in FORMAT_VERSIONS)
        raise InvalidInstanceError(
            f"unsupported format {fmt!r} (this build reads {supported})"
        )
    if data.get("kind") != kind:
        raise InvalidInstanceError(
            f"expected kind {kind!r}, found {data.get('kind')!r}"
        )


def _json_ints(values: Any, field: str) -> list[int]:
    """``values`` as a list of JSON integers (``bool``, ``float``, ``str`` refused)."""
    out = list(values)
    if not set(map(type, out)) <= {int}:
        bad = next(v for v in out if type(v) is not int)
        raise InvalidInstanceError(f"malformed payload: {field} must be JSON integers, got {bad!r}")
    return out


def _json_rationals(values: Any, field: str) -> list[Any]:
    """Speeds or times: ``"num/den"`` strings are read here, JSON numbers by
    the constructors' ``as_fraction`` (``0.1`` is ``1/10``), ``true`` never."""
    out = [Fraction(v) if type(v) is str else v for v in values]
    if bool in set(map(type, out)):
        raise InvalidInstanceError(f"malformed payload: {field} must not be booleans")
    return out


#: a row of wire times joined by ",": ASCII ``digits/digits`` entries, as
#: :func:`instance_to_dict` writes them
_WIRE_ROW = re.compile(r"[0-9]+/[0-9]+(?:,[0-9]+/[0-9]+)*")

#: the largest grid, in bits, the decoder builds from the denominators as
#: written.  Past it the payload is read through the constructor, which
#: reduces each entry first: ``"0/p"`` for many distinct primes ``p`` is
#: all zeros, yet the lcm of the written denominators is their product.
_WIRE_SCALE_BITS = 512


def _wire_ticks(times: Any) -> tuple[int, list[list[int]]] | None:
    """The wire times as ``(scale, ticks)`` on one integer grid, read a row at a time.

    Only rows of ASCII ``"num/den"`` strings are read here; ``scale`` is
    the lcm of the denominators as written, and
    ``UnrelatedInstance.from_ticks`` reduces it to the minimal one.  Any
    other payload, or a grid past ``_WIRE_SCALE_BITS``, gives ``None``,
    and the caller reads it the way the constructor reads it, so both
    paths accept, refuse and value the same payloads.
    """
    rows = []
    for row in times:
        try:
            joined = ",".join(row)
        except TypeError:  # a number, a boolean or a null
            return None
        if _WIRE_ROW.fullmatch(joined) is None:
            return None
        flat = joined.replace("/", ",").split(",")
        if len(flat) != 2 * len(row):  # some entry held a ","
            return None
        rows.append(flat)
    dens = set(chain.from_iterable(flat[1::2] for flat in rows))
    scale = 1
    try:
        for den in map(int, dens):
            scale = math.lcm(scale, den)
            if scale == 0 or scale.bit_length() > _WIRE_SCALE_BITS:  # "3/0", or too large
                return None
        factor = {den: scale // int(den) for den in dens}
        return scale, [
            list(map(mul, map(int, flat[0::2]), map(factor.__getitem__, flat[1::2])))
            for flat in rows
        ]
    except ValueError:  # past the int string-length limit
        return None


def _ticks_to_strs(row: tuple[int | None, ...], scale: int) -> list[str | None]:
    """``frac_str`` of every ``t / scale`` in ``row``, with no Fraction built."""
    return [
        None if t is None else f"{t // (g := math.gcd(t, scale))}/{scale // g}"
        for t in row
    ]


def _declared_n(graph: Any) -> int:
    """The vertex count a graph payload declares, read before the graph
    allocates one adjacency set per vertex (job data is checked against it)."""
    _check_header(graph, "graph")
    (n,) = _json_ints([graph.get("n")], "graph 'n'")
    return n


def graph_to_dict(graph: ConflictGraph) -> dict[str, Any]:
    """Serialise a conflict graph.

    Bipartite graphs emit the byte-identical v1 payload (witness
    included); other representations emit a v2 payload tagged with
    ``graph_kind``.
    """
    if isinstance(graph, BipartiteGraph):
        return {
            "format": FORMAT_VERSION,
            "kind": "graph",
            "n": graph.n,
            "side": list(graph.side),
            "edges": [[u, v] for u, v in graph.edges()],
        }
    if isinstance(graph, CompleteMultipartiteGraph):
        return {
            "format": FORMAT_VERSION_V2,
            "kind": "graph",
            "graph_kind": "complete_multipartite",
            "n": graph.n,
            "parts": [list(part) for part in graph.parts()],
        }
    if isinstance(graph, BlockGraph):
        return {
            "format": FORMAT_VERSION_V2,
            "kind": "graph",
            "graph_kind": "block",
            "n": graph.n,
            "blocks": [list(blk) for blk in graph.blocks()],
        }
    raise InvalidInstanceError(
        f"cannot serialise conflict-graph type {type(graph).__name__}"
    )


def graph_from_dict(data: dict[str, Any]) -> ConflictGraph:
    """Inverse of :func:`graph_to_dict`.

    A missing ``graph_kind`` means bipartite, so every pre-v2 payload
    loads unchanged.  Malformed payloads raise
    :exc:`~repro.exceptions.InvalidInstanceError`, never a bare
    ``KeyError``/``TypeError``.
    """
    n = _declared_n(data)
    graph_kind = data.get("graph_kind", "bipartite")
    try:
        if graph_kind == "bipartite":
            edges = [(u, v) for u, v in data["edges"]]
            _json_ints(chain.from_iterable(edges), "graph 'edges'")
            side = data.get("side")
            return BipartiteGraph(
                n, edges, side=None if side is None else _json_ints(side, "graph 'side'")
            )
        if graph_kind == "complete_multipartite":
            return CompleteMultipartiteGraph(
                n, [_json_ints(part, "graph 'parts'") for part in data["parts"]]
            )
        if graph_kind == "block":
            return BlockGraph(
                n, [_json_ints(blk, "graph 'blocks'") for blk in data["blocks"]]
            )
    except InvalidInstanceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(
            f"malformed {graph_kind!r} graph payload: {exc!r}"
        ) from exc
    known = "bipartite, complete_multipartite, block"
    raise InvalidInstanceError(
        f"unknown graph_kind {graph_kind!r}; known: {known}"
    )


def _eligible_to_lists(
    instance: UniformInstance,
) -> list[list[int] | None]:
    if instance.eligible is None:
        raise InvalidInstanceError(
            "eligibility serialisation requested for an instance with no "
            "eligibility restriction"
        )
    return [
        None if mask is None else sorted(mask) for mask in instance.eligible
    ]


def instance_to_dict(instance: SchedulingInstance) -> dict[str, Any]:
    """Serialise a uniform or unrelated instance.

    Instances expressible in v1 vocabulary (bipartite graph, no
    eligibility masks) serialise byte-identically to pre-v2 builds;
    anything else is tagged ``repro/v2``.
    """
    if isinstance(instance, UniformInstance):
        graph_payload = graph_to_dict(instance.graph)
        v2 = (
            graph_payload["format"] == FORMAT_VERSION_V2
            or instance.has_eligibility
        )
        payload: dict[str, Any] = {
            "format": FORMAT_VERSION_V2 if v2 else FORMAT_VERSION,
            "kind": "uniform_instance",
            "graph": graph_payload,
            "p": list(instance.p),
            "speeds": [_frac_str(s) for s in instance.speeds],
        }
        if instance.has_eligibility:
            payload["eligible"] = _eligible_to_lists(instance)
        return payload
    if isinstance(instance, UnrelatedInstance):
        graph_payload = graph_to_dict(instance.graph)
        return {
            "format": graph_payload["format"],
            "kind": "unrelated_instance",
            "graph": graph_payload,
            "times": [_ticks_to_strs(row, instance.scale) for row in instance.ticks],
        }
    raise InvalidInstanceError(
        f"cannot serialise instance type {type(instance).__name__}"
    )


def _parse_eligible(
    raw: Any,
) -> list[list[int] | None] | None:
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise InvalidInstanceError(
            "'eligible' must be a list (one entry per job: machine-index "
            "list or null)"
        )
    return [None if entry is None else _json_ints(entry, "'eligible'") for entry in raw]


def instance_from_dict(data: dict[str, Any]) -> SchedulingInstance:
    """Inverse of :func:`instance_to_dict` (accepts either instance kind).

    Malformed or unknown-kind payloads raise
    :exc:`~repro.exceptions.InvalidInstanceError`, never a bare
    ``KeyError``/``TypeError``.
    """
    if not isinstance(data, dict):
        raise InvalidInstanceError("expected a JSON object for an instance")
    kind = data.get("kind")
    try:
        if kind == "uniform_instance":
            _check_header(data, "uniform_instance")
            n, p = _declared_n(data["graph"]), data["p"]
            if len(p) != n:
                raise InvalidInstanceError(f"{len(p)} processing requirements for {n} jobs")
            return UniformInstance(
                graph_from_dict(data["graph"]),
                p,  # check_positive_ints refuses anything but positive ints
                _json_rationals(data["speeds"], "'speeds'"),
                eligible=_parse_eligible(data.get("eligible")),
            )
        if kind == "unrelated_instance":
            _check_header(data, "unrelated_instance")
            n, times = _declared_n(data["graph"]), data["times"]
            if not times:
                raise InvalidInstanceError("need at least one machine")
            for i, row in enumerate(times):
                if len(row) != n:
                    raise InvalidInstanceError(f"times[{i}] has {len(row)} entries for {n} jobs")
            graph = graph_from_dict(data["graph"])
            grid = _wire_ticks(times)
            if grid is None:  # an entry only Fraction reads: the constructor's path
                return UnrelatedInstance(graph, [_json_rationals(row, "'times'") for row in times])
            return UnrelatedInstance.from_ticks(graph, *grid)
    except InvalidInstanceError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidInstanceError(
            f"malformed {kind!r} instance payload: {exc!r}"
        ) from exc
    raise InvalidInstanceError(f"unknown instance kind {kind!r}")


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """Serialise a schedule together with its instance.

    The outer format tag follows the instance payload, so schedules of
    v1-expressible instances stay byte-identical to pre-v2 builds.
    """
    instance_payload = instance_to_dict(schedule.instance)
    return {
        "format": instance_payload["format"],
        "kind": "schedule",
        "instance": instance_payload,
        "assignment": list(schedule.assignment),
        "makespan": _frac_str(schedule.makespan),
        "feasible": schedule.is_feasible(),
    }


def schedule_from_dict(data: dict[str, Any], check: bool = False) -> Schedule:
    """Inverse of :func:`schedule_to_dict`.

    ``check=False`` by default: serialised schedules may deliberately be
    infeasible (graph-blind baselines); the recorded ``feasible`` flag is
    advisory and recomputed on demand.
    """
    _check_header(data, "schedule")
    instance = instance_from_dict(data["instance"])
    return Schedule(instance, [int(i) for i in data["assignment"]], check=check)


def save_json(data: dict[str, Any], path: str | Path) -> Path:
    """Write a serialised object to ``path`` (pretty-printed, UTF-8)."""
    p = Path(path)
    p.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return p


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a serialised object from ``path``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def save_instance(instance: SchedulingInstance, path: str | Path) -> Path:
    """Convenience: :func:`instance_to_dict` + :func:`save_json`."""
    return save_json(instance_to_dict(instance), path)


def load_instance(path: str | Path) -> SchedulingInstance:
    """Convenience: :func:`load_json` + :func:`instance_from_dict`."""
    return instance_from_dict(load_json(path))
