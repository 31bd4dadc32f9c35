"""Ablation variants of Algorithm 1 (design-choice experiments).

Algorithm 1 makes three non-obvious design choices whose value the paper
argues but never measures:

* **exact max-weight independent set** (step 2, via min-cut) instead of a
  greedy independent set containing the heavy jobs;
* **weighted inequitable coloring** (Definition 1) of ``J \\ I`` instead
  of an arbitrary proper 2-coloring;
* **taking the better of S1 and S2** (step 12) instead of committing to
  the capacity-based schedule whenever it exists.

Each knob can be switched off independently; experiment E11
(``benchmarks/bench_ablation_sqrt.py``) sweeps the variants over the
standard instance suite.  Every variant that builds ``S2`` runs
Algorithm 1's own steps 5-10 (``repro.core.sqrt_approx._capacity_schedule``)
on its independent set and its colouring of ``J \\ I``.  With all knobs
at their paper settings the variant reproduces
:func:`repro.core.sqrt_approx.sqrt_approx_schedule` exactly (asserted by
tests).

The ablated algorithms keep Algorithm 1's *feasibility* (every variant
returns a proper schedule); only the quality guarantee degrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from repro.core.sqrt_approx import (
    _base_case,
    _capacity_schedule,
    _heavy_jobs,
    _two_fastest_schedule,
)
from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.coloring import inequitable_two_coloring, proper_two_coloring
from repro.graphs.independent_set import max_weight_independent_set_containing
from repro.scheduling.instance import UniformInstance
from repro.scheduling.schedule import Schedule

__all__ = [
    "ABLATION_VARIANTS",
    "AblationKnobs",
    "greedy_independent_set_containing",
    "sqrt_approx_ablation",
]


@dataclass(frozen=True)
class AblationKnobs:
    """The switchable design choices of Algorithm 1."""

    exact_mwis: bool = True
    weighted_coloring: bool = True
    build_s2: bool = True
    prefer: Literal["min", "s1", "s2"] = "min"


ABLATION_VARIANTS: dict[str, AblationKnobs] = {
    "paper": AblationKnobs(),
    "greedy_mis": AblationKnobs(exact_mwis=False),
    "unweighted_coloring": AblationKnobs(weighted_coloring=False),
    "s1_only": AblationKnobs(build_s2=False, prefer="s1"),
    "s2_preferred": AblationKnobs(prefer="s2"),
}


def greedy_independent_set_containing(
    graph: BipartiteGraph,
    weights: Sequence[int],
    must_contain: Sequence[int],
) -> set[int] | None:
    """Greedy stand-in for step 2's exact max-weight independent set.

    Starts from ``must_contain`` (``None`` if those are not pairwise
    independent — same contract as the exact routine) and greedily adds
    the heaviest remaining non-adjacent vertex.  No optimality: this is
    the ablation comparator, expected to shrink ``w(I)`` and hence
    degrade ``S2``.
    """
    chosen = set(must_contain)
    if not graph.is_independent_set(chosen):
        return None
    blocked = graph.closed_neighborhood(chosen) - chosen
    for v in sorted(range(graph.n), key=lambda v: (-weights[v], v)):
        if v in chosen or v in blocked:
            continue
        chosen.add(v)
        blocked |= graph.neighbors(v)
    return chosen


def _two_coloring_classes(
    instance: UniformInstance, rest: list[int], weighted: bool
) -> tuple[list[int], list[int]]:
    """Color classes of ``J \\ I``, in original job ids.

    ``weighted=True`` is Definition 1 (heavier class first);
    ``weighted=False`` takes the canonical proper coloring verbatim —
    the ablation drops the "inequitable" guarantee the analysis leans on.
    """
    if weighted:
        return inequitable_two_coloring(instance.graph, instance.p, rest)
    sub, ids = instance.graph.induced_subgraph(rest)
    colors = proper_two_coloring(sub)
    return (
        [ids[v] for v in range(sub.n) if colors[v] == 0],
        [ids[v] for v in range(sub.n) if colors[v] == 1],
    )


def sqrt_approx_ablation(
    instance: UniformInstance,
    variant: str = "paper",
) -> Schedule:
    """Algorithm 1 with one design choice switched off.

    ``variant`` is a key of :data:`ABLATION_VARIANTS`.  The ``"paper"``
    variant is the unmodified algorithm (kept here so ablation sweeps
    have an in-suite control), except that it always builds ``S1``.
    Instances with eligibility masks are refused with
    :exc:`InvalidInstanceError`, as by Algorithm 1.
    """
    knobs = ABLATION_VARIANTS.get(variant)
    if knobs is None:
        known = ", ".join(sorted(ABLATION_VARIANTS))
        raise InvalidInstanceError(f"unknown variant {variant!r}; known: {known}")
    base = _base_case(instance)
    if base is not None:  # no step the knobs vary runs on these
        return base.schedule

    heavy = _heavy_jobs(instance)
    if knobs.exact_mwis:
        independent = max_weight_independent_set_containing(
            instance.graph, instance.p, heavy
        )
    else:
        independent = greedy_independent_set_containing(
            instance.graph, instance.p, heavy
        )

    s1 = _two_fastest_schedule(instance, "fptas")

    s2: Schedule | None = None
    if knobs.build_s2 and independent is not None and instance.m >= 3:
        s2, _ = _capacity_schedule(
            instance,
            independent,
            lambda rest: _two_coloring_classes(instance, rest, knobs.weighted_coloring),
        )

    if knobs.prefer == "s1" or s2 is None:
        return s1
    if knobs.prefer == "s2":
        return s2
    return s2 if s2.makespan < s1.makespan else s1
