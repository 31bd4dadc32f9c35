"""Declarative algorithm registry: capabilities instead of closures.

Until PR 5 every algorithm's applicability lived in an ad-hoc predicate
closure inside ``solvers.py``; adding a backend meant editing that file
and hoping the closure agreed with the dispatch policy.  Here each
algorithm registers an :class:`AlgorithmSpec` carrying a structured
:class:`Capability` — machine environment, graph class, job shape,
machine-count bounds — that the dispatcher (:mod:`repro.engine.dispatch`)
can both *match* and *explain*.  New algorithms (in-tree or third-party
plugins) call :func:`register_algorithm` and immediately participate in
``solve``/``available_algorithms``/``repro info``/the certification
auditor, with no dispatch code touched.

The registry is ordered (registration order is the presentation order
everywhere) and the module-level :data:`REGISTRY` is pre-populated with
the paper's algorithm family; :data:`ALGORITHMS` is the same object under
its historical name.

Note for multiprocessing users: worker processes re-import this module,
so plugins registered at runtime in the parent are visible to
:class:`~repro.runtime.batch.BatchRunner` workers only if registration
happens at import time of some module the worker also imports.  The
in-process paths (``solve``, the portfolio, ``repro serve`` with one
worker) have no such restriction.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from repro.core.complete_multipartite import (
    schedule_complete_bipartite_unit,
    schedule_complete_multipartite_unit,
)
from repro.core.q2_unit_exact import q2_unit_exact
from repro.core.r2_fptas import r2_fptas
from repro.core.r2_two_approx import r2_two_approx
from repro.core.random_graph_scheduler import (
    random_graph_schedule,
    random_graph_schedule_balanced,
)
from repro.core.sqrt_approx import sqrt_approx_schedule
from repro.exceptions import InvalidInstanceError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.structure import (
    as_bipartite_graph,
    complete_bipartite_parts_with_free,
    is_bipartite_structure,
    is_block_structure,
    multipartite_decomposition,
)
from repro.scheduling.baselines import (
    bjw_identical_approx,
    r_color_split,
    two_machine_split,
    unconstrained_lpt,
)
from repro.scheduling.brute_force import brute_force_optimal
from repro.scheduling.conflict_split import conflict_color_split
from repro.scheduling.dual_approx import dual_approx_identical
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
)
from repro.scheduling.list_scheduling import graph_aware_greedy
from repro.scheduling.lp_rounding import lst_two_approx
from repro.scheduling.schedule import Schedule

__all__ = [
    "MACHINE_KINDS",
    "GRAPH_CLASSES",
    "Capability",
    "AlgorithmSpec",
    "AlgorithmRegistry",
    "REGISTRY",
    "ALGORITHMS",
    "register_algorithm",
    "unregister_algorithm",
]

#: machine environments a capability can require
MACHINE_KINDS = ("any", "uniform", "unrelated")

#: graph classes a capability can require; ``complete_bipartite`` means
#: ``K_{a,b}`` plus isolated vertices (which covers edgeless graphs too),
#: ``bipartite`` any 2-colorable conflict graph, ``complete_multipartite``
#: classes of mutually-compatible jobs with all cross-class conflicts
#: (+ isolated vertices), ``block`` graphs whose biconnected components
#: are cliques
GRAPH_CLASSES = (
    "any",
    "edgeless",
    "complete_bipartite",
    "bipartite",
    "complete_multipartite",
    "block",
)


@dataclass(frozen=True)
class Capability:
    """Structured preconditions of one algorithm.

    Replaces the predicate closures of the pre-engine registry with
    declarative requirements the dispatcher can rank and explain:

    * ``machine_kind`` — required environment (``"uniform"`` = ``Q``,
      ``"unrelated"`` = ``R``, ``"any"``);
    * ``graph`` — required graph class (:data:`GRAPH_CLASSES`);
    * ``unit_jobs`` — require ``p_j = 1`` for every job (defined for the
      uniform environment, so it requires ``machine_kind="uniform"``);
    * ``identical`` — require identical machine speeds (``Q`` only);
    * ``min_machines`` / ``max_machines`` — bounds on ``m``
      (``max_machines=None`` means unbounded);
    * ``supports_eligibility`` — whether the method honours restricted
      job/machine pairs: eligibility masks on ``Q``
      (``UniformInstance.eligible``) and forbidden (``None``) times on
      ``R``; methods that don't are rejected on such instances rather
      than failing inside the solver or producing schedules that use a
      forbidden pair.

    :meth:`evaluate` returns the *reasons* a requirement fails, which is
    what ``repro solve --explain`` surfaces per algorithm.
    """

    machine_kind: str = "any"
    graph: str = "any"
    unit_jobs: bool = False
    identical: bool = False
    min_machines: int = 1
    max_machines: int | None = None
    supports_eligibility: bool = False

    def __post_init__(self) -> None:
        if self.machine_kind not in MACHINE_KINDS:
            raise InvalidInstanceError(
                f"unknown machine kind {self.machine_kind!r}; "
                f"known: {', '.join(MACHINE_KINDS)}"
            )
        if self.graph not in GRAPH_CLASSES:
            raise InvalidInstanceError(
                f"unknown graph class {self.graph!r}; "
                f"known: {', '.join(GRAPH_CLASSES)}"
            )
        if self.min_machines < 1:
            raise InvalidInstanceError(
                f"min_machines must be >= 1, got {self.min_machines}"
            )
        if self.max_machines is not None and self.max_machines < self.min_machines:
            raise InvalidInstanceError(
                f"max_machines {self.max_machines} < min_machines "
                f"{self.min_machines}"
            )
        if self.unit_jobs and self.machine_kind != "uniform":
            # unit-job detection lives on UniformInstance; without the
            # kind requirement the capability would silently match no
            # instance at all — fail at construction, not at dispatch
            raise InvalidInstanceError(
                "unit_jobs=True requires machine_kind='uniform' "
                f"(got {self.machine_kind!r})"
            )

    def requirements(self) -> tuple[str, ...]:
        """Human-readable requirement list (for docs and explain mode)."""
        out: list[str] = []
        if self.machine_kind != "any":
            env = "Q" if self.machine_kind == "uniform" else "R"
            out.append(f"{self.machine_kind} machines ({env})")
        if self.graph == "edgeless":
            out.append("edgeless graph")
        elif self.graph == "complete_bipartite":
            out.append("K_{a,b} (+ isolated vertices)")
        elif self.graph == "bipartite":
            out.append("bipartite graph")
        elif self.graph == "complete_multipartite":
            out.append("complete multipartite (+ isolated vertices)")
        elif self.graph == "block":
            out.append("block graph")
        if self.unit_jobs:
            out.append("unit jobs")
        if self.identical:
            out.append("identical speeds")
        if self.max_machines == self.min_machines:
            out.append(f"m = {self.min_machines}")
        else:
            if self.min_machines > 1:
                out.append(f"m >= {self.min_machines}")
            if self.max_machines is not None:
                out.append(f"m <= {self.max_machines}")
        return tuple(out)

    def _unmet(self, instance: SchedulingInstance) -> Iterator[str]:
        """One reason per failed requirement, in explain-report order.

        The graph requirements come after the machine and job checks, so
        :meth:`check` usually rejects before scanning the graph.
        """
        is_uniform = isinstance(instance, UniformInstance)
        if self.machine_kind == "uniform" and not is_uniform:
            yield "requires uniform machines (Q)"
        if self.machine_kind == "unrelated" and not isinstance(
            instance, UnrelatedInstance
        ):
            yield "requires unrelated machines (R)"
        if instance.m < self.min_machines:
            yield (
                f"requires m >= {self.min_machines} (instance has m = "
                f"{instance.m})"
            )
        if self.max_machines is not None and instance.m > self.max_machines:
            yield (
                f"requires m <= {self.max_machines} (instance has m = "
                f"{instance.m})"
            )
        if self.unit_jobs and not (is_uniform and instance.has_unit_jobs):
            if is_uniform:
                yield "requires unit jobs (p_j = 1)"
            else:
                yield "requires unit jobs on uniform machines"
        if self.identical and not (is_uniform and instance.is_identical):
            yield "requires identical machine speeds"
        graph = instance.graph
        if self.graph == "edgeless" and graph.edge_count != 0:
            yield (
                f"requires an edgeless graph (instance has "
                f"{graph.edge_count} edge(s))"
            )
        elif self.graph == "complete_bipartite":
            if complete_bipartite_parts_with_free(graph) is None:
                yield "requires K_{a,b} plus isolated vertices"
        elif self.graph == "bipartite":
            if not is_bipartite_structure(graph):
                yield "requires a bipartite conflict graph"
        elif self.graph == "complete_multipartite":
            if multipartite_decomposition(graph) is None:
                yield (
                    "requires a complete multipartite conflict graph "
                    "(+ isolated vertices)"
                )
        elif self.graph == "block":
            if not is_block_structure(graph):
                yield "requires a block conflict graph"
        if not self.supports_eligibility:
            if isinstance(instance, UniformInstance) and instance.has_eligibility:
                yield "cannot honour machine-eligibility masks"
            elif (
                isinstance(instance, UnrelatedInstance)
                and instance.has_eligibility
            ):
                yield "cannot honour forbidden job/machine pairs (null times)"

    def evaluate(
        self, instance: SchedulingInstance
    ) -> tuple[bool, tuple[str, ...]]:
        """``(matches, rejection reasons)`` for one instance.

        Every failed requirement contributes one reason (the tuple is
        empty exactly when the capability matches), so explain mode can
        report *all* the ways an algorithm misses, not just the first.
        """
        reasons = tuple(self._unmet(instance))
        return not reasons, reasons

    def check(self, instance: SchedulingInstance) -> bool:
        """Whether every requirement holds; stops at the first unmet one."""
        return next(self._unmet(instance), None) is None


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registered algorithm.

    ``capability`` states the *preconditions* declaratively and is the
    only applicability rule: the default ``Capability()`` applies to
    every instance without eligibility restrictions.  Preconditions do
    not promise the method is a good idea (brute force applies to
    everything).

    ``guarantee`` is the human-readable approximation guarantee, with
    its paper anchor.  ``ratio_bound`` is the *machine-checkable* form:
    given an instance it returns the exact rational ``B`` such that the
    paper claims ``Cmax <= B * OPT`` (``1`` for exact methods, ``None``
    when no worst-case ratio is declared — heuristics, a.a.s.-only
    results, and the irrational ``sqrt(sum p_j)`` guarantee, which
    :mod:`repro.certify.auditor` checks exactly via squared arithmetic
    instead).

    ``auto_rank`` places the algorithm in the ``auto`` dispatch policy:
    among applicable ranked methods the lowest rank wins; ``None`` keeps
    the method callable by name only.  ``auto_when`` adds *selection*
    constraints on top of the preconditions (graph-blind baselines apply
    everywhere but are only ever auto-chosen on edgeless graphs).
    """

    name: str
    guarantee: str
    anchor: str
    run: Callable[[SchedulingInstance], Schedule] | None = None
    ratio_bound: Callable[[SchedulingInstance], Fraction | None] | None = None
    guarantee_check: (
        Callable[[SchedulingInstance, Fraction, Fraction], bool] | None
    ) = None
    """Exact predicate ``(instance, makespan, optimum) -> holds?`` for
    guarantees a rational ``ratio_bound`` cannot express (Theorem 9's
    irrational ``sqrt(sum p_j)``, checked via squared arithmetic).  Must
    be monotone in the optimum: holding against a lower bound must imply
    holding against the true optimum, so the auditor may use either."""
    graph_blind: bool = False
    """Whether the method ignores the incompatibility graph entirely.

    Graph-blind baselines deliberately emit infeasible schedules on
    graphs with edges; the certification auditor treats that as
    expected behaviour rather than a violation, and the portfolio
    excludes them on graphs with edges."""
    exponential: bool = False
    """Whether the runtime is exponential in ``n`` (exhaustive search).

    The certification auditor only runs such methods inside its oracle
    cut-off; the portfolio never races them."""
    capability: Capability = Capability()
    auto_rank: int | None = None
    auto_when: Capability | None = None

    def __post_init__(self) -> None:
        if self.run is None:
            raise InvalidInstanceError(
                f"algorithm {self.name!r} registered without a run callable"
            )

    def applies(self, instance: SchedulingInstance) -> bool:
        """Whether the capability holds for ``instance``."""
        return self.capability.check(instance)

    def matches(
        self, instance: SchedulingInstance
    ) -> tuple[bool, tuple[str, ...]]:
        """``(applies, rejection reasons)`` — the explainable form."""
        return self.capability.evaluate(instance)

    def execute(self, instance: SchedulingInstance) -> Schedule:
        """Run the algorithm, coercing the graph representation if needed.

        Bipartite-capability algorithms are gated *structurally*
        (:func:`~repro.graphs.structure.is_bipartite_structure` accepts
        any 2-colorable graph), but several implementations —
        Hopcroft–Karp matching, König vertex covers — need the concrete
        :class:`~repro.graphs.bipartite.BipartiteGraph` with its side
        witness.  When the instance stores its graph in another
        representation (a forest-shaped
        :class:`~repro.graphs.conflict.BlockGraph`, say), run on a
        converted copy and re-home the schedule on the original
        instance.  All engine entry points (dispatch, portfolio,
        auditor) go through here rather than calling ``run`` directly.
        """
        run = self.run
        if run is None:  # pragma: no cover - __post_init__ guarantees
            raise InvalidInstanceError(
                f"algorithm {self.name!r} has no run callable"
            )
        if (
            self.capability.graph in ("bipartite", "complete_bipartite")
            and not isinstance(instance.graph, BipartiteGraph)
            and is_bipartite_structure(instance.graph)
        ):
            coerced = instance.with_graph(as_bipartite_graph(instance.graph))
            schedule = run(coerced)
            return Schedule(instance, schedule.assignment)
        return run(instance)


class AlgorithmRegistry(Mapping):
    """Ordered ``name -> AlgorithmSpec`` mapping with plugin support.

    A :class:`~collections.abc.Mapping`, so every consumer of the old
    ``ALGORITHMS`` dict (iteration, ``in``, ``[...]``, ``.values()``)
    keeps working — and sees plugins the moment they register.
    """

    def __init__(self) -> None:
        self._specs: dict[str, AlgorithmSpec] = {}

    def __getitem__(self, name: str) -> AlgorithmSpec:
        return self._specs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def register(
        self, spec: AlgorithmSpec, replace: bool = False
    ) -> AlgorithmSpec:
        """Add one spec; re-registering a name needs ``replace=True``.

        Returns the spec so the call composes (``spec =
        registry.register(AlgorithmSpec(...))``).
        """
        if not replace and spec.name in self._specs:
            raise InvalidInstanceError(
                f"algorithm {spec.name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> AlgorithmSpec:
        """Remove and return one spec (unknown names raise)."""
        try:
            return self._specs.pop(name)
        except KeyError:
            raise InvalidInstanceError(
                f"algorithm {name!r} is not registered"
            ) from None

    def specs(self) -> list[AlgorithmSpec]:
        """All specs in registration order."""
        return list(self._specs.values())


# --------------------------------------------------------------------- #
# built-in algorithm family
# --------------------------------------------------------------------- #


def _run_r2_fptas(instance: SchedulingInstance) -> Schedule:
    return r2_fptas(instance, eps=Fraction(1, 10))


def _run_q2_fptas(instance: SchedulingInstance) -> Schedule:
    """Two uniform machines are a special case of two unrelated ones, so
    Algorithm 5 applies verbatim (the paper's Theorem 4 route)."""
    two_machine = r2_fptas(instance.to_unrelated(), eps=Fraction(1, 10))
    return Schedule(instance, two_machine.assignment)


def _run_dual_approx(instance: SchedulingInstance) -> Schedule:
    return dual_approx_identical(instance, Fraction(1, 3)).schedule


def _run_lst(instance: SchedulingInstance) -> Schedule:
    return lst_two_approx(instance).schedule


def _run_sqrt(instance: SchedulingInstance) -> Schedule:
    return sqrt_approx_schedule(instance).schedule


def _run_greedy(instance: SchedulingInstance) -> Schedule:
    schedule = graph_aware_greedy(instance)
    if schedule is None:
        raise InvalidInstanceError(
            "graph-aware greedy ran out of conflict-free machines; "
            "use a guaranteed method (solve with algorithm='auto')"
        )
    return schedule


def _ratio_one(_: SchedulingInstance) -> Fraction:
    return Fraction(1)


def _ratio_const(value: Fraction) -> Callable[[SchedulingInstance], Fraction]:
    return lambda _: value


def _ratio_two_if_edgeless(instance: SchedulingInstance) -> Fraction | None:
    """Graph-blind 2-approximations only promise their ratio when the
    incompatibility graph has no edges (otherwise they may be
    infeasible, and no ratio is declared)."""
    return Fraction(2) if instance.graph.edge_count == 0 else None


def _sqrt_guarantee_check(
    instance: SchedulingInstance, makespan: Fraction, optimum: Fraction
) -> bool:
    """Theorem 9 without radicals: ``Cmax^2 <= sum p_j * OPT^2``.

    Monotone in ``optimum``, as :class:`AlgorithmSpec.guarantee_check`
    requires.
    """
    return makespan * makespan <= instance.total_p * optimum * optimum


_EDGELESS = Capability(graph="edgeless")

_BUILTIN_SPECS = (
    AlgorithmSpec(
        "complete_multipartite",
        "exact (unary encoding)",
        "[20]/[24], related work",
        run=schedule_complete_bipartite_unit,
        ratio_bound=_ratio_one,
        capability=Capability(
            machine_kind="uniform", graph="complete_bipartite", unit_jobs=True
        ),
        auto_rank=10,
    ),
    AlgorithmSpec(
        "complete_multipartite_min_time",
        "exact (unary encoding), k >= 2 classes",
        "[24] / arXiv:2010.13207",
        run=schedule_complete_multipartite_unit,
        ratio_bound=_ratio_one,
        capability=Capability(
            machine_kind="uniform",
            graph="complete_multipartite",
            unit_jobs=True,
        ),
        auto_rank=15,
    ),
    AlgorithmSpec(
        "q2_unit_exact",
        "exact, O(n^3)",
        "Theorem 4",
        run=q2_unit_exact,
        ratio_bound=_ratio_one,
        capability=Capability(
            machine_kind="uniform",
            graph="bipartite",
            unit_jobs=True,
            min_machines=2,
            max_machines=2,
        ),
        auto_rank=20,
    ),
    AlgorithmSpec(
        "q2_fptas",
        "1 + eps on two uniform machines (eps = 1/10 here)",
        "Theorem 4's FPTAS route / Algorithm 5",
        run=_run_q2_fptas,
        ratio_bound=_ratio_const(Fraction(11, 10)),
        capability=Capability(
            machine_kind="uniform",
            graph="bipartite",
            min_machines=2,
            max_machines=2,
        ),
        auto_rank=40,
    ),
    AlgorithmSpec(
        "dual_approx",
        "1 + eps (eps = 1/3 here)",
        "[11], related work",
        run=_run_dual_approx,
        ratio_bound=_ratio_const(Fraction(4, 3)),
        capability=Capability(
            machine_kind="uniform", graph="edgeless", identical=True
        ),
        auto_rank=30,
    ),
    AlgorithmSpec(
        "lpt",
        "graph-blind LPT (feasible iff graph edgeless)",
        "classical",
        run=unconstrained_lpt,
        ratio_bound=_ratio_two_if_edgeless,
        graph_blind=True,
        capability=Capability(machine_kind="uniform"),
        auto_rank=50,
        auto_when=_EDGELESS,
    ),
    AlgorithmSpec(
        "sqrt_approx",
        "sqrt(sum p_j)-approximate",
        "Algorithm 1 / Theorem 9",
        run=_run_sqrt,
        # sqrt(sum p_j) is irrational, so no rational ratio_bound;
        # the predicate checks Theorem 9 exactly in squared form
        guarantee_check=_sqrt_guarantee_check,
        capability=Capability(
            machine_kind="uniform", graph="bipartite", min_machines=2
        ),
        auto_rank=60,
    ),
    AlgorithmSpec(
        "random_graph",
        "a.a.s. 2-approximate on G(n,n,p), unit jobs",
        "Algorithm 2 / Theorem 19",
        run=random_graph_schedule,
        capability=Capability(
            machine_kind="uniform", graph="bipartite", unit_jobs=True
        ),
    ),
    AlgorithmSpec(
        "random_graph_balanced",
        "Algorithm 2 + isolated-job balancing (Sec. 6 improvement)",
        "Section 6 open problems",
        run=random_graph_schedule_balanced,
        capability=Capability(
            machine_kind="uniform", graph="bipartite", unit_jobs=True
        ),
    ),
    AlgorithmSpec(
        "bjw",
        "2-approximate, identical machines, m >= 3",
        "[3], related work",
        run=bjw_identical_approx,
        ratio_bound=_ratio_const(Fraction(2)),
        capability=Capability(
            machine_kind="uniform",
            graph="bipartite",
            identical=True,
            min_machines=3,
        ),
    ),
    AlgorithmSpec(
        "two_machine_split",
        "feasible two-machine split (no ratio bound)",
        "Algorithm 1 fallback shape",
        run=two_machine_split,
        capability=Capability(
            machine_kind="uniform", graph="bipartite", min_machines=2
        ),
    ),
    AlgorithmSpec(
        "r2_two_approx",
        "2-approximate, O(n)",
        "Algorithm 4 / Theorem 21",
        run=r2_two_approx,
        ratio_bound=_ratio_const(Fraction(2)),
        capability=Capability(
            machine_kind="unrelated",
            graph="bipartite",
            min_machines=2,
            max_machines=2,
        ),
    ),
    AlgorithmSpec(
        "r2_fptas",
        "1 + eps (eps = 1/10 here)",
        "Algorithm 5 / Theorem 22",
        run=_run_r2_fptas,
        ratio_bound=_ratio_const(Fraction(11, 10)),
        capability=Capability(
            machine_kind="unrelated",
            graph="bipartite",
            min_machines=2,
            max_machines=2,
        ),
        auto_rank=110,
    ),
    AlgorithmSpec(
        "lst",
        "graph-blind 2-approx for R||Cmax",
        "[18], related work",
        run=_run_lst,
        ratio_bound=_ratio_two_if_edgeless,
        graph_blind=True,
        # the LP only creates variables for allowed pairs
        capability=Capability(machine_kind="unrelated", supports_eligibility=True),
        auto_rank=120,
        auto_when=_EDGELESS,
    ),
    AlgorithmSpec(
        "r_color_split",
        "feasible color split (no ratio bound; cf. Theorem 24)",
        "Theorem 24 context",
        run=r_color_split,
        # machine pairs with a forbidden time for their class are skipped
        capability=Capability(
            machine_kind="unrelated",
            graph="bipartite",
            min_machines=2,
            supports_eligibility=True,
        ),
        auto_rank=130,
    ),
    AlgorithmSpec(
        "conflict_color_split",
        "feasible MCS-coloring split (exact infeasibility detection on "
        "block / complete multipartite graphs; no ratio bound)",
        "arXiv:2207.05868 context",
        run=conflict_color_split,
        capability=Capability(min_machines=2, supports_eligibility=True),
        auto_rank=500,
    ),
    AlgorithmSpec(
        "greedy",
        "graph-aware greedy heuristic (no guarantee, may fail)",
        "baseline",
        run=_run_greedy,
        capability=Capability(supports_eligibility=True),
    ),
    AlgorithmSpec(
        "brute_force",
        "exact (exponential time)",
        "ground truth",
        run=brute_force_optimal,
        ratio_bound=_ratio_one,
        exponential=True,
        capability=Capability(supports_eligibility=True),
    ),
)

#: the live registry every engine entry point consults
REGISTRY = AlgorithmRegistry()
for _spec in _BUILTIN_SPECS:
    REGISTRY.register(_spec)
del _spec

#: historical name — the same live mapping
ALGORITHMS = REGISTRY


def register_algorithm(
    spec: AlgorithmSpec, replace: bool = False
) -> AlgorithmSpec:
    """Register a plugin algorithm with the global :data:`REGISTRY`.

    The one-call plugin entry point: after this, the algorithm is
    dispatchable by name through :func:`repro.engine.solve`, listed by
    ``repro info``/``available_algorithms``, auditable by
    :mod:`repro.certify`, and (when ``auto_rank`` is set) eligible for
    ``auto`` selection and portfolio racing.
    """
    return REGISTRY.register(spec, replace=replace)


def unregister_algorithm(name: str) -> AlgorithmSpec:
    """Remove a plugin from the global :data:`REGISTRY` (tests, teardown)."""
    return REGISTRY.unregister(name)
