"""Guarantee-violation sweeps over the algorithm registry.

Every :class:`~repro.engine.registry.AlgorithmSpec` declares what it promises
(``ratio_bound``; Theorem 9's irrational ``sqrt(sum p_j)`` bound is
special-cased with exact squared arithmetic).  The auditor runs every
applicable registered algorithm on every instance of a sweep, certifies
each schedule end-to-end (:mod:`repro.certify.validators`), obtains
ground truth from the pruned exact oracle
(:mod:`repro.certify.oracle`) where tractable, and classifies the
outcome:

========================  ====================================================
status                    meaning
========================  ====================================================
``ok``                    guarantee holds against the *proven optimum*
``ok_vs_bound``           ``Cmax <= B * lower_bound``: holds a fortiori
                          (no oracle run needed)
``unverified``            above ``B * lower_bound`` but the instance is too
                          large for the oracle — not a violation, not a proof
``no_guarantee``          the spec declares no checkable worst-case ratio
``infeasible_output``     the schedule failed certification (conflict /
                          eligibility / makespan drift) — always a bug
``violated``              ``Cmax > B * OPT`` with OPT proven — the paper's
                          claim (or our implementation) is wrong
``error``                 the solver raised one of its *declared* failure
                          modes (:exc:`~repro.exceptions.ReproError`:
                          infeasible instance, heuristic gave up, ...)
``crash``                 the solver raised anything else — an undeclared
                          defect, always a bug
========================  ====================================================

``violated``, ``infeasible_output`` and ``crash`` are the rows the CI
sweep (``benchmarks/bench_certify.py``, ``repro certify``) requires to
be empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping

from repro.exceptions import InvalidScheduleError, ReproError
from repro.scheduling.instance import SchedulingInstance
from repro.certify.oracle import certified_optimal
from repro.certify.validators import (
    CertificateReport,
    certify_schedule,
    instance_lower_bound,
)
from repro.io import frac_str

__all__ = [
    "AuditRow",
    "VIOLATION_STATUSES",
    "audit_instance",
    "audit_guarantees",
]

#: statuses that must never appear in a clean sweep
VIOLATION_STATUSES = frozenset({"violated", "infeasible_output", "crash"})

#: default oracle cut-off: above this ``n`` ground truth is not computed
DEFAULT_ORACLE_MAX_N = 14


@dataclass(frozen=True)
class AuditRow:
    """One (instance, algorithm) audit outcome."""

    name: str
    algorithm: str
    n: int
    m: int
    makespan: Fraction | None
    optimal: Fraction | None
    lower_bound: Fraction | None
    bound: Fraction | None
    ratio: float | None
    status: str
    detail: str
    certificate: CertificateReport | None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe record for sweeps persisted as JSONL."""
        return {
            "kind": "audit_row",
            "name": self.name,
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "makespan": frac_str(self.makespan),
            "optimal": frac_str(self.optimal),
            "lower_bound": frac_str(self.lower_bound),
            "bound": frac_str(self.bound),
            "ratio": self.ratio,
            "status": self.status,
            "detail": self.detail,
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
        }


def audit_instance(
    name: str,
    instance: SchedulingInstance,
    specs: Mapping[str, Any] | None = None,
    algorithms: Iterable[str] | None = None,
    oracle_max_n: int = DEFAULT_ORACLE_MAX_N,
) -> list[AuditRow]:
    """Audit every applicable registered algorithm on one instance.

    Parameters
    ----------
    name:
        Label stored on each produced row.
    instance:
        The instance every applicable algorithm runs on.
    specs:
        Algorithm registry to audit.  Defaults to the live engine
        registry (:data:`repro.engine.ALGORITHMS`, which plugins join
        at registration); passing a mapping makes the auditor testable
        against deliberately lying specs.
    algorithms:
        Restrict the sweep to this named subset (default: all).
    oracle_max_n:
        Ground-truth cut-off: the exact oracle runs at most once per
        instance with ``n <= oracle_max_n`` and its optimum is shared
        across all audited algorithms.  Specs marked ``exponential``
        (the brute-force oracle itself) are skipped above the same
        cut-off — they *are* exhaustive searches and would hang the
        sweep.

    Returns
    -------
    list of AuditRow
        One row per audited algorithm, in registry order; empty when
        nothing applies.
    """
    if specs is None:
        from repro.engine import ALGORITHMS

        specs = ALGORITHMS
    wanted = None if algorithms is None else set(algorithms)

    audited = [
        spec
        for spec in specs.values()
        if (wanted is None or spec.name in wanted)
        and spec.applies(instance)
        and not (
            getattr(spec, "exponential", False) and instance.n > oracle_max_n
        )
    ]
    if not audited:
        # nothing to audit: don't pay for ground truth
        return []

    optimal: Fraction | None = None
    if instance.n <= oracle_max_n:
        try:
            optimal = certified_optimal(instance).makespan
        except ReproError:
            optimal = None  # infeasible or oracle-inapplicable: skip OPT
        except Exception:  # noqa: BLE001 — a crashing seed heuristic
            # must degrade to "no ground truth", not kill the sweep
            optimal = None
    lower = instance_lower_bound(instance)

    return [
        _audit_one(name, instance, spec, optimal, lower) for spec in audited
    ]


def _audit_one(
    name: str,
    instance: SchedulingInstance,
    spec: Any,
    optimal: Fraction | None,
    lower: Fraction | None,
) -> AuditRow:
    base = dict(
        name=name,
        algorithm=spec.name,
        n=instance.n,
        m=instance.m,
        optimal=optimal,
        lower_bound=lower,
    )
    try:
        schedule = spec.run(instance)
    except InvalidScheduleError as exc:
        # the solver *built* an infeasible schedule and Schedule's own
        # eager validation caught it — that is an infeasible output
        # (the certifier's target defect), not a declared failure mode
        if getattr(spec, "graph_blind", False) and instance.graph.edge_count:
            return AuditRow(
                **base,
                makespan=None,
                bound=None,
                ratio=None,
                status="no_guarantee",
                detail=(
                    "graph-blind method on a graph with edges: "
                    "infeasibility is expected, nothing is promised"
                ),
                certificate=None,
            )
        return AuditRow(
            **base,
            makespan=None,
            bound=None,
            ratio=None,
            status="infeasible_output",
            detail=f"{type(exc).__name__}: {exc}",
            certificate=None,
        )
    except ReproError as exc:
        # a declared failure mode (infeasible instance, heuristic gave
        # up): reportable but not a defect
        return AuditRow(
            **base,
            makespan=None,
            bound=None,
            ratio=None,
            status="error",
            detail=f"{type(exc).__name__}: {exc}",
            certificate=None,
        )
    except Exception as exc:  # noqa: BLE001 — anything undeclared is a
        # defect (the dual-approx speed-unit bug surfaced exactly here
        # as an AssertionError) and must FAIL the sweep, while one bad
        # solver still must not kill it
        return AuditRow(
            **base,
            makespan=None,
            bound=None,
            ratio=None,
            status="crash",
            detail=f"{type(exc).__name__}: {exc}",
            certificate=None,
        )

    certificate = certify_schedule(schedule, algorithm=spec.name)
    makespan = certificate.recomputed_makespan
    ratio: float | None = None
    if makespan is not None:
        if optimal is not None and optimal > 0:
            # repro: allow[RS001] reason=reporting-only ratio for the summary table; never compared or certified
            ratio = float(makespan / optimal)
        elif lower is not None and lower > 0:
            # repro: allow[RS001] reason=reporting-only ratio for the summary table; never compared or certified
            ratio = float(makespan / lower)

    if not certificate.ok:
        # graph-blind methods are excused *conflict* violations on edged
        # graphs (expected by design) — but nothing else: makespan drift
        # or eligibility violations are defects regardless
        only_conflicts = (
            certificate.makespan_consistent
            and certificate.lower_bound_respected
            and not certificate.eligibility_violations
        )
        if (
            getattr(spec, "graph_blind", False)
            and instance.graph.edge_count
            and only_conflicts
        ):
            return AuditRow(
                **base,
                makespan=makespan,
                bound=None,
                ratio=ratio,
                status="no_guarantee",
                detail=(
                    "graph-blind method on a graph with edges: "
                    "infeasibility is expected, nothing is promised"
                ),
                certificate=certificate,
            )
        return AuditRow(
            **base,
            makespan=makespan,
            bound=None,
            ratio=ratio,
            status="infeasible_output",
            detail=certificate.describe(),
            certificate=certificate,
        )

    # the declared guarantee, if any: a rational ratio bound, or an
    # exact predicate for guarantees a rational cannot express
    bound: Fraction | None = None
    check = getattr(spec, "guarantee_check", None)
    if spec.ratio_bound is not None:
        bound = spec.ratio_bound(instance)
    if bound is None and check is None:
        return AuditRow(
            **base,
            makespan=makespan,
            bound=None,
            ratio=ratio,
            status="no_guarantee",
            detail="no worst-case ratio declared",
            certificate=certificate,
        )

    if check is not None:
        if optimal is not None:
            holds = check(instance, makespan, optimal)
            return AuditRow(
                **base,
                makespan=makespan,
                bound=None,
                ratio=ratio,
                status="ok" if holds else "violated",
                detail=(
                    f"declared guarantee holds ({spec.guarantee}; "
                    f"{spec.anchor})"
                    if holds
                    else f"guarantee VIOLATED: Cmax={makespan}, OPT={optimal} "
                    f"({spec.guarantee}; {spec.anchor})"
                ),
                certificate=certificate,
            )
        # the predicate is monotone in the optimum, so holding against
        # the (smaller) lower bound proves the guarantee a fortiori
        if lower is not None and lower > 0 and check(instance, makespan, lower):
            return AuditRow(
                **base,
                makespan=makespan,
                bound=None,
                ratio=ratio,
                status="ok_vs_bound",
                detail="declared guarantee holds already against the "
                "lower bound",
                certificate=certificate,
            )
        return AuditRow(
            **base,
            makespan=makespan,
            bound=None,
            ratio=ratio,
            status="unverified",
            detail="instance above the oracle cut-off",
            certificate=certificate,
        )

    if lower is not None and makespan <= bound * lower:
        return AuditRow(
            **base,
            makespan=makespan,
            bound=bound,
            ratio=ratio,
            status="ok_vs_bound",
            detail=f"Cmax <= {bound} * lower bound, holds a fortiori",
            certificate=certificate,
        )
    if optimal is not None:
        if makespan <= bound * optimal:
            return AuditRow(
                **base,
                makespan=makespan,
                bound=bound,
                ratio=ratio,
                status="ok",
                detail=f"Cmax <= {bound} * OPT against the proven optimum",
                certificate=certificate,
            )
        return AuditRow(
            **base,
            makespan=makespan,
            bound=bound,
            ratio=ratio,
            status="violated",
            detail=(
                f"guarantee VIOLATED: Cmax={makespan} > "
                f"{bound} * OPT={optimal} ({spec.guarantee}; {spec.anchor})"
            ),
            certificate=certificate,
        )
    return AuditRow(
        **base,
        makespan=makespan,
        bound=bound,
        ratio=ratio,
        status="unverified",
        detail="above B * lower_bound and above the oracle cut-off",
        certificate=certificate,
    )


def audit_guarantees(
    suite: Iterable[tuple[str, SchedulingInstance]],
    specs: Mapping[str, Any] | None = None,
    algorithms: Iterable[str] | None = None,
    oracle_max_n: int = DEFAULT_ORACLE_MAX_N,
) -> list[AuditRow]:
    """Audit a named instance sweep; rows in suite x registry order.

    Parameters
    ----------
    suite:
        ``(name, instance)`` pairs, e.g. from
        :func:`repro.analysis.suites.certification_suite`.
    specs, algorithms, oracle_max_n:
        Forwarded to :func:`audit_instance` per suite entry.

    Returns
    -------
    list of AuditRow
        One row per (instance, applicable algorithm); a clean sweep has
        no row with a status in :data:`VIOLATION_STATUSES`.
    """
    rows: list[AuditRow] = []
    for name, instance in suite:
        rows.extend(
            audit_instance(
                name,
                instance,
                specs=specs,
                algorithms=algorithms,
                oracle_max_n=oracle_max_n,
            )
        )
    return rows
