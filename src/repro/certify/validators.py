"""End-to-end schedule audits over exact rationals.

:class:`Schedule` validates itself eagerly, but that check runs inside
the same object whose bookkeeping it trusts (cached completion times,
the instance's own ``machine_completion``).  The certifier re-derives
everything from first principles — conflict edges straight off the
graph's edge list, eligibility straight off the instance's ``allows``,
the makespan by re-summing the raw job data per machine — and packages
the findings as a machine-readable :class:`CertificateReport` that the
batch engine can persist next to each result record.

A report also cross-checks the *environment's exact lower bound*: a
feasible schedule finishing below the bound is impossible, so a failed
``lower_bound_respected`` flag convicts the bound code, not the
schedule.  Both directions of drift are exactly what guarantee sweeps
(:mod:`repro.certify.auditor`) need to trust their ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.io import frac_str
from repro.scheduling.bounds import (
    uniform_capacity_lower_bound,
    unrelated_lower_bound,
)
from repro.scheduling.instance import (
    SchedulingInstance,
    UniformInstance,
    UnrelatedInstance,
)
from repro.scheduling.schedule import Schedule

__all__ = ["CertificateReport", "certify_schedule", "instance_lower_bound"]


def _frac_parse(text: str | None) -> Fraction | None:
    return None if text is None else Fraction(text)


def instance_lower_bound(instance: SchedulingInstance) -> Fraction | None:
    """The strongest cheap exact lower bound for the environment.

    ``None`` for instance types without a registered bound (future
    environments degrade to an un-cross-checked certificate rather than
    an error).
    """
    if isinstance(instance, UniformInstance):
        return uniform_capacity_lower_bound(instance)
    if isinstance(instance, UnrelatedInstance):
        return unrelated_lower_bound(instance)
    return None


@dataclass(frozen=True)
class CertificateReport:
    """Machine-readable outcome of one schedule audit.

    ``conflict_violations`` / ``eligibility_violations`` list every
    offence (not just the first), as ``(job, other_job, machine)`` and
    ``(job, machine)`` tuples.  ``recomputed_makespan`` is re-derived
    from the raw assignment; ``makespan_consistent`` compares it against
    the makespan the schedule object reports (catching stale caches or a
    lying solver).  ``lower_bound_respected`` is ``True`` whenever no
    bound is available — absence of evidence is not a violation.
    """

    algorithm: str | None
    n: int
    m: int
    edges: int
    conflict_violations: tuple[tuple[int, int, int], ...]
    eligibility_violations: tuple[tuple[int, int], ...]
    claimed_makespan: Fraction | None
    recomputed_makespan: Fraction | None
    makespan_consistent: bool
    lower_bound: Fraction | None
    lower_bound_respected: bool
    ok: bool

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe record (rationals as ``"num/den"`` strings)."""
        return {
            "kind": "certificate",
            "algorithm": self.algorithm,
            "n": self.n,
            "m": self.m,
            "edges": self.edges,
            "conflict_violations": [list(v) for v in self.conflict_violations],
            "eligibility_violations": [
                list(v) for v in self.eligibility_violations
            ],
            "claimed_makespan": frac_str(self.claimed_makespan),
            "recomputed_makespan": frac_str(self.recomputed_makespan),
            "makespan_consistent": self.makespan_consistent,
            "lower_bound": frac_str(self.lower_bound),
            "lower_bound_respected": self.lower_bound_respected,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CertificateReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            algorithm=data.get("algorithm"),
            n=int(data["n"]),
            m=int(data["m"]),
            edges=int(data["edges"]),
            conflict_violations=tuple(
                (int(a), int(b), int(i))
                for a, b, i in data.get("conflict_violations", [])
            ),
            eligibility_violations=tuple(
                (int(j), int(i))
                for j, i in data.get("eligibility_violations", [])
            ),
            claimed_makespan=_frac_parse(data.get("claimed_makespan")),
            recomputed_makespan=_frac_parse(data.get("recomputed_makespan")),
            makespan_consistent=bool(data.get("makespan_consistent", False)),
            lower_bound=_frac_parse(data.get("lower_bound")),
            lower_bound_respected=bool(data.get("lower_bound_respected", False)),
            ok=bool(data.get("ok", False)),
        )

    def describe(self) -> str:
        """One-line human summary."""
        if self.ok:
            return (
                f"certified ok: Cmax={self.recomputed_makespan}, "
                f"lower bound {self.lower_bound}"
            )
        parts: list[str] = []
        if self.conflict_violations:
            parts.append(f"{len(self.conflict_violations)} conflict violation(s)")
        if self.eligibility_violations:
            parts.append(
                f"{len(self.eligibility_violations)} eligibility violation(s)"
            )
        if not self.makespan_consistent:
            parts.append(
                f"makespan mismatch (claimed {self.claimed_makespan}, "
                f"recomputed {self.recomputed_makespan})"
            )
        if not self.lower_bound_respected:
            parts.append(
                f"makespan {self.recomputed_makespan} below exact lower "
                f"bound {self.lower_bound}"
            )
        return "certificate FAILED: " + "; ".join(parts)


def _recompute_makespan(
    instance: SchedulingInstance, assignment: tuple[int, ...]
) -> Fraction | None:
    """Makespan re-derived from the raw job data, for an assignment that
    respects eligibility: on uniform machines the integer ``p_j`` summed
    per machine and divided once by its speed, otherwise the instance's
    integer ticks summed per machine and the largest divided once by the
    grid's scale (``None`` if some assigned pair has no tick)."""
    loads = [0] * instance.m
    if isinstance(instance, UniformInstance):
        for j, i in enumerate(assignment):
            loads[i] += instance.p[j]
        return max(Fraction(load) / s for load, s in zip(loads, instance.speeds))
    scale, ticks = instance.grid()
    for j, i in enumerate(assignment):
        t = ticks[i][j]
        if t is None:
            return None
        loads[i] += t
    return Fraction(max(loads), scale)


def certify_schedule(
    schedule: Schedule,
    algorithm: str | None = None,
    claimed_makespan: Fraction | None = None,
) -> CertificateReport:
    """Audit ``schedule`` end-to-end and return the certificate.

    Parameters
    ----------
    schedule:
        The schedule to audit (its instance travels with it).
    algorithm:
        Name stored on the report (provenance only; no registry lookup).
    claimed_makespan:
        The makespan a solver or cache record *claimed*.  Defaults to
        what the schedule object itself reports; passing a persisted
        value cross-checks stored data against the actual assignment.

    Returns
    -------
    CertificateReport
        Conflict edges, eligibility violations, the independently
        recomputed makespan, and the lower-bound cross-check; ``.ok``
        summarises them.
    """
    instance = schedule.instance
    graph = instance.graph
    assignment = schedule.assignment

    conflicts: list[tuple[int, int, int]] = []
    for a, b in graph.edges():
        if assignment[a] == assignment[b]:
            conflicts.append((min(a, b), max(a, b), assignment[a]))
    conflicts.sort()

    eligibility = [
        (j, i) for j, i in enumerate(assignment) if not instance.allows(i, j)
    ]

    # a forbidden pair has no processing time to sum
    recomputed = None if eligibility else _recompute_makespan(instance, assignment)
    if claimed_makespan is None and recomputed is not None:
        claimed_makespan = schedule.makespan
    consistent = recomputed is not None and claimed_makespan == recomputed

    lower = instance_lower_bound(instance)
    bound_ok = (
        lower is None or recomputed is None or recomputed >= lower
    )

    ok = (
        not conflicts
        and not eligibility
        and consistent
        and bound_ok
    )
    return CertificateReport(
        algorithm=algorithm,
        n=instance.n,
        m=instance.m,
        edges=graph.edge_count,
        conflict_violations=tuple(conflicts),
        eligibility_violations=tuple(eligibility),
        claimed_makespan=claimed_makespan,
        recomputed_makespan=recomputed,
        makespan_consistent=consistent,
        lower_bound=lower,
        lower_bound_respected=bound_ok,
        ok=ok,
    )
