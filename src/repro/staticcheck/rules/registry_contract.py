"""RS002 — honest ``Capability`` declarations in the algorithm registry."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.model import FileContext, Finding
from repro.staticcheck.rules.base import Rule

__all__ = ["RegistryContractRule"]


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class RegistryContractRule(Rule):
    """Every registered algorithm declares a structured capability.

    The engine's dispatch, explain mode, portfolio racing, and the
    certification auditor all reason from
    :class:`~repro.engine.registry.Capability` — a spec registered
    without one gets the default ``Capability()`` and applies to every
    instance, which is rarely what its algorithm can handle.  The rule
    also keeps the ``auto`` policy a total order: ``auto_rank`` values
    must be integer literals (statically comparable) and unique within a
    file, so "lowest rank wins" never ties arbitrarily.
    """

    rule_id = "RS002"
    title = "registry-contract"
    rationale = (
        "dispatch, explain mode, the portfolio, and the auditor all "
        "reason from structured Capability declarations; opaque or "
        "ambiguous registrations break ranked auto selection"
    )
    anchor = "PR 5 (repro.engine registry/dispatch)"
    fix_hint = (
        "pass capability=Capability(machine_kind=..., graph=..., ...) to "
        "every AlgorithmSpec, and give each auto-ranked spec a unique "
        "integer auto_rank literal"
    )
    scope = ()  # AlgorithmSpec construction can happen anywhere (plugins)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        seen_ranks: dict[int, int] = {}  # rank value -> first line
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) != "AlgorithmSpec":
                continue
            keywords = {
                kw.arg: kw.value for kw in node.keywords if kw.arg is not None
            }
            has_spread = any(kw.arg is None for kw in node.keywords)
            capability = keywords.get("capability")
            if capability is None and not has_spread:
                yield self.finding(
                    ctx,
                    node,
                    "AlgorithmSpec registered without capability=...; a "
                    "spec without one applies to every instance",
                )
            elif isinstance(capability, ast.Constant) and capability.value is None:
                yield self.finding(
                    ctx,
                    node,
                    "capability=None is not a Capability; a spec without "
                    "one applies to every instance, so declare a structured "
                    "Capability(...)",
                )
            rank = keywords.get("auto_rank")
            if rank is None:
                continue
            if isinstance(rank, ast.Constant) and rank.value is None:
                continue
            if not (isinstance(rank, ast.Constant) and isinstance(rank.value, int)):
                yield self.finding(
                    ctx,
                    rank,
                    "auto_rank must be an integer literal (or None) so the "
                    "auto policy's ordering is statically total",
                )
                continue
            first = seen_ranks.get(rank.value)
            if first is not None:
                yield self.finding(
                    ctx,
                    rank,
                    f"duplicate auto_rank {rank.value} (first used on line "
                    f"{first}); ranked dispatch needs unique ranks to stay "
                    "a total order",
                )
            else:
                seen_ranks[rank.value] = rank.lineno
