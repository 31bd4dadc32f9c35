"""RS003 — the serving tier's event loop must never block."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticcheck.model import FileContext, Finding
from repro.staticcheck.rules.base import Rule

__all__ = ["AsyncSafetyRule"]

#: method names that are blocking I/O on the objects this codebase uses
#: them on (sockets, pathlib paths) — never acceptable on the event loop
_BLOCKING_METHODS = frozenset(
    {
        "accept",
        "connect",
        "recv",
        "recvfrom",
        "sendall",
        "makefile",
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
    }
)

#: blocking ``subprocess`` entry points
_SUBPROCESS_CALLS = frozenset({"run", "call", "check_call", "check_output"})


class AsyncSafetyRule(Rule):
    """No blocking calls inside ``async def`` bodies.

    The asyncio serving tier's whole design (PR 6) is that the event
    loop only parses, hashes, and routes — solves run off-loop on an
    executor or worker pool.  One ``time.sleep`` or blocking
    socket/file call inside a coroutine stalls *every* connection
    multiplexed on the loop.  Flags ``time.sleep``, ``open(...)``,
    blocking socket/pathlib methods, ``subprocess`` calls, and
    synchronous ``BatchRunner.run(...)`` fan-out (recognised as a
    ``.run(...)`` call on a receiver whose name mentions ``runner``)
    inside any ``async def``.  Function bodies of *sync* ``def``s
    nested in a coroutine are exempt — they are the callbacks and
    worker entry points that deliberately run off-loop.
    """

    rule_id = "RS003"
    title = "async-safety"
    rationale = (
        "the asyncio tier multiplexes every connection on one event "
        "loop; a blocking call in a coroutine stalls all of them"
    )
    anchor = "PR 6 (repro.engine.aserve / service)"
    fix_hint = (
        "await asyncio.sleep(...) instead of time.sleep; run blocking "
        "work through loop.run_in_executor (see "
        "AsyncEngineService._run)"
    )
    scope = ()  # async defs may appear anywhere as the serving tier grows

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_sleep_aliases = _collect_time_sleep_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(ctx, node, time_sleep_aliases)

    def _check_coroutine(
        self,
        ctx: FileContext,
        coro: ast.AsyncFunctionDef,
        sleep_aliases: frozenset[str],
    ) -> Iterator[Finding]:
        for node in _walk_coroutine_body(coro):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id == "open":
                    yield self.finding(
                        ctx,
                        node,
                        "open(...) is blocking file I/O on the event loop; "
                        "hand it to loop.run_in_executor",
                    )
                elif func.id in sleep_aliases:
                    yield self.finding(
                        ctx,
                        node,
                        "time.sleep blocks the event loop; await "
                        "asyncio.sleep(...) instead",
                    )
            elif isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name) and base.id == "time":
                    if func.attr == "sleep":
                        yield self.finding(
                            ctx,
                            node,
                            "time.sleep blocks the event loop; await "
                            "asyncio.sleep(...) instead",
                        )
                elif isinstance(base, ast.Name) and base.id == "subprocess":
                    if func.attr in _SUBPROCESS_CALLS or func.attr == "Popen":
                        yield self.finding(
                            ctx,
                            node,
                            f"subprocess.{func.attr} blocks the event loop; "
                            "use asyncio.create_subprocess_exec",
                        )
                elif func.attr in _BLOCKING_METHODS:
                    yield self.finding(
                        ctx,
                        node,
                        f".{func.attr}(...) is blocking I/O on the event "
                        "loop; use the asyncio stream/executor equivalent",
                    )
                elif func.attr == "run" and "runner" in ast.unparse(base).lower():
                    yield self.finding(
                        ctx,
                        node,
                        "BatchRunner.run(...) is the synchronous fan-out "
                        "loop; hand each solve to loop.run_in_executor "
                        "instead (AsyncEngineService._run)",
                    )


def _collect_time_sleep_aliases(tree: ast.Module) -> frozenset[str]:
    """Names that ``from time import sleep [as x]`` binds in this module."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    aliases.add(alias.asname or alias.name)
    return frozenset(aliases)


def _walk_coroutine_body(coro: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a coroutine's body, skipping nested *sync* function bodies.

    Nested ``async def``s are walked (they run on the same loop); nested
    plain ``def``s are not — in this codebase they are executor targets
    and callbacks that run off-loop by design.
    """
    stack: list[ast.AST] = list(coro.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
