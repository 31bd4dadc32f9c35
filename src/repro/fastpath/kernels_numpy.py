"""Numpy-vectorized kernels, overflow-guarded, import-safe without numpy.

Numpy is a declared dependency, but the fast path must not *require* it
(``repro.staticcheck`` RS005 exempts numpy precisely because the core
degrades gracefully): every entry point here raises
:exc:`FastpathUnavailable` when numpy is missing or when the operands
would overflow ``int64``, and the dispatchers in the public modules
fall back to the pure-Python integer kernels.  Overflow is *checked*,
never assumed — a silently wrapped ``int64`` would corrupt an exact
result, which is the one failure mode this subsystem exists to make
impossible (the differential suite crosses ``2**63`` on purpose).

Vectorized pieces:

* ``hopcroft_karp_numpy`` — the BFS phase runs level-synchronously on a
  CSR adjacency (one :func:`numpy.repeat` gather per level); the
  augmenting DFS is inherently sequential and stays in Python, reusing
  the exact iteration order of the int kernel, so the mate array is
  byte-identical (a vertex's BFS level is its graph distance, which no
  intra-level reordering can change).
* ``assign_group_greedy_numpy`` — the LPT order is a
  :func:`numpy.lexsort`; when all jobs in the batch have one size and
  all machines one speed, greedy placement collapses to round-robin
  over the machine list and is emitted in closed form (the paper's
  ``p_j = 1`` restriction, vectorized end to end).  Long runs of
  equal-size jobs place by a vectorized event calendar: a binary
  search finds the run's completion-key threshold, the surviving
  ``(key, rank)`` pairs are generated wholesale and ordered by one
  :func:`numpy.lexsort` — no per-job work at all.  Short runs keep
  the integer kernel's heap loop.
* ``capacity_at_numpy`` — the ``sum_i floor(S_i * num / d)`` capacity
  evaluation behind the cover-time bounds as one vector expression.
* ``r2_dp_layer_numpy`` — one layer of the Algorithm 5 Pareto DP
  (:func:`repro.scheduling.dp_unrelated.solve_r2_dp`): every
  candidate's ``(bucket, l2, emission index)`` is packed into one
  ``int64`` key, so a single sort finds each bucket's winner, and the
  buckets are then ordered by their earliest emission — exactly the
  next layer the reference dict builds.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.exceptions import InvalidInstanceError, ReproError

try:  # pragma: no cover - exercised via numpy_available()
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "FastpathUnavailable",
    "numpy_available",
    "hopcroft_karp_numpy",
    "assign_group_greedy_numpy",
    "capacity_at_numpy",
    "min_cover_time_numpy",
    "min_cover_time_with_loads_numpy",
    "r2_dp_layer_numpy",
]

#: conservative magnitude bound: products below this cannot overflow
#: int64 even after a full-column sum
_INT64_SAFE = 2**62

#: shortest equal-size run worth the vectorized event-calendar batch —
#: below this the per-run array setup costs more than the heap pops save
_GREEDY_RUN_MIN = 32


class FastpathUnavailable(ReproError):
    """A numpy kernel cannot run here (no numpy, or int64 would overflow)."""


def numpy_available() -> bool:
    """Whether the numpy kernels can be used at all."""
    return np is not None


def _require_numpy() -> None:
    if np is None:
        raise FastpathUnavailable("numpy is not importable")


# --------------------------------------------------------------------- #
# Hopcroft–Karp: vectorized BFS, sequential DFS
# --------------------------------------------------------------------- #


def hopcroft_karp_numpy(graph: "BipartiteGraph") -> list[int]:
    """Maximum-matching mate array with a CSR/numpy BFS phase."""
    _require_numpy()
    n = graph.n
    unreached = n + 1
    left = graph.vertices_on_side(0)
    adj: list[list[int]] = [[] for _ in range(n)]
    mate = [-1] * n
    for u in left:
        nbrs = list(graph.neighbors(u))
        adj[u] = nbrs
        for v in nbrs:
            if mate[v] == -1:
                mate[u] = v
                mate[v] = u
                break
    # CSR over ALL vertices (right rows are empty) so frontier indices
    # need no translation
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u in left:
        indptr[u + 1] = len(adj[u])
    np.cumsum(indptr, out=indptr)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for u in left:
        indices[int(indptr[u]) : int(indptr[u + 1])] = adj[u] or []
    left_arr = np.asarray(left, dtype=np.int64)

    path_u: list[int] = []
    path_v: list[int] = []
    iters: list[Iterator[int]] = []
    while True:
        mate_arr = np.asarray(mate, dtype=np.int64)
        dist_arr = np.full(n, unreached, dtype=np.int64)
        if left_arr.size:
            frontier = left_arr[mate_arr[left_arr] == -1]
        else:
            frontier = left_arr
        dist_arr[frontier] = 0
        found = False
        level = 0
        while frontier.size:
            level += 1
            starts = indptr[frontier]
            counts = indptr[frontier + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            # gather all neighbours of the frontier in one shot
            offsets = np.repeat(starts, counts) + (
                np.arange(total, dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts)
            )
            vs = indices[offsets]
            ws = mate_arr[vs]
            if not found and bool((ws == -1).any()):
                found = True
            ws = ws[ws != -1]
            ws = ws[dist_arr[ws] == unreached]
            if ws.size == 0:
                frontier = ws
                continue
            ws = np.unique(ws)
            dist_arr[ws] = level
            frontier = ws
        if not found:
            return mate
        dist = dist_arr.tolist()
        # augmenting DFS: identical to the int kernel, byte for byte
        for root in left:
            if mate[root] != -1:
                continue
            path_u.append(root)
            iters.append(iter(adj[root]))
            while path_u:
                u = path_u[-1]
                du1 = dist[u] + 1
                for v in iters[-1]:
                    w = mate[v]
                    if w == -1:
                        path_v.append(v)
                        for k in range(len(path_u)):
                            pu = path_u[k]
                            pv = path_v[k]
                            mate[pu] = pv
                            mate[pv] = pu
                        path_u.clear()
                        path_v.clear()
                        iters.clear()
                        break
                    if dist[w] == du1:
                        path_v.append(v)
                        path_u.append(w)
                        iters.append(iter(adj[w]))
                        break
                else:
                    dist[u] = unreached
                    path_u.pop()
                    iters.pop()
                    if path_v:
                        path_v.pop()


# --------------------------------------------------------------------- #
# greedy list scheduling: vectorized LPT + closed-form uniform case
# --------------------------------------------------------------------- #


def assign_group_greedy_numpy(
    p: Sequence[int],
    speeds_scaled: Sequence[int],
    jobs: Sequence[int],
    machines: Sequence[int],
) -> dict[int, int]:
    """Numpy-accelerated greedy list scheduling (same tie-break policy).

    Raises :exc:`FastpathUnavailable` when numpy is missing or job
    sizes / scaled speeds would not fit ``int64`` — callers fall back
    to :func:`repro.fastpath.kernels_int.assign_group_greedy_int`.
    """
    _require_numpy()
    if not machines:
        if jobs:
            raise InvalidInstanceError(
                "cannot schedule jobs on an empty machine group"
            )
        return {}
    if not jobs:
        return {}
    jobs_arr = np.asarray(jobs, dtype=np.int64)
    try:
        p_full = np.asarray(p, dtype=np.int64)
    except OverflowError as exc:
        raise FastpathUnavailable(
            "operands exceed the int64 safety bound"
        ) from exc
    p_arr = p_full[jobs_arr]
    if (
        int(p_arr.max()) >= _INT64_SAFE
        or max(speeds_scaled[i] for i in machines) >= _INT64_SAFE
    ):
        raise FastpathUnavailable("operands exceed the int64 safety bound")
    # LPT order, ties by job id: lexsort's last key is primary
    order = jobs_arr[np.lexsort((jobs_arr, -p_arr))]
    speeds_of = {speeds_scaled[i] for i in machines}
    if len(speeds_of) == 1 and int(p_arr.min()) == int(p_arr.max()):
        # one speed, one job size: greedy is round-robin over the
        # machine list (after k full passes all loads are equal, and
        # equal loads tie-break to the earliest machine position)
        mach_arr = np.asarray(machines, dtype=np.int64)
        assigned = mach_arr[np.arange(order.size, dtype=np.int64) % len(machines)]
        return dict(zip(order.tolist(), assigned.tolist()))
    # general case: vectorized ordering, then per equal-size run either a
    # vectorized event-calendar batch (long runs) or the integer heap
    # placement (short runs / all-distinct sizes)
    count = len(machines)
    speed_by_rank = [speeds_scaled[i] for i in machines]
    loads = [0] * count  # by position ("rank") in `machines`
    group_ranks: dict[int, list[int]] = {}
    for rank, i in enumerate(machines):
        group_ranks.setdefault(speed_by_rank[rank], []).append(rank)

    def build_groups() -> list[tuple[int, list[tuple[int, int, int]]]]:
        rebuilt: list[tuple[int, list[tuple[int, int, int]]]] = []
        for speed, ranks in group_ranks.items():
            heap = [(loads[r], r, machines[r]) for r in ranks]
            heapq.heapify(heap)
            rebuilt.append((speed, heap))
        return rebuilt

    # calendar keys are (load + k * p_j) * (L / S_i) with L the lcm of the
    # distinct scaled speeds; bound the largest key ever formed (loads
    # never exceed the call's total work) — outside int64, long runs just
    # take the heap path on Python ints instead
    common = math.lcm(*group_ranks)
    sum_s = sum(speed_by_rank)
    total_units = int(p_arr.sum())
    p_max = int(p_arr.max())
    batch_ok = (
        common < _INT64_SAFE
        and (total_units + p_max) * (common // min(group_ranks)) < _INT64_SAFE
    )
    if batch_ok:
        mult_np = np.asarray(
            [common // s for s in speed_by_rank], dtype=np.int64
        )
        mach_np = np.asarray(machines, dtype=np.int64)
        ranks_np = np.arange(count, dtype=np.int64)

    groups = build_groups()
    groups_stale = False
    result: dict[int, int] = {}
    order_list = order.tolist()
    n_jobs = len(order_list)
    sorted_p = -np.sort(-p_arr)
    bounds = (np.flatnonzero(sorted_p[1:] != sorted_p[:-1]) + 1).tolist()
    bounds = [0, *bounds, n_jobs]
    for b_idx in range(len(bounds) - 1):
        idx, end = bounds[b_idx], bounds[b_idx + 1]
        p_j = int(sorted_p[idx])
        run = order_list[idx:end]
        r = end - idx
        if batch_ok and r >= _GREEDY_RUN_MIN:
            pj64 = np.int64(p_j)
            loads_np = np.asarray(loads, dtype=np.int64)
            # a threshold T with at least r calendar keys <= T: the
            # "water level" where the fractional key count reaches
            # r + #machines (exact big-int arithmetic; the +m slack
            # absorbs the per-machine floor, and dropping the max(0, .)
            # clamp only raises the level further), capped by key_i(r)
            # of any single machine
            t_cap = int(((loads_np + np.int64(r) * pj64) * mult_np).min())
            water = ((r + count) * p_j + int(loads_np.sum())) * common
            t_use = min(t_cap, -(-water // sum_s))
            counts = np.maximum(
                (np.int64(t_use) // mult_np - loads_np) // pj64, 0
            )
            c = int(counts.sum())
            if c < r:
                # unbalanced loads pulled the linearized level below the
                # true threshold; the single-machine cap always covers
                t_use = t_cap
                counts = np.maximum(
                    (np.int64(t_use) // mult_np - loads_np) // pj64, 0
                )
                c = int(counts.sum())
            if c > r + 4 * count + 1024:
                # wildly unbalanced loads: tighten to the exact least
                # threshold by binary search before materializing keys
                lo = int(((loads_np + pj64) * mult_np).min())
                while lo < t_use:
                    mid = (lo + t_use) // 2
                    at_mid = int(
                        np.maximum(
                            (np.int64(mid) // mult_np - loads_np) // pj64, 0
                        ).sum()
                    )
                    if at_mid >= r:
                        t_use = mid
                    else:
                        lo = mid + 1
                counts = np.maximum(
                    (np.int64(t_use) // mult_np - loads_np) // pj64, 0
                )
            # materialize every (key, rank) pair below the threshold and
            # keep the r lexicographically smallest — ties at equal keys
            # resolve to the lower rank inside the sort itself
            sel = counts > 0
            reps = counts[sel]
            cum = np.cumsum(reps)
            total_c = int(cum[-1])
            ks = np.arange(1, total_c + 1, dtype=np.int64) - np.repeat(
                cum - reps, reps
            )
            keys = (np.repeat(loads_np[sel], reps) + ks * pj64) * np.repeat(
                mult_np[sel], reps
            )
            cand_ranks = np.repeat(ranks_np[sel], reps)
            chosen = cand_ranks[np.lexsort((cand_ranks, keys))[:r]]
            result.update(zip(run, mach_np[chosen].tolist()))
            loads_np += np.bincount(chosen, minlength=count) * pj64
            loads = loads_np.tolist()
            groups_stale = True
            continue
        if groups_stale:
            groups = build_groups()
            groups_stale = False
        if len(groups) == 1:
            heap = groups[0][1]
            for j in run:
                load, rank, i = heap[0]
                heapq.heapreplace(heap, (load + p_j, rank, i))
                loads[rank] = load + p_j
                result[j] = i
            continue
        for j in run:
            best_heap: list[tuple[int, int, int]] | None = None
            best_a = best_s = 0
            best_rank = -1
            for s, heap in groups:
                load, rank, _ = heap[0]
                a = load + p_j
                if best_heap is None:
                    better = True
                else:
                    lhs = a * best_s
                    rhs = best_a * s
                    better = lhs < rhs or (lhs == rhs and rank < best_rank)
                if better:
                    best_a, best_s, best_rank, best_heap = a, s, rank, heap
            assert best_heap is not None  # repro: allow[RS004] reason=groups is non-empty whenever machines is, validated above
            load, rank, i = heapq.heappop(best_heap)
            heapq.heappush(best_heap, (load + p_j, rank, i))
            loads[rank] = load + p_j
            result[j] = i
    return result


# --------------------------------------------------------------------- #
# capacity evaluation for the cover-time bounds
# --------------------------------------------------------------------- #


def capacity_at_numpy(
    speeds_scaled: Any, num: int, d: int, loads: Any = None
) -> int:
    """``sum_i max(0, (S_i * num) // d - load_i)`` as one vector op.

    ``speeds_scaled`` (and ``loads``) may be pre-built int64 arrays so
    repeated binary-search probes share the conversion.  Raises
    :exc:`FastpathUnavailable` on potential int64 overflow — the probe
    multiplies ``S_i * num``, so both factors are bounded explicitly.
    """
    _require_numpy()
    try:
        arr = np.asarray(speeds_scaled, dtype=np.int64)
        loads_arr = (
            None if loads is None else np.asarray(loads, dtype=np.int64)
        )
    except OverflowError as exc:
        raise FastpathUnavailable(
            "operands exceed the int64 safety bound"
        ) from exc
    if arr.size == 0:
        return 0
    if num >= _INT64_SAFE or d >= _INT64_SAFE or int(arr.max()) * max(num, 1) >= _INT64_SAFE:
        raise FastpathUnavailable("operands exceed the int64 safety bound")
    floors = (arr * np.int64(num)) // np.int64(d)
    if loads_arr is not None:
        floors = np.maximum(floors - loads_arr, 0)
    return int(floors.sum())


# --------------------------------------------------------------------- #
# cover-time bounds: vectorized jump-point search
# --------------------------------------------------------------------- #


def _search_jump_points(
    speeds_scaled: Sequence[int],
    scale: int,
    loads: Sequence[int] | None,
    demand: int,
    lo: Fraction,
    hi: Fraction,
) -> Fraction:
    """Least jump point ``t`` in ``[lo, hi]`` whose capacity covers ``demand``.

    Candidates are kept as raw ``(num, den)`` integer pairs — never
    reduced, never turned into :class:`Fraction` inside the loop.  They
    are totally ordered by the exact big-int key ``(num * K) // den``
    with ``K > max_den**2``: two distinct values ``a/b != c/d`` with
    ``b, d <= max_den`` differ by at least ``1 / max_den**2 < 1/K``
    scaled, so their keys differ, while equal values always map to equal
    keys — the key is injective and monotone on values, giving an exact
    sort without any rational arithmetic.  Capacity probes are one
    vectorized floor-sum each.
    """
    m = len(speeds_scaled)
    s_max = max(speeds_scaled)
    lo_num, lo_den = lo.numerator, lo.denominator
    hi_num, hi_den = hi.numerator, hi.denominator
    d_lo = lo_den * scale
    d_hi = hi_den * scale
    max_c = (s_max * hi_num) // d_hi
    max_num = max(max_c * scale, hi_num, lo_num)
    load_max = max(loads) if loads else 0
    if (
        max_num >= _INT64_SAFE
        or max(d_lo, d_hi) >= _INT64_SAFE
        or s_max * max(max_num, 1) >= _INT64_SAFE // max(m, 1)
        or load_max >= _INT64_SAFE
    ):
        raise FastpathUnavailable("operands exceed the int64 safety bound")
    arr = np.asarray(speeds_scaled, dtype=np.int64)
    loads_arr = np.asarray(loads, dtype=np.int64) if loads is not None else None
    # per-machine candidate windows c_lo..c_hi (c counts completed units
    # on that machine), exactly the int kernel's bracketing
    c_lo = np.maximum(1, (arr * np.int64(lo_num) + np.int64(d_lo - 1)) // np.int64(d_lo))
    c_hi = (arr * np.int64(hi_num)) // np.int64(d_hi)
    counts = np.maximum(c_hi - c_lo + 1, 0)
    total = int(counts.sum())
    offsets = np.repeat(c_lo, counts) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    nums = (offsets * np.int64(scale)).tolist()
    dens = np.repeat(arr, counts).tolist()
    nums.append(hi_num)
    dens.append(hi_den)
    kden = max(s_max, lo_den, hi_den)
    big_k = kden * kden + 1
    lo_key = (lo_num * big_k) // lo_den
    hi_key = (hi_num * big_k) // hi_den
    items = sorted(
        (key, a, b)
        for key, a, b in (((a * big_k) // b, a, b) for a, b in zip(nums, dens))
        if lo_key <= key <= hi_key
    )
    left, right = 0, len(items) - 1
    _, ans_num, ans_den = items[right]
    while left <= right:
        mid = (left + right) // 2
        _, num, den = items[mid]
        floors = (arr * np.int64(num)) // np.int64(den * scale)
        if loads_arr is not None:
            floors = np.maximum(floors - loads_arr, 0)
        if int(floors.sum()) >= demand:
            _, ans_num, ans_den = items[mid]
            right = mid - 1
        else:
            left = mid + 1
    return Fraction(ans_num, ans_den)


def min_cover_time_numpy(
    speeds_scaled: Sequence[int], scale: int, demand: int
) -> Fraction:
    """Vectorized :func:`repro.fastpath.kernels_int.min_cover_time_int`.

    Same window, same jump-point candidate set, same least-feasible
    answer — the returned :class:`Fraction` is canonically identical to
    both the int kernel's and the rational reference's.
    """
    _require_numpy()
    if demand <= 0:
        return Fraction(0)
    if not speeds_scaled:
        raise InvalidInstanceError("positive demand but no machines")
    m = len(speeds_scaled)
    total = sum(speeds_scaled)
    lo = Fraction(demand * scale, total)
    hi = Fraction((demand + m) * scale, total)
    return _search_jump_points(speeds_scaled, scale, None, demand, lo, hi)


def min_cover_time_with_loads_numpy(
    speeds_scaled: Sequence[int],
    scale: int,
    loads: Sequence[int],
    demand: int,
) -> Fraction:
    """Vectorized pre-loaded cover time (same semantics as the int kernel)."""
    _require_numpy()
    if len(speeds_scaled) != len(loads):
        raise InvalidInstanceError(
            f"{len(loads)} loads for {len(speeds_scaled)} machines"
        )
    if not speeds_scaled:
        if demand > 0:
            raise InvalidInstanceError("positive demand but no machines")
        return Fraction(0)
    f_num, f_den = 0, 1
    for load, s in zip(loads, speeds_scaled):
        if load * f_den > f_num * s:
            f_num, f_den = load, s
    frontier = Fraction(f_num * scale, f_den)
    if demand <= 0:
        return frontier
    m = len(speeds_scaled)
    total = sum(speeds_scaled)
    total_units = sum(loads) + demand
    lo = max(frontier, Fraction(total_units * scale, total))
    hi = max(frontier, Fraction((total_units + m) * scale, total))
    return _search_jump_points(speeds_scaled, scale, loads, demand, lo, hi)


# --------------------------------------------------------------------- #
# Algorithm 5's R2 Pareto DP, one layer per call
# --------------------------------------------------------------------- #


def r2_dp_layer_numpy(
    l1: Any, l2: Any, a: int | None, b: int | None, delta: int, prune: int
) -> tuple[Any, Any, Any]:
    """The next layer of the R2 DP, identical to the reference dict step.

    ``l1``/``l2`` are the current layer's machine loads in layer order
    (sequences or int64 arrays); ``a`` and ``b`` are the job's times on
    machines 1 and 2 (``None`` when forbidden).  State ``p`` emits
    candidate ``2p`` (the job on machine 1, bucket ``(l1 + a) // delta``)
    and then ``2p + 1`` (machine 2, bucket ``l1 // delta``); candidates
    above ``prune`` are dropped.  The reference dict keeps, per bucket,
    the first candidate with the smallest ``l2``, and lists buckets in
    the order of their first candidate.  Here each candidate becomes one
    key with the bit fields ``bucket | l2 | emission``: after one sort
    the first key of each bucket is its winner, and a segment minimum of
    the emission field gives the bucket's first candidate.

    Returns int64 arrays ``(l1, l2, emitted)`` of the next layer in
    layer order; ``emitted[s]`` is the winner's emission index (twice its
    parent's position, plus its machine).  Raises
    :exc:`FastpathUnavailable` when the packed key could overflow
    ``int64``; the caller then runs the reference step.
    """
    _require_numpy()
    slots = 2 * len(l1)
    e_bits = (slots - 1).bit_length()
    l2_bits = prune.bit_length()
    low_bits = l2_bits + e_bits
    if (prune // delta).bit_length() + low_bits > 63:
        raise FastpathUnavailable("the packed DP key would overflow int64")
    l1 = np.asarray(l1, dtype=np.int64)
    l2 = np.asarray(l2, dtype=np.int64)
    # candidate 2p + machine sits at that index; a time above the prune
    # bound is never taken, and prune + 1 both marks it and keeps every
    # sum inside int64
    over = prune + 1
    cand_l1 = np.empty(slots, dtype=np.int64)
    cand_l2 = np.empty(slots, dtype=np.int64)
    cand_l1[0::2] = l1 + a if a is not None and a <= prune else over
    cand_l1[1::2] = l1
    cand_l2[0::2] = l2
    cand_l2[1::2] = l2 + b if b is not None and b <= prune else over
    emission = (np.maximum(cand_l1, cand_l2) <= prune).nonzero()[0]
    if emission.size == 0:
        return emission, emission, emission
    keys = cand_l1[emission]
    if delta > 1:
        keys //= delta
    keys <<= l2_bits
    keys |= cand_l2[emission]
    keys <<= e_bits
    keys |= emission
    keys.sort()
    buckets = keys >> low_bits
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(buckets[1:], buckets[:-1], out=first[1:])
    starts = first.nonzero()[0]
    keys &= (1 << e_bits) - 1  # each sorted candidate's emission index
    emitted = keys[starts][np.minimum.reduceat(keys, starts).argsort()]
    return cand_l1[emitted], cand_l2[emitted], emitted
