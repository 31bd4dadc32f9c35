"""The numpy tier of the hot loops, overflow-guarded.

Each kernel here reproduces an integer reference kept in the module
that owns the public function, and raises :exc:`FastpathUnavailable`
when its operands would overflow ``int64``; the caller then runs the
integer reference.  Overflow is *checked*, never assumed — a silently
wrapped ``int64`` would corrupt an exact result, which is the one
failure mode this tier must make impossible (the differential suite
crosses ``2**63`` on purpose).

* ``assign_group_greedy_numpy`` — the LPT order is a
  :func:`numpy.lexsort`; when all jobs in the batch have one size and
  all machines one speed, greedy placement collapses to round-robin
  over the machine list and is emitted in closed form (the paper's
  ``p_j = 1`` restriction, vectorized end to end).  Long runs of
  equal-size jobs place by a vectorized event calendar: a binary
  search finds the run's completion-key threshold, the surviving
  ``(key, rank)`` pairs are generated wholesale and ordered by one
  :func:`numpy.lexsort` — no per-job work at all.  Short runs keep
  the integer reference's heap loop.
* ``min_cover_time_with_loads_numpy`` — the jump-point candidates of
  :mod:`repro.scheduling.bounds` generated as arrays, each capacity
  probe one vectorized floor-sum.
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
from typing import Any, Sequence

import numpy as np

from repro.exceptions import InvalidInstanceError, ReproError

__all__ = [
    "FastpathUnavailable",
    "assign_group_greedy_numpy",
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
    """A numpy kernel cannot run here: ``int64`` would overflow."""


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

    Raises :exc:`FastpathUnavailable` when job sizes or scaled speeds
    would not fit ``int64`` — the caller then runs the integer
    reference, :func:`repro.scheduling.list_scheduling._greedy_int`.
    """
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
# cover-time bounds: vectorized jump-point search
# --------------------------------------------------------------------- #


def _search_jump_points(
    speeds_scaled: Sequence[int],
    scale: int,
    loads: Sequence[int],
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
    if (
        max_num >= _INT64_SAFE
        or max(d_lo, d_hi) >= _INT64_SAFE
        or s_max * max(max_num, 1) >= _INT64_SAFE // max(m, 1)
        or max(loads) >= _INT64_SAFE
    ):
        raise FastpathUnavailable("operands exceed the int64 safety bound")
    arr = np.asarray(speeds_scaled, dtype=np.int64)
    loads_arr = np.asarray(loads, dtype=np.int64)
    # per-machine candidate windows c_lo..c_hi (c counts completed units
    # on that machine), exactly the integer reference's bracketing
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
        if int(np.maximum(floors - loads_arr, 0).sum()) >= demand:
            _, ans_num, ans_den = items[mid]
            right = mid - 1
        else:
            left = mid + 1
    return Fraction(ans_num, ans_den)


def min_cover_time_with_loads_numpy(
    speeds_scaled: Sequence[int],
    scale: int,
    loads: Sequence[int],
    demand: int,
) -> Fraction:
    """Vectorized :func:`repro.scheduling.bounds.min_cover_time_with_loads`."""
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
