"""The numpy tier of the hot loops, overflow-guarded.

Each kernel here reproduces an integer reference kept in the module
that owns the public function, and raises :exc:`FastpathUnavailable`
when its operands would overflow ``int64``; the caller then runs the
integer reference.  Overflow is *checked*, never assumed — a silently
wrapped ``int64`` would corrupt an exact result, which is the one
failure mode this tier must make impossible (the differential suite
crosses ``2**63`` on purpose).

* ``r2_dp_layer_numpy`` — one layer of the Algorithm 5 Pareto DP
  (:func:`repro.scheduling.dp_unrelated.solve_r2_dp`): every
  candidate's ``(bucket, l2, emission index)`` is packed into one
  ``int64`` key, so a single sort finds each bucket's winner, and the
  buckets are then ordered by their earliest emission — exactly the
  next layer the reference dict builds.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ReproError

__all__ = [
    "FastpathUnavailable",
    "r2_dp_layer_numpy",
]


class FastpathUnavailable(ReproError):
    """A numpy kernel cannot run here: ``int64`` would overflow."""


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
