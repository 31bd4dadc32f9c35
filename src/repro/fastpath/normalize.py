"""Per-instance integer normalization: the :class:`IntView` certificate.

The integer references of the greedy and cover-time hot loops, and
their numpy tier, run on machine integers, not
:class:`~fractions.Fraction` objects.  The bridge is a
one-time *normalization*: multiply all machine speeds by the least
common multiple ``scale`` of their denominators, so that

* ``speeds_scaled[i] = speeds[i] * scale`` is an exact integer,
* a machine carrying integer load ``L`` completes at the exact rational
  time ``L * scale / speeds_scaled[i]``, and
* comparing completion times across machines reduces to integer
  cross-multiplication — ``scale`` cancels, so the kernels never touch
  it inside their hot loops.

The :class:`IntView` carries the **scaling certificate**: the scale and
the scaled integers, with :meth:`IntView.verify` re-deriving the
original rationals and checking minimality of the scale.  The
differential suite (``tests/differential/``) property-tests this
round-trip for random rational speed vectors, including big-int scales
beyond ``2**63`` — Python integers are arbitrary precision, so nothing
silently truncates (the numpy tier must *check* its operands fit
``int64`` and decline; see :mod:`repro.fastpath.kernels_numpy`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import InvalidInstanceError
from repro.utils.rationals import lcm_of_denominators

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.scheduling.instance import UniformInstance

__all__ = [
    "IntView",
    "int_view",
    "scaled_speeds",
    "scaled_speeds_cache_stats",
]


@dataclass(frozen=True)
class IntView:
    """Integer view of a uniform instance's numeric data.

    Parameters
    ----------
    speeds_scaled:
        ``speeds[i] * scale`` for every machine, exact integers.
    scale:
        The least common multiple of the speed denominators (the
        smallest positive integer making every scaled speed integral).
    speeds:
        The original exact rational speeds (the certificate's other
        half: ``Fraction(speeds_scaled[i], scale) == speeds[i]``).
    p:
        Integer job sizes (already integral in the paper's model;
        carried so kernels take one object, empty for speed-only views).
    """

    speeds_scaled: tuple[int, ...]
    scale: int
    speeds: tuple[Fraction, ...]
    p: tuple[int, ...] = ()

    def verify(self) -> bool:
        """Check the scaling certificate.

        Returns ``True`` iff every scaled speed divides back exactly to
        the original rational *and* ``scale`` is minimal (the true LCM
        of the denominators) — a coarser common multiple would still
        round-trip, so minimality is asserted separately.
        """
        if self.scale <= 0 or len(self.speeds_scaled) != len(self.speeds):
            return False
        for scaled, speed in zip(self.speeds_scaled, self.speeds):
            if Fraction(scaled, self.scale) != speed:
                return False
        return self.scale == lcm_of_denominators(self.speeds)


class _ScaledSpeedsCache:
    """Bounded LRU over *content digests* of speed tuples.

    The previous ``functools.lru_cache`` keyed on the speed tuple
    itself, so the cache held strong references to every distinct
    ``Fraction`` tuple it ever saw — for the long-running ``repro
    serve`` tier that is a slow leak of caller objects.  Here the key
    is a SHA-256 digest of the exact ``numerator/denominator`` content
    and the stored value is pure machine integers, so nothing a caller
    passed in is retained.  Hit/miss counters are surfaced by the
    serving tier's ``{"op": "stats"}`` response.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, tuple[tuple[int, ...], int]] = (
            OrderedDict()
        )

    @staticmethod
    def content_key(speeds: Sequence[Fraction]) -> bytes:
        digest = hashlib.sha256()
        for s in speeds:
            digest.update(b"%d/%d;" % (s.numerator, s.denominator))
        return digest.digest()

    def lookup(self, key: bytes) -> tuple[tuple[int, ...], int] | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def store(self, key: bytes, value: tuple[tuple[int, ...], int]) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }


_SPEEDS_CACHE = _ScaledSpeedsCache(maxsize=256)


def scaled_speeds_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the ``scaled_speeds`` content cache."""
    return _SPEEDS_CACHE.stats()


def scaled_speeds(speeds: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    """``(speeds_scaled, scale)`` for a speed tuple, certificate-checked.

    Cached: the exact oracle calls the capacity bound with the same
    speed tuple at every search node, and the LCM/verification pass
    must not be paid per node.  The cache is bounded (LRU, 256
    entries) and keyed by a digest of the speeds' exact content, so it
    never pins caller objects alive; see :class:`_ScaledSpeedsCache`.
    """
    key = _ScaledSpeedsCache.content_key(speeds)
    cached = _SPEEDS_CACHE.lookup(key)
    if cached is not None:
        return cached
    scale = lcm_of_denominators(speeds)
    scaled: list[int] = []
    for s in speeds:
        num = s.numerator * (scale // s.denominator)
        if Fraction(num, scale) != s:
            raise InvalidInstanceError(
                f"integer normalization failed for speed {s} at scale {scale}"
            )
        scaled.append(num)
    value = tuple(scaled), scale
    _SPEEDS_CACHE.store(key, value)
    return value


def int_view(instance: "UniformInstance") -> IntView:
    """Build the :class:`IntView` of a uniform instance.

    Raises
    ------
    repro.exceptions.InvalidInstanceError
        If the certificate fails to verify (cannot happen for a valid
        instance; the check is the integer kernels' safety net).
    """
    scaled, scale = scaled_speeds(tuple(instance.speeds))
    view = IntView(
        speeds_scaled=scaled,
        scale=scale,
        speeds=tuple(instance.speeds),
        p=tuple(instance.p),
    )
    if not view.verify():
        raise InvalidInstanceError(
            "integer normalization certificate failed verification"
        )
    return view
