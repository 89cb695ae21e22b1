"""Finite representations of Borel subsets of the real line.

A set is a disjoint union of closed intervals and isolated points, less
finitely many excluded points, stored in columns: the intervals as sorted
float arrays of left and right ends, apart (no two touch), and the points
and excluded points as sorted float arrays.  In normal form a point lies
outside the intervals and an excluded point inside the rest.  A
Smith-Volterra-Cantor ("fat Cantor") set of finite depth n is its 2^n
retained intervals (``svc_set``).  ``BorelSet.make`` is the one entry from
caller lists; it merges intervals with one sort and a running maximum of
the right ends.  The set operations are ``searchsorted`` sweeps over the
operands' columns and give their results in normal form; every interval
end of a result is an operand's, so the algebra is exact.  Membership has
one rule, ``_covers``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "BorelSet",
    "svc_set",
    "svc_measure",
    "EMPTY",
]

# Expanding a depth-n SVC set materializes 2^n intervals.
_MAX_SVC_DEPTH = 20

_NONE = np.empty(0)


def svc_measure(depth: int) -> float:
    """Lebesgue measure of the depth-n SVC subset of [0, 1].

    Stage k removes 2^(k-1) middle intervals of length 4^(-k), so the
    retained mass is 1 - sum_k 2^(k-1) 4^(-k) = 1/2 + 2^(-n-1).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return float(Fraction(1, 2) + Fraction(1, 2 ** (depth + 1)))


@lru_cache(maxsize=8)
def _svc_unit(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the retained intervals of the depth-n SVC subset of
    [0, 1], in order.  Every end is a multiple of 2^-(2n+1) in [0, 1], so up
    to the depth cap each step is exact in floating point."""
    lo, hi = np.zeros(1), np.ones(1)
    for k in range(1, depth + 1):
        half = (hi - lo - 4.0**-k) / 2
        lo, hi = np.stack([lo, hi - half], 1).ravel(), np.stack([lo + half, hi], 1).ravel()
    return lo, hi


def _covers(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each entry of x lies in one of the closed intervals [lo, hi],
    sorted and apart: more of them start at or before x than end before it."""
    return lo.searchsorted(x, "right") != hi.searchsorted(x, "left")


def _cat(*parts) -> np.ndarray:
    """The arrays joined, skipping the empty ones."""
    parts = [p for p in parts if len(p)]
    return _NONE if not parts else parts[0] if len(parts) == 1 else np.concatenate(parts)


def _unique(x: np.ndarray) -> np.ndarray:
    """x sorted, with each value once; of equal entries the first is kept,
    as a Python set keeps the first it is given."""
    if len(x) < 2:
        return x
    x = np.sort(x, kind="stable")
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _merge(lo: np.ndarray, hi: np.ndarray):
    """The components of the union of the closed intervals [lo, hi], each
    of positive length: one sort by left end (then right end), a running
    maximum of the right ends, and a new component wherever a left end
    passes it."""
    if len(lo) > 1:
        order = np.lexsort((hi, lo))
        lo, top = lo[order], np.maximum.accumulate(hi[order])
        new = np.concatenate(([True], lo[1:] > top[:-1]))
        lo, hi = lo[new], top[np.concatenate((new[1:], [True]))]
    return lo, hi


def _sweep(a, b):
    """The intersections of two sorted lists (lo, hi) of intervals that are
    apart.  The i-th interval of a meets a run of intervals of b, from the
    first that ends at or after its left end, and the j-th of b a run of a;
    the pairs that meet rise in both i and j, so listing them by i lists
    them by j too.  The pieces come out in order and apart; returns those
    of positive length, and the points of the others."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    if not len(a_lo) or not len(b_lo):
        return _NONE, _NONE, _NONE
    i = np.repeat(np.arange(len(a_lo)), b_lo.searchsorted(a_hi, "right") - b_hi.searchsorted(a_lo))
    j = np.repeat(np.arange(len(b_lo)), a_lo.searchsorted(b_hi, "right") - a_hi.searchsorted(b_lo))
    lo, hi = np.maximum(a_lo[i], b_lo[j]), np.minimum(a_hi[i], b_hi[j])
    point = hi == lo
    return (lo, hi, _NONE) if not point.any() else (lo[~point], hi[~point], lo[point])


class BorelSet:
    """Disjoint union of closed intervals and points.

    ``excluded_points`` removes finitely many points from membership tests;
    it never affects measure (which refers to the closure).  The constructor
    takes the columns in normal form; callers build sets with ``make``.
    """

    # No set has a symbolic fat-Cantor part; ``svc`` stays None for readers
    # that count one, such as the benchmark's traced mode.
    svc = None

    def __init__(self, lo=_NONE, hi=_NONE, points=_NONE, excluded=_NONE):
        self._lo, self._hi, self._pts, self._excl = lo, hi, points, excluded

    @staticmethod
    def make(intervals=(), points=(), excluded_points=()) -> "BorelSet":
        """The set from lists: intervals as (lo, hi) pairs (those with
        hi < lo are dropped), points and excluded points as floats."""
        pts, excl = (
            np.array(p, dtype=float).reshape(-1) if len(p) else _NONE
            for p in (points, excluded_points)
        )
        if not len(intervals):
            return _settle(_NONE, _NONE, pts, excl)
        lo, hi = np.array(intervals, dtype=float).reshape(-1, 2).T
        proper = hi > lo
        if not proper.all():
            # a degenerate interval is a point
            pts = _cat(pts, lo[hi == lo])
            lo, hi = lo[proper], hi[proper]
        return BorelSet._make(lo, hi, pts, excl)

    @staticmethod
    def _make(lo, hi, pts=_NONE, excl=_NONE) -> "BorelSet":
        """``make`` of column arrays, the intervals of positive length."""
        return _settle(*_merge(lo, hi), pts, excl)

    # -- queries ---------------------------------------------------------

    @property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self._lo.tolist(), self._hi.tolist()))

    @property
    def points(self) -> tuple[float, ...]:
        return tuple(self._pts.tolist())

    @property
    def excluded_points(self) -> tuple[float, ...]:
        return tuple(self._excl.tolist())

    @property
    def is_empty(self) -> bool:
        return not len(self._lo) and not len(self._pts)

    def lebesgue(self) -> float:
        # the lengths summed from the left, one at a time
        return float(sum((self._hi - self._lo).tolist()))

    def _member(self, x: np.ndarray) -> np.ndarray:
        """Membership of each entry of the 1-d float array x."""
        res = _covers(self._lo, self._hi, x) if len(self._lo) else np.zeros(len(x), dtype=bool)
        if len(self._pts):
            res |= _covers(self._pts, self._pts, x)
        if len(self._excl):
            res &= ~_covers(self._excl, self._excl, x)
        return res

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        res = self._member(x.reshape(-1)).reshape(x.shape)
        return res if res.shape else bool(res)

    def __contains__(self, x) -> bool:
        return bool(self.contains(x))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorelSet):
            return NotImplemented
        cols = ("_lo", "_hi", "_pts", "_excl")
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in cols)

    def __hash__(self) -> int:
        return hash((self.intervals, self.points, self.excluded_points))

    def __repr__(self) -> str:
        return (
            f"BorelSet(intervals={self.intervals!r}, points={self.points!r}, "
            f"excluded_points={self.excluded_points!r})"
        )

    # -- algebra ---------------------------------------------------------

    def union(self, other: "BorelSet") -> "BorelSet":
        if self.is_empty or other.is_empty:
            # the other operand, already in normal form
            return other if self.is_empty else self
        # a point excluded from one side is in the union iff the other side has it
        sides = ((self, other), (other, self))
        excl = _cat(*(s._excl[~o._member(s._excl)] for s, o in sides if len(s._excl)))
        lo, hi = _merge(_cat(self._lo, other._lo), _cat(self._hi, other._hi))
        return _settle(lo, hi, _cat(self._pts, other._pts), excl)

    def intersect(self, other: "BorelSet") -> "BorelSet":
        lo, hi, deg = _sweep((self._lo, self._hi), (other._lo, other._hi))
        sides = ((self, other), (other, self))
        pts = (s._pts[o._member(s._pts)] for s, o in sides if len(s._pts))
        return _settle(lo, hi, _cat(*pts, deg), _cat(self._excl, other._excl))

    def complement_within(self, lo: float, hi: float) -> "BorelSet":
        """Closure of the complement of this set inside [lo, hi]: the gaps
        between the intervals that meet (lo, hi)."""
        a_lo, a_hi = self._lo, self._hi
        on = (a_hi > lo) & (a_lo < hi)
        g_lo = np.concatenate(([lo], np.minimum(a_hi[on], hi)))
        g_hi = np.concatenate((np.maximum(a_lo[on], lo), [hi]))
        gap = g_lo < g_hi
        # isolated points of this set are not in the complement
        excl = self._pts[(lo <= self._pts) & (self._pts <= hi)]
        return _settle(g_lo[gap], g_hi[gap], _NONE, excl)

    def difference(self, other: "BorelSet") -> "BorelSet":
        if other.is_empty:
            return self
        if not len(self._lo):
            return BorelSet(points=self._pts[~other._member(self._pts)])
        ends = _cat(self._lo[:1], self._hi[-1:], self._pts)
        return self.intersect(other.complement_within(ends.min() - 1.0, ends.max() + 1.0))

    def without_points(self, points) -> "BorelSet":
        """Drop finitely many points from membership (measure unchanged)."""
        drop = _unique(np.array(points, dtype=float).reshape(-1))
        if not len(drop):
            return self
        pts = self._pts[~_covers(drop, drop, self._pts)]
        return BorelSet(self._lo, self._hi, pts, _unique(_cat(self._excl, drop)))


def _settle(lo, hi, pts, excl) -> BorelSet:
    """The set of the sorted, apart intervals [lo, hi] and the candidate
    points and exclusions, in normal form.  An excluded point is no point,
    a point the intervals cover is dropped, and so is an exclusion that
    punctures nothing."""

    def core(x):
        return _covers(lo, hi, x) if len(lo) else np.zeros(len(x), dtype=bool)

    if len(excl):
        excl = _unique(excl)
    if len(pts):
        pts = _unique(pts)
        out = core(pts)
        if len(excl):
            out |= _covers(excl, excl, pts)
        pts = pts[~out]
    if len(excl):
        excl = excl[core(excl)]
    return BorelSet(lo, hi, pts, excl)


EMPTY = BorelSet()


def svc_set(depth: int, base_lo: float = 0.0, base_hi: float = 1.0) -> BorelSet:
    """The depth-n Smith-Volterra-Cantor set on [base_lo, base_hi]: the
    canonical construction on [0, 1], mapped affinely onto the base, as its
    2^n retained closed intervals."""
    if not isinstance(depth, int) or depth < 1:
        raise ValueError("depth must be a positive integer")
    if depth > _MAX_SVC_DEPTH:
        raise ValueError(f"depth {depth} exceeds the supported maximum {_MAX_SVC_DEPTH}")
    if not base_lo < base_hi:
        raise ValueError("empty base interval")
    lo, hi = (base_lo + u * (base_hi - base_lo) for u in _svc_unit(depth))
    # on [0, 1] the ends are exact and apart; a base far from the origin
    # can round a gap shut, and make merges what it closes
    return BorelSet.make(np.stack([lo, hi], 1))
