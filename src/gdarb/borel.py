"""Finite representations of Borel subsets of the real line.

A set is stored as a disjoint union of closed intervals, isolated points,
and at most one Smith-Volterra-Cantor ("fat Cantor") component.  All
operations (Lebesgue measure, membership, boolean algebra) are exact for
this class of sets.  Membership has one rule, ``BorelSet._member``: one
``searchsorted`` over the merged intervals and the points, then the SVC part
and the exclusions; every query and operation asks it once per operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "BorelSet",
    "SVCSet",
    "svc_set",
    "svc_measure",
    "EMPTY",
]

# Expanding a depth-n SVC set materializes 2^n intervals.
_SVC_EXPAND_CAP = 20
_MAX_SVC_DEPTH = 30


def svc_measure(depth: int) -> float:
    """Lebesgue measure of the depth-n SVC subset of [0, 1].

    Stage k removes 2^(k-1) middle intervals of length 4^(-k), so the
    retained mass is 1 - sum_k 2^(k-1) 4^(-k) = 1/2 + 2^(-n-1).
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return float(Fraction(1, 2) + Fraction(1, 2 ** (depth + 1)))


@lru_cache(maxsize=8)
def _svc_intervals(depth: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """The retained intervals of the depth-n SVC subset of [0, 1], exact.

    Enumerated once per depth (a depth-6 set takes about 1 ms in
    ``Fraction``s); the cache holds the last few depths asked for.
    """
    ivs = [(Fraction(0), Fraction(1))]
    for k in range(1, depth + 1):
        gap = Fraction(1, 4**k)
        nxt = []
        for lo, hi in ivs:
            half = (hi - lo - gap) / 2
            nxt.append((lo, lo + half))
            nxt.append((hi - half, hi))
        ivs = nxt
    return tuple(ivs)


@dataclass(frozen=True)
class SVCSet:
    """Depth-n Smith-Volterra-Cantor subset of [base_lo, base_hi].

    The construction is the canonical one on [0, 1], mapped affinely onto
    the base interval.
    """

    depth: int
    base_lo: float = 0.0
    base_hi: float = 1.0

    def __post_init__(self):
        if not (1 <= self.depth <= _MAX_SVC_DEPTH):
            raise ValueError(f"SVC depth must be in [1, {_MAX_SVC_DEPTH}]")
        if not self.base_lo < self.base_hi:
            raise ValueError("empty base interval")

    @property
    def scale(self) -> float:
        return self.base_hi - self.base_lo

    def measure(self) -> float:
        return svc_measure(self.depth) * self.scale

    def to_intervals(self) -> list[tuple[float, float]]:
        if self.depth > _SVC_EXPAND_CAP:
            raise ValueError(
                f"refusing to expand SVC set of depth {self.depth} "
                f"(> {_SVC_EXPAND_CAP})"
            )
        a, w = self.base_lo, self.scale
        return [(a + float(lo) * w, a + float(hi) * w) for lo, hi in _svc_intervals(self.depth)]

    def contains(self, x):
        """Exact membership, vectorized; works at any depth without expansion."""
        x = np.asarray(x, dtype=float)
        # map into canonical coordinates
        z = (x - self.base_lo) / self.scale
        inside = (z >= 0.0) & (z <= 1.0)
        lo = np.zeros_like(z)
        length = np.ones_like(z)
        for k in range(1, self.depth + 1):
            gap = 4.0**-k
            half = (length - gap) / 2.0
            in_left = z <= lo + half
            in_right = z >= lo + length - half
            inside &= in_left | in_right
            lo = np.where(in_right, lo + length - half, lo)
            length = half
        return inside if inside.shape else bool(inside)


def _merge_intervals(ivs):
    ivs = sorted((lo, hi) for lo, hi in ivs if hi >= lo)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out if hi > lo), tuple(
        lo for lo, hi in out if hi == lo
    )


def _in_any(x: np.ndarray, ivs) -> np.ndarray:
    """Whether each entry of x lies in one of the disjoint closed intervals:
    the last interval to start at or before x ends at or after it."""
    ivs = sorted(ivs)
    ends = np.array([np.nan] + [b for _, b in ivs])  # nan: none starts before x
    return x <= ends[np.array([a for a, _ in ivs]).searchsorted(x, "right")]


@dataclass(frozen=True)
class BorelSet:
    """Disjoint union of closed intervals, points, and an optional SVC part.

    ``excluded_points`` removes finitely many points from membership tests;
    it never affects measure (which refers to the closure).
    """

    intervals: tuple[tuple[float, float], ...] = ()
    points: tuple[float, ...] = ()
    svc: SVCSet | None = None
    excluded_points: tuple[float, ...] = ()

    @staticmethod
    def make(intervals=(), points=(), svc=None, excluded_points=()) -> "BorelSet":
        # the svc part stays symbolic only while no interval overlaps its
        # base; otherwise the measure would count the overlap twice.  An
        # interval that covers the whole base makes it redundant; one that
        # covers a part makes it expand into intervals.
        ivs, degenerate = _merge_intervals(intervals)
        if svc is not None:
            if any(lo <= svc.base_lo and svc.base_hi <= hi for lo, hi in ivs):
                svc = None
            elif any(lo < svc.base_hi and hi > svc.base_lo for lo, hi in ivs):
                ivs, degenerate = _merge_intervals(list(intervals) + svc.to_intervals())
                svc = None
        excl = set(float(p) for p in excluded_points)
        pts = tuple(sorted((set(float(p) for p in points) | set(degenerate)) - excl))
        excl = tuple(sorted(excl))
        if pts or excl:
            # points the rest covers are dropped; exclusions it does not
            # cover puncture nothing and are dropped too
            core = BorelSet(ivs, (), svc)
            pts, excl = core._select(pts, False), core._select(excl, True)
        return BorelSet(ivs, pts, svc, excl)

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points and self.svc is None

    def lebesgue(self) -> float:
        total = sum(hi - lo for lo, hi in self.intervals)
        if self.svc is not None:
            total += self.svc.measure()
        return float(total)

    def _member(self, x: np.ndarray) -> np.ndarray:
        """Membership of each entry of the 1-d float array x; a point is a
        degenerate interval."""
        res = _in_any(x, self.intervals + tuple(zip(self.points, self.points)))
        if self.svc is not None:
            res |= self.svc.contains(x)
        if self.excluded_points:
            res &= ~_in_any(x, tuple(zip(self.excluded_points, self.excluded_points)))
        return res

    def _select(self, pts: tuple[float, ...], inside: bool) -> tuple[float, ...]:
        """The points that are in this set (``inside``) or are not."""
        empty = not pts or self.is_empty
        hits = [False] * len(pts) if empty else self._member(np.array(pts)).tolist()
        return tuple(p for p, m in zip(pts, hits) if m == inside)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        res = self._member(x.reshape(-1)).reshape(x.shape)
        return res if res.shape else bool(res)

    def __contains__(self, x) -> bool:
        return bool(self.contains(x))

    # -- algebra ---------------------------------------------------------

    def _all_intervals(self) -> list[tuple[float, float]]:
        ivs = list(self.intervals)
        if self.svc is not None:
            ivs.extend(self.svc.to_intervals())
        return ivs

    def union(self, other: "BorelSet") -> "BorelSet":
        # a point excluded from one side is in the union iff the other side has it
        excl = other._select(self.excluded_points, False) + self._select(
            other.excluded_points, False
        )
        # one svc part stays symbolic; two different ones are expanded
        svc = self.svc or other.svc
        if self.svc is not None and other.svc is not None and self.svc != other.svc:
            svc = None
        ivs = []
        for part in (self, other):
            ivs += part.intervals if part.svc == svc else part._all_intervals()
        return BorelSet.make(ivs, self.points + other.points, svc=svc, excluded_points=excl)

    def intersect(self, other: "BorelSet") -> "BorelSet":
        excl = self.excluded_points + other.excluded_points
        if self.svc is not None and self.svc == other.svc:
            rest = BorelSet(self.intervals, self.points).intersect(
                BorelSet(other.intervals, other.points)
            )
            return BorelSet.make(
                rest.intervals, rest.points, svc=self.svc, excluded_points=excl
            )
        # both lists are sorted, and their intervals at most touch: walk
        # them together, stepping past whichever interval ends first
        a, b = sorted(self._all_intervals()), sorted(other._all_intervals())
        ivs, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if lo <= hi:
                ivs.append((lo, hi))
            i, j = i + (a[i][1] <= b[j][1]), j + (b[j][1] <= a[i][1])
        pts = other._select(self.points, True) + self._select(other.points, True)
        return BorelSet.make(ivs, pts, excluded_points=excl)

    def complement_within(self, lo: float, hi: float) -> "BorelSet":
        """Closure of the complement of this set inside [lo, hi]."""
        ivs = sorted(
            (max(a, lo), min(b, hi)) for a, b in self._all_intervals() if b > lo and a < hi
        )
        # the gaps between consecutive intervals, which at most touch
        ends = [lo, *(e for iv in ivs for e in iv), hi]
        out = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
        # isolated points of this set are not in the complement
        excl = tuple(p for p in self.points if lo <= p <= hi)
        return BorelSet.make(out, excluded_points=excl)

    def difference(self, other: "BorelSet") -> "BorelSet":
        if other.is_empty:
            return self
        if not self.intervals and self.svc is None:
            return BorelSet.make(points=other._select(self.points, False))
        ends = [e for iv in self._all_intervals() for e in iv] + list(self.points)
        lo, hi = min(ends), max(ends)
        return self.intersect(other.complement_within(lo - 1.0, hi + 1.0))

    def without_points(self, points) -> "BorelSet":
        """Drop finitely many points from membership (measure unchanged)."""
        drop = set(points)
        return BorelSet(
            self.intervals,
            tuple(p for p in self.points if p not in drop),
            self.svc,
            tuple(sorted(set(self.excluded_points) | drop)),
        )


EMPTY = BorelSet()


def svc_set(depth: int, base_lo: float = 0.0, base_hi: float = 1.0) -> BorelSet:
    """The depth-n Smith-Volterra-Cantor set as a BorelSet."""
    if not isinstance(depth, int) or depth < 1:
        raise ValueError("depth must be a positive integer")
    if depth > _MAX_SVC_DEPTH:
        raise ValueError(f"depth {depth} exceeds the supported maximum {_MAX_SVC_DEPTH}")
    return BorelSet(svc=SVCSet(depth, base_lo, base_hi))

