"""The Borel-set algebra before its one membership rule, kept as the oracle
of ``gdarb.borel.BorelSet``: membership tested interval by interval and
point by point, and intersections formed from every pair of intervals.
``svc_contains`` is the fat-Cantor membership by the canonical per-stage
recursion, the reference of ``gdarb.borel.svc_set``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class BorelSet:
    """Disjoint union of closed intervals and points.

    ``excluded_points`` removes finitely many points from membership tests;
    it never affects measure (which refers to the closure).
    """

    intervals: tuple[tuple[float, float], ...] = ()
    points: tuple[float, ...] = ()
    excluded_points: tuple[float, ...] = ()

    @staticmethod
    def make(intervals=(), points=(), excluded_points=()) -> "BorelSet":
        ivs, degenerate = _merge_intervals(intervals)
        excl = set(float(p) for p in excluded_points)
        pts = (set(float(p) for p in points) | set(degenerate)) - excl
        pts = tuple(
            sorted(
                p
                for p in pts
                if not any(lo <= p <= hi for lo, hi in ivs)
            )
        )
        # keep only exclusions that actually puncture the set
        excl = tuple(
            sorted(
                p
                for p in excl
                if any(lo <= p <= hi for lo, hi in ivs)
            )
        )
        return BorelSet(ivs, pts, excl)

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    def lebesgue(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        res = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            res |= (x >= lo) & (x <= hi)
        for p in self.points:
            res |= x == p
        for p in self.excluded_points:
            res &= x != p
        return res if res.shape else bool(res)

    def __contains__(self, x) -> bool:
        return bool(self.contains(x))

    # -- algebra ---------------------------------------------------------

    def union(self, other: "BorelSet") -> "BorelSet":
        # a point excluded from one side is in the union iff the other side has it
        excl = tuple(
            p for p in self.excluded_points if not other.contains(p)
        ) + tuple(p for p in other.excluded_points if not self.contains(p))
        ivs = self.intervals + other.intervals
        return BorelSet.make(ivs, self.points + other.points, excluded_points=excl)

    def intersect(self, other: "BorelSet") -> "BorelSet":
        excl = self.excluded_points + other.excluded_points
        ivs = []
        for lo1, hi1 in self.intervals:
            for lo2, hi2 in other.intervals:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if lo < hi:
                    ivs.append((lo, hi))
                elif lo == hi:
                    ivs.append((lo, lo))
        pts = [p for p in self.points if other.contains(p)]
        pts += [p for p in other.points if self.contains(p)]
        return BorelSet.make(ivs, pts, excluded_points=excl)

    def complement_within(self, lo: float, hi: float) -> "BorelSet":
        """Closure of the complement of this set inside [lo, hi]."""
        ivs = sorted(
            (max(a, lo), min(b, hi)) for a, b in self.intervals if b > lo and a < hi
        )
        out = []
        cur = lo
        for a, b in ivs:
            if a > cur:
                out.append((cur, a))
            cur = max(cur, b)
        if cur < hi:
            out.append((cur, hi))
        # isolated points of this set are not in the complement
        excl = tuple(p for p in self.points if lo <= p <= hi)
        return BorelSet.make(out, excluded_points=excl)

    def difference(self, other: "BorelSet") -> "BorelSet":
        if other.is_empty:
            return self
        if not self.intervals:
            pts = tuple(p for p in self.points if not other.contains(p))
            return BorelSet.make(points=pts)
        lo = min([iv[0] for iv in self.intervals] + list(self.points))
        hi = max([iv[1] for iv in self.intervals] + list(self.points))
        return self.intersect(other.complement_within(lo - 1.0, hi + 1.0))

    def without_points(self, points) -> "BorelSet":
        """Drop finitely many points from membership (measure unchanged)."""
        pts = tuple(p for p in self.points if p not in set(points))
        return BorelSet(
            self.intervals,
            pts,
            tuple(sorted(set(self.excluded_points) | set(points))),
        )


def svc_contains(depth, x, base_lo=0.0, base_hi=1.0):
    """Membership in the depth-n Smith-Volterra-Cantor subset of
    [base_lo, base_hi], stage by stage: x is mapped into [0, 1], and at
    stage k each retained interval keeps the parts left and right of its
    middle gap of length 4^-k."""
    x = np.asarray(x, dtype=float)
    z = (x - base_lo) / (base_hi - base_lo)
    inside = (z >= 0.0) & (z <= 1.0)
    lo = np.zeros_like(z)
    length = np.ones_like(z)
    for k in range(1, depth + 1):
        half = (length - 4.0**-k) / 2.0
        in_left = z <= lo + half
        in_right = z >= lo + length - half
        inside &= in_left | in_right
        lo = np.where(in_right, lo + length - half, lo)
        length = half
    return inside
