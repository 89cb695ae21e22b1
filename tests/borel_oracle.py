"""The Borel-set algebra before its one membership rule, kept as the oracle
of ``gdarb.borel.BorelSet``: membership tested interval by interval and
point by point, and intersections formed from every pair of intervals.
The SVC part is the package's own ``SVCSet``, which is unchanged."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gdarb.borel import SVCSet


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
        if svc is not None:
            merged, _ = _merge_intervals(intervals)
            if any(lo <= svc.base_lo and svc.base_hi <= hi for lo, hi in merged):
                svc = None
            elif any(lo < svc.base_hi and hi > svc.base_lo for lo, hi in merged):
                intervals, svc = list(intervals) + svc.to_intervals(), None
        ivs, degenerate = _merge_intervals(intervals)
        excl = set(float(p) for p in excluded_points)
        pts = (set(float(p) for p in points) | set(degenerate)) - excl
        pts = tuple(
            sorted(
                p
                for p in pts
                if not any(lo <= p <= hi for lo, hi in ivs)
                and not (svc is not None and svc.contains(p))
            )
        )
        # keep only exclusions that actually puncture the set
        excl = tuple(
            sorted(
                p
                for p in excl
                if any(lo <= p <= hi for lo, hi in ivs)
                or (svc is not None and bool(svc.contains(p)))
            )
        )
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

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        res = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            res |= (x >= lo) & (x <= hi)
        for p in self.points:
            res |= x == p
        if self.svc is not None:
            res |= self.svc.contains(np.atleast_1d(x)).reshape(x.shape)
        for p in self.excluded_points:
            res &= x != p
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
        excl = tuple(
            p for p in self.excluded_points if not other.contains(p)
        ) + tuple(p for p in other.excluded_points if not self.contains(p))
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
        a_ivs = self._all_intervals()
        b_ivs = other._all_intervals()
        ivs = []
        for lo1, hi1 in a_ivs:
            for lo2, hi2 in b_ivs:
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
            (max(a, lo), min(b, hi)) for a, b in self._all_intervals() if b > lo and a < hi
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
        if not self.intervals and self.svc is None:
            pts = tuple(p for p in self.points if not other.contains(p))
            return BorelSet.make(points=pts)
        lo = min([iv[0] for iv in self._all_intervals()] + list(self.points))
        hi = max([iv[1] for iv in self._all_intervals()] + list(self.points))
        return self.intersect(other.complement_within(lo - 1.0, hi + 1.0))

    def without_points(self, points) -> "BorelSet":
        """Drop finitely many points from membership (measure unchanged)."""
        pts = tuple(p for p in self.points if p not in set(points))
        return BorelSet(
            self.intervals,
            pts,
            self.svc,
            tuple(sorted(set(self.excluded_points) | set(points))),
        )
