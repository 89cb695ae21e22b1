import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import borel_oracle
from gdarb import catalog as cat
from gdarb.borel import EMPTY, BorelSet, SVCSet, svc_measure, svc_set


def removed_mass_oracle(depth):
    # enumerate the removal schedule: stage k removes 2^(k-1) gaps of 4^-k
    return sum(2 ** (k - 1) * 4.0**-k for k in range(1, depth + 1))


def test_svc_measure_depth1():
    assert svc_measure(1) == 0.75


def test_svc_measure_depth2_oracle():
    assert svc_measure(2) == pytest.approx(1.0 - removed_mass_oracle(2), abs=0)
    assert svc_measure(2) == 0.625


def test_svc_measure_depth4_exact():
    assert svc_measure(4) == 0.53125


def test_svc_measure_matches_interval_expansion():
    for depth in range(1, 8):
        s = SVCSet(depth)
        total = sum(hi - lo for lo, hi in s.to_intervals())
        assert total == pytest.approx(s.measure(), abs=1e-15)


def test_svc_measure_monotone_and_above_half():
    vals = [svc_measure(n) for n in range(1, 25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0.5 for v in vals)
    # geometric series limit
    assert svc_measure(30) == pytest.approx(0.5, abs=1e-8)


def test_svc_contains_matches_intervals():
    s = SVCSet(3)
    xs = np.linspace(-0.1, 1.1, 4001)
    ivs = s.to_intervals()
    brute = np.array([any(lo <= x <= hi for lo, hi in ivs) for x in xs])
    assert np.array_equal(s.contains(xs), brute)


def dist_oracle(f_set, x):
    """Brute-force distance from x to the retained intervals of f_set."""
    return min(max(lo - x, 0.0) + max(x - hi, 0.0) for lo, hi in f_set._all_intervals())


# the fat-cantor q' is the distance to its set F = svc_set(depth)


def test_svc_distance_first_gap_midpoint():
    # first removed gap has length 1/4, centered at 1/2
    qp = cat.fat_cantor_model(depth=1).q_prime
    assert qp(0.5) == pytest.approx(0.125, abs=1e-15)


def test_svc_distance_outside():
    qp = cat.fat_cantor_model(depth=4).q_prime
    assert qp(-0.3) == pytest.approx(0.3, abs=1e-15)
    assert qp(1.2) == pytest.approx(0.2, abs=1e-15)


def test_svc_distance_grid_oracle():
    qp = cat.fat_cantor_model(depth=2).q_prime
    s = svc_set(2)
    rng = np.random.default_rng(7)
    for x in rng.uniform(-0.2, 1.2, 200):
        assert qp(x) == pytest.approx(dist_oracle(s, x), abs=1e-14)


def test_distance_zero_iff_member():
    qp = cat.fat_cantor_model(depth=3).q_prime
    s = svc_set(3)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 1.0, 500):
        member = bool(s.contains(x))
        assert (qp(x) == 0.0) == member


def test_svc_depth_validation():
    with pytest.raises(ValueError):
        svc_set(0)
    with pytest.raises(ValueError):
        svc_set(31)
    with pytest.raises(ValueError):
        SVCSet(25).to_intervals()


def test_borel_make_normalizes():
    s = BorelSet.make([(0.0, 1.0), (0.5, 2.0)], points=[0.3, 3.0])
    assert s.intervals == ((0.0, 2.0),)
    assert s.points == (3.0,)
    assert s.lebesgue() == 2.0


def test_borel_membership_and_exclusions():
    s = BorelSet.make([(0.0, 1.0)], points=[2.0]).without_points([0.5, 2.0])
    assert 0.25 in s
    assert 0.5 not in s
    assert 2.0 not in s
    assert s.lebesgue() == 1.0  # exclusions never change measure


def test_borel_union_intersect_complement():
    a = BorelSet.make([(0.0, 1.0)])
    b = BorelSet.make([(0.5, 2.0)], points=[5.0])
    u = a.union(b)
    assert u.lebesgue() == 2.0
    assert 5.0 in u
    i = a.intersect(b)
    assert i.intervals == ((0.5, 1.0),)
    c = a.complement_within(-1.0, 2.0)
    assert c.intervals == ((-1.0, 0.0), (1.0, 2.0))


def test_borel_difference():
    a = BorelSet.make([(0.0, 2.0)])
    b = BorelSet.make([(0.5, 1.0)])
    d = a.difference(b)
    assert d.lebesgue() == pytest.approx(1.5, abs=1e-15)
    assert 0.75 not in d or d.lebesgue() != 1.5  # interior of b removed
    assert 0.25 in d and 1.5 in d


def test_borel_svc_algebra():
    f = svc_set(2)
    window = BorelSet.make([(0.0, 1.0)])
    assert f.intersect(window).lebesgue() == pytest.approx(svc_measure(2), abs=1e-15)
    comp = f.complement_within(0.0, 1.0)
    assert comp.lebesgue() == pytest.approx(1.0 - svc_measure(2), abs=1e-15)
    assert f.union(EMPTY).lebesgue() == pytest.approx(svc_measure(2), abs=1e-15)
    # an interval overlapping the base expands the svc part; one that only
    # touches the base leaves it symbolic
    assert BorelSet.make([(-1.0, 2.0)], svc=SVCSet(3)).lebesgue() == 3.0
    # an interval covering the whole base drops the svc part, at any depth
    covered = BorelSet.make([(-1.0, 2.0)], svc=SVCSet(25))
    assert covered.svc is None and covered.lebesgue() == 3.0
    assert BorelSet.make([(-1.0, 0.5), (0.5, 2.0)], svc=SVCSet(25)).lebesgue() == 3.0
    touching = BorelSet.make([(1.0, 2.0)], svc=SVCSet(3))
    assert touching.svc == SVCSet(3)
    assert touching.lebesgue() == 1.0 + svc_measure(3)


def test_empty_set():
    assert EMPTY.is_empty
    assert EMPTY.lebesgue() == 0.0


# ---------------------------------------------------------------------------
# measure identities of the set algebra, the svc part included
# ---------------------------------------------------------------------------

# quarter-grid coordinates make shared and touching endpoints likely
_coord = st.one_of(st.integers(-12, 12).map(lambda k: k / 4), st.floats(-3.0, 3.0))
_svc = st.builds(
    lambda depth, lo, width: SVCSet(depth, lo, lo + width),
    st.integers(1, 5),
    _coord,
    st.sampled_from([0.25, 1.0, 1.5, 2.0]),
)
_sets = st.builds(
    BorelSet.make,
    st.lists(st.tuples(_coord, _coord).map(sorted), max_size=3),
    st.lists(_coord, max_size=2),
    st.one_of(st.none(), _svc),
)


@settings(max_examples=300)
@given(a=_sets, b=_sets, window=st.tuples(_coord, _coord).map(sorted))
def test_measure_identities(a, b, window):
    both = a.intersect(b).lebesgue()
    assert a.union(b).lebesgue() + both == pytest.approx(a.lebesgue() + b.lebesgue(), abs=1e-12)
    assert a.difference(b).lebesgue() + both == pytest.approx(a.lebesgue(), abs=1e-12)
    lo, hi = window
    inside = a.intersect(BorelSet.make([(lo, hi)])).lebesgue()
    assert a.complement_within(lo, hi).lebesgue() + inside == pytest.approx(hi - lo, abs=1e-12)


# ---------------------------------------------------------------------------
# the one membership rule against the interval-by-interval oracle
# ---------------------------------------------------------------------------

_quarter = st.integers(-12, 12).map(lambda k: k / 4)
_svc_part = st.builds(
    lambda depth, lo, width: SVCSet(depth, lo, lo + width),
    st.integers(1, 6),
    _quarter,
    st.sampled_from([0.25, 1.0, 1.5, 2.0]),
)


def _shifted(svc, how):
    """The up to 64 intervals of an expanded svc set, shifted by nothing, by
    grid steps, by its first gap or by its first interval's length, so that
    they overlap or touch the other operand's intervals or its svc part."""
    ivs = svc.to_intervals()
    gap, length = ivs[1][0] - ivs[0][1], ivs[0][1] - ivs[0][0]
    shift = {"none": 0.0, "up": 0.25, "down": -0.5, "gap": gap, "length": length}[how]
    return [(a + shift, b + shift) for a, b in ivs]


_expanded = st.builds(_shifted, _svc_part, st.sampled_from(["none", "up", "down", "gap", "length"]))
_parts = st.tuples(
    st.one_of(st.lists(st.tuples(_quarter, _quarter).map(sorted), max_size=4), _expanded),
    st.lists(_quarter, max_size=3),
    st.one_of(st.none(), _svc_part),
    st.lists(_quarter, max_size=3),
)


def _fields(s):
    return repr((s.intervals, s.points, s.svc, s.excluded_points))


def _same_set(new, old, probes):
    assert _fields(new) == _fields(old)
    assert new.lebesgue().hex() == old.lebesgue().hex()
    # the probes cover the eighth grid and every interval end, the svc
    # part's included
    xs = np.concatenate([probes, [e for iv in old._all_intervals() for e in iv]])
    got = new.contains(xs)
    assert got.dtype == bool and np.array_equal(got, old.contains(xs))
    for x in xs[::5]:
        got = new.contains(x)
        assert type(got) is bool and got == old.contains(x)


@settings(max_examples=400)
@given(a=_parts, b=_parts, window=st.tuples(_quarter, _quarter).map(sorted),
       drop=st.lists(_quarter, max_size=3))
def test_algebra_matches_oracle(a, b, window, drop):
    probes = np.arange(-4 * 8, 4 * 8 + 1) / 8
    new_a, new_b = BorelSet.make(*a), BorelSet.make(*b)
    old_a, old_b = borel_oracle.BorelSet.make(*a), borel_oracle.BorelSet.make(*b)
    _same_set(new_a, old_a, probes)
    _same_set(new_b, old_b, probes)
    _same_set(new_a.union(new_b), old_a.union(old_b), probes)
    _same_set(new_a.intersect(new_b), old_a.intersect(old_b), probes)
    _same_set(new_a.difference(new_b), old_a.difference(old_b), probes)
    _same_set(new_b.difference(new_a), old_b.difference(old_a), probes)
    _same_set(new_a.complement_within(*window), old_a.complement_within(*window), probes)
    _same_set(new_a.without_points(drop), old_a.without_points(drop), probes)
