import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nu_oracle
from gdarb import catalog as cat
from gdarb.borel import BorelSet, svc_set
from gdarb.measures import (
    SignedMeasure,
    ZERO_MEASURE,
    integrate,
    jordan_hahn,
    sign_sets,
)
from gdarb.piecewise import Affine, Const, Exponential, Log, PiecewiseFn, Poly, Power


def test_atom_dedupe_and_zero_drop():
    m = SignedMeasure(atoms=((1.0, 0.5), (1.0, -0.5), (2.0, 0.3)))
    assert m.atoms == ((2.0, 0.3),)


def test_lebesgue_unit_mass():
    m = SignedMeasure(density=PiecewiseFn.constant(1.0, 0.0, 1.0))
    assert integrate(m, BorelSet.make([(0.0, 1.0)])) == pytest.approx(1.0)


def test_svc_region_riemann_oracle():
    # density x^2 over the depth-2 SVC set
    m = SignedMeasure(density=PiecewiseFn.from_segment(Poly((0.0, 0.0, 1.0)), 0.0, 1.0))
    region = svc_set(2)
    got = integrate(m, region)
    want = 0.0
    for lo, hi in region.intervals:
        xs = np.linspace(lo, hi, 20001)
        want += np.trapezoid(xs * xs, xs)
    assert got == pytest.approx(want, abs=1e-8)


def test_positive_set():
    pw = PiecewiseFn.from_segment(Poly((-1.0, 0.0, 1.0)), -2.0, 2.0)  # x^2 - 1
    ps = sign_sets(pw, -2.0, 2.0)[0]
    assert ps.intervals == ((-2.0, -1.0), (1.0, 2.0))


def _coef(draw):
    # exact zeros make constant, one-term and identically zero segments
    return draw(st.just(0.0) | st.floats(-3.0, 3.0, allow_subnormal=False))


@st.composite
def _segment_on(draw, a, b):
    """A segment of one of six kinds, valid on [a, b]: a power or log
    segment's half-line starts at a (or ends at b) or a gap beyond it."""
    kind = draw(st.sampled_from(["const", "affine", "poly", "power", "exp", "log"]))
    if kind == "const":
        return Const(_coef(draw))
    if kind == "affine":
        return Affine(_coef(draw), _coef(draw))
    if kind == "poly":
        return Poly(tuple(_coef(draw) for _ in range(draw(st.integers(1, 5)))))
    if kind == "exp":
        return Exponential(_coef(draw), _coef(draw), _coef(draw))
    side = draw(st.sampled_from([1, -1]))
    center = (a if side == 1 else b) - side * draw(st.just(0.0) | st.floats(0.0, 1.0))
    if kind == "power":
        exponent = draw(st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0]) | st.floats(0.1, 3.0))
        exponent *= draw(st.sampled_from([1.0, -1.0]))
        return Power(_coef(draw), center, exponent, _coef(draw), side)
    return Log(_coef(draw), side * draw(st.floats(0.2, 5.0)), center, _coef(draw))


@st.composite
def _constant_segment_on(draw, a, b):
    """A Const, Exponential, Log or Power segment that is constant on [a, b]
    (rate, log coefficient or exponent 0), and often identically 0."""
    kind = draw(st.sampled_from(["const", "exp", "log", "power"]))
    value, coeff = _coef(draw), _coef(draw)
    side = draw(st.sampled_from([1, -1]))
    center = (a if side == 1 else b) - side * draw(st.just(0.0) | st.floats(0.0, 1.0))
    if kind == "const":
        return Const(value)
    if kind == "exp":
        return Exponential(coeff, 0.0, value - coeff)
    if kind == "log":
        return Log(0.0, side * draw(st.floats(0.2, 5.0)), center, value)
    if draw(st.booleans()):
        return Power(coeff, center, 0.0, value - coeff, side)
    return Power(0.0, center, draw(st.floats(-3.0, 3.0)), value, side)


@st.composite
def _piecewise_fns(draw, segment_on=_segment_on):
    n = draw(st.integers(1, 4))
    cuts = np.cumsum([draw(st.floats(0.05, 3.0)) for _ in range(n + 1)]) - 4.0
    bps = tuple(float(c) for c in cuts)
    return PiecewiseFn(bps, tuple(draw(segment_on(a, b)) for a, b in zip(bps, bps[1:])))


@settings(max_examples=300)
@given(pw=_piecewise_fns())
# a leading coefficient at the smallest normal double once lost the roots +-1
@example(pw=PiecewiseFn(
    (-3.0, -2.0, 0.0), (Const(0.0), Poly((1.0, 0.0, -1.0, 2.2250738585072014e-308)))
))
def test_positive_set_matches_sign(pw):
    # cutting each segment at its zero set finds every sign change: away
    # from breakpoints and from values too close to 0 to have a sign, the
    # closure of {f > 0} holds x exactly when f(x) > 0
    xs = np.linspace(pw.lo, pw.hi, 401)[1:-1]
    xs = xs[np.min(np.abs(xs[:, None] - np.array(pw.breakpoints)), axis=1) > 1e-9]
    with np.errstate(all="ignore"):
        fx = np.asarray(pw(xs))
        inside = sign_sets(pw, pw.lo, pw.hi)[0].contains(xs)
    clear = np.isfinite(fx) & (np.abs(fx) > 1e-6)
    assert np.array_equal(inside[clear], fx[clear] > 0.0)


@st.composite
def _decaying_tail(draw, end, side):
    """A Power or Exponential piece on the half-line beyond the finite end
    (side +1: [end, inf), -1: (-inf, end]) that decays to 0 at infinity."""
    coeff = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.1, 3.0))
    if draw(st.booleans()):
        center = end - side * draw(st.floats(0.25, 2.0))
        return Power(coeff, center, -draw(st.floats(0.5, 3.0)), 0.0, side)
    return Exponential(coeff, -side * draw(st.floats(0.1, 3.0)), 0.0)


@st.composite
def _unbounded_fns(draw):
    """Finite pieces between two decaying tails on the whole line."""
    finite = draw(_piecewise_fns())
    bps = (-np.inf, *finite.breakpoints, np.inf)
    tails = draw(_decaying_tail(finite.lo, -1)), draw(_decaying_tail(finite.hi, 1))
    return PiecewiseFn(bps, (tails[0], *finite.segments, tails[1]))


@settings(max_examples=200)
@given(pw=_unbounded_fns(), cut=st.tuples(st.floats(-12.0, 16.0), st.floats(-12.0, 16.0)))
# the root of -4.2e-62 (x + 3)^0.125 + 1 lies past every float: its zero
# rule once raised OverflowError
@example(pw=PiecewiseFn((-np.inf, -3.0, -2.0, np.inf), (
    Exponential(1.0, 1.0), Power(-4.176500047708365e-62, -3.0, 0.125, 1.0), Exponential(1.0, -1.0)
)), cut=(0.0, 1.0))
def test_unbounded_sign_pass_cut_to_a_window(pw, cut):
    # an unbounded cell is read at a finite point, 1 inside its finite end:
    # read at +-inf, a tail that decays to 0 has no sign and drops out
    a, b = sorted(cut)
    assume(a < b)
    with np.errstate(all="ignore"):
        whole = sign_sets(pw, pw.lo, pw.hi)
        # a set that ends at a or b cut to [a, b] keeps that end as a point,
        # and a cut where pw reads 0 (by underflow, say) is excluded
        assume(not {a, b} & {e for side in whole for iv in side.intervals for e in iv})
        assume(pw(np.array([a, b])).all())
        window = BorelSet.make([(a, b)])
        assert tuple(side.intersect(window) for side in whole[:2]) == sign_sets(pw, a, b)[:2]


@settings(max_examples=300)
@given(pw=_piecewise_fns())
# many pieces: the depth-6 fat-Cantor q' has 192
@example(pw=cat.fat_cantor_model(depth=6).q_prime.restricted(-0.5, 1.5))
def test_piecewise_scalar_calls_equal_array_calls(pw):
    # one piece lookup: a scalar call gives, bit for bit, the entry of an
    # array call, at the breakpoints, between them and beyond both ends
    xs = np.concatenate([
        np.linspace(pw.lo - 0.5, pw.hi + 0.5, 51), pw.breakpoints, [-0.0, 0.0, np.nan]
    ])
    with np.errstate(all="ignore"):
        whole = pw(xs)
        one_by_one = np.array([pw(x) for x in xs])
        rows = pw(np.stack([xs[::-1], xs]))
    assert type(pw(xs[0])) is float and rows.shape == (2, len(xs))
    assert np.array_equal(whole.view(np.uint64), one_by_one.view(np.uint64))
    assert np.array_equal(rows[1].view(np.uint64), whole.view(np.uint64))


@settings(max_examples=300)
@given(pw=_piecewise_fns(lambda a, b: _segment_on(a, b) | _constant_segment_on(a, b)))
def test_piecewise_zero_set_matches_values(pw):
    # away from breakpoints and from the isolated roots, which are rounded,
    # x is in the zero set exactly when f(x) == 0: an identically zero
    # segment of any kind contributes its whole interval
    with np.errstate(all="ignore"):
        zs = sign_sets(pw, pw.lo, pw.hi)[2]
    xs = np.linspace(pw.lo, pw.hi, 401)[1:-1]
    far = np.array(pw.breakpoints + zs.points)
    xs = xs[np.min(np.abs(xs[:, None] - far), axis=1) > 1e-9]
    with np.errstate(all="ignore"):
        fx = np.asarray(pw(xs))
    finite = np.isfinite(fx)
    assert np.array_equal(zs.contains(xs)[finite], fx[finite] == 0.0)


def test_jordan_hahn_positive_atom():
    nu = SignedMeasure(atoms=((0.0, 0.3),))
    pos, neg, n_plus, n_minus = jordan_hahn(nu, domain=(-1.0, 1.0))
    assert pos.atoms == ((0.0, 0.3),)
    assert nu_oracle.is_zero(neg)
    assert 0.0 in n_plus
    assert 0.0 not in n_minus


def test_jordan_hahn_negative_atom():
    nu = SignedMeasure(atoms=((2.0, -0.3),))
    pos, neg, n_plus, n_minus = jordan_hahn(nu, domain=(1.0, 3.0))
    assert nu_oracle.is_zero(pos)
    assert neg.atoms == ((2.0, 0.3),)
    assert 2.0 in n_minus
    assert 2.0 not in n_plus


def test_jordan_hahn_zero_measure():
    pos, neg, n_plus, n_minus = jordan_hahn(ZERO_MEASURE, domain=(-1.0, 1.0))
    assert nu_oracle.is_zero(pos) and nu_oracle.is_zero(neg)
    assert n_plus.is_empty


def test_jordan_hahn_mixed_density():
    pw = PiecewiseFn.from_segment(Affine(0.0, 1.0), -1.0, 1.0)  # density x
    nu = SignedMeasure(density=pw, atoms=((2.0, -1.0),))
    pos, neg, n_plus, n_minus = jordan_hahn(nu, domain=(-1.0, 3.0))
    assert integrate(pos) == pytest.approx(0.5, abs=1e-12)
    assert integrate(neg) == pytest.approx(0.5 + 1.0, abs=1e-12)
    assert 0.5 in n_plus and -0.5 in n_minus and 2.0 in n_minus


def test_jordan_reconstruction_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = tuple(rng.uniform(-1, 1, 3))
        atoms = tuple(
            (float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1))) for _ in range(3)
        )
        nu = SignedMeasure(
            density=PiecewiseFn.from_segment(Poly(coeffs), -2.0, 2.0), atoms=atoms
        )
        pos, neg, n_plus, n_minus = jordan_hahn(nu, domain=(-2.0, 2.0))
        for _ in range(10):
            a, b = sorted(rng.uniform(-2, 2, 2))
            region = BorelSet.make([(a, b)])
            lhs = integrate(nu, region)
            rhs = integrate(pos, region) - integrate(neg, region)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            # |nu|(A) = nu(A n N+) - nu(A n N-)
            tv = integrate(pos, region) + integrate(neg, region)
            split = integrate(nu, region.intersect(n_plus)) - integrate(
                nu, region.intersect(n_minus)
            )
            assert tv == pytest.approx(split, abs=1e-9)


def test_total_variation():
    nu = SignedMeasure(
        density=PiecewiseFn.from_segment(Affine(0.0, 1.0), -1.0, 1.0),
        atoms=((0.5, -2.0),),
    )
    region = BorelSet.make([(-1.0, 1.0)])
    pos, neg, _, _ = jordan_hahn(nu, domain=(-1.0, 1.0))
    assert pos(region) + neg(region) == pytest.approx(1.0 + 2.0, abs=1e-10)


def test_is_zero_with_zero_density():
    # a measure without atoms is 0 iff neither Jordan part of its density
    # charges a set of positive measure, the rule build_nu decides by
    for value, zero in ((0.0, True), (0.1, False)):
        m = SignedMeasure(density=PiecewiseFn.constant(value, 0.0, 1.0))
        pos, neg, _, _ = jordan_hahn(m, domain=(0.0, 1.0))
        assert (pos.carrier.lebesgue() + neg.carrier.lebesgue() == 0.0) == zero
        assert nu_oracle.is_zero(m) == zero


@pytest.mark.parametrize("name", ["bs-reflected", "engelbert-schmidt", "bessel-sticky"])
def test_speed_measure_of_an_unbounded_region_raises(name):
    # the measure cuts the region to its density's interval, here [0, inf),
    # and integrates over finite limits only
    model = cat.get_entry(name).build()
    speed = SignedMeasure(density=model.m_ac, atoms=model.m_atoms)
    with pytest.raises(ValueError, match="finite"):
        speed(BorelSet.make([(1.0, np.inf)]))
    with pytest.raises(ValueError, match="finite"):
        integrate(speed)
    assert speed(BorelSet.make([(1.0, 10.0)])) == model.m_ac.integrate(1.0, 10.0)
