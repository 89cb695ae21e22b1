import dataclasses
import itertools

import numpy as np
import pytest

import nu_oracle
from gdarb import catalog as cat
from gdarb.arbitrage import (
    FeedbackStrategy,
    build_nu,
    build_theta,
    build_theta_bar,
    check_strategy_conditions,
    market_verdicts,
)
from gdarb.borel import BorelSet, svc_measure
from gdarb.measures import SignedMeasure, integrate
from gdarb.model import BoundarySpec, NaturalScaleModel, to_natural_scale, validate
from gdarb.modelfile import parse_model_text
from gdarb.piecewise import PiecewiseFn, Poly


def nu_matches(built, expected, lo=-10.0, hi=10.0, tol=1e-10):
    if sorted(built.atoms) != sorted(expected.atoms):
        if len(built.atoms) != len(expected.atoms):
            return False
        for (a1, m1), (a2, m2) in zip(sorted(built.atoms), sorted(expected.atoms)):
            if a1 != a2 or abs(m1 - m2) > tol:
                return False
    xs = np.linspace(lo, hi, 1000)
    d1 = np.array([_dens(built, x) for x in xs])
    d2 = np.array([_dens(expected, x) for x in xs])
    return bool(np.all(np.abs(d1 - d2) <= tol))


def _dens(nu, x):
    return float(np.atleast_1d(nu.density_at(x))[0])


def test_nu_reflected_atom():
    # r * m1 = 0.2 leaves an atom of mass 0.3 at the boundary image
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=1.0, u0=0.1, r=0.2)
    bundle = build_nu(model)
    assert bundle.nu.atoms == ((0.0, pytest.approx(0.3, abs=1e-14)),)
    assert 0.0 in bundle.n_plus


# a finite market reflecting at both ends; the scale has a kink at x = 0.5
# and another at the right edge x = 1, where the speed has an atom
KINKED_REFLECTING = """
[state_space]
lo = 0
hi = 1

[scale]
breakpoints = 0, 0.5, 1, 2
segment1 = affine 0 1          # s(x) = x
segment2 = affine -0.25 1.5    # s(x) = 1.5 x - 0.25
segment3 = affine -1.25 2.5    # past the edge: s'(1+) = 2.5

[speed]
breakpoints = 0, 1
segment1 = const 1
atom1 = 1 0.5

[boundaries]
left = reflecting
right = reflecting

[market]
x0 = 0.5
rate = 0.1
"""


def test_nu_reflecting_right_edge_at_a_scale_kink():
    # in natural scale the edge is hi = s(1) = 1.25, where q'_-(hi) = 1/1.5
    # and y(hi) = 1; nu({hi}) = -q'_-(hi)/2 - r y(hi) m({hi})
    spec = parse_model_text(KINKED_REFLECTING)
    model = to_natural_scale(spec)
    assert validate(model).ok
    assert (model.hi, model.m_atoms) == (1.25, ((1.25, 0.5),))
    edge = -0.5 / 1.5 - 0.1 * 1.0 * 0.5
    # q' jumps by 1/1.5 - 1 at u = 0.5, and the left edge carries q'(0)/2
    want = ((0.0, 0.5), (0.5, pytest.approx(0.5 * (1 / 1.5 - 1.0), abs=1e-15)),
            (1.25, pytest.approx(edge, abs=1e-15)))
    # q may run past the edge, its next piece's slope 1/2.5 there: the edge
    # atom reads the piece on the left of hi all the same (the wide spec's
    # speed density covers its state space [0, 2]; only its q is read)
    wide = to_natural_scale(dataclasses.replace(
        spec, hi=2.0, right=BoundarySpec("right"),
        speed=SignedMeasure(density=PiecewiseFn.constant(1.0, 0.0, 2.0)),
    ))
    past = dataclasses.replace(model, q=wide.q)
    assert past.q.breakpoints == (0.0, 0.5, 1.25, 3.75)
    assert float(past.q_prime(1.25)) == 1 / 2.5
    for m in (model, past):
        bundle = build_nu(m)
        assert bundle.nu.atoms == want
        assert bundle.nu.density is None  # q' > 0: no flat stretch
        oracle = nu_oracle.build_nu(m)
        for field in dataclasses.fields(oracle):
            assert getattr(bundle, field.name) == getattr(oracle, field.name), field.name


def test_nu_sticky_atom():
    model = cat.sticky_model(xi=2.0, rho=3.0, x0=0.0, r=0.05)
    bundle = build_nu(model)
    assert len(bundle.nu.atoms) == 1
    loc, mass = bundle.nu.atoms[0]
    assert loc == 2.0
    assert mass == pytest.approx(-0.3, abs=1e-14)
    assert 2.0 in bundle.n_minus
    assert 2.0 not in bundle.n_plus


def test_nu_skew_atom():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.3)
    bundle = build_nu(model)
    assert len(bundle.nu.atoms) == 1
    loc, mass = bundle.nu.atoms[0]
    assert loc == 0.0
    assert mass == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_nu_absorbing_atom():
    model = cat.es_model(b=1.5, sigma=0.5, mu=0.0, x0=1.8, r=0.2)
    bundle = build_nu(model)
    assert len(bundle.nu.atoms) == 1
    loc, mass = bundle.nu.atoms[0]
    assert loc == 0.0
    assert mass == pytest.approx(-0.3, abs=1e-14)


def test_nu_fat_cantor_density():
    model = cat.fat_cantor_model(depth=4, u0=0.5, r=0.1)
    bundle = build_nu(model)
    assert bundle.nu.atoms == ()
    expected = cat.fat_cantor_expected_nu(depth=4, r=0.1)
    assert nu_matches(bundle.nu, expected, lo=-1.0, hi=2.0)


def test_nu_zero_for_brownian():
    model = cat.sticky_model(xi=0.5, rho=0.0, x0=0.0, r=0.0)
    bundle = build_nu(model)
    assert nu_oracle.is_zero(bundle.nu)
    theta = build_theta(bundle)
    assert theta.is_zero


# exact boundary inputs that the draws miss: a skew point 1e-13 off 1/2
# leaves q' a jump of 8e-13 at 0, and so nu an atom there
_EDGE_PARAMS = {"bachelier-skew": [dict(kappa=0.5 + 1e-13, x0=0.0, r=0.1)]}


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_expected_nu_regression(entry):
    rng = np.random.default_rng(23)
    draws = [entry.sample_params(rng) for _ in range(20)]
    for params in draws + _EDGE_PARAMS.get(entry.name, []):
        model = entry.build(**params)
        bundle = build_nu(model)
        expected = entry.expected_nu(**params)
        assert nu_matches(bundle.nu, expected), params
        verdicts = market_verdicts(model, bundle)
        assert verdicts.nip == entry.expected_nip(**params), params


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_nu_concentrated_on_zero_set(entry):
    model = entry.build()
    bundle = build_nu(model)
    window = BorelSet.make([bundle.window])
    off = window.difference(bundle.n_qprime0)
    pos_mass = abs(integrate(bundle.nu, off))
    assert pos_mass <= 1e-10


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_nu_atoms_affine_in_rate(entry):
    masses = {}
    for r in (0.0, 1.0, 2.0):
        params = entry.params(r=r)
        bundle = build_nu(entry.build(**params))
        masses[r] = dict(bundle.nu.atoms)
    locs = set().union(*[m.keys() for m in masses.values()])
    for a in locs:
        v0 = masses[0.0].get(a, 0.0)
        v1 = masses[1.0].get(a, 0.0)
        v2 = masses[2.0].get(a, 0.0)
        assert abs((v2 - v1) - (v1 - v0)) <= 1e-12


def test_verdict_boundary_reflected():
    # the no-profit verdict flips exactly on the curve r * m1 = 1/2, for
    # every drift and volatility: there the boundary atom's two terms cancel
    # although q' and y carry rounding
    for r, mu, sigma in itertools.product(
        (0.05, 0.1, 0.25, 0.5, 1.0, 2.0), (-0.3, 0.0, 0.1, 0.4), (0.3, 0.5, 0.7)
    ):
        for m1 in (0.0, 0.2, 0.5 / r, 1.0 / r, 2.0):
            model = cat.reflected_model(mu=mu, sigma=sigma, m1=m1, u0=0.1, r=r)
            bundle = build_nu(model)
            verdicts = market_verdicts(model, bundle)
            assert verdicts.nip == (r * m1 == 0.5), (r, mu, sigma, m1)


def test_verdicts_reflected_instantaneous_zero_rate():
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.0)
    bundle = build_nu(model)
    v = market_verdicts(model, bundle)
    assert not v.nip and not v.qvip_exists and v.rp_holds


def test_verdicts_fat_cantor():
    model = cat.fat_cantor_model(depth=4, u0=0.5, r=0.1)
    bundle = build_nu(model)
    v = market_verdicts(model, bundle)
    assert not v.nip
    assert v.qvip_exists
    assert not v.rp_holds
    assert v.evidence["lambda_qprime_zero"] == pytest.approx(svc_measure(4), abs=1e-15)


# market_verdicts' evidence on the fat-Cantor market past the catalog's
# depth 6, bit for bit
_DEEP_EVIDENCE = {
    8: ("0x1.d5f15d4000000p-11", "0x1.0100000000000p-1"),
    10: ("0x1.d492491d40000p-11", "0x1.0040000000000p-1"),
}


@pytest.mark.parametrize("depth", [8, 10])
@pytest.mark.parametrize("r", [0.2, -0.2])
def test_verdicts_deep_fat_cantor_pinned(depth, r):
    model = cat.fat_cantor_model(depth=depth, u0=0.5, r=r)
    verdicts = market_verdicts(model, build_nu(model))
    nu_ac, lam = (float.fromhex(v) for v in _DEEP_EVIDENCE[depth])
    evidence = {k: (type(v), float(v).hex()) for k, v in verdicts.evidence.items()}
    assert evidence == {
        "abs_nu_total": (float, nu_ac.hex()),
        "abs_nu_atoms": (int, "0x0.0p+0"),
        "abs_nu_ac_window": (float, nu_ac.hex()),
        "lambda_qprime_zero": (float, lam.hex()),
        "lambda_qprime_zero_with_density": (float, lam.hex()),
    }
    # the depth-n SVC set has measure 1/2 + 2^-(n+1), exactly
    assert verdicts.evidence["lambda_qprime_zero"] == 0.5 + 2.0 ** -(depth + 1)
    assert (verdicts.nip, verdicts.qvip_exists, verdicts.rp_holds) == (False, True, False)


def test_verdicts_skew():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.3)
    bundle = build_nu(model)
    v = market_verdicts(model, bundle)
    assert not v.nip
    assert not v.qvip_exists
    assert v.rp_holds


def test_theta_sticky():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.0, r=0.1)
    theta = build_theta(build_nu(model))
    assert theta.evaluate(0.5) == -1.0
    assert theta.evaluate(0.4) == 0.0


def test_theta_skew():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    theta = build_theta(build_nu(model))
    assert theta.evaluate(0.0) == +1.0
    assert theta.evaluate(0.1) == 0.0


def test_theta_fat_cantor():
    model = cat.fat_cantor_model(depth=4, u0=0.5, r=0.1)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    theta_bar = build_theta_bar(model, bundle)
    assert theta.evaluate(0.01) == -1.0  # inside F
    assert theta.evaluate(0.5) == 0.0  # central gap
    assert theta_bar.evaluate(0.01) == -1.0
    assert theta_bar.evaluate(0.5) == 0.0
    # theta and theta_bar coincide on a fine grid
    xs = np.linspace(-0.5, 1.5, 2001)
    assert np.array_equal(theta.evaluate(xs), theta_bar.evaluate(xs))


def test_theta_bar_zero_for_atomic_nu():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle = build_nu(model)
    assert build_theta_bar(model, bundle).is_zero


def test_conditions_theta_passes():
    for entry in cat.catalog():
        model = entry.build()
        bundle = build_nu(model)
        if bundle.theta.is_zero:
            continue
        theta = build_theta(bundle)
        report = check_strategy_conditions(model, bundle, theta)
        assert report.condition_i and report.condition_ii, entry.name


def test_condition_i_fails_for_constant_strategy():
    model = cat.skew_model(kappa=0.75, x0=0.0, r=0.1)
    bundle = build_nu(model)
    h_one = FeedbackStrategy(plus_set=BorelSet.make([(-50.0, 50.0)]))
    report = check_strategy_conditions(model, bundle, h_one)
    assert not report.condition_i


def test_condition_ii_fails_for_minus_theta():
    model = cat.sticky_model(xi=0.5, rho=2.0, x0=0.0, r=0.1)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    report = check_strategy_conditions(model, bundle, theta.scaled(-1.0))
    assert report.condition_i
    assert not report.condition_ii


def test_theta_squared_one_on_carrier():
    model = cat.fat_cantor_model(depth=3, u0=0.5, r=0.1)
    bundle = build_nu(model)
    theta = build_theta(bundle)
    rng = np.random.default_rng(5)
    carrier = bundle.nu.carrier
    xs = rng.uniform(0.0, 1.0, 2000)
    inside = carrier.contains(xs)
    vals = theta.evaluate(xs[inside])
    # theta^2 = 1 except on the lambda-null boundary of the positive part
    assert np.all(np.abs(vals) == 1.0)


def test_nip_implies_theta_zero():
    model = cat.reflected_model(mu=0.0, sigma=0.5, m1=2.0, u0=0.1, r=0.25)
    bundle = build_nu(model)
    assert market_verdicts(model, bundle).nip
    assert build_theta(bundle).is_zero


def test_nu_nontrivial_despite_zero_piece_outside_window():
    # q = 0 on [-200, -100], far outside the window, once outweighed the
    # carrier [0, 1]: nu = 0 read True, and theta and theta-bar were zero
    model = NaturalScaleModel(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left"),
        right=BoundarySpec("right"),
        q=PiecewiseFn(
            (-np.inf, -200.0, -100.0, -50.0, 0.0, 1.0, np.inf),
            (
                Poly((-20000.0, -200.0, -0.5)),
                Poly((0.0,)),
                Poly((2.0, 0.04, 0.0002)),
                Poly((1.0, 0.0, -0.0002)),
                Poly((1.0,)),
                Poly((1.5, -1.0, 0.5)),
            ),
        ),
        m_ac=PiecewiseFn.constant(1.0),
        u0=0.5,
        rate=0.1,
    )
    assert validate(model).ok and model.q_second_atoms == ()
    bundle = build_nu(model)
    verdicts = market_verdicts(model, bundle)
    assert not verdicts.nip
    assert verdicts.evidence["abs_nu_total"] == pytest.approx(0.1, rel=1e-12)
    assert not nu_oracle.is_zero(bundle.nu)
    theta = build_theta(bundle)
    assert theta.minus_set == BorelSet.make([(0.0, 1.0)]) and theta.plus_set.is_empty
    assert build_theta_bar(model, bundle) == theta
    assert check_strategy_conditions(model, bundle, theta).ok


def test_qvip_implies_theta_bar_nonzero():
    model = cat.fat_cantor_model(depth=2, u0=0.5, r=-0.2)
    bundle = build_nu(model)
    assert market_verdicts(model, bundle).qvip_exists
    assert not build_theta_bar(model, bundle).is_zero


def test_strategy_scaling_and_gain():
    s = FeedbackStrategy(plus_set=BorelSet.make(points=[1.0]), gain=2.0)
    assert s.evaluate(1.0) == 2.0
    assert s.scaled(-1.5).evaluate(1.0) == -3.0
    with pytest.raises(ValueError):
        FeedbackStrategy(gain=0.0)
