"""nu is decomposed once per bundle: the one sign pass against the two-pass
route of ``nu_oracle``, call counts along the closed-form analysis, and the
one decision that nu is nontrivial."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nu_oracle
from gdarb import arbitrage, measures
from gdarb import catalog as cat
from gdarb.arbitrage import (
    FeedbackStrategy,
    NuBundle,
    build_nu,
    build_theta,
    build_theta_bar,
    check_strategy_conditions,
    market_verdicts,
)
from gdarb.borel import BorelSet
from gdarb.measures import SignedMeasure, integrate, jordan_hahn, sign_sets
from gdarb.model import UnsupportedModelError, validate
from gdarb.piecewise import PiecewiseFn
from test_measures import _piecewise_fns

MARKETS = [entry.name for entry in cat.catalog()]
BOUNDARY_RATES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)


def _bits(values: dict) -> dict:
    """Each value's type and exact bits (-0.0 and 0.0 differ)."""
    return {k: (type(v).__name__, float(v).hex()) for k, v in values.items()}


def _raises_or(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except (ValueError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"


@settings(max_examples=200)
@given(
    pw=_piecewise_fns(),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    atoms=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1.5, 0.5])), max_size=2),
)
def test_sign_pass_matches_two_passes(pw, cut, atoms):
    width = pw.hi - pw.lo
    lo, hi = pw.lo + cut[0] * width, pw.lo + cut[1] * width
    with np.errstate(all="ignore"):
        for a, b in ((pw.lo, pw.hi), (lo, hi)):
            want = (
                nu_oracle.positive_set(pw, a, b),
                nu_oracle.positive_set(pw.scaled(-1.0), a, b),
            )
            assert sign_sets(pw, a, b)[:2] == want
        m = SignedMeasure(pw, atoms=tuple((pw.lo + x * width, mass) for x, mass in atoms))
        parts = jordan_hahn(m, domain=(lo, hi))
        assert parts == nu_oracle.jordan_hahn(m, domain=(lo, hi))
    for region in (None, parts[2], BorelSet.make([(lo, hi)])):
        got = _raises_or(integrate, m, region)
        want = _raises_or(nu_oracle.integrate, m, region)
        if isinstance(got, float) and isinstance(want, float):
            assert got.hex() == want.hex()
        else:
            assert got == want


@st.composite
def _markets(draw):
    """Catalog draws, fat-Cantor depths 1-6 with either sign of r, and the
    bs-reflected markets on the no-profit boundary r * m1 = 1/2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["catalog", "fat-cantor", "boundary"]))
    if kind == "catalog":
        entry = cat.get_entry(draw(st.sampled_from(MARKETS)))
        return entry, entry.sample_params(rng)
    if kind == "fat-cantor":
        entry = cat.get_entry("fat-cantor")
        params = {**entry.sample_params(rng), "depth": draw(st.integers(1, 6))}
        params["r"] = abs(params["r"]) * draw(st.sampled_from([1.0, -1.0]))
        return entry, params
    entry = cat.get_entry("bs-reflected")
    r = draw(st.sampled_from(BOUNDARY_RATES))
    return entry, {**entry.sample_params(rng), "r": r, "m1": 0.5 / r}


@settings(max_examples=150)
@given(market=_markets())
def test_decomposition_matches_two_pass_route(market):
    entry, params = market
    try:
        model = entry.build(**params)
    except (UnsupportedModelError, OverflowError):
        assume(False)
    bundle = build_nu(model)
    want = nu_oracle.build_nu(model)
    for field in dataclasses.fields(NuBundle):
        assert getattr(bundle, field.name) == getattr(want, field.name), field.name

    verdicts = market_verdicts(model, bundle)
    want_v = nu_oracle.market_verdicts(model, want)
    assert (verdicts.nip, verdicts.qvip_exists, verdicts.rp_holds, verdicts.window_caveat) == (
        want_v.nip, want_v.qvip_exists, want_v.rp_holds, want_v.window_caveat
    )
    assert _bits(verdicts.evidence) == _bits(want_v.evidence)

    theta = build_theta(bundle)
    assert theta == nu_oracle.build_theta(want)
    assert build_theta_bar(model, bundle) == nu_oracle.build_theta_bar(model, want)
    # nu is nontrivial iff theta generates an increasing profit
    assert theta.is_zero == verdicts.nip

    unit = FeedbackStrategy(plus_set=BorelSet.make([bundle.window]))
    for H in (theta, theta.scaled(-1.0) if not theta.is_zero else theta, unit):
        got = check_strategy_conditions(model, bundle, H)
        exp = nu_oracle.check_strategy_conditions(model, want, H)
        assert (got.condition_i, got.condition_ii) == (exp.condition_i, exp.condition_ii)
        assert _bits(got.details) == _bits(exp.details)


def test_one_decomposition_per_bundle(monkeypatch):
    # validate -> build_nu -> market_verdicts -> build_theta ->
    # build_theta_bar -> check_strategy_conditions: one zero pass over each
    # of q', the speed density and nu's density, and one jordan_hahn
    passes, decompositions = [], []

    zero_parts = PiecewiseFn._zero_parts

    def counted_zero_parts(pw, *args):
        passes.append(pw)
        return zero_parts(pw, *args)

    def counted_jordan_hahn(*args, **kwargs):
        decompositions.append(args)
        return measures.jordan_hahn(*args, **kwargs)

    monkeypatch.setattr(PiecewiseFn, "_zero_parts", counted_zero_parts)
    monkeypatch.setattr(arbitrage, "jordan_hahn", counted_jordan_hahn)

    models = [cat.fat_cantor_model(depth=3, r=-0.2)] + [e.build() for e in cat.catalog()]
    for model in models:
        passes.clear()
        decompositions.clear()
        validate(model)
        bundle = build_nu(model)
        verdicts = market_verdicts(model, bundle)
        theta = build_theta(bundle)
        theta_bar = build_theta_bar(model, bundle)
        report = check_strategy_conditions(model, bundle, theta)

        assert not verdicts.nip and not theta.is_zero and report.ok
        assert theta_bar.is_zero == (bundle.qprime_zero.lebesgue() == 0.0)
        functions = [model.q_prime, model.m_ac]
        if bundle.nu.density is not None:
            functions.append(bundle.nu.density)
        assert len(passes) == len(functions)
        assert all(any(pw is f for pw in passes) for f in functions)
        assert len(decompositions) == 1 and decompositions[0][0] is bundle.nu


@pytest.mark.parametrize("entry", cat.catalog(), ids=lambda e: e.name)
def test_one_decision_that_nu_is_nontrivial(entry):
    # theta, theta-bar and nip read build_nu's one decision; the oracle
    # decides from nu's zero set, segment by segment
    rng = np.random.default_rng(17)
    for params in [{}] + [entry.sample_params(rng) for _ in range(200)]:
        model = entry.build(**params)
        bundle = build_nu(model)
        verdicts = market_verdicts(model, bundle)
        assert bundle.theta.is_zero == verdicts.nip == nu_oracle.is_zero(bundle.nu), params
        assert build_theta_bar(model, bundle).is_zero or not verdicts.nip
