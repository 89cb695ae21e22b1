"""Built-in example markets with closed-form expected outputs.

Each entry builds a model from parameters and states the expected auxiliary
measure and no-increasing-profit predicate, used as the regression and
acceptance backbone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .borel import BorelSet, svc_set
from .measures import SignedMeasure, ZERO_MEASURE
from .model import (
    BoundarySpec,
    DiffusionSpec,
    NaturalScaleModel,
    _invert_segment,
    to_natural_scale,
)
from .piecewise import Affine, Const, Log, PiecewiseFn, Poly, Power

__all__ = ["CatalogEntry", "catalog", "get_entry", "fat_cantor_model"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    defaults: dict[str, float]
    build: Callable[..., NaturalScaleModel]
    expected_nu: Callable[..., SignedMeasure]
    expected_nip: Callable[..., bool]
    sample_params: Callable[[np.random.Generator], dict]
    description: str = ""

    def params(self, **overrides) -> dict:
        return {**self.defaults, **overrides}


# -- exponential-drift SDE market with an absorbing boundary ------------


def es_spec(b=1.0, sigma=0.5, mu=0.0, x0=1.2, r=0.1) -> DiffusionSpec:
    """Geometric diffusion dY = mu Y dt + sigma Y dW on [b, inf), absorbed
    at the declared boundary b > 0."""
    if b <= 0:
        raise ValueError("absorbing level b must be positive")
    if x0 <= b:
        raise ValueError("start must lie above the absorbing level")
    alpha = 2.0 * mu / sigma**2
    if alpha == 1.0:
        scale_seg = Log(1.0, 1.0 / b, 0.0)  # s(x) = log(x / b)
    else:
        p = 1.0 - alpha
        # choose the offset through the evaluation path itself so that
        # s(b) == 0 holds bit-exactly
        base = Power(1.0 / p, 0.0, p, 0.0, +1)
        scale_seg = Power(1.0 / p, 0.0, p, -float(base(b)), +1)
    speed_seg = Power(1.0 / sigma**2, 0.0, alpha - 2.0, 0.0, +1)
    return DiffusionSpec(
        lo=b,
        hi=np.inf,
        left=BoundarySpec("left", included=True, behavior="absorbing"),
        right=BoundarySpec("right", included=False),
        scale=PiecewiseFn.from_segment(scale_seg, b, np.inf),
        speed=SignedMeasure(density=PiecewiseFn.from_segment(speed_seg, b, np.inf)),
        start=x0,
        rate=r,
    )


def es_model(**params) -> NaturalScaleModel:
    return to_natural_scale(es_spec(**params))


def es_expected_nu(b=1.0, r=0.1, **_) -> SignedMeasure:
    return SignedMeasure(atoms=((0.0, -r * b),))


# -- geometric model with (sticky) reflection at 1 ----------------------


def reflected_spec(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.1) -> DiffusionSpec:
    if m1 < 0:
        raise ValueError("boundary stickiness m1 must be nonnegative")
    alpha = 2.0 * mu / sigma**2
    if alpha == 1.0:
        scale_seg = Log(1.0, 1.0, 0.0)  # s(x) = log x, s(1) = 0
    else:
        p = 1.0 - alpha
        scale_seg = Power(1.0 / p, 0.0, p, -1.0 / p, +1)
    scale = PiecewiseFn.from_segment(scale_seg, 1.0, np.inf)
    speed_seg = Power(1.0 / sigma**2, 0.0, alpha - 2.0, 0.0, +1)
    atoms = ((1.0, m1),) if m1 > 0 else ()
    x0 = float(_invert_segment(scale_seg, "catalog")(u0))
    return DiffusionSpec(
        lo=1.0,
        hi=np.inf,
        left=BoundarySpec("left", included=True, behavior="reflecting"),
        right=BoundarySpec("right", included=False),
        scale=scale,
        speed=SignedMeasure(
            density=PiecewiseFn.from_segment(speed_seg, 1.0, np.inf), atoms=atoms
        ),
        start=x0,
        rate=r,
    )


def reflected_model(**params) -> NaturalScaleModel:
    return to_natural_scale(reflected_spec(**params))


def reflected_expected_nu(m1=0.0, r=0.1, **_) -> SignedMeasure:
    return SignedMeasure(atoms=((0.0, 0.5 - r * m1),))


# -- shifted low-dimension squared-radial process with sticky reflection


def bessel_spec(delta=1.0, m1=1.0, u0=0.1, r=0.1) -> DiffusionSpec:
    if not 0.0 < delta < 2.0:
        raise ValueError("dimension delta must be in (0, 2)")
    if m1 < 0:
        raise ValueError("boundary stickiness m1 must be nonnegative")
    p = 1.0 - delta / 2.0
    scale_seg = Power(1.0, 1.0, p, 0.0, +1)  # s(x) = (x - 1)^p
    speed_seg = Power(1.0 / (4.0 * p), 1.0, delta / 2.0 - 1.0, 0.0, +1)
    atoms = ((1.0, m1),) if m1 > 0 else ()
    x0 = 1.0 + u0 ** (1.0 / p)
    return DiffusionSpec(
        lo=1.0,
        hi=np.inf,
        left=BoundarySpec("left", included=True, behavior="reflecting"),
        right=BoundarySpec("right", included=False),
        scale=PiecewiseFn.from_segment(scale_seg, 1.0, np.inf),
        speed=SignedMeasure(
            density=PiecewiseFn.from_segment(speed_seg, 1.0, np.inf), atoms=atoms
        ),
        start=x0,
        rate=r,
    )


def bessel_model(**params) -> NaturalScaleModel:
    return to_natural_scale(bessel_spec(**params))


def bessel_expected_nu(m1=1.0, r=0.1, **_) -> SignedMeasure:
    return SignedMeasure(atoms=((0.0, -r * m1),))


# -- arithmetic model with a sticky point -------------------------------


def sticky_spec(xi=0.5, rho=2.0, x0=0.0, r=0.1) -> DiffusionSpec:
    if rho < 0:
        raise ValueError("stickiness rho must be nonnegative")
    atoms = ((xi, rho),) if rho > 0 else ()
    return DiffusionSpec(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left", included=False),
        right=BoundarySpec("right", included=False),
        scale=PiecewiseFn.from_segment(Affine(0.0, 1.0), -np.inf, np.inf),
        speed=SignedMeasure(
            density=PiecewiseFn.constant(1.0, -np.inf, np.inf), atoms=atoms
        ),
        start=x0,
        rate=r,
    )


def sticky_model(**params) -> NaturalScaleModel:
    return to_natural_scale(sticky_spec(**params))


def sticky_expected_nu(xi=0.5, rho=2.0, r=0.1, **_) -> SignedMeasure:
    return SignedMeasure(atoms=((xi, -r * xi * rho),))


# -- arithmetic model with a skew point at zero -------------------------


def skew_spec(kappa=0.75, x0=0.0, r=0.1) -> DiffusionSpec:
    if not 0.0 < kappa < 1.0:
        raise ValueError("skewness kappa must be in (0, 1)")
    scale = PiecewiseFn(
        (-np.inf, 0.0, np.inf), (Affine(0.0, kappa), Affine(0.0, 1.0 - kappa))
    )
    speed = PiecewiseFn(
        (-np.inf, 0.0, np.inf), (Const(1.0 / kappa), Const(1.0 / (1.0 - kappa)))
    )
    return DiffusionSpec(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left", included=False),
        right=BoundarySpec("right", included=False),
        scale=scale,
        speed=SignedMeasure(density=speed),
        start=x0,
        rate=r,
    )


def skew_model(**params) -> NaturalScaleModel:
    return to_natural_scale(skew_spec(**params))


def skew_expected_nu(kappa=0.75, **_) -> SignedMeasure:
    mass = (2.0 * kappa - 1.0) / (2.0 * kappa * (1.0 - kappa))
    return SignedMeasure(atoms=((0.0, mass),))


# -- Brownian motion whose inverse scale is flat on a fat Cantor set ----


def fat_cantor_q(depth=4) -> tuple[PiecewiseFn, BorelSet]:
    """(q, F): q(u) = integral of dist(., F) from 0 to u, so q' = dist(., F)
    vanishes exactly on F."""
    f_set = svc_set(depth)
    lo, hi = f_set._lo, f_set._hi  # the n = 2^depth retained closed intervals
    n = len(lo)
    # q(u) = -u^2/2 for u <= 0; then q is flat on each retained interval k,
    # at acc[k], and a tent integral over the gap after it, rising by a
    # half Power piece from its left end to its midpoint and by a mirrored
    # one to its right end
    gap = lo[1:] - hi[:-1]
    acc = np.concatenate(([0.0], np.cumsum(gap * gap / 4.0)))
    bps = np.empty(3 * n + 1)
    bps[:2], bps[-1] = (-np.inf, 0.0), np.inf
    bps[2::3], bps[3:-1:3], bps[4:-1:3] = hi, 0.5 * (hi[:-1] + lo[1:]), lo[1:]
    # the flat pieces are 1, 4, 7, ..., and the rising ones 2, 3, 5, 6, ...,
    # the last reaching to inf
    rising = np.empty((4, 2 * n - 1))
    rising[:, 0::2] = np.stack([np.full(n, 0.5), hi, acc, np.ones(n)])
    rising[:, 1::2] = np.stack([np.full(n - 1, -0.5), lo[1:], acc[1:], -np.ones(n - 1)])
    parts = [
        (Poly, (), [0], np.array([[0.0], [0.0], [-0.5]])),
        (Const, (), np.arange(1, 3 * n, 3), acc[None, :]),
        (Power, (2.0,), np.delete(np.arange(2, 3 * n), slice(2, None, 3)), rising),
    ]
    return PiecewiseFn._from_columns(bps, parts), f_set


def fat_cantor_model(depth=4, u0=0.5, r=0.1) -> NaturalScaleModel:
    if not float(depth).is_integer():
        raise ValueError(f"depth must be an integer, got {depth!r}")
    q, _ = fat_cantor_q(int(depth))
    return NaturalScaleModel(
        lo=-np.inf,
        hi=np.inf,
        left=BoundarySpec("left", included=False),
        right=BoundarySpec("right", included=False),
        q=q,
        m_ac=PiecewiseFn.constant(1.0, -np.inf, np.inf),
        u0=u0,
        rate=r,
    )


def fat_cantor_expected_nu(depth=4, r=0.1, **_) -> SignedMeasure:
    if r == 0.0:
        return ZERO_MEASURE
    q, f_set = fat_cantor_q(int(depth))
    return SignedMeasure(density=q.scaled(-r), carrier=f_set)


# -- the catalog --------------------------------------------------------


def _es_sample(rng: np.random.Generator) -> dict:
    b = float(rng.uniform(0.5, 2.0))
    return dict(
        b=b,
        sigma=float(rng.uniform(0.3, 1.5)),
        mu=float(rng.uniform(-0.5, 0.5)),
        x0=b * float(rng.uniform(1.05, 1.5)),
        r=float(rng.uniform(-0.5, 0.5)),
    )


def catalog() -> list[CatalogEntry]:
    return [
        CatalogEntry(
            name="engelbert-schmidt",
            defaults=dict(b=1.0, sigma=0.5, mu=0.0, x0=1.2, r=0.1),
            build=es_model,
            expected_nu=es_expected_nu,
            expected_nip=lambda b=1.0, r=0.1, **_: r * b == 0.0,
            sample_params=_es_sample,
            description="geometric diffusion absorbed at a positive level",
        ),
        CatalogEntry(
            name="bs-reflected",
            defaults=dict(mu=0.0, sigma=0.5, m1=0.0, u0=0.1, r=0.1),
            build=reflected_model,
            expected_nu=reflected_expected_nu,
            expected_nip=lambda m1=0.0, r=0.1, **_: r * m1 == 0.5,
            sample_params=lambda rng: dict(
                mu=float(rng.uniform(-0.5, 0.5)),
                sigma=float(rng.uniform(0.3, 1.5)),
                m1=float(rng.uniform(0.0, 3.0)),
                u0=0.1,
                r=float(rng.uniform(-0.5, 0.5)),
            ),
            description="geometric model with (sticky) reflection at 1",
        ),
        CatalogEntry(
            name="bessel-sticky",
            defaults=dict(delta=1.0, m1=1.0, u0=0.1, r=0.1),
            build=bessel_model,
            expected_nu=bessel_expected_nu,
            expected_nip=lambda m1=1.0, r=0.1, **_: r * m1 == 0.0,
            sample_params=lambda rng: dict(
                delta=float(rng.uniform(0.2, 1.8)),
                m1=float(rng.uniform(0.0, 3.0)),
                u0=0.1,
                r=float(rng.uniform(-0.5, 0.5)),
            ),
            description="shifted squared-radial process with sticky reflection",
        ),
        CatalogEntry(
            name="bachelier-sticky",
            defaults=dict(xi=0.5, rho=2.0, x0=0.0, r=0.1),
            build=sticky_model,
            expected_nu=sticky_expected_nu,
            expected_nip=lambda xi=0.5, rho=2.0, r=0.1, **_: r * xi * rho == 0.0,
            sample_params=lambda rng: dict(
                xi=float(rng.uniform(-2.0, 2.0)),
                rho=float(rng.uniform(0.0, 3.0)),
                x0=0.0,
                r=float(rng.uniform(-0.5, 0.5)),
            ),
            description="arithmetic model with a sticky point",
        ),
        CatalogEntry(
            name="bachelier-skew",
            defaults=dict(kappa=0.75, x0=0.0, r=0.1),
            build=skew_model,
            expected_nu=skew_expected_nu,
            expected_nip=lambda kappa=0.75, **_: kappa == 0.5,
            sample_params=lambda rng: dict(
                kappa=float(
                    rng.choice([rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)])
                ),
                x0=0.0,
                r=float(rng.uniform(-0.5, 0.5)),
            ),
            description="arithmetic model with a skew point at zero",
        ),
        CatalogEntry(
            name="fat-cantor",
            defaults=dict(depth=4, u0=0.5, r=0.1),
            build=fat_cantor_model,
            expected_nu=fat_cantor_expected_nu,
            expected_nip=lambda r=0.1, **_: r == 0.0,
            sample_params=lambda rng: dict(
                depth=int(rng.integers(1, 7)),
                u0=0.5,
                r=float(rng.uniform(-0.5, 0.5)),
            ),
            description="Brownian motion whose inverse scale is flat on a fat Cantor set",
        ),
    ]


def get_entry(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"unknown catalog entry {name!r}")
