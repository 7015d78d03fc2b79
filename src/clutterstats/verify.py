"""Oracle cross-check suite backing the `verify` CLI subcommand.

Three independent routes are compared on a representative parameter set per
family: closed-form transforms against direct quadrature of the density,
closed-form log-cumulants to order 6 against Cauchy-integral derivatives
(error relative to |k_n|, absolute below 1), and each compound's
hand-written density against the numeric Mellin convolution of its speckle
and texture densities, which checks the speckle x texture declaration that
every compound closed form is derived from.  Both
quadratures integrate log-densities in a log variable, with exponents that
are concave because each family is a product of gamma powers: a density
that broke that would fail its check, not pass it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List

from . import mellin
from .errors import ClutterStatsError, ParameterError
from .models import (
    COMPOUND_FAMILY_TYPES,
    ClutterModel,
    Decomposition,
    Exponential,
    Fisher,
    Gamma,
    GammaGamma,
    KAmplitude,
    Maxwell,
    Nakagami,
    Rayleigh,
    Weibull,
    WeibullNakagami,
    _log_density,
    decompose,
    log_pdf,
)
from .specfun import Tolerance, _log_concave_integral

__all__ = ["Check", "run_suite", "VERIFY_MODELS"]

VERIFY_MODELS = (
    Exponential(mu=1.5),
    Gamma(L=2.0, mu=1.0),
    Gamma(L=0.5, mu=3.0),
    Nakagami(L=1.5, mu=1.0),
    Maxwell(sigma=1.0),
    Weibull(b=2.5, z=1.5),
    Rayleigh(z=2.0),
    GammaGamma(L=2.0, M=3.0, mu=1.5),
    KAmplitude(alpha=2.0, b=1.0, mu=1.0),
    WeibullNakagami(c=2.0, alpha=1.5, b=1.0, sigma=1.0),
    Fisher(L=2.0, M=3.0, mu=1.0),
)

_S_CANDIDATES = (0.5, 1.5, 2.0, 2.5, 3.0)

# points x at which compound densities are compared with the convolution
_CONVOLUTION_POINTS = (0.3, 1.0, 3.0)

_QUAD_TOL = Tolerance(rel_tol=1e-9, max_subdivisions=400)


@dataclass(frozen=True)
class Check:
    name: str
    error: float
    tolerance: float
    passed: bool
    detail: str = ""


def _worst(name: str, tolerance: float, rows) -> Check:
    """Check that each row's error is within its tolerance, reporting the row
    whose error is the largest share of it (the largest error, where the
    tolerance is not positive).

    rows yields (where, error, tolerance) and is computed lazily, so an error
    raised while computing a row fails this check instead of the suite.
    """
    worst, error, row_tolerance, detail, passed = 0.0, 0.0, tolerance, "", True
    try:
        for where, err, tol in rows:
            passed = passed and err <= tol
            share = err / tol if tol > 0.0 else err
            if share > worst:
                worst, error, row_tolerance, detail = share, err, tol, where
    except ClutterStatsError as exc:
        return Check(name, float("nan"), tolerance, False, str(exc))
    return Check(name, error, row_tolerance, passed, detail)


def _transform_rows(model: ClutterModel, tolerance: float):
    strip = mellin.analyticity_strip(model)
    points = [s for s in _S_CANDIDATES if strip.lower + 0.05 < s < strip.upper - 0.1]
    for s in points[:3]:
        closed = mellin.phi(model, s)
        err = abs(closed - mellin.phi_numeric(model, s, _QUAD_TOL)) / closed
        yield f"s={s:g}", err, tolerance


def _cumulant_rows(model: ClutterModel, tolerance: float):
    closed = mellin.log_cumulants(model, mellin._MAX_ORDER).values
    numeric = mellin.log_cumulants_numeric(model, mellin._MAX_ORDER).values
    for order, (k, estimate) in enumerate(zip(closed, numeric), start=1):
        yield f"order {order}", abs(k - estimate) / max(1.0, abs(k)), tolerance


def _convolution(parts: Decomposition, x: float) -> float:
    """ln of the density at x of speckle * texture, from the Mellin
    convolution of the component densities in v = ln t,
    Int exp(ln f_speckle(x e^-v) + ln f_texture(e^v)) dv."""

    log_x = math.log(x)
    return _log_concave_integral(
        lambda v: _log_density(parts.speckle, log_x - v) + _log_density(parts.texture, v),
        _QUAD_TOL,
    )


def _convolution_rows(model: ClutterModel, tolerance: float):
    parts = decompose(model)
    for x in _CONVOLUTION_POINTS:
        error = math.expm1(_convolution(parts, x) - log_pdf(model, x))
        yield f"x={x:g}", abs(error), tolerance


def run_suite(tolerance: float = 1e-6) -> List[Check]:
    """Run all cross-checks at the given relative tolerance, a finite real
    number (else ParameterError: inf would pass every check with error 0, and
    nan fail every check as if the numerics had); one <= 0 fails them all."""
    if not (isinstance(tolerance, numbers.Real) and math.isfinite(tolerance)):
        raise ParameterError(f"tolerance must be a finite number, got {tolerance!r}")
    compounds = [m for m in VERIFY_MODELS if isinstance(m, COMPOUND_FAMILY_TYPES)]
    return [
        _worst(f"{title} [{model.family}]", tolerance, rows(model, tolerance))
        for title, rows, models in (
            ("transform vs quadrature", _transform_rows, VERIFY_MODELS),
            ("cumulants vs derivatives", _cumulant_rows, VERIFY_MODELS),
            ("density vs convolution", _convolution_rows, compounds),
        )
        for model in models
    ]
