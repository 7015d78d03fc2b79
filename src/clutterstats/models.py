"""Clutter distribution families: validation, densities, compound structure.

Ten families cover the usual simple models of amplitude or power
(exponential, gamma, Nakagami, Maxwell, Weibull, Rayleigh) and the compound
ones built from a speckle component whose mean is modulated by a random
texture (gamma-gamma, K, generalized Weibull-Nakagami, Fisher).  An auxiliary
inverse-gamma family exists as the texture component of the Fisher model.

All supports are (0, inf) and all parameters are strictly positive.  Every
family derives from ClutterModel, which checks that rule when a model is
built (directly, through dataclasses.replace or through model_from_dict), so
a model that exists is valid and no operation checks it again.  Model values
are immutable; every operation is a pure function and thread-safe.

A compound family declares its (speckle, texture) components once, in its
_components method; decompose returns them, and the compound's Mellin factor
table and sampler are derived from them.  The densities do not use the
declaration, so the Mellin convolution of the components' densities checks
it against the compound's (verify).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property, singledispatch
from typing import Callable, ClassVar, Optional, Tuple

import numpy as np
import scipy.integrate
from scipy.special import betaln, gammaln, kve

from .errors import (
    NonConvergenceError,
    NotCompoundError,
    NumericOverflowError,
    ParameterError,
)
from .specfun import Tolerance

__all__ = [
    "Exponential",
    "Gamma",
    "Nakagami",
    "Maxwell",
    "Weibull",
    "Rayleigh",
    "GammaGamma",
    "KAmplitude",
    "WeibullNakagami",
    "Fisher",
    "InverseGamma",
    "ClutterModel",
    "Decomposition",
    "FAMILIES",
    "validate",
    "pdf",
    "decompose",
    "model_to_dict",
    "model_from_dict",
]


@dataclass(frozen=True)
class ClutterModel:
    """Base of every family: construction rejects any parameter that is not a
    finite real number > 0, so every ClutterModel value is valid."""

    family: ClassVar[str]
    # a compound family overrides this with a method returning its
    # (speckle, texture) components
    _components: ClassVar[Optional[Callable]] = None

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParameterError(f"parameter {field.name} must be a real number")
            value = float(value)
            if math.isnan(value) or math.isinf(value):
                raise ParameterError(f"parameter {field.name} must be finite")
            if value <= 0:
                raise ParameterError(f"parameter {field.name} must be > 0")

    @cached_property
    def _decomposition(self) -> "Decomposition":
        # built once: building models checks their parameters
        try:
            return Decomposition(*self._components())
        except ParameterError as exc:
            raise NumericOverflowError(
                f"components of {self!r} are not representable: {exc}"
            ) from exc


@dataclass(frozen=True)
class Exponential(ClutterModel):
    """Power pdf f(x) = exp(-x/mu) / mu with mean mu (gamma with L = 1)."""

    mu: float
    family: ClassVar[str] = "exponential"


@dataclass(frozen=True)
class Gamma(ClutterModel):
    """Speckle-power pdf with L looks and mean power mu:

    f(v) = (L/mu)^L v^(L-1) exp(-L v / mu) / Gamma(L)
    """

    L: float
    mu: float
    family: ClassVar[str] = "gamma"


@dataclass(frozen=True)
class Nakagami(ClutterModel):
    """Amplitude pdf with shape L and scale mu:

    f(r) = 2 (L/mu^2)^L r^(2L-1) exp(-L r^2 / mu^2) / Gamma(L)

    The square of a Nakagami variate is gamma with shape L and mean mu^2.
    """

    L: float
    mu: float
    family: ClassVar[str] = "nakagami"


@dataclass(frozen=True)
class Maxwell(ClutterModel):
    """Speed-like amplitude pdf with scale sigma:

    f(u) = sqrt(2/pi) u^2 exp(-u^2 / (2 sigma^2)) / sigma^3
    """

    sigma: float
    family: ClassVar[str] = "maxwell"


@dataclass(frozen=True)
class Weibull(ClutterModel):
    """Long-tailed amplitude pdf with shape b and scale z:

    f(x) = (b/z) (x/z)^(b-1) exp(-(x/z)^b)
    """

    b: float
    z: float
    family: ClassVar[str] = "weibull"


@dataclass(frozen=True)
class Rayleigh(ClutterModel):
    """Amplitude pdf f(r) = 2 (r/z^2) exp(-(r/z)^2): Weibull with b = 2."""

    z: float
    family: ClassVar[str] = "rayleigh"


@dataclass(frozen=True)
class GammaGamma(ClutterModel):
    """Compound power model: unit-mean gamma speckle (shape L) times gamma
    texture (shape M, mean mu):

    f(v) = 2 (LM/mu)^((L+M)/2) v^((L+M)/2 - 1)
           K_{M-L}(2 sqrt(LM v / mu)) / (Gamma(L) Gamma(M))

    The first moment equals mu.
    """

    L: float
    M: float
    mu: float
    family: ClassVar[str] = "gamma_gamma"

    def _components(self) -> Tuple[ClutterModel, ClutterModel]:
        return Gamma(L=self.L, mu=1.0), Gamma(L=self.M, mu=self.mu)


@dataclass(frozen=True)
class KAmplitude(ClutterModel):
    """Compound amplitude (K) model: Rayleigh speckle whose mean-square is
    gamma-distributed with shape alpha and rate b; mu is an overall amplitude
    scale (the textbook K-pdf has mu = 1):

    f(r) = (4 b^((alpha+1)/2) / Gamma(alpha)) (r/mu)^alpha
           K_{alpha-1}(2 (r/mu) sqrt(b)) / mu
    """

    alpha: float
    b: float
    mu: float = 1.0
    family: ClassVar[str] = "k_amplitude"

    def _components(self) -> Tuple[ClutterModel, ClutterModel]:
        # the texture is the amplitude, the square root of the gamma mean
        # square, so the components multiply to the compound amplitude
        texture = Nakagami(L=self.alpha, mu=math.sqrt(self.alpha / self.b))
        return Rayleigh(z=self.mu), texture


@dataclass(frozen=True)
class WeibullNakagami(ClutterModel):
    """Compound amplitude model: generalized Weibull speckle (shape c) whose
    scale is Nakagami-distributed (shape alpha, rate b on the mean square),
    with overall mean-square scale sigma.  The density has no elementary
    closed form and is evaluated by quadrature over the texture variable:

    f(r) = (2 c b^alpha / Gamma(alpha)) r'^(c-1) / sqrt(sigma)
           * Int_0^inf z^(2 alpha - 1 - c) exp(-(r'/z)^c - b z^2) dz,
    with r' = r / sqrt(sigma).

    In u = ln z the integrand is exp(g(u)) with a strictly concave g, so it
    has one peak.  pdf finds the peak by safeguarded Newton steps from an
    analytic bracket, walks out from it in doubling steps of the peak's width
    until g has fallen by 60, and integrates exp(g - g(peak)) over that range
    with Gauss-Kronrod 7-15 panels, evaluated in numpy a whole set at a time
    and bisected where they miss their share of a 1e-10 relative budget.  The
    rule uses the integrand alone, never the closed-form transform that
    verify checks against it.
    """

    c: float
    alpha: float
    b: float
    sigma: float
    family: ClassVar[str] = "weibull_nakagami"

    def _components(self) -> Tuple[ClutterModel, ClutterModel]:
        texture = Nakagami(
            L=self.alpha, mu=math.sqrt(self.alpha * self.sigma / self.b)
        )
        return Weibull(b=self.c, z=1.0), texture


@dataclass(frozen=True)
class Fisher(ClutterModel):
    """Compound power model with gamma speckle (shape L) and inverse-gamma
    texture (shape M), scale mu:

    f(u) = (Gamma(L+M) / (Gamma(L) Gamma(M))) (L/(M mu))
           lam^(L-1) / (1 + lam)^(L+M),   lam = L u / (M mu)

    Heavy-tailed: moments of order n >= M diverge.
    """

    L: float
    M: float
    mu: float
    family: ClassVar[str] = "fisher"

    def _components(self) -> Tuple[ClutterModel, ClutterModel]:
        return Gamma(L=self.L, mu=1.0), InverseGamma(M=self.M, mu=self.M * self.mu)


@dataclass(frozen=True)
class InverseGamma(ClutterModel):
    """Texture component of the Fisher model: reciprocal of a gamma variate,
    shape M and scale mu:

    f(z) = mu^M z^(-M-1) exp(-mu/z) / Gamma(M)
    """

    M: float
    mu: float
    family: ClassVar[str] = "inverse_gamma"


FAMILIES = {cls.family: cls for cls in ClutterModel.__subclasses__()}

COMPOUND_FAMILY_TYPES = tuple(
    cls for cls in FAMILIES.values() if cls._components is not None
)


@dataclass(frozen=True)
class Decomposition:
    """Speckle and texture components of a compound model.

    The components multiply in the transform domain: the product of their
    second-kind characteristic functions equals the compound's on the common
    analyticity strip, and their log-cumulants add order by order.
    """

    speckle: ClutterModel
    texture: ClutterModel


def validate(model: ClutterModel) -> ClutterModel:
    """Return the model unchanged if it is a clutter model.

    A model's parameters are checked when it is built, so any ClutterModel
    is valid; only values of other types are rejected here.
    """
    if not isinstance(model, ClutterModel):
        raise ParameterError(f"not a clutter model: {model!r}")
    return model


# Inner quadrature budget for the Weibull-Nakagami density; tighter than the
# callers' budgets so nested integrals (normalization, transforms) still meet
# their own tolerances.
_WN_INNER_TOL = Tolerance(abs_tol=1e-14, rel_tol=1e-10, max_subdivisions=200)
_WN_DROP = 60.0  # the texture integral's range ends where g falls this far
_WN_MAX_STEPS = 100  # Newton and bisection steps to the texture peak
# steps of the walk from the texture peak to each end; two panels a step
_WN_MAX_DOUBLINGS = _WN_INNER_TOL.max_subdivisions // 4

# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK's qk15; Piessens et al. 1983):
# the Kronrod nodes in (0, 1), the Kronrod weights from the outermost node to
# 0, and the Gauss weights of every second of those nodes.
_GK_HALF_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_GK_HALF_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_G_HALF_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_GK_NODES = np.array(
    [-x for x in _GK_HALF_NODES] + [0.0] + list(reversed(_GK_HALF_NODES))
)
_GK_WEIGHTS = np.array(_GK_HALF_WEIGHTS + _GK_HALF_WEIGHTS[-2::-1])
_G_WEIGHTS = np.array(_G_HALF_WEIGHTS + _G_HALF_WEIGHTS[-2::-1])


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod estimates of the integrals of f over the panels [lo, hi] and
    their errors, |Kronrod - Gauss|, all panels in one evaluation of f."""
    half = 0.5 * (hi - lo)
    values = f((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES)
    kronrod = half * (values @ _GK_WEIGHTS)
    gauss = half * (values[:, 1::2] @ _G_WEIGHTS)
    return kronrod, np.abs(kronrod - gauss)


def _panel_quadrature(f, edges, tol: Tolerance) -> float:
    """Integral of the vectorised f >= 0 over [edges[0], edges[-1]] to
    max(abs_tol, rel_tol * result), from Gauss-Kronrod panels between the
    sorted edges.  Each round bisects the panels whose error exceeds their
    share of the budget (in proportion to width; the worst panel always),
    until the errors fit the budget or the panels number max_subdivisions.
    """
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    span = edges[-1] - edges[0]
    values, errors = _gauss_kronrod(f, lo, hi)
    while True:
        total = float(values.sum())
        budget = max(tol.abs_tol, tol.rel_tol * total)
        if float(errors.sum()) <= budget:
            return total
        split = errors > budget * (hi - lo) / span
        split[np.argmax(errors)] = True
        if lo.size + np.count_nonzero(split) > tol.max_subdivisions:
            raise NonConvergenceError(
                f"quadrature error {float(errors.sum()):.3g} above {budget:.3g} "
                f"after {lo.size} panels"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_values, new_errors = _gauss_kronrod(f, new_lo, new_hi)
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        values = np.concatenate((values[keep], new_values))
        errors = np.concatenate((errors[keep], new_errors))


_LOG_EPS = -745.0  # exp() underflows to zero below this
_LOG_MAX = 709.0
_LN2 = math.log(2.0)
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _exp_or_zero(log_value: float) -> float:
    if log_value < _LOG_EPS:
        return 0.0
    if log_value > _LOG_MAX:
        raise NumericOverflowError("density overflow")
    return math.exp(log_value)


def _quotient(
    num: Tuple[float, ...], den: Tuple[float, ...]
) -> Tuple[float, float]:
    """(q, ln q) for q = prod(num) / prod(den) with factors > 0.

    Where both products and q are normal doubles, q is computed as written, so
    those values do not change.  Elsewhere (a product or q underflowed or
    overflowed) ln q is the sum of the factors' logs and q is e^(ln q), 0 or
    inf beyond the double range.
    """
    top, bottom = math.prod(num), math.prod(den)
    if _TINY <= top <= _HUGE and _TINY <= bottom <= _HUGE:
        q = top / bottom
        if _TINY <= q <= _HUGE:
            return q, math.log(q)
    log_q = math.fsum(map(math.log, num)) - math.fsum(map(math.log, den))
    return (math.exp(log_q) if log_q < _LOG_MAX else math.inf), log_q


def pdf(model: ClutterModel, x: float) -> float:
    """Probability density of the model at x > 0.

    Raises NumericOverflowError, naming the model and x, where the density
    cannot be evaluated in doubles (for example when x / scale underflows).
    """
    x = float(x)
    if math.isnan(x) or x <= 0:
        raise ParameterError(f"x must be > 0, got {x!r}")
    if math.isinf(x):
        raise ParameterError("x must be finite")
    try:
        value = _pdf(model, x)
    except ParameterError:
        raise
    except (ArithmeticError, ValueError) as exc:
        # a division by an underflowed square, an exp beyond the double
        # range, a Bessel argument that underflowed (NumericOverflowError)
        raise NumericOverflowError(
            f"pdf of {model!r} at x={x!r} is not representable: {exc}"
        ) from exc
    if math.isnan(value) or math.isinf(value):
        raise NumericOverflowError(
            f"pdf overflow for {model!r} at x={x!r}"
        )
    return value


@singledispatch
def _pdf(model, x: float) -> float:
    raise ParameterError(f"not a clutter model: {model!r}")


@_pdf.register
def _(model: Exponential, x: float) -> float:
    return _exp_or_zero(-x / model.mu - math.log(model.mu))


@_pdf.register
def _(model: Gamma, x: float) -> float:
    L, mu = model.L, model.mu
    log_f = (
        L * _quotient((L,), (mu,))[1]
        + (L - 1.0) * math.log(x)
        - _quotient((L, x), (mu,))[0]
        - gammaln(L)
    )
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: Nakagami, x: float) -> float:
    L, mu = model.L, model.mu
    log_f = (
        math.log(2.0)
        + L * _quotient((L,), (mu, mu))[1]
        + (2.0 * L - 1.0) * math.log(x)
        - _quotient((L, x, x), (mu, mu))[0]
        - gammaln(L)
    )
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: Maxwell, x: float) -> float:
    s = model.sigma
    log_f = (
        0.5 * math.log(2.0 / math.pi)
        - 3.0 * math.log(s)
        + 2.0 * math.log(x)
        - x * x / (2.0 * s * s)
    )
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: Weibull, x: float) -> float:
    b, z = model.b, model.z
    log_ratio = math.log(x / z)
    t = b * log_ratio
    if t > _LOG_MAX:
        return 0.0
    log_f = math.log(b / z) + (b - 1.0) * log_ratio - math.exp(t)
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: Rayleigh, x: float) -> float:
    return _pdf(Weibull(b=2.0, z=model.z), x)


def _log_kve(nu: float, w: float) -> float:
    """ln(K_nu(w) e^w), the log of the scaled Bessel K.

    Where kve overflows (large order, small argument), ln K_nu is computed
    without forming K_nu, from K_nu(w) = Int_0^inf exp(-w cosh t) cosh(nu t) dt
    (DLMF 10.32.9), shifted by the log of the integrand at its peak.
    """
    value = float(kve(nu, w))
    if math.isfinite(value) and value > 0.0:
        return math.log(value)
    nu = abs(nu)
    if not (w > 0.0 and nu < 1e13):
        # (beyond order 1e13 the densities' log terms round by over 1e-3)
        raise NumericOverflowError(
            f"Bessel factor not representable (nu={nu:g}, w={w:g})"
        )
    log_w = math.log(w)
    # the integrand peaks near t = asinh(nu / w), here without forming nu / w;
    # ln cosh(nu t) = nu t + ln(1 + e^(-2 nu t)) - ln 2, whose middle term is
    # the tail
    peak = math.log(nu) - log_w + math.log1p(math.hypot(1.0, w / nu))
    peak_tail = math.log1p(math.exp(-2.0 * nu * peak))

    def log_ratio(d: float) -> float:
        # ln of the integrand at t = peak + d over its value at the peak, with
        # the cosh difference as 2 sinh(peak + d/2) sinh(d/2): exact to
        # rounding near the peak
        mid = peak + 0.5 * d
        if log_w + mid > _LOG_MAX:
            return -math.inf
        two_w_sinh_mid = math.exp(log_w + mid) - math.exp(log_w - mid)
        tail = math.log1p(math.exp(-2.0 * nu * (peak + d))) - peak_tail
        return nu * d + tail - two_w_sinh_mid * math.sinh(0.5 * d)

    # ln cosh(nu t) - w (cosh t - 1) at the peak
    cosh_peak = 0.5 * (math.exp(log_w + peak) + math.exp(log_w - peak))
    shift = nu * peak + peak_tail - _LN2 - cosh_peak + w
    # outside [lo, hi] the integrand is below e^-40 of its value at the peak,
    # whose width is about (nu^2 + w^2)^(-1/4)
    width = math.hypot(nu, w) ** -0.5
    lo, hi, step = 0.0, 0.0, width
    while lo > -peak and log_ratio(lo) > -40.0:
        lo, step = max(-peak, -step), 2.0 * step
    step = width
    while log_ratio(hi) > -40.0:
        hi, step = step, 2.0 * step
    # the terms of log_ratio, about sqrt(nu) in size, round to about
    # eps sqrt(nu), and the integral is no more accurate than that
    epsrel = max(1e-13, 1e-14 * math.sqrt(nu))
    out = scipy.integrate.quad(
        lambda d: math.exp(log_ratio(d)), lo, hi, points=[0.0], epsabs=0.0,
        epsrel=epsrel, limit=200, full_output=1,
    )
    if len(out) > 3 or not out[0] > 0.0:
        raise NonConvergenceError(f"Bessel integral failed (nu={nu:g}, w={w:g})")
    return shift + math.log(out[0])


@_pdf.register
def _(model: GammaGamma, x: float) -> float:
    L, M, mu = model.L, model.M, model.mu
    half_sum = 0.5 * (L + M)
    w = 2.0 * math.sqrt(L * M * x / mu)
    log_f = (
        math.log(2.0)
        - gammaln(L)
        - gammaln(M)
        + half_sum * _quotient((L, M), (mu,))[1]
        + (half_sum - 1.0) * math.log(x)
        + _log_kve(M - L, w)
        - w
    )
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: KAmplitude, x: float) -> float:
    alpha, b, mu = model.alpha, model.b, model.mu
    r, log_r = _quotient((x,), (mu,))
    w = 2.0 * r * math.sqrt(b)
    log_f = (
        math.log(4.0)
        + 0.5 * (alpha + 1.0) * math.log(b)
        + alpha * log_r
        - gammaln(alpha)
        + _log_kve(alpha - 1.0, w)
        - w
        - math.log(mu)
    )
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: WeibullNakagami, x: float) -> float:
    c, alpha, b = model.c, model.alpha, model.b
    ln_root_sigma = 0.5 * math.log(model.sigma)
    ln_r = math.log(x) - ln_root_sigma
    ln_b = math.log(b)
    # In u = ln z the texture integrand is exp(g(u)) with
    #   g(u)   = A u - e^(c (ln r - u)) - e^(ln b + 2u),   A = 2 alpha - c,
    #   g'(u)  = A + c e^(c (ln r - u)) - 2 e^(ln b + 2u),
    #   g''(u) = -c^2 e^(c (ln r - u)) - 4 e^(ln b + 2u) < 0,
    # so g is strictly concave and has one peak, where g' = A + B - C = 0 with
    # B = c e^(c (ln r - u)) falling and C = 2 e^(ln b + 2u) rising.  For
    # A > 0, g' >= 0 at m, the larger of the points where B = C and C = A,
    # and g' <= 0 at m + ln(2)/2, where C has doubled.  For A <= 0, g' <= 0 at
    # m, the smaller of the points where B = C and B = -A, and g' >= 0 at
    # m - ln(2)/c, where B has doubled.  Newton steps on the decreasing g',
    # bisected back into that bracket, find the peak.
    A = 2.0 * alpha - c
    m = (math.log(c) - _LN2 - ln_b + c * ln_r) / (c + 2.0)  # B = C
    if A > 0.0:
        lo = max(m, 0.5 * (math.log(A) - _LN2 - ln_b))  # C = A
        hi = lo + 0.5 * _LN2
    else:
        if A < 0.0:
            m = min(m, ln_r - (math.log(-A) - math.log(c)) / c)  # B = -A
        lo, hi = m - _LN2 / c, m
    u = 0.5 * (lo + hi)
    previous = math.inf
    for _ in range(_WN_MAX_STEPS):
        t1, t2 = c * (ln_r - u), ln_b + 2.0 * u
        e1, e2 = math.exp(t1), math.exp(t2)
        curvature = c * c * e1 + 4.0 * e2  # -g''(u)
        step = (A + c * e1 - 2.0 * e2) / curvature
        # a step of 1e-9 peak widths leaves the peak about 1e-18 widths out,
        # and Newton steps this short shrink quadratically until the rounding
        # of g' stops them, which a step that does not halve shows
        size = abs(step) * math.sqrt(curvature)
        if size <= 1e-9 or (size <= 1e-3 and abs(step) > 0.5 * previous):
            break
        previous = abs(step)
        if step > 0.0:
            lo = u
        else:
            hi = u
        u, last = (u + step if lo < u + step < hi else 0.5 * (lo + hi)), u
        if u == last:
            break  # the bracket has shrunk to adjacent doubles
    else:
        raise NonConvergenceError(f"texture peak not found at x={x:g}")
    u += step
    t1, t2 = c * (ln_r - u), ln_b + 2.0 * u
    e1, e2 = math.exp(t1), math.exp(t2)
    g_peak = A * u - e1 - e2
    width = 1.0 / math.sqrt(c * c * e1 + 4.0 * e2)

    def drop(d, expm1=math.expm1):
        """g(u + d) - g(u) = -e1 phi(-c d) - e2 phi(2 d), phi(y) = e^y - 1 - y:
        g'(u) = 0 cancels the terms linear in d, so near the peak no large
        terms cancel, and both terms are <= 0."""
        y1, y2 = -c * d, 2.0 * d
        return -e1 * (expm1(y1) - y1) - e2 * (expm1(y2) - y2)

    # Walk out from the peak in doubling steps of its width until g has
    # fallen _WN_DROP below the peak (by concavity the mass beyond is below
    # e^-_WN_DROP of the whole); each step is two panels of the quadrature.
    # A term is not taken past the point where its exp would overflow.
    edges = [0.0]
    for sign, t, rate in ((1.0, t2, 2.0), (-1.0, t1, c)):
        cap = (_LOG_MAX - max(t, 0.0)) / rate
        near, d = 0.0, width
        for _ in range(_WN_MAX_DOUBLINGS):
            d = min(d, cap)
            edges += (0.5 * sign * (near + d), sign * d)
            if drop(sign * d) <= -_WN_DROP:
                break
            if d == cap:
                raise NumericOverflowError("texture integrand not representable")
            near, d = d, 2.0 * d
        else:
            raise NonConvergenceError(
                f"texture integrand spans over {_WN_MAX_DOUBLINGS} doublings "
                f"of its peak width at x={x:g}"
            )
    edges.sort()

    log_pref = (
        math.log(2.0 * c)
        + alpha * ln_b
        - float(gammaln(alpha))
        + (c - 1.0) * ln_r
        - ln_root_sigma
        + g_peak
    )
    if log_pref + math.log(edges[-1] - edges[0]) < _LOG_EPS:
        return 0.0  # the integrand is at most 1 on the range
    # an overflow raises FloatingPointError, which pdf reports as
    # NumericOverflowError, not a numpy warning
    with np.errstate(over="raise", invalid="raise"):
        integral = _panel_quadrature(
            lambda d: np.exp(drop(d, np.expm1)), edges, _WN_INNER_TOL
        )
    return _exp_or_zero(log_pref + math.log(integral))


@_pdf.register
def _(model: Fisher, x: float) -> float:
    L, M, mu = model.L, model.M, model.mu
    lam, log_lam = _quotient((L, x), (M, mu))
    # (L - 1) ln lam - (L + M) ln(1 + lam); for lam > 1 the two large terms
    # are cancelled by hand, else a large L loses the result to rounding
    if log_lam > 0.0:
        shape = -(M + 1.0) * log_lam - (L + M) * math.log1p(1.0 / lam)
    else:
        shape = (L - 1.0) * log_lam - (L + M) * math.log1p(lam)
    # ln B(L, M) by betaln: as a sum of log-gammas it loses everything to
    # rounding once the shapes differ by many orders (L = 3, M = 1e20); a
    # Python float, so that a shape beyond the double range gives a quiet
    # nan, which pdf reports, not a numpy warning
    log_f = -float(betaln(L, M)) + _quotient((L,), (M, mu))[1] + shape
    return _exp_or_zero(log_f)


@_pdf.register
def _(model: InverseGamma, x: float) -> float:
    M, mu = model.M, model.mu
    log_f = M * math.log(mu) - (M + 1.0) * math.log(x) - mu / x - gammaln(M)
    return _exp_or_zero(log_f)


def decompose(model: ClutterModel) -> Decomposition:
    """The (speckle, texture) components a compound family declares; their
    second-kind characteristic functions multiply to the compound's.

    Amplitude-domain compounds have amplitude-domain textures (the square
    root of the gamma-distributed mean square).  Raises NumericOverflowError
    when a component's parameters are not representable as doubles.
    """
    if validate(model)._components is None:
        raise NotCompoundError(f"{type(model).__name__} is not a compound model")
    return model._decomposition


def model_to_dict(model: ClutterModel) -> dict:
    """Flat record {family, <parameter>: value, ...} for JSON serialization."""
    validate(model)
    record = {"family": type(model).family}
    for field in fields(model):
        record[field.name] = float(getattr(model, field.name))
    return record


def model_from_dict(record: dict) -> ClutterModel:
    """Inverse of model_to_dict; checks family and field names, and the
    values through the model's construction."""
    if "family" not in record:
        raise ParameterError("model record must contain a 'family' key")
    data = dict(record)
    name = data.pop("family")
    cls = FAMILIES.get(name)
    if cls is None:
        raise ParameterError(
            f"unknown family {name!r}; expected one of {sorted(FAMILIES)}"
        )
    known = {field.name for field in fields(cls)}
    extra = set(data) - known
    if extra:
        raise ParameterError(
            f"parameters {sorted(extra)} are not part of family {name!r}"
        )
    required = {
        field.name
        for field in fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    }
    missing = required - set(data)
    if missing:
        raise ParameterError(
            f"family {name!r} requires parameters {sorted(missing)}"
        )
    try:
        values = {key: float(value) for key, value in data.items()}
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"invalid parameters for {name!r}: {exc}") from exc
    return cls(**values)
