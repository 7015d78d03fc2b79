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

Each family's density is written once, as its log ln f(e^u) on numpy arrays
of u = ln x, nan where it is not representable in doubles; log_pdf is its
one-element case (raising NumericOverflowError there), and pdf its
exponential.  The oracles integrate it over arrays of u.  Each family is a
product of independent gamma powers, so ln X has a log-concave density: the
oracles' integrands are concave in ln x, and a density that broke that would
fail a cross-check, not pass it.  ln K_nu (from ln w) and the
Weibull-Nakagami texture integral come from specfun, on the same arrays.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, fields
from functools import cached_property, singledispatch
from typing import Callable, ClassVar, Optional, Tuple

import numpy as np
from scipy.special import betaln, gammaln

from .errors import (
    NotCompoundError,
    NumericOverflowError,
    ParameterError,
)
from .specfun import (
    _LN2,
    _LOG_MAX,
    Tolerance,
    _log_kve,
    _log_peak_integral,
)

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
    "log_pdf",
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

    In u = ln z the integrand is exp of a strictly concave function, which
    log_pdf integrates to 1e-10 relative with specfun's concave-peak rule,
    from the integrand alone, never the closed form verify checks it against.
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


# Inner quadrature budget for the Weibull-Nakagami density; tighter than the
# callers' budgets so nested integrals (normalization, transforms) still meet
# their own tolerances.
_WN_INNER_TOL = Tolerance(rel_tol=1e-10, max_subdivisions=200)
_LOG_EPS = -745.0  # exp() underflows to zero below this
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
_LOG_HUGE = math.log(_HUGE)  # e^u is finite exactly where u <= _LOG_HUGE
# ln of the normal doubles, narrowed by 1 at each end
_LOG_NORMAL = (math.log(_TINY) + 1.0, _LOG_HUGE - 1.0)


def _quotient(
    num: Tuple[float, ...], den: Tuple[float, ...]
) -> Tuple[float, float]:
    """(q, ln q) for q = prod(num) / prod(den) with factors > 0: the scale
    ratios of the densities (_quotients on arrays) and of mellin's powers.

    Where both products and q are normal doubles, q is computed as written, so
    those values do not change.  Elsewhere (a product or q underflowed or
    overflowed) ln q is the sum of the factors' logs, always a double, and q
    is e^(ln q), 0 or inf beyond the double range.
    """
    top, bottom = math.prod(num), math.prod(den)
    if _TINY <= top <= _HUGE and _TINY <= bottom <= _HUGE:
        q = top / bottom
        if _TINY <= q <= _HUGE:
            return q, math.log(q)
    log_q = math.fsum(map(math.log, num)) - math.fsum(map(math.log, den))
    return (math.exp(log_q) if log_q <= _LOG_HUGE else math.inf), log_q


def _quotients(u: np.ndarray, num, den, power: int = 1):
    """(q, ln q) elementwise for q = prod(num) x^power / prod(den), x = e^u,
    as _quotient takes them: in linear space where x, the numerator and q
    are normal doubles by a factor e (where u lies in one interval, as each
    is e to a line in u), else ln q = power u + the factors' logs and
    q = e^(ln q), 0 or inf beyond the double range."""
    c, bottom = math.prod(num), math.prod(den)
    lo, hi = _LOG_NORMAL
    log_c = math.fsum(map(math.log, num)) - math.fsum(map(math.log, den))
    if _TINY <= c <= _HUGE and _TINY <= bottom <= _HUGE:
        lo = max(lo, (lo - math.log(c)) / power, (lo - log_c) / power)
        hi = min(hi, (hi - math.log(c)) / power, (hi - log_c) / power)
    else:
        lo = math.inf
    x = np.exp(u)
    q = c * x * x / bottom if power == 2 else c * x / bottom
    log_q = np.log(q)
    linear = (lo <= u) & (u <= hi)  # (empty where lo > hi)
    if not linear.all():
        log_q = np.where(linear, log_q, power * u + log_c)
        q = np.where(linear, q, np.exp(log_q))
    return q, log_q


def log_pdf(model: ClutterModel, x: float) -> float:
    """ln of the density of the model at x > 0 (-inf where it carries e^-w, w
    beyond the doubles, and for Weibull-Nakagami below e^-745); raises
    NumericOverflowError, naming the model and x, where it is not in doubles.
    It is the one-element case of the model's density on arrays in u = ln x.
    """
    x = float(x)
    if math.isnan(x) or x <= 0:
        raise ParameterError(f"x must be > 0, got {x!r}")
    if math.isinf(x):
        raise ParameterError("x must be finite")
    value = _log_density(model, np.log(np.array([x])))[0].item()
    if math.isnan(value):
        raise NumericOverflowError(
            f"pdf of {model!r} at x={x!r} is not representable"
        )
    return value


def pdf(model: ClutterModel, x: float) -> float:
    """Probability density of the model at x > 0, e^log_pdf(model, x): 0.0
    below e^-745, NumericOverflowError where log_pdf raises or it overflows."""
    log_f = log_pdf(model, x)
    if log_f > _LOG_HUGE:
        raise NumericOverflowError(f"pdf overflow for {model!r} at x={x!r}")
    return 0.0 if log_f < _LOG_EPS else math.exp(log_f)


@np.errstate(all="ignore")  # a value beyond the doubles is nan, checked here
def _log_density(model: ClutterModel, u: np.ndarray) -> np.ndarray:
    """ln f(e^u), the model's log-density, elementwise over the array u; nan
    where it is not representable in doubles (as is +inf)."""
    value = _log_f(model, u)
    return np.where(value < math.inf, value, math.nan)


@singledispatch
def _log_f(model, u: np.ndarray) -> np.ndarray:
    """ln f(e^u) of each family (checked by _log_density)."""
    raise ParameterError(f"not a clutter model: {model!r}")


@_log_f.register
def _(model: Exponential, u: np.ndarray) -> np.ndarray:
    return -_quotients(u, (1.0,), (model.mu,))[0] - math.log(model.mu)


@_log_f.register
def _(model: Gamma, u: np.ndarray) -> np.ndarray:
    L, mu = model.L, model.mu
    return (
        L * _quotient((L,), (mu,))[1]
        + (L - 1.0) * u
        - _quotients(u, (L,), (mu,))[0]
        - gammaln(L)
    )


@_log_f.register
def _(model: Nakagami, u: np.ndarray) -> np.ndarray:
    L, mu = model.L, model.mu
    return (
        _LN2
        + L * _quotient((L,), (mu, mu))[1]
        + (2.0 * L - 1.0) * u
        - _quotients(u, (L,), (mu, mu), 2)[0]
        - gammaln(L)
    )


@_log_f.register
def _(model: Maxwell, u: np.ndarray) -> np.ndarray:
    s = model.sigma
    return (
        0.5 * math.log(2.0 / math.pi)
        - 3.0 * math.log(s)
        + 2.0 * u
        - _quotients(u, (1.0,), (2.0, s, s), 2)[0]
    )


def _weibull_log_f(b: float, z: float, u: np.ndarray) -> np.ndarray:
    log_ratio = _quotients(u, (1.0,), (z,))[1]
    t = b * log_ratio
    value = _quotient((b,), (z,))[1] + (b - 1.0) * log_ratio - np.exp(t)
    return np.where(t > _LOG_MAX, -math.inf, value)


@_log_f.register
def _(model: Weibull, u: np.ndarray) -> np.ndarray:
    return _weibull_log_f(model.b, model.z, u)


@_log_f.register
def _(model: Rayleigh, u: np.ndarray) -> np.ndarray:
    return _weibull_log_f(2.0, model.z, u)


def _bessel_log_f(log_scale, nu: float, log_w: np.ndarray) -> np.ndarray:
    """log_scale + ln K_nu(w), w = e^log_w, elementwise: -inf where w is
    beyond the doubles (the densities carry e^-w), from the scaled Bessel K
    taken where it is not."""
    near = np.minimum(log_w, _LOG_MAX)
    value = log_scale + _log_kve(nu, near) - np.exp(near)
    return np.where(log_w > _LOG_MAX, -math.inf, value)


@_log_f.register
def _(model: GammaGamma, u: np.ndarray) -> np.ndarray:
    L, M, mu = model.L, model.M, model.mu
    half_sum = 0.5 * (L + M)
    # w = 2 sqrt(L M x / mu)
    log_w = _LN2 + 0.5 * _quotients(u, (L, M), (mu,))[1]
    log_scale = (
        _LN2
        - gammaln(L)
        - gammaln(M)
        + half_sum * _quotient((L, M), (mu,))[1]
        + (half_sum - 1.0) * u
    )
    return _bessel_log_f(log_scale, M - L, log_w)


@_log_f.register
def _(model: KAmplitude, u: np.ndarray) -> np.ndarray:
    alpha, b, mu = model.alpha, model.b, model.mu
    log_r = _quotients(u, (1.0,), (mu,))[1]
    log_w = _LN2 + log_r + 0.5 * math.log(b)  # w = 2 (x / mu) sqrt(b)
    log_scale = (
        2.0 * _LN2
        + 0.5 * (alpha + 1.0) * math.log(b)
        + alpha * log_r
        - gammaln(alpha)
        - math.log(mu)
    )
    return _bessel_log_f(log_scale, alpha - 1.0, log_w)


@_log_f.register
def _(model: WeibullNakagami, u: np.ndarray) -> np.ndarray:
    c, alpha, ln_b = model.c, model.alpha, math.log(model.b)
    ln_root_sigma = 0.5 * math.log(model.sigma)
    ln_r = u - ln_root_sigma
    log_pref = (
        math.log(2.0 * c)
        + alpha * ln_b
        - float(gammaln(alpha))
        + (c - 1.0) * ln_r
        - ln_root_sigma
    )
    # the texture integrand, in v = ln z:
    # exp((2 alpha - c) v - e^(c (ln r - v)) - e^(2 (v + ln(b)/2)));
    # where it and the prefactor are too small to reach e^-745, it is not summed
    return _log_peak_integral(
        2.0 * alpha - c, c, ln_r, 2.0, -0.5 * ln_b, _WN_INNER_TOL, log_pref, _LOG_EPS
    ).reshape(u.shape)


@_log_f.register
def _(model: Fisher, u: np.ndarray) -> np.ndarray:
    L, M, mu = model.L, model.M, model.mu
    lam, log_lam = _quotients(u, (L,), (M, mu))
    # (L - 1) ln lam - (L + M) ln(1 + lam); for lam > 1 the two large terms
    # are cancelled by hand, else a large L loses the result to rounding
    shape = np.where(
        log_lam > 0.0,
        -(M + 1.0) * log_lam - (L + M) * np.log1p(1.0 / lam),
        (L - 1.0) * log_lam - (L + M) * np.log1p(lam),
    )
    # ln B(L, M) by betaln: as a sum of log-gammas it loses everything to
    # rounding once the shapes differ by many orders (L = 3, M = 1e20); a
    # shape beyond the double range gives nan
    return -betaln(L, M) + _quotient((L,), (M, mu))[1] + shape


@_log_f.register
def _(model: InverseGamma, u: np.ndarray) -> np.ndarray:
    M, mu = model.M, model.mu
    return M * math.log(mu) - (M + 1.0) * u - _quotients(-u, (mu,), ())[0] - gammaln(M)


def decompose(model: ClutterModel) -> Decomposition:
    """The (speckle, texture) components a compound family declares; their
    second-kind characteristic functions multiply to the compound's.

    Amplitude-domain compounds have amplitude-domain textures (the square
    root of the gamma-distributed mean square).  Raises NumericOverflowError
    when a component's parameters are not representable as doubles.
    """
    if not isinstance(model, ClutterModel):
        raise ParameterError(f"not a clutter model: {model!r}")
    if model._components is None:
        raise NotCompoundError(f"{type(model).__name__} is not a compound model")
    return model._decomposition


def model_to_dict(model: ClutterModel) -> dict:
    """Flat record {family, <parameter>: value, ...} for JSON serialization."""
    if not isinstance(model, ClutterModel):
        raise ParameterError(f"not a clutter model: {model!r}")
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
