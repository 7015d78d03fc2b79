"""Second-kind characteristic functions and log-statistics.

For a density f on (0, inf), the second-kind characteristic function is the
Mellin transform Phi(s) = Int_0^inf x^(s-1) f(x) dx, with Psi(s) = ln Phi(s).
Classical moments are Phi evaluated at integer points (m_n = Phi(n+1));
log-moments are derivatives of Phi at s = 1 and log-cumulants are derivatives
of Psi at s = 1.

Every family's Phi has the same shape: a product of power terms base^(e*d)
and gamma ratios Gamma(a + d/q) / Gamma(a), with d = s - 1.  Each family
states that product once, as a factor table; the analyticity strip, psi and
phi, classical moments and log-cumulants of every order are derived from it
(k_n = sum of q^(-n) psi^(n-1)(a), Nicolas, Traitement du Signal 19(3),
2002), and so is the sampler in simulate.  A compound family's table joins
its speckle and texture factors, which is why compound transforms factor and
log-cumulants add across speckle and texture.

Two numerical routes double-check the closed forms: direct quadrature of
the transform integral over the density (phi_numeric, which takes only the
strip from the table) and central-difference derivatives of Psi
(log_cumulants_numeric, which checks the cumulant sums against Psi itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch
from typing import Tuple

from scipy.special import gamma as sc_gamma

from .errors import (
    MomentDivergesError,
    NumericOverflowError,
    ParameterError,
    StripError,
)
from .models import (
    ClutterModel,
    Exponential,
    Fisher,
    Gamma,
    GammaGamma,
    InverseGamma,
    KAmplitude,
    Maxwell,
    Nakagami,
    Rayleigh,
    Weibull,
    WeibullNakagami,
    pdf,
    validate,
)
from .specfun import (
    DEFAULT_TOLERANCE,
    Tolerance,
    derivative_at,
    integrate_semi_infinite,
    log_gamma,
    polygamma,
)

__all__ = [
    "AnalyticityStrip",
    "LogStats",
    "KIND_LOG_MOMENTS",
    "KIND_LOG_CUMULANTS",
    "CONVENTION_STANDARD",
    "CONVENTION_PAPER_EQ6",
    "analyticity_strip",
    "factor_table",
    "phi",
    "psi",
    "phi_numeric",
    "classical_moment",
    "log_cumulants",
    "log_cumulants_numeric",
    "log_moments",
    "convert",
]

KIND_LOG_MOMENTS = "log_moments"
KIND_LOG_CUMULANTS = "log_cumulants"
CONVENTION_STANDARD = "standard"
CONVENTION_PAPER_EQ6 = "paper_eq6"

_KINDS = (KIND_LOG_MOMENTS, KIND_LOG_CUMULANTS)
_CONVENTIONS = (CONVENTION_STANDARD, CONVENTION_PAPER_EQ6)


@dataclass(frozen=True)
class AnalyticityStrip:
    """Open interval of real s on which Phi(s) is finite.

    s = 1 is always interior since Phi(1) = 1 for any density.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower < 1.0 < self.upper):
            raise ParameterError(
                f"analyticity strip must contain s=1, got "
                f"({self.lower:g}, {self.upper:g})"
            )

    def contains(self, s: float) -> bool:
        return self.lower < s < self.upper


@dataclass(frozen=True)
class LogStats:
    """Ordered log-moments or log-cumulants, values[k] being order k+1.

    convention marks which fourth-order moment/cumulant relation applies:
    'standard' uses the classical relations (the only choice consistent with
    empirical fourth-order statistics); 'paper_eq6' keeps the raw-to-central
    style fourth line some texts print.  Orders 1..3 agree between the two.
    """

    kind: str
    convention: str
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.convention not in _CONVENTIONS:
            raise ParameterError(
                f"convention must be one of {_CONVENTIONS}, got {self.convention!r}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ParameterError("values must contain at least order 1")
        if not all(math.isfinite(v) for v in values):
            raise ParameterError("log-statistics must be finite")
        object.__setattr__(self, "values", values)

    @property
    def max_order(self) -> int:
        return len(self.values)

    def order(self, n: int) -> float:
        """Value of order n (1-indexed)."""
        if not 1 <= n <= len(self.values):
            raise ParameterError(f"order {n} not available (have 1..{len(self.values)})")
        return self.values[n - 1]


# ---------------------------------------------------------------------------
# The Mellin factor table of each family (see factor_table).  The divisor q
# is stored rather than 1/q so that the strip endpoints 1 - a*q come out
# exact.  Gamma factors are listed speckle first, the order in which the
# sampler draws them.

_INF = math.inf


@singledispatch
def _factors(model):
    raise ParameterError(f"no transform for {type(model).__name__}")


@_factors.register
def _(model: Exponential):
    return [(model.mu, 1.0)], [(1.0, 1.0)]


@_factors.register
def _(model: Gamma):
    return [(model.mu / model.L, 1.0)], [(model.L, 1.0)]


@_factors.register
def _(model: Nakagami):
    return [(model.mu / math.sqrt(model.L), 1.0)], [(model.L, 2.0)]


@_factors.register
def _(model: Maxwell):
    return [(2.0 * model.sigma**2, 0.5)], [(1.5, 2.0)]


@_factors.register
def _(model: Weibull):
    return [(model.z, 1.0)], [(1.0, model.b)]


@_factors.register
def _(model: Rayleigh):
    return [(model.z, 1.0)], [(1.0, 2.0)]


@_factors.register
def _(model: GammaGamma):
    L, M = model.L, model.M
    return [(model.mu / (L * M), 1.0)], [(L, 1.0), (M, 1.0)]


@_factors.register
def _(model: KAmplitude):
    return [(model.b, -0.5), (model.mu, 1.0)], [(1.0, 2.0), (model.alpha, 2.0)]


@_factors.register
def _(model: WeibullNakagami):
    return [(model.sigma / model.b, 0.5)], [(1.0, model.c), (model.alpha, 2.0)]


@_factors.register
def _(model: Fisher):
    L, M = model.L, model.M
    return [(M * model.mu / L, 1.0)], [(L, 1.0), (M, -1.0)]


@_factors.register
def _(model: InverseGamma):
    return [(model.mu, 1.0)], [(model.M, -1.0)]


def factor_table(model: ClutterModel):
    """Mellin factor table (powers, gammas) of a model.

    powers = [(base, e)] and gammas = [(a, q)] give
    Phi(s) = prod base^(e*(s-1)) * prod Gamma(a + (s-1)/q) / Gamma(a), and
    X = prod base^e * prod G_a^(1/q) with independent unit-scale gamma
    variates G_a.  Gamma factors are listed speckle first.
    """
    validate(model)
    return _factors(model)


# The closed forms below accumulate gamma factors in ascending (a, q) order,
# so their values do not depend on the order a table lists the factors in:
# gamma-gamma results are bit-identical under the (L, M) swap.


def _strip_of(gammas) -> AnalyticityStrip:
    # Gamma(a + d/q) has its first pole at s = 1 - a*q: below s = 1 for q > 0,
    # above it for q < 0.
    lower, upper = -_INF, _INF
    for a, q in gammas:
        if q > 0:
            lower = max(lower, 1.0 - a * q)
        else:
            upper = min(upper, 1.0 - a * q)
    return AnalyticityStrip(lower, upper)


def analyticity_strip(model: ClutterModel) -> AnalyticityStrip:
    """Maximal open interval of real s on which the closed-form Phi is finite."""
    return _strip_of(factor_table(model)[1])


def _check_strip(model: ClutterModel, gammas, s: float) -> float:
    s = float(s)
    strip = _strip_of(gammas)
    if math.isnan(s) or not strip.contains(s):
        raise StripError(
            f"s={s!r} outside analyticity strip ({strip.lower:g}, "
            f"{strip.upper:g}) of {type(model).__name__}"
        )
    return s


def _psi_closed(powers, gammas, d: float) -> float:
    # Each gamma term vanishes exactly at d = 0, so Psi(1) = 0 exactly.
    total = 0.0
    for base, e in powers:
        total += (e * d) * math.log(base)
    for a, q in sorted(gammas):
        total += log_gamma(a + d / q) - log_gamma(a)
    return total


def psi(model: ClutterModel, s: float) -> float:
    """ln Phi(s), computed directly from log-gamma sums for stability."""
    powers, gammas = factor_table(model)
    s = _check_strip(model, gammas, s)
    return _psi_closed(powers, gammas, s - 1.0)


def phi(model: ClutterModel, s: float) -> float:
    """Second-kind characteristic function Phi(s) = Int x^(s-1) f(x) dx.

    Evaluated in linear space (powers times gamma ratios), which keeps
    small-argument results exactly rounded (moments of integer order come out
    exact); falls back to exp(psi) when a gamma factor overflows.
    """
    powers, gammas = factor_table(model)
    s = _check_strip(model, gammas, s)
    d = s - 1.0
    try:
        value = 1.0
        for base, e in powers:
            value *= math.pow(base, e * d)
        for a, q in sorted(gammas):
            value *= float(sc_gamma(a + d / q)) / float(sc_gamma(a))
    except OverflowError:
        value = math.inf
    if math.isfinite(value) and value > 0.0:
        return value
    log_value = _psi_closed(powers, gammas, d)
    if log_value > 709.0:
        raise NumericOverflowError(
            f"Phi overflow for {type(model).__name__} at s={s:g}"
        )
    return math.exp(log_value)


def phi_numeric(
    model: ClutterModel, s: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Phi(s) by direct quadrature of the transform integral.

    Independent of the closed forms: goes through the density and the
    semi-infinite quadrature oracle only.
    """
    s = _check_strip(model, factor_table(model)[1], s)

    def integrand(x: float) -> float:
        density = pdf(model, x)
        if density == 0.0:
            return 0.0
        return math.exp((s - 1.0) * math.log(x)) * density

    return integrate_semi_infinite(integrand, tol)


def classical_moment(model: ClutterModel, n: int) -> float:
    """Classical (first-kind) moment m_n = Phi(n + 1)."""
    validate(model)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParameterError(f"moment order must be an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"moment order must be >= 1, got {n}")
    strip = _strip_of(_factors(model)[1])
    s = float(n + 1)
    if s >= strip.upper:
        raise MomentDivergesError(
            f"moment diverges (n >= {strip.upper - 1.0:g}) for "
            f"{type(model).__name__}"
        )
    return phi(model, s)


# ---------------------------------------------------------------------------
# Log-cumulants: exact derivatives of the factor-table Psi at s = 1,
# machine-checked against log_cumulants_numeric.


def _check_max_n(max_n: int, limit: int) -> int:
    if isinstance(max_n, bool) or not isinstance(max_n, int):
        raise ParameterError(f"max_n must be an integer, got {max_n!r}")
    if not 1 <= max_n <= limit:
        raise ParameterError(f"max_n must be in 1..{limit}, got {max_n}")
    return max_n


def log_cumulants(model: ClutterModel, max_n: int) -> LogStats:
    """Log-cumulants of orders 1..max_n (max_n up to 6), in closed form.

    k_n = sum over gamma factors of q^(-n) psi^(n-1)(a); k_1 also carries the
    scale, sum over power terms of e ln(base).
    """
    powers, gammas = factor_table(model)
    _check_max_n(max_n, 6)
    gammas = sorted(gammas)
    values = []
    for n in range(1, max_n + 1):
        total = 0.0
        if n == 1:
            for base, e in powers:
                total += e * math.log(base)
        for a, q in gammas:
            value = polygamma(n - 1, a)
            total += value / q if n == 1 else q ** (-n) * value
        values.append(total)
    return LogStats(KIND_LOG_CUMULANTS, CONVENTION_STANDARD, tuple(values))


# Step sizes for the differentiation oracle, chosen per order so truncation
# (O(h^2), or O(h^4) after Richardson) and round-off are both well below the
# documented agreement bounds (1e-5 for orders 1-2, 1e-3 for orders 3-4).
_NUMERIC_STEPS = {1: 1e-5, 2: 1e-4, 3: 8e-3, 4: 8e-3}


def log_cumulants_numeric(model: ClutterModel, max_n: int) -> LogStats:
    """Log-cumulants estimated as central-difference derivatives of Psi at s=1.

    Orders 3 and 4 combine stencils at h and h/2 (one Richardson step); plain
    O(h^2) differences cannot reach the 1e-3 bound for shape parameters near
    0.5, where the sixth derivative of Psi is of order 1e4.
    """
    validate(model)
    _check_max_n(max_n, 4)
    strip = _strip_of(_factors(model)[1])
    margin = min(1.0 - strip.lower, strip.upper - 1.0)

    def psi_at(s: float) -> float:
        return psi(model, s)

    def estimate(order: int, h: float) -> float:
        if order <= 2:
            return derivative_at(psi_at, 1.0, order, h)
        coarse = derivative_at(psi_at, 1.0, order, h)
        fine = derivative_at(psi_at, 1.0, order, h / 2.0)
        return (4.0 * fine - coarse) / 3.0

    values = []
    for order in range(1, max_n + 1):
        h = _NUMERIC_STEPS[order]
        reach = 2.0 * h if order >= 3 else h
        if reach >= margin:
            h = margin / (4.0 if order >= 3 else 2.0)
        try:
            values.append(estimate(order, h))
        except StripError:
            # stencil escaped the strip despite the margin guard: shrink once
            values.append(estimate(order, h / 4.0))
    return LogStats(KIND_LOG_CUMULANTS, CONVENTION_STANDARD, tuple(values))


def log_moments(model: ClutterModel, max_n: int) -> LogStats:
    """Log-moments m~_n = E[(ln X)^n] for n = 1..max_n (max_n up to 4)."""
    validate(model)
    _check_max_n(max_n, 4)
    return convert(log_cumulants(model, max_n), KIND_LOG_MOMENTS)


# ---------------------------------------------------------------------------
# Moment/cumulant conversion, both conventions.


def _moments_to_cumulants(m, paper: bool):
    k = [m[0]]
    if len(m) > 1:
        k.append(m[1] - m[0] ** 2)
    if len(m) > 2:
        k.append(m[2] - 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3)
    if len(m) > 3:
        if paper:
            k.append(
                m[3] - 4.0 * m[0] * m[2] + 6.0 * m[0] ** 2 * m[1] - 3.0 * m[0] ** 4
            )
        else:
            k.append(
                m[3]
                - 4.0 * m[0] * m[2]
                - 3.0 * m[1] ** 2
                + 12.0 * m[0] ** 2 * m[1]
                - 6.0 * m[0] ** 4
            )
    return k


def _cumulants_to_moments(k, paper: bool):
    m = [k[0]]
    if len(k) > 1:
        m.append(k[1] + m[0] ** 2)
    if len(k) > 2:
        m.append(k[2] + 3.0 * m[0] * m[1] - 2.0 * m[0] ** 3)
    if len(k) > 3:
        if paper:
            m.append(
                k[3] + 4.0 * m[0] * m[2] - 6.0 * m[0] ** 2 * m[1] + 3.0 * m[0] ** 4
            )
        else:
            m.append(
                k[3]
                + 4.0 * m[0] * m[2]
                + 3.0 * m[1] ** 2
                - 12.0 * m[0] ** 2 * m[1]
                + 6.0 * m[0] ** 4
            )
    return m


def convert(
    stats: LogStats, target_kind: str, convention: str = CONVENTION_STANDARD
) -> LogStats:
    """Convert between log-moments and log-cumulants (orders up to 4).

    Log-moments are convention-free; the convention argument selects which
    fourth-order relation produces (or consumed) cumulants.  Under the
    standard convention the moment<->cumulant round trip is the identity.
    """
    if not isinstance(stats, LogStats):
        raise ParameterError(f"expected LogStats, got {type(stats).__name__}")
    if target_kind not in _KINDS:
        raise ParameterError(f"target kind must be one of {_KINDS}")
    if convention not in _CONVENTIONS:
        raise ParameterError(f"convention must be one of {_CONVENTIONS}")
    if len(stats.values) > 4:
        raise ParameterError(
            f"conversion supports orders 1..4, got {len(stats.values)} values"
        )
    if stats.kind == KIND_LOG_MOMENTS:
        moments = list(stats.values)
    else:
        moments = _cumulants_to_moments(
            stats.values, stats.convention == CONVENTION_PAPER_EQ6
        )
    if target_kind == KIND_LOG_MOMENTS:
        out = moments
    else:
        out = _moments_to_cumulants(moments, convention == CONVENTION_PAPER_EQ6)
    return LogStats(target_kind, convention, tuple(float(v) for v in out))
