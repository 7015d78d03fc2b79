"""Second-kind characteristic functions and log-statistics.

For a density f on (0, inf), the second-kind characteristic function is the
Mellin transform Phi(s) = Int_0^inf x^(s-1) f(x) dx, with Psi(s) = ln Phi(s).
Classical moments are Phi evaluated at integer points (m_n = Phi(n+1));
log-moments are derivatives of Phi at s = 1 and log-cumulants are derivatives
of Psi at s = 1.

Every family's Phi has the same shape: a product of power terms
(num/den)^(e*d) and gamma ratios Gamma(a + d/q) / Gamma(a), with d = s - 1.
Each simple family states that product once, as a factor table; the
analyticity strip, psi and phi, classical moments and log-cumulants of every
order are derived from it (k_n = sum of q^(-n) psi^(n-1)(a), Nicolas,
Traitement du Signal 19(3), 2002).  A compound is the product of independent
speckle and texture variates (a Mellin convolution), so its table is not
written out: it is its declared components' tables (models.decompose)
joined, and its transform factors and its log-cumulants add by construction.
A power term keeps num and den as tuples of factors (a compound's terms of
equal exponent join them), whose ratio and its log, a double for every valid
model, models._quotient takes once, as the densities take theirs.  A model's
form (its table, those scales, the gamma factors sorted and the strip's
edges) is built on its first use and kept on the model, like its
decomposition, so no closed form derives it again; factor_table returns
fresh lists built from it, num and den as the factors' products, which may
leave the doubles and which no closed form uses.

Two numerical routes double-check the closed forms: direct quadrature of
the transform integral over the log-density (phi_numeric, which takes only
the strip from the table; its exponent in ln x is concave, since ln X of a
product of gamma powers has a log-concave density, and a density that broke
that would fail the check, not pass it) and Cauchy integrals of each gamma
factor's ln Gamma about s = 1 (log_cumulants_numeric, to order 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np
from scipy.special import digamma, gamma as sc_gamma, gammaln, loggamma, zeta

from .errors import (
    MomentDivergesError,
    NumericOverflowError,
    ParameterError,
    StripError,
)
from .models import (
    _HUGE,
    _TINY,
    ClutterModel,
    Exponential,
    Gamma,
    InverseGamma,
    Maxwell,
    Nakagami,
    Rayleigh,
    Weibull,
    _log_density,
    _quotient,
    decompose,
)
from .specfun import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _log_concave_integral,
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
_PAPER_CUMULANTS = (KIND_LOG_CUMULANTS, CONVENTION_PAPER_EQ6)


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

    convention marks which fourth-order log-cumulant applies: 'standard' is
    the classical cumulant (the only choice consistent with empirical
    fourth-order statistics); 'paper_eq6' is the fourth central moment
    k4 + 3 k2^2, which some texts print in its place, and is defined for
    orders 1..4 only.  Orders 1..3 agree between the two.
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
# The Mellin factor table of each simple family, and of each compound as the
# join of its components' tables (see factor_table).  A power term keeps its
# numerator and denominator as tuples of factors.  The divisor q is stored
# rather than 1/q so that the strip endpoints 1 - a*q come out exact.

_SIMPLE_TABLES = {
    Exponential: lambda m: ([((m.mu,), (), 1.0)], [(1.0, 1.0)]),
    Gamma: lambda m: ([((m.mu,), (m.L,), 1.0)], [(m.L, 1.0)]),
    Nakagami: lambda m: ([((m.mu,), (math.sqrt(m.L),), 1.0)], [(m.L, 2.0)]),
    Maxwell: lambda m: ([((2.0, m.sigma, m.sigma), (), 0.5)], [(1.5, 2.0)]),
    Weibull: lambda m: ([((m.z,), (), 1.0)], [(1.0, m.b)]),
    Rayleigh: lambda m: ([((m.z,), (), 1.0)], [(1.0, 2.0)]),
    InverseGamma: lambda m: ([((m.mu,), (), 1.0)], [(m.M, -1.0)]),
}


def _table(model: ClutterModel):
    table = _SIMPLE_TABLES.get(type(model))
    if table is not None:
        return table(model)
    parts = decompose(model)
    speckle_powers, speckle_gammas = _table(parts.speckle)
    texture_powers, texture_gammas = _table(parts.texture)
    # Terms of equal exponent merge by joining their factors, whose products
    # and logs do not depend on the components' order: gamma-gamma's table,
    # and every result derived from it, is the same when L and M are swapped.
    scales = {}
    for num, den, e in speckle_powers + texture_powers:
        other_num, other_den = scales.get(e, ((), ()))
        scales[e] = (other_num + num, other_den + den)
    powers = [(num, den, e) for e, (num, den) in scales.items()]
    return powers, speckle_gammas + texture_gammas


class _MellinForm(NamedTuple):
    """A model's factor table, each power term's scale, its gamma factors in
    ascending (a, q) order, and its strip as bounds on d = s - 1:
    Gamma(a + d/q) has its first pole at d = -a*q, below d = 0 for q > 0 and
    above it for q < 0, and -a*q is exact where 1 - a*q can round onto 1."""

    powers: tuple  # ((num factors, den factors, e), ...)
    scales: tuple  # ((ratio, ln ratio, e), ...) of the powers, by _quotient
    gammas: tuple  # ((a, q), ...) in the declared order
    sorted_gammas: tuple
    d_lower: float
    d_upper: float


def _build_form(model: ClutterModel) -> _MellinForm:
    powers, gammas = _table(model)
    scales = tuple((*_quotient(num, den), e) for num, den, e in powers)
    d_lower = max((-a * q for a, q in gammas if q > 0), default=-math.inf)
    d_upper = min((-a * q for a, q in gammas if q < 0), default=math.inf)
    return _MellinForm(
        tuple(powers), scales, tuple(gammas), tuple(sorted(gammas)), d_lower, d_upper
    )


def _form(model: ClutterModel) -> _MellinForm:
    """The model's Mellin form, built on its first use and kept in the
    model's __dict__, as functools.cached_property keeps its decomposition:
    a pure function of the parameters, so threads that both build it keep
    equal forms."""
    try:
        return model.__dict__["_mellin_form"]
    except KeyError:
        form = model.__dict__["_mellin_form"] = _build_form(model)
        return form
    except AttributeError:
        raise ParameterError(f"not a clutter model: {model!r}") from None


def factor_table(model: ClutterModel):
    """Mellin factor table (powers, gammas) of a model, as fresh lists.

    powers = [(num, den, e)] and gammas = [(a, q)] give
    Phi(s) = prod (num/den)^(e*(s-1)) * prod Gamma(a + (s-1)/q) / Gamma(a),
    and X = prod (num/den)^e * prod G_a^(1/q) with independent unit-scale
    gamma variates G_a.  A compound's table is its speckle's and its
    texture's (models.decompose) joined, gamma factors speckle first.  num
    and den are the products of a term's factors, which may leave the doubles
    (Maxwell's 2 sigma^2 at sigma = 1e200); the closed forms and the sampler
    never use them.  The table is built once per model and kept on it, like
    the decomposition; changing the lists returned changes nothing else.
    """
    form = _form(model)
    powers = [
        (math.prod(num, start=1.0), math.prod(den, start=1.0), e)
        for num, den, e in form.powers
    ]
    return powers, list(form.gammas)


# The closed forms below accumulate gamma factors in ascending (a, q) order,
# so their values do not depend on the order a table lists the factors in:
# gamma-gamma results are bit-identical under the (L, M) swap.


def analyticity_strip(model: ClutterModel) -> AnalyticityStrip:
    """Maximal open interval of real s on which the closed-form Phi is finite.

    Raises NumericOverflowError where an edge lies so close to s = 1 (a
    gamma factor's a*q below about 1e-16) that it rounds onto 1 in doubles;
    the closed forms test s - 1 against the exact edges -a*q instead.
    """
    form = _form(model)
    lower, upper = 1.0 + form.d_lower, 1.0 + form.d_upper
    if not lower < 1.0 < upper:
        raise NumericOverflowError(
            f"analyticity strip of {model!r} has an edge within rounding of "
            f"s=1: s - 1 lies in ({form.d_lower:g}, {form.d_upper:g})"
        )
    return AnalyticityStrip(lower, upper)


def _check_strip(model: ClutterModel, form: _MellinForm, s: float) -> float:
    s = float(s)
    if not form.d_lower < s - 1.0 < form.d_upper:
        raise StripError(
            f"s={s!r} outside analyticity strip ({1.0 + form.d_lower:g}, "
            f"{1.0 + form.d_upper:g}) of {type(model).__name__}"
        )
    return s


def _power(ratio: float, log_ratio: float, x: float) -> float:
    """ratio^x of a power term's scale (ratio, ln ratio): pow where the ratio
    is a normal double, else e^(x ln ratio); inf where that overflows."""
    try:
        if _TINY <= ratio <= _HUGE:
            return math.pow(ratio, x)
        return math.exp(x * log_ratio)
    except OverflowError:
        return math.inf


def _psi_closed(form: _MellinForm, d: float) -> float:
    # Each term vanishes exactly at d = 0, so Psi(1) = 0 exactly.
    total = 0.0
    for _, log_ratio, e in form.scales:
        total += (e * d) * log_ratio
    for a, q in form.sorted_gammas:
        x = a + d / q
        if not x > 0.0:
            # s is inside the strip, but a + (s-1)/q rounds onto the pole
            raise StripError(
                f"s - 1 = {d!r} puts Gamma({a:g} + (s-1)/{q:g}) on its pole "
                f"in floating point"
            )
        # x > 0 here and a > 0 in every valid model
        total += float(gammaln(x)) - float(gammaln(a))
    return total


def psi(model: ClutterModel, s: float) -> float:
    """ln Phi(s), computed directly from log-gamma sums for stability.

    Raises StripError where s is outside the analyticity strip.
    """
    form = _form(model)
    s = _check_strip(model, form, s)
    return _psi_closed(form, s - 1.0)


def phi(model: ClutterModel, s: float) -> float:
    """Second-kind characteristic function Phi(s) = Int x^(s-1) f(x) dx.

    Evaluated in linear space (powers times gamma ratios), which keeps
    small-argument results exactly rounded (moments of integer order come out
    exact); a scale ratio that is not a normal double enters through its log
    (_power), and where a factor overflows this falls back to exp(psi).
    Raises StripError where s is outside the analyticity strip, and
    NumericOverflowError where Phi(s) is beyond the doubles.
    """
    form = _form(model)
    s = _check_strip(model, form, s)
    d = s - 1.0
    value = 1.0
    for ratio, log_ratio, e in form.scales:
        value *= _power(ratio, log_ratio, e * d)
    for a, q in form.sorted_gammas:
        value *= float(sc_gamma(a + d / q)) / float(sc_gamma(a))
    if math.isfinite(value) and value > 0.0:
        return value
    return _exp_phi(model, s, _psi_closed(form, d))


def _exp_phi(model: ClutterModel, s: float, log_value: float) -> float:
    if log_value > 709.0:
        raise NumericOverflowError(
            f"Phi overflow for {type(model).__name__} at s={s:g}"
        )
    return math.exp(log_value)


def phi_numeric(
    model: ClutterModel, s: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Phi(s) by quadrature of the transform integral in u = ln x,
    Int exp(s u + ln f(e^u)) du: independent of the closed forms, it goes
    through the log-density and specfun's whole-line quadrature only."""
    s = _check_strip(model, _form(model), s)
    log_value = _log_concave_integral(lambda u: s * u + _log_density(model, u), tol)
    return _exp_phi(model, s, log_value)


def classical_moment(model: ClutterModel, n: int) -> float:
    """Classical (first-kind) moment m_n = Phi(n + 1).

    Raises MomentDivergesError where n + 1 is at or above the strip's upper
    edge, and NumericOverflowError where m_n is beyond the doubles.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParameterError(f"moment order must be an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"moment order must be >= 1, got {n}")
    d_upper = _form(model).d_upper
    if not n < d_upper:
        raise MomentDivergesError(
            f"moment diverges (n >= {d_upper:g}) for {type(model).__name__}"
        )
    return phi(model, float(n + 1))


# ---------------------------------------------------------------------------
# Log-cumulants: exact derivatives of the factor-table Psi at s = 1, and
# the same derivatives as Cauchy integrals of ln Gamma, which check them.


_MAX_ORDER = 6  # of every log-statistic, closed-form, converted or empirical


def _check_max_n(max_n: int) -> int:
    if isinstance(max_n, bool) or not isinstance(max_n, int):
        raise ParameterError(f"max order must be an integer, got {max_n!r}")
    if not 1 <= max_n <= _MAX_ORDER:
        raise ParameterError(f"max order must be in 1..{_MAX_ORDER}, got {max_n}")
    return max_n


def _log_cumulant_stats(model: ClutterModel, values) -> LogStats:
    """LogStats of log-cumulants, or NumericOverflowError naming the model and
    the first order that is not a finite double, which LogStats rejects."""
    try:
        return LogStats(KIND_LOG_CUMULANTS, CONVENTION_STANDARD, tuple(values))
    except ParameterError:
        n = next(n for n, v in enumerate(values, start=1) if not math.isfinite(v))
        raise NumericOverflowError(
            f"log-cumulant of order {n} of {model!r} is not a finite double"
        ) from None


def log_cumulants(model: ClutterModel, max_n: int) -> LogStats:
    """Log-cumulants of orders 1..max_n (max_n up to 6), in closed form.

    k_n = sum over gamma factors of q^(-n) psi^(n-1)(a); k_1 also carries the
    scale, sum over power terms of e ln(num/den).  A valid model whose k_n
    is not a finite double raises NumericOverflowError.
    """
    form = _form(model)
    orders = range(2, _check_max_n(max_n) + 1)
    values = []
    try:
        total = 0.0
        for _, log_ratio, e in form.scales:
            total += e * log_ratio
        for a, q in form.sorted_gammas:
            total += float(digamma(a)) / q
        values.append(total)
        # psi^(n-1)(a) = (-1)^n (n-1)! zeta(n, a), specfun._polygamma_kernel's
        # formula, for every order n >= 2 and every factor from one zeta call
        rows = []
        if orders:  # k1 alone, as the fits ask for, takes no zeta call
            a = [a for a, _ in form.sorted_gammas]
            rows = zeta(np.array(orders, dtype=float)[:, None], a).tolist()
        for n, row in zip(orders, rows):
            scale = (-1.0) ** n * math.factorial(n - 1)
            total = 0.0
            for (_, q), z in zip(form.sorted_gammas, row):
                total += q ** (-n) * (scale * z)
            values.append(total)
    except OverflowError:
        values.append(math.inf)
    return _log_cumulant_stats(model, values)


_CIRCLE = np.exp(2j * np.pi * np.arange(64) / 64)  # the 64th roots of unity


def log_cumulants_numeric(model: ClutterModel, max_n: int) -> LogStats:
    """Log-cumulants of orders 1..max_n (max_n up to 6), as Taylor
    coefficients of Psi at s = 1 by Cauchy's integral (Lyness & Moler 1967):
    each gamma factor's ln Gamma(a + d/q) - ln Gamma(a), analytic for
    |d| < a|q|, is taken at the 64th roots of unity on its own circle of
    radius r = a|q|/2 (one circle for all factors would shrink to the
    smallest, where a large shape's ln Gamma cancels), and the DFT of the
    values is the Taylor series times 64 r^n, aliased by about 2^-64.  It
    takes scipy's complex loggamma, never polygamma.  Raises
    NumericOverflowError where k_n, r^n or a sample is not a finite double.
    """
    values = [0.0] * _check_max_n(max_n)
    form = _form(model)
    values[0] = sum(e * log_ratio for _, log_ratio, e in form.scales)
    try:
        for a, q in form.sorted_gammas:
            r = 0.5 * a * abs(q)
            with np.errstate(all="ignore"):  # a value that is not finite raises below
                samples = loggamma(a + (r / q) * _CIRCLE) - loggamma(a)
                coefficients = np.fft.fft(samples).real / _CIRCLE.size
            for n in range(1, max_n + 1):
                values[n - 1] += math.factorial(n) * float(coefficients[n]) / r**n
    except (OverflowError, ZeroDivisionError):
        values[n - 1] = math.inf
    return _log_cumulant_stats(model, values)


def log_moments(model: ClutterModel, max_n: int) -> LogStats:
    """Log-moments m~_n = E[(ln X)^n], n = 1..max_n, from log_cumulants."""
    return convert(log_cumulants(model, max_n), KIND_LOG_MOMENTS)


# ---------------------------------------------------------------------------
# Moment/cumulant conversion, both conventions.


def _moment_cumulant_recursion(values, to_moments: bool):
    """Log-moments from log-cumulants (to_moments) or the reverse, orders
    1..len(values), by m_n = sum_{j=1..n} C(n-1, j-1) k_j m_(n-j) with
    m_0 = 1 (Smith, The American Statistician 49(2), 1995), solved for m_n
    or for k_n."""
    m, k = [1.0], []
    sign = 1.0 if to_moments else -1.0
    for n, value in enumerate(values, start=1):
        total = value
        for j in range(1, n):
            total += sign * math.comb(n - 1, j - 1) * k[j - 1] * m[n - j]
        m.append(total if to_moments else value)
        k.append(value if to_moments else total)
    return m[1:] if to_moments else k


def convert(
    stats: LogStats, target_kind: str, convention: str = CONVENTION_STANDARD
) -> LogStats:
    """Convert between log-moments and log-cumulants, orders 1..6.

    Both directions solve the one moment-cumulant recursion.  Log-moments are
    convention-free; the convention argument labels the cumulants produced,
    and stats.convention those consumed.  paper_eq6 differs from the
    standard convention at order 4 only, k4' = k4 + 3 k2^2 (the fourth
    central moment), and is defined for orders 1..4 only.  Under the
    standard convention the moment<->cumulant round trip is the identity.
    """
    if not isinstance(stats, LogStats):
        raise ParameterError(f"expected LogStats, got {type(stats).__name__}")
    if target_kind not in _KINDS:
        raise ParameterError(f"target kind must be one of {_KINDS}")
    if convention not in _CONVENTIONS:
        raise ParameterError(f"convention must be one of {_CONVENTIONS}")
    values = list(stats.values)
    _check_max_n(len(values))
    paper_in = (stats.kind, stats.convention) == _PAPER_CUMULANTS
    paper_out = (target_kind, convention) == _PAPER_CUMULANTS
    if (paper_in or paper_out) and len(values) > 4:
        raise ParameterError(
            f"{CONVENTION_PAPER_EQ6} is defined for orders 1..4, got "
            f"{len(values)} values"
        )
    if stats.kind == KIND_LOG_CUMULANTS:
        if paper_in and len(values) == 4:
            values[3] -= 3.0 * values[1] ** 2
        if target_kind == KIND_LOG_MOMENTS:
            values = _moment_cumulant_recursion(values, to_moments=True)
    elif target_kind == KIND_LOG_CUMULANTS:
        values = _moment_cumulant_recursion(values, to_moments=False)
    if paper_out and len(values) == 4:
        values[3] += 3.0 * values[1] ** 2
    return LogStats(target_kind, convention, tuple(values))
