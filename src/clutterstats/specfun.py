"""Special functions and the two numerical oracles everything else is checked
against: adaptive quadrature on (0, inf) and central-difference differentiation.

The special functions are thin validated wrappers over scipy.special, which
already meets the accuracy the closed forms need.  The oracles are kept
deliberately independent of any closed-form code path so that transform and
cumulant formulas can be cross-checked through a separate route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import scipy.integrate
import scipy.special

from .errors import NonConvergenceError, NumericOverflowError, ParameterError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "MAX_POLYGAMMA_ORDER",
    "log_gamma",
    "digamma",
    "polygamma",
    "bessel_k",
    "integrate_semi_infinite",
    "derivative_at",
    "default_step",
]

MAX_POLYGAMMA_ORDER = 6


@dataclass(frozen=True)
class Tolerance:
    """Quadrature error budget.

    The integral is accepted when the estimated error is at most
    max(abs_tol, rel_tol * |result|); otherwise the routine raises.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ParameterError("tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ParameterError("max_subdivisions must be >= 1")


DEFAULT_TOLERANCE = Tolerance()


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if math.isnan(x) or x <= 0:
        raise ParameterError(f"{name} must be > 0, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of the gamma function, ln Gamma(x), for x > 0."""
    x = _check_positive("x", x)
    return float(scipy.special.gammaln(x))


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function, psi(x) = d ln Gamma / dx."""
    return polygamma(0, x)


def polygamma(order: int, x: float) -> float:
    """psi(x) for order 0, or the order-th derivative of psi(x) for order >= 1.

    Orders above 6 are not needed anywhere in the toolkit (log-cumulants up to
    order 7) and are rejected so accuracy claims stay bounded.
    """
    if not isinstance(order, int) or isinstance(order, bool):
        raise ParameterError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_POLYGAMMA_ORDER:
        raise ParameterError(
            f"order must be in 0..{MAX_POLYGAMMA_ORDER}, got {order}"
        )
    x = _check_positive("x", x)
    if order == 0:
        return float(scipy.special.psi(x))
    return float(_polygamma_kernel(order, x))


def _polygamma_kernel(order: int, x):
    """psi^(order)(x) for order >= 1, elementwise and unchecked.

    (-1)^(order+1) order! zeta(order+1, x) is the formula
    scipy.special.polygamma evaluates, so the results agree bit for bit;
    calling zeta directly skips polygamma's order-0 branch, which costs more
    than the function itself on scalars and small arrays.
    """
    scale = (-1.0) ** (order + 1) * math.factorial(order)
    return scale * scipy.special.zeta(order + 1, x)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, K_nu(x), for x > 0.

    Symmetric in nu (K_{-nu} = K_nu).  Overflow (small x with large |nu|)
    raises instead of returning infinity.
    """
    x = _check_positive("x", x)
    value = float(scipy.special.kv(nu, x))
    if math.isinf(value):
        raise NumericOverflowError(f"K_nu overflow for nu={nu:g}, x={x:g}")
    if math.isnan(value):
        raise ParameterError(f"K_nu undefined for nu={nu!r}, x={x!r}")
    return value


def integrate_semi_infinite(
    f: Callable[[float], float], tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Integrate f over (0, inf) with adaptive quadrature.

    The domain is mapped to (0, 1) by x = t / (1 - t); adaptive subdivision
    then handles integrable singularities at 0 and exponential or algebraic
    tails.  Endpoints are never evaluated.
    """

    def transformed(t: float) -> float:
        one_minus = 1.0 - t
        if one_minus <= 0.0:
            # reachable only when chasing a non-integrable tail; subdivision
            # then runs out and the error check below reports it
            return 0.0
        return f(t / one_minus) / (one_minus * one_minus)

    out = scipy.integrate.quad(
        transformed,
        0.0,
        1.0,
        epsabs=tol.abs_tol,
        epsrel=tol.rel_tol,
        limit=tol.max_subdivisions,
        full_output=1,
    )
    result, abserr = out[0], out[1]
    if len(out) > 3 or not math.isfinite(result):
        raise NonConvergenceError(
            f"semi-infinite quadrature did not converge within "
            f"{tol.max_subdivisions} subdivisions (estimate {result!r}, "
            f"error {abserr!r})"
        )
    if abserr > max(tol.abs_tol, tol.rel_tol * abs(result)):
        raise NonConvergenceError(
            f"quadrature error {abserr:g} exceeds requested tolerance"
        )
    return float(result)


def default_step(x0: float, order: int) -> float:
    """Default central-difference step: balances truncation against round-off
    at double precision.  Recorded so oracle tolerances are reproducible."""
    if order <= 2:
        return max(1e-5, 1e-5 * abs(x0))
    return 1e-3


def derivative_at(
    f: Callable[[float], float],
    x0: float,
    order: int,
    step: float | None = None,
) -> float:
    """Central-difference estimate of the order-th derivative of f at x0.

    Stencils use 2, 3, 4 and 5 points for orders 1..4; truncation error is
    O(step**2) in all cases.  The caller owns step selection; pass step=None
    for the recorded defaults.
    """
    if order not in (1, 2, 3, 4):
        raise ParameterError(f"derivative order must be in 1..4, got {order!r}")
    h = default_step(x0, order) if step is None else float(step)
    if not h > 0:
        raise ParameterError(f"step must be > 0, got {step!r}")
    if order == 1:
        return (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    if order == 2:
        return (f(x0 + h) - 2.0 * f(x0) + f(x0 - h)) / (h * h)
    if order == 3:
        return (
            f(x0 + 2 * h) - 2.0 * f(x0 + h) + 2.0 * f(x0 - h) - f(x0 - 2 * h)
        ) / (2.0 * h**3)
    return (
        f(x0 + 2 * h)
        - 4.0 * f(x0 + h)
        + 6.0 * f(x0)
        - 4.0 * f(x0 - h)
        + f(x0 - 2 * h)
    ) / h**4
