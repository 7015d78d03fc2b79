"""Special functions, ln K_nu and the one quadrature engine (Gauss-Kronrod
7-15 panels over the whole line for exp(g), g concave).

The special functions are thin validated wrappers over scipy.special.  Where
kve fails, ln K_nu comes from closed forms for arguments below the normal
doubles and for sqrt(nu^2 + w^2) >= 2^30, and otherwise from K_nu's integral
on the whole line, which has the form of the Weibull-Nakagami texture
integral, Int exp(A u - e^(q (b - u)) - e^(p (u - a))) du; one routine
evaluates both.  The oracles' integrals, Phi(s) and the Mellin convolution,
have g a sum of log-densities in u = ln x and a linear term: every family is
a product of independent gamma powers, so ln X has a log-concave density
(Prekopa 1973) and g one peak, found with no scan.  A density that broke
that would give a wrong integral, so a failed check, not a pass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.special

from .errors import NonConvergenceError, NumericOverflowError, ParameterError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "MAX_POLYGAMMA_ORDER",
    "log_gamma",
    "digamma",
    "polygamma",
]

MAX_POLYGAMMA_ORDER = 6


@dataclass(frozen=True)
class Tolerance:
    """Quadrature error budget.

    The integral is accepted when the estimated error is at most
    max(abs_tol, rel_tol * |result|); otherwise the routine raises.  The
    whole-line routines integrate exp(g - g(peak)): abs_tol is in units of
    the peak value.
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

    Orders above 6 are not needed anywhere in the toolkit (log-cumulants stop
    at order 6, which takes order 5) and are rejected so accuracy claims stay
    bounded.
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


_LOG_MAX = 709.0  # exp() overflows above about this
_LN2 = math.log(2.0)
_LOG_TINY = math.log(sys.float_info.min)  # below this w is not a normal double
_KVE_MAX = 2.0**30  # kve returns nan once w or nu passes this (AMOS's limit)
_ZETA3, _ZETA5 = 1.2020569031595942, 1.03692775514337  # zeta(3), zeta(5)


def _log_kve(nu: float, log_w: float) -> float:
    """ln(K_nu(w) e^w) for w = e^log_w, the log of the scaled Bessel K.

    Where kve fails, one of three forms takes over, each accurate to rounding
    in its range:
    - w below the normal doubles, where (w/2)^2 is lost beside 1: with
      L = ln(2/w), 2 nu K_nu(w) = Gamma(1 + nu) e^(nu L) - Gamma(1 - nu)
      e^(-nu L) for nu < 1, of which the first term alone from nu = 1/2 on;
    - R = sqrt(nu^2 + w^2) >= 2^30: Debye's expansion (DLMF 10.41.4) to its
      U_1 term, written in R so that it holds as nu -> 0; the next term is
      below R^-2 / 10;
    - else (kve overflows, at orders above 1): DLMF 10.32.9 on the whole line,
      in t = u + ln 2 so that the larger term takes ln w unrounded (the
      rounding of ln(w/2), times about R, would move the result):
      2 K_nu(w) = 2^nu Int exp(nu u - e^(ln(w/4) - u) - e^(u + ln w)) du.
    """
    w = math.exp(log_w)
    value = float(scipy.special.kve(nu, w))
    if math.isfinite(value) and value > 0.0:
        return math.log(value)
    nu = abs(nu)
    if not (math.isfinite(log_w) and nu < 1e13):
        # (beyond order 1e13 the densities' log terms round by over 1e-3)
        raise NumericOverflowError(
            f"Bessel factor not representable (nu={nu:g}, ln w={log_w:g})"
        )
    if log_w < _LOG_TINY:
        L = _LN2 - log_w
        if nu >= 0.5:
            return float(scipy.special.gammaln(nu)) + nu * L - _LN2 + w
        # 2 nu K_nu(w) = Gamma(1 + nu) e^(nu L) (1 - e^(-2 z)) with
        # z = nu (L + slope), slope = (ln Gamma(1+nu) - ln Gamma(1-nu)) / (2 nu)
        # = -gamma - zeta(3) nu^2 / 3 - zeta(5) nu^4 / 5 - ... as nu -> 0
        log_gamma = float(scipy.special.gammaln(1.0 + nu))
        if nu < 1e-3:
            v = nu * nu
            slope = -np.euler_gamma - v * (_ZETA3 / 3.0 + v * _ZETA5 / 5.0)
        else:
            slope = 0.5 * (log_gamma - float(scipy.special.gammaln(1.0 - nu))) / nu
        z = nu * (L + slope)
        tail = math.log(-math.expm1(-2.0 * z) / (2.0 * z)) if z > 0.0 else 0.0
        return log_gamma + nu * L + math.log(L + slope) + tail + w
    r = math.hypot(nu, w)
    if r >= _KVE_MAX:
        # the prefactor is sqrt(pi / (2 R)), -nu eta + w is
        # nu asinh(nu / w) - nu^2 / (w + R), and U_1(p) / nu with p = nu / R
        # is (3 - 5 p^2) / (24 R)
        p, ratio = nu / r, nu / w  # (ratio is inf only for w below 1e-295)
        peak = math.asinh(ratio) if ratio < math.inf else math.log(nu + r) - log_w
        return (
            0.5 * math.log(0.5 * math.pi / r)
            + nu * peak
            - nu * nu / (w + r)
            + math.log1p(-(3.0 - 5.0 * p * p) / (24.0 * r))
        )
    # the integrand's terms, about sqrt(nu) in size near its peak, round to
    # about eps sqrt(nu), and the integral is no more accurate than that
    tol = Tolerance(abs_tol=1e-300, rel_tol=max(1e-13, 1e-14 * math.sqrt(nu)))
    log_integral = _log_peak_integral(
        nu, 1.0, log_w - 2 * _LN2, 1.0, -log_w, tol, (nu - 1.0) * _LN2, -math.inf
    )
    return log_integral + w


_PEAK_DROP = 60.0  # the integral's range ends where its exponent falls this far
_FAR_Y = 700.0  # below this, e^y in drop's phi(y) cannot overflow
_PEAK_MAX_STEPS = 100  # Newton and bisection steps to the peak


def _log_peak_integral(
    A: float,
    q: float,
    b: float,
    p: float,
    a: float,
    tol: Tolerance,
    log_scale: float,
    floor: float,
) -> float:
    """log_scale + ln Int exp(g(u)) du over the whole line, to tol relative to
    the integral of exp(g - g(peak)), for
    g(u) = A u - e^(q (b - u)) - e^(p (u - a)) with q, p > 0; -inf, without
    quadrature, where log_scale + g(peak) + ln(range width) is below floor
    (the integrand is at most e^g(peak) on the range).
    g'' < 0, so g has one peak, where g' = A + B - C = 0 with
    B = q e^(q (b - u)) falling and C = p e^(p (u - a)) rising.

    For A > 0, g' >= 0 at m, the larger of the points where B = C and C = A,
    and g' <= 0 at m + ln(2)/p, where C has doubled; for A <= 0, g' <= 0 at
    m, the smaller of the points where B = C and B = -A, and g' >= 0 at
    m - ln(2)/q.  Newton steps on g', bisected back into that bracket, find
    the peak (at most 100, else NonConvergenceError).  A walk in doubling
    steps of the peak width goes out each way until g has fallen 60 below the
    peak (by concavity the mass beyond is below e^-60 of the whole), two
    Gauss-Kronrod panels a step, at most max_subdivisions/4 steps a side, else
    NonConvergenceError; a term e^(t + y) is not taken past the point where
    it would overflow, and if g has not fallen there, NumericOverflowError.
    """
    m = (math.log(q) - math.log(p) + q * b + p * a) / (p + q)  # B = C
    if A > 0.0:
        lo = max(m, a + (math.log(A) - math.log(p)) / p)  # C = A
        hi = lo + _LN2 / p
    else:
        if A < 0.0:
            m = min(m, b - (math.log(-A) - math.log(q)) / q)  # B = -A
        lo, hi = m - _LN2 / q, m
    u = 0.5 * (lo + hi)
    previous = math.inf
    for _ in range(_PEAK_MAX_STEPS):
        t1, t2 = q * (b - u), p * (u - a)
        e1, e2 = math.exp(t1), math.exp(t2)
        curvature = q * q * e1 + p * p * e2  # -g''(u)
        step = (A + q * e1 - p * e2) / curvature
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
        raise NonConvergenceError(f"integrand peak not found ({A=:g}, {b=:g}, {a=:g})")
    u += step
    # move u by at most an ulp so that the larger term's exponent is exact:
    # its rounding, times the term, would move the result
    u = a + (u - a) if A > 0.0 else b - (b - u)
    t1, t2 = q * (b - u), p * (u - a)
    e1, e2 = math.exp(t1), math.exp(t2)
    top = log_scale + (A * u - e1 - e2)
    width = 1.0 / math.sqrt(q * q * e1 + p * p * e2)

    def drop(d, expm1=math.expm1):
        """g(u + d) - g(u) = -e1 phi(-q d) - e2 phi(p d), phi(y) = e^y - 1 - y:
        g'(u) = 0 cancels the terms linear in d, so near the peak no large
        terms cancel, and both terms are <= 0."""
        y1, y2 = -q * d, p * d
        return -e1 * (expm1(y1) - y1) - e2 * (expm1(y2) - y2)

    def far_drop(d):
        """drop, for walks that go past y = 700, where e^y can overflow and
        e^t e^y not: there the term is e^(t + y) - e^t (1 + y)."""
        total = 0.0
        for e, t, y in ((e1, t1, -q * d), (e2, t2, p * d)):
            near = np.minimum(y, _FAR_Y)
            total -= np.where(
                y > _FAR_Y, np.exp(t + y) - e * (1.0 + y), e * (np.expm1(near) - near)
            )
        return total

    edges = [0.0]
    far = False
    for sign, t, rate in ((1.0, t2, p), (-1.0, t1, q)):
        cap = (_LOG_MAX - t) / rate  # where e^(t + y) would overflow
        near, d = 0.0, width
        for _ in range(tol.max_subdivisions // 4):
            d = min(d, cap)
            edges += (0.5 * sign * (near + d), sign * d)
            far = far or rate * d > _FAR_Y
            if (far_drop if far else drop)(sign * d) <= -_PEAK_DROP:
                break
            if d == cap:
                raise NumericOverflowError("integrand not representable")
            near, d = d, 2.0 * d
        else:
            raise NonConvergenceError(
                f"integrand spans over {tol.max_subdivisions // 4} doublings "
                f"of its peak width"
            )
    edges.sort()
    if top + math.log(edges[-1] - edges[0]) < floor:
        return -math.inf
    # an overflow raises FloatingPointError, not a numpy warning
    with np.errstate(over="raise", invalid="raise"):
        integral = _panel_quadrature(
            lambda d: np.exp(far_drop(d) if far else drop(d, np.expm1)), edges, tol
        )
    return top + math.log(integral)


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


_U_LO, _U_HI = _LOG_TINY, math.log(sys.float_info.max)  # e^u a normal double
_PROBES = [0.0] + [sign * 2.0**k for k in range(10) for sign in (1.0, -1.0)]


def _log_concave_integral(g: Callable[[float], float], tol: Tolerance) -> float:
    """ln Int exp(g(u)) du over the whole line, to tol, for a concave g that
    may be -inf but not nan or +inf.  At the first of u = 0, 1, -1, ..., -512
    where g is finite it takes a < b < c one apart, climbs in doubling steps
    (halving them at the doubles' end) while g(a) or g(c) is above g(b), then
    halves the larger side until g(a), g(c) are within 4 of g(b).  From b it
    walks out each way in doubling steps from c - b and b - a, one panel a
    step, until g has fallen 60 below g(b); by concavity the mass beyond is
    under 2 e^-60 of the whole.  Where the walk reaches the end of the normal
    doubles in e^u, or the bracket adjacent doubles, NonConvergenceError.
    """
    b = next((u for u in _PROBES if g(u) > -math.inf), None)
    if b is None:
        raise NonConvergenceError("integrand is 0 at every probe")
    bracket = [(b - 1.0, g(b - 1.0)), (b, g(b)), (b + 1.0, g(b + 1.0))]
    while True:  # halvings end at adjacent doubles, where x is a bracket point
        (a, ga), (b, gb), (c, gc) = bracket
        if gc > gb:
            x = min(c + 2.0 * (c - b), _U_HI) if c < _U_HI else 0.5 * (b + c)
        elif ga > gb:
            x = max(a - 2.0 * (b - a), _U_LO) if a > _U_LO else 0.5 * (a + b)
        elif min(ga, gc) >= gb - 4.0:
            break  # the bracket spans a few peak widths
        else:
            x = 0.5 * (b + c) if c - b > b - a else 0.5 * (a + b)
        if x in (a, b, c):
            raise NonConvergenceError("integrand peak not found in the doubles")
        # the next bracket is the highest point and its neighbours
        points = sorted(bracket + [(x, g(x))])
        best = max(range(4), key=lambda k: points[k][1])
        bracket = points[min(max(best - 1, 0), 1) :][:3]
    edges = [b]
    for step in (c - b, a - b):
        while True:
            u = min(max(b + step, _U_LO), _U_HI)
            edges.append(u)
            if g(u) <= gb - _PEAK_DROP:
                break
            if u in (_U_LO, _U_HI):
                raise NonConvergenceError("integrand does not fall by the doubles' end")
            step *= 2.0
    edges.sort()

    def integrand(u):
        return np.exp(np.array([[g(v) for v in row] for row in u.tolist()]) - gb)

    return gb + math.log(_panel_quadrature(integrand, edges, tol))
