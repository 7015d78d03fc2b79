"""Special functions, ln K_nu and the one quadrature engine (Gauss-Kronrod
7-15 panels over the whole line for exp(g), g concave).

The special functions are thin validated wrappers over scipy.special.
ln K_nu is taken on arrays of ln w: where kve fails, from closed forms for
arguments below 1e-20 and for sqrt(nu^2 + w^2) >= 2^30, and otherwise from
K_nu's integral on the whole line, which has the form of the
Weibull-Nakagami texture integral, Int exp(A u - e^(q (b - u)) - e^(p (u - a))) du;
one routine evaluates both on arrays, finding each element's peak
analytically.  The oracles' integrals, Phi(s) and the Mellin convolution,
have g a sum of log-densities on arrays in u = ln x (models) and a linear
term; their routine finds the peak by probing and climbing.  Both then take
one walk-and-panel step, _walk_integral.  Every family is a product of
independent gamma powers, so ln X has a log-concave density (Prekopa 1973)
and g one peak, found with no scan.  A density that broke that would give a
wrong integral, so a failed check, not a pass.
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
    """Quadrature error budget: the integral is accepted when its estimated
    error is at most rel_tol * |result|; otherwise the routine raises."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ParameterError("rel_tol must be > 0")
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
# below this ln w (w = 1e-20), (w/2)^2 and, for nu >= 1/2, (w/2)^(2 nu) are
# lost beside 1
_LOG_SMALL_W = -46.0
_KVE_MAX = 2.0**30  # kve returns nan once w or nu passes this (AMOS's limit)
_ZETA3, _ZETA5 = 1.2020569031595942, 1.03692775514337  # zeta(3), zeta(5)


@np.errstate(all="ignore")  # where K_nu is not in doubles the result is nan
def _log_kve(nu: float, log_w):
    """ln(K_nu(w) e^w) for w = e^log_w, the log of the scaled Bessel K,
    elementwise over the array (or float) log_w; nan for w = 0, infinite or
    nan, at orders beyond 1e13 (where the densities' log terms round by over
    1e-3), and where the integral below fails.  Where kve fails, one of three
    forms takes over, each accurate to rounding in its range:
    - w below 1e-20 (below the normal doubles, or where kve overflows at
      orders from about 1), where (w/2)^2 is lost beside 1: with
      L = ln(2/w), 2 nu K_nu(w) = Gamma(1 + nu) e^(nu L) - Gamma(1 - nu)
      e^(-nu L) for nu < 1, of which the first term alone from nu = 1/2 on;
    - R = sqrt(nu^2 + w^2) >= 2^30: Debye's expansion (DLMF 10.41.4) to its
      U_1 term, written in R so that it holds as nu -> 0; the next term is
      below R^-2 / 10;
    - else (kve overflows, at orders above 1): DLMF 10.32.9 on the whole line,
      in t = u + ln 2 so that the larger term takes ln w unrounded (the
      rounding of ln(w/2), times about R, would move the result):
      2 K_nu(w) = 2^nu Int exp(nu u - e^(ln(w/4) - u) - e^(u + ln w)) du,
      one _log_peak_integral for all such elements.
    """
    log_w = np.asarray(log_w, dtype=float)
    shape, log_w = log_w.shape, log_w.ravel()
    w = np.exp(log_w)
    value = scipy.special.kve(nu, w)
    out = np.log(value)
    failed = ~(np.isfinite(value) & (value > 0.0))
    if not np.count_nonzero(failed):
        return out.reshape(shape)[()]
    out[failed] = math.nan
    nu = abs(nu)
    failed &= np.isfinite(log_w) & (nu < 1e13)
    small = failed & (log_w < _LOG_SMALL_W)
    if np.count_nonzero(small):  # (most calls have none)
        L, x = _LN2 - log_w[small], w[small]
        if nu >= 0.5:
            out[small] = scipy.special.gammaln(nu) + nu * L - _LN2 + x
        else:
            # 2 nu K_nu(w) = Gamma(1 + nu) e^(nu L) (1 - e^(-2 z)) with
            # z = nu (L + slope), slope = (ln Gamma(1+nu) - ln Gamma(1-nu)) / (2 nu)
            # = -gamma - zeta(3) nu^2 / 3 - zeta(5) nu^4 / 5 - ... as nu -> 0
            log_gamma = scipy.special.gammaln(1.0 + nu)
            if nu < 1e-3:
                v = nu * nu
                slope = -np.euler_gamma - v * (_ZETA3 / 3.0 + v * _ZETA5 / 5.0)
            else:
                slope = 0.5 * (log_gamma - scipy.special.gammaln(1.0 - nu)) / nu
            z = nu * (L + slope)
            tail = np.where(z > 0.0, np.log(-np.expm1(-2.0 * z) / (2.0 * z)), 0.0)
            out[small] = log_gamma + nu * L + np.log(L + slope) + tail + x
    failed &= ~small
    r = np.hypot(nu, w)
    debye = failed & (r >= _KVE_MAX)
    if np.count_nonzero(debye):
        # the prefactor is sqrt(pi / (2 R)), -nu eta + w is
        # nu asinh(nu / w) - nu^2 / (w + R), and U_1(p) / nu with p = nu / R
        # is (3 - 5 p^2) / (24 R) (w >= 1e-20 here, so nu / w is finite)
        r, x = r[debye], w[debye]
        p = nu / r
        out[debye] = (
            0.5 * np.log(0.5 * math.pi / r)
            + nu * np.arcsinh(nu / x)
            - nu * nu / (x + r)
            + np.log1p(-(3.0 - 5.0 * p * p) / (24.0 * r))
        )
    failed &= ~debye
    if np.count_nonzero(failed):
        # the integrand's terms, about sqrt(nu) in size near its peak, round to
        # about eps sqrt(nu), and the integral is no more accurate than that
        tol = Tolerance(rel_tol=max(1e-13, 1e-14 * math.sqrt(nu)))
        lw = log_w[failed]
        out[failed] = _log_peak_integral(
            nu, 1.0, lw - 2 * _LN2, 1.0, -lw, tol, (nu - 1.0) * _LN2, -math.inf
        ) + w[failed]
    return out.reshape(shape)[()]


_PEAK_DROP = 60.0  # the integral's range ends where its exponent falls this far
_FAR_Y = 700.0  # below this, e^y in _peak_drop's phi(y) cannot overflow
_PEAK_MAX_STEPS = 100  # Newton and bisection steps to the peak
_DOUBLINGS = 2.0 ** np.arange(64)  # a walk's steps; from 2e-16 they span u's range


def _peak_drop(d, e1, t1, q, e2, t2, p):
    """g(u + d) - g(u) = -e1 phi(-q d) - e2 phi(p d), phi(y) = e^y - 1 - y,
    elementwise, at the peak u of g (e1 = e^t1, e2 = e^t2 there): g'(u) = 0
    cancels the terms linear in d, so near the peak no large terms cancel,
    and both terms are <= 0.  Past y = 700, where e^y can overflow and
    e^t e^y not, a term is e^(t + y) - e^t (1 + y)."""
    terms = []
    for e, t, y in ((e1, t1, -q * d), (e2, t2, p * d)):
        term = np.expm1(y)
        term -= y
        term *= e
        if y.max(initial=0.0) > _FAR_Y:
            far = y > _FAR_Y
            e, t = np.broadcast_to(e, y.shape)[far], np.broadcast_to(t, y.shape)[far]
            term[far] = np.exp(t + y[far]) - e * (1.0 + y[far])
        terms.append(term)
    total = np.negative(terms[0], out=terms[0])
    total -= terms[1]
    return total


def _newton_peak(A, q, b, p, a, lo, hi):
    """The peaks of g(u) = A u - e^(q (b - u)) - e^(p (u - a)) for the
    elements of the arrays b and a, each in its bracket [lo, hi], and a mask
    of the elements not found in 100 steps.  Each step is Newton's on g',
    bisected back into the bracket; where a term e^t would overflow, g' has
    the sign of B - C, and the step bisects.  Found elements leave the
    iteration."""
    peak = np.zeros(b.size)
    failed = np.ones(b.size, dtype=bool)
    index = np.arange(b.size)
    u = 0.5 * (lo + hi)
    previous = np.full(b.size, math.inf)
    for _ in range(_PEAK_MAX_STEPS):
        t1, t2 = q * (b - u), p * (u - a)
        e1, e2 = np.exp(t1), np.exp(t2)
        curvature = q * q * e1 + p * p * e2  # -g''(u)
        step = (A + q * e1 - p * e2) / curvature
        over = np.maximum(t1, t2) > _LOG_MAX
        if np.count_nonzero(over):
            rising = math.log(q) + t1[over] > math.log(p) + t2[over]  # B > C
            step[over] = np.where(rising, math.inf, -math.inf)
        # a step of 1e-9 peak widths leaves the peak about 1e-18 widths out,
        # and Newton steps this short shrink quadratically until the rounding
        # of g' stops them, which a step that does not halve shows
        length = np.abs(step)
        size = length * np.sqrt(curvature)
        found = (size <= 1e-9) | ((size <= 1e-3) & (length > 0.5 * previous))
        right = step > 0.0
        lo, hi = np.where(right, u, lo), np.where(right, hi, u)
        ahead = u + step
        ahead = np.where((lo < ahead) & (ahead < hi), ahead, 0.5 * (lo + hi))
        found |= ahead == u  # the bracket has shrunk to adjacent doubles
        if np.count_nonzero(found):
            last = np.where(np.isfinite(step[found]), step[found], 0.0)
            peak[index[found]] = u[found] + last
            failed[index[found]] = False
            rest = ~found
            index, b, a, lo, hi = index[rest], b[rest], a[rest], lo[rest], hi[rest]
            u, ahead, length = u[rest], ahead[rest], length[rest]
            if not index.size:
                break
        previous, u = length, ahead
    return peak, failed


@np.errstate(all="ignore")  # terms beyond the doubles are masked below
def _log_peak_integral(
    A: float,
    q: float,
    b,
    p: float,
    a,
    tol: Tolerance,
    log_scale,
    floor: float,
) -> np.ndarray:
    """log_scale + ln Int exp(g(u)) du over the whole line, elementwise over
    the arrays (or floats) b, a and log_scale, to tol relative to the
    integral of exp(g - g(peak)), for g(u) = A u - e^(q (b - u)) -
    e^(p (u - a)) with q, p > 0; -inf where _walk_integral finds it below
    floor (with no peak search where a bound on g(peak) shows that), or
    where a term overflows at the peak; nan where an element fails.  g'' < 0,
    so g has one peak, where g' = A + B - C = 0 with B = q e^(q (b - u))
    falling and C = p e^(p (u - a)) rising.

    For A > 0, g' >= 0 at lo, the larger of the points where B = C and
    C = A, and as B falls, g' <= 0 where C = A + B(lo), at most ln(2)/p
    beyond lo (where C has doubled); for A <= 0, g' <= 0 at hi, the smaller
    of the points where B = C and B = -A, and as C rises, g' >= 0 where
    B = C(hi) - A, at most ln(2)/q before hi.  _newton_peak finds the peak
    in that bracket (nan where it does not).  _walk_integral walks from it
    in doubling steps of the peak width, with _peak_drop's g(peak + d) -
    g(peak), capped where a term e^(t + y) would overflow.
    """
    b = np.array(b, dtype=float).ravel()
    a, log_scale = (np.full(b.shape, np.ravel(x)) for x in (a, log_scale))
    m = (math.log(q) - math.log(p) + q * b + p * a) / (p + q)  # B = C
    if A > 0.0:
        lo = np.maximum(m, a + (math.log(A) - math.log(p)) / p)  # C = A
        hi = a + np.log((A + q * np.exp(q * (b - lo))) / p) / p  # C = A + B(lo)
        hi = np.clip(hi, lo, lo + _LN2 / p)
    else:
        if A < 0.0:
            m = np.minimum(m, b - (math.log(-A) - math.log(q)) / q)  # B = -A
        hi = m
        lo = b - np.log((p * np.exp(p * (hi - a)) - A) / q) / q  # B = C(hi) - A
        lo = np.clip(lo, hi - _LN2 / q, hi)
    # g is at most max(A lo, A hi) - max(B, C at their bracket ends) at its
    # peak, and the walk below spans at most the caps' sum there: where the
    # integral is then below floor, the peak is not sought
    bound = np.maximum(A * lo, A * hi) - np.maximum(
        np.exp(q * (b - hi)), np.exp(p * (lo - a))
    )
    span = (_LOG_MAX / q - (b - hi)) + (_LOG_MAX / p - (lo - a))
    live = ~(log_scale + bound + np.log(np.maximum(span, 0.0)) < floor)
    result = np.full(b.size, -math.inf)
    if np.count_nonzero(live) < b.size:
        b, a, log_scale = b[live], a[live], log_scale[live]
        lo, hi = lo[live], hi[live]
    u, out_of_steps = _newton_peak(A, q, b, p, a, lo, hi)
    # move u by at most an ulp so that the larger term's exponent is exact:
    # its rounding, times the term, would move the result
    u = a + (u - a) if A > 0.0 else b - (b - u)
    t1, t2 = q * (b - u), p * (u - a)
    e1, e2 = np.exp(t1), np.exp(t2)
    top = log_scale + (A * u - e1 - e2)
    width = 1.0 / np.sqrt(q * q * e1 + p * p * e2)
    out = np.where(out_of_steps, math.nan, -math.inf)
    (rows,) = np.nonzero(~out_of_steps & (np.maximum(t1, t2) <= _LOG_MAX))
    e1, t1, e2, t2, width = (x[rows] for x in (e1, t1, e2, t2, width))
    cap = np.stack(((_LOG_MAX - t2) / p, (_LOG_MAX - t1) / q))
    out[rows], _ = _walk_integral(
        lambda row, d: _peak_drop(d, e1[row], t1[row], q, e2[row], t2[row], p),
        u[rows], top[rows], np.stack((width, width)), cap, floor, tol,
    )
    result[live] = out
    return result


def _walk_integral(drop, centre, top, first, cap, floor: float, tol: Tolerance):
    """top + ln Int exp(drop(row, d)) dd over the whole line for each row, and
    whether its walk fell; drop(row, d) = g(centre + d) - g(centre) for the
    row's concave g, centre at or near its peak (row, an index array,
    broadcasts against d).  The walk doubles its steps from first[0]
    rightwards and first[1] leftwards ((2, rows) arrays, as is cap, each
    step's bound) until drop has fallen 60: by concavity the mass beyond is
    below e^-60 of the whole.  nan, not fallen, where a side does not fall
    before its cap or in 64 steps; else two Gauss-Kronrod panels a step, all
    rows' in one _panel_quadrature.  nan or +inf at a panel node, or at a
    walk point up to the fall (anywhere on a side that does not fall), raises
    NumericOverflowError.  -inf without quadrature where top plus the log of
    the caps' sum, or of the walk's reach, is below floor (exp(drop) <= 1 at
    a peak centre).
    """
    out, fell = np.full(top.size, -math.inf), np.ones(top.size, dtype=bool)
    (rows,) = (~(top + np.log(cap[0] + cap[1]) < floor)).nonzero()
    cap, first = cap[:, rows, None], first[:, rows, None]
    most = math.log2((cap / first).max(initial=1.0))  # the doublings to the furthest cap
    steps = _DOUBLINGS[: int(min(_DOUBLINGS.size, most + 2.0))]
    # both sides at once, as (side, row, step) arrays: right, then left
    d = np.minimum(first * steps, cap)
    ahead = np.array([1.0, -1.0])[:, None, None] * d
    values = drop(rows[:, None], ahead)
    below = values <= -_PEAK_DROP
    fall, last = below.any(axis=2), below.argmax(axis=2)  # the first step fallen 60
    before = np.arange(steps.size) < np.where(fall, last, steps.size)[..., None]
    if not values.max(initial=-math.inf) < math.inf:  # checked up to the fall
        _raise_unless_finite(np.where(before, values, 0.0), centre[rows, None] + ahead)
    # a side fails where it has not fallen, or reached its cap before it did
    failed = (~fall | ((d == cap) & before).any(axis=2)).any(axis=0)
    out[rows[failed]], fell[rows[failed]] = math.nan, False
    reach = d[[[0], [1]], np.arange(rows.size), last].sum(axis=0)  # both last ends
    keep = ~failed & ~(top[rows] + np.log(reach) < floor)
    rows, reach, last = rows[keep], reach[keep], last[:, keep]
    ahead = ahead[:, keep, : last.max(initial=0) + 1]  # out to the furthest last step
    # from 0, each step's midpoint and end, out to the last step's end
    points = np.zeros(ahead.shape[:2] + (2 * ahead.shape[2] + 1,))
    points[..., 2::2] = ahead
    points[..., 1::2] = 0.5 * (points[..., :-1:2] + ahead)
    used = np.arange(2 * ahead.shape[2]) < 2 * last[..., None] + 2
    inner, outer = points[..., :-1][used], points[..., 1:][used]
    row = used.nonzero()[1]

    def integrand(row, d):
        values = drop(rows[row, None], d)
        if not values.max(initial=-math.inf) < math.inf:
            _raise_unless_finite(values, centre[rows[row, None]] + d)
        return np.exp(values, out=values)

    lo, hi = np.minimum(inner, outer), np.maximum(inner, outer)
    out[rows] = top[rows] + np.log(_panel_quadrature(integrand, lo, hi, row, reach, tol))
    return out, fell


def _raise_unless_finite(values, u):
    """NumericOverflowError at the first point u where values is nan or +inf."""
    bad = ~(values < math.inf)
    if np.count_nonzero(bad):
        raise NumericOverflowError(f"integrand not representable at u={u[bad][0].item()!r}")


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
    their errors, |Kronrod - Gauss|, all panels in one evaluation of f.
    einsum sums each panel's terms in one order whatever the other panels (a
    matrix product's BLAS does not), so an integral does not depend on what
    it is batched with."""
    half = 0.5 * (hi - lo)
    values = f((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES)
    kronrod = half * np.einsum("ij,j->i", values, _GK_WEIGHTS)
    gauss = half * np.einsum("ij,j->i", values[:, 1::2], _G_WEIGHTS)
    return kronrod, np.abs(kronrod - gauss)


# panels per evaluation of f: arrays of 4000 panels' nodes fall out of the
# caches, and f took 2.7 times as long on them as in pieces of 500
_PANEL_CHUNK = 512


def _panel_quadrature(f, lo, hi, row, span, tol: Tolerance) -> np.ndarray:
    """Integrals of f >= 0 over several ranges at once, one row per range:
    the Gauss-Kronrod panels [lo, hi] cover them, panel k in row row[k],
    whose range is span[row[k]] wide, and f(row, nodes) evaluates each
    panel's row's integrand at its row of nodes.  Each round bisects, in
    every row whose errors exceed its budget rel_tol * its total, the panels
    whose error exceeds their share of that budget (in proportion to width;
    the row's worst panel always).  A row's total is returned once its errors
    fit its budget; nan once its panels would number more than
    max_subdivisions, or its errors are not finite.
    """

    def rule(lo, hi, row):
        parts = []
        for k in range(0, lo.size, _PANEL_CHUNK):
            piece = slice(k, k + _PANEL_CHUNK)
            parts.append(_gauss_kronrod(lambda d: f(row[piece], d), lo[piece], hi[piece]))
        return [np.concatenate(part) for part in zip(*parts)]

    rows = span.size
    result = np.full(rows, math.nan)
    if not rows:
        return result
    open_rows = np.ones(rows, dtype=bool)
    count = np.bincount(row, minlength=rows)
    values, errors = rule(lo, hi, row)
    while True:
        total = np.bincount(row, weights=values, minlength=rows)
        error = np.bincount(row, weights=errors, minlength=rows)
        budget = tol.rel_tol * total
        fits = open_rows & (error <= budget)
        result[fits] = total[fits]
        open_rows &= ~fits & np.isfinite(error)
        if not np.count_nonzero(open_rows):
            return result
        share = np.where(open_rows, budget / span, math.inf)  # per unit width
        split = errors > share[row] * (hi - lo)
        # each row's worst panel (the first, where several tie)
        worst = np.zeros(rows)
        np.maximum.at(worst, row, errors)
        (ties,) = np.nonzero(errors == worst[row])
        first = np.full(rows, row.size)
        np.minimum.at(first, row[ties], ties)
        split[first[open_rows]] = True
        count += np.bincount(row[split], minlength=rows)
        open_rows &= count <= tol.max_subdivisions
        split &= open_rows[row]
        if not np.count_nonzero(split):
            return result
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_row = np.concatenate((row[split], row[split]))
        new_values, new_errors = rule(new_lo, new_hi, new_row)
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        row = np.concatenate((row[keep], new_row))
        values = np.concatenate((values[keep], new_values))
        errors = np.concatenate((errors[keep], new_errors))


_U_LO, _U_HI = math.log(sys.float_info.min), math.log(sys.float_info.max)  # e^u normal
_PROBES = [0.0] + [sign * 2.0**k for k in range(10) for sign in (1.0, -1.0)]
_PROBE_LEVELS = 10  # halvings of the probes' spacing where none is finite


def _probe_levels():
    """_PROBES, then level by level the midpoints of all points before."""
    yield _PROBES
    points = sorted(_PROBES)
    for _ in range(_PROBE_LEVELS):
        middles = [0.5 * (x + y) for x, y in zip(points, points[1:])]
        yield middles
        points = sorted(points + middles)


def _log_concave_integral(g: Callable[[np.ndarray], np.ndarray], tol: Tolerance) -> float:
    """ln Int exp(g(u)) du over the whole line, to tol, for a concave g that
    may be -inf, evaluated on arrays of u under np.errstate(all="ignore"): a
    nan or +inf at a probe, climb point, panel node or walk point up to the
    fall raises NumericOverflowError, and one beyond the fall does not.  One
    call takes u = 0, 1, -1, ..., -512 (where g is finite at none, the next
    takes the midpoints of those probes, and so on, up to 10 times); at the
    first probe b where g is finite this takes a < b < c one apart (one
    call), climbs in doubling steps (halving them at the doubles' end), one
    call a step, while g(a) or g(c) is above g(b), then halves the larger
    side until g(a), g(c) are within 4 of g(b).  _walk_integral walks from b
    (one call) until e^u leaves the normal doubles, and sums the panels (one
    call a round).  NonConvergenceError where the walk does not fall, the
    bracket reaches adjacent doubles, or the panels their budget.
    """

    def at(points):
        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            return g(points.ravel()).reshape(points.shape)

    def used(u, value):
        if not value < math.inf:
            raise NumericOverflowError(f"integrand not representable at u={u!r}")
        return value

    for probes in _probe_levels():
        finite = (
            (u, value)
            for u, value in zip(probes, at(probes).tolist())
            if used(u, value) > -math.inf
        )
        b, gb = next(finite, (None, None))
        if b is not None:
            break
    else:
        raise NonConvergenceError("integrand is 0 at every probe")
    ga, gc = at([b - 1.0, b + 1.0]).tolist()
    bracket = [(b - 1.0, used(b - 1.0, ga)), (b, gb), (b + 1.0, used(b + 1.0, gc))]
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
        points = sorted(bracket + [(x, used(x, at([x])[0].item()))])
        best = max(range(4), key=lambda k: points[k][1])
        bracket = points[min(max(best - 1, 0), 1) :][:3]
    # first steps twice the bracket's sides: each side's first panel is the
    # bracket's, and of the multiples 1 to 8 this lays the fewest nodes
    first = 2.0 * np.array([[c - b], [b - a]])
    (value,), (fell,) = _walk_integral(
        lambda _, d: at(b + d) - gb, np.array([b]), np.array([gb]),
        first, np.array([[_U_HI - b], [b - _U_LO]]), -math.inf, tol,
    )
    if not fell:
        raise NonConvergenceError("integrand does not fall by the doubles' end")
    if math.isnan(value):
        raise NonConvergenceError(
            f"quadrature error above its budget after {tol.max_subdivisions} panels"
        )
    return value
