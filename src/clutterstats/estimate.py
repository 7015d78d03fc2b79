"""Empirical second-kind statistics and method-of-log-cumulants (MoLC) fitting.

Empirical log-moments are sample means of powers of ln(x), of orders 1..6
like every log-statistic in mellin; log-cumulants follow through the standard
moment-cumulant recursion (mellin.convert).  The sums of powers
are exactly rounded, equal to math.fsum bit for bit, but taken in numpy:
each summand is split exactly into a high and a low half, the halves are
summed without rounding in float64 bins indexed by the summand's binary
exponent, and the bins are combined in Python integers and rounded once.
Because the speckle and texture log-cumulants of a compound model add order
by order, subtracting a known speckle's closed-form cumulants from the data
cumulants estimates the texture cumulants directly.

MoLC fitting equates the lowest-order log-cumulants with their closed forms
and solves for the parameters.  Every family's closed forms are sums over its
Mellin factor table (mellin.factor_table): k_n = sum q^(-n) psi^(n-1)(a) over
the gamma factors (a, q), with k1 adding sum e ln(num/den).  One solver inverts
these sums for every family; a family only names which factor slot each of
its shapes sets (a or q), which fields the fit pins, and its scale field.
k2, less what the fixed factors give, is split between the free shapes and
each share inverted (psi'^(-1) for an a, a square root for a q); with two
shapes, k3 picks the split by an array scan and bracketed Newton steps on
every sign change, and k4, when given, picks between two solutions.  Shapes
are inverted to machine precision, because k2 grows like 1/a^2 for small a
and the fit's residual check is absolute.  The scale then follows from k1.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import mellin
from .errors import (
    EmptySampleError,
    InfeasibleCumulantsError,
    NonConvergenceError,
    NumericOverflowError,
    ParameterError,
)
from .mellin import (
    CONVENTION_STANDARD,
    KIND_LOG_CUMULANTS,
    KIND_LOG_MOMENTS,
    LogStats,
    convert,
)
from .models import (
    _LOG_HUGE,
    ClutterModel,
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
    model_to_dict,
)
from .specfun import _polygamma_kernel, polygamma

__all__ = [
    "SampleSet",
    "FitReport",
    "DEFAULT_FIT_TOL",
    "empirical_log_moments",
    "empirical_log_cumulants",
    "log_moment_standard_errors",
    "log_cumulant_standard_errors",
    "texture_log_cumulants",
    "invert_trigamma",
    "fit_molc",
    "load_samples_csv",
    "save_samples_csv",
]

DEFAULT_FIT_TOL = 1e-8

_TRIGAMMA_LO = 1e-8
_TRIGAMMA_HI = 1e8
_MAX_NEWTON_STEPS = 200
# residual of the trigamma inversion, relative to y: a few times the rounding
# of psi' itself (at the best double x, psi' can still be about 10 eps from
# y), so Newton reaches it without stalling anywhere in the box
_TRIGAMMA_RTOL = 32.0 * np.finfo(float).eps
# psi' at the ends of the box, the range of values the inversion accepts
_TRIGAMMA_TOP = polygamma(1, _TRIGAMMA_LO)
_TRIGAMMA_FLOOR = polygamma(1, _TRIGAMMA_HI)
_PI2_6 = math.pi**2 / 6.0  # psi'(x) - 1/x^2 as x -> 0


@dataclass
class SampleSet:
    """Positive real sample values.

    count always equals len(values); construction rejects empty, non-positive
    or non-finite data.
    """

    values: np.ndarray
    count: Optional[int] = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise EmptySampleError("sample set is empty")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("sample values must be finite")
        if arr.min() <= 0.0:
            raise ParameterError("sample values must be > 0")
        self.values = arr
        if self.count is None:
            self.count = int(arr.size)
        elif self.count != arr.size:
            raise ParameterError(
                f"count={self.count} does not match {arr.size} values"
            )


@dataclass(frozen=True)
class FitReport:
    """Fitted model plus solver diagnostics.

    residual is the largest absolute mismatch between the input log-cumulants
    and the fitted model's closed-form log-cumulants over the orders the fit
    used; converged means residual <= the configured tolerance.  iterations
    counts solver steps: the rounds of Newton steps on the shape split, its
    rescans, and the Newton steps of the final trigamma inversions (0 for
    closed-form fits).
    """

    model: ClutterModel
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        record = model_to_dict(self.model)
        record["iterations"] = int(self.iterations)
        record["residual"] = float(self.residual)
        record["converged"] = bool(self.converged)
        return record


# Exact sums.  A summand with biased exponent e (bits 52..62) and e' =
# max(e, 1) is a multiple of 2^(e'-1075) below 2^(e'-1022).  Clearing its low
# 27 mantissa bits leaves a high half, a multiple of 2^(e'-1048), and the low
# half, summand - high, is a multiple of 2^(e'-1075) below 2^(e'-1048); both
# splits are exact.  Scaled by 2^-27 (exact, as it stays a multiple of
# 2^-1074), a high half is a multiple of 2^(e'-1075) below 2^(e'-1049).  So
# up to 2^26 halves of one exponent sum in a float64 bin without rounding or
# overflow, in any order.  Bins are emptied into one Python integer, counted
# in units of 2^-1074, before they hold more, and the total is rounded once,
# by integer division, as math.fsum rounds.
_CHUNK = 1 << 16
_BIN_CAPACITY = 1 << 26
_LOW_BITS = (1 << 27) - 1
_UNIT = 1 << 1074


class _ExactSum:
    """Running sum of finite float64 values, exactly rounded like math.fsum
    (after Neal's small superaccumulator, arXiv:1505.05571, with float64
    bins that numpy fills)."""

    def __init__(self) -> None:
        self._bins = np.zeros((2, 2048))  # scaled high halves, low halves
        self._count = 0  # values in the bins
        self._units = 0  # emptied bins, in units of 2^-1074

    def add(self, values: np.ndarray) -> None:
        """Add a one-dimensional float64 array."""
        for start in range(0, values.size, _CHUNK):
            chunk = values[start : start + _CHUNK]
            if self._count + chunk.size > _BIN_CAPACITY:
                self._empty_bins()
            bits = chunk.view(np.int64)
            exponent = (bits >> 52) & 0x7FF
            high = (bits & ~_LOW_BITS).view(np.float64)
            low = chunk - high
            high *= 2.0**-27
            self._bins[0] += np.bincount(exponent, high, 2048)
            self._bins[1] += np.bincount(exponent, low, 2048)
            self._count += chunk.size

    def _empty_bins(self) -> None:
        for half, shift in zip(self._bins, (27, 0)):
            for total in half[half != 0.0].tolist():
                numerator, denominator = total.as_integer_ratio()
                self._units += (numerator << shift) * (_UNIT // denominator)
        self._bins[:] = 0.0
        self._count = 0

    def total(self) -> float:
        """The sum, rounded once (OverflowError if it is beyond float64)."""
        self._empty_bins()
        return self._units / _UNIT


def empirical_log_moments(samples: SampleSet, max_n: int) -> LogStats:
    """Sample log-moments: values[n-1] = mean of (ln x_i)^n for n = 1..max_n.

    Sums are exactly rounded, so chunked or merged accumulation cannot
    change the result; fourth powers of logs over 1e6 samples would
    otherwise lose digits under naive summation.  They equal math.fsum of
    the powers bit for bit: both return the exact sum rounded once to the
    nearest double.  Here the exact sum is kept without rounding in float64
    bins indexed by binary exponent and in a Python integer (see _ExactSum).
    One pass over chunks of the samples forms each chunk's powers by
    repeated multiplication, the same doubles a whole-array loop forms.
    """
    mellin._check_max_n(max_n)
    if not isinstance(samples, SampleSet):
        samples = SampleSet(samples)
    sums = [_ExactSum() for _ in range(max_n)]
    for start in range(0, samples.count, _CHUNK):
        logs = np.log(samples.values[start : start + _CHUNK])
        power = np.ones_like(logs)
        for total in sums:
            power = power * logs
            total.add(power)
    values = tuple(total.total() / samples.count for total in sums)
    return LogStats(KIND_LOG_MOMENTS, CONVENTION_STANDARD, values)


def empirical_log_cumulants(samples: SampleSet, max_n: int) -> LogStats:
    """Sample log-cumulants via the standard moment-cumulant relations."""
    mellin._check_max_n(max_n)
    if not isinstance(samples, SampleSet):
        samples = SampleSet(samples)
    if samples.count < 2:
        raise ParameterError("log-cumulants need at least 2 samples")
    moments = empirical_log_moments(samples, max_n)
    return convert(moments, KIND_LOG_CUMULANTS, CONVENTION_STANDARD)


def _batch_standard_errors(samples: SampleSet, max_n: int, batches: int, statfn):
    if not isinstance(samples, SampleSet):
        samples = SampleSet(samples)
    try:
        if isinstance(batches, bool):
            raise TypeError
        batches = operator.index(batches)
    except TypeError:
        raise ParameterError(f"batches must be an integer, got {batches!r}") from None
    if batches < 2:
        raise ParameterError("need at least 2 batches")
    if samples.count < 2 * batches:
        raise ParameterError(
            f"need at least {2 * batches} samples for {batches}-way batching"
        )
    chunks = np.array_split(samples.values, batches)
    stats = np.array([statfn(SampleSet(chunk), max_n).values for chunk in chunks])
    return tuple(
        float(np.std(stats[:, i], ddof=1) / math.sqrt(batches))
        for i in range(max_n)
    )


def log_moment_standard_errors(
    samples: SampleSet, max_n: int, batches: int = 10
) -> Tuple[float, ...]:
    """Monte-Carlo standard errors of the empirical log-moments, estimated by
    splitting the sample (a SampleSet or an array of values) into batches
    contiguous batches; batches must be an integer >= 2."""
    return _batch_standard_errors(samples, max_n, batches, empirical_log_moments)


def log_cumulant_standard_errors(
    samples: SampleSet, max_n: int, batches: int = 10
) -> Tuple[float, ...]:
    """Batch-split standard errors of the empirical log-cumulants."""
    return _batch_standard_errors(samples, max_n, batches, empirical_log_cumulants)


def texture_log_cumulants(
    data_cumulants: LogStats, speckle: ClutterModel, max_n: int
) -> LogStats:
    """Texture log-cumulants by additivity: data minus closed-form speckle."""
    if not isinstance(data_cumulants, LogStats):
        raise ParameterError(
            f"expected LogStats, got {type(data_cumulants).__name__}"
        )
    speckle_cumulants = mellin.log_cumulants(speckle, max_n)
    if data_cumulants.kind != KIND_LOG_CUMULANTS:
        raise ParameterError("data statistics must be log-cumulants")
    if data_cumulants.convention != CONVENTION_STANDARD:
        raise ParameterError("texture separation requires the standard convention")
    if len(data_cumulants.values) < max_n:
        raise ParameterError(
            f"need data cumulants up to order {max_n}, "
            f"got {len(data_cumulants.values)}"
        )
    values = tuple(
        data_cumulants.values[i] - speckle_cumulants.values[i]
        for i in range(max_n)
    )
    return LogStats(KIND_LOG_CUMULANTS, CONVENTION_STANDARD, values)


def _invert_trigamma(y) -> Tuple[np.ndarray, int]:
    """x with psi'(x) = y elementwise, and the number of Newton steps taken.

    Every element runs Newton's method on 1/psi'(x) = 1/y (as limma's
    trigammaInverse does; Smyth 2004) until its residual |psi'(x) - y| is at
    most _TRIGAMMA_RTOL * y, and then stays fixed; the step count is that
    of the slowest element.  The seed is the inverse of psi'(x) ~ 1/x^2 + pi^2/6
    for y > 2.5 (small x), else of psi'(x) ~ 1/x + 1/(2x^2) (large x).
    1/psi' is increasing and convex on (0, inf) (2 psi''^2 > psi' psi'''),
    so its tangent lies below it: after at most one step every iterate is
    right of the root and falls to it, and no bracket is needed.
    """
    y = np.asarray(y, dtype=float)
    if not (y > 0.0).all():
        raise ParameterError(
            f"trigamma value must be > 0, got {float(np.min(y))!r}"
        )
    outside = (y > _TRIGAMMA_TOP) | (y < _TRIGAMMA_FLOOR)
    if outside.any():
        raise NonConvergenceError(
            f"trigamma inverse of {float(y[outside].flat[0]):g} outside "
            f"[{_TRIGAMMA_LO:g}, {_TRIGAMMA_HI:g}]"
        )
    x = np.where(
        y > 2.5, 1.0 / np.sqrt(np.maximum(y, 2.5) - _PI2_6), 1.0 / y + 0.5
    )
    active = np.ones(y.shape, dtype=bool)
    for steps in range(_MAX_NEWTON_STEPS):
        d1 = _polygamma_kernel(1, x)
        active &= ~(np.abs(d1 - y) <= _TRIGAMMA_RTOL * y)
        if not active.any():
            return x, steps
        step = d1 * (1.0 - d1 / y) / _polygamma_kernel(2, x)
        x = np.where(active, x + step, x)
    raise NonConvergenceError(
        f"trigamma inversion did not converge for y={float(y[active].flat[0]):g}"
    )


def invert_trigamma(y: float) -> float:
    """x with psi'(x) = y, to a relative residual of 32 machine epsilons."""
    return float(_invert_trigamma(float(y))[0])


# ---------------------------------------------------------------------------
# MoLC: one solver inverts the factor-table sums for every family.


class _FitSpec(NamedTuple):
    """How a family's fields sit in its factor table.

    free lists (field, gamma slot, "a" or "q") for each shape the fit solves
    for; pinned holds the fields the fit fixes; X is proportional to
    scale ** power.
    """

    model: type
    free: Tuple[Tuple[str, int, str], ...]
    scale: str
    power: float = 1.0
    pinned: Tuple[Tuple[str, float], ...] = ()


_FIT_SPECS = {
    "exponential": _FitSpec(Exponential, (), "mu"),
    "gamma": _FitSpec(Gamma, (("L", 0, "a"),), "mu"),
    "nakagami": _FitSpec(Nakagami, (("L", 0, "a"),), "mu"),
    "maxwell": _FitSpec(Maxwell, (), "sigma"),
    "weibull": _FitSpec(Weibull, (("b", 0, "q"),), "z"),
    "rayleigh": _FitSpec(Rayleigh, (), "z"),
    "gamma_gamma": _FitSpec(GammaGamma, (("L", 0, "a"), ("M", 1, "a")), "mu"),
    # mu and b enter k1 only through ln(mu / sqrt(b)): fix mu = 1, report b
    "k_amplitude": _FitSpec(
        KAmplitude, (("alpha", 1, "a"),), "b", -0.5, (("mu", 1.0),)
    ),
    # sigma and b enter k1 only through ln(sigma / b): fix b = 1, report sigma
    "weibull_nakagami": _FitSpec(
        WeibullNakagami,
        (("c", 0, "q"), ("alpha", 1, "a")),
        "sigma",
        0.5,
        (("b", 1.0),),
    ),
    "fisher": _FitSpec(Fisher, (("L", 0, "a"), ("M", 1, "a")), "mu"),
}

_SCAN_POINTS = 257
# the step, relative to t, at which a Newton root of the shape split is done,
# and the window, relative to its end, at which a rescan gives up
_SPLIT_RTOL = 4.0 * np.finfo(float).eps


def _molc_solve(spec: _FitSpec, k: Sequence[float]):
    """(model, iterations) whose k1 .. k_(1 + number of free shapes) equal k."""
    fields = dict(spec.pinned)
    shapes = {name: 1.0 for name, _, _ in spec.free}
    unit = spec.model(**shapes, **fields, **{spec.scale: 1.0})
    gammas = mellin.factor_table(unit)[1]
    free_slots = [slot for _, slot, _ in spec.free]
    fixed = [g for i, g in enumerate(gammas) if i not in free_slots]
    iterations = 0
    if spec.free:
        floor = sum(polygamma(1, a) / q**2 for a, q in fixed)
        rest = k[1] - floor
        if not rest > 0.0:
            raise InfeasibleCumulantsError(
                f"k2={k[1]:g} must exceed {floor:g}, the part of k2 that the "
                f"fixed factors of {spec.model.family!r} give"
            )

        def slots(t):
            """(a, q, y = psi'(a) / q^2) of each free slot when the first takes
            share t of the k2 left over, and the Newton steps this took."""
            values, steps = [], 0
            shares = (t * rest, (1.0 - t) * rest)
            for (_, slot, kind), y in zip(spec.free, shares):
                a, q = gammas[slot]
                if kind == "a":
                    a, n = _invert_trigamma(q * q * y)
                    steps += n
                else:
                    q = np.sqrt(polygamma(1, a) / y)
                values.append((a, q, y))
            return values, steps

        t = 1.0
        if len(spec.free) == 2:
            t, iterations = _shape_split(spec, gammas, fixed, k, rest, slots)
        values, steps = slots(t)
        iterations += steps
        for (name, _, kind), (a, q, _) in zip(spec.free, values):
            fields[name] = float(a if kind == "a" else q)
    unit = spec.model(**fields, **{spec.scale: 1.0})
    k1_unit = mellin.log_cumulants(unit, 1).values[0]
    log_scale = (k[0] - k1_unit) / spec.power
    fields[spec.scale] = math.exp(log_scale) if log_scale <= _LOG_HUGE else math.inf
    if not 0.0 < fields[spec.scale] < math.inf:
        raise NumericOverflowError(
            f"fitted {spec.scale} of {spec.model.family!r} is not a positive "
            f"finite double: ln {spec.scale} = {log_scale:g}"
        )
    return spec.model(**fields), iterations


def _shape_split(spec: _FitSpec, gammas, fixed, k, rest: float, slots):
    """The share t of the leftover k2 taken by the first of two free shapes
    that reproduces k3, and the solver iterations spent.

    Every sign change of the k3 residual over an array scan of t is solved by
    _bracketed_newton.  Roots are kept in ascending t; when there are several
    and k4 is given, the one whose k4 matches best comes first.
    """
    k2, k3 = k[1], k[2]

    def k_sum(values, n):  # k_n of the fixed factors and the free (a, q, y)
        return sum(_polygamma_kernel(n - 1, a) / q**n for a, q, *_ in fixed + values)

    def residual(t):
        """k3 of the split t less the given k3, and its slope in t."""
        total, rates = k_sum([], 3), []
        for (_, _, kind), (a, q, y) in zip(spec.free, slots(t)[0]):
            d2 = _polygamma_kernel(2, a)
            total = total + d2 / q**3
            # d(psi''(a) / q^3) / dy along psi'(a) / q^2 = y, setting a or q
            if kind == "a":
                rates.append(_polygamma_kernel(3, a) / (q * d2))
            else:
                rates.append(1.5 * d2 / (q**3 * y))
        return total - k3, rest * (rates[0] - rates[1])

    def min_share(slot: int, kind: str) -> float:
        # the share that keeps a = psi'^-1(q^2 y) inside the inversion box,
        # or q = sqrt(psi'(a) / y) at most 1e6
        a, q = gammas[slot]
        return 1.01 * _TRIGAMMA_FLOOR / q**2 if kind == "a" else polygamma(1, a) / 1e12

    (_, first, first_kind), (_, second, second_kind) = spec.free
    # Two free a's with equal q are interchangeable (gamma-gamma).  Scanning
    # only t >= 1/2 gives the first the larger psi', so the smaller a.
    tie = first_kind == second_kind == "a" and gammas[first][1] == gammas[second][1]
    lo = 0.5 if tie else max(1e-12, min_share(first, first_kind) / rest)
    hi = 1.0 - max(1e-12, min_share(second, second_kind) / rest)
    if not lo < hi:
        raise InfeasibleCumulantsError(f"k2={k2:g} admits no shape split")
    for rescans in itertools.count():
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        g = residual(grid)[0]
        if tie and grid[0] == 0.5 and abs(g[0]) <= 1e-9 * abs(k3):
            # equal shapes: the root at t = 1/2 is where the swapped pair of
            # roots meets, and the residual only touches zero there
            g[0] = 0.0
        cells = np.flatnonzero(g[:-1] * g[1:] < 0.0)
        if cells.size or (g == 0.0).any():
            break
        # Two roots can share one scan cell, next to the grid point of least
        # |g|, where the residual has its extremum.  Scan the cells on each
        # side again, until a sign change shows or they are a few doubles wide.
        i = int(np.argmin(np.abs(g)))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if hi - lo <= _SPLIT_RTOL * hi:
            raise InfeasibleCumulantsError(
                f"no positive shapes reproduce (k2, k3) = ({k2:g}, {k3:g})"
            )
    roots, rounds = _bracketed_newton(
        residual, grid[cells], grid[cells + 1], g[cells], g[cells + 1]
    )
    roots = sorted([*grid[g == 0.0], *roots])
    if len(roots) > 1 and len(k) >= 4:
        roots.sort(key=lambda t: abs(k_sum(slots(t)[0], 4) - k[3]))
    return roots[0], rescans + rounds


def _bracketed_newton(f, lo, hi, f_lo, f_hi):
    """Roots of f in the cells [lo, hi] (t > 0), over each of which f changes
    sign, and the rounds taken; f(t) gives f and its slope for an array t.

    Each cell runs Newton's method from its secant point, safeguarded as in
    Brent (1973): a step that would leave the cell bisects it instead, and
    each evaluation moves the end whose f has the same sign to t.  A root is
    done once its step is at most _SPLIT_RTOL * t, or f is 0, and then stays
    fixed, so each cell iterates on its own.
    """
    t = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    lo_negative = f_lo < 0.0
    active, rounds = np.ones(t.shape, dtype=bool), 0
    while active.any():
        if rounds == _MAX_NEWTON_STEPS:
            raise NonConvergenceError("shape solve did not converge")
        rounds += 1
        g, slope = f(t)
        left = (g < 0.0) == lo_negative
        lo, hi = np.where(left, t, lo), np.where(left, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(g == 0.0, 0.0, g / slope)
        inside = (step == 0.0) | (lo < t - step) & (t - step < hi)
        step = np.where(active, np.where(inside, step, t - 0.5 * (lo + hi)), 0.0)
        active &= abs(step) > _SPLIT_RTOL * t
        t = t - step
    return t, rounds


def fit_molc(
    family: Union[str, type],
    cumulants: LogStats,
    tol: float = DEFAULT_FIT_TOL,
) -> FitReport:
    """Fit a family's parameters from log-cumulants.

    Uses the lowest orders that exactly determine the parameters (k1, k2 for
    two-parameter families, k1..k3 for three-parameter ones).  KAmplitude is
    fitted with mu fixed at 1 and WeibullNakagami with b fixed at 1: the
    remaining scale absorbs the joint scale, which log-cumulants cannot
    separate.

    (k2, k3) can have two solutions (Weibull-Nakagami does, for some
    models).  Given k4, the solution whose k4 is closer is returned;
    without k4, the first in scan order: the one whose first shape takes
    the smaller share of k2, which for Weibull-Nakagami is the larger c.
    Raises InfeasibleCumulantsError when no positive parameters reproduce
    the cumulants, and NumericOverflowError where the fitted scale is not a
    positive finite double.
    """
    if isinstance(family, type):
        name = getattr(family, "family", None)
    else:
        name = family
    if name not in _FIT_SPECS:
        raise ParameterError(
            f"cannot fit family {family!r}; expected one of "
            f"{sorted(_FIT_SPECS)}"
        )
    if not isinstance(cumulants, LogStats):
        raise ParameterError("cumulants must be a LogStats value")
    if cumulants.kind != KIND_LOG_CUMULANTS:
        raise ParameterError("fit input must be log-cumulants")
    if cumulants.convention != CONVENTION_STANDARD:
        raise ParameterError("fit input must use the standard convention")

    spec = _FIT_SPECS[name]
    orders_used = 1 + len(spec.free)
    if len(cumulants.values) < orders_used:
        raise ParameterError(
            f"family {name!r} needs log-cumulants up to order {orders_used}, "
            f"got {len(cumulants.values)}"
        )
    model, iterations = _molc_solve(spec, cumulants.values)

    fitted = mellin.log_cumulants(model, orders_used)
    residual = max(
        abs(fitted.values[i] - cumulants.values[i]) for i in range(orders_used)
    )
    return FitReport(
        model=model,
        iterations=int(iterations),
        residual=float(residual),
        converged=bool(residual <= tol),
    )


# ---------------------------------------------------------------------------
# Sample CSV interface: one header line `value`, one positive decimal per row.


def load_samples_csv(path) -> SampleSet:
    """Read samples from a CSV file with header `value`."""
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySampleError(f"{path}: empty sample file") from None
        if len(header) != 1 or header[0].strip() != "value":
            raise ParameterError(
                f"{path}: expected single CSV column with header 'value', "
                f"got {header!r}"
            )
        values = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1:
                raise ParameterError(
                    f"{path}:{row_number}: expected one field, got {row!r}"
                )
            try:
                values.append(float(row[0]))
            except ValueError:
                raise ParameterError(
                    f"{path}:{row_number}: not a number: {row[0]!r}"
                ) from None
    return SampleSet(np.asarray(values))


def save_samples_csv(samples: SampleSet, path) -> None:
    """Write samples as a CSV file with header `value` (round-trip exact)."""
    if not isinstance(samples, SampleSet):
        samples = SampleSet(samples)
    with open(path, "w", newline="") as handle:
        handle.write("value\n")
        for value in samples.values:
            handle.write(f"{float(value)!r}\n")
