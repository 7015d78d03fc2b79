"""Empirical second-kind statistics and method-of-log-cumulants (MoLC) fitting.

Empirical log-moments are sample means of powers of ln(x); log-cumulants
follow through the standard moment-cumulant relations.  Because the speckle
and texture log-cumulants of a compound model add order by order, subtracting
a known speckle's closed-form cumulants from the data cumulants estimates the
texture cumulants directly.

MoLC fitting equates the lowest-order empirical log-cumulants with their
closed-form expressions and solves for the parameters: trigamma inversion for
one shape, or elimination to a bracketed scalar root for two shapes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import mellin
from .errors import (
    EmptySampleError,
    InfeasibleCumulantsError,
    NonConvergenceError,
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
    validate,
)
from .specfun import polygamma

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
_TRIGAMMA_MAX_ITER = 200


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
    used; converged means residual <= the configured tolerance.
    """

    model: ClutterModel
    iterations: int
    residual: float
    converged: bool

    def to_dict(self) -> dict:
        from .models import model_to_dict

        record = model_to_dict(self.model)
        record["iterations"] = int(self.iterations)
        record["residual"] = float(self.residual)
        record["converged"] = bool(self.converged)
        return record


def _check_max_n(max_n: int) -> int:
    if isinstance(max_n, bool) or not isinstance(max_n, int):
        raise ParameterError(f"max_n must be an integer, got {max_n!r}")
    if not 1 <= max_n <= 4:
        raise ParameterError(f"max_n must be in 1..4, got {max_n}")
    return max_n


def empirical_log_moments(samples: SampleSet, max_n: int) -> LogStats:
    """Sample log-moments: values[n-1] = mean of (ln x_i)^n for n = 1..max_n.

    Sums are exactly rounded (math.fsum), so chunked or merged accumulation
    cannot change the result; fourth powers of logs over 1e6 samples would
    otherwise lose digits under naive summation.
    """
    _check_max_n(max_n)
    if not isinstance(samples, SampleSet):
        samples = SampleSet(samples)
    logs = np.log(samples.values)
    values = []
    power = np.ones_like(logs)
    for _ in range(max_n):
        power = power * logs
        values.append(math.fsum(power) / samples.count)
    return LogStats(KIND_LOG_MOMENTS, CONVENTION_STANDARD, tuple(values))


def empirical_log_cumulants(samples: SampleSet, max_n: int) -> LogStats:
    """Sample log-cumulants via the standard moment-cumulant relations."""
    _check_max_n(max_n)
    if not isinstance(samples, SampleSet):
        samples = SampleSet(samples)
    if samples.count < 2:
        raise ParameterError("log-cumulants need at least 2 samples")
    moments = empirical_log_moments(samples, max_n)
    return convert(moments, KIND_LOG_CUMULANTS, CONVENTION_STANDARD)


def _batch_standard_errors(samples: SampleSet, max_n: int, batches: int, statfn):
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
    splitting the sample into contiguous batches."""
    _check_max_n(max_n)
    return _batch_standard_errors(samples, max_n, batches, empirical_log_moments)


def log_cumulant_standard_errors(
    samples: SampleSet, max_n: int, batches: int = 10
) -> Tuple[float, ...]:
    """Batch-split standard errors of the empirical log-cumulants."""
    _check_max_n(max_n)
    return _batch_standard_errors(samples, max_n, batches, empirical_log_cumulants)


def texture_log_cumulants(
    data_cumulants: LogStats, speckle: ClutterModel, max_n: int
) -> LogStats:
    """Texture log-cumulants by additivity: data minus closed-form speckle."""
    _check_max_n(max_n)
    if data_cumulants.kind != KIND_LOG_CUMULANTS:
        raise ParameterError("data statistics must be log-cumulants")
    if data_cumulants.convention != CONVENTION_STANDARD:
        raise ParameterError("texture separation requires the standard convention")
    if len(data_cumulants.values) < max_n:
        raise ParameterError(
            f"need data cumulants up to order {max_n}, "
            f"got {len(data_cumulants.values)}"
        )
    speckle_cumulants = mellin.log_cumulants(speckle, max_n)
    values = tuple(
        data_cumulants.values[i] - speckle_cumulants.values[i]
        for i in range(max_n)
    )
    return LogStats(KIND_LOG_CUMULANTS, CONVENTION_STANDARD, values)


def _invert_trigamma(y: float) -> Tuple[float, int]:
    """Newton iteration for psi'(x) = y, safeguarded by bisection."""
    y = float(y)
    if not y > 0:
        raise ParameterError(f"trigamma value must be > 0, got {y!r}")
    lo, hi = _TRIGAMMA_LO, _TRIGAMMA_HI
    if y > polygamma(1, lo) or y < polygamma(1, hi):
        raise NonConvergenceError(
            f"trigamma inverse of {y:g} outside [{lo:g}, {hi:g}]"
        )
    # asymptotic inverse psi'(x) ~ 1/x + 1/(2x^2) seeds Newton
    x = min(max(1.0 / y + 0.5, lo), hi)
    for iteration in range(1, _TRIGAMMA_MAX_ITER + 1):
        fx = polygamma(1, x) - y
        if abs(fx) <= 1e-10 * y:
            return x, iteration
        if fx > 0.0:  # psi' decreasing: value too large means x too small
            lo = x
        else:
            hi = x
        step = fx / polygamma(2, x)
        candidate = x - step
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        x = candidate
    raise NonConvergenceError(
        f"trigamma inversion did not converge for y={y:g}"
    )


def invert_trigamma(y: float) -> float:
    """x with psi'(x) = y, to relative residual 1e-10."""
    return _invert_trigamma(y)[0]


# ---------------------------------------------------------------------------
# MoLC equation systems.  Each solver returns (model, iterations).


def _require_orders(values: Sequence[float], needed: int, family: str):
    if len(values) < needed:
        raise ParameterError(
            f"family {family!r} needs log-cumulants up to order {needed}, "
            f"got {len(values)}"
        )


def _require_positive_k2(k2: float):
    if not k2 > 0.0:
        raise InfeasibleCumulantsError(f"k2 must be > 0, got {k2:g}")


def _fit_exponential(k):
    mu = math.exp(k[0] - polygamma(0, 1.0))
    return Exponential(mu=mu), 0


def _fit_gamma(k):
    _require_positive_k2(k[1])
    L, iters = _invert_trigamma(k[1])
    mu = L * math.exp(k[0] - polygamma(0, L))
    return Gamma(L=L, mu=mu), iters


def _fit_nakagami(k):
    _require_positive_k2(k[1])
    L, iters = _invert_trigamma(4.0 * k[1])
    mu = math.sqrt(L) * math.exp(k[0] - 0.5 * polygamma(0, L))
    return Nakagami(L=L, mu=mu), iters


def _fit_maxwell(k):
    sigma_sq = 0.5 * math.exp(2.0 * (k[0] - 0.5 * polygamma(0, 1.5)))
    return Maxwell(sigma=math.sqrt(sigma_sq)), 0


def _fit_weibull(k):
    _require_positive_k2(k[1])
    b = math.sqrt(polygamma(1, 1.0) / k[1])
    z = math.exp(k[0] - polygamma(0, 1.0) / b)
    return Weibull(b=b, z=z), 0


def _fit_rayleigh(k):
    z = math.exp(k[0] - 0.5 * polygamma(0, 1.0))
    return Rayleigh(z=z), 0


def _fit_k_amplitude(k):
    # mu and b enter k1 only through ln(mu / sqrt(b)): fix mu = 1, report b.
    _require_positive_k2(k[1])
    y = 4.0 * k[1] - polygamma(1, 1.0)
    if not y > 0.0:
        raise InfeasibleCumulantsError(
            f"k2={k[1]:g} is below the Rayleigh speckle floor psi'(1)/4"
        )
    alpha, iters = _invert_trigamma(y)
    b = math.exp(2.0 * (0.5 * polygamma(0, 1.0) + 0.5 * polygamma(0, alpha) - k[0]))
    return KAmplitude(alpha=alpha, b=b, mu=1.0), iters


def _trigamma_floor() -> float:
    return polygamma(1, _TRIGAMMA_HI)


def _fit_gamma_gamma(k):
    # Shapes solve psi'(L) + psi'(M) = k2, psi''(L) + psi''(M) = k3.  The
    # system is symmetric under swap; parameterize the trigamma split
    # psi'(L) = t*k2 with t in [1/2, 1) (canonical L <= M) and solve the
    # scalar k3 equation, which is strictly monotone in t.
    k2, k3 = k[1], k[2]
    _require_positive_k2(k2)
    iterations = 0

    def shapes(t: float):
        L, i1 = _invert_trigamma(t * k2)
        M, i2 = _invert_trigamma((1.0 - t) * k2)
        return L, M, i1 + i2

    def g(t: float) -> float:
        L, M, _ = shapes(t)
        return polygamma(2, L) + polygamma(2, M) - k3

    g_half = g(0.5)
    scale = max(1.0, abs(k3))
    if abs(g_half) <= 1e-9 * scale:
        L, M, extra = shapes(0.5)
        return GammaGamma(L=L, M=M, mu=1.0), extra, 0.5  # mu fixed below
    if g_half < 0.0:
        raise InfeasibleCumulantsError(
            f"k3={k3:g} exceeds the symmetric maximum for k2={k2:g}"
        )
    t_hi = 1.0 - max(1e-12, 1.01 * _trigamma_floor() / k2)
    if t_hi <= 0.5 or g(t_hi) > 0.0:
        raise InfeasibleCumulantsError(
            f"no positive shapes reproduce (k2, k3) = ({k2:g}, {k3:g})"
        )
    t_star, info = brentq(
        g, 0.5, t_hi, xtol=1e-15, rtol=8.9e-16, maxiter=200, full_output=True
    )
    if not info.converged:
        raise NonConvergenceError("shape solve did not converge")
    L, M, extra = shapes(t_star)
    return GammaGamma(L=L, M=M, mu=1.0), info.iterations + extra, t_star


def _fit_gamma_gamma_full(k):
    model, iters, _ = _fit_gamma_gamma(k)
    L, M = model.L, model.M
    mu = L * M * math.exp(k[0] - polygamma(0, L) - polygamma(0, M))
    return GammaGamma(L=L, M=M, mu=mu), iters


def _fit_fisher(k):
    # psi'(L) + psi'(M) = k2, psi''(L) - psi''(M) = k3; same trigamma-split
    # parameterization, t in (0, 1), strictly decreasing in t.
    k2, k3 = k[1], k[2]
    _require_positive_k2(k2)

    def shapes(t: float):
        L, i1 = _invert_trigamma(t * k2)
        M, i2 = _invert_trigamma((1.0 - t) * k2)
        return L, M, i1 + i2

    def g(t: float) -> float:
        L, M, _ = shapes(t)
        return polygamma(2, L) - polygamma(2, M) - k3

    edge = max(1e-12, 1.01 * _trigamma_floor() / k2)
    t_lo, t_hi = edge, 1.0 - edge
    if t_lo >= t_hi:
        raise InfeasibleCumulantsError(f"k2={k2:g} too small to invert")
    if g(t_lo) < 0.0 or g(t_hi) > 0.0:
        raise InfeasibleCumulantsError(
            f"no positive shapes reproduce (k2, k3) = ({k2:g}, {k3:g})"
        )
    t_star, info = brentq(
        g, t_lo, t_hi, xtol=1e-15, rtol=8.9e-16, maxiter=200, full_output=True
    )
    if not info.converged:
        raise NonConvergenceError("shape solve did not converge")
    L, M, extra = shapes(t_star)
    mu = (L / M) * math.exp(k[0] - polygamma(0, L) + polygamma(0, M))
    return Fisher(L=L, M=M, mu=mu), info.iterations + extra


def _fit_weibull_nakagami(k):
    # psi'(1)/c^2 + psi'(alpha)/4 = k2 and psi''(1)/c^3 + psi''(alpha)/8 = k3.
    # Parameterize the k2 split: u = psi'(1)/c^2 = t*k2.  The residual is not
    # monotone in t and the (k2, k3) system can have two genuine solutions;
    # bracket every sign change and, when k4 is provided, let it pick the
    # branch (k4 = psi'''(1)/c^4 + psi'''(alpha)/16 differs between branches).
    k2, k3 = k[1], k[2]
    _require_positive_k2(k2)
    psi1_1 = polygamma(1, 1.0)

    def params(t: float):
        c = math.sqrt(psi1_1 / (t * k2))
        alpha, iters = _invert_trigamma(4.0 * (1.0 - t) * k2)
        return c, alpha, iters

    def g(t: float) -> float:
        c, alpha, _ = params(t)
        return polygamma(2, 1.0) / c**3 + polygamma(2, alpha) / 8.0 - k3

    floor = _trigamma_floor()
    t_min = max(1e-12, psi1_1 / (k2 * 1e12))  # c <= 1e6
    t_max = 1.0 - max(1e-12, 1.01 * floor / (4.0 * k2))
    if t_min >= t_max:
        raise InfeasibleCumulantsError(f"k2={k2:g} admits no shape split")
    grid = np.linspace(t_min, t_max, 257)
    residuals = [g(t) for t in grid]
    roots = []
    iterations = 0

    def solve(lo: float, hi: float) -> None:
        nonlocal iterations
        t_star, info = brentq(
            g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200, full_output=True
        )
        if not info.converged:
            raise NonConvergenceError("shape solve did not converge")
        roots.append(t_star)
        iterations += info.iterations

    for i in range(len(grid) - 1):
        if residuals[i] == 0.0:
            roots.append(grid[i])
        elif residuals[i] * residuals[i + 1] < 0.0:
            solve(grid[i], grid[i + 1])
    if residuals[-1] == 0.0:
        roots.append(grid[-1])
    if not roots:
        # Two roots can share one scan cell, next to the grid point of least
        # |g|: the residual keeps its sign on the grid and crosses zero only
        # around its extremum there.  Find the extremum and bracket each side.
        i = int(np.argmin(np.abs(residuals)))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        sign = math.copysign(1.0, residuals[i])
        extremum = minimize_scalar(
            lambda t: sign * g(t), bounds=(lo, hi), method="bounded"
        )
        iterations += extremum.nfev
        if extremum.fun < 0.0:
            solve(lo, extremum.x)
            solve(extremum.x, hi)
    if not roots:
        raise InfeasibleCumulantsError(
            f"no positive shapes reproduce (k2, k3) = ({k2:g}, {k3:g})"
        )
    if len(roots) > 1 and len(k) >= 4:

        def k4_mismatch(t: float) -> float:
            c, alpha, _ = params(t)
            k4 = polygamma(3, 1.0) / c**4 + polygamma(3, alpha) / 16.0
            return abs(k4 - k[3])

        roots.sort(key=k4_mismatch)
    c, alpha, extra = params(roots[0])
    # sigma and b enter k1 only through ln(sigma/b): fix b = 1, report sigma.
    sigma = math.exp(
        2.0 * (k[0] - polygamma(0, 1.0) / c - 0.5 * polygamma(0, alpha))
    )
    return WeibullNakagami(c=c, alpha=alpha, b=1.0, sigma=sigma), iterations + extra


_FIT_SOLVERS = {
    "exponential": (_fit_exponential, 1),
    "gamma": (_fit_gamma, 2),
    "nakagami": (_fit_nakagami, 2),
    "maxwell": (_fit_maxwell, 1),
    "weibull": (_fit_weibull, 2),
    "rayleigh": (_fit_rayleigh, 1),
    "gamma_gamma": (_fit_gamma_gamma_full, 3),
    "k_amplitude": (_fit_k_amplitude, 2),
    "weibull_nakagami": (_fit_weibull_nakagami, 3),
    "fisher": (_fit_fisher, 3),
}


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
    """
    if isinstance(family, type):
        name = getattr(family, "family", None)
    else:
        name = family
    if name not in _FIT_SOLVERS:
        raise ParameterError(
            f"cannot fit family {family!r}; expected one of "
            f"{sorted(_FIT_SOLVERS)}"
        )
    if not isinstance(cumulants, LogStats):
        raise ParameterError("cumulants must be a LogStats value")
    if cumulants.kind != KIND_LOG_CUMULANTS:
        raise ParameterError("fit input must be log-cumulants")
    if cumulants.convention != CONVENTION_STANDARD:
        raise ParameterError("fit input must use the standard convention")

    solver, orders_used = _FIT_SOLVERS[name]
    _require_orders(cumulants.values, orders_used, name)
    model, iterations = solver(cumulants.values)
    validate(model)

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
