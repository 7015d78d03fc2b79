"""Seeded sampling for every family and the texture log-cumulant experiment.

Randomness comes from the counter-based Philox bit generator keyed by a
(seed, stream) pair, so identical states reproduce identical sequences across
runs and platforms; uniform doubles use the 53-bit mantissa construction.
A simple family is sampled from its Mellin factor table
(mellin.factor_table): X = (num/den)^e * G_a^(1/q) with G_a a unit-scale
gamma variate.  Shape-1 variates are drawn by inverse CDF, -ln U; other
shapes by Marsaglia-Tsang rejection, valid for all shapes.  A compound
family is sampled as the product of its declared speckle and texture
(models.decompose), drawn on independent sub-streams, so sampling a
compound and sample_product of its components are one path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Tuple

import numpy as np

from . import estimate
from .errors import ClutterStatsError, NumericOverflowError, ParameterError
from .estimate import SampleSet, empirical_log_moments
from .mellin import (
    KIND_LOG_CUMULANTS,
    KIND_LOG_MOMENTS,
    _form,
    _power,
    convert,
    log_cumulants,
)
from .models import (
    COMPOUND_FAMILY_TYPES,
    ClutterModel,
    Decomposition,
    Gamma,
    GammaGamma,
    decompose,
)
from .specfun import polygamma

__all__ = [
    "RngState",
    "Fig1Config",
    "Fig1Row",
    "Fig1Table",
    "FIG1_COLUMNS",
    "default_m_grid",
    "sample",
    "sample_product",
    "figure1_point_samples",
    "figure1_experiment",
]

_MASK64 = (1 << 64) - 1
# Half-ULP shift keeps inverse-CDF draws strictly positive when the uniform
# generator returns exactly 0.
_U_SHIFT = 2.0**-54


@dataclass(frozen=True)
class RngState:
    """Deterministic generator state: a seed plus a sub-stream selector.

    Identical (seed, stream) pairs yield identical sample sequences.  Child
    streams follow binary-heap indexing (2s+1, 2s+2), so the streams used by
    nested product sampling never collide.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterError(f"{name} must be an integer")
        object.__setattr__(self, "seed", self.seed & _MASK64)
        object.__setattr__(self, "stream", self.stream & _MASK64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngState":
        return RngState(self.seed, (2 * self.stream + index) & _MASK64)


def _draws(model, n: int, rng: RngState) -> np.ndarray:
    """n draws of a model or of a Decomposition, which may leave the double
    range.  A compound is drawn as its Decomposition: speckle draws on
    rng.child(1) times texture draws on rng.child(2)."""
    if isinstance(model, COMPOUND_FAMILY_TYPES):
        model = decompose(model)
    if isinstance(model, Decomposition):
        speckle = _draws(model.speckle, n, rng.child(1))
        return speckle * _draws(model.texture, n, rng.child(2))
    form = _form(model)
    ((ratio, log_ratio, e),), ((a, q),) = form.scales, form.gammas
    gen = rng.generator()
    if a == 1.0:
        draws = -np.log(gen.random(n) + _U_SHIFT)
    else:
        draws = gen.standard_gamma(a, n)
    if q != 1.0:
        draws = draws ** (1.0 / q)
    return draws * _power(ratio, log_ratio, e)


def sample(model: ClutterModel, n: int, rng: RngState) -> SampleSet:
    """Draw n independent samples from the model.

    A simple family's draw is X = (num/den)^e * G_a^(1/q) over its factor
    table, on rng itself, its scale taken from the factors as phi takes it.
    A compound family's draw is its speckle's draw times its texture's
    (models.decompose), exactly as sample_product makes it.

    Raises NumericOverflowError when a draw is not representable as a
    positive finite double.  Small gamma shapes cause it: a shape-a variate
    falls below the smallest subnormal (5e-324) with probability about
    (5e-324)^a / Gamma(a + 1) per draw, 3.5e-7 at a = 0.02 and 0.024 at
    a = 0.005.  So can a product of draws that over- or underflows.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParameterError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not isinstance(rng, RngState):
        raise ParameterError("rng must be an RngState")
    # a draw that leaves the double range is reported below, not warned about
    with np.errstate(divide="ignore", over="ignore"):
        values = _draws(model, n, rng)
    try:
        return SampleSet(values)
    except ParameterError as exc:
        raise NumericOverflowError(
            f"{model!r}: a draw is not representable as a positive finite double"
        ) from exc


def sample_product(
    speckle: ClutterModel, texture: ClutterModel, n: int, rng: RngState
) -> SampleSet:
    """Draw x_i = u_i * z_i with u ~ speckle on rng.child(1) and z ~ texture
    on rng.child(2), as sample draws a compound with these components."""
    return sample(Decomposition(speckle, texture), n, rng)


# ---------------------------------------------------------------------------
# Texture log-cumulant experiment: sweep the texture shape M, simulate the
# gamma-speckle x gamma-texture product, and compare empirical data
# log-moments and texture log-cumulants against the closed forms.


def _log_grid(lo: float, hi: float, points: int) -> Tuple[float, ...]:
    """points log-spaced values lo * 2^(log2(hi / lo) * i / (points - 1)) from
    lo to hi inclusive, exact wherever that exponent is an exact integer."""
    span = math.log2(hi / lo)
    inner = (lo * 2.0 ** (span * i / (points - 1)) for i in range(1, points - 1))
    return (lo, *inner, hi) if points > 1 else (lo,)


def default_m_grid() -> Tuple[float, ...]:
    """13 log-spaced points on [0.25, 16] (ratio sqrt(2)); contains 0.25,
    0.5, 1, 2, 4, 8 and 16 exactly, spanning the spiky (M < 1) regime through
    the near-Gaussian large-M regime."""
    return _log_grid(0.25, 16.0, 13)


@dataclass(frozen=True)
class Fig1Config:
    """Sweep configuration: speckle shape L, texture mean mu, texture shape
    grid, draws per grid point, and the base seed."""

    L: float = 4.0
    mu: float = 1.0
    M_grid: Tuple[float, ...] = field(default_factory=default_m_grid)
    samples_per_point: int = 1_000_000
    seed: int = 42

    def __post_init__(self) -> None:
        if not (self.L > 0 and self.mu > 0):
            raise ParameterError("L and mu must be > 0")
        grid = tuple(float(m) for m in self.M_grid)
        if not grid or any(m <= 0 for m in grid):
            raise ParameterError("M_grid must contain positive values")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError("M_grid must be strictly increasing")
        object.__setattr__(self, "M_grid", grid)
        if self.samples_per_point < 1:
            raise ParameterError("samples_per_point must be >= 1")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ParameterError("seed must be an integer")
        object.__setattr__(self, "seed", self.seed & _MASK64)


@dataclass(frozen=True)
class Fig1Row:
    M: float
    m2_data_theory: float
    m2_data_est: float
    m4_data_theory: float
    m4_data_est: float
    k2_texture_theory: float
    k2_texture_est: float
    k4_texture_theory: float
    k4_texture_est: float


FIG1_COLUMNS = tuple(f.name for f in fields(Fig1Row))


@dataclass(frozen=True)
class Fig1Table:
    """One row per grid point, in grid order."""

    rows: Tuple[Fig1Row, ...]

    def to_csv(self) -> str:
        lines = [",".join(FIG1_COLUMNS)]
        lines += (",".join(map(repr, astuple(row))) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([asdict(row) for row in self.rows], indent=2)


def _point_rng(config: Fig1Config, index: int) -> RngState:
    # one stream per grid point makes results independent of evaluation order
    # (and of any parallelism across grid points); the product's children
    # 2*index + 1 and 2*index + 2 never collide between points or seeds
    return RngState(seed=config.seed, stream=index)


def figure1_point_samples(config: Fig1Config, index: int) -> SampleSet:
    """Samples of the gamma-speckle x gamma-texture compound for one grid
    point."""
    if not 0 <= index < len(config.M_grid):
        raise ParameterError(f"index {index} outside grid of {len(config.M_grid)}")
    compound = GammaGamma(L=config.L, M=config.M_grid[index], mu=config.mu)
    return sample(compound, config.samples_per_point, _point_rng(config, index))


def figure1_experiment(config: Fig1Config = Fig1Config()) -> Fig1Table:
    """Run the texture log-cumulant sweep.

    Per grid point: empirical second and fourth data log-moments against the
    closed forms, and texture log-cumulants estimated by subtracting the
    speckle's closed-form cumulants against psi'(M) and psi'''(M).  The data
    log-cumulants are converted from the same log-moments, so each point's
    samples are summed once.
    """
    speckle = Gamma(L=config.L, mu=1.0)
    rows = []
    for index, M in enumerate(config.M_grid):
        try:
            samples = figure1_point_samples(config, index)
            compound = GammaGamma(L=config.L, M=M, mu=config.mu)
            theory_moments = convert(log_cumulants(compound, 4), KIND_LOG_MOMENTS)
            est_moments = empirical_log_moments(samples, 4)
            if samples.count < 2:
                raise ParameterError("log-cumulants need at least 2 samples")
            est_texture = estimate.texture_log_cumulants(
                convert(est_moments, KIND_LOG_CUMULANTS), speckle, 4
            )
        except ClutterStatsError as exc:
            raise type(exc)(f"grid point M={M:g}: {exc}") from exc
        rows.append(
            Fig1Row(
                M=float(M),
                m2_data_theory=theory_moments.values[1],
                m2_data_est=est_moments.values[1],
                m4_data_theory=theory_moments.values[3],
                m4_data_est=est_moments.values[3],
                k2_texture_theory=polygamma(1, M),
                k2_texture_est=est_texture.values[1],
                k4_texture_theory=polygamma(3, M),
                k4_texture_est=est_texture.values[3],
            )
        )
    return Fig1Table(rows=tuple(rows))
