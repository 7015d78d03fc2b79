"""Seeded sampling for every family and the texture log-cumulant experiment.

Randomness comes from the counter-based Philox bit generator keyed by a
(seed, stream) pair, so identical states reproduce identical sequences across
runs and platforms; uniform doubles use the 53-bit mantissa construction.
Every family is sampled from its Mellin factor table (mellin.factor_table):
X = prod base^e * prod G_a^(1/q) with independent unit-scale gamma variates
G_a.  Shape-1 factors are drawn by inverse CDF, -ln U; other shapes by
Marsaglia-Tsang rejection, valid for all shapes.  A compound family's gamma
factors are drawn on independent sub-streams, speckle first.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import estimate
from .errors import ClutterStatsError, NumericOverflowError, ParameterError
from .estimate import SampleSet, empirical_log_cumulants, empirical_log_moments
from .mellin import KIND_LOG_MOMENTS, convert, factor_table, log_cumulants
from .models import ClutterModel, Gamma, GammaGamma, validate
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


def _gamma_power(a: float, q: float, n: int, rng: RngState) -> np.ndarray:
    """n draws of G_a^(1/q), G_a a unit-scale gamma variate of shape a."""
    gen = rng.generator()
    if a == 1.0:
        draws = -np.log(gen.random(n) + _U_SHIFT)
    else:
        draws = gen.standard_gamma(a, n)
    return draws if q == 1.0 else draws ** (1.0 / q)


def sample(model: ClutterModel, n: int, rng: RngState) -> SampleSet:
    """Draw n independent samples from the model.

    Each draw is X = prod base^e * prod G_a^(1/q) over the model's factor
    table.  A one-factor family draws on rng itself; a compound family draws
    gamma factor i on rng.child(i + 1), speckle first, the same streams
    sample_product uses for its (speckle, texture) pair.

    Raises NumericOverflowError when a draw is not representable as a
    positive finite double.  Small gamma shapes cause it: a shape-a variate
    falls below the smallest subnormal (5e-324) with probability about
    (5e-324)^a / Gamma(a + 1) per draw, 3.5e-7 at a = 0.02 and 0.024 at
    a = 0.005.
    """
    validate(model)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParameterError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if not isinstance(rng, RngState):
        raise ParameterError("rng must be an RngState")
    powers, gammas = factor_table(model)
    if len(gammas) == 1:
        streams = [rng]
    else:
        streams = [rng.child(i + 1) for i in range(len(gammas))]
    values = math.prod(math.pow(base, e) for base, e in powers)
    # Multiplying from the last (texture) factor inwards rounds exactly like
    # sample_product's speckle * texture whenever the speckle's own scale is
    # a power of two, and to within an ulp or two otherwise.  A draw that
    # leaves the double range is reported below rather than warned about.
    with np.errstate(divide="ignore", over="ignore"):
        for (a, q), stream in reversed(list(zip(gammas, streams))):
            values = _gamma_power(a, q, n, stream) * values
    try:
        return SampleSet(values)
    except ParameterError as exc:
        shapes = ", ".join(f"{a:g}" for a, _ in gammas)
        raise NumericOverflowError(
            f"{model!r}: a draw is not representable as a positive finite "
            f"double (gamma shapes {shapes})"
        ) from exc


def sample_product(
    speckle: ClutterModel, texture: ClutterModel, n: int, rng: RngState
) -> SampleSet:
    """Draw x_i = u_i * z_i with u ~ speckle and z ~ texture on independent
    sub-streams of rng."""
    u = sample(speckle, n, rng.child(1))
    z = sample(texture, n, rng.child(2))
    return SampleSet(u.values * z.values)


# ---------------------------------------------------------------------------
# Texture log-cumulant experiment: sweep the texture shape M, simulate the
# gamma-speckle x gamma-texture product, and compare empirical data
# log-moments and texture log-cumulants against the closed forms.


def default_m_grid() -> Tuple[float, ...]:
    """13 log-spaced points on [0.25, 16] (ratio sqrt(2)); contains 0.25,
    0.5, 1, 2, 4, 8 and 16 exactly, spanning the spiky (M < 1) regime through
    the near-Gaussian large-M regime."""
    return tuple(0.25 * 2.0 ** (i / 2.0) for i in range(13))


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


FIG1_COLUMNS = (
    "M",
    "m2_data_theory",
    "m2_data_est",
    "m4_data_theory",
    "m4_data_est",
    "k2_texture_theory",
    "k2_texture_est",
    "k4_texture_theory",
    "k4_texture_est",
)


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


@dataclass(frozen=True)
class Fig1Table:
    """One row per grid point, in grid order."""

    rows: Tuple[Fig1Row, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(FIG1_COLUMNS) + "\n")
        for row in self.rows:
            out.write(
                ",".join(repr(getattr(row, name)) for name in FIG1_COLUMNS) + "\n"
            )
        return out.getvalue()

    def to_json(self) -> str:
        records = [
            {name: getattr(row, name) for name in FIG1_COLUMNS}
            for row in self.rows
        ]
        return json.dumps(records, indent=2)


def _point_rng(config: Fig1Config, index: int) -> RngState:
    # one stream per grid point makes results independent of evaluation order
    # (and of any parallelism across grid points); the product's children
    # 2*index + 1 and 2*index + 2 never collide between points or seeds
    return RngState(seed=config.seed, stream=index)


def figure1_point_samples(config: Fig1Config, index: int) -> SampleSet:
    """Samples of the speckle-texture product for one grid point."""
    if not 0 <= index < len(config.M_grid):
        raise ParameterError(f"index {index} outside grid of {len(config.M_grid)}")
    speckle = Gamma(L=config.L, mu=1.0)
    texture = Gamma(L=config.M_grid[index], mu=config.mu)
    return sample_product(
        speckle, texture, config.samples_per_point, _point_rng(config, index)
    )


def figure1_experiment(config: Fig1Config = Fig1Config()) -> Fig1Table:
    """Run the texture log-cumulant sweep.

    Per grid point: empirical second and fourth data log-moments against the
    closed forms, and texture log-cumulants estimated by subtracting the
    speckle's closed-form cumulants against psi'(M) and psi'''(M).
    """
    speckle = Gamma(L=config.L, mu=1.0)
    rows = []
    for index, M in enumerate(config.M_grid):
        try:
            samples = figure1_point_samples(config, index)
            compound = GammaGamma(L=config.L, M=M, mu=config.mu)
            theory_moments = convert(log_cumulants(compound, 4), KIND_LOG_MOMENTS)
            est_moments = empirical_log_moments(samples, 4)
            est_texture = estimate.texture_log_cumulants(
                empirical_log_cumulants(samples, 4), speckle, 4
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
