"""Shared parameter grids and the hypothesis profile for the test suite."""

import math

from hypothesis import settings

import clutterstats as cs
from clutterstats.specfun import polygamma

# Property tests draw the same examples on every run, so the suite cannot
# flake; each test bounds its own max_examples.
settings.register_profile(
    "clutterstats", derandomize=True, deadline=None, database=None
)
settings.load_profile("clutterstats")

# Shapes cover the spiky sub-unity regime through many-look smoothness;
# scales cover sub-unit through few-times-unit.
PARAM_GRID = {
    "exponential": [cs.Exponential(mu) for mu in (0.5, 1.0, 3.0)],
    "gamma": [
        cs.Gamma(L, mu) for L in (0.5, 1.0, 2.0, 4.7) for mu in (0.5, 1.0, 3.0)
    ],
    "nakagami": [
        cs.Nakagami(L, mu) for L in (0.5, 1.0, 2.0, 4.7) for mu in (1.0, 3.0)
    ],
    "maxwell": [cs.Maxwell(sigma) for sigma in (0.5, 1.0, 3.0)],
    "weibull": [
        cs.Weibull(b, z) for b in (0.5, 1.0, 2.0, 4.7) for z in (0.5, 3.0)
    ],
    "rayleigh": [cs.Rayleigh(z) for z in (0.5, 1.0, 3.0)],
    "gamma_gamma": [
        cs.GammaGamma(L, M, mu)
        for (L, M) in ((0.5, 1.0), (1.0, 1.0), (2.0, 3.0), (4.7, 2.0))
        for mu in (1.0, 3.0)
    ],
    "k_amplitude": [
        cs.KAmplitude(alpha, b, mu)
        for (alpha, b) in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (4.7, 1.0))
        for mu in (1.0, 2.0)
    ],
    "weibull_nakagami": [
        cs.WeibullNakagami(c, alpha, b, sigma)
        for (c, alpha, b, sigma) in (
            (1.0, 1.0, 1.0, 1.0),
            (2.0, 2.0, 1.0, 3.0),
            (0.9, 2.5, 2.0, 0.5),
            (3.0, 0.7, 1.0, 2.0),
        )
    ],
    "fisher": [
        cs.Fisher(L, M, mu)
        for (L, M) in ((1.0, 2.0), (2.0, 3.0), (4.7, 1.5), (0.5, 4.0))
        for mu in (1.0, 3.0)
    ],
}

ALL_MODELS = [model for group in PARAM_GRID.values() for model in group]

# s points that the transform checks probe, filtered per-model to the strip
S_POINTS = (0.5, 1.5, 2.0, 3.0, 3.9)


def strip_interior_points(model, points=S_POINTS, margin_low=0.05, margin_high=0.1):
    strip = cs.analyticity_strip(model)
    return [
        s
        for s in points
        if strip.lower + margin_low < s < strip.upper - margin_high
    ]


def cumulant_scale(model, n):
    """Size of the terms that make up k_n, the scale against which the
    log-cumulant oracle's error is measured: max(1, sum over gamma factors of
    |psi^(n-1)(a) / q^n|), adding the power terms' |e ln(num/den)| at n = 1."""
    powers, gammas = cs.factor_table(model)
    terms = [polygamma(n - 1, a) / q**n for a, q in gammas]
    if n == 1:
        terms += [e * math.log(num / den) for num, den, e in powers]
    return max(1.0, sum(abs(term) for term in terms))
