"""Properties of everything derived from the Mellin factor table, checked over
each family's parameter domain: strips, Phi/Psi at and near the strip edges,
closed-form log-cumulants against the differentiation oracle, and the
sampler's log-cumulants against the closed forms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clutterstats as cs
from clutterstats.verify import _CUMULANT_FLOORS

INF = math.inf


def models(family, shape_lo, shape_hi, scale_lo=0.1, scale_hi=10.0):
    """Strategy for valid models of one family; shapes and scales are drawn
    from the given ranges, so most values are not dyadic."""
    shape = st.floats(shape_lo, shape_hi)
    scale = st.floats(scale_lo, scale_hi)
    return {
        "exponential": st.builds(cs.Exponential, mu=scale),
        "gamma": st.builds(cs.Gamma, L=shape, mu=scale),
        "nakagami": st.builds(cs.Nakagami, L=shape, mu=scale),
        "maxwell": st.builds(cs.Maxwell, sigma=scale),
        "weibull": st.builds(cs.Weibull, b=shape, z=scale),
        "rayleigh": st.builds(cs.Rayleigh, z=scale),
        "gamma_gamma": st.builds(cs.GammaGamma, L=shape, M=shape, mu=scale),
        "k_amplitude": st.builds(cs.KAmplitude, alpha=shape, b=scale, mu=scale),
        "weibull_nakagami": st.builds(
            cs.WeibullNakagami, c=shape, alpha=shape, b=scale, sigma=scale
        ),
        "fisher": st.builds(cs.Fisher, L=shape, M=shape, mu=scale),
        "inverse_gamma": st.builds(cs.InverseGamma, M=shape, mu=scale),
    }[family]


TEXTBOOK_STRIPS = {
    "exponential": lambda m: (0.0, INF),
    "gamma": lambda m: (1.0 - m.L, INF),
    "nakagami": lambda m: (1.0 - 2.0 * m.L, INF),
    "maxwell": lambda m: (-2.0, INF),
    "weibull": lambda m: (1.0 - m.b, INF),
    "rayleigh": lambda m: (-1.0, INF),
    "gamma_gamma": lambda m: (1.0 - min(m.L, m.M), INF),
    "k_amplitude": lambda m: (max(-1.0, 1.0 - 2.0 * m.alpha), INF),
    "weibull_nakagami": lambda m: (max(1.0 - m.c, 1.0 - 2.0 * m.alpha), INF),
    "fisher": lambda m: (1.0 - m.L, m.M + 1.0),
    "inverse_gamma": lambda m: (-INF, m.M + 1.0),
}

FAMILIES = sorted(TEXTBOOK_STRIPS)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60)
@given(data=st.data())
def test_strip_matches_textbook(family, data):
    model = data.draw(models(family, 1e-3, 1e3, 1e-3, 1e3))
    strip = cs.analyticity_strip(model)
    assert (strip.lower, strip.upper) == TEXTBOOK_STRIPS[family](model)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40)
@given(data=st.data())
def test_normalization_exact(family, data):
    model = data.draw(models(family, 1e-2, 1e2, 1e-2, 1e2))
    assert cs.phi(model, 1.0) == 1.0
    assert cs.psi(model, 1.0) == 0.0


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30)
@given(data=st.data())
def test_phi_at_strip_edges(family, data):
    model = data.draw(models(family, 0.05, 20.0))
    strip = cs.analyticity_strip(model)
    for edge, inward in ((strip.lower, 1.0), (strip.upper, -1.0)):
        if math.isinf(edge):
            continue
        step = 1e-6 * max(1.0, abs(edge))
        inside = cs.phi(model, edge + inward * step)
        assert math.isfinite(inside) and inside > 0.0
        assert math.isfinite(cs.psi(model, edge + inward * step))
        with pytest.raises(cs.StripError):
            cs.phi(model, edge - inward * step)
        with pytest.raises(cs.StripError):
            cs.psi(model, edge - inward * step)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25)
@given(data=st.data())
def test_log_cumulants_match_numeric_oracle(family, data):
    model = data.draw(models(family, 0.5, 20.0))
    closed = cs.log_cumulants(model, 4)
    numeric = cs.log_cumulants_numeric(model, 4)
    for order in range(1, 5):
        error = abs(closed.order(order) - numeric.order(order))
        assert error <= _CUMULANT_FLOORS[order], f"order {order}"


@settings(max_examples=60)
@given(
    L=st.floats(0.05, 50.0), M=st.floats(0.05, 50.0), mu=st.floats(0.1, 10.0)
)
def test_gamma_gamma_swap_bit_identical(L, M, mu):
    a, b = cs.GammaGamma(L, M, mu), cs.GammaGamma(M, L, mu)
    assert cs.log_cumulants(a, 6) == cs.log_cumulants(b, 6)
    for s in (0.75, 1.5, 2.5):
        if cs.analyticity_strip(a).contains(s):
            assert cs.phi(a, s) == cs.phi(b, s)
            assert cs.psi(a, s) == cs.psi(b, s)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=6)
@given(data=st.data())
def test_sampler_log_cumulants_match_closed_form(family, data):
    model = data.draw(models(family, 0.2, 20.0))
    seed = data.draw(st.integers(0, 2**32 - 1))
    samples = cs.sample(model, 50_000, cs.RngState(seed))
    empirical = cs.empirical_log_cumulants(samples, 2)
    errors = cs.log_cumulant_standard_errors(samples, 2, batches=50)
    closed = cs.log_cumulants(model, 2)
    for i in range(2):
        assert abs(empirical.values[i] - closed.values[i]) <= 5.0 * errors[i]
