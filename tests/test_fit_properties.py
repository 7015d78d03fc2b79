"""fit_molc inverts the closed-form log-cumulants, checked over each fittable
family's parameter domain: the cumulants k1..k4 of a model fit back to that
model, and a k2 at or below the family's floor raises
InfeasibleCumulantsError."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clutterstats as cs
from clutterstats.specfun import polygamma

SCALES = st.floats(0.1, 10.0)
# Below these shapes k2 grows like 1/shape^2, and the 1e-8 absolute residual
# that `converged` asks for falls under what a 1e-10 relative trigamma
# inversion leaves (see CHANGES.md).
ONE_SHAPE = st.floats(0.1, 1000.0)
TWO_SHAPES = st.floats(0.2, 50.0)

# k_amplitude's mu and weibull_nakagami's b are pinned at 1 by the fit.
MODELS = {
    "exponential": st.builds(cs.Exponential, mu=SCALES),
    "gamma": st.builds(cs.Gamma, L=ONE_SHAPE, mu=SCALES),
    "nakagami": st.builds(cs.Nakagami, L=ONE_SHAPE, mu=SCALES),
    "maxwell": st.builds(cs.Maxwell, sigma=SCALES),
    "weibull": st.builds(cs.Weibull, b=st.floats(0.1, 50.0), z=SCALES),
    "rayleigh": st.builds(cs.Rayleigh, z=SCALES),
    "gamma_gamma": st.builds(cs.GammaGamma, L=TWO_SHAPES, M=TWO_SHAPES, mu=SCALES),
    "k_amplitude": st.builds(
        cs.KAmplitude, alpha=ONE_SHAPE, b=SCALES, mu=st.just(1.0)
    ),
    "weibull_nakagami": st.builds(
        cs.WeibullNakagami,
        c=st.floats(0.2, 20.0),
        alpha=TWO_SHAPES,
        b=st.just(1.0),
        sigma=SCALES,
    ),
    "fisher": st.builds(cs.Fisher, L=TWO_SHAPES, M=TWO_SHAPES, mu=SCALES),
}

# The part of k2 no choice of shapes can remove: psi'(1)/4 from the K
# model's Rayleigh speckle, 0 elsewhere.  Families fitted from k1 alone
# (exponential, Maxwell, Rayleigh) do not read k2.
K2_FLOORS = {
    "gamma": 0.0,
    "nakagami": 0.0,
    "weibull": 0.0,
    "gamma_gamma": 0.0,
    "k_amplitude": polygamma(1, 1.0) / 4.0,
    "weibull_nakagami": 0.0,
    "fisher": 0.0,
}


@pytest.mark.parametrize("family", sorted(MODELS))
@settings(max_examples=40)
@given(data=st.data())
def test_fit_recovers_model(family, data):
    model = data.draw(MODELS[family])
    expected = dataclasses.asdict(model)
    if family == "gamma_gamma":
        # near L = M the shape error grows like 1e-10 / |ln(M/L)| (CHANGES.md)
        L, M = model.L, model.M
        assume(L == M or abs(math.log(M / L)) >= 1e-3)
        expected["L"], expected["M"] = min(L, M), max(L, M)
    report = cs.fit_molc(family, cs.log_cumulants(model, 4))
    assert report.converged
    fitted = dataclasses.asdict(report.model)
    for name, value in expected.items():
        assert fitted[name] == pytest.approx(value, rel=1e-6), name


@pytest.mark.parametrize("family", sorted(K2_FLOORS))
@settings(max_examples=30)
@given(
    k1=st.floats(-5.0, 5.0),
    below=st.floats(0.0, 10.0),
    k3=st.floats(-10.0, 10.0),
    k4=st.floats(-10.0, 10.0),
)
def test_k2_at_or_below_floor_is_infeasible(family, k1, below, k3, k4):
    k2 = K2_FLOORS[family] - below
    stats = cs.LogStats("log_cumulants", "standard", (k1, k2, k3, k4))
    with pytest.raises(cs.InfeasibleCumulantsError):
        cs.fit_molc(family, stats)
