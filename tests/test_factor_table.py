"""Properties of everything derived from the Mellin factor table, checked over
each family's parameter domain: strips, Phi/Psi at and near the strip edges,
closed-form log-cumulants against the Cauchy-integral oracle, the sampler's
log-cumulants against the closed forms, and each compound's density against
the Mellin convolution of the components it declares."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clutterstats as cs
from clutterstats import mellin
from clutterstats.specfun import polygamma
from clutterstats.verify import _QUAD_TOL, _convolution

from conftest import cumulant_scale

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


def _value_or_strip_error(fn, model, s):
    try:
        value = fn(model, s)
    except cs.StripError:
        return
    assert math.isfinite(value)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40)
@given(data=st.data())
def test_phi_one_ulp_inside_strip_edges(family, data):
    # one ulp inside an edge, a + (s-1)/q can round onto the pole itself
    model = data.draw(models(family, 0.05, 20.0))
    strip = cs.analyticity_strip(model)
    for edge in (strip.lower, strip.upper):
        if math.isinf(edge):
            continue
        s = math.nextafter(edge, 1.0)
        _value_or_strip_error(cs.phi, model, s)
        _value_or_strip_error(cs.psi, model, s)


def test_phi_at_rounded_pole_raises_strip_error():
    model = cs.Gamma(L=8.460103081643798, mu=9.593548815332065)
    s = math.nextafter(1.0 - model.L, 1.0)
    with pytest.raises(cs.StripError):
        cs.phi(model, s)
    with pytest.raises(cs.StripError):
        cs.psi(model, s)


LOG_UNIFORM = st.floats(math.log(1e-8), math.log(1e8)).map(math.exp)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=60)
@given(data=st.data())
def test_log_cumulants_match_numeric_oracle(family, data):
    # every parameter log-uniform over 16 decades, so shapes reach both the
    # poles' neighbourhood and the cancelling large-shape regime
    cls = cs.FAMILIES[family]
    fields = {f.name: LOG_UNIFORM for f in dataclasses.fields(cls)}
    model = data.draw(st.builds(cls, **fields))
    closed = cs.log_cumulants(model, 6)
    numeric = cs.log_cumulants_numeric(model, 6)
    for n in range(1, 7):
        error = abs(closed.order(n) - numeric.order(n))
        assert error <= 1e-12 * cumulant_scale(model, n), f"order {n}"


def _log_uniform_model(data, family):
    cls = cs.FAMILIES[family]
    fields = {f.name: LOG_UNIFORM for f in dataclasses.fields(cls)}
    return data.draw(st.builds(cls, **fields))


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except cs.ClutterStatsError as exc:
        return type(exc)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=40)
@given(data=st.data())
def test_log_cumulants_match_scalar_polygamma(family, data):
    # the one zeta call gives, bit for bit, what a scalar polygamma per
    # order and factor gives, summed in the same (sorted) order
    model = _log_uniform_model(data, family)
    powers, gammas = cs.factor_table(model)
    expected = []
    for n in range(1, 7):
        total = 0.0
        if n == 1:
            for num, den, e in powers:
                total += e * math.log(num / den)
        for a, q in sorted(gammas):
            value = polygamma(n - 1, a)
            total += value / q if n == 1 else q ** (-n) * value
        expected.append(total)
    assert cs.log_cumulants(model, 6).values == tuple(expected)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=30)
@given(data=st.data())
def test_kept_form_changes_no_value(family, data):
    # a model whose form is kept gives the values, and is the value, of the
    # same model built afresh
    model = _log_uniform_model(data, family)
    strip = cs.analyticity_strip(model)
    lo, hi = max(strip.lower, -5.0), min(strip.upper, 5.0)
    fractions = data.draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))
    points = [lo + t * (hi - lo) for t in fractions]
    cs.log_cumulants(model, 6)
    assert "_mellin_form" in vars(model)
    fresh = dataclasses.replace(model)
    assert "_mellin_form" not in vars(fresh)
    for s in points:
        for function in (cs.phi, cs.psi):
            kept = _value_or_error(function, model, s)
            assert kept == _value_or_error(function, fresh, s)
    assert model == fresh and hash(model) == hash(fresh)
    assert repr(model) == repr(fresh)
    assert cs.model_to_dict(model) == cs.model_to_dict(fresh)
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and cs.log_cumulants(copy, 6) == cs.log_cumulants(fresh, 6)


@pytest.mark.parametrize(
    "model",
    [cs.GammaGamma(L=2.0, M=3.0, mu=1.5), cs.Fisher(L=2.0, M=4.5, mu=1.0)],
    ids=repr,
)
def test_form_is_built_once(model, monkeypatch):
    builds, decompositions = [], []
    build, decompose = mellin._build_form, mellin.decompose

    def counted_build(m):
        builds.append(m)
        return build(m)

    def counted_decompose(m):
        decompositions.append(m)
        return decompose(m)

    monkeypatch.setattr(mellin, "_build_form", counted_build)
    monkeypatch.setattr(mellin, "decompose", counted_decompose)
    model = dataclasses.replace(model)  # nothing kept from other tests
    for s in (0.5, 1.0, 1.5, 2.5):
        cs.phi(model, s)
    for s in (0.5, 1.0, 1.5, 2.5):
        cs.psi(model, s)
    for n in (1, 2, 3):
        cs.classical_moment(model, n)
    cs.log_moments(model, 4)
    cs.log_cumulants(model, 6)
    assert builds.count(model) == 1
    assert decompositions == [model]


def test_factor_table_returns_fresh_lists():
    model = cs.Fisher(L=2.0, M=3.0, mu=1.5)
    before = cs.phi(model, 1.5), cs.factor_table(model)
    powers, gammas = cs.factor_table(model)
    powers.clear()
    gammas[0] = (9.0, 1.0)
    gammas.append((0.5, -1.0))
    assert (cs.phi(model, 1.5), cs.factor_table(model)) == before


def _check_phi_against_quadrature(family, data, shape_hi=1000.0):
    model = data.draw(models(family, 0.05, shape_hi))
    strip = cs.analyticity_strip(model)
    lo, hi = max(strip.lower, -3.0), min(strip.upper, 5.0)
    margin = min(0.1, (hi - lo) / 4.0)
    s = lo + margin + data.draw(st.floats(0.0, 1.0)) * (hi - lo - 2.0 * margin)
    closed = cs.phi(model, s)
    try:
        numeric = cs.phi_numeric(model, s, _QUAD_TOL)
    except cs.NonConvergenceError:
        # the boundary: where Fisher's strip is under 0.2 wide, s lies within
        # 0.1 of an edge, and a tail of x^(s-1) f(x) then falls by less than
        # the quadrature's 60 before x leaves the doubles
        assert family == "fisher" and model.L + model.M < 0.2
        return
    assert abs(closed - numeric) / closed <= 1e-10


@pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"weibull_nakagami"}))
@settings(max_examples=30)
@given(data=st.data())
def test_phi_matches_quadrature(family, data):
    _check_phi_against_quadrature(family, data)


@settings(max_examples=30)
@given(data=st.data())
def test_phi_matches_quadrature_weibull_nakagami(data):
    # apart from the other families: the density is itself a quadrature
    _check_phi_against_quadrature("weibull_nakagami", data, 1000.0)


def test_phi_quadrature_weibull_nakagami_between_probes():
    # shapes of hundreds: ln x lies within 0.6 of 3.4, between the probes at
    # ln x = 2 and 4, where the density is below e^-745.  The density's peak
    # integral must give -inf in the far tails, where its terms overflow,
    # not fail, and the quadrature must look between its probes
    model = cs.WeibullNakagami(
        c=747.277871426309,
        alpha=706.6897750171661,
        b=7.634550032546566,
        sigma=9.737845867342532,
    )
    s = -1.834566699069501
    closed = cs.phi(model, s)
    assert abs(cs.phi_numeric(model, s, _QUAD_TOL) - closed) <= 1e-10 * closed


@pytest.mark.parametrize(
    "model, s",
    [
        (cs.Weibull(b=237.2379219113694, z=7.879517240031746), 2.0353000996415087),
        (
            cs.InverseGamma(M=130.25006101046935, mu=0.3038815200788172),
            -0.942838011590962,
        ),
        (cs.Nakagami(L=774.832358437589, mu=0.14464137983440167), 3.199),
    ],
)
def test_phi_quadrature_of_narrow_densities(model, s):
    # the integrand's peak spans under 1e-2 of ln x; quadrature on a map of
    # (0, inf) onto (0, 1) never sampled it and returned 1e-14 of Phi
    closed = cs.phi(model, s)
    assert abs(cs.phi_numeric(model, s, _QUAD_TOL) - closed) <= 1e-12 * closed


@pytest.mark.parametrize("log_mu", [-640.0, 640.0])
def test_phi_quadrature_near_the_doubles_end(log_mu):
    # the peak lies between the climb's last doubling step and the end of
    # the doubles, so the climb must look inside that step; quadrature on the
    # (0, 1) map returned 0
    model = cs.Exponential(mu=math.exp(log_mu))
    assert abs(cs.phi_numeric(model, 1.0, _QUAD_TOL) - 1.0) <= 1e-12


COMPOUNDS = ("gamma_gamma", "k_amplitude", "weibull_nakagami", "fisher")


def _check_density_is_convolution(model, z):
    # x lies z log-standard-deviations from the log-mean; the logs are
    # compared, so densities far below the doubles are checked too
    k1, k2 = cs.log_cumulants(model, 2).values
    x = math.exp(k1 + z * math.sqrt(k2))
    log_density = cs.log_pdf(model, x)
    log_convolution = _convolution(cs.decompose(model), x)
    if log_density == -math.inf:
        # the Weibull-Nakagami log-density is -inf below e^-745
        assert log_convolution < -745.0
    else:
        # 1e-8 of the density, and rounding of logs that reach 1e7 far out
        assert abs(log_convolution - log_density) <= 1e-8 + 1e-14 * abs(log_density)


@pytest.mark.parametrize("family", COMPOUNDS)
@settings(max_examples=30)
@given(data=st.data())
def test_density_is_convolution_of_components(family, data):
    model = data.draw(models(family, 0.1, 1000.0))
    _check_density_is_convolution(model, data.draw(st.floats(-4.0, 4.0)))


@settings(max_examples=30)
@given(
    L=st.floats(0.5, 20.0),
    M=st.floats(20.0, 1000.0),
    mu=st.floats(0.1, 10.0),
    z=st.floats(-2.0, 2.0),
)
def test_gamma_gamma_density_far_apart_shapes(L, M, mu, z):
    # K_(M-L) overflows a double in the bulk for about one model in four
    _check_density_is_convolution(cs.GammaGamma(L, M, mu), z)


@settings(max_examples=60)
@given(
    L=st.floats(0.05, 50.0), M=st.floats(0.05, 50.0), mu=st.floats(0.1, 10.0)
)
def test_gamma_gamma_swap_bit_identical(L, M, mu):
    a, b = cs.GammaGamma(L, M, mu), cs.GammaGamma(M, L, mu)
    assert cs.log_cumulants(a, 6) == cs.log_cumulants(b, 6)
    assert cs.log_cumulants_numeric(a, 6) == cs.log_cumulants_numeric(b, 6)
    assert cs.log_moments(a, 4) == cs.log_moments(b, 4)
    for n in (1, 2, 3):
        assert cs.classical_moment(a, n) == cs.classical_moment(b, n)
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
