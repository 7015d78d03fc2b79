"""Transforms, strips, moments, log-cumulants and the conversion rules."""

import functools
import math
import re

import mpmath
import pytest

import clutterstats as cs
from clutterstats.specfun import Tolerance, polygamma

from conftest import ALL_MODELS, cumulant_scale, strip_interior_points

QUAD_TOL = Tolerance(rel_tol=1e-9, max_subdivisions=400)

COMPOUNDS = [
    cs.GammaGamma(L=2.0, M=3.0, mu=1.5),
    cs.GammaGamma(L=0.5, M=1.0, mu=1.0),
    cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0),
    cs.KAmplitude(alpha=0.5, b=2.0, mu=2.0),
    cs.WeibullNakagami(c=2.0, alpha=1.5, b=1.0, sigma=1.0),
    cs.WeibullNakagami(c=0.9, alpha=2.5, b=2.0, sigma=0.5),
    cs.Fisher(L=2.0, M=3.0, mu=1.0),
    cs.Fisher(L=0.5, M=4.0, mu=3.0),
]


class TestAnalyticityStrip:
    def test_gamma(self):
        strip = cs.analyticity_strip(cs.Gamma(L=2.0, mu=1.0))
        assert (strip.lower, strip.upper) == (-1.0, math.inf)

    def test_fisher_two_sided(self):
        strip = cs.analyticity_strip(cs.Fisher(L=2.0, M=3.0, mu=1.0))
        assert (strip.lower, strip.upper) == (-1.0, 4.0)

    def test_weibull(self):
        strip = cs.analyticity_strip(cs.Weibull(b=2.0, z=1.0))
        assert (strip.lower, strip.upper) == (-1.0, math.inf)

    def test_others(self):
        assert cs.analyticity_strip(cs.Maxwell(1.0)).lower == -2.0
        assert cs.analyticity_strip(cs.Nakagami(0.5, 1.0)).lower == 0.0
        assert cs.analyticity_strip(cs.KAmplitude(2.0, 1.0)).lower == -1.0
        assert cs.analyticity_strip(cs.KAmplitude(0.25, 1.0)).lower == 0.5
        strip = cs.analyticity_strip(cs.WeibullNakagami(0.5, 2.0, 1.0, 1.0))
        assert strip.lower == 0.5

    def test_always_contains_one(self):
        for model in ALL_MODELS:
            strip = cs.analyticity_strip(model)
            assert strip.lower < 1.0 < strip.upper


# Valid models whose strip edge 1 - a*q rounds onto 1 in doubles: a*q is
# 1e-300 (Gamma's L, Weibull's 1/q = b) or 1e-200 (both gamma-gamma shapes)
EDGE_ON_ONE = [
    cs.Gamma(L=1e-300, mu=1.0),
    cs.Weibull(b=1e-300, z=1.0),
    cs.GammaGamma(L=1e-200, M=1e-200, mu=1.0),
]


class TestStripEdgeOnOne:
    @pytest.mark.parametrize("model", EDGE_ON_ONE, ids=repr)
    def test_normalization_exact(self, model):
        # s - 1 = 0 lies above the exact edge -a*q; at d = 0 even
        # gamma-gamma's merged scale 1/(L M) = 1e400, beyond the doubles,
        # drops out
        assert cs.phi(model, 1.0) == 1.0
        assert cs.psi(model, 1.0) == 0.0

    @pytest.mark.parametrize("model", EDGE_ON_ONE, ids=repr)
    def test_strip_is_a_typed_error(self, model):
        with pytest.raises(cs.NumericOverflowError, match="within rounding of s=1"):
            cs.analyticity_strip(model)
        # the largest double below 1 lies below the edge 1 - a*q
        for function in (cs.phi, cs.psi):
            with pytest.raises(cs.StripError):
                function(model, math.nextafter(1.0, 0.0))

    def test_gamma_values(self):
        model = EDGE_ON_ONE[0]
        assert abs(cs.classical_moment(model, 1) - 1.0) <= 2.0 * math.ulp(1.0)
        with mpmath.workdps(30):
            L = mpmath.mpf(model.L)
            expected = mpmath.gamma(L + 0.5) / (mpmath.sqrt(L) * mpmath.gamma(L))
            log_expected = float(mpmath.log(expected))
            expected = float(expected)
        assert cs.phi(model, 1.5) == pytest.approx(expected, rel=1e-14)
        assert cs.psi(model, 1.5) == pytest.approx(log_expected, rel=1e-15)

    def test_beyond_the_doubles_is_typed(self):
        # Weibull's Phi(s) = Gamma(1 + (s-1)/b) overflows for any s > 1, and
        # its ln is a double
        weibull = EDGE_ON_ONE[1]
        with mpmath.workdps(30):
            b = mpmath.mpf(weibull.b)
            expected = float(mpmath.loggamma(1 + mpmath.mpf(0.5) / b))
        assert cs.psi(weibull, 1.5) == pytest.approx(expected, rel=1e-15)
        for function, arg in ((cs.phi, 1.5), (cs.classical_moment, 1)):
            with pytest.raises(cs.NumericOverflowError):
                function(weibull, arg)

    def test_gamma_gamma_values(self):
        # the merged scale mu / (L M) = 1e400 is beyond the doubles and its
        # log is not: Phi(1.5) = pi 1e-200, and m1 = mu
        model = EDGE_ON_ONE[2]
        with mpmath.workdps(50):
            L, M, mu = (mpmath.mpf(v) for v in (model.L, model.M, model.mu))
            expected = mpmath.sqrt(mu / (L * M)) * mpmath.gamma(L + 0.5)
            expected *= mpmath.gamma(M + 0.5) / (mpmath.gamma(L) * mpmath.gamma(M))
            log_expected = float(mpmath.log(expected))
            expected = float(expected)
        assert expected == pytest.approx(math.pi * 1e-200, rel=1e-15)
        assert cs.phi(model, 1.5) == pytest.approx(expected, rel=1e-13)
        assert cs.psi(model, 1.5) == pytest.approx(log_expected, rel=1e-15)
        assert cs.classical_moment(model, 1) == pytest.approx(1.0, rel=1e-15)


class TestPhi:
    def test_normalization_exact(self):
        for model in ALL_MODELS:
            assert cs.phi(model, 1.0) == pytest.approx(1.0, abs=1e-12)
            assert cs.psi(model, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_mean(self):
        assert cs.phi(cs.Gamma(L=2.0, mu=3.0), 2.0) == pytest.approx(3.0, rel=1e-14)

    def test_weibull_example(self):
        # z^2 Gamma(2) at s = 3
        closed = cs.phi(cs.Weibull(b=2.0, z=1.5), 3.0)
        assert closed == pytest.approx(2.25, rel=1e-12)
        numeric = cs.phi_numeric(cs.Weibull(b=2.0, z=1.5), 3.0, QUAD_TOL)
        assert numeric == pytest.approx(2.25, rel=1e-7)

    def test_fisher_example(self):
        closed = cs.phi(cs.Fisher(L=2.0, M=3.0, mu=1.0), 2.0)
        assert closed == pytest.approx(1.5, rel=1e-12)
        numeric = cs.phi_numeric(cs.Fisher(L=2.0, M=3.0, mu=1.0), 2.0, QUAD_TOL)
        assert numeric == pytest.approx(1.5, rel=1e-7)

    def test_small_panel_budgets(self):
        # the panel budget bounds the panels only, not the walk: Gamma(0.5)'s
        # g falls 60 only about 8 doublings out on its left, and 20 panels
        # meet the default rel_tol there
        model = cs.Gamma(L=0.5, mu=3.0)
        assert cs.phi_numeric(model, 1.0, Tolerance(max_subdivisions=20)) == pytest.approx(
            1.0, rel=1e-12
        )
        # 3 panels: the first round of the narrow Gamma(50) meets the budget,
        # and Gamma(0.5)'s does not, which is a typed error
        narrow = cs.Gamma(L=50.0, mu=1.0)
        assert cs.phi_numeric(narrow, 1.0, Tolerance(max_subdivisions=3)) == pytest.approx(
            1.0, rel=1e-12
        )
        with pytest.raises(cs.NonConvergenceError, match="after 3 panels"):
            cs.phi_numeric(model, 1.0, Tolerance(max_subdivisions=3))

    def test_strip_violation(self):
        with pytest.raises(cs.StripError):
            cs.phi(cs.Gamma(L=0.5, mu=1.0), 0.3)
        with pytest.raises(cs.StripError):
            cs.phi(cs.Fisher(L=2.0, M=3.0, mu=1.0), 4.5)
        with pytest.raises(cs.StripError):
            cs.psi(cs.Maxwell(1.0), -2.0)

    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS]
    )
    def test_closed_form_vs_quadrature(self, model):
        points = strip_interior_points(model)
        assert points, f"no interior probe points for {model!r}"
        for s in points:
            closed = cs.phi(model, s)
            numeric = cs.phi_numeric(model, s, QUAD_TOL)
            assert numeric == pytest.approx(closed, rel=1e-6), f"s={s}"


class TestPsi:
    def test_log_of_phi(self):
        model = cs.GammaGamma(L=1.0, M=1.0, mu=1.0)
        assert cs.psi(model, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_gamma_log_two(self):
        assert cs.psi(cs.Gamma(L=1.0, mu=1.0), 3.0) == pytest.approx(
            math.log(2.0), rel=1e-13
        )

    def test_consistent_with_phi(self):
        for model in (cs.Weibull(2.5, 1.5), cs.Fisher(2.0, 3.0, 1.0)):
            for s in strip_interior_points(model):
                assert math.exp(cs.psi(model, s)) == pytest.approx(
                    cs.phi(model, s), rel=1e-12
                )


class TestClassicalMoments:
    def test_exponential_factorial(self):
        assert cs.classical_moment(cs.Exponential(mu=2.0), 3) == 48.0
        for n in (1, 2, 3, 4, 5):
            assert cs.classical_moment(cs.Exponential(mu=1.3), n) == (
                1.3**n * math.factorial(n)
            )

    def test_rayleigh_second_moment_exact(self):
        assert cs.classical_moment(cs.Rayleigh(z=2.0), 2) == 4.0

    def test_maxwell_second_moment(self):
        closed = cs.classical_moment(cs.Maxwell(sigma=1.0), 2)
        assert closed == pytest.approx(3.0, rel=1e-12)
        numeric = cs.phi_numeric(cs.Maxwell(sigma=1.0), 3.0, QUAD_TOL)
        assert numeric == pytest.approx(3.0, abs=1e-6)

    def test_fisher_divergence(self):
        with pytest.raises(cs.MomentDivergesError, match="moment diverges"):
            cs.classical_moment(cs.Fisher(L=2.0, M=1.5, mu=1.0), 2)

    def test_fisher_existing_moment(self):
        # m_1 = M mu / (M - 1) for M > 1
        value = cs.classical_moment(cs.Fisher(L=2.0, M=3.0, mu=1.0), 1)
        assert value == pytest.approx(1.5, rel=1e-12)

    def test_mean_parameter_families(self):
        assert cs.classical_moment(cs.Gamma(L=3.3, mu=2.2), 1) == pytest.approx(
            2.2, abs=1e-10
        )
        assert cs.classical_moment(
            cs.GammaGamma(L=2.0, M=4.7, mu=0.7), 1
        ) == pytest.approx(0.7, abs=1e-10)

    def test_bad_order(self):
        with pytest.raises(cs.ParameterError):
            cs.classical_moment(cs.Gamma(2.0, 1.0), 0)
        with pytest.raises(cs.ParameterError):
            cs.classical_moment(cs.Gamma(2.0, 1.0), 1.5)


class TestLogCumulants:
    def test_exponential_first(self):
        k = cs.log_cumulants(cs.Gamma(L=1.0, mu=1.0), 1)
        assert k.values[0] == pytest.approx(-0.577215, abs=1e-6)

    def test_nakagami_second(self):
        k = cs.log_cumulants(cs.Nakagami(L=2.0, mu=1.0), 2)
        assert k.values[1] == pytest.approx(0.25 * polygamma(1, 2.0), rel=1e-14)
        assert k.values[1] == pytest.approx(0.1612335, abs=1e-7)

    def test_gamma_gamma_second(self):
        k = cs.log_cumulants(cs.GammaGamma(L=1.0, M=1.0, mu=1.0), 2)
        assert k.values[1] == pytest.approx(2.0 * polygamma(1, 1.0), rel=1e-14)
        assert k.values[1] == pytest.approx(3.2898681, abs=1e-7)

    def test_k_amplitude_second(self):
        # derivative of the printed transform keeps the Rayleigh-speckle term:
        # k2 = (psi'(1) + psi'(alpha)) / 4, not the speckle-free printed line
        k = cs.log_cumulants(cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0), 2)
        expected = 0.25 * (polygamma(1, 1.0) + polygamma(1, 2.0))
        assert k.values[1] == pytest.approx(expected, rel=1e-14)
        assert k.values[1] == pytest.approx(0.5724670, abs=1e-6)
        printed_line_value = 0.25 * polygamma(1, 2.0)  # 0.1612...
        assert abs(k.values[1] - printed_line_value) > 0.4

    def test_fisher_first(self):
        # derivative of the transform has -psi(M), not +psi(M)
        k = cs.log_cumulants(cs.Fisher(L=2.0, M=3.0, mu=1.0), 1)
        expected = math.log(1.5) + polygamma(0, 2.0) - polygamma(0, 3.0)
        assert k.values[0] == pytest.approx(expected, rel=1e-13)

    def test_weibull_second(self):
        k = cs.log_cumulants(cs.Weibull(b=2.0, z=1.0), 2)
        assert k.values[1] == pytest.approx(polygamma(1, 1.0) / 4.0, rel=1e-14)
        assert k.values[1] == pytest.approx(0.4112335, abs=1e-7)

    def test_orders_up_to_six(self):
        k = cs.log_cumulants(cs.Gamma(L=2.0, mu=1.0), 6)
        assert len(k.values) == 6
        for n in range(2, 7):
            assert k.values[n - 1] == pytest.approx(
                polygamma(n - 1, 2.0), rel=1e-14
            )
        with pytest.raises(cs.ParameterError):
            cs.log_cumulants(cs.Gamma(L=2.0, mu=1.0), 7)


class TestLogCumulantsNumeric:
    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS]
    )
    def test_matches_closed_form(self, model):
        closed = cs.log_cumulants(model, 6)
        numeric = cs.log_cumulants_numeric(model, 6)
        for n in range(1, 7):
            error = abs(closed.order(n) - numeric.order(n))
            assert error <= 1e-12 * cumulant_scale(model, n), f"order {n}"

    @pytest.mark.parametrize(
        "model",
        [
            # shapes within 0.02 of the pole at s = 1 - L, and a large shape
            # whose k4 = 1.5e-7 is tiny beside k1 = 3.6
            cs.Gamma(L=0.02, mu=1.0),
            cs.Gamma(L=0.016000000000000052, mu=1.0),
            cs.InverseGamma(M=0.016000000000000052, mu=1.0),
            cs.Nakagami(L=94.50767338062339, mu=37.06851862073373),
        ],
        ids=repr,
    )
    def test_small_and_large_shapes(self, model):
        closed = cs.log_cumulants(model, 6).values
        numeric = cs.log_cumulants_numeric(model, 6).values
        assert numeric == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_gamma_example(self):
        closed = cs.log_cumulants(cs.Gamma(L=3.0, mu=2.0), 4)
        numeric = cs.log_cumulants_numeric(cs.Gamma(L=3.0, mu=2.0), 4)
        assert abs(closed.values[0] - numeric.values[0]) <= 1e-5
        assert abs(closed.values[1] - numeric.values[1]) <= 1e-5
        assert abs(closed.values[2] - numeric.values[2]) <= 1e-3
        assert abs(closed.values[3] - numeric.values[3]) <= 1e-3

    def test_weibull_example(self):
        numeric = cs.log_cumulants_numeric(cs.Weibull(b=2.0, z=1.0), 2)
        assert numeric.values[1] == pytest.approx(0.4112335, abs=1e-5)

    def test_fisher_example(self):
        numeric = cs.log_cumulants_numeric(cs.Fisher(L=2.0, M=3.0, mu=1.0), 1)
        expected = math.log(1.5) + polygamma(0, 2.0) - polygamma(0, 3.0)
        assert numeric.values[0] == pytest.approx(expected, abs=1e-6)

    def test_narrow_strip(self):
        # strip (0.9, 1.1): each factor's circle has radius 0.05
        model = cs.Fisher(L=0.1, M=0.1, mu=1.0)
        closed = cs.log_cumulants(model, 6)
        numeric = cs.log_cumulants_numeric(model, 6)
        for n in range(1, 7):
            error = abs(closed.order(n) - numeric.order(n))
            assert error <= 1e-12 * cumulant_scale(model, n), f"order {n}"

    def test_inverse_gamma_texture_component(self):
        # the Fisher texture component supports the same oracle checks
        model = cs.InverseGamma(M=3.0, mu=2.0)
        closed = cs.log_cumulants(model, 4)
        numeric = cs.log_cumulants_numeric(model, 4)
        for order in (1, 2):
            assert abs(closed.values[order - 1] - numeric.values[order - 1]) <= 1e-5
        for order in (3, 4):
            assert abs(closed.values[order - 1] - numeric.values[order - 1]) <= 1e-3
        for s in (0.5, 2.0, 3.5):
            assert cs.phi_numeric(model, s, QUAD_TOL) == pytest.approx(
                cs.phi(model, s), rel=1e-6
            )


class TestLogMoments:
    def test_first_equals_first_cumulant(self):
        m = cs.log_moments(cs.Gamma(L=1.0, mu=1.0), 1)
        assert m.values[0] == pytest.approx(-0.577215, abs=1e-6)

    def test_gamma_second_log_moment(self):
        # oracle: quadrature of (ln x)^2 e^-x over (0, inf); u^n changes
        # sign, so the log-concave quadrature does not apply
        oracle = float(
            mpmath.quad(lambda x: mpmath.log(x) ** 2 * mpmath.exp(-x), [0, 1, mpmath.inf])
        )
        m = cs.log_moments(cs.Gamma(L=1.0, mu=1.0), 2)
        assert oracle == pytest.approx(1.9781119906559452, rel=1e-10)
        assert m.values[1] == pytest.approx(oracle, rel=1e-10)

    def test_rayleigh_first_log_moment(self):
        oracle = float(
            mpmath.quad(
                lambda r: mpmath.log(r) * 2 * r * mpmath.exp(-r * r), [0, 1, mpmath.inf]
            )
        )
        m = cs.log_moments(cs.Rayleigh(z=1.0), 1)
        assert oracle == pytest.approx(-0.2886078, abs=1e-7)
        assert m.values[0] == pytest.approx(oracle, rel=1e-9)


class TestProductAndAdditivity:
    @pytest.mark.parametrize("model", COMPOUNDS, ids=[repr(m) for m in COMPOUNDS])
    def test_transform_product(self, model):
        parts = cs.decompose(model)
        for s in strip_interior_points(model):
            whole = cs.phi(model, s)
            split = cs.phi(parts.speckle, s) * cs.phi(parts.texture, s)
            assert abs(whole - split) <= 1e-10 * whole

    @pytest.mark.parametrize("model", COMPOUNDS, ids=[repr(m) for m in COMPOUNDS])
    def test_cumulant_additivity(self, model):
        whole = cs.log_cumulants(model, 4)
        speckle = cs.log_cumulants(cs.decompose(model).speckle, 4)
        texture = cs.log_cumulants(cs.decompose(model).texture, 4)
        for i in range(4):
            total = speckle.values[i] + texture.values[i]
            assert abs(whole.values[i] - total) <= 1e-10


class TestConvert:
    def test_degenerate_distribution(self):
        k = cs.LogStats("log_cumulants", "standard", (1.0, 0.0, 0.0, 0.0))
        m = cs.convert(k, "log_moments")
        assert m.values == (1.0, 1.0, 1.0, 1.0)

    def test_gaussian_pattern_standard(self):
        m = cs.LogStats("log_moments", "standard", (0.0, 1.0, 0.0, 3.0))
        k = cs.convert(m, "log_cumulants", "standard")
        assert k.values == (0.0, 1.0, 0.0, 0.0)

    def test_gaussian_pattern_sixth_order(self):
        # a normal ln X has k = (0, 1, 0, 0, 0, 0) and m = (0, 1, 0, 3, 0, 15)
        m = cs.LogStats("log_moments", "standard", (0.0, 1.0, 0.0, 3.0, 0.0, 15.0))
        k = cs.convert(m, "log_cumulants")
        assert k.values == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert cs.convert(k, "log_moments").values == m.values

    def test_gaussian_pattern_paper(self):
        m = cs.LogStats("log_moments", "standard", (0.0, 1.0, 0.0, 3.0))
        k = cs.convert(m, "log_cumulants", "paper_eq6")
        assert k.values == (0.0, 1.0, 0.0, 3.0)

    def test_conventions_agree_below_fourth(self):
        m = cs.LogStats("log_moments", "standard", (0.3, 1.2, -0.5))
        std = cs.convert(m, "log_cumulants", "standard")
        pap = cs.convert(m, "log_cumulants", "paper_eq6")
        assert std.values == pap.values

    @pytest.mark.parametrize(
        "values",
        [
            (0.5,),
            (0.5, 2.0),
            (-0.3, 1.7, 0.4),
            (-0.3, 1.7, 0.4, 11.0),
            (2.0, 9.0, -3.5, 60.0),
        ],
    )
    def test_round_trip_standard(self, values):
        m = cs.LogStats("log_moments", "standard", values)
        k = cs.convert(m, "log_cumulants", "standard")
        back = cs.convert(k, "log_moments", "standard")
        for a, b in zip(values, back.values):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_round_trip_paper_convention(self):
        values = (-0.3, 1.7, 0.4, 11.0)
        m = cs.LogStats("log_moments", "standard", values)
        k = cs.convert(m, "log_cumulants", "paper_eq6")
        back = cs.convert(k, "log_moments", "standard")
        for a, b in zip(values, back.values):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_closed_form_matches_model_moments(self):
        model = cs.GammaGamma(L=4.0, M=2.0, mu=1.0)
        k = cs.log_cumulants(model, 4)
        m = cs.convert(k, "log_moments")
        k1 = k.values[0]
        assert m.values[1] == pytest.approx(k.values[1] + k1**2, rel=1e-12)

    def test_unsupported_order(self):
        k = cs.log_cumulants(cs.Gamma(2.0, 1.0), 6)
        assert len(cs.convert(k, "log_moments").values) == 6
        seven = cs.LogStats("log_cumulants", "standard", k.values + (0.0,))
        with pytest.raises(cs.ParameterError, match=r"max order must be in 1\.\.6, got 7"):
            cs.convert(seven, "log_moments")
        five = cs.LogStats("log_cumulants", "standard", k.values[:5])
        with pytest.raises(cs.ParameterError, match="paper_eq6 is defined for orders 1..4"):
            cs.convert(five, "log_cumulants", "paper_eq6")
        paper = cs.LogStats("log_cumulants", "paper_eq6", k.values[:5])
        with pytest.raises(cs.ParameterError, match="paper_eq6 is defined for orders 1..4"):
            cs.convert(paper, "log_moments")

    def test_bad_kind(self):
        m = cs.LogStats("log_moments", "standard", (0.0,))
        with pytest.raises(cs.ParameterError):
            cs.convert(m, "moments")


def _mp_log_moments(log_f, max_n, peak):
    """E[(ln X)^n], n = 1..max_n, as 30-digit mpmath quadratures of
    u^n f(e^u) e^u over u = ln x, split around the peak of the integrand.
    The densities below have power tails at 0, which leave under e^-60 beyond
    60 left of the peak, and tails beyond 8 right of it that fall faster."""
    with mpmath.workdps(30):
        splits = [peak + d for d in (-60, -30, -15, -8, -4, -2, -1, 0, 1, 2, 4, 8)]

        @functools.lru_cache(maxsize=None)  # every order reuses the nodes
        def density(u):
            return mpmath.exp(log_f(mpmath.exp(u)) + u)

        return [
            float(mpmath.quad(lambda u: u**n * density(u), splits))
            for n in range(1, max_n + 1)
        ]


def _mp_gamma_log_f(L, mu):
    L, mu = mpmath.mpf(L), mpmath.mpf(mu)
    return lambda x: (
        L * mpmath.log(L / mu) + (L - 1) * mpmath.log(x) - L * x / mu
        - mpmath.loggamma(L)
    )


def _mp_weibull_log_f(b, z):
    b, z = mpmath.mpf(b), mpmath.mpf(z)
    return lambda x: mpmath.log(b / z) + (b - 1) * mpmath.log(x / z) - (x / z) ** b


def _mp_gamma_gamma_log_f(L, M, mu):
    L, M, mu = mpmath.mpf(L), mpmath.mpf(M), mpmath.mpf(mu)
    return lambda x: (
        mpmath.log(2) + (L + M) / 2 * mpmath.log(L * M / mu)
        + ((L + M) / 2 - 1) * mpmath.log(x)
        + mpmath.log(mpmath.besselk(M - L, 2 * mpmath.sqrt(L * M * x / mu)))
        - mpmath.loggamma(L) - mpmath.loggamma(M)
    )


class TestSixthOrder:
    @pytest.mark.parametrize(
        "model, log_f",
        [
            (cs.Gamma(L=2.0, mu=1.0), _mp_gamma_log_f(2, 1)),
            (cs.Weibull(b=1.7, z=2.0), _mp_weibull_log_f(1.7, 2)),
            (
                cs.GammaGamma(L=2.5, M=4.25, mu=1.5),
                _mp_gamma_gamma_log_f(2.5, 4.25, 1.5),
            ),
        ],
        ids=["gamma", "weibull", "gamma_gamma"],
    )
    def test_log_moments_match_mpmath(self, model, log_f):
        values = cs.log_moments(model, 6).values
        expected = _mp_log_moments(log_f, 6, values[0])
        for n, (value, reference) in enumerate(zip(values, expected), start=1):
            scaled = abs(value - reference) / max(1.0, abs(reference))
            assert scaled <= 1e-14, f"order {n}"


SAMPLES = cs.SampleSet([0.5 + 0.01 * i for i in range(100)])
DATA_CUMULANTS = cs.log_cumulants(cs.GammaGamma(L=2.0, M=3.0, mu=1.0), 6)

# every public function that takes max_n, returning its values
WITH_MAX_N = {
    "log_cumulants": lambda n: cs.log_cumulants(cs.Gamma(2.0, 1.0), n).values,
    "log_cumulants_numeric": lambda n: cs.log_cumulants_numeric(
        cs.Gamma(2.0, 1.0), n
    ).values,
    "log_moments": lambda n: cs.log_moments(cs.Gamma(2.0, 1.0), n).values,
    "empirical_log_moments": lambda n: cs.empirical_log_moments(SAMPLES, n).values,
    "empirical_log_cumulants": lambda n: cs.empirical_log_cumulants(SAMPLES, n).values,
    "log_moment_standard_errors": lambda n: cs.log_moment_standard_errors(SAMPLES, n),
    "log_cumulant_standard_errors": lambda n: cs.log_cumulant_standard_errors(
        SAMPLES, n
    ),
    "texture_log_cumulants": lambda n: cs.texture_log_cumulants(
        DATA_CUMULANTS, cs.Gamma(2.0, 1.0), n
    ).values,
}


class TestOrderLimit:
    @pytest.mark.parametrize("name", sorted(WITH_MAX_N))
    def test_one_limit(self, name):
        values = WITH_MAX_N[name](6)
        assert len(values) == 6 and all(math.isfinite(v) for v in values)
        with pytest.raises(cs.ParameterError, match=r"^max order must be in 1\.\.6, got 7$"):
            WITH_MAX_N[name](7)


# Valid models with log-cumulants beyond the doubles, as (function, model,
# first order that raises): k_2 is not a finite double (the first two models,
# both routes), or the oracle's r^2 is not (Gamma L=1e300), or its ln Gamma
# on the circle is not (Gamma L=1e307).
BEYOND_DOUBLES = [
    (function, model, 2)
    for function in (cs.log_cumulants, cs.log_cumulants_numeric)
    for model in (cs.Weibull(b=1e-300, z=1.0), cs.Gamma(L=1e-300, mu=1.0))
] + [
    (cs.log_cumulants_numeric, cs.Gamma(L=1e300, mu=1.0), 2),
    (cs.log_cumulants_numeric, cs.Gamma(L=1e307, mu=1.0), 1),
]


class TestBeyondTheDoubles:
    @pytest.mark.parametrize(
        "function, model, order",
        BEYOND_DOUBLES,
        ids=[f"{f.__name__}-{m!r}" for f, m, _ in BEYOND_DOUBLES],
    )
    def test_typed_error_names_model_and_order(self, function, model, order):
        if order > 1:
            assert math.isfinite(function(model, order - 1).values[-1])
        message = f"^log-cumulant of order {order} of {re.escape(repr(model))} "
        with pytest.raises(cs.NumericOverflowError, match=message):
            function(model, 6)

    def test_scale_ratio_below_the_doubles(self):
        # mu / L = 1e-600 underflows to 0; its log is taken as a difference
        # of logs, so k1 = ln(mu / L) + psi(L) is a double, and psi and phi
        # give a value or the typed error, never a bare math error
        model = cs.Gamma(L=1e300, mu=1e-300)
        with mpmath.workdps(30):
            L, mu = mpmath.mpf(model.L), mpmath.mpf(model.mu)
            k1 = float(mpmath.log(mu / L) + mpmath.digamma(L))
        assert cs.log_cumulants(model, 1).values[0] == pytest.approx(k1, rel=1e-15)
        assert cs.log_cumulants_numeric(model, 1).values[0] == pytest.approx(
            k1, rel=1e-15
        )
        for s in (0.5, 1.5, 2.0, 3.0):
            for function in (cs.psi, cs.phi):
                try:
                    assert math.isfinite(function(model, s))
                except cs.NumericOverflowError:
                    pass

    def test_scale_ratio_above_the_doubles(self):
        # mu / L = 1e310 overflows; Phi(1.5) = (mu / L)^0.5 Gamma(L + 0.5) /
        # Gamma(L) is a double and Phi(3) is not
        model = cs.Gamma(L=1e-10, mu=1e300)
        with mpmath.workdps(30):
            L, mu = mpmath.mpf(model.L), mpmath.mpf(model.mu)
            expected = float(mpmath.sqrt(mu / L) * mpmath.gamma(L + 0.5) / mpmath.gamma(L))
        assert cs.phi(model, 1.5) == pytest.approx(expected, rel=1e-13)
        with pytest.raises(cs.NumericOverflowError):
            cs.phi(model, 3.0)

    def test_merged_scale_below_the_doubles(self):
        # gamma-gamma's merged scale has L M = 1e-400, which underflows to 0;
        # its log is taken from the factors, so k1 is a double
        model = cs.GammaGamma(L=1e-200, M=1e-200, mu=1.0)
        with mpmath.workdps(50):
            L, M, mu = (mpmath.mpf(v) for v in (model.L, model.M, model.mu))
            k1 = float(mpmath.log(mu / (L * M)) + mpmath.digamma(L) + mpmath.digamma(M))
        assert cs.log_cumulants(model, 1).values[0] == pytest.approx(k1, rel=1e-15)
        # the oracle's bound, 1e-12 of the size of the terms (here |k1|)
        numeric = cs.log_cumulants_numeric(model, 1).values[0]
        assert numeric == pytest.approx(k1, rel=1e-12)

    def test_merged_scale_of_subnormal_factors(self):
        # L M = 7.5e-318 is subnormal, so mu / (L M) in doubles keeps 4 digits;
        # from the factors, m1 = mu
        model = cs.GammaGamma(
            L=4.9074325766623105e-228, M=1.5339363622099132e-90, mu=1.07860057787643e-100
        )
        assert cs.classical_moment(model, 1) == pytest.approx(model.mu, rel=1e-14)

    def test_maxwell_scale_above_the_doubles(self):
        # 2 sigma^2 = 2e400 overflows, and Phi(s) = (2 sigma^2)^((s-1)/2)
        # Gamma(1.5 + (s-1)/2) / Gamma(1.5) is a double up to s = 3
        model = cs.Maxwell(sigma=1e200)
        with mpmath.workdps(50):
            scale = 2 * mpmath.mpf(model.sigma) ** 2
            expected = mpmath.sqrt(mpmath.sqrt(scale)) * mpmath.gamma(1.75)
            expected /= mpmath.gamma(1.5)
            log_expected = float(mpmath.log(expected))
            expected = float(expected)
            k1 = float(mpmath.log(scale) / 2 + mpmath.digamma(1.5) / 2)
            m1 = float(mpmath.sqrt(scale) * mpmath.gamma(2) / mpmath.gamma(1.5))
        assert cs.phi(model, 1.5) == pytest.approx(expected, rel=1e-13)
        assert cs.psi(model, 1.5) == pytest.approx(log_expected, rel=1e-15)
        assert cs.log_cumulants(model, 1).values[0] == pytest.approx(k1, rel=1e-15)
        assert cs.classical_moment(model, 1) == pytest.approx(m1, rel=1e-13)
        with pytest.raises(cs.NumericOverflowError):  # m2 = 3e400
            cs.classical_moment(model, 2)

    def test_moment_near_the_largest_double(self):
        # m_171 = mu^171 171! of Gamma(1, mu) is 1.0000000000000027e308,
        # above e^709 = 8.2e307 and a double; taken through its log, whose
        # ulp (1.1e-13) bounds the result's precision.  A scale 0.5% larger
        # puts it past the largest double
        mu = (1e308 / math.gamma(171) / 171) ** (1 / 171)
        model = cs.Gamma(L=1.0, mu=mu)
        with mpmath.workdps(30):
            expected = float(mpmath.mpf(mu) ** 171 * mpmath.factorial(171))
        assert expected == pytest.approx(1.0000000000000027e308, rel=1e-16)
        assert cs.classical_moment(model, 171) == pytest.approx(expected, rel=2e-13)
        assert cs.phi(model, 172.0) == pytest.approx(expected, rel=2e-13)
        assert cs.phi_numeric(model, 172.0) == pytest.approx(expected, rel=1e-9)
        past = cs.Gamma(L=1.0, mu=1.005 * mu)  # m_171 = 2.3e308
        for function, arg in ((cs.classical_moment, 171), (cs.phi, 172.0)):
            with pytest.raises(cs.NumericOverflowError):
                function(past, arg)
        with pytest.raises(cs.NumericOverflowError):
            cs.phi_numeric(past, 172.0)

    def test_closed_form_of_a_huge_shape(self):
        # its k_2 = psi'(1e300) is a double, and k_3..k_6 round to 0
        values = cs.log_cumulants(cs.Gamma(L=1e300, mu=1.0), 6).values
        assert values[1] == pytest.approx(1e-300, rel=1e-15)
        assert not any(values[2:])


class TestLogStats:
    def test_validation(self):
        with pytest.raises(cs.ParameterError):
            cs.LogStats("cumulants", "standard", (1.0,))
        with pytest.raises(cs.ParameterError):
            cs.LogStats("log_cumulants", "printed", (1.0,))
        with pytest.raises(cs.ParameterError):
            cs.LogStats("log_cumulants", "standard", ())
        with pytest.raises(cs.ParameterError):
            cs.LogStats("log_cumulants", "standard", (math.nan,))

    def test_order_accessor(self):
        stats = cs.LogStats("log_cumulants", "standard", (1.0, 2.0, 3.0))
        assert stats.order(2) == 2.0
        assert stats.max_order == 3
        with pytest.raises(cs.ParameterError):
            stats.order(4)
