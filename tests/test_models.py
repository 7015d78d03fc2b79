"""Family validation, densities, compound structure, serialization."""

import dataclasses
import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import kve

import clutterstats as cs
from clutterstats.models import _log_kve
from clutterstats.specfun import Tolerance, integrate_semi_infinite

from conftest import ALL_MODELS

NORM_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=400)


class TestValidate:
    def test_ok(self):
        model = cs.Gamma(L=2.0, mu=1.0)
        assert cs.validate(model) is model

    def test_negative_shape(self):
        with pytest.raises(cs.ParameterError, match="parameter L must be > 0"):
            cs.validate(cs.Gamma(L=-1.0, mu=1.0))

    def test_zero_shape(self):
        with pytest.raises(cs.ParameterError, match="parameter b must be > 0"):
            cs.validate(cs.Weibull(b=0.0, z=1.0))

    def test_non_finite(self):
        with pytest.raises(cs.ParameterError, match="finite"):
            cs.validate(cs.Maxwell(sigma=math.inf))
        with pytest.raises(cs.ParameterError, match="finite"):
            cs.validate(cs.Rayleigh(z=math.nan))

    def test_not_a_model(self):
        with pytest.raises(cs.ParameterError):
            cs.validate("gamma")

    @pytest.mark.parametrize(
        "cls, name",
        [
            (cls, field.name)
            for cls in cs.FAMILIES.values()
            for field in dataclasses.fields(cls)
        ],
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.0, "must be > 0"),
            (-1.0, "must be > 0"),
            (math.nan, "must be finite"),
            (math.inf, "must be finite"),
            (True, "must be a real number"),
            ("2", "must be a real number"),
        ],
    )
    def test_construction_rejects_bad_field(self, cls, name, bad, message):
        ones = {field.name: 1.0 for field in dataclasses.fields(cls)}
        expected = f"^parameter {name} {message}$"
        with pytest.raises(cs.ParameterError, match=expected):
            cls(**{**ones, name: bad})
        with pytest.raises(cs.ParameterError, match=expected):
            dataclasses.replace(cls(**ones), **{name: bad})


class TestPdfPointValues:
    def test_gamma_reduces_to_exponential(self):
        assert cs.pdf(cs.Gamma(L=1.0, mu=1.0), 0.5) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
        assert cs.pdf(cs.Gamma(L=1.0, mu=1.0), 0.5) == pytest.approx(
            0.6065307, abs=1e-7
        )

    def test_nakagami_single_look(self):
        # L = 1 reduces to 2 r exp(-r^2)
        assert cs.pdf(cs.Nakagami(L=1.0, mu=1.0), 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12
        )

    def test_exponential_matches_gamma(self):
        for x in (0.1, 1.0, 7.0):
            assert cs.pdf(cs.Exponential(mu=2.0), x) == pytest.approx(
                cs.pdf(cs.Gamma(L=1.0, mu=2.0), x), rel=1e-12
            )

    def test_rayleigh_is_weibull_b2(self):
        for z in (0.5, 1.0, 3.0):
            for x in (0.05, 0.8, 2.0, 6.0):
                ray = cs.pdf(cs.Rayleigh(z=z), x)
                wei = cs.pdf(cs.Weibull(b=2.0, z=z), x)
                assert abs(ray - wei) <= 1e-14 * ray

    def test_domain(self):
        with pytest.raises(cs.ParameterError):
            cs.pdf(cs.Gamma(2.0, 1.0), 0.0)
        with pytest.raises(cs.ParameterError):
            cs.pdf(cs.Gamma(2.0, 1.0), -1.0)

    def test_far_tail_is_zero_not_error(self):
        assert cs.pdf(cs.Weibull(b=0.5, z=1.0), 1e8) >= 0.0
        assert cs.pdf(cs.Gamma(2.0, 1.0), 1e6) == 0.0


# exp of a uniform log: parameters and x from 1e-300 to 1e300
LOG_UNIFORM = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)


class TestExtremeScales:
    """Where the density cannot be evaluated in doubles, pdf raises a typed
    error naming the model and x, never a bare math or numpy error."""

    @pytest.mark.parametrize(
        "model, x",
        [
            # x / mu underflows to 0 before its log
            (cs.KAmplitude(alpha=2.0, b=1.0, mu=1e300), 1e-300),
            # L * M / mu underflows to 0 before its log
            (cs.GammaGamma(L=1e-300, M=1e-300, mu=1.0), 1e-300),
        ],
    )
    def test_underflowed_log_is_typed(self, model, x):
        with pytest.raises(cs.NumericOverflowError) as info:
            cs.pdf(model, x)
        assert repr(model) in str(info.value)
        assert repr(x) in str(info.value)

    def test_fisher_overflowed_ratio_is_quiet(self):
        # lam = L x / (M mu) overflows, and its two log terms are inf - inf:
        # a quiet nan that pdf reports, not a numpy warning
        model = cs.Fisher(L=1e5, M=1e-300, mu=1e-5)
        with pytest.raises(cs.NumericOverflowError, match="Fisher.*x=1.0"):
            cs.pdf(model, 1.0)

    @pytest.mark.parametrize("family", sorted(cs.FAMILIES))
    @settings(max_examples=60)
    @given(data=st.data(), x=LOG_UNIFORM)
    def test_value_or_typed_error(self, family, data, x):
        cls = cs.FAMILIES[family]
        model = cls(
            **{f.name: data.draw(LOG_UNIFORM, f.name) for f in dataclasses.fields(cls)}
        )
        try:
            value = cs.pdf(model, x)
        except cs.ClutterStatsError:
            return
        assert math.isfinite(value) and value >= 0.0


class TestNormalization:
    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS]
    )
    def test_density_integrates_to_one(self, model):
        total = integrate_semi_infinite(lambda x: cs.pdf(model, x), NORM_TOL)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_k_amplitude_example(self):
        model = cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0)
        total = integrate_semi_infinite(lambda x: cs.pdf(model, x), NORM_TOL)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gamma_gamma_first_moment(self):
        model = cs.GammaGamma(L=2.0, M=3.0, mu=1.5)
        mean = integrate_semi_infinite(lambda x: x * cs.pdf(model, x), NORM_TOL)
        assert mean == pytest.approx(1.5, abs=1e-6)


class TestDecompose:
    def test_gamma_gamma(self):
        parts = cs.decompose(cs.GammaGamma(L=4.0, M=2.0, mu=1.0))
        assert parts.speckle == cs.Gamma(L=4.0, mu=1.0)
        assert parts.texture == cs.Gamma(L=2.0, mu=1.0)

    def test_k_amplitude(self):
        parts = cs.decompose(cs.KAmplitude(alpha=1.5, b=2.0, mu=1.0))
        assert parts.speckle == cs.Rayleigh(z=1.0)
        # texture is the amplitude-domain square root of the gamma-distributed
        # mean square (shape alpha, rate b)
        assert isinstance(parts.texture, cs.Nakagami)
        assert parts.texture.L == 1.5
        assert parts.texture.mu == pytest.approx(math.sqrt(1.5 / 2.0), rel=1e-15)

    def test_weibull_nakagami(self):
        model = cs.WeibullNakagami(c=2.0, alpha=1.5, b=1.0, sigma=3.0)
        parts = cs.decompose(model)
        assert parts.speckle == cs.Weibull(b=2.0, z=1.0)
        assert isinstance(parts.texture, cs.Nakagami)
        assert parts.texture.L == 1.5

    def test_fisher(self):
        parts = cs.decompose(cs.Fisher(L=2.0, M=3.0, mu=1.0))
        assert parts.speckle == cs.Gamma(L=2.0, mu=1.0)
        assert parts.texture == cs.InverseGamma(M=3.0, mu=3.0)

    def test_unrepresentable_components_overflow(self):
        # valid parameters whose texture scale sqrt(alpha / b) overflows
        model = cs.KAmplitude(alpha=1e300, b=1e-300)
        with pytest.raises(cs.NumericOverflowError):
            cs.decompose(model)
        with pytest.raises(cs.NumericOverflowError):
            cs.phi(model, 1.5)

    def test_simple_families_refuse(self):
        for model in (cs.Rayleigh(z=1.0), cs.Gamma(2.0, 1.0), cs.Maxwell(1.0)):
            with pytest.raises(cs.NotCompoundError):
                cs.decompose(model)


class TestCompoundConsistency:
    """The closed-form compound density equals the numerically-mixed one."""

    @staticmethod
    def _mixed(model, x):
        parts = cs.decompose(model)

        def integrand(z):
            return cs.pdf(parts.speckle, x / z) * cs.pdf(parts.texture, z) / z

        return integrate_semi_infinite(integrand, NORM_TOL)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_gamma_gamma_mixture(self, x):
        model = cs.GammaGamma(L=2.0, M=3.0, mu=1.5)
        assert self._mixed(model, x) == pytest.approx(cs.pdf(model, x), rel=1e-5)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_k_amplitude_mixture(self, x):
        model = cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0)
        assert self._mixed(model, x) == pytest.approx(cs.pdf(model, x), rel=1e-5)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_weibull_nakagami_mixture(self, x):
        model = cs.WeibullNakagami(c=1.7, alpha=2.5, b=1.3, sigma=0.8)
        assert self._mixed(model, x) == pytest.approx(cs.pdf(model, x), rel=1e-5)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_fisher_mixture(self, x):
        model = cs.Fisher(L=2.0, M=3.0, mu=1.3)
        assert self._mixed(model, x) == pytest.approx(cs.pdf(model, x), rel=1e-5)


def _mp_log_kve(nu, w):
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.besselk(nu, w)) + w)


class TestBesselOverflow:
    """Where scipy's kve overflows, ln K_nu comes from its integral form."""

    @settings(max_examples=40)
    @given(log_nu=st.floats(math.log(2.0), math.log(1e4)), t=st.floats(0.0, 1.0))
    def test_log_kve_matches_mpmath(self, log_nu, t):
        nu = math.exp(log_nu)
        w = math.exp(-300.0 + t * (log_nu + 300.0))  # 1e-130 .. nu
        assume(math.isinf(kve(nu, w)))
        reference = _mp_log_kve(nu, w)
        assert abs(_log_kve(nu, w) - reference) <= 2e-15 * max(1.0, abs(reference))

    def test_finite_kve_path_unchanged(self):
        assert _log_kve(2.5, 3.0) == math.log(kve(2.5, 3.0))

    @pytest.mark.parametrize("nu, w", [(3.0, 0.0), (1e200, 1e-100)])
    def test_out_of_range_raises_overflow(self, nu, w):
        # an argument that underflowed to 0, and orders beyond 1e13
        with pytest.raises(cs.NumericOverflowError):
            _log_kve(nu, w)

    def test_gamma_gamma_far_apart_shapes(self):
        model = cs.GammaGamma(
            L=2.040977759444708, M=609.0836347636905, mu=0.26394937090607473
        )
        x = 0.26
        with mpmath.workdps(30):
            L, M, mu = map(mpmath.mpf, (model.L, model.M, model.mu))
            reference = float(
                2 * (L * M / mu) ** ((L + M) / 2) * mpmath.mpf(x) ** ((L + M) / 2 - 1)
                * mpmath.besselk(M - L, 2 * mpmath.sqrt(L * M * x / mu))
                / (mpmath.gamma(L) * mpmath.gamma(M))
            )
        assert cs.pdf(model, x) == pytest.approx(reference, rel=1e-13)

    def test_k_amplitude_large_alpha_small_x(self):
        model = cs.KAmplitude(
            alpha=70.9366294304504, b=0.23882070891670856, mu=1.0892275244510095
        )
        x = 0.002
        with mpmath.workdps(30):
            alpha, b, mu = map(mpmath.mpf, (model.alpha, model.b, model.mu))
            r = x / mu
            reference = float(
                4 * b ** ((alpha + 1) / 2) / mpmath.gamma(alpha) * r**alpha
                * mpmath.besselk(alpha - 1, 2 * r * mpmath.sqrt(b)) / mu
            )
        assert cs.pdf(model, x) == pytest.approx(reference, rel=1e-13)


class TestSerialization:
    def test_round_trip_every_family(self):
        for model in ALL_MODELS:
            record = cs.model_to_dict(model)
            assert record["family"] in cs.FAMILIES
            assert cs.model_from_dict(record) == model

    def test_field_names(self):
        record = cs.model_to_dict(cs.WeibullNakagami(2.0, 1.5, 1.0, 3.0))
        assert record == {
            "family": "weibull_nakagami",
            "c": 2.0,
            "alpha": 1.5,
            "b": 1.0,
            "sigma": 3.0,
        }

    def test_k_amplitude_default_scale(self):
        model = cs.model_from_dict({"family": "k_amplitude", "alpha": 2.0, "b": 1.0})
        assert model.mu == 1.0

    def test_unknown_family(self):
        with pytest.raises(cs.ParameterError, match="unknown family"):
            cs.model_from_dict({"family": "lognormal", "mu": 1.0})

    def test_extra_parameter(self):
        with pytest.raises(cs.ParameterError, match="not part of family"):
            cs.model_from_dict({"family": "gamma", "L": 1.0, "mu": 1.0, "z": 2.0})

    def test_missing_parameter(self):
        with pytest.raises(cs.ParameterError, match="requires parameters"):
            cs.model_from_dict({"family": "gamma", "L": 1.0})

    def test_invalid_value(self):
        with pytest.raises(cs.ParameterError, match="must be > 0"):
            cs.model_from_dict({"family": "gamma", "L": -1.0, "mu": 1.0})

    def test_invalid_value_message_is_not_wrapped(self):
        with pytest.raises(cs.ParameterError, match="^parameter L must be > 0$"):
            cs.model_from_dict({"family": "gamma", "L": -1.0, "mu": 1.0})
