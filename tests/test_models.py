"""Family validation, densities, compound structure, serialization."""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import kve

import clutterstats as cs
from clutterstats import specfun
from clutterstats.models import _log_density, _quotient
from clutterstats.specfun import Tolerance, _gauss_kronrod, _log_kve
from clutterstats.verify import _convolution

from conftest import ALL_MODELS

NORM_TOL = Tolerance(rel_tol=1e-9, max_subdivisions=400)


class TestValidate:
    def test_negative_shape(self):
        with pytest.raises(cs.ParameterError, match="parameter L must be > 0"):
            cs.Gamma(L=-1.0, mu=1.0)

    def test_zero_shape(self):
        with pytest.raises(cs.ParameterError, match="parameter b must be > 0"):
            cs.Weibull(b=0.0, z=1.0)

    def test_non_finite(self):
        with pytest.raises(cs.ParameterError, match="finite"):
            cs.Maxwell(sigma=math.inf)
        with pytest.raises(cs.ParameterError, match="finite"):
            cs.Rayleigh(z=math.nan)

    @pytest.mark.parametrize("fn", [cs.decompose, cs.model_to_dict])
    def test_not_a_model(self, fn):
        with pytest.raises(cs.ParameterError, match="not a clutter model"):
            fn("gamma")

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
            # shapes beyond the double range: the log-gamma terms are
            # inf - inf, a quiet nan that pdf reports, not a numpy warning
            (cs.Fisher(L=1e308, M=1e308, mu=1.0), 1.0),
        ],
    )
    def test_underflowed_log_is_typed(self, model, x):
        with pytest.raises(cs.NumericOverflowError) as info:
            cs.pdf(model, x)
        assert repr(model) in str(info.value)
        assert repr(x) in str(info.value)

    def test_density_near_the_largest_double(self):
        # f(x) = e^(-x / mu) / mu is 1.0e308 here, above e^709 = 8.2e307 and
        # a double; at mu = 5e-309 it is 2e308, past the largest double
        model, x = cs.Exponential(mu=1e-308), 1e-320
        with mpmath.workdps(30):
            mu = mpmath.mpf(model.mu)
            expected = float(mpmath.exp(-mpmath.mpf(x) / mu) / mu)
        assert cs.pdf(model, x) == pytest.approx(expected, rel=2e-13)
        with pytest.raises(cs.NumericOverflowError):
            cs.pdf(cs.Exponential(mu=5e-309), x)

    def test_weibull_ratio_below_the_doubles(self):
        # x / z and b / z are taken as logs, so a subnormal x / z is no error
        assert cs.pdf(cs.Weibull(b=1.0, z=2.0), 5e-324) == pytest.approx(0.5, rel=1e-15)
        # ln(2 x / z^2) - (x / z)^2 to 30 digits
        assert cs.log_pdf(cs.Rayleigh(z=2.0), 5e-324) == pytest.approx(
            -745.133219101941207623524530568, rel=1e-15
        )

    @pytest.mark.parametrize(
        "model, x, rel",
        [
            # L / mu underflows to 0
            (cs.Gamma(L=1e-300, mu=1e300), 1.0, 1e-13),
            # mu * mu overflows
            (cs.Nakagami(L=1e-300, mu=1e200), 1.0, 1e-13),
            # mu * mu is subnormal
            (cs.Nakagami(L=3.0, mu=1e-160), 2e-160, 1e-12),
            # L / (M mu) and lam = L x / (M mu) overflow (betaln(L, M) is
            # good to 1e-14 of its 690 here)
            (cs.Fisher(L=1e5, M=1e-300, mu=1e-5), 1.0, 1e-10),
            # M is 1e20 times L: ln B(L, M) as log-gammas rounds to 0
            (cs.Fisher(L=3.0, M=1e20, mu=1.0), 1.0, 1e-13),
            # x / mu underflows to 0, and with it the Bessel argument; the
            # density is 2e-900, so 0
            (cs.KAmplitude(alpha=2.0, b=1.0, mu=1e300), 1e-300, 1e-13),
            # L * M * x / mu underflows to 0: the Bessel argument, of order 0
            (cs.GammaGamma(L=1e-300, M=1e-300, mu=1.0), 1e-300, 1e-13),
            # the Bessel argument is 9e9, where kve returns nan; the density
            # is e^-9e9, so 0
            (cs.KAmplitude(alpha=2.0, b=1.0, mu=1e-7), 459.0, 1e-13),
            # the Bessel argument, 6e499, overflows a double; the density is
            # e^-6e499, so 0
            (
                cs.KAmplitude(
                    alpha=3.805665112410073e-245,
                    b=3.254662576388391e257,
                    mu=1.8298988433716246e-265,
                ),
                3.2086963101554767e106,
                1e-13,
            ),
        ],
    )
    def test_representable_density_matches_mpmath(self, model, x, rel):
        # the log of a ratio beyond the double range is taken as a difference
        # of logs
        with mpmath.workdps(30):
            p = {k: mpmath.mpf(v) for k, v in dataclasses.asdict(model).items()}
            x_ = mpmath.mpf(x)
            if isinstance(model, cs.Gamma):
                L, mu = p["L"], p["mu"]
                log_f = L * mpmath.log(L / mu) + (L - 1) * mpmath.log(x_) - L * x_ / mu
                log_f -= mpmath.loggamma(L)
            elif isinstance(model, cs.Nakagami):
                L, mu = p["L"], p["mu"]
                log_f = mpmath.log(2) + L * mpmath.log(L / mu**2) - mpmath.loggamma(L)
                log_f += (2 * L - 1) * mpmath.log(x_) - L * x_**2 / mu**2
            elif isinstance(model, cs.KAmplitude):
                alpha, b, mu = p["alpha"], p["b"], p["mu"]
                r = x_ / mu
                log_f = mpmath.log(4) + (alpha + 1) / 2 * mpmath.log(b)
                log_f += alpha * mpmath.log(r) - mpmath.loggamma(alpha)
                log_f += mpmath.log(mpmath.besselk(alpha - 1, 2 * r * mpmath.sqrt(b)))
                log_f -= mpmath.log(mu)
            elif isinstance(model, cs.GammaGamma):
                L, M, mu = p["L"], p["M"], p["mu"]
                log_f = mpmath.log(2) + (L + M) / 2 * mpmath.log(L * M / mu)
                log_f += ((L + M) / 2 - 1) * mpmath.log(x_)
                w = 2 * mpmath.sqrt(L * M * x_ / mu)
                log_f += mpmath.log(mpmath.besselk(M - L, w))
                log_f -= mpmath.loggamma(L) + mpmath.loggamma(M)
            else:
                L, M, mu = p["L"], p["M"], p["mu"]
                lam = L * x_ / (M * mu)
                log_f = -mpmath.log(mpmath.beta(L, M))
                log_f += mpmath.log(L / (M * mu)) + (L - 1) * mpmath.log(lam)
                log_f -= (L + M) * mpmath.log1p(lam)
            reference = float(mpmath.exp(log_f))
        # abs=0: approx's default absolute tolerance of 1e-12 would accept
        # any of these tiny densities
        assert cs.pdf(model, x) == pytest.approx(reference, rel=rel, abs=0.0)

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


# factors log-uniform over 600 decades
WIDE_FACTORS = st.lists(
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp), min_size=1, max_size=3
)


@settings(max_examples=400)
@given(num=WIDE_FACTORS, den=WIDE_FACTORS)
@example(num=[1e200, 1e200], den=[1e92])  # a product overflows, q = 1e308 does not
def test_quotient_matches_mpmath(num, den):
    # ln q is good to a few eps of the size of the factors' logs, whether q
    # is taken in linear space or from the logs; q is 0 or inf only where it
    # is outside the doubles, and to the same accuracy elsewhere
    q, log_q = _quotient(tuple(num), tuple(den))
    with mpmath.workdps(50):
        exact = mpmath.fprod(map(mpmath.mpf, num)) / mpmath.fprod(map(mpmath.mpf, den))
        log_exact = float(mpmath.log(exact))
        exact = float(exact)  # 0 or inf where it is outside the doubles
    size = 1.0 + sum(abs(math.log(f)) for f in num + den)
    bound = 4.0 * sys.float_info.epsilon * size
    assert abs(log_q - log_exact) <= bound
    if q == 0.0:
        assert log_exact < math.log(5e-324) + bound
    elif q == math.inf:
        assert log_exact > math.log(sys.float_info.max) - bound
    elif q >= sys.float_info.min:
        assert abs(q - exact) <= bound * exact


# parameters log-uniform over 16 decades
LOG_UNIFORM_PARAMETER = st.floats(math.log(1e-8), math.log(1e8)).map(math.exp)


class TestArrayDensity:
    """Each family's density is written once, on arrays in u = ln x, and
    log_pdf is its one-element case."""

    @pytest.mark.parametrize("family", sorted(cs.FAMILIES))
    @settings(max_examples=25)
    @given(
        data=st.data(),
        xs=st.lists(LOG_UNIFORM, min_size=1, max_size=6),
        zs=st.lists(st.floats(-3.0, 3.0), max_size=6),
    )
    def test_elements_are_log_pdf(self, family, data, xs, zs):
        cls = cs.FAMILIES[family]
        fields = dataclasses.fields(cls)
        model = cls(**{f.name: data.draw(LOG_UNIFORM_PARAMETER, f.name) for f in fields})
        # and points z log-standard-deviations from the log-mean, where the
        # Weibull-Nakagami density is a quadrature, not a far-tail -inf
        try:
            k1, k2 = cs.log_cumulants(model, 2).values
        except cs.NumericOverflowError:
            zs = []
        bulk = [k1 + z * math.sqrt(k2) for z in zs]
        xs = xs + [math.exp(u) for u in bulk if -700.0 < u < 700.0]
        values = _log_density(model, np.log(np.array(xs)))
        for x, value in zip(xs, values.tolist()):
            try:
                expected = cs.log_pdf(model, x)
            except cs.NumericOverflowError:
                assert math.isnan(value)
            else:
                # bit for bit (so not nan), and finite or -inf
                assert value == expected and value < math.inf


class TestNormalization:
    # Phi(1) and Phi(2) by quadrature of the density are its integral and mean
    @pytest.mark.parametrize(
        "model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS]
    )
    def test_density_integrates_to_one(self, model):
        total = cs.phi_numeric(model, 1.0, NORM_TOL)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_k_amplitude_example(self):
        model = cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0)
        total = cs.phi_numeric(model, 1.0, NORM_TOL)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gamma_gamma_first_moment(self):
        model = cs.GammaGamma(L=2.0, M=3.0, mu=1.5)
        mean = cs.phi_numeric(model, 2.0, NORM_TOL)
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
        return math.exp(_convolution(cs.decompose(model), x))

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


def _mp_wn_pdf(model, x):
    """The Weibull-Nakagami density to 30 digits: the texture integral in
    u = ln z, with the peak of its concave log found by bisection, and mpmath
    Gauss-Legendre quadrature on 400 equal pieces of the range where the log
    is within 150 of the peak's, whose ends are found by bisection too."""
    with mpmath.workdps(30):
        c, alpha, b, sigma, x = map(
            mpmath.mpf, (model.c, model.alpha, model.b, model.sigma, x)
        )
        ln_r = mpmath.log(x) - mpmath.log(sigma) / 2
        A = 2 * alpha - c

        def g(u):
            return A * u - mpmath.exp(c * (ln_r - u)) - b * mpmath.exp(2 * u)

        def dg(u):
            return A + c * mpmath.exp(c * (ln_r - u)) - 2 * b * mpmath.exp(2 * u)

        lo, hi = mpmath.mpf(-1), mpmath.mpf(1)
        while dg(lo) < 0:
            lo *= 2
        while dg(hi) > 0:
            hi *= 2
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if dg(mid) > 0 else (lo, mid)
        peak = (lo + hi) / 2
        top = g(peak)
        ends = []
        for sign in (1, -1):
            inside, outside = peak, peak + sign
            while g(outside) - top > -150:
                inside, outside = outside, peak + 2 * (outside - peak)
            for _ in range(100):
                mid = (inside + outside) / 2
                inside, outside = (
                    (mid, outside) if g(mid) - top > -150 else (inside, mid)
                )
            ends.append(outside)
        integral = mpmath.quad(
            lambda u: mpmath.exp(g(u) - top),
            mpmath.linspace(ends[1], ends[0], 401),
            method="gauss-legendre",
        )
        log_f = (
            mpmath.log(2 * c) + alpha * mpmath.log(b) - mpmath.loggamma(alpha)
            + (c - 1) * ln_r - mpmath.log(sigma) / 2 + top + mpmath.log(integral)
        )
        return float(mpmath.exp(log_f))


LARGE_SHAPES = cs.WeibullNakagami(c=286.0, alpha=158.0, b=1.0, sigma=10.0)
FAR_TAIL_SHAPES = cs.WeibullNakagami(
    c=747.277871426309,
    alpha=706.6897750171661,
    b=7.634550032546566,
    sigma=9.737845867342532,
)


class TestWeibullNakagamiDensity:
    """The texture integral against 30-digit mpmath quadrature."""

    @pytest.mark.parametrize(
        "model, x",
        [
            # alpha ~ 293: the integrand's peak is 0.03 wide in u = ln z
            (
                cs.WeibullNakagami(
                    c=0.541634884852957,
                    alpha=292.755606429622,
                    b=0.39121468159192074,
                    sigma=0.8350845100766208,
                ),
                13.23660244877858,
            ),
            (cs.WeibullNakagami(c=2.0, alpha=2.0, b=1.0, sigma=3.0), 1.0),
            # 2 alpha < c: the other analytic bracket of the peak
            (cs.WeibullNakagami(c=3.0, alpha=0.7, b=1.0, sigma=2.0), 0.1),
            (cs.WeibullNakagami(c=0.9, alpha=2.5, b=2.0, sigma=0.5), 1e-6),
            (
                cs.WeibullNakagami(
                    c=12.042957759140744,
                    alpha=394.517232647056,
                    b=2.664622457781559e-06,
                    sigma=5.373052449934888e-06,
                ),
                36.20320262262539,
            ),
            # far right tail, density 3e-52
            (
                cs.WeibullNakagami(
                    c=0.15523990008959668,
                    alpha=604.8224256459072,
                    b=0.00011992377763416615,
                    sigma=2063.0406997240334,
                ),
                2.0521847421210282e17,
            ),
            # large shapes, whose walk at x = 1 passes y = 700 (below)
            (LARGE_SHAPES, 30.0),
            (LARGE_SHAPES, 40.0),
            (LARGE_SHAPES, 55.0),
        ],
    )
    def test_matches_mpmath(self, model, x):
        assert cs.pdf(model, x) == pytest.approx(_mp_wn_pdf(model, x), rel=1e-10)

    def test_large_shapes_far_tail_is_zero(self):
        # the walk passes y = 700, and ln f is -938.7 (mpmath): below e^-745,
        # so -inf, not an overflow
        assert cs.log_pdf(LARGE_SHAPES, 1.0) == -math.inf
        assert cs.pdf(LARGE_SHAPES, 1.0) == 0.0

    def test_small_shapes_broad_integrand(self):
        # the texture integrand in u = ln z falls by only 9 over the 380 from
        # its peak to u = 0, so the walk's y = 2 d passes 700.  Reference: ln f
        # by 40-digit mpmath over 400, 1201 and 2000 equal pieces of the range
        # where the integrand is within e^-150 of its peak, with Gauss-Legendre
        # and tanh-sinh rules; all three agree to 25 digits.  (_mp_wn_pdf takes
        # the 400-piece form; pieces doubling from the peak width missed it by
        # 1.9e-7.)
        model = cs.WeibullNakagami(
            c=0.14780136205975927,
            alpha=0.06236477121626183,
            b=6.070441097010868,
            sigma=6.273557041847698,
        )
        log_f = cs.log_pdf(model, 1.9581185060287123e-171)
        assert log_f == pytest.approx(343.7775395326869566265083, abs=1e-10)

    def test_shapes_of_hundreds_far_tail_is_zero(self):
        # the bulk of ln X lies within 0.6 of 3.4; out at ln x = 512 the terms
        # of the texture integrand overflow at the bracket of its peak, which
        # the peak search must not take as an error
        assert cs.log_pdf(FAR_TAIL_SHAPES, 2.2844135865397565e222) == -math.inf

    @settings(max_examples=12)
    @given(
        c=st.floats(0.3, 20.0),
        alpha=st.floats(0.5, 300.0),
        b=st.floats(0.1, 10.0),
        sigma=st.floats(0.1, 10.0),
        z=st.floats(-3.0, 3.0),
    )
    def test_bulk_matches_mpmath(self, c, alpha, b, sigma, z):
        # x lies z log-standard-deviations from the log-mean
        model = cs.WeibullNakagami(c=c, alpha=alpha, b=b, sigma=sigma)
        k1, k2 = cs.log_cumulants(model, 2).values
        x = math.exp(k1 + z * math.sqrt(k2))
        assert cs.pdf(model, x) == pytest.approx(_mp_wn_pdf(model, x), rel=1e-10)

    @pytest.mark.parametrize(
        "model, x",
        [
            (
                cs.WeibullNakagami(
                    c=4.383290459938718e111,
                    alpha=4.998196097650123e-29,
                    b=1.0771865545976123e223,
                    sigma=7.879985528704936e-266,
                ),
                7.042615158318404e-164,
            ),
            (
                cs.WeibullNakagami(
                    c=2.6636066291659365e-13,
                    alpha=4.107431110201945e-126,
                    b=1.877799134742316e-58,
                    sigma=8.013412537717858e-213,
                ),
                1.5865313975289788e-74,
            ),
        ],
    )
    def test_negligible_texture_integral_is_zero(self, model, x):
        # prefactor times integrand times range width is below e^-745, so the
        # density is 0 without summing the panels, whose terms would overflow
        assert cs.pdf(model, x) == 0.0

    @pytest.mark.parametrize("degree", range(0, 24, 2))
    def test_gauss_kronrod_degrees(self, degree):
        # Kronrod 15 is exact to degree 23, Gauss 7 to degree 13 (odd
        # degrees integrate to 0 by symmetry under both)
        value, error = _gauss_kronrod(
            lambda t: t**degree, np.array([-1.0]), np.array([1.0])
        )
        exact = (1 - (-1) ** (degree + 1)) / (degree + 1)
        assert abs(value[0] - exact) <= 1e-15
        assert (error[0] <= 1e-15) == (degree <= 13)


def _mp_log_kve(nu, log_w):
    """ln(K_nu(w) e^w) from a 30-digit mpmath quadrature of DLMF 10.32.9,
    K_nu(w) = Int_0^inf exp(-w cosh t) cosh(nu t) dt, split at the peak and
    where (w/2) e^t passes 1, with w (cosh t - 1) as 2 w sinh(t/2)^2, which
    keeps its digits where w is large and t small.  mpmath's besselk takes
    its large-argument series once w > 1, which fails for orders near w: it
    gives -4.9e688 for K_2981(2981)."""
    with mpmath.workdps(30):
        nu, w = mpmath.mpf(nu), mpmath.exp(log_w)

        def log_f(t):
            return -2 * w * mpmath.sinh(t / 2) ** 2 + mpmath.log(mpmath.cosh(nu * t))

        peak = mpmath.asinh(nu / w)
        width = (nu**2 + w**2) ** -0.25
        # (w/2) e^t is about 3000 max(nu, 1) here: the integrand has died
        end = mpmath.asinh(max(nu, 1) / w) + 8
        points = {0, peak, peak - 30 * width, peak + 30 * width, mpmath.asinh(1 / w)}
        points = sorted(t for t in points if 0 <= t < end) + [end]
        top = log_f(peak)
        integral = mpmath.quad(lambda t: mpmath.exp(log_f(t) - top), points)
        return float(top + mpmath.log(integral))


class TestBesselOverflow:
    """Where scipy's kve fails, ln K_nu comes from an integral form or, for
    arguments below the normal doubles and where sqrt(nu^2 + w^2) >= 2^30,
    from closed forms."""

    @settings(max_examples=40)
    @given(log_nu=st.floats(math.log(2.0), math.log(1e4)), t=st.floats(0.0, 1.0))
    # w = nu at large orders, where the larger term's exponent must be exact
    @example(log_nu=math.log(1e4), t=1.0)
    @example(log_nu=math.log(2981.0), t=1.0)
    def test_log_kve_matches_mpmath(self, log_nu, t):
        nu = math.exp(log_nu)
        log_w = -300.0 + t * (log_nu + 300.0)  # w from 1e-130 to nu
        assume(math.isinf(kve(nu, math.exp(log_w))))
        reference = _mp_log_kve(nu, log_w)
        assert abs(_log_kve(nu, log_w) - reference) <= 2e-15 * max(1.0, abs(reference))

    @settings(max_examples=30)
    @given(s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
    def test_underflowed_argument_matches_mpmath(self, s, t):
        # nu = 0, else from 1e-12 to 1e4 on a log scale; ln w from -1400,
        # where w underflows to 0, up to where w becomes a normal double
        nu = 0.0 if s == 0.0 else 1e-12 * 1e16**s
        log_w = -1400.0 + t * (math.log(sys.float_info.min) + 1400.0)
        reference = _mp_log_kve(nu, log_w)
        assert abs(_log_kve(nu, log_w) - reference) <= 2e-15 * max(1.0, abs(reference))

    @pytest.mark.parametrize(
        "nu, w",
        [
            # kve returns nan from w = 2^30 on
            (0.0, 3e9),
            (0.3, 3e9),
            (1.0, 3e9),
            (50.0, 3e9),
            (1e6, 3e9),
            (1.0, 1e20),
            (1e12, 1e20),
            # and from nu = 2^30 on
            (1e10, 1e-5),
            (1e12, 1e12),
            # kve overflows for normal w below about 1e-20 at orders from
            # about 1 (the small-argument form)
            (1.0, 2.5e-308),
            (1.5, 1e-250),
            (3.0, 1e-120),
        ],
    )
    def test_large_argument_or_order_matches_mpmath(self, nu, w):
        log_w = math.log(w)
        reference = _mp_log_kve(nu, log_w)
        assert abs(_log_kve(nu, log_w) - reference) <= 2e-15 * max(1.0, abs(reference))

    def test_finite_kve_path_unchanged(self):
        assert _log_kve(2.5, 1.1) == math.log(kve(2.5, math.exp(1.1)))

    @pytest.mark.parametrize(
        "nu, log_w, model",
        [
            (3.0, -math.inf, cs.GammaGamma(1.0, 1e14, 1.0)),
            (1e200, -230.0, cs.KAmplitude(2e13, 1.0, 1.0)),
        ],
    )
    def test_out_of_range_raises_overflow(self, nu, log_w, model):
        # an argument of exactly 0 (K_3(0) is infinite), and orders beyond
        # 1e13, are nan in ln K_nu, and the densities' one-point edge raises
        assert math.isnan(_log_kve(nu, log_w))
        with pytest.raises(cs.NumericOverflowError):
            cs.log_pdf(model, 1.0)

    def test_array_equals_one_element_calls(self, monkeypatch):
        # one array per order, mixing every regime: finite kve; ln w = -1000,
        # below the doubles; w = 1e-200, where kve overflows from order about
        # 1; R >= 2^30; the integral form at orders 800 and 1e4 (w from 1e-4
        # to nu); ln w = -inf; and order 2e13, beyond the forms' range
        log_w = np.array(
            [1.1, -1000.0, math.log(1e-200), math.log(3e9), -math.inf]
            + [math.log(w) for w in (1e-4, 10.0, 800.0, 1e4)]
        )
        integrals = []
        peak_integral = specfun._log_peak_integral

        def counted(*args):
            integrals.append(args)
            return peak_integral(*args)

        monkeypatch.setattr(specfun, "_log_peak_integral", counted)
        for nu in (0.0, 5e-4, 0.3, 2.0, 800.0, 1e4, 2e13):
            integrals.clear()
            values = _log_kve(nu, log_w)
            # one integral for all of an order's integral-form elements
            assert len(integrals) == (nu in (800.0, 1e4))
            singles = np.array([_log_kve(nu, x) for x in log_w.tolist()])
            assert np.array_equal(values, singles, equal_nan=True)
            assert np.isnan(values).tolist() == [
                x == -math.inf or nu == 2e13 for x in log_w.tolist()
            ]

    @pytest.mark.parametrize(
        "model",
        [cs.GammaGamma(330.2, 0.468, 0.177), cs.KAmplitude(806.3, 1.51, 0.43)],
    )
    def test_phi_numeric_at_large_order(self, model):
        # Bessel orders of 330 and 805, where kve overflows over most of the
        # quadrature's points
        closed = cs.phi(model, 1.5)
        assert abs(cs.phi_numeric(model, 1.5) - closed) <= 1e-12 * closed

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
