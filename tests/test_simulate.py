"""Samplers, product composition, and the texture log-cumulant sweep."""

import math

import numpy as np
import pytest

import clutterstats as cs
from clutterstats.specfun import polygamma

SIMPLE_MODELS = [
    cs.Exponential(mu=2.0),
    cs.Gamma(L=4.0, mu=1.0),
    cs.Gamma(L=0.5, mu=2.0),
    cs.Nakagami(L=2.0, mu=1.0),
    cs.Maxwell(sigma=1.0),
    cs.Weibull(b=2.5, z=1.5),
    cs.Rayleigh(z=1.0),
]

N = 1_000_000


class TestRngState:
    def test_mask_and_children(self):
        state = cs.RngState(42)
        assert state.stream == 0
        assert state.child(1).stream == 1
        assert state.child(2).stream == 2
        assert state.child(1).child(2) == cs.RngState(42, 4)

    def test_rejects_non_integer(self):
        with pytest.raises(cs.ParameterError):
            cs.RngState(1.5)


class TestDeterminism:
    @pytest.mark.parametrize(
        "model",
        SIMPLE_MODELS
        + [cs.GammaGamma(4.0, 2.0, 1.0), cs.KAmplitude(2.0, 2.0, 1.0)],
        ids=lambda m: repr(m),
    )
    def test_same_state_same_sequence(self, model):
        a = cs.sample(model, 1000, cs.RngState(42))
        b = cs.sample(model, 1000, cs.RngState(42))
        assert np.array_equal(a.values, b.values)

    def test_different_streams_differ(self):
        a = cs.sample(cs.Gamma(4.0, 1.0), 1000, cs.RngState(42, 0))
        b = cs.sample(cs.Gamma(4.0, 1.0), 1000, cs.RngState(42, 1))
        assert not np.array_equal(a.values, b.values)

    def test_single_draw_reproducible(self):
        one = cs.sample_product(
            cs.Gamma(1.0, 1.0), cs.Gamma(1.0, 1.0), 1, cs.RngState(5)
        )
        two = cs.sample_product(
            cs.Gamma(1.0, 1.0), cs.Gamma(1.0, 1.0), 1, cs.RngState(5)
        )
        assert one.count == 1
        assert one.values[0] > 0.0
        assert one.values[0] == two.values[0]


class TestOneFactorDraws:
    # one-factor families draw on the given state itself
    def test_exponential_inverse_cdf(self):
        gen = cs.RngState(7, 3).generator()
        expected = -2.0 * np.log(gen.random(1000) + 2.0**-54)
        drawn = cs.sample(cs.Exponential(mu=2.0), 1000, cs.RngState(7, 3))
        assert np.array_equal(drawn.values, expected)

    def test_gamma_standard_gamma(self):
        gen = cs.RngState(7, 3).generator()
        expected = (1.3 / 2.5) * gen.standard_gamma(2.5, 1000)
        drawn = cs.sample(cs.Gamma(L=2.5, mu=1.3), 1000, cs.RngState(7, 3))
        assert np.array_equal(drawn.values, expected)

    def test_weibull_inverse_cdf(self):
        gen = cs.RngState(7, 3).generator()
        expected = 1.5 * (-np.log(gen.random(1000) + 2.0**-54)) ** (1.0 / 0.7)
        drawn = cs.sample(cs.Weibull(b=0.7, z=1.5), 1000, cs.RngState(7, 3))
        assert np.array_equal(drawn.values, expected)

    def test_maxwell_scale_above_the_doubles(self):
        # 2 sigma^2 = 2e400 overflows; its square root is taken from its log
        gen = cs.RngState(7, 3).generator()
        expected = math.sqrt(2.0) * 1e200 * np.sqrt(gen.standard_gamma(1.5, 1000))
        drawn = cs.sample(cs.Maxwell(sigma=1e200), 1000, cs.RngState(7, 3))
        np.testing.assert_allclose(drawn.values, expected, rtol=1e-14)


class TestSamplerMarginals:
    @pytest.mark.parametrize("model", SIMPLE_MODELS, ids=lambda m: repr(m))
    def test_log_cumulants_match_closed_form(self, model):
        samples = cs.sample(model, N, cs.RngState(42))
        empirical = cs.empirical_log_cumulants(samples, 2)
        errors = cs.log_cumulant_standard_errors(samples, 2)
        closed = cs.log_cumulants(model, 2)
        for i in range(2):
            assert abs(empirical.values[i] - closed.values[i]) <= 4.0 * errors[i]

    def test_gamma_mean(self):
        samples = cs.sample(cs.Gamma(L=4.0, mu=1.0), N, cs.RngState(42))
        # variance of the mean is mu^2 / (L N)
        assert abs(samples.values.mean() - 1.0) <= 4.0 / math.sqrt(4.0 * N)

    def test_k_amplitude_second_moment(self):
        model = cs.KAmplitude(alpha=2.0, b=2.0, mu=1.0)
        samples = cs.sample(model, N, cs.RngState(42))
        second = samples.values**2
        se = np.std(second, ddof=1) / math.sqrt(N)
        expected = cs.classical_moment(model, 2)
        assert expected == pytest.approx(1.0, rel=1e-12)  # alpha/b at mu=1
        assert abs(second.mean() - expected) <= 4.0 * se

    def test_inverse_gamma_texture(self):
        model = cs.InverseGamma(M=3.0, mu=3.0)
        samples = cs.sample(model, N, cs.RngState(9))
        # mean is mu / (M - 1)
        se = np.std(samples.values, ddof=1) / math.sqrt(N)
        assert abs(samples.values.mean() - 1.5) <= 4.0 * se


class TestUnrepresentableDraws:
    def test_tiny_gamma_shape_overflows(self):
        # about 2% of shape-0.005 gamma variates underflow to 0
        with pytest.raises(cs.NumericOverflowError, match="0.005"):
            cs.sample(cs.Gamma(L=0.005, mu=1.0), 200_000, cs.RngState(1))

    def test_tiny_fisher_texture_overflows(self):
        with pytest.raises(cs.NumericOverflowError):
            cs.sample(cs.Fisher(L=0.01, M=0.01, mu=1.0), 200_000, cs.RngState(1))

    def test_scale_beyond_the_doubles_is_typed(self):
        # the scale sqrt(2) sigma overflows
        with pytest.raises(cs.NumericOverflowError):
            cs.sample(cs.Maxwell(sigma=1.5e308), 10, cs.RngState(1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_times_inf_draw_is_typed(self, seed):
        # a speckle draw of 0 meets a texture draw of inf: their product is
        # nan, reported as the typed error (warnings are errors in this
        # suite, so an invalid-value warning would fail the test too)
        model = cs.WeibullNakagami(c=1.44e-4, alpha=3.41e-5, b=224.3, sigma=4.02e-3)
        with pytest.raises(cs.NumericOverflowError):
            cs.sample(model, 1000, cs.RngState(seed))

    def test_small_gamma_shape_succeeds(self):
        samples = cs.sample(cs.Gamma(L=0.05, mu=1.0), 200_000, cs.RngState(1))
        assert samples.count == 200_000


class TestSampleProduct:
    def test_degenerate_texture(self):
        speckle = cs.Gamma(L=1.0, mu=1.0)
        texture = cs.Gamma(L=1e6, mu=1.0)  # essentially constant at 1
        product = cs.sample_product(speckle, texture, N, cs.RngState(42))
        empirical = cs.empirical_log_cumulants(product, 2)
        se = cs.log_cumulant_standard_errors(product, 2)[1]
        speckle_k2 = cs.log_cumulants(speckle, 2).values[1]
        assert abs(empirical.values[1] - speckle_k2) <= 4.0 * se + 1e-5

    def test_exponential_product_cumulants_add(self):
        product = cs.sample_product(
            cs.Gamma(1.0, 1.0), cs.Gamma(1.0, 1.0), N, cs.RngState(42)
        )
        empirical = cs.empirical_log_cumulants(product, 2)
        se = cs.log_cumulant_standard_errors(product, 2)[1]
        expected = 2.0 * polygamma(1, 1.0)
        assert expected == pytest.approx(3.2898681, abs=1e-7)
        assert abs(empirical.values[1] - expected) <= 4.0 * se

    def test_compound_equals_component_product(self):
        # sampling a compound family consumes the same streams as sampling
        # its decomposition product
        model = cs.GammaGamma(4.0, 2.0, 1.5)
        parts = cs.decompose(model)
        direct = cs.sample(model, 100, cs.RngState(11))
        composed = cs.sample_product(parts.speckle, parts.texture, 100, cs.RngState(11))
        assert np.array_equal(direct.values, composed.values)


    def test_compound_streams_match_component_product(self):
        # non-dyadic scales: a compound is drawn as its components' product
        for model in (
            cs.GammaGamma(3.0, 2.0, 1.7),
            cs.KAmplitude(2.0, 1.3, 1.1),
            cs.WeibullNakagami(1.7, 1.5, 1.2, 2.0),
            cs.Fisher(2.0, 3.0, 1.3),
        ):
            parts = cs.decompose(model)
            direct = cs.sample(model, 1000, cs.RngState(11))
            composed = cs.sample_product(
                parts.speckle, parts.texture, 1000, cs.RngState(11)
            )
            assert np.array_equal(direct.values, composed.values)

    def test_product_overflow_is_numeric_overflow(self):
        # the product of two finite draws overflows; warnings are errors in
        # this suite, so an overflow warning would fail the test too
        big = cs.Exponential(mu=1e200)
        with pytest.raises(cs.NumericOverflowError):
            cs.sample_product(big, big, 10, cs.RngState(1))

    def test_product_underflow_is_numeric_overflow(self):
        tiny = cs.Gamma(L=0.05, mu=1e-200)
        with pytest.raises(cs.NumericOverflowError):
            cs.sample_product(tiny, tiny, 1000, cs.RngState(1))

class TestFig1Config:
    def test_default_grid(self):
        grid = cs.default_m_grid()
        assert len(grid) == 13
        assert grid[0] == 0.25
        assert 0.5 in grid
        assert 1.0 in grid
        assert grid[-1] == 16.0
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        with pytest.raises(cs.ParameterError):
            cs.Fig1Config(M_grid=(2.0, 1.0))
        with pytest.raises(cs.ParameterError):
            cs.Fig1Config(M_grid=())
        with pytest.raises(cs.ParameterError):
            cs.Fig1Config(L=-1.0)
        with pytest.raises(cs.ParameterError):
            cs.Fig1Config(samples_per_point=0)

    @pytest.mark.parametrize("n", [1.5, 2.0, True])
    def test_samples_per_point_must_be_an_integer(self, n):
        # rejected when built, not at the sweep's first grid point
        with pytest.raises(cs.ParameterError, match="samples_per_point"):
            cs.Fig1Config(samples_per_point=n)


SMALL_CONFIG = cs.Fig1Config(
    M_grid=(0.25, 0.5, 1.0, 4.0, 16.0), samples_per_point=20_000, seed=42
)

TINY_CONFIG = cs.Fig1Config(M_grid=(0.5, 4.0), samples_per_point=500, seed=7)
# figure1_experiment(TINY_CONFIG).to_csv() with the moment-cumulant
# recursion: m4_data_theory at M=0.5 and k4_texture_est at both points are
# within an ulp of the 50-digit conversion of the same exactly rounded sums
TINY_CSV = (
    "M,m2_data_theory,m2_data_est,m4_data_theory,m4_data_est,"
    "k2_texture_theory,k2_texture_est,k4_texture_theory,k4_texture_est\n"
    "0.5,7.1801361542020015,8.333234326833736,339.147946708352,"
    "473.2691450563638,4.93480220054468,5.90610890580338,97.40909103400242,"
    "137.74421358760077\n"
    "4.0,0.6354297967510685,0.6117601183022621,1.4585633480133244,"
    "1.3822474526028599,0.28382295573711525,0.24325744476381606,"
    "0.04486532819275508,0.048912109962431276\n"
)


class TestFigure1:
    def test_table_structure(self):
        table = cs.figure1_experiment(SMALL_CONFIG)
        assert len(table.rows) == 5
        assert [row.M for row in table.rows] == [0.25, 0.5, 1.0, 4.0, 16.0]

    def test_theory_columns(self):
        table = cs.figure1_experiment(SMALL_CONFIG)
        for row in table.rows:
            assert row.k2_texture_theory == pytest.approx(
                polygamma(1, row.M), rel=1e-14
            )
            assert row.k4_texture_theory == pytest.approx(
                polygamma(3, row.M), rel=1e-14
            )
            # data log-moment theory from cumulants of the compound
            k = cs.log_cumulants(cs.GammaGamma(4.0, row.M, 1.0), 4)
            assert row.m2_data_theory == pytest.approx(
                k.values[1] + k.values[0] ** 2, abs=1e-12
            )

    def test_theory_decay(self):
        table = cs.figure1_experiment(SMALL_CONFIG)
        k2 = [row.k2_texture_theory for row in table.rows]
        k4 = [row.k4_texture_theory for row in table.rows]
        assert all(a > b for a, b in zip(k2, k2[1:]))
        assert all(a > b for a, b in zip(k4, k4[1:]))

    def test_deterministic(self):
        a = cs.figure1_experiment(SMALL_CONFIG)
        b = cs.figure1_experiment(SMALL_CONFIG)
        assert a == b
        assert a.to_csv() == b.to_csv()

    def test_point_order_independent(self):
        # a sub-grid sharing indices 0..2 reproduces the same leading rows
        table = cs.figure1_experiment(SMALL_CONFIG)
        sub = cs.Fig1Config(
            M_grid=SMALL_CONFIG.M_grid[:3],
            samples_per_point=SMALL_CONFIG.samples_per_point,
            seed=SMALL_CONFIG.seed,
        )
        subtable = cs.figure1_experiment(sub)
        assert subtable.rows == table.rows[:3]

    def test_csv_columns(self):
        table = cs.figure1_experiment(SMALL_CONFIG)
        header = table.to_csv().splitlines()[0]
        assert header == (
            "M,m2_data_theory,m2_data_est,m4_data_theory,m4_data_est,"
            "k2_texture_theory,k2_texture_est,k4_texture_theory,k4_texture_est"
        )
        assert len(table.to_csv().splitlines()) == 6

    def test_json_records(self):
        import json

        table = cs.figure1_experiment(SMALL_CONFIG)
        records = json.loads(table.to_json())
        assert len(records) == 5
        assert set(records[0]) == set(cs.FIG1_COLUMNS)

    def test_seeds_do_not_share_point_streams(self):
        a = cs.Fig1Config(M_grid=(1.0, 2.0), samples_per_point=1000, seed=42)
        b = cs.Fig1Config(M_grid=(2.0, 4.0), samples_per_point=1000, seed=43)
        assert not np.array_equal(
            cs.figure1_point_samples(a, 1).values,
            cs.figure1_point_samples(b, 0).values,
        )

    def test_point_zero_draws_on_seed_stream(self):
        config = cs.Fig1Config(M_grid=(0.5, 2.0), samples_per_point=1000, seed=42)
        direct = cs.sample_product(
            cs.Gamma(L=config.L, mu=1.0),
            cs.Gamma(L=0.5, mu=config.mu),
            1000,
            cs.RngState(42),
        )
        assert np.array_equal(
            cs.figure1_point_samples(config, 0).values, direct.values
        )

    def test_csv_digits_fixed(self):
        assert cs.figure1_experiment(TINY_CONFIG).to_csv() == TINY_CSV

    def test_log_moments_computed_once_per_point(self, monkeypatch):
        calls = []
        real = cs.estimate.empirical_log_moments

        def counting(samples, max_n):
            calls.append(max_n)
            return real(samples, max_n)

        monkeypatch.setattr(cs.estimate, "empirical_log_moments", counting)
        monkeypatch.setattr(cs.simulate, "empirical_log_moments", counting)
        cs.figure1_experiment(TINY_CONFIG)
        assert calls == [4, 4]

    def test_point_errors_annotated_with_m(self):
        # one draw per point: cumulant estimation needs two, and the error
        # message must name the grid point that failed
        config = cs.Fig1Config(M_grid=(0.25, 4.0), samples_per_point=1, seed=1)
        with pytest.raises(cs.ParameterError, match="M=0.25"):
            cs.figure1_experiment(config)
