"""Empirical log-statistics, trigamma inversion, MoLC fitting."""

import dataclasses
import math

import numpy as np
import pytest

import clutterstats as cs
from clutterstats.specfun import polygamma

FIT_GRID = [
    ("exponential", cs.Exponential(mu)) for mu in (0.5, 2.0)
] + [
    ("gamma", cs.Gamma(L, mu)) for L in (0.5, 1.0, 3.0, 4.7) for mu in (0.5, 2.0)
] + [
    ("nakagami", cs.Nakagami(L, mu)) for L in (0.5, 2.0, 4.7) for mu in (1.0, 3.0)
] + [
    ("maxwell", cs.Maxwell(sigma)) for sigma in (0.5, 1.0, 3.0)
] + [
    ("weibull", cs.Weibull(b, z)) for b in (0.5, 2.0, 4.7) for z in (0.5, 3.0)
] + [
    ("rayleigh", cs.Rayleigh(z)) for z in (0.5, 2.0)
] + [
    ("gamma_gamma", cs.GammaGamma(L, M, mu))
    for (L, M) in ((1.0, 2.0), (2.0, 2.0), (0.5, 3.0), (4.7, 4.7), (4.0, 2.0))
    for mu in (1.0, 3.0)
] + [
    # mu is fixed at 1 by the fit, so round-trip models use mu = 1
    ("k_amplitude", cs.KAmplitude(alpha, b, 1.0))
    for alpha in (0.5, 1.0, 2.0, 4.7)
    for b in (0.5, 1.0, 2.0)
] + [
    # b is fixed at 1 by the fit, so round-trip models use b = 1
    ("weibull_nakagami", cs.WeibullNakagami(c, alpha, 1.0, sigma))
    for (c, alpha) in ((1.0, 1.0), (2.0, 2.0), (0.9, 2.5), (3.0, 0.7), (2.2, 0.5))
    for sigma in (1.0, 2.5)
] + [
    ("fisher", cs.Fisher(L, M, mu))
    for (L, M) in ((1.0, 2.0), (2.0, 3.0), (4.7, 1.5), (0.5, 4.0), (2.0, 2.0))
    for mu in (1.0, 3.0)
]


class TestSampleSet:
    def test_count_derived(self):
        samples = cs.SampleSet(np.array([1.0, 2.0, 3.0]))
        assert samples.count == 3

    def test_empty_rejected(self):
        with pytest.raises(cs.EmptySampleError):
            cs.SampleSet(np.array([]))

    def test_non_positive_rejected(self):
        with pytest.raises(cs.ParameterError):
            cs.SampleSet(np.array([1.0, 0.0]))
        with pytest.raises(cs.ParameterError):
            cs.SampleSet(np.array([1.0, -2.0]))
        with pytest.raises(cs.ParameterError):
            cs.SampleSet(np.array([1.0, math.inf]))

    def test_count_mismatch(self):
        with pytest.raises(cs.ParameterError):
            cs.SampleSet(np.array([1.0, 2.0]), count=3)


class TestEmpiricalLogMoments:
    def test_all_ones(self):
        stats = cs.empirical_log_moments(cs.SampleSet(np.ones(3)), 4)
        assert stats.values == (0.0, 0.0, 0.0, 0.0)

    def test_exponent_arithmetic(self):
        samples = cs.SampleSet(np.array([math.e, math.e**2]))
        stats = cs.empirical_log_moments(samples, 2)
        assert stats.values[0] == pytest.approx(1.5, rel=1e-12)
        assert stats.values[1] == pytest.approx(2.5, rel=1e-12)

    def test_monte_carlo_gamma(self):
        model = cs.Gamma(L=2.0, mu=1.0)
        samples = cs.sample(model, 1_000_000, cs.RngState(42))
        stats = cs.empirical_log_moments(samples, 1)
        se = cs.log_moment_standard_errors(samples, 1)[0]
        expected = polygamma(0, 2.0) - math.log(2.0)  # -0.2703628
        assert expected == pytest.approx(-0.2703628, abs=1e-7)
        assert abs(stats.values[0] - expected) <= 3.0 * se

    def test_merge_order_stable(self):
        # exactly-rounded accumulation: chunked merges cannot shift the result
        rng = np.random.default_rng(1)
        values = rng.gamma(2.0, 1.0, 10_001) + 1e-9
        whole = cs.empirical_log_moments(cs.SampleSet(values), 4).values
        n = len(values)
        pieces = [values[: n // 3], values[n // 3 : 2 * n // 3], values[2 * n // 3 :]]
        merged = []
        for order in range(1, 5):
            total = math.fsum(
                math.fsum(np.log(p) ** order) for p in pieces
            )
            merged.append(total / n)
        for a, b in zip(whole, merged):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


class TestEmpiricalLogCumulants:
    def test_degenerate_sample(self):
        for c in (0.25, 1.0, 7.5):
            samples = cs.SampleSet(np.full(5, c))
            stats = cs.empirical_log_cumulants(samples, 4)
            assert stats.values[0] == pytest.approx(math.log(c), rel=1e-12)
            for value in stats.values[1:]:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(cs.ParameterError):
            cs.empirical_log_cumulants(cs.SampleSet(np.array([2.0])), 2)

    def test_monte_carlo_exponential(self):
        samples = cs.sample(cs.Exponential(mu=1.0), 1_000_000, cs.RngState(42))
        stats = cs.empirical_log_cumulants(samples, 2)
        se = cs.log_cumulant_standard_errors(samples, 2)[1]
        assert abs(stats.values[1] - polygamma(1, 1.0)) <= 3.0 * se

    def test_monte_carlo_rayleigh(self):
        samples = cs.sample(cs.Rayleigh(z=1.0), 1_000_000, cs.RngState(42))
        stats = cs.empirical_log_cumulants(samples, 2)
        se = cs.log_cumulant_standard_errors(samples, 2)[1]
        expected = polygamma(1, 1.0) / 4.0
        assert expected == pytest.approx(0.4112335, abs=1e-7)
        assert abs(stats.values[1] - expected) <= 3.0 * se


class TestTextureLogCumulants:
    def test_speckle_only_is_zero(self):
        speckle = cs.Gamma(L=4.0, mu=1.0)
        data = cs.log_cumulants(speckle, 4)
        texture = cs.texture_log_cumulants(data, speckle, 4)
        for value in texture.values:
            assert abs(value) <= 1e-12

    def test_gamma_gamma_texture(self):
        model = cs.GammaGamma(L=4.0, M=2.0, mu=1.0)
        data = cs.log_cumulants(model, 4)
        texture = cs.texture_log_cumulants(data, cs.Gamma(L=4.0, mu=1.0), 4)
        assert texture.values[1] == pytest.approx(polygamma(1, 2.0), abs=1e-10)
        assert texture.values[3] == pytest.approx(polygamma(3, 2.0), abs=1e-10)

    def test_k_amplitude_texture(self):
        model = cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0)
        data = cs.log_cumulants(model, 4)
        texture = cs.texture_log_cumulants(data, cs.Rayleigh(z=1.0), 4)
        assert texture.values[1] == pytest.approx(
            polygamma(1, 2.0) / 4.0, abs=1e-10
        )
        assert texture.values[1] == pytest.approx(0.1612335, abs=1e-7)

    def test_requires_standard_convention(self):
        data = cs.LogStats("log_cumulants", "paper_eq6", (0.0, 1.0))
        with pytest.raises(cs.ParameterError):
            cs.texture_log_cumulants(data, cs.Rayleigh(1.0), 2)


class TestInvertTrigamma:
    def test_known_value(self):
        assert cs.invert_trigamma(polygamma(1, 1.0)) == pytest.approx(
            1.0, abs=1e-8
        )

    @pytest.mark.parametrize("y", [0.1, 0.01, 1.0, 10.0, 1e4, 4.9348])
    def test_round_trip(self, y):
        x = cs.invert_trigamma(y)
        assert abs(polygamma(1, x) - y) <= 1e-10 * y

    def test_monotone(self):
        ys = np.geomspace(1e-4, 1e3, 40)
        xs = [cs.invert_trigamma(y) for y in ys]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_domain(self):
        with pytest.raises(cs.ParameterError):
            cs.invert_trigamma(0.0)
        with pytest.raises(cs.ParameterError):
            cs.invert_trigamma(-1.0)

    def test_out_of_box(self):
        with pytest.raises(cs.NonConvergenceError):
            cs.invert_trigamma(1e20)


class TestFitMolc:
    @pytest.mark.parametrize(
        "family,model", FIT_GRID, ids=[repr(m) for _, m in FIT_GRID]
    )
    def test_round_trip(self, family, model):
        report = cs.fit_molc(family, cs.log_cumulants(model, 4))
        assert report.converged
        original = dataclasses.asdict(model)
        fitted = dataclasses.asdict(report.model)
        if family == "gamma_gamma" and original["L"] > original["M"]:
            original["L"], original["M"] = original["M"], original["L"]
        for name, value in original.items():
            assert fitted[name] == pytest.approx(value, rel=1e-6), name

    def test_gamma_example(self):
        report = cs.fit_molc("gamma", cs.log_cumulants(cs.Gamma(3.0, 2.0), 2))
        assert report.model.L == pytest.approx(3.0, abs=1e-8)
        assert report.model.mu == pytest.approx(2.0, abs=1e-8)

    def test_gamma_gamma_example(self):
        # forward-evaluated cumulants for shapes (1, 2) at unit scale
        k2 = polygamma(1, 1.0) + polygamma(1, 2.0)
        k3 = polygamma(2, 1.0) + polygamma(2, 2.0)
        assert k2 == pytest.approx(2.2898681, abs=1e-7)
        assert k3 == pytest.approx(-2.8082276, abs=1e-7)
        k1 = math.log(1.0 / 2.0) + polygamma(0, 1.0) + polygamma(0, 2.0)
        stats = cs.LogStats("log_cumulants", "standard", (k1, k2, k3))
        report = cs.fit_molc("gamma_gamma", stats)
        assert report.model.L == pytest.approx(1.0, rel=1e-8)
        assert report.model.M == pytest.approx(2.0, rel=1e-8)

    def test_canonical_tie_break(self):
        a = cs.fit_molc("gamma_gamma", cs.log_cumulants(cs.GammaGamma(4, 2, 1.5), 4))
        b = cs.fit_molc("gamma_gamma", cs.log_cumulants(cs.GammaGamma(2, 4, 1.5), 4))
        assert a == b
        assert a.model.L <= a.model.M

    def test_weibull_nakagami_roots_in_one_scan_cell(self):
        # both roots of the (k2, k3) residual fall inside one cell of the
        # scan grid, so the grid alone sees no sign change
        model = cs.WeibullNakagami(c=1.8846, alpha=1.1450, b=1.0, sigma=2.1037)
        report = cs.fit_molc("weibull_nakagami", cs.log_cumulants(model, 4))
        assert report.converged
        fitted = dataclasses.asdict(report.model)
        for name, value in dataclasses.asdict(model).items():
            assert fitted[name] == pytest.approx(value, rel=1e-6), name

    def test_infeasible_weibull(self):
        stats = cs.LogStats("log_cumulants", "standard", (0.0, -0.5))
        with pytest.raises(cs.InfeasibleCumulantsError):
            cs.fit_molc("weibull", stats)

    def test_infeasible_k_amplitude(self):
        # k2 below the Rayleigh speckle floor psi'(1)/4
        stats = cs.LogStats("log_cumulants", "standard", (0.0, 0.1))
        with pytest.raises(cs.InfeasibleCumulantsError):
            cs.fit_molc("k_amplitude", stats)

    def test_infeasible_gamma_gamma(self):
        # k3 > 0 cannot come from a sum of tetragammas
        stats = cs.LogStats("log_cumulants", "standard", (0.0, 1.0, 0.5))
        with pytest.raises(cs.InfeasibleCumulantsError):
            cs.fit_molc("gamma_gamma", stats)

    def test_monte_carlo_gamma(self):
        samples = cs.sample(cs.Gamma(L=4.0, mu=1.0), 1_000_000, cs.RngState(42))
        report = cs.fit_molc("gamma", cs.empirical_log_cumulants(samples, 2))
        assert report.model.L == pytest.approx(4.0, rel=0.02)
        assert report.model.mu == pytest.approx(1.0, rel=0.02)

    def test_report_record(self):
        report = cs.fit_molc("gamma", cs.log_cumulants(cs.Gamma(3.0, 2.0), 2))
        record = report.to_dict()
        assert record["family"] == "gamma"
        assert set(record) == {
            "family",
            "L",
            "mu",
            "iterations",
            "residual",
            "converged",
        }
        assert record["converged"] is True

    def test_rejects_moments_input(self):
        stats = cs.LogStats("log_moments", "standard", (0.0, 1.0))
        with pytest.raises(cs.ParameterError):
            cs.fit_molc("gamma", stats)

    def test_unknown_family(self):
        stats = cs.LogStats("log_cumulants", "standard", (0.0, 1.0))
        with pytest.raises(cs.ParameterError):
            cs.fit_molc("lognormal", stats)

    def test_too_few_orders(self):
        stats = cs.LogStats("log_cumulants", "standard", (0.0, 1.0))
        with pytest.raises(cs.ParameterError):
            cs.fit_molc("gamma_gamma", stats)


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = cs.sample(cs.Weibull(2.0, 1.0), 100, cs.RngState(3))
        cs.save_samples_csv(samples, path)
        text = path.read_text().splitlines()
        assert text[0] == "value"
        loaded = cs.load_samples_csv(path)
        assert np.array_equal(loaded.values, samples.values)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("amplitude\n1.0\n")
        with pytest.raises(cs.ParameterError, match="header 'value'"):
            cs.load_samples_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\nnope\n")
        with pytest.raises(cs.ParameterError, match="not a number"):
            cs.load_samples_csv(path)

    def test_non_positive_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n-3.0\n")
        with pytest.raises(cs.ParameterError):
            cs.load_samples_csv(path)
