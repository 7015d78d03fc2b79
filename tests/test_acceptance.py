"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).

Criteria cover: the Euler-constant anchor, density normalization across the
family grid, transform and derivative oracle agreement, compound
product/additivity identities, classical-moment spot checks, Monte-Carlo
consistency at seed 42, MoLC round trips, the texture log-cumulant sweep
properties, and byte-level determinism.
"""

import dataclasses
import math

import clutterstats as cs
from clutterstats.cli import run as cli_run
from clutterstats.specfun import Tolerance, polygamma

from conftest import ALL_MODELS, PARAM_GRID, strip_interior_points

QUAD_TOL = Tolerance(rel_tol=1e-9, max_subdivisions=400)


def report(number, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {text}")
    assert ok, text


def test_criterion_01_euler_constant():
    value = cs.digamma(1.0)
    ok = abs(value - (-0.577215)) < 1e-6
    report(1, ok, f"digamma(1) = {value:.6f} matches -0.577215 to 6 digits")


def test_criterion_02_normalization_suite():
    worst = 0.0
    count = 0
    for model in ALL_MODELS:
        total = cs.phi_numeric(model, 1.0, QUAD_TOL)
        worst = max(worst, abs(total - 1.0))
        count += 1
    ok = worst <= 1e-6 and count >= 36
    report(
        2,
        ok,
        f"density normalization: {count} cases across 10 families, "
        f"worst |integral - 1| = {worst:.2e} (bound 1e-6)",
    )


def test_criterion_03_transform_oracle_suite():
    worst = 0.0
    per_family_points = {}
    for family, models in PARAM_GRID.items():
        points = 0
        for model in models:
            for s in strip_interior_points(model):
                closed = cs.phi(model, s)
                numeric = cs.phi_numeric(model, s, QUAD_TOL)
                worst = max(worst, abs(closed - numeric) / abs(closed))
                points += 1
        per_family_points[family] = points
    ok = worst <= 1e-6 and all(n >= 5 for n in per_family_points.values())
    fewest = min(per_family_points.values())
    report(
        3,
        ok,
        f"closed-form transforms vs quadrature: worst rel err {worst:.2e} "
        f"(bound 1e-6), >= {fewest} strip-interior points per family",
    )


def test_criterion_04_derivative_oracle_suite():
    worst = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    for model in ALL_MODELS:
        closed = cs.log_cumulants(model, 4)
        numeric = cs.log_cumulants_numeric(model, 4)
        for order in range(1, 5):
            err = abs(closed.values[order - 1] - numeric.values[order - 1])
            worst[order] = max(worst[order], err)
    ok = (
        worst[1] <= 1e-5
        and worst[2] <= 1e-5
        and worst[3] <= 1e-3
        and worst[4] <= 1e-3
    )

    # Document the printed-equation discrepancies the derivative oracle
    # machine-checks against (the implemented forms follow the transforms):
    alpha = 2.0
    k_model = cs.KAmplitude(alpha=alpha, b=1.0, mu=1.0)
    k2_impl = cs.log_cumulants(k_model, 2).values[1]
    k2_printed = 0.25 * polygamma(1, alpha)  # speckle term dropped
    k2_oracle = cs.log_cumulants_numeric(k_model, 2).values[1]
    print(
        f"  note: K-model k2 printed-without-speckle {k2_printed:.7f} vs "
        f"transform derivative {k2_impl:.7f} (oracle {k2_oracle:.7f})"
    )
    wn_model = cs.WeibullNakagami(c=2.0, alpha=1.5, b=1.0, sigma=1.0)
    wn_k2_impl = cs.log_cumulants(wn_model, 2).values[1]
    wn_k2_printed = 0.25 * polygamma(1, 1.5)  # speckle term dropped
    print(
        f"  note: Weibull-Nakagami k2 printed-without-speckle "
        f"{wn_k2_printed:.7f} vs transform derivative {wn_k2_impl:.7f}"
    )
    f_model = cs.Fisher(L=2.0, M=3.0, mu=1.0)
    f_k1_impl = cs.log_cumulants(f_model, 1).values[0]
    f_k1_printed = (
        math.log(1.0)
        + (polygamma(0, 2.0) - math.log(2.0))
        + (polygamma(0, 3.0) - math.log(3.0))
    )
    print(
        f"  note: Fisher k1 printed-with-plus-sign {f_k1_printed:.7f} vs "
        f"transform derivative {f_k1_impl:.7f}"
    )
    assert abs(k2_impl - k2_printed) > 0.4  # the speckle term is not negligible
    assert abs(k2_impl - k2_oracle) <= 1e-5  # oracle sides with the derivative
    assert abs(f_k1_impl - f_k1_printed) > 0.1

    report(
        4,
        ok,
        "closed-form log-cumulants vs derivative oracle: worst errors "
        f"{worst[1]:.1e}/{worst[2]:.1e} (orders 1-2, bound 1e-5), "
        f"{worst[3]:.1e}/{worst[4]:.1e} (orders 3-4, bound 1e-3)",
    )


def test_criterion_05_product_and_additivity():
    compounds = (
        cs.GammaGamma(L=2.0, M=3.0, mu=1.5),
        cs.GammaGamma(L=0.5, M=1.0, mu=1.0),
        cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0),
        cs.KAmplitude(alpha=0.5, b=2.0, mu=2.0),
        cs.WeibullNakagami(c=2.0, alpha=1.5, b=1.0, sigma=1.0),
        cs.WeibullNakagami(c=0.9, alpha=2.5, b=2.0, sigma=0.5),
        cs.Fisher(L=2.0, M=3.0, mu=1.0),
        cs.Fisher(L=0.5, M=4.0, mu=3.0),
    )
    worst_product = 0.0
    worst_additivity = 0.0
    for model in compounds:
        parts = cs.decompose(model)
        for s in strip_interior_points(model):
            whole = cs.phi(model, s)
            split = cs.phi(parts.speckle, s) * cs.phi(parts.texture, s)
            worst_product = max(worst_product, abs(whole - split) / whole)
        k_whole = cs.log_cumulants(model, 4).values
        k_speckle = cs.log_cumulants(parts.speckle, 4).values
        k_texture = cs.log_cumulants(parts.texture, 4).values
        for i in range(4):
            worst_additivity = max(
                worst_additivity, abs(k_whole[i] - k_speckle[i] - k_texture[i])
            )
    ok = worst_product <= 1e-10 and worst_additivity <= 1e-10
    report(
        5,
        ok,
        f"compound transform product {worst_product:.2e} and log-cumulant "
        f"additivity {worst_additivity:.2e} (bounds 1e-10)",
    )


def test_criterion_06_classical_moment_spot_checks():
    exp_ok = all(
        cs.classical_moment(cs.Exponential(mu=2.0), n)
        == 2.0**n * math.factorial(n)
        for n in (1, 2, 3, 4)
    )
    ray_ok = cs.classical_moment(cs.Rayleigh(z=2.0), 2) == 4.0
    maxwell_closed = cs.classical_moment(cs.Maxwell(sigma=1.0), 2)
    maxwell_quad = cs.phi_numeric(cs.Maxwell(sigma=1.0), 3.0, QUAD_TOL)
    maxwell_ok = abs(maxwell_closed - maxwell_quad) <= 1e-6 and abs(
        maxwell_closed - 3.0
    ) <= 1e-12
    try:
        cs.classical_moment(cs.Fisher(L=2.0, M=1.5, mu=1.0), 2)
        fisher_ok = False
    except cs.MomentDivergesError:
        fisher_ok = True
    ok = exp_ok and ray_ok and maxwell_ok and fisher_ok
    report(
        6,
        ok,
        "classical moments: exponential mu^n n! exact, Rayleigh z^2 exact, "
        f"Maxwell m2 = {maxwell_closed:g} vs quadrature, Fisher divergence "
        "raised for n >= M",
    )


def test_criterion_07_monte_carlo_consistency():
    models = (
        cs.Gamma(L=4.0, mu=1.0),
        cs.Weibull(b=2.0, z=1.0),
        cs.Rayleigh(z=1.0),
        cs.GammaGamma(L=4.0, M=2.0, mu=1.0),
        cs.KAmplitude(alpha=2.0, b=1.0, mu=1.0),
    )
    worst_sigma = 0.0
    for model in models:
        samples = cs.sample(model, 1_000_000, cs.RngState(42))
        empirical = cs.empirical_log_cumulants(samples, 2)
        errors = cs.log_cumulant_standard_errors(samples, 2)
        closed = cs.log_cumulants(model, 2)
        for i in range(2):
            pull = abs(empirical.values[i] - closed.values[i]) / errors[i]
            worst_sigma = max(worst_sigma, pull)
    ok = worst_sigma <= 4.0
    report(
        7,
        ok,
        f"empirical k1, k2 at N=1e6 seed 42 within 4 batch-split standard "
        f"errors for 5 families (worst pull {worst_sigma:.2f} s.e.)",
    )


def test_criterion_08_molc_round_trips():
    worst_exact = 0.0
    for family, models in PARAM_GRID.items():
        for model in models:
            if family == "k_amplitude" and model.mu != 1.0:
                model = dataclasses.replace(model, mu=1.0)
            if family == "weibull_nakagami" and model.b != 1.0:
                model = dataclasses.replace(model, b=1.0)
            reference = dataclasses.asdict(model)
            if family == "gamma_gamma" and reference["L"] > reference["M"]:
                reference["L"], reference["M"] = reference["M"], reference["L"]
            fitted = dataclasses.asdict(
                cs.fit_molc(family, cs.log_cumulants(model, 4)).model
            )
            for name, value in reference.items():
                worst_exact = max(worst_exact, abs(fitted[name] - value) / value)
    exact_ok = worst_exact <= 1e-6

    gamma_samples = cs.sample(cs.Gamma(L=4.0, mu=1.0), 1_000_000, cs.RngState(42))
    gamma_fit = cs.fit_molc(
        "gamma", cs.empirical_log_cumulants(gamma_samples, 2)
    ).model
    gamma_err = max(abs(gamma_fit.L - 4.0) / 4.0, abs(gamma_fit.mu - 1.0))

    gg_samples = cs.sample(
        cs.GammaGamma(L=4.0, M=2.0, mu=1.0), 1_000_000, cs.RngState(42)
    )
    gg_fit = cs.fit_molc(
        "gamma_gamma", cs.empirical_log_cumulants(gg_samples, 4)
    ).model
    gg_err = max(
        abs(gg_fit.L - 2.0) / 2.0,  # canonical order L <= M
        abs(gg_fit.M - 4.0) / 4.0,
        abs(gg_fit.mu - 1.0),
    )
    ok = exact_ok and gamma_err <= 0.02 and gg_err <= 0.05
    report(
        8,
        ok,
        f"MoLC round trips: exact inputs worst rel err {worst_exact:.1e} "
        f"(bound 1e-6); sampled Gamma(L=4) err {gamma_err:.3f} (bound 0.02); "
        f"sampled GammaGamma(4,2) err {gg_err:.3f} (bound 0.05)",
    )


def test_criterion_09_texture_sweep_properties():
    config = cs.Fig1Config()  # defaults: L=4, mu=1, 13-point grid, N=1e6, seed 42
    table = cs.figure1_experiment(config)
    rows = table.rows

    k2 = [row.k2_texture_theory for row in rows]
    k4 = [row.k4_texture_theory for row in rows]
    decreasing = all(a > b for a, b in zip(k2, k2[1:])) and all(
        a > b for a, b in zip(k4, k4[1:])
    )
    tails = k2[-1] < 0.07 and k4[-1] < 0.01

    worst_pull = 0.0
    for index, row in enumerate(rows):
        samples = cs.figure1_point_samples(config, index)
        errors = cs.log_cumulant_standard_errors(samples, 4)
        pull2 = abs(row.k2_texture_est - row.k2_texture_theory) / errors[1]
        pull4 = abs(row.k4_texture_est - row.k4_texture_theory) / errors[3]
        worst_pull = max(worst_pull, pull2, pull4)
    within_se = worst_pull <= 4.0

    spiky = [row for row in rows if row.M in (0.25, 0.5)]
    smooth = [row for row in rows if row.M >= 1.0]
    assert len(spiky) == 2
    elevation = all(
        s.k2_texture_theory > r.k2_texture_theory
        and s.k4_texture_theory > r.k4_texture_theory
        and s.k2_texture_est > r.k2_texture_est
        and s.k4_texture_est > r.k4_texture_est
        for s in spiky
        for r in smooth
    )
    ok = decreasing and tails and within_se and elevation
    report(
        9,
        ok,
        f"texture sweep: theory curves strictly decreasing with tails "
        f"k2={k2[-1]:.4f} (<0.07), k4={k4[-1]:.5f} (<0.01); estimates within "
        f"4 s.e. at all 13 points (worst pull {worst_pull:.2f}); sub-unity "
        f"shape rows exceed all M >= 1 rows",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    sim_a, sim_b = tmp_path / "sim_a.csv", tmp_path / "sim_b.csv"
    sim_argv = [
        "simulate", "--model", "gamma_gamma", "--L", "4", "--M", "2", "--mu",
        "1", "--n", "20000", "--seed", "42",
    ]
    assert cli_run(sim_argv + ["--out", str(sim_a)]) == 0
    assert cli_run(sim_argv + ["--out", str(sim_b)]) == 0
    sim_ok = sim_a.read_bytes() == sim_b.read_bytes()

    fig_a, fig_b = tmp_path / "fig_a.csv", tmp_path / "fig_b.csv"
    fig_argv = [
        "figure1", "--L", "4", "--mu", "1", "--m-grid", "0.25:16:13",
        "--n", "20000", "--seed", "42",
    ]
    assert cli_run(fig_argv + ["--out", str(fig_a)]) == 0
    assert cli_run(fig_argv + ["--out", str(fig_b)]) == 0
    fig_ok = fig_a.read_bytes() == fig_b.read_bytes()
    capsys.readouterr()  # swallow the CLI's own stream output

    ok = sim_ok and fig_ok
    report(
        10,
        ok,
        "repeated simulate and figure1 invocations with identical flags are "
        "byte-identical",
    )
