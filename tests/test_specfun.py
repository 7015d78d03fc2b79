"""Special-function wrappers and the quadrature engine."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

import clutterstats as cs
from clutterstats.models import _log_density
from clutterstats.specfun import (
    Tolerance,
    _log_concave_integral,
    digamma,
    log_gamma,
    polygamma,
)
from clutterstats.verify import VERIFY_MODELS

TIGHT = Tolerance(rel_tol=1e-12, max_subdivisions=400)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0
        # Gamma(1/2) = sqrt(pi)
        assert log_gamma(0.5) == pytest.approx(0.5723649429247001, abs=1e-13)

    def test_recurrence(self):
        # ln Gamma(x+1) - ln Gamma(x) = ln x
        for x in np.geomspace(0.1, 100.0, 25):
            lhs = log_gamma(x + 1.0) - log_gamma(x)
            assert abs(lhs - math.log(x)) <= 1e-12 * max(1.0, abs(math.log(x)))

    def test_domain(self):
        with pytest.raises(cs.ParameterError):
            log_gamma(0.0)
        with pytest.raises(cs.ParameterError):
            log_gamma(-3.0)

    def test_accuracy_wide_range(self):
        # spot values against the exactly-known ln((n-1)!)
        assert log_gamma(11.0) == pytest.approx(math.log(3628800.0), rel=1e-14)
        assert log_gamma(1e6) == pytest.approx(12815504.569147733, rel=1e-13)


class TestPolygamma:
    def test_euler_constant(self):
        # psi(1) is minus the Euler constant
        assert polygamma(0, 1.0) == pytest.approx(-0.577215, abs=1e-6)
        assert digamma(1.0) == polygamma(0, 1.0)

    def test_trigamma_at_one(self):
        # psi'(1) = pi^2 / 6
        assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)

    def test_tetragamma_at_one(self):
        # psi''(1) = -2 zeta(3)
        assert polygamma(2, 1.0) == pytest.approx(-2.4041138063191885, abs=1e-12)

    def test_digamma_shift(self):
        # psi(2) = psi(1) + 1
        assert polygamma(0, 2.0) == pytest.approx(0.4227843350984671, abs=1e-12)

    def test_digamma_recurrence(self):
        for x in np.geomspace(0.1, 100.0, 30):
            lhs = polygamma(0, x + 1.0) - polygamma(0, x)
            assert abs(lhs - 1.0 / x) <= 1e-11

    def test_equals_scipy_bitwise(self):
        for order in range(1, 7):
            for x in np.geomspace(1e-8, 1e8, 400):
                assert polygamma(order, x) == float(
                    scipy.special.polygamma(order, x)
                ), (order, x)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_polygamma_recurrence(self, m):
        # psi^(m)(x+1) - psi^(m)(x) = (-1)^m m! x^-(m+1)
        for x in np.geomspace(0.1, 100.0, 30):
            lhs = polygamma(m, x + 1.0) - polygamma(m, x)
            rhs = (-1.0) ** m * math.factorial(m) * x ** (-(m + 1))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_domain_and_order(self):
        with pytest.raises(cs.ParameterError):
            polygamma(0, -1.0)
        with pytest.raises(cs.ParameterError):
            polygamma(7, 1.0)
        with pytest.raises(cs.ParameterError):
            polygamma(-1, 1.0)
        with pytest.raises(cs.ParameterError):
            polygamma(1.5, 1.0)


class TestLogConcaveIntegral:
    """ln Int exp(g(u)) du over the whole line; with u = ln x these are
    integrals over (0, inf) of x^(s-1) times a density."""

    def test_unit_exponential(self):
        # Int e^-x dx = Int exp(u - e^u) du
        result = _log_concave_integral(lambda u: u - np.exp(u), TIGHT)
        assert result == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.5, 1.0, 2.5, 5.0])
    def test_gamma_function_identity(self, s):
        # Gamma(s) = Int x^(s-1) e^-x dx, including the integrable
        # singularity at 0 for s < 1
        result = _log_concave_integral(lambda u: s * u - np.exp(u), TIGHT)
        assert result == pytest.approx(log_gamma(s), abs=1e-11)

    def test_cosh_integral(self):
        # 2 K_0(1) = Int exp(-cosh t) dt over the whole line
        oracle = 0.5 * math.exp(_log_concave_integral(lambda t: -np.cosh(t), TIGHT))
        assert oracle == pytest.approx(0.42102443824070834, rel=1e-10)

    def test_zero_at_start_and_narrow_peak(self):
        # Weibull(b=1000, z=1e-2): g is -inf at u = 0 and the peak is 1e-3
        # wide, 4.6 away
        model = cs.Weibull(b=1000.0, z=1e-2)
        result = _log_concave_integral(lambda u: u + _log_density(model, u), TIGHT)
        assert result == pytest.approx(0.0, abs=1e-12)

    def test_calls_on_arrays(self):
        # the probes, the bracket, each climb step, both walks and each
        # round of panels are one call of g each: Phi(1.5) of Gamma(2, 1) is
        # Gamma(2.5) / sqrt(2)
        model = VERIFY_MODELS[1]
        calls = []

        def g(u):
            calls.append(u.size)
            return 1.5 * u + _log_density(model, u)

        result = _log_concave_integral(g, TIGHT)
        assert result == pytest.approx(log_gamma(2.5) - 0.5 * math.log(2.0), abs=1e-12)
        assert len(calls) <= 8

    def test_non_convergence(self):
        # Int 1/(1 + x) dx diverges: g = u - ln(1 + e^u) rises to 0 and never
        # falls, so the walk reaches the end of the doubles and raises
        with pytest.raises(cs.NonConvergenceError):
            _log_concave_integral(
                lambda u: u - np.log1p(np.exp(u)), Tolerance(1e-10, 50)
            )
        # Gamma(0.05) is finite, but its g = 0.05 u - e^u falls by 60 only
        # beyond u = -1200, where x = e^u has left the doubles
        with pytest.raises(cs.NonConvergenceError):
            _log_concave_integral(lambda u: 0.05 * u - np.exp(u), TIGHT)

    def test_zero_at_every_probe(self):
        with pytest.raises(cs.NonConvergenceError, match="every probe"):
            _log_concave_integral(lambda u: np.full(u.shape, -math.inf), TIGHT)

    def test_peak_beyond_the_doubles(self):
        # g = u rises to the end of the doubles in e^u, where the climb
        # halves its steps down to adjacent doubles
        with pytest.raises(cs.NonConvergenceError, match="peak not found"):
            _log_concave_integral(lambda u: u, TIGHT)

    @pytest.mark.parametrize(
        "g",
        [
            # nan at the first probe, u = 0
            lambda u: np.full(u.shape, math.nan),
            # finite at the probes and the bracket, nan at the first climb
            # point, u = 3, on the way to the peak at 5
            lambda u: np.where(u < 2.5, -((u - 5.0) ** 2), math.nan),
            # finite at the probes, bracket and walks, which are integers
            # here, and nan at the panels' Gauss-Kronrod nodes
            lambda u: np.where(u == np.round(u), -u * u, math.nan),
        ],
        ids=["probe", "climb", "panel node"],
    )
    def test_not_representable_is_typed(self, g):
        with pytest.raises(cs.NumericOverflowError, match="not representable at u=-?[0-9]"):
            _log_concave_integral(g, TIGHT)

    def test_panels_over_budget(self):
        # a budget no Gauss-Kronrod error estimate of a Gaussian meets
        with pytest.raises(cs.NonConvergenceError, match="after 20 panels"):
            _log_concave_integral(
                lambda u: -u * u, Tolerance(rel_tol=1e-300, max_subdivisions=20)
            )


def test_import_leaves_out_scipy_integrate():
    # specfun's Gauss-Kronrod panels are the package's one quadrature engine,
    # the fit solves its shapes by its own Newton steps, and mpmath and
    # hypothesis are test-only extras (pyproject.toml); the CLI, whose start
    # pays for every import, loads none of them either
    modules = ("scipy.integrate", "scipy.optimize", "mpmath", "hypothesis")
    code = (
        "import sys, clutterstats, clutterstats.cli; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(cs.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestTolerance:
    def test_validation(self):
        with pytest.raises(cs.ParameterError):
            Tolerance(rel_tol=0.0)
        with pytest.raises(cs.ParameterError):
            Tolerance(max_subdivisions=0)
