"""Reference values computed apart from clutterstats.

Every family in the package is a constant times a product of powers of
independent gamma variates: ln X = c0 + sum_j c_j ln G(a_j), with G(a) a
unit-scale gamma variate of shape a.  The factor lists below follow from the
densities written in the model docstrings (for example, a K amplitude is
mu * sqrt(E * T) with E ~ Exp(1) and T ~ Gamma(alpha, rate b)).  From them:

    Phi(s)  = exp(c0 d) * prod_j Gamma(a_j + c_j d) / Gamma(a_j),  d = s - 1
    k_1     = c0 + sum_j c_j psi(a_j)
    k_n     = sum_j c_j^n psi^(n-1)(a_j)                           n >= 2

The program's own tables are written per family by hand; nothing here calls
into it.  `mp_*` functions use mpmath at 30 digits; `sp_*` use
scipy.special in double precision; the densities feed scipy.integrate.quad.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.integrate
import scipy.special as sp


def factors(family, p):
    """(c0, [(c_j, a_j), ...]) for a model given as family name and a dict
    of its parameters."""
    if family == "exponential":
        return math.log(p["mu"]), [(1.0, 1.0)]
    if family == "gamma":
        return math.log(p["mu"] / p["L"]), [(1.0, p["L"])]
    if family == "nakagami":
        return 0.5 * math.log(p["mu"] ** 2 / p["L"]), [(0.5, p["L"])]
    if family == "maxwell":
        return 0.5 * math.log(2.0 * p["sigma"] ** 2), [(0.5, 1.5)]
    if family == "weibull":
        return math.log(p["z"]), [(1.0 / p["b"], 1.0)]
    if family == "rayleigh":
        return math.log(p["z"]), [(0.5, 1.0)]
    if family == "gamma_gamma":
        return math.log(p["mu"] / (p["L"] * p["M"])), [(1.0, p["L"]), (1.0, p["M"])]
    if family == "k_amplitude":
        return math.log(p["mu"]) - 0.5 * math.log(p["b"]), [(0.5, 1.0), (0.5, p["alpha"])]
    if family == "weibull_nakagami":
        return 0.5 * math.log(p["sigma"] / p["b"]), [(0.5, p["alpha"]), (1.0 / p["c"], 1.0)]
    if family == "fisher":
        return math.log(p["M"] * p["mu"] / p["L"]), [(1.0, p["L"]), (-1.0, p["M"])]
    if family == "inverse_gamma":
        return math.log(p["mu"]), [(-1.0, p["M"])]
    raise ValueError(f"no reference for family {family!r}")


def strip(family, p):
    """Open interval of real s where Phi(s) is finite: every a_j + c_j d > 0."""
    _, parts = factors(family, p)
    lo, hi = -math.inf, math.inf
    for c, a in parts:
        if c > 0:
            lo = max(lo, 1.0 - a / c)
        else:
            hi = min(hi, 1.0 + a / -c)
    return lo, hi


# ---------------------------------------------------------------------------
# double precision (scipy.special)


def sp_cumulants(family, p, max_n):
    c0, parts = factors(family, p)
    k = [c0 + sum(c * float(sp.psi(a)) for c, a in parts)]
    for n in range(2, max_n + 1):
        k.append(sum(c**n * float(sp.polygamma(n - 1, a)) for c, a in parts))
    return k


def moments_from_cumulants(k):
    """m_n = sum_{j=1}^{n} C(n-1, j-1) k_j m_{n-j}, m_0 = 1 (works for
    floats and mpf alike)."""
    m = [1]
    for n in range(1, len(k) + 1):
        m.append(sum(math.comb(n - 1, j - 1) * k[j - 1] * m[n - j] for j in range(1, n + 1)))
    return m[1:]


# ---------------------------------------------------------------------------
# 30-digit mpmath (imported on first use: only the checks need it)


@lru_cache(maxsize=None)
def mpmath():
    import mpmath as mp

    mp.mp.dps = 30
    return mp


@lru_cache(maxsize=None)
def _mp_polygamma(order, a):
    mp = mpmath()
    return mp.psi(order, mp.mpf(a))


def mp_cumulants(family, p, max_n):
    mp = mpmath()
    c0, parts = factors(family, p)
    k = [mp.mpf(c0) + sum(mp.mpf(c) * _mp_polygamma(0, a) for c, a in parts)]
    for n in range(2, max_n + 1):
        k.append(sum(mp.mpf(c) ** n * _mp_polygamma(n - 1, a) for c, a in parts))
    return k


def mp_log_phi(family, p, s):
    mp = mpmath()
    c0, parts = factors(family, p)
    d = mp.mpf(s) - 1
    total = mp.mpf(c0) * d
    for c, a in parts:
        total += mp.loggamma(mp.mpf(a) + mp.mpf(c) * d) - mp.loggamma(mp.mpf(a))
    return total


# ---------------------------------------------------------------------------
# Densities and quadrature, for spot values of Phi


def density(family, p, x):
    """Textbook density of three families (gamma, Fisher, gamma-gamma)."""
    if family == "gamma":
        L, mu = p["L"], p["mu"]
        return math.exp(L * math.log(L / mu) + (L - 1) * math.log(x) - L * x / mu - sp.gammaln(L))
    if family == "fisher":
        L, M, mu = p["L"], p["M"], p["mu"]
        lam = L * x / (M * mu)
        return math.exp(
            sp.gammaln(L + M) - sp.gammaln(L) - sp.gammaln(M) + math.log(L / (M * mu))
            + (L - 1) * math.log(lam) - (L + M) * math.log1p(lam)
        )
    if family == "gamma_gamma":
        L, M, mu = p["L"], p["M"], p["mu"]
        w = 2.0 * math.sqrt(L * M * x / mu)
        return math.exp(
            math.log(2.0) - sp.gammaln(L) - sp.gammaln(M) + 0.5 * (L + M) * math.log(L * M / mu)
            + (0.5 * (L + M) - 1) * math.log(x) + math.log(sp.kve(M - L, w)) - w
        )
    raise ValueError(f"no density for family {family!r}")


def quad_phi(family, p, s):
    """Int_0^inf x^(s-1) f(x) dx by quad, split at the scale parameter."""
    scale = p["mu"]

    def f(x):
        return x ** (s - 1.0) * density(family, p, x) if x > 0 else 0.0

    head = scipy.integrate.quad(f, 0.0, scale, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    tail = scipy.integrate.quad(f, scale, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return head + tail
