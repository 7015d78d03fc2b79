"""The four benchmark workloads.

Each workload builds its inputs from the seed in `__init__` (this is part of
set-up) and runs one operation per `op(i)` call, on the input named by
`input_key(i)`.  After the timed loop, `check(outputs, refs)` compares every
output with values computed apart from the program (`references` computes
them once) or with a property the method must have.  `corrupt` returns the
outputs with one value made wrong; the run confirms that `check` rejects it,
which shows the check can fail.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import scipy.special as sp

import reference

FAMILIES = (
    "exponential", "gamma", "nakagami", "maxwell", "weibull", "rayleigh",
    "gamma_gamma", "k_amplitude", "weibull_nakagami", "fisher",
)

# Log-uniform parameter ranges per family.  k_amplitude's mu and
# weibull_nakagami's b are fixed at 1 because the fit fixes those scales.
# Gamma-gamma shapes are kept apart (M/L >= 2): at L = M the (k2, k3) system
# is singular and parameters are recovered to only about sqrt(eps).
# Weibull-Nakagami keeps c/alpha <= 1.25, away from the curve near
# c/alpha = 1.5..2.1 where the fit's root scan misses both roots and raises.
RANGES = {
    "exponential": {"mu": (0.1, 10.0)},
    "gamma": {"L": (0.2, 50.0), "mu": (0.1, 10.0)},
    "nakagami": {"L": (0.2, 50.0), "mu": (0.1, 10.0)},
    "maxwell": {"sigma": (0.1, 10.0)},
    "weibull": {"b": (0.3, 10.0), "z": (0.1, 10.0)},
    "rayleigh": {"z": (0.1, 10.0)},
    "gamma_gamma": {"L": (0.3, 2.5), "M": (5.0, 30.0), "mu": (0.1, 10.0)},
    "k_amplitude": {"alpha": (0.3, 30.0), "b": (0.1, 10.0), "mu": (1.0, 1.0)},
    "weibull_nakagami": {"c": (0.5, 2.5), "alpha": (2.0, 10.0), "b": (1.0, 1.0), "sigma": (0.1, 10.0)},
    "fisher": {"L": (0.5, 20.0), "M": (1.5, 20.0), "mu": (0.1, 10.0)},
    "inverse_gamma": {"M": (1.5, 20.0), "mu": (0.1, 10.0)},
}


def draw_params(rng, family, count):
    """`count` parameter dicts, stratified: each parameter's range is cut into
    `count` equal log-width cells, one draw per cell, cells shuffled."""
    columns = {}
    for name, (lo, hi) in RANGES[family].items():
        u = (rng.permutation(count) + rng.random(count)) / count
        columns[name] = np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return [{name: float(col[k]) for name, col in columns.items()} for k in range(count)]


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


def scaled_err(value, ref):
    """Error relative to |ref|, or absolute where |ref| < 1 (values near 0)."""
    return abs(value - ref) / max(1.0, abs(ref))


def make(name, cs, seed):
    return {"sweep": Sweep, "fit": Fit, "closed_form": ClosedForm, "oracle": Oracle}[name](cs, seed)


# ---------------------------------------------------------------------------


class Sweep:
    """One-point texture log-cumulant sweeps: L = 4, mu = 1, M cycling
    through the 13 default texture shapes, a fresh seed per op."""

    L, MU = 4.0, 1.0
    DRAWS = 300_000  # 2.4 MB per float64 array: above a 2 MiB L2, inside L3
    BATCHES = 50  # batch split for the standard errors of the checks
    Z_MAX = 6.0  # texture estimates must lie within 6 standard errors
    RTOL = 1e-12

    def __init__(self, cs, seed):
        self.cs = cs
        self.grid = cs.default_m_grid()
        rng = np.random.default_rng([seed, 0])
        # one-point grids always use point index 0, so distinct seeds give
        # distinct streams
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=4096)]

    def config(self, i):
        return self.cs.Fig1Config(
            L=self.L, mu=self.MU, M_grid=(self.grid[i % len(self.grid)],),
            samples_per_point=self.DRAWS, seed=self.seeds[i % len(self.seeds)],
        )

    def warm_up(self):
        self.op(len(self.seeds) - 1)

    def input_key(self, i):
        return i

    def op(self, i):
        return self.cs.figure1_experiment(self.config(i)).rows[0]

    def _reference(self, i):
        M = self.grid[i % len(self.grid)]
        k = reference.sp_cumulants("gamma_gamma", {"L": self.L, "M": M, "mu": self.MU}, 4)
        m = reference.moments_from_cumulants(k)
        values = self.cs.figure1_point_samples(self.config(i), 0).values
        logs = np.log(values)
        squares = logs * logs
        batches = np.array_split(logs, self.BATCHES)
        k2, k4 = [], []
        for b in batches:
            c = b - b.mean()
            c2 = np.mean(c * c)
            k2.append(c2)
            k4.append(np.mean(c**4) - 3.0 * c2 * c2)
        return {
            "M": M,
            "m2_data_theory": m[1],
            "m4_data_theory": m[3],
            "k2_texture_theory": float(sp.polygamma(1, M)),
            "k4_texture_theory": float(sp.polygamma(3, M)),
            "m2_data_est": math.fsum(squares) / values.size,
            "m4_data_est": math.fsum(squares * squares) / values.size,
            "k2_se": float(np.std(k2, ddof=1) / math.sqrt(self.BATCHES)),
            "k4_se": float(np.std(k4, ddof=1) / math.sqrt(self.BATCHES)),
        }

    def references(self, outputs):
        return {i: self._reference(i) for i, _ in outputs}

    def check(self, outputs, refs):
        failures = []
        for i, row in outputs:
            ref = refs[i]
            if row.M != ref["M"]:
                failures.append(f"op {i}: M={row.M!r}, expected {ref['M']!r}")
            for col in ("m2_data_theory", "m4_data_theory", "k2_texture_theory",
                        "k4_texture_theory", "m2_data_est", "m4_data_est"):
                if not rel_err(getattr(row, col), ref[col]) <= self.RTOL:
                    failures.append(f"op {i}: {col}={getattr(row, col)!r}, reference {ref[col]!r}")
            for order in (2, 4):
                est = getattr(row, f"k{order}_texture_est")
                z = (est - ref[f"k{order}_texture_theory"]) / ref[f"k{order}_se"]
                if not abs(z) <= self.Z_MAX:
                    failures.append(f"op {i}: k{order}_texture_est is {z:.2f} standard errors off")
        return failures

    def corrupt(self, outputs):
        i, row = outputs[0]
        bad = dataclasses.replace(row, m4_data_est=row.m4_data_est * (1.0 + 1e-9))
        return [(i, bad)] + outputs[1:]


# ---------------------------------------------------------------------------


class Fit:
    """MoLC fits from the log-cumulants (orders 1..4) of known models.  An op
    is ROUNDS rounds of one fit per family, so that ops last long enough for
    their tail to span seconds of a run.  A pool of POOL models per family,
    drawn from the seed, is cycled in the same order every run."""

    POOL = 64
    ROUNDS = 4
    RTOL = 1e-6

    def __init__(self, cs, seed):
        self.cs = cs
        rng = np.random.default_rng([seed, 1])
        self.truth = {f: draw_params(rng, f, self.POOL) for f in FAMILIES}
        # cumulants come from the reference formulas, not from the program
        self.inputs = {
            f: [cs.LogStats(cs.KIND_LOG_CUMULANTS, cs.CONVENTION_STANDARD,
                            tuple(reference.sp_cumulants(f, p, 4)))
                for p in self.truth[f]]
            for f in FAMILIES
        }

    def _models(self, i):
        """Pool indices fitted by op i."""
        return [(self.ROUNDS * i + r) % self.POOL for r in range(self.ROUNDS)]

    def warm_up(self):
        self.op(self.POOL // self.ROUNDS - 1)

    def input_key(self, i):
        return i % (self.POOL // self.ROUNDS)

    def op(self, i):
        return [self.cs.fit_molc(f, self.inputs[f][k]) for k in self._models(i) for f in FAMILIES]

    def references(self, outputs):
        return self.truth

    def check(self, outputs, refs):
        failures = []
        for i, reports in outputs:
            cases = [(k, f) for k in self._models(i) for f in FAMILIES]
            for (k, family), report in zip(cases, reports):
                truth = refs[family][k]
                got = self.cs.model_to_dict(report.model)
                if got["family"] != family or not report.converged:
                    failures.append(f"op {i}: {family} fit gave {got}, converged={report.converged}")
                    continue
                for name, value in truth.items():
                    if not rel_err(got[name], value) <= self.RTOL:
                        failures.append(f"op {i}: {family} {name}={got[name]!r}, truth {value!r}")
        return failures

    def corrupt(self, outputs):
        i, reports = outputs[0]
        report = reports[1]  # gamma
        model = dataclasses.replace(report.model, L=report.model.L * (1.0 + 1e-4))
        bad = list(reports)
        bad[1] = dataclasses.replace(report, model=model)
        return [(i, bad)] + outputs[1:]


# ---------------------------------------------------------------------------


class ClosedForm:
    """A fixed batch of closed-form calls on all eleven models: phi and psi at
    s = 1 and at three seeded points inside the strip, classical moments of
    orders 1..3 where finite, log_moments to order 4 and log_cumulants to
    order 6.  The batch holds SETS seeded parameter sets of every model and is
    the same in every op."""

    SETS = 64
    S_MAX = 5.0
    RTOL = 1e-12  # against the 30-digit reference
    IDENTITY_RTOL = 1e-13  # compound product / additivity, program vs program

    def __init__(self, cs, seed):
        self.cs = cs
        rng = np.random.default_rng([seed, 2])
        families = FAMILIES + ("inverse_gamma",)
        params = {f: draw_params(rng, f, self.SETS) for f in families}
        self.batch = []
        for k in range(self.SETS):
            for f in families:
                p = params[f][k]
                lo, hi = reference.strip(f, p)
                lo, hi = max(lo, -2.0) + 0.1, min(hi, self.S_MAX) - 0.1
                s = (1.0,) + tuple(float(x) for x in np.sort(rng.uniform(lo, hi, 3)))
                orders = tuple(n for n in (1, 2, 3) if n + 1 < hi)
                self.batch.append((f, p, cs.model_from_dict({"family": f, **p}), s, orders))

    def warm_up(self):
        self.op(0)

    def input_key(self, i):
        return 0

    def op(self, i):
        return [self._evaluate(model, s_points, orders) for _, _, model, s_points, orders in self.batch]

    def _evaluate(self, model, s_points, orders):
        return (
            tuple(self.cs.phi(model, s) for s in s_points),
            tuple(self.cs.psi(model, s) for s in s_points),
            tuple(self.cs.classical_moment(model, n) for n in orders),
            self.cs.log_moments(model, 4).values,
            self.cs.log_cumulants(model, 6).values,
        )

    def _reference(self, family, p, s_points, orders):
        exp = reference.mpmath().exp
        log_phi = [reference.mp_log_phi(family, p, s) for s in s_points]
        k = reference.mp_cumulants(family, p, 6)
        return (
            tuple(float(exp(v)) for v in log_phi),
            tuple(float(v) for v in log_phi),
            tuple(float(exp(reference.mp_log_phi(family, p, n + 1))) for n in orders),
            tuple(float(v) for v in reference.moments_from_cumulants(k[:4])),
            tuple(float(v) for v in k),
        )

    def references(self, outputs):
        """The 30-digit references, plus the program-side values the outputs
        must reproduce: the product of the factors' Phi and the sum of their
        log-cumulants for compound models, and the evaluation with L and M
        swapped for gamma-gamma."""
        cs = self.cs
        refs = []
        for family, p, model, s_points, orders in self.batch:
            entry = {"mp": self._reference(family, p, s_points, orders)}
            if isinstance(model, (cs.GammaGamma, cs.KAmplitude, cs.WeibullNakagami, cs.Fisher)):
                parts = cs.decompose(model)
                entry["product"] = tuple(cs.phi(parts.speckle, s) * cs.phi(parts.texture, s) for s in s_points)
                entry["sum"] = tuple(
                    a + b for a, b in zip(cs.log_cumulants(parts.speckle, 6).values,
                                          cs.log_cumulants(parts.texture, 6).values)
                )
            if isinstance(model, cs.GammaGamma):
                swapped = dataclasses.replace(model, L=model.M, M=model.L)
                entry["swapped"] = self._evaluate(swapped, s_points, orders)
            refs.append(entry)
        return refs

    def check(self, outputs, refs):
        failures = []
        checked = set()  # the run loop keeps one object for equal outputs
        for i, batch_out in outputs:
            if id(batch_out) in checked:
                continue
            checked.add(id(batch_out))
            for (family, _, _, _, _), got, ref in zip(self.batch, batch_out, refs):
                where = f"op {i} {family}"
                phis, psis, moments, lm, lc = got
                if phis[0] != 1.0:
                    failures.append(f"{where}: phi(1) = {phis[0]!r}")
                mp_phi, mp_psi, mp_mom, mp_lm, mp_lc = ref["mp"]
                for label, values, expected, err in (
                    ("phi", phis, mp_phi, rel_err), ("psi", psis, mp_psi, scaled_err),
                    ("classical_moment", moments, mp_mom, rel_err),
                    ("log_moments", lm, mp_lm, scaled_err), ("log_cumulants", lc, mp_lc, scaled_err),
                ):
                    for n, (v, r) in enumerate(zip(values, expected)):
                        if not err(v, r) <= self.RTOL:
                            failures.append(f"{where}: {label}[{n}]={v!r}, reference {r!r}")
                if "product" in ref:
                    for v, r in zip(phis, ref["product"]):
                        if not rel_err(v, r) <= self.IDENTITY_RTOL:
                            failures.append(f"{where}: phi={v!r}, product of factors {r!r}")
                    for v, r in zip(lc, ref["sum"]):
                        if not scaled_err(v, r) <= self.IDENTITY_RTOL:
                            failures.append(f"{where}: log-cumulant {v!r}, sum of factors {r!r}")
                if "swapped" in ref and got != ref["swapped"]:
                    failures.append(f"{where}: results change when L and M are swapped")
        return failures

    def corrupt(self, outputs):
        i, batch_out = outputs[0]
        phis, *rest = batch_out[1]  # gamma
        bad = list(batch_out)
        bad[1] = ((phis[0], phis[1] * (1.0 + 1e-10)) + phis[2:], *rest)
        return [(i, bad)] + outputs[1:]


# ---------------------------------------------------------------------------


class Oracle:
    """The `verify` subcommand, run in-process with stdout captured.  Its
    inputs are fixed by the program; the seed picks the spot values of Phi
    that the check compares against quadrature of the textbook densities."""

    SPOT_FAMILIES = {
        "gamma": {"L": (0.5, 5.0), "mu": (0.5, 3.0)},
        "fisher": {"L": (1.0, 5.0), "M": (3.0, 8.0), "mu": (0.5, 3.0)},
        "gamma_gamma": {"L": (0.8, 3.0), "M": (3.5, 8.0), "mu": (0.5, 3.0)},
    }
    SPOT_RTOL = 1e-8

    def __init__(self, cs, seed):
        self.cs = cs
        rng = np.random.default_rng([seed, 3])
        self.spots = []
        for family, ranges in self.SPOT_FAMILIES.items():
            for _ in range(2):
                p = {n: float(np.exp(rng.uniform(np.log(lo), np.log(hi)))) for n, (lo, hi) in ranges.items()}
                lo, hi = reference.strip(family, p)
                s = float(rng.uniform(max(lo, 0.0) + 0.2, min(hi, 3.0) - 0.2))
                self.spots.append((family, p, s))

    def warm_up(self):
        self.op(0)

    def input_key(self, i):
        return 0

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cs.cli.run(["verify", "--format", "json"])
        return code, buf.getvalue()

    def references(self, outputs):
        """Spot values: the program's phi and phi_numeric beside quadrature
        of the textbook density."""
        values = []
        for family, p, s in self.spots:
            model = self.cs.model_from_dict({"family": family, **p})
            values.append((family, s, self.cs.phi(model, s), self.cs.phi_numeric(model, s),
                           reference.quad_phi(family, p, s)))
        return values

    def check(self, outputs, refs):
        failures = []
        for family, s, closed, numeric, quad in refs:
            for label, v in (("phi", closed), ("phi_numeric", numeric)):
                if not rel_err(v, quad) <= self.SPOT_RTOL:
                    failures.append(f"{family} {label}({s:g})={v!r}, quadrature {quad!r}")
        names = None
        for i, (code, text) in outputs:
            doc = json.loads(text)
            if code != 0 or doc["passed"] is not True:
                failures.append(f"op {i}: exit code {code}, passed={doc['passed']}")
            for c in doc["checks"]:
                if not (c["passed"] is True and c["error"] <= c["tolerance"]):
                    failures.append(f"op {i}: {c['name']} error {c['error']} > {c['tolerance']}")
            these = [c["name"] for c in doc["checks"]]
            names = names or these
            if these != names:
                failures.append(f"op {i}: the checks run differ from op 0's")
        covered = {n.split("[")[-1].rstrip("]") for n in names or ()}
        if not covered >= set(FAMILIES):
            failures.append(f"checks cover only {sorted(covered)}")
        return failures

    def corrupt(self, outputs):
        i, (code, text) = outputs[0]
        doc = json.loads(text)
        doc["checks"][0]["error"] = 2.0 * doc["checks"][0]["tolerance"]
        return [(i, (code, json.dumps(doc)))] + outputs[1:]
