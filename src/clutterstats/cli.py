"""Command-line front end.

Subcommands: pdf, phi, moments, cumulants, fit, simulate, figure1, verify.
Exit codes: 0 success, 1 usage error, 2 numeric non-convergence/overflow,
3 parameter-domain error; errors print one diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import MISSING, asdict, fields

from . import estimate, mellin, models, simulate, verify
from .errors import NonConvergenceError, NumericOverflowError, ParameterError
from .mellin import CONVENTION_PAPER_EQ6, KIND_LOG_CUMULANTS

__all__ = ["main", "run"]

DEFAULT_SEED = 42

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NUMERIC = 2
_EXIT_DOMAIN = 3

# one --<field> flag per parameter name of any family
_MODEL_FLAGS = tuple(
    dict.fromkeys(f.name for cls in models.FAMILIES.values() for f in fields(cls))
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -N and -N.N as numbers; here -5e-1 and -inf are too
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits 2 on bad usage by default; this CLI reserves 2 for
    # numeric failures and uses 1 for usage problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", required=True, help=f"family name: {', '.join(sorted(models.FAMILIES))}"
    )
    for name in _MODEL_FLAGS:
        parser.add_argument(f"--{name}", type=float, default=None)


def _add_format_flag(parser: argparse.ArgumentParser, default="csv") -> None:
    parser.add_argument("--format", choices=("csv", "json"), default=default)


def build_parser() -> _Parser:
    parser = _Parser(prog="clutterstats", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdf", help="evaluate a density")
    p.set_defaults(handler=_cmd_pdf)
    _add_model_flags(p)
    p.add_argument("--x", type=float, required=True)
    _add_format_flag(p)

    p = sub.add_parser("phi", help="second-kind characteristic function")
    p.set_defaults(handler=_cmd_phi)
    _add_model_flags(p)
    p.add_argument("--s", type=float, required=True)
    _add_format_flag(p)

    p = sub.add_parser("moments", help="classical moment of order n")
    p.set_defaults(handler=_cmd_moments)
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    _add_format_flag(p)

    p = sub.add_parser("cumulants", help="log-cumulants up to order n")
    p.set_defaults(handler=_cmd_cumulants)
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--convention", choices=("standard", "paper-eq6"), default="standard"
    )
    p.add_argument(
        "--numeric",
        action="store_true",
        help="use the Cauchy-integral oracle instead of closed forms",
    )
    _add_format_flag(p)

    p = sub.add_parser("fit", help="method-of-log-cumulants fit from samples")
    p.set_defaults(handler=_cmd_fit)
    p.add_argument("--family", required=True)
    p.add_argument("--input", required=True, help="CSV file with header 'value'")
    _add_format_flag(p, default="json")

    p = sub.add_parser("simulate", help="draw samples to a CSV file")
    p.set_defaults(handler=_cmd_simulate)
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    _add_format_flag(p)

    p = sub.add_parser("figure1", help="texture log-cumulant sweep")
    p.set_defaults(handler=_cmd_figure1)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument(
        "--m-grid",
        default="0.25:16:13",
        help="lo:hi:points, log-spaced inclusive grid of texture shapes",
    )
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    _add_format_flag(p)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--tolerance", type=float, default=1e-6)
    _add_format_flag(p)

    return parser


def _model_from_flags(ns: argparse.Namespace) -> models.ClutterModel:
    name = ns.model
    cls = models.FAMILIES.get(name)
    if cls is None:
        raise _UsageError(
            f"unknown model family {name!r}; expected one of "
            f"{', '.join(sorted(models.FAMILIES))}"
        )
    given = {
        flag: getattr(ns, flag)
        for flag in _MODEL_FLAGS
        if getattr(ns, flag) is not None
    }
    expected = {f.name for f in fields(cls)}
    extra = set(given) - expected
    if extra:
        raise _UsageError(
            f"family {name!r} does not take --{sorted(extra)[0]} "
            f"(its parameters: {', '.join(sorted(expected))})"
        )
    missing = sorted(
        f.name for f in fields(cls) if f.default is MISSING and f.name not in given
    )
    if missing:
        raise _UsageError(f"family {name!r} requires parameters {missing}")
    return models.model_from_dict({"family": name, **given})


def _emit_value(ns: argparse.Namespace, value: float) -> None:
    if ns.format == "json":
        print(json.dumps({"value": value}))
    else:
        print(repr(float(value)))


def _cmd_pdf(ns) -> int:
    model = _model_from_flags(ns)
    _emit_value(ns, models.pdf(model, ns.x))
    return _EXIT_OK


def _cmd_phi(ns) -> int:
    model = _model_from_flags(ns)
    _emit_value(ns, mellin.phi(model, ns.s))
    return _EXIT_OK


def _cmd_moments(ns) -> int:
    model = _model_from_flags(ns)
    _emit_value(ns, mellin.classical_moment(model, ns.n))
    return _EXIT_OK


def _cmd_cumulants(ns) -> int:
    model = _model_from_flags(ns)
    if ns.numeric:
        stats = mellin.log_cumulants_numeric(model, ns.n)
    else:
        stats = mellin.log_cumulants(model, ns.n)
    if ns.convention == "paper-eq6":
        if ns.n > 4:
            raise _UsageError("--convention paper-eq6 supports orders up to 4")
        stats = mellin.convert(stats, KIND_LOG_CUMULANTS, CONVENTION_PAPER_EQ6)
    if ns.format == "json":
        record = {"kind": stats.kind, "convention": stats.convention}
        print(json.dumps({**record, "values": list(stats.values)}))
    else:
        print("order,value")
        for order, value in enumerate(stats.values, start=1):
            print(f"{order},{value!r}")
    return _EXIT_OK


def _cmd_fit(ns) -> int:
    samples = estimate.load_samples_csv(ns.input)
    cumulants = estimate.empirical_log_cumulants(samples, 4)
    report = estimate.fit_molc(ns.family, cumulants)
    record = report.to_dict()
    if ns.format == "json":
        print(json.dumps(record))
    else:
        print("key,value")
        for key, value in record.items():
            print(f"{key},{value}")
    return _EXIT_OK


def _resolve_seed(ns) -> int:
    if ns.seed is None:
        print(f"seed not given; using default {DEFAULT_SEED}", file=sys.stderr)
        return DEFAULT_SEED
    return ns.seed


def _write_output(ns, text: str) -> None:
    if ns.out is None:
        sys.stdout.write(text)
    else:
        with open(ns.out, "w", newline="") as handle:
            handle.write(text)


def _cmd_simulate(ns) -> int:
    model = _model_from_flags(ns)
    seed = _resolve_seed(ns)
    samples = simulate.sample(model, ns.n, simulate.RngState(seed))
    if ns.format == "json":
        text = json.dumps({"values": [float(v) for v in samples.values]}) + "\n"
    else:
        text = "value\n" + "".join(f"{float(v)!r}\n" for v in samples.values)
    _write_output(ns, text)
    return _EXIT_OK


def _parse_grid(spec: str):
    try:
        lo, hi, points = spec.split(":")
        lo, hi, points = float(lo), float(hi), int(points)
    except ValueError:
        raise _UsageError(f"--m-grid must be lo:hi:points, got {spec!r}") from None
    if points < 1 or lo <= 0 or hi < lo:
        raise _UsageError(f"invalid grid {spec!r}")
    return simulate._log_grid(lo, hi, points)


def _cmd_figure1(ns) -> int:
    seed = _resolve_seed(ns)
    config = simulate.Fig1Config(
        L=ns.L,
        mu=ns.mu,
        M_grid=_parse_grid(ns.m_grid),
        samples_per_point=ns.n,
        seed=seed,
    )
    table = simulate.figure1_experiment(config)
    text = table.to_json() + "\n" if ns.format == "json" else table.to_csv()
    _write_output(ns, text)
    return _EXIT_OK


def _cmd_verify(ns) -> int:
    checks = verify.run_suite(ns.tolerance)
    ok = all(check.passed for check in checks)
    if ns.format == "json":
        records = [asdict(c) for c in checks]
        print(json.dumps({"passed": ok, "tolerance": ns.tolerance, "checks": records}))
    else:
        width = max(len(c.name) for c in checks)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(
                f"{status}  {c.name:<{width}}  err={c.error:.3e}  "
                f"tol={c.tolerance:.1e}  {c.detail}"
            )
        print(f"{'all checks passed' if ok else 'FAILURES detected'}")
    return _EXIT_OK if ok else _EXIT_NUMERIC


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        return ns.handler(ns)
    except _UsageError as exc:
        print(f"clutterstats: error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ParameterError as exc:
        print(f"clutterstats: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (NonConvergenceError, NumericOverflowError, OverflowError) as exc:
        print(f"clutterstats: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:
        print(f"clutterstats: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
