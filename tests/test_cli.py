"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import math

import pytest

import clutterstats as cs
from clutterstats import verify
from clutterstats.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_phi_example(self, capsys):
        code, out, _ = invoke(
            capsys, "phi", "--model", "gamma", "--L", "2", "--mu", "3", "--s", "2"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(3.0, rel=1e-12)

    def test_moments_example(self, capsys):
        code, out, _ = invoke(
            capsys, "moments", "--model", "exponential", "--mu", "2", "--n", "3"
        )
        assert code == 0
        assert float(out.strip()) == 48.0

    def test_pdf(self, capsys):
        code, out, _ = invoke(
            capsys, "pdf", "--model", "rayleigh", "--z", "1", "--x", "1"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(
            cs.pdf(cs.Rayleigh(1.0), 1.0), rel=1e-15
        )

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "phi",
            "--model",
            "weibull",
            "--b",
            "2",
            "--z",
            "1.5",
            "--s",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["value"] == pytest.approx(2.25, rel=1e-12)


class TestCumulantsCommand:
    def test_csv_output(self, capsys):
        code, out, _ = invoke(
            capsys, "cumulants", "--model", "gamma", "--L", "1", "--mu", "1", "--n", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,value"
        assert len(lines) == 3
        order, value = lines[1].split(",")
        assert order == "1"
        assert float(value) == pytest.approx(-0.5772156649, abs=1e-9)

    def test_json_output(self, capsys):
        code, out, _ = invoke(
            capsys,
            "cumulants",
            "--model",
            "gamma",
            "--L",
            "2",
            "--mu",
            "1",
            "--n",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "log_cumulants"
        assert record["convention"] == "standard"
        assert len(record["values"]) == 4

    def test_paper_convention_differs_at_fourth_order(self, capsys):
        base = ["cumulants", "--model", "gamma", "--L", "2", "--mu", "1", "--n", "4",
                "--format", "json"]
        _, out_std, _ = invoke(capsys, *base)
        _, out_pap, _ = invoke(capsys, *base, "--convention", "paper-eq6")
        std = json.loads(out_std)["values"]
        pap = json.loads(out_pap)["values"]
        assert std[:3] == pytest.approx(pap[:3], rel=1e-12)
        assert std[3] != pytest.approx(pap[3], rel=1e-6)

    def test_numeric_oracle(self, capsys):
        for n in (2, 6):
            base = ["cumulants", "--model", "weibull", "--b", "2", "--z", "1",
                    "--n", str(n), "--format", "json"]
            code, out, _ = invoke(capsys, *base, "--numeric")
            assert code == 0
            values = json.loads(out)["values"]
            assert len(values) == n
            assert values[1] == pytest.approx(0.4112335, abs=1e-5)
            _, closed, _ = invoke(capsys, *base)
            assert values == pytest.approx(json.loads(closed)["values"], rel=1e-12)

    @pytest.mark.parametrize(
        "flags, numeric",
        [
            (["--model", "weibull", "--b", "1e-300", "--z", "1"], False),
            (["--model", "gamma", "--L", "1e-300", "--mu", "1"], False),
            (["--model", "weibull", "--b", "1e-300", "--z", "1"], True),
            (["--model", "gamma", "--L", "1e-300", "--mu", "1"], True),
            (["--model", "gamma", "--L", "1e300", "--mu", "1"], True),
        ],
        ids=["weibull", "gamma", "weibull-numeric", "gamma-numeric", "huge-gamma-numeric"],
    )
    def test_beyond_the_doubles_is_two(self, capsys, flags, numeric):
        args = ["cumulants", *flags, "--n", "2"] + (["--numeric"] if numeric else [])
        code, out, err = invoke(capsys, *args)
        assert code == 2
        assert out == ""
        assert "log-cumulant of order 2 of" in err


    @pytest.mark.parametrize("numeric", [False, True], ids=["closed", "numeric"])
    def test_scale_ratio_below_the_doubles(self, capsys, numeric):
        # mu / L = 1e-600 underflows, yet k1 = ln(mu / L) + psi(L) is a double
        args = ["cumulants", "--model", "gamma", "--L", "1e300", "--mu", "1e-300",
                "--n", "1"] + (["--numeric"] if numeric else [])
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        header, row = out.strip().splitlines()
        assert (header, row.split(",")[0]) == ("order,value", "1")
        assert float(row.split(",")[1]) == pytest.approx(-690.7755278982137, rel=1e-15)


class TestExitCodes:
    def test_domain_error_is_three(self, capsys):
        code, _, err = invoke(
            capsys, "pdf", "--model", "gamma", "--L", "-1", "--mu", "1", "--x", "1"
        )
        assert code == 3
        assert "parameter L" in err

    def test_moment_divergence_is_three(self, capsys):
        code, _, err = invoke(
            capsys,
            "moments",
            "--model",
            "fisher",
            "--L",
            "2",
            "--M",
            "1.5",
            "--mu",
            "1",
            "--n",
            "2",
        )
        assert code == 3
        assert "moment diverges" in err

    def test_unknown_flag_is_one(self, capsys):
        code, _, _ = invoke(capsys, "pdf", "--model", "gamma", "--nope", "1")
        assert code == 1

    def test_unknown_family_is_one(self, capsys):
        code, _, err = invoke(capsys, "phi", "--model", "cauchy", "--s", "1")
        assert code == 1
        assert "unknown model family" in err

    def test_missing_parameter_is_one(self, capsys):
        code, _, err = invoke(capsys, "phi", "--model", "gamma", "--L", "2", "--s", "1")
        assert code == 1
        assert err == "clutterstats: error: family 'gamma' requires parameters ['mu']\n"

    def test_wrong_parameter_is_one(self, capsys):
        code, _, err = invoke(
            capsys, "phi", "--model", "gamma", "--L", "2", "--mu", "1",
            "--sigma", "3", "--s", "1"
        )
        assert code == 1
        assert "does not take" in err

    def test_unknown_subcommand_is_one(self, capsys):
        code, _, _ = invoke(capsys, "transmogrify")
        assert code == 1

    def test_missing_input_file_is_usage(self, capsys):
        code, _, _ = invoke(capsys, "fit", "--family", "gamma", "--input", "/no/such")
        assert code == 1

    def test_paper_convention_beyond_fourth_order_is_one(self, capsys):
        code, out, err = invoke(
            capsys, "cumulants", "--model", "gamma", "--L", "2", "--mu", "1",
            "--n", "5", "--convention", "paper-eq6",
        )
        assert (code, out) == (1, "")
        assert "paper-eq6" in err


class TestNegativeValues:
    # argparse reads only -N and -N.N as negative numbers; this CLI reads
    # exponent forms, -inf and -nan as values too
    GAMMA = ("phi", "--model", "gamma", "--L", "2", "--mu", "3")

    @pytest.mark.parametrize("argv", [("--s", "-5e-1"), ("--s=-5e-1",), ("--s", "-0.5")])
    def test_exponent_form(self, capsys, argv):
        code, out, _ = invoke(capsys, *self.GAMMA, *argv)
        assert code == 0
        assert out == "0.9648016727443568\n"

    def test_other_token_is_still_usage_error(self, capsys):
        code, out, err = invoke(capsys, *self.GAMMA, "--s", "-x")
        assert (code, out) == (1, "")
        assert "--s" in err


class TestSimulateCommand:
    def test_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "samples.csv"
        code, _, err = invoke(
            capsys,
            "simulate", "--model", "gamma", "--L", "4", "--mu", "1",
            "--n", "100", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 101

    def test_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "simulate", "--model", "k_amplitude", "--alpha", "2", "--b", "1",
            "--n", "500", "--seed", "42",
        ]
        assert invoke(capsys, *argv, "--out", str(a))[0] == 0
        assert invoke(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_announced(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, err = invoke(
            capsys,
            "simulate", "--model", "rayleigh", "--z", "1",
            "--n", "10", "--out", str(out_path),
        )
        assert code == 0
        assert "42" in err

    def test_stdout_output(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate", "--model", "rayleigh", "--z", "1",
            "--n", "5", "--seed", "1",
        )
        assert code == 0
        assert out.splitlines()[0] == "value"
        assert len(out.splitlines()) == 6

    def test_json_single_document(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate", "--model", "rayleigh", "--z", "1",
            "--n", "5", "--seed", "1", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert len(record["values"]) == 5


class TestFitCommand:
    def test_fit_from_simulated_file(self, capsys, tmp_path):
        path = tmp_path / "gamma.csv"
        code, _, _ = invoke(
            capsys,
            "simulate", "--model", "gamma", "--L", "4", "--mu", "1",
            "--n", "1000000", "--seed", "42", "--out", str(path),
        )
        assert code == 0
        code, out, _ = invoke(capsys, "fit", "--family", "gamma", "--input", str(path))
        assert code == 0
        record = json.loads(out)
        assert record["family"] == "gamma"
        assert record["converged"] is True
        assert record["L"] == pytest.approx(4.0, rel=0.02)
        assert record["mu"] == pytest.approx(1.0, rel=0.02)
        assert {"iterations", "residual"} <= set(record)

    def test_csv_format(self, capsys, tmp_path):
        path = tmp_path / "gamma.csv"
        cs.save_samples_csv(cs.sample(cs.Gamma(L=4.0, mu=1.0), 2000, cs.RngState(5)), path)
        argv = ("fit", "--family", "gamma", "--input", str(path))
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        record = json.loads(out)
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert lines[1:] == [f"{key},{value}" for key, value in record.items()]


class TestFigure1Command:
    def test_csv_table(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = invoke(
            capsys,
            "figure1", "--L", "4", "--mu", "1", "--m-grid", "0.5:8:5",
            "--n", "5000", "--seed", "11", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("M,m2_data_theory")
        assert len(lines) == 6

    def test_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "figure1", "--m-grid", "0.5:8:4", "--n", "2000", "--seed", "42",
        ]
        assert invoke(capsys, *argv, "--out", str(a))[0] == 0
        assert invoke(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = invoke(
            capsys,
            "figure1", "--m-grid", "1:4:3", "--n", "2000", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        records = json.loads(out)
        assert [r["M"] for r in records] == pytest.approx([1.0, 2.0, 4.0])

    def test_default_grid(self, capsys):
        code, out, _ = invoke(capsys, "figure1", "--n", "200", "--seed", "3")
        assert code == 0
        rows = out.splitlines()[1:]
        assert tuple(float(row.split(",")[0]) for row in rows) == cs.default_m_grid()

    @pytest.mark.parametrize("grid", ["oops", "1:x:3", "4:1:3", "1:4:0"])
    def test_bad_grid_is_usage_error(self, capsys, grid):
        code, out, err = invoke(capsys, "figure1", "--m-grid", grid, "--n", "10")
        assert (code, out) == (1, "")
        assert repr(grid) in err


class TestVerifyCommand:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = invoke(capsys, "verify")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert all(check["passed"] for check in record["checks"])

    def test_check_names_cover_every_family(self, capsys):
        # the benchmark's oracle workload reads the family from the trailing
        # "[family]" of each check name, requires the ten families of the
        # paper among them, and requires the same checks on every run
        names = []
        for _ in range(2):
            code, out, _ = invoke(capsys, "verify", "--format", "json")
            names.append([check["name"] for check in json.loads(out)["checks"]])
        assert names[0] == names[1]
        families = [name.split("[")[-1] for name in names[0]]
        assert all(family.endswith("]") for family in families)
        covered = {family[:-1] for family in families}
        assert covered <= set(cs.FAMILIES)
        assert covered >= set(cs.FAMILIES) - {"inverse_gamma"}

    @pytest.mark.parametrize("tolerance", ["0", "-1"])
    def test_non_positive_tolerance_fails(self, capsys, tolerance):
        code, out, _ = invoke(capsys, "verify", "--tolerance", tolerance)
        assert code == 2
        assert "FAIL" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--tolerance", "1e-15")
        assert code == 2
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "argv",
        [(f"--tolerance={t}",) for t in ("inf", "-inf", "nan")]
        + [("--tolerance", t) for t in ("inf", "-inf", "-nan")],
        ids=" ".join,
    )
    def test_non_finite_tolerance_is_domain_error(self, capsys, argv):
        # an infinite tolerance would pass every check with err=0, and the
        # JSON would carry Infinity or NaN, which are not JSON
        code, out, err = invoke(capsys, "verify", *argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "tolerance" in err

    @pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan, "1e-6"])
    def test_suite_rejects_non_finite_tolerance(self, tolerance):
        with pytest.raises(cs.ParameterError, match="tolerance"):
            verify.run_suite(tolerance)

    def test_row_that_raises_fails_its_check(self):
        # rows are computed lazily, so a typed error in one fails that check
        # and the suite goes on
        def rows():
            yield "first", 0.5, 1.0
            raise cs.NonConvergenceError("quadrature gave up")

        check = verify._worst("name", 1e-6, rows())
        assert (check.name, check.tolerance, check.passed) == ("name", 1e-6, False)
        assert math.isnan(check.error)
        assert check.detail == "quadrature gave up"
