"""Tests for the command-line front end."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ballprolate
from ballprolate import cli
from ballprolate.cli import _parse_grid, main
from ballprolate.geometry import eval_phi, eval_psi_ball, eval_radial
from ballprolate.linalg import gauss_jacobi
from ballprolate.pswf import lambda_eigenvalue, solve_pswfs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def per_row_csv(header, columns):
    """CSV with one f"{x:.15e}" call per NumPy scalar, joined row by row: the
    reference for the one-pass formatting of the numeric subcommands."""
    lines = [",".join(header)]
    lines.extend(",".join(f"{x:.15e}" for x in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


class TestCsvBytes:
    @pytest.mark.parametrize("grid", ["0:0.05:1.3", "0:0.0007:1", "0.31:0.17:0.99"])
    @pytest.mark.parametrize("form", ["slepian", "phi"])
    def test_eval_matches_per_row_format(self, capsys, grid, form):
        code, out, _ = run(capsys, "eval", "--dim", "2", "--alpha", "-0.5", "--c", "6",
                           "--n", "0", "--k", "3", "--form", form, "--r", grid)
        assert code == 0
        f = solve_pswfs(2, -0.5, 6.0, 0, 3)[3]
        r = _parse_grid(grid)
        values = eval_radial(f, r, "slepian") if form == "slepian" else eval_phi(f, 2 * r * r - 1)
        assert (values < 0).any()
        assert out == per_row_csv(["r", "value"], [r, values])

    def test_eval_negative_zero(self, capsys):
        # At r = 0 the slepian form is 0 * phi(-1) = -0.0 for this mode.
        code, out, _ = run(capsys, "eval", "--dim", "2", "--alpha", "-0.5", "--c", "6",
                           "--n", "0", "--k", "3", "--form", "slepian", "--r", "0:0.5:1")
        assert code == 0
        assert out.split("\n")[1] == "0.000000000000000e+00,-0.000000000000000e+00"

    @pytest.mark.parametrize("alpha,beta,m", [("0", "0", "7"), ("-0.5", "-0.5", "65"),
                                              ("1.3", "-0.2", "301")])
    def test_quad_matches_per_row_format(self, capsys, alpha, beta, m):
        code, out, _ = run(capsys, "quad", "--alpha", alpha, "--beta", beta, "--m", m)
        assert code == 0
        rule = gauss_jacobi(float(alpha), float(beta), int(m))
        assert out == per_row_csv(["node", "weight"], [rule.nodes, rule.weights])


def percent_csv(header, table):
    """CSV with one "%.15e" % x per Python float of a 2-d table: the
    reference for _float_csv, whatever route it takes."""
    lines = [",".join(header)]
    lines.extend(",".join(["%.15e" % x for x in row]) for row in table.tolist())
    return "\n".join(lines) + "\n"


def assert_same_csv(got, want):
    """got == want, failing with the first line that differs: pytest's own
    diff of two long strings takes minutes."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i}: {got_lines[i:i + 1]} != {want_lines[i:i + 1]}")


def assert_formats_table(table):
    header = [f"c{j}" for j in range(table.shape[1])]
    got = cli._float_csv(header, table)
    assert_same_csv(got, percent_csv(header, table))
    return got


def adversarial_values():
    """Values whose 16-digit rounding is hard to get right: zeros,
    subnormals, the extremes, non-finite values, powers of ten and their
    neighbours, exact dyadic ties of the 17th digit and their neighbours,
    and evenly spaced grids."""
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    values = [0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0), tiny, -tiny,
              huge, -huge, np.inf, -np.inf, np.nan, -np.nan, 65537 / 65536,
              1e100, -1e100, 1e-300, 1.5e-300, 1e-280, 1e280, 9.999999999999999e279,
              float("1e-278"), 1e-100, 1e99, 9.9999999999999995e99]
    for k in range(-300, 300):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]
    # k / 2^s with k odd has s decimals, the last a 5; in [10^(16-s), 10^(17-s))
    # it has 17 significant digits, so it lies halfway between two 16-digit
    # values.
    rng = np.random.default_rng(3)
    for s in range(1, 17):
        lo = 10 ** (16 - s) * 2 ** s
        hi = min(10 ** (17 - s) * 2 ** s, 2 ** 53)
        for k in rng.integers(lo // 2, hi // 2, 300).tolist():
            tie = (2 * k + 1) / 2.0 ** s
            values += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf), -tie]
    values += np.linspace(0.0, 1.0, 40001).tolist()
    values += (np.arange(1, 4001) / 4000.0).tolist()
    return np.array(values)


class TestFloatCsv:
    """_float_csv gives the bytes of one "%.15e" per entry, on every route."""

    @pytest.mark.parametrize("cols", [1, 3, 6])
    def test_random_bit_patterns(self, cols):
        # 336000 values per table, 1008000 over the three tables.
        rng = np.random.default_rng(41 + cols)
        bits = rng.integers(0, 2 ** 64, size=336000, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, cols)
        flat = table.reshape(-1)
        flat[::1009] = rng.choice([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0], flat[::1009].size)
        assert not np.isfinite(table).all()
        assert_formats_table(table)

    @pytest.mark.parametrize("cols", [1, 2, 5])
    def test_scaled_normals(self, cols):
        rng = np.random.default_rng(7 + cols)
        values = rng.standard_normal(30000) * 10.0 ** rng.uniform(-20.0, 20.0, 30000)
        assert_formats_table(values.reshape(-1, cols))

    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_adversarial_values(self, cols):
        values = adversarial_values()
        values = values[:values.size - values.size % cols]
        got = assert_formats_table(values.reshape(-1, cols))
        assert "1.000000000000000e+100" in got and "1.000000000000000e-300" in got
        assert "9.999999999999999e-279" in got

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_log10_one_ulp_off(self, monkeypatch, toward):
        # A log10 that is one ulp off puts floor(log10|x|) one decade off
        # next to powers of ten; those values must fall back, not misprint.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
        powers = 10.0 ** np.arange(-279, 280)
        table = np.column_stack([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_formats_table(table)

    def test_negative_zero_column(self):
        table = np.column_stack([np.linspace(0.1, 0.9, 400), np.full(400, -0.0)])
        got = assert_formats_table(table)
        assert got.split("\n")[1] == "1.000000000000000e-01,-0.000000000000000e+00"

    def test_fast_path_formats_a_workload_table(self, capsys, monkeypatch):
        # If every value fell back to the per-value route the bytes would
        # still be right but the speed lost; at most 0.1% may fall back.
        fallen = []
        percent_fields = cli._percent_fields

        def spy(values):
            fallen.append(values.size)
            return percent_fields(values)

        monkeypatch.setattr(cli, "_percent_fields", spy)
        grid = "0.0:0.00025:0.99975"
        code, out, _ = run(capsys, "eval", "--dim", "2", "--alpha", "0.5", "--c", "7",
                           "--n", "1", "--k", "2", "--form", "slepian", "--r", grid)
        assert code == 0
        f = solve_pswfs(2, 0.5, 7.0, 1, 2)[2]
        r = _parse_grid(grid)
        table = np.column_stack([r, eval_radial(f, r, "slepian")])
        assert table.shape == (4000, 2)
        assert_same_csv(out, percent_csv(["r", "value"], table))
        assert sum(fallen) <= 0.001 * table.size

    @pytest.mark.parametrize("cols", [1, 2])
    def test_both_sides_of_the_size_threshold(self, monkeypatch, cols):
        rng = np.random.default_rng(5)
        vectorized = []
        float_records = cli._float_records

        def spy(table):
            vectorized.append(table.size)
            return float_records(table)

        monkeypatch.setattr(cli, "_float_records", spy)
        below = -(-cli._VECTOR_MIN_VALUES // cols) - 1
        for rows in (below, below + 1):
            table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-120, 120, (rows, cols))
            assert_formats_table(table)
        assert vectorized == [(below + 1) * cols]
        assert below * cols < cli._VECTOR_MIN_VALUES <= (below + 1) * cols


class TestParserReuse:
    def test_consecutive_calls_are_independent(self, capsys, tmp_path):
        target = tmp_path / "rule.csv"
        assert main(["quad", "--alpha", "0", "--beta", "0", "--m", "2", "--out", str(target)]) == 0
        code, solved, _ = run(capsys, "solve", "--dim", "3", "--alpha", "1", "--c", "0",
                              "--n", "0", "--k-max", "1")
        assert code == 0 and solved.startswith("k,chi,lambda,mu,K\n")
        code, slepian, _ = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "1",
                               "--n", "0", "--k", "0", "--form", "slepian", "--r", "0:0.5:1")
        assert code == 0
        # Neither --out nor --form carries over to a later call.
        code, plain, _ = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "1",
                             "--n", "0", "--k", "0", "--r", "0:0.5:1")
        assert code == 0
        f = solve_pswfs(2, 0.0, 1.0, 0, 0)[0]
        r = np.array([0.0, 0.5, 1.0])
        assert plain == per_row_csv(["r", "value"], [r, eval_radial(f, r, "plain")])
        assert slepian == per_row_csv(["r", "value"], [r, eval_radial(f, r, "slepian")])
        assert len(target.read_text().splitlines()) == 3


class TestSolve:
    def test_csv_golden_row(self, capsys):
        code, out, _ = run(capsys, "solve", "--dim", "2", "--alpha", "0", "--c", "1",
                           "--n", "0", "--k-max", "0", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,chi,lambda,mu,K"
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert float(fields[1]) == pytest.approx(0.489593258779101, rel=1e-12)
        assert fields[4] == "15"

    def test_zero_bandwidth_chi_column(self, capsys):
        code, out, _ = run(capsys, "solve", "--dim", "2", "--alpha", "0", "--c", "0",
                           "--n", "1", "--k-max", "2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        chis = [float(r[1]) for r in rows]
        assert chis == [3.0, 15.0, 35.0]
        assert all(r[2] == "" and r[3] == "" for r in rows)

    @pytest.mark.parametrize("d, alpha, c, n, k_max", [(2, 0.0, 1.0, 0, 12),
                                                     (3, 1.0, 20.0, 2, 12),
                                                     (2, 0.0, 0.0, 1, 2)])
    def test_csv_matches_per_value_format(self, capsys, d, alpha, c, n, k_max):
        code, out, _ = run(capsys, "solve", "--dim", str(d), "--alpha", str(alpha),
                           "--c", str(c), "--n", str(n), "--k-max", str(k_max))
        assert code == 0
        family = solve_pswfs(d, alpha, c, n, k_max)
        lambdas = lambda_eigenvalue(family).tolist() if c > 0 else [None] * len(family)
        lines = ["k,chi,lambda,mu,K"]
        for f, lam in zip(family, lambdas):
            pair = ["%.15e" % lam, "%.15e" % (lam * lam)] if lam is not None else ["", ""]
            lines.append(",".join([str(f.params.k), "%.15e" % f.chi, *pair, str(f.truncation)]))
        assert out == "\n".join(lines) + "\n"

    def test_json_lambda_field(self, capsys):
        code, out, _ = run(capsys, "solve", "--dim", "3", "--alpha", "1", "--c", "0.1",
                           "--n", "0", "--k-max", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"d": 3, "alpha": 1.0, "c": 0.1, "n": 0}
        result = payload["results"][0]
        assert result["lambda"] == pytest.approx(1.675003294483135, rel=1e-12)
        assert result["mu"] == pytest.approx(1.675003294483135 ** 2, rel=1e-12)
        assert len(result["coeffs"]) == result["K"] + 1

    @pytest.mark.parametrize("c", ["20", "0"])
    def test_json_is_compact_and_parses_like_indented(self, capsys, c):
        from ballprolate.pswf import lambda_eigenvalue

        code, out, _ = run(capsys, "solve", "--dim", "3", "--alpha", "1", "--c", c,
                           "--n", "2", "--k-max", "12", "--format", "json")
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("}\n")
        family = solve_pswfs(3, 1.0, float(c), 2, 12)
        lambdas = lambda_eigenvalue(family).tolist() if float(c) > 0 else [None] * 13
        indented = json.dumps({
            "params": {"d": 3, "alpha": 1.0, "c": float(c), "n": 2},
            "results": [
                {"k": f.params.k, "chi": f.chi, "lambda": lam,
                 "mu": lam * lam if lam is not None else None,
                 "K": f.truncation, "coeffs": f.coeffs.tolist()}
                for f, lam in zip(family, lambdas)
            ],
        }, indent=2)
        assert json.loads(out) == json.loads(indented)

    def test_csv_reparse_reproduces_values(self, capsys):
        from ballprolate.pswf import lambda_eigenvalue, solve_pswfs

        code, out, _ = run(capsys, "solve", "--dim", "2", "--alpha", "0", "--c", "4",
                           "--n", "1", "--k-max", "2")
        assert code == 0
        family = solve_pswfs(2, 0.0, 4.0, 1, 2)
        for line, f in zip(out.strip().split("\n")[1:], family):
            fields = line.split(",")
            assert float(fields[1]) == pytest.approx(f.chi, rel=1e-15)
            assert float(fields[2]) == pytest.approx(lambda_eigenvalue(f), rel=1e-15)

    def test_large_bandwidth_grows_truncation(self, capsys):
        from ballprolate.pswf import truncation_size

        code, out, _ = run(capsys, "solve", "--dim", "2", "--alpha", "0", "--c", "100",
                           "--n", "0", "--k-max", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert all(int(r[4]) > truncation_size(2, 0.0, 0, 3) for r in rows)

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--dim", "2", "--alpha", "-2", "--c", "1",
                           "--n", "0", "--k-max", "0")
        assert code == 2
        assert "alpha" in err

    def test_negative_value_in_exponent_notation(self, capsys):
        code, out, _ = run(capsys, "solve", "--dim", "2", "--alpha", "-1e-3", "--c", "1",
                           "--n", "0", "--k-max", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["params"]["alpha"] == -1e-3

    # The mu of row k = 38 of this family is subnormal, 1.67e-310, where the
    # spacing of doubles is about 3e-14 of the value.
    SUBNORMAL_MU = ("--dim=5", "--alpha=-0.5", "--c=1.1539329460506336", "--n=0",
                    "--k-max=40")

    def test_subnormal_mu_is_the_square_of_lambda(self, capsys):
        code, out, _ = run(capsys, "solve", *self.SUBNORMAL_MU, "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]
        assert 0.0 < rows[38]["mu"] < sys.float_info.min
        assert all(r["mu"] == r["lambda"] * r["lambda"] for r in rows)
        # Each CSV mu is the square of the double lambda, formatted; the
        # 16-digit lambda of the CSV does not square to it at a subnormal mu.
        code, out, _ = run(capsys, "solve", *self.SUBNORMAL_MU)
        assert code == 0
        mus = [line.split(",")[3] for line in out.strip().split("\n")[1:]]
        assert mus == ["%.15e" % (r["lambda"] * r["lambda"]) for r in rows]

    def test_usage_exit_code(self, capsys):
        assert main(["solve", "--dim", "2"]) == 2
        assert main(["unknown-command"]) == 2


class TestEval:
    def test_slepian_grid_matches_reference(self, capsys):
        code, out, _ = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "1",
                           "--n", "0", "--k", "0", "--form", "slepian",
                           "--r", "0.1:0.1:0.3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "r,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        expected = [4.746377794187660e-01, 6.687764918417400e-01, 8.140701934306384e-01]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_phi_form_at_zero_bandwidth_is_jacobi(self, capsys):
        from ballprolate.specfn import JacobiBasis, jacobi_eval

        code, out, _ = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "0",
                           "--n", "0", "--k", "2", "--form", "phi", "--r", "0.2:0.2:0.8")
        assert code == 0
        basis = JacobiBasis(0.0, 0.0)
        for line in out.strip().split("\n")[1:]:
            r, value = (float(x) for x in line.split(","))
            expected = float(jacobi_eval(basis, 2, 2.0 * r * r - 1.0)[2])
            assert value == pytest.approx(expected, rel=1e-13)

    def test_malformed_grid(self, capsys):
        code, _, err = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "1",
                           "--n", "0", "--k", "0", "--r", "0.1:0.5")
        assert code == 2
        assert "grid" in err

    # The last two grids have finite bounds, but their point counts overflow.
    @pytest.mark.parametrize("grid", ["0.5:1:inf", "0:inf:1", "nan:0.1:1",
                                      "-1e308:1:1e308", "0:1e-308:1e308"])
    def test_non_finite_grid(self, capsys, grid):
        code, out, err = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "1",
                             "--n", "0", "--k", "0", f"--r={grid}")
        assert code == 2
        assert f"grid {grid!r}" in err or f"got {grid!r}" in err
        assert out == ""

    @pytest.mark.parametrize("grid", ["0:1e-15:1", f"0:1:{cli._GRID_MAX_POINTS}"])
    def test_point_count_bound(self, capsys, monkeypatch, grid):
        code, out, err = run(capsys, "eval", "--dim", "2", "--alpha", "0", "--c", "1",
                             "--n", "0", "--k", "0", f"--r={grid}")
        assert code == 2
        assert f"grid {grid!r}" in err and f"bound of {cli._GRID_MAX_POINTS}" in err
        assert out == ""

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"np.{name} used")

        monkeypatch.setattr(cli, "np", NoNumpy())
        with pytest.raises(ValueError, match="points, more than the bound"):
            _parse_grid(grid)

    def test_point_count_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_GRID_MAX_POINTS", 5)
        assert _parse_grid("0:0.25:1").size == 5
        with pytest.raises(ValueError, match="has 6 points, more than the bound of 5"):
            _parse_grid("0:0.2:1")


class TestEvalBall:
    def test_parity_through_point_file(self, capsys, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("0.3 0.4\n-0.3 -0.4\n")
        code, out, _ = run(capsys, "eval-ball", "--dim", "2", "--alpha", "0", "--c", "2",
                           "--n", "1", "--k", "0", "--ell", "1",
                           "--points", str(points))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x1,x2,value"
        v_plus = float(lines[1].split(",")[2])
        v_minus = float(lines[2].split(",")[2])
        assert v_minus == pytest.approx(-v_plus, rel=1e-12)

    def test_five_dimensions(self, capsys, tmp_path):
        points = tmp_path / "pts.txt"
        rows = np.array([[0.1, -0.2, 0.3, 0.05, -0.4], [0.0, 0.0, 0.0, 0.0, 0.0],
                         [0.6, 0.0, 0.0, -0.8, 0.0]])
        # 300 more points, inside the ball, so that the CSV is long enough
        # for the vectorized formatter.
        rng = np.random.default_rng(5)
        extra = rng.standard_normal((300, 5))
        extra *= (rng.random((300, 1)) ** 0.2 * 0.999) / np.linalg.norm(extra, axis=1, keepdims=True)
        rows = np.vstack([rows, extra])
        assert (rows.shape[0] * 6) >= cli._VECTOR_MIN_VALUES
        points.write_text("".join(" ".join(map(str, row.tolist())) + "\n" for row in rows))
        code, out, _ = run(capsys, "eval-ball", "--dim", "5", "--alpha", "0", "--c", "2",
                           "--n", "2", "--k", "0", "--ell", "7", "--points", str(points))
        assert code == 0
        f = solve_pswfs(5, 0.0, 2.0, 2, 0)[0]
        values = eval_psi_ball(f, 7, rows)
        assert values[0] != 0.0
        assert out == per_row_csv(["x1", "x2", "x3", "x4", "x5", "value"], [*rows.T, values])

    def test_bad_point_file(self, capsys, tmp_path):
        points = tmp_path / "pts.txt"
        points.write_text("0.3\n")
        code, _, err = run(capsys, "eval-ball", "--dim", "2", "--alpha", "0", "--c", "2",
                           "--n", "1", "--k", "0", "--ell", "1",
                           "--points", str(points))
        assert code == 2
        assert "expected 2 coordinates" in err

    @pytest.mark.parametrize("dim, text", [
        (2, "0.3 0.4\n\n  \n-0.3\t0.4\n0.1 \t -0.2\n\t\n"),
        (2, "0.3 0.4\r\n-0.3 -0.4\r\n"),
        (1, "0.25\n\n-0.5\n0.75"),
    ], ids=["blank-lines-and-tabs", "crlf", "one-column"])
    def test_point_file_layout(self, capsys, tmp_path, dim, text):
        points = tmp_path / "pts.txt"
        points.write_text(text, newline="")
        code, out, _ = run(capsys, "eval-ball", "--dim", str(dim), "--alpha", "0",
                           "--c", "2", "--n", "1", "--k", "0", "--ell", "1",
                           "--points", str(points))
        assert code == 0
        rows = np.array([[float(x) for x in line.split()]
                         for line in text.splitlines() if line.strip()])
        values = eval_psi_ball(solve_pswfs(dim, 0.0, 2.0, 1, 0)[0], 1, rows)
        header = [f"x{i + 1}" for i in range(dim)] + ["value"]
        assert out == per_row_csv(header, [*rows.T, values])

    @pytest.mark.parametrize("text, message", [
        ("", "no points found"),
        ("\n  \n\t\n", "no points found"),
        ("0.3 0.4\n0.3\n", ""),
        ("0.3 0.4\n0.3 0.4 0.5\n", ""),
        ("0.3 abc\n", "abc"),
        ("# x y\n0.3 0.4\n", "#"),
    ], ids=["empty", "blank-only", "short-row", "long-row", "non-numeric", "comment-line"])
    def test_malformed_point_file(self, capsys, tmp_path, text, message):
        points = tmp_path / "pts.txt"
        points.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval-ball", "--dim", "2", "--alpha", "0",
                                 "--c", "2", "--n", "1", "--k", "0", "--ell", "1",
                                 "--points", str(points))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {points}: ")
        assert message in err

    def test_missing_point_file(self, capsys, tmp_path):
        points = tmp_path / "absent.txt"
        code, _, err = run(capsys, "eval-ball", "--dim", "2", "--alpha", "0", "--c", "2",
                           "--n", "1", "--k", "0", "--ell", "1", "--points", str(points))
        assert code == 2
        assert str(points) in err

    def test_repr_written_points_parse_exactly(self, tmp_path):
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((400, 3))
        rows[::7] *= 10.0 ** rng.integers(-300, 300, size=(58, 1))
        rows[1, 1] = -0.0
        points = tmp_path / "pts.txt"
        text = "".join(" ".join(repr(v) for v in row) + "\n" for row in rows.tolist())
        points.write_text(text)
        want = np.array([[float(x) for x in line.split()] for line in text.splitlines()])
        got = cli._parse_points(str(points), 3)
        assert got.dtype == np.float64 and got.shape == (400, 3)
        assert got.tobytes() == want.tobytes() == rows.tobytes()


class TestTableAndVerify:
    def test_table_one_passes(self, capsys):
        code, out, _ = run(capsys, "table", "--id", "1")
        assert code == 0
        assert "40/40 cases passed" in out

    def test_table_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "table", "--id", "3", "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["suite"] == "table3"
        assert payload["passed"] is True

    def test_verify_bounds_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds")
        assert code == 0
        assert "suite bounds" in out

    def test_verify_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PROLATE_TOL", "1e-30")
        code, _, _ = run(capsys, "verify", "--suite", "recurrence")
        assert code == 1
        monkeypatch.setenv("PROLATE_TOL", "1e6")
        code, _, _ = run(capsys, "verify", "--suite", "recurrence")
        assert code == 0
        monkeypatch.delenv("PROLATE_TOL")
        code, _, _ = run(capsys, "verify", "--suite", "recurrence")
        assert code == 0

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("argv", [("table", "--id", "1"),
                                      ("verify", "--suite", "recurrence", "--format", "json")])
    def test_non_finite_tolerance_override(self, capsys, monkeypatch, raw, argv):
        def never(*args):
            raise AssertionError("the report ran before PROLATE_TOL was checked")

        monkeypatch.setattr(cli, "table_check", never)
        monkeypatch.setattr(cli, "run_suite", never)
        monkeypatch.setenv("PROLATE_TOL", raw)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "PROLATE_TOL" in err

    def test_negative_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PROLATE_TOL", "-1e-3")
        code, out, _ = run(capsys, "verify", "--suite", "recurrence", "--format", "json")
        assert code == 1
        cases = json.loads(out)["cases"]
        assert all(c["tolerance"] == -1e-3 and not c["pass"] for c in cases)

    def test_table_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PROLATE_TOL", "1e-30")
        code, _, _ = run(capsys, "table", "--id", "1")
        assert code == 1

    @pytest.mark.parametrize("argv", [("table", "--id", "1"),
                                      ("verify", "--suite", "recurrence")])
    def test_override_replaces_only_tolerances(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("PROLATE_TOL", raising=False)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        plain = json.loads(out)["cases"]
        monkeypatch.setenv("PROLATE_TOL", "1e6")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        loose = json.loads(out)["cases"]
        assert [(c["params"], c["metric"]) for c in loose] == \
            [(c["params"], c["metric"]) for c in plain]
        assert all(c["tolerance"] == 1e6 and c["pass"] for c in loose)


class TestQuad:
    def test_two_point_legendre(self, capsys):
        code, out, _ = run(capsys, "quad", "--alpha", "0", "--beta", "0", "--m", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "node,weight"
        nodes = [float(line.split(",")[0]) for line in lines[1:]]
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        s = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(nodes, [-s, s], rtol=1e-12)
        np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-12)

    def test_python_dash_m(self):
        src = str(Path(ballprolate.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "ballprolate", "quad", "--alpha", "0",
                               "--beta", "0", "--m", "2"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert done.returncode == 0, done.stderr
        rule = gauss_jacobi(0.0, 0.0, 2)
        assert done.stdout == per_row_csv(["node", "weight"], [rule.nodes, rule.weights])

    def test_negative_value_in_exponent_notation(self, capsys):
        code, out, _ = run(capsys, "quad", "--alpha", "0", "--beta", "-8.1e-05", "--m", "3")
        assert code == 0
        _, equals_form, _ = run(capsys, "quad", "--alpha=0", "--beta=-8.1e-05", "--m=3")
        assert out == equals_form
        assert len(out.strip().split("\n")) == 4

    def test_output_file_and_determinism(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["quad", "--alpha", "0.5", "--beta", "-0.25", "--m", "7",
                     "--out", str(a)]) == 0
        assert main(["quad", "--alpha", "0.5", "--beta", "-0.25", "--m", "7",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_sixteen_significant_digits(self, capsys):
        code, out, _ = run(capsys, "quad", "--alpha", "0", "--beta", "0", "--m", "3")
        assert code == 0
        value = out.strip().split("\n")[1].split(",")[0]
        mantissa = value.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 16
