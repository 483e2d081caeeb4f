"""Command-line front end.

Subcommands: solve, eval, eval-ball, table, verify, quad.  Numeric output is
printed with 16 significant digits; CSV uses '.' decimals, comma separators,
a header row and LF line endings.  Exit codes: 0 success, 1 verification
failure, 2 usage or validation error, 3 numerical non-convergence.  The
environment variable PROLATE_TOL, when set, replaces the tolerance of every
case that the table and verify subcommands report.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .errors import (
    DegenerateEndpoint,
    EigenConvergenceError,
    NonPositiveLambda,
    TruncationNotConverged,
)
from .geometry import eval_phi, eval_psi_ball, eval_radial
from .linalg import gauss_jacobi
from .pswf import lambda_eigenvalue, solve_pswfs
from .verify import SUITE_NAMES, run_suite, table_check

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3

_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


_FLOAT = "%.15e"


def _fmt(x: float) -> str:
    return _FLOAT % x


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _float_csv(header: list[str], table: np.ndarray) -> str:
    """CSV of a 2-d float table, each entry as _fmt prints it, formatted in
    one pass over the table's Python floats."""
    rows, cols = table.shape
    line = ",".join([_FLOAT] * cols) + "\n"
    return ",".join(header) + "\n" + (line * rows) % tuple(table.ravel().tolist())


def _parse_grid(spec: str) -> np.ndarray:
    """Colon grid start:step:stop, endpoints inclusive."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {spec!r}")
    start, step, stop = (float(p) for p in parts)
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"grid {spec!r} contains no points")
    return start + step * np.arange(count)


def _parse_points(path: str, d: int) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != d:
                raise ValueError(
                    f"{path}:{line_no}: expected {d} coordinates, got {len(fields)}"
                )
            rows.append([float(f) for f in fields])
    if not rows:
        raise ValueError(f"{path}: no points found")
    return np.asarray(rows)


def cmd_solve(args) -> int:
    family = solve_pswfs(args.dim, args.alpha, args.c, args.n, args.k_max)
    lambdas = lambda_eigenvalue(family).tolist() if args.c > 0 else [None] * len(family)
    if args.format == "json":
        payload = {
            "params": {"d": args.dim, "alpha": args.alpha, "c": args.c, "n": args.n},
            "results": [
                {
                    "k": f.params.k,
                    "chi": f.chi,
                    "lambda": lam,
                    "mu": lam * lam if lam is not None else None,
                    "K": f.truncation,
                    "coeffs": f.coeffs.tolist(),
                }
                for f, lam in zip(family, lambdas)
            ],
        }
        _emit(json.dumps(payload), args.out)
    else:
        rows = [
            [
                str(f.params.k),
                _fmt(f.chi),
                _fmt(lam) if lam is not None else "",
                _fmt(lam * lam) if lam is not None else "",
                str(f.truncation),
            ]
            for f, lam in zip(family, lambdas)
        ]
        _emit(_csv(["k", "chi", "lambda", "mu", "K"], rows), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    family = solve_pswfs(args.dim, args.alpha, args.c, args.n, args.k)
    f = family[args.k]
    grid = _parse_grid(args.r)
    if args.form == "phi":
        values = eval_phi(f, 2.0 * grid * grid - 1.0)
    else:
        values = eval_radial(f, grid, form=args.form)
    _emit(_float_csv(["r", "value"], np.column_stack([grid, values])), args.out)
    return EXIT_OK


def cmd_eval_ball(args) -> int:
    family = solve_pswfs(args.dim, args.alpha, args.c, args.n, args.k)
    f = family[args.k]
    points = _parse_points(args.points, args.dim)
    header = [f"x{i + 1}" for i in range(args.dim)] + ["value"]
    values = eval_psi_ball(f, args.ell, points)
    _emit(_float_csv(header, np.column_stack([points, values])), args.out)
    return EXIT_OK


def _report_output(report, args) -> int:
    raw = os.environ.get("PROLATE_TOL")
    if raw:
        report.cases = [dataclasses.replace(c, tolerance=float(raw)) for c in report.cases]
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.summary() + "\n", args.out)
        if args.out is not None:
            sys.stdout.write(report.summary() + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_table(args) -> int:
    return _report_output(table_check(args.id), args)


def cmd_verify(args) -> int:
    return _report_output(run_suite(args.suite), args)


def cmd_quad(args) -> int:
    rule = gauss_jacobi(args.alpha, args.beta, args.m)
    _emit(_float_csv(["node", "weight"], np.column_stack([rule.nodes, rule.weights])), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballprolate",
        description="Prolate spheroidal wave functions on the unit ball: "
                    "solve, evaluate, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p, with_kmax: bool):
        p.add_argument("--dim", type=int, required=True, help="ambient dimension d >= 1")
        p.add_argument("--alpha", type=float, required=True, help="weight exponent, > -1")
        p.add_argument("--c", type=float, required=True, help="bandwidth, >= 0")
        p.add_argument("--n", type=int, required=True, help="angular degree")
        if with_kmax:
            p.add_argument("--k-max", type=int, required=True, help="largest radial index")
        else:
            p.add_argument("--k", type=int, required=True, help="radial index")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("solve", help="eigenvalues chi, lambda, mu for k = 0..k-max")
    add_family_args(p, with_kmax=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="sample the radial profile on an r grid")
    add_family_args(p, with_kmax=False)
    p.add_argument("--form", choices=("plain", "slepian", "phi"), default="plain")
    p.add_argument("--r", required=True, help="radius grid start:step:stop, inclusive")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eval-ball", help="evaluate the full eigenfunction at points")
    add_family_args(p, with_kmax=False)
    p.add_argument("--ell", type=int, required=True, help="spherical harmonic index")
    p.add_argument("--points", required=True,
                   help="file of Cartesian points, one whitespace-separated point per line")
    p.set_defaults(func=cmd_eval_ball)

    p = sub.add_parser("table", help="regression against a bundled reference table")
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run an identity-verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("quad", help="emit a Gauss-Jacobi rule as node,weight CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quad)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--name -1e-3' as '--name=-1e-3'.

    argparse reads a token that starts with '-' as an option name unless it
    matches its negative-number pattern, which has no exponent, so values
    such as -1e-3 would be rejected with "expected one argument".
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.fullmatch(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs about 15 times as much as parsing with it;
    # parse_args keeps no state between calls, so one instance serves them all.
    return build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser().parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (TruncationNotConverged, EigenConvergenceError,
            DegenerateEndpoint, NonPositiveLambda) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
