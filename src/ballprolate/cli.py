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
import warnings

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


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _float_csv(header: list[str], table: np.ndarray) -> str:
    """CSV of a 2-d float table, each entry formatted as _FLOAT % entry.

    A table of fewer than _VECTOR_MIN_VALUES entries is formatted in one
    '%' pass over its Python floats; a larger one by _float_records, whose
    output is byte for byte the same."""
    rows, cols = table.shape
    head = ",".join(header) + "\n"
    if table.size < _VECTOR_MIN_VALUES:
        line = ",".join([_FLOAT] * cols) + "\n"
        return head + (line * rows) % tuple(table.ravel().tolist())
    return head + _float_records(table)


# Below this many entries one '%' pass beats the fixed cost (about 60 us) of
# the array passes of _float_records.  Timed on Gauss-Jacobi node,weight
# tables, the two cross between 96 and 112 entries.
_VECTOR_MIN_VALUES = 112
# _float_records formats |x| in [1e-280, 1e280] itself; 10^(15-e) is tabled
# for decimal exponents e in [-_EXP_RANGE, _EXP_RANGE], a margin over the
# e = floor(log10|x|) of that range, and 10^300 * _SPLIT does not overflow.
_EXP_RANGE = 285
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting factor for doubles


@functools.cache
def _record_tables():
    """Lookup tables of _float_records, built on first use.

    pow_hi[i] + pow_lo[i] is 10^(15-e) to about 106 bits for
    e = i - _EXP_RANGE, from exact Python integers, and pow_hi splits into
    its upper and lower 26 bits as (split_hi, split_lo).  The other three
    are tables of 4-byte words of a record: words[g] holds the 4 digits of
    g in 0..9999, lead[m] '-', the digit m // 10, '.' and the digit m % 10,
    tail[m + 100 s] the 2 digits of m, 'e' and '-' if s else '+', and
    expo[m] the 3 digits of m and ','."""
    pow_hi, pow_lo = [], []
    for s in range(15 - _EXP_RANGE, 16 + _EXP_RANGE):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        pow_hi.append(hi)
        pow_lo.append((num * hi_den - hi_num * den) / (den * hi_den))
    pow_hi = np.array(pow_hi[::-1])
    pow_lo = np.array(pow_lo[::-1])
    split_hi = pow_hi * _SPLIT
    split_hi -= split_hi - pow_hi
    digits = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
    m = np.arange(200) % 100
    lead = np.column_stack([np.full(100, 45), digits[:100, 2:3], np.full(100, 46),
                            digits[:100, 3:]]).astype(np.uint8)
    tail = np.column_stack([digits[m, 2:], np.full(200, 101),
                            np.where(np.arange(200) < 100, 43, 45)]).astype(np.uint8)
    expo = np.column_stack([digits[:1000, 1:], np.full(1000, 44)]).astype(np.uint8)
    words, lead, tail, expo = (t.view(np.uint32).ravel() for t in (digits, lead, tail, expo))
    return pow_hi, pow_lo, split_hi, pow_hi - split_hi, words, lead, tail, expo


def _percent_fields(values: np.ndarray) -> np.ndarray:
    """(len(values), 23) uint8 array: row i is _FLOAT % values[i] in ASCII,
    padded with NUL bytes.  _float_records falls back on it."""
    text = "".join([(_FLOAT % v).ljust(23, "\0") for v in values.tolist()])
    return np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(values), 23)


def _float_records(table: np.ndarray) -> str:
    """Rows of a 2-d float table as CSV lines, byte for byte what _FLOAT
    prints for each entry, formatted in array passes over the whole table.

    For |x| in [1e-280, 1e280], with e = floor(log10|x|), the scaled value
    P = |x| 10^(15-e) is formed as an unevaluated sum of doubles: Dekker's
    exact product of |x| and the double nearest 10^(15-e), plus |x| times
    that double's error (Dekker, "A floating-point technique for extending
    the available precision", Numer. Math. 18, 1971).  Its error is below
    1e-14, so rounding P to the integer M of 16 digits is certain unless
    its fraction lies within 1e-9 of 1/2.  Each value goes back to
    _percent_fields, that is to the exact conversion of '%' itself, when
    its rounding is that close, when floor(P) < 10^15 or M = 10^16 (log10
    misjudged e next to a power of ten), or when x is zero, subnormal, out
    of that range, inf or nan.  Every value fills a 24-byte record: '-',
    digit, '.', 15 digits, 'e', exponent sign, 3 exponent digits and ','
    or, at the end of a row, a line feed.  One boolean mask over all
    records drops the '-' of a positive value, the hundreds digit of an
    exponent below 100 and the padding of a fallback."""
    pow_hi, pow_lo, split_hi, split_lo, words, lead, tail, expo = _record_tables()
    x = np.asarray(table, dtype=np.float64).ravel()
    n = x.size
    mag = np.abs(x)
    with np.errstate(invalid="ignore"):  # nan compares False, silently
        fast = (mag >= 1e-280) & (mag <= 1e280)
    mag[~fast] = 1.0
    e = np.floor(np.log10(mag)).astype(np.int64)
    i = e + _EXP_RANGE
    big = mag * pow_hi[i]
    mag_hi = mag * _SPLIT
    mag_hi -= mag_hi - mag
    mag_lo = mag - mag_hi
    h_hi, h_lo = split_hi[i], split_lo[i]
    err = ((mag_hi * h_hi - big) + mag_hi * h_lo + mag_lo * h_hi) + mag_lo * h_lo
    err += mag * pow_lo[i]
    del i, mag_hi, mag_lo, h_hi, h_lo, mag
    whole = np.floor(big)
    frac = big - whole
    frac += err
    carry = np.floor(frac)
    frac -= carry
    sig = whole.astype(np.int64)  # floor(P), then M
    sig += carry.astype(np.int64)
    del big, err, whole, carry
    fast &= np.abs(frac - 0.5) >= 1e-9
    fast &= sig >= 10 ** 15
    sig += frac > 0.5
    fast &= sig < 10 ** 16
    sig[~fast] = 10 ** 15
    del frac
    # M = m0 10^14 + g1 10^10 + g2 10^6 + g3 10^2 + m4, one record word per
    # part; '//' by a scalar is several times faster than divmod on int64.
    rest = sig // 100
    m4 = sig - 100 * rest
    groups = []
    for _ in range(3):
        q = rest // 10000
        groups.append(rest - 10000 * q)
        rest = q
    del sig, q
    out = np.empty((n, 6), np.uint32)
    out[:, 0] = lead[rest]
    out[:, 1] = words[groups[2]]
    out[:, 2] = words[groups[1]]
    out[:, 3] = words[groups[0]]
    out[:, 4] = tail[np.where(e < 0, m4 + 100, m4)]
    abs_e = np.abs(e)
    out[:, 5] = expo[abs_e]
    del rest, groups, m4, e
    text = out.view(np.uint8)
    text.reshape(table.shape[0], -1)[:, -1] = 10
    keep = np.ones((n, 24), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 20] = abs_e >= 100
    slow = np.flatnonzero(~fast)
    if slow.size:
        fields = _percent_fields(x[slow])
        text[slow, :23] = fields
        keep[slow, :23] = fields != 0
    return text.ravel()[keep.ravel()].tobytes().decode("ascii")


# Bound on the points of one --r grid, checked before the grid is allocated.
_GRID_MAX_POINTS = 10 ** 7


def _parse_grid(spec: str) -> np.ndarray:
    """Colon grid start:step:stop, endpoints inclusive, of at most
    _GRID_MAX_POINTS points."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {spec!r}")
    start, step, stop = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, step, stop))):
        raise ValueError(f"grid start, step and stop must be finite, got {spec!r}")
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ValueError(f"grid {spec!r} has too many points to count")
    count = int(math.floor(span + 1e-9)) + 1
    if count < 1:
        raise ValueError(f"grid {spec!r} contains no points")
    if count > _GRID_MAX_POINTS:
        raise ValueError(
            f"grid {spec!r} has {count} points, more than the bound of {_GRID_MAX_POINTS}"
        )
    return start + step * np.arange(count)


def _parse_points(path: str, d: int) -> np.ndarray:
    """The (N, d) points of a --points file: one point per line, coordinates
    separated by spaces or tabs, blank lines skipped."""
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, not by NumPy's UserWarning.
            warnings.simplefilter("ignore", UserWarning)
            points = np.loadtxt(path, ndmin=2, comments=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if points.size == 0:
        raise ValueError(f"{path}: no points found")
    if points.shape[1] != d:
        raise ValueError(f"{path}: expected {d} coordinates, got {points.shape[1]}")
    return points


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
        if args.c > 0:
            line = "%d,%.15e,%.15e,%.15e,%d\n"
            values = [v for f, lam in zip(family, lambdas)
                      for v in (f.params.k, f.chi, lam, lam * lam, f.truncation)]
        else:
            line = "%d,%.15e,,,%d\n"
            values = [v for f in family for v in (f.params.k, f.chi, f.truncation)]
        _emit("k,chi,lambda,mu,K\n" + (line * len(family)) % tuple(values), args.out)
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


def _report_output(run, args) -> int:
    """Run the report, with PROLATE_TOL, when set, as every case's tolerance;
    the override is checked before the report runs."""
    raw = os.environ.get("PROLATE_TOL")
    try:
        tolerance = float(raw) if raw else None
    except ValueError:
        tolerance = math.nan
    if tolerance is not None and not math.isfinite(tolerance):
        raise ValueError(f"PROLATE_TOL must be a finite number, got {raw!r}")
    report = run()
    if tolerance is not None:
        report.cases = [dataclasses.replace(c, tolerance=tolerance) for c in report.cases]
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.summary() + "\n", args.out)
        if args.out is not None:
            sys.stdout.write(report.summary() + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_table(args) -> int:
    return _report_output(functools.partial(table_check, args.id), args)


def cmd_verify(args) -> int:
    return _report_output(functools.partial(run_suite, args.suite), args)


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
    p.add_argument("--r", required=True,
                   help="radius grid start:step:stop, inclusive, of at most 10^7 points")
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
