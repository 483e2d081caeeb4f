"""Seeded op streams, warm-up calls and output checks for the three workloads.

An op is one call into a public entry point of the package: either the CLI
run in-process as ``ballprolate.cli.main(argv)`` with ``--out`` into a
scratch directory, or a library function.  Each op has three steps:

  * ``prepare(ctx)`` builds its inputs (points files, solved families); it
    is neither timed nor traced,
  * ``run(inputs)`` is the timed call,
  * ``check(inputs, result)`` validates the output outside the timed region
    and returns None when it is correct, else ``wrong(reason)``,
    ``failed(reason)`` or ``defect(reason)``.

Op streams yield fixed-composition rounds (lists of ops), shuffled inside
each round, so the share of every op class is the same for every seed.
Inside a class, every parameter is drawn from a shuffled cycle over its
values or over equal strata of its range (cycle, spread_uniform,
Families), so the shares of parameter values are also the same for every
seed and only their order and exact values change.  That keeps the latency
percentiles inside one class each (see ``why`` in BENCHMARK.json) and their
run-to-run spread small.  run.py scales times to reference speed in blocks
of ROUNDS_PER_BLOCK whole rounds (100 ops).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import numpy as np

import ballprolate
import ballprolate.cli
from ballprolate import tables

DIMS = (1, 2, 3, 5)
ALPHAS = (-0.5, 0.0, 1.0)
C_RANGE = (0.1, 25.0)

# Tolerances of the shipped suites and tables, restated here so that a
# change to the package's own constants cannot loosen the benchmark.
TABLE_RTOL = 1e-10
TABLE_LAMBDA_ATOL = 1e-18
TABLE_LAMBDA_ABS_BELOW = 1e-8
HANKEL_MIN_LAMBDA = 1e-7
HANKEL_TOL = 1e-8
# Absolute Hankel error (relative residual times lambda) at or below which a
# residual above HANKEL_TOL is the double-precision floor of the relative
# metric (ROADMAP criterion 4), not a wrong eigenfunction.
HANKEL_ABS_FLOOR = 1e-14
# Solves with k_max from here up form the tail that keeps ROADMAP item 3's
# NonPositiveLambda visible.
TAIL_K_MAX = 13
GRAM_TOL = 1e-11
MU_RTOL = 1e-6


def gamma(m: int, alpha: float, d: int) -> float:
    return m * (m + 2.0 * alpha + d)


def max_degree(d: int) -> int:
    return 1 if d == 1 else 3


def harmonic_count(d: int, n: int) -> int:
    total = math.comb(n + d - 1, n)
    if n >= 2:
        total -= math.comb(n + d - 3, n - 2)
    return total


def wrong(reason: str):
    """Check outcome: the op returned a wrong or malformed result."""
    return "wrong", reason


def failed(reason: str):
    """Check outcome: the op failed the way the package documents, by a
    numerical non-convergence or by an identity it reports as not verified."""
    return "failed", reason


def defect(reason: str):
    """Check outcome: the op hit one of the known defects the workloads keep
    visible on purpose (see run.py)."""
    return "defect", reason


def verified(metric: float, tolerance: float, name: str):
    """Outcome of an identity check: a finite metric above the suite
    tolerance is a verification failure, a non-finite one a wrong result."""
    if not math.isfinite(metric):
        return wrong(f"{name} not finite")
    return None if metric <= tolerance else failed(f"{name} above {tolerance:.0e}")


def _opts(**options) -> list[str]:
    """CLI options in ``--name=value`` form: argparse reads a separate value
    such as ``-8.1e-05`` as an option name, not as a negative number."""
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in options.items()]


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class Ctx:
    """Scratch directory of one run."""

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir

    def path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)


# --------------------------------------------------------------------------
# op kinds


class CliOp:
    """``ballprolate.cli.main(argv)`` with output to a scratch file."""

    def __init__(self, argv: list[str]):
        self.argv = argv

    @property
    def kind(self) -> str:
        return f"cli.{self.argv[0]}"

    @property
    def key(self) -> tuple:
        return (self.kind, tuple(self.argv))

    def prepare(self, ctx: Ctx) -> dict:
        out = ctx.path("out")
        if os.path.exists(out):
            os.remove(out)
        return {"argv": self.argv + [f"--out={out}"], "out": out}

    def run(self, inputs: dict) -> int:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                # Looked up at call time so that a tracer's wrapper is used.
                return ballprolate.cli.main(inputs["argv"])
        finally:
            inputs["stderr"] = err.getvalue()

    def check(self, inputs: dict, code: int):
        if code == 0:
            return self.check_output(inputs)
        if code in self.failure_exits:
            return self.check_failure(inputs, code)
        return wrong(f"exit {code}")

    def check_failure(self, inputs: dict, code: int):
        return failed(f"exit {code}")

    # Exit 3 is the CLI's documented numerical non-convergence.
    failure_exits = (3,)

    def check_output(self, inputs: dict):
        return None


class SolveCli(CliOp):
    def __init__(self, d, alpha, c, n, k_max, fmt="csv", table_ref=None):
        self.d, self.alpha, self.c, self.n, self.k_max = d, alpha, c, n, k_max
        self.fmt = fmt
        self.table_ref = table_ref
        super().__init__(["solve", *_opts(dim=d, alpha=alpha, c=c, n=n, k_max=k_max),
                          f"--format={fmt}"])

    def check_failure(self, inputs, code):
        # The message lambda_eigenvalue raises NonPositiveLambda with.
        if (code == 3 and self.k_max >= TAIL_K_MAX
                and "sign convention violated" in inputs["stderr"]):
            return defect("NonPositiveLambda in the k_max 13-40 tail")
        return super().check_failure(inputs, code)

    def check_output(self, inputs):
        if self.fmt == "json":
            with open(inputs["out"], encoding="utf-8") as fh:
                results = json.load(fh)["results"]
            rows = [(r["k"], r["chi"], r["lambda"], r["mu"], r["K"]) for r in results]
            for r in results:
                coeffs = np.asarray(r["coeffs"])
                if abs(np.linalg.norm(coeffs) - 1.0) > 1e-12:
                    return wrong("coefficients not unit norm")
                if len(coeffs) != r["K"] + 1:
                    return wrong("coefficient count != K+1")
        else:
            header, body = _read_csv(inputs["out"])
            if header != ["k", "chi", "lambda", "mu", "K"]:
                return wrong(f"csv header {header}")
            rows = [(int(k), float(chi), float(lam), float(mu), int(K))
                    for k, chi, lam, mu, K in body]
        if [r[0] for r in rows] != list(range(self.k_max + 1)):
            return wrong("rows are not k = 0..k_max")
        prev = -math.inf
        for k, chi, lam, mu, K in rows:
            lower = gamma(self.n + 2 * k, self.alpha, self.d)
            if not lower < chi < lower + self.c ** 2:
                return wrong(f"chi outside (gamma, gamma + c^2) at k={k}")
            if not chi > prev:
                return wrong(f"chi not ascending at k={k}")
            prev = chi
            if not (math.isfinite(lam) and lam > 0.0):
                return wrong(f"lambda not positive at k={k}")
            if abs(mu - lam * lam) > 4e-15 * mu:
                return wrong(f"mu != lambda^2 at k={k}")
            if K < self.k_max:
                return wrong(f"truncation K={K} below k_max")
        if self.table_ref is not None:
            return self._check_table(rows[self.k_max])
        return None

    def _check_table(self, row) -> str | None:
        table, chi_ref, lam_ref = self.table_ref
        _, chi, lam, _, _ = row
        if table == 1:
            chi, lam = chi + 0.75, self.c * (math.sqrt(self.c) * lam / (2.0 * math.pi)) ** 2
        if abs(chi - chi_ref) > TABLE_RTOL * abs(chi_ref):
            return wrong(f"table {table} chi off")
        # Table 3 falls back to an absolute bound for tiny lambda, as table_check does.
        if table == 3 and abs(lam_ref) < TABLE_LAMBDA_ABS_BELOW:
            if abs(lam - lam_ref) > TABLE_LAMBDA_ATOL:
                return wrong(f"table {table} lambda off")
        elif abs(lam - lam_ref) > TABLE_RTOL * abs(lam_ref):
            return wrong(f"table {table} lambda off")
        return None


class QuadCli(CliOp):
    def __init__(self, alpha, beta, m):
        self.alpha, self.beta, self.m = alpha, beta, m
        super().__init__(["quad", *_opts(alpha=alpha, beta=beta, m=m)])

    def check_output(self, inputs):
        header, body = _read_csv(inputs["out"])
        if header != ["node", "weight"] or len(body) != self.m:
            return wrong("quad rows")
        x = np.array([float(r[0]) for r in body])
        w = np.array([float(r[1]) for r in body])
        if not (np.all(np.diff(x) > 0) and x[0] > -1.0 and x[-1] < 1.0 and np.all(w > 0)):
            return wrong("quad nodes or weights out of order")
        a, b = self.alpha, self.beta
        mu0 = math.exp((a + b + 1) * math.log(2.0) + math.lgamma(a + 1)
                       + math.lgamma(b + 1) - math.lgamma(a + b + 2))
        if abs(w.sum() - mu0) > 1e-12 * mu0:
            return wrong("quad zeroth moment")
        if abs(w @ x - mu0 * (b - a) / (a + b + 2)) > 1e-12 * mu0:
            return wrong("quad first moment")
        return None


class EvalBallCli(CliOp):
    def __init__(self, d, alpha, c, n, k, ell, points: np.ndarray):
        self.d = d
        self.points = points
        super().__init__(["eval-ball", *_opts(dim=d, alpha=alpha, c=c, n=n, k=k, ell=ell)])

    @property
    def key(self):
        return (self.kind, tuple(self.argv), self.points.tobytes())

    def prepare(self, ctx):
        inputs = super().prepare(ctx)
        pts = ctx.path("points.txt")
        with open(pts, "w", encoding="utf-8") as fh:
            for p in self.points:
                fh.write(" ".join(repr(float(v)) for v in p) + "\n")
        inputs["argv"] = inputs["argv"] + [f"--points={pts}"]
        return inputs

    def check_output(self, inputs):
        header, body = _read_csv(inputs["out"])
        if header != [f"x{i + 1}" for i in range(self.d)] + ["value"]:
            return wrong("eval-ball header")
        if len(body) != len(self.points):
            return wrong("eval-ball row count")
        table = np.array(body, dtype=float)
        if not np.all(np.isfinite(table)):
            return wrong("eval-ball value not finite")
        if np.max(np.abs(table[:, :-1] - self.points)) > 1e-15:
            return wrong("eval-ball coordinates not echoed")
        return None


class EvalCli(CliOp):
    def __init__(self, d, alpha, c, n, k, start, count):
        self.count = count
        step = (1.0 - start) / (count - 1)
        super().__init__(["eval", *_opts(dim=d, alpha=alpha, c=c, n=n, k=k),
                          "--form=slepian", f"--r={start!r}:{step!r}:1.0"])

    def check_output(self, inputs):
        header, body = _read_csv(inputs["out"])
        if header != ["r", "value"] or len(body) != self.count:
            return wrong("eval row count")
        table = np.array(body, dtype=float)
        if not np.all(np.isfinite(table)):
            return wrong("eval value not finite")
        if not np.all(np.diff(table[:, 0]) > 0):
            return wrong("eval radii not ascending")
        return None


class VerifyCli(CliOp):
    # Exit 1 is the CLI's documented verification failure.
    failure_exits = (1, 3)

    def check_output(self, inputs):
        with open(inputs["out"], encoding="utf-8") as fh:
            report = json.load(fh)
        return None if report["passed"] and report["cases"] else wrong("exit 0 but report not passed")


class LargeSolve:
    """Library ``solve_pswfs`` family with k_max in the hundreds."""

    kind = "lib.solve_pswfs"

    def __init__(self, d, alpha, c, n, k_max):
        self.args = (d, alpha, c, n, k_max)

    @property
    def key(self):
        return (self.kind, self.args)

    def prepare(self, ctx):
        return self.args

    def run(self, args):
        return ballprolate.solve_pswfs(*args)

    def check(self, args, family):
        d, alpha, c, n, k_max = args
        if len(family) != k_max + 1:
            return wrong("family size")
        prev = -math.inf
        for k, f in enumerate(family):
            lower = gamma(n + 2 * k, alpha, d)
            if f.params.k != k or not lower < f.chi < lower + c * c or not f.chi > prev:
                return wrong(f"chi enclosure or order at k={k}")
            prev = f.chi
        return None


class HankelCheck:
    """``hankel_residual`` of one mode of a fresh family (suite skip rule:
    modes with lambda < 1e-7 are not checked)."""

    kind = "lib.hankel_residual"

    def __init__(self, d, alpha, c, n, pick: float):
        self.args = (d, alpha, c, n)
        self.pick = pick

    @property
    def key(self):
        return (self.kind, self.args, self.pick)

    def prepare(self, ctx):
        members = []
        for f in ballprolate.solve_pswfs(*self.args, 4):
            lam = ballprolate.lambda_eigenvalue(f)
            if lam >= HANKEL_MIN_LAMBDA:
                members.append((f, lam))
        return members[int(self.pick * len(members))]

    def run(self, inputs):
        return ballprolate.hankel_residual(*inputs)

    def check(self, inputs, residual):
        outcome = verified(residual, HANKEL_TOL, "hankel residual")
        _, lam = inputs
        if outcome is not None and outcome[0] == "failed" and residual * lam <= HANKEL_ABS_FLOOR:
            return defect("hankel residual at the relative metric's floor")
        return outcome


class GramCheck:
    kind = "lib.orthonormality_gram"

    def __init__(self, d, alpha, c, n, k_max):
        self.args = (d, alpha, c, n, k_max)

    @property
    def key(self):
        return (self.kind, self.args)

    def prepare(self, ctx):
        return ballprolate.solve_pswfs(*self.args)

    def run(self, family):
        return ballprolate.orthonormality_gram(family)

    def check(self, family, deviation):
        return verified(deviation, GRAM_TOL, "gram deviation")


class MuCheck:
    """``mu_rayleigh`` on the disk at small node counts, checked against the
    endpoint-formula lambda squared."""

    kind = "lib.mu_rayleigh"

    def __init__(self, alpha, c, n, k, radial_nodes, angular_nodes):
        self.args = (2, alpha, c, n, k)
        self.nodes = (radial_nodes, angular_nodes)

    @property
    def key(self):
        return (self.kind, self.args, self.nodes)

    def prepare(self, ctx):
        f = ballprolate.solve_pswfs(*self.args)[self.args[4]]
        return ballprolate.lambda_eigenvalue(f) ** 2

    def run(self, mu_ref):
        radial, angular = self.nodes
        return ballprolate.mu_rayleigh(*self.args, radial_nodes=radial, angular_nodes=angular)

    def check(self, mu_ref, mu):
        return verified(abs(mu / mu_ref - 1.0), MU_RTOL, "mu relative error")


# --------------------------------------------------------------------------
# op streams


def cycle(rng: random.Random, values):
    """Endless draws from ``values``: each value once per cycle, in an order
    shuffled afresh every cycle, so every value occurs equally often over a
    run and only the order depends on the seed."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def spread_uniform(rng: random.Random, lo: float, hi: float, strata: int = 12):
    """Endless uniform draws from [lo, hi) that visit its ``strata`` equal
    parts in shuffled cycles, one draw inside each part per cycle."""
    width = (hi - lo) / strata
    for i in cycle(rng, range(strata)):
        yield rng.uniform(lo + i * width, lo + (i + 1) * width)


def integers(rng: random.Random, lo: int, hi: int):
    """Endless draws from lo..hi inclusive, each value once per cycle."""
    return cycle(rng, range(lo, hi + 1))


class Families:
    """Endless (d, alpha, c, n) draws: d cycles through ``dims``; for each d,
    (alpha, n) cycles through every alpha in ALPHAS and n up to
    min(n_max, max_degree(d)); c is spread over ``c_range``.  The shares of
    every discrete parameter are thus the same for every seed, which keeps
    the run-to-run spread of the percentiles small."""

    def __init__(self, rng: random.Random, dims=DIMS, c_range=C_RANGE, n_max=3):
        self.dims = cycle(rng, dims)
        self.rest = {d: cycle(rng, [(alpha, n) for alpha in ALPHAS
                                    for n in range(min(n_max, max_degree(d)) + 1)])
                     for d in dims}
        self.c = spread_uniform(rng, *c_range)

    def __next__(self):
        d = next(self.dims)
        alpha, n = next(self.rest[d])
        return d, alpha, next(self.c), n


def _table_solves() -> list[SolveCli]:
    ops = []
    for c, n, k, _, chi, _, lam in tables.TABLE1:
        ops.append(SolveCli(2, 0.0, c, n, k, table_ref=(1, chi, lam)))
    for c, n, k, chi, lam in tables.TABLE3:
        ops.append(SolveCli(3, 1.0, c, n, k, table_ref=(3, chi, lam)))
    return ops


def solve_stream(rng: random.Random):
    """Rounds of 20: 14 small CLI solves (k_max <= 12, one in four as JSON),
    one CLI quad, two CLI solves from the k_max 13-40 tail (one with
    c < 12.5, one above) and three library families with k_max in
    [100,200), [200,300) and [300,400].  The 20 bundled table rows replace
    one small solve in each of the first 20 rounds, so they never repeat."""
    table_ops = _table_solves()
    small = Families(rng)
    small_k = integers(rng, 0, 12)
    formats = cycle(rng, ("json", "csv", "csv", "csv"))
    quad = (spread_uniform(rng, -0.5, 3.0), spread_uniform(rng, -0.5, 3.0), integers(rng, 8, 64))
    tails = [(Families(rng, c_range=(lo, hi)), integers(rng, 13, 40))
             for lo, hi in ((0.1, 12.5), (12.5, 25.0))]
    large = Families(rng)
    large_k = [integers(rng, lo, lo + 99 + (lo == 300)) for lo in (100, 200, 300)]
    round_no = 0
    while True:
        ops = []
        for i in range(14):
            if i == 0 and round_no < len(table_ops):
                ops.append(table_ops[round_no])
                continue
            d, alpha, c, n = next(small)
            ops.append(SolveCli(d, alpha, c, n, next(small_k), next(formats)))
        ops.append(QuadCli(*(next(draw) for draw in quad)))
        for families, k_max in tails:
            d, alpha, c, n = next(families)
            ops.append(SolveCli(d, alpha, c, n, next(k_max)))
        for k_max in large_k:
            d, alpha, c, n = next(large)
            ops.append(LargeSolve(d, alpha, c, n, next(k_max)))
        rng.shuffle(ops)
        yield ops
        round_no += 1


def _ball_points(rng: random.Random, d: int, count: int) -> np.ndarray:
    nprng = np.random.default_rng(rng.getrandbits(64))
    direction = nprng.standard_normal((count, d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = nprng.random(count) ** (1.0 / d)
    return direction * radius[:, None]


def evaluate_stream(rng: random.Random):
    """Rounds of 10: three CLI eval-ball batches (d in {2,3}, 200-400 points
    in three strata) and seven CLI slepian evals on radial grids of
    1000-4000 points (seven strata).  Every request solves a fresh family
    with k <= 5."""
    ball = Families(rng, dims=(2, 3))
    ball_k = integers(rng, 0, 4)
    ball_points = [integers(rng, lo, lo + 66) for lo in (200, 267, 334)]
    radial = Families(rng)
    radial_k = integers(rng, 0, 5)
    radial_start = spread_uniform(rng, 0.0, 0.05)
    radial_points = [integers(rng, 1000 + 3000 * i // 7, 1000 + 3000 * (i + 1) // 7)
                     for i in range(7)]
    while True:
        ops = []
        for points in ball_points:
            d, alpha, c, n = next(ball)
            k = next(ball_k)
            ell = rng.randint(1, harmonic_count(d, n))
            ops.append(EvalBallCli(d, alpha, c, n, k, ell, _ball_points(rng, d, next(points))))
        for points in radial_points:
            d, alpha, c, n = next(radial)
            ops.append(EvalCli(d, alpha, c, n, next(radial_k), next(radial_start), next(points)))
        rng.shuffle(ops)
        yield ops


def verify_stream(rng: random.Random):
    """One cold CLI ``verify --suite all`` and ``table --id 1..4`` first, then
    rounds of 20 library identity checks: six Hankel residuals, two Gram
    deviations and twelve disk Rayleigh quotients (c in twelve strata of
    [1, 5], 10-12 radial and 32 angular nodes).  By latency the classes sort
    as Hankel (30%), Gram (10%), Rayleigh (60%), so p50 and p90 both fall
    inside the Rayleigh class, away from a class boundary."""
    yield [VerifyCli(["verify", "--suite=all", "--format=json"])] + [
        VerifyCli(["table", f"--id={table_id}", "--format=json"]) for table_id in (1, 2, 3, 4)
    ]
    hankel = Families(rng, dims=(2, 3, 5), c_range=(1.0, 25.0), n_max=2)
    hankel_pick = spread_uniform(rng, 0.0, 1.0)
    gram = Families(rng)
    gram_k = integers(rng, 3, 10)
    mu_c = [spread_uniform(rng, 1.0 + i / 3, 1.0 + (i + 1) / 3, strata=1) for i in range(12)]
    mu_alpha, mu_n, mu_k = cycle(rng, (0.0, 1.0)), integers(rng, 0, 2), integers(rng, 0, 1)
    mu_radial = integers(rng, 10, 12)
    while True:
        ops = []
        for _ in range(6):
            d, alpha, c, n = next(hankel)
            ops.append(HankelCheck(d, alpha, c, n, next(hankel_pick)))
        for _ in range(2):
            d, alpha, c, n = next(gram)
            ops.append(GramCheck(d, alpha, c, n, next(gram_k)))
        for c_draw in mu_c:
            ops.append(MuCheck(next(mu_alpha), next(c_draw), next(mu_n), next(mu_k),
                               next(mu_radial), 32))
        rng.shuffle(ops)
        yield ops


STREAMS = {"solve": solve_stream, "evaluate": evaluate_stream, "verify": verify_stream}
ROUNDS_PER_BLOCK = {"solve": 5, "evaluate": 10, "verify": 5}


# --------------------------------------------------------------------------
# warm-up: one call of each op kind on parameters no workload draws
# (alpha = 0.5 or c <= 0.5, and node counts below the drawn ranges)


def warm_up_ops(workload: str) -> list:
    if workload == "solve":
        return [
            SolveCli(2, 0.5, 0.05, 0, 1, "csv"),
            SolveCli(2, 0.5, 0.05, 0, 1, "json"),
            QuadCli(0.5, 0.5, 4),
            LargeSolve(2, 0.5, 0.05, 0, 2),
        ]
    if workload == "evaluate":
        return [
            EvalBallCli(2, 0.5, 0.05, 0, 0, 1, np.array([[0.1, 0.2], [-0.3, 0.4]])),
            EvalCli(2, 0.5, 0.05, 0, 0, 0.0, 3),
        ]
    # ``table`` shares its report path with ``verify``; every table id is
    # a workload op, so the warm-up runs the recurrence suite instead.
    return [
        VerifyCli(["verify", "--suite=recurrence", "--format=json"]),
        HankelCheck(2, 0.5, 0.5, 0, 0.0),
        GramCheck(2, 0.5, 0.05, 0, 1),
        MuCheck(0.0, 0.5, 0, 0, 6, 8),
    ]


def warm_up(workload: str, ctx: Ctx) -> None:
    for op in warm_up_ops(workload):
        inputs = op.prepare(ctx)
        outcome = op.check(inputs, op.run(inputs))
        if outcome is not None:
            raise RuntimeError(f"warm-up {op.kind} failed: {outcome[1]}")
