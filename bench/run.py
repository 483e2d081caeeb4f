"""Benchmark of the ballprolate package: solve, evaluate and verify workloads.

Run from the repository root, one workload per run:

    python3 bench/run.py --workload solve --seed 1 --seconds 30 --trace 0

or every workload, end-to-end metrics then per-layer metrics:

    for t in 0 1; do for w in solve evaluate verify; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace $t | tail -1
    done; done

The package is imported from ./src; nothing is installed.  Each run is a
single-client closed loop: one op at a time, the next one drawn only after
the previous one returned.  Ops, their seeded inputs and their output checks
are defined in workloads.py.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json:

  setup_s      median over SETUP_REPEATS fresh interpreters, started
               between rounds of the loop, of the time to import the package
               and run one warm-up call of each op kind of the workload
               (bench/probe.py),
  ops_per_s    successful ops per second of loop wall time,
  op_p50_ms,   nearest-rank latency percentiles over every attempted op; an
  op_p90_ms    op that did not succeed ranks as infinitely slow, and a
               percentile that lands on one reports the run's wall time,
  success_rate successful ops / attempted ops,
  peak_rss_mb  peak resident memory of the benchmark process.

All times of --trace 0 are reported at reference speed.  On a shared host
the speed of the machine drifts by a factor of up to two over tens of
seconds, longer than a block, so raw times of two runs of the same code
differ by more than any useful bound.  Between rounds, and around each
set-up probe, the benchmark times a fixed reference kernel that does not
touch the package (Reference: a Python loop, a LAPACK tridiagonal
eigensolve and NumPy array work, a mix like the workloads' own).  Each
block of about 100 ops (whole rounds, see workloads.py), and each probe,
is scaled by REFERENCE_S / the median reference time measured around it, so
a block run while the machine was slow reads as it would have at the
reference speed.  REFERENCE_S is roughly the reference's time on the
2-vCPU VM the benchmark was tuned on, so scaled times there read close to
raw ones.  The raw (unscaled) figures are kept under "raw" in the record.

--trace 1 runs every round twice, once untraced and once with the tracer of
tracer.py installed, alternating which goes first, and reports the per-layer
metrics listed in BENCHMARK.json from the traced side, with trace.overhead
= 1 - traced / untraced ops_per_s.  Spans go to
.bench_out/spans-<workload>.csv.

Every op ends in one of four states (see workloads.py):

  ok      the output passed its check,
  defect  the op hit one of the two known defects the workloads keep
          visible on purpose: NonPositiveLambda (CLI exit 3) on a solve of
          the k_max 13-40 tail (ROADMAP item 3), or a Hankel residual above
          the suite tolerance whose absolute size is at the double-precision
          floor (ROADMAP criterion 4, for lambda just above the suite's skip
          line).  These are the package's documented behaviour on those
          inputs; they lower success_rate and rank as infinitely slow, and
          are counted under "defects" in the record, not as failed ops,
  failed  any other failure the package documents: numerical
          non-convergence (CLI exit 3 or an exception from ballprolate.errors)
          or a verification failure (CLI exit 1, or an identity residual
          above the shipped suite tolerance),
  wrong   any other exit code, exception or output-check miss.

The result's ``failed`` counts failed and wrong ops, and ``correct`` is
false when any op was wrong.

The line before the result holds the environment record, per-kind counts,
failure and defect reasons, the share of ops whose exact inputs repeat an
earlier op and the raw figures; the same record is written to
.bench_out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
REFERENCE_S = 0.0065
REFERENCE_TIMES = 3
MIN_OPS = 100
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "evaluate", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Record(NamedTuple):
    round: int
    op: object
    begin: float  # seconds since the loop started
    latency: float  # seconds; inf unless the op is ok
    status: str  # "ok", "defect", "failed" or "wrong"; see the module docstring
    reason: str | None


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Reference:
    """A fixed kernel that does not touch the package; calling it returns
    the seconds it took.  Build it after the BLAS thread count is set."""

    def __init__(self):
        import numpy as np
        import scipy.linalg

        self.np = np
        self.eigh_tridiagonal = scipy.linalg.eigh_tridiagonal
        self.diag = np.linspace(1.0, 2.0, 240)
        self.offdiag = np.full(239, 0.3)
        self.x = np.linspace(-1.0, 1.0, 4000)

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        table = {}
        for i in range(12000):
            acc += (i % 7) * 0.5
            table[i % 64] = acc
        [repr(v) for v in table.values()]
        w, _ = self.eigh_tridiagonal(self.diag, self.offdiag)
        np.cos(self.x * w[-1]) @ np.sin(self.x)
        return time.perf_counter() - t0


def tag_rounds(rounds):
    for round_no, ops in enumerate(rounds):
        for op in ops:
            yield round_no, op


class Runner:
    """Runs ops one at a time and classifies each outcome."""

    def __init__(self, ctx):
        self.ctx = ctx

    def run(self, tagged_ops, seconds, between_rounds=None):
        """Closed loop over (round, op) pairs that stops drawing once
        ``seconds`` of wall time have passed and at least MIN_OPS ops ran.
        ``between_rounds(round_no, loop_s)`` is called before each round
        and before the deadline check; its time is left out of the loop's
        clock.  Returns ([Record], wall_s)."""
        records = []
        start = time.perf_counter()
        paused = 0.0
        last_round = None
        for round_no, op in tagged_ops:
            if between_rounds is not None and round_no != last_round:
                t0 = time.perf_counter()
                between_rounds(round_no, t0 - start - paused)
                paused += time.perf_counter() - t0
            last_round = round_no
            begin = time.perf_counter() - start - paused
            if len(records) >= MIN_OPS and begin >= seconds:
                break
            records.append(Record(round_no, op, begin, *self.run_one(op, None, len(records))))
        return records, time.perf_counter() - start - paused

    def run_paired(self, rounds, seconds, tracer):
        """Runs each round twice, untraced and traced, alternating which goes
        first, until the untraced rounds took ``seconds`` and at least
        MIN_OPS ops ran, so both sides see the same machine.  Returns
        (untraced, traced), each ([Record], wall_s)."""
        sides = {False: ([], [0.0]), True: ([], [0.0])}
        for round_no, ops in enumerate(rounds):
            untraced_records, untraced_wall = sides[False]
            if untraced_wall[0] >= seconds and len(untraced_records) >= MIN_OPS:
                break
            for traced in ((False, True) if round_no % 2 == 0 else (True, False)):
                records, wall = sides[traced]
                if traced:
                    tracer.install()
                start = time.perf_counter()
                for op in ops:
                    begin = wall[0] + time.perf_counter() - start
                    outcome = self.run_one(op, tracer if traced else None, len(records))
                    records.append(Record(round_no, op, begin, *outcome))
                wall[0] += time.perf_counter() - start
                if traced:
                    tracer.uninstall()
        return [(records, wall[0]) for records, wall in (sides[False], sides[True])]

    def run_one(self, op, tracer, op_id):
        """(latency_s, status, reason) of one op; see Record."""
        try:
            inputs = op.prepare(self.ctx)
        except Exception as exc:  # a broken package must not stop the run
            return math.inf, "wrong", f"prepare raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.op_id = op_id
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run(inputs)
            error = None
        except Exception as exc:
            error = exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if error is not None:
            loud = type(error).__module__ == "ballprolate.errors"
            return math.inf, "failed" if loud else "wrong", type(error).__name__
        try:
            outcome = op.check(inputs, result)
        except Exception as exc:
            outcome = "wrong", f"check raised {type(exc).__name__}: {exc}"
        if outcome is not None:
            return (math.inf,) + outcome
        return latency, "ok", None


def summarize(records, wall, rounds_per_block, refs=None):
    """Timing metrics over every op of the run.  With ``refs`` (round number
    -> reference() taken just before that round), the latencies and wall
    time of each block of ``rounds_per_block`` rounds are scaled to
    reference speed by the median reference time over the block's round
    boundaries, so that a block run while other load slowed the machine
    reads as it would have at the reference speed."""
    groups = {}
    for r in records:
        groups.setdefault(r.round // rounds_per_block, []).append(r)
    blocks = list(groups.values())
    ends = [b[0].begin for b in blocks[1:]] + [wall]
    scaled_wall = 0.0
    latencies = []
    for block, end in zip(blocks, ends):
        scale = 1.0
        if refs is not None:
            around = [refs[r] for r in range(block[0].round, block[-1].round + 2) if r in refs]
            scale = REFERENCE_S / statistics.median(around)
        scaled_wall += (end - block[0].begin) * scale
        latencies.extend(r.latency * scale for r in block)
    latencies.sort()

    def pct_ms(q):
        value = nearest_rank(latencies, q)
        return 1e3 * (value if math.isfinite(value) else scaled_wall)

    ok = sum(1 for r in records if r.status == "ok")
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.status in ("failed", "wrong")),
        "defects": sum(1 for r in records if r.status == "defect"),
        "wrong": sum(1 for r in records if r.status == "wrong"),
        "ops_per_s": ok / scaled_wall,
        "op_p50_ms": pct_ms(0.5),
        "op_p90_ms": pct_ms(0.9),
        "success_rate": ok / len(records),
        "wall_s": wall,
    }


def describe(records):
    """Per-kind counts, failure reasons and the exact-repeat share."""
    kinds = {}
    reasons = {}
    seen = set()
    repeats = 0
    for _, op, _, latency, status, reason in records:
        entry = kinds.setdefault(op.kind, {"attempted": 0, "defects": 0, "failed": 0,
                                           "latencies_ms": []})
        entry["attempted"] += 1
        if status != "ok":
            entry["defects" if status == "defect" else "failed"] += 1
            key = f"{op.kind}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
        else:
            entry["latencies_ms"].append(1e3 * latency)
        if op.key in seen:
            repeats += 1
        seen.add(op.key)
    for entry in kinds.values():
        lat = sorted(entry.pop("latencies_ms"))
        entry["p50_ms"] = nearest_rank(lat, 0.5) if lat else None
    return {
        "kinds": kinds,
        "failure_reasons": reasons,
        "repeat_share": repeats / len(records),
        "error_rate": sum(1 for r in records if r.status != "ok") / len(records),
    }


class SetupProbes:
    """Cold starts of probe.py, each timed from just before the start to the
    end of its warm-up on the shared monotonic clock, and scaled to
    reference speed by the median of REFERENCE_TIMES reference() runs just
    before it and as many just after it.
    The SETUP_REPEATS probes are spread evenly over the measured loop,
    between rounds, so that their median sees the machine over the same span
    as the other metrics."""

    def __init__(self, root, workload, scratch, seconds, reference):
        self.root, self.workload, self.scratch = root, workload, scratch
        self.reference = reference
        self.interval = seconds / SETUP_REPEATS
        self.samples = []
        self.raw = []

    def __call__(self, loop_s):
        if len(self.samples) < SETUP_REPEATS and loop_s >= len(self.samples) * self.interval:
            self.samples.append(self.probe())

    def finish(self):
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self.probe())
        return statistics.median(self.samples)

    def probe(self):
        probe_dir = os.path.join(self.scratch, f"probe{len(self.samples)}")
        os.makedirs(probe_dir)
        refs = [self.reference() for _ in range(REFERENCE_TIMES)]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "probe.py"), self.workload, probe_dir],
            cwd=self.root, check=True, stdout=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        raw = float(done.stdout.split()[-1]) - t0
        self.raw.append(raw)
        refs += [self.reference() for _ in range(REFERENCE_TIMES)]
        return raw * REFERENCE_S / statistics.median(refs)


def environment(root, src):
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "ballprolate", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    threads = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": threads,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ballprolate", "__init__.py")):
        print("error: no src/ballprolate below the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # One BLAS thread: the benchmark is a single-client loop and stays within nproc threads.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [src, BENCH_DIR]
    import ballprolate
    import workloads
    from tracer import Tracer

    if not os.path.abspath(ballprolate.__file__).startswith(src + os.sep):
        print(f"error: imported {ballprolate.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        ctx = workloads.Ctx(scratch)
        runner = Runner(ctx)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace}
        workloads.warm_up(args.workload, ctx)
        rounds = workloads.STREAMS[args.workload](random.Random(args.seed))
        per_block = workloads.ROUNDS_PER_BLOCK[args.workload]
        record["env"] = environment(root, src)
        if args.trace == 0:
            reference = Reference()
            probes = SetupProbes(root, args.workload, scratch, args.seconds, reference)
            refs = {}

            def between_rounds(round_no, loop_s):
                refs[round_no] = reference()
                probes(loop_s)

            records, wall = runner.run(tag_rounds(rounds), seconds=args.seconds,
                                       between_rounds=between_rounds)
            base = summarize(records, wall, per_block, refs)
            values = {
                "setup_s": probes.finish(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **base,
            }
            record["setup_samples_s"] = probes.samples
            record["raw"] = {
                "untraced": summarize(records, wall, per_block),
                "setup_samples_s": probes.raw,
                "reference_s": statistics.median(refs.values()),
            }
            names = spec["end_to_end"]
            summary = base
        else:
            tracer = Tracer()
            # Each round runs twice, so half the time goes to either side.
            (records, wall), (traced_records, traced_wall) = runner.run_paired(
                rounds, args.seconds / 2, tracer)
            base = summarize(records, wall, per_block)
            summary = summarize(traced_records, traced_wall, per_block)
            record["traced"] = summary
            record["spans"] = {"kept": len(tracer.span_id), "dropped": tracer.dropped}
            tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}.csv"))
            values = tracer.layer_metrics()
            values["trace.overhead"] = 1.0 - summary["ops_per_s"] / base["ops_per_s"]
            record["layers"] = values
            names = spec["per_layer"]
            summary = {**summary, "wrong": summary["wrong"] + base["wrong"]}
        record["ops"] = describe(records)
        record["untraced"] = base
        values["ops.repeat_share"] = record["ops"]["repeat_share"]
        result = {
            "correct": summary["wrong"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                        for m in names},
        }
        record["result"] = result
        with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps({k: record[k] for k in ("env", "ops", "untraced", "raw") if k in record}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
