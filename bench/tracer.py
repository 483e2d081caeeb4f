"""Span tracer installed around the package's public functions from outside.

Every public function (a module-level function whose name has no leading
underscore) of the traced modules is replaced, at every module binding of
that name inside the package, by a wrapper that records one span per call:
name, start, end, parent span and the benchmark op that caused it.  Spans
are kept in memory (up to a cap) and written out at the end of the run.
Per layer the tracer also accumulates calls, self time (duration minus the
wrapped children's durations), failed calls and work counts.  References
held in containers are not patched: verify's suite table keeps the original
suite functions, so their time counts as verify.run_suite self time.
"""

from __future__ import annotations

import array
import inspect
import sys
import time

import numpy as np

PACKAGE = "ballprolate"
TRACED_MODULES = ("specfn", "linalg", "pswf", "geometry", "verify", "cli")
SPAN_CAP = 200_000


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters: span name -> (counter name, f(args, kwargs, result) -> amount).
WORK = {
    "linalg.eig_symtridiag": ("rows", lambda a, k, r: _arg(a, k, 0, "tri").size),
    "pswf.build_matrix": ("rows", lambda a, k, r: _arg(a, k, 4, "K") + 1),
    "specfn.clenshaw": ("points", lambda a, k, r: np.size(_arg(a, k, 2, "eta"))),
    "specfn.bessel_j_scaled": ("points", lambda a, k, r: np.size(_arg(a, k, 1, "z"))),
    "geometry.kernel_qc": ("points", lambda a, k, r: np.size(_arg(a, k, 3, "rho"))),
    "linalg.gauss_jacobi": ("nodes", lambda a, k, r: _arg(a, k, 2, "m")),
    # Eigenpairs handed on to callers: a solved family keeps k_max+1 pairs,
    # a Gauss-Jacobi rule keeps every node of its eigensolve.
    "pswf.solve_pswfs": ("pairs_used", lambda a, k, r: len(r)),
}


class Tracer:
    """Wraps the package's public functions; records spans while installed
    and active.  Build it after the package is imported."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.failed: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.solve_args: set = set()
        self.solve_repeats = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        self._next_id = 0
        self.span_id = array.array("q")
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_op = array.array("q")
        self.dropped = 0
        # (module, attribute, original, wrapper) for every binding to patch.
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for fn_name, fn in list(vars(mod).items()):
                if (fn_name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{fn_name}", fn)
                for target in modules:
                    for attr, value in vars(target).items():
                        if value is fn:
                            self._patches.append((target, attr, fn, wrapper))

    def install(self) -> None:
        for target, attr, _, wrapper in self._patches:
            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, fn, _ in self._patches:
            setattr(target, attr, fn)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self.failed[name] = 0
        work = WORK.get(name)
        clock = time.perf_counter
        tracer = self
        stack = self._stack
        child = self._child

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            child.append(0.0)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                inner = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - inner
                if not ok:
                    tracer.failed[name] += 1
                if len(tracer.span_id) < SPAN_CAP:
                    tracer.span_id.append(sid)
                    tracer.span_name.append(name_id)
                    tracer.span_start.append(start)
                    tracer.span_end.append(end)
                    tracer.span_parent.append(parent)
                    tracer.span_op.append(tracer.op_id)
                else:
                    tracer.dropped += 1
            if work is not None:
                key = f"{name}.{work[0]}"
                tracer.work[key] = tracer.work.get(key, 0) + work[1](args, kwargs, result)
            if name == "pswf.solve_pswfs":
                call_key = (args, tuple(sorted(kwargs.items())))
                if call_key in tracer.solve_args:
                    tracer.solve_repeats += 1
                else:
                    tracer.solve_args.add(call_key)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as CSV, one span per line in id order."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        t0 = min(self.span_start) if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i in order:
                fh.write(
                    f"{self.span_id[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f},"
                    f"{self.span_parent[i]},{self.span_op[i]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Flat per-layer metrics: <module>.<fn>.calls / .self_s / .failed and
        the work counters, plus the eigensolve's useful ratio."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.failed"] = self.failed[name]
        out.update(self.work)
        rows = self.work.get("linalg.eig_symtridiag.rows", 0)
        used = (self.work.get("pswf.solve_pswfs.pairs_used", 0)
                + self.work.get("linalg.gauss_jacobi.nodes", 0))
        out["linalg.eig_symtridiag.useful_ratio"] = used / rows if rows else 0.0
        solves = self.calls.get("pswf.solve_pswfs", 0)
        out["pswf.solve_pswfs.repeat_share"] = self.solve_repeats / solves if solves else 0.0
        return out
