"""Outside-in tracing of quatode: spans and counters recorded by wrappers.

``Tracer.install`` replaces the module attributes through which the CLI and
the solver modules call each layer with wrappers that record a span (name,
start, end, parent span, solve id) and update work counters; ``uninstall``
puts the originals back, so one process can alternate traced and untraced
passes.  Spans live in compact in-memory columns until ``save`` writes them.
Nothing in the program is edited: every wrapper sits on an attribute that
the caller looks up at call time.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

from quatode import _kernels, cli, coeffs, commutative, decisive, expr
from quatode import quadrature
from quatode.errors import SingularTheta2Error

_clock = time.perf_counter


class Tracer:
    """Spans and work counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.counts: Counter = Counter()
        self.solve_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def spanned(self, name: str, fn, after=None, failed=None):
        """``fn`` wrapped in a span; ``after(result, args)`` updates counters
        on return and ``failed(exc)`` on an exception."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc)
                raise
            finally:
                self.leave(idx)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        n = self.counts
        span = self.spanned

        def count(key, amount=1):
            def after(result, args):
                n[key] += amount(result, args) if callable(amount) else amount
            return after

        def compile_scalar(e):
            f = original_compile(e)

            def counted(t):
                n["expr.scalar_evals"] += 1
                return f(t)
            return counted

        original_compile = expr.compile_scalar

        def array_eval(result, args):
            n["expr.array_evals"] += 1
            n["expr.array_nodes"] += result.size

        def window(result, args):
            n["decisive.picard_windows"] += 1
            n["decisive.picard_iters"] += result.iterations
            n["decisive.computed_nodes"] += len(result.ts)

        def window_failed(exc):
            n["decisive.picard_windows"] += 1
            if isinstance(exc, SingularTheta2Error):
                n["decisive.window_retries"] += 1

        def segments(result, args):
            n["decisive.segments"] += len(result.segments)
            n["decisive.kept_nodes"] += sum(len(s.ts) for s in result.segments)

        def sweep(result, args):
            nodes = len(args[0])
            n["kernels.picard_sweeps"] += 1
            n["kernels.picard_sweep_nodes"] += nodes
            # computed traffic: six input arrays read, three written
            n["kernels.picard_sweep_bytes"] += 9 * 8 * nodes

        coeff_cls = coeffs.CoefficientSet
        patches = [
            (cli, "load_problem", span("cli.load_problem", cli.load_problem)),
            (cli, "write_csv", span("cli.write_csv", cli.write_csv)),
            (expr, "parse", span("expr.parse", expr.parse)),
            (expr, "compile_scalar", compile_scalar),
            (expr, "eval_array",
             span("expr.eval_array", expr.eval_array, array_eval)),
            (coeff_cls, "antiderivative",
             span("coeffs.antiderivative", coeff_cls.antiderivative,
                  count("coeffs.antiderivative_calls"))),
            (coeff_cls, "antiderivative_array",
             span("coeffs.antiderivative", coeff_cls.antiderivative_array,
                  count("coeffs.antiderivative_calls",
                        lambda r, a: len(r)))),
            (quadrature, "adaptive_simpson",
             span("quadrature.simpson", quadrature.adaptive_simpson,
                  count("quadrature.simpson_calls"))),
            (cli, "check_proportionality",
             span("commutative.detect", cli.check_proportionality)),
            (commutative.CommutativeSolver, "sample",
             span("commutative.sample", commutative.CommutativeSolver.sample)),
            (cli, "variation_of_constants",
             span("commutative.voc", cli.variation_of_constants,
                  count("commutative.voc_calls"))),
            (cli, "try_special_case",
             span("decisive.detect", cli.try_special_case)),
            (decisive.SpecialCaseSolution, "sample",
             span("decisive.special_sample",
                  decisive.SpecialCaseSolution.sample)),
            (decisive, "picard_solve",
             span("decisive.picard", decisive.picard_solve, window,
                  window_failed)),
            (decisive, "solve_segmented",
             span("decisive.chain", decisive.solve_segmented, segments)),
            (decisive.SegmentedSolution, "sample",
             span("decisive.segmented_sample",
                  decisive.SegmentedSolution.sample)),
            (decisive, "compose", span("phase.compose", decisive.compose)),
            (decisive, "compose_arrays",
             span("phase.compose", decisive.compose_arrays)),
            (_kernels, "picard_sweep",
             span("kernels.picard_sweep", _kernels.picard_sweep, sweep)),
            (_kernels, "rk4_integrate",
             span("kernels.rk4", _kernels.rk4_integrate,
                  count("kernels.rk4_steps",
                        lambda r, a: len(r) - 1))),
            (cli, "oracle_integrate",
             span("oracle.integrate", cli.oracle_integrate)),
            (cli, "residual_profile",
             span("oracle.residual", cli.residual_profile,
                  count("oracle.residual_calls"))),
        ]
        for owner, attr, replacement in patches:
            self._patch(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def times_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and total time per span name in ms.

        Self time is a span's duration minus the time covered by its direct
        children; total time is the plain sum of durations, which counts a
        name nested in itself more than once.
        """
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        width = len(self.names)
        own = np.bincount(names, weights=dur - child, minlength=width)
        total = np.bincount(names, weights=dur, minlength=width)
        return ({n: 1e3 * float(own[i]) for i, n in enumerate(self.names)},
                {n: 1e3 * float(total[i]) for i, n in enumerate(self.names)})

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 solve=np.frombuffer(self.solve, dtype=np.int32))
