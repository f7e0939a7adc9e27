"""Solve benchmark for quatode.

Usage (from the repository root):

    python3 solvebench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``closed_forms``, ``picard_long``, ``forced_coarse`` or
``all``; ``all`` interleaves the passes of every workload so that a change
in host speed hits all of them alike, and prints each workload's metrics.

Each workload is a list of seeded problems written as ``.prob`` files under
``.solvebench/``.  A *pass* solves every problem once with
``quatode solve --verify``, called in-process through ``quatode.cli.main``,
and each trajectory the program writes is checked against a reference that
shares no quatode code (see ``workloads.py``).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``pass_s``: median wall seconds per pass, CSV writing included;
* ``setup_s``: median over fresh processes of importing quatode plus one
  first pass (``probe.py``);
* ``peak_rss_mb``: median peak resident memory (VmHWM) of those processes;
* ``accuracy_digits``: -log10 of the worst sup-norm deviation from the
  reference over every solve of the run;
* ``solved_frac``: solves that exited 0 within tolerance, over solves tried.

Both times are referred to a nominal host speed.  A shared machine runs the
same pass up to 30% slower for minutes at a time, so a fixed reference
computation (``hostspeed.py``) is timed between solves and around the set-up
processes, and each median is scaled by ``HOST_NOMINAL_S`` over the mean
reference time measured alongside it.  The raw wall-time quartiles and the
reference times are on the info line.

With ``--trace 1`` untraced and traced passes alternate and the run reports
per-layer self times and work counts per traced pass (``spans.py``), plus
the tracing overhead.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the environment and the raw pass-time quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
from workloads import WORKLOADS, Problem, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".solvebench"

SETUP_PROBES = 3
HOST_SAMPLES_PER_PASS = 24
HOST_SAMPLES_PER_PROBE = 8
# hostspeed.sample()'s typical time on the 2-vCPU VM the bounds were set on
HOST_NOMINAL_S = 0.004
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
    "solved_frac": "fraction",
}

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "solve": "cli.other_ms",
    "cli.load_problem": "cli.load_problem_ms",
    "cli.write_csv": "cli.write_csv_ms",
    "expr.parse": "expr.parse_ms",
    "expr.eval_array": "expr.array_ms",
    "coeffs.antiderivative": "coeffs.antiderivative_ms",
    "quadrature.simpson": "quadrature.simpson_ms",
    "commutative.detect": "commutative.detect_ms",
    "commutative.sample": "commutative.sample_ms",
    "commutative.voc": "commutative.voc_ms",
    "decisive.detect": "decisive.detect_ms",
    "decisive.special_sample": "decisive.special_sample_ms",
    "decisive.picard": "decisive.picard_ms",
    "decisive.chain": "decisive.chain_ms",
    "decisive.segmented_sample": "decisive.segmented_sample_ms",
    "phase.compose": "phase.compose_ms",
    "kernels.picard_sweep": "kernels.picard_sweep_ms",
    "kernels.rk4": "kernels.rk4_ms",
    "oracle.integrate": "oracle.integrate_ms",
    "oracle.residual": "oracle.residual_ms",
}

# solver stages whose total time, children included, is also reported
STAGE_TOTALS = (
    "cli.write_csv", "commutative.sample", "commutative.voc",
    "decisive.special_sample", "decisive.chain", "decisive.segmented_sample",
    "oracle.integrate",
)

COUNTERS = (
    "expr.scalar_evals", "expr.array_evals", "expr.array_nodes",
    "coeffs.antiderivative_calls", "quadrature.simpson_calls",
    "commutative.voc_calls", "decisive.picard_windows",
    "decisive.window_retries", "decisive.segments", "decisive.picard_iters",
    "kernels.picard_sweeps", "kernels.picard_sweep_nodes",
    "kernels.picard_sweep_bytes", "kernels.rk4_steps",
    "oracle.residual_calls",
)

PER_LAYER_UNITS = {
    **{m: "ms" for m in SPAN_METRICS.values()},
    **{f"{s}_total_ms": "ms" for s in STAGE_TOTALS},
    **{c: "count" for c in COUNTERS},
    "kernels.picard_sweep_bytes": "bytes",
    "decisive.kept_node_frac": "fraction",
    "kernels.numba_backend": "bool",
    "cli.csv_bytes": "bytes",
    "oracle.reported_dev": "norm",
    "check.max_err": "norm",
    "trace.spans": "count",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}

_clock = time.perf_counter


class Bench:
    """One workload's problems, references, outcome counts and samples."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.problems: list[Problem] = generate(workload, seed)
        self.dir = WORK / f"{workload}-{seed}"
        self.probs = [self.dir / f"{p.name}.prob" for p in self.problems]
        self.csvs = [self.dir / f"{p.name}.csv" for p in self.problems]
        self.refs: dict[str, np.ndarray] = {}
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.gate_ok = True
        self.pass_s: list[float] = []
        self.setup_s: list[float] = []
        self.rss_mb: list[float] = []
        self.host_s: list[float] = []
        self.setup_host_s: list[float] = []
        self.reported_dev = 0.0
        self.csv_bytes = 0

    # -- set-up ------------------------------------------------------------

    def prepare(self) -> None:
        """Write the problem files and compute the references."""
        self.dir.mkdir(parents=True, exist_ok=True)
        for p, path in zip(self.problems, self.probs):
            path.write_text(p.prob_text())
        out = self.dir / "reference.npz"
        subprocess.run(
            [sys.executable, str(HERE / "reference.py"), "--workload",
             self.workload, "--seed", str(self.seed), "--out", str(out)],
            check=True, timeout=CHILD_TIMEOUT_S)
        with np.load(out) as data:
            self.refs = {k: data[k] for k in data.files}
        self.gate_ok = self._gate_self_check()

    def _gate_self_check(self) -> bool:
        """The gate must pass each reference and fail it once perturbed."""
        ok = True
        for p in self.problems:
            ts, ref = p.grid(), self.refs[p.name]
            bad = ref.copy()
            bad[len(bad) // 2, 1] += 10.0 * p.tol
            ok &= self.deviation(p, ts, ref) <= p.tol
            ok &= not self.deviation(p, ts, bad) <= p.tol
        return bool(ok)

    def probe_setup(self) -> None:
        """Cold starts in fresh processes: set-up time and peak memory."""
        pairs = [str(x) for pc in zip(self.probs, self.csvs) for x in pc]
        for _ in range(SETUP_PROBES):
            self.setup_host_s.extend(
                hostspeed.sample() for _ in range(HOST_SAMPLES_PER_PROBE))
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), str(SRC), *pairs],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            self.attempted += len(self.problems)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                self.failed += len(self.problems)
                continue
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            self.failed += sum(code != 0 for code in probe["codes"])
            self.setup_s.append(probe["seconds"])
            self.rss_mb.append(probe["rss_mb"])
        self.setup_host_s.extend(
            hostspeed.sample() for _ in range(HOST_SAMPLES_PER_PROBE))

    # -- passes --------------------------------------------------------------

    def run_pass(self, tracer=None) -> float:
        """Solve every problem once; returns the wall seconds spent solving.

        A few host-speed samples precede each solve, outside the timing.
        """
        for csv in self.csvs:
            csv.unlink(missing_ok=True)
        from quatode import cli

        outcomes = []
        elapsed = 0.0
        reps = max(1, HOST_SAMPLES_PER_PASS // len(self.probs))
        for k, (prob, csv) in enumerate(zip(self.probs, self.csvs)):
            self.host_s.extend(hostspeed.sample() for _ in range(reps))
            argv = ["solve", str(prob), "--verify", "--out", str(csv)]
            buf = io.StringIO()
            start = _clock()
            if tracer is not None:
                tracer.solve_id = k
                span = tracer.enter("solve")
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # a crash is a failed solve, not a dead run
                traceback.print_exc()
                code = None
            finally:
                if tracer is not None:
                    tracer.leave(span)
            elapsed += _clock() - start
            outcomes.append((code, buf.getvalue()))
        self._check(outcomes)
        return elapsed

    def _check(self, outcomes) -> None:
        self.reported_dev = 0.0
        self.csv_bytes = 0
        for p, csv, (code, out) in zip(self.problems, self.csvs, outcomes):
            self.attempted += 1
            if code != 0 or not csv.exists():
                self.failed += 1
                continue
            self.csv_bytes += csv.stat().st_size
            try:
                summary = json.loads(out)
            except ValueError:
                self.failed += 1
                print(f"{self.workload}/{p.name}: unreadable summary",
                      file=sys.stderr)
                continue
            self.reported_dev = max(self.reported_dev,
                                    summary.get("oracle_deviation", 0.0))
            data = np.loadtxt(csv, delimiter=",", skiprows=1,
                              usecols=(0, 1, 2, 3, 4), ndmin=2)
            err = self.deviation(p, data[:, 0], data[:, 1:])
            self.max_err = max(self.max_err, err)
            if not err <= p.tol:
                self.failed += 1
                print(f"{self.workload}/{p.name}: deviation {err:.3e} "
                      f"exceeds {p.tol:.1e}", file=sys.stderr)

    def deviation(self, p: Problem, ts: np.ndarray, qs: np.ndarray) -> float:
        """Sup-norm distance from the reference; inf on a wrong grid or a
        non-finite value."""
        grid = p.grid()
        if qs.shape != (len(grid), 4) or not np.allclose(ts, grid, rtol=0,
                                                         atol=1e-9):
            return math.inf
        dev = float(np.max(np.linalg.norm(qs - self.refs[p.name], axis=1)))
        return dev if math.isfinite(dev) else math.inf

    # -- results -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        return {
            "pass_s": statistics.median(self.pass_s)
            * HOST_NOMINAL_S / host_level(self.host_s),
            "setup_s": statistics.median(self.setup_s)
            * HOST_NOMINAL_S / host_level(self.setup_host_s),
            "peak_rss_mb": statistics.median(self.rss_mb),
            "accuracy_digits": -math.log10(max(self.max_err, 1e-17)),
            "solved_frac": (self.attempted - self.failed) / self.attempted,
        }

    def pass_summary(self) -> dict:
        """Raw wall-time quartiles, the highest percentile with ten samples
        beyond it, and the host-speed levels used to scale the metrics."""
        xs = sorted(self.pass_s)
        out = {"passes": len(xs), "pass_s_min": xs[0], "pass_s_max": xs[-1]}
        if len(xs) >= 2:
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            out.update(pass_s_q1=q1, pass_s_median=q2, pass_s_q3=q3)
        if len(xs) > 10:
            out.update(pass_s_tail=xs[-11],
                       pass_s_tail_pct=100.0 * (len(xs) - 10) / len(xs),
                       pass_s_tail_beyond=10)
        out["host_ms"] = 1e3 * host_level(self.host_s)
        if self.setup_s:
            out["setup_s_raw"] = statistics.median(self.setup_s)
            out["setup_host_ms"] = 1e3 * host_level(self.setup_host_s)
        out["max_err"] = self.max_err
        return out


def host_level(samples: list[float]) -> float:
    """Mean host-probe time with the top and bottom tenth dropped.

    A mean, not a median: a pass integrates over the host's fast and slow
    spells, and so does a mean of short probes taken between its solves.
    """
    xs = sorted(samples)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


def layer_metrics(bench: Bench, tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    own, total = tracer.times_ms()
    m = {metric: own.get(span, 0.0) for span, metric in SPAN_METRICS.items()}
    m.update({f"{s}_total_ms": total.get(s, 0.0) for s in STAGE_TOTALS})
    m.update({c: float(tracer.counts[c]) for c in COUNTERS})
    computed = tracer.counts["decisive.computed_nodes"]
    m["decisive.kept_node_frac"] = (
        tracer.counts["decisive.kept_nodes"] / computed if computed else 0.0)
    from quatode import _kernels

    m["kernels.numba_backend"] = float(_kernels.backend_name() == "numba")
    m["cli.csv_bytes"] = float(bench.csv_bytes)
    m["oracle.reported_dev"] = bench.reported_dev
    m["check.max_err"] = bench.max_err
    m["trace.spans"] = float(len(tracer.start))
    return m


def measure(benches: list[Bench], seconds: float, traced: bool) -> dict:
    """Interleave passes of every bench for ``seconds`` per bench.

    Untraced passes fill ``Bench.pass_s``.  When ``traced``, untraced and
    traced passes alternate; returns each bench's per-layer metrics (median
    over its traced passes) and writes every traced pass's spans.
    """
    from spans import Tracer

    layers = {b.workload: [] for b in benches}
    traced_s = {b.workload: [] for b in benches}
    for b in benches:
        b.run_pass()  # the first pass is set-up, not measured
    deadline = _clock() + seconds * len(benches)
    rounds = 0
    while _clock() < deadline or rounds == 0:
        first = rounds % len(benches)  # rotate which workload goes first
        for b in benches[first:] + benches[:first]:
            b.pass_s.append(b.run_pass())
            if traced:
                tracer = Tracer()
                tracer.install()
                try:
                    traced_s[b.workload].append(b.run_pass(tracer))
                finally:
                    tracer.uninstall()
                layers[b.workload].append(layer_metrics(b, tracer))
                tracer.save(b.dir / f"trace-{len(traced_s[b.workload])}.npz")
        rounds += 1
    result = {}
    for b in benches if traced else ():
        rows = layers[b.workload]
        m = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        m["trace.pass_s"] = statistics.median(traced_s[b.workload])
        m["trace.overhead_s"] = m["trace.pass_s"] - statistics.median(
            b.pass_s)
        result[b.workload] = m
    return result


def environment(seed: int) -> dict:
    from quatode import _kernels

    return {
        "backend": _kernels.backend_name(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quatode" / "cli.py").is_file():
        print(f"error: no quatode sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    benches = [Bench(name, args.seed) for name in names]
    for b in benches:
        b.prepare()
        if not args.trace:
            b.probe_setup()
    layers = measure(benches, args.seconds, traced=bool(args.trace))

    if args.trace:
        rows = {b.workload: layers[b.workload] for b in benches}
        units = PER_LAYER_UNITS
    else:
        rows = {b.workload: b.end_to_end() for b in benches}
        units = END_TO_END
    for b in benches:
        for name, value in rows[b.workload].items():
            print(f"{b.workload:14s} {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({"env": environment(args.seed),
                      "passes": {b.workload: b.pass_summary()
                                 for b in benches}}))

    prefix = len(benches) > 1
    print(json.dumps({
        "correct": all(b.gate_ok and b.failed == 0 for b in benches),
        "attempted": sum(b.attempted for b in benches),
        "failed": sum(b.failed for b in benches),
        "metrics": {(f"{w}." if prefix else "") + k:
                    {"value": v, "unit": units[k]}
                    for w, r in rows.items() for k, v in r.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
