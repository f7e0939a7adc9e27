"""Command-line front end.

Subcommands::

    quatode solve <file> [--verify] [--method m] [--step h] [--out path]
    quatode check <file>
    quatode decompose w x y z

Problem files are line-oriented ``key = value`` text; ``#`` starts a comment
and unknown keys are errors.  Recognized keys: ``a0 a1 a2 a3`` (coefficient
expressions, required), ``f0 f1 f2 f3`` (optional forcing expressions),
``t0`` (default 0), ``t_end`` (required), ``q0`` (four reals ``w x y z``,
default ``1 0 0 0``) and ``step`` (the output grid's spacing, default
1e-3; ``--step`` overrides it).  A file states only the problem: the method
(auto|commutative|special|picard|oracle) and the output path are flags.
Detection has no tolerance to set: both detectors test an exact property at
one fixed threshold.  ``--method picard`` skips the special-case test only;
the proportionality test still runs and reports its deviation.

Every strategy but ``oracle`` supplies only its propagator, the scalar gain
and unit solution of q' = a q; ``variation_of_constants`` applies them, q0
and any forcing, so forced problems solve under every strategy.

``solve`` writes the trajectory as CSV with columns
``t,q_w,q_x,q_y,q_z,norm,residual`` (residual blank on the two endpoints).
Every cell is byte-identical to ``'%.17g' % x``: cells whose 17 digits are
certified in double-double arithmetic are printed from those digits, block
by block with numpy, and the rest go through ``%`` itself.  A JSON summary
goes to stdout: the ``strategy`` that produced U (forced or not), the
milliseconds of each stage in ``timings_ms`` and the detection's
proportionality deviation in ``diagnostics``.  Exit status: 1 for parse,
validation and usage errors, 2 for solver failures.
``check`` runs both detectors, the special-case test too where ``auto``
stops at a proportional coefficient, and prints their results as JSON,
with the number of Chebyshev ``panels`` they tested on.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import decisive
from .coeffs import CoefficientSet
from .commutative import (
    CommutativeSolver,
    check_proportionality,
    variation_of_constants,
)
from .csvformat import format_rows
from .decisive import try_special_case
from .errors import NotUnitError, ParseError, QuatOdeError
from .oracle import oracle_deviation, oracle_integrate, residual_profile
from .phase import decompose
from .quat import ONE, Quaternion, norm_arrays
from .trajectory import Trajectory, grid_intervals, uniform_grid

__all__ = ["ProblemSpec", "load_problem", "run", "main"]

_METHODS = ("auto", "commutative", "special", "picard", "oracle")

_COEFF_KEYS = ("a0", "a1", "a2", "a3")
_FORCING_KEYS = ("f0", "f1", "f2", "f3")
_SCALAR_KEYS = ("t0", "t_end", "step")
_ALL_KEYS = _COEFF_KEYS + _FORCING_KEYS + _SCALAR_KEYS + ("q0",)

# What argparse reads as a negative number, not an option: its own pattern,
# ^-\d+$|^-\d*\.\d+$, has no exponent, so -1e-3 would be an unknown option.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
# A solve --verify peaks at 64 B per output node under tracemalloc (63 B
# unforced, linear from 30001 to 300001 nodes): the grid, the solution, the
# residuals and the oracle's half-step times.  So 8e6 nodes peak near
# 0.51 GB, under a quarter of the 2 GiB the bound was set for (at 262 B).
_MAX_NODES = 8_000_000


@dataclass
class ProblemSpec:
    """A validated initial value problem read from a problem file."""

    a: tuple[str, str, str, str]
    f: Optional[tuple[str, str, str, str]]
    t0: float
    t_end: float
    q0: Quaternion
    step: float = 1e-3

    def __post_init__(self):
        for key in _SCALAR_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ParseError(f"{key} must be a finite number", 0)
        if not self.t_end > self.t0:
            raise ParseError("t_end must exceed t0", 0)
        if not self.step > 0.0:
            raise ParseError("step must be positive", 0)
        nodes = grid_intervals(self.t0, self.t_end, self.step) + 1
        if nodes < 3:
            raise ParseError("step leaves fewer than 3 output nodes", 0)
        if nodes > _MAX_NODES:
            raise ParseError(f"step gives {nodes:.7g} output nodes, over the "
                             f"bound of {_MAX_NODES}", 0)


def load_problem(path: str | Path) -> ProblemSpec:
    """Parse a ``key = value`` problem file."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", exc.start) from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'", 0)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}", 0)
        if key in raw:
            raise ParseError(f"line {lineno}: duplicate key {key!r}", 0)
        if not value:
            raise ParseError(f"line {lineno}: empty value for {key!r}", 0)
        raw[key] = value

    missing = [k for k in ("a0", "a1", "a2", "a3", "t_end") if k not in raw]
    if missing:
        raise ParseError(f"missing required keys: {', '.join(missing)}", 0)

    forcing = None
    if any(k in raw for k in _FORCING_KEYS):
        forcing = tuple(raw.get(k, "0") for k in _FORCING_KEYS)

    try:
        q0_parts = tuple(float(v) for v in raw.get("q0", "1 0 0 0").split())
    except ValueError:
        raise ParseError("q0 must be four real numbers", 0) from None
    if len(q0_parts) != 4 or not all(math.isfinite(v) for v in q0_parts):
        raise ParseError("q0 must be four finite real numbers", 0)

    def fnum(key: str, default: float) -> float:
        if key not in raw:
            return default
        try:
            return float(raw[key])
        except ValueError:
            raise ParseError(f"{key} must be a real number", 0) from None

    return ProblemSpec(
        a=tuple(raw[k] for k in _COEFF_KEYS),
        f=forcing,
        t0=fnum("t0", 0.0),
        t_end=fnum("t_end", math.nan),
        q0=Quaternion(*q0_parts),
        step=fnum("step", 1e-3),
    )


def _prepare(spec: ProblemSpec) -> tuple[
        CoefficientSet, Optional[CoefficientSet], np.ndarray]:
    """The coefficient, the forcing (None if unforced) and the output grid
    of ``spec``: ``solve`` and ``check`` parse and build them here only."""
    coeffs = CoefficientSet.from_strings(*spec.a)
    forcing = (None if spec.f is None
               else CoefficientSet.from_strings(*spec.f))
    return coeffs, forcing, uniform_grid(spec.t0, spec.t_end, spec.step)


def _solve_dispatch(spec: ProblemSpec, method: str, coeffs: CoefficientSet,
                    forcing: Optional[CoefficientSet],
                    ts: np.ndarray) -> tuple[str, Trajectory, dict]:
    """Solve by ``method``: the strategy that produced U, the trajectory and
    the diagnostics."""
    if method == "oracle":
        # RK4 steps across a pole; the integrals raise where none exists
        for c in (coeffs, forcing):
            if c is not None:
                c.integral(spec.t0, ts)
        traj = oracle_integrate(coeffs, spec.t0, ts, spec.q0,
                                forcing=forcing)
        return "oracle", traj, {}

    # detection and the strategies below share coeffs.integral(t0, ts)
    report = check_proportionality(coeffs, spec.t0, ts)
    diagnostics: dict = {"detection": {"max_deviation": report.max_deviation}}
    if method in ("auto", "commutative") and report.is_proportional:
        strategy = "commutative"
        propagator = CommutativeSolver(coeffs, report.direction,
                                       t0=spec.t0).propagator(ts)
    elif method == "commutative":
        raise QuatOdeError(
            "coefficients are not proportional; the commutative "
            f"closed form does not apply (max deviation "
            f"{report.max_deviation:.3e})")
    else:
        special = (try_special_case(coeffs, spec.t0, ts)
                   if method != "picard" else None)
        if special is None and method == "special":
            raise QuatOdeError("no frozen-angle special case matches")
        if special is not None:
            strategy, unit = f"special-case-{special.case}", special.sample
        else:
            sol = decisive.solve_segmented(coeffs, spec.t0, ts, ONE)
            strategy, unit = "picard", sol.sample
            diagnostics["picard"] = sol.diagnostics()
        propagator = decisive.propagator(coeffs, spec.t0, ts, unit)

    qs = variation_of_constants(propagator, spec.q0, ts, spec.t0, forcing)
    return strategy, Trajectory(ts, qs), diagnostics


def _fmt(x: float) -> str:
    return format(x, ".17g")


_HEADER = b"t,q_w,q_x,q_y,q_z,norm,residual\n"
_BLOCK_ROWS = 1024  # rows per format_rows call: its arrays set peak memory


def write_csv(path: str | Path, traj: Trajectory,
              residuals: np.ndarray) -> None:
    """Write the trajectory, its norms and ``residuals`` (blank where
    NaN) as CSV, every number as ``'%.17g' % x``, block by block.  Each
    block is copied into one reused buffer, its norms written in place."""
    buffer = np.empty((min(len(traj), _BLOCK_ROWS), 7))
    with open(path, "wb") as fh:
        fh.write(_HEADER)
        for start in range(0, len(traj), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            qs = traj.qs[block]
            rows = buffer[:len(qs)]
            rows[:, 0] = traj.ts[block]
            rows[:, 1:5] = qs
            norm_arrays(qs, out=rows[:, 5])
            rows[:, 6] = residuals[block]
            fh.write(format_rows(rows, np.isnan(rows[:, 6])))


def run(spec: ProblemSpec, out: str | Path, method: str = "auto",
        verify: bool = False) -> dict:
    """Solve one problem by ``method``, write its CSV to ``out`` and return
    the JSON summary.  A bad ``out`` fails before any work, and a failed
    solve leaves no file there that was not there before."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    existed = os.path.exists(out)
    open(out, "ab").close()
    try:
        return _run(spec, out, method, verify)
    except BaseException:
        if not existed:
            os.unlink(out)
        raise


def _run(spec: ProblemSpec, out: str | Path, method: str,
         verify: bool) -> dict:
    clock = time.perf_counter()
    coeffs, forcing, ts = _prepare(spec)
    strategy, traj, diagnostics = _solve_dispatch(spec, method, coeffs,
                                                  forcing, ts)
    timings = {"solve": time.perf_counter() - clock}
    clock = time.perf_counter()
    residuals = residual_profile(traj, coeffs, forcing)
    summary = {"strategy": strategy,
               "max_residual": float(np.nanmax(residuals)),
               "diagnostics": diagnostics}
    timings["residual"] = time.perf_counter() - clock
    clock = time.perf_counter()
    if verify:
        summary["oracle_deviation"] = 0.0 if strategy == "oracle" else (
            oracle_deviation(coeffs, traj, spec.q0, forcing))
    timings["oracle"] = time.perf_counter() - clock if verify else 0.0

    clock = time.perf_counter()
    write_csv(out, traj, residuals)
    timings["csv"] = time.perf_counter() - clock
    summary["timings_ms"] = {k: v * 1e3 for k, v in timings.items()}
    summary["wall_time_ms"] = sum(summary["timings_ms"].values())
    summary["output"] = str(out)
    return summary


def _cmd_solve(args) -> int:
    spec = load_problem(args.file)
    if args.step is not None:
        spec = replace(spec, step=args.step)
    out = args.out or f"{Path(args.file).stem}.csv"
    summary = run(spec, out, args.method, args.verify)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def _cmd_check(args) -> int:
    spec = load_problem(args.file)
    coeffs, _, ts = _prepare(spec)
    report = check_proportionality(coeffs, spec.t0, ts)
    special = try_special_case(coeffs, spec.t0, ts)
    d = report.direction
    json.dump(
        {
            "proportional": report.is_proportional,
            "degenerate": report.degenerate,
            "direction": [d.x, d.y, d.z],
            "max_deviation": report.max_deviation,
            "panels": coeffs.integral(spec.t0, ts).panels,
            "special_case": None if special is None else special.case,
        },
        sys.stdout, indent=2)
    print()
    return 0


def _cmd_decompose(args) -> int:
    q = Quaternion(args.w, args.x, args.y, args.z)
    p = decompose(q)
    print(f"{_fmt(p.theta1)} {_fmt(p.theta2)} {_fmt(p.theta3)}")
    return 0


def _finite(text: str) -> float:
    """A finite real number, for argparse."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatode",
        description="Solve linear quaternion-valued ODEs q' = a(t) q (+ f)")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("file")
    solve.add_argument("--verify", action="store_true",
                       help="also run the RK4 oracle and report deviation")
    solve.add_argument("--method", choices=_METHODS, default="auto")
    solve.add_argument("--step", type=float, default=None,
                       help="output grid / oracle step")
    solve.add_argument("--out", default=None, help="CSV output path")
    solve.set_defaults(fn=_cmd_solve)

    check = sub.add_parser(
        "check", help="report commutativity / special-case detection only")
    check.add_argument("file")
    check.set_defaults(fn=_cmd_check)

    dec = sub.add_parser("decompose",
                         help="phase triple of a unit quaternion")
    for name in ("w", "x", "y", "z"):
        dec.add_argument(name, type=_finite)
    dec.set_defaults(fn=_cmd_decompose)
    for p in (parser, solve, check, dec):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ParseError, NotUnitError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuatOdeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
