"""Command-line front end.

Subcommands::

    quatode solve <file> [--verify] [--method m] [--step h] [--tol eps] [--out path]
    quatode check <file>
    quatode decompose w x y z

Problem files are line-oriented ``key = value`` text; ``#`` starts a comment
and unknown keys are errors.  Recognized keys: ``a0 a1 a2 a3`` (coefficient
expressions, required), ``f0 f1 f2 f3`` (optional forcing expressions),
``t0`` (default 0), ``t_end`` (required), ``q0`` (four reals ``w x y z``,
default ``1 0 0 0``), ``method`` (auto|commutative|special|picard|oracle),
``step``, ``tol``, ``output``.

``solve`` writes the trajectory as CSV with columns
``t,q_w,q_x,q_y,q_z,norm,residual`` (residual blank on the two endpoints),
floats printed with 17 significant digits so identical inputs produce
byte-identical files.  A JSON summary goes to stdout.  Exit status: 1 for
parse/validation errors, 2 for solver failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .coeffs import CoefficientSet
from .commutative import (
    CommutativeSolver,
    check_proportionality,
    variation_of_constants,
)
from .decisive import PicardConfig, scalar_split_solve, try_special_case
from .errors import NotUnitError, ParseError, QuatOdeError
from .oracle import oracle_integrate, residual_profile
from .phase import decompose
from .quat import Quaternion, norm_arrays
from .trajectory import Trajectory, uniform_grid

__all__ = ["ProblemSpec", "load_problem", "run", "main"]

_METHODS = ("auto", "commutative", "special", "picard", "oracle")

_COEFF_KEYS = ("a0", "a1", "a2", "a3")
_FORCING_KEYS = ("f0", "f1", "f2", "f3")
_SCALAR_KEYS = ("t0", "t_end", "step", "tol")
_OTHER_KEYS = ("q0", "method", "output")
_ALL_KEYS = _COEFF_KEYS + _FORCING_KEYS + _SCALAR_KEYS + _OTHER_KEYS


@dataclass
class ProblemSpec:
    """A validated initial value problem read from a problem file."""

    a: tuple[str, str, str, str]
    f: Optional[tuple[str, str, str, str]]
    t0: float
    t_end: float
    q0: Quaternion
    method: str = "auto"
    step: float = 1e-3
    tol: float = 1e-9
    output: Optional[str] = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ParseError(f"unknown method {self.method!r}", 0)
        if not self.t_end > self.t0:
            raise ParseError("t_end must exceed t0", 0)
        if not self.step > 0.0:
            raise ParseError("step must be positive", 0)
        if not self.tol > 0.0:
            raise ParseError("tol must be positive", 0)


def load_problem(path: str | Path) -> ProblemSpec:
    """Parse a ``key = value`` problem file."""
    raw: dict[str, str] = {}
    text = Path(path).read_text()
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
        method=raw.get("method", "auto"),
        step=fnum("step", 1e-3),
        tol=fnum("tol", 1e-9),
        output=raw.get("output"),
    )


@dataclass
class SolveReport:
    strategy: str
    trajectory: Trajectory
    segments: int = 1
    picard_iterations: list[int] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def summary(self, residuals: np.ndarray) -> dict:
        """The JSON summary, given the trajectory's residual profile."""
        return {
            "strategy": self.strategy,
            "segments": self.segments,
            "picard_iterations": self.picard_iterations,
            "max_residual": float(np.nanmax(residuals)),
            "diagnostics": self.diagnostics,
        }


def _scalar_gain(coeffs: CoefficientSet, t0: float,
                 ts: np.ndarray) -> np.ndarray:
    return np.exp(coeffs.antiderivative_array(0, ts, t0))


def _solve_dispatch(spec: ProblemSpec, coeffs: CoefficientSet,
                    forcing: Optional[CoefficientSet],
                    ts: np.ndarray) -> SolveReport:
    method = spec.method
    if method == "oracle":
        traj = oracle_integrate(coeffs, spec.t0, spec.t_end, spec.q0,
                                spec.step, forcing)
        return SolveReport("oracle", traj)

    report = check_proportionality(coeffs, spec.t0, spec.t_end,
                                   tol=spec.tol)
    if method in ("auto", "commutative"):
        if report.is_proportional:
            if forcing is not None:
                qs = variation_of_constants(coeffs, forcing, spec.q0, ts,
                                            report.direction, t0=spec.t0)
                return SolveReport("variation-of-constants",
                                   Trajectory(ts, qs))
            solver = CommutativeSolver(coeffs, report.direction, t0=spec.t0)
            return SolveReport("commutative",
                               Trajectory(ts, solver.sample(ts, spec.q0)))
        if method == "commutative":
            raise QuatOdeError(
                "coefficients are not proportional; the commutative "
                f"closed form does not apply (max deviation "
                f"{report.max_deviation:.3e})")

    if forcing is not None:
        raise QuatOdeError(
            "nonhomogeneous problems are only supported when the "
            "commutativity property holds, or with method oracle")

    if method in ("auto", "special"):
        special = try_special_case(coeffs, spec.t0, spec.t_end, tol=spec.tol,
                                   ts=ts)
        if special is not None:
            qs = special.sample(ts, spec.q0)
            qs = qs * _scalar_gain(coeffs, spec.t0, ts)[:, None]
            return SolveReport(f"special-case-{special.case}",
                               Trajectory(ts, qs))
        if method == "special":
            raise QuatOdeError("no frozen-angle special case matches")

    sol = scalar_split_solve(coeffs, spec.t0, spec.t_end, spec.q0,
                             PicardConfig(), ts=ts)
    return SolveReport("picard", Trajectory(ts, sol.sample(ts)),
                       segments=len(sol.segments),
                       picard_iterations=sol.iterations,
                       diagnostics={"picard": sol.diagnostics()})


def _fmt(x: float) -> str:
    return format(x, ".17g")


# '%.17g' % x and format(x, '.17g') share CPython's float formatter
_ROW = ",".join(["%.17g"] * 7)
_ROW_NO_RESIDUAL = _ROW[:-len("%.17g")]


def write_csv(path: str | Path, traj: Trajectory,
              residuals: np.ndarray) -> None:
    """Write the trajectory, its norms and ``residuals`` (blank where
    NaN) as CSV."""
    table = np.column_stack([traj.ts, traj.qs, traj.norms(), residuals])
    lines = ["t,q_w,q_x,q_y,q_z,norm,residual"]
    lines += [_ROW_NO_RESIDUAL % tuple(row[:6]) if blank else _ROW % tuple(row)
              for row, blank in zip(table, np.isnan(residuals).tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def run(spec: ProblemSpec, source: Optional[Path] = None,
        verify: bool = False, out: Optional[str] = None) -> dict:
    """Solve one problem and write its outputs; returns the JSON summary."""
    start = time.perf_counter()
    coeffs = CoefficientSet.from_strings(*spec.a)
    forcing = None if spec.f is None else CoefficientSet.from_strings(*spec.f)
    ts = uniform_grid(spec.t0, spec.t_end, spec.step)
    report = _solve_dispatch(spec, coeffs, forcing, ts)
    residuals = residual_profile(report.trajectory, coeffs, forcing)
    summary = report.summary(residuals)
    if verify:
        ref = oracle_integrate(coeffs, spec.t0, spec.t_end, spec.q0,
                               spec.step, forcing)
        # both trajectories live on uniform_grid(t0, t_end, step)
        dev = norm_arrays(ref.qs - report.trajectory.qs)
        summary["oracle_deviation"] = float(np.max(dev))
    summary["wall_time_ms"] = (time.perf_counter() - start) * 1e3

    out_path = out or spec.output
    if out_path is None:
        stem = source.stem if source is not None else "trajectory"
        out_path = f"{stem}.csv"
    write_csv(out_path, report.trajectory, residuals)
    summary["output"] = str(out_path)
    return summary


def _cmd_solve(args) -> int:
    spec = load_problem(args.file)
    if args.method:
        spec.method = args.method
    if args.step is not None:
        spec.step = args.step
    if args.tol is not None:
        spec.tol = args.tol
    spec.__post_init__()  # revalidate after the flag overrides
    summary = run(spec, source=Path(args.file), verify=args.verify,
                  out=args.out)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def _cmd_check(args) -> int:
    spec = load_problem(args.file)
    coeffs = CoefficientSet.from_strings(*spec.a)
    report = check_proportionality(coeffs, spec.t0, spec.t_end,
                                   tol=spec.tol)
    special = try_special_case(
        coeffs, spec.t0, spec.t_end, tol=spec.tol,
        ts=uniform_grid(spec.t0, spec.t_end, spec.step))
    d = report.direction
    json.dump(
        {
            "proportional": report.is_proportional,
            "degenerate": report.degenerate,
            "direction": [d.x, d.y, d.z],
            "max_deviation": report.max_deviation,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatode",
        description="Solve linear quaternion-valued ODEs q' = a(t) q (+ f)")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("file")
    solve.add_argument("--verify", action="store_true",
                       help="also run the RK4 oracle and report deviation")
    solve.add_argument("--method", choices=_METHODS, default=None)
    solve.add_argument("--step", type=float, default=None,
                       help="output grid / oracle step")
    solve.add_argument("--tol", type=float, default=None,
                       help="detection tolerance")
    solve.add_argument("--out", default=None, help="CSV output path")
    solve.set_defaults(fn=_cmd_solve)

    check = sub.add_parser(
        "check", help="report commutativity / special-case detection only")
    check.add_argument("file")
    check.set_defaults(fn=_cmd_check)

    dec = sub.add_parser("decompose",
                         help="phase triple of a unit quaternion")
    for name in ("w", "x", "y", "z"):
        dec.add_argument(name, type=float)
    dec.set_defaults(fn=_cmd_decompose)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
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
