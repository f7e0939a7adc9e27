"""Check that two source trees of quatode give the same outputs.

Usage::

    python tools/same_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository.  The problems are
CHANGE_TREE's ``problems/*.prob`` and the benchmark workloads
``closed_forms``, ``picard_long`` and ``forced_coarse`` at seeds 7 and 8, as
CHANGE_TREE's ``solvebench/workloads.py`` generates them, and the ``FAR``
problems, on spans far from t = 0 whose nodes are rounded to ulp(t), so
that the RK4 widths differ from the step.  Every problem is run through
``quatode solve --verify`` under ``--method`` auto, picard and oracle, and
through ``quatode check``, once on each tree (a fresh process with the
tree's ``src`` on ``PYTHONPATH``).  ``quatode decompose`` runs on the unit
quaternions of ``units()``: +-1, +-i, +-j, +-k, seeded random ones and
phase products on the theta2 = +-pi/4 band.  Compared: exit codes, CSV
bytes, and stdout, as JSON without ``timings_ms``, ``wall_time_ms`` and
``output`` where it is JSON.  Each difference is printed; the exit status
is 1 if there is any, else 0.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (7, 8)
METHODS = ("auto", "picard", "oracle")
VOLATILE = ("timings_ms", "wall_time_ms", "output")
WORKERS = 2

# (name, problem text) of the problems on spans far from t = 0
_ONE = "a0 = 0\na1 = 1\na2 = 0\na3 = 0\n"
_1E6 = "t0 = 1000000\nt_end = 1000010\nstep = 0.001\n"
_1E12 = "t0 = 1e12\nt_end = 1000000000001.0\nstep = 0.01\n"
FAR = (
    ("far_1e6", _ONE + _1E6),
    ("far_1e12", _ONE + _1E12),
    ("far_forced_1e6", _ONE + "f2 = cos(t - 1000000)\n"
     "t0 = 1000000\nt_end = 1000003\nstep = 0.01\n"),
    ("far_sin_1e12", "a0 = 0\na1 = sin(100*t)\na2 = 0\na3 = 0\n" + _1E12),
)


def units() -> list[tuple[float, ...]]:
    """The quaternions given to ``quatode decompose``."""
    out = []
    for k in range(4):
        for sign in (1.0, -1.0):
            out.append(tuple(sign * (n == k) for n in range(4)))
    rng = random.Random(29)
    for _ in range(24):
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        r = math.sqrt(sum(v * v for v in q))
        out.append(tuple(v / r for v in q))
    for th2 in (math.pi / 4, -math.pi / 4):
        for th1, th3 in ((0.0, 0.0), (0.3, -1.1), (-2.0, 0.7), (1.5, 3.0)):
            # e^{i th1} e^{j th2} e^{k th3}, written out
            w, x = math.cos(th1) * math.cos(th2), math.sin(th1) * math.cos(th2)
            y, z = math.cos(th1) * math.sin(th2), math.sin(th1) * math.sin(th2)
            c, s = math.cos(th3), math.sin(th3)
            out.append((w * c - z * s, x * c + y * s, y * c - x * s,
                        z * c + w * s))
    return out


def problems(tree: Path, into: Path) -> list[Path]:
    """Write the workload and ``FAR`` problems into ``into``; return every
    problem file, the shipped ones first and the ``FAR`` ones last."""
    files = sorted((tree / "problems").glob("*.prob"))
    sys.path.insert(0, str(tree / "solvebench"))
    import workloads
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for p in workloads.generate(workload, seed):
                path = into / f"{workload}_{seed}_{p.name}.prob"
                path.write_text(p.prob_text())
                files.append(path)
    for name, text in FAR:
        path = into / f"{name}.prob"
        path.write_text(text)
        files.append(path)
    return files


def run(tree: Path, argv: list[str], csv: Path | None) -> tuple:
    """Exit code, stdout JSON without the volatile keys, dumped with sorted
    keys so that NaN equals NaN (or the raw text if it is not JSON), and
    CSV bytes (None if none was written) of one command on ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "quatode.cli", *argv],
                          capture_output=True, text=True, env=env)
    try:
        out = json.loads(done.stdout)
        for key in VOLATILE:
            out.pop(key, None)
        out = json.dumps(out, sort_keys=True)
    except json.JSONDecodeError:
        out = done.stdout
    data = csv.read_bytes() if csv is not None and csv.exists() else None
    return done.returncode, out, data


def commands(files: list[Path]) -> list[tuple]:
    """(label, argv builder) per command; the builder takes the tree's
    output directory and returns argv and the CSV path."""
    out = []
    for f in files:
        for m in METHODS:
            def solve(d, f=f, m=m):
                csv = d / f"{f.stem}_{m}.csv"
                return ["solve", str(f), "--verify", "--method", m,
                        "--out", str(csv)], csv
            out.append((f"solve {f.name} --method {m}", solve))
        out.append((f"check {f.name}", lambda d, f=f: (["check", str(f)],
                                                       None)))
    for q in units():
        # "--": a tree whose CLI predates reading exponents in negative
        # numbers would take a component such as -1e-05 for an option
        argv = ["decompose", "--", *map(repr, q)]
        out.append((" ".join(argv), lambda d, argv=argv: (argv, None)))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        sides = [(parent, scratch / "parent"), (change, scratch / "change")]
        for _, d in sides:
            d.mkdir()
        cmds = commands(problems(change, scratch))

        def both(cmd):
            label, build = cmd
            return label, [run(tree, *build(d)) for tree, d in sides]

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(both, cmds))
    differences = 0
    for label, (old, new) in results:
        for what, a, b in zip(("exit code", "stdout", "CSV bytes"), old, new):
            if a != b:
                differences += 1
                print(f"{label}: {what} differs")
                if what != "CSV bytes":
                    print(f"  parent: {a}\n  change: {b}")
    print(f"{len(results)} commands, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
