import json
import math
import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import quatode as qo
from quatode import cli, csvformat, oracle
from quatode.cli import load_problem, main, run

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _write(tmp_path, text, name="problem.prob"):
    p = tmp_path / name
    p.write_bytes(text if isinstance(text, bytes) else text.encode())
    return p


def test_load_problem_full(tmp_path):
    p = _write(tmp_path, """
# demo problem
a0 = t^2        # inline comment
a1 = t
a2 = 2*t
a3 = 3*t
t0 = 0
t_end = 1
q0 = 0 1 0 0
step = 0.001
""")
    spec = load_problem(p)
    assert spec.a == ("t^2", "t", "2*t", "3*t")
    assert spec.f is None
    assert spec.q0 == qo.Quaternion(0, 1, 0, 0)


def test_load_problem_defaults(tmp_path):
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\nt_end=1\n")
    spec = load_problem(p)
    assert spec.t0 == 0.0
    assert spec.q0 == qo.Quaternion(1, 0, 0, 0)
    assert spec.step == 1e-3


@pytest.mark.parametrize("text,fragment", [
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nbogus=3\n", "unknown key"),
    ("a0=0\na1=1\na2=0\nt_end=1\n", "missing required"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nq0=1 2\n", "four finite real"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nq0=inf 0 0 0\n", "four finite real"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\na0=1\n", "duplicate"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=0\nt0=1\n", "t_end must exceed"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nmethod=auto\n", "unknown key"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\noutput=o.csv\n", "unknown key"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nstep=\n", "empty value"),
    ("just text\n", "expected 'key = value'"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=inf\n", "t_end must be a finite"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nt0=-inf\n", "t0 must be a finite"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nt0=nan\n", "t0 must be a finite"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nstep=inf\n", "step must be a finite"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\ntol=1e-9\n", "unknown key"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nstep=1\n", "fewer than 3"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nstep=0.9999999\n", "fewer than 3"),
    (b"a0=0\na1=1\xff\xfe\na2=0\na3=0\nt_end=1\n", "not UTF-8"),
])
def test_load_problem_errors(tmp_path, text, fragment):
    p = _write(tmp_path, text)
    with pytest.raises(qo.ParseError, match=fragment):
        load_problem(p)


def test_solve_reports_case_I(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    rc = main(["solve", str(PROBLEMS / "rotating_axes.prob"), "--verify",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "special-case-I"
    assert summary["max_residual"] <= 1e-5
    assert summary["oracle_deviation"] <= 1e-6
    assert out.exists()


def test_solve_commutative_strategy(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    rc = main(["solve", str(PROBLEMS / "proportional.prob"),
               "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "commutative"
    # endpoint matches the hand expansion of the exponential solution
    last = out.read_text().strip().splitlines()[-1].split(",")
    t, q = float(last[0]), [float(v) for v in last[1:5]]
    from support import ratio123_closed_form
    want = ratio123_closed_form(t)
    assert max(abs(a - b) for a, b in
               zip(q, want.to_array())) <= 1e-9


def test_solve_degenerate_commutative(tmp_path, capsys):
    p = _write(tmp_path, "a0=t\na1=0\na2=0\na3=0\nt_end=1\n")
    rc = main(["solve", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "commutative"
    last = (tmp_path / "o.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(math.exp(0.5),
                                                      rel=1e-10)


def test_solve_picard_strategy(tmp_path, capsys):
    p = _write(tmp_path,
               "a0=0\na1=sin(3*t)\na2=cos(t)\na3=0.5\nt_end=0.5\n")
    rc = main(["solve", str(p), "--method", "picard", "--verify",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "picard"
    assert summary["oracle_deviation"] <= 1e-6
    diag = summary["diagnostics"]["picard"]
    assert diag["segments"] >= 1
    for key in ("h", "m_bound", "nodes", "iterations", "last_contraction"):
        spread = diag[key]
        assert 0.0 <= spread["min"] <= spread["median"] <= spread["max"]
    # adaptive windows may grow past criterion 9; they stay in the span
    assert 0.0 < diag["h"]["min"] and diag["h"]["max"] <= 0.5
    assert isinstance(diag["retries"], int) and diag["retries"] >= 0
    assert diag["nodes"]["min"] >= 17
    assert diag["last_contraction"]["max"] < 1.0


def test_non_picard_summary_has_no_picard_diagnostics(tmp_path, capsys):
    rc = main(["solve", str(PROBLEMS / "drifting_jk.prob"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert set(diag) == {"detection"}
    # drifting_jk's imaginary part turns, so it is far from proportional
    assert diag["detection"]["max_deviation"] > 0.1


def test_residual_profile_computed_once_per_solve(tmp_path, capsys,
                                                  monkeypatch):
    calls = []
    original = cli.residual_profile

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "residual_profile", counted)
    rc = main(["solve", str(PROBLEMS / "rotating_axes.prob"), "--verify",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    assert len(calls) == 1


def test_write_csv_matches_per_cell_format(tmp_path):
    ts = np.array([0.0, 1e-300, 0.1, 1.0 / 3.0, 1e300])
    qs = np.array([[1.0, -0.0, 0.0, 1e-300],
                   [0.1, 0.2, 0.3, 0.4],
                   [-1e150, 2.0 / 3.0, math.pi, -math.e],
                   [math.inf, -math.inf, 5e-324, 1.0],
                   [0.5, -0.5, 0.5, -0.5]])
    res = np.array([math.nan, -0.0, 1e300, 1e-300, math.nan])
    out = tmp_path / "t.csv"
    cli.write_csv(out, qo.Trajectory(ts, qs), res)
    norms = qo.Trajectory(ts, qs).norms()
    want = ["t,q_w,q_x,q_y,q_z,norm,residual"]
    for n in range(len(ts)):
        cells = [format(x, ".17g") for x in (ts[n], *qs[n], norms[n])]
        cells.append("" if math.isnan(res[n]) else format(res[n], ".17g"))
        want.append(",".join(cells))
    assert out.read_text() == "\n".join(want) + "\n"


def _adversarial_doubles(rng) -> np.ndarray:
    """About 1.2e6 doubles that are hard to print with 17 digits."""
    def bits(lo, hi, size):
        return rng.integers(lo, hi, size, dtype=np.uint64).view(np.float64)

    # decimal midpoints (d + 1/2) 10^(E-16) and the doubles 1-2 steps away
    mids = np.array([float(f"{d}5e{e - 17}") for d, e in zip(
        rng.integers(10**16, 10**17, 100_000).tolist(),
        rng.integers(-307, 309, 100_000).tolist())])
    ties = [mids]
    for direction in (-np.inf, np.inf):
        step = mids
        for _ in range(2):
            step = np.nextafter(step, direction)
            ties.append(step)
    # exact ties: j + 1/4 and j + 3/4 have 18 digits below 2^51
    ties.append(np.floor(rng.uniform(1e15, 2e15, 1000)) + [0.25, 0.75] * 500)
    k = np.arange(100_000)
    x = np.concatenate([
        bits(0, 2**64, 500_000),  # every exponent, inf and NaN among them
        bits(1, 2**52, 50_000),  # subnormals
        [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 1e-5, 1e-4, 1e16, 1e17],
        *ties, 0.001 * k, 0.1 * k[:30_000]])
    signs = rng.integers(0, 2, x.size, dtype=np.uint64) << np.uint64(63)
    return (x.view(np.uint64) ^ signs).view(np.float64)


@pytest.fixture(scope="module")
def adversarial_csv():
    """A trajectory of adversarial doubles, its residuals and the CSV that
    per-cell formatting gives for them."""
    x = _adversarial_doubles(np.random.default_rng(20261018))
    rows = x[:x.size // 6 * 6].reshape(-1, 6)
    qs = rows[:, 1:5]
    qs = np.where(np.isnan(qs), np.nan, qs)  # quiet NaNs for the norms
    qs[1, 2] = np.nan
    res = rows[:, 5].copy()
    res[len(res) // 2] = np.nan  # interior blank residual
    traj = qo.Trajectory(rows[:, 0], qs)
    with np.errstate(over="ignore"):  # |q|^2 overflows; the writer must not
        norms = traj.norms()
    want = ["t,q_w,q_x,q_y,q_z,norm,residual"]
    for row, r in zip(np.column_stack([traj.ts, traj.qs, norms]).tolist(),
                      res.tolist()):
        cells = [format(v, ".17g") for v in row]
        cells.append("" if math.isnan(r) else format(r, ".17g"))
        want.append(",".join(cells))
    return traj, res, ("\n".join(want) + "\n").encode()


@pytest.mark.parametrize("certify", [True, False],
                         ids=["certified_digits", "percent_fallback"])
def test_write_csv_matches_format_on_adversarial_doubles(
        tmp_path, monkeypatch, adversarial_csv, certify):
    # certify=False refuses every cell, so each goes through '%'
    if not certify:
        certified = csvformat._certified_digits

        def refuse(x):
            ok, E, d = certified(x)
            return np.zeros_like(ok), E, d
        monkeypatch.setattr(csvformat, "_certified_digits", refuse)
    traj, res, want = adversarial_csv
    out = tmp_path / "adversarial.csv"
    with np.errstate(over="ignore"):
        cli.write_csv(out, traj, res)
    assert out.read_bytes() == want


def test_write_csv_matches_format_next_to_every_power_of_ten(tmp_path):
    # the double nearest 10^k and those 1 and 2 ulps away, both signs: the
    # scaled digits sit at 1e16 or 1e17, where E is decided
    x = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [x]
    for direction in (-np.inf, np.inf):
        step = x
        for _ in range(2):
            step = np.nextafter(step, direction)
            near.append(step)
    x = np.concatenate(near)
    x = np.concatenate([x, -x])
    out = tmp_path / "decades.csv"
    cli.write_csv(out, qo.Trajectory(x, np.zeros((x.size, 4))),
                  np.full(x.size, np.nan))
    lines = out.read_text().splitlines()[1:]
    assert lines == [f"{v:.17g},0,0,0,0,0," for v in x.tolist()]


def _printed_shape(x: float) -> tuple[int, int]:
    """The decimal exponent and the significant digits of '%.17g' % x."""
    text = Decimal("%.17g" % x)
    return text.adjusted(), len(text.normalize().as_tuple().digits)


def _printed_as(exponent: int, digits: int):
    """A double that '%.17g' prints with this exponent and this many
    significant digits, from a fixed sequence of candidates; None if none
    of them is (no double lies within half a 17th-digit unit of any 1-digit
    decimal at some exponents)."""
    span = 9 * 10**(digits - 1)
    for k in range(min(span, 3000)):
        mantissa = 10**(digits - 1) + k * 104729 % span
        x = float(f"{mantissa}e{exponent - digits + 1}")
        if mantissa % 10 and _printed_shape(x) == (exponent, digits):
            return x
    return None


def test_format_rows_lays_out_every_exponent_and_digit_count():
    # every layout the tables hold, enumerated rather than sampled: each
    # fixed-notation exponent, the exponent form at its edges (1e-5, 1e17),
    # at the switch to 3-digit exponents and at the 1e+-280 range limits,
    # 1 to 17 significant digits and both signs, in every column
    exponents = [*range(-5, 18), -99, -100, 99, 100, -280, 280, -281, 281]
    found = {(e, s): _printed_as(e, s)
             for e in exponents for s in range(1, 18)}
    assert all(s == 1 for (e, s), x in found.items() if x is None)
    edges = [float(f"1e{e}")
             for e in (-5, 16, 17, -99, -100, 99, 100, -280, 280)]
    cells = np.array([x for x in found.values() if x is not None] + edges)
    cells = np.concatenate([cells, -cells])
    rows = np.column_stack([np.roll(cells, -j) for j in range(7)])
    blank = np.arange(len(rows)) % 3 == 0
    want = []
    for row, empty in zip(rows.tolist(), blank):
        text = [format(v, ".17g") for v in row]
        want.append(",".join(text[:-1] + [""] if empty else text))
    got = csvformat.format_rows(rows, blank).decode().splitlines()
    assert got == want


def test_format_rows_of_no_rows_is_empty():
    assert csvformat.format_rows(np.empty((0, 7)), np.empty(0, bool)) == b""


def test_power_of_ten_table_is_correctly_rounded():
    # P_hi is 10^k correctly rounded, P_hi + P_lo is 10^k to 2^-106, and
    # P_hi splits exactly into halves of at most 26 significant bits
    powers = range(csvformat._K_MIN, csvformat._K_MAX + 1)
    assert csvformat._POW10.shape == (4, len(powers))
    for k, hi, high, low, lo in zip(powers, *csvformat._POW10.tolist()):
        exact = Fraction(10) ** k
        assert abs(Fraction(hi) - exact) <= Fraction(math.ulp(hi)) / 2, k
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106, k
        assert Fraction(high) + Fraction(low) == Fraction(hi), k
        for half in (high, low):
            assert (math.frexp(half)[0] * 2**26).is_integer(), k


def test_write_csv_peak_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 30.0, 30001)
    qs = rng.uniform(-1.0, 1.0, (ts.size, 4))
    res = 10.0 ** rng.uniform(-14.0, -6.0, ts.size)
    res[[0, -1]] = np.nan
    # the 1024-row blocks of format_rows peak at 1.16 MiB; a norms array
    # and a blank mask over the whole grid would add 0.26 MiB
    tracemalloc.start()
    try:
        cli.write_csv(tmp_path / "m.csv", qo.Trajectory(ts, qs), res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


_PICARD = """a0 = (-0.006801) + (0.255403)*sin((0.561193)*t + (1.188136))
a1 = (0.292255) + (0.697279)*sin((0.975086)*t + (6.238113))
a2 = (0.281423) + (0.693034)*sin((1.37623)*t + (1.551414))
a3 = (0.293695) + (0.711292)*sin((1.795351)*t + (5.314723))
t_end = 30
q0 = 0.624771 -0.12724 -0.709517 0.300095
"""
_FORCED_COMMUTATIVE = """a0 = 0
a1 = (-0.340426580763)*t
a2 = (-0.8178139138980001)*t
a3 = (0.444530747166)*t
f0 = (-0.05957) + (0.75)*sin((1.0)*t + (0.860197))
f1 = (-0.191156) + (0.75)*sin((1.0)*t + (0.271829))
f2 = (0.14376) + (0.75)*sin((1.0)*t + (0.085176))
f3 = (0.22051) + (0.75)*sin((1.0)*t + (4.375346))
t_end = 3
q0 = -0.44776 0.231452 -0.863635 -0.008666
"""


@pytest.mark.parametrize("text", [_PICARD, _FORCED_COMMUTATIVE],
                         ids=["picard", "forced"])
def test_solve_peak_memory_grows_at_most_100_bytes_per_node(tmp_path, text):
    # a solve --verify keeps the grid, the solution and the residuals, 48 B
    # per node, and the oracle's half-step times, 16 B; every other array
    # is one block long, so the slope stays near 64 B
    spec = load_problem(_write(tmp_path, text))
    out = tmp_path / "o.csv"
    sized = [replace(spec, step=spec.t_end / (n - 1)) for n in (10001, 50001)]
    run(sized[0], out, verify=True)  # lazy imports and tables, untraced
    peaks = []
    for s in sized:
        tracemalloc.start()
        try:
            run(s, out, verify=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 40000 <= 100


def test_certified_digits_cover_a_picard_solve(tmp_path, monkeypatch):
    # '%' takes the zero at t0 and the two blank residuals, 3 of 210,007
    refused = []
    certified = csvformat._certified_digits

    def counted(x):
        ok, E, d = certified(x)
        refused.append((ok.size, ok.size - np.count_nonzero(ok)))
        return ok, E, d
    monkeypatch.setattr(csvformat, "_certified_digits", counted)
    run(load_problem(_write(tmp_path, _PICARD)), tmp_path / "o.csv",
        verify=True)
    cells, slow = np.sum(refused, axis=0)
    assert cells == 30001 * 7
    assert slow / cells < 1e-4


@pytest.mark.parametrize("verify", [False, True])
def test_summary_times_every_stage(tmp_path, capsys, verify):
    argv = ["solve", str(PROBLEMS / "rotating_axes.prob"),
            "--out", str(tmp_path / "o.csv")]
    assert main(argv + ["--verify"] * verify) == 0
    summary = json.loads(capsys.readouterr().out)
    timings = summary["timings_ms"]
    assert set(timings) == {"solve", "residual", "oracle", "csv"}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings.values()) <= summary["wall_time_ms"]
    assert (timings["oracle"] > 0.0) == verify


def test_solve_oracle_strategy(tmp_path, capsys):
    rc = main(["solve", str(PROBLEMS / "drifting_jk.prob"),
               "--method", "oracle", "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "oracle"


def test_forced_commutative_fails_on_mismatch(tmp_path, capsys):
    rc = main(["solve", str(PROBLEMS / "rotating_axes.prob"),
               "--method", "commutative", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "not proportional" in capsys.readouterr().err


def test_forced_special_fails_without_match(tmp_path, capsys):
    p = _write(tmp_path, "a0=0\na1=1\na2=1\na3=1\nt_end=1\n")
    rc = main(["solve", str(p), "--method", "special",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "special case" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    p = _write(tmp_path, "a0=foo(t)\na1=1\na2=0\na3=0\nt_end=1\n")
    rc = main(["solve", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_a_forcing_that_does_not_parse_fails_every_command(tmp_path, capsys,
                                                          command):
    # a literal past the largest double is a parse error, not inf
    for forcing, offset in [("sin(", 4), ("1e400", 0)]:
        p = _write(tmp_path, f"a0=0\na1=1\na2=0\na3=0\nf1={forcing}\n"
                   "t_end=1\n")
        argv = [command, str(p)] + (["--out", str(tmp_path / "o.csv")]
                                    * (command == "solve"))
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and f"(at offset {offset})" in err


def test_step_flag_is_validated(tmp_path, capsys):
    # the --step override goes through the same validation as the file
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\nt_end=1\n")
    out = str(tmp_path / "o.csv")
    assert main(["solve", str(p), "--step", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "fewer than 3" in err
    # 0.6 on [0, 1] rounds up to two steps: three nodes solve
    assert main(["solve", str(p), "--step", "0.6", "--out", out]) == 0
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 4


def test_trace_mode_wraps_and_restores_the_program(tmp_path, monkeypatch):
    # the benchmark's trace mode wraps module attributes by name, so a
    # rename in quatode must fail here rather than break the trace
    from quatode import _kernels, coeffs, commutative, decisive, expr
    from quatode import quadrature

    monkeypatch.syspath_prepend(str(PROBLEMS.parent / "solvebench"))
    from spans import Tracer

    owners = [cli, expr, coeffs.CoefficientSet, quadrature, commutative,
              commutative.CommutativeSolver, decisive, _kernels,
              decisive.SpecialCaseSolution, decisive.SegmentedSolution]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install()
    try:
        rc = main(["solve", str(PROBLEMS / "rotating_axes.prob"),
                   "--method", "picard", "--verify",
                   "--out", str(tmp_path / "o.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    # the benchmark's step count reads the length of the returned trajectory
    spec = load_problem(PROBLEMS / "rotating_axes.prob")
    grid = qo.trajectory.uniform_grid(spec.t0, spec.t_end, spec.step)
    assert tracer.counts["kernels.rk4_steps"] == len(grid) - 1
    assert tracer.counts["decisive.segments"] > 0
    assert tracer.counts["kernels.picard_sweeps"] > 0
    assert "decisive.segmented_sample" in tracer.names
    assert [dict(vars(owner)) for owner in owners] == before


@pytest.mark.parametrize("argv, code", [
    (["solve", "FILE", "--method", "magic"], 1),
    (["solve", "FILE", "--step", "abc"], 1),
    (["solve", "FILE", "--tol", "1e-6"], 1),
    ([], 1),
    (["decompose", "nan", "0", "0", "0"], 1),
    (["decompose", "2", "0", "0", "0"], 1),
    (["--help"], 0),
], ids=["method", "step", "tol", "no-command", "decompose-nan",
        "decompose-non-unit", "help"])
def test_command_line_input_exit_codes(tmp_path, capsys, argv, code):
    # exit 1 is for bad input, the command line included; 2 for the solver
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\nt_end=1\n")
    assert main([str(p) if arg == "FILE" else arg for arg in argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert "error" in err.splitlines()[-1]
    else:
        assert "usage:" in out and not err


def test_deep_expression_is_a_parse_error(tmp_path, capsys):
    p = _write(tmp_path, "a0=0\na1=" + "+".join(["t"] * 3000)
               + "\na2=0\na3=0\nt_end=1\n")
    assert main(["solve", str(p), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "deeper than" in err


@pytest.mark.parametrize("problem", sorted(PROBLEMS.glob("*.prob")),
                         ids=lambda p: p.stem)
def test_check_names_the_strategy_solve_picks(tmp_path, capsys, problem):
    assert main(["check", str(problem)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(["solve", str(problem),
                 "--out", str(tmp_path / "o.csv")]) == 0
    strategy = json.loads(capsys.readouterr().out)["strategy"]
    if report["proportional"]:
        assert strategy == "commutative"
    elif report["special_case"] is not None:
        assert strategy == f"special-case-{report['special_case']}"
    else:
        assert strategy == "picard"


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.prob")])
    assert rc == 1


@pytest.mark.parametrize("span", ["t_end=1e300\n", "t0=-1e308\nt_end=1e308\n"],
                         ids=["huge", "overflowing"])
@pytest.mark.parametrize("command", ["solve", "check"])
def test_output_grid_is_sized_before_it_is_built(tmp_path, capsys, span,
                                                 command):
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\n" + span)
    out = tmp_path / "o.csv"
    argv = [command, str(p)] + (["--out", str(out)] * (command == "solve"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "output nodes, over the bound" in err
    assert not out.exists()


def test_problem_at_the_node_bound_is_not_allocated():
    def spec(nodes):  # unit steps on [0, nodes - 1]
        return cli.ProblemSpec(("0",) * 4, None, 0.0, float(nodes - 1),
                               qo.ONE, step=1.0)

    tracemalloc.start()
    try:
        spec(cli._MAX_NODES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(qo.ParseError,
                       match=f"gives {cli._MAX_NODES + 1} output nodes"):
        spec(cli._MAX_NODES + 1)


def test_output_path_is_checked_before_solving(tmp_path, capsys,
                                               monkeypatch):
    def solve(*args):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(cli, "_solve_dispatch", solve)
    rc = main(["solve", str(PROBLEMS / "rotating_axes.prob"), "--verify",
               "--out", str(tmp_path / "missing" / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "missing" in err


def test_failed_solve_leaves_no_csv(tmp_path, capsys):
    p = _write(tmp_path, "a0=0\na1=1/(t-0.5)\na2=0\na3=0\nt_end=1\n")
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--out", str(out)]) == 2
    assert "division by zero" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("a1, code", [
    ("1/(t-0.4999)^2", 2),
    ("1/sqrt(abs(t-0.4999))", 0),
], ids=["pole", "inverse-sqrt"])
def test_a_coefficient_without_an_integral_is_a_solver_error(
        tmp_path, capsys, a1, code):
    p = _write(tmp_path, f"a0=0\na1={a1}\na2=0\na3=0\nt_end=1\n")
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        m = re.fullmatch(r"solver error: integrand is not integrable near "
                         r"t=(\S+)\n", err)
        assert m and abs(float(m[1]) - 0.4999) <= 1e-12
    assert out.exists() == (code == 0)


_FAR = "t0=1e12\nt_end=1000000000001.0\nstep=0.01\n"


@pytest.mark.parametrize("span", [
    _FAR, "t0=0.5\nt_end=0.5000000000001\nstep=1e-14\n",
], ids=["far-from-zero", "narrow"])
@pytest.mark.parametrize("command", [
    ["solve"], ["solve", "--method", "oracle"], ["check"],
], ids=["solve", "oracle", "check"])
def test_a_span_of_few_ulps_solves(tmp_path, capsys, span, command):
    # the span is under 1e4 ulps of |t|, and the one quadrature panel
    # that resolves a1 = 1 over it is not a sign of a pole
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\n" + span)
    out = ["--out", str(tmp_path / "o.csv")] if command[0] == "solve" else []
    assert main(command + [str(p)] + out) == 0, capsys.readouterr().err


def test_a_pole_far_from_zero_is_a_solver_error(tmp_path, capsys):
    p = _write(tmp_path,
               "a0=0\na1=1/(t-1000000000000.49)^2\na2=0\na3=0\n" + _FAR)
    assert main(["solve", str(p), "--out", str(tmp_path / "o.csv")]) == 2
    assert "integrand is not integrable near t=" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norms_and_checks_keep_the_scale_of_q0(tmp_path, capsys, scale):
    # the equation is linear in q0, so every norm and both checks scale
    # with it; squaring the components once made them inf or 0
    figures = []
    for q0 in (1.0, scale):
        p = _write(tmp_path, "a0=0\na1=1\na2=t\na3=0\nt_end=1\n"
                             f"q0={q0!r} 0 0 0\n")
        out = tmp_path / "o.csv"
        assert main(["solve", str(p), "--verify", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        figures.append((summary["max_residual"],
                        summary["oracle_deviation"]))
        norms = np.loadtxt(out, delimiter=",", skiprows=1, usecols=5)
        assert np.allclose(norms / q0, 1.0, rtol=1e-12, atol=0.0)
    (res, dev), (scaled_res, scaled_dev) = figures
    assert scaled_res == pytest.approx(res * scale, rel=1e-2)
    assert scaled_dev == pytest.approx(dev * scale, rel=1e-2)


@pytest.mark.parametrize("text, code", [
    ("a1=1/(t-0.4999)^2\n", 2),
    ("a1=1\nf2=1/(t-0.4999)^2\n", 2),
    ("a1=1/sqrt(abs(t-0.4999))\n", 0),
    ("a1=1\nf2=1/sqrt(abs(t-0.4999))\n", 0),
], ids=["pole", "forced-pole", "inverse-sqrt", "forced-inverse-sqrt"])
def test_the_oracle_method_checks_integrability(tmp_path, capsys, text,
                                                code):
    # RK4 alone would step across the pole and exit 0
    p = _write(tmp_path, "a0=0\na2=0\na3=0\nt_end=1\n" + text)
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--method", "oracle",
                 "--out", str(out)]) == code
    if code:
        m = re.fullmatch(r"solver error: integrand is not integrable near "
                         r"t=(\S+)\n", capsys.readouterr().err)
        assert m and abs(float(m[1]) - 0.4999) <= 1e-12
    assert out.exists() == (code == 0)


def test_the_oracle_method_integrates_once_under_verify(tmp_path, capsys,
                                                        monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle_integrate(*args, **kwargs)

    oracle_integrate = cli.oracle_integrate
    monkeypatch.setattr(cli, "oracle_integrate", counted)
    assert main(["solve", str(PROBLEMS / "rotating_axes.prob"), "--method",
                 "oracle", "--verify", "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["oracle_deviation"] == 0.0


def test_the_oracle_method_builds_one_grid(tmp_path, monkeypatch):
    calls = []

    def counted(module):
        build = module.uniform_grid

        def uniform_grid(*args):
            calls.append(args)
            return build(*args)
        monkeypatch.setattr(module, "uniform_grid", uniform_grid)

    counted(cli)
    counted(oracle)
    assert main(["solve", str(PROBLEMS / "rotating_axes.prob"), "--method",
                 "oracle", "--out", str(tmp_path / "o.csv")]) == 0
    assert calls == [(0.0, 3.0, 0.001)]


def test_run_rejects_an_unknown_method(tmp_path):
    spec = load_problem(PROBLEMS / "proportional.prob")
    out = tmp_path / "o.csv"
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        run(spec, out, method="magic")
    assert not out.exists()


_FORCED = "f0=1\nf1=sin(t)\n"


@pytest.mark.parametrize("text, method, strategy", [
    ("a0=t\na1=t\na2=2*t\na3=0\n", "auto", "commutative"),
    ("a0=0\na1=sin(2*t)\na2=1\na3=cos(2*t)\n", "auto", "special-case-I"),
    ("a0=0\na1=sin(3*t)\na2=cos(t)\na3=0.5\n", "auto", "picard"),
    ("a0=0\na1=sin(3*t)\na2=cos(t)\na3=0.5\n", "oracle", "oracle"),
    ("a0=t\na1=t\na2=2*t\na3=0\n" + _FORCED, "auto", "commutative"),
    ("a0=0\na1=sin(3*t)\na2=cos(t)\na3=0.5\n" + _FORCED, "auto",
     "picard"),
], ids=["commutative", "special", "picard", "oracle", "forced-commutative",
        "forced-picard"])
@pytest.mark.parametrize("verify", [False, True])
def test_summary_states_each_fact_once(tmp_path, capsys, text, method,
                                       strategy, verify):
    p = _write(tmp_path, text + "t_end=0.5\n")
    argv = ["solve", str(p), "--method", method,
            "--out", str(tmp_path / "o.csv")]
    assert main(argv + ["--verify"] * verify) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == strategy
    assert set(summary) == ({"strategy", "max_residual", "diagnostics",
                             "timings_ms", "wall_time_ms", "output"}
                            | ({"oracle_deviation"} if verify else set()))
    assert ("picard" in summary["diagnostics"]) == (strategy == "picard")


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("method, strategy", [
    ("auto", "special-case-I"),
    ("special", "special-case-I"),
    ("picard", "picard"),
])
def test_forced_problem_solves_under_every_strategy(tmp_path, capsys,
                                                    method, strategy):
    p = _write(tmp_path, "a0=0\na1=sin(2*t)\na2=1\na3=cos(2*t)\n"
                         "f0=1\nf1=sin(t)\nt_end=1\n")
    rc = main(["solve", str(p), "--method", method, "--verify",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == strategy
    diag = summary["diagnostics"]
    assert diag["detection"]["max_deviation"] > 0.1
    assert ("picard" in diag) == (strategy == "picard")
    if strategy == "picard":
        assert diag["picard"]["segments"] >= 1
    assert summary["oracle_deviation"] <= 1e-9


def test_oracle_method_solves_forced_problem(tmp_path, capsys):
    # y' = y + 1, y(0) = 0 -> y(1) = e - 1, by RK4 alone
    p = _write(tmp_path,
               "a0=1\na1=0\na2=0\na3=0\nf0=1\nt_end=1\nq0=0 0 0 0\n")
    rc = main(["solve", str(p), "--method", "oracle", "--step", "0.01",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "oracle"
    last = (tmp_path / "o.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(math.e - 1, abs=1e-8)


def test_forcing_scalar_ode(tmp_path, capsys):
    # y' = y + 1, y(0) = 0 -> y(1) = e - 1
    p = _write(tmp_path,
               "a0=1\na1=0\na2=0\na3=0\nf0=1\nt_end=1\nq0=0 0 0 0\n")
    rc = main(["solve", str(p), "--step", "0.01",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "commutative"
    last = (tmp_path / "o.csv").read_text().strip().splitlines()[-1]
    assert float(last.split(",")[1]) == pytest.approx(math.e - 1, abs=1e-8)


def test_forcing_enters_the_residual(tmp_path, capsys):
    # y' = y + 1 solved exactly: the defect must include f rather than
    # report |q' - a q|
    p = _write(tmp_path,
               "a0=1\na1=0\na2=0\na3=0\nf0=1\nt_end=1\nq0=0 0 0 0\n")
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["max_residual"] <= 1e-5
    rows = out.read_text().strip().splitlines()[2:-1]
    assert max(float(r.split(",")[-1]) for r in rows) <= 1e-5


def test_forced_default_step_manufactured(tmp_path, capsys):
    # a = t(i + 2j + 3k) on [0, 3] with the manufactured solution
    # q_m = (cos t, sin t, t, 1) and f = q_m' - a q_m, at the default step
    p = _write(tmp_path, (
        "a0=0\na1=t\na2=2*t\na3=3*t\n"
        "f0=-sin(t) + t*sin(t) + 2*t^2 + 3*t\n"
        "f1=cos(t) - t*cos(t) - 2*t + 3*t^2\n"
        "f2=1 + t - 2*t*cos(t) - 3*t*sin(t)\n"
        "f3=-(t^2) + 2*t*sin(t) - 3*t*cos(t)\n"
        "t_end=3\nq0=1 0 0 1\n"))
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--verify", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "commutative"
    data = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(5))
    ts = data[:, 0]
    assert len(ts) == 3001
    want = np.stack([np.cos(ts), np.sin(ts), ts, np.ones_like(ts)], axis=-1)
    assert np.max(np.abs(data[:, 1:] - want)) <= 1e-10
    assert summary["max_residual"] <= 1e-5
    # the oracle integrates the forced equation, so it agrees to RK4 level
    assert summary["oracle_deviation"] <= 1e-9


def _manufactured(a: tuple[str, str, str, str]) -> str:
    """Problem lines for q' = a q + f with the solution
    q_m = (cos t, sin t, t, 1): f = q_m' - a q_m, written out."""
    a0, a1, a2, a3 = (f"({x})" for x in a)
    return (
        f"a0={a[0]}\na1={a[1]}\na2={a[2]}\na3={a[3]}\n"
        f"f0=-sin(t) - ({a0}*cos(t) - {a1}*sin(t) - {a2}*t - {a3})\n"
        f"f1=cos(t) - ({a0}*sin(t) + {a1}*cos(t) + {a2} - {a3}*t)\n"
        f"f2=1 - ({a0}*t - {a1} + {a2}*cos(t) + {a3}*sin(t))\n"
        f"f3=-({a0} + {a1}*t - {a2}*sin(t) + {a3}*cos(t))\n"
        "q0=1 0 0 1\n")


@pytest.mark.parametrize("a, t_end, strategy", [
    (("0", "sin(2*t)", "1", "cos(2*t)"), 3.0, "special-case-I"),
    (("0.3*cos(t)", "sin(3*t)", "cos(t)", "0.5"), 2.0, "picard"),
], ids=["rotating_axes", "picard_scalar_part"])
def test_manufactured_forced_problem_under_auto(tmp_path, capsys, a, t_end,
                                                strategy):
    p = _write(tmp_path, _manufactured(a) + f"t_end={t_end}\n")
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--verify", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == strategy
    data = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(5))
    ts = data[:, 0]
    want = np.stack([np.cos(ts), np.sin(ts), ts, np.ones_like(ts)], axis=-1)
    assert np.max(np.abs(data[:, 1:] - want)) <= 1e-10
    assert summary["oracle_deviation"] <= 1e-9


def test_picard_finishes_a_span_that_ends_just_past_a_window(tmp_path,
                                                            capsys):
    # the windows end 9.5e-9 short of t_end; the last one must finish the
    # span, not stall under the advance floor
    text = (PROBLEMS / "rotating_axes.prob").read_text()
    p = _write(tmp_path, text.replace("t_end = 3", "t_end = 2.13760853767395"))
    rc = main(["solve", str(p), "--method", "picard", "--verify",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "picard"
    assert summary["oracle_deviation"] <= 1e-9


@pytest.mark.parametrize("problem, message", [
    ("a0=800\na1=t\na2=2*t\na3=3*t\n", "exp overflow"),
    ("a0=800\na1=sin(2*t)\na2=1\na3=cos(2*t)\n", "exp overflow"),
    ("a0=800\na1=sin(3*t)\na2=cos(t)\na3=0.5\n", "exp overflow"),
    # e^{-A0} in the forcing's integrand overflows instead
    ("a0=-800\na1=sin(2*t)\na2=1\na3=cos(2*t)\nf0=1\n", "exp overflow"),
    # e^{A0(1)} = 1.7e308 fits a double, its product with q0 does not
    ("a0=709.5\na1=t\na2=2*t\na3=3*t\nq0=4 0 0 0\n",
     "solution overflows"),
], ids=["commutative", "special", "picard", "forced-inverse", "times-q0"])
def test_exp_overflow_is_a_solver_error(tmp_path, capsys, recwarn, problem,
                                       message):
    p = _write(tmp_path, problem + "t_end=1\n")
    rc = main(["solve", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not [w for w in recwarn if w.category is RuntimeWarning]


@pytest.mark.parametrize("problem, message", [
    ("a0=0\na1=1/(t-0.5)^2\na2=1/(t-0.5)^2\na3=0\nt_end=1\n",
     r"division by zero at t=0\.5 in 1\.0/\(t-0\.5\)\^2\.0$"),
    ("a0=0\na1=ln(t)\na2=0\na3=0\nt0=-1\nt_end=1\n",
     r"ln of nonpositive value at t=-1\.0 in ln\(t\)$"),
    ("a0=0\na1=1\na2=0\na3=0\nf1=sqrt(t-0.3)\nt_end=1\n",
     r"sqrt of negative value at t=0\.0 in sqrt\(t-0\.3\)$"),
    # exp overflows past ln(max double) = 709.78, between two quadrature
    # nodes of the first coarse panels
    ("a0=exp(t)\na1=0\na2=0\na3=0\nt_end=1000\n",
     r"evaluation produced a non-finite value at t=709\.78\d* in exp\(t\)$"),
], ids=["division", "ln", "sqrt", "overflow"])
def test_domain_error_names_time_and_expression(tmp_path, capsys, problem,
                                                message):
    p = _write(tmp_path, problem)
    rc = main(["solve", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert re.search(message, capsys.readouterr().err.rstrip())


def test_csv_deterministic(tmp_path):
    spec1 = load_problem(PROBLEMS / "drifting_kj.prob")
    spec2 = load_problem(PROBLEMS / "drifting_kj.prob")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(spec1, out=str(out1))
    run(spec2, out=str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_norm_column_consistency(tmp_path):
    spec = load_problem(PROBLEMS / "rotating_axes.prob")
    out = tmp_path / "t.csv"
    run(spec, out=str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,q_w,q_x,q_y,q_z,norm,residual"
    # endpoints carry no residual, interior rows do
    assert lines[1].endswith(",")
    assert lines[-1].endswith(",")
    assert not lines[2].endswith(",")
    for line in lines[1::500]:
        cells = line.split(",")
        q = np.array([float(v) for v in cells[1:5]])
        assert abs(float(cells[5]) - np.linalg.norm(q)) <= 1e-12


def test_check_command(capsys):
    rc = main(["check", str(PROBLEMS / "proportional.prob")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["proportional"] is True
    want = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    assert np.allclose(report["direction"], want, atol=1e-12)
    assert isinstance(report["panels"], int) and report["panels"] >= 1

    rc = main(["check", str(PROBLEMS / "rotating_axes.prob")])
    report = json.loads(capsys.readouterr().out)
    assert report["proportional"] is False
    assert report["special_case"] == "I"


def test_check_long_oscillatory_problem(tmp_path, capsys):
    # sin(100 t) on [0, 200] needs more panels than the fixed floor; at the
    # default step the 200001 output times allow them, so detection answers
    p = _write(tmp_path,
               "a0=0\na1=sin(100*t)\na2=cos(37*t)\na3=1\nt_end=200\n")
    assert main(["check", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["proportional"] is False
    assert report["special_case"] is None


@pytest.mark.parametrize("coeffs,periods", [
    # the sine vanishes on every point of a 257-point grid on [0, 1]
    ("a0=0\na1=1\na2=sin(256*pi*t)\na3=0\n", 128),
    # case I's identity a1 = a3 tan(2 A2) broken only by a sine that
    # vanishes on every point of a 128-point grid on [0, 1]
    ("a0=0\na1=sin(2*t) + 0.5*sin(127*pi*t)\na2=1\na3=cos(2*t)\n", 63.5),
], ids=["fixed-ratio", "case-I"])
def test_detection_cannot_alias(tmp_path, capsys, coeffs, periods):
    p = _write(tmp_path, coeffs + "t_end=1\n")
    out = tmp_path / "o.csv"
    assert main(["solve", str(p), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["strategy"] == "picard"
    got = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(1, 5))
    c = qo.CoefficientSet.from_strings(*load_problem(p).a)
    ref = qo.oracle_integrate(c, 0.0, 1.0, qo.ONE, step=1e-4).qs[::10]
    assert np.max(np.linalg.norm(got - ref, axis=1)) <= 1e-9

    assert main(["check", str(p)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["proportional"] is False
    assert report["special_case"] is None
    # a degree-16 panel has at most 16 roots, so follows at most 8 periods
    assert report["panels"] >= periods / 8


@pytest.mark.parametrize("problem,quadratures", [
    (PROBLEMS / "proportional.prob", 1),
    (PROBLEMS / "rotating_axes.prob", 2),  # the shared one, then th3's
    ("a0=0.1*cos(t)\na1=sin(3*t)\na2=cos(t)\na3=0.5\nt_end=0.5\n", 1),
    ("a0=1\na1=0\na2=0\na3=0\nf0=1\nt_end=1\nq0=0 0 0 0\n", 2),
    # the shared one, th3's and the forcing's integrand
    ("a0=0\na1=sin(2*t)\na2=1\na3=cos(2*t)\nf0=1\nf1=sin(t)\nt_end=1\n",
     3),
    ("a0=0.1*cos(t)\na1=sin(3*t)\na2=cos(t)\na3=0.5\nf0=1\nt_end=0.5\n",
     2),
], ids=["commutative", "special-case", "picard", "forced",
        "forced-special-case", "forced-picard"])
def test_one_integral_of_the_coefficient_per_solve(tmp_path, capsys,
                                                   monkeypatch, problem,
                                                   quadratures):
    from quatode import quadrature

    if isinstance(problem, str):
        problem = _write(tmp_path, problem)
    calls = []
    original = quadrature._resolve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_resolve", counted)
    out = str(tmp_path / "o.csv")
    assert main(["solve", str(problem), "--out", out]) == 0
    capsys.readouterr()
    assert len(calls) == quadratures


def test_decompose_command(capsys):
    rc = main(["decompose", "0", "1", "0", "0"])
    assert rc == 0
    th = [float(v) for v in capsys.readouterr().out.split()]
    assert th == pytest.approx([math.pi / 2, 0.0, 0.0])


def test_decompose_rejects_non_unit(capsys):
    rc = main(["decompose", "1", "1", "0", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_decompose_reads_negative_numbers_with_an_exponent(capsys):
    # argparse's own pattern has no exponent: -1e-20 would be an option
    assert main(["decompose", "--", "0.6", "-1e-20", "0.8", "0"]) == 0
    want = capsys.readouterr().out
    assert main(["decompose", "0.6", "-1e-20", "0.8", "0"]) == 0
    assert capsys.readouterr().out == want
    assert main(["decompose", "-2.5E+3", "0", "0", "0"]) == 1
    err = capsys.readouterr().err
    assert "usage:" not in err and "norm 2500.0, expected 1" in err


def test_step_flag_reads_a_negative_exponent_as_its_value(tmp_path, capsys):
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\nt_end=1\n")
    argv = ["solve", str(p), "--step", "-1e-3", "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "step must be positive" in err


def test_verify_reports_small_deviation(tmp_path, capsys):
    rc = main(["solve", str(PROBLEMS / "drifting_jk.prob"), "--verify",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "special-case-II"
    assert summary["oracle_deviation"] <= 1e-6
