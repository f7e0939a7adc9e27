import json
import math
from pathlib import Path

import numpy as np
import pytest

import quatode as qo
from quatode import cli
from quatode.cli import load_problem, main, run

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _write(tmp_path, text, name="problem.prob"):
    p = tmp_path / name
    p.write_text(text)
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
method = auto
step = 0.001
tol = 1e-9
output = out.csv
""")
    spec = load_problem(p)
    assert spec.a == ("t^2", "t", "2*t", "3*t")
    assert spec.f is None
    assert spec.q0 == qo.Quaternion(0, 1, 0, 0)
    assert spec.method == "auto"
    assert spec.output == "out.csv"


def test_load_problem_defaults(tmp_path):
    p = _write(tmp_path, "a0=0\na1=1\na2=0\na3=0\nt_end=1\n")
    spec = load_problem(p)
    assert spec.t0 == 0.0
    assert spec.q0 == qo.Quaternion(1, 0, 0, 0)
    assert spec.method == "auto"
    assert spec.step == 1e-3


@pytest.mark.parametrize("text,fragment", [
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nbogus=3\n", "unknown key"),
    ("a0=0\na1=1\na2=0\nt_end=1\n", "missing required"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nq0=1 2\n", "four finite real"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nq0=inf 0 0 0\n", "four finite real"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\na0=1\n", "duplicate"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=0\nt0=1\n", "t_end must exceed"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nmethod=magic\n", "unknown method"),
    ("a0=0\na1=1\na2=0\na3=0\nt_end=1\nstep=\n", "empty value"),
    ("just text\n", "expected 'key = value'"),
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
    assert summary["segments"] >= 1
    assert len(summary["picard_iterations"]) == summary["segments"]
    assert summary["oracle_deviation"] <= 1e-6
    diag = summary["diagnostics"]["picard"]
    assert diag["segments"] == summary["segments"]
    for key in ("h", "m_bound", "nodes", "iterations", "last_contraction"):
        spread = diag[key]
        assert 0.0 <= spread["min"] <= spread["median"] <= spread["max"]
    box = qo.PicardConfig().b
    assert diag["h"]["max"] <= min(0.5, 0.9 * box / diag["m_bound"]["min"])
    assert diag["nodes"]["min"] >= 17
    assert diag["iterations"]["max"] == max(summary["picard_iterations"])
    assert diag["last_contraction"]["max"] < 1.0


def test_non_picard_summary_has_no_picard_diagnostics(tmp_path, capsys):
    rc = main(["solve", str(PROBLEMS / "drifting_jk.prob"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == {}


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


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.prob")])
    assert rc == 1


def test_forcing_requires_commutativity(tmp_path, capsys):
    p = _write(tmp_path,
               "a0=0\na1=sin(2*t)\na2=1\na3=cos(2*t)\nf0=1\nt_end=1\n")
    rc = main(["solve", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "commutativity" in capsys.readouterr().err


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
    assert summary["strategy"] == "variation-of-constants"
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
    assert summary["strategy"] == "variation-of-constants"
    data = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(5))
    ts = data[:, 0]
    assert len(ts) == 3001
    want = np.stack([np.cos(ts), np.sin(ts), ts, np.ones_like(ts)], axis=-1)
    assert np.max(np.abs(data[:, 1:] - want)) <= 1e-10
    assert summary["max_residual"] <= 1e-5
    # the oracle integrates the forced equation, so it agrees to RK4 level
    assert summary["oracle_deviation"] <= 1e-9


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


def test_decompose_command(capsys):
    rc = main(["decompose", "0", "1", "0", "0"])
    assert rc == 0
    th = [float(v) for v in capsys.readouterr().out.split()]
    assert th == pytest.approx([math.pi / 2, 0.0, 0.0])


def test_decompose_rejects_non_unit(capsys):
    rc = main(["decompose", "1", "1", "0", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_verify_reports_small_deviation(tmp_path, capsys):
    rc = main(["solve", str(PROBLEMS / "drifting_jk.prob"), "--verify",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"] == "special-case-II"
    assert summary["oracle_deviation"] <= 1e-6
