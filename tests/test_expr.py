import math

import numpy as np
import pytest

import quatode as qo
from quatode import expr
from quatode.expr import (
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    TimeVar,
    compile_scalar,
    eval_array,
    parse,
    pretty,
)


def _at(src, t):
    """``src`` at the single time ``t``."""
    return float(eval_array(parse(src), np.array([t]))[0])


def test_parse_sin_product():
    assert parse("sin(2*t)") == Call("sin", BinOp("*", Num(2.0), TimeVar()))


def test_parse_poly():
    assert parse("t^2 + t") == BinOp("+", BinOp("^", TimeVar(), Num(2.0)),
                                     TimeVar())


def test_unknown_function_offset():
    with pytest.raises(qo.UnknownFunctionError) as exc:
        parse("foo(t)")
    assert exc.value.offset == 0


def test_unknown_identifier_offset():
    with pytest.raises(qo.ParseError) as exc:
        parse("2 + x")
    assert exc.value.offset == 4


def test_bad_character_offset():
    with pytest.raises(qo.ParseError) as exc:
        parse("sin(t, 2)")
    assert exc.value.offset == 5


@pytest.mark.parametrize("src, offset", [("1e400", 0), ("2*1e309", 2)])
def test_overflowing_number_is_a_parse_error(src, offset):
    # as Num(inf) it would fail only at evaluation, and print as "inf"
    with pytest.raises(qo.ParseError, match="overflows a double") as exc:
        parse(src)
    assert exc.value.offset == offset
    assert parse("1.7976931348623157e308") == Num(1.7976931348623157e308)


@pytest.mark.parametrize("src", ["", "   ", "1 +", "(1", "sin t", ")", "t t"])
def test_malformed_inputs(src):
    with pytest.raises(qo.ParseError):
        parse(src)


@pytest.mark.parametrize("src, offset", [
    ("(" * 200 + "t" + ")" * 200, 101),
    ("+".join(["t"] * 3000), 199),
    ("-" * 3000 + "1", 101),
    ("^".join(["1"] * 3000), 202),
    ("t+t*t^(" * 34 + "t" + ")" * 34, 5),
], ids=["parens", "sum", "minus", "power", "mixed"])
def test_too_deep_is_a_parse_error(src, offset):
    # the parse or the tree would pass Python's default recursion limit
    with pytest.raises(qo.ParseError, match="deeper than 100 levels") as exc:
        parse(src)
    assert exc.value.offset == offset


_DEPTH = expr._MAX_DEPTH


def _nested(step, times=_DEPTH - 1):
    """The reference ``x = t``, then ``x = step(t, x)`` ``times`` times."""
    def ref(t):
        x = t
        for _ in range(times):
            x = step(t, x)
        return x
    return ref


@pytest.mark.parametrize("src, ref", [
    ("(" * _DEPTH + "t" + ")" * _DEPTH, lambda t: t),
    ("sin(" * (_DEPTH - 1) + "t" + ")" * (_DEPTH - 1),
     _nested(lambda t, x: math.sin(x))),
    ("+".join(["t"] * _DEPTH), _nested(lambda t, x: x + t)),
    ("-" * (_DEPTH - 1) + "t", lambda t: -t),
    ("^".join(["t"] * _DEPTH), _nested(lambda t, x: t ** x)),
    # three precedence levels and two nested levels a repeat
    ("t+t*t^(" * 33 + "t" + ")" * 33,
     _nested(lambda t, x: t + t * t ** x, 33)),
], ids=["parens", "calls", "sum", "minus", "power", "mixed"])
def test_expression_at_the_depth_bound_evaluates(src, ref):
    ast = parse(src)
    ts = [0.25, 0.5, 1.0]
    vec = eval_array(ast, np.array(ts))
    assert vec.tolist() == pytest.approx([ref(t) for t in ts], rel=1e-14)
    assert parse(pretty(ast)) == ast


def test_power_is_right_associative():
    assert _at("2^3^2", 0.0) == 512.0


def test_unary_minus_binds_tighter_than_power():
    # the grammar parses -t^2 as (-t)^2
    assert _at("-t^2", 3.0) == 9.0
    assert _at("-(t^2)", 3.0) == -9.0


def test_scientific_notation_vs_e_constant():
    assert _at("1e-3", 0.0) == 1e-3
    assert _at("2*e", 0.0) == pytest.approx(2 * math.e, rel=0)
    assert _at("pi", 0.0) == math.pi


def test_eval_examples():
    assert _at("sin(2*t)", math.pi / 4) == pytest.approx(1.0)
    assert _at("t^2", 3.0) == 9.0


def test_division_by_zero():
    with pytest.raises(qo.DivisionByZeroError):
        _at("1/t", 0.0)


def test_domain_errors():
    with pytest.raises(qo.DomainError):
        _at("ln(t)", -1.0)
    with pytest.raises(qo.DomainError):
        _at("ln(t)", 0.0)
    with pytest.raises(qo.DomainError):
        _at("sqrt(t)", -4.0)
    with pytest.raises(qo.DomainError):
        _at("t^0.5", -2.0)
    with pytest.raises(qo.DivisionByZeroError):
        _at("t^(0-1)", 0.0)
    with pytest.raises(qo.DomainError):
        _at("exp(t)", 1e6)


def test_integer_power_of_negative_base():
    assert _at("t^3", -2.0) == -8.0
    assert _at("t^2", -2.0) == 4.0


def test_whitespace_insensitive():
    assert parse(" sin(  2 *t )  ") == parse("sin(2*t)")


_ROUND_TRIP_CORPUS = [
    "1", "t", "pi", "e", "-t", "--t", "1.5", ".5", "2.5e2", "1e-3",
    "t+1", "t-1", "2*t", "t/2", "t^2", "t^-2", "-t^2", "-(t^2)",
    "t+2*t", "(t+2)*t", "t-2-3", "t-(2-3)", "t/2/3", "t/(2/3)",
    "2^3^2", "(2^3)^2", "t^(t+1)", "sin(t)", "cos(2*t)", "tan(t/4)",
    "atan(t)", "exp(-t)", "ln(t+10)", "sqrt(t^2+1)", "abs(-t)",
    "sin(2*t)+cos(2*t)", "t^2 + t", "t^2*sin(t)", "-sin(t)^2",
    "1/(1+t^2)", "sin(cos(t))", "exp(t)*exp(-t)", "t*pi/2",
    "2*e^t", "-1.25e-2*t", "sin(2*t+pi/4)", "(t+1)^(t-1)",
    "abs(t)-abs(-t)", "sqrt(abs(sin(t)))", "t^2^2",
]


@pytest.mark.parametrize("src", _ROUND_TRIP_CORPUS)
def test_pretty_round_trip(src):
    ast = parse(src)
    assert parse(pretty(ast)) == ast


def test_pretty_round_trip_constructed():
    # shapes the corpus cannot spell directly
    candidates = [
        Neg(BinOp("^", TimeVar(), Num(2.0))),
        BinOp("^", BinOp("^", TimeVar(), Num(2.0)), Num(3.0)),
        BinOp("^", Neg(TimeVar()), Num(2.0)),
        BinOp("-", Num(1.0), BinOp("-", Num(2.0), Num(3.0))),
        BinOp("/", Num(1.0), BinOp("/", TimeVar(), Num(3.0))),
        Neg(Neg(Const("pi"))),
    ]
    for ast in candidates:
        assert parse(pretty(ast)) == ast


_REFERENCES = {
    "sin(2*t)": lambda t: math.sin(2 * t),
    "t^2 + t": lambda t: t * t + t,
    "exp(-t/2)*cos(3*t)": lambda t: math.exp(-t / 2) * math.cos(3 * t),
    "1/(1+t^2)": lambda t: 1 / (1 + t * t),
    "sqrt(t^2+1)": lambda t: math.sqrt(t * t + 1),
    "atan(t)-pi/4": lambda t: math.atan(t) - math.pi / 4,
    "abs(sin(t))": lambda t: abs(math.sin(t)),
}


@pytest.mark.parametrize("src", list(_REFERENCES))
def test_three_eval_routes_agree(src):
    # the grid, the one-point adapter and a reference written with math
    ast = parse(src)
    compiled = compile_scalar(ast)
    ts = np.linspace(-2.0, 2.0, 41)
    vec = eval_array(ast, ts)
    for n, t in enumerate(ts.tolist()):
        assert compiled(t) == vec[n]
        assert vec[n] == pytest.approx(_REFERENCES[src](t), rel=1e-15,
                                       abs=1e-300)


@pytest.mark.parametrize("src, t, want", [
    ("1/(1+exp(t))", 1000.0, 0.0),
    ("atan(exp(t))", 1000.0, math.pi / 2),
    ("1/t^400", 10.0, 0.0),
])
def test_a_finite_value_through_an_infinite_one_is_kept(src, t, want):
    assert _at(src, t) == want


def test_eval_array_domain_checks():
    ts = np.linspace(-1.0, 1.0, 21)  # grid contains 0
    with pytest.raises(qo.DivisionByZeroError):
        eval_array(parse("1/t"), ts)
    with pytest.raises(qo.DomainError):
        eval_array(parse("ln(t)"), ts)
    with pytest.raises(qo.DomainError, match=(
            r"^fractional power of a negative base at t=-1\.0 in t\^0\.5$")):
        eval_array(parse("t^0.5"), ts)


def test_eval_array_constant_broadcast():
    out = eval_array(parse("pi"), np.zeros(5))
    assert out.shape == (5,)
    assert np.all(out == math.pi)


def test_eval_array_names_where_the_domain_is_left():
    # the grid first fails at t = 800; exp overflows from t = 709.78
    with pytest.raises(qo.DomainError,
                       match=r"at t=709\.78\d* in exp\(t\)$"):
        eval_array(parse("exp(t)"), np.linspace(0.0, 1000.0, 11))
    # sin(inf) is NaN: the point fails where its intermediate exp overflows
    with pytest.raises(qo.DomainError,
                       match=r"at t=709\.78\d* in sin\(exp\(t\)\)$"):
        eval_array(parse("sin(exp(t))"), np.linspace(0.0, 1000.0, 11))
    # 1/t overflows only at subnormal t; the bisection stops short of them
    with pytest.raises(qo.DivisionByZeroError, match=r"at t=0\.0 in"):
        eval_array(parse("1/t"), np.linspace(-1.0, 1.0, 21))
