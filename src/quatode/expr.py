"""Parse and evaluate scalar coefficient expressions in the time variable t.

Grammar (whitespace insensitive)::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := unary ("^" factor)?          # power is right-associative
    unary   := "-" unary | primary
    primary := number | "t" | "pi" | "e" | ident "(" expr ")" | "(" expr ")"

Numbers may carry a decimal point and scientific exponent (``2.5e-3``); the
bare identifier ``e`` is Euler's constant.  The unary functions are ``sin``,
``cos``, ``tan``, ``atan``, ``exp``, ``ln``, ``sqrt`` and ``abs``.  An
expression may nest at most ``_MAX_DEPTH`` levels, in its tree and in its
parentheses, calls, unary minus and powers, so parsing and every recursive
walk of the tree stay inside Python's default recursion limit.

Evaluation, by :func:`eval_array` on a whole time grid at once, is strict
about the real domain.  A point fails on an exact zero denominator (``1/t``
or ``t^-1`` at 0), ``ln`` of a value <= 0, ``sqrt`` of a negative value or a
fractional power of a negative base.  It also fails when its final value is
not finite.  An intermediate non-finite value whose final value is finite is
kept: ``1/(1+exp(t))`` is 0.0 at t = 1000.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DivisionByZeroError, DomainError, ParseError, UnknownFunctionError

__all__ = [
    "Expr",
    "Num",
    "TimeVar",
    "Const",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "compile_scalar",
    "eval_array",
    "pretty",
    "FUNCTIONS",
    "CONSTANTS",
]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, TimeVar, Const, Neg, BinOp, Call]

CONSTANTS = {"pi": math.pi, "e": math.e}

FUNCTIONS = ("sin", "cos", "tan", "atan", "exp", "ln", "sqrt", "abs")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# The parse takes up to 6 frames a level, evaluation and ``pretty`` about 2.
_MAX_DEPTH = 100

_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "ident", "op", "lparen", "rparen", "end"
    text: str
    pos: int
    value: float = 0.0


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(src, i)
        if m:
            tokens.append(_Token("num", m.group(), i, float(m.group())))
            i = m.end()
            continue
        m = _IDENT.match(src, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.open = 0  # nested() calls in progress
        self.depths: dict[int, int] = {}  # id of each node built: its depth

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def limit(self, depth: int, pos: int) -> None:
        if depth > _MAX_DEPTH:
            raise ParseError(
                f"expression nests deeper than {_MAX_DEPTH} levels", pos)

    def nested(self, parse: Callable[[], Expr]) -> Expr:
        """``parse()`` one level deeper in the parse."""
        self.open += 1
        self.limit(self.open, self.cur.pos)
        node = parse()
        self.open -= 1
        return node

    def built(self, node: Expr, pos: int) -> Expr:
        """``node``, whose operator is at ``pos``, once its depth is
        checked; leaves are 1 deep."""
        kids = (node.lhs, node.rhs) if isinstance(node, BinOp) else (node.arg,)
        depth = 1 + max(self.depths.get(id(kid), 1) for kid in kids)
        self.limit(depth, pos)
        self.depths[id(node)] = depth
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance()
            node = self.built(BinOp(op.text, node, self.term()), op.pos)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance()
            node = self.built(BinOp(op.text, node, self.factor()), op.pos)
        return node

    def factor(self) -> Expr:
        base = self.unary()
        if self.cur.kind == "op" and self.cur.text == "^":
            pos = self.advance().pos
            exponent = self.nested(self.factor)  # right-associative
            return self.built(BinOp("^", base, exponent), pos)
        return base

    def unary(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            pos = self.advance().pos
            return self.built(Neg(self.nested(self.unary)), pos)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(tok.value)
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(self.expr)
            if self.cur.kind != "rparen":
                raise ParseError("expected ')'", self.cur.pos)
            self.advance()
            return node
        if tok.kind == "ident":
            self.advance()
            if self.cur.kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.nested(self.expr)
                if self.cur.kind != "rparen":
                    raise ParseError(
                        "expected ')' closing the function argument",
                        self.cur.pos)
                self.advance()
                return self.built(Call(tok.text, arg), tok.pos)
            if tok.text == "t":
                return TimeVar()
            if tok.text in CONSTANTS:
                return Const(tok.text)
            if tok.text in FUNCTIONS:
                raise ParseError(
                    f"function {tok.text!r} needs a parenthesized argument",
                    tok.pos)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        raise ParseError(
            f"expected a number, 't', constant, function or '('", tok.pos)


def parse(src: str) -> Expr:
    """Parse expression text into an AST.

    Raises :class:`ParseError` (with byte offset) on malformed input or
    input nested deeper than ``_MAX_DEPTH`` levels, and
    :class:`UnknownFunctionError` for calls to names we do not know.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(src))
    node = parser.expr()
    if parser.cur.kind != "end":
        raise ParseError(f"unexpected trailing input {parser.cur.text!r}",
                         parser.cur.pos)
    return node


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------

class _Undefined(Exception):
    """The error, message and mask of undefined points met in the walk."""

    def __init__(self, error: type, message: str, bad):
        self.error, self.message, self.bad = error, message, bad


def eval_array(e: Expr, ts: np.ndarray) -> np.ndarray:
    """Evaluate ``e`` on a whole time grid at once.

    If any point fails, by the rule in the module docstring, the whole
    call raises, with a message that names ``e`` as :func:`pretty` renders
    it and the smallest failing time, bisected toward the largest passing
    time below it to 1e-15 of the larger of 1 and |t|, so a coarse grid
    still names where the domain is left.
    """
    ts = np.asarray(ts, dtype=float)
    try:
        return _checked(e, ts)
    except _Undefined as exc:
        where = ts[np.broadcast_to(exc.bad, ts.shape)]
        if not where.size:
            raise exc.error(f"{exc.message} in {pretty(e)}") from None
        hi = float(where.min())
        below = ts[ts < hi]
        lo = (float(below.max()) if below.size
              and _fails(e, float(below.max())) is None else hi)
        width = 1e-15 * max(abs(lo), abs(hi), 1.0)
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            failure = _fails(e, mid)
            if failure is None:
                lo = mid
            else:
                hi, exc = mid, failure
        raise exc.error(f"{exc.message} at t={hi!r} in {pretty(e)}") from None


# Kept only because the benchmark's tracer (solvebench/spans.py) patches it
# by name; ROADMAP item 5 deletes it together with that patch.
def compile_scalar(e: Expr) -> Callable[[float], float]:
    """``e`` as a scalar callable of t: :func:`eval_array` at one point."""
    return lambda t: float(eval_array(e, np.array([t]))[0])


def _checked(e: Expr, ts: np.ndarray) -> np.ndarray:
    """``e`` on ``ts``, raising :class:`_Undefined` where it is not
    defined or not finite."""
    with np.errstate(all="ignore"):
        r = _eval_array(e, ts)
    r = np.broadcast_to(np.asarray(r, dtype=float), ts.shape).copy()
    if not np.isfinite(r).all():
        raise _Undefined(DomainError, "evaluation produced a non-finite "
                         "value", ~np.isfinite(r))
    return r


def _fails(e: Expr, t: float):
    """The :class:`_Undefined` that ``e`` raises at ``t``, or None."""
    try:
        _checked(e, np.array([t]))
    except _Undefined as exc:
        return exc
    return None


def _eval_array(e: Expr, ts: np.ndarray):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, TimeVar):
        return ts
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -_eval_array(e.arg, ts)
    if isinstance(e, BinOp):
        a = _eval_array(e.lhs, ts)
        b = _eval_array(e.rhs, ts)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            bad = np.asarray(b) == 0.0
            if bad.any():
                raise _Undefined(DivisionByZeroError, "division by zero", bad)
            return a / b
        return _power_array(a, b)
    x = _eval_array(e.arg, ts)
    fn = e.fn
    if fn == "ln":
        bad = np.asarray(x) <= 0.0
        if bad.any():
            raise _Undefined(DomainError, "ln of nonpositive value", bad)
        return np.log(x)
    if fn == "sqrt":
        bad = np.asarray(x) < 0.0
        if bad.any():
            raise _Undefined(DomainError, "sqrt of negative value", bad)
        return np.sqrt(x)
    ufunc = {"sin": np.sin, "cos": np.cos, "tan": np.tan,
             "atan": np.arctan, "exp": np.exp, "abs": np.abs}[fn]
    return ufunc(x)


def _power_array(base, exponent):
    b = np.asarray(base, dtype=float)
    p = np.asarray(exponent, dtype=float)
    bad = (b < 0.0) & (p != np.floor(p))
    if bad.any():
        raise _Undefined(DomainError, "fractional power of a negative base",
                         bad)
    bad = (b == 0.0) & (p < 0.0)
    if bad.any():
        raise _Undefined(DivisionByZeroError,
                         "zero base with negative exponent", bad)
    return np.power(b, p)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def pretty(e: Expr) -> str:
    """Render ``e`` as text that reparses to a structurally identical AST."""
    return _pretty(e, _ADD)


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}[e.op]
    if isinstance(e, Neg):
        return _UNARY
    return _ATOM


def _pretty(e: Expr, minimum: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_pretty(e.arg, _ADD)})"
    if isinstance(e, Neg):
        s = "-" + _unary_slot(e.arg)
        return s if _UNARY >= minimum else f"({s})"
    assert isinstance(e, BinOp)
    mine = _prec(e)
    if e.op == "^":
        # per the grammar the base is a unary, the exponent another factor
        s = _unary_slot(e.lhs) + "^" + _pretty(e.rhs, _UNARY)
    else:
        s = _pretty(e.lhs, mine) + e.op + _pretty(e.rhs, mine + 1)
    return s if mine >= minimum else f"({s})"


def _unary_slot(e: Expr) -> str:
    # grammar slots that accept only a unary: powers (prec 4) do not fit and
    # need parentheses even though they bind tighter than unary minus
    if _prec(e) in (_UNARY, _ATOM):
        return _pretty(e, _UNARY)
    return f"({_pretty(e, _ADD)})"
