"""Rows of doubles as CSV text, every cell byte-identical to ``'%.17g' % x``.

A finite nonzero x is scaled to 17 digits in ``longdouble``,
y = |x| 10^(16-E) in [1e16, 1e17), with a table of correctly rounded powers
of ten; its digits d = round(y) are kept when y lies farther from a rounding
tie than its own error (exact-table digit generation as in Ryu printf,
Adams 2019).  Each cell is then laid out by table lookup as a 32-byte image:
the sign and the "0.000" of fixed notation below 1 at bytes 0-5, the digits
and '.' at 6-23, the exponent at 24-28 and the separator at 29.  NUL bytes
are holes, dropped when the rows are joined.  Zeros, inf, NaN, uncertified
cells (about 1% of the values a solve writes) and every cell where
``longdouble`` is not the x87 format go through ``'%.17g'`` itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_CELL = 32
_WORD = np.dtype("<u8")  # bytes in memory order, first byte lowest
_LD = np.longdouble
# yh + r below splits y exactly only for a 64-bit significand (x87)
_CERTIFY = np.finfo(_LD).nmant == 63
_POW10_MIN = -360
# 10^k for k = -360..360, each correctly rounded (parsed by strtold)
_POW10 = np.array(
    [f"1e{k}" for k in range(_POW10_MIN, 1 - _POW10_MIN)]).astype(_LD)
# y carries a half-ulp from its table entry and another from the product
_TIE_MARGIN = 1.001 * float(np.finfo(_LD).eps)
# "0000" to "9999" as four ASCII bytes each, joined from "00" to "99"
_DIGITS4 = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
_DIGITS4 = np.stack(np.meshgrid(_DIGITS4, _DIGITS4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
_E_MIN, _E_MAX = -330, 320  # every decimal exponent of a double, with slack
_FIXED = range(-4, 17)  # the exponents '%.17g' prints in fixed notation
_FORMS = len(_FIXED) + 1  # plus the exponent form


def _layout_tables() -> tuple[np.ndarray, np.ndarray]:
    """The cell images of every layout, and the exponent field of every E.

    A layout is (form, s): ``form`` is E + 4 for fixed notation and
    ``len(_FIXED)`` for the exponent form, ``s`` the significant digits
    left once trailing zeros are stripped.  Its row holds three images:
    a mask of the digits before the '.', read where digit i sits at byte
    6 + i; a mask of the digits after it, read where digit i sits at byte
    7 + i; and the fixed characters but the sign.
    """
    rows = []
    for form in range(_FORMS):
        e = _FIXED[form] if form < len(_FIXED) else None
        for s in range(1, 18):
            if e is not None and e < 0:  # 0.000ddd
                before, after = s, 0
                prefix = b"0." + b"0" * (-e - 1)
            else:  # ddd.ddd, or d.ddd and the exponent
                before = 1 if e is None else e + 1
                after, prefix = max(s - before, 0), b""
            row = bytearray(3 * _CELL)
            row[6:6 + before] = b"\xff" * before
            at = _CELL + 7 + before
            row[at:at + after] = b"\xff" * after
            at = 2 * _CELL + 6
            row[at - len(prefix):at] = prefix
            if after:
                row[at + before] = ord(".")
            rows.append(row)
    table = np.frombuffer(b"".join(rows), _WORD).reshape(-1, 3, 4)
    exponent = np.frombuffer(b"".join(
        (b"" if e in _FIXED else b"e%+03d" % e).ljust(8, b"\0")
        for e in range(_E_MIN, _E_MAX)), _WORD)  # bytes 24-31
    return table, exponent


_LAYOUTS, _EXPONENT = _layout_tables()
_FORM = np.full(_E_MAX - _E_MIN, len(_FIXED))
_FORM[np.asarray(_FIXED) - _E_MIN] = np.arange(len(_FIXED))


def _certified_digits(
        x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, E, d): where ``ok``, the 17 significant digits of x are the
    integer d = round(|x| 10^(16-E)) in [1e16, 1e17)."""
    a = np.abs(x)
    ok = (a > 0) & (a < np.inf)
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.intp)
    a = a.astype(_LD)
    y = a * _POW10[16 - E - _POW10_MIN]
    # floor(log10) is one off next to a power of ten
    off = np.flatnonzero((y < 1e16) | (y >= 1e17))
    E[off] += np.where(y[off] < 1e16, -1, 1)
    y[off] = a[off] * _POW10[16 - E[off] - _POW10_MIN]
    yh = y.astype(np.float64)  # an integer: y >= 2^53
    r = (y - yh).astype(np.float64)
    whole = np.floor(r)
    frac = r - whole
    d = yh.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    ok &= np.abs(frac - 0.5) > _TIE_MARGIN * yh
    ok &= (d >= 10**16) & (d < 10**17)
    return ok, E, d


def _digit_cells(x: np.ndarray, E: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The cell images of x with exponent E and digits d, as (n, 4) words.

    The digits, their shifted copy and the layout masks, most of the
    memory a block takes, share one allocation: freed whole, it raises
    glibc's heap trim threshold above the block's other temporaries, so
    the next block reuses the memory instead of faulting it in again."""
    n = x.size
    work = np.empty(20 * n, _WORD)
    after, before = work[:4 * n], work[4 * n:8 * n]
    masks = work[8 * n:].reshape(n, 3, 4)
    # "000" and the 17 digits at bytes 4-23, so digit i at byte 7 + i; the
    # masks keep bytes 6-23 only
    after[:] = 0
    digits = after.view(np.uint32).reshape(n, _CELL // 4)
    first, rest = np.divmod(d, 10**16)
    digits[:, 1] = _DIGITS4[first]
    for at, group in zip((2, 4), np.divmod(rest, 10**8)):
        group = group.astype(np.uint32)
        high = group // 10**4
        digits[:, at] = _DIGITS4[high]
        digits[:, at + 1] = _DIGITS4[group - high * 10**4]
    s = 17 - np.argmax(digits.view(np.uint8)[:, 23:6:-1] != ord("0"), axis=1)
    e = E - _E_MIN
    np.take(_LAYOUTS, _FORM[e] * 17 + (s - 1), axis=0, out=masks, mode="clip")
    np.right_shift(after, np.uint64(8), out=before)  # digit i at byte 6 + i
    before[:-1] |= after[1:] << np.uint64(56)
    cells, after = before.reshape(n, 4), after.reshape(n, 4)
    cells &= masks[:, 0]
    after &= masks[:, 1]
    cells |= after
    cells |= masks[:, 2]
    cells[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    cells[:, 3] |= _EXPONENT[e]
    return cells


def format_rows(rows: np.ndarray, blank: np.ndarray) -> bytes:
    """The CSV lines of ``rows``, with the last cell empty where ``blank``."""
    x = rows.ravel()
    if _CERTIFY:
        ok, E, d = _certified_digits(x)
        cells = _digit_cells(x, E, d)
    else:
        ok = np.zeros(x.size, bool)
        cells = np.zeros((x.size, 4), _WORD)
    separators = np.full(rows.shape[1], ord(",") << 40, _WORD)  # byte 29
    separators[-1] = ord("\n") << 40
    cells.reshape(*rows.shape, 4)[..., 3] |= separators
    chars = cells.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        chars[slow, :29] = np.array(text, "S29").view(np.uint8).reshape(-1, 29)
    chars.reshape(*rows.shape, _CELL)[blank, -1, :29] = 0
    return chars.tobytes().translate(None, b"\0")
