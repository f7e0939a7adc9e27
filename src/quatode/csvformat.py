"""Rows of doubles as CSV text, every cell byte-identical to ``'%.17g' % x``.

A finite x with 1e-280 < |x| < 1e280 is scaled to 17 digits in float64
alone: y = |x| 10^k, k = 16 - E, lies in [1e16, 1e17) and is carried as
p + r.  (p, e) is the exact product of |x| and P_hi by Dekker's split
(Dekker 1971), which needs no fused multiply-add; each step is one numpy
ufunc, so no compiler can contract it.  r = e + |x| P_lo, where P_hi is
10^k and P_lo is 10^k - P_hi, each correctly rounded from exact integers.
p + r is within 4e-15 of y: 1.2e-15 from the table's 2^-106 relative
error, 0.9e-15 from rounding |x| P_lo and 1.8e-15 from the sum.  The range
keeps every product of the split finite and normal.  The digits
d = round(y) are kept when y lies farther than ``_TIE_MARGIN`` = 1e-12,
250 times that error, from a rounding tie (exact-table digit
generation as in Ryu printf, Adams 2019).

Each cell is then laid out by table lookup as a 32-byte image: the sign
and the "0.000" of fixed notation below 1 at bytes 0-5, the digits and '.'
at 6-23 (digit i at byte 6 + i before the '.', at 7 + i after it), the
exponent at 24-28 and the separator at 29.  NUL bytes are holes, dropped
when the rows are joined.  A block takes few passes over its images: one
8-byte word per cell, "0000000d", holds the first digit, one gather of
the four 4-digit groups and one 16-byte copy place the other sixteen
after it, a one-byte shift gives the digits before the '.', and two
table images per layout, ``_HEAD`` and ``_TAIL``, select the digits.
``_HEAD`` also holds the layout's fixed characters, merged by a bytewise
minimum: '-', '.' and '0' sort at or below the ASCII digit under them.
One table word per cell gives the exponent with the separator: a ',',
or a '\\n' from the second half of ``_EXPONENT`` for a row's last cell.
Zeros, inf, NaN, |x| outside that range and the near-ties (3 of 210k
cells of a ``picard_long`` solve) go through ``'%.17g'`` itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["format_rows"]

_CELL = 32
_WORD = np.dtype("<u8")  # bytes in memory order, first byte lowest
_X_MIN, _X_MAX = 1e-280, 1e280
_SPLIT = 2.0**27 + 1  # Veltkamp's constant: halves of 26 bits
_K_MIN, _K_MAX = -265, 298  # 16 - E over that range, one off either way
_TIE_MARGIN = 1e-12


def _power_pairs() -> np.ndarray:
    """Rows P_hi, P_hi's split halves and P_lo, columns k = _K_MIN.._K_MAX."""
    table = np.empty((4, _K_MAX + 1 - _K_MIN))
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        n, m = hi.as_integer_ratio()
        c = hi * _SPLIT
        high = c - (c - hi)
        table[:, i] = hi, high, hi - high, (num * m - n * den) / (den * m)
    return table


_POW10 = _power_pairs()
# "0000" to "9999" as four ASCII bytes each, joined from "00" to "99"
_DIGITS4 = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16)
_DIGITS4 = np.stack(np.meshgrid(_DIGITS4, _DIGITS4, indexing="ij"),
                    axis=-1).view(np.uint32).ravel()
# "0000000d" for a first digit d
_DIGITS8 = np.frombuffer(b"".join(b"%08d" % k for k in range(10)), _WORD)
# the trailing '0's of each, from those of "00" to "99"
_ZEROS2 = bytes([2] + [k % 10 == 0 for k in range(1, 100)])
_ZEROS4 = np.frombuffer(bytes(_ZEROS2[low] if low else 2 + _ZEROS2[high]
                              for high in range(100) for low in range(100)),
                        np.uint8)
_E_MIN, _E_MAX = -330, 320  # every decimal exponent of a double, with slack
_FIXED = range(-4, 17)  # the exponents '%.17g' prints in fixed notation
_LAYOUTS = (len(_FIXED) + 1) * 17  # (form, s) of one sign


def _layout_tables() -> tuple[np.ndarray, np.ndarray]:
    """``_HEAD`` and ``_TAIL``, one 32-byte image each per layout.

    A layout is (sign, form, s): ``form`` is E + 4 for fixed notation and
    ``len(_FIXED)`` for the exponent form, ``s`` the significant digits
    left once trailing zeros are stripped; the negative layouts follow the
    positive ones, which alone have tail images.  The head image masks the
    digits before the '.' (read where digit i sits at byte 6 + i) with
    0xff and holds the sign, the "0.000" and the '.'; the tail image masks
    the digits after the '.' (read where digit i sits at byte 7 + i).
    """
    heads, tails = [], []
    for form in range(len(_FIXED) + 1):
        e = _FIXED[form] if form < len(_FIXED) else None
        for s in range(1, 18):
            if e is not None and e < 0:  # 0.000ddd
                before, after = s, 0
                prefix = b"0." + b"0" * (-e - 1)
            else:  # ddd.ddd, or d.ddd and the exponent
                before = 1 if e is None else e + 1
                after, prefix = max(s - before, 0), b""
            head, tail = bytearray(_CELL), bytearray(_CELL)
            head[6 - len(prefix):6] = prefix
            head[6:6 + before] = b"\xff" * before
            if after:
                head[6 + before] = ord(".")
            tail[7 + before:7 + before + after] = b"\xff" * after
            heads.append(head)
            tails.append(tail)
    heads = bytearray(2 * b"".join(heads))
    heads[_LAYOUTS * _CELL::_CELL] = b"-" * _LAYOUTS
    return (np.frombuffer(heads, _WORD).reshape(-1, 4),
            np.frombuffer(b"".join(tails), _WORD).reshape(-1, 4))


_HEAD, _TAIL = _layout_tables()
# bytes 24-31 for each E: the exponent field and a ',' at byte 29, then the
# same with a '\n' for the last cell of a row
_EXPONENT = bytearray(2 * b"".join(
    (b"" if e in _FIXED else b"e%+03d" % e).ljust(5, b"\0") + b",\0\0"
    for e in range(_E_MIN, _E_MAX)))
_EXPONENT[len(_EXPONENT) // 2 + 5::8] = b"\n" * (_E_MAX - _E_MIN)
_EXPONENT = np.frombuffer(_EXPONENT, _WORD)
# the layout of 17 significant digits at each E, less one per trailing zero
_LAYOUT_BASE = np.full(_E_MAX - _E_MIN, len(_FIXED) * 17 + 16)
_LAYOUT_BASE[np.asarray(_FIXED) - _E_MIN] = np.arange(len(_FIXED)) * 17 + 16


def _scaled(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-E) as p + r: (p, e) the exact product of a and P_hi by
    Dekker's split, r = e + a P_lo."""
    hi, high, low, lo = np.take(_POW10, 16 - _K_MIN - E, axis=1, mode="clip")
    a_high = a * _SPLIT
    a_low = a_high - a
    a_high -= a_low
    np.subtract(a, a_high, out=a_low)
    p = a * hi
    r = a_high * high
    r -= p
    term = a_high * low
    r += term
    r += np.multiply(a_low, high, out=term)
    r += np.multiply(a_low, low, out=term)  # r is now e
    r += np.multiply(a, lo, out=term)
    return p, r


def _certified_digits(
        x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, E, d): where ``ok``, the 17 significant digits of x are the
    integer d = round(|x| 10^(16-E)) in [1e16, 1e17)."""
    a = np.abs(x)
    ok = (a > _X_MIN) & (a < _X_MAX)
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.intp)  # one off near 10^E
    p, r = _scaled(a, E)
    # |r| < 20, so d lies in [1e16, 1e17) unless p is this close to either
    # end.  There p + r decides E: p - 1e17 and p - 1e16 are exact wherever
    # r can change their sign, and a sum has the sign of its exact value
    off = np.flatnonzero((p <= 1e16 + 64) | (p >= 1e17 - 64))
    if off.size:
        po, ro = p[off], r[off]
        step = ((po - 1e17) + ro >= 0).astype(np.intp)
        step -= (po - 1e16) + ro < 0
        moved = off[step != 0]
        if moved.size:
            E[moved] += step[step != 0]
            p[moved], r[moved] = _scaled(a[moved], E[moved])
    whole = np.rint(r)  # a tie either way is refused below
    r -= whole  # in [-0.5, 0.5]: y - round(y), a tie at either end
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    ok &= np.abs(r) < 0.5 - _TIE_MARGIN
    if off.size:
        d_off = d[off]
        ok[off] &= (d_off >= 10**16) & (d_off < 10**17)
    return ok, E, d


def _digit_cells(x: np.ndarray, E: np.ndarray, d: np.ndarray,
                 columns: int) -> np.ndarray:
    """The cell images of x with exponent E and digits d, as (n, 4) words,
    for rows of ``columns`` cells.

    The digits, their shifted copy and the layout masks (and the digit
    groups before them), most of the memory a block takes, share one
    allocation: freed whole, it raises glibc's heap trim threshold above
    the block's other temporaries, so the next block reuses the memory
    instead of faulting it in again."""
    n = x.size
    after, before, mask = np.empty((3, n, 4), _WORD)
    # the 8-digit halves and then the ASCII of the 4-digit groups sit in
    # before, the groups in mask: one row per cell, and each division on
    # contiguous memory, where numpy's is fast
    halves = before.view(np.intp).reshape(2, n, 2)[0]
    digits = before.view(np.uint32).reshape(2, n, 4)[1]
    groups = mask.view(np.intp)
    high = d // 10**8
    first = high // 10**8
    np.subtract(high, first * 10**8, out=halves[:, 0])
    np.subtract(d, high * 10**8, out=halves[:, 1])
    quotient = halves // 10**4
    groups[:, ::2] = quotient
    np.subtract(halves, quotient * 10**4, out=groups[:, 1::2])
    # "0000000" and the 17 digits fill bytes 0-23, digit i at byte 7 + i:
    # the masks keep bytes 6-23 only, and the fixed characters need an
    # ASCII digit under them.  first is 10 where d rounded to 1e17.
    after[:, 0] = np.take(_DIGITS8, first, mode="wrap")
    del high, first, quotient
    np.take(_DIGITS4, groups, out=digits, mode="wrap")
    after.view(np.uint8)[:, 8:24].view("V16")[:, 0] = digits.view("V16")[:, 0]
    # trailing zeros past the last group only where it is "0000"
    zeros = _ZEROS4[groups[:, 3]]
    more = np.flatnonzero(zeros == 4)
    if more.size:
        counts = _ZEROS4[groups[more]].T  # the first digit is never 0
        for i in (1, 2, 3):
            counts[i] += (counts[i] == 4) * counts[i - 1]
        zeros[more] = counts[3]
    e = E - _E_MIN
    layout = _LAYOUT_BASE[e] - zeros
    layout += np.signbit(x) * _LAYOUTS
    shifted = before.view(np.uint8)  # digit i at byte 6 + i
    shifted.reshape(-1)[:-1] = after.view(np.uint8).reshape(-1)[1:]
    np.take(_HEAD, layout, axis=0, out=mask, mode="clip")
    np.minimum(shifted, mask.view(np.uint8), out=shifted)
    np.take(_TAIL, layout, axis=0, out=mask, mode="wrap")  # either sign
    after &= mask
    cells = before
    cells |= after
    e.reshape(-1, columns)[:, -1] += _E_MAX - _E_MIN
    cells[:, 3] = _EXPONENT[e]
    return cells


def format_rows(rows: np.ndarray, blank: np.ndarray) -> bytes:
    """The CSV lines of ``rows``, with the last cell empty where ``blank``."""
    x = rows.ravel()
    ok, E, d = _certified_digits(x)
    chars = _digit_cells(x, E, d, rows.shape[1]).view(np.uint8)
    if np.count_nonzero(ok) < ok.size:
        slow = np.flatnonzero(~ok)
        text = ["%.17g" % v for v in x[slow].tolist()]
        chars[slow, :29] = np.array(text, "S29").view(np.uint8).reshape(-1, 29)
    if np.count_nonzero(blank):
        chars.reshape(*rows.shape, _CELL)[blank, -1, :29] = 0
    images = chars.tobytes()
    del chars  # free the block's work before the text is compacted
    return images.translate(None, b"\0")
