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
generation as in Ryu printf, Adams 2019).  Each cell is then laid out by
table lookup as a 32-byte image: the sign and the "0.000" of fixed
notation below 1 at bytes 0-5, the digits and '.' at 6-23, the exponent at
24-28 and the separator at 29.  NUL bytes are holes, dropped when the rows
are joined.  Zeros, inf, NaN, |x| outside that range and the near-ties
(3 of 210k cells of a ``picard_long`` solve) go through ``'%.17g'`` itself.
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
# the trailing '0's of each, from those of "00" to "99"
_ZEROS2 = bytes([2] + [k % 10 == 0 for k in range(1, 100)])
_ZEROS4 = np.frombuffer(bytes(_ZEROS2[low] if low else 2 + _ZEROS2[high]
                              for high in range(100) for low in range(100)),
                        np.uint8)
_E_MIN, _E_MAX = -330, 320  # every decimal exponent of a double, with slack
_FIXED = range(-4, 17)  # the exponents '%.17g' prints in fixed notation
_FORMS = len(_FIXED) + 1  # plus the exponent form


def _layout_tables() -> tuple[np.ndarray, np.ndarray]:
    """The cell images of every layout, and the exponent field of every E.

    A layout is (form, s): ``form`` is E + 4 for fixed notation and
    ``len(_FIXED)`` for the exponent form, ``s`` the significant digits
    left once trailing zeros are stripped.  It has three images, one per
    table: a mask of the digits before the '.', read where digit i sits at
    byte 6 + i; a mask of the digits after it, read where digit i sits at
    byte 7 + i; and the fixed characters but the sign.
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
    return table.transpose(1, 0, 2).copy(), exponent


_LAYOUTS, _EXPONENT = _layout_tables()
# the layout of 17 significant digits at each E, less one per trailing zero
_LAYOUT_BASE = np.full(_E_MAX - _E_MIN, len(_FIXED) * 17 + 16)
_LAYOUT_BASE[np.asarray(_FIXED) - _E_MIN] = np.arange(len(_FIXED)) * 17 + 16


def _scaled(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-E) as p + r: (p, e) the exact product of a and P_hi by
    Dekker's split, r = e + a P_lo."""
    hi, high, low, lo = np.take(_POW10, 16 - _K_MIN - E, axis=1, mode="clip")
    c = a * _SPLIT
    a_high = c - (c - a)
    a_low = a - a_high
    p = a * hi
    r = a_high * high - p
    r += a_high * low
    r += a_low * high
    r += a_low * low  # r is now e
    r += a * lo
    return p, r


def _certified_digits(
        x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, E, d): where ``ok``, the 17 significant digits of x are the
    integer d = round(|x| 10^(16-E)) in [1e16, 1e17)."""
    a = np.abs(x)
    ok = (a > _X_MIN) & (a < _X_MAX)
    a = np.where(ok, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.intp)
    p, r = _scaled(a, E)
    # floor(log10) is one off next to a power of ten; p + r is exact enough
    # to decide, but p alone is not: p = 1e16 with r < 0 is below 1e16
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if off.size:
        po, ro = p[off], r[off]
        E[off] += ((po > 1e17) | ((po == 1e17) & (ro >= 0))).astype(np.intp)
        E[off] -= (po < 1e16) | ((po == 1e16) & (ro < 0))
        p[off], r[off] = _scaled(a[off], E[off])
    whole = np.floor(r + 0.5)
    r -= whole  # in [-0.5, 0.5]: y - round(y), a tie at either end
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    ok &= np.abs(r) < 0.5 - _TIE_MARGIN
    ok &= (d >= 10**16) & (d < 10**17)
    return ok, E, d


def _digit_cells(x: np.ndarray, E: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The cell images of x with exponent E and digits d, as (n, 4) words.

    The digits, their shifted copy and the layout masks (and the digit
    groups before them), most of the memory a block takes, share one
    allocation: freed whole, it raises glibc's heap trim threshold above
    the block's other temporaries, so the next block reuses the memory
    instead of faulting it in again."""
    n = x.size
    work = np.empty((5, n, 4), _WORD)
    after, before, masks = work[0], work[1], work[2:]
    # "000" and the 17 digits at bytes 4-23, so digit i at byte 7 + i; the
    # masks keep bytes 6-23 only
    after[:] = 0
    high = d // 10**8
    first = high // 10**8
    # the 4-digit groups after it, in the last mask's place until it is read
    groups = masks[2].view(np.intp).reshape(4, n)
    groups[1] = high - first * 10**8
    groups[3] = d - high * 10**8
    groups[::2] = groups[1::2] // 10**4
    groups[1::2] -= groups[::2] * 10**4
    digits = after.view(np.uint32)
    digits[:, 1] = _DIGITS4[first]
    del high, first  # the block peaks below, when the masks are gathered
    for i, group in enumerate(groups, 2):
        digits[:, i] = _DIGITS4[group]
    zeros = _ZEROS4[groups]  # the first digit is never 0
    for i in (1, 2, 3):
        zeros[i] += (zeros[i] == 4) * zeros[i - 1]
    e = E - _E_MIN
    layout = _LAYOUT_BASE[e] - zeros[3]
    for mask, table in zip(masks, _LAYOUTS):
        np.take(table, layout, axis=0, out=mask, mode="clip")
    shifted = before.view(np.uint8).reshape(-1)  # digit i at byte 6 + i
    shifted[:-1] = after.view(np.uint8).reshape(-1)[1:]
    shifted[-1] = 0
    cells = before
    cells &= masks[0]
    after &= masks[1]
    cells |= after
    cells |= masks[2]
    cells[:, 0] |= np.signbit(x) * np.uint64(ord("-"))
    cells[:, 3] |= _EXPONENT[e]
    return cells


def format_rows(rows: np.ndarray, blank: np.ndarray) -> bytes:
    """The CSV lines of ``rows``, with the last cell empty where ``blank``."""
    x = rows.ravel()
    ok, E, d = _certified_digits(x)
    cells = _digit_cells(x, E, d)
    separators = np.full(rows.shape[1], ord(",") << 40, _WORD)  # byte 29
    separators[-1] = ord("\n") << 40
    cells.reshape(*rows.shape, 4)[..., 3] |= separators
    chars = cells.view(np.uint8)
    slow = np.flatnonzero(~ok)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        chars[slow, :29] = np.array(text, "S29").view(np.uint8).reshape(-1, 29)
    chars.reshape(*rows.shape, _CELL)[blank, -1, :29] = 0
    images = chars.tobytes()
    del cells, chars  # free the block's work before the text is compacted
    return images.translate(None, b"\0")
