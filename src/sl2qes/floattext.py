"""Float64 arrays as ``repr`` text, many values per numpy call.

``format_floats(values, seps)`` returns ``"".join(repr(v) + sep)`` over
the values, byte for byte.  Normal finite values take the digits of the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in the rounding interval, the nearest of
those, ties to even, which are the digits of Python's ``repr``.  It needs
only 64-bit integer arithmetic, so numpy runs it on CHUNK values per
call.  Zero, subnormals (where Schubfach's digits can differ from
``repr``'s), inf and nan take ``repr`` itself.

The layout is ``repr``'s: with n significant digits and the decimal
point p places from their start, exponent form ``d.ddde-XX`` when
p <= -4 or p > 16, else fixed form (``0.00ddd``, ``dd.ddd`` or
``ddd00.0``).  Each value gets a row of 32 bytes (its 18 right-aligned
digits, 4 exponent digits, its separator, the 5 constant characters
``-0.e+`` and NULs), and one gather through a table keyed by sign, digit
count and layout class puts the bytes in order, NUL-padded to a fixed
width; deleting the NULs leaves the text.  The tables are built on first
use, not at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["CHUNK", "format_floats", "tables"]

CHUNK = 4096    # values per numpy pass; larger temporaries ran slower

_K_MIN, _K_MAX = -324, 292      # decimal exponents of the normal doubles
_WIDTH = 25     # the longest text: "-d." 16 digits "e-308", and a sep
_CLASSES = 24   # point positions -3..16, then exponent sign x digit count
# byte places in a value's row: digits 0..19, exponent 20..23, then these;
# a text shorter than _WIDTH is padded with the row's NUL bytes
_SEP, _MINUS, _ZERO, _POINT, _E, _PLUS, _NUL = 24, 25, 26, 27, 28, 29, 30
_ROW = 32
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_POW10 = np.array([10**i for i in range(17)], np.uint64)


class _Tables(NamedTuple):
    g1: np.ndarray      # high and low 63 bits of g per decimal exponent
    g0: np.ndarray
    quads: np.ndarray   # "0000".."9999" as little-endian uint32
    constants: np.ndarray   # "-0.e+" and NULs after the separator
    layout: np.ndarray  # (2 * 17 * _CLASSES, _WIDTH) byte places per key


def _flog2pow10(e: int) -> int:
    return (e * 913124641741) >> 38


def _layout(negative: bool, n: int, cls: int) -> list[int]:
    """The byte places of one value's text: sign, n digits (right-aligned
    in 20), point and exponent in layout class cls, then the separator."""
    digits = list(range(20 - n, 20))
    out = [_MINUS] if negative else []
    if cls < 20:
        p = cls - 3
        if p <= 0:
            out += [_ZERO, _POINT] + [_ZERO] * -p + digits
        elif p < n:
            out += digits[:p] + [_POINT] + digits[p:]
        else:
            out += digits + [_ZERO] * (p - n) + [_POINT, _ZERO]
    else:
        positive, three = divmod(cls - 20, 2)
        out += digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
        out += [_E, _PLUS if positive else _MINUS]
        out += [21, 22, 23] if three else [22, 23]
    return out + [_SEP]


@functools.cache
def tables() -> _Tables:
    """Schubfach's g = floor(10^-k / 2^r) + 1, with r = flog2pow10(-k) -
    125 so that 2^125 <= g < 2^126, per k; and the text tables.  Built on
    first use; a process that forks a formatting child builds them
    first."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // 10**k + 1)
        else:
            g.append((10**-k >> r if r >= 0 else 10**-k << -r) + 1)
    rows = [_layout(negative, n, cls) for negative in (False, True)
            for n in range(1, 18) for cls in range(_CLASSES)]
    layout = np.full((len(rows), _WIDTH), _NUL, np.intp)
    for i, row in enumerate(rows):
        layout[i, :len(row)] = row
    return _Tables(
        g1=np.array([v >> 63 for v in g], np.uint64),
        g0=np.array([v & (2**63 - 1) for v in g], np.uint64),
        quads=np.frombuffer(b"".join(b"%04d" % v for v in range(10_000)),
                            "<u4"),
        constants=np.frombuffer(b"-0.e+".ljust(_ROW - _MINUS, b"\0"),
                                np.uint8),
        layout=layout)


def _hi64(a1, a0, b1, b0):
    """The high 64 bits of the 128-bit products of a and b, given as their
    32-bit halves, from four partial products."""
    low, mid1, mid2 = a0 * b0, a1 * b0, a0 * b1
    carry = (low >> 32) + (mid1 & _M32) + (mid2 & _M32)
    return a1 * b1 + (mid1 >> 32) + (mid2 >> 32) + (carry >> 32)


def _rop(g1, g0, cp):
    """Schubfach's rop: g cp / 2^127 rounded to odd, g = g1 2^63 + g0."""
    cp1, cp0 = cp >> 32, cp & _M32
    x1 = _hi64(g0 >> 32, g0 & _M32, cp1, cp0)
    y0 = g1 * cp
    y1 = _hi64(g1 >> 32, g1 & _M32, cp1, cp0)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits):
    """(digits, exponent) with digits 10^exponent the shortest decimal
    that rounds to each normal double (bits), as in Schubfach."""
    tb = tables()
    bq = (bits >> 52) & 0x7FF
    t = bits & np.uint64(2**52 - 1)
    c = t | np.uint64(1 << 52)
    q = bq.astype(np.int64) - 1075
    # an integer below 2^53: its digits are its value
    mq = -q
    small = (mq > 0) & (mq < 53)
    shift = np.where(small, mq, 0).astype(np.uint64)
    f = c >> shift
    integer = small & ((f << shift) == c)
    # the rounding interval is narrower below a power of two, except at
    # the lowest normal exponent
    regular = (t != 0) | (bq == 1)
    k = np.where(regular, q * 661971961083,
                 q * 661971961083 - 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g1, g0 = tb.g1[k - _K_MIN], tb.g0[k - _K_MIN]
    cb = c << np.uint64(2)
    cp = np.stack([cb, cb - np.where(regular, np.uint64(2), np.uint64(1)),
                   cb + np.uint64(2)]) << h
    vb, vbl, vbr = _rop(g1, g0, cp)
    out = c & np.uint64(1)
    s = vb >> np.uint64(2)
    # one digit shorter, when exactly one of its neighbours is inside
    sp = s // np.uint64(10) * np.uint64(10)
    tp = sp + np.uint64(10)
    upin = vbl + out <= sp << np.uint64(2)
    wpin = (tp << np.uint64(2)) + out <= vbr
    shorter = (s >= 100) & (upin != wpin)
    # else s or s + 1: the one inside, or the nearer, ties to even
    s1 = s + np.uint64(1)
    uin = vbl + out <= s << np.uint64(2)
    win = (s1 << np.uint64(2)) + out <= vbr
    mid = (s + s1) << np.uint64(1)
    low = np.where(uin != win, uin,
                   (vb < mid) | ((vb == mid) & ((s & np.uint64(1)) == 0)))
    digits = np.where(integer, f, np.where(
        shorter, np.where(upin, sp, tp), np.where(low, s, s1)))
    return digits, np.where(integer, 0, k)


def _chunk(values: np.ndarray, seps: np.ndarray) -> bytes:
    """The text of at most CHUNK values, as bytes."""
    tb = tables()
    bits = values.view(np.uint64)
    exponent = (bits >> 52) & 0x7FF
    normal = (exponent != 0) & (exponent != 0x7FF)
    one = np.float64(1.0).view(np.uint64)
    digits, e10 = _shortest(np.where(normal, bits, one))
    # trailing zeros off in five steps (at most 16 of them), on the values
    # that have one
    some = np.flatnonzero(digits % np.uint64(10) == 0)
    cut, up = digits[some], e10[some]
    for places in (16, 8, 4, 2, 1):
        rest = cut // _POW10[places]
        zeros = rest * _POW10[places] == cut
        cut = np.where(zeros, rest, cut)
        up += zeros * places
    digits[some], e10[some] = cut, up
    n = np.searchsorted(_POW10[1:], digits, side="right") + 1
    point = n + e10
    exp10 = point - 1
    size = abs(exp10)
    fixed = (point > -4) & (point <= 16)
    cls = np.where(fixed, point + 3,
                   20 + 2 * (exp10 > 0) + (size >= 100))
    key = ((bits >> 63).astype(np.intp) * 17 + n - 1) * _CLASSES + cls
    # the row of each value: its digits and its exponent's as groups of
    # four, the separator and the constants
    groups = np.empty((6, len(values)), np.uint64)
    high, low = divmod(digits, np.uint64(10**8))
    top, groups[2] = divmod(high, np.uint64(10**4))
    groups[0], groups[1] = divmod(top, np.uint64(10**4))
    groups[3], groups[4] = divmod(low, np.uint64(10**4))
    groups[5] = size
    rows = np.empty((len(values), _ROW), np.uint8)
    rows.view("<u4")[:, :6] = tb.quads[groups].T
    rows[:, _SEP] = seps
    rows[:, _MINUS:] = tb.constants
    # in place: one more index array this large is page-faulted in again
    # on every pass
    places = tb.layout[key]
    places += _ROW * np.arange(len(values))[:, None]
    text = rows.reshape(-1)[places]
    if not normal.all():
        special = np.flatnonzero(~normal)
        patterns, which = np.unique(bits[special], return_inverse=True)
        for i, pattern in enumerate(patterns):
            at = special[which == i]
            word = repr(float(pattern.view(np.float64))).encode()
            text[at, :len(word)] = np.frombuffer(word, np.uint8)
            text[at, len(word)] = seps[at]
            text[at, len(word) + 1:] = 0
    return text.tobytes().translate(None, b"\0")


def format_floats(values, seps) -> str:
    """``"".join(repr(v) + chr(sep) for v, sep in zip(values, seps))`` for
    a float64 array and one nonzero separator byte (uint8) per value."""
    values = np.asarray(values, np.float64)
    seps = np.broadcast_to(np.asarray(seps, np.uint8), values.shape).ravel()
    values = values.ravel()
    return b"".join(_chunk(values[i:i + CHUNK], seps[i:i + CHUNK])
                    for i in range(0, len(values), CHUNK)).decode("ascii")
