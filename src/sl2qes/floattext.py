"""Float64 arrays as ``repr`` text, many values per numpy call.

``format_floats(values, seps)`` returns ``"".join(repr(v) + sep)`` over
the values, byte for byte.  Normal finite values take the digits of the
Schubfach algorithm (R. Giulietti, "The Schubfach way to render doubles",
2020): the shortest decimal in the rounding interval, the nearest of
those, ties to even, which are the digits of Python's ``repr``.  It needs
only 64-bit integer arithmetic, so numpy runs it on CHUNK values per
call.  Each value takes one 128-bit product of g and cp per 63-bit half of
g; the ends of its rounding interval, whose cp differ from it by a power
of two, are that product plus or minus g shifted left.  Zeros take the
same path and come out as ``0.0``; subnormals (where Schubfach's digits
can differ from ``repr``'s), inf and nan take ``repr`` itself.

The layout is ``repr``'s: with n significant digits and the decimal
point p places from their start, exponent form ``d.ddde-XX`` when
p <= -4 or p > 16, else fixed form (``0.00ddd``, ``dd.ddd`` or
``ddd00.0``).  Each value gets a row of 32 bytes (its digits, left-aligned
as 17, 4 exponent digits, its separator, the 5 constant characters
``-0.e+`` and NULs), and one gather through a table keyed by sign, digit
count and layout class puts the bytes in order, NUL-padded to a fixed
width; deleting the NULs leaves the text.  Lookup tables give, per biased
exponent, g and the shifts of the digit step; per decimal point, the
layout class and the exponent's digits; and per group of four digits, its
text and its trailing zeros.  They are built on first use, not at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = ["CHUNK", "format_floats", "tables"]

CHUNK = 4096    # values per numpy pass; larger temporaries ran slower

_WIDTH = 25     # the longest text: "-d." 16 digits "e-308", and a sep
# point positions -3..16, exponent sign x digit count, then zero
_CLASSES = 25
_ZERO_CLASS = 24
# byte places in a value's row: digits 0..19, exponent 20..23, then these;
# a text shorter than _WIDTH is padded with the row's NUL bytes
_SEP, _MINUS, _ZERO, _POINT, _E, _PLUS, _NUL = 24, 25, 26, 27, 28, 29, 30
_ROW = 32
# decimal point positions: normal doubles have -307..309; below them the
# code of zeros, above them that of subnormals, inf and nan
_P_ZERO, _P_SPECIAL = -308, 310
_K_MIN, _K_MAX = -324, 292      # decimal exponents of the normal doubles
_M32, _M52, _M63 = 2**32 - 1, 2**52 - 1, 2**63 - 1
_E16 = np.uint64(10**16)
# a row's last 8 bytes but the separator: "-0.e+" and NULs
_TAIL = np.uint64(int.from_bytes(b"\0-0.e+\0\0", "little"))


class _Tables(NamedTuple):
    # (10, 4096), per biased exponent and t != 0: g's 63-bit halves and
    # cp's shift, then g 2^s at each end of the interval and the point
    # index of 16 digits (see _scale)
    scale: np.ndarray
    cls: np.ndarray     # per point index: layout class + 16 * _CLASSES
    size: np.ndarray    # per point index: the exponent's absolute value
    quads: np.ndarray   # "0000".."9999" as little-endian uint32
    zeros: np.ndarray   # per group of four digits: trailing zeros * _CLASSES
    tens: np.ndarray    # (5, 1): 10^16, 10^12, 10^8, 10^4, 1
    layout: np.ndarray  # (2 * 17 * _CLASSES, _WIDTH) byte places per key
    offsets: np.ndarray     # (CHUNK, 1): each value's row in the pass


def _flog2pow10(e: int) -> int:
    return (e * 913124641741) >> 38


def _scale() -> np.ndarray:
    """The scale table: Schubfach's k, h and g = floor(10^-k / 2^r) + 1,
    with r = flog2pow10(-k) - 125 so that 2^125 <= g < 2^126, per biased
    exponent bq and t != 0 (the interval is narrower below a power of two,
    except at the lowest normal exponent).  An end of the interval takes
    cp +- 2^s, s = h + 1 (h at a power of two's lower end), which moves g
    cp by g 2^s: its low 64 bits, and the rest as high 2^63 + low."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // 10**k + 1)
        else:
            g.append((10**-k >> r if r >= 0 else 10**-k << -r) + 1)
    # zeros, subnormals, inf and nan take the steps of 1.0 or 1.t
    bq = np.arange(4096) >> 1
    bq[[0, 1, 4094, 4095]] = 1023
    regular = (np.arange(4096) & 1 == 1) | (bq == 1)
    q = bq - 1075
    k = (q * 661971961083 - np.where(regular, 0, 274743187321)) >> 41
    h = q + _flog2pow10(-k) + 2
    g1 = np.array([v >> 63 for v in g], np.uint64)[k - _K_MIN]
    g0 = np.array([v & _M63 for v in g], np.uint64)[k - _K_MIN]
    ends = []
    for s in (h + 1, h + regular):
        s = s.astype(np.uint64)
        ends += [g0 << s, g1 >> (64 - s),
                 ((g1 << (s - 1)) & _M63) | (g0 >> (64 - s))]
    (right, rhigh, rlow), (left, lhigh, llow) = ends[:3], ends[3:]
    point = k + 16 - _P_ZERO    # of 16 digits
    point[0] += _P_ZERO - 1     # the point codes
    point[[1, 4094, 4095]] += _P_SPECIAL - 1
    return np.stack([g1, g0, (h + 2).astype(np.uint64),
                     ~right, rlow, rhigh,       # x0 > ~right: a carry
                     left, llow | 2**63, lhigh + 1,     # a borrow
                     point.astype(np.uint64)])


def _layout(negative: bool, n: int, cls: int) -> list[int]:
    """The byte places of one value's text: sign, n digits (left-aligned
    in 17), point and exponent in layout class cls, then the separator."""
    digits = list(range(3, 3 + n))
    out = [_MINUS] if negative else []
    if cls == _ZERO_CLASS:
        out += [_ZERO, _POINT, _ZERO]
    elif cls < 20:
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


def _class(point: int) -> int:
    """The layout class of a decimal point position (or code)."""
    if point in (_P_ZERO, _P_SPECIAL):
        return _ZERO_CLASS
    if -4 < point <= 16:
        return point + 3
    return 20 + 2 * (point > 1) + (abs(point - 1) >= 100)


@functools.cache
def tables() -> _Tables:
    """The lookup tables, built on first use; a process that forks a
    formatting child builds them first."""
    points = range(_P_ZERO, _P_SPECIAL + 1)
    rows = [_layout(negative, n, cls) for negative in (False, True)
            for n in range(1, 18) for cls in range(_CLASSES)]
    layout = np.full((len(rows), _WIDTH), _NUL, np.intp)
    for i, row in enumerate(rows):
        layout[i, :len(row)] = row
    quad = np.arange(10_000)[:, None]
    digit = quad // np.array([1000, 100, 10, 1]) % 10
    return _Tables(
        scale=_scale(),
        cls=np.array([_class(p) + 16 * _CLASSES for p in points], np.intp),
        size=np.array([abs(p - 1) for p in points], np.intp),
        quads=(digit + ord("0")).astype(np.uint8).view("<u4").ravel(),
        zeros=_CLASSES * (quad % [10, 100, 1000, 10_000] == 0).sum(1),
        tens=10 ** np.arange(16, -1, -4)[:, None],
        layout=layout,
        offsets=(_ROW * np.arange(CHUNK))[:, None])


def _hi64(a, b1, b0):
    """The high 64 bits of a b, for a < 2^63 and b = b1 2^32 + b0 < 2^60:
    no partial sum overflows."""
    a1, a0 = a >> 32, a & _M32
    mid = a1 * b0
    mid += a0 * b1
    a0 *= b0
    mid += a0 >> 32
    a1 *= b1
    a1 += mid >> 32
    return a1


def _interval(bits):
    """(vb, vbl + out, vbr - out, point index of 16 digits) of each double
    (bits), in Schubfach's terms: 4 v 10^-k and its rounding interval's
    ends, each rounded to odd."""
    tb = tables()
    t = bits & _M52
    idx = ((bits >> 51) & 0xFFE).view(np.int64) | (t != 0)
    g = tb.scale[:3].take(idx, axis=1)
    cp = (t | (1 << 52)) << g[2]
    # vb = g cp / 2^127 rounded to odd, from its 127 high bits hi 2^63 + lo:
    # the products of cp and g's halves, high and low 64 bits
    (y1, x1), (y0, x0) = _hi64(g[:2], cp >> 32, cp & _M32), g[:2] * cp
    # freed before the ends' rows are taken: with fewer temporaries at
    # once, the heap is not grown and trimmed again on every pass
    del g, cp
    rbound, rlow, rhigh, lbound, llow, lhigh, point = tb.scale[3:].take(
        idx, axis=1)
    z = (y0 >> 1) + x1
    hi, lo = y1 + (z >> 63), z & _M63
    # the ends: g (cp +- 2^s) / 2^127, the same product +- g 2^s
    lor = lo + rlow + (x0 > rbound)
    vbr = (hi + rhigh + (lor >> 63)) | ((lor << 1) != 0)
    lol = lo - llow - (x0 < lbound)
    vbl = (hi - lhigh + (lol >> 63)) | ((lol << 1) != 0)
    out = t & 1
    return (hi | (lo != 0), vbl + out, vbr - out,
            point.astype(np.int64))


def _shortest(bits):
    """(digits, point index) of each double (bits): digits 10^k, of 16 or
    17 digits (below 2^53 10), the shortest decimal that rounds to it, as
    in Schubfach, and the point tables' index of 16 digits."""
    vb, lower, upper, point = _interval(bits)
    # one digit shorter, when exactly one of its neighbours is inside
    s10 = vb // 40
    sp4 = s10 * 40
    upin = lower <= sp4
    wpin = sp4 + 40 <= upper
    # else s or s + 1: the one inside, or the nearer, ties to even
    s4 = vb & (2**64 - 4)
    uin = lower <= s4
    win = s4 + 4 <= upper
    near = (0x37 >> (vb & 7)) & 1   # vb - s4 < 2, or 2 with s even
    digits = np.where(upin != wpin, (s10 + wpin) * 10,
                      (vb >> 2) + (win > (uin & near)))
    return digits, point


def _rows(bits, seps):
    """(rows, keys into the layout table, point indices) of the doubles
    (bits) and their separators."""
    tb = tables()
    digits, point = _shortest(bits)
    # 17 digits, left-aligned: a point one place later for 17 digits
    big = digits >= _E16
    point += big
    digits = np.where(big, digits, digits * 10).view(np.int64)
    # the digits and the exponent as groups of four
    groups = np.empty((6, len(bits)), np.intp)
    np.floor_divide(digits, tb.tens, out=groups[:5])
    groups[1:5] -= groups[:4] * 10_000
    tb.size.take(point, out=groups[5])
    # the digit count: 17 less the trailing zeros of the groups
    zeros = tb.zeros.take(groups[:5])
    dropped = zeros[0]
    for i in range(1, 5):
        dropped = zeros[i] + (groups[i] == 0) * dropped
    key = tb.cls.take(point) - dropped
    key += (bits >> 63).view(np.int64) * (17 * _CLASSES)
    # the row: digits, exponent, separator and constants
    rows = np.empty((len(bits), _ROW), np.uint8)
    rows.view("<u4")[:, :6] = tb.quads.take(groups.T)
    np.bitwise_or(seps, _TAIL, out=rows.view("<u8")[:, 3])
    return rows, key, point


def _places(key):
    """The index of each value's text bytes among the rows of a pass."""
    tb = tables()
    # in place, and freed before the text is copied: one more array this
    # large makes the heap grow, and be trimmed, on every pass
    places = tb.layout.take(key, axis=0)
    places += tb.offsets[:len(key)]
    return places


def _chunk(values: np.ndarray, seps: np.ndarray) -> bytes:
    """The text of at most CHUNK values, as bytes."""
    bits = values.view(np.uint64)
    rows, key, point = _rows(bits, seps)
    text = rows.reshape(-1).take(_places(key))
    if point.max() == _P_SPECIAL - _P_ZERO:
        special = np.flatnonzero(point == _P_SPECIAL - _P_ZERO)
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
