"""CSV text of a table given as columns: every float cell is exactly
``format(v, ".12g")``, encoded in numpy.

A float cell is its 12 significant digits D, 1e11 <= D < 1e12, at decimal
exponent e, laid out as ``%.12g`` lays them out: fixed notation for
-4 <= e < 12, else one digit, the point and the rest, then ``e±XX`` or
``e±XXX``; trailing zeros, and a point left bare, are stripped.

* e is ``floor(log10|x|)``, moved by one where that lands the scaled value
  outside [1e11, 1e12).
* D is ``rint(|x| * 10^(11-e))``: multiplied by 10^k from a table for
  k >= 0, divided by 10^-k otherwise.  That is at most two roundings of a
  value below 2^40, so the error is under 2^-12.
* Where the scaled value lies within ``_GUARD`` of a rounding tie or of the
  10^11 or 10^12 edge, that error could change D or e.  Such a value goes
  through Python's ``"%.12g"``, and so do 0, -0, ±inf, nan and |e| > 280.

Each value's characters go into a field of ``_FIELD`` byte slots, laid out
slot by slot across the values, NUL where a value has no character; a
block's join deletes the NULs.  Ints below 10^12 in magnitude take the same
path, where ``%.12g`` of ``float(i)`` is ``%d`` of ``i``; other ints, bools
and strings are their ``str``.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

_FIELD = 24  # sign, "0.000", 12 digits and a point, "e-100"
_GUARD = 2.0**-10
_BIAS = 281  # tables' column of the exponent 0; columns cover e = -281..282
_BLOCK_CELLS = 8192  # cells encoded at once, which bounds the block buffers
_K = np.arange(13, dtype=np.uint8)[:, None]  # digit slots


@functools.cache
def _tables():
    """Per exponent (one column each): the scale factors, the text before
    and after the digits, the digits before the point in fixed notation and
    the slot of the point in the run of digits (13 for none); and the
    two-digit table.  Built on the first write."""
    es = range(-_BIAS, _BIAS + 2)
    mul = np.array([float(f"1e{11 - e}") if e < 11 else 1.0 for e in es])
    div = np.array([float(f"1e{e - 11}") if e > 11 else 1.0 for e in es])

    def chars(texts):  # one NUL-padded column of 5 slots per text
        joined = "".join(t.ljust(5, "\0") for t in texts).encode()
        return np.frombuffer(joined, np.uint8).reshape(-1, 5).T.copy()

    lead = chars(["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in es])
    tail = chars(["" if -4 <= e < 12 else f"e{e:+03d}" for e in es])
    whole = np.array([e + 1 if 0 <= e < 12 else 0 for e in es], np.uint8)
    dot = np.array([e + 1 if 0 <= e < 12 else 13 if -4 <= e < 0 else 1 for e in es], np.uint8)
    two = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")
    return mul, div, lead, tail, whole, dot, two.astype(np.uint16)


def _encode(x: np.ndarray) -> np.ndarray:
    """The ``%.12g`` text of the values of ``x`` as a (_FIELD, x.size) uint8
    array: column i is the NUL-padded field of ``x[i]``."""
    mul, div, lead, tail, whole, dot, two = _tables()
    n = x.size
    a = np.abs(x)
    slow = ~((a >= 1e-280) & (a < 1e281))  # also 0, inf and nan
    a[slow] = 1.0
    col = np.floor(np.log10(a)).astype(np.intp)  # e + _BIAS
    col += _BIAS
    s = a * mul.take(col) / div.take(col)
    slow |= (np.abs(s - 1e11) < _GUARD) | (np.abs(s - 1e12) < _GUARD)
    low = s < 1e11  # log10 rounded up to a power of ten
    s[low] *= 10.0
    col -= low
    high = s >= 1e12
    s[high] /= 10.0
    col += high
    d = np.rint(s)
    slow |= np.abs(s - d) > 0.5 - _GUARD
    carry = d == 1e12
    d[carry] = 1e11
    col += carry
    # D as six pairs of digits, then as 12 characters and a NUL row
    q = np.empty((6, n), np.intp)
    q[5] = d
    for i, m in enumerate((10, 8, 6, 4, 2)):
        np.floor_divide(q[5], 10**m, out=q[i])
    q[1:] -= 100 * q[:-1]
    pairs = two.take(q)
    dig = np.zeros((13, n), np.uint8)
    dig[0:12:2] = pairs
    dig[1:12:2] = pairs >> 8
    # digits kept: up to the last nonzero one, and the whole integer part
    keep = np.maximum(((dig[:12] != 48) * (_K[:12] + 1)).max(axis=0), whole.take(col))
    dig *= _K < keep
    point = dot.take(col)
    point[keep <= point] = 13  # no digit after the point
    out = np.empty((_FIELD, n), np.uint8)
    np.multiply(x < 0, np.uint8(45), out=out[0])
    out[1:6] = lead.take(col, axis=1)
    out[6] = dig[0]
    # slot j of the run: digit j before the point, the point, digit j-1 after
    run = out[7:19]
    np.multiply(dig[1:13], point > _K[1:], out=run)
    run += dig[0:12] * (point < _K[1:])
    run += (point == _K[1:]) * np.uint8(46)
    out[19:24] = tail.take(col, axis=1)
    idx = np.flatnonzero(slow)
    if idx.size:
        text = np.array(["%.12g" % v for v in x[idx].tolist()], dtype=f"S{_FIELD}")
        out[:, idx] = text.view(np.uint8).reshape(idx.size, _FIELD).T
    return out


def _column(values):
    """A column as float64 values for :func:`_encode`, or as a list of cells
    to write with ``str``."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind == "f" or (kind in "iu" and not (np.abs(arr) >= 10**12).any()):
        return arr.astype(np.float64, copy=False)
    return arr.tolist() if isinstance(values, np.ndarray) else list(values)


def _lines(columns: list) -> str:
    """The CSV lines of one block of rows, one :func:`_column` per column."""
    rows = len(columns[0])
    numeric = [c for c in columns if isinstance(c, np.ndarray)]
    chars = iter(())
    if numeric:
        encoded = _encode(np.concatenate(numeric)).reshape(_FIELD, len(numeric), rows)
        chars = iter(encoded.transpose(1, 2, 0))
    fields = [
        next(chars) if isinstance(c, np.ndarray)
        else np.array([str(v).encode() for v in c]).view(np.uint8).reshape(rows, -1)
        for c in columns
    ]
    buf = np.empty((rows, sum(f.shape[1] + 1 for f in fields)), np.uint8)
    end = 0
    for f in fields:
        start, end = end, end + f.shape[1] + 1
        buf[:, start:end - 1] = f
        buf[:, end - 1] = 44  # ","
    buf[:, -1] = 10  # "\n"
    return buf.tobytes().translate(None, b"\0").decode()


def blocks(columns) -> Iterator[str]:
    """The CSV lines of a table, one sequence per column (numpy arrays or
    lists, each of one type), about ``_BLOCK_CELLS`` cells at a time."""
    columns = [_column(c) for c in columns]
    step = max(1, _BLOCK_CELLS // len(columns))
    for start in range(0, len(columns[0]), step):
        yield _lines([c[start:start + step] for c in columns])
