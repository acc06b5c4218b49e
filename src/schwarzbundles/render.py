"""CSV text of float64 columns: the exact bytes of f"{x:.17g}", a whole
column at once.

`float_fields` writes each value into a field of FIELD bytes, with NUL
wherever the text has no character, `text_fields` does the same for
strings, and `csv_rows` joins fields into CSV rows and drops the NULs. A
finite |x| in EXACT_RANGE, where %.17g uses fixed notation, takes the exact
route:

- k = floor(log10 |x|), estimated, then corrected once from the range of
  the product |x| 10^(16 - k);
- that product formed exactly as hi + lo by Dekker's TwoProduct (10^s is a
  float for s <= 22, and numpy rounds each operation on its own), and
  rounded half-even to the 17-digit integer N;
- N's digits read from tables of ASCII words, by chunks of N, into a row
  that holds every character the text can need at k < 4: the sign, "0." and
  three zeros before the digits, and a point after each of the first four;
- the field is that row at k < 4 and a gather of it at k >= 4, and a mask
  indexed by k and the count of digits kept leaves the characters the text
  has: no trailing fraction zeros, no bare point.

Every other value (0, -0, inf, NaN, and |x| outside EXACT_RANGE) is
Python's own `fmt17`, once per distinct value. The tables are built on first
use.
"""

from __future__ import annotations

import functools

import numpy as np

FIELD = 28  # the row below; the longest fmt17 is 24, "-2.2250738585072014e-308"
EXACT_RANGE = (1e-4, 1e16)  # |x| with fixed notation and an exact product
_K_MIN, _K_MAX = -4, 15  # the exponents k of EXACT_RANGE
_K_GATHER = 4  # from this exponent on, the field is a gather of the row
# The row of one value, one byte each, in 7 words: the sign (or NUL), "0",
# ".", "0", "0", "0", then N's digits d0 .. d16 with a "." after each of
# d0 .. d3 (the points of k < _K_GATHER), then NUL. Each word comes from
# one table segment, by the sign or by one chunk of N: d0, then 2, 3, 4, 4
# and 3 digits.
_SIGN, _ZERO, _POINT, _NUL = 0, 1, 7, 27
_DIGITS = (6, 8, 10, 12, 14, 15, *range(16, 27))
_CHUNKS = (1000, 10000, 10000, 1000, 100)  # from the low end of N
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting factor


def fmt17(x):
    return f"{float(x):.17g}"


def _split(a):
    """(hi, lo), a = hi + lo with hi of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _words(pattern):
    """The little-endian words of `pattern` with its "#"s the decimal digits
    of v, for v = 0 .. 10^(count of "#") - 1."""
    width = pattern.count("#")
    v = np.arange(10 ** width)
    place = iter(10 ** np.arange(width - 1, -1, -1))
    chars = [v // next(place) % 10 + ord("0") if char == "#" else np.full(v.size, ord(char))
             for char in pattern]
    return np.stack(chars, axis=1).astype(np.uint8).view("<u4")[:, 0]


@functools.cache
def _tables():
    """(words, offsets, zeros, powers, layout, masks):

    - words: every row word, and offsets: where each of the 7 words'
      segments starts in it;
    - zeros[v]: the trailing decimal zeros of v = 0 .. 9999 (3 for 0);
    - powers: 10^s, s = 0 .. 22, and its split;
    - layout[k]: the row byte of each field byte at exponent k;
    - masks[k, kept]: the field bytes of the text at exponent k with N's
      first `kept` digits kept (the integer digits always)."""
    segments = [_words(pattern) for pattern in ("\0" "0.0", "-0.0", "00#.", "#.#.", "#.##",
                                                "####", "###\0")]
    starts = np.cumsum([0, *map(len, segments)])
    offsets = starts[[0, 2, 3, 4, 5, 5, 6]]  # the sign's two words; two chunks of 4 digits
    v = np.arange(10000)
    zeros = np.select([v % 10 ** z != 0 for z in (1, 2, 3)], [0, 1, 2], 3)
    powers = np.array([float(10 ** s) for s in range(23)])
    layout = np.tile(np.arange(FIELD), (_K_MAX - _K_MIN + 1, 1))
    masks = np.zeros((_K_MAX - _K_MIN + 1, 18, FIELD), dtype=np.uint8)
    digit = np.full(FIELD, FIELD)  # the index in N of the digit in each row byte
    digit[list(_DIGITS)] = np.arange(17)
    kept = np.arange(18)[:, None]
    for k in range(_K_MIN, _K_MAX + 1):
        row = layout[k - _K_MIN]
        if k >= _K_GATHER:
            row[:] = _NUL
            row[:19] = [_SIGN, *_DIGITS[:k + 1], _POINT, *_DIGITS[k + 1:]]
        shown = (row == _SIGN) | (digit[row] < np.maximum(kept, k + 1))
        if k < 0:  # "0." and -k - 1 zeros
            shown |= (row >= _ZERO) & (row <= _ZERO - k)
        else:
            shown |= (row == (_POINT if k >= _K_GATHER else _DIGITS[k] + 1)) & (kept > k + 1)
        masks[k - _K_MIN] = shown * 255
    return (np.concatenate(segments), offsets, zeros, (powers, *_split(powers)),
            layout, masks.reshape(-1, FIELD))


def _product(a, s, powers):
    """(hi, lo): a 10^s = hi + lo exactly (Dekker's TwoProduct)."""
    p, p_hi, p_lo = (table.take(s) for table in powers)
    hi = a * p
    a_hi, a_lo = _split(a)
    lo = a_hi * p_hi - hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    return hi, lo


def _exact(a, negative):
    """(n, FIELD) fields of the magnitudes a, all in EXACT_RANGE, with a "-"
    where `negative`."""
    words, offsets, zeros, powers, layout, masks = _tables()
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _product(a, 16 - k, powers)
    # the product must lie in [1e16, 1e17); the floor of a rounded log10 is
    # one off at most
    shift = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    shift = shift.astype(np.intp) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0.0)))
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        hi[moved], lo[moved] = _product(a[moved], 16 - k[moved], powers)
    # hi >= 1e16 > 2^53 is an even integer, so rint's half-even on lo is
    # half-even on hi + lo. N < 10^17: no double in EXACT_RANGE lies within
    # 5e-18 relative below a power of ten (the nearest, below 0.1, lies
    # 8.3e-17 below it).
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    chunks = np.empty((a.size, 7), dtype=np.intp)
    chunks[:, 0] = negative
    for col, size in zip(range(6, 1, -1), _CHUNKS):
        q = n // size
        np.subtract(n, q * size, out=chunks[:, col])
        n = q
    chunks[:, 1] = n
    # N's kept digits end at its last nonzero one, in its last nonzero chunk
    kept = 17 - zeros.take(chunks[:, 6])
    left = np.flatnonzero(chunks[:, 6] == 0)
    for col, end in zip(range(5, 0, -1), (14, 10, 6, 3, 1)):
        if not left.size:
            break
        chunk = chunks[:, col].take(left)
        kept[left] = end - zeros.take(chunk)
        left = left[chunk == 0]
    chunks += offsets
    out = words.take(chunks).view(np.uint8)
    k -= _K_MIN
    wide = np.flatnonzero(k >= _K_GATHER - _K_MIN)
    if wide.size:
        out[wide] = out.reshape(-1).take(layout.take(k[wide], axis=0) + FIELD * wide[:, None])
    out &= masks.take(k * 18 + kept, axis=0)
    return out


def float_fields(values, blank_nan=False):
    """(n, FIELD) uint8: f"{x:.17g}" of each value as ASCII, NUL where the
    text has no character; NaN all NUL (a blank) when `blank_nan`."""
    x = np.asarray(values, dtype=float).reshape(-1)
    a = np.abs(x)
    exact = (a >= EXACT_RANGE[0]) & (a < EXACT_RANGE[1])
    if exact.all():
        return _exact(a, np.signbit(x))
    out = np.zeros((x.size, FIELD), dtype=np.uint8)
    at = np.flatnonzero(exact)
    if at.size:
        out[at] = _exact(a[at], np.signbit(x[at]))
    rest = np.flatnonzero(~exact & ~np.isnan(x) if blank_nan else ~exact)
    bits, each = np.unique(x[rest].view(np.int64), return_inverse=True)  # -0 apart from 0
    texts = text_fields([fmt17(v) for v in bits.view(float).tolist()])
    out[rest, :texts.shape[1]] = texts[each]
    return out


def text_fields(texts):
    """(n, w) uint8: each ASCII string, NUL-padded to the longest."""
    fields = np.array([t.encode() for t in texts], dtype=bytes)
    return fields.view(np.uint8).reshape(len(texts), fields.itemsize)


def csv_rows(*columns):
    """The CSV rows of fields `columns`, arrays (..., width) of uint8 whose
    leading axes broadcast together: the fields joined by "," and each row
    ended by a newline, with the NULs dropped."""
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    ends = np.cumsum([c.shape[-1] + 1 for c in columns])
    buf = np.empty((*shape, ends[-1]), dtype=np.uint8)
    for column, end in zip(columns, ends):
        buf[..., end - 1 - column.shape[-1]:end - 1] = column
        buf[..., end - 1] = ord(",")
    buf[..., -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")
