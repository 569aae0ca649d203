"""CSV text of float64 columns, formatted in numpy exactly as ``'%.17g'``.

A table is formatted on the calling thread in chunks of about 8192 cells,
each of whole rows, by one function, ``_chunk``, into two workspace arrays
that each call allocates once, sized for its largest chunk.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["csv_text"]


def _pow10(p: int) -> tuple[float, float]:
    """10^p as hi + lo, rounded from Python integers, where int -> float and
    int / int round correctly."""
    t = 10 ** abs(p)
    a, b = (hi := float(t) if p >= 0 else 1 / t).as_integer_ratio()
    return hi, (t * b - a) / b if p >= 0 else (b - a * t) / (b * t)


@cache
def _tables():
    """A cell's 28 source bytes: 0-15 digits 1-16 (four 4-digit words); 16-19
    digit 0, sign ('-' or 0), '.', 'e' (a lead word); 20-23 exponent sign and
    3 digits, 0 for the first of two (an exponent word); 24-27 '0', ',', 0,
    0.  The pattern row of the cell's form, exponent and digit count gathers
    a 25-byte field from them.  ``count[j, g]`` is the digit count of a
    mantissa whose last nonzero group is g at position j (at least 1), and
    ``form[k + 300]`` is the first pattern row of exponent k's form, less 1.
    ``split[:, 316 - k]`` holds 10^(16-k) as hi, lo and hi's Veltkamp
    halves h1 (26 bits) and h2 = hi - h1."""
    pair = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
    quad = np.stack(np.broadcast_arrays(pair[:, None], pair), -1).view(np.uint8).reshape(-1, 4)
    sig = np.array([2 if i % 10 else 1 if i else -99 for i in range(100)])
    sig = np.where(np.arange(100) > 0, 2 + sig, sig[:, None]).ravel()
    count = np.maximum(sig + 4 * np.arange(4)[:, None] + 1, 1)
    lead = np.frombuffer("".join(f"{i}{s}.e" for s in "\0-" for i in range(10)).encode(), np.uint32)
    e = np.arange(-300, 301)
    exp = quad[abs(e)]  # "0ddd" becomes sign and 3 digits, the first 0 below 100
    exp[:, 0], exp[abs(e) < 100, 1] = np.where(e < 0, 45, 43), 0
    # code < 21 is the fixed form of exponent code - 4, code 21 the e-form:
    # the zeros of "0.00" below 1, then the digits with '.' after `point`
    code, nd, j = np.ogrid[:22, 1:18, :25]
    zeros = np.maximum(4 - code, 0)
    point = np.where((code < 4) | (code == 21), 1, code - 3)
    shown = np.maximum(nd + zeros, point)
    dot = shown > point
    t = j - 1 - (dot & (j > point + 1))  # index into zeros and digits; digit
    # d is byte (d + 16) % 17, and 'e' and the exponent are bytes 19-23
    pats = np.where(j == 0, 17, np.where(dot & (j == point + 1), 18, np.where(t < zeros, 24, np.where(
        t < shown, (t - zeros + 16) % 17, np.where((code == 21) & (t < shown + 5), 19 + t - shown, 27)))))
    pats[..., -1] = 25
    words = (w.view(np.uint32).ravel() for w in (quad, exp, np.frombuffer(b"0,\0\0", np.uint8)))
    form = np.where((e >= -4) & (e < 17), e + 4, 21) * 17 - 1
    hi, lo = np.array([_pow10(p) for p in range(-300, 301)]).T
    h1 = hi * 134217729.0
    h1 -= h1 - hi
    split = np.stack([hi, lo, h1, hi - h1])
    return *words, count, form, lead, pats.reshape(-1, 25).astype(np.uint16), split


def _scaled(a: np.ndarray, k: np.ndarray, split: np.ndarray):
    """floor(a 10^(16-k)) and its fraction: Dekker's exact product of a and
    hi, on Veltkamp's 26-bit halves, plus a lo, summed in place left to
    right as (a1 h1 - prod) + a1 h2 + a2 h1 + a2 h2 + a lo + (prod - whole).
    hi, lo and hi's halves are one ``take`` from ``split``."""
    hi, lo, h1, h2 = split.take(316 - k, axis=1)
    a1 = a * 134217729.0
    a1 -= a1 - a
    a2 = a - a1
    prod = a * hi
    whole = np.floor(prod)
    f = a1 * h1
    f -= prod
    a1 *= h2
    f += a1
    h1 *= a2
    f += h1
    a2 *= h2
    f += a2
    lo *= a
    f += lo
    prod -= whole
    f += prod
    carry = np.floor(f)
    f -= carry
    n = whole.astype(np.int64)
    n += carry.astype(np.int64)
    return n, f


def _divmod(x: np.ndarray, d: int):
    """x // d and x % d for x >= 0, from the one division: numpy divides an
    int64 array by a scalar several times faster than it takes ``%``."""
    q = x // d
    return q, x - q * d


def _chunk(v: np.ndarray, cols: int, src: np.ndarray, out: np.ndarray) -> str:
    """The text of ``v``, whole rows of ``cols`` cells flattened row-major.
    ``src`` and ``out``, (cells, 7) uint32 and (cells, 25) uint8 with at
    least ``v.size`` rows, are overwritten with each cell's source bytes and
    field."""
    quad, exp, tail, count, form, lead, pats, split = _tables()
    fast = (abs(v) >= 1e-270) & (abs(v) < 1e270)
    a = np.where(fast, abs(v), 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, k, split)
    # k is one off where N is below 10^16 before rounding or 10^17 after
    shift = (n + (f > 0.5) >= 10**17).astype(np.int64) - (n < 10**16)
    if shift.any():
        fix = np.flatnonzero(shift)
        k[fix] += shift[fix]
        n[fix], f[fix] = _scaled(a[fix], k[fix], split)
    n += f > 0.5
    slow = (~fast & (v != 0)) | (abs(f - 0.5) < 1e-6) | (n < 10**16) | (n >= 10**17)
    n[slow | ~fast], k[slow | ~fast] = 0, 0  # all-zero digits: a zero
    k += 300
    src, out = src[: v.size], out[: v.size]
    high, low = _divmod(n, 10**8)
    first, high = _divmod(high, 10**8)
    groups = _divmod(high, 10**4) + _divmod(low, 10**4)
    digits = count[0, groups[0]]
    for j, group in enumerate(groups):
        src[:, j] = quad[group]
        if j:
            np.maximum(digits, count[j, group], out=digits)
    src[:, 4], src[:, 5], src[:, 6] = lead[first + 10 * np.signbit(v)], exp[k], tail
    codes = form[k] + digits
    flat = src.view(np.uint8).ravel()
    # 2048 cells at a time, whose 57344 source bytes a uint16 index reaches
    starts = np.arange(0, 28 * 2048, 28, dtype=np.uint16)[:, None]
    for lo in range(0, v.size, 2048):
        idx = pats.take(codes[lo : lo + 2048], axis=0)
        idx += starts[: len(idx)]
        flat[28 * lo :].take(idx, out=out[lo : lo + 2048])
    out[cols - 1 :: cols, -1] = 10  # '\n' ends a row
    text = b"".join(("%.17g" % x).encode().ljust(24, b"\0") for x in v[slow].tolist())
    out[slow, :-1] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0").decode("ascii")


def csv_text(header: str, *columns) -> str:
    """``header``, then one line per row of the equal-length ``columns``,
    each float64 cell as ``'%.17g' % v``, comma-separated, LF-ended.

    For 1e-270 <= |v| < 1e270, k = floor(log10|v|) and N = |v| 10^(16-k) is
    an error-free double-double product, off by about 1e-14.  k moves by one
    where N is not in [10^16, 10^17), and N rounds half-even.  A zero has
    all-zero digits.  A cell whose N lies within 1e-6 of a tie, an infinity,
    NaN, subnormal or any cell outside that range is formatted by
    ``'%.17g' % v`` on its own.  10^(16-k) comes from a table of its
    double-double and Veltkamp parts for every k, and a cell's digit count
    and form from tables indexed by its 4-digit groups and by k.  The byte
    patterns are gathered 2048 cells at a time with ``np.uint16`` indices
    into those cells' bytes, a quarter of the index traffic of ``np.intp``
    ones (``take`` widens them once), and the zero padding of each field is
    dropped by ``bytes.translate``.

    The rows are cut into max(1, round(rows/step)) chunks of equal whole
    rows, step = 8192 // columns, so no chunk is a short tail: a chunk holds
    fewer than 1.5 steps of rows, and at least floor(0.75 steps) or all of
    them (1.5 steps round to two chunks).
    Every chunk is formatted on the calling thread into the same two
    workspace arrays, the cells' source bytes and their fields, which this
    call allocates once for its largest chunk, so a call holds no state that
    another call can see.
    """
    table = np.asarray(np.broadcast_arrays(*columns), np.float64).T
    rows, cols = table.shape
    m = max(1, round(rows / max(1, 8192 // cols)))
    cuts = [rows * i // m for i in range(m + 1)]
    cells = cols * -(-rows // m)
    src, out = np.empty((cells, 7), np.uint32), np.empty((cells, 25), np.uint8)
    texts = [_chunk(table[b:e].ravel(), cols, src, out) for b, e in zip(cuts, cuts[1:])]
    return "".join([header + "\n", *texts])
