"""NumPy MinHash kernel: h_i(x) = (a_i * x + b_i) mod p, p = 2^61 - 1.

Exact 61-bit Mersenne-prime arithmetic in 64-bit lanes: operands are split
into 30/31-bit halves so no partial product overflows, and powers of two are
reduced with 2^61 = 1 (mod p). tests/test_minlsh.py checks it against
big-integer arithmetic.

The (k, n) hash matrix is walked in blocks of rows of at most _BLOCK_CELLS
cells, computed in place in three work buffers allocated once per call: no
operation allocates a temporary, and the buffers stay in cache.
"""

from __future__ import annotations

import numpy as np

P_INT = (1 << 61) - 1

_P = np.uint64(P_INT)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)
_S1 = np.uint64(1)
_S30 = np.uint64(30)
_S31 = np.uint64(31)
_S61 = np.uint64(61)

# Hash-matrix cells per row block: at most 128 KiB per work buffer.
_BLOCK_CELLS = 16_384


def _fold61(v: np.ndarray, tmp: np.ndarray) -> None:
    """Reduce any uint64 v into [0, p) in place; tmp is scratch of v's shape.

    2^61 = 1 (mod p) gives (v & p) + (v >> 61) <= p + 7, so one conditional
    subtraction finishes. It is taken as min(v, v - p): when v < p the
    unsigned difference wraps to above 2^63, which is more than v.
    """
    np.right_shift(v, _S61, out=tmp)
    np.bitwise_and(v, _P, out=v)
    np.add(v, tmp, out=v)
    np.subtract(v, _P, out=tmp)
    np.minimum(v, tmp, out=v)


def min_hash(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column minima of the hash matrix h_i(x_j) for shingles x and rows (a, b).

    shingles, a, b: uint64 arrays; a and b have equal length k and must
    satisfy 1 <= a[i] < p, 0 <= b[i] < p. 64-bit shingle values are folded
    into [0, p) first. Returns a uint64 array of length k.
    """
    xs = np.array(shingles, dtype=np.uint64)  # a copy: it is folded in place
    av = np.ascontiguousarray(a, dtype=np.uint64)
    bv = np.ascontiguousarray(b, dtype=np.uint64)
    n = xs.shape[0]
    k = av.shape[0]
    if n == 0:
        raise ValueError("empty shingle set")
    if bv.shape[0] != k:
        raise ValueError("a and b length mismatch")

    _fold61(xs, np.empty_like(xs))
    x_hi = xs >> _S31
    x_lo = xs & _MASK31
    a_hi = (av >> _S31)[:, None]
    a_hi2 = a_hi << _S1  # a_hi * 2^62 = 2 * a_hi (mod p)
    a_lo = (av & _MASK31)[:, None]
    b_col = bv[:, None]

    out = np.empty(k, dtype=np.uint64)
    step = max(1, _BLOCK_CELLS // n)
    # One allocation, not three: measured on glibc, three separate ~128 KiB
    # buffers went back to the OS after every call and the next call faulted
    # them in again (~100 minor faults per 200-shingle document).
    h_buf, t_buf, u_buf = np.empty((3, min(step, k), n), dtype=np.uint64)
    for start in range(0, k, step):
        stop = min(start + step, k)
        rows = stop - start
        h, t, u = h_buf[:rows], t_buf[:rows], u_buf[:rows]
        # a*x = a_hi*x_hi*2^62 + (a_hi*x_lo + a_lo*x_hi)*2^31 + a_lo*x_lo, with
        # mid*2^31 = (mid >> 30) + (mid & (2^30-1))*2^31 (mod p). The five
        # summands plus b stay below 2^63 + 2^62, so one fold finishes.
        np.multiply(a_hi2[start:stop], x_hi, out=h)  # < 2^61
        np.multiply(a_hi[start:stop], x_lo, out=t)
        np.multiply(a_lo[start:stop], x_hi, out=u)
        np.add(t, u, out=t)  # mid < 2^62
        np.bitwise_and(t, _MASK30, out=u)
        np.left_shift(u, _S31, out=u)  # < 2^61
        np.right_shift(t, _S30, out=t)  # < 2^32
        np.add(h, t, out=h)
        np.add(h, u, out=h)
        np.multiply(a_lo[start:stop], x_lo, out=t)  # < 2^62
        np.add(h, t, out=h)
        np.add(h, b_col[start:stop], out=h)  # b < 2^61
        _fold61(h, u)
        np.minimum.reduce(h, axis=1, out=out[start:stop])
    return out
