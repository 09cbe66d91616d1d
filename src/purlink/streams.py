"""Trial streams: default_rng((*seed, i)).random() for a range of i, without numpy.random.

default_rng seeds PCG64 through SeedSequence (O'Neill's seed_seq hash), and
random() is (next64 >> 11) * 2**-53 of its 128-bit LCG s -> M s + inc with
XSL-RR output (O'Neill, "PCG", HMC-CS-2014-0905); both run here in uint64
arithmetic over arrays of trials. k steps take s to M^k s + C_k inc, C_k
the sum of M^j for j < k (mod 2^128), which is s + C_k w, w = (M - 1) s +
inc: one product per output, from a table of C_k, draws any lanes at once.
A lane holds its current state s and its w.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

import numpy as np

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED  # SeedSequence's
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _S11, _S32, _S58, _S64 = (np.array(v, dtype=np.uint64) for v in (_M32, 11, 32, 58, 64))  # cheaper than ints
_PIECE = 4096  # uniforms per vectorized pass, which keeps its arrays in cache


def _words(n) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from one seed entry."""
    if int(n) < 0:
        raise ValueError("expected non-negative integer")
    return [int(n) >> shift & _M32 for shift in range(0, max(int(n).bit_length(), 1), 32)]


def _hash(value, const, mult: int):
    """seed_seq's hash of a word under the running constant: (hashed word, next constant)."""
    step = const * mult & _M32
    value = (value ^ const) * step & _M32
    return value ^ value >> 16, step


def _columns(values: list) -> np.ndarray:
    """Words (high, low, low & 2^32-1, low >> 32) of 128-bit ints, one column each."""
    lo, hi = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), dtype="<u8").reshape(-1, 2).T
    return np.stack([hi, lo, lo & _U32, lo >> _S32])


def _times(x_hi, x_lo, t: np.ndarray):
    """(high, low) words of t_j x (mod 2^128) for each lane's x, a column, and each column of t's words."""
    t_hi, t_lo, t0, t1 = t
    x0, x1 = x_lo & _U32, x_lo >> _S32
    lo = x_lo * t_lo  # the low word, mod 2^64
    hi = x_hi * t_lo  # the high word: the products that land in it whole,
    y = np.multiply(x_lo, t_hi)
    hi += y
    hi += np.multiply(x1, t1, out=y)
    mid = np.right_shift(np.multiply(x0, t0), _S32)  # and the carries of x_lo t_lo's limbs; no sum overflows
    mid += np.multiply(x1, t0, out=y)
    hi += np.right_shift(mid, _S32, out=y)
    mid &= _U32
    mid += np.multiply(x0, t1, out=y)
    hi += np.right_shift(mid, _S32, out=mid)
    return hi, lo


def _seed(entropy: list) -> np.ndarray:
    """Rows (s_hi, w_hi, s_lo, w_lo) seeded from entropy (int or per-lane words): s = M p + inc, p = inc + seed."""
    const, pool = _INIT_A, []
    for i in range(4):  # SeedSequence.mix_entropy
        word, const = _hash(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(word)
    for src in range(max(4, len(entropy))):  # the pool words mix, then the words past four join
        for dst in range(4):
            if dst != src:
                word, const = _hash(pool[src] if src < 4 else entropy[src], const, _MULT_A)
                word = (_MIX_L * pool[dst] - _MIX_R * word) & _M32
                pool[dst] = word ^ word >> 16
    # generate_state(4, np.uint64): the pool hashed twice over, uint32 words paired little-endian
    consts = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(8)], dtype=np.uint64)
    out, _ = _hash(np.stack(pool * 2), consts[:, None], _MULT_B)
    seed_hi, seed_lo, seq_hi, seq_lo = (out[0::2] | out[1::2] << 32)[..., None]
    c_hi, c_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1  # inc = 2 seq + 1
    p_hi, p_lo = seed_hi + c_hi + (seed_lo + c_lo < c_lo), seed_lo + c_lo  # 128-bit sums carry from the low word
    w_hi, w_lo = _times(p_hi, p_lo, _columns([_PCG_MULT - 1]))
    w_hi, w_lo = w_hi + c_hi + (w_lo + c_lo < c_lo), w_lo + c_lo  # (M - 1) p + inc, so s = p + that
    s_hi, s_lo = p_hi + w_hi + (p_lo + w_lo < w_lo), p_lo + w_lo
    w_hi, w_lo = _times(w_hi, w_lo, _columns([_PCG_MULT]))  # w = (M - 1) s + inc, M times p's
    return np.concatenate([s_hi, w_hi, s_lo, w_lo], axis=1).T


@lru_cache(maxsize=None)
def _table(n: int) -> np.ndarray:
    """Words of C_1 .. C_n, for n outputs, and of M^n, for the next w: (4, lanes of a pass, n + 1)."""
    c, sums = 0, []
    for _ in range(n):
        c = (c * _PCG_MULT + 1) & _M128
        sums.append(c)
    return np.repeat(_columns(sums + [pow(_PCG_MULT, n, 1 << 128)])[:, None], max(1, _PIECE // n), axis=1)


class Streams:
    """The uniforms default_rng((*seed, i)).random() draws, for trial i = lo + j in lane j < hi - lo.

    refill(rows, n) returns each listed lane's next n >= 1 uniforms, an
    array("d"), from one vectorized draw. A negative word raises ValueError,
    as in numpy.
    """

    def __init__(self, seed, lo: int, hi: int):
        base = [word for entry in seed for word in _words(entry)]
        parts = [np.zeros((4, 0), dtype=np.uint64)]
        _words(lo)  # a negative index raises
        while lo < hi:  # the index words past the first are shared up to the next multiple of 2^32
            top, end = lo >> 32, min(hi, (lo >> 32) + 1 << 32)
            low = np.arange(lo & _M32, (end - 1 & _M32) + 1, dtype=np.uint64)
            parts.append(_seed(base + [low] + (_words(top) if top else [])))
            lo = end
        self.lanes = np.concatenate(parts, axis=1).reshape(2, 2, -1)  # (high, low) words of (p, w)

    def __len__(self) -> int:
        return self.lanes.shape[2]

    def refill(self, rows: list, n: int) -> list:
        t, lanes, u = _table(n), self.lanes[:, :, rows], np.empty((len(rows), n + 1))
        for j in range(0, len(rows), t.shape[1]):  # a pass: output k is from the state s + C_{k+1} w
            (s_hi, w_hi), (s_lo, w_lo) = part = lanes[:, :, j:j + t.shape[1], None]
            hi, lo = _times(w_hi, np.repeat(w_lo, n + 1, axis=1), t[:, :len(s_hi)])
            part[:, 1] = hi[:, n:], lo[:, n:]  # the next w, M^n w
            lo += s_lo
            hi += s_hi + (lo < s_lo)  # the carry
            part[:, 0] = hi[:, n - 1:n], lo[:, n - 1:n]  # the next s, the state of output n - 1
            x = hi ^ lo  # XSL-RR: rotate right by the top 6 bits; numpy's shift by 64 gives 0
            rot = np.right_shift(hi, _S58, out=hi)
            y = x >> rot
            x <<= np.subtract(_S64, rot, out=rot)
            x |= y
            np.multiply(np.right_shift(x, _S11, out=x), 2.0**-53, out=u[j:j + t.shape[1]])
        self.lanes[:, :, rows] = lanes
        u = array("d", u.tobytes())  # column n of each lane is not an output
        return [u[j:j + n] for j in range(0, len(u), n + 1)]
