"""Deterministic RNG substreams.

Every stochastic component draws from a child generator derived from the
master seed plus a structured path (e.g. ``("pg", round, iteration,
trajectory)``), so results are reproducible bit-for-bit regardless of
execution order.

``substream_uniforms`` serves batches of episodes, one substream per
episode index: it returns the leading uniforms of many consecutive
substreams at once, equal bit for bit to those ``substream`` draws. It
redoes numpy's seeding of each child (the SeedSequence hash pool, then
PCG64's set-seed) with integer arrays over the episode indices. PCG64 is a
128-bit LCG (O'Neill 2014), so the state after t steps is A_t*S + G_t*inc
mod 2^128 with constants A_t = M^t and G_t = 1 + M + ... + M^(t-1) (Brown
1994). A block of episodes gets its first 8 states by these jumps at
once and every later state by one jump of 8 steps, then the XSL-RR
output; there is no per-episode Python work.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

from .errors import InputError


@lru_cache(maxsize=4096)
def _string_token(part: str) -> int:
    digest = hashlib.sha256(part.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _token(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    return _string_token(str(part))


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Child generator for (master seed, path), stable across processes."""
    entropy = [_token(master_seed)] + [_token(p) for p in path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
# numpy's SeedSequence: a pool of 4 words and its hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# episodes per block, and uniforms per jump: (block, stride) temporaries stay in cache
_EPISODE_BLOCK = 2048
_STRIDE = 8


def _words(token: int) -> list[int]:
    """SeedSequence's words for one entropy int: [0] for 0, else its little-endian 32-bit words."""
    words = [token & _M32]
    while token > _M32:
        token >>= 32
        words.append(token & _M32)
    return words


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix with its running hash constant, over uint32 arrays."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _generate_state(words: list) -> list:
    """SeedSequence(words).generate_state(4, uint64), one uint64 array per word.

    ``words`` holds uint32 arrays that broadcast together: the words every
    episode shares have one element, the episode's own words one per episode.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state hashes the pool words cyclically by the same step, with its own constants
    out = _hashmix(_INIT_B, _MULT_B)
    half = [out(pool[i % _POOL]).astype(np.uint64) for i in range(2 * _POOL)]
    return [half[2 * i] | (half[2 * i + 1] << np.uint64(32)) for i in range(_POOL)]


def _split(values) -> np.ndarray:
    """128-bit Python ints as a (2, len) uint64 array: high words, then low words."""
    return np.array([[v >> 64 for v in values], [v & _M64 for v in values]], dtype=np.uint64)


def _jumps(t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_t, G_t) for t = 1..t_max, split: t LCG steps map S to A_t*S + G_t*inc."""
    a, g, mults, incs = 1, 0, [], []
    for _ in range(t_max):
        a, g = a * _PCG_MULT & _M128, (g * _PCG_MULT + 1) & _M128
        mults.append(a)
        incs.append(g)
    return _split(mults), _split(incs)


_JUMP_MULT, _JUMP_INC = _jumps(_STRIDE)


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a*b of uint64 arrays."""
    a0, a1 = a & np.uint64(_M32), a >> np.uint64(32)
    b0, b1 = b & np.uint64(_M32), b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (p01 & np.uint64(_M32)) + (p10 & np.uint64(_M32))
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _mul128(x, c):
    """(high, low) products x*c mod 2^128, broadcast over the uint64 arrays."""
    (xh, xl), (ch, cl) = x, c
    return _mulhi64(xl, cl) + xh * cl + xl * ch, xl * cl


def _add128(x, y):
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < x[1]), lo


def _doubles(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output of the states, as the doubles (x >> 11) * 2^-53."""
    xsl, rot = hi ^ lo, hi >> np.uint64(58)
    bits = (xsl >> rot) | (xsl << ((np.uint64(64) - rot) & np.uint64(63)))
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _block_uniforms(shared: list[int], indices: np.ndarray, out: np.ndarray) -> None:
    """Fill out with the leading uniforms of the substreams with entropy shared + [index]."""
    words = [np.array([w], dtype=np.uint32) for w in shared]
    words.append(indices)
    s_hi, s_lo, q_hi, q_lo = (w[:, None] for w in _generate_state(words))
    # PCG64 set-seed: inc = 2*seq + 1, then state = (inc + s)*M + inc
    inc = ((q_hi << np.uint64(1)) | (q_lo >> np.uint64(63)), (q_lo << np.uint64(1)) | np.uint64(1))
    state = _add128(_mul128(_add128(inc, (s_hi, s_lo)), _split([_PCG_MULT])), inc)
    # the first _STRIDE states at once, then _STRIDE steps at a time
    m = out.shape[1]
    first = min(m, _STRIDE)
    state = _add128(_mul128(state, _JUMP_MULT[:, :first]), _mul128(inc, _JUMP_INC[:, :first]))
    stride_inc = _mul128(inc, _JUMP_INC[:, -1:])
    for col in range(0, m, _STRIDE):
        if col:
            state = _add128(_mul128(state, _JUMP_MULT[:, -1:]), stride_inc)
        out[:, col:col + _STRIDE] = _doubles(*state)[:, :m - col]


def substream_uniforms(master_seed: int, path: tuple, n: int, m: int) -> np.ndarray:
    """The first m uniforms of substream(master_seed, *path, j) for j = 0..n-1.

    Returns an (n, m) array equal bit for bit to
    ``np.stack([substream(master_seed, *path, j).random(m) for j in range(n)])``.
    Every index is below 2^32, so it enters the entropy as one word.
    """
    if n < 0 or m < 0 or n > 1 << 32:
        raise InputError(f"need 0 <= n <= 2^32 and 0 <= m, got {n}, {m}")
    shared = [w for part in (master_seed, *path) for w in _words(_token(part))]
    out = np.empty((n, m))
    if m == 0:
        return out
    for a in range(0, n, _EPISODE_BLOCK):
        b = min(a + _EPISODE_BLOCK, n)
        _block_uniforms(shared, np.arange(a, b, dtype=np.uint32), out[a:b])
    return out
