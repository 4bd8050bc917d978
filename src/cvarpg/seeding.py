"""Deterministic RNG substreams.

Every stochastic component draws from a child generator derived from the
master seed plus a structured path (e.g. ``("pg", round, iteration,
trajectory)``), so results are reproducible bit-for-bit regardless of
execution order.

``substream_uniforms`` serves batches of episodes, one substream per
episode index: it returns the leading uniforms of many consecutive
substreams at once, equal bit for bit to those ``substream`` draws. A
``range`` of run indices as the last path part draws the batches of many
runs in one call, as a (runs, episodes, uniforms) block: a PG run draws
its iterations' batches ahead this way. It redoes numpy's seeding of each
child (the SeedSequence hash pool, then PCG64's set-seed). The entropy
words every episode shares, the seed's and the path's, are hashed once
per call as Python ints; only from the run index or the episode index on
does the hash run on integer arrays, broadcast over runs x episodes.
Every run and episode index is below ``MAX_EPISODES`` = 2^32, so each
enters the entropy as one 32-bit word.
PCG64 is a 128-bit LCG (O'Neill 2014), so the state after t steps is
A_t*S + G_t*inc mod 2^128 with constants A_t = M^t and G_t = 1 + M + ...
+ M^(t-1) (Brown 1994). A block of up to 2048 rows, one row per episode
of each run, gets its first ``stride`` states by these jumps at once and
every later state by one jump of ``stride`` steps, then the XSL-RR
output. The stride is all m uniforms, in one pass, when a block's rows x m
is at most 8192 words, as for a 2-iteration chunk of 100-episode training
batches at m = 40, and 8 otherwise, as for a 4-iteration chunk or a full
block, whose (rows, 8) integer temporaries stay within 2048 x 8 words. One
pass measured faster than stride 8 up to about 9 000 words and slower from
about 10 000 on, at m = 40 and at m = 20. There is no per-episode Python
work.
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


# episode indices 0 .. MAX_EPISODES - 1, and run indices below it, are one entropy word each
MAX_EPISODES = 1 << 32

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
# numpy's SeedSequence: a pool of 4 words and its hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# episodes per block, and uniforms per jump of a block that does not take
# them in one pass: (block, stride) temporaries of at most 2048 x 8 words
_EPISODE_BLOCK = 2048
_STRIDE = 8
# the most words (rows x m) of a block that takes its uniforms in one pass
_ONE_PASS = 8192


def _words(token: int) -> list[int]:
    """SeedSequence's words for one entropy int: [0] for 0, else its little-endian 32-bit words."""
    words = [token & _M32]
    while token > _M32:
        token >>= 32
        words.append(token & _M32)
    return words


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix with its running hash constant, over an int or a uint32 array."""
    def hashmix(value):
        nonlocal const
        old, const = const, const * mult & _M32
        if isinstance(value, int):
            value = (value ^ old) * const & _M32
            return value ^ (value >> 16)
        value = (value ^ np.uint32(old)) * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two words, each a Python int or a uint32 array."""
    if isinstance(x, int) and isinstance(y, int):
        out = (_MIX_L * x - _MIX_R * y) & _M32
        return out ^ (out >> 16)
    # a product of Python ints is reduced before it meets an array
    x = np.uint32(_MIX_L * x & _M32) if isinstance(x, int) else np.uint32(_MIX_L) * x
    y = np.uint32(_MIX_R * y & _M32) if isinstance(y, int) else np.uint32(_MIX_R) * y
    out = x - y
    return out ^ (out >> np.uint32(16))


def _generate_state(words: list) -> list:
    """SeedSequence(words).generate_state(4, uint64), one uint64 array per word.

    ``words`` holds the words every episode shares, as Python ints, and
    then the episodes' own words, uint32 arrays that broadcast together
    (a run index over episode indices). The shared words are hashed as
    ints; a pool word becomes an array once an array word has mixed into
    it, and every one has by the end.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
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


@lru_cache(maxsize=64)
def _jumps(t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(A_t, G_t) for t = 1..t_max, split: t LCG steps map S to A_t*S + G_t*inc."""
    a, g, mults, incs = 1, 0, [], []
    for _ in range(t_max):
        a, g = a * _PCG_MULT & _M128, (g * _PCG_MULT + 1) & _M128
        mults.append(a)
        incs.append(g)
    return _split(mults), _split(incs)


def _mulhi64(a, b):
    """High 64 bits of the 128-bit products a*b of uint64 arrays."""
    a0, a1 = a & np.uint64(_M32), a >> np.uint64(32)
    b0, b1 = b & np.uint64(_M32), b >> np.uint64(32)
    # 32-bit partial products, carried so that no sum passes 2^64 (Warren, Hacker's Delight)
    t = a1 * b0 + (a0 * b0 >> np.uint64(32))
    w = (t & np.uint64(_M32)) + a0 * b1
    return a1 * b1 + (t >> np.uint64(32)) + (w >> np.uint64(32))


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


def _block_uniforms(seed_state: list, out: np.ndarray) -> None:
    """Fill out with the leading uniforms of the substreams whose seed states are given."""
    s_hi, s_lo, q_hi, q_lo = (w[:, None] for w in seed_state)
    # PCG64 set-seed: inc = 2*seq + 1, then state = (inc + s)*M + inc
    inc = ((q_hi << np.uint64(1)) | (q_lo >> np.uint64(63)), (q_lo << np.uint64(1)) | np.uint64(1))
    state = _add128(_mul128(_add128(inc, (s_hi, s_lo)), _split([_PCG_MULT])), inc)
    # the first stride states at once, then stride steps at a time; a block
    # of at most _ONE_PASS words takes its m columns in one pass
    rows, m = out.shape
    stride = m if rows * m <= _ONE_PASS else _STRIDE
    mults, incs = _jumps(stride)
    state = _add128(_mul128(state, mults), _mul128(inc, incs))
    stride_inc = _mul128(inc, incs[:, -1:])
    for col in range(0, m, stride):
        if col:
            state = _add128(_mul128(state, mults[:, -1:]), stride_inc)
        out[:, col:col + stride] = _doubles(*state)[:, :m - col]


def substream_uniforms(master_seed: int, path: tuple, n: int, m: int) -> np.ndarray:
    """The first m uniforms of substream(master_seed, *path, j) for j = 0..n-1.

    Returns an (n, m) array equal bit for bit to
    ``np.stack([substream(master_seed, *path, j).random(m) for j in range(n)])``.
    A last path part ``range(a, b)`` of run indices returns the (b - a, n, m)
    stack of the calls with path ``(*path[:-1], r)`` for r = a..b-1.
    """
    if n < 0 or m < 0 or n > MAX_EPISODES:
        raise InputError(f"need 0 <= n <= 2^32 and 0 <= m, got {n}, {m}")
    shape, index = (n, m), [np.arange(n, dtype=np.uint32)]
    if path and isinstance(path[-1], range):
        runs, path = path[-1], path[:-1]
        if runs.step != 1 or not 0 <= runs.start < runs.stop <= MAX_EPISODES:
            raise InputError(f"need a run range(a, b) of step 1, 0 <= a < b <= 2^32, got {runs}")
        shape = (len(runs), n, m)
        index = [np.arange(runs.start, runs.stop, dtype=np.uint32)[:, None], index[0]]
    shared = [w for part in (master_seed, *path) for w in _words(_token(part))]
    out = np.empty((int(np.prod(shape[:-1])), m))
    if out.size:
        seed_state = [w.reshape(-1) for w in _generate_state(shared + index)]
        for a in range(0, len(out), _EPISODE_BLOCK):
            b = min(a + _EPISODE_BLOCK, len(out))
            _block_uniforms([w[a:b] for w in seed_state], out[a:b])
    return out.reshape(shape)
