import numpy as np
import pytest

from cvarpg import seeding
from cvarpg.errors import InputError
from cvarpg.seeding import substream, substream_uniforms


def _one_at_a_time(seed, path, n, m):
    return np.array([substream(seed, *path, j).random(m) for j in range(n)]).reshape(n, m)


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**40 + 3, -1])
@pytest.mark.parametrize("path", [
    ("eval",), ("pg", 3, np.int64(7)), (np.uint32(9), "a", "b", 2**33),
])
@pytest.mark.parametrize("tail,n,m", [
    (0, 1, 2),
    (0, 5, 40),
    (2**32 - 3, 6, 7),   # a last path part below 2^32 is one entropy word,
    (2**32 + 11, 3, 2),  # one above it two, just before the episode index
])
def test_uniforms_equal_the_substreams(seed, path, tail, n, m):
    path = (*path, tail)
    got = substream_uniforms(seed, path, n, m)
    assert got.shape == (n, m)
    assert np.array_equal(got, _one_at_a_time(seed, path, n, m))


def test_uniforms_across_blocks_and_strides():
    # more episodes than one block, and a count of uniforms no stride divides
    n, m = seeding._EPISODE_BLOCK + 3, 2 * seeding._STRIDE + 3
    got = substream_uniforms(21, ("mc",), n, m)
    assert np.array_equal(got, _one_at_a_time(21, ("mc",), n, m))


def test_uniforms_of_empty_batches_and_bad_ranges():
    assert substream_uniforms(0, ("x",), 0, 4).shape == (0, 4)
    assert substream_uniforms(0, ("x",), 3, 0).shape == (3, 0)
    assert substream_uniforms(0, ("x", range(2)), 0, 4).shape == (2, 0, 4)
    # an episode index of 2^32 would take two entropy words: refused before allocating
    for n, m in ((-1, 2), (2, -1), (2**32 + 1, 2)):
        with pytest.raises(InputError):
            substream_uniforms(0, ("x",), n, m)
    # so would a run index of 2^32; a run range is non-empty, from 0 up, with step 1
    for runs in (range(4, 4), range(-1, 2), range(2**32 - 1, 2**32 + 1), range(0, 6, 2)):
        with pytest.raises(InputError):
            substream_uniforms(0, ("x", runs), 2, 3)


def _shared_words(seed, path) -> int:
    return sum(len(seeding._words(seeding._token(part))) for part in (seed, *path))


@pytest.mark.parametrize("seed,path,shared", [
    (5, (), 1),              # the episode index at pool position 1
    (2**32 + 7, (), 2),      # a seed of two words: position 2
    (5, ("a",), 3),          # a string is two words: position 3
    (-1, ("a",), 4),         # and from here on the index follows the pool
    (5, ("a", 7, 9), 5),
    (2**40, ("a", 7, 9), 6),
])
def test_uniforms_with_the_index_at_every_entropy_position(monkeypatch, seed, path, shared):
    assert _shared_words(seed, path) == shared
    strides = []
    jumps = seeding._jumps

    def recording(t_max):
        strides.append(t_max)
        return jumps(t_max)

    monkeypatch.setattr(seeding, "_jumps", recording)
    m = 40
    one_pass = seeding._CELLS // m  # the most episodes whose m uniforms take one pass
    for n, in_one_pass in ((3, True), (one_pass, True), (one_pass + 1, False)):
        strides.clear()
        got = substream_uniforms(seed, path, n, m)
        assert (strides == [m]) is in_one_pass
        assert np.array_equal(got, _one_at_a_time(seed, path, n, m))
    # a range of run indices, one more word before the episode index, is the
    # stack of the calls per index; 3 runs of 1000 episodes cross a block
    for runs in (range(0, 3), range(5, 6), range(2**32 - 2, 2**32)):
        for n in (3, 1000):
            got = substream_uniforms(seed, (*path, runs), n, m)
            want = np.stack([substream_uniforms(seed, (*path, r), n, m) for r in runs])
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
