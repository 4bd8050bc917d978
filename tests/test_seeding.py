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
    # an episode index of 2^32 would take two entropy words: refused before allocating
    for n, m in ((-1, 2), (2, -1), (2**32 + 1, 2)):
        with pytest.raises(InputError):
            substream_uniforms(0, ("x",), n, m)
