"""Trial streams: Streams(seed, lo, hi) lane j draws default_rng((*seed, lo + j)).random().

numpy's SeedSequence and PCG64 are the reference: every check compares a
lane's blocks, concatenated over several refills, with the same count of
uniforms from the generator, bit for bit.
"""

import numpy as np
import pytest

from purlink.streams import Streams


def drawn(streams, refills):
    """Each lane's uniforms over refills calls; each call serves a different subset of lanes.

    The calls draw blocks of 128, 512 and then 1024 uniforms, as the lockstep engine asks.
    """
    lanes = [[] for _ in range(len(streams))]
    for r in range(refills):
        rows = [j for j in range(len(streams)) if r == 0 or (j + r) % 3]  # lanes are dry at different passes
        n = min(128 * 4**r, 1024)
        for j, block in zip(rows, streams.refill(rows, n)):
            assert len(block) == n
            lanes[j].extend(block)
    return lanes


def check(seed, lo, hi, refills=4):
    for i, got in zip(range(lo, hi), drawn(Streams(seed, lo, hi), refills)):
        assert np.array_equal(np.array(got), np.random.default_rng((*seed, i)).random(len(got))), (seed, i)


def test_int_seed_lanes_match_default_rng():
    # an empty base seeds lane j as default_rng(lo + j), the int itself
    for i, got in zip(range(3, 43), drawn(Streams((), 3, 43), 4)):
        assert np.array_equal(np.array(got), np.random.default_rng(i).random(len(got)))


@pytest.mark.parametrize("seed", [(), (5,), (1001, 3), (1001, 3, 2)], ids=["1word", "2words", "3words", "4words"])
def test_tuple_seeds_of_one_to_four_words(seed):
    check(seed, 0, 60)
    check(seed, 7, 19)


def test_more_than_four_words():
    check((1001, 3, 2, 9), 0, 30)  # five words: the fifth mixes into the pool after it fills
    check((1, 2, 3, 4, 5, 6), 11, 20)


def test_words_past_32_and_64_bits():
    check((2**32 + 5,), 0, 20)  # one entry, two words
    check((2**64 + 3, 7), 0, 20)  # one entry, three words
    check((2**32, 2**64), 5, 9)


def test_index_range_across_2_to_the_32():
    # indices below 2^32 take one word and those above take two: the range is split there
    check((1001, 3, 2), 2**32 - 20, 2**32 + 20)
    check((4,), 2**33 - 3, 2**33 + 3)


def test_events_log_index_2_to_the_62():
    check((1001, 3, 0), 2**62, 2**62 + 1)  # the CLI's traced trial: five words
    check((1001, 3, 0), 2**62 - 2, 2**62 + 2)


def test_refills_grow_and_each_lane_continues_its_own_stream():
    check((8,), 0, 6, refills=6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_blocks_continue_each_stream(n):
    # two successive refills of n uniforms each, n = 1 taking numpy's next uniform
    streams, ref = Streams((9,), 0, 3), [np.random.default_rng((9, i)) for i in range(3)]
    for _ in range(2):
        for rng, block in zip(ref, streams.refill([0, 1, 2], n)):
            assert len(block) == n and np.array_equal(np.array(block), rng.random(n))


def test_empty_range_and_no_rows():
    assert len(Streams((1,), 5, 5)) == 0
    assert Streams((1,), 0, 3).refill([], 128) == []


@pytest.mark.parametrize("seed, lo", [((-1,), 0), ((3, -2), 0), ((3,), -1)])
def test_negative_word_raises_value_error(seed, lo):
    with pytest.raises(ValueError):
        np.random.default_rng((*seed, lo))
    with pytest.raises(ValueError):
        Streams(seed, lo, lo + 2)
