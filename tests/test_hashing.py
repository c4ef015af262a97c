import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from crawlrank import fnv1a_64, fnv1a_64_many
from crawlrank.hashing import _CHUNK_BYTES, _LANE_BYTES, _SCALAR_LANES
from helpers import HASH_BLOCKS_BOUND, traced_hash_blocks

_ALL_BYTES = bytes(range(256))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=80), max_size=3 * _SCALAR_LANES))
@example([])
@example([b""])
@example([b""] * (_SCALAR_LANES + 1))
@example([_ALL_BYTES] * (_SCALAR_LANES - 1))
@example([_ALL_BYTES[i:] + _ALL_BYTES[:i] for i in range(0, 256, 16)])
@example([b"x" * n for n in range(2 * _SCALAR_LANES)])
def test_many_equals_the_reference(bodies):
    assert fnv1a_64_many(bodies) == [fnv1a_64(body) for body in bodies]


def test_many_equals_the_reference_across_chunks():
    rng = random.Random(6)
    # Enough bodies to stay vectorized past several chunks of rows, with
    # ragged ends, then one body longer than a whole chunk on its own.
    lanes = 2 * _SCALAR_LANES
    rows_per_chunk = _CHUNK_BYTES // (_LANE_BYTES * lanes)
    bodies = [rng.randbytes(3 * rows_per_chunk + rng.randrange(500)) for _ in range(lanes)]
    bodies += [b"", _ALL_BYTES, rng.randbytes(_CHUNK_BYTES + 3)]
    rng.shuffle(bodies)
    assert fnv1a_64_many(bodies) == [fnv1a_64(body) for body in bodies]


def test_many_holds_one_block_at_a_time():
    # bodies spanning more than two blocks: each block is let go before
    # the next is built, so the peak beyond the bodies is about one block
    assert traced_hash_blocks() < HASH_BLOCKS_BOUND
