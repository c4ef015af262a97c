"""Pinned 64-bit FNV-1a.

Bucket assignment and stored content hashes both ride on this, so the
constants are spelled out rather than taken from a library: the mapping
must be identical on every platform and in every future run.
"""

_OFFSET_BASIS = 0xCBF29CE484222325
_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF

# fnv1a_64_many: one state per 14-byte lane of an int, since
# (h ^ byte) * _PRIME < 2**105 never carries into the next lane.
_LANE_BYTES = 14
_SCALAR_LANES = 8  # below this many live lanes the plain loop is faster
_CHUNK_BYTES = 1 << 18  # size of the transposed block built at a time


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _OFFSET_BASIS
    for byte in data:
        h = ((h ^ byte) * _PRIME) & _MASK
    return h


def fnv1a_64_many(bodies) -> list[int]:
    """``[fnv1a_64(body) for body in bodies]``, hashed in lockstep.

    Bodies sorted by length take lanes from the lowest up. One xor,
    multiply and mask per byte position step every live lane, with a row
    holding that byte of each live body, cut from a transposed block.
    A lane retires off the bottom when its body ends; the last few live
    lanes finish on the plain loop. Lanes are read through memoryviews, not
    copied, and a block is let go before the next is built, so beyond the
    bodies the hash holds about one block, ``_CHUNK_BYTES``, at a time.
    """
    order = sorted(range(len(bodies)), key=lambda i: len(bodies[i]))
    lengths = [len(bodies[i]) for i in order]
    hashes = [0] * len(bodies)
    count = len(order)
    state = int.from_bytes(_OFFSET_BASIS.to_bytes(_LANE_BYTES, "little") * count, "little")
    mask = int.from_bytes(_MASK.to_bytes(_LANE_BYTES, "little") * count, "little")
    low = pos = block_end = 0
    while True:
        while low < count and lengths[low] == pos:
            hashes[order[low]] = state & _MASK
            state >>= 8 * _LANE_BYTES
            low += 1
        if count - low < _SCALAR_LANES:
            break
        if pos == block_end:  # row r: byte pos + r of each body from lane block_low up
            block = rows = None  # the last block goes before the next is built
            block_low, block_start, stride = low, pos, _LANE_BYTES * (count - low)
            block_end = min(lengths[-1], pos + max(1, _CHUNK_BYTES // stride))
            block = bytearray(stride * (block_end - pos))
            for lane, i in enumerate(order[low:]):
                take = min(lengths[low + lane], block_end) - pos
                first = _LANE_BYTES * lane
                lane_bytes = memoryview(bodies[i])[pos : pos + take]
                block[first : first + stride * take : stride] = lane_bytes
            rows = memoryview(block)
        row_end = (pos - block_start + 1) * stride
        row_start = row_end - stride + _LANE_BYTES * (low - block_low)
        state = ((state ^ int.from_bytes(rows[row_start:row_end], "little")) * _PRIME) & mask
        pos += 1
    block = rows = None
    for lane, i in enumerate(order[low:]):
        h = (state >> (8 * _LANE_BYTES * lane)) & _MASK
        for byte in memoryview(bodies[i])[pos:]:
            h = ((h ^ byte) * _PRIME) & _MASK
        hashes[i] = h
    return hashes
