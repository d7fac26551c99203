"""Seeded randomness: the system's single source of nondeterminism.

The paradigm is full of *specified* nondeterminism — ``send`` picks an
arbitrary group member, message latencies interleave arbitrarily — and the
simulation models all of it with draws from :class:`Stream` objects derived
from one seed.  Runs are exactly reproducible given the seed, which is what
makes the experiments and property tests meaningful.

A :class:`Stream` is numpy's ``default_rng`` in pure Python, bit for bit
(``tests/runtime/test_rng.py`` holds the two equal): PCG64 seeded by the
``SeedSequence`` algorithm, with the three draws the runtime makes.  So a
seed yields what a numpy ``Generator`` did, and no node imports numpy.

Independent subsystems get independent streams — the master seed is the
entropy and the subsystem's name, as UTF-8 bytes, the spawn key — so that,
e.g., adding an extra latency draw in the network does not perturb the
arbitration choices: experiments stay comparable across code changes.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  #: PCG's 128-bit LCG multiplier
_TWO_M53 = 1.0 / 9007199254740992.0  #: 2**-53: a double from 53 random bits


def _hasher(const: int, multiplier: int):
    """``SeedSequence``'s word hash, whose constant advances every call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    x = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return x ^ x >> 16


def _seed_sequence(entropy: int, spawn_key: bytes) -> tuple[int, int]:
    """The PCG64 ``(seed, increment)`` numpy's ``SeedSequence`` derives:
    the entropy's 32-bit words, zero-padded to four, then one word per key
    byte, hashed into a four-word pool; the pool into four 64-bit words."""
    if entropy < 0:
        raise ValueError("a seed must be non-negative")
    words = [entropy >> shift & _M32
             for shift in range(0, max(entropy.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + list(spawn_key)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [_mix(value, hashmix(word)) for value in pool]
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    return s0 << 64 | s1, i0 << 64 | i1


class Stream:
    """``numpy.random.default_rng`` in pure Python, for the runtime's draws:
    ``Stream(seed)`` is ``default_rng(seed)`` and ``Stream(seed, key)`` is
    ``default_rng(SeedSequence(seed, spawn_key=tuple(key)))``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int, spawn_key: bytes = b""):
        self._seed(entropy, spawn_key)

    def _seed(self, entropy: int, spawn_key: bytes) -> None:
        seed, sequence = _seed_sequence(entropy, spawn_key)
        self._inc = inc = (sequence << 1 | 1) & _M128
        self._state = ((inc + seed) * _PCG_MULT + inc) & _M128
        #: The unused high half of the last word a 32-bit draw split.
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        word = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (word >> rot | word << 64 - rot) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def integers(self, low: int, high: int) -> int:
        """An int on ``[low, high)`` by Lemire's method: from 32-bit words
        (halves of 64-bit ones) below 2**32, else from 64-bit words."""
        rng = high - low - 1
        if rng <= 0:
            if rng < 0:
                raise ValueError("low >= high")
            return low
        if rng == _M32:
            return low + self._next32()
        draw, bits = (self._next32, 32) if rng < _M32 else (self._next64, 64)
        excl, mask = rng + 1, (1 << bits) - 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - rng) % excl
            while m & mask < threshold:
                m = draw() * excl
        return low + (m >> bits)

    def uniform(self, low: float, high: float) -> float:
        """A float on ``[low, high)`` (flat: it is every jittered hop's)."""
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        word = (state >> 64 ^ state) & _M64
        rot = state >> 122
        word = (word >> rot | word << 64 - rot) & _M64
        return low + (high - low) * ((word >> 11) * _TWO_M53)

    def random(self, size: int | None = None):
        """A float on ``[0, 1)``; ``size`` of them as a numpy array."""
        if size is None:
            return (self._next64() >> 11) * _TWO_M53
        import numpy
        return numpy.array([self.random() for _ in range(size)])


class _Unseeded(Stream):
    """A stream seeded by its first draw, which makes it a plain
    :class:`Stream`: building a host seeds no stream it never draws from,
    and a draw pays nothing for the wait."""

    __slots__ = ()

    def __init__(self, entropy: int, spawn_key: bytes):
        self._state, self._inc = entropy, spawn_key  # the seed, until a draw

    def _seeded(self) -> Stream:
        self.__class__ = Stream
        self._seed(self._state, self._inc)
        return self

    def integers(self, low: int, high: int) -> int:
        return self._seeded().integers(low, high)

    def uniform(self, low: float, high: float) -> float:
        return self._seeded().uniform(low, high)

    def random(self, size: int | None = None):
        return self._seeded().random(size)


def default_rng(seed: int) -> Stream:
    """The stream ``numpy.random.default_rng(seed)`` yields."""
    return Stream(int(seed))


class RngHub:
    """Derives named, independent random streams from one master seed."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        if self.seed < 0:  # refused at build, not at a stream's first draw
            raise ValueError("a seed must be non-negative")
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """The stream for subsystem ``name`` (created on first use, seeded
        on its first draw).

        The same name always returns the same stream object; distinct
        names get statistically independent streams.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = _Unseeded(self.seed, name.encode("utf-8"))
            self._streams[name] = stream
        return stream

    def __repr__(self):
        return f"<RngHub seed={self.seed} streams={sorted(self._streams)}>"
