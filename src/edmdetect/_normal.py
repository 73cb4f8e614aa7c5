"""Standard normal draws equal bit for bit to ``numpy.random.default_rng(seed).normal``.

``Normals(seed).draw(n)`` returns, as a list of floats, the n values that
``np.random.default_rng(seed).normal(size=n)`` returns, and successive calls
continue one stream as successive ``normal`` calls on one Generator do. It
needs only the standard library, so a process that draws a constellation
does not load ``numpy.random``. Its three parts are numpy's:

- ``SeedSequence``: the seed's 32-bit words mixed into a 4-word pool, then
  ``generate_state(4, uint64)``;
- ``PCG64``: a 128-bit LCG with the XSL-RR output, seeded from those words;
- ``random_standard_normal``: the 256-layer ziggurat with its wedge and
  tail branches.

The ziggurat's tables are copied, not recomputed, so that every entry is
numpy's to the last bit. ``_ziggurat.bin`` holds the local symbols
``ki_double`` (uint64), ``wi_double`` and ``fi_double`` (float64) of
``src_distributions_distributions.c.o`` in numpy 2.4.6's
``numpy/random/lib/libnpyrandom.a`` (``ar x``, then ``readelf -sW`` for their
offsets in ``.rodata``): 256 little-endian entries each, in that order.

The algorithms, constants and tables come from numpy.random, Copyright (c)
2019 Kevin Sheppard, dual-licensed under NCSA and BSD-3-Clause, and part of
NumPy, Copyright (c) 2005-2025 NumPy Developers, BSD-3-Clause.
``tests/test_normal.py`` compares the draws with the installed numpy's.
"""

from __future__ import annotations

import operator
import os
import struct
from math import exp, log1p

with open(os.path.join(os.path.dirname(__file__), "_ziggurat.bin"), "rb") as _f:
    _KI = struct.unpack("<256Q", _f.read(2048))
    _WI = struct.unpack("<256d", _f.read(2048))
    _FI = struct.unpack("<256d", _f.read(2048))

_ZIGGURAT_R = 3.6541528853610088
_ZIGGURAT_INV_R = 0.27366123732975828
_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64's (state, increment)."""
    # SeedSequence() takes secrets.randbits(128), which reads os.urandom; the
    # secrets module itself would load hashlib and OpenSSL into every process.
    entropy = int.from_bytes(os.urandom(16), "little") if seed is None else operator.index(seed)
    if entropy < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    words = [entropy & _M32]  # little-endian 32-bit words, at least one
    while entropy >> 32 * len(words):
        words.append(entropy >> 32 * len(words) & _M32)

    h = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    h = 0x8B51F9DD
    state = []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        value = value * h & _M32
        state.append(value ^ value >> 16)
    s = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    return s[0] << 64 | s[1], s[2] << 64 | s[3]


def _pcg64(state: int, inc: int):
    """PCG64's 64-bit outputs: a 128-bit LCG step, then the XSL-RR output of the new state."""
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        yield (x >> rot | x << (64 - rot)) & _M64


class Normals:
    """One stream of ``default_rng(seed).normal()`` draws.

    ``seed`` is a non-negative integer (ValueError if negative, TypeError if
    not an integer) or None for 128 bits from ``os.urandom``, as numpy's
    ``SeedSequence`` takes it.
    """

    def __init__(self, seed: int | None):
        initstate, initseq = _seed_words(seed)
        inc = (initseq << 1 | 1) & _M128
        # pcg_setseq_128_srandom_r: step from 0 (giving inc), add initstate, step.
        self._bits = _pcg64((inc + initstate) * _PCG_MULT + inc & _M128, inc).__next__

    def _next_double(self) -> float:
        return (self._bits() >> 11) * (1.0 / 9007199254740992.0)

    def draw(self, n: int) -> list[float]:
        bits = self._bits
        out: list[float] = []
        while len(out) < n:
            r = bits()
            idx = r & 0xFF
            r >>= 8
            rabs = r >> 1 & 0x000FFFFFFFFFFFFF
            x = rabs * _WI[idx]
            if r & 1:
                x = -x
            if rabs >= _KI[idx]:
                if idx == 0:  # the tail beyond R, drawn by Marsaglia's method
                    while True:
                        xx = -_ZIGGURAT_INV_R * log1p(-self._next_double())
                        yy = -log1p(-self._next_double())
                        if yy + yy > xx * xx:
                            break
                    x = -(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx
                elif (_FI[idx - 1] - _FI[idx]) * self._next_double() + _FI[idx] >= exp(
                        -0.5 * x * x):
                    continue  # outside the wedge: draw again
            # normal(loc=0, scale=1) returns 0.0 + 1.0 * x, which turns -0.0 into 0.0.
            out.append(0.0 + x)
        return out
