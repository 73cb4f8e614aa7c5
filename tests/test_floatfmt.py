"""The vectorised formatter against its oracles: ``repr`` and ``%d``."""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edmdetect import _floatfmt
from edmdetect._floatfmt import repr_cells, uint_cells

# Edge cases of the layout and of the digit search: signed zeros,
# subnormals, the smallest normal, non-finite values, both sides of the
# positional/exponent switch (1e-4 | 1e-5 and 1e16), exact powers of two
# (asymmetric rounding interval), and 17-digit values.
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    float("inf"), float("-inf"), float("nan"),
    1e-05, 9.999999999999999e-06, 0.0001, 9.999999999999999e-05, 0.00010000000000000002,
    9999999999999998.0, 1e16, 1.0000000000000002e16, 1e15, 123456789012345.67,
    1.0, 2.0, 0.5, 2.0**-1022, 2.0**52, 2.0**53, 2.0**63, 2.0**1023,
    0.1, 0.30000000000000004, 1 / 3, 2 / 3, 5e-324 * 3, 1.7976931348623157e308,
    1e22, 1e23, 1e100, 1e-100, 1e-300, 1e300, 123.0, 120.0, 9.5, 1e21,
]


def formatted(values):
    """One line per value, from the formatter's cells."""
    x = np.asarray(values, dtype=np.float64)
    chars, valid = repr_cells(x)
    newline = np.full((x.size, 1), ord("\n"), np.uint8)
    return np.hstack([chars, newline])[np.hstack([valid, np.ones_like(newline, bool)])].tobytes()


def expected(values):
    return "".join(repr(float(v)) + "\n" for v in values).encode()


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def test_edge_values_match_repr():
    values = EDGES + [-v for v in EDGES]
    assert formatted(values) == expected(values)


def test_powers_of_two_and_ten_and_their_neighbours_match_repr():
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    base = np.concatenate([p2, p10])
    values = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, 0.0)])
    values = np.concatenate([values, -values])
    assert formatted(values) == expected(values.tolist())


def test_seeded_random_bit_patterns_match_repr():
    # 200k doubles from uniform 64-bit patterns: every exponent, both signs,
    # and a few NaNs and infinities along the way.
    bits = np.random.default_rng(20240510).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert formatted(values) == expected(values.tolist())


def test_short_decimals_match_repr():
    # Values typed with few digits take the one-digit-shorter branch.
    rng = np.random.default_rng(7)
    mant = rng.integers(1, 10**6, 20_000)
    exps = rng.integers(-30, 30, 20_000)
    values = [float(f"{m}e{e}") for m, e in zip(mant.tolist(), exps.tolist())]
    assert formatted(values) == expected(values)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FF0000000000000,
          0xFFF0000000000000, 0x7FF8000000000001, 0x3FF0000000000000, 0x4340000000000000])
def test_any_bit_pattern_matches_repr(patterns):
    values = [from_bits(b) for b in patterns]
    assert formatted(values) == expected(values)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_any_float_matches_repr(values):
    assert formatted(values) == expected(values)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@example([0, 9, 10, 9999, 10000, 10**19 - 1, 10**19, 2**64 - 1])
def test_uint_cells_match_percent_d(values):
    chars, valid = uint_cells(np.array(values, dtype=np.uint64))
    newline = np.full((len(values), 1), ord("\n"), np.uint8)
    got = np.hstack([chars, newline])[np.hstack([valid, np.ones_like(newline, bool)])].tobytes()
    assert got == "".join("%d\n" % v for v in values).encode()


def test_tables_match_their_exact_integer_definitions():
    tab = _floatfmt._tables()
    for bq in range(1, 2047):
        q = bq - 1075
        for irregular in (0, 1):
            ix = 2 * bq + irregular
            k, h = int(tab["k"][ix]), int(tab["h"][ix])
            # 10**k <= 2**q (3/4 2**q when irregular) < 10**(k + 1), as fractions.
            num, den = (3 << max(q - 2, 0), 1 << max(2 - q, 0)) if irregular else (
                1 << max(q, 0), 1 << max(-q, 0))
            assert num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0)
            assert num * 10 ** max(-k - 1, 0) < den * 10 ** max(k + 1, 0)
            # g = floor(10**-k / 2**r) + 1 with 2**125 <= g - 1 < 2**126.
            g = (int(tab["g1"][ix]) << 63) | int(tab["g0"][ix])
            r = h - q - 127
            assert 1 << 125 <= g - 1 < 1 << 126
            if k <= 0:
                lo, mid, hi = (g - 1) << max(r, 0), 10**-k << max(-r, 0), g << max(r, 0)
            else:
                lo, mid, hi = (g - 1) * 10**k, 1 << -r, g * 10**k
            assert lo <= mid < hi
            # The shifted 4c stays below 2**63, as the limb products need.
            assert (1 << 55) << h <= 1 << 63
