"""Vectorised float and integer formatting, byte-identical to ``repr`` and ``%d``.

``repr(float)`` writes the shortest decimal that reads back as the same
double, choosing the closest such decimal (ties to an even last digit). The
digits here come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of Java's ``Double.toString`` since JDK 19),
which finds them with three 64 x 126-bit products and no loop, so it runs
elementwise in numpy. The 128-bit products are emulated with 32-bit limbs on
uint64, whose arithmetic wraps mod 2**64 exactly as the algorithm expects.
The digits are then laid out as Python's ``repr`` does, by one mask per
layout class over a cell that holds every character a repr can use
(``_CELL``); compressing the masked cells yields the text.

Only finite normal doubles take this path; zeros, subnormals, infinities and
NaNs fall back to ``repr`` one value at a time. Every table is built on
first use (``_tables``), so importing the package costs nothing.
"""

from __future__ import annotations

import functools

import numpy as np

# A float's cell holds every character its repr can use, in repr's order:
# sign, "0." and three zeros, the 17 significant digits d (left-aligned,
# zero-padded) with a dot after each, "e", both signs, and the three digits x
# of |decimal exponent|. A per-class mask picks repr's characters out of it,
# so laying out a value is one mask lookup and no data movement.
_CELL = b"-0.000" + b"d." * 16 + b"de+-xxx"
_DIG = _CELL.index(b"d")  # d_j is at _DIG + 2 (j - 1), the dot after it at + 1
_E = _CELL.index(b"e")
_EXPDIG = _CELL.index(b"x")
FLOAT_WIDTH = len(_CELL)
# Width of one integer cell: 2**64 - 1 has 20 digits.
UINT_WIDTH = 20

_EXP_MASK = 0x7FF
_BIAS = 1075  # a normal double is (2**52 | fraction) * 2**(exponent - _BIAS)
_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_M63 = np.uint64((1 << 63) - 1)

# Classes: sign x number of significant digits (1..17) x form. Forms
# 0..19 are positional with the decimal point at -3..16 (repr's rule
# -4 <= exponent < 16); forms 20..23 are the exponent form, split by the
# exponent's sign and by whether it needs 2 or 3 digits.
_DECPT_MIN, _DECPT_MAX = -3, 16
_N_POS = _DECPT_MAX - _DECPT_MIN + 1
_N_FORMS = _N_POS + 4


def _class_mask(neg: bool, nd: int, form: int) -> np.ndarray:
    """The cell columns that make up repr of a value in one class."""
    mask = np.zeros(FLOAT_WIDTH, bool)
    mask[0] = neg

    def digits(n, dot_after=None):  # d1..dn, and the dot after d_dot_after
        mask[_DIG : _DIG + 2 * n : 2] = True
        if dot_after is not None:
            mask[_DIG + 2 * dot_after - 1] = True

    if form < _N_POS:
        p = form + _DECPT_MIN  # value = 0.d1d2... * 10**p
        if p <= 0:  # "0." and -p zeros, then the digits
            mask[1 : 3 - p] = True
            digits(nd)
        else:  # digits with the dot after d_p; past nd the zero digits pad to "ddd00.0"
            digits(max(nd, p + 1), p)
    else:
        negexp, three = divmod(form - _N_POS, 2)
        digits(nd, 1 if nd > 1 else None)
        mask[[_E, _E + 1 + negexp]] = True
        mask[_EXPDIG + 1 - three : _EXPDIG + 3] = True
    return mask


@functools.cache
def _tables():
    """All lookup tables, built once on first use.

    Indexed by ix = 2 * (biased exponent) + (1 if the spacing is irregular):
    - ``k``: the decimal exponent, floor(log10(2**q)), or floor(log10(3/4 *
      2**q)) when the lower neighbour is half as far away (fraction 0);
    - ``h``: the shift q + floor(log2(10**-k)) + 2 = q + r + 127 applied to 4c;
    - ``g1``, ``g0``: uint64 words of g = g1 * 2**63 + g0, where
      (g - 1) * 2**r <= 10**-k < g * 2**r and 2**125 <= g - 1 < 2**126.
    The floor-log formulas are Giulietti's fixed-point ones, proven exact far
    beyond the exponent range of doubles; g comes from exact integers.

    Also ``lut4``, the 4 ASCII digits of every 0 <= i < 10**4 as one uint32
    word each; ``pow10``, the uint64 powers 10**0 .. 10**19; and ``masks``,
    the (classes, FLOAT_WIDTH) cell columns of each class's repr.
    """
    q = np.arange(_EXP_MASK + 1).repeat(2) - _BIAS
    irregular = np.tile([0, 1], _EXP_MASK + 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    ks = np.arange(k.min(), k.max() + 1)
    r = ((-ks * 913_124_641_741) >> 38) - 125  # floor(log2(10**-k)) - 125
    words = []
    for kk, rr in zip(ks.tolist(), r.tolist()):
        beta = (10**-kk >> rr if rr >= 0 else 10**-kk << -rr) if kk <= 0 else (1 << -rr) // 10**kk
        words.append(((beta + 1) >> 63, (beta + 1) & ((1 << 63) - 1)))
    g1, g0 = np.array(words, np.uint64)[k - ks[0]].T
    h = q + r[k - ks[0]] + 127
    lut4 = ((np.arange(10**4)[:, None] // [1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    pow10 = np.array([10**i for i in range(20)], np.uint64)
    masks = np.array([
        _class_mask(bool(neg), nd, form)
        for neg in (0, 1) for nd in range(1, 18) for form in range(_N_FORMS)
    ])
    return {
        "k": k, "h": h.astype(np.uint64), "g1": g1.copy(), "g0": g0.copy(),
        "lut4": lut4.view(np.uint32).ravel(), "pow10": pow10, "masks": masks,
    }


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(cp * g / 2**127) rounded to odd (Schubfach's r_o'), g = g1 * 2**63 + g0.

    The high words of the 128-bit products g1 * cp and g0 * cp are built
    from 32-bit limbs; g1, g0 and cp are all below 2**63. The arithmetic is
    in place where it can be: fresh temporaries cost more than the
    operations.
    """
    c0, c1 = cp & _M32, cp >> _S32

    def mulhi(a):
        a0, a1 = a & _M32, a >> _S32
        t = a1 * c0
        t += (a0 * c0) >> _S32
        u = a0 * c1
        u += t & _M32
        hi = a1 * c1
        hi += t >> _S32
        hi += u >> _S32
        return hi

    z = (g1 * cp) >> np.uint64(1)
    z += mulhi(g0)
    r = mulhi(g1)
    r += z >> np.uint64(63)
    z &= _M63
    z += _M63
    z >>= np.uint64(63)
    r |= z
    return r


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip decimals of finite normal doubles: x = ±digits * 10**exp10.

    Returns (digits: uint64, exp10: int64). ``digits`` always has 16 or 17
    decimal digits and may end in zeros. Entries for zeros, subnormals and
    non-finite values are meaningless.
    """
    tab = _tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.uint64)
    bq = (bits >> 52) & np.uint64(_EXP_MASK)
    frac = bits & np.uint64((1 << 52) - 1)
    c = frac | np.uint64(1 << 52)
    irregular = (frac == 0) & (bq > 1)
    ix = (2 * bq + irregular).astype(np.intp)
    g1, g0 = tab["g1"][ix], tab["g0"][ix]
    k = tab["k"][ix]
    h = tab["h"][ix]
    cb = c << np.uint64(2)
    # The rounding interval's lower end is half as far when irregular.
    cbl = cb - np.uint64(2) + irregular
    cbr = cb + np.uint64(2)
    # One _rop each, not on their (3, N) stack: glibc maps every buffer over 128 KiB afresh.
    vb, vbl, vbr = (_rop(g1, g0, cx << h) for cx in (cb, cbl, cbr))
    # Candidates d * 10**k lie in the rounding interval iff lo <= 4d <= hi;
    # for odd c the interval's ends do not round to x, so they are excluded.
    out = c & np.uint64(1)
    lo, hi = vbl + out, vbr - out
    s = vb >> np.uint64(2)
    # One digit shorter: s' = 10 floor(s / 10) or s' + 10, if exactly one is in range.
    sp10 = s // np.uint64(10) * np.uint64(10)
    upin = sp10 << np.uint64(2) >= lo
    wpin = (sp10 << np.uint64(2)) + np.uint64(40) <= hi
    # Full length: s or s + 1, whichever is in range; if both, the one nearer
    # x (vb approximates 4 x 10**-k, so vb mod 4 > 2 means s + 1), the even
    # one on a tie.
    uin = s << np.uint64(2) >= lo
    win = (s << np.uint64(2)) + np.uint64(4) <= hi
    frac4 = vb & np.uint64(3)
    nearer_t = (frac4 > 2) | ((frac4 == 2) & ((s & np.uint64(1)) == 1))
    full = s + np.where(uin != win, win, nearer_t)
    digits = np.where(upin != wpin, sp10 + np.uint64(10) * wpin, full)
    return digits, k


def _digit_chars(v: np.ndarray, lut4: np.ndarray, pow10: np.ndarray) -> np.ndarray:
    """(N, 20) ASCII digits of uint64 values, right-aligned and zero-padded."""
    words = np.empty((v.size, 5), np.uint32)  # not a stack of intp chunks: under 128 KiB, as above
    for i, p in enumerate((16, 12, 8, 4)):
        chunk, v = np.divmod(v, pow10[p])
        words[:, i] = lut4[chunk]
    words[:, 4] = lut4[v]
    return words.view(np.uint8)


def repr_cells(
    x: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``repr`` of each float64 in ``x`` as the masked cells of a uint8 array.

    Returns (chars, valid), both of shape x.shape + (FLOAT_WIDTH,):
    ``chars[i][valid[i]]`` is ``repr(float(x[i])).encode()``. They are
    written into ``out`` when given, which may be views into a larger
    matrix, such as a column of a CSV block.
    """
    tab = _tables()
    shape = np.shape(x)
    x = np.ascontiguousarray(x, np.float64).ravel()
    if out is None:
        out = (np.empty(shape + (FLOAT_WIDTH,), np.uint8), np.empty(shape + (FLOAT_WIDTH,), bool))
    chars, valid = out
    bq = (x.view(np.uint64) >> 52) & np.uint64(_EXP_MASK)
    special = np.flatnonzero((bq == 0) | (bq == _EXP_MASK))
    y = x
    if special.size:
        y = x.copy()
        y[special] = 1.0  # any normal value; overwritten below
    digits, k = shortest_digits(y)
    # Left-align to exactly 17 digits; nd counts them up to the last non-zero.
    ndraw = 16 + (digits >= tab["pow10"][16])
    d17 = digits * np.where(ndraw == 16, np.uint64(10), np.uint64(1))
    dchars = _digit_chars(d17, tab["lut4"], tab["pow10"])[:, 3:]
    nd = 17 - np.argmax(dchars[:, ::-1] != ord("0"), axis=1)
    decpt = k + ndraw  # x = ±0.d1d2... * 10**decpt
    exp = decpt - 1
    form = np.where(
        (decpt >= _DECPT_MIN) & (decpt <= _DECPT_MAX),
        decpt - _DECPT_MIN,
        _N_POS + 2 * (exp < 0) + (np.abs(exp) >= 100),
    )
    chars[...] = np.frombuffer(_CELL, np.uint8)
    chars[..., _DIG : _E : 2] = dchars.reshape(shape + (17,))
    chars[..., _EXPDIG:] = tab["lut4"][np.abs(exp)].view(np.uint8).reshape(shape + (4,))[..., 1:]
    # Every class index is in range; "clip" only spares take a buffer for out.
    cls = ((y < 0) * 17 + nd - 1) * _N_FORMS + form
    np.take(tab["masks"], cls.reshape(shape), axis=0, out=valid, mode="clip")
    for i in special.tolist():
        at = np.unravel_index(i, shape)
        r = repr(float(x[i])).encode()
        chars[at][: len(r)] = np.frombuffer(r, np.uint8)
        valid[at] = np.arange(FLOAT_WIDTH) < len(r)
    return chars, valid


def uint_cells(
    v: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``%d`` of each non-negative integer in ``v``: (chars, valid), (N, UINT_WIDTH).

    The digits are right-aligned; ``chars[i][valid[i]]`` is ``b"%d" % v[i]``.
    They are written into ``out`` when given, as in repr_cells.
    """
    tab = _tables()
    v = np.asarray(v).astype(np.uint64).ravel()
    if out is None:
        out = (np.empty((v.size, UINT_WIDTH), np.uint8), np.empty((v.size, UINT_WIDTH), bool))
    chars, valid = out
    nd = np.searchsorted(tab["pow10"][1:], v, side="right") + 1
    np.greater_equal(np.arange(UINT_WIDTH), UINT_WIDTH - nd[:, None], out=valid)
    chars[...] = _digit_chars(v, tab["lut4"], tab["pow10"])
    return chars, valid
