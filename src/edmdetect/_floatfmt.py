"""Vectorised float and integer formatting, byte-identical to ``repr`` and ``%d``.

``repr(float)`` writes the shortest decimal that reads back as the same
double, choosing the closest such decimal (ties to an even last digit). The
digits here come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of Java's ``Double.toString`` since JDK 19),
which finds them with no loop, so it runs elementwise in numpy. Schubfach
scales the value and both ends of its rounding interval by one 126-bit
constant g, three 64 x 126-bit products. The ends differ from the value by a
power of two, so here they come from the value's product plus or minus a
tabulated multiple of g (Dragonbox, J. Jeon, 2020, also derives its interval
from one product), and one product per value remains. The 128-bit products
are emulated with 32-bit limbs on uint64, whose arithmetic wraps mod 2**64
exactly as the algorithm expects.

Each repr is then laid out as one contiguous run of its cell, so that
boolean indexing, which copies runs, packs a block of cells quickly. A cell
is a prefix word (separator, sign and the "0." and zeros of values below 1),
right-aligned against the text core: d1..d17 with the dot shifted in after
the digit it follows. An exponent ("e-05", "e+300") is written after the
core's last digit, only in the values that need one. A per-class table
gives each piece: the class of a value is its sign, number of significant
digits and layout form.

Zeros and subnormals take their digits from ``repr``, and infinities and
NaNs their letters, one value at a time. Every table is built on first use
(``_tables``), so importing the package costs nothing.
"""

from __future__ import annotations

import functools

import numpy as np

# A float's cell: the prefix in columns 0.._PRE - 1, right-aligned; the core
# d1..d17 and one dot from column _PRE; room for "e-308" after a full core.
_PRE = 7
_CORE = 18
FLOAT_WIDTH = 32
# Width of one integer cell: 2**64 - 1 has 20 digits.
UINT_WIDTH = 20

_EXP_MASK = 0x7FF
_BIAS = 1075  # a normal double is (2**52 | fraction) * 2**(exponent - _BIAS)
_M32 = np.uint64(0xFFFFFFFF)
_M52 = np.uint64((1 << 52) - 1)
_M63 = np.uint64((1 << 63) - 1)
# Small uint64 constants: numpy 1.x turns uint64 with a Python int into float64.
_U = tuple(np.uint64(i) for i in range(65))
_P4 = np.uint64(10**4)
_P16 = np.uint64(10**16)

# Classes: sign x number of significant digits (1..17) x form. Forms
# 0..19 are positional with the decimal point at -3..16 (repr's rule
# -4 <= exponent < 16); forms 20..23 are the exponent form, split by the
# exponent's sign and by whether it needs 2 or 3 digits.
_DECPT_MIN, _DECPT_MAX = -3, 16
_N_POS = _DECPT_MAX - _DECPT_MIN + 1
_N_FORMS = _N_POS + 4
# Decimal points of all finite doubles, 0.d1d2... * 10**decpt, lie in this range.
_DECPT_LO, _DECPT_HI = -324, 310


@functools.cache
def _layout(sep: bytes) -> dict[str, np.ndarray]:
    """Tables of the cell layout for texts that start with ``sep``.

    Per class (sign x nd x form, as cls in repr_cells):
    - ``valid``: (classes, FLOAT_WIDTH), the cell's one run of text;
    - ``dot_at``: the core position of the dot (_CORE for none);
    - ``prefix``: sep, "-" and "0." and zeros, right-aligned in a uint64
      whose last byte d1 replaces;
    - ``exp_at``: the column where an exponent starts.
    Per dot position, (_CORE + 1, FLOAT_WIDTH) byte masks of the columns
    that ``keep`` their digit, take the digit before them (``shift``), or
    hold the ``dot``.
    """
    neg = np.arange(2)[:, None, None]
    nd = np.arange(1, 18)[None, :, None]
    form = np.arange(_N_FORMS)[None, None, :]
    pos = form < _N_POS
    p = form + _DECPT_MIN  # positional: value = 0.d1d2... * 10**p
    zeros = np.where(pos & (p <= 0), -p, -1)  # "0." and this many zeros; -1: none
    # Past nd, the zero digits pad integers to "ddd00.0".
    core = np.where(pos, np.where(p > 0, np.maximum(nd, p + 1) + 1, nd), nd + (nd > 1))
    exp = np.where(pos, 0, 4 + (form - _N_POS) % 2)
    start = _PRE - len(sep) - neg - np.where(zeros >= 0, 2 + zeros, 0)
    col = np.arange(FLOAT_WIDTH)
    valid = (col >= start[..., None]) & (col < (_PRE + core + exp)[..., None])
    dot = np.where(pos, np.where(p > 0, p, _CORE), np.where(nd > 1, 1, _CORE))
    texts = [sep + b"-" * n + b"0.000"[: 2 + z] * (z >= 0) for n in (0, 1) for z in range(-1, 4)]
    words = np.frombuffer(b"".join(t.rjust(_PRE) + b"\0" for t in texts), np.uint64)
    prefix = words.reshape(2, 5)[neg, zeros + 1]
    classes = (2, 17, _N_FORMS)
    j = col - _PRE  # core position
    q = np.arange(_CORE + 1)[:, None]
    return {
        "valid": valid.reshape(-1, FLOAT_WIDTH),
        "dot_at": np.broadcast_to(dot, classes).ravel(),
        "prefix": np.broadcast_to(prefix, classes).ravel(),
        "exp_at": np.broadcast_to(_PRE + core, classes).ravel(),
        "keep": np.where((j < 0) | (j < q), 255, 0).astype(np.uint8),
        "shift": np.where((j > q) & (j < _CORE), 255, 0).astype(np.uint8),
        "dot": np.where(j == q, ord("."), 0).astype(np.uint8),
    }


@functools.cache
def _tables():
    """All lookup tables, built once on first use.

    Indexed by ix = 2 * (biased exponent) + (1 if the spacing is irregular):
    - ``k``: the decimal exponent, floor(log10(2**q)), or floor(log10(3/4 *
      2**q)) when the lower neighbour is half as far away (fraction 0);
    - ``h``: the shift q + floor(log2(10**-k)) + 2 = q + r + 127 applied to 4c;
    - ``g1``, ``g0``: uint64 words of g = g1 * 2**63 + g0, where
      (g - 1) * 2**r <= 10**-k < g * 2**r and 2**125 <= g - 1 < 2**126;
    - ``dint``, ``dfrac``, ``b0``: with t = h + 1, floor(g * 2**t / 2**64) =
      dint * 2**63 + dfrac, and b0 = g0 * 2**t mod 2**64: what the interval's
      half-width 2**t adds to the product of g with 4c * 2**h (_bounds).
    The floor-log formulas are Giulietti's fixed-point ones, proven exact far
    beyond the exponent range of doubles; g comes from exact integers.

    Also ``lut4``, the 4 ASCII digits of every 0 <= i < 10**4 as one uint32
    word each; ``nd4``, 17 minus the trailing zeros of each i (17 for i = 0:
    see repr_cells); ``form``, the layout form of each decimal point from
    _DECPT_LO; and ``pow10``, the uint64 powers 10**0 .. 10**19.
    """
    q = np.arange(_EXP_MASK + 1).repeat(2) - _BIAS
    irregular = np.tile([0, 1], _EXP_MASK + 1)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    ks = np.arange(k.min(), k.max() + 1)
    r = ((-ks * 913_124_641_741) >> 38) - 125  # floor(log2(10**-k)) - 125
    p = [1]  # 10**i
    for _ in range(max(-ks[0], ks[-1])):
        p.append(p[-1] * 10)
    words = []
    for kk, rr in zip(ks.tolist(), r.tolist()):
        beta = (p[-kk] >> rr if rr >= 0 else p[-kk] << -rr) if kk <= 0 else (1 << -rr) // p[kk]
        words.append(((beta + 1) >> 63, (beta + 1) & ((1 << 63) - 1)))
    g1, g0 = np.array(words, np.uint64)[k - ks[0]].T
    h = q + r[k - ks[0]] + 127
    t = (h + 1).astype(np.uint64)
    dint = g1 >> (_U[64] - t)
    dfrac = ((g1 << (t - _U[1])) & _M63) + (g0 >> (_U[64] - t))
    dint += dfrac >> _U[63]
    dfrac &= _M63
    n4 = np.arange(10**4)
    digits4 = np.stack([n4 // 1000, n4 // 100 % 10, n4 // 10 % 10, n4 % 10], axis=1) + ord("0")
    zeros4 = (n4 % 10 == 0).astype(int) + (n4 % 100 == 0) + (n4 % 1000 == 0)
    decpt = np.arange(_DECPT_LO, _DECPT_HI + 1)
    exp = decpt - 1
    form = np.where(
        (decpt >= _DECPT_MIN) & (decpt <= _DECPT_MAX),
        decpt - _DECPT_MIN,
        _N_POS + 2 * (exp < 0) + (np.abs(exp) >= 100),
    )
    return {
        "k": k, "h": h.astype(np.uint64), "g1": g1.copy(), "g0": g0.copy(),
        "dint": dint, "dfrac": dfrac, "b0": g0 << t,
        "lut4": digits4.astype(np.uint8).view(np.uint32).ravel(),
        "nd4": np.where(n4 == 0, 17, 17 - zeros4),
        "form": form,
        "pow10": np.array([10**i for i in range(20)], np.uint64),
    }


def _mulhi(a: np.ndarray, lo: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """floor(a * c / 2**64) for a, c < 2**63, given lo = a * c mod 2**64 and c's 32-bit limbs.

    With a's limbs a1, a0, a c = a1 c1 2**64 + (a1 c0 + a0 c1) 2**32 + a0 c0,
    and the middle sum stays below 2**64; the carry out of the low word is
    read off lo. The arithmetic is in place where it can be: fresh
    temporaries cost more than the operations.
    """
    a0, a1 = a & _M32, a >> _U[32]
    mid = a1 * c0
    mid += a0 * c1
    hi = a1 * c1
    hi += mid >> _U[32]
    hi += lo < (mid << _U[32])
    return hi


def _product(g1, g0, cp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's truncated cp * g / 2**127: (integer part, 63-bit fraction, g0 cp mod 2**64).

    With g = g1 * 2**63 + g0, the value is floor(g1 cp / 2) + floor(g0 cp /
    2**64) in units of 2**-63, and r_o' (floor, rounded to odd when the
    fraction is not zero) of it is Schubfach's rop. g1, g0 and cp are all
    below 2**63.
    """
    c0, c1 = cp & _M32, cp >> _U[32]
    x0 = g0 * cp
    y0 = g1 * cp
    i = _mulhi(g1, y0, c0, c1)
    f = y0 >> _U[1]
    f += _mulhi(g0, x0, c0, c1)
    i += f >> _U[63]
    f &= _M63
    return i, f, x0


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: floor(cp * g / 2**127) rounded to odd, g = g1 * 2**63 + g0."""
    i, f, _ = _product(g1, g0, cp)
    return i | (f != 0)


def _bounds(i, f, x0, dint, dfrac, b0) -> tuple[np.ndarray, np.ndarray]:
    """rop at cp - 2**t and cp + 2**t, from (i, f, x0) = _product(g1, g0, cp).

    Exactly what _rop computes for cp -/+ 2**t: its two terms move by
    -/+ g1 2**(t-1) and by -/+ floor(g0 2**t / 2**64) plus the borrow or
    carry of the low word x0 = g0 cp mod 2**64 against b0 = g0 2**t mod
    2**64; together that is dint * 2**63 + dfrac and that carry (_tables).
    """
    fl = f - dfrac
    fl -= x0 < b0
    lo = i - dint
    lo -= fl >> _U[63]
    fl &= _M63
    lo |= fl != 0
    fr = f + dfrac
    fr += (x0 + b0) < x0
    hi = i + dint
    hi += fr >> _U[63]
    fr &= _M63
    hi |= fr != 0
    return lo, hi


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip decimals of finite normal doubles: x = ±digits * 10**exp10.

    Returns (digits: uint64, exp10: int64). ``digits`` always has 16 or 17
    decimal digits and may end in zeros. Entries for zeros, subnormals and
    non-finite values are meaningless.
    """
    tab = _tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.uint64)
    ix = (bits >> _U[51]) & np.uint64(2 * _EXP_MASK)
    frac = bits & _M52
    # Powers of two (fraction 0) but the smallest normals have the irregular
    # spacing: their lower neighbour is half as far away.
    pow2 = np.flatnonzero(frac == 0)
    pow2 = pow2[ix[pow2] > 2]
    ix[pow2] += _U[1]
    ix = ix.view(np.intp)
    g1, g0, k, h = (tab[name].take(ix) for name in ("g1", "g0", "k", "h"))
    c = frac | np.uint64(1 << 52)
    cp = c << (h + _U[2])  # Schubfach's 4c << h
    i, f, x0 = _product(g1, g0, cp)
    vb = i | (f != 0)
    # The rounding interval is [4c - 2, 4c + 2] << h, its lower end half as
    # far on the irregular lanes, which take their own product.
    vbl, vbr = _bounds(i, f, x0, *(tab[name].take(ix) for name in ("dint", "dfrac", "b0")))
    if pow2.size:
        vbl[pow2] = _rop(g1[pow2], g0[pow2], cp[pow2] - (_U[1] << h[pow2]))
    # Candidates d * 10**k lie in the rounding interval iff lo <= 4d <= hi;
    # for odd c the interval's ends do not round to x, so they are excluded.
    out = c & _U[1]
    lo, hi = vbl + out, vbr - out
    s = vb >> _U[2]
    # One digit shorter: s' = 10 floor(s / 10) or s' + 10, if exactly one is in range.
    sp10 = s // _U[10] * _U[10]
    upin = sp10 << _U[2] >= lo
    wpin = (sp10 << _U[2]) + _U[40] <= hi
    # Full length: s or s + 1, whichever is in range; if both, the one nearer
    # x (vb approximates 4 x 10**-k, so vb mod 4 > 2 means s + 1), the even
    # one on a tie: vb mod 8 in {3, 6, 7}.
    uin = s << _U[2] >= lo
    win = (s << _U[2]) + _U[4] <= hi
    nearer_t = (np.uint64(0b11001000) >> (vb & _U[7])) & _U[1]
    full = s + np.where(uin != win, win, nearer_t)
    digits = np.where(upin != wpin, sp10 + _U[10] * wpin, full)
    return digits, k


def _digit_words(v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of v's last 4n digits, zero-padded, as (N, n) uint32 words; and v mod 10**4.

    A uint64 ``//`` by a constant is fast in numpy; ``np.divmod`` is not.
    """
    lut4 = _tables()["lut4"]
    words = np.empty((v.size, n), np.uint32)
    for j in range(n - 1, -1, -1):
        q = v // _P4
        r = (v - q * _P4).view(np.intp)
        words[:, j] = lut4.take(r)
        if j == n - 1:
            last = r
        v = q
    return words, last


def repr_cells(
    x: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None, sep: bytes = b""
) -> tuple[np.ndarray, np.ndarray]:
    """``sep`` and ``repr`` of each float64 in ``x`` as the masked cells of a uint8 array.

    Returns (chars, valid), both of shape x.shape + (FLOAT_WIDTH,):
    ``chars[i][valid[i]]`` is ``sep + repr(float(x[i])).encode()``, and
    ``valid[i]`` is one run. They are written into ``out`` when given, which
    may be views into a larger matrix, such as a column of a CSV block.
    ``sep`` is at most 1 byte.
    """
    tab, lay = _tables(), _layout(sep)
    shape = np.shape(x)
    x = np.ascontiguousarray(x, np.float64).ravel()
    bits = x.view(np.uint64)
    # Zeros, subnormals, infinities and NaNs: biased exponent 0 or 0x7FF.
    special = np.flatnonzero(((bits >> _U[52]) - _U[1]) & np.uint64(_EXP_MASK) >= _EXP_MASK - 1)
    orig = x
    if special.size:
        x = x.copy()
        x[special] = 1.5  # any normal value with regular spacing; replaced below
    digits, k = shortest_digits(x)
    # Left-align to exactly 17 digits d1..d17: x = ±0.d1d2... * 10**decpt.
    short = digits < _P16
    d17 = np.where(short, digits * _U[10], digits)
    decpt = k + 17
    decpt -= short
    letters = []
    for i in special.tolist():
        r = repr(float(orig[i]))
        if r.lstrip("-") in ("inf", "nan"):
            letters.append((i, r))
            continue
        # A zero or a subnormal: the digits of repr. A zero has none, and
        # decpt 0 lays it out as "0." and d1.
        mant, _, e = r.lstrip("-").partition("e")
        whole, _, fraction = mant.partition(".")
        ds = (whole + fraction).lstrip("0")
        d17[i] = int(ds.ljust(17, "0"))
        decpt[i] = len(ds) + int(e or 0) - len(fraction) if ds else 0
    # The cells, first with d1..d17 at _PRE.._PRE + 16 after the prefix.
    words, last = _digit_words(d17, 5)
    nd = tab["nd4"].take(last)
    # nd counts d1..d17 up to the last non-zero; only values whose last four
    # digits are zeros (nd4 reads 17 for those) need more than one lookup.
    few = np.flatnonzero(last == 0)
    if few.size:
        tens = (d17[few, None] % tab["pow10"][1:17]) == 0
        nd[few] = 17 - tens.sum(axis=1)
    form = tab["form"].take(decpt - _DECPT_LO)
    cls = ((bits >> _U[63]).view(np.intp) * 17 + nd - 1) * _N_FORMS + form
    cells = np.empty((x.size, FLOAT_WIDTH), np.uint8)
    cells.view(np.uint64)[:, 0] = lay["prefix"].take(cls)
    cells[:, _PRE] = words.view(np.uint8)[:, 3]
    cells.view(np.uint32)[:, 2:6] = words[:, 1:]
    # Shift the dot in: the digits after it move one column on, as bit
    # masks over the flat bytes (numpy selects bytes by mask far slower).
    dot = lay["dot_at"].take(cls)
    flat, out_flat = cells.ravel(), np.empty(cells.size, np.uint8)
    keep, shift, dot_char = (lay[n].take(dot, axis=0).ravel() for n in ("keep", "shift", "dot"))
    out_flat[:1] = flat[:1]
    np.bitwise_and(flat[1:], keep[1:], out=out_flat[1:])
    out_flat[1:] |= flat[:-1] & shift[1:]
    out_flat[1:] |= dot_char[1:]
    cells = out_flat.reshape(cells.shape)
    ex = np.flatnonzero(form >= _N_POS)
    if ex.size:
        # "e", the sign and 2 or 3 digits of the exponent, after the core.
        e = decpt[ex] - 1
        etext = np.empty((ex.size, 5), np.uint8)
        etext[:, 0] = ord("e")
        etext[:, 1] = np.where(e < 0, ord("-"), ord("+"))
        ddd = tab["lut4"].take(np.abs(e)).view(np.uint8).reshape(-1, 4)
        etext[:, 2:] = np.where((np.abs(e) < 100)[:, None], ddd[:, [2, 3, 3]], ddd[:, 1:])
        cells[ex[:, None], lay["exp_at"].take(cls[ex])[:, None] + np.arange(5)] = etext
    cell_valid = lay["valid"].take(cls, axis=0)
    for i, r in letters:
        # "inf" and "nan" take the core's first three columns.
        text = sep + b"-" * r.startswith("-") + r.lstrip("-").encode()
        first = _PRE - len(text) + 3
        cells[i, first : _PRE + 3] = np.frombuffer(text, np.uint8)
        cell_valid[i] = (np.arange(FLOAT_WIDTH) >= first) & (np.arange(FLOAT_WIDTH) < _PRE + 3)
    if out is None:
        return cells.reshape(shape + (FLOAT_WIDTH,)), cell_valid.reshape(shape + (FLOAT_WIDTH,))
    out[0][...] = cells.reshape(shape + (FLOAT_WIDTH,))
    out[1][...] = cell_valid.reshape(shape + (FLOAT_WIDTH,))
    return out


def uint_cells(
    v: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``%d`` of each non-negative integer in ``v``: (chars, valid), (N, UINT_WIDTH).

    The digits are right-aligned; ``chars[i][valid[i]]`` is ``b"%d" % v[i]``.
    They are written into ``out`` when given, as in repr_cells; its cells
    may be narrower than UINT_WIDTH if every value fits them.
    """
    tab = _tables()
    v = np.asarray(v).astype(np.uint64).ravel()
    if out is None:
        out = (np.empty((v.size, UINT_WIDTH), np.uint8), np.empty((v.size, UINT_WIDTH), bool))
    chars, valid = out
    width = chars.shape[1]
    nd = np.searchsorted(tab["pow10"][1:], v, side="right") + 1
    valid[...] = (np.arange(width) >= width - np.arange(UINT_WIDTH + 1)[:, None]).take(nd, axis=0)
    words, _ = _digit_words(v, -(-width // 4))
    chars[...] = words.view(np.uint8)[:, 4 * words.shape[1] - width :]
    return chars, valid
