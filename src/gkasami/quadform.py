"""Quadratic forms tr(b*x^(2^k+1)) + tr_half(c*x^(2^{n/2}+1)) on GF(2^n).

A form is read through its polar rows: the n x n polar form over the
trace-dual basis d, with the values f(d_j) on the diagonal, from the n
products b d_j^(2^k) + delta c d_j^(2^{n/2}) and one bit transpose, an
integer matmul of the powers 2^i with the products' bits (_polar_rows,
_polar_from_products); no 2^n-entry table is read.  One
form takes its products straight from the images of x -> b x and
x -> (delta c) x.  The rows are GF(2)-linear in b and in c, so a batch
builds two LinearMaps (_polar_maps: the c part and the b part) whose
images are the rows of the basis forms, both from one stacked pass over
the two twisted bases; their byte tables hold at most 256 rows, so each
call builds the pair afresh, once for all its blocks, and no map outlives
it.  In dual-basis coordinates y, tr(lam x) is the parity of lam & y, so
lam's bits join the diagonal.

W and rank by elimination (form_values).  A form's transform value is
fixed by its rank and Arf invariant: take out one hyperbolic pair (i, j)
with B(d_i, d_j) = 1 at a time, which doubles W and adds a product of two
linear terms to the rest; once no cross term is left, W is 0 if a free
variable keeps a linear term and (-1)^sign 2^(n - pairs) otherwise, and
the symplectic rank is twice the pairs.  form_values batches this over R
forms in blocks of _FORM_BLOCK with one numpy kernel (_eliminate), whose
rows and diagonals are the words of one array in the narrowest unsigned
type that holds n bits, and each of whose n/2 steps takes bits i and j of
every word by one shift of the stacked pair (i, j) and XORs both updates
in, 20 numpy calls in buffers allocated once per block; one form takes its
pairs out in Python ints, with no numpy call (_eliminate_one).  Both reach
n = 32, where W = +-2^(n-j) still fits int64.

Whole spectra (walsh_spectra, for a batch of forms; walsh_spectrum, its
one-form call) double the sums over the dual-basis bits of y one bit at a
time: for y < 2^j, g(y + 2^j) = g(y) + g(e_j) + s_j.y, with s_j the low j
bits of polar row j, so
W_{j+1}[mu + 2^j mu_j] = W_j[mu] + (-1)^(g(e_j) + mu_j) W_j[mu ^ s_j]:
n steps of int32 additions inside the int32 result, exact because
|W_j| <= 2^j, with no rank and no closed form; past 1024 values a form,
in aligned blocks of rows that stay in L2 with the block they read.  The
values reach 2^n, so a caller casts them to int64 before squaring.  fwht
is the Hadamard transform of an integer array along its last axis, exact
float32 matrix products by small Sylvester factors, and transform_column
(one lambda and one c, every b) runs it on tables indexed by x, reindexed
through walsh_perm.  transform_column and the L-image ranks (the
GF(2)-rank of the n images of the radical's linearized map, _rank_images:
symplectic_ranks for a batch, symplectic_rank for one form) share nothing
with the elimination but the field, and walsh_spectrum shares only the
polar rows: they are the independent side that verify and the tests check
it against.

Substituting x -> u*x gives W_{b,c}(lam) = W_{b u^(2^k+1), c N(u)}(lam u)
with N(u) = u^(2^{n/2}+1), which moves any form with c != 0 to one with
c = 1, and x -> x^2 gives W_{b^2,c^2}(lam^2) = W_{b,c}(lam).  form_classes
names one form per class of both, with the class sizes, so rank, W(0) and
spectrum-multiset questions over all forms reduce to those leaders (17 of
the 68 orbit representatives at n = 12, 4119 of 65,540 at n = 32).

Every term of a form, of a family member and of a codeword is a trace
row tr(a x^e) over x in E; trace_rows is the one builder of such rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2n import (TABLE_MAX_N, FieldCtx, LinearMap, TooLarge, _echelon, _field_elements,
                   cyclotomic_classes, half_odd)
from .histogram import ValueHistogram

# most memory transform_column may allocate, counted as _TRANSFORM_BYTES
# per transformed value: fwht's two float32 buffers and its int64 result
_BLOCK_BYTES_CAP = 2 << 30
_TRANSFORM_BYTES = 16
# fwht's Kronecker factors are H_{2^s} for s up to this
_FWHT_CHUNK_BITS = 5
# float32 holds every integer below 2^24 exactly
_FWHT_MAX_L1 = 1 << 24
# _low_steps doubles up to this many values a form for a whole batch, and
# _step permutes W_j's values in rows of this many columns (a read-only arange)
_COLUMNS = np.arange(1 << 10)
_COLUMNS.setflags(write=False)
# _step doubles W_j in aligned blocks of this many rows of _COLUMNS values:
# 32 rows of int32 are 128 KB, so a block and its partner stay in L2
_BLOCK_ROWS = 32
# the form-independent part of _low_steps' flat index, one entry per index
# column of its up to 10 steps (2^10 = _COLUMNS.size values): the column's
# step j, its offset 1 - 2^j and the mask 2^j - 1 of s_j's bits
_LOW_STEP = np.repeat(np.arange(10), 1 << np.arange(10))
_LOW_BASE = np.arange(_LOW_STEP.size) + 1 - (1 << _LOW_STEP)
_LOW_MASK = (1 << _LOW_STEP) - 1
# forms symplectic_ranks reduces at once: a block's n images stay in L2
_RANK_BLOCK = 1 << 12
# forms form_values eliminates at once; bounds its block x n int64 work arrays
_FORM_BLOCK = 1 << 12


class InvalidK(ValueError):
    """Raised when k is incompatible with n (need gcd(n/2 - k, n) = 1)."""


class ZeroForm(ValueError):
    """Raised when an operation needs a nonzero quadratic form but b = c = 0."""


def valid_k(n: int, k: int) -> bool:
    """True iff the exponent parameter k is admissible for degree n.

    Equivalent conditions: gcd(n/2 - k, n) = 1, or gcd(k, n) = 2 for n/2 odd
    and gcd(k, n) = 1 for n/2 even.  k = n/2 is never admissible.
    """
    if not 1 <= k <= n - 1:
        return False
    return math.gcd(n // 2 - k, n) == 1


def require_valid_k(n: int, k: int) -> None:
    if not valid_k(n, k):
        want = 2 if half_odd(n) else 1
        raise InvalidK(
            f"k = {k} invalid for n = {n}: need gcd(k, n) = {want} "
            f"(equivalently gcd(n/2 - k, n) = 1)"
        )


def exponents(ctx: FieldCtx, k: int) -> tuple[int, int]:
    """The form's two exponents: 2^k + 1 and the norm exponent 2^{n/2} + 1."""
    return (1 << k) + 1, (1 << ctx.half) + 1


@dataclass(frozen=True)
class FormClasses:
    """The leader (bs[i], cs[i]) of each class of forms (form_classes) and the
    sizes[i] forms of its class, as ints; on_c0[r] and on_c1[r] are the rows
    of the leaders of the classes of (alpha^r, 0), r < g1, and (alpha^r, 1),
    r < g2."""

    bs: np.ndarray
    cs: np.ndarray
    sizes: list[int]
    on_c0: np.ndarray
    on_c1: np.ndarray


def form_classes(ctx: FieldCtx, k: int) -> FormClasses:
    """The classes of all 2^{3n/2} forms (b, c) under x -> u*x and x -> x^2.

    x -> u*x maps (b, c) to (b u^(2^k+1), c N(u)) and x -> x^2 maps it to
    (b^2, c^2), so rank, W(0) and spectrum multiset are class invariants.
    The orbits of x -> u*x are (0, 0) alone; (0, 1), holding (0, c) for
    every c in F*; (alpha^r, 0) for r < g1 = gcd(2^k+1, 2^n-1), the b in E*
    with log b = r mod g1; and (alpha^r, 1) for
    r < g2 = gcd((2^{n/2}-1)(2^k+1), 2^n-1), which meets c = 1 in the b with
    log b = r mod g2 and holds (2^{n/2}-1) times as many forms.  Squaring
    fixes the first two and sends r to 2r mod g1, and mod g2 (c = 1 is
    fixed), so a class's leader is its least r (gf2n.cyclotomic_classes),
    the leaders come in that order, and a class holds its orbits' forms.
    """
    require_valid_k(ctx.n, k)
    group, units = ctx.group_order, (1 << ctx.half) - 1
    e1, _ = exponents(ctx, k)
    g1, g2 = math.gcd(e1, group), math.gcd(units * e1, group)
    (lead0, on_c0), (lead1, on_c1) = cyclotomic_classes(g1, 2), cyclotomic_classes(g2, 2)
    sizes = ([1, units] + [s * (group // g1) for s in np.bincount(on_c0).tolist()]
             + [s * (group // g2 * units) for s in np.bincount(on_c1).tolist()])
    if sum(sizes) != 1 << 3 * ctx.half:
        raise AssertionError(f"the classes hold {sum(sizes)} forms, not 2^(3n/2)")
    powers = ctx.powers(ctx.alpha, g2)  # g1 divides g2
    bs, cs = np.zeros(len(sizes), dtype=np.int64), np.zeros(len(sizes), dtype=np.int64)
    bs[2:] = powers.take(np.concatenate([lead0, lead1]))
    cs[1], cs[2 + lead0.size :] = 1, 1
    return FormClasses(bs, cs, sizes, on_c0 + 2, on_c1 + 2 + lead0.size)


@dataclass(frozen=True)
class QuadFormParams:
    """Parameters of one quadratic form: ctx, exponent k, b in E, c in F."""

    ctx: FieldCtx
    k: int
    b: int
    c: int

    def __post_init__(self):
        require_valid_k(self.ctx.n, self.k)
        if not self.ctx.in_subfield(self.c):
            raise ValueError(f"c = {self.c} is not in the subfield")
        if not 0 <= self.b < self.ctx.order:
            raise ValueError(f"b = {self.b} out of range")


def trace_rows(ctx: FieldCtx, coeffs, e: int) -> np.ndarray:
    """uint8 rows tr(a x^e) over x in E, one per a in coeffs; 0 at x = 0.

    x^e is computed once, and row a is the parity of walsh_perm[a] & x^e.
    The trace of c x^e from F onto GF(2), for c in F and x^e in F, is the
    row of a = delta c, delta = ctx.trh_lift.  Rows are indexed by x in
    integer order.  Raises ValueError unless every a is a field element,
    0 <= a < 2^n.
    """
    coeffs = _field_elements(ctx, coeffs)
    xe = ctx.pow_vec(np.arange(ctx.order, dtype=np.int64), e)
    rows = np.empty((coeffs.size, ctx.order), dtype=np.uint8)
    for row, mask in zip(rows, ctx.walsh_perm[coeffs].tolist()):
        np.bitwise_count(xe & mask, out=row)
    rows &= 1
    return rows


def _hadamard(s: int) -> np.ndarray:
    """The Sylvester matrix H_{2^s} as read-only float32."""
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(s):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


_HADAMARD = tuple(_hadamard(s) for s in range(_FWHT_CHUNK_BITS + 1))


def _hadamard_stages(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """H_{2^m} along the last axis of x, whose length is 2^m.

    x and y are same-sized float32 buffers; the products run back and forth
    between them, and the one holding the result is returned.  H_{2^m} is
    the Kronecker product of factors H_{2^s} (s <= 5), one per chunk of the
    m index bits, in near-equal chunks from high to low: a chunk with
    `lower` entries below it (its lower index bits) is one batched matmul
    over the middle axis of a (rows, 2^s, lower) view, or
    (rows * 2^(m-s), 2^s) @ H when lower is 1.
    """
    chunks = -(-m // _FWHT_CHUNK_BITS)
    low = m
    for i in range(chunks):
        s = m // chunks + (i < m % chunks)
        low -= s
        lower = 1 << low
        if lower > 1:
            shape = (-1, 1 << s, lower)
            np.matmul(_HADAMARD[s], x.reshape(shape), out=y.reshape(shape))
        else:
            np.matmul(x.reshape(-1, 1 << s), _HADAMARD[s], out=y.reshape(-1, 1 << s))
        x, y = y, x
    return x


def fwht(a) -> np.ndarray:
    """Hadamard transform of an integer array along its last axis, as int64.

    The stages (_hadamard_stages) run in float32 and are exact: every
    partial sum is a signed sum of distinct entries of its input row, so
    its magnitude is at most the row's L1 norm, which must be below 2^24
    (ValueError otherwise; TypeError for non-integer input).
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise TypeError(f"fwht needs an integer array, got {a.dtype}")
    m = a.shape[-1].bit_length() - 1
    if a.shape[-1] != 1 << m:
        raise ValueError(f"fwht needs a power-of-2 last axis, got {a.shape[-1]}")
    x = np.array(a, dtype=np.float32)
    # exact while the row sums stay below 2^24.  The largest magnitude
    # times the row length bounds them (Python ints, so int8 -128 cannot
    # wrap); past that bound the sums are taken in float32, where entries
    # or sums that reach 2^24 cannot round below it
    if a.size and max(-int(a.min()), int(a.max())) << m >= _FWHT_MAX_L1:
        y = np.abs(x)
        if y.sum(axis=-1).max() >= _FWHT_MAX_L1:
            raise ValueError("fwht input rows must have an L1 norm below 2^24")
    else:
        y = np.empty_like(x)
    x = _hadamard_stages(x, y, m)
    del y  # the spare buffer goes back before the int64 result is allocated
    return x.astype(np.int64)


def _polar_from_products(w: np.ndarray) -> np.ndarray:
    """Polar rows from the products w[..., j] = w(d_j) (see _polar_rows), an
    int64 array whose last axis has length n: row j is w_j ^ mt_j with its
    bit j set to that of w_j, where bit i of mt_j is bit j of w_i.  The bit
    transpose mt is one integer matmul of the powers 2^i with the words'
    bits, for any leading shape."""
    n = w.shape[-1]
    unit = 1 << np.arange(n)
    mt = unit @ ((w[..., :, None] >> np.arange(n)) & 1)  # the bits [..., i, j] are bit j of w_i
    return (w ^ mt) | (w & unit)


def _twisted_basis(ctx: FieldCtx, t: int) -> np.ndarray:
    """The dual basis twisted by x -> x^(2^t): the n elements d_j^(2^t)."""
    return ctx.frobenius_map(t).vec(ctx.dual_basis)


def _polar_maps(ctx: FieldCtx, k: int) -> tuple[LinearMap, LinearMap]:
    """The LinearMaps sending c and b to the c part and the b part of the
    polar rows of the form (b, c) (_polar_rows).  The rows are GF(2)-linear
    in b and in c, so their images are the rows of the basis forms
    (0, alpha^l) and (alpha^l, 0): one alpha-ladder product of both twisted
    bases, delta d_j^(2^{n/2}) and d_j^(2^k), and one bit transpose for all
    2n forms.  A call that reads the rows of many blocks builds the pair
    once and passes it to each."""
    twisted = np.concatenate([ctx.times_map(ctx.trh_lift).vec(_twisted_basis(ctx, ctx.half)),
                              _twisted_basis(ctx, k)]).reshape(2, ctx.n)
    # ladder products come back as [part, j, l]; a map's images are [l, j]
    c_rows, b_rows = _polar_from_products(ctx.alpha_ladder.vec(twisted).swapaxes(-1, -2))
    return LinearMap(c_rows), LinearMap(b_rows)


def _polar_rows(ctx: FieldCtx, k: int, bs, cs, maps=None) -> np.ndarray:
    """The polar rows of the forms (bs[r], cs[r]), as an (R, n) int64 array;
    bs and cs are R field and subfield elements, not checked here.

    Row j of a form's polar rows over the dual basis d of ctx is an n-bit
    int: bit i is B(d_j, d_i) for i != j and bit j is f(d_j), where
    B(x, z) = f(x) + f(z) + f(x + z) is the polar form of the quadratic f.
    With delta = ctx.trh_lift, f(x) = tr(x w(x)) for the GF(2)-linear
    w(x) = b x^(2^k) + delta c x^(2^{n/2}), so all of it comes from the
    n by n matrix m[i, j] = tr(d_i w(d_j)): f(d_j) = m[j, j] and
    B(d_i, d_j) = m[i, j] + m[j, i].  As tr(d_i alpha^l) = 1 exactly when
    l = i, tr(d_i y) is bit i of y, so m[i, j] is bit i of w(d_j) and no
    2^n-entry table is read (_polar_from_products).

    One form's products come straight from the images of x -> b x and
    x -> (delta c) x applied to the twisted bases.  A batch's rows come
    through maps (_polar_maps), built once by a caller that reads many
    blocks, or else for this call.
    """
    bs, cs = np.asarray(bs), np.asarray(cs)
    if maps is None:
        if bs.size == 1:
            b, c = int(bs.item()), int(cs.item())
            w = ctx.times_map(ctx.mul(ctx.trh_lift, c)).vec(_twisted_basis(ctx, ctx.half))
            if b:
                w ^= ctx.times_map(b).vec(_twisted_basis(ctx, k))
            return _polar_from_products(w)[None]
        maps = _polar_maps(ctx, k)
    c_map, b_map = maps
    return c_map.vec(cs) ^ b_map.vec(bs)


def _eliminate(rows: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """W(lam) and the symplectic rank of R forms, by hyperbolic-pair elimination.

    rows is the forms' (R, n) polar rows (_polar_rows), lams an int64 array
    of field elements broadcast against (R, 1).  tr(lam x) is the parity of
    lam & y in dual-basis coordinates, so lam's bits join the diagonal.
    Each step takes one pair out of every form that still has a cross term
    (_eliminate_one gives the algebra): row i, its first nonzero row
    (argmax, as _row_ranks picks pivots), and row j, j the lowest set bit
    of row i.  Every row l gains rj where its bit i is set and ri where its
    bit j is, which clears both columns, and a diagonal takes the same
    update plus ri & rj, so each form's rows and then its diagonals are the
    words of one row of a (R, n + L) array in the narrowest unsigned type
    that holds n bits.

    A step is 20 numpy calls in buffers allocated once per block: a take
    each for ri and rj (j is read off ri), one right shift of the words by
    the stacked (i, j) into a (2, R, n + L) buffer for bits i and j of
    every word, one product of its halves with the stacked (rj, ri), and
    both XORed into the words.  A form with no cross term left has ri = 0
    and every row 0, so any j in range leaves its words, and its sign flips
    only if q is nonzero, when W is 0 anyway.  Step s keeps rj in
    pivots[s] and ri in pivots[s + 1], where step s + 1 puts its rj, and
    q_i q_j in signs[s]: the rank is twice the nonzero rj, and the sign
    the XOR of signs, and W is 0 where q is nonzero and (-1)^sign
    2^(n - pairs) elsewhere.
    """
    forms, n = rows.shape
    word, unit = np.min_scalar_type((1 << n) - 1), 1 << np.arange(n, dtype=np.int64)
    q = np.bitwise_xor.reduce(rows & unit, axis=1)[:, None] ^ lams
    words = np.empty((forms, n + q.shape[1]), dtype=word)
    polar, diags = words[:, :n], words[:, n:]
    np.bitwise_and(rows, ~unit, out=polar, casting="unsafe")
    diags[...] = q
    bits = np.empty((2,) + words.shape, dtype=word)
    pivots = np.empty((n // 2 + 1, forms), dtype=word)
    signs = np.empty((n // 2,) + diags.shape, dtype=word)
    at, low = np.empty((2, forms), dtype=word), np.empty(forms, dtype=word)  # at: (i, j)
    nonzero = np.empty(polar.shape, dtype=bool)
    i, index = np.empty(forms, dtype=np.intp), np.empty(forms, dtype=np.intp)
    starts, flat = np.arange(0, words.size, words.shape[1]), words.reshape(-1)
    for s in range(n // 2):
        rj, ri = pivots[s], pivots[s + 1]
        np.not_equal(polar, 0, out=nonzero)
        nonzero.argmax(axis=1, out=i)
        np.add(starts, i, out=index)
        flat.take(index, out=ri)
        at[0] = i
        # the lowest set bit of ri; ri = 0 gives the word's width, so cap it
        np.negative(ri, out=low)
        low &= ri
        low -= 1
        np.bitwise_count(low, out=at[1])
        np.minimum(at[1], n - 1, out=at[1])
        np.add(starts, at[1], out=index)
        flat.take(index, out=rj)
        np.right_shift(words, at[:, :, None], out=bits)
        bits &= 1
        np.bitwise_and(bits[0, :, n:], bits[1, :, n:], out=signs[s])
        bits *= pivots[s : s + 2, :, None]
        words ^= bits[0]
        words ^= bits[1]
        np.bitwise_and(ri, rj, out=low)
        diags ^= low[:, None]
    pairs = np.add.reduce(pivots[: n // 2] != 0, axis=0, dtype=np.int64)
    sign = np.bitwise_xor.reduce(signs, axis=0, dtype=np.int64)
    return np.where(diags != 0, 0, (1 - 2 * sign) << (n - pairs[:, None])), 2 * pairs


def _eliminate_one(rows: list[int], lam: int) -> tuple[int, int]:
    """W(lam) and the symplectic rank of one form, its polar rows as ints,
    by _eliminate's steps in Python ints, with no numpy call.

    Row i is the first nonzero row and j its lowest set bit, so B_ij = 1.
    With L1 and L2 the rest of rows i and j (ri, rj) and q_i, q_j the
    diagonal bits, the form is y_i y_j + Q' + y_i (L1 + q_i)
    + y_j (L2 + q_j) = y_i' y_j' + Q' + (L1 + q_i)(L2 + q_j), with
    y_i' = y_i + L2 + q_j and y_j' = y_j + L1 + q_i.  Summing over y_i' and
    y_j' doubles W and leaves Q' + L1 L2 + q_j L1 + q_i L2 + q_i q_j: the
    diagonal gains ri & rj, q_i rj and q_j ri, and the constant q_i q_j
    joins sign.  ri holds bit j and not bit i, and rj bit i and not bit j,
    so the same update clears q_i and q_j, and every row gains rj where its
    bit i is set and ri where its bit j is, which clears both columns.
    Once no cross term is left, W is 0 if a free variable keeps a linear
    term (a set bit of q), else (-1)^sign 2^(pairs + free)
    = (-1)^sign 2^(n - pairs).
    """
    n = len(rows)
    q = lam ^ sum(r & 1 << j for j, r in enumerate(rows))
    rows = [r & ~(1 << j) for j, r in enumerate(rows)]
    sign = pairs = 0
    for i in range(n):
        ri = rows[i]
        if ri:
            j = (ri & -ri).bit_length() - 1
            rj = rows[j]
            rows = [r ^ (rj if r >> i & 1 else 0) ^ (ri if r >> j & 1 else 0) for r in rows]
            qi, qj = q >> i & 1, q >> j & 1
            sign ^= qi & qj
            q ^= (ri & rj) ^ qi * rj ^ qj * ri
            pairs += 1
    return 0 if q else (1 - 2 * sign) << (n - pairs), 2 * pairs


def form_values(ctx: FieldCtx, k: int, bs: np.ndarray, cs: np.ndarray,
                lams=0) -> tuple[np.ndarray, np.ndarray]:
    """W_{b,c}(lam) and the symplectic rank of the forms (bs[r], cs[r]) at
    lams[r], as int64 arrays of bs's length.

    bs and cs are R field and subfield elements, and lams one field element
    or R of them; none is checked here (the spectral engine passes the
    leaders of form_classes, and for small Kasami the one form (0, 1)).  One
    form's polar rows come from its products and are eliminated in Python
    ints (_eliminate_one).  A batch goes through _polar_rows and _eliminate
    _FORM_BLOCK forms at a time, so no array larger than a few blocks of
    n-bit rows is built and no 2^n-entry table is read: it builds its pair
    of polar maps once, for every block, and each block's elimination works
    in buffers of narrow words allocated once (at n = 32, the 4119 leaders
    of form_classes peak at about 4.3 MB under tracemalloc).
    """
    bs, cs, lams = np.asarray(bs), np.asarray(cs), np.asarray(lams)
    if bs.size == 1:
        w, rank = _eliminate_one(_polar_rows(ctx, k, bs, cs)[0].tolist(), int(lams.item()))
        return np.array([w]), np.array([rank])
    w, rank = np.empty(bs.size, dtype=np.int64), np.empty(bs.size, dtype=np.int64)
    maps = _polar_maps(ctx, k)
    for lo in range(0, bs.size, _FORM_BLOCK):
        block = slice(lo, lo + _FORM_BLOCK)
        rows = _polar_rows(ctx, k, bs[block], cs[block], maps)
        at, rank[block] = _eliminate(rows, lams[block, None] if lams.ndim else lams)
        w[block] = at[:, 0]
    return w, rank


def _low_steps(w: np.ndarray, tmp: np.ndarray, rows: np.ndarray, steps: int) -> None:
    """The first `steps` doublings (see walsh_spectra) of every row of w at
    once, in place: W_steps into w[:, :2^steps], 2^steps <= _COLUMNS.size.

    Step j takes T[mu] = W_j[mu ^ s_j] of every row with one np.take into
    tmp, by an index built once for all the steps from the first
    2^steps - 1 columns of _LOW_STEP, _LOW_BASE and _LOW_MASK, negates T in
    the rows where g(e_j) is 1, and writes W_j - T above W_j + T.
    """
    forms, cols = len(w), (1 << steps) - 1
    at = _LOW_BASE[:cols] ^ (rows[:, _LOW_STEP[:cols]] & _LOW_MASK[:cols])
    at += np.arange(0, w.size, w.shape[1])[:, None]  # flat offsets of the rows
    swap = (rows[:, :steps] >> np.arange(steps) & 1).astype(bool)
    for j in range(steps):
        size = 1 << j
        t = tmp[: forms * size].reshape(forms, size)
        # the index is in range; "wrap" spares take a buffered copy of out
        np.take(w, at[:, size - 1 : 2 * size - 1], out=t, mode="wrap")
        np.negative(t, out=t, where=swap[:, j, None])
        np.subtract(w[:, :size], t, out=w[:, size : 2 * size])
        np.add(w[:, :size], t, out=w[:, :size])


def _step(w: np.ndarray, tmp: np.ndarray, j: int, r: int) -> None:
    """W_{j+1} into w[:2^(j+1)] from W_j in w[:2^j], in place, for one form
    whose W_j holds at least c = _COLUMNS.size values; tmp must hold
    min(2 * _BLOCK_ROWS * c, 2^j) values.

    r is row j of its polar rows (see walsh_spectra), s = r mod 2^j, and
    T = W_j[mu ^ s].  In the (2^j / c, c) view of W_j the low bits of s
    permute the columns and the high bits h = s // c the rows: row rho of T
    is row rho ^ h of W_j.  The rows go in aligned blocks of
    b = min(_BLOCK_ROWS, 2^j / c), so block B of T is block B ^ (h // b) of
    W_j, its partner, with its rows flipped by h mod b.  A block and its
    partner are each gathered by one np.take of the columns into tmp before
    either is overwritten, and the flips reverse axes of the (2, ..., 2, c)
    view of the gathered block, which copies nothing and keeps every inner
    loop a contiguous row.  The block's two halves of W_{j+1} are then
    W_j + T and W_j - T, swapped where bit j of r, g(e_j), is 1.
    """
    size, c = 1 << j, _COLUMNS.size
    s = r & size - 1
    low, high = w[:size].reshape(-1, c), w[size : 2 * size].reshape(-1, c)
    rows = min(_BLOCK_ROWS, len(low))
    axes, h = rows.bit_length() - 1, s // c
    shape = (2,) * axes + (c,)
    flips = tuple(slice(None, None, -1 if h >> i & 1 else 1) for i in reversed(range(axes)))
    mate = h >> axes << axes  # the first row of a block's partner, XORed in
    cols = _COLUMNS ^ (s & c - 1)
    bufs = tmp[: (1 if mate == 0 else 2) * rows * c].reshape(-1, rows, c)
    plus, minus = (np.subtract, np.add) if r >> j & 1 else (np.add, np.subtract)
    for lo in range(0, len(low), rows):
        if lo ^ mate < lo:
            continue  # done with its partner
        blocks = (lo,) if mate == 0 else (lo, lo ^ mate)
        for at, t in zip(blocks, bufs):
            # the index is in range; "wrap" spares take a buffered copy of out
            np.take(low[at ^ mate : (at ^ mate) + rows], cols, axis=1, out=t, mode="wrap")
        for at, t in zip(blocks, bufs):
            x, t = low[at : at + rows].reshape(shape), t.reshape(shape)[flips]
            minus(x, t, out=high[at : at + rows].reshape(shape))
            plus(x, t, out=x)


def walsh_spectra(ctx: FieldCtx, k: int, bs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """Whole spectra of the forms (bs[r], cs[r]), as an (R, 2^n) int32 array
    whose row r is indexed by lambda.

    bs and cs are int64 arrays of R field and subfield elements, not checked
    here, as in form_values.  Each row equals, value by value, the direct
    sum of the tests' oracle walsh_point (tests/reference.py).
    With x = sum_i y_i d_i over the dual basis, tr(lam x) is the parity of
    lam & y, so a spectrum is the Hadamard transform of g(y) = f(x),
    already indexed by lam.  It is built one bit of y at a time from the
    sums over the first j bits, W_j[mu] = sum_{y < 2^j} (-1)^(g(y) + mu.y),
    starting at W_0 = [1].  For y < 2^j the polar form gives
    g(y + 2^j) = g(y) + g(e_j) + B(y, e_j), and B(y, e_j) = s_j.y with
    s_j = r_j mod 2^j, r_j the polar rows (_polar_rows).  Splitting the sum
    for W_{j+1} by bit j of y,
    W_{j+1}[mu + 2^j mu_j] = W_j[mu] + (-1)^(g(e_j) + mu_j) W_j[mu ^ s_j],
    and W_n is the spectrum: the same sum regrouped, with no rank and no
    closed form.  |W_j| <= 2^j, so every step is exact in int32; the values
    reach 2^n, so cast them to int64 before squaring.

    The steps up to _COLUMNS.size values a form run on the whole batch
    (_low_steps), the later ones one form at a time (_step), in blocks of
    _BLOCK_ROWS rows of _COLUMNS.size values.  All of them work inside the
    result, and T = W_j[mu ^ s_j] goes to one int32 scratch buffer of
    min(two blocks, 2^(n-1)) values for one form.  With the batched steps'
    index of fewer than _COLUMNS.size entries a form, one form's spectrum
    allocates its 4 bytes per value and that scratch: 6 bytes per value
    from n = 11 to 16, and 4 bytes per value plus 256 KB from n = 17 on.
    Raises TooLarge past TABLE_MAX_N, before any allocation.
    """
    if ctx.n > TABLE_MAX_N:
        raise TooLarge(f"whole spectra of 2^n int32 values are built only for "
                       f"n <= {TABLE_MAX_N} (TABLE_MAX_N), not n = {ctx.n}")
    rows = _polar_rows(ctx, k, bs, cs)
    batched = min(ctx.n, _COLUMNS.size.bit_length() - 1)
    out = np.empty((len(rows), ctx.order), dtype=np.int32)
    tmp = np.empty(max(len(rows) << batched >> 1,
                       min(2 * _BLOCK_ROWS * _COLUMNS.size, ctx.order // 2)), dtype=np.int32)
    out[:, 0] = 1
    _low_steps(out, tmp, rows, batched)
    for w, r in zip(out, rows.tolist()):
        for j in range(batched, ctx.n):
            _step(w, tmp, j, r[j])
    return out


def walsh_spectrum(params: QuadFormParams) -> np.ndarray:
    """One form's whole spectrum as an int32 array indexed by lambda:
    walsh_spectra of the one form (params.b, params.c)."""
    return walsh_spectra(params.ctx, params.k, np.array([params.b]), np.array([params.c]))[0]


def _rank_images(ctx: FieldCtx, k: int, bs, cs) -> np.ndarray:
    """The n rank images of the forms (bs, cs), broadcast together, along a
    new last axis of length n.

    The radical { z : f(x)+f(z)+f(x+z) = 0 for all x } is the kernel of
    L(z) = b^(2^{n-k}) z^(2^{n-k}) + b z^(2^k) + c z^(2^{n/2}).  With
    F_i(x) = x^(2^i), L(alpha^j) = F_{n-k}(b alpha^j)
    + F_k(F_{n-k}(b) alpha^j) + F_{n/2}(c alpha^j).  F_k is a bijective
    GF(2)-linear map, so the n images F_k(L(alpha^j)) = b alpha^j
    + F_{2k}(F_{n-k}(b) alpha^j) + F_{k+n/2}(c alpha^j) have the same rank,
    from the alpha-ladder and three Frobenius maps.  A few forms map
    straight from the images of the basis (LinearMap.vec), so one form
    builds no table.
    """
    ladder, frob = ctx.alpha_ladder, ctx.frobenius_map
    return (ladder.vec(bs) ^ frob(2 * k).vec(ladder.vec(frob(ctx.n - k).vec(bs)))
            ^ frob(k + ctx.half).vec(ladder.vec(cs)))


def symplectic_ranks(ctx: FieldCtx, k: int, bs, c) -> np.ndarray:
    """Symplectic ranks of the forms (b, c) for b in bs, as an int array.

    c is one subfield element or an array of them broadcast against bs.  The
    rank is the GF(2)-rank of the form's n images (_rank_images), reduced
    one leading bit at a time (_row_ranks), _RANK_BLOCK forms at once,
    image-major in the narrowest unsigned dtype that holds n bits.  The
    images are GF(2)-linear in b and in c, so one LinearMap of the 2n-bit
    word b + 2^n c, whose images are those of the basis forms (alpha^l, 0)
    and (0, alpha^l), reads each block's images into one buffer.  At
    n = 32 the word fills all 64 bits of an int64, which the map reads as
    a bit pattern.  The blocks are read from bs and c as broadcast, so a
    call allocates its result and a few blocks' work arrays.  The zero
    form has rank 0.
    """
    require_valid_k(ctx.n, k)
    bs = _field_elements(ctx, bs)
    c = _subfield_elements(ctx, c)
    basis = ctx.alpha_ladder.images[:, 0]
    pair_map = LinearMap(np.concatenate([_rank_images(ctx, k, basis, 0),
                                         _rank_images(ctx, k, 0, basis)]))
    narrow = np.min_scalar_type(ctx.group_order)
    rank = np.empty(np.broadcast_shapes(bs.shape, c.shape), dtype=np.int64)
    buf = np.empty((min(rank.size, _RANK_BLOCK), ctx.n), dtype=np.int64)
    # blocks of the broadcast forms, in C order: no copy of the grid is made
    with np.nditer([bs, c, rank], ["external_loop", "buffered", "zerosize_ok"],
                   [["readonly"], ["readonly"], ["writeonly"]], order="C",
                   buffersize=_RANK_BLOCK) as blocks:
        for b, c_block, out in blocks:
            words = b | (c_block.astype(np.uint64) << ctx.n).view(np.int64)
            images = pair_map.vec(words, out=buf[: len(b)])
            out[...] = _row_ranks(images.T.astype(narrow, order="C"))
    return rank


def _row_ranks(images: np.ndarray) -> np.ndarray:
    """The GF(2)-rank of each form's n images, as int64.  images has shape
    (n, forms), row j holding image j of every form, and an unsigned dtype,
    so that images compare as bit strings; it is reduced in place.

    Each step takes every form's largest image as its pivot, with leading
    bit h.  No image has a bit above h, so the images with bit h set, the
    pivot among them, are exactly those that XOR with the pivot makes
    smaller: min(image, image ^ pivot) clears bit h from them and leaves the
    rest.  The largest image then has a lower leading bit, so after n steps
    every image is 0, and the rank is the number of nonzero pivots.
    """
    rank = np.zeros(images.shape[1], dtype=np.int64)
    for _ in range(len(images)):
        pivot = images.max(axis=0)
        np.minimum(images, images ^ pivot, out=images)
        rank += pivot != 0
    return rank


def symplectic_rank(params: QuadFormParams) -> int:
    """Rank of one form's symplectic pairing: the pivots of its n rank images
    (_rank_images) under the field's scalar GF(2) reduction (gf2n._echelon);
    see symplectic_ranks."""
    if params.b == 0 and params.c == 0:
        raise ZeroForm("rank is undefined for the zero form")
    images = _rank_images(params.ctx, params.k, params.b, params.c)
    return len(_echelon(images.tolist())[0])


def _rank_counts(n: int, rank: int) -> dict[int, int]:
    """rank_spectrum's value counts as a plain dict, for an even rank
    0 <= rank <= n (0 counted 0 times at rank n): a form of rank 2j takes
    +-2^(n-j) at (2^(2j) +- 2^j)/2 of the lam and 0 at the rest."""
    j = rank // 2
    return {1 << (n - j): (4**j + 2**j) // 2, -(1 << (n - j)): (4**j - 2**j) // 2,
            0: (1 << n) - 4**j}


def rank_spectrum(n: int, rank: int) -> ValueHistogram | None:
    """The Walsh spectrum over every lam of a form of symplectic rank 2j on
    GF(2^n) (_rank_counts).  None for a rank no form has: odd, or above n."""
    if rank % 2 or not 0 <= rank <= n:
        return None
    return ValueHistogram(_rank_counts(n, rank))


def _subfield_elements(ctx: FieldCtx, cs) -> np.ndarray:
    """cs as an int64 array; ValueError unless every entry c lies in F,
    that is 0 <= c < 2^n and c^(2^{n/2}) = c."""
    cs = np.asarray(cs, dtype=np.int64)
    inside = (cs >= 0) & (cs < ctx.order)
    off = cs[~inside | (ctx.frob_vec(np.where(inside, cs, 0), ctx.half) != cs)]
    if off.size:
        raise ValueError(f"c = {off[0]} is not in the subfield")
    return cs


def transform_column(ctx: FieldCtx, k: int, c_list, lam: int) -> np.ndarray:
    """W_{b,c}(lam) for every b in E, one row per c in c_list.

    Returns an int64 array of shape (len(c_list), 2^n) whose rows are
    indexed by b.  Grouping x by y = x^(2^k+1) makes each row one Walsh
    transform over y, evaluated at b, of
    G_c(y) = sum over x with x^(2^k+1) = y of (-1)^(tr_h(c x^(2^{n/2}+1)) + tr(lam x)),
    so a row costs one fwht of size 2^n, reindexed through walsh_perm.
    """
    require_valid_k(ctx.n, k)
    c_list = _subfield_elements(ctx, c_list)
    order = ctx.order
    rows = len(c_list)
    if rows * order * _TRANSFORM_BYTES > _BLOCK_BYTES_CAP:
        raise TooLarge(f"transform column of {rows}x{order} exceeds the memory cap")
    e1, e2 = exponents(ctx, k)
    y = ctx.pow_vec(np.arange(order, dtype=np.int64), e1)
    odd = trace_rows(ctx, ctx.scale_vec(ctx.trh_lift, c_list), e2)
    if lam:
        odd ^= trace_rows(ctx, [lam], 1)[0]
    # G = (preimage count) - 2 * (preimages with an odd exponent)
    row_y = np.arange(rows, dtype=np.int64)[:, None] * order + y
    neg = np.bincount(row_y[odd == 1], minlength=rows * order).reshape(rows, order)
    g = np.bincount(y, minlength=order) - 2 * neg
    return fwht(g)[:, ctx.walsh_perm]
