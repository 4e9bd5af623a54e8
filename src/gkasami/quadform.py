"""Quadratic forms tr(b*x^(2^k+1)) + tr_half(c*x^(2^{n/2}+1)) on GF(2^n).

Evaluates the forms, computes their symplectic ranks (batched over b) and
exact Walsh (trace-transform) spectra, and tabulates spectrum-value
distributions over parameter sets.  The fast transform works on the plain
+-1 truth table with a Hadamard butterfly and then reindexes through the
dual-basis permutation stored on the field context, so spectra are always
indexed directly by lambda as a field element.

Besides whole spectra (one form, every lambda) there are transform columns
(one lambda and one c, every b), and a scaling that moves any form with
c != 0 to one with c = 1: substituting x -> u*x gives
W_{b,c}(lam) = W_{b u^(2^k+1), c N(u)}(lam u) with N(u) = u^(2^{n/2}+1).

Every term of a form, of a family member and of a codeword is a trace
row tr(a x^e) over x in E; trace_rows is the one builder of such rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2n import FieldCtx, TooLarge, half_odd
from .histogram import ValueHistogram

# largest array spectra_block or transform_column may allocate
_BLOCK_BYTES_CAP = 2 << 30


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


def scale_to_norm_one(ctx: FieldCtx, k: int, b, c, lam):
    """Elementwise (b', lam') with W_{b,c}(lam) = W_{b',1}(lam'), for c in F*.

    Takes the u with N(u) = u^(2^{n/2}+1) = 1/c and returns
    (b u^(2^k+1), lam u).  Every c in F* is beta^j = alpha^(j (2^{n/2}+1)),
    so u = alpha^s with s = -j mod (2^{n/2} - 1).
    """
    e1, e2 = exponents(ctx, k)
    s = (-(ctx.log[c] // e2)) % ((1 << ctx.half) - 1)
    return _times_alpha_pow(ctx, b, s * e1), _times_alpha_pow(ctx, lam, s)


def _times_alpha_pow(ctx: FieldCtx, x, t) -> np.ndarray:
    """Elementwise x * alpha^t."""
    x = np.asarray(x, dtype=np.int64)
    return np.where(x != 0, ctx.antilog[(ctx.log[x] + t) % ctx.group_order], 0)


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


def eval_f(params: QuadFormParams, x: int) -> int:
    """The form's value at a single point, as an int 0 or 1."""
    ctx = params.ctx
    e1, e2 = exponents(ctx, params.k)
    t1 = ctx.trace(ctx.mul(params.b, ctx.pow(x, e1)))
    t2 = int(ctx.trh[ctx.mul(params.c, ctx.pow(x, e2))])
    return t1 ^ t2


def _field_elements(ctx: FieldCtx, xs) -> np.ndarray:
    """xs as an int64 array; ValueError unless every entry lies in [0, 2^n)."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 0 or xs.max() >= ctx.order):
        raise ValueError(f"field elements must lie in [0, {ctx.order})")
    return xs


def trace_rows(ctx: FieldCtx, coeffs, e: int, tr: np.ndarray) -> np.ndarray:
    """uint8 rows tr(a x^e) over x in E, one per a in coeffs; 0 at x = 0.

    tr is the trace table to apply: ctx.tr1, or ctx.trh when a and x^e lie
    in the subfield F.  Rows are indexed by x in integer order.  Raises
    ValueError unless every a is a field element, 0 <= a < 2^n.
    """
    coeffs = _field_elements(ctx, coeffs)
    group = ctx.group_order
    log_xe = e * ctx.log[1:]  # reduced mod group once per row, below
    rows = np.zeros((coeffs.size, ctx.order), dtype=np.uint8)
    for i, log_a in enumerate(ctx.log[coeffs].tolist()):
        if log_a >= 0:
            rows[i, 1:] = tr[ctx.antilog[(log_a + log_xe) % group]]
    return rows


def truth_table(params: QuadFormParams) -> np.ndarray:
    """uint8 array of the form's values over all of E, indexed by x."""
    ctx = params.ctx
    e1, e2 = exponents(ctx, params.k)
    return (trace_rows(ctx, [params.b], e1, ctx.tr1)
            ^ trace_rows(ctx, [params.c], e2, ctx.trh))[0]


def walsh_point(params: QuadFormParams, lam: int) -> int:
    """Exact transform value sum_x (-1)^(f(x) + tr(lam*x)) by direct summation."""
    ctx = params.ctx
    tt = truth_table(params)
    if lam:
        tt = tt ^ ctx.tr1[ctx.scale_all(lam)]
    return int(ctx.order - 2 * int(tt.sum()))


def fwht_inplace(a: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly along the last axis (a power of 2)."""
    m = a.shape[-1]
    flat = a.reshape(-1, m)
    h = 1
    while h < m:
        blk = flat.reshape(-1, m // (2 * h), 2, h)
        x = blk[:, :, 0, :].copy()
        y = blk[:, :, 1, :]
        blk[:, :, 0, :] = x + y
        blk[:, :, 1, :] = x - y
        h *= 2


def walsh_spectrum(params: QuadFormParams) -> np.ndarray:
    """Full spectrum as an int64 array indexed by lambda.

    Pointwise equal to walsh_point; computed in O(n * 2^n) by the fast
    butterfly over the truth table plus the dual-basis reindexing.  The
    butterfly runs in int32, which holds every |W| <= 2^n exactly.
    """
    ctx = params.ctx
    w = 1 - 2 * truth_table(params).astype(np.int32)
    fwht_inplace(w)
    return w[ctx.walsh_perm].astype(np.int64)


def symplectic_ranks(ctx: FieldCtx, k: int, bs, c) -> np.ndarray:
    """Symplectic ranks of the forms (b, c) for b in bs, as an int array.

    c is one subfield element or an array of them broadcast against bs.  The
    radical { z : f(x)+f(z)+f(x+z) = 0 for all x } is the kernel of
    L(z) = b^(2^{n-k}) z^(2^{n-k}) + b z^(2^k) + c z^(2^{n/2}), so the rank
    is the GF(2)-rank of the n images L(alpha^j), reduced one bit at a time
    for every form at once.  The zero form has rank 0.
    """
    require_valid_k(ctx.n, k)
    bs = _field_elements(ctx, bs)
    c = np.asarray(c, dtype=np.int64)
    _subfield_list(ctx, c.ravel())
    j = np.arange(ctx.n).reshape((ctx.n,) + (1,) * max(bs.ndim, c.ndim))
    rows = (ctx.frob_vec(_times_alpha_pow(ctx, bs, j), ctx.n - k)
            ^ _times_alpha_pow(ctx, bs, j << k)
            ^ _times_alpha_pow(ctx, c, j << ctx.half))
    rank = np.zeros(rows.shape[1:], dtype=np.int64)
    for p in range(ctx.n):
        # the first image with bit p set clears that bit from every other
        # image and from itself; no image keeps a bit already reduced
        has = (rows >> p) & 1
        rows ^= has * np.take_along_axis(rows, has.argmax(axis=0)[None], axis=0)
        rank += has.max(axis=0)
    return rank


def symplectic_rank(params: QuadFormParams) -> int:
    """Rank of one form's symplectic pairing; see symplectic_ranks."""
    if params.b == 0 and params.c == 0:
        raise ZeroForm("rank is undefined for the zero form")
    return int(symplectic_ranks(params.ctx, params.k, params.b, params.c))


def _subfield_list(ctx: FieldCtx, c_list) -> list[int]:
    c_list = [int(c) for c in c_list]
    for c in c_list:
        if not ctx.in_subfield(c):
            raise ValueError(f"c = {c} is not in the subfield")
    return c_list


def spectra_block(
    ctx: FieldCtx, k: int, b_list, c_list
) -> np.ndarray:
    """Spectra of all forms with b in b_list, c in c_list.

    Returns an int32 array of shape (len(b_list), len(c_list), 2^n) whose
    last axis is indexed by lambda.
    """
    require_valid_k(ctx.n, k)
    b_list = [int(b) for b in b_list]
    c_list = _subfield_list(ctx, c_list)
    order = ctx.order
    if len(b_list) * len(c_list) * order * 4 > _BLOCK_BYTES_CAP:
        raise TooLarge(
            f"spectra block of {len(b_list)}x{len(c_list)}x{order} exceeds the memory cap"
        )
    e1, e2 = exponents(ctx, k)
    u = trace_rows(ctx, b_list, e1, ctx.tr1)
    v = trace_rows(ctx, c_list, e2, ctx.trh)
    w = 1 - 2 * (u[:, None, :] ^ v[None, :, :]).astype(np.int32)
    fwht_inplace(w)
    return w[..., ctx.walsh_perm]


def transform_column(ctx: FieldCtx, k: int, c_list, lam: int) -> np.ndarray:
    """W_{b,c}(lam) for every b in E, one row per c in c_list.

    Returns an int64 array of shape (len(c_list), 2^n) whose rows are
    indexed by b.  Grouping x by y = x^(2^k+1) makes each row one Walsh
    transform over y, evaluated at b, of
    G_c(y) = sum over x with x^(2^k+1) = y of (-1)^(tr_h(c x^(2^{n/2}+1)) + tr(lam x)),
    so a row costs one butterfly of size 2^n.
    """
    require_valid_k(ctx.n, k)
    c_list = _subfield_list(ctx, c_list)
    order = ctx.order
    rows = len(c_list)
    if rows * order * 8 > _BLOCK_BYTES_CAP:
        raise TooLarge(f"transform column of {rows}x{order} exceeds the memory cap")
    e1, e2 = exponents(ctx, k)
    y = ctx.pow_vec(np.arange(order, dtype=np.int64), e1)
    odd = trace_rows(ctx, c_list, e2, ctx.trh)
    if lam:
        odd ^= ctx.tr1[ctx.scale_all(lam)]
    # G = (preimage count) - 2 * (preimages with an odd exponent)
    row_y = np.arange(rows, dtype=np.int64)[:, None] * order + y
    neg = np.bincount(row_y[odd == 1], minlength=rows * order).reshape(rows, order)
    g = np.bincount(y, minlength=order) - 2 * neg
    fwht_inplace(g)
    return g[:, ctx.walsh_perm]


def spectrum_distribution(
    ctx: FieldCtx,
    k: int,
    b_set,
    c_set,
    lambda_set,
    multiplicity: int = 1,
) -> ValueHistogram:
    """Histogram of transform values over b_set x c_set x lambda_set.

    Every triple is counted `multiplicity` times; counts are exact ints.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    block = spectra_block(ctx, k, sorted(set(b_set)), sorted(set(c_set)))
    lam = np.array(sorted(set(lambda_set)), dtype=np.int64)
    return ValueHistogram.from_array(block[:, :, lam], multiplicity)
