"""References for the tests: whole spectra grids over parameter sets, a
form's whole dual-basis truth table, the full packed trace-row tables of
the generalized Kasami code, and the correlation of two sequences given
as Python ints.

No engine builds these; the tests compare the engines' class, column and
rank routes against them, and orbit_representatives lists one form per
orbit of x -> u*x, unreduced by squaring, for the class table to be
checked against.  spectra_block transforms one truth table per
(b, c), indexed by x, by fwht and reindexes through walsh_perm;
walsh_spectrum reads no truth table and runs no Hadamard stage, as it
doubles the sum over the dual-basis bits from the form's polar rows.
dual_truth_table fills all 2^n entries of the dual-basis table from the
form's own n by n matrix, built from alpha-ladders rather than from
walsh_spectrum's polar rows; fwht of it is a whole spectrum indexed by
lambda.  spectra_block and code_tables build their rows with
quadform.trace_rows, the subfield trace tr_h(c y) as the row of
tr(delta c y), delta = ctx.trh_lift; code_tables packs every trace row
with np.packbits, so it shares with families.packed_rows only the trace
rows.  fk_member_rows builds the fk members at any k, admissible or not,
from families.packed_rows with no admissibility check, for the brute
engine to show what the gcd hypothesis rules out.  brute_histogram takes
one plain +-1 product per shift, with
no folding of row pairs and no orbits of shifts.  theta_root_counts_full
evaluates the kernel and reduced equations at every theta, and
affine_root_max_full and rank_deficient_b_counts_full scan every theta and
every c, with no Frobenius classes.

eval_f, truth_table and walsh_point read a form in the polynomial basis:
eval_f by scalar field arithmetic, truth_table from quadform.trace_rows,
and walsh_point by direct summation of the truth table against the trace
row of lambda.  None reads polar rows, eliminates, or runs a Hadamard
transform or a transform column.  count_kernel_roots, count_reduced_roots
and count_affine_roots count one equation's roots by evaluation at every
field element, one theta at a time; linearized_kernel reduces the n images
of a linearized polynomial.  frobenius maps one element through
FieldCtx.frobenius_map, trace_to_subfield sums Frobenius images onto any
subfield, element_from_label inverts FieldCtx.element_label, and
histogram_from_json_dict reads ValueHistogram.to_json_dict back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gkasami import fieldeq
from gkasami.families import gamma_delta_sets, packed_rows
from gkasami import quadform as qf
from gkasami.gf2n import FieldCtx, TooLarge, gf2_kernel_basis
from gkasami.histogram import ValueHistogram


class BadParams(ValueError):
    """Raised when an equation's parameter preconditions are violated."""


class NonDivisor(ValueError):
    """Raised when a trace is requested onto GF(2^m) with m not dividing n."""


def frobenius(ctx: FieldCtx, x: int, i: int) -> int:
    """x^(2^i), the i-fold Frobenius of the element x (i may be any integer;
    period n), straight from the images of ctx.frobenius_map(i)."""
    return ctx.frobenius_map(i)(x)


def trace_to_subfield(ctx: FieldCtx, x: int, m: int) -> int:
    """Trace of x onto GF(2^m) embedded in E; m must divide n."""
    if m <= 0 or ctx.n % m != 0:
        raise NonDivisor(f"m = {m} does not divide n = {ctx.n}")
    acc = 0
    for i in range(ctx.n // m):
        acc ^= frobenius(ctx, x, i * m)
    return acc


def element_from_label(ctx: FieldCtx, text: str) -> int:
    """The element labelled text by FieldCtx.element_label: '0' or 'a^j'."""
    if text == "0":
        return 0
    if not text.startswith("a^"):
        raise ValueError(f"bad element label {text!r}")
    return ctx.pow(ctx.alpha, int(text[2:]))


def histogram_from_json_dict(obj: dict) -> ValueHistogram:
    """The histogram whose ValueHistogram.to_json_dict is obj."""
    return ValueHistogram({int(e["value"]): int(e["count"]) for e in obj["entries"]})


def orbit_representatives(ctx: FieldCtx, k: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One form (b, c) per orbit of x -> u*x on all 2^{3n/2} forms, with the
    orbit sizes: int64 arrays b and c and a list of ints, in this order:
    (0, 0); (0, 1); (alpha^r, 0) for r < g1; (alpha^r, 1) for r < g2 (see
    quadform.form_classes, whose leaders are one per class of these under
    squaring).  class_rows gives the row of each one's leader."""
    group, units = ctx.group_order, (1 << ctx.half) - 1
    e1, _ = qf.exponents(ctx, k)
    g1, g2 = math.gcd(e1, group), math.gcd(units * e1, group)
    powers = ctx.powers(ctx.alpha, g2)
    bs = np.concatenate([[0, 0], powers[:g1], powers[:g2]])
    cs = np.array([0, 1] + [0] * g1 + [1] * g2, dtype=np.int64)
    return bs, cs, [1, units] + [group // g1] * g1 + [group // g2 * units] * g2


def class_rows(classes: qf.FormClasses) -> np.ndarray:
    """The row in classes of the leader of each of orbit_representatives."""
    return np.concatenate([[0, 1], classes.on_c0, classes.on_c1])


def eval_f(params: qf.QuadFormParams, x: int) -> int:
    """The form's value at a single point, as an int 0 or 1."""
    ctx = params.ctx
    e1, e2 = qf.exponents(ctx, params.k)
    t1 = ctx.trace(ctx.mul(params.b, ctx.pow(x, e1)))
    t2 = ctx.trace(ctx.mul(ctx.trh_lift, ctx.mul(params.c, ctx.pow(x, e2))))
    return t1 ^ t2


def truth_table(params: qf.QuadFormParams) -> np.ndarray:
    """uint8 array of the form's values over all of E, indexed by x."""
    ctx = params.ctx
    e1, e2 = qf.exponents(ctx, params.k)
    return (qf.trace_rows(ctx, [params.b], e1)
            ^ qf.trace_rows(ctx, [ctx.mul(ctx.trh_lift, params.c)], e2))[0]


def walsh_point(params: qf.QuadFormParams, lam: int) -> int:
    """Exact transform value sum_x (-1)^(f(x) + tr(lam*x)) by direct summation."""
    ctx = params.ctx
    tt = qf.trace_rows(ctx, [lam], 1)[0] ^ truth_table(params)
    return int(ctx.order - 2 * int(tt.sum()))


@dataclass(frozen=True)
class LinearizedPoly:
    """L(x) = sum_i coeffs[i] * x^(2^i) over GF(2^n)."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs) -> "LinearizedPoly":
        return cls(tuple(int(a) for a in coeffs))

    def evaluate(self, ctx: FieldCtx, x: int) -> int:
        acc = 0
        for i, a in enumerate(self.coeffs):
            if a:
                acc ^= ctx.mul(a, frobenius(ctx, x, i))
        return acc


def linearized_kernel(ctx: FieldCtx, poly: LinearizedPoly) -> list[int]:
    """GF(2)-basis of the root space {x : L(x) = 0}; its size is a power of 2."""
    images = [poly.evaluate(ctx, 1 << j) for j in range(ctx.n)]
    return gf2_kernel_basis(images)


def count_affine_roots(ctx: FieldCtx, eps: int, v: int, theta: int, l: int) -> int:
    """Roots in E of eps*x^(2^l+1) + v*x + theta, by evaluation at every x.

    Requires eps != 0, theta a nonzero field element and gcd(l, n) = 1; the
    count never exceeds 3 (verified exhaustively in the test suite).
    """
    if eps == 0 or not 0 < theta < ctx.order or math.gcd(l, ctx.n) != 1:
        raise BadParams("need eps != 0, 0 < theta < 2^n, gcd(l, n) = 1")
    xs = np.arange(ctx.order, dtype=np.int64)
    lhs = ctx.scale_vec(eps, ctx.pow_vec(xs, (1 << l) + 1))
    lhs ^= ctx.scale_vec(v, xs)
    lhs ^= theta
    return int(np.count_nonzero(lhs == 0))


def count_kernel_roots(ctx: FieldCtx, theta: int, k: int) -> int:
    """Nonzero roots z of the radical kernel equation for (theta, c=1),
    theta^(2^{n-k}) z^(2^{n-k}) + theta z^(2^k) + z^(2^{n/2}) = 0."""
    if theta == 0:
        raise BadParams("theta must be nonzero")
    qf.require_valid_k(ctx.n, k)
    n = ctx.n
    zs = np.arange(ctx.order, dtype=np.int64)
    tq = frobenius(ctx, theta, n - k)
    vals = ctx.scale_vec(tq, ctx.frob_vec(zs, n - k))
    vals ^= ctx.scale_vec(theta, ctx.frob_vec(zs, k))
    vals ^= ctx.frob_vec(zs, ctx.half)
    return int(np.count_nonzero(vals[1:] == 0))


def count_reduced_roots(ctx: FieldCtx, theta: int, k: int) -> tuple[int, int]:
    """Root counts of the two reduced auxiliary equations.

    First: theta^(2^{n-k}) w^(2^{n/2-k}+1) + w + theta = 0 (natural for
    k < n/2); second: theta w^(2^{k-n/2}+1) + w + theta^(2^{n-k}) = 0
    (natural for k > n/2).  The shifts are taken mod n so both are
    defined for every admissible k; w = 0 is never a root.  The parity-
    appropriate count equals count_kernel_roots for the same theta.
    """
    if theta == 0:
        raise BadParams("theta must be nonzero")
    qf.require_valid_k(ctx.n, k)
    n = ctx.n
    ws = np.arange(ctx.order, dtype=np.int64)
    tq = frobenius(ctx, theta, n - k)

    lhs = ctx.scale_vec(tq, ctx.pow_vec(ws, fieldeq._reduced_exponent(ctx, n // 2 - k)))
    lhs ^= ws
    lhs ^= theta
    first_count = int(np.count_nonzero(lhs[1:] == 0))

    lhs = ctx.scale_vec(theta, ctx.pow_vec(ws, fieldeq._reduced_exponent(ctx, k - n // 2)))
    lhs ^= ws
    lhs ^= tq
    second_count = int(np.count_nonzero(lhs[1:] == 0))
    return first_count, second_count


def spectra_block(ctx: FieldCtx, k: int, b_list, c_list) -> np.ndarray:
    """Spectra of all forms with b in b_list, c in c_list.

    Returns an int64 array of shape (len(b_list), len(c_list), 2^n) whose
    last axis is indexed by lambda: fwht of the +-1 tables indexed by x,
    reindexed through walsh_perm.  Raises TooLarge when the block would
    pass quadform's memory cap at its bytes per transformed value.
    """
    qf.require_valid_k(ctx.n, k)
    b_list = [int(b) for b in b_list]
    c_list = qf._subfield_elements(ctx, c_list)
    order = ctx.order
    if len(b_list) * len(c_list) * order * qf._TRANSFORM_BYTES > qf._BLOCK_BYTES_CAP:
        raise TooLarge(
            f"spectra block of {len(b_list)}x{len(c_list)}x{order} exceeds the memory cap"
        )
    e1, e2 = qf.exponents(ctx, k)
    u = qf.trace_rows(ctx, b_list, e1)
    v = qf.trace_rows(ctx, ctx.scale_vec(ctx.trh_lift, c_list), e2)
    return qf.fwht(1 - 2 * (u[:, None, :] ^ v[None, :, :]).view(np.int8))[..., ctx.walsh_perm]


def dual_truth_table(params: qf.QuadFormParams) -> np.ndarray:
    """uint8 table g(y) = f(sum_i y_i d_i) over the dual basis d of ctx.

    g(y) is the sum, over the set bits i of y, of g(e_i) + B(y_{<i}, e_i)
    with B the polar form and y_{<i} the bits of y below i; bit i of u[y]
    is that term, so g(y) is the parity of y & u[y], and u is affine in y,
    filled by doubling from the n by n matrix m[i, j] = tr(d_i w(d_j)) of
    w(x) = b x^(2^k) + delta c x^(2^{n/2}): f(d_j) = m[j, j] and
    B(d_i, d_j) = m[i, j] + m[j, i].  The products come from the
    alpha-ladders of b and delta c; tr(d_i y) is bit i of y.
    """
    ctx = params.ctx
    n, d = ctx.n, ctx.dual_basis
    ladders = ctx.alpha_ladder.vec([params.b, ctx.mul(ctx.trh_lift, params.c)])
    xs = np.stack([ctx.frob_vec(d, params.k), ctx.frob_vec(d, ctx.half)])
    picked = ((xs[:, :, None] >> np.arange(n)) & 1) * ladders[:, None, :]
    w = np.bitwise_xor.reduce(picked, axis=(0, 2))
    m = (w >> np.arange(n)[:, None]) & 1
    # bit i of rows[j] is B(e_j, e_i) off the diagonal and g(e_j) on it
    polar = m ^ m.T
    np.fill_diagonal(polar, np.diagonal(m))
    rows = (polar @ (1 << np.arange(n))).tolist()
    u = np.empty(ctx.order, dtype=np.uint32)
    u[0] = sum(r & 1 << j for j, r in enumerate(rows))
    for j, r in enumerate(rows):
        # u[y + 2^j] = u[y] + (B(e_j, e_i) at every bit i above j), y < 2^j
        np.bitwise_xor(u[: 1 << j], r & -(2 << j), out=u[1 << j : 2 << j])
    u &= np.arange(ctx.order, dtype=np.uint32)
    return np.bitwise_count(u) & np.uint8(1)


def spectrum_distribution(ctx: FieldCtx, k: int, b_set, c_set, lambda_set,
                          multiplicity: int = 1) -> ValueHistogram:
    """Histogram of transform values over b_set x c_set x lambda_set.

    Every triple is counted `multiplicity` times; counts are exact ints.
    """
    if multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    block = spectra_block(ctx, k, sorted(set(b_set)), sorted(set(c_set)))
    lam = np.array(sorted(set(lambda_set)), dtype=np.int64)
    return ValueHistogram.from_array(block[:, :, lam], multiplicity)


def code_tables(ctx: FieldCtx, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every trace row of the generalized Kasami code, packed: lin[gamma] =
    tr(gamma x), quad[delta] = tr(delta x^(2^k+1)) for every gamma, delta in
    E, and norm[i] = tr_h(eta x^(2^{n/2}+1)) for eta the i-th subfield
    element, each read at x = alpha^t and packed by np.packbits (bit t at
    bit t % 8 of byte t // 8).  The codeword of (gamma, delta, eta) is
    lin[gamma] ^ quad[delta] ^ norm[subfield index of eta].
    """
    e1, e2 = qf.exponents(ctx, k)

    def pack(coeffs, e):
        rows = qf.trace_rows(ctx, coeffs, e)[:, ctx.antilog]
        return np.packbits(rows, axis=1, bitorder="little")

    return (pack(range(ctx.order), 1), pack(range(ctx.order), e1),
            pack(ctx.scale_vec(ctx.trh_lift, ctx.subfield_elements), e2))


def codeword(ctx: FieldCtx, tables, gamma: int, delta: int, eta: int) -> int:
    """The codeword of (gamma, delta, eta) from code_tables, as an int (LSB = t = 0)."""
    lin, quad, norm = tables
    row = lin[gamma] ^ quad[delta] ^ norm[ctx.subfield_index[eta]]
    return int.from_bytes(row.tobytes(), "little")


def fk_member_rows(ctx: FieldCtx, k: int) -> np.ndarray:
    """The fk family's members as packed rows (families.packed_rows) for any
    k in 1 .. n - 1, admissible or not: the 2^(3n/2) rows of part one,
    m ^ quad[gamma] ^ norm[delta] over E x F, then quad[zeta] ^ norm[eta]
    over Gamma x Delta (families.gamma_delta_sets), in
    families.member_table's order."""
    e1, e2 = qf.exponents(ctx, k)
    gset, dset = gamma_delta_sets(ctx)
    m = packed_rows(ctx, [1], 1)
    norm_one, norm_two = (packed_rows(ctx, ctx.scale_vec(ctx.trh_lift, cs), e2)
                          for cs in (ctx.subfield_elements, dset))
    part_one = packed_rows(ctx, range(ctx.order), e1)[:, None] ^ (m ^ norm_one)
    part_two = packed_rows(ctx, gset, e1)[:, None] ^ norm_two
    width = m.shape[1]
    return np.concatenate([part_one.reshape(-1, width), part_two.reshape(-1, width)])


def brute_histogram(rows: np.ndarray, period: int) -> ValueHistogram:
    """C(i, j, tau) over every ordered pair of packed rows (bit t at bit t % 8
    of byte t // 8) and every shift: one float64 product of the +-1 rows
    with the rows rotated by tau, per tau."""
    bits = np.unpackbits(rows, axis=1, count=period, bitorder="little")
    signs = 1.0 - 2.0 * bits
    hist = ValueHistogram()
    for tau in range(period):
        hist.merge(ValueHistogram.from_array(
            (signs @ np.roll(signs, -tau, axis=1).T).astype(np.int64)))
    return hist


def theta_root_counts_full(ctx: FieldCtx, k: int) -> np.ndarray:
    """fieldeq.theta_root_counts evaluated at every theta in E*, in blocks
    of 2^16 (theta, w) values: root counts at [equation, theta - 1]."""
    qf.require_valid_k(ctx.n, k)
    n, group = ctx.n, ctx.group_order
    log_w = ctx.log[1:]
    ws = np.arange(1, ctx.order, dtype=np.int64)
    log_zq, log_zk, log_w1, log_w2 = (
        (log_w * e) % group for e in (1 << (n - k), 1 << k,
                                      fieldeq._reduced_exponent(ctx, n // 2 - k),
                                      fieldeq._reduced_exponent(ctx, k - n // 2)))
    z_half = ctx.frob_vec(ws, ctx.half)
    antilog = np.tile(ctx.antilog, 2)
    out = np.empty((3, group), dtype=np.int64)
    rows = max(1, (1 << 16) // group)
    for lo in range(0, group, rows):
        theta = ws[lo:lo + rows, None]
        log_t = ctx.log[theta]
        log_tq = (log_t << (n - k)) % group
        tq = antilog[log_tq]
        kernel = antilog[log_tq + log_zq] ^ antilog[log_t + log_zk] ^ z_half
        first = antilog[log_tq + log_w1] ^ ws ^ theta
        second = antilog[log_t + log_w2] ^ ws ^ tq
        for i, vals in enumerate((kernel, first, second)):
            out[i, lo:lo + rows] = np.count_nonzero(vals == 0, axis=1)
    return out


def affine_root_max_full(ctx: FieldCtx) -> int:
    """The most roots in E* of eps x^3 + v x + theta over every (v, theta)
    with theta != 0, for eps = 1, alpha and alpha^2 (one per cube class of
    E*): each nonzero x is a root for the one v = (eps x^3 + theta) / x, so
    the count at (eps, v, theta) is how many x share that v."""
    group = ctx.group_order
    xs = np.arange(1, ctx.order, dtype=np.int64)
    log_inv_x = -ctx.log[xs] % group
    rows = max(1, (1 << 16) // group)
    worst = 0
    for eps in ctx.antilog[:3].tolist():
        eps_x3 = ctx.scale_vec(eps, ctx.pow_vec(xs, 3))
        for lo in range(1, ctx.order, rows):
            thetas = np.arange(lo, min(lo + rows, ctx.order), dtype=np.int64)[:, None]
            vals = eps_x3 ^ thetas
            v = np.where(vals == 0, 0, ctx.antilog[(ctx.log[vals] + log_inv_x) % group])
            v += np.arange(len(thetas))[:, None] * ctx.order
            worst = max(worst, int(np.bincount(v.ravel()).max()))
    return worst


def rank_deficient_b_counts_full(ctx: FieldCtx, k: int) -> np.ndarray:
    """How many b in E* give the form (b, c) rank n - 2, for every c in F*
    in increasing order."""
    ranks = qf.symplectic_ranks(ctx, k, np.arange(1, ctx.order)[:, None],
                                ctx.subfield_elements[None, 1:])
    return np.count_nonzero(ranks == ctx.n - 2, axis=0)


class LengthMismatch(ValueError):
    """Raised when a sequence has a bit at or past the period."""


def rotate(bits: int, tau: int, length: int) -> int:
    """Cyclic left rotation: bit t of the result is bit (t + tau) of the input."""
    tau %= length
    mask = (1 << length) - 1
    return ((bits >> tau) | (bits << (length - tau))) & mask


def correlate(s1: int, s2: int, tau: int, period: int) -> int:
    """sum_t (-1)^(s1(t) + s2(t + tau)) over one period, exact, for two
    sequences given as ints with bit t = s(t) (LSB = t = 0)."""
    if s1 >> period or s2 >> period:
        raise LengthMismatch(f"a sequence has bits past the period {period}")
    if not 0 <= tau < period:
        raise ValueError(f"tau = {tau} out of range")
    return period - 2 * (s1 ^ rotate(s2, tau, period)).bit_count()
