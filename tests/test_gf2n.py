import math

import numpy as np
import pytest

from gkasami.gf2n import (
    DEFAULT_POLYS,
    SCALAR_POWERS,
    NonDivisor,
    NonPrimitivePolynomial,
    UnsupportedN,
    gcd_pow2_plus_one,
    gf2_kernel_basis,
    make_field,
)


def raw_mul(a, b, poly, n):
    """Independent carry-less multiply mod poly (no log tables)."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a >> n:
            a ^= poly
        b >>= 1
    return acc


def test_alpha_order_by_exhaustive_multiplication():
    # independent oracle: repeated raw multiplication by x
    x = 1
    seen_one = []
    for j in range(1, 16):
        x = raw_mul(x, 2, 0x13, 4)
        if x == 1:
            seen_one.append(j)
    assert seen_one == [15]

    ctx = make_field(4)
    assert ctx.poly == 0x13
    assert ctx.pow(ctx.alpha, 15) == 1
    assert all(ctx.pow(ctx.alpha, j) != 1 for j in range(1, 15))


def test_odd_n_rejected():
    with pytest.raises(UnsupportedN):
        make_field(5)
    with pytest.raises(UnsupportedN):
        make_field(2)
    with pytest.raises(UnsupportedN):
        make_field(22)


def test_reducible_poly_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(NonPrimitivePolynomial):
        make_field(4, 0x15)
    with pytest.raises(NonPrimitivePolynomial):
        make_field(4, 0x13 << 1)  # wrong degree


def alpha_order(poly, n):
    """First i > 0 with alpha^i = 1, by raw multiplication (None if never)."""
    x = 1
    for i in range(1, 1 << n):
        x = raw_mul(x, 2, poly, n)
        if x == 1:
            return i
    return None


def has_factor(poly):
    """Whether poly has a nontrivial factor, by trial division."""

    def rem(a, b):
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        return a

    deg = poly.bit_length() - 1
    return any(rem(poly, q) == 0 for q in range(2, 1 << (deg // 2 + 1)))


@pytest.mark.parametrize("n,poly,order", [(4, 0x1F, 5), (12, 0x103F, 1365)])
def test_irreducible_non_primitive_poly_rejected(n, poly, order):
    # 0x103f: alpha returns to 1 only past the scalar first block, so the
    # check that the blocked powers are distinct is what must reject it
    assert not has_factor(poly) and alpha_order(poly, n) == order
    assert ((1 << n) - 1) % order == 0
    if n == 12:
        assert order > SCALAR_POWERS
    with pytest.raises(NonPrimitivePolynomial, match=rf"alpha has order {order}\)"):
        make_field(n, poly)


def test_default_polys_all_primitive():
    for n, poly in DEFAULT_POLYS.items():
        ctx = make_field(n)
        assert ctx.n == n and ctx.poly == poly
        assert len(ctx.antilog) == ctx.group_order and int(ctx.log[1]) == 0


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_tables_match_scalar_reference(n):
    # every table against raw multiplication alone: powers of alpha, and
    # the traces as sums of Frobenius images (repeated raw squaring)
    ctx = make_field(n)
    poly, order, half = ctx.poly, ctx.order, ctx.half
    powers = [1]
    for _ in range(order - 2):
        powers.append(raw_mul(powers[-1], 2, poly, n))
    assert ctx.antilog.tolist() == powers
    log = [-1] * order
    for i, x in enumerate(powers):
        log[x] = i
    assert ctx.log.tolist() == log
    assert ctx.beta == powers[(1 << half) + 1]
    tr1, trh, in_f = [], [], []
    for x in range(order):
        y, acc = x, 0
        for i in range(n):
            if i == half:
                in_f.append(y == x)
                trh.append(acc if y == x else 0)
            acc ^= y
            y = raw_mul(y, y, poly, n)
        tr1.append(acc)
    assert ctx.tr1.tolist() == tr1
    assert ctx.trh.tolist() == trh
    assert ctx.subfield_mask.tolist() == in_f
    elements = [x for x in range(order) if in_f[x]]
    assert ctx.subfield_elements.tolist() == elements
    index = [-1] * order
    for i, x in enumerate(elements):
        index[x] = i
    assert ctx.subfield_index.tolist() == index
    for name in ("log", "antilog", "subfield_elements", "subfield_index", "walsh_perm"):
        assert getattr(ctx, name).dtype == np.int64
    assert ctx.tr1.dtype == ctx.trh.dtype == np.uint8 and ctx.subfield_mask.dtype == bool
    if n <= 6:
        # walsh_perm: tr(lam * x) = <walsh_perm[lam], x> for every lam and x
        for lam in range(order):
            for x in range(order):
                parity = bin(int(ctx.walsh_perm[lam]) & x).count("1") & 1
                assert tr1[raw_mul(lam, x, poly, n)] == parity


def test_mul_against_raw(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        rng = np.random.RandomState(1)
        for _ in range(200):
            a = int(rng.randint(0, ctx.order))
            b = int(rng.randint(0, ctx.order))
            assert ctx.mul(a, b) == raw_mul(a, b, ctx.poly, ctx.n)


def test_mul_basics(ctx4):
    assert ctx4.mul(7, 0) == 0
    # alpha^i * alpha^j = alpha^(i+j mod 2^n-1)
    for i in range(15):
        for j in range(15):
            lhs = ctx4.mul(ctx4.pow(2, i), ctx4.pow(2, j))
            assert lhs == ctx4.pow(2, (i + j) % 15)
    # x^4 = x + 1 under x^4 + x + 1
    assert ctx4.pow(2, 4) == 3


def test_inverse_round_trip(ctx6):
    for a in range(1, ctx6.order):
        assert ctx6.mul(a, ctx6.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx6.inv(0)


def test_pow_conventions(ctx4):
    for a in range(ctx4.order):
        assert ctx4.pow(a, 1) == a
    assert ctx4.pow(2, 15) == 1
    assert ctx4.pow(0, 0) == 1
    assert ctx4.pow(0, 3) == 0
    assert ctx4.pow(3, -1) == ctx4.inv(3)


def test_norm_power_lands_in_subfield(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        e = (1 << ctx.half) + 1
        for x in range(ctx.order):
            y = ctx.pow(x, e)
            assert ctx.frobenius(y, ctx.half) == y


def test_log_antilog_round_trip(ctx6):
    for x in range(1, ctx6.order):
        assert int(ctx6.antilog[ctx6.log[x]]) == x


def test_trace_values_and_linearity(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        assert ctx.trace(0) == 0
        assert ctx.trace(1) == 0  # n even: sum of n ones
        for x in range(ctx.order):
            for y in range(0, ctx.order, 3):
                assert ctx.trace(x ^ y) == ctx.trace(x) ^ ctx.trace(y)
        # trace is onto: both values occur
        assert {ctx.trace(x) for x in range(ctx.order)} == {0, 1}


def test_trace_transitivity(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        for x in range(ctx.order):
            inner = ctx.trace_to_subfield(x, ctx.half)
            assert ctx.in_subfield(inner)
            assert ctx.trace(x) == int(ctx.trh[inner])


def test_trace_errors(ctx6):
    with pytest.raises(NonDivisor):
        ctx6.trace_to_subfield(5, 4)


def test_subfield_trace_f_linearity(ctx6):
    # trace onto F is F-linear: tr(c * x) = c * tr(x) for c in F
    for c in ctx6.subfield_elements:
        c = int(c)
        for x in range(0, ctx6.order, 5):
            lhs = ctx6.trace_to_subfield(ctx6.mul(c, x), ctx6.half)
            rhs = ctx6.mul(c, ctx6.trace_to_subfield(x, ctx6.half))
            assert lhs == rhs


def test_frobenius(ctx4):
    for x in range(ctx4.order):
        assert ctx4.frobenius(x, 0) == x
        assert ctx4.frobenius(x, ctx4.n) == x
        assert ctx4.trace(ctx4.frobenius(x, 1)) == ctx4.trace(x)


def test_subfield_membership(ctx6):
    assert ctx6.in_subfield(0)
    assert ctx6.in_subfield(1)
    half_group = (1 << ctx6.half) - 1
    for j in range(half_group):
        assert ctx6.in_subfield(ctx6.pow(ctx6.beta, j))
    assert sum(ctx6.in_subfield(x) for x in range(ctx6.order)) == 8
    # outside E: -63 must not wrap onto 1, and 64 must not index past the mask
    assert not any(ctx6.in_subfield(x) for x in (-63, -1, 64, 1 << 20))


ACCESSORS = {
    "mul-left": lambda ctx, x: ctx.mul(x, 1),
    "mul-right": lambda ctx, x: ctx.mul(1, x),
    "inv": lambda ctx, x: ctx.inv(x),
    "pow": lambda ctx, x: ctx.pow(x, 1),
    "trace": lambda ctx, x: ctx.trace(x),
    "element_label": lambda ctx, x: ctx.element_label(x),
}


@pytest.mark.parametrize("x", [-1, 16])
@pytest.mark.parametrize("name", sorted(ACCESSORS))
def test_scalar_accessors_reject_non_elements(ctx4, name, x):
    # -1 must not wrap onto the table entry for 15, and 16 = 2^4 must not
    # raise a bare IndexError
    with pytest.raises(ValueError, match="not an element"):
        ACCESSORS[name](ctx4, x)


def test_beta_order(ctx4, ctx6, ctx8):
    for ctx in (ctx4, ctx6, ctx8):
        half_group = (1 << ctx.half) - 1
        assert ctx.pow(ctx.beta, half_group) == 1
        assert all(ctx.pow(ctx.beta, j) != 1 for j in range(1, half_group))


def test_gcd_identities():
    # the concrete parameter combinations in use
    assert gcd_pow2_plus_one(6, 2) == 1 and math.gcd(2, 6) == 2
    assert gcd_pow2_plus_one(10, 2) == 1
    assert gcd_pow2_plus_one(4, 1) == 3 and math.gcd(1, 4) == 1
    assert gcd_pow2_plus_one(8, 1) == 3
    for n in (4, 6, 8, 10):
        for k in range(1, n):
            d = math.gcd(n, k)
            want = 1 if (n // d) % 2 == 1 else (1 << d) + 1
            assert math.gcd((1 << k) + 1, (1 << n) - 1) == want


def test_element_labels(ctx4):
    assert ctx4.element_label(0) == "0"
    assert ctx4.element_label(1) == "a^0"
    assert ctx4.element_from_label("a^4") == ctx4.pow(2, 4)
    assert ctx4.element_from_label("0") == 0


def test_kernel_basis_helper():
    # identity map has trivial kernel; zero map has full kernel
    assert gf2_kernel_basis([1 << j for j in range(4)], 4) == []
    assert len(gf2_kernel_basis([0] * 4, 4)) == 4


def test_vector_helpers_match_scalar(ctx6):
    xs = np.arange(ctx6.order, dtype=np.int64)
    sv = ctx6.scale_vec(13, xs)
    pv = ctx6.pow_vec(xs, 5)
    fv = ctx6.frob_vec(xs, 3)
    for x in range(ctx6.order):
        assert int(sv[x]) == ctx6.mul(13, x)
        assert int(pv[x]) == ctx6.pow(x, 5)
        assert int(fv[x]) == ctx6.frobenius(x, 3)


def test_tables_are_read_only(ctx4):
    with pytest.raises(ValueError):
        ctx4.log[1] = 0
