import math
import random
from functools import cached_property, reduce
from operator import xor

import numpy as np
import pytest

from gkasami import families as fam
from gkasami import gf2n
from gkasami import quadform as qf
from gkasami.gf2n import (
    DEFAULT_POLYS,
    N_MAX,
    SCALAR_POWERS,
    TABLE_MAX_N,
    FieldCtx,
    LinearMap,
    NonPrimitivePolynomial,
    TooLarge,
    UnsupportedN,
    cyclotomic_classes,
    _linear_table,
    _unit_preimages,
    gf2_kernel_basis,
    make_field,
)

from reference import NonDivisor, element_from_label, eval_f, frobenius, trace_to_subfield


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
        make_field(N_MAX + 2)


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
    # 0x103f: alpha returns to 1 only past the powers the table build takes
    # one step at a time; the order test names it from alpha^(4095/3) = 1
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
        if n <= TABLE_MAX_N:
            assert len(ctx.antilog) == ctx.group_order and int(ctx.log[1]) == 0


@pytest.mark.parametrize("n", [8, *range(TABLE_MAX_N + 2, N_MAX + 1, 2)])
def test_large_fields_pass_the_order_test_and_build_no_table(n, monkeypatch):
    # make_field runs FieldCtx's order test on the default polynomial from
    # composed Frobenius maps, at most ceil(log2 n) + 1 vec calls, and
    # scalar arithmetic straight from the maps' images: it builds no table,
    # and subfield_elements waits for its first read.  Past TABLE_MAX_N every
    # 2^n-entry table refuses, naming itself, while scalar arithmetic still
    # agrees with repeated multiplication by alpha
    built, mapped, vec = [], [], LinearMap.vec
    monkeypatch.setattr(gf2n, "_linear_table",
                        lambda images, *a: built.append(len(images)) or _linear_table(images, *a))
    monkeypatch.setattr(LinearMap, "vec",
                        lambda self, xs, out=None: mapped.append(np.size(xs)) or vec(self, xs, out))
    ctx = make_field(n)
    assert built == [] and 0 < len(mapped) <= math.ceil(math.log2(n)) + 1
    assert "subfield_elements" not in vars(ctx)
    elements = ctx.subfield_elements
    assert built == [ctx.half] and vars(ctx)["subfield_elements"] is elements
    assert elements.tolist() == sorted(y for y in elements.tolist() if ctx.in_subfield(y))
    assert len(elements) == 1 << ctx.half and not elements.flags.writeable
    assert ctx.poly == DEFAULT_POLYS[n] and ctx.pow(ctx.alpha, ctx.group_order) == 1
    assert ctx.pow(ctx.alpha, 37) == ctx.powers(ctx.alpha, 38)[-1]
    assert ctx.element_label(ctx.beta) == f"a^{(1 << ctx.half) + 1}"
    if n <= TABLE_MAX_N:
        return
    for name in LAZY_TABLES:
        with pytest.raises(TooLarge, match=rf"table {name} is built only for n <= {TABLE_MAX_N}"):
            getattr(ctx, name)
    assert not set(LAZY_TABLES) & set(vars(ctx))


@pytest.mark.parametrize("n", range(4, N_MAX + 1, 2))
def test_x_n_plus_1_is_rejected(n):
    # x^n + 1 = (x^(n/2) + 1)^2 fails the order test at every n
    with pytest.raises(NonPrimitivePolynomial):
        make_field(n, (1 << n) | 1)


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
    # the array trace (through walsh_perm), the scalar one, and the subfield
    # trace of y in F as tr(delta y)
    assert qf.trace_rows(ctx, [1], 1)[0].tolist() == tr1
    assert [ctx.trace(x) for x in range(order)] == tr1
    assert [ctx.trace(ctx.mul(ctx.trh_lift, y)) if in_f[y] else 0 for y in range(order)] == trh
    assert (ctx.subfield_index >= 0).tolist() == in_f
    elements = [x for x in range(order) if in_f[x]]
    assert ctx.subfield_elements.tolist() == elements
    index = [-1] * order
    for i, x in enumerate(elements):
        index[x] = i
    assert ctx.subfield_index.tolist() == index
    for name in ("log", "antilog", "subfield_elements", "subfield_index", "walsh_perm"):
        assert getattr(ctx, name).dtype == np.int64
    if n <= 6:
        # walsh_perm: tr(lam * x) = <walsh_perm[lam], x> for every lam and x
        for lam in range(order):
            for x in range(order):
                parity = bin(int(ctx.walsh_perm[lam]) & x).count("1") & 1
                assert tr1[raw_mul(lam, x, poly, n)] == parity


def raw_frobenius_images(x, poly, n, count):
    """[x, x^2, x^4, ..., x^(2^count)] by raw squaring."""
    images = [x]
    for _ in range(count):
        images.append(raw_mul(images[-1], images[-1], poly, n))
    return images


def raw_trace_mask(poly, n):
    """The mask whose parity with x is tr(x): bit j is the sum of the n
    Frobenius images of alpha^j, by raw squaring."""
    return sum(int(np.bitwise_xor.reduce(raw_frobenius_images(1 << j, poly, n, n - 1))) << j
               for j in range(n))


def raw_mul_vec(a, b, poly, n):
    """raw_mul elementwise over broadcast int64 arrays (no tables)."""
    a, b = (np.array(v, dtype=np.int64) for v in np.broadcast_arrays(a, b))
    acc = np.zeros_like(a)
    for _ in range(n):
        acc ^= np.where(b & 1, a, 0)
        a <<= 1
        a ^= np.where(a >> n, poly, 0)
        b >>= 1
    return acc


def raw_pow2_vec(x, poly, n, i):
    """x^(2^i) elementwise, by i raw squarings."""
    for _ in range(i):
        x = raw_mul_vec(x, x, poly, n)
    return x


@pytest.mark.parametrize("n", [14, 16, 18, 20])
def test_tables_match_reference_at_large_n(n):
    # every table against whole-array shift-and-reduce and scalar raw
    # multiplication, without reading one table under test to build another
    ctx = make_field(n)
    poly, order, group, half = ctx.poly, ctx.order, ctx.group_order, ctx.half
    antilog = ctx.antilog
    assert antilog.shape == (group,) and int(antilog[0]) == 1
    times_alpha = antilog << 1
    times_alpha ^= np.where(times_alpha & order, poly, 0)
    assert np.array_equal(antilog[1:], times_alpha[:-1]) and int(times_alpha[-1]) == 1
    assert int(ctx.log[0]) == -1
    assert np.array_equal(ctx.log[antilog], np.arange(group))
    # the absolute trace is linear: tr(x) is the parity of x & mask
    mask = raw_trace_mask(poly, n)
    x = np.arange(order, dtype=np.int64)
    assert np.array_equal(qf.trace_rows(ctx, [1], 1)[0], np.bitwise_count(x & mask) & 1)
    # F is the 2^{n/2} fixed points of x -> x^(2^{n/2}); the trace from F
    # onto GF(2) sums the first n/2 Frobenius images
    elements = ctx.subfield_elements.tolist()
    assert len(elements) == 1 << half and elements == sorted(set(elements))
    images = [raw_frobenius_images(y, poly, n, half) for y in elements]
    assert all(im[half] == y for y, im in zip(elements, images))
    traces = [np.bitwise_xor.reduce(im[:half]) for im in images]
    assert np.array_equal(np.flatnonzero(ctx.subfield_index >= 0), elements)
    # the subfield trace as tr(delta y), through the rows and the scalar trace
    assert np.array_equal(qf.trace_rows(ctx, [ctx.trh_lift], 1)[0][elements], traces)
    assert np.array_equal([ctx.trace(ctx.mul(ctx.trh_lift, y)) for y in elements], traces)
    for name in ("log", "antilog", "subfield_elements"):
        assert getattr(ctx, name).dtype == np.int64


LAZY_TABLES = ("log", "antilog", "walsh_perm", "subfield_index")


def test_lazy_tables_are_the_four_2n_entry_tables():
    # every cached property of a context that refuses past TABLE_MAX_N is
    # one of LAZY_TABLES, and each of them refuses
    ctx = make_field(TABLE_MAX_N + 2)
    refusing = []
    for name, attr in vars(FieldCtx).items():
        if isinstance(attr, cached_property):
            try:
                getattr(ctx, name)
            except TooLarge:
                refusing.append(name)
    assert LAZY_TABLES == ("log", "antilog", "walsh_perm", "subfield_index")
    assert sorted(refusing) == sorted(LAZY_TABLES)


@pytest.mark.parametrize("n", [8, 16, 20])
def test_rarely_read_tables_are_built_on_first_read(n):
    # field info, a c from a power of beta, one spectrum, one rank and the
    # single-point form and sequence values read no 2^n-entry table
    ctx = make_field(n)
    assert (ctx.element_label(ctx.alpha), ctx.element_label(ctx.beta)) == (
        "a^1", f"a^{(1 << ctx.half) + 1}")
    params = qf.QuadFormParams(ctx, 1, 3, ctx.pow(ctx.beta, 3))
    qf.walsh_spectrum(params)
    qf.symplectic_rank(params)
    eval_f(params, 123)
    family = fam.family_params(ctx, "fk", 1)
    for tag in (fam.SequenceTag.gamma_delta(3, ctx.beta), fam.SequenceTag.zeta_eta(5, ctx.beta)):
        fam.sequence_term(family, tag, 99)
    assert not set(LAZY_TABLES) & set(vars(ctx))
    for name in LAZY_TABLES:
        got = getattr(ctx, name)
        assert not got.flags.writeable and getattr(ctx, name) is got
    if n > 16:
        return
    # walsh_perm[lam] has bit i = tr(lam alpha^i); alpha^i is 1 << i, and
    # tr(x) is the parity of x & mask, bit j of mask = tr(alpha^j)
    lams = np.arange(ctx.order, dtype=np.int64)
    mask = sum(ctx.trace(1 << j) << j for j in range(n))
    perm = sum((np.bitwise_count(ctx.scale_vec(1 << i, lams) & mask).astype(np.int64) & 1) << i
               for i in range(n))
    index = np.full(ctx.order, -1, dtype=np.int64)
    index[ctx.subfield_elements] = np.arange(1 << ctx.half)
    for name, want in (("walsh_perm", perm), ("subfield_index", index)):
        got = getattr(ctx, name)
        assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 14, 16, 18, 20])
def test_scalar_ops_match_the_tables(n):
    # every element up to n = 10, seeded samples with some of F above;
    # the scalar ops run before any table exists, then meet the tables
    ctx = make_field(n)
    rng = random.Random(n)
    if n <= 10:
        xs = list(range(ctx.order))
    else:
        xs = ([0, 1, ctx.group_order] + rng.sample(range(ctx.order), 200)
              + rng.sample(ctx.subfield_elements.tolist(), 40))
    consts = [rng.randrange(1, ctx.order) for _ in range(2)]
    exps = [0, 1, -1, rng.randrange(ctx.group_order), -rng.randrange(ctx.group_order)]
    got = [(x, [ctx.mul(a, x) for a in consts], [ctx.pow(x, e) for e in exps if x or e >= 0],
            ctx.pow(x, -1) if x else None, ctx.trace(x), ctx.in_subfield(x), ctx.element_label(x),
            frobenius(ctx, x, 3))
           for x in xs]
    assert not set(LAZY_TABLES) & set(vars(ctx))
    log, antilog, group = ctx.log, ctx.antilog, ctx.group_order

    def power(x, e):  # x^e from the tables
        return 1 if e == 0 else 0 if x == 0 else int(antilog[int(log[x]) * e % group])

    for x, muls, pows, inv, tr, in_f, label, frob in got:
        assert muls == [0 if x == 0 else int(antilog[(int(log[a]) + int(log[x])) % group])
                        for a in consts]
        assert pows == [power(x, e) for e in exps if x or e >= 0]
        assert inv == (power(x, -1) if x else None)
        assert tr == reduce(xor, (power(x, 1 << i) for i in range(n)))
        assert in_f == (ctx.subfield_index[x] >= 0)
        assert label == ("0" if x == 0 else f"a^{int(log[x])}")
        assert frob == power(x, 8)
    assert np.array_equal(ctx.beta_powers, antilog[: group : (1 << ctx.half) + 1])


@pytest.mark.parametrize("n", [8, 20])
def test_linear_map_paths_agree(n):
    # n-bit images, ints or 3-vectors, on inputs of every width from 1 to
    # 62: a few entries, and every scalar call, map straight from the
    # images and build no table, more than _DIRECT_PICKS picks go through
    # one table per input byte of at most 256 rows.  vec (into a fresh array
    # or into out) and the scalar call give the XOR of the images of the set
    # bits, the call also once the tables exist
    rng = np.random.default_rng(n)
    for bits in range(1, 63):
        for shape in ((bits,), (bits, 3)):
            images = rng.integers(0, 1 << n, size=shape)
            xs = rng.integers(0, 1 << bits, size=gf2n._DIRECT_PICKS // images.size + 1)
            want = np.zeros(xs.shape + shape[1:], dtype=np.int64)
            for j, image in enumerate(images):
                want ^= np.multiply.outer(xs >> j & 1, image)
            lmap = LinearMap(images)
            assert np.array_equal(lmap.vec(xs[:6].reshape(2, 3)),
                                  want[:6].reshape((2, 3) + shape[1:]))
            if len(shape) == 1:
                assert [lmap(x) for x in xs[:64].tolist()] == want[:64].tolist()
            assert "tables" not in vars(lmap)
            assert np.array_equal(lmap.vec(xs), want)
            assert len(lmap.tables) == -(-bits // 8)
            assert max(len(table) for table in lmap.tables) == min(1 << bits, 256)
            out = np.empty_like(want)
            assert lmap.vec(xs, out=out) is out and np.array_equal(out, want)
            if len(shape) == 1:
                assert [lmap(x) for x in xs[:64].tolist()] == want[:64].tolist()


def test_a_subfield_test_and_a_few_powers_build_no_table(monkeypatch):
    # the first QuadFormParams on a fresh n = 32 context tests c by mapping
    # it straight from the half Frobenius map's images, and up to
    # SCALAR_POWERS powers step straight from the images of x -> g x: no
    # table is built for either
    ctx = make_field(N_MAX)
    built = []
    monkeypatch.setattr(gf2n, "_linear_table",
                        lambda images: built.append(len(images)) or _linear_table(images))
    k = next(k for k in range(1, N_MAX) if qf.valid_k(N_MAX, k))
    qf.QuadFormParams(ctx, k, 3, ctx.beta)
    with pytest.raises(ValueError, match="not in the subfield"):
        qf.QuadFormParams(ctx, k, 3, ctx.alpha)
    assert ctx.powers(ctx.beta, SCALAR_POWERS).tolist() == [
        ctx.pow(ctx.beta, j) for j in range(SCALAR_POWERS)]
    assert built == []


@pytest.mark.parametrize("n", [8, 20])
def test_powers_agree_on_both_sides_of_the_image_steps(n):
    ctx = make_field(n)
    g = ctx.pow(ctx.alpha, 12345 % ctx.group_order)
    for count in (1, SCALAR_POWERS, SCALAR_POWERS + 1, (1 << 10) + 3):
        assert ctx.powers(g, count).tolist() == [ctx.pow(g, j) for j in range(count)]


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
        assert ctx6.mul(a, ctx6.pow(a, -1)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx6.pow(0, -1)


def test_pow_conventions(ctx4):
    for a in range(ctx4.order):
        assert ctx4.pow(a, 1) == a
    assert ctx4.pow(2, 15) == 1
    assert ctx4.pow(0, 0) == 1
    assert ctx4.pow(0, 3) == 0
    assert ctx4.pow(3, -1) == ctx4.pow(3, 14)


def test_norm_power_lands_in_subfield(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        e = (1 << ctx.half) + 1
        for x in range(ctx.order):
            y = ctx.pow(x, e)
            assert frobenius(ctx, y, ctx.half) == y


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
            inner = trace_to_subfield(ctx, x, ctx.half)
            assert ctx.in_subfield(inner)
            # the trace of inner from F onto GF(2): raw, and as tr(delta inner)
            half_trace = np.bitwise_xor.reduce(
                raw_frobenius_images(inner, ctx.poly, ctx.n, ctx.half - 1))
            assert ctx.trace(x) == half_trace == ctx.trace(ctx.mul(ctx.trh_lift, inner))


def test_trace_errors(ctx6):
    with pytest.raises(NonDivisor):
        trace_to_subfield(ctx6, 5, 4)


def test_subfield_trace_f_linearity(ctx6):
    # trace onto F is F-linear: tr(c * x) = c * tr(x) for c in F
    for c in ctx6.subfield_elements:
        c = int(c)
        for x in range(0, ctx6.order, 5):
            lhs = trace_to_subfield(ctx6, ctx6.mul(c, x), ctx6.half)
            rhs = ctx6.mul(c, trace_to_subfield(ctx6, x, ctx6.half))
            assert lhs == rhs


def test_frobenius(ctx4):
    for x in range(ctx4.order):
        assert frobenius(ctx4, x, 0) == x
        assert frobenius(ctx4, x, ctx4.n) == x
        assert ctx4.trace(frobenius(ctx4, x, 1)) == ctx4.trace(x)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_one_squaring_map_per_context(n):
    # x -> x^2 is built once: frobenius_map(1) is the squaring map itself
    ctx = make_field(n)
    assert ctx.frobenius_map(1) is ctx._square is ctx.frobenius_map(n + 1)
    assert ctx.frobenius_map(1).images.tolist() == [raw_mul(1 << j, 1 << j, ctx.poly, n)
                                                   for j in range(n)]


@pytest.mark.parametrize("n", [8, 20])
def test_frobenius_maps_are_repeated_squarings(n):
    # every x -> x^(2^i), built on first use from composed cached maps, in
    # a seeded order, against i raw squarings of the basis
    ctx = make_field(n)
    basis = np.array([1 << j for j in range(n)], dtype=np.int64)
    order = list(range(n))
    random.Random(n).shuffle(order)
    for i in order:
        assert np.array_equal(ctx.frobenius_map(i).images, raw_pow2_vec(basis, ctx.poly, n, i))
        assert ctx.frobenius_map(i + n) is ctx.frobenius_map(i)


@pytest.mark.parametrize("n", sorted(DEFAULT_POLYS))
def test_trace_mask_from_newtons_identities(n):
    # the mask from the power sums of the polynomial's roots is the one from
    # n - 1 raw squarings of every basis element
    assert make_field(n)._trace_mask == raw_trace_mask(DEFAULT_POLYS[n], n)


def test_a_trace_mask_from_another_polynomial_fails_the_check(monkeypatch):
    # 0x12b is primitive too, but the mask from its power sums is another
    # functional on the field of 0x11d: tr(a x) with a not in {0, 1}, so
    # tr(x^2) = tr(x) fails at some basis element
    assert make_field(8, 0x12B).poly == 0x12B
    power_sums = gf2n._power_sums
    monkeypatch.setattr(gf2n, "_power_sums", lambda poly, n: power_sums(0x12B, n))
    with pytest.raises(AssertionError, match=r"tr\(x\^2\) = tr\(x\)"):
        make_field(8)


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
    "inv": lambda ctx, x: ctx.pow(x, -1),
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
    for n in (4, 6, 8, 10):
        for k in range(1, n):
            d = math.gcd(n, k)
            want = 1 if (n // d) % 2 == 1 else (1 << d) + 1
            assert math.gcd((1 << k) + 1, (1 << n) - 1) == want


def test_element_labels(ctx4):
    assert ctx4.element_label(0) == "0"
    assert ctx4.element_label(1) == "a^0"
    assert element_from_label(ctx4, "a^4") == ctx4.pow(2, 4)
    assert element_from_label(ctx4, "0") == 0
    assert ctx4.element_labels() == [ctx4.element_label(x) for x in range(ctx4.order)]


def test_kernel_basis_helper():
    # identity map has trivial kernel; zero map has full kernel
    assert gf2_kernel_basis([1 << j for j in range(4)]) == []
    assert len(gf2_kernel_basis([0] * 4)) == 4


def apply_map(images, x):
    """The image of x under the GF(2)-linear map sending 1<<j to images[j]."""
    out = 0
    for j, img in enumerate(images):
        if x >> j & 1:
            out ^= img
    return out


@pytest.mark.parametrize("n", range(1, 21))
def test_unit_preimages_and_kernel_share_one_reduction(n):
    # seeded random n-bit maps: invertible ones by column operations on a
    # unit triangular map, then made singular by replacing images with
    # sums of the others
    rng = random.Random(n)
    for _ in range(4):
        images = [1 << j | rng.randrange(1 << j) for j in range(n)]
        for _ in range(2 * n if n > 1 else 0):
            a, b = rng.sample(range(n), 2)
            images[a] ^= images[b]
        assert gf2_kernel_basis(images) == []
        preimages = _unit_preimages(images)
        assert [apply_map(images, p) for p in preimages] == [1 << i for i in range(n)]
        for i in rng.sample(range(n), rng.randint(1, n)):
            images[i] = apply_map(images, rng.randrange(1 << n) & ~(1 << i))
        kernel = gf2_kernel_basis(images)
        assert _unit_preimages(images) is None
        assert kernel and all(apply_map(images, v) == 0 for v in kernel)
        # the leading bits strictly increase, which keeps subfield_elements sorted
        leads = [v.bit_length() for v in kernel]
        assert leads == sorted(set(leads))


def test_vector_helpers_match_scalar(ctx6):
    xs = np.arange(ctx6.order, dtype=np.int64)
    sv = ctx6.scale_vec(13, xs)
    pv = ctx6.pow_vec(xs, 5)
    fv = ctx6.frob_vec(xs, 3)
    for x in range(ctx6.order):
        assert int(sv[x]) == ctx6.mul(13, x)
        assert int(pv[x]) == ctx6.pow(x, 5)
        assert int(fv[x]) == frobenius(ctx6, x, 3)


def test_tables_are_read_only(ctx4):
    with pytest.raises(ValueError):
        ctx4.log[1] = 0
    with pytest.raises(ValueError):
        ctx4.dual_basis[0] = 1


@pytest.mark.parametrize("n", range(4, 21, 2))
def test_dual_basis_is_trace_dual(n):
    # tr(alpha^j d_i) = 1 exactly when i = j, i.e. walsh_perm[d_i] = 1 << i
    ctx = make_field(n)
    assert ctx.dual_basis.dtype == np.int64 and ctx.dual_basis.shape == (n,)
    assert [int(ctx.walsh_perm[d]) for d in ctx.dual_basis] == [1 << i for i in range(n)]
    if n <= 8:
        for i, d in enumerate(ctx.dual_basis.tolist()):
            assert [ctx.trace(ctx.mul(1 << j, d)) for j in range(n)] == [int(i == j) for j in range(n)]


@pytest.mark.parametrize("c", [-1, 16])
def test_scaling_rejects_non_elements(ctx4, c):
    # -1 must not wrap onto 15, and 16 must not reach past the tables
    xs = np.arange(16, dtype=np.int64)
    with pytest.raises(ValueError, match="not an element"):
        ctx4.scale_vec(c, xs)
    assert not hasattr(ctx4, "scale_all")


@pytest.mark.parametrize("xs", [[-1], [16], [3, -1, 5], [[0, 16]]])
def test_vector_ops_reject_non_elements(ctx4, xs):
    # at n = 4, -1 used to wrap: scale_vec(3, [-1]) gave [2], pow_vec([-1], 3)
    # gave [12] and frob_vec([-1, 16], 1) gave [10, 0]
    with pytest.raises(ValueError, match="must lie in"):
        ctx4.scale_vec(3, xs)
    with pytest.raises(ValueError, match="must lie in"):
        ctx4.pow_vec(xs, 3)
    with pytest.raises(ValueError, match="must lie in"):
        ctx4.frob_vec(xs, 1)


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_cyclotomic_classes_partition_the_residues(n):
    # n = 16 takes the moduli form_classes reads at n = 32: 2^16 - 1, mult 2 and 4
    for modulus, mult in (((1 << n) - 1, 2), ((1 << n) - 1, 4), ((1 << n // 2) - 1, 2)):
        leaders, index = cyclotomic_classes(modulus, mult)
        assert index.shape == (modulus,) and np.all(np.diff(leaders) > 0)
        classes = {}
        for l in range(modulus):
            classes.setdefault(int(index[l]), set()).add(l)
        assert sorted(classes) == list(range(len(leaders)))
        for i, members in classes.items():
            # a class is closed under l -> mult l and led by its least residue
            assert {mult * l % modulus for l in members} == members
            assert min(members) == leaders[i]
            assert members == {pow(mult, j, modulus) * int(leaders[i]) % modulus
                               for j in range(n)}
        assert np.bincount(index).sum() == modulus


def test_cyclotomic_classes_of_2_mod_15():
    leaders, index = cyclotomic_classes(15, 2)
    assert leaders.tolist() == [0, 1, 3, 5, 7]
    assert np.bincount(index).tolist() == [1, 4, 4, 2, 4]
    assert cyclotomic_classes(1, 2)[0].tolist() == [0]
    with pytest.raises(ValueError, match="not a unit"):
        cyclotomic_classes(15, 3)
