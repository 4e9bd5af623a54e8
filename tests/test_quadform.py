import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from gkasami import families as fam
from gkasami import fieldeq
from gkasami import gf2n
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import N_MAX, TABLE_MAX_N, TooLarge, gf2_kernel_basis, make_field

from reference import (class_rows, count_affine_roots, count_kernel_roots, count_reduced_roots,
                       dual_truth_table, eval_f, frobenius, orbit_representatives,
                       spectra_block, spectrum_distribution, truth_table, walsh_point)
from test_gf2n import raw_mul_vec, raw_pow2_vec, raw_trace_mask


def all_params(ctx, k):
    for b in range(ctx.order):
        for c in ctx.subfield_elements:
            yield qf.QuadFormParams(ctx, k, b, int(c))


def test_valid_k_matches_parity_form():
    for n in (4, 6, 8, 10, 12):
        want_gcd = 2 if (n // 2) % 2 == 1 else 1
        for k in range(1, n):
            parity_ok = math.gcd(k, n) == want_gcd
            assert qf.valid_k(n, k) == parity_ok
    assert not qf.valid_k(6, 3)  # k = n/2 never valid
    assert not qf.valid_k(6, 0)
    assert not qf.valid_k(6, 6)


def test_params_validation(ctx6):
    with pytest.raises(qf.InvalidK):
        qf.QuadFormParams(ctx6, 3, 1, 0)
    with pytest.raises(ValueError):
        qf.QuadFormParams(ctx6, 2, 1, 2)  # 2 = alpha is not in F at n=6


@pytest.mark.parametrize("c", [-15, 16])
def test_c_outside_the_field_is_not_in_the_subfield(ctx4, c):
    # -15 must not wrap onto 1, and 16 = 2^4 must not reach past the tables
    with pytest.raises(ValueError, match="not in the subfield"):
        qf.QuadFormParams(ctx4, 1, 0, c)
    with pytest.raises(ValueError, match="not in the subfield"):
        spectra_block(ctx4, 1, [1], [c])
    with pytest.raises(ValueError, match="not in the subfield"):
        qf.transform_column(ctx4, 1, [c], 0)


def test_eval_f_trivial(ctx4):
    zero = qf.QuadFormParams(ctx4, 1, 0, 0)
    assert all(eval_f(zero, x) == 0 for x in range(16))
    some = qf.QuadFormParams(ctx4, 1, 5, 1)
    assert eval_f(some, 0) == 0


def test_eval_f_matches_truth_table(ctx6):
    rng = np.random.RandomState(3)
    for _ in range(10):
        b = int(rng.randint(0, ctx6.order))
        c = int(ctx6.subfield_elements[rng.randint(0, 8)])
        p = qf.QuadFormParams(ctx6, 2, b, c)
        tt = truth_table(p)
        for x in range(ctx6.order):
            assert eval_f(p, x) == int(tt[x])


def test_walsh_point_trivial_cases(ctx6):
    zero = qf.QuadFormParams(ctx6, 2, 0, 0)
    assert walsh_point(zero, 0) == 64
    for lam in range(1, 64):
        assert walsh_point(zero, lam) == 0
    for c in ctx6.subfield_elements[1:]:
        assert walsh_point(qf.QuadFormParams(ctx6, 2, 0, int(c)), 0) == -8


def test_reference_oracles_call_no_engine_route(monkeypatch, ctx6):
    # with every engine route they check patched to raise, the oracles still
    # give their known values at n = 6
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called an engine route")

    for name in ("_polar_rows", "_eliminate", "_eliminate_one", "walsh_spectra", "fwht",
                 "transform_column"):
        monkeypatch.setattr(qf, name, refuse)
    monkeypatch.setattr(fieldeq, "theta_root_counts", refuse)
    zero, pure_norm = qf.QuadFormParams(ctx6, 2, 0, 0), qf.QuadFormParams(ctx6, 2, 0, 1)
    assert walsh_point(zero, 0) == 64 and walsh_point(pure_norm, 0) == -8
    assert sum(1 - 2 * eval_f(pure_norm, x) for x in range(ctx6.order)) == -8
    assert count_affine_roots(ctx6, 1, 0, 1, 1) == 3
    thetas = range(1, ctx6.order)
    assert sum(count_kernel_roots(ctx6, t, 2) == 3 for t in thetas) == 36
    assert [sum(count == 3 for count in counts)
            for counts in zip(*(count_reduced_roots(ctx6, t, 2) for t in thetas))] == [36, 36]


def test_scaling_identity_for_pure_quad(ctx4):
    # transform at a of the form with coefficient b*a^(2^k+1) equals the
    # transform at 1 of the form with coefficient b
    e1 = (1 << 1) + 1
    for b in range(1, 16):
        base = walsh_point(qf.QuadFormParams(ctx4, 1, b, 0), 1)
        for a in range(1, 16):
            scaled = ctx4.mul(b, ctx4.pow(a, e1))
            assert walsh_point(qf.QuadFormParams(ctx4, 1, scaled, 0), a) == base


def test_spectrum_equals_point_exhaustive_n4(ctx4):
    for p in all_params(ctx4, 1):
        spec = qf.walsh_spectrum(p)
        for lam in range(16):
            assert int(spec[lam]) == walsh_point(p, lam)


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1)])
def test_spectrum_equals_point_sampled(n, k):
    ctx = make_field(n)
    rng = np.random.RandomState(n)
    for _ in range(8):
        b = int(rng.randint(0, ctx.order))
        c = int(ctx.subfield_elements[rng.randint(0, 1 << ctx.half)])
        p = qf.QuadFormParams(ctx, k, b, c)
        spec = qf.walsh_spectrum(p)
        assert spec.dtype == np.int32
        for lam in rng.randint(0, ctx.order, size=12):
            assert int(spec[int(lam)]) == walsh_point(p, int(lam))


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12]
                         + [pytest.param(n, marks=pytest.mark.slow) for n in (14, 16)])
def test_walsh_spectra_rows_are_the_one_form_spectra(n):
    # every orbit representative of every admissible k (the zero form and
    # the c = 0 ones among them) and seeded (b, 0) and (b, c) forms, in
    # batches of up to 64: each row is walsh_spectrum of its form and
    # walsh_point at seeded lambdas
    ctx = make_field(n)
    rng = np.random.default_rng(300 + n)
    sub = ctx.subfield_elements
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        reps_b, reps_c, _ = orbit_representatives(ctx, k)
        bs = np.concatenate([reps_b, rng.integers(1, ctx.order, 8)])
        cs = np.concatenate([reps_c, np.zeros(4, np.int64), rng.choice(sub[1:], 4)])
        assert (bs[0], cs[0]) == (0, 0) and np.count_nonzero(cs == 0) > 4
        for lo in range(0, len(bs), 64):
            block_b, block_c = bs[lo : lo + 64], cs[lo : lo + 64]
            spectra = qf.walsh_spectra(ctx, k, block_b, block_c)
            assert spectra.dtype == np.int32 and spectra.shape == (len(block_b), ctx.order)
            for b, c, spec in zip(block_b.tolist(), block_c.tolist(), spectra):
                params = qf.QuadFormParams(ctx, k, b, c)
                assert np.array_equal(spec, qf.walsh_spectrum(params))
                for lam in rng.integers(0, ctx.order, 2).tolist():
                    assert int(spec[lam]) == walsh_point(params, lam)


def test_walsh_spectrum_exact_at_n20():
    # the transform's widest values, +-2^20, must come out exact
    ctx = make_field(20)
    zero = qf.walsh_spectrum(qf.QuadFormParams(ctx, 1, 0, 0))
    assert zero.dtype == np.int32
    assert int(zero[0]) == 1 << 20 and not zero[1:].any()
    spec = qf.walsh_spectrum(qf.QuadFormParams(ctx, 3, 123457, int(ctx.beta))).astype(np.int64)
    assert int((spec * spec).sum()) == 1 << 40


def sylvester_product(a, m):
    """a @ H_{2^m} with the dense Sylvester matrix H[i, j] = (-1)^popcount(i & j),
    2^10 columns at a time, in float64 (exact for these small integers)."""
    i = np.arange(1 << m)
    out = np.empty(a.shape, dtype=np.int64)
    for lo in range(0, 1 << m, 1 << 10):
        j = i[lo : lo + (1 << 10)]
        h = 1.0 - 2.0 * (np.bitwise_count(i[:, None] & j) & 1)
        out[..., lo : lo + j.size] = a.astype(np.float64) @ h
    return out


@pytest.mark.parametrize("m", range(13))
def test_fwht_matches_dense_sylvester(m):
    rng = np.random.default_rng(m)
    inputs = [rng.integers(-40, 41, size=shape)
              for shape in [(1 << m,), (3, 1 << m), (2, 3, 1 << m)]]
    inputs.append(1 - 2 * rng.integers(0, 2, size=(4, 1 << m), dtype=np.int8))
    want = sylvester_product(np.concatenate([a.reshape(-1, 1 << m) for a in inputs]), m)
    row = 0
    for a in inputs:
        got = qf.fwht(a)
        assert got.dtype == np.int64 and got.shape == a.shape
        rows = a.size >> m
        assert np.array_equal(got.reshape(rows, -1), want[row : row + rows])
        row += rows


def test_fwht_refuses_an_l1_norm_of_2_24():
    # below the bound every partial sum is exact in float32
    top = (1 << 24) - 1
    assert qf.fwht(np.array([top - 3, 3])).tolist() == [top, top - 6]
    with pytest.raises(ValueError, match="L1 norm"):
        qf.fwht(np.array([1 << 23, -(1 << 23)]))
    with pytest.raises(ValueError, match="L1 norm"):
        qf.fwht(np.array([[1, 0], [1 << 24, 0]]))  # one row past the bound
    with pytest.raises(ValueError, match="L1 norm"):
        qf.fwht(np.full((1, 1 << 12), 1 << 12))
    with pytest.raises(ValueError, match="power-of-2"):
        qf.fwht(np.zeros(6, dtype=np.int64))
    with pytest.raises(TypeError):
        qf.fwht(np.zeros(4))


def test_fwht_checks_the_l1_norm_when_the_magnitude_bound_fails():
    # max |a| * 2^m = 2^30 fails the cheap bound, yet L1 = 2^20 + 3069 is
    # below 2^24, so the row sums admit the row and it transforms exactly
    a = np.full(1 << 10, -3, dtype=np.int64)
    a[5] = 1 << 20
    assert qf.fwht(a).tolist() == sylvester_product(a[None], 10)[0].tolist()
    # int8 -128 must not wrap to a negative bound: L1 = 2^24 is refused
    with pytest.raises(ValueError, match="L1 norm"):
        qf.fwht(np.full(1 << 17, -128, dtype=np.int8))
    assert qf.fwht(np.full(1 << 16, -128, dtype=np.int8))[0] == -(1 << 23)


def butterfly_route(params):
    """Reference: the trace_rows truth table indexed by x, an int64 butterfly,
    then the walsh_perm reindexing."""
    w = 1 - 2 * truth_table(params).astype(np.int64)
    h = 1
    while h < w.size:
        blk = w.reshape(-1, 2, h)
        x = blk[:, 0, :].copy()
        blk[:, 0, :] += blk[:, 1, :]
        blk[:, 1, :] = x - blk[:, 1, :]
        h *= 2
    return w[params.ctx.walsh_perm]


def test_walsh_spectrum_matches_butterfly_route_n6(ctx6):
    for k in (2, 4):
        for p in all_params(ctx6, k):
            assert np.array_equal(qf.walsh_spectrum(p), butterfly_route(p))


@pytest.mark.parametrize("n", range(8, 17, 2))
def test_walsh_spectrum_matches_butterfly_route(n):
    ctx = make_field(n)
    rng = np.random.default_rng(100 + n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        b = int(rng.integers(1, ctx.order))
        c = int(ctx.subfield_elements[rng.integers(1, 1 << ctx.half)])
        for bc in [(b, 0), (0, c), (b, c)]:
            p = qf.QuadFormParams(ctx, k, *bc)
            assert np.array_equal(qf.walsh_spectrum(p), butterfly_route(p))


def test_walsh_spectrum_in_small_blocks(monkeypatch):
    # a narrow _COLUMNS sends most steps one row at a time through the
    # column take and the reversed axes, and the first steps through the
    # batch's one take; every row of a batch is the butterfly route's
    for columns in (1, 1 << 3):
        monkeypatch.setattr(qf, "_COLUMNS", np.arange(columns))
        for n in (4, 6, 12):
            ctx = make_field(n)
            k = 1 if n % 4 == 0 else 2
            bs, cs = np.array([77 % ctx.order, 0, 5]), np.array([int(ctx.beta), 1, 0])
            for b, c, spec in zip(bs.tolist(), cs.tolist(), qf.walsh_spectra(ctx, k, bs, cs)):
                assert np.array_equal(spec, butterfly_route(qf.QuadFormParams(ctx, k, b, c)))


def direct_sums(params, j):
    """W_j[mu] = sum over y < 2^j of (-1)^(g(y) + mu.y), from the truth table
    at the dual points, 2^8 mu at a time."""
    g = truth_table(params)[dual_points(params.ctx)[: 1 << j]].astype(np.int64)
    y = np.arange(1 << j)
    return np.concatenate([(1 - 2 * ((g + np.bitwise_count(y & mu[:, None])) & 1)).sum(axis=1)
                           for mu in np.arange(1 << j).reshape(-1, min(1 << j, 1 << 8))])


@pytest.mark.parametrize("columns", [1, 4, 1 << 10])
@pytest.mark.parametrize("n", [6, 8])
def test_step_doubles_the_sums_over_the_dual_bits(monkeypatch, n, columns):
    # the batch's first j + 1 steps, and one form's step j from the direct
    # W_j in place once W_j fills _COLUMNS, against the direct sums over
    # j + 1 bits; a narrow _COLUMNS puts every bit of s past the first few
    # on a reversed axis
    monkeypatch.setattr(qf, "_COLUMNS", np.arange(columns))
    ctx = make_field(n)
    rng = np.random.default_rng(n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        b, c = int(rng.integers(1, ctx.order)), int(rng.choice(ctx.subfield_elements[1:]))
        batch = [qf.QuadFormParams(ctx, k, *bc) for bc in [(b, c), (b, 0), (0, c)]]
        rows = qf._polar_rows(ctx, k, np.array([b, b, 0]), np.array([c, 0, c]))
        for j in range(n):
            want = np.stack([direct_sums(p, j + 1) for p in batch])
            if 2 << j <= columns:
                w = np.zeros((len(batch), 1 << n), dtype=np.int32)
                w[:, 0] = 1
                qf._low_steps(w, np.zeros(len(batch) << n, dtype=np.int32), rows, j + 1)
                assert np.array_equal(w[:, : 2 << j], want)
            if 1 << j >= columns:
                for p, row, one in zip(batch, rows.tolist(), want):
                    w = np.zeros(1 << n, dtype=np.int32)
                    w[: 1 << j] = direct_sums(p, j)
                    qf._step(w, np.zeros(1 << n, dtype=np.int32), j, row[j])
                    assert np.array_equal(w[: 2 << j], one)
        for p in batch:
            assert np.array_equal(qf.walsh_spectrum(p), butterfly_route(p))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_step_in_narrow_blocks_matches_the_direct_sums(monkeypatch, n):
    # blocks of 2 rows of 4 columns: step j meets a partner block where bit
    # 1 or higher of h = s // 4 is set, and flips the two rows inside a
    # block where bit 0 of h is (from j = 3 on); both happen among these
    # forms.  tmp is exactly the two blocks _step is documented to need
    monkeypatch.setattr(qf, "_COLUMNS", np.arange(4))
    monkeypatch.setattr(qf, "_BLOCK_ROWS", 2)
    ctx = make_field(n)
    rng = np.random.default_rng(500 + n)
    k = next(k for k in range(1, n) if qf.valid_k(n, k))
    b, c = int(rng.integers(1, ctx.order)), int(rng.choice(ctx.subfield_elements[1:]))
    seen = set()
    for p in (qf.QuadFormParams(ctx, k, b, c), qf.QuadFormParams(ctx, k, b, 0)):
        rows = qf._polar_rows(ctx, k, [p.b], [p.c])[0].tolist()
        have = direct_sums(p, 2)
        for j in range(2, n):
            h = (rows[j] & (1 << j) - 1) >> 2
            seen |= {"partner"} if h >> 1 else set()
            seen |= {"flip"} if h & 1 and j >= 3 else set()
            w = np.zeros(1 << n, dtype=np.int32)
            w[: 1 << j] = have
            qf._step(w, np.zeros(min(16, 1 << j), dtype=np.int32), j, rows[j])
            have = direct_sums(p, j + 1)
            assert np.array_equal(w[: 2 << j], have)
        assert np.array_equal(qf.walsh_spectrum(p), butterfly_route(p))
    assert seen == {"partner", "flip"}


def test_walsh_spectrum_calls_no_matmul(monkeypatch):
    ctx = make_field(16)
    params = qf.QuadFormParams(ctx, 1, 12345, int(ctx.beta))
    want = butterfly_route(params)

    def refuse(*args, **kwargs):
        raise AssertionError("walsh_spectrum called np.matmul")

    monkeypatch.setattr(np, "matmul", refuse)
    assert np.array_equal(qf.walsh_spectrum(params), want)


def test_walsh_spectrum_allocates_only_its_result():
    # the int32 result and min(two blocks, 2^(n-1)) int32 of scratch, a
    # block being 32 rows of 1024 values, plus index and iterator buffers of
    # fixed size: 6 bytes per value at n = 16, and 4 bytes per value plus
    # two blocks (256 KB) at n = 20
    for n, want in ((16, 6 << 16), (20, (4 << 20) + (256 << 10))):
        ctx = make_field(n)
        params = qf.QuadFormParams(ctx, 1, 4321, int(ctx.beta))
        qf.walsh_spectrum(params)  # the context's scalar tables, built once
        tracemalloc.start()
        try:
            qf.walsh_spectrum(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert want <= peak <= want + (1 << 16)


@pytest.mark.parametrize("lam", [-1, 16])
def test_lambda_must_be_a_field_element(ctx4, lam):
    # -1 used to wrap onto 15 and return walsh_point(p, 15)
    p = qf.QuadFormParams(ctx4, 1, 3, 1)
    with pytest.raises(ValueError, match="not an element"):
        walsh_point(p, lam)
    with pytest.raises(ValueError, match="not an element"):
        qf.transform_column(ctx4, 1, [1], lam)


def test_parseval(ctx6):
    rng = np.random.RandomState(7)
    for _ in range(6):
        b = int(rng.randint(0, 64))
        c = int(ctx6.subfield_elements[rng.randint(0, 8)])
        spec = qf.walsh_spectrum(qf.QuadFormParams(ctx6, 2, b, c)).astype(object)
        assert int((spec * spec).sum()) == 2**12


def test_pure_quad_spectrum_support_odd_half(ctx6):
    # n = 2 mod 4: every b in E*, c = 0 gives values in {0, +-2^{n/2+1}}
    for b in range(1, 64):
        spec = qf.walsh_spectrum(qf.QuadFormParams(ctx6, 2, b, 0))
        assert set(np.unique(spec)) <= {-16, 0, 16}


def brute_radical_dim(ctx, p):
    """Definition-level radical: z such that f(x)+f(z)+f(x+z) = 0 for all x."""
    tt = truth_table(p)
    dim = 0
    for z in range(ctx.order):
        if all(tt[x] ^ tt[z] ^ tt[x ^ z] == 0 for x in range(ctx.order)):
            dim += 1
    return dim.bit_length() - 1  # radical size is a power of two


def scalar_rank(ctx, k, b, c):
    """Reference: n minus the kernel dimension of the linearized map
    L(z) = b^(2^{n-k}) z^(2^{n-k}) + b z^(2^k) + c z^(2^{n/2}),
    one scalar image at a time."""
    n = ctx.n
    bq = frobenius(ctx, b, n - k)

    def lin_map(z):
        return (ctx.mul(bq, frobenius(ctx, z, n - k))
                ^ ctx.mul(b, frobenius(ctx, z, k))
                ^ ctx.mul(c, frobenius(ctx, z, ctx.half)))

    return n - len(gf2_kernel_basis([lin_map(1 << j) for j in range(n)]))


def table_rank(ctx, k, b, c):
    """Reference from the log/antilog tables: the images
    L(alpha^j) = b^(2^{n-k}) alpha^(j 2^{n-k}) + b alpha^(j 2^k) + c alpha^(j 2^{n/2}),
    each product a sum of logs."""
    n, group = ctx.n, ctx.group_order

    def times(x, e):  # x * alpha^e
        return 0 if x == 0 else int(ctx.antilog[(int(ctx.log[x]) + e) % group])

    bq = 0 if b == 0 else int(ctx.antilog[(int(ctx.log[b]) << (n - k)) % group])
    images = [times(bq, j << (n - k)) ^ times(b, j << k) ^ times(c, j << ctx.half)
              for j in range(n)]
    return n - len(gf2_kernel_basis(images))


def dual_points(ctx):
    """The points sum_i y_i d_i over the dual basis, for every y in integer order."""
    y = np.arange(ctx.order, dtype=np.int64)
    points = np.zeros_like(y)
    for i, d in enumerate(ctx.dual_basis.tolist()):
        points ^= ((y >> i) & 1) * d
    return points


@pytest.mark.parametrize("n", [16, 18, 20])
def test_spectra_and_ranks_match_the_tables_at_large_n(n):
    # the whole spectrum against fwht of the table route truth_table, read
    # at the points sum_i y_i d_i: every admissible k at n = 16, the first
    # two at n = 18 and 20; ranks of seeded forms against table_rank
    ctx = make_field(n)
    rng = np.random.default_rng(n)
    points = dual_points(ctx)
    sub = ctx.subfield_elements
    ks = [k for k in range(1, n) if qf.valid_k(n, k)]
    for i, k in enumerate(ks):
        b, c = int(rng.integers(1, ctx.order)), 0 if i % 3 == 0 else int(rng.choice(sub))
        params = qf.QuadFormParams(ctx, k, b, c)
        if n == 16 or i < 2:
            want = qf.fwht(1 - 2 * truth_table(params)[points].view(np.int8))
            assert np.array_equal(qf.walsh_spectrum(params), want)
        bs, cs = rng.integers(0, ctx.order, 24), sub[rng.integers(0, sub.size, 24)]
        assert qf.symplectic_ranks(ctx, k, bs, cs).tolist() == [
            table_rank(ctx, k, int(bb), int(cc)) for bb, cc in zip(bs, cs)]
        assert qf.symplectic_ranks(ctx, k, bs, c).tolist() == [
            table_rank(ctx, k, int(bb), c) for bb in bs]


@pytest.mark.parametrize("n", [8, 10])
def test_polar_rows_match_the_truth_table(n):
    # bit j of row j is g(e_j), and bit i != j is the pair sum
    # B(d_i, d_j) = g(e_i + e_j) + g(e_i) + g(e_j), at the dual points
    ctx = make_field(n)
    points = dual_points(ctx)
    rng = np.random.default_rng(n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        c = int(rng.choice(ctx.subfield_elements))
        for b in (0, int(rng.integers(1, ctx.order))):
            params = qf.QuadFormParams(ctx, k, b, c)
            tt = truth_table(params)[points]
            rows = qf._polar_rows(ctx, k, [b], [c])[0].tolist()
            assert len(rows) == n
            for j, row in enumerate(rows):
                assert 0 <= row < ctx.order
                assert row >> j & 1 == tt[1 << j]
                for i in (i for i in range(n) if i != j):
                    pair = tt[1 << i | 1 << j] ^ tt[1 << i] ^ tt[1 << j]
                    assert row >> i & 1 == pair


@pytest.mark.parametrize("n", range(4, N_MAX + 1, 2))
def test_one_form_polar_rows_are_the_map_rows(n):
    # one form's rows come straight from its n products, a batch's through
    # the two _polar_maps, whose images are the rows of the basis forms
    ctx = make_field(n)
    rng = np.random.default_rng(700 + n)
    b = int(rng.integers(1, ctx.order))
    c = ctx.pow(ctx.beta, int(rng.integers(0, (1 << ctx.half) - 1)))
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        c_map, b_map = qf._polar_maps(ctx, k)
        for bb, cc in ((b, 0), (b, c), (0, c)):
            one = qf._polar_rows(ctx, k, [bb], [cc])
            assert one.shape == (1, n)
            assert np.array_equal(one[0], b_map.vec(bb) ^ c_map.vec(cc))
            batch = qf._polar_rows(ctx, k, np.array([bb, 1]), np.array([cc, 0]))
            assert np.array_equal(batch[0], one[0])


def test_one_form_builds_no_polar_map(monkeypatch):
    # walsh_spectrum and one-form form_values (the small Kasami engine's
    # call) read one form's rows from its products; a batch builds the two maps
    ctx = make_field(10)
    k = next(k for k in range(1, 10) if qf.valid_k(10, k))
    built, polar_maps = [], qf._polar_maps
    monkeypatch.setattr(qf, "_polar_maps", lambda ctx, k: built.append(k) or polar_maps(ctx, k))
    params = qf.QuadFormParams(ctx, k, 77, ctx.beta)
    spec = qf.walsh_spectrum(params)
    lams = np.arange(0, ctx.order, 37)
    at = [qf.form_values(ctx, k, [77], [ctx.beta], lam) for lam in lams.tolist()]
    small = qf.form_values(ctx, k, [0], [1])
    assert built == []
    assert np.array_equal(qf.walsh_spectra(ctx, k, np.array([77, 0]), np.array([ctx.beta, 1]))[0],
                          spec)
    assert built == [k]
    assert [w.item() for w, _ in at] == spec[lams].tolist()
    assert {rank.item() for _, rank in at} == {qf.symplectic_rank(params)}
    batch = qf.form_values(ctx, k, np.zeros(2, np.int64), np.ones(2, np.int64))
    assert [a.tolist() for a in small] == [a[:1].tolist() for a in batch]


@pytest.mark.slow
@pytest.mark.parametrize("n", [18, 20])
def test_walsh_spectrum_matches_the_whole_dual_table(n):
    ctx = make_field(n)
    rng = np.random.default_rng(200 + n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        c = int(rng.choice(ctx.subfield_elements))
        params = qf.QuadFormParams(ctx, k, int(rng.integers(1, ctx.order)), c)
        want = qf.fwht(1 - 2 * dual_truth_table(params).view(np.int8))
        assert np.array_equal(qf.walsh_spectrum(params), want)


def test_walsh_spectrum_refuses_fields_past_int32():
    # its values reach 2^n, so int32 would not hold them at n = 32
    params = qf.QuadFormParams(make_field(N_MAX), 1, 3, 1)
    with pytest.raises(ValueError, match="int32"):
        qf.walsh_spectrum(params)


@pytest.mark.parametrize("n", range(TABLE_MAX_N + 2, N_MAX + 1, 2))
def test_whole_spectra_refuse_past_the_table_cap(n):
    # 2^n values per form: refused, naming the cap, before any array of
    # them is allocated (16 MB at n = 22, 16 GB at n = 32)
    ctx = make_field(n)
    k = next(k for k in range(1, n) if qf.valid_k(n, k))
    params = qf.QuadFormParams(ctx, k, 3, 1)
    tracemalloc.start()
    try:
        for call in (lambda: qf.walsh_spectrum(params),
                     lambda: qf.walsh_spectra(ctx, k, np.array([0, 3]), np.array([1, 1]))):
            with pytest.raises(TooLarge, match=rf"n <= {TABLE_MAX_N} \(TABLE_MAX_N\), not n = {n}"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_symplectic_ranks_allocate_their_result_and_one_block():
    # a (2^12 - 1) x 64 grid broadcast from a column of b and a row of c:
    # blocks are read from the broadcast views, so no int64 copy of the grid
    # (2 MB each) is made, only the result and one block's work arrays: the
    # block's images read into one (_RANK_BLOCK, n) int64 buffer, one byte
    # table's gather of that size, and the narrow image-major copy
    ctx = make_field(12)
    bs, cs = np.arange(1, ctx.order)[:, None], ctx.subfield_elements[None, :]
    qf.symplectic_ranks(ctx, 1, bs[:5], cs)  # the context's ladder and Frobenius maps
    tracemalloc.start()
    try:
        ranks = qf.symplectic_ranks(ctx, 1, bs, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.shape == (ctx.group_order, 64)
    assert ranks.nbytes <= peak <= ranks.nbytes + 3 * qf._RANK_BLOCK * ctx.n * 8
    for i, j in [(0, 0), (100, 7), (4094, 63)]:
        params = qf.QuadFormParams(ctx, 1, int(bs[i, 0]), int(cs[0, j]))
        assert ranks[i, j] == qf.symplectic_rank(params)


def test_symplectic_rank_matches_definition_exhaustive_n4(ctx4):
    for c in ctx4.subfield_elements.tolist():
        batched = qf.symplectic_ranks(ctx4, 1, range(ctx4.order), c)
        for b in range(ctx4.order):
            p = qf.QuadFormParams(ctx4, 1, b, c)
            want = ctx4.n - brute_radical_dim(ctx4, p)
            assert batched[b] == want
            if b or c:
                assert qf.symplectic_rank(p) == want and want % 2 == 0


@pytest.mark.parametrize("n,k", [(6, 2), (6, 4), (8, 1), (8, 3), (10, 2), (12, 1), (12, 5)])
def test_symplectic_ranks_match_scalar_reference(n, k):
    # every (b, c) up to n = 8; beyond that every b with c in {0, 1, beta^3}
    ctx = make_field(n)
    cs = ctx.subfield_elements.tolist() if n <= 8 else [0, 1, ctx.pow(ctx.beta, 3)]
    bs = np.arange(ctx.order)
    for c in cs:
        got = qf.symplectic_ranks(ctx, k, bs, c)
        assert got.tolist() == [scalar_rank(ctx, k, b, c) for b in range(ctx.order)]
    # c broadcast against bs gives the same ranks as one c at a time
    grid = qf.symplectic_ranks(ctx, k, bs[:, None], np.array(cs)[None, :])
    assert grid.T.tolist() == [qf.symplectic_ranks(ctx, k, bs, c).tolist() for c in cs]


def test_symplectic_ranks_blocking_keeps_ranks_and_shape(monkeypatch, ctx8):
    # forms are reduced _RANK_BLOCK at a time; blocks that split the E x F
    # grid raggedly, mid-row, give the ranks of one whole-grid reduction
    bs = np.arange(ctx8.order)[:, None]
    cs = ctx8.subfield_elements[None, :]
    whole = qf.symplectic_ranks(ctx8, 3, bs, cs)
    assert whole.shape == (ctx8.order, 16)
    monkeypatch.setattr(qf, "_RANK_BLOCK", 1000)
    assert np.array_equal(qf.symplectic_ranks(ctx8, 3, bs, cs), whole)


def test_symplectic_ranks_reject_bad_input(ctx4):
    with pytest.raises(ValueError, match="must lie in"):
        qf.symplectic_ranks(ctx4, 1, [0, 16], 1)
    with pytest.raises(ValueError, match="not in the subfield"):
        qf.symplectic_ranks(ctx4, 1, [1], [1, 2])
    with pytest.raises(qf.InvalidK):
        qf.symplectic_ranks(ctx4, 2, [1], 1)


def test_symplectic_rank_examples(ctx6, ctx8):
    with pytest.raises(qf.ZeroForm):
        qf.symplectic_rank(qf.QuadFormParams(ctx6, 2, 0, 0))
    # norm forms have full rank
    for c in ctx6.subfield_elements[1:]:
        assert qf.symplectic_rank(qf.QuadFormParams(ctx6, 2, 0, int(c))) == 6
    # n = 0 mod 4: pure-quad rank is n - 2 exactly on cubes
    for b in range(1, ctx8.order):
        cubic = int(ctx8.log[b]) % 3 == 0
        rank = qf.symplectic_rank(qf.QuadFormParams(ctx8, 1, b, 0))
        assert rank == (6 if cubic else 8)
    # n = 6, k = 2: exactly 2(2^{n/2}-2)/3 = 4 of the c in F* pair with b = 1
    # to a rank-deficient form
    deficient = sum(
        qf.symplectic_rank(qf.QuadFormParams(ctx6, 2, 1, int(c))) == 4
        for c in ctx6.subfield_elements[1:]
    )
    assert deficient == 4


def test_rank_multiplicity_consistency(ctx6):
    # rank 2h forces the value counts 2^{2h-1} +- 2^{h-1} at +-2^{n-h}
    n = ctx6.n
    for p in all_params(ctx6, 2):
        if p.b == 0 and p.c == 0:
            continue
        h = qf.symplectic_rank(p) // 2
        spec = qf.walsh_spectrum(p)
        assert int(np.count_nonzero(spec == 1 << (n - h))) == (1 << (2 * h - 1)) + (1 << (h - 1))
        assert int(np.count_nonzero(spec == -(1 << (n - h)))) == (1 << (2 * h - 1)) - (1 << (h - 1))
        assert int(np.count_nonzero(spec == 0)) == ctx6.order - (1 << (2 * h))


def test_spectrum_distribution_full_grid(ctx6):
    h = spectrum_distribution(
        ctx6, 2, range(64), ctx6.subfield_elements, range(64)
    )
    assert h.total() == 1 << (5 * 6 // 2)
    assert h.counts[64] == 1
    assert h == theory.predict("walsh-full", 6)


def test_spectrum_distribution_pure_quad_row(ctx6):
    h = spectrum_distribution(ctx6, 2, range(1, 64), [0], [1])
    assert h.counts[16] == (1 << 3) + (1 << 1)
    assert h.counts[-16] == (1 << 3) - (1 << 1)
    assert h.counts[0] == 64 - 16 - 1


def test_spectrum_distribution_mixed_at_zero(ctx6):
    h = spectrum_distribution(
        ctx6, 2, range(1, 64), [int(c) for c in ctx6.subfield_elements[1:]], [0]
    )
    assert h.counts[8] == 189
    assert -8 not in h.counts


def test_spectrum_distribution_multiplicity(ctx4):
    h1 = spectrum_distribution(ctx4, 1, [1], [0], [0, 1])
    h3 = spectrum_distribution(ctx4, 1, [1], [0], [0, 1], multiplicity=3)
    assert h3.counts == {v: 3 * c for v, c in h1.counts.items()}
    with pytest.raises(ValueError):
        spectrum_distribution(ctx4, 1, [1], [0], [0], multiplicity=0)


def test_spectra_block_guard():
    # the reference spectra_block materializes whole spectra: the E x F x E
    # grid at n = 12 is 2^30 values, past the 2 GB cap at any width
    ctx = make_field(12)
    with pytest.raises(TooLarge):
        spectra_block(ctx, 1, range(ctx.order), ctx.subfield_elements)
    with pytest.raises(TooLarge):
        qf.transform_column(ctx, 1, [1] * (1 << 18), 1)


@pytest.mark.parametrize("n", [4, 6])
def test_transform_column_matches_walsh_spectrum(n):
    ctx = make_field(n)
    cs = [int(c) for c in ctx.subfield_elements]
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        cols = {lam: qf.transform_column(ctx, k, cs, lam) for lam in (0, 1, 7)}
        for b in range(ctx.order):
            for i, c in enumerate(cs):
                spec = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, b, c))
                for lam, col in cols.items():
                    assert int(col[i, b]) == int(spec[lam])
    with pytest.raises(ValueError):
        qf.transform_column(ctx, 1 if n == 4 else 2, [2], 0)  # 2 = alpha is not in F


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2)])
def test_scale_to_norm_one(n, k):
    # W_{b,c}(lam) = W_{b',1}(lam') for every b, c in F* and lam, with
    # b' = b u^(2^k+1), lam' = lam u and N(u) = 1/c: for c = beta^j, u = alpha^(-j)
    ctx = make_field(n)
    e1, _ = qf.exponents(ctx, k)
    lams = np.arange(ctx.order)
    for j, c in enumerate(ctx.beta_powers.tolist()):
        u = ctx.pow(ctx.alpha, -j)
        assert ctx.mul(c, ctx.pow(u, (1 << ctx.half) + 1)) == 1
        lam1 = ctx.scale_vec(u, lams)
        for b in range(ctx.order):
            b1 = ctx.mul(b, ctx.pow(u, e1))
            spec = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, b, c))
            at_one = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, b1, 1))
            assert np.array_equal(spec[lams], at_one[lam1])


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_trace_rows_of_delta_c_are_the_subfield_trace_rows(n):
    # tr_h(eta x^(2^{n/2}+1)), the sum of the first n/2 Frobenius images of
    # eta N(x), by raw arithmetic, for every eta in F, against the rows of
    # the coefficients delta eta
    ctx = make_field(n)
    poly, half = ctx.poly, ctx.half
    x = np.arange(ctx.order, dtype=np.int64)
    norm = raw_mul_vec(raw_pow2_vec(x, poly, n, half), x, poly, n)
    y = raw_mul_vec(ctx.subfield_elements[:, None], norm, poly, n)
    want = np.zeros_like(y)
    for i in range(half):
        want ^= raw_pow2_vec(y, poly, n, i)
    assert set(np.unique(want)) <= {0, 1}
    got = qf.trace_rows(ctx, ctx.scale_vec(ctx.trh_lift, ctx.subfield_elements), (1 << half) + 1)
    assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_trace_rows_are_the_trace_parities(n):
    # tr(a x^e) as the parity of (a x^e) & mask, by raw arithmetic, at
    # seeded coefficients and e = 1 and 2^k + 1
    ctx = make_field(n)
    poly, mask = ctx.poly, raw_trace_mask(ctx.poly, n)
    rng = np.random.default_rng(n)
    coeffs = np.concatenate([[0, 1], rng.integers(2, ctx.order, size=6)])
    x = np.arange(ctx.order, dtype=np.int64)
    ks = [k for k in range(1, n) if qf.valid_k(n, k)][:2]
    for e, xe in [(1, x)] + [(2**k + 1, raw_mul_vec(raw_pow2_vec(x, poly, n, k), x, poly, n))
                             for k in ks]:
        want = np.bitwise_count(raw_mul_vec(coeffs[:, None], xe, poly, n) & mask) & 1
        assert np.array_equal(qf.trace_rows(ctx, coeffs, e), want)


@pytest.mark.parametrize("a", [-1, 16])
def test_trace_row_coefficients_must_be_field_elements(ctx4, a):
    with pytest.raises(ValueError):
        spectra_block(ctx4, 1, [a], [0])
    with pytest.raises(ValueError):
        fam.packed_rows(ctx4, [a], 1)


def orbit_index(ctx, k):
    """The orbit of every form (b, c) under x -> u*x, as the position of its
    representative in reference.orbit_representatives, at
    [subfield index of c, b].  Each
    representative's orbit {(b u^(2^k+1), c N(u)) : u in E*} is listed
    directly; the orbits must be disjoint, cover every form and have the
    stated sizes."""
    bs, cs, weights = orbit_representatives(ctx, k)
    e1, e2 = qf.exponents(ctx, k)
    us = np.arange(1, ctx.order)
    index = np.full((1 << ctx.half, ctx.order), -1)
    for i, (b, c) in enumerate(zip(bs.tolist(), cs.tolist())):
        cell = (ctx.subfield_index[ctx.scale_vec(c, ctx.pow_vec(us, e2))],
                ctx.scale_vec(b, ctx.pow_vec(us, e1)))
        assert np.isin(index[cell], (-1, i)).all()
        index[cell] = i
    assert (index >= 0).all()
    assert np.bincount(index.ravel()).tolist() == weights
    return bs, cs, index


def admissible_k(n):
    return [k for k in range(1, n) if qf.valid_k(n, k)]


@pytest.mark.parametrize("n,k", [(n, k) for n in (4, 6, 8) for k in admissible_k(n)]
                         + [(10, 2)] + [pytest.param(10, k, marks=pytest.mark.slow)
                                        for k in (4, 6, 8)])
def test_rank_and_spectrum_are_orbit_invariants(n, k):
    """Rank, W(0) and the spectrum multiset of every form equal those of its
    orbit's representative.  W(1) is not an invariant: x -> u*x moves it to
    W(1/u)."""
    ctx = make_field(n)
    bs, cs, index = orbit_index(ctx, k)
    rep_specs = np.stack([qf.walsh_spectrum(qf.QuadFormParams(ctx, k, b, c))
                          for b, c in zip(bs.tolist(), cs.tolist())])
    rep_sorted = np.sort(rep_specs, axis=1)
    rep_ranks = qf.symplectic_ranks(ctx, k, bs, cs)
    for row, c in enumerate(ctx.subfield_elements.tolist()):
        block = spectra_block(ctx, k, range(ctx.order), [c])[:, 0]
        reps = index[row]
        assert np.array_equal(block[:, 0], rep_specs[reps, 0])
        assert np.array_equal(np.sort(block, axis=1), rep_sorted[reps])
        assert np.array_equal(qf.symplectic_ranks(ctx, k, range(ctx.order), c),
                              rep_ranks[reps])


@pytest.mark.parametrize("n,k", [(12, 1), (12, 5)])
def test_rank_and_w0_are_class_constant_n12(n, k):
    """Rank and W(0) of every form (b, 0) and (b, 1) equal those of its
    orbit's representative, the fact the spectral engine's lam = 1 column
    rests on; checked from ranks and transform columns, no whole spectra."""
    ctx = make_field(n)
    bs, cs, index = orbit_index(ctx, k)
    rep_ranks = qf.symplectic_ranks(ctx, k, bs, cs)
    at0 = qf.transform_column(ctx, k, [0, 1], 0)  # rows: c = 0, c = 1
    rep_at0 = at0[cs, bs]
    for c in (0, 1):
        reps = index[ctx.subfield_index[c]]
        assert np.array_equal(qf.symplectic_ranks(ctx, k, range(ctx.order), c), rep_ranks[reps])
        assert np.array_equal(at0[c], rep_at0[reps])


@pytest.mark.parametrize("n,k", [(8, 1), (10, 2), (12, 1), (12, 5)])
def test_orbit_class_counts(n, k):
    """g1 and g2 as gcds, the class sizes as ints summing to every form,
    and every orbit representative's leader the least of its class of
    r -> 2r."""
    ctx = make_field(n)
    classes = qf.form_classes(ctx, k)
    bs, cs, weights = orbit_representatives(ctx, k)
    group, units = ctx.group_order, (1 << ctx.half) - 1
    g1, g2 = math.gcd((1 << k) + 1, group), math.gcd(units * ((1 << k) + 1), group)
    assert (len(classes.on_c0), len(classes.on_c1)) == (g1, g2)
    assert len(bs) == len(weights) == 2 + g1 + g2
    assert sum(classes.sizes) == sum(weights) == 1 << (3 * n // 2)
    rows = class_rows(classes)
    assert np.array_equal(classes.cs[rows], cs) and classes.bs[:2].tolist() == [0, 0]
    for r, (b, g) in enumerate(zip(bs[2:].tolist(), [g1] * g1 + [g2] * g2)):
        cls = {(ctx.log[b] << i) % g for i in range(n)}
        assert ctx.log[classes.bs[rows[2 + r]]] == min(cls)
    assert all(type(size) is int for size in classes.sizes)


def test_form_classes_raise_when_the_classes_miss_a_form(monkeypatch):
    """The class sizes must sum to all 2^(3n/2) forms: with one residue
    dropped from the classes of the c = 1 forms, form_classes raises, under
    python -O too, as the check is no assert statement."""
    classes = qf.cyclotomic_classes

    def short(modulus, mult):
        leaders, index = classes(modulus, mult)
        return leaders, index[:-1]

    ctx = make_field(8)
    qf.form_classes(ctx, 1)
    monkeypatch.setattr(qf, "cyclotomic_classes", short)
    with pytest.raises(AssertionError, match="forms, not 2"):
        qf.form_classes(ctx, 1)


def test_form_values_on_the_n32_leaders_stay_in_small_buffers():
    # the 4119 leaders at n = 32, k = 1: two blocks, each the block's polar
    # rows, one byte table's gather of their shape, and the elimination's
    # three (block, n + 1) uint32 arrays, about 4 MB in all; (block, n)
    # int64 temporaries allocated per step would pass 7 MB
    ctx = make_field(32)
    classes = qf.form_classes(ctx, 1)
    tracemalloc.start()
    try:
        w, rank = qf.form_values(ctx, 1, classes.bs, classes.cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(w) == len(rank) == 4119
    assert peak < 5 << 20


def leaders_stand_for_every_representative(ctx, k, classes):
    """W(0) and the rank of each orbit representative, and its whole-spectrum
    multiset for n <= 12, are those of its leader in classes, read through
    class_rows; and the class sizes sum the orbit sizes."""
    bs, cs, weights = orbit_representatives(ctx, k)
    rows = class_rows(classes)
    sizes = [0] * len(classes.sizes)
    for row, w in zip(rows.tolist(), weights):
        sizes[row] += w
    ok = sizes == classes.sizes
    for got, want in zip(qf.form_values(ctx, k, classes.bs, classes.cs),
                         qf.form_values(ctx, k, bs, cs)):
        ok &= np.array_equal(got[rows], want)
    if ctx.n <= 12:
        got, want = (np.sort(qf.walsh_spectra(ctx, k, b, c), axis=1)
                     for b, c in ((classes.bs, classes.cs), (bs, cs)))
        ok &= np.array_equal(got[rows], want)
    return ok


@pytest.mark.parametrize("n", range(4, 22, 2))
def test_leaders_stand_for_every_orbit_representative(n):
    """The squaring reduction, for every admissible k: each of the unreduced
    orbit representatives has its leader's W(0), rank and spectrum."""
    ctx = make_field(n)
    for k in admissible_k(n):
        assert leaders_stand_for_every_representative(ctx, k, qf.form_classes(ctx, k))


@pytest.mark.parametrize("n,k", [(8, 1), (10, 2), (12, 5), (20, 3)])
def test_one_representative_moved_to_another_class_fails(n, k):
    """An (alpha^r, 1) representative put in a class whose W(0) or rank
    differs, its orbit size moved along so that the sizes still add up,
    fails the check."""
    ctx = make_field(n)
    classes = qf.form_classes(ctx, k)
    w0, ranks = qf.form_values(ctx, k, classes.bs, classes.cs)
    bs, cs, weights = orbit_representatives(ctx, k)
    r, to = next((r, to) for r, row in enumerate(classes.on_c1.tolist())
                 for to in range(len(classes.sizes))
                 if classes.cs[to] == 1 and (w0[to], ranks[to]) != (w0[row], ranks[row]))
    on_c1, sizes = classes.on_c1.copy(), list(classes.sizes)
    sizes[on_c1[r]] -= weights[-1]
    sizes[to] += weights[-1]
    on_c1[r] = to
    moved = dataclasses.replace(classes, on_c1=on_c1, sizes=sizes)
    assert not leaders_stand_for_every_representative(ctx, k, moved)


@pytest.mark.parametrize("n,k", [(n, k) for n in (4, 6, 8, 10, 12) for k in admissible_k(n)]
                         + [pytest.param(n, k, marks=pytest.mark.slow)
                            for n in (14, 16) for k in admissible_k(n)])
def test_elimination_matches_transform_column_and_ranks(n, k):
    """W(0) and the rank of every orbit representative by hyperbolic-pair
    elimination equal W(0) read from the transform column (a Hadamard
    transform over x) and symplectic_ranks (the L-image route)."""
    ctx = make_field(n)
    bs, cs, _ = orbit_representatives(ctx, k)
    w0, ranks = qf.form_values(ctx, k, bs, cs)
    assert np.array_equal(w0, qf.transform_column(ctx, k, [0, 1], 0)[cs, bs])
    assert np.array_equal(ranks, qf.symplectic_ranks(ctx, k, bs, cs))


def one_form_ranks(ctx, k, bs, cs):
    return [qf.symplectic_rank(qf.QuadFormParams(ctx, k, b, c))
            for b, c in zip(bs.tolist(), np.broadcast_to(cs, bs.shape).tolist())]


@pytest.mark.parametrize("n", [22, 24, 28, 32])
def test_rank_routes_agree_past_n16(n):
    """At 64 seeded orbit representatives, (0, 1) and a c = 0 form among
    them, twice the elimination's pairs (form_values), the batched L-image
    route (symplectic_ranks) and the one-form route (symplectic_rank) agree;
    the batch also with one c broadcast against the b != 0, c = 0 included."""
    ctx = make_field(n)
    rng = np.random.default_rng(n)
    k = int(rng.choice(admissible_k(n)))
    bs, cs, _ = orbit_representatives(ctx, k)
    pick = np.concatenate([[1, 2], rng.choice(np.arange(3, bs.size), 62, replace=False)])
    bs, cs = bs[pick], cs[pick]
    ranks = qf.symplectic_ranks(ctx, k, bs, cs)
    assert np.array_equal(qf.form_values(ctx, k, bs, cs)[1], ranks)
    assert ranks.tolist() == one_form_ranks(ctx, k, bs, cs)
    for c in (0, int(ctx.beta)):
        assert qf.symplectic_ranks(ctx, k, bs[1:], c).tolist() == one_form_ranks(ctx, k, bs[1:], c)


@pytest.mark.parametrize("n", [16, 32])
def test_symplectic_ranks_split_blocks_in_the_narrow_dtype(monkeypatch, n):
    """Blocks of 7 forms reduced in uint16 at n = 16 and uint32 at n = 32,
    with images that set the dtype's top bit, give the one-form ranks.  At
    n = 32 the polynomial's subfield reaches bit 31 (the default one's does
    not), so the word b + 2^n c that reads the images sets bit 63."""
    ctx = make_field(n, 0x1000000AF if n == 32 else None)
    rng = np.random.default_rng(7 * n)
    k = admissible_k(n)[-1]
    sub = ctx.subfield_elements
    bs, cs = rng.integers(0, ctx.order, 40), sub[rng.integers(1, sub.size, 40)]
    blocks = []
    row_ranks = qf._row_ranks

    def spy(rows):
        blocks.append((rows.dtype, bool((rows >> n - 1).any())))
        return row_ranks(rows)

    monkeypatch.setattr(qf, "_row_ranks", spy)
    monkeypatch.setattr(qf, "_RANK_BLOCK", 7)
    ranks = qf.symplectic_ranks(ctx, k, bs, cs)
    assert len(blocks) == 6 and {dtype for dtype, _ in blocks} == {np.dtype(f"uint{n}")}
    assert any(top for _, top in blocks)
    assert ranks.tolist() == one_form_ranks(ctx, k, bs, cs)
    # two forms map straight from the images (LinearMap.vec's direct path),
    # with c's top bit set: bit 63 of the word b + 2^n c at n = 32
    top = np.flatnonzero(cs >> n - 1)[:2]
    assert len(top) == 2
    assert qf.symplectic_ranks(ctx, k, bs[top], cs[top]).tolist() == ranks[top].tolist()


@pytest.mark.slow
def test_rank_routes_agree_at_every_representative_n32():
    """The elimination, the batched and the one-form rank of all 65,540
    orbit representatives at n = 32, the zero form (rank 0) batched only."""
    ctx = make_field(32)
    bs, cs, _ = orbit_representatives(ctx, 1)
    assert bs.size == 65540
    ranks = qf.symplectic_ranks(ctx, 1, bs, cs)
    assert np.array_equal(qf.form_values(ctx, 1, bs, cs)[1], ranks)
    assert ranks[0] == 0 and ranks[1:].tolist() == one_form_ranks(ctx, 1, bs[1:], cs[1:])


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, pytest.param(14, marks=pytest.mark.slow),
                               pytest.param(16, marks=pytest.mark.slow)])
def test_elimination_matches_walsh_spectrum_at_seeded_lams(n):
    # seeded forms (the zero form and a c = 0 form among them) at seeded
    # lam, batched over forms and one form over many lam
    ctx = make_field(n)
    rng = np.random.default_rng(300 + n)
    sub = ctx.subfield_elements
    for k in admissible_k(n):
        bs, cs = rng.integers(0, ctx.order, 6), sub[rng.integers(0, sub.size, 6)]
        bs[0] = cs[:2] = 0
        lams = rng.integers(0, ctx.order, (6, 16))
        w, ranks = (a.reshape(lams.shape)
                    for a in qf.form_values(ctx, k, bs.repeat(16), cs.repeat(16), lams.ravel()))
        for b, c, lam, got, rank in zip(bs.tolist(), cs.tolist(), lams, w, ranks):
            want = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, b, c))[lam]
            assert np.array_equal(got, want)
            at, one_rank = qf._eliminate(qf._polar_rows(ctx, k, [b], [c]), lam[None])
            assert np.array_equal(at[0], want)
            assert set(rank.tolist()) == set(one_rank.tolist()) == {
                int(qf.symplectic_ranks(ctx, k, b, c))}


@pytest.mark.parametrize("n", [4, 6])
def test_elimination_matches_walsh_spectrum_everywhere(n):
    # every form, rank-deficient and zero forms included, at every lam
    ctx = make_field(n)
    lams = np.arange(ctx.order)
    for k in admissible_k(n):
        for params in all_params(ctx, k):
            want = qf.walsh_spectrum(params)
            bs, cs = np.full(lams.size, params.b), np.full(lams.size, params.c)
            got, ranks = qf.form_values(ctx, k, bs, cs, lams)
            at, rank = qf._eliminate(qf._polar_rows(ctx, k, [params.b], [params.c]), lams[None])
            assert np.array_equal(got, want) and np.array_equal(at[0], want)
            assert set(ranks.tolist()) == set(rank.tolist()) == {
                int(qf.symplectic_ranks(ctx, k, params.b, params.c))}


@pytest.mark.parametrize("flip", ["pair", "diagonal"])
def test_elimination_detects_one_flipped_polar_bit(ctx8, flip):
    """One polar-form bit B(d_i, d_j) (bit j of row i and bit i of row j) or
    one diagonal bit g(e_i) flipped is another form, so the elimination's
    values over every lam then differ from walsh_spectrum's."""
    rng = np.random.default_rng(8)
    lams = np.arange(ctx8.order)
    for k in admissible_k(8):
        b, c = int(rng.integers(1, ctx8.order)), int(rng.choice(ctx8.subfield_elements))
        want = qf.walsh_spectrum(qf.QuadFormParams(ctx8, k, b, c))
        rows = qf._polar_rows(ctx8, k, [b], [c])
        assert np.array_equal(qf._eliminate(rows, lams[None])[0][0], want)
        assert [qf._eliminate_one(rows[0].tolist(), lam)[0] for lam in lams.tolist()] == want.tolist()
        i, j = rng.choice(8, 2, replace=False).tolist()
        if flip == "pair":
            rows[0, i] ^= 1 << j
            rows[0, j] ^= 1 << i
        else:
            rows[0, i] ^= 1 << i
        assert not np.array_equal(qf._eliminate(rows, lams[None])[0][0], want)
        assert [qf._eliminate_one(rows[0].tolist(), lam)[0] for lam in lams.tolist()] != want.tolist()


def one_and_batch(ctx, k, b, c, lam):
    """W(lam) and the rank of the form (b, c) from one-form form_values (the
    int route, _eliminate_one) and from the same form given twice (the batch
    route, _eliminate), as lists."""
    one = [a.tolist() for a in qf.form_values(ctx, k, [b], [c], lam)]
    w, rank = qf.form_values(ctx, k, np.array([b, b]), np.array([c, c]), lam)
    assert w[0] == w[1] and rank[0] == rank[1]
    return one, [w[:1].tolist(), rank[:1].tolist()]


@pytest.mark.parametrize("n", [4, 6])
def test_one_form_values_match_the_batch_route_for_every_form(n):
    ctx = make_field(n)
    rng = np.random.default_rng(400 + n)
    for k in admissible_k(n):
        for params in all_params(ctx, k):
            for lam in (0, int(rng.integers(1, ctx.order))):
                one, batch = one_and_batch(ctx, k, params.b, params.c, lam)
                assert one == batch


@pytest.mark.parametrize("n", range(8, 34, 2))
def test_one_form_values_match_the_batch_route_at_seeded_forms(monkeypatch, n):
    # the zero form and c = 0 forms among them, at lam = 0 and at seeded lam
    ctx = make_field(n)
    rng = np.random.default_rng(500 + n)
    sub = ctx.subfield_elements
    calls, eliminate = [], qf._eliminate
    monkeypatch.setattr(qf, "_eliminate", lambda rows, lams: calls.append(len(rows))
                        or eliminate(rows, lams))
    for k in admissible_k(n):
        bs, cs = rng.integers(0, ctx.order, 6), sub[rng.integers(0, sub.size, 6)]
        bs[0] = cs[:2] = 0
        for b, c in zip(bs.tolist(), cs.tolist()):
            for lam in (0, int(rng.integers(1, ctx.order))):
                one, batch = one_and_batch(ctx, k, b, c, lam)
                assert one == batch
    # every one-form call stayed off the numpy kernel
    assert set(calls) == {2}


def test_form_values_blocking_keeps_values(monkeypatch, ctx8):
    # nine blocks of four forms read one pair of polar maps, built once
    rng = np.random.default_rng(5)
    bs = rng.integers(0, ctx8.order, 35)
    cs = ctx8.subfield_elements[rng.integers(0, 16, 35)]
    lams = rng.integers(0, ctx8.order, 35)
    whole = qf.form_values(ctx8, 3, bs, cs, lams)
    built, polar_maps = [], qf._polar_maps
    monkeypatch.setattr(qf, "_polar_maps", lambda ctx, k: built.append(k) or polar_maps(ctx, k))
    monkeypatch.setattr(qf, "_FORM_BLOCK", 4)
    blocked = qf.form_values(ctx8, 3, bs, cs, lams)
    assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))
    assert built == [3]


def test_polar_maps_are_dropped_with_their_context(monkeypatch):
    # form_values and walsh_spectra on a batch build their two polar maps per
    # call, past _DIRECT_PICKS so through byte tables, and keep none of them
    ctx = make_field(8)
    built, polar_maps = [], qf._polar_maps
    monkeypatch.setattr(qf, "_polar_maps",
                        lambda ctx, k: built.extend(polar_maps(ctx, k)) or built[-2:])
    bs, cs, _ = orbit_representatives(ctx, 1)
    bs, cs = np.resize(bs, 1 << 10), np.resize(cs, 1 << 10)
    w, _ = qf.form_values(ctx, 1, bs, cs)
    assert np.array_equal(qf.walsh_spectra(ctx, 1, bs, cs)[:, 0], w)
    assert len(built) == 4 and all("tables" in vars(m) for m in built)
    gone = weakref.ref(ctx)
    del ctx, built
    gc.collect()
    assert gone() is None


def test_rank_maps_are_cached_and_dropped_with_their_context(monkeypatch):
    # symplectic_ranks builds its rank map once per call, and every block
    # reads the same byte tables cached on it: two tables for the 16-bit
    # word b + 2^8 c across four blocks; the call keeps no context alive
    ctx = make_field(8)
    bs, cs, _ = orbit_representatives(ctx, 1)
    bs, cs = np.resize(bs, 1 << 12), np.resize(cs, 1 << 12)
    rank = qf.form_values(ctx, 1, bs, cs)[1]
    assert np.array_equal(qf.symplectic_ranks(ctx, 1, bs, cs), rank)
    built, linear_table = [], gf2n._linear_table
    monkeypatch.setattr(gf2n, "_linear_table",
                        lambda images, *a: built.append(len(images)) or linear_table(images, *a))
    monkeypatch.setattr(qf, "_RANK_BLOCK", 1 << 10)
    assert np.array_equal(qf.symplectic_ranks(ctx, 1, bs, cs), rank)
    assert built == [8, 8]
    gone = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert gone() is None
