import math

import numpy as np
import pytest

from gkasami import families as fam
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import TooLarge, gf2_kernel_basis, make_field


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
        qf.spectra_block(ctx4, 1, [1], [c])
    with pytest.raises(ValueError, match="not in the subfield"):
        qf.transform_column(ctx4, 1, [c], 0)


def test_eval_f_trivial(ctx4):
    zero = qf.QuadFormParams(ctx4, 1, 0, 0)
    assert all(qf.eval_f(zero, x) == 0 for x in range(16))
    some = qf.QuadFormParams(ctx4, 1, 5, 1)
    assert qf.eval_f(some, 0) == 0


def test_eval_f_matches_truth_table(ctx6):
    rng = np.random.RandomState(3)
    for _ in range(10):
        b = int(rng.randint(0, ctx6.order))
        c = int(ctx6.subfield_elements[rng.randint(0, 8)])
        p = qf.QuadFormParams(ctx6, 2, b, c)
        tt = qf.truth_table(p)
        for x in range(ctx6.order):
            assert qf.eval_f(p, x) == int(tt[x])


def test_walsh_point_trivial_cases(ctx6):
    zero = qf.QuadFormParams(ctx6, 2, 0, 0)
    assert qf.walsh_point(zero, 0) == 64
    for lam in range(1, 64):
        assert qf.walsh_point(zero, lam) == 0
    for c in ctx6.subfield_elements[1:]:
        assert qf.walsh_point(qf.QuadFormParams(ctx6, 2, 0, int(c)), 0) == -8


def test_scaling_identity_for_pure_quad(ctx4):
    # transform at a of the form with coefficient b*a^(2^k+1) equals the
    # transform at 1 of the form with coefficient b
    e1 = (1 << 1) + 1
    for b in range(1, 16):
        base = qf.walsh_point(qf.QuadFormParams(ctx4, 1, b, 0), 1)
        for a in range(1, 16):
            scaled = ctx4.mul(b, ctx4.pow(a, e1))
            assert qf.walsh_point(qf.QuadFormParams(ctx4, 1, scaled, 0), a) == base


def test_spectrum_equals_point_exhaustive_n4(ctx4):
    for p in all_params(ctx4, 1):
        spec = qf.walsh_spectrum(p)
        for lam in range(16):
            assert int(spec[lam]) == qf.walsh_point(p, lam)


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1)])
def test_spectrum_equals_point_sampled(n, k):
    ctx = make_field(n)
    rng = np.random.RandomState(n)
    for _ in range(8):
        b = int(rng.randint(0, ctx.order))
        c = int(ctx.subfield_elements[rng.randint(0, 1 << ctx.half)])
        p = qf.QuadFormParams(ctx, k, b, c)
        spec = qf.walsh_spectrum(p)
        assert spec.dtype == np.int64
        for lam in rng.randint(0, ctx.order, size=12):
            assert int(spec[int(lam)]) == qf.walsh_point(p, int(lam))


def test_walsh_spectrum_exact_at_n20():
    # the butterfly's widest values, +-2^20, must come out exact
    ctx = make_field(20)
    zero = qf.walsh_spectrum(qf.QuadFormParams(ctx, 1, 0, 0))
    assert zero.dtype == np.int64
    assert int(zero[0]) == 1 << 20 and not zero[1:].any()
    spec = qf.walsh_spectrum(qf.QuadFormParams(ctx, 3, 123457, int(ctx.beta)))
    assert int((spec * spec).sum()) == 1 << 40


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
    tt = qf.truth_table(p)
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
    bq = ctx.frobenius(b, n - k)

    def lin_map(z):
        return (ctx.mul(bq, ctx.frobenius(z, n - k))
                ^ ctx.mul(b, ctx.frobenius(z, k))
                ^ ctx.mul(c, ctx.frobenius(z, ctx.half)))

    return n - len(gf2_kernel_basis([lin_map(1 << j) for j in range(n)], n))


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
    h = qf.spectrum_distribution(
        ctx6, 2, range(64), ctx6.subfield_elements, range(64)
    )
    assert h.total() == 1 << (5 * 6 // 2)
    assert h.counts[64] == 1
    assert h == theory.predict("walsh-full", 6).histogram


def test_spectrum_distribution_pure_quad_row(ctx6):
    h = qf.spectrum_distribution(ctx6, 2, range(1, 64), [0], [1])
    assert h.counts[16] == (1 << 3) + (1 << 1)
    assert h.counts[-16] == (1 << 3) - (1 << 1)
    assert h.counts[0] == 64 - 16 - 1


def test_spectrum_distribution_mixed_at_zero(ctx6):
    h = qf.spectrum_distribution(
        ctx6, 2, range(1, 64), [int(c) for c in ctx6.subfield_elements[1:]], [0]
    )
    assert h.counts[8] == 189
    assert -8 not in h.counts


def test_spectrum_distribution_multiplicity(ctx4):
    h1 = qf.spectrum_distribution(ctx4, 1, [1], [0], [0, 1])
    h3 = qf.spectrum_distribution(ctx4, 1, [1], [0], [0, 1], multiplicity=3)
    assert h3 == h1.scaled(3)
    with pytest.raises(ValueError):
        qf.spectrum_distribution(ctx4, 1, [1], [0], [0], multiplicity=0)


def test_spectra_block_guard():
    # spectra_block is what still materializes whole spectra: the E x F x E
    # grid at n = 12 would be about 4.3 GB of int32, past the 2 GB cap
    ctx = make_field(12)
    with pytest.raises(TooLarge):
        qf.spectra_block(ctx, 1, range(ctx.order), ctx.subfield_elements)
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
    # W_{b,c}(lam) = W_{b',1}(lam') for every b, c in F* and lam
    ctx = make_field(n)
    bs = np.arange(ctx.order)
    lams = np.arange(ctx.order)
    for c in ctx.subfield_elements[1:]:
        b1, _ = qf.scale_to_norm_one(ctx, k, bs, c, 0)
        _, lam1 = qf.scale_to_norm_one(ctx, k, 0, c, lams)
        for b in range(ctx.order):
            spec = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, b, int(c)))
            at_one = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, int(b1[b]), 1))
            assert np.array_equal(spec[lams], at_one[lam1])


@pytest.mark.parametrize("a", [-1, 16])
def test_trace_row_coefficients_must_be_field_elements(ctx4, a):
    with pytest.raises(ValueError):
        qf.spectra_block(ctx4, 1, [a], [0])
    with pytest.raises(ValueError):
        fam.packed_trace_rows(ctx4, [a], 1, ctx4.tr1)
