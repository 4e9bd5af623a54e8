import numpy as np
import pytest

from gkasami import fieldeq as fe
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import TooLarge, make_field

from reference import (BadParams, LinearizedPoly, count_affine_roots, count_kernel_roots,
                       count_reduced_roots, frobenius, linearized_kernel,
                       theta_root_counts_full, walsh_point)


def test_linearized_kernel_basics(ctx6):
    ident = LinearizedPoly.from_coeffs([1])
    assert linearized_kernel(ctx6, ident) == []
    # x^2 + x vanishes exactly on GF(2)
    frob = LinearizedPoly.from_coeffs([1, 1])
    basis = linearized_kernel(ctx6, frob)
    assert basis == [1]
    # x^(2^{n/2}) + x vanishes exactly on F
    sub = LinearizedPoly.from_coeffs([1, 0, 0, 1])
    basis = linearized_kernel(ctx6, sub)
    assert len(basis) == ctx6.half
    span = {0}
    for v in basis:
        span |= {s ^ v for s in span}
    assert span == set(int(c) for c in ctx6.subfield_elements)


def test_kernel_size_matches_exhaustive(ctx4):
    rng = np.random.RandomState(5)
    for _ in range(20):
        coeffs = [int(rng.randint(0, 16)) for _ in range(4)]
        if not any(coeffs):
            continue
        poly = LinearizedPoly.from_coeffs(coeffs)
        basis = linearized_kernel(ctx4, poly)
        roots = sum(poly.evaluate(ctx4, x) == 0 for x in range(16))
        assert roots == 1 << len(basis)


def test_count_affine_roots_examples(ctx4, ctx6):
    # cube roots of unity exist since 3 divides 2^n - 1
    assert count_affine_roots(ctx4, 1, 0, 1, 1) == 3
    assert count_affine_roots(ctx6, 1, 0, 1, 1) == 3


def test_count_affine_roots_bound_full_grid_n4(ctx4):
    for eps in range(1, 16):
        for v in range(16):
            for theta in range(1, 16):
                assert count_affine_roots(ctx4, eps, v, theta, 1) <= 3


def test_count_affine_roots_bad_params(ctx4):
    with pytest.raises(BadParams):
        count_affine_roots(ctx4, 0, 1, 1, 1)
    with pytest.raises(BadParams):
        count_affine_roots(ctx4, 1, 1, 0, 1)
    with pytest.raises(BadParams):
        count_affine_roots(ctx4, 1, 1, 1, 2)  # gcd(2, 4) != 1


@pytest.mark.parametrize("theta", [16, -3])
def test_count_affine_roots_rejects_theta_outside_the_field(ctx4, theta):
    with pytest.raises(ValueError):
        count_affine_roots(ctx4, 1, 0, theta, 1)


def test_count_kernel_roots_matches_kernel_equation(ctx4, ctx6):
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        for theta in range(1, ctx.order):
            got = count_kernel_roots(ctx, theta, k)
            assert got in (0, 3)
            # cross-check against the linearized-kernel route
            direct = sum(
                ctx.mul(frobenius(ctx, theta, ctx.n - k), frobenius(ctx, z, ctx.n - k))
                ^ ctx.mul(theta, frobenius(ctx, z, k))
                ^ frobenius(ctx, z, ctx.half)
                == 0
                for z in range(1, ctx.order)
            )
            assert got == direct


def test_reduced_equations_agree_per_theta(ctx4, ctx6):
    for ctx, k in ((ctx4, 1), (ctx4, 3), (ctx6, 2), (ctx6, 4)):
        for theta in range(1, ctx.order):
            kernel_count = count_kernel_roots(ctx, theta, k)
            first, second = count_reduced_roots(ctx, theta, k)
            assert kernel_count == first == second
            assert kernel_count in (0, 3)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_theta_scan_matches_per_theta_counts(n):
    ctx = make_field(n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        roots = fe.theta_root_counts(ctx, k)
        assert roots.shape == (3, ctx.group_order)
        for theta in range(1, ctx.order):
            want = (count_kernel_roots(ctx, theta, k), *count_reduced_roots(ctx, theta, k))
            assert tuple(roots[:, theta - 1].tolist()) == want


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_theta_class_scan_matches_the_full_scan_n10(k):
    ctx = make_field(10)
    assert np.array_equal(fe.theta_root_counts(ctx, k), theta_root_counts_full(ctx, k))


def test_three_root_theta_counts(ctx4, ctx6):
    def totals(ctx, k):
        return fe.three_root_totals(fe.theta_root_counts(ctx, k))

    assert totals(ctx6, 2) == (36, 36)
    assert totals(ctx4, 1) == (10, 10)
    first, second = totals(make_field(8), 1)
    assert first == second == theory.three_root_theta_count(8)


def test_eq_param_validation(ctx6):
    with pytest.raises(BadParams):
        count_kernel_roots(ctx6, 0, 2)
    with pytest.raises(BadParams):
        count_reduced_roots(ctx6, 0, 2)


def test_census_small(ctx4, ctx6):
    c4 = fe.census(ctx4, 1)
    assert c4.norm_triples == 2**10 - 2**6 + 2**4 == 976
    assert c4.quad_triples == theory.quad_triples_size(4)
    assert c4.joint_triples == 3 * 2**4 - 2
    assert (c4.quad_pairs, c4.norm_pairs, c4.joint_pairs) == (
        theory.quad_pairs_size(4),
        theory.norm_pairs_size(4),
        theory.joint_pairs_size(4),
    )
    assert c4.power_sums == theory.walsh0_power_sums(4)
    assert c4.three_root_first == c4.three_root_second == theory.three_root_theta_count(4)

    c6 = fe.census(ctx6, 2)
    assert c6.joint_triples == 3 * 2**6 - 2 == 190
    assert c6.quad_triples == 2**12
    assert c6.norm_triples == theory.norm_triples_size(6)
    assert c6.power_sums[0] == 2**3 * (2**6 - 1) == 504
    assert c6.power_sums == theory.walsh0_power_sums(6)


def test_census_triple_intersection_solutions(ctx4):
    # the joint solution set is exactly the diagonal-pair pattern
    e1 = (1 << 1) + 1
    e2 = (1 << 2) + 1
    sols = set()
    for x in range(16):
        for y in range(16):
            for z in range(16):
                q = ctx4.pow(x, e1) ^ ctx4.pow(y, e1) ^ ctx4.pow(z, e1)
                nn = ctx4.pow(x, e2) ^ ctx4.pow(y, e2) ^ ctx4.pow(z, e2)
                if q == 0 and nn == 0:
                    sols.add((x, y, z))
    want = {(0, 0, 0)}
    for x in range(1, 16):
        want |= {(x, x, 0), (x, 0, x), (0, x, x)}
    assert sols == want


def test_census_guards():
    ctx8 = make_field(8)
    c8 = fe.census(ctx8, 1)
    assert c8.quad_triples is None and c8.norm_triples is None and c8.joint_triples is None
    assert c8.quad_pairs == theory.quad_pairs_size(8)
    assert c8.power_sums == theory.walsh0_power_sums(8)
    with pytest.raises(TooLarge):
        fe.census(make_field(12), 1)


def test_census_report_matches(ctx4, ctx6):
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        report = fe.census_report(ctx, k)
        assert report["match"] is True
        assert all(block["match"] for block in report["counts"])
        skipped = [b for b in report["counts"] if b.get("skipped")]
        assert not skipped  # full scans available at n <= 6


@pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (6, 2), (6, 4)])
def test_census_power_sums_match_pointwise_sums(n, k):
    ctx = make_field(n)
    w = [walsh_point(qf.QuadFormParams(ctx, k, b, int(c)), 0)
         for b in range(1, ctx.order) for c in ctx.subfield_elements[1:]]
    assert fe.census(ctx, k).power_sums == tuple(sum(x**d for x in w) for d in (1, 2, 3))


def xor_grid_pairs(ctx, k):
    """Pair counts (quad, norm, joint) from the 2^{2n} XOR grids of
    x^(2^k+1) and x^(2^{n/2}+1) over (x, y) in E^2."""
    xs = np.arange(ctx.order, dtype=np.int64)
    e1, e2 = qf.exponents(ctx, k)
    b1, b2 = ((p[:, None] ^ p[None, :]) == 0 for p in (ctx.pow_vec(xs, e1), ctx.pow_vec(xs, e2)))
    return (int(np.count_nonzero(b1)), int(np.count_nonzero(b2)),
            int(np.count_nonzero(b1 & b2)))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_census_pairs_match_xor_grid(n):
    ctx = make_field(n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        c = fe.census(ctx, k)
        assert (c.quad_pairs, c.norm_pairs, c.joint_pairs) == xor_grid_pairs(ctx, k)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_census_with_passed_rows_equals_census_without(n):
    # the lambda = 0 rows a caller passes in give the census it would build
    ctx = make_field(n)
    k = 1 if n % 4 == 0 else 2
    at0 = qf.transform_column(ctx, k, ctx.subfield_elements, 0)[1:]
    assert fe.census(ctx, k, at0=at0) == fe.census(ctx, k)
