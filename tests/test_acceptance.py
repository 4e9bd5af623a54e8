"""Acceptance suite: one test per criterion, each exact (zero tolerance)
and printed as a PASS line with its measured wall time.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
"""

import json
import time

import numpy as np

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import fieldeq, theory
from gkasami.gf2n import make_field
from gkasami.histogram import ValueHistogram

from reference import count_affine_roots, spectrum_distribution

EXAMPLE_N6 = {63: 520, -1: 7_893_232, 7: 3_668_224, -9: 2_853_064,
              15: 1_637_600, -17: 982_560}
EXAMPLE_N4 = {15: 67, -1: 28_598, 3: 18_418, -5: 11_044, 7: 6_902, -9: 2_306}


def _report(number, label, elapsed, budget=None):
    extra = f" ({elapsed:.2f}s" + (f", budget {budget:.0f}s)" if budget else ")")
    print(f"PASS criterion {number}: {label}{extra}")


def test_criterion_01_example_distribution_n6(family6):
    t0 = time.time()
    brute = corr.full_distribution_brute(family6)
    t_brute = time.time() - t0
    t0 = time.time()
    spectral = corr.full_distribution_spectral(family6)
    t_spectral = time.time() - t0
    assert brute.histogram.counts == EXAMPLE_N6
    assert spectral.histogram.counts == EXAMPLE_N6
    assert t_brute <= 60.0
    assert t_spectral <= 5.0
    _report(1, f"n=6 k=2 exact histogram, brute {t_brute:.2f}s / spectral {t_spectral:.2f}s",
            t_brute + t_spectral)


def test_criterion_02_example_distribution_n4(family4):
    t0 = time.time()
    brute = corr.full_distribution_brute(family4)
    spectral = corr.full_distribution_spectral(family4)
    elapsed = time.time() - t0
    assert brute.histogram.counts == EXAMPLE_N4
    assert spectral.histogram.counts == EXAMPLE_N4
    assert elapsed <= 1.0
    _report(2, "n=4 k=1 exact histogram", elapsed, 1)


def test_criterion_03_closed_form_distributions(family4, family6):
    t0 = time.time()
    got6 = corr.full_distribution_spectral(family6).histogram
    assert got6 == theory.predict("family-corr", 6, 2)
    got4 = corr.full_distribution_spectral(family4).histogram
    assert got4 == theory.predict("family-corr", 4, 1)
    # extended: n = 8 through the spectral engine only
    ctx8 = make_field(8)
    family8 = fam.build_family(fam.family_params(ctx8, "fk", 1))
    got8 = corr.full_distribution_spectral(family8).histogram
    assert got8 == theory.predict("family-corr", 8, 1)
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    _report(3, "closed-form correlation distributions at n=4, 6, 8", elapsed, 600)


def test_criterion_04_r_max(family4, family6, ctx6):
    t0 = time.time()
    assert corr.full_distribution_spectral(family4).r_max == 9
    assert corr.full_distribution_spectral(family6).r_max == 17
    small = fam.build_family(fam.family_params(ctx6, "small-kasami"))
    assert corr.full_distribution_spectral(small).r_max == 9
    _report(4, "r_max 9/17 for the families, 9 for the small set", time.time() - t0)


def test_criterion_05_three_root_theta_counts():
    t0 = time.time()
    for n, k in ((6, 2), (10, 2), (4, 1), (8, 1)):
        ctx = make_field(n)
        first, second = fieldeq.three_root_totals(fieldeq.theta_root_counts(ctx, k))
        assert first == second == theory.three_root_theta_count(n), (n, first)
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    _report(5, "exhaustive three-root counts at n=4, 6, 8, 10", elapsed, 30)


def test_criterion_06_code_weight_distribution(ctx4, ctx6):
    t0 = time.time()
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        code = theory.build_code(ctx, k)
        assert code.weight_histogram == theory.predict("code-weights", ctx.n, k)
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    _report(6, "code weight distributions at n=4, 6", elapsed, 10)


def test_criterion_07_dual_low_weights(ctx4, ctx6):
    t0 = time.time()
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        code = theory.build_code(ctx, k)
        assert theory.dual_low_weights(code, 3) == [0, 0, 0]
    _report(7, "dual weights B_1 = B_2 = B_3 = 0 at n=4, 6", time.time() - t0)


def test_criterion_08_walsh_distribution_suite(ctx4, ctx6, ctx8):
    t0 = time.time()
    for ctx, k in ((ctx4, 1), (ctx6, 2), (ctx8, 1)):
        n = ctx.n
        odd = (n // 2) % 2 == 1
        bs_star = range(1, ctx.order)
        cs_star = [int(c) for c in ctx.subfield_elements[1:]]
        cs_all = [int(c) for c in ctx.subfield_elements]

        # full grid over all lambda
        full = spectrum_distribution(ctx, k, range(ctx.order), cs_all, range(ctx.order))
        assert full == theory.predict("walsh-full", n)

        # pure-quad rows
        assert spectrum_distribution(ctx, k, bs_star, [0], [0]) == \
            theory.predict("walsh-b-at0", n)
        assert spectrum_distribution(ctx, k, bs_star, [0], [1]) == \
            theory.predict("walsh-b-at1", n)

        # norm-form rows
        assert spectrum_distribution(ctx, k, [0], cs_star, [0]) == \
            theory.predict("walsh-c-at0", n)
        assert spectrum_distribution(ctx, k, [0], cs_star, [1]) == \
            theory.predict("walsh-c-at1", n)

        # mixed-pair rows
        assert spectrum_distribution(ctx, k, bs_star, cs_star, [0]) == \
            theory.predict("walsh-bc-at0", n)
        assert spectrum_distribution(ctx, k, bs_star, cs_star, [1]) == \
            theory.predict("walsh-bc-at1", n)

        # family mixes
        if odd:
            mix = spectrum_distribution(ctx, k, range(ctx.order), cs_all, [1])
            mix.merge(spectrum_distribution(ctx, k, [1], cs_all, [0]))
            assert mix == theory.predict("walsh-family-mix", n)
        else:
            weight = ctx.order + (1 << ctx.half) - 1
            mix = spectrum_distribution(ctx, k, range(ctx.order), cs_all, [1], weight)
            gset, dset = fam.gamma_delta_sets(ctx)
            for z1 in gset:
                for e1 in dset:
                    rest = [c for c in cs_all if c != e1]
                    mix.merge(spectrum_distribution(ctx, k, [z1], rest, [0]))
                    mix.merge(spectrum_distribution(ctx, k, range(ctx.order), [e1], [0]))
            assert mix == theory.predict("walsh-family-mix", n)
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report(8, "transform distribution suite at n=4, 6, 8", elapsed, 60)


def test_criterion_09_affine_root_bound(ctx4, ctx6):
    t0 = time.time()
    for eps in range(1, 16):
        for v in range(16):
            for theta in range(1, 16):
                assert count_affine_roots(ctx4, eps, v, theta, 1) <= 3
    # n = 6 exhaustively, grouped by the unique v each nonzero x solves
    order, group = ctx6.order, ctx6.group_order
    xs = np.arange(1, order, dtype=np.int64)
    px = ctx6.pow_vec(xs, 3)
    inv_x = ctx6.antilog[(-ctx6.log[xs]) % group]
    worst = 0
    for eps in range(1, order):
        epx = ctx6.scale_vec(eps, px)
        for theta in range(1, order):
            u = epx ^ theta
            v = np.zeros(group, dtype=np.int64)
            nz = u != 0
            v[nz] = ctx6.antilog[(ctx6.log[u[nz]] + ctx6.log[inv_x[nz]]) % group]
            worst = max(worst, int(np.bincount(v, minlength=order).max()))
    assert worst == 3
    _report(9, "affine equation has at most 3 roots over the full n=4, 6 grids",
            time.time() - t0)


def test_criterion_10_set_censuses(ctx4, ctx6):
    t0 = time.time()
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        c = fieldeq.census(ctx, k)
        n = ctx.n
        assert c.quad_triples == theory.quad_triples_size(n)
        assert c.norm_triples == theory.norm_triples_size(n)
        assert c.joint_triples == theory.joint_triples_size(n)
        assert c.quad_pairs == theory.quad_pairs_size(n)
        assert c.norm_pairs == theory.norm_pairs_size(n)
        assert c.joint_pairs == theory.joint_pairs_size(n)
        assert c.power_sums == theory.walsh0_power_sums(n)
    _report(10, "triple/pair censuses and power sums at n=4, 6", time.time() - t0)


def test_criterion_11_imbalance(family4, family6, ctx8):
    t0 = time.time()
    cases = [(family4, 4), (family6, 6)]
    cases.append((fam.build_family(fam.family_params(ctx8, "fk", 1)), 8))
    for family, n in cases:
        rows = fam.member_table(family)[0]
        got = ValueHistogram.from_array(
            family.period - 2 * np.bitwise_count(rows).sum(axis=1, dtype=np.int64))
        assert got == theory.predict("imbalance", n), n
    _report(11, "imbalance distributions at n=4, 6, 8", time.time() - t0)


def test_criterion_12_structure(ctx4, ctx6, ctx8, family4, family6):
    t0 = time.time()
    fk = fam.build_family(fam.family_params(ctx6, "fk", 4))  # k = n/2 + 1
    large = fam.build_family(fam.family_params(ctx6, "large-kasami"))
    assert ({row.tobytes() for row in fam.member_table(fk)[0]}
            == {row.tobytes() for row in fam.member_table(large)[0]})
    for ctx, family in ((ctx4, family4), (ctx6, family6)):
        small = fam.build_family(fam.family_params(ctx, "small-kasami"))
        rows, _, part_one = fam.member_table(family)
        part1 = {row.tobytes() for row in rows[:part_one]}
        assert all(row.tobytes() in part1 for row in fam.member_table(small)[0])
    family8 = fam.build_family(fam.family_params(ctx8, "fk", 1))
    for family, n in ((family4, 4), (family6, 6), (family8, 8)):
        assert family.size == theory.family_size(n)
    _report(12, "large-set equality, small-set inclusion, family sizes", time.time() - t0)


def test_criterion_13_engine_equivalence(ctx4, ctx6):
    t0 = time.time()
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        for kind in fam.FamilyKind:
            kk = k if kind == fam.FamilyKind.GENERALIZED else None
            family = fam.build_family(fam.family_params(ctx, kind, kk))
            rb = corr.full_distribution_brute(family)
            rs = corr.full_distribution_spectral(family)
            a, b = rb.to_json_dict(), rs.to_json_dict()
            a.pop("engine"), b.pop("engine")
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    _report(13, "brute and spectral reports identical for all kinds at n=4, 6",
            time.time() - t0)
