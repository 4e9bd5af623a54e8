import math
import time
from functools import partial

import numpy as np
import pytest

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import fieldeq, quadform as qf, theory, verify
from gkasami.gf2n import half_odd, make_field
from gkasami.histogram import ValueHistogram

from reference import (affine_root_max_full, code_tables, count_affine_roots,
                       rank_deficient_b_counts_full, spectra_block, spectrum_distribution,
                       theta_root_counts_full)


def test_all_claims_pass_n6(ctx6):
    results = verify.run_claims(ctx6, 2)
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    names = {r.name for r in results}
    assert "subgrid-orbit-multisets" not in names  # even-parity-only claim


def test_all_claims_pass_n8(ctx8, monkeypatch):
    lams, spectra = [], []

    def column(ctx, k, c_list, lam):
        lams.append(lam)
        return qf.transform_column(ctx, k, c_list, lam)

    def batch(ctx, k, bs, cs):
        spectra.append(list(zip(bs.tolist(), cs.tolist())))
        return qf.walsh_spectra(ctx, k, bs, cs)

    monkeypatch.setattr(verify, "transform_column", column)
    monkeypatch.setattr(verify, "walsh_spectra", batch)
    results = verify.run_claims(ctx8, 1)
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    names = {r.name for r in results}
    assert "subgrid-orbit-multisets" in names
    # the lambda in {0, 1} claims share two columns; walsh-full and
    # rank-value share one walsh_spectra call, one spectrum per class
    # leader: 9 of the 2 + g1 + g2 = 20 orbit representatives
    assert sorted(lams) == [0, 1]
    classes = qf.form_classes(ctx8, 1)
    assert len(classes.on_c0) == math.gcd(3, 255) and len(classes.on_c1) == math.gcd(15 * 3, 255)
    assert spectra == [list(zip(classes.bs.tolist(), classes.cs.tolist()))]
    assert len(spectra[0]) == 9
    # no whole spectra grid is left to call: spectra_block lives in the tests
    assert not hasattr(qf, "spectra_block")


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1)])
def test_imbalance_in_small_row_blocks(monkeypatch, n, k):
    # popcounting the member table 7 rows at a time gives the same
    # histogram, and every sequence still meets its transform bridge
    bundle = verify._Bundle(make_field(n), k)
    whole = verify._claim_imbalance(bundle)
    monkeypatch.setattr(verify, "_IMBALANCE_ROWS", 7)
    blocks = verify._claim_imbalance(bundle)
    assert whole.ok and blocks.ok
    assert blocks.empirical == whole.empirical == whole.predicted


def test_one_pair_of_transform_columns_per_run(ctx8, monkeypatch):
    # the census reads the run's lambda = 0 column instead of building its own
    lams, original = [], qf.transform_column

    def column(ctx, k, c_list, lam):
        lams.append(lam)
        return original(ctx, k, c_list, lam)

    for module in (qf, verify, fieldeq):
        monkeypatch.setattr(module, "transform_column", column)
    assert verify.claims_report(ctx8, 1)["pass"] is True
    assert sorted(lams) == [0, 1]


def test_claims_report_shape(ctx4):
    report = verify.claims_report(ctx4, 1)
    assert report["pass"] is True
    for block in report["claims"]:
        assert set(block) >= {"name", "parameters", "predicted", "empirical", "match"}
        assert block["parameters"] == {"n": 4, "k": 1}


def grid_reference(ctx, k):
    """The empirical fields of the lambda in {0, 1} transform claims, each
    histogram taken from a direct spectra grid over the claim's (b, c, lambda)
    set rather than from the two transform columns."""
    dist = partial(spectrum_distribution, ctx, k)
    entries = verify._entries
    order = ctx.order
    bs, all_b = range(1, order), range(order)
    cs = ctx.subfield_elements[1:].tolist()
    cs_all = ctx.subfield_elements.tolist()
    ref = {
        "pure-quad-transform": {"at0": entries(dist(bs, [0], [0])),
                                "at1": entries(dist(bs, [0], [1]))},
        "norm-form": {"ranks-all-n": True, "at0": entries(dist([0], cs, [0])),
                      "at1": entries(dist([0], cs, [1]))},
        "walsh-mixed-pairs": {"at0": entries(dist(bs, cs, [0])),
                              "at1": entries(dist(bs, cs, [1]))},
    }
    gset, dset = fam.gamma_delta_sets(ctx)
    if half_odd(ctx.n):
        mix = dist(all_b, cs_all, [1]).merge(dist([1], cs_all, [0]))
    else:
        mix = dist(all_b, cs_all, [1], order + (1 << ctx.half) - 1)
        for z1 in gset:
            for e1 in dset:
                mix.merge(dist([z1], [c for c in cs_all if c != e1], [0]))
                mix.merge(dist(all_b, [e1], [0]))
        full = dist(bs, cs, [0])
        gamma_fstar = dist(gset, cs, [0])
        ref["subgrid-orbit-multisets"] = {
            "gamma-times-(2^n-1)/3": dist(gset, cs, [0], (order - 1) // 3) == full,
            "delta-times-3": dist(bs, dset, [0], 3) == full,
            "gamma-delta-times-3-vs-gamma-fstar": dist(gset, dset, [0], 3) == gamma_fstar,
        }
    ref["walsh-family-mix"] = entries(mix)
    return ref


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1), (8, 3)])
def test_column_claims_match_grid_reference(n, k):
    ctx = make_field(n)
    bundle = verify._Bundle(ctx, k)
    claims = [verify._claim_pure_quad_transform, verify._claim_norm_form,
              verify._claim_walsh_mixed, verify._claim_walsh_family_mix]
    if not half_odd(n):
        claims.append(verify._claim_subgrid_orbits)
    got = {r.name: r.empirical for r in (claim(bundle) for claim in claims)}
    assert got == grid_reference(ctx, k)


def full_pass_spectra(ctx, k):
    """The spectra histogram and rank consistency from every form's spectrum,
    one spectra_block per c: the reference for the class-leader pass."""
    n = ctx.n
    hist, rank_ok = ValueHistogram({}), True
    for c in ctx.subfield_elements.tolist():
        block = spectra_block(ctx, k, range(ctx.order), [c])[:, 0]
        hist.merge(ValueHistogram.from_array(block))
        first = 0 if c else 1  # skip the zero form
        spec = block[first:]
        h2 = qf.symplectic_ranks(ctx, k, np.arange(first, ctx.order), c)
        top = (1 << (n - h2 // 2))[:, None]
        got = np.stack([np.count_nonzero(spec == v, axis=1) for v in (top, -top, 0)])
        full, half = 1 << h2, 1 << (h2 // 2)
        want = np.stack([(full + half) // 2, (full - half) // 2, ctx.order - full])
        rank_ok &= bool(np.all(h2 % 2 == 0) and np.array_equal(got, want)
                        and np.all(got.sum(axis=0) == ctx.order))
    return hist, rank_ok


def all_eta_code_weights(ctx, k):
    """The weight histogram from every codeword: one exact +-1 matrix product
    of the lin rows against the quad rows times each eta's norm row, all
    from the reference tables."""
    period = ctx.group_order
    lin, quad, norm = (fam.sign_rows(t, period) for t in code_tables(ctx, k))
    counts = np.zeros(2 * period + 1, dtype=np.int64)
    for eta_row in norm:
        twice = (period - lin @ (quad * eta_row).T).astype(np.intp)
        counts += np.bincount(twice.ravel(), minlength=counts.size)
    return ValueHistogram(dict(enumerate(counts[::2].tolist())))


@pytest.mark.parametrize("n,k", [(6, 2), (6, 4), (8, 1), (8, 3), (8, 5), (8, 7)])
def test_orbit_claims_match_full_pass(n, k):
    bundle = verify._Bundle(make_field(n), k)
    assert bundle.spectra == full_pass_spectra(bundle.ctx, k)
    assert bundle.spectra[1] is True
    assert bundle.code.weight_histogram == all_eta_code_weights(bundle.ctx, k)


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1)])
def test_rank_value_consistency_fails_on_one_moved_value_or_rank(monkeypatch, n, k):
    ctx = make_field(n)
    assert verify._claim_rank_value_consistency(verify._Bundle(ctx, k)).ok
    classes = qf.form_classes(ctx, k)
    last = (int(classes.bs[-1]), int(classes.cs[-1]))

    # one value of the last leader's spectrum changes sign
    def moved(ctx, k, bs, cs):
        spectra = qf.walsh_spectra(ctx, k, bs, cs)
        for b, c, spec in zip(bs.tolist(), cs.tolist(), spectra):
            if (b, c) == last:
                lam = np.flatnonzero(spec)[0]
                spec[lam] = -spec[lam]
        return spectra

    def shifted(by):  # the last leader's rank moves by `by`
        def ranks(*args):
            got = qf.symplectic_ranks(*args)
            got[-1] += by
            return got
        return ranks

    for name, fake in (("walsh_spectra", moved), ("symplectic_ranks", shifted(2)),
                       ("symplectic_ranks", shifted(-2))):
        with monkeypatch.context() as m:
            m.setattr(verify, name, fake)
            assert not verify._claim_rank_value_consistency(verify._Bundle(ctx, k)).ok


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1), (10, 2)])
def test_one_flipped_polar_bit_fails_both_spectra_claims(monkeypatch, n, k):
    # bit i of polar row j > i adds y_i y_j to the last leader's form as
    # the doubling reads it; the first such bit that moves its rank moves
    # its spectrum, so the spectra histogram and the rank check fail
    ctx = make_field(n)
    bundle = verify._Bundle(ctx, k)
    assert verify._claim_walsh_full(bundle).ok and verify._claim_rank_value_consistency(bundle).ok
    classes = qf.form_classes(ctx, k)
    bs, cs = classes.bs, classes.cs
    rows = qf._polar_rows(ctx, k, bs[-1:], cs[-1:])

    def rank_with(i, j):  # the rank of the form plus y_i y_j
        pair = rows.copy()
        pair[0, j] ^= 1 << i
        pair[0, i] ^= 1 << j
        return qf._eliminate(pair, 0)[1][0]

    rank = qf._eliminate(rows, 0)[1][0]
    i, j = next((i, j) for j in range(n) for i in range(j) if rank_with(i, j) != rank)
    polar_rows, last, seen = qf._polar_rows, (int(bs[-1]), int(cs[-1])), []

    def flipped(ctx, k, bs, cs, maps=None):
        got = polar_rows(ctx, k, bs, cs, maps)
        at = [r for r, bc in enumerate(zip(np.asarray(bs).tolist(), np.asarray(cs).tolist()))
              if bc == last]
        got[at, j] ^= 1 << i
        seen.extend(at)
        return got

    monkeypatch.setattr(qf, "_polar_rows", flipped)
    bundle = verify._Bundle(ctx, k)
    assert not verify._claim_walsh_full(bundle).ok
    assert not verify._claim_rank_value_consistency(bundle).ok
    assert len(seen) == 1


def test_affine_root_bound_is_the_grid_maximum(ctx4):
    ctx = ctx4
    result = verify._claim_affine_root_bound(verify._Bundle(ctx, 1))
    want = max(
        count_affine_roots(ctx, eps, v, theta, 1)
        for eps in range(1, ctx.order)
        for v in range(ctx.order)
        for theta in range(1, ctx.order)
    )
    assert result.empirical == {"max-roots": want}
    assert result.note == ("exhaustive over Frobenius classes of theta: theta -> theta^2 at "
                           "eps = 1, theta -> theta^4 at eps = alpha")


def affine_root_counts(ctx, eps):
    """Root counts of eps x^3 + v x + theta at [v, theta], by evaluation at every x."""
    xs = np.arange(ctx.order, dtype=np.int64)
    cubes = ctx.scale_vec(eps, ctx.pow_vec(xs, 3))
    return np.stack([np.bincount(cubes ^ ctx.scale_vec(v, xs), minlength=ctx.order)
                     for v in range(ctx.order)])[:, 1:]


def test_affine_root_counts_reference(ctx4):
    for eps in range(1, ctx4.order):
        want = [[count_affine_roots(ctx4, eps, v, theta, 1)
                 for theta in range(1, ctx4.order)] for v in range(ctx4.order)]
        assert affine_root_counts(ctx4, eps).tolist() == want


@pytest.mark.parametrize("n", [4, 6])
def test_affine_root_counts_follow_the_cube_class(n):
    """x = s y maps (eps, v, theta) to (eps s^3, v s, theta), so every eps has
    the root-count multiset over (v, theta) of its representative in
    {1, alpha, alpha^2}, the one with the same discrete log mod 3."""
    ctx = make_field(n)
    reps = ctx.antilog[:3].tolist()
    want = [sorted(count_affine_roots(ctx, r, v, theta, 1)
                   for v in range(ctx.order) for theta in range(1, ctx.order))
            for r in reps]
    for eps in range(1, ctx.order):
        got = sorted(affine_root_counts(ctx, eps).ravel().tolist())
        assert got == want[ctx.log[eps] % 3]


@pytest.mark.parametrize("n", [4, 6])
def test_affine_root_counts_follow_the_frobenius_maps(n):
    """Cell by cell over every (v, theta): squaring maps (1, v, theta) to
    (1, v^2, theta^2) and (alpha, v, theta) to (alpha^2, v^2, theta^2), and
    squaring twice and then x = y / alpha maps (alpha, v, theta) to
    (alpha, v^4 / alpha, theta^4), each with the same root count."""
    ctx = make_field(n)
    one, alpha, alpha2 = (affine_root_counts(ctx, eps) for eps in ctx.antilog[:3].tolist())
    vs, thetas = np.arange(ctx.order, dtype=np.int64), np.arange(1, ctx.order, dtype=np.int64)
    v2, t2 = ctx.pow_vec(vs, 2), ctx.pow_vec(thetas, 2) - 1
    v4 = ctx.scale_vec(ctx.antilog[-1], ctx.pow_vec(vs, 4))
    t4 = ctx.pow_vec(thetas, 4) - 1
    assert np.array_equal(one, one[np.ix_(v2, t2)])
    assert np.array_equal(alpha, alpha[np.ix_(v4, t4)])
    assert np.array_equal(alpha, alpha2[np.ix_(v2, t2)])


def test_affine_class_scan_is_the_grid_maximum_n6():
    ctx = make_field(6)
    want = max(int(affine_root_counts(ctx, eps).max()) for eps in range(1, ctx.order))
    result = verify._claim_affine_root_bound(verify._Bundle(ctx, 2))
    assert result.empirical == {"max-roots": want} == {"max-roots": affine_root_max_full(ctx)}


@pytest.mark.parametrize("n", [6, 8])
def test_rank_deficient_counts_are_equal_at_c_and_its_square(n):
    ctx = make_field(n)
    cs = ctx.subfield_elements[1:]
    squares = ctx.subfield_index[ctx.pow_vec(cs, 2)] - 1
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        counts = rank_deficient_b_counts_full(ctx, k)
        assert np.array_equal(counts, counts[squares])


_CLASS_CLAIMS = [verify._claim_affine_root_bound, verify._claim_three_root_thetas,
                 verify._claim_reduced_vs_kernel, verify._claim_rank_split_per_c,
                 verify._claim_pure_quad_rank]


@pytest.mark.parametrize("k", [1, 5, 7, 11])
def test_class_scan_claims_pass_n12(k):
    bundle = verify._Bundle(make_field(12), k)
    results = [claim(bundle) for claim in _CLASS_CLAIMS]
    assert [r.name for r in results if not r.ok] == []


@pytest.mark.slow
def test_class_scans_match_the_full_scans_n14():
    ctx, k = make_field(14), 4
    bundle = verify._Bundle(ctx, k)
    assert np.array_equal(bundle.theta_roots, theta_root_counts_full(ctx, k))
    affine, split, pure = (claim(bundle) for claim in (
        verify._claim_affine_root_bound, verify._claim_rank_split_per_c,
        verify._claim_pure_quad_rank))
    assert affine.ok and affine.empirical == {"max-roots": affine_root_max_full(ctx)}
    counts = rank_deficient_b_counts_full(ctx, k)
    assert split.ok and split.empirical == {
        "count": int(counts[0]), "same-for-every-c": bool(np.all(counts == counts[0]))}
    ranks = qf.symplectic_ranks(ctx, k, range(1, ctx.order), 0)
    assert pure.ok and pure.empirical == {"ranks": sorted(set(ranks.tolist()))}


def test_affine_root_bound_n10():
    result = verify._claim_affine_root_bound(verify._Bundle(make_field(10), 2))
    assert result.ok and result.empirical == {"max-roots": 3}


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_all_claims_pass_n10(k):
    report = verify.claims_report(make_field(10), k)
    assert [c["name"] for c in report["claims"] if not c["match"]] == []
    assert report["pass"] is True


def test_large_set_note_when_k_matches(ctx6):
    results = verify.run_claims(ctx6, 4)  # k = n/2 + 1
    assert all(r.ok for r in results)
    structure = next(r for r in results if r.name == "family-structure")
    assert structure.note and "large" in structure.note


def structure_with(ctx, k, change, monkeypatch):
    """The family-structure claim's set fields, with every member table it
    reads, the family's own and the small set's, replaced by
    change(kind, rows), and the large set's member blocks by the blocks of
    change(kind, rows) of their rows, cut where they were (rows added or
    removed change the last block)."""
    member_table, member_blocks = fam.member_table, fam.member_blocks

    def changed(family):
        rows, pairs, part_one = member_table(family)
        return change(family.params.kind, rows), pairs, part_one

    def changed_blocks(family):
        blocks = list(member_blocks(family))
        if family.params.kind != fam.FamilyKind.LARGE_KASAMI:
            return iter(blocks)
        rows = change(family.params.kind, np.concatenate([block for _, _, block in blocks]))
        cuts = np.cumsum([len(block) for _, _, block in blocks[:-1]])
        return ((variant, pairs, part)
                for (variant, pairs, _), part in zip(blocks, np.split(rows, cuts)))

    monkeypatch.setattr(fam, "member_table", changed)
    monkeypatch.setattr(fam, "member_blocks", changed_blocks)
    result = verify._claim_family_structure(verify._Bundle(ctx, k))
    return {key: result.empirical[key]
            for key in ("distinct", "small-set-included", "large-set-equal")}


def test_family_structure_fails_on_a_duplicated_row(ctx6, monkeypatch):
    def duplicate(kind, rows):
        if kind == fam.FamilyKind.GENERALIZED:
            rows[-1] = rows[100]  # a part-two row repeats a part-one row past gamma = 0
        return rows

    assert structure_with(ctx6, 2, duplicate, monkeypatch) == {
        "distinct": False, "small-set-included": True, "large-set-equal": True}


def test_family_structure_fails_on_a_flipped_small_set_bit(ctx6, monkeypatch):
    def flip(kind, rows):
        if kind == fam.FamilyKind.SMALL_KASAMI:
            rows[3, 2] ^= 0x10
        return rows

    assert structure_with(ctx6, 2, flip, monkeypatch) == {
        "distinct": True, "small-set-included": False, "large-set-equal": True}


def test_family_structure_fails_on_a_small_set_row_from_part_two(ctx6, monkeypatch):
    family_rows, _, part_one = fam.member_table(verify._Bundle(ctx6, 2).family)

    def move(kind, rows):
        if kind == fam.FamilyKind.SMALL_KASAMI:
            rows[3] = family_rows[part_one + 5]
        return rows

    assert structure_with(ctx6, 2, move, monkeypatch) == {
        "distinct": True, "small-set-included": False, "large-set-equal": True}


@pytest.mark.parametrize("n", [6, 8])
def test_family_structure_fails_on_a_changed_large_set_row(n, monkeypatch):
    ctx = make_field(n)

    def change(kind, rows):
        if kind == fam.FamilyKind.LARGE_KASAMI:
            rows[7, 0] ^= 1
        return rows

    assert structure_with(ctx, ctx.half + 1, change, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": False}


@pytest.mark.parametrize("cap,groups", [(1, 17), (300, 16), (1 << 13, 1)])
def test_family_structure_finds_whole_blocks_up_to_the_find_rows(monkeypatch, cap, groups):
    # the n = 8 large set's 16 blocks of 256 rows and one of 15, in order,
    # joined while a group stays within cap rows (a larger block alone); a
    # changed row is still missed
    ctx = make_field(8)
    large = fam.build_family(fam.family_params(ctx, fam.FamilyKind.LARGE_KASAMI))
    assert [len(block) for _, _, block in fam.member_blocks(large)] == [256] * 16 + [15]
    monkeypatch.setattr(fam, "_FIND_ROWS", cap)
    got = list(verify._row_groups(fam.member_blocks(large)))
    assert len(got) == groups
    assert np.array_equal(np.concatenate(got), fam.member_table(large)[0])
    assert verify._claim_family_structure(verify._Bundle(ctx, 5)).ok

    def change(kind, rows):
        if kind == fam.FamilyKind.LARGE_KASAMI:
            rows[-1, 0] ^= 1
        return rows

    assert structure_with(ctx, 5, change, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": False}


def test_family_structure_fails_on_an_extra_large_set_row(ctx6, monkeypatch):
    def extra(kind, rows):  # every family row is a large row, and one more is not
        if kind != fam.FamilyKind.LARGE_KASAMI:
            return rows
        other = rows[-1:].copy()
        other[:, 0] ^= 1
        return np.concatenate([rows, other])

    assert structure_with(ctx6, 4, extra, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": False}


def test_family_structure_fails_on_a_missing_large_set_row(ctx6, monkeypatch):
    def drop(kind, rows):  # every large row is a family row, one is left out
        return rows[:-1] if kind == fam.FamilyKind.LARGE_KASAMI else rows

    assert structure_with(ctx6, 4, drop, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": False}


def test_family_structure_compares_the_large_set_as_a_set(ctx6, monkeypatch):
    def repeat(kind, rows):  # the large set lists two of its rows twice
        return np.concatenate([rows, rows[[5, 0]]]) if kind == fam.FamilyKind.LARGE_KASAMI else rows

    assert structure_with(ctx6, 4, repeat, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": True}


@pytest.mark.parametrize("k", [1, 5])
def test_family_structure_with_every_prefix_equal(monkeypatch, k):
    """Zeroing the first 8 bytes of every row in every table leaves the n = 8
    rows distinct, all in one run of equal prefixes; a repeat is still seen,
    and at k = n/2 + 1 the row it displaced leaves the large set unmatched."""
    ctx = make_field(8)

    def zero_prefix(kind, rows):
        rows[:, :8] = 0
        return rows

    def repeat_too(kind, rows):
        zero_prefix(kind, rows)
        if kind == fam.FamilyKind.GENERALIZED:
            rows[-1] = rows[100]
        return rows

    want = {"distinct": True, "small-set-included": True, "large-set-equal": True}
    assert structure_with(ctx, k, zero_prefix, monkeypatch) == want
    monkeypatch.undo()
    assert structure_with(ctx, k, repeat_too, monkeypatch) == {
        **want, "distinct": False, "large-set-equal": k != ctx.half + 1}


def test_optional_n10_checks():
    """The odd-parity closed forms at the next desk-scale size."""
    t0 = time.time()
    ctx = make_field(10)
    # family transform mix
    cs_all = [int(c) for c in ctx.subfield_elements]
    mix = spectrum_distribution(ctx, 2, range(ctx.order), cs_all, [1])
    mix.merge(spectrum_distribution(ctx, 2, [1], cs_all, [0]))
    assert mix == theory.predict("walsh-family-mix", 10)
    # full correlation distribution through the spectral engine
    family = fam.build_family(fam.family_params(ctx, "fk", 2))
    report = corr.full_distribution_spectral(family)
    assert report.histogram == theory.predict("family-corr", 10)
    assert report.r_max == theory.r_max_expected(10) == 65
    # imbalance via the per-sequence popcounts
    rows = fam.member_table(family)[0]
    got = ValueHistogram.from_array(
        family.period - 2 * np.bitwise_count(rows).sum(axis=1, dtype=np.int64))
    assert got == theory.predict("imbalance", 10)
    print(f"optional n=10 checks in {time.time() - t0:.1f}s")


def test_n10_reduced_equation_counts():
    ctx = make_field(10)
    for k in (2, 4, 6, 8):
        first, second = fieldeq.three_root_totals(fieldeq.theta_root_counts(ctx, k))
        assert first == second == theory.three_root_theta_count(10) == 660
