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

from reference import code_tables, spectra_block, spectrum_distribution


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

    def spectrum(params):
        spectra.append((params.b, params.c))
        return qf.walsh_spectrum(params)

    monkeypatch.setattr(verify, "transform_column", column)
    monkeypatch.setattr(verify, "walsh_spectrum", spectrum)
    results = verify.run_claims(ctx8, 1)
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    names = {r.name for r in results}
    assert "subgrid-orbit-multisets" in names
    # the lambda in {0, 1} claims share two columns; walsh-full and
    # rank-value share one spectrum per orbit representative
    assert sorted(lams) == [0, 1]
    g1, g2 = math.gcd(3, 255), math.gcd(15 * 3, 255)
    assert len(spectra) == 2 + g1 + g2 == 20
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
    one spectra_block per c: the reference for the orbit-representative pass."""
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


def test_affine_root_bound_is_the_grid_maximum(ctx4):
    ctx = ctx4
    result = verify._claim_affine_root_bound(verify._Bundle(ctx, 1))
    want = max(
        fieldeq.count_affine_roots(ctx, eps, v, theta, 1)
        for eps in range(1, ctx.order)
        for v in range(ctx.order)
        for theta in range(1, ctx.order)
    )
    assert result.empirical == {"max-roots": want}
    assert result.note == "exhaustive over the cube-class representatives of eps"


def affine_root_counts(ctx, eps):
    """Root counts of eps x^3 + v x + theta at [v, theta], by evaluation at every x."""
    xs = np.arange(ctx.order, dtype=np.int64)
    cubes = ctx.scale_vec(eps, ctx.pow_vec(xs, 3))
    return np.stack([np.bincount(cubes ^ ctx.scale_vec(v, xs), minlength=ctx.order)
                     for v in range(ctx.order)])[:, 1:]


def test_affine_root_counts_reference(ctx4):
    for eps in range(1, ctx4.order):
        want = [[fieldeq.count_affine_roots(ctx4, eps, v, theta, 1)
                 for theta in range(1, ctx4.order)] for v in range(ctx4.order)]
        assert affine_root_counts(ctx4, eps).tolist() == want


@pytest.mark.parametrize("n", [4, 6])
def test_affine_root_counts_follow_the_cube_class(n):
    """x = s y maps (eps, v, theta) to (eps s^3, v s, theta), so every eps has
    the root-count multiset over (v, theta) of its representative in
    {1, alpha, alpha^2}, the one with the same discrete log mod 3."""
    ctx = make_field(n)
    reps = ctx.antilog[:3].tolist()
    want = [sorted(fieldeq.count_affine_roots(ctx, r, v, theta, 1)
                   for v in range(ctx.order) for theta in range(1, ctx.order))
            for r in reps]
    for eps in range(1, ctx.order):
        got = sorted(affine_root_counts(ctx, eps).ravel().tolist())
        assert got == want[ctx.log[eps] % 3]


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
    reads, the family's own and the reference sets', replaced by
    change(kind, rows)."""
    member_table = fam.member_table

    def changed(family):
        rows, pairs, part_one = member_table(family)
        return change(family.params.kind, rows), pairs, part_one

    monkeypatch.setattr(fam, "member_table", changed)
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


@pytest.mark.parametrize("n", [6, 8])
def test_family_structure_fails_on_a_changed_large_set_row(n, monkeypatch):
    ctx = make_field(n)

    def change(kind, rows):
        if kind == fam.FamilyKind.LARGE_KASAMI:
            rows[7, 0] ^= 1
        return rows

    assert structure_with(ctx, ctx.half + 1, change, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": False}


def test_family_structure_compares_the_large_set_as_a_set(ctx6, monkeypatch):
    def repeat(kind, rows):  # the large set lists two of its rows twice
        return np.concatenate([rows, rows[[5, 0]]]) if kind == fam.FamilyKind.LARGE_KASAMI else rows

    assert structure_with(ctx6, 4, repeat, monkeypatch) == {
        "distinct": True, "small-set-included": True, "large-set-equal": True}


def test_optional_n10_checks():
    """The odd-parity closed forms at the next desk-scale size."""
    t0 = time.time()
    ctx = make_field(10)
    # family transform mix
    cs_all = [int(c) for c in ctx.subfield_elements]
    mix = spectrum_distribution(ctx, 2, range(ctx.order), cs_all, [1])
    mix.merge(spectrum_distribution(ctx, 2, [1], cs_all, [0]))
    assert mix == theory.predict("walsh-family-mix-odd", 10).histogram
    # full correlation distribution through the spectral engine
    family = fam.build_family(fam.family_params(ctx, "fk", 2))
    report = corr.full_distribution_spectral(family)
    assert report.histogram == theory.predict("family-corr-odd", 10).histogram
    assert report.r_max == theory.r_max_expected(10) == 65
    # imbalance via the per-sequence popcounts
    got = ValueHistogram({})
    for s in family.all_sequences():
        got.add_value(fam.imbalance(s))
    assert got == theory.imbalance_histogram(10)
    print(f"optional n=10 checks in {time.time() - t0:.1f}s")


def test_n10_reduced_equation_counts():
    ctx = make_field(10)
    for k in (2, 4, 6, 8):
        first, second = fieldeq.count_three_root_thetas(ctx, k)
        assert first == second == theory.three_root_theta_count(10) == 660
