import time

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import fieldeq, quadform as qf, theory, verify
from gkasami.gf2n import make_field


def test_all_claims_pass_n6(ctx6):
    results = verify.run_claims(ctx6, 2)
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    names = {r.name for r in results}
    assert "subgrid-orbit-multisets" not in names  # even-parity-only claim


def test_all_claims_pass_n8(ctx8):
    results = verify.run_claims(ctx8, 1)
    failures = [r.name for r in results if not r.ok]
    assert failures == []
    names = {r.name for r in results}
    assert "subgrid-orbit-multisets" in names


def test_claims_report_shape(ctx4):
    report = verify.claims_report(ctx4, 1)
    assert report["pass"] is True
    for block in report["claims"]:
        assert set(block) >= {"name", "parameters", "predicted", "empirical", "match"}
        assert block["parameters"] == {"n": 4, "k": 1}


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
    assert result.note == "exhaustive grid"


def test_large_set_note_when_k_matches(ctx6):
    results = verify.run_claims(ctx6, 4)  # k = n/2 + 1
    assert all(r.ok for r in results)
    structure = next(r for r in results if r.name == "family-structure")
    assert structure.note and "large" in structure.note


def test_optional_n10_checks():
    """The odd-parity closed forms at the next desk-scale size."""
    t0 = time.time()
    ctx = make_field(10)
    # family transform mix
    cs_all = [int(c) for c in ctx.subfield_elements]
    mix = qf.spectrum_distribution(ctx, 2, range(ctx.order), cs_all, [1])
    mix.merge(qf.spectrum_distribution(ctx, 2, [1], cs_all, [0]))
    assert mix == theory.predict("walsh-family-mix-odd", 10).histogram
    # full correlation distribution through the spectral engine
    family = fam.build_family(fam.family_params(ctx, "fk", 2))
    report = corr.full_distribution_spectral(family)
    assert report.histogram == theory.predict("family-corr-odd", 10).histogram
    assert report.r_max == theory.r_max_expected(10) == 65
    # imbalance via the per-sequence popcounts
    from gkasami.histogram import ValueHistogram

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
