import json
import random
from collections import Counter

import numpy as np
import pytest

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import make_field
from gkasami.histogram import ValueHistogram

EXAMPLE_N4 = {15: 67, -1: 28598, 3: 18418, -5: 11044, 7: 6902, -9: 2306}


def brute_correlate(s1, s2, tau):
    """Independent oracle: sum the +-1 products term by term."""
    total = 0
    for t in range(s1.length):
        total += (-1) ** (s1.bit(t) ^ s2.bit((t + tau) % s2.length))
    return total


def test_correlate_matches_termwise_sum(family4):
    seqs = family4.all_sequences()
    for s1, s2 in [(seqs[0], seqs[0]), (seqs[1], seqs[40]), (seqs[66], seqs[3])]:
        for tau in range(s1.length):
            assert corr.correlate(s1, s2, tau) == brute_correlate(s1, s2, tau)


def test_correlate_in_phase(family6):
    for s in family6.all_sequences()[::50]:
        assert corr.correlate(s, s, 0) == 63


def test_m_sequence_autocorrelation(family6):
    base = family6.part1[0]  # the (0, 0) tag
    for tau in range(1, 63):
        assert corr.correlate(base, base, tau) == -1


def test_correlate_symmetry(family4):
    seqs = family4.all_sequences()
    n = seqs[0].length
    for i, j in [(0, 5), (12, 33), (7, 64)]:
        for tau in range(n):
            assert corr.correlate(seqs[i], seqs[j], tau) == corr.correlate(
                seqs[j], seqs[i], (n - tau) % n
            )


def test_correlate_errors(family4, family6):
    with pytest.raises(corr.LengthMismatch):
        corr.correlate(family4.part1[0], family6.part1[0], 0)
    with pytest.raises(ValueError):
        corr.correlate(family4.part1[0], family4.part1[1], 15)


def test_brute_histogram_n4(family4):
    report = corr.full_distribution_brute(family4)
    assert report.histogram.counts == EXAMPLE_N4
    assert report.histogram.total() == 67 * 67 * 15
    assert report.r_max == 9
    assert report.histogram.counts[15] == report.family_size
    # odd period, +-1 summands: every correlation value is odd
    assert all(v % 2 != 0 for v in report.histogram.counts)


def test_engines_identical_all_kinds_n4(ctx4):
    for kind in fam.FamilyKind:
        family = fam.build_family(fam.family_params(ctx4, kind, 1 if kind == fam.FamilyKind.GENERALIZED else None))
        rb = corr.full_distribution_brute(family)
        rs = corr.full_distribution_spectral(family)
        assert rb.histogram == rs.histogram
        assert rb.r_max == rs.r_max
        a = rb.to_json_dict()
        b = rs.to_json_dict()
        a.pop("engine"), b.pop("engine")
        assert json.dumps(a) == json.dumps(b)


def test_jobs_do_not_change_brute_result(family4):
    one = corr.full_distribution_brute(family4, jobs=1)
    two = corr.full_distribution_brute(family4, jobs=2)
    assert one.histogram == two.histogram


def test_brute_shift_block_cells_match_correlate(family6):
    seqs = family6.all_sequences()
    bits = fam.unpack_bits([s.bits for s in seqs], family6.period)
    doubled = np.tile(1 - 2 * bits.astype(np.float32), 2)
    out = np.empty((7, len(seqs)), dtype=np.float32)
    rng = random.Random(6)
    for _ in range(20):
        tau = rng.randrange(family6.period)
        lo = rng.randrange(len(seqs) - 7)
        block = corr._shift_block(doubled, tau, lo, lo + 7, out)
        for _ in range(5):
            i, j = rng.randrange(lo, lo + 7), rng.randrange(len(seqs))
            assert block[i - lo, j] == corr.correlate(seqs[i], seqs[j], tau)


@pytest.mark.parametrize("n", [8, 10])
def test_brute_matches_spectral_small_kasami(n):
    family = fam.build_family(fam.family_params(make_field(n), "small-kasami"))
    rb = corr.full_distribution_brute(family)
    assert rb.histogram == corr.full_distribution_spectral(family).histogram
    assert rb.histogram == theory.small_kasami_correlation(n)


@pytest.mark.slow
def test_brute_matches_spectral_fk_n8(ctx8):
    family = fam.build_family(fam.family_params(ctx8, "fk", 1))
    rb = corr.full_distribution_brute(family, jobs=2)
    assert rb.histogram == corr.full_distribution_spectral(family).histogram


def test_small_set_engines_and_prediction(ctx6):
    family = fam.build_family(fam.family_params(ctx6, "small-kasami"))
    rb = corr.full_distribution_brute(family)
    rs = corr.full_distribution_spectral(family)
    assert rb.histogram == rs.histogram == theory.small_kasami_correlation(6)
    assert rb.r_max == 9 == theory.small_set_r_max_expected(6)
    # three-valued off-phase: -1 and +-2^{n/2} - 1
    offphase = set(rb.histogram.counts) - {63}
    assert offphase == {-1, 7, -9}


def test_r_max_bookkeeping():
    # the in-phase count is removed before taking the maximum
    hist = ValueHistogram({15: 3, -9: 5, -1: 7})
    assert corr._r_max_from_histogram(hist, 15, 3) == 9
    # an excess period-value count survives as a genuine correlation
    hist2 = ValueHistogram({15: 4, -9: 5})
    assert corr._r_max_from_histogram(hist2, 15, 3) == 15
    with pytest.raises(ValueError):
        corr._r_max_from_histogram(ValueHistogram({-1: 5}), 15, 1)


def test_r_max_function_recomputes(family4):
    report = corr.full_distribution_spectral(family4)
    assert corr.r_max(report) == report.r_max == 9


def test_report_json_shape(family4):
    report = corr.full_distribution_spectral(family4)
    obj = report.to_json_dict(corr.predicted_histogram(family4))
    assert obj["match"] is True
    assert obj["engine"] == "spectral"
    assert obj["kind"] == "fk"
    assert obj["family_size"] == 67 and obj["period"] == 15
    assert obj["histogram"][0] == {"value": 15, "count": "67"}
    assert obj["predicted"] is not None
    # counts serialize as decimal strings
    assert all(isinstance(e["count"], str) for e in obj["histogram"])


def test_report_without_prediction(family4):
    obj = corr.full_distribution_spectral(family4).to_json_dict()
    assert obj["predicted"] is None and obj["match"] is None


def test_rotate():
    # bit t of the rotation is bit t+tau of the original
    bits = 0b000000000000101
    rot = corr.rotate(bits, 2, 15)
    seq = fam.BinarySequence(bits, 15, fam.SequenceTag.gamma_delta(0, 0))
    rotseq = fam.BinarySequence(rot, 15, seq.tag)
    for t in range(15):
        assert rotseq.bit(t) == seq.bit((t + 2) % 15)


def grid_engine_histogram(family):
    """Reference: the spectral engine that walks the full E x F spectra grid.

    Every per-lambda column histogram of the grid is built from whole
    spectra, spectra_block one c at a time, and every shift is summed
    column by column; completion and small-Kasami triples are looked up in
    the grid directly.  No scaling symmetry and no transform column is used.
    """
    params = family.params
    ctx, k = params.ctx, params.k
    order, group = ctx.order, ctx.group_order
    cs = [int(c) for c in ctx.subfield_elements]
    cidx = ctx.subfield_index
    width = 2 * order + 1  # transform values lie in [-2^n, 2^n]
    cols = np.zeros((order, width), dtype=np.int64)  # cols[lam, value + 2^n]
    at0 = np.empty((order, len(cs)), dtype=np.int64)  # W_{b,c}(0)
    zero_plane = np.empty((len(cs), order), dtype=np.int64)  # W_{0,c}(lam)
    slot = np.arange(order, dtype=np.int64)[None, :] * width + order
    for i, c in enumerate(cs):
        block = qf.spectra_block(ctx, k, range(order), [c])[:, 0, :].astype(np.int64)
        cols += np.bincount((block + slot).ravel(), minlength=order * width).reshape(order, width)
        at0[:, i] = block[:, 0]
        zero_plane[i] = block[0]

    e1, e2 = qf.exponents(ctx, k)
    taus = np.arange(group, dtype=np.int64)
    twist_q = ctx.antilog[(e1 * taus) % group]
    twist_n = ctx.antilog[(e2 * taus) % group]
    walsh = Counter()
    if params.kind == fam.FamilyKind.SMALL_KASAMI:
        deltas = np.array([s.tag.delta for s in family.part1], dtype=np.int64)
        for tau in range(group):
            lam = 1 ^ int(ctx.antilog[tau])
            c1 = deltas[:, None] ^ ctx.scale_vec(int(twist_n[tau]), deltas)[None, :]
            walsh.update(zero_plane[cidx[c1], lam].ravel().tolist())
    else:
        grid = 1 << (3 * ctx.half)
        m2 = len(family.part2)
        counts = (grid * cols[1 ^ ctx.antilog[taus]].sum(axis=0)
                  + m2 * group * cols[1]
                  + m2 * cols[ctx.antilog[taus]].sum(axis=0))
        walsh.update({v - order: int(c) for v, c in enumerate(counts) if c})
        tags2 = [s.tag for s in family.part2]
        for t1 in tags2:
            for t2 in tags2:
                b4 = t1.zeta ^ ctx.scale_vec(t2.zeta, twist_q)
                c4 = t1.eta ^ ctx.scale_vec(t2.eta, twist_n)
                walsh.update(at0[b4, cidx[c4]].tolist())
    return ValueHistogram({v - 1: c for v, c in walsh.items()})


@pytest.mark.parametrize("kind", ["fk", "small-kasami"])
@pytest.mark.parametrize("n,k", [(8, 1), (8, 3), (8, 5), (8, 7), (10, 2)])
def test_spectral_engine_matches_grid_engine(n, k, kind):
    family = fam.build_family(fam.family_params(make_field(n), kind, k))
    report = corr.full_distribution_spectral(family)
    want = grid_engine_histogram(family)
    assert report.histogram == want
    assert report.r_max == corr._r_max_from_histogram(want, family.period, family.size)


@pytest.mark.parametrize("n,k", [(6, 2), (8, 1), (8, 3), (10, 4), (12, 1), (12, 5)])
def test_completion_images_are_a_transversal(n, k):
    # the shift by tau sends the part-two tag (zeta, eta) to
    # (zeta alpha^(tau (2^k+1)), eta beta^tau); over all tags and shifts the
    # images meet each pair of E* x F* (E* x F for odd n/2) exactly once
    ctx = make_field(n)
    group, cidx = ctx.group_order, ctx.subfield_index
    e1, e2 = qf.exponents(ctx, k)
    taus = np.arange(group, dtype=np.int64)
    twist_q, twist_n = ctx.antilog[(e1 * taus) % group], ctx.antilog[(e2 * taus) % group]
    gset, dset = fam.gamma_delta_sets(ctx)
    cells = []
    for zeta in gset:
        for eta in dset:
            b, c = ctx.scale_vec(zeta, twist_q), ctx.scale_vec(eta, twist_n)
            assert np.all(cidx[c] >= 0)
            cells.append(b * (1 << ctx.half) + cidx[c])
    hits = np.bincount(np.concatenate(cells), minlength=ctx.order << ctx.half)
    want = np.ones((ctx.order, 1 << ctx.half), dtype=np.int64)
    want[0] = 0  # b = 0 is never met
    if (n // 2) % 2 == 0:
        want[:, cidx[0]] = 0  # nor, for even n/2, c = 0
    assert np.array_equal(hits.reshape(want.shape), want)


def twist_completion(ctx, k):
    """Reference: the completion block triple by triple.

    Every part-two tag t1 against every twisted part-two tag t2 at every
    shift, looking W_{b,c}(0) up directly in the lam = 0 transform column
    of every c in F, with no scaling symmetry.
    """
    group, order = ctx.group_order, ctx.order
    column = qf.transform_column(ctx, k, ctx.subfield_elements, 0)
    cidx = ctx.subfield_index
    e1, e2 = qf.exponents(ctx, k)
    taus = np.arange(group, dtype=np.int64)
    twist_q = ctx.antilog[(e1 * taus) % group]  # alpha^(tau (2^k+1))
    twist_n = ctx.antilog[(e2 * taus) % group]  # beta^tau
    gset, dset = fam.gamma_delta_sets(ctx)
    tags2 = [(zeta, eta) for zeta in gset for eta in dset]
    zeta_q = np.array([ctx.scale_vec(zeta, twist_q) for zeta, _ in tags2])
    eta_n = np.array([ctx.scale_vec(eta, twist_n) for _, eta in tags2])
    counts = np.zeros(2 * order + 1, dtype=np.int64)
    for zeta1, eta1 in tags2:
        values = column[cidx[eta1 ^ eta_n], zeta1 ^ zeta_q]
        counts += np.bincount((values + order).ravel(), minlength=counts.size)
    return ValueHistogram({v - order: int(c) for v, c in enumerate(counts.tolist()) if c})


def engine_completion(ctx, k):
    return corr._completion_block(ctx, k, qf.transform_column(ctx, k, [0, 1], 0))


@pytest.mark.parametrize("n,k", [(8, 1), (8, 3), (8, 5), (8, 7), (10, 2), (10, 4), (12, 1), (12, 5)])
def test_completion_block_matches_twist_loop(n, k):
    ctx = make_field(n)
    assert engine_completion(ctx, k) == twist_completion(ctx, k)


@pytest.mark.slow
def test_completion_block_matches_twist_loop_n14():
    ctx = make_field(14)
    assert engine_completion(ctx, 2) == twist_completion(ctx, 2)
