import dataclasses
import json
import random
import threading
from collections import Counter

import numpy as np
import pytest

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import gf2n
from gkasami import quadform as qf
from gkasami import theory, verify
from gkasami.gf2n import make_field
from gkasami.histogram import ValueHistogram

from reference import (LengthMismatch, brute_histogram, correlate, fk_member_rows, rotate,
                       spectra_block)
from test_gf2n import LAZY_TABLES

EXAMPLE_N4 = {15: 67, -1: 28598, 3: 18418, -5: 11044, 7: 6902, -9: 2306}


def member_ints(family):
    """The members as ints (LSB = t = 0), in member order."""
    return [int.from_bytes(row.tobytes(), "little") for row in fam.member_table(family)[0]]


def brute_correlate(s1, s2, tau, period):
    """Independent oracle: sum the +-1 products term by term."""
    total = 0
    for t in range(period):
        total += (-1) ** ((s1 >> t & 1) ^ (s2 >> (t + tau) % period & 1))
    return total


def test_correlate_matches_termwise_sum(family4):
    seqs = member_ints(family4)
    for s1, s2 in [(seqs[0], seqs[0]), (seqs[1], seqs[40]), (seqs[66], seqs[3])]:
        for tau in range(15):
            assert correlate(s1, s2, tau, 15) == brute_correlate(s1, s2, tau, 15)


def test_correlate_in_phase(family6):
    for s in member_ints(family6)[::50]:
        assert correlate(s, s, 0, 63) == 63


def test_m_sequence_autocorrelation(family6):
    base = member_ints(family6)[0]  # the (0, 0) tag
    for tau in range(1, 63):
        assert correlate(base, base, tau, 63) == -1


def test_correlate_symmetry(family4):
    seqs = member_ints(family4)
    n = family4.period
    for i, j in [(0, 5), (12, 33), (7, 64)]:
        for tau in range(n):
            assert correlate(seqs[i], seqs[j], tau, n) == correlate(
                seqs[j], seqs[i], (n - tau) % n, n
            )


def test_correlate_errors(family4, family6):
    seqs4 = member_ints(family4)
    with pytest.raises(LengthMismatch):
        correlate(seqs4[0], member_ints(family6)[0], 0, 15)
    with pytest.raises(ValueError):
        correlate(seqs4[0], seqs4[1], 15, 15)


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


def test_engines_identical_all_kinds_n6(ctx6):
    for kind, k in [("fk", 2), ("fk", 4), ("small-kasami", None), ("large-kasami", None)]:
        family = fam.build_family(fam.family_params(ctx6, kind, k))
        assert (corr.full_distribution_brute(family).histogram
                == corr.full_distribution_spectral(family).histogram)


def test_jobs_do_not_change_brute_result(family4, family6):
    one = corr.full_distribution_brute(family4, jobs=1)
    assert corr.full_distribution_brute(family4, jobs=2).histogram == one.histogram
    one = corr.full_distribution_brute(family6, jobs=1)
    assert corr.full_distribution_brute(family6, jobs=3).histogram == one.histogram


def test_brute_and_verify_start_no_thread(monkeypatch, family4):
    # jobs is accepted and ignored: neither engine run nor verify starts a thread
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    brute = corr.full_distribution_brute(family4, jobs=2)
    assert brute.histogram == corr.full_distribution_spectral(family4).histogram
    assert verify.claims_report(make_field(4), 1, jobs=2)["pass"]


def assert_folded_cells_match_correlate(family):
    """Decode sampled cells of folded product blocks back to (d_lo, d_hi)
    and compare both with correlate of their pair of members."""
    seqs = member_ints(family)
    period, m = family.period, len(seqs)
    bits = np.array([[s >> t & 1 for t in range(period)] for s in seqs], dtype=np.uint8)
    signs = 1 - 2 * bits.astype(np.float32)
    folded = corr._fold(signs)
    assert len(folded) == (m + 1) // 2
    out = np.empty((7, m), dtype=np.float32)
    rng = random.Random(period)
    for trial in range(20):
        tau = rng.randrange(period)
        # every other block is the last one, which holds any unpaired row
        lo = len(folded) - 7 if trial % 2 else rng.randrange(len(folded) - 7)
        cells = corr._shift_block(folded, signs.T, tau, lo, lo + 7, out) + corr._fold_offset(period)
        for q in range(lo, lo + 7):
            for j in rng.sample(range(m), 3):
                d_hi, d_lo = divmod(int(cells[q - lo, j]), period + 1)
                assert cells[q - lo, j] == d_lo + (period + 1) * d_hi
                assert period - 2 * d_lo == correlate(seqs[2 * q], seqs[j], tau, period)
                assert period - 2 * d_hi == correlate(seqs[min(2 * q + 1, m - 1)], seqs[j], tau,
                                                      period)


def test_brute_shift_block_cells_match_correlate(family6):
    assert family6.size == 520  # even: every row is a pair of members
    assert_folded_cells_match_correlate(family6)


def test_brute_shift_block_unpaired_row_matches_correlate(family4):
    assert family4.size == 67  # odd: the last member is folded with itself
    assert_folded_cells_match_correlate(family4)


def test_fold_offset_refuses_inexact_periods():
    # p (1 + 2^n) / 2 is 2^23 - 1/2 at n = 12, and past 2^23 from n = 14 on
    assert corr._fold_offset((1 << 12) - 1) == (1 << 23) - 0.5
    with pytest.raises(ValueError):
        corr._fold_offset((1 << 14) - 1)


@pytest.mark.parametrize("size", [100, 256, 300])
def test_tally_counts_d1_and_d2_whichever_way_it_bins(size):
    # below 4^n = 256 products a tally bins d1 and d2 apart, from 256 on
    # over the (d1, d2) cells; both must count the same
    rng = np.random.default_rng(size)
    d = rng.integers(0, 16, size=(2, size))
    values = (d[0] + 16 * d[1] - corr._fold_offset(15)).astype(np.float32)
    counts = np.zeros(16, dtype=np.int64)
    corr._tally(values, np.empty(size, dtype=np.intp), 2, counts)
    assert counts.tolist() == (2 * np.bincount(d.ravel(), minlength=16)).tolist()


@pytest.mark.parametrize("n", [8, 10, 12])
def test_brute_matches_spectral_small_kasami(n):
    family = fam.build_family(fam.family_params(make_field(n), "small-kasami"))
    rb = corr.full_distribution_brute(family)
    assert rb.histogram == corr.full_distribution_spectral(family).histogram
    assert rb.histogram == theory.small_kasami_correlation(n)


def test_brute_matches_spectral_fk_n8(ctx8):
    family = fam.build_family(fam.family_params(ctx8, "fk", 1))
    rb = corr.full_distribution_brute(family, jobs=2)
    assert rb.histogram == corr.full_distribution_spectral(family).histogram


def decimated(rows, period):
    """Packed rows with bit t taken from bit 2t mod p, by Python ints."""
    out = []
    for row in rows:
        bits = int.from_bytes(row.tobytes(), "little")
        dec = sum(((bits >> (2 * t % period)) & 1) << t for t in range(period))
        out.append(dec.to_bytes(len(row), "little"))
    return out


def set_loop_shift_orbits(period):
    """The least shift and the size of each orbit of tau -> 2 tau,
    tau -> -tau on Z_p, sorted by size, then shift, by a Python set loop."""
    orbits, seen = [], set()
    for tau in range(period):
        if tau not in seen:
            # 2^n tau = tau, so n doublings close the orbit
            orbit = {sign * (tau << i) % period
                     for i in range(period.bit_length()) for sign in (1, -1)}
            seen |= orbit
            orbits.append((len(orbit), tau))
    sizes, reps = zip(*sorted(orbits))
    return list(reps), list(sizes)


@pytest.mark.parametrize("n, count", [(4, 4), (6, 8), (8, 20), (10, 56), (12, 180)])
def test_shift_orbits_partition_the_shifts(n, count):
    period = (1 << n) - 1
    reps, sizes = corr._shift_orbits(period)
    assert (reps.tolist(), sizes.tolist()) == set_loop_shift_orbits(period)
    assert len(reps) == count and sizes.sum() == period
    assert sizes.tolist() == sorted(sizes.tolist())
    covered = set()
    for rep, size in zip(reps.tolist(), sizes.tolist()):
        orbit = {sign * (rep << i) % period for i in range(n) for sign in (1, -1)}
        assert {2 * t % period for t in orbit} == orbit == {-t % period for t in orbit}
        assert len(orbit) == size and not orbit & covered
        covered |= orbit
    assert covered == set(range(period))


def test_decimation_closed_set_n6_is_every_member(family6):
    rows = fam.member_table(family6)[0]
    assert corr._decimation_closed(rows, family6.period) == list(range(family6.size))
    assert set(decimated(rows, family6.period)) == {row.tobytes() for row in rows}


def test_decimation_closed_set_n8(ctx8):
    family = fam.build_family(fam.family_params(ctx8, "fk", 1))
    rows, _, part_one = fam.member_table(family)
    period = family.period
    closed = corr._decimation_closed(rows, period)
    # D(P) = P
    assert set(decimated(rows[closed], period)) == {row.tobytes() for row in rows[closed]}
    # all of part one, and the part-two rows whose whole decimation orbit is in the table
    table = {row.tobytes() for row in rows}
    orbit = rows[part_one:]
    stays = np.ones(len(orbit), dtype=bool)
    for _ in range(8):
        orbit = np.frombuffer(b"".join(decimated(orbit, period)), np.uint8).reshape(orbit.shape)
        stays &= [row.tobytes() in table for row in orbit]
    assert closed == list(range(part_one)) + [part_one + i for i in np.flatnonzero(stays)]
    assert len(closed) == 4097  # 4096 part-one members and 1 of the 15 part-two rows


@pytest.mark.parametrize("name", ["family4", "family6"])
def test_brute_histogram_matches_plain_products(name, request):
    family = request.getfixturevalue(name)
    rows = fam.member_table(family)[0]
    assert corr._brute_histogram(rows, family.period) == brute_histogram(rows, family.period)


@pytest.mark.parametrize("name", ["family4", "family6"])
def test_brute_histogram_on_tables_decimation_does_not_close(name, request):
    family = request.getfixturevalue(name)
    rows, period = fam.member_table(family)[0], family.period
    flipped = rows.copy()
    flipped[5, 0] ^= 1 << 3  # bit 3 of part-one member 5
    closed = corr._decimation_closed(flipped, period)
    assert 5 not in closed and len(closed) < len(rows) - 1
    assert corr._brute_histogram(flipped, period) == brute_histogram(flipped, period)
    repeated = np.concatenate([rows, rows[7:8]])
    assert corr._decimation_closed(repeated, period) == []
    assert corr._brute_histogram(repeated, period) == brute_histogram(repeated, period)


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
    rot = rotate(bits, 2, 15)
    for t in range(15):
        assert rot >> t & 1 == bits >> (t + 2) % 15 & 1


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
        block = spectra_block(ctx, k, range(order), [c])[:, 0, :].astype(np.int64)
        cols += np.bincount((block + slot).ravel(), minlength=order * width).reshape(order, width)
        at0[:, i] = block[:, 0]
        zero_plane[i] = block[0]

    e1, e2 = qf.exponents(ctx, k)
    taus = np.arange(group, dtype=np.int64)
    twist_q = ctx.antilog[(e1 * taus) % group]
    twist_n = ctx.antilog[(e2 * taus) % group]
    walsh = Counter()
    if params.kind == fam.FamilyKind.SMALL_KASAMI:
        deltas = ctx.subfield_elements.astype(np.int64)
        for tau in range(group):
            lam = 1 ^ int(ctx.antilog[tau])
            c1 = deltas[:, None] ^ ctx.scale_vec(int(twist_n[tau]), deltas)[None, :]
            walsh.update(zero_plane[cidx[c1], lam].ravel().tolist())
    else:
        grid = 1 << (3 * ctx.half)
        gset, dset = fam.gamma_delta_sets(ctx)
        tags2 = [(zeta, eta) for zeta in gset for eta in dset]
        m2 = len(tags2)
        counts = (grid * cols[1 ^ ctx.antilog[taus]].sum(axis=0)
                  + m2 * group * cols[1]
                  + m2 * cols[ctx.antilog[taus]].sum(axis=0))
        walsh.update({v - order: int(c) for v, c in enumerate(counts) if c})
        for zeta1, eta1 in tags2:
            for zeta2, eta2 in tags2:
                b4 = zeta1 ^ ctx.scale_vec(zeta2, twist_q)
                c4 = eta1 ^ ctx.scale_vec(eta2, twist_n)
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


def transformed_lambda0_column(ctx, k):
    """Reference: W(0) over all (b, c) from the c = 0 and c = 1 transform
    rows, every c != 0 scaled to c = 1, with no orbit classes."""
    at0 = qf.transform_column(ctx, k, [0, 1], 0)
    col0 = ValueHistogram.from_array(at0[0])
    return col0.merge(ValueHistogram.from_array(at0[1]), (1 << ctx.half) - 1)


def engine_lambda0(ctx, k):
    """The engine's class table, W(0) and the rank at each leader, and the
    lam = 0 column, as full_distribution_spectral builds them."""
    classes = qf.form_classes(ctx, k)
    w0, ranks = qf.form_values(ctx, k, classes.bs, classes.cs)
    return classes, w0, ranks, ValueHistogram(corr._weighted(zip(w0.tolist(), classes.sizes)))


def engine_completion(ctx, k):
    classes, w0, _, _ = engine_lambda0(ctx, k)
    counts = corr._completion_counts(ctx, k, classes)
    return ValueHistogram(corr._weighted(zip(w0.tolist(), counts)))


@pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (6, 2), (6, 4), (8, 1), (8, 3), (8, 5), (8, 7),
                                 (10, 2), (10, 4), (12, 1), (12, 5)])
def test_completion_block_matches_twist_loop(n, k):
    ctx = make_field(n)
    assert engine_completion(ctx, k) == twist_completion(ctx, k)


@pytest.mark.slow
def test_completion_block_matches_twist_loop_n14():
    ctx = make_field(14)
    assert engine_completion(ctx, 2) == twist_completion(ctx, 2)


def fwht_lambda1_column(ctx, k):
    """Reference: the lam = 1 column by one fwht per c, a chunk of c at a
    time, with no rank identity."""
    cs = ctx.subfield_elements
    step = max(1, (1 << 20) // ctx.order)
    col = ValueHistogram()
    for lo in range(0, len(cs), step):
        col.merge(ValueHistogram.from_array(qf.transform_column(ctx, k, cs[lo:lo + step], 1)))
    return col


def full_rank_lambda1_column(ctx, k):
    """Reference: the lam = 1 column from the ranks of (b, 0) and (b, 1) for
    every b, (b, c) with c != 0 scaled to c = 1, with no orbit classes."""
    n, order = ctx.n, ctx.order
    every_lam = ValueHistogram()
    for c, times in ((0, 1), (1, (1 << ctx.half) - 1)):
        halves = np.bincount(qf.symplectic_ranks(ctx, k, np.arange(order), c) // 2)
        for j, forms in enumerate(halves.tolist()):
            spectrum = {1 << (n - j): (4**j + 2**j) // 2, -(1 << (n - j)): (4**j - 2**j) // 2}
            every_lam.merge(ValueHistogram({**spectrum, 0: order - 4**j}), forms * times)
    every_lam.merge(transformed_lambda0_column(ctx, k), -1)
    assert all(c % (order - 1) == 0 for c in every_lam.counts.values())
    return ValueHistogram({v: c // (order - 1) for v, c in every_lam.counts.items()})


def orbit_lambda1_column(ctx, k):
    classes, _, ranks, col0 = engine_lambda0(ctx, k)
    return ValueHistogram(corr._equal_column(ctx.n, ranks.tolist(), classes.sizes, col0.counts,
                                             ctx.order - 1))


@pytest.mark.parametrize("n,k", [(n, k) for n in (8, 10, 12) for k in range(1, n) if qf.valid_k(n, k)]
                         + [(14, 2), (16, 3), pytest.param(18, 2, marks=pytest.mark.slow)])
def test_rank_lambda1_column_matches_fwht(n, k):
    """The engine's column from the class leaders equals the full-E rank
    route and the transformed column."""
    ctx = make_field(n)
    got = orbit_lambda1_column(ctx, k)
    assert got == full_rank_lambda1_column(ctx, k)
    assert got == fwht_lambda1_column(ctx, k)


def spy_eliminate(monkeypatch):
    """Record the (rows, lams) of every qf._eliminate call."""
    calls = []
    eliminate = qf._eliminate

    def spy(rows, lams):
        calls.append((rows.copy(), np.array(lams)))
        return eliminate(rows, lams)

    monkeypatch.setattr(qf, "_eliminate", spy)
    return calls


def test_lambda1_column_ranks_only_orbit_representatives(monkeypatch, ctx8):
    """The ranks behind the lam = 1 column come from one elimination of the
    polar rows of exactly the class leaders: 9 of the 2 + 3 + 15 orbit
    representatives."""
    calls = spy_eliminate(monkeypatch)
    orbit_lambda1_column(ctx8, 1)
    classes = qf.form_classes(ctx8, 1)
    assert len(classes.bs) == 2 + 1 + 6 and len(calls) == 1
    assert np.array_equal(calls[0][0], qf._polar_rows(ctx8, 1, classes.bs, classes.cs))


def test_spectral_engine_builds_the_lambda0_column_once(monkeypatch, ctx8):
    """W(0) comes from one elimination at lam = 0, read at the class
    leaders only."""
    calls = spy_eliminate(monkeypatch)
    family = fam.build_family(fam.family_params(ctx8, "fk", 1))
    report = corr.full_distribution_spectral(family)
    assert report.histogram == corr.predicted_histogram(family)
    classes = qf.form_classes(ctx8, 1)
    assert len(calls) == 1
    rows, lams = calls[0]
    assert np.array_equal(rows, qf._polar_rows(ctx8, 1, classes.bs, classes.cs))
    assert not lams.any()


@pytest.mark.parametrize("n,k", [(8, 1), (10, 2), (12, 5)])
def test_lambda0_column_from_the_representatives(n, k):
    """W(0) at the class leaders, counted with the class sizes, is the
    histogram of the c = 0 and c = 1 transform rows, c != 0 scaled to 1."""
    ctx = make_field(n)
    assert engine_lambda0(ctx, k)[3] == transformed_lambda0_column(ctx, k)


def test_rank_lambda1_column_refuses_inexact_division(ctx8):
    classes, _, ranks, col0 = engine_lambda0(ctx8, 1)
    v = next(iter(col0.counts))  # one lam = 0 value moved: the counts no longer split evenly
    col0.add_value(v, -1)
    col0.add_value(v + 4)
    with pytest.raises(AssertionError):
        corr._equal_column(8, ranks.tolist(), classes.sizes, col0.counts, ctx8.order - 1)


@pytest.mark.parametrize("n", [6, 8])
def test_small_kasami_refuses_an_inexact_column(monkeypatch, n):
    """With W(0) of the form (0, 1) negated, its spectrum less W(0) no
    longer splits into 2^(n/2) + 1 equal columns."""
    family = fam.build_family(fam.family_params(make_field(n), "small-kasami"))
    form_values = qf.form_values

    def negated(ctx, k, bs, cs, lams=0):
        w, rank = form_values(ctx, k, bs, cs, lams)
        return -w, rank

    monkeypatch.setattr(qf, "form_values", negated)
    with pytest.raises(AssertionError, match="equal columns"):
        corr.full_distribution_spectral(family)


def test_small_kasami_eliminates_one_form_in_ints(monkeypatch, ctx8):
    """The small Kasami branch makes one form_values call, of the one form
    (0, 1), and never enters the numpy kernel or ctx.powers."""
    family = fam.build_family(fam.family_params(ctx8, "small-kasami"))
    calls, form_values = [], qf.form_values

    def spy(ctx, k, bs, cs, lams=0):
        calls.append((np.asarray(bs).tolist(), np.asarray(cs).tolist(), np.asarray(lams).tolist()))
        return form_values(ctx, k, bs, cs, lams)

    def refuse(*args, **kwargs):
        raise AssertionError("the small Kasami branch took a batch route")

    monkeypatch.setattr(qf, "form_values", spy)
    monkeypatch.setattr(qf, "_eliminate", refuse)
    monkeypatch.setattr(type(ctx8), "powers", refuse)
    report = corr.full_distribution_spectral(family)
    monkeypatch.undo()
    assert calls == [([0], [1], 0)]
    assert report.histogram == corr.predicted_histogram(family)


@pytest.mark.parametrize("kind", ["fk", "small-kasami", "large-kasami"])
def test_spectral_engine_reads_no_transform_value_off_lam_zero(monkeypatch, ctx8, kind):
    """Every kind reads ranks and W(0) of whole forms only: each form_values
    call and each elimination it makes is at lam = 0."""
    family = fam.build_family(fam.family_params(ctx8, kind, 1 if kind == "fk" else None))
    seen, form_values, eliminate, eliminate_one = [], qf.form_values, qf._eliminate, qf._eliminate_one

    def spy_values(ctx, k, bs, cs, lams=0):
        seen.append(np.asarray(lams))
        return form_values(ctx, k, bs, cs, lams)

    def spy_eliminate(rows, lams):
        seen.append(np.asarray(lams))
        return eliminate(rows, lams)

    def spy_eliminate_one(rows, lam):
        seen.append(np.asarray(lam))
        return eliminate_one(rows, lam)

    monkeypatch.setattr(qf, "form_values", spy_values)
    monkeypatch.setattr(qf, "_eliminate", spy_eliminate)
    monkeypatch.setattr(qf, "_eliminate_one", spy_eliminate_one)
    report = corr.full_distribution_spectral(family)
    monkeypatch.undo()
    assert len(seen) == 2 and not any(lam.any() for lam in seen)
    assert report.histogram == corr.predicted_histogram(family)


def test_spectral_engine_uses_no_transform_or_rank_route(monkeypatch, ctx8):
    """W(0) and the ranks, small Kasami's too, come from the elimination
    alone; transform columns, whole spectra and L-image ranks stay for
    verify and the tests, as the independent side."""
    def refuse(*args):
        raise AssertionError("the spectral engine called an independent route")

    for name in ("transform_column", "walsh_spectra", "walsh_spectrum", "symplectic_ranks", "fwht"):
        monkeypatch.setattr(qf, name, refuse)
    for kind in ("fk", "small-kasami", "large-kasami"):
        family = fam.build_family(fam.family_params(ctx8, kind, 1 if kind == "fk" else None))
        assert corr.full_distribution_spectral(family).histogram == corr.predicted_histogram(family)


def test_small_kasami_counts_its_values_without_a_sort(monkeypatch):
    """The small Kasami engine counts its values in a dict (_weighted): no
    np.unique on a fresh context."""
    calls, unique = [], np.unique

    def spy(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    family = fam.build_family(fam.family_params(make_field(8), "small-kasami"))
    report = corr.full_distribution_spectral(family)
    assert calls == []
    monkeypatch.undo()
    assert report.histogram == corr.predicted_histogram(family)


@pytest.mark.parametrize("n", [20, 32])
def test_symplectic_rank_builds_no_table_and_reduces_no_batch(monkeypatch, n):
    """One form's rank on a fresh context maps its n images straight from
    the basis images and reduces them in Python ints: no LinearMap table
    (gf2n._linear_table) and no batched row reduction (_row_ranks)."""
    ctx = make_field(n)
    b, c = 0x9E3779B9 % ctx.order, int(ctx.beta)
    params = qf.QuadFormParams(ctx, 1, b, c)  # its subfield check builds a table

    def refuse(*args, **kwargs):
        raise AssertionError("symplectic_rank built a table or reduced a batch")

    monkeypatch.setattr(gf2n, "_linear_table", refuse)
    monkeypatch.setattr(qf, "_row_ranks", refuse)
    rank = qf.symplectic_rank(params)
    monkeypatch.undo()
    assert rank == qf.form_values(ctx, 1, np.array([b]), np.array([c]))[1][0]


def test_retired_scaling_helpers_are_gone():
    assert [name for name in ("_lambda0_column",) if hasattr(corr, name)] == []
    assert [name for name in ("scale_to_norm_one", "_times_alpha_pow") if hasattr(qf, name)] == []


@pytest.mark.parametrize("kind", ["fk", "small-kasami", "large-kasami"])
@pytest.mark.parametrize("n", [8, 16, 20, 24])
def test_spectral_engine_builds_no_field_table(n, kind):
    """corr builds none of the 2^n-entry tables, which gf2n builds on first
    read up to n = 20 and refuses past it."""
    ctx = make_field(n)
    k = (2 if (n // 2) % 2 else 1) if kind == "fk" else None
    family = fam.build_family(fam.family_params(ctx, kind, k))
    report = corr.full_distribution_spectral(family)
    assert report.histogram == corr.predicted_histogram(family)
    assert not set(LAZY_TABLES) & set(vars(ctx))


@pytest.mark.parametrize("kind", ["fk", "small-kasami"])
@pytest.mark.parametrize("n", [14, 16, pytest.param(18, marks=pytest.mark.slow),
                               pytest.param(20, marks=pytest.mark.slow)])
def test_spectral_engine_matches_closed_form_without_members(n, kind, monkeypatch):
    def member_blocks(family):
        raise AssertionError("a member was built")

    monkeypatch.setattr(fam, "member_blocks", member_blocks)
    ctx = make_field(n)
    k = (2 if (n // 2) % 2 else 1) if kind == "fk" else None
    family = fam.build_family(fam.family_params(ctx, kind, k))
    report = corr.full_distribution_spectral(family)
    assert report.histogram == corr.predicted_histogram(family)


def sweep_failures(n):
    """The (kind, k) of each spectral corr run at n whose histogram is not
    its closed form: fk at every admissible k, then the small and large
    Kasami sets."""
    ctx = make_field(n)
    runs = [("fk", k) for k in range(1, n) if qf.valid_k(n, k)]
    failed = []
    for kind, k in runs + [("small-kasami", None), ("large-kasami", None)]:
        family = fam.build_family(fam.family_params(ctx, kind, k))
        if corr.full_distribution_spectral(family).histogram != corr.predicted_histogram(family):
            failed.append((kind, k))
    return failed


@pytest.mark.parametrize("n", range(4, gf2n.N_MAX + 1, 2))
def test_spectral_corr_matches_closed_form_at_every_admissible_k(n):
    # the paper claims one distribution for every k that meets its gcd
    # condition, and g1, g2 and the class table depend on k
    assert sweep_failures(n) == []


@pytest.mark.parametrize("n,k", [(8, 3), (22, 6)])
def test_sweep_fails_on_one_leader_size_moved(monkeypatch, n, k):
    """The last leader's class size moved onto another c = 1 leader with a
    different W(0) or rank, for one k: the sweep reports that run."""
    ctx, form_classes = make_field(n), qf.form_classes
    classes = form_classes(ctx, k)
    w0, ranks = qf.form_values(ctx, k, classes.bs, classes.cs)
    last = len(classes.sizes) - 1
    to = next(j for j in range(last) if classes.cs[j] == 1
              and (w0[j], ranks[j]) != (w0[last], ranks[last]))
    sizes = list(classes.sizes)
    sizes[to], sizes[last] = sizes[to] + sizes[last], 0
    moved = dataclasses.replace(classes, sizes=sizes)
    monkeypatch.setattr(qf, "form_classes",
                        lambda ctx, kk: moved if kk == k else form_classes(ctx, kk))
    assert sweep_failures(n) == [("fk", k)]


def shifted_member_triples(n, k):
    """Ordered triples of the fk rows of k (reference.fk_member_rows, no
    admissibility check) at correlation 2^n - 1 beyond the in-phase ones,
    from the brute engine, after checking the rows are distinct (and, at an
    admissible k, that they are the family's)."""
    ctx = make_field(n)
    rows = fk_member_rows(ctx, k)
    assert len(rows) == theory.family_size(n) == len({row.tobytes() for row in rows})
    if qf.valid_k(n, k):
        family = fam.build_family(fam.family_params(ctx, "fk", k))
        assert np.array_equal(rows, fam.member_table(family)[0])
    return corr._brute_histogram(rows, ctx.group_order).counts[ctx.group_order] - len(rows)


@pytest.mark.parametrize("k,extra", [(1, 16), (2, 0), (4, 0), (5, 16)])
def test_inadmissible_k_makes_members_shifts_of_one_another_n6(k, extra):
    """The gcd hypothesis is sharp at n = 6: at k = 1 and 5 the 520 members
    stay distinct, but 16 ordered pairs of distinct members are cyclic
    shifts of one another (k = 3 = n/2 repeats members outright)."""
    assert shifted_member_triples(6, k) == extra


@pytest.mark.slow
@pytest.mark.parametrize("k,extra", [(1, 0), (2, 12), (3, 0), (5, 0), (6, 12), (7, 0)])
def test_inadmissible_k_makes_members_shifts_of_one_another_n8(k, extra):
    """At n = 8, k = 2 and 6 give 12 such pairs among 4111 distinct members."""
    assert shifted_member_triples(8, k) == extra

