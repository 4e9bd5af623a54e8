"""One-shot verification of every closed-form claim against exhaustive
desk-scale computation.

Each claim compares an independently computed quantity (transform columns,
direct spectra, rank computations, brute-force root or set counting,
sequence enumeration) with its closed form, and reports a machine-readable
block.  The claims that read the transform at lambda = 0 or 1, the census's
power sums among them, take slices of two tables, W_{b,c}(0) and W_{b,c}(1)
for every b and every c in F, built once per run.  walsh-full-distribution
and rank-value-consistency take one whole spectrum per class of forms under
x -> u*x and squaring (the leaders of quadform.form_classes), and the code
weights one matrix product over the same leaders, as a cyclic shift of the
code is that substitution and squaring permutes its positions: all three
are exhaustive over Frobenius classes of orbit representatives.  Squaring
also maps every field equation and form the remaining scans read to one
with the same count: the root counts of
the kernel and reduced equations (one scan, fieldeq.theta_root_counts,
shared by three claims) are evaluated at one theta per class of
theta -> theta^2, the affine-root bound at one theta per class of
theta -> theta^2 or theta^4, and the rank claims at one b or c per class of
b -> b^2 or c -> c^2 (gf2n.cyclotomic_classes), each note naming its
classes.  The member claims read one packed table of every member;
family-structure looks the small and large Kasami sets up in it through
families.RowIndex, the large set in groups of whole member blocks.  The
applicable claim set depends on the parity of n/2; a few are additionally
capped by the size guards of their underlying scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import correlation as corr
from . import families as fam
from . import fieldeq, theory
from .gf2n import FieldCtx, cyclotomic_classes, half_odd
from .histogram import ValueHistogram
from .quadform import (form_classes, rank_spectrum, symplectic_ranks, transform_column,
                       walsh_spectra)

VERIFY_NS = (4, 6, 8, 10)
BRUTE_CROSSCHECK_MAX_N = 6
_ORBIT_NOTE = "exhaustive over Frobenius classes of orbit representatives of x -> u*x"
_THETA_NOTE = "exhaustive over Frobenius classes of theta"
# (theta, x) values the affine-root scan holds at once
_AFFINE_BLOCK = 1 << 16
# member rows the imbalance claim popcounts at once (all of them at n <= 8)
_IMBALANCE_ROWS = 1 << 13


@dataclass
class ClaimResult:
    name: str
    ok: bool
    predicted: object
    empirical: object
    note: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "parameters": None,  # filled by run_claims
            "predicted": self.predicted,
            "empirical": self.empirical,
            "match": self.ok,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class _Bundle:
    """Shared lazily-built heavyweight objects for one (ctx, k)."""

    ctx: FieldCtx
    k: int

    @cached_property
    def family(self) -> fam.SequenceFamily:
        return fam.build_family(
            fam.family_params(self.ctx, fam.FamilyKind.GENERALIZED, self.k)
        )

    @cached_property
    def spectral_report(self) -> corr.CorrelationReport:
        return corr.full_distribution_spectral(self.family)

    @cached_property
    def code(self) -> theory.CodeSpec:
        return theory.build_code(self.ctx, self.k)

    @cached_property
    def spectra(self) -> tuple[ValueHistogram, bool]:
        """One whole spectrum per leader of quadform.form_classes, counted
        with its class size: the histogram of W_{b,c}(lam) over all
        (b, c, lam), and whether every leader's spectrum is the one its rank
        determines (quadform.rank_spectrum).  The spectra come from one
        walsh_spectra call (at most 39 leaders, at n = 16)."""
        ctx, k = self.ctx, self.k
        classes = form_classes(ctx, k)
        ranks = symplectic_ranks(ctx, k, classes.bs, classes.cs).tolist()
        spectra = walsh_spectra(ctx, k, classes.bs, classes.cs)
        hist, rank_ok = ValueHistogram({}), True
        for row, size, rank in zip(spectra, classes.sizes, ranks):
            spec = ValueHistogram.from_array(row)
            hist.merge(spec, size)
            rank_ok &= spec == rank_spectrum(ctx.n, rank)
        return hist, rank_ok

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """W_{b,c}(0) and W_{b,c}(1), each at [subfield index of c, b]."""
        return tuple(transform_column(self.ctx, self.k, self.ctx.subfield_elements, lam)
                     for lam in (0, 1))

    @cached_property
    def theta_roots(self) -> np.ndarray:
        """Root counts of the kernel and both reduced equations per theta."""
        return fieldeq.theta_root_counts(self.ctx, self.k)

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray, int]:
        """families.member_table of the family."""
        return fam.member_table(self.family)


def _entries(h: ValueHistogram) -> list:
    return [[v, str(c)] for v, c in h.entries()]


def _hist_claim(name: str, empirical: ValueHistogram, predicted: ValueHistogram,
                note: str | None = None) -> ClaimResult:
    return ClaimResult(name, empirical == predicted, _entries(predicted),
                       _entries(empirical), note)


# -- individual claims ----------------------------------------------------


def _claim_pure_quad_rank(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    n = ctx.n
    # (b, 0) -> (b^2, 0) keeps the rank and the cube class: one b = alpha^l
    # per class of l -> 2l, cubic when l is 0 mod 3
    logs, _ = cyclotomic_classes(ctx.group_order, 2)
    ranks = symplectic_ranks(ctx, k, ctx.antilog[logs], 0)
    note = "exhaustive over Frobenius classes of b"
    if half_odd(n):
        ranks = set(ranks.tolist())
        return ClaimResult(
            "pure-quad-rank", ranks == {n - 2}, {"all": n - 2}, {"ranks": sorted(ranks)}, note
        )
    ok = bool(np.all(ranks == np.where(logs % 3 == 0, n - 2, n)))
    return ClaimResult(
        "pure-quad-rank", ok, {"cubic": n - 2, "non-cubic": n}, {"all-match": ok}, note
    )


def _claim_pure_quad_transform(b: _Bundle) -> ClaimResult:
    n, k = b.ctx.n, b.k
    at0, at1 = (ValueHistogram.from_array(col[0, 1:]) for col in b.columns)
    want0, want1 = (theory.predict(f"walsh-b-at{lam}", n, k) for lam in (0, 1))
    return ClaimResult(
        "pure-quad-transform", at0 == want0 and at1 == want1,
        {"at0": "all zero" if want0.counts.keys() == {0} else _entries(want0),
         "at1": _entries(want1)},
        {"at0": _entries(at0), "at1": _entries(at1)},
    )


def _claim_norm_form(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    n = ctx.n
    ranks_ok = bool(np.all(symplectic_ranks(ctx, k, 0, ctx.subfield_elements[1:]) == n))
    at0, at1 = (ValueHistogram.from_array(col[1:, 0]) for col in b.columns)
    want0, want1 = (theory.predict(f"walsh-c-at{lam}", n, k) for lam in (0, 1))
    return ClaimResult(
        "norm-form", ranks_ok and at0 == want0 and at1 == want1,
        {"rank": n, "at0": _entries(want0), "at1": _entries(want1)},
        {"ranks-all-n": ranks_ok, "at0": _entries(at0), "at1": _entries(at1)},
    )


def _claim_walsh_full(b: _Bundle) -> ClaimResult:
    return _hist_claim("walsh-full-distribution", b.spectra[0],
                       theory.predict("walsh-full", b.ctx.n, b.k), _ORBIT_NOTE)


def _claim_walsh_mixed(b: _Bundle) -> ClaimResult:
    n, k = b.ctx.n, b.k
    at0, at1 = (ValueHistogram.from_array(col[1:, 1:]) for col in b.columns)
    want0, want1 = (theory.predict(f"walsh-bc-at{lam}", n, k) for lam in (0, 1))
    return ClaimResult(
        "walsh-mixed-pairs", at0 == want0 and at1 == want1,
        {"at0": _entries(want0), "at1": _entries(want1)},
        {"at0": _entries(at0), "at1": _entries(at1)},
    )


def _claim_walsh_family_mix(b: _Bundle) -> ClaimResult:
    """Part one reads every (b, c) at lambda = 1; part two reads lambda = 0
    at b = 1 (odd n/2), or for each eta1 in Delta at b in Gamma with
    c != eta1 and at every b with c = eta1, once per zeta1 in Gamma."""
    ctx, k = b.ctx, b.k
    n = ctx.n
    col0, col1 = b.columns
    if half_odd(n):
        got = ValueHistogram.from_array(col1)
        got.merge(ValueHistogram.from_array(col0[:, 1]))
    else:
        got = ValueHistogram.from_array(col1, ctx.order + (1 << ctx.half) - 1)
        gset, dset = fam.gamma_delta_sets(ctx)
        for row in ctx.subfield_index[dset].tolist():
            got.merge(ValueHistogram.from_array(np.delete(col0[:, gset], row, axis=0)))
            got.merge(ValueHistogram.from_array(col0[row]), len(gset))
    return _hist_claim("walsh-family-mix", got, theory.predict("walsh-family-mix", n, k))


def _claim_subgrid_orbits(b: _Bundle) -> ClaimResult:
    """Even parity only: the completion-grid transform multisets tile the full
    grid's multiset with the expected multiplicities."""
    ctx = b.ctx
    at0 = b.columns[0][1:]  # c != 0, rows at subfield index - 1
    gset, dset = fam.gamma_delta_sets(ctx)
    drows = ctx.subfield_index[dset] - 1
    full = ValueHistogram.from_array(at0[:, 1:])
    over_gamma = ValueHistogram.from_array(at0[:, gset], (ctx.order - 1) // 3)
    over_delta = ValueHistogram.from_array(at0[drows, 1:], 3)
    small = ValueHistogram.from_array(at0[np.ix_(drows, gset)], 3)
    gamma_fstar = ValueHistogram.from_array(at0[:, gset])
    ok = over_gamma == full and over_delta == full and small == gamma_fstar
    return ClaimResult(
        "subgrid-orbit-multisets", ok,
        {"tiles": "full grid"},
        {"gamma-times-(2^n-1)/3": over_gamma == full,
         "delta-times-3": over_delta == full,
         "gamma-delta-times-3-vs-gamma-fstar": small == gamma_fstar},
    )


def _claim_affine_root_bound(b: _Bundle) -> ClaimResult:
    """Exhaustive over Frobenius classes of theta for eps in {1, alpha}.
    x = s y maps (eps, v, theta) to (eps s^3, v s, theta) with the same root
    count, so {1, alpha, alpha^2} represent the cube classes of E* (3
    divides 2^n - 1 for even n).  Squaring maps (alpha, v, theta) onto
    (alpha^2, v^2, theta^2), a bijection with the same root counts, so
    alpha^2 needs no scan of its own.  It maps (1, v, theta) onto
    (1, v^2, theta^2), so eps = 1 takes one theta per class of
    theta -> theta^2; squaring twice and then x = y / alpha maps
    (alpha, v, theta) onto (alpha, v^4 / alpha, theta^4), so eps = alpha
    takes one theta per class of theta -> theta^4.  Each nonzero x is a root
    for the one v = (eps x^3 + theta) / x, so the root count of
    (eps, v, theta) is how many x share that v.  Vectorized over theta in
    blocks of _AFFINE_BLOCK (theta, x) values.  v is read at
    log(eps x^3 + theta) - log x + (2^n - 1) from two copies of the
    antilog table and, past them, zeros: the log of 0 is set to
    2 (2^n - 1), so v = 0 there."""
    ctx = b.ctx
    order, group = ctx.order, ctx.group_order
    xs = np.arange(1, order, dtype=np.int64)
    minus_log_x = group - ctx.log[xs]  # in [1, 2^n - 1]
    px = ctx.pow_vec(xs, 3)
    log = ctx.log.copy()
    log[0] = 2 * group
    antilog = np.concatenate([ctx.antilog, ctx.antilog, np.zeros(group + 1, np.int64)])
    rows = max(1, _AFFINE_BLOCK // group)
    worst = 0
    for eps, mult in zip(ctx.antilog[:2].tolist(), (2, 4)):
        eps_px = ctx.scale_vec(eps, px)
        thetas = ctx.antilog[cyclotomic_classes(group, mult)[0]]
        for lo in range(0, len(thetas), rows):
            block = thetas[lo:lo + rows, None]
            v = antilog[log[eps_px ^ block] + minus_log_x]
            v += np.arange(len(block), dtype=np.int64)[:, None] * order
            worst = max(worst, int(np.bincount(v.ravel(), minlength=v.size).max()))
    return ClaimResult("affine-root-bound", worst <= 3, {"max": 3},
                       {"max-roots": worst},
                       "exhaustive over Frobenius classes of theta: theta -> theta^2 at "
                       "eps = 1, theta -> theta^4 at eps = alpha")


def _claim_three_root_thetas(b: _Bundle) -> ClaimResult:
    first, second = fieldeq.three_root_totals(b.theta_roots)
    want = theory.three_root_theta_count(b.ctx.n)
    return ClaimResult(
        "three-root-theta-count", first == want and second == want,
        {"first": want, "second": want}, {"first": first, "second": second}, _THETA_NOTE,
    )


def _claim_reduced_vs_kernel(b: _Bundle) -> ClaimResult:
    kernel, first, second = b.theta_roots
    ok = bool(np.array_equal(kernel, first) and np.array_equal(kernel, second))
    seen = set(np.unique(b.theta_roots).tolist())
    ok &= seen <= {0, 3}
    return ClaimResult(
        "reduced-vs-kernel-roots", ok,
        {"per-theta": "equal counts in {0, 3}"},
        {"all-equal": ok, "counts-seen": sorted(seen)}, _THETA_NOTE,
    )


def _claim_census(b: _Bundle) -> ClaimResult:
    report = fieldeq.census_report(b.ctx, b.k, b.theta_roots, b.columns[0][1:])
    return ClaimResult("equation-census", report["match"], None, report["counts"],
                       "three-root counts " + _THETA_NOTE)


def _claim_rank_split_per_c(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    want = theory.rank_deficient_b_count(ctx.n)
    # (b, c) -> (b^2, c^2) keeps the rank and permutes E*, so c^2 has the
    # count of c: one c = beta^j per class of j -> 2j, the first c = 1
    cs = ctx.beta_powers[cyclotomic_classes((1 << ctx.half) - 1, 2)[0]]
    bs = np.arange(1, ctx.order)[:, None]
    ranks = symplectic_ranks(ctx, k, bs, cs[None, :])
    counts = np.count_nonzero(ranks == ctx.n - 2, axis=0)
    ok = bool(np.all(counts == want))
    got = int(counts[0])
    return ClaimResult("rank-split-per-c", ok, {"rank-deficient-b": want},
                       {"count": got, "same-for-every-c": ok},
                       "exhaustive over Frobenius classes of c")


def _claim_rank_value_consistency(b: _Bundle) -> ClaimResult:
    """Ranks against spectra (see _Bundle.spectra)."""
    ok = b.spectra[1]
    return ClaimResult("rank-value-consistency", ok,
                       {"spectra": "rank-determined"}, {"all-match": ok}, _ORBIT_NOTE)


def _claim_code_weights(b: _Bundle) -> ClaimResult:
    want = theory.predict("code-weights", b.ctx.n, b.k)
    return _hist_claim("code-weights", b.code.weight_histogram, want, _ORBIT_NOTE)


def _claim_dual_low_weights(b: _Bundle) -> ClaimResult:
    got = theory.dual_low_weights(b.code, 3)
    return ClaimResult("dual-low-weights", got == [0, 0, 0], [0, 0, 0], got)


def _claim_family_correlation(b: _Bundle) -> ClaimResult:
    ctx = b.ctx
    spectral = b.spectral_report
    want = theory.family_correlation_histogram(ctx.n)
    ok = spectral.histogram == want
    note = None
    if ctx.n <= BRUTE_CROSSCHECK_MAX_N:
        brute = corr.full_distribution_brute(b.family)
        ok &= brute.histogram == spectral.histogram
        note = "brute engine cross-checked"
    # every member contributes its in-phase value exactly once
    ok &= spectral.histogram.counts.get(spectral.period, 0) == spectral.family_size
    return ClaimResult(
        "family-correlation", ok, _entries(want), _entries(spectral.histogram), note
    )


def _claim_imbalance(b: _Bundle) -> ClaimResult:
    ctx = b.ctx
    rows, pairs, part_one = b.members
    weights = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), _IMBALANCE_ROWS):
        block = rows[lo : lo + _IMBALANCE_ROWS]
        weights[lo : lo + len(block)] = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
    imbalance = ctx.group_order - 2 * weights
    got = ValueHistogram.from_array(imbalance)
    want = theory.predict("imbalance", ctx.n)
    # per-sequence bridge: imbalance = transform value at 1 (part one) or
    # at 0 (part two), minus one
    col0, col1 = b.columns
    cidx, bb = ctx.subfield_index[pairs[:, 1]], pairs[:, 0]
    bridge = np.concatenate([col1[cidx[:part_one], bb[:part_one]],
                             col0[cidx[part_one:], bb[part_one:]]]) - 1
    ok = got == want and bool(np.array_equal(imbalance, bridge))
    return ClaimResult("imbalance", ok, _entries(want), _entries(got),
                       "per-sequence transform bridge included")


def _claim_r_max(b: _Bundle) -> ClaimResult:
    ctx = b.ctx
    want = theory.r_max_expected(ctx.n)
    got = b.spectral_report.r_max
    small = fam.build_family(fam.family_params(ctx, fam.FamilyKind.SMALL_KASAMI))
    small_got = corr.full_distribution_spectral(small).r_max
    small_want = theory.small_set_r_max_expected(ctx.n)
    ok = got == want and small_got == small_want
    return ClaimResult("r-max", ok, {"family": want, "small-set": small_want},
                       {"family": got, "small-set": small_got})


def _row_groups(blocks):
    """The rows of member_blocks' blocks, whole blocks joined into groups of
    at most fam._FIND_ROWS rows (a larger block alone)."""
    group, held = [], 0
    for _, _, block in blocks:
        if group and held + len(block) > fam._FIND_ROWS:
            yield np.concatenate(group)
            group, held = [], 0
        group.append(block)
        held += len(block)
    if group:
        yield np.concatenate(group)


def _claim_family_structure(b: _Bundle) -> ClaimResult:
    ctx = b.ctx
    family = b.family
    rows, _, part_one = b.members
    sizes_ok = (
        family.size == theory.family_size(ctx.n)
        and part_one == 1 << (3 * ctx.half)
    )
    index = fam.RowIndex(rows)
    repeats = len(index.repeats())
    distinct_ok = len(rows) == family.size and repeats == 0
    small = fam.build_family(fam.family_params(ctx, fam.FamilyKind.SMALL_KASAMI))
    found = index.find(fam.member_table(small)[0])
    # the least index of equal rows: found in part one
    small_ok = bool(np.all(found >= 0) and np.all(found < part_one))
    note = None
    large_ok = True
    if b.k == ctx.half + 1:
        large = fam.build_family(fam.family_params(ctx, fam.FamilyKind.LARGE_KASAMI))
        # as sets: every large row is found, up to fam._FIND_ROWS rows at a
        # time, and they hit every distinct row
        hit = np.zeros(len(rows), dtype=bool)
        for group in _row_groups(fam.member_blocks(large)):
            found = index.find(group)
            large_ok &= bool(np.all(found >= 0))
            hit[found] = True
        large_ok &= bool(np.count_nonzero(hit) == len(rows) - repeats)
        note = "k = n/2 + 1: family coincides with the large Kasami set"
    ok = sizes_ok and distinct_ok and small_ok and large_ok
    return ClaimResult(
        "family-structure", ok,
        {"size": theory.family_size(ctx.n)},
        {"size": family.size, "distinct": distinct_ok,
         "small-set-included": small_ok, "large-set-equal": large_ok},
        note,
    )


_CLAIMS = [
    _claim_pure_quad_rank,
    _claim_pure_quad_transform,
    _claim_norm_form,
    _claim_walsh_full,
    _claim_walsh_mixed,
    _claim_walsh_family_mix,
    _claim_subgrid_orbits,       # even parity only
    _claim_affine_root_bound,
    _claim_three_root_thetas,
    _claim_reduced_vs_kernel,
    _claim_census,
    _claim_rank_split_per_c,
    _claim_rank_value_consistency,
    _claim_code_weights,
    _claim_dual_low_weights,
    _claim_family_correlation,
    _claim_imbalance,
    _claim_r_max,
    _claim_family_structure,
]


def run_claims(ctx: FieldCtx, k: int) -> list[ClaimResult]:
    bundle = _Bundle(ctx, k)
    results = []
    for claim in _CLAIMS:
        if claim is _claim_subgrid_orbits and half_odd(ctx.n):
            continue
        results.append(claim(bundle))
    return results


def claims_report(ctx: FieldCtx, k: int, jobs: int = 1) -> dict:
    """The claims as JSON; jobs is accepted and ignored (one thread)."""
    results = run_claims(ctx, k)
    blocks = []
    for r in results:
        block = r.to_json_dict()
        block["parameters"] = {"n": ctx.n, "k": k}
        blocks.append(block)
    return {
        "n": ctx.n,
        "k": k,
        "claims": blocks,
        "pass": all(r.ok for r in results),
    }
