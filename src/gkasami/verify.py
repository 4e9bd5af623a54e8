"""One-shot verification of every closed-form claim against exhaustive
desk-scale computation.

Each claim compares an independently computed quantity (direct spectra,
rank computations, brute-force root or set counting, sequence enumeration)
with its closed form, and reports a machine-readable block.  The applicable
claim set depends on the parity of n/2; a few are additionally capped by
the size guards of their underlying scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correlation as corr
from . import families as fam
from . import fieldeq, theory
from .gf2n import FieldCtx, half_odd
from .histogram import ValueHistogram
from .quadform import (
    spectra_block,
    spectrum_distribution,
    symplectic_ranks,
    transform_column,
)

VERIFY_NS = (4, 6, 8)
BRUTE_CROSSCHECK_MAX_N = 6


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
    jobs: int = 1
    _family: fam.SequenceFamily | None = None
    _spectral: corr.CorrelationReport | None = None
    _code: theory.CodeSpec | None = None

    @property
    def family(self) -> fam.SequenceFamily:
        if self._family is None:
            self._family = fam.build_family(
                fam.family_params(self.ctx, fam.FamilyKind.GENERALIZED, self.k)
            )
        return self._family

    @property
    def spectral_report(self) -> corr.CorrelationReport:
        if self._spectral is None:
            self._spectral = corr.full_distribution_spectral(self.family)
        return self._spectral

    @property
    def code(self) -> theory.CodeSpec:
        if self._code is None:
            self._code = theory.build_code(self.ctx, self.k)
        return self._code


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
    ranks = symplectic_ranks(ctx, k, range(1, ctx.order), 0)
    if half_odd(n):
        ranks = set(ranks.tolist())
        return ClaimResult(
            "pure-quad-rank", ranks == {n - 2}, {"all": n - 2}, {"ranks": sorted(ranks)}
        )
    cubic = ctx.log[1:] % 3 == 0
    ok = bool(np.all(ranks == np.where(cubic, n - 2, n)))
    return ClaimResult(
        "pure-quad-rank", ok, {"cubic": n - 2, "non-cubic": n}, {"all-match": ok}
    )


def _claim_pure_quad_transform(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    n = ctx.n
    bs = range(1, ctx.order)
    at1 = spectrum_distribution(ctx, k, bs, [0], [1])
    if half_odd(n):
        at0 = spectrum_distribution(ctx, k, bs, [0], [0])
        ok = at0 == ValueHistogram({0: ctx.order - 1})
        want = theory.predict("walsh-b-at1-odd", n, k).histogram
        ok &= at1 == want
        return ClaimResult(
            "pure-quad-transform", ok,
            {"at0": "all zero", "at1": _entries(want)},
            {"at0": _entries(at0), "at1": _entries(at1)},
        )
    at0 = spectrum_distribution(ctx, k, bs, [0], [0])
    want0 = theory.predict("walsh-b-at0-even", n, k).histogram
    want1 = theory.predict("walsh-b-at1-even", n, k).histogram
    return ClaimResult(
        "pure-quad-transform", at0 == want0 and at1 == want1,
        {"at0": _entries(want0), "at1": _entries(want1)},
        {"at0": _entries(at0), "at1": _entries(at1)},
    )


def _claim_norm_form(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    n = ctx.n
    cs = [int(c) for c in ctx.subfield_elements[1:]]
    ranks_ok = bool(np.all(symplectic_ranks(ctx, k, 0, cs) == n))
    at0 = spectrum_distribution(ctx, k, [0], cs, [0])
    at1 = spectrum_distribution(ctx, k, [0], cs, [1])
    want0 = theory.predict("walsh-c-at0", n, k).histogram
    want1 = theory.predict("walsh-c-at1", n, k).histogram
    return ClaimResult(
        "norm-form", ranks_ok and at0 == want0 and at1 == want1,
        {"rank": n, "at0": _entries(want0), "at1": _entries(want1)},
        {"ranks-all-n": ranks_ok, "at0": _entries(at0), "at1": _entries(at1)},
    )


def _claim_walsh_full(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    got = spectrum_distribution(
        ctx, k, range(ctx.order), ctx.subfield_elements, range(ctx.order)
    )
    return _hist_claim("walsh-full-distribution", got,
                       theory.predict("walsh-full", ctx.n, k).histogram)


def _claim_walsh_mixed(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    n = ctx.n
    bs = range(1, ctx.order)
    cs = [int(c) for c in ctx.subfield_elements[1:]]
    at0 = spectrum_distribution(ctx, k, bs, cs, [0])
    at1 = spectrum_distribution(ctx, k, bs, cs, [1])
    suffix = "odd" if half_odd(n) else "even"
    want0 = theory.predict(f"walsh-bc-at0-{suffix}", n, k).histogram
    want1 = theory.predict(f"walsh-bc-at1-{suffix}", n, k).histogram
    return ClaimResult(
        "walsh-mixed-pairs", at0 == want0 and at1 == want1,
        {"at0": _entries(want0), "at1": _entries(want1)},
        {"at0": _entries(at0), "at1": _entries(at1)},
    )


def _claim_walsh_family_mix(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    n = ctx.n
    cs_all = [int(c) for c in ctx.subfield_elements]
    if half_odd(n):
        got = spectrum_distribution(ctx, k, range(ctx.order), cs_all, [1])
        got.merge(spectrum_distribution(ctx, k, [1], cs_all, [0]))
        want = theory.predict("walsh-family-mix-odd", n, k).histogram
        return _hist_claim("walsh-family-mix", got, want)
    weight = ctx.order + (1 << ctx.half) - 1
    got = spectrum_distribution(ctx, k, range(ctx.order), cs_all, [1], weight)
    gset, dset = fam.gamma_delta_sets(ctx)
    for z1 in gset:
        for e1 in dset:
            rest = [c for c in cs_all if c != e1]
            got.merge(spectrum_distribution(ctx, k, [z1], rest, [0]))
            got.merge(spectrum_distribution(ctx, k, range(ctx.order), [e1], [0]))
    want = theory.predict("walsh-family-mix-even", n, k).histogram
    return _hist_claim("walsh-family-mix", got, want)


def _claim_subgrid_orbits(b: _Bundle) -> ClaimResult:
    """Even parity only: the completion-grid transform multisets tile the full
    grid's multiset with the expected multiplicities."""
    ctx, k = b.ctx, b.k
    cs = [int(c) for c in ctx.subfield_elements[1:]]
    gset, dset = fam.gamma_delta_sets(ctx)
    full = spectrum_distribution(ctx, k, range(1, ctx.order), cs, [0])
    over_gamma = spectrum_distribution(ctx, k, gset, cs, [0], (ctx.order - 1) // 3)
    over_delta = spectrum_distribution(ctx, k, range(1, ctx.order), dset, [0], 3)
    small = spectrum_distribution(ctx, k, gset, dset, [0], 3)
    gamma_fstar = spectrum_distribution(ctx, k, gset, cs, [0])
    ok = over_gamma == full and over_delta == full and small == gamma_fstar
    return ClaimResult(
        "subgrid-orbit-multisets", ok,
        {"tiles": "full grid"},
        {"gamma-times-(2^n-1)/3": over_gamma == full,
         "delta-times-3": over_delta == full,
         "gamma-delta-times-3-vs-gamma-fstar": small == gamma_fstar},
    )


def _claim_affine_root_bound(b: _Bundle) -> ClaimResult:
    """Exhaustive over all (eps, v, theta): each nonzero x is a root for the
    one v = (eps x^3 + theta) / x, so the root count of (eps, v, theta) is
    how many x share that v.  Vectorized over theta, one eps at a time, so
    intermediates stay at 2^{2n} values."""
    ctx = b.ctx
    order, group = ctx.order, ctx.group_order
    xs = np.arange(1, order, dtype=np.int64)
    log_x = ctx.log[xs]
    px = ctx.pow_vec(xs, 3)
    thetas = np.arange(1, order, dtype=np.int64)[:, None]
    row_base = np.arange(group, dtype=np.int64)[:, None] * order
    worst = 0
    for eps in range(1, order):
        u = ctx.scale_vec(eps, px)[None, :] ^ thetas
        v = np.where(u != 0, ctx.antilog[(ctx.log[u] - log_x) % group], 0)
        counts = np.bincount((row_base + v).ravel(), minlength=group * order)
        worst = max(worst, int(counts.max()))
    return ClaimResult("affine-root-bound", worst <= 3, {"max": 3},
                       {"max-roots": worst}, "exhaustive grid")


def _claim_three_root_thetas(b: _Bundle) -> ClaimResult:
    first, second = fieldeq.count_three_root_thetas(b.ctx, b.k)
    want = theory.three_root_theta_count(b.ctx.n)
    return ClaimResult(
        "three-root-theta-count", first == want and second == want,
        {"first": want, "second": want}, {"first": first, "second": second},
    )


def _claim_reduced_vs_kernel(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    ok = True
    seen = set()
    for theta in range(1, ctx.order):
        kernel_count = fieldeq.count_kernel_roots(ctx, theta, k)
        first, second = fieldeq.count_reduced_roots(ctx, theta, k)
        seen |= {kernel_count, first, second}
        ok &= kernel_count == first == second
    ok &= seen <= {0, 3}
    return ClaimResult(
        "reduced-vs-kernel-roots", ok,
        {"per-theta": "equal counts in {0, 3}"},
        {"all-equal": ok, "counts-seen": sorted(seen)},
    )


def _claim_census(b: _Bundle) -> ClaimResult:
    report = fieldeq.census_report(b.ctx, b.k)
    return ClaimResult("equation-census", report["match"],
                       None, report["counts"])


def _claim_rank_split_per_c(b: _Bundle) -> ClaimResult:
    ctx, k = b.ctx, b.k
    want = theory.rank_deficient_b_count(ctx.n)
    bs = np.arange(1, ctx.order)[:, None]
    ranks = symplectic_ranks(ctx, k, bs, ctx.subfield_elements[None, 1:])
    counts = np.count_nonzero(ranks == ctx.n - 2, axis=0)
    ok = bool(np.all(counts == want))
    got = int(counts[0])
    return ClaimResult("rank-split-per-c", ok, {"rank-deficient-b": want},
                       {"count": got, "same-for-every-c": ok})


def _claim_rank_value_consistency(b: _Bundle) -> ClaimResult:
    """Ranks against spectra: a rank-2h form takes values +-2^{n-h} with the
    quadratic-form multiplicities and vanishes elsewhere."""
    ctx, k = b.ctx, b.k
    n = ctx.n
    ok = True
    for c in ctx.subfield_elements.tolist():
        bs = np.arange(0 if c else 1, ctx.order)  # skip the zero form
        h2 = symplectic_ranks(ctx, k, bs, c)
        spec = spectra_block(ctx, k, bs, [c])[:, 0]
        top = (1 << (n - h2 // 2))[:, None]
        got = np.stack([np.count_nonzero(spec == v, axis=1) for v in (top, -top, 0)])
        full, half = 1 << h2, 1 << (h2 // 2)
        want = np.stack([(full + half) // 2, (full - half) // 2, ctx.order - full])
        ok &= bool(np.all(h2 % 2 == 0) and np.array_equal(got, want)
                   and np.all(got.sum(axis=0) == ctx.order))
    return ClaimResult("rank-value-consistency", ok,
                       {"spectra": "rank-determined"}, {"all-match": ok})


def _claim_code_weights(b: _Bundle) -> ClaimResult:
    want = theory.predict("code-weights", b.ctx.n, b.k).histogram
    return _hist_claim("code-weights", b.code.weight_histogram, want)


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
        brute = corr.full_distribution_brute(b.family, jobs=b.jobs)
        ok &= brute.histogram == spectral.histogram
        note = "brute engine cross-checked"
    # every member contributes its in-phase value exactly once
    ok &= spectral.histogram.counts.get(spectral.period, 0) == spectral.family_size
    return ClaimResult(
        "family-correlation", ok, _entries(want), _entries(spectral.histogram), note
    )


def _claim_imbalance(b: _Bundle) -> ClaimResult:
    ctx = b.ctx
    got = ValueHistogram({})
    for s in b.family.all_sequences():
        got.add_value(fam.imbalance(s))
    want = theory.imbalance_histogram(ctx.n)
    ok = got == want
    # per-sequence bridge: imbalance = transform value at 1 (part one) or
    # at 0 (part two), minus one
    cidx = ctx.subfield_index
    for lam, part in ((1, b.family.part1), (0, b.family.part2)):
        column = transform_column(ctx, b.k, ctx.subfield_elements, lam)
        for s in part:
            bb, c = s.tag.pair()
            ok &= fam.imbalance(s) == int(column[cidx[c], bb]) - 1
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


def _claim_family_structure(b: _Bundle) -> ClaimResult:
    ctx = b.ctx
    family = b.family
    sizes_ok = (
        family.size == theory.family_size(ctx.n)
        and len(family.part1) == 1 << (3 * ctx.half)
    )
    bits = {s.bits for s in family.all_sequences()}
    distinct_ok = len(bits) == family.size
    small = fam.build_family(fam.family_params(ctx, fam.FamilyKind.SMALL_KASAMI))
    part1_bits = {s.bits for s in family.part1}
    small_ok = all(s.bits in part1_bits for s in small.part1)
    note = None
    large_ok = True
    if b.k == ctx.half + 1:
        large = fam.build_family(fam.family_params(ctx, fam.FamilyKind.LARGE_KASAMI))
        large_ok = {s.bits for s in large.all_sequences()} == bits
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


def run_claims(ctx: FieldCtx, k: int, jobs: int = 1) -> list[ClaimResult]:
    bundle = _Bundle(ctx, k, jobs)
    results = []
    for claim in _CLAIMS:
        if claim is _claim_subgrid_orbits and half_odd(ctx.n):
            continue
        results.append(claim(bundle))
    return results


def claims_report(ctx: FieldCtx, k: int, jobs: int = 1) -> dict:
    results = run_claims(ctx, k, jobs)
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
