"""Full periodic correlation distributions of a family, two ways.

The brute engine walks every ordered (i, j, shift) triple and computes the
inner product as period - 2 * popcount(s_i XOR rotate(s_j, shift)) on the
bit-packed sequences.  The spectral engine never touches sequence bits: the
correlation of two members at a given shift equals a Walsh-transform value
of one quadratic form (minus one), where the form's parameters are simple
shift-twisted combinations of the two tags.  For the part-one grid, which
covers all of E x F, a fixed shift makes the twisted parameters sweep the
whole grid bijectively, so whole blocks reduce to per-lambda column
histograms: the distribution of W_{b,c}(lam) over all (b, c).  Scaling
x -> u x permutes E x F and moves lam to lam u, so every column with
lam != 0 has the histogram of the lam = 1 column, and only the lam = 0 and
lam = 1 columns are computed, a chunk of c at a time.  The completion part
is looked up triple by triple in the lam = 0 transforms of the forms with
c in {0, 1}, after scaling each form to c = 1.  Memory stays O(2^n) per
chunk.  Both engines produce identical exact histograms.

Histograms count all ordered triples including the in-phase ones; the
maximum-correlation statistic excludes i = j at shift 0 by removing one
period-value count per family member.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import quadform as qf
from . import theory
from .families import BinarySequence, FamilyKind, SequenceFamily
from .histogram import ValueHistogram

BRUTE_DEFAULT_MAX_N = 6
# the spectral engine itself is cheap; the family it reads is the limit
# (about 4 GB at n = 14)
SPECTRAL_MAX_N = 12
# transform values per lam = 1 column chunk
_CHUNK_VALUES = 1 << 20


class LengthMismatch(ValueError):
    """Raised when correlating sequences of different periods."""


def rotate(bits: int, tau: int, length: int) -> int:
    """Cyclic left rotation: bit t of the result is bit (t + tau) of the input."""
    tau %= length
    mask = (1 << length) - 1
    return ((bits >> tau) | (bits << (length - tau))) & mask


def correlate(s1: BinarySequence, s2: BinarySequence, tau: int) -> int:
    """sum_t (-1)^(s1(t) + s2(t + tau)), exact."""
    if s1.length != s2.length:
        raise LengthMismatch(f"{s1.length} != {s2.length}")
    if not 0 <= tau < s1.length:
        raise ValueError(f"tau = {tau} out of range")
    return s1.length - 2 * (s1.bits ^ rotate(s2.bits, tau, s2.length)).bit_count()


@dataclass
class CorrelationReport:
    n: int
    k: int
    kind: FamilyKind
    engine: str
    family_size: int
    period: int
    histogram: ValueHistogram
    r_max: int

    def to_json_dict(self, predicted: ValueHistogram | None = None) -> dict:
        match = None
        if predicted is not None:
            match = self.histogram == predicted
        return {
            "n": self.n,
            "k": self.k,
            "kind": self.kind.value,
            "engine": self.engine,
            "family_size": self.family_size,
            "period": self.period,
            "histogram": self.histogram.to_json_dict()["entries"],
            "r_max": self.r_max,
            "predicted": None if predicted is None else predicted.to_json_dict()["entries"],
            "match": match,
        }


def r_max(report: CorrelationReport) -> int:
    """Largest |value| over all triples except the in-phase autocorrelations."""
    return _r_max_from_histogram(report.histogram, report.period, report.family_size)


def _r_max_from_histogram(hist: ValueHistogram, period: int, size: int) -> int:
    rest = dict(hist.counts)
    inphase = rest.get(period, 0)
    if inphase < size:
        raise ValueError("histogram lacks the in-phase autocorrelation counts")
    if inphase == size:
        rest.pop(period)
    else:
        rest[period] = inphase - size
    return ValueHistogram(rest).max_abs_value()


def _report(family: SequenceFamily, engine: str, hist: ValueHistogram) -> CorrelationReport:
    period = family.period
    if hist.total() != family.size**2 * period:
        raise AssertionError("histogram does not cover all ordered triples")
    return CorrelationReport(
        n=family.params.ctx.n,
        k=family.params.k,
        kind=family.params.kind,
        engine=engine,
        family_size=family.size,
        period=period,
        histogram=hist,
        r_max=_r_max_from_histogram(hist, period, family.size),
    )


# -- brute engine --------------------------------------------------------


def _weight_counts_block(seq_bits: list[int], rot_flat: list[int], lo: int, hi: int) -> Counter:
    counts: Counter = Counter()
    for i in range(lo, hi):
        a = seq_bits[i]
        counts.update((a ^ r).bit_count() for r in rot_flat)
    return counts


def full_distribution_brute(family: SequenceFamily, jobs: int = 1) -> CorrelationReport:
    """Histogram over all ordered triples by direct bit-packed inner products."""
    period = family.period
    seqs = family.all_sequences()
    seq_bits = [s.bits for s in seqs]
    rot_flat = [rotate(b, tau, period) for b in seq_bits for tau in range(period)]
    m = len(seq_bits)
    if jobs > 1 and m > 1:
        bounds = np.linspace(0, m, min(jobs, m) + 1).astype(int)
        weight_counts: Counter = Counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_weight_counts_block, seq_bits, rot_flat, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for fut in futures:
                weight_counts.update(fut.result())
    else:
        weight_counts = _weight_counts_block(seq_bits, rot_flat, 0, m)
    hist = ValueHistogram({period - 2 * w: c for w, c in weight_counts.items()})
    return _report(family, "brute", hist)


# -- spectral engine -------------------------------------------------------


def _count_into(walsh: Counter, values: np.ndarray, times: int = 1) -> None:
    """Add every transform value in the array, `times` times over."""
    vals, cnts = np.unique(values, return_counts=True)
    for v, c in zip(vals, cnts):
        walsh[int(v)] += int(c) * times


def _lambda1_column(ctx, k: int) -> Counter:
    """Distribution of W_{b,c}(1) over all (b, c) in E x F."""
    cs = ctx.subfield_elements
    step = max(1, _CHUNK_VALUES // ctx.order)
    col: Counter = Counter()
    for lo in range(0, len(cs), step):
        _count_into(col, qf.transform_column(ctx, k, cs[lo:lo + step], 1))
    return col


def full_distribution_spectral(family: SequenceFamily) -> CorrelationReport:
    """Histogram via the shift-to-transform parameter map and two transform columns."""
    params = family.params
    ctx, k = params.ctx, params.k
    order, group = ctx.order, ctx.group_order
    taus = np.arange(group, dtype=np.int64)
    walsh: Counter = Counter()

    if params.kind == FamilyKind.SMALL_KASAMI:
        # part one is the gamma = 0 slice.  At shift tau the pair (delta1,
        # delta2) meets the form (0, delta1 + delta2 beta^tau) at
        # lam = 1 + alpha^tau, and for each delta2 that sum sweeps F once.
        sweep = 1 << ctx.half
        lam = 1 ^ ctx.antilog[taus]
        # the zero form c = 0: 2^n at lam = 0 (tau = 0), zero elsewhere
        walsh[order] += sweep
        walsh[0] += (group - 1) * sweep
        # c != 0: W_{0,c}(lam) = W_{0,1}(lam u) with N(u) = 1/c
        norm = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, 0, 1))
        cs = ctx.subfield_elements[1:]
        _, lam_u = qf.scale_to_norm_one(ctx, k, 0, cs[None, :], lam[:, None])
        _count_into(walsh, norm[lam_u], sweep)
    else:
        # part one covers all of E x F: for a fixed shift the twisted tag
        # combinations sweep the grid bijectively, once per opposing tag, so
        # each block is a multiple of a column histogram.  Part one against
        # itself meets lam = 1 + alpha^tau (0 at tau = 0, else never 0 or 1);
        # part one against part two, either way round, meets every lam != 0.
        grid = 1 << (3 * ctx.half)
        m2 = len(family.part2)
        at0 = qf.transform_column(ctx, k, [0, 1], 0)  # rows: c = 0, c = 1
        _count_into(walsh, at0[0], grid)
        _count_into(walsh, at0[1], grid * ((1 << ctx.half) - 1))  # each c != 0 scales to 1
        for v, c in _lambda1_column(ctx, k).items():
            walsh[v] += c * (grid * (order - 2) + 2 * m2 * group)
        # completion against completion: direct lookups of W_{b4,c4}(0)
        e1, e2 = qf.exponents(ctx, k)
        twist_q = ctx.antilog[(e1 * taus) % group]  # alpha^(tau * (2^k + 1))
        twist_n = ctx.antilog[(e2 * taus) % group]  # beta^tau
        tags2 = [s.tag for s in family.part2]
        zeta_q = np.array([ctx.scale_vec(t.zeta, twist_q) for t in tags2])
        eta_n = np.array([ctx.scale_vec(t.eta, twist_n) for t in tags2])
        for t1 in tags2:
            b4 = t1.zeta ^ zeta_q
            c4 = t1.eta ^ eta_n
            nz = c4 != 0
            b1, _ = qf.scale_to_norm_one(ctx, k, b4[nz], c4[nz], 0)
            _count_into(walsh, at0[0][b4[~nz]])
            _count_into(walsh, at0[1][b1])

    hist = ValueHistogram({v - 1: c for v, c in walsh.items()})
    return _report(family, "spectral", hist)


def predicted_histogram(family: SequenceFamily) -> ValueHistogram:
    """The exact closed-form histogram this family must produce."""
    n = family.params.ctx.n
    if family.params.kind == FamilyKind.SMALL_KASAMI:
        return theory.small_kasami_correlation(n)
    return theory.family_correlation_histogram(n)
