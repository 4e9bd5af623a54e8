"""Full periodic correlation distributions of a family, two ways.

The brute engine computes every inner product directly and relies on no
transform theory.  It unpacks the family's bits once into an m x p matrix
S of +-1 float32 entries; for each shift tau, S rotated by tau times S
transposed holds all m^2 correlations at that shift, exact because every
partial sum is an integer of size at most p < 2^24.  Since
C(i, j, tau) = C(j, i, p - tau) and p is odd, shift 0 is counted once and
shifts 1 .. (p - 1)/2 twice.  Products are taken a block of rows at a
time, so memory stays O(m p) plus one block buffer per thread.

The spectral engine never touches sequence bits: the correlation of two
members at a given shift equals a Walsh-transform value of one quadratic
form (minus one), where the form's parameters are simple shift-twisted
combinations of the two tags.  For the part-one grid, which
covers all of E x F, a fixed shift makes the twisted parameters sweep the
whole grid bijectively, so whole blocks reduce to per-lambda column
histograms: the distribution of W_{b,c}(lam) over all (b, c).  Scaling
x -> u x permutes E x F and moves lam to lam u, so every column with
lam != 0 has the histogram of the lam = 1 column, and only the lam = 0 and
lam = 1 columns are computed, a chunk of c at a time.  The completion part
against itself is a whole-grid count too: a shift by tau moves the part-two
tag (zeta, eta) to (zeta alpha^(tau (2^k+1)), eta beta^tau), and over all
part-two tags and shifts these images meet every pair of E* x F* exactly
once (E* x F for odd n/2).  So the triples of one tag (zeta1, eta1) meet the
lam = 0 values of the whole E x F grid minus the row b = zeta1, and for even
n/2 minus the column c = eta1 plus the cell (zeta1, eta1).  Memory stays
O(2^n) per chunk.  Both engines produce identical exact histograms.

Histograms count all ordered triples including the in-phase ones; the
maximum-correlation statistic excludes i = j at shift 0 by removing one
period-value count per family member.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import quadform as qf
from . import theory
from .families import BinarySequence, FamilyKind, SequenceFamily, gamma_delta_sets, unpack_bits
from .gf2n import half_odd
from .histogram import ValueHistogram

BRUTE_DEFAULT_MAX_N = 6
# the spectral engine itself is cheap; the family it reads is the limit
# (about 4 GB at n = 14)
SPECTRAL_MAX_N = 12
# transform values per lam = 1 column chunk
_CHUNK_VALUES = 1 << 20
# correlation values per brute-engine product block
_BLOCK_VALUES = 1 << 20


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


def _shift_block(doubled: np.ndarray, tau: int, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """correlate(s_i, s_j, tau) at [i - lo, j] for lo <= i < hi and every j, into out.

    doubled holds the members' +-1 float32 rows twice side by side, so its
    columns p - tau .. 2p - 1 - tau are each row rotated right by tau, which
    pairs s_i(t) with s_j(t + tau).  The values are exact.
    """
    period = doubled.shape[1] // 2
    return np.matmul(doubled[lo:hi, period - tau:2 * period - tau], doubled[:, :period].T, out=out)


def _shift_counts(doubled: np.ndarray, taus: np.ndarray, times: np.ndarray,
                  block: np.ndarray, index: np.ndarray) -> np.ndarray:
    """bincount of (value + p) over every (i, j) at each shift, times[s] times over.

    block (float32) and index (intp) are (rows, m) buffers for one row block.
    """
    m, period = doubled.shape[0], doubled.shape[1] // 2
    rows = len(block)
    counts = np.zeros(2 * period + 1, dtype=np.int64)
    for tau, t in zip(taus.tolist(), times.tolist()):
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            values = _shift_block(doubled, tau, lo, hi, block[:hi - lo])
            np.add(values, period, out=index[:hi - lo], casting="unsafe")
            counts += t * np.bincount(index[:hi - lo].ravel(), minlength=counts.size)
    return counts


def full_distribution_brute(family: SequenceFamily, jobs: int = 1) -> CorrelationReport:
    """Histogram over all ordered triples by direct +-1 inner products.

    One float32 matrix product per shift and row block (see the module
    docstring).  Shift 0 is counted once and shifts 1 .. (p - 1)/2 twice,
    by C(i, j, tau) = C(j, i, p - tau).  jobs > 1 splits those shifts over
    that many threads; numpy releases the interpreter lock in the matrix
    product and the bincount.  The result does not depend on jobs.
    """
    period = family.period
    bits = unpack_bits([s.bits for s in family.all_sequences()], period)
    doubled = np.tile(1 - 2 * bits.astype(np.float32), 2)
    m = len(doubled)
    rows = min(m, max(1, _BLOCK_VALUES // m))
    taus = np.arange((period + 1) // 2)
    times = np.where(taus == 0, 1, 2)
    parts = [idx for idx in np.array_split(np.arange(taus.size), jobs) if idx.size]
    # buffers come from this thread: ones made in a worker thread would stay
    # resident in that thread's malloc arena after the worker exits
    buffers = [(np.empty((rows, m), np.float32), np.empty((rows, m), np.intp)) for _ in parts]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        counts = sum(pool.map(
            lambda idx, buf: _shift_counts(doubled, taus[idx], times[idx], *buf), parts, buffers))
    hist = ValueHistogram({v - period: int(c) for v, c in enumerate(counts.tolist()) if c})
    return _report(family, "brute", hist)


# -- spectral engine -------------------------------------------------------


def _lambda1_column(ctx, k: int) -> ValueHistogram:
    """Distribution of W_{b,c}(1) over all (b, c) in E x F."""
    cs = ctx.subfield_elements
    step = max(1, _CHUNK_VALUES // ctx.order)
    col = ValueHistogram()
    for lo in range(0, len(cs), step):
        col.merge(ValueHistogram.from_array(qf.transform_column(ctx, k, cs[lo:lo + step], 1)))
    return col


def _completion_block(ctx, k: int, at0: np.ndarray) -> ValueHistogram:
    """W(0) over every (t1, t2, tau) with t1, t2 in part two, given the c = 0
    and c = 1 rows at0 of W_{b,c}(0): per t1 the whole E x F grid minus one
    row, and for even n/2 minus one column plus one cell (module docstring)."""
    zeta, eta = (a.ravel() for a in np.meshgrid(*gamma_delta_sets(ctx), indexing="ij"))
    row1 = ValueHistogram.from_array(at0[1])
    block = ValueHistogram.from_array(at0[0], zeta.size)
    block.merge(row1, zeta.size * ((1 << ctx.half) - 1))
    if not half_odd(ctx.n):
        cell, _ = qf.scale_to_norm_one(ctx, k, zeta, eta, 0)
        block.merge(ValueHistogram.from_array(at0[1][cell]))
        block.merge(row1, -zeta.size)
    b1, _ = qf.scale_to_norm_one(ctx, k, zeta[:, None], ctx.subfield_elements[None, 1:], 0)
    block.merge(ValueHistogram.from_array(at0[0][zeta]), -1)
    return block.merge(ValueHistogram.from_array(at0[1][b1]), -1)


def full_distribution_spectral(family: SequenceFamily) -> CorrelationReport:
    """Histogram via the shift-to-transform parameter map and two transform
    columns; reads the family's parameters and size, never a member."""
    params = family.params
    ctx, k = params.ctx, params.k
    order, group = ctx.order, ctx.group_order

    if params.kind == FamilyKind.SMALL_KASAMI:
        # part one is the gamma = 0 slice.  At shift tau the pair (delta1,
        # delta2) meets the form (0, delta1 + delta2 beta^tau) at
        # lam = 1 + alpha^tau, and for each delta2 that sum sweeps F once.
        sweep = 1 << ctx.half
        lam = 1 ^ ctx.antilog
        # the zero form c = 0: 2^n at lam = 0 (tau = 0), zero elsewhere
        walsh = ValueHistogram({order: sweep, 0: (group - 1) * sweep})
        # c != 0: W_{0,c}(lam) = W_{0,1}(lam u) with N(u) = 1/c
        norm = qf.walsh_spectrum(qf.QuadFormParams(ctx, k, 0, 1))
        cs = ctx.subfield_elements[1:]
        _, lam_u = qf.scale_to_norm_one(ctx, k, 0, cs[None, :], lam[:, None])
        walsh.merge(ValueHistogram.from_array(norm[lam_u], sweep))
    else:
        # part one covers all of E x F: for a fixed shift the twisted tag
        # combinations sweep the grid bijectively, once per opposing tag, so
        # each block is a multiple of a column histogram.  Part one against
        # itself meets lam = 1 + alpha^tau (0 at tau = 0, else never 0 or 1);
        # part one against part two, either way round, meets every lam != 0.
        grid = 1 << (3 * ctx.half)
        at0 = qf.transform_column(ctx, k, [0, 1], 0)  # rows: c = 0, c = 1
        walsh = ValueHistogram.from_array(at0[0], grid)
        # each c != 0 scales to c = 1
        walsh.merge(ValueHistogram.from_array(at0[1], grid * ((1 << ctx.half) - 1)))
        walsh.merge(_lambda1_column(ctx, k), grid * (order - 2) + 2 * (family.size - grid) * group)
        walsh.merge(_completion_block(ctx, k, at0))

    return _report(family, "spectral", walsh.shifted(-1))


def predicted_histogram(family: SequenceFamily) -> ValueHistogram:
    """The exact closed-form histogram this family must produce."""
    n = family.params.ctx.n
    if family.params.kind == FamilyKind.SMALL_KASAMI:
        return theory.small_kasami_correlation(n)
    return theory.family_correlation_histogram(n)
