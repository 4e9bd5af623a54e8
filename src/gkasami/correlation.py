"""Full periodic correlation distributions of a family, two ways.

The brute engine computes every inner product directly and relies on no
transform theory.  It unpacks the family's member table once into an
m x p matrix S of +-1 float32 entries.  p is odd, so every correlation
C = sum of p terms +-1 is odd, and d = (p - C)/2 is an integer in
[0, 2^n).  Two members share one left row: for +-1 rows a1 and a2 the
row -(a1 + 2^n a2)/2 times a column of S transposed, plus p (1 + 2^n)/2,
is exactly d1 + 2^n d2.  The terms are half-integers and every partial sum
stays below p (1 + 2^n)/2 < 2^23 up to n = 12, so float32 holds them
exactly.  So for each shift tau, the m/2 folded rows rotated by tau times
S transposed hold all m^2 correlations at that shift, and one bincount
over the 4^n cells (d1, d2) tallies them: the cells' row sums plus column
sums are the histogram of d.  For an odd row count the last row is folded
with itself and counted at half weight.

Most shifts need no product of their own.  With D s(t) = s(2t), the change
of summation index u = 2t mod p gives C(Ds_i, Ds_j, tau) = C(s_i, s_j,
2 tau), and C(s_i, s_j, -tau) = C(s_j, s_i, tau).  So over any member set
P that D maps onto itself, the histogram of P x P at shift tau is the one
at 2 tau and at -tau, and one shift per orbit of tau -> 2 tau, tau -> -tau
on Z_p (4, 8 and 20 orbits at n = 4, 6 and 8), counted with the orbit
size, stands for them all.  P is found from the bits alone: each member
is decimated (columns 2t mod p gathered and repacked) and looked up among
the members' packed rows (families.RowIndex), and members whose image is
missing leave the candidate set until D maps what stays into it; D is
injective, so it then permutes P, and if members repeat, P is empty.
That is every member for odd n/2, and for even n/2 all of part one and
the part-two members whose whole decimation orbit is in the family (4097
of 4111 at n = 8).  The pairs with a member in the rest R, R x all and
P x R, take every shift.  This is a reindexing of the same inner
products, not a sample, and no transform theory enters it.  Products are
taken a block of row pairs at a time, or for a small family several
whole shifts at a time, so memory stays O(m p) plus one block of at most
2^20 float32 products and their intp casts, and the 4^n cell counts of
one tally (32 KB at n = 6, 8 MB at n = 10).

The spectral engine never touches sequence bits and reads only the
family's parameters: the correlation of two members at a given shift
equals a Walsh-transform value of one quadratic form (minus one), where the
form's parameters are simple shift-twisted combinations of the two tags.
For the part-one grid, which covers all of E x F, a fixed shift makes the
twisted parameters sweep the whole grid bijectively, so whole blocks reduce
to per-lambda column histograms: the distribution of W_{b,c}(lam) over all
(b, c).  Scaling x -> u x permutes E x F and moves lam to lam u, so every
column with lam != 0 has the histogram of the lam = 1 column.  A form's
rank fixes its spectrum over all lam (quadform.rank_spectrum), so the
grid's spectra less its lam = 0 column are 2^n - 1 lam = 1 columns.
The same substitution maps the form (b, c) to (b u^(2^k+1), c N(u)) and
keeps its rank and W(0), and so does (b, c) -> (b^2, c^2), so the ranks
and W(0) of one form per class of both (the leaders of
quadform.form_classes: 4119 at n = 32), counted with the class sizes, give
those of all 2^(3n/2).  Both come from one pass, quadform.form_values:
each leader's polar rows, read through one pair of polar maps built per
call and eliminated one hyperbolic pair at a time in one kernel over
narrow words, give its W(0) and its rank, with no transform column and no
2^n-entry table.  So a pass is form_classes, one pair of maps, one
elimination, and one dict of transform-value counts that the lam = 0
column, the lam = 1 column and the completion block add into, shifted by
-1 into the one histogram the report carries.
The completion part against itself is a whole-grid count too: a shift by tau moves the part-two tag
(zeta, eta) to (zeta alpha^(tau (2^k+1)), eta beta^tau), and over all
part-two tags and shifts these images meet every pair of E* x F* exactly
once (E* x F for odd n/2).  So the triples of one tag (zeta1, eta1) meet
the lam = 0 values of the whole E x F grid minus the row b = zeta1, and for
even n/2 minus the column c = eta1 plus the cell (zeta1, eta1), each
counted over the orbits of x -> u*x by residues of logs mod g1 and g2.  The
small Kasami set needs one form, (0, 1), the norm form: x -> u*x with
N(u) = 1 fixes it, so W_{0,1}(lam u) = W_{0,1}(lam) and its values are
constant on the cosets of U = ker N, 2^(n/2) + 1 elements each.  Its
spectrum less W(0), which its rank fixes, is then 2^(n/2) + 1 copies of
the column of one value per coset, the same exact division as the
lam = 1 column's, and quadform.form_values gives the rank and W(0) from
one elimination of its polar rows in Python ints.  So the engine runs
wherever a field context does, to n = 32.  Both engines produce identical
exact histograms.

The completion block is the one step that needs k admissible,
gcd(n/2 - k, n) = 1.  A tag's images zeta alpha^(tau (2^k+1)) stay in
the coset of zeta under the subgroup of index g1 = gcd(2^k+1, 2^n-1), so
the tags meet every pair once only if Gamma holds one element of each
coset, g1 = |Gamma|: 1 for odd n/2 and 3 for even, which admissible k
gives (for even n/2 the two conditions are the same).  Part one against itself and
against part two sweep the grid bijectively for any k.  At n = 6, k = 1
(g1 = 3, Gamma = {1}) the brute engine on the rows of part one, of part
two and of both (tests/reference.py's fk_member_rows) equals the part-one
and the cross blocks and differs from the completion block in its 63, 15,
-9 and -33 counts: 63 is taken 24 times, not 8, so 16 ordered pairs of
distinct part-two members are cyclic shifts of one another.  At n = 8,
k = 2 (g1 = 5) it is 27 times, not 15.

Histograms count all ordered triples including the in-phase ones; the
maximum-correlation statistic excludes i = j at shift 0 by removing one
period-value count per family member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadform as qf
from . import theory
from .families import (
    FamilyKind,
    RowIndex,
    SequenceFamily,
    completion_logs,
    member_table,
    sign_rows,
)
from .gf2n import cyclotomic_classes, half_odd
from .histogram import ValueHistogram

BRUTE_DEFAULT_MAX_N = 6
# folded products per brute-engine tally block
_BLOCK_VALUES = 1 << 20
# float32 holds every half-integer of smaller size exactly
_HALF_INTEGERS_EXACT = 1 << 23


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


def _r_max_from_histogram(hist: ValueHistogram, period: int, size: int) -> int:
    """Largest |value| over all triples except the in-phase autocorrelations."""
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
    period, size = family.period, family.size
    if hist.total() != size**2 * period:
        raise AssertionError("histogram does not cover all ordered triples")
    return CorrelationReport(
        n=family.params.ctx.n,
        k=family.params.k,
        kind=family.params.kind,
        engine=engine,
        family_size=size,
        period=period,
        histogram=hist,
        r_max=_r_max_from_histogram(hist, period, size),
    )


# -- brute engine --------------------------------------------------------


def _fold_offset(period: int) -> float:
    """p (1 + 2^n) / 2, which turns a folded product into d1 + 2^n d2.

    It also bounds every partial sum of a folded product.  Those sums are
    half-integers, exact in float32 below 2^23, which holds up to n = 12;
    a longer period raises ValueError.
    """
    offset = period * (period + 2) / 2
    if offset >= _HALF_INTEGERS_EXACT:
        raise ValueError(f"folded products of period {period} are not exact in float32")
    return offset


def _fold(signs: np.ndarray) -> np.ndarray:
    """Left rows of the brute products, twice side by side: -(a1 + 2^n a2) / 2
    for the +-1 rows a1 = signs[2q], a2 = signs[2q + 1], and for an odd row
    count the last row folded with itself."""
    m, period = signs.shape
    folded = np.empty(((m + 1) // 2, 2 * period), dtype=np.float32)
    left = folded[:, :period]
    np.multiply(signs[1::2], period + 1, out=left[:m // 2])
    if m % 2:
        np.multiply(signs[-1], period + 1, out=left[-1])
    left += signs[0::2]
    left *= -0.5
    folded[:, period:] = left
    return folded


def _shift_block(folded: np.ndarray, right: np.ndarray, tau: int, lo: int, hi: int,
                 out: np.ndarray) -> np.ndarray:
    """Folded products of left rows lo .. hi - 1 at shift tau with every right row, into out.

    Columns p - tau .. 2p - 1 - tau of folded are each row rotated right by
    tau, which pairs s_i(t) with s_j(t + tau); right is the right +-1 rows
    transposed.  Plus _fold_offset, the value at [q - lo, j] is
    d(2q, j) + 2^n d(2q + 1, j), where d = (p - C(i, j, tau)) / 2.
    """
    period = right.shape[0]
    return np.matmul(folded[lo:hi, period - tau:2 * period - tau], right, out=out)


def _tally(values: np.ndarray, index: np.ndarray, times: int, counts: np.ndarray) -> None:
    """Add the d1 and d2 of every folded product in values, times over, to
    counts: one bincount over the 4^n cells (d1, d2), or, for fewer products
    than cells (small families), one 2^n-bin bincount each for d1 and d2.
    index is intp scratch."""
    order = len(counts)
    np.add(values, _fold_offset(order - 1), out=index, casting="unsafe")
    if len(index) < order * order:
        low = np.bincount(index & (order - 1), minlength=order)
        index >>= order.bit_length() - 1
        counts += times * (low + np.bincount(index, minlength=order))
        return
    cells = np.bincount(index, minlength=order * order).reshape(order, order)
    counts += times * (cells.sum(axis=0) + cells.sum(axis=1))


def _shift_counts(folded: np.ndarray, right: np.ndarray, taus: np.ndarray, times: np.ndarray,
                  block: np.ndarray, index: np.ndarray) -> np.ndarray:
    """d counts of every left row of folded against every right row at each shift,
    times[s] times over at taus[s].

    block (float32) and index (intp) are flat buffers of one size.  Products
    of successive shifts and row blocks fill block until the next would not
    fit or the weight changes, and then one _tally covers them all.
    """
    period, m = right.shape
    rows = min(len(folded), len(block) // m)
    counts = np.zeros(period + 1, dtype=np.int64)
    filled = weight = 0
    for tau, t in zip(taus.tolist(), times.tolist()):
        for lo in range(0, len(folded), rows):
            hi = min(lo + rows, len(folded))
            size = (hi - lo) * m
            if filled and (filled + size > len(block) or t != weight):
                _tally(block[:filled], index[:filled], weight, counts)
                filled = 0
            weight = t
            _shift_block(folded, right, tau, lo, hi, block[filled:filled + size].reshape(hi - lo, m))
            filled += size
    _tally(block[:filled], index[:filled], weight, counts)
    return counts


def _decimation_closed(rows: np.ndarray, period: int) -> list[int]:
    """Indices, in order, of the largest set P of rows that decimation by 2,
    s(t) -> s(2t), maps into itself, found from the packed rows alone.

    Each row is unpacked, its columns 2t mod p are gathered and repacked, and
    the result is looked up among the rows (families.RowIndex).  Rows whose
    image is missing leave the candidate set until what stays maps into
    itself.  D is injective, so on distinct rows it then permutes P; if
    rows repeat, P is empty.
    """
    bits = np.unpackbits(rows, axis=1, count=period, bitorder="little")
    decimated = np.packbits(bits[:, 2 * np.arange(period) % period], axis=1, bitorder="little")
    index = RowIndex(rows)
    if len(index.repeats()):
        return []
    image = index.find(decimated)
    closed = image >= 0
    while True:
        kept = closed & closed[image]  # image -1 only where closed is already False
        if np.array_equal(kept, closed):
            return np.flatnonzero(closed).tolist()
        closed = kept


def _shift_orbits(period: int) -> tuple[np.ndarray, np.ndarray]:
    """The least shift of each orbit of tau -> 2 tau, tau -> -tau on Z_p,
    p = 2^n - 1, and the orbit sizes, in order of size, then of shift.  The
    orbit of tau joins its class under doubling (gf2n.cyclotomic_classes)
    and that of -tau."""
    leaders, index = cyclotomic_classes(period, 2)
    # leaders increase, so the lesser class index holds the orbit's least shift
    least = leaders[np.minimum(index, index[-np.arange(period) % period])]
    reps, sizes = np.unique(least, return_counts=True)
    order = np.argsort(sizes, kind="stable")
    return reps[order], sizes[order]


def _block_counts(left: np.ndarray, right: np.ndarray, taus: np.ndarray,
                  times: np.ndarray) -> np.ndarray | int:
    """d counts of every +-1 row of left against every row of right, times[s]
    times over at shift taus[s]."""
    columns, m = right.T, len(right)
    if not len(left) or not m:
        return 0
    period, pairs, folded = len(columns), len(left) // 2, _fold(left)
    # a tally covers a row block at one shift, or whole shifts up to about
    # one product per cell (d1, d2), within _BLOCK_VALUES; with fewer
    # products than cells it bins d1 and d2 apart, and 2^16 of them will do
    cells, row = (period + 1) ** 2, max(pairs, 1) * m
    size = min(max(row, cells), _BLOCK_VALUES, taus.size * row)
    if size < cells:
        size = min(size, max(row, 1 << 16))
    buffers = np.empty(size, np.float32), np.empty(size, np.intp)
    counts = 0
    if pairs:
        counts = _shift_counts(folded[:pairs], columns, taus, times, *buffers)
    if len(left) % 2:  # the last row, folded with itself: each of its values counts twice
        counts = counts + _shift_counts(folded[pairs:], columns, taus, times, *buffers) // 2
    return counts


def _brute_histogram(rows: np.ndarray, period: int) -> ValueHistogram:
    """C(i, j, tau) over every ordered pair of packed rows (see packed_rows)
    and every shift, by direct +-1 inner products.

    Pairs within the decimation-closed set P are counted at one shift per
    orbit of tau -> 2 tau, tau -> -tau, times the orbit size; pairs with a
    row outside P at every shift (module docstring).
    """
    _fold_offset(period)  # refuse an inexact period before any product
    closed = _decimation_closed(rows, period)
    rest = sorted(set(range(len(rows))).difference(closed))
    signs = sign_rows(rows[closed + rest], period)
    inside, outside = signs[:len(closed)], signs[len(closed):]
    every = np.arange(period)
    counts = (_block_counts(inside, inside, *_shift_orbits(period))
              + _block_counts(outside, signs, every, np.ones_like(every))
              + _block_counts(inside, outside, every, np.ones_like(every)))
    return ValueHistogram({period - 2 * d: c for d, c in enumerate(counts.tolist()) if c})


def full_distribution_brute(family: SequenceFamily, jobs: int = 1) -> CorrelationReport:
    """Histogram over all ordered triples by direct +-1 inner products.

    One float32 matrix product per shift and block of folded row pairs (see
    the module docstring).  For the members that decimation by 2 permutes,
    checked from their bits, one shift per orbit of tau -> 2 tau,
    tau -> -tau stands for the whole orbit: C(Ds_i, Ds_j, tau) =
    C(s_i, s_j, 2 tau) is a change of summation index, not transform
    theory.  jobs is accepted and ignored: the engine runs on one thread.
    """
    return _report(family, "brute", _brute_histogram(member_table(family)[0], family.period))


# -- spectral engine -------------------------------------------------------


def _weighted(pairs, times: int = 1, into: dict | None = None) -> dict:
    """The count dict into (a new one if None) with the value of each pair
    (value, count) of ints added count * times times over."""
    counts = {} if into is None else into
    for v, c in pairs:
        counts[v] = counts.get(v, 0) + c * times
    return counts


def _equal_column(n: int, ranks: list[int], sizes, col0: dict, parts: int) -> dict:
    """Counts of one of `parts` equal columns: the spectra over every lam of
    forms of the given ranks, each counted with its size
    (quadform._rank_counts), less the counts col0 of their lam = 0 column,
    divided exactly by parts (module docstring); AssertionError if the
    division is inexact."""
    every_lam = {v: -c for v, c in col0.items()}
    for rank, count in _weighted(zip(ranks, sizes)).items():
        _weighted(qf._rank_counts(n, rank).items(), count, every_lam)
    if any(c % parts for c in every_lam.values()):
        raise AssertionError(f"summed rank spectra are not {parts} equal columns")
    return {v: c // parts for v, c in every_lam.items() if c}


def _completion_counts(ctx, k: int, classes: qf.FormClasses) -> list[int]:
    """How many triples (t1, t2, tau) with t1, t2 in part two take W(0) of
    each leader of classes (quadform.form_classes), in the leaders' order:
    per t1 = (zeta, eta) the whole E x F grid less the row b = zeta, and for
    even n/2 less the column c = eta plus the cell (zeta, eta) (module
    docstring).  For zeta = alpha^l, W_{zeta,0}(0) is that of the orbit of
    (alpha^(l mod g1), 0); for c = beta^j, u = alpha^(-j) has N(u) = 1/c, so
    W_{zeta,c}(0) = W_{zeta u^(2^k+1),1}(0) is that of
    (alpha^((l - j (2^k+1)) mod g2), 1), as g2 divides
    (2^{n/2} - 1)(2^k + 1); the orbits are read through their leaders'
    rows, classes.on_c0 and classes.on_c1."""
    units, (e1, _) = (1 << ctx.half) - 1, qf.exponents(ctx, k)
    on_c0, on_c1, leaders = classes.on_c0, classes.on_c1, len(classes.sizes)
    gamma_logs, delta_logs = completion_logs(ctx)
    tags = len(gamma_logs) * len(delta_logs)
    counts = [tags * size for size in classes.sizes]
    # the row b = zeta of each tag: c = 0, then c = beta^j for every j
    row = (gamma_logs[:, None] - np.arange(units) * e1) % len(on_c1)
    less = len(delta_logs) * (np.bincount(on_c0[gamma_logs % len(on_c0)], minlength=leaders)
                              + np.bincount(on_c1[row.ravel()], minlength=leaders))
    if not half_odd(ctx.n):
        # Delta lies in F* (even n/2), so the images miss the column c = eta
        # of each tag; a class that meets F* meets each c in it in
        # 1/(2^{n/2} - 1) of its forms
        counts = [count - tags * size // units * c
                  for count, size, c in zip(counts, classes.sizes, classes.cs.tolist())]
        cell = (gamma_logs[:, None] - delta_logs * e1) % len(on_c1)
        less -= np.bincount(on_c1[cell.ravel()], minlength=leaders)
    return [count - m for count, m in zip(counts, less.tolist())]


def full_distribution_spectral(family: SequenceFamily) -> CorrelationReport:
    """Histogram via the shift-to-transform parameter map, W(0) and the
    ranks at the leaders of quadform.form_classes; reads the family's
    parameters, never a member.  Every block adds into one count dict of
    transform values, and the histogram, shifted by -1, is built once."""
    params = family.params
    ctx, k = params.ctx, params.k
    order, group = ctx.order, ctx.group_order

    if params.kind == FamilyKind.SMALL_KASAMI:
        # part one is the gamma = 0 slice.  At shift tau the pair (delta1,
        # delta2) meets the form (0, delta1 + delta2 beta^tau) at
        # lam = 1 + alpha^tau, and for each delta2 that sum sweeps F once.
        sweep = 1 << ctx.half
        # the zero form c = 0: 2^n at lam = 0 (tau = 0), zero elsewhere
        walsh = {order: sweep, 0: (group - 1) * sweep}
        # c != 0: W_{0,c}(lam) = W_{0,1}(lam u) for N(u) = 1/c, so tau = 0
        # meets W_{0,1}(0); W_{0,1}(lam u) = W_{0,1}(lam) for u in U = ker N,
        # so at each of the 2^n - 2 other lam the c in F* meet W_{0,1} once
        # on each coset of U: the form's spectrum less W(0), which its rank
        # fixes, split into 2^{n/2} + 1 equal columns
        w0, rank = (a.item() for a in qf.form_values(ctx, k, [0], [1]))
        _weighted([(w0, sweep - 1)], sweep, walsh)
        col1 = _equal_column(ctx.n, [rank], [1], {w0: 1}, sweep + 1)
        _weighted(col1.items(), sweep * (order - 2), walsh)
    else:
        # part one covers all of E x F: for a fixed shift the twisted tag
        # combinations sweep the grid bijectively, once per opposing tag, so
        # each block is a multiple of a column histogram.  Part one against
        # itself meets lam = 1 + alpha^tau (0 at tau = 0, else never 0 or 1);
        # part one against part two, either way round, meets every lam != 0.
        grid = 1 << (3 * ctx.half)
        classes = qf.form_classes(ctx, k)
        w0, ranks = qf.form_values(ctx, k, classes.bs, classes.cs)  # at each leader
        w0 = w0.tolist()
        col0 = _weighted(zip(w0, classes.sizes))
        walsh = {v: c * grid for v, c in col0.items()}
        col1 = _equal_column(ctx.n, ranks.tolist(), classes.sizes, col0, order - 1)
        _weighted(col1.items(), grid * (order - 2) + 2 * (family.size - grid) * group, walsh)
        _weighted(zip(w0, _completion_counts(ctx, k, classes)), into=walsh)

    return _report(family, "spectral", ValueHistogram({v - 1: c for v, c in walsh.items()}))


def predicted_histogram(family: SequenceFamily) -> ValueHistogram:
    """The exact closed-form histogram this family must produce."""
    n = family.params.ctx.n
    if family.params.kind == FamilyKind.SMALL_KASAMI:
        return theory.small_kasami_correlation(n)
    return theory.family_correlation_histogram(n)
