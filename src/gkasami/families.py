"""Construction of the sequence families as packed rows.

Three kinds share one container:

* the generalized family for an admissible exponent parameter k, whose
  members come in two parts -- the (gamma, delta) sequences indexed by all
  of E x F, and the (zeta, eta) sequences indexed by a small completion set
  Gamma x Delta;
* the classical large Kasami set, which is the same construction with
  k = n/2 + 1;
* the small Kasami set, which lives inside part one as the gamma = 0 slice.

Each member is a codeword of the [2^n - 1, 5n/2] generalized Kasami code,
the XOR of trace rows packed by packed_rows into uint8 rows (LSB of byte 0
= t = 0), the one bit form of the engines.  Every row is an absolute trace
tr(a x^e): the subfield part tr_h(c x^(2^{n/2}+1)) is the row of
a = delta c, delta = ctx.trh_lift.  tr(a x^e) is GF(2)-linear in a, so
_span_rows builds the 2^n rows of every a from n basis rows.
member_blocks streams the members as packed blocks, whole gammas of part
one per block and one block for part two, each with its tags as an int64
array; write_family formats each block with whole-array operations, and
member_table gathers them into one table.  Packed rows are the only
member form.  RowIndex sorts packed rows by their bytes and finds rows
among them; the brute engine and verify look members up through it.
theory.build_code packs the code's rows with packed_rows and _span_rows
too, and counts their weights by popcount; sign_rows turns packed rows into
the +-1 float32 rows that the brute engine multiplies.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .gf2n import FieldCtx, TooLarge, _linear_table, half_odd
from .quadform import InvalidK, exponents, require_valid_k, trace_rows


class FamilyKind(str, enum.Enum):
    GENERALIZED = "fk"
    SMALL_KASAMI = "small-kasami"
    LARGE_KASAMI = "large-kasami"


@dataclass(frozen=True)
class FamilyParams:
    ctx: FieldCtx
    k: int
    kind: FamilyKind

    def __post_init__(self):
        require_valid_k(self.ctx.n, self.k)
        if self.kind == FamilyKind.LARGE_KASAMI and self.k != self.ctx.half + 1:
            raise InvalidK("the large Kasami set fixes k = n/2 + 1")


def family_params(
    ctx: FieldCtx, kind: FamilyKind | str, k: int | None = None
) -> FamilyParams:
    """Resolve parameters; the large Kasami set forces k = n/2 + 1, and the
    small set (which has no quadratic-exponent term) defaults k the same way."""
    kind = FamilyKind(kind)
    if kind == FamilyKind.LARGE_KASAMI or (kind == FamilyKind.SMALL_KASAMI and k is None):
        k = ctx.half + 1
    if k is None:
        raise InvalidK("kind 'fk' needs an explicit k")
    return FamilyParams(ctx, k, kind)


@dataclass(frozen=True)
class SequenceTag:
    """Construction parameters of one sequence; only the active pair is set."""

    variant: str  # "gamma-delta" or "zeta-eta"
    gamma: int | None = None
    delta: int | None = None
    zeta: int | None = None
    eta: int | None = None

    @classmethod
    def gamma_delta(cls, gamma: int, delta: int) -> "SequenceTag":
        return cls("gamma-delta", gamma=gamma, delta=delta)

    @classmethod
    def zeta_eta(cls, zeta: int, eta: int) -> "SequenceTag":
        return cls("zeta-eta", zeta=zeta, eta=eta)

    def pair(self) -> tuple[int, int]:
        if self.variant == "gamma-delta":
            return self.gamma, self.delta
        return self.zeta, self.eta

    def to_json_dict(self, ctx: FieldCtx) -> dict:
        a, b = self.pair()
        names = ("gamma", "delta") if self.variant == "gamma-delta" else ("zeta", "eta")
        return {
            "variant": self.variant,
            names[0]: ctx.element_label(a),
            names[1]: ctx.element_label(b),
        }


FAMILY_MAX_N = 12


@dataclass(frozen=True)
class SequenceFamily:
    """The family of params; size and period are computed, and members are
    built only by member_blocks.

    Each member is a codeword of the generalized Kasami code, the XOR of packed
    trace rows: m = tr(alpha^t), quad[a] = tr(a alpha^(t(2^k+1))) and
    norm[a] = tr_h(a alpha^(t(2^{n/2}+1))).  Part one, m ^ quad[gamma] ^
    norm[delta], iterates gamma over E in integer order (only gamma = 0 for
    the small Kasami set) and delta over F in increasing order; part two,
    quad[zeta] ^ norm[eta], follows the (Gamma, Delta) listing (none for the
    small Kasami set).  quad is linear in its coefficient, so part one's
    quad rows are the span of the n rows quad[2^i].
    """

    params: FamilyParams

    @property
    def size(self) -> int:
        ctx = self.params.ctx
        if self.params.kind == FamilyKind.SMALL_KASAMI:
            return 1 << ctx.half
        gamma_logs, delta_logs = completion_logs(ctx)
        return (ctx.order << ctx.half) + len(gamma_logs) * len(delta_logs)

    @property
    def period(self) -> int:
        return self.params.ctx.group_order


def completion_logs(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """The completion index sets (Gamma, Delta) for part two, as the
    alpha-logs of Gamma and the beta-logs of Delta (-1 for 0, as in
    FieldCtx.log).  n/2 odd: Gamma = {1}, Delta = all of F, zero first.
    n/2 even: Gamma = {1, alpha, alpha^2}, Delta = beta^j for j < (2^{n/2} - 1)/3.
    """
    units = (1 << ctx.half) - 1
    if half_odd(ctx.n):
        return np.arange(1), np.arange(-1, units)
    return np.arange(3), np.arange(units // 3)


def gamma_delta_sets(ctx: FieldCtx) -> tuple[list[int], list[int]]:
    """The elements of (Gamma, Delta), listed as completion_logs lists them."""
    gamma_logs, delta_logs = completion_logs(ctx)
    delta = np.append(ctx.beta_powers, 0)[delta_logs]  # log -1 reads the 0 at the end
    return [ctx.pow(ctx.alpha, int(l)) for l in gamma_logs], delta.tolist()


def sequence_term(params: FamilyParams, tag: SequenceTag, t: int) -> int:
    """One bit straight from the defining trace formulas (the slow path)."""
    ctx = params.ctx
    if not 0 <= t < ctx.group_order:
        raise ValueError(f"t = {t} out of range")
    e1, e2 = exponents(ctx, params.k)
    x = ctx.pow(ctx.alpha, t)
    xq = ctx.pow(x, e1)
    xn = ctx.pow(x, e2)
    a, c = tag.pair()
    lin = ctx.mul(a, xq) ^ (x if tag.variant == "gamma-delta" else 0)
    return ctx.trace(lin) ^ ctx.trace(ctx.mul(ctx.trh_lift, ctx.mul(c, xn)))


def packed_rows(ctx: FieldCtx, coeffs, e: int) -> np.ndarray:
    """uint8 rows tr(a alpha^(t e)) over t = 0 .. 2^n - 2, one per a in coeffs,
    packed into ceil((2^n - 1)/8) bytes with bit t at bit t % 8 of byte t // 8.

    The rows of quadform.trace_rows read at x = alpha^t; a = 0 packs to 0,
    and a = delta c packs the subfield trace tr_h(c alpha^(t e)).
    take keeps them C-ordered: [:, antilog] gives Fortran order, on which
    packbits, and unpackbits of every block cut from the result, run several
    times slower.
    """
    rows = trace_rows(ctx, coeffs, e).take(ctx.antilog, axis=1)
    return np.packbits(rows, axis=1, bitorder="little")


def sign_rows(rows: np.ndarray, period: int) -> np.ndarray:
    """(-1)^bit as float32, one row per packed uint8 row (see packed_rows),
    over bits t = 0 .. period - 1: the +-1 form the brute correlation
    engine multiplies."""
    signs = np.unpackbits(rows, axis=1, count=period, bitorder="little").astype(np.float32)
    signs *= -2
    signs += 1
    return signs


def _require_members(ctx: FieldCtx) -> None:
    """Refuse members above FAMILY_MAX_N (4 GB of them at n = 14)."""
    if ctx.n > FAMILY_MAX_N:
        raise TooLarge(f"family members limited to n <= {FAMILY_MAX_N}, got n = {ctx.n}")


def _span_rows(ctx: FieldCtx, e: int) -> np.ndarray:
    """packed_rows(ctx, range(2^n), e): tr(a x^e) is GF(2)-linear in
    a, so the rows of every a in E, in integer order, are the XOR span of the
    n basis rows a = 2^i, built by doubling."""
    return _linear_table(packed_rows(ctx, 1 << np.arange(ctx.n), e), np.uint8)


# packed rows per part-one member block: whole gammas (at least one) within
# 8 KB, so a block's bits text stays near 64 KB; 32 KB blocks were not
# measurably faster at n = 8 and tripled the formatters' peak memory
_BLOCK_BYTES = 1 << 13


def _part_one_blocks(params: FamilyParams):
    """m ^ quad[gamma] ^ norm[delta] for delta over F, whole gammas per block."""
    ctx = params.ctx
    e1, e2 = exponents(ctx, params.k)
    deltas = ctx.subfield_elements
    norm_m = (packed_rows(ctx, ctx.scale_vec(ctx.trh_lift, deltas), e2)
              ^ packed_rows(ctx, [1], 1))
    if params.kind == FamilyKind.SMALL_KASAMI:
        quad = np.zeros((1, norm_m.shape[1]), dtype=np.uint8)  # gamma = 0 only
    else:
        quad = _span_rows(ctx, e1)
    step = max(1, _BLOCK_BYTES // norm_m.nbytes)
    # the pairs of gammas 0 .. step - 1; a block's gammas are offset by its first
    pairs = np.stack([np.arange(step).repeat(len(deltas)), np.tile(deltas, step)], axis=1)
    for g0 in range(0, len(quad), step):
        rows = (quad[g0:g0 + step, None] ^ norm_m[None]).reshape(-1, norm_m.shape[1])
        yield "gamma-delta", pairs[:len(rows)] + [g0, 0], rows


def _part_two_blocks(params: FamilyParams):
    """One block for part two: quad[zeta] ^ norm[eta] over the (Gamma, Delta) listing."""
    if params.kind == FamilyKind.SMALL_KASAMI:
        return
    ctx = params.ctx
    e1, e2 = exponents(ctx, params.k)
    gset, dset = gamma_delta_sets(ctx)
    quad = packed_rows(ctx, gset, e1)
    norm = packed_rows(ctx, ctx.scale_vec(ctx.trh_lift, dset), e2)
    pairs = np.stack([np.repeat(gset, len(dset)), np.tile(dset, len(gset))], axis=1)
    yield "zeta-eta", pairs, (quad[:, None] ^ norm[None]).reshape(-1, quad.shape[1])


def member_blocks(family: SequenceFamily):
    """Iterator of (variant, pairs, rows) blocks in the documented member order.

    rows holds one packed member per row (see packed_rows) and pairs its
    (gamma, delta) or (zeta, eta) tags as the rows of an int64 array.  Part
    one comes in blocks of whole gammas, 2^{n/2} members each, as many as
    fit _BLOCK_BYTES; part two is one block of |Gamma| |Delta| members.
    Refuses above FAMILY_MAX_N when called, before any row is built.
    """
    _require_members(family.params.ctx)
    return itertools.chain(_part_one_blocks(family.params), _part_two_blocks(family.params))


def member_table(family: SequenceFamily) -> tuple[np.ndarray, np.ndarray, int]:
    """Every member as one packed row (member_blocks order), its pair (gamma,
    delta) or (zeta, eta) as a row of an int64 array, and the number of
    part-one members, which come first.  Refuses as member_blocks does,
    before the table is allocated."""
    blocks = member_blocks(family)
    rows = np.empty((family.size, (family.period + 7) // 8), dtype=np.uint8)
    pairs = np.empty((family.size, 2), dtype=np.int64)
    end = part_one = 0
    for variant, block_pairs, block in blocks:
        start, end = end, end + len(block)
        rows[start:end], pairs[start:end] = block, block_pairs
        if variant == "gamma-delta":
            part_one = end
    return rows, pairs, part_one


def _prefixes(rows: np.ndarray) -> np.ndarray:
    """The first 8 bytes of each packed row, zero-padded, as a big-endian
    uint64: prefixes order as the rows' leading bytes do."""
    head = np.zeros((len(rows), 8), dtype=np.uint8)
    width = min(8, rows.shape[1])
    head[:, :width] = rows[:, :width]
    return head.view(">u8").ravel().astype(np.uint64)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each packed row as one fixed-width byte string (a numpy void view of
    the rows), which sorts, searches and compares as the row's bytes do."""
    return np.ascontiguousarray(rows).view(f"V{rows.shape[1]}").ravel()


# query rows RowIndex.find compares in full at once
_FIND_ROWS = 1 << 13


class RowIndex:
    """Packed rows (see packed_rows) sorted by their bytes, to find rows in.

    order is a stable argsort of the rows by their bytes, so equal rows are
    neighbours, least index first.  It argsorts a big-endian uint64 of each
    row's first 8 bytes and sorts by the full bytes only the rows whose
    prefix a neighbour shares; rows are compared in full only where their
    prefixes are equal.  The rows are read, not copied.
    """

    def __init__(self, rows: np.ndarray):
        prefix = _prefixes(rows)
        order = np.argsort(prefix, kind="stable")
        prefix = prefix[order]
        same = prefix[1:] == prefix[:-1]
        if rows.shape[1] > 8 and same.any():
            tied = np.zeros(len(rows), dtype=bool)
            tied[1:] |= same
            tied[:-1] |= same
            at = np.flatnonzero(tied)
            # the tied rows stay in prefix order, so each run keeps its positions
            order[at] = order[at][np.argsort(_row_keys(rows[order[at]]), kind="stable")]
        self._rows, self.order, self._prefix = rows, order, prefix

    def repeats(self) -> np.ndarray:
        """The index of every row equal to a row of lower index, in order."""
        at = np.flatnonzero(self._prefix[1:] == self._prefix[:-1])
        keys, order = _row_keys(self._rows), self.order
        return order[at + 1][keys[order[at]] == keys[order[at + 1]]]

    def find(self, queries: np.ndarray) -> np.ndarray:
        """For each query row, the least index of a row equal to it, -1
        where none is.

        The query prefixes are searched in sorted order, which searchsorted
        runs several times faster than in the queries' own, and a query
        whose prefix leads to one row is compared with that row in the
        queries' own order, _FIND_ROWS at a time, so no query row is copied.
        """
        found = np.full(len(queries), -1, dtype=np.int64)
        order = self.order
        if not len(order):
            return found
        q = _prefixes(queries)
        # the stable kind __init__ runs: the default one maps in a second
        # sort kernel, about 0.3 MB more RSS for a fresh process
        by = np.argsort(q, kind="stable")
        q = q[by]
        lo, hi = np.empty_like(by), np.empty_like(by)
        lo[by] = np.searchsorted(self._prefix, q, "left")
        hi[by] = np.searchsorted(self._prefix, q, "right")
        first = order[np.minimum(lo, len(order) - 1)]  # each query's first candidate
        one = hi - lo == 1
        if self._rows.shape[1] > 8:  # up to 8 bytes the prefix is the whole row
            # rows compare as uint64 words where their width allows (member
            # rows from n = 6 on), several times faster than as bytes or void keys
            words, qwords = (r if r.shape[1] % 8 else np.ascontiguousarray(r).view(np.uint64)
                             for r in (self._rows, queries))
            for start in range(0, len(queries), _FIND_ROWS):
                part = slice(start, start + _FIND_ROWS)
                one[part] &= np.all(words[first[part]] == qwords[part], axis=1)
        found[one] = first[one]
        # a prefix that several rows share: search their full bytes
        keys, qkeys = _row_keys(self._rows), _row_keys(queries)
        for i in np.flatnonzero(hi - lo > 1).tolist():
            run = keys[order[lo[i]:hi[i]]]
            at = int(np.searchsorted(run, qkeys[i]))
            if at < len(run) and run[at] == qkeys[i]:
                found[i] = order[lo[i] + at]
        return found


def build_family(params: FamilyParams) -> SequenceFamily:
    """The family of params; cheap at every n, as only member_blocks builds members."""
    return SequenceFamily(params)


# -- export formats -----------------------------------------------------

FORMATS = ("bits", "hex", "json")
# the '0'/'1' characters of the bits of each byte value, bit 0 first, as
# one little-endian uint64; built from Python bytes, as numpy arithmetic at
# import raises every command's peak RSS by about 0.15 MB
_BIT_CHARS = np.frombuffer(bytes(ord("0") + (b >> i & 1) for b in range(256) for i in range(8)),
                           "<u8")


def write_family(family: SequenceFamily, fmt: str, stream) -> int:
    """Write one member per line; returns the number of lines.

    bits: the terms t = 0 .. 2^n - 2 as '0'/'1'; hex: the packed bytes in
    lowercase hex; json: {"tag": {...}, "hex": ...} compactly, the tag as in
    SequenceTag.to_json_dict.  Each member block is formatted whole, by one
    numpy pass (bits, hex) or one comprehension (json), and written with one
    stream.write per gamma of part one (2^{n/2} lines) and one for part two.
    bits and hex lines are laid out in one ASCII buffer, reused by every
    block: a fresh one per block costs more in page faults than the
    formatting.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; know {FORMATS}")
    ctx, period = family.params.ctx, family.period
    if fmt == "json":
        labels = ctx.element_labels()
    # the last column of a line is the newline
    width = period if fmt == "bits" else 2 * ((period + 7) // 8)
    lines = np.empty((0, width + 1), dtype=np.uint8)
    count = 0
    for variant, pairs, rows in member_blocks(family):
        per_write = 1 << ctx.half if variant == "gamma-delta" else len(rows)
        if fmt == "json":
            digits = rows.tobytes().hex()
            a, b = ("gamma", "delta") if variant == "gamma-delta" else ("zeta", "eta")
            text = [f'{{"tag":{{"variant":"{variant}","{a}":"{labels[x]}","{b}":"{labels[y]}"}},'
                    f'"hex":"{digits[i * width:(i + 1) * width]}"}}\n'
                    for i, (x, y) in enumerate(pairs.tolist())]
            chunks = ("".join(text[i:i + per_write]) for i in range(0, len(rows), per_write))
        else:
            if len(lines) < len(rows):  # the first block is the largest
                lines = np.empty((len(rows), width + 1), dtype=np.uint8)
                lines[:, -1] = ord("\n")
            block = lines[:len(rows)]
            if fmt == "bits":
                # 8 characters per packed byte; the last, for the padding bit
                # t = 2^n - 1, is the newline
                np.take(_BIT_CHARS, rows, out=block.view("<u8"), mode="clip")
                block[:, -1] = ord("\n")
            else:
                block[:, :-1] = np.frombuffer(rows.tobytes().hex().encode("ascii"), np.uint8
                                              ).reshape(len(rows), width)
            chunks = (str(block[i:i + per_write].data, "ascii")
                      for i in range(0, len(rows), per_write))
        for chunk in chunks:
            stream.write(chunk)
        count += len(rows)
    return count
