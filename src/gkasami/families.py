"""Construction of the sequence families and per-sequence imbalance.

Three kinds share one container:

* the generalized family for an admissible exponent parameter k, whose
  members come in two parts -- the (gamma, delta) sequences indexed by all
  of E x F, and the (zeta, eta) sequences indexed by a small completion set
  Gamma x Delta;
* the classical large Kasami set, which is the same construction with
  k = n/2 + 1;
* the small Kasami set, which lives inside part one as the gamma = 0 slice.

Sequences are bit-packed into Python ints, LSB = t = 0.  Each member is a
codeword of the [2^n - 1, 5n/2] generalized Kasami code, assembled by XOR
from packed trace rows that packed_trace_rows builds on first use;
theory.build_code packs the code's tables with the same function, and
unpack_bits is its inverse.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2n import FieldCtx, TooLarge, half_odd
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


@dataclass(frozen=True)
class BinarySequence:
    """Bit-packed sequence of period 2^n - 1 (LSB of bits = t = 0)."""

    bits: int
    length: int
    tag: SequenceTag

    def bit(self, t: int) -> int:
        return (self.bits >> (t % self.length)) & 1

    def to01(self) -> str:
        return "".join(str(self.bit(t)) for t in range(self.length))

    def to_hex(self) -> str:
        nbytes = (self.length + 7) // 8
        return self.bits.to_bytes(nbytes, "little").hex()


FAMILY_MAX_N = 12


@dataclass(frozen=True)
class SequenceFamily:
    """The family of params; size and period are computed, members built on first use.

    Each member is a codeword of the generalized Kasami code, the XOR of packed
    trace rows: m = tr(alpha^t), quad[a] = tr(a alpha^(t(2^k+1))) and
    norm[a] = tr_h(a alpha^(t(2^{n/2}+1))).  Part one, m ^ quad[gamma] ^
    norm[delta], iterates gamma over E in integer order (only gamma = 0 for
    the small Kasami set) and delta over F in increasing order; part two,
    quad[zeta] ^ norm[eta], follows the (Gamma, Delta) listing (none for the
    small Kasami set).
    """

    params: FamilyParams

    @property
    def size(self) -> int:
        ctx = self.params.ctx
        if self.params.kind == FamilyKind.SMALL_KASAMI:
            return 1 << ctx.half
        gset, dset = gamma_delta_sets(ctx)
        return (ctx.order << ctx.half) + len(gset) * len(dset)

    @property
    def period(self) -> int:
        return self.params.ctx.group_order

    def all_sequences(self) -> list[BinarySequence]:
        return self.part1 + self.part2

    def _rows(self, quad_coeffs, norm_coeffs) -> tuple[dict[int, int], dict[int, int]]:
        """Packed quad and norm rows; refused above FAMILY_MAX_N (4 GB of members at n = 14)."""
        ctx = self.params.ctx
        if ctx.n > FAMILY_MAX_N:
            raise TooLarge(f"family members limited to n <= {FAMILY_MAX_N}, got n = {ctx.n}")
        e1, e2 = exponents(ctx, self.params.k)
        return (packed_trace_rows(ctx, quad_coeffs, e1, ctx.tr1),
                packed_trace_rows(ctx, norm_coeffs, e2, ctx.trh))

    @cached_property
    def part1(self) -> list[BinarySequence]:
        ctx = self.params.ctx
        gammas = [0] if self.params.kind == FamilyKind.SMALL_KASAMI else range(ctx.order)
        quad, norm = self._rows(gammas, ctx.subfield_elements)
        m = packed_trace_rows(ctx, [1], 1, ctx.tr1)[1]
        return [BinarySequence(m ^ quad[g] ^ norm[d], self.period, SequenceTag.gamma_delta(g, d))
                for g in gammas for d in norm]

    @cached_property
    def part2(self) -> list[BinarySequence]:
        if self.params.kind == FamilyKind.SMALL_KASAMI:
            return []
        gset, dset = gamma_delta_sets(self.params.ctx)
        quad, norm = self._rows(gset, dset)
        return [BinarySequence(quad[zeta] ^ norm[eta], self.period, SequenceTag.zeta_eta(zeta, eta))
                for zeta in gset for eta in dset]


def gamma_delta_sets(ctx: FieldCtx) -> tuple[list[int], list[int]]:
    """The completion index sets (Gamma, Delta) for part two.

    n/2 odd:  Gamma = {1}, Delta = all of F (zero first, then increasing
    powers of beta).  n/2 even: Gamma = {1, alpha, alpha^2}, Delta = the
    first (2^{n/2} - 1)/3 powers of beta starting at beta^0 = 1.
    """
    if half_odd(ctx.n):
        gamma = [1]
        delta = [0] + [ctx.pow(ctx.beta, j) for j in range((1 << ctx.half) - 1)]
    else:
        gamma = [1, ctx.alpha, ctx.mul(ctx.alpha, ctx.alpha)]
        delta = [ctx.pow(ctx.beta, j) for j in range(((1 << ctx.half) - 1) // 3)]
    return gamma, delta


def sequence_term(params: FamilyParams, tag: SequenceTag, t: int) -> int:
    """One bit straight from the defining trace formulas (the slow path)."""
    ctx = params.ctx
    if not 0 <= t < ctx.group_order:
        raise ValueError(f"t = {t} out of range")
    e1, e2 = exponents(ctx, params.k)
    x = ctx.pow(ctx.alpha, t)
    xq = ctx.pow(x, e1)
    xn = ctx.pow(x, e2)
    if tag.variant == "gamma-delta":
        inner = x ^ ctx.mul(tag.gamma, xq)
        return ctx.trace(inner) ^ int(ctx.trh[ctx.mul(tag.delta, xn)])
    return ctx.trace(ctx.mul(tag.zeta, xq)) ^ int(ctx.trh[ctx.mul(tag.eta, xn)])


def packed_trace_rows(ctx: FieldCtx, coeffs, e: int, tr: np.ndarray) -> dict[int, int]:
    """{a: tr(a alpha^(t e)) over t = 0 .. 2^n - 2, bit-packed}, one per a in coeffs.

    The rows of quadform.trace_rows read at x = alpha^t; a = 0 packs to 0.
    """
    coeffs = [int(a) for a in coeffs]
    rows = trace_rows(ctx, coeffs, e, tr)[:, ctx.antilog]
    packed = np.packbits(rows, axis=1, bitorder="little")
    return {a: int.from_bytes(row.tobytes(), "little") for a, row in zip(coeffs, packed)}


def unpack_bits(bits: list[int], length: int) -> np.ndarray:
    """uint8 matrix with bit t of bits[i] at [i, t], for t < length.

    The inverse of the packing in packed_trace_rows (LSB = t = 0).
    """
    nbytes = (length + 7) // 8
    buf = b"".join(b.to_bytes(nbytes, "little") for b in bits)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nbytes)
    return np.unpackbits(packed, axis=1, count=length, bitorder="little")


def build_family(params: FamilyParams) -> SequenceFamily:
    """The family of params; cheap at every n, as members are built on first use."""
    return SequenceFamily(params)


def imbalance(seq: BinarySequence) -> int:
    """(#zeros - #ones) over one period; always odd because the period is."""
    return seq.length - 2 * seq.bits.bit_count()


# -- export formats -----------------------------------------------------

FORMATS = ("bits", "hex", "json")


def format_sequence(seq: BinarySequence, fmt: str, ctx: FieldCtx) -> str:
    if fmt == "bits":
        return seq.to01()
    if fmt == "hex":
        return seq.to_hex()
    if fmt == "json":
        return json.dumps(
            {"tag": seq.tag.to_json_dict(ctx), "hex": seq.to_hex()},
            separators=(",", ":"),
        )
    raise ValueError(f"unknown format {fmt!r}; know {FORMATS}")


def write_family(family: SequenceFamily, fmt: str, stream) -> int:
    """Write one sequence per line; returns the number of lines."""
    ctx = family.params.ctx
    count = 0
    for seq in family.all_sequences():
        stream.write(format_sequence(seq, fmt, ctx))
        stream.write("\n")
        count += 1
    return count
