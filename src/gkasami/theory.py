"""Closed-form predictors for every distribution the library verifies,
plus the generalized Kasami code with its empirical weight histogram and
the MacWilliams low-order dual-weight check.

All formula evaluation is exact big-integer arithmetic; a division that
does not come out exact raises instead of rounding, since that is itself a
regression signal.  Several families of results split on the parity of
n/2, so predictors come in -odd (n = 2 mod 4) and -even (n = 0 mod 4)
flavors; requesting the wrong flavor raises ParityMismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .families import packed_trace_rows
from .gf2n import FieldCtx, TooLarge, half_odd
from .histogram import ValueHistogram
from .quadform import exponents, require_valid_k


class ParityMismatch(ValueError):
    """Raised when a predictor is evaluated at the wrong parity of n/2."""


class NonIntegerResult(ArithmeticError):
    """Raised when an exact division fails; signals an upstream bug."""


def _div3(v: int) -> int:
    q, r = divmod(v, 3)
    if r:
        raise NonIntegerResult(f"{v} is not divisible by 3")
    return q


def _hist(rows: dict[int, int]) -> ValueHistogram:
    if any(c < 0 for c in rows.values()):
        raise ValueError(f"negative count in predicted rows: {rows}")
    return ValueHistogram(rows)


# -- scalar closed forms -----------------------------------------------


def three_root_theta_count(n: int) -> int:
    """Number of theta in E* whose kernel equation has three nonzero roots."""
    if half_odd(n):
        return _div3((1 << (n + 1)) - (1 << (n // 2 + 1)) - 4)
    return _div3((1 << (n + 1)) - 2)


def rank_deficient_b_count(n: int) -> int:
    """For fixed c in F*, how many b in E* give a rank-(n-2) form."""
    return three_root_theta_count(n)


def quad_triples_size(n: int) -> int:
    """Triples (x,y,z) with x^(2^k+1) + y^(2^k+1) + z^(2^k+1) = 0."""
    if half_odd(n):
        return 1 << (2 * n)
    return (1 << (2 * n)) - (1 << (3 * n // 2 + 1)) + (1 << (n // 2 + 1))


def norm_triples_size(n: int) -> int:
    """Triples (x,y,z) with x^(2^{n/2}+1) + y^(2^{n/2}+1) + z^(2^{n/2}+1) = 0."""
    return (1 << (5 * n // 2)) - (1 << (3 * n // 2)) + (1 << n)


def joint_triples_size(n: int) -> int:
    """Triples satisfying both power-sum equations: 3 * 2^n - 2."""
    return 3 * (1 << n) - 2


def quad_pairs_size(n: int) -> int:
    """Pairs (x,y) with x^(2^k+1) = y^(2^k+1)."""
    if half_odd(n):
        return 1 << n
    return 1 + 3 * ((1 << n) - 1)


def norm_pairs_size(n: int) -> int:
    """Pairs (x,y) with x^(2^{n/2}+1) = y^(2^{n/2}+1)."""
    return 1 + ((1 << (n // 2)) + 1) * ((1 << n) - 1)


def joint_pairs_size(n: int) -> int:
    """Pairs satisfying both: the diagonal, 2^n of them."""
    return 1 << n


def walsh0_power_sums(n: int) -> tuple[int, int, int]:
    """Sums of f^w(0)^d over (b,c) in E* x F* for d = 1, 2, 3."""
    m = n // 2
    s1 = (1 << m) * ((1 << n) - 1)
    if half_odd(n):
        s2 = (1 << n) * ((1 << n) - 1) * ((1 << m) - 1)
        s3 = -(1 << (3 * m)) * ((1 << n) - 1) * ((1 << m) - 3)
    else:
        s2 = (1 << n) * ((1 << n) - 1) * ((1 << m) - 3)
        s3 = -(1 << (3 * m)) * ((1 << n) - 1) * ((1 << m) - 5)
    return s1, s2, s3


def family_size(n: int) -> int:
    m = n // 2
    return (1 << (3 * m)) + (1 << m) - (0 if half_odd(n) else 1)


def r_max_expected(n: int) -> int:
    return (1 << (n // 2 + 1)) + 1


def small_set_r_max_expected(n: int) -> int:
    return (1 << (n // 2)) + 1


# -- histogram closed forms --------------------------------------------


def _walsh_b_at1_odd(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << (m + 1)): (1 << (n - 3)) + (1 << (m - 2)),
        -(1 << (m + 1)): (1 << (n - 3)) - (1 << (m - 2)),
        0: (1 << n) - (1 << (n - 2)) - 1,
    })


def _walsh_b_at0_even(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        -(1 << (m + 1)): _div3((1 << n) - 1),
        (1 << m): 2 * _div3((1 << n) - 1),
    })


def _walsh_b_at1_even(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << (m + 1)): _div3((1 << (n - 3)) + (1 << (m - 2))),
        -(1 << (m + 1)): _div3((1 << (n - 3)) - (1 << (m - 2)) - 1),
        0: _div3((1 << n) - (1 << (n - 2))),
        (1 << m): 2 * _div3((1 << (n - 1)) + (1 << (m - 1)) - 1),
        -(1 << m): 2 * _div3((1 << (n - 1)) - (1 << (m - 1))),
    })


def _walsh_c_at0(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({-(1 << m): (1 << m) - 1})


def _walsh_c_at1(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << m): 1 << (m - 1),
        -(1 << m): (1 << (m - 1)) - 1,
    })


def _walsh_full(n: int) -> ValueHistogram:
    m = n // 2
    fm = (1 << m) - 1
    big = (1 << (n + 1)) + (1 << m) - 1
    mid = (1 << n) + (1 << (m + 1)) + 4
    return _hist({
        (1 << (m + 1)): _div3(fm * ((1 << (n - 3)) + (1 << (m - 2))) * big),
        -(1 << (m + 1)): _div3(fm * ((1 << (n - 3)) - (1 << (m - 2))) * big),
        0: fm * ((1 << (2 * n - 1)) + (1 << (3 * m - 2)) - (1 << (n - 2)) + (1 << m) + 1),
        (1 << m): _div3(fm * ((1 << (n - 1)) + (1 << (m - 1))) * mid),
        -(1 << m): _div3(fm * ((1 << (n - 1)) - (1 << (m - 1))) * mid),
        (1 << n): 1,
    })


def _walsh_bc_at0_odd(n: int) -> ValueHistogram:
    m = n // 2
    en = (1 << n) - 1
    return _hist({
        -(1 << (m + 1)): _div3(en * ((1 << (m - 1)) - 1)),
        0: en * ((1 << (m - 1)) - 1),
        (1 << m): _div3(en * ((1 << m) + 1)),
    })


def _walsh_bc_at1_odd(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << (m + 1)): _div3(((1 << (n - 3)) + (1 << (m - 2))) * ((1 << (m + 1)) - 4)),
        -(1 << (m + 1)): _div3((1 << (3 * m - 2)) - (1 << n) + (1 << (m - 1)) + 1),
        0: (1 << (3 * m - 1)) - (1 << n) - (1 << (m - 1)) + 1,
        (1 << m): _div3(((1 << (n - 1)) + (1 << (m - 1)) - 1) * ((1 << m) + 1)),
        -(1 << m): _div3(((1 << (n - 1)) - (1 << (m - 1))) * ((1 << m) + 1)),
    })


def _walsh_bc_at0_even(n: int) -> ValueHistogram:
    m = n // 2
    en = (1 << n) - 1
    return _hist({
        -(1 << (m + 1)): _div3(en * ((1 << (m - 1)) - 2)),
        0: en * (1 << (m - 1)),
        (1 << m): _div3(en * ((1 << m) - 1)),
    })


def _walsh_bc_at1_even(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << (m + 1)): _div3(((1 << (m + 1)) - 2) * ((1 << (n - 3)) + (1 << (m - 2)))),
        -(1 << (m + 1)): _div3((1 << (3 * m - 2)) - 3 * (1 << (n - 2)) + 2),
        0: (1 << (3 * m - 1)) - (1 << (n - 1)) - (1 << (m - 1)),
        (1 << m): _div3(((1 << (n - 1)) + (1 << (m - 1)) - 1) * ((1 << m) - 1)),
        -(1 << m): _div3(((1 << (n - 1)) - (1 << (m - 1))) * ((1 << m) - 1)),
    })


def _walsh_family_mix_odd(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << (m + 1)): _div3(((1 << (n - 3)) + (1 << (m - 2))) * ((1 << (m + 1)) - 1)),
        -(1 << (m + 1)): _div3(((1 << (n - 3)) - (1 << (m - 2))) * ((1 << (m + 1)) - 1)),
        0: (1 << (3 * m - 1)) - (1 << (n - 2)) + 1,
        (1 << m): _div3((1 << (3 * m - 1)) + (1 << n) + (1 << (m + 1))),
        -(1 << m): _div3((1 << (3 * m - 1)) + (1 << m) - 3),
    })


def _walsh_family_mix_even(n: int) -> ValueHistogram:
    m = n // 2
    w = (1 << n) + (1 << m) - 1
    return _hist({
        (1 << (m + 1)): _div3(w * ((1 << (m + 1)) - 1) * ((1 << (n - 3)) + (1 << (m - 2)))),
        -(1 << (m + 1)): _div3(
            (1 << (5 * m - 2)) - 3 * (1 << (2 * n - 3)) - 5 * (1 << (3 * m - 3))
            - (1 << (n - 3)) - 5 * (1 << (m - 2)) + 4
        ),
        0: (1 << (5 * m - 1)) + (1 << (2 * n - 2)) - 3 * (1 << (3 * m - 2))
           + 5 * (1 << (n - 2)) - 1,
        (1 << m): _div3(
            (1 << (5 * m - 1)) + 3 * (1 << (2 * n - 1)) + 5 * (1 << (3 * m - 1))
            - (1 << n) - (1 << (m + 2)) + 2
        ),
        -(1 << m): _div3(
            (1 << (5 * m - 1)) + (1 << (2 * n - 1)) + (1 << (3 * m - 1))
            - (1 << (n + 1)) - (1 << m)
        ),
    })


def _code_weights(n: int) -> ValueHistogram:
    """Weight distribution of the generalized Kasami code, zero word included."""
    m = n // 2
    fm = (1 << m) - 1
    big = (1 << (n + 1)) + (1 << m) - 1
    mid = (1 << n) + (1 << (m + 1)) + 4
    half = 1 << (n - 1)
    return _hist({
        half - (1 << m): _div3(fm * ((1 << (n - 3)) + (1 << (m - 2))) * big),
        half + (1 << m): _div3(fm * ((1 << (n - 3)) - (1 << (m - 2))) * big),
        half: fm * ((1 << (2 * n - 1)) + (1 << (3 * m - 2)) - (1 << (n - 2)) + (1 << m) + 1),
        half - (1 << (m - 1)): _div3(fm * ((1 << (n - 1)) + (1 << (m - 1))) * mid),
        half + (1 << (m - 1)): _div3(fm * ((1 << (n - 1)) - (1 << (m - 1))) * mid),
        0: 1,
    })


def _theta_root_counts(n: int) -> ValueHistogram:
    """Distribution of nonzero-root counts over theta in E*: always 0 or 3."""
    deficient = three_root_theta_count(n)
    return _hist({3: deficient, 0: (1 << n) - 1 - deficient})


def _family_corr_odd(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << n) - 1: (1 << (3 * m)) + (1 << m),
        -1: (1 << (m + 1)) * (
            (1 << (7 * m - 2)) - (1 << (3 * n - 3)) + (1 << (2 * n - 1))
            - (1 << (3 * m - 1)) + (1 << (n - 2)) - 1
        ),
        (1 << m) - 1: _div3(
            (1 << (4 * n - 1)) + (1 << (7 * m)) + (1 << (3 * n + 1))
            - (1 << (2 * n)) - (1 << (3 * m + 1)) - (1 << (n + 2))
        ),
        -(1 << m) - 1: _div3(
            (1 << (4 * n - 1)) + (1 << (3 * n)) - 3 * (1 << (5 * m))
            + (1 << (2 * n + 1)) - 3 * (1 << (3 * m)) + (1 << n) + 3 * (1 << m)
        ),
        (1 << (m + 1)) - 1: _div3(
            (1 << (m + 1)) * ((1 << (n - 3)) + (1 << (m - 2)))
            * ((1 << (2 * n - 1)) - 1) * ((1 << (m + 1)) - 1)
        ),
        -(1 << (m + 1)) - 1: _div3(
            (1 << (m + 1)) * ((1 << (n - 3)) - (1 << (m - 2)))
            * ((1 << (2 * n - 1)) - 1) * ((1 << (m + 1)) - 1)
        ),
    })


def _family_corr_even(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << n) - 1: (1 << (3 * m)) + (1 << m) - 1,
        -1: (
            (1 << (4 * n - 1)) - (1 << (7 * m - 2)) - (1 << (2 * n - 1))
            + 3 * (1 << (3 * m - 1)) - 5 * (1 << (n - 1)) - (1 << m) + 2
        ),
        (1 << m) - 1: _div3(
            (1 << (4 * n - 1)) + (1 << (7 * m)) + (1 << (3 * n + 1))
            - (1 << (5 * m)) - 3 * (1 << (2 * n)) - 5 * (1 << (3 * m))
            + 3 * (1 << (m + 1)) - 2
        ),
        -(1 << m) - 1: _div3(
            (1 << (4 * n - 1)) + (1 << (3 * n)) - (1 << (5 * m + 2))
            + (1 << (2 * n + 1)) - (1 << (3 * m + 2)) + 7 * (1 << n) - (1 << m)
        ),
        (1 << (m + 1)) - 1: _div3(
            (1 << (4 * n - 2)) + 3 * (1 << (7 * m - 3)) - (1 << (3 * n - 2))
            - (1 << (5 * m - 1)) - 5 * (1 << (2 * n - 2)) + (1 << (3 * m - 2))
            + 5 * (1 << (n - 2)) - (1 << (m - 1))
        ),
        -(1 << (m + 1)) - 1: _div3(
            (1 << (4 * n - 2)) - 5 * (1 << (7 * m - 3)) + (1 << (3 * n - 2))
            - (1 << (5 * m - 1)) + 3 * (1 << (2 * n - 2)) + 5 * (1 << (3 * m - 2))
            - 3 * (1 << (n - 2)) + 3 * (1 << (m - 1)) - 4
        ),
    })


def _imbalance_odd(n: int) -> ValueHistogram:
    return _walsh_family_mix_odd(n).shifted(-1)


def _imbalance_even(n: int) -> ValueHistogram:
    m = n // 2
    return _hist({
        (1 << (m + 1)) - 1: _div3(((1 << (m + 1)) - 1) * ((1 << (n - 3)) + (1 << (m - 2)))),
        -(1 << (m + 1)) - 1: _div3(
            (1 << (3 * m - 2)) - 5 * (1 << (n - 3)) + (1 << (m - 2)) - 1
        ),
        -1: (1 << (3 * m - 1)) - (1 << (n - 2)) + 1,
        (1 << m) - 1: _div3((1 << (3 * m - 1)) + (1 << n) + (1 << (m + 1)) - 2),
        -(1 << m) - 1: _div3((1 << (3 * m - 1)) + (1 << m) - 3),
    })


def small_kasami_correlation(n: int) -> ValueHistogram:
    """Correlation histogram of the small Kasami set over all ordered triples.

    Derived from the norm-form spectra (rank n, so each spectrum takes
    +-2^{n/2} with fixed multiplicities) combined with the shift-to-spectrum
    parameter map; validated against both correlation engines in the test
    suite.  A derived convenience, so kept out of the predict() registry.
    """
    m = n // 2
    M = 1 << m
    fm = (1 << m) - 1
    return _hist({
        (1 << n) - 1: M,
        -1: M * ((1 << n) - 2),
        (1 << m) - 1: M * (fm * ((1 << (n - 1)) + (1 << (m - 1))) - (1 << (m - 1))),
        -(1 << m) - 1: M * (fm * ((1 << (n - 1)) - (1 << (m - 1))) - (1 << (m - 1)) + 1),
    })


# registry: name -> (parity requirement, builder)
_ODD, _EVEN, _ANY = "odd", "even", "any"

PREDICTORS: dict[str, tuple[str, callable]] = {
    "walsh-b-at1-odd": (_ODD, _walsh_b_at1_odd),
    "walsh-b-at0-even": (_EVEN, _walsh_b_at0_even),
    "walsh-b-at1-even": (_EVEN, _walsh_b_at1_even),
    "walsh-c-at0": (_ANY, _walsh_c_at0),
    "walsh-c-at1": (_ANY, _walsh_c_at1),
    "walsh-full": (_ANY, _walsh_full),
    "walsh-bc-at0-odd": (_ODD, _walsh_bc_at0_odd),
    "walsh-bc-at1-odd": (_ODD, _walsh_bc_at1_odd),
    "walsh-bc-at0-even": (_EVEN, _walsh_bc_at0_even),
    "walsh-bc-at1-even": (_EVEN, _walsh_bc_at1_even),
    "walsh-family-mix-odd": (_ODD, _walsh_family_mix_odd),
    "walsh-family-mix-even": (_EVEN, _walsh_family_mix_even),
    "code-weights": (_ANY, _code_weights),
    "theta-root-counts": (_ANY, _theta_root_counts),
    "family-corr-odd": (_ODD, _family_corr_odd),
    "family-corr-even": (_EVEN, _family_corr_even),
    "imbalance-odd": (_ODD, _imbalance_odd),
    "imbalance-even": (_EVEN, _imbalance_even),
}


@dataclass(frozen=True)
class Prediction:
    name: str
    n: int
    k: int | None
    histogram: ValueHistogram


def predict(name: str, n: int, k: int | None = None) -> Prediction:
    """Evaluate a named closed form at (n, k) as an exact histogram."""
    if name not in PREDICTORS:
        raise KeyError(f"unknown prediction {name!r}; know {sorted(PREDICTORS)}")
    parity, builder = PREDICTORS[name]
    if parity == _ODD and not half_odd(n):
        raise ParityMismatch(f"{name} requires n = 2 mod 4, got n = {n}")
    if parity == _EVEN and half_odd(n):
        raise ParityMismatch(f"{name} requires n = 0 mod 4, got n = {n}")
    return Prediction(name, n, k, builder(n))


def family_correlation_histogram(n: int) -> ValueHistogram:
    name = "family-corr-odd" if half_odd(n) else "family-corr-even"
    return predict(name, n).histogram


def imbalance_histogram(n: int) -> ValueHistogram:
    name = "imbalance-odd" if half_odd(n) else "imbalance-even"
    return predict(name, n).histogram


# -- the generalized Kasami code ----------------------------------------

CODE_ENUM_MAX_N = 8


@dataclass
class CodeSpec:
    """The [2^n - 1, 5n/2] code with its empirically enumerated weights.

    Codeword positions are indexed by t with x = alpha^t, t = 0 .. 2^n - 2,
    matching the sequence-time convention used elsewhere.  The codeword of
    (gamma, delta, eta) is lin[gamma] ^ quad[delta] ^ norm[eta], from the
    packed trace rows tr(gamma x), tr(delta x^(2^k+1)) and
    tr_h(eta x^(2^{n/2}+1)); a spec built from a weight histogram alone
    has empty tables and serves only the weight-based functions.
    """

    ctx: FieldCtx
    k: int
    length: int
    dimension: int
    weight_histogram: ValueHistogram
    lin: dict[int, int] = field(default_factory=dict, repr=False)
    quad: dict[int, int] = field(default_factory=dict, repr=False)
    norm: dict[int, int] = field(default_factory=dict, repr=False)

    def codeword(self, gamma: int, delta: int, eta: int) -> int:
        """Bit-packed codeword for one (gamma, delta, eta), LSB = t = 0."""
        return self.lin[gamma] ^ self.quad[delta] ^ self.norm[eta]


def build_code(ctx: FieldCtx, k: int) -> CodeSpec:
    """Enumerate all 2^{5n/2} codewords and histogram their weights (n <= 8)."""
    require_valid_k(ctx.n, k)
    if ctx.n > CODE_ENUM_MAX_N:
        raise TooLarge(f"code enumeration limited to n <= {CODE_ENUM_MAX_N}")
    e1, e2 = exponents(ctx, k)
    lin = packed_trace_rows(ctx, range(ctx.order), 1, ctx.tr1)
    quad = packed_trace_rows(ctx, range(ctx.order), e1, ctx.tr1)
    norm = packed_trace_rows(ctx, ctx.subfield_elements, e2, ctx.trh)
    weights: dict[int, int] = {}
    for lv in lin.values():
        for qv in quad.values():
            base = lv ^ qv
            for nv in norm.values():
                w = (base ^ nv).bit_count()
                weights[w] = weights.get(w, 0) + 1
    return CodeSpec(
        ctx=ctx,
        k=k,
        length=ctx.group_order,
        dimension=5 * ctx.n // 2,
        weight_histogram=ValueHistogram(weights),
        lin=lin,
        quad=quad,
        norm=norm,
    )


def krawtchouk(j: int, i: int, length: int) -> int:
    """Binary Krawtchouk coefficient K_j(i) on words of the given length."""
    return sum(
        (-1) ** s * math.comb(i, s) * math.comb(length - i, j - s)
        for s in range(0, j + 1)
    )


def dual_weight(code: CodeSpec, j: int) -> int:
    """Number of weight-j words in the dual code, from the MacWilliams transform.

    Uses the Krawtchouk form B_j = 2^{-dim} * sum_i A_i K_j(i) with exact
    integer arithmetic throughout.
    """
    total = sum(
        count * krawtchouk(j, w, code.length)
        for w, count in code.weight_histogram.counts.items()
    )
    q, r = divmod(total, 1 << code.dimension)
    if r:
        raise NonIntegerResult(f"dual weight B_{j} = {total}/2^{code.dimension} is not integral")
    if q < 0:
        raise NonIntegerResult(f"dual weight B_{j} = {q} is negative")
    return q


def dual_low_weights(code: CodeSpec, j_max: int) -> list[int]:
    """[B_1, ..., B_{j_max}] for j_max <= 4."""
    if not 1 <= j_max <= 4:
        raise ValueError("j_max must be between 1 and 4")
    return [dual_weight(code, j) for j in range(1, j_max + 1)]
