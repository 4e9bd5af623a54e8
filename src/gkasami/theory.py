"""Closed-form predictors for every distribution the library verifies,
plus the generalized Kasami code with its empirical weight histogram and
the MacWilliams low-order dual-weight check.

All formula evaluation is exact big-integer arithmetic; a division that
does not come out exact raises instead of rounding, since that is itself a
regression signal.  Several results split on the parity of n/2 (odd for
n = 2 mod 4, even for n = 0 mod 4); each named closed form holds both
cases and picks one by half_odd(n), so a caller names only the
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import _span_rows, packed_rows
from .gf2n import FieldCtx, TooLarge, UnsupportedN, half_odd
from .histogram import ValueHistogram
from .quadform import exponents, form_classes, require_valid_k


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


def _walsh_b_at0(n: int) -> ValueHistogram:
    if half_odd(n):
        return _hist({0: (1 << n) - 1})
    m = n // 2
    return _hist({
        -(1 << (m + 1)): _div3((1 << n) - 1),
        (1 << m): 2 * _div3((1 << n) - 1),
    })


def _walsh_b_at1(n: int) -> ValueHistogram:
    m = n // 2
    if half_odd(n):
        return _hist({
            (1 << (m + 1)): (1 << (n - 3)) + (1 << (m - 2)),
            -(1 << (m + 1)): (1 << (n - 3)) - (1 << (m - 2)),
            0: (1 << n) - (1 << (n - 2)) - 1,
        })
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


def _walsh_bc_at0(n: int) -> ValueHistogram:
    m = n // 2
    en = (1 << n) - 1
    if half_odd(n):
        return _hist({
            -(1 << (m + 1)): _div3(en * ((1 << (m - 1)) - 1)),
            0: en * ((1 << (m - 1)) - 1),
            (1 << m): _div3(en * ((1 << m) + 1)),
        })
    return _hist({
        -(1 << (m + 1)): _div3(en * ((1 << (m - 1)) - 2)),
        0: en * (1 << (m - 1)),
        (1 << m): _div3(en * ((1 << m) - 1)),
    })


def _walsh_bc_at1(n: int) -> ValueHistogram:
    m = n // 2
    if half_odd(n):
        return _hist({
            (1 << (m + 1)): _div3(((1 << (n - 3)) + (1 << (m - 2))) * ((1 << (m + 1)) - 4)),
            -(1 << (m + 1)): _div3((1 << (3 * m - 2)) - (1 << n) + (1 << (m - 1)) + 1),
            0: (1 << (3 * m - 1)) - (1 << n) - (1 << (m - 1)) + 1,
            (1 << m): _div3(((1 << (n - 1)) + (1 << (m - 1)) - 1) * ((1 << m) + 1)),
            -(1 << m): _div3(((1 << (n - 1)) - (1 << (m - 1))) * ((1 << m) + 1)),
        })
    return _hist({
        (1 << (m + 1)): _div3(((1 << (m + 1)) - 2) * ((1 << (n - 3)) + (1 << (m - 2)))),
        -(1 << (m + 1)): _div3((1 << (3 * m - 2)) - 3 * (1 << (n - 2)) + 2),
        0: (1 << (3 * m - 1)) - (1 << (n - 1)) - (1 << (m - 1)),
        (1 << m): _div3(((1 << (n - 1)) + (1 << (m - 1)) - 1) * ((1 << m) - 1)),
        -(1 << m): _div3(((1 << (n - 1)) - (1 << (m - 1))) * ((1 << m) - 1)),
    })


def _walsh_family_mix(n: int) -> ValueHistogram:
    m = n // 2
    if half_odd(n):
        return _hist({
            (1 << (m + 1)): _div3(((1 << (n - 3)) + (1 << (m - 2))) * ((1 << (m + 1)) - 1)),
            -(1 << (m + 1)): _div3(((1 << (n - 3)) - (1 << (m - 2))) * ((1 << (m + 1)) - 1)),
            0: (1 << (3 * m - 1)) - (1 << (n - 2)) + 1,
            (1 << m): _div3((1 << (3 * m - 1)) + (1 << n) + (1 << (m + 1))),
            -(1 << m): _div3((1 << (3 * m - 1)) + (1 << m) - 3),
        })
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
    """Weight distribution of the generalized Kasami code, zero word included:
    the codeword of (gamma, delta, eta) has weight (2^n - W)/2 for
    W = W_{delta,eta}(gamma), so it is walsh-full relabelled."""
    return _hist({((1 << n) - w) // 2: c for w, c in _walsh_full(n).counts.items()})


def _theta_root_counts(n: int) -> ValueHistogram:
    """Distribution of nonzero-root counts over theta in E*: always 0 or 3."""
    deficient = three_root_theta_count(n)
    return _hist({3: deficient, 0: (1 << n) - 1 - deficient})


def _family_corr(n: int) -> ValueHistogram:
    m = n // 2
    if half_odd(n):
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


def _imbalance(n: int) -> ValueHistogram:
    if half_odd(n):
        return _walsh_family_mix(n).shifted(-1)
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


PREDICTORS: dict[str, callable] = {
    "walsh-b-at0": _walsh_b_at0,
    "walsh-b-at1": _walsh_b_at1,
    "walsh-c-at0": _walsh_c_at0,
    "walsh-c-at1": _walsh_c_at1,
    "walsh-full": _walsh_full,
    "walsh-bc-at0": _walsh_bc_at0,
    "walsh-bc-at1": _walsh_bc_at1,
    "walsh-family-mix": _walsh_family_mix,
    "code-weights": _code_weights,
    "theta-root-counts": _theta_root_counts,
    "family-corr": _family_corr,
    "imbalance": _imbalance,
}


def predict(name: str, n: int, k: int | None = None) -> ValueHistogram:
    """Evaluate a named closed form at (n, k) as an exact histogram.

    n must be even and at least 4, with no upper bound; a k that is given
    must be admissible for n.  The closed forms do not depend on k; each
    picks its case of the parity of n/2 itself.
    """
    if name not in PREDICTORS:
        raise KeyError(f"unknown prediction {name!r}; know {sorted(PREDICTORS)}")
    if n < 4 or n % 2:
        raise UnsupportedN(f"closed forms need even n >= 4, got n = {n}")
    if k is not None:
        require_valid_k(n, k)
    return PREDICTORS[name](n)


def family_correlation_histogram(n: int) -> ValueHistogram:
    return predict("family-corr", n)


# -- the generalized Kasami code ----------------------------------------

CODE_ENUM_MAX_N = 10


@dataclass
class CodeSpec:
    """The [2^n - 1, 5n/2] code with its empirically enumerated weights.

    Codeword positions are indexed by t with x = alpha^t, t = 0 .. 2^n - 2,
    matching the sequence-time convention used elsewhere.  The codeword of
    (gamma, delta, eta) is the XOR of the trace rows tr(gamma x),
    tr(delta x^(2^k+1)) and tr_h(eta x^(2^{n/2}+1)) = tr(delta' eta
    x^(2^{n/2}+1)), delta' = ctx.trh_lift, as families.packed_rows packs
    them; the spec keeps only the weight enumerator, which is all the
    weight-based functions read.
    """

    ctx: FieldCtx
    k: int
    length: int
    dimension: int
    weight_histogram: ValueHistogram


def _code_weight_counts(lin: np.ndarray, rest: np.ndarray, weights: list[int],
                        period: int) -> list[int]:
    """counts[w] = codewords of weight w, from packed rows
    (families.packed_rows): lin for every gamma, rest for one (delta, eta)
    per class, counted weights[i] times.

    A codeword is the XOR of its two rows, so its weight is the popcount of
    that XOR, taken over whole 64-bit words of the zero-padded rows (the
    pad bits are 0 in both), for every gamma at once, one row of rest at
    a time.
    """
    words = -(-lin.shape[1] // 8)

    def wide(rows):
        out = np.zeros((len(rows), 8 * words), dtype=np.uint8)
        out[:, : rows.shape[1]] = rows
        return out.view(np.uint64)

    lin = wide(lin)
    counts = 0
    for size, row in zip(weights, wide(rest)):
        weight = np.bitwise_count(lin ^ row).sum(axis=1, dtype=np.intp)
        counts = counts + size * np.bincount(weight, minlength=period + 1)
    return counts.tolist()


def build_code(ctx: FieldCtx, k: int) -> CodeSpec:
    """Histogram the weights of all 2^{5n/2} codewords (n <= 10) from one
    (delta, eta) per class of the cyclic shift and squaring.

    Shifting a codeword by one position maps (gamma, delta, eta) to
    (gamma alpha, delta alpha^(2^k+1), eta beta) and keeps its weight, which
    is x -> alpha x in the trace rows; x -> x^2 permutes the positions and
    maps it to (gamma^2, delta^2, eta^2).  So the weights are, summed over
    the leaders (delta, eta) of quadform.form_classes, class size times the
    weights over every gamma: popcounts of the XOR of packed rows (see
    _code_weight_counts).  The rows tr(gamma x) of every gamma are the span
    of n basis rows (families._span_rows).  The weights are direct counts of
    the codeword bits, not transform values.
    """
    require_valid_k(ctx.n, k)
    if ctx.n > CODE_ENUM_MAX_N:
        raise TooLarge(f"code enumeration limited to n <= {CODE_ENUM_MAX_N}")
    e1, e2 = exponents(ctx, k)
    period = ctx.group_order
    classes = form_classes(ctx, k)
    rest = (packed_rows(ctx, classes.bs, e1)
            ^ packed_rows(ctx, ctx.scale_vec(ctx.trh_lift, classes.cs), e2))
    counts = _code_weight_counts(_span_rows(ctx, 1), rest, classes.sizes, period)
    return CodeSpec(
        ctx=ctx,
        k=k,
        length=period,
        dimension=5 * ctx.n // 2,
        weight_histogram=ValueHistogram(dict(enumerate(counts))),
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
