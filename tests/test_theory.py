import math

import numpy as np
import pytest

from gkasami import families as fam
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import TooLarge, UnsupportedN, make_field
from gkasami.histogram import ValueHistogram
from gkasami.quadform import InvalidK

from reference import code_tables, codeword, spectrum_distribution


def test_predict_populations_symbolic():
    # every predictor must account for exactly its population, for both parities
    for n in (4, 6, 8, 10):
        m = n // 2
        M = theory.family_size(n)
        pop = {
            "walsh-b-at0": (1 << n) - 1,
            "walsh-b-at1": (1 << n) - 1,
            "walsh-c-at0": (1 << m) - 1,
            "walsh-c-at1": (1 << m) - 1,
            "walsh-full": 1 << (5 * m),
            "walsh-bc-at0": ((1 << n) - 1) * ((1 << m) - 1),
            "walsh-bc-at1": ((1 << n) - 1) * ((1 << m) - 1),
            # one value per member (odd n/2), or 2^n + 2^{n/2} - 1 per member
            "walsh-family-mix": M if m % 2 else ((1 << n) + (1 << m) - 1) * M,
            "code-weights": 1 << (5 * m),
            "theta-root-counts": (1 << n) - 1,
            "family-corr": M * M * ((1 << n) - 1),
            "imbalance": M,
        }
        assert set(pop) == set(theory.PREDICTORS)
        for name, want in pop.items():
            assert theory.predict(name, n).total() == want, (name, n)


def test_predict_spot_values():
    odd_form = theory.predict("family-corr", 6, 2)
    assert odd_form.counts[-9] == 2_853_064
    assert odd_form.counts[63] == 520
    even_form = theory.predict("family-corr", 4, 1)
    assert even_form.counts[3] == 18_418
    assert even_form.counts[15] == 67
    roots = theory.predict("theta-root-counts", 6)
    assert roots.counts == {3: 36, 0: 27}
    # W_{b,0}(0) vanishes for every b in E* when n/2 is odd
    assert theory.predict("walsh-b-at0", 6).counts == {0: 63}
    assert theory.predict("walsh-b-at0", 8).counts == {-32: 85, 16: 170}
    assert theory.three_root_theta_count(10) == 660
    assert theory.three_root_theta_count(8) == (2**9 - 2) // 3


def test_predict_parity_and_name_errors():
    # one name per distribution, evaluated at both parities of n/2: no name
    # carries a parity suffix, and the old suffixed names are unknown
    for name in theory.PREDICTORS:
        assert not name.endswith(("-odd", "-even"))
        assert theory.predict(name, 6).total() and theory.predict(name, 8).total()
    for name in theory.PREDICTORS:
        for suffix in ("-odd", "-even"):
            with pytest.raises(KeyError):
                theory.predict(name + suffix, 6)
    with pytest.raises(KeyError):
        theory.predict("no-such-form", 6)


@pytest.mark.parametrize("n", [5, 2, 0, -4])
def test_predict_rejects_unsupported_n(n):
    with pytest.raises(UnsupportedN):
        theory.predict("code-weights", n)


def test_predict_checks_a_given_k():
    with pytest.raises(InvalidK):
        theory.predict("walsh-full", 6, 3)
    assert theory.predict("walsh-full", 6, 2) == theory.predict("walsh-full", 6)
    # no upper bound on n: the closed forms evaluate past every table
    assert theory.predict("family-corr", 32, 1).total() == (
        theory.family_size(32) ** 2 * ((1 << 32) - 1))


def test_family_dispatch_helpers():
    assert theory.family_correlation_histogram(6) == theory.predict("family-corr", 6)
    assert theory.family_correlation_histogram(8) == theory.predict("family-corr", 8)
    # odd n/2: the imbalance is the family transform mix shifted by -1
    assert theory.predict("imbalance", 6) == theory.predict("walsh-family-mix", 6).shifted(-1)


def test_six_valued_support():
    for n in (4, 6, 8, 10):
        m = n // 2
        hist = theory.family_correlation_histogram(n)
        assert set(hist.counts) == {
            (1 << n) - 1, -1,
            (1 << m) - 1, -(1 << m) - 1,
            (1 << (m + 1)) - 1, -(1 << (m + 1)) - 1,
        }


def test_small_set_histogram_population():
    for n in (4, 6, 8):
        h = theory.small_kasami_correlation(n)
        M = 1 << (n // 2)
        assert h.total() == M * M * ((1 << n) - 1)
        assert h.counts[(1 << n) - 1] == M


def test_build_code_n4(ctx4):
    code = theory.build_code(ctx4, 1)
    assert code.length == 15 and code.dimension == 10
    assert code.weight_histogram.total() == 1 << 10
    assert set(code.weight_histogram.counts) == {0, 4, 6, 8, 10, 12}
    assert code.weight_histogram == theory.predict("code-weights", 4)


def test_build_code_n6(ctx6):
    code = theory.build_code(ctx6, 2)
    assert code.weight_histogram.counts[32] == 15_183
    assert code.weight_histogram == theory.predict("code-weights", 6)


def test_code_guard():
    with pytest.raises(TooLarge):
        theory.build_code(make_field(12), 1)


def popcount_weights(ctx, k):
    """The weight histogram by popcounting every lin ^ quad ^ norm codeword
    of the reference tables."""
    lin, quad, norm = code_tables(ctx, k)
    rest = (quad[:, None] ^ norm[None]).reshape(-1, quad.shape[1])
    counts = np.zeros(ctx.order, dtype=np.int64)
    for row in lin:
        counts += np.bincount(np.bitwise_count(rest ^ row).sum(axis=1), minlength=ctx.order)
    return ValueHistogram(dict(enumerate(counts.tolist())))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_code_weights_match_popcount_reference(n):
    ctx = make_field(n)
    for k in (k for k in range(1, n) if qf.valid_k(n, k)):
        code = theory.build_code(ctx, k)
        assert code.weight_histogram == popcount_weights(ctx, k)


def test_code_weights_n10():
    code = theory.build_code(make_field(10), 2)
    assert code.weight_histogram == theory.predict("code-weights", 10)
    assert code.weight_histogram.total() == 1 << 25


def test_codeword_linearity(ctx4):
    tables = code_tables(ctx4, 1)
    rng = np.random.RandomState(2)
    for _ in range(20):
        g1, d1 = int(rng.randint(0, 16)), int(rng.randint(0, 16))
        g2, d2 = int(rng.randint(0, 16)), int(rng.randint(0, 16))
        e1 = int(ctx4.subfield_elements[rng.randint(0, 4)])
        e2 = int(ctx4.subfield_elements[rng.randint(0, 4)])
        lhs = codeword(ctx4, tables, g1, d1, e1) ^ codeword(ctx4, tables, g2, d2, e2)
        assert lhs == codeword(ctx4, tables, g1 ^ g2, d1 ^ d2, e1 ^ e2)


def test_codeword_distinctness(ctx4):
    tables = code_tables(ctx4, 1)
    words = {
        codeword(ctx4, tables, g, d, int(e))
        for g in range(16)
        for d in range(16)
        for e in ctx4.subfield_elements
    }
    assert len(words) == 1 << 10


def test_family_members_are_codewords(ctx4, ctx6, family4, family6):
    for ctx, family in ((ctx4, family4), (ctx6, family6)):
        tables = code_tables(ctx, family.params.k)
        for variant, pairs, rows in fam.member_blocks(family):
            lin = int(variant == "gamma-delta")  # part one carries tr(x), part two not
            for (a, b), row in zip(pairs.tolist(), rows):
                assert int.from_bytes(row.tobytes(), "little") == codeword(ctx, tables, lin, a, b)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_build_code_packs_one_row_per_gamma_and_representative(n, monkeypatch):
    """lin rows for every gamma, spanned by n packed basis rows; quad and
    norm rows only at the L class leaders of quadform.form_classes: at most
    n + 2 L packed rows."""
    ctx = make_field(n)
    k = next(k for k in range(1, n) if qf.valid_k(n, k))
    packed = []
    packed_rows = fam.packed_rows

    def spy(ctx, coeffs, e):
        rows = packed_rows(ctx, coeffs, e)
        packed.append(len(rows))
        return rows

    monkeypatch.setattr(theory, "packed_rows", spy)
    monkeypatch.setattr(fam, "packed_rows", spy)
    code = theory.build_code(ctx, k)
    assert code.weight_histogram == theory.predict("code-weights", n, k)
    leaders = len(qf.form_classes(ctx, k).bs)
    assert sum(packed) <= ctx.n + 2 * leaders


def test_weight_transform_correspondence(ctx4, ctx6):
    # codeword weights and transform values are the same data: v = 2^n - 2w
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        code = theory.build_code(ctx, k)
        remapped = ValueHistogram(
            {ctx.order - 2 * w: c for w, c in code.weight_histogram.counts.items()}
        )
        full = spectrum_distribution(
            ctx, k, range(ctx.order), ctx.subfield_elements, range(ctx.order)
        )
        assert remapped == full


def test_dual_weights(ctx4, ctx6):
    for ctx, k in ((ctx4, 1), (ctx6, 2)):
        code = theory.build_code(ctx, k)
        assert theory.dual_weight(code, 0) == 1
        assert theory.dual_low_weights(code, 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        theory.dual_low_weights(code, 5)


def test_dual_weight_rejects_corrupt_enumerator(ctx4):
    code = theory.build_code(ctx4, 1)
    broken = theory.CodeSpec(
        ctx=code.ctx,
        k=code.k,
        length=code.length,
        dimension=code.dimension,
        weight_histogram=ValueHistogram({0: 1, 7: 1}),
    )
    with pytest.raises(theory.NonIntegerResult):
        theory.dual_weight(broken, 1)


def test_krawtchouk_orthogonality_spot():
    # sum_i C(m, i) K_j(i) = 0 for j >= 1 (transform of the full space)
    m = 15
    for j in (1, 2, 3):
        assert sum(math.comb(m, i) * theory.krawtchouk(j, i, m) for i in range(m + 1)) == 0
