"""Engine-free identities of the closed forms at every even n from 4 to 64.

Each identity ties one named distribution of theory.predict to a count that
is known without any engine (a population, a Parseval sum, a MacWilliams
transform, another closed form), so the sweep guards the closed forms well
past the sizes the engines reach.  For every identity a perturbed builder,
one count moved or dropped, shows that the identity can fail.
"""

import time

import pytest

from gkasami import theory

SWEEP_NS = range(4, 65, 2)


def power_sum(h, d):
    return sum(v**d * c for v, c in h.counts.items())


def dual_sums_vanish(n):
    """B_1 = B_2 = B_3 = 0 for the code-weights enumerator: each
    2^{5n/2} B_j is the Krawtchouk sum of the weight counts."""
    h, length = theory.predict("code-weights", n), (1 << n) - 1
    return all(sum(c * theory.krawtchouk(j, w, length) for w, c in h.counts.items()) == 0
               for j in (1, 2, 3))


def r_max_is_off_peak_support(n):
    peak = (1 << n) - 1
    support = theory.predict("family-corr", n).counts
    return theory.r_max_expected(n) == max(abs(v) for v in support if v != peak)


IDENTITIES = {
    "walsh-full-total": lambda n: theory.predict("walsh-full", n).total() == 1 << 5 * n // 2,
    # sum over lambda of W(lambda) is 2^n (-1)^f(0) = 2^n per form
    "walsh-full-sum": lambda n: power_sum(theory.predict("walsh-full", n), 1) == 1 << 5 * n // 2,
    # Parseval: 2^{2n} per form
    "walsh-full-square-sum":
        lambda n: power_sum(theory.predict("walsh-full", n), 2) == 1 << 7 * n // 2,
    "code-weights-total": lambda n: theory.predict("code-weights", n).total() == 1 << 5 * n // 2,
    "code-weights-dual": dual_sums_vanish,
    "family-corr-total": lambda n: theory.predict("family-corr", n).total()
        == theory.family_size(n) ** 2 * ((1 << n) - 1),
    # summed over shifts and ordered pairs, C(i, j, tau) is (sum of imbalances)^2
    "family-corr-sum": lambda n: power_sum(theory.predict("family-corr", n), 1)
        == power_sum(theory.predict("imbalance", n), 1) ** 2,
    "imbalance-total": lambda n: theory.predict("imbalance", n).total() == theory.family_size(n),
    "walsh-bc-at0-moments": lambda n: tuple(
        power_sum(theory.predict("walsh-bc-at0", n), d) for d in (1, 2, 3))
        == theory.walsh0_power_sums(n),
    "theta-root-counts-total":
        lambda n: theory.predict("theta-root-counts", n).total() == (1 << n) - 1,
    "r-max-support": r_max_is_off_peak_support,
}


def test_identities_hold_at_every_even_n_to_64():
    t0 = time.perf_counter()
    failed = [(name, n) for n in SWEEP_NS for name, holds in IDENTITIES.items() if not holds(n)]
    assert failed == []
    assert time.perf_counter() - t0 < 1.0


# identity -> (the predictor to perturb, {value: count change} at m = n/2)
PERTURBATIONS = {
    "walsh-full-total": ("walsh-full", lambda m: {0: -1}),
    # keeps the total and the square sum
    "walsh-full-sum": ("walsh-full", lambda m: {1 << m: -1, -(1 << m): 1}),
    # keeps the total and the sum
    "walsh-full-square-sum": ("walsh-full", lambda m: {0: -2, 1 << m: 1, -(1 << m): 1}),
    "code-weights-total": ("code-weights", lambda m: {0: 1}),
    # keeps the total
    "code-weights-dual": ("code-weights", lambda m: {(1 << 2 * m - 1) + (1 << m): 1,
                                                     1 << 2 * m - 1: -1}),
    "family-corr-total": ("family-corr", lambda m: {-1: -1}),
    # keeps the total
    "family-corr-sum": ("family-corr", lambda m: {-1: -1, (1 << m) - 1: 1}),
    "imbalance-total": ("imbalance", lambda m: {-1: 1}),
    # keeps the total
    "walsh-bc-at0-moments": ("walsh-bc-at0", lambda m: {0: -1, 1 << m: 1}),
    "theta-root-counts-total": ("theta-root-counts", lambda m: {3: -1}),
    # keeps the total: one count moves to a value past r_max
    "r-max-support": ("family-corr", lambda m: {-1: -1, (1 << m + 2) - 1: 1}),
}


def test_every_identity_has_a_perturbation():
    assert set(PERTURBATIONS) == set(IDENTITIES)


@pytest.mark.parametrize("identity", sorted(PERTURBATIONS))
@pytest.mark.parametrize("n", [6, 8])
def test_a_moved_count_breaks_the_identity(monkeypatch, identity, n):
    name, delta = PERTURBATIONS[identity]
    builder = theory.PREDICTORS[name]

    def perturbed(n):
        h = builder(n)
        for v, d in delta(n // 2).items():
            h.add_value(v, d)
        return h

    assert IDENTITIES[identity](n)
    monkeypatch.setitem(theory.PREDICTORS, name, perturbed)
    assert not IDENTITIES[identity](n)
