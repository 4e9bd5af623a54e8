import json

import numpy as np
import pytest

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import make_field
from gkasami.histogram import ValueHistogram
from gkasami.quadform import InvalidK


def test_gamma_delta_sets(ctx4, ctx6, ctx8):
    g6, d6 = fam.gamma_delta_sets(ctx6)
    assert g6 == [1]
    assert len(d6) == 8 and 0 in d6
    assert sorted(d6) == sorted(int(c) for c in ctx6.subfield_elements)

    g4, d4 = fam.gamma_delta_sets(ctx4)
    assert g4 == [1, 2, 4]
    assert d4 == [1]  # (2^2 - 1) / 3 = 1 power of beta

    g8, d8 = fam.gamma_delta_sets(ctx8)
    assert len(g8) * len(d8) == 15 == (1 << 4) - 1
    assert all(ctx8.in_subfield(d) for d in d8)


def test_family_sizes_and_distinctness(family4, family6):
    for family, n in ((family4, 4), (family6, 6)):
        assert family.size == theory.family_size(n)
        assert len(family.part1) == 1 << (3 * n // 2)
        bits = {s.bits for s in family.all_sequences()}
        assert len(bits) == family.size
        assert all(s.length == (1 << n) - 1 for s in family.all_sequences())


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", list(fam.FamilyKind))
def test_size_counts_the_members(n, kind):
    k = (2 if (n // 2) % 2 else 1) if kind == fam.FamilyKind.GENERALIZED else None
    family = fam.build_family(fam.family_params(make_field(n), kind, k))
    assert family.size == len(family.all_sequences())


@pytest.mark.parametrize("kind", list(fam.FamilyKind))
def test_spectral_engine_builds_no_member(ctx6, kind):
    k = 2 if kind == fam.FamilyKind.GENERALIZED else None
    family = fam.build_family(fam.family_params(ctx6, kind, k))
    corr.full_distribution_spectral(family)
    assert "part1" not in family.__dict__ and "part2" not in family.__dict__


def test_family_size_n8(ctx8):
    family = fam.build_family(fam.family_params(ctx8, "fk", 1))
    assert family.size == theory.family_size(8) == 4111
    assert len({s.bits for s in family.all_sequences()}) == family.size


def test_small_set_inside_part1(ctx4, ctx6, family4, family6):
    for ctx, family in ((ctx4, family4), (ctx6, family6)):
        small = fam.build_family(fam.family_params(ctx, "small-kasami"))
        assert small.size == 1 << ctx.half
        assert small.part2 == []
        part1 = {s.bits for s in family.part1}
        assert all(s.bits in part1 for s in small.part1)


def test_large_set_equals_generalized_at_forced_k(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        fk = fam.build_family(fam.family_params(ctx, "fk", ctx.half + 1))
        large = fam.build_family(fam.family_params(ctx, "large-kasami"))
        assert {s.bits for s in fk.all_sequences()} == {
            s.bits for s in large.all_sequences()
        }


def test_invalid_k(ctx6):
    with pytest.raises(InvalidK):
        fam.family_params(ctx6, "fk", 3)
    with pytest.raises(InvalidK):
        fam.family_params(ctx6, "fk", None)
    with pytest.raises(InvalidK):
        fam.FamilyParams(ctx6, 2, fam.FamilyKind.LARGE_KASAMI)  # must be n/2+1


def test_sequence_term_matches_packed_bits(ctx4, family4):
    for seq in family4.all_sequences()[::7]:
        for t in range(seq.length):
            assert seq.bit(t) == fam.sequence_term(family4.params, seq.tag, t)


def test_unpack_bits_inverts_packing(ctx6, family4):
    seqs = family4.all_sequences()
    rows = fam.unpack_bits([s.bits for s in seqs], family4.period)
    assert rows.dtype == np.uint8
    assert [row.tolist() for row in rows] == [[s.bit(t) for t in range(15)] for s in seqs]
    e1, _ = qf.exponents(ctx6, 2)
    coeffs = list(range(ctx6.order))
    packed = fam.packed_trace_rows(ctx6, coeffs, e1, ctx6.tr1)
    want = qf.trace_rows(ctx6, coeffs, e1, ctx6.tr1)[:, ctx6.antilog]
    assert np.array_equal(fam.unpack_bits([packed[a] for a in coeffs], ctx6.group_order), want)


def test_base_m_sequence(ctx6, family6):
    base = family6.part1[0]
    assert base.tag.pair() == (0, 0)
    for t in range(base.length):
        assert base.bit(t) == ctx6.trace(ctx6.pow(ctx6.alpha, t))
    assert fam.imbalance(base) == -1


def test_zeta_term_at_zero(ctx6, family6):
    tag = fam.SequenceTag.zeta_eta(1, 0)
    assert fam.sequence_term(family6.params, tag, 0) == 0  # trace of 1, n even


def test_small_kasami_term_identity(ctx6):
    # the gamma = 0 slice of the two-parameter formula is the small-set formula
    params = fam.family_params(ctx6, "small-kasami")
    e2 = (1 << ctx6.half) + 1
    for eta in ctx6.subfield_elements:
        tag = fam.SequenceTag.gamma_delta(0, int(eta))
        for t in range(0, 63, 5):
            x = ctx6.pow(ctx6.alpha, t)
            want = ctx6.trace(x) ^ int(ctx6.trh[ctx6.mul(int(eta), ctx6.pow(x, e2))])
            assert fam.sequence_term(params, tag, t) == want


def test_imbalance_conventions(ctx4):
    allzero = fam.BinarySequence(0, 15, fam.SequenceTag.gamma_delta(0, 0))
    assert fam.imbalance(allzero) == 15
    allone = fam.BinarySequence((1 << 15) - 1, 15, fam.SequenceTag.gamma_delta(0, 0))
    assert fam.imbalance(allone) == -15


def test_imbalance_histogram(family6):
    got = ValueHistogram({})
    for s in family6.all_sequences():
        assert fam.imbalance(s) % 2 != 0
        got.add_value(fam.imbalance(s))
    assert got.counts[-1] == 241
    assert got == theory.imbalance_histogram(6)


def test_imbalance_histogram_even_parity(family4, ctx8):
    got = ValueHistogram({})
    for s in family4.all_sequences():
        got.add_value(fam.imbalance(s))
    assert got == theory.imbalance_histogram(4)
    family8 = fam.build_family(fam.family_params(ctx8, "fk", 1))
    got8 = ValueHistogram({})
    for s in family8.all_sequences():
        got8.add_value(fam.imbalance(s))
    assert got8 == theory.imbalance_histogram(8)


def test_export_formats(ctx4, family4):
    seq = family4.part1[5]
    bits_line = fam.format_sequence(seq, "bits", ctx4)
    assert len(bits_line) == 15 and set(bits_line) <= {"0", "1"}
    assert bits_line[0] == str(seq.bit(0))

    hex_line = fam.format_sequence(seq, "hex", ctx4)
    assert len(hex_line) == 4  # ceil(15/8) = 2 bytes
    assert int.from_bytes(bytes.fromhex(hex_line), "little") == seq.bits

    obj = json.loads(fam.format_sequence(seq, "json", ctx4))
    assert set(obj) == {"tag", "hex"}
    assert obj["tag"]["variant"] == "gamma-delta"
    assert obj["tag"]["gamma"] == ctx4.element_label(seq.tag.gamma)
    assert int.from_bytes(bytes.fromhex(obj["hex"]), "little") == seq.bits

    with pytest.raises(ValueError):
        fam.format_sequence(seq, "csv", ctx4)


def test_write_family_line_count(ctx4, family4, tmp_path):
    out = tmp_path / "fam.txt"
    with open(out, "w") as fh:
        count = fam.write_family(family4, "hex", fh)
    assert count == 67
    assert len(out.read_text().splitlines()) == 67
