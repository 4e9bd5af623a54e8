import json

import numpy as np
import pytest

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import TooLarge, make_field
from gkasami.histogram import ValueHistogram
from gkasami.quadform import InvalidK


def unpack_bits(bits: list[int], length: int) -> np.ndarray:
    """uint8 matrix with bit t of bits[i] at [i, t], for t < length.

    The reference inverse of the packing in families (LSB = t = 0).
    """
    nbytes = (length + 7) // 8
    buf = b"".join(b.to_bytes(nbytes, "little") for b in bits)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nbytes)
    return np.unpackbits(packed, axis=1, count=length, bitorder="little")


class LineSink:
    """A text stream that counts the lines of each write and keeps sampled lines."""

    def __init__(self, wanted=()):
        self.wanted = set(wanted)
        self.per_write: list[int] = []
        self.samples: dict[int, str] = {}

    @property
    def lines(self) -> int:
        return sum(self.per_write)

    def write(self, text: str) -> int:
        assert text.endswith("\n"), "a write ends inside a line"
        first, lines = self.lines, text[:-1].split("\n")
        for i in self.wanted & set(range(first, first + len(lines))):
            self.samples[i] = lines[i - first]
        self.per_write.append(len(lines))
        return len(text)


def expected_tag(ctx, i: int) -> fam.SequenceTag:
    """The tag of family line i, from the documented member order."""
    sub = ctx.subfield_elements.tolist()
    if i < ctx.order * len(sub):
        return fam.SequenceTag.gamma_delta(i // len(sub), sub[i % len(sub)])
    gset, dset = fam.gamma_delta_sets(ctx)
    j = i - ctx.order * len(sub)
    return fam.SequenceTag.zeta_eta(gset[j // len(dset)], dset[j % len(dset)])


def line_bits(fmt: str, line: str) -> int:
    """The member in one exported line as an int, LSB = t = 0."""
    if fmt == "bits":
        return int(line[::-1], 2)
    if fmt == "json":
        line = json.loads(line)["hex"]
    return int.from_bytes(bytes.fromhex(line), "little")


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
    rows = unpack_bits([s.bits for s in seqs], family4.period)
    assert rows.dtype == np.uint8
    assert [row.tolist() for row in rows] == [[s.bit(t) for t in range(15)] for s in seqs]
    e1, _ = qf.exponents(ctx6, 2)
    coeffs = list(range(ctx6.order))
    packed = fam.packed_rows(ctx6, coeffs, e1, ctx6.tr1)
    want = qf.trace_rows(ctx6, coeffs, e1, ctx6.tr1)[:, ctx6.antilog]
    ints = [int.from_bytes(row.tobytes(), "little") for row in packed]
    assert np.array_equal(unpack_bits(ints, ctx6.group_order), want)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_span_rows_are_the_packed_rows_of_every_element(n):
    ctx = make_field(n)
    k = next(k for k in range(1, n) if qf.valid_k(n, k))
    for e in (1, qf.exponents(ctx, k)[0]):
        span = fam._span_rows(ctx, e)
        assert span.dtype == np.uint8
        assert np.array_equal(span, fam.packed_rows(ctx, range(ctx.order), e, ctx.tr1))


def test_find_rows():
    rows = np.array([[1, 2], [0, 7], [1, 0], [0, 7]], dtype=np.uint8)
    keys = np.sort(fam.row_keys(rows))
    probe = fam.row_keys(np.array([[1, 0], [1, 1], [0, 7], [9, 9]], dtype=np.uint8))
    at = fam.find_rows(keys, probe)
    assert at[[1, 3]].tolist() == [-1, -1]
    assert all(keys[at[i]] == probe[i] for i in (0, 2))


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", list(fam.FamilyKind))
def test_member_blocks_hold_the_members_in_order(n, kind):
    ctx = make_field(n)
    k = (2 if (n // 2) % 2 else 1) if kind == fam.FamilyKind.GENERALIZED else None
    family = fam.build_family(fam.family_params(ctx, kind, k))
    blocks = list(fam.member_blocks(family))
    assert all(rows.dtype == np.uint8 and rows.shape == (len(pairs), (ctx.group_order + 7) // 8)
               for _, pairs, rows in blocks)
    make = {"gamma-delta": fam.SequenceTag.gamma_delta, "zeta-eta": fam.SequenceTag.zeta_eta}
    tags = [make[variant](*pair) for variant, pairs, _ in blocks for pair in pairs]
    assert tags == [s.tag for s in family.all_sequences()]
    assert tags == [expected_tag(ctx, i) for i in range(family.size)]
    members = [int.from_bytes(r.tobytes(), "little") for _, _, rows in blocks for r in rows]
    assert members == [s.bits for s in family.all_sequences()]
    assert all(pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
               for _, pairs, _ in blocks)
    part1 = [len(pairs) for variant, pairs, _ in blocks if variant == "gamma-delta"]
    part2 = [len(pairs) for variant, pairs, _ in blocks if variant == "zeta-eta"]
    # whole gammas per part-one block, as many as fit the budget, at least one
    gammas = 1 if kind == fam.FamilyKind.SMALL_KASAMI else ctx.order
    per_gamma = (1 << ctx.half) * ((ctx.group_order + 7) // 8)
    step = max(1, fam._BLOCK_BYTES // per_gamma)
    assert part1 == [min(step, gammas - g) << ctx.half for g in range(0, gammas, step)]
    if kind == fam.FamilyKind.SMALL_KASAMI:
        assert part2 == []
    else:
        gset, dset = fam.gamma_delta_sets(ctx)
        assert part2 == [len(gset) * len(dset)]


def test_member_blocks_refuse_when_called(monkeypatch):
    def trace_rows(*args):
        raise AssertionError("a trace row was built")

    monkeypatch.setattr(fam, "trace_rows", trace_rows)
    family = fam.build_family(fam.family_params(make_field(14), "fk", 2))
    with pytest.raises(TooLarge, match="n <= 12"):
        fam.member_blocks(family)


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
    lines = {}
    for fmt in fam.FORMATS:
        sink = LineSink(wanted=[5])
        fam.write_family(family4, fmt, sink)
        lines[fmt] = sink.samples[5]

    bits_line = lines["bits"]
    assert len(bits_line) == 15 and set(bits_line) <= {"0", "1"}
    assert bits_line[0] == str(seq.bit(0))
    assert bits_line == "".join(str(seq.bit(t)) for t in range(15))

    hex_line = lines["hex"]
    assert len(hex_line) == 4  # ceil(15/8) = 2 bytes
    assert int.from_bytes(bytes.fromhex(hex_line), "little") == seq.bits

    obj = json.loads(lines["json"])
    assert set(obj) == {"tag", "hex"}
    assert obj["tag"]["variant"] == "gamma-delta"
    assert obj["tag"]["gamma"] == ctx4.element_label(seq.tag.gamma)
    assert obj["tag"] == seq.tag.to_json_dict(ctx4)
    assert lines["json"] == json.dumps({"tag": seq.tag.to_json_dict(ctx4), "hex": hex_line},
                                       separators=(",", ":"))
    assert int.from_bytes(bytes.fromhex(obj["hex"]), "little") == seq.bits

    sink = LineSink()
    with pytest.raises(ValueError):
        fam.write_family(family4, "csv", sink)
    assert sink.per_write == []


def test_write_family_line_count(ctx4, family4, tmp_path):
    out = tmp_path / "fam.txt"
    with open(out, "w") as fh:
        count = fam.write_family(family4, "hex", fh)
    assert count == 67
    assert len(out.read_text().splitlines()) == 67


@pytest.mark.parametrize("fmt", fam.FORMATS)
def test_write_family_streams_one_block_per_write(ctx6, ctx8, fmt):
    for ctx, k in ((ctx6, 2), (ctx8, 1)):
        family = fam.build_family(fam.family_params(ctx, "fk", k))
        sink = LineSink()
        assert fam.write_family(family, fmt, sink) == family.size == sink.lines
        gset, dset = fam.gamma_delta_sets(ctx)
        assert sink.per_write == [1 << ctx.half] * ctx.order + [len(gset) * len(dset)]
        assert "part1" not in family.__dict__ and "part2" not in family.__dict__


@pytest.mark.slow
@pytest.mark.parametrize("fmt", fam.FORMATS)
def test_write_family_n12(fmt):
    ctx = make_field(12)
    params = fam.family_params(ctx, "fk", 1)
    size = theory.family_size(12)
    part1 = ctx.order << ctx.half
    wanted = [0, 1, 4095, part1 - 1, part1, size - 1, 123457, 200003]
    sink = LineSink(wanted)
    assert fam.write_family(fam.build_family(params), fmt, sink) == size == sink.lines
    for i in wanted:
        tag = expected_tag(ctx, i)
        line = sink.samples[i]
        if fmt == "json":
            assert json.loads(line)["tag"] == tag.to_json_dict(ctx)
        bits = line_bits(fmt, line)
        for t in (0, 1, 7, 8, 1000, 2047, 4093, 4094):
            assert (bits >> t) & 1 == fam.sequence_term(params, tag, t)
