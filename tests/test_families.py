import ast
import json
from functools import reduce
from operator import xor
from pathlib import Path

import numpy as np
import pytest

from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import fieldeq, gf2n
from gkasami import quadform as qf
from gkasami import theory
from gkasami.gf2n import TooLarge, make_field
from gkasami.histogram import ValueHistogram
from gkasami.quadform import InvalidK

from reference import code_tables, codeword, frobenius


def unpack_bits(bits: list[int], length: int) -> np.ndarray:
    """uint8 matrix with bit t of bits[i] at [i, t], for t < length.

    The reference inverse of the packing in families (LSB = t = 0).
    """
    nbytes = (length + 7) // 8
    buf = b"".join(b.to_bytes(nbytes, "little") for b in bits)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(bits), nbytes)
    return np.unpackbits(packed, axis=1, count=length, bitorder="little")


def imbalances(rows: np.ndarray, period: int) -> np.ndarray:
    """(#zeros - #ones) of each packed member row over one period, by
    popcount: members pack no bit past the period."""
    return period - 2 * np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


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


def test_public_names_resolve_and_no_int_member_path_remains():
    import gkasami

    assert [name for name in gkasami.__all__ if not hasattr(gkasami, name)] == []
    # members are packed rows only
    assert not {"BinarySequence", "imbalance"} & set(gkasami.__all__)
    assert [name for name in ("BinarySequence", "imbalance", "_sequences", "_TAGS",
                              "row_keys", "find_rows") if hasattr(fam, name)] == []
    assert [name for name in ("part1", "part2", "all_sequences")
            if hasattr(fam.SequenceFamily, name)] == []
    # the oracles only tests call live in tests/reference.py (or, like
    # _kernel_eq_values, inside one there)
    moved = {fieldeq: ("BadParams", "LinearizedPoly", "linearized_kernel", "count_affine_roots",
                       "_kernel_eq_values", "count_kernel_roots", "count_reduced_roots"),
             qf: ("eval_f", "truth_table", "walsh_point", "orbit_classes", "polar_maps"),
             gf2n: ("NonDivisor",),
             gf2n.FieldCtx: ("trace_to_subfield", "element_from_label", "frobenius"),
             ValueHistogram: ("from_json_dict",),
             corr: ("r_max",)}
    assert [(owner.__name__, name) for owner, names in moved.items()
            for name in names if hasattr(owner, name)] == []


def runtime_references(path: Path, own: str | None) -> set[tuple[str, str]]:
    """(module, name) for every name of a gkasami module that the code in
    path reads: imported from the module, read as an attribute of an alias
    of the module, or, for own = the file's module, loaded by name.
    Docstrings, comments, annotations and attributes of other objects (such
    as a report's r_max field) are not references."""
    tree = ast.parse(path.read_text())
    aliases, found = {}, set()
    annotations = {id(part) for node in ast.walk(tree)
                   for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if a is not None for part in ast.walk(a)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gkasami")):
            module = (node.module or "").removeprefix("gkasami").lstrip(".")
            for alias in node.names:
                if module:
                    found.add((module, alias.name))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if id(node) in annotations:
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((own, node.id))
    return found


def attribute_reads(path: Path) -> set[str]:
    """The name of every attribute the code in path reads, of any object."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_read_outside_the_tests():
    # every public name, and every public method of an exported class, is
    # read by the package's commands and engines or by the benchmark; one
    # only tests read belongs in tests/reference.py
    import gkasami

    src = Path(gkasami.__file__).parent
    paths = [path for path in src.glob("*.py") if path.name != "__init__.py"]
    bench = [src.parents[1] / "perfbench" / name for name in ("run.py", "workloads.py")]
    read, attributes = set(), set()
    for path in paths + bench:
        read |= runtime_references(path, path.stem if path in paths else None)
        attributes |= attribute_reads(path)
    assert [name for name in gkasami.__all__
            if (getattr(gkasami, name).__module__.rpartition(".")[2], name) not in read] == []
    methods = [(cls.__name__, name) for cls in map(gkasami.__dict__.get, gkasami.__all__)
               if isinstance(cls, type) for name, member in vars(cls).items()
               if not name.startswith("_") and callable(getattr(member, "__get__", None))
               and not isinstance(member, cls)]
    assert ("FieldCtx", "mul") in methods
    assert [(owner, name) for owner, name in methods if name not in attributes] == []


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
        rows, _, part_one = fam.member_table(family)
        assert family.size == theory.family_size(n)
        assert part_one == 1 << (3 * n // 2)
        assert len({row.tobytes() for row in rows}) == family.size
        assert family.period == (1 << n) - 1
        assert rows.shape == (family.size, (family.period + 7) // 8)
        # no bit past the period is set
        assert not np.any(np.unpackbits(rows, axis=1, bitorder="little")[:, family.period:])


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", list(fam.FamilyKind))
def test_size_counts_the_members(n, kind):
    k = (2 if (n // 2) % 2 else 1) if kind == fam.FamilyKind.GENERALIZED else None
    family = fam.build_family(fam.family_params(make_field(n), kind, k))
    assert family.size == sum(len(rows) for _, _, rows in fam.member_blocks(family))


@pytest.mark.parametrize("kind", list(fam.FamilyKind))
def test_spectral_engine_builds_no_member(ctx6, kind, monkeypatch):
    def member_blocks(family):
        raise AssertionError("a member was built")

    monkeypatch.setattr(fam, "member_blocks", member_blocks)
    k = 2 if kind == fam.FamilyKind.GENERALIZED else None
    family = fam.build_family(fam.family_params(ctx6, kind, k))
    corr.full_distribution_spectral(family)


def test_family_size_n8(ctx8):
    family = fam.build_family(fam.family_params(ctx8, "fk", 1))
    assert family.size == theory.family_size(8) == 4111
    assert len({row.tobytes() for row in fam.member_table(family)[0]}) == family.size


def test_small_set_inside_part1(ctx4, ctx6, family4, family6):
    for ctx, family in ((ctx4, family4), (ctx6, family6)):
        small = fam.build_family(fam.family_params(ctx, "small-kasami"))
        rows, _, part_one = fam.member_table(family)
        small_rows, _, small_part_one = fam.member_table(small)
        assert small.size == 1 << ctx.half
        assert small_part_one == len(small_rows)  # no part two
        part1 = {row.tobytes() for row in rows[:part_one]}
        assert all(row.tobytes() in part1 for row in small_rows)


def test_large_set_equals_generalized_at_forced_k(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        fk = fam.build_family(fam.family_params(ctx, "fk", ctx.half + 1))
        large = fam.build_family(fam.family_params(ctx, "large-kasami"))
        assert {row.tobytes() for row in fam.member_table(fk)[0]} == {
            row.tobytes() for row in fam.member_table(large)[0]
        }


def test_invalid_k(ctx6):
    with pytest.raises(InvalidK):
        fam.family_params(ctx6, "fk", 3)
    with pytest.raises(InvalidK):
        fam.family_params(ctx6, "fk", None)
    with pytest.raises(InvalidK):
        fam.FamilyParams(ctx6, 2, fam.FamilyKind.LARGE_KASAMI)  # must be n/2+1


def test_sequence_term_matches_packed_bits(ctx4, family4):
    rows, pairs, part_one = fam.member_table(family4)
    for i in range(0, family4.size, 7):
        bits = int.from_bytes(rows[i].tobytes(), "little")
        make = fam.SequenceTag.gamma_delta if i < part_one else fam.SequenceTag.zeta_eta
        tag = make(*pairs[i].tolist())
        for t in range(family4.period):
            assert bits >> t & 1 == fam.sequence_term(family4.params, tag, t)


def test_unpack_bits_inverts_packing(ctx6, family4):
    seqs = [int.from_bytes(row.tobytes(), "little") for row in fam.member_table(family4)[0]]
    rows = unpack_bits(seqs, family4.period)
    assert rows.dtype == np.uint8
    assert [row.tolist() for row in rows] == [[s >> t & 1 for t in range(15)] for s in seqs]
    e1, _ = qf.exponents(ctx6, 2)
    coeffs = list(range(ctx6.order))
    packed = fam.packed_rows(ctx6, coeffs, e1)
    want = qf.trace_rows(ctx6, coeffs, e1)[:, ctx6.antilog]
    ints = [int.from_bytes(row.tobytes(), "little") for row in packed]
    assert np.array_equal(unpack_bits(ints, ctx6.group_order), want)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_span_rows_are_the_packed_rows_of_every_element(n):
    ctx = make_field(n)
    k = next(k for k in range(1, n) if qf.valid_k(n, k))
    for e in (1, qf.exponents(ctx, k)[0]):
        span = fam._span_rows(ctx, e)
        assert span.dtype == np.uint8
        assert np.array_equal(span, fam.packed_rows(ctx, range(ctx.order), e))


def test_find_rows():
    rows = np.array([[1, 2], [0, 7], [1, 0], [0, 7]], dtype=np.uint8)
    index = fam.RowIndex(rows)
    probe = np.array([[1, 0], [1, 1], [0, 7], [9, 9]], dtype=np.uint8)
    at = index.find(probe)
    assert at[[1, 3]].tolist() == [-1, -1]
    assert all(np.array_equal(rows[at[i]], probe[i]) for i in (0, 2))
    assert at[2] == 1  # the least index of the equal rows 1 and 3
    assert index.repeats().tolist() == [3]


def test_row_order_sorts_rows_that_share_a_prefix():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 256, (300, 12), dtype=np.uint8)
    rows[:, :8] = rng.integers(0, 2, (300, 1)) * 0xF0  # two prefixes, past 0x7f too
    rows[[10, 200]] = rows[50]  # three equal rows inside one run
    index = fam.RowIndex(rows)
    assert index.order.tolist() == sorted(range(300), key=lambda i: (rows[i].tobytes(), i))
    assert np.array_equal(index._prefix, fam._prefixes(rows)[index.order])
    assert index.repeats().tolist() == [50, 200]
    other = rows[7].copy()
    other[-1] ^= 1
    assert not np.any(np.all(rows == other, axis=1))
    found = index.find(np.stack([rows[200], rows[7], other]))
    assert found.tolist() == [10, 7, -1]


def test_find_rows_of_unshared_prefixes_in_small_blocks(monkeypatch):
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 256, (500, 20), dtype=np.uint8)
    index = fam.RowIndex(rows)
    assert index.order.tolist() == sorted(range(500), key=lambda i: rows[i].tobytes())
    queries = rows[::-3].copy()
    queries[::2, 15] ^= 0x40  # every other query differs past its prefix
    monkeypatch.setattr(fam, "_FIND_ROWS", 16)
    found = index.find(queries)
    want = np.arange(499, -1, -3)
    assert np.array_equal(found[1::2], want[1::2])
    assert np.all(found[::2] == -1)


@pytest.mark.parametrize("width", [2, 8, 12, 64])
def test_find_shuffled_repeated_and_missing_queries(monkeypatch, width):
    # queries in random order, each table row asked for up to three times,
    # among rows the table lacks: the least index of an equal row, or -1,
    # as a dict of the rows' bytes gives it, for every _FIND_ROWS
    rng = np.random.default_rng(width)
    rows = rng.integers(0, 256, (400, width), dtype=np.uint8)
    rows[:, : min(width - 1, 8)] &= 0x81  # many rows share a prefix
    rows[rng.integers(0, 400, 40)] = rows[rng.integers(0, 400, 40)]  # repeats
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    missing = rng.integers(0, 256, (150, width), dtype=np.uint8)
    queries = np.concatenate([rows, rows[rng.integers(0, 400, 400)], missing])
    queries = queries[rng.permutation(len(queries))]
    want = [first.get(row.tobytes(), -1) for row in queries]
    assert -1 in want
    index = fam.RowIndex(rows)
    for find_rows in (fam._FIND_ROWS, 16):
        monkeypatch.setattr(fam, "_FIND_ROWS", find_rows)
        assert index.find(queries).tolist() == want
    assert fam.RowIndex(rows[:0]).find(queries).tolist() == [-1] * len(queries)


@pytest.mark.parametrize("n,width", [(4, 2), (6, 8)])
def test_row_index_at_the_member_widths(n, width):
    """Member rows 2 bytes wide (n = 4, a zero-padded prefix) and exactly
    8 bytes wide (n = 6, the prefix is the whole row), with three repeats."""
    ctx = make_field(n)
    members = fam.member_table(fam.build_family(fam.family_params(ctx, "fk", n // 2 - 1)))[0]
    assert members.shape[1] == width
    m = len(members)
    rows = np.concatenate([members, members[[5, 0, 5]]])
    index = fam.RowIndex(rows)
    assert index.order.tolist() == sorted(range(m + 3), key=lambda i: (rows[i].tobytes(), i))
    assert sorted(index.repeats().tolist()) == [m, m + 1, m + 2]
    queries = rows[::-1].copy()
    assert index.find(queries).tolist() == [5, 0, 5] + list(range(m - 1, -1, -1))
    queries[:, -1] ^= 0x80  # the padding bit, 0 in every member
    assert np.all(index.find(queries) == -1)


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
    tags = [make[variant](*pair) for variant, pairs, _ in blocks for pair in pairs.tolist()]
    assert tags == [expected_tag(ctx, i) for i in range(family.size)]
    # each member is the codeword of its tag: part one carries tr(x), part two not
    tables = code_tables(ctx, family.params.k)
    members = [int.from_bytes(r.tobytes(), "little") for _, _, rows in blocks for r in rows]
    assert members == [codeword(ctx, tables, int(variant == "gamma-delta"), *pair)
                       for variant, pairs, _ in blocks for pair in pairs.tolist()]
    table, table_pairs, part_one = fam.member_table(family)
    assert np.array_equal(table, np.concatenate([rows for _, _, rows in blocks]))
    assert np.array_equal(table_pairs, np.concatenate([pairs for _, pairs, _ in blocks]))
    assert part_one == sum(len(pairs) for variant, pairs, _ in blocks if variant == "gamma-delta")
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
    rows, pairs, _ = fam.member_table(family6)
    assert pairs[0].tolist() == [0, 0]
    base = int.from_bytes(rows[0].tobytes(), "little")
    for t in range(family6.period):
        assert base >> t & 1 == ctx6.trace(ctx6.pow(ctx6.alpha, t))
    assert imbalances(rows[:1], family6.period).tolist() == [-1]


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
            # y lies in F, and its trace onto GF(2) is the sum of y^(2^i), i < n/2
            y = ctx6.mul(int(eta), ctx6.pow(x, e2))
            want = ctx6.trace(x) ^ reduce(xor, (frobenius(ctx6, y, i) for i in range(ctx6.half)))
            assert fam.sequence_term(params, tag, t) == want


def test_imbalance_conventions(family4):
    # all zeros and all ones over the 15 terms, the padding bit t = 15 clear
    rows = np.array([[0, 0], [0xFF, 0x7F]], dtype=np.uint8)
    assert imbalances(rows, 15).tolist() == [15, -15]
    # so a member's popcount is its weight: no member sets the padding bit
    assert not np.any(fam.member_table(family4)[0][:, -1] & 0x80)


def test_imbalance_histogram(family6):
    imbalance = imbalances(fam.member_table(family6)[0], family6.period)
    assert np.all(imbalance % 2 != 0)
    got = ValueHistogram.from_array(imbalance)
    assert got.counts[-1] == 241
    assert got == theory.predict("imbalance", 6)


def test_imbalance_histogram_even_parity(family4, ctx8):
    got = ValueHistogram.from_array(imbalances(fam.member_table(family4)[0], family4.period))
    assert got == theory.predict("imbalance", 4)
    family8 = fam.build_family(fam.family_params(ctx8, "fk", 1))
    got8 = ValueHistogram.from_array(imbalances(fam.member_table(family8)[0], family8.period))
    assert got8 == theory.predict("imbalance", 8)


def test_export_formats(ctx4, family4):
    rows, pairs, _ = fam.member_table(family4)
    bits = int.from_bytes(rows[5].tobytes(), "little")
    tag = fam.SequenceTag.gamma_delta(*pairs[5].tolist())
    assert tag == expected_tag(ctx4, 5)
    lines = {}
    for fmt in fam.FORMATS:
        sink = LineSink(wanted=[5])
        fam.write_family(family4, fmt, sink)
        lines[fmt] = sink.samples[5]

    bits_line = lines["bits"]
    assert len(bits_line) == 15 and set(bits_line) <= {"0", "1"}
    assert bits_line[0] == str(bits & 1)
    assert bits_line == "".join(str(bits >> t & 1) for t in range(15))

    hex_line = lines["hex"]
    assert len(hex_line) == 4  # ceil(15/8) = 2 bytes
    assert int.from_bytes(bytes.fromhex(hex_line), "little") == bits

    obj = json.loads(lines["json"])
    assert set(obj) == {"tag", "hex"}
    assert obj["tag"]["variant"] == "gamma-delta"
    assert obj["tag"]["gamma"] == ctx4.element_label(tag.gamma)
    assert obj["tag"] == tag.to_json_dict(ctx4)
    assert lines["json"] == json.dumps({"tag": tag.to_json_dict(ctx4), "hex": hex_line},
                                       separators=(",", ":"))
    assert int.from_bytes(bytes.fromhex(obj["hex"]), "little") == bits

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
