import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkasami import cli
from gkasami.families import FamilyKind
from gkasami.gf2n import N_MAX, N_MIN, make_field
from gkasami.quadform import valid_k


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info(capsys):
    code, out, _ = run(capsys, ["field", "info", "--n", "6"])
    assert code == 0
    obj = json.loads(out)
    assert obj["poly"] == "0x43"
    assert obj["valid_k"] == [2, 4]


def test_field_info_n20(capsys):
    code, out, _ = run(capsys, ["field", "info", "--n", "20"])
    assert code == 0
    obj = json.loads(out)
    assert obj["poly"] == "0x100009"
    assert obj["order"] == 1 << 20 and obj["subfield_order"] == 1 << 10
    assert obj["beta"]["label"] == "a^1025"


def test_field_info_poly_override(capsys):
    code, out, _ = run(capsys, ["field", "info", "--n", "4", "--poly", "0x19"])
    assert code == 0
    assert json.loads(out)["poly"] == "0x19"


@pytest.mark.parametrize("argv", [
    ["field", "info", "--n", "4"],
    ["family", "gen", "--n", "4", "--k", "1"],
], ids=["field-info", "family-gen"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.exists()


def test_field_info_bad_poly(capsys):
    code, _, err = run(capsys, ["field", "info", "--n", "4", "--poly", "0x15"])
    assert code == 1
    assert "not primitive" in err


@pytest.mark.parametrize("poly", ["xyz", "-0x13"])
def test_field_info_malformed_poly(capsys, poly):
    code, out, err = run(capsys, ["field", "info", "--n", "4", "--poly=" + poly])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unexpected_value_error_propagates(monkeypatch):
    def census_report(ctx, k):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(cli.fieldeq, "census_report", census_report)
    with pytest.raises(ValueError, match="a bug"):
        cli.main(["census", "--n", "4", "--k", "1"])


def test_family_gen_counts(capsys):
    code, out, err = run(capsys, ["family", "gen", "--n", "6", "--k", "2", "--format", "hex"])
    assert code == 0
    assert len(out.splitlines()) == 520
    assert "family size 520" in err


@pytest.mark.parametrize("n", range(N_MIN, N_MAX + 1, 2))
def test_default_k_is_admissible_at_every_n(capsys, n):
    # k = 2 for n/2 odd and 1 for n/2 even: n/2 - k is odd and coprime to
    # n/2, so gcd(n/2 - k, n) = 1 and the default never needs a fallback
    args = cli.build_parser().parse_args(["corr", "--n", str(n)])
    k = cli._resolve_k(make_field(n), args, FamilyKind(args.kind))
    assert k == (2 if n // 2 % 2 else 1) and valid_k(n, k)
    assert capsys.readouterr().err == f"note: --k not given, using k = {k}\n"


@pytest.mark.parametrize("engine", ["spectral", "brute"])
@pytest.mark.parametrize("k", ["1", "3", "5"])
def test_corr_refuses_an_inadmissible_k(capsys, engine, k):
    code, out, err = run(capsys, ["corr", "--n", "6", "--k", k, "--engine", engine])
    assert code == 1 and out == ""
    assert "invalid" in err


def test_family_gen_invalid_k(capsys):
    code, _, err = run(capsys, ["family", "gen", "--n", "6", "--k", "3"])
    assert code == 1
    assert "invalid" in err


def test_family_gen_large_kasami_forces_k(capsys):
    code, out, err = run(
        capsys,
        ["family", "gen", "--n", "4", "--k", "1", "--kind", "large-kasami"],
    )
    assert code == 0
    assert len(out.splitlines()) == 67
    assert "ignored" in err


def test_corr_spectral_n6(capsys):
    code, out, _ = run(capsys, ["corr", "--n", "6", "--k", "2", "--engine", "spectral"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["r_max"] == 17
    assert {e["value"]: int(e["count"]) for e in obj["histogram"]}[-17] == 982_560


def test_corr_brute_n4(capsys):
    code, out, _ = run(capsys, ["corr", "--n", "4", "--k", "1", "--engine", "brute"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["engine"] == "brute"


def test_corr_brute_guard(capsys):
    code, _, err = run(capsys, ["corr", "--n", "8", "--k", "1", "--engine", "brute"])
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize("argv,message", [
    (["corr", "--n", "8", "--k", "1", "--engine", "brute"], "--force"),
], ids=["brute-n8"])
def test_corr_guards_refuse_before_building_the_family(capsys, monkeypatch, argv, message):
    def build_family(params):
        raise AssertionError("the family was built before the guard ran")

    monkeypatch.setattr(cli.fam, "build_family", build_family)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.fixture
def no_members(monkeypatch):
    """Make building any family member, packed or not, fail the test."""
    def build_rows(*args):
        raise AssertionError("a family member was built")

    monkeypatch.setattr(cli.fam, "packed_rows", build_rows)
    monkeypatch.setattr(cli.fam, "trace_rows", build_rows)


def test_corr_spectral_n14_builds_no_member(capsys, no_members):
    code, out, _ = run(capsys, ["corr", "--n", "14"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["r_max"] == 257


@pytest.mark.parametrize("argv", [
    ["family", "gen", "--n", "14"],
    ["corr", "--engine", "brute", "--force", "--n", "14"],
], ids=["family-gen-n14", "brute-force-n14"])
def test_member_guard_refuses_before_any_trace_row(capsys, no_members, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "n <= 12" in err


def test_family_gen_refusal_leaves_no_out_file(capsys, no_members, tmp_path):
    path = tmp_path / "family.txt"
    code, _, _ = run(capsys, ["family", "gen", "--n", "14", "--out", str(path)])
    assert code == 2 and not path.exists()


@pytest.mark.parametrize("argv", [
    ["family", "gen", "--n", "24"],
    ["corr", "--engine", "brute", "--force", "--n", "22"],
    ["verify", "--n", "32"],
    ["code", "weights", "--n", "22"],
    ["census", "--n", "26"],
], ids=["family-gen", "brute-corr", "verify", "code-weights", "census"])
def test_commands_past_the_table_cap_refuse_before_any_work(capsys, monkeypatch, argv):
    def make_field(*args):
        raise AssertionError("a field was built before the guard ran")

    monkeypatch.setattr(cli, "make_field", make_field)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "n <= 20 (TABLE_MAX_N)" in err


def test_field_info_runs_past_the_table_cap(capsys):
    # field info reads no 2^n-entry table: labels go through the logs on F*
    # and U, of about 2^{n/2} entries
    code, out, _ = run(capsys, ["field", "info", "--n", "32"])
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == "a^1" and obj["beta"]["label"] == "a^65537"
    assert obj["order"] == 1 << 32 and obj["subfield_order"] == 1 << 16


def test_corr_spectral_runs_past_the_table_cap(capsys):
    code, out, _ = run(capsys, ["corr", "--n", "24", "--kind", "large-kasami"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["r_max"] == 8193


def test_n_help_names_both_caps(capsys):
    with pytest.raises(SystemExit):
        cli.main(["corr", "--help"])
    assert "4..32; above 20 field info and spectral corr only" in " ".join(
        capsys.readouterr().out.split())


def test_corr_spectral_n10(capsys):
    code, out, _ = run(capsys, ["corr", "--n", "10"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["r_max"] == 65


def test_code_weights_guard_exit_code(capsys):
    code, out, err = run(capsys, ["code", "weights", "--n", "12"])
    assert code == 2
    assert out == ""
    assert "n <= 10" in err


def test_corr_small_kasami(capsys):
    code, out, _ = run(capsys, ["corr", "--n", "6", "--kind", "small-kasami"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True and obj["r_max"] == 9


def test_verify_n4(capsys):
    code, out, err = run(capsys, ["verify", "--n", "4", "--k", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(c["match"] for c in report["claims"])
    assert "PASS" in err and "FAIL" not in err


def test_verify_rejects_unsupported_n(capsys):
    code, _, err = run(capsys, ["verify", "--n", "12"])
    assert code == 2
    assert "supports" in err


def test_code_weights(capsys):
    code, out, _ = run(capsys, ["code", "weights", "--n", "4", "--k", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["dual_low_weights"] == [0, 0, 0]
    assert obj["dimension"] == 10


def test_census(capsys):
    code, out, _ = run(capsys, ["census", "--n", "4", "--k", "1"])
    assert code == 0
    assert json.loads(out)["match"] is True


def test_out_flag(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["census", "--n", "4", "--k", "1", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["match"] is True


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["corr", "--n", "6", "--engine", "warp"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["corr", "--n", "4", "--jobs", "0"],
    ["verify", "--n", "4", "--jobs", "-3"],
])
def test_non_positive_jobs_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_determinism_across_runs_and_jobs(capsys):
    _, out1, _ = run(capsys, ["corr", "--n", "4", "--k", "1", "--engine", "brute", "--jobs", "1"])
    _, out2, _ = run(capsys, ["corr", "--n", "4", "--k", "1", "--engine", "brute", "--jobs", "2"])
    assert out1 == out2
    _, v1, _ = run(capsys, ["verify", "--n", "4", "--k", "1"])
    _, v2, _ = run(capsys, ["verify", "--n", "4", "--k", "1"])
    assert v1 == v2


def test_cli_import_loads_no_thread_pool():
    # every CLI run pays for what importing the CLI loads
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "import sys, gkasami.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
