"""Tests of the benchmark itself: the output gate, CLI parity, the metric
catalogue against BENCHMARK.json, and a smoke run of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from gkasami.histogram import ValueHistogram  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402


def _job(workload: str) -> wl.Job:
    return wl.warmup_job(workload, 7)


def test_gate_passes_clean_outputs():
    for workload in run.WORKLOADS:
        job = _job(workload)
        assert wl.check(job, wl.run_job(job, NullRecorder())) == [], workload


def test_gate_flags_corrupted_histogram():
    job = _job("corr-spectral")
    out = wl.run_job(job, NullRecorder())
    counts = dict(out.report.histogram.counts)
    low, high = min(counts), max(counts)
    counts[low] -= 1
    counts[high] += 1
    out.report.histogram = ValueHistogram(counts)
    assert any("histogram" in p for p in wl.check(job, out))


@pytest.mark.parametrize("fmt", ["bits", "hex", "json"])
def test_gate_flags_flipped_bit(fmt):
    job = replace(_job("family-export"), fmt=fmt)
    out = wl.run_job(job, NullRecorder())
    i = job.lines[1]
    line = out.sink.samples[i]
    t = job.ts[0]
    if fmt == "bits":
        flipped = line[:t] + "10"[int(line[t])] + line[t + 1:]
    else:
        text = json.loads(line)["hex"] if fmt == "json" else line
        raw = bytearray(bytes.fromhex(text))
        raw[t // 8] ^= 1 << (t % 8)
        flipped = raw.hex()
        if fmt == "json":
            flipped = line.replace(text, flipped)
    out.sink.samples[i] = flipped
    assert any(f"line {i}, t = {t}" in p for p in wl.check(job, out))


def test_gate_flags_wrong_line_count_and_spectrum():
    job = _job("family-export")
    out = wl.run_job(job, NullRecorder())
    out.sink.lines -= 1
    assert any("lines" in p for p in wl.check(job, out))

    job = _job("large-field")
    out = wl.run_job(job, NullRecorder())
    spectrum, rank = out.forms[0]
    bad = spectrum.copy()
    nz = int((bad != 0).argmax())
    bad[nz] = -bad[nz]
    out.forms[0] = (bad, rank)
    assert any("fit rank" in p for p in wl.check(job, out))


def test_gate_flags_failed_verify_claim():
    job = wl.Job("verify", 4, 1)
    out = wl.run_job(job, NullRecorder())
    out.report["claims"][0]["match"] = False
    out.report["pass"] = False
    assert wl.check(job, out)


@pytest.mark.parametrize("job", [
    wl.Job("corr", 4, 1),
    wl.Job("corr", 4, 3, kind="small-kasami"),
    wl.Job("corr", 4, 1, engine="brute", jobs=2),
    wl.Job("verify", 4, 3),
    wl.Job("field", 6, forms=((2, 5, -1),)),
], ids=lambda job: job.id)
def test_cli_parity(job):
    assert wl.cli_parity(job, wl.run_job(job, NullRecorder())) == []


def test_cli_parity_catches_a_different_output():
    job = _job("family-export")
    other = wl.run_job(replace(job, fmt="hex"), NullRecorder())
    assert wl.cli_parity(job, wl.run_job(job, NullRecorder())) == []
    assert wl.cli_parity(job, other) != []


def test_job_lists_follow_the_seed_and_cycle_k():
    for workload in run.WORKLOADS:
        assert wl.job_list(workload, 3) == wl.job_list(workload, 3)
    assert any(wl.job_list(w, 3) != wl.job_list(w, 4) for w in run.WORKLOADS)
    ks = {wl.job_list("corr-spectral", 3, pass_no=p)[0].k for p in range(4)}
    assert ks == set(wl.admissible_k(8))


def test_spans_self_time_and_layer_metrics():
    rec = Recorder()
    job = wl.Job("corr", 4, 1)
    wl.run_job(job, rec)
    root = rec.spans[0]
    assert root.name == "job.corr.fk-n4" and root.parent is None
    assert {s.job for s in rec.spans} == {job.id}
    own = rec.self_times()
    children = sum(s.duration for s in rec.spans if s.parent == 0)
    assert own[0] == pytest.approx(root.duration - children)
    metrics = run.layer_metrics(rec, root.duration * 1.01)
    assert metrics["job.corr.fk-n4.s"] == root.duration
    assert metrics["correlation.full_distribution_spectral.s"] > 0
    assert metrics["correlation.full_distribution_brute.s"] == 0
    assert 0 < metrics["trace.uncovered_share"] < 0.02


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == (
        run.per_layer_catalogue())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = ([(n, u) for n, u, _ in run.per_layer_catalogue(small=True)] if trace
            else run.END_TO_END)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == want
    for name, unit in want:
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines)
    assert any(ln.startswith("fail_ratio = 0 ratio") for ln in lines)
    if trace:
        assert (ROOT / ".bench_trace" / f"{workload}-seed5.json").exists()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("large-field", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
