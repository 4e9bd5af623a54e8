#!/usr/bin/env python3
"""Benchmark for gkasami.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

Run from the root of a source checkout; it imports `gkasami` from `src/`
and nothing else from the repository.  One process, one client, a closed
loop: each job starts when the previous one returns.  It measures whole
passes over the workload's job list for about S seconds (at least one
pass, and none that would be expected to end past S), gates every job's
output, then runs the list's first job once more through
`gkasami.cli.main` and requires the same stdout.

`--trace 0` reports the end-to-end metrics: the median pass time, the
median of several fresh-process set-ups, and peak RSS.  `--trace 1`
alternates untraced and traced passes and reports per-layer busy time from
spans around every public call, the tracing overhead, and the share of the
pass no root span covers; it writes the spans to
`.bench_trace/<workload>-seed<N>.json`.  The last stdout line is the JSON
result; lines before it repeat each metric by name with its unit, plus
`fail_ratio` and the unscaled median pass time.

Pass times are reported in reference seconds.  The speed of a small shared
host drifts by 10% and more within tens of seconds, which would swamp any
regression bound.  So right before every job and after the last one of each
pass, outside the timed region, the run times a fixed calibration task, and
each pass is scaled by (the task's typical time) / (median time of the task
around that pass): it reads as wall seconds on a host where the task takes
its typical time.  The task is part of the benchmark, so a change to
gkasami cannot move it.  `setup_s` is scaled alike, by the median of the
numeric task's times taken next to every set-up probe of the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402

WORKLOADS = ("corr-spectral", "crosscheck", "family-export", "large-field")
# fresh-process set-ups per run, spread over the timed window between
# passes (start-up time wanders from run to run); setup_s is their median
SETUP_PROBES = 11
CALIBRATION_REPEATS = 3
SETUP_CALIBRATION_REPEATS = 5

END_TO_END = [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# layer spans, reported as busy (self) seconds per pass
SPAN_LAYERS = [
    "gf2n.make_field",
    "families.build_family",
    "families.write_family",
    "quadform.walsh_spectrum",
    "quadform.symplectic_rank",
    "correlation.full_distribution_spectral",
    "correlation.full_distribution_brute",
    "correlation.full_distribution_brute.jobs2",
    "correlation.predicted_histogram",
    "verify.claims_report",
    "cli.emit",
]
# (metric, span, count key, unit): count per busy second of the span
RATES = [
    ("gf2n.make_field.elements_per_s", "gf2n.make_field", "elements", "1/s"),
    ("families.build_family.sequences_per_s", "families.build_family", "sequences", "1/s"),
    ("families.write_family.bytes_per_s", "families.write_family", "bytes", "B/s"),
    ("correlation.spectral.triples_per_s", "correlation.full_distribution_spectral",
     "triples", "1/s"),
    ("correlation.brute.triples_per_s", "correlation.full_distribution_brute", "triples", "1/s"),
]
# (metric, span, count key, unit, better): count per pass
COUNTS = [
    ("verify.claims", "verify.claims_report", "claims", "count", "higher"),
    ("verify.claims_failed", "verify.claims_report", "claims_failed", "count", "lower"),
    ("cli.emit.bytes", "cli.emit", "bytes", "B", "lower"),
]


def per_layer_catalogue(small: bool = False) -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    import workloads

    out = [(f"{name}.s", "s", "lower") for name in SPAN_LAYERS]
    out += [(metric, unit, "higher") for metric, _, _, unit in RATES]
    out.append(("correlation.brute.jobs2_speedup", "ratio", "higher"))
    out += [(metric, unit, better) for metric, _, _, unit, better in COUNTS]
    seen = set()
    for workload in WORKLOADS:
        for job in workloads.job_list(workload, 0, small):
            if job.id not in seen:
                seen.add(job.id)
                out.append((f"job.{job.id}.s", "s", "lower"))
    out += [
        ("trace.root_self.s", "s", "lower"),
        ("trace.uncovered_share", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def layer_metrics(rec: Recorder, pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass, in wall seconds (unentered layers read 0)."""
    busy: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], int] = defaultdict(int)
    jobs: dict[str, float] = defaultdict(float)
    root_self = 0.0
    for span, own in zip(rec.spans, rec.self_times()):
        if span.parent is None:
            jobs[span.name] += span.duration
            root_self += own
            continue
        busy[span.name] += own
        for key, value in span.counts.items():
            counts[span.name, key] += value

    def per_s(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    out = {f"{name}.s": busy[name] for name in SPAN_LAYERS}
    for metric, span, key, _ in RATES:
        out[metric] = per_s(counts[span, key], busy[span])
    brute, brute2 = (busy["correlation.full_distribution_brute" + s] for s in ("", ".jobs2"))
    out["correlation.brute.jobs2_speedup"] = brute / brute2 if brute2 > 0 else 0.0
    for metric, span, key, _, _ in COUNTS:
        out[metric] = counts[span, key]
    for name, seconds in jobs.items():
        out[f"{name}.s"] = seconds
    out["trace.root_self.s"] = root_self
    out["trace.uncovered_share"] = (pass_s - sum(jobs.values())) / pass_s
    return out


# -- host speed ------------------------------------------------------------

_CALIBRATION_INTS = np.arange(1 << 20, dtype=np.int32)
_CALIBRATION_BITS = (1 << 255) // 7


def _numeric_task() -> None:
    sum(i * i for i in range(20_000))
    int((_CALIBRATION_INTS ^ 12345).sum())


def _string_task() -> None:
    "".join(str((_CALIBRATION_BITS >> (i % 255)) & 1) for i in range(6000))


# (task, its typical time on a 2-vCPU Xeon VM).  Host contention slows
# Python string building and NumPy streaming by different amounts, so
# family-export, which mostly builds strings, gets a task that does too.
CALIBRATIONS = {"family-export": (_string_task, 0.0015)}
DEFAULT_CALIBRATION = (_numeric_task, 0.003)


class HostSpeed:
    """Times of a fixed calibration task, run outside the timed regions."""

    def __init__(self, task, typical_s: float) -> None:
        self.task = task
        self.typical_s = typical_s
        self.times: list[float] = []

    def factor(self, repeats: int = CALIBRATION_REPEATS) -> float:
        """Reference seconds per wall second right now."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.task()
            times.append(time.perf_counter() - t0)
        self.times += times
        return self.typical_s / statistics.median(times)

    def run_factor(self) -> float:
        """Reference seconds per wall second over every sample so far."""
        return self.typical_s / statistics.median(self.times)


def scaled(values: dict[str, float], units: dict[str, str], factor: float) -> dict:
    """Times (unit s) times the factor, rates (unit */s) divided by it."""
    out = {}
    for name, value in values.items():
        if units[name] == "s":
            value *= factor
        elif units[name].endswith("/s"):
            value /= factor
        out[name] = value
    return out


# -- running and gating jobs -------------------------------------------------


class Tally:
    """Jobs attempted and failed; a failure is printed to stderr and the run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)


def run_checked(job, rec, tally: Tally, hists: dict, speed: HostSpeed):
    """Run one job and gate its output; returns (seconds, speed factor, output or None)."""
    import workloads

    factor = speed.factor()
    t0 = time.perf_counter()
    try:
        out = workloads.run_job(job, rec)
    except Exception:  # a job that raises counts as failed; the run goes on
        seconds = time.perf_counter() - t0
        tally.record(job.id, [traceback.format_exc()])
        return seconds, factor, None
    seconds = time.perf_counter() - t0
    try:
        problems = workloads.check(job, out)
    except Exception:
        problems = [traceback.format_exc()]
    if job.command == "corr":
        # engines run on the same family within a pass must agree exactly
        key = (job.n, job.k, job.kind)
        seen = hists.setdefault(key, out.report.histogram)
        if seen != out.report.histogram:
            problems.append(f"histogram differs from another engine on {key}")
    tally.record(job.id, problems)
    return seconds, factor, out


def run_pass(jobs, rec, tally: Tally, speed: HostSpeed):
    """One pass over the job list; returns (wall seconds, speed factor, first output)."""
    hists: dict = {}
    total = 0.0
    factors = []
    first = None
    for i, job in enumerate(jobs):
        seconds, factor, out = run_checked(job, rec, tally, hists, speed)
        total += seconds
        factors.append(factor)
        if i == 0:
            first = out
    factors.append(speed.factor())
    return total, statistics.median(factors), first


def setup(args):
    """Everything before the first timed job, after the imports."""
    import workloads

    jobs = workloads.job_list(args.workload, args.seed, args.small)
    warm = workloads.warmup_job(args.workload, args.seed)
    return jobs, warm


def probe_setup(args, speed: HostSpeed) -> float:
    """Wall seconds from starting a fresh process until it could start the first job.

    The host's speed is sampled right before, for `setup_s`'s scaling.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    speed.factor(SETUP_CALIBRATION_REPEATS)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return seconds


def import_gkasami() -> str | None:
    """Import gkasami from this checkout's src/; returns an error message or None."""
    try:
        import gkasami
        import workloads  # noqa: F401
    except ImportError as exc:
        return f"cannot import gkasami from {ROOT / 'src'}: {exc}"
    where = Path(gkasami.__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        return f"gkasami imported from {where}, not from {ROOT / 'src'}"
    return None


def write_spans(args, traced) -> None:
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "passes": [{"pass_s": wall, "speed_factor": factor,
                    "spans": [s.to_json_dict() for s in rec.spans]}
                   for wall, factor, rec in traced],
    }) + "\n")
    print(f"spans written to {path}", file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description="gkasami benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="n = 4/6 job lists, for a quick self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    error = import_gkasami()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    import workloads

    if args.setup_probe:
        _, warm = setup(args)
        workloads.run_job(warm, NullRecorder())
        print("ready", flush=True)
        return 0

    setup_speed = HostSpeed(*DEFAULT_CALIBRATION)
    probes = [probe_setup(args, setup_speed)]
    jobs, warm = setup(args)
    tally = Tally()
    speed = HostSpeed(*CALIBRATIONS.get(args.workload, DEFAULT_CALIBRATION))
    run_checked(warm, NullRecorder(), tally, {}, speed)

    plain: list[tuple[float, float]] = []  # (wall seconds, speed factor)
    traced: list[tuple[float, float, Recorder]] = []
    first = None
    start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        modes = [False, True] if args.trace else [False]
        if len(plain) % 2:
            modes.reverse()
        for with_spans in modes:
            rec = Recorder() if with_spans else NullRecorder()
            pass_no = len(traced) if with_spans else len(plain)
            pass_jobs = workloads.job_list(args.workload, args.seed, args.small, pass_no)
            wall, factor, out = run_pass(pass_jobs, rec, tally, speed)
            if with_spans:
                traced.append((wall, factor, rec))
            else:
                plain.append((wall, factor))
                if pass_no == 0:
                    first = out
        now = time.perf_counter()
        if now - start + (now - t_iter) > args.seconds:
            break
        if len(probes) < SETUP_PROBES * (now - start) / args.seconds:
            probes.append(probe_setup(args, setup_speed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probes += [probe_setup(args, setup_speed) for _ in range(SETUP_PROBES - len(probes))]
    setup_s = statistics.median(probes) * setup_speed.run_factor()

    parity = ["first job raised"] if first is None else workloads.cli_parity(jobs[0], first)
    tally.record(f"cli parity of {jobs[0].id}", parity)

    pass_s = statistics.median(wall * factor for wall, factor in plain)
    if args.trace:
        catalogue = per_layer_catalogue(args.small)
        units = {name: unit for name, unit, _ in catalogue}
        per_pass = [scaled({**dict.fromkeys(units, 0.0), **layer_metrics(rec, wall)},
                           units, factor)
                    for wall, factor, rec in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in units}
        values["trace.overhead_ratio"] = (
            statistics.median(wall * factor for wall, factor, _ in traced) / pass_s)
        write_spans(args, traced)
    else:
        units = dict(END_TO_END)
        values = {"pass_s": pass_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    passes = len(traced) if args.trace else len(plain)
    print(f"# {args.workload}, seed {args.seed}: {passes} timed pass(es) of {len(jobs)} "
          "jobs; pass times in reference seconds")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    print(f"pass_wall_s = {statistics.median(w for w, _ in plain):.6g} s "
          "(untraced, wall seconds, unscaled)")
    print(f"setup_wall_s = {statistics.median(probes):.6g} s (wall seconds, unscaled)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
