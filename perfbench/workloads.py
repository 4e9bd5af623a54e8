"""The benchmark's workloads: seeded job lists, the jobs, and the output gate.

Each job is one `gkasami` CLI command.  It calls the library's public
functions in the order the command's handler in `gkasami.cli` does and
builds the same stdout text, with a span around every public call it
makes.  The gate checks each job's output against references that do not
come from the code being timed: closed forms from `theory`, the slow
trace-formula path `families.sequence_term`, and identities every Walsh
spectrum of a quadratic form must satisfy.

Why these workloads (sizes in SIZES; `small=True` shrinks every n to 4 or 6):

* corr-spectral -- `corr` with the spectral engine on fk n=8, small-kasami
  n=8 and fk n=6.  The full E x F spectra grid dominates, and the small
  Kasami job builds all of it to read one plane.
* crosscheck -- the independent oracles: the brute engine on fk n=6 with
  one and two workers, the spectral engine on the same family, then
  `verify` at n=8.  The spectral share is negligible, so this one bypasses
  the spectra grid.
* family-export -- `family gen` on fk n=8 in every format: the only
  workload that writes sequences; the per-bit `bits` formatter dominates.
* large-field -- `field info` at n=16, 18 and 20, where the `gf2n` table
  build dominates, plus Walsh spectra and ranks of seeded forms there.

corr-spectral and family-export run at n=8 rather than n=10: at n=10 one
spectral job takes 7 s and 1.2 GB, and one `bits` export 18 s (2-vCPU Xeon
VM), so a run would hold a single pass; at n=8 it holds dozens, whose
median is steady.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from gkasami import cli
from gkasami import correlation as corr
from gkasami import families as fam
from gkasami import quadform, theory, verify
from gkasami.gf2n import make_field

# sample sizes of the family-export gate, per job
SAMPLED_LINES = 8
SAMPLED_TS = 8
# seeded quadratic forms per field in large-field
FORMS_PER_FIELD = 3


@dataclass(frozen=True)
class Job:
    command: str  # "corr", "verify", "gen" or "field"
    n: int
    k: int | None = None
    kind: str = "fk"
    engine: str = "spectral"
    jobs: int = 1
    fmt: str = "bits"
    lines: tuple[int, ...] = ()  # gen: line indices the gate samples
    ts: tuple[int, ...] = ()  # gen: sequence positions the gate samples
    forms: tuple[tuple[int, int, int], ...] = ()  # field: (k, b, log_beta(c) or -1)

    @property
    def id(self) -> str:
        if self.command == "corr":
            base = f"corr.{self.kind}-n{self.n}"
            return base if self.engine == "spectral" else f"{base}.brute-j{self.jobs}"
        if self.command == "verify":
            return f"verify.n{self.n}"
        if self.command == "gen":
            return f"gen.{self.kind}-n{self.n}.{self.fmt}"
        return f"field.n{self.n}"

    def argv(self) -> list[str]:
        """The CLI command this job reproduces."""
        n = ["--n", str(self.n)]
        if self.command == "field":
            return ["field", "info", *n]
        k = ["--k", str(self.k)]
        if self.command == "verify":
            return ["verify", *n, *k, "--jobs", str(self.jobs)]
        if self.command == "gen":
            return ["family", "gen", *n, *k, "--kind", self.kind, "--format", self.fmt]
        return ["corr", *n, *k, "--kind", self.kind, "--engine", self.engine,
                "--jobs", str(self.jobs)]


# -- job lists --------------------------------------------------------------


def admissible_k(n: int) -> list[int]:
    return [k for k in range(1, n) if quadform.valid_k(n, k)]


class _Draw:
    """Seeded choices for one pass.

    The cost of a job depends on k (at n = 8 one k runs the spectral engine
    about 17% faster than the others), so k cycles through a seeded order of
    the admissible values from pass to pass and a run of many passes weighs
    every k alike.  Every other choice is the same in every pass.
    """

    def __init__(self, key: str, pass_no: int):
        self.rng = random.Random(key)
        self.pass_no = pass_no

    def k(self, n: int) -> int:
        ks = admissible_k(n)
        self.rng.shuffle(ks)
        return ks[self.pass_no % len(ks)]


def _corr(draw: _Draw, kind: str, n: int, engine: str = "spectral") -> Job:
    return Job("corr", n, draw.k(n), kind=kind, engine=engine)


def _gen_jobs(draw: _Draw, n: int) -> list[Job]:
    k = draw.k(n)
    size = theory.family_size(n)
    period = (1 << n) - 1
    out = []
    for fmt in fam.FORMATS:
        lines = {0, size - 1, *draw.rng.sample(range(size), SAMPLED_LINES - 2)}
        ts = draw.rng.sample(range(period), min(SAMPLED_TS, period))
        out.append(Job("gen", n, k, fmt=fmt, lines=tuple(sorted(lines)), ts=tuple(ts)))
    return out


def _field(draw: _Draw, n: int) -> Job:
    forms = []
    for _ in range(FORMS_PER_FIELD):
        k = draw.k(n)
        b = draw.rng.randrange(1, 1 << n)  # b != 0 keeps the form nonzero
        c_log = draw.rng.randrange(-1, (1 << (n // 2)) - 1)  # -1 means c = 0
        forms.append((k, b, c_log))
    return Job("field", n, forms=tuple(forms))


# the n of every job, per workload; `small` is the quick self-test's table
SIZES = {
    False: {"corr-spectral": (8, 8, 6), "crosscheck": (6, 8), "family-export": (8,),
            "large-field": (16, 18, 20)},
    True: {"corr-spectral": (6, 6, 4), "crosscheck": (4, 4), "family-export": (6,),
           "large-field": (4, 6)},
}


def job_list(workload: str, seed: int, small: bool = False, pass_no: int = 0) -> list[Job]:
    """The jobs of one pass; the seed picks k, the gate's samples and the forms."""
    draw = _Draw(f"{workload}/{seed}", pass_no)
    sizes = SIZES[small][workload]
    if workload == "corr-spectral":
        return [_corr(draw, kind, n) for kind, n in zip(("fk", "small-kasami", "fk"), sizes)]
    if workload == "crosscheck":
        n, nv = sizes
        k = draw.k(n)
        return [
            Job("corr", n, k, engine="brute", jobs=1),
            Job("corr", n, k, engine="brute", jobs=2),
            Job("corr", n, k),
            Job("verify", nv, draw.k(nv)),
        ]
    if workload == "family-export":
        return _gen_jobs(draw, sizes[0])
    return [_field(draw, n) for n in sizes]


def warmup_job(workload: str, seed: int) -> Job:
    """An untimed job of the same command as the workload's first, at n = 4."""
    draw = _Draw(f"{workload}/{seed}/warmup", 0)
    if workload == "family-export":
        return _gen_jobs(draw, 4)[0]
    if workload == "large-field":
        return _field(draw, 4)
    return _corr(draw, "fk", 4, "brute" if workload == "crosscheck" else "spectral")


# -- running a job ----------------------------------------------------------


class DigestSink:
    """A text stream that keeps a digest, a byte count and the sampled lines."""

    def __init__(self, wanted=()):
        self._hash = hashlib.sha256()
        self._wanted = frozenset(wanted)
        self._partial: list[str] = []
        self.bytes = 0
        self.lines = 0
        self.samples: dict[int, str] = {}

    def write(self, text: str) -> int:
        written = len(text)
        self._hash.update(text.encode("ascii"))
        self.bytes += written
        while text:
            nl = text.find("\n")
            if nl < 0:
                if self.lines in self._wanted:
                    self._partial.append(text)
                break
            if self.lines in self._wanted:
                self.samples[self.lines] = "".join(self._partial) + text[:nl]
                self._partial = []
            self.lines += 1
            text = text[nl + 1:]
        return written

    def digest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class Output:
    """What a job produced: the stdout text (or its sink) plus the objects the gate reads."""

    text: str | None = None
    sink: DigestSink | None = None
    report: object = None
    forms: list | None = None  # field: (spectrum, rank) per form


def _emit(obj: dict, rec) -> str:
    with rec.span("cli.emit") as counts:
        text = json.dumps(obj, indent=2) + "\n"
        counts["bytes"] = len(text)
    return text


def _make_field(n: int, rec):
    with rec.span("gf2n.make_field", elements=1 << n):
        return make_field(n)


def _build_family(ctx, job: Job, rec):
    params = fam.family_params(ctx, job.kind, job.k)
    with rec.span("families.build_family") as counts:
        family = fam.build_family(params)
        counts["sequences"] = family.size
    return family


def _run_corr(job: Job, rec) -> Output:
    ctx = _make_field(job.n, rec)
    family = _build_family(ctx, job, rec)
    triples = family.size**2 * family.period
    if job.engine == "brute":
        suffix = f".jobs{job.jobs}" if job.jobs > 1 else ""
        with rec.span("correlation.full_distribution_brute" + suffix, triples=triples):
            report = corr.full_distribution_brute(family, jobs=job.jobs)
    else:
        with rec.span("correlation.full_distribution_spectral", triples=triples):
            report = corr.full_distribution_spectral(family)
    with rec.span("correlation.predicted_histogram"):
        predicted = corr.predicted_histogram(family)
    return Output(_emit(report.to_json_dict(predicted), rec), report=report)


def _run_verify(job: Job, rec) -> Output:
    ctx = _make_field(job.n, rec)
    with rec.span("verify.claims_report") as counts:
        report = verify.claims_report(ctx, job.k, jobs=job.jobs)
        counts["claims"] = len(report["claims"])
        counts["claims_failed"] = sum(not c["match"] for c in report["claims"])
    return Output(_emit(report, rec), report=report)


def _run_gen(job: Job, rec) -> Output:
    ctx = _make_field(job.n, rec)
    family = _build_family(ctx, job, rec)
    sink = DigestSink(job.lines)
    with rec.span("families.write_family") as counts:
        fam.write_family(family, job.fmt, sink)
        counts["bytes"] = sink.bytes
    return Output(sink=sink)


def _run_field(job: Job, rec) -> Output:
    ctx = _make_field(job.n, rec)
    info = {
        "n": ctx.n,
        "poly": ctx.poly_hex,
        "order": ctx.order,
        "group_order": ctx.group_order,
        "alpha": ctx.element_label(ctx.alpha),
        "beta": {"label": ctx.element_label(ctx.beta), "value": ctx.beta},
        "subfield_order": 1 << ctx.half,
        "valid_k": [k for k in range(1, ctx.n) if quadform.valid_k(ctx.n, k)],
    }
    text = _emit(info, rec)
    forms = []
    for k, b, c_log in job.forms:
        c = 0 if c_log < 0 else ctx.pow(ctx.beta, c_log)
        params = quadform.QuadFormParams(ctx, k, b, c)
        with rec.span("quadform.walsh_spectrum"):
            spectrum = quadform.walsh_spectrum(params)
        with rec.span("quadform.symplectic_rank"):
            rank = quadform.symplectic_rank(params)
        forms.append((spectrum, rank))
    return Output(text, forms=forms)


_RUNNERS = {"corr": _run_corr, "verify": _run_verify, "gen": _run_gen, "field": _run_field}


def run_job(job: Job, rec) -> Output:
    with rec.span("job." + job.id, job=job.id):
        return _RUNNERS[job.command](job, rec)


# -- the output gate ---------------------------------------------------------


def _check_corr(job: Job, out: Output) -> list[str]:
    n = job.n
    if job.kind == "small-kasami":
        want, want_r = theory.small_kasami_correlation(n), theory.small_set_r_max_expected(n)
    else:
        want, want_r = theory.family_correlation_histogram(n), theory.r_max_expected(n)
    problems = []
    if out.report.histogram != want:
        problems.append("histogram differs from the closed form")
    if out.report.r_max != want_r:
        problems.append(f"r_max {out.report.r_max} != {want_r}")
    if json.loads(out.text)["match"] is not True:
        problems.append("report says match != true")
    return problems


def _check_verify(job: Job, out: Output) -> list[str]:
    report = out.report
    failed = [c["name"] for c in report["claims"] if not c["match"]]
    problems = [f"claim {name} failed" for name in failed]
    if not report["claims"]:
        problems.append("no claims ran")
    if report["pass"] is not True:
        problems.append("verify did not pass")
    return problems


def expected_tag(ctx, i: int) -> fam.SequenceTag:
    """The tag of family line i, from the documented member order."""
    sub = [int(c) for c in ctx.subfield_elements]
    part1 = ctx.order * len(sub)
    if i < part1:
        return fam.SequenceTag.gamma_delta(i // len(sub), sub[i % len(sub)])
    gset, dset = fam.gamma_delta_sets(ctx)
    j = i - part1
    return fam.SequenceTag.zeta_eta(gset[j // len(dset)], dset[j % len(dset)])


def _line_bits(job: Job, line: str, period: int):
    """The sequence in one exported line as an int (LSB = t = 0), or None if malformed."""
    if job.fmt == "json":
        line = json.loads(line)["hex"]
    if job.fmt == "bits":
        if len(line) != period or set(line) - {"0", "1"}:
            return None
        return int(line[::-1], 2)
    if len(line) != 2 * ((period + 7) // 8):
        return None
    return int.from_bytes(bytes.fromhex(line), "little")


def _check_gen(job: Job, out: Output) -> list[str]:
    sink = out.sink
    size = theory.family_size(job.n)
    problems = []
    if sink.lines != size:
        problems.append(f"{sink.lines} lines, family size is {size}")
    if set(sink.samples) != set(job.lines):
        problems.append("sampled lines missing")
    ctx = make_field(job.n)
    params = fam.family_params(ctx, job.kind, job.k)
    for i, line in sorted(sink.samples.items()):
        tag = expected_tag(ctx, i)
        if job.fmt == "json" and json.loads(line)["tag"] != tag.to_json_dict(ctx):
            problems.append(f"line {i}: tag differs")
        bits = _line_bits(job, line, ctx.group_order)
        if bits is None:
            problems.append(f"line {i}: malformed")
            continue
        for t in job.ts:
            if (bits >> t) & 1 != fam.sequence_term(params, tag, t):
                problems.append(f"line {i}, t = {t}: bit differs from sequence_term")
    return problems


def _check_field(job: Job, out: Output) -> list[str]:
    n = job.n
    info = json.loads(out.text)
    want = {
        "n": n,
        "order": 1 << n,
        "group_order": (1 << n) - 1,
        "subfield_order": 1 << (n // 2),
        "valid_k": [k for k in range(1, n) if math.gcd(n // 2 - k, n) == 1],
    }
    problems = [f"field info {key} differs" for key, v in want.items() if info[key] != v]
    for (k, b, c_log), (w, rank) in zip(job.forms, out.forms):
        name = f"form (k={k}, b={b}, c_log={c_log})"
        w = np.asarray(w, dtype=np.int64)
        if len(w) != 1 << n or int((w * w).sum()) != 1 << (2 * n):
            problems.append(f"{name}: Parseval fails")
            continue
        if rank % 2 or not 2 <= rank <= n:
            problems.append(f"{name}: rank {rank} impossible")
            continue
        # a rank-r form with f(0) = 0 has 2^r nonzero values, all of size
        # 2^(n - r/2), and sum_lambda W(lambda) = 2^n fixes their signs
        nonzero = w[w != 0]
        pos = int((nonzero > 0).sum())
        if (len(nonzero) != 1 << rank
                or not np.all(np.abs(nonzero) == 1 << (n - rank // 2))
                or pos != (1 << (rank - 1)) + (1 << (rank // 2 - 1))):
            problems.append(f"{name}: spectrum values do not fit rank {rank}")
    if len(out.forms) != len(job.forms):
        problems.append("forms missing")
    return problems


_CHECKS = {"corr": _check_corr, "verify": _check_verify, "gen": _check_gen, "field": _check_field}


def check(job: Job, out: Output) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    return _CHECKS[job.command](job, out)


def cli_parity(job: Job, out: Output) -> list[str]:
    """Run the job's command through `gkasami.cli.main` and compare stdout."""
    captured = DigestSink() if job.command == "gen" else io.StringIO()
    with redirect_stdout(captured), redirect_stderr(io.StringIO()):
        code = cli.main(job.argv())
    problems = [] if code == 0 else [f"cli exited {code}"]
    if job.command == "gen":
        same = (captured.digest(), captured.bytes) == (out.sink.digest(), out.sink.bytes)
    else:
        same = captured.getvalue() == out.text
    if not same:
        problems.append("cli stdout differs from the benchmark's output")
    return problems
