"""coxcert benchmark: fixed lists of CLI jobs on seeded inputs.

Usage (from the repository root):

    python3 bench/run.py --workload spine|davis-random|farrell-torsion \
        [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the jobs run as child processes, one at a time from this
process (a closed loop with one client), in passes over the workload's job
list until S seconds have gone; each end-to-end metric is the median over
passes.  Times are scaled by a speed gauge read around every job (see
`gauge`), because the speed of a small shared machine drifts by tens of
percent within a minute.  With --trace 1 one untraced pass is followed by
passes replayed in-process through `coxcert.cli.main` with spans at the
module boundaries (see tracing.py), giving the per-layer metrics.  Every
job's output is checked; the last line printed is one JSON object with the
result.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
DEADLINE_S = 170  # a run must end within 180 s

# The gauge: a fixed pure-Python computation, timed in this process before
# and after every job and set-up.  A time t measured while the gauge read g
# is reported as t * GAUGE_NOMINAL_S / g, that is in seconds at the speed
# where the gauge reads GAUGE_NOMINAL_S (its median on the baseline
# machine).  A slower program still reads slower; a machine that is slower
# for a while reads the same.
GAUGE_ROUNDS = 1300
GAUGE_NOMINAL_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-command seconds: the commands that dominate some workload.  The other
# commands (spine, hyperbolic, a bare davis ball) count only in wall_s.
COMMAND_KINDS = ("certify", "davis_singular", "davis_sharp", "davis_dump", "farrell", "homology")

# Per-layer metrics each workload is predicted to leave at zero.
PREDICTED_ZEROS = {
    "spine": ("coxeter.min_coset_rep_calls",),
    "farrell-torsion": ("davis.", "coxeter."),
}


class Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no job handler swallows it."""


def gauge() -> float:
    """Seconds the gauge computation takes now.

    The computation enumerates the cliques of a fixed random graph and
    counts, for each, the ways to grow it by larger vertices one at a time:
    tuple, set and dict work like the program's.  It is kept apart from the
    rest of the benchmark so that no other edit rescales the times.
    """
    rng = random.Random(0)
    n = 12
    adj = {v: set() for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4:
                adj[u].add(v)
                adj[v].add(u)
    start = time.perf_counter()
    for _ in range(GAUGE_ROUNDS):
        cliques = []
        stack = [((v,), adj[v]) for v in range(n)]
        while stack:
            c, common = stack.pop()
            cliques.append(c)
            stack += [(c + (v,), common & adj[v]) for v in common if v > c[-1]]
        chains: dict[tuple, int] = {}
        for c in sorted(cliques, key=len, reverse=True):
            chains[c] = 1 + sum(chains[c + (v,)] for v in range(c[-1] + 1, n)
                                if c + (v,) in chains)
    return time.perf_counter() - start


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


@dataclass
class JobRun:
    job: workloads.Job
    rc: int
    wait_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    scale: float = 1.0  # GAUGE_NOMINAL_S over the gauge reading around the job


class Runner:
    """Starts `coxcert` child processes one at a time and reaps each with wait4."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.child: subprocess.Popen | None = None

    def run(self, argv: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
        with open(stdout_path, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            self.child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(self.child.pid, 0)
            wait_s = time.perf_counter() - start
        self.child.returncode = rc = os.waitstatus_to_exitcode(status)
        self.child = None
        # ru_maxrss is in KiB on Linux
        return rc, wait_s, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def cli(self, args: list[str]) -> int:
        return self.run([sys.executable, "-m", "coxcert.cli", *args], self.work / "setup.out")[0]

    def fillings(self, pairs) -> int:
        argv = [sys.executable, str(HERE / "make_fillings.py")]
        for i, (path, slopes) in enumerate(pairs):
            argv += (["--"] if i else []) + [str(path)] + [f"{p},{q}" for p, q in slopes]
        return self.run(argv, self.work / "setup.out")[0]

    def job(self, job: workloads.Job) -> JobRun:
        out = self.work / f"{job.id}.out"
        rc, wait_s, cpu_s, rss_mb = self.run([sys.executable, "-m", "coxcert.cli", *job.args], out)
        return JobRun(job, rc, wait_s, cpu_s, rss_mb, out.read_bytes())

    def close(self) -> None:
        if self.child is not None and self.child.poll() is None:
            self.child.kill()
            self.child.wait()
        self.child = None


# -- checks -----------------------------------------------------------------


def check_run(run: JobRun, digests: dict | None) -> tuple[list[str], str | None]:
    """Problems with one job's exit code, verdict and output, and its report digest."""
    if run.rc != 0:
        return [f"exit code {run.rc}"], None
    try:
        report = json.loads(run.stdout)
    except ValueError:
        return ["stdout is not a JSON report"], None
    digest = workloads.report_digest(report)
    try:
        problems = run.job.check(report)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        problems = [f"malformed output: {exc!r}"]
    if digests is not None:
        if digests.get(run.job.id) != digest:
            problems.append(f"report digest {digest[:12]} differs from the recorded one")
        if run.job.writes:
            written = workloads.file_digest(run.job.writes)
            if digests.get(f"{run.job.id}:{run.job.writes.name}") != written:
                problems.append(f"{run.job.writes.name} differs from the recorded digest")
    return problems, digest


def expected_for(workload: str, seed: int) -> tuple[dict | None, dict | None]:
    """Recorded report and input digests, which apply to the default seed only."""
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return None, None
    data = json.loads(EXPECTED.read_text())
    return data["reports"].get(workload), data["inputs"].get(workload)


def do_setup(workload: str, seed: int, runner: Runner, work: Path, repeats: int):
    """Run the workload's set-up `repeats` times; inputs must come out byte-identical.

    Returns the set-up, its median gauge-scaled time and any problems."""
    times, digests, setup = [], [], None
    before = gauge()
    for _ in range(repeats):
        start = time.perf_counter()
        setup = workloads.SETUPS[workload](work, seed, runner)
        seconds = time.perf_counter() - start
        after = gauge()
        times.append(seconds * GAUGE_NOMINAL_S * 2 / (before + after))
        before = after
        digests.append({name: workloads.file_digest(p) for name, p in setup.files.items()})
    problems = []
    if any(d != digests[0] for d in digests):
        problems.append("set-up gave different input bytes for the same seed")
    _, recorded = expected_for(workload, seed)
    if recorded is not None:
        for name, digest in digests[0].items():
            if recorded.get(name, {}).get("sha256") != digest:
                problems.append(f"input {name} differs from the recorded digest")
    return setup, statistics.median(times), problems


# -- untraced passes ---------------------------------------------------------------


def run_pass(runner: Runner, jobs: list[workloads.Job]) -> list[JobRun]:
    """One pass over the jobs, with the gauge read between them."""
    runs = []
    before = gauge()
    for job in jobs:
        run = runner.job(job)
        after = gauge()
        run.scale = GAUGE_NOMINAL_S * 2 / (before + after)
        before = after
        runs.append(run)
    return runs


def pass_figures(runs: list[JobRun], scaled: bool) -> dict[str, float]:
    """End-to-end and per-command figures of a pass, gauge-scaled or raw."""
    def f(run: JobRun) -> float:
        return run.scale if scaled else 1.0

    figures = {
        "wall_s": sum(r.wait_s * f(r) for r in runs),
        "cpu_s": sum(r.cpu_s * f(r) for r in runs),
        "slowest_job_s": max(r.wait_s * f(r) for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
    }
    for kind in COMMAND_KINDS:
        figures[f"cmd.{kind}_s"] = sum(r.wait_s * f(r) for r in runs if r.job.kind == kind)
    return figures


class Tally:
    """Job outcomes over a run: attempts, failures, digests, per-job waits."""

    def __init__(self, digests: dict | None):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seen: dict[str, str | None] = {}
        self.waits: dict[str, list[float]] = {}

    def add(self, run: JobRun) -> None:
        problems, digest = check_run(run, self.digests)
        self.attempted += 1
        self.seen[run.job.id] = digest
        self.waits.setdefault(run.job.id, []).append(run.wait_s)
        if problems:
            self.failed += 1
            self.problems += [f"{run.job.id}: {p}" for p in problems]

    def lines(self, stderr: Path) -> list[str]:
        out = [
            f"job {job:20s} median {statistics.median(w):8.3f} s  digest {self.seen[job]}"
            for job, w in self.waits.items()
        ]
        out.append(f"failed_jobs {self.failed}/{self.attempted}")
        out += [f"problem {p}" for p in self.problems[:20]]
        if self.failed and stderr.is_file():
            out += [f"stderr {line}" for line in stderr.read_text().splitlines()[-20:]]
        return out


def untraced(workload: str, seed: int, seconds: float, runner: Runner, work: Path) -> dict:
    setup, setup_s, setup_problems = do_setup(workload, seed, runner, work, SETUP_REPEATS)
    tally = Tally(expected_for(workload, seed)[0])
    passes, raw = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        runs = run_pass(runner, setup.jobs)
        for run in runs:
            tally.add(run)
        passes.append(pass_figures(runs, scaled=True))
        raw.append(pass_figures(runs, scaled=False)["wall_s"])
    medians = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    for line in tally.lines(work / "stderr.txt") + [f"problem set-up: {p}" for p in setup_problems]:
        print(line)
    print("pass wall_s scaled " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; raw " + " ".join(f"{w:.3f}" for w in raw))
    print(f"passes {len(passes)}; per-command seconds "
          + ", ".join(f"{k} {medians[k]:.3f}" for k in medians if k.startswith("cmd.")))
    metrics = {k: medians[k] for k in END_TO_END_UNITS if k != "setup_s"}
    metrics["setup_s"] = setup_s
    return {
        "correct": tally.failed == 0 and not setup_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


# -- traced passes ------------------------------------------------------------------


def import_seconds(runner: Runner) -> float:
    """`import coxcert.cli` in a fresh interpreter, less a bare interpreter start."""
    diffs = []
    for _ in range(IMPORT_REPEATS):
        bare = runner.run([sys.executable, "-c", "pass"], runner.work / "import.out")[1]
        full = runner.run([sys.executable, "-c", "import coxcert.cli"], runner.work / "import.out")[1]
        diffs.append(full - bare)
    return statistics.median(diffs)


def run_inprocess(tracer: tracing.Tracer, main, job: workloads.Job) -> JobRun:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = tracer.job_call(job.id, main, job.args)
        except Exception as exc:  # a crash is a failed job, reported with the others
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = 1
    return JobRun(job, rc, time.perf_counter() - start, 0.0, 0.0, buf.getvalue().encode())


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def traced(workload: str, seed: int, seconds: float, runner: Runner, work: Path) -> dict:
    start = time.perf_counter()
    setup, _, setup_problems = do_setup(workload, seed, runner, work, 1)
    tally = Tally(expected_for(workload, seed)[0])
    runs = run_pass(runner, setup.jobs)
    for run in runs:
        tally.add(run)
    plain = pass_figures(runs, scaled=False)
    import_s = import_seconds(runner)

    sys.path.insert(0, str(SRC))
    from coxcert import cli

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    layer_passes, records = [], []
    try:
        while not layer_passes or time.perf_counter() - start < seconds:
            tracer.reset()
            pass_start = time.perf_counter()
            runs = [run_inprocess(tracer, cli.main, job) for job in setup.jobs]
            pass_wall = time.perf_counter() - pass_start
            for run in runs:
                tally.add(run)
            figures = tracing.layer_metrics(tracer)
            figures["trace.wall_s"] = pass_wall
            layer_passes.append(figures)
            records.append(tracer.dump())
    finally:
        tracing.uninstall(saved)

    first = layer_passes[0]
    metrics = {
        k: statistics.median(p[k] for p in layer_passes) if _unit(k) == "s" else first[k]
        for k in first
    }
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_s"]
    metrics["cli.import_s"] = import_s
    for kind in COMMAND_KINDS:
        metrics[f"cmd.{kind}_s"] = plain[f"cmd.{kind}_s"]
    missed = [
        k for k in metrics
        if any(k.startswith(p) for p in PREDICTED_ZEROS.get(workload, ())) and metrics[k]
    ]
    metrics["trace.zero_predictions_missed"] = len(missed)

    spans_file = WORK / f"spans-{workload}-{seed}.json"
    spans_file.write_text(json.dumps({"workload": workload, "seed": seed, "passes": records}))
    for line in tally.lines(work / "stderr.txt") + [f"problem set-up: {p}" for p in setup_problems]:
        print(line)
    print(f"traced passes {len(layer_passes)}; spans written to {spans_file.relative_to(ROOT)}")
    for k in missed:
        print(f"predicted zero missed: {k} = {metrics[k]}")
    return {
        "correct": tally.failed == 0 and not setup_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coxcert" / "cli.py").is_file():
        print(f"no coxcert sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    # the gauge tracks the speed of the CPU it runs on, so this process and
    # every job (which inherits the mask) share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        # the "build": byte-compile the sources so no job pays for it
        compileall.compile_dir(str(SRC), quiet=1)
        run = traced if args.trace else untraced
        result = run(args.workload, args.seed, args.seconds, runner, work)
    except Deadline as exc:
        print(str(exc), file=sys.stderr)
        return 3
    finally:
        runner.close()
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
