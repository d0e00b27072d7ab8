"""braceflow benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload extract|certify|structure \\
        --seed N --seconds S --trace 0|1

Each workload is a fixed ladder of CLI jobs, run as a closed loop: one
client, one process, no threads, each job started when the previous one
has returned.  A job is ``braceflow.cli.main(argv)`` called in-process on
files the set-up wrote; functools caches are cleared before each job, as
a fresh CLI process would start without them.  Exit code, stdout and
output file of every job are checked outside the timed region.

Times are scaled to a reference host speed.  A fixed piece of
exact-arithmetic work (``calibrate``) is timed between jobs, outside the
timed region, and each job's wall time is multiplied by
REFERENCE_CAL_S / (the mean of the calibrations before and after it).
On a shared host the speed drifts by up to 2x within a minute; raw wall
times of the same job spread by 25-30% from run to run, scaled ones by
a few percent.  A sample whose two calibrations differ by more than
STEADY_RATIO saw the speed change during the job; the medians leave it
out unless every sample of that entry is like it.  The raw wall times
are in the report line too.

``--trace 0`` runs whole ladder passes until ``--seconds`` is used up
and reports the end-to-end metrics.  ``--trace 1`` runs three passes,
untraced, counting and traced (see tracing.py), and reports the per-layer
metrics plus the tracing overhead.  The second-to-last stdout line is a
JSON report with units, sample counts and context; the last is the
result line.  The exit code is 1 when any job failed its check.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from fractions import Fraction
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
SETUP_REPEATS = 5
# what ``calibrate`` takes at the reference speed
REFERENCE_CAL_S = 0.010
STEADY_RATIO = 1.25

# per-layer metrics: traced name -> the kinds reported for it
PER_LAYER = {
    "flows.to_brace": ("self_s",),
    "flows.star": ("calls", "self_s"),
    "flows.omega": ("self_s",),
    "flows.w_map": ("calls", "self_s", "repeat_frac"),
    "flows.exp_L": ("self_s",),
    "linalg.polynomial_curve_coefficients": ("calls", "self_s"),
    "linalg.span": ("calls", "self_s"),
    "prelie.PreLieAlgebra.multiply": ("calls", "self_s"),
    "prelie.check_prelie_identity": ("self_s",),
    "prelie.nilpotency_index": ("self_s",),
    "brace.GradedBrace.star": ("calls", "self_s", "repeat_frac"),
    "brace.SymmetricMap.apply": ("calls", "self_s"),
    "brace.SymmetricMap.apply_diagonal": ("calls",),
    "brace.check_left_brace": ("self_s",),
    "brace.check_group": ("self_s",),
    "brace.radical_chains": ("self_s",),
    "limits.dot": ("calls", "self_s"),
    "limits.to_prelie": ("self_s",),
    "fileio.loads": ("calls", "self_s"),
    "fileio.dumps": ("self_s",),
    "bch.verify_flows_bch": ("self_s",),
    "free_expansion.doubling_matrix": ("self_s",),
    "cli.main": ("self_s",),
}
KIND_UNITS = {"calls": "count", "self_s": "s", "repeat_frac": "fraction"}


def src_loc():
    """Non-blank, non-comment lines of src/braceflow/*.py."""
    total = 0
    for path in sorted((SRC / "braceflow").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def cache_clearers():
    return [obj.cache_clear for name, mod in list(sys.modules.items())
            if name.split(".")[0] == "braceflow"
            for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


def calibrate():
    """Wall time of fixed work like the program's own (Fraction sums,
    tuple keys, dict stores), which tracks the host's current speed."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 2500):
        acc += Fraction(1, i % 97 + 1)
        table[(i, i % 7)] = acc
    return time.perf_counter() - t0


def scaled(seconds, cal_before, cal_after):
    """(wall s, scaled s, whether the host speed held during the job)."""
    steady = max(cal_before, cal_after) <= STEADY_RATIO * min(cal_before, cal_after)
    return seconds, seconds * REFERENCE_CAL_S * 2 / (cal_before + cal_after), steady


def steady_median(samples, col):
    """Median of column ``col`` over the steady samples (all of them if
    none is steady), with the number of samples it used."""
    values = [s[col] for s in samples if s[2]] or [s[col] for s in samples]
    return statistics.median(values), len(values)


class Runner:
    """Runs jobs in a closed loop and checks each one after it returns."""

    def __init__(self, cli, clearers):
        self.cli = cli
        self.clearers = clearers
        self.attempted = 0
        self.failures = []
        calibrate()  # warm-up
        self.last_cal = calibrate()

    def run(self, job):
        """Run one job; return (wall s, scaled s, steady), see ``scaled``."""
        if job.out is not None and job.out.exists():
            job.out.unlink()
        for clear in self.clearers:
            clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(job.argv)
        except Exception as exc:  # a job that raises is a failed job
            code, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if error is None:
            error = self._verdict(job, code, stdout.getvalue())
        if error is not None:
            self.failures.append(f"{job.name}: {error}")
        cal_before, self.last_cal = self.last_cal, calibrate()
        return scaled(elapsed, cal_before, self.last_cal)

    @staticmethod
    def _verdict(job, code, out):
        if code != job.code:
            return f"exit code {code}, expected {job.code}"
        if out != job.stdout:
            return f"stdout {out!r}, expected {job.stdout!r}"
        if job.check is not None:
            try:
                return job.check(job.out.read_text(encoding="ascii"))
            except Exception as exc:  # a malformed output file fails the job
                return f"output check raised {exc!r}"
        return None

    def ladder(self, jobs, on_job=None):
        """One pass over the ladder: list of (job, wall s, scaled s, steady)."""
        times = []
        for index, job in enumerate(jobs):
            if on_job is not None:
                on_job(index)
            times.append((job, *self.run(job)))
        return times


def timed(runner, jobs, heavy, seconds):
    """Whole ladder passes; another pass starts while at least half of it
    would still fit into ``seconds``.  Metrics map to (value, unit,
    sample count)."""
    passes = []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(runner.ladder(jobs))
        now = time.perf_counter()
        if now - t0 + (now - t_pass) / 2 >= seconds:
            break
    by_entry = {}
    for done in passes:
        for job, *sample in done:
            by_entry.setdefault(job.name, []).append(sample)
    metrics = {}
    for suffix, col in (("", 1), ("_wall", 0)):
        # each ladder entry's median time: a pass takes their sum, and the
        # median job is the median entry, whichever samples were left out
        medians = [steady_median(samples, col) for samples in by_entry.values()]
        times = [m for m, _ in medians]
        used = sum(n for _, n in medians)
        heavy_s, heavy_n = steady_median(by_entry[heavy], col)
        metrics.update({
            "jobs_per_s" + suffix: (len(jobs) / sum(times), "1/s", used),
            "job_p50_ms" + suffix: (statistics.median(times) * 1000, "ms", used),
            "heavy_job_s" + suffix: (heavy_s, "s", heavy_n),
        })
    return metrics


def traced(runner, jobs, trace_path):
    def jobs_per_s(samples):
        return len(samples) / sum(s[2] for s in samples)

    untraced = jobs_per_s(runner.ladder(jobs))
    with tracing.CallCounter() as counter:
        runner.ladder(jobs)
    with tracing.SpanTracer() as tracer:
        samples = runner.ladder(jobs, tracer.begin_job)
    tracer.write(trace_path)
    per_name, per_layer = tracer.summary()
    # span times are wall times: scale them by the pass's mean speed
    scale = sum(s[2] for s in samples) / sum(s[1] for s in samples)
    n = len(jobs)
    metrics = {}
    for name, kinds in PER_LAYER.items():
        calls, self_s = per_name[name]
        values = {"calls": calls, "self_s": self_s * scale}
        if "repeat_frac" in kinds:
            total, repeats = tracer.repeats[name]
            values["repeat_frac"] = repeats / total if total else 0.0
        for kind in kinds:
            metrics[f"{name}.{kind}"] = (values[kind], KIND_UNITS[kind], n)
    for metric, count in counter.counts.items():
        metrics[f"{metric}.calls"] = (count, "count", n)
    for layer, self_s in per_layer.items():
        metrics[f"layer.{layer}.self_s"] = (self_s * scale, "s", n)
    traced_rate = jobs_per_s(samples)
    metrics["trace.job_s"] = (sum(s[2] for s in samples), "s", n)
    metrics["trace.jobs_per_s"] = (traced_rate, "1/s", n)
    metrics["trace.untraced_jobs_per_s"] = (untraced, "1/s", n)
    metrics["trace.overhead_x"] = (untraced / traced_rate, "ratio", n)
    return metrics


def setup(workload, workdir, seed):
    """Import the package afresh and write, load and check the workload's
    inputs; return ((wall s, scaled s, steady), cli module, jobs, heavy
    job name)."""
    for name in [m for m in sys.modules
                 if m.split(".")[0] in ("braceflow", "generators", "workloads")]:
        del sys.modules[name]
    shutil.rmtree(workdir, ignore_errors=True)
    cal_before = calibrate()
    t0 = time.perf_counter()
    cli = importlib.import_module("braceflow.cli")
    workloads = importlib.import_module("workloads")
    jobs, heavy = workloads.build(workload, workdir, seed, workloads.load_expected())
    wall = time.perf_counter() - t0
    return scaled(wall, cal_before, calibrate()), cli, jobs, heavy


def main(argv=None):
    parser = argparse.ArgumentParser(description="braceflow benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("extract", "certify", "structure"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braceflow" / "__init__.py").is_file():
        print(f"error: no braceflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORKDIR / f"{args.workload}-{args.seed}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        sample, cli, jobs, heavy = setup(args.workload, workdir, args.seed)
        setup_times.append(sample)

    runner = Runner(cli, cache_clearers())
    if args.trace:
        trace_path = WORKDIR / f"trace-{args.workload}-{args.seed}.tsv.gz"
        metrics = traced(runner, jobs, trace_path)
    else:
        metrics = timed(runner, jobs, heavy, args.seconds)
        for suffix, col in (("", 1), ("_wall", 0)):
            value, n = steady_median(setup_times, col)
            metrics["setup_s" + suffix] = (value, "s", n)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB", 1)
    shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "context": {"seed": args.seed, "src_loc": src_loc(),
                    "python": platform.python_version(), "nproc": os.cpu_count(),
                    "ladder_jobs": len(jobs), "heavy_job": heavy},
        "metrics": {name: {"value": value, "unit": unit, "samples": samples}
                    for name, (value, unit, samples) in sorted(metrics.items())},
    }
    # failed_frac and the raw wall times are reported, but not in the
    # result line: a metric that is 0 when all is well has no relative bound
    report["metrics"]["failed_frac"] = {"value": failed / runner.attempted,
                                        "unit": "fraction", "samples": runner.attempted}
    print("report: " + json.dumps(report))
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in sorted(metrics.items())
                          if not name.endswith("_wall")}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
