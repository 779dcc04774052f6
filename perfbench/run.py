"""rainbownet benchmark: closed-loop CLI jobs on seeded workloads.

    python3 perfbench/run.py --workload route-search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

One client in one thread calls ``rainbownet.cli.main(argv)`` in-process and
starts the next job when the previous one returns. Jobs run in whole
passes over the workload's job list (see workloads.py) until ``--seconds``
have elapsed, so every run sees the same job mix. Every job is checked
(checks.py) and fingerprinted; a job fails when it breaks its expected
exit code, an invariant, its fingerprint from the first pass, or the
per-job time cap.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
an untraced run. Times are scaled by a speed probe taken before every job
(see PROBE_NOMINAL_S), because this class of shared host drifts in speed
by more than the metrics' bounds; the unscaled times are kept in the
results file. With ``--trace 1`` the run is split: an untraced half,
then a traced half (tracing.py) whose spans give the per-layer metrics,
reported per traced job; ``trace.overhead_ratio`` is the traced over the
untraced median job time. Results, fingerprints and spans are written
under ``.perfbench/results`` in the working directory; ``--compare``
reads two such directories, prints per-metric ratios per workload and
flags every fingerprint change.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported: the load is
# one closed-loop client and the host may have only two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rainbownet.cli import main as cli_main  # noqa: E402

STATE_DIR = ".perfbench"
JOB_CAP_S = 30.0
SETUP_ROUNDS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Speed probe: a fixed pure-Python loop timed before every job and setup
# round. The host's speed drifts by 10-30% within seconds (the probe and the
# jobs slow down together), so each reported time is scaled to a host on
# which the probe takes PROBE_NOMINAL_S: time * PROBE_NOMINAL_S / median of
# the PROBE_WINDOW probes around it. Raw times stay in the results file.
PROBE_ITERATIONS = 40_000
PROBE_NOMINAL_S = 0.005
PROBE_WINDOW = 5
# Runs a setup round's warm-up job in a fresh interpreter: import plus first job.
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from rainbownet.cli import main; sys.exit(main(sys.argv[2:]))"


class JobTimeout(BaseException):
    """Raised by the per-job alarm. A BaseException, so cli.main's
    ``except Exception`` cannot turn it into exit code 3."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_cli(argv, tracer=None, job_id=0):
    """Run one job in-process under the time cap: (exit code, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.run_job(job_id, cli_main, argv) if tracer else cli_main(argv)
    except JobTimeout:
        code = None
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, elapsed, out.getvalue()


def probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop right now."""
    start = time.perf_counter()
    x = 0
    table = {}
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFF
        table[x & 255] = i
    return time.perf_counter() - start


def scaled(times, probes) -> list[float]:
    """Each time scaled by the median probe of the window centred on it."""
    half = PROBE_WINDOW // 2
    return [
        t * PROBE_NOMINAL_S / statistics.median(probes[max(0, i - half): i + half + 1])
        for i, t in enumerate(times)
    ]


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(times) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_MIN_BEYOND jobs beyond it.

    Returns (percentile, value, jobs beyond). With fewer jobs than that
    allows, it is the slowest job (percentile 100, none beyond).
    """
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        beyond = len(ordered) - max(1, math.ceil(p / 100.0 * len(ordered)))
        if beyond >= TAIL_MIN_BEYOND:
            return p, percentile(ordered, p), beyond
    return 100.0, ordered[-1], 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checkout's commit from .git, or 'unknown' outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "blas_threads": BLAS_THREADS,
        "job_cap_s": JOB_CAP_S,
    }


class Runner:
    """Runs, checks and fingerprints the jobs of one workload."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.exact = checks.load_exact_objectives()
        self.profile = checks.pet_profile()
        self.records: dict[str, dict] = {}
        self.outcomes: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.probes: list[float] = []

    def run_one(self, job, tracer=None, job_id=0) -> float:
        self.probes.append(probe())
        code, elapsed, stdout = run_cli(job.argv, tracer, job_id)
        self.attempted += 1
        if code is None:
            outcome = checks.Outcome(False, f"over the {JOB_CAP_S:g} s cap")
            prints = None
        else:
            outcome = checks.check(job, code, stdout, self.exact, self.profile)
            prints = checks.fingerprint(stdout, job.outputs) if outcome.ok else None
        record = self.records.get(job.key)
        if record is None:
            record = self.records[job.key] = {
                "argv": job.argv, "exit": code, "fingerprint": prints, "times": [], "failures": [],
            }
            self.outcomes[job.key] = outcome
        elif outcome.ok and prints != record["fingerprint"]:
            outcome = checks.Outcome(False, "output differs from this job's first run")
        record["times"].append(elapsed)
        if not outcome.ok:
            self.failed += 1
            record["failures"].append(outcome.reason)
            print(f"FAILED {job.key}: {outcome.reason}", file=sys.stderr)
        return elapsed

    def passes(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Run whole passes until `seconds` have elapsed; return the job
        times and the speed probes taken before them.

        A hard limit stops mid-pass when jobs hit the cap, so a run always
        ends within 2 * seconds + JOB_CAP_S + 10 s.
        """
        times = []
        first_probe = len(self.probes)
        start = time.perf_counter()
        hard_limit = 2 * seconds + 10
        while time.perf_counter() - start < seconds:
            for job in self.jobs:
                if time.perf_counter() - start > hard_limit:
                    return times, self.probes[first_probe:]
                times.append(self.run_one(job, tracer, len(times)))
        return times, self.probes[first_probe:]


def setup_round(workload: str, seed: int, workdir: str, probes: list) -> float:
    """Generate and write the inputs, then import and run the warm-up job in
    a fresh interpreter; return the wall time of both."""
    probes.append(probe())
    start = time.perf_counter()
    os.makedirs(workdir)
    workloads.build(workload, seed, workdir)
    warm = workloads.warmup_job(workload, workdir)
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, SRC, *warm.argv],
        cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=JOB_CAP_S,
    )
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        raise RuntimeError(f"warm-up job failed: {completed.stderr.decode(errors='replace')}")
    return elapsed


def layer_metrics(summary: dict, jobs: int) -> dict:
    """The per-layer metrics, per traced job, from a trace summary."""
    by_name = summary["by_name"]
    wall = sum(summary["job_wall"].values())
    metrics = {}

    def get(name, key):
        return by_name.get(name, {}).get(key, 0.0)

    for name in (
        "cli.main", "progressive.encode", "progressive.decode", "search.exact_search",
        "search.greedy_search", "search.alternating_search", "network.enumerate_paths",
        "network.max_flow", "network.load_scenario", "flows.rainbow_flow_vector", "flows.refine",
        "distortion.optimize_pet_profile", "distortion.sweeps", "pet.encode", "pet.decode",
        "pet.description_io", "gf256.encode_block", "gf256.recover_block",
    ):
        metrics[f"{name}.calls"] = (get(name, "calls") / jobs, "count")
        metrics[f"{name}.s"] = (get(name, "s") / jobs, "s")
        metrics[f"{name}.self_s"] = (get(name, "self_s") / jobs, "s")
    metrics["progressive.encode.bits"] = (get("progressive.encode", "bits") / jobs, "bit")
    metrics["progressive.decode.bits"] = (get("progressive.decode", "bits") / jobs, "bit")
    decoded = summary["decode_bits"]
    metrics["progressive.decode.useful_ratio"] = (
        summary["decode_useful_bits"] / decoded if decoded else 0.0, "ratio")
    metrics["search.exact_search.overflows"] = (get("search.exact_search", "overflow") / jobs, "count")
    exact_s = get("search.exact_search", "s")
    metrics["search.exact_search.wasted_ratio"] = (
        get("search.exact_search", "overflow_s") / exact_s if exact_s else 0.0, "ratio")
    metrics["network.enumerate_paths.paths"] = (get("network.enumerate_paths", "paths") / jobs, "count")
    metrics["distortion.optimize_pet_profile.iterations"] = (
        get("distortion.optimize_pet_profile", "iterations") / jobs, "count")
    metrics["distortion.optimize_pet_profile.hit_max_iter"] = (
        get("distortion.optimize_pet_profile", "hit_max_iter") / jobs, "count")
    metrics["pet.encode.bytes"] = (get("pet.encode", "bytes") / jobs, "byte")
    metrics["pet.decode.bytes"] = (get("pet.decode", "bytes") / jobs, "byte")
    metrics["gf256.mul_bytes"] = (
        (get("gf256.encode_block", "mul_bytes") + get("gf256.recover_block", "mul_bytes")) / jobs,
        "count")
    shares = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, entry in by_name.items():
        shares[tracing.layer_of(name)] += entry["self_s"]
    for layer, seconds in shares.items():
        metrics[f"share.{layer}"] = (seconds / wall if wall else 0.0, "ratio")
    return metrics


def run(args) -> int:
    if args.workload not in workloads.JOB_LISTS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    state = os.path.abspath(STATE_DIR)
    base = os.path.join(state, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    results_dir = os.path.abspath(args.results)
    os.makedirs(results_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    origin = os.getcwd()
    try:
        setup_probes = []
        setup = [
            setup_round(args.workload, args.seed, os.path.join(base, f"setup{r}"), setup_probes)
            for r in range(SETUP_ROUNDS)
        ]
        workdir = os.path.join(base, "run")
        os.makedirs(workdir)
        jobs = workloads.build(args.workload, args.seed, workdir)
        os.chdir(workdir)
        runner = Runner(jobs)
        runner.run_one(workloads.warmup_job(args.workload, workdir))
        warm_failed = runner.failed
        runner.attempted = runner.failed = 0

        measure = args.seconds / 2 if args.trace else args.seconds
        wall_start = time.perf_counter()
        times, probes = runner.passes(measure)
        untraced_wall = time.perf_counter() - wall_start
        spans = []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_times, traced_probes = runner.passes(args.seconds - measure, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.spans
    finally:
        os.chdir(origin)
        shutil.rmtree(base, ignore_errors=True)

    first = [runner.outcomes[job.key] for job in jobs if job.key in runner.outcomes]
    trf = [o.trf for o in first if o.trf is not None]
    wd = [o.wd for o in first if o.wd is not None]
    raw = {
        "setup_s": statistics.median(setup),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail(times)[1],
        "jobs_per_s": len(times) / sum(times),
    }
    job_times = scaled(times, probes)
    p, tail_value, beyond = tail(job_times)
    end_to_end = {
        "setup_s": (statistics.median(scaled(setup, setup_probes)), "s"),
        "job_s_p50": (statistics.median(job_times), "s"),
        "job_s_tail": (tail_value, "s"),
        "jobs_per_s": (len(job_times) / sum(job_times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "trf_total": (float(sum(trf, Fraction(0))), "bit/sample"),
        "wd_mean": (statistics.fmean(wd) if wd else 0.0, "mse"),
    }
    failed_ratio = runner.failed / runner.attempted
    info = {
        "jobs_timed": len(times),
        "untraced_wall_s": untraced_wall,
        "job_s_tail_percentile": p,
        "job_s_tail_jobs_beyond": beyond,
        "failed_ratio": failed_ratio,
        "raw_times": raw,
        "run_scaled": {k: v * PROBE_NOMINAL_S / statistics.median(setup_probes + probes) for k, v in raw.items()},
        "probe_median_s": statistics.median(setup_probes + probes),
        "warmup_failed": warm_failed,
        "setup_rounds_s": setup,
        "pass_jobs": len(jobs),
    }
    per_layer = {}
    if args.trace:
        summary = tracing.summarize(spans)
        traced_jobs = len(traced_times)
        per_layer = layer_metrics(summary, traced_jobs)
        per_layer["trace.overhead_ratio"] = (
            statistics.median(scaled(traced_times, traced_probes)) / statistics.median(job_times),
            "ratio",
        )
        mismatch = max(
            abs(summary["job_self"][job] - wall) for job, wall in summary["job_wall"].items()
        )
        info.update(traced_jobs=traced_jobs, self_time_mismatch_s=mismatch)
    correct = runner.failed == 0 and warm_failed == 0 and info.get("self_time_mismatch_s", 0.0) < 1e-6

    reported = per_layer if args.trace else end_to_end
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    document = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "jobs": runner.records,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    if spans:
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counters"], "spans": spans}, handle)

    print(f"# {args.workload} seed={args.seed}: {workloads.WHY[args.workload]}")
    for name, (value, unit) in {**end_to_end, **per_layer}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'job_s_tail percentile':48s} p{p:g} over {len(times)} jobs, {beyond} beyond")
    print(f"{'failed_ratio':48s} {failed_ratio:14.6g} ({runner.failed} of {runner.attempted} jobs)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


def _load_set(directory: str) -> list[dict]:
    documents = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json") and not name.endswith(".spans.json"):
            with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
                documents.append(json.load(handle))
    return documents


def compare(dir_a: str, dir_b: str) -> int:
    """Print B/A ratios of per-workload metric medians; flag fingerprint changes."""
    sets = [_load_set(dir_a), _load_set(dir_b)]
    medians = []
    prints = []
    for documents in sets:
        values: dict[tuple, list[float]] = {}
        fingerprints: dict[tuple, dict] = {}
        for doc in documents:
            for metric, entry in doc["metrics"].items():
                values.setdefault((doc["workload"], metric), []).append(entry["value"])
            for key, record in doc["jobs"].items():
                fingerprints[(doc["workload"], doc["seed"], key)] = record["fingerprint"]
        medians.append({k: statistics.median(v) for k, v in values.items()})
        prints.append(fingerprints)
    print(f"{'workload':16s} {'metric':48s} {'A':>12s} {'B':>12s} {'B/A':>8s}")
    for workload, metric in sorted(set(medians[0]) & set(medians[1])):
        a, b = medians[0][(workload, metric)], medians[1][(workload, metric)]
        ratio = f"{b / a:8.3f}" if a else "     n/a"
        print(f"{workload:16s} {metric:48s} {a:12.6g} {b:12.6g} {ratio}")
    changed = 0
    for key in sorted(set(prints[0]) & set(prints[1])):
        if prints[0][key] != prints[1][key]:
            changed += 1
            print(f"FINGERPRINT CHANGED {key[0]} seed={key[1]} {key[2]}")
    print(f"{changed} fingerprint change(s) over {len(set(prints[0]) & set(prints[1]))} common jobs")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(STATE_DIR, "results"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
