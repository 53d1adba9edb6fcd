#!/usr/bin/env python3
"""Benchmark of the ifctp command line.

    python3 bench/run.py --workload paper-3x4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each job is one in-process call of
``ifctp.cli.main`` with its output captured: a closed loop, one client, one
process, one BLAS thread.  A run times a fixed number of whole rounds of its
workload's jobs (see workloads.py): as many as take about ``--seconds`` at
the speed the benchmark was calibrated on.  Every run of a workload thus
times the same jobs, and a faster program finishes sooner; only a host far
slower than usual cuts a run short.  Times are reported in reference
milliseconds: wall time scaled by the host's speed while it was measured
(see hostspeed.py), so that load from the host's neighbours does not show
as a change of the program.  Every answer is checked afterwards (see
checks.py).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half as
many rounds, calls every job once traced and once not, and reports
per-layer metrics from the traced calls (see tracing.py), plus the tracing
overhead.  Per-layer counts and times are per round of the workload.
"""

import os

# Pinned before numpy is imported: the loop is single-threaded by design.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PAPER = ROOT / "problems" / "safi_razmjoo_1.txt"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("paper-3x4", "ladder-bb")
SETUP_REPEATS = 5
TAIL_BEYOND = 10       # samples that must lie above the reported tail
ROOT_LP_REPEATS = 3
MAX_STRETCH = 1.5      # after the first round, stop past this many --seconds
PIVOT_NOTE = ("simplex pivots are not observable from outside the package and are not "
              "reported; they need an in-solver counter")


class SetupError(Exception):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the ifctp command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


@contextlib.contextmanager
def _fd1_to_stderr():
    """Send what native code writes to file descriptor 1 to stderr instead.

    HiGHS prints progress lines there; they must not land after the result.
    """
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def run_job(entry, job):
    """Call the CLI once; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = entry(list(job.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = "raised " + traceback.format_exc().strip().splitlines()[-1]
    return rc, out.getvalue(), err.getvalue()


def write_instances(instances, directory: Path) -> dict[str, str]:
    """Write each instance as a problem file and check it reads back unchanged."""
    from ifctp import parse_instance, render_instance

    directory.mkdir()
    paths = {}
    for name, instance in instances.items():
        path = directory / f"{name}.txt"
        path.write_text(render_instance(instance))
        if parse_instance(path.read_text()) != instance:
            raise SetupError(f"{name}: parse_instance does not read back render_instance")
        paths[name] = str(path)
    return paths


def _import_s(speed) -> float:
    """Seconds to import the package in a fresh interpreter, at reference speed.

    The host speed is sampled just before and just after the interpreter runs.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import ifctp.cli; print(time.perf_counter() - t)")
    speed.sample()
    start = time.perf_counter_ns()
    seconds = float(subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                                   capture_output=True, text=True).stdout)
    end = time.perf_counter_ns()
    speed.sample()
    return seconds * speed.speed(start, end)


def _whole_rounds(records, jobs_per_round: int) -> set[int]:
    """Rounds in which every job ran; a slow host may cut the last one short."""
    counts = Counter(round_no for _, round_no, *_ in records)
    return {round_no for round_no, count in counts.items() if count == jobs_per_round}


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(times)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ifctp" / "__init__.py").is_file() or not PAPER.is_file():
        print(f"error: {ROOT} is not a checkout of the repository "
              "(src/ifctp or problems/ is missing)", file=sys.stderr)
        return 2
    steal_before = _steal_ticks()

    sys.path.insert(0, str(SRC))
    import ifctp.cli
    if Path(ifctp.cli.__file__).resolve().parent != (SRC / "ifctp").resolve():
        print(f"error: imported ifctp from {ifctp.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        _run(args, workdir, steal_before)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _run(args, workdir: Path, steal_before) -> None:
    import checks
    import hostspeed
    import ifctp.cli
    import tracing
    import workloads

    # ---- set-up, repeated so its median is steady
    speed = hostspeed.HostSpeed()
    warmup = workloads.warmup_job(str(PAPER))
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        import_s = _import_s(speed)
        start = time.perf_counter_ns()
        instances = workloads.instances(args.workload, args.seed)
        paths = write_instances(instances, workdir / f"setup-{repeat}")
        warmup_result = run_job(ifctp.cli.main, warmup)
        end = time.perf_counter_ns()
        speed.sample()
        setup_times.append(import_s + speed.reference_ms(start, end) / 1000.0)
    setup_s = statistics.median(setup_times)
    jobs = workloads.round_jobs(args.workload, paths, str(PAPER))

    # ---- timed loop
    tracer = tracing.Tracer() if args.trace else None
    planned = workloads.rounds_for(args.workload, args.seconds, traced=tracer is not None)
    order_rng = random.Random(f"order:{args.workload}:{args.seed}")
    outputs = Counter()   # (job key, exit code, stdout) -> times seen
    first_stderr = {}
    schedule = []   # (round, job, traced)
    for round_no in range(planned):
        order = list(jobs)
        order_rng.shuffle(order)
        for k, job in enumerate(order):
            # A traced run calls every job twice, traced and not, alternating
            # which goes first, so the overhead compares like with like.
            sides = ((round_no + k) % 2 == 1, (round_no + k) % 2 == 0) if tracer else (False,)
            schedule += [(round_no, job, traced) for traced in sides]
    ran = []   # (round, job, traced, start ns, end ns)
    speed.start()
    try:
        start = time.perf_counter()
        for round_no, job, traced in schedule:
            if traced:
                tracer.job = len(ran)
                tracer.capture_models = round_no == 0
                tracer.install()
            t0 = time.perf_counter_ns()
            rc, out, err = run_job(tracer.root if traced else ifctp.cli.main, job)
            ran.append((round_no, job, traced, t0, time.perf_counter_ns()))
            if traced:
                tracer.uninstall()
            outputs[(job.key, rc, out)] += 1
            first_stderr.setdefault((job.key, rc, out), err)
            # A host far slower than usual must not blow the time budget; the
            # first round always runs whole, so every job is timed and traced.
            if round_no > 0 and time.perf_counter() - start > MAX_STRETCH * args.seconds:
                break
    finally:
        speed.stop()
    # (job, round, traced, reference ms, wall ms)
    records = [(job, round_no, traced, speed.reference_ms(t0, t1), (t1 - t0) / 1e6)
               for round_no, job, traced, t0, t1 in ran]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steal_after = _steal_ticks()

    # ---- answer checks, outside the timed region
    with _fd1_to_stderr():
        checker = checks.Checker(instances)
        by_key = {job.key: job for job in jobs}
        failed = 0
        problems = []
        passing = {}   # check kind -> one correct (job, rc, out), for the self-check
        for (key, rc, out), count in outputs.items():
            reason = checker.check(by_key[key], rc, out)
            if reason is None:
                passing.setdefault(by_key[key].check, (by_key[key], rc, out))
            else:
                failed += count
                detail = first_stderr[(key, rc, out)].strip().splitlines()[-1:] or [""]
                problems.append(f"{key}: {reason} ({count} jobs) {detail[0]}".rstrip())
        warmup_reason = checker.check(warmup, *warmup_result[:2])
        if warmup_reason is not None:
            problems.append(f"warm-up: {warmup_reason}")
        missed = [f"{kind}: {name}" for kind, (job, rc, out) in passing.items()
                  for name in checks.self_check(checker, job, rc, out)]
        if missed:
            problems.append("self-check: a wrong answer passed the checks: " + ", ".join(missed))
    attempted = len(records)

    # ---- report
    import numpy
    import scipy
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds_planned": planned,
        "jobs_planned": len(schedule),
        "jobs_per_round": len(jobs), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "steal_ticks_before": steal_before,
        "steal_ticks_after": steal_after,
    }
    print("environment " + json.dumps(environment))
    for problem in problems:
        print("FAILED " + problem)
    print(f"checks: {attempted - failed}/{attempted} jobs correct, failed_frac "
          f"{failed / attempted!r}, self-check {'MISSED' if missed else 'caught'} "
          "every perturbed answer")

    if tracer is None:
        # Timings come from whole rounds only, so a run a slow host cut
        # short still weighs every job alike.
        whole = _whole_rounds(records, len(jobs))
        timed = [record for record in records if record[1] in whole]
        times = [ms for _, _, _, ms, _ in timed]
        wall = [wall_ms for _, _, _, _, wall_ms in timed]
        for job in jobs:
            own = [ms for j, _, _, ms, _ in timed if j is job]
            print(f"job {job.key}: median {statistics.median(own):.1f} reference ms of {len(own)}")
        print(f"wall time, not scaled to the reference speed: job median "
              f"{statistics.median(wall):.1f} ms, {1000.0 * len(wall) / sum(wall):.4f} jobs/s; "
              f"host speed {statistics.median(t / w for t, w in zip(times, wall)):.3f} "
              "of the reference")
        tail_ms, tail_pct = _tail(times)
        print(f"job_ms_tail is the p{tail_pct:.1f} of {len(times)} jobs in {len(whole)} rounds")
        metrics = {
            "job_ms_p50": (statistics.median(times), "ms"),
            "job_ms_tail": (tail_ms, "ms"),
            "jobs_per_s": (1000.0 * len(times) / sum(times), "1/s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, ran, records, len(jobs), tracing, speed)
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        print(PIVOT_NOTE)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _layer_metrics(tracer, ran, records, jobs_per_round, tracing, speed):
    """Per-layer metrics of the traced calls, with units; prints nodes per job.

    Only whole rounds count: a slow host may cut the last one short.  Times
    are in reference milliseconds, like the end-to-end ones.
    """
    from ifctp.milp import solve_lp

    whole = _whole_rounds([r for r in records if r[2]], jobs_per_round)
    spans_by_round = {}
    for span in tracer.spans:
        if records[span.job][1] in whole:
            spans_by_round.setdefault(records[span.job][1], []).append(span)
    # Every span of a job is scaled by the job's host speed, so that child
    # spans never add up to more than their parent.
    job_speed = [speed.speed(t0, t1) for _, _, _, t0, t1 in ran]

    def span_ms(span):
        return speed.own_ms(span.start_ns, span.end_ns) * job_speed[span.job]

    totals = [tracing.round_totals(spans, span_ms)
              for _, spans in sorted(spans_by_round.items())]
    values = tracing.layer_metrics(totals)
    if any(t[key] != totals[0][key] for t in totals for key in tracing.COUNTS):
        print("WARNING: node or call counts differ between rounds of the same inputs")

    by_id = {span.id: span for span in tracer.spans}
    per_job = {}
    for span in spans_by_round[0]:
        if span.name == tracing.SOLVE:
            stage = tracing.stage_of(span, by_id) or "other"
            per_job.setdefault(span.job, []).append((span.id, stage, span.nodes))
    for job_index, solves in sorted(per_job.items()):
        parts = ", ".join(f"{stage} {nodes}" for _, stage, nodes in sorted(solves))
        print(f"nodes {records[job_index][0].key}: {sum(n for _, _, n in solves)} = {parts}")

    root_lp = []
    for _ in range(ROOT_LP_REPEATS):
        speed.sample()
        start = time.perf_counter_ns()
        for model in tracer.models:
            solve_lp(model)
        end = time.perf_counter_ns()
        speed.sample()
        root_lp.append(speed.reference_ms(start, end))
    values["milp.root_lp_ms"] = statistics.median(root_lp)

    traced = [ms for _, _, is_traced, ms, _ in records if is_traced]
    untraced = [ms for _, _, is_traced, ms, _ in records if not is_traced]
    values["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)

    def unit(name):
        if name in ("trace.overhead", "milp.share"):
            return "ratio"
        return "ms" if "ms" in name.replace(".", "_").split("_") else "count"

    return {name: (value, unit(name)) for name, value in values.items()}


if __name__ == "__main__":
    raise SystemExit(main())
