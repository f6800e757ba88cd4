"""One repetition of one workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1

Prints one JSON line: set-up seconds, wall seconds for the job list, peak
resident memory, the speed scale of the machine at the time, the error of
every job whose outcome was not its known answer and, when traced, the span
aggregate.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
INVOCATION_TIMEOUT_S = 30
IMPORT_PROBES = 3
# The calibration loop's time on the machine the bounds were set on (a 2-vCPU
# KVM guest on an Intel Xeon, Python 3.11, unloaded).  It only fixes the
# scale of the calibrated times; every commit is measured against it.
CALIBRATION_REF_S = 0.07


def calibration_s(share: int = 1) -> float:
    """Time of a fixed pure-Python loop shaped like the appliers' hot path
    (frozensets built from generators, tuple hashing and set probes), run
    for 1/share of its length and scaled back up."""
    start = time.perf_counter()
    seen = set()
    for i in range(48_000 // share):
        key = (frozenset((j, (i * j) % 7) for j in range(6)), i % 50)
        if key not in seen:
            seen.add(key)
    return (time.perf_counter() - start) * share


def speed_scale(calibrations: list[float]) -> float:
    """Factor that turns seconds measured among the calibrations into seconds
    at the reference speed.  A shared host runs this process up to 1.5x
    slower for minutes at a time; the loop slows down with it."""
    return CALIBRATION_REF_S * len(calibrations) / sum(calibrations)


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_library(name: str, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    _pin_to_current_cpu()
    t0 = time.perf_counter()
    import dynqf  # noqa: F401
    tracer = tracing.Tracer() if trace else None
    missing = tracing.install(tracer) if trace else []
    bounds, jobs = workloads.LIBRARY[name](seed)
    setup_s = time.perf_counter() - t0
    before = calibration_s()
    errors = {}
    t1 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        error = workloads.attempt(job)
        if error:
            errors[job.name] = error
    wall_s = time.perf_counter() - t1
    peak = _maxrss_mb(resource.RUSAGE_SELF)
    result = {"setup_s": [setup_s], "wall_s": wall_s, "peak_rss_mb": peak,
              "scale": speed_scale([before, calibration_s()]), "bounds": bounds,
              "jobs": [job.name for job in jobs], "errors": errors}
    if tracer:
        tracing.uninstall(tracer)
        result["trace"] = tracing.aggregate(tracer)
        result["missing_entry_points"] = missing
        tracing.write_spans(tracer, OUT / "spans" / f"{name}.spans")
    result["wrappers_left"] = tracing.installed_wrappers()
    return result


def _spawn(argv: list[str], env: dict) -> tuple[int | None, str, str, float]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return None, "", f"no exit within {INVOCATION_TIMEOUT_S} s", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def _pin_to_current_cpu() -> None:
    """Keep this process and the processes it spawns on the CPU it runs on,
    so that the calibration here measures the CPU the dynqf processes use.
    Unpinned, new processes start on the idle CPU, whose speed on a shared
    host can differ from this one's."""
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass  # no per-CPU control here: calibrate unpinned


def run_cli(seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    _pin_to_current_cpu()
    work = OUT / "cli-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bounds, invocations, saved = workloads.cli_batch(seed, work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import time; t = time.perf_counter(); import dynqf.cli; "
             "print(time.perf_counter() - t)")
    calibrations = [calibration_s()]
    setup = []
    for _ in range(IMPORT_PROBES):
        code, out, err, _ = _spawn([sys.executable, "-c", probe], env)
        if code != 0:
            raise RuntimeError(f"cannot import dynqf.cli: {err.strip()}")
        setup.append(float(out))
    if trace:
        prefix = [sys.executable, str(HERE / "cli_shim.py")]
    else:
        prefix = [sys.executable, "-m", "dynqf.cli"]
    errors, latencies, aggs = {}, [], []
    paused = 0.0
    t1 = time.perf_counter()
    for i, inv in enumerate(invocations):
        if trace:
            env["PERFBENCH_JOB"] = str(i)
            env["PERFBENCH_TRACE_OUT"] = str(work / f"trace-{i}.json")
        code, out, err, seconds = _spawn(prefix + inv.args, env)
        latencies.append(seconds)
        try:
            problem = None if code == inv.exit_code else f"exit {code}, expected {inv.exit_code}: {err.strip()}"
            problem = problem or inv.check(out)
            if problem is None and inv.save_cex:
                doc = json.loads(out)
                Path(inv.save_cex).write_text(json.dumps(doc.get("counterexample", doc)))
        except (ValueError, KeyError, OSError) as e:
            problem = f"{type(e).__name__}: {e}"
        if trace:
            trace_file = work / f"trace-{i}.json"
            if trace_file.exists():
                aggs.append(json.loads(trace_file.read_text()))
            else:
                problem = problem or "the traced invocation wrote no spans"
        if problem:
            errors[inv.name] = problem
        # the batch takes seconds, so sample the CPU's speed between its
        # invocations too; the pause is not part of the batch
        start = time.perf_counter()
        calibrations.append(calibration_s(share=4))
        paused += time.perf_counter() - start
    wall_s = time.perf_counter() - t1 - paused
    scale = speed_scale(calibrations + [calibration_s()])
    peak = _maxrss_mb(resource.RUSAGE_CHILDREN)
    for path, (program_file, oracle) in saved.items():
        if path.exists():
            problem = workloads.check_saved_counterexample(path, program_file, oracle)
            if problem:
                errors[f"check {path.name}"] = problem
    result = {"setup_s": setup, "wall_s": wall_s, "peak_rss_mb": peak, "scale": scale, "bounds": bounds,
              "jobs": [inv.name for inv in invocations], "errors": errors,
              "latencies_s": latencies, "wrappers_left": tracing.installed_wrappers()}
    if trace:
        result["trace"] = tracing.merge(aggs)
        result["missing_entry_points"] = sorted({m for agg in aggs for m in agg.get("missing", [])})
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    if args.workload == "cli-batch":
        result = run_cli(args.seed, bool(args.trace))
    else:
        result = run_library(args.workload, args.seed, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
