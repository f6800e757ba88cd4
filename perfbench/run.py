"""The dynqf benchmark: time-to-verdict on four workloads, and a traced
per-layer split.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a source tree; dynqf is imported from its `src/`.
Each repetition of a workload's job list runs in a fresh child process
(`child.py`), one at a time, until `--seconds` have passed and at least
MIN_REPS have run.  End-to-end metrics are medians over the repetitions.
With `--trace 1` repetitions alternate between untraced and traced; the
traced ones give the per-layer metrics, and the ratio of the two wall
times gives `trace.overhead_frac`.

Every job's outcome is checked against its known answer.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the whole record, with provenance and every metric
including absent layers, goes to `--out` (default under perfbench/out/).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3       # untraced repetitions in an untraced run
MIN_PAIRS = 2      # untraced/traced pairs in a traced run
REP_TIMEOUT_S = 60


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn_rep(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    # its own process group, so that a timeout also ends the CLI processes it spawned
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{workload}: a repetition ran past {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{workload}: a repetition failed with exit {proc.returncode}:\n{err.strip()}")
    try:
        rep = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise HarnessError(f"{workload}: a repetition printed no result:\n{err.strip()}") from None
    if rep["wrappers_left"]:
        raise HarnessError(f"{workload}: tracing wrappers left installed: {rep['wrappers_left'][:5]}")
    return rep


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        start = time.monotonic()
        plain.append(spawn_rep(workload, seed, 0))
        if trace:
            traced.append(spawn_rep(workload, seed, 1))
        # stop when another repetition would more likely end after the deadline than before
        now = time.monotonic()
        if len(plain) >= (MIN_PAIRS if trace else MIN_REPS) and now + (now - start) / 2 >= deadline:
            break
    reps = plain + traced
    failures = {}
    for rep in reps:
        for job, error in rep["errors"].items():
            failures.setdefault(job, error)
    attempted = sum(len(rep["jobs"]) for rep in reps)
    failed = sum(len(rep["errors"]) for rep in reps)
    setups = [s * rep["scale"] for rep in plain for s in rep["setup_s"]]
    walls = [rep["wall_s"] * rep["scale"] for rep in plain]
    result = {
        "bounds": plain[0]["bounds"],
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {
            "wall_s": {"value": median(walls), "unit": "s", "samples": len(walls)},
            "setup_s": {"value": median(setups), "unit": "s", "samples": len(setups)},
            "peak_rss_mb": {"value": median(rep["peak_rss_mb"] for rep in plain), "unit": "MB",
                            "samples": len(plain)},
            "failed_frac": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
        },
        "uncalibrated": {
            "wall_s": median(rep["wall_s"] for rep in plain),
            "setup_s": median(s for rep in plain for s in rep["setup_s"]),
            "speed_scale": median(rep["scale"] for rep in plain),
        },
    }
    if workload == "cli-batch":
        latencies = [s * rep["scale"] for rep in plain for s in rep["latencies_s"]]
        result["metrics"]["cli_latency_p50_s"] = {"value": median(latencies), "unit": "s",
                                                  "samples": len(latencies)}
    if trace:
        per_layer, unstable = tracing.combine_reps(
            [calibrated(tracing.layer_metrics(rep["trace"]), rep["scale"]) for rep in traced])
        overhead = median(rep["wall_s"] * rep["scale"] for rep in traced) / median(walls) - 1
        per_layer["trace.overhead_frac"] = {"value": overhead, "unit": "ratio", "samples": len(traced)}
        result["per_layer"] = per_layer
        result["counts_differing_between_repetitions"] = unstable
        result["missing_entry_points"] = sorted({m for rep in traced for m in rep["missing_entry_points"]})
        result["uncovered_entry_points"] = [
            ep.key for ep in tracing.ENTRY_POINTS
            if workload in ep.users and not all(rep["trace"]["entry_spans"].get(ep.key) for rep in traced)]
    return result


def calibrated(metrics: dict, scale: float) -> dict:
    """Layer times at the reference speed, like the end-to-end times."""
    factor = {"s": scale, "us": scale, "1/s": 1 / scale}
    return {name: (value if value is None else value * factor.get(unit, 1), unit)
            for name, (value, unit) in metrics.items()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dynqf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".dynp"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,  # None outside a git checkout; the source digest still identifies the code
        "source_sha256": source_digest(),
    }


def fmt(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, res: dict) -> None:
    print(f"[{name}] bounds: {json.dumps(res['bounds'], sort_keys=True)}")
    print(f"[{name}] repetitions: {res['repetitions']}")
    for metric, m in list(res["metrics"].items()) + list(res.get("per_layer", {}).items()):
        print(f"[{name}] {metric} = {fmt(m['value'])} {m['unit']} (n={m['samples']})")
    for job, error in res["failures"].items():
        print(f"[{name}] FAILED {job}: {error}")
    for key in ("counts_differing_between_repetitions", "missing_entry_points", "uncovered_entry_points"):
        if res.get(key):
            print(f"[{name}] WARNING {key}: {', '.join(res[key])}")


def final_line(results: dict, spec: dict, trace: int) -> dict:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for workload, res in results.items():
        measured = res["per_layer"] if trace else res["metrics"]
        prefix = f"{workload}/" if len(results) > 1 else ""
        for name in declared:
            m = measured.get(name)
            if m is None or m["value"] is None:
                raise HarnessError(f"{workload}: declared metric {name} was not measured")
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="where to write the full record (JSON)")
    args = ap.parse_args()
    if not (ROOT / "src" / "dynqf" / "__init__.py").is_file():
        print(f"error: no dynqf sources under {ROOT / 'src'}; run from a dynqf source tree",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    try:
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            results[name]["why"] = why.get(name)
            report(name, results[name])
        line = final_line(results, spec, args.trace)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(), "workloads": results, "result": line}
    out = args.out or HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"record: {out}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
