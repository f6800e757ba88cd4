"""Compare benchmark records metric by metric, workload by workload.

    python3 perfbench/compare.py BASE.json [BASE.json ...] --against NEW.json [NEW.json ...]

Each side is one or more records written by run.py (one run each; several
runs give a median and quartiles per side).  End-to-end metrics are judged
against the bounds in BENCHMARK.json: a median worse by more than the bound
is a regression; a metric whose base runs spread wider than the bound is
unresolved unless every new run beats every base run.  Per-layer metrics
are listed with their change only.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def collect(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = json.loads(path.read_text())
        for workload, res in record["workloads"].items():
            for part in ("metrics", "per_layer"):
                for name, m in res.get(part, {}).items():
                    if m["value"] is not None:
                        values.setdefault((workload, name), []).append(m["value"])
    return values


def spread(values: list[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    if len(values) < 2 or not median(values):
        return 0.0
    q = quantiles(values, n=4)
    return (q[2] - q[0]) / abs(median(values))


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1 if lower_is_better else -1
    change = sign * (median(new) - median(base)) / abs(median(base))
    all_better = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
    if spread(base) > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "REGRESSION"
    if change < -spread(base):
        return "better"
    return "within bound"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="+", type=Path)
    ap.add_argument("--against", nargs="+", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, new = collect(args.base), collect(args.against)
    print(f"{'workload':<20} {'metric':<40} {'base':>12} {'new':>12} {'change':>8}  verdict")
    regressions = 0
    for key in sorted(base.keys() & new.keys(), key=lambda k: (k[0], k[1] not in e2e, k[1])):
        workload, name = key
        b, n = median(base[key]), median(new[key])
        change = f"{(n - b) / abs(b):+.1%}" if b else "n/a"
        judged = ""
        if name in e2e:
            judged = verdict(base[key], new[key], e2e[name]["bound"], e2e[name]["better"] == "lower")
            judged += f" (bound {e2e[name]['bound']:.0%}, base spread {spread(base[key]):.1%}, " \
                      f"runs {len(base[key])}/{len(new[key])})"
            regressions += judged.startswith("REGRESSION")
        print(f"{workload:<20} {name:<40} {b:>12.6g} {n:>12.6g} {change:>8}  {judged}")
    for key in sorted(base.keys() ^ new.keys()):
        print(f"{key[0]:<20} {key[1]:<40} only in {'base' if key in base else 'new'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
