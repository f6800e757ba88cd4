"""Self-checks of the benchmark: tracing determinism, wrapper coverage and
restoration, and the result contract.

    python3 -m pytest perfbench -q

Each check runs real repetitions in child processes, as the benchmark does.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
DETERMINISTIC_COUNTS = ("verify.checked_states", "verify.checked_steps", "compiler.contexts_built",
                        "compiler.apply.calls", "queries.oracle.calls", "state.constructed")


def child(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", workload,
                           "--seed", str(SEED), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs() -> dict[str, tuple[dict, dict]]:
    return {w: (child(w, 1), child(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(traced_pairs, workload):
    first, second = (tracing.layer_metrics(rep["trace"]) for rep in traced_pairs[workload])
    for name in DETERMINISTIC_COUNTS:
        assert first[name] == second[name], name
    assert not traced_pairs[workload][0]["errors"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_entry_point_records_a_span_on_its_main_user(traced_pairs, workload):
    rep = traced_pairs[workload][0]
    assert rep["missing_entry_points"] == []
    silent = [ep.key for ep in tracing.ENTRY_POINTS
              if workload in ep.users and not rep["trace"]["entry_spans"].get(ep.key)]
    assert silent == []


def test_written_spans_match_the_aggregate(traced_pairs):
    # the second traced repetition of the fixture wrote the file last
    spans = tracing.read_spans(HERE / "out" / "spans" / "exhaustive-twopath.spans")
    agg = traced_pairs["exhaustive-twopath"][1]["trace"]
    assert len(spans) == sum(rec[0] for rec in agg["spans"].values())
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["job"] for s in spans} == {-1, 0}


def test_untraced_run_installs_no_wrapper():
    rep = child("exhaustive-twopath", 0)
    assert rep["wrappers_left"] == [] and "trace" not in rep


def test_install_rebinds_every_reference_and_uninstall_restores():
    import dynqf.cli  # noqa: F401  (load every module that holds references)
    from dynqf import queries, verify
    from dynqf.corpus import _SPECS
    original = queries.oracle_st_reach
    tracer = tracing.Tracer()
    assert tracing.install(tracer) == []
    try:
        wrapped = queries.oracle_st_reach
        assert wrapped is not original and hasattr(wrapped, tracing.MARK)
        assert verify.oracle_st_reach is wrapped and queries.ORACLES["st-reach"] is wrapped
        assert _SPECS["reach-1layer-qf"][1] is wrapped
        assert verify.attack_star_deletion.__wrapped__.__defaults__ == (wrapped,)
    finally:
        tracing.uninstall(tracer)
    assert tracing.installed_wrappers() == []
    assert queries.ORACLES["st-reach"] is original and verify.attack_star_deletion.__defaults__ == (original,)


def test_traced_search_takes_the_lean_oracle_fast_path():
    from dynqf import CheckConfig, builtin_program, check_maintenance
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        entry = builtin_program("non-empty-set")
        verdict = check_maintenance(entry.program, entry.oracle, CheckConfig(domain_size=3, max_len=3))
    finally:
        tracing.uninstall(tracer)
    spans = tracing.aggregate(tracer)["spans"]
    assert verdict.status == "ok"
    assert spans["queries.oracle"][0] == verdict.checked_states
    # the slow fallback would convert every state back with from_lean
    assert spans["compiler.convert"][0] == 1


def test_recursion_counts_the_outermost_span_and_self_time_excludes_children():
    tracer = tracing.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced_fact(n - 1)

    def outer():
        return traced_fact(5)

    traced_fact = tracer.wrap("fact", fact, "fact")
    tracer.wrap("outer", outer, "outer")()
    spans = tracing.aggregate(tracer)["spans"]
    assert spans["fact"][0] == 1 and spans["outer"][0] == 1
    assert spans["outer"][2] == pytest.approx(spans["outer"][1] - spans["fact"][1])


def test_result_line_carries_every_declared_per_layer_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "exhaustive-twopath",
                           "--seed", str(SEED), "--seconds", "0", "--trace", "1",
                           "--out", str(HERE / "out" / "test-record.json")],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["per_layer"])


def test_run_refuses_without_dynqf_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
