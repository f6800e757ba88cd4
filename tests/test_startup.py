"""Start-up cost: a `dynqf` process imports no module that generates code
from source text (`dataclasses`) or parses Python (`inspect`, `ast`,
`dis`), which would cost every invocation tens of milliseconds, and one
that digests no counterexample trace does not load `hashlib` (OpenSSL
adds a few MB to its peak memory).  It also loads only the dynqf modules
its work runs: the package namespace resolves names on first use, a
maintenance check leaves the lower-bound half unloaded, and the CLI imports
the drivers, the transformations and the printer inside the commands that
use them.  Runs under pytest, or as a plain script where pytest is missing:
`PYTHONPATH=src python tests/test_startup.py`."""
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis")
# the modules that only the lower-bound drivers, the transformations and the
# printer need
UNUSED_BY_CHECKS = ("dynqf.lower_bounds", "dynqf.atoms", "dynqf.transforms", "dynqf.printer")

# a fresh interpreter imports the CLI, runs one exhaustive verify of a corpus
# program in process, and reports which of the heavy modules got loaded, and
# whether hashlib did
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
import dynqf.cli
program = Path(dynqf.__file__).parent / "corpus_data" / "st_twopath_binary.dynp"
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = dynqf.cli.main(["verify", str(program), "--domain", "4", "--maxlen", "3", "--json"])
print(json.dumps({"code": code, "status": json.loads(out.getvalue())["status"],
                  "loaded": [m for m in %r if m in sys.modules], "hashlib": "hashlib" in sys.modules,
                  "dynqf": sorted(m for m in sys.modules if m.startswith("dynqf."))}))
""" % (HEAVY,)

# the random-mode check of the random-ternary benchmark workload, imported
# as that workload imports it
RANDOM_CHILD = """
import json, sys
from dynqf import CheckConfig, builtin_program, check_maintenance
entry = builtin_program("s-twopath-ternary")
cfg = CheckConfig(domain_size=5, max_len=12, mode="random", samples=4000, seed=0,
                  honest_only=True, constants={"s": 2})
verdict = check_maintenance(entry.program, entry.oracle, cfg)
print(json.dumps({"status": verdict.status,
                  "dynqf": sorted(m for m in sys.modules if m.startswith("dynqf."))}))
"""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@functools.lru_cache(maxsize=None)
def _child(code: str) -> dict:
    done = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_process_loads_no_code_generating_module():
    report = _child(CHILD)
    assert (report["code"], report["status"]) == (0, "ok")
    assert report["loaded"] == []
    assert report["hashlib"] is False


def test_cli_verify_loads_no_lower_bound_transform_or_printer_module():
    report = _child(CHILD)
    assert [m for m in UNUSED_BY_CHECKS if m in report["dynqf"]] == []
    assert "dynqf.verify" in report["dynqf"]


def test_a_random_check_loads_only_the_checker():
    report = _child(RANDOM_CHILD)
    assert report["status"] == "ok"
    unused = UNUSED_BY_CHECKS + ("dynqf.symmetry", "dynqf.serialize", "dynqf.cli")
    assert [m for m in unused if m in report["dynqf"]] == []


def test_cli_attack_still_runs_in_a_fresh_process():
    with tempfile.TemporaryDirectory() as tmp:
        program = Path(tmp) / "unary.dynp"
        program.write_text((SRC / "dynqf" / "corpus_data" / "strawmen" / "unary_twopath_naive.dynp").read_text())
        done = subprocess.run([sys.executable, "-m", "dynqf.cli", "attack", str(program),
                               "--driver", "star-deletion", "--n", "6"],
                              env=_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "witness found" in done.stdout and "self-validation: True" in done.stdout


if __name__ == "__main__":
    test_cli_process_loads_no_code_generating_module()
    test_cli_verify_loads_no_lower_bound_transform_or_printer_module()
    test_a_random_check_loads_only_the_checker()
    test_cli_attack_still_runs_in_a_fresh_process()
    print("test_startup: all passed")
