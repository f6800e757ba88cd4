"""Start-up cost: a `dynqf` process imports no module that generates code
from source text (`dataclasses`) or parses Python (`inspect`, `ast`,
`dis`), which would cost every invocation tens of milliseconds, and one
that digests no counterexample trace does not load `hashlib` (OpenSSL
adds a few MB to its peak memory).  Runs
under pytest, or as a plain script where pytest is missing:
`PYTHONPATH=src python tests/test_startup.py`."""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis")

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
                  "loaded": [m for m in %r if m in sys.modules], "hashlib": "hashlib" in sys.modules}))
""" % (HEAVY,)


def test_cli_process_loads_no_code_generating_module():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["code"], report["status"]) == (0, "ok")
    assert report["loaded"] == []
    assert report["hashlib"] is False


if __name__ == "__main__":
    test_cli_process_loads_no_code_generating_module()
    print("test_startup: all passed")
