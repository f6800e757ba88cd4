import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dynqf.cli import _resolve_oracle, main
from dynqf.corpus import corpus_source
from dynqf.errors import ParseError
from dynqf.parser import parse_program
from dynqf.queries import is_query


@pytest.fixture
def nes_file(tmp_path):
    f = tmp_path / "non_empty_set.dynp"
    f.write_text(corpus_source("non_empty_set.dynp"))
    return str(f)


@pytest.fixture
def reach_file(tmp_path):
    f = tmp_path / "reach_1layer_qf.dynp"
    f.write_text(corpus_source("reach_1layer_qf.dynp"))
    return str(f)


@pytest.fixture
def broken_file(tmp_path):
    f = tmp_path / "broken.dynp"
    f.write_text("""
program broken
input { U/1 }
aux   { Q/0 }
query Q
init  oracle
on insert U(a):
  Q(): true
on delete U(a):
  Q(): true
""")
    return str(f)


def test_run_prints_query_per_step(nes_file, tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("domain 3\nins U(0)\n")
    assert main(["run", nes_file, str(script)]) == 0
    out = capsys.readouterr().out
    assert "init: Q = False" in out
    assert "step 1 [ins U(0)]: Q = True" in out


def test_run_json_trace(nes_file, tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("domain 3\nins U(0)\ndel U(0)\n")
    assert main(["run", nes_file, str(script), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == 1
    assert doc["query"] == [False, True, False]
    assert len(doc["states"]) == 3


TWO_CONSTS_SRC = """
program two_consts
input { U/1 }
aux   { Q/0 }
const s, u
query Q
init  empty
on insert U(a):
  Q(): a = u
on delete U(a):
  Q(): false
"""


def test_run_lays_out_constants_as_verify_does(tmp_path, capsys):
    # s = 0, and u, which the script leaves out, takes empty_input_db's place
    # for it, as in verify: 1 on a domain of 3
    f = tmp_path / "two_consts.dynp"
    f.write_text(TWO_CONSTS_SRC)
    script = tmp_path / "s.txt"
    script.write_text("domain 3\nins U(1)\n")
    assert main(["run", str(f), str(script), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"][0]["constants"] == {"s": 0, "u": 1}
    assert doc["query"] == [False, True]


def test_run_on_an_empty_domain_with_a_constant_is_an_input_error(tmp_path, capsys):
    # u is not s or t, so its default place is computed modulo the domain size
    f = tmp_path / "two_consts.dynp"
    f.write_text(TWO_CONSTS_SRC)
    script = tmp_path / "s.txt"
    script.write_text("domain 0\n")
    assert main(["run", str(f), str(script)]) == 2
    assert_one_line_error(capsys, "constant 'u' names no element of a domain of size 0")


def test_run_honesty_violation(nes_file, tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("domain 3\nins U(0)\nins U(0)\n")
    assert main(["run", nes_file, str(script), "--honest"]) == 2
    assert "step 2" in capsys.readouterr().err


def _memory_capped():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("script", [
    "domain 100000000\nins U(0)\n",
    "domain 99999999999999999999\n",
    "ins U(100000000)\n",  # no domain line: the domain is inferred from the tuple
])
def test_run_rejects_a_domain_above_the_limit(nes_file, tmp_path, script):
    # in a child capped at 1 GB, so that building a domain of that size
    # fails fast instead of taking the machine's memory
    f = tmp_path / "s.txt"
    f.write_text(script)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "dynqf.cli", "run", nes_file, str(f)], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=_memory_capped)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: domain of size ")
    assert proc.stderr.endswith(" exceeds the limit of 1000 elements\n")


def test_run_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.dynp"
    bad.write_text("program x\ninput { U/1 }\naux { Q/0 }\nquery Q\non insert U(a):\n  Q(): U(\n")
    script = tmp_path / "s.txt"
    script.write_text("domain 2\n")
    assert main(["run", str(bad), str(script)]) == 2
    err = capsys.readouterr().err
    assert "bad.dynp" in err and ":7:1:" in err  # failure surfaces at EOF


def test_verify_ok_exit_zero(nes_file, capsys):
    assert main(["verify", nes_file, "--domain", "3", "--maxlen", "4", "--exhaustive"]) == 0
    assert "verdict: ok" in capsys.readouterr().out


def test_verify_reach_uses_registered_guard(reach_file, capsys):
    assert main(["verify", reach_file, "--domain", "4", "--maxlen", "4", "--exhaustive"]) == 0


def test_verify_without_an_admissible_move_notes_it(reach_file, capsys):
    assert main(["verify", reach_file, "--domain", "2", "--maxlen", "3"]) == 0
    out = capsys.readouterr().out
    assert "1 states / 0 steps" in out
    assert "note: no modification was admissible, so only the initial state was checked" in out


def test_verify_in_random_mode_reports_the_states_it_checked(nes_file, capsys):
    # 3 moves start a walk at domain 3, so the prefixes of at most 2 moves
    # are stored: each is compared with the oracle once, however many of the
    # 20 walks share it
    assert main(["verify", nes_file, "--random", "20", "--domain", "3", "--maxlen", "4"]) == 0
    assert "seed 0, 31 states / 55 steps)" in capsys.readouterr().out


@pytest.mark.parametrize("mode,counts", [(["--exhaustive"], "1 states / 0 steps"),
                                          (["--random", "5"], "1 states / 0 steps")])
def test_verify_at_maxlen_0_checks_only_the_initial_state(nes_file, capsys, mode, counts):
    assert main(["verify", nes_file, "--domain", "3", "--maxlen", "0", *mode]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict: ok") and counts in out and "note:" not in out


def test_run_reach_with_graph_literal(reach_file, tmp_path, capsys):
    script = tmp_path / "g.txt"
    script.write_text(
        "graph { nodes 5; const s=0 t=4; edges (0,2) }\n"
        "ins E(2, t)\n"
        "del E(s, 2)\n"
    )
    assert main(["run", reach_file, str(script)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("Q = False")   # only (s,2) present at init
    assert out[1].endswith("Q = True")    # path s -> 2 -> t completed
    assert out[2].endswith("Q = False")   # first edge removed again


def test_verify_counterexample_exit_one_and_json(broken_file, capsys):
    code = main(["verify", broken_file, "--oracle", "non-empty-set",
                 "--domain", "3", "--maxlen", "4", "--exhaustive", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "counterexample"
    assert doc["counterexample"]["sequence"] == [["ins", "U", [0]], ["del", "U", [0]]]
    assert doc["exit_code"] == 1


def test_verify_resource_exit_two(tmp_path, capsys):
    f = tmp_path / "p.dynp"
    f.write_text(corpus_source("st_twopath_binary.dynp"))
    assert main(["verify", str(f), "--domain", "50", "--maxlen", "5", "--exhaustive"]) == 2


def test_override_cap_skips_the_pre_estimate(tmp_path, capsys):
    # the estimate counts every candidate edge, the 1-layered guard admits 14
    f = tmp_path / "p.dynp"
    f.write_text(corpus_source("st_twopath_binary.dynp"))
    args = ["verify", str(f), "--domain", "9", "--maxlen", "4", "--guard", "1-layered-st"]
    assert main(args) == 2
    assert "pass --override-cap to force the search" in capsys.readouterr().out
    assert main(args + ["--override-cap"]) == 0
    assert "verdict: ok" in capsys.readouterr().out


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


@pytest.mark.parametrize("oracle", ["st-twopath", "s-twopath"])
def test_oracle_without_its_constants_is_an_input_error(nes_file, capsys, oracle):
    assert main(["verify", nes_file, "--oracle", oracle, "--domain", "3", "--maxlen", "2"]) == 2
    assert "needs" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["verify", "run", "replay"])
def test_input_that_is_not_utf8_is_an_input_error(nes_file, tmp_path, capsys, command):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff" + random.Random(0).randbytes(299))
    args = {"verify": ["verify", str(bad)], "run": ["run", nes_file, str(bad)],
            "replay": ["replay", str(bad), nes_file]}[command]
    assert main(args) == 2
    assert "bad.bin: not UTF-8 text" in _one_error_line(capsys)


def test_verify_unknown_oracle(nes_file, capsys):
    assert main(["verify", nes_file, "--oracle", "nope", "--domain", "3"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_replay_counterexample_roundtrip(broken_file, tmp_path, capsys):
    code = main(["verify", broken_file, "--oracle", "non-empty-set",
                 "--domain", "3", "--maxlen", "4", "--exhaustive", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    cex_path = tmp_path / "cex.json"
    # replay takes the counterexample, or the whole verdict that holds it
    for replayed in (doc["counterexample"], doc):
        cex_path.write_text(json.dumps(replayed))
        assert main(["replay", str(cex_path), broken_file, "--oracle", "non-empty-set"]) == 0
        assert "reproduced" in capsys.readouterr().out


def test_attack_star_witness_exit_one(tmp_path, capsys):
    f = tmp_path / "unary.dynp"
    f.write_text(corpus_source("strawmen/unary_twopath_naive.dynp"))
    assert main(["attack", str(f), "--driver", "star-deletion", "--n", "6"]) == 1
    out = capsys.readouterr().out
    assert "witness found" in out and "self-validation: True" in out


def test_attack_replays_its_witness_once(tmp_path, capsys, monkeypatch):
    # the driver's own replay stands behind the "self-validation" line
    import dynqf.verify
    replays = []
    replay = dynqf.verify._replay
    monkeypatch.setattr(dynqf.verify, "_replay", lambda *args: replays.append(args) or replay(*args))
    f = tmp_path / "unary.dynp"
    f.write_text(corpus_source("strawmen/unary_twopath_naive.dynp"))
    assert main(["attack", str(f), "--driver", "star-deletion", "--n", "6"]) == 1
    assert "self-validation: True" in capsys.readouterr().out
    assert len(replays) == 1


def test_attack_guard_violation(tmp_path, capsys):
    f = tmp_path / "tern.dynp"
    f.write_text(corpus_source("s_twopath_ternary.dynp"))
    assert main(["attack", str(f), "--driver", "star-deletion", "--n", "4"]) == 2
    assert "arity 3 > 1" in capsys.readouterr().err


def test_attack_cq_adversary(tmp_path, capsys):
    f = tmp_path / "cq.dynp"
    f.write_text(corpus_source("strawmen/cq_nonemptyset_naive.dynp"))
    assert main(["attack", str(f), "--driver", "cq-adversary", "--bound", "4", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["step"] == len(doc["sequence"]) == 4


def test_transform_dedup_writes_file_and_checks(tmp_path, capsys, nes_file):
    out = tmp_path / "out.dynp"
    assert main(["transform", nes_file, "--pass", "rel2fun", "-o", str(out), "--check"]) == 0
    text = capsys.readouterr().out
    assert "differential check: original ok, transformed ok" in text
    # the written file parses and re-verifies
    assert main(["verify", str(out), "--oracle", "non-empty-set",
                 "--domain", "3", "--maxlen", "4", "--exhaustive"]) == 0


def test_transform_rel2fun_name_clash_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "clash.dynp"
    f.write_text("program clash\ninput { E/1, f_C/1 }\naux { Q/0, C/1 }\nquery Q\n"
                 "init oracle reach1layer_base\ndefault frame\non insert E(a):\n  Q(): C(a)\n")
    assert main(["transform", str(f), "--pass", "rel2fun"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: symbol name f_C is taken\n"


def test_analyze_reach(reach_file, capsys):
    assert main(["analyze", reach_file]) == 0
    out = capsys.readouterr().out
    assert "max aux arity: 1" in out
    assert "builtin functions: unary" in out
    assert "nesting depth: 1" in out


def test_analyze_twopath(tmp_path, capsys):
    f = tmp_path / "p.dynp"
    f.write_text(corpus_source("st_twopath_binary.dynp"))
    assert main(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "max aux arity: 2" in out
    assert "conjunctive: False" in out


def test_analyze_unreachable_symbol(tmp_path, capsys):
    f = tmp_path / "p.dynp"
    f.write_text("""
program orphan
input { U/1 }
aux   { Q/0, S/1 }
query Q
init  empty
on insert U(u):
  Q(): true
  S(x): S(x)
on delete U(u):
  Q(): Q()
  S(x): S(x)
""")
    assert main(["analyze", str(f)]) == 0
    assert "S: unreachable" in capsys.readouterr().out


def test_analyze_dot_output(reach_file, capsys):
    assert main(["analyze", reach_file, "--dot"]) == 0
    assert "digraph deletion_deps" in capsys.readouterr().out


def test_a_closed_output_pipe_exits_141_quietly(tmp_path):
    # the reader closes the pipe before the interpreter has started, so the
    # first write, or the flush after the command, meets a broken pipe
    program = tmp_path / "st_twopath_binary.dynp"
    program.write_text(corpus_source("st_twopath_binary.dynp"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "dynqf.cli", "analyze", str(program), "--dot"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_corpus_list_and_show(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("non-empty-set", "st-twopath-binary", "s-twopath-ternary", "reach-1layer-qf"):
        assert name in out
    assert main(["corpus", "show", "non-empty-set"]) == 0
    assert "program non_empty_set" in capsys.readouterr().out


# -- bad input: one line on stderr, exit 2 ----------------------------------------

def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def test_replay_missing_file(broken_file, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["replay", missing, broken_file, "--oracle", "non-empty-set"]) == 2
    assert_one_line_error(capsys, "nope.json")


def test_replay_invalid_json(broken_file, tmp_path, capsys):
    f = tmp_path / "cex.json"
    f.write_text("{not json")
    assert main(["replay", str(f), broken_file, "--oracle", "non-empty-set"]) == 2
    assert_one_line_error(capsys, "invalid JSON")


def test_replay_document_without_program(broken_file, tmp_path, capsys):
    f = tmp_path / "cex.json"
    f.write_text(json.dumps({"format": 1, "initial": {"domain": 3}, "sequence": []}))
    assert main(["replay", str(f), broken_file, "--oracle", "non-empty-set"]) == 2
    assert_one_line_error(capsys, "missing field 'program'")


def test_replay_verdict_without_counterexample(nes_file, tmp_path, capsys):
    f = tmp_path / "verdict.json"
    assert main(["verify", nes_file, "--domain", "3", "--maxlen", "2", "--json"]) == 0
    f.write_text(capsys.readouterr().out)
    assert main(["replay", str(f), nes_file]) == 2
    assert_one_line_error(capsys, "verdict 'ok' holds no counterexample")


@pytest.mark.parametrize("doc", [[], "cex", {"status": "counterexample", "counterexample": [1]}])
def test_replay_document_that_is_not_an_object(broken_file, tmp_path, capsys, doc):
    f = tmp_path / "cex.json"
    f.write_text(json.dumps(doc))
    assert main(["replay", str(f), broken_file, "--oracle", "non-empty-set"]) == 2
    assert_one_line_error(capsys, "expected a JSON object")


@pytest.mark.parametrize("field, value, fragment", [
    ("step", "x", "step must be an integer in 0..2, got 'x'"),
    ("step", 1.5, "step must be an integer in 0..2, got 1.5"),
    ("step", -1, "step must be an integer in 0..2, got -1"),
    ("step", 3, "step must be an integer in 0..2, got 3"),
    ("step", True, "step must be an integer in 0..2, got True"),
    ("expected", "yes", "expected must be true or false, got 'yes'"),
    ("produced", 1, "produced must be true or false, got 1"),
    ("sequence", [["ins", "U", ["a"]], ["del", "U", [0]]], "tuple elements must be integers, got ['a']"),
])
def test_replay_document_with_a_malformed_field(broken_file, tmp_path, capsys, field, value, fragment):
    assert main(["verify", broken_file, "--oracle", "non-empty-set",
                 "--domain", "3", "--maxlen", "4", "--exhaustive", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)["counterexample"]
    doc[field] = value
    f = tmp_path / "cex.json"
    f.write_text(json.dumps(doc))
    assert main(["replay", str(f), broken_file, "--oracle", "non-empty-set"]) == 2
    assert_one_line_error(capsys, "cex.json: malformed counterexample: " + fragment)


def test_verify_missing_program_file(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.dynp"), "--oracle", "non-empty-set"]) == 2
    assert_one_line_error(capsys, "nope.dynp")


@pytest.mark.parametrize("argv,flag", [
    (["verify", "{nes}", "--domain", "0"], "--domain"),
    (["verify", "{nes}", "--maxlen", "-1"], "--maxlen"),
    (["verify", "{nes}", "--random", "0"], "--random"),
    (["attack", "{nes}", "--driver", "star-deletion", "--n", "0"], "--n"),
    (["attack", "{nes}", "--driver", "cq-adversary", "--bound", "-1"], "--bound"),
    (["transform", "{nes}", "--pass", "rel2fun", "--check", "--maxlen", "-1"], "--maxlen"),
])
def test_out_of_range_bounds_are_rejected(nes_file, capsys, argv, flag):
    assert main([a.format(nes=nes_file) for a in argv]) == 2
    assert_one_line_error(capsys, f"{flag} must be at least")


@pytest.mark.parametrize("oracle", ["k-clique=x", "k-colorability=2.5", "k-clique="])
def test_verify_oracle_with_non_integer_k(nes_file, capsys, oracle):
    assert main(["verify", nes_file, "--oracle", oracle, "--domain", "3"]) == 2
    assert_one_line_error(capsys, "k must be an integer")


@pytest.mark.parametrize("name,k", [("k-clique", 3), ("k-colorability", 2)])
def test_parametrized_oracles_are_queries(name, k):
    oracle = _resolve_oracle(f"{name}={k}")
    assert isinstance(oracle, functools.partial) and oracle.keywords == {"k": k}
    assert is_query(oracle)


def test_corpus_show_without_name(capsys):
    assert main(["corpus", "show"]) == 2
    assert_one_line_error(capsys, "needs a program name", "non-empty-set")


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--random", "20"]])
def test_verify_layered_guard_without_st_constants(nes_file, capsys, mode):
    assert main(["verify", nes_file, "--guard", "1-layered-st", "--domain", "3", *mode]) == 2
    assert_one_line_error(capsys, "needs constants s and t")


def test_init_builtin_is_a_parse_error(tmp_path, capsys):
    src = corpus_source("non_empty_set.dynp").replace("init    oracle", "init    builtin foo")
    with pytest.raises(ParseError, match="expected one of: empty, oracle, table"):
        parse_program(src)
    f = tmp_path / "builtin_init.dynp"
    f.write_text(src)
    assert main(["verify", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, program, script", [
    ("verify", "input   { U/\u00b9 }", None),
    ("verify", "input   { U\u00e9/1 }", None),
    ("run", "input   { U/1 }", "domain \u00b2\nins U(0)\n"),
    ("run", "input   { U/1 }", "domain 3\nins U(\u0663)\n"),
])
def test_a_non_ascii_digit_or_letter_is_a_parse_error(tmp_path, capsys, command, program, script):
    f = tmp_path / "bad.dynp"
    f.write_text(corpus_source("non_empty_set.dynp").replace("input   { U/1 }", program), encoding="utf-8")
    argv = [command, str(f)]
    if script is not None:
        (tmp_path / "s.txt").write_text(script, encoding="utf-8")
        argv.append(str(tmp_path / "s.txt"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1, err
    assert "unexpected character" in err


@pytest.mark.parametrize("command", ["verify", "transform", "replay"])
def test_a_corpus_program_is_parsed_once_per_invocation(command, reach_file, nes_file, tmp_path,
                                                        capsys, monkeypatch):
    import dynqf.cli
    import dynqf.corpus
    from dynqf.corpus import builtin_program
    from dynqf.program import empty_input_db
    from dynqf.serialize import counterexample_to_dict
    from dynqf.state import ins
    from dynqf.verify import CheckConfig, Counterexample, check_maintenance
    reach, nes = builtin_program("reach-1layer-qf"), builtin_program("non-empty-set")
    if command == "verify":
        argv = ["verify", reach_file, "--domain", "4", "--maxlen", "3", "--exhaustive"]
        v = check_maintenance(reach.program, reach.oracle,
                              CheckConfig(domain_size=4, max_len=3, guard=reach.instance_guard))
        expected = (f"verdict: ok (oracle st-reach, seed None, {v.checked_states} states / "
                    f"{v.checked_steps} steps)\n")
    elif command == "transform":
        argv = ["transform", nes_file, "--pass", "rel2fun", "-o", str(tmp_path / "out.dynp"), "--check"]
        expected = f"wrote {tmp_path / 'out.dynp'}\ndifferential check: original ok, transformed ok\n"
    else:
        db = empty_input_db(nes.program, 3)
        cex = Counterexample("non_empty_set", db, (ins("U", 0),), 1, False, True)
        (tmp_path / "cex.json").write_text(json.dumps(counterexample_to_dict(cex)))
        argv = ["replay", str(tmp_path / "cex.json"), nes_file]
        expected = "replay: divergence at step 1 DID NOT reproduce\n"
    parses = []

    def counting_parse(*args, **kwargs):
        parses.append(args[1:])
        return parse_program(*args, **kwargs)

    monkeypatch.setattr(dynqf.corpus, "_cache", {})
    monkeypatch.setattr(dynqf.corpus, "parse_program", counting_parse)
    monkeypatch.setattr(dynqf.cli, "parse_program", counting_parse)
    code = main(argv)
    assert (code, capsys.readouterr().out) == (1 if command == "replay" else 0, expected)
    assert len(parses) == 1
