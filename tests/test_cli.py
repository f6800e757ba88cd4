import json

import pytest

from dynqf.cli import main
from dynqf.corpus import corpus_source


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


def test_run_honesty_violation(nes_file, tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("domain 3\nins U(0)\nins U(0)\n")
    assert main(["run", nes_file, str(script), "--honest"]) == 2
    assert "step 2" in capsys.readouterr().err


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


def test_verify_unknown_oracle(nes_file, capsys):
    assert main(["verify", nes_file, "--oracle", "nope", "--domain", "3"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_replay_counterexample_roundtrip(broken_file, tmp_path, capsys):
    code = main(["verify", broken_file, "--oracle", "non-empty-set",
                 "--domain", "3", "--maxlen", "4", "--exhaustive", "--json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    cex_path = tmp_path / "cex.json"
    cex_path.write_text(json.dumps(doc["counterexample"]))
    assert main(["replay", str(cex_path), broken_file, "--oracle", "non-empty-set"]) == 0
    assert "reproduced" in capsys.readouterr().out


def test_attack_star_witness_exit_one(tmp_path, capsys):
    f = tmp_path / "unary.dynp"
    f.write_text(corpus_source("strawmen/unary_twopath_naive.dynp"))
    assert main(["attack", str(f), "--driver", "star-deletion", "--n", "6"]) == 1
    out = capsys.readouterr().out
    assert "witness found" in out and "self-validation: True" in out


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
