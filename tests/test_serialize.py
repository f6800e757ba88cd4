import json

import pytest
from hypothesis import given, strategies as st

from dynqf.corpus import builtin_program, corpus_names, strawman_program
from dynqf.errors import DynqfError
from dynqf.program import empty_input_db, init_state, run
from dynqf.queries import oracle_nonemptyset
from dynqf.schema import make_schema
from dynqf.serialize import (canonical_json, counterexample_from_dict,
                             counterexample_to_dict, state_from_dict,
                             state_to_dict, trace_digest, verdict_to_dict)
from dynqf.state import INS, ins, make_state
from dynqf.transforms import relations_to_functions
from dynqf.verify import CheckConfig, _candidate_mods, check_maintenance


SCHEMA = make_schema(input_relations={"E": 2}, aux_relations={"Q": 0},
                     aux_functions={"g": 1}, constants=("s",))


@given(st.data())
def test_state_json_roundtrip(data):
    n = data.draw(st.integers(2, 4))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=5))
    g = {(i,): data.draw(st.integers(0, n - 1)) for i in range(n)}
    q = data.draw(st.booleans())
    s = make_state(SCHEMA, n, {"E": edges, "Q": {()} if q else set()},
                   {"g": g}, {"s": 0})
    assert state_from_dict(state_to_dict(s), SCHEMA) == s



@pytest.mark.parametrize("field, value, fragment", [
    ("domain", 3.0, "domain must be an integer, got 3.0"),
    ("relations", {"E": [[0, True]]}, "tuple elements must be integers, got [0, True]"),
    ("functions", {"g": [[[0.0], 0], [[1], 1], [[2], 2]]}, "function arguments must be integers, got [0.0]"),
    ("functions", {"g": [[[0], 0], [[1], False], [[2], 2]]}, "function values must be integers, got [0, False, 2]"),
    ("constants", {"s": 1.0}, "constants must be integers, got [1.0]"),
])
def test_a_state_document_holds_plain_ints(field, value, fragment):
    doc = state_to_dict(make_state(SCHEMA, 3, constants={"s": 1}))
    assert state_from_dict(doc, SCHEMA) == make_state(SCHEMA, 3, constants={"s": 1})
    doc[field] = value
    with pytest.raises(DynqfError) as exc:
        state_from_dict(doc, SCHEMA)
    assert str(exc.value) == fragment


def test_equal_states_serialize_identically():
    a = make_state(SCHEMA, 3, {"E": {(0, 1), (1, 2)}}, constants={"s": 0})
    b = make_state(SCHEMA, 3, {"E": {(1, 2), (0, 1)}}, constants={"s": 0})
    assert canonical_json(state_to_dict(a)) == canonical_json(state_to_dict(b))


def test_trace_digest_stable():
    entry = builtin_program("non-empty-set")
    p = entry.program
    t1 = run(p, init_state(p, empty_input_db(p, 3)), [ins("U", 0)])
    t2 = run(p, init_state(p, empty_input_db(p, 3)), [ins("U", 0)])
    assert trace_digest(t1) == trace_digest(t2)
    t3 = run(p, init_state(p, empty_input_db(p, 3)), [ins("U", 1)])
    assert trace_digest(t1) != trace_digest(t3)


def test_counterexample_roundtrip_and_verdict_doc():
    from dynqf.parser import parse_program
    broken = parse_program("""
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
    v = check_maintenance(broken, oracle_nonemptyset, CheckConfig(domain_size=3, max_len=4))
    doc = verdict_to_dict(v)
    assert doc["format"] == 1 and doc["exit_code"] == 1
    as_json = json.loads(json.dumps(doc))
    cex = counterexample_from_dict(as_json["counterexample"], broken.schema.input_only())
    assert cex.sequence == v.counterexample.sequence
    assert cex.trace_digest == v.counterexample.trace_digest
    assert counterexample_to_dict(cex) == as_json["counterexample"]


# Trace digests of the first six (or all, if fewer) guard-admitted
# insertions, in candidate order, from the empty database over 0..3.  Pinned, so that a change of the
# state representation that alters the serialization fails here.
GOLDEN_DIGESTS = {
    "non-empty-set": "1da19356f2789e4ab450c9d02c52caec332986e7a81b93c97bbf808e556fec09",
    "reach-1layer-qf": "0e785751f71cabd7e1f029a5f96f2b5534f256705cdd1d4baab5a80d07ec93fb",
    "s-twopath-ternary": "de7cbad9aad6eae872e77b1efddcf8e32f4ea342e6e628b6f5b9b0e227704973",
    "st-twopath-binary": "80856192c7762472d4f41fbb240a14d24402a89aa8cdd468b9ccf1257e27666c",
    "unary-twopath-naive": "349706f4a83582d9679affaf03dc8e7f266c804c6c08470001cde5ee6f598932",
    "binary-reach2-naive": "dd4f4b3fb2c6c696fc67e8e756638293a0b8cf21f03d01dc1ea1f52e69759c58",
    "cq-nonemptyset-naive": "fca4a590e1a9e9a82ae28616c130a5eb5bebd782d5e841c138d02462d0d2423c",
    "non-empty-set/rel2fun": "f8b46cfa65ce73e5e9e3db4c0b26dd78cd89f53f2baf1a4aaf0ada95ab5f29c4",
    "reach-1layer-qf/rel2fun": "3d0fe7c3e7cc09c5814e6fc047fb1892e799d232a766bd7a7e3ef7f9676c9096",
    "s-twopath-ternary/rel2fun": "1036413af2ab5e516120e52c94d0ff16d25daae5e6c2cb6c34fa05da440b6655",
    "st-twopath-binary/rel2fun": "501be91800644612b7438fd1d583878d8f30ba92975b4bce88e78a705ac024e1",
    "unary-twopath-naive/rel2fun": "f2da96f400c1f00a796abd0f29394a57864d9fba20f1e541f70b082e4d9fc2ef",
    "binary-reach2-naive/rel2fun": "390a576f0e8113f4dc67cf6df48dbdb27c315836aa6859aa1546313f72b548ee",
    "cq-nonemptyset-naive/rel2fun": "2d1cad8300ef137dba431e65feea58efa8616c83b27367ed8a43c43d19dee844",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_trace_digests(name):
    base, _, transformed = name.partition("/")
    if base in corpus_names():
        entry = builtin_program(base)
        p, guard = entry.program, entry.instance_guard
    else:
        p, guard = strawman_program(base), None
    if transformed:
        p = relations_to_functions(p)
    s0 = init_state(p, empty_input_db(p, 4))
    seq = [m for m in _candidate_mods(p, 4)
           if m.kind == INS and (guard is None or guard(m, 4, s0.constants))][:6]
    assert trace_digest(run(p, s0, seq)) == GOLDEN_DIGESTS[name]
