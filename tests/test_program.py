import hashlib
import itertools
import json
import random
from functools import partial

import pytest

from dynqf.cli import main
from dynqf.corpus import builtin_program
from dynqf.errors import DynqfError, ProgramError, RejectedSequenceError, SchemaError
from dynqf.formulas import App, FALSE, RelAtom, Var
from dynqf.parser import parse_program
from dynqf.program import (EXHAUSTIVE_CAP, DynamicProgram, InitSpec, UpdateRule,
                           _reference_apply, apply, assemble_state, empty_input_db, init_state,
                           is_invariant_init, run, validate_program)
from dynqf.schema import make_schema
from dynqf.serialize import state_to_dict
from dynqf.state import delete, ins, make_state, transport
from test_compiler import _shipped_with_transforms, random_program


def nes():
    return builtin_program("non-empty-set").program


def start(p, n):
    return init_state(p, empty_input_db(p, n))


def test_nonemptyset_first_insert():
    p = nes()
    s1 = apply(p, start(p, 3), ins("U", 0))
    assert s1.query_value("Q") is True
    assert s1.rel("First") == {(0,)} and s1.rel("Last") == {(0,)} and s1.rel("List") == frozenset()


def test_nonemptyset_second_insert_builds_list():
    p = nes()
    s = run(p, start(p, 3), [ins("U", 0), ins("U", 1)])[-1]
    assert s.rel("First") == {(0,)} and s.rel("Last") == {(1,)} and s.rel("List") == {(0, 1)}
    assert s.query_value("Q") is True


def test_nonemptyset_deletions():
    p = nes()
    s = run(p, start(p, 3), [ins("U", 0), ins("U", 1), delete("U", 0)])[-1]
    assert s.rel("First") == {(1,)} and s.rel("Last") == {(1,)} and s.rel("List") == frozenset()
    assert s.query_value("Q") is True
    s2 = apply(p, s, delete("U", 1))
    assert s2.query_value("Q") is False


def test_run_empty_sequence():
    p = nes()
    s0 = start(p, 2)
    assert run(p, s0, []) == [s0]


def test_run_honest_rejects_with_step():
    p = nes()
    with pytest.raises(RejectedSequenceError) as exc:
        run(p, start(p, 2), [ins("U", 0), ins("U", 0)], honest_only=True)
    assert exc.value.step == 2


def _differential_walk(p, s, rng, steps=25, guard=None, honest=False):
    """Random modifications of the first input relation, each applied by the
    compiled applier and by the reference evaluator; honest walks insert
    absent tuples and delete present ones."""
    rel = p.schema.input_relations[0]
    ar = p.schema.arity(rel)
    n = s.n
    for _ in range(steps):
        tup = tuple(rng.randrange(n) for _ in range(ar))
        if honest:
            m = delete(rel, *tup) if tup in s.rel(rel) else ins(rel, *tup)
        else:
            m = ins(rel, *tup) if rng.random() < 0.6 else delete(rel, *tup)
        if guard is not None and not guard(m, n, s.constants):
            continue
        fast = apply(p, s, m)
        slow = _reference_apply(p, s, m)
        assert fast == slow
        s = fast
    return s


def test_compiled_and_reference_apply_agree():
    rng = random.Random(5)
    for name in ("non-empty-set", "st-twopath-binary", "reach-1layer-qf", "s-twopath-ternary"):
        entry = builtin_program(name)
        guard = entry.instance_guard if entry.guard_name != "any" else None
        _differential_walk(entry.program, start(entry.program, 4), rng, guard=guard)
    # long honest walks grow the successor and witness lists, so that
    # deletions take list ends and links out of them
    for name in ("s-twopath-ternary", "st-twopath-binary"):
        p = builtin_program(name).program
        _differential_walk(p, start(p, 5), rng, steps=200, honest=True)


def test_compiled_and_reference_agree_on_ite_and_zero_ary_functions():
    from dynqf.transforms import relations_to_functions
    rng = random.Random(7)
    p = relations_to_functions(builtin_program("non-empty-set").program)
    _differential_walk(p, start(p, 4), rng)


def test_compiled_and_reference_agree_on_random_programs():
    # the deepest engine differential: random rule bodies over a mixed
    # schema, random walks, compiled output must equal the reference
    rng = random.Random(99)
    for trial in range(60):
        p = random_program(rng, f"rand{trial}")
        sch = p.schema
        n = 3 + trial % 2
        s = init_state(p, make_state(sch.input_only(), n, {}, constants={"s": trial % n}))
        for _ in range(20):
            rel = rng.choice(("E", "U"))
            tup = tuple(rng.randrange(n) for _ in range(sch.arity(rel)))
            m = ins(rel, *tup) if rng.random() < 0.5 else delete(rel, *tup)
            fast = apply(p, s, m)
            slow = _reference_apply(p, s, m)
            assert fast == slow, (trial, m)
            s = fast


def _defective(defect: str) -> DynamicProgram:
    """non-empty-set, or for "formula-body" a program with an aux function,
    with one defect that validate_program names."""
    if defect == "formula-body":
        schema = make_schema(input_relations={"U": 1}, aux_relations={"Q": 0}, aux_functions={"g": 1})
        rules = {(target, kind, "U"): UpdateRule(target, kind, "U", ("a",), params, body)
                 for kind in ("ins", "del")
                 for target, params, body in (("Q", (), FALSE), ("g", ("x",), App("g", (Var("x"),))))}
        rules[("g", "ins", "U")] = UpdateRule("g", "ins", "U", ("a",), ("x",), FALSE)
        return DynamicProgram("defective", schema, rules, "Q", InitSpec("empty"))
    p = builtin_program("non-empty-set").program
    rules, query = dict(p.rules), "U" if defect == "query" else "Q"
    first = rules[("First", "ins", "U")]
    params, tparams, body = first.params, first.target_params, first.body
    if defect == "key":
        rules[first.key], rules[("Last", "ins", "U")] = rules[("Last", "ins", "U")], first
    elif defect == "trigger-params":
        params = ("a", "b")
    elif defect == "target-params":
        tparams = ("x", "y")
    elif defect == "term-body":
        body = Var("x")
    elif defect == "unbound":
        body = RelAtom("First", (Var("z"),))
    elif defect == "unknown-symbol":
        body = RelAtom("Nope", (Var("x"),))
    if defect != "key":
        rules[first.key] = UpdateRule("First", "ins", "U", params, tparams, body)
    return DynamicProgram("defective", p.schema, rules, query, p.init)


@pytest.mark.parametrize("defect, message", [
    ("query", "query symbol 'U' must be an aux relation"),
    ("key", "rule stored under wrong key ('First', 'ins', 'U')"),
    ("trigger-params", "First: trigger params do not match arity of 'U'"),
    ("target-params", "First: target params do not match its arity"),
    ("term-body", "First: relation target needs a formula body"),
    ("formula-body", "g: function target needs a term body"),
    ("unbound", "First: unbound variables ['z'] in rule body"),
    ("unknown-symbol", "First: unknown symbol 'Nope' in rule body"),
])
def test_validate_program_names_each_defect(defect, message):
    with pytest.raises(ProgramError) as exc:
        validate_program(_defective(defect))
    assert str(exc.value) == message


def test_compiled_and_reference_agree_with_builtin_relations():
    from dynqf.parser import parse_program
    src = """
program with_builtin_rel
input   { U/1 }
aux     { Q/0, A/1 }
builtin { Le/2 }
query   Q
init    table { Le = (0,0) (0,1) (0,2) (1,1) (1,2) (2,2) }
on insert U(u):
  Q():  Q() | Le(u, u)
  A(x): A(x) | (Le(u, x) & x != u)
on delete U(u):
  Q():  Q() & !Le(u, u)
  A(x): A(x) & !Le(x, u)
"""
    p = parse_program(src)
    rng = random.Random(11)
    _differential_walk(p, start(p, 3), rng)


def test_simultaneity_rule_order_is_irrelevant():
    p = nes()
    shuffled = dict(reversed(list(p.rules.items())))
    from dynqf.program import DynamicProgram
    q = DynamicProgram(p.name, p.schema, shuffled, p.query_symbol, p.init)
    s0 = start(p, 3)
    seq = [ins("U", 0), ins("U", 1), delete("U", 0)]
    assert run(p, s0, seq) == run(q, start(q, 3), seq)


def test_empty_init_all_aux_empty():
    sch = make_schema(input_relations={"U": 1}, aux_relations={"Q": 0, "A": 2},
                      aux_functions={"g": 1})
    from dynqf.program import DynamicProgram, frame_rule
    rules = {}
    for target in ("Q", "A", "g"):
        for kind in ("ins", "del"):
            rules[(target, kind, "U")] = frame_rule(sch, target, kind, "U")
    p = DynamicProgram("framey", sch, rules, "Q", InitSpec("empty"))
    s0 = init_state(p, empty_input_db(p, 3))
    assert s0.rel("Q") == frozenset() and s0.rel("A") == frozenset()
    # canonical default: projection onto the first argument
    assert s0.fun("g") == {(0,): 0, (1,): 1, (2,): 2}


def test_oracle_init_replays_sorted_insertions():
    p = nes()
    db = make_state(p.schema.input_only(), 3, {"U": {(0,), (1,)}})
    s0 = init_state(p, db)
    # replay order is sorted: 0 then 1
    assert s0.rel("First") == {(0,)} and s0.rel("Last") == {(1,)} and s0.rel("List") == {(0, 1)}
    assert s0.query_value("Q") is True


def test_reach_base_state():
    r = builtin_program("reach-1layer-qf").program
    s0 = start(r, 5)
    assert s0.rel("C") == {(0,)}
    assert s0.query_value("Q") is False
    assert s0.rel("ConS") == frozenset() and s0.rel("ConT") == frozenset()
    assert s0.fun("Succ")[(4,)] == 4 and s0.fun("Pred")[(0,)] == 0


def test_init_state_schema_mismatch():
    p = nes()
    other = make_state(make_schema(input_relations={"V": 1}), 2)
    with pytest.raises(SchemaError):
        init_state(p, other)


# -- initialization invariance -------------------------------------------------

TOY = make_schema(input_relations={"U": 1}, aux_relations={"A": 1})


def toy_db(n, members=()):
    return make_state(TOY.input_only(), n, {"U": {(m,) for m in members}})


# the recipes of criterion 10, as functions from an input database to a state
def empty_init(schema):
    return lambda db: assemble_state(schema, db, {}, {})


def copy_init(schema):  # A copies U
    return lambda db: assemble_state(schema, db, {"A": db.relations["U"]}, {})


def fixed_element_init(schema):  # A marks element 0, whatever the input
    return lambda db: assemble_state(schema, db, {"A": {(0,)}}, {})


def const_s_init(schema):  # g maps every element to the value of s
    return lambda db: assemble_state(schema, db, {}, {"g": {(i,): db.constants["s"] for i in range(db.n)}})


def test_empty_init_is_invariant():
    assert is_invariant_init(empty_init(TOY), toy_db(4, (1,)))


def test_copy_input_init_is_invariant():
    assert is_invariant_init(copy_init(TOY), toy_db(4, (1, 2)))


def test_fixed_element_init_is_rejected():
    assert not is_invariant_init(fixed_element_init(TOY), toy_db(3))


def test_const_function_init_is_invariant():
    sch = make_schema(input_relations={"E": 2}, aux_functions={"g": 1}, constants=("s", "t"))
    db = make_state(sch.input_only(), 4, {"E": {(0, 1)}}, constants={"s": 0, "t": 3})
    assert is_invariant_init(const_s_init(sch), db)


def test_oracle_init_of_list_program_is_not_invariant():
    # the replay order bakes element identities into the list
    p = nes()
    assert not is_invariant_init(partial(init_state, p), make_state(
        p.schema.input_only(), 3,
        {"U": frozenset({(0,), (1,)})}, {}, {}))


def test_invariance_beyond_the_exhaustive_cap_tries_200_permutations_seeded_with_0():
    n = EXHAUSTIVE_CAP + 1
    db = toy_db(n, (1, 5))
    assert not is_invariant_init(fixed_element_init(TOY), db)
    seen = [[], []]
    for log in seen:
        def build(d, log=log):
            log.append(d)
            return empty_init(TOY)(d)
        assert is_invariant_init(build, db)
    first = dict(enumerate(random.Random(0).sample(range(n), n)))
    assert len(seen[0]) == 201 and seen[0] == seen[1]
    assert seen[0][:2] == [db, transport(db, first)]


# -- initial states, pinned ----------------------------------------------------

def _seeded_db(p, n, rng):
    layout = empty_input_db(p, n)
    rels = {name: {t for t in itertools.product(range(n), repeat=p.schema.arity(name)) if rng.random() < 0.3}
            for name in sorted(p.schema.input_relations)}
    return make_state(layout.schema, n, rels, {}, layout.constants)


# sha256 over the serialized initial states below, in order: every shipped
# program and its transforms, under its own `init oracle <base>` and under
# `init empty <base>`, at n = 2..5, on the empty and two seeded databases
INIT_STATES_SHA256 = "a60a17b7b3c3753063c91ab080e1b12c04ce323f2ac650f8f307be45021184be"


def test_initial_states_are_pinned():
    digest, count, rng = hashlib.sha256(), 0, random.Random(19)
    for p in _shipped_with_transforms():
        for kind in ("oracle", "empty"):
            q = DynamicProgram(p.name, p.schema, p.rules, p.query_symbol, InitSpec(kind, p.init.base))
            for n in range(2, 6):
                for db in (empty_input_db(p, n), _seeded_db(p, n, rng), _seeded_db(p, n, rng)):
                    doc = state_to_dict(init_state(q, db))
                    digest.update(json.dumps(doc, sort_keys=True).encode())
                    count += 1
    assert (count, digest.hexdigest()) == (480, INIT_STATES_SHA256)


def test_schema_initializers_build_the_criterion_10_states():
    toy = make_schema(input_relations={"U": 1}, aux_relations={"A": 1})
    db = make_state(toy.input_only(), 5, {"U": {(1,), (3,)}})
    sch = make_schema(input_relations={"E": 2}, aux_functions={"g": 1}, constants=("s", "t"))
    edges = {(0, a) for a in (1, 2, 3)} | {(a, 4) for a in (1, 2, 3)}
    gdb = make_state(sch.input_only(), 5, {"E": edges}, constants={"s": 0, "t": 4})
    built = {k: state_to_dict(s) for k, s in {
        "empty": empty_init(toy)(db),
        "copy": copy_init(toy)(db),
        "fixed": fixed_element_init(toy)(db),
        "const": const_s_init(sch)(gdb),
        "empty-fun": empty_init(sch)(gdb),
    }.items()}
    u = [[1], [3]]
    assert built["empty"]["relations"] == {"A": [], "U": u}
    assert built["copy"]["relations"] == {"A": u, "U": u}
    assert built["fixed"]["relations"] == {"A": [[0]], "U": u}
    assert built["const"]["relations"] == {"E": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]}
    assert built["const"]["functions"] == {"g": [[[i], 0] for i in range(5)]}
    assert built["empty-fun"]["functions"] == {"g": [[[i], i] for i in range(5)]}
    assert {d["constants"].get("t") for d in (built["const"], built["empty-fun"])} == {4}
    assert all(d["domain"] == 5 and not d["functions"] for d in
               (built["empty"], built["copy"], built["fixed"]))


_TABLE_PROGRAM = """
program table_input
input { U/1 }
aux   { Q/0, A/1 }
query Q
init  table { U = (1); A = (0) (2) }
on insert U(a):
  Q(): true
  A(x): A(x)
on delete U(a):
  Q(): false
  A(x): A(x)
"""


def test_a_table_entry_overrides_the_input_relation():
    p = parse_program(_TABLE_PROGRAM)
    s0 = init_state(p, empty_input_db(p, 3))
    assert s0.rel("U") == {(1,)} and s0.rel("A") == {(0,), (2,)} and s0.rel("Q") == frozenset()
    s0 = init_state(p, make_state(p.schema.input_only(), 3, {"U": {(0,), (2,)}}))
    assert s0.rel("U") == {(1,)}


@pytest.mark.parametrize("base", ["nosuch", "rel2fun__nosuch"])
def test_an_unknown_base_is_named(base):
    p = parse_program(_TABLE_PROGRAM.replace("table { U = (1); A = (0) (2) }", f"oracle {base}"))
    with pytest.raises(DynqfError, match=r"^unknown base initializer 'nosuch'$"):
        init_state(p, empty_input_db(p, 3))


@pytest.mark.parametrize("base", ["nosuch", "rel2fun__nosuch"])
def test_an_unknown_base_is_an_input_error_on_the_cli(base, tmp_path, capsys):
    f = tmp_path / "unknown_base.dynp"
    f.write_text(_TABLE_PROGRAM.replace("table { U = (1); A = (0) (2) }", f"oracle {base}"))
    assert main(["verify", str(f), "--oracle", "non-empty-set", "--domain", "3", "--maxlen", "2"]) == 2
    assert capsys.readouterr().err == "error: unknown base initializer 'nosuch'\n"
