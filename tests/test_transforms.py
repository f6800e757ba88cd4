import itertools

import pytest

from dynqf.corpus import builtin_program
from dynqf.errors import TransformError
from dynqf.formulas import And, RelAtom, atom, classify_syntax
from dynqf.parser import parse_program
from dynqf.program import _reference_apply, apply, empty_input_db, init_state
from dynqf.schema import Role
from dynqf.state import INS, DEL, Modification, is_honest
from dynqf.transforms import (C_TOP, deletion_depth, dependency_graph,
                              eliminate_repeated_variables, relations_to_functions)


def decode_function_state(p, s):
    """Read the encoded relations back out of a transformed program's state:
    args in R iff f_R(args) = c_top."""
    top = s.functions[C_TOP][()]
    return {name[2:]: frozenset(args for args, val in s.functions[name].items() if val == top)
            for name in p.schema.functions
            if p.schema.role(name) is Role.AUX and name.startswith("f_")}


EXAMPLE_SRC = """
program example
input { U/1 }
aux   { Q/0, R/2, S/2 }
query Q
init  empty
on insert U(u):
  Q(): Q() | R(u,u)
  R(x,y): S(x,y) & R(x,x)
  S(x,y): S(x,y)
on delete U(u):
  Q(): Q()
  R(x,y): R(x,y)
  S(x,y): S(x,y)
"""


def paired_differential(p1, p2, n, maxlen):
    """Exhaustively run both programs on every honest sequence and compare
    the query bit at every step."""
    s1 = init_state(p1, empty_input_db(p1, n))
    s2 = init_state(p2, empty_input_db(p2, n))
    rel = p1.schema.input_relations[0]
    ar = p1.schema.arity(rel)
    mods = [Modification(rel, t, k)
            for t in itertools.product(range(n), repeat=ar) for k in (INS, DEL)]
    checked = 0

    def rec(a, b, depth):
        nonlocal checked
        checked += 1
        assert a.query_value(p1.query_symbol) == b.query_value(p2.query_symbol)
        if depth == 0:
            return
        for m in mods:
            if not is_honest(a, m):
                continue
            rec(apply(p1, a, m), apply(p2, b, m), depth - 1)

    rec(s1, s2, maxlen)
    return checked


def test_dedup_reproduces_expected_program():
    p = parse_program(EXAMPLE_SRC)
    q = eliminate_repeated_variables(p)
    # fresh unary relations for R and S under the both-positions partition
    assert q.schema.relations["R_12"] == 1
    assert q.schema.relations["S_12"] == 1
    assert q.rule("R", INS, "U").body == And(atom("S", "x", "y"), atom("R_12", "x"))
    assert q.rule("S", INS, "U").body == atom("S", "x", "y")
    assert q.rule("R_12", INS, "U").body == And(atom("S_12", "x"), atom("R_12", "x"))
    assert q.rule("S_12", INS, "U").body == atom("S_12", "x")
    from dynqf.formulas import Or
    assert q.rule("Q", INS, "U").body == Or(atom("Q"), atom("R_12", "u"))


def test_dedup_no_repeats_and_arity_bound():
    p = parse_program(EXAMPLE_SRC)
    q = eliminate_repeated_variables(p)
    for rule in q.rules.values():
        assert not classify_syntax(rule.body).repeated_vars_in_atom
    for name, ar in q.schema.relations.items():
        assert ar <= p.schema.relations.get(name, ar if name not in ("R_12", "S_12") else 2)
    assert q.schema.relations["R_12"] <= p.schema.relations["R"]


def test_dedup_is_identity_modulo_schema_when_no_repeats():
    p = builtin_program("non-empty-set").program
    q = eliminate_repeated_variables(p)
    assert q.schema.relations == p.schema.relations
    assert {k: r.body for k, r in q.rules.items()} == {k: r.body for k, r in p.rules.items()}


def test_dedup_differential_exhaustive():
    p = parse_program(EXAMPLE_SRC)
    q = eliminate_repeated_variables(p)
    # 3 honest choices at every state: 1 + 3 + ... + 3^5 prefixes
    checked = paired_differential(p, q, 3, 5)
    assert checked == 364


TABLE_SRC = """
program loops
input { E/2 }
aux   { Q/0, R/2 }
query Q
init  table { R = (0,0) (1,2) (2,2) }
on insert E(a,b):
  Q(): R(b,b)
  R(x,y): R(x,y) | (x = a & y = b)
on delete E(a,b):
  Q(): R(a,a) & a != b
  R(x,y): R(x,y) & !(x = a & y = b)
"""


def test_dedup_carries_an_init_table_to_the_fresh_relations():
    p = parse_program(TABLE_SRC)
    q = eliminate_repeated_variables(p)
    # R_12 holds the tuples of R whose two positions are equal, collapsed
    s = init_state(q, empty_input_db(q, 3))
    assert s.rel("R_12") == {(0,), (2,)} and s.rel("R") == {(0, 0), (1, 2), (2, 2)}
    # 9 honest choices at every state: 1 + 9 + 81 + 729 prefixes
    assert paired_differential(p, q, 3, 3) == 820


def test_dedup_rejects_function_programs():
    r = builtin_program("reach-1layer-qf").program
    with pytest.raises(TransformError):
        eliminate_repeated_variables(r)


def test_dedup_handles_constants_in_atoms():
    src = """
program with_consts
input { E/2 }
aux   { Q/0, R/3 }
const s
query Q
init  empty
on insert E(u,v):
  Q(): R(u,s,u)
  R(x,y,z): R(x,y,z) | (x = u & y = s & z = u)
on delete E(u,v):
  Q(): Q()
  R(x,y,z): R(x,y,z)
"""
    p = parse_program(src)
    q = eliminate_repeated_variables(p)
    body = q.rule("Q", INS, "E").body
    assert isinstance(body, RelAtom) and body.symbol == "R_13_2"
    assert q.schema.relations["R_13_2"] == 2
    paired_differential(p, q, 3, 3)


def test_rel2fun_round_trip_and_canonical_constants():
    p = builtin_program("non-empty-set").program
    f = relations_to_functions(p)
    s0 = init_state(f, empty_input_db(f, 2))
    assert s0.fun("c_top")[()] == 0 and s0.fun("c_bot")[()] == 1
    # encode/decode identity on a reachable state
    from dynqf.state import ins
    s1 = apply(f, s0, ins("U", 1))
    p1 = apply(p, init_state(p, empty_input_db(p, 2)), ins("U", 1))
    decoded = decode_function_state(f, s1)
    for name in ("First", "Last", "List"):
        assert decoded[name] == p1.rel(name)


def test_rel2fun_decode_identity_along_random_walk():
    import random
    from dynqf.state import delete, ins, is_honest
    p = builtin_program("non-empty-set").program
    f = relations_to_functions(p)
    sp = init_state(p, empty_input_db(p, 4))
    sf = init_state(f, empty_input_db(f, 4))
    rng = random.Random(13)
    for _ in range(30):
        e = rng.randrange(4)
        m = ins("U", e) if is_honest(sp, ins("U", e)) else delete("U", e)
        sp, sf = apply(p, sp, m), apply(f, sf, m)
        decoded = decode_function_state(f, sf)
        for name in ("First", "Last", "List"):
            assert decoded[name] == sp.rel(name)
        assert sf.query_value("Q") == sp.query_value("Q")


def test_rel2fun_empty_relation_encodes_constant_bottom():
    p = builtin_program("non-empty-set").program
    f = relations_to_functions(p)
    s0 = init_state(f, empty_input_db(f, 3))
    bot = s0.fun("c_bot")[()]
    assert set(s0.fun("f_List").values()) == {bot}


def test_rel2fun_differential_exhaustive():
    p = builtin_program("non-empty-set").program
    f = relations_to_functions(p)
    paired_differential(p, f, 3, 4)


def test_rel2fun_small_domain_rejected():
    p = builtin_program("non-empty-set").program
    f = relations_to_functions(p)
    with pytest.raises(TransformError):
        init_state(f, empty_input_db(f, 1))


def test_rel2fun_rejects_a_taken_function_name():
    # the encoding reads R back from the name f_R, so a renamed f_Cx would
    # start from an empty C: Q after ins E(0) would read False, not True
    p = parse_program("""
program clash
input   { E/1, f_C/1 }
aux     { Q/0, C/1 }
query   Q
init    oracle reach1layer_base
default frame
on insert E(a):
  Q(): C(a)
""")
    s = apply(p, init_state(p, empty_input_db(p, 3)), Modification("E", (0,), INS))
    assert s.query_value("Q") is True
    with pytest.raises(TransformError, match="^symbol name f_C is taken$"):
        relations_to_functions(p)


def test_rel2fun_twice_passes_through():
    p = builtin_program("non-empty-set").program
    once = relations_to_functions(p)
    assert relations_to_functions(once) is once


def test_dependency_graph_examples():
    src = """
program deps
input { U/1 }
aux   { Q/0, R/1, S/1 }
query Q
init  empty
on insert U(u):
  Q(): Q()
  R(x): R(x)
  S(x): S(x)
on delete U(u):
  Q(): Q() & R(u)
  R(x): R(x)
  S(x): Q() | S(x)
"""
    p = parse_program(src)
    g = dependency_graph(p, deletions_only=True)
    assert g["Q"] == {"Q", "R"}
    assert g["R"] == {"R"}  # self-loop
    assert g["S"] == {"Q", "S"}
    depths = deletion_depth(p)
    assert depths["Q"] == 0 and depths["R"] == 1
    assert depths["S"] is None  # nothing reaches S from Q


def test_deletion_depth_of_query_always_zero():
    for name in ("non-empty-set", "st-twopath-binary"):
        p = builtin_program(name).program
        assert deletion_depth(p)[p.query_symbol] == 0


# -- atoms inside ite conditions ------------------------------------------------------

ITE_UNARY_SRC = """
program ite_unary
input { E/1 }
aux   { Q/0, R/1 }
const s
query Q
init  empty
on insert E(a):
  Q(): ite(R(s), s, a) = a
  R(x): R(x) | x = a
on delete E(a):
  Q(): ite(R(s), s, a) = a
  R(x): R(x) & x != a
"""

ITE_BINARY_SRC = """
program ite_binary
input { E/2 }
aux   { Q/0, R/2 }
const s
query Q
init  empty
on insert E(a,b):
  Q(): ite(R(a,a), s, b) = a
  R(x,y): R(x,y) | (x = a & y = b)
on delete E(a,b):
  Q(): ite(R(a,a), s, b) = a
  R(x,y): R(x,y) & !(x = a & y = b)
"""


def seeded_walks_agree(p1, p2, n, seed, walks=20, length=8):
    """Both programs give the same query value at every step of seeded
    random walks, under the compiled and under the reference evaluator."""
    import random
    rng = random.Random(seed)
    rel = p1.schema.input_relations[0]
    tuples = list(itertools.product(range(n), repeat=p1.schema.arity(rel)))
    for step in (apply, _reference_apply):
        for _ in range(walks):
            a = init_state(p1, empty_input_db(p1, n))
            b = init_state(p2, empty_input_db(p2, n))
            for _ in range(length):
                t = rng.choice(tuples)
                m = Modification(rel, t, DEL if t in a.rel(rel) else INS)
                a, b = step(p1, a, m), step(p2, b, m)
                assert a.query_value(p1.query_symbol) == b.query_value(p2.query_symbol)


def test_rel2fun_rewrites_atoms_inside_ite_conditions():
    from dynqf.printer import print_formula
    p = parse_program(ITE_UNARY_SRC)
    f = relations_to_functions(p)
    for kind in (INS, DEL):
        assert print_formula(f.rule("Q", kind, "E").body) == "ite(f_R(s) = c_top(), s, a) = a"
    seeded_walks_agree(p, f, 3, seed=7)


def test_dedup_rewrites_atoms_inside_ite_conditions():
    from dynqf.printer import print_formula
    p = parse_program(ITE_BINARY_SRC)
    q = eliminate_repeated_variables(p)
    for kind in (INS, DEL):
        assert print_formula(q.rule("Q", kind, "E").body) == "ite(R_12(a), s, b) = a"
    for rule in q.rules.values():
        assert not classify_syntax(rule.body).repeated_vars_in_atom
    seeded_walks_agree(p, q, 3, seed=7)
