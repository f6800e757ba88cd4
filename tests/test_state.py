import itertools

import pytest
from hypothesis import given, strategies as st

from dynqf.compiler import context_for_state
from dynqf.corpus import builtin_program, corpus_names
from dynqf.errors import DomainError, DynqfError, NotClosedError
from dynqf.program import apply, empty_input_db, init_state
from dynqf.schema import make_schema
from dynqf.serialize import state_from_dict, state_to_dict
from dynqf.state import (MAX_DOMAIN, apply_input_modification, check_isomorphism, delete,
                         ins, is_honest, make_state, restrict, transport)
from dynqf.transforms import relations_to_functions
from dynqf.verify import _candidate_mods

GRAPH = make_schema(input_relations={"E": 2}, constants=("s", "t"))
SET = make_schema(input_relations={"U": 1})


def graph(n, edges, s=0, t=None):
    return make_state(GRAPH, n, {"E": edges}, constants={"s": s, "t": n - 1 if t is None else t})


def test_insert_into_empty():
    s = make_state(SET, 2)
    assert apply_input_modification(s, ins("U", 0)).rel("U") == {(0,)}


def test_delete_removes():
    s = make_state(SET, 2, {"U": {(0,)}})
    assert apply_input_modification(s, delete("U", 0)).rel("U") == frozenset()


def test_reinsert_is_idempotent():
    s = make_state(SET, 2, {"U": {(0,)}})
    assert apply_input_modification(s, ins("U", 0)).rel("U") == {(0,)}


def test_modification_errors():
    s = make_state(SET, 2)
    with pytest.raises(Exception):
        apply_input_modification(s, ins("V", 0))
    with pytest.raises(Exception):
        apply_input_modification(s, ins("U", 0, 1))
    with pytest.raises(DomainError):
        apply_input_modification(s, ins("U", 5))


def test_del_after_ins_roundtrip():
    s = make_state(SET, 3, {"U": {(1,)}})
    back = apply_input_modification(apply_input_modification(s, ins("U", 0)), delete("U", 0))
    assert back == s


def test_honesty():
    s = make_state(SET, 2, {"U": {(0,)}})
    assert is_honest(s, ins("U", 1))
    assert not is_honest(s, ins("U", 0))
    assert is_honest(s, delete("U", 0))
    assert not is_honest(s, delete("U", 1))


def test_restrict_filters_tuples():
    # domain {s,a,b,t}: E={(s,a),(b,t)}; keep {s,a,t} -> only (s,a) survives
    g = graph(4, {(0, 1), (2, 3)})
    r = restrict(g, {0, 1, 3})
    assert r.rel("E") == {(0, 1)}
    assert r.constants == {"s": 0, "t": 2}


def test_restrict_missing_constant_errors():
    g = graph(3, set())
    with pytest.raises(DomainError):
        restrict(g, {0, 1})  # misses t


def test_restrict_identity():
    g = graph(3, {(0, 1)})
    assert restrict(g, set(g.domain)) == g


def test_restrict_function_not_closed():
    sch = make_schema(input_relations={"E": 2}, builtin_functions={"f": 1})
    s = make_state(sch, 3, {}, {"f": {(0,): 2, (1,): 1, (2,): 2}})
    with pytest.raises(NotClosedError):
        restrict(s, {0, 1})
    r = restrict(s, {0, 1}, relations_only=True)
    assert "f" not in r.functions


def test_isomorphism_identity_and_symmetry():
    g = graph(3, {(0, 1), (1, 2)})
    assert check_isomorphism(g, g, {e: e for e in g.domain})
    sch = make_schema(input_relations={"U": 1})
    a = make_state(sch, 2, {"U": {(0,)}})
    b = make_state(sch, 2, {"U": {(1,)}})
    assert check_isomorphism(a, b, {0: 1, 1: 0})
    assert not check_isomorphism(a, b, {0: 0, 1: 1})


def test_isomorphism_cardinality_mismatch():
    sch = make_schema(input_relations={"List": 2})
    a = make_state(sch, 2, {"List": {(0, 1)}})
    b = make_state(sch, 2, {"List": set()})
    for perm in itertools.permutations(range(2)):
        assert not check_isomorphism(a, b, dict(enumerate(perm)))


def test_isomorphism_requires_bijection():
    g = graph(3, set())
    with pytest.raises(DynqfError):
        check_isomorphism(g, g, {0: 0, 1: 0, 2: 2})


def test_isomorphism_functions_commute():
    sch = make_schema(input_relations={"E": 2}, builtin_functions={"f": 1})
    a = make_state(sch, 2, {}, {"f": {(0,): 1, (1,): 0}})
    b = make_state(sch, 2, {}, {"f": {(0,): 1, (1,): 0}})
    assert check_isomorphism(a, b, {0: 1, 1: 0})
    c = make_state(sch, 2, {}, {"f": {(0,): 0, (1,): 0}})
    assert not check_isomorphism(a, c, {0: 0, 1: 1})


@given(st.integers(2, 5), st.data())
def test_transport_is_isomorphism(n, data):
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    g = graph(n, edges)
    perm = data.draw(st.permutations(range(n)))
    pi = dict(enumerate(perm))
    assert check_isomorphism(g, transport(g, pi), pi)
    assert check_isomorphism(g, g, {e: e for e in g.domain})


@given(st.integers(1, 4), st.data())
def test_delete_after_insert_restores_any_database(n, data):
    members = data.draw(st.sets(st.tuples(st.integers(0, n - 1)), max_size=n))
    s = make_state(SET, n, {"U": members})
    e = data.draw(st.integers(0, n - 1))
    if (e,) in members:
        return
    back = apply_input_modification(apply_input_modification(s, ins("U", e)), delete("U", e))
    assert back == s


@pytest.mark.parametrize("transformed", [False, True])
@pytest.mark.parametrize("name", corpus_names())
def test_equal_states_are_equal_however_built(name, transformed):
    p = builtin_program(name).program
    if transformed:
        p = relations_to_functions(p)
    s0 = init_state(p, empty_input_db(p, 3))
    ctx = context_for_state(p, s0)
    mods = _candidate_mods(p, 3)
    frontier = [s0]
    for _ in range(2):
        reached = []
        for s in frontier:
            for m in mods:
                if not is_honest(s, m):
                    continue
                a = apply(p, s, m)
                for b in (apply(p, s, m, compiled=False), state_from_dict(state_to_dict(a), p.schema),
                          transport(a, {e: e for e in a.domain})):
                    assert b == a and hash(b) == hash(a) and state_to_dict(b) == state_to_dict(a)
                assert context_for_state(p, a) is ctx
                reached.append(a)
        frontier = reached[::7]


def test_states_differing_in_a_constant_or_builtin_are_unequal():
    sch = make_schema(input_relations={"E": 2}, builtin_relations={"L": 2},
                      builtin_functions={"f": 1}, constants=("s",))
    rels, f = {"E": {(0, 1)}, "L": {(0, 1)}}, {(0,): 1, (1,): 0, (2,): 2}
    base = make_state(sch, 3, rels, {"f": f}, {"s": 0})
    assert base == make_state(sch, 3, rels, {"f": dict(f)}, {"s": 0})
    assert base != make_state(sch, 3, rels, {"f": f}, {"s": 1})
    assert base != make_state(sch, 3, {"E": {(0, 1)}, "L": set()}, {"f": f}, {"s": 0})
    assert base != make_state(sch, 3, rels, {"f": {**f, (2,): 0}}, {"s": 0})


def _transport_via_make_state(s, pi):
    """The image of s built from its dicts, every interpretation permuted."""
    rels = {name: {tuple(pi[e] for e in t) for t in tuples} for name, tuples in s.relations.items()}
    funs = {name: {tuple(pi[e] for e in args): pi[val] for args, val in table.items()}
            for name, table in s.functions.items()}
    consts = {name: pi[val] for name, val in s.constants.items()}
    return make_state(s.schema, s.n, rels, funs, consts)


def test_transport_equals_the_make_state_image():
    import random
    rng = random.Random(41)
    sch = make_schema(input_relations={"E": 2}, aux_relations={"Z": 0, "A": 1, "T": 3},
                      aux_functions={"c": 0, "f": 1, "g": 2}, builtin_relations={"L": 2},
                      builtin_functions={"h": 1, "k": 2}, constants=("s", "t"))
    for _ in range(150):
        n = rng.randint(1, 4)
        dom = range(n)
        rels = {name: {tup for tup in itertools.product(dom, repeat=ar) if rng.random() < 0.3}
                for name, ar in sch.relations.items()}
        funs = {name: {args: rng.randrange(n) for args in itertools.product(dom, repeat=ar)}
                for name, ar in sch.functions.items()}
        s = make_state(sch, n, rels, funs, {"s": rng.randrange(n), "t": rng.randrange(n)})
        perm = list(dom)
        rng.shuffle(perm)
        pi = dict(enumerate(perm))
        image, expected = transport(s, pi), _transport_via_make_state(s, pi)
        assert image == expected and hash(image) == hash(expected)
        assert image.layout is expected.layout and state_to_dict(image) == state_to_dict(expected)
        assert check_isomorphism(s, image, pi)
    with pytest.raises(DynqfError):
        transport(make_state(sch, 2, constants={"s": 0, "t": 1}), {0: 0, 1: 0})


def test_a_domain_above_the_limit_is_refused_before_it_is_built():
    assert make_state(SET, MAX_DOMAIN, {"U": {(MAX_DOMAIN - 1,)}}).n == MAX_DOMAIN
    # a binary function's default table would have n^2 entries
    sch = make_schema(input_relations={"U": 1}, aux_functions={"g": 2})
    for n in (MAX_DOMAIN + 1, 10 ** 20):
        with pytest.raises(DomainError, match=f"^domain of size {n} exceeds the limit of {MAX_DOMAIN} elements$"):
            make_state(sch, n)
