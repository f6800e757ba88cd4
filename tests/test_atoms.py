import itertools

import pytest
from hypothesis import given, strategies as st

from dynqf.atoms import (atomic_type, diverse_tuples_share_type,
                         find_homogeneous_subset, is_homogeneous)
from dynqf.errors import DomainError
from dynqf.schema import make_schema
from dynqf.state import make_state, transport

SET = make_schema(input_relations={"U": 1})
GRAPH_ST = make_schema(input_relations={"E": 2}, constants=("s", "t"))
GRAPH = make_schema(input_relations={"E": 2})


def test_unary_membership_shows_in_type():
    s = make_state(SET, 2, {"U": {(0,)}})
    t_in = atomic_type(s, (0,), {"U"})
    t_out = atomic_type(s, (1,), {"U"})
    assert ("U", (("v", 0),)) in t_in.rel_atoms
    assert ("U", (("v", 0),)) not in t_out.rel_atoms


def test_type_with_constants_against_enumeration_oracle():
    # independent oracle: enumerate every candidate atom over {x1, s, t} and
    # test it by substitution, then compare with atomic_type's answer
    s = make_state(GRAPH_ST, 4, {"E": {(0, 1)}}, constants={"s": 0, "t": 3})
    tup = (1,)
    got = atomic_type(s, tup, {"E"})
    terms = [("v", 0), ("c", "s"), ("c", "t")]

    def value(t):
        return tup[t[1]] if t[0] == "v" else s.constants[t[1]]

    expected = set()
    for args in itertools.product(terms, repeat=2):
        if tuple(map(value, args)) in s.rel("E"):
            expected.add(("E", args))
    assert got.rel_atoms == expected
    assert ("E", (("c", "s"), ("v", 0))) in got.rel_atoms
    assert ("E", (("v", 0), ("c", "t"))) not in got.rel_atoms


def test_equality_atoms_record_coincidences():
    s = make_state(GRAPH_ST, 3, {}, constants={"s": 0, "t": 2})
    t = atomic_type(s, (0, 1))
    assert t.holds_eq(("v", 0), ("c", "s"))
    assert not t.holds_eq(("v", 1), ("c", "s"))
    assert not t.holds_eq(("v", 0), ("v", 1))


def test_type_outside_domain_errors():
    s = make_state(SET, 2)
    with pytest.raises(DomainError):
        atomic_type(s, (5,))


@given(st.integers(2, 4), st.data())
def test_atomic_type_is_isomorphism_invariant(n, data):
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    s = make_state(GRAPH, n, {"E": edges})
    perm = data.draw(st.permutations(range(n)))
    pi = dict(enumerate(perm))
    t = transport(s, pi)
    tup = tuple(data.draw(st.integers(0, n - 1)) for _ in range(2))
    assert atomic_type(s, tup) == atomic_type(t, tuple(pi[e] for e in tup))


def test_complete_graph_is_homogeneous():
    n = 4
    s = make_state(GRAPH, n, {"E": {(a, b) for a in range(n) for b in range(n) if a != b}})
    assert is_homogeneous(s, list(range(n)), {0, 1, 2, 3}, 2)


def test_single_edge_breaks_homogeneity():
    s = make_state(GRAPH, 3, {"E": {(0, 1)}})
    assert not is_homogeneous(s, [0, 1, 2], {0, 1, 2}, 2)


def test_empty_relations_homogeneous():
    s = make_state(GRAPH, 3, {"E": set()})
    assert is_homogeneous(s, [0, 1, 2], {0, 1, 2}, 2)


def test_find_in_empty_structure_returns_least():
    s = make_state(GRAPH, 5, {"E": set()})
    assert find_homogeneous_subset(s, list(range(5)), 3) == {0, 1, 2}


def test_find_on_star_excludes_anchor_and_validates():
    # 1-layered star: every layer node looks alike relative to the anchor
    edges = {(0, a) for a in (1, 2, 3)} | {(a, 4) for a in (1, 2, 3)}
    s = make_state(GRAPH, 5, {"E": edges})
    found = find_homogeneous_subset(s, list(range(5)), 2, anchor=(0, 4))
    assert found == {1, 2}
    assert is_homogeneous(s, sorted(found), found, 2, anchor=(0, 4))


def test_find_two_element_sets_are_vacuously_pair_homogeneous():
    # a 2-element set admits exactly one order-respecting pair, so the
    # pair condition is vacuous; with no loops and no constants the unary
    # types are empty on both sides, hence the set qualifies
    s = make_state(GRAPH, 2, {"E": {(0, 1)}})
    assert find_homogeneous_subset(s, [0, 1], 2) == {0, 1}
    assert is_homogeneous(s, [0, 1], {0, 1}, 2)
    # a loop breaks the unary-type agreement and rules the pair out
    loop = make_state(GRAPH, 2, {"E": {(0, 1), (0, 0)}})
    assert find_homogeneous_subset(loop, [0, 1], 2) is None


def test_find_too_large_returns_none():
    s = make_state(GRAPH, 3, {"E": set()})
    assert find_homogeneous_subset(s, [0, 1, 2], 7) is None


@given(st.integers(3, 5), st.data())
def test_found_subsets_are_homogeneous(n, data):
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    s = make_state(GRAPH, n, {"E": edges})
    found = find_homogeneous_subset(s, list(range(n)), 2)
    if found is not None:
        assert is_homogeneous(s, sorted(found), found, 2)


def test_diverse_tuples_share_type_on_symmetric_state():
    n = 5
    edges = {(0, a) for a in (1, 2, 3)} | {(a, 4) for a in (1, 2, 3)}
    s = make_state(GRAPH_ST, n, {"E": edges}, constants={"s": 0, "t": 4})
    assert diverse_tuples_share_type(s, {1, 2, 3}, 2)
    lop = make_state(GRAPH_ST, n, {"E": edges - {(0, 1)}}, constants={"s": 0, "t": 4})
    assert not diverse_tuples_share_type(lop, {1, 2, 3}, 2)


def _all_share_a_type(s, tuples, anchor=(), sigma=None):
    return len({atomic_type(s, tup + anchor, sigma) for tup in tuples}) <= 1


@given(st.integers(2, 5), st.data())
def test_homogeneity_checks_agree_with_type_sets(n, data):
    # both checks ask, per length l, whether one type covers all the tuples
    sch = make_schema(input_relations={"E": 2, "U": 1}, constants=("s",))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    marked = data.draw(st.sets(st.tuples(st.integers(0, n - 1)), max_size=3))
    s = make_state(sch, n, {"E": edges, "U": marked}, constants={"s": data.draw(st.integers(0, n - 1))})
    order = data.draw(st.permutations(range(n)))
    subset = data.draw(st.sets(st.integers(0, n - 1), max_size=4))
    anchor = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=1)))
    sigma = data.draw(st.sampled_from([None, ["E"], ["U"]]))
    k = data.draw(st.integers(1, 3))
    ordered = sorted(subset, key=order.index)
    assert is_homogeneous(s, order, subset, k, anchor, sigma) == all(
        _all_share_a_type(s, itertools.combinations(ordered, l), anchor, sigma) for l in range(1, k + 1))
    assert diverse_tuples_share_type(s, subset, k) == all(
        _all_share_a_type(s, itertools.permutations(sorted(subset), l)) for l in range(1, k + 1))
