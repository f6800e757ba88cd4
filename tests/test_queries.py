import random

import pytest
from hypothesis import given, strategies as st

from dynqf.errors import DomainError, DynqfError
from dynqf.queries import (LayeredSpec, allowed_layer_edges,
                           check_layered, gen_layered, graph_state,
                           oracle_k_clique, oracle_k_colorability,
                           oracle_nonemptyset, oracle_s_twopath,
                           oracle_st_reach, oracle_st_twopath,
                           reduce_identify_st, reduce_tensor_clique)
from dynqf.schema import make_schema
from dynqf.state import make_state


def st_graph(n, edges):
    return graph_state(n, edges, s=0, t=n - 1)


def test_st_reach_basics():
    assert oracle_st_reach(st_graph(2, {(0, 1)}))
    assert not oracle_st_reach(st_graph(2, set()))
    assert oracle_st_reach(st_graph(4, {(0, 1), (1, 2), (2, 3)}))


def test_nonemptyset_oracle():
    sch = make_schema(input_relations={"U": 1})
    assert not oracle_nonemptyset(make_state(sch, 2))
    assert oracle_nonemptyset(make_state(sch, 2, {"U": {(1,)}}))


def test_twopath_oracles():
    g = st_graph(3, {(0, 1), (1, 2)})
    assert oracle_st_twopath(g) and oracle_s_twopath(g)
    direct = st_graph(2, {(0, 1)})
    assert not oracle_st_twopath(direct) and not oracle_s_twopath(direct)
    # derived by enumerating x (and y) directly
    n = 4
    dangling = st_graph(n, {(0, 1), (1, 2)})  # s->a, a->b with b != t
    assert not any((0, x) in dangling.rel("E") and (x, n - 1) in dangling.rel("E")
                   for x in range(n))
    assert not oracle_st_twopath(dangling)
    assert oracle_s_twopath(dangling)


def test_twopath_counts_loops():
    g = st_graph(2, {(0, 0), (0, 1)})
    assert oracle_st_twopath(g)  # s -> s -> t


def _s_twopath_by_definition(g):
    E = g.rel("E")
    s = g.constants["s"]
    return any((s, x) in E and (x, y) in E for x in g.domain for y in g.domain)


def test_s_twopath_matches_its_quadratic_definition():
    pairs = [(u, v) for u in range(3) for v in range(3)]
    for bits in range(2 ** len(pairs)):
        edges = {e for i, e in enumerate(pairs) if bits & (1 << i)}
        for s in range(3):
            g = graph_state(3, edges, s=s)
            assert oracle_s_twopath(g) == _s_twopath_by_definition(g), (edges, s)
    rng = random.Random(5)
    pairs = [(u, v) for u in range(5) for v in range(5)]
    for _ in range(500):
        density = rng.choice((0.05, 0.1, 0.2))
        edges = {e for e in pairs if rng.random() < density}
        g = graph_state(5, edges, s=rng.randrange(5))
        assert oracle_s_twopath(g) == _s_twopath_by_definition(g), (edges, g.constants)


def test_s_twopath_counts_loops():
    assert oracle_s_twopath(graph_state(2, {(0, 0)}, s=0))  # s -> s -> s
    assert oracle_s_twopath(graph_state(2, {(0, 1), (1, 1)}, s=0))  # s -> x -> x
    assert not oracle_s_twopath(graph_state(2, {(1, 1), (1, 0)}, s=0))


def test_clique_oracle_directed_convention():
    triangle = graph_state(3, {(0, 1), (1, 2), (2, 0)})
    assert oracle_k_clique(triangle, 3)
    path = graph_state(3, {(0, 1), (1, 2)})
    assert not oracle_k_clique(path, 3)
    assert oracle_k_clique(graph_state(1, set()), 1)


def test_colorability_oracle():
    triangle = graph_state(3, {(0, 1), (1, 2), (2, 0)})
    assert not oracle_k_colorability(triangle, 2)
    assert oracle_k_colorability(triangle, 3)
    assert oracle_k_colorability(graph_state(3, set()), 1)
    assert not oracle_k_colorability(graph_state(2, {(0, 0)}), 3)


@given(st.integers(2, 5), st.data())
def test_clique_monotone_colorability_antitone(n, data):
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=8))
    g = graph_state(n, edges)
    extra = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    bigger = graph_state(n, set(edges) | {extra})
    for k in (2, 3):
        if oracle_k_clique(g, k):
            assert oracle_k_clique(bigger, k)
        if not oracle_k_colorability(g, k):
            assert not oracle_k_colorability(bigger, k)


def test_gen_layered_star():
    g = gen_layered(LayeredSpec((3,)), "star")
    assert g.s == 0 and g.t == 4
    assert g.state.rel("E") == {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)}
    assert check_layered(g)


def test_gen_layered_two_layer_base():
    spec = LayeredSpec((2, 2))
    layers, _, t = (lambda l: (l.layers, None, l.t))(gen_layered(spec, "empty"))
    base = gen_layered(spec, [(b, t) for b in layers[1]])
    assert base.state.rel("E") == {(3, 5), (4, 5)}


def test_gen_layered_rejects_cross_edges():
    with pytest.raises(DomainError):
        gen_layered(LayeredSpec((2, 2)), [(1, 5)])  # layer-1 node straight to t


def test_gen_layered_empty_pattern():
    g = gen_layered(LayeredSpec((2, 1)), "empty")
    assert g.state.rel("E") == frozenset()


def test_identify_st_makes_triangle():
    spec = LayeredSpec((1, 1))
    g = gen_layered(spec, [(0, 1), (1, 2), (2, 3)])
    out = reduce_identify_st(g)
    assert out.constants == {"s": 0}
    assert out.rel("E") == {(0, 1), (1, 2), (2, 0)}
    assert oracle_k_clique(out, 3)


def test_identify_st_requires_two_layers():
    with pytest.raises(DynqfError):
        reduce_identify_st(gen_layered(LayeredSpec((2,)), "empty"))


def test_identify_st_empty_graph():
    out = reduce_identify_st(gen_layered(LayeredSpec((1, 1)), "empty"))
    assert out.rel("E") == frozenset()


def all_two_layered(sizes=(2, 2)):
    spec = LayeredSpec(sizes)
    allowed = allowed_layer_edges(spec)
    for bits in range(2 ** len(allowed)):
        edges = {e for i, e in enumerate(allowed) if bits & (1 << i)}
        yield gen_layered(spec, edges)


def test_reach_iff_triangle_exhaustive():
    # every 2-layered graph with |A| = |B| = 2: s-t-path iff 3-clique after
    # identifying s and t
    for g in all_two_layered((2, 2)):
        assert oracle_st_reach(g.state) == oracle_k_clique(reduce_identify_st(g), 3)


def test_tensor_zero_is_identity():
    g = graph_state(3, {(0, 1)})
    assert reduce_tensor_clique(g, 0) == g


def test_tensor_triangle_gets_four_clique():
    triangle = graph_state(3, {(0, 1), (1, 2), (2, 0)})
    out = reduce_tensor_clique(triangle, 1)
    assert out.n == 4 and oracle_k_clique(out, 4)


def test_tensor_two_copies_unconnected():
    g = graph_state(2, set())
    out = reduce_tensor_clique(g, 2, copies=2)
    E = out.rel("E")
    first, second = {2, 3}, {4, 5}
    assert not any((u, v) in E for u in first for v in second)
    assert not any((u, v) in E for u in second for v in first)


def test_tensor_clique_shift_exhaustive():
    # g has a 3-clique iff g (x) K_m has a (3+m)-clique, all graphs |V| <= 4, m <= 2
    for n in (3, 4):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(2 ** len(pairs)):
            if bin(bits).count("1") > 7:
                continue
            edges = {e for i, e in enumerate(pairs) if bits & (1 << i)}
            g = graph_state(n, edges)
            base = oracle_k_clique(g, 3)
            for m in (1, 2):
                assert base == oracle_k_clique(reduce_tensor_clique(g, m), 3 + m)
