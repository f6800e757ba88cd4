"""Brute-force static query oracles, layered-graph generators, and the
graph reductions (identify s with t; tensor with complete graphs).

Oracles are direct readings of the definitions: they are ground truth for
the maintenance checker, not performance artifacts.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable

from .errors import DomainError, DynqfError, SchemaError
from .records import Frozen
from .schema import make_schema
from .state import State, make_state

ST_GRAPH_SCHEMA = make_schema(input_relations={"E": 2}, constants=("s", "t"))
S_GRAPH_SCHEMA = make_schema(input_relations={"E": 2}, constants=("s",))
PLAIN_GRAPH_SCHEMA = make_schema(input_relations={"E": 2})
SET_SCHEMA = make_schema(input_relations={"U": 1})


def graph_state(n: int, edges: Iterable[tuple[int, int]],
                s: int | None = None, t: int | None = None) -> State:
    """A graph as a state over {E/2} with optional constants s and t."""
    consts = {}
    if s is not None:
        consts["s"] = s
    if t is not None:
        consts["t"] = t
    schema = {(): PLAIN_GRAPH_SCHEMA, ("s",): S_GRAPH_SCHEMA,
              ("s", "t"): ST_GRAPH_SCHEMA}[tuple(sorted(consts))]
    return make_state(schema, n, {"E": set(edges)}, constants=consts)


def _edges(g: State) -> frozenset[tuple[int, int]]:
    if "E" not in g.relations:
        raise SchemaError("graph state needs a binary relation E")
    return g.relations["E"]


# -- oracles ------------------------------------------------------------------

def query(oracle: Callable) -> Callable:
    """Mark an oracle as a query: its answer is invariant under every
    isomorphism of input states that fixes the constants.  The exhaustive
    checker reduces its search by symmetry only for queries.  The mark is an
    attribute of the function, so wrappers made with `functools.wraps` keep it."""
    oracle.is_query = True
    return oracle


def is_query(oracle: Callable) -> bool:
    """Is the oracle a marked query, or a `functools.partial` of one (whose
    bound arguments are parameters such as k, not elements)?"""
    if isinstance(oracle, functools.partial):
        oracle = oracle.func
    return getattr(oracle, "is_query", False) is True


@query
def oracle_st_reach(g: State) -> bool:
    """Is t reachable from s?  Plain breadth-first search."""
    if "s" not in g.constants or "t" not in g.constants:
        raise SchemaError("st-reachability needs constants s and t")
    s, t = g.constants["s"], g.constants["t"]
    succ: dict[int, list[int]] = {}
    for (u, v) in _edges(g):
        succ.setdefault(u, []).append(v)
    seen = {s}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in succ.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return t in seen


@query
def oracle_nonemptyset(db: State) -> bool:
    if "U" not in db.relations:
        raise SchemaError("non-empty-set needs a unary relation U")
    return bool(db.relations["U"])


@query
def oracle_st_twopath(g: State) -> bool:
    """Is there x with E(s,x) and E(x,t)?  x ranges over the whole domain,
    so paths through loops at s or t count."""
    try:
        s, t = g.constants["s"], g.constants["t"]
    except KeyError:
        raise SchemaError("st-twopath needs constants s and t") from None
    E = _edges(g)
    return any((s, x) in E and (x, t) in E for x in g.domain)


@query
def oracle_s_twopath(g: State) -> bool:
    """Is there a path of length two starting at s, that is, an edge (s, x)
    whose x has an outgoing edge?  Paths through loops count."""
    try:
        s = g.constants["s"]
    except KeyError:
        raise SchemaError("s-twopath needs a constant s") from None
    E = _edges(g)
    sources = {u for u, _ in E}
    return any(u == s and x in sources for u, x in E)


@query
def oracle_k_clique(g: State, k: int) -> bool:
    """Some k nodes pairwise connected by an edge in at least one direction.

    The directed convention counts a pair as connected whichever way the
    edge points, which is what the identify-s-t reduction produces.
    """
    if k < 1:
        raise DynqfError("k must be at least 1")
    E = _edges(g)
    for nodes in itertools.combinations(g.domain, k):
        if all((u, v) in E or (v, u) in E for u, v in itertools.combinations(nodes, 2)):
            return True
    return False


@query
def oracle_k_colorability(g: State, k: int) -> bool:
    """Proper k-colorability of the underlying undirected graph; self-loops
    make a graph non-colorable.  Backtracking over nodes in id order."""
    if k < 1:
        raise DynqfError("k must be at least 1")
    n = g.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for (u, v) in _edges(g):
        if u == v:
            return False
        adj[u].add(v)
        adj[v].add(u)
    colors = [-1] * n

    def assign(i: int) -> bool:
        if i == n:
            return True
        for c in range(k):
            if all(colors[j] != c for j in adj[i] if j < i):
                colors[i] = c
                if assign(i + 1):
                    return True
        colors[i] = -1
        return False

    return assign(0)


ORACLES = {
    "non-empty-set": oracle_nonemptyset,
    "st-reach": oracle_st_reach,
    "st-twopath": oracle_st_twopath,
    "s-twopath": oracle_s_twopath,
}


# -- layered graphs ----------------------------------------------------------------

class LayeredSpec(Frozen):
    """The node count of each of k >= 1 layers, and whether s and t are added."""

    __slots__ = ("sizes", "with_st")

    def __init__(self, sizes: tuple[int, ...], with_st: bool = True):
        if len(sizes) < 1 or any(sz < 1 for sz in sizes):
            raise DynqfError("layer sizes must be positive and k >= 1")
        self._set_fields(sizes, with_st)


class Layered(Frozen):
    """A layered s-t-graph plus its layer assignment.

    Node ids are deterministic: s = 0, then layer 1, layer 2, ..., then t
    (when with_st).  Without s and t only the layers are materialized.
    """

    __slots__ = ("state", "layers")

    def __init__(self, state: State, layers: tuple[tuple[int, ...], ...]):
        self._set_fields(state, layers)

    @property
    def s(self) -> int:
        return self.state.constants["s"]

    @property
    def t(self) -> int:
        return self.state.constants["t"]


def layered_nodes(spec: LayeredSpec) -> tuple[tuple[tuple[int, ...], ...], int, int | None]:
    cursor = 1 if spec.with_st else 0
    layers = []
    for sz in spec.sizes:
        layers.append(tuple(range(cursor, cursor + sz)))
        cursor += sz
    t = cursor if spec.with_st else None
    n = cursor + 1 if spec.with_st else cursor
    return tuple(layers), n, t


def allowed_layer_edges(spec: LayeredSpec) -> list[tuple[int, int]]:
    """Every edge the layer discipline allows: s->A1, Ai->Ai+1, Ak->t."""
    layers, _, t = layered_nodes(spec)
    out = []
    if spec.with_st:
        out += [(0, a) for a in layers[0]]
    for i in range(len(layers) - 1):
        out += [(a, b) for a in layers[i] for b in layers[i + 1]]
    if spec.with_st:
        out += [(a, t) for a in layers[-1]]
    return out


def gen_layered(spec: LayeredSpec, edges: Iterable[tuple[int, int]] | str = ()) -> Layered:
    """Build a layered graph from an explicit edge list or a named pattern
    ('empty', 'complete', 'star').  Cross-layer edges are rejected."""
    layers, n, t = layered_nodes(spec)
    allowed = set(allowed_layer_edges(spec))
    if isinstance(edges, str):
        if edges == "empty":
            edge_set: set[tuple[int, int]] = set()
        elif edges == "complete":
            edge_set = set(allowed)
        elif edges == "star":
            if len(spec.sizes) != 1 or not spec.with_st:
                raise DynqfError("the star pattern needs one layer and s,t")
            edge_set = {(0, a) for a in layers[0]} | {(a, t) for a in layers[0]}
        else:
            raise DynqfError(f"unknown edge pattern {edges!r}")
    else:
        edge_set = set(map(tuple, edges))
        bad = edge_set - allowed
        if bad:
            raise DomainError(f"edges violate the layer discipline: {sorted(bad)}")
    if spec.with_st:
        g = graph_state(n, edge_set, s=0, t=t)
    else:
        g = graph_state(n, edge_set)
    return Layered(g, layers)


def check_layered(g: Layered) -> bool:
    """Structural check: every edge respects the layer discipline."""
    spec = LayeredSpec(tuple(len(l) for l in g.layers), with_st="t" in g.state.constants)
    return set(_edges(g.state)) <= set(allowed_layer_edges(spec))


# -- reductions --------------------------------------------------------------------

def reduce_identify_st(g: Layered) -> State:
    """Merge t into s in a 2-layered s-t-graph: edges into t become edges
    into s; the result keeps the single constant s."""
    if len(g.layers) != 2 or "t" not in g.state.constants:
        raise DynqfError("identify-s-t needs a 2-layered graph with s and t")
    if not check_layered(g):
        raise DomainError("graph does not respect its 2-layer discipline")
    s, t = g.s, g.t
    keep = [e for e in g.state.domain if e != t]
    index = {e: i for i, e in enumerate(keep)}
    edges = set()
    for (u, v) in _edges(g.state):
        u2 = index[s] if u == t else index[u]
        v2 = index[s] if v == t else index[v]
        edges.add((u2, v2))
    return graph_state(len(keep), edges, s=index[s])


def reduce_tensor_clique(g: State, m: int, copies: int = 1) -> State:
    """Add `copies` fresh m-cliques, each completely (bidirectionally)
    connected to every original node; the copies are mutually unconnected."""
    if m < 0 or copies not in (1, 2):
        raise DynqfError("need m >= 0 and copies in {1, 2}")
    if m == 0:
        return g
    n = g.n
    edges = set(_edges(g))
    for c in range(copies):
        fresh = list(range(n + c * m, n + (c + 1) * m))
        for u, v in itertools.combinations(fresh, 2):
            edges.add((u, v))
            edges.add((v, u))
        for u in fresh:
            for v in range(n):
                edges.add((u, v))
                edges.add((v, u))
    consts = dict(g.constants)
    return graph_state(n + copies * m, edges, **{k: v for k, v in consts.items()})
