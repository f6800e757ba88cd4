"""The lower-bound half of the lab: the proof constructions of Zeume &
Schwentick (arXiv 1306.3056) run as counterexample search.

Subsequences and Higman pairs, neighborhoods and k-similarity, the
substructure property suites, the attack drivers on s-t reachability and
the adversary for conjunctive candidates.  They drive programs through the
checker's moves and walks and return counterexamples that the checker
(verify.py) self-validates; only this half needs `atoms` and `transforms`,
so a plain maintenance check never loads it.

The suites and the drivers step lean payloads, the drivers each prefix
their sequences share once (`_witness_walk`).
"""
from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Mapping, Sequence

from .atoms import atomic_type, diverse_tuples, find_homogeneous_subset
from .compiler import LeanContext, context_for_state
from .errors import DynqfError, GuardError, ResourceLimitError
from .formulas import classify_syntax, eval_term, terms_up_to_depth, equality_type_of, EqualityType
from .program import DynamicProgram, empty_input_db, init_state
from .queries import oracle_nonemptyset, oracle_st_reach
from .records import Record
from .schema import Role
from .state import DEL, INS, Modification, State, check_modification, transport
from .transforms import deletion_depth, eliminate_repeated_variables
from .verify import CheckConfig, Counterexample, _finish_counterexample, _moves, _setup, _walk


# -- subsequences and Higman pairs ----------------------------------------------------

def subsequence(u: Sequence, v: Sequence) -> bool:
    """Does u embed order-preservingly into v?"""
    it = iter(v)
    return all(any(x == y for y in it) for x in u)


def embedding_positions(u: Sequence, v: Sequence) -> list[int] | None:
    """Greedy leftmost embedding of u into v, as 0-based positions."""
    out = []
    j = 0
    for x in u:
        while j < len(v) and v[j] != x:
            j += 1
        if j == len(v):
            return None
        out.append(j)
        j += 1
    return out


def higman_pair(words: Sequence[Sequence]) -> tuple[int, int] | None:
    """The least pair (l, k), minimizing k then l, with l < k and
    words[l] a subsequence of words[k]; 0-based indices, None if no pair."""
    for k in range(len(words)):
        for l in range(k):
            if subsequence(words[l], words[k]):
                return (l, k)
    return None


# -- neighborhoods and similarity -------------------------------------------------------

def _term_pairs(s: State, a_tuple: Sequence[int], t: State, b_tuple: Sequence[int],
                k: int) -> dict[int, int] | None:
    """The map u^s(a-tuple) -> u^t(b-tuple) over all plain terms u of depth
    <= k, or None when it is not a function.

    Term values are compositional, so the map is a fixpoint on value pairs:
    depth 0 pairs the tuples positionally and each constant with itself;
    each further level adds (f^s(v), f^t(w)) for every function symbol and
    every argument tuple of pairs already found (0-ary symbols enter at
    depth 1).  A level that adds no pair ends the search, so at most n
    levels run, each over sum_f |map|^arity argument tuples.
    """
    pi: dict[int, int] = {}
    base = list(zip(a_tuple, b_tuple))
    base += [(s.constants[c], t.constants[c]) for c in s.schema.constants]
    for v, w in base:
        if pi.setdefault(v, w) != w:
            return None
    tables = [(s.functions[f], t.functions[f], ar) for f, ar in s.schema.functions.items()] if k else []
    for _ in range(k):
        known = list(pi)
        for fs, ft, ar in tables:
            for vs in itertools.product(known, repeat=ar):
                w = ft[tuple(map(pi.__getitem__, vs))]
                if pi.setdefault(fs[vs], w) != w:
                    return None
        if len(pi) == len(known):
            break
    return pi


def neighborhood(s: State, a: Iterable[int], k: int) -> set[int]:
    """All values of plain terms of depth <= k under assignments into `a`:
    the domain of the term-pair map of `a` with itself."""
    a = tuple(a)
    return set(_term_pairs(s, a, s, a, k))


def k_similar(s: State, a_tuple: Sequence[int], t: State, b_tuple: Sequence[int],
              k: int) -> dict[int, int] | None:
    """The bijection induced by term(a-tuple) -> term(b-tuple) over all plain
    terms of depth <= k, if it is well-defined, bijective between the two
    k-neighborhoods, and relation-preserving there; None otherwise."""
    if s.schema != t.schema:
        raise DynqfError("states do not share a schema")
    if len(a_tuple) != len(b_tuple):
        raise DynqfError("tuples differ in length")
    pi = _term_pairs(s, a_tuple, t, b_tuple, k)
    if pi is None:
        return None
    image = set(pi.values())
    if len(image) != len(pi):
        return None
    # pi is a bijection between the neighborhoods, so it preserves a relation
    # in both directions exactly when it maps the tuples inside its domain
    # onto the tuples inside its image
    for name in s.schema.relations:
        inside = {tuple([pi[x] for x in r]) for r in s.relations[name] if all([x in pi for x in r])}
        if inside != {r for r in t.relations[name] if all([y in image for y in r])}:
            return None
    return pi


def neighborhood_vector(s: State, tup: Sequence[int], k: int,
                        cap: int | None = None) -> tuple[tuple[int, ...], EqualityType]:
    """Per component, the values of the canonical term enumeration in one
    variable (the bare variable comes first), concatenated; plus the equality
    type of the concatenated vector.

    Without an explicit cap this requires unary/0-ary function symbols only,
    where the one-variable enumeration is the natural one.
    """
    if cap is None:
        if any(ar > 1 for ar in s.schema.functions.values()):
            raise ResourceLimitError(
                "higher-arity function symbols need an explicit term cap", 0)
        cap = 50000
    terms = terms_up_to_depth(s.schema, k, ("x",), cap=cap)
    vec: list[int] = []
    for c in tup:
        vec.extend(eval_term(t, s, {"x": c}) for t in terms)
    vec_t = tuple(vec)
    return vec_t, equality_type_of(vec_t)


# -- substructure property suites ---------------------------------------------------------

class PropertyReport(Record):
    """The outcome of a property suite; `status` is "ok", "violation" or
    "inconclusive"."""

    __slots__ = ("status", "samples", "skipped", "seed", "witness")

    def __init__(self, status: str, samples: int, skipped: int, seed: int, witness: dict | None = None):
        self._set_fields(status, samples, skipped, seed, witness)


def _mods_on(p: DynamicProgram, subset: Sequence[int], rng: random.Random,
             length: int) -> list[Modification]:
    rels, elements = p.schema.input_relations, list(subset)
    out = []
    for _ in range(length):
        rel = rng.choice(rels)
        tup = tuple(rng.choice(elements) for _ in range(p.schema.arity(rel)))
        out.append(Modification(rel, tup, rng.choice((INS, DEL))))
    return out


def _fold(ctx: LeanContext, lean, seq: Iterable[Modification]):
    """The payload of run(p, s, seq)[-1], where lean is the payload of s in
    ctx; the steps are not checked against the schema."""
    for m in seq:
        lean = ctx.apply(lean, m)
    return lean


def _pi_of_mods(mods: Sequence[Modification], pi: Mapping[int, int]) -> list[Modification]:
    return [Modification(m.relation, tuple(pi[e] for e in m.tuple), m.kind) for m in mods]


def substructure_property(p: DynamicProgram, cfg: CheckConfig,
                          with_functions: bool = False,
                          similarity_depth: int | None = None,
                          max_tuple: int | None = None) -> PropertyReport:
    """Randomized suite for the core engine invariant: isomorphic (resp.
    similar) substructures, driven by pi-respecting modification sequences,
    stay isomorphic (resp. 0-similar).

    Samples mix whole-state transports (always admissible) with subset pairs
    inside a single reachable state (admissible when the restrictions happen
    to be isomorphic).  A violation means the evaluator itself is broken,
    so any failure is fatal for the build.

    The walks and the alpha and beta runs step on lean payloads and build a
    `State` only at their ends.  Their steps skip `check_modification`:
    every move is in-schema and in-domain by construction, as the walk's
    come from `_candidate_mods`, alpha's from `_mods_on` over the input
    relations and elements of `a_tup`, and beta is pi(alpha).
    """
    if cfg.max_len < 1:
        raise DynqfError(f"the substructure suite needs max_len >= 1 for its alpha runs, "
                         f"got {cfg.max_len}")
    rng = random.Random(cfg.seed)
    if with_functions and similarity_depth is None:
        # one similarity level per potentially consumed nesting step, plus one
        similarity_depth = cfg.max_len * max(p.nesting_depth(), 1) + max(p.nesting_depth(), 1)
    _, s0, lean0, ctx = _setup(p, cfg)
    _, start, flip = _moves(p, cfg, s0)
    done = skipped = 0
    attempts = 0
    while done < cfg.samples:
        attempts += 1
        if attempts > cfg.samples * 20:
            return PropertyReport("inconclusive", done, skipped, cfg.seed)
        lean = _fold(ctx, lean0, _walk(start, flip, rng, rng.randint(0, cfg.max_len * 2)))
        s = ctx.from_lean(lean)  # a random reachable state
        n = s.n
        cap = max_tuple if max_tuple is not None else (n - 1)
        strategy = rng.choice(("transport", "same-state"))
        if strategy == "transport":
            perm = list(range(n))
            rng.shuffle(perm)
            pi_full = dict(enumerate(perm))
            t = transport(s, pi_full)
            size = rng.randint(1, max(1, min(n - 1, cap)))
            a_set = sorted(rng.sample(range(n), size))
            pairs = [(x, pi_full[x]) for x in a_set]
        else:
            t = s
            size = rng.randint(1, min(3, n, max(1, cap)))
            a_set = sorted(rng.sample(range(n), size))
            b_set = sorted(rng.sample(range(n), size))
            order = list(range(size))
            rng.shuffle(order)
            pairs = [(a_set[i], b_set[order[i]]) for i in range(size)]
        a_tup = tuple(x for x, _ in pairs)
        b_tup = tuple(y for _, y in pairs)
        if len(set(b_tup)) != len(b_tup):
            skipped += 1
            continue
        if with_functions:
            pi = k_similar(s, a_tup, t, b_tup, similarity_depth)
            if pi is None:
                skipped += 1
                continue
        else:
            pi = _restriction_isomorphism(s, a_tup, t, b_tup)
            if pi is None:
                skipped += 1
                continue
        alpha = _mods_on(p, a_tup, rng, rng.randint(1, cfg.max_len))
        beta = _pi_of_mods(alpha, pi)
        s_end = ctx.from_lean(_fold(ctx, lean, alpha))
        ctx_t = context_for_state(p, t)  # a transport may move the constants
        t_end = ctx_t.from_lean(_fold(ctx_t, ctx_t.to_lean(t), beta))
        if with_functions:
            ok = k_similar(s_end, a_tup, t_end, b_tup, 0) is not None
        else:
            ok = _restriction_isomorphism(s_end, a_tup, t_end, b_tup) is not None
        # the 0-ary corollary, stated separately although the isomorphism
        # check above already covers nullary relations
        ok = ok and (s_end.query_value(p.query_symbol) == t_end.query_value(p.query_symbol))
        if not ok:
            witness = {
                "strategy": strategy,
                "a_tuple": a_tup,
                "b_tuple": b_tup,
                "alpha": [str(m) for m in alpha],
                "beta": [str(m) for m in beta],
            }
            return PropertyReport("violation", done, skipped, cfg.seed, witness)
        done += 1
    return PropertyReport("ok", done, skipped, cfg.seed)


def _restriction_isomorphism(s: State, a_tup: Sequence[int], t: State,
                             b_tup: Sequence[int]) -> dict[int, int] | None:
    """The positional map a_i -> b_i extended by constants, if it is a
    well-defined isomorphism of the induced (relational) substructures."""
    return k_similar(s, a_tup, t, b_tup, 0)


# -- attack drivers --------------------------------------------------------------------------

def _witness_walk(p: DynamicProgram, oracle: Callable[[State], bool], db: State):
    """Sequences of moves from init_state(p, db) on the payloads of one
    context; returns (ctx, walk, first).  walk(seq) is the payload after seq,
    first(seq) the validated counterexample at the first step of seq (0 is
    the initial state) where the query bit differs from the oracle, or None.
    A call steps only the moves after the prefix seq shares with the last
    sequence, each checked against the schema as `program.apply` checks it,
    and first checks only the states that no earlier call checked."""
    s0 = init_state(p, db)
    ctx = context_for_state(p, s0)
    moves: list[Modification] = []
    path = [ctx.to_lean(s0)]  # the payload after each prefix of moves
    checked = 0  # the leading payloads of path that agree with the oracle

    def walk(seq: Sequence[Modification]):
        nonlocal checked
        k = 0
        while k < len(seq) and k < len(moves) and seq[k] == moves[k]:
            k += 1
        del moves[k:], path[k + 1:]
        checked = min(checked, k + 1)
        for m in seq[k:]:
            check_modification(p.schema, db.n, m)
            path.append(ctx.apply(path[-1], m))
            moves.append(m)
        return path[-1]

    def first(seq: Sequence[Modification]) -> Counterexample | None:
        nonlocal checked
        walk(seq)
        for i in range(checked, len(path)):
            exp, got = oracle(ctx.input_state(path[i])), ctx.query(path[i])
            if exp != got:
                return _finish_counterexample(p, oracle, Counterexample(
                    p.name, db, tuple(seq[:i]), i, exp, got))
        checked = len(path)
        return None

    return ctx, walk, first


def _check_relational_candidate(p: DynamicProgram, driver: str, data: str, max_arity: int) -> None:
    """The guard of the attack drivers on s-t reachability: auxiliary
    relations of arity at most max_arity, no auxiliary function, the
    constants s and t, and a binary input relation E."""
    sch = p.schema
    bad = [a for a in sch.aux_symbols if sch.arity(a) > max_arity]
    if bad:
        worst = max(bad, key=sch.arity)
        raise GuardError(f"{driver} needs {data} auxiliary data: "
                         f"{worst!r} has arity {sch.arity(worst)} > {max_arity}")
    if any(sch.role(f) is Role.AUX for f in sch.functions):
        raise GuardError(f"{driver} targets relational candidates")
    if "s" not in sch.constants or "t" not in sch.constants:
        raise GuardError("candidate must use constants s and t")
    if "E" not in sch.input_relations or sch.arity("E") != 2:
        raise GuardError(f"{driver} needs a binary input relation 'E'")


def attack_star_deletion(p: DynamicProgram, n: int,
                         oracle: Callable[[State], bool] = oracle_st_reach) -> Counterexample | None:
    """Drive a unary candidate through the star construction: connect n layer
    nodes to s and t, peel s-edges off suffix by suffix, build one type word
    per suffix state, and use a Higman pair of those words to issue two
    deletion sequences that the candidate cannot tell apart although their
    reachability differs.  Any earlier divergence found along the way is
    returned as the (shorter) witness.
    """
    _check_relational_candidate(p, "star-deletion", "unary", 1)
    if n < 1:
        return None
    size = n + 2
    db = empty_input_db(p, size)  # s = 0, t = size-1, layer = 1..n
    layer = list(range(1, n + 1))
    t_node = size - 1
    alpha = []
    for a in layer:
        alpha += [Modification("E", (0, a), INS), Modification("E", (a, t_node), INS)]

    aux_rels = p.schema.symbols(Role.AUX, "rel")
    ctx, walk, first = _witness_walk(p, oracle, db)
    suffix = [Modification("E", (0, layer[i]), DEL) for i in range(n - 1, 0, -1)]
    states = {i: ctx.from_lean(walk(alpha + suffix[:n - i])) for i in range(n, 0, -1)}

    words = {i: tuple(atomic_type(states[i], (layer[j],), sigma=aux_rels) for j in range(i))
             for i in range(1, n + 1)}
    pair = higman_pair([words[i] for i in range(1, n + 1)])
    if pair is None:
        # no pair at this scale; an outright maintenance failure along the
        # construction is still a valid (shorter) witness
        return first(alpha + suffix)
    i, j = pair[0] + 1, pair[1] + 1  # word sizes, 1-based
    pos = embedding_positions(words[i], words[j])
    beta1 = [Modification("E", (0, layer[m]), DEL) for m in range(i)]
    beta2 = [Modification("E", (0, layer[q]), DEL) for q in pos]
    return first(alpha + suffix[:n - i] + beta1) or first(alpha + suffix[:n - j] + beta2)


def attack_subset_gadget(p: DynamicProgram, n2: int,
                         oracle: Callable[[State], bool] = oracle_st_reach) -> Counterexample | None:
    """Drive a binary candidate through the subset-coding gadget: one layer-A
    node per subset X of layer B (edges a_X -> X), full B -> t edges, a
    homogeneous subset of B, and a Higman pair over the binary type words of
    (a_X, b) pairs; the pair yields two delete-then-connect sequences with
    different reachability that the candidate must answer identically."""
    _check_relational_candidate(p, "subset-gadget", "at most binary", 2)
    if n2 < 1:
        return None
    if n2 > 4:
        raise ResourceLimitError("subset gadget grows as 2**n2; refusing n2", 2 ** n2)
    n_a = 2 ** n2
    a_nodes = list(range(1, n_a + 1))
    b_nodes = list(range(n_a + 1, n_a + n2 + 1))
    size = n_a + n2 + 2
    t_node = size - 1
    db = empty_input_db(p, size)

    def a_of(subset: frozenset[int]) -> int:
        idx = sum(1 << b_nodes.index(b) for b in subset)
        return a_nodes[idx]

    alpha = [Modification("E", (b, t_node), INS) for b in b_nodes]
    for bits in range(n_a):
        subset = frozenset(b for q, b in enumerate(b_nodes) if bits & (1 << q))
        for b in sorted(subset):
            alpha.append(Modification("E", (a_of(subset), b), INS))

    ctx, walk, first = _witness_walk(p, oracle, db)
    s_prime = ctx.from_lean(walk(alpha))
    aux_rels = p.schema.symbols(Role.AUX, "rel")
    b3: list[int] | None = None
    for want in range(n2, 1, -1):
        found = find_homogeneous_subset(s_prime, b_nodes, want)
        if found:
            b3 = sorted(found)
            break
    early = first(alpha)
    if early or not b3:
        return early
    words = []
    for i in range(1, len(b3) + 1):
        x_i = frozenset(b3[:i])
        words.append(tuple(atomic_type(s_prime, (a_of(x_i), b3[j]), sigma=aux_rels)
                           for j in range(i)))
    pair = higman_pair(words)
    if pair is None:
        return None
    i, j = pair[0] + 1, pair[1] + 1
    pos = embedding_positions(words[i - 1], words[j - 1])
    x_i, x_j = frozenset(b3[:i]), frozenset(b3[:j])
    beta1 = [Modification("E", (a_of(x_i), b), DEL) for b in b3[:i]]
    beta1.append(Modification("E", (0, a_of(x_i)), INS))
    beta2 = [Modification("E", (a_of(x_j), b3[q]), DEL) for q in pos]
    beta2.append(Modification("E", (0, a_of(x_j)), INS))
    return first(alpha + beta1) or first(alpha + beta2)


# -- the conjunctive-fragment adversary ----------------------------------------------------

def diverse_saturation(s: State, p: DynamicProgram, depths: Mapping[str, int | None],
                       u_symbol: str = "U") -> list[tuple[str, tuple[int, ...]]]:
    """Diverse tuples over the current U that a correct conjunctive program
    must keep in each finite-deletion-depth relation but this state lacks."""
    u = sorted(x for (x,) in s.relations[u_symbol])
    out = []
    for sym in sorted(depths):
        d = depths[sym]
        if d is None or sym not in s.relations:
            continue
        if len(u) >= d + 1:
            ar = s.schema.arity(sym)
            for tup in diverse_tuples(u, ar):
                if tup not in s.relations[sym]:
                    out.append((sym, tup))
    return sorted(out)


def cq_adversary(p: DynamicProgram, bound: int,
                 domain_size: int | None = None) -> Counterexample | None:
    """Adversary for conjunctive candidates maintaining non-empty-set:
    saturate U with one element more than the candidate's maximum finite
    deletion depth, then search honest deletion-only sequences for a step
    where the query bit disagrees with the oracle."""
    for r in p.rules.values():
        if not classify_syntax(r.body).conjunctive:
            raise GuardError(f"rule for {r.target!r} under {r.kind} {r.trigger!r} "
                             "is not a conjunction of literals")
    unary_inputs = [r for r in p.schema.input_relations if p.schema.arity(r) == 1]
    if len(unary_inputs) != 1:
        raise GuardError("adversary expects exactly one unary input relation")
    u_rel = unary_inputs[0]
    normalized = eliminate_repeated_variables(p)
    depths = deletion_depth(normalized)
    finite = [d for d in depths.values() if d is not None]
    m = max(finite) if finite else 0
    size = m + 1
    n = domain_size if domain_size is not None else max(size, 2)
    if size > n:
        raise DynqfError(f"domain of size {n} cannot hold {size} elements")
    db = empty_input_db(p, n)
    inserts = [Modification(u_rel, (e,), INS) for e in range(size)]
    if bound < len(inserts):
        return None
    ctx, walk, first = _witness_walk(p, oracle_nonemptyset, db)
    u = ctx.rel_index[u_rel]

    def dfs(seq: list[Modification]) -> Counterexample | None:
        if len(seq) >= bound:
            return None
        for e in sorted(walk(seq)[0][u]):
            nxt = seq + [Modification(u_rel, e, DEL)]
            found = first(nxt) or dfs(nxt)
            if found:
                return found
        return None

    return first(inserts) or dfs(inserts)
