"""Maintenance checking against oracles, subsequence/Higman search,
substructure property suites, neighborhoods and similarity, and the
lower-bound attack drivers.

Exhaustive checking walks the reachable state space breadth-first with
deduplication: the query bit and the oracle are functions of the state
alone, so visiting every reachable state once is equivalent to checking
every admissible sequence.  Counterexamples are reported for the shortest,
lexicographically least sequence and are self-validated by replay before
they are returned.

There is one search loop, `_orbit_bfs`, which checks and expands one state
per orbit of the free elements, those that no constant names.  It runs
with all of them when every permutation of them is a symmetry of the search
(symmetry.py): the permutations fix the initial state with its built-ins,
the instance guard admits the image of every admitted move, and the oracle
is a query, whose answer is invariant under isomorphisms of input states
that fix the constants (`queries.is_query`).  Otherwise it runs with none,
each orbit is a single state, and it is the plain search.  Either way it
finds the plain search's counterexample, and its counts are those of
`Verdict`.
"""
from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Mapping, Sequence

from .atoms import atomic_type, diverse_tuples, find_homogeneous_subset
from .compiler import LeanContext, context_for_state
from .corpus import InstanceGuard
from .errors import DynqfError, GuardError, ResourceLimitError
from .formulas import classify_syntax, eval_term, terms_up_to_depth, equality_type_of, EqualityType
from .program import DynamicProgram, apply, empty_input_db, init_state, run
from .queries import oracle_nonemptyset, oracle_st_reach
from .records import Record
from .schema import Role
from .state import DEL, INS, Modification, State, is_honest, transport
from .transforms import deletion_depth, eliminate_repeated_variables


# -- configuration and outcomes ----------------------------------------------------

class CheckConfig(Record):
    """The bounds and options of `check_maintenance`; `mode` is "exhaustive"
    or "random".  `state_cap` bounds the states an exhaustive search covers
    (see `Verdict`); None means no cap and no pre-estimate."""

    __slots__ = ("domain_size", "max_len", "mode", "samples", "seed", "honest_only", "guard",
                 "constants", "state_cap")

    def __init__(self, domain_size: int, max_len: int, mode: str = "exhaustive", samples: int = 1000,
                 seed: int = 0, honest_only: bool = True, guard: InstanceGuard | None = None,
                 constants: dict[str, int] | None = None, state_cap: int | None = 2_000_000):
        self._set_fields(domain_size, max_len, mode, samples, seed, honest_only, guard, constants,
                         state_cap)


class Counterexample(Record):
    """A replayable maintenance failure.

    The sequence starts from the recorded initial input database; at
    `step` (1-based; 0 means the initial state itself) the program's query
    value `produced` differs from the oracle's `expected`.
    """

    __slots__ = ("program_name", "initial", "sequence", "step", "expected", "produced", "seed",
                 "trace_digest")

    def __init__(self, program_name: str, initial: State, sequence: tuple[Modification, ...], step: int,
                 expected: bool, produced: bool, seed: int | None = None, trace_digest: str = ""):
        self._set_fields(program_name, initial, sequence, step, expected, produced, seed, trace_digest)


class Verdict(Record):
    """The outcome of a check; `status` is "ok", "counterexample",
    "inconclusive" or "resource".

    An exhaustive check counts what its search covered, whatever the status.
    `checked_states` counts each state checked against the oracle (and the
    one that crossed the state cap), plus every image of such a state under
    the permutations of the free elements; the state cap bounds it.
    `checked_steps` counts the moves taken from covered states: per orbit,
    its size times the moves taken from its representative.  With no free
    element these are the plain search's counts, and so they are on every
    `ok`, since all states of an orbit lie at one depth and admit as many
    moves."""

    __slots__ = ("status", "bounds", "checked_states", "checked_steps", "counterexample", "seed", "notes")

    def __init__(self, status: str, bounds: dict, checked_states: int = 0, checked_steps: int = 0,
                 counterexample: Counterexample | None = None, seed: int | None = None,
                 notes: list[str] | None = None):
        self._set_fields(status, bounds, checked_states, checked_steps, counterexample, seed,
                         [] if notes is None else notes)

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "counterexample": 1}.get(self.status, 2)


def _replay(p: DynamicProgram, oracle: Callable[[State], bool],
            cex: Counterexample) -> tuple[list[State], bool]:
    """The trace of the recorded sequence up to the divergence, and whether
    its last state shows the recorded divergence."""
    trace = run(p, init_state(p, cex.initial), cex.sequence[:cex.step])
    produced = trace[-1].query_value(p.query_symbol)
    expected = oracle(trace[-1].input_part())
    return trace, produced == cex.produced and expected == cex.expected and produced != expected


def validate_counterexample(p: DynamicProgram, oracle: Callable[[State], bool],
                            cex: Counterexample) -> bool:
    """Replay the recorded sequence; the recorded divergence must reproduce."""
    return _replay(p, oracle, cex)[1]


def _finish_counterexample(p: DynamicProgram, oracle, cex: Counterexample) -> Counterexample:
    """Record the trace digest of the counterexample and validate it, from one replay."""
    from .serialize import trace_digest
    trace, reproduced = _replay(p, oracle, cex)
    cex.trace_digest = trace_digest(trace)
    if not reproduced:
        raise DynqfError("internal error: counterexample failed self-validation")
    return cex


# -- lean oracles --------------------------------------------------------------------

def _lean_oracle(oracle: Callable[[State], bool], ctx: LeanContext):
    """The oracle on lean states: it sees the input part of each state."""
    return lambda lean: oracle(ctx.input_state(lean))


def _candidate_mods(p: DynamicProgram, n: int) -> list[Modification]:
    out = []
    for rel in sorted(p.schema.input_relations):
        ar = p.schema.arity(rel)
        for tup in itertools.product(range(n), repeat=ar):
            for kind in (INS, DEL):
                out.append(Modification(rel, tup, kind))
    out.sort()
    return out


def _moves(p: DynamicProgram, cfg: CheckConfig, start: State):
    """The candidate moves the instance guard admits, in candidate order;
    those admissible in `start`; and the flip table of the random walks.

    A guard reads only the move, so it is evaluated once per run.  With
    `honest_only`, the table maps each move to its opposite kind, or to None
    when the guard rejects the opposite; without it, each move maps to
    itself, so the admissible list never changes.
    """
    n = cfg.domain_size
    guarded = [m for m in _candidate_mods(p, n)
               if cfg.guard is None or cfg.guard(m, n, start.constants)]
    if not cfg.honest_only:
        return guarded, guarded, {m: m for m in guarded}
    admitted = set(guarded)
    flip = {}
    for m in guarded:
        opposite = Modification(m.relation, m.tuple, DEL if m.kind == INS else INS)
        flip[m] = opposite if opposite in admitted else None
    return guarded, [m for m in guarded if is_honest(start, m)], flip


def _walk(start: list[Modification], flip: Mapping, rng: random.Random, length: int):
    """Up to `length` seeded moves, each drawn from the moves admissible at
    that step; the walk stops early when none is."""
    admissible = list(start)
    for _ in range(length):
        if not admissible:
            return
        j = rng.choice(range(len(admissible)))
        m = admissible[j]
        # `admissible` stays equal to the guarded candidates that are honest
        # in the current state, in candidate order: honesty reads only the
        # move's own tuple, and a step changes its input relation only at
        # m.tuple, so m turns into its opposite, which sorts next to it.
        flipped = flip[m]
        if flipped is None:
            del admissible[j]
        else:
            admissible[j] = flipped
        yield m


# -- maintenance checking ---------------------------------------------------------------

def check_maintenance(p: DynamicProgram, oracle: Callable[[State], bool],
                      cfg: CheckConfig) -> Verdict:
    """Exhaustively or randomly drive the program from the empty database and
    compare the query symbol against the oracle after every step.

    Exhaustive mode explores every state reachable by an admissible sequence
    of at most max_len modifications (breadth-first, deduplicated), which
    covers all such sequences.  Random mode replays `samples` seeded
    admissible sequences.  Both start from the empty input database only.
    Under `init oracle` that loses no generality, since the initial state of
    a non-empty database is defined as replay-from-empty, so a non-empty
    start is a longer empty start.  Under any other init kind it does, and
    the verdict says so in a note.  An `ok` that took no step, because no
    modification was admissible, says so in a note too.
    """
    bounds = {"domain_size": cfg.domain_size, "max_len": cfg.max_len, "mode": cfg.mode,
              "honest_only": cfg.honest_only}
    if cfg.mode == "random":
        bounds["samples"] = cfg.samples
        verdict = _random_check(p, oracle, cfg, bounds)
    elif cfg.mode != "exhaustive":
        raise DynqfError(f"unknown mode {cfg.mode!r}")
    else:
        # quick pre-estimate so hopeless configurations fail fast: a state
        # admits one honest move per (relation, tuple), or two dishonest ones
        per_tuple = 1 if cfg.honest_only else 2
        n_mods = sum(per_tuple * cfg.domain_size ** p.schema.arity(r) for r in p.schema.input_relations)
        est = sum(n_mods ** d for d in range(1, min(cfg.max_len, 4) + 1))
        if cfg.state_cap is not None and est > cfg.state_cap * 10:
            verdict = Verdict("resource", bounds,
                              notes=[f"estimated {est} sequence prefixes exceeds the state cap "
                                     f"{cfg.state_cap}; pass --override-cap to force the search"])
        else:
            verdict = _bfs_check(p, oracle, cfg, bounds)
    if (verdict.status == "ok" and verdict.checked_steps == 0 and cfg.max_len >= 1
            and (cfg.mode == "exhaustive" or cfg.samples >= 1)):
        verdict.notes.append("no modification was admissible, so only the initial "
                             "state was checked")
    if p.init.kind != "oracle":
        verdict.notes.append(f"only the empty initial database was checked; under init "
                             f"{p.init.kind} other initial databases are not covered")
    return verdict


def _setup(p: DynamicProgram, cfg: CheckConfig):
    db = empty_input_db(p, cfg.domain_size, cfg.constants)
    s0 = init_state(p, db)
    ctx = context_for_state(p, s0)
    return db, s0, ctx.to_lean(s0), ctx


def _move_slots(mods: list[Modification], ctx: LeanContext, honest_only: bool) -> list[tuple]:
    """One slot per (relation, tuple) of the moves, in move order: the
    relation's payload index, the tuple, and the moves to take when the tuple
    is present and when it is absent.  Honest moves are the deletion of a
    present tuple and the insertion of an absent one; without `honest_only`
    every move of the tuple is taken either way, in move order."""
    slots: dict[tuple, list[Modification]] = {}
    for m in mods:
        slots.setdefault((m.relation, m.tuple), []).append(m)
    table = []
    for (rel, tup), ms in slots.items():
        if honest_only:
            table.append((ctx.rel_index[rel], tup, tuple(m for m in ms if m.kind == DEL),
                          tuple(m for m in ms if m.kind == INS)))
        else:
            table.append((ctx.rel_index[rel], tup, tuple(ms), tuple(ms)))
    return table


def _bfs_check(p, oracle, cfg, bounds) -> Verdict:
    from .symmetry import interchangeable
    db, s0, lean0, ctx = _setup(p, cfg)
    moves = _moves(p, cfg, s0)[0]
    verdict = _orbit_bfs(p, db, ctx, lean0, _lean_oracle(oracle, ctx),
                         _move_slots(moves, ctx, cfg.honest_only), interchangeable(oracle, s0, moves),
                         cfg, bounds)
    if verdict.counterexample:
        _finish_counterexample(p, oracle, verdict.counterexample)
    return verdict


def _orbit_bfs(p: DynamicProgram, db: State, ctx: LeanContext, lean0, lean_oracle,
               slots: list[tuple], free: tuple[int, ...], cfg: CheckConfig, bounds: dict) -> Verdict:
    """Breadth-first search over the orbits of the free elements, within the
    bounds of cfg; with no free element, the plain search.

    The set of seen states stays closed under the permutations of the free
    elements: a successor not seen yet is the representative of a new orbit,
    all its images are added, and only the representative is checked and
    expanded.  The counts are those of `Verdict`: states are `len(seen)`,
    steps the orbit size times the moves taken from the representative.  A
    counterexample or the state cap stops the search where it stands, with
    the counts so far, and returns a counterexample without its trace digest.

    The path to the first violating representative is the plain search's
    counterexample.  The query and the oracle are invariant, so the violating
    states form a union of orbits, and the plain search stops at the first
    state it discovers of one.  By induction on the depth, the
    representatives are the states that the plain search discovers first in
    their orbits, in the same order and from the same parents.  Let the plain
    search discover x from y by move m, where y = pi(r) and r is the
    representative of y's orbit.  If y is not r, then r is expanded earlier,
    and pi^-1(x), reached from r by pi^-1(m), is in x's orbit at x's depth,
    so x is not the first of its orbit.  So the first state of each orbit is
    found from a representative, and the plain search takes the
    representatives' moves in the order this search takes them."""
    from .symmetry import Orbits
    orbit = Orbits(ctx, free).orbit
    slots = [(*slot, frozenset(slot[1]).intersection(free)) for slot in slots]
    cap = float("inf") if cfg.state_cap is None else cfg.state_cap
    seen = {lean0}
    # state -> (parent, move, support, orbit size): one tuple per found state
    # and no other new object, since each object per state that the garbage
    # collector tracks slows the whole search
    parents = {lean0: (None, None, frozenset(), 1)}
    exp, got = lean_oracle(lean0), ctx.query(lean0)
    if exp != got:
        return Verdict("counterexample", bounds, 1, 0, Counterexample(p.name, db, (), 0, exp, got))
    frontier = [lean0]
    steps = 0
    for depth in range(1, cfg.max_len + 1):
        new_frontier = []
        for st in frontier:
            support, size = parents[st][2:]
            rels = st[0]
            taken = 0
            for i, tup, if_present, if_absent, names in slots:
                for m in (if_present if tup in rels[i] else if_absent):
                    succ = ctx.apply(st, m)
                    taken += 1
                    if succ in seen:
                        continue
                    sup = support if names <= support else support | names
                    if sup:
                        before = len(seen)
                        seen.update(orbit(succ, sup))
                        parents[succ] = (st, m, sup, len(seen) - before)
                    else:  # fixed by every permutation: always so in the plain search
                        seen.add(succ)
                        parents[succ] = (st, m, sup, 1)
                    if len(seen) > cap:
                        return Verdict("resource", bounds, len(seen), steps + size * taken,
                                       notes=[f"state cap {cfg.state_cap} reached at depth {depth}"])
                    exp, got = lean_oracle(succ), ctx.query(succ)
                    if exp != got:
                        seq, node = [], succ
                        while parents[node][0] is not None:
                            node, move = parents[node][:2]
                            seq.append(move)
                        return Verdict("counterexample", bounds, len(seen), steps + size * taken,
                                       Counterexample(p.name, db, tuple(reversed(seq)), depth, exp, got))
                    new_frontier.append(succ)
            steps += size * taken
        frontier = new_frontier
    return Verdict("ok", bounds, len(seen), steps)


def _random_check(p, oracle, cfg, bounds) -> Verdict:
    db, s0, lean0, ctx = _setup(p, cfg)
    lean_oracle = _lean_oracle(oracle, ctx)
    _, start, flip = _moves(p, cfg, s0)
    rng = random.Random(cfg.seed)
    steps = 0
    if lean_oracle(lean0) != ctx.query(lean0):
        c = _finish_counterexample(p, oracle, Counterexample(
            p.name, db, (), 0, lean_oracle(lean0), ctx.query(lean0), seed=cfg.seed))
        return Verdict("counterexample", bounds, 1, 0, c, seed=cfg.seed)
    for _ in range(cfg.samples):
        lean = lean0
        seq: list[Modification] = []
        for i, m in enumerate(_walk(start, flip, rng, rng.randint(1, cfg.max_len)), start=1):
            lean = ctx.apply(lean, m)
            seq.append(m)
            steps += 1
            exp = lean_oracle(lean)
            got = ctx.query(lean)
            if exp != got:
                c = _finish_counterexample(p, oracle, Counterexample(
                    p.name, db, tuple(seq), i, exp, got, seed=cfg.seed))
                return Verdict("counterexample", bounds, 0, steps, c, seed=cfg.seed)
    return Verdict("ok", bounds, 0, steps, seed=cfg.seed)


# -- subsequences and Higman pairs ----------------------------------------------------

# A type word: one atomic-type letter per tracked element, as the attack
# drivers build them from suffix or gadget states.
TypeWord = tuple


def type_word(s: State, elements: Sequence[int], sigma: Iterable[str] | None = None,
              anchor: Sequence[int] = ()) -> TypeWord:
    """One letter per element: the sigma-type of (element, anchor...) in s."""
    return tuple(atomic_type(s, (e, *anchor), sigma) for e in elements)


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


def is_closed(s: State, a: Iterable[int]) -> bool:
    """A set is closed when its 1-neighborhood adds nothing."""
    a = set(a)
    return neighborhood(s, a, 1) == a


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
    out = []
    for _ in range(length):
        rel = rng.choice(p.schema.input_relations)
        ar = p.schema.arity(rel)
        tup = tuple(rng.choice(list(subset)) for _ in range(ar))
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

def _replay_with_oracle(p: DynamicProgram, oracle, db: State,
                        seq: Sequence[Modification]) -> Counterexample | None:
    """Run a concrete sequence, comparing the query bit to the oracle after
    every step; the first divergence becomes a validated counterexample."""
    s = init_state(p, db)
    if s.query_value(p.query_symbol) != oracle(s.input_part()):
        return _finish_counterexample(p, oracle, Counterexample(
            p.name, db, (), 0, oracle(s.input_part()), s.query_value(p.query_symbol)))
    for i, m in enumerate(seq, start=1):
        s = apply(p, s, m)
        got = s.query_value(p.query_symbol)
        exp = oracle(s.input_part())
        if got != exp:
            return _finish_counterexample(p, oracle, Counterexample(
                p.name, db, tuple(seq[:i]), i, exp, got))
    return None


def attack_star_deletion(p: DynamicProgram, n: int,
                         oracle: Callable[[State], bool] = oracle_st_reach) -> Counterexample | None:
    """Drive a unary candidate through the star construction: connect n layer
    nodes to s and t, peel s-edges off suffix by suffix, build one type word
    per suffix state, and use a Higman pair of those words to issue two
    deletion sequences that the candidate cannot tell apart although their
    reachability differs.  Any earlier divergence found along the way is
    returned as the (shorter) witness.
    """
    sch = p.schema
    bad = [a for a in sch.aux_symbols if sch.arity(a) > 1]
    if bad:
        worst = max(bad, key=sch.arity)
        raise GuardError(f"star-deletion needs unary auxiliary data: "
                         f"{worst!r} has arity {sch.arity(worst)} > 1")
    if any(sch.role(f) is Role.AUX for f in sch.functions):
        raise GuardError("star-deletion targets relational candidates")
    if "s" not in sch.constants or "t" not in sch.constants:
        raise GuardError("candidate must use constants s and t")
    if n < 1:
        return None
    size = n + 2
    db = empty_input_db(p, size)  # s = 0, t = size-1, layer = 1..n
    layer = list(range(1, n + 1))
    t_node = size - 1
    alpha = []
    for a in layer:
        alpha += [Modification("E", (0, a), INS), Modification("E", (a, t_node), INS)]

    aux_rels = [r for r in sch.symbols(Role.AUX, "rel")]
    trace = run(p, init_state(p, db), alpha)
    states = {n: trace[-1]}
    suffix: list[Modification] = []
    for i in range(n - 1, 0, -1):
        suffix.append(Modification("E", (0, layer[i]), DEL))
        states[i] = apply(p, states[i + 1], suffix[-1])

    words = {i: tuple(atomic_type(states[i], (layer[j],), sigma=aux_rels) for j in range(i))
             for i in range(1, n + 1)}
    pair = higman_pair([words[i] for i in range(1, n + 1)])
    if pair is None:
        # no pair at this scale; an outright maintenance failure along the
        # construction is still a valid (shorter) witness
        return _replay_with_oracle(p, oracle, db, alpha + suffix)
    i, j = pair[0] + 1, pair[1] + 1  # word sizes, 1-based
    pos = embedding_positions(words[i], words[j])
    alpha_i = [Modification("E", (0, layer[m]), DEL) for m in range(n - 1, i - 1, -1)]
    alpha_j = [Modification("E", (0, layer[m]), DEL) for m in range(n - 1, j - 1, -1)]
    beta1 = [Modification("E", (0, layer[m]), DEL) for m in range(i)]
    beta2 = [Modification("E", (0, layer[q]), DEL) for q in pos]
    found = _replay_with_oracle(p, oracle, db, alpha + alpha_i + beta1)
    if found:
        return found
    return _replay_with_oracle(p, oracle, db, alpha + alpha_j + beta2)


def attack_subset_gadget(p: DynamicProgram, n2: int,
                         oracle: Callable[[State], bool] = oracle_st_reach) -> Counterexample | None:
    """Drive a binary candidate through the subset-coding gadget: one layer-A
    node per subset X of layer B (edges a_X -> X), full B -> t edges, a
    homogeneous subset of B, and a Higman pair over the binary type words of
    (a_X, b) pairs; the pair yields two delete-then-connect sequences with
    different reachability that the candidate must answer identically."""
    sch = p.schema
    bad = [a for a in sch.aux_symbols if sch.arity(a) > 2]
    if bad:
        worst = max(bad, key=sch.arity)
        raise GuardError(f"subset-gadget needs at most binary auxiliary data: "
                         f"{worst!r} has arity {sch.arity(worst)} > 2")
    if any(sch.role(f) is Role.AUX for f in sch.functions):
        raise GuardError("subset-gadget targets relational candidates")
    if "s" not in sch.constants or "t" not in sch.constants:
        raise GuardError("candidate must use constants s and t")
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

    s_prime = run(p, init_state(p, db), alpha)[-1]
    aux_rels = sch.symbols(Role.AUX, "rel")
    b3: list[int] | None = None
    for want in range(n2, 1, -1):
        found = find_homogeneous_subset(s_prime, b_nodes, want)
        if found:
            b3 = sorted(found)
            break
    early = _replay_with_oracle(p, oracle, db, alpha)
    if early:
        return early
    if not b3:
        return None
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
    found = _replay_with_oracle(p, oracle, db, alpha + beta1)
    if found:
        return found
    return _replay_with_oracle(p, oracle, db, alpha + beta2)


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
    oracle = oracle_nonemptyset
    inserts = [Modification(u_rel, (e,), INS) for e in range(size)]
    if bound < len(inserts):
        return None
    early = _replay_with_oracle(p, oracle, db, inserts)
    if early:
        return early
    base_state = run(p, init_state(p, db), inserts)[-1]
    found: list[tuple[list[Modification], bool, bool]] = []

    def dfs(state: State, seq: list[Modification]) -> bool:
        if len(seq) + len(inserts) >= bound:
            return False
        present = sorted(x for (x,) in state.relations[u_rel])
        for e in present:
            m_ = Modification(u_rel, (e,), DEL)
            nxt = apply(p, state, m_)
            got = nxt.query_value(p.query_symbol)
            exp = oracle(nxt.input_part())
            if got != exp:
                found.append((seq + [m_], exp, got))
                return True
            if dfs(nxt, seq + [m_]):
                return True
        return False

    if dfs(base_state, []):
        suffix, exp, got = found[0]
        seq = inserts + suffix
        return _finish_counterexample(p, oracle, Counterexample(
            p.name, db, tuple(seq), len(seq), exp, got))
    return None
