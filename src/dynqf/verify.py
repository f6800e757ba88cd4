"""Maintenance checking against oracles: the Dyn-FO question of Patnaik &
Immerman (1997) for quantifier-free programs, answered up to bounds.

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

The search and random mode step lean payloads, random mode each short
prefix its walks share once (`_random_check`); only the replay validating a
counterexample runs States.  The lower-bound constructions, which reuse the
moves, walks and replay defined here, live in lower_bounds.py.
"""
from __future__ import annotations

import itertools
import random
from typing import Callable, Mapping

from .compiler import LeanContext, context_for_state
from .corpus import InstanceGuard
from .errors import DynqfError
from .program import DynamicProgram, empty_input_db, init_state, run
from .records import Record
from .state import DEL, INS, Modification, State, is_honest

# Names of lower_bounds.py that resolve as `dynqf.verify.<name>`, as the
# benchmark's tracer reads them.  Each access loads that module if needed
# and reads its attribute; nothing is stored here, so a rebinding of
# lower_bounds' globals shows through.
_LOWER_BOUND_NAMES = frozenset({
    "substructure_property", "k_similar", "_restriction_isomorphism", "attack_star_deletion",
    "attack_subset_gadget", "cq_adversary", "oracle_st_reach"})


def __getattr__(name: str):
    if name in _LOWER_BOUND_NAMES:
        from . import lower_bounds
        return getattr(lower_bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    moves.

    A random check counts what its walks did, up to where it stopped.
    `checked_states` counts the initial state and each state after a step
    that was compared with the oracle: a stored walk prefix (see
    `_random_check`) is compared, and counted, once however many walks share
    it, and no other state is deduplicated.  `checked_steps` counts every
    step of every walk, stored prefixes included."""

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
    """Check the initial state, then `samples` seeded walks, each of a seeded
    length from 1 to max_len, comparing the query bit with the oracle after
    every step; with max_len 0 there is no walk.

    Every walk starts from the initial state, so walks share their first
    moves.  A per-run table maps each walk prefix of at most `depth` moves to
    its payload and the table of its children.  A step whose prefix is in the
    table takes the stored payload and is neither applied nor checked again:
    the payload after a prefix is a function of the prefix, and it matched
    the oracle when the prefix was first stepped, or the run would have ended
    there.  `_walk` reads only moves, never states, so the seeded stream, the
    verdict and any counterexample are those of stepping every move.
    `checked_steps` still counts every step of every walk, and
    `checked_states` the initial state and each state compared with the
    oracle, so a stored prefix counts once.

    `depth` is the largest d with |start|^d <= samples, at most max_len, where
    start holds the moves admissible in the initial state.  No step admits
    more moves than the one before it, so the table holds at most
    min(|start|^d, samples) prefixes of length d: with two or more starting
    moves at most 2 * samples payloads in all, and with one, one payload per
    step of the longest walk.
    """
    db, s0, lean0, ctx = _setup(p, cfg)
    lean_oracle = _lean_oracle(oracle, ctx)
    _, start, flip = _moves(p, cfg, s0)
    rng = random.Random(cfg.seed)
    states, steps = 1, 0
    exp, got = lean_oracle(lean0), ctx.query(lean0)
    if exp != got:
        c = _finish_counterexample(p, oracle, Counterexample(
            p.name, db, (), 0, exp, got, seed=cfg.seed))
        return Verdict("counterexample", bounds, states, 0, c, seed=cfg.seed)
    if cfg.max_len == 0:
        return Verdict("ok", bounds, states, 0, seed=cfg.seed)
    depth = cfg.max_len if len(start) <= 1 else 0
    while depth < cfg.max_len and len(start) ** (depth + 1) <= cfg.samples:
        depth += 1
    known: dict[Modification, tuple] = {}  # move -> (payload, children) at the empty prefix
    for _ in range(cfg.samples):
        lean, level = lean0, known
        seq: list[Modification] = []
        for i, m in enumerate(_walk(start, flip, rng, rng.randint(1, cfg.max_len)), start=1):
            seq.append(m)
            steps += 1
            if i <= depth:
                node = level.get(m)
                if node is not None:
                    lean, level = node
                    continue
            lean = ctx.apply(lean, m)
            states += 1
            exp = lean_oracle(lean)
            got = ctx.query(lean)
            if exp != got:
                c = _finish_counterexample(p, oracle, Counterexample(
                    p.name, db, tuple(seq), i, exp, got, seed=cfg.seed))
                return Verdict("counterexample", bounds, states, steps, c, seed=cfg.seed)
            if i <= depth:
                children: dict[Modification, tuple] = {}
                level[m] = (lean, children)
                level = children
    return Verdict("ok", bounds, states, steps, seed=cfg.seed)
