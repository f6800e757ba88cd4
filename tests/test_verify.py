import functools
import gc
import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dynqf.compiler import LeanContext, context_for_state
from dynqf.corpus import GUARDS, builtin_program, corpus_source, strawman_program
from dynqf.errors import DynqfError, GuardError, ResourceLimitError
from dynqf.formulas import And, Not, Or, eval_term, terms_up_to_depth
from dynqf.parser import parse_program
from dynqf.program import (DynamicProgram, UpdateRule, _reference_apply, apply, empty_input_db,
                           init_state, run)
from dynqf.queries import (ORACLES, is_monotone, is_query, oracle_k_clique, oracle_nonemptyset,
                           oracle_st_reach, oracle_st_twopath, query)
from dynqf.schema import Role, make_schema
from dynqf.serialize import counterexample_to_dict, trace_digest, verdict_to_dict
from dynqf.state import DEL, INS, Modification, ins, is_honest, make_state, transport
from dynqf.symmetry import Orbits, interchangeable
from dynqf.transforms import deletion_depth, eliminate_repeated_variables, relations_to_functions
from dynqf.lower_bounds import (_fold, _mods_on, _term_pairs, attack_star_deletion,
                                attack_subset_gadget, cq_adversary, diverse_saturation,
                                embedding_positions, higman_pair, k_similar, neighborhood,
                                subsequence, substructure_property)
from dynqf.verify import (CheckConfig, Counterexample, Verdict, check_maintenance,
                          validate_counterexample)
from dynqf.verify import (_candidate_mods, _finish_counterexample, _lean_oracle, _move_slots, _moves,
                          _orbit_bfs, _setup, _walk)

BROKEN_SRC = """
program broken
input { U/1 }
aux   { Q/0 }
query Q
init  oracle
on insert U(a):
  Q(): true
on delete U(a):
  Q(): true
"""


def test_check_maintenance_ok_small():
    e = builtin_program("non-empty-set")
    v = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=3, max_len=6))
    assert v.status == "ok" and v.exit_code == 0


def test_check_maintenance_finds_forced_counterexample():
    p = parse_program(BROKEN_SRC)
    v = check_maintenance(p, oracle_nonemptyset, CheckConfig(domain_size=3, max_len=4))
    assert v.status == "counterexample" and v.exit_code == 1
    c = v.counterexample
    assert c.step == 2 and c.expected is False and c.produced is True
    assert [str(m) for m in c.sequence] == ["ins U(0)", "del U(0)"]
    assert validate_counterexample(p, oracle_nonemptyset, c)
    assert c.trace_digest


def test_finishing_a_counterexample_replays_it_once(monkeypatch):
    import dynqf.verify as verify
    p = parse_program(BROKEN_SRC)
    c = check_maintenance(p, oracle_nonemptyset, CheckConfig(domain_size=3, max_len=4)).counterexample
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return run(*args, **kwargs)

    monkeypatch.setattr(verify, "run", counted)
    digest, c.trace_digest = c.trace_digest, ""
    assert verify._finish_counterexample(p, oracle_nonemptyset, c) is c
    assert calls == [c.sequence[:c.step]] and c.trace_digest == digest


def test_a_counterexample_that_does_not_reproduce_fails_self_validation():
    from dynqf.errors import DynqfError
    from dynqf.verify import _finish_counterexample
    p = parse_program(BROKEN_SRC)
    c = check_maintenance(p, oracle_nonemptyset, CheckConfig(domain_size=3, max_len=4)).counterexample
    c.produced = not c.produced
    assert not validate_counterexample(p, oracle_nonemptyset, c)
    with pytest.raises(DynqfError, match="internal error: counterexample failed self-validation"):
        _finish_counterexample(p, oracle_nonemptyset, c)


def test_check_maintenance_random_mode_finds_it_too():
    p = parse_program(BROKEN_SRC)
    v = check_maintenance(p, oracle_nonemptyset,
                          CheckConfig(domain_size=3, max_len=4, mode="random",
                                      samples=200, seed=3))
    assert v.status == "counterexample"
    assert v.seed == 3


def test_check_maintenance_resource_guard():
    e = builtin_program("st-twopath-binary")
    cfg = CheckConfig(domain_size=50, max_len=5)
    v = check_maintenance(e.program, e.oracle, cfg)
    assert v.status == "resource" and v.exit_code == 2


def test_no_state_cap_skips_the_pre_estimate():
    e = builtin_program("non-empty-set")  # 84 estimated sequence prefixes, 41 states
    v = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=4, max_len=3, state_cap=5))
    assert (v.status, v.checked_states, v.checked_steps) == ("resource", 0, 0)
    assert "pass --override-cap to force the search" in v.notes[0]
    v = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=4, max_len=3, state_cap=None))
    assert (v.status, v.checked_states, v.checked_steps) == ("ok", 41, 68)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_wrapped_oracle_matches_registered_oracle(mode):
    # an oracle the checker cannot recognize by identity takes the same path
    p = strawman_program("unary-twopath-naive")
    cfg = CheckConfig(domain_size=3, max_len=6, mode=mode, samples=300, seed=0)
    registered = check_maintenance(p, oracle_st_twopath, cfg)
    wrapped = check_maintenance(p, lambda g: oracle_st_twopath(g), cfg)
    assert registered.status == wrapped.status == "counterexample"
    assert registered.checked_states == wrapped.checked_states
    assert registered.checked_steps == wrapped.checked_steps
    assert registered.counterexample == wrapped.counterexample


PROGRAMS = {
    **{name: (builtin_program(name).program, builtin_program(name).oracle)
       for name in ("non-empty-set", "st-twopath-binary", "s-twopath-ternary", "reach-1layer-qf")},
    "unary-twopath-naive": (strawman_program("unary-twopath-naive"), oracle_st_twopath),
    "binary-reach2-naive": (strawman_program("binary-reach2-naive"), oracle_st_reach),
    "cq-nonemptyset-naive": (strawman_program("cq-nonemptyset-naive"), oracle_nonemptyset),
}
GRAPH_PROGRAMS = {"st-twopath-binary", "reach-1layer-qf", "unary-twopath-naive",
                  "binary-reach2-naive"}
TEST_GUARDS = {
    "none": None,
    "layered": GUARDS["1-layered-st"],
    "kind": lambda m, n, consts: m.kind == "ins" or m.tuple[0] == 0,
}


def _reference_random_check(p, oracle, cfg):
    """Random mode with the admissible list rebuilt before every step.  It
    counts the initial state and each state after a step, except a state
    after a prefix of at most `depth` moves that an earlier walk stepped: as
    `Verdict` defines the counts, random mode compares that one once."""
    db = empty_input_db(p, cfg.domain_size, cfg.constants)
    s0 = init_state(p, db)
    mods = _candidate_mods(p, cfg.domain_size)
    rng = random.Random(cfg.seed)
    bounds = {"domain_size": cfg.domain_size, "max_len": cfg.max_len, "mode": "random",
              "honest_only": cfg.honest_only, "samples": cfg.samples}
    assert s0.query_value(p.query_symbol) == oracle(s0.input_part())

    def admissible(s):
        return [m for m in mods
                if (not cfg.honest_only or is_honest(s, m))
                and (cfg.guard is None or cfg.guard(m, cfg.domain_size, db.constants))]

    start = len(admissible(s0))
    depth = cfg.max_len if start <= 1 else max(d for d in range(cfg.max_len + 1)
                                               if start ** d <= cfg.samples)
    stepped = set()
    states, steps = 1, 0
    for _ in range(cfg.samples):
        length = rng.randint(1, cfg.max_len)
        s, seq = s0, []
        for i in range(1, length + 1):
            moves = admissible(s)
            if not moves:
                break
            m = rng.choice(moves)
            s = apply(p, s, m)
            seq.append(m)
            steps += 1
            if i > depth or tuple(seq) not in stepped:
                stepped.add(tuple(seq))
                states += 1
            exp, got = oracle(s.input_part()), s.query_value(p.query_symbol)
            if exp != got:
                c = Counterexample(p.name, db, tuple(seq), i, exp, got, cfg.seed,
                                   trace_digest(run(p, s0, seq)))
                return Verdict("counterexample", bounds, states, steps, c, seed=cfg.seed)
    return Verdict("ok", bounds, states, steps, seed=cfg.seed)


@pytest.mark.parametrize("name,guard", [(name, guard) for name in PROGRAMS for guard in TEST_GUARDS
                                        if guard != "layered" or name in GRAPH_PROGRAMS])
@pytest.mark.parametrize("honest", [True, False])
def test_random_mode_matches_per_step_rebuild(name, guard, honest):
    p, oracle = PROGRAMS[name]
    for seed in (0, 7):
        cfg = CheckConfig(domain_size=3, max_len=6, mode="random", samples=60, seed=seed,
                          honest_only=honest, guard=TEST_GUARDS[guard])
        assert (verdict_to_dict(check_maintenance(p, oracle, cfg))
                == verdict_to_dict(_reference_random_check(p, oracle, cfg)))


@pytest.mark.parametrize("name,samples", [
    ("non-empty-set", 100),  # 3 or 6 starting moves: depth 4 or 2
    ("s-twopath-ternary", 400),  # 9 or 18 starting moves: depth 2
])
@pytest.mark.parametrize("honest", [True, False])
def test_random_mode_with_stored_prefixes_matches_per_step_rebuild(name, samples, honest):
    p, oracle = PROGRAMS[name]
    for seed in (0, 7):
        cfg = CheckConfig(domain_size=3, max_len=6, mode="random", samples=samples, seed=seed,
                          honest_only=honest)
        assert (verdict_to_dict(check_maintenance(p, oracle, cfg))
                == verdict_to_dict(_reference_random_check(p, oracle, cfg)))


def _walks(p, cfg):
    """The moves of every walk of random mode, drawn as `_random_check` draws them."""
    moves, start, flip = _moves(p, cfg, init_state(p, empty_input_db(p, cfg.domain_size)))
    rng = random.Random(cfg.seed)
    return [[moves[k] for k in _walk(start, flip, rng, rng.randint(1, cfg.max_len))]
            for _ in range(cfg.samples)]


def _reference_walk(start, flip, rng, length):
    """The walk as a sequence of `Modification`s: up to `length` seeded
    moves, each drawn from the moves admissible at that step, with `flip` a
    dict from each move to the move that replaces it once taken (None: no
    move does).  `_walk` must draw the same moves by number, and leave the
    generator in the same state."""
    admissible = list(start)
    for _ in range(length):
        if not admissible:
            return
        j = rng.choice(range(len(admissible)))
        m = admissible[j]
        flipped = flip[m]
        if flipped is None:
            del admissible[j]
        else:
            admissible[j] = flipped
        yield m


def _reference_walk_moves(p, cfg, s0):
    """The start moves and flip dict of `_reference_walk`, built from the
    candidates alone: with `honest_only`, a move is admissible at the start
    when it is honest in s0, and it flips to its opposite kind if the guard
    admits that; without, every guarded move is admissible and stays so."""
    n = cfg.domain_size
    guarded = [m for m in _candidate_mods(p, n) if cfg.guard is None or cfg.guard(m, n, s0.constants)]
    if not cfg.honest_only:
        return guarded, {m: m for m in guarded}
    flip = {}
    for m in guarded:
        opposite = Modification(m.relation, m.tuple, DEL if m.kind == INS else INS)
        flip[m] = opposite if opposite in guarded else None
    return [m for m in guarded if is_honest(s0, m)], flip


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 5), honest=st.booleans(),
       guard=st.sampled_from(sorted(TEST_GUARDS)), walks=st.integers(1, 12))
def test_numbered_walks_draw_the_reference_moves(seed, n, honest, guard, walks):
    # reach-1layer-qf with no guard, under the 1-layered-st guard, and under
    # a guard that rejects the opposite of some moves it admits
    p = PROGRAMS["reach-1layer-qf"][0]
    cfg = CheckConfig(domain_size=n, max_len=8, honest_only=honest, guard=TEST_GUARDS[guard])
    s0 = init_state(p, empty_input_db(p, n))
    moves, start, flip = _moves(p, cfg, s0)
    ref_start, ref_flip = _reference_walk_moves(p, cfg, s0)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(walks):
        got = [moves[k] for k in _walk(start, flip, rng, rng.randint(0, cfg.max_len))]
        expected = list(_reference_walk(ref_start, ref_flip, ref_rng, ref_rng.randint(0, cfg.max_len)))
        assert got == expected
        assert rng.getstate() == ref_rng.getstate()


def test_a_counterexample_after_a_stored_prefix_matches_the_reference():
    p, oracle = PROGRAMS["unary-twopath-naive"]
    cfg = CheckConfig(domain_size=3, max_len=6, mode="random", samples=300, seed=0)
    v = check_maintenance(p, oracle, cfg)
    ref = _reference_random_check(p, oracle, cfg)
    c = v.counterexample
    assert (c.sequence, c.step, c.trace_digest) == (ref.counterexample.sequence,
                                                    ref.counterexample.step,
                                                    ref.counterexample.trace_digest)
    assert verdict_to_dict(v) == verdict_to_dict(ref)
    # the depth is 2 (9 starting moves, 9 ** 2 <= 300), and an earlier walk
    # stepped the failing walk's first two moves, so it took their payload
    # from the table
    walks = _walks(p, cfg)
    failing = next(i for i, w in enumerate(walks) if tuple(w[:c.step]) == c.sequence)
    assert c.step > 2 and c.sequence[:2] in {tuple(w[:2]) for w in walks[:failing]}


def test_random_mode_applies_each_short_prefix_once(apply_calls):
    p, oracle = PROGRAMS["s-twopath-ternary"]
    cfg = CheckConfig(domain_size=4, max_len=6, mode="random", samples=300, seed=0)
    v = check_maintenance(p, oracle, cfg)
    assert v.status == "ok"
    depth = 2  # 16 starting moves: 16 ** 2 <= 300 < 16 ** 3
    short = [tuple(w[:i]) for w in _walks(p, cfg) for i in range(1, min(len(w), depth) + 1)]
    # every step beyond the depth is applied, and each short prefix once
    assert len(apply_calls) == v.checked_steps - len(short) + len(set(short)) < v.checked_steps


def test_random_mode_at_max_len_0_checks_only_the_initial_state():
    e = builtin_program("non-empty-set")
    cfg = CheckConfig(domain_size=3, max_len=0, mode="random", samples=5)
    v = check_maintenance(e.program, e.oracle, cfg)
    assert (v.status, v.checked_states, v.checked_steps, v.notes) == ("ok", 1, 0, [])
    # the counts of the exhaustive search of the same bounds
    exhaustive = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=3, max_len=0))
    assert (exhaustive.checked_states, exhaustive.checked_steps) == (1, 0)
    v = check_maintenance(e.program, lambda g: True, cfg)  # the empty set is not non-empty
    assert (v.status, v.counterexample.step, v.counterexample.sequence) == ("counterexample", 0, ())
    assert (v.checked_states, v.checked_steps) == (1, 0)


@pytest.mark.parametrize("bounds", [dict(max_len=-1), dict(max_len=-1, mode="random", samples=5),
                                    dict(max_len=2, mode="random", samples=-3)])
def test_negative_bounds_are_an_input_error_in_both_modes(bounds):
    # no search can honour them, so no verdict is returned, not even a vacuous ok
    e = builtin_program("non-empty-set")
    with pytest.raises(DynqfError, match="^bounds must not be negative, got max_len=-?\\d+, samples=-?\\d+$"):
        check_maintenance(e.program, e.oracle, CheckConfig(domain_size=3, **bounds))
    # a negative sample count is not read by the exhaustive search
    v = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=3, max_len=1, samples=-3))
    assert v.status == "ok"


def test_sizes_that_give_vacuous_results_are_input_errors():
    # each would report a pass or "no witness" without looking at anything
    cfg = CheckConfig(domain_size=4, max_len=3, samples=-5, seed=1, honest_only=True)
    with pytest.raises(DynqfError, match="^samples must not be negative, got -5$"):
        substructure_property(builtin_program("st-twopath-binary").program, cfg)
    unary = strawman_program("unary-twopath-naive")
    binary = strawman_program("binary-reach2-naive")
    cq = strawman_program("cq-nonemptyset-naive")
    for size in (0, -3):
        with pytest.raises(DynqfError, match="^star-deletion needs n >= 1, got %d$" % size):
            attack_star_deletion(unary, size)
    for size in (0, -1):
        with pytest.raises(DynqfError, match="^subset-gadget needs n2 >= 1, got %d$" % size):
            attack_subset_gadget(binary, size)
    for bound in (0, -2):
        with pytest.raises(DynqfError, match="^cq-adversary needs bound >= 1, got %d$" % bound):
            cq_adversary(cq, bound)
    # the smallest sizes still run, and find no witness
    assert attack_star_deletion(unary, 1) is None and attack_subset_gadget(binary, 1) is None


def test_random_mode_counts_each_state_it_compares_with_the_oracle():
    # the initial state and each stepped state, once: 16 moves start a walk,
    # so the prefixes of at most 2 moves are stored and compared once each
    e = builtin_program("s-twopath-ternary")
    calls = []

    def oracle(s):
        calls.append(s)
        return e.oracle(s)

    cfg = CheckConfig(domain_size=4, max_len=6, mode="random", samples=300, seed=1)
    v = check_maintenance(e.program, oracle, cfg)
    assert (v.status, v.checked_states, v.checked_steps) == ("ok", 680, 1067)
    assert v.checked_states == len(calls)


def test_substructure_suite_refuses_max_len_0():
    with pytest.raises(DynqfError, match="max_len >= 1 .* got 0"):
        substructure_property(builtin_program("non-empty-set").program,
                              CheckConfig(domain_size=3, max_len=0, samples=5))


def _reference_bfs_check(p, oracle, cfg):
    """Exhaustive mode as a loop over the guarded moves that probes the
    honesty of each one in every expanded state and expands every state.

    It counts what the search covers (see `Verdict`): a discovered state
    that no earlier one covers adds all its images under the permutations of
    the free elements that `interchangeable` returns, each built by
    `transport`; and the first state of each such orbit adds the orbit size
    times the moves taken from it.  With no free element these are the
    states and steps of the plain search."""
    db = empty_input_db(p, cfg.domain_size, cfg.constants)
    s0 = init_state(p, db)
    ctx = context_for_state(p, s0)
    mods = [m for m in _candidate_mods(p, cfg.domain_size)
            if cfg.guard is None or cfg.guard(m, cfg.domain_size, db.constants)]
    free = interchangeable(oracle, s0, mods)
    group = [{**{e: e for e in s0.domain}, **dict(zip(free, image))}
             for image in itertools.permutations(free)][1:]  # all but the identity
    bounds = {"domain_size": cfg.domain_size, "max_len": cfg.max_len, "mode": "exhaustive",
              "honest_only": cfg.honest_only}
    covered, first = set(), {}  # first state of an orbit -> the orbit size

    def cover(lean):
        if lean not in covered:
            s = ctx.from_lean(lean)
            orbit = {lean, *(ctx.to_lean(transport(s, pi)) for pi in group)}
            covered.update(orbit)
            first[lean] = len(orbit)

    def divergence(lean, seq, steps):
        exp, got = oracle(ctx.layout.input_state(lean)), ctx.query(lean)
        if exp == got:
            return None
        c = Counterexample(p.name, db, tuple(seq), len(seq), exp, got, None,
                           trace_digest(run(p, s0, seq)))
        return Verdict("counterexample", bounds, len(covered), steps, c)

    lean0 = ctx.to_lean(s0)
    cover(lean0)
    found = divergence(lean0, [], 0)
    if found:
        return found
    frontier, parents, steps = [lean0], {lean0: None}, 0
    for depth in range(1, cfg.max_len + 1):
        new_frontier = []
        for st in frontier:
            taken = 0
            for m in mods:
                present = m.tuple in st[ctx.rel_index[m.relation]]
                if cfg.honest_only and present == (m.kind == "ins"):
                    continue
                succ = ctx.apply(st, m)
                taken += 1
                if succ in parents:
                    continue
                parents[succ] = (st, m)
                cover(succ)
                if cfg.state_cap is not None and len(covered) > cfg.state_cap:
                    return Verdict("resource", bounds, len(covered), steps + first.get(st, 0) * taken,
                                   notes=[f"state cap {cfg.state_cap} reached at depth {depth}"])
                seq, node = [], succ
                while parents[node] is not None:
                    node, step = parents[node]
                    seq.insert(0, step)
                found = divergence(succ, seq, steps + first.get(st, 0) * taken)
                if found:
                    return found
                new_frontier.append(succ)
            steps += first.get(st, 0) * taken
        frontier = new_frontier
    return Verdict("ok", bounds, len(covered), steps)


@pytest.mark.parametrize("name,guard", [(name, guard) for name in PROGRAMS for guard in TEST_GUARDS
                                        if guard != "layered" or name in GRAPH_PROGRAMS])
@pytest.mark.parametrize("honest", [True, False])
def test_exhaustive_mode_matches_per_move_honesty_probes(name, guard, honest):
    p, oracle = PROGRAMS[name]
    for n, max_len in ((3, 4), (4, 2)):
        cfg = CheckConfig(domain_size=n, max_len=max_len, honest_only=honest, guard=TEST_GUARDS[guard])
        assert (verdict_to_dict(check_maintenance(p, oracle, cfg))
                == verdict_to_dict(_reference_bfs_check(p, oracle, cfg)))


INIT_TRUE_SRC = """
program init_true
input { U/1 }
aux   { Q/0 }
query Q
init  table { Q = () }
on insert U(a):
  Q(): true
on delete U(a):
  Q(): false
"""


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_counterexample_at_the_initial_state_counts_that_state(mode):
    p = parse_program(INIT_TRUE_SRC)
    cfg = CheckConfig(domain_size=3, max_len=3, mode=mode, seed=7)
    v = check_maintenance(p, oracle_nonemptyset, cfg)
    assert (v.status, v.checked_states, v.checked_steps) == ("counterexample", 1, 0)
    c = v.counterexample
    assert (c.step, c.sequence) == (0, ())
    assert c.trace_digest and validate_counterexample(p, oracle_nonemptyset, c)
    assert c.seed == v.seed == (cfg.seed if mode == "random" else None)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("src, step", [(INIT_TRUE_SRC, 0), (BROKEN_SRC, 2)], ids=["initial", "later"])
def test_check_maintenance_finishes_a_counterexample_once(monkeypatch, mode, src, step):
    import dynqf.verify as verify
    finish, finished = verify._finish_counterexample, []

    def counted(p, oracle, cex):
        finished.append(cex)
        return finish(p, oracle, cex)

    monkeypatch.setattr(verify, "_finish_counterexample", counted)
    p = parse_program(src)
    v = check_maintenance(p, oracle_nonemptyset,
                          CheckConfig(domain_size=3, max_len=4, mode=mode, samples=200, seed=3))
    assert v.status == "counterexample" and v.counterexample.step == step
    assert len(finished) == 1 and finished[0] is v.counterexample


# -- symmetry reduction -------------------------------------------------------------

# Wrapping an oracle in a lambda hides its query mark, so the wrapped call
# takes the plain search: these tests compare the reduced search with it.
# The two agree on everything but the counts of a verdict other than `ok`,
# which are those of the covered states and match `_reference_bfs_check`.
VARIANTS = {
    **PROGRAMS,
    **{f"{name} rel2fun": (relations_to_functions(p), oracle) for name, (p, oracle) in PROGRAMS.items()},
    **{f"{name} dedup-vars": (eliminate_repeated_variables(p), oracle)
       for name, (p, oracle) in PROGRAMS.items() if name != "reach-1layer-qf"},
}
SYMMETRY_GUARDS = {
    "none": None,
    "layered": GUARDS["1-layered-st"],
    "first-is-0": lambda m, n, consts: m.tuple[0] == 0,  # invariant only where 0 is a constant
}


def _plain(oracle):
    return lambda g: oracle(g)


def _assert_matches_plain_search(p, oracle, cfg):
    reduced = verdict_to_dict(check_maintenance(p, oracle, cfg))
    plain = verdict_to_dict(check_maintenance(p, _plain(oracle), cfg))
    if plain["checked_states"] and plain["status"] != "ok":  # a search, not the pre-estimate
        assert reduced == verdict_to_dict(_reference_bfs_check(p, oracle, cfg))
        for key in ("checked_states", "checked_steps"):
            del reduced[key], plain[key]
    assert reduced == plain


@pytest.mark.parametrize("name,guard", [(name, guard) for name in VARIANTS for guard in SYMMETRY_GUARDS
                                        if guard != "layered" or name.split()[0] in GRAPH_PROGRAMS])
@pytest.mark.parametrize("honest", [True, False])
def test_reduced_search_matches_plain_search(name, guard, honest):
    p, oracle = VARIANTS[name]
    layouts = [None]
    if "t" in p.schema.constants:
        layouts.append({"s": 0, "t": 1})  # c_top and c_bot of rel2fun are constants then
    for n, max_len in ((3, 4), (4, 3)):
        for constants in layouts:
            cfg = CheckConfig(domain_size=n, max_len=max_len, honest_only=honest,
                              guard=SYMMETRY_GUARDS[guard], constants=constants)
            _assert_matches_plain_search(p, oracle, cfg)


@pytest.mark.parametrize("name", list(PROGRAMS))
@pytest.mark.parametrize("honest", [True, False])
def test_reduced_search_matches_plain_search_with_more_free_elements(name, honest):
    # supports of two elements out of three or four free ones
    p, oracle = PROGRAMS[name]
    _assert_matches_plain_search(p, oracle, CheckConfig(domain_size=5, max_len=3, honest_only=honest))


@pytest.mark.parametrize("name", ["non-empty-set", "st-twopath-binary", "unary-twopath-naive"])
def test_reduced_search_at_the_state_cap_matches_plain_search(name):
    p, oracle = PROGRAMS[name]
    total = check_maintenance(p, _plain(oracle), CheckConfig(domain_size=4, max_len=3)).checked_states
    for cap in (1, total // 2, total - 1, total):
        cfg = CheckConfig(domain_size=4, max_len=3, state_cap=cap)
        _assert_matches_plain_search(p, oracle, cfg)
        assert (check_maintenance(p, oracle, cfg).status == "resource") == (cap < total)


def _swap_and_or(f):
    if isinstance(f, (And, Or)):
        return (Or if isinstance(f, And) else And)(_swap_and_or(f.left), _swap_and_or(f.right))
    return Not(_swap_and_or(f.sub)) if isinstance(f, Not) else f


def _one_rule_swaps(p):
    """One mutant per rule with a connective: every And of its body becomes
    an Or and every Or an And."""
    for key, rule in p.rules.items():
        body = _swap_and_or(rule.body)
        if body != rule.body:
            mutant = UpdateRule(rule.target, rule.kind, rule.trigger, rule.params, rule.target_params, body)
            yield DynamicProgram(p.name, p.schema, {**p.rules, key: mutant}, p.query_symbol, p.init)


def _search_cases():
    """The strawmen at three bounds; one-rule And/Or swaps of two corpus
    programs, most of which fail, at two."""
    for name in ("unary-twopath-naive", "binary-reach2-naive", "cq-nonemptyset-naive"):
        yield PROGRAMS[name], ((3, 4), (4, 3), (5, 3))
    for name in ("non-empty-set", "st-twopath-binary"):
        p, oracle = PROGRAMS[name]
        for mutant in _one_rule_swaps(p):
            yield (mutant, oracle), ((3, 4), (4, 3))


def test_reduced_search_finds_the_plain_search_counterexample():
    # the search loop itself, with the group of free elements and with none
    reduced_cex = 0
    for (p, oracle), sizes in _search_cases():
        for (n, max_len), honest in itertools.product(sizes, (True, False)):
            cfg = CheckConfig(domain_size=n, max_len=max_len, honest_only=honest)
            db = empty_input_db(p, n)
            s0, lean0, ctx = _setup(p, db)
            moves = _moves(p, cfg, s0)[0]
            free = interchangeable(oracle, s0, moves)
            if not free:
                continue  # both runs would be the plain search
            search = (p, db, ctx, lean0, _lean_oracle(oracle, ctx), _move_slots(moves, ctx, honest))
            reduced, plain = (_orbit_bfs(*search, group, cfg, {}, is_monotone(oracle))
                              for group in (free, ()))
            assert reduced.status == plain.status
            if plain.counterexample:
                a, b = reduced.counterexample, plain.counterexample
                assert (a.sequence, a.step, a.expected, a.produced) == (b.sequence, b.step, b.expected, b.produced)
                reduced_cex += 1
    assert reduced_cex == 45


def test_a_symmetric_counterexample_takes_one_search(monkeypatch):
    import dynqf.verify as verify
    calls = []

    def counted(*args):
        calls.append(args[6])  # the free elements
        return _orbit_bfs(*args)

    monkeypatch.setattr(verify, "_orbit_bfs", counted)
    v = check_maintenance(*PROGRAMS["unary-twopath-naive"], CheckConfig(domain_size=4, max_len=4))
    assert v.status == "counterexample"
    assert calls == [(1, 2)]  # one search, with s = 0 and t = 3 fixed


def _free_permutations(free, used):
    """Permutations of the free elements, one for each injective image of
    `used`, the free elements a state mentions; all of them when it is all."""
    rest = [e for e in free if e not in used]
    for image in itertools.permutations(free, len(used)):
        yield {**dict(zip(used, image)), **dict(zip(rest, [e for e in free if e not in image]))}


@pytest.mark.parametrize("name,n,n_free", [
    ("st-twopath-binary", 5, 3),
    ("s-twopath-ternary", 4, 3),
    ("st-twopath-binary rel2fun", 4, 2),  # function vectors
    ("non-empty-set", 30, 30),  # a large sparse domain: short walks keep the brute force small
])
def test_orbit_is_the_image_set_under_every_permutation(name, n, n_free):
    p, oracle = VARIANTS[name]
    cfg = CheckConfig(domain_size=n, max_len=6, constants={"s": 0, "t": 1} if "t" in p.schema.constants else None)
    s0, lean0, ctx = _setup(p, empty_input_db(p, n, cfg.constants))
    moves = _moves(p, cfg, s0)[0]
    free = interchangeable(oracle, s0, moves)
    assert len(free) == n_free
    orbits, slots, rng = Orbits(ctx, free), _move_slots(moves, ctx, True), random.Random(12)
    aux = [i for i, rel in enumerate(ctx.layout.rel_names)
           if p.schema.role(rel) is Role.AUX and p.schema.arity(rel)]
    objects = {}
    for _ in range(40):
        lean, support = lean0, set()
        for _ in range(rng.randrange(7 if n_free < 5 else 3)):
            i, tup, if_present, if_absent = rng.choice(slots)
            lean = ctx.apply(lean, (if_present if tup in lean[i] else if_absent)[0])
            support.update(set(tup).intersection(free))
        orbit = orbits.orbit(lean, frozenset(support))
        s = ctx.from_lean(lean)
        # a permutation acts on s only through the free elements it mentions
        used = sorted({e for r in s.relations.values() for t in r for e in t}.intersection(free)
                      if not s.functions else free)
        brute = {ctx.to_lean(transport(s, {**{e: e for e in s.domain}, **perm}))
                 for perm in _free_permutations(free, used)}
        assert orbit[0] is lean and set(orbit) == brute
        for rels in orbit[1:]:
            for r in filter(None, [rels[i] for i in aux]):
                assert objects.setdefault(r, r) is r  # equal ones are one object


def test_large_sparse_domain_costs_only_the_tuples_that_occur():
    # the one orbit at depth 1 has 300 states, one per coset permutation; the
    # permutations' tuple maps are filled one tuple at a time, not built over
    # the whole domain for each of them
    e = builtin_program("non-empty-set")
    start = time.perf_counter()
    v = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=300, max_len=1))
    assert (v.status, v.checked_states, v.checked_steps) == ("ok", 301, 300)
    assert time.perf_counter() - start < 1.0


@pytest.fixture
def apply_calls(monkeypatch):
    calls = []
    apply = LeanContext.apply

    def counted(self, lean, m):
        calls.append(m)
        return apply(self, lean, m)

    monkeypatch.setattr(LeanContext, "apply", counted)
    return calls


def test_reduction_expands_one_state_per_orbit(apply_calls):
    # the shape of the exhaustive-twopath benchmark: 2,899 orbits
    e = builtin_program("st-twopath-binary")
    cfg = CheckConfig(domain_size=5, max_len=4, constants={"s": 0, "t": 1})
    v = check_maintenance(e.program, e.oracle, cfg)
    assert (v.status, v.checked_states, v.checked_steps) == ("ok", 15308, 65675)
    assert len(apply_calls) == 13775
    apply_calls.clear()
    assert verdict_to_dict(check_maintenance(e.program, _plain(e.oracle), cfg)) == verdict_to_dict(v)
    assert len(apply_calls) == 65675


@pytest.mark.parametrize("name,n,guard,reduced", [
    ("reach-1layer-qf", 5, "layered", False),  # Succ and Pred are not invariant
    ("non-empty-set", 4, "first-is-0", False),  # the guard is not invariant: 0 is free
    ("st-twopath-binary", 4, "first-is-0", True),  # it is with s = 0
    ("st-twopath-binary", 3, "none", False),  # one free element
])
def test_reduction_runs_only_where_every_generator_is_a_symmetry(apply_calls, name, n, guard, reduced):
    p, oracle = PROGRAMS[name]
    v = check_maintenance(p, oracle, CheckConfig(domain_size=n, max_len=4, guard=SYMMETRY_GUARDS[guard]))
    assert v.status == "ok" and v.checked_steps > 0
    assert (len(apply_calls) < v.checked_steps) == reduced


def test_n6_comes_into_reach():
    # the pre-estimate counts one honest move per (relation, tuple), not two
    e = builtin_program("st-twopath-binary")
    v = check_maintenance(e.program, e.oracle, CheckConfig(domain_size=6, max_len=4))
    assert (v.status, v.checked_states, v.checked_steps) == ("ok", 66760, 281088)


@pytest.fixture
def collector():
    """Restores the cyclic collector's setting after the test."""
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


def _recording(oracle, log, fail_at=None):
    """The oracle, still a query, logging gc.isenabled() on each call and
    raising on call number fail_at."""
    @functools.wraps(oracle)
    def recorded(g):
        log.append(gc.isenabled())
        if len(log) == fail_at:
            raise RuntimeError("oracle failed")
        return oracle(g)
    return recorded


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("name,oracle,cfg,status", [
    ("st-twopath-binary", None, CheckConfig(domain_size=4, max_len=3), "ok"),
    ("unary-twopath-naive", oracle_st_twopath, CheckConfig(domain_size=4, max_len=4), "counterexample"),
    ("non-empty-set", None, CheckConfig(domain_size=4, max_len=3, state_cap=10), "resource"),
    ("st-twopath-binary", None, CheckConfig(domain_size=4, max_len=3), "raises"),
])
def test_the_search_pauses_the_collector_and_restores_the_callers_setting(collector, collecting, name,
                                                                         oracle, cfg, status):
    # the oracle sees the caller's setting on the initial state, which is
    # checked before the search, and the collector off during the search
    p, default = PROGRAMS[name]
    log = []
    oracle = _recording(oracle or default, log, fail_at=5 if status == "raises" else None)
    (gc.enable if collecting else gc.disable)()
    if status == "raises":
        with pytest.raises(RuntimeError, match="oracle failed"):
            check_maintenance(p, oracle, cfg)
    else:
        v = check_maintenance(p, oracle, cfg)
        assert v.status == status
        assert status != "resource" or v.notes[0].startswith("state cap 10 reached at depth")
    assert log[0] is collecting and False in log[1:]
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("state_cap", [None, 50])
@pytest.mark.parametrize("name", ["non-empty-set", "st-twopath-binary", "s-twopath-ternary",
                                  "reach-1layer-qf", "unary-twopath-naive", "binary-reach2-naive"])
def test_the_exhaustive_search_makes_no_reference_cycle(collector, name, state_cap):
    # what the search leaves is freed by reference counting alone, so a
    # collection right after it finds nothing, counterexamples finished and
    # self-validated included
    p, oracle = PROGRAMS[name]
    strawman = name.endswith("-naive")
    guard = None if strawman else builtin_program(name).instance_guard
    cfg = CheckConfig(domain_size=4, max_len=4, guard=guard, state_cap=state_cap)
    gc.collect()
    gc.disable()
    v = check_maintenance(p, oracle, cfg)
    gc.enable()
    assert gc.collect() == 0
    assert v.status == ("resource" if state_cap else "counterexample" if strawman else "ok")
    assert not strawman or state_cap or v.counterexample.trace_digest


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_the_monotone_rule_changes_no_verdict(name, honest, mode):
    # the shipped oracle is marked monotone; the same oracle marked only as
    # a query is called on every checked state.  Status, counts, notes and
    # each counterexample field, its trace digest included, must agree.
    p, oracle = PROGRAMS[name]
    assert is_monotone(oracle)
    guard = None if name.endswith("-naive") else builtin_program(name).instance_guard
    for n, max_len, seed in ((3, 4, 0), (4, 3, 5)):
        cfg = CheckConfig(domain_size=n, max_len=max_len + 3 * (mode == "random"), mode=mode,
                          samples=200, seed=seed, honest_only=honest, guard=guard)
        marked = verdict_to_dict(check_maintenance(p, oracle, cfg))
        assert marked == verdict_to_dict(check_maintenance(p, query(lambda g: oracle(g)), cfg))


def _counting(oracle, calls, monotone):
    """The oracle counting its calls, marked as a query, and as monotone
    only when asked."""
    def counted(g):
        calls.append(None)
        return oracle(g)
    return functools.wraps(oracle)(counted) if monotone else query(counted)


@pytest.mark.parametrize("name,cfg,calls", [
    ("s-twopath-ternary", CheckConfig(domain_size=4, max_len=6, mode="random", samples=300, seed=5),
     (455, 661)),
    ("st-twopath-binary", CheckConfig(domain_size=4, max_len=3, constants={"s": 0, "t": 1}),
     (352, 372)),
])
def test_a_monotone_oracle_is_called_less_often(name, cfg, calls):
    p, oracle = PROGRAMS[name]
    marked, unmarked = [], []
    v = check_maintenance(p, _counting(oracle, marked, True), cfg)
    assert verdict_to_dict(v) == verdict_to_dict(check_maintenance(p, _counting(oracle, unmarked, False), cfg))
    assert (len(marked), len(unmarked)) == calls
    # unmarked, random mode calls the oracle once per checked state
    assert cfg.mode != "random" or len(unmarked) == v.checked_states


def test_oracles_are_marked_as_queries():
    assert all(is_query(oracle) for oracle in ORACLES.values())
    assert is_query(functools.partial(oracle_k_clique, k=3))
    assert is_query(functools.wraps(oracle_st_reach)(lambda g: oracle_st_reach(g)))
    assert not is_query(_plain(oracle_st_reach))
    assert not is_query(functools.partial(_plain(oracle_st_reach)))


@pytest.mark.parametrize("name,skipped", [("non-empty-set", 80), ("st-twopath-binary", 155),
                                          ("s-twopath-ternary", 136)])
def test_substructure_suite_counts_are_pinned(name, skipped):
    # the suites of the lower-bound benchmark; the skip counts move whenever
    # the random stream of the reachable-state walks does
    cfg = CheckConfig(domain_size=5, max_len=4, seed=501, samples=200, honest_only=True)
    rep = substructure_property(builtin_program(name).program, cfg)
    assert (rep.status, rep.samples, rep.skipped) == ("ok", 200, skipped)


def test_similarity_suite_counts_are_pinned():
    e = builtin_program("reach-1layer-qf")
    cfg = CheckConfig(domain_size=7, max_len=4, seed=601, samples=60, honest_only=True,
                      guard=e.instance_guard)
    k = e.program.nesting_depth()
    rep = substructure_property(e.program, cfg, with_functions=True,
                                similarity_depth=cfg.max_len * k + k)
    assert (rep.status, rep.samples, rep.skipped) == ("ok", 60, 43)


@pytest.mark.parametrize("init", ["init empty", "init table { List = (0,1) }"])
@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_non_oracle_init_notes_that_only_the_empty_start_was_checked(init, mode):
    e = builtin_program("non-empty-set")
    cfg = CheckConfig(domain_size=3, max_len=4, mode=mode, samples=50)
    assert check_maintenance(e.program, e.oracle, cfg).notes == []
    p = parse_program(corpus_source("non_empty_set.dynp").replace("init    oracle", init))
    v = check_maintenance(p, e.oracle, cfg)
    assert v.status == "ok"
    assert v.notes == [f"only the empty initial database was checked; under init "
                       f"{p.init.kind} other initial databases are not covered"]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_ok_without_an_admissible_move_says_so(mode):
    # the 1-layered guard needs a node strictly between s and t
    e = builtin_program("reach-1layer-qf")
    note = "no modification was admissible, so only the initial state was checked"
    cfg = CheckConfig(domain_size=2, max_len=3, mode=mode, samples=20, guard=e.instance_guard)
    v = check_maintenance(e.program, e.oracle, cfg)
    assert (v.status, v.checked_steps, v.notes) == ("ok", 0, [note])
    cfg.domain_size = 3
    v = check_maintenance(e.program, e.oracle, cfg)
    assert v.status == "ok" and v.checked_steps > 0 and v.notes == []


@pytest.mark.parametrize("name", ["non-empty-set", "st-twopath-binary", "s-twopath-ternary",
                                  "reach-1layer-qf"])
def test_input_state_equals_input_part_on_reachable_states(name):
    e = builtin_program(name)
    s = init_state(e.program, empty_input_db(e.program, 3))
    ctx = context_for_state(e.program, s)
    reached = {ctx.to_lean(s)}
    mods = _candidate_mods(e.program, 3)
    for _ in range(3):
        reached |= {ctx.apply(lean, m) for lean in reached for m in mods
                    if is_honest(ctx.from_lean(lean), m)}
    for lean in reached:
        view, full = ctx.layout.input_state(lean), ctx.from_lean(lean).input_part()
        assert view == full and hash(view) == hash(full)


# -- subsequences -----------------------------------------------------------------

def test_subsequence_basics():
    assert subsequence("ab", "acb")
    assert subsequence("", "anything")
    assert not subsequence("ba", "ab")


@given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6),
       st.text(alphabet="abc", max_size=6))
def test_subsequence_reflexive_transitive(u, v, w):
    assert subsequence(u, u)
    if subsequence(u, v) and subsequence(v, w):
        assert subsequence(u, w)


def test_higman_pair_examples():
    assert higman_pair(["a", "ba"]) == (0, 1)
    assert higman_pair(["b", "a"]) is None
    assert higman_pair(["x", "y", "xy"]) == (0, 2)


@given(st.lists(st.text(alphabet="ab", max_size=4), max_size=6),
       st.text(alphabet="ab", max_size=4))
def test_higman_pair_stable_under_append(words, extra):
    if higman_pair(words) is not None:
        assert higman_pair(words + [extra]) is not None


def test_embedding_positions():
    assert embedding_positions("ab", "acb") == [0, 2]
    assert embedding_positions("aa", "ab") is None


def test_type_word_letters_match_atomic_types():
    # the attack drivers' type words: one atomic-type letter per element
    from dynqf.atoms import atomic_type
    sch = make_schema(input_relations={"E": 2}, constants=("s",))
    s = make_state(sch, 4, {"E": {(0, 1), (0, 2)}}, constants={"s": 0})
    w = tuple(atomic_type(s, (e,), sigma=["E"]) for e in [1, 2, 3])
    assert len(w) == 3
    assert w[0] == w[1] != w[2]
    assert w[0] == atomic_type(s, (1,), ["E"])


# -- neighborhoods and similarity ----------------------------------------------------

NUM = make_schema(input_relations={"C": 1}, builtin_functions={"Succ": 1},
                  constants=())


def chain_state(n):
    succ = {(i,): min(i + 1, n - 1) for i in range(n)}
    return make_state(NUM, n, {}, {"Succ": succ})


def test_neighborhood_no_functions():
    sch = make_schema(input_relations={"E": 2}, constants=("s",))
    s = make_state(sch, 3, {}, constants={"s": 2})
    assert neighborhood(s, {0}, 5) == {0, 2}


def test_neighborhood_zero_ary_function_enters_at_depth_one():
    sch = make_schema(input_relations={"E": 2}, aux_functions={"c": 0})
    s = make_state(sch, 3, {}, {"c": {(): 2}})
    assert neighborhood(s, {0}, 0) == {0}
    assert neighborhood(s, {0}, 1) == {0, 2}


def test_neighborhood_succ_chain():
    s = chain_state(3)
    assert neighborhood(s, {0}, 1) == {0, 1}
    assert neighborhood(s, {0}, 2) == {0, 1, 2}


def test_neighborhood_monotone_and_composes():
    s = chain_state(5)
    for k in range(3):
        nk = neighborhood(s, {0}, k)
        assert nk <= neighborhood(s, {0}, k + 1)
        assert neighborhood(s, nk, 1) <= neighborhood(s, {0}, k + 1)


def test_closed_set_fixed_point():
    # a set is closed when its 1-neighborhood adds nothing
    s = chain_state(4)
    assert neighborhood(s, {0, 1, 2, 3}, 1) == {0, 1, 2, 3}
    assert neighborhood(s, {3}, 1) == {3}  # clamp makes the top element a fixed point
    assert neighborhood(s, iter([3]), 1) == {3}  # an iterator is read once
    assert neighborhood(s, {0}, 1) != {0}
    closed = {3}
    for k in range(1, 4):
        assert neighborhood(s, closed, k) == closed


def test_k_similar_relational_degenerate_case():
    sch = make_schema(input_relations={"U": 1})
    s = make_state(sch, 3, {"U": {(0,)}})
    t = make_state(sch, 3, {"U": {(2,)}})
    assert k_similar(s, (0,), t, (2,), 3) == {0: 2}
    assert k_similar(s, (0,), t, (1,), 0) is None  # types differ at depth 0


def test_k_similar_shifted_windows_on_chain():
    s = chain_state(8)
    pi = k_similar(s, (1,), s, (2,), 2)
    assert pi == {1: 2, 2: 3, 3: 4}
    # near the clamp the windows stop corresponding
    assert k_similar(s, (5,), s, (6,), 2) is None


def test_k_similar_closed_isomorphic_subsets_all_depths():
    s = chain_state(4)
    for k in range(4):
        assert k_similar(s, (3,), s, (3,), k) == {3: 3}


def _k_similar_by_terms(s, a_tuple, t, b_tuple, k, cap=2000):
    """k-similarity read off its definition: evaluate every plain term of
    depth <= k in both states (raises ResourceLimitError past `cap` terms)."""
    vars = tuple(f"z{i+1}" for i in range(len(a_tuple)))
    terms = terms_up_to_depth(s.schema, k, vars, cap=cap)
    asg_s, asg_t = dict(zip(vars, a_tuple)), dict(zip(vars, b_tuple))
    pi = {}
    for term in terms:
        w = eval_term(term, t, asg_t)
        if pi.setdefault(eval_term(term, s, asg_s), w) != w:
            return None
    if len(set(pi.values())) != len(pi):
        return None
    for name, ar in s.schema.relations.items():
        rs, rt = s.relations[name], t.relations[name]
        for args in itertools.product(sorted(pi), repeat=ar):
            if (args in rs) != (tuple(pi[x] for x in args) in rt):
                return None
    return pi


def _random_function_state(rng, schema, n):
    rels = {name: {tup for tup in itertools.product(range(n), repeat=ar) if rng.random() < 0.2}
            for name, ar in schema.relations.items()}
    # narrow ranges make terms collide, so the map can stop being a function
    funs = {name: {args: rng.randrange(min(n, 3)) for args in itertools.product(range(n), repeat=ar)}
            for name, ar in schema.functions.items()}
    consts = {c: rng.randrange(n) for c in schema.constants}
    return make_state(schema, n, rels, funs, consts)


def test_k_similar_matches_term_enumeration():
    rng = random.Random(2024)
    outcomes = {"map": 0, "none": 0}
    compared = set()
    for _ in range(150):
        arities = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(1, 3))]
        schema = make_schema(input_relations={"E": 2, "U": 1},
                             aux_functions={f"f{i}": ar for i, ar in enumerate(arities)},
                             constants=tuple(f"c{i}" for i in range(rng.randint(0, 2))))
        n = rng.randint(2, 5)
        s = _random_function_state(rng, schema, n)
        a = tuple(rng.sample(range(n), rng.randint(1, min(2, n))))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            t, b = transport(s, dict(enumerate(perm))), tuple(perm[x] for x in a)
        else:
            t = _random_function_state(rng, schema, n)
            b = tuple(rng.sample(range(n), len(a)))
        for k in range(5):
            try:
                expected = _k_similar_by_terms(s, a, t, b, k)
            except ResourceLimitError:
                break
            assert k_similar(s, a, t, b, k) == expected, (schema, s, t, a, b, k)
            outcomes["none" if expected is None else "map"] += 1
            compared.add((max(arities), k))
    assert min(outcomes.values()) > 100
    assert {(2, 2), (1, 4), (0, 4)} <= compared


def test_k_similar_past_the_term_enumeration_cap():
    # g climbs by one per application up to 6, so from (0,) each of the six
    # levels adds one value and 7 stays out of reach
    sch = make_schema(input_relations={"E": 2}, aux_functions={"g": 2})
    g = {(x, y): min(max(x, y) + 1, 6) if max(x, y) < 7 else 7
         for x in range(8) for y in range(8)}
    s = make_state(sch, 8, {"E": {(0, 1), (3, 4), (6, 7)}}, {"g": g})
    with pytest.raises(ResourceLimitError):
        terms_up_to_depth(sch, 6, ("z1",), cap=50000)
    perm = [5, 2, 7, 0, 3, 6, 1, 4]
    pi = dict(enumerate(perm))
    t = transport(s, pi)
    for k in (5, 6, 40):
        nb = neighborhood(s, (0,), k)
        assert nb == set(range(min(k, 6) + 1))
        assert k_similar(s, (0,), t, (pi[0],), k) == {x: pi[x] for x in nb}


# -- substructure property ---------------------------------------------------------------

def test_substructure_identity_pairs_always_ok():
    e = builtin_program("non-empty-set")
    cfg = CheckConfig(domain_size=4, max_len=3, seed=1, samples=30)
    rep = substructure_property(e.program, cfg)
    assert rep.status == "ok" and rep.samples == 30


def test_substructure_precondition_skips_asymmetric_pair():
    # after [ins U(0), ins U(1)] the subsets {0} and {1} are not isomorphic:
    # 0 is First, 1 is Last
    from dynqf.lower_bounds import _restriction_isomorphism
    e = builtin_program("non-empty-set")
    s = run(e.program, init_state(e.program, empty_input_db(e.program, 3)),
            [ins("U", 0), ins("U", 1)])[-1]
    assert _restriction_isomorphism(s, (0,), s, (1,)) is None


def _restriction_isomorphism_by_probes(s, a_tup, t, b_tup):
    """The positional map extended by constants, checked by probing every
    argument tuple over its domain in both states."""
    pi = {}
    for x, y in [*zip(a_tup, b_tup), *[(s.constants[c], t.constants[c]) for c in s.schema.constants]]:
        if pi.setdefault(x, y) != y:
            return None
    if len(set(pi.values())) != len(pi):
        return None
    for name, ar in s.schema.relations.items():
        rs, rt = s.relations[name], t.relations[name]
        for args in itertools.product(sorted(pi), repeat=ar):
            if (args in rs) != (tuple(pi[e] for e in args) in rt):
                return None
    return pi


def test_restriction_isomorphism_matches_probes():
    from dynqf.lower_bounds import _restriction_isomorphism
    rng = random.Random(77)
    sch = make_schema(input_relations={"E": 2}, aux_relations={"Z": 0, "U": 1, "T": 3},
                      constants=("s",))
    outcomes = {"map": 0, "none": 0}
    for _ in range(400):
        n = rng.randint(2, 4)
        rels = {name: {tup for tup in itertools.product(range(n), repeat=ar) if rng.random() < 0.3}
                for name, ar in sch.relations.items()}
        s = make_state(sch, n, rels, constants={"s": rng.randrange(n)})
        a = tuple(rng.sample(range(n), rng.randint(1, n)))
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            t, b = transport(s, dict(enumerate(perm))), tuple(perm[x] for x in a)
            if rng.random() < 0.5:  # disturb one relation of the image
                name = rng.choice(sorted(sch.relations))
                tup = tuple(rng.randrange(n) for _ in range(sch.arity(name)))
                rels = {r: t.relations[r] ^ ({tup} if r == name else set()) for r in sch.relations}
                t = make_state(sch, n, rels, constants=t.constants)
        else:
            t = make_state(sch, n, {name: {tup for tup in r if rng.random() < 0.9}
                                    for name, r in rels.items()}, constants={"s": rng.randrange(n)})
            b = tuple(rng.choice(range(n)) for _ in a)
        expected = _restriction_isomorphism_by_probes(s, a, t, b)
        assert _restriction_isomorphism(s, a, t, b) == expected == k_similar(s, a, t, b, 0)
        outcomes["none" if expected is None else "map"] += 1
    assert min(outcomes.values()) > 100


@pytest.mark.parametrize("name", ["non-empty-set", "st-twopath-binary", "s-twopath-ternary",
                                  "reach-1layer-qf"])
def test_transports_are_similar_at_every_depth(name):
    # the suites admit a transport without a search: pi maps a and the
    # constants of s onto b and the constants of pi(s) at every depth;
    # the states come from the suite's own walks and folds, and the depths
    # are 0 and the one the lower-bound benchmark uses on reach-1layer-qf
    entry = builtin_program(name)
    p, n = entry.program, 7 if name == "reach-1layer-qf" else 5
    guard = entry.instance_guard if entry.guard_name != "any" else None
    cfg = CheckConfig(domain_size=n, max_len=4, honest_only=True, guard=guard)
    k = builtin_program("reach-1layer-qf").program.nesting_depth()
    s0, lean0, ctx = _setup(p, empty_input_db(p, n))
    moves, start, flip = _moves(p, cfg, s0)
    rng = random.Random(37)
    for _ in range(30):
        s = ctx.from_lean(_fold(ctx, lean0, [moves[i] for i in _walk(start, flip, rng, rng.randint(0, 8))]))
        perm = list(range(n))
        rng.shuffle(perm)
        pi = dict(enumerate(perm))
        t = transport(s, pi)
        a = tuple(rng.sample(range(n), rng.randint(1, n)))
        for depth in (0, cfg.max_len * k + k):
            found = k_similar(s, a, t, tuple(pi[x] for x in a), depth)
            assert found is not None, (s, pi, a, depth)
            assert {*a, *s.constants.values()} <= found.keys()
            assert all(pi[x] == y for x, y in found.items())


def _k_similar_by_sets(s, a_tuple, t, b_tuple, k):
    """k_similar with its relation test written as a comparison of two built
    sets: the image of the tuples of s inside the domain of the term-pair map
    against the tuples of t inside its image."""
    pi = _term_pairs(s, a_tuple, t, b_tuple, k)
    if pi is None:
        return None
    image = set(pi.values())
    if len(image) != len(pi):
        return None
    for name in s.schema.relations:
        inside = {tuple(pi[x] for x in r) for r in s.relations[name] if all(x in pi for x in r)}
        if inside != {r for r in t.relations[name] if all(y in image for y in r)}:
            return None
    return pi


def _disturbed(s, rng):
    """s with one tuple of one non-built-in relation toggled."""
    sch = s.schema
    name = rng.choice(sorted(r for r in sch.relations if sch.role(r) is not Role.BUILTIN))
    tup = tuple(rng.randrange(s.n) for _ in range(sch.arity(name)))
    rels = {r: s.relations[r] ^ ({tup} if r == name else set()) for r in sch.relations}
    return make_state(sch, s.n, rels, s.functions, s.constants)


def test_k_similar_matches_the_set_comparison():
    rng = random.Random(4242)
    sch = make_schema(input_relations={"E": 2}, aux_relations={"Z": 0, "U": 1, "V": 1, "T": 3},
                      builtin_relations={"L": 2}, aux_functions={"f": 1}, constants=("s",))
    outcomes = {"map": 0, "none": 0, "whole domain": 0, "same state": 0}
    cases = []
    for _ in range(300):
        n = rng.randint(2, 5)
        rels = {}
        for name, ar in sch.relations.items():
            # a density of 0 leaves a relation empty, and V is always empty in s
            density = 0 if name == "V" else rng.choice((0, 0.3, 0.6))
            rels[name] = {tup for tup in itertools.product(range(n), repeat=ar) if rng.random() < density}
        s = make_state(sch, n, rels, {"f": {(x,): rng.randrange(n) for x in range(n)}},
                       {"s": rng.randrange(n)})
        a = tuple(rng.choice(range(n)) for _ in range(rng.randint(1, n)))
        draw = rng.random()
        if draw < 0.4:
            perm = list(range(n))
            rng.shuffle(perm)
            t, b = transport(s, dict(enumerate(perm))), tuple(perm[x] for x in a)
        elif draw < 0.7:
            t, b = s, tuple(rng.choice(range(n)) for _ in a)
        else:
            t, b = _disturbed(s, rng), a
        if rng.random() < 0.5:
            t = _disturbed(t, rng)
        cases.append((s, a, t, b))
    # reachable states of a function encoding with a base: built-in functions
    # and a 0-ary query relation, compared with themselves and with transports
    p = relations_to_functions(builtin_program("reach-1layer-qf").program)
    cfg = CheckConfig(domain_size=5, max_len=4, honest_only=True,
                      guard=builtin_program("reach-1layer-qf").instance_guard)
    s0, lean0, ctx = _setup(p, empty_input_db(p, 5))
    moves, start, flip = _moves(p, cfg, s0)
    for _ in range(60):
        s = ctx.from_lean(_fold(ctx, lean0, [moves[i] for i in _walk(start, flip, rng, rng.randint(0, 8))]))
        a = tuple(rng.sample(range(5), rng.randint(1, 3)))
        perm = list(range(5))
        rng.shuffle(perm)
        cases.append((s, a, s, tuple(rng.sample(range(5), len(a)))))
        cases.append((s, a, transport(s, dict(enumerate(perm))), tuple(perm[x] for x in a)))
    for s, a, t, b in cases:
        for k in range(3):
            expected = _k_similar_by_sets(s, a, t, b, k)
            assert k_similar(s, a, t, b, k) == expected, (s, a, t, b, k)
            outcomes["none" if expected is None else "map"] += 1
            if expected is not None and len(expected) == s.n:
                outcomes["whole domain"] += 1
            if t is s:
                outcomes["same state"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_a_broken_engine_is_a_violation(monkeypatch):
    # an engine that ignores every move on element 0 does not commute with
    # permutations, so the end check catches it on transports too, which the
    # suite admits without a search
    honest = LeanContext.apply
    monkeypatch.setattr(LeanContext, "apply",
                        lambda self, lean, m: lean if 0 in m.tuple else honest(self, lean, m))
    strategies = []
    for seed in range(4):
        cfg = CheckConfig(domain_size=5, max_len=4, seed=seed, samples=200, honest_only=True)
        rep = substructure_property(builtin_program("st-twopath-binary").program, cfg)
        assert rep.status == "violation", rep
        w = rep.witness
        pi = dict(zip(w["a_tuple"], w["b_tuple"]))
        beta = []
        for move in w["alpha"]:
            kind, rest = move.split(" ")
            rel, args = rest[:-1].split("(")
            beta.append(str(Modification(rel, tuple(pi[int(x)] for x in args.split(",")), kind)))
        assert w["beta"] == beta
        strategies.append(w["strategy"])
    assert "transport" in strategies, strategies


FOLD_PROGRAMS = {
    **{name: builtin_program(name) for name in ("non-empty-set", "st-twopath-binary",
                                                "s-twopath-ternary", "reach-1layer-qf")},
    "non-empty-set rel2fun": relations_to_functions(builtin_program("non-empty-set").program),
}


def _fold_to_state(p, s, seq):
    """The suites' lean fold from s, checked against run and against the reference evaluator."""
    ctx = context_for_state(p, s)
    end = ctx.from_lean(_fold(ctx, ctx.to_lean(s), seq))
    reference = s
    for m in seq:
        reference = _reference_apply(p, reference, m)
    assert end == run(p, s, seq)[-1] == reference
    assert end.functions == reference.functions
    return end


@pytest.mark.parametrize("name", sorted(FOLD_PROGRAMS))
def test_lean_folds_agree_with_run(name):
    # seeded walks from the empty start, then _mods_on sequences from the
    # state reached and from its image under a permutation of the domain
    entry = FOLD_PROGRAMS[name]
    p = getattr(entry, "program", entry)
    guard = entry.instance_guard if name == "reach-1layer-qf" else None
    cfg = CheckConfig(domain_size=5, max_len=4, honest_only=True, guard=guard)
    s0 = _setup(p, empty_input_db(p, cfg.domain_size))[0]
    moves, start, flip = _moves(p, cfg, s0)
    rng = random.Random(29)
    moved = 0
    for _ in range(15):
        s = _fold_to_state(p, s0, [moves[k] for k in _walk(start, flip, rng, rng.randint(0, 8))])
        perm = list(range(s.n))
        rng.shuffle(perm)
        t = transport(s, dict(enumerate(perm)))
        if t.constants != s.constants:
            moved += 1
            assert t.layout is not s.layout
        subset = rng.sample(range(s.n), rng.randint(1, s.n))
        for u in (s, t):
            _fold_to_state(p, u, _mods_on(p, subset, rng, rng.randint(1, 6)))
    assert moved > 0 if p.schema.constants else moved == 0


def test_substructure_suites_step_without_apply_or_run(monkeypatch):
    # `program.run` steps through `program.apply`, which it reads from its
    # module, so refusing `apply` refuses a step through `run` too
    import dynqf.program

    def refuse(*args, **kwargs):
        raise AssertionError("the suite stepped through a full-State path")

    monkeypatch.setattr(dynqf.program, "apply", refuse)
    cfg = CheckConfig(domain_size=5, max_len=3, seed=3, samples=20)
    assert substructure_property(builtin_program("st-twopath-binary").program, cfg).status == "ok"
    e = builtin_program("reach-1layer-qf")
    cfg = CheckConfig(domain_size=6, max_len=3, seed=3, samples=10, guard=e.instance_guard)
    assert substructure_property(e.program, cfg, with_functions=True).status == "ok"


def test_substructure_suite_on_function_encoded_program():
    # the function-extended engine invariant also holds for programs with
    # 0-ary and binary functions (the encoding's c_top/c_bot and f_List);
    # k-similarity is a fixpoint on value pairs, so a binary function costs
    # no more than a unary one (transported pairs are similar at every depth)
    from dynqf.transforms import relations_to_functions
    p = relations_to_functions(builtin_program("non-empty-set").program)
    cfg = CheckConfig(domain_size=4, max_len=2, seed=17, samples=40)
    rep = substructure_property(p, cfg, with_functions=True, similarity_depth=2)
    assert rep.status == "ok" and rep.samples == 40


def test_is_homogeneous_requires_covering_order():
    from dynqf.errors import DynqfError
    from dynqf.atoms import is_homogeneous
    sch = make_schema(input_relations={"E": 2})
    s = make_state(sch, 3)
    with pytest.raises(DynqfError):
        is_homogeneous(s, [0, 1], {0, 1, 2}, 2)


# -- attack drivers -------------------------------------------------------------------------

def test_star_attack_guard_rejects_binary():
    e = builtin_program("st-twopath-binary")
    with pytest.raises(GuardError) as exc:
        attack_star_deletion(e.program, 4)
    assert "arity 2 > 1" in str(exc.value)


@pytest.mark.parametrize("edges", ["F/2", "E/1"])
@pytest.mark.parametrize("driver, name", [(attack_star_deletion, "star-deletion"),
                                          (attack_subset_gadget, "subset-gadget")])
def test_attack_guard_needs_a_binary_input_relation_e(driver, name, edges):
    params = "(a)" if edges == "E/1" else "(a,b)"
    p = parse_program(f"""
program no_edges
input {{ {edges} }}
aux   {{ Q/0 }}
const s, t
query Q
init  empty
on insert {edges[0]}{params}:
  Q(): true
on delete {edges[0]}{params}:
  Q(): false
""")
    with pytest.raises(GuardError, match=f"^{name} needs a binary input relation 'E'$"):
        driver(p, 3)


def test_star_attack_n1_returns_none_for_sane_candidates():
    # with a single layer node no divergence can be provoked by this
    # candidate: it is exact while the witness set has at most one element
    p = strawman_program("unary-twopath-naive")
    assert attack_star_deletion(p, 1) is None


def test_star_attack_finds_witness():
    p = strawman_program("unary-twopath-naive")
    cex = None
    for n in range(1, 9):
        cex = attack_star_deletion(p, n)
        if cex:
            break
    assert cex is not None
    assert validate_counterexample(p, oracle_st_reach, cex)


def test_subset_gadget_attack_finds_witness():
    p = strawman_program("binary-reach2-naive")
    cex = attack_subset_gadget(p, 2)
    assert cex is not None
    assert validate_counterexample(p, oracle_st_reach, cex)
    # the witness ends with the re-connect step of the proof schedule
    assert cex.sequence[-1].kind == "ins"


def test_subset_gadget_refuses_zero_and_one_returns_none():
    p = strawman_program("binary-reach2-naive")
    with pytest.raises(DynqfError, match="n2 >= 1"):
        attack_subset_gadget(p, 0)
    # one B-node: no homogeneous pair, and the construction replays cleanly
    assert attack_subset_gadget(p, 1) is None


def test_subset_gadget_guard():
    t = builtin_program("s-twopath-ternary")
    with pytest.raises(GuardError) as exc:
        attack_subset_gadget(t.program, 2)
    assert "arity 3 > 2" in str(exc.value)


# -- conjunctive adversary ---------------------------------------------------------------------

def test_diverse_saturation_reports_missing_tuples():
    sch = make_schema(input_relations={"U": 1}, aux_relations={"Q": 0, "R": 1})
    s = make_state(sch, 3, {"U": {(0,), (1,)}, "R": {(1,)}, "Q": {()}})
    depths = {"Q": 0, "R": 1}
    assert diverse_saturation(s, depths) == [("R", (0,))]
    sat = make_state(sch, 3, {"U": {(0,), (1,)}, "R": {(0,), (1,)}, "Q": {()}})
    assert diverse_saturation(sat, depths) == []
    empty_q = make_state(sch, 3, {"U": {(0,)}, "R": {(0,)}})
    assert ("Q", ()) in diverse_saturation(empty_q, depths)


def test_diverse_saturation_reads_the_one_unary_input_relation_by_any_name():
    sch = make_schema(input_relations={"V": 1}, aux_relations={"Q": 0, "R": 1})
    s = make_state(sch, 3, {"V": {(0,), (1,)}, "R": {(1,)}, "Q": {()}})
    assert diverse_saturation(s, {"Q": 0, "R": 1}) == [("R", (0,))]
    assert diverse_saturation(make_state(make_schema(input_relations={"V": 1}, aux_relations={"Q": 0}), 2,
                                         {"V": {(0,)}}), {"Q": 0}) == [("Q", ())]
    two = make_schema(input_relations={"U": 1, "V": 1}, aux_relations={"Q": 0})
    with pytest.raises(GuardError, match="exactly one unary input relation"):
        diverse_saturation(make_state(two, 2), {"Q": 0})


def test_cq_adversary_finds_witness():
    p = strawman_program("cq-nonemptyset-naive")
    depths = deletion_depth(p)
    assert max(d for d in depths.values() if d is not None) == 1
    cex = cq_adversary(p, bound=4)
    assert cex is not None
    assert len(cex.sequence) <= 4
    assert validate_counterexample(p, oracle_nonemptyset, cex)


def test_cq_adversary_rejects_non_conjunctive():
    e = builtin_program("non-empty-set")
    with pytest.raises(GuardError):
        cq_adversary(e.program, bound=6)


def test_cq_adversary_catches_earlier_breakage():
    src = """
program broken_conj
input { U/1 }
aux   { Q/0, R/1 }
query Q
init  oracle
on insert U(u):
  Q(): false
  R(x): true
on delete U(u):
  Q(): R(u)
  R(x): R(x)
"""
    p = parse_program(src)
    cex = cq_adversary(p, bound=6)
    assert cex is not None and cex.step <= 2


# -- the drivers' payload walk against the State path -------------------------------------------

def _replay_with_oracle(p, oracle, db, seq):
    """The State-path reference for the drivers' `first`: run a concrete
    sequence from init_state with `program.apply`, comparing the query bit to
    the oracle after every step; the first divergence becomes a validated
    counterexample."""
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


def _state_path_walk(p, oracle, db):
    """The drivers' walk on full States: every sequence is run from the
    initial state again with `program.apply`."""
    ctx = context_for_state(p, init_state(p, db))
    return (ctx, lambda seq: ctx.to_lean(run(p, init_state(p, db), seq)[-1]),
            lambda seq: _replay_with_oracle(p, oracle, db, seq))


def _outcomes(calls):
    """Each driver call's witness as a dict, None, or its error."""
    out = []
    for driver, *args in calls:
        try:
            cex = driver(*args)
            out.append(None if cex is None else counterexample_to_dict(cex))
        except DynqfError as e:
            out.append((type(e).__name__, str(e)))
    return out


def _driver_calls(name):
    """Star n = 1..9 and gadget n2 = 0..4 under st-reach and the program's
    own oracle, and cq bound = 0..9."""
    p, oracle = PROGRAMS[name]
    calls = [(attack_star_deletion, p, n, o) for n in range(1, 10) for o in (oracle_st_reach, oracle)]
    calls += [(attack_subset_gadget, p, n2, o) for n2 in range(5) for o in (oracle_st_reach, oracle)]
    return calls + [(cq_adversary, p, bound) for bound in range(10)]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_attack_drivers_match_the_state_path(name, monkeypatch):
    import dynqf.lower_bounds
    calls = _driver_calls(name)
    walked = _outcomes(calls)
    monkeypatch.setattr(dynqf.lower_bounds, "_witness_walk", _state_path_walk)
    assert walked == _outcomes(calls)


# per program and driver, the first 12 hex digits of the sha256 of the
# canonical JSON of the list of its calls' outcomes in `_driver_calls`
# order: each a counterexample dict, null, or [error type, message]
DRIVER_OUTCOMES_SHA256 = {
    "binary-reach2-naive attack_star_deletion": "b49486763219",
    "binary-reach2-naive attack_subset_gadget": "266381184e41",
    "binary-reach2-naive cq_adversary": "9eba351b8feb",
    "cq-nonemptyset-naive attack_star_deletion": "b729457f3109",
    "cq-nonemptyset-naive attack_subset_gadget": "869704d8f6f4",
    "cq-nonemptyset-naive cq_adversary": "58d84f0aeed2",
    "non-empty-set attack_star_deletion": "c5b6e2dbcd48",
    "non-empty-set attack_subset_gadget": "869704d8f6f4",
    "non-empty-set cq_adversary": "f284acac4af0",
    "reach-1layer-qf attack_star_deletion": "1c9b259ddbe0",
    "reach-1layer-qf attack_subset_gadget": "a8f64970cf1b",
    "reach-1layer-qf cq_adversary": "9eba351b8feb",
    "s-twopath-ternary attack_star_deletion": "d62e8560a147",
    "s-twopath-ternary attack_subset_gadget": "1faab2e81ad7",
    "s-twopath-ternary cq_adversary": "9eba351b8feb",
    "st-twopath-binary attack_star_deletion": "c5b6e2dbcd48",
    "st-twopath-binary attack_subset_gadget": "8bc640bbb93e",
    "st-twopath-binary cq_adversary": "9eba351b8feb",
    "unary-twopath-naive attack_star_deletion": "fdd14a7a697c",
    "unary-twopath-naive attack_subset_gadget": "dc975f8318f1",
    "unary-twopath-naive cq_adversary": "9eba351b8feb",
}


def test_attack_driver_outcomes_are_pinned():
    import hashlib
    from dynqf.serialize import canonical_json
    got = {}
    for name in sorted(PROGRAMS):
        calls = _driver_calls(name)
        for driver, outcome in zip([c[0] for c in calls], _outcomes(calls)):
            got.setdefault(f"{name} {driver.__name__}", []).append(outcome)
    got = {k: hashlib.sha256(canonical_json(v).encode()).hexdigest()[:12] for k, v in got.items()}
    assert got == DRIVER_OUTCOMES_SHA256


def test_attack_drivers_match_the_state_path_on_early_divergences(monkeypatch):
    # oracles that part from the candidates at scattered steps, so witnesses
    # come from the construction, from either Higman sequence, and from the
    # prefixes the two sequences share
    import dynqf.lower_bounds
    oracles = [lambda s, k=k: (hash(s.relations["E"]) + k) % 4 == 0 for k in range(4)]
    oracles += [lambda s, k=k: len(s.relations["E"]) >= k for k in (1, 5, 9, 13)]
    calls = [(driver, PROGRAMS[name][0], n, o)
             for name in ("unary-twopath-naive", "binary-reach2-naive") for o in oracles
             for driver, sizes in ((attack_star_deletion, range(1, 8)), (attack_subset_gadget, range(1, 4)))
             for n in sizes]
    walked = _outcomes(calls)
    assert len([w for w in walked if isinstance(w, dict) and w["step"] > 2]) > 10
    monkeypatch.setattr(dynqf.lower_bounds, "_witness_walk", _state_path_walk)
    assert walked == _outcomes(calls)


def test_attack_drivers_step_without_apply_or_run(monkeypatch):
    # each driver call initializes once and steps on payloads; only the
    # self-validation replay of a witness initializes again and runs.  The
    # drivers' walk starts through verify._setup and reads
    # _finish_counterexample from lower_bounds; the start and the replay read
    # init_state and run from verify
    import dynqf.lower_bounds
    import dynqf.program
    import dynqf.verify
    finish, init = dynqf.lower_bounds._finish_counterexample, dynqf.program.init_state
    replaying, inits = [], []

    def only_in_replay(fn):
        def call(*args, **kwargs):
            assert replaying, "a driver stepped through a full-State path"
            return fn(*args, **kwargs)
        return call

    def finishing(*args):
        replaying.append(True)
        try:
            return finish(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(dynqf.program, "apply", only_in_replay(dynqf.program.apply))
    monkeypatch.setattr(dynqf.verify, "run", only_in_replay(dynqf.verify.run))
    monkeypatch.setattr(dynqf.lower_bounds, "_finish_counterexample", finishing)
    monkeypatch.setattr(dynqf.verify, "init_state", lambda *args: inits.append(args) or init(*args))
    unary, binary = strawman_program("unary-twopath-naive"), strawman_program("binary-reach2-naive")
    cq, broken = strawman_program("cq-nonemptyset-naive"), parse_program(BROKEN_SRC)
    for call, witness in [(lambda: attack_star_deletion(unary, 1), False),
                          (lambda: attack_star_deletion(unary, 6), True),
                          (lambda: attack_subset_gadget(binary, 1), False),
                          (lambda: attack_subset_gadget(binary, 2), True),
                          (lambda: cq_adversary(cq, bound=3), False),
                          (lambda: cq_adversary(cq, bound=4), True),
                          (lambda: cq_adversary(broken, bound=4), True)]:
        inits.clear()
        assert (call() is not None) == witness
        assert len(inits) == 1 + witness
