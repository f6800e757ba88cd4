"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line.  Bounds and tolerances are pinned here and nowhere else."""
import itertools
import time

from dynqf.atoms import diverse_tuples_share_type
from dynqf.corpus import builtin_program, strawman_program
from dynqf.parser import parse_program
from dynqf.program import (ConstFunctionInit, CopyInputInit, EmptyInit,
                           FixedElementInit, apply, empty_input_db, init_state,
                           is_invariant_init)
from dynqf.queries import (LayeredSpec, allowed_layer_edges, gen_layered,
                           oracle_k_clique, oracle_k_colorability,
                           oracle_st_reach, oracle_nonemptyset)
from dynqf.schema import make_schema
from dynqf.state import INS, DEL, Modification, is_honest, make_state
from dynqf.transforms import eliminate_repeated_variables, relations_to_functions
from dynqf.formulas import classify_syntax
from dynqf.lower_bounds import attack_star_deletion, cq_adversary, substructure_property
from dynqf.verify import CheckConfig, check_maintenance, validate_counterexample


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_nonemptyset_exhaustive():
    entry = builtin_program("non-empty-set")
    t0 = time.time()
    states = 0
    for n in range(1, 5):
        v = check_maintenance(entry.program, entry.oracle,
                              CheckConfig(domain_size=n, max_len=6, honest_only=True))
        assert v.status == "ok", v.counterexample
        states += v.checked_states
    elapsed = time.time() - t0
    report(1, elapsed < 30.0,
           f"non-empty-set exact on all honest sequences len<=6, domains 1..4 "
           f"({states} states, {elapsed:.1f}s < 30s)")


def test_criterion_02_st_twopath_binary_exhaustive():
    entry = builtin_program("st-twopath-binary")
    t0 = time.time()
    v = check_maintenance(entry.program, entry.oracle,
                          CheckConfig(domain_size=5, max_len=5, honest_only=True))
    elapsed = time.time() - t0
    assert v.status == "ok", v.counterexample
    report(2, elapsed < 60.0,
           f"st-twopath-binary exact on all honest sequences len<=5 over {{s,t}}+3 "
           f"({v.checked_states} states, {elapsed:.1f}s < 60s)")


def test_criterion_03_s_twopath_ternary_random():
    entry = builtin_program("s-twopath-ternary")
    v = check_maintenance(entry.program, entry.oracle,
                          CheckConfig(domain_size=5, max_len=12, mode="random",
                                      samples=10_000, seed=20240801, honest_only=True))
    report(3, v.status == "ok",
           f"s-twopath-ternary exact on 10000 seeded honest sequences len<=12 "
           f"over {{s}}+4 ({v.checked_steps} steps, seed {v.seed})")


def test_criterion_04_reach_1layer_exhaustive():
    entry = builtin_program("reach-1layer-qf")
    v = check_maintenance(entry.program, entry.oracle,
                          CheckConfig(domain_size=5, max_len=5, honest_only=True,
                                      guard=entry.instance_guard))
    report(4, v.status == "ok",
           f"reach-1layer-qf exact on all honest 1-layered sequences len<=5 "
           f"over {{s,t}}+3, completed deletion rules included "
           f"({v.checked_states} states)")


def test_criterion_05_substructure_suite_dynprop():
    results = []
    for name in ("non-empty-set", "st-twopath-binary", "s-twopath-ternary"):
        entry = builtin_program(name)
        cfg = CheckConfig(domain_size=5, max_len=4, seed=501, samples=500,
                          honest_only=True,
                          guard=entry.instance_guard if entry.guard_name != "any" else None)
        rep = substructure_property(entry.program, cfg)
        results.append((name, rep))
        assert rep.status == "ok", (name, rep.witness)
        assert rep.samples == 500
    detail = "; ".join(f"{n}: 500/500 isomorphic (skipped {r.skipped})" for n, r in results)
    report(5, all(r.status == "ok" for _, r in results), detail)


def test_criterion_06_substructure_suite_qf():
    entry = builtin_program("reach-1layer-qf")
    cfg = CheckConfig(domain_size=7, max_len=4, seed=601, samples=200,
                      honest_only=True, guard=entry.instance_guard)
    k = entry.program.nesting_depth()
    m = cfg.max_len * k + k
    rep = substructure_property(entry.program, cfg, with_functions=True,
                                similarity_depth=m)
    report(6, rep.status == "ok" and rep.samples == 200,
           f"reach-1layer-qf: 200/200 samples 0-similar after pi-respecting "
           f"sequences at similarity depth m = {cfg.max_len}*{k}+{k} = {m} "
           f"(skipped {rep.skipped})")


EXAMPLE_SRC = """
program example
input { U/1 }
aux   { Q/0, R/2, S/2 }
query Q
init  empty
on insert U(u):
  Q(): Q() | R(u,u)
  R(x,y): S(x,y) & R(x,x)
  S(x,y): S(x,y) | (x = u & y = u)
on delete U(u):
  Q(): Q()
  R(x,y): R(x,y)
  S(x,y): S(x,y)
"""


def _paired_differential(p1, p2, n, maxlen):
    s1 = init_state(p1, empty_input_db(p1, n))
    s2 = init_state(p2, empty_input_db(p2, n))
    rel = p1.schema.input_relations[0]
    mods = [Modification(rel, t, k)
            for t in itertools.product(range(n), repeat=p1.schema.arity(rel))
            for k in (INS, DEL)]

    def rec(a, b, depth):
        assert a.query_value(p1.query_symbol) == b.query_value(p2.query_symbol), \
            f"{p1.name} vs {p2.name} diverged"
        if depth == 0:
            return
        for m in mods:
            if is_honest(a, m):
                rec(apply(p1, a, m), apply(p2, b, m), depth - 1)

    rec(s1, s2, maxlen)


def test_criterion_07_transform_equivalence():
    from dynqf.formulas import And, Or, atom
    # the worked elimination example reproduces the expected output program
    example = parse_program(EXAMPLE_SRC)
    dedup = eliminate_repeated_variables(example)
    assert dedup.rule("R", INS, "U").body == And(atom("S", "x", "y"), atom("R_12", "x"))
    assert dedup.rule("R_12", INS, "U").body == And(atom("S_12", "x"), atom("R_12", "x"))
    assert dedup.rule("S_12", INS, "U").body == Or(
        atom("S_12", "x"), And(eqf("x", "u"), eqf("x", "u")))
    for rule in dedup.rules.values():
        assert not classify_syntax(rule.body).repeated_vars_in_atom
    # differential equivalence: the fixture pair exhaustively, the corpus
    # programs via oracle agreement of the transformed output
    for n in (3, 4):
        _paired_differential(example, dedup, n, 5)
    checked = []
    for name in ("non-empty-set", "st-twopath-binary", "s-twopath-ternary"):
        entry = builtin_program(name)
        for transform in (eliminate_repeated_variables, relations_to_functions):
            out = transform(entry.program)
            for rule in out.rules.values():
                if transform is eliminate_repeated_variables:
                    assert not classify_syntax(rule.body).repeated_vars_in_atom
            v = check_maintenance(out, entry.oracle,
                                  CheckConfig(domain_size=4, max_len=5, honest_only=True))
            assert v.status == "ok", (name, transform.__name__, v.counterexample)
            checked.append(f"{out.name}")
    report(7, True,
           "dedup-vars reproduces the expected example program, leaves no "
           f"repeated-variable atom, and all transformed programs stay "
           f"oracle-exact at domain 4, len<=5: {', '.join(checked)}")


def eqf(a, b):
    from dynqf.formulas import eq
    return eq(a, b)


def _gadget_family():
    """2-layered graphs shaped like the lower-bound gadget: full B->t edges,
    arbitrary A->B edges, at most one s->A edge.  The clique/colorability
    duality holds on the images of exactly these graphs."""
    for na, nb in ((1, 1), (1, 2), (2, 1), (2, 2)):
        spec = LayeredSpec((na, nb))
        layers, _, t = (lambda g: (g.layers, None, g.t))(gen_layered(spec, "empty"))
        a_nodes, b_nodes = layers
        base = [(b, t) for b in b_nodes]
        ab = [(a, b) for a in a_nodes for b in b_nodes]
        for bits in range(2 ** len(ab)):
            chosen = [e for i, e in enumerate(ab) if bits & (1 << i)]
            for s_edge in [None] + [(0, a) for a in a_nodes]:
                edges = base + chosen + ([s_edge] if s_edge else [])
                yield gen_layered(spec, edges)


def test_criterion_08_reduction_and_duality():
    from dynqf.queries import reduce_identify_st, reduce_tensor_clique
    # (a) exhaustive: every 2-layered graph with |A| = |B| = 2
    spec = LayeredSpec((2, 2))
    allowed = allowed_layer_edges(spec)
    count = 0
    for bits in range(2 ** len(allowed)):
        g = gen_layered(spec, [e for i, e in enumerate(allowed) if bits & (1 << i)])
        reduced = reduce_identify_st(g)
        assert oracle_st_reach(g.state) == oracle_k_clique(reduced, 3)
        count += 1
    # (b) duality on the constructed instances, |V| <= 6, k <= 4
    dcount = 0
    for g in _gadget_family():
        reduced = reduce_identify_st(g)
        assert oracle_k_clique(reduced, 3) == (not oracle_k_colorability(reduced, 2))
        dcount += 1
        if reduced.n + 1 <= 6:
            bigger = reduce_tensor_clique(reduced, 1)
            assert oracle_k_clique(bigger, 4) == (not oracle_k_colorability(bigger, 3))
            dcount += 1
    report(8, True,
           f"st-reach <=> 3-clique on all {count} 2-layered graphs |A|=|B|=2; "
           f"clique/colorability duality on {dcount} constructed instances "
           f"(identify-s-t images and tensor extensions, |V|<=6, k<=4)")


def test_criterion_09_attack_drivers():
    # (a) star deletion against the unary strawman at some n <= 8
    unary = strawman_program("unary-twopath-naive")
    star = None
    star_n = None
    for n in range(1, 9):
        star = attack_star_deletion(unary, n)
        if star is not None:
            star_n = n
            break
    assert star is not None, "no star-deletion witness up to n = 8"
    assert validate_counterexample(unary, oracle_st_reach, star)
    # (b) conjunctive adversary against the depth-1 strawman, |U| = 2, len <= 4
    cq = strawman_program("cq-nonemptyset-naive")
    cex = cq_adversary(cq, bound=4)
    assert cex is not None and len(cex.sequence) <= 4
    assert validate_counterexample(cq, oracle_nonemptyset, cex)
    report(9, True,
           f"star-deletion witness at n={star_n} (step {star.step}, replayed); "
           f"cq-adversary witness of length {len(cex.sequence)} at |U|=2 (replayed)")


def test_criterion_10_invariant_initialization():
    toy = make_schema(input_relations={"U": 1}, aux_relations={"A": 1})
    db = make_state(toy.input_only(), 5, {"U": {(1,), (3,)}})
    ok_empty = is_invariant_init(EmptyInit(toy), db, "all")
    ok_copy = is_invariant_init(CopyInputInit(toy, {"A": "U"}), db, "all")
    rejected = not is_invariant_init(FixedElementInit(toy, "A", 0), db, "all")

    # function-valued invariant init on a complete 1-layered graph: every
    # layer pair is swappable, so no auxiliary function value may land in
    # the layer
    sch = make_schema(input_relations={"E": 2}, aux_functions={"g": 1},
                      constants=("s", "t"))
    layer = (1, 2, 3)
    edges = {(0, a) for a in layer} | {(a, 4) for a in layer}
    gdb = make_state(sch.input_only(), 5, {"E": edges}, constants={"s": 0, "t": 4})
    init = ConstFunctionInit(sch, "s")
    ok_fun = is_invariant_init(init, gdb, "all")
    state = init.build(gdb)
    no_layer_values = all(v not in layer for v in state.fun("g").values())
    # and the diverse-type experiment: all diverse layer tuples share a type
    diverse_ok = all(
        diverse_tuples_share_type(init.build(
            make_state(sch.input_only(), m + 2,
                       {"E": {(0, a) for a in range(1, m + 1)} | {(a, m + 1) for a in range(1, m + 1)}},
                       constants={"s": 0, "t": m + 1})),
            set(range(1, m + 1)), 2)
        for m in (2, 3))
    ok = ok_empty and ok_copy and rejected and ok_fun and no_layer_values and diverse_ok
    report(10, ok,
           "empty and copy-input inits invariant under all 120 permutations at "
           "domain 5; fixed-element init rejected; constant-valued function init "
           "invariant with no aux function value on a swappable element; diverse "
           "layer tuples share one atomic type in the initialized states")
