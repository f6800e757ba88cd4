import pytest
from hypothesis import given, strategies as st

from dynqf.corpus import builtin_program, strawman_program
from dynqf.errors import GuardError
from dynqf.parser import parse_program
from dynqf.program import empty_input_db, init_state, run
from dynqf.queries import oracle_nonemptyset, oracle_st_reach, oracle_st_twopath
from dynqf.schema import make_schema
from dynqf.state import ins, make_state
from dynqf.transforms import deletion_depth
from dynqf.verify import (CheckConfig, attack_star_deletion,
                          attack_subset_gadget, check_maintenance, cq_adversary,
                          diverse_saturation, embedding_positions, higman_pair,
                          is_closed, k_similar, neighborhood,
                          neighborhood_vector, subsequence,
                          substructure_property, validate_counterexample)

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


@pytest.mark.parametrize("name", ["non-empty-set", "st-twopath-binary", "s-twopath-ternary",
                                  "reach-1layer-qf"])
def test_input_state_equals_input_part_on_reachable_states(name):
    from dynqf.compiler import context_for_state
    from dynqf.verify import _candidate_mods
    e = builtin_program(name)
    s = init_state(e.program, empty_input_db(e.program, 3))
    ctx = context_for_state(e.program, s)
    reached = {ctx.to_lean(s)}
    mods = _candidate_mods(e.program, 3)
    for _ in range(3):
        reached |= {ctx.apply(lean, m) for lean in reached for m in mods if ctx.is_honest(lean, m)}
    for lean in reached:
        view, full = ctx.input_state(lean), ctx.from_lean(lean).input_part()
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
    from dynqf.atoms import atomic_type
    from dynqf.verify import type_word
    sch = make_schema(input_relations={"E": 2}, constants=("s",))
    s = make_state(sch, 4, {"E": {(0, 1), (0, 2)}}, constants={"s": 0})
    w = type_word(s, [1, 2, 3], sigma=["E"])
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
    s = chain_state(4)
    assert is_closed(s, {0, 1, 2, 3})
    assert is_closed(s, {3})  # clamp makes the top element a fixed point
    assert not is_closed(s, {0})
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


def test_neighborhood_vector():
    sch = make_schema(input_relations={"E": 2}, builtin_functions={"e": 1})
    s = make_state(sch, 3, {}, {"e": {(0,): 1, (1,): 2, (2,): 2}})
    vec, et = neighborhood_vector(s, (0,), 1)
    assert vec == (0, 1)
    assert et.blocks == ((0,), (1,))
    vec2, et2 = neighborhood_vector(s, (0, 0), 1)
    assert vec2 == (0, 1, 0, 1)
    assert et2.blocks == ((0, 2), (1, 3))


def test_neighborhood_vector_no_functions():
    sch = make_schema(input_relations={"E": 2})
    s = make_state(sch, 3)
    vec, et = neighborhood_vector(s, (0, 1), 2)
    assert vec == (0, 1)
    assert et.blocks == ((0,), (1,))


# -- substructure property ---------------------------------------------------------------

def test_substructure_identity_pairs_always_ok():
    e = builtin_program("non-empty-set")
    cfg = CheckConfig(domain_size=4, max_len=3, seed=1, samples=30)
    rep = substructure_property(e.program, cfg)
    assert rep.status == "ok" and rep.samples == 30


def test_substructure_precondition_skips_asymmetric_pair():
    # after [ins U(0), ins U(1)] the subsets {0} and {1} are not isomorphic:
    # 0 is First, 1 is Last
    from dynqf.verify import _restriction_isomorphism
    e = builtin_program("non-empty-set")
    s = run(e.program, init_state(e.program, empty_input_db(e.program, 3)),
            [ins("U", 0), ins("U", 1)])[-1]
    assert _restriction_isomorphism(s, (0,), s, (1,)) is None


def test_substructure_suite_on_function_encoded_program():
    # the function-extended engine invariant also holds for programs with
    # 0-ary and binary functions (the encoding's c_top/c_bot and f_List);
    # binary functions blow up term enumeration, so tuples and depth stay
    # small here (transported pairs are similar at every depth anyway)
    from dynqf.transforms import relations_to_functions
    p = relations_to_functions(builtin_program("non-empty-set").program)
    cfg = CheckConfig(domain_size=4, max_len=2, seed=17, samples=40)
    rep = substructure_property(p, cfg, with_functions=True, similarity_depth=2,
                                max_tuple=2)
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


def test_subset_gadget_zero_returns_none():
    p = strawman_program("binary-reach2-naive")
    assert attack_subset_gadget(p, 0) is None
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
    assert diverse_saturation(s, None, depths) == [("R", (0,))]
    sat = make_state(sch, 3, {"U": {(0,), (1,)}, "R": {(0,), (1,)}, "Q": {()}})
    assert diverse_saturation(sat, None, depths) == []
    empty_q = make_state(sch, 3, {"U": {(0,)}, "R": {(0,)}})
    assert ("Q", ()) in diverse_saturation(empty_q, None, depths)


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
