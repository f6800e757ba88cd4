import pytest

from dynqf.corpus import builtin_program, computed_tags, guard_1layered, strawman_program
from dynqf.errors import SchemaError
from dynqf.formulas import classify_syntax
from dynqf.program import empty_input_db, init_state, run
from dynqf.schema import Role
from dynqf.state import delete, ins
from dynqf.verify import CheckConfig, check_maintenance


def trace_q(name, n, seq):
    e = builtin_program(name)
    s0 = init_state(e.program, empty_input_db(e.program, n))
    return [s.query_value(e.program.query_symbol) for s in run(e.program, s0, seq, honest_only=True)]


def test_nonemptyset_query_trace():
    qs = trace_q("non-empty-set", 3,
                 [ins("U", 0), ins("U", 1), delete("U", 0), delete("U", 1)])
    assert qs == [False, True, True, True, False]


def test_st_twopath_binary_completes_path():
    # domain {s,t,a,b}: s=0, t=3; phi_n fires on the second insertion
    qs = trace_q("st-twopath-binary", 4, [ins("E", 0, 1), ins("E", 1, 3)])
    assert qs == [False, False, True]


def test_reach_1layer_counter_moves():
    e = builtin_program("reach-1layer-qf")
    s0 = init_state(e.program, empty_input_db(e.program, 5))
    trace = run(e.program, s0, [ins("E", 0, 2), ins("E", 2, 4)], honest_only=True)
    assert trace[-1].rel("C") == {(1,)}
    assert trace[-1].query_value("Q") is True
    assert trace[1].rel("C") == {(0,)}


def test_s_twopath_ternary_loops_through_s():
    qs = trace_q("s-twopath-ternary", 3, [ins("E", 0, 0)])
    assert qs == [False, True]  # E(s,s) alone is a two-step walk s->s->s


def test_class_tags_are_machine_checked():
    tags = {
        "non-empty-set": ("DynProp", 2),
        "st-twopath-binary": ("DynProp", 2),
        "s-twopath-ternary": ("DynProp", 3),
        "reach-1layer-qf": ("DynQF*", 1),
    }
    for name, (cls, arity) in tags.items():
        entry = builtin_program(name)
        assert entry.class_tags.classes == (cls,)
        assert entry.class_tags.arity == arity
        assert computed_tags(entry.program) == entry.class_tags
        assert entry.class_tags.arity == entry.program.schema.max_aux_arity()


def test_reach_builtins_are_unary_functions_only():
    p = builtin_program("reach-1layer-qf").program
    builtins = [f for f in p.schema.functions if p.schema.role(f) is Role.BUILTIN]
    assert builtins and all(p.schema.arity(f) == 1 for f in builtins)
    assert p.nesting_depth() == 1


def test_corpus_entries_not_conjunctive_or_negation_free():
    # sanity on the classifier wiring, not a claim from the catalogue
    entry = builtin_program("st-twopath-binary")
    assert not entry.class_tags.conjunctive
    assert not entry.class_tags.negation_free
    cq = strawman_program("cq-nonemptyset-naive")
    assert all(classify_syntax(r.body).conjunctive for r in cq.rules.values())


def test_nonemptyset_state_invariant_along_traces():
    entry = builtin_program("non-empty-set")
    s0 = init_state(entry.program, empty_input_db(entry.program, 4))
    seq = [ins("U", 2), ins("U", 0), ins("U", 3), delete("U", 0), delete("U", 2), ins("U", 1)]
    for state in run(entry.program, s0, seq, honest_only=True):
        assert entry.state_invariant(entry, state) == []


def test_unknown_corpus_name():
    with pytest.raises(Exception):
        builtin_program("no-such-program")


@pytest.mark.parametrize("m,consts,fragment", [
    (ins("E", 0, 1), {"s": 0}, "constants s and t"),
    (ins("U", 0), {"s": 0, "t": 2}, "binary edges"),
])
def test_layered_guard_rejects_instances_it_cannot_read(m, consts, fragment):
    with pytest.raises(SchemaError, match=fragment):
        guard_1layered(m, 3, consts)


@pytest.mark.parametrize("name,n,maxlen", [
    ("non-empty-set", 3, 6),
    ("st-twopath-binary", 4, 4),
    ("s-twopath-ternary", 3, 6),
    ("reach-1layer-qf", 4, 6),
])
def test_small_scope_exhaustive_maintenance(name, n, maxlen):
    entry = builtin_program(name)
    cfg = CheckConfig(domain_size=n, max_len=maxlen, honest_only=True,
                      guard=entry.instance_guard if entry.guard_name != "any" else None)
    verdict = check_maintenance(entry.program, entry.oracle, cfg)
    assert verdict.status == "ok", verdict.counterexample


@pytest.mark.parametrize("name,n,maxlen", [
    ("st-twopath-binary", 4, 7),
    ("s-twopath-ternary", 3, 8),
])
def test_deep_regression_beyond_acceptance_bounds(name, n, maxlen):
    # longer horizons than the acceptance gate, at smaller domains: these
    # reach list shapes (three members, interleaved per-node lists) that the
    # shallow bounds cannot
    entry = builtin_program(name)
    cfg = CheckConfig(domain_size=n, max_len=maxlen, honest_only=True)
    verdict = check_maintenance(entry.program, entry.oracle, cfg)
    assert verdict.status == "ok", verdict.counterexample


def test_deep_exhaustive_ternary_regression():
    # criterion 03 checks s-twopath-ternary by random walks only, and the
    # deep regression above stops at n=3: the whole space at n=4, len <= 5
    entry = builtin_program("s-twopath-ternary")
    cfg = CheckConfig(domain_size=4, max_len=5, honest_only=True)
    verdict = check_maintenance(entry.program, entry.oracle, cfg)
    assert (verdict.status, verdict.checked_states, verdict.checked_steps) == ("ok", 28777, 97168)


def test_deep_exhaustive_ternary_regression_n5():
    # the next row: the whole space at n=5, len <= 4, which also runs the
    # s-twopath oracle over every covered state
    entry = builtin_program("s-twopath-ternary")
    cfg = CheckConfig(domain_size=5, max_len=4, honest_only=True)
    verdict = check_maintenance(entry.program, entry.oracle, cfg)
    assert (verdict.status, verdict.checked_states, verdict.checked_steps) == ("ok", 33531, 98650)


def test_engine_survives_dishonest_modifications():
    # no correctness claim without honesty, but evaluation must stay total
    entry = builtin_program("non-empty-set")
    p = entry.program
    s = init_state(p, empty_input_db(p, 3))
    for m in [ins("U", 0), ins("U", 0), delete("U", 1), delete("U", 0), delete("U", 0)]:
        s = run(p, s, [m])[-1]
    assert s.query_value("Q") in (True, False)


def test_twopath_list_survives_three_members():
    # regression beyond the acceptance bound: three witnesses on the list at
    # once, then removal from the middle
    e = builtin_program("st-twopath-binary")
    n = 6  # s=0, t=5, middles 1..4
    s0 = init_state(e.program, empty_input_db(e.program, n))
    seq = [ins("E", 0, 1), ins("E", 1, 5), ins("E", 0, 2), ins("E", 2, 5),
           ins("E", 0, 3), ins("E", 3, 5),
           delete("E", 0, 2), delete("E", 2, 5), delete("E", 0, 1),
           delete("E", 1, 5), delete("E", 0, 3)]
    trace = run(e.program, s0, seq, honest_only=True)
    for state in trace:
        assert state.query_value("Q") == e.oracle(state.input_part())
    assert trace[-1].query_value("Q") is False
