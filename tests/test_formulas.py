import pytest
from hypothesis import given, strategies as st

from dynqf.errors import EvalError, ResourceLimitError
from dynqf.formulas import (And, App, Const, Eq, EqualityType, FALSE, Ite, Not, Or,
                            RelAtom, TRUE, Var, atom, children, classify_syntax,
                            count_terms_up_to_depth, eq, eval_formula, eval_term,
                            map_atoms, nesting_depth, rebuild, rel_atoms, subst,
                            terms_up_to_depth)
from dynqf.parser import parse_formula
from dynqf.schema import make_schema
from dynqf.state import make_state, transport

SET = make_schema(input_relations={"U": 1})
FUN = make_schema(input_relations={"E": 2}, builtin_functions={"g": 1})
NUM = make_schema(input_relations={"C": 1}, builtin_functions={"Succ": 1, "Pred": 1})


def test_eval_equality():
    s = make_state(SET, 2)
    assert eval_formula(eq("x", "y"), s, {"x": 0, "y": 0})
    assert not eval_formula(eq("x", "y"), s, {"x": 0, "y": 1})


def test_eval_membership_and_negation():
    s = make_state(SET, 2, {"U": {(0,)}})
    f = And(atom("U", "x"), Not(atom("U", "y")))
    assert eval_formula(f, s, {"x": 0, "y": 1})
    assert not eval_formula(f, s, {"x": 1, "y": 0})


def test_eval_atom_with_term_argument():
    s = make_state(FUN, 2, {"E": {(0, 1)}}, {"g": {(0,): 1, (1,): 1}})
    f = RelAtom("E", (Var("x"), App("g", (Var("x"),))))
    assert eval_formula(f, s, {"x": 0})


def test_eval_unbound_variable_errors():
    s = make_state(SET, 2)
    with pytest.raises(EvalError):
        eval_formula(atom("U", "x"), s, {})
    with pytest.raises(EvalError):
        eval_term(Var("z"), s, {})


def test_ite_picks_branch():
    s = make_state(SET, 2)
    t = Ite(TRUE, Var("x"), Var("y"))
    assert eval_term(t, s, {"x": 0, "y": 1}) == 0


def test_succ_composition():
    succ = {(i,): min(i + 1, 2) for i in range(3)}
    pred = {(i,): max(i - 1, 0) for i in range(3)}
    s = make_state(NUM, 3, {}, {"Succ": succ, "Pred": pred})
    t = App("Succ", (App("Succ", (Var("x"),)),))
    assert eval_term(t, s, {"x": 0}) == 2


def test_ite_with_condition_reading_state():
    # ite(C(Pred(x)), x, Pred(x)) at x=1 with C={0}: condition holds, so x
    succ = {(i,): min(i + 1, 2) for i in range(3)}
    pred = {(i,): max(i - 1, 0) for i in range(3)}
    s = make_state(NUM, 3, {"C": {(0,)}}, {"Succ": succ, "Pred": pred})
    t = Ite(RelAtom("C", (App("Pred", (Var("x"),)),)), Var("x"), App("Pred", (Var("x"),)))
    assert eval_term(t, s, {"x": 1}) == 1


def test_ite_unchosen_branch_not_evaluated():
    # the unchosen branch would crash on an unbound variable if evaluated
    s = make_state(SET, 2)
    t = Ite(TRUE, Var("x"), Var("missing"))
    assert eval_term(t, s, {"x": 1}) == 1


def test_nesting_depth_rules():
    assert nesting_depth(Var("x")) == 0
    assert nesting_depth(Const("s")) == 0
    assert nesting_depth(App("f", (App("g", (Var("x"),)),))) == 2
    # ite takes the max of condition and branches, not one more
    f = Ite(RelAtom("U", (App("f", (Var("x"),)),)), Var("x"), Var("y"))
    assert nesting_depth(f) == 1
    assert nesting_depth(App("c", ())) == 1


@given(st.integers(0, 3))
def test_nesting_depth_unary_application_increments(k):
    t = Var("x")
    for _ in range(k):
        t = App("f", (t,))
    assert nesting_depth(App("f", (t,))) == k + 1


def test_children_and_rebuild_follow_field_order():
    t = Ite(atom("R", "x"), Var("y"), App("f", (Var("z"), Const("s"))))
    assert children(t) == (atom("R", "x"), Var("y"), App("f", (Var("z"), Const("s"))))
    assert children(t.other) == (Var("z"), Const("s"))
    assert children(Var("x")) == () and children(TRUE) == ()
    seen = []
    assert rebuild(t, lambda k: seen.append(k) or k) == t
    assert seen == list(children(t))
    leaf = Const("s")
    assert rebuild(leaf, lambda k: 1 / 0) is leaf


@pytest.mark.parametrize("walk", [children, lambda n: rebuild(n, id)])
def test_children_and_rebuild_reject_a_non_node(walk):
    with pytest.raises(EvalError, match="not a term or formula: 'x'"):
        walk("x")


@pytest.mark.parametrize("walk", [nesting_depth, lambda n: subst(n, {}), lambda n: map_atoms(n, id)])
def test_walks_reject_a_part_that_is_not_a_node(walk):
    with pytest.raises(EvalError, match="not a term or formula: 'x'"):
        walk(And(TRUE, "x"))


def test_subst_reaches_variables_inside_ite():
    f = Eq(Ite(atom("R", "x"), Var("x"), Var("y")), Var("x"))
    out = subst(f, {"x": Const("s")})
    assert out == Eq(Ite(RelAtom("R", (Const("s"),)), Const("s"), Var("y")), Const("s"))


def test_map_atoms_reaches_atoms_inside_ite_conditions():
    f = Eq(Ite(atom("R", "x"), Var("x"), Var("y")),
           App("f", (Ite(Not(atom("S", "y")), Var("y"), Var("x")),)))
    out = map_atoms(f, lambda a: RelAtom(a.symbol + "2", a.args))
    assert rel_atoms(out) == [atom("R2", "x"), atom("S2", "y")]
    # an atom's arguments are mapped before the atom itself
    order = []
    map_atoms(RelAtom("R", (Ite(atom("S", "x"), Var("x"), Var("y")),)),
              lambda a: order.append(a.symbol) or a)
    assert order == ["S", "R"]


def test_classify_sees_a_repeat_inside_an_ite_condition():
    f = Eq(Ite(atom("R", "x", "x"), Var("x"), Var("y")), Var("y"))
    assert classify_syntax(f).repeated_vars_in_atom


def test_classify_conjunctive_with_repeat():
    f = And(atom("S", "x", "y"), atom("R", "x", "x"))
    flags = classify_syntax(f)
    assert flags.negation_free and flags.conjunctive and flags.repeated_vars_in_atom


def test_classify_disjunction_not_conjunctive():
    f = Or(atom("U", "x"), atom("U", "y"))
    assert not classify_syntax(f).conjunctive
    assert classify_syntax(f).negation_free


def test_classify_negated_conjunction():
    f = Not(And(atom("First", "a"), atom("Last", "a")))
    flags = classify_syntax(f)
    assert not flags.negation_free
    assert not flags.conjunctive


def test_classify_literals_allow_negated_atoms():
    f = And(And(And(atom("U", "x"), Not(atom("V", "y"))), Not(eq("x", "y"))), TRUE)
    assert classify_syntax(f).conjunctive


def test_conjunctive_and_negation_free_iff_positive_chain():
    positive = And(And(atom("U", "x"), atom("V", "y")), eq("x", "y"))
    flags = classify_syntax(positive)
    assert flags.conjunctive and flags.negation_free
    with_neg = And(atom("U", "x"), Not(atom("V", "y")))
    flags = classify_syntax(with_neg)
    assert flags.conjunctive and not flags.negation_free
    disjunctive = Or(atom("U", "x"), atom("V", "y"))
    flags = classify_syntax(disjunctive)
    assert flags.negation_free and not flags.conjunctive


def test_equality_types():
    assert EqualityType.from_key((7, 7, 9)).blocks == ((0, 1), (2,))
    assert EqualityType.from_key((1, 2, 3)).blocks == ((0,), (1,), (2,))
    assert EqualityType.from_key(()).blocks == ()


@given(st.lists(st.integers(0, 4), max_size=6), st.permutations(range(5)))
def test_equality_type_invariant_under_injection(tup, perm):
    mapped = tuple(perm[x] for x in tup)
    assert EqualityType.from_key(tup) == EqualityType.from_key(mapped)


def test_terms_no_functions():
    sch = make_schema(input_relations={"U": 1}, constants=("c",))
    terms = terms_up_to_depth(sch, 3, ("x",))
    assert terms == [Var("x"), Const("c")]


def test_terms_single_unary_symbol():
    sch = make_schema(input_relations={"U": 1}, builtin_functions={"f": 1})
    assert terms_up_to_depth(sch, 1, ("x",)) == [Var("x"), App("f", (Var("x"),))]
    terms = terms_up_to_depth(sch, 2, ("x",))
    assert terms == [Var("x"), App("f", (Var("x"),)), App("f", (App("f", (Var("x"),)),))]


@given(st.integers(0, 5), st.integers(0, 3))
def test_term_count_single_unary_symbol(k, c):
    sch = make_schema(input_relations={"U": 1}, builtin_functions={"f": 1},
                      constants=tuple(f"c{i}" for i in range(c)))
    terms = terms_up_to_depth(sch, k, ("x",))
    assert len(terms) == (k + 1) * (1 + c)
    assert len(terms) == count_terms_up_to_depth(sch, k, 1)


def test_terms_cap_reports_count():
    sch = make_schema(input_relations={"U": 1}, builtin_functions={"f": 2})
    with pytest.raises(ResourceLimitError) as exc:
        terms_up_to_depth(sch, 6, ("x", "y"), cap=100)
    assert exc.value.count > 100


def test_terms_enumeration_deterministic_order():
    sch = make_schema(input_relations={"U": 1}, builtin_functions={"f": 1, "e": 1})
    terms = terms_up_to_depth(sch, 1, ("x",))
    assert terms == [Var("x"), App("e", (Var("x"),)), App("f", (Var("x"),))]


# the engine fact behind everything else: quantifier-free evaluation is
# invariant under isomorphism
@given(st.integers(2, 4), st.data())
def test_eval_respects_isomorphism(n, data):
    sch = make_schema(input_relations={"E": 2, "U": 1}, constants=("s",))
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=5))
    unary = data.draw(st.sets(st.tuples(st.integers(0, n - 1)), max_size=3))
    s = make_state(sch, n, {"E": edges, "U": unary}, constants={"s": 0})

    def formulas(depth):
        base = [
            atom("E", "x", "y"), atom("U", "x"), atom("U", "y"),
            eq("x", "y"), Eq(Var("x"), Const("s")), TRUE, FALSE,
        ]
        if depth == 0:
            return st.sampled_from(base)
        sub = formulas(depth - 1)
        return st.one_of(
            st.sampled_from(base),
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
        )

    f = data.draw(formulas(3))
    perm = data.draw(st.permutations(range(n)))
    pi = dict(enumerate(perm))
    t = transport(s, pi)
    asg = {"x": data.draw(st.integers(0, n - 1)), "y": data.draw(st.integers(0, n - 1))}
    mapped = {k: pi[v] for k, v in asg.items()}
    assert eval_formula(f, s, asg) == eval_formula(f, t, mapped)


def test_parse_formula_shortcuts():
    sch = make_schema(input_relations={"R": 2})
    f = parse_formula("R(x,y) & x != y | !R(y,x)", sch, {"x", "y"})
    assert isinstance(f, Or)
    assert isinstance(f.left, And)
    assert isinstance(f.right, Not)
