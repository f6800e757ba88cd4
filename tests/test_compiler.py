"""The rule planner: each plan shape against the reference evaluator, frame
reuse, one code object per program, and readable generated sources."""
import inspect
import random
import traceback

import pytest

from dynqf.compiler import context_for_state, lean_context
from dynqf.corpus import builtin_program
from dynqf.parser import parse_program
from dynqf.program import _reference_apply, apply, empty_input_db, init_state
from dynqf.state import delete, ins

HEADER = """
input   { E/2, U/1 }
aux     { Q/0, A/1, B/2, fun f/1, fun c/0 }
const   s
query   Q
init    empty
default frame
"""

# rules that keep A, B, f and c moving; a shape replaces one of them
BASE = {
    ("insert", "E(a,b)"): {"B": "B(x,y): B(x,y) | (x = a & y = b)", "f": "f(x) := ite(x = a, b, f(x))"},
    ("delete", "E(a,b)"): {"B": "B(x,y): B(x,y) & !(x = a & y = b)"},
    ("insert", "U(a)"): {"A": "A(x): A(x) | x = a", "c": "c() := a"},
    ("delete", "U(a)"): {"A": "A(x): A(x) & x != a"},
}

SHAPES = {
    "frame-or": ("insert", "U(a)", "A(x): A(x) | (x = a & !B(a,a))"),
    "frame-and-not": ("delete", "E(a,b)", "B(x,y): B(x,y) & !(x = a | y = b)"),
    "bind-trigger": ("insert", "E(a,b)", "A(x): (x = a & !A(b)) | (b = x & A(a))"),
    "bind-constant": ("insert", "U(a)", "A(x): (x = s & A(a)) | (A(x) & x != a)"),
    "bind-function": ("insert", "E(a,b)", "A(x): x = f(a) | (A(x) & x != b)"),
    "bind-target": ("insert", "E(a,b)", "B(x,y): (A(x) & y = f(x)) | B(x,y)"),
    "generator-bound-arg": ("insert", "U(a)", "A(x): B(x,a) | (B(a,x) & A(x))"),
    "repeated-variable": ("delete", "U(a)", "A(y): B(y,y) & y != a"),
    "repeated-in-binary": ("insert", "E(a,b)", "B(x,y): (B(x,x) & y = a) | (B(y,y) & x = b)"),
    "or-distributed": ("delete", "E(a,b)", "B(x,y): (A(x) | x = a) & (A(y) | y = b) & !B(y,x)"),
    "filter-or": ("delete", "E(a,b)", "B(x,y): B(x,y) & (x != a | (y != b & A(y)))"),
    "past-dnf-cap": ("insert", "U(a)", "B(x,y): (A(x) | B(x,a)) & (A(y) | B(a,y)) & (x = a | B(y,x))"
                                       " & (y = a | B(x,x)) & (B(y,y) | x = y)"),
    "trigger-only-target": ("delete", "U(a)", "A(x): (A(x) & !A(a)) | (A(a) & x != a)"),
    "zero-ary": ("delete", "E(a,b)", "Q(): (Q() & !(A(a) & B(a,b))) | A(b)"),
    "function": ("insert", "U(a)", "f(x) := ite(A(x) & x != a, a, f(f(x)))"),
    "zero-ary-function": ("delete", "U(a)", "c() := ite(Q() | A(a), c(), f(a))"),
}


def program(shape: str):
    rules = {key: dict(targets) for key, targets in BASE.items()}
    kind, trigger, line = SHAPES[shape]
    rules[(kind, trigger)][line.split("(")[0]] = line
    blocks = [f"on {kind} {trigger}:\n" + "".join(f"  {r}\n" for r in targets.values())
              for (kind, trigger), targets in rules.items()]
    return parse_program(f"program {shape.replace('-', '_')}" + HEADER + "".join(blocks), shape)


def source(p, kind: str, trigger: str) -> str:
    ctx = context_for_state(p, init_state(p, empty_input_db(p, 3)))
    return inspect.getsource(ctx._appliers[(kind, trigger)])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_plan_shape_matches_reference(shape, n):
    p = program(shape)
    rng = random.Random(f"{shape}:{n}")
    for constants in ({"s": 0}, {"s": n - 1}):
        s = init_state(p, empty_input_db(p, n, constants))
        for _ in range(80):
            rel = rng.choice(("E", "U"))
            tup = tuple(rng.randrange(n) for _ in range(p.schema.arity(rel)))
            m = ins(rel, *tup) if rng.random() < 0.6 else delete(rel, *tup)
            fast = apply(p, s, m, compiled=True)
            assert fast == _reference_apply(p, s, m), (m, fast)
            s = fast


def test_past_the_dnf_cap_the_rule_scans_the_domain():
    capped = source(program("past-dnf-cap"), "ins", "U")
    assert "for t0 in _dom:" in capped and "for t1 in _dom:" in capped
    assert "_dom" not in source(program("or-distributed"), "del", "E")


def test_trigger_only_parts_are_computed_once_per_applier():
    p = builtin_program("st-twopath-binary").program
    src = source(p, "ins", "E")
    hoisted = [line.split(" = ", 1)[1] for line in src.splitlines() if line.lstrip().startswith("_h")]
    assert len(hoisted) == len(set(hoisted))
    # In(a), read by the rules for Q, First, Last and List, is tested once
    assert src.count("(m0,) in _R_In") == 1
    assert "_dom" not in src


def test_unchanged_relations_stay_the_same_object():
    p = program("frame-or")
    s = init_state(p, empty_input_db(p, 3))
    ctx = context_for_state(p, s)
    a, b = ctx.rel_index["A"], ctx.rel_index["B"]
    lean = ctx.apply(ctx.to_lean(s), ins("U", 1))
    lean = ctx.apply(lean, ins("E", 0, 1))
    assert lean[0][a] == {(1,)} and lean[0][b] == {(0, 1)}
    again = ctx.apply(lean, ins("U", 1))  # frame: the delta {(1,)} is already in A
    assert again[0][a] is lean[0][a]
    assert again[0][b] is lean[0][b]
    absent = ctx.apply(lean, delete("E", 2, 2))  # B(x,y) & !(x = a & y = b) drops nothing
    assert absent[0][b] is lean[0][b]
    assert ctx.apply(lean, ins("U", 2))[0][a] == {(1,), (2,)}


def test_contexts_of_one_program_share_code():
    p = program("bind-constant")
    small = lean_context(p, 3, {"s": 0}, {}, {})
    large = lean_context(p, 4, {"s": 3}, {}, {})
    assert small is not large
    assert small._appliers.keys() == large._appliers.keys()
    for key, fn in small._appliers.items():
        assert fn.__code__ is large._appliers[key].__code__


def test_generated_source_is_visible_to_inspect_and_tracebacks():
    p = program("frame-or")
    ctx = context_for_state(p, init_state(p, empty_input_db(p, 3)))
    fn = ctx._appliers[("ins", "U")]
    assert "def _applier" in inspect.getsource(fn)
    assert fn.__code__.co_filename == "<applier frame_or:ins U>"
    with pytest.raises(ValueError) as exc:
        fn(((), ()), (0,))
    frame = traceback.extract_tb(exc.value.__traceback__)[-1]
    assert frame.filename == "<applier frame_or:ins U>" and frame.line.endswith("= _state[0]")
