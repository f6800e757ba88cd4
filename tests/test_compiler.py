"""The rule planner: each plan shape against the reference evaluator, frame
reuse, one code object per program, and readable generated sources."""
import hashlib
import inspect
import random
import re
import traceback

import pytest

from dynqf.compiler import _Planner, context_for_state, lean_context
from dynqf.corpus import builtin_program
from dynqf.errors import TransformError
from dynqf.formulas import And, App, Const, Eq, FALSE, Ite, Not, Or, RelAtom, TRUE, Var
from dynqf.parser import parse_program
from dynqf.program import (DynamicProgram, InitSpec, UpdateRule, _reference_apply, apply,
                           empty_input_db, init_state, validate_program)
from dynqf.schema import make_schema
from dynqf.state import DEL, INS, delete, ins

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
    # the rewrites
    "reflexive-equality": ("insert", "U(a)", "A(x): (A(x) & a = a) | (x = a & x = x & f(a) = f(a))"),
    "contradictory-disjunct": ("insert", "E(a,b)", "B(x,y): B(x,y) | (A(x) & A(y) & !(A(x) & A(y)))"
                                                   " | (x = a & A(y) & !A(y)) | (x = b & y = a)"
                                                   " | (A(x) & !(A(x) & A(y)) & y = b)"),
    "guarded-frame": ("insert", "E(a,b)", "A(x): (A(x) & !B(a,b)) | (A(x) & Q()) | (x = b & B(a,b))"),
    "common-negation-binds": ("delete", "E(a,b)", "B(x,y): !((x = a & y = b) | (x = b & A(y) & y = f(a)))"
                                                  " & (B(x,y) | (A(x) & y = b))"),
    "common-negation-partial": ("delete", "U(a)", "B(x,y): !(x = a & A(x)) & !(y = f(a))"
                                                  " & (B(x,y) | (A(x) & B(y,y)))"),
    "common-negation-shared": ("delete", "U(a)", "B(x,y): !((x = a | x = f(a)) & A(x)) & !((y = a | y = f(a)) & A(y))"
                                                 " & (B(x,y) | (A(x) & B(y,y)))"),
    "common-negation-unbound": ("delete", "E(a,b)", "A(x): !(x = b | (A(x) & B(x,a))) & (A(x) | x = a | B(b,x))"),
    "frame-minus-set": ("delete", "E(a,b)", "A(x): (A(x) & !((x = b & B(x,x)) | (x = f(a) & A(b))))"
                                            " | (B(a,x) & A(a))"),
    "frame-minus-tuple": ("delete", "E(a,b)", "B(x,y): (B(x,y) & !(x = a & A(a) & y = b)) | (x = b & B(a,y))"),
    "filter-trigger-side": ("insert", "E(a,b)", "B(x,y): (B(x,y) & (x != a | A(a))) | (x = a & !A(a) & y = b)"),
    "filter-negated-trigger-side": ("delete", "U(a)", "B(x,y): (B(x,y) & (!A(a) | y != a)) | (A(a) & B(y,x))"),
    "wake-substituted": ("insert", "U(a)", "B(x,y): B(x,y) | (x = a & A(x) & B(y,x))"),
    "delta-one-tuple": ("insert", "E(a,b)", "B(x,y): B(x,y) | (x = a & y = f(b) & A(x))"),
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
            fast = apply(p, s, m)
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
    assert src.count(_local(src, "(m0,)") + " in _R_In") == 1
    assert "_dom" not in src


def test_unchanged_relations_stay_the_same_object():
    p = program("frame-or")
    s = init_state(p, empty_input_db(p, 3))
    ctx = context_for_state(p, s)
    a, b = ctx.rel_index["A"], ctx.rel_index["B"]
    lean = ctx.apply(ctx.to_lean(s), ins("U", 1))
    lean = ctx.apply(lean, ins("E", 0, 1))
    assert lean[a] == {(1,)} and lean[b] == {(0, 1)}
    again = ctx.apply(lean, ins("U", 1))  # frame: the delta {(1,)} is already in A
    assert again[a] is lean[a]
    assert again[b] is lean[b]
    absent = ctx.apply(lean, delete("E", 2, 2))  # B(x,y) & !(x = a & y = b) drops nothing
    assert absent[b] is lean[b]
    assert ctx.apply(lean, ins("U", 2))[a] == {(1,), (2,)}


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
    assert frame.filename == "<applier frame_or:ins U>" and frame.line.endswith("= _state")


def test_an_applier_unpacks_and_returns_one_payload_tuple():
    for name, kind, trigger, src in _sources():
        lines = src.splitlines()
        assert lines[1].endswith(") = _state") and src.count("_state") == 2, (name, kind, trigger)
        assert lines[-1].startswith("    return (") and lines[-1].endswith(")"), (name, kind, trigger)
        assert "), (" not in lines[-1] and src.count("return ") == 1, (name, kind, trigger)


@pytest.mark.parametrize("transform", [None, "rel2fun"])
def test_a_state_and_its_payload_are_one_object(transform):
    from dynqf.transforms import relations_to_functions
    p = builtin_program("st-twopath-binary").program
    if transform:
        p = relations_to_functions(p)
    s = init_state(p, empty_input_db(p, 4, {"s": 0, "t": 1}))
    ctx = context_for_state(p, s)
    assert ctx.to_lean(s) is s.payload
    assert len(s.payload) == len(ctx.layout.rel_names) + len(ctx.layout.fun_names)
    assert bool(ctx.layout.fun_names) == bool(transform)
    lean = ctx.apply(ctx.apply(s.payload, ins("E", 0, 2)), ins("E", 2, 1))
    t = ctx.from_lean(lean)
    assert t.payload is lean and ctx.to_lean(t) is lean
    assert t == apply(p, apply(p, s, ins("E", 0, 2)), ins("E", 2, 1))
    assert t.functions.keys() >= set(ctx.layout.fun_names) and ctx.query(lean) == t.query_value("Q")


def _sources():
    """Every applier of the corpus and strawman programs, by name."""
    from dynqf.corpus import _STRAWMEN, corpus_names, strawman_program
    programs = [builtin_program(name).program for name in corpus_names()]
    programs += [strawman_program(name) for name in sorted(_STRAWMEN)]
    for p in programs:
        ctx = context_for_state(p, init_state(p, empty_input_db(p, 3)))
        for (kind, trigger), fn in ctx._appliers.items():
            yield p.name, kind, trigger, inspect.getsource(fn)


def _shipped_with_transforms():
    """The corpus and strawman programs, each followed by its rel2fun and
    dedup-vars transforms where they apply."""
    from dynqf.corpus import _STRAWMEN, corpus_names, strawman_program
    from dynqf.transforms import eliminate_repeated_variables, relations_to_functions
    programs = [builtin_program(name).program for name in corpus_names()]
    programs += [strawman_program(name) for name in sorted(_STRAWMEN)]
    for p in programs:
        yield p
        for transform in (relations_to_functions, eliminate_repeated_variables):
            try:
                yield transform(p)
            except TransformError:  # dedup-vars of a program with function symbols
                pass


# the first 12 hex digits of the sha256 of each of those programs' appliers'
# sources; a planner change that alters the generated code updates the
# digests of the appliers it changes and says why
APPLIER_SOURCES_SHA256 = {
    "non_empty_set ins U": "9d4c957a063e",
    "non_empty_set del U": "e8d23a09c9ae",
    "non_empty_set_rel2fun ins U": "b28563da6ec8",
    "non_empty_set_rel2fun del U": "6a1061a6178b",
    "non_empty_set_dedup ins U": "9d4c957a063e",
    "non_empty_set_dedup del U": "e8d23a09c9ae",
    "reach_1layer_qf ins E": "2c32fe8a6dd0",
    "reach_1layer_qf del E": "d4c036ef99e9",
    "reach_1layer_qf_rel2fun ins E": "5bc3c28518e7",
    "reach_1layer_qf_rel2fun del E": "49757c22a323",
    "s_twopath_ternary ins E": "82d217ab8214",
    # del E of s_twopath_ternary and st_twopath_binary: List1 (List) filters
    # !GONE(x) & !GONE(y) in its own scan, where a factored GONE set was
    # tested by membership in a second pass, and First1 and Last1 (First and
    # Last) subtract the GONE set from the old relation by frame minus
    "s_twopath_ternary del E": "05f10d4792a9",
    "s_twopath_ternary_rel2fun ins E": "9ba5ff2adae3",
    "s_twopath_ternary_rel2fun del E": "9e2d98e9c6d5",
    "s_twopath_ternary_dedup ins E": "82d217ab8214",
    "s_twopath_ternary_dedup del E": "05f10d4792a9",
    "st_twopath_binary ins E": "602930e81bc1",
    "st_twopath_binary del E": "909ab6dfdad1",
    "st_twopath_binary_rel2fun ins E": "763dca1087c0",
    "st_twopath_binary_rel2fun del E": "35a2a45b3be0",
    "st_twopath_binary_dedup ins E": "602930e81bc1",
    "st_twopath_binary_dedup del E": "909ab6dfdad1",
    "binary_reach2_naive ins E": "95a45497adde",
    "binary_reach2_naive del E": "3acbe79f2344",
    "binary_reach2_naive_rel2fun ins E": "2ae179870041",
    "binary_reach2_naive_rel2fun del E": "89d2038c4fac",
    "binary_reach2_naive_dedup ins E": "95a45497adde",
    "binary_reach2_naive_dedup del E": "3acbe79f2344",
    "cq_nonemptyset_naive ins U": "e0c176359925",
    "cq_nonemptyset_naive del U": "d70355739a25",
    "cq_nonemptyset_naive_rel2fun ins U": "35e7496cf396",
    "cq_nonemptyset_naive_rel2fun del U": "7218b2d064bb",
    "cq_nonemptyset_naive_dedup ins U": "e0c176359925",
    "cq_nonemptyset_naive_dedup del U": "d70355739a25",
    "unary_twopath_naive ins E": "c1e2baab10c8",
    "unary_twopath_naive del E": "780b5619b549",
    "unary_twopath_naive_rel2fun ins E": "7ca1a99116c8",
    "unary_twopath_naive_rel2fun del E": "3c11262f4c10",
    "unary_twopath_naive_dedup ins E": "c1e2baab10c8",
    "unary_twopath_naive_dedup del E": "780b5619b549",
}


def test_applier_sources_are_pinned():
    got = {}
    for p in _shipped_with_transforms():
        for trigger in sorted(p.schema.input_relations):
            for kind in (INS, DEL):
                source = _Planner(p, kind, trigger).source()
                got[f"{p.name} {kind} {trigger}"] = hashlib.sha256(source.encode()).hexdigest()[:12]
    pinned = APPLIER_SOURCES_SHA256
    assert sorted(k for k in got.keys() | pinned.keys() if got.get(k) != pinned.get(k)) == []
    assert len(got) == 40


class _Probing(_Planner):
    """A planner that builds and drops nodes before each relational rule:
    the negation of every node of the body, and each disjunct with its
    bindings substituted and its negated sets tried."""

    def _relation(self, target, tvars, body):
        todo, seen = [body], set()
        while todo:
            node = todo.pop()
            if node.id not in seen:
                seen.add(node.id)
                self._node(Not, None, (node,))
                todo.extend(node.kids)
        for d in self._dnf(body) or [[body]]:
            self._bind(d)
            for lit in d:
                self._negated_set(lit, tvars)
        super()._relation(target, tvars, body)


def _planned():
    """The shipped programs with their transforms, the shapes and 300
    random programs, each with the kind and trigger of each applier."""
    programs = [*_shipped_with_transforms(), *[program(shape) for shape in sorted(SHAPES)],
                *[random_program(random.Random(i), f"gen{i}") for i in range(300)]]
    for p in programs:
        for trigger in sorted(p.schema.input_relations):
            for kind in (INS, DEL):
                yield p, kind, trigger


def test_nodes_built_and_dropped_while_planning_change_no_source():
    for p, kind, trigger in _planned():
        assert _Probing(p, kind, trigger).source() == _Planner(p, kind, trigger).source(), \
            (p.name, kind, trigger)


def _repeated_blocks(src: str) -> list[str]:
    """The `if` lines directly followed, at their indent, by another `if`
    whose block is the same and adds to a set."""
    lines = src.splitlines()

    def block(i):  # the lines in the block that line i opens, dedented, and the index after it
        indent, j = len(lines[i]) - len(lines[i].lstrip()), i + 1
        while j < len(lines) and len(lines[j]) - len(lines[j].lstrip()) > indent:
            j += 1
        return [line[indent:] for line in lines[i + 1:j]], j

    out = []
    for i, line in enumerate(lines):
        body, j = block(i)
        indent = line[:len(line) - len(line.lstrip())]
        if (line.startswith(indent + "if ") and j < len(lines) and lines[j].startswith(indent + "if ")
                and block(j)[0] == body and ".add(" in body[-1]):
            out.append(line)
    return out


def test_generated_sources_read_every_local_add_each_block_once_and_test_no_constant():
    for p, kind, trigger in _planned():
        src = _Planner(p, kind, trigger).source()
        unread = [h for h in re.findall(r"^    (_h\d+) = ", src, re.M) if len(re.findall(r"\b%s\b" % h, src)) == 1]
        constant = re.findall(r"^ *if .*\b(?:True|False)\b.*$", src, re.M)
        assert (unread, _repeated_blocks(src), constant) == ([], [], []), (p.name, kind, trigger)


def test_no_generated_applier_assigns_a_local_to_itself():
    # seeds 1726 (del U) and 1905 (ins U) dropped every disjunct of a
    # factored negated set, which once left the line `_N_A = _N_A`
    extra = [(random_program(random.Random(i), f"gen{i}"), kind, "U") for i, kind in ((1726, DEL), (1905, INS))]
    for p, kind, trigger in [*_planned(), *extra]:
        src = _Planner(p, kind, trigger).source()
        assert not re.findall(r"^ *(\w+) = \1$", src, re.M), (p.name, kind, trigger)


def test_a_one_tuple_test_on_the_old_relation_reads_the_hoisted_atom():
    insertion = source(builtin_program("s-twopath-ternary").program, "ins", "E")
    a = _local(insertion, "(m0,)")
    out = _local(insertion, a + " in _R_Out")
    assert "_N_Out = _R_Out | {%s} if not %s else _R_Out\n" % (a, out) in insertion
    deletion = source(builtin_program("non-empty-set").program, "del", "U")
    assert "_N_First = _R_First - {_m} if %s else _R_First\n" % _local(deletion, "_m in _R_First") in deletion
    # a test on the new relation keeps its probe
    both = source(program("bind-constant"), "ins", "U")
    a, s = _local(both, "_m in _R_A"), _local(both, "(_C_s,)")
    assert "_N_A = _R_A - {_m} if %s else _R_A\n" % a in both
    assert "_N_A = _N_A | {%s} if %s and %s not in _N_A else _N_A\n" % (s, a, s) in both


def test_trigger_tuples_are_built_once_and_scanned_tuples_reused():
    insertion = source(builtin_program("s-twopath-ternary").program, "ins", "E")
    assert insertion.count("(m0,)") == 1 and insertion.count("(m0, m1)") == 1  # its unpacking
    assert "_s.add(_m)" in insertion and _local(insertion, "(m0,)") + " in _R_In" in insertion
    # `not` of a hoisted local is written at its uses, not hoisted again
    assert not re.search(r"= not _h\d+\n", insertion)
    assert "    for _t in _R_Last2:\n        if _t[0] != m0:\n            _s.add(_t)\n" in insertion
    # a trigger-only filter inside a scan is a local, computed before it
    scan = source(program("contradictory-disjunct"), "ins", "E")
    local = _local(scan, _local(scan, "(m1,)") + " in _R_A")
    assert "for (t0,) in _R_A:\n        if not ((t0,) in _R_A and %s):" % local in scan


def test_contexts_and_code_live_on_their_program():
    import gc
    import weakref
    from dynqf.records import Record
    from pathlib import Path
    import dynqf
    text = (Path(dynqf.__file__).parent / "corpus_data" / "st_twopath_binary.dynp").read_text()
    p, q = parse_program(text, "a"), parse_program(text, "b")
    assert p == q and p._compiled is not q._compiled and "_compiled" not in p._fields
    s = init_state(q, empty_input_db(q, 4))
    ctx = context_for_state(p, s)
    calls = []
    eq = Record.__eq__
    Record.__eq__ = lambda a, b: calls.append(1) or eq(a, b)
    try:
        assert context_for_state(q, s) is not ctx and context_for_state(p, s) is ctx
    finally:
        Record.__eq__ = eq
    assert calls == [] and repr(p) == repr(q)
    dead = weakref.ref(p)
    del p, ctx
    gc.collect()
    assert dead() is None


def test_a_dropped_program_is_freed_without_the_cyclic_collector():
    import gc
    import weakref
    p = program("frame-or")
    s = init_state(p, empty_input_db(p, 3))
    ctx = context_for_state(p, s)
    ctx.apply(ctx.to_lean(s), ins("U", 1))
    dead = weakref.ref(p)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del p, ctx
        assert dead() is None
    finally:
        if enabled:
            gc.enable()


def test_no_applier_compares_a_value_with_itself():
    for name, kind, trigger, src in _sources():
        assert not re.search(r"\b(m\d+|t\d+) == \1\b", src), (name, kind, trigger)


def test_contradictory_disjuncts_are_dropped():
    ternary = source(builtin_program("s-twopath-ternary").program, "ins", "E")
    assert _scans(ternary, "_R_In") == 0
    src = source(program("contradictory-disjunct"), "ins", "E")
    assert _scans(src, "_R_A") == 1  # A(x) & !(A(x) & A(y)) & y = b alone


def test_a_guarded_frame_copies_nothing():
    src = source(program("guarded-frame"), "ins", "E")
    assert _scans(src, "_R_A") == 0
    assert "_N_A = _R_A if " in src and " else _E_" in src
    # the deletion applier of st-twopath-binary keeps First, Last, In and Out
    # without a loop over them, and List is filtered by !GONE(x) & !GONE(y)
    # in its own scan
    deletion = source(builtin_program("st-twopath-binary").program, "del", "E")
    for name in ("First", "Last", "In", "Out"):
        assert _scans(deletion, "_R_" + name) == 0, name
    assert _scans(deletion, "_N_List") == 0
    assert "    for _t in _R_List:\n        if not ((_t[0],) in _R_In and " in deletion


def test_common_negations_filter_in_the_loops():
    # !G beside the frame B(x,y), each disjunct of G binding x and y, is
    # subtracted from the old B as a set; beside the Δ it filters the loop
    binds = source(program("common-negation-binds"), "del", "E")
    assert "_N_B = _R_B - _g0 if _g0 and not _R_B.isdisjoint(_g0) else _R_B\n" in binds
    assert _scans(binds, "_R_B") == 0 and "for (t0,) in _R_A:\n        if not (t0 == m0 or " in binds
    # !(x = a & A(x)) and !(y = f(a)) bind only some of x, y: both filter
    # each loop as soon as their variable is bound
    partial = source(program("common-negation-partial"), "del", "U")
    assert "for _t in _R_B:\n        if not (_t[0] == m0 and (_t[0],) in _R_A) and _t[1] != _h0:" in partial
    assert "if not (t0 == m0 and (t0,) in _R_A):\n            for (t1, _k0) in _R_B:" in partial
    # a G with a disjunct that binds nothing filters in the loops
    unbound = source(program("common-negation-unbound"), "del", "E")
    assert "_N_A - _g" not in unbound and _scans(unbound, "_N_A") == 0 and "_dom" not in unbound
    assert "for _t in _R_A:\n        if not (_t[0] == m1 or _t in _R_A and (_t[0], m0) in _R_B):" in unbound
    # a filter that is not a negated set stays in the loops
    lone = source(program("frame-and-not"), "del", "E")
    assert "for _t in _R_B:" in lone
    # no applier filters its new relation in a second pass
    assert [(p.name, kind, trigger) for p, kind, trigger in _planned()
            if "_f = set()" in _Planner(p, kind, trigger).source()] == []


def _local(src: str, code: str) -> str:
    """The local that src assigns code to."""
    (name,) = re.findall(r"^    (_h\d+) = %s$" % re.escape(code), src, re.M)
    return name


def _scans(src: str, rel: str) -> int:
    """The number of loops over the relation rel, whatever their targets."""
    return len(re.findall(r"\bfor (?:_t|\w+|\([^)]*\)) in %s:" % re.escape(rel), src))


def _enclosing_conditions(src: str, needle: str) -> list[str]:
    """The conditions of the `if` lines around the one line holding needle,
    innermost first, with the hoisted locals _h<i> written out."""
    lines = src.splitlines()
    (i,) = [i for i, line in enumerate(lines) if needle in line]
    hoisted = dict(re.findall(r"^    (_h\d+) = (.*)$", src, re.M))
    indent, conds = len(lines[i]) - len(lines[i].lstrip()), []
    for line in reversed(lines[:i]):
        depth = len(line) - len(line.lstrip())
        if depth < indent:
            indent = depth
            if line.lstrip().startswith("if "):
                conds.append(line.strip()[3:-1])
    for _ in range(len(hoisted)):
        conds = [re.sub(r"\b_h\d+\b", lambda m: hoisted[m.group()], c) for c in conds]
    return conds


def test_a_frame_minus_a_bound_set_scans_nothing():
    src = source(program("frame-minus-set"), "del", "E")
    assert _scans(src, "_R_A") == 0
    assert re.search(r"_N_A = _R_A - (_g\d+) if \1 and not _R_A\.isdisjoint\(\1\) else _R_A\n", src)
    assert "_N_A = _N_A if _s <= _N_A else _N_A | _s" in src
    one = source(program("frame-minus-tuple"), "del", "E")
    a = _local(one, _local(one, "(m0,)") + " in _R_A")
    assert "_N_B = _R_B - {_m} if %s and _m in _R_B else _R_B\n" % a in one
    assert _scans(one, "_R_B") == 1  # the Δ's, not a frame copy
    # the deletion applier of s-twopath-ternary keeps First1, Last1, First2 and
    # Last2 without a loop over them, and GONE(x) is one set for First1 and
    # Last1, while List1 filters it in its own scan
    deletion = source(builtin_program("s-twopath-ternary").program, "del", "E")
    for name in ("First1", "Last1", "First2", "Last2"):
        assert _scans(deletion, "_R_" + name) == 0, name
    gone = re.search(r"_N_First1 = _R_First1 - (_g\d+) if", deletion).group(1)
    assert deletion.count(gone + " = set()") == 1
    assert "_N_Last1 = _R_Last1 - %s if" % gone in deletion
    assert "_N_List1 = _R_List1 if _s == _R_List1 else frozenset(_s)\n" in deletion
    assert "    for _t in _R_List1:\n        if not ((_t[0],) in _R_In and " in deletion


def test_a_lone_frame_minus_one_tuple_assigns_the_relation_once():
    # In(x) & !(x = b & a = s) is one disjunct: In less one tuple is one
    # line, with no bare frame assignment before it
    deletion = source(builtin_program("st-twopath-binary").program, "del", "E")
    for name, m in (("In", "m1"), ("Out", "m0")):
        u = _local(deletion, "(%s,)" % m)
        assert re.search(r"\n    _N_%s = _R_%s - \{%s\} if _h\d+ and %s in _R_%s else _R_%s\n"
                         % (name, name, u, u, name, name), deletion), name
        assert "_N_%s = _R_%s\n" % (name, name) not in deletion


def test_a_filter_with_a_trigger_only_side_scans_only_without_it():
    src = source(program("filter-trigger-side"), "ins", "E")
    assert _enclosing_conditions(src, "for _t in _R_B:") == ["not (m0,) in _R_A"]
    negated = source(program("filter-negated-trigger-side"), "del", "U")
    assert _enclosing_conditions(negated, "for _t in _R_B:") == ["_m in _R_A"]
    # on insertion, s-twopath-ternary scans First2 only while a has no
    # outgoing edge
    insertion = source(builtin_program("s-twopath-ternary").program, "ins", "E")
    assert _enclosing_conditions(insertion, "in _R_First2:") == ["not (m0,) in _R_Out"]


def test_delta_blocks_wake_on_substituted_literals_and_one_tuple_needs_no_set():
    src = source(program("wake-substituted"), "ins", "U")
    assert "    if _m in _R_A:\n        _s = set()\n        for (t1, _k0) in _R_B:" in src
    one = source(program("delta-one-tuple"), "ins", "E")
    assert "_s = set()" not in one
    t = _local(one, "(m0, %s)" % _local(one, "_F_f[m1]"))
    assert "_N_B = _R_B | {%s} if %s in _R_A and %s not in _R_B else _R_B\n" % (t, _local(one, "(m0,)"), t) in one


# -- random programs, for the differential and planner tests --------------------

RANDOM_SCHEMA = make_schema(input_relations={"E": 2, "U": 1},
                            aux_relations={"Q": 0, "A": 1, "B": 2},
                            aux_functions={"g": 1, "c": 0},
                            builtin_functions={"h": 1},
                            constants=("s",))


def _rand_term(rng, vars, depth):
    choices = ["var", "const"]
    if depth > 0:
        choices += ["g", "h", "c", "ite"]
    kind = rng.choice(choices)
    if kind == "var":
        return Var(rng.choice(vars))
    if kind == "const":
        return Const("s")
    if kind in ("g", "h"):
        return App(kind, (_rand_term(rng, vars, depth - 1),))
    if kind == "c":
        return App("c", ())
    return Ite(_rand_formula(rng, vars, depth - 1),
               _rand_term(rng, vars, depth - 1), _rand_term(rng, vars, depth - 1))


def _rand_formula(rng, vars, depth):
    atoms = [
        lambda: RelAtom("E", (_rand_term(rng, vars, depth), _rand_term(rng, vars, depth))),
        lambda: RelAtom("U", (_rand_term(rng, vars, depth),)),
        lambda: RelAtom("A", (_rand_term(rng, vars, depth),)),
        lambda: RelAtom("B", (_rand_term(rng, vars, depth), _rand_term(rng, vars, depth))),
        lambda: RelAtom("Q", ()),
        lambda: Eq(_rand_term(rng, vars, depth), _rand_term(rng, vars, depth)),
        lambda: TRUE,
        lambda: FALSE,
    ]
    if depth <= 0:
        return rng.choice(atoms)()
    kind = rng.choice(["atom", "not", "and", "or"])
    if kind == "atom":
        return rng.choice(atoms)()
    if kind == "not":
        return Not(_rand_formula(rng, vars, depth - 1))
    left, right = _rand_formula(rng, vars, depth - 1), _rand_formula(rng, vars, depth - 1)
    return And(left, right) if kind == "and" else Or(left, right)


def _seeded(rng, target, params, tparams, body):
    """Body reshaped into one of the forms the planner rewrites: t = t,
    l & !l, R(y) & g with g over the trigger alone, R(y) & !G with
    G binding some or all target variables to the trigger, and
    R(y) & (L | g)."""
    vars = list(params + tparams)
    own = RelAtom(target, tuple(Var(v) for v in tparams))
    form = rng.choice(["plain", "reflexive", "contradiction", "guarded-frame", "negation", "negations",
                       "frame-minus", "trigger-side-filter"])
    if form == "reflexive":
        t = _rand_term(rng, vars, 1)
        return And(Or(body, Eq(t, t)), Eq(t, t)) if rng.random() < 0.5 else Or(body, Not(Eq(t, t)))
    if form == "contradiction":
        lit = _rand_formula(rng, vars, 1)
        return Or(body, And(And(lit, _rand_formula(rng, vars, 0)), Not(lit)))
    if form == "guarded-frame":
        return Or(And(own, _rand_formula(rng, list(params), 1)), body)
    if form == "negation":
        gamma = And(Eq(Var(rng.choice(tparams)), Var(rng.choice(params))), _rand_formula(rng, vars, 1))
        for y in tparams:
            if rng.random() < 0.5:
                gamma = And(gamma, Eq(_rand_term(rng, list(params), 1), Var(y)))
        return And(Not(gamma), Or(own, body) if rng.random() < 0.7 else body)
    if form == "negations":  # one condition on each target variable
        u, lit = Var(rng.choice(params)), _rand_formula(rng, list(params), 0)
        for y in tparams:
            body = And(Not(And(Or(Eq(Var(y), u), Eq(Var(y), App("g", (u,)))),
                               And(RelAtom("A", (Var(y),)), lit))), body)
        return Or(own, body) if rng.random() < 0.5 else body
    if form == "frame-minus":  # R(y) & !G, where G binds every target variable
        gamma = _rand_formula(rng, vars, 0)
        for y in tparams:
            gamma = And(Eq(Var(y), _rand_term(rng, list(params), 1)), gamma)
        if rng.random() < 0.3:  # two disjuncts, so G is a set and not one tuple
            gamma = Or(gamma, gamma)
        return Or(And(own, Not(gamma)), body)
    if form == "trigger-side-filter":  # R(y) & (L | g) with g over the trigger alone
        g = _rand_formula(rng, list(params), 1)
        return Or(And(own, Or(_rand_formula(rng, vars, 1), g) if rng.random() < 0.5
                      else Or(g, _rand_formula(rng, vars, 1))), body)
    return body


def random_program(rng, name):
    """A program over RANDOM_SCHEMA with random rule bodies, some of them
    reshaped into the forms the planner rewrites."""
    rules = {}
    for trigger, t_ar in (("E", 2), ("U", 1)):
        params = tuple(f"u{i}" for i in range(t_ar))
        for kind in ("ins", "del"):
            for target in ("Q", "A", "B", "g", "c"):
                ar = RANDOM_SCHEMA.arity(target)
                tparams = tuple(f"y{i}" for i in range(ar))
                vars = list(params + tparams)
                if target in RANDOM_SCHEMA.functions:
                    body = _rand_term(rng, vars, 2)
                else:
                    body = _rand_formula(rng, vars, 2)
                    if tparams:
                        body = _seeded(rng, target, params, tparams, body)
                rules[(target, kind, trigger)] = UpdateRule(target, kind, trigger, params, tparams, body)
    p = DynamicProgram(name, RANDOM_SCHEMA, rules, "Q", InitSpec("empty"))
    validate_program(p)
    return p
