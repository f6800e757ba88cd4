"""The package's records keep the semantics they had as dataclasses: reprs,
equality by class and fields, hashes, frozenness, ordering, defaults and
validation.  Runs under pytest, or as a plain script where pytest is
missing: `PYTHONPATH=src python tests/test_records.py`."""
import contextlib
import copy
import inspect
import pickle
import re

from dynqf.atoms import AtomicType
from dynqf.corpus import ClassTags, CorpusEntry
from dynqf.errors import DynqfError, EvalError, SchemaError
from dynqf.formulas import (And, App, Const, Eq, EqualityType, FalseConst, Ite, Not, Or,
                            RelAtom, SyntaxFlags, TrueConst, Var)
from dynqf.parser import Script, Token
from dynqf.program import DynamicProgram, InitSpec, UpdateRule
from dynqf.queries import LayeredSpec, gen_layered
from dynqf.schema import Role, Schema, make_schema
from dynqf.state import DEL, INS, Modification, make_state
from dynqf.lower_bounds import PropertyReport
from dynqf.verify import CheckConfig, Counterexample, Verdict

SCHEMA = make_schema({"E": 2}, {"Q": 0}, {"f": 1}, constants=("s",))
TRUE = TrueConst()
MUTABLE = ("Token", "Script", "CheckConfig", "Counterexample", "Verdict", "PropertyReport")
OWN_HASH = ("State", "Schema", "DynamicProgram")


def instances() -> dict:
    """One instance of each record class, by class name."""
    x, s = Var("x"), Const("s")
    atom = RelAtom("E", (x, s))
    state = make_state(SCHEMA, 2, {"E": {(0, 1)}}, constants={"s": 0})
    rule = UpdateRule("Q", INS, "E", ("u", "v"), (), Or(atom, Not(Eq(x, s))))
    program = DynamicProgram("p", SCHEMA, {rule.key: rule}, "Q", InitSpec("empty"))
    cex = Counterexample("p", state, (Modification("E", (0, 1), INS),), 1, True, False)
    return {
        "Var": x,
        "Const": s,
        "App": App("f", (x,)),
        "Ite": Ite(Eq(x, s), x, App("f", (s,))),
        "TrueConst": TrueConst(),
        "FalseConst": FalseConst(),
        "RelAtom": atom,
        "Eq": Eq(x, s),
        "Not": Not(atom),
        "And": And(atom, TrueConst()),
        "Or": Or(atom, FalseConst()),
        "SyntaxFlags": SyntaxFlags(True, False, True),
        "EqualityType": EqualityType.from_key("aba"),
        "State": state,
        "Modification": Modification("E", (1, 0), DEL),
        "Schema": SCHEMA,
        "LayeredSpec": LayeredSpec((2, 1)),
        "Layered": gen_layered(LayeredSpec((1,), with_st=False)),
        "Token": Token("ident", "E", 3, 7),
        "Script": Script(3, {"E": {(0, 1)}}, {"s": 0}, [Modification("E", (0, 1), INS)]),
        "CheckConfig": CheckConfig(3, 2),
        "Counterexample": cex,
        "Verdict": Verdict("counterexample", {"domain_size": 2}, 3, 2, cex, notes=["a note"]),
        "PropertyReport": PropertyReport("ok", 10, 1, 7),
        "AtomicType": AtomicType(2, frozenset({("E", (("v", 0), ("v", 1)))}), frozenset()),
        "UpdateRule": rule,
        "InitSpec": InitSpec("table", "st_base", ((("E", ((0, 1),)),), ())),
        "DynamicProgram": program,
        "ClassTags": ClassTags(("DynProp",), 1, True, False),
        "CorpusEntry": CorpusEntry("p", program, len, "len", ClassTags(("DynQF",), 0, False, True), "any"),
    }


# captured from the dataclass versions of these classes; a layout prints
# its address, which is dropped
_SCHEMA = ("Schema(relations={'E': 2, 'Q': 0}, functions={'f': 1}, constants=frozenset({'s'}), "
           "roles={'E': <Role.INPUT: 'input'>, 'Q': <Role.AUX: 'aux'>, 'f': <Role.AUX: 'aux'>})")
_BODY = ("Or(left=RelAtom(symbol='E', args=(Var(name='x'), Const(name='s'))), "
         "right=Not(sub=Eq(left=Var(name='x'), right=Const(name='s'))))")
_RULE = f"UpdateRule(target='Q', kind='ins', trigger='E', params=('u', 'v'), target_params=(), body={_BODY})"
_PROGRAM = (f"DynamicProgram(name='p', schema={_SCHEMA}, rules={{('Q', 'ins', 'E'): {_RULE}}}, "
            "query_symbol='Q', init=InitSpec(kind='empty', base=None, table=None))")
_STATE = "State(layout=<dynqf.state.Layout object>, rels=(frozenset({(0, 1)}), frozenset()), funs=((0, 1),))"
_CEX = (f"Counterexample(program_name='p', initial={_STATE}, "
        "sequence=(Modification(relation='E', tuple=(0, 1), kind='ins'),), step=1, expected=True, "
        "produced=False, seed=None, trace_digest='')")
GOLDEN = {
    "Var": "Var(name='x')",
    "Const": "Const(name='s')",
    "App": "App(symbol='f', args=(Var(name='x'),))",
    "Ite": ("Ite(cond=Eq(left=Var(name='x'), right=Const(name='s')), then=Var(name='x'), "
            "other=App(symbol='f', args=(Const(name='s'),)))"),
    "TrueConst": "TrueConst()",
    "FalseConst": "FalseConst()",
    "RelAtom": "RelAtom(symbol='E', args=(Var(name='x'), Const(name='s')))",
    "Eq": "Eq(left=Var(name='x'), right=Const(name='s'))",
    "Not": "Not(sub=RelAtom(symbol='E', args=(Var(name='x'), Const(name='s'))))",
    "And": "And(left=RelAtom(symbol='E', args=(Var(name='x'), Const(name='s'))), right=TrueConst())",
    "Or": "Or(left=RelAtom(symbol='E', args=(Var(name='x'), Const(name='s'))), right=FalseConst())",
    "SyntaxFlags": "SyntaxFlags(negation_free=True, conjunctive=False, repeated_vars_in_atom=True)",
    "EqualityType": "EqualityType(size=3, blocks=((0, 2), (1,)))",
    "State": _STATE,
    "Modification": "Modification(relation='E', tuple=(1, 0), kind='del')",
    "Schema": _SCHEMA,
    "LayeredSpec": "LayeredSpec(sizes=(2, 1), with_st=True)",
    "Layered": ("Layered(state=State(layout=<dynqf.state.Layout object>, rels=(frozenset(),), funs=()), "
                "layers=((0,),))"),
    "Token": "Token(kind='ident', value='E', line=3, col=7)",
    "Script": ("Script(domain=3, relations={'E': {(0, 1)}}, constants={'s': 0}, "
               "modifications=[Modification(relation='E', tuple=(0, 1), kind='ins')])"),
    "CheckConfig": ("CheckConfig(domain_size=3, max_len=2, mode='exhaustive', samples=1000, seed=0, "
                    "honest_only=True, guard=None, constants=None, state_cap=2000000)"),
    "Counterexample": _CEX,
    "Verdict": (f"Verdict(status='counterexample', bounds={{'domain_size': 2}}, checked_states=3, "
                f"checked_steps=2, counterexample={_CEX}, seed=None, notes=['a note'])"),
    "PropertyReport": "PropertyReport(status='ok', samples=10, skipped=1, seed=7, witness=None)",
    "AtomicType": "AtomicType(arity=2, rel_atoms=frozenset({('E', (('v', 0), ('v', 1)))}), eq_atoms=frozenset())",
    "UpdateRule": _RULE,
    "InitSpec": "InitSpec(kind='table', base='st_base', table=((('E', ((0, 1),)),), ()))",
    "DynamicProgram": _PROGRAM,
    "ClassTags": "ClassTags(classes=('DynProp',), arity=1, negation_free=True, conjunctive=False)",
    "CorpusEntry": (f"CorpusEntry(name='p', program={_PROGRAM}, oracle=<built-in function len>, "
                    "oracle_name='len', class_tags=ClassTags(classes=('DynQF',), arity=0, "
                    "negation_free=False, conjunctive=True), guard_name='any', state_invariant=None)"),
}


@contextlib.contextmanager
def raises(exc, match=""):
    try:
        yield
    except exc as e:
        assert match in str(e), f"{e!r} does not say {match!r}"
    else:
        raise AssertionError(f"{exc.__name__} not raised")


def _fields(record) -> list[str]:
    return list(inspect.signature(type(record)).parameters)


def test_every_record_class_has_a_case():
    assert sorted(instances()) == sorted(GOLDEN)
    assert len(GOLDEN) == 30
    for name, record in instances().items():
        assert type(record).__name__ == name


def test_reprs_are_pinned():
    for name, record in instances().items():
        assert re.sub(r" at 0x[0-9a-f]+", "", repr(record)) == GOLDEN[name], name


def test_equal_fields_equal_records_of_one_class_only():
    atom, other = RelAtom("E", (Var("x"), Var("y"))), RelAtom("E", (Var("x"), Var("y")))
    assert atom == other and atom is not other
    assert And(atom, TRUE) != Or(atom, TRUE)
    assert And(atom, TRUE) == And(other, TrueConst())
    assert Var("x") != Const("x") and TrueConst() != FalseConst()
    assert Not(atom) != atom and atom != ("E", (Var("x"), Var("y")))
    for name, record in instances().items():
        assert record == copy.copy(record), name


def test_frozen_records_hash_as_their_field_tuple():
    for name, record in instances().items():
        if name not in MUTABLE + OWN_HASH:
            assert hash(record) == hash(tuple(getattr(record, f) for f in _fields(record))), name
    # And and Or with the same children hash alike but stay apart in a set
    atom = RelAtom("E", (Var("x"), Var("y")))
    assert len({And(atom, atom), Or(atom, atom), And(atom, atom)}) == 2


def test_frozen_records_refuse_assignment():
    for name, record in instances().items():
        if name not in MUTABLE + ("State",):
            for field in _fields(record)[:1]:
                with raises(AttributeError, f"cannot assign to field {field!r}"):
                    setattr(record, field, None)
                with raises(AttributeError):
                    delattr(record, field)
            with raises(AttributeError):
                record.extra = 1


def test_mutable_records_are_unhashable_and_assignable():
    for name in MUTABLE:
        record = instances()[name]
        with raises(TypeError, "unhashable"):
            hash(record)
        field = _fields(record)[-1]
        setattr(record, field, None)
        assert getattr(record, field) is None


def test_records_survive_pickling():
    for name, record in instances().items():
        # states compare their layouts by identity, and an unpickled layout is a new object
        if name not in ("State", "Layered", "Counterexample", "Verdict"):
            assert pickle.loads(pickle.dumps(record)) == record, name


def test_own_hash_rules():
    flipped = Schema({"Q": 0, "E": 2}, {"f": 1}, frozenset({"s"}), {"f": Role.AUX, "Q": Role.AUX, "E": Role.INPUT})
    assert flipped == SCHEMA and hash(flipped) == hash(SCHEMA)
    p = instances()["DynamicProgram"]
    assert hash(p) == hash((p.name, p.schema, p.query_symbol))
    s = instances()["State"]
    assert hash(s) == hash((s.layout, s.rels, s.funs))
    assert s == make_state(SCHEMA, 2, {"E": [(0, 1)]}, constants={"s": 0})


def test_modification_order_and_kind_check():
    mods = [Modification("U", (0,), INS), Modification("E", (1, 0), DEL), Modification("E", (0, 1), INS),
            Modification("E", (0, 1), DEL)]
    assert [str(m) for m in sorted(mods)] == ["del E(0,1)", "ins E(0,1)", "del E(1,0)", "ins U(0)"]
    assert mods[2] > mods[3] and mods[3] <= mods[2] and mods[0] >= mods[1] and not mods[0] < mods[1]
    assert hash(mods[0]) == hash(("U", (0,), INS)) and {mods[0]: 1}[Modification("U", (0,), INS)] == 1
    with raises(TypeError):
        mods[0] < ("U", (0,), INS)
    with raises(DynqfError, "bad modification kind 'insert'"):
        Modification("E", (0, 1), "insert")


def test_validation_errors():
    with raises(SchemaError, "symbol names must be unique"):
        Schema({"E": 2}, {"E": 1}, frozenset(), {"E": Role.INPUT})
    with raises(SchemaError, "symbol 'E' has no role"):
        Schema({"E": 2}, {}, frozenset(), {})
    with raises(SchemaError, "input symbol 'f' must be a relation"):
        Schema({}, {"f": 1}, frozenset(), {"f": Role.INPUT})
    with raises(SchemaError, "role given for unknown symbol 'F'"):
        Schema({"E": 2}, {}, frozenset(), {"E": Role.INPUT, "F": Role.AUX})
    with raises(SchemaError, "negative arity for 'E'"):
        Schema({"E": -1}, {}, frozenset(), {"E": Role.INPUT})
    with raises(EvalError, "blocks do not partition the positions"):
        EqualityType(3, ((0,), (1,)))
    with raises(DynqfError, "layer sizes must be positive"):
        LayeredSpec((2, 0))


def test_keywords_and_defaults():
    assert CheckConfig(max_len=2, domain_size=3) == instances()["CheckConfig"]
    assert Verdict("ok", {}).notes == [] and Verdict("ok", {}).notes is not Verdict("ok", {}).notes
    a, b = Script(2), Script(domain=2)
    assert a == b and a.relations == {} and a.constants == {} and a.modifications == []
    a.relations["E"] = {(0, 1)}
    a.modifications.append(Modification("E", (0, 1), INS))
    assert b.relations == {} and b.modifications == [] and Script(2).relations == {}
    assert InitSpec(kind="empty") == InitSpec("empty", None, None)
    assert LayeredSpec(sizes=(1,)).with_st is True
    assert Counterexample("p", None, (), 0, True, False).trace_digest == ""
    assert PropertyReport(status="ok", samples=1, skipped=0, seed=0).witness is None


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("test_records: all passed")
