"""Dynamic programs: update rules, one-step and many-step semantics,
initialization models, and initialization-invariance checking."""
from __future__ import annotations

import itertools
import random
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .compiler import context_for_state
from .errors import DomainError, ProgramError, RejectedSequenceError, SchemaError
from .formulas import (App, Formula, RelAtom, Term, Var, eval_formula, eval_term,
                       nesting_depth, symbols_used, vars_and_symbols)
from .records import Frozen, setfield
from .schema import Role, Schema
from .state import (DEL, INS, Modification, State, check_modification,
                    is_honest, make_state, transport)


class UpdateRule(Frozen):
    """One update rule: how `target` is recomputed after `kind` (INS or DEL)
    on `trigger`.

    `params` name the modified tuple, `target_params` the updated tuple; the
    body is a Formula for relation targets and a Term for function targets,
    quantifier-free either way, reading only the pre-modification state.
    """

    __slots__ = ("target", "kind", "trigger", "params", "target_params", "body")

    def __init__(self, target: str, kind: str, trigger: str, params: tuple[str, ...],
                 target_params: tuple[str, ...], body: Formula | Term):
        self._set_fields(target, kind, trigger, params, target_params, body)

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.target, self.kind, self.trigger)


class InitSpec(Frozen):
    """Initialization model.  `base` names the base builder (see
    `base_builder`) that seeds the symbols that are not input.

    kind 'empty'  : the input database plus the base; aux relations the base
                    leaves out are empty, aux functions projection-on-first-arg;
    kind 'oracle' : replay all input tuples, in sorted order, through the
                    program's own insertion rules starting from the base state
                    over the empty input;
    kind 'table'  : 'empty' with explicit interpretations on top, input
                    relations included, `table` in the canonical encoding of
                    `encode_table`.
    """

    __slots__ = ("kind", "base", "table")

    def __init__(self, kind: str, base: str | None = None, table: tuple | None = None):
        self._set_fields(kind, base, table)


def encode_table(relations: Mapping[str, Iterable[tuple]] | None = None,
                 functions: Mapping[str, Mapping[tuple, int]] | None = None) -> tuple:
    rel_part = tuple(sorted((n, tuple(sorted(map(tuple, ts)))) for n, ts in (relations or {}).items()))
    fun_part = tuple(sorted((n, tuple(sorted(t.items()))) for n, t in (functions or {}).items()))
    return (rel_part, fun_part)


def decode_table(table: tuple) -> tuple[dict, dict]:
    rel_part, fun_part = table
    return ({n: frozenset(ts) for n, ts in rel_part},
            {n: dict(entries) for n, entries in fun_part})


class DynamicProgram(Frozen):
    __slots__ = ("name", "schema", "rules", "query_symbol", "init", "_compiled", "__weakref__")

    def __init__(self, name: str, schema: Schema, rules: dict[tuple[str, str, str], UpdateRule],
                 query_symbol: str, init: InitSpec):
        self._set_fields(name, schema, rules, query_symbol, init)
        # not a field: the compiler's code objects by (kind, trigger) and contexts by
        # layout; a Layout equals only itself, never a tuple.  No context refers back
        # to its program, so reference counting frees a dropped program
        setfield(self, "_compiled", {})

    def __hash__(self):  # programs are compared structurally but hashed loosely
        return hash((self.name, self.schema, self.query_symbol))

    def rule(self, target: str, kind: str, trigger: str) -> UpdateRule:
        try:
            return self.rules[(target, kind, trigger)]
        except KeyError:
            raise ProgramError(f"no rule for {target!r} under {kind} {trigger!r}") from None

    def nesting_depth(self) -> int:
        return max((nesting_depth(r.body) for r in self.rules.values()), default=0)

    def uses_functions(self) -> bool:
        """Does the program declare an aux function or use a function symbol?"""
        sch = self.schema
        return (any(sch.role(f) is Role.AUX for f in sch.functions)
                or any(sym in sch.functions for r in self.rules.values() for sym in symbols_used(r.body)))


def frame_rule(schema: Schema, target: str, kind: str, trigger: str) -> UpdateRule:
    """Keep-old-value rule, used when a program declares `default frame`."""
    params = tuple(f"u{i+1}" for i in range(schema.arity(trigger)))
    tparams = tuple(f"y{i+1}" for i in range(schema.arity(target)))
    if target in schema.relations:
        body: Formula | Term = RelAtom(target, tuple(Var(v) for v in tparams))
    else:
        body = App(target, tuple(Var(v) for v in tparams))
    return UpdateRule(target, kind, trigger, params, tparams, body)


def validate_program(p: DynamicProgram) -> None:
    sch = p.schema
    if p.query_symbol not in sch.relations or sch.role(p.query_symbol) is not Role.AUX:
        raise ProgramError(f"query symbol {p.query_symbol!r} must be an aux relation")
    if sch.arity(p.query_symbol):
        raise ProgramError(f"query symbol {p.query_symbol!r} must be 0-ary, "
                           f"not of arity {sch.arity(p.query_symbol)}")
    if not sch.input_relations:
        raise ProgramError("program has no input relations")
    expected = {
        (target, kind, trigger)
        for target in sch.aux_symbols
        for kind in (INS, DEL)
        for trigger in sch.input_relations
    }
    if set(p.rules) != expected:
        missing = expected - set(p.rules)
        extra = set(p.rules) - expected
        raise ProgramError(f"rule coverage mismatch; missing={sorted(missing)} extra={sorted(extra)}")
    for key, r in p.rules.items():
        if key != r.key:
            raise ProgramError(f"rule stored under wrong key {key}")
        if len(r.params) != sch.arity(r.trigger):
            raise ProgramError(f"{r.target}: trigger params do not match arity of {r.trigger!r}")
        if len(r.target_params) != sch.arity(r.target):
            raise ProgramError(f"{r.target}: target params do not match its arity")
        names = r.params + r.target_params
        if len(set(names)) != len(names):
            raise ProgramError(f"{r.target}: trigger/target variables must be distinct")
        is_rel_target = r.target in sch.relations
        if is_rel_target and not isinstance(r.body, Formula):
            raise ProgramError(f"{r.target}: relation target needs a formula body")
        if not is_rel_target and not isinstance(r.body, Term):
            raise ProgramError(f"{r.target}: function target needs a term body")
        used, symbols = vars_and_symbols(r.body)
        loose = used - set(names)
        if loose:
            raise ProgramError(f"{r.target}: unbound variables {sorted(loose)} in rule body")
        for sym in symbols:
            if sym not in sch.relations and sym not in sch.functions:
                raise ProgramError(f"{r.target}: unknown symbol {sym!r} in rule body")


# -- one-step and many-step semantics --------------------------------------------

def apply(p: DynamicProgram, s: State, m: Modification) -> State:
    """The successor state: input updated by `m`, every aux symbol recomputed
    from its rule against the *old* state (simultaneous semantics), built-in
    part and constants untouched.  The program's compiled applier computes
    it; `_reference_apply` is the definition it is tested against."""
    check_modification(p.schema, s.n, m)
    ctx = context_for_state(p, s)
    return ctx.from_lean(ctx.apply(ctx.to_lean(s), m))


def _reference_apply(p: DynamicProgram, s: State, m: Modification) -> State:
    """`apply` by evaluating each rule body at every tuple of the domain."""
    relations = dict(s.relations)
    functions = dict(s.functions)
    relations[m.relation] = (s.relations[m.relation] | {m.tuple} if m.kind == INS
                             else s.relations[m.relation] - {m.tuple})
    for target in p.schema.aux_symbols:
        rule = p.rule(target, m.kind, m.relation)
        base_asg = dict(zip(rule.params, m.tuple))
        ar = p.schema.arity(target)
        if target in p.schema.relations:
            held = set()
            for tup in itertools.product(s.domain, repeat=ar):
                asg = dict(base_asg)
                asg.update(zip(rule.target_params, tup))
                if eval_formula(rule.body, s, asg):
                    held.add(tup)
            relations[target] = frozenset(held)
        else:
            table = {}
            for tup in itertools.product(s.domain, repeat=ar):
                asg = dict(base_asg)
                asg.update(zip(rule.target_params, tup))
                table[tup] = eval_term(rule.body, s, asg)
            functions[target] = table
    return make_state(s.schema, s.n, relations, functions, s.constants)


def run(
    p: DynamicProgram,
    s0: State,
    seq: Sequence[Modification],
    honest_only: bool = False,
) -> list[State]:
    """Left fold of apply; returns every intermediate state, s0 first.

    With honest_only, a step inserting a present tuple or deleting an absent
    one raises RejectedSequenceError naming the step (1-based).
    """
    trace = [s0]
    for i, m in enumerate(seq, start=1):
        cur = trace[-1]
        if honest_only and not is_honest(cur, m):
            raise RejectedSequenceError(f"{m} is not honest here", i)
        trace.append(apply(p, cur, m))
    return trace


# -- initialization ---------------------------------------------------------------

# A base builder seeds the symbols that are not input, before empty start or
# oracle replay: builder(schema, n) -> (relations, functions), dicts by symbol
# name; a symbol it leaves out takes make_state's default.
BaseBuilder = Callable[[Schema, int], tuple[dict, dict]]


def _reach1layer_base(schema: Schema, n: int):
    """The counter C = {0}, and the clamped successor and predecessor."""
    return {"C": {(0,)}}, {"Succ": {(i,): min(i + 1, n - 1) for i in range(n)},
                           "Pred": {(i,): max(i - 1, 0) for i in range(n)}}


# every base, by the name an `init` line gives it; no module adds to it
BASES: Mapping[str, BaseBuilder] = MappingProxyType({
    "default": lambda schema, n: ({}, {}),
    "st_base": lambda schema, n: ({}, {}),
    "s_twopath_base": lambda schema, n: ({"Empty1": {()}}, {}),
    "reach1layer_base": _reach1layer_base,
})


def base_builder(name: str | None) -> BaseBuilder:
    """The base named `name` in BASES ("default" for None); a name
    `rel2fun__<inner>` is the function encoding of the base `<inner>`."""
    name = name or "default"
    if name.startswith("rel2fun__"):
        from .transforms import rel2fun_base
        return rel2fun_base(base_builder(name[len("rel2fun__"):]))
    try:
        return BASES[name]
    except KeyError:
        raise ProgramError(f"unknown base initializer {name!r}") from None


def assemble_state(schema: Schema, input_db: State, relations: Mapping[str, Iterable[tuple]],
                   functions: Mapping[str, Mapping[tuple, int]], empty_input: bool = False) -> State:
    """The state over `schema` whose input relations are those of `input_db`
    (empty with `empty_input`) and whose other symbols are read from the two
    dicts, or take make_state's defaults.  An entry of the dicts for an input
    relation replaces the database's, as an `init table` entry does."""
    rels = {name: () if empty_input else input_db.relations[name] for name in schema.input_relations}
    rels.update(relations)
    return make_state(schema, input_db.n, rels, functions, input_db.constants)


def init_state(p: DynamicProgram, input_db: State) -> State:
    """The initial program state for an input database.

    `input_db` is a state over the input-only schema (it carries the domain
    and the constant interpretations).
    """
    if input_db.schema != p.schema.input_only():
        raise SchemaError("input database does not match the program's input schema")
    spec = p.init
    if spec.kind not in ("empty", "oracle", "table"):
        raise ProgramError(f"unknown init kind {spec.kind!r}")
    relations, functions = base_builder(spec.base)(p.schema, input_db.n)
    if spec.kind == "table":
        rels, funs = decode_table(spec.table)
        relations, functions = {**relations, **rels}, {**functions, **funs}
    state = assemble_state(p.schema, input_db, relations, functions, empty_input=spec.kind == "oracle")
    if spec.kind == "oracle":
        for rel in sorted(p.schema.input_relations):
            for tup in sorted(input_db.relations[rel]):
                state = apply(p, state, Modification(rel, tup, INS))
    return state


def empty_input_db(p: DynamicProgram, n: int, constants: Mapping[str, int] | None = None) -> State:
    """An empty input database over 0..n-1 with the standard constant layout
    (s=0, t=n-1 when those constants exist and no layout is given)."""
    sch = p.schema.input_only()
    consts = dict(constants or {})
    for name in sorted(sch.constants):
        if name not in consts:
            if name == "s":
                consts[name] = 0
            elif name == "t":
                consts[name] = n - 1
            elif n < 1:
                raise DomainError(f"constant {name!r} names no element of a domain of size {n}")
            else:
                consts[name] = len(consts) % n
    return make_state(sch, n, {}, {}, consts)


# -- initialization invariance -----------------------------------------------------

EXHAUSTIVE_CAP = 7  # the largest domain on which `is_invariant_init` tries all n! permutations


def is_invariant_init(build: Callable[[State], State], input_db: State) -> bool:
    """Does pi(build(D)) equal build(pi(D)) for every tested permutation pi?

    `build` maps an input database to a full state, as
    `functools.partial(init_state, p)` does, or a recipe calling
    `assemble_state`.  All n! permutations are tested on a domain of at most
    EXHAUSTIVE_CAP elements, 200 sampled with seed 0 on a larger one.
    """
    n = input_db.n
    if n <= EXHAUSTIVE_CAP:
        perms: Iterable[Sequence[int]] = itertools.permutations(range(n))
    else:
        rng = random.Random(0)
        perms = [rng.sample(range(n), n) for _ in range(200)]
    base = build(input_db)
    for perm in perms:
        pi = dict(enumerate(perm))
        if transport(base, pi) != build(transport(input_db, pi)):
            return False
    return True
