"""Program transformations and dependency analysis: repeated-variable
elimination, relation-to-function encoding, dependency graphs, deletion
depths."""
from __future__ import annotations

import itertools

from .errors import TransformError
from .formulas import (App, Const, Eq, EqualityType, Formula, Ite, RelAtom, Var,
                       map_atoms, repeats_var, subst, symbols_used)
from .program import (BaseBuilder, DynamicProgram, InitSpec, UpdateRule, decode_table,
                      encode_table, validate_program)
from .schema import Role, Schema
from .state import DEL, INS


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[0]


# -- repeated-variable elimination ---------------------------------------------------


def _atom_partition(a: RelAtom) -> EqualityType:
    """Positions grouped by syntactic equality of the argument terms."""
    if not all([isinstance(t, (Var, Const)) for t in a.args]):
        raise TransformError("repeated-variable elimination needs flat atoms")
    return EqualityType.from_key(a.args)


def eliminate_repeated_variables(p: DynamicProgram) -> DynamicProgram:
    """An equivalent program in which no atom mentions a variable twice.

    Each offending atom R(...) with position partition rho is replaced by an
    atom of a fresh relation with one position per rho-class; the fresh
    relation is updated by R's own rules with the corresponding target
    variables unified.  Iterates to a fixed point (fresh rules can expose
    new repeats), which exists because each relation has finitely many
    position partitions.
    """
    if p.uses_functions():
        raise TransformError("repeated-variable elimination applies to relational programs only")

    relations = dict(p.schema.relations)
    roles = dict(p.schema.roles)
    rules: dict[tuple[str, str, str], UpdateRule] = dict(p.rules)
    derived: dict[tuple[str, tuple], str] = {}
    origin: dict[str, tuple[str, EqualityType]] = {}

    cap = sum(_bell(ar) for ar in p.schema.relations.values()) + len(p.schema.relations)

    def derived_name(source: str, rho: EqualityType) -> str:
        key = (source, rho.blocks)
        if key in derived:
            return derived[key]
        if len(derived) >= cap:
            raise TransformError("repeated-variable elimination exceeded its fixed-point cap")
        stem = source + "_" + "_".join("".join(str(pos + 1) for pos in b) for b in rho.blocks)
        name = stem
        while name in relations or name in p.schema.functions or name in p.schema.constants:
            name += "x"
        derived[key] = name
        origin[name] = (source, rho)
        relations[name] = len(rho.blocks)
        roles[name] = Role.AUX
        # defining rules: the source's current rules with target variables
        # unified per rho (unification may expose new repeats; the caller's
        # fixed-point loop rewrites those in later rounds)
        src_rules = {(k, t): rules[(source, k, t)] for k in (INS, DEL)
                     for t in p.schema.input_relations}
        for (kind, trigger), src in src_rules.items():
            tparams = src.target_params
            reps = tuple(tparams[b[0]] for b in rho.blocks)
            unify = {tparams[pos]: Var(tparams[rho.representative(pos)])
                     for pos in range(len(tparams))}
            body = subst(src.body, unify)
            rules[(name, kind, trigger)] = UpdateRule(name, kind, trigger, src.params, reps, body)
        return name

    def rewrite_atom(a: RelAtom) -> RelAtom:
        if not repeats_var(a):
            return a
        rho = _atom_partition(a)
        return RelAtom(derived_name(a.symbol, rho), tuple(a.args[b[0]] for b in rho.blocks))

    changed = True
    rounds = 0
    while changed:
        rounds += 1
        if rounds > cap + 1:
            raise TransformError("repeated-variable elimination did not stabilize")
        changed = False
        for key, rule in sorted(rules.items()):
            new_body = map_atoms(rule.body, rewrite_atom)
            if new_body != rule.body:
                rules[key] = UpdateRule(rule.target, rule.kind, rule.trigger,
                                        rule.params, rule.target_params, new_body)
                changed = True

    schema = Schema(relations, dict(p.schema.functions), p.schema.constants, roles)
    init = p.init
    if init.kind == "table":
        rels, funs = decode_table(init.table)
        for name, (source, rho) in origin.items():
            collapsed = set()
            for tup in rels.get(source, ()):
                if equalities_match(tup, rho):
                    collapsed.add(tuple(tup[b[0]] for b in rho.blocks))
            rels[name] = frozenset(collapsed)
        init = InitSpec("table", table=encode_table(rels, funs))
    out = DynamicProgram(p.name + "_dedup", schema, rules, p.query_symbol, init)
    validate_program(out)
    return out


def equalities_match(tup: tuple, rho: EqualityType) -> bool:
    """Does the tuple satisfy (at least) the identifications rho demands?"""
    return all(tup[pos] == tup[b[0]] for b in rho.blocks for pos in b)


# -- relations-to-functions encoding ---------------------------------------------------

C_TOP = "c_top"
C_BOT = "c_bot"


def relations_to_functions(p: DynamicProgram) -> DynamicProgram:
    """Encode every auxiliary relation except the query symbol as a
    same-arity auxiliary function: f_R(args) = c_top iff args in R, with
    fresh 0-ary functions c_top / c_bot initialized to two distinct domain
    elements (element 0 and element 1; domains of size < 2 are rejected at
    initialization time).

    A program with nothing left to convert (every non-query auxiliary symbol
    already a function) passes through unchanged; one where a name f_R,
    c_top or c_bot is taken raises TransformError."""
    converted = [r for r in p.schema.symbols(Role.AUX, "rel") if r != p.query_symbol]
    if not converted:
        return p
    if any(p.schema.role(f) is Role.AUX for f in p.schema.functions):
        raise TransformError("mixed relation/function auxiliary schemas are not supported")
    fun_names = {r: f"f_{r}" for r in converted}
    taken = set(p.schema.relations) | set(p.schema.functions) | set(p.schema.constants)
    for name in fun_names.values():
        if name in taken:  # the base and the decoder read R back from the name f_R
            raise TransformError(f"symbol name {name} is taken")
    if C_TOP in taken or C_BOT in taken:
        raise TransformError(f"symbol names {C_TOP}/{C_BOT} are taken")

    relations = {n: a for n, a in p.schema.relations.items() if n not in converted}
    functions = dict(p.schema.functions)
    roles = {n: r for n, r in p.schema.roles.items() if n not in converted}
    for r in converted:
        functions[fun_names[r]] = p.schema.relations[r]
        roles[fun_names[r]] = Role.AUX
    functions[C_TOP] = 0
    functions[C_BOT] = 0
    roles[C_TOP] = Role.AUX
    roles[C_BOT] = Role.AUX
    schema = Schema(relations, functions, p.schema.constants, roles)

    def encode(a: RelAtom) -> Formula:
        if a.symbol in fun_names:
            return Eq(App(fun_names[a.symbol], a.args), App(C_TOP, ()))
        return a

    rules: dict[tuple[str, str, str], UpdateRule] = {}
    for (target, kind, trigger), rule in p.rules.items():
        body = map_atoms(rule.body, encode)
        if target in fun_names:
            term = Ite(body, App(C_TOP, ()), App(C_BOT, ()))
            rules[(fun_names[target], kind, trigger)] = UpdateRule(
                fun_names[target], kind, trigger, rule.params, rule.target_params, term)
        else:
            rules[(target, kind, trigger)] = UpdateRule(
                target, kind, trigger, rule.params, rule.target_params, body)
    for cname in (C_TOP, C_BOT):
        for kind in (INS, DEL):
            for trigger in schema.input_relations:
                ar = p.schema.arity(trigger)
                params = tuple(f"u{i+1}" for i in range(ar))
                rules[(cname, kind, trigger)] = UpdateRule(cname, kind, trigger, params, (),
                                                           App(cname, ()))
    if p.init.kind == "table":
        raise TransformError("relations-to-functions does not support table initialization")
    init = InitSpec(p.init.kind, base="rel2fun__" + (p.init.base or "default"))
    out = DynamicProgram(p.name + "_rel2fun", schema, rules, p.query_symbol, init)
    validate_program(out)
    return out


def rel2fun_base(inner: BaseBuilder) -> BaseBuilder:
    """The base of a transformed program: inner's symbols, plus f_R(args) =
    c_top iff args is in inner's R, with c_top = 0 and c_bot = 1."""
    def build(schema: Schema, n: int):
        if n < 2:
            raise TransformError("function encoding needs a domain with at least two elements")
        relations, functions = inner(schema, n)
        functions = {**functions, C_TOP: {(): 0}, C_BOT: {(): 1}}
        for name, ar in schema.functions.items():
            if schema.role(name) is Role.AUX and name.startswith("f_"):
                held = set(map(tuple, relations.get(name[2:], ())))
                functions[name] = {args: (0 if args in held else 1)
                                   for args in itertools.product(range(n), repeat=ar)}
        return relations, functions
    return build


# -- dependency analysis -----------------------------------------------------------------

def dependency_graph(p: DynamicProgram, deletions_only: bool = False) -> dict[str, set[str]]:
    """Edges target -> symbol for every aux symbol occurring in one of the
    target's rule bodies (deletion-triggered rules only when flagged)."""
    aux = set(p.schema.aux_symbols)
    graph: dict[str, set[str]] = {a: set() for a in aux}
    for (target, kind, _trigger), rule in p.rules.items():
        if deletions_only and kind != DEL:
            continue
        graph[target] |= symbols_used(rule.body) & aux
    return graph


def deletion_depth(p: DynamicProgram) -> dict[str, int | None]:
    """BFS distance from the query symbol in the deletion dependency graph;
    None marks unreachable symbols."""
    graph = dependency_graph(p, deletions_only=True)
    depth: dict[str, int | None] = {a: None for a in graph}
    depth[p.query_symbol] = 0
    frontier = [p.query_symbol]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for sym in frontier:
            for succ in sorted(graph[sym]):
                if depth[succ] is None:
                    depth[succ] = d
                    nxt.append(succ)
        frontier = nxt
    return depth
