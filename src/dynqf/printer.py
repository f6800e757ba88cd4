"""Canonical pretty-printing of formulas, terms, and whole programs.

Printing is the inverse of parsing: parse(print_program(p)) == p structurally.
Parentheses are minimal for the declared precedence (! over & over |), with
same-operator right nesting parenthesized so tree shape survives.
"""
from __future__ import annotations

from .formulas import (And, App, Const, Eq, FalseConst, Formula, Ite, Not, Or,
                       RelAtom, Term, TrueConst, Var)
from .program import DynamicProgram, InitSpec, decode_table
from .schema import Role
from .state import DEL, INS

_PREC = {Or: 1, And: 2, Not: 3}


def print_term(t: Term) -> str:
    if isinstance(t, Var) or isinstance(t, Const):
        return t.name
    if isinstance(t, App):
        return f"{t.symbol}({', '.join(print_term(a) for a in t.args)})"
    if isinstance(t, Ite):
        return f"ite({print_formula(t.cond)}, {print_term(t.then)}, {print_term(t.other)})"
    raise TypeError(f"not a term: {t!r}")


def print_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, parent_prec: int, right: bool = False) -> str:
    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, FalseConst):
        return "false"
    if isinstance(f, RelAtom):
        return f"{f.symbol}({', '.join(print_term(a) for a in f.args)})"
    if isinstance(f, Eq):
        return f"{print_term(f.left)} = {print_term(f.right)}"
    if isinstance(f, Not):
        if isinstance(f.sub, Eq):
            return f"{print_term(f.sub.left)} != {print_term(f.sub.right)}"
        return f"!{_fmt(f.sub, _PREC[Not])}"
    prec = _PREC[type(f)]
    op = " & " if isinstance(f, And) else " | "
    text = _fmt(f.left, prec) + op + _fmt(f.right, prec, right=True)
    if prec < parent_prec or (prec == parent_prec and right):
        return f"({text})"
    return text


def _symbol_block(schema, role: Role) -> str:
    parts = [f"{name}/{schema.relations[name]}"
             for name in sorted(schema.relations) if schema.role(name) is role]
    parts += [f"fun {name}/{schema.functions[name]}"
              for name in sorted(schema.functions) if schema.role(name) is role]
    return "{ " + ", ".join(parts) + " }"


def _print_init(spec: InitSpec) -> str:
    if spec.kind in ("empty", "oracle"):
        return spec.kind + (f" {spec.base}" if spec.base else "")
    rels, funs = decode_table(spec.table)
    entries = []
    for name in sorted(rels):
        tuples = " ".join("(" + ",".join(map(str, t)) + ")" for t in sorted(rels[name]))
        entries.append(f"{name} = {tuples}".rstrip())
    for name in sorted(funs):
        cells = " ".join("(" + ",".join(map(str, args)) + ")->" + str(val)
                         for args, val in sorted(funs[name].items()))
        entries.append(f"{name} = {cells}")
    return "table { " + "; ".join(entries) + " }"


def print_program(p: DynamicProgram) -> str:
    sch = p.schema
    out = [f"program {p.name}"]
    out.append(f"input   {_symbol_block(sch, Role.INPUT)}")
    out.append(f"aux     {_symbol_block(sch, Role.AUX)}")
    if any(r is Role.BUILTIN for r in sch.roles.values()):
        out.append(f"builtin {_symbol_block(sch, Role.BUILTIN)}")
    if sch.constants:
        out.append("const   " + ", ".join(sorted(sch.constants)))
    out.append(f"query   {p.query_symbol}")
    out.append(f"init    {_print_init(p.init)}")
    for trigger in sch.input_relations:
        for kind, word in ((INS, "insert"), (DEL, "delete")):
            rules = [p.rules[(target, kind, trigger)] for target in sch.aux_symbols]
            # rules sharing trigger parameter names print in one block
            groups: dict[tuple[str, ...], list] = {}
            for rule in rules:
                groups.setdefault(rule.params, []).append(rule)
            for params, group in groups.items():
                out.append("")
                out.append(f"on {word} {trigger}({', '.join(params)}):")
                for rule in group:
                    head = f"{rule.target}({', '.join(rule.target_params)})"
                    if rule.target in sch.functions:
                        out.append(f"  {head} := {print_term(rule.body)}")
                    else:
                        out.append(f"  {head}: {print_formula(rule.body)}")
    return "\n".join(out) + "\n"
