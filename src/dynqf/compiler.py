"""Compilation of update programs to plain Python for the hot paths.

The reference semantics lives in formulas.eval_formula / program._reference_apply;
this module generates equivalent set-comprehension code once per
(program, domain, constants, built-ins) and is cross-checked against the
reference by the test suite.  States travel through the hot loops in a lean
form: a pair (relations, functions) of tuples, functions flattened to value
vectors in mixed-radix argument order.
"""
from __future__ import annotations

import itertools
import weakref
from typing import Mapping

from .errors import DynqfError
from .formulas import (And, App, Const, Eq, FalseConst, Formula, Ite, Not, Or,
                       RelAtom, Term, TrueConst, Var)
from .schema import Role
from .state import DEL, INS, Modification, State

LeanState = tuple[tuple, tuple]  # (rel frozensets, fun value vectors)


class LeanContext:
    """Compiled appliers plus the fixed data they close over."""

    def __init__(self, program, n: int, constants: dict[str, int],
                 builtin_rels: dict[str, frozenset], builtin_funs: dict[str, dict]):
        self.program = program
        self.schema = program.schema
        self.n = n
        self.constants = dict(constants)
        self.builtin_rels = dict(builtin_rels)
        self.builtin_funs = dict(builtin_funs)
        sch = program.schema
        self.rel_order = [name for name in sorted(sch.relations) if sch.role(name) is not Role.BUILTIN]
        self.fun_order = [name for name in sorted(sch.functions) if sch.role(name) is Role.AUX]
        self.rel_index = {name: i for i, name in enumerate(self.rel_order)}
        self.fun_index = {name: i for i, name in enumerate(self.fun_order)}
        self.query_index = self.rel_index[program.query_symbol]
        self.input_rels = [name for name in self.rel_order if sch.role(name) is Role.INPUT]
        self.input_schema = sch.input_only()
        self._input_index = [(name, self.rel_index[name]) for name in self.input_rels]
        self._domain = tuple(range(n))
        self._appliers = {}
        for trigger in sch.input_relations:
            for kind in (INS, DEL):
                self._appliers[(kind, trigger)] = self._build_applier(kind, trigger)

    # -- conversions -----------------------------------------------------------

    def to_lean(self, s: State) -> LeanState:
        rels = tuple(s.relations[name] for name in self.rel_order)
        funs = tuple(self._flatten(s.functions[name], self.schema.arity(name))
                     for name in self.fun_order)
        return (rels, funs)

    def from_lean(self, lean: LeanState) -> State:
        rels, funs = lean
        relations = {name: rels[i] for name, i in self.rel_index.items()}
        relations.update(self.builtin_rels)
        functions = {name: self._unflatten(funs[i], self.schema.arity(name))
                     for name, i in self.fun_index.items()}
        functions.update({name: dict(t) for name, t in self.builtin_funs.items()})
        return State(self.schema, self._domain, relations, functions, dict(self.constants))

    def input_state(self, lean: LeanState) -> State:
        """The input part of a lean state; equal to from_lean(lean).input_part()."""
        rels = lean[0]
        return State(self.input_schema, self._domain,
                     {name: rels[i] for name, i in self._input_index}, {}, dict(self.constants))

    def _flatten(self, table: Mapping[tuple, int], arity: int) -> tuple:
        if arity == 0:
            return (table[()],)
        return tuple(table[args] for args in itertools.product(range(self.n), repeat=arity))

    def _unflatten(self, vec: tuple, arity: int) -> dict:
        if arity == 0:
            return {(): vec[0]}
        return {args: vec[i] for i, args in enumerate(itertools.product(range(self.n), repeat=arity))}

    # -- operations on lean states ----------------------------------------------

    def apply(self, lean: LeanState, m: Modification) -> LeanState:
        return self._appliers[(m.kind, m.relation)](lean, m.tuple)

    def query(self, lean: LeanState) -> bool:
        return () in lean[0][self.query_index]

    def is_honest(self, lean: LeanState, m: Modification) -> bool:
        """Insertion of an absent tuple, or deletion of a present one."""
        present = m.tuple in lean[0][self.rel_index[m.relation]]
        return not present if m.kind == INS else present

    # -- code generation ----------------------------------------------------------

    def _term_expr(self, t: Term, bound: set[str]) -> str:
        if isinstance(t, Var):
            if t.name not in bound:
                raise DynqfError(f"unbound variable {t.name!r} during compilation")
            return f"_v_{t.name}"
        if isinstance(t, Const):
            return str(self.constants[t.name])
        if isinstance(t, App):
            args = [self._term_expr(a, bound) for a in t.args]
            if self.schema.role(t.symbol) is Role.BUILTIN:
                vec = f"_G_{t.symbol}"
            else:
                vec = f"_F_{t.symbol}"
            if not args:
                return f"{vec}[0]"
            idx = args[0]
            for a in args[1:]:
                idx = f"({idx})*{self.n}+({a})"
            return f"{vec}[{idx}]"
        if isinstance(t, Ite):
            return (f"(({self._term_expr(t.then, bound)}) if ({self._formula_expr(t.cond, bound)})"
                    f" else ({self._term_expr(t.other, bound)}))")
        raise DynqfError(f"cannot compile term {t!r}")

    def _formula_expr(self, f: Formula, bound: set[str]) -> str:
        if isinstance(f, TrueConst):
            return "True"
        if isinstance(f, FalseConst):
            return "False"
        if isinstance(f, RelAtom):
            name = f.symbol
            prefix = "_B_" if self.schema.role(name) is Role.BUILTIN else "_R_"
            if not f.args:
                return f"(() in {prefix}{name})"
            parts = ", ".join(self._term_expr(a, bound) for a in f.args)
            trail = "," if len(f.args) == 1 else ""
            return f"(({parts}{trail}) in {prefix}{name})"
        if isinstance(f, Eq):
            return f"(({self._term_expr(f.left, bound)}) == ({self._term_expr(f.right, bound)}))"
        if isinstance(f, Not):
            return f"(not {self._formula_expr(f.sub, bound)})"
        if isinstance(f, And):
            return f"({self._formula_expr(f.left, bound)} and {self._formula_expr(f.right, bound)})"
        if isinstance(f, Or):
            return f"({self._formula_expr(f.left, bound)} or {self._formula_expr(f.right, bound)})"
        raise DynqfError(f"cannot compile formula {f!r}")

    def _build_applier(self, kind: str, trigger: str):
        from .formulas import subst
        sch = self.schema
        program = self.program
        lines = ["def _applier(_state, _m):", "    _rels, _funs = _state"]
        for name, i in self.rel_index.items():
            lines.append(f"    _R_{name} = _rels[{i}]")
        for name, i in self.fun_index.items():
            lines.append(f"    _F_{name} = _funs[{i}]")
        t_ar = sch.arity(trigger)
        # rule bodies are rewritten onto collision-free canonical variable
        # names: __m<i> for the modified tuple, __t<j> for the updated tuple
        mvars = tuple(f"__m{i}" for i in range(t_ar))
        if t_ar:
            lines.append("    " + ", ".join(f"_v_{v}" for v in mvars) + ("," if t_ar == 1 else "") + " = _m")
        new_names: dict[str, str] = {}
        op = "|" if kind == INS else "-"
        for name in self.input_rels:
            if name == trigger:
                lines.append(f"    _N_{name} = _R_{name} {op} frozenset((_m,))")
            else:
                lines.append(f"    _N_{name} = _R_{name}")
            new_names[name] = f"_N_{name}"
        for target in sch.aux_symbols:
            rule = program.rule(target, kind, trigger)
            ar = sch.arity(target)
            tvars = tuple(f"__t{j}" for j in range(ar))
            rename = {old: Var(new) for old, new in zip(rule.params, mvars)}
            rename.update({old: Var(new) for old, new in zip(rule.target_params, tvars)})
            body = subst(rule.body, rename)
            bound = set(mvars) | set(tvars)
            loops = "".join(f" for _v_{v} in _dom" for v in tvars)
            if target in sch.relations:
                expr = self._formula_expr(body, bound)
                if ar == 0:
                    lines.append(f"    _N_{target} = _T_ if ({expr}) else _E_")
                else:
                    tup = ", ".join(f"_v_{v}" for v in tvars) + ("," if ar == 1 else "")
                    lines.append(f"    _N_{target} = frozenset(({tup}){loops} if ({expr}))")
                new_names[target] = f"_N_{target}"
            else:
                expr = self._term_expr(body, bound)
                if ar == 0:
                    lines.append(f"    _NF_{target} = (({expr}),)")
                else:
                    lines.append(f"    _NF_{target} = tuple(({expr}){loops})")
        rel_out = ", ".join(new_names.get(name, f"_R_{name}") for name in self.rel_order)
        fun_out = ", ".join(f"_NF_{name}" for name in self.fun_order)
        lines.append(f"    return (({rel_out}{',' if len(self.rel_order) == 1 else ''}),"
                     f" ({fun_out}{',' if len(self.fun_order) == 1 else ''}))")
        src = "\n".join(lines)
        env = {
            "_dom": tuple(range(self.n)),
            "_T_": frozenset({()}),
            "_E_": frozenset(),
        }
        for name, rel in self.builtin_rels.items():
            env[f"_B_{name}"] = rel
        for name, table in self.builtin_funs.items():
            env[f"_G_{name}"] = self._flatten(table, sch.arity(name))
        exec(compile(src, f"<applier {program.name}:{kind} {trigger}>", "exec"), env)
        return env["_applier"]


_CTX_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def lean_context(program, n: int, constants: Mapping[str, int],
                 builtin_rels: Mapping[str, frozenset], builtin_funs: Mapping[str, Mapping]) -> LeanContext:
    sub = _CTX_CACHE.setdefault(program, {})
    key = (
        n,
        tuple(sorted(constants.items())),
        tuple(sorted((k, tuple(sorted(v))) for k, v in builtin_rels.items())),
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in builtin_funs.items())),
    )
    ctx = sub.get(key)
    if ctx is None:
        ctx = LeanContext(program, n, dict(constants),
                          {k: frozenset(v) for k, v in builtin_rels.items()},
                          {k: dict(v) for k, v in builtin_funs.items()})
        sub[key] = ctx
    return ctx


def context_for_state(program, s: State) -> LeanContext:
    sch = program.schema
    builtin_rels = {name: s.relations[name] for name in sch.relations if sch.role(name) is Role.BUILTIN}
    builtin_funs = {name: s.functions[name] for name in sch.functions if sch.role(name) is Role.BUILTIN}
    return lean_context(program, s.n, s.constants, builtin_rels, builtin_funs)


def compiled_apply(program, s: State, m: Modification) -> State:
    ctx = context_for_state(program, s)
    return ctx.from_lean(ctx.apply(ctx.to_lean(s), m))
