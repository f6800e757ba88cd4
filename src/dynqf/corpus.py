"""The shipped dynamic programs: loading, instance guards, class tags, and
documented per-state invariants.  Their bases are in program.BASES."""
from __future__ import annotations

from pathlib import Path
from typing import Callable, Mapping

from .errors import DynqfError, SchemaError
from .formulas import classify_syntax
from .parser import parse_program
from .program import DynamicProgram
from .queries import (oracle_nonemptyset, oracle_s_twopath, oracle_st_reach,
                      oracle_st_twopath)
from .records import Frozen, setfield
from .schema import Role
from .state import Modification, State

# An instance guard admits or rejects a modification given the domain size
# and the constant layout; it is independent of the current database
# (honesty is checked separately).
InstanceGuard = Callable[[Modification, int, Mapping[str, int]], bool]


def guard_any(m: Modification, n: int, consts: Mapping[str, int]) -> bool:
    return True


def guard_1layered(m: Modification, n: int, consts: Mapping[str, int]) -> bool:
    """Edges (s,x) or (x,t) with x strictly inside the layer."""
    if "s" not in consts or "t" not in consts:
        raise SchemaError("the 1-layered-st guard needs constants s and t")
    if len(m.tuple) != 2:
        raise SchemaError(f"the 1-layered-st guard needs binary edges, got {m.relation!r}")
    s, t = consts["s"], consts["t"]
    u, v = m.tuple
    return (u == s and v not in (s, t)) or (v == t and u not in (s, t))


GUARDS: dict[str, InstanceGuard] = {
    "any": guard_any,
    "1-layered-st": guard_1layered,
}


class ClassTags(Frozen):
    """The classes a program is in, e.g. ("DynProp",) or ("DynQF*",), its
    aux arity and its syntax flags."""

    __slots__ = ("classes", "arity", "negation_free", "conjunctive")

    def __init__(self, classes: tuple[str, ...], arity: int, negation_free: bool, conjunctive: bool):
        self._set_fields(classes, arity, negation_free, conjunctive)


class CorpusEntry(Frozen):
    """A shipped program with its oracle, instance guard and per-state
    invariant.  `class_tags` given as None is computed from the program on
    first read, since no check reads it; the repr and equality read it like
    any other field."""

    __slots__ = ("name", "program", "oracle", "oracle_name", "_class_tags", "guard_name", "state_invariant")
    _fields = ("name", "program", "oracle", "oracle_name", "class_tags", "guard_name", "state_invariant")

    def __init__(self, name: str, program: DynamicProgram, oracle: Callable[[State], bool],
                 oracle_name: str, class_tags: ClassTags | None, guard_name: str,
                 state_invariant: Callable[["CorpusEntry", State], list[str]] | None = None):
        # the slots, in field order, with `_class_tags` for `class_tags`
        for slot, value in zip(self.__slots__, (name, program, oracle, oracle_name, class_tags,
                                                 guard_name, state_invariant)):
            setfield(self, slot, value)

    @property
    def class_tags(self) -> ClassTags:
        if self._class_tags is None:
            setfield(self, "_class_tags", computed_tags(self.program))
        return self._class_tags

    @property
    def instance_guard(self) -> InstanceGuard:
        return GUARDS[self.guard_name]


def computed_tags(p: DynamicProgram) -> ClassTags:
    """Class tags derived from the program text itself."""
    sch = p.schema
    arity = sch.max_aux_arity()
    flags = [classify_syntax(r.body) for r in p.rules.values() if r.target in sch.relations]
    negation_free = all(f.negation_free for f in flags)
    conjunctive = all(f.conjunctive for f in flags)
    # function symbols (auxiliary or built-in, declared or used in bodies)
    # put a program in the QF class; purely relational ones are propositional
    base = "DynQF" if p.uses_functions() else "DynProp"
    if any(r is Role.BUILTIN for r in sch.roles.values()):
        base += "*"
    return ClassTags((base,), arity, negation_free, conjunctive)


def _nonemptyset_list_invariant(entry: CorpusEntry, state: State) -> list[str]:
    """List is a simple path whose endpoints are First/Last and whose node
    set equals U; Q mirrors non-emptiness."""
    problems = []
    u = {x for (x,) in state.rel("U")}
    first = {x for (x,) in state.rel("First")}
    last = {x for (x,) in state.rel("Last")}
    links = state.rel("List")
    q = state.query_value("Q")
    if not u:
        if q or first or last or links:
            problems.append("empty U must mean Q false and empty list data")
        return problems
    if not q:
        problems.append("U non-empty but Q false")
    if len(first) != 1 or len(last) != 1:
        problems.append(f"expected unique endpoints, got First={sorted(first)} Last={sorted(last)}")
        return problems
    succ: dict[int, int] = {}
    for (x, y) in links:
        if x in succ:
            problems.append(f"node {x} has two list successors")
            return problems
        succ[x] = y
    node, seen = next(iter(first)), []
    while True:
        seen.append(node)
        if node not in succ:
            break
        node = succ[node]
        if node in seen:
            problems.append("list contains a cycle")
            return problems
    if seen[-1] not in last:
        problems.append("walk from First does not end at Last")
    if set(seen) != u or len(links) != len(u) - 1:
        problems.append(f"list nodes {sorted(seen)} do not match U = {sorted(u)}")
    return problems


_SPECS = {
    "non-empty-set": ("non_empty_set.dynp", oracle_nonemptyset, "non-empty-set", "any",
                      _nonemptyset_list_invariant),
    "st-twopath-binary": ("st_twopath_binary.dynp", oracle_st_twopath, "st-twopath", "any", None),
    "s-twopath-ternary": ("s_twopath_ternary.dynp", oracle_s_twopath, "s-twopath", "any", None),
    "reach-1layer-qf": ("reach_1layer_qf.dynp", oracle_st_reach, "st-reach", "1-layered-st", None),
}

_STRAWMEN = {
    "unary-twopath-naive": "strawmen/unary_twopath_naive.dynp",
    "binary-reach2-naive": "strawmen/binary_reach2_naive.dynp",
    "cq-nonemptyset-naive": "strawmen/cq_nonemptyset_naive.dynp",
}

_cache: dict[str, CorpusEntry] = {}


def corpus_source(filename: str) -> str:
    # the package ships as files (see pyproject.toml); importlib.resources
    # would cost every process its imports, and from Python 3.12 on it
    # loads inspect, ast and dis
    return (Path(__file__).parent / "corpus_data" / filename).read_text()


def corpus_names() -> list[str]:
    return sorted(_SPECS)


def builtin_program(name: str) -> CorpusEntry:
    """The shipped program under its catalogue name (hyphens or underscores)."""
    key = name.replace("_", "-")
    if key not in _SPECS:
        raise DynqfError(f"unknown corpus program {name!r}; have {corpus_names()}")
    if key not in _cache:
        filename, oracle, oracle_name, guard, invariant = _SPECS[key]
        program = parse_program(corpus_source(filename), filename)
        _cache[key] = CorpusEntry(key, program, oracle, oracle_name, None, guard, invariant)
    return _cache[key]


def strawman_program(name: str) -> DynamicProgram:
    key = name.replace("_", "-")
    if key not in _STRAWMEN:
        raise DynqfError(f"unknown strawman {name!r}; have {sorted(_STRAWMEN)}")
    return parse_program(corpus_source(_STRAWMEN[key]), _STRAWMEN[key])
