"""Schemas: relation/function/constant symbols with arities and roles.

A symbol's role is one of input, aux, builtin.  Input symbols must be
relations.  Constant symbols carry no role: they are part of every structure
and are never modified.
"""
from __future__ import annotations

import enum

from .errors import SchemaError
from .records import Frozen, setfield


class Role(enum.Enum):
    INPUT = "input"
    AUX = "aux"
    BUILTIN = "builtin"


class Schema(Frozen):
    """Symbols with arities and roles; compared and hashed as sorted items,
    so the order of the dicts does not matter."""

    __slots__ = ("relations", "functions", "constants", "roles", "_key", "_hash")

    def __init__(self, relations: dict[str, int], functions: dict[str, int],
                 constants: frozenset[str], roles: dict[str, Role]):
        self._set_fields(relations, functions, constants, roles)
        names = list(self.relations) + list(self.functions) + list(self.constants)
        if len(set(names)) != len(names):
            raise SchemaError("symbol names must be unique across relations, functions and constants")
        for name in list(self.relations) + list(self.functions):
            if name not in self.roles:
                raise SchemaError(f"symbol {name!r} has no role")
        for name, role in self.roles.items():
            if name in self.functions and role is Role.INPUT:
                raise SchemaError(f"input symbol {name!r} must be a relation")
            if name not in self.relations and name not in self.functions:
                raise SchemaError(f"role given for unknown symbol {name!r}")
        for name, ar in list(self.relations.items()) + list(self.functions.items()):
            if ar < 0:
                raise SchemaError(f"negative arity for {name!r}")
        setfield(self, "_key", (
            tuple(sorted(self.relations.items())),
            tuple(sorted(self.functions.items())),
            tuple(sorted(self.constants)),
            tuple(sorted((n, r.value) for n, r in self.roles.items())),
        ))
        setfield(self, "_hash", hash(self._key))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Schema) and self._key == other._key

    # -- convenience accessors -------------------------------------------------

    def arity(self, symbol: str) -> int:
        if symbol in self.relations:
            return self.relations[symbol]
        if symbol in self.functions:
            return self.functions[symbol]
        raise SchemaError(f"unknown symbol {symbol!r}")

    def role(self, symbol: str) -> Role:
        try:
            return self.roles[symbol]
        except KeyError:
            raise SchemaError(f"unknown symbol {symbol!r}") from None

    def symbols(self, role: Role | None = None, kind: str | None = None) -> list[str]:
        """Names filtered by role and kind ('rel' or 'fun'), sorted."""
        out = []
        for name in sorted(list(self.relations) + list(self.functions)):
            if role is not None and self.roles[name] is not role:
                continue
            if kind == "rel" and name not in self.relations:
                continue
            if kind == "fun" and name not in self.functions:
                continue
            out.append(name)
        return out

    @property
    def input_relations(self) -> list[str]:
        return self.symbols(Role.INPUT, "rel")

    @property
    def aux_symbols(self) -> list[str]:
        return self.symbols(Role.AUX)

    def max_relation_arity(self) -> int:
        return max(self.relations.values(), default=0)

    def max_aux_arity(self) -> int:
        return max((self.arity(s) for s in self.aux_symbols), default=0)

    def input_only(self) -> "Schema":
        """The sub-schema of input relations plus all constants."""
        rels = {n: a for n, a in self.relations.items() if self.roles[n] is Role.INPUT}
        return Schema(rels, {}, self.constants, {n: Role.INPUT for n in rels})


def make_schema(
    input_relations: dict[str, int] | None = None,
    aux_relations: dict[str, int] | None = None,
    aux_functions: dict[str, int] | None = None,
    builtin_relations: dict[str, int] | None = None,
    builtin_functions: dict[str, int] | None = None,
    constants: tuple[str, ...] = (),
) -> Schema:
    relations: dict[str, int] = {}
    functions: dict[str, int] = {}
    roles: dict[str, Role] = {}
    for d, role, is_rel in (
        (input_relations, Role.INPUT, True),
        (aux_relations, Role.AUX, True),
        (aux_functions, Role.AUX, False),
        (builtin_relations, Role.BUILTIN, True),
        (builtin_functions, Role.BUILTIN, False),
    ):
        for name, ar in (d or {}).items():
            (relations if is_rel else functions)[name] = ar
            roles[name] = role
    return Schema(relations, functions, frozenset(constants), roles)
