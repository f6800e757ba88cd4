"""Symmetry of the exhaustive search, after Ip & Dill (1996) and Emerson &
Sistla (1996) but without a canonical form: `interchangeable` finds the free
elements when every permutation of them is a symmetry of the search, and
`Orbits` lists the images of a payload under those permutations, one entry
at a time under all of them, with aux images memoized per support.  The
search loop itself is `verify._orbit_bfs`; with no free element every orbit
is the state alone and that loop is the plain search.  `verify` imports this
module on the first exhaustive check.
"""
from __future__ import annotations

from . import state
from .compiler import LeanContext
from .queries import is_query
from .schema import Role
from .state import Modification, State, image_vector


def interchangeable(oracle, s0: State, moves: list[Modification]) -> tuple[int, ...]:
    """The free elements (those no constant names) when every permutation of
    them is a symmetry of the search, else ().

    Quantifier-free updates commute with every isomorphism, so a permutation
    of the free elements maps the states reached by a sequence of moves onto
    those reached by its image, provided it fixes the initial state with its
    built-ins, maps the admitted moves onto themselves (a permutation of the
    candidates that maps this finite set into itself maps it onto itself)
    and leaves the oracle's answer alone.  A transposition and a cycle of all
    free elements generate their symmetric group, so it is enough to check
    those two."""
    free = tuple(e for e in s0.domain if e not in s0.constants.values())
    if len(free) < 2 or not is_query(oracle):
        return ()
    admitted = {(m.relation, m.tuple, m.kind) for m in moves}
    for cycle in (free[1:2] + free[:1] + free[2:], free[1:] + free[:1]):
        pi = dict(zip(s0.domain, s0.domain))
        pi.update(zip(free, cycle))
        if any((rel, tuple([pi[e] for e in tup]), kind) not in admitted for rel, tup, kind in admitted):
            return ()
        # looked up on the module at each call, so that a tool that rebinds
        # and later restores state.transport leaves no reference to its
        # replacement here, in a module imported only when first used
        if state.transport(s0, pi) != s0:
            return ()
    return free


def _then_swap(p: list[int], s: int, f: int) -> list[int]:
    """The permutation p followed by the transposition (s f)."""
    q = p[:]
    q[p.index(s)], q[p.index(f)] = f, s
    return q


class _Image(dict):
    """Tuple -> its image under the permutation p, built on first lookup;
    equal images under the maps that share `tuples` are one object."""

    __slots__ = ("p", "tuples")

    def __init__(self, p: list[int], tuples: dict):
        self.p, self.tuples = p, tuples

    def __missing__(self, t: tuple) -> tuple:
        image = tuple([self.p[e] for e in t])
        image = self[t] = self.tuples.setdefault(image, image)
        return image


class Orbits:
    """Orbits of payloads under the permutations of the free elements; with
    none, each orbit is the payload alone.

    A state reached from the initial one by moves that name, among the free
    elements, only those of its *support* s1 < ... < sj is fixed by every
    permutation of the other free elements.  The products
    (s1 f1)(s2 f2)...(sj fj), with each fi a free element other than
    s1, ..., s(i-1), are one permutation per coset of that stabilizer, so
    the state's images under them are its orbit.  Each support keeps those
    other than the identity, their tuple maps (filled on first lookup, so a
    large sparse domain costs only the tuples that occur; equal image tuples
    are one object) and a memo of aux images, keyed by the relation.
    Images are built one payload entry at a time, under all permutations at
    once: an aux relation's from the memo or else built and interned, so equal
    aux relations of images are one object, and a function's by image_vector."""

    def __init__(self, ctx: LeanContext, free: tuple[int, ...]):
        lay, sch = ctx.layout, ctx.layout.schema
        self.n, self.free = lay.n, free
        self.rel_arities = [sch.arity(name) for name in lay.rel_names]
        self.aux = [sch.role(name) is Role.AUX for name in lay.rel_names]
        self.fun_arities = [sch.arity(name) for name in lay.fun_names]
        self.cosets: dict[frozenset, tuple] = {}  # support -> (permutations, maps per relation, memo)
        self.interned: dict[frozenset, frozenset] = {}
        self.tuples: dict[tuple, tuple] = {}  # the one object of each image tuple

    def _cosets(self, support: frozenset) -> tuple:
        identity, sup = list(range(self.n)), sorted(support)
        perms = [identity]
        for i in reversed(range(len(sup))):  # each p, then (s f) for each target f
            s, targets = sup[i], [f for f in self.free if f not in sup[:i]]
            perms = [_then_swap(p, s, f) for p in perms for f in targets]
        perms.remove(identity)
        maps = [_Image(p, self.tuples).__getitem__ for p in perms]
        self.cosets[support] = cosets = (perms, [maps if k else None for k in self.rel_arities], {})
        return cosets

    def orbit(self, lean, support: frozenset) -> list:
        """lean and its images under the coset permutations of its stabilizer;
        an image may repeat when the stabilizer is larger."""
        perms, maps, memo = self.cosets.get(support) or self._cosets(support)
        interned, columns = self.interned, []
        for r, fs, is_aux in zip(lean, maps, self.aux):  # the relations, the payload's first entries
            if fs is None or not r:  # its own image
                columns.append([r] * len(perms))
            elif is_aux:
                images = memo.get(r)
                if images is None:
                    images = memo[r] = [interned.setdefault(x, x) for x in [frozenset(map(f, r)) for f in fs]]
                columns.append(images)
            else:
                columns.append([frozenset(map(f, r)) for f in fs])
        for v, k in zip(lean[len(self.aux):], self.fun_arities):
            columns.append([image_vector(v, p, k) for p in perms])
        return [lean, *zip(*columns)]
