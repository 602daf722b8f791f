"""Multi-valued decision-diagram layer over binary BDDs.

BLIF-MV variables range over finite symbolic domains ("multi-valued
variables").  HSIS represents each relation over such variables as a BDD
by log-encoding every multi-valued variable onto ``ceil(log2 |domain|)``
boolean variables.  This module provides:

* :class:`MvVar` — a named multi-valued variable with its domain, its
  boolean encoding bits and literal construction,
* :class:`MddManager` — a thin owner coupling a :class:`~repro.bdd.BDD`
  manager with the set of declared multi-valued variables, including
  interleaved declaration of present/next-state pairs (the ordering that
  the HSIS variable-ordering paper [Aziz-Tasiran-Brayton, DAC94]
  prescribes for FSM traversal).

Domains whose size is not a power of two leave unused binary codes; every
:class:`MvVar` carries a ``domain_constraint`` BDD excluding them, and the
manager can provide the conjunction over any variable set.

:meth:`MddManager.relation` builds the characteristic function of a
whole table of multi-valued rows as one MDD "case" tree (see its
docstring); BLIF-MV table encoding runs on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.bdd.manager import BDD, FALSE, TRUE, BddError

Value = Union[str, int]


@dataclass(frozen=True)
class SameAs:
    """Relation row entry: this column equals column ``column`` of the row."""

    column: int


# A relation row entry: ``None`` admits every value, a set admits those
# codes, a :class:`SameAs` ties the column to another column.
RowEntry = Union[None, AbstractSet[int], SameAs]


def bits_for(n: int) -> int:
    """Number of bits needed to encode ``n`` distinct values (min 1)."""
    if n < 1:
        raise ValueError("domain must be non-empty")
    return max(1, (n - 1).bit_length())


class MvVar:
    """A multi-valued variable log-encoded on boolean BDD variables.

    Values keep their declaration order; value *i* is encoded as the
    binary code *i* over ``bits`` (bit 0 = least significant).
    """

    def __init__(self, bdd: BDD, name: str, values: Sequence[Value], bit_vars: Sequence[int]):
        if len(set(values)) != len(values):
            raise BddError(f"duplicate values in domain of {name!r}")
        self.bdd = bdd
        self.name = name
        self.values: Tuple[Value, ...] = tuple(values)
        self.bits: Tuple[int, ...] = tuple(bit_vars)
        if len(self.bits) != bits_for(len(self.values)):
            raise BddError(f"wrong bit count for {name!r}")
        self._code: Dict[Value, int] = {v: i for i, v in enumerate(self.values)}
        self.domain_constraint = self._compute_domain_constraint()

    @property
    def nvalues(self) -> int:
        return len(self.values)

    def code_of(self, value: Value) -> int:
        """Binary code of a domain value."""
        try:
            return self._code[value]
        except KeyError:
            raise BddError(
                f"{value!r} not in domain of {self.name!r} ({self.values})"
            ) from None

    def value_of(self, code: int) -> Value:
        """Domain value of a binary code (raises on unused codes)."""
        if not 0 <= code < self.nvalues:
            raise BddError(f"code {code} outside domain of {self.name!r}")
        return self.values[code]

    def _cube_for_code(self, code: int) -> int:
        bdd = self.bdd
        f = bdd.true
        for i in reversed(range(len(self.bits))):
            bit = self.bits[i]
            lit = bdd.var(bit) if (code >> i) & 1 else bdd.nvar(bit)
            f = bdd.and_(lit, f)
        return f

    def _compute_domain_constraint(self) -> int:
        bdd = self.bdd
        full = 1 << len(self.bits)
        if self.nvalues == full:
            return bdd.true
        return bdd.disj(self._cube_for_code(c) for c in range(self.nvalues))

    def literal(self, values: Union[Value, Iterable[Value]]) -> int:
        """BDD of ``self in values`` (a single value or an iterable)."""
        if isinstance(values, (str, int)) and values in self._code:
            return self._cube_for_code(self._code[values])
        if isinstance(values, (str, int)):
            raise BddError(f"{values!r} not in domain of {self.name!r}")
        return self.bdd.disj(self._cube_for_code(self.code_of(v)) for v in values)

    def eq_var(self, other: "MvVar") -> int:
        """BDD of ``self == other`` (domains must match)."""
        if self.values != other.values:
            raise BddError(
                f"domain mismatch between {self.name!r} and {other.name!r}"
            )
        bdd = self.bdd
        f = bdd.true
        for a, b in zip(self.bits, other.bits):
            f = bdd.and_(f, bdd.xnor(bdd.var(a), bdd.var(b)))
        # Exclude unused codes on either side so equality only holds on
        # valid encodings.
        f = bdd.and_(f, self.domain_constraint)
        return bdd.and_(f, other.domain_constraint)

    def decode(self, assignment: Dict[int, bool]) -> Value:
        """Read this variable's value out of a boolean assignment."""
        code = 0
        for i, bit in enumerate(self.bits):
            if assignment.get(bit, False):
                code |= 1 << i
        return self.value_of(code)

    def __repr__(self) -> str:
        return f"MvVar({self.name!r}, {len(self.values)} values)"


class MddManager:
    """Owner of multi-valued variables over a shared boolean BDD manager."""

    def __init__(self, bdd: Optional[BDD] = None):
        self.bdd = bdd if bdd is not None else BDD()
        self._vars: Dict[str, MvVar] = {}

    def declare(self, name: str, values: Sequence[Value]) -> MvVar:
        """Declare a multi-valued variable, appending its bits to the order."""
        if name in self._vars:
            raise BddError(f"mv variable {name!r} already declared")
        nbits = bits_for(len(values))
        bit_vars = [self.bdd.add_var(f"{name}.{i}") for i in range(nbits)]
        var = MvVar(self.bdd, name, values, bit_vars)
        self._vars[name] = var
        # Domain-constraint BDDs live as long as the variable; make them
        # GC roots so auto-GC can never sweep them.
        self.bdd.register_root(f"mdd.domain.{name}", var.domain_constraint)
        return var

    def declare_pair(
        self, name_a: str, name_b: str, values: Sequence[Value]
    ) -> Tuple[MvVar, MvVar]:
        """Declare two same-domain variables with *interleaved* bits.

        Used for present-state/next-state latch pairs: interleaving keeps
        the transition-relation BDD small and makes present<->next
        renaming order-preserving.
        """
        for name in (name_a, name_b):
            if name in self._vars:
                raise BddError(f"mv variable {name!r} already declared")
        nbits = bits_for(len(values))
        bits_a, bits_b = [], []
        for i in range(nbits):
            bits_a.append(self.bdd.add_var(f"{name_a}.{i}"))
            bits_b.append(self.bdd.add_var(f"{name_b}.{i}"))
        var_a = MvVar(self.bdd, name_a, values, bits_a)
        var_b = MvVar(self.bdd, name_b, values, bits_b)
        self._vars[name_a] = var_a
        self._vars[name_b] = var_b
        self.bdd.register_root(f"mdd.domain.{name_a}", var_a.domain_constraint)
        self.bdd.register_root(f"mdd.domain.{name_b}", var_b.domain_constraint)
        return var_a, var_b

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __getitem__(self, name: str) -> MvVar:
        try:
            return self._vars[name]
        except KeyError:
            raise BddError(f"unknown mv variable {name!r}") from None

    def get(self, name: str) -> Optional[MvVar]:
        return self._vars.get(name)

    @property
    def variables(self) -> List[MvVar]:
        return list(self._vars.values())

    def cube(self, mv_vars: Iterable[MvVar]) -> int:
        """Boolean quantification cube covering all bits of ``mv_vars``."""
        bits: List[int] = []
        for v in mv_vars:
            bits.extend(v.bits)
        return self.bdd.cube(bits)

    def rename_map(
        self, pairs: Iterable[Tuple[MvVar, MvVar]]
    ) -> Dict[int, int]:
        """Boolean variable mapping renaming each pair's bits a -> b."""
        mapping: Dict[int, int] = {}
        for a, b in pairs:
            if len(a.bits) != len(b.bits):
                raise BddError(f"bit-width mismatch: {a.name} vs {b.name}")
            for ba, bb in zip(a.bits, b.bits):
                mapping[ba] = bb
        return mapping

    def domain_constraint(self, mv_vars: Iterable[MvVar]) -> int:
        """Conjunction of domain constraints of ``mv_vars``."""
        return self.bdd.conj(v.domain_constraint for v in mv_vars)

    def relation(
        self, columns: Sequence[MvVar], rows: Iterable[Sequence[RowEntry]]
    ) -> int:
        """Characteristic function of a table of multi-valued rows.

        Row ``r`` admits an assignment when every column's entry does:
        ``None`` admits any value, a set of codes admits those codes,
        and ``SameAs(j)`` admits the value of column ``j``.  The result
        is the disjunction of the rows conjoined with the domain
        constraint of every column variable.  A variable may label
        several columns; its entries in one row intersect.

        The function is built top-down as one case tree instead of as a
        disjunction of per-row cubes.  The distinct variables are split
        in order of their topmost bit: for each code ``v`` of the current
        variable, the rows admitting ``v`` continue to the next variable.
        Splitting either end of a ``SameAs`` link pins the other end to
        ``{v}``.  The children are then folded into the variable's bits,
        with unused codes going to FALSE.  A residual row that admits
        everything yields the remaining domain constraints, and the
        result of each ``(variable, residual rows)`` pair is memoised,
        so each distinct sub-table is built once.  BDDs are canonical,
        so the handle equals the one an OR of row cubes would give.
        """
        bdd = self.bdd
        level = bdd.level
        distinct = {var.name: var for var in columns}
        ranked = sorted(distinct.values(), key=lambda v: min(level(b) for b in v.bits))
        rank = {v.name: i for i, v in enumerate(ranked)}
        col_slot = [rank[v.name] for v in columns]
        n = len(ranked)
        domains = [frozenset(range(v.nvalues)) for v in ranked]

        start = set()
        for row in rows:
            sets: List[Optional[FrozenSet[int]]] = [None] * n
            links = set()
            for col, entry in enumerate(row):
                if entry is None:
                    continue
                s = col_slot[col]
                if isinstance(entry, SameAs):
                    t = col_slot[entry.column]
                    if ranked[s].values != ranked[t].values:
                        raise BddError(
                            f"domain mismatch between {ranked[s].name!r} "
                            f"and {ranked[t].name!r}"
                        )
                    if s != t:
                        links.add((s, t) if s < t else (t, s))
                    continue
                codes = frozenset(entry)
                sets[s] = codes if sets[s] is None else sets[s] & codes
            if any(codes is not None and not codes for codes in sets):
                continue
            # A full-domain entry says no more than the domain constraint.
            for s, codes in enumerate(sets):
                if codes is not None and codes >= domains[s]:
                    sets[s] = None
            start.add((tuple(sets), frozenset(links)))

        # suffix[c]: conjunction of the domain constraints of slots c..n-1.
        suffix = [TRUE] * (n + 1)
        for c in reversed(range(n)):
            suffix[c] = bdd.and_(ranked[c].domain_constraint, suffix[c + 1])
        # pins[c][v]: the entry a link partner of slot c gets when slot c
        # is split on code v (None when that single code is the domain).
        pins = [
            [None if v.nvalues == 1 else frozenset((code,)) for code in range(v.nvalues)]
            for v in ranked
        ]
        # Bits of each slot from the bottom level up, as (weight, var, level).
        folds = [
            sorted(
                ((1 << i, bit, level(bit)) for i, bit in enumerate(v.bits)),
                key=lambda fold: -fold[2],
            )
            for v in ranked
        ]
        memo: Dict[Tuple[int, FrozenSet], int] = {}

        def build(c: int, rows: FrozenSet) -> int:
            # ``rows`` is non-empty and no row admits everything, so some
            # row still constrains a slot at or below ``c`` (hence c < n).
            key = (c, rows)
            hit = memo.get(key)
            if hit is not None:
                return hit
            nv = ranked[c].nvalues
            every = range(nv)
            buckets: List[set] = [set() for _ in every]
            free = [False] * nv
            for sets, links in rows:
                head = sets[0]
                rest = sets[1:]
                codes = every if head is None else head
                mine = [b for a, b in links if a == c] if links else ()
                if not mine:
                    if links or any(rest):
                        row = (rest, links)
                        for v in codes:
                            buckets[v].add(row)
                    else:
                        for v in codes:
                            free[v] = True
                    continue
                others = frozenset(l for l in links if l[0] != c)
                for v in codes:
                    pin = pins[c][v]
                    narrowed = list(rest)
                    for b in mine:
                        i = b - c - 1
                        cur = narrowed[i]
                        if cur is not None:
                            if v not in cur:
                                break
                            if len(cur) == 1:
                                continue
                        narrowed[i] = pin
                    else:
                        if others or any(narrowed):
                            buckets[v].add((tuple(narrowed), others))
                        else:
                            free[v] = True
            nodes = []
            for v in every:
                if free[v]:
                    nodes.append(suffix[c + 1])
                elif not buckets[v]:
                    nodes.append(FALSE)
                else:
                    nodes.append(build(c + 1, frozenset(buckets[v])))
            result = self._case(folds[c], nodes)
            memo[key] = result
            return result

        if not start:
            return FALSE
        if any(not links and not any(sets) for sets, links in start):
            return suffix[0]
        return build(0, frozenset(start))

    def _case(self, folds: Sequence[Tuple[int, int, int]], nodes: List[int]) -> int:
        """Fold per-code children into one node over a variable's bits.

        ``nodes[code]`` is the child for each used code; unused codes go
        to FALSE.  ``folds`` lists the variable's bits from the bottom
        level up.  A bit above both children becomes a plain node; a bit
        that is not (only possible when another variable's bits are
        interleaved with this one's) goes through ``ite``.
        """
        bdd = self.bdd
        size = 1 << len(folds)
        nodes = nodes + [FALSE] * (size - len(nodes))
        done = 0
        for weight, bit, lvl in folds:
            for code in range(size):
                if code & (weight | done):
                    continue
                lo = nodes[code]
                hi = nodes[code | weight]
                if lo == hi:
                    continue
                if lvl < bdd._node_level(lo) and lvl < bdd._node_level(hi):
                    nodes[code] = bdd._mk(bit, lo, hi)
                else:
                    nodes[code] = bdd.ite(bdd.var(bit), hi, lo)
            done |= weight
        return nodes[0]

    def assignment_cube(self, assignment: Dict[str, Value]) -> int:
        """BDD cube for a partial assignment of mv variables to values."""
        f = self.bdd.true
        for name, value in assignment.items():
            f = self.bdd.and_(f, self[name].literal(value))
        return f

    def decode(self, assignment: Dict[int, bool], names: Iterable[str]) -> Dict[str, Value]:
        """Decode a boolean assignment into mv values for ``names``."""
        return {n: self[n].decode(assignment) for n in names}
