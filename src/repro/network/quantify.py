"""Early quantification: schedules for multiply-and-quantify (paper §4, item 5).

Building the product transition relation requires conjoining many
relation BDDs and existentially quantifying the non-state variables.  If
a variable appears only in conjuncts that have already been multiplied,
it can be quantified *early* from the partial product, which keeps the
intermediate BDDs small.  The early quantification problem — find a
schedule minimizing the peak BDD size — is NP-hard; HSIS ships heuristic
schedulers ([Hojati-Krishnan-Brayton, UCB M94/11]); we provide three:

* ``greedy`` — bucket elimination by minimum combined support: repeatedly
  pick the quantifiable variable whose elimination touches the smallest
  combined support, conjoin exactly the conjuncts mentioning it with a
  fused ``and_exists``, and put the result back in the pool.
* ``linear`` — multiply conjuncts in the given order, quantifying each
  variable as soon as no remaining conjunct mentions it.
* ``monolithic`` — multiply everything, quantify at the end (the baseline
  that early quantification beats; kept for the ablation benchmark).

All schedulers record the peak intermediate size so benchmarks can
compare memory behaviour, and return the same final BDD (the product
with all requested variables quantified out).  Every executed
:class:`ScheduleStep` also emits a ``quantify.step`` trace instant when
the manager's tracer is enabled.

For image computations that run the *same* pool against a changing
frontier every iteration (partitioned reachability), the schedule can be
computed once from the supports alone (:func:`plan_schedule`) and then
replayed cheaply against fresh BDDs (:func:`execute_schedule`) — the
greedy cost function only ever looks at supports, so planning needs no
BDD operations at all.  Executor and planner share one heap-indexed
elimination loop (:func:`_eliminate`) that re-keys only the variables a
merge can affect.

:class:`ComponentProjector` projects many operands through one fixed
pool (the may-projection of CTL wire atoms), caching the projection of
every independent component of the pool.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.bdd.manager import BDD

METHODS = ("greedy", "linear", "monolithic")


@dataclass
class Conjunct:
    """A relation BDD together with its boolean-variable support."""

    node: int
    support: FrozenSet[int]
    label: str = ""


@dataclass
class ScheduleStep:
    """One multiply/quantify step, for introspection and tests."""

    combined: Tuple[str, ...]
    quantified: Tuple[int, ...]
    result_size: int


@dataclass
class QuantifyResult:
    """Outcome of a multiply-and-quantify run."""

    node: int
    peak_size: int
    steps: List[ScheduleStep] = field(default_factory=list)


def make_conjuncts(bdd: BDD, nodes: Iterable[Tuple[int, str]]) -> List[Conjunct]:
    """Wrap ``(node, label)`` pairs into :class:`Conjunct` with supports."""
    return [
        Conjunct(node=node, support=frozenset(bdd.support(node)), label=label)
        for node, label in nodes
    ]


def multiply_and_quantify(
    bdd: BDD,
    conjuncts: Sequence[Conjunct],
    quantify: Set[int],
    method: str = "greedy",
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> QuantifyResult:
    """Conjoin ``conjuncts`` and existentially quantify ``quantify``.

    ``quantify`` is a set of boolean variable indices.  Variables in
    ``quantify`` that appear in no conjunct are vacuous and ignored.
    ``groups`` (optional, greedy only) lists conjunct index groups —
    e.g. the conjuncts of one hierarchy instance — that are clustered
    first, eliminating each group's private variables inside the group
    before the global elimination runs (see :func:`plan_schedule`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown scheduling method {method!r}; want one of {METHODS}")
    pool = [
        Conjunct(c.node, c.support, c.label or f"r{i}")
        for i, c in enumerate(conjuncts)
    ]
    if not pool:
        return QuantifyResult(node=bdd.true, peak_size=1)
    with bdd.tracer.span(
        "quantify", cat="quantify",
        method=method, conjuncts=len(pool), variables=len(quantify),
    ) as span:
        if method == "monolithic":
            result = _monolithic(bdd, pool, quantify)
        elif method == "linear":
            result = _linear(bdd, pool, quantify)
        elif groups:
            schedule = plan_schedule(
                [c.support for c in pool], quantify, groups=groups
            )
            result = execute_schedule(bdd, [c.node for c in pool], schedule)
        else:
            result = _greedy(bdd, pool, quantify)
        span.add(peak_size=result.peak_size, result_size=bdd.size(result.node))
    return result


def _safe_point(bdd: BDD, pool: Iterable[Conjunct], *extra: int) -> None:
    """Run a pending auto-GC keeping the scheduler's working set alive."""
    bdd.maybe_gc(extra_roots=[c.node for c in pool] + list(extra))


def _reduce_and(
    bdd: BDD, result: QuantifyResult, lists: List[List[int]]
) -> List[int]:
    """Tree-AND every operand list to one node, batching across lists.

    Each round pairs adjacent operands within every list and issues all
    pairs as a single :meth:`BDD.apply_many` frontier, recording every
    intermediate product in ``result.peak_size``.  The reduction shape
    is fixed regardless of how the kernel executes a round (a single
    pair runs scalar), so every routing builds the same op DAG.  Empty
    lists reduce to TRUE.  For lists of up to three operands the tree
    is the same left fold the scalar schedulers used.
    """
    pending = [list(l) for l in lists]
    while True:
        pairs: List[Tuple[int, int]] = []
        slots: List[Tuple[int, int]] = []
        nxt: List[List[int]] = []
        for i, l in enumerate(pending):
            nl: List[int] = []
            j = 0
            while j + 1 < len(l):
                slots.append((i, len(nl)))
                pairs.append((l[j], l[j + 1]))
                nl.append(-1)
                j += 2
            if j < len(l):
                nl.append(l[j])
            nxt.append(nl)
        if not pairs:
            return [l[0] if l else bdd.true for l in pending]
        for (i, p), r in zip(slots, bdd.apply_many("and", pairs)):
            nxt[i][p] = r
            result.peak_size = max(result.peak_size, bdd.size(r))
        pending = nxt


def _record_step(
    bdd: BDD,
    result: QuantifyResult,
    combined: Tuple[str, ...],
    quantified: Tuple[int, ...],
    size: int,
) -> None:
    """Append one :class:`ScheduleStep` and mirror it as a trace instant."""
    result.steps.append(
        ScheduleStep(combined=combined, quantified=quantified, result_size=size)
    )
    if bdd.tracer.enabled:
        bdd.tracer.instant(
            "quantify.step", cat="quantify",
            combined=len(combined), quantified=len(quantified),
            result_size=size, peak_size=result.peak_size,
        )


def _monolithic(bdd: BDD, pool: List[Conjunct], quantify: Set[int]) -> QuantifyResult:
    result = QuantifyResult(node=bdd.true, peak_size=1)
    product = bdd.true
    for c in pool:
        product = bdd.and_(product, c.node)
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        _record_step(bdd, result, (c.label,), (), size)
        _safe_point(bdd, pool, product)
    present = quantify & set(bdd.support(product))
    product = bdd.exist(sorted(present), product)
    size = bdd.size(product)
    result.peak_size = max(result.peak_size, size)
    _record_step(bdd, result, (), tuple(sorted(present)), size)
    result.node = product
    return result


def _linear(bdd: BDD, pool: List[Conjunct], quantify: Set[int]) -> QuantifyResult:
    result = QuantifyResult(node=bdd.true, peak_size=1)
    product = bdd.true
    product_support: Set[int] = set()
    for idx, c in enumerate(pool):
        remaining = pool[idx + 1:]
        # Quantify, during this conjunction, every variable whose last
        # occurrence is this conjunct.
        dying = {
            v
            for v in (quantify & (c.support | product_support))
            if all(v not in r.support for r in remaining)
        }
        product = bdd.and_exists(product, c.node, sorted(dying))
        product_support = set(bdd.support(product))
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        _record_step(bdd, result, (c.label,), tuple(sorted(dying)), size)
        _safe_point(bdd, remaining, product)
    result.node = product
    return result


def _greedy(bdd: BDD, pool: List[Conjunct], quantify: Set[int]) -> QuantifyResult:
    """Bucket elimination driven by :func:`_eliminate`.

    Live conjuncts are keyed by monotonically increasing ids (inputs
    first, each merge appended), which reproduces the original
    pool-order semantics exactly: the cluster is multiplied smallest
    support first (ties in id order) and the leftover tail likewise.
    """
    result = QuantifyResult(node=bdd.true, peak_size=1)
    table: Dict[int, Conjunct] = dict(enumerate(pool))
    supports = {cid: c.support for cid, c in table.items()}

    def merge(
        cluster_ids: List[int], local: Tuple[int, ...], new_id: int
    ) -> FrozenSet[int]:
        cluster = sorted(
            (table.pop(cid) for cid in cluster_ids), key=lambda c: len(c.support)
        )
        if len(cluster) > 1:
            [product] = _reduce_and(
                bdd, result, [[c.node for c in cluster[:-1]]]
            )
            product = bdd.and_exists(product, cluster[-1].node, local)
        else:
            product = bdd.exist(local, cluster[0].node)
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        _record_step(bdd, result, tuple(c.label for c in cluster), local, size)
        merged = table[new_id] = Conjunct(
            node=product,
            support=frozenset(bdd.support(product)),
            label="(" + "*".join(c.label for c in cluster) + ")",
        )
        _safe_point(bdd, table.values())
        return merged.support

    _eliminate(supports, _index(supports), quantify, len(pool), merge)
    # Conjoin whatever is left (no quantifiable variables remain).
    live = sorted(table.values(), key=lambda c: len(c.support))
    [product] = _reduce_and(bdd, result, [[c.node for c in live]])
    _safe_point(bdd, live, product)
    if live:
        _record_step(
            bdd, result,
            tuple(c.label for c in live), (), bdd.size(product),
        )
    result.node = product
    return result


def _index(supports: Dict[int, FrozenSet[int]]) -> Dict[int, Set[int]]:
    """Inverted index: variable -> ids of the supports mentioning it."""
    by_var: Dict[int, Set[int]] = {}
    for cid, support in supports.items():
        for v in support:
            by_var.setdefault(v, set()).add(cid)
    return by_var


def _eliminate(
    supports: Dict[int, FrozenSet[int]],
    by_var: Dict[int, Set[int]],
    candidates: Iterable[int],
    next_id: int,
    merge: Callable[[List[int], Tuple[int, ...], int], FrozenSet[int]],
) -> int:
    """The greedy elimination loop shared by executor and planner.

    Repeatedly picks the pending variable with the smallest key
    ``(len(combined support), len(cluster), var)`` — the combined
    support being the union of the supports of the clusters that
    mention it — and hands its cluster (ids in ascending order) and the
    sorted pending variables local to that cluster to ``merge``, which
    does the caller's work and returns the merged support stored under
    ``new_id``.  ``supports`` and ``by_var`` are updated in place; the
    next free id is returned.  Pending variables are the ``candidates``
    some live support mentions.

    Keys live in a lazy min-heap.  A merge can only change the key of a
    variable in the retired clusters' supports (the merged support is a
    subset of their union), so only those pending variables are
    re-keyed — and only they can become local or vanish from every
    support.  The key is a total order, so every pick equals the pick of
    a full ``min`` rescan over all pending variables.
    """

    def key(var: int) -> Tuple[int, int, int]:
        ids = by_var[var]
        union = frozenset().union(*(supports[i] for i in ids))
        return (len(union), len(ids), var)

    pending = {v for v in candidates if v in by_var}
    keys = {v: key(v) for v in pending}
    heap = list(keys.values())
    heapq.heapify(heap)
    while pending:
        entry = heapq.heappop(heap)
        var = entry[2]
        if var not in pending or keys[var] != entry:
            continue  # stale: var already eliminated or re-keyed since
        cluster_ids = sorted(by_var[var])
        cluster_id_set = set(cluster_ids)
        touched = pending & frozenset().union(*(supports[i] for i in cluster_ids))
        local = tuple(sorted(v for v in touched if by_var[v] <= cluster_id_set))
        merged = merge(cluster_ids, local, next_id)
        for cid in cluster_ids:
            for v in supports.pop(cid):
                ids = by_var[v]
                ids.discard(cid)
                if not ids:
                    del by_var[v]
        supports[next_id] = merged
        for v in merged:
            by_var.setdefault(v, set()).add(next_id)
        next_id += 1
        pending.difference_update(local)
        for v in touched:
            if v not in pending:
                continue
            if v in by_var:
                keys[v] = k = key(v)
                heapq.heappush(heap, k)
            else:
                pending.discard(v)
    return next_id


# ----------------------------------------------------------------------
# Component-cached projection (CTL atoms over combinational nets)
# ----------------------------------------------------------------------

@dataclass
class Projection:
    """Outcome of one :meth:`ComponentProjector.project` call."""

    node: int
    #: Components the projected operand's support reaches.
    touched: int
    #: Untouched components answered from the cache (not recomputed).
    reused: int


class ComponentProjector:
    """``∃(vars − keep). f ∧ ∧pool`` for a fixed pool and many ``f``.

    The pool is split (union-find) into components connected through
    variables outside ``keep``.  Existential quantification distributes
    over conjuncts whose quantified supports are disjoint, so

        ∃Q. f ∧ ∧pool = (∃Q. f ∧ ∧touched) ∧ ∧(∃Q. component)

    where ``touched`` are the components sharing a quantified variable
    with ``f`` and the right-hand product runs over all others.  Each
    component's projection is computed once, on first need, and kept as
    a registered GC root named ``<root_prefix>.<k>``; a call then only
    multiplies the components ``f`` touches.  The result is the same
    canonical node as projecting the whole pool.
    """

    def __init__(
        self,
        bdd: BDD,
        pool: Sequence[Conjunct],
        keep: Iterable[int],
        root_prefix: str,
    ):
        self.bdd = bdd
        self.keep = frozenset(keep)
        self.root_prefix = root_prefix
        parent = list(range(len(pool)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner: Dict[int, int] = {}
        for i, c in enumerate(pool):
            for v in c.support - self.keep:
                parent[find(i)] = find(owner.setdefault(v, i))
        members: Dict[int, List[Conjunct]] = {}
        for i, c in enumerate(pool):
            members.setdefault(find(i), []).append(c)
        self.components: List[List[Conjunct]] = list(members.values())
        self._component_of: Dict[int, int] = {
            v: k
            for k, component in enumerate(self.components)
            for c in component
            for v in c.support - self.keep
        }
        self._projected: Dict[int, int] = {}

    def _project(self, conjuncts: Sequence[Conjunct]) -> int:
        quantify = frozenset().union(*(c.support for c in conjuncts)) - self.keep
        return multiply_and_quantify(
            self.bdd, conjuncts, set(quantify), method="greedy"
        ).node

    def project(self, node: int) -> Projection:
        """Project ``node ∧ ∧pool`` onto ``keep``."""
        bdd = self.bdd
        support = frozenset(bdd.support(node))
        touched = {self._component_of[v] for v in support if v in self._component_of}
        reused = 0
        # The operand is only a local here; keep it alive across the
        # safe points of the component projections computed below.
        bdd.register_root(f"{self.root_prefix}.operand", node)
        try:
            for k, component in enumerate(self.components):
                if k in touched:
                    continue
                if k in self._projected:
                    reused += 1
                    continue
                self._projected[k] = self._project(component)
                bdd.register_root(f"{self.root_prefix}.{k}", self._projected[k])
            group = [Conjunct(node, support, "atom")] + [
                c for k in sorted(touched) for c in self.components[k]
            ]
            product = self._project(group)
        finally:
            bdd.deregister_root(f"{self.root_prefix}.operand")
        others = (p for k, p in self._projected.items() if k not in touched)
        return Projection(
            node=bdd.conj(itertools.chain([product], others)),
            touched=len(touched),
            reused=reused,
        )


# ----------------------------------------------------------------------
# Reusable schedules (partitioned image computation)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PlanStep:
    """One planned merge: conjoin ``merge`` slots, quantify ``quantify``.

    ``merge`` lists input slots in execution order (smallest planned
    support first, mirroring the greedy executor); the product lands in
    slot ``result``.
    """

    merge: Tuple[int, ...]
    quantify: Tuple[int, ...]
    result: int


@dataclass
class ImageSchedule:
    """A frozen greedy schedule, replayable against fresh conjunct BDDs.

    ``inputs`` is the number of input slots; ``steps`` the planned
    merges; ``tail`` the slots conjoined (without quantification) at the
    end, in execution order.
    """

    inputs: int
    steps: List[PlanStep]
    tail: Tuple[int, ...]


def plan_schedule(
    supports: Sequence[FrozenSet[int]],
    quantify: Set[int],
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> ImageSchedule:
    """Plan a greedy multiply-and-quantify from supports alone.

    The greedy heuristic's cost function depends only on conjunct
    supports, so the whole elimination order can be fixed without
    touching a single BDD.  Planned supports of merged clusters are the
    union minus the quantified variables — a superset of the true BDD
    support, which keeps early quantification sound (a variable is only
    scheduled once every conjunct that *could* mention it has been
    merged; quantifying a variable absent from the product is the
    identity).

    ``groups`` (optional) lists slot-index groups that should be
    clustered first — e.g. the conjuncts of one hierarchy instance
    (:attr:`EncodedNetwork.conjunct_groups`).  For each group, every
    quantifiable variable mentioned *only* inside that group (an
    instance-private wire) is eliminated within the group before the
    global phase runs over the per-group products plus the ungrouped
    slots.  On replicated designs the groups are isomorphic, so each
    instance collapses to the same small cross-instance interface and
    the global elimination never interleaves unrelated instances.
    """
    table: Dict[int, FrozenSet[int]] = {
        i: frozenset(s) for i, s in enumerate(supports)
    }
    by_var = _index(table)
    steps: List[PlanStep] = []
    next_slot = len(table)
    if groups:
        for group in groups:
            slots = {s for s in group if s in table}
            if not slots:
                continue
            mentioned = frozenset().union(*(table[s] for s in slots))
            private = [
                v for v in mentioned.intersection(quantify) if by_var[v] <= slots
            ]
            next_slot = _plan_greedy_phase(
                table, by_var, private, steps, next_slot, allowed=slots
            )
    _plan_greedy_phase(table, by_var, quantify, steps, next_slot, allowed=None)
    tail = tuple(sorted(table, key=lambda slot: len(table[slot])))
    return ImageSchedule(inputs=len(supports), steps=steps, tail=tail)


def _plan_greedy_phase(
    table: Dict[int, FrozenSet[int]],
    by_var: Dict[int, Set[int]],
    candidates: Iterable[int],
    steps: List[PlanStep],
    next_slot: int,
    allowed: Optional[Set[int]],
) -> int:
    """One greedy elimination phase over ``candidates``; returns next slot.

    Mutates the shared planner state.  ``allowed`` (group phases)
    restricts clustering to a slot set; merge results join it, so the
    invariant ``by_var[v] <= allowed`` holds for the phase's pending
    variables throughout.
    """

    def merge(
        cluster_ids: List[int], local: Tuple[int, ...], new_slot: int
    ) -> FrozenSet[int]:
        ordered = sorted(cluster_ids, key=lambda slot: len(table[slot]))
        steps.append(PlanStep(merge=tuple(ordered), quantify=local, result=new_slot))
        if allowed is not None:
            allowed.add(new_slot)
        union = frozenset().union(*(table[slot] for slot in cluster_ids))
        return union - frozenset(local)

    return _eliminate(table, by_var, candidates, next_slot, merge)


def execute_schedule(
    bdd: BDD, nodes: Sequence[int], schedule: ImageSchedule
) -> QuantifyResult:
    """Replay a planned schedule against concrete conjunct BDDs.

    ``nodes[i]`` fills input slot ``i``; the slot count must match the
    plan.  No scheduling decisions are made here — this is the cheap
    per-iteration half of a plan-once/run-many partitioned image.

    Steps execute in dependency *waves*: every step whose merge slots
    are all filled is issued together — the merge prefixes tree-reduce
    jointly through :func:`_reduce_and` and the fused relational
    products go out as one :meth:`BDD.and_exists_many` frontier.  The
    wave structure (and therefore every intermediate product and the
    recorded peak) is identical whether the kernel runs it batched or
    scalar; GC safe-points sit between waves, never inside one.
    """
    if len(nodes) != schedule.inputs:
        raise ValueError(
            f"schedule expects {schedule.inputs} conjuncts, got {len(nodes)}"
        )
    result = QuantifyResult(node=bdd.true, peak_size=1)
    slots: Dict[int, int] = dict(enumerate(nodes))
    remaining = list(schedule.steps)
    while remaining:
        ready = [s for s in remaining if all(i in slots for i in s.merge)]
        if not ready:  # defensive: a well-formed plan always progresses
            raise ValueError("image schedule has an unsatisfiable step")
        remaining = [s for s in remaining if not all(i in slots for i in s.merge)]
        # exists vars . (s_0 & ... & s_k-2) & s_k-1, one request per step;
        # single-slot merges degenerate to exists vars . TRUE & s_0.
        prefixes = _reduce_and(
            bdd, result,
            [[slots[i] for i in step.merge[:-1]] for step in ready],
        )
        products = bdd.and_exists_many(
            (prefix, slots[step.merge[-1]], step.quantify)
            for step, prefix in zip(ready, prefixes)
        )
        for step, product in zip(ready, products):
            size = bdd.size(product)
            result.peak_size = max(result.peak_size, size)
            _record_step(
                bdd, result,
                tuple(f"s{i}" for i in step.merge), step.quantify, size,
            )
            for i in step.merge:
                del slots[i]
            slots[step.result] = product
        bdd.maybe_gc(extra_roots=list(slots.values()))
    [product] = _reduce_and(bdd, result, [[slots[i] for i in schedule.tail]])
    bdd.maybe_gc(extra_roots=list(slots.values()) + [product])
    result.node = product
    return result
