"""Fair-cycle detection: the BDD-based core of language emptiness and
fair CTL (paper §5.3).

Both language containment and fair CTL model checking reduce to *cycle
exploration*: does a reachable cycle exist that satisfies all fairness
constraints?  Following HSIS (which builds on Emerson-Lei [10] and the
efficient ω-regular containment operators of Hojati et al. [17]), the
engine works in two phases:

1. **Hull computation** (:func:`fair_hull`) — an Emerson-Lei-style
   greatest fixpoint that prunes the state space to an over-approximation
   of the states lying on fair cycles.  For pure (generalized) Büchi
   fairness the hull is exact: every hull state starts a fair path inside
   the hull.
2. **SCC refinement** (:func:`find_fair_scc`) — exact emptiness for
   Streett conditions via symbolic SCC enumeration (forward/backward
   closure from a seed state) with the classic Streett edge-removal
   recursion: an SCC containing ``E``-edges but no ``F``-edge cannot use
   those ``E``-edges, so they are deleted and the sub-SCCs re-examined.
   The same trimmed Xie-Beerel enumerator also yields every fair state
   for fair CTL (:func:`all_fair_states`).

Edge sets are BDDs over (present, next) state bits and are always
interpreted intersected with the transition relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.automata.fairness import NormalizedFairness
from repro.bdd.manager import BDD
from repro.bdd.ops import minterm


class FairGraph:
    """Symbolic graph view of a :class:`~repro.network.fsm.SymbolicFsm`.

    Bundles the rename maps and quantification cubes needed for
    restricted forward/backward images over arbitrary sub-relations.
    """

    def __init__(self, fsm, trans: Optional[int] = None):
        self.fsm = fsm
        self.bdd: BDD = fsm.bdd
        self.trans: int = fsm.require_transition() if trans is None else trans
        self._x_cube = fsm.x_cube()
        self._y_cube = fsm.y_cube()
        self._x_to_y = fsm.x_to_y()
        self._y_to_x = fsm.y_to_x()
        self.space: int = fsm.state_domain()
        self.stats = fsm.stats
        # The graph's fixed nodes must survive any auto-GC safe point.
        self.bdd.register_root("graph.trans", self.trans)
        self.bdd.register_root("graph.x_cube", self._x_cube)
        self.bdd.register_root("graph.y_cube", self._y_cube)
        self.bdd.register_root("graph.space", self.space)

    # -- primitive images ------------------------------------------------

    def post(self, states: int, trans: Optional[int] = None) -> int:
        """Successor states of ``states`` under ``trans``."""
        t = self.trans if trans is None else trans
        nxt = self.bdd.and_exists(t, states, self._x_cube)
        return self.bdd.rename(nxt, self._y_to_x, strict=False)

    def pre(self, states: int, trans: Optional[int] = None) -> int:
        """Predecessor states of ``states`` under ``trans``."""
        t = self.trans if trans is None else trans
        primed = self.bdd.rename(states, self._x_to_y, strict=False)
        return self.bdd.and_exists(t, primed, self._y_cube)

    def restrict(self, trans: int, states: int) -> int:
        """Edges with both endpoints inside ``states``."""
        bdd = self.bdd
        primed = bdd.rename(states, self._x_to_y, strict=False)
        return bdd.and_(bdd.and_(trans, states), primed)

    def edge_sources(self, edges: int, trans: int) -> int:
        """States with an outgoing edge in ``edges`` (within ``trans``)."""
        return self.bdd.exist(self._y_cube, self.bdd.and_(trans, edges))

    def prime(self, states: int) -> int:
        return self.bdd.rename(states, self._x_to_y, strict=False)

    def unprime(self, states: int) -> int:
        return self.bdd.rename(states, self._y_to_x, strict=False)

    # -- closures ----------------------------------------------------------

    def backward_within(self, region: int, target: int, trans: int) -> int:
        """States of ``region`` with a path inside ``region`` to ``target``.

        Frontier-based: each step takes the preimage of the newly added
        states only, which keeps the per-iteration BDD work proportional
        to the frontier rather than the accumulated set.
        """
        bdd = self.bdd
        reach = bdd.and_(target, region)
        frontier = reach
        while frontier != bdd.false:
            frontier = bdd.diff(bdd.and_(self.pre(frontier, trans), region), reach)
            reach = bdd.or_(reach, frontier)
        return reach

    def forward_within(self, region: int, source: int, trans: int) -> int:
        """States of ``region`` reachable from ``source`` inside ``region``."""
        bdd = self.bdd
        reach = bdd.and_(source, region)
        frontier = reach
        while frontier != bdd.false:
            frontier = bdd.diff(bdd.and_(self.post(frontier, trans), region), reach)
            reach = bdd.or_(reach, frontier)
        return reach

    def invariant_core(self, region: int, trans: int) -> int:
        """Greatest subset of ``region`` where every state has a successor
        inside the subset (nu Z. region & pre(Z))."""
        bdd = self.bdd
        z = region
        while True:
            nz = bdd.and_(z, self.pre(z, trans))
            if nz == z:
                return z
            z = nz

    def pick_state(self, states: int) -> Optional[int]:
        """One concrete state of ``states`` as a minterm BDD (None if empty)."""
        bdd = self.bdd
        constrained = bdd.and_(states, self.space)
        cube = bdd.pick_cube(constrained, self.fsm.x_bits())
        if cube is None:
            return None
        return minterm(bdd, cube)


# ----------------------------------------------------------------------
# Hull (Emerson-Lei fixpoint)
# ----------------------------------------------------------------------


def effective_cycle_relation(
    graph: FairGraph, fairness: NormalizedFairness
) -> Tuple[int, NormalizedFairness]:
    """Preprocess fairness into ``(cycle_relation, residual_fairness)``.

    A Streett pair ``inf(E) -> inf(F)`` with ``F`` unsatisfiable means a
    fair cycle may not contain *any* ``E``-edge (it would occur
    infinitely often with no ``F`` to compensate), so those edges are
    deleted from the relation used for cycle detection — prefixes may
    still use them.  This is exact and collapses the search for the very
    common "complemented recurrence acceptance" case: instead of hull
    refinement over thousands of tiny SCCs, the constraint disappears
    into the graph.
    """
    bdd = graph.bdd
    t_eff = graph.trans
    residual = NormalizedFairness(buchi=list(fairness.buchi), streett=[])
    for e_set, f_set, label in fairness.streett:
        if bdd.and_(graph.trans, f_set) == bdd.false:
            t_eff = bdd.diff(t_eff, e_set)
        else:
            residual.streett.append((e_set, f_set, label))
    return t_eff, residual


def fair_hull(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
    trans: Optional[int] = None,
) -> int:
    """Emerson-Lei hull: over-approximation of the fair-cycle states.

    Exact for generalized Büchi; an upper bound in the presence of
    Streett pairs (refined by :func:`find_fair_scc`).  With no fairness
    constraints at all this degenerates to "states on or leading to some
    cycle" (``nu Z . EX Z``), which is what plain infinite behaviour
    requires.

    Implementation notes: each fairness term's ``T & edges`` conjunction
    is precomputed once; paths "within Z" never materialize the
    restricted relation ``T & Z & Z'`` — preimages over the full relation
    intersected with ``Z`` are equivalent whenever the targets lie inside
    ``Z``, and much cheaper.
    """
    bdd = graph.bdd
    z = bdd.and_(space, graph.space)
    t = graph.trans if trans is None else trans
    buchi_trans = [bdd.and_(t, edges) for edges, _label in fairness.buchi]
    if any(tb == bdd.false for tb in buchi_trans):
        return bdd.false  # a required edge set has no edges at all
    streett_f_trans = [bdd.and_(t, f) for _e, f, _label in fairness.streett]
    streett_avoid_trans = [bdd.diff(t, e) for e, _f, _label in fairness.streett]

    def sources_within(trans_subset: int, region: int) -> int:
        """States of ``region`` with a ``trans_subset`` edge into ``region``."""
        return bdd.and_(region, graph.pre(region, trans_subset))

    while True:
        old = z
        # Every hull state needs a successor inside the hull.
        z = bdd.and_(z, graph.pre(z, t))
        for tb in buchi_trans:
            target = sources_within(tb, z)
            z = graph.backward_within(z, target, t)
        for tf, t_avoid in zip(streett_f_trans, streett_avoid_trans):
            target_f = sources_within(tf, z)
            avoid = graph.invariant_core(z, t_avoid)
            z = graph.backward_within(z, bdd.or_(target_f, avoid), t)
        if z == old:
            return z


# ----------------------------------------------------------------------
# Exact SCC-based search (Streett refinement, Xie-Beerel enumeration)
# ----------------------------------------------------------------------


@dataclass
class FairScc:
    """A fair strongly connected subgraph, with witness requirements.

    ``required_edges`` lists the symbolic edge sets a witness cycle must
    traverse (each Büchi set, plus the ``F`` side of every Streett pair
    whose ``E`` side occurs in the subgraph); the debugger threads a lasso
    through all of them.
    """

    states: int
    trans: int
    required_edges: List[Tuple[int, str]] = field(default_factory=list)


def _check_scc(
    graph: FairGraph,
    scc: int,
    trans: int,
    fairness: NormalizedFairness,
    depth: int = 0,
) -> Optional[FairScc]:
    bdd = graph.bdd
    t_scc = graph.restrict(trans, scc)
    if t_scc == bdd.false:
        return None
    for edges, _label in fairness.buchi:
        if bdd.and_(t_scc, edges) == bdd.false:
            return None
    removable = bdd.false
    for e_set, f_set, _label in fairness.streett:
        if (
            bdd.and_(t_scc, e_set) != bdd.false
            and bdd.and_(t_scc, f_set) == bdd.false
        ):
            removable = bdd.or_(removable, e_set)
    if removable != bdd.false:
        # Offending E-edges cannot appear on any fair cycle here: delete
        # them and re-decompose.
        pruned = bdd.diff(t_scc, removable)
        return _enumerate_sccs(graph, scc, pruned, fairness, depth + 1)
    required: List[Tuple[int, str]] = []
    for edges, label in fairness.buchi:
        required.append((bdd.and_(t_scc, edges), label))
    for e_set, f_set, label in fairness.streett:
        if bdd.and_(t_scc, e_set) != bdd.false:
            required.append((bdd.and_(t_scc, f_set), label))
    return FairScc(states=scc, trans=t_scc, required_edges=required)


def _trim(graph: FairGraph, region: int, trans: int) -> int:
    """Shrink ``region`` to states with both a predecessor and a successor
    inside it.  Every SCC state has both within its own SCC, so no SCC is
    lost, while transient fringe states — which would otherwise each cost
    a full seed-and-closure round — disappear in a cheap fixpoint."""
    bdd = graph.bdd
    while True:
        graph.stats.bump("scc_trim_rounds")
        kept = bdd.and_(region, graph.pre(region, trans))
        kept = bdd.and_(kept, graph.post(kept, trans))
        if kept == region:
            return region
        region = kept


def _enumerate_sccs(
    graph: FairGraph,
    region: int,
    trans: int,
    fairness: NormalizedFairness,
    depth: int = 0,
    closure_space: Optional[int] = None,
) -> Union[FairScc, int, None]:
    """Xie-Beerel symbolic SCC enumeration within ``region``.

    Divide and conquer: after carving out ``scc = fwd(seed) & bwd(seed)``
    the remainder splits into ``fwd \\ scc`` and ``region \\ fwd``, which
    contain no SCC spanning both — each part is trimmed and processed
    independently instead of re-sweeping the whole region per seed.

    "first" mode (``closure_space`` None) returns the first fair SCC as a
    :class:`FairScc`, or None.  "all" mode returns every state of
    ``closure_space`` with a fair path inside it: each fair SCC found adds
    its backward closure (under the full relation) to a running ``fair``
    set, which is subtracted from every part before trimming.  A backward
    closure is a union of whole SCCs, so the subtraction splits no
    remaining SCC, and every state it drops already has a fair path —
    the result is exact.  Downstream parts are popped first, so a fair
    sink absorbs every upstream SCC that reaches it in one closure.
    """
    bdd = graph.bdd
    stats = graph.stats
    tracer = stats.tracer
    collect = closure_space is not None
    fair = bdd.false
    stack = [bdd.and_(region, graph.space)]
    while stack:
        part = _trim(graph, bdd.diff(stack.pop(), fair), trans)
        if part == bdd.false:
            continue
        seed = graph.pick_state(part)
        if seed is None:
            continue
        stats.bump("scc_seeds")
        fwd = graph.forward_within(part, seed, trans)
        bwd = graph.backward_within(part, seed, trans)
        scc = bdd.and_(fwd, bwd)
        found = _check_scc(graph, scc, trans, fairness, depth)
        if tracer.enabled:
            tracer.instant(
                "lc.scc", cat="lc",
                mode="all" if collect else "first",
                depth=depth,
                part_nodes=bdd.size(part),
                scc_nodes=bdd.size(scc),
                fair=found is not None,
            )
        if found is not None:
            stats.bump("fair_sccs")
            if not collect:
                return found
            fair = bdd.or_(
                fair, graph.backward_within(closure_space, scc, graph.trans)
            )
        downstream, upstream = bdd.diff(fwd, scc), bdd.diff(part, fwd)
        stack.extend((upstream, downstream) if collect else (downstream, upstream))
    return fair if collect else None


def find_fair_scc(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
    use_hull: bool = True,
) -> Optional[FairScc]:
    """Exact search for a fair strongly connected subgraph within ``space``.

    Returns None iff no cycle within ``space`` satisfies all fairness
    constraints — i.e. the language (restricted to ``space``) is empty.
    The witness cycle uses only the *effective* relation (unsatisfiable
    Streett pairs compiled into edge deletions); the caller's prefix may
    use the full relation.
    """
    t_eff, residual = effective_cycle_relation(graph, fairness)
    region = (
        fair_hull(graph, residual, space, trans=t_eff) if use_hull else space
    )
    bdd = graph.bdd
    region = bdd.and_(region, space)
    if region == bdd.false:
        return None
    return _enumerate_sccs(graph, region, t_eff, residual)


def all_fair_states(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
) -> int:
    """All states of ``space`` from which a fair path inside ``space`` exists.

    For pure Büchi fairness this is ``E[space U hull]`` with the exact
    Emerson-Lei hull.  With Streett pairs the hull may be strict, so the
    hull is decomposed by :func:`_enumerate_sccs` in "all" mode: the
    backward closure of every fair SCC, each one pruned from the search
    as soon as it is found.
    """
    bdd = graph.bdd
    t_eff, residual = effective_cycle_relation(graph, fairness)
    hull = fair_hull(graph, residual, space, trans=t_eff)
    region = bdd.and_(space, graph.space)
    if not residual.streett:
        return graph.backward_within(region, hull, graph.trans)
    return _enumerate_sccs(graph, hull, t_eff, residual, closure_space=region)
