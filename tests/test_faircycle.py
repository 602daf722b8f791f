"""Tests for the fair-cycle engine on hand-built graphs.

Graphs are encoded as tiny BLIF-MV machines so the engine is exercised
through exactly the same interface the checkers use.
"""

from types import SimpleNamespace

import pytest

from repro.automata.fairness import (
    BuchiEdge,
    BuchiState,
    FairnessSpec,
    NegativeStateSet,
    StreettPair,
)
from repro.blifmv import flatten, parse
from repro.ctl import ModelChecker, parse_ctl
from repro.lc.faircycle import (
    FairGraph,
    _check_scc,
    all_fair_states,
    effective_cycle_relation,
    fair_hull,
    find_fair_scc,
)
from repro.models import mdlc
from repro.network import SymbolicFsm
from repro.trace import Tracer


def machine(rows, nvalues, reset="0"):
    """A one-latch machine with the given transition rows."""
    body = "\n".join(rows)
    text = f"""
.model g
.mv s,n {nvalues}
.table s -> n
{body}
.latch n s
.reset s
{reset}
"""
    fsm = SymbolicFsm(flatten(parse(text)))
    fsm.build_transition()
    return fsm


def states_of(fsm, bdd_set):
    return {s["s"] for s in fsm.states_iter(bdd_set)}


class TestNoFairness:
    def test_hull_is_infinite_path_closure(self):
        # 0 -> 1 -> 2 -> 1 (cycle {1,2}); 3 deadlocks.  The hull
        # (nu Z . EX Z) keeps exactly the states with an infinite path:
        # the cycle plus the transient state 0 leading into it.
        fsm = machine(["0 1", "1 2", "2 1"], 4)
        graph = FairGraph(fsm)
        spec = FairnessSpec().normalize(fsm.bdd, fsm.bdd.true)
        hull = fair_hull(graph, spec, fsm.bdd.true)
        assert states_of(fsm, hull) == {"0", "1", "2"}

    def test_find_fair_scc_plain_cycle(self):
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec().normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, spec, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"1", "2"}

    def test_self_loop_counts_as_cycle(self):
        fsm = machine(["0 0"], 2)
        graph = FairGraph(fsm)
        spec = FairnessSpec().normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, spec, fsm.reachable().reached)
        assert scc is not None


class TestBuchi:
    def test_buchi_state_satisfiable(self):
        # cycle {1,2}; Büchi on state 2 is satisfiable
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([BuchiState(fsm.var("s").literal("2"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is not None

    def test_buchi_state_unsatisfiable(self):
        # cycle {1,2}; Büchi on unreachable-in-cycle state 0
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([BuchiState(fsm.var("s").literal("0"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None

    def test_generalized_buchi_needs_all(self):
        # two disjoint cycles {1} and {2}; Büchi on 1 AND on 2 unsatisfiable
        fsm = machine(["0 (1,2)", "1 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            BuchiState(fsm.var("s").literal("1")),
            BuchiState(fsm.var("s").literal("2")),
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None
        # each alone is satisfiable
        for value in ("1", "2"):
            single = FairnessSpec([BuchiState(fsm.var("s").literal(value))])
            assert find_fair_scc(
                graph, single.normalize(fsm.bdd, fsm.bdd.true),
                fsm.reachable().reached
            ) is not None

    def test_negative_state_set(self):
        # self-loops on 1 and 2; negative constraint on {1} kills cycle at 1
        fsm = machine(["0 (1,2)", "1 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([NegativeStateSet(fsm.var("s").literal("1"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"2"}

    def test_buchi_edge(self):
        # Büchi on the 1->2 edge: satisfied by the {1,2} cycle
        fsm = machine(["0 1", "1 2", "2 1", "2 2"], 3)
        graph = FairGraph(fsm)
        s, sn = fsm.var("s"), fsm.var("s#n")
        edge = fsm.bdd.and_(s.literal("1"), sn.literal("2"))
        spec = FairnessSpec([BuchiEdge(edge)])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"1", "2"}


class TestStreett:
    def _edge(self, fsm, src, dst):
        return fsm.bdd.and_(fsm.var("s").literal(src),
                            fsm.var("s#n").literal(dst))

    def test_streett_satisfied_by_avoidance(self):
        # cycle {1,2}; pair (E=1->2 edge, F=unsat): cycle must avoid 1->2.
        # Alternative self loop on 2 avoids it.
        fsm = machine(["0 1", "1 2", "2 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        assert states_of(fsm, scc.states) == {"2"}

    def test_streett_unsatisfiable(self):
        # only cycle is 1->2->1; E = 1->2 unavoidable, F unsatisfiable
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        assert find_fair_scc(graph, norm, fsm.reachable().reached) is None

    def test_streett_satisfied_by_f(self):
        # E = 1->2 unavoidable but F = 2->1 also taken: pair satisfied
        fsm = machine(["0 1", "1 2", "2 1"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=self._edge(fsm, "2", "1"))
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached)
        assert scc is not None
        # F must be listed as a required edge for the witness
        assert any(e != fsm.bdd.false for e, _l in scc.required_edges)

    def test_effective_relation_deletes_unsat_pairs(self):
        fsm = machine(["0 1", "1 2", "2 1", "2 2"], 3)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "1", "2"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        t_eff, residual = effective_cycle_relation(graph, norm)
        assert not residual.streett
        assert fsm.bdd.and_(t_eff, self._edge(fsm, "1", "2")) == fsm.bdd.false

    def test_streett_edge_removal_recursion(self):
        # SCC {1,2,3}: 1->2->3->1, plus 2->2 self loop.
        # Pair (E = 3->1, F = unsat): must avoid 3->1; the surviving
        # subgraph has the 2->2 cycle.
        fsm = machine(["0 1", "1 2", "2 3", "2 2", "3 1"], 4)
        graph = FairGraph(fsm)
        spec = FairnessSpec([
            StreettPair(e=self._edge(fsm, "3", "1"), f=fsm.bdd.false)
        ])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        scc = find_fair_scc(graph, norm, fsm.reachable().reached, use_hull=False)
        assert scc is not None
        assert states_of(fsm, scc.states) <= {"1", "2", "3"}
        # the witness cycle cannot contain the deleted edge
        assert fsm.bdd.and_(scc.trans, self._edge(fsm, "3", "1")) == fsm.bdd.false


class TestFairStates:
    def test_all_fair_states_buchi(self):
        # 0 -> 1 -> 2 -> 1 and 0 -> 3 -> 3; Büchi on 2.
        fsm = machine(["0 (1,3)", "1 2", "2 1", "3 3"], 4)
        graph = FairGraph(fsm)
        spec = FairnessSpec([BuchiState(fsm.var("s").literal("2"))])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        fair = all_fair_states(graph, norm, fsm.bdd.true)
        assert states_of(fsm, fair) == {"0", "1", "2"}

    def test_all_fair_states_streett_exact(self):
        # state 3 self-loop uses E without F: not fair; {1,2} cycle is.
        fsm = machine(["0 (1,3)", "1 2", "2 1", "3 3"], 4)
        graph = FairGraph(fsm)
        e33 = fsm.bdd.and_(fsm.var("s").literal("3"), fsm.var("s#n").literal("3"))
        e12 = fsm.bdd.and_(fsm.var("s").literal("1"), fsm.var("s#n").literal("2"))
        spec = FairnessSpec([StreettPair(e=e33, f=e12)])
        norm = spec.normalize(fsm.bdd, fsm.bdd.true)
        fair = all_fair_states(graph, norm, fsm.bdd.true)
        assert states_of(fsm, fair) == {"0", "1", "2"}

    def test_all_mode_emits_counters_and_trace(self):
        fsm = machine(["0 (1,3)", "1 2", "2 1", "3 3"], 4)
        fsm.stats.tracer = Tracer()
        graph = FairGraph(fsm)
        e33 = fsm.bdd.and_(fsm.var("s").literal("3"), fsm.var("s#n").literal("3"))
        e12 = fsm.bdd.and_(fsm.var("s").literal("1"), fsm.var("s#n").literal("2"))
        norm = FairnessSpec([StreettPair(e=e33, f=e12)]).normalize(
            fsm.bdd, fsm.bdd.true)
        all_fair_states(graph, norm, fsm.bdd.true)
        seeds = fsm.stats.counter("scc_seeds")
        assert seeds >= 1
        assert fsm.stats.counter("fair_sccs") == 1
        assert fsm.stats.counter("scc_trim_rounds") >= seeds
        events = [e for e in fsm.stats.tracer.events if e["name"] == "lc.scc"]
        assert len(events) == seeds
        assert all(e["args"]["mode"] == "all" for e in events)
        assert [e["args"]["fair"] for e in events].count(True) == 1
        assert "scc_seeds: " in fsm.stats.format()
        assert find_fair_scc(graph, norm, fsm.bdd.true) is not None
        events = [e for e in fsm.stats.tracer.events if e["name"] == "lc.scc"]
        assert events[seeds:] and all(
            e["args"]["mode"] == "first" for e in events[seeds:])


# -- 2mdlc: the Table-1 design whose fair CTL runs under Streett fairness --


def reference_all_fair_states(graph, fairness, space):
    """The fair-state loop used before the Xie-Beerel enumerator gained
    its "all" mode: one seed at a time over the whole hull, no trim, no
    split, no pruning by closure; backward closure of the fair cores."""
    bdd = graph.bdd
    t_eff, residual = effective_cycle_relation(graph, fairness)
    hull = fair_hull(graph, residual, space, trans=t_eff)
    region = bdd.and_(space, graph.space)
    if not residual.streett:
        return graph.backward_within(region, hull, graph.trans)
    rest = hull
    cores = bdd.false
    while rest != bdd.false:
        seed = graph.pick_state(rest)
        if seed is None:
            break
        fwd = graph.forward_within(rest, seed, t_eff)
        bwd = graph.backward_within(rest, seed, t_eff)
        scc = bdd.and_(fwd, bwd)
        if _check_scc(graph, scc, t_eff, residual) is not None:
            cores = bdd.or_(cores, scc)
        rest = bdd.diff(rest, scc)
    return graph.backward_within(region, cores, graph.trans)


@pytest.fixture(scope="module")
def mdlc1():
    """2mdlc at width 1 with a memoized reference fair-state loop."""
    spec = mdlc.spec(width=1)
    fsm = SymbolicFsm(spec.flat())
    fsm.build_transition()
    reached = fsm.reachable().reached
    memo = {}

    def reference(graph, fairness, space):
        if space not in memo:
            memo[space] = reference_all_fair_states(graph, fairness, space)
        return memo[space]

    def checker():
        return ModelChecker(
            fsm, fairness=spec.pif.bind_fairness(fsm), reached=reached)

    return SimpleNamespace(fsm=fsm, reference=reference, checker=checker)


class TestMdlcFairStates:
    """Fair states of 2mdlc under its own Streett and negative fairness."""

    @pytest.mark.parametrize("region", [None, "fvalid=1 | sstate=s_send", "sbit=0"])
    def test_handles_match_reference_loop(self, mdlc1, region):
        mc = mdlc1.checker()
        space = mc.space if region is None else mc.eval(parse_ctl(region))
        fair = all_fair_states(mc.graph, mc.normalized, space)
        assert fair == mdlc1.reference(mc.graph, mc.normalized, space)
        if region != "sbit=0":
            assert fair != mdlc1.fsm.bdd.false

    def test_fair_ctl_needs_few_seeds(self):
        # 140 reachable states, but the old loop seeded 3,921 SCCs over the
        # whole state domain; closure pruning needs a handful.
        spec = mdlc.spec(width=1)
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition()
        mc = ModelChecker(fsm, fairness=spec.pif.bind_fairness(fsm),
                          reached=fsm.reachable().reached)
        (name, formula), = spec.pif.ctl_props
        assert mc.check(formula).holds
        assert 1 <= fsm.stats.counter("scc_seeds") <= 5
        assert fsm.stats.counter("fair_sccs") >= 1

    @pytest.mark.parametrize("text", [
        "AG fvalid=0",
        "EF EG sstate=s_wait",
        "AG EF EG sbit=0",
    ])
    def test_failing_fair_ctl_matches_reference(self, mdlc1, monkeypatch, text):
        formula = parse_ctl(text)
        mc = mdlc1.checker()
        result = mc.check(formula)
        assert result.holds is False
        assert not result.used_fast_path
        monkeypatch.setattr(
            "repro.ctl.modelcheck.all_fair_states", mdlc1.reference)
        ref = mdlc1.checker()
        assert ref.eval(formula) == result.satisfying
        assert ref.fair_states() == mc.fair_states()
