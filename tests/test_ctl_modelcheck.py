"""Model-checker tests, anchored by an explicit-state reference checker.

The reference checker enumerates the machine's states and transitions
explicitly and evaluates CTL by the textbook fixpoint definitions over
sets of concrete states; the symbolic checker must agree on every state.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import FairnessSpec, NegativeStateSet
from repro.blifmv import flatten, parse
from repro.ctl import ModelChecker, check_ctl, parse_ctl
from repro.ctl.ast import (
    AF, AG, AU, AX, And, Atom, EF, EG, EU, EX, Formula, Not, Or, TrueF,
)
from repro.models import GALLERY, get_spec
from repro.network import SymbolicFsm
from repro.network.quantify import (
    ComponentProjector, Conjunct, multiply_and_quantify,
)
from repro.trace.tracer import Tracer


def build(text):
    fsm = SymbolicFsm(flatten(parse(text)))
    fsm.build_transition()
    return fsm


MACHINE = """
.model m
.mv s,n 5
.table s -> n
0 (1,2)
1 3
2 (2,4)
3 0
4 4
.latch n s
.reset s
0
.end
"""


def explicit_graph(fsm):
    """Enumerate (states, transitions) of the machine explicitly."""
    states = [s["s"] for s in fsm.states_iter(fsm.state_domain())]
    succ = {}
    for value in states:
        img = fsm.image(fsm.state_cube({"s": value}))
        succ[value] = {t["s"] for t in fsm.states_iter(img)}
    return states, succ


def explicit_eval(formula: Formula, states, succ):
    """Textbook explicit-state CTL evaluation (no fairness)."""
    if isinstance(formula, TrueF):
        return set(states)
    if isinstance(formula, Atom):
        assert formula.var == "s"
        return {s for s in states if s in formula.values}
    if isinstance(formula, Not):
        return set(states) - explicit_eval(formula.sub, states, succ)
    if isinstance(formula, And):
        return explicit_eval(formula.left, states, succ) & explicit_eval(
            formula.right, states, succ)
    if isinstance(formula, Or):
        return explicit_eval(formula.left, states, succ) | explicit_eval(
            formula.right, states, succ)
    if isinstance(formula, EX):
        target = explicit_eval(formula.sub, states, succ)
        return {s for s in states if succ[s] & target}
    if isinstance(formula, AX):
        target = explicit_eval(formula.sub, states, succ)
        return {s for s in states if succ[s] <= target}
    if isinstance(formula, EF):
        return explicit_eval(EU(TrueF(), formula.sub), states, succ)
    if isinstance(formula, AF):
        return set(states) - explicit_eval(EG(Not(formula.sub)), states, succ)
    if isinstance(formula, AG):
        return set(states) - explicit_eval(
            EU(TrueF(), Not(formula.sub)), states, succ)
    if isinstance(formula, EU):
        hold = explicit_eval(formula.left, states, succ)
        target = explicit_eval(formula.right, states, succ)
        result = set(target)
        changed = True
        while changed:
            changed = False
            for s in states:
                if s in hold and s not in result and succ[s] & result:
                    result.add(s)
                    changed = True
        return result
    if isinstance(formula, EG):
        body = explicit_eval(formula.sub, states, succ)
        result = set(body)
        changed = True
        while changed:
            changed = False
            for s in list(result):
                if not (succ[s] & result):
                    result.discard(s)
                    changed = True
        return result
    if isinstance(formula, AU):
        # A[f U g] = !(E[!g U !f&!g] | EG !g)
        nf = Not(formula.left)
        ng = Not(formula.right)
        bad = explicit_eval(EU(ng, And(nf, ng)), states, succ) | explicit_eval(
            EG(ng), states, succ)
        return set(states) - bad
    raise AssertionError(formula)


def formulas(depth=2):
    atoms = st.sampled_from(
        [Atom("s", (v,)) for v in "01234"]
        + [Atom("s", ("0", "3")), TrueF()]
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(EX, children),
            st.builds(AX, children),
            st.builds(EF, children),
            st.builds(AF, children),
            st.builds(EG, children),
            st.builds(AG, children),
            st.builds(EU, children, children),
            st.builds(AU, children, children),
        )

    return st.recursive(atoms, extend, max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_symbolic_agrees_with_explicit(formula):
    fsm = build(MACHINE)
    checker = ModelChecker(fsm)
    states, succ = explicit_graph(fsm)
    expected = explicit_eval(formula, states, succ)
    sat = checker.eval(formula)
    got = {s["s"] for s in fsm.states_iter(sat)}
    assert got == expected, f"mismatch for {formula}"


class TestCheckApi:
    def test_check_string_formula(self):
        fsm = build(MACHINE)
        result = check_ctl(fsm, "EF s=4")
        assert result.holds

    def test_failing_formula_reports_init(self):
        fsm = build(MACHINE)
        result = check_ctl(fsm, "AG s=0")
        assert not result.holds
        assert result.failing_init != fsm.bdd.false

    def test_invariant_fast_path_used(self):
        fsm = build(MACHINE)
        result = check_ctl(fsm, "AG !(s=4)")  # fails: 4 reachable via 2
        assert result.used_fast_path
        assert not result.holds
        assert result.counterexample_depth is not None

    def test_invariant_fast_path_pass(self):
        fsm = build(MACHINE)
        result = check_ctl(fsm, "AG s{0,1,2,3,4}")
        assert result.used_fast_path
        assert result.holds

    def test_fast_path_agrees_with_slow_path(self):
        for formula in ("AG !(s=4)", "AG s{0,1,2,3,4}", "AG !(s=3)"):
            fsm1 = build(MACHINE)
            fsm2 = build(MACHINE)
            fast = check_ctl(fsm1, formula)
            slow = ModelChecker(fsm2).check(parse_ctl(formula),
                                            fast_invariant=False)
            assert fast.holds == slow.holds

    def test_eval_cache(self):
        fsm = build(MACHINE)
        checker = ModelChecker(fsm)
        f = parse_ctl("EF s=4")
        assert checker.eval(f) == checker.eval(f)


class TestFairCtl:
    def test_fairness_changes_af(self):
        # without fairness AF s=3 fails (can loop 2->2 or park in 4)
        fsm = build(MACHINE)
        assert not check_ctl(fsm, "AF s=1").holds
        # make staying in 2 and in 4 unfair: then from 0, both branches
        # eventually hit 1 (0->1) or leave 2 to 4... 4 is a sink, so AF s=1
        # still fails; but AF s{1,4} becomes true under the constraint.
        fsm2 = build(MACHINE)
        spec = FairnessSpec([
            NegativeStateSet(fsm2.var("s").literal("2"), label="leave2"),
        ])
        assert not check_ctl(fsm2, "AF s{1,4}").holds
        assert check_ctl(fsm2, "AF s{1,4}", fairness=spec).holds

    def test_invariant_fast_path_disabled_under_fairness(self):
        # Found by the differential fuzzer (tests/corpus/seed000013_*):
        # the AG fast path ran forward reachability even with a
        # non-trivial FairnessSpec.  State 4 is reachable but lies on no
        # fair path once parking there is unfair, so fair semantics say
        # AG !(s=4) holds while plain reachability reports a violation.
        fsm = build(MACHINE)
        spec = FairnessSpec([
            NegativeStateSet(fsm.var("s").literal("4"), label="leave4"),
        ])
        checker = ModelChecker(fsm, fairness=spec)
        fast = checker.check("AG !(s=4)")
        slow = checker.check("AG !(s=4)", fast_invariant=False)
        assert not fast.used_fast_path
        assert fast.holds and slow.holds
        # Without fairness the fast path still applies and still fails.
        plain = ModelChecker(build(MACHINE)).check("AG !(s=4)")
        assert plain.used_fast_path and not plain.holds

    def test_fair_eg_excludes_unfair_lassos(self):
        fsm = build(MACHINE)
        spec = FairnessSpec([
            NegativeStateSet(fsm.var("s").literal("4"), label="leave4"),
        ])
        checker = ModelChecker(fsm, fairness=spec)
        # EG s=4 is only witnessed by parking at 4, which is now unfair.
        assert checker.eval(parse_ctl("EG s=4")) == fsm.bdd.false

    def test_fair_states_subset_of_space(self):
        fsm = build(MACHINE)
        spec = FairnessSpec([
            NegativeStateSet(fsm.var("s").literal("4"), label="leave4"),
        ])
        checker = ModelChecker(fsm, fairness=spec)
        fair = checker.fair_states()
        got = {s["s"] for s in fsm.states_iter(fair)}
        # state 4 is a sink: no fair path from it
        assert "4" not in got
        assert got == {"0", "1", "2", "3"}


class TestDontCares:
    def test_dc_option_agrees_on_init(self):
        for formula in ("AG !(s=4)", "EF s=3", "AG EF s=0", "A[ s{0,1,2,3} U s=3 ]"):
            plain = check_ctl(build(MACHINE), formula)
            with_dc = ModelChecker(build(MACHINE), use_dc=True).check(
                parse_ctl(formula), fast_invariant=False)
            assert plain.holds == with_dc.holds, formula


class TestWireAtoms:
    WIRED = """
.model m
.mv s,n 2
.table s -> n
- =s
.table s -> w
0 0
1 (0,1)
.mv w 2
.latch n s
.reset s
0 1
.end
"""

    def test_wire_atom_projects_existentially(self):
        fsm = build(self.WIRED)
        checker = ModelChecker(fsm)
        may_w = checker.eval(parse_ctl("w=1"))
        got = {s["s"] for s in fsm.states_iter(may_w)}
        assert got == {"1"}  # only s=1 can drive w=1

    def test_negated_wire_atom_is_must(self):
        fsm = build(self.WIRED)
        checker = ModelChecker(fsm)
        never_w = checker.eval(parse_ctl("!w=1"))
        got = {s["s"] for s in fsm.states_iter(never_w)}
        assert got == {"0"}


def full_pool_projection(fsm, literal):
    """Reference may-projection: one greedy run over the whole y-free pool."""
    bdd = fsm.bdd
    x_bits = set(fsm.x_bits())
    y_bits = set(fsm.y_bits())
    pool = [c for c in fsm.conjuncts if not (c.support & y_bits)]
    pool.append(Conjunct(literal, frozenset(bdd.support(literal)), "atom"))
    quantify = set().union(*(c.support for c in pool)) - x_bits
    return multiply_and_quantify(bdd, pool, quantify, method="greedy").node


def formula_atoms(formula):
    if isinstance(formula, Atom):
        yield formula
    for child in vars(formula).values():
        if isinstance(child, Formula):
            yield from formula_atoms(child)


def wire_atoms(fsm, pif=None):
    """The property atoms over combinational nets, then one per other net."""
    state = {v.name for v in fsm.x_vars()} | {v.name for v in fsm.y_vars()}
    atoms = [
        atom
        for _, formula in (pif.ctl_props if pif is not None else ())
        for atom in formula_atoms(formula)
        if atom.var not in state
    ]
    seen = {atom.var for atom in atoms}
    atoms += [
        Atom(var.name, (var.values[-1],))
        for var in fsm.mdd.variables
        if var.name not in state and var.name not in seen
    ]
    return list(dict.fromkeys(atoms))


PARITY_DESIGNS = [(name, {}) for name in sorted(GALLERY)] + [
    (name, {"n": 4}) for name in ("philos_hier", "scheduler_hier", "gigamax_hier")
]


class TestComponentCachedAtoms:
    @pytest.mark.parametrize(
        "name,params", PARITY_DESIGNS, ids=[n for n, _ in PARITY_DESIGNS]
    )
    def test_atoms_match_full_pool_projection(self, name, params):
        spec = get_spec(name, **params)
        fsm = SymbolicFsm(spec.elaborate())
        fsm.build_transition()
        checker = ModelChecker(fsm)
        bdd = fsm.bdd
        atoms = wire_atoms(fsm, spec.pif)
        assert atoms
        for atom in atoms:
            # Only registered roots survive: the cached component
            # projections must be among them.
            bdd.gc()
            got = checker._atom_states(atom)
            want = bdd.and_(
                full_pool_projection(fsm, fsm.var(atom.var).literal(atom.values)),
                checker.space,
            )
            assert got == want, atom
        assert fsm.stats.counter("atom_projections") == len(atoms)

    def test_whole_pool_projection_is_not_true(self):
        """The cached projections carry constraints; dropping them is wrong."""
        fsm = SymbolicFsm(get_spec("philos_hier", n=4).elaborate())
        assert full_pool_projection(fsm, fsm.bdd.true) != fsm.bdd.true
        checker = ModelChecker(fsm)
        checker._atom_states(wire_atoms(fsm)[0])
        projected = checker._projector._projected.values()
        assert any(node != fsm.bdd.true for node in projected)

    def test_operand_spanning_two_components(self):
        fsm = SymbolicFsm(get_spec("philos_hier", n=4).elaborate())
        bdd = fsm.bdd
        x_bits = set(fsm.x_bits())
        y_bits = set(fsm.y_bits())
        pool = [c for c in fsm.conjuncts if not (c.support & y_bits)]
        projector = ComponentProjector(bdd, pool, x_bits, "test.atom")
        by_component = {}
        for atom in wire_atoms(fsm):
            var = fsm.var(atom.var)
            k = projector._component_of.get(var.bits[0])
            if k is not None:
                by_component.setdefault(k, var.literal(atom.values))
        assert len(by_component) >= 2
        first, second = list(by_component.values())[:2]
        operand = bdd.or_(first, second)
        projection = projector.project(operand)
        assert projection.touched == 2
        assert projection.reused == 0  # first call computes every other one
        assert projection.node == full_pool_projection(fsm, operand)
        again = projector.project(operand)
        assert again.node == projection.node
        assert again.reused == len(projector.components) - 2


def test_atom_counters_and_trace_instant():
    fsm = build(TestWireAtoms.WIRED)
    fsm.stats.tracer = Tracer()
    fsm.bdd.tracer = fsm.stats.tracer
    checker = ModelChecker(fsm)
    checker.eval(parse_ctl("w=1"))
    checker.eval(parse_ctl("w=0"))
    snapshot = fsm.stats.snapshot()["counters"]
    assert snapshot["atom_projections"] == 2
    assert snapshot["atom_components_reused"] >= 0
    assert "atom_projections: 2" in fsm.stats.format()
    events = [e for e in fsm.stats.tracer.events if e.get("name") == "mc.atom"]
    assert len(events) == 2
    assert events[0]["args"]["var"] == "w"
    assert events[0]["args"]["components"] == len(checker._projector.components)
