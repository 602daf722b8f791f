"""Integration tests for the Table-1 designs (small configurations).

Every design must build through the full pipeline, have the expected
structural shape, and satisfy all its shipped properties.  Small
parameters keep the suite fast; the full-size configurations run in the
benchmark harness.
"""

import pytest

from repro.ctl import ModelChecker
from repro.lc import check_containment
from repro.models import TABLE1, get_spec
from repro.models import dcnew, gigamax, mdlc, philos, pingpong, scheduler
from repro.network import SymbolicFsm

SMALL = {
    "philos": {"n": 2},
    "ping pong": {},
    "gigamax": {"n": 2},
    "scheduler": {"n": 4},
    "dcnew": {"n": 2, "width": 2},
    "2mdlc": {"width": 1},
}


def check_all_properties(spec):
    fsm = SymbolicFsm(spec.flat())
    fsm.build_transition()
    reached = fsm.reachable().reached
    checker = ModelChecker(fsm, fairness=spec.pif.bind_fairness(fsm),
                           reached=reached)
    failures = []
    for name, formula in spec.pif.ctl_props:
        if not checker.check(formula).holds:
            failures.append(f"ctl {name}")
    for automaton in spec.pif.automata:
        fresh = SymbolicFsm(spec.flat())
        result = check_containment(
            fresh, automaton, system_fairness=spec.pif.bind_fairness(fresh))
        if not result.holds:
            failures.append(f"lc {automaton.name}")
    return fsm, reached, failures


@pytest.mark.parametrize("name", TABLE1)
def test_design_properties_all_hold(name):
    spec = get_spec(name, **SMALL[name])
    _fsm, _reached, failures = check_all_properties(spec)
    assert not failures, f"{name}: failing properties {failures}"


@pytest.mark.parametrize("name", TABLE1)
def test_design_builds_and_reaches_states(name):
    spec = get_spec(name, **SMALL[name])
    fsm = SymbolicFsm(spec.flat())
    fsm.build_transition()
    result = fsm.reachable()
    assert result.converged
    assert fsm.count_states(result.reached) >= 2
    assert spec.verilog_lines > 5
    assert spec.blifmv_lines > spec.verilog_lines  # compilation expands


def test_unknown_design_rejected():
    with pytest.raises(KeyError):
        get_spec("nonesuch")


class TestPropertyCounts:
    """The shipped property counts match the paper's Table 1 row."""

    @pytest.mark.parametrize("name,n_lc,n_ctl", [
        ("philos", 2, 2),
        ("ping pong", 6, 6),
        ("gigamax", 1, 9),
        ("scheduler", 2, 1),
        ("dcnew", 1, 7),
        ("2mdlc", 1, 1),
    ])
    def test_counts(self, name, n_lc, n_ctl):
        # Table-1 counts hold at the default (paper-scale) configuration.
        spec = get_spec(name)
        assert len(spec.pif.automata) == n_lc
        assert len(spec.pif.ctl_props) == n_ctl


class TestScheduler:
    def test_state_count_formula(self):
        # Milner's scheduler reaches ~ n * 2^n states (token position x
        # task subset, halved by the "current task idle before start"
        # correlation at the token position).
        spec = scheduler.spec(5)
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition()
        count = fsm.count_states(fsm.reachable().reached)
        assert count == 5 * 2 ** 5 // 2 + 5 * 2 ** 4 or count > 2 ** 5

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            scheduler.verilog(1)
        with pytest.raises(ValueError):
            scheduler.verilog(99)


class TestPhilos:
    def test_deadlock_is_reachable(self):
        # the classic hold-left-fork deadlock must be present (HSIS is a
        # debugging tool: realistic bugs stay in)
        spec = philos.spec(2)
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition()
        reached = fsm.reachable().reached
        both_hold = fsm.state_cube({"phil0": "hasleft", "phil1": "hasleft"})
        assert fsm.bdd.and_(reached, both_hold) != fsm.bdd.false

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            philos.verilog(1)


class TestGigamax:
    def test_coherence_core(self):
        spec = gigamax.spec(3)
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition()
        reached = fsm.reachable().reached
        two_owners = fsm.state_cube({"cache0": "own", "cache1": "own"})
        assert fsm.bdd.and_(reached, two_owners) == fsm.bdd.false


class TestMdlc:
    def test_progress_fails_without_fairness(self):
        from repro.automata import FairnessSpec
        spec = mdlc.spec(width=1)
        fsm = SymbolicFsm(spec.flat())
        result = check_containment(
            fsm, spec.pif.automaton("lc_progress"),
            system_fairness=FairnessSpec())
        assert not result.holds  # lossy channels may drop everything

    def test_data_integrity_holds_at_paper_width(self):
        # Fair CTL under the channel Streett fairness at the default
        # width 5 (the Table-1 configuration).
        spec = mdlc.spec()
        assert spec.params == {"width": 5}
        fsm = SymbolicFsm(spec.flat())
        fsm.build_transition()
        checker = ModelChecker(fsm, fairness=spec.pif.bind_fairness(fsm),
                               reached=fsm.reachable().reached)
        (name, formula), = spec.pif.ctl_props
        assert name == "data_integrity"
        assert checker.check(formula).holds


class TestDcnew:
    def test_counter_drives_state_count(self):
        small = dcnew.spec(n=2, width=2)
        big = dcnew.spec(n=2, width=4)
        counts = []
        for spec in (small, big):
            fsm = SymbolicFsm(spec.flat())
            fsm.build_transition()
            counts.append(fsm.count_states(fsm.reachable().reached))
        assert counts[1] > counts[0] * 4
