"""The ``table1`` and ``hier`` workloads: whole design checks in one process.

One design check runs the pipeline a user of the tool runs: compile the
Verilog (vl2mv), elaborate the hierarchy, parse the properties, encode
a fresh machine, build the transition relation, compute the reachable
states, check every CTL property, then check every LC automaton on a
freshly encoded machine.  The reached-state count and every verdict are
compared with ``expected.json``.
"""

from __future__ import annotations

import gc
import sys
from typing import Dict, List, Optional

from repro.blifmv import elaborate
from repro.ctl import ModelChecker
from repro.lc import check_containment
from repro.network import SymbolicFsm
from repro.pif import parse_pif
from repro.verilog import compile_verilog

from inputs import DesignInput
from spans import SpanRecorder


class LayerCounters:
    """Counters read from each machine's ``EngineStats`` after its checks."""

    #: Metrics that are rates or maxima, not sums over a pass.
    NOT_PER_PASS = frozenset({
        "bdd.peak_live_nodes", "bdd.cache_hit_rate", "bdd.andex_hit_rate",
        "bdd.batch_scalar_share",
    })

    def __init__(self) -> None:
        self.reach_iters = 0
        self.shapes_encoded = 0
        self.instances_substituted = 0
        self.peak_live_nodes = 0
        self.lookups = 0
        self.hits = 0
        self.andex_lookups = 0
        self.andex_hits = 0
        self.gc_runs = 0
        self.cache_evictions = 0
        self.batch_requests = 0
        self.batch_scalar_requests = 0

    def add_machine(self, fsm: SymbolicFsm) -> None:
        snap = fsm.stats.snapshot()
        counters = snap.get("counters", {})
        self.shapes_encoded += counters.get("shapes_encoded", 0)
        self.instances_substituted += counters.get("instances_substituted", 0)
        self.peak_live_nodes = max(self.peak_live_nodes, snap["peak_live_nodes"])
        for op, entry in snap["op_cache"].items():
            self.lookups += entry["lookups"]
            self.hits += entry["hits"]
            if op == "andex":
                self.andex_lookups += entry["lookups"]
                self.andex_hits += entry["hits"]
        self.gc_runs += snap["gc_runs"]
        self.cache_evictions += snap["cache_evictions"]
        self.batch_requests += snap["batch_requests"]
        self.batch_scalar_requests += snap["batch_scalar_requests"]

    def metrics(self) -> Dict[str, float]:
        return {
            "network.reach_iters": self.reach_iters,
            "network.shapes_encoded": self.shapes_encoded,
            "network.instances_substituted": self.instances_substituted,
            "bdd.peak_live_nodes": self.peak_live_nodes,
            "bdd.cache_hit_rate": self.hits / self.lookups if self.lookups else 0.0,
            "bdd.andex_hit_rate": (
                self.andex_hits / self.andex_lookups if self.andex_lookups else 0.0
            ),
            "bdd.gc_runs": self.gc_runs,
            "bdd.cache_evictions": self.cache_evictions,
            "bdd.batch_requests": self.batch_requests,
            "bdd.batch_scalar_share": (
                self.batch_scalar_requests / self.batch_requests
                if self.batch_requests else 0.0
            ),
        }


def check_design(
    design: DesignInput,
    expected: Dict,
    trace_id: str,
    spans: SpanRecorder,
    counters: Optional[LayerCounters] = None,
) -> List[str]:
    """Check one design end to end; returns the mismatches found."""
    span = spans.span
    with span("bench.design", trace_id):
        with span("verilog.compile", trace_id):
            parsed = compile_verilog(design.verilog)
        with span("blifmv.elaborate", trace_id):
            elaboration = elaborate(parsed)
        with span("pif.parse", trace_id):
            pif = parse_pif(design.pif, source=f"{design.key}.pif")
        with span("network.encode", trace_id):
            fsm = SymbolicFsm(elaboration)
        with span("network.transition", trace_id):
            fsm.build_transition(method="greedy")
        with span("network.reach", trace_id):
            reach = fsm.reachable()
        with span("network.count_states", trace_id):
            states = fsm.count_states(reach.reached)
        with span("ctl.checker", trace_id):
            checker = ModelChecker(
                fsm, fairness=pif.bind_fairness(fsm), reached=reach.reached)
        ctl = {}
        for name, formula in pif.ctl_props:
            with span("ctl.check", trace_id):
                ctl[name] = checker.check(formula).holds
        if counters is not None:
            counters.reach_iters += reach.iterations
            counters.add_machine(fsm)
        del checker, reach, fsm
        lc = {}
        for automaton in pif.automata:
            with span("network.encode", trace_id):
                lc_fsm = SymbolicFsm(elaboration)
            with span("lc.containment", trace_id):
                lc[automaton.name] = check_containment(
                    lc_fsm, automaton, system_fairness=pif.bind_fairness(lc_fsm)
                ).holds
            if counters is not None:
                counters.add_machine(lc_fsm)
            del lc_fsm
    problems = []
    if states != expected["states"]:
        problems.append(f"reached {states} states, expected {expected['states']}")
    for label, got, want in (("ctl", ctl, expected["ctl"]), ("lc", lc, expected["lc"])):
        if got != want:
            problems.append(f"{label} verdicts {got}, expected {want}")
    return problems


def run_pass(
    designs: List[DesignInput],
    order: List[int],
    expected: Dict[str, Dict],
    pass_id: str,
    spans: SpanRecorder,
    counters: Optional[LayerCounters] = None,
) -> int:
    """One pass over the design list; returns the number of failed checks."""
    failed = 0
    for index in order:
        design = designs[index]
        try:
            problems = check_design(
                design, expected[design.key], f"{pass_id}:{design.key}", spans, counters)
        except Exception as exc:  # a crashed check is a failed job, not a crashed run
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"FAILED {design.key}: {'; '.join(problems)}", file=sys.stderr)
        # Free the check's machines now, so the next check starts from
        # the same heap whatever order the pass visits the designs in.
        gc.collect()
    return failed

