"""Self-tests of the benchmark: its inputs and its known answers.

    python3 -m pytest perfbench/test_perfbench.py

* the same seed gives byte-identical inputs, and :data:`HELD_OUT_SEED`
  gives a different serve stream;
* the serve stream has the shape the workload relies on: fresh requests
  unique, repeats of earlier requests of the same connection;
* ``expected.json`` covers every design the workloads use, agrees with
  the reached-state counts the paper reproduction reports, and agrees
  with the explicit-state oracle (``repro.oracle``) on every design
  whose reachable state space is within the oracle's 2^14 cap.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.blifmv import flatten  # noqa: E402
from repro.oracle import ExplicitFairness, ExplicitKripke, ExplicitModelChecker  # noqa: E402
from repro.oracle import check_containment_explicit  # noqa: E402
from repro.oracle.explicit import table_satisfied  # noqa: E402
from repro.ctl.parser import parse_ctl  # noqa: E402
from repro.pif import parse_pif  # noqa: E402
from repro.verilog import compile_verilog  # noqa: E402

import inputs  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: Seed kept out of every tuning run, for later claims on unseen inputs.
HELD_OUT_SEED = 20261017
#: The oracle's state cap.
ORACLE_CAP = 1 << 14

with open(os.path.join(HERE, "expected.json")) as _handle:
    EXPECTED = json.load(_handle)


def _stream_bytes(seed: int, count: int = 300) -> bytes:
    designs = inputs.serve_designs()
    lines = []
    for conn in range(inputs.CONNECTIONS):
        stream = inputs.ServeStream(seed, conn, designs)
        lines.extend(request.to_json() for request in itertools.islice(stream, count))
    return "\n".join(lines).encode()


def test_same_seed_same_inputs():
    assert _stream_bytes(7) == _stream_bytes(7)
    for workload in inputs.CHECK_WORKLOADS:
        assert inputs.check_designs(workload) == inputs.check_designs(workload)


def test_held_out_seed_changes_the_serve_stream():
    assert _stream_bytes(7) != _stream_bytes(HELD_OUT_SEED)


def test_serve_stream_shape():
    designs = inputs.serve_designs()
    fresh_messages = set()
    for conn in range(inputs.CONNECTIONS):
        stream = inputs.ServeStream(3, conn, designs)
        sent = []
        for position, request in enumerate(itertools.islice(stream, 4 * stream.period)):
            key = json.dumps(request.message, sort_keys=True)
            if position % 2 == 0:
                assert request.fresh
                assert key not in fresh_messages, "fresh request repeated"
                fresh_messages.add(key)
            else:
                assert not request.fresh
                assert key in sent, "repeat of a request this connection never sent"
            sent.append(key)
        kinds = [r.kind for r in itertools.islice(inputs.ServeStream(3, conn, designs),
                                                  0, stream.period, 2)]
        assert sorted(set(kinds)) == ["check", "fuzz", "profile"]


def test_expected_covers_every_design():
    keys = {d.key for w in inputs.CHECK_WORKLOADS for d in inputs.check_designs(w)}
    keys |= {key for key, _, _ in inputs.serve_designs()}
    assert keys <= set(EXPECTED)
    published = {
        "philos": 28, "ping pong": 3, "gigamax": 228, "scheduler": 4_718_592,
        "dcnew": 132_096, "2mdlc@width=1": 140, "philos_hier@n=12": 73_729,
        "scheduler_hier@n=12": 73_728, "gigamax_hier@n=12": 28_672,
    }
    assert {key: EXPECTED[key]["states"] for key in published} == published


def test_self_times_subtract_children():
    spans = SpanRecorder()
    outer = spans.add("bench.design", "d", 0.0, 10.0)
    spans.add("network.encode", "d", 1.0, 4.0, outer)
    spans.add("ctl.check", "d", 5.0, 9.0, outer)
    assert spans.self_times() == {"bench": 3.0, "network": 3.0, "ctl": 4.0}


# -- oracle cross-check -----------------------------------------------


class ReachableKripke(ExplicitKripke):
    """The oracle's Kripke structure over the reachable states only.

    ``ExplicitKripke`` enumerates the product of every net's domain,
    which for compiled Verilog exceeds any cap; here each state's
    consistent net assignments are found table by table, with the
    oracle's own table semantics (``table_satisfied``), and only states
    reachable from reset are built.
    """

    def __init__(self, model, cap: int = ORACLE_CAP):  # noqa: D107 - no super().__init__
        model.validate()
        self.model = model
        self.latch_names = [latch.output for latch in model.latches]
        self.latch_input = {latch.output: latch.input for latch in model.latches}
        self.domains = {name: model.domain(name) for name in model.declared_variables()}
        self.nonstate_names = [n for n in self.domains if n not in self.latch_input]
        self.init_states = frozenset(itertools.product(*(
            tuple(latch.reset) if latch.reset else self.domains[latch.output]
            for latch in model.latches
        )))
        self.resolutions = {}
        self.successors = {}
        frontier = list(self.init_states)
        seen = set(frontier)
        while frontier:
            state = frontier.pop()
            envs = self._resolve(dict(zip(self.latch_names, state)))
            self.resolutions[state] = envs
            succs = {tuple(env[self.latch_input[l]] for l in self.latch_names) for env in envs}
            self.successors[state] = succs
            for nxt in succs - seen:
                seen.add(nxt)
                frontier.append(nxt)
            if len(seen) > cap:
                raise pytest.skip.Exception(f"more than {cap} reachable states")
        self.states = sorted(seen)
        self._index = {s: i for i, s in enumerate(self.states)}

    def _table_order(self):
        """Tables in an order where each one's inputs are already assigned."""
        assigned = set(self.latch_names)
        pending = list(self.model.tables)
        order = []
        while pending:
            ready = [t for t in pending if all(name in assigned for name in t.inputs)]
            assert ready, "combinational cycle"
            for table in ready:
                order.append(table)
                assigned.update(table.outputs)
            pending = [t for t in pending if all(t is not r for r in ready)]
        return order

    def _resolve(self, base):
        """Every assignment of the nets consistent with all tables in ``base``."""
        if not hasattr(self, "_order"):
            self._order = self._table_order()
            # (table, its assigned values) -> allowed values of its free outputs
            self._allowed = {}
        out = []

        def extend(env, index):
            if index == len(self._order):
                out.append(dict(env))
                return
            table = self._order[index]
            free = [name for name in table.outputs if name not in env]
            bound = tuple(env.get(name) for name in table.inputs + table.outputs)
            key = (index, bound)
            allowed = self._allowed.get(key)
            if allowed is None:
                allowed = []
                for values in itertools.product(*(self.domains[n] for n in free)):
                    env.update(zip(free, values))
                    if table_satisfied(table, env):
                        allowed.append(values)
                    for name in free:
                        del env[name]
                self._allowed[key] = allowed
            for values in allowed:
                env.update(zip(free, values))
                extend(env, index + 1)
                for name in free:
                    del env[name]

        extend(dict(base), 0)
        return out


def _edge_pred(checker, formula):
    """A fairness formula as an edge predicate: a formula over current
    values holds on edges leaving its states, one over primed (next)
    values on edges entering them."""
    text = str(formula)
    if "'" not in text:
        return ExplicitFairness.state_buchi(checker.eval(formula).__contains__)
    target = checker.eval(parse_ctl(text.replace("'", ""))).__contains__
    return lambda u, v: target(v)


def _fairness(checker, pif):
    buchi, streett = [], []
    for decl in pif.fairness:
        if decl.kind == "negative":
            buchi.append(ExplicitFairness.negative_state(checker.eval(decl.first).__contains__))
        elif decl.kind == "buchi":
            buchi.append(_edge_pred(checker, decl.first))
        elif decl.kind == "streett":
            streett.append((_edge_pred(checker, decl.first), _edge_pred(checker, decl.second)))
        else:
            pytest.skip(f"no explicit form for {decl.kind} fairness")
    return ExplicitFairness(buchi=buchi, streett=streett)


def _all_designs():
    out = {}
    for workload in inputs.CHECK_WORKLOADS:
        for design in inputs.check_designs(workload):
            out[design.key] = (design.verilog, design.pif)
    from repro.models import get_spec

    for key, design, pif in inputs.serve_designs():
        text = design["verilog"] if "verilog" in design else get_spec(design["gallery"]).verilog
        out.setdefault(key, (text, pif))
    return out


_SMALL = [key for key in sorted(EXPECTED) if EXPECTED[key]["states"] <= ORACLE_CAP]


@pytest.mark.parametrize("key", _SMALL)
def test_expected_answers_match_the_oracle(key):
    verilog, pif_text = _all_designs()[key]
    kripke = ReachableKripke(flatten(compile_verilog(verilog)))
    pif = parse_pif(pif_text)
    want = EXPECTED[key]
    assert len(kripke.states) == want["states"]
    plain = ExplicitModelChecker.for_kripke(kripke)
    fairness = _fairness(plain, pif)
    checker = ExplicitModelChecker.for_kripke(kripke, fairness)
    ctl = {name: kripke.init_states <= checker.eval(formula)
           for name, formula in pif.ctl_props}
    assert ctl == want["ctl"]
    lc = {automaton.name: check_containment_explicit(kripke, automaton, fairness).holds
          for automaton in pif.automata}
    assert lc == want["lc"]
