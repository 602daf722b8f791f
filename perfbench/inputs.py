"""Seeded inputs for the benchmark's workloads.

Everything the program under test receives is generated here: the
Verilog and PIF texts of the check workloads, which are the paper's
fixed designs whatever the seed, and the closed-loop job stream of the
``serve`` workload, which the workload seed alone determines.  The same
seed gives byte-identical inputs (see ``test_perfbench.py``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.models import dcnew, get_spec, gigamax, hier, mdlc, philos, pingpong, scheduler

#: Generator functions per design name: (verilog(**params), pif(**params)).
_GENERATORS = {
    "philos": (philos.verilog, philos.pif),
    "ping pong": (pingpong.verilog, pingpong.pif),
    "gigamax": (gigamax.verilog, gigamax.pif),
    "scheduler": (scheduler.verilog, scheduler.pif),
    "dcnew": (dcnew.verilog, dcnew.pif),
    "2mdlc": (mdlc.verilog, mdlc.pif),
    "philos_hier": (hier.philos_verilog, hier.philos_pif),
    "scheduler_hier": (hier.scheduler_verilog, hier.scheduler_pif),
    "gigamax_hier": (hier.gigamax_verilog, hier.gigamax_pif),
}

#: The paper's Table 1 at default parameters, except 2mdlc at width 1
#: (fair-CTL cost on 2mdlc explodes with width; see NOTES.md).
TABLE1 = [
    ("philos", {}),
    ("ping pong", {}),
    ("gigamax", {}),
    ("scheduler", {}),
    ("dcnew", {}),
    ("2mdlc", {"width": 1}),
]

#: Replicated hierarchies: N=12 instances of one module shape each.
HIER = [(name, {"n": 12}) for name in ("philos_hier", "scheduler_hier", "gigamax_hier")]

CHECK_WORKLOADS = {"table1": TABLE1, "hier": HIER}

#: Serve designs named by reference; the server resolves them itself.
SERVE_GALLERY = [
    "traffic", "elevator", "rrarbiter", "vending", "gcd", "railroad",
    "philos", "ping pong", "gigamax",
]
#: Serve designs sent as generated Verilog text.
SERVE_VERILOG = [
    ("philos", {"n": 3}),
    ("philos_hier", {"n": 4}),
    ("scheduler_hier", {"n": 4}),
    ("gigamax_hier", {"n": 4}),
]
#: Fuzz jobs per deck, by trial count (small: one or two trials each).
SERVE_FUZZ_TRIALS = [1, 1, 1, 2, 2, 2]
#: Closed-loop client connections of the serve workload.
CONNECTIONS = 2


@dataclass(frozen=True)
class DesignInput:
    """One design as generated text, keyed into ``expected.json``."""

    key: str
    verilog: str
    pif: str


def design_key(name: str, params: Dict[str, int]) -> str:
    """``expected.json`` key: the name plus any non-default parameters."""
    return name + "".join(f"@{k}={v}" for k, v in sorted(params.items()))


def make_design(name: str, params: Dict[str, int]) -> DesignInput:
    verilog, pif = _GENERATORS[name]
    return DesignInput(design_key(name, params), verilog(**params), pif(**params))


def check_designs(workload: str) -> List[DesignInput]:
    """The design list of a check workload (``table1`` or ``hier``)."""
    return [make_design(name, params) for name, params in CHECK_WORKLOADS[workload]]


# -- serve --------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One submission of the serve stream.

    ``fresh`` requests are unique across the whole stream, so the
    server computes them; a repeat re-sends an earlier request of the
    same connection, which has returned before the repeat is sent, so
    the server answers it from its result cache.
    """

    tag: str
    fresh: bool
    kind: str
    design_key: Optional[str]
    message: Dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {"tag": self.tag, "fresh": self.fresh, "kind": self.kind,
             "design": self.design_key, "message": self.message},
            sort_keys=True,
        )


def serve_designs() -> List[Tuple[str, Dict[str, Any], str]]:
    """(expected key, protocol design object, PIF text) per serve design."""
    out = []
    for name in SERVE_GALLERY:
        out.append((name, {"gallery": name}, get_spec(name).pif_text))
    for name, params in SERVE_VERILOG:
        design = make_design(name, params)
        out.append((design.key, {"verilog": design.verilog}, design.pif))
    return out


class ServeStream:
    """The endless, seeded request stream of one client connection.

    Requests alternate fresh, repeat, fresh, repeat...  Fresh requests
    are dealt from a shuffled deck holding a check and a profile job for
    each of the connection's share of the designs, plus its share of the
    small fuzz jobs, so every deck has the same mix.  A fresh check or
    profile job carries the design's properties plus a comment line
    naming the request, which makes its cache key unique without
    changing the work.
    """

    def __init__(self, seed: int, conn: int, designs=None) -> None:
        self.seed = seed
        self.conn = conn
        self._rng = random.Random(f"serve:{seed}:{conn}")
        designs = designs if designs is not None else serve_designs()
        self._designs = designs[conn::CONNECTIONS]
        self._fuzz_trials = SERVE_FUZZ_TRIALS[conn::CONNECTIONS]
        self._deck: List[Tuple[str, Any]] = []
        self._history: List[Request] = []
        self._fuzz = 0
        self._count = 0
        #: Requests per deck: every stretch of this many requests, from
        #: the start, holds the same mix of fresh jobs.
        self.period = 2 * (2 * len(self._designs) + len(self._fuzz_trials))

    def _refill(self) -> None:
        deck: List[Tuple[str, Any]] = []
        for index in range(len(self._designs)):
            deck.append(("check", index))
            deck.append(("profile", index))
        deck.extend(("fuzz", trials) for trials in self._fuzz_trials)
        self._rng.shuffle(deck)
        self._deck = deck

    def _fresh(self, tag: str) -> Request:
        if not self._deck:
            self._refill()
        kind, arg = self._deck.pop()
        if kind == "fuzz":
            # Disjoint trial-seed ranges per connection and per job.
            fuzz_seed = (self.seed % 1000) * 1_000_000 + self.conn * 100_000 + 2 * self._fuzz
            self._fuzz += 1
            message = {"kind": "fuzz", "knobs": {"trials": arg, "seed": fuzz_seed}}
            return Request(tag, True, kind, None, message)
        key, design, pif = self._designs[arg]
        message = {"kind": kind, "design": design, "pif": f"{pif}\n# request {tag}\n"}
        return Request(tag, True, kind, key, message)

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        tag = f"s{self.seed}c{self.conn}n{self._count}"
        if self._count % 2 == 0:
            request = self._fresh(tag)
            self._history.append(request)
        else:
            original = self._rng.choice(self._history)
            request = Request(tag, False, original.kind, original.design_key, original.message)
        self._count += 1
        return request
