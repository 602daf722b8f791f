"""Shared-shape encoding economics: encode once, substitute N-1 times.

The hierarchy tentpole's claim (docs/hierarchy.md): on a design that
instantiates one module shape N times, the shape-aware encoder builds
the representative's conjunct BDDs once and produces every other
instance by variable substitution, so encode time stops scaling with
the *table* work per instance.  This bench times the full encode of a
hierarchical gallery design both ways at paper-scale N, asserts the
substitution counters and the reachability parity outright, and
records the timings for ``compare.py`` to gate against
``benchmarks/baseline.json``.

A second row times the may-projection of the ``e_i`` wire atoms of the
same design through the component-cached projector against one greedy
run over the whole y-free conjunct pool per atom, and asserts the two
give the same node for every atom.
"""

import time

from repro.models import get_spec
from repro.network.fsm import SymbolicFsm
from repro.network.quantify import (
    ComponentProjector,
    Conjunct,
    multiply_and_quantify,
)

#: Replica count: large enough that per-instance table encoding
#: dominates and the substitution win is well clear of timer noise.
N = 12


def test_shared_shapes_beat_plain_flatten(results_collector):
    spec = get_spec("philos_hier", n=N)
    elab = spec.elaborate()
    flat = spec.flat()

    start = time.perf_counter()
    shared = SymbolicFsm(elab)
    shared_s = time.perf_counter() - start

    start = time.perf_counter()
    plain = SymbolicFsm(flat)
    plain_s = time.perf_counter() - start

    # The acceptance bar: both shapes (top + cell) table-encoded exactly
    # once, the other N-1 cells substituted, and the shared encode
    # measurably faster than encoding every instance from scratch.
    assert shared.network.shapes_encoded == 2
    assert shared.network.instances_substituted == N - 1
    assert shared_s < plain_s, (
        f"shared-shape encode ({shared_s * 1e3:.1f}ms) not faster than "
        f"plain flatten encode ({plain_s * 1e3:.1f}ms)"
    )

    reach_s = shared.reachable()
    reach_p = plain.reachable()
    assert shared.count_states(reach_s.reached) == \
        plain.count_states(reach_p.reached)

    results_collector(
        "hierarchy",
        "encode_shared_vs_flat",
        {
            "design": spec.name,
            "replicas": N,
            "shapes_encoded": shared.network.shapes_encoded,
            "substituted": shared.network.instances_substituted,
            "shared_s": round(shared_s, 3),
            "plain_s": round(plain_s, 3),
            "speedup_x": round(plain_s / shared_s, 1),
        },
    )


def test_component_cached_atoms_beat_full_pool(results_collector):
    fsm = SymbolicFsm(get_spec("philos_hier", n=N).elaborate())
    bdd = fsm.bdd
    x_bits = set(fsm.x_bits())
    y_bits = set(fsm.y_bits())
    pool = [c for c in fsm.conjuncts if not (c.support & y_bits)]
    literals = [fsm.var(f"e{i}").literal("1") for i in range(N)]
    for i, literal in enumerate(literals):
        bdd.register_root(f"bench.atom.{i}", literal)

    # Cached first, on a cold computed cache: the comparison is
    # conservative for the cached path.
    start = time.perf_counter()
    projector = ComponentProjector(bdd, pool, x_bits, "bench.components")
    cached = [projector.project(literal).node for literal in literals]
    cached_s = time.perf_counter() - start

    start = time.perf_counter()
    full = []
    for literal in literals:
        conjuncts = pool + [
            Conjunct(literal, frozenset(bdd.support(literal)), "atom")
        ]
        quantify = set().union(*(c.support for c in conjuncts)) - x_bits
        full.append(
            multiply_and_quantify(bdd, conjuncts, quantify, method="greedy").node
        )
    full_s = time.perf_counter() - start

    assert cached == full
    assert cached_s < full_s, (
        f"component-cached projection ({cached_s * 1e3:.1f}ms) not faster "
        f"than full-pool projection ({full_s * 1e3:.1f}ms)"
    )
    results_collector(
        "hierarchy",
        "atoms_cached_vs_full_pool",
        {
            "design": "philos_hier",
            "replicas": N,
            "atoms": len(literals),
            "components": len(projector.components),
            "cached_s": round(cached_s, 3),
            "full_s": round(full_s, 3),
            "speedup_x": round(full_s / cached_s, 1),
        },
    )
