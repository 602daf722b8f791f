"""Tests for early-quantification scheduling (all methods must agree)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.network.quantify import (
    ComponentProjector,
    Conjunct,
    METHODS,
    PlanStep,
    QuantifyResult,
    ScheduleStep,
    _reduce_and,
    make_conjuncts,
    multiply_and_quantify,
    plan_schedule,
)

N_VARS = 8


def fresh():
    bdd = BDD()
    for i in range(N_VARS):
        bdd.add_var(f"v{i}")
    return bdd


def chain_conjuncts(bdd, length):
    """A chain r_i(v_i, v_{i+1}) — the classic early-quantification shape."""
    out = []
    for i in range(length):
        node = bdd.xnor(bdd.var(f"v{i}"), bdd.var(f"v{i + 1}"))
        out.append((node, f"r{i}"))
    return make_conjuncts(bdd, out)


class TestAgreement:
    @pytest.mark.parametrize("method", METHODS)
    def test_chain_result(self, method):
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 5)
        quantify = {bdd.var_index(f"v{i}") for i in range(1, 5)}
        result = multiply_and_quantify(bdd, conjuncts, quantify, method=method)
        # The chain of equalities collapses to v0 == v5.
        assert result.node == bdd.xnor(bdd.var("v0"), bdd.var("v5"))

    def test_methods_agree_pairwise(self):
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 6)
        quantify = {bdd.var_index(f"v{i}") for i in (1, 3, 5)}
        results = {
            m: multiply_and_quantify(bdd, conjuncts, quantify, method=m).node
            for m in METHODS
        }
        assert len(set(results.values())) == 1

    def test_empty_pool(self):
        bdd = fresh()
        result = multiply_and_quantify(bdd, [], {0, 1}, method="greedy")
        assert result.node == bdd.true

    def test_unknown_method(self):
        bdd = fresh()
        with pytest.raises(ValueError):
            multiply_and_quantify(bdd, [], set(), method="quantum")

    def test_vacuous_variables_ignored(self):
        bdd = fresh()
        conjuncts = make_conjuncts(bdd, [(bdd.var("v0"), "r0")])
        result = multiply_and_quantify(
            bdd, conjuncts, {bdd.var_index("v7")}, method="greedy"
        )
        assert result.node == bdd.var("v0")


class TestEarlyQuantificationWins:
    def test_greedy_peak_not_worse_than_monolithic_on_chain(self):
        """The whole point (paper §4): quantifying early keeps peaks small."""
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 7)
        quantify = {bdd.var_index(f"v{i}") for i in range(1, 7)}
        greedy = multiply_and_quantify(bdd, conjuncts, quantify, method="greedy")
        mono = multiply_and_quantify(bdd, conjuncts, quantify, method="monolithic")
        assert greedy.node == mono.node
        assert greedy.peak_size <= mono.peak_size

    def test_steps_recorded(self):
        bdd = fresh()
        conjuncts = chain_conjuncts(bdd, 4)
        quantify = {bdd.var_index(f"v{i}") for i in range(1, 4)}
        result = multiply_and_quantify(bdd, conjuncts, quantify, method="greedy")
        assert result.steps
        quantified = {v for step in result.steps for v in step.quantified}
        assert quantified == quantify


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(range(N_VARS)),
            st.sampled_from(range(N_VARS)),
            st.sampled_from(["and", "or", "xnor"]),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sets(st.sampled_from(range(N_VARS)), max_size=4),
)
def test_methods_agree_on_random_pools(pairs, quantify):
    """Property: all three schedulers compute the same function."""
    bdd = fresh()
    ops = {"and": bdd.and_, "or": bdd.or_, "xnor": bdd.xnor}
    pool = []
    for index, (a, b, op) in enumerate(pairs):
        node = ops[op](bdd.var(a), bdd.var(b))
        pool.append((node, f"r{index}"))
    conjuncts = make_conjuncts(bdd, pool)
    results = {
        m: multiply_and_quantify(bdd, conjuncts, set(quantify), method=m).node
        for m in METHODS
    }
    assert len(set(results.values())) == 1
    # Reference: naive conjunction then quantification.
    naive = bdd.exist(sorted(quantify), bdd.conj(n for n, _ in pool))
    assert results["monolithic"] == naive


# ----------------------------------------------------------------------
# Schedule identity against the original full-rescan picker
# ----------------------------------------------------------------------

def reference_eliminate(table, candidates, merge, next_id):
    """The original greedy loop: a full ``min`` rescan of every pending
    variable per step.  ``table`` (id -> support) is updated in place;
    ``merge(cluster_ids, local, new_id)`` returns the merged support."""
    by_var = {}
    for cid, support in table.items():
        for v in support:
            by_var.setdefault(v, set()).add(cid)
    pending = {v for v in candidates if by_var.get(v)}
    while pending:
        def cost(var):
            union = set()
            for cid in by_var[var]:
                union |= table[cid]
            return (len(union), len(by_var[var]), var)

        cluster = sorted(by_var[min(pending, key=cost)])
        local = tuple(sorted(v for v in pending if by_var[v] <= set(cluster)))
        merged = merge(cluster, local, next_id)
        for cid in cluster:
            for v in table.pop(cid):
                by_var[v].discard(cid)
                if not by_var[v]:
                    del by_var[v]
        table[next_id] = merged
        for v in merged:
            by_var.setdefault(v, set()).add(next_id)
        next_id += 1
        pending = {v for v in pending - set(local) if v in by_var}
    return next_id


def reference_greedy(bdd, conjuncts, quantify):
    """``(steps, peak_size, node)`` of the original greedy executor."""
    result = QuantifyResult(node=bdd.true, peak_size=1)
    table = {i: c.support for i, c in enumerate(conjuncts)}
    live = {i: c for i, c in enumerate(conjuncts)}

    def merge(cluster_ids, local, new_id):
        cluster = sorted(
            (live.pop(cid) for cid in cluster_ids), key=lambda c: len(c.support)
        )
        [prefix] = _reduce_and(bdd, result, [[c.node for c in cluster[:-1]]])
        product = bdd.and_exists(prefix, cluster[-1].node, local)
        size = bdd.size(product)
        result.peak_size = max(result.peak_size, size)
        result.steps.append(
            ScheduleStep(tuple(c.label for c in cluster), local, size)
        )
        live[new_id] = Conjunct(
            product, frozenset(bdd.support(product)),
            "(" + "*".join(c.label for c in cluster) + ")",
        )
        return live[new_id].support

    reference_eliminate(table, quantify, merge, len(table))
    tail = sorted(live.values(), key=lambda c: len(c.support))
    [product] = _reduce_and(bdd, result, [[c.node for c in tail]])
    if tail:
        result.steps.append(
            ScheduleStep(tuple(c.label for c in tail), (), bdd.size(product))
        )
    return result.steps, result.peak_size, product


def reference_plan(supports, quantify, groups=()):
    """``(steps, tail)`` of the original support-only planner."""
    table = {i: frozenset(s) for i, s in enumerate(supports)}
    steps = []

    def merge(cluster_ids, local, new_id):
        ordered = sorted(cluster_ids, key=lambda slot: len(table[slot]))
        steps.append(PlanStep(tuple(ordered), local, new_id))
        union = frozenset().union(*(table[slot] for slot in cluster_ids))
        return union - set(local)

    next_id = len(table)
    for group in groups:
        slots = {slot for slot in group if slot in table}
        private = {
            v for v in quantify
            if 0 < len(owners := {s for s in table if v in table[s]})
            and owners <= slots
        }
        next_id = reference_eliminate(table, private, merge, next_id)
    reference_eliminate(table, quantify, merge, next_id)
    return steps, tuple(sorted(table, key=lambda slot: len(table[slot])))


N_POOL_VARS = 8


def random_pools():
    """Random small supports, plus pools of equal-size supports (ties)."""
    var = st.integers(0, N_POOL_VARS - 1)
    random_pool = st.lists(
        st.frozensets(var, min_size=1, max_size=3), min_size=1, max_size=10
    )
    tied_pool = st.integers(3, N_POOL_VARS).flatmap(
        lambda k: st.permutations(
            [frozenset({i, (i + 1) % k}) for i in range(k)]
        )
    )
    return st.one_of(random_pool, tied_pool)


def quantify_sets():
    """Mostly everything: long eliminations exercise the re-keying."""
    everything = frozenset(range(N_POOL_VARS))
    return st.one_of(
        st.just(everything), st.sets(st.integers(0, N_POOL_VARS - 1))
    )


def pool_manager():
    bdd = BDD()
    for i in range(N_POOL_VARS):
        bdd.add_var(f"w{i}")
    return bdd


def build_pool(bdd, supports, ops):
    """One BDD conjunct per support, mixing the support's variables."""
    pool = []
    for index, support in enumerate(supports):
        ordered = sorted(support)
        node = bdd.var(f"w{ordered[0]}")
        for step, v in enumerate(ordered[1:]):
            op = ops[(index + step) % len(ops)]
            node = getattr(bdd, op)(node, bdd.var(f"w{v}"))
        pool.append((node, f"r{index}"))
    return make_conjuncts(bdd, pool)


@settings(max_examples=100, deadline=None)
@given(
    random_pools(),
    quantify_sets(),
    st.lists(st.sampled_from(["and_", "or_", "xnor"]), min_size=1, max_size=3),
)
def test_greedy_schedule_matches_full_rescan(supports, quantify, ops):
    bdd = pool_manager()
    conjuncts = build_pool(bdd, supports, ops)
    got = multiply_and_quantify(bdd, conjuncts, set(quantify), method="greedy")
    steps, peak, node = reference_greedy(bdd, conjuncts, set(quantify))
    assert got.steps == steps
    assert got.peak_size == peak
    assert got.node == node


@settings(max_examples=80, deadline=None)
@given(random_pools(), quantify_sets(), st.data())
def test_plan_schedule_matches_full_rescan(supports, quantify, data):
    plan = plan_schedule(supports, set(quantify))
    assert (plan.steps, plan.tail) == reference_plan(supports, set(quantify))
    slots = list(range(len(supports)))
    groups = data.draw(
        st.lists(st.lists(st.sampled_from(slots), unique=True), max_size=4)
    )
    plan = plan_schedule(supports, set(quantify), groups=groups)
    assert (plan.steps, plan.tail) == reference_plan(
        supports, set(quantify), groups
    )


@settings(max_examples=60, deadline=None)
@given(
    random_pools(),
    st.sets(st.integers(0, N_POOL_VARS - 1)),
    st.lists(st.sampled_from(["and_", "or_", "xnor"]), min_size=1, max_size=3),
    st.lists(st.frozensets(st.integers(0, N_POOL_VARS - 1), min_size=1,
                           max_size=2), min_size=1, max_size=4),
)
def test_component_projection_matches_full_pool(supports, keep, ops, operands):
    """Every projection equals one greedy run over the whole pool, also
    once the component projections come from the cache."""
    bdd = pool_manager()
    pool = build_pool(bdd, supports, ops)
    projector = ComponentProjector(bdd, pool, keep, "test.components")
    for operand in build_pool(bdd, operands, ["or_"]):
        conjuncts = pool + [operand]
        quantify = set().union(*(c.support for c in conjuncts)) - keep
        want = multiply_and_quantify(bdd, conjuncts, quantify).node
        assert projector.project(operand.node).node == want
