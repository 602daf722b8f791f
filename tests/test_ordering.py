"""Tests for variable-ordering heuristics and rebuild-based reordering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.bdd.ordering import (
    affinity_order,
    interacting_fsm_order,
    population_order,
    reorder,
    shared_size_under,
    sift,
)
from repro.bdd.ops import transfer


class TestAffinityOrder:
    def test_groups_cluster(self):
        order = affinity_order(
            groups=[{"a", "b"}, {"a", "b"}, {"c", "d"}],
            all_items=["a", "c", "b", "d"],
        )
        # a and b co-occur twice: they must be adjacent.
        ia, ib = order.index("a"), order.index("b")
        assert abs(ia - ib) == 1

    def test_all_items_present_once(self):
        items = ["x", "y", "z", "w"]
        order = affinity_order([{"x", "z"}], items)
        assert sorted(order) == sorted(items)

    def test_isolated_items_kept(self):
        order = affinity_order([], ["p", "q"])
        assert sorted(order) == ["p", "q"]

    def test_items_not_in_groups_ignored_in_affinity(self):
        order = affinity_order([{"a", "b", "zz"}], ["a", "b"])
        assert sorted(order) == ["a", "b"]


def quadratic_affinity_order(groups, all_items):
    """The original greedy arrangement: a full rescan per placement."""
    affinity = {}
    weight = {name: 0 for name in all_items}
    items_set = set(all_items)
    for group in groups:
        members = sorted(group & items_set)
        for i, a in enumerate(members):
            weight[a] += len(members) - 1
            for b in members[i + 1:]:
                affinity[(a, b)] = affinity.get((a, b), 0) + 1

    def pair_affinity(a, b):
        if a > b:
            a, b = b, a
        return affinity.get((a, b), 0)

    remaining = list(all_items)
    placed = []
    attraction = {name: 0 for name in all_items}
    while remaining:
        if not placed:
            best = max(remaining, key=lambda n: (weight[n], -all_items.index(n)))
        else:
            best = max(
                remaining,
                key=lambda n: (attraction[n], weight[n], -all_items.index(n)),
            )
        placed.append(best)
        remaining.remove(best)
        for n in remaining:
            attraction[n] += pair_affinity(best, n)
    return placed


NAMES = [f"v{i}" for i in range(12)]


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(
        st.sets(st.sampled_from(NAMES + ["ghost"]), max_size=6), max_size=10
    ),
    items=st.lists(st.sampled_from(NAMES), max_size=16),
)
def test_affinity_order_matches_quadratic_reference(groups, items):
    # Duplicated items, items in no group and group members outside the
    # item list are all drawn; the arrangement must not move.
    assert affinity_order(groups, items) == quadratic_affinity_order(groups, items)


class TestInteractingFsmOrder:
    def test_communicating_latches_adjacent(self):
        order = interacting_fsm_order(
            {"l1": {"l2"}, "l2": {"l1"}, "l3": set(), "l4": {"l3"}},
        )
        i1, i2 = order.index("l1"), order.index("l2")
        assert abs(i1 - i2) == 1

    def test_nonstate_vars_attached_to_users(self):
        order = interacting_fsm_order(
            {"l1": {"w"}, "l2": set()},
            nonstate_vars=["w", "unused"],
        )
        assert order.index("w") == order.index("l1") + 1
        assert order[-1] == "unused"


def _setup():
    bdd = BDD()
    for name in ("a", "b", "c", "d"):
        bdd.add_var(name)
    f = bdd.or_(bdd.and_(bdd.var("a"), bdd.var("b")),
                bdd.and_(bdd.var("c"), bdd.var("d")))
    return bdd, f


class TestReorder:
    def test_semantics_preserved(self):
        bdd, f = _setup()
        new, roots = reorder(bdd, [3, 1, 2, 0], {"f": f})
        g = roots["f"]
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    for d in (0, 1):
                        env = {"a": a, "b": b, "c": c, "d": d}
                        assert new.eval(g, env) == bdd.eval(f, env)

    def test_order_installed(self):
        bdd, f = _setup()
        new, _ = reorder(bdd, [3, 2, 1, 0], {"f": f})
        assert [new.var_name(v) for v in new.order] == ["d", "c", "b", "a"]

    def test_bad_permutation_rejected(self):
        bdd, f = _setup()
        with pytest.raises(ValueError):
            reorder(bdd, [0, 0, 1, 2], {"f": f})

    def test_interleaved_order_smaller_for_comparator(self):
        # The classic example: x1..xn,y1..yn ordering blows up equality,
        # interleaving keeps it linear.
        n = 6
        bad = BDD()
        for i in range(n):
            bad.add_var(f"x{i}")
        for i in range(n):
            bad.add_var(f"y{i}")
        eq = bad.true
        for i in range(n):
            eq = bad.and_(eq, bad.xnor(bad.var(f"x{i}"), bad.var(f"y{i}")))
        blocked_size = bad.size(eq)
        interleaved = [bad.var_index(f"x{i // 2}") if i % 2 == 0
                       else bad.var_index(f"y{i // 2}")
                       for i in range(2 * n)]
        small_size = shared_size_under(bad, interleaved, {"eq": eq})
        assert small_size < blocked_size

    def test_transfer_between_managers(self):
        bdd, f = _setup()
        other = BDD()
        for name in ("a", "b", "c", "d"):
            other.add_var(name)
        g = transfer(f, bdd, other, {v: v for v in range(4)})
        assert other.eval(g, {"a": 1, "b": 1, "c": 0, "d": 0}) is True


class TestSift:
    def test_sift_never_worse(self):
        bad = BDD()
        n = 4
        for i in range(n):
            bad.add_var(f"x{i}")
        for i in range(n):
            bad.add_var(f"y{i}")
        eq = bad.true
        for i in range(n):
            eq = bad.and_(eq, bad.xnor(bad.var(f"x{i}"), bad.var(f"y{i}")))
        original = bad.size(eq)
        new, roots = sift(bad, {"eq": eq})
        assert new.size(roots["eq"]) <= original

    def test_sift_preserves_semantics(self):
        bdd, f = _setup()
        new, roots = sift(bdd, {"f": f})
        g = roots["f"]
        assert new.eval(g, {"a": 1, "b": 1, "c": 0, "d": 0}) is True
        assert new.eval(g, {"a": 0, "b": 1, "c": 0, "d": 0}) is False


class TestPopulationOrder:
    def test_most_populous_first(self):
        bdd = BDD()
        a = bdd.add_var("a")
        b = bdd.add_var("b")
        c = bdd.add_var("c")
        # a labels two nodes (literal + conjunction root), b one, c none.
        bdd.and_(bdd.var(a), bdd.var(b))
        order = population_order(bdd)
        assert order[0] == a
        assert order[1] == b
        assert order[2] == c
        assert bdd.var_population(a) > bdd.var_population(b) > bdd.var_population(c)

    def test_ties_break_by_level(self):
        bdd = BDD()
        names = [bdd.add_var(n) for n in ("p", "q", "r")]
        # No nodes at all: every population is 0, so the order falls back
        # to top-to-bottom levels.
        assert population_order(bdd) == list(bdd.order)
