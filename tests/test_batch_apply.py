"""Frontier-batched apply: batched == scalar, handle for handle.

The batched engine (``repro.bdd.batch``) shares the scalar path's
unique table and computed cache, so for equal functions it must return
*identical handles*, not merely equivalent BDDs.  These tests pin that
down against the exhaustive truth-table oracle, across random op DAGs,
under a one-entry computed cache, through mid-batch table growth and
tombstone pressure, and for every consumer routed through the engine
(transfer, encode, image schedules).

The scalar reference is the same kernel with its routing seam
(``BDD._use_batch``) forced to the scalar recursion: see the
``scalar_only`` fixture.
"""

import contextlib
import random

import pytest

from repro.bdd import BDD
from repro.bdd.batch import SCALAR_FRONTIER_CUTOFF
from repro.bdd.manager import FALSE, TRUE, BddError
from repro.bdd.ops import transfer
from repro.oracle.truthtable import TruthTable

N = 5


def _always_scalar(self: BDD, n: int) -> bool:
    self.batch_scalar_requests += n
    return False


@pytest.fixture
def scalar_only(monkeypatch):
    """Context manager that routes every request list, of any length,
    through the scalar recursion inside its block."""

    @contextlib.contextmanager
    def scalar():
        with monkeypatch.context() as m:
            m.setattr(BDD, "_use_batch", _always_scalar)
            yield

    return scalar


def transfer_reference(f: int, src: BDD, dst: BDD, var_map, memo=None) -> int:
    """Recursive Shannon-expansion copy of ``f`` into ``dst``."""
    if f < 2:
        return f
    memo = {} if memo is None else memo
    idx = f >> 1
    if idx not in memo:
        lo = transfer_reference(src._lo[idx], src, dst, var_map, memo)
        hi = transfer_reference(src._hi[idx], src, dst, var_map, memo)
        memo[idx] = dst.ite(dst.var(var_map[src._var[idx]]), hi, lo)
    return memo[idx] ^ (f & 1)


def fresh(**kwargs) -> BDD:
    bdd = BDD(**kwargs)
    for i in range(N):
        bdd.add_var(f"v{i}")
    return bdd


def random_pool(bdd: BDD, rng: random.Random, steps: int = 18):
    """Grow a random op DAG, tracking the truth table of every node."""
    pool = [
        (bdd.false, TruthTable.false(N)),
        (bdd.true, TruthTable.true(N)),
    ]
    pool += [(bdd.var(i), TruthTable.var(N, i)) for i in range(N)]
    for _ in range(steps):
        (f, tf), (g, tg), (h, th) = (
            pool[rng.randrange(len(pool))] for _ in range(3)
        )
        op = rng.choice(["and", "or", "xor", "ite", "and_exists"])
        if op == "ite":
            pool.append((bdd.ite(f, g, h), tf.ite(tg, th)))
        elif op == "and_exists":
            qvars = rng.sample(range(N), rng.randint(1, N - 1))
            pool.append((bdd.and_exists(f, g, qvars), tf.and_exists(tg, qvars)))
        else:
            node = {"and": bdd.and_, "or": bdd.or_, "xor": bdd.xor}[op](f, g)
            table = {"and": tf & tg, "or": tf | tg, "xor": tf ^ tg}[op]
            pool.append((node, table))
    return pool


def assert_matches_oracle(bdd: BDD, node: int, table: TruthTable, what: str):
    for a in range(1 << N):
        assignment = {j: bool((a >> j) & 1) for j in range(N)}
        assert bdd.eval(node, assignment) == table.eval(a), (
            f"{what}: disagrees with oracle at {a:0{N}b}"
        )


class TestIteMany:
    def test_handle_identical_to_looped_ite(self):
        rng = random.Random(7)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        triples = [
            tuple(pool[rng.randrange(len(pool))][0] for _ in range(3))
            for _ in range(40)
        ]
        batched = bdd.ite_many(triples)
        scalar = [bdd.ite(f, g, h) for f, g, h in triples]
        assert batched == scalar

    def test_matches_truth_table_oracle(self):
        rng = random.Random(11)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        picks = [
            tuple(pool[rng.randrange(len(pool))] for _ in range(3))
            for _ in range(30)
        ]
        results = bdd.ite_many(
            [(f[0], g[0], h[0]) for f, g, h in picks]
        )
        for node, ((_, tf), (_, tg), (_, th)) in zip(results, picks):
            assert_matches_oracle(bdd, node, tf.ite(tg, th), "ite_many")

    def test_cross_manager_parity(self, scalar_only):
        """Batched and scalar-routed managers, same requests: same
        functions and node counts.  (Raw handle values are only canonical
        within one unique table — allocation order differs across
        managers — so equality is asserted per-function via the oracle
        and sizes.)"""
        rng1, rng2 = random.Random(3), random.Random(3)
        batched = fresh()
        p1 = random_pool(batched, rng1, steps=40)
        reqs = [
            (rng1.randrange(len(p1)), rng1.randrange(len(p1)),
             rng1.randrange(len(p1)))
            for _ in range(96)
        ]
        got = batched.ite_many([(p1[a][0], p1[b][0], p1[c][0])
                                for a, b, c in reqs])
        with scalar_only():
            scalar = fresh()
            p2 = random_pool(scalar, rng2, steps=40)
            triples = [(p2[a][0], p2[b][0], p2[c][0]) for a, b, c in reqs]
            want = scalar.ite_many(triples)
            # The scalar route is exactly the looped operator.
            assert want == [scalar.ite(f, g, h) for f, g, h in triples]
        assert [n for n, _ in p1] == [n for n, _ in p2]
        for (a, b, c), gn, wn in zip(reqs, got, want):
            table = p1[a][1].ite(p1[b][1], p1[c][1])
            assert_matches_oracle(batched, gn, table, "batched")
            assert_matches_oracle(scalar, wn, table, "scalar")
            assert batched.size(gn) == scalar.size(wn)
        assert len(batched) == len(scalar)
        # At least one level was wide enough for the vectorized wave.
        assert batched.batch_max_width >= SCALAR_FRONTIER_CUTOFF
        assert scalar.batch_calls == 0
        assert scalar.batch_scalar_requests >= 96

    def test_in_frontier_duplicates_dedupe(self):
        bdd = fresh()
        f, g = bdd.var(0), bdd.var(3)
        results = bdd.ite_many([(f, g, bdd.false)] * 64)
        assert len(set(results)) == 1
        assert results[0] == bdd.and_(f, g)


class TestApplyMany:
    def test_all_ops_match_scalar(self):
        rng = random.Random(19)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        pairs = [
            (pool[rng.randrange(len(pool))][0], pool[rng.randrange(len(pool))][0])
            for _ in range(20)
        ]
        for op, scalar_fn in [
            ("and", bdd.and_), ("or", bdd.or_), ("xor", bdd.xor),
            ("xnor", bdd.xnor), ("implies", bdd.implies), ("diff", bdd.diff),
        ]:
            assert bdd.apply_many(op, pairs) == [
                scalar_fn(f, g) for f, g in pairs
            ], op

    def test_unknown_op_rejected(self):
        bdd = fresh()
        with pytest.raises(BddError):
            bdd.apply_many("nand", [(bdd.var(0), bdd.var(1))])


class TestAndExistsMany:
    def test_matches_scalar_and_oracle(self):
        rng = random.Random(23)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        reqs, tables = [], []
        for _ in range(25):
            (f, tf), (g, tg) = (
                pool[rng.randrange(len(pool))] for _ in range(2)
            )
            qvars = rng.sample(range(N), rng.randint(1, N - 1))
            reqs.append((f, g, qvars))
            tables.append(tf.and_exists(tg, qvars))
        results = bdd.and_exists_many(reqs)
        for (f, g, qvars), node, table in zip(reqs, results, tables):
            assert node == bdd.and_exists(f, g, qvars)
            assert_matches_oracle(bdd, node, table, "and_exists_many")

    def test_exist_degenerate_form(self):
        """(TRUE, f, cube) requests are plain existential quantification."""
        rng = random.Random(29)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        fs = [pool[rng.randrange(len(pool))][0] for _ in range(12)]
        got = bdd.and_exists_many([(bdd.true, f, [0, 2]) for f in fs])
        assert got == [bdd.exist([0, 2], f) for f in fs]


class TestRenameAndCompose:
    def test_rename_many_matches_scalar(self):
        rng = random.Random(31)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        mapping = {0: 1, 3: 4}
        fs = [pool[rng.randrange(len(pool))][0] for _ in range(16)]
        safe = [f for f in fs
                if not ({0, 1, 3, 4} & set(bdd.support(f)) - {0, 3})]
        assert bdd.rename_many(safe, mapping) == [
            bdd.rename(f, mapping) for f in safe
        ]

    def test_rename_many_strict_violation_raises(self):
        bdd = fresh()
        f = bdd.and_(bdd.var(0), bdd.var(1))  # v1 occupied: swap collides
        with pytest.raises(BddError):
            bdd.rename_many([f, f], {0: 1})

    def test_rename_many_nonstrict_falls_back_to_compose(self):
        bdd = fresh()
        f = bdd.and_(bdd.var(0), bdd.var(1))
        got = bdd.rename_many([f, bdd.var(0)], {0: 1}, strict=False)
        assert got == [
            bdd.vector_compose(f, {0: bdd.var(1)}),
            bdd.var(1),
        ]

    def test_vector_compose_many_matches_scalar(self):
        rng = random.Random(37)
        bdd = fresh()
        pool = random_pool(bdd, rng)
        sub = {0: bdd.xor(bdd.var(1), bdd.var(2)), 4: bdd.and_(
            bdd.var(2), bdd.var(3))}
        fs = [pool[rng.randrange(len(pool))][0] for _ in range(16)]
        assert bdd.vector_compose_many(fs, sub) == [
            bdd.vector_compose(f, sub) for f in fs
        ]


class TestKernelHealthMidBatch:
    def test_cache_limit_one(self):
        """A one-entry computed cache still yields exact results."""
        rng = random.Random(41)
        bdd = fresh(cache_limit=1)
        pool = random_pool(bdd, rng, steps=10)
        picks = [
            tuple(pool[rng.randrange(len(pool))] for _ in range(3))
            for _ in range(20)
        ]
        results = bdd.ite_many([(f[0], g[0], h[0]) for f, g, h in picks])
        for node, ((_, tf), (_, tg), (_, th)) in zip(results, picks):
            assert_matches_oracle(bdd, node, tf.ite(tg, th), "cache_limit=1")

    def test_growth_and_tombstones_mid_batch(self):
        """Batched find-or-create across table growth and GC tombstones."""
        bdd = BDD()
        n = 12
        for i in range(n):
            bdd.add_var(f"v{i}")
        # Populate, then kill a large population to leave tombstones.
        junk = [
            bdd.and_(bdd.var(i), bdd.xor(bdd.var(j), bdd.var((j + 1) % n)))
            for i in range(n) for j in range(n)
        ]
        del junk
        bdd.gc()
        assert bdd._ut_filled >= bdd._ut_used  # tombstones may remain
        # One wide batch forcing fresh allocation (unique-table growth
        # happens inside _mk_many's pre-grow, mid-batch).
        triples = []
        expect = []
        for i in range(n - 1):
            for j in range(i + 1, n):
                triples.append((bdd.var(i), bdd.var(j), bdd.nvar(j)))
        results = bdd.ite_many(triples)
        for (f, g, h), node in zip(triples, results):
            assert node == bdd.ite(f, g, h)
        # Stored-then-regular canonical form holds over every live node.
        for idx in range(1, bdd.stats()["allocated_nodes"]):
            if bdd._var[idx] >= 0:
                assert bdd._hi[idx] & 1 == 0
        assert bdd.stats()["unique_used"] == len(bdd) - 2

    def test_no_gc_mid_frontier(self):
        """Auto-GC arms during a batch but only fires at safe points."""
        bdd = fresh(auto_gc=64)
        rng = random.Random(43)
        pool = random_pool(bdd, rng)
        before = bdd.stats()["gc_runs"]
        triples = [
            tuple(pool[rng.randrange(len(pool))][0] for _ in range(3))
            for _ in range(200)
        ]
        results = bdd.ite_many(triples)
        assert bdd.stats()["gc_runs"] == before  # deferred, not run inline
        bdd.maybe_gc(extra_roots=[n for n, _ in pool] + results)
        assert bdd.stats()["gc_runs"] > before
        # The collection kept every rooted result reachable and canonical.
        assert bdd.ite_many(triples) == results


class TestKnob:
    """The route is chosen by request count alone; nothing selects it."""

    def test_no_user_selection(self):
        with pytest.raises(TypeError):
            BDD(batch_apply=False)
        bdd = fresh()
        assert not hasattr(bdd, "batch_apply")
        f, g = bdd.var(0), bdd.var(1)
        bdd.ite_many([(f, g, bdd.false)])
        assert (bdd.batch_calls, bdd.batch_scalar_requests) == (0, 1)
        bdd.ite_many([(f, g, bdd.false), (g, f, bdd.true)])
        assert (bdd.batch_calls, bdd.batch_scalar_requests) == (1, 1)

    def test_stats_exposed(self):
        bdd = fresh()
        # Distinct triples, wide enough to clear the scalar-fallback
        # cutoff so the wave engine actually runs a frontier.
        rng = random.Random(17)
        pool = random_pool(bdd, rng)
        funcs = [f for f, _ in pool]
        nreq = max(2 * SCALAR_FRONTIER_CUTOFF, 64)
        triples = [
            (funcs[rng.randrange(len(funcs))],
             funcs[rng.randrange(len(funcs))],
             funcs[rng.randrange(len(funcs))])
            for _ in range(nreq)
        ]
        bdd.ite_many(triples)
        s = bdd.stats()
        assert s["batch_calls"] == 1
        assert s["batch_requests"] == nreq
        assert s["batch_frontiers"] >= 1
        assert s["batch_max_width"] >= 1


class TestTransferBatched:
    def test_transfer_parity_and_permuted_order(self):
        rng = random.Random(53)
        src = fresh()
        pool = random_pool(src, rng)
        perm = list(range(N))
        rng.shuffle(perm)
        var_map = {i: perm[i] for i in range(N)}
        dst = fresh()
        for f, table in pool:
            hb = transfer(f, src, dst, var_map)
            # Same destination table: the Shannon-expansion reference
            # must find every node the batched copy created.
            assert transfer_reference(f, src, dst, var_map) == hb
            for a in range(1 << N):
                assignment = {perm[j]: bool((a >> j) & 1) for j in range(N)}
                assert dst.eval(hb, assignment) == table.eval(a)


class TestConsumers:
    def test_encode_gallery_handle_parity(self, scalar_only):
        from repro.models import get_spec
        from repro.network.encode import encode

        # Table encoding builds case trees node by node; whatever the
        # kernel's routing, the conjuncts come out the same.
        for name in ("traffic", "railroad", "gcd"):
            flat = get_spec(name).flat()
            on = encode(flat)
            with scalar_only():
                off = encode(flat)
            assert off.bdd.batch_calls == 0
            assert len(on.bdd) == len(off.bdd)
            assert len(on.conjuncts) == len(off.conjuncts)
            for ca, cb in zip(on.conjuncts, off.conjuncts):
                assert on.bdd.size(ca.node) == off.bdd.size(cb.node)
                assert ca.support == cb.support
            assert on.bdd.size(on.init) == off.bdd.size(off.init)

    def test_shared_shape_instantiation_batches(self, scalar_only):
        from repro.models import get_spec
        from repro.network.encode import encode

        # Every substituted instance replays the representative's
        # conjuncts through one rename_many request list.
        elaboration = get_spec("philos_hier", n=4).elaborate()
        on = encode(elaboration.flat, elaboration=elaboration)
        with scalar_only():
            off = encode(elaboration.flat, elaboration=elaboration)
        assert on.instances_substituted == 3
        assert on.bdd.batch_calls == on.instances_substituted
        assert on.bdd.batch_requests > on.bdd.batch_calls
        assert off.bdd.batch_calls == 0
        assert off.bdd.batch_scalar_requests >= on.bdd.batch_requests
        assert len(on.bdd) == len(off.bdd)
        for ca, cb in zip(on.conjuncts, off.conjuncts):
            assert on.bdd.size(ca.node) == off.bdd.size(cb.node)
            assert ca.support == cb.support

    def test_reachability_verdict_parity(self, scalar_only):
        from repro.models import get_spec
        from repro.network.fsm import SymbolicFsm

        def run(flat):
            fsm = SymbolicFsm(flat)
            reach = fsm.reachable(partitioned=True)
            return (
                fsm.count_states(reach.reached),
                reach.iterations,
                [fsm.count_states(r) for r in reach.rings],
            )

        for name in ("traffic", "vending"):
            flat = get_spec(name).flat()
            batched = run(flat)
            with scalar_only():
                assert run(flat) == batched, name
