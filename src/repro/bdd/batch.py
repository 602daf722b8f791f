"""Frontier-batched breadth-first apply engine for the BDD kernel.

The scalar operators in :mod:`repro.bdd.manager` pay a Python-level
call, hash and probe per node.  This module amortizes that overhead
across whole *frontiers*: a batch of requests is expanded level by
level (top-variable binning over the numpy ``var`` column), the
computed cache is probed for an entire frontier with one vectorized
gather, in-frontier duplicates are collapsed with a lexsort-based
``unique`` over packed ``(f, g, h)`` keys, and find-or-create against
the open-addressing unique table runs as a batched linear-probe loop
(vectorized hash plus masked probe rounds).  Results are resolved
bottom-up with the same vectorized reduction rules the scalar path
applies per node (equal-cofactor collapse, complement-edge
normalization, Brace-Rudell-Bryant standardization), so the two paths
build the *same* unique table and return identical handles.

Contract highlights (see docs/kernel.md for the full writeup):

* No GC, reorder or compaction can run mid-frontier — the engine never
  calls ``maybe_gc``; it only ever *flags* pending work exactly like
  scalar ``_mk`` does, and the flags fire at the caller's next safe
  point.
* Unique-table growth is hoisted: before each batched find-or-create
  the table is rebuilt large enough for the worst case, so the probe
  rounds themselves never rehash and always terminate.
* Batched inserts only ever fill *empty* slots (tombstones are skipped,
  not reused) which preserves every existing probe chain; the load
  accounting is identical, so health invariants hold mid-batch.
* The computed cache is written during the bottom-up resolution phase
  only, with the same standardized signatures the scalar operators use
  — batched and scalar calls share cache lines both ways.

The manager-facing entry points at the bottom (:func:`ite_many`,
:func:`and_exists_many`, :func:`rename_many`, :func:`vcompose_many`)
are called from :class:`repro.bdd.manager.BDD` for every request list of
two or more; they convert request lists to int64 arrays, update the batch
telemetry counters and emit ``bdd.batch_apply`` tracer instants.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bdd.manager import (
    BddError,
    FALSE,
    TRUE,
    _H1,
    _H2,
    _H3,
    _LEAF_LEVEL,
    _MAX_CACHE_SIZE,
    _OP_ANDEX,
    _OP_ITE,
    _OP_RENAME,
    _OP_VCOMP,
)

_UH1 = np.uint64(_H1)
_UH2 = np.uint64(_H2)
_UH3 = np.uint64(_H3)
_U16 = np.uint64(16)

#: Frontiers narrower than this resolve through the scalar recursion
#: instead of the vectorized wave: each vectorized level costs a fixed
#: few dozen small-array numpy dispatches, which only amortizes once a
#: level carries a few dozen unique triples.  Both strategies build the
#: same canonical nodes and share the same computed cache, so the
#: choice is invisible to callers (handles, counts and verdicts are
#: identical either way).
SCALAR_FRONTIER_CUTOFF = 32


# ----------------------------------------------------------------------
# Shared vectorized primitives
# ----------------------------------------------------------------------

def _levels(bdd) -> np.ndarray:
    """Level-of-var lookup padded so ``lvl[var]`` works for the terminal.

    The terminal's var column holds -1; indexing the padded array at -1
    lands on the appended ``_LEAF_LEVEL`` sentinel.
    """
    return np.append(
        np.asarray(bdd._level_of_var, dtype=np.int64), _LEAF_LEVEL
    )


def _hash3(a: np.ndarray, b: np.ndarray, c: np.ndarray, mask: int) -> np.ndarray:
    """Vectorized triple hash, bit-identical to the scalar probe hash."""
    h = (
        a.astype(np.uint64) * _UH1
        + b.astype(np.uint64) * _UH2
        + c.astype(np.uint64) * _UH3
    )
    h ^= h >> _U16
    return (h & np.uint64(mask)).astype(np.int64)


def _unique_triples(
    f: np.ndarray, g: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate rows of ``(f, g, h)``; returns uniques + inverse map."""
    order = np.lexsort((h, g, f))
    sf, sg, sh = f[order], g[order], h[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    if order.size > 1:
        first[1:] = (
            (sf[1:] != sf[:-1]) | (sg[1:] != sg[:-1]) | (sh[1:] != sh[:-1])
        )
    group = np.cumsum(first) - 1
    inv = np.empty(order.size, dtype=np.int64)
    inv[order] = group
    sel = order[first]
    return f[sel], g[sel], h[sel], inv


def _group_by_level(lvls: np.ndarray):
    """Yield ``(level, row_indices)`` groups of a level array."""
    order = np.argsort(lvls, kind="stable")
    sl = lvls[order]
    bounds = np.flatnonzero(sl[1:] != sl[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
    ends = np.concatenate((bounds, np.asarray([sl.size], dtype=np.int64)))
    for s, e in zip(starts, ends):
        yield int(sl[s]), order[s:e]


def _alloc_nodes(bdd, k: int) -> np.ndarray:
    """Claim ``k`` node indices: free list first (end-first, like the
    scalar allocator), then fresh indices past the high-water mark."""
    free = bdd._free
    nf = min(len(free), k)
    taken: List[int] = []
    if nf:
        taken = free[len(free) - nf:]
        taken.reverse()
        del free[len(free) - nf:]
    rest = k - nf
    if rest:
        while bdd._n + rest > bdd._cap:
            bdd._grow_nodes()
        start = bdd._n
        bdd._n = start + rest
        fresh = np.arange(start, start + rest, dtype=np.int64)
        if nf:
            return np.concatenate(
                (np.asarray(taken, dtype=np.int64), fresh)
            )
        return fresh
    return np.asarray(taken, dtype=np.int64)


def _mk_many(bdd, var: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized find-or-create over ``(var, lo, hi)`` rows.

    Applies the same canonical reductions as scalar ``_mk`` (equal
    cofactors collapse, complemented then-edges push the complement to
    the output), dedupes the batch, pre-grows the unique table so the
    probe rounds cannot trigger a rehash, then resolves every row with
    masked linear-probe rounds: matches return existing indices, the
    first prober of each empty slot claims it with a freshly allocated
    node, everyone else advances one slot and retries.
    """
    n = var.size
    out = np.empty(n, dtype=np.int64)
    triv = lo == hi
    if triv.any():
        out[triv] = lo[triv]
    act = np.flatnonzero(~triv)
    if act.size == 0:
        return out
    av = var[act]
    alo = lo[act].copy()
    ahi = hi[act].copy()
    neg = ahi & 1
    flip = neg == 1
    if flip.any():
        alo[flip] ^= 1
        ahi[flip] ^= 1
    uv, ulo, uhi, inv = _unique_triples(av, alo, ahi)
    k = uv.size
    # Pre-grow: guarantee at least k empty slots remain below the 3/4
    # load watermark so every probe round terminates without a rehash.
    if (bdd._ut_filled + k) * 4 >= bdd._ut_size * 3:
        size = bdd._ut_size
        while (bdd._ut_used + k) * 4 >= size * 3:
            size *= 2
        bdd._ut_rebuild(min_size=size)
    ut = bdd._ut_np
    mask = np.int64(bdd._ut_mask)
    one = np.int64(1)
    var_np = bdd._var_np
    lo_np = bdd._lo_np
    hi_np = bdd._hi_np
    res = np.empty(k, dtype=np.int64)
    slots = _hash3(uv, ulo, uhi, bdd._ut_mask)
    pend = np.arange(k, dtype=np.int64)
    created_rows: List[np.ndarray] = []
    while pend.size:
        e = ut[slots]
        pv = uv[pend]
        pl = ulo[pend]
        ph = uhi[pend]
        match = (e > 0) & (var_np[e] == pv) & (lo_np[e] == pl) & (hi_np[e] == ph)
        if match.any():
            res[pend[match]] = e[match] << 1
        claimed = np.zeros(pend.size, dtype=bool)
        empty = e == 0
        if empty.any():
            cand = np.flatnonzero(empty)
            cs = slots[cand]
            order = np.argsort(cs, kind="stable")
            cand = cand[order]
            cs = cs[order]
            first = np.empty(cand.size, dtype=bool)
            first[0] = True
            if cand.size > 1:
                first[1:] = cs[1:] != cs[:-1]
            win = cand[first]
            nodes = _alloc_nodes(bdd, int(win.size))
            if bdd._var_np is not var_np:
                var_np = bdd._var_np
                lo_np = bdd._lo_np
                hi_np = bdd._hi_np
            rows = pend[win]
            var_np[nodes] = uv[rows]
            lo_np[nodes] = ulo[rows]
            hi_np[nodes] = uhi[rows]
            ut[slots[win]] = nodes
            res[rows] = nodes << 1
            claimed[win] = True
            created_rows.append(rows)
        keep = ~match & ~claimed
        pend = pend[keep]
        slots = (slots[keep] + one) & mask
    if created_rows:
        rows = (
            created_rows[0] if len(created_rows) == 1
            else np.concatenate(created_rows)
        )
        created = int(rows.size)
        bdd._ut_filled += created
        bdd._ut_used += created
        counts = np.bincount(uv[rows], minlength=len(bdd._pop))
        pop = bdd._pop
        for vv in np.flatnonzero(counts):
            pop[vv] += int(counts[vv])
        bdd._nodes_since_gc += created
        live = bdd._n - len(bdd._free) + 1
        if live > bdd.peak_live_nodes:
            bdd.peak_live_nodes = live
        if (
            bdd.auto_gc is not None
            and not bdd._gc_pending
            and bdd._nodes_since_gc >= bdd.auto_gc
        ):
            bdd._gc_pending = True
        if (
            bdd.auto_reorder is not None
            and not bdd._reorder_pending
            and not bdd._in_reorder
            and live > bdd._reorder_watermark
        ):
            bdd._reorder_pending = True
        if bdd._ut_filled * 4 >= bdd._ut_size * 3:
            bdd._ut_rebuild()
    out[act] = res[inv] ^ neg
    return out


def _ck_put_many(
    bdd, a: np.ndarray, b: np.ndarray, c: np.ndarray, r: np.ndarray
) -> None:
    """Vectorized computed-cache insert (direct-mapped scatter).

    Duplicate slots within one batch keep the last writer — it is a
    cache, losing entries is always safe.
    """
    k = a.size
    if k == 0:
        return
    if bdd._ck_growable:
        while (
            bdd._ck_cap < _MAX_CACHE_SIZE
            and (bdd._ck_used + k) * 4 >= bdd._ck_cap * 3
        ):
            bdd._ck_grow()
    slot = _hash3(a, b, c, bdd._ck_mask)
    ck_a = bdd._ck_a_np
    prev = ck_a[slot]
    same = (
        (prev == a) & (bdd._ck_b_np[slot] == b) & (bdd._ck_c_np[slot] == c)
    )
    bdd.cache_evictions += int(np.count_nonzero((prev != -1) & ~same))
    uslot = np.unique(slot)
    fresh = int(np.count_nonzero(ck_a[uslot] == -1))
    ck_a[slot] = a
    bdd._ck_b_np[slot] = b
    bdd._ck_c_np[slot] = c
    bdd._ck_r_np[slot] = r
    bdd._ck_used += fresh


# ----------------------------------------------------------------------
# ITE wave engine
# ----------------------------------------------------------------------

def _intake_ite(bdd, f, g, h, stats, lvl_pad):
    """Vectorized mirror of the scalar ``_ite`` pre-expansion phase.

    Applies the equal/complement collapses, the terminal cases, the full
    BRB standardization and one computed-cache probe, in exactly the
    scalar rule order.  Returns ``(vals, pend, pf, pg, ph, pneg, plvl)``
    where ``vals`` holds resolved handles (valid everywhere except at
    the ``pend`` row indices) and the ``p*`` arrays are the
    standardized still-pending triples with their output complements
    and top levels.
    """
    n = f.size
    vals = np.empty(n, dtype=np.int64)
    empty_i = np.empty(0, dtype=np.int64)
    if n == 0:
        return vals, empty_i, empty_i, empty_i, empty_i, empty_i, empty_i
    f = f.copy()
    g = g.copy()
    h = h.copy()
    var_np = bdd._var_np
    # Collapse branches equal (or complementary) to the test.
    m = g == f
    g[m] = TRUE
    m = ~m & (g == (f ^ 1))
    g[m] = FALSE
    m = h == f
    h[m] = FALSE
    m = ~m & (h == (f ^ 1))
    h[m] = TRUE
    # Terminal cases, in scalar rule order.
    done = f == TRUE
    vals[done] = g[done]
    m = ~done & (f == FALSE)
    vals[m] = h[m]
    done |= m
    m = ~done & (g == h)
    vals[m] = g[m]
    done |= m
    m = ~done & (g == TRUE) & (h == FALSE)
    vals[m] = f[m]
    done |= m
    m = ~done & (g == FALSE) & (h == TRUE)
    vals[m] = f[m] ^ 1
    done |= m
    pi = np.flatnonzero(~done)
    if pi.size == 0:
        return vals, empty_i, empty_i, empty_i, empty_i, empty_i, empty_i
    pf = f[pi]
    pg = g[pi]
    ph = h[pi]
    of = pf.copy()
    og = pg.copy()
    oh = ph.copy()
    # Canonical argument order for the commutative forms; in every
    # branch both compared operands are internal (terminal combinations
    # all resolved above), matching the scalar if/elif chain.
    fkey = (lvl_pad[var_np[pf >> 1]] << 32) | (pf >> 1)
    m1 = pg == TRUE
    m2 = ~m1 & (ph == FALSE)
    m3 = ~m1 & ~m2 & (ph == TRUE)
    m4 = ~m1 & ~m2 & ~m3 & (pg == FALSE)
    m5 = ~m1 & ~m2 & ~m3 & ~m4 & (pg == (ph ^ 1))
    other = np.where(m1 | m4, ph, pg)
    okey = (lvl_pad[var_np[other >> 1]] << 32) | (other >> 1)
    swap = (m1 | m2 | m3 | m4 | m5) & (okey < fkey)
    if swap.any():
        s = m1 & swap  # f | h == h | f
        pf[s] = oh[s]
        ph[s] = of[s]
        s = m2 & swap  # f & g == g & f
        pf[s] = og[s]
        pg[s] = of[s]
        s = m3 & swap  # f -> g == ~g -> ~f
        pf[s] = og[s] ^ 1
        pg[s] = of[s] ^ 1
        s = m4 & swap  # ~f & h == ~h & f
        pf[s] = oh[s] ^ 1
        ph[s] = of[s] ^ 1
        s = m5 & swap  # f <-> g == g <-> f
        pf[s] = og[s]
        pg[s] = of[s]
        ph[s] = of[s] ^ 1
    # First argument regular: ite(~f, g, h) == ite(f, h, g).
    w = (pf & 1) == 1
    if w.any():
        pf[w] ^= 1
        tmp = pg[w].copy()
        pg[w] = ph[w]
        ph[w] = tmp
    # Then-branch regular: push the complement to the output.
    tn = (pg & 1) == 1
    pneg = tn.astype(np.int64)
    if tn.any():
        pg[tn] ^= 1
        ph[tn] ^= 1
    bdd.std_rewrites += int(np.count_nonzero(
        (pf != of) | (pg != og) | (ph != oh)
    ))
    # One whole-frontier computed-cache probe (vectorized gather).
    a = (pf << 6) | _OP_ITE
    stats[0] += int(pf.size)
    slot = _hash3(a, pg, ph, bdd._ck_mask)
    hit = (
        (bdd._ck_a_np[slot] == a)
        & (bdd._ck_b_np[slot] == pg)
        & (bdd._ck_c_np[slot] == ph)
    )
    nhits = int(np.count_nonzero(hit))
    if nhits:
        stats[1] += nhits
        vals[pi[hit]] = bdd._ck_r_np[slot[hit]] ^ pneg[hit]
        miss = ~hit
        pi = pi[miss]
        pf = pf[miss]
        pg = pg[miss]
        ph = ph[miss]
        pneg = pneg[miss]
    plvl = np.minimum(
        np.minimum(lvl_pad[var_np[pf >> 1]], lvl_pad[var_np[pg >> 1]]),
        lvl_pad[var_np[ph >> 1]],
    )
    return vals, pi, pf, pg, ph, pneg, plvl


def _run_ite(bdd, f, g, h, stats) -> np.ndarray:
    """Breadth-first batched ``ite`` over aligned request arrays.

    Expansion walks levels top-down, one deduplicated frontier per
    level; resolution walks back bottom-up, building each level's nodes
    with one :func:`_mk_many` call and caching each unique triple.
    Returns an int64 array of result handles aligned with the inputs.
    """
    n = f.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    if n < SCALAR_FRONTIER_CUTOFF:
        # Small request batch: skip the numpy machinery entirely.
        ite = bdd._ite
        for i in range(n):
            out[i] = ite(int(f[i]), int(g[i]), int(h[i]), stats)
        return out
    lvl_pad = _levels(bdd)
    nlev = len(bdd._var_at_level)
    var_at = bdd._var_at_level
    # buckets[L]: inflow chunks (pf, pg, ph, pneg, sink) awaiting level L.
    # recs[L]:    [uf, ug, uh, lo_vals, hi_vals] for the processed frontier.
    # links[L]:   (sink, pneg, inv_slice) scatter specs per inflow chunk.
    buckets: List[List[tuple]] = [[] for _ in range(nlev)]
    recs: List = [None] * nlev
    links: List[List[tuple]] = [[] for _ in range(nlev)]

    def submit(fa, ga, ha, sink_rows, sink_kind):
        # sink_kind: ("out",) writes to out[rows]; (side, L) writes into
        # recs[L]'s lo (side 0) or hi (side 1) column at rows.
        vals, pend, pf, pg, ph, pneg, plvl = _intake_ite(
            bdd, fa, ga, ha, stats, lvl_pad
        )
        if sink_kind[0] == "out":
            resolved = np.ones(fa.size, dtype=bool)
            resolved[pend] = False
            rr = np.flatnonzero(resolved)
            out[sink_rows[rr]] = vals[rr]
        else:
            side, parent = sink_kind
            col = recs[parent][3 + side]
            resolved = np.ones(fa.size, dtype=bool)
            resolved[pend] = False
            rr = np.flatnonzero(resolved)
            col[sink_rows[rr]] = vals[rr]
        if pend.size:
            rows = sink_rows[pend]
            for lv, sel in _group_by_level(plvl):
                buckets[lv].append(
                    (pf[sel], pg[sel], ph[sel], pneg[sel],
                     sink_kind + (rows[sel],))
                )

    submit(f, g, h, np.arange(n, dtype=np.int64), ("out",))
    processed: List[int] = []
    for L in range(nlev):
        chunks = buckets[L]
        if not chunks:
            continue
        buckets[L] = []
        cf = np.concatenate([c[0] for c in chunks])
        cg = np.concatenate([c[1] for c in chunks])
        ch = np.concatenate([c[2] for c in chunks])
        uf, ug, uh, inv = _unique_triples(cf, cg, ch)
        k = int(uf.size)
        if k < SCALAR_FRONTIER_CUTOFF:
            # Narrow level: the scalar recursion is cheaper than the
            # vectorized wave machinery.  It computes the very same
            # canonical results through the shared cache, so we scatter
            # them straight into the waiting sinks and skip the level.
            ite = bdd._ite
            res = np.fromiter(
                (ite(int(uf[i]), int(ug[i]), int(uh[i]), stats)
                 for i in range(k)),
                dtype=np.int64, count=k,
            )
            bdd.batch_frontiers += 1
            bdd.batch_frontier_nodes += k
            if k > bdd.batch_max_width:
                bdd.batch_max_width = k
            pos = 0
            for c in chunks:
                sz = c[0].size
                sink = c[4]
                vals = res[inv[pos:pos + sz]] ^ c[3]
                if sink[0] == "out":
                    out[sink[1]] = vals
                else:
                    recs[sink[1]][3 + sink[0]][sink[2]] = vals
                pos += sz
            continue
        lo_vals = np.empty(k, dtype=np.int64)
        hi_vals = np.empty(k, dtype=np.int64)
        recs[L] = [uf, ug, uh, lo_vals, hi_vals]
        pos = 0
        for c in chunks:
            sz = c[0].size
            links[L].append((c[4], c[3], inv[pos:pos + sz]))
            pos += sz
        processed.append(L)
        bdd.batch_frontiers += 1
        bdd.batch_frontier_nodes += k
        if k > bdd.batch_max_width:
            bdd.batch_max_width = k
        v = var_at[L]
        var_np = bdd._var_np
        lo_np = bdd._lo_np
        hi_np = bdd._hi_np
        fi = uf >> 1
        gi = ug >> 1
        hd = uh >> 1
        f_is = var_np[fi] == v
        g_is = var_np[gi] == v
        h_is = var_np[hd] == v
        cf_ = uf & 1
        cg_ = ug & 1
        ch_ = uh & 1
        f0 = np.where(f_is, lo_np[fi] ^ cf_, uf)
        f1 = np.where(f_is, hi_np[fi] ^ cf_, uf)
        g0 = np.where(g_is, lo_np[gi] ^ cg_, ug)
        g1 = np.where(g_is, hi_np[gi] ^ cg_, ug)
        h0 = np.where(h_is, lo_np[hd] ^ ch_, uh)
        h1 = np.where(h_is, hi_np[hd] ^ ch_, uh)
        rows = np.arange(k, dtype=np.int64)
        submit(f0, g0, h0, rows, (0, L))
        submit(f1, g1, h1, rows, (1, L))
    for L in reversed(processed):
        uf, ug, uh, lo_vals, hi_vals = recs[L]
        k = uf.size
        v = var_at[L]
        res = _mk_many(
            bdd, np.full(k, v, dtype=np.int64), lo_vals, hi_vals
        )
        _ck_put_many(bdd, (uf << 6) | _OP_ITE, ug, uh, res)
        for sink, pneg, inv_sl in links[L]:
            vals = res[inv_sl] ^ pneg
            if sink[0] == "out":
                out[sink[1]] = vals
            else:
                side, parent = sink[0], sink[1]
                recs[parent][3 + side][sink[2]] = vals
        recs[L] = None
        links[L] = []
    return out


# ----------------------------------------------------------------------
# and-exists (relational product) wave engine
# ----------------------------------------------------------------------

def _intake_andex(bdd, f, g, cube, stats, lvl_pad):
    """Vectorized mirror of the scalar ``_and_exists`` pre-expansion.

    Returns ``(vals, and_rows, af, ag, pend, pf, pg, pc, plvl)``:
    ``vals`` holds terminal resolutions, ``and_rows`` the request rows
    that degenerate to a plain conjunction (their operands in
    ``af``/``ag``), and the ``p*`` arrays the still-pending
    standardized ``(f, g, cube)`` triples at levels ``plvl``.
    """
    n = f.size
    vals = np.empty(n, dtype=np.int64)
    empty_i = np.empty(0, dtype=np.int64)
    if n == 0:
        return (vals, empty_i, empty_i, empty_i,
                empty_i, empty_i, empty_i, empty_i, empty_i)
    var_np = bdd._var_np
    hi_np = bdd._hi_np
    false_m = (f == FALSE) | (g == FALSE) | (f == (g ^ 1))
    vals[false_m] = FALSE
    and_m = ~false_m & (cube == TRUE)
    true_m = ~false_m & ~and_m & (f == TRUE) & (g == TRUE)
    vals[true_m] = TRUE
    pi = np.flatnonzero(~(false_m | and_m | true_m))
    and_rows = np.flatnonzero(and_m)
    af = f[and_rows]
    ag = g[and_rows]
    if pi.size == 0:
        return (vals, and_rows, af, ag,
                empty_i, empty_i, empty_i, empty_i, empty_i)
    pf = f[pi].copy()
    pg = g[pi].copy()
    pc = cube[pi].copy()
    sw = pf > pg
    if sw.any():
        tmp = pf[sw].copy()
        pf[sw] = pg[sw]
        pg[sw] = tmp
    top = np.minimum(lvl_pad[var_np[pf >> 1]], lvl_pad[var_np[pg >> 1]])
    # Skip cube variables above the operands' top level (rounds of the
    # scalar while loop, vectorized across the frontier).
    while True:
        adv = (pc >= 2) & (lvl_pad[var_np[pc >> 1]] < top)
        if not adv.any():
            break
        ci = pc[adv] >> 1
        pc[adv] = hi_np[ci] ^ (pc[adv] & 1)
    dropped = pc == TRUE
    if dropped.any():
        and_rows = np.concatenate((and_rows, pi[dropped]))
        af = np.concatenate((af, pf[dropped]))
        ag = np.concatenate((ag, pg[dropped]))
        keep = ~dropped
        pi = pi[keep]
        pf = pf[keep]
        pg = pg[keep]
        pc = pc[keep]
        top = top[keep]
    a = (pf << 6) | _OP_ANDEX
    stats[0] += int(pf.size)
    slot = _hash3(a, pg, pc, bdd._ck_mask)
    hit = (
        (bdd._ck_a_np[slot] == a)
        & (bdd._ck_b_np[slot] == pg)
        & (bdd._ck_c_np[slot] == pc)
    )
    nhits = int(np.count_nonzero(hit))
    if nhits:
        stats[1] += nhits
        vals[pi[hit]] = bdd._ck_r_np[slot[hit]]
        miss = ~hit
        pi = pi[miss]
        pf = pf[miss]
        pg = pg[miss]
        pc = pc[miss]
        top = top[miss]
    return vals, and_rows, af, ag, pi, pf, pg, pc, top


def _run_andex(bdd, f, g, cube) -> np.ndarray:
    """Breadth-first batched ``and_exists`` over aligned request arrays.

    Requests that degenerate to plain conjunctions (cube exhausted) are
    collected during expansion and resolved with one nested
    :func:`_run_ite` batch; quantified levels combine their cofactors
    with a nested batched OR during resolution.  The scalar path's
    lo==TRUE short circuit is intentionally absent — breadth-first
    expansion computes both cofactors before either resolves (the
    results are still identical, see docs/kernel.md).
    """
    stats = bdd._op_stats["andex"]
    n = f.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    if n < SCALAR_FRONTIER_CUTOFF:
        andex = bdd._and_exists
        for i in range(n):
            out[i] = andex(int(f[i]), int(g[i]), int(cube[i]))
        return out
    lvl_pad = _levels(bdd)
    nlev = len(bdd._var_at_level)
    var_at = bdd._var_at_level
    buckets: List[List[tuple]] = [[] for _ in range(nlev)]
    recs: List = [None] * nlev
    links: List[List[tuple]] = [[] for _ in range(nlev)]
    # Deferred plain-AND leftovers: (f_chunk, g_chunk, sink) specs.
    and_chunks: List[tuple] = []

    def submit(fa, ga, ca, sink_rows, sink_kind):
        vals, and_rows, af, ag, pend, pf, pg, pc, plvl = _intake_andex(
            bdd, fa, ga, ca, stats, lvl_pad
        )
        resolved = np.ones(fa.size, dtype=bool)
        resolved[pend] = False
        resolved[and_rows] = False
        rr = np.flatnonzero(resolved)
        if sink_kind[0] == "out":
            out[sink_rows[rr]] = vals[rr]
        else:
            recs[sink_kind[1]][3 + sink_kind[0]][sink_rows[rr]] = vals[rr]
        if and_rows.size:
            and_chunks.append((af, ag, sink_kind + (sink_rows[and_rows],)))
        if pend.size:
            rows = sink_rows[pend]
            for lv, sel in _group_by_level(plvl):
                buckets[lv].append(
                    (pf[sel], pg[sel], pc[sel], sink_kind + (rows[sel],))
                )

    submit(f, g, cube, np.arange(n, dtype=np.int64), ("out",))
    processed: List[int] = []
    for L in range(nlev):
        chunks = buckets[L]
        if not chunks:
            continue
        buckets[L] = []
        cf = np.concatenate([c[0] for c in chunks])
        cg = np.concatenate([c[1] for c in chunks])
        cc = np.concatenate([c[2] for c in chunks])
        uf, ug, uc, inv = _unique_triples(cf, cg, cc)
        k = int(uf.size)
        if k < SCALAR_FRONTIER_CUTOFF:
            # Narrow level: resolve scalar (same canonical results via
            # the shared cache) and scatter straight into the sinks.
            andex = bdd._and_exists
            res = np.fromiter(
                (andex(int(uf[i]), int(ug[i]), int(uc[i]))
                 for i in range(k)),
                dtype=np.int64, count=k,
            )
            bdd.batch_frontiers += 1
            bdd.batch_frontier_nodes += k
            if k > bdd.batch_max_width:
                bdd.batch_max_width = k
            pos = 0
            for c in chunks:
                sz = c[0].size
                sink = c[3]
                vals = res[inv[pos:pos + sz]]
                if sink[0] == "out":
                    out[sink[1]] = vals
                else:
                    recs[sink[1]][3 + sink[0]][sink[2]] = vals
                pos += sz
            continue
        lo_vals = np.empty(k, dtype=np.int64)
        hi_vals = np.empty(k, dtype=np.int64)
        v = var_at[L]
        var_np = bdd._var_np
        lo_np = bdd._lo_np
        hi_np = bdd._hi_np
        quant = var_np[uc >> 1] == v
        recs[L] = [uf, ug, uc, lo_vals, hi_vals, quant]
        pos = 0
        for c in chunks:
            sz = c[0].size
            links[L].append((c[3], inv[pos:pos + sz]))
            pos += sz
        processed.append(L)
        bdd.batch_frontiers += 1
        bdd.batch_frontier_nodes += k
        if k > bdd.batch_max_width:
            bdd.batch_max_width = k
        sub = np.where(quant, hi_np[uc >> 1] ^ (uc & 1), uc)
        fi = uf >> 1
        gi = ug >> 1
        f_is = var_np[fi] == v
        g_is = var_np[gi] == v
        cf_ = uf & 1
        cg_ = ug & 1
        f0 = np.where(f_is, lo_np[fi] ^ cf_, uf)
        f1 = np.where(f_is, hi_np[fi] ^ cf_, uf)
        g0 = np.where(g_is, lo_np[gi] ^ cg_, ug)
        g1 = np.where(g_is, hi_np[gi] ^ cg_, ug)
        rows = np.arange(k, dtype=np.int64)
        submit(f0, g0, sub, rows, (0, L))
        submit(f1, g1, sub, rows, (1, L))
    if and_chunks:
        af = np.concatenate([c[0] for c in and_chunks])
        ag = np.concatenate([c[1] for c in and_chunks])
        ares = _run_ite(
            bdd, af, ag, np.full(af.size, FALSE, dtype=np.int64),
            bdd._op_stats["and"],
        )
        pos = 0
        for c in and_chunks:
            sz = c[0].size
            sink = c[2]
            vals = ares[pos:pos + sz]
            if sink[0] == "out":
                out[sink[1]] = vals
            else:
                recs[sink[1]][3 + sink[0]][sink[2]] = vals
            pos += sz
    for L in reversed(processed):
        uf, ug, uc, lo_vals, hi_vals, quant = recs[L]
        k = uf.size
        v = var_at[L]
        res = np.empty(k, dtype=np.int64)
        nq = np.flatnonzero(~quant)
        if nq.size:
            res[nq] = _mk_many(
                bdd, np.full(nq.size, v, dtype=np.int64),
                lo_vals[nq], hi_vals[nq],
            )
        qq = np.flatnonzero(quant)
        if qq.size:
            # exists v . node == lo | hi, as one nested batched OR.
            res[qq] = _run_ite(
                bdd, lo_vals[qq],
                np.full(qq.size, TRUE, dtype=np.int64), hi_vals[qq],
                bdd._op_stats["or"],
            )
        _ck_put_many(bdd, (uf << 6) | _OP_ANDEX, ug, uc, res)
        for sink, inv_sl in links[L]:
            vals = res[inv_sl]
            if sink[0] == "out":
                out[sink[1]] = vals
            else:
                recs[sink[1]][3 + sink[0]][sink[2]] = vals
        recs[L] = None
        links[L] = []
    return out


# ----------------------------------------------------------------------
# Unary traversal engines: rename / vector_compose
# ----------------------------------------------------------------------

def _intake_unary(bdd, f, opcode, key_b, stats, lvl_pad):
    """Shared unary intake: terminals, complement split, cache probe.

    Returns ``(vals, pend, pf, pneg, plvl)`` with ``pf`` regular.
    """
    n = f.size
    vals = np.empty(n, dtype=np.int64)
    empty_i = np.empty(0, dtype=np.int64)
    if n == 0:
        return vals, empty_i, empty_i, empty_i, empty_i
    done = f < 2
    vals[done] = f[done]
    pi = np.flatnonzero(~done)
    if pi.size == 0:
        return vals, empty_i, empty_i, empty_i, empty_i
    pf = f[pi]
    pneg = pf & 1
    pf = pf ^ pneg
    a = (pf << 6) | opcode
    stats[0] += int(pf.size)
    kb = np.full(pf.size, key_b, dtype=np.int64)
    zero = np.zeros(pf.size, dtype=np.int64)
    slot = _hash3(a, kb, zero, bdd._ck_mask)
    hit = (
        (bdd._ck_a_np[slot] == a)
        & (bdd._ck_b_np[slot] == key_b)
        & (bdd._ck_c_np[slot] == 0)
    )
    nhits = int(np.count_nonzero(hit))
    if nhits:
        stats[1] += nhits
        vals[pi[hit]] = bdd._ck_r_np[slot[hit]] ^ pneg[hit]
        miss = ~hit
        pi = pi[miss]
        pf = pf[miss]
        pneg = pneg[miss]
    plvl = lvl_pad[bdd._var_np[pf >> 1]]
    return vals, pi, pf, pneg, plvl


def _run_unary(bdd, fs, opcode, key_b, stats, resolve, scalar) -> np.ndarray:
    """Breadth-first batched unary traversal (rename / vector-compose).

    ``resolve(level, var, lo_vals, hi_vals)`` builds the level's result
    handles from the (already resolved) children of the frontier's
    unique regular nodes.  ``scalar(handle)`` is the equivalent scalar
    recursion, used for frontiers below the width cutoff.
    """
    n = fs.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    if n < SCALAR_FRONTIER_CUTOFF:
        for i in range(n):
            out[i] = scalar(int(fs[i]))
        return out
    lvl_pad = _levels(bdd)
    nlev = len(bdd._var_at_level)
    var_at = bdd._var_at_level
    buckets: List[List[tuple]] = [[] for _ in range(nlev)]
    recs: List = [None] * nlev
    links: List[List[tuple]] = [[] for _ in range(nlev)]

    def submit(fa, sink_rows, sink_kind):
        vals, pend, pf, pneg, plvl = _intake_unary(
            bdd, fa, opcode, key_b, stats, lvl_pad
        )
        resolved = np.ones(fa.size, dtype=bool)
        resolved[pend] = False
        rr = np.flatnonzero(resolved)
        if sink_kind[0] == "out":
            out[sink_rows[rr]] = vals[rr]
        else:
            recs[sink_kind[1]][1 + sink_kind[0]][sink_rows[rr]] = vals[rr]
        if pend.size:
            rows = sink_rows[pend]
            for lv, sel in _group_by_level(plvl):
                buckets[lv].append(
                    (pf[sel], pneg[sel], sink_kind + (rows[sel],))
                )

    submit(fs, np.arange(n, dtype=np.int64), ("out",))
    processed: List[int] = []
    for L in range(nlev):
        chunks = buckets[L]
        if not chunks:
            continue
        buckets[L] = []
        cf = np.concatenate([c[0] for c in chunks])
        uf, inv = np.unique(cf, return_inverse=True)
        k = int(uf.size)
        if k < SCALAR_FRONTIER_CUTOFF:
            res = np.fromiter(
                (scalar(int(uf[i])) for i in range(k)),
                dtype=np.int64, count=k,
            )
            bdd.batch_frontiers += 1
            bdd.batch_frontier_nodes += k
            if k > bdd.batch_max_width:
                bdd.batch_max_width = k
            pos = 0
            for c in chunks:
                sz = c[0].size
                sink = c[2]
                vals = res[inv[pos:pos + sz]] ^ c[1]
                if sink[0] == "out":
                    out[sink[1]] = vals
                else:
                    recs[sink[1]][1 + sink[0]][sink[2]] = vals
                pos += sz
            continue
        lo_vals = np.empty(k, dtype=np.int64)
        hi_vals = np.empty(k, dtype=np.int64)
        recs[L] = [uf, lo_vals, hi_vals]
        pos = 0
        for c in chunks:
            sz = c[0].size
            links[L].append((c[2], c[1], inv[pos:pos + sz]))
            pos += sz
        processed.append(L)
        bdd.batch_frontiers += 1
        bdd.batch_frontier_nodes += k
        if k > bdd.batch_max_width:
            bdd.batch_max_width = k
        fi = uf >> 1
        rows = np.arange(k, dtype=np.int64)
        # Children are the raw stored edges (uf is regular).
        submit(bdd._lo_np[fi].copy(), rows, (0, L))
        submit(bdd._hi_np[fi].copy(), rows, (1, L))
    for L in reversed(processed):
        uf, lo_vals, hi_vals = recs[L]
        res = resolve(L, var_at[L], lo_vals, hi_vals)
        _ck_put_many(
            bdd, (uf << 6) | opcode,
            np.full(uf.size, key_b, dtype=np.int64),
            np.zeros(uf.size, dtype=np.int64), res,
        )
        for sink, pneg, inv_sl in links[L]:
            vals = res[inv_sl] ^ pneg
            if sink[0] == "out":
                out[sink[1]] = vals
            else:
                recs[sink[1]][1 + sink[0]][sink[2]] = vals
        recs[L] = None
        links[L] = []
    return out


def _run_rename(bdd, fs, mapping: Dict[int, int], map_id: int) -> np.ndarray:
    """Batched order-preserving variable rename over many roots."""
    lvl_pad = _levels(bdd)

    def resolve(level, v, lo_vals, hi_vals):
        nvar = mapping.get(v, v)
        nlvl = bdd._level_of_var[nvar]
        var_np = bdd._var_np
        bad = (
            ((lo_vals >= 2) & (lvl_pad[var_np[lo_vals >> 1]] <= nlvl))
            | ((hi_vals >= 2) & (lvl_pad[var_np[hi_vals >> 1]] <= nlvl))
        )
        if bad.any():
            raise BddError(
                "rename would reorder variables; use compose instead"
            )
        return _mk_many(
            bdd, np.full(lo_vals.size, nvar, dtype=np.int64),
            lo_vals, hi_vals,
        )

    return _run_unary(
        bdd, fs, _OP_RENAME, map_id, bdd._op_stats["rename"], resolve,
        lambda h: bdd._rename(h, mapping, map_id),
    )


def _run_vcompose(bdd, fs, sub: Dict[int, int], map_id: int) -> np.ndarray:
    """Batched simultaneous functional composition over many roots."""

    def resolve(level, v, lo_vals, hi_vals):
        gfn = sub.get(v)
        if gfn is None:
            gfn = bdd.var(v)
        return _run_ite(
            bdd, np.full(lo_vals.size, gfn, dtype=np.int64),
            hi_vals, lo_vals, bdd._op_stats["ite"],
        )

    return _run_unary(
        bdd, fs, _OP_VCOMP, map_id, bdd._op_stats["vcomp"], resolve,
        lambda h: bdd._vcompose(h, sub, map_id),
    )


# ----------------------------------------------------------------------
# Manager-facing entry points
# ----------------------------------------------------------------------

def _columns(requests: Sequence, width: int) -> List[np.ndarray]:
    arr = np.asarray(requests, dtype=np.int64)
    arr = arr.reshape(len(requests), width)
    return [np.ascontiguousarray(arr[:, i]) for i in range(width)]


def _finish(bdd, kind: str, nreq: int, fr0: int, nd0: int) -> None:
    bdd.batch_calls += 1
    bdd.batch_requests += nreq
    bdd.tracer.instant(
        "bdd.batch_apply", cat="bdd", kind=kind, requests=nreq,
        frontiers=bdd.batch_frontiers - fr0,
        frontier_nodes=bdd.batch_frontier_nodes - nd0,
    )


def ite_many(bdd, triples: Sequence, op: str = "ite") -> List[int]:
    """Batched standardized ``ite`` over ``(f, g, h)`` triples.

    ``op`` names the entry point for cache-stat attribution (the cache
    key stays the shared standardized ITE signature).
    """
    f, g, h = _columns(triples, 3)
    fr0, nd0 = bdd.batch_frontiers, bdd.batch_frontier_nodes
    out = _run_ite(bdd, f, g, h, bdd._op_stats[op])
    _finish(bdd, op, len(triples), fr0, nd0)
    return out.tolist()


def and_exists_many(bdd, requests: Sequence) -> List[int]:
    """Batched fused relational products over ``(f, g, cube)`` triples."""
    f, g, cube = _columns(requests, 3)
    fr0, nd0 = bdd.batch_frontiers, bdd.batch_frontier_nodes
    out = _run_andex(bdd, f, g, cube)
    _finish(bdd, "andex", len(requests), fr0, nd0)
    return out.tolist()


def rename_many(
    bdd, fs: Sequence[int], mapping: Dict[int, int], map_id: int
) -> List[int]:
    """Batched rename of many roots under one shared mapping."""
    arr = np.asarray(list(fs), dtype=np.int64)
    fr0, nd0 = bdd.batch_frontiers, bdd.batch_frontier_nodes
    out = _run_rename(bdd, arr, mapping, map_id)
    _finish(bdd, "rename", int(arr.size), fr0, nd0)
    return out.tolist()


def vcompose_many(
    bdd, fs: Sequence[int], sub: Dict[int, int], map_id: int
) -> List[int]:
    """Batched simultaneous composition of many roots."""
    arr = np.asarray(list(fs), dtype=np.int64)
    fr0, nd0 = bdd.batch_frontiers, bdd.batch_frontier_nodes
    out = _run_vcompose(bdd, arr, sub, map_id)
    _finish(bdd, "vcomp", int(arr.size), fr0, nd0)
    return out.tolist()
