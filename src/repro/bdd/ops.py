"""Secondary BDD operations built on the manager primitives.

These helpers are shared by the network/verification layers: cube
arithmetic, cross-manager transfer, and small conveniences that do not
need access to manager internals beyond its public API.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.bdd.manager import BDD, FALSE, TRUE


def transfer(f: int, src: BDD, dst: BDD, var_map: Dict[int, int]) -> int:
    """Copy function ``f`` from manager ``src`` into manager ``dst``.

    ``var_map`` maps source variable indices to destination variable
    indices.  The destination order may be arbitrary: every source node
    is rebuilt by Shannon expansion in destination order via ``ite``, so
    the result is canonical in ``dst``.  This is the basis of
    rebuild-based reordering.

    The copy runs level-by-level over the *source* DAG: one
    ``ite_many`` frontier per source level (children are always at
    deeper levels, so a bottom-up sweep resolves every node in
    ``depth`` batched calls).  Complement edges transfer for free (dst
    is complement-edged too), so a handle maps to
    ``memo[index] ^ complement``.
    """
    if f < 2:
        return f
    lo_np, hi_np, var_np = src._lo_np, src._hi_np, src._var_np
    n = src._n
    reach = np.zeros(n, dtype=bool)
    frontier = np.asarray([f >> 1], dtype=np.int64)
    while frontier.size:
        reach[frontier] = True
        kids = np.unique(np.concatenate(
            (lo_np[frontier] >> 1, hi_np[frontier] >> 1)
        ))
        kids = kids[kids != 0]
        frontier = kids[~reach[kids]]
    reach[0] = False
    idxs = np.flatnonzero(reach)
    lvl_of = np.asarray(src._level_of_var, dtype=np.int64)
    order = np.argsort(lvl_of[var_np[idxs]], kind="stable")
    idxs = idxs[order]
    lvls = lvl_of[var_np[idxs]]
    bounds = np.flatnonzero(lvls[1:] != lvls[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), bounds))
    ends = np.concatenate((bounds, np.asarray([lvls.size], dtype=np.int64)))
    memo = np.zeros(n, dtype=np.int64)  # unused rows stay at TRUE
    for s, e in zip(starts[::-1], ends[::-1]):  # deepest level first
        group = idxs[s:e]
        dvar = dst.var(var_map[int(var_np[group[0]])])
        lo_h = lo_np[group]
        hi_h = hi_np[group]
        lo_m = np.where(lo_h >= 2, memo[lo_h >> 1] ^ (lo_h & 1), lo_h)
        hi_m = np.where(hi_h >= 2, memo[hi_h >> 1] ^ (hi_h & 1), hi_h)
        memo[group] = dst.ite_many(
            list(zip([dvar] * int(group.size), hi_m.tolist(), lo_m.tolist()))
        )
    return int(memo[f >> 1]) ^ (f & 1)


def cube_union_vars(bdd: BDD, cubes: Iterable[int]) -> int:
    """Positive cube over the union of the variables of several cubes."""
    vs = set()
    for c in cubes:
        vs.update(bdd.cube_vars(c))
    return bdd.cube(vs)


def cube_minus(bdd: BDD, cube: int, remove: Sequence[int]) -> int:
    """Drop variables ``remove`` from a positive cube."""
    removed = set(remove)
    return bdd.cube([v for v in bdd.cube_vars(cube) if v not in removed])


def minterm(bdd: BDD, assignment: Dict) -> int:
    """Cube BDD for a (partial) assignment of variables to booleans."""
    f = bdd.true
    items = sorted(
        (
            (k if isinstance(k, int) else bdd.var_index(k), bool(v))
            for k, v in assignment.items()
        ),
        key=lambda kv: bdd.level(kv[0]),
        reverse=True,
    )
    for var, val in items:
        lit = bdd.var(var) if val else bdd.nvar(var)
        f = bdd.and_(lit, f)
    return f


def iter_minterms(bdd: BDD, f: int, care_vars: Sequence) -> Iterable[Dict[int, bool]]:
    """Alias of :meth:`BDD.sat_iter` kept for API symmetry."""
    return bdd.sat_iter(f, care_vars)


def disjoint(bdd: BDD, f: int, g: int) -> bool:
    """True iff ``f & g`` is unsatisfiable."""
    return bdd.and_(f, g) == bdd.false


def implies(bdd: BDD, f: int, g: int) -> bool:
    """True iff ``f`` implies ``g`` (containment check on sets)."""
    return bdd.diff(f, g) == bdd.false


def count_nodes(bdd: BDD, functions: Iterable[int]) -> int:
    """Shared DAG size of a family of functions."""
    return bdd.size(list(functions))
