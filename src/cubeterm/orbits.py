"""Closure over the orbits of a Young subgroup, for subpowers that
permuting coordinates within blocks preserves.

A query of `subpower.membership` asks for the closure of a generator family
inside A**(P + s_1 + ... + s_G).  When the family, and the target, are
invariant under every permutation that keeps the first P coordinates and
moves each of the next G blocks of s_1, ..., s_G coordinates within itself
(the Young subgroup S_{s_1} x ... x S_{s_G}), the closure is a union of
orbits of that group, and it can be computed on the orbits alone: the
quotient by the symmetry group, as in Emerson and Sistla, "Symmetry and
model checking" (FMSD 1996).  Two queries have this form:

* the general cube decision's pair query for (a, b) at dimension d, whose
  prefixed proper overwrites of (a**d, b**d) every permutation of the last
  d coordinates maps onto itself: one block, G = 1;
* the pointwise cube check's query for one pattern of value pairs, whose
  edge columns {0, 1}, {0}, {1}, ... any permutation of the coordinates
  2..d-1 that keeps their value pairs maps onto itself: the prefix is
  coordinates 0 and 1, and a block per value pair among the others.

Both queries hand `orbit_membership` tuples, as `membership` takes them,
and the block sizes: each tuple stands for its orbit.  An orbit is the
prefix values plus, per block, one count per element of A: how many of the
block's coordinates hold it; `_Orbits` alone builds these rows, from the
tuples, and no caller sees them.  An m-ary operation applied to m tuples
of given orbits gives the prefix op(p_1, ..., p_m) and, on each block, a
count vector fixed by the m-way table of value combinations those tuples
show there; every table with the block's argument count vectors as its
margins occurs (Diaconis and Sturmfels, Ann. Statist. 1998, on tables with
fixed margins), and the blocks vary independently, so the results are the
prefix with the product of the per-block sets.  The orbit expander
`_Orbits` makes these candidates for the closure core of `subpower`, which
keys, stores and budgets them as it does tuples.

This module is imported on first use: the orbit routes alone need it, and
its compile time would otherwise land on every import of the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import KERNEL_CELLS, FiniteAlgebra, _evaluate, _frontier, _Op, element_dtype
from .relations import _digit_rows, _keys
from .subpower import Budget, MembershipAnswer, _Engine, default_budget


def _index_chunks(blocks, rows: int) -> Iterator[np.ndarray]:
    """The index tuples of a sequence of products of (lo, hi) ranges, each
    product in lexicographic order, as (tuples x factors) arrays of about
    `rows` tuples: small products share an array."""
    pending, size = [], 0
    for ranges in blocks:
        lens = [hi - lo for lo, hi in ranges]
        total = math.prod(lens)
        for start in range(0, total, rows):
            flat = np.arange(start, min(total, start + rows))
            pending.append(np.stack(np.unravel_index(flat, lens), axis=1)
                           + [lo for lo, _ in ranges])
            size += len(flat)
            if size >= rows:
                yield np.concatenate(pending)
                pending, size = [], 0
    if pending:
        yield np.concatenate(pending)


def _margin_tables(op: _Op, margins: np.ndarray):
    """The count vectors op makes of m-way tables with fixed margins.

    margins is a (U, m, n) array of U margin sets, each m count vectors
    over A with one common total (which may differ between sets).  A table
    puts a count T[v] >= 0 on each cell v of A**m, and its margin along
    argument j counts the cells with v_j = x; applying op sends it to the
    count vector r with r[w] the total of the cells v with op(v) = w.
    Returns (sets, counts): row i of counts is one such r for the margin
    set sets[i], each distinct r once, sorted by set.

    A dynamic program over the cells in table order, whose states are the
    set, the margins left and the counts made so far.  The last cell with
    v_j = x takes what is left of that margin, so every state that survives
    the last cell is a complete table.  States are deduplicated by their
    `_keys` after each cell that branches, and at the end.  A binary op on
    two elements needs no program: its table is fixed by one cell.
    """
    u_count, m, n = margins.shape
    if (m, n) == (2, 2):
        # t = T[1, 1] runs from max(0, x + y - s) to min(x, y), for margins
        # with x and y ones of total s, and the ones op makes are affine in t
        x, y, s = margins[:, 0, 1], margins[:, 1, 1], margins[:, 0].sum(axis=1)
        f = op.table.astype(np.int64)
        slope = f[0] - f[1] - f[2] + f[3]
        lo = np.maximum(0, x + y - s)
        reps = np.minimum(x, y) - lo + 1 if slope else np.ones_like(lo)
        sets = np.repeat(np.arange(u_count), reps)
        t = lo[sets] + np.arange(len(sets)) - np.repeat(np.cumsum(reps) - reps, reps)
        ones = (f[0] * (s - x - y) + f[1] * y + f[2] * x)[sets] + slope * t
        return sets, np.stack([s[sets] - ones, ones], axis=1)
    cells = np.indices((n,) * m).reshape(m, -1).T.tolist()
    last = {(j, x): c for c, v in enumerate(cells) for j, x in enumerate(v)}
    base = max(u_count, int(margins[:, 0].sum(axis=1).max()) + 1)  # counts stay within a total
    left = 1 + m * n  # first column of the counts made
    state = np.zeros((u_count, left + n), np.int64)
    state[:, 0] = np.arange(u_count)
    state[:, 1:left] = margins.reshape(u_count, -1)
    for c, v in enumerate(cells):
        cols = [1 + j * n + x for j, x in enumerate(v)]
        rem = state[:, cols]
        forced = [j for j, x in enumerate(v) if last[j, x] == c]
        if forced:
            t = rem[:, forced[0]]
            ok = (rem[:, forced] == t[:, None]).all(axis=1) & (t <= rem.min(axis=1))
            state, t = state[ok], t[ok]
        else:
            reps = rem.min(axis=1) + 1
            state = np.repeat(state, reps, axis=0)
            t = np.arange(len(state)) - np.repeat(np.cumsum(reps) - reps, reps)
        state[:, cols] -= t[:, None]
        state[:, left + int(op.table[c])] += t
        if not forced:
            state = state[np.unique(_keys(state, base), return_index=True)[1]]
    state = state[:, [0] + list(range(left, left + n))]
    state = state[np.unique(_keys(state, base), return_index=True)[1]]
    return state[:, 0], state[:, 1:]


class _Orbits:
    """Members are the orbits of a subpower of A**(P + s_1 + ... + s_G)
    that the Young subgroup S_{s_1} x ... x S_{s_G}, acting on the G blocks
    of coordinates after the first P, preserves.

    Generators and target come as tuples, each standing for its orbit, and
    this class alone knows the orbit row: the P prefix entries, then per
    block n counts, count x the number of the block's coordinates holding
    x; its key is the `_keys` code in base max(n, max s_g + 1) of the row
    without the last count of each block, which is s_g minus the others.
    Applied to m orbits, an m-ary operation gives the prefix
    op(p_1, ..., p_m) with every combination of one count vector per block,
    block g's from the m-way tables whose margins are the arguments' count
    vectors there (`_margin_tables`).  These sets depend on the count
    vectors alone, so each is computed once per query; a unary operation
    gives one orbit.
    """

    def __init__(self, algebra: FiniteAlgebra, prefix: int, sizes: Sequence[int]):
        n = algebra.size
        self.n, self.P, self.sizes = n, prefix, np.array(sizes, dtype=np.int64)
        self.K = prefix + sum(sizes)  # the width of the tuples
        # per coordinate after the prefix: the offset of its block's counts
        self.cell_of = (np.arange(len(sizes)) * n).repeat(self.sizes)
        self.base = max(n, max(sizes, default=0) + 1)
        width = prefix + len(sizes) * n
        self.key_columns = np.array([c for c in range(width)
                                     if c < prefix or (c - prefix) % n < n - 1])
        self.space = self.base ** len(self.key_columns)
        self.row_shape = (width,)
        self.dtype = element_dtype(self.base)
        self.ops = algebra.compiled.ops
        self.tables: dict = {}  # (op, margins) -> count vectors

    def keys(self, cands: np.ndarray) -> np.ndarray:
        return _keys(cands[:, self.key_columns], self.base)

    def members(self, block) -> np.ndarray:
        """A block of tuple rows, checked by `_digit_rows`, as the rows of
        their orbits: one `bincount` over the cells (row, block, value)."""
        rows = _digit_rows(block, self.K, self.n)
        k, P, stride = len(rows), self.P, self.row_shape[0] - self.P
        cells = rows[:, P:] + self.cell_of + np.arange(k)[:, None] * stride
        counts = np.bincount(cells.ravel(), minlength=k * stride)
        return np.concatenate([rows[:, :P], counts.reshape(k, stride)], axis=1,
                              dtype=self.dtype, casting="unsafe")

    def candidates(self, store: np.ndarray, f_lo: int, f_hi: int) -> Iterator[np.ndarray]:
        """One round's candidate orbits over the frontier blocks of orbit
        indices, about `KERNEL_CELLS` cells of argument rows at a time."""
        rows = max(1, KERNEL_CELLS // store.shape[1])
        for i, op in enumerate(self.ops):
            blocks = _frontier(op.arity, (0, f_lo), (f_lo, f_hi), (0, f_hi))
            for index in _index_chunks(blocks, rows):
                yield self._apply(i, op, [store[j] for j in index.T])

    def _apply(self, i: int, op: _Op, args: list) -> np.ndarray:
        P, n, k = self.P, self.n, len(args[0])
        groups = len(self.sizes)
        prefix = _evaluate(op, [a[:, :P] for a in args])
        if op.arity == 1:
            counts = args[0][:, P:].reshape(k, groups, n).astype(np.int64) \
                @ (op.table[:, None] == np.arange(n))
            return np.hstack([prefix, counts.reshape(k, groups * n)]).astype(self.dtype)
        # row r * G + g: the m argument count vectors of row r on block g
        margins = np.hstack([a[:, P:].reshape(k * groups, n) for a in args])
        _, first, inv = np.unique(_keys(margins, self.base), return_index=True,
                                  return_inverse=True)
        keys = [(i, tuple(row)) for row in margins[first].tolist()]
        missing = [key for key in keys if key not in self.tables]
        if missing:
            sets, counts = _margin_tables(op, np.array([m for _, m in missing]).reshape(
                len(missing), op.arity, n))
            bounds = np.searchsorted(sets, np.arange(len(missing) + 1))
            for key, lo, hi in zip(missing, bounds[:-1], bounds[1:]):
                self.tables[key] = counts[lo:hi]
        results = [self.tables[key] for key in keys]
        lens = np.array([len(r) for r in results], dtype=np.int64)
        starts = np.cumsum(lens) - lens
        which = inv.reshape(k, groups).T  # which[g][r]: the result set of row r on block g
        per_block = lens[which]
        per = per_block.prod(axis=0)  # the candidates of row r: one count vector per block
        rep = np.repeat(np.arange(k), per)
        t = np.arange(len(rep)) - np.repeat(np.cumsum(per) - per, per)
        parts = [prefix[rep]]
        if groups:
            every = np.concatenate(results)
            for g in reversed(range(groups)):
                t, digit = np.divmod(t, per_block[g][rep])
                parts.insert(1, every[starts[which[g]][rep] + digit])
        return np.hstack(parts).astype(self.dtype)

    def size(self, members: np.ndarray) -> int:
        """The number of tuples the orbits hold: per orbit the product over
        the blocks of the multinomial coefficients of their count vectors
        (the product of the block sizes' factorials over that of the
        counts'), summed."""
        counts = members[:, self.P:]
        _, first, times = np.unique(_keys(counts, self.base), return_index=True,
                                    return_counts=True)
        whole = math.prod(map(math.factorial, self.sizes.tolist()))
        return sum(k * whole // math.prod(map(math.factorial, c))
                   for c, k in zip(counts[first].tolist(), times.tolist()))


def orbit_membership(algebra: FiniteAlgebra, generators: Iterable,
                     target: Sequence[int], *, blocks: Sequence[int],
                     budget: Optional[Budget] = None) -> MembershipAnswer:
    """`membership` in a subpower of A**(P + s_1 + ... + s_G) preserved by
    every permutation that moves each of its last G blocks of coordinates,
    of the sizes s_1, ..., s_G given by `blocks`, within itself, asked over
    the orbits of those permutations.

    The generators (2-D blocks or single rows) and the target are tuples
    as for `membership`, the prefix being the first P = (row width) -
    sum(blocks) coordinates; each tuple stands for its orbit, so any
    tuples of the generator orbits do, and repeats cost nothing.  The orbit
    closure holds exactly the orbits of the tuple closure of every tuple of
    the generator orbits, and the depth at which a tuple first appears is
    its orbit's, so found and witness_depth are those of that tuple query.
    closure_size counts tuples (orbit sizes summed), while
    `Budget.max_members` caps the stored orbits.  ValueError for rows that
    `membership` refuses, block sizes below 1, or blocks wider than the
    target.
    """
    if any(s < 1 for s in blocks):
        raise ValueError(f"block sizes must be at least 1, got {list(blocks)}")
    prefix = len(target) - sum(blocks)
    if prefix < 0:
        raise ValueError(f"blocks {list(blocks)} exceed the {len(target)} coordinates")
    eng = _Engine(_Orbits(algebra, prefix, blocks), target, budget or default_budget())
    eng.run(generators)
    return eng.answer()
