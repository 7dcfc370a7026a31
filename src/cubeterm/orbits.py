"""Closure over S_d-orbits, for subpowers that permuting coordinates preserves.

The general cube decision asks, per value pair (a, b) and dimension d,
whether prefix + a**d lies in the subpower of A**(P + d) generated by the
prefixed proper overwrites of (a**d, b**d).  Every permutation of the last
d coordinates maps that family onto itself, so the closure is a union of
S_d-orbits, and it can be computed on the orbits alone: the quotient by the
symmetry group, as in Emerson and Sistla, "Symmetry and model checking"
(FMSD 1996).

An orbit is the prefix values plus one count per element of A: how many of
the last d coordinates hold it.  An m-ary operation applied to m tuples of
given orbits gives the prefix op(p_1, ..., p_m) and, on the last d
coordinates, a count vector fixed by the m-way table of value combinations
those tuples show; every table with the argument count vectors as its
margins occurs (Diaconis and Sturmfels, Ann. Statist. 1998, on tables with
fixed margins).  The orbit expander `_Orbits` makes these candidates for the
closure core of `subpower`, which keys, stores and budgets them as it does
tuples.

This module is imported on first use: the general path alone needs it, and
its compile time would otherwise land on every import of the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import KERNEL_CELLS, FiniteAlgebra, _evaluate, _frontier, _Op, element_dtype
from .relations import _keys
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
    over A with one common total d.  A table puts a count T[v] >= 0 on each
    cell v of A**m, and its margin along argument j counts the cells with
    v_j = x; applying op sends it to the count vector r with r[w] the total
    of the cells v with op(v) = w.  Returns (sets, counts): row i of counts
    is one such r for the margin set sets[i], each distinct r once, sorted
    by set.

    A dynamic program over the cells in table order, whose states are the
    set, the margins left and the counts made so far.  The last cell with
    v_j = x takes what is left of that margin, so every state that survives
    the last cell is a complete table.  States are deduplicated by their
    `_keys` after each cell that branches, and at the end.
    """
    u_count, m, n = margins.shape
    cells = np.indices((n,) * m).reshape(m, -1).T.tolist()
    last = {(j, x): c for c, v in enumerate(cells) for j, x in enumerate(v)}
    base = max(u_count, int(margins[:1, 0].sum()) + 1)  # counts stay within the total d
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
    """Members are S_d-orbits of a subpower of A**(P + d) that S_d, acting
    on the last d coordinates, preserves.

    An orbit is a row: the P prefix entries, then n counts, count x the
    number of the last d coordinates holding x; its key is the `_keys`
    code in base max(n, d + 1) of the row without its last count, which is
    d minus the others.  Applied to m orbits, an m-ary operation gives
    the prefix op(p_1, ..., p_m) together with every count vector of the
    m-way tables whose margins are the arguments' count vectors
    (`_margin_tables`).  These sets depend on the count vectors alone, so
    each is computed once per query; a unary operation gives one orbit.
    """

    def __init__(self, algebra: FiniteAlgebra, width: int, d: int):
        n = algebra.size
        self.n, self.P, self.d = n, width - n, d
        self.base = max(n, d + 1)
        self.space = self.base ** (width - 1)  # the last count is d minus the others
        self.row_shape = (width,)
        self.dtype = element_dtype(self.base)
        self.ops = algebra.compiled.ops
        self.tables: dict = {}  # (op, margins) -> count vectors

    def keys(self, cands: np.ndarray) -> np.ndarray:
        return _keys(cands[:, :-1], self.base)

    def members(self, block) -> np.ndarray:
        """A block of orbit rows, checked: prefix entries in 0..n-1 and
        counts totalling d."""
        rows = np.asarray(block)
        if rows.ndim != 2 or rows.shape[1] != self.P + self.n:
            raise ValueError(f"orbit rows must have {self.P + self.n} entries")
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0
                          or rows[:, :self.P].max(initial=0) >= self.n
                          or (rows[:, self.P:].sum(axis=1) != self.d).any()):
            raise ValueError(f"orbit rows need prefix entries in 0..{self.n - 1} "
                             f"and counts totalling {self.d}")
        return rows.astype(self.dtype)

    def candidates(self, store: np.ndarray, f_lo: int, f_hi: int) -> Iterator[np.ndarray]:
        """One round's candidate orbits over the frontier blocks of orbit
        indices, about `KERNEL_CELLS` cells of argument rows at a time."""
        rows = max(1, KERNEL_CELLS // store.shape[1])
        for i, op in enumerate(self.ops):
            blocks = _frontier(op.arity, (0, f_lo), (f_lo, f_hi), (0, f_hi))
            for index in _index_chunks(blocks, rows):
                yield self._apply(i, op, [store[j] for j in index.T])

    def _apply(self, i: int, op: _Op, args: list) -> np.ndarray:
        P = self.P
        prefix = _evaluate(op, [a[:, :P] for a in args])
        if op.arity == 1:
            counts = args[0][:, P:].astype(np.int64) @ (op.table[:, None] == np.arange(self.n))
            return np.hstack([prefix, counts]).astype(self.dtype)
        margins = np.hstack([a[:, P:] for a in args])
        combos, first, inv = np.unique(_keys(margins, self.d + 1), return_index=True,
                                       return_inverse=True)
        keys = [(i, key) for key in combos.tolist()]
        missing = [u for u, key in enumerate(keys) if key not in self.tables]
        if missing:
            sets, counts = _margin_tables(op, margins[first[missing]].astype(np.int64).reshape(
                len(missing), op.arity, self.n))
            bounds = np.searchsorted(sets, np.arange(len(missing) + 1))
            for u, lo, hi in zip(missing, bounds[:-1], bounds[1:]):
                self.tables[keys[u]] = counts[lo:hi]
        results = [self.tables[key] for key in keys]
        lens = np.array([len(r) for r in results])
        starts = np.cumsum(lens) - lens
        per = lens[inv]
        rep = np.repeat(np.arange(len(inv)), per)
        at = np.repeat(starts[inv] - (np.cumsum(per) - per), per) + np.arange(len(rep))
        return np.hstack([prefix[rep], np.concatenate(results)[at]]).astype(self.dtype)

    def size(self, members: np.ndarray) -> int:
        """The number of tuples the orbits hold: the multinomial
        coefficients of their count vectors, summed."""
        counts = members[:, self.P:]
        _, first, times = np.unique(_keys(counts, self.d + 1), return_index=True,
                                    return_counts=True)
        return sum(k * math.factorial(self.d) // math.prod(map(math.factorial, c))
                   for c, k in zip(counts[first].tolist(), times.tolist()))


def orbit_membership(algebra: FiniteAlgebra, generators: Iterable,
                     target: Sequence[int], *,
                     budget: Optional[Budget] = None) -> MembershipAnswer:
    """`membership` in a subpower of A**(P + d) preserved by every
    permutation of its last d coordinates, asked over S_d-orbits.

    The generators (2-D blocks or single rows, as for `membership`) and the
    target are orbit rows: P prefix entries, then n counts, count x the
    number of the last d coordinates holding x; d is the target's count
    total.  The orbit closure holds exactly the orbits of the tuple
    closure, and the depth at which a tuple first appears is its orbit's,
    so found and witness_depth are those of the tuple query on every tuple
    of the generator orbits.  closure_size counts tuples (orbit sizes
    summed), while `Budget.max_members` caps the stored orbits.
    """
    target = tuple(target)
    if len(target) < algebra.size:
        raise ValueError(f"an orbit row has at least {algebra.size} entries")
    d = sum(target[-algebra.size:])
    eng = _Engine(_Orbits(algebra, len(target), d), target, budget or default_budget())
    eng.run(generators)
    return eng.answer()
