"""Closure of tuple sets inside finite powers of an algebra.

This is the workhorse behind every term-existence check: generate the
subuniverse of A**K spanned by a (possibly streamed) family of generator
tuples, optionally watching for one target tuple and stopping once it
appears.

One closure core (`_Engine`) runs every query, and an expander says what
its members are and makes their candidates.  `_Tuples` makes the members
the tuples themselves (`generate`, `membership`); with `blocks`,
`membership` has `orbits._Orbits` make them the orbits of a subpower that
every permutation moving each of its last blocks of coordinates within
itself preserves (the general cube decision's pair queries, the pointwise
check's large patterns).  `membership` is the one entry point of both.

The core absorbs the generators (a stream of 2-D row blocks, as
`relations.mix_family` yields them, or of single rows) first, then closes
breadth-first with a frontier: each round applies every basic operation
only to argument tuples touching at least one member added since the
previous round, so no argument tuple is evaluated twice, and the rounds
end when one adds nothing.  Unless the budget cuts a run off (it is checked
after each generator block and each chunk of candidates), how the stream
is blocked changes neither the members, nor their order, nor the depth at
which a target appears.  A target found is never reported as truncated,
and a `MemoryError` ends a run as truncated.

Members are deduplicated by their keys, for tuples the `relations._keys`
of `Relation`: int64 tuple codes while n**K <= 2**62, big-endian bytes
keys beyond, a chunk's own duplicates dropped by `relations._first_unique`.
The keys seen so far go in sorted key runs: each chunk's fresh keys are
appended as a run, merged with the previous run while that is at most
twice as long (log-structured merging, after O'Neil et al., "The
log-structured merge-tree", 1996).  While the key space is at most
`Budget.dense_limit` and the keys are int64, a dense bitset, one byte per
code, replaces the runs once the query has absorbed space / `_DENSE_FILL`
candidates, so a sparse closure in a big space never zeroes one.  Either
way fresh members are appended in first-occurrence order.

Operations come from the algebra's compiled form (`FiniteAlgebra.compiled`,
built once per algebra and shared by every query): numpy tables in the
element dtype, projections and duplicate operations dropped, a flag for
symmetric binary operations and, on two-element universes, each
operation's bitwise formula.  The tuple expander produces every candidate
with the evaluation kernel of `algebra` (`_product` over `_evaluate`), one
chunk of `KERNEL_CELLS` cells of argument combinations at a time, and
applies a symmetric binary operation to unordered pairs only, which halves
the work of the saturating two-element closures.  With int64 keys a
two-element universe keeps its members as K-bit codes, which are their
keys, and evaluates the bitwise formulas on them, so no digit matrix is
ever built; every other case keeps digit rows and looks values up in the
tables.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import chain, groupby, islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import KERNEL_CELLS, FiniteAlgebra, _evaluate, _frontier, _Op, _product
from .errors import InputError
from .relations import (INT64_CODES, TUPLE_BLOCK, Relation, _digit_rows, _first_unique,
                        _in_sorted, _keys)

#: Largest code space held as a dense bool array (2**26 codes = 64 MiB).
DENSE_CODE_LIMIT = 1 << 26

# The fill at which a query builds its bitset, as space / _DENSE_FILL absorbed
# candidates.  Sweep (median of 9): 16, 64 and 256 slow check_nu(semilattice2,
# 11) 3.3x, 1.5x and 1.1x against 1024; from 4096 on check_nu(lattice2, 11) takes
# 2.8 against 0.75 ms, and from 16384 on check_edge_dim(lattice2, 12) 8.7 against 1.4.
_DENSE_FILL = 1024


@dataclass
class Budget:
    """The run caps of one closure run.

    max_members caps how many members the closure may hold: tuples, or on
    an orbit query (`membership` with `blocks`) stored orbits.  max_seconds
    is wall-clock.  Hitting either, or running out of memory, stops the run
    with truncated=True rather than returning a wrong answer.  dense_limit
    is the largest key space (up to 2**62) whose seen keys go in a dense
    bool array, one byte per key, once a fixed fraction of it
    (`_DENSE_FILL`) has been absorbed; until then, and in larger spaces, in
    sorted key runs.
    The kernel's chunk size is the module constant `KERNEL_CELLS`, not a
    cap.
    """

    max_members: int = 10 ** 8
    max_seconds: Optional[float] = None
    dense_limit: int = DENSE_CODE_LIMIT


def default_budget() -> Budget:
    """Budget honoring the CUBETERM_BUDGET_BYTES environment override: a
    positive integer, the largest dense bool array in bytes."""
    b = Budget()
    env = os.environ.get("CUBETERM_BUDGET_BYTES")
    if env:
        if not env.isdecimal() or int(env) < 1:
            raise InputError(f"CUBETERM_BUDGET_BYTES={env!r}: not a positive integer")
        b.dense_limit = int(env)
    return b


@dataclass
class MembershipAnswer:
    """Outcome of a generate/membership run.

    closure_size counts the tuples held, on the orbit path too, where it is
    the sum of the stored orbits' sizes (so it may exceed
    `Budget.max_members`, which caps orbits there).  witness_depth is the
    breadth-first round at which the target appeared (0 = it was a
    generator).  A found target is never reported as truncated, even when
    the budget ran out while later generators were being absorbed.
    """

    found: bool
    closure_size: int
    witness_depth: Optional[int] = None
    truncated: bool = False


# ---------------------------------------------------------------------------
# the core
# ---------------------------------------------------------------------------

class _Engine:
    """The closure core: member store, dedup, frontier rounds and budget.

    The expander (`_Tuples` or `orbits._Orbits`) says what a member is: it turns
    generator blocks into members, keys members, makes each round's
    candidates from the store and counts the tuples the members stand for.
    """

    def __init__(self, expander, target, budget: Budget):
        self.ex = expander
        self.budget = budget
        self.count = 0
        self.store = np.empty((0,) + expander.row_shape, expander.dtype)  # grown in `run`
        self.runs: list[np.ndarray] = []  # sorted key runs, until `absorb` makes a bitset
        self.known_bits: Optional[np.ndarray] = None
        self.dense_at: Optional[int] = None  # candidates left before the bitset is built
        self.target_key = None if target is None else \
            expander.keys(expander.members(np.array([target])))[0]
        self.found = False
        self.found_depth: Optional[int] = None
        self.truncated = False
        self.t0 = time.monotonic()

    # -- capacity ----------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        need = self.count + extra
        if need <= self.store.shape[0]:
            return
        cap = max(1024, 1 << (need - 1).bit_length())  # a power of two: 2**k members fit exactly
        grown = np.empty((cap,) + self.store.shape[1:], dtype=self.store.dtype)
        grown[: self.count] = self.store[: self.count]
        self.store = grown

    # -- budget ------------------------------------------------------------

    def _over_budget(self) -> bool:
        if self.count > self.budget.max_members:
            self.truncated = True
            return True
        if self.budget.max_seconds is not None and \
                time.monotonic() - self.t0 > self.budget.max_seconds:
            self.truncated = True
            return True
        return False

    # -- dedup + append ----------------------------------------------------

    def absorb(self, cands: np.ndarray, depth: int) -> None:
        """Add the new ones among the candidate members.

        Candidates are deduplicated by the expander's keys.  A key is new
        when the dense bitset lacks it or no sorted run holds it; fresh
        members are appended in the order of their first occurrence.
        """
        keys = self.ex.keys(cands)
        if self.dense_at is not None:
            self.dense_at -= len(keys)
            if self.dense_at <= 0:
                bits = np.zeros(self.ex.space, bool)
                for run in self.runs:
                    bits[run] = True
                self.known_bits, self.runs, self.dense_at = bits, [], None
        if self.known_bits is not None:
            fresh = (~self.known_bits[keys]).nonzero()[0]
            if not len(fresh):
                return
            uniq, first = _first_unique(keys[fresh])
            first = fresh[first]
            self.known_bits[uniq] = True
        else:
            uniq, first = _first_unique(keys)
            for run in self.runs:
                new = ~_in_sorted(run, uniq)
                uniq, first = uniq[new], first[new]
            if not len(uniq):
                return
            self._add_run(uniq)
        picked = np.sort(first)
        k = len(picked)
        self._reserve(k)
        self.store[self.count: self.count + k] = cands[picked]
        self.count += k
        if self.target_key is not None and not self.found and (uniq == self.target_key).any():
            self.found, self.found_depth = True, depth

    def _add_run(self, keys: np.ndarray) -> None:
        """Append a sorted run of fresh keys, merging it into the previous
        run while that one is at most twice as long."""
        while self.runs and len(self.runs[-1]) <= 2 * len(keys):
            keys = np.sort(np.concatenate((self.runs.pop(), keys)), kind="stable")
        self.runs.append(keys)

    # -- main loop -----------------------------------------------------------

    def run(self, gens: Iterable) -> None:
        """Absorb the generator blocks, then close round by round until a
        round adds nothing; a MemoryError ends the run as truncated."""
        try:
            space = self.ex.space  # the bitset is indexed by int64 keys
            if space <= min(self.budget.dense_limit, INT64_CODES):
                self.dense_at = space // _DENSE_FILL
            for block in _row_blocks(gens):
                self.absorb(self.ex.members(block), 0)
                if self._over_budget():
                    return
            f_lo = depth = 0
            while f_lo < self.count and not (self.found or self.truncated):
                depth += 1
                f_hi = self.count
                for chunk in self.ex.candidates(self.store, f_lo, f_hi):
                    self.absorb(chunk, depth)
                    if self.found or self._over_budget():
                        break
                f_lo = f_hi
        except MemoryError:
            self.truncated = True

    # -- output ----------------------------------------------------------------

    def rows(self) -> np.ndarray:
        """The members as rows (tuple expander only)."""
        return self.ex.rows(self.store[: self.count])

    def answer(self) -> MembershipAnswer:
        return MembershipAnswer(
            found=self.found,
            closure_size=self.ex.size(self.store[: self.count]),
            witness_depth=self.found_depth,
            truncated=self.truncated and not self.found,
        )


# ---------------------------------------------------------------------------
# the tuple expander
# ---------------------------------------------------------------------------

class _Tuples:
    """Members are the tuples of A**K: K-bit codes on two elements while
    they fit int64, else digit rows.  Candidates come from the evaluation
    kernel over the frontier blocks."""

    def __init__(self, algebra: FiniteAlgebra, arity: int):
        n = algebra.size
        compiled = algebra.compiled
        self.n = n
        self.K = arity
        self.ops = compiled.ops
        self.space = n ** arity
        # members are K-bit codes on two elements while they fit int64, else rows
        self.mask = (1 << arity) - 1 if n == 2 and self.space <= INT64_CODES else None
        self.row_shape = () if self.mask is not None else (arity,)
        self.dtype = np.dtype(np.int64) if self.mask is not None else compiled.dtype

    def keys(self, cands: np.ndarray) -> np.ndarray:
        """The `_keys` of candidate rows; in bit mode the codes themselves."""
        return cands if self.mask is not None else _keys(cands, self.n)

    def members(self, block) -> np.ndarray:
        """A block of generator rows as members."""
        rows = _digit_rows(block, self.K, self.n)
        return rows if self.mask is None else _keys(rows, 2)

    def candidates(self, store: np.ndarray, f_lo: int, f_hi: int) -> Iterator[np.ndarray]:
        """One round's candidates, one kernel chunk at a time."""
        for op in self.ops:
            if op.symmetric:
                yield from self._pairs(op, store, f_lo, f_hi)
                continue
            for stores in _frontier(op.arity, store[:f_lo], store[f_lo:f_hi], store[:f_hi]):
                yield from _product(op, stores, self.mask, KERNEL_CELLS)

    def _pairs(self, op: _Op, store: np.ndarray, f_lo: int, f_hi: int) -> Iterator[np.ndarray]:
        """Symmetric binary op on each unordered pair {i, j} with i in the
        frontier and j <= i, once.

        The frontier goes in row blocks [a, b): a rectangle against all
        members before a, then the triangle j <= i inside the block.
        """
        cells = KERNEL_CELLS
        side = max(1, math.isqrt(cells // (1 if self.mask is not None else self.K)))
        for a in range(f_lo, f_hi, side):
            b = min(f_hi, a + side)
            yield from _product(op, [store[a:b], store[:a]], self.mask, cells)
            square = _evaluate(op, [store[a:b, None], store[None, a:b]], self.mask)
            yield square[np.tri(b - a, dtype=bool)]

    def rows(self, members: np.ndarray) -> np.ndarray:
        """The members as rows; K-bit codes are unpacked to 0/1 rows."""
        if self.mask is None:
            return members
        octets = members.astype(">u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1)[:, 64 - self.K:]

    def size(self, members: np.ndarray) -> int:
        return len(members)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def _is_block(item) -> bool:
    return isinstance(item, np.ndarray) and item.ndim == 2


def _row_blocks(items: Iterable) -> Iterator[np.ndarray]:
    """The generator rows as 2-D blocks: blocks pass through as they
    arrive, and runs of single tuples are cut into blocks of TUPLE_BLOCK."""
    for is_block, run in groupby(items, _is_block):
        for block in run if is_block else iter(lambda: list(islice(run, TUPLE_BLOCK)), []):
            yield np.asarray(block)


def _infer_arity(generators, target, arity):
    """The row width, from `arity`, the target or the first generator, and
    the generators; ValueError when it is below 1."""
    if arity is None and target is not None:
        arity = len(target)
    if arity is None:
        it = iter(generators)
        first = next(it, None)
        if first is None:
            raise ValueError("cannot infer arity from an empty generator family")
        arity = first.shape[1] if _is_block(first) else len(first)
        generators = chain((first,), it)
    if arity < 1:
        raise ValueError(f"arity must be at least 1, got {arity}")
    return arity, generators


def _run(algebra: FiniteAlgebra, generators: Iterable, target, arity,
         budget: Optional[Budget]) -> _Engine:
    k, gens = _infer_arity(generators, target, arity)
    eng = _Engine(_Tuples(algebra, k), target, budget or default_budget())
    eng.run(gens)
    return eng


def generate(algebra: FiniteAlgebra, generators: Iterable, *,
             target: Optional[Sequence[int]] = None,
             arity: Optional[int] = None,
             budget: Optional[Budget] = None) -> tuple[Relation, MembershipAnswer]:
    """Close a generator family under all basic operations, row-wise.

    Returns the closure as a Relation (partial if the budget was hit) and
    the membership answer for the optional target.  Once the generators
    are in, the run stops as soon as the target turns up; the resulting
    relation is then just the part of the closure built so far.
    """
    eng = _run(algebra, generators, target, arity, budget)
    return Relation(algebra.size, eng.ex.K, eng.rows()), eng.answer()


def membership(algebra: FiniteAlgebra, generators: Iterable,
               target: Sequence[int], *, blocks: Sequence[int] = (),
               budget: Optional[Budget] = None) -> MembershipAnswer:
    """Does the target lie in the subpower generated by the family?

    With `blocks`, the sizes s_1, ..., s_G of the last G coordinate blocks
    (the first P = len(target) - sum(blocks) coordinates being the
    prefix), the query is asked over the orbits of the permutations that
    move each block within itself (`orbits`), for families and targets
    that those permutations preserve.  Each tuple then stands for its
    orbit, so any tuples of the generator orbits do.  found and
    witness_depth are the tuple query's, closure_size counts tuples (orbit
    sizes summed) and `Budget.max_members` caps the stored orbits.
    ValueError for rows `generate` refuses, and for block sizes that are
    not integers of at least 1 or add up to more than the target's width.
    """
    if not len(blocks):
        return _run(algebra, generators, target, None, budget).answer()
    if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s >= 1
               for s in blocks):
        raise ValueError(f"block sizes must be integers of at least 1, got {list(blocks)}")
    prefix = len(target) - sum(blocks)
    if prefix < 0:
        raise ValueError(f"blocks {list(blocks)} exceed the {len(target)} coordinates")
    from .orbits import _Orbits  # imported on first use, see there
    eng = _Engine(_Orbits(algebra, prefix, blocks), target, budget or default_budget())
    eng.run(generators)
    return eng.answer()
