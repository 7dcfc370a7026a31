"""Cube-term blockers: certificate checking and search.

A blocker is a pair of subuniverses {} != C < D such that every basic
operation has an "absorbing" coordinate j: plugging any element of C into
position j and elements of D elsewhere always lands back in C.  An
idempotent algebra has a cube term exactly when it has no blocker, so a
blocker is a finite certificate that no cube term of any dimension exists.
`find_blocker` batches its pair closures (`sg_many`) and checks (`verify_blockers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (
    KERNEL_CELLS,
    FiniteAlgebra,
    _as_mask,
    _escapes,
    _RowSets,
    enumerate_subuniverses,
    full_mask,
    is_idempotent,
    is_subuniverse,  # noqa: F401 - kept as blockers.is_subuniverse, like sg
    mask_elements,
    mask_from_json,
    mask_matrix,
    sg,  # noqa: F401 - kept as blockers.sg for callers that wrap it by name
    sg_many,
)
from .errors import InputError


@dataclass(frozen=True)
class Blocker:
    """Certificate pair (C, D) of element bitmasks."""

    C: int
    D: int

    def to_json(self) -> dict:
        return {"C": mask_elements(self.C), "D": mask_elements(self.D)}

    @classmethod
    def from_json(cls, obj) -> "Blocker":
        if not isinstance(obj, dict) or "C" not in obj or "D" not in obj:
            raise InputError("blocker JSON must be an object with C and D lists")
        return cls(mask_from_json(obj["C"], "C"), mask_from_json(obj["D"], "D"))


def _require_idempotent(algebra: FiniteAlgebra) -> None:
    if not is_idempotent(algebra):
        raise ValueError("blocker machinery only applies to idempotent algebras")


def verify_blockers(algebra: FiniteAlgebra, pairs) -> np.ndarray:
    """`verify_blocker` of many (C, D) pairs at once, as a bool array.

    Each operation's passes run over `_ragged_product` on the C and D
    matrices of the rows not yet failed.  C needs no closure pass: an
    absorbing coordinate maps C x .. x C into C, as C lies in D.
    """
    _require_idempotent(algebra)
    n = algebra.size
    masks = [(_as_mask(c), _as_mask(d)) for c, d in pairs]
    ok = np.array([0 != c != d and not (c & ~d or d >> n) for c, d in masks], dtype=bool)
    picked = np.flatnonzero(ok)
    c_in, d_in = (mask_matrix([masks[r][i] for r in picked], n) for i in (0, 1))
    c_sets, d_sets = _RowSets.of(c_in), _RowSets.of(d_in)
    good, proper = np.ones(len(picked), dtype=bool), ~d_in.all(axis=1)
    for op in algebra.compiled.ops:
        if (good & proper).any():
            good &= ~_escapes(op, [d_sets.only(good & proper)] * op.arity, d_in)
        absorbs = ~good
        for j in range(1 if op.symmetric else op.arity):
            if absorbs.all():
                break
            stores = [c_sets.only(~absorbs) if i == j else d_sets for i in range(op.arity)]
            absorbs |= ~_escapes(op, stores, c_in)
        good &= absorbs
    ok[picked] = good
    return ok


def verify_blocker(algebra: FiniteAlgebra, C, D) -> bool:
    """Is (C, D) a cube term blocker for the (idempotent) algebra?

    Checks {} != C < D, that both are subuniverses, and then that every
    basic operation has an absorbing coordinate, as `verify_blockers`' one
    row.  Invalid pairs yield False; a non-idempotent algebra is an error."""
    return bool(verify_blockers(algebra, [(C, D)])[0])


def find_blocker(algebra: FiniteAlgebra) -> Optional[Blocker]:
    """Polynomial-time blocker search.

    For each start element c, grow a set S from {c} as slowly as possible:
    repeatedly pick d outside S with Sg({c, d}) inclusion-minimal and test
    (S intersect Sg(c,d), Sg(c,d)); on failure fold Sg(c,d) into S.  If the
    algebra has any blocker, some iteration tests a genuine one, so "none
    found" proves a cube term exists.

    Among incomparable inclusion-minimal choices of Sg(c, d) the smallest d
    wins, making runs reproducible; the first blocker of the smallest c's
    chain is returned.  Sg({c, d}) is computed once, in `sg_many` batches
    of whole starts c (pairs d > c): start 0's, then up to KERNEL_CELLS
    generator cells each.  Each batch's chains take one `verify_blockers`.
    """
    _require_idempotent(algebra)
    n = algebra.size
    pair_sg: dict[int, int] = {}  # seed mask {c, d} -> Sg({c, d})
    hi = 0
    while hi < n:
        lo, hi, cells = hi, hi + 1, (n - 1 - hi) * n
        while hi < n and cells + (n - 1 - hi) * n <= (KERNEL_CELLS if lo else cells):
            cells += (n - 1 - hi) * n
            hi += 1
        seeds = [(1 << c) | (1 << d) for c in range(lo, hi) for d in range(c + 1, n)]
        pair_sg.update(zip(seeds, sg_many(algebra, seeds)))
        chains = []
        for c in range(lo, hi):
            s_mask = 1 << c
            while s_mask != full_mask(n):
                gens = [pair_sg[1 << c | 1 << d] for d in range(n) if not s_mask >> d & 1]
                # the inclusion-minimal Sg({c, d}) of the smallest d
                d_mask = next(gen for gen in gens
                              if not any(g != gen and g & ~gen == 0 for g in gens))
                chains.append((s_mask & d_mask, d_mask))
                s_mask |= d_mask
        hits = verify_blockers(algebra, chains)
        if hits.any():
            return Blocker(*chains[int(hits.argmax())])
    return None


def exhaustive_blocker_search(algebra: FiniteAlgebra) -> Optional[Blocker]:
    """Oracle: scan every pair of subuniverses C < D for a blocker.

    Exponential in the universe size; used to cross-validate find_blocker.
    Scan order is lexicographic by the (D, C) bitmask pair.
    """
    _require_idempotent(algebra)
    subs = enumerate_subuniverses(algebra)
    for d_mask in subs:
        for c_mask in subs:
            if c_mask != d_mask and c_mask & ~d_mask == 0:
                if verify_blocker(algebra, c_mask, d_mask):
                    return Blocker(c_mask, d_mask)
    return None
