"""Cube-term blockers: certificate checking and search.

A blocker is a pair of subuniverses {} != C < D such that every basic
operation has an "absorbing" coordinate j: plugging any element of C into
position j and elements of D elsewhere always lands back in C.  An
idempotent algebra has a cube term exactly when it has no blocker, so a
blocker is a finite certificate that no cube term of any dimension exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import (
    FiniteAlgebra,
    _as_mask,
    _Op,
    _product,
    enumerate_subuniverses,
    full_mask,
    is_idempotent,
    is_subuniverse,
    mask_elements,
    mask_from_json,
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


def _absorbs(op: _Op, j: int, in_c: np.ndarray, c_elems: np.ndarray,
             d_elems: np.ndarray) -> bool:
    """Does f(D, .., D, C at j, D, .., D) stay inside C?"""
    stores = [d_elems] * op.arity
    stores[j] = c_elems
    return all(in_c[values].all() for values in _product(op, stores))


def verify_blocker(algebra: FiniteAlgebra, C, D) -> bool:
    """Is (C, D) a cube term blocker for the (idempotent) algebra?

    Checks {} != C < D, that both are subuniverses, and then that every
    basic operation has an absorbing coordinate.  Invalid pairs yield
    False; a non-idempotent algebra is an error.
    """
    _require_idempotent(algebra)
    c_mask, d_mask = _as_mask(C), _as_mask(D)
    universe = full_mask(algebra.size)
    if c_mask == 0 or c_mask == d_mask or c_mask & ~d_mask or d_mask & ~universe:
        return False
    if not is_subuniverse(algebra, c_mask) or not is_subuniverse(algebra, d_mask):
        return False
    c_elems = np.array(mask_elements(c_mask), dtype=np.intp)
    d_elems = np.array(mask_elements(d_mask), dtype=np.intp)
    in_c = np.zeros(algebra.size, dtype=bool)
    in_c[c_elems] = True
    return all(
        any(_absorbs(op, j, in_c, c_elems, d_elems) for j in range(op.arity))
        for op in algebra.compiled.ops
    )


def find_blocker(algebra: FiniteAlgebra) -> Optional[Blocker]:
    """Polynomial-time blocker search.

    For each start element c, grow a set S from {c} as slowly as possible:
    repeatedly pick d outside S with Sg({c, d}) inclusion-minimal and test
    (S intersect Sg(c,d), Sg(c,d)); on failure fold Sg(c,d) into S.  If the
    algebra has any blocker, some iteration tests a genuine one, so "none
    found" proves a cube term exists.

    Among incomparable inclusion-minimal choices of Sg(c, d) the smallest d
    wins, making runs reproducible; the for-loop returns the blocker found
    at the smallest c.  Each Sg({c, d}) is computed once per unordered
    pair, in one `sg_many` batch per start element.
    """
    _require_idempotent(algebra)
    n = algebra.size
    universe = full_mask(n)
    pair_sg: dict[int, int] = {}  # seed mask {c, d} -> Sg({c, d})
    for c in range(n):
        seed = {d: (1 << c) | (1 << d) for d in range(n) if d != c}
        todo = [s for s in seed.values() if s not in pair_sg]
        pair_sg.update(zip(todo, sg_many(algebra, todo)))
        s_mask = 1 << c
        while s_mask != universe:
            gens = [pair_sg[seed[d]] for d in range(n) if not s_mask >> d & 1]
            # the inclusion-minimal Sg({c, d}) of the smallest d
            d_mask = next(gen for gen in gens
                          if not any(g != gen and g & ~gen == 0 for g in gens))
            c_mask = s_mask & d_mask
            if verify_blocker(algebra, c_mask, d_mask):
                return Blocker(c_mask, d_mask)
            s_mask |= d_mask
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
