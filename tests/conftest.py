"""Shared helpers: seeded random algebras and brute-force mini-oracles."""

import math
import os
import random
from itertools import permutations, product

import numpy as np
from hypothesis import settings

from cubeterm import FiniteAlgebra, OperationTable

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# test cannot pass on one run of a commit and fail on the next
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_idempotent_algebra(rng: random.Random, n: int,
                              arities: list[int]) -> FiniteAlgebra:
    """Random operation tables with the diagonal pinned to f(a,..,a) = a."""
    ops = []
    for i, m in enumerate(arities):
        table = [rng.randrange(n) for _ in range(n ** m)]
        step = sum(n ** j for j in range(m))
        for a in range(n):
            table[a * step] = a
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    return FiniteAlgebra(n, tuple(ops))


def random_algebra(rng: random.Random, n: int, arities: list[int]) -> FiniteAlgebra:
    """Random operation tables; the binary ones are made symmetric, so the
    closure engine's unordered-pair path runs too."""
    ops = []
    for i, m in enumerate(arities):
        table = [rng.randrange(n) for _ in range(n ** m)]
        if m == 2:
            table = [table[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    return FiniteAlgebra(n, tuple(ops))


def symmetric_idempotent_algebra(rng: random.Random, n: int, arities: list[int],
                                 sigma: tuple[int, ...]) -> FiniteAlgebra:
    """Random idempotent tables that the permutation sigma commutes with: each
    value is drawn once per orbit of argument tuples under sigma and carried
    along it.  A tuple whose orbit closes after s steps takes a value fixed
    by sigma**s, one of its own entries or another such element."""
    ops = []
    for i, m in enumerate(arities):
        table = [None] * n ** m
        for x in product(range(n), repeat=m):
            if table[_table_index(x, n)] is not None:
                continue
            orbit, power = [x], tuple(sigma)
            while (y := tuple(sigma[a] for a in orbit[-1])) != x:
                orbit.append(y)
                power = tuple(sigma[a] for a in power)
            fixed = [v for v in range(n) if power[v] == v]  # by sigma**len(orbit)
            v = x[0] if len(set(x)) == 1 else rng.choice(fixed)
            for y in orbit:
                table[_table_index(y, n)] = v
                v = sigma[v]
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    return FiniteAlgebra(n, tuple(ops))


def _table_index(args, n: int) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def relabel(algebra: FiniteAlgebra, perm: tuple[int, ...]) -> FiniteAlgebra:
    """The isomorphic copy in which element a is called perm[a]."""
    n = algebra.size
    ops = []
    for op in algebra.operations:
        table = [0] * n ** op.arity
        for x in product(range(n), repeat=op.arity):
            table[_table_index([perm[a] for a in x], n)] = perm[op.table[_table_index(x, n)]]
        ops.append(OperationTable(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(n, tuple(ops))


def brute_force_automorphisms(algebra: FiniteAlgebra) -> set[tuple[int, ...]]:
    """Reference automorphism group read off the tables alone: every
    permutation p of the universe with p(f(x)) = f(p(x)) for each operation
    f and argument tuple x.  It tries all n! permutations, so n <= 5."""
    n = algebra.size
    assert n <= 5
    return {p for p in permutations(range(n))
            if all(p[op.table[_table_index(x, n)]] == op.table[_table_index([p[a] for a in x], n)]
                   for op in algebra.operations for x in product(range(n), repeat=op.arity))}


def check_keys_like_codes(rng: random.Random, n: int, k: int) -> None:
    """`relations._keys` orders rows of width k like their tuple codes (and
    is the code while n**k <= 2**62), and `Relation` membership agrees."""
    from cubeterm import Relation, tuple_code
    from cubeterm.algebra import element_dtype
    from cubeterm.relations import _keys

    rows = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(40)]
    rows += [(0,) * k, (n - 1,) * k, (0,) * (k - 1) + (1,), (1,) + (0,) * (k - 1),
             (n - 1,) * (k - 1) + (n - 2,)]
    codes = [tuple_code(t, n) for t in rows]
    keys = _keys(np.array(rows, dtype=element_dtype(n)), n)
    if n ** k <= 1 << 62:
        assert keys.dtype == np.int64 and keys.tolist() == codes
    else:
        assert keys.dtype.kind == "V"
    assert [codes[i] for i in np.argsort(keys, kind="stable")] == sorted(codes)

    members = set(rows[::2])
    others = set(rows[1::2]) - members
    rel = Relation(n, k, np.array(rows[::2], dtype=np.int64))
    assert list(rel) == sorted(members, key=lambda t: tuple_code(t, n))
    assert all(t in rel for t in members) and not any(t in rel for t in others)
    assert rel.has_rows(np.array(sorted(members), dtype=element_dtype(n)))
    assert not any(rel.has_rows(np.array([t], dtype=element_dtype(n))) for t in others)


def brute_force_closure(algebra: FiniteAlgebra, seed: set[int]) -> set[int]:
    """Reference implementation of subuniverse generation: iterate to a fixed point."""
    current = set(seed)
    while True:
        new = set()
        for op in algebra.operations:
            for args in product(sorted(current), repeat=op.arity):
                idx = 0
                for a in args:
                    idx = idx * algebra.size + a
                new.add(op.table[idx])
        if new <= current:
            return current
        current |= new


def brute_force_subpower(algebra: FiniteAlgebra, gens: list[tuple]) -> set[tuple]:
    """Reference row-wise closure of tuples, no frontier tricks."""
    n = algebra.size
    current = set(gens)
    while True:
        new = set()
        for op in algebra.operations:
            for rows in product(sorted(current), repeat=op.arity):
                out = []
                for c in range(len(rows[0])):
                    idx = 0
                    for r in rows:
                        idx = idx * n + r[c]
                    out.append(op.table[idx])
                new.add(tuple(out))
        if new <= current:
            return current
        current |= new


def brute_force_is_blocker(algebra: FiniteAlgebra, c: set[int], d: set[int]) -> bool:
    """Reference blocker test read off the operation tables alone.

    {} != C < D, both closed under every operation, and every operation
    has a coordinate j with f(D, .., C at j, .., D) inside C.
    """
    if not c or not c < d:
        return False
    if brute_force_closure(algebra, c) != c or brute_force_closure(algebra, d) != d:
        return False
    n = algebra.size
    for op in algebra.operations:
        absorbing = False
        for j in range(op.arity):
            domains = [sorted(c) if i == j else sorted(d) for i in range(op.arity)]
            values = set()
            for args in product(*domains):
                idx = 0
                for a in args:
                    idx = idx * n + a
                values.add(op.table[idx])
            if values <= c:
                absorbing = True
                break
        if not absorbing:
            return False
    return True


def brute_force_find_blocker(algebra: FiniteAlgebra):
    """Reference of the documented sequential blocker search, from the
    tables alone: for c = 0, 1, .. grow S from {c}, each step taking the
    inclusion-minimal Sg({c, d}) of the smallest d outside S and testing
    (S & Sg({c, d}), Sg({c, d})).  Returns (c, C, D) of the first blocker
    tested, or None."""
    n = algebra.size
    pair_sg = {}
    for c in range(n):
        s = {c}
        while len(s) < n:
            gens = []
            for d in range(n):
                if d not in s:
                    key = frozenset((c, d))
                    if key not in pair_sg:
                        pair_sg[key] = frozenset(brute_force_closure(algebra, set(key)))
                    gens.append(pair_sg[key])
            d_set = next(g for g in gens if not any(h < g for h in gens))
            if brute_force_is_blocker(algebra, s & d_set, set(d_set)):
                return c, s & d_set, set(d_set)
            s |= d_set
    return None


def binary_constant3() -> FiniteAlgebra:
    """({0,1,2}, c(x, y) = 2): constant3's clone, but with a binary
    operation on three elements, so the general path's orbit queries
    (d >= 13) close under a binary operation beyond two elements."""
    return FiniteAlgebra(3, (OperationTable("c2", 2, (2,) * 9),))


class StarvedNumpy:
    """numpy whose `zeros` and `empty` raise MemoryError above `limit` cells.

    Set as a module's `np` (monkeypatch) to make that module's large
    allocations fail the way they do when memory runs out.
    """

    def __init__(self, limit: int):
        self.limit = limit

    def __getattr__(self, name):
        return getattr(np, name)

    def _alloc(self, fn):
        def alloc(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape).tolist()) > self.limit:
                raise MemoryError(f"no room for an array of shape {shape}")
            return fn(shape, *args, **kwargs)
        return alloc

    @property
    def zeros(self):
        return self._alloc(np.zeros)

    @property
    def empty(self):
        return self._alloc(np.empty)
