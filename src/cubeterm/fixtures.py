"""Example algebras and independent brute-force oracles.

The named fixtures are the small algebras every test suite here keeps
reaching for.  The oracles (clone-part enumeration, exhaustive chipped-cube
search) decide the same questions as the fast paths in `decide`, by
entirely different means, so the two can cross-validate each other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Optional

from .algebra import (
    MAX_SIZE,
    FiniteAlgebra,
    OperationTable,
    enumerate_subuniverses,
    is_idempotent,
)
from .errors import BudgetExceededError
from .relations import ChippedCubeSpec, Relation, chipped_cube, is_compatible
from .subpower import Budget, default_budget, generate


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

def lattice2() -> FiniteAlgebra:
    """Two-element lattice ({0,1}, meet, join)."""
    return FiniteAlgebra(2, (
        OperationTable("meet", 2, (0, 0, 0, 1)),
        OperationTable("join", 2, (0, 1, 1, 1)),
    ), name="lattice2")


def semilattice2() -> FiniteAlgebra:
    """Two-element meet semilattice ({0,1}, meet)."""
    return FiniteAlgebra(2, (OperationTable("meet", 2, (0, 0, 0, 1)),),
                         name="semilattice2")


def nand2() -> FiniteAlgebra:
    """({0,1}, nand): functionally complete, not idempotent."""
    return FiniteAlgebra(2, (OperationTable("nand", 2, (1, 1, 1, 0)),),
                         name="nand2")


def constant3() -> FiniteAlgebra:
    """({0,1,2}, c2) with the unary constant c2(x) = 2."""
    return FiniteAlgebra(3, (OperationTable("c2", 1, (2, 2, 2)),),
                         name="constant3")


def _check_size(n: int) -> None:
    """ValueError unless 1 <= n <= MAX_SIZE, the sizes the engine supports."""
    if not 1 <= n <= MAX_SIZE:
        raise ValueError(f"universe size must be between 1 and {MAX_SIZE}, got {n}")


def no_ops(n: int) -> FiniteAlgebra:
    """An n-element set with no operations (clone of projections), for
    1 <= n <= MAX_SIZE."""
    _check_size(n)
    return FiniteAlgebra(n, (), name=f"no_ops{n}")


_FIXTURES = {
    "lattice2": lattice2,
    "semilattice2": semilattice2,
    "nand2": nand2,
    "constant3": constant3,
}

FIXTURE_NAMES = sorted(_FIXTURES) + ["no_ops<n>"]


def fixture(name: str) -> FiniteAlgebra:
    """Look up a named fixture; no_ops takes its size as a suffix (no_ops3)."""
    if name in _FIXTURES:
        return _FIXTURES[name]()
    m = re.fullmatch(r"no_ops(\d+)", name)
    if m:
        return no_ops(int(m.group(1)))
    raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")


# ---------------------------------------------------------------------------
# idempotent quasigroups
# ---------------------------------------------------------------------------

def _latin_backtrack(n: int) -> Optional[list[list[int]]]:
    # idempotent diagonal fixed, fill remaining cells in reading order,
    # smallest candidate first
    table = [[-1] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = i
    cells = [(r, c) for r in range(n) for c in range(n) if r != c]

    def fill(pos: int) -> bool:
        if pos == len(cells):
            return True
        r, c = cells[pos]
        used = {table[r][j] for j in range(n)} | {table[i][c] for i in range(n)}
        for v in range(n):
            if v not in used:
                table[r][c] = v
                if fill(pos + 1):
                    return True
                table[r][c] = -1
        return False

    return table if fill(0) else None


def idempotent_quasigroup(n: int) -> FiniteAlgebra:
    """An idempotent quasigroup (Latin square with x*x = x) of order n.

    None exists for n = 2.  Odd orders use x*y = ((n+1)/2)(x+y) mod n,
    whose coefficient is the inverse of 2 mod n, so rows and columns are
    bijections and 2a * (n+1)/2 = a gives idempotence.  Even orders fall
    back to a deterministic backtracking search.
    """
    if n < 3:
        raise ValueError("idempotent quasigroups exist only for order >= 3")
    _check_size(n)
    if n % 2 == 1:
        c = (n + 1) // 2
        table = tuple((c * (x + y)) % n for x in range(n) for y in range(n))
    else:
        if n > 10:
            raise BudgetExceededError("backtracking search capped at order 10")
        square = _latin_backtrack(n)
        if square is None:
            raise RuntimeError(f"no idempotent Latin square of order {n} found")
        table = tuple(square[x][y] for x in range(n) for y in range(n))
    return FiniteAlgebra(n, (OperationTable("star", 2, table),),
                         name=f"quasigroup{n}")


# ---------------------------------------------------------------------------
# tight examples for the idempotent dimension bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightExampleParams:
    """Universe size and basic-operation arities for a tight example.

    The construction realizes an idempotent algebra whose minimal cube
    dimension is exactly N = 1 + sum of (m_i - 1) over the r = min(l, C(n,2))
    largest arities.  Needs n > 2, or n = 2 with N > 2, and every arity
    at least 2 (idempotent unary operations are just the identity).
    """

    n: int
    arities: tuple[int, ...]

    def __post_init__(self):
        _check_size(self.n)
        object.__setattr__(self, "arities",
                           tuple(sorted(self.arities, reverse=True)))
        if not self.arities:
            raise ValueError("need at least one operation arity")
        if any(m < 2 for m in self.arities):
            raise ValueError("tight examples need every arity >= 2")
        if not (self.n > 2 or (self.n == 2 and self.N > 2)):
            raise ValueError(f"no tight example for n={self.n}, N={self.N}")

    @property
    def r(self) -> int:
        return min(len(self.arities), math.comb(self.n, 2))

    @property
    def N(self) -> int:
        return 1 + sum(m - 1 for m in self.arities[: self.r])

    def pair_partition(self) -> list[list[tuple[int, int]]]:
        """Pairs (a, b), a < b, dealt round-robin into r nonempty groups."""
        pairs = [(a, b) for a in range(self.n) for b in range(self.n) if a < b]
        groups: list[list[tuple[int, int]]] = [[] for _ in range(self.r)]
        for i, p in enumerate(pairs):
            groups[i % self.r].append(p)
        return groups


def tight_example(params: TightExampleParams) -> FiniteAlgebra:
    """Idempotent algebra with a cube term of dimension N but none of N - 1.

    Operation i < r protects its pair group: an argument tuple holding some
    b exactly once and a everywhere else, (a, b) in group i, evaluates to a;
    everything else takes the maximum.  Remaining operations are first
    projections.  The N = 2 case (a single binary operation, n > 2) is an
    idempotent quasigroup instead.
    """
    n = params.n
    if params.N == 2:
        return idempotent_quasigroup(n)
    groups = params.pair_partition()
    ops = []
    for i, m in enumerate(params.arities):
        if i < params.r:
            group = groups[i]

            def value(args: tuple[int, ...], group=group, m=m) -> int:
                for a, b in group:
                    if args.count(b) == 1 and args.count(a) == m - 1:
                        return a
                return max(args)

            table = tuple(value(args) for args in product(range(n), repeat=m))
        else:
            table = tuple(args[0] for args in product(range(n), repeat=m))
        ops.append(OperationTable(f"f{i + 1}", m, table))
    label = ",".join(str(m) for m in params.arities)
    return FiniteAlgebra(n, tuple(ops), name=f"tight{n}[{label}]")


# ---------------------------------------------------------------------------
# the minimal elusive relation of the constant algebra
# ---------------------------------------------------------------------------

def constant3_elusive_relation(k: int) -> Relation:
    """The k-ary relation {2^k} + {0,1}^k minus {(1,0,...,0)} over {0,1,2}.

    Compatible with constant3 and elusive with witness a = (1,0,...,0),
    b = (0,1,...,1); at 2**k tuples it is just one tuple above the smallest
    size any k-ary elusive relation can have, yet it is not a chipped cube,
    which is why the chipped-cube theory needs idempotence.
    """
    if k < 2:
        raise ValueError("arity must be at least 2")
    banned = (1,) + (0,) * (k - 1)
    tuples = [(2,) * k] + [t for t in product((0, 1), repeat=k) if t != banned]
    return Relation.from_tuples(3, k, tuples)


# ---------------------------------------------------------------------------
# clone-part oracle
# ---------------------------------------------------------------------------

#: Largest power arity n**k `clone_part` closes in.
MAX_POWER_ARITY = 1 << 12


def clone_part(algebra: FiniteAlgebra, k: int, *,
               budget: Optional[Budget] = None) -> Relation:
    """The k-ary part of the clone, as a subpower of A**(n**k).

    Each member is the full value table of one k-ary term operation; the
    generators are the k projections.  The power arity n**k is the hard
    limit here, hence the cap MAX_POWER_ARITY; ValueError for k < 0.
    """
    if k < 0:
        raise ValueError(f"clone part arity must be at least 0, got {k}")
    n = algebra.size
    power = n ** k
    if power > MAX_POWER_ARITY:
        raise BudgetExceededError(
            f"clone part needs power arity {power}, above the cap {MAX_POWER_ARITY}"
        )
    projections = []
    for j in range(k):
        stride = n ** (k - 1 - j)
        projections.append(tuple((c // stride) % n for c in range(power)))
    rel, ans = generate(algebra, projections, arity=power,
                        budget=budget or default_budget())
    if ans.truncated:
        raise BudgetExceededError("clone-part closure hit its budget")
    return rel


def _clone_op_arity(clone: Relation) -> int:
    n, k, space = clone.n, 0, 1
    while space < clone.arity:
        space *= n
        k += 1
    if space != clone.arity:
        raise ValueError("relation arity is not a power of the universe size")
    return k


def _table_value(g: tuple[int, ...], args: list[int], n: int) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return g[idx]


def scan_clone_for(kind: str, clone: Relation, *, dim: Optional[int] = None) -> bool:
    """Does some member of a clone part satisfy an identity schema pointwise?

    kind "nu": k-ary near-unanimity identities; "maltsev": alias for the
    dimension-2 cube schema on ternary tables; "cube": the dimension-`dim`
    schema on (2**dim - 1)-ary tables, columns in bitmask-counter order.
    """
    n = clone.n
    k = _clone_op_arity(clone)
    if kind == "maltsev":
        kind, dim = "cube", 2

    if kind == "nu":
        if k < 3:
            raise ValueError("near-unanimity needs arity at least 3")

        def ok(g: tuple[int, ...]) -> bool:
            for i in range(k):
                for alpha in range(n):
                    for beta in range(n):
                        args = [alpha] * k
                        args[i] = beta
                        if _table_value(g, args, n) != alpha:
                            return False
            return True

    elif kind == "cube":
        if dim is None or k != (1 << dim) - 1:
            raise ValueError("cube schema of dimension d needs a (2^d - 1)-ary clone part")
        masks = list(range(1, 1 << dim))

        def ok(g: tuple[int, ...]) -> bool:
            for i in range(dim):
                for alpha in range(n):
                    for beta in range(n):
                        args = [beta if m >> i & 1 else alpha for m in masks]
                        if _table_value(g, args, n) != alpha:
                            return False
            return True

    else:
        raise ValueError(f"unknown identity schema {kind!r}")

    return any(ok(g) for g in clone)


# ---------------------------------------------------------------------------
# exhaustive chipped-cube oracle
# ---------------------------------------------------------------------------

#: Most multisets of (C, D) pairs `exhaustive_chipped_cube_search` tries.
MAX_CASES = 10 ** 6


def exhaustive_chipped_cube_search(algebra: FiniteAlgebra, d: int) -> Optional[ChippedCubeSpec]:
    """Search all d-ary chipped cubes over subuniverse pairs for a compatible one.

    For idempotent algebras such a relation exists iff there is no cube
    term of dimension d.  Compatibility is invariant under permuting
    coordinates, so one representative per multiset of (C, D) pairs covers
    every case; pairs are tried in (D, C) bitmask order.
    """
    if not is_idempotent(algebra):
        raise ValueError("the chipped-cube obstruction needs an idempotent algebra")
    if d < 1:
        raise ValueError("arity must be at least 1")
    subs = enumerate_subuniverses(algebra)
    pairs = [
        (c_mask, d_mask) for d_mask in subs for c_mask in subs
        if c_mask != d_mask and c_mask & ~d_mask == 0
    ]
    pairs.sort(key=lambda p: (p[1], p[0]))
    if math.comb(len(pairs) + d - 1, d) > MAX_CASES:
        raise BudgetExceededError("chipped-cube search space exceeds the budget")
    for combo in combinations_with_replacement(pairs, d):
        spec = ChippedCubeSpec(tuple((c_mask, d_mask, 1) for c_mask, d_mask in combo))
        if is_compatible(algebra, chipped_cube(spec, algebra.size)):
            return spec
    return None
