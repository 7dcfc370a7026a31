"""Finite algebras presented by flat operation tables.

Elements of an algebra of size n are the integers 0..n-1.  An operation
table of arity m is a flat list of n**m values indexed big-endian: the
value of f(a1, ..., am) sits at position a1*n**(m-1) + a2*n**(m-2) + ... + am.
Subsets of the universe are passed around as integer bitmasks (bit i set
means element i is in the set).

Operations are evaluated over many arguments by two kernels.  The value
kernel `_evaluate` maps argument arrays to values, fed by two gathers:
`_product` the dense cartesian products of argument stores (the tuple
closure of `subpower`, the compatibility scan), and `_ragged` each row's
own product over ragged stores (`_RowSets`).  Over the latter
`_ragged_product` serves `close_codes`, which closes many sets of codes of
A**d at once; the orbit expander `orbits._Orbits` gathers argument orbits
and result sets with `_ragged` itself.  The set kernel `_images` maps one
element set per argument to the image f(S_1 x ... x S_m): it contracts
the operation's one-hot table when that fits one kernel chunk, unless the
sets' own products are cheaper to gather (`_gathers`), and runs
`_ragged_product` beyond.  It serves `sg_many`, the subuniverse test of
`is_subuniverse` and `enumerate_subuniverses` (`_escapes`), and
`verify_blockers`.  Every closure grows in semi-naive rounds by one rule,
`_frontier`, except `sg_many`'s rounds over contracted tables, which take
full images, as a contraction costs the same whatever a round added.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations, product
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import BudgetExceededError, InputError

#: Largest universe: elements are stored as uint16 above 256 elements.
MAX_SIZE = 1 << 16

#: Default cells of one kernel chunk.  Small enough for the temporaries to
#: stay in cache: on a 2-core x86 machine the two-element formulas ran 2-3
#: times slower on chunks of 2**22 cells than on chunks of 2**16.
KERNEL_CELLS = 1 << 16

#: The ragged gather's cost in multiply-adds of a one-hot contraction, per
#: tuple and per call (`_gathers`).  With numpy on a 2-core x86 machine a
#: contraction took 0.04-0.09 ns per multiply-add, the gather 30-100 ns per
#: tuple and 20-30 us more per call; these two came closest to the faster
#: path on every set-kernel call of the blocker benchmark and of the
#: blocker search on chain lattices and median algebras.
GATHER_TUPLE_MULADDS = 1000
GATHER_CALL_MULADDS = 400_000


# ---------------------------------------------------------------------------
# element-set bitmask helpers
# ---------------------------------------------------------------------------

def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of elements."""
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def mask_from_json(value, what: str) -> int:
    """Bitmask of an element list read from JSON: a list of non-negative
    integers, bools excluded; InputError naming `what` otherwise."""
    if not isinstance(value, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in value):
        raise InputError(f"{what}: not a list of non-negative integers")
    return mask_of(value)


def mask_elements(mask: int) -> list[int]:
    """Sorted list of elements in a bitmask."""
    if mask < 0:
        raise ValueError(f"negative element mask {mask}")
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def full_mask(n: int) -> int:
    return (1 << n) - 1


def _as_mask(elements) -> int:
    if isinstance(elements, int):
        return elements
    return mask_of(elements)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperationTable:
    """A basic operation given by its value table."""

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra: universe {0..size-1} plus operation tables.

    The operation list may be empty (the algebra then has only
    projections as term operations).
    """

    size: int
    operations: tuple[OperationTable, ...] = ()
    name: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "operations", tuple(self.operations))

    @property
    def max_arity(self) -> int:
        return max((op.arity for op in self.operations), default=0)

    @property
    def arities(self) -> list[int]:
        return [op.arity for op in self.operations]

    @cached_property
    def compiled(self) -> "CompiledAlgebra":
        """The numpy form of the algebra, built on first use and kept."""
        return _compile(self)

    @cached_property
    def automorphisms(self) -> np.ndarray:
        """The automorphism group as a (k x n) array of permutations over
        the compiled operations, the identity first; found on first use
        and kept (`_automorphisms`)."""
        return _automorphisms(self)

    def to_json(self) -> dict:
        obj: dict = {
            "size": self.size,
            "operations": [
                {"name": op.name, "arity": op.arity, "table": list(op.table)}
                for op in self.operations
            ],
        }
        if self.name is not None:
            obj["name"] = self.name
        return obj

    @classmethod
    def from_json(cls, obj) -> "FiniteAlgebra":
        """Build an algebra from its canonical JSON form.

        Raises InputError listing every violation if the data is malformed.
        """
        if not isinstance(obj, dict):
            raise InputError("algebra JSON must be an object")
        problems = []
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            problems.append("name: must be a string when present")
        size = obj.get("size")
        if not isinstance(size, int) or isinstance(size, bool):
            problems.append("size: missing or not an integer")
            size = 1
        ops_json = obj.get("operations", [])
        if not isinstance(ops_json, list):
            problems.append("operations: must be a list")
            ops_json = []
        ops = []
        for i, oj in enumerate(ops_json):
            if not isinstance(oj, dict):
                problems.append(f"operations[{i}]: must be an object")
                continue
            op_name = oj.get("name", f"f{i}")
            arity = oj.get("arity")
            table = oj.get("table")
            if not isinstance(op_name, str):
                problems.append(f"operations[{i}]: name must be a string")
                op_name = f"f{i}"
            if not isinstance(arity, int) or isinstance(arity, bool):
                problems.append(f"operations[{i}] '{op_name}': arity missing or not an integer")
                arity = 1
            if not isinstance(table, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in table
            ):
                problems.append(f"operations[{i}] '{op_name}': table missing or not a list of integers")
                table = []
            ops.append(OperationTable(op_name, arity, tuple(table)))
        alg = cls(size=size, operations=tuple(ops), name=name if isinstance(name, str) else None)
        problems.extend(validate(alg))
        if problems:
            raise InputError("; ".join(problems))
        return alg


# ---------------------------------------------------------------------------
# compiled form and the evaluation kernel
# ---------------------------------------------------------------------------

class _Op(NamedTuple):
    """One basic operation, compiled.

    For two-element universes `terms` lists the argument patterns (bit j
    of a pattern = argument arity-1-j) of the bitwise formula: the minterms
    where the table is 1, or, when `complement` is set, the ones where it
    is 0 and the formula's value is negated.

    When the table fits one kernel chunk (n**(arity+1) <= KERNEL_CELLS),
    `onehot` is its (n**arity x n) float32 one-hot form, row i holding a 1
    at column table[i], for `_images`; None beyond that bound.
    """

    n: int
    arity: int
    table: np.ndarray
    symmetric: bool
    terms: tuple[int, ...]
    complement: bool
    onehot: Optional[np.ndarray]


class CompiledAlgebra(NamedTuple):
    """Numpy tables in the element dtype, projections and duplicates dropped.

    Neither a projection (it returns one of its arguments) nor a second copy
    of a table can take anything out of a subuniverse or a relation, so
    every closure and every check runs over `ops` alone.
    """

    dtype: np.dtype
    ops: tuple[_Op, ...]


def element_dtype(n: int) -> np.dtype:
    """Dtype that holds the elements of an n-element universe: uint8 up to
    256 elements, uint16 up to MAX_SIZE."""
    return np.min_scalar_type(n - 1)


def _compile(algebra: FiniteAlgebra) -> CompiledAlgebra:
    n = algebra.size
    dtype = element_dtype(n)
    ops: list[_Op] = []
    seen = set()
    for op in algebra.operations:
        m = op.arity
        grid = np.asarray(op.table, dtype=dtype).reshape((n,) * m)
        key = (m, grid.tobytes())
        if key in seen or any(
            (grid == np.arange(n).reshape([n if a == j else 1 for a in range(m)])).all()
            for j in range(m)
        ):
            continue
        seen.add(key)
        # two elements: a formula over the fewer of the 1-entries and 0-entries
        complement = n == 2 and 2 * int(grid.sum()) > grid.size
        terms = tuple(np.flatnonzero(grid.ravel() != complement).tolist()) if n == 2 else ()
        onehot = None
        if n ** (m + 1) <= KERNEL_CELLS:
            onehot = np.zeros((grid.size, n), dtype=np.float32)
            onehot[np.arange(grid.size), grid.ravel()] = 1
        ops.append(_Op(n, m, grid.ravel(), m == 2 and bool((grid == grid.T).all()),
                       terms, complement, onehot))
    return CompiledAlgebra(dtype, tuple(ops))


def _automorphisms(algebra: FiniteAlgebra) -> np.ndarray:
    """The permutations of the universe that commute with every compiled
    operation, as rows, the identity first.

    A homomorphism is fixed by its images of a generating set.  The set is
    grown greedily, each time by the smallest element outside the
    subuniverse it generates so far, and every other element is recorded as
    one operation's value at elements found before it.  All injective images
    of the generators are extended along that record at once and checked
    against every table; the maps that are not permutations are dropped (an
    injective image of the generators can still extend to a non-injective
    endomorphism).  When the candidates times n**max_arity exceed one
    `KERNEL_CELLS` chunk, the identity alone is returned: any set of
    automorphisms holding it is a sound answer for the pattern reduction.
    """
    n, ops = algebra.size, algebra.compiled.ops
    identity = np.arange(n, dtype=algebra.compiled.dtype)[None]
    cells = n ** max((op.arity for op in ops), default=0)
    inside = np.zeros(n, dtype=bool)
    gens, steps = [], []  # steps: (op, element, its arguments)
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        inside[gens[-1]] = True
        if math.perm(n, len(gens)) * cells > KERNEL_CELLS:
            return identity
        grew = True
        while grew:
            grew = False
            for op in ops:
                held = inside
                for _ in range(1, op.arity):
                    held = held[..., None] & inside
                # argument tuples inside with a value outside: each is met once
                at = np.flatnonzero(held.ravel() & ~inside[op.table])
                for i, v in zip(at.tolist(), op.table[at].tolist()):
                    if not inside[v]:
                        inside[v] = grew = True
                        steps.append((op, v, list(np.unravel_index(i, held.shape))))
    images = np.empty((math.perm(n, len(gens)), n), dtype=identity.dtype)
    images[:, gens] = np.array(list(permutations(range(n), len(gens))), dtype=images.dtype)
    for op, v, args in steps:
        images[:, v] = op.table[_radix(images[:, args].T, n)]
    images = images[(np.sort(images, axis=1) == identity).all(axis=1)]
    for op in ops:
        # keep sigma when sigma(f(x)) = f(sigma(x)) for every x, with the
        # table index of sigma(x) built by broadcasting
        moved = sigma = images.astype(np.intp)
        for j in range(1, op.arity):
            moved = moved[..., None] * n + sigma.reshape((len(sigma),) + (1,) * j + (n,))
        moved = op.table[moved.reshape(len(sigma), -1)]
        images = images[(images[:, op.table] == moved).all(axis=1)]
    return np.vstack([identity, images[(images != identity).any(axis=1)]])


def _radix(digits, n: int, dtype=np.int32) -> np.ndarray:
    """Big-endian base-n value of a sequence of broadcastable digit arrays:
    with argument arrays as digits, the flat table index."""
    out = digits[0].astype(dtype)
    for d in digits[1:]:
        out = out * n + d
    return out


def _evaluate(op: _Op, args, mask: Optional[int] = None) -> np.ndarray:
    """The kernel: op applied to broadcastable argument arrays.

    Without `mask` the arguments hold elements (or rows of elements) and
    each value is a table lookup.  With `mask` = 2**K - 1 they hold K-bit
    codes over a two-element universe, and bit i of a value is op applied
    to bit i of the arguments, computed by the operation's bitwise formula.
    """
    if mask is None:
        return op.table[_radix(args, op.n)]
    acc = None
    for v in op.terms:
        term = None
        for j, x in enumerate(args):
            lit = x if v >> (op.arity - 1 - j) & 1 else ~x & mask
            term = lit if term is None else term & lit
        acc = term if acc is None else acc | term
    if acc is None:
        # constant table: still honour the broadcast shape of the arguments
        acc = np.zeros(np.broadcast_shapes(*(np.shape(a) for a in args)),
                       dtype=np.result_type(*args))
    return ~acc & mask if op.complement else acc


def _product(op: _Op, stores, mask: Optional[int] = None,
             cells: int = KERNEL_CELLS) -> Iterator[np.ndarray]:
    """Yield op over every combination of one entry from each store.

    stores[j] holds the candidates for argument j along its first axis:
    elements or codes (1-D) or rows of elements (2-D, one row per entry).
    The values come in chunks of at most about `cells` cells, flattened to
    one entry per combination, in lexicographic order of the combination.
    A chunk takes the innermost arguments whole, the next one in slices
    and the outer ones an index at a time.
    """
    lens = [len(s) for s in stores]
    if 0 in lens:
        return
    m = len(stores)
    tail = stores[0].shape[1:]
    inner = math.prod(tail)
    split = m - 1
    while split > 0 and inner * lens[split] <= cells:
        inner *= lens[split]
        split -= 1
    step = max(1, cells // max(1, inner))
    for outer in product(*map(range, lens[:split])):
        for lo in range(0, lens[split], step):
            bounds = ([(i, i + 1) for i in outer] + [(lo, lo + step)]
                      + [(0, k) for k in lens[split + 1:]])
            args = [s[a:b].reshape((1,) * j + (-1,) + (1,) * (m - 1 - j) + tail)
                    for j, (s, (a, b)) in enumerate(zip(stores, bounds))]
            yield _evaluate(op, args, mask).reshape((-1,) + tail)


def _frontier(op: _Op, new, old=None, every=None) -> Iterator[list]:
    """The argument stores of one semi-naive round of op, meeting each
    argument tuple over `every` = old + new that touches `new` once: in the
    first round (no `old`) [new] * arity; for a symmetric binary op
    [new, old], then [new, new], one store twice for the unordered pairs in
    `new`; else block j for a first entry from `new` at position j, entries
    before it from `old` and later ones from `every`."""
    if old is None:
        yield [new] * op.arity
    elif op.symmetric:
        yield [new, old]
        yield [new, new]
    else:
        for j in range(op.arity):
            yield [old] * j + [new] + [every] * (op.arity - 1 - j)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def validate(algebra: FiniteAlgebra) -> list[str]:
    """Every invariant violation in the algebra, with its location.

    An empty list means the algebra is well formed.  Violations are data,
    not exceptions: a validator that throws on the first problem cannot
    report them all.
    """
    n = algebra.size
    problems = []
    if n < 1:
        problems.append(f"size: must be at least 1, got {n}")
        return problems
    if n > MAX_SIZE:
        problems.append(f"size: at most {MAX_SIZE} elements are supported, got {n}")
        return problems
    for i, op in enumerate(algebra.operations):
        where = f"operations[{i}] '{op.name}'"
        if op.arity < 1:
            problems.append(f"{where}: arity must be at least 1, got {op.arity}")
            continue
        # n**arity > len(table) for n >= 2 once arity passes its bit length:
        # name the power then rather than build a huge integer
        fits = n == 1 or op.arity <= len(op.table).bit_length()
        expected = n ** op.arity if fits else f"{n}**{op.arity}"
        if len(op.table) != expected:
            problems.append(
                f"{where}: table has {len(op.table)} entries, expected {expected}"
            )
            continue
        for j, v in enumerate(op.table):
            if not 0 <= v < n:
                problems.append(f"{where}: entry {v} at index {j} is outside 0..{n - 1}")
    return problems


def apply(op: OperationTable, args: tuple[int, ...], n: int) -> int:
    """Value of the operation on an argument tuple."""
    if len(args) != op.arity:
        raise ValueError(f"'{op.name}' expects {op.arity} arguments, got {len(args)}")
    idx = 0
    for a in args:
        if not 0 <= a < n:
            raise ValueError(f"argument {a} is outside 0..{n - 1}")
        idx = idx * n + a
    return op.table[idx]


def is_idempotent(algebra: FiniteAlgebra) -> bool:
    """True iff every basic operation satisfies f(a, ..., a) = a.

    Checking the basic operations suffices: compositions of idempotent
    operations are idempotent.
    """
    n = algebra.size
    for op in algebra.operations:
        # index of (a, ..., a) is a * (n^m - 1) / (n - 1); walk it instead
        step = sum(n ** j for j in range(op.arity))
        for a in range(n):
            if op.table[a * step] != a:
                return False
    return True


def _code_digits(n: int, d: int) -> np.ndarray:
    """The digit table of A**d: row i holds digit i (big-endian) of every code."""
    return np.indices((n,) * d, dtype=element_dtype(n)).reshape(d, -1)


def _code_values(op: _Op, args, digits: np.ndarray) -> np.ndarray:
    """op applied coordinatewise to argument arrays of codes of A**d."""
    out = None
    for column in digits:
        values = op.table[_radix([column[a] for a in args], op.n)]
        out = values.astype(np.int64) if out is None else out * op.n + values
    return out


class _RowSets:
    """Ragged rows over one array: row r is the `counts[r]` entries of
    `elems` (elements, codes, or rows of a 2-D `elems`) from `starts[r]` on."""

    def __init__(self, elems: np.ndarray, starts: np.ndarray, counts: np.ndarray):
        self.elems, self.starts, self.counts = elems, starts, counts

    @classmethod
    def of(cls, matrix: np.ndarray) -> "_RowSets":
        """The rows of a bool matrix as their sorted column lists."""
        rows, columns = np.divmod(matrix.ravel().nonzero()[0], matrix.shape[1])
        counts = np.bincount(rows, minlength=len(matrix))
        return cls(columns, counts.cumsum() - counts, counts)


def _ragged(stores, step: Optional[int] = None):
    """Yield (rows, args): every row's own combinations of one entry per
    store, row r taking argument j from row r of the `_RowSets` stores[j],
    numbered in one sequence (rows in order, each row's combinations in
    lexicographic order) and taken `step` at a time, all at once without
    one.  args[j] holds argument j of each combination, rows its row."""
    counts = [s.counts for s in stores]
    totals = math.prod(counts)
    ends = np.cumsum(totals)
    total = int(ends[-1])
    begins = ends - totals
    step = step or max(1, total)
    for lo in range(0, total, step):
        flat = np.arange(lo, min(lo + step, total))
        rows = np.searchsorted(ends, flat, side="right")
        picks = [flat - begins[rows]] * len(stores)
        for j in range(len(stores) - 1, 0, -1):
            picks[0], picks[j] = np.divmod(picks[0], counts[j][rows])
        yield rows, [s.elems[s.starts[rows] + p] for s, p in zip(stores, picks)]


def _ragged_product(op: _Op, stores, cells: int = KERNEL_CELLS,
                    digits: Optional[np.ndarray] = None):
    """Yield (rows, values): op over each row's own cartesian product, row r
    taking argument j from row r of stores[j], a bool matrix or its
    `_RowSets`, in `_ragged` order, `cells` combinations at a time.  A
    symmetric binary op over one store twice gets each unordered pair once.

    With `digits` (the `_code_digits` table) the entries are codes of A**d
    and op acts on them coordinatewise; a chunk then takes cells // 32
    combinations, as each carries a dozen int64 temporaries.
    """
    pairs = op.symmetric and stores[0] is stores[1]
    stores = [s if isinstance(s, _RowSets) else _RowSets.of(s) for s in stores]
    step = cells if digits is None else max(1, cells // 32)
    for rows, args in _ragged(stores, step):
        if pairs:  # entries are sorted within a row
            keep = args[1] <= args[0]
            rows, args = rows[keep], [a[keep] for a in args]
        yield rows, _evaluate(op, args) if digits is None else _code_values(op, args, digits)


def _gathers(op: _Op, sets) -> bool:
    """Whether `_images` takes the ragged gather: always beyond the one-hot
    bound, else when the rows' argument tuples, counted as if every row
    had the mean size, cost fewer multiply-adds (GATHER_TUPLE_MULADDS,
    GATHER_CALL_MULADDS) than contracting the table, rows * n**(arity+1),
    as for small sets over a large table."""
    if op.onehot is None:
        return True
    rows = len(sets[0])
    muladds = rows * op.n ** (op.arity + 1)
    if muladds <= GATHER_CALL_MULADDS:
        return False
    tuples = rows * math.prod(np.count_nonzero(s) / rows for s in sets)
    return GATHER_CALL_MULADDS + GATHER_TUPLE_MULADDS * tuples < muladds


def _images(op: _Op, sets) -> np.ndarray:
    """The set kernel: each row's image under op, as a (rows x n) bool
    matrix of the values of op over sets[0][r] x ... x sets[m-1][r], each
    sets[j] a (rows x n) bool matrix.

    Unless it `_gathers`, it contracts the one-hot table with the rows'
    argument indicators, KERNEL_CELLS // n**m rows at a time: argument 0
    by one float32 matmul with the table as (n x n**m), each later
    argument by a batched one over what is left, and a value is in the
    image iff its count is > 0 (exact: a count is at most n**m < 2**24).
    Otherwise the values come from `_ragged_product`."""
    out = np.zeros(sets[0].shape, dtype=bool)
    if not len(out):
        return out
    if _gathers(op, sets):
        own = {id(s): s for s in sets}  # a set passed twice is gathered once
        own = {key: _RowSets.of(s) for key, s in own.items()}
        for rows, values in _ragged_product(op, [own[id(s)] for s in sets]):
            out[rows, values] = True
        return out
    n = op.n
    table = op.onehot.reshape(n, -1)
    step = max(1, KERNEL_CELLS // len(op.onehot))
    for lo in range(0, len(out), step):
        chunk = [s[lo:lo + step].astype(np.float32) for s in sets]
        counts = chunk[0] @ table
        for s in chunk[1:]:
            counts = np.matmul(s[:, None, :], counts.reshape(len(s), n, -1))[:, 0]
        out[lo:lo + step] = counts > 0
    return out


def _escapes(op: _Op, sets, inside: np.ndarray) -> np.ndarray:
    """Rows with a value of op over their own product of `sets` outside
    their row of the bool matrix `inside` (`_images`)."""
    return (_images(op, sets) & ~inside).any(axis=1)


def close_codes(algebra: FiniteAlgebra, d: int, gens: np.ndarray, targets=None, *,
                max_members: Optional[int] = None, max_seconds: Optional[float] = None):
    """Close many sets of codes of A**d at once, each under every operation.

    gens is a (rows x n**d) bool matrix, row r the generators of closure r;
    targets, when given, holds one code per row.  Each row grows in rounds
    by semi-naive evaluation: every operation is applied to the `_frontier`
    blocks of the codes the row gained in the previous round, a symmetric
    binary one to unordered pairs only.  A row leaves the frontier once it
    holds its target or the whole space.  A row still without its target
    is truncated when it holds more than max_members codes after a round,
    or when the run passes max_seconds; a `MemoryError` in a round ends
    the run, keeping the codes the round made before it, and truncates
    every row still live in it that has not reached its target.
    Operations act on codes through the digit table, so d = 1 is the Sg
    closure; `sg_many` runs it there only for algebras with an operation
    beyond the set kernel's bound.

    Returns (members, found, truncated): each row's codes as a bool
    matrix, whether it holds its target, whether a cap cut it off.
    """
    digits = None if d == 1 else _code_digits(algebra.size, d)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    index = np.arange(len(gens))
    targets = None if targets is None else np.asarray(targets)
    new = np.array(gens, dtype=bool)
    found = np.zeros(len(new), dtype=bool)
    truncated = np.zeros_like(found)
    every = None
    while True:
        old, every = every, new if every is None else every | new
        if targets is not None:
            found = every[index, targets]
            truncated &= ~found
        if max_members is not None:
            truncated |= ~found & (every.sum(axis=1) > max_members)
        live = np.flatnonzero(new.any(axis=1) & ~(found | truncated | every.all(axis=1)))
        if not live.size:
            return every, found, truncated
        hit = None
        try:
            picked = slice(None) if live.size == len(every) else live
            parts = (new,) if old is None else (new, old, every)
            parts = [_RowSets.of(p[picked]) for p in parts]
            hit = np.zeros_like(every)
            for rows, values in chain.from_iterable(
                    _ragged_product(op, stores, digits=digits)
                    for op in algebra.compiled.ops for stores in _frontier(op, *parts)):
                hit[live[rows], values] = True
                if targets is not None and hit[live, targets[live]].all():
                    break
                if deadline is not None and time.monotonic() > deadline:
                    truncated[live] = True  # cleared above for rows that found their target
                    break
            new = hit & ~every
        except MemoryError:  # what the round made before it failed is kept
            if hit is not None:
                every |= hit
            if targets is not None:
                found = every[index, targets]
            truncated[live] = True
            return every, found, truncated & ~found


def mask_matrix(sets, n: int) -> np.ndarray:
    """The (sets x n) bool membership matrix of element sets, bitmasks or
    collections; ValueError for elements outside 0..n-1."""
    masks = [_as_mask(s) for s in sets]
    if any(m < 0 or m >> n for m in masks):
        raise ValueError("set contains elements outside the universe")
    width = (n + 7) // 8
    octets = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(octets.reshape(len(masks), width), axis=1, count=n,
                         bitorder="little").view(bool)


def sg_many(algebra: FiniteAlgebra, seeds) -> list[int]:
    """Subuniverses generated by many seed sets at once, as bitmasks.
    Sg({}) is empty.

    When every operation has its one-hot table, the rows close in
    full-image rounds of the set kernel: a round adds every operation's
    `_images` of the row, and a row leaves once a round adds nothing or it
    is the universe, as a contraction costs the same whatever the last
    round added.  Otherwise they close in `close_codes` at d = 1, whose
    semi-naive rounds take only the new argument tuples through
    `_ragged_product`: full images gathered anew each round made
    `find_blocker` about 1.7x slower on the order-41 and -61 quasigroups.
    Either way a round that cannot be allocated raises
    `MemoryError`, as a partial subuniverse would be a wrong answer."""
    every = mask_matrix(seeds, algebra.size)
    ops = algebra.compiled.ops
    if all(op.onehot is not None for op in ops):
        live = np.arange(len(every))
        while live.size:
            rows = every[live]
            grown = rows.copy()
            for op in ops:
                grown |= _images(op, [rows] * op.arity)
            every[live] = grown
            live = live[(grown != rows).any(axis=1) & ~grown.all(axis=1)]
    else:
        every, _, truncated = close_codes(algebra, 1, every)
        if truncated.any():
            raise MemoryError("Sg closure: out of memory")
    packed = np.packbits(every, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def sg(algebra: FiniteAlgebra, seed) -> int:
    """Subuniverse generated by a seed set, as a bitmask: `sg_many`'s one row."""
    return sg_many(algebra, [seed])[0]


def _subuniverses(algebra: FiniteAlgebra, sets) -> np.ndarray:
    """Which of the element sets are closed under every basic operation, as
    a bool array: those over whose own product no operation `_escapes`,
    each operation checking the sets still closed."""
    inside = mask_matrix(sets, algebra.size)
    closed = np.ones(len(inside), dtype=bool)
    for op in algebra.compiled.ops:
        rows = np.flatnonzero(closed)
        own = inside[rows]
        closed[rows] = ~_escapes(op, [own] * op.arity, own)
    return closed


def is_subuniverse(algebra: FiniteAlgebra, candidate) -> bool:
    """True iff the set is closed under every basic operation."""
    return bool(_subuniverses(algebra, [candidate])[0])


#: Most subsets `enumerate_subuniverses` scans.
MAX_SUBSETS = 1 << 20


def enumerate_subuniverses(algebra: FiniteAlgebra) -> list[int]:
    """All nonempty subuniverses, as bitmasks in increasing numeric order.

    Scans all 2**n subsets, `KERNEL_CELLS // n` at a time, so it refuses
    universes where that exceeds MAX_SUBSETS.
    """
    n = algebra.size
    if (1 << n) > MAX_SUBSETS:
        raise BudgetExceededError(
            f"subset scan over 2^{n} subsets exceeds the budget of {MAX_SUBSETS}"
        )
    step = max(1, KERNEL_CELLS // n)
    batches = (range(lo, min(lo + step, 1 << n)) for lo in range(1, 1 << n, step))
    return [m for b in batches for m, closed in zip(b, _subuniverses(algebra, b)) if closed]
