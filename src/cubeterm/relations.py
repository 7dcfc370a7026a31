"""Finitary relations over the universe, and the tuple combinators behind
cube-term checks.

A k-tuple over a universe of size n has a canonical integer code, big-endian
like operation tables: code(t) = t[0]*n**(k-1) + ... + t[k-1].  Rows are
sorted and looked up by one key that orders like the code (`_keys`): the
code itself while it fits int64, the big-endian digits beyond.  A relation
holds its members as one row array in the element dtype, sorted by code;
the closure engine of `subpower` keys its members the same way.  This
module, `subpower` and `orbits` deduplicate keys with `_first_unique`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from numbers import Integral
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import FiniteAlgebra, _product, element_dtype, mask_elements, mask_from_json
from .errors import BudgetExceededError, InputError


def tuple_code(entries: Sequence[int], n: int) -> int:
    """Canonical integer code of a tuple (first entry most significant)."""
    c = 0
    for e in entries:
        c = c * n + e
    return c


def code_tuple(code: int, arity: int, n: int) -> tuple[int, ...]:
    """Inverse of tuple_code."""
    out = [0] * arity
    for i in range(arity - 1, -1, -1):
        code, out[i] = divmod(code, n)
    return tuple(out)


#: Largest code space n**K whose tuple codes serve as int64 keys.
INT64_CODES = 1 << 62


def _keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row of a digit array over {0..n-1}, ordered like the
    rows' tuple codes.

    The key is the int64 tuple code while n**K <= 2**62, and beyond that
    the row's digits in the element dtype, big-endian, as one void scalar.
    """
    if n ** rows.shape[1] <= INT64_CODES:
        return rows.astype(np.int64) @ n ** np.arange(rows.shape[1] - 1, -1, -1)
    rows = np.ascontiguousarray(rows, dtype=element_dtype(n).newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _in_sorted(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Which of the probe keys occur in an increasing key array."""
    if not len(sorted_keys):
        return np.zeros(len(probe), dtype=bool)
    at = np.searchsorted(sorted_keys, probe).clip(max=len(sorted_keys) - 1)
    return sorted_keys[at] == probe


def _first_unique(keys: np.ndarray, return_inverse=False, return_counts=False) -> tuple:
    """`np.unique(keys, return_index=True, ...)` of 1-D keys by numpy's
    unstable (SIMD) sort, not its slower stable one: the least index in a
    run of equal keys is their first occurrence."""
    order = keys.argsort()
    ordered = keys[order]
    edge = np.empty(len(keys), bool)
    edge[:1] = True
    edge[1:] = ordered[1:] != ordered[:-1]  # the operator, not the ufunc, compares void keys
    starts = np.flatnonzero(edge)
    out = (ordered[starts], np.minimum.reduceat(order, starts) if len(keys) else order)
    if return_inverse:
        inverse = np.empty(len(keys), np.intp)
        inverse[order] = np.cumsum(edge) - 1
        out += (inverse,)
    if return_counts:
        out += (np.diff(starts, append=len(keys)),)
    return out


def _digit_rows(rows, arity: int, n: int) -> np.ndarray:
    """rows as a 2-D array in the element dtype.

    ValueError unless every row has `arity` integer entries in 0..n-1;
    an empty input is zero rows.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        rows = rows.reshape(0, arity)
    if rows.ndim != 2 or rows.shape[1] != arity:
        raise ValueError(f"rows must have {arity} entries")
    if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"tuple entries must be integers in 0..{n - 1}")
    return rows.astype(element_dtype(n), copy=False)


# ---------------------------------------------------------------------------
# Relation
# ---------------------------------------------------------------------------

class Relation:
    """An arity-k set of k-tuples over {0..n-1}.

    Immutable once built.  `rows` holds the members as one duplicate-free
    2-D array in the element dtype, in increasing code order, which is
    lexicographic order; membership is one lookup in their sorted keys.
    """

    def __init__(self, n: int, arity: int, rows=()):
        if n < 1 or arity < 1:
            raise ValueError("need n >= 1 and arity >= 1")
        self.n = n
        self.arity = arity
        rows = _digit_rows(rows, arity, n)
        self._index, first = _first_unique(_keys(rows, n))
        self.rows = rows[first]
        self.rows.flags.writeable = False

    @classmethod
    def from_tuples(cls, n: int, arity: int, tuples: Iterable[Sequence[int]]) -> "Relation":
        return cls(n, arity, list(tuples))

    def has_rows(self, rows: np.ndarray) -> bool:
        """True iff every row of a 2-D array over {0..n-1} is a member."""
        return bool(_in_sorted(self._index, _keys(rows, self.n)).all())

    def __contains__(self, entries: Sequence[int]) -> bool:
        if len(entries) != self.arity or not all(
                isinstance(v, Integral) and 0 <= v < self.n for v in entries):
            return False
        return self.has_rows(np.array([entries]))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return map(tuple, self.rows.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.n == other.n and self.arity == other.arity
                and np.array_equal(self.rows, other.rows))

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, arity={self.arity}, size={len(self)})"

    def project(self, coords: Sequence[int]) -> "Relation":
        """Projection onto a subsequence of coordinates."""
        coords = list(coords)
        if any(not 0 <= c < self.arity for c in coords):
            raise ValueError("projection coordinate out of range")
        return Relation(self.n, len(coords), self.rows[:, coords])

    def to_json(self) -> dict:
        return {"arity": self.arity, "tuples": self.rows.tolist()}

    @classmethod
    def from_json(cls, obj, n: int) -> "Relation":
        if not isinstance(obj, dict):
            raise InputError("relation JSON must be an object")
        arity = obj.get("arity")
        tuples = obj.get("tuples")
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise InputError("arity: missing or not a positive integer")
        if not isinstance(tuples, list):
            raise InputError("tuples: must be a list")
        for i, t in enumerate(tuples):
            if (not isinstance(t, list) or len(t) != arity
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               and 0 <= v < n for v in t)):
                raise InputError(f"tuples[{i}]: not a list of {arity} elements of 0..{n - 1}")
        return cls.from_tuples(n, arity, tuples)


# ---------------------------------------------------------------------------
# the coordinate-overwrite combinator and its family
# ---------------------------------------------------------------------------

def mix(a: Sequence[int], b: Sequence[int], coords: Iterable[int]) -> tuple[int, ...]:
    """The tuple equal to b on the given (0-based) coordinates and a elsewhere."""
    if len(a) != len(b):
        raise ValueError("tuples must have the same arity")
    out = list(a)
    for i in coords:
        out[i] = b[i]
    return tuple(out)


#: Most tuples in one generator block: `mix_family` yields its masks in
#: blocks of TUPLE_BLOCK = 2**_LOW_BITS, each one overwrite table of the
#: low bits, built once per call, plus a row holding the constant high
#: bits, and `subpower` cuts runs of single tuples into blocks of at most
#: TUPLE_BLOCK, the budget checked after each.
TUPLE_BLOCK = 1 << 12
_LOW_BITS = TUPLE_BLOCK.bit_length() - 1


def mix_family(a: Sequence[int], b: Sequence[int],
               prefix: Sequence[int] = ()) -> Iterator[np.ndarray]:
    """Deduplicated stream of prefix + mix(a, b, I) over all nonempty I.

    There are 2**k - 1 subsets, so the family is streamed rather than
    materialized, as 2-D arrays of at most TUPLE_BLOCK rows each in the
    smallest unsigned dtype that holds every entry (uint8 below 256; int64
    when an entry is negative).
    Duplicates arise exactly from coordinates where a and b agree; the
    stream enumerates only the distinct results, in the order of their
    first appearance when I runs through the nonzero bitmasks in
    increasing order (bit i = coordinate i).
    """
    if len(a) != len(b):
        raise ValueError("tuples must have the same arity")
    if not len(a):
        return
    p = len(prefix)
    rows = (tuple(prefix) + tuple(a), tuple(prefix) + tuple(b))
    lo, hi = min(map(min, rows)), max(map(max, rows))
    dtype = np.min_scalar_type(hi) if lo >= 0 else np.int64
    base, other = np.array(rows, dtype=dtype)
    diff = [i for i in range(p, len(base)) if rows[0][i] != rows[1][i]]
    same = next((i for i in range(p, len(base)) if rows[0][i] == rows[1][i]), None)
    # a itself first appears at the mask of the lowest coordinate where
    # a == b, right before the mask 2**t (t = differing coordinates below)
    a_pos = None if same is None else 1 << bisect_left(diff, same)
    low, high = diff[:_LOW_BITS], diff[_LOW_BITS:]
    # where(bit, b, a) as a + bit * (b - a), exact in wrapping integers:
    # row t of the table holds the bits of t in the low columns, times b - a
    table = np.zeros((1 << len(low), len(base)), dtype=dtype)
    table[:, low] = np.arange(len(table))[:, None] >> np.arange(len(low)) & 1
    table *= other - base
    for h in range(1 << len(high)):
        # the high coordinates that the masks h << 12 .. (h << 12) + 4095 overwrite
        row = base.copy()
        row[high] = np.where(h >> np.arange(len(high)) & 1, other[high], base[high])
        block = table[h == 0:] + row  # the first block skips mask 0
        if not h and a_pos is not None and a_pos <= len(table):
            block = np.insert(block, a_pos - 1, base, axis=0)
        yield block
        if h and a_pos == (h + 1) << _LOW_BITS:
            yield base[None].copy()


# ---------------------------------------------------------------------------
# compatibility and elusiveness
# ---------------------------------------------------------------------------

#: Most argument tuples `is_compatible` scans for one operation.
MAX_CHECKS = 10 ** 7


def is_compatible(algebra: FiniteAlgebra, relation: Relation) -> bool:
    """True iff every basic operation maps the relation into itself.

    Scans all |R|**m argument tuples per operation of arity m, stopping at
    the first chunk with a violation; refuses when the scan would exceed
    MAX_CHECKS.
    """
    if algebra.size != relation.n:
        raise ValueError("relation and algebra live on different universes")
    rows = relation.rows
    for op in algebra.compiled.ops:
        if len(rows) ** op.arity > MAX_CHECKS:
            raise BudgetExceededError(
                f"compatibility scan |R|^{op.arity} = {len(rows) ** op.arity} "
                f"exceeds budget {MAX_CHECKS}"
            )
        if not all(relation.has_rows(values) for values in _product(op, [rows] * op.arity)):
            return False
    return True


#: Largest overwrite family 2**k `is_elusive_witness` checks.
MAX_FAMILY = 1 << 22


def is_elusive_witness(relation: Relation, a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff (a, b) witnesses that the relation is elusive.

    That means every proper overwrite mix(a, b, I), I nonempty, lies in the
    relation while a itself does not.  Refuses arities k with 2**k above
    MAX_FAMILY.
    """
    k = relation.arity
    if len(a) != k or len(b) != k:
        raise ValueError("witness tuples must match the relation arity")
    if (1 << k) > MAX_FAMILY:
        raise BudgetExceededError(f"2^{k} overwrite family exceeds budget {MAX_FAMILY}")
    if any(not 0 <= v < relation.n for v in (*a, *b)):
        raise ValueError("witness entry outside the universe")
    if a in relation:
        return False
    return all(relation.has_rows(rows) for rows in mix_family(a, b))


# ---------------------------------------------------------------------------
# chipped cubes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChippedCubeSpec:
    """Blocks (C, D, multiplicity) describing a product with one corner removed.

    The relation is prod_i D_i^{n_i} minus prod_i (D_i \\ C_i)^{n_i}; sets
    are element bitmasks and each block needs {} != C < D.
    """

    blocks: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        for c_mask, d_mask, mult in self.blocks:
            if c_mask == 0 or c_mask & ~d_mask or c_mask == d_mask:
                raise ValueError("each block needs nonempty C strictly below D")
            if mult < 1:
                raise ValueError("block multiplicity must be at least 1")

    @property
    def arity(self) -> int:
        return sum(m for _, _, m in self.blocks)

    def to_json(self) -> dict:
        return {
            "blocks": [
                {"C": mask_elements(c), "D": mask_elements(d), "mult": m}
                for c, d, m in self.blocks
            ]
        }

    @classmethod
    def from_json(cls, obj) -> "ChippedCubeSpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
            raise InputError("chipped-cube JSON must be an object with a blocks list")
        blocks = []
        for i, bj in enumerate(obj["blocks"]):
            try:
                c, d, mult = bj["C"], bj["D"], bj["mult"]
            except (KeyError, TypeError) as exc:
                raise InputError(f"blocks[{i}]: {exc}") from exc
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise InputError(f"blocks[{i}].mult: not an integer >= 1")
            blocks.append((mask_from_json(c, f"blocks[{i}].C"),
                           mask_from_json(d, f"blocks[{i}].D"), mult))
        try:
            return cls(tuple(blocks))
        except ValueError as exc:
            raise InputError(str(exc)) from exc


#: Largest product `chipped_cube` materializes.
MAX_TUPLES = 10 ** 7


def chipped_cube(spec: ChippedCubeSpec, n: int) -> Relation:
    """Materialize a chipped cube as a relation over {0..n-1}; refuses
    products of more than MAX_TUPLES tuples."""
    domains: list[list[int]] = []
    corner: list[set[int]] = []
    for c_mask, d_mask, mult in spec.blocks:
        if d_mask & ~((1 << n) - 1):
            raise ValueError("block D reaches outside the universe")
        d_elems = mask_elements(d_mask)
        gap = set(mask_elements(d_mask & ~c_mask))
        for _ in range(mult):
            domains.append(d_elems)
            corner.append(gap)
    total = 1
    for dom in domains:
        total *= len(dom)
    if total > MAX_TUPLES:
        raise BudgetExceededError(f"chipped cube of {total} tuples exceeds budget {MAX_TUPLES}")
    tuples = [
        t for t in product(*domains)
        if not all(v in corner[i] for i, v in enumerate(t))
    ]
    return Relation.from_tuples(n, len(domains), tuples)
