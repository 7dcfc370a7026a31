"""Term-existence decisions: cube, edge and near-unanimity terms.

Fixed-dimension checks reduce to one subpower membership query.  A d-cube
term is a (2**d - 1)-ary term t with t(mix(a, b, I) : I nonempty) = a for
all a, b in A**d; a d-edge term is the (d + 1)-ary term e asked for by the
columns {0, 1}, {0}, {1}, ..., {d - 1} of the same system.  Such systems
split coordinatewise: they constrain the term only through triples
(i, alpha, beta) where i is a coordinate and (alpha, beta) the value pair
at it.  Stacking one row per triple turns "some term satisfies every
instance" into "the target column lies in the subpower generated by the
stacked generator columns", decided by the closure engine.  Diagonal pairs
(alpha, alpha) contribute the idempotence rows; they are constant across
all columns, so one row per value suffices.

The cube check asks the d-edge question, so no fixed-dimension query has
more than d + 1 generator columns.  The edge columns are among the cube
columns, so an edge term is a cube term, and a variety with a d-cube term
has a d-edge term (Berman, Idziak, Markovic, McKenzie, Valeriote and
Willard, "Varieties with few subalgebras of powers", Trans. AMS 2010).
For idempotent algebras the check runs per value-pair pattern (the prefix
trick is unnecessary there), which keeps each query inside A**d, one
pattern per multiset of pairs.  The verdict is still the cube verdict: if
every pattern passes with the edge columns, it passes with the cube
columns, which are closed under permuting coordinates, so a d-cube term
exists, and its d-edge term passes every pattern in any order; only the
first failing pattern may differ.

Only one pattern per edge orbit is asked.  An automorphism sigma
(`FiniteAlgebra.automorphisms`) maps the query of a pattern, columns and
target, onto the query of the pairs (sigma(a_i), sigma(b_i)) at the same
coordinates, and a permutation of the coordinates that keeps {0, 1} as a
set maps the edge columns onto themselves; both keep the answer, and map
one closure onto the other round by round.  A pattern is skipped when
such a pair of maps sends it onto a smaller sorted pattern
(`_orbit_firsts`), so every skipped pattern repeats the query of an
earlier pattern that is asked.  The answers asked, in order, are those of
every pattern with the repeats left out: the verdict and the first
failing pattern are unchanged, and a batched closure, whose member cap is
checked after each round, is cut off at the same first pattern, so its
budget error names it.  A per-pattern query checks its budget inside a
round and a time cap depends on the work done before, so there the
pattern cut off first, and whether a budgeted check raises at all, can
differ from asking every pattern.  The group is found once per algebra
and kept; an algebra with the identity alone, or whose group's images of
one block of patterns would outgrow one kernel chunk, asks every pattern.

The pattern queries are many and small (closures of tens of members), so
with a code space n**d of at most `POINTWISE_BATCH_SPACE` they close
together: blocks of patterns, in pattern order, go to one batched closure
over the codes of A**d (`algebra.close_codes`, on bit codes on two
elements), and a negative check stops at the first block that holds a
failing pattern.  Two elements batch only while a saturating pattern's
whole argument product, (2**d)**m for m the largest arity, fits one batch
of `POINTWISE_BATCH_CELLS` (d <= 6 for binary operations, 4 for ternary,
3 for 4-ary): a batch closes every pattern of its block, and beyond that
its saturating closures cost more than the engine's bit mode spends on
the patterns up to the first failing one.  Every other space asks one
`membership` query per pattern, the pattern's d + 1 columns and target.
Beyond `POINTWISE_BATCH_SPACE` on two elements with arities at most 2, it
closes orbits: a permutation of the coordinates 2..d-1 that keeps their
value pairs maps the edge columns onto themselves, so the query passes as
`blocks` the runs of equal value pairs among those coordinates, which are
consecutive in a sorted pattern.  Either way the answer is that of the
first pattern asked that fails or is cut off by the budget.

The k-ary near-unanimity check asks the stacked query of the k columns
of eye(k).  Having an NU term is monotone in the arity (t(x_1, x_2, x_3)
is a k-ary NU term for every ternary one t), so for k > 3 it asks the
arity-3 query first while that query's saturating argument product fits
one `KERNEL_CELLS` chunk (in effect two elements and arities at most 2),
and a pass answers True; a failing or cut-off arity-3 query leaves the
answer to the arity-k query.  `decide_nu` asks its arity max(3, d0) alone:
for d0 > 3 an arity-3 NU term would be a 3-cube term.

The general decision asks, per value pair (a, b) and dimension d, whether
prefix + a**d lies in the subpower generated by the prefixed proper
overwrites of (a**d, b**d).  Permuting the last d coordinates maps that
generator family onto itself, so the query can be asked over S_d-orbits
(`membership` with one block of d): one tuple per generator orbit, the
prefix then b at the first k coordinates for k = 1..d, in place of
2**d - 1 tuples.  Each query picks its route by that family size alone:
tuples (`membership` over `relations.mix_family`) while the 2**d - 1
overwrites fit one generator block (`relations.TUPLE_BLOCK`, so d <= 12),
where the margin tables cost more than the tuples they stand for, and
orbits from d = 13 on, whatever the operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, groupby, islice
from typing import Optional

import numpy as np

from .algebra import KERNEL_CELLS, FiniteAlgebra, close_codes, full_mask, is_idempotent
from .blockers import Blocker, find_blocker
from .errors import BudgetExceededError
from .relations import TUPLE_BLOCK, mix_family
from .subpower import Budget, default_budget, membership

HAS_CUBE = "has_cube_term"
NO_CUBE = "no_cube_term"
UNDECIDED = "undecided"


@dataclass
class CubeDecision:
    """Three-valued verdict with certificate or dimension information.

    For has_cube_term, dimension_bound is a proven upper bound on the
    minimal cube dimension and witness_dimension the level at which the
    affirmative check passed.  For no_cube_term the certificate is either
    a blocker (idempotent path; blocks every dimension, bound 0) or a
    failing value pair at dimension_bound = the full general bound.
    Undecided carries the cap that was reached.
    """

    verdict: str
    dimension_bound: int
    witness_dimension: Optional[int] = None
    blocker: Optional[Blocker] = None
    failing_pair: Optional[tuple[int, int]] = None
    note: Optional[str] = None

    def to_json(self) -> dict:
        obj: dict = {"verdict": self.verdict, "dimension_bound": self.dimension_bound}
        if self.witness_dimension is not None:
            obj["witness_dimension"] = self.witness_dimension
        if self.blocker is not None:
            obj["blocker"] = self.blocker.to_json()
        if self.failing_pair is not None:
            obj["failing_pair"] = list(self.failing_pair)
        return obj


@dataclass
class NuDecision:
    """Outcome of the near-unanimity decision."""

    verdict: str  # "has_nu" | "no_nu" | "undecided"
    arity: Optional[int] = None
    note: Optional[str] = None

    def to_json(self) -> dict:
        obj: dict = {"verdict": self.verdict}
        if self.arity is not None:
            obj["arity"] = self.arity
        return obj


# ---------------------------------------------------------------------------
# dimension bounds
# ---------------------------------------------------------------------------

def bound_idempotent_N(algebra: FiniteAlgebra) -> int:
    """1 + sum of (m_i - 1) over the r largest arities, r = min(l, C(n,2)).

    For idempotent algebras (with N > 2 or more than two elements) this
    bounds the minimal cube dimension when a cube term exists at all.
    """
    arities = sorted(algebra.arities, reverse=True)
    r = min(len(arities), math.comb(algebra.size, 2))
    return 1 + sum(m - 1 for m in arities[:r])


def bound_quadratic_linear(algebra: FiniteAlgebra) -> int:
    """1 + (m - 1) * C(n, 2) for m the maximum basic arity (0 without operations)."""
    if algebra.max_arity == 0:
        return 0
    return 1 + (algebra.max_arity - 1) * math.comb(algebra.size, 2)


def bound_general(algebra: FiniteAlgebra) -> int:
    """n**3 * m; sound for arbitrary (not necessarily idempotent) algebras."""
    if algebra.size == 1:
        return 1
    if algebra.max_arity == 0:
        return 0
    return algebra.size ** 3 * algebra.max_arity


def idempotent_bound_applies(algebra: FiniteAlgebra) -> bool:
    """The N bound needs N > 2 or more than two elements."""
    return bound_idempotent_N(algebra) > 2 or algebra.size > 2


# ---------------------------------------------------------------------------
# stacked instances
# ---------------------------------------------------------------------------

def _value_pairs(algebra: FiniteAlgebra) -> np.ndarray:
    """The pairs (a, b) of differing values, in lexicographic order, as a
    (pairs x 2) array in the element dtype."""
    n = algebra.size
    return np.array([(a, b) for a in range(n) for b in range(n) if a != b],
                    dtype=algebra.compiled.dtype)


def _edge_rows(d: int) -> np.ndarray:
    """The d + 1 edge columns as 0/1 rows over d coordinates: {0, 1}, then
    each single coordinate."""
    return np.vstack([np.arange(d) < 2, np.eye(d, dtype=bool)])


def _stacked_query(algebra: FiniteAlgebra, selections: np.ndarray,
                   budget: Budget, what: str) -> bool:
    """Is the target column in the subpower generated by the stacked columns?

    Rows of the stack: one per (coordinate i, value pair (a, b)) with
    a != b, in lexicographic order, then one constant row per universe value
    (the merged diagonal pairs).  Each row of the 0/1 selection array gives
    one generator column: b at the rows of the selected coordinates, a
    elsewhere.  The target column is a at every varying row.
    """
    n = algebra.size
    pairs = _value_pairs(algebra)
    width = selections.shape[1]
    a, b = np.tile(pairs, (width, 1)).T
    coord = np.repeat(np.arange(width), len(pairs))
    consts = np.arange(n, dtype=pairs.dtype)
    columns = np.hstack([np.where(selections[:, coord], b, a),
                         np.broadcast_to(consts, (len(selections), n))])
    ans = membership(algebra, [columns], (*a.tolist(), *range(n)), budget=budget)
    if ans.truncated and not ans.found:
        raise BudgetExceededError(f"{what}: closure budget exhausted before a decision")
    return ans.found


# ---------------------------------------------------------------------------
# fixed-dimension checks
# ---------------------------------------------------------------------------

#: The routing rule of the pointwise check by code space n**d: up to this
#: the patterns close in batches (`close_codes`), on two elements only while
#: (2**d)**max_arity is at most `POINTWISE_BATCH_CELLS`, beyond which one
#: `membership` query per pattern in the engine's bit mode stops sooner;
#: beyond it each pattern is one `membership` query, over orbits (`blocks`)
#: on two elements with arities at most 2, over tuples elsewhere (passing
#: three-element checks at d = 8 and 9 run about 10x slower on orbits).
#: For two elements the value is a choice, not their crossover: a
#: saturating semilattice check is faster on orbits from d = 12 on, a
#: passing lattice one about 4x faster on tuples at every d up to 14.
POINTWISE_BATCH_SPACE = 1 << 12

#: Cells of one batch's (patterns x n**d) generator matrix, and on two
#: elements the most argument tuples, (2**d)**max_arity, of a saturating
#: pattern that still batches.
POINTWISE_BATCH_CELLS = 1 << 13


def _pattern_blocks(algebra: FiniteAlgebra, d: int, rows: int):
    """The patterns of differing value pairs, one per multiset and per edge
    orbit (see `_orbit_firsts`), in `combinations_with_replacement` order,
    as (a, b) arrays of `rows` patterns by d coordinates.

    The patterns are read `rows` at a time, each chunk turned into one
    array of pair indices.  Every pattern is kept when the identity is the
    only automorphism, which drops none (running the filter anyway made the
    median, rigid, check of the tight examples about 7% slower), or when
    the group's images of `rows` patterns would outgrow one `KERNEL_CELLS`
    chunk."""
    pairs = _value_pairs(algebra)
    patterns = combinations_with_replacement(range(len(pairs)), d)
    sigma = algebra.automorphisms[1:].astype(np.intp)  # without the identity
    moved = None
    if 0 < len(sigma) * rows * d <= KERNEL_CELLS:
        a, b = sigma[:, pairs].transpose(2, 0, 1)
        moved = a * (algebra.size - 1) + b - (b > a)  # (group x pairs): each image pair's index
    held = np.empty((0, d), dtype=np.intp)  # fewer than `rows` patterns kept, not yet yielded
    while (chunk := np.fromiter(chain.from_iterable(islice(patterns, rows)),
                                np.intp).reshape(-1, d)).size:
        held = np.concatenate([held, chunk if moved is None else _orbit_firsts(moved, chunk)])
        if len(held) >= rows:
            yield pairs[held[:rows]].transpose(2, 0, 1)
            held = held[rows:]
    if len(held):
        yield pairs[held].transpose(2, 0, 1)


def _orbit_firsts(moved: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The patterns of `at`, sorted rows of indices into the value pairs,
    that come first in their edge orbit under the automorphisms, given as
    `moved`, each one's image of every pair index.

    An automorphism maps a pattern to the pairs (sigma(a_i), sigma(b_i));
    sorting them at coordinates {0, 1} and at 2..d-1 apart permutes
    coordinates onto the same edge columns, so the image asks the same edge
    query.  A pattern is dropped when some image sorted so is a sorted
    pattern smaller than it."""
    images = moved[:, at]  # (group x rows x d)
    images[..., :2].sort(axis=2)
    images[..., 2:].sort(axis=2)
    diff = images - at
    first = np.take_along_axis(diff, np.argmax(diff != 0, axis=2)[..., None], 2)[..., 0]
    # so sorted, an image is a sorted pattern when its second pair is at most its third
    smaller = (first < 0) & (images[..., 1:2] <= images[..., 2:3]).all(axis=2)
    return at[~smaller.any(axis=0)]


def _check_cube_pointwise(algebra: FiniteAlgebra, d: int, budget: Budget) -> bool:
    # Every instance with a repeated coordinate value pair (a_i == b_i)
    # passes trivially (the column selecting coordinate i alone equals the
    # target), so only patterns of genuinely differing pairs remain.  The
    # answer is that of the first pattern asked that fails or is cut off.
    n = algebra.size
    space = n ** d
    arity = max((op.arity for op in algebra.compiled.ops), default=0)
    # two elements batch while a saturating pattern's argument product fits a batch
    batched = space <= POINTWISE_BATCH_SPACE and \
        (n > 2 or space ** arity <= POINTWISE_BATCH_CELLS)
    orbits = space > POINTWISE_BATCH_SPACE and n == 2 and arity <= 2
    edge_rows = _edge_rows(d)
    weights = n ** np.arange(d - 1, -1, -1)
    for a, b in _pattern_blocks(algebra, d, max(1, POINTWISE_BATCH_CELLS // space)):
        columns = np.where(edge_rows, b[:, None], a[:, None])
        if batched:
            gens = np.zeros((len(a), space), dtype=bool)
            gens[np.arange(len(a))[:, None], columns @ weights] = True
            _, found, truncated = close_codes(algebra, d, gens, a @ weights,
                                              max_members=budget.max_members,
                                              max_seconds=budget.max_seconds)
        else:
            found, truncated = [], []
            for r in range(len(a)):
                # over orbits, blocks are the runs of equal pairs among 2..d-1
                runs = groupby(zip(a[r, 2:].tolist(), b[r, 2:].tolist())) if orbits else ()
                ans = membership(algebra, [columns[r]], a[r], budget=budget,
                                 blocks=[len(list(run)) for _, run in runs])
                found.append(ans.found)
                truncated.append(ans.truncated)
                if not ans.found:
                    break
        if not np.all(found):
            r = np.argmin(found)  # the first pattern of the block that did not pass
            if truncated[r]:
                raise BudgetExceededError(
                    f"cube dimension {d}: closure budget exhausted on pattern "
                    f"{tuple(zip(a[r].tolist(), b[r].tolist()))}")
            return False
    return True


def check_cube_dim(algebra: FiniteAlgebra, d: int, *,
                   budget: Optional[Budget] = None, method: str = "auto") -> bool:
    """Does the algebra have a cube term of dimension d?

    Asks for a d-edge term instead, which exists iff a d-cube term does
    (see the module docstring), with d + 1 generator columns for 2**d - 1.
    At d = 1 a cube term is a unary t with t(b) = a for all a, b: none
    exists on two or more elements.

    method: "stacked" runs the single stacked membership query, "pointwise"
    (idempotent algebras only) one small query per value-pair pattern,
    "auto" picks pointwise for idempotent input.  The pointwise queries
    close in batched blocks, per pattern or per pattern over orbits as
    `POINTWISE_BATCH_SPACE`, `POINTWISE_BATCH_CELLS` and the algebra
    decide (see the module docstring).  In a batched block
    `budget.max_members` caps each pattern's closure after every round and
    `budget.max_seconds` each block; on an orbit query
    `budget.max_members` caps the stored orbits.
    Only the first pattern of each edge orbit under `algebra.automorphisms`
    is asked, with the same verdict and first failing pattern (see the
    module docstring).  Exceeding the budget raises rather than guessing:
    the check answers False at the first failing pattern asked unless a
    pattern cut off by the budget comes before it.
    """
    if d < 1:
        raise ValueError("cube dimension must be at least 1")
    if method not in ("auto", "pointwise", "stacked"):
        raise ValueError(f"unknown method {method!r}")
    if algebra.size == 1:
        return True
    budget = budget or default_budget()
    if method == "auto":
        method = "pointwise" if is_idempotent(algebra) else "stacked"
    if method == "pointwise" and not is_idempotent(algebra):
        raise ValueError("the pointwise check needs an idempotent algebra")
    if d == 1:
        return False
    if method == "pointwise":
        return _check_cube_pointwise(algebra, d, budget)
    return _stacked_query(algebra, _edge_rows(d), budget, f"cube dimension {d}")


def check_edge_dim(algebra: FiniteAlgebra, d: int, *,
                   budget: Optional[Budget] = None) -> bool:
    """Does the algebra have a (d+1)-ary edge term of dimension d?"""
    if d < 2:
        raise ValueError("edge dimension must be at least 2")
    if algebra.size == 1:
        return True
    budget = budget or default_budget()
    return _stacked_query(algebra, _edge_rows(d), budget, f"edge dimension {d}")


def _nu_query(algebra: FiniteAlgebra, k: int, budget: Budget) -> bool:
    """The stacked query of the k-ary near-unanimity identities."""
    return _stacked_query(algebra, np.eye(k, dtype=bool), budget,
                          f"near-unanimity arity {k}")


def check_nu(algebra: FiniteAlgebra, k: int, *,
             budget: Optional[Budget] = None) -> bool:
    """Does the algebra have a k-ary near-unanimity term?

    For k > 3 it first asks the arity-3 stacked query, when that query's
    whole saturating argument product, (n**width)**m for its row width
    3 * n(n - 1) + n and m the largest arity, fits one `KERNEL_CELLS`
    chunk: two-element algebras with arities at most 2, and algebras with
    no operation beyond projections.  Having an NU term is monotone in the
    arity, t(x_1, x_2, x_3) being a k-ary NU term for every ternary one t,
    so a pass answers True on any input (the constant rows force
    t(c, c, c) = c).  That query runs under the same `budget`; if it fails
    or is cut off it decides nothing, and the arity-k query answers.
    Beyond the bound it is not asked: there it can cost far more than the
    arity-k query it would save (for "at least 5 of 6" on two elements,
    41 ms against 5 ms for the arity-6 query on a 2-core x86 machine).
    """
    if k < 3:
        raise ValueError("near-unanimity arity starts at 3")
    n = algebra.size
    if n == 1:
        return True
    budget = budget or default_budget()
    # the arity-3 query's saturating argument product is n**exponent; capping
    # the exponent, past which n**exponent > KERNEL_CELLS anyway, keeps it small
    exponent = (3 * n * (n - 1) + n) * max((op.arity for op in algebra.compiled.ops), default=0)
    if k > 3 and n ** min(exponent, KERNEL_CELLS.bit_length()) <= KERNEL_CELLS:
        try:
            if _nu_query(algebra, 3, budget):
                return True
        except BudgetExceededError:
            pass  # a cut-off arity-3 query decides nothing
    return _nu_query(algebra, k, budget)


# ---------------------------------------------------------------------------
# full decisions
# ---------------------------------------------------------------------------

def _trivial_decisions(algebra: FiniteAlgebra) -> Optional[CubeDecision]:
    if algebra.size == 1:
        return CubeDecision(HAS_CUBE, dimension_bound=1, witness_dimension=1)
    if not algebra.operations:
        return CubeDecision(
            NO_CUBE, dimension_bound=0,
            blocker=Blocker(1, full_mask(algebra.size)),
            note="no basic operations: the clone is projections only",
        )
    return None


def decide_cube_idempotent(algebra: FiniteAlgebra) -> CubeDecision:
    """Polynomial-time decision for idempotent algebras.

    A blocker found is the certificate that no cube term of any dimension
    exists; no blocker means a cube term exists, with the minimal dimension
    bounded by N (or by the general bound in the two-element N = 2 corner
    where the N bound is not valid).
    """
    if not is_idempotent(algebra):
        raise ValueError("decide_cube_idempotent needs an idempotent algebra")
    trivial = _trivial_decisions(algebra)
    if trivial is not None:
        return trivial
    blocker = find_blocker(algebra)
    if blocker is not None:
        return CubeDecision(NO_CUBE, dimension_bound=0, blocker=blocker)
    if idempotent_bound_applies(algebra):
        bound = min(bound_idempotent_N(algebra), bound_quadratic_linear(algebra))
    else:
        bound = bound_general(algebra)
    return CubeDecision(HAS_CUBE, dimension_bound=bound)


def _check_cap(cap: Optional[int]) -> None:
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")


def _deepening_schedule(cap: int) -> list[int]:
    ds = []
    d = 1
    while d < cap:
        ds.append(d)
        d *= 2
    ds.append(cap)
    return ds


def decide_cube_general(algebra: FiniteAlgebra, cap: Optional[int] = None, *,
                        budget: Optional[Budget] = None) -> CubeDecision:
    """Decision for arbitrary algebras, exponential in the worst case.

    Iterative deepening over d: for each value pair (a, b) test whether the
    tuple (0..n-1) + a**d lies in the subpower generated by the prefixed
    proper overwrites of (a**d, b**d).  If every pair passes at some d, a
    cube term exists (a blocker in the idempotent reduct would make one
    pair fail at every d).  A failing pair at the full bound n**3 * m
    certifies no cube term; a failing pair at a smaller cap only refutes
    dimensions up to the cap, reported as undecided.  Idempotent input
    runs the deepening too (`decide_cube` routes it to the blocker search
    instead).  A cap below 1 is a ValueError.

    From d = 13 on, where the 2**d - 1 tuples outgrow one generator
    block, each query closes S_d-orbits instead of tuples (see the module
    docstring) with the same answer; there `budget.max_members` caps the
    stored orbits.  So constant3 reaches its full bound 27 in milliseconds
    and a binary constant on three elements its bound 54 in seconds.
    """
    _check_cap(cap)
    trivial = _trivial_decisions(algebra)
    if trivial is not None:
        return trivial
    budget = budget or default_budget()
    bound = bound_general(algebra)
    cap = bound if cap is None else min(cap, bound)
    n = algebra.size
    prefix = tuple(range(n))
    failing: Optional[tuple[int, int]] = None
    for d in _deepening_schedule(cap):
        failing = None
        orbits = 2 ** d - 1 > TUPLE_BLOCK  # tuples while the family fits one block
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue  # the target is itself a generator
                if orbits:  # one tuple per generator orbit: b at the first k coordinates
                    reps = np.empty((d, n + d), dtype=np.int64)
                    reps[:, :n] = prefix
                    reps[:, n:] = np.where(np.arange(d) < np.arange(1, d + 1)[:, None], b, a)
                    gens = [reps]
                else:
                    gens = mix_family((a,) * d, (b,) * d, prefix=prefix)
                ans = membership(algebra, gens, prefix + (a,) * d, budget=budget,
                                 blocks=(d,) if orbits else ())
                if ans.truncated and not ans.found:
                    return CubeDecision(
                        UNDECIDED, dimension_bound=d, failing_pair=(a, b),
                        note=f"closure budget exhausted at dimension {d}",
                    )
                if not ans.found:
                    failing = (a, b)
                    break
            if failing:
                break
        if failing is None:
            return CubeDecision(HAS_CUBE, dimension_bound=bound, witness_dimension=d)
    if cap == bound:
        return CubeDecision(NO_CUBE, dimension_bound=bound, failing_pair=failing)
    return CubeDecision(
        UNDECIDED, dimension_bound=cap, failing_pair=failing,
        note=f"no cube term of dimension <= {cap}; full bound {bound} not reached",
    )


def decide_cube(algebra: FiniteAlgebra, cap: Optional[int] = None, *,
                budget: Optional[Budget] = None) -> CubeDecision:
    """Does the algebra have a cube term of any dimension?

    Idempotent input goes to the polynomial `decide_cube_idempotent`,
    everything else to `decide_cube_general`, which alone uses cap and
    budget; both answer the trivial cases first.  A cap below 1 is a
    ValueError.
    """
    _check_cap(cap)
    if is_idempotent(algebra):
        return decide_cube_idempotent(algebra)
    return decide_cube_general(algebra, cap, budget=budget)


def minimal_cube_dimension(algebra: FiniteAlgebra, cap: int, *,
                           budget: Optional[Budget] = None) -> Optional[int]:
    """Smallest d in [2, cap] admitting a d-dimensional cube term.

    Cube term existence is monotone in the dimension (pad with dummy
    variables), so the scan stops at the first success.
    """
    if cap < 2:
        raise ValueError("cap must be at least 2")
    for d in range(2, cap + 1):
        if check_cube_dim(algebra, d, budget=budget):
            return d
    return None


def decide_nu(algebra: FiniteAlgebra, cap: Optional[int] = None, *,
              budget: Optional[Budget] = None) -> NuDecision:
    """Does the algebra have a near-unanimity term of any arity?

    A k-ary near-unanimity term exists iff the algebra generates a
    congruence distributive variety and has a k-dimensional cube term, so
    when any NU term exists its minimal arity equals max(3, minimal cube
    dimension).  Strategy: decide cube existence, find the minimal cube
    dimension d0, then run the direct NU check at max(3, d0).  A cap below
    2 is a ValueError, whatever the answer would be.
    """
    if cap is not None and cap < 2:
        raise ValueError("cap must be at least 2")
    if algebra.size == 1:
        return NuDecision("has_nu", arity=3)
    cube = decide_cube(algebra, cap, budget=budget)
    if cube.verdict == NO_CUBE:
        return NuDecision("no_nu", note="no cube term")
    if cube.verdict == UNDECIDED:
        return NuDecision("undecided", note=cube.note)
    scan_cap = cap if cap is not None else max(2, cube.dimension_bound)
    d0 = minimal_cube_dimension(algebra, scan_cap, budget=budget)
    if d0 is None:
        return NuDecision(
            "undecided",
            note=f"minimal cube dimension not located up to cap {scan_cap}",
        )
    k = max(3, d0)
    # k is the least arity possible, so an arity-3 query first could only fail
    if _nu_query(algebra, k, budget or default_budget()):
        return NuDecision("has_nu", arity=k)
    return NuDecision("no_nu", note=f"minimal cube dimension {d0}, "
                                    f"no near-unanimity term of arity {k}")
