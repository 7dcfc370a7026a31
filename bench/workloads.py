"""The four seeded decision workloads and their reference verdicts.

Each workload turns a seed into a fixed list of decisions.  A decision is
one call sequence into cubeterm (the part that is timed) plus an expected
outcome taken from theory or from an independent oracle, never from the
path under test.  References are computed by `attach_references`, outside
every timed section; the blocker oracle is the benchmark's own scan of the
operation tables (`has_blocker_bruteforce`), not cubeterm's.

The decisions call cubeterm through module attributes (`decide.check_nu`,
`blockers.find_blocker`, ...) so that the traced run can wrap those names
where callers look them up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path
from typing import Any, Callable, Optional

from cubeterm import algebra, blockers, cli, decide, fixtures, relations
from cubeterm.algebra import FiniteAlgebra, OperationTable

# Binary-only two-element algebras are checked at this dimension instead of
# their general bound 16.  Their verdict is the same at every d >= 3 (the
# only binary-only two-element algebras without a blocker are lattices,
# which have a majority term), and the cost of a saturating negative grows
# 1.5 to 2 times per extra dimension (measured at d = 12 to 14), so d = 16
# would leave room for few decisions in a run.
TWO_ELEMENT_BINARY_DIM = 13

MEET = (0, 0, 0, 1)
JOIN = (0, 1, 1, 1)


@dataclass
class Decision:
    """One timed decision and its reference.

    `run` performs the decision and returns its outcome; `reference`
    computes the expected outcome, which `attach_references` stores in
    `expected`; `check` compares the two (and may inspect certificates).
    `verdict` labels an outcome for the verdict mix.
    """

    name: str
    run: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any], bool] = lambda got, want: got == want
    verdict: Callable[[Any], str] = str
    expected: Any = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# input constructions
# ---------------------------------------------------------------------------

def relabel(alg: FiniteAlgebra, perm: list[int]) -> FiniteAlgebra:
    """The isomorphic copy of an algebra under the element bijection perm."""
    n = alg.size
    ops = []
    for op in alg.operations:
        table = [0] * len(op.table)
        for idx, args in enumerate(product(range(n), repeat=op.arity)):
            new = 0
            for a in args:
                new = new * n + perm[a]
            table[new] = perm[op.table[idx]]
        ops.append(OperationTable(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(n, tuple(ops), name=alg.name)


def random_copy(alg: FiniteAlgebra, rng: random.Random) -> FiniteAlgebra:
    perm = list(range(alg.size))
    rng.shuffle(perm)
    return relabel(alg, perm)


def random_idempotent(rng: random.Random, n: int, arities: list[int]) -> FiniteAlgebra:
    """Random tables with the diagonal pinned to f(a, ..., a) = a."""
    ops = []
    for i, m in enumerate(arities):
        table = [rng.randrange(n) for _ in range(n ** m)]
        step = sum(n ** j for j in range(m))
        for a in range(n):
            table[a * step] = a
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    return FiniteAlgebra(n, tuple(ops))


def planted_blocker(rng: random.Random, n: int, arities: list[int],
                    c_size: int) -> tuple[FiniteAlgebra, int]:
    """Random idempotent algebra with (C, universe) a blocker by construction.

    Every operation gets one absorbing coordinate j: whenever its argument
    at j lies in C the value is drawn from C.  That makes C a subuniverse
    and (C, A) a blocker; all other values are uniform.
    """
    # C holds element 0, the first start element find_blocker tries, so the
    # search cost does not hinge on where C landed
    c_elems = [0] + rng.sample(range(1, n), c_size - 1)
    c_set = set(c_elems)
    ops = []
    for i, m in enumerate(arities):
        j = rng.randrange(m)
        table = []
        for args in product(range(n), repeat=m):
            if all(a == args[0] for a in args):
                table.append(args[0])
            elif args[j] in c_set:
                table.append(rng.choice(c_elems))
            else:
                table.append(rng.randrange(n))
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    return FiniteAlgebra(n, tuple(ops)), algebra.mask_of(c_elems)


def _value(op: OperationTable, n: int, args) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return op.table[idx]


def _closed(alg: FiniteAlgebra, elems: list[int]) -> bool:
    """Is the set of elems closed under every operation, by the tables?"""
    s = set(elems)
    return all(_value(op, alg.size, args) in s
               for op in alg.operations for args in product(elems, repeat=op.arity))


def _absorbs(alg: FiniteAlgebra, c: list[int], d: list[int]) -> bool:
    """Does every operation have a coordinate j with f(D,..,C@j,..,D) in C?"""
    c_set = set(c)
    for op in alg.operations:
        for j in range(op.arity):
            doms = [d] * op.arity
            doms[j] = c
            if all(_value(op, alg.size, args) in c_set for args in product(*doms)):
                break
        else:
            return False
    return True


def _elements(mask: int, n: int) -> list[int]:
    return [e for e in range(n) if mask >> e & 1]


def is_blocker_bruteforce(alg: FiniteAlgebra, c_mask: int, d_mask: int) -> bool:
    """Independent check of the blocker definition, straight from the tables."""
    c, d = _elements(c_mask, alg.size), _elements(d_mask, alg.size)
    if not c or c_mask == d_mask or c_mask & ~d_mask:
        return False
    return _closed(alg, c) and _closed(alg, d) and _absorbs(alg, c, d)


_HAS_BLOCKER: dict = {}


def has_blocker_bruteforce(alg: FiniteAlgebra) -> bool:
    """Oracle: does any pair of subuniverses C < D form a blocker?

    Finds the subuniverses by testing every nonempty subset for closure
    under the tables, so it shares no code with cubeterm's blocker search.  Exponential in the universe size.  Answers are memoised by
    the tables: the stratified draws of blocker-certs ask once when they
    build references and again in every timed rebuild of the same inputs.
    """
    key = (alg.size, tuple(op.table for op in alg.operations))
    if key not in _HAS_BLOCKER:
        n = alg.size
        subs = [_elements(m, n) for m in range(1, 1 << n)]
        subs = [s for s in subs if _closed(alg, s)]
        _HAS_BLOCKER[key] = any(
            len(c) < len(d) and set(c) <= set(d) and _absorbs(alg, c, d)
            for d in subs for c in subs)
    return _HAS_BLOCKER[key]


MAX_DRAWS = 2000


def counted_draws(left: dict, what: str):
    """Yield until every quota in left is filled; raise after MAX_DRAWS."""
    for _ in range(MAX_DRAWS):
        if not any(left.values()):
            return
        yield
    if any(left.values()):
        raise RuntimeError(f"{what}: quotas {left} unfilled after {MAX_DRAWS} draws")


# ---------------------------------------------------------------------------
# two-element-bound
# ---------------------------------------------------------------------------

def _binary_class(alg: FiniteAlgebra) -> str:
    kinds = {op.table for op in alg.operations} & {MEET, JOIN}
    if kinds == {MEET}:
        return "semilattice_meet"
    if kinds == {JOIN}:
        return "semilattice_join"
    if kinds == {MEET, JOIN}:
        first = alg.operations[0].table
        return "lattice_meet_join" if first == MEET else "lattice_join_meet"
    return "projections"


# The few huge closures: binary-only draws of the criterion-4 mix, checked
# at the binary dimension, in the same count on every seed.  The two
# orders of a lattice's operations are separate classes: the closure with
# join first takes about 1.3 times as long.
BINARY_QUOTA = {"semilattice_meet": 1, "semilattice_join": 1,
                "lattice_meet_join": 1, "lattice_join_meet": 1}


def two_element_bound(seed: int, workdir: Path) -> list[Decision]:
    rng = random.Random(seed)
    picked = []
    left = dict(BINARY_QUOTA)
    for _ in counted_draws(left, "two-element binary"):
        alg = random_idempotent(rng, 2, [2] * rng.choice([1, 2]))
        cls = _binary_class(alg)
        if left.get(cls, 0) > 0:
            left[cls] -= 1
            picked.append((cls, alg, TWO_ELEMENT_BINARY_DIM))
    picked.sort(key=lambda p: list(BINARY_QUOTA).index(p[0]))
    # The many small ones, checked at d = 3: every idempotent ternary table
    # on {0,1}, alone and next to meet or join, each under a seeded
    # relabelling.  Random draws of them would leave the median latency to
    # chance: single algebras differ in cost by a factor of two or more.
    for free in product((0, 1), repeat=6):
        ternary = OperationTable("t", 3, (0,) + free + (1,))
        for extra, label in (((), "t"), ((OperationTable("meet", 2, MEET),), "t+meet"),
                             ((OperationTable("join", 2, JOIN),), "t+join")):
            base = FiniteAlgebra(2, (ternary,) + extra)
            picked.append((label, random_copy(base, rng), 3))
    out = []
    for i, (label, alg, d) in enumerate(picked):

        def run(alg=alg, d=d):
            b = blockers.find_blocker(alg)
            return b, decide.check_cube_dim(alg, d)

        out.append(Decision(
            name=f"{i:03d}:{label}:d{d}",
            run=run,
            reference=lambda alg=alg: not has_blocker_bruteforce(alg),
            check=lambda got, has: (got[0] is None) == has and got[1] == has,
            verdict=lambda got: decide.HAS_CUBE if got[1] else decide.NO_CUBE,
        ))
    return out


# ---------------------------------------------------------------------------
# tight-pointwise
# ---------------------------------------------------------------------------

# Three-element tight examples, (arities, check N too).  They run under all
# six labellings of {0,1,2} in a seeded order, so every seed sees the same
# multiset of inputs: the cost of a check moves with the labelling (the
# N - 1 checks stop at the first failing pattern, whose place in the
# pattern order depends on it), and the latency percentiles land on these
# checks.  tight3[3,2] and tight3[4] at their N = 4 take 0.4 s and 8 s, so
# only their N - 1 checks run.
TIGHT3_CHECKS = (((3,), True), ((2, 2), True), ((2, 2, 2), True),
                 ((2, 2, 2, 2), True), ((2, 2, 2, 2, 2), True),
                 ((3, 2), False), ((4,), False))
# Four-element tight examples, (arities, relabelled copies checked at N and
# N - 1).  The N - 1 checks on tight4[2,2,2] and tight4[3,2] keep the
# construction's labels instead (1 to 200 ms under other labellings).
# tight4[3,2] at its N = 4 (1365 pattern queries, about 6 s) would fill a
# quarter of a run on its own; quasigroup5 at d = 3 (1540 queries) carries
# the many-small-queries load instead.
TIGHT4_CHECKS = (((2, 2), 2), ((2, 2, 2), 2))
FIXED_LABEL_NEGATIVES = ((2, 2, 2), (3, 2))
# Larger tight examples with N = 3, (n, arities, relabelled copies) checked
# at N - 1 = 2 only (their N checks take 0.3 to 1.4 s).  They are the
# cheapest decisions of the list and put its median into the middle of the
# tight3[2,2] group, not at its edge.
MALTSEV_NEGATIVES = ((4, (3,), 2), (5, (2, 2), 2), (5, (3,), 2))
# quasigroup3 under all six labellings at these d
QUASIGROUP3_DIMS = (2, 3, 4)
# (order, d, relabelled copies)
QUASIGROUP_CHECKS = ((5, 2, 2), (7, 2, 2), (5, 3, 1))


def tight_pointwise(seed: int, workdir: Path) -> list[Decision]:
    rng = random.Random(seed)
    out = []

    def add(alg, d, expect):
        out.append(Decision(
            name=f"{len(out):03d}:{alg.name}:d{d}",
            run=lambda: decide.check_cube_dim(alg, d),
            reference=lambda: expect,
        ))

    def all_labellings(base):
        algs = [relabel(base, list(perm)) for perm in permutations(range(base.size))]
        rng.shuffle(algs)
        return algs

    # construction: a cube term of dimension exactly N
    for arities in FIXED_LABEL_NEGATIVES:
        params = fixtures.TightExampleParams(4, arities)
        add(fixtures.tight_example(params), params.N - 1, False)
    for arities, at_n in TIGHT3_CHECKS:
        params = fixtures.TightExampleParams(3, arities)
        for alg in all_labellings(fixtures.tight_example(params)):
            if at_n:
                add(alg, params.N, True)
            add(alg, params.N - 1, False)
    for arities, copies in TIGHT4_CHECKS:
        params = fixtures.TightExampleParams(4, arities)
        base = fixtures.tight_example(params)
        for _ in range(copies):
            alg = random_copy(base, rng)
            add(alg, params.N, True)
            if arities not in FIXED_LABEL_NEGATIVES:
                add(alg, params.N - 1, False)
    for n, arities, copies in MALTSEV_NEGATIVES:
        params = fixtures.TightExampleParams(n, arities)
        base = fixtures.tight_example(params)
        for _ in range(copies):
            add(random_copy(base, rng), params.N - 1, False)
    # x*y = (x+y)/2 mod n has the Maltsev term x/y*z: every d >= 2 passes
    for alg in all_labellings(fixtures.idempotent_quasigroup(3)):
        for d in QUASIGROUP3_DIMS:
            add(alg, d, True)
    for n, d, copies in QUASIGROUP_CHECKS:
        for _ in range(copies):
            add(random_copy(fixtures.idempotent_quasigroup(n), rng), d, True)
    return out


# ---------------------------------------------------------------------------
# general-stacked
# ---------------------------------------------------------------------------

CONSTANT3_CAP = 18


# Stacked checks and their references from theory.  Lattices have a
# majority term, hence near-unanimity terms of every arity >= 3 and cube
# and edge terms of every dimension >= 3, but no Maltsev term (dimension
# 2: they are not congruence permutable).  nand is functionally complete:
# every term exists.  The semilattice has a blocker (its absorbing element
# alone absorbs {0,1}), so no cube, edge or near-unanimity term.  Idempotent quasigroups are
# Maltsev (cube and edge terms of every dimension >= 2) and generate
# non-distributive varieties (no near-unanimity term).
LATTICE_RANGES = (("check_nu", range(3, 30, 2)), ("check_edge_dim", range(2, 13, 2)),
                  ("check_cube_dim", range(2, 7)))
NAND_RANGES = (("check_nu", range(13, 30, 4)), ("check_edge_dim", range(2, 10, 2)),
               ("check_cube_dim", range(2, 8)))
SEMILATTICE_RANGES = (("check_nu", range(3, 12, 2)), ("check_edge_dim", range(2, 12, 2)),
                      ("check_cube_dim", range(2, 9)))
QUASIGROUP3_RANGES = (("check_nu", range(3, 7)), ("check_edge_dim", range(2, 14)),
                      ("check_cube_dim", range(2, 7)))
QUASIGROUP5_RANGES = (("check_nu", range(3, 5)), ("check_edge_dim", range(2, 6)),
                      ("check_cube_dim", range(2, 4)))


def lattice_verdict(check: str, k: int) -> bool:
    return check == "check_nu" or k >= 3


def maltsev_verdict(check: str, k: int) -> bool:
    return check != "check_nu"


def _general_check(got: decide.CubeDecision, want: tuple) -> bool:
    verdict, bound, pair = want
    return (got.verdict, got.dimension_bound, got.failing_pair) == (verdict, bound, pair)


def general_stacked(seed: int, workdir: Path) -> list[Decision]:
    rng = random.Random(seed)
    const0 = FiniteAlgebra(2, (OperationTable("c0", 1, (0, 0)),), name="const0")
    neg2 = FiniteAlgebra(2, (OperationTable("neg", 1, (1, 0)),), name="neg2")
    out = []
    # Every value pair fails for unary constant and negation clones (their
    # closures never reach a target carrying the prefix 0..n-1 next to a
    # non-generator), so the first pair tried, (0, 1), is the failing pair.
    for base, cap, want in (
        (fixtures.nand2(), None, (decide.HAS_CUBE, 16, None)),
        (const0, None, (decide.NO_CUBE, 8, (0, 1))),
        (neg2, None, (decide.NO_CUBE, 8, (0, 1))),
        (fixtures.constant3(), CONSTANT3_CAP, (decide.UNDECIDED, CONSTANT3_CAP, (0, 1))),
    ):
        alg = random_copy(base, rng)
        out.append(Decision(
            name=f"{base.name}:general" + (f":cap{cap}" if cap else ""),
            run=lambda alg=alg, cap=cap: decide.decide_cube_general(alg, cap),
            reference=lambda want=want: want,
            check=_general_check,
            verdict=lambda got: got.verdict,
        ))
    # Fixed-dimension stacked checks, one membership query each, over all
    # three code-space classes: the row width is K = d*n*(n-1) + n, so on
    # {0,1} K <= 26 is dense and K <= 61 int64; on three elements K <= 16 is
    # dense and K <= 39 int64; everything on five elements is beyond int64.
    # The {0,1} algebras run under both labellings, in a seeded order: their
    # cost moves with the labelling, and with both every seed sees the same.
    stacked = []
    for base, ranges, verdicts in (
        (fixtures.lattice2(), LATTICE_RANGES, lattice_verdict),
        (fixtures.nand2(), NAND_RANGES, lambda check, k: True),
        (fixtures.semilattice2(), SEMILATTICE_RANGES, lambda check, k: False),
    ):
        algs = [base, relabel(base, [1, 0])]
        rng.shuffle(algs)
        stacked += [(alg, ranges, verdicts) for alg in algs]
    for base, ranges in ((fixtures.idempotent_quasigroup(3), QUASIGROUP3_RANGES),
                         (fixtures.idempotent_quasigroup(5), QUASIGROUP5_RANGES)):
        stacked.append((random_copy(base, rng), ranges, maltsev_verdict))
    for alg, ranges, verdicts in stacked:
        for check, ks in ranges:
            for k in ks:
                out.append(Decision(
                    name=f"{len(out):03d}:{alg.name}:{check}:{k}",
                    run=lambda check=check, alg=alg, k=k: getattr(decide, check)(
                        alg, k, **({"method": "stacked"} if check == "check_cube_dim" else {})),
                    reference=lambda want=verdicts(check, k): want,
                ))
    return out


# ---------------------------------------------------------------------------
# blocker-certs
# ---------------------------------------------------------------------------

# The six copies of order 13 (about 28 ms each, whatever the labelling) sit
# next to the ternary random draws (about 27 ms) just below the tail rank,
# so the tail lands in a group of like decisions and not on one random
# draw.
QUASIGROUP_ORDERS = (13,) * 6 + (15, 17, 19, 21, 23, 25)
# (n, arity, draws with a blocker, draws without)
RANDOM_DRAWS = ((10, 2, 20, 60), (8, 3, 0, 5))
CHIPPED_ARITY = 2


@dataclass
class BlockerOutcome:
    blocker: Optional[blockers.Blocker]
    verified: Optional[bool]
    compatible: Optional[bool]


def _certify(alg: FiniteAlgebra) -> BlockerOutcome:
    b = blockers.find_blocker(alg)
    if b is None:
        return BlockerOutcome(None, None, None)
    ok = blockers.verify_blocker(alg, b.C, b.D)
    spec = relations.ChippedCubeSpec(((b.C, b.D, CHIPPED_ARITY),))
    rel = relations.chipped_cube(spec, alg.size)
    return BlockerOutcome(b, ok, relations.is_compatible(alg, rel))


def _blocker_check(alg: FiniteAlgebra):
    def check(got: BlockerOutcome, has_blocker: bool) -> bool:
        if got.blocker is None:
            return not has_blocker
        return (has_blocker and got.verified is True and got.compatible is True
                and is_blocker_bruteforce(alg, got.blocker.C, got.blocker.D))
    return check


def _cli_decide(path: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(["decide-cube", path])
    if rc != 0:
        return f"exit {rc}"
    return json.loads(out.getvalue())["payload"]["verdict"]


def blocker_certs(seed: int, workdir: Path) -> list[Decision]:
    rng = random.Random(seed)
    cases = []  # (label, algebra, reference thunk)

    # small random algebras: the benchmark's own subuniverse scan is the
    # oracle; the draw keeps a fixed blocker / no-blocker split per seed
    for n, arity, with_b, without_b in RANDOM_DRAWS:
        left = {True: with_b, False: without_b}
        for _ in counted_draws(left, f"random{n}x{arity}"):
            alg = random_idempotent(rng, n, [arity])
            has = has_blocker_bruteforce(alg)
            if left[has] > 0:
                left[has] -= 1
                cases.append((f"random{n}x{arity}", alg,
                              lambda alg=alg: has_blocker_bruteforce(alg)))
    # larger ones carry a blocker by construction; the reference re-checks
    # the planted pair from the tables
    for n, arity, count in ((20, 2, 3), (30, 2, 2), (12, 3, 2)):
        for _ in range(count):
            alg, c_mask = planted_blocker(rng, n, [arity], c_size=2)
            cases.append((f"planted{n}x{arity}", alg,
                          lambda alg=alg, c_mask=c_mask:
                          is_blocker_bruteforce(alg, c_mask, algebra.full_mask(alg.size))))
    # idempotent quasigroups have a Maltsev term, so no blocker
    for n in QUASIGROUP_ORDERS:
        alg = random_copy(fixtures.idempotent_quasigroup(n), rng)
        cases.append((f"quasigroup{n}", alg, lambda: False))

    out = []
    for i, (label, alg, ref) in enumerate(cases):
        out.append(Decision(
            name=f"{i:02d}:{label}",
            run=lambda alg=alg: _certify(alg),
            reference=ref,
            check=_blocker_check(alg),
            verdict=lambda got: "blocker" if got.blocker else "no_blocker",
        ))
    # in-process CLI decisions on one input of each kind
    workdir.mkdir(parents=True, exist_ok=True)
    for label in ("random10x2", "planted20x2", "quasigroup15"):
        i, (_, alg, ref) = next((i, c) for i, c in enumerate(cases) if c[0] == label)
        path = workdir / f"blocker-certs-{i:02d}.json"
        path.write_text(json.dumps(alg.to_json()))
        out.append(Decision(
            name=f"cli:{label}",
            run=lambda path=str(path): _cli_decide(path),
            reference=lambda ref=ref: decide.NO_CUBE if ref() else decide.HAS_CUBE,
        ))
    return out


BUILDERS = {
    "two-element-bound": two_element_bound,
    "tight-pointwise": tight_pointwise,
    "general-stacked": general_stacked,
    "blocker-certs": blocker_certs,
}


def attach_references(decisions: list[Decision]) -> None:
    for dec in decisions:
        dec.expected = dec.reference()
