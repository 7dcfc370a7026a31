import random
import signal
from itertools import combinations_with_replacement, islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_automorphisms,
    brute_force_closure,
    random_idempotent_algebra,
    relabel,
    symmetric_idempotent_algebra,
)
from cubeterm import (
    BudgetExceededError,
    FiniteAlgebra,
    InputError,
    OperationTable,
    TightExampleParams,
    apply,
    check_cube_dim,
    enumerate_subuniverses,
    fixture,
    idempotent_quasigroup,
    is_idempotent,
    is_subuniverse,
    mask_elements,
    mask_of,
    sg,
    sg_many,
    tight_example,
    validate,
)
from cubeterm import algebra, decide
from cubeterm.algebra import _code_digits, _frontier, _gathers, _images, _Op, _ragged_product

MEET = OperationTable("meet", 2, (0, 0, 0, 1))


def test_validate_well_formed():
    assert validate(FiniteAlgebra(2, (MEET,))) == []


def test_validate_bad_table_length():
    alg = FiniteAlgebra(2, (OperationTable("f", 2, (0, 0, 0)),))
    problems = validate(alg)
    assert len(problems) == 1 and "3 entries, expected 4" in problems[0]


def test_validate_entry_out_of_range():
    alg = FiniteAlgebra(2, (OperationTable("f", 2, (0, 2, 0, 1)),))
    problems = validate(alg)
    assert len(problems) == 1
    assert "entry 2 at index 1" in problems[0]


def test_validate_bad_arity_and_size():
    assert validate(FiniteAlgebra(0, ()))
    assert validate(FiniteAlgebra(2, (OperationTable("f", 0, ()),)))
    # elements are stored as uint16 at most
    assert not validate(FiniteAlgebra(1 << 16, ()))
    assert validate(FiniteAlgebra((1 << 16) + 1, ()))


def test_apply_meet():
    assert apply(MEET, (1, 1), 2) == 1
    assert apply(MEET, (1, 0), 2) == 0


def test_apply_constant_unary():
    c2 = fixture("constant3").operations[0]
    assert apply(c2, (0,), 3) == 2


def test_apply_errors():
    with pytest.raises(ValueError):
        apply(MEET, (1,), 2)
    with pytest.raises(ValueError):
        apply(MEET, (1, 2), 2)


def test_is_idempotent():
    assert is_idempotent(FiniteAlgebra(2, (MEET,)))
    assert not is_idempotent(fixture("constant3"))
    assert is_idempotent(FiniteAlgebra(2, ()))  # vacuous


def test_sg_meet_singleton():
    assert sg(FiniteAlgebra(2, (MEET,)), [0]) == mask_of([0])


def test_sg_capped_addition():
    # f(x, y) = min(x + y, 2) on {0,1,2}: 1+1=2, then nothing new
    table = tuple(min(x + y, 2) for x in range(3) for y in range(3))
    alg = FiniteAlgebra(3, (OperationTable("addcap", 2, table),))
    assert mask_elements(sg(alg, [1])) == [1, 2]


def test_sg_empty_seed():
    assert sg(FiniteAlgebra(4, ()), []) == 0


def test_sg_matches_brute_force_and_properties():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        alg = random_idempotent_algebra(rng, n, [rng.randint(1, 3)])
        seed = {e for e in range(n) if rng.random() < 0.5}
        closed = set(mask_elements(sg(alg, seed)))
        assert closed == brute_force_closure(alg, seed)
        # extensive, idempotent, closed
        assert seed <= closed
        assert sg(alg, closed) == mask_of(closed)
        assert is_subuniverse(alg, mask_of(closed))
        # monotone
        bigger = seed | {rng.randrange(n)}
        assert sg(alg, seed) & ~sg(alg, bigger) == 0


@st.composite
def algebras_and_seed_batches(draw):
    """An algebra with 1 to 8 elements and one or two operations of arity
    1 to 3 (tables from a drawn Random), plus a batch of seed masks mixing
    empty, singleton, full and arbitrary seeds, with repeats."""
    n = draw(st.integers(1, 8))
    rng = draw(st.randoms(use_true_random=False))
    ops = tuple(OperationTable(f"f{i}", m, tuple(rng.randrange(n) for _ in range(n ** m)))
                for i, m in enumerate(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))))
    full = (1 << n) - 1
    seed = st.one_of(st.just(0), st.just(full), st.integers(0, n - 1).map(lambda e: 1 << e),
                     st.integers(0, full))
    seeds = draw(st.lists(seed, max_size=12))
    return FiniteAlgebra(n, ops), seeds + seeds[:2]


@settings(max_examples=300, deadline=None)
@given(algebras_and_seed_batches())
def test_sg_many_matches_brute_force(case):
    alg, seeds = case
    closed = sg_many(alg, seeds)
    assert len(closed) == len(seeds)
    for seed, mask in zip(seeds, closed):
        assert set(mask_elements(mask)) == brute_force_closure(alg, set(mask_elements(seed)))
        assert sg(alg, seed) == sg_many(alg, [seed])[0] == mask


@settings(max_examples=300, deadline=None)
@given(algebras_and_seed_batches())
def test_sg_many_beyond_the_bound_matches_brute_force(case):
    # the same draws with the set kernel's bound below every table, so
    # every closure takes the ragged rounds of `close_codes`
    alg, seeds = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "KERNEL_CELLS", 0)
        assert all(op.onehot is None for op in alg.compiled.ops)
    for seed, mask in zip(seeds, sg_many(alg, seeds)):
        assert set(mask_elements(mask)) == brute_force_closure(alg, set(mask_elements(seed)))


def test_sg_many_edge_cases():
    alg = fixture("lattice2")
    assert sg_many(alg, []) == []
    assert sg_many(FiniteAlgebra(3, ()), [0, 5, 5, 7]) == [0, 5, 5, 7]
    with pytest.raises(ValueError):
        sg_many(alg, [1, 4])


@pytest.mark.parametrize("arity, symmetric", [(1, False), (2, False), (2, True), (3, False)])
def test_frontier_meets_each_new_tuple_once(arity, symmetric):
    # the round rule's blocks over index lists: every argument tuple over
    # `every` that touches `new` exactly once; for a symmetric op each
    # unordered pair once, with the [new, new] block cut to pairs
    op = _Op(2, arity, None, symmetric, (), False, None)
    every = list(range(6))
    for cut in (0, 1, 4):
        old, new = every[:cut], every[cut:]
        blocks = list(_frontier(op, new, old, every) if cut else _frontier(op, new))
        if not cut:
            assert blocks == [[new] * arity]
        elif symmetric:
            assert blocks == [[new, old], [new, new]] and blocks[1][0] is blocks[1][1]
        else:
            assert len(blocks) == arity
        got = []
        for stores in blocks:
            pairs = symmetric and stores[0] is stores[1]
            got += [t for t in product(*stores) if not pairs or t[1] <= t[0]]
        if symmetric:
            got = [tuple(sorted(t)) for t in got]
            want = [t for t in combinations_with_replacement(every, 2) if set(t) & set(new)]
        else:
            want = [t for t in product(every, repeat=arity) if set(t) & set(new)]
        assert sorted(got) == sorted(want)


def test_ragged_product_chunks_cover_each_row_product_once():
    # every row's own product, in any cut into chunks: rows of 0 to 6
    # candidates per argument, chunks smaller than one row's product
    rng = np.random.default_rng(5)
    n = 6
    op = random_idempotent_algebra(random.Random(5), n, [3]).compiled.ops[0]
    stores = [rng.random((9, n)) < p for p in (0.3, 0.6, 0.9)]
    stores[0][4] = False  # a row with an empty product
    want = sorted((r, int(op.table[(a * n + b) * n + c]))
                  for r in range(9)
                  for a, b, c in product(*(np.flatnonzero(s[r]) for s in stores)))
    for cells in (1, 7, 64, 1 << 16):
        got = sorted((int(r), int(v))
                     for rows, values in _ragged_product(op, stores, cells)
                     for r, v in zip(rows, values))
        assert got == want


def test_ragged_product_pairs_and_codes():
    # a symmetric op over one store twice: each unordered pair of a row's
    # entries once; with the digit table, op coordinatewise on codes of A**2
    rng = np.random.default_rng(9)
    n = 3
    table = [random.Random(9).randrange(n) for _ in range(n * n)]
    table = [table[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
    op = FiniteAlgebra(n, (OperationTable("f", 2, tuple(table)),)).compiled.ops[0]
    assert op.symmetric
    stores = [rng.random((7, n * n)) < p for p in (0.2, 0.7)]

    def value(x, y):
        return sum(table[(x // n ** k % n) * n + y // n ** k % n] * n ** k for k in range(2))

    for pairs in (True, False):
        want = sorted((r, value(x, y)) for r in range(7) for x, y in (
            combinations_with_replacement(np.flatnonzero(stores[1][r]), 2) if pairs
            else product(*(np.flatnonzero(s[r]) for s in stores))))
        for cells in (32, 500, 1 << 16):
            got = sorted((int(r), int(v)) for rows, values in _ragged_product(
                op, stores[1:] * 2 if pairs else stores, cells, _code_digits(n, 2))
                for r, v in zip(rows, values))
            assert got == want


def test_images_are_each_row_product_image():
    # the set kernel against each row's own product, over more rows than
    # one contraction takes (KERNEL_CELLS // 16**3 = 16), and the same
    # operation without its one-hot table, through the ragged gather
    rng = np.random.default_rng(13)
    n = 16
    op = random_idempotent_algebra(random.Random(13), n, [3]).compiled.ops[0]
    sets = [rng.random((40, n)) < p for p in (0.1, 0.3, 0.5)]
    sets[0][7] = False  # a row with an empty product
    want = np.zeros((40, n), dtype=bool)
    for r in range(40):
        for a, b, c in product(*(np.flatnonzero(s[r]) for s in sets)):
            want[r, op.table[(a * n + b) * n + c]] = True
    assert op.onehot is not None and not _gathers(op, sets)
    assert (_images(op, sets) == want).all()
    assert (_images(op._replace(onehot=None), sets) == want).all()


def test_images_gather_small_sets_over_a_large_table():
    # 120 rows of one or two elements under a ternary op on 16 elements:
    # their few hundred tuples cost less than contracting the table 120
    # times, so the kernel gathers; 4 rows of the same op contract whatever
    # their sets, and so do 120 rows of half the universe.  Every image is
    # the row's own product image.
    rng = np.random.default_rng(17)
    n = 16
    op = random_idempotent_algebra(random.Random(17), n, [3]).compiled.ops[0]
    small = [np.zeros((120, n), dtype=bool) for _ in range(3)]
    for s in small:
        s[np.arange(120), rng.integers(n, size=120)] = True
        s[np.arange(0, 120, 2), rng.integers(n, size=60)] = True
    half = [rng.random((120, n)) < 0.5 for _ in range(3)]
    for sets, gathers in ((small, True), ([s[:4] for s in small], False), (half, False)):
        assert _gathers(op, sets) == gathers
        want = np.zeros(sets[0].shape, dtype=bool)
        for r in range(len(want)):
            for a, b, c in product(*(np.flatnonzero(s[r]) for s in sets)):
                want[r, op.table[(a * n + b) * n + c]] = True
        assert (_images(op, sets) == want).all()


def test_enumerate_subuniverses_lattice():
    subs = enumerate_subuniverses(fixture("lattice2"))
    assert [mask_elements(s) for s in subs] == [[0], [1], [0, 1]]


def test_enumerate_subuniverses_constant3():
    # closed under c2 iff 2 is a member
    subs = enumerate_subuniverses(fixture("constant3"))
    assert [mask_elements(s) for s in subs] == [[2], [0, 2], [1, 2], [0, 1, 2]]


def test_enumerate_subuniverses_no_ops():
    assert len(enumerate_subuniverses(fixture("no_ops2"))) == 3


def test_enumerate_subuniverses_matches_sg_scan(monkeypatch):
    # batched scans, also cut into batches of 2 subsets, against Sg and
    # against is_subuniverse one set at a time
    rng = random.Random(11)
    cells = algebra.KERNEL_CELLS
    for i in range(30):
        n = rng.randint(2, 5)
        alg = random_idempotent_algebra(rng, n, rng.choice([[2], [1, 3], [2, 2], [3]]))
        monkeypatch.setattr(algebra, "KERNEL_CELLS", 2 * n if i % 2 else cells)
        subs = enumerate_subuniverses(alg)
        expected = [m for m in range(1, 1 << n) if sg(alg, m) == m]
        assert subs == expected
        assert subs == [m for m in range(1, 1 << n) if is_subuniverse(alg, m)]


def test_enumerate_subuniverses_budget():
    with pytest.raises(BudgetExceededError, match=r"^subset scan over 2\^30 subsets "
                       r"exceeds the budget of 1048576$"):
        enumerate_subuniverses(FiniteAlgebra(30, ()))


def test_idempotent_singletons_are_subuniverses():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        alg = random_idempotent_algebra(rng, n, [rng.randint(1, 3)])
        for a in range(n):
            assert is_subuniverse(alg, 1 << a)


def test_json_round_trip():
    alg = fixture("lattice2")
    again = FiniteAlgebra.from_json(alg.to_json())
    assert again == alg


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        FiniteAlgebra.from_json({"operations": []})  # size missing
    with pytest.raises(InputError):
        FiniteAlgebra.from_json(
            {"size": 2, "operations": [{"name": "f", "arity": 2, "table": [0, 2, 0, 1]}]}
        )
    with pytest.raises(InputError):
        FiniteAlgebra.from_json(
            {"size": 2, "operations": [{"name": "f", "arity": 2, "table": [0, 0, 0]}]}
        )
    with pytest.raises(InputError):
        FiniteAlgebra.from_json([1, 2])


def test_negative_mask_rejected():
    # a negative mask never shifts down to zero; it must be refused, not
    # looped over (the timer turns a hang into a failure)
    def hang(*_):
        raise TimeoutError("negative mask was not refused")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(ValueError):
            is_subuniverse(fixture("lattice2"), -1)
        for outside in (0b100, [5]):  # elements outside the universe
            with pytest.raises(ValueError):
                is_subuniverse(fixture("lattice2"), outside)
        with pytest.raises(ValueError):
            mask_elements(-5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- automorphisms -----------------------------------------------------------

def _automorphism_cases():
    """Fixtures, two relabelled copies of each, and seeded random idempotent
    algebras on 2 to 5 elements with operations of arity 2 and 3, half of
    them built to commute with a random permutation."""
    rng = random.Random(19)
    bases = [fixture(name) for name in ("lattice2", "semilattice2", "no_ops2", "no_ops3")]
    bases += [idempotent_quasigroup(3), idempotent_quasigroup(5)]
    bases += [tight_example(TightExampleParams(n, arities))
              for n, arities in ((3, (3,)), (3, (2, 2)), (3, (4,)), (4, (2, 2)), (5, (3,)))]
    cases = []
    for base in bases:
        cases += [base] + [relabel(base, tuple(rng.sample(range(base.size), base.size)))
                           for _ in range(2)]
    for _ in range(40):
        n = rng.randint(2, 5)
        arities = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
        cases.append(random_idempotent_algebra(rng, n, arities))
        cases.append(symmetric_idempotent_algebra(rng, n, arities,
                                                  tuple(rng.sample(range(n), n))))
    for n in (3, 5):  # the quasigroup's group cut down by a second operation
        for _ in range(3):
            extra = symmetric_idempotent_algebra(rng, n, [2], tuple(rng.sample(range(n), n)))
            cases.append(FiniteAlgebra(n, idempotent_quasigroup(n).operations + extra.operations))
    return cases


def test_automorphisms_match_brute_force():
    nontrivial = 0
    for alg in _automorphism_cases():
        group = alg.automorphisms
        rows = [tuple(row) for row in group.tolist()]
        assert rows[0] == tuple(range(alg.size))
        assert (np.sort(group, axis=1) == np.arange(alg.size)).all()
        assert len(set(rows)) == len(rows)
        assert set(rows) == brute_force_automorphisms(alg), alg
        nontrivial += len(rows) > 1
    assert nontrivial >= 40


def test_automorphisms_drop_non_injective_endomorphisms():
    # f(0, 1) = 2, so the greedy generating set is {0, 1}; h = (0, 2, 2)
    # commutes with f and is injective on {0, 1}: an injective image of the
    # generators whose extension passes every table but is no permutation
    alg = FiniteAlgebra(3, (OperationTable("f", 2, (0, 2, 2, 0, 1, 1, 0, 1, 2)),))
    f, h = alg.operations[0], (0, 2, 2)
    assert sg(alg, {0}) == 0b001 and sg(alg, {0, 1}) == 0b111
    assert all(h[apply(f, (x, y), 3)] == apply(f, (h[x], h[y]), 3)
               for x in range(3) for y in range(3))
    rows = [tuple(row) for row in alg.automorphisms.tolist()]
    assert h not in rows and set(rows) == brute_force_automorphisms(alg)


def test_automorphism_search_gives_up_beyond_one_kernel_chunk(monkeypatch):
    # eight elements and no operation: all 8! permutations, within one
    # chunk; but 8! images of a block of patterns are not, so the pattern
    # filter takes the identity alone and the first block is the first 128
    # patterns, as without automorphisms
    no_ops8 = fixture("no_ops8")
    assert len(no_ops8.automorphisms) == 40320
    pairs = [(a, b) for a in range(8) for b in range(8) if a != b]
    a, b = next(decide._pattern_blocks(no_ops8, 2, 128))
    assert [tuple(zip(*pattern)) for pattern in zip(a.tolist(), b.tolist())] == \
        list(islice(combinations_with_replacement(pairs, 2), 128))
    assert check_cube_dim(no_ops8, 2) is False

    # nothing new is generated from any set of a 10-element chain, so its
    # greedy generating set is the universe, and a table of projections
    # compiles to no operation: 10! candidates either way, beyond one
    # kernel chunk, so the identity alone comes back before any candidate
    # is built
    def refuse(*_):
        raise AssertionError("candidates were built")

    monkeypatch.setattr(algebra, "permutations", refuse)
    chain = FiniteAlgebra(10, (OperationTable(
        "min", 2, tuple(min(x, y) for x in range(10) for y in range(10))),))
    projection = FiniteAlgebra(10, (OperationTable(
        "first", 2, tuple(x for x in range(10) for _ in range(10))),))
    assert projection.compiled.ops == ()
    for alg in (chain, projection):
        assert alg.automorphisms.tolist() == [list(range(10))]
    assert check_cube_dim(chain, 2) is False
