import random
import signal
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_closure, random_idempotent_algebra
from cubeterm import (
    BudgetExceededError,
    FiniteAlgebra,
    InputError,
    OperationTable,
    apply,
    enumerate_subuniverses,
    fixture,
    is_idempotent,
    is_subuniverse,
    mask_elements,
    mask_of,
    sg,
    sg_many,
    validate,
)
from cubeterm import algebra
from cubeterm.algebra import _code_digits, _frontier, _Op, _ragged_product

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
    op = _Op(2, arity, None, symmetric, (), False)
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
