import random
import signal
from itertools import product

import pytest

from conftest import (
    brute_force_closure,
    brute_force_find_blocker,
    brute_force_is_blocker,
    random_idempotent_algebra,
)
from cubeterm import (
    Blocker,
    ChippedCubeSpec,
    FiniteAlgebra,
    InputError,
    OperationTable,
    check_cube_dim,
    chipped_cube,
    exhaustive_blocker_search,
    find_blocker,
    fixture,
    idempotent_quasigroup,
    is_compatible,
    mask_elements,
    mask_of,
    verify_blocker,
)
from cubeterm import algebra, blockers, is_subuniverse, sg_many
from cubeterm.blockers import verify_blockers

C0 = mask_of([0])
ALL2 = mask_of([0, 1])


def test_verify_blocker_semilattice():
    # 0 meet d = 0 stays in C at either coordinate
    assert verify_blocker(fixture("semilattice2"), C0, ALL2)


def test_verify_blocker_fails_on_lattice():
    # join has no absorbing coordinate: 0 v 1 = 1 outside C both ways
    assert not verify_blocker(fixture("lattice2"), C0, ALL2)


def test_verify_blocker_shape_violations():
    semi = fixture("semilattice2")
    assert not verify_blocker(semi, ALL2, ALL2)  # C = D
    assert not verify_blocker(semi, 0, ALL2)     # C empty
    assert not verify_blocker(semi, mask_of([1]), ALL2)  # {1} not absorbing


def test_verify_blocker_requires_subuniverses():
    # idempotent, but f(0, 1) = 2 pushes D = {0,1} out of itself
    table = [x for x in range(3) for _ in range(3)]
    for a in range(3):
        table[a * 3 + a] = a
    table[0 * 3 + 1] = 2
    alg = FiniteAlgebra(3, (OperationTable("f", 2, tuple(table)),))
    assert not verify_blocker(alg, mask_of([0]), mask_of([0, 1]))


def test_verify_blocker_rejects_non_idempotent():
    with pytest.raises(ValueError):
        verify_blocker(fixture("nand2"), C0, ALL2)


def test_find_blocker_semilattice():
    assert find_blocker(fixture("semilattice2")) == Blocker(C0, ALL2)


def test_find_blocker_lattice_none():
    assert find_blocker(fixture("lattice2")) is None


def test_find_blocker_no_ops():
    assert find_blocker(fixture("no_ops2")) == Blocker(C0, ALL2)


def test_exhaustive_search_matches_spec_examples():
    assert exhaustive_blocker_search(fixture("semilattice2")) == Blocker(C0, ALL2)
    assert exhaustive_blocker_search(fixture("lattice2")) is None
    assert exhaustive_blocker_search(idempotent_quasigroup(3)) is None


def test_found_blockers_verify():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 4)
        alg = random_idempotent_algebra(rng, n, [rng.randint(1, 3)])
        b = find_blocker(alg)
        if b is not None:
            assert verify_blocker(alg, b.C, b.D)


def check_verify_blocker_against_table_oracle(bound=None):
    # every pair C < D of subsets, subuniverses or not, on seeded random
    # idempotent algebras with operations of arity 1 to 3; with `bound`
    # the algebras are compiled under that set kernel bound
    rng = random.Random(41)
    for n in range(2, 7):
        for _ in range(3):
            alg = random_idempotent_algebra(
                rng, n, [rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
            if bound is not None:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(algebra, "KERNEL_CELLS", bound)
                    assert all(op.onehot is None for op in alg.compiled.ops)
            subs = [m for m in range(1, 1 << n)
                    if brute_force_closure(alg, set(mask_elements(m))) == set(mask_elements(m))]
            pairs = [(c, d) for d in subs for c in subs if c != d and c & ~d == 0]
            pairs += [(rng.randrange(1, 1 << n), rng.randrange(1, 1 << n)) for _ in range(20)]
            wants = [brute_force_is_blocker(alg, set(mask_elements(c)), set(mask_elements(d)))
                     for c, d in pairs]
            for (c, d), want in zip(pairs, wants):
                assert verify_blocker(alg, c, d) == want, (alg, c, d)
            # the same pairs in one batched call, row by row
            assert verify_blockers(alg, pairs).tolist() == wants, alg


def test_verify_blocker_matches_table_oracle():
    check_verify_blocker_against_table_oracle()


def test_verify_blocker_beyond_the_bound_matches_table_oracle():
    # the same pairs with the set kernel's bound below every table: the
    # checks take the ragged gather
    check_verify_blocker_against_table_oracle(bound=0)


def test_set_kernel_at_and_just_past_its_bound():
    # a ternary table on 16 elements has 16**4 = KERNEL_CELLS one-hot
    # cells, the most the set kernel contracts; the order-41 quasigroup's
    # 41**3 are just past it, so its sets take the ragged gather.  The
    # ternary one absorbs into C = {0, 1, 2} at its first coordinate, so
    # (C, A) is a blocker.  Sg, the subuniverse test and the blocker check
    # must agree with the table oracles on both.
    rng = random.Random(83)
    n, c_set = 16, [0, 1, 2]
    table = [x[0] if len(set(x)) == 1 else rng.choice(c_set) if x[0] in c_set
             else rng.randrange(n) for x in product(range(n), repeat=3)]
    planted = FiniteAlgebra(n, (OperationTable("f", 3, tuple(table)),))
    assert algebra.KERNEL_CELLS == 16 ** 4
    for alg, contracted in ((planted, True), (idempotent_quasigroup(41), False)):
        assert [op.onehot is not None for op in alg.compiled.ops] == [contracted]
        n = alg.size
        seeds = [mask_of(rng.sample(range(n), k)) for k in (1, 2, 2, 3)] + [mask_of(c_set)]
        closed = sg_many(alg, seeds)
        for seed, mask in zip(seeds, closed):
            assert set(mask_elements(mask)) == brute_force_closure(alg, set(mask_elements(seed)))
        subsets = seeds + closed + [rng.getrandbits(n) for _ in range(6)]
        assert [is_subuniverse(alg, s) for s in subsets] == [
            brute_force_closure(alg, set(mask_elements(s))) == set(mask_elements(s))
            for s in subsets]
        pairs = [(1 << c, d) for d in closed + [(1 << n) - 1] for c in mask_elements(d)[:3]]
        pairs += [(c, d) for c in seeds for d in closed if c & ~d == 0]
        wants = [brute_force_is_blocker(alg, set(mask_elements(c)), set(mask_elements(d)))
                 for c, d in pairs]
        assert verify_blockers(alg, pairs).tolist() == wants
        assert any(wants) == contracted


def test_search_and_algorithm_agree_on_random_sample():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 3)
        alg = random_idempotent_algebra(rng, n, [2, rng.randint(1, 3)])
        fast = find_blocker(alg)
        slow = exhaustive_blocker_search(alg)
        assert (fast is None) == (slow is None)


def test_find_blocker_matches_exhaustive_search_and_table_oracle():
    # 200 seeded idempotent algebras, n = 2..5, one or two operations of
    # arity 1 to 3
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(2, 5)
        alg = random_idempotent_algebra(
            rng, n, [rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
        fast = find_blocker(alg)
        assert (fast is None) == (exhaustive_blocker_search(alg) is None), alg
        if fast is not None:
            assert brute_force_is_blocker(
                alg, set(mask_elements(fast.C)), set(mask_elements(fast.D))), alg


def test_verify_blockers_shapes_and_empty_batch():
    semi = fixture("semilattice2")
    assert verify_blockers(semi, []).tolist() == []
    pairs = [(C0, ALL2), (ALL2, ALL2), (0, ALL2), (C0, 1 << 2), (-1, ALL2), ([0], [0, 1])]
    assert verify_blockers(semi, pairs).tolist() == [True, False, False, False, False, True]
    with pytest.raises(ValueError):
        verify_blockers(fixture("nand2"), [(C0, ALL2)])


def test_find_blocker_matches_sequential_table_reference():
    # 320 seeded idempotent algebras, n = 2..12, one to three operations
    # of arity 1 to 3: the batched search returns the blocker of the
    # documented one-start-at-a-time search, step for step
    rng = random.Random(67)
    starts = []
    for _ in range(320):
        n = rng.randint(2, 12)
        arities = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        alg = random_idempotent_algebra(rng, n, arities)
        want = brute_force_find_blocker(alg)
        got = find_blocker(alg)
        if want is None:
            assert got is None, alg
        else:
            start, c, d = want
            assert got == Blocker(mask_of(c), mask_of(d)), alg
            starts.append(start)
    assert len(starts) >= 100 and sum(s > 0 for s in starts) >= 30


def test_find_blocker_batches_stay_within_the_cell_cap(monkeypatch):
    # with a tiny cap every batch after the first holds one start's pairs;
    # with a cap of 60 cells the later batches take whole starts up to it
    rng = random.Random(71)
    algs = [random_idempotent_algebra(rng, n, [2]) for n in (5, 7, 9, 9, 12)]
    algs += [idempotent_quasigroup(7), fixture("semilattice2")]
    wants = [find_blocker(alg) for alg in algs]
    batches = []

    def recording(algebra, seeds):
        batches.append((algebra.size, len(seeds)))
        return sg_many(algebra, seeds)

    sg_many = blockers.sg_many
    monkeypatch.setattr(blockers, "sg_many", recording)
    for cap in (1, 60):
        monkeypatch.setattr(blockers, "KERNEL_CELLS", cap)
        batches.clear()
        assert [find_blocker(alg) for alg in algs] == wants
        assert all(rows * n <= max(cap, (n - 1) * n) for n, rows in batches)
        # cap 1: one start's pairs per batch; cap 60: the quasigroup of
        # order 7 closes the 7 pairs of starts 2 and 3 in one batch
        assert any(rows > n - 1 for n, rows in batches) == (cap == 60)


def test_find_blocker_on_a_256_element_chain():
    # min on a chain: every Sg({0, d}) is {0, d}; closing them one start
    # element at a time is cheap, all pairs at once (n**2 rows) is not
    n = 256
    chain = FiniteAlgebra(n, (OperationTable(
        "min", 2, tuple(min(x, y) for x in range(n) for y in range(n))),))

    def hang(*_):
        raise TimeoutError("find_blocker took more than 1 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert find_blocker(chain) == Blocker(mask_of([0]), mask_of([0, 1]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_all_idempotent_binary_two_element_tables():
    # tables [0,x,y,1]: meet, join and the two projections
    for x, y in product((0, 1), repeat=2):
        alg = FiniteAlgebra(2, (OperationTable("f", 2, (0, x, y, 1)),))
        fast = find_blocker(alg)
        slow = exhaustive_blocker_search(alg)
        assert (fast is None) == (slow is None)
        assert fast is not None  # all four admit a blocker


def test_blocker_blocks_small_dimensions():
    semi = fixture("semilattice2")
    b = find_blocker(semi)
    for k in (1, 2, 3):
        rel = chipped_cube(ChippedCubeSpec(((b.C, b.D, k),)), 2)
        assert is_compatible(semi, rel)
    for d in (2, 3):
        assert not check_cube_dim(semi, d)


def test_blocker_json_round_trip():
    b = Blocker(C0, ALL2)
    assert Blocker.from_json(b.to_json()) == b
    assert b.to_json() == {"C": [0], "D": [0, 1]}
    for bad in ({"C": 5, "D": [0, 1]}, {"C": [-1], "D": [0, 1]},
                {"C": [True], "D": [0, 1]}, {"C": [0], "D": "01"}, {"C": [0]}):
        with pytest.raises(InputError):
            Blocker.from_json(bad)
