import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    StarvedNumpy,
    binary_constant3,
    brute_force_subpower,
    check_keys_like_codes,
    random_algebra,
    random_idempotent_algebra,
)
import cubeterm
from cubeterm import (
    UNDECIDED,
    Budget,
    BudgetExceededError,
    FiniteAlgebra,
    InputError,
    OperationTable,
    Relation,
    algebra,
    check_cube_dim,
    check_edge_dim,
    check_nu,
    code_tuple,
    decide,
    decide_cube_general,
    default_budget,
    fixture,
    generate,
    idempotent_quasigroup,
    membership,
    mix_family,
    sg,
    subpower,
    tuple_code,
)
from cubeterm.algebra import close_codes
from cubeterm import orbits
from cubeterm.orbits import _margin_tables


def test_lattice_closure_of_antichain():
    closure, ans = generate(fixture("lattice2"), [(0, 1), (1, 0)])
    assert set(closure) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert ans.closure_size == 4 and not ans.truncated


def test_target_among_generators_found_at_depth_zero():
    ans = membership(fixture("lattice2"), [(0, 1), (1, 0)], (0, 1))
    assert ans.found and ans.witness_depth == 0


def test_meet_closure_cannot_reach_top():
    closure, ans = generate(fixture("semilattice2"), [(0, 1), (1, 0)],
                            target=(1, 1))
    assert not ans.found and not ans.truncated
    assert set(closure) == {(0, 0), (0, 1), (1, 0)}


def test_membership_of_overwrite_family_target():
    # join of (0,1) and (1,0) reaches (1,1), so the family closure holds it
    ans = membership(fixture("lattice2"), mix_family((1, 1), (0, 0)), (1, 1))
    assert ans.found and ans.witness_depth == 1


def test_membership_meet_only_fails():
    ans = membership(fixture("semilattice2"), [(0, 1), (1, 0), (0, 0)], (1, 1))
    assert not ans.found and ans.closure_size == 3


def test_closure_is_a_fixed_point():
    closure, _ = generate(fixture("lattice2"), [(0, 1), (1, 0)])
    again, _ = generate(fixture("lattice2"), list(closure))
    assert set(again) == set(closure)


def test_monotone_in_generators():
    alg = fixture("semilattice2")
    small, _ = generate(alg, [(0, 1)])
    big, _ = generate(alg, [(0, 1), (1, 0)])
    assert set(small) <= set(big)


def test_projection_of_closure_inside_closure_of_projections():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(2, 3)
        alg = random_idempotent_algebra(rng, n, [2])
        gens = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(3)]
        coords = [0, 2]
        closure, _ = generate(alg, gens)
        projected, _ = generate(alg, [tuple(g[c] for c in coords) for g in gens])
        assert {tuple(t[c] for c in coords) for t in closure} <= set(projected)


def test_matches_brute_force_closure(monkeypatch):
    rng = random.Random(17)
    default_cells = subpower.KERNEL_CELLS
    for _ in range(25):
        n = rng.randint(2, 3)
        alg = random_idempotent_algebra(rng, n, [rng.randint(1, 3)])
        k = rng.randint(1, 3)
        gens = [tuple(rng.randrange(n) for _ in range(k))
                for _ in range(rng.randint(1, 4))]
        expected = brute_force_subpower(alg, gens)
        # tiny kernel chunks split every kernel block into many chunks
        for cells in (default_cells, 1, 5):
            monkeypatch.setattr(subpower, "KERNEL_CELLS", cells)
            closure, _ = generate(alg, gens)
            assert set(closure) == expected


def test_deterministic_output():
    alg = fixture("lattice2")
    gens = [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    first, _ = generate(alg, gens)
    second, _ = generate(alg, gens)
    assert list(first) == list(second)


def test_explicit_truncation():
    budget = Budget(max_members=2)
    _, ans = generate(fixture("lattice2"), [(0, 1), (1, 0)], budget=budget)
    assert ans.truncated and not ans.found


def test_lazy_tuple_stream_meets_the_budget_block_by_block():
    # 2**17 single tuples arrive lazily; they are cut into blocks of 4096,
    # so a cap of 1000 members stops the run after the first block and
    # leaves the rest of the stream unread
    stream = ((0,) + t for t in itertools.product((0, 1), repeat=17))
    ans = membership(fixture("semilattice2"), stream, (1,) * 18,
                     budget=Budget(max_members=1000))
    assert ans.truncated and not ans.found and ans.closure_size == 4096
    assert len(list(stream)) == (1 << 17) - 4096


def test_out_of_memory_truncates(monkeypatch):
    # the dense bitset over 2**12 codes, then the member store's growth
    # past 1024 codes, cannot be allocated: both end the run as truncated
    gens = list(mix_family((0,) * 12, (1,) * 12))
    monkeypatch.setattr(subpower, "np", StarvedNumpy(2000))
    rel, ans = generate(fixture("lattice2"), gens)
    assert ans.truncated and len(rel) == 0
    blocks = [block[i:i + 512] for block in gens for i in range(0, len(block), 512)]
    rel, ans = generate(fixture("lattice2"), blocks, budget=Budget(dense_limit=1))
    assert ans.truncated and 512 <= len(rel) <= 1024


def test_out_of_memory_leaves_general_decision_undecided(monkeypatch):
    def undecided_at(d, *args, **kwargs):
        dec = decide_cube_general(*args, **kwargs)
        assert dec.verdict == UNDECIDED and dec.dimension_bound == d, dec
        assert dec.note == f"closure budget exhausted at dimension {d}"

    monkeypatch.setattr(subpower, "np", StarvedNumpy(1 << 16))
    undecided_at(8, binary_constant3())  # the tuple query's bitset, 3**11 codes
    # without a bitset: the store's growth to the 4095 tuples of d = 12
    monkeypatch.setattr(subpower, "np", StarvedNumpy(1 << 15))
    undecided_at(12, binary_constant3(), 12, budget=Budget(dense_limit=1))
    # the orbit queries keep the same truncation: constant3's first orbit
    # store at d = 16, the tuple queries below it left room
    monkeypatch.setattr(subpower, "np", np)
    query = decide.membership

    def starved_orbits(*args, blocks=(), **kwargs):
        with monkeypatch.context() as patch:
            if len(blocks):
                patch.setattr(subpower, "np", StarvedNumpy(1 << 10))
            return query(*args, blocks=blocks, **kwargs)

    monkeypatch.setattr(decide, "membership", starved_orbits)
    undecided_at(16, fixture("constant3"))


def test_dense_bitset_is_built_on_demand(monkeypatch):
    # a sparse closure in a big code space never zeroes the bitset (the
    # edge query's space is 2**26, constant3's orbit keys 28**5 at d = 27),
    # and the answers are those of a run that never builds one
    runs = [(check_edge_dim, fixture("lattice2"), 12),
            (decide_cube_general, fixture("constant3"))]
    for f, *args in runs:
        answer = f(*args)
        tracemalloc.start()
        try:
            assert f(*args) == answer
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert f(*args, budget=Budget(dense_limit=1)) == answer
    # a small saturating query does build it
    engines = []
    run = subpower._Engine.run

    def spy(eng, gens):
        engines.append(eng)
        run(eng, gens)

    monkeypatch.setattr(subpower._Engine, "run", spy)
    assert check_nu(fixture("semilattice2"), 9) is False
    assert engines and all(eng.known_bits is not None for eng in engines)


def test_found_before_truncation_wins():
    budget = Budget(max_members=3)
    ans = membership(fixture("lattice2"), [(0, 1), (1, 0)], (0, 1),
                     budget=budget)
    assert ans.found and not ans.truncated
    # the target comes in the first block, the cap is passed in the second
    blocks = [np.array([(0, 1)]), np.array([(1, 0), (0, 0), (1, 1)])]
    ans = membership(fixture("lattice2"), blocks, (0, 1), budget=budget)
    assert ans.found and ans.witness_depth == 0 and not ans.truncated


def engine_run(alg, gens, k, target=None, budget=None):
    """The closure engine's members in the order it found them, and its answer."""
    eng = subpower._Engine(subpower._Tuples(alg, k), target, budget or Budget())
    eng.run(iter(gens))
    return eng, eng.rows().tolist(), eng.answer()


def test_backends_agree(monkeypatch):
    # the dense bitset and the sorted key runs hold the same members in the
    # same order, with the same answers; tiny kernel chunks cut each round
    # into many chunks, so the runs merge many times
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 4)
        k = rng.randint(2, {2: 7, 3: 4, 4: 3}[n])
        alg = random_algebra(rng, n, rng.choice([[2], [1, 2], [2, 2]]))
        gens = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(rng.randint(2, 4))]
        target = tuple(rng.randrange(n) for _ in range(k))
        monkeypatch.setattr(subpower, "KERNEL_CELLS", rng.choice([16, 64, 512]))
        for tgt, cap in ((None, 10 ** 8), (target, 10 ** 8), (None, n ** k // 3)):
            _, dense_rows, dense_ans = engine_run(alg, gens, k, tgt, Budget(max_members=cap))
            eng, run_rows, run_ans = engine_run(
                alg, gens, k, tgt, Budget(max_members=cap, dense_limit=1))
            assert run_rows == dense_rows and run_ans == dense_ans
            # members come in first-occurrence order: the generators first
            distinct = list(map(list, dict.fromkeys(gens)))
            assert dense_rows[:len(distinct)] == distinct
            # each run is more than twice as long as the next one
            lengths = [len(run) for run in eng.runs]
            assert sum(lengths) == len(run_rows)
            assert all(a > 2 * b for a, b in zip(lengths, lengths[1:]))

    # beyond int64 (2**65 and 3**42 codes): each generator written r
    # times side by side closes to the same members, each written r times,
    # keyed by bytes; no binary operation, so the rounds enumerate the same
    # argument tuples at every row width
    monkeypatch.undo()  # the membership queries below run at the default chunk size
    for n, k, r in ((2, 5, 13), (3, 3, 14)):
        alg = random_algebra(rng, n, [1, 3])
        gens = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(3)]
        with monkeypatch.context() as patch:
            patch.setattr(subpower, "KERNEL_CELLS", 4096)
            _, dense_rows, dense_ans = engine_run(alg, gens, k)
            wide, wide_rows, wide_ans = engine_run(alg, [g * r for g in gens], r * k)
        assert wide.runs[0].dtype.kind == "V" and len(dense_rows) > 8
        assert wide_rows == [row * r for row in dense_rows] and wide_ans == dense_ans
        for t in (dense_rows[-1], tuple(rng.randrange(n) for _ in range(k))):
            narrow = membership(alg, gens, t)
            wide_found = membership(alg, [g * r for g in gens], tuple(t) * r)
            assert (narrow.found, narrow.witness_depth) == (wide_found.found,
                                                            wide_found.witness_depth)

    # code spaces of 2**14 and 3**9: a run starts on sorted key runs and
    # switches to the bitset after several tiny chunks, once it has absorbed
    # space / _DENSE_FILL candidates, with the members of a run that never does
    absorb = subpower._Engine.absorb
    had_bits = []

    def spy(eng, cands, depth):
        had_bits.append(eng.known_bits is not None)
        absorb(eng, cands, depth)

    monkeypatch.setattr(subpower._Engine, "absorb", spy)
    monkeypatch.setattr(subpower, "KERNEL_CELLS", 16)
    for alg, n, k in ((fixture("lattice2"), 2, 14), (random_algebra(rng, 3, [1, 1]), 3, 9)):
        gens = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(3)]
        for tgt in (None, tuple(rng.randrange(n) for _ in range(k))):
            had_bits.clear()
            eng, rows, ans = engine_run(alg, gens, k, tgt)
            if tgt is None:
                assert not any(had_bits[:3]) and eng.known_bits is not None and not eng.runs
            _, run_rows, run_ans = engine_run(alg, gens, k, tgt, Budget(dense_limit=1))
            assert rows == run_rows and ans == run_ans


def test_non_integer_rows_rejected():
    # floats were once cut to integers: [[0.7]] was stored as (0,) and
    # [[True, 2.9]] as (1, 2), in relations and closures alike
    for alg, rows in ((fixture("lattice2"), [[0.7]]), (fixture("constant3"), [[True, 2.9]]),
                      (fixture("lattice2"), np.array([[0.0, 1.0]]))):
        n, k = alg.size, len(rows[0])
        with pytest.raises(ValueError):
            Relation(n, k, rows)
        with pytest.raises(ValueError):
            generate(alg, [tuple(r) for r in rows])
        with pytest.raises(ValueError):
            membership(alg, [np.asarray(rows)], (0,) * k)
        with pytest.raises(ValueError):
            membership(alg, [(0,) * k], tuple(rows[0]))
    assert (0.5, 1) not in Relation(2, 2, [(0, 1)])
    # empty input is still zero rows
    assert len(Relation(2, 3, [])) == len(Relation(2, 3, np.zeros((0, 3)))) == 0


def test_bytes_backend_for_huge_code_spaces():
    # arity 45 over 3 elements: 3**45 codes, far past int64
    alg = fixture("constant3")
    gens = [tuple((i + j) % 2 for j in range(45)) for i in range(2)]
    closure, ans = generate(alg, gens)
    assert set(closure) == set(gens) | {(2,) * 45}
    assert ans.closure_size == 3
    found = membership(alg, gens, (2,) * 45)
    assert found.found and found.witness_depth == 1
    # a dense limit past the int64 codes still keys by bytes
    assert membership(alg, gens, (2,) * 45, budget=Budget(dense_limit=1 << 80)) == found


def test_empty_generator_family():
    rel, ans = generate(fixture("lattice2"), [], arity=2)
    assert len(rel) == 0 and not ans.found
    with pytest.raises(ValueError):
        generate(fixture("lattice2"), [])


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        membership(fixture("lattice2"), [(0, 1)], (0, 1, 1))
    with pytest.raises(ValueError):
        generate(fixture("lattice2"), [(0, 2)])


def test_arity_below_one_rejected():
    # empty tuples once crashed the engine with an IndexError
    with pytest.raises(ValueError, match="arity must be at least 1"):
        membership(fixture("lattice2"), [()], ())
    with pytest.raises(ValueError, match="arity must be at least 1"):
        generate(fixture("lattice2"), [()])


def test_one_element_universe():
    alg = FiniteAlgebra(1, (OperationTable("f", 2, (0,)),))
    rel, ans = generate(alg, [(0, 0, 0)], target=(0, 0, 0))
    assert ans.found and len(rel) == 1


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CUBETERM_BUDGET_BYTES", "1024")
    assert default_budget().dense_limit == 1024
    for junk in ("junk", "1.5", "0", "-8"):
        monkeypatch.setenv("CUBETERM_BUDGET_BYTES", junk)
        with pytest.raises(InputError):
            default_budget()


def test_constant_operation_tables():
    # empty/full minterm lists in the bitwise compiler must still vectorize
    for const in (0, 1):
        alg = FiniteAlgebra(2, (OperationTable("k", 2, (const,) * 4),))
        closure, _ = generate(alg, [(0, 1, 0), (1, 1, 0)])
        assert (const,) * 3 in closure
        assert len(closure) == 3


def test_nonidempotent_closure_with_prefix():
    # constant-0 algebra: prefixed family never reaches the prefixed target
    c0 = FiniteAlgebra(2, (OperationTable("c0", 1, (0, 0)),))
    prefix = (0, 1)
    gens = mix_family((1,) * 4, (0,) * 4, prefix=prefix)
    ans = membership(c0, gens, prefix + (1,) * 4)
    assert not ans.found
    closure, _ = generate(c0, mix_family((1,) * 4, (0,) * 4, prefix=prefix))
    assert (0,) * 6 in closure  # the constant image


def test_code_space_of_exactly_2_to_the_62():
    # two elements, row width 62: the codes still fit int64, so the target
    # must be tracked by its code like any other; width 63 keys by bytes
    neg2 = FiniteAlgebra(2, (OperationTable("neg", 1, (1, 0)),))
    for k in (62, 63):
        t = tuple(i % 2 for i in range(k))
        ans = membership(neg2, [t], t)
        assert ans.found and ans.witness_depth == 0
        ans = membership(neg2, [t], tuple(1 - v for v in t))
        assert ans.found and ans.witness_depth == 1
    # keys order like tuple codes on both sides of n**K = 2**62
    rng = random.Random(62)
    for n, k in ((2, 62), (2, 63), (3, 39), (3, 40)):
        check_keys_like_codes(rng, n, k)


def _feeds(a, b, prefix=(), sizes=(1, 1000, 4095, 4097)):
    """The rows of mix_family(a, b, prefix) fed as tuples, as one array, as
    mix_family's own blocks and as blocks of each of the sizes."""
    rows = np.vstack(list(mix_family(a, b, prefix)))
    yield [tuple(row) for row in rows.tolist()]
    yield [rows]
    yield mix_family(a, b, prefix)
    for size in sizes:
        yield (rows[i:i + size] for i in range(0, len(rows), size))


def test_blocks_and_tuples_give_identical_runs():
    # however the generator rows are blocked, the run is the same: same
    # answers (closure size and witness depth included), same relations
    rng = random.Random(23)
    cases = [(fixture("lattice2"), (1,) * 4, (0,) * 4, ()),
             (fixture("constant3"), (1,) * 4, (2,) * 4, (0, 1, 2)),
             (fixture("semilattice2"), (1, 0, 1), (0, 0, 1), (1,))]
    for _ in range(6):
        n = rng.randint(2, 3)
        k = rng.randint(2, 5)
        cases.append((random_idempotent_algebra(rng, n, [2, 3]),
                      tuple(rng.randrange(n) for _ in range(k)),
                      tuple(rng.randrange(n) for _ in range(k)), ()))
    for alg, a, b, prefix in cases:
        target = tuple(prefix) + tuple(a)
        answers = [membership(alg, gens, target) for gens in _feeds(a, b, prefix)]
        assert all(ans == answers[0] for ans in answers)
        runs = [generate(alg, gens) for gens in _feeds(a, b, prefix)]
        assert all(run == runs[0] for run in runs)


def test_generator_chunks_span_several_blocks():
    # 2**13 - 1 masks on 13 differing coordinates, then a itself: the
    # family arrives as blocks of 4095, 4096 and 1 rows, and blockings
    # that split and join those blocks give the same run
    alg = fixture("semilattice2")
    a, b = (1,) * 14, (0,) * 13 + (1,)
    assert [len(block) for block in mix_family(a, b)] == [4095, 4096, 1]
    runs = [generate(alg, gens, target=a) for gens in _feeds(a, b, sizes=(1000, 4095, 4097))]
    assert runs[0][1].found and all(run == runs[0] for run in runs)


def test_witness_depth_is_breadth_first():
    # on {0,1,2}, f(x, y) = 2 iff (x, y) = (0, 1), and x otherwise: the
    # target 2**13 is f(0**13, 1**13), one round away from the generators,
    # however many generators come before 1**13
    table = tuple(2 if (x, y) == (0, 1) else x for x in range(3) for y in range(3))
    alg = FiniteAlgebra(3, (OperationTable("f", 2, table),))
    ones = (1,) * 13
    gens = [t for t in itertools.product((0, 1), repeat=13) if t != ones][:5000] + [ones]
    for feed in (gens, [np.array(gens)], [np.array(gens[i:i + 1000]) for i in range(0, 5001, 1000)]):
        ans = membership(alg, feed, (2,) * 13)
        assert ans.found and ans.witness_depth == 1


@st.composite
def algebras_and_code_batches(draw):
    """An algebra with 2 to 4 elements and one or two operations of arity 1
    to 3 (a binary one symmetric or not), a dimension d of 1 to 4 (lower
    where a saturating closure would be slow), and a batch of generator
    rows over the codes of A**d with 0 to 3 generators and a target each."""
    n = draw(st.integers(2, 4))
    rng = draw(st.randoms(use_true_random=False))
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    ops = []
    for i, m in enumerate(arities):
        table = [rng.randrange(n) for _ in range(n ** m)]
        if m == 2 and draw(st.booleans()):
            table = [table[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    d = draw(st.integers(1, max(k for k in range(1, 5) if n ** (k * max(arities)) <= 1 << 16)))
    space = n ** d
    rows = draw(st.integers(1, 6))
    gens = np.zeros((rows, space), dtype=bool)
    for r in range(rows):
        gens[r, [rng.randrange(space) for _ in range(rng.randint(0, 3))]] = True
    return FiniteAlgebra(n, tuple(ops)), d, gens, [rng.randrange(space) for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(algebras_and_code_batches())
def test_close_codes_matches_engine(case):
    # per row: the found flag of `membership`, and without a target (or
    # when the target never turns up) the member set of `generate`
    alg, d, gens, targets = case
    n = alg.size
    members, found, truncated = close_codes(alg, d, gens, targets)
    closed, no_target, cut_off = close_codes(alg, d, gens)
    assert not truncated.any() and not cut_off.any() and not no_target.any()
    for r, target in enumerate(targets):
        seeds = [code_tuple(c, d, n) for c in np.flatnonzero(gens[r])]
        closure = {tuple_code(t, n) for t in generate(alg, seeds, arity=d)[0]}
        assert set(np.flatnonzero(closed[r]).tolist()) == closure
        assert found[r] == membership(alg, seeds, code_tuple(target, d, n)).found
        got = set(np.flatnonzero(members[r]).tolist())
        assert got <= closure
        assert got == closure or found[r] and target in got


def test_close_codes_caps():
    # lattice2 at d = 2: (0, 1) and (1, 0) generate (0, 0) by meet and
    # (1, 1) by join in one round.  The member cap applies after a round
    # and the time cap after a kernel chunk (meet's comes first), and a
    # target among the generators is found before either applies
    gens = np.zeros((2, 4), dtype=bool)
    gens[:, [1, 2]] = True
    alg = fixture("lattice2")
    for caps in ({"max_members": 1}, {"max_seconds": 0}):
        _, found, truncated = close_codes(alg, 2, gens, [1, 3], **caps)
        assert found.tolist() == [True, False] and truncated.tolist() == [False, True]
    for caps in ({"max_members": 2}, {"max_seconds": 10}):
        _, found, truncated = close_codes(alg, 2, gens, [1, 3], **caps)
        assert found.all() and not truncated.any()


def test_close_codes_out_of_memory_truncates(monkeypatch):
    # a round whose kernel cannot allocate ends the run: rows still live in
    # it are truncated, a row that found its target among the generators
    # is not, and the pointwise check turns the first truncated pattern into
    # BudgetExceededError; Sg raises rather than answer a partial closure
    real = algebra._ragged_product

    def starved(*args, **kwargs):
        raise MemoryError("no room")
        yield

    monkeypatch.setattr(algebra, "_ragged_product", starved)
    gens = np.zeros((2, 4), dtype=bool)
    gens[:, [1, 2]] = True
    _, found, truncated = close_codes(fixture("lattice2"), 2, gens, [1, 3])
    assert found.tolist() == [True, False] and truncated.tolist() == [False, True]
    # a round that fails after its first chunk keeps what that chunk made:
    # meet(1, 2) = 0 is found, join(1, 2) = 3 is cut off
    def first_chunk_only(*args, **kwargs):
        yield next(real(*args, **kwargs))
        raise MemoryError("no room")

    monkeypatch.setattr(algebra, "_ragged_product", first_chunk_only)
    members, found, truncated = close_codes(fixture("lattice2"), 2, gens, [0, 3])
    assert members[:, 0].all() and not members[:, 3].any()
    assert found.tolist() == [True, False] and truncated.tolist() == [False, True]
    monkeypatch.setattr(algebra, "_ragged_product", starved)
    pattern =r"cube dimension 2: .* pattern \(\(0, 1\), \(0, 1\)\)"
    with pytest.raises(BudgetExceededError, match=pattern):
        check_cube_dim(idempotent_quasigroup(3), 2)
    # beyond the set kernel's bound Sg closes in close_codes, whose starved
    # round truncates the closure, and sg raises rather than return it
    with pytest.raises(MemoryError):
        sg(idempotent_quasigroup(41), [0, 1])
    # Sg's rounds over the small lattice tables run the set kernel
    def no_room(*args, **kwargs):
        raise MemoryError("no room")

    monkeypatch.setattr(algebra, "_images", no_room)
    with pytest.raises(MemoryError):
        sg(fixture("lattice2"), [0])


# -- orbit closure ---------------------------------------------------------------


def draw_operations(draw, n, arities):
    """One operation per arity: a random table, a constant, a projection
    or, when binary, a symmetric table."""
    ops = []
    for i, m in enumerate(arities):
        args = list(itertools.product(range(n), repeat=m))
        kind = draw(st.sampled_from(["table", "constant", "projection", "symmetric"]))
        if kind == "constant":
            table = [draw(st.integers(0, n - 1))] * len(args)
        elif kind == "projection":
            j = draw(st.integers(0, m - 1))
            table = [v[j] for v in args]
        elif kind == "symmetric" and m == 2:
            upper = {v: draw(st.integers(0, n - 1)) for v in args if v[0] <= v[1]}
            table = [upper[tuple(sorted(v))] for v in args]
        else:
            table = draw(st.lists(st.integers(0, n - 1), min_size=len(args),
                                  max_size=len(args)))
        ops.append(OperationTable(f"f{i}", m, tuple(table)))
    return ops


@st.composite
def orbit_queries(draw):
    """An algebra on 2 or 3 elements with one or two operations of arity
    1-3 (random tables, constants, projections, symmetric binary ones) and
    a dimension d whose tuple query stays small."""
    n = draw(st.sampled_from([2, 3]))
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    ops = draw_operations(draw, n, arities)
    # the tuple oracle's closures live in A**(n + d); on three elements its
    # saturating binary and ternary runs take seconds beyond these d
    top = 6 if n == 2 else {1: 6, 2: 4, 3: 3}[max(arities)]
    return FiniteAlgebra(n, tuple(ops)), draw(st.integers(1, top))


@settings(max_examples=200, deadline=None)
@given(orbit_queries())
def test_orbit_query_matches_tuple_query(case):
    # the general path's generator family goes to both queries, and the
    # tuple query is the oracle: the same found flag and depth for every
    # pair, and on saturated runs the orbit sizes sum to the tuple
    # closure's size
    alg, d = case
    n = alg.size
    prefix = tuple(range(n))
    for a, b in itertools.permutations(range(n), 2):
        gens, target = list(mix_family((a,) * d, (b,) * d, prefix=prefix)), prefix + (a,) * d
        tuples = membership(alg, gens, target)
        orbits = membership(alg, gens, target, blocks=(d,))
        assert not tuples.truncated and not orbits.truncated
        assert (orbits.found, orbits.witness_depth) == (tuples.found, tuples.witness_depth)
        if not tuples.found:
            assert orbits.closure_size == tuples.closure_size


def test_orbit_query_in_small_steps_matches_tuple_query(monkeypatch):
    # orbits.KERNEL_CELLS patched small cuts each round into many `_apply`
    # steps, each computing the margin tables of its own margin sets; the
    # pair queries of unary operations, of binary ones on two elements (the
    # closed form) and of a binary one on three elements and a ternary one
    # on two (the dynamic program) give the tuple query's found flag and
    # depth either way, and its closure size on saturated runs
    cases = [(fixture("constant3"), 4),
             (FiniteAlgebra(3, (OperationTable("cycle", 1, (1, 2, 0)),
                                OperationTable("c0", 1, (0, 0, 0)))), 4),
             (fixture("nand2"), 6),
             (FiniteAlgebra(2, (OperationTable("andnot", 2, (0, 0, 1, 0)),)), 6),
             (FiniteAlgebra(3, (OperationTable("h", 2, (0, 0, 1, 2, 1, 1, 2, 2, 2)),)), 4),
             (FiniteAlgebra(2, (OperationTable("g", 3, (0, 1, 0, 1, 0, 1, 1, 1)),)), 6)]
    steps = {}  # KERNEL_CELLS -> the margin sets of each `_margin_tables` call
    margin_tables = orbits._margin_tables

    def counted(op, margins):
        steps.setdefault(orbits.KERNEL_CELLS, []).append(margins.shape)
        return margin_tables(op, margins)

    monkeypatch.setattr(orbits, "_margin_tables", counted)
    found = set()
    for alg, d in cases:
        prefix = tuple(range(alg.size))
        for a, b in itertools.permutations(range(alg.size), 2):
            gens, target = list(mix_family((a,) * d, (b,) * d, prefix=prefix)), prefix + (a,) * d
            tuples = membership(alg, gens, target)
            found.add(tuples.found)
            for cells in (algebra.KERNEL_CELLS, 16):
                monkeypatch.setattr(orbits, "KERNEL_CELLS", cells)
                ans = membership(alg, gens, target, blocks=(d,))
                assert (ans.found, ans.witness_depth, ans.truncated) == \
                    (tuples.found, tuples.witness_depth, False)
                if not tuples.found:
                    assert ans.closure_size == tuples.closure_size
    assert found == {True, False}
    assert len(steps[16]) > 2 * len(steps[algebra.KERNEL_CELLS])
    assert {shape[1:] == (2, 2) for shape in steps[16]} == {True, False}


def test_orbit_query_counts_tuples_and_caps_orbits():
    # x and not y on {0, 1} at d = 6, pair (1, 0): the closure misses the
    # target; its 12 orbits hold as many tuples as the tuple closure
    alg = FiniteAlgebra(2, (OperationTable("andnot", 2, (0, 0, 1, 0)),))
    gens, target = list(mix_family((1,) * 6, (0,) * 6, prefix=(0, 1))), (0, 1) + (1,) * 6
    tuples = membership(alg, gens, target)
    full = membership(alg, gens, target, blocks=(6,))
    assert not full.found and not full.truncated
    assert full.closure_size == tuples.closure_size == 126
    # max_members caps the stored orbits, not the tuples they stand for
    capped = membership(alg, gens, target, blocks=(6,), budget=Budget(max_members=6))
    assert capped.truncated and not capped.found
    assert 6 < capped.closure_size <= full.closure_size
    dec = decide_cube_general(alg, budget=Budget(max_members=3))
    assert dec.verdict == UNDECIDED and dec.note.startswith("closure budget exhausted")
    # the time cap as before
    slow = membership(alg, gens, target, blocks=(6,), budget=Budget(max_seconds=0))
    assert slow.truncated and not slow.found


def test_membership_checks_its_tuples_and_blocks():
    # orbit queries check the rows as tuple queries do, and take block
    # sizes that are integers (not bools) of at least 1 and fit into the
    # target's coordinates; no blocks at all is the tuple query
    alg = fixture("nand2")
    gens, target = [(0, 1, 1, 0, 0)], (0, 1, 0, 0, 0)
    assert membership(alg, gens, target, blocks=()) == membership(alg, gens, target)
    for blocks in ((3,), (2, 1, 2), (5,), np.array([2, 3])):
        assert not membership(alg, gens, target, blocks=blocks).truncated
    for bad in ([(0, 1, 2, 0, 0)], [(0, 1, -1, 0, 0)], [(0, 1, 1, 0)], [(0, 1, 1, 0, 0, 0)]):
        with pytest.raises(ValueError):
            membership(alg, bad, target, blocks=(3,))
    with pytest.raises(ValueError):
        membership(alg, gens, (0, 1, 2, 0, 0), blocks=(3,))
    for blocks in ((0,), (3, 0), (-1, 3), (6,), (3, 3), (1.5, 1.5), ("2",), (True, 2)):
        with pytest.raises(ValueError):
            membership(alg, gens, target, blocks=blocks)


def test_orbits_module_loads_on_the_first_orbit_query():
    # `import cubeterm` leaves the orbit module out, so its compile time
    # stays off every import; the first query with blocks loads it
    script = ("import sys, cubeterm as ct; assert 'cubeterm.orbits' not in sys.modules; "
              "ct.membership(ct.fixture('lattice2'), [(0, 1)], (1, 0), blocks=(2,)); "
              "assert 'cubeterm.orbits' in sys.modules")
    src = str(Path(cubeterm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)


@st.composite
def young_orbit_queries(draw):
    """An algebra on 2 or 3 elements with one or two unary or binary
    operations (random tables, constants, projections, symmetric binary
    ones), 1-3 blocks of coordinates after a prefix of 0-2, at most 7
    coordinates in all, and generator and target tuples."""
    n = draw(st.sampled_from([2, 3]))
    ops = draw_operations(draw, n, draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
    prefix = draw(st.integers(0, 2))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda s: prefix + sum(s) <= 7))
    row = st.tuples(*[st.integers(0, n - 1)] * (prefix + sum(sizes)))
    gens = draw(st.lists(row, min_size=1, max_size=3))
    return FiniteAlgebra(n, tuple(ops)), sizes, gens, draw(row)


def orbit_tuples(sizes, row):
    """The tuples of the orbit of row: its prefix, then per block every
    arrangement of the block's entries."""
    prefix = start = len(row) - sum(sizes)
    blocks = []
    for s in sizes:
        blocks.append(sorted(set(itertools.permutations(row[start:start + s]))))
        start += s
    return [row[:prefix] + sum(parts, ()) for parts in itertools.product(*blocks)]


@settings(max_examples=100, deadline=None)
@given(young_orbit_queries())
def test_young_orbit_query_matches_tuple_query(case):
    # every tuple of the generator orbits goes to both queries, and the
    # tuple query is the oracle: the same found flag, depth and
    # truncation, and on saturated runs the orbit sizes sum to the tuple
    # closure's size
    alg, sizes, gens, target = case
    family = [t for row in gens for t in orbit_tuples(sizes, row)]
    tuples = membership(alg, family, target)
    orbits = membership(alg, family, target, blocks=sizes)
    assert (orbits.found, orbits.witness_depth, orbits.truncated) == \
        (tuples.found, tuples.witness_depth, tuples.truncated)
    if not tuples.found:
        assert orbits.closure_size == tuples.closure_size


def test_margin_tables_match_enumerated_tables():
    # binary tables on {0, 1} (the closed form) and on {0, 1, 2} (the
    # dynamic program): for each margin pair of total s <= 6 and s <= 3,
    # the distinct count vectors of all n x n tables with those margins
    for n, top in ((2, 6), (3, 3)):
        grids = {}  # margins -> the tables with them, as cell counts
        for s in range(top + 1):
            for cells in itertools.product(range(s + 1), repeat=n * n):
                if sum(cells) == s:
                    grid = np.array(cells).reshape(n, n)
                    margins = tuple(grid.sum(axis=1)) + tuple(grid.sum(axis=0))
                    grids.setdefault(margins, []).append(cells)
        margins = np.array(sorted(grids)).reshape(-1, 2, n)
        rng = random.Random(n)
        for _ in range(12):
            table = tuple(rng.randrange(n) for _ in range(n * n))
            ops = FiniteAlgebra(n, (OperationTable("f", 2, table),)).compiled.ops
            if not ops:
                continue  # a projection
            sets, counts = _margin_tables(ops[0], margins)
            assert (np.diff(sets) >= 0).all()
            for u, key in enumerate(sorted(grids)):
                want = {tuple(np.bincount(table, weights=cells, minlength=n).astype(int).tolist())
                        for cells in grids[key]}
                got = [tuple(c) for c in counts[sets == u].tolist()]
                assert len(got) == len(set(got)) and set(got) == want
