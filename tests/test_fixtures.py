import random
from itertools import product

import pytest

from conftest import random_idempotent_algebra
from cubeterm.algebra import MAX_SIZE
from cubeterm import (
    BudgetExceededError,
    FiniteAlgebra,
    TightExampleParams,
    check_cube_dim,
    clone_part,
    constant3_elusive_relation,
    exhaustive_chipped_cube_search,
    fixture,
    idempotent_quasigroup,
    is_compatible,
    is_elusive_witness,
    is_idempotent,
    mask_of,
    no_ops,
    scan_clone_for,
    tight_example,
    validate,
)


def test_named_fixture_tables():
    assert fixture("lattice2").operations[0].table == (0, 0, 0, 1)
    assert fixture("lattice2").operations[1].table == (0, 1, 1, 1)
    assert fixture("semilattice2").operations[0].table == (0, 0, 0, 1)
    assert fixture("nand2").operations[0].table == (1, 1, 1, 0)
    assert fixture("constant3").operations[0].table == (2, 2, 2)
    assert fixture("no_ops3").operations == ()
    for name in ("lattice2", "semilattice2", "nand2", "constant3", "no_ops4"):
        assert validate(fixture(name)) == []


def test_no_ops_size_range():
    # sizes the engine supports, and nothing that `validate` would reject
    assert validate(no_ops(MAX_SIZE)) == [] and no_ops(1).size == 1
    for n in (0, MAX_SIZE + 1, 70000):
        with pytest.raises(ValueError, match="universe size"):
            no_ops(n)


def test_generators_refuse_sizes_beyond_max_size():
    # the same refusal as no_ops, before any table is built
    for build in (idempotent_quasigroup, lambda n: TightExampleParams(n, (2, 2))):
        for n in (MAX_SIZE + 1, 70001):
            with pytest.raises(ValueError, match="universe size"):
                build(n)
    assert TightExampleParams(MAX_SIZE, (2, 2)).N == 3


def test_unknown_fixture():
    with pytest.raises(KeyError):
        fixture("heap7")


def _assert_idempotent_latin(alg: FiniteAlgebra):
    n = alg.size
    t = alg.operations[0].table
    for x in range(n):
        assert t[x * n + x] == x
        assert sorted(t[x * n + y] for y in range(n)) == list(range(n))
        assert sorted(t[y * n + x] for y in range(n)) == list(range(n))


def test_quasigroup_odd_formula():
    q3 = idempotent_quasigroup(3)
    assert q3.operations[0].table == tuple((2 * x + 2 * y) % 3
                                           for x in range(3) for y in range(3))
    q5 = idempotent_quasigroup(5)
    assert q5.operations[0].table == tuple((3 * (x + y)) % 5
                                           for x in range(5) for y in range(5))


def test_quasigroup_axioms_all_small_orders():
    for n in (3, 4, 5, 6, 7, 8):
        _assert_idempotent_latin(idempotent_quasigroup(n))


def test_quasigroup_rejects_tiny_orders():
    with pytest.raises(ValueError):
        idempotent_quasigroup(2)


def test_tight_params_derived_values():
    p = TightExampleParams(3, (3,))
    assert (p.r, p.N) == (1, 3)
    assert p.pair_partition() == [[(0, 1), (0, 2), (1, 2)]]
    p = TightExampleParams(3, (2, 2))
    assert (p.r, p.N) == (2, 3)
    assert p.pair_partition() == [[(0, 1), (1, 2)], [(0, 2)]]
    p = TightExampleParams(4, (2, 2, 2))
    assert (p.r, p.N) == (3, 4)


def test_tight_params_validation():
    with pytest.raises(ValueError):
        TightExampleParams(2, (2,))  # n = 2 needs N > 2
    with pytest.raises(ValueError):
        TightExampleParams(3, (1, 2))  # unary operations excluded
    with pytest.raises(ValueError):
        TightExampleParams(3, ())


def test_tight_construction_details():
    alg = tight_example(TightExampleParams(3, (3,)))
    f = alg.operations[0]
    t = f.table
    # one-off patterns fall to the smaller element, everything else to max
    assert t[0 * 9 + 0 * 3 + 1] == 0   # f(0,0,1): one 1 among 0s
    assert t[1 * 9 + 0 * 3 + 0] == 0   # f(1,0,0): one 1 among 0s
    assert t[1 * 9 + 2 * 3 + 1] == 1   # f(1,2,1): one 2 among 1s
    assert t[1 * 9 + 2 * 3 + 2] == 2   # f(1,2,2): two 2s, takes the max
    assert t[0 * 9 + 1 * 3 + 2] == 2   # f(0,1,2): three values, takes the max
    assert is_idempotent(alg)


def test_tight_second_operation_is_projection():
    alg = tight_example(TightExampleParams(2, (3, 3)))
    p = TightExampleParams(2, (3, 3))
    assert (p.r, p.N) == (1, 3)
    f2 = alg.operations[1]
    assert f2.table == tuple(a for a in range(2) for _ in range(4))


def test_tight_operations_are_conservative():
    for params in (TightExampleParams(3, (3,)), TightExampleParams(4, (2, 2, 2))):
        alg = tight_example(params)
        n = alg.size
        for op in alg.operations:
            for args in product(range(n), repeat=op.arity):
                idx = 0
                for a in args:
                    idx = idx * n + a
                assert op.table[idx] in args


def test_tight_n2_case_dimension_profile():
    p = TightExampleParams(2, (3, 3))
    alg = tight_example(p)
    assert check_cube_dim(alg, p.N) and not check_cube_dim(alg, p.N - 1)


def test_tight_maltsev_special_case():
    alg = tight_example(TightExampleParams(3, (2,)))
    assert alg.operations[0].table == idempotent_quasigroup(3).operations[0].table


def test_constant3_relation_contents():
    rel = constant3_elusive_relation(2)
    assert set(rel) == {(2, 2), (0, 0), (0, 1), (1, 1)}
    for k in range(2, 7):
        assert len(constant3_elusive_relation(k)) == 2 ** k
    with pytest.raises(ValueError):
        constant3_elusive_relation(1)


def test_constant3_relation_compatible_and_elusive():
    c3 = fixture("constant3")
    rel = constant3_elusive_relation(4)
    assert is_compatible(c3, rel)
    assert is_elusive_witness(rel, (1, 0, 0, 0), (0, 1, 1, 1))


def test_clone_part_semilattice():
    rel = clone_part(fixture("semilattice2"), 2)
    assert set(rel) == {(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1)}


def test_clone_part_contains_projections():
    for name in ("lattice2", "nand2", "semilattice2"):
        rel = clone_part(fixture(name), 2)
        assert (0, 0, 1, 1) in rel and (0, 1, 0, 1) in rel


def test_clone_part_nand_contains_majority():
    rel = clone_part(fixture("nand2"), 3)
    assert (0, 0, 0, 1, 0, 1, 1, 1) in rel
    assert len(rel) == 256  # nand is functionally complete


def test_clone_part_budget():
    with pytest.raises(BudgetExceededError):
        clone_part(fixture("constant3"), 9)


def test_clone_part_rejects_negative_arity():
    # n ** -1 is a float: k < 0 once crashed with a TypeError
    with pytest.raises(ValueError):
        clone_part(fixture("lattice2"), -1)
    assert len(clone_part(fixture("lattice2"), 0)) == 0


def test_scan_clone_nu_and_maltsev():
    lat3 = clone_part(fixture("lattice2"), 3)
    assert scan_clone_for("nu", lat3)
    assert not scan_clone_for("maltsev", lat3)
    semi3 = clone_part(fixture("semilattice2"), 3)
    assert not scan_clone_for("nu", semi3)
    q3 = clone_part(idempotent_quasigroup(3), 3)
    assert scan_clone_for("maltsev", q3)
    assert not scan_clone_for("nu", q3)


def test_scan_clone_validation():
    lat2 = clone_part(fixture("lattice2"), 2)
    with pytest.raises(ValueError):
        scan_clone_for("nu", lat2)  # needs arity >= 3
    with pytest.raises(ValueError):
        scan_clone_for("cube", lat2, dim=2)  # needs 2^2 - 1 = 3 arguments
    with pytest.raises(ValueError):
        scan_clone_for("sharp", clone_part(fixture("lattice2"), 3))


def test_scan_clone_agrees_with_nu_check_on_two_element_fixtures():
    from cubeterm import check_nu
    for name in ("lattice2", "semilattice2", "nand2"):
        alg = fixture(name)
        assert scan_clone_for("nu", clone_part(alg, 3)) == check_nu(alg, 3)


def test_chipped_cube_search_semilattice():
    spec = exhaustive_chipped_cube_search(fixture("semilattice2"), 2)
    assert spec is not None
    assert spec.blocks == ((mask_of([0]), mask_of([0, 1]), 1),) * 2


def test_chipped_cube_search_negative_cases():
    assert exhaustive_chipped_cube_search(fixture("lattice2"), 3) is None
    assert exhaustive_chipped_cube_search(idempotent_quasigroup(3), 2) is None


def test_chipped_cube_search_rejects_non_idempotent():
    with pytest.raises(ValueError):
        exhaustive_chipped_cube_search(fixture("nand2"), 2)


def test_chipped_cube_obstruction_matches_dimension_check():
    rng = random.Random(67)
    algebras = [fixture("lattice2"), fixture("semilattice2"),
                idempotent_quasigroup(3)]
    algebras += [random_idempotent_algebra(rng, 2, [rng.randint(2, 3)])
                 for _ in range(10)]
    for alg in algebras:
        for d in (2, 3):
            found = exhaustive_chipped_cube_search(alg, d) is not None
            assert found == (not check_cube_dim(alg, d))
