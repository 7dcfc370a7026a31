"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The random samples are
seeded, so every run checks the same algebras.
"""

import random
import time
from itertools import product

import pytest

from conftest import random_idempotent_algebra
from cubeterm import (
    Blocker,
    FiniteAlgebra,
    OperationTable,
    bound_general,
    bound_idempotent_N,
    bound_quadratic_linear,
    check_cube_dim,
    check_edge_dim,
    check_nu,
    constant3_elusive_relation,
    decide_cube_general,
    decide_cube_idempotent,
    decide_nu,
    exhaustive_blocker_search,
    exhaustive_chipped_cube_search,
    find_blocker,
    fixture,
    idempotent_quasigroup,
    is_compatible,
    is_elusive_witness,
    mask_of,
    tight_example,
    TightExampleParams,
)
from cubeterm.decide import idempotent_bound_applies

SEED = 20250811


def _report(number: int, label: str, started: float, limit_s: float):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def two_element_sample():
    """100 seeded random idempotent algebras on {0,1} with arities <= 3."""
    rng = random.Random(SEED)
    sample = []
    for _ in range(100):
        arities = [rng.choice([2, 3]) for _ in range(rng.choice([1, 2]))]
        sample.append(random_idempotent_algebra(rng, 2, arities))
    return sample


def test_criterion_01_two_element_lattice():
    t0 = time.monotonic()
    lat = fixture("lattice2")
    for call, expect in (
        (lambda: check_cube_dim(lat, 2), False),
        (lambda: check_cube_dim(lat, 3), True),
        (lambda: check_nu(lat, 3), True),
    ):
        t = time.monotonic()
        assert call() == expect
        assert time.monotonic() - t < 1.0
    nu = decide_nu(lat)
    assert nu.verdict == "has_nu" and nu.arity == 3
    _report(1, "two-element lattice dimension and NU profile", t0, 10.0)


def test_criterion_02_two_element_semilattice():
    t0 = time.monotonic()
    semi = fixture("semilattice2")
    assert find_blocker(semi) == Blocker(mask_of([0]), mask_of([0, 1]))
    assert decide_cube_idempotent(semi).verdict == "no_cube_term"
    for d in range(2, 6):
        assert not check_cube_dim(semi, d)
    _report(2, "semilattice blocker and all dimension checks negative", t0, 1.0)


def test_criterion_03_algorithm_matches_exhaustive_search():
    t0 = time.monotonic()
    # every idempotent binary table on two elements
    for x, y in product((0, 1), repeat=2):
        alg = FiniteAlgebra(2, (OperationTable("f", 2, (0, x, y, 1)),))
        assert (find_blocker(alg) is None) == (exhaustive_blocker_search(alg) is None)
    rng = random.Random(SEED + 3)
    for _ in range(200):
        alg = random_idempotent_algebra(rng, 3, [2, 3])
        assert (find_blocker(alg) is None) == (exhaustive_blocker_search(alg) is None)
    _report(3, "blocker search agrees with the exhaustive oracle (204 algebras)",
            t0, 300.0)


def test_criterion_04_blocker_iff_cube_term(two_element_sample):
    t0 = time.monotonic()
    for alg in two_element_sample:
        no_blocker = find_blocker(alg) is None
        if idempotent_bound_applies(alg):
            d = bound_idempotent_N(alg)
        else:
            # two-element N = 2 corner: the N bound is invalid, use 8m
            d = bound_general(alg)
            assert d == 8 * alg.max_arity
        assert no_blocker == check_cube_dim(alg, d), alg.operations
    _report(4, "no blocker iff cube term at the dimension bound (100 algebras)",
            t0, 600.0)


def test_criterion_05_chipped_cube_obstruction(two_element_sample):
    t0 = time.monotonic()
    for alg in two_element_sample:
        for d in (2, 3):
            found = exhaustive_chipped_cube_search(alg, d) is not None
            assert found == (not check_cube_dim(alg, d)), alg.operations
    _report(5, "compatible chipped cube iff no cube term at d in {2,3}", t0, 600.0)


def test_criterion_06_tight_examples():
    t0 = time.monotonic()
    for n, arities, expected_N in ((3, (3,), 3), (3, (2, 2), 3), (4, (2, 2, 2), 4)):
        params = TightExampleParams(n, arities)
        assert params.N == expected_N
        alg = tight_example(params)
        t = time.monotonic()
        assert check_cube_dim(alg, params.N)
        assert not check_cube_dim(alg, params.N - 1)
        assert time.monotonic() - t < 300.0
    _report(6, "tight examples have dimension exactly N", t0, 900.0)


def test_criterion_07_idempotent_quasigroups():
    t0 = time.monotonic()
    for n in (3, 5):
        q = idempotent_quasigroup(n)
        assert check_cube_dim(q, 2)
        assert find_blocker(q) is None
    _report(7, "quasigroups of order 3 and 5 have a dimension-2 cube term", t0, 10.0)


def test_criterion_08_general_decision():
    t0 = time.monotonic()
    assert decide_cube_general(fixture("nand2")).verdict == "has_cube_term"
    const0 = FiniteAlgebra(2, (OperationTable("c0", 1, (0, 0)),))
    dec = decide_cube_general(const0)
    assert dec.verdict == "no_cube_term"
    assert dec.dimension_bound == 8 and dec.failing_pair is not None
    join2 = FiniteAlgebra(2, (OperationTable("join", 2, (0, 1, 1, 1)),))
    proj2 = FiniteAlgebra(2, (OperationTable("p1", 2, (0, 0, 1, 1)),
                              OperationTable("p2", 2, (0, 1, 0, 1))))
    for alg in (fixture("lattice2"), fixture("semilattice2"), join2, proj2):
        forced = decide_cube_general(alg)
        assert forced.verdict == decide_cube_idempotent(alg).verdict
    _report(8, "general decision: nand, constant-0, forced-general agreement",
            t0, 300.0)


def test_criterion_09_non_idempotent_counterexample():
    t0 = time.monotonic()
    c3 = fixture("constant3")
    for k in range(2, 7):
        rel = constant3_elusive_relation(k)
        assert len(rel) == 2 ** k
        assert is_compatible(c3, rel)
        a = (1,) + (0,) * (k - 1)
        b = (0,) + (1,) * (k - 1)
        assert is_elusive_witness(rel, a, b)
    _report(9, "constant-algebra elusive relations for k = 2..6", t0, 1.0)


def test_criterion_10_edge_iff_cube(two_element_sample):
    t0 = time.monotonic()
    fixtures = [fixture(name) for name in
                ("lattice2", "semilattice2", "nand2", "constant3",
                 "no_ops2", "no_ops3")]
    for alg in fixtures + two_element_sample:
        for d in (2, 3):
            assert check_edge_dim(alg, d) == check_cube_dim(alg, d), alg.operations
    _report(10, "edge term iff cube term at d in {2,3} (106 algebras)", t0, 600.0)


def test_criterion_11_bound_formulas():
    t0 = time.monotonic()
    three_ary = FiniteAlgebra(3, (OperationTable("f", 3, (0,) * 27),))
    assert bound_idempotent_N(three_ary) == 3
    assert bound_quadratic_linear(three_ary) == 7
    two_lattice = fixture("lattice2")
    assert bound_general(two_lattice) == 16
    _report(11, "bound formulas give 3, 7 and 16 on the worked examples", t0, 1.0)
