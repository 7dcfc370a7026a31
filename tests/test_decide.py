import math
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from conftest import (
    binary_constant3,
    brute_force_automorphisms,
    random_algebra,
    random_idempotent_algebra,
    relabel,
    symmetric_idempotent_algebra,
)
from cubeterm import (
    HAS_CUBE,
    NO_CUBE,
    UNDECIDED,
    Blocker,
    Budget,
    BudgetExceededError,
    CubeDecision,
    FiniteAlgebra,
    MembershipAnswer,
    OperationTable,
    bound_general,
    bound_idempotent_N,
    bound_quadratic_linear,
    check_cube_dim,
    check_edge_dim,
    check_nu,
    decide_cube,
    decide_cube_general,
    decide_cube_idempotent,
    decide_nu,
    find_blocker,
    fixture,
    idempotent_quasigroup,
    is_idempotent,
    mask_of,
    membership,
    minimal_cube_dimension,
    mix_family,
)
from cubeterm import decide


def _alg(n, *arities):
    return FiniteAlgebra(n, tuple(
        OperationTable(f"f{i}", m, (0,) * n ** m) for i, m in enumerate(arities)
    ))


def const0():
    return FiniteAlgebra(2, (OperationTable("c0", 1, (0, 0)),))


# -- bound formulas ----------------------------------------------------------

def test_bound_idempotent_N():
    assert bound_idempotent_N(_alg(3, 3)) == 3
    assert bound_idempotent_N(_alg(2, 2)) == 2
    assert bound_idempotent_N(_alg(3, 2, 2, 2, 2)) == 4


def test_bound_quadratic_linear():
    assert bound_quadratic_linear(_alg(3, 3)) == 7
    assert bound_quadratic_linear(_alg(2, 2)) == 2
    assert bound_quadratic_linear(_alg(4, 2)) == 7


def test_bound_general():
    assert bound_general(_alg(2, 2)) == 16
    assert bound_general(_alg(3, 1)) == 27
    assert bound_general(FiniteAlgebra(1, ())) == 1
    assert bound_general(FiniteAlgebra(3, ())) == 0


# -- fixed-dimension checks --------------------------------------------------

def test_cube_dim_lattice():
    lat = fixture("lattice2")
    assert not check_cube_dim(lat, 1)
    assert not check_cube_dim(lat, 2)
    assert check_cube_dim(lat, 3)


def test_cube_dim_quasigroup():
    assert check_cube_dim(idempotent_quasigroup(3), 2)


def test_cube_dim_methods_agree():
    rng = random.Random(41)
    algebras = [fixture("lattice2"), fixture("semilattice2"),
                idempotent_quasigroup(3)]
    algebras += [random_idempotent_algebra(rng, 2, [rng.randint(2, 3)])
                 for _ in range(15)]
    for alg in algebras:
        for d in (2, 3):
            assert check_cube_dim(alg, d, method="stacked") == \
                check_cube_dim(alg, d, method="pointwise")


def test_cube_dim_monotone():
    rng = random.Random(43)
    algebras = [fixture("lattice2"), idempotent_quasigroup(3)]
    algebras += [random_idempotent_algebra(rng, 2, [3]) for _ in range(10)]
    for alg in algebras:
        if check_cube_dim(alg, 2):
            assert check_cube_dim(alg, 3)
        if check_cube_dim(alg, 3):
            assert check_cube_dim(alg, 4)


def test_cube_dim_input_validation():
    with pytest.raises(ValueError):
        check_cube_dim(fixture("lattice2"), 0)
    with pytest.raises(ValueError):
        check_cube_dim(fixture("nand2"), 2, method="pointwise")
    with pytest.raises(ValueError):
        check_cube_dim(fixture("nand2"), 1, method="pointwise")
    with pytest.raises(ValueError):
        check_cube_dim(fixture("lattice2"), 2, method="bogus")
    with pytest.raises(ValueError):
        check_cube_dim(FiniteAlgebra(1, ()), 2, method="bogus")


def _cube_family_verdict(alg, d, budget):
    """The d-cube question asked with all 2**d - 1 cube columns: one
    `mix_family` query per pattern for idempotent input, else one stacked
    query built by the column rule; None when the budget runs out."""
    n = alg.size
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    if is_idempotent(alg):
        for pattern in combinations_with_replacement(pairs, d):
            a, b = zip(*pattern)
            ans = membership(alg, mix_family(a, b), a, budget=budget)
            if not ans.found:
                return None if ans.truncated else False
        return True

    def column(chosen):
        return (tuple(b if i in chosen else a for i in range(d) for a, b in pairs)
                + tuple(range(n)))

    columns = [column({i for i in range(d) if m >> i & 1}) for m in range(1, 1 << d)]
    ans = membership(alg, columns, column(()), budget=budget)
    return None if ans.truncated and not ans.found else ans.found


def test_cube_dim_matches_full_cube_family():
    # the edge-column checks against the cube columns written out, on
    # random algebras idempotent or not; queries the short budget cuts off
    # are skipped
    rng = random.Random(71)
    verdicts = []
    for _ in range(40):
        n, idempotent = rng.choice((2, 3)), rng.random() < 0.5
        arities = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        alg = (random_idempotent_algebra if idempotent else random_algebra)(rng, n, arities)
        for d in (2, 3, 4):
            budget = Budget(max_seconds=0.1)
            expected = _cube_family_verdict(alg, d, budget)
            if expected is None:
                continue
            for method in ("stacked", "pointwise") if idempotent else ("stacked",):
                try:
                    got = check_cube_dim(alg, d, method=method, budget=budget)
                except BudgetExceededError:
                    continue
                assert got == expected, (alg, d, method)
                verdicts.append(got)
    assert len(verdicts) >= 40 and True in verdicts and False in verdicts


def test_cube_dim_high_dimension_is_fast():
    # d + 1 generator columns: both answers within two seconds, where 2**d - 1
    # cube columns would not fit in memory
    budget = Budget(max_seconds=2)
    assert check_cube_dim(fixture("constant3"), 30, budget=budget) is False
    assert check_cube_dim(fixture("nand2"), 40, budget=budget) is True


def test_edge_equals_cube_on_fixtures():
    # on nand2 and constant3 both checks ask the same stacked edge query, so
    # the written-out cube families are the comparison that tells
    for name in ("lattice2", "semilattice2", "nand2", "constant3", "no_ops2"):
        alg = fixture(name)
        for d in (2, 3):
            cube = check_cube_dim(alg, d)
            assert check_edge_dim(alg, d) == cube == _cube_family_verdict(alg, d, Budget())


# Patterns of one binary operation on {0, 1, 2} at d = 2 under a cap of 4
# members: some fail with a closure of 3 or 4 members, the others that fail
# pass the cap first.  The two tables are the same algebra under two
# labellings, which put a different kind of pattern first.
CUT_OFF_FIRST = FiniteAlgebra(3, (OperationTable("f", 2, (0, 2, 0, 1, 1, 1, 1, 1, 2)),))
FAILING_FIRST = FiniteAlgebra(3, (OperationTable("f", 2, (0, 1, 1, 1, 1, 1, 2, 0, 2)),))


def _pattern_outcomes(alg, budget):
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    out = []
    for pattern in combinations_with_replacement(pairs, 2):
        a, b = np.array(pattern).T
        ans = membership(alg, [np.where(decide._edge_rows(2), b, a)], a, budget=budget)
        out.append("found" if ans.found else "cut off" if ans.truncated else "failing")
    return out


@pytest.mark.parametrize("space, cells", [(None, None), (None, 9), (0, None)])
def test_pointwise_first_failing_or_cut_off_pattern_decides(monkeypatch, space, cells):
    # batched (one block, or one pattern per block) and one query per pattern
    if space is not None:
        monkeypatch.setattr(decide, "POINTWISE_BATCH_SPACE", space)
    if cells is not None:
        monkeypatch.setattr(decide, "POINTWISE_BATCH_CELLS", cells)
    budget = Budget(max_members=4)
    for alg, first, later in ((CUT_OFF_FIRST, "cut off", "failing"),
                              (FAILING_FIRST, "failing", "cut off")):
        outcomes = _pattern_outcomes(alg, budget)
        at = next(i for i, o in enumerate(outcomes) if o != "found")
        assert outcomes[at] == first and later in outcomes[at + 1:]
        assert check_cube_dim(alg, 2) is False
    assert check_cube_dim(FAILING_FIRST, 2, budget=budget) is False
    with pytest.raises(BudgetExceededError, match=r"pattern \(\(0, 1\), \(0, 1\)\)"):
        check_cube_dim(CUT_OFF_FIRST, 2, budget=budget)


def test_pattern_blocks_keep_the_first_pattern_of_each_orbit():
    # against the orbits written out: a multiset of value pairs is kept iff
    # no automorphism maps it, sorted at coordinates {0, 1} and at the rest
    # apart (the same edge query), onto a smaller sorted pair tuple
    def edge_image(s, p):
        image = [(s[a], s[b]) for a, b in p]
        return tuple(sorted(image[:2])) + tuple(sorted(image[2:]))

    rng = random.Random(23)
    cases = [(idempotent_quasigroup(3), 3), (idempotent_quasigroup(3), 4),
             (idempotent_quasigroup(5), 3),
             (symmetric_idempotent_algebra(rng, 4, [2], (1, 0, 3, 2)), 2),
             (symmetric_idempotent_algebra(rng, 4, [2], (1, 0, 3, 2)), 3),
             (FiniteAlgebra(2, (OperationTable("maj", 3, (0, 0, 0, 1, 0, 1, 1, 1)),)), 5)]
    for alg, d in cases:
        n, group = alg.size, brute_force_automorphisms(alg)
        assert len(group) > 1
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        expected = [p for p in combinations_with_replacement(pairs, d)
                    if not any(q < p and list(q) == sorted(q)
                               for q in (edge_image(s, p) for s in group))]
        assert len(expected) < math.comb(len(pairs) + d - 1, d)
        for rows in (1, 7, 500):
            kept = [tuple(zip(*pattern)) for a, b in decide._pattern_blocks(alg, d, rows)
                    for pattern in zip(a.tolist(), b.tolist())]
            assert kept == expected
            # blocks stay full: only the last may hold fewer than `rows`
            sizes = [len(a) for a, _ in decide._pattern_blocks(alg, d, rows)]
            assert set(sizes[:-1]) <= {rows} and 0 < sizes[-1] <= rows
    assert sum(len(a) for a, _ in decide._pattern_blocks(idempotent_quasigroup(5), 3, 50)) == 210
    assert sum(len(a) for a, _ in decide._pattern_blocks(idempotent_quasigroup(7), 2, 50)) == 25
    # the group's images of 2,000 patterns outgrow one kernel chunk: all kept
    assert sum(len(a) for a, _ in decide._pattern_blocks(idempotent_quasigroup(5), 3, 2000)) \
        == 1540
    # two pairs at d = 64, j copies of (0, 1) then (1, 0): only j = 0 maps
    # (swap) onto a smaller sorted tuple, j = 64
    assert sum(len(a) for a, _ in decide._pattern_blocks(fixture("no_ops2"), 64, 50)) == 64
    assert check_cube_dim(fixture("no_ops2"), 64) is False


def _reduction_cases():
    """Idempotent algebras with automorphisms, (algebra, dimensions): seeded
    random ones on 3 to 5 elements built to commute with a random
    permutation, quasigroups, and the self-dual idempotent ternary
    operations on {0, 1}, beside a few rigid random draws."""
    rng = random.Random(29)
    cases = []
    for _ in range(14):
        n = rng.randint(3, 5)
        arities = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
        sigma = tuple(rng.sample(range(n), n))
        cases.append((symmetric_idempotent_algebra(rng, n, arities, sigma), (2, 3, 4)[:6 - n]))
    for sigma in ((0, 1, 3, 2), (0, 1, 3, 4, 2)):  # the first pattern is fixed
        cases.append((symmetric_idempotent_algebra(rng, len(sigma), [2], sigma), (2, 3)))
    for _ in range(4):
        cases.append((random_idempotent_algebra(rng, 3, [2]), (2, 3, 4)))
    cases += [(idempotent_quasigroup(3), (2, 3, 4)), (idempotent_quasigroup(5), (2, 3)),
              (idempotent_quasigroup(7), (2,))]
    for bits in range(8):  # f(x') = f(x)' on the pairs 001/110, 010/101, 011/100
        table = [0] * 8
        for i, x in enumerate((1, 2, 3)):
            table[x], table[7 - x] = bits >> i & 1, 1 - (bits >> i & 1)
        table[7] = 1
        cases.append((FiniteAlgebra(2, (OperationTable("t", 3, tuple(table)),)), (2, 3, 4, 5)))
    return cases


@pytest.mark.parametrize("space", [None, 0])
def test_one_pattern_per_orbit_gives_every_pattern_verdict(monkeypatch, space):
    # check_cube_dim asks the first pattern of each automorphism orbit; with
    # the group patched to the identity alone it asks every pattern.  Batched
    # blocks, and with POINTWISE_BATCH_SPACE at 0 one query per pattern,
    # over orbits on two elements with arities at most 2 (no_ops2, whose
    # group swaps 0 and 1; the lattices are rigid)
    if space is not None:
        monkeypatch.setattr(decide, "POINTWISE_BATCH_SPACE", space)
    cases = _reduction_cases() + [(fixture(name), (2, 3, 13)) for name in
                                  ("no_ops2", "lattice2", "semilattice2")]
    patterns = []  # per check: patterns asked with the group, then without
    blocks = decide._pattern_blocks

    def count(*args):
        for a, b in blocks(*args):
            patterns[-1] += len(a)
            yield a, b

    def outcome(alg, d, budget):
        try:
            return check_cube_dim(alg, d, budget=budget)
        except BudgetExceededError as err:
            return str(err)

    monkeypatch.setattr(decide, "_pattern_blocks", count)
    verdicts = set()
    for alg, dims in cases:
        for d in dims:
            # a batched closure is cut off alike in every pattern of an
            # orbit, so a member cap names the same first pattern too
            caps = (None, d + 2, alg.size ** d // 3) if space is None and alg.size > 2 else (None,)
            for cap in caps:
                budget = Budget() if cap is None else Budget(max_members=cap)
                patterns.append(0)
                reduced = outcome(alg, d, budget)
                patterns.append(0)
                with monkeypatch.context() as patch:
                    patch.setattr(FiniteAlgebra, "automorphisms",
                                  property(lambda self: np.arange(self.size)[None]))
                    assert outcome(alg, d, budget) == reduced, (alg, d, cap)
                assert patterns[-2] <= patterns[-1]
                if cap is None and len(alg.automorphisms) > 1:
                    verdicts.add(reduced)
    assert verdicts == {True, False}
    assert sum(patterns[::2]) < sum(patterns[1::2])


def test_edge_one_element_and_validation():
    assert check_edge_dim(FiniteAlgebra(1, ()), 2)
    with pytest.raises(ValueError):
        check_edge_dim(fixture("lattice2"), 1)


def test_check_nu():
    assert check_nu(fixture("lattice2"), 3)
    assert not check_nu(fixture("semilattice2"), 3)
    with pytest.raises(ValueError):
        check_nu(fixture("lattice2"), 2)


def test_check_nu_at_row_width_62():
    # the stacked NU query for arity 30 over two elements has row width 62;
    # check_nu answers from the arity-3 query, so ask that one directly too
    lat = fixture("lattice2")
    assert check_nu(lat, 30, budget=Budget(max_seconds=10)) is True
    assert decide._nu_query(lat, 30, Budget(max_seconds=10)) is True


def _nu_widths(monkeypatch):
    """Spy on the stacked queries: the generator column count of each one."""
    widths = []

    def spy(algebra, generators, target, **kwargs):
        widths.append(len(generators[0]))
        return membership(algebra, generators, target, **kwargs)

    monkeypatch.setattr(decide, "membership", spy)
    return widths


def test_check_nu_matches_arity_k_query_inside_the_bound(monkeypatch):
    # every two-element algebra of one or two distinct operations of arity
    # 1 or 2: check_nu, which asks the arity-3 query first there, against
    # the arity-k query alone
    ops = [OperationTable(f"f{m}_{i}", m, tuple(int(c) for c in f"{i:0{2 ** m}b}"))
           for m in (1, 2) for i in range(2 ** 2 ** m)]
    algebras = [FiniteAlgebra(2, pair) for r in (1, 2) for pair in combinations(ops, r)]
    assert len(algebras) == 210
    widths = _nu_widths(monkeypatch)
    positives = 0
    for alg in algebras:
        for k in (4, 5, 6):
            widths.clear()
            answer = check_nu(alg, k)
            assert widths[0] == 3 and widths[1:] == ([] if answer else [k]), (alg, k)
            assert answer == decide._nu_query(alg, k, Budget()), (alg, k)
            positives += answer
    assert positives == 258


def _at_least(t, m):
    """The m-ary threshold operation on {0, 1}: 1 iff at least t arguments are 1."""
    return FiniteAlgebra(2, (OperationTable(f"at_least_{t}_of_{m}", m, tuple(
        int(sum(x) >= t) for x in product((0, 1), repeat=m))),))


def test_check_nu_beyond_the_bound_asks_arity_k_alone(monkeypatch):
    # arities 4 and 5, and three elements, put the arity-3 query beyond one
    # kernel chunk: check_nu asks the arity-k query only, with its answer.
    # The threshold algebras' least NU arities are 4 and 5.
    cases = [(_at_least(3, 4), 3, False), (_at_least(3, 4), 4, True),
             (_at_least(4, 5), 4, False), (_at_least(4, 5), 5, True),
             (idempotent_quasigroup(3), 4, False)]
    widths = _nu_widths(monkeypatch)
    for alg, k, answer in cases:
        widths.clear()
        assert check_nu(alg, k) is answer
        assert widths == [k]
        assert decide._nu_query(alg, k, Budget()) is answer


def test_check_nu_budget_names_the_arity_k_query():
    # the cut-off arity-3 query decides nothing, so the arity-5 one is asked
    # and its cut-off is the one reported
    with pytest.raises(BudgetExceededError, match="near-unanimity arity 5"):
        check_nu(fixture("lattice2"), 5, budget=Budget(max_members=1))


def test_nu_implies_cube_dimension():
    rng = random.Random(47)
    algebras = [fixture("lattice2")] + [
        random_idempotent_algebra(rng, 2, [3]) for _ in range(10)]
    for alg in algebras:
        if check_nu(alg, 3):
            assert check_cube_dim(alg, 3)


# -- decisions ----------------------------------------------------------------

def test_decide_idempotent_lattice():
    dec = decide_cube_idempotent(fixture("lattice2"))
    # two-element corner: the N formula is not a valid bound, fall back
    assert dec.verdict == HAS_CUBE
    assert dec.dimension_bound == bound_general(fixture("lattice2")) == 16


def test_decide_idempotent_semilattice():
    dec = decide_cube_idempotent(fixture("semilattice2"))
    assert dec.verdict == NO_CUBE
    assert dec.blocker == Blocker(mask_of([0]), mask_of([0, 1]))


def test_decide_idempotent_quasigroup():
    dec = decide_cube_idempotent(idempotent_quasigroup(3))
    assert dec.verdict == HAS_CUBE and dec.dimension_bound == 2


def test_decide_idempotent_rejects_non_idempotent():
    with pytest.raises(ValueError):
        decide_cube_idempotent(fixture("nand2"))


def test_decide_idempotent_bound_vs_check():
    # wherever the N bound applies, the verdict matches the direct check at N
    rng = random.Random(53)
    for _ in range(10):
        alg = random_idempotent_algebra(rng, 2, [3])
        dec = decide_cube_idempotent(alg)
        n_bound = bound_idempotent_N(alg)
        assert n_bound == 3
        assert (dec.verdict == HAS_CUBE) == check_cube_dim(alg, n_bound)


def test_decide_general_nand():
    dec = decide_cube_general(fixture("nand2"))
    assert dec.verdict == HAS_CUBE and dec.witness_dimension == 2


def test_decide_general_constant0():
    dec = decide_cube_general(const0())
    assert dec.verdict == NO_CUBE
    assert dec.dimension_bound == 8 and dec.failing_pair == (0, 1)


def test_decide_general_constant3_capped():
    dec = decide_cube_general(fixture("constant3"), cap=4)
    assert dec.verdict == UNDECIDED and dec.dimension_bound == 4
    assert dec.failing_pair is not None


def test_decide_general_constant3_full_bound():
    # the orbit queries reach the full bound 27: every pair fails there,
    # (0, 1) first, which certifies that no cube term exists
    t0 = time.monotonic()
    dec = decide_cube_general(fixture("constant3"))
    assert time.monotonic() - t0 < 1.0
    assert dec == CubeDecision(NO_CUBE, dimension_bound=27, failing_pair=(0, 1))


def test_decide_general_rejects_cap_below_one():
    # decide_cube checks it before routing idempotent input
    for name in ("nand2", "semilattice2", "lattice2"):
        for cap in (0, -3):
            for decision in (decide_cube, decide_cube_general):
                with pytest.raises(ValueError, match="cap must be at least 1"):
                    decision(fixture(name), cap=cap)
    assert decide_cube_general(fixture("nand2"), cap=1).verdict == UNDECIDED


def test_decide_cube_delegates_idempotent():
    assert decide_cube(fixture("semilattice2")).verdict == NO_CUBE
    assert decide_cube(fixture("semilattice2")).blocker is not None


def test_force_general_matches_idempotent_path_fast_cases():
    lat = fixture("lattice2")
    assert decide_cube_general(lat).verdict == \
        decide_cube_idempotent(lat).verdict
    q3 = idempotent_quasigroup(3)
    assert decide_cube_general(q3).verdict == \
        decide_cube_idempotent(q3).verdict


def test_trivial_universes():
    one = FiniteAlgebra(1, (OperationTable("f", 2, (0,)),))
    assert decide_cube(one).verdict == HAS_CUBE
    assert decide_cube(one).dimension_bound == 1
    dec = decide_cube(fixture("no_ops3"))
    assert dec.verdict == NO_CUBE
    assert dec.blocker == Blocker(mask_of([0]), mask_of([0, 1, 2]))


def test_minimal_cube_dimension():
    assert minimal_cube_dimension(fixture("lattice2"), 8) == 3
    assert minimal_cube_dimension(idempotent_quasigroup(3), 8) == 2
    assert minimal_cube_dimension(fixture("semilattice2"), 4) is None
    with pytest.raises(ValueError):
        minimal_cube_dimension(fixture("lattice2"), 1)


def test_decide_nu_fixtures():
    assert decide_nu(fixture("lattice2")).verdict == "has_nu"
    assert decide_nu(fixture("lattice2")).arity == 3
    assert decide_nu(fixture("semilattice2")).verdict == "no_nu"
    q3 = decide_nu(idempotent_quasigroup(3))
    assert q3.verdict == "no_nu"


def test_decide_nu_rejects_cap_below_two():
    for name in ("lattice2", "semilattice2", "no_ops1"):
        with pytest.raises(ValueError, match="cap must be at least 2"):
            decide_nu(fixture(name), cap=1)


def test_decide_nu_nand():
    # nand generates every Boolean operation, majority included
    dec = decide_nu(fixture("nand2"))
    assert dec.verdict == "has_nu" and dec.arity == 3


def test_decide_nu_undecided_propagates():
    dec = decide_nu(fixture("constant3"), cap=4)
    assert dec.verdict == "undecided"


def test_decision_json_shapes():
    dec = decide_cube_idempotent(fixture("semilattice2"))
    obj = dec.to_json()
    assert obj == {"verdict": "no_cube_term", "dimension_bound": 0,
                   "blocker": {"C": [0], "D": [0, 1]}}
    dec = decide_cube_general(const0())
    assert dec.to_json() == {"verdict": "no_cube_term", "dimension_bound": 8,
                             "failing_pair": [0, 1]}
    nu = decide_nu(fixture("lattice2"))
    assert nu.to_json() == {"verdict": "has_nu", "arity": 3}


def test_blocker_verdict_matches_dimension_checks():
    rng = random.Random(59)
    for _ in range(15):
        alg = random_idempotent_algebra(rng, 2, [rng.randint(2, 3)])
        has_blocker = find_blocker(alg) is not None
        if has_blocker:
            for d in (2, 3):
                assert not check_cube_dim(alg, d)


def test_general_agrees_with_idempotent_on_random_binary_algebras():
    # binary-only two-element algebras keep the general bound at 16
    rng = random.Random(61)
    seen = set()
    for _ in range(6):
        alg = random_idempotent_algebra(rng, 2, [2])
        key = tuple(alg.operations[0].table)
        if key in seen:
            continue
        seen.add(key)
        assert is_idempotent(alg)
        fast = decide_cube_idempotent(alg).verdict
        slow = decide_cube_general(alg).verdict
        assert fast == slow


def test_stacked_columns_match_per_column_rule(monkeypatch):
    # the stacked queries, captured, against the column rule written out:
    # one row per (coordinate i, pair a != b), b where i is selected and a
    # elsewhere, then one constant row per value; the target is all a
    issued = []
    found = [True]

    def capture(algebra, generators, target, *, budget=None):
        issued.append(([np.array(block) for block in generators], tuple(target)))
        return MembershipAnswer(found=found[0], closure_size=0)

    monkeypatch.setattr(decide, "membership", capture)

    def column(n, width, chosen):
        return tuple(b if i in chosen else a
                     for i in range(width) for a in range(n) for b in range(n)
                     if a != b) + tuple(range(n))

    def expected(n, width, selections):
        return [column(n, width, chosen) for chosen in selections], column(n, width, ())

    for n, alg in ((2, fixture("lattice2")), (3, idempotent_quasigroup(3))):
        for d in (1, 2, 3, 5, 13):
            # the cube check asks the edge question; at d = 1 it asks nothing
            assert check_cube_dim(alg, d, method="stacked") == (d >= 2)
            queries = []
            if d >= 2:
                queries.append((d, [{0, 1}] + [{i} for i in range(d)]))
                check_edge_dim(alg, d)
                queries.append((d, [{0, 1}] + [{i} for i in range(d)]))
            if d >= 3:
                # answered False, the arity-3 query that lattice2 asks first
                # at d > 3 is followed by the arity-d query
                found[0] = False
                check_nu(alg, d)
                found[0] = True
                if n == 2 and d > 3:
                    queries.append((3, [{i} for i in range(3)]))
                queries.append((d, [{i} for i in range(d)]))
            for (blocks, target), (width, selections) in zip(issued, queries, strict=True):
                assert all(len(block) <= 4096 for block in blocks)
                rows = [tuple(row) for block in blocks for row in block.tolist()]
                assert (rows, target) == expected(n, width, selections)
            issued.clear()


def test_pointwise_orbit_route_agrees_with_tuple_route(monkeypatch):
    # beyond POINTWISE_BATCH_SPACE a two-element algebra with arities at
    # most 2 asks one orbit query per pattern; with POINTWISE_BATCH_SPACE
    # raised to 2**d it asks what the smaller spaces ask: a batched closure
    # while (2**d)**arity fits POINTWISE_BATCH_CELLS, tuple queries beyond.
    # Meet, join, both lattices and projections, under both labellings:
    # the same answers at every d, and the same pattern named when a
    # budget cuts a check off
    issued = []  # the tuple queries, those without blocks
    tuple_query = decide.membership

    def capture(*args, **kwargs):
        if not kwargs.get("blocks"):
            issued.append(args[0])
        return tuple_query(*args, **kwargs)

    monkeypatch.setattr(decide, "membership", capture)
    meet, join = (0, 0, 0, 1), (0, 1, 1, 1)
    for tables in ((meet,), (join,), (meet, join), (join, meet), ((0, 0, 1, 1), (0, 1, 0, 1))):
        for swapped in (tables, tuple(tuple(1 - t[3 - i] for i in range(4)) for t in tables)):
            alg = FiniteAlgebra(2, tuple(OperationTable(f"f{i}", 2, t)
                                         for i, t in enumerate(swapped)))
            arity = max((op.arity for op in alg.compiled.ops), default=0)
            for d in range(2, 15):
                tuples = (2 ** d) ** arity > decide.POINTWISE_BATCH_CELLS
                issued.clear()
                orbits = check_cube_dim(alg, d)
                assert bool(issued) == (2 ** d <= decide.POINTWISE_BATCH_SPACE and tuples)
                issued.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(decide, "POINTWISE_BATCH_SPACE", 2 ** d)
                    assert check_cube_dim(alg, d) == orbits, (swapped, d)
                assert bool(issued) == tuples
            for budget in (Budget(max_members=2), Budget(max_seconds=0)):
                errors = []
                for space in (decide.POINTWISE_BATCH_SPACE, 2 ** 13):
                    with monkeypatch.context() as patch:
                        patch.setattr(decide, "POINTWISE_BATCH_SPACE", space)
                        with pytest.raises(BudgetExceededError) as err:
                            check_cube_dim(alg, 13, budget=budget)
                    errors.append(str(err.value))
                assert errors[0] == errors[1]


def test_two_element_batches_agree_with_one_query_per_pattern(monkeypatch):
    # a seeded share of the two-element benchmark mix (idempotent ternary
    # tables on {0, 1}, alone and next to meet or join, relabelled) and the
    # semilattices and lattice: the batched closures over bit codes give
    # the verdicts of one `membership` query per pattern
    rng = random.Random(31)
    meet = OperationTable("meet", 2, (0, 0, 0, 1))
    join = OperationTable("join", 2, (0, 1, 1, 1))
    algebras = [fixture("semilattice2"), fixture("lattice2"), FiniteAlgebra(2, (join,))]
    for free in rng.sample(range(64), 24):
        ternary = OperationTable("t", 3, (0,) + tuple(free >> i & 1 for i in range(6)) + (1,))
        alg = FiniteAlgebra(2, (ternary,) + rng.choice(((), (meet,), (join,))))
        algebras.append(relabel(alg, (1, 0)) if rng.random() < 0.5 else alg)
    verdicts = set()
    for alg in algebras:
        for d in range(2, 8):
            batched = check_cube_dim(alg, d)
            with monkeypatch.context() as patch:
                patch.setattr(decide, "POINTWISE_BATCH_SPACE", 0)
                assert check_cube_dim(alg, d) == batched, (alg, d)
            verdicts.add(batched)
    assert verdicts == {True, False}


def _rows(gens):
    return [row for block in gens for row in np.asarray(block).tolist()]


def test_pointwise_orbit_route_asks_the_tuple_queries(monkeypatch):
    # beyond POINTWISE_BATCH_SPACE the orbit route hands `membership` the
    # generator columns and target that the tuple route, forced by raising
    # POINTWISE_BATCH_SPACE to 2**d, hands it, pattern by pattern; its blocks are
    # the runs of equal value pairs among the coordinates 2..d-1
    calls = {True: [], False: []}
    query = decide.membership

    def capture(alg, gens, target, *, blocks=(), **kwargs):
        rows, d = _rows(gens), len(target)
        calls[bool(len(blocks))].append((rows, list(target)))
        if len(blocks):
            b = [rows[1 + i][i] for i in range(d)]  # the column {i} holds b_i
            assert list(blocks) == list(Counter(zip(target[2:], b[2:])).values())
        return query(alg, gens, target, blocks=blocks, **kwargs)

    monkeypatch.setattr(decide, "membership", capture)
    for alg in (fixture("lattice2"), fixture("semilattice2")):
        for d in (13, 14):
            answers = []
            for pay, space in ((True, decide.POINTWISE_BATCH_SPACE), (False, 2 ** d)):
                calls[pay].clear()
                with monkeypatch.context() as patch:
                    patch.setattr(decide, "POINTWISE_BATCH_SPACE", space)
                    answers.append(check_cube_dim(alg, d))
            assert answers[0] == answers[1]
            assert calls[True] == calls[False] and calls[True], (alg, d)


def test_general_orbit_route_asks_one_tuple_per_orbit(monkeypatch):
    # the general route hands `membership` d tuples for the pair (a, b)
    # and one block of d: the prefix, then b at the first k of the d
    # coordinates, one tuple per orbit of the tuple route's family.  With
    # TUPLE_BLOCK patched to 0 it takes the orbit route at every d
    seen = []
    query = decide.membership

    def capture(alg, gens, target, *, blocks=(), **kwargs):
        if len(blocks):
            seen.append((_rows(gens), tuple(target), tuple(blocks)))
        return query(alg, gens, target, blocks=blocks, **kwargs)

    monkeypatch.setattr(decide, "membership", capture)
    monkeypatch.setattr(decide, "TUPLE_BLOCK", 0)
    for alg in (fixture("nand2"), fixture("constant3"), fixture("semilattice2")):
        seen.clear()
        decide_cube_general(alg, 8)
        n = alg.size
        prefix = tuple(range(n))

        def orbit_set(rows):
            return {tuple(r[:n]) + tuple(sorted(r[n:])) for r in rows}

        assert seen
        for rows, target, (d,) in seen:
            a, b = target[-1], rows[0][n]
            assert target == prefix + (a,) * d and len(rows) == d and a != b
            family = _rows(mix_family((a,) * d, (b,) * d, prefix=prefix))
            assert orbit_set(rows) == orbit_set(family)


def test_general_path_routes_on_the_family_size(monkeypatch):
    # a query asks the tuple family while its 2**d - 1 overwrites fit one
    # generator block (TUPLE_BLOCK, so d <= 12), and S_d-orbits from d = 13
    # on, whatever the operations.  Each routed decision equals the one
    # with the orbit route forced by patching TUPLE_BLOCK, and so does the
    # tuple route's (under a smaller cap where it takes seconds)
    issued = []  # (d, orbits) per query
    query = decide.membership

    def capture(alg, gens, target, *, blocks=(), **kwargs):
        issued.append((len(target) - alg.size, bool(len(blocks))))
        return query(alg, gens, target, blocks=blocks, **kwargs)

    def forced(alg, cap, orbits):
        issued.clear()
        with monkeypatch.context() as patch:
            patch.setattr(decide, "TUPLE_BLOCK", 0 if orbits else 1 << 62)
            dec = decide_cube_general(alg, cap)
        assert {route for _, route in issued} == {orbits}, (alg, cap)
        return dec

    monkeypatch.setattr(decide, "membership", capture)
    neg2 = FiniteAlgebra(2, (OperationTable("neg", 1, (1, 0)),))
    join2 = FiniteAlgebra(2, (OperationTable("join", 2, (0, 1, 1, 1)),))
    proj2 = FiniteAlgebra(2, (OperationTable("p1", 2, (0, 0, 1, 1)),
                              OperationTable("p2", 2, (0, 1, 0, 1))))
    cases = [(idempotent_quasigroup(3), None, None), (fixture("nand2"), None, None),
             (const0(), None, None), (neg2, None, None), (fixture("constant3"), 12, 12),
             (fixture("constant3"), 16, 16), (binary_constant3(), 16, 12),
             (fixture("lattice2"), None, None), (proj2, None, None),
             (fixture("semilattice2"), None, 8), (join2, None, 8)]
    for alg, cap, tuple_cap in cases:
        issued.clear()
        routed = decide_cube_general(alg, cap)
        assert issued and all(orbits == (d >= 13) for d, orbits in issued), (alg, cap)
        assert forced(alg, cap, True) == routed
        expected = routed if tuple_cap == cap else forced(alg, tuple_cap, True)
        assert forced(alg, tuple_cap, False) == expected
    # capped at 16, constant3 asks tuples up to d = 8, then orbits at 16
    issued.clear()
    decide_cube_general(fixture("constant3"), 16)
    assert (8, False) in issued and (16, True) in issued
    # the full-bound verdicts, which the tuple route takes seconds for
    assert decide_cube_general(fixture("semilattice2")) == CubeDecision(
        NO_CUBE, dimension_bound=16, failing_pair=(1, 0))
    assert decide_cube_general(join2) == CubeDecision(
        NO_CUBE, dimension_bound=16, failing_pair=(0, 1))


def test_binary_constant3_reaches_dimension_32():
    # a binary operation on three elements: the d = 32 query is an orbit
    # query, which the tuple family of 2**32 - 1 rows could never finish
    assert decide_cube_general(binary_constant3(), 32) == CubeDecision(
        UNDECIDED, dimension_bound=32, failing_pair=(0, 1),
        note="no cube term of dimension <= 32; full bound 54 not reached")


def test_routed_general_decision_equals_forced_routes(monkeypatch):
    # random algebras on two and three elements, capped at 12 (all tuple
    # queries) and 13 (an orbit query at d = 13): the routed decision
    # equals the decisions with the tuple route and the orbit route forced
    # at every d.  Draws with a query cut off by the per-query time cap are
    # skipped
    rng = random.Random(5)
    budget = Budget(max_seconds=0.1)
    compared = Counter()
    for _ in range(16):
        alg = random_algebra(rng, rng.choice([2, 3]),
                             [rng.choice([1, 2]) for _ in range(rng.choice([1, 2]))])
        for cap in (12, 13):
            decisions = [decide_cube_general(alg, cap, budget=budget)]
            for block in (1 << 62, 0):
                with monkeypatch.context() as patch:
                    patch.setattr(decide, "TUPLE_BLOCK", block)
                    decisions.append(decide_cube_general(alg, cap, budget=budget))
            if any((dec.note or "").startswith("closure budget exhausted") for dec in decisions):
                continue
            assert decisions[0] == decisions[1] == decisions[2], (alg, cap, decisions)
            compared[decisions[0].dimension_bound] += 1
    assert compared[13] and sum(compared.values()) >= 16, compared


def test_general_path_agrees_with_stacked_check():
    # random non-idempotent algebras at d = 2, 3: a d-cube term (the
    # stacked check) gives every pair's local term at d, so the general
    # decision capped at d finds a cube term; a pair failing at d refutes
    # a d-cube term.  Queries cut off by the per-query time cap are
    # skipped (after a cut-off at d = 2, d = 3 too)
    rng = random.Random(73)
    budget = Budget(max_seconds=0.1)
    outcomes = Counter()
    for _ in range(24):
        alg = random_algebra(rng, rng.choice([2, 3]),
                             [rng.randint(1, 3) for _ in range(rng.randint(1, 2))])
        if is_idempotent(alg):
            continue
        for d in (2, 3):
            try:
                stacked = check_cube_dim(alg, d, method="stacked", budget=budget)
            except BudgetExceededError:
                break
            dec = decide_cube_general(alg, d, budget=budget)
            if (dec.note or "").startswith("closure budget exhausted"):
                continue
            if stacked:
                assert dec.verdict == HAS_CUBE, (alg, d, dec)
                outcomes["cube term"] += 1
            if dec.failing_pair is not None and dec.dimension_bound == d:
                assert not stacked, (alg, d, dec)
                outcomes["failing pair"] += 1
    assert outcomes["cube term"] and outcomes["failing pair"], outcomes
