import random
from itertools import product

import numpy as np
import pytest

from conftest import brute_force_subpower, check_keys_like_codes, random_idempotent_algebra
from cubeterm import (
    BudgetExceededError,
    ChippedCubeSpec,
    InputError,
    Relation,
    chipped_cube,
    code_tuple,
    constant3_elusive_relation,
    fixture,
    is_compatible,
    is_elusive_witness,
    mask_of,
    mix,
    mix_family,
    tuple_code,
    verify_blocker,
)
from cubeterm.relations import _first_unique, _keys

PAPER_BINARY = [(0, 0), (0, 1), (1, 1)]  # compatible elusive relation of lattice2


def naive_family(a, b, prefix=()):
    """Reference: walk all nonzero coordinate masks, dedup by first appearance."""
    k = len(a)
    seen, out = set(), []
    for m in range(1, 1 << k):
        t = tuple(prefix) + mix(a, b, [i for i in range(k) if m >> i & 1])
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def family_rows(a, b, prefix=()):
    """The rows of the mix_family blocks, concatenated, as tuples."""
    blocks = list(mix_family(a, b, prefix))
    assert all(block.ndim == 2 and block.dtype == np.uint8 for block in blocks)
    return [tuple(int(v) for v in row) for block in blocks for row in block]


def test_code_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        k = rng.randint(1, 6)
        t = tuple(rng.randrange(n) for _ in range(k))
        assert code_tuple(tuple_code(t, n), k, n) == t


def test_mix_basic():
    a, b = (1, 0), (0, 1)
    assert mix(a, b, [0]) == (0, 0)
    assert mix(a, b, []) == (1, 0)
    assert mix(a, b, [0, 1]) == (0, 1)


def test_mix_complement_symmetry():
    rng = random.Random(9)
    for _ in range(50):
        k = rng.randint(1, 7)
        a = tuple(rng.randrange(4) for _ in range(k))
        b = tuple(rng.randrange(4) for _ in range(k))
        coords = [i for i in range(k) if rng.random() < 0.5]
        rest = [i for i in range(k) if i not in coords]
        assert mix(a, b, coords) == mix(b, a, rest)


def test_mix_family_two_coordinates():
    assert family_rows((1, 1), (0, 0)) == [(0, 1), (1, 0), (0, 0)]


def test_mix_family_equal_tuples_collapse():
    assert family_rows((1, 0), (1, 0)) == [(1, 0)]


def test_mix_family_with_prefix():
    got = family_rows((1, 1), (0, 0), prefix=(0, 1))
    assert got == [(0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 0, 0)]


def test_mix_family_matches_naive_enumeration():
    rng = random.Random(21)
    for _ in range(60):
        k = rng.randint(1, 8)
        a = tuple(rng.randrange(3) for _ in range(k))
        b = tuple(rng.randrange(3) for _ in range(k))
        prefix = tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))
        assert family_rows(a, b, prefix) == naive_family(a, b, prefix)


def test_mix_family_wide_blocks():
    # more than 12 differing coordinates: several blocks, and a itself may
    # land inside the first block, on a block boundary or at the very end;
    # block h holds the masks h * 4096 .. h * 4096 + 4095 (the first one
    # without mask 0), and a lone a follows the block its mask ends
    full, first = 4096, 4095
    for k, same, lengths in [(13, (), [first, full]),
                             (14, (13,), [first, full, 1]),
                             (15, (14,), [first, full, full, full, 1]),
                             (16, (12,), [full] * 8),
                             (16, (13, 2), [full] * 4),
                             (14, (5,), [full] * 2),
                             (13, (12,), [full]),
                             (15, (0,), [full] * 4)]:
        a = (0,) * k
        b = tuple(0 if i in same else 1 for i in range(k))
        assert [len(block) for block in mix_family(a, b, prefix=(2,))] == lengths
        assert family_rows(a, b, (2,)) == naive_family(a, b, (2,))


def test_mix_family_element_dtype():
    assert {block.dtype for block in mix_family((300, 1), (0, 2))} == {np.dtype(np.uint16)}
    assert [row.tolist() for block in mix_family((300, 1), (0, 2)) for row in block] == \
        [list(t) for t in naive_family((300, 1), (0, 2))]
    assert list(mix_family((), ())) == []


def test_is_compatible_lattice_elusive_relation():
    rel = Relation.from_tuples(2, 2, PAPER_BINARY)
    assert is_compatible(fixture("lattice2"), rel)


def test_is_compatible_meet_counterexample():
    rel = Relation.from_tuples(2, 2, [(0, 1), (1, 0)])
    assert not is_compatible(fixture("semilattice2"), rel)


def test_is_compatible_full_power():
    rel = Relation.from_tuples(2, 3, list(product((0, 1), repeat=3)))
    assert is_compatible(fixture("lattice2"), rel)
    assert is_compatible(fixture("nand2"), rel)


def test_is_compatible_budget():
    # {0,1}^12 has 4096 tuples: 4096**2 binary argument pairs exceed 10**7
    rel = Relation(2, 12, list(product((0, 1), repeat=12)))
    with pytest.raises(BudgetExceededError, match=r"^compatibility scan \|R\|\^2 = "
                       r"16777216 exceeds budget 10000000$"):
        is_compatible(fixture("lattice2"), rel)


def test_is_compatible_matches_closure(tmp_path):
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 3)
        alg = random_idempotent_algebra(rng, n, [2])
        k = rng.randint(1, 3)
        tuples = {tuple(rng.randrange(n) for _ in range(k))
                  for _ in range(rng.randint(1, 5))}
        rel = Relation.from_tuples(n, k, tuples)
        closed = brute_force_subpower(alg, sorted(tuples))
        assert is_compatible(alg, rel) == (closed == set(rel))


def test_elusive_witness_lattice():
    rel = Relation.from_tuples(2, 2, PAPER_BINARY)
    assert is_elusive_witness(rel, (1, 0), (0, 1))


def test_elusive_witness_fails_when_member():
    rel = Relation.from_tuples(2, 2, PAPER_BINARY)
    assert not is_elusive_witness(rel, (0, 0), (1, 1))


def test_elusive_witness_matches_per_tuple_check():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(2, 3)
        k = rng.randint(1, 5)
        a = tuple(rng.randrange(n) for _ in range(k))
        # equal coordinates with probability about one half
        b = tuple(v if rng.random() < 0.5 else rng.randrange(n) for v in a)
        members = set(naive_family(a, b))
        members = {t for t in members if rng.random() < 0.9}
        members |= {tuple(rng.randrange(n) for _ in range(k)) for _ in range(3)}
        expected = a not in members and all(
            mix(a, b, [i for i in range(k) if m >> i & 1]) in members
            for m in range(1, 1 << k))
        rel = Relation.from_tuples(n, k, members)
        assert is_elusive_witness(rel, a, b) == expected


def test_elusive_witness_refusals():
    rel = Relation.from_tuples(2, 2, PAPER_BINARY)
    with pytest.raises(ValueError):
        is_elusive_witness(rel, (1, 2), (0, 1))
    wide = Relation(2, 23, [(0,) * 23])
    with pytest.raises(BudgetExceededError,
                       match=r"^2\^23 overwrite family exceeds budget 4194304$"):
        is_elusive_witness(wide, (1,) * 23, (0,) * 23)


def test_elusive_witness_constant3_relation():
    rel = constant3_elusive_relation(3)
    a, b = (1, 0, 0), (0, 1, 1)
    # independent check: a missing, every proper overwrite present
    assert a not in rel
    for t in naive_family(a, b):
        assert t in rel
    assert is_elusive_witness(rel, a, b)


def test_elusive_witness_survives_shrinking_to_generated_relation():
    # the witness stays elusive for the closure of its own overwrite family
    from cubeterm import generate

    alg = fixture("lattice2")
    a, b = (1, 0), (0, 1)
    closure, _ = generate(alg, mix_family(a, b))
    assert a not in closure
    assert is_elusive_witness(closure, a, b)


def test_chipped_cube_single_point():
    spec = ChippedCubeSpec(((mask_of([0]), mask_of([0, 1]), 1),))
    assert list(chipped_cube(spec, 2)) == [(0,)]


def test_chipped_cube_display_example():
    # {0,1}^2 x {2,3} minus the corner (1,1,3)
    spec = ChippedCubeSpec((
        (mask_of([0]), mask_of([0, 1]), 2),
        (mask_of([2]), mask_of([2, 3]), 1),
    ))
    rel = chipped_cube(spec, 4)
    expected = {t for t in product((0, 1), (0, 1), (2, 3)) if t != (1, 1, 3)}
    assert set(rel) == expected


def test_chipped_cube_square_minus_corner():
    spec = ChippedCubeSpec(((mask_of([0]), mask_of([0, 1]), 2),))
    rel = chipped_cube(spec, 2)
    assert set(rel) == {(0, 0), (0, 1), (1, 0)}


def test_chipped_cube_budget():
    spec = ChippedCubeSpec(((mask_of([0]), mask_of([0, 1]), 24),))
    with pytest.raises(BudgetExceededError,
                       match=r"^chipped cube of 16777216 tuples exceeds budget 10000000$"):
        chipped_cube(spec, 2)


def test_blocker_powers_are_compatible():
    semi = fixture("semilattice2")
    c, d = mask_of([0]), mask_of([0, 1])
    assert verify_blocker(semi, c, d)
    for k in (1, 2, 3):
        rel = chipped_cube(ChippedCubeSpec(((c, d, k),)), 2)
        assert is_compatible(semi, rel)


def test_chipped_cube_spec_validation():
    with pytest.raises(ValueError):
        ChippedCubeSpec(((0, 3, 1),))  # empty C
    with pytest.raises(ValueError):
        ChippedCubeSpec(((3, 3, 1),))  # C = D
    with pytest.raises(ValueError):
        ChippedCubeSpec(((1, 3, 0),))  # mult < 1


def test_spec_json_round_trip():
    spec = ChippedCubeSpec(((1, 3, 2), (4, 6, 1)))
    assert ChippedCubeSpec.from_json(spec.to_json()) == spec


def test_relation_json_round_trip():
    rel = constant3_elusive_relation(2)
    again = Relation.from_json(rel.to_json(), 3)
    assert again == rel


def test_relation_json_rejects_malformed():
    with pytest.raises(InputError):
        Relation.from_json({"arity": 2, "tuples": [[0, 5]]}, 3)
    with pytest.raises(InputError):
        Relation.from_json({"arity": 2, "tuples": [[0]]}, 3)
    with pytest.raises(InputError):
        Relation.from_json({"tuples": []}, 3)
    with pytest.raises(InputError):
        Relation.from_json({"arity": True, "tuples": [[1]]}, 3)
    with pytest.raises(InputError):
        Relation.from_json({"arity": 2, "tuples": [[0, True]]}, 3)


@pytest.mark.parametrize("block", [
    {"C": 5, "D": [0, 1], "mult": 1},
    {"C": [-1], "D": [0, 1], "mult": 1},
    {"C": [True], "D": [0, 1], "mult": 1},
    {"C": [0], "D": [0, 1.0], "mult": 1},
    {"C": [0], "D": [0, 1], "mult": 2.7},
    {"C": [0], "D": [0, 1], "mult": 0},
    {"C": [0], "D": [0, 1], "mult": True},
    {"C": [0], "D": [0], "mult": 1},
    {"C": [0], "D": [0, 1]},
    [[0], [0, 1], 1],
])
def test_spec_json_rejects_malformed(block):
    with pytest.raises(InputError):
        ChippedCubeSpec.from_json({"blocks": [block]})


def test_relation_projection():
    rel = Relation.from_tuples(2, 3, [(0, 1, 1), (1, 0, 1)])
    assert set(rel.project([0, 2])) == {(0, 1), (1, 1)}
    # members are held once, sorted by code, whatever the input order
    rel = Relation.from_tuples(3, 3, [(0, 1, 2), (2, 1, 0), (1, 1, 1), (0, 1, 2)])
    assert len(rel) == 3 and list(rel) == [(0, 1, 2), (1, 1, 1), (2, 1, 0)]
    assert (0, 1, 2) in rel and (0, 0, 0) not in rel and (0, 1) not in rel
    assert rel == Relation.from_tuples(3, 3, [(2, 1, 0), (1, 1, 1), (0, 1, 2)])


def test_relation_dense_and_sparse_agree():
    # a relation given as a list of tuples and one given as a row array
    # (wider dtype, unsorted, with repeats) are the same relation
    tuples = [(0, 1, 2), (2, 1, 0), (1, 1, 1)]
    sparse = Relation.from_tuples(3, 3, tuples)
    dense = Relation(3, 3, np.array(tuples[::-1] + tuples[:1], dtype=np.int64))
    assert dense == sparse and len(dense) == 3
    assert dense.rows.dtype == sparse.rows.dtype
    assert (0, 1, 2) in dense and (0, 0, 0) not in dense


def test_relation_rejects_entries_outside_the_universe():
    # entries outside 0..n-1 once aliased other codes: (0, 2) has the code of (1, 0)
    assert (0, 2) not in Relation.from_tuples(2, 2, [(1, 0)])
    assert (0, -1) not in Relation.from_tuples(2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        Relation.from_tuples(2, 2, [(0, 2)])
    with pytest.raises(ValueError):
        Relation.from_tuples(2, 2, [(0, -1)])


def test_relation_above_256_elements_in_code_order():
    rng = random.Random(3)
    tuples = {(rng.randrange(300), rng.randrange(300)) for _ in range(500)}
    tuples |= {(0, 299), (1, 0), (255, 256), (256, 255), (299, 299)}
    tuples.discard((299, 298))
    rel = Relation.from_tuples(300, 2, tuples)
    assert rel.rows.dtype == np.uint16
    ordered = sorted(tuples, key=lambda t: tuple_code(t, 300))
    assert list(rel) == ordered
    assert rel.to_json() == {"arity": 2, "tuples": [list(t) for t in ordered]}
    assert all(t in rel for t in tuples) and (299, 298) not in rel
    # uint16 rows on both sides of n**K = 2**62 (300**7 < 2**62 < 300**8)
    for k in (7, 8):
        check_keys_like_codes(rng, 300, k)


def test_first_unique_matches_np_unique():
    rng = np.random.default_rng(16)
    many = rng.integers(0, 500, 5000)
    cases = [many, np.empty(0, np.int64), np.array([7]), np.full(9, 4),
             np.arange(20), np.arange(20)[::-1].copy()]
    # void keys of rows past 2**62 (3**40 codes), with repeated rows
    rows = rng.integers(0, 3, (60, 40)).astype(np.uint8)
    cases.append(_keys(rows[rng.integers(0, 60, 300)], 3))
    assert cases[-1].dtype.kind == "V"
    for keys in cases:
        for inverse, counts in ((False, False), (True, False), (False, True), (True, True)):
            got = _first_unique(keys, return_inverse=inverse, return_counts=counts)
            want = np.unique(keys, return_index=True, return_inverse=inverse,
                             return_counts=counts)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
