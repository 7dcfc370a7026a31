import json

import pytest

from conftest import StarvedNumpy, binary_constant3
from cubeterm import algebra, decide_cube, fixture, idempotent_quasigroup, subpower
from cubeterm.cli import run


@pytest.fixture
def algebra_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(fixture(name).to_json()))
        return str(path)

    return write


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


def test_decide_cube_lattice(capsys, algebra_file):
    rc, result, _ = invoke(capsys, "decide-cube", algebra_file("lattice2"))
    assert rc == 0
    assert result["payload"]["verdict"] == "has_cube_term"
    assert result["command"] == "decide-cube"
    assert len(result["input_digest"]) == 64


def test_find_blocker_semilattice(capsys, algebra_file):
    rc, result, _ = invoke(capsys, "find-blocker", algebra_file("semilattice2"))
    assert rc == 0
    assert result["payload"] == {"C": [0], "D": [0, 1]}


def test_check_cube_dim_matches_paper_fact(capsys, algebra_file):
    path = algebra_file("lattice2")
    rc, result, _ = invoke(capsys, "check-cube-dim", path, "-d", "2")
    assert rc == 0 and result["payload"] == {"result": False}
    rc, result, _ = invoke(capsys, "check-cube-dim", path, "-d", "3")
    assert rc == 0 and result["payload"] == {"result": True}


def test_check_edge_and_nu(capsys, algebra_file):
    path = algebra_file("lattice2")
    rc, result, _ = invoke(capsys, "check-edge-dim", path, "-d", "3")
    assert rc == 0 and result["payload"]["result"] is True
    rc, result, _ = invoke(capsys, "check-nu", path, "-k", "3")
    assert rc == 0 and result["payload"]["result"] is True


def test_decide_nu_and_min_dim(capsys, algebra_file):
    path = algebra_file("lattice2")
    rc, result, _ = invoke(capsys, "decide-nu", path)
    assert rc == 0 and result["payload"] == {"verdict": "has_nu", "arity": 3}
    rc, result, _ = invoke(capsys, "min-cube-dim", path, "--cap", "6")
    assert rc == 0 and result["payload"]["minimal_dimension"] == 3


def test_bounds(capsys, algebra_file):
    rc, result, _ = invoke(capsys, "bounds", algebra_file("lattice2"))
    assert rc == 0
    assert result["payload"] == {"idempotent_N": 2, "quadratic_linear": 2,
                                 "general": 16}


def test_undecided_exit_code(capsys, algebra_file):
    rc, result, _ = invoke(capsys, "decide-cube", algebra_file("constant3"),
                           "--cap", "4")
    assert rc == 1
    assert result["payload"]["verdict"] == "undecided"


def test_cap_below_one_is_input_error(capsys, algebra_file):
    for cap in ("0", "-3"):
        rc, payload, err = invoke(capsys, "decide-cube", "--cap", cap, algebra_file("nand2"))
        assert rc == 2 and payload is None
        assert "cap must be at least 1" in err


def test_decide_nu_cap_below_two_is_input_error(capsys, algebra_file):
    # rejected before any decision: lattice2 has a cube term, semilattice2 not
    for name in ("lattice2", "semilattice2"):
        rc, payload, err = invoke(capsys, "decide-nu", "--cap", "1", algebra_file(name))
        assert rc == 2 and payload is None
        assert "cap must be at least 2" in err


def test_constant3_full_bound_decides(capsys, algebra_file):
    # the general path's orbit queries reach the full bound n**3 * m = 27
    rc, result, _ = invoke(capsys, "decide-cube", algebra_file("constant3"))
    assert rc == 0
    assert result["payload"] == {"verdict": "no_cube_term", "dimension_bound": 27,
                                 "failing_pair": [0, 1]}


def test_out_of_memory_is_undecided(capsys, tmp_path, monkeypatch):
    # general deepening over tuples (a binary constant on three elements,
    # capped at 12, no bitset): once the member store cannot grow to the
    # 4095 generators of d = 12, the run ends in an undecided envelope at
    # that dimension, not a traceback
    path = tmp_path / "binary_constant3.json"
    path.write_text(json.dumps(binary_constant3().to_json()))
    monkeypatch.setenv("CUBETERM_BUDGET_BYTES", "1")
    monkeypatch.setattr(subpower, "np", StarvedNumpy(1 << 15))
    rc, result, err = invoke(capsys, "decide-cube", str(path), "--cap", "12")
    assert rc == 1
    assert result["payload"]["verdict"] == "undecided"
    assert result["payload"]["dimension_bound"] == 12
    assert "Traceback" not in err


def test_out_of_memory_in_sg_is_undecided(capsys, tmp_path, monkeypatch):
    # the blocker path's batched Sg closure raises MemoryError when it
    # cannot allocate a round (the set kernel's, as the quasigroup's table
    # fits one kernel chunk); each command on it ends in a truncated
    # envelope with exit 1, not a traceback
    path = tmp_path / "q7.json"
    path.write_text(json.dumps(idempotent_quasigroup(7).to_json()))

    def starved(*args, **kwargs):
        raise MemoryError("no room for a round")

    monkeypatch.setattr(algebra, "_images", starved)
    for command in ("find-blocker", "decide-cube", "decide-nu"):
        rc, result, err = invoke(capsys, command, str(path))
        assert rc == 1 and result["payload"]["truncated"] is True, command
        assert "Traceback" not in err


def test_universe_above_256_elements(capsys, tmp_path):
    # elements no longer fit a byte: the run must still end in an envelope
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"size": 300, "operations": [
        {"name": "c", "arity": 1, "table": [0] * 300}]}))
    rc, result, err = invoke(capsys, "decide-cube", str(big), "--cap", "1")
    assert rc == 1
    assert result["payload"]["verdict"] == "undecided"
    assert "Traceback" not in err


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"size": 2, "operations": [{"name": "f", "arity": 2, '
                   '"table": [0, 2, 0, 1]}]}')
    rc, payload, err = invoke(capsys, "decide-cube", str(bad))
    assert rc == 2 and payload is None
    assert "entry 2" in err

    rc, _, _ = invoke(capsys, "decide-cube", str(tmp_path / "missing.json"))
    assert rc == 2


def test_validate_command(capsys, algebra_file, tmp_path):
    rc, result, _ = invoke(capsys, "validate", algebra_file("lattice2"))
    assert rc == 0 and result["payload"] == {"valid": True, "violations": []}
    bad = tmp_path / "bad.json"
    bad.write_text('{"size": 2, "operations": [{"name": "f", "arity": 2, '
                   '"table": [0, 0, 0]}]}')
    rc, result, _ = invoke(capsys, "validate", str(bad))
    assert rc == 0
    assert result["payload"]["valid"] is False
    assert result["payload"]["violations"]


def test_huge_declared_arity_is_a_violation(capsys, tmp_path):
    # n**arity would be an integer of 10**11 bits: the mismatch is reported
    # without it, by validate and by a decision alike
    huge = tmp_path / "huge.json"
    huge.write_text('{"size": 2, "operations": [{"arity": 99999999999, "table": [0]}]}')
    rc, result, _ = invoke(capsys, "validate", str(huge))
    assert rc == 0 and result["payload"] == {"valid": False, "violations": [
        "operations[0] 'f0': table has 1 entries, expected 2**99999999999"]}
    rc, result, err = invoke(capsys, "decide-cube", str(huge))
    assert rc == 2 and result is None
    assert "expected 2**99999999999" in json.loads(err)["error"]


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    for command in ("validate", "decide-cube"):
        rc, result, err = invoke(capsys, command, str(deep))
        assert rc == 2 and result is None
        assert "not valid JSON" in json.loads(err)["error"]


def test_unwritable_gen_output_is_input_error(capsys, tmp_path):
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        rc, result, err = invoke(capsys, "gen", "fixture", "lattice2", "-o", str(out))
        assert rc == 2 and result is None
        assert json.loads(err)["error"].startswith(f"cannot write {out}: ")


def test_gen_fixture_writes_loadable_file(capsys, tmp_path):
    out = tmp_path / "alg.json"
    rc, result, _ = invoke(capsys, "gen", "fixture", "lattice2", "-o", str(out))
    assert rc == 0 and result["input_digest"] is None
    rc, check, _ = invoke(capsys, "validate", str(out))
    assert rc == 0 and check["payload"]["valid"]


def test_gen_fixture_beyond_max_size_is_input_error(capsys):
    rc, result, _ = invoke(capsys, "gen", "fixture", "no_ops65536")
    assert rc == 0 and result["payload"]["size"] == 65536
    rc, result, err = invoke(capsys, "gen", "fixture", "no_ops70000")
    assert rc == 2 and result is None
    assert "universe size" in json.loads(err)["error"]
    # the generators that build tables refuse such sizes just as fast
    for argv in (("quasigroup", "70001"), ("tight", "70001", "2,2")):
        rc, result, err = invoke(capsys, "gen", *argv)
        assert rc == 2 and result is None
        assert "universe size" in json.loads(err)["error"]


def test_gen_quasigroup_and_tight(capsys):
    rc, result, _ = invoke(capsys, "gen", "quasigroup", "5")
    assert rc == 0 and result["payload"]["size"] == 5
    rc, result, _ = invoke(capsys, "gen", "tight", "3", "3")
    assert rc == 0
    assert [op["arity"] for op in result["payload"]["operations"]] == [3]
    rc, _, _ = invoke(capsys, "gen", "tight", "2", "2")
    assert rc == 2  # no tight example there
    rc, _, err = invoke(capsys, "gen", "fixture", "nosuch")
    assert rc == 2
    assert json.loads(err)["error"].startswith("unknown fixture 'nosuch'; available: ")


def test_oracles(capsys, algebra_file):
    semi = algebra_file("semilattice2")
    rc, result, _ = invoke(capsys, "oracle", "blockers", semi)
    assert rc == 0 and result["payload"] == {"C": [0], "D": [0, 1]}
    rc, result, _ = invoke(capsys, "oracle", "chipped-cubes", semi, "-d", "2")
    assert rc == 0 and len(result["payload"]["blocks"]) == 2
    rc, result, _ = invoke(capsys, "oracle", "clone", semi, "-k", "2")
    assert rc == 0
    assert result["payload"]["size"] == 3
    assert [0, 0, 0, 1] in result["payload"]["tables"]


def test_truncated_oracles_name_their_subcommand(capsys, algebra_file):
    # a capped oracle run says which oracle it was, as a finished one does
    big = algebra_file("no_ops21")  # 2**21 subsets: past the subset scan cap
    for argv in (("blockers", big), ("chipped-cubes", big, "-d", "2"),
                 ("clone", algebra_file("lattice2"), "-k", "13")):
        rc, result, _ = invoke(capsys, "oracle", *argv)
        assert rc == 1 and result["payload"]["truncated"] is True
        assert result["command"] == f"oracle {argv[0]}"


def test_negative_clone_arity_is_input_error(capsys, algebra_file):
    rc, payload, err = invoke(capsys, "oracle", "clone", algebra_file("lattice2"), "-k", "-1")
    assert rc == 2 and payload is None
    assert "Traceback" not in err and "error" in json.loads(err)


def test_force_general_flag(capsys, algebra_file):
    rc, result, _ = invoke(capsys, "decide-cube", algebra_file("lattice2"),
                           "--force-general")
    assert rc == 0 and result["payload"]["verdict"] == "has_cube_term"
    assert result["payload"]["witness_dimension"] == 2


def test_payload_is_deterministic(capsys, algebra_file):
    path = algebra_file("lattice2")
    outs = []
    for _ in range(2):
        _, result, _ = invoke(capsys, "decide-cube", path)
        result.pop("elapsed_ms")
        outs.append(json.dumps(result, sort_keys=True))
    assert outs[0] == outs[1]


def test_cli_matches_library(capsys, algebra_file):
    for name in ("lattice2", "semilattice2", "nand2"):
        _, result, _ = invoke(capsys, "decide-cube", algebra_file(name))
        assert result["payload"] == decide_cube(fixture(name)).to_json()


def test_pretty_flag_writes_summary(capsys, algebra_file):
    rc, result, err = invoke(capsys, "--pretty", "decide-cube",
                             algebra_file("lattice2"))
    assert rc == 0 and "has_cube_term" in err


def test_invalid_budget_env_is_input_error(capsys, algebra_file, monkeypatch):
    monkeypatch.setenv("CUBETERM_BUDGET_BYTES", "abc")
    rc, payload, err = invoke(capsys, "check-cube-dim", algebra_file("lattice2"), "-d", "2")
    assert rc == 2 and payload is None
    assert "CUBETERM_BUDGET_BYTES" in json.loads(err)["error"]
