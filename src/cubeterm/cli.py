"""Command-line front end.

Every command prints one JSON object to stdout:

    { "command": ..., "input_digest": ..., "payload": ..., "elapsed_ms": ... }

input_digest is the sha256 of the input file (null for gen).  Payloads are
stable: identical input and flags give identical payloads; only elapsed_ms
varies.  Exit codes: 0 a decision was computed (whatever the verdict),
1 undecided, budget-truncated or out of memory, 2 malformed input or bad
usage.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import decide
from .algebra import FiniteAlgebra
from .blockers import exhaustive_blocker_search, find_blocker
from .errors import BudgetExceededError, InputError
from .fixtures import (
    FIXTURE_NAMES,
    TightExampleParams,
    clone_part,
    exhaustive_chipped_cube_search,
    fixture,
    idempotent_quasigroup,
    tight_example,
)

EXIT_OK = 0
EXIT_UNDECIDED = 1
EXIT_INPUT = 2


class _Undecided(Exception):
    """Carries a payload that must be reported with exit code 1."""

    def __init__(self, payload):
        self.payload = payload


def _read_json(path: str) -> tuple[object, str]:
    """The parsed JSON of a file and the sha256 of its bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw), hashlib.sha256(raw).hexdigest()
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from exc


def _load_algebra(path: str) -> tuple[FiniteAlgebra, str]:
    obj, digest = _read_json(path)
    return FiniteAlgebra.from_json(obj), digest


def _emit(command: str, digest: Optional[str], payload, started: float,
          pretty: bool, summary: Optional[str] = None) -> None:
    result = {
        "command": command,
        "input_digest": digest,
        "payload": payload,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    if pretty and summary:
        print(summary, file=sys.stderr)


# ---------------------------------------------------------------------------
# per-command payload builders
# ---------------------------------------------------------------------------

def _cmd_validate(alg_path: str, args) -> tuple:
    obj, digest = _read_json(alg_path)
    try:
        FiniteAlgebra.from_json(obj)
        problems: list[str] = []
    except InputError as exc:
        problems = str(exc).split("; ")
    payload = {"valid": not problems, "violations": problems}
    return digest, payload, "valid" if not problems else f"{len(problems)} violation(s)"


def _decision_payload(dec: decide.CubeDecision):
    if dec.verdict == decide.UNDECIDED:
        raise _Undecided(dec.to_json())
    return dec.to_json()


def _cmd_decide_cube(alg: FiniteAlgebra, args):
    decision = decide.decide_cube_general if args.force_general else decide.decide_cube
    dec = decision(alg, cap=args.cap)
    return _decision_payload(dec), f"verdict: {dec.verdict} (bound {dec.dimension_bound})"


def _cmd_find_blocker(alg: FiniteAlgebra, args):
    b = find_blocker(alg)
    payload = b.to_json() if b else None
    return payload, "blocker found" if b else "no blocker"


def _dim_check(kind: str, alg: FiniteAlgebra, value: int):
    try:
        if kind == "cube":
            res = decide.check_cube_dim(alg, value)
        elif kind == "edge":
            res = decide.check_edge_dim(alg, value)
        else:
            res = decide.check_nu(alg, value)
    except BudgetExceededError as exc:
        raise _Undecided({"result": None, "truncated": True, "reason": str(exc)}) from exc
    return {"result": res}, f"result: {res}"


def _cmd_min_cube_dim(alg: FiniteAlgebra, args):
    cap = args.cap if args.cap is not None else max(2, decide.bound_general(alg))
    try:
        d = decide.minimal_cube_dimension(alg, cap)
    except BudgetExceededError as exc:
        raise _Undecided({"minimal_dimension": None, "truncated": True,
                          "reason": str(exc)}) from exc
    return ({"minimal_dimension": d, "cap": cap},
            f"minimal cube dimension: {d if d is not None else f'none up to {cap}'}")


def _cmd_decide_nu(alg: FiniteAlgebra, args):
    nu = decide.decide_nu(alg, cap=args.cap)
    if nu.verdict == "undecided":
        raise _Undecided(nu.to_json())
    return nu.to_json(), f"verdict: {nu.verdict}" + (
        f" (arity {nu.arity})" if nu.arity else "")


def _cmd_bounds(alg: FiniteAlgebra, args):
    payload = {
        "idempotent_N": decide.bound_idempotent_N(alg),
        "quadratic_linear": decide.bound_quadratic_linear(alg),
        "general": decide.bound_general(alg),
    }
    return payload, ", ".join(f"{k}={v}" for k, v in payload.items())


def _cmd_oracle_blockers(alg: FiniteAlgebra, args):
    b = exhaustive_blocker_search(alg)
    return (b.to_json() if b else None), "blocker found" if b else "no blocker"


def _cmd_oracle_chipped(alg: FiniteAlgebra, args):
    spec = exhaustive_chipped_cube_search(alg, args.dim)
    return (spec.to_json() if spec else None), \
        "compatible chipped cube found" if spec else "none"


def _cmd_oracle_clone(alg: FiniteAlgebra, args):
    rel = clone_part(alg, args.k)
    payload = {"k": args.k, "power_arity": rel.arity, "size": len(rel),
               "tables": [list(t) for t in rel]}
    return payload, f"{len(rel)} term tables of arity {args.k}"


def _cmd_gen(args) -> tuple:
    if args.what == "fixture":
        alg = fixture(args.name)
    elif args.what == "quasigroup":
        alg = idempotent_quasigroup(args.n)
    else:
        arities = [int(x) for x in args.arities.split(",") if x]
        alg = tight_example(TightExampleParams(args.n, tuple(arities)))
    payload = alg.to_json()
    if args.output:
        Path(args.output).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload, f"algebra '{alg.name}' with {len(alg.operations)} operation(s)"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubeterm",
        description="Decide cube, edge and near-unanimity terms in finite algebras.",
    )
    p.add_argument("--pretty", action="store_true",
                   help="print a one-line human summary to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def with_file(name: str, **kw) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, **kw)
        sp.add_argument("file", help="algebra JSON file")
        return sp

    with_file("validate", help="report invariant violations of an algebra file")

    sp = with_file("decide-cube", help="decide whether a cube term exists")
    sp.add_argument("--cap", type=int, default=None,
                    help="dimension cap for the general path")
    sp.add_argument("--force-general", action="store_true",
                    help="run the general decision even on idempotent input")

    with_file("find-blocker", help="polynomial cube-term-blocker search")

    sp = with_file("check-cube-dim", help="test one cube dimension")
    sp.add_argument("-d", dest="dim", type=int, required=True)
    sp = with_file("check-edge-dim", help="test one edge dimension")
    sp.add_argument("-d", dest="dim", type=int, required=True)
    sp = with_file("check-nu", help="test one near-unanimity arity")
    sp.add_argument("-k", dest="k", type=int, required=True)

    sp = with_file("decide-nu", help="decide near-unanimity term existence")
    sp.add_argument("--cap", type=int, default=None)

    sp = with_file("min-cube-dim", help="smallest cube dimension up to a cap")
    sp.add_argument("--cap", type=int, default=None)

    with_file("bounds", help="dimension bound formulas for an algebra")

    sp = sub.add_parser("gen", help="generate an algebra")
    gsub = sp.add_subparsers(dest="what", required=True)
    gf = gsub.add_parser("fixture", help=f"named fixture ({', '.join(FIXTURE_NAMES)})")
    gf.add_argument("name")
    gq = gsub.add_parser("quasigroup", help="idempotent quasigroup of order n")
    gq.add_argument("n", type=int)
    gt = gsub.add_parser("tight", help="tight example for the dimension bound")
    gt.add_argument("n", type=int)
    gt.add_argument("arities", help="comma-separated arities, e.g. 3,2")
    for g in (gf, gq, gt):
        g.add_argument("-o", "--output", default=None, help="also write to a file")

    sp = sub.add_parser("oracle", help="exhaustive cross-validation oracles")
    osub = sp.add_subparsers(dest="oracle", required=True)
    ob = osub.add_parser("blockers", help="scan all subuniverse pairs")
    ob.add_argument("file")
    oc = osub.add_parser("chipped-cubes", help="search compatible d-ary chipped cubes")
    oc.add_argument("file")
    oc.add_argument("-d", dest="dim", type=int, required=True)
    ok = osub.add_parser("clone", help="k-ary clone part as term tables")
    ok.add_argument("file")
    ok.add_argument("-k", dest="k", type=int, required=True)
    return p


#: The commands that take an algebra file, by envelope command name.
_ALGEBRA_COMMANDS = {
    "decide-cube": _cmd_decide_cube,
    "find-blocker": _cmd_find_blocker,
    "check-cube-dim": lambda alg, args: _dim_check("cube", alg, args.dim),
    "check-edge-dim": lambda alg, args: _dim_check("edge", alg, args.dim),
    "check-nu": lambda alg, args: _dim_check("nu", alg, args.k),
    "decide-nu": _cmd_decide_nu,
    "min-cube-dim": _cmd_min_cube_dim,
    "bounds": _cmd_bounds,
    "oracle blockers": _cmd_oracle_blockers,
    "oracle chipped-cubes": _cmd_oracle_chipped,
    "oracle clone": _cmd_oracle_clone,
}


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    started = time.monotonic()
    pretty = args.pretty
    digest: Optional[str] = None
    # the envelope's command name, on success and on truncation alike
    command = f"oracle {args.oracle}" if args.command == "oracle" else args.command

    try:
        if command == "gen":
            payload, summary = _cmd_gen(args)
        elif command == "validate":
            digest, payload, summary = _cmd_validate(args.file, args)
        else:
            alg, digest = _load_algebra(args.file)
            payload, summary = _ALGEBRA_COMMANDS[command](alg, args)
        _emit(command, digest, payload, started, pretty, summary)
        return EXIT_OK

    except _Undecided as und:
        _emit(command, digest, und.payload, started, pretty, "undecided/truncated")
        return EXIT_UNDECIDED
    except (InputError, ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its key: print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(json.dumps({"error": str(message)}), file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceededError, MemoryError) as exc:
        _emit(command, digest, {"truncated": True, "reason": str(exc)},
              started, pretty)
        return EXIT_UNDECIDED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
