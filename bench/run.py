"""cubeterm benchmark: seeded decision workloads, checked verdicts, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload two-element-bound --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of decisions built from the seed (see
workloads.py).  The run repeats the whole list in a closed loop, one
decision at a time, until --seconds have passed (and for at least three
passes).  Every outcome is checked against its reference.  The machine's
speed is calibrated between decisions and the end-to-end times are scaled
to a reference speed (speed.py).  See README.md for the metrics.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced (spans around every layer's entry points) and
prints the per-layer metrics.  The last line of stdout is the result
object; the line before it carries details (sample counts, verdict mix,
failures).  Exit status is 0 only when every verdict was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "_work"

WORKLOADS = ("two-element-bound", "tight-pointwise", "general-stacked", "blocker-certs")

MIN_PASSES = 3
SETUP_REPEATS = 7
PROBE_REPEATS = 3


def import_seconds() -> float:
    """Cumulative import time of cubeterm in a fresh interpreter.

    numpy is imported first, untimed: its import time is not cubeterm's, and
    it moves with the host's file cache far more than the rest of set-up.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import numpy; import cubeterm"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "cubeterm":
            return int(fields[1]) / 1e6
    raise RuntimeError("could not read the import time of cubeterm")


def declared_units() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def warm_up(workdir: Path) -> None:
    """Touch every layer once so lazy initialisation is not timed."""
    from cubeterm import blockers, cli, decide, fixtures, relations
    lat = fixtures.lattice2()
    decide.check_cube_dim(lat, 3)
    decide.check_nu(lat, 3)
    semi = fixtures.semilattice2()
    b = blockers.find_blocker(semi)
    blockers.verify_blocker(semi, b.C, b.D)
    spec = relations.ChippedCubeSpec(((b.C, b.D, 2),))
    relations.is_compatible(semi, relations.chipped_cube(spec, 2))
    path = workdir / "warmup.json"
    path.write_text(json.dumps(lat.to_json()))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(["bounds", str(path)])


def run_passes(decisions, budget_s: float, min_passes: int, tracer=None,
               first_pass: int = 0, speed=None) -> dict:
    """Closed loop over whole passes of the decision list.

    With a speed log, the machine's speed is calibrated between decisions
    and every time is also scaled to the reference speed (see speed.py).
    """
    walls, failures = [], []
    samples: list[list[float]] = [[] for _ in decisions]
    mids: list[list[float]] = [[] for _ in decisions]
    verdicts: Counter = Counter()
    attempted = 0
    started = time.perf_counter()
    pass_no = first_pass
    while len(walls) < min_passes or time.perf_counter() - started < budget_s:
        if speed is not None:
            speed.sample()
        wall = 0.0
        for dec, times, at in zip(decisions, samples, mids):
            if tracer is not None:
                tracer.pass_no = pass_no
                tracer.decision = f"{pass_no}:{dec.name}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                got = dec.run()
                error = None
            except Exception as exc:  # a crashing decision is a failed decision
                got, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            wall += elapsed
            times.append(elapsed)
            at.append(t0 + elapsed / 2)
            if error is None and dec.check(got, dec.expected):
                if pass_no == first_pass:
                    verdicts[dec.verdict(got)] += 1
            else:
                failures.append(f"{dec.name}: {error or f'got {got!r}, want {dec.expected!r}'}")
            if speed is not None:
                speed.tick()
        walls.append(wall)
        pass_no += 1
    if speed is not None:
        speed.sample()
        scaled = [[t * speed.factor_at(m) for t, m in zip(times, at)]
                  for times, at in zip(samples, mids)]
    else:
        scaled = samples
    return {"walls": walls, "failures": failures, "attempted": attempted,
            "verdicts": dict(verdicts),
            "scaled_walls": [sum(col) for col in zip(*scaled)],
            "decision_ms": [1000 * statistics.median(t) for t in scaled],
            "raw_decision_ms": [1000 * statistics.median(t) for t in samples],
            "passes": list(range(first_pass, pass_no))}


def backend_probe() -> dict:
    """One fixed closure through the dense and the hash dedup backend.

    Two unary operations on {0,1,2} (a 3-cycle and a map folding 1 onto 0)
    act coordinatewise on 4000 fixed rows of width 14 (code space 3**14,
    inside the dense range).  Every row starts with 0, 1, 2, so a member's
    first three entries name the transformation that made it; the target
    starts with 0, 1, 2 but is no generator, so it is never reached and
    the closure runs to exhaustion on both backends.  With unary
    operations each member yields one candidate per operation, so the run
    is dominated by dedup.
    """
    from cubeterm import subpower
    from cubeterm.algebra import FiniteAlgebra, OperationTable
    alg = FiniteAlgebra(3, (OperationTable("s", 1, (1, 2, 0)),
                            OperationTable("t", 1, (0, 0, 2))))
    rng = random.Random(0)
    rows = set()
    while len(rows) < 4001:
        rows.add((0, 1, 2) + tuple(rng.randrange(3) for _ in range(11)))
    gens = sorted(rows)
    target = gens.pop(rng.randrange(len(gens)))
    out = {}
    for label, dense_limit in (("dense", subpower.Budget().dense_limit), ("hash", 0)):
        rates = []
        for _ in range(PROBE_REPEATS):
            budget = subpower.Budget(dense_limit=dense_limit)
            t0 = time.perf_counter()
            ans = subpower.membership(alg, gens, target, budget=budget)
            elapsed = time.perf_counter() - t0
            if ans.found or ans.truncated:
                raise RuntimeError("backend probe closure changed")
            rates.append(ans.closure_size / elapsed)
        out[f"subpower.probe.{label}.members_per_s"] = statistics.median(rates)
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cubeterm").glob("*.py")))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "cubeterm" / "__init__.py").is_file():
        print(f"error: cubeterm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import speed
    import tracing
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    try:
        units = declared_units()["end_to_end" if args.trace == 0 else "per_layer"]
        build = workloads.BUILDERS[args.workload]
        # references, untimed; they also fill the oracle memo that the
        # stratified draws read when the set-up below rebuilds the inputs
        decisions = build(args.seed, WORKDIR)
        workloads.attach_references(decisions)
        # set-up: import, input generation and warm-up, each repetition
        # scaled by the calibrations just before and after it
        setups, raw_setups = [], []
        speed.calibrate()  # the first call pays one-off costs
        for _ in range(SETUP_REPEATS):
            before = speed.calibrate()
            import_s = import_seconds()
            t0 = time.perf_counter()
            build(args.seed, WORKDIR)
            warm_up(WORKDIR)
            raw_setups.append(import_s + time.perf_counter() - t0)
            after = speed.calibrate()
            setups.append(raw_setups[-1] * 2 * speed.REFERENCE_S / (before + after))

        level = tracing.tail_level(len(decisions))
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "decisions_per_pass": len(decisions), "tail_level": level,
                  "setup_s": setups, "unscaled_setup_s": raw_setups}
        if args.trace == 0:
            run_speed = speed.SpeedLog()
            res = run_passes(decisions, args.seconds, MIN_PASSES, speed=run_speed)
            per_decision = sorted(res["decision_ms"])
            raw_per_decision = sorted(res["raw_decision_ms"])
            metrics = {
                "wall_s": statistics.median(res["scaled_walls"]),
                "verdict_p50_ms": tracing.nearest_rank(per_decision, 0.5),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            unscaled = {
                "wall_s": statistics.median(res["walls"]),
                "verdict_p50_ms": tracing.nearest_rank(raw_per_decision, 0.5),
                "setup_s": statistics.median(raw_setups),
            }
            if level is not None:
                metrics["verdict_tail_ms"] = tracing.nearest_rank(per_decision, level)
                unscaled["verdict_tail_ms"] = tracing.nearest_rank(raw_per_decision, level)
            passes = len(res["walls"])
            detail.update(passes=passes, samples=passes * len(decisions),
                          speed_factor=run_speed.factor(), unscaled=unscaled)
            phases = [res]
        else:
            plain = run_passes(decisions, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run_passes(decisions, args.seconds / 2, 1, tracer,
                                    first_pass=len(plain["walls"]))
            metrics, exact, repeatable = tracing.layer_metrics(tracer.spans, traced["passes"])
            metrics["trace.overhead_frac"] = (
                statistics.median(traced["walls"]) / statistics.median(plain["walls"]) - 1)
            metrics["src.lines"] = src_lines()
            metrics.update(backend_probe())
            tracer.write(WORKDIR / f"spans-{args.workload}.jsonl")
            detail.update(passes_untraced=len(plain["walls"]),
                          passes_traced=len(traced["walls"]), spans=len(tracer.spans),
                          query_tail_level=tracing.tail_level(exact["subpower.queries"]),
                          repeatable=repeatable, exact_counts=exact)
            phases = [plain, traced]
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                               "are reported but not declared in BENCHMARK.json, or the reverse")

        attempted = sum(ph["attempted"] for ph in phases)
        failures = [f for ph in phases for f in ph["failures"]]
        detail.update(verdicts=phases[0]["verdicts"], attempted=attempted,
                      decision_ms={d.name: round(ms, 3) for d, ms in
                                   zip(decisions, phases[0]["decision_ms"])},
                      failed_frac=len(failures) / attempted, failures=failures[:10])
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps(result))
        return 0 if not failures else 1
    finally:
        for path in WORKDIR.glob("*.json"):
            path.unlink()


if __name__ == "__main__":
    sys.exit(main())
