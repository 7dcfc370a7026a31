"""Spans around cubeterm's public entry points, and the per-layer metrics.

The tracer measures each layer from outside: it replaces module attributes
(`cubeterm.decide.membership`, `cubeterm.blockers.sg`, ...) with timing
wrappers for the duration of the traced phase and puts the originals back
afterwards.  Callers inside cubeterm look those names up at call time, so
their internal calls are traced too.  `mix_family` returns a generator
that the closure engine consumes, so it is wrapped as a timed iterator
whose busy time is charged to whichever span is consuming it.

Counts come from call arguments and results (`MembershipAnswer`, blocker
results), not from counters inside the engine.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

from cubeterm import blockers, cli, decide, relations

# Space classes of a membership query, by its code space n**K: dense bitset
# range, int64 codes, and beyond int64.  Defined by the input, not by the
# backend the engine picks, so they stay meaningful if backends change.
DENSE_SPACE = 1 << 26
INT64_SPACE = 1 << 62


class Span:
    __slots__ = ("idx", "name", "start", "end", "parent", "decision", "pass_no",
                 "child", "busy", "count", "info")

    def __init__(self, idx, name, start, parent, decision, pass_no):
        self.idx = idx
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.decision = decision
        self.pass_no = pass_no
        self.child = 0.0   # time covered by child spans and consumed iterators
        self.busy = 0.0    # own duration (iterators: time inside next())
        self.count = 0     # iterators: items produced
        self.info: Any = None

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def to_json(self) -> dict:
        return {"id": self.idx, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "decision": self.decision,
                "pass": self.pass_no, "busy": self.busy, "self": self.self_time,
                "count": self.count, "info": self.info}


def _membership_info(args, kwargs, ans) -> dict:
    alg, target = args[0], args[2]
    return {"n": alg.size, "K": len(target), "found": ans.found,
            "members": ans.closure_size, "depth": ans.witness_depth,
            "truncated": ans.truncated}


def _truth(args, kwargs, result) -> bool:
    return result is not None and result is not False


class Tracer:
    """Records spans while installed; see `installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.decision: Optional[str] = None
        self.pass_no: Optional[int] = None

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(),
                    None if parent is None else parent.idx,
                    self.decision, self.pass_no)
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = time.perf_counter()
                span.busy = span.end - span.start
                if self.stack:
                    self.stack[-1].child += span.busy
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        class TimedIter:
            def __init__(self, it, span):
                self.it = it
                self.span = span

            def __iter__(self):
                return self

            def __next__(self):
                t0 = time.perf_counter()
                try:
                    item = next(self.it)
                finally:
                    t1 = time.perf_counter()
                    self.span.busy += t1 - t0
                    self.span.end = t1
                    if tracer.stack:
                        tracer.stack[-1].child += t1 - t0
                self.span.count += 1
                return item

        def traced(*args, **kwargs):
            return TimedIter(iter(fn(*args, **kwargs)), self._open(name))
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the body of the with statement."""
        plan = [
            (decide, "membership", "subpower.membership", _membership_info),
            (decide, "find_blocker", "blockers.find_blocker", _truth),
            (blockers, "find_blocker", "blockers.find_blocker", _truth),
            (blockers, "verify_blocker", "blockers.verify_blocker", _truth),
            (blockers, "sg", "algebra.sg", None),
            (blockers, "is_subuniverse", "algebra.is_subuniverse", None),
            (relations, "is_compatible", "relations.is_compatible", None),
            (relations, "chipped_cube", "relations.chipped_cube", None),
            (cli, "run", "cli.run", None),
        ] + [
            (decide, fn, f"decide.{fn}", None)
            for fn in ("check_cube_dim", "check_edge_dim", "check_nu",
                       "decide_cube", "decide_cube_general", "decide_cube_idempotent")
        ]
        saved = []
        try:
            for module, attr, name, info in plan:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            original = decide.mix_family
            saved.append((decide, "mix_family", original))
            decide.mix_family = self.wrap_iter("relations.mix_family", original)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Tail rule: the highest of these levels with at least MIN_BEYOND values
# ranked above it, by the nearest-rank rule.
TAIL_LEVELS = (0.9, 0.99, 0.999)
MIN_BEYOND = 10


def rank_of(q: float, count: int) -> int:
    """0-based rank of the q-quantile of count values by the nearest-rank rule."""
    return max(0, math.ceil(q * count) - 1)


def nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[rank_of(q, len(ordered))]


def tail_level(count: int) -> Optional[float]:
    """Tail level for count ranked values, or None when there are too few."""
    level = None
    for q in TAIL_LEVELS:
        if count - 1 - rank_of(q, count) >= MIN_BEYOND:
            level = q
    return level


def space_class(n: int, k: int) -> str:
    space = n ** k
    if space <= DENSE_SPACE:
        return "dense"
    if space < INT64_SPACE:
        return "int64"
    return "bytes"


def pass_counts(spans: list[Span]) -> dict[str, float]:
    """Exact counts and busy times of one pass's spans."""
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.busy for s in by.get(name, ()))

    mem = by.get("subpower.membership", [])
    infos = [s.info for s in mem]
    verify = by.get("blockers.verify_blocker", [])
    finds = by.get("blockers.find_blocker", [])
    sg_calls = len(by.get("algebra.sg", []))
    out = {
        "subpower.queries": len(mem),
        "subpower.members": sum(i["members"] for i in infos),
        "subpower.busy_s": busy("subpower.membership"),
        "subpower.self_s": sum(s.self_time for s in mem),
        "subpower.found": sum(1 for i in infos if i["found"]),
        "subpower.truncated": sum(1 for i in infos if i["truncated"]),
        "subpower.rounds": sum(i["depth"] or 0 for i in infos if i["found"]),
        "relations.mix_family.tuples": sum(s.count for s in by.get("relations.mix_family", ())),
        "relations.mix_family.busy_s": busy("relations.mix_family"),
        "algebra.sg.calls": sg_calls,
        "algebra.sg.busy_s": busy("algebra.sg"),
        "algebra.is_subuniverse.calls": len(by.get("algebra.is_subuniverse", [])),
        "algebra.is_subuniverse.busy_s": busy("algebra.is_subuniverse"),
        "blockers.find_blocker.calls": len(finds),
        "blockers.find_blocker.busy_s": busy("blockers.find_blocker"),
        "blockers.verify_blocker.calls": len(verify),
        "blockers.verify_blocker.hits": sum(1 for s in verify if s.info),
        "blockers.verify_blocker.busy_s": busy("blockers.verify_blocker"),
        "relations.is_compatible.calls": len(by.get("relations.is_compatible", [])),
        "relations.is_compatible.busy_s": busy("relations.is_compatible"),
        "relations.chipped_cube.busy_s": busy("relations.chipped_cube"),
        "cli.calls": len(by.get("cli.run", [])),
        "cli.self_s": sum(s.self_time for s in by.get("cli.run", ())),
        "decide.self_s": sum(s.self_time for s in spans if s.name.startswith("decide.")),
    }
    for cls in ("dense", "int64", "bytes"):
        out[f"subpower.space_{cls}.busy_s"] = sum(
            s.busy for s in mem if space_class(s.info["n"], s.info["K"]) == cls)
    return out


# Exact counts that must repeat between passes and between runs of a seed.
EXACT_COUNTS = ("subpower.queries", "subpower.members", "subpower.found",
                "subpower.rounds", "relations.mix_family.tuples",
                "algebra.sg.calls", "algebra.is_subuniverse.calls",
                "blockers.verify_blocker.calls", "blockers.verify_blocker.hits",
                "relations.is_compatible.calls", "cli.calls")


def layer_metrics(spans: list[Span], passes: list[int]) -> tuple[dict, dict, bool]:
    """Per-pass layer numbers: exact counts from the first traced pass, times
    as the median over traced passes.  Also returns the exact counts and
    whether every pass gave the same ones."""
    per_pass = [pass_counts([s for s in spans if s.pass_no == p]) for p in passes]
    first = per_pass[0]
    exact = {k: first[k] for k in EXACT_COUNTS}
    repeatable = all(all(pc[k] == first[k] for k in EXACT_COUNTS) for pc in per_pass)
    med = {k: statistics.median(pc[k] for pc in per_pass) for k in first}
    out = {}
    for k, v in first.items():
        out[k] = v if k in EXACT_COUNTS or k == "subpower.truncated" else med[k]
    queries = out["subpower.queries"]
    out["subpower.members_per_s"] = (
        out["subpower.members"] / out["subpower.busy_s"] if out["subpower.busy_s"] else 0.0)
    found = out.pop("subpower.found")
    out["subpower.found_frac"] = found / queries if queries else 0.0
    # the i-th query of every traced pass is the same query (the exact
    # counts repeat), so each query's latency is its median over passes
    per_pass = [[1000 * s.busy for s in spans
                 if s.pass_no == p and s.name == "subpower.membership"] for p in passes]
    query_ms = sorted(statistics.median(ms) for ms in zip(*per_pass))
    level = tail_level(len(query_ms))
    out["subpower.query_p50_ms"] = nearest_rank(query_ms, 0.5) if query_ms else 0.0
    out["subpower.query_tail_ms"] = nearest_rank(query_ms, level) if level else 0.0
    verify_calls = out["blockers.verify_blocker.calls"]
    hits = out.pop("blockers.verify_blocker.hits")
    out["blockers.hit_frac"] = hits / verify_calls if verify_calls else 0.0
    finds = out.pop("blockers.find_blocker.calls")
    out["blockers.sg_per_find"] = out["algebra.sg.calls"] / finds if finds else 0.0
    return out, exact, repeatable
