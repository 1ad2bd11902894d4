"""Seeded inputs of the three workloads.

Every workload's composition and order are fixed; the seed only
chooses label renamings.  Two seeds therefore ask for the same work,
spelled differently, which is what lets runs with different seeds be
compared.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

from repro.core.io import problem_to_text
from repro.core.problem import Problem
from repro.problems import (
    family_problem,
    maximal_matching_problem,
    mis_problem,
    ruling_set_problem,
    sinkless_orientation_problem,
)

#: Single-character names a renaming draws from; every input alphabet
#: has at most 5 labels, so renamed texts stay as compact as the
#: originals.
_NAMES = string.ascii_uppercase + string.ascii_lowercase

#: ``kernel-ladder`` cases in pass order:
#: ``(case, builder, params, operator, steps)``.
LADDER_CASES: tuple[tuple[str, str, dict, str, int], ...] = (
    ("mis5", "mis", {"delta": 5}, "speedup", 2),
    ("mis6", "mis", {"delta": 6}, "speedup", 2),
    ("mis7", "mis", {"delta": 7}, "speedup", 2),
    ("family7", "family", {"delta": 7, "a": 5, "x": 1}, "speedup", 1),
    ("family8", "family", {"delta": 8, "a": 6, "x": 1}, "speedup", 1),
)

#: ``run.chain_signature`` of each ladder case's chain.  Recorded from
#: the serial kernel (two seeds, identical); the Delta=5 entry also
#: matches the reference engine.  Catches a wrong output that repeats
#: identically in every pass, which the cross-pass check cannot.
LADDER_SIGNATURES = {
    "mis5": "cb155265a9b67389",
    "mis6": "748e0c32dd3f3102",
    "mis7": "28dead810267d152",
    "family7": "d384908d3ae96da5",
    "family8": "2b31e2a72f59a17d",
}

#: Ladder cases the reference engine finishes in a few seconds, so a
#: run recomputes them once, outside timing (MIS Delta=5 takes ~3.7 s;
#: the family Delta=7 chain takes ~35 s and is left to the kernel's
#: cross-pass isomorphism check).
LADDER_REFERENCE_CASES = ("mis5",)

_BUILDERS = {
    "mis": mis_problem,
    "family": family_problem,
    "sinkless_orientation": sinkless_orientation_problem,
    "maximal_matching": maximal_matching_problem,
    "ruling_set": ruling_set_problem,
}

#: Distinct cheap ``service-small`` problems:
#: ``(builder, params, operator, steps, engine)``.  No two share an
#: operator application, so one job never warms another's cache.
SMALL_PROBLEMS: tuple[tuple[str, dict, str, int, str], ...] = (
    ("mis", {"delta": 3}, "speedup", 2, "kernel"),
    ("mis", {"delta": 4}, "speedup", 1, "reference"),
    ("sinkless_orientation", {"delta": 3}, "self-reduce", 2, "reference"),
    ("sinkless_orientation", {"delta": 4}, "self-reduce", 1, "kernel"),
    ("maximal_matching", {"delta": 3}, "self-reduce", 1, "kernel"),
    ("maximal_matching", {"delta": 4}, "self-reduce", 1, "reference"),
    ("ruling_set", {"delta": 2, "depth": 2}, "self-reduce", 1, "reference"),
    ("ruling_set", {"delta": 3, "depth": 2}, "self-reduce", 1, "kernel"),
    ("family", {"delta": 3, "a": 3, "x": 0}, "speedup", 1, "reference"),
    ("family", {"delta": 4, "a": 4, "x": 0}, "speedup", 1, "kernel"),
    ("family", {"delta": 4, "a": 2, "x": 1}, "speedup", 1, "kernel"),
)

#: The registered quick scenario and how often one pass submits it.
QUICK_SCENARIO = "maximal-matching2-selfreduce"
SCENARIO_REPEATS = 3

#: Malformed-``Content-Length`` POSTs per ``service-small`` pass.
MALFORMED_PER_PASS = 2

#: ``service-burst`` heavy jobs, one per burst, each requesting the
#: parallel kernel: ``(builder, params, operator, steps)``.
BURST_HEAVY: tuple[tuple[str, dict, str, int], ...] = (
    ("mis", {"delta": 6}, "speedup", 2),
    ("family", {"delta": 7, "a": 5, "x": 1}, "speedup", 1),
    ("family", {"delta": 8, "a": 6, "x": 1}, "speedup", 1),
)
BURST_WORKERS = 2
BURST_DUPLICATES = 2

#: Cheap independent jobs, four per burst, all distinct.
BURST_CHEAP: tuple[tuple[str, dict, str, int], ...] = (
    ("mis", {"delta": 3}, "speedup", 1),
    ("mis", {"delta": 4}, "speedup", 1),
    ("sinkless_orientation", {"delta": 3}, "self-reduce", 1),
    ("sinkless_orientation", {"delta": 4}, "self-reduce", 1),
    ("maximal_matching", {"delta": 3}, "self-reduce", 1),
    ("maximal_matching", {"delta": 4}, "self-reduce", 1),
    ("ruling_set", {"delta": 2, "depth": 2}, "self-reduce", 1),
    ("ruling_set", {"delta": 3, "depth": 2}, "self-reduce", 1),
    ("family", {"delta": 3, "a": 3, "x": 0}, "speedup", 1),
    ("family", {"delta": 4, "a": 4, "x": 0}, "speedup", 1),
    ("family", {"delta": 3, "a": 2, "x": 1}, "speedup", 1),
    ("family", {"delta": 4, "a": 3, "x": 1}, "speedup", 1),
)


def build(builder: str, params: dict) -> Problem:
    """The base problem ``builder(**params)``."""
    return _BUILDERS[builder](**params)


def renamed(problem: Problem, rng: random.Random) -> Problem:
    """``problem`` under a seeded bijection onto fresh one-letter labels."""
    fresh = rng.sample(_NAMES, len(problem.alphabet))
    return problem.rename(dict(zip(problem.alphabet, fresh)))


def inline_request(
    problem: Problem, operator: str, steps: int, engine: str, workers: int | None = None
) -> dict:
    """The ``POST /v1/jobs`` body of an inline-problem job."""
    body: dict = {"problem": problem_to_text(problem), "operator": operator, "steps": steps}
    if engine != "reference":
        body["engine"] = engine
    if workers is not None:
        body["workers"] = workers
    return body


@dataclass
class Op:
    """One operation of a service pass.

    ``primary`` is the index of the job this one duplicates (it must be
    done, or in flight, before this one is sent); ``malformed`` marks a
    POST with a non-numeric ``Content-Length``.
    """

    index: int
    body: dict = field(default_factory=dict)
    primary: int | None = None
    malformed: bool = False


def small_ops(seed: int) -> list[Op]:
    """One ``service-small`` pass: distinct jobs, renamed duplicates of
    them, the quick scenario (the first send computes, the rest replay)
    and the malformed probes, with seeded renamings.

    The submission order is one fixed shuffle in which every duplicate
    comes after its primary.  It is not seeded: with two client threads
    against a two-worker server, which jobs overlap depends on the
    order, and that would make seeds differ in work, not in spelling.
    """
    rng = random.Random(f"service-small:{seed}")
    items: list[tuple[str, object]] = []
    for number, (builder, params, operator, steps, engine) in enumerate(SMALL_PROBLEMS):
        base = build(builder, params)
        items.append((f"p{number}", inline_request(renamed(base, rng), operator, steps, engine)))
        items.append((f"d{number}", inline_request(renamed(base, rng), operator, steps, engine)))
    items.extend(("s", {"scenario": QUICK_SCENARIO}) for _ in range(SCENARIO_REPEATS))
    items.extend(("m", {}) for _ in range(MALFORMED_PER_PASS))
    random.Random("service-small:order").shuffle(items)
    # Restore primary-before-duplicate order by swapping offending pairs.
    position = {tag: index for index, (tag, _) in enumerate(items)}
    for number in range(len(SMALL_PROBLEMS)):
        first, second = position[f"p{number}"], position[f"d{number}"]
        if second < first:
            items[first], items[second] = items[second], items[first]
    ops: list[Op] = []
    seen: dict[str, int] = {}
    scenario_primary: int | None = None
    for index, (tag, body) in enumerate(items):
        assert isinstance(body, dict)
        op = Op(index=index, body=body, malformed=tag == "m")
        if tag.startswith("p"):
            seen[tag[1:]] = index
        elif tag.startswith("d"):
            op.primary = seen[tag[1:]]
        elif tag == "s":
            if scenario_primary is None:
                scenario_primary = index
            else:
                op.primary = scenario_primary
        ops.append(op)
    return ops


@dataclass
class Burst:
    """One ``service-burst`` burst: heavy primary, in-flight duplicates
    of it, and cheap independent jobs."""

    heavy: dict
    duplicates: list[dict]
    cheap: list[dict]


def burst_plan(seed: int) -> list[Burst]:
    """The bursts of one ``service-burst`` pass."""
    rng = random.Random(f"service-burst:{seed}")
    per_burst = len(BURST_CHEAP) // len(BURST_HEAVY)
    bursts = []
    for number, (builder, params, operator, steps) in enumerate(BURST_HEAVY):
        base = build(builder, params)
        heavy = inline_request(renamed(base, rng), operator, steps, "kernel", BURST_WORKERS)
        duplicates = [
            inline_request(renamed(base, rng), operator, steps, "kernel", BURST_WORKERS)
            for _ in range(BURST_DUPLICATES)
        ]
        cheap = [
            inline_request(renamed(build(b, p), rng), o, s, "kernel" if k % 2 else "reference")
            for k, (b, p, o, s) in enumerate(
                BURST_CHEAP[number * per_burst:(number + 1) * per_burst]
            )
        ]
        bursts.append(Burst(heavy=heavy, duplicates=duplicates, cheap=cheap))
    return bursts


def ladder_inputs(seed: int, pass_index: int) -> list[tuple[str, Problem, str, int]]:
    """Fresh seeded renamings of the ladder cases for one pass."""
    rng = random.Random(f"kernel-ladder:{seed}:{pass_index}")
    return [
        (case, renamed(build(builder, params), rng), operator, steps)
        for case, builder, params, operator, steps in LADDER_CASES
    ]
