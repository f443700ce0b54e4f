"""The four workloads: fixed request traces built from the frozen corpus.

A trace is a number of rounds, sent in order by one closed-loop client.
Every round sends each of the workload's distinct requests once, in an
order the seed shuffles.  The number of rounds comes from ``--seconds``
through a fixed per-workload rate, never from a time window, so every run
of a workload sends the same population.

Sending every distinct request once per round spreads its sends over the
whole run, so ``run.py`` can take each distinct request's fastest send: a
send the machine slowed down is never the fastest one, unless the machine
was slow for the whole run.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

import corpus

#: Fewest rounds in a trace: every distinct request is sent at least this often.
MIN_ROUNDS = 5


@dataclass
class Request:
    """One request of a trace and what the answer checker needs."""

    cls: str
    op: str  # "solve" or "query"
    ref: tuple  # the distinct request this is a send of
    edges: dict | None = None
    kind: str = "ghw"
    solver: str | None = None
    query: str | None = None
    relations: dict | None = None


@dataclass
class Workload:
    name: str
    why: str
    classes: dict  # class -> how many of its corpus members each round sends
    rate: float  # requests per second the trace is sized by
    executor: str = "thread"
    fill: list = field(default_factory=list)
    warmup: list = field(default_factory=list)
    rounds: list = field(default_factory=list)


WORKLOADS = {
    "solve-cold": Workload(
        "solve-cold",
        "exact search and store appends on every request; cqcsp and store reads idle",
        {"ghw-settle": 4, "ghw-reject": 4, "fhw-gap": 3},
        rate=12.0,
    ),
    "solve-replay": Workload(
        "solve-replay",
        "every answer from a populated store: HTTP, JSON, hashing, store get and re-validation",
        {"cq-mid": 60},
        rate=230.0,
    ),
    "query-serve": Workload(
        "query-serve",
        "Yannakakis execution, relation decoding and plan-cache hits; one exact plan per shape",
        {"cycle4-hub": 5, "cycle5-zipf": 5, "cq3-hub": 5},
        rate=32.0,
    ),
    "solve-remote": Workload(
        "solve-remote",
        "exact tasks shipped over RPW1 frames to one loopback repro worker",
        {"ghw-settle": 5, "ghw-reject": 5, "ghw-chain3": 4},
        rate=20.0,
        executor="remote",
    ),
}

#: query-serve class -> (shape, relation family) in the corpus; a class has
#: one distinct request per relation size of its family.
QUERY_CLASSES = {
    "cycle4-hub": ("cycle4", "hub-small"),
    "cycle5-zipf": ("cycle5", "zipf"),
    "cq3-hub": (None, "hub"),  # None: the corpus's ghw >= 3 shape
}


def round_count(workload: Workload, distinct: int, seconds: float) -> int:
    """Rounds of ``distinct`` requests that fill ``seconds`` at the workload's rate."""
    return max(MIN_ROUNDS, round(workload.rate * seconds / distinct))


def _shuffled_rounds(distinct: list, count: int, rng) -> list:
    """``count`` rounds, each ``distinct`` in a seeded order."""
    rounds = []
    for _ in range(count):
        one = list(distinct)
        rng.shuffle(one)
        rounds.append(one)
    return rounds


def _solve_round(data, classes, tag, solver=None) -> list:
    """One request per member of each class, every name prefixed with ``tag``.

    A fresh prefix per send keeps each send cold: it changes the canonical
    hash, so neither the store nor a cover cache has seen it.
    """
    out = []
    for cls, count in classes.items():
        spec = data["solve"][cls]
        for index, member in enumerate(spec["members"][:count]):
            out.append(
                Request(
                    cls,
                    "solve",
                    (cls, index),
                    corpus.prefixed_edges(member["edges"], f"{tag}m{len(out):02d}_"),
                    spec["kind"],
                    solver or spec["solver"],
                )
            )
    return out


def _solve_rounds(workload, data, seconds, rng, tag, solver) -> list:
    size = sum(workload.classes.values())
    rounds = []
    for r in range(round_count(workload, size, seconds)):
        one = _solve_round(data, workload.classes, f"{tag}r{r:03d}", solver)
        rng.shuffle(one)
        rounds.append(one)
    return rounds


def _replay_requests(data, classes, tag) -> list:
    distinct = []
    for cls, count in classes.items():
        spec = data["replay"][cls]
        distinct += [
            Request(
                cls,
                "solve",
                (cls, i),
                corpus.prefixed_edges(m["edges"], f"{tag}n{i:02d}_"),
                spec["kind"],
                spec["solver"],
            )
            for i, m in enumerate(spec["members"][:count])
        ]
    return distinct


def _query_requests(data, classes, rng, tag) -> list:
    queries = data["queries"]
    cq3 = next(name for name in queries["shapes"] if name.startswith("cq3"))
    distinct = []
    for cls, count in classes.items():
        shape_name, family = QUERY_CLASSES[cls]
        shape = queries["shapes"][shape_name or cq3]
        text = corpus.query_text(shape["atoms"], shape["head"], tag)
        distinct += [
            Request(
                cls,
                "query",
                (cls, i),
                query=text,
                relations={
                    "r": {
                        "attributes": relation["attributes"],
                        "rows": corpus.permuted_rows(relation["rows"], rng),
                    }
                },
            )
            for i, relation in enumerate(queries["relations"][family][:count])
        ]
    return distinct


def build(name: str, seed: int, seconds: float) -> Workload:
    """The workload ``name`` with its trace for ``seed``."""
    base = WORKLOADS[name]
    workload = dataclasses.replace(base)
    data = corpus.load()
    rng = random.Random(f"{name}/{seed}")
    tag = f"s{seed}"
    if name == "solve-replay":
        distinct = _replay_requests(data, base.classes, tag)
        workload.fill = list(distinct)
        rng.shuffle(workload.fill)
        workload.rounds = _shuffled_rounds(
            distinct, round_count(base, len(distinct), seconds), rng
        )
        workload.warmup = workload.rounds[0][:4]
    elif name == "query-serve":
        distinct = _query_requests(data, base.classes, rng, tag)
        workload.rounds = _shuffled_rounds(
            distinct, round_count(base, len(distinct), seconds), rng
        )
        chain = [["r", ["y1", "y2"]], ["r", ["y2", "y3"]]]
        workload.warmup = [
            Request(
                "warmup",
                "query",
                ("warmup",),
                query=corpus.query_text(chain, ["y1"], "w" + tag),
                relations=distinct[0].relations,
            )
        ]
    else:
        solver = "bb" if base.executor == "remote" else None
        workload.rounds = _solve_rounds(base, data, seconds, rng, tag, solver)
        # One member of each class, under names no round uses.
        warm = _solve_round(data, base.classes, "w" + tag, solver)
        workload.warmup = [
            next(r for r in warm if r.cls == cls) for cls in base.classes
        ]
    return workload
