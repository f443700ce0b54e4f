"""Regenerate ``corpus.json``, the frozen population every workload draws on.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_corpus.py [--out perfbench/corpus.json]

For each solve class it walks generator seeds in order and keeps the first
instances whose *whole-hypergraph* ``compute_block_bounds`` leaves a gap
(lower < upper) and whose library solve time falls inside the class's
window, so every kept request makes the exact engines run.  It records each
member's size (vertices, edges, arity), bounds, width and measured solve
time, and each class's solve-time range.  The file stores the edges and
rows themselves: regenerating is the only way the population changes.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from corpus import (  # noqa: E402
    CORPUS_PATH,
    DECOMPOSITION_KIND,
    prefixed_edges,
    query_text,
)

from repro import Hypergraph  # noqa: E402
from repro.cqcsp import QueryPlanner, parse_cq, relation_from_payload  # noqa: E402
from repro.cqcsp.workloads import hub_relation, zipf_relation  # noqa: E402
from repro.hypergraph.generators import (  # noqa: E402
    random_cq_hypergraph,
    random_csp_hypergraph,
)
from repro.pipeline import solve_many  # noqa: E402
from repro.pipeline.bounds import compute_block_bounds  # noqa: E402

#: name -> (kind, solver, generator args, members, solve-ms window, width rule).
#: "settle": the exact check accepts at the lower bound; "reject": it must
#: reject there first, so the answer is the pre-pass's upper bound.  Classes
#: have enough members that each appears only two to four times in a trace:
#: a percentile then falls between members of similar cost, not between two
#: long runs of repeats of one member.
SOLVE_CLASSES = {
    "ghw-settle": ("ghw", "bb", (10, 16, 2), 10, (5.0, 40.0), "settle"),
    "ghw-reject": ("ghw", "portfolio", (9, 14, 2), 15, (30.0, 90.0), "reject"),
    "fhw-gap": ("fhw", "bb", (7, 9, 3), 10, (100.0, 260.0), "any"),
}
#: Three ghw-reject members glued at cut vertices: three blocks, so three
#: exact tasks per request (the remote workload's heavy class).
CHAIN_CLASS = "ghw-chain3"
#: Replay classes: (atom range, members).  One class: a replayed answer's
#: cost is mostly per-request overhead, so sizes give no separated classes.
REPLAY_CLASSES = {"cq-mid": ((20, 40), 90)}
#: Cyclic query shapes with ghw >= 3 whose plan needs an exact solve, over
#: binary atoms r(u, v); kept when the Yannakakis cost (intermediate tuples)
#: over every QUERY_SHAPE_RELATION size falls inside QUERY_COST_WINDOW.
QUERY_SHAPE_ARGS, QUERY_SHAPES = (10, 16, 2), 1
QUERY_SHAPE_RELATION, QUERY_COST_WINDOW = "hub", (5000, 40000)
#: Frozen relation families: generator -> argument tuples.  Each family
#: has several sizes, so a query class's latencies spread over a range
#: instead of piling up at one value (a percentile inside one repeated
#: request would jump with the machine's speed).
RELATIONS = {
    "hub-small": ("hub_relation", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]),
    "zipf": ("zipf_relation", [(40, 40), (50, 40), (60, 40), (70, 40), (80, 40)]),
    "hub": ("hub_relation", [(3, 5), (4, 4), (3, 6), (4, 5), (4, 6)]),
}

_fresh = iter(range(10**9))


def solve_ms(edges: dict, kind: str, solver: str, repeats: int = 3) -> float:
    """Median library solve time, each repeat on freshly prefixed names."""
    times = []
    for _ in range(repeats):
        h = Hypergraph(prefixed_edges(edges, f"m{next(_fresh)}_"))
        start = time.perf_counter()
        (result,) = solve_many([(h, kind)], solver=solver)
        times.append((time.perf_counter() - start) * 1000)
        result.unwrap()
    return statistics.median(times)


def describe(h: Hypergraph, kind: str) -> dict:
    bounds = compute_block_bounds(h, DECOMPOSITION_KIND[kind])
    return {
        "vars": h.num_vertices,
        "edges_n": h.num_edges,
        "arity": max(len(vs) for vs in h.edges.values()),
        "lower": bounds.lower,
        "upper": bounds.upper,
    }


def edges_of(h: Hypergraph) -> dict:
    return {name: sorted(vs) for name, vs in sorted(h.edges.items())}


def solve_class(kind, solver, args, wanted, window, rule) -> list:
    members = []
    for seed in range(2000):
        if len(members) == wanted:
            return members
        h = random_csp_hypergraph(*args, rng=random.Random(seed))
        info = describe(h, kind)
        if not info["lower"] < info["upper"] - 1e-9:
            continue
        (result,) = solve_many([(h, kind)], solver=solver)
        width = result.unwrap()[0]
        settled = abs(width - max(1, -(-info["lower"] // 1))) < 1e-9
        if (rule == "settle" and not settled) or (rule == "reject" and settled):
            continue
        ms = solve_ms(edges_of(h), kind, solver)
        if window[0] <= ms <= window[1]:
            members.append(
                dict(seed=seed, width=width, solve_ms=round(ms, 1), **info, edges=edges_of(h))
            )
    raise SystemExit(f"only {len(members)} members found for {kind}/{args}")


def glue(a: dict, b: dict) -> dict:
    """Two hypergraphs sharing exactly one vertex (a cut vertex)."""
    a, b = prefixed_edges(a, "a"), prefixed_edges(b, "b")
    shared = min(v for vs in a.values() for v in vs)
    first_b = min(v for vs in b.values() for v in vs)
    b = {n: sorted(shared if v == first_b else v for v in vs) for n, vs in b.items()}
    return {**a, **b}


def query_shapes(family: list) -> list:
    """Cyclic ghw >= 3 shapes: an exact plan solve, a bounded execute cost."""
    databases = [
        {"r": relation_from_payload("r", {"attributes": r["attributes"], "rows": r["rows"]})}
        for r in family
    ]
    shapes = []
    for seed in range(2000):
        if len(shapes) == QUERY_SHAPES:
            return shapes
        h = random_csp_hypergraph(*QUERY_SHAPE_ARGS, rng=random.Random(seed))
        info = describe(h, "ghw")
        width = solve_many([(h, "ghw")])[0].unwrap()[0]
        if not info["lower"] < info["upper"] - 1e-9 or width < 3:
            continue
        atoms = [["r", vs] for vs in edges_of(h).values()]
        head = [min(h.vertices)]
        query = parse_cq(query_text(atoms, head))
        costs = [QueryPlanner().answer(query, db).cost for db in databases]
        if QUERY_COST_WINDOW[0] <= min(costs) and max(costs) <= QUERY_COST_WINDOW[1]:
            shapes.append(dict(seed=seed, width=width, costs=costs, **info, atoms=atoms, head=head))
    raise SystemExit(f"only {len(shapes)} query shapes found")


def class_summary(kind, solver, generator, members) -> dict:
    times = [m["solve_ms"] for m in members]
    return {
        "kind": kind,
        "solver": solver,
        "generator": generator,
        "solve_ms_range": [min(times), max(times)],
        "members": members,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(CORPUS_PATH))
    args = parser.parse_args()
    solve = {}
    for name, (kind, solver, gen, wanted, window, rule) in SOLVE_CLASSES.items():
        members = solve_class(kind, solver, gen, wanted, window, rule)
        solve[name] = class_summary(
            kind, solver, f"random_csp_hypergraph{gen}", members
        )
        print(name, solve[name]["solve_ms_range"], file=sys.stderr)
    rejects = solve["ghw-reject"]["members"]
    chains = []
    for i, a in enumerate(rejects):
        b, c = rejects[(i + 1) % len(rejects)], rejects[(i + 2) % len(rejects)]
        h = Hypergraph(glue(glue(a["edges"], b["edges"]), c["edges"]))
        (result,) = solve_many([(h, "ghw")], solver="bb")
        chains.append(
            dict(
                seed=[a["seed"], b["seed"], c["seed"]],
                width=result.unwrap()[0],
                solve_ms=round(solve_ms(edges_of(h), "ghw", "bb"), 1),
                **describe(h, "ghw"),
                edges=edges_of(h),
            )
        )
    solve[CHAIN_CLASS] = class_summary(
        "ghw", "bb", "three ghw-reject members joined at cut vertices", chains
    )
    print(CHAIN_CLASS, solve[CHAIN_CLASS]["solve_ms_range"], file=sys.stderr)

    replay = {}
    seed = 0
    for name, ((low, high), wanted) in REPLAY_CLASSES.items():
        members = []
        while len(members) < wanted:
            rng = random.Random(seed)
            h = random_cq_hypergraph(rng.randint(low, high), rng=rng)
            members.append(
                dict(seed=seed, vars=h.num_vertices, edges_n=h.num_edges, edges=edges_of(h))
            )
            seed += 1
        replay[name] = {
            "kind": "ghw",
            "solver": "bb",
            "generator": f"random_cq_hypergraph(randint({low}, {high}))",
            "members": members,
        }

    relations = {}
    makers = {"hub_relation": hub_relation, "zipf_relation": zipf_relation}
    for name, (generator, sizes) in RELATIONS.items():
        relations[name] = []
        for gen_args in sizes:
            relation = makers[generator](*gen_args, seed=1)
            relations[name].append(
                {
                    "generator": f"{generator}{gen_args}",
                    "attributes": list(relation.attributes),
                    "rows": sorted((list(row) for row in relation.tuples), key=repr),
                }
            )
    shapes = query_shapes(relations[QUERY_SHAPE_RELATION])
    cycles = {
        f"cycle{n}": {
            "atoms": [["r", [f"x{i}", f"x{i % n + 1}"]] for i in range(1, n + 1)],
            "head": ["x1"],
        }
        for n in (4, 5)
    }
    corpus = {
        "solve": solve,
        "replay": replay,
        "queries": {
            "shapes": dict(cycles, **{f"cq3-{s['seed']}": s for s in shapes}),
            "relations": relations,
        },
    }
    with open(args.out, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
