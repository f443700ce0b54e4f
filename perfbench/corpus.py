"""The frozen instance corpus and the label rewriting that keeps it cold.

``corpus.json`` stores every hypergraph, relation and query shape the
benchmark sends, edge by edge and row by row, so later changes to the
generators or to the bounds pre-pass cannot change the population
(``make_corpus.py`` regenerates the file).  A run's seed never picks
*which* structures are sent; it picks their order and a per-request
name prefix (and, for relations, a value permutation).  Prefixing every
vertex and edge name with one string keeps the names' relative order, so
the engines walk the same search, while the canonical hash changes, so
the result store and the cover caches see a new instance every time.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_PATH = HERE / "corpus.json"

#: Request kind -> decomposition kind its witness is validated as.
DECOMPOSITION_KIND = {"ghw": "ghd", "fhw": "fhd"}


def load() -> dict:
    with open(CORPUS_PATH) as handle:
        return json.load(handle)


def prefixed_edges(edges: dict, prefix: str) -> dict:
    """``edges`` with every edge and vertex name prefixed."""
    return {
        prefix + name: [prefix + v for v in vertices]
        for name, vertices in edges.items()
    }


def query_text(atoms: list, head: list, prefix: str = "") -> str:
    """CQ text over relation ``r`` with prefixed variable names."""
    body = ", ".join(
        f"{rel}({', '.join(prefix + v for v in args)})" for rel, args in atoms
    )
    return f"q({', '.join(prefix + v for v in head)}) :- {body}."


def permuted_rows(rows: list, rng: random.Random) -> list:
    """``rows`` with every value sent through one seeded bijection.

    Join sizes, and so execution cost, are invariant under a bijection of
    the value domain; only the bytes and the answers' values change.
    """
    values = sorted({v for row in rows for v in row}, key=repr)
    image = list(values)
    rng.shuffle(image)
    mapping = dict(zip(values, image))
    return [[mapping[v] for v in row] for row in rows]
