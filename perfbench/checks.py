"""The answer checker, run after the timed trace.

Every ``/solve`` width must equal an in-process reference from the library
front door (no daemon, no store), and its witness must pass
``repro.decomposition.validate`` against the hypergraph that was sent.
Every distinct ``/query`` (shape, database) answer must equal
``repro.cqcsp.evaluate``.  References are computed once per corpus member:
the per-request name prefix changes neither widths nor answers' shape.
A distinct request answered again with the same bytes (every replayed
round) is checked once.
"""

from __future__ import annotations

import json

from repro import Hypergraph, fractional_hypertree_width, generalized_hypertree_width
from repro.cqcsp import evaluate, parse_cq, relation_from_payload
from repro.decomposition import validate
from repro.decomposition.io import decomposition_from_json

import corpus

_FRONT_DOOR = {
    "ghw": generalized_hypertree_width,
    "fhw": fractional_hypertree_width,
}


def _solve_reference(request) -> float:
    width, _witness = _FRONT_DOOR[request.kind](Hypergraph(request.edges))
    return float(width)


def _query_reference(request) -> set:
    database = {
        name: relation_from_payload(name, payload)
        for name, payload in request.relations.items()
    }
    answers = evaluate(parse_cq(request.query), database).answers
    return {tuple(row) for row in answers.tuples}


def _solve_ok(request, response, reference) -> bool:
    answer = response["answer"]
    if abs(float(answer["width"]) - reference) > 1e-6:
        return False
    witness = decomposition_from_json(json.dumps(answer["witness"]))
    validate(
        Hypergraph(request.edges),
        witness,
        kind=corpus.DECOMPOSITION_KIND[request.kind],
        width=reference + 1e-6,
    )
    return True


def _query_ok(response, reference) -> bool:
    return {tuple(row) for row in response["answers"]["rows"]} == reference


def wrong_answers(requests, responses) -> list[str]:
    """Descriptions of every answered request whose answer is wrong.

    ``responses[i]`` is None for a request that failed or was refused;
    those are counted by the caller, not here.
    """
    references: dict = {}
    checked: set = set()
    wrong = []
    for index, (request, response) in enumerate(zip(requests, responses)):
        if response is None:
            continue
        # The response names every vertex it covers, so equal bytes for the
        # same distinct request mean the same names were sent.
        key = (request.ref, json.dumps(response))
        if key in checked:
            continue
        if request.ref not in references:
            compute = _solve_reference if request.op == "solve" else _query_reference
            references[request.ref] = compute(request)
        reference = references[request.ref]
        try:
            ok = (
                _solve_ok(request, response, reference)
                if request.op == "solve"
                else _query_ok(response, reference)
            )
        except (KeyError, TypeError, ValueError) as exc:
            wrong.append(f"#{index} {request.cls}: {type(exc).__name__}: {exc}")
            continue
        if not ok:
            wrong.append(f"#{index} {request.cls}: answer differs from reference")
        else:
            checked.add(key)
    return wrong
