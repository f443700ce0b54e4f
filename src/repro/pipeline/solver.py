"""The ``WidthSolver`` facade: reduce → split → solve → stitch.

Every public width entry point of the library routes through this class
(``preprocess="none"`` is the escape hatch back to the raw algorithms).
A query runs in four stages, each timed and counted in
:class:`PipelineStats`:

1. **reduce** — kind-safe simplification rules with undo records
   (:mod:`repro.pipeline.reduce`);
2. **split** — biconnected blocks of the primal graph for ghw/fhw,
   connected components for hw (:mod:`repro.pipeline.split`);
3. **solve** — any registered per-block algorithm on a thread, process
   or remote pool: every search, check and exact oracle is submitted
   as a batch of one to :class:`~repro.pipeline.batch.BatchScheduler`
   (cross-block and cross-k speculation, portfolio races, early
   cancellation), and the heuristic drivers map one task per block;
4. **stitch** — per-block witnesses joined along the block-cut forest
   and reduction undos replayed (:mod:`repro.decomposition.stitch`),
   then re-validated against the *original* hypergraph.

The stitched width is ``max(1, max over blocks)``: every width measure
is >= 1 on a non-empty hypergraph and re-attached degree-1 leaves cost
exactly 1, so the pipeline answer equals the direct answer — the
property tests in ``tests/test_pipeline.py`` pin this agreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..decomposition import (
    Decomposition,
    replay_reductions,
    stitch_blocks,
    validate,
)
from ..hypergraph import Hypergraph
from .bounds import BOUNDS_MODES
from .reduce import ReducedInstance, reduce_instance
from .solve import SOLVER_MODES, make_pool, run_block_task
from .split import Block, split_instance

__all__ = [
    "WidthSolver",
    "PipelineStats",
    "solve_width",
    "last_pipeline_stats",
    "prepare_instance",
    "stitch_instance",
    "split_mode_for",
    "PREPROCESS_MODES",
]

#: Valid ``preprocess=`` arguments, in decreasing order of work done.
#: The CLI ``--preprocess`` flag and the README document exactly this
#: tuple (``tests/test_docs.py`` pins the agreement).
PREPROCESS_MODES = ("full", "reduce", "split", "none")

#: The stats of the most recent pipeline run in this process, for
#: callers (CLI ``--pipeline-stats``, benchmark tables) that go through
#: the plain entry-point functions rather than holding a WidthSolver.
_LAST_STATS = None


def last_pipeline_stats():
    """The :class:`PipelineStats` of the most recent run, or None.

    Returns
    -------
    PipelineStats or None
        Statistics of the last :class:`WidthSolver` query completed in
        this process, or None when no pipeline run has happened yet.
    """
    return _LAST_STATS

_EPS = 1e-9


def split_mode_for(kind: str, preprocess: str) -> str:
    """The split mode the pipeline uses for a decomposition kind.

    Parameters
    ----------
    kind : str
        Decomposition kind: ``"hd"``, ``"ghd"`` or ``"fhd"``.
    preprocess : str
        One of :data:`PREPROCESS_MODES`.

    Returns
    -------
    str
        ``"none"`` when the preprocess mode skips splitting,
        ``"components"`` for hw (re-rooting block HDs can break the
        special condition), ``"biconnected"`` for ghw/fhw.
    """
    if preprocess in ("none", "reduce"):
        return "none"
    return "components" if kind == "hd" else "biconnected"


def prepare_instance(
    hypergraph: Hypergraph, kind: str, preprocess: str = "full"
) -> tuple[ReducedInstance, list[Block], float, float]:
    """Run the reduce and split stages for one instance.

    This is the front half of the pipeline, run for every request of a
    batch (and so for every :class:`WidthSolver` query) before any
    block task is scheduled.

    Parameters
    ----------
    hypergraph : Hypergraph
        The instance to prepare.
    kind : str
        Decomposition kind (``"hd"``, ``"ghd"``, ``"fhd"``); gates
        which reduction rules and which split mode are safe.
    preprocess : str, optional
        One of :data:`PREPROCESS_MODES` (default ``"full"``).

    Returns
    -------
    (ReducedInstance, list of Block, float, float)
        The reduction outcome (with its undo records), the solvable
        blocks of the reduced hypergraph, and the reduce and split
        stage wall-clock times in seconds.

    Raises
    ------
    ValueError
        If ``preprocess`` is not one of :data:`PREPROCESS_MODES`.
    """
    if preprocess not in PREPROCESS_MODES:
        raise ValueError(f"preprocess must be one of {PREPROCESS_MODES}")
    t0 = time.perf_counter()
    if preprocess in ("full", "reduce"):
        reduced = reduce_instance(hypergraph, kind=kind)
    else:
        reduced = ReducedInstance(hypergraph, hypergraph)
    t1 = time.perf_counter()
    blocks = split_instance(
        reduced.hypergraph, split_mode_for(kind, preprocess)
    )
    return reduced, blocks, t1 - t0, time.perf_counter() - t1


def stitch_instance(
    original: Hypergraph,
    reduced: ReducedInstance,
    blocks: list[Block],
    witnesses: list[Decomposition],
    kind: str,
    width: float | None = None,
) -> Decomposition:
    """Join per-block witnesses and lift them back to the original.

    The back half of the pipeline, shared by the batch scheduler and
    the :class:`WidthSolver` heuristic drivers: re-root and join the
    block decompositions along the block-cut forest, replay the
    reduction undo records, and re-validate the result against the
    *original* hypergraph, so soundness never rests on the
    reduce/split layers being right.

    Parameters
    ----------
    original : Hypergraph
        The unreduced input instance to validate against.
    reduced : ReducedInstance
        The reduction outcome whose undo records are replayed.
    blocks : list of Block
        The blocks, parallel to ``witnesses``.
    witnesses : list of Decomposition
        One validated decomposition per block.
    kind : str
        Decomposition kind to validate as (``"hd"``/``"ghd"``/``"fhd"``).
    width : float, optional
        Width bound passed to the validator (None skips the check).

    Returns
    -------
    Decomposition
        A validated decomposition of ``original``.

    Raises
    ------
    ValueError
        If the stitched decomposition fails validation (a pipeline bug).
    """
    stitched = stitch_blocks(
        [
            (witness, block.parent, block.cut_vertex)
            for block, witness in zip(blocks, witnesses)
        ]
    )
    final = replay_reductions(stitched, reduced.undo)
    validate(original, final, kind=kind, width=width)
    return final


@dataclass
class PipelineStats:
    """Per-stage statistics of one pipeline run.

    A search, check or exact-oracle query runs as a batch of one, so
    its task counters are that batch's :class:`~.batch.BatchStats`
    counters: ``tasks_cancelled`` counts portfolio losers, speculative
    checks cancelled once their block settled, and — for a rejected
    check — every block task cancelled or never submitted.
    """

    kind: str = ""
    preprocess: str = "full"
    jobs: int = 1
    reduce_seconds: float = 0.0
    split_seconds: float = 0.0
    solve_seconds: float = 0.0
    stitch_seconds: float = 0.0
    vertices_before: int = 0
    edges_before: int = 0
    vertices_removed: int = 0
    edges_removed: int = 0
    rule_counts: dict = field(default_factory=dict)
    blocks: int = 1
    block_sizes: list = field(default_factory=list)  # (|V|, |E|) per block
    tasks_run: int = 0
    speculative_checks: int = 0
    tasks_cancelled: int = 0
    bounds: str = "none"
    bounds_seconds: float = 0.0
    bounds_ks_pruned: int = 0
    bounds_checks_avoided: int = 0
    bounds_blocks_decided: int = 0
    anytime_width: float | None = None

    @property
    def total_seconds(self) -> float:
        """Wall-clock summed over the pipeline stages (incl. bounds)."""
        return (
            self.reduce_seconds
            + self.split_seconds
            + self.bounds_seconds
            + self.solve_seconds
            + self.stitch_seconds
        )

    def as_dict(self) -> dict:
        """The statistics as a JSON-ready dictionary."""
        return {
            "kind": self.kind,
            "preprocess": self.preprocess,
            "jobs": self.jobs,
            "vertices_removed": self.vertices_removed,
            "edges_removed": self.edges_removed,
            "rule_counts": dict(self.rule_counts),
            "blocks": self.blocks,
            "block_sizes": list(self.block_sizes),
            "tasks_run": self.tasks_run,
            "speculative_checks": self.speculative_checks,
            "tasks_cancelled": self.tasks_cancelled,
            "bounds": self.bounds,
            "bounds_ks_pruned": self.bounds_ks_pruned,
            "bounds_checks_avoided": self.bounds_checks_avoided,
            "bounds_blocks_decided": self.bounds_blocks_decided,
            "anytime_width": self.anytime_width,
            "reduce_seconds": self.reduce_seconds,
            "split_seconds": self.split_seconds,
            "bounds_seconds": self.bounds_seconds,
            "solve_seconds": self.solve_seconds,
            "stitch_seconds": self.stitch_seconds,
            "total_seconds": self.total_seconds,
        }


class WidthSolver:
    """One hypergraph, every width query, one preprocessing discipline.

    Every search, check and exact-oracle method submits one request to
    a :class:`~repro.pipeline.batch.BatchScheduler` and returns its
    unwrapped result, so an answer (or error) is exactly what
    :func:`~repro.pipeline.batch.solve_many` gives for the same request.

    Parameters
    ----------
    hypergraph:
        The instance to decompose.
    preprocess:
        ``"full"`` (reduce + split, the default), ``"reduce"``,
        ``"split"``, or ``"none"`` (raw algorithms, bit-for-bit the
        pre-pipeline behaviour).
    jobs:
        Worker count for cross-block / cross-k parallelism (None or 1 =
        a one-worker pool).
    executor:
        ``"thread"`` (default; shares engine caches), ``"process"``
        (GIL-free, cold caches per worker; every query that runs a task
        starts its own pool, even at ``jobs=1``) or ``"remote"`` (the
        :mod:`repro.dist` worker fleet; the first query binds the
        process-wide registry's listener).
    solver:
        Engine-selection mode for the Check(X, k) queries, one of
        :data:`repro.pipeline.solve.SOLVER_MODES`: ``"bb"`` (default,
        branch-and-bound), ``"sat"`` (the CNF engine in
        :mod:`repro.sat`), or ``"portfolio"`` (race both per
        ``(block, k)`` task; the loser is cancelled and counted in
        ``last_stats.tasks_cancelled``).  Oracle/heuristic queries are
        unaffected.
    bounds:
        Bounds pre-pass mode, one of
        :data:`repro.pipeline.bounds.BOUNDS_MODES`: ``"portfolio"``
        (default; per-block ordering-portfolio upper bound + clique
        lower bound, seeding every exact search), ``"clique"`` (lower
        bound only), or ``"none"`` (no pre-pass — the pre-bounds
        behaviour).  The pre-pass only prunes which exact checks run;
        answers are identical in every mode.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        preprocess: str = "full",
        jobs: int | None = None,
        executor: str = "thread",
        solver: str = "bb",
        bounds: str = "portfolio",
    ) -> None:
        if preprocess not in PREPROCESS_MODES:
            raise ValueError(f"preprocess must be one of {PREPROCESS_MODES}")
        if solver not in SOLVER_MODES:
            raise ValueError(f"solver must be one of {SOLVER_MODES}")
        if bounds not in BOUNDS_MODES:
            raise ValueError(f"bounds must be one of {BOUNDS_MODES}")
        self.hypergraph = hypergraph
        self.preprocess = preprocess
        self.jobs = max(1, int(jobs or 1))
        self.executor = executor
        self.solver = solver
        self.bounds = bounds
        self.last_stats: PipelineStats | None = None

    # ------------------------------------------------------------------
    # Stage plumbing
    # ------------------------------------------------------------------
    def _stats(
        self,
        kind: str,
        reduced: ReducedInstance,
        blocks: list[Block],
        reduce_seconds: float,
        split_seconds: float,
    ) -> PipelineStats:
        return PipelineStats(
            kind=kind,
            preprocess=self.preprocess,
            jobs=self.jobs,
            reduce_seconds=reduce_seconds,
            split_seconds=split_seconds,
            vertices_before=self.hypergraph.num_vertices,
            edges_before=self.hypergraph.num_edges,
            vertices_removed=reduced.vertices_removed,
            edges_removed=reduced.edges_removed,
            rule_counts=dict(reduced.rule_counts),
            blocks=len(blocks),
            block_sizes=[
                (b.hypergraph.num_vertices, b.hypergraph.num_edges)
                for b in blocks
            ],
        )

    def _finish(self, stats: PipelineStats) -> None:
        global _LAST_STATS
        self.last_stats = stats
        _LAST_STATS = stats

    def _run(self, kind: str, params: dict):
        """Answer one query as a batch of one; its value or its error.

        ``kind`` is one of :data:`~.batch.BATCH_KINDS`; the batch runs
        the bounds pre-pass, the settle / race / cancel k-search and
        the stitch, and ``last_stats`` is filled from its one instance
        and its :class:`~.batch.BatchStats`.
        """
        from .batch import BatchRequest, BatchScheduler  # batch imports us

        scheduler = BatchScheduler(
            jobs=self.jobs,
            preprocess=self.preprocess,
            executor=self.executor,
            solver=self.solver,
            bounds=self.bounds,
        )
        result = scheduler.submit(BatchRequest(self.hypergraph, kind, params))
        batch = scheduler.run()
        instance = scheduler.instances[0]
        if instance.blocks is not None:  # None: the request was invalid
            stats = self._stats(
                instance.dkind,
                instance.reduced,
                instance.blocks,
                instance.reduce_seconds,
                instance.split_seconds,
            )
            stats.bounds = "none" if kind == "bounds" else self.bounds
            stats.bounds_seconds = instance.bounds_seconds
            stats.anytime_width = instance.anytime_width
            stats.solve_seconds = batch.solve_seconds - batch.stitch_seconds
            stats.stitch_seconds = batch.stitch_seconds
            for name in (
                "tasks_run",
                "speculative_checks",
                "tasks_cancelled",
                "bounds_ks_pruned",
                "bounds_checks_avoided",
                "bounds_blocks_decided",
            ):
                setattr(stats, name, getattr(batch, name))
            self._finish(stats)
        return result.unwrap()

    def _map_blocks(
        self, kind: str, solver: str, params: dict
    ) -> tuple[ReducedInstance, list[Block], list, PipelineStats]:
        """Prepare, then run one ``solver`` task per block on one pool.

        For the heuristic drivers, which have no settle, race or cancel
        step to schedule.
        """
        reduced, blocks, reduce_s, split_s = prepare_instance(
            self.hypergraph, kind, self.preprocess
        )
        stats = self._stats(kind, reduced, blocks, reduce_s, split_s)
        t0 = time.perf_counter()
        with make_pool(self.executor, self.jobs) as pool:
            futures = [
                pool.submit(run_block_task, solver, b.hypergraph, dict(params))
                for b in blocks
            ]
            results = [f.result() for f in futures]
        stats.solve_seconds = time.perf_counter() - t0
        stats.tasks_run = len(blocks)
        return reduced, blocks, results, stats

    def _stitch(
        self,
        reduced: ReducedInstance,
        blocks: list[Block],
        witnesses: list[Decomposition],
        stats: PipelineStats,
        kind: str,
        width: float,
    ) -> Decomposition:
        t0 = time.perf_counter()
        final = stitch_instance(
            self.hypergraph, reduced, blocks, witnesses, kind, width
        )
        stats.stitch_seconds = time.perf_counter() - t0
        self._finish(stats)
        return final

    # ------------------------------------------------------------------
    # Check(X, k) queries
    # ------------------------------------------------------------------
    def hypertree_decomposition(self, k: int) -> Decomposition | None:
        """Check(HD, k) with preprocessing; None when hw(H) > k."""
        return self._run("check-hd", {"k": k})

    def generalized_hypertree_decomposition(
        self, k: int, method: str = "fixpoint", **caps
    ) -> Decomposition | None:
        """Check(GHD, k) with preprocessing; None when ghw(H) > k."""
        return self._run("check-ghd", {"k": k, "method": method, **caps})

    def fractional_hypertree_decomposition_bounded_degree(
        self, k: float, d: int | None = None, **caps
    ) -> Decomposition | None:
        """Check(FHD, k) under bounded degree (Theorem 5.2), preprocessed.

        ``d`` defaults per block to the block's own degree, which never
        exceeds the input's — smaller supports, smaller searches.
        """
        params: dict = {"k": k, **caps}
        if d is not None:
            params["d"] = d
        return self._run("check-fhd-bd", params)

    # ------------------------------------------------------------------
    # Width searches (iterate k per block)
    # ------------------------------------------------------------------
    def hypertree_width(self, kmax: int | None = None) -> tuple[int, Decomposition]:
        """``hw(H)`` with a validated witness HD."""
        return self._run("hw", {"kmax": kmax})

    def generalized_hypertree_width(
        self, kmax: int | None = None, method: str = "fixpoint", **caps
    ) -> tuple[int, Decomposition]:
        """``ghw(H)`` with a validated witness GHD."""
        return self._run("ghw", {"kmax": kmax, "method": method, **caps})

    # ------------------------------------------------------------------
    # Exact elimination oracles (per-block 2^n DP)
    # ------------------------------------------------------------------
    def generalized_hypertree_width_exact(
        self, vertex_limit: int | None = None
    ) -> tuple[int, Decomposition]:
        """Exact ``ghw(H)``; the 2^n limit applies *per block*.

        Blocks the bounds pre-pass *decided* (clique lower bound meets
        a validated portfolio witness) skip the 2^n DP entirely.
        """
        params = {} if vertex_limit is None else {"vertex_limit": vertex_limit}
        return self._run("ghw-exact", params)

    def fractional_hypertree_width_exact(
        self, vertex_limit: int | None = None
    ) -> tuple[float, Decomposition]:
        """Exact ``fhw(H)``; the 2^n limit applies *per block*."""
        params = {} if vertex_limit is None else {"vertex_limit": vertex_limit}
        return self._run("fhw", params)

    # ------------------------------------------------------------------
    # Heuristic and approximation drivers
    # ------------------------------------------------------------------
    def heuristic_decomposition(
        self, cost: str = "fractional", ordering: str = "min-fill"
    ) -> tuple[float, Decomposition]:
        """Per-block heuristic elimination decomposition, stitched."""
        kind = "fhd" if cost == "fractional" else "ghd"
        reduced, blocks, results, stats = self._map_blocks(
            kind,
            "heuristic-decomposition",
            {"cost": cost, "ordering": ordering},
        )
        width = max(1.0, *(float(w) for w, _d in results)) if results else 1.0
        final = self._stitch(
            reduced,
            blocks,
            [d for _w, d in results],
            stats,
            kind,
            width=width + _EPS,
        )
        return final.width(), final

    def width_bounds(
        self, cost: str = "fractional"
    ) -> tuple[float, float, Decomposition]:
        """``(lower, upper, witness)``: the heuristic sandwich, blockwise.

        The lower bound is the max of the block lower bounds (each block
        is width-preserving, so this stays sound); the stitched witness
        achieves the upper bound.
        """
        return self._run("bounds", {"cost": cost})

    def fhw_approximation(self, K: float, eps: float, find_fhd=None):
        """Algorithm 4 (the PTAAS of Theorem 6.20), run per block.

        Each block's binary search runs independently (in parallel with
        ``jobs``); the stitched FHD has width ``max(1, max block
        widths) < fhw(H) + ε`` whenever ``fhw(H) <= K``.  A custom
        ``find_fhd`` receives *block* hypergraphs.
        """
        from ..algorithms.approx import FHWApproximationResult

        params: dict = {"K": K, "eps": eps}
        if find_fhd is not None:
            params["find_fhd"] = find_fhd
        reduced, blocks, results, stats = self._map_blocks(
            "fhd", "fhw-approximation", params
        )
        if any(r.failed for r in results):
            self._finish(stats)
            worst_failed = max(
                (r for r in results if r.failed), key=lambda r: r.iterations
            )
            return FHWApproximationResult(
                None,
                None,
                iterations=worst_failed.iterations,
                trace=worst_failed.trace,
            )
        worst = max(results, key=lambda r: r.iterations)
        width = max(1.0, *(r.width for r in results))
        final = self._stitch(
            reduced,
            blocks,
            [r.decomposition for r in results],
            stats,
            "fhd",
            width=width + _EPS,
        )
        return FHWApproximationResult(
            final, final.width(), iterations=worst.iterations, trace=worst.trace
        )


def solve_width(
    hypergraph: Hypergraph,
    kind: str = "ghw",
    preprocess: str = "full",
    jobs: int | None = None,
    executor: str = "thread",
    solver: str = "bb",
    bounds: str = "portfolio",
    **params,
):
    """One-call pipeline width query.

    ``kind`` is one of ``"hw"``, ``"ghw"``, ``"ghw-exact"``, ``"fhw"``
    (the exact oracle), or ``"bounds"`` (heuristic sandwich); extra
    keyword arguments go to the underlying solver method.  ``solver``
    selects the check engine (``"bb"``, ``"sat"`` or ``"portfolio"``)
    for the iterative kinds; ``bounds`` the pre-pass mode (one of
    :data:`repro.pipeline.bounds.BOUNDS_MODES`).
    """
    solver = WidthSolver(
        hypergraph,
        preprocess=preprocess,
        jobs=jobs,
        executor=executor,
        solver=solver,
        bounds=bounds,
    )
    dispatch = {
        "hw": solver.hypertree_width,
        "ghw": solver.generalized_hypertree_width,
        "ghw-exact": solver.generalized_hypertree_width_exact,
        "fhw": solver.fractional_hypertree_width_exact,
        "bounds": solver.width_bounds,
    }
    if kind not in dispatch:
        raise ValueError(f"kind must be one of {sorted(dispatch)}")
    return dispatch[kind](**params)
