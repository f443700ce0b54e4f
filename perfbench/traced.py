"""Traced launcher: run ``repro serve`` or ``repro worker`` with layer timers.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python perfbench/traced.py serve --store DIR --port 0
    PERFBENCH_TRACE_FILE=worker.json python perfbench/traced.py worker --connect HOST:PORT

Before handing ``argv`` to :func:`repro.cli.main`, this wraps the public
functions each layer exposes (``prepare_instance``, ``compute_block_bounds``,
``ResultStore.append``, ``QueryPlanner.plan_detailed``, ``send_message``, ...)
in timers.  Nothing in ``src/`` changes: a wrapper replaces every reference
to the original that a loaded ``repro`` module holds, so call sites that
imported the name directly see it too.  A name that no longer exists raises
at start-up, so a renamed function fails the benchmark loudly instead of
reporting zero.

The daemon exposes the running totals under the ``perfbench_trace`` key of
``GET /stats``.  A worker has no HTTP port, so it rewrites the file named by
``PERFBENCH_TRACE_FILE`` just before each RPW1 frame other than a heartbeat
leaves it: the file is current whenever the daemon holds a task's result.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import weakref

perf = time.perf_counter


class Tracer:
    """Per-span call counts and seconds, plus plain counters.

    A span is a name; a function wrapped under a span name that is already
    open on the calling thread is not timed again (recursion and wrappers
    that delegate to each other count once).  Spans that close inside an
    open ``BatchScheduler.run`` — on its thread as direct children, or as
    top-level spans of pool threads — add to ``scheduler.children``, so the
    scheduler's self time is its span minus that.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.receipt: float | None = None
        self._run_thread: int | None = None
        self._ended_gates = weakref.WeakSet()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, span: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            entry = self.spans.setdefault(span, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, span: str, fn, before=None, after=None, ended=None):
        """``fn`` timed under ``span``.

        ``before(args, kwargs)`` runs first, ``after(args, kwargs, result,
        elapsed)`` once ``fn`` has returned, and ``ended(args, kwargs,
        elapsed)`` once it has returned or raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if span in stack:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack.append(span)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self.add(span, elapsed)
                self._charge_scheduler(span, stack, elapsed)
                if ended is not None:
                    ended(args, kwargs, elapsed)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return traced

    def _charge_scheduler(self, span, stack, elapsed) -> None:
        run_thread = self._run_thread
        if run_thread is None or span == "scheduler":
            return
        if stack:
            child = stack[-1] == "scheduler"
        else:
            child = threading.get_ident() != run_thread
        if child:
            self.add("scheduler.children", elapsed)

    def remote_task_done(self, elapsed: float) -> None:
        """A remote task resolved: the scheduler was waiting on the fleet."""
        self.add("dist.submit_to_done", elapsed)
        if self._run_thread is not None:
            self.add("scheduler.children", elapsed)

    # -- hooks ---------------------------------------------------------
    def mark_receipt(self, args, kwargs) -> None:
        self.receipt = perf()

    def end_wait(self, args, kwargs) -> None:
        receipt, self.receipt = self.receipt, None
        if receipt is not None:
            self.add("serve.wait", perf() - receipt)

    def scheduler_started(self, args, kwargs) -> None:
        self.end_wait(args, kwargs)
        self._run_thread = threading.get_ident()

    def scheduler_finished(self, args, kwargs, stats, elapsed) -> None:
        self._run_thread = None
        for field in (
            "requests",
            "blocks",
            "tasks_run",
            "tasks_cancelled",
            "bounds_blocks_decided",
            "store_instance_hits",
            "tasks_local_fallback",
            "requeued_tasks",
            "lp_solves",
        ):
            self.count("batch." + field, getattr(stats, field))

    def race_ended(self, args, kwargs, elapsed) -> None:
        """A raced engine returned or raised; all but the first are losers."""
        gate = args[0]
        with self._lock:
            lost = gate in self._ended_gates
            self._ended_gates.add(gate)
        if lost:
            self.add("pipeline.race_wasted", elapsed)

    def snapshot(self) -> dict:
        from repro import engine

        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "engine": dict(engine.stats()),
            }


TRACER = Tracer()


def _replace_everywhere(original, replacement) -> int:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"no repro module references {original!r}")
    return hits


def trace_function(module, attr: str, span: str, **hooks) -> None:
    original = getattr(module, attr)  # AttributeError on a renamed function
    _replace_everywhere(original, TRACER.wrap(span, original, **hooks))


def trace_method(cls, attr: str, span: str, **hooks) -> None:
    original = cls.__dict__[attr]  # KeyError on a renamed method
    setattr(cls, attr, TRACER.wrap(span, original, **hooks))


class _CountingSocket:
    """Counts the bytes of one RPW1 frame on its way out."""

    def __init__(self, sock, on_frame, kind) -> None:
        self._sock = sock
        self._on_frame = on_frame
        self._kind = kind

    def sendall(self, data) -> None:
        self._on_frame(len(data), self._kind)
        self._sock.sendall(data)


def install(on_frame=None) -> None:
    """Wrap every traced layer of the loaded ``repro`` package."""
    import repro.cli  # noqa: F401  (loads the modules whose names get patched)
    import repro.dist.worker  # noqa: F401

    # import_module, not "import a.b as b": packages re-export functions
    # under their submodules' names (repro.cqcsp.evaluate is a function).
    def module(name):
        return importlib.import_module("repro." + name)

    elimination = module("algorithms.elimination")
    fhd, ghd, hd = module("algorithms.fhd"), module("algorithms.ghd"), module("algorithms.hd")
    evaluate, yannakakis = module("cqcsp.evaluate"), module("cqcsp.yannakakis")
    validation = module("decomposition.validation")
    executor, protocol = module("dist.executor"), module("dist.protocol")
    backends = module("engine.backends")
    bounds, solve, solver = module("pipeline.bounds"), module("pipeline.solve"), module("pipeline.solver")
    sat_checks = module("sat.checks")
    serve_protocol, server = module("serve.protocol"), module("serve.server")
    from repro.cqcsp.planner import QueryPlanner
    from repro.hypergraph import Hypergraph
    from repro.pipeline.batch import BatchScheduler
    from repro.store import ResultStore

    t = TRACER
    for attr in ("request_from_payload", "query_request_from_payload"):
        trace_function(serve_protocol, attr, "serve.protocol", before=t.mark_receipt)
    for attr in ("answer_payload", "query_answer_payload"):
        trace_function(serve_protocol, attr, "serve.protocol")
    trace_method(Hypergraph, "canonical_hash", "hypergraph.canonical_hash")
    trace_function(solver, "prepare_instance", "pipeline.prepare")
    trace_function(bounds, "compute_block_bounds", "pipeline.bounds")
    trace_function(solver, "stitch_instance", "pipeline.stitch")
    trace_function(solve, "run_block_task", "pipeline.task")
    trace_function(
        solve, "run_gated_block_task", "pipeline.task", ended=t.race_ended
    )
    # Entry spans (serve.entry) wrap the scheduler/planner spans, so the
    # serve layer's self time is client latency minus serve.entry.
    trace_method(
        BatchScheduler,
        "run",
        "scheduler",
        before=t.scheduler_started,
        after=t.scheduler_finished,
    )
    trace_method(BatchScheduler, "run", "serve.entry")

    def plan_done(args, kwargs, result, elapsed):
        t.count("cqcsp.plans")
        t.count("cqcsp.plan_cache_hits", 1 if result[1].cache_hit else 0)

    trace_method(
        QueryPlanner, "plan_detailed", "cqcsp.plan", before=t.end_wait, after=plan_done
    )
    trace_method(QueryPlanner, "plan_detailed", "serve.entry")

    def executed(args, kwargs, result, elapsed):
        t.count("cqcsp.cost", result.cost)
        t.count("cqcsp.answer_rows", len(result.answers))

    trace_method(QueryPlanner, "execute", "cqcsp.execute", after=executed)
    trace_method(QueryPlanner, "execute", "serve.entry")
    trace_function(evaluate, "node_relations_from_ghd", "cqcsp.node_relations")
    trace_function(yannakakis, "semijoin_reduce", "cqcsp.semijoin")
    trace_function(yannakakis, "yannakakis", "cqcsp.yannakakis")
    for owner, attr in (
        (hd, "hypertree_decomposition"),
        (ghd, "generalized_hypertree_decomposition"),
        (fhd, "fractional_hypertree_decomposition_bounded_degree"),
        (elimination, "generalized_hypertree_width_exact"),
        (elimination, "fractional_hypertree_width_exact"),
    ):
        trace_function(owner, attr, "algorithms.check")
    for attr in (
        "sat_hypertree_decomposition",
        "sat_generalized_hypertree_decomposition",
        "sat_fractional_hypertree_decomposition",
    ):
        trace_function(sat_checks, attr, "sat.check")
    lp_backends = [
        cls
        for cls in vars(backends).values()
        if isinstance(cls, type)
        and issubclass(cls, backends.LPBackend)
        and cls is not backends.LPBackend
    ]
    for cls in lp_backends:
        trace_method(cls, "solve_covering_lp", "covers.lp")
    trace_function(validation, "validate", "decomposition.validate")
    trace_method(ResultStore, "__init__", "store.open")
    for attr in (
        "get",
        "get_instance",
        "get_block",
        "get_block_exact",
        "get_check",
        "get_oracle_entries",
    ):
        trace_method(ResultStore, attr, "store.get")

    def measure_append(args, kwargs):
        t._local.append_bytes = args[0].stats.bytes_valid

    def appended(args, kwargs, written, elapsed):
        if written:
            t.count("store.appends")
            t.count("store.bytes", args[0].stats.bytes_valid - t._local.append_bytes)

    trace_method(
        ResultStore, "append", "store.append", before=measure_append, after=appended
    )

    def submitted(args, kwargs, future, elapsed):
        start = perf() - elapsed
        future.add_done_callback(lambda _f: t.remote_task_done(perf() - start))

    trace_method(executor.RemoteExecutor, "submit", "dist.submit", after=submitted)

    def frame(nbytes: int, kind) -> None:
        # Liveness traffic runs on a wall-clock timer; count only the frames
        # that carry work, so the totals track the trace, not its duration.
        if kind in ("ping", "heartbeat"):
            return
        t.count("dist.frames")
        t.count("dist.bytes_sent", nbytes)
        if on_frame is not None:
            on_frame()

    original_send = protocol.send_message

    def send_message(sock, message):
        counting = _CountingSocket(sock, frame, message.get("type"))
        return original_send(counting, message)

    _replace_everywhere(original_send, functools.wraps(original_send)(send_message))

    def stats_payload(self, _original=server.DecompositionServer._stats_payload):
        payload = _original(self)
        payload["perfbench_trace"] = t.snapshot()
        return payload

    server.DecompositionServer._stats_payload = stats_payload


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    on_frame = None
    if argv[:1] == ["worker"]:
        if not trace_file:
            raise SystemExit("worker tracing needs PERFBENCH_TRACE_FILE")
        write_lock = threading.Lock()

        def on_frame() -> None:
            with write_lock:
                partial = trace_file + ".tmp"
                with open(partial, "w") as handle:
                    json.dump(TRACER.snapshot(), handle)
                os.replace(partial, trace_file)

    install(on_frame)
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
