"""Per-layer metrics from two trace snapshots taken around the timed trace.

Each time is a per-request mean in milliseconds over the N requests of the
trace; metrics with unit ``count`` are totals over the trace and ``ratio``
metrics are shares.  ``CLAIMS`` names, for each metric, the workloads whose
trace must make it non-zero, the workloads that must leave it at exactly
zero (the claimed bypasses) and those where a ratio must be exactly one;
the self-test enforces all three.
"""

from __future__ import annotations

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("serve.self_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("serve.request_bytes", "count"),
    ("serve.response_bytes", "count"),
    ("hypergraph.canonical_hash_ms", "ms"),
    ("hypergraph.canonical_hash_calls", "count"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.bounds_ms", "ms"),
    ("pipeline.stitch_ms", "ms"),
    ("pipeline.scheduler_self_ms", "ms"),
    ("pipeline.tasks", "count"),
    ("pipeline.bounds_decided_ratio", "ratio"),
    ("pipeline.cancelled_ratio", "ratio"),
    ("pipeline.race_wasted_ms", "ms"),
    ("algorithms.check_ms", "ms"),
    ("sat.check_ms", "ms"),
    ("covers.lp_ms", "ms"),
    ("engine.lp_solves", "count"),
    ("engine.cover_cache_hit_ratio", "ratio"),
    ("decomposition.validate_ms", "ms"),
    ("decomposition.validate_calls", "count"),
    ("store.open_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.instance_hit_ratio", "ratio"),
    ("store.append_ms", "ms"),
    ("store.appends", "count"),
    ("store.bytes_appended", "count"),
    ("cqcsp.plan_ms", "ms"),
    ("cqcsp.plan_cache_hit_ratio", "ratio"),
    ("cqcsp.execute_ms", "ms"),
    ("cqcsp.node_relations_ms", "ms"),
    ("cqcsp.semijoin_ms", "ms"),
    ("cqcsp.yannakakis_ms", "ms"),
    ("cqcsp.rows_examined_per_answer_row", "ratio"),
    ("dist.submit_to_done_ms", "ms"),
    ("dist.worker_task_ms", "ms"),
    ("dist.frames", "count"),
    ("dist.bytes_sent", "count"),
    ("dist.requeued_tasks", "count"),
    ("dist.local_fallback_tasks", "count"),
    ("setup.import_repro_s", "s"),
    ("trace.throughput_overhead_ratio", "ratio"),
]

ALL = ("solve-cold", "solve-replay", "query-serve", "solve-remote")
SOLVING = ("solve-cold", "query-serve", "solve-remote")
_CQCSP = {"fires": ("query-serve",), "zero": ("solve-cold", "solve-replay", "solve-remote")}
_DIST = {"fires": ("solve-remote",), "zero": ("solve-cold", "solve-replay", "query-serve")}

#: metric -> {"fires": workloads where it must be > 0, "zero": where it must
#: be exactly 0, "one": where it must be exactly 1}.
CLAIMS = {
    "serve.self_ms": {"fires": ALL},
    "serve.wait_ms": {"fires": ALL},
    "serve.protocol_ms": {"fires": ALL},
    "serve.request_bytes": {"fires": ALL},
    "serve.response_bytes": {"fires": ALL},
    "hypergraph.canonical_hash_ms": {"fires": ALL},
    "hypergraph.canonical_hash_calls": {"fires": ALL},
    "pipeline.prepare_ms": {"fires": SOLVING, "zero": ("solve-replay",)},
    "pipeline.bounds_ms": {"fires": SOLVING, "zero": ("solve-replay",)},
    "pipeline.stitch_ms": {"fires": SOLVING, "zero": ("solve-replay",)},
    "pipeline.scheduler_self_ms": {"fires": ALL},
    "pipeline.tasks": {"fires": SOLVING, "zero": ("solve-replay",)},
    "pipeline.bounds_decided_ratio": {"fires": ("solve-cold",)},
    "pipeline.cancelled_ratio": {"fires": ("solve-cold",)},
    "algorithms.check_ms": {"fires": ("solve-cold", "solve-remote"), "zero": ("solve-replay",)},
    # ghw-reject requests use solver="portfolio", which runs SAT first.
    "sat.check_ms": {"fires": ("solve-cold",), "zero": ("solve-replay",)},
    "covers.lp_ms": {"fires": ("solve-cold",), "zero": ("solve-replay",)},
    "engine.lp_solves": {"fires": ("solve-cold",), "zero": ("solve-replay",)},
    "engine.cover_cache_hit_ratio": {"fires": ("solve-cold",)},
    "decomposition.validate_ms": {"fires": ALL},
    "decomposition.validate_calls": {"fires": ALL},
    "store.open_ms": {"fires": ALL},
    "store.get_ms": {"fires": ALL},
    "store.instance_hit_ratio": {"one": ("solve-replay",), "zero": ("solve-cold", "solve-remote")},
    "store.append_ms": {"fires": SOLVING, "zero": ("solve-replay",)},
    "store.appends": {"fires": SOLVING, "zero": ("solve-replay",)},
    "store.bytes_appended": {"fires": SOLVING, "zero": ("solve-replay",)},
    "cqcsp.plan_ms": _CQCSP,
    "cqcsp.plan_cache_hit_ratio": _CQCSP,
    "cqcsp.execute_ms": _CQCSP,
    "cqcsp.node_relations_ms": _CQCSP,
    "cqcsp.semijoin_ms": _CQCSP,
    "cqcsp.yannakakis_ms": _CQCSP,
    "cqcsp.rows_examined_per_answer_row": _CQCSP,
    "dist.submit_to_done_ms": _DIST,
    "dist.worker_task_ms": _DIST,
    "dist.frames": _DIST,
    "dist.bytes_sent": _DIST,
    "dist.requeued_tasks": {"zero": ALL},
    "dist.local_fallback_tasks": {"zero": ALL},
    "setup.import_repro_s": {"fires": ALL},
}


def _merge(snapshots: list[dict]) -> dict:
    spans: dict = {}
    counts: dict = {}
    engine: dict = {}
    for snap in snapshots:
        for name, (calls, seconds) in snap["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in snap["engine"].items():
            if isinstance(value, (int, float)):
                engine[name] = engine.get(name, 0) + value
    return {"spans": spans, "counts": counts, "engine": engine}


def _delta(before: dict, after: dict) -> dict:
    spans = {
        name: [
            calls - before["spans"].get(name, [0, 0.0])[0],
            seconds - before["spans"].get(name, [0, 0.0])[1],
        ]
        for name, (calls, seconds) in after["spans"].items()
    }
    counts = {
        name: value - before["counts"].get(name, 0)
        for name, value in after["counts"].items()
    }
    engine = {
        name: value - before["engine"].get(name, 0)
        for name, value in after["engine"].items()
    }
    return {"spans": spans, "counts": counts, "engine": engine}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(before: list, after: list, client: dict) -> dict:
    """Per-layer values from snapshots ``[daemon, worker?]`` and client totals.

    ``client`` holds ``n`` (trace length), ``latency_s`` (summed client
    latency), ``request_bytes``, ``response_bytes``, ``import_repro_s`` and
    ``overhead_ratio``.
    """
    d = _delta(_merge(before), _merge(after))
    spans, counts, engine = d["spans"], d["counts"], d["engine"]
    n = client["n"]

    def ms(span: str) -> float:
        return spans.get(span, [0, 0.0])[1] * 1000.0 / n

    def calls(span: str) -> int:
        return spans.get(span, [0, 0.0])[0]

    def count(name: str) -> float:
        return counts.get(name, 0)

    worker = _delta(before[1], after[1]) if len(after) > 1 else {"spans": {}}
    opened = after[0]["spans"].get("store.open", [0, 0.0])
    hits = engine.get("cache_hits", 0)
    lookups = hits + engine.get("cache_misses", 0)
    tasks_run = count("batch.tasks_run")
    cancelled = count("batch.tasks_cancelled")
    values = {
        "serve.self_ms": (client["latency_s"] - spans.get("serve.entry", [0, 0.0])[1])
        * 1000.0
        / n,
        "serve.wait_ms": ms("serve.wait"),
        "serve.protocol_ms": ms("serve.protocol"),
        "serve.request_bytes": client["request_bytes"],
        "serve.response_bytes": client["response_bytes"],
        "hypergraph.canonical_hash_ms": ms("hypergraph.canonical_hash"),
        "hypergraph.canonical_hash_calls": calls("hypergraph.canonical_hash"),
        "pipeline.prepare_ms": ms("pipeline.prepare"),
        "pipeline.bounds_ms": ms("pipeline.bounds"),
        "pipeline.stitch_ms": ms("pipeline.stitch"),
        "pipeline.scheduler_self_ms": ms("scheduler") - ms("scheduler.children"),
        "pipeline.tasks": tasks_run,
        "pipeline.bounds_decided_ratio": _ratio(
            count("batch.bounds_blocks_decided"), count("batch.blocks")
        ),
        "pipeline.cancelled_ratio": _ratio(cancelled, tasks_run + cancelled),
        "pipeline.race_wasted_ms": ms("pipeline.race_wasted"),
        "algorithms.check_ms": ms("algorithms.check"),
        "sat.check_ms": ms("sat.check"),
        "covers.lp_ms": ms("covers.lp"),
        "engine.lp_solves": engine.get("lp_solves", 0),
        "engine.cover_cache_hit_ratio": _ratio(hits, lookups),
        "decomposition.validate_ms": ms("decomposition.validate"),
        "decomposition.validate_calls": calls("decomposition.validate"),
        "store.open_ms": _ratio(opened[1] * 1000.0, opened[0]),
        "store.get_ms": ms("store.get"),
        "store.instance_hit_ratio": _ratio(
            count("batch.store_instance_hits"), count("batch.requests")
        ),
        "store.append_ms": ms("store.append"),
        "store.appends": count("store.appends"),
        "store.bytes_appended": count("store.bytes"),
        "cqcsp.plan_ms": ms("cqcsp.plan"),
        "cqcsp.plan_cache_hit_ratio": _ratio(
            count("cqcsp.plan_cache_hits"), count("cqcsp.plans")
        ),
        "cqcsp.execute_ms": ms("cqcsp.execute"),
        "cqcsp.node_relations_ms": ms("cqcsp.node_relations"),
        "cqcsp.semijoin_ms": ms("cqcsp.semijoin"),
        "cqcsp.yannakakis_ms": ms("cqcsp.yannakakis"),
        "cqcsp.rows_examined_per_answer_row": (
            count("cqcsp.cost") / max(1, count("cqcsp.answer_rows"))
        ),
        "dist.submit_to_done_ms": ms("dist.submit_to_done"),
        "dist.worker_task_ms": worker["spans"].get("pipeline.task", [0, 0.0])[1]
        * 1000.0
        / n,
        "dist.frames": count("dist.frames"),
        "dist.bytes_sent": count("dist.bytes_sent"),
        "dist.requeued_tasks": count("batch.requeued_tasks"),
        "dist.local_fallback_tasks": count("batch.tasks_local_fallback"),
        "setup.import_repro_s": client["import_repro_s"],
        "trace.throughput_overhead_ratio": client["overhead_ratio"],
    }
    return {name: values[name] for name, _unit in PER_LAYER}


def violations(workload: str, values: dict) -> list[str]:
    """Claims the traced run broke: silent layers, non-zero bypasses, and
    ratios that should be exactly one."""
    out = []
    for name, claim in CLAIMS.items():
        if workload in claim.get("fires", ()) and not values[name] > 0:
            out.append(f"{name} is {values[name]} on {workload}; its layer should fire")
        if workload in claim.get("zero", ()) and values[name] != 0:
            out.append(f"{name} is {values[name]} on {workload}; claimed bypass")
        if workload in claim.get("one", ()) and values[name] != 1:
            out.append(f"{name} is {values[name]} on {workload}; claimed to be 1")
    return out
