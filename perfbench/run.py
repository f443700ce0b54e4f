"""Serving benchmark: one closed-loop client against a real ``repro serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced daemon.  The
trace is served in rounds that each send every distinct request once
(``workloads.py``).  A distinct request's latency is the fastest of its
sends, the latency percentiles are taken over those, and throughput is the
number of distinct requests over the sum of their fastest latencies.  The
machine's speed swings by up to 2x for seconds at a time (see README.md);
a send it slowed down is never the fastest one, so the swings move none of
these metrics unless they last the whole run.
``--trace 1`` serves the first half of the rounds twice, untraced and then
through the traced launcher (``perfbench/traced.py``), and prints the
per-layer metrics plus the tracing overhead on throughput.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Answers are checked after the timed trace; a failed, refused or wrong
answer counts as failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Daemon starts per untraced run; setup_s is their median.
SETUP_STARTS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
]


@dataclass
class Phase:
    """One daemon serving one trace."""

    setup_s: list
    requests: list
    latencies: list
    responses: list
    round_walls: list
    peak_rss_mb: float
    stats_delta: dict
    before: list | None = None
    after: list | None = None
    request_bytes: int = 0
    response_bytes: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.responses if r is None)

    def round_rates(self) -> list:
        """Requests per second of each round, in order."""
        size = len(self.latencies) // len(self.round_walls)
        return [size / wall for wall in self.round_walls]

    @property
    def throughput_rps(self) -> float:
        """Distinct requests / the sum of their fastest latencies: the rate
        one closed-loop client sustains when every request runs at its best."""
        best = self.best()
        return len(best) / sum(latency for _cls, latency in best.values())

    def best(self) -> dict:
        """Distinct request -> (class, fastest latency of its sends in s)."""
        sends: dict = {}
        for request, latency in zip(self.requests, self.latencies):
            sends.setdefault(request.ref, (request.cls, []))[1].append(latency)
        return {ref: (cls, min(seconds)) for ref, (cls, seconds) in sends.items()}

    def percentile_ms(self, q: int) -> float:
        """The q-th percentile (q in 1..99) over distinct requests of their
        fastest latency, in ms."""
        values = [latency for _cls, latency in self.best().values()]
        return statistics.quantiles(values, n=100)[q - 1] * 1000.0


def _send(client, request, hypergraph):
    if request.op == "solve":
        return client.solve(hypergraph, kind=request.kind, solver=request.solver)
    return client.query(request.query, request.relations)


def _prepared(requests):
    from repro import Hypergraph

    return [
        (r, Hypergraph(r.edges) if r.op == "solve" else None) for r in requests
    ]


def _start(workload, store: Path, traced: bool, starts: int, work: Path):
    """``starts`` daemon starts; all but the last are stopped.

    A workload that fills ``store`` restarts on it every time; the others
    start each daemon on a fresh store.
    """
    from daemon import Daemon

    times = []
    for i in range(starts):
        if not workload.fill:
            store = work / f"store-{'t' if traced else 'u'}{i}"
        daemon = Daemon(store, workload.executor, traced, work)
        times.append(daemon.setup_s)
        if i < starts - 1:
            daemon.stop()
    return times, daemon


def _fill(workload, store: Path, work: Path) -> None:
    """Solve the replay trace's distinct instances into ``store``."""
    from daemon import Daemon

    daemon = Daemon(store, workload.executor, False, work)
    try:
        for request, hypergraph in _prepared(workload.fill):
            _send(daemon.client, request, hypergraph)
    finally:
        daemon.stop()


def _serve(workload, rounds, store, traced: bool, starts: int, work: Path) -> Phase:
    from repro.serve import ServeError

    times, daemon = _start(workload, store, traced, starts, work)
    try:
        client = daemon.client
        for request, hypergraph in _prepared(workload.warmup):
            _send(client, request, hypergraph)
        prepared = [_prepared(one) for one in rounds]
        trace = [pair for one in prepared for pair in one]
        before = daemon.trace_snapshot() if traced else None
        stats_before = client.stats()["server"]
        latencies, responses, round_walls = [], [], []
        for one in prepared:
            started = time.perf_counter()
            for request, hypergraph in one:
                sent = time.perf_counter()
                try:
                    response = _send(client, request, hypergraph)
                except ServeError as exc:
                    print(f"request failed: {exc}", file=sys.stderr)
                    response = None
                latencies.append(time.perf_counter() - sent)
                responses.append(response)
            round_walls.append(time.perf_counter() - started)
        after = daemon.trace_snapshot() if traced else None
        stats_after = client.stats()["server"]
        phase = Phase(
            times,
            [request for request, _hypergraph in trace],
            latencies,
            responses,
            round_walls,
            daemon.peak_rss_mb(),
            {k: stats_after[k] - stats_before[k] for k in stats_after},
            before,
            after,
        )
    finally:
        daemon.stop()
    if traced:
        from repro.pipeline.batch import BatchRequest
        from repro.serve.protocol import request_to_payload

        for (request, hypergraph), response in zip(trace, responses):
            body = (
                request_to_payload(
                    BatchRequest(hypergraph, kind=request.kind, solver=request.solver)
                )
                if request.op == "solve"
                else {"query": request.query, "relations": request.relations}
            )
            phase.request_bytes += len(json.dumps(body).encode("utf-8"))
            phase.response_bytes += len(json.dumps(response).encode("utf-8"))
    return phase


def _import_repro_s(repeats: int = 3) -> float:
    """Median wall time of a bare ``python -c "import repro"``."""
    from daemon import _env as daemon_env

    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            cwd=ROOT,
            env=daemon_env(),
            check=True,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def class_report(phase: Phase) -> list[str]:
    """Per-class range of the distinct requests' fastest latencies, the
    rounds' measured rates, and the class on either side of each percentile."""
    best = phase.best()
    by_class: dict = {}
    for cls, latency in best.values():
        by_class.setdefault(cls, []).append(latency * 1000.0)
    lines = [
        f"  {cls}: {len(ms)} distinct requests, fastest sends {min(ms):.1f}..{max(ms):.1f} ms"
        for cls, ms in by_class.items()
    ]
    rates = sorted(phase.round_rates())
    lines.append(
        f"  round rates: {rates[0]:.4g}..{statistics.median(rates):.4g}..{rates[-1]:.4g} rps "
        "(slowest..median..fastest)"
    )
    ranked = sorted((latency, cls) for cls, latency in best.values())
    for q in (50, 90):
        target = phase.percentile_ms(q) / 1000.0
        below = [cls for latency, cls in ranked if latency <= target][-1:]
        above = [cls for latency, cls in ranked if latency >= target][:1]
        lines.append(f"  p{q} lies between requests of {below + above}")
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, rounds: int | None = None) -> dict:
    """One benchmark run; returns the result object (see module doc).

    ``rounds`` cuts the trace to its first rounds (the self-test's smoke size).
    """
    import checks
    import layers
    import workloads

    workload = workloads.build(name, seed, seconds)
    if rounds is not None:
        workload.rounds = workload.rounds[:rounds]
    work = WORK / f"{name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        store = work / "store"
        if workload.fill:
            _fill(workload, store, work)
        if not trace:
            phases = [_serve(workload, workload.rounds, store, False, SETUP_STARTS, work)]
        else:
            half = workload.rounds[: max(1, len(workload.rounds) // 2)]
            phases = [
                _serve(workload, half, store, False, 1, work),
                _serve(workload, half, store, True, 1, work),
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = failed = 0
    for phase in phases:
        wrong = checks.wrong_answers(phase.requests, phase.responses)
        for line in wrong:
            print(f"wrong answer: {line}", file=sys.stderr)
        attempted += len(phase.responses)
        failed += phase.failed + len(wrong)
    untraced = phases[0]
    n_req = len(untraced.latencies)
    print(
        f"{name} seed={seed}: {n_req} requests in {len(untraced.round_walls)} rounds "
        f"of {len(untraced.best())} distinct requests, "
        f"{len(untraced.setup_s)} daemon starts"
    )
    print("stats " + json.dumps(untraced.stats_delta))
    for line in class_report(untraced):
        print(line)
    if not trace:
        metrics = {
            "setup_s": statistics.median(untraced.setup_s),
            "throughput_rps": untraced.throughput_rps,
            "latency_p50_ms": untraced.percentile_ms(50),
            "latency_p90_ms": untraced.percentile_ms(90),
            "peak_rss_mb": untraced.peak_rss_mb,
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    else:
        traced = phases[1]
        metrics = layers.compute(
            traced.before,
            traced.after,
            {
                "n": n_req,
                "latency_s": sum(traced.latencies),
                "request_bytes": traced.request_bytes,
                "response_bytes": traced.response_bytes,
                "import_repro_s": _import_repro_s(),
                "overhead_ratio": untraced.throughput_rps / traced.throughput_rps - 1.0,
            },
        )
        units = dict(layers.PER_LAYER)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit so that every started daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
