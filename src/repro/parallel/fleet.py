"""Parallel serving: each replica's timeline in its own process.

The serial :meth:`~repro.serve.engine.ServingEngine.process` loop is an
earliest-``(t, rid)`` merge of per-replica timelines.  When three
conditions hold, that merge *decomposes exactly* into independent
per-replica runs:

* **No autoscaler** (``slo_p99 == 0``): replica membership is fixed, so
  no global evaluation point couples the timelines.
* **Open-loop workload** (``workload.open_loop``): every request exists
  up front and ``on_complete`` issues nothing, so routing and
  queue-depth admission are a pure function of the submission order —
  they run in the parent, before any serving.
* **Exact mode**: logits consume no randomness and depend only on the
  requested vertices and the graph state at dispatch, so the global
  batch-index RNG key is metadata, not math.

Under those conditions the parent runs the engine's prologue (routing
and admission into each replica's queue), ships every replica's queue to
a worker, and each worker runs the *same* event loop on a one-replica
:class:`~repro.serve.engine.ServingEngine` over zero-copy shared-memory
graph/feature views and a private stream.  The parent reassembles the
global order (dispatches sort by ``(t, rid)``, exactly the serial merge
order), renumbers batch indices, replays the updates once on its own
stream for final graph state, and emits the same
:class:`~repro.serve.engine.ServeReport` the serial loop would.  Digest
bit-identity at every worker count is pinned in
``tests/test_fleet_parallel.py``.

Anything outside the decomposable regime raises an actionable error
pointing at the serial path rather than silently serving different
semantics.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from ..comm.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover
    from ..serve.engine import ServeReport, ServingEngine

__all__ = ["process_parallel", "clock_state", "restore_clock"]


# ---------------------------------------------------------------------- #
# SimClock (de)serialization — the defaultdict inside SimClock holds a
# lambda, so clocks cannot cross a pipe directly.
# ---------------------------------------------------------------------- #
def clock_state(clock: SimClock) -> tuple:
    """A picklable snapshot of one clock's time and phase accounting."""
    return (
        clock.world_size,
        list(clock._time),
        {key: list(per_rank) for key, per_rank in clock._phase_time.items()},
    )


def restore_clock(state: tuple) -> SimClock:
    """Rebuild a :class:`SimClock` from :func:`clock_state`."""
    world_size, times, phase_time = state
    clock = SimClock(world_size)
    clock._time = list(times)
    for key, per_rank in phase_time.items():
        clock._phase_time[key] = list(per_rank)
    return clock


# ---------------------------------------------------------------------- #
# Worker side: one replica's complete timeline
# ---------------------------------------------------------------------- #
def _serve_replica_task(adj, features, payload: dict) -> dict:
    """Run one replica's whole serving timeline in a pool worker.

    ``adj``/``features`` are the worker's shared-memory views; the payload
    carries the replica id, its admitted request queue, the full update
    stream, the model and the config.  The replica is served by the
    engine's own event loop, so its decisions match the serial run's.
    """
    from ..graphs import Graph
    from ..serve.engine import ServingEngine

    config = payload["config"]
    graph = Graph(name=payload["graph_name"], adj=adj, features=features)
    updates = payload["updates"]
    stream = None
    if updates:
        from ..stream.graph import StreamingGraph

        stream = StreamingGraph(
            graph, compaction_threshold=config.compaction_threshold
        )
    server = ServingEngine(
        payload["model"], graph, config.replace(replicas=1), stream=stream
    )
    rep = server.replicas[0]
    rep.rid = payload["rid"]
    rep.queue = payload["queue"]
    results, _, _ = server._run(lambda result: (), updates)
    return {
        "rid": rep.rid,
        "results": results,
        "clock": clock_state(rep.clock),
        "stats": rep.stats,
        "batches": rep.batches,
        "served": rep.served,
        "free": rep.free,
    }


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"parallel serving (workers > 0) {message}")


def process_parallel(server: "ServingEngine", workload) -> "ServeReport":
    """The ``workers > 0`` path of :meth:`ServingEngine.process`."""
    from ..serve.cache import ServeStats
    from ..serve.request import RequestQueue
    from .pool import WorkerPool
    from .shm import SharedFeatures, SharedGraph

    _require(server.exact, "requires exact serving (fanout=None): sampled "
             "serving draws from a global batch-index RNG the per-replica "
             "decomposition cannot reproduce")
    _require(server.autoscaler is None, "is incompatible with autoscaling "
             "(slo_p99 > 0): scaling decisions couple replica timelines; "
             "run with workers=0")
    _require(bool(getattr(workload, "open_loop", False)),
             "needs an open-loop workload (a request trace): closed-loop "
             "clients submit based on completions, which couples replica "
             "timelines; run with workers=0")
    _require(not any(rep.batches or rep.served for rep in server.replicas),
             "must start from fresh replicas: a reused engine carries warm "
             "embedding caches the cold worker replicas would diverge from")

    # Routing + queue-depth admission in submission order (parent side) —
    # identical to the serial loop because every request is submitted
    # before any serving starts in an open-loop run.
    updates = server._start(workload)
    shared_graph = SharedGraph.publish(server.graph.adj)
    shared_features = SharedFeatures.publish(server.graph.features)
    payloads = [
        {
            "rid": rep.rid,
            "graph_name": server.graph.name,
            "queue": rep.queue,
            "updates": updates,
            "model": server.model,
            "config": server.config,
        }
        for rep in server.replicas
    ]
    pool = WorkerPool(
        min(server.config.workers, len(server.replicas)),
        shared_graph, shared_features,
    )
    try:
        outcomes = pool.run(_serve_replica_task, payloads)
    finally:
        pool.shutdown()
        shared_graph.release()
        shared_features.release()

    # Global dispatch order = the serial merge order: each replica's
    # dispatch times increase, and the serial loop always takes the
    # earliest (t, rid) — a k-way merge of sorted streams.
    merged = sorted(
        (
            (r.dispatched, outcome["rid"], r.batch_index, r)
            for outcome in outcomes
            for r in outcome["results"]
        ),
        key=lambda entry: entry[:3],
    )
    renumber: dict[tuple[int, int], int] = {}
    results = [
        dataclasses.replace(
            r, batch_index=renumber.setdefault((rid, local), len(renumber))
        )
        for _, rid, local, r in merged
    ]

    # Merge worker state back onto the parent replicas so _report (and any
    # later inspection) sees the same replicas the serial loop would leave.
    by_rid = {rep.rid: rep for rep in server.replicas}
    for outcome in outcomes:
        rep = by_rid[outcome["rid"]]
        rep.clock = restore_clock(outcome["clock"])
        for f in dataclasses.fields(ServeStats):
            setattr(rep.stats, f.name,
                    getattr(rep.stats, f.name) + getattr(outcome["stats"], f.name))
        rep.batches = outcome["batches"]
        rep.served = outcome["served"]
        rep.free = outcome["free"]
        rep.queue = RequestQueue()

    # Replay the churn once on the parent's stream: final adjacency and
    # StreamStats match the serial run (workers applied updates only to
    # their private copies).  The parent replicas never absorbed it, so
    # bring them onto the final graph without charging their merged
    # clocks: exact fanout recomputed, cached state computed on the old
    # adjacency dropped.
    for update in updates:
        server.stream.apply(update)
    if updates:
        for rep in server.replicas:
            rep.fanout = rep._full_fanout()
            if rep.prob_cache is not None:
                rep.prob_cache.clear()
            if rep.cache is not None:
                rep.cache.clear()

    return server._report(
        results, len(renumber), updates, [(0.0, len(server.replicas))]
    )
