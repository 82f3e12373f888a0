"""The online serving engine: micro-batched ego-network inference.

:class:`ServingEngine` turns the repo's *offline* bulk-sampling machinery
into an online service.  Concurrent :class:`~repro.serve.request.InferenceRequest`\\ s
are coalesced by the :class:`~repro.serve.request.MicroBatcher` into one
micro-batch, the micro-batch's (deduplicated) target vertices are compiled
through the existing sampling-plan IR (:mod:`repro.core.plan`, interpreted
by the same :class:`~repro.core.plan.LocalExecutor` training uses), and the
:class:`~repro.gnn.GNNModel` produces one logits row per target.  That is
the paper's bulk-amortization argument replayed at serving time: one
micro-batch costs one plan's worth of kernel launches no matter how many
requests share it.

The compute lives in :class:`~repro.serve.replica.Replica`; the engine is
the one control loop over ``config.replicas`` of them (1 by default):

* a :class:`~repro.serve.router.Router` policy assigns each request to a
  replica at submit time;
* an :class:`~repro.serve.admission.AdmissionController` may shed requests
  (queue-depth at submit, deadline at dispatch) — sheds are counted per
  replica and surfaced in the report;
* every replica runs its own :class:`~repro.serve.request.MicroBatcher`
  over its own queue; the loop repeatedly picks the earliest dispatch
  across live replicas, so the timeline is a deterministic merge of
  per-replica timelines;
* an optional :class:`~repro.serve.admission.Autoscaler` (enabled by
  ``slo_p99 > 0``) evaluates the p99 of each fixed interval on the
  simulated clock and steps the live replica count up or down.

Two serving modes:

* **exact** (default, ``fanout=None``) — every hop keeps the *full*
  neighborhood (a node-wise plan whose SAMPLE count is the graph's max
  in-degree), so the served logits are **bit-identical** to
  :func:`~repro.pipeline.layerwise_inference` for the same vertices.  Both
  paths run the convolutions' row-stable ``infer`` kernels, which is what
  makes the equality exact rather than approximate.  In this mode the
  :class:`~repro.serve.cache.EmbeddingCache` can memoize penultimate-layer
  rows for hot vertices (``embed_budget``) without changing a single bit,
  and *which* replica serves a request never changes its bits — routing,
  shedding and scaling only move latency and throughput.
* **sampled** (an explicit ``fanout``) — compiles micro-batches through
  the engine's *configured* sampler at that fanout: approximate logits,
  lower latency, any registered sampler/kernel backend.  The embedding
  cache stays off (sampled representations are not memoizable values).

All time is simulated: service time comes from the machine's roofline
:class:`~repro.comm.cost_model.CostModel` and accumulates on each
replica's :class:`~repro.comm.clock.SimClock` under ``sampling`` /
``propagation`` / ``embedding_cache`` phases, so admission, batching and
p50/p95/p99 latency are exactly reproducible.

**Streaming graphs.**  Built over a
:class:`~repro.stream.StreamingGraph`, the engine also consumes workloads
that interleave :class:`~repro.stream.EdgeBatch` mutations with requests
(:class:`~repro.stream.UpdateStream`).  An update due before the next
micro-batch's dispatch is applied first (:meth:`ServingEngine.apply_update`):
the delta-log merge and threshold compaction happen once on the shared
graph, then every replica absorbs the change — fanout refresh and
dirty-vertex invalidation of its embedding cache — on its own clock
under a ``graph_update`` phase.  So every request is served on the graph
as of its dispatch time and logits stay bit-identical to layer-wise
inference on the *current* adjacency.

With ``config.workers > 0`` the same loop runs each replica's timeline in
its own worker process (:mod:`repro.parallel.fleet`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..comm.clock import SimClock
from ..gnn.model import GNNModel
from ..graphs import Graph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .admission import AdmissionController, Autoscaler
from .cache import ServeStats
from .replica import Replica
from .request import InferenceRequest, InferenceResult
from .router import make_router

__all__ = ["ServingEngine", "ServeReport"]


@dataclass
class ServeReport:
    """Everything one :meth:`ServingEngine.process` run produced."""

    results: list[InferenceResult]
    batches: int
    phase_seconds: dict[str, float]
    cache_stats: ServeStats | None = None
    exact: bool = True
    # Streaming runs only: snapshot of the StreamingGraph's counters
    # (update batches, applied/skipped edits, compactions, dirty vertices).
    update_stats: object | None = None
    # Requests dropped by admission control, replica counts over time
    # ([(sim_time, n_replicas)], one entry unless the autoscaler steps),
    # and requests served per replica id.
    shed: int = 0
    replica_trace: list[tuple[float, int]] = field(default_factory=list)
    per_replica: dict[int, int] = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def latencies(self) -> np.ndarray:
        """Per-request end-to-end latency, in request-id order."""
        return np.array([r.latency for r in self.results])

    @property
    def makespan(self) -> float:
        """Completion time of the last request."""
        return max((r.completed for r in self.results), default=0.0)

    @property
    def throughput(self) -> float:
        """Requests served per simulated second."""
        span = self.makespan
        return self.n_requests / span if span > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.n_requests / self.batches if self.batches else 0.0

    def latency_summary(self) -> dict[str, float]:
        """n / mean / p50 / p95 / p99 / max of the request latencies."""
        from ..bench.reporting import latency_summary

        return latency_summary(self.latencies)

    def digest(self) -> str:
        """SHA-256 over (rid, vertices, logits) of every result.

        Bit-exact serving makes this digest stable across runs, batch
        sizes, wait policies and cache budgets — the CI smoke job pins it
        per run pair rather than per platform.
        """
        h = hashlib.sha256()
        for r in sorted(self.results, key=lambda r: r.request.rid):
            h.update(np.int64(r.request.rid).tobytes())
            h.update(np.ascontiguousarray(r.request.vertices).tobytes())
            h.update(np.ascontiguousarray(r.logits).tobytes())
        return h.hexdigest()

    def publish(self, registry, **labels) -> None:
        """Publish this report into a metrics registry
        (:mod:`repro.obs.metrics`) without touching any public field.

        Counters/gauges for the run totals and phase seconds, a latency
        histogram over the per-request latencies, and the nested
        cache/stream counters via their own ``publish`` hooks.
        """
        registry.counter(
            "serve_requests_total", "inference requests served", **labels
        ).inc(self.n_requests)
        registry.counter(
            "serve_batches_total", "micro-batches dispatched", **labels
        ).inc(self.batches)
        registry.gauge(
            "serve_throughput_req_per_s", "requests per simulated second",
            **labels,
        ).set(self.throughput)
        hist = registry.histogram(
            "serve_latency_seconds", "end-to-end request latency (simulated)",
            **labels,
        )
        for latency in self.latencies:
            hist.observe(float(latency))
        for phase, seconds in self.phase_seconds.items():
            registry.counter(
                "serve_phase_seconds_total", "simulated seconds by phase",
                phase=phase, **labels,
            ).inc(seconds)
        if self.shed:
            registry.counter(
                "serve_shed_total", "inference requests shed by admission",
                **labels,
            ).set(self.shed)
        if self.cache_stats is not None:
            self.cache_stats.publish(registry, **labels)
        if self.update_stats is not None and hasattr(self.update_stats, "publish"):
            self.update_stats.publish(registry, **labels)

    def row(self) -> dict[str, object]:
        """One reporting row for :func:`repro.bench.format_table`."""
        s = self.latency_summary()
        out: dict[str, object] = {
            "requests": self.n_requests,
            "batches": self.batches,
            "mean_batch": round(self.mean_batch_size, 3),
            "p50_ms": s["p50"] * 1e3,
            "p95_ms": s["p95"] * 1e3,
            "p99_ms": s["p99"] * 1e3,
            "req_per_s": self.throughput,
        }
        if self.cache_stats is not None:
            out["embed_hit"] = f"{self.cache_stats.hit_rate:.1%}"
            if self.cache_stats.invalidations:
                out["invalidated"] = self.cache_stats.invalidations
        if self.shed:
            out["shed"] = self.shed
        if self.update_stats is not None:
            out.update(self.update_stats.row())
        return out


class ServingEngine:
    """Serve logits for target vertices with micro-batched bulk sampling.

    ``config`` supplies the serving knobs (``serve_batch_size``,
    ``serve_max_wait``, ``embed_budget``), the replica count and router,
    admission control (``shed_policy``/``shed_queue_depth``/
    ``shed_deadline``), the autoscaler (``slo_p99 > 0`` with
    ``autoscale_min``/``autoscale_max``/``autoscale_interval``), the kernel
    backend, the machine model and the seed.  ``fanout=None`` selects the
    exact full-neighborhood mode; a tuple of per-layer counts selects
    sampled serving through the configured sampler (its length must match
    the model depth).
    """

    def __init__(
        self,
        model: GNNModel,
        graph: Graph,
        config,
        *,
        fanout: Sequence[int] | None = None,
        stream=None,
    ) -> None:
        if stream is not None:
            graph = stream.graph
        self.model = model
        self.graph = graph
        self.stream = stream
        self.config = config
        self.exact = fanout is None
        self._fanout = tuple(int(s) for s in fanout) if fanout is not None else None
        self.replicas: list[Replica] = [
            self._new_replica(rid) for rid in range(config.replicas)
        ]
        # Retired replicas keep contributing their clocks and shed counts
        # to the final report even after the autoscaler removes them.
        self.retired: list[Replica] = []
        self.router = make_router(config.router, graph.n)
        self.admission = AdmissionController(
            config.shed_policy,
            queue_depth=config.shed_queue_depth,
            deadline=config.shed_deadline,
        )
        self.autoscaler: Autoscaler | None = None
        if config.slo_p99 > 0:
            self.autoscaler = Autoscaler(
                config.slo_p99,
                min_replicas=config.autoscale_min,
                max_replicas=config.autoscale_max,
                interval=config.autoscale_interval,
            )

    def _new_replica(self, rid: int) -> Replica:
        return Replica(self.model, self.graph, self.config,
                       fanout=self._fanout, rid=rid)

    # ------------------------------------------------------------------ #
    # Request flow
    # ------------------------------------------------------------------ #
    def _submit(self, request: InferenceRequest) -> None:
        rid = self.router.route(request)
        rep = next(rep for rep in self.replicas if rep.rid == rid)
        admitted = self.admission.admit(rep, request)
        tracer = get_tracer()
        if tracer is not None:
            # The flight recorder's first hop: the routing decision, keyed
            # by the request's rid (the same trace id the replica's async
            # window carries).
            tracer.instant(
                "route", t=request.arrival, cat="router", track="router",
                args={
                    "req": int(request.rid),
                    "replica": int(rid),
                    "admitted": bool(admitted),
                },
            )
        if admitted:
            rep.queue.push(request)

    def apply_update(self, batch, at: float | None = None) -> float:
        """Apply one :class:`~repro.stream.EdgeBatch`; returns sim seconds.

        Absorbs the batch into the delta log (and maybe compacts) once, on
        the shared :class:`StreamingGraph`; then every replica absorbs the
        result — refresh the exact-mode fanout, drop stale probability
        matrices, invalidate reachable cached embeddings — charged to its
        own clock under ``graph_update``, busy from ``max(rep.free, at)``
        (``at`` defaults to the batch's arrival).  Returns the longest
        absorb.
        """
        if self.stream is None:
            raise ValueError(
                "this engine serves a frozen graph; build it over a "
                "StreamingGraph (Engine.serving with stream_updates=True) "
                "to apply edge updates"
            )
        result = self.stream.apply(batch)
        longest = 0.0
        for rep in self.replicas:
            start = max(rep.free, batch.at if at is None else at)
            seconds = rep.absorb_update(result, at=start)
            rep.free = start + seconds
            longest = max(longest, seconds)
        return longest

    def _autoscale_step(self, window: list[InferenceResult], now: float) -> None:
        """One autoscaler evaluation: maybe add or retire a replica."""
        scaler = self.autoscaler
        p99 = (
            float(np.percentile([r.latency for r in window], 99))
            if window
            else None
        )
        target = scaler.decide(p99, len(self.replicas))
        if target == len(self.replicas):
            return
        tracer = get_tracer()
        if tracer is not None:
            tracer.instant(
                "autoscale", t=now, cat="router", track="router",
                args={"from": len(self.replicas), "to": target},
            )
        if target > len(self.replicas):
            rid = max(rep.rid for rep in self.replicas + self.retired) + 1
            rep = self._new_replica(rid)
            rep.free = now  # joins cold, available from the decision point
            self.replicas.append(rep)
            self.router.rebalance([r.rid for r in self.replicas])
            return
        # Retire the newest replica; its queued work is re-routed (and
        # re-admitted) across the survivors.
        rep = max(self.replicas, key=lambda r: r.rid)
        self.replicas.remove(rep)
        self.retired.append(rep)
        orphans = sorted(
            rep.queue.pending + [r for _, _, r in rep.queue._arrivals],
            key=lambda r: (r.arrival, r.rid),
        )
        self.router.rebalance([r.rid for r in self.replicas])
        for req in orphans:
            self._submit(req)

    # ------------------------------------------------------------------ #
    # Serving entry points
    # ------------------------------------------------------------------ #
    def serve(self, vertices: np.ndarray) -> np.ndarray:
        """One-shot serving (no queueing): logits aligned with ``vertices``.

        Served by the lowest-id live replica; in exact mode the answer is
        the same from any replica.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.unique(vertices)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 401])
        )
        rep = min(self.replicas, key=lambda r: r.rid)
        logits = rep.logits_for(targets, rng)
        return logits[np.searchsorted(targets, vertices)]

    def process(self, workload) -> ServeReport:
        """Run a workload to exhaustion under the micro-batching policy.

        ``workload`` provides ``initial() -> [requests]`` and
        ``on_complete(result) -> [requests]`` (see :mod:`repro.serve.workload`).
        A workload may additionally provide ``updates() -> [EdgeBatch]``
        (:class:`~repro.stream.UpdateStream`), interleaved by arrival time.

        Each call reports only its own run: replica clocks, counters and
        queues reset on entry (cached rows and LFU frequencies persist
        across calls, like the feature cache across epochs).  With
        ``config.workers > 0`` the run executes on real cores
        (:func:`repro.parallel.fleet.process_parallel`) with every digest
        unchanged.
        """
        if self.config.workers > 0:
            from ..parallel.fleet import process_parallel

            return process_parallel(self, workload)
        updates = self._start(workload)
        results, batches, trace = self._run(workload.on_complete, updates)
        return self._report(results, batches, updates, trace)

    def _start(self, workload) -> list:
        """Per-run prologue: reset the replicas, install the live set on
        the router and submit the initial requests.  Returns the
        workload's edge updates."""
        for rep in self.replicas:
            rep.reset()
        if self.autoscaler is not None and (
            len(self.replicas) < self.autoscaler.min_replicas
        ):
            raise ValueError(
                "initial replica count is below the autoscaler minimum"
            )
        self.router.rebalance([rep.rid for rep in self.replicas])
        updates = list(workload.updates()) if hasattr(workload, "updates") else []
        if updates and self.stream is None:
            raise ValueError(
                "workload interleaves edge updates but this engine serves "
                "a frozen graph; build it with Engine.serving() under "
                "RunConfig(stream_updates=True) (or pass a StreamingGraph)"
            )
        for req in workload.initial():
            self._submit(req)
        return updates

    def _run(self, on_complete, updates) -> tuple[list[InferenceResult], int, list]:
        """The event loop over whatever is already queued.

        Each step asks every live replica's batcher for its next dispatch
        and picks the earliest ``(time, rid)``; every other candidate batch
        goes back to its queue front (each is its queue's oldest pending
        work, so push-back preserves order).  An update due at or before
        the chosen dispatch is applied first, and so is an autoscaler
        evaluation; the dispatch decision is then re-taken.  Deterministic
        end to end: every decision is a function of simulated times and
        ids.  Returns the results, the batch count and the autoscaler's
        ``[(sim_time, n_replicas)]`` trace.
        """
        results: list[InferenceResult] = []
        window: list[InferenceResult] = []
        scaler = self.autoscaler
        next_eval = scaler.interval if scaler is not None else None
        trace: list[tuple[float, int]] = [(0.0, len(self.replicas))]
        batch_index = 0
        next_update = 0
        while True:
            candidates = []
            for rep in self.replicas:
                dispatch = rep.batcher.next_dispatch(rep.queue, rep.free)
                if dispatch is not None:
                    candidates.append((dispatch[0], rep.rid, rep, dispatch[1]))
            if not candidates:
                if next_update == len(updates):
                    break
                # Requests drained first: apply the remaining churn.
                self.apply_update(updates[next_update])
                next_update += 1
                continue
            t, _, rep, batch = min(candidates, key=lambda c: (c[0], c[1]))
            update_due = next_update < len(updates) and updates[next_update].at <= t
            eval_due = next_eval is not None and t >= next_eval
            for _, _, other, other_batch in candidates:
                if other is not rep or update_due or eval_due:
                    other.queue.pending = other_batch + other.queue.pending
            if update_due:
                self.apply_update(updates[next_update])
                next_update += 1
                continue
            if eval_due:
                self._autoscale_step(window, next_eval)
                trace.append((next_eval, len(self.replicas)))
                window = []
                next_eval += scaler.interval
                continue
            batch = self.admission.filter_batch(rep, batch, t)
            if not batch:
                continue
            batch_results = rep.serve_batch(batch, t, batch_index)
            rep.free = batch_results[0].completed
            rep.batches += 1
            rep.served += len(batch_results)
            results.extend(batch_results)
            if next_eval is not None:
                window.extend(batch_results)
            for result in batch_results:
                for req in on_complete(result):
                    self._submit(req)
            batch_index += 1
        return results, batch_index, trace

    def _report(self, results, batches, updates, trace) -> ServeReport:
        results.sort(key=lambda r: r.request.rid)
        everyone = self.replicas + self.retired
        cache_stats: ServeStats | None = None
        if any(rep.cache is not None for rep in everyone):
            # Engine-wide counters: one ServeStats summing every replica's.
            cache_stats = ServeStats()
            for rep in everyone:
                for f in dataclasses.fields(ServeStats):
                    setattr(
                        cache_stats, f.name,
                        getattr(cache_stats, f.name) + getattr(rep.stats, f.name),
                    )
        report = ServeReport(
            results=results,
            batches=batches,
            phase_seconds=SimClock.merged(
                [rep.clock for rep in everyone]
            ).breakdown(),
            cache_stats=cache_stats,
            exact=self.exact,
            update_stats=(
                dataclasses.replace(self.stream.stats)
                if self.stream is not None and updates
                else None
            ),
            shed=sum(rep.stats.shed for rep in everyone),
            replica_trace=trace,
            per_replica={rep.rid: rep.served for rep in everyone},
        )
        registry = get_registry()
        if registry is not None:
            report.publish(registry)
            registry.gauge(
                "serve_replicas", "live replicas at end of run",
                router=self.router.name,
            ).set(len(self.replicas))
            for rep in everyone:
                rep.stats.publish(registry, replica=rep.rid)
                registry.counter(
                    "serve_replica_requests_total",
                    "requests served per replica", replica=rep.rid,
                ).set(rep.served)
        return report
