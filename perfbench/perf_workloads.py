"""The benchmark's four workloads: generated inputs, timed operations and
output checks.

Every input is a function of the workload seed: the model initialisation,
the minibatch shuffles, the sampling randomness, the request traces and the
edge churn.  The dataset and its train/val/test split are generated from
the fixed :data:`DATASET_SEED`, so runs at different seeds measure the
same graph rather than graphs of different sizes.  The program under test
sees only the generated config, graph, trace or update stream.  Each
workload uses the ``RunConfig`` default kernel and ``workers=0``.

A workload runs set-up, one untimed warm-up pass, then timed operations
(``prepare`` and ``record`` stay outside the timed region, ``run`` is
inside it) and finally its output checks, which also stay untimed.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time

import numpy as np

from repro.api import Engine, RunConfig
from repro.api.registries import make_sampler
from repro.core.bulk import batch_rng, reassemble_round_robin
from repro.pipeline import layerwise_inference
from repro.serve import ServingEngine, TraceWorkload
from repro.stream import StreamingGraph, UpdateStream

from perf_stats import median, min_samples, percentile, supports

#: Simulated seconds between requests of a serving trace: far below the
#: simulated service time, so every micro-batch leaves full (cap 8).
INTERARRIVAL = 1e-4
#: Delta-log size, as a fraction of the base nnz, at which the churned
#: graph compacts: low enough that several compactions land in every run.
COMPACTION_THRESHOLD = 0.01
#: Requests per replayed trace chunk (one ``process`` call).
CHUNK_REQUESTS = 200
WARMUP_REQUESTS = 64
DATASET_SEED = 0


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for the input at ``path`` under workload ``seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def seeded_engine(config: RunConfig) -> Engine:
    """An engine for ``config`` over the fixed dataset and split."""
    graph = Engine(config.replace(seed=DATASET_SEED)).graph
    return Engine(config.replace(train_split=None), graph=graph)


def minibatch_digest(mb) -> str:
    """sha256 over every array of one sampled minibatch."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
    for layer in mb.layers:
        for arr in (
            layer.adj.indptr,
            layer.adj.indices,
            layer.adj.data,
            np.asarray(layer.src_ids, dtype=np.int64),
            np.asarray(layer.dst_ids, dtype=np.int64),
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(layer.adj.shape).encode())
    return h.hexdigest()


class Workload:
    """Shared bookkeeping: per-operation wall times, work done, failures."""

    name = ""
    #: Report lines: (metric, unit) of the work rate this workload gates
    #: as ``work_per_s``, and the operation ``op_ms.p50`` times.
    work_metric = ("", "")
    op_metric = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op_s: list[float] = []  # wall seconds of each timed operation
        self.work = 0  # seeds, minibatches or requests completed
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0  # wall seconds inside the timed region
        self.notes: list[str] = []  # check outcomes, for the report

    def fail(self, payload) -> None:
        """Count a timed operation that raised."""
        n = self.ops_in(payload)
        self.attempted += n
        self.failed += n

    def e2e(self) -> dict[str, float]:
        return {
            "work_per_s": self.work / self.timed_s,
            "op_ms.p50": 1e3 * median(self.op_s),
        }

    def report(self) -> list[tuple[str, float, str, str]]:
        """(name, value, unit, sample note) lines of the workload's own
        metric names."""
        n = len(self.op_s)
        name, unit = self.work_metric
        return [
            (name, self.work / self.timed_s, unit, f"n={self.work}"),
            (self.op_metric, 1e3 * median(self.op_s), "ms", f"n={n}"),
        ]

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counters the program keeps itself (traced run)."""
        return {}


# ---------------------------------------------------------------------- #
# Batch jobs
# ---------------------------------------------------------------------- #
class TrainSage(Workload):
    """``Engine.train_epoch``: 3-layer GraphSAGE on ``papers`` scale 0.25,
    Graph Replicated p=4 c=1, about 6 minibatches per epoch."""

    name = "train-sage"
    work_metric = ("train.samples_per_s", "seeds/s")
    op_metric = "train.epoch_ms.p50"
    MIN_EPOCHS = 2
    #: Mean loss of the warm-up epoch (epoch 0) at the default seed.
    REFERENCE_LOSS = {0: 2.502027943258782}

    @staticmethod
    def config(seed: int) -> RunConfig:
        return RunConfig(
            dataset="papers", scale=0.25, sampler="sage", fanout=(15, 10, 5),
            hidden=128, batch_size=128, train_split=0.05,
            algorithm="replicated", p=4, c=1, seed=seed,
        )

    def setup(self) -> None:
        self.engine = seeded_engine(self.config(self.seed))
        self.engine.pipeline  # builds the model, optimizer and backend
        self.epochs = []

    def warmup(self) -> None:
        self.warm = self.engine.train_epoch(0)

    def prepare(self, i: int) -> int:
        return i + 1  # epoch index; epoch 0 was the warm-up

    def ops_in(self, epoch: int) -> int:
        return self.engine.graph.num_batches(self.engine.config.batch_size)

    def run(self, epoch: int):
        return self.engine.train_epoch(epoch)

    def record(self, epoch: int, stats, seconds: float) -> None:
        self.op_s.append(seconds)
        self.work += stats.n_batches * self.engine.config.batch_size
        self.attempted += stats.n_batches
        self.epochs.append(stats)

    def enough(self) -> bool:
        return len(self.op_s) >= self.MIN_EPOCHS

    def check(self) -> None:
        # The warm-up epoch's loss: finite, and at the default seed equal
        # to the recorded reference within 1e-6 relative.
        loss = self.warm.loss
        ref = self.REFERENCE_LOSS.get(self.seed)
        ok = loss is not None and math.isfinite(loss)
        if ok and ref is not None:
            ok = abs(loss - ref) <= 1e-6 * abs(ref)
        self.attempted += 1
        self.failed += not ok
        self.notes.append(
            f"warm-up epoch loss {loss!r} "
            + (f"vs reference {ref!r}: " if ref is not None else "finite: ")
            + ("ok" if ok else "FAILED")
        )
        # One epoch's worth of minibatches through the training backend
        # against the esc oracle, digest by digest.
        eng = self.engine
        cfg, graph = eng.config, eng.graph
        batches = graph.make_batches(
            cfg.batch_size, np.random.default_rng(derived_seed(self.seed, 41))
        )
        seed = derived_seed(self.seed, 43)
        per_rank = eng.backend.sample_bulk(eng.pipeline, batches, seed)
        got = reassemble_round_robin(per_rank, len(batches))
        oracle = make_sampler(
            cfg.sampler, graph=graph, for_training=True, kernel="esc"
        ).sample_bulk(
            graph.adj, batches, cfg.fanout,
            [batch_rng(seed, i) for i in range(len(batches))],
        )
        bad = sum(
            minibatch_digest(a) != minibatch_digest(b)
            for a, b in zip(got, oracle)
        )
        self.attempted += len(batches)
        self.failed += bad
        self.notes.append(
            f"training-path minibatch digests vs esc oracle: "
            f"{len(batches) - bad}/{len(batches)} match"
        )

    def sim_phases(self) -> tuple[dict[str, float], float]:
        """Simulated seconds per phase and bytes sent over the timed epochs."""
        phases = {
            "sampling": sum(s.sampling for s in self.epochs),
            "feature_fetch": sum(s.feature_fetch for s in self.epochs),
            "propagation": sum(s.propagation for s in self.epochs),
        }
        return phases, sum(s.bytes_sent for s in self.epochs)


class SampleBulk(Workload):
    """``Engine.sample`` bulks: SAGE (15,10,5) on ``papers`` scale 1.0,
    about 10 minibatches per bulk, no model."""

    name = "sample-bulk"
    work_metric = ("sample.batches_per_s", "minibatches/s")
    op_metric = "sample.bulk_ms.p50"
    MIN_BULKS = 3

    @staticmethod
    def config(seed: int) -> RunConfig:
        return RunConfig(
            dataset="papers", scale=1.0, sampler="sage", fanout=(15, 10, 5),
            batch_size=128, train_split=0.02, seed=seed,
        )

    def setup(self) -> None:
        self.engine = seeded_engine(self.config(self.seed))
        self.engine.sampler
        self.checked = None

    def warmup(self) -> None:
        self.engine.sample(seed=derived_seed(self.seed, 0))

    def prepare(self, i: int) -> int:
        return derived_seed(self.seed, i + 1)

    def ops_in(self, seed: int) -> int:
        return self.engine.graph.num_batches(self.engine.config.batch_size)

    def run(self, seed: int):
        return self.engine.sample(seed=seed)

    def record(self, seed: int, samples, seconds: float) -> None:
        self.op_s.append(seconds)
        self.work += len(samples)
        self.attempted += len(samples)
        if self.checked is None:
            self.checked = (seed, [minibatch_digest(mb) for mb in samples])

    def enough(self) -> bool:
        return len(self.op_s) >= self.MIN_BULKS

    def check(self) -> None:
        # The first timed bulk, re-sampled by the esc oracle from the same
        # seed the way Engine.sample draws batches and samples.
        seed, digests = self.checked
        cfg, graph = self.engine.config, self.engine.graph
        rng = np.random.default_rng(seed)
        batches = graph.make_batches(cfg.batch_size, rng)
        oracle = make_sampler(
            cfg.sampler, graph=graph, for_training=True, kernel="esc"
        ).sample_bulk(graph.adj, batches, cfg.fanout, rng)
        ok = [minibatch_digest(mb) for mb in oracle] == digests
        self.failed += 0 if ok else len(digests)
        self.notes.append(
            f"first timed bulk digest vs esc oracle: {'ok' if ok else 'FAILED'}"
        )


# ---------------------------------------------------------------------- #
# Serving
# ---------------------------------------------------------------------- #
class StampedWorkload:
    """A generated request workload that timestamps, in wall time, each
    micro-batch's completion as the serving loop reports it."""

    open_loop = True

    def __init__(self, inner) -> None:
        self.inner = inner
        self.n_requests = len(inner.initial())
        self.stamps: list[float] = []
        self._last_batch = None

    def initial(self):
        return self.inner.initial()

    def on_complete(self, result):
        if result.batch_index != self._last_batch:
            self.stamps.append(time.perf_counter())
            self._last_batch = result.batch_index
        return self.inner.on_complete(result)

    def updates(self):
        return self.inner.updates() if hasattr(self.inner, "updates") else []


class _UpdateTimedServer(ServingEngine):
    """A serving engine that records the wall interval of each update."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.update_spans: list[tuple[float, float]] = []

    def apply_update(self, batch, at=None):
        start = time.perf_counter()
        seconds = super().apply_update(batch, at=at)
        self.update_spans.append((start, time.perf_counter()))
        return seconds


def batch_seconds(start: float, stamps, update_spans) -> list[float]:
    """Wall seconds of each micro-batch from the loop's completion stamps.

    A batch's time runs from the previous completion (or ``start``), or
    from the end of the last update applied in between, to its own stamp.
    """
    out = []
    prev = start
    spans = iter(sorted(update_spans))
    pending = next(spans, None)
    for stamp in stamps:
        begin = prev
        while pending is not None and pending[1] <= stamp:
            begin = max(begin, pending[1])
            pending = next(spans, None)
        out.append(stamp - begin)
        prev = stamp
    return out


def request_chunk(adj, pool, seed: int, index: int, n_requests: int, churn: bool):
    """Trace chunk ``index`` of a serving workload: single-vertex requests
    from ``pool`` and, with ``churn``, 0.5 edge batches per request of 8
    edges each, half deletions of existing edges of ``adj`` and half
    insertions of absent ones."""
    chunk_seed = derived_seed(seed, 211, index)
    if churn:
        inner = UpdateStream.synthetic(
            adj, pool, n_requests=n_requests, update_ratio=0.5,
            edges_per_update=8, delete_fraction=0.5, seed=chunk_seed,
            interarrival=INTERARRIVAL,
        )
    else:
        inner = TraceWorkload.synthetic(
            n_requests, pool, seed=chunk_seed, interarrival=INTERARRIVAL
        )
    return StampedWorkload(inner)


class ServeExact(Workload):
    """Exact-mode ``process`` of an open-loop trace on ``products`` scale
    0.25 with a hidden-64 model trained for one epoch during set-up; the
    embedding cache holds a quarter of the h^{L-1} rows."""

    name = "serve-exact"
    work_metric = ("serve.req_per_s", "req/s")
    op_metric = "serve.batch_ms.p50"
    churn = False

    @staticmethod
    def config(seed: int) -> RunConfig:
        return RunConfig(
            dataset="products", scale=0.25, sampler="sage",
            fanout=(15, 10, 5), hidden=64, batch_size=64, train_split=0.25,
            seed=seed,
        )

    def setup(self) -> None:
        engine = seeded_engine(self.config(self.seed))
        engine.train_epoch(0)
        self.engine = engine
        n_cached = engine.graph.n // 4  # fp64 rows of width ``hidden``
        serve_cfg = engine.config.replace(
            embed_budget=float(n_cached * 8 * engine.config.hidden)
        )
        # The stream rebinds its graph's adjacency as updates land; a
        # shallow copy keeps the training graph intact.
        self.graph = copy.copy(engine.graph)
        self.stream = (
            StreamingGraph(
                self.graph, compaction_threshold=COMPACTION_THRESHOLD
            )
            if self.churn
            else None
        )
        self.server = _UpdateTimedServer(
            engine.model, self.graph, serve_cfg, stream=self.stream
        )
        self.batch_s = self.op_s  # the timed operation is the micro-batch
        self.update_s: list[float] = []
        self.served: list[tuple[np.ndarray, np.ndarray]] = []
        self.cache = {"hits": 0, "requests": 0, "invalidations": 0}

    def _chunk(self, index: int, n_requests: int) -> StampedWorkload:
        return request_chunk(
            self.graph.adj, self.graph.test_idx, self.seed, index,
            n_requests, self.churn,
        )

    def warmup(self) -> None:
        self.server.process(self._chunk(0, WARMUP_REQUESTS))
        if self.stream is not None:
            self.stream_before = copy.copy(self.stream.stats)

    def prepare(self, i: int) -> StampedWorkload:
        return self._chunk(i + 1, CHUNK_REQUESTS)

    def ops_in(self, chunk: StampedWorkload) -> int:
        return chunk.n_requests + len(chunk.updates())

    def run(self, chunk: StampedWorkload):
        start = time.perf_counter()
        return start, self.server.process(chunk)

    def record(self, chunk: StampedWorkload, out, seconds: float) -> None:
        start, report = out
        n_updates = len(chunk.updates())
        spans = self.server.update_spans[-n_updates:] if n_updates else []
        self.batch_s.extend(batch_seconds(start, chunk.stamps, spans))
        self.update_s.extend(end - begin for begin, end in spans)
        self.work += len(report.results)
        self.attempted += self.ops_in(chunk)
        self.failed += chunk.n_requests - len(report.results) + report.shed
        stats = report.cache_stats
        self.cache["hits"] += stats.hits
        self.cache["requests"] += stats.requests
        self.cache["invalidations"] += stats.invalidations
        if not self.churn:
            self.served.extend(
                (r.request.vertices, r.logits) for r in report.results
            )

    def enough(self) -> bool:
        return supports(len(self.batch_s), 90) and (
            not self.churn or supports(len(self.update_s), 95)
        )

    def check(self) -> None:
        # Served logits must equal layer-wise inference rows bit for bit.
        reference = layerwise_inference(self.engine.model, self.graph)
        bad = sum(
            not np.array_equal(logits, reference[vertices])
            for vertices, logits in self.served
        )
        self.failed += bad
        self.notes.append(
            f"served logits == layerwise_inference rows: "
            f"{len(self.served) - bad}/{len(self.served)} requests"
        )

    def report(self):
        lines = super().report()
        lines.append(_quantile("serve.batch_ms.p90", self.batch_s, 90))
        if self.churn:
            lines.append(_quantile("stream.update_ms.p50", self.update_s, 50))
            lines.append(_quantile("stream.update_ms.p95", self.update_s, 95))
        return lines

    def layer_counts(self) -> dict[str, float]:
        out = {
            "serve.embed_cache.hit_ratio": (
                self.cache["hits"] / self.cache["requests"]
                if self.cache["requests"]
                else 0.0
            ),
            "serve.embed_cache.invalidations": self.cache["invalidations"],
        }
        if self.stream is not None:
            after, before = self.stream.stats, self.stream_before
            out["stream.compactions"] = after.compactions - before.compactions
            out["stream.dirty_vertices"] = (
                after.dirty_vertices - before.dirty_vertices
            )
        return out


class ServeChurn(ServeExact):
    """``serve-exact`` plus edge churn: 0.5 edge batches of 8 edges per
    request, compacting at 1% of the base nnz (several times a run)."""

    name = "serve-churn"
    churn = True

    def check(self) -> None:
        # After the churn: warm-cache serving of the whole request pool on
        # the final graph against layer-wise inference on a from-scratch
        # rebuild of the same edge set.
        vertices = self.graph.test_idx
        served = self.server.serve(vertices)
        rebuilt = self.stream.rebuild_from_scratch()
        reference = layerwise_inference(self.engine.model, rebuilt)[vertices]
        bad = int((~np.all(served == reference, axis=1)).sum())
        self.attempted += len(vertices)
        self.failed += bad
        self.notes.append(
            f"post-churn logits == layerwise_inference(rebuild): "
            f"{len(vertices) - bad}/{len(vertices)} vertices"
        )


def _quantile(name: str, seconds: list[float], q: float):
    """A report line for the ``q``-th percentile of ``seconds`` in ms; a
    tail percentile the sample count does not support reads NaN."""
    n = len(seconds)
    if q > 50 and not supports(n, q):
        return (name, float("nan"), "ms", f"n={n}, needs {min_samples(q)}")
    value = median(seconds) if q == 50 else percentile(seconds, q)
    return (name, 1e3 * value, "ms", f"n={n}")


WORKLOADS = {
    cls.name: cls for cls in (TrainSage, SampleBulk, ServeExact, ServeChurn)
}
