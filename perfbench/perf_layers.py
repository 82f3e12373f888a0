"""Traced mode: wall-clock spans around each layer's public entry points.

:func:`install` wraps the entry points :func:`_entry_points` lists, from
the benchmark's side; nothing inside ``src/`` changes, and an untraced run
never imports this module.  Each wrapper records a span on the
:class:`Recorder`'s stack, so a layer's *self* time is its span minus the
spans of the wrapped entry points it called (``gnn.infer`` minus
``sparse.spmm``, for example).  The benchmark opens a ``bench`` root span
around every timed operation; whatever no layer claims stays as the root's
self time, so the self times of all layers plus the root add up to the
traced end-to-end time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "bench"


class Recorder:
    """Busy time, self time, call counts and work counts per span name."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # One frame per open span: [name, layer, seconds spent in children].
        self._stack: list[list] = []

    def _close(self, frame: list, seconds: float) -> None:
        name, layer, children = frame
        self.busy[name] += seconds
        self.self_s[name] += seconds - children
        self.layer_self[layer] += seconds - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += seconds

    @contextmanager
    def span(self, name: str, layer: str):
        frame = [name, layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self._stack.pop()
            self._close(frame, seconds)

    def root(self):
        """The span around one timed operation."""
        return self.span(ROOT, ROOT)

    def wrap(self, fn, name: str, layer: str, count=None):
        """``fn`` recording a ``name`` span; ``count(args, out)`` returns
        ``{metric: amount}`` work counts added after the span closes."""
        rec = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = rec._stack
            if stack and stack[-1][0] == name:
                # A kernel method delegating to the module function of the
                # same entry point: one span, counted once.
                return fn(*args, **kwargs)
            with rec.span(name, layer):
                out = fn(*args, **kwargs)
            if count is not None:
                for metric, amount in count(args, out).items():
                    rec.counts[metric] += amount
            return out

        return wrapped


def _nnz(arg_index: int):
    return lambda args, out: {"sparse.spmm.nnz": args[arg_index].nnz}


def _sampled_edges(args, out):
    return {"core.sampled_edges": sum(mb.total_edges() for mb in out)}


def _fetched_rows(args, out):
    return {"partition.fetch.rows": sum(len(ids) for ids in args[2])}


def _targets(args, out):
    # Requests of one micro-batch share targets; the replica serves each
    # distinct vertex once.
    distinct = set()
    for req in args[1]:
        distinct.update(int(v) for v in req.vertices)
    return {"serve.targets": len(distinct)}


def _entry_points():
    """``(owner, attribute, span name, layer, count)`` per wrapped entry
    point.  Methods are wrapped on every class in the owner's hierarchy
    that defines them; functions wherever a ``repro`` module binds them."""
    from repro.api.backends import (
        PartitionedBackend,
        ReplicatedBackend,
        SingleDeviceBackend,
    )
    from repro.api.engine import Engine
    from repro.api.registries import load_graph_from_registry
    from repro.core.sampler_base import MatrixSampler
    from repro.gnn.attention import GATConv
    from repro.gnn.layers import GCNConv, SAGEConv
    from repro.gnn.model import GNNModel
    from repro.gnn.optim import SGD, Adam
    from repro.partition.cache import CachedFeatureStore
    from repro.partition.feature_store import FeatureStore
    from repro.pipeline.trainer import TrainingPipeline
    from repro.serve.cache import EmbeddingCache
    from repro.serve.engine import ServingEngine
    from repro.serve.replica import Replica
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.kernels import KernelBackend
    from repro.sparse.spmm import spmm
    from repro.stream.delta import DeltaCSR
    from repro.stream.graph import StreamingGraph

    points = [
        (Engine, "train_epoch", "api.train_epoch", "api", None),
        (Engine, "sample", "api.sample", "api", None),
        (TrainingPipeline, "train_epoch", "pipeline.epoch", "pipeline", None),
        (MatrixSampler, "sample_bulk", "core.sample_bulk", "core", _sampled_edges),
        (None, spmm, "sparse.spmm", "sparse", _nnz(0)),
        (KernelBackend, "spmm", "sparse.spmm", "sparse", _nnz(1)),
        (CSRMatrix, "transpose", "sparse.transpose", "sparse", None),
        (GNNModel, "forward", "gnn.forward", "gnn", None),
        (GNNModel, "backward", "gnn.backward", "gnn", None),
        (Adam, "step", "gnn.optim", "gnn", None),
        (SGD, "step", "gnn.optim", "gnn", None),
        (FeatureStore, "fetch", "partition.fetch", "partition", _fetched_rows),
        (CachedFeatureStore, "fetch", "partition.fetch", "partition", _fetched_rows),
        (ServingEngine, "process", "serve.process", "serve", None),
        (ServingEngine, "apply_update", "serve.apply_update", "serve", None),
        (Replica, "serve_batch", "serve.serve_batch", "serve", _targets),
        (Replica, "absorb_update", "serve.absorb_update", "stream", None),
        (StreamingGraph, "apply", "stream.apply", "stream", None),
        (DeltaCSR, "compact", "stream.compact", "stream", None),
        (None, load_graph_from_registry, "graphs.load", "graphs", None),
    ]
    for cls in (SingleDeviceBackend, ReplicatedBackend, PartitionedBackend):
        points.append((cls, "sample_bulk", "api.backend.sample_bulk", "api", None))
    for cls in (SAGEConv, GCNConv, GATConv):
        points.append((cls, "infer", "gnn.infer", "gnn", None))
    for method in ("lookup", "insert", "invalidate"):
        points.append((EmbeddingCache, method, "serve.embed_cache", "serve", None))
    return points


def _hierarchy(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _hierarchy(sub)


def install(rec: Recorder):
    """Wrap every entry point; returns a callable that restores them."""
    patches: list[tuple[object, str, object]] = []
    done: set[tuple[type, str]] = set()
    for owner, target, name, layer, count in _entry_points():
        if owner is None:
            wrapped = rec.wrap(target, name, layer, count)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is target:
                        patches.append((module, attr, value))
                        setattr(module, attr, wrapped)
            continue
        for cls in _hierarchy(owner):
            original = cls.__dict__.get(target)
            if original is None or (cls, target) in done:
                continue
            done.add((cls, target))
            patches.append((cls, target, original))
            setattr(cls, target, rec.wrap(original, name, layer, count))

    def restore() -> None:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)

    return restore
