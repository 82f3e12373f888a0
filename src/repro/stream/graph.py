"""StreamingGraph: a :class:`~repro.graphs.Graph` under edge churn.

Wraps a ``Graph`` around a :class:`~repro.stream.delta.DeltaCSR` overlay:
every applied :class:`~repro.stream.delta.EdgeBatch` refreshes
``graph.adj`` to the overlay's current frozen view, so *every* consumer of
the graph — samplers, the plan executors, layer-wise inference, the serving
engine — transparently sees the post-update adjacency without any code
change.  The wrapper also owns the invalidation bookkeeping: which rows a
batch dirtied, and (via :func:`dirty_closure`) which vertices' layer-``k``
representations that reaches.

The vertex set is fixed (features/labels/splits stay valid); only edges
move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs import Graph
from ..sparse import CSRMatrix
from .delta import DeltaCSR, EdgeBatch, UpdateResult

__all__ = ["StreamingGraph", "StreamStats", "dirty_closure"]


def dirty_closure(
    adj: CSRMatrix, dirty_rows: np.ndarray, hops: int
) -> np.ndarray:
    """Vertices whose depth-``hops`` representation a row change can reach.

    ``h^k(w)`` depends on row ``w`` of the adjacency and on ``h^{k-1}`` of
    ``w``'s aggregation sources (the columns of row ``w``), so a changed
    row ``u`` dirties ``h^k(w)`` exactly when ``w`` reaches ``u`` along at
    most ``hops`` forward edges.  This walks that reverse reachability on
    the *post-update* adjacency: ``hops = L - 2`` covers a cache of
    ``h^{L-1}`` rows (a vertex whose own row changed is always included).
    """
    out = np.unique(np.asarray(dirty_rows, dtype=np.int64))
    if out.size == 0:
        return out
    frontier = out
    row_ids = None
    for _ in range(max(0, hops)):
        if frontier.size == 0:
            break
        mask = np.isin(adj.indices, frontier)
        if not mask.any():
            break
        if row_ids is None:
            row_ids = adj.row_ids()
        preds = np.unique(row_ids[mask])
        frontier = np.setdiff1d(preds, out, assume_unique=True)
        out = np.union1d(out, frontier)
    return out


@dataclass
class StreamStats:
    """Cumulative counters of one :class:`StreamingGraph`."""

    batches: int = 0
    applied: int = 0  # edge ops that changed the graph
    skipped: int = 0  # duplicate inserts / missing deletes
    compactions: int = 0
    dirty_vertices: int = 0  # sum of per-batch dirty-row counts
    # Rows dirty since the last compaction, summed over batches: the
    # *simulated* re-merge charge, not host work (a view refresh re-merges
    # only the rows changed since the previous view).
    merged_rows: int = 0

    def row(self) -> dict[str, object]:
        return {
            "update_batches": self.batches,
            "edits": self.applied,
            "skipped": self.skipped,
            "compactions": self.compactions,
            "dirty_vertices": self.dirty_vertices,
        }

    def publish(self, registry, **labels) -> None:
        """Copy the counters into a metrics registry
        (:mod:`repro.obs.metrics`) under ``stream_*`` names."""
        for name, help_text, value in (
            ("stream_update_batches_total", "edge batches applied", self.batches),
            ("stream_edits_total", "edge ops that changed the graph", self.applied),
            ("stream_skipped_total", "duplicate inserts / missing deletes", self.skipped),
            ("stream_compactions_total", "delta-log compactions", self.compactions),
            ("stream_dirty_vertices_total", "dirty rows across batches", self.dirty_vertices),
            ("stream_merged_rows_total", "simulated re-merge charge: rows dirty since the last compaction, summed per batch", self.merged_rows),
        ):
            registry.counter(name, help_text, **labels).set(value)


@dataclass
class StreamingGraph:
    """A Graph whose adjacency absorbs edge batches through a delta log.

    ``auto_compact`` folds the log into a fresh base whenever it crosses
    ``compaction_threshold`` of the base nnz (parity with a from-scratch
    rebuild asserted inside :meth:`DeltaCSR.compact`); pass ``False`` to
    drive :meth:`compact` manually (benchmarks sweeping the policy do).
    """

    graph: Graph
    compaction_threshold: float = 0.25
    auto_compact: bool = True
    delta: DeltaCSR = field(init=False)
    stats: StreamStats = field(default_factory=StreamStats)
    #: Called with the fresh base adjacency after every compaction.  The
    #: shared-memory layer registers a re-publication here
    #: (:meth:`repro.parallel.shm.SharedGraph.track`) so worker pools see
    #: the compacted CSR instead of an ever-growing delta view.
    compaction_hooks: list = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.delta = DeltaCSR(
            self.graph.adj, compaction_threshold=self.compaction_threshold
        )

    @property
    def adj(self) -> CSRMatrix:
        return self.graph.adj

    @property
    def n(self) -> int:
        return self.graph.n

    def apply(self, batch: EdgeBatch, *, strict: bool = False) -> UpdateResult:
        """Apply one edge batch; refresh ``graph.adj``; maybe compact.

        Returns the :class:`UpdateResult` (dirty rows, applied/skipped
        counts, whether a compaction ran) so callers can invalidate their
        caches and charge simulated cost.
        """
        result = self.delta.apply(batch, strict=strict)
        merged_nnz = 0
        if result.dirty_rows.size:
            dirty = self.delta.dirty_row_ids
            merged_nnz = int(self.delta.base.nnz_per_row()[dirty].sum())
            self.stats.merged_rows += int(dirty.size)
            self.graph.adj = self.delta.view()
        compacted_nnz = 0
        if self.auto_compact and self.delta.maybe_compact():
            result.compacted = True
            result.pending = 0
            self.graph.adj = self.delta.base
            compacted_nnz = self.graph.adj.nnz
            for hook in self.compaction_hooks:
                hook(self.graph.adj)
        # What the simulated clock should charge: log absorb + a re-merge
        # of every row dirty since the last compaction (``merged_nnz``, the
        # simulated device's cost model — the host splices only the rows
        # changed since the previous view), plus (rarely) the full
        # canonicalizing compaction.
        result.sim_cost = {
            "batch_edges": float(batch.n_edges),
            "merged_nnz": float(merged_nnz),
            "compacted_nnz": float(compacted_nnz),
        }
        self.stats.batches += 1
        self.stats.applied += result.applied
        self.stats.skipped += result.skipped
        self.stats.compactions = self.delta.compactions
        self.stats.dirty_vertices += int(result.dirty_rows.size)
        return result

    def compact(self) -> CSRMatrix:
        """Force a compaction now (parity-asserted)."""
        self.graph.adj = self.delta.compact()
        self.stats.compactions = self.delta.compactions
        for hook in self.compaction_hooks:
            hook(self.graph.adj)
        return self.graph.adj

    def rebuild_from_scratch(self) -> Graph:
        """An independent Graph holding the same current edge set.

        Built through the full ``from_coo`` canonicalization path — the
        reference the parity tests compare sampling and serving digests
        against.
        """
        rows, cols, vals = self.graph.adj.to_coo()
        g = self.graph
        return Graph(
            name=f"{g.name}-rebuilt",
            adj=CSRMatrix.from_coo(
                rows, cols, vals, g.adj.shape, sum_duplicates=False
            ),
            features=g.features,
            labels=g.labels,
            train_idx=g.train_idx,
            val_idx=g.val_idx,
            test_idx=g.test_idx,
        )
