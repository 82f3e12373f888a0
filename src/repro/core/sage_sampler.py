"""Matrix-based GraphSAGE sampling (paper section 4.1).

Node-wise sampling: every frontier vertex draws ``s`` of its own neighbors.
In matrix form, the frontier is encoded as ``Q`` with one row per frontier
vertex (a single 1 at that vertex's column), so ``P = Q A`` gathers each
vertex's neighborhood as a row; NORM divides by the row degree, giving the
uniform distribution over neighbors; SAMPLE keeps ``s`` per row; EXTRACT is
just dropping the empty columns of the sampled ``Q^{l-1}`` (section 4.1.3).

Bulk sampling of ``k`` minibatches stacks the per-batch frontiers vertically
(Equation 1); all matrix steps are oblivious to the stacking.  The whole
algorithm is emitted as a sampling plan — per layer ``PROB(frontier) ->
NORM -> SAMPLE(s) -> EXTRACT(compact)`` — and run by the executors in
:mod:`repro.core.plan` and :mod:`repro.distributed.partitioned`.  Those
executors read EXTRACT straight off the SAMPLE mask through
:meth:`SageSampler.extract_batch_layer_from_mask`, which lowers the
compaction to :func:`compact_layer_from_mask`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sparse import (
    CSRMatrix,
    compact_columns,
    row_normalize,
    row_normalize_inplace,
    row_selector,
)
from .frontier import LayerSample
from .its import sampled_rows_from_mask
from .plan import ExtractStep, NormStep, ProbStep, SampleStep, SamplingPlan
from .sampler_base import MatrixSampler

__all__ = ["SageSampler", "compact_layer_from_mask"]


def compact_layer_from_mask(
    p: CSRMatrix,
    sel: np.ndarray,
    lo: int,
    hi: int,
    dst_ids: np.ndarray,
    *,
    include_dst: bool,
) -> LayerSample:
    """GraphSAGE extraction: sample mask -> compacted layer directly.

    Produces exactly what ``extract_batch_layer(q_next.row_block(lo, hi))``
    produces — ``np.searchsorted(kept, cols)`` assigns the same dense ranks
    as ``compact_columns``'s cumsum remap — without scanning an O(n)
    column mask per batch.
    """
    rows = sampled_rows_from_mask(p, sel, lo, hi)
    kept = np.unique(rows.indices)
    new_cols = np.searchsorted(kept, rows.indices).astype(np.int64)
    if not include_dst:
        adj = CSRMatrix(rows.indptr, new_cols, rows.data, (hi - lo, kept.size))
        return LayerSample(adj, kept, dst_ids)
    src = np.union1d(kept, dst_ids)
    pos = np.searchsorted(src, kept)
    adj = CSRMatrix(
        rows.indptr, pos[new_cols], rows.data, (hi - lo, src.size)
    )
    return LayerSample(adj, src, dst_ids)


class SageSampler(MatrixSampler):
    """GraphSAGE expressed in the matrix framework.

    ``include_dst`` adds each layer's destination vertices to its source
    frontier (the standard trick that lets models keep a self/root term);
    the pure paper formulation is ``include_dst=False``.
    """

    name = "graphsage"

    def __init__(
        self,
        *,
        include_dst: bool = True,
        sample_backend: str = "its",
        kernel=None,
    ) -> None:
        super().__init__(sample_backend, kernel)
        self.include_dst = include_dst

    # ------------------------------------------------------------------ #
    # Algorithm-1 pieces (also called by the distributed drivers)
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_q(frontier: np.ndarray, n: int) -> CSRMatrix:
        """The GraphSAGE ``Q^l``: one row per frontier vertex."""
        return row_selector(frontier, n)

    def norm(self, p: CSRMatrix) -> CSRMatrix:
        """Uniform distribution over each vertex's neighbors: 1/|N(v)|."""
        return row_normalize(p)

    def norm_inplace(self, p: CSRMatrix) -> CSRMatrix:
        """Fused-NORM variant: same divide, no copy (see MatrixSampler)."""
        return row_normalize_inplace(p)

    def extract_batch_layer(
        self,
        q_next_rows: CSRMatrix,
        dst_ids: np.ndarray,
    ) -> LayerSample:
        """EXTRACT for one batch at one layer.

        ``q_next_rows`` is the slice of the sampled ``Q^{l-1}`` belonging to
        this batch (one row per destination vertex, columns over all of V).
        Removing its empty columns yields the sampled adjacency; the kept
        column ids are the new frontier.
        """
        compacted, kept = compact_columns(q_next_rows)
        if not self.include_dst:
            return LayerSample(compacted, kept, dst_ids)
        # Source frontier = sampled union destinations, kept sorted so the
        # column remap is a searchsorted.
        src = np.union1d(kept, dst_ids)
        pos = np.searchsorted(src, kept)
        adj = CSRMatrix(
            compacted.indptr.copy(),
            pos[compacted.indices],
            compacted.data.copy(),
            (compacted.shape[0], src.size),
        )
        return LayerSample(adj, src, dst_ids)

    def extract_batch_layer_from_mask(
        self,
        p: CSRMatrix,
        sel: np.ndarray,
        lo: int,
        hi: int,
        dst_ids: np.ndarray,
    ) -> LayerSample:
        """EXTRACT off the SAMPLE mask, fully lowered for the stock
        :meth:`extract_batch_layer`; a subclass overriding that gets its
        override called on the materialized rows instead."""
        stock = SageSampler.extract_batch_layer
        if type(self).extract_batch_layer is not stock:
            return MatrixSampler.extract_batch_layer_from_mask(
                self, p, sel, lo, hi, dst_ids
            )
        return compact_layer_from_mask(
            p, sel, lo, hi, dst_ids, include_dst=self.include_dst
        )

    # ------------------------------------------------------------------ #
    # Plan emission: the node-wise Algorithm-1 program
    # ------------------------------------------------------------------ #
    def plan(self, fanout: Sequence[int]) -> SamplingPlan:
        steps: list = []
        for s in fanout:
            steps += [
                ProbStep("frontier"),
                NormStep(),
                SampleStep(int(s)),
                ExtractStep("compact"),
            ]
        return SamplingPlan(tuple(steps))
