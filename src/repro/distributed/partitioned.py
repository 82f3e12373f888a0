"""The Graph Partitioned distributed sampling algorithm (paper section 5.2).

Both the adjacency matrix ``A`` and the stacked bulk ``Q`` are partitioned
into ``p/c`` block rows on a ``p/c x c`` process grid, with each block row
replicated ``c`` times.  Execution is *plan-driven*: the sampler emits the
same declarative :class:`~repro.core.plan.SamplingPlan` the single-device
executor runs, optimized the same way (:func:`~repro.core.compile.optimize`),
and :class:`PartitionedExecutor` runs each step, plain or fused, over the
grid —

* ``PROB`` steps run as the sparsity-aware 1.5D SpGEMM of Algorithm 2
  (:func:`~repro.distributed.spgemm_15d.spgemm_15d`), or as the
  all-reduced global importance vector for FastGCN-style samplers;
* ``NORM`` and ``SAMPLE`` are row-local, exactly as the paper's per-step
  analysis states (sections 5.2.1-5.2.2);
* ``EXTRACT`` is row-local column compaction (node-wise), a distributed
  row-extraction SpGEMM plus per-batch column extraction split across each
  process row's ``c`` replicas (layer-wise, section 5.2.3), a row-local
  walk advance, or a distributed subgraph induction (graph-wise).

There is no per-algorithm code here: any sampler with a plan — including
registry plugins and GraphSAINT — runs partitioned.  Per-phase simulated
time is attributed to the phases Figure 7 plots (``probability`` /
``sampling`` / ``extraction``), derived from the step types via
:func:`~repro.core.plan.step_phase`; a fused SAMPLE+EXTRACT charges each
half to its own phase, so ``run(plan)`` and ``run(optimize(plan))`` give
the same breakdown.

Randomness is one independent stream per minibatch, keyed by the *global*
batch index (:func:`~repro.core.bulk.batch_rng`) — the same discipline the
replicated driver uses — so sampling output is bit-identical across grid
shapes (any ``p``, any ``c``) and across execution algorithms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm import Communicator, ProcessGrid
from ..core import (
    MatrixSampler,
    MinibatchSample,
    assign_round_robin,
    batch_rng,
    reassemble_round_robin,
    step_phase,
)
from ..core.compile import optimize
from ..core.frontier import LayerSample
from ..core.its import mask_row_counts, selected_row_cols
from ..core.plan import (
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    Step,
)
from ..partition.block1d import BlockRows
from ..sparse import CSRMatrix, row_selector, vstack
from ..sparse.kernels import get_kernel
from .instrument import sample_norm_flops
from .spgemm_15d import spgemm_15d

__all__ = [
    "partitioned_bulk_sampling",
    "PartitionedExecutor",
]


def _charge_row(
    comm: Communicator,
    grid: ProcessGrid,
    row: int,
    *,
    flops: float = 0.0,
    nbytes: float = 0.0,
    kernels: int = 1,
) -> None:
    """Charge identical (replicated) local work to every rank of a process row."""
    for rank in grid.row_ranks(row):
        comm.compute(rank, flops=flops, nbytes=nbytes, kernels=kernels)


def _make_q_blocks(
    per_row_matrices: list[CSRMatrix], n_cols: int
) -> BlockRows:
    """Wrap per-process-row Q matrices as a :class:`BlockRows`."""
    sizes = [m.shape[0] for m in per_row_matrices]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    return BlockRows(per_row_matrices, starts, n_cols)


class PartitionedExecutor:
    """Run a :class:`~repro.core.plan.SamplingPlan`, plain or optimized, on
    the 1.5D grid.

    Holds the per-process-row state Algorithm 2 threads between steps:
    each row's owned batches with their destination lists and per-batch RNG
    streams, the current probability block rows with their row-to-batch
    bounds, the sampled ``Q`` (per row, the ``P`` block it was drawn from
    plus the selection mask over its nonzeros), collected layers, and (for
    graph-wise plans) the walk history.  All matrix arithmetic is exact, so
    output equals the local executor's for the same per-batch streams.
    """

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        sampler: MatrixSampler,
        a_blocks: BlockRows,
        batches: Sequence[np.ndarray],
        seed: int,
        *,
        sparsity_aware: bool = True,
        kernel=None,
    ) -> None:
        if a_blocks.n_blocks != grid.n_rows:
            raise ValueError(
                f"A must be partitioned into {grid.n_rows} block rows, "
                f"got {a_blocks.n_blocks}"
            )
        self.comm = comm
        self.grid = grid
        self.sampler = sampler
        self.a_blocks = a_blocks
        self.n = a_blocks.n_cols
        self.n_rows = grid.n_rows
        self.sparsity_aware = sparsity_aware
        self.kernel = kernel if kernel is not None else getattr(
            sampler, "kernel", None
        )
        self.batches = [np.asarray(b, dtype=np.int64) for b in batches]
        self.owners = assign_round_robin(len(batches), grid.n_rows)
        rows = range(self.n_rows)
        # Per-row frontier state and per-batch RNG streams (global index).
        self.dst: list[list[np.ndarray]] = [
            [self.batches[i] for i in self.owners[row]] for row in rows
        ]
        self.rngs = [
            [batch_rng(seed, int(i)) for i in self.owners[row]] for row in rows
        ]
        self.layers_rev: list[list[list[LayerSample]]] = [
            [[] for _ in self.owners[row]] for row in rows
        ]
        self.results: dict[int, MinibatchSample] = {}
        # Step-to-step dataflow, one entry per process row.
        self.p_blocks: list[CSRMatrix] | None = None
        self.q_next: list[tuple[CSRMatrix, np.ndarray] | None] | None = None
        self.bounds: list[np.ndarray] | None = None
        self.frontier: list[np.ndarray] | None = None
        self.visited: list[list[np.ndarray] | None] = [None] * self.n_rows
        self.importance: CSRMatrix | None = None
        self.s: int | None = None

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        for step in plan.steps:
            with self.comm.phase(step_phase(step)):
                self._dispatch(step)
        samples_by_row = [
            [
                self.results[i]
                if i in self.results
                else MinibatchSample(
                    self.batches[i],
                    list(reversed(self.layers_rev[row][local])),
                )
                for local, i in enumerate(self.owners[row])
            ]
            for row in range(self.n_rows)
        ]
        return reassemble_round_robin(samples_by_row, len(self.batches))

    def _dispatch(self, step: Step) -> None:
        """Run one step, plain or fused; a fused SAMPLE+EXTRACT charges its
        extract half to the extraction phase."""
        if isinstance(step, ProbStep):
            self._prob(step)
            if isinstance(step, FusedProbNormStep):
                # Fresh 1.5D products (or fresh stacks of the importance
                # row): this executor owns them.
                self.p_blocks = [
                    self.sampler.norm_inplace(p) for p in self.p_blocks
                ]
        elif isinstance(step, NormStep):
            self._norm()
        elif isinstance(step, SampleStep):
            self._sample(step)
            if isinstance(step, FusedSampleExtractStep):
                with self.comm.phase(step_phase(step.extract)):
                    self._extract(step.extract)
                self.q_next = None
        else:
            self._extract(step)

    # ------------------------------------------------------------------ #
    # PROB: distributed probability generation (section 5.2.1)
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep) -> None:
        if step.source == "global":
            self._prob_global()
            return
        q_rows: list[CSRMatrix] = []
        self.bounds = []
        self.frontier = []
        for row in range(self.n_rows):
            dsts = self.dst[row]
            if step.source == "frontier":
                frontier = (
                    np.concatenate(dsts)
                    if dsts
                    else np.empty(0, dtype=np.int64)
                )
                self.frontier.append(frontier)
                self.bounds.append(
                    np.cumsum([0] + [len(d) for d in dsts])
                )
                q_rows.append(self.sampler.make_q(frontier, self.n))
                _charge_row(
                    self.comm, self.grid, row, nbytes=16.0 * frontier.size
                )
            else:  # indicator: one row per owned batch
                self.frontier.append(np.empty(0, dtype=np.int64))
                self.bounds.append(np.arange(len(dsts) + 1))
                if dsts:
                    q_rows.append(self.sampler.make_q(dsts, self.n))
                else:
                    q_rows.append(CSRMatrix.zeros((0, self.n)))
                _charge_row(
                    self.comm, self.grid, row,
                    nbytes=16.0 * sum(len(d) for d in dsts),
                )
        self.p_blocks = spgemm_15d(
            self.comm, self.grid, _make_q_blocks(q_rows, self.n),
            self.a_blocks, sparsity_aware=self.sparsity_aware,
            kernel=self.kernel,
        )

    def _prob_global(self) -> None:
        """FastGCN-style global importance: each block row contributes its
        local column squared sums; one all-reduce per process column
        combines them (every column holds all blocks).  Computed once and
        reused by every later global PROB step."""
        if self.importance is None:
            local_sq = []
            for row in range(self.n_rows):
                blk = self.a_blocks.blocks[row]
                sq = np.zeros(self.n, dtype=np.float64)
                if blk.nnz:
                    np.add.at(sq, blk.indices, blk.data**2)
                local_sq.append(sq)
                _charge_row(
                    self.comm, self.grid, row,
                    flops=2.0 * blk.nnz, nbytes=16.0 * blk.nnz,
                )
            col_sq = None
            for j in range(self.grid.c):
                col_sq = self.comm.allreduce(
                    local_sq, self.grid.col_ranks(j)
                )
            cols = np.flatnonzero(col_sq)
            from ..sparse import row_normalize

            self.importance = row_normalize(
                CSRMatrix.from_coo(
                    np.zeros(cols.size, dtype=np.int64), cols, col_sq[cols],
                    (1, self.n),
                )
            )
        self.p_blocks = []
        self.bounds = []
        self.frontier = []
        for row in range(self.n_rows):
            kb = len(self.dst[row])
            self.p_blocks.append(
                vstack([self.importance] * kb)
                if kb
                else CSRMatrix.zeros((0, self.n))
            )
            self.bounds.append(np.arange(kb + 1))
            self.frontier.append(np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------ #
    # NORM + SAMPLE: row-local (section 5.2.2)
    # ------------------------------------------------------------------ #
    def _norm(self) -> None:
        self.p_blocks = [
            self.sampler.norm(p) for p in self.p_blocks
        ]

    def _sample(self, step: SampleStep) -> None:
        self.s = step.count
        self.q_next = []
        for row in range(self.n_rows):
            if not self.owners[row]:
                self.q_next.append(None)
                continue
            p = self.p_blocks[row]
            sel = self.sampler.sample_stacked_mask(
                p, step.count, self.rngs[row], self.bounds[row]
            )
            self.q_next.append((p, sel))
            _charge_row(
                self.comm, self.grid, row,
                flops=sample_norm_flops(p, step.count),
                nbytes=24.0 * p.nnz,
                kernels=4,
            )

    # ------------------------------------------------------------------ #
    # EXTRACT (section 5.2.3)
    # ------------------------------------------------------------------ #
    def _extract(self, step: ExtractStep) -> None:
        if step.kind == "compact":
            self._extract_compact()
        elif step.kind == "bipartite":
            self._extract_bipartite(step)
        elif step.kind == "walk":
            self._extract_walk()
        else:
            self._extract_subgraph(step)

    def _extract_compact(self) -> None:
        """Row-local column compaction: each batch's sampled rows drop
        their empty columns and the kept columns become its new frontier."""
        for row in range(self.n_rows):
            if self.q_next[row] is None:
                continue
            p, sel = self.q_next[row]
            bounds = self.bounds[row]
            new_dsts = []
            for b, dst in enumerate(self.dst[row]):
                layer = self.sampler.extract_batch_layer_from_mask(
                    p, sel, int(bounds[b]), int(bounds[b + 1]), dst
                )
                self.layers_rev[row][b].append(layer)
                new_dsts.append(layer.src_ids)
            self.dst[row] = new_dsts
            _charge_row(
                self.comm, self.grid, row,
                nbytes=24.0 * int(np.count_nonzero(sel)), kernels=2,
            )

    def _sampled_lists(self, step: ExtractStep) -> list[list[np.ndarray]]:
        """Per-row per-batch sampled vertex sets read off the sampled
        ``Q`` rows (layer-wise plans: one P row per batch), unioned with
        the destinations if the step asks for it."""
        out: list[list[np.ndarray]] = []
        for row in range(self.n_rows):
            if self.q_next[row] is None:
                out.append([])
                continue
            p, sel = self.q_next[row]
            sampled = [
                selected_row_cols(p, sel, b) for b in range(len(self.dst[row]))
            ]
            if step.union_dst:
                sampled = [
                    np.union1d(sv, dv)
                    for sv, dv in zip(sampled, self.dst[row])
                ]
            out.append(sampled)
        return out

    def _extract_bipartite(self, step: ExtractStep) -> None:
        """Distributed row extraction (1.5D SpGEMM) followed by per-batch
        column extraction split across each process row's replicas
        (section 5.2.3)."""
        sampled_by_row = self._sampled_lists(step)
        ar_blocks = self._row_extract_15d(self.dst)
        for row in range(self.n_rows):
            a_r = ar_blocks[row]
            dsts = self.dst[row]
            if not dsts:
                continue
            # Thread the selected kernel explicitly: col_extract would
            # otherwise fall back to the sampler's own backend, losing a
            # kernel= override on the product that dominates LADIES.
            adjs = self.sampler.col_extract(
                a_r, dsts, sampled_by_row[row],
                spgemm_fn=get_kernel(self.kernel).spgemm,
            )
            bounds = np.cumsum([0] + [len(d) for d in dsts])
            self._charge_split_extraction(row, a_r, bounds, adjs)
            for b, (adj, sampled, dst) in enumerate(
                zip(adjs, sampled_by_row[row], dsts)
            ):
                layer = LayerSample(adj, sampled, dst)
                if step.debias:
                    probs = np.zeros(self.n)
                    cols, vals = self.p_blocks[row].row(b)
                    probs[cols] = vals
                    layer = self.sampler.debias_layer(layer, probs, self.s)
                self.layers_rev[row][b].append(layer)
            self.dst[row] = sampled_by_row[row]

    def _row_extract_15d(
        self, vert_lists_by_row: list[list[np.ndarray]]
    ) -> list[CSRMatrix]:
        """``A_R = Q_R A`` over the grid: one selector row per stacked
        vertex of each process row's per-batch lists."""
        qr_rows = []
        for row in range(self.n_rows):
            stacked = (
                np.concatenate(vert_lists_by_row[row])
                if vert_lists_by_row[row]
                else np.empty(0, dtype=np.int64)
            )
            qr_rows.append(row_selector(stacked, self.n))
        return spgemm_15d(
            self.comm, self.grid, _make_q_blocks(qr_rows, self.n),
            self.a_blocks, sparsity_aware=self.sparsity_aware,
            kernel=self.kernel,
        )

    def _charge_split_extraction(
        self,
        row: int,
        a_r: CSRMatrix,
        bounds: np.ndarray,
        adjs: list[CSRMatrix],
    ) -> None:
        """Charge the per-batch column-extraction SpGEMMs, split across the
        process row's ``c`` replicas, then all-gather the results so every
        replica holds every batch (section 5.2.3)."""
        batch_ar_nnz = [
            int(a_r.indptr[int(bounds[b + 1])] - a_r.indptr[int(bounds[b])])
            for b in range(len(adjs))
        ]
        shares = assign_round_robin(len(adjs), self.grid.c)
        for j, share in enumerate(shares):
            # Each per-batch SpGEMM scans its A_R rows once, plus the
            # n-row indptr of its hypersparse column selector (the
            # section-8.2.2 memory traffic that dominates LADIES).
            flops = sum(2.0 * batch_ar_nnz[b] for b in share)
            self.comm.compute(
                self.grid.rank(row, j),
                flops=flops,
                nbytes=sum(
                    24.0 * (batch_ar_nnz[b] + adjs[b].nnz) + 8.0 * self.n
                    for b in share
                ),
                kernels=max(1, len(share)),
            )
        self.comm.allgather(
            [[adjs[b] for b in shares[j]] for j in range(self.grid.c)],
            self.grid.row_ranks(row),
        )

    def _extract_walk(self) -> None:
        """Row-local walk advance: walkers with a sampled neighbor move,
        walkers on isolated vertices stay in place."""
        for row in range(self.n_rows):
            if self.q_next[row] is None:
                continue
            p, sel = self.q_next[row]
            frontier = self.frontier[row]
            if self.visited[row] is None:
                self.visited[row] = [frontier]
            nxt = frontier.copy()
            picked = np.flatnonzero(mask_row_counts(p, sel) > 0)
            nxt[picked] = p.indices[sel]
            self.visited[row].append(nxt)
            bounds = self.bounds[row]
            self.dst[row] = [
                nxt[int(bounds[b]) : int(bounds[b + 1])]
                for b in range(len(self.dst[row]))
            ]
            _charge_row(
                self.comm, self.grid, row,
                nbytes=16.0 * nxt.size, kernels=2,
            )

    def _extract_subgraph(self, step: ExtractStep) -> None:
        """Distributed subgraph induction: the stacked per-batch vertex
        sets row-extract ``A`` through the 1.5D SpGEMM, then each batch's
        column compaction runs once per process row, split across its
        ``c`` replicas like the layer-wise extraction."""
        verts_by_row: list[list[np.ndarray]] = []
        for row in range(self.n_rows):
            verts = []
            for b, i in enumerate(self.owners[row]):
                batch = self.batches[i]
                hist = self.visited[row]
                if hist is None:
                    hist = [
                        np.concatenate(self.dst[row])
                        if self.dst[row]
                        else np.empty(0, dtype=np.int64)
                    ]
                bounds = self.bounds[row]
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                mine = np.unique(
                    np.concatenate([stepv[lo:hi] for stepv in hist])
                )
                verts.append(np.union1d(mine, batch))
            verts_by_row.append(verts)
        ar_blocks = self._row_extract_15d(verts_by_row)
        for row in range(self.n_rows):
            verts = verts_by_row[row]
            if not verts:
                continue
            a_r = ar_blocks[row]
            bounds = np.cumsum([0] + [len(v) for v in verts])
            subs = []
            for b, v in enumerate(verts):
                rows = a_r.row_block(int(bounds[b]), int(bounds[b + 1]))
                mask = np.zeros(self.n, dtype=bool)
                mask[v] = True
                subs.append(rows.select_columns(mask))
            self._charge_split_extraction(row, a_r, bounds, subs)
            for b, i in enumerate(self.owners[row]):
                batch = self.batches[i]
                sub, v = subs[b], verts[b]
                layers = [
                    LayerSample(sub, v, v) for _ in range(step.n_layers - 1)
                ]
                pos = np.searchsorted(v, batch)
                layers.append(LayerSample(sub.extract_rows(pos), v, batch))
                self.results[i] = MinibatchSample(batch, layers)


def partitioned_bulk_sampling(
    comm: Communicator,
    grid: ProcessGrid,
    sampler: MatrixSampler,
    a_blocks: BlockRows,
    batches: Sequence[np.ndarray],
    fanout: Sequence[int],
    seed: int = 0,
    *,
    sparsity_aware: bool = True,
    kernel=None,
) -> tuple[list[MinibatchSample], list[list[int]]]:
    """Sample one bulk of minibatches with the 1.5D partitioned algorithm.

    ``a_blocks`` must be partitioned into ``grid.n_rows`` block rows.
    Batches are assigned round-robin to process rows; each batch draws from
    its own RNG stream keyed by its global index, so output is invariant to
    the grid shape.  ``kernel`` selects the local SpGEMM backend of the
    distributed products (``None`` = the sampler's own backend).  Returns
    the samples in the input batch order plus the per-process-row ownership
    lists.

    Works for *any* sampler that emits a sampling plan (built-ins and
    registry plugins alike); a sampler without a plan raises ``TypeError``
    because there is nothing to distribute.
    """
    plan_fn = getattr(sampler, "plan", None)
    plan = plan_fn(tuple(int(s) for s in fanout)) if callable(plan_fn) else None
    if plan is None:
        raise TypeError(
            f"partitioned sampling needs a sampler that emits a sampling "
            f"plan; {type(sampler).__name__} does not (implement "
            f"MatrixSampler.plan())"
        )
    executor = PartitionedExecutor(
        comm, grid, sampler, a_blocks, batches, seed,
        sparsity_aware=sparsity_aware, kernel=kernel,
    )
    return executor.run(optimize(plan)), executor.owners
