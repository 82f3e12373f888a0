"""Unit tests for the sampling-plan optimizer (:mod:`repro.core.compile`).

Each optimizer pass is tested in isolation for legality — what it may and
may not rewrite — plus the fused-step rendering of ``describe()``, the
in-place NORM variants' bit-equality with their copying counterparts, the
mask-based extraction kernels, and the row-gather fast path every kernel
backend's SpGEMM takes.  End-to-end bit-identity of ``run(plan)`` and
``run(optimize(plan))`` lives in the golden suites and
``test_compile_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm import Communicator, ProcessGrid
from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
)
from repro.core.compile import (
    eliminate_dead_steps,
    fuse_prob_norm,
    fuse_sample_extract,
    optimize,
)
from repro.core.plan import (
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
    LocalExecutor,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
    step_phase,
)
from repro.distributed.partitioned import (
    PartitionedExecutor,
    partitioned_bulk_sampling,
)
from repro.core.sage_sampler import compact_layer_from_mask
from repro.graphs import rmat
from repro.partition import BlockRows
from repro.sparse import spgemm, spgemm_hash
from repro.sparse.kernels import KERNELS, KernelBackend, get_kernel


def _graph(seed=0, scale=8, deg=6):
    return rmat(scale, deg, np.random.default_rng(seed))


def _batches(adj, k=3, size=12, seed=1):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(adj.shape[0], size, replace=False) for _ in range(k)
    ]


def _layers_equal(a, b):
    assert len(a) == len(b)
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.batch, mb.batch)
        assert len(ma.layers) == len(mb.layers)
        for la, lb in zip(ma.layers, mb.layers):
            assert la.adj.shape == lb.adj.shape
            assert np.array_equal(la.adj.indptr, lb.adj.indptr)
            assert np.array_equal(la.adj.indices, lb.adj.indices)
            assert np.array_equal(la.adj.data, lb.adj.data)
            assert np.array_equal(la.src_ids, lb.src_ids)
            assert np.array_equal(la.dst_ids, lb.dst_ids)


# --------------------------------------------------------------------- #
# fuse_prob_norm
# --------------------------------------------------------------------- #
def test_fuse_prob_norm_on_sage_plan():
    plan = SageSampler().plan((5, 3))
    fused = fuse_prob_norm(plan)
    assert len(fused.steps) == len(plan.steps) - 2
    assert isinstance(fused.steps[0], FusedProbNormStep)
    assert fused.steps[0].source == "frontier"
    # Fused PROB+NORM is attributed wholly to the probability phase.
    assert step_phase(fused.steps[0]) == "probability"


def test_fuse_prob_norm_skips_non_adjacent():
    plan = SamplingPlan(
        (ProbStep("frontier"), SampleStep(4), ExtractStep("compact"))
    )
    assert fuse_prob_norm(plan).steps == plan.steps


def test_fuse_prob_norm_does_not_refuse_fused_input():
    plan = fuse_prob_norm(SageSampler().plan((5,)))
    # Idempotent: a FusedProbNormStep is not a plain ProbStep.
    assert fuse_prob_norm(plan).steps == plan.steps


# --------------------------------------------------------------------- #
# fuse_sample_extract
# --------------------------------------------------------------------- #
def test_fuse_sample_extract_on_ladies_plan():
    plan = LadiesSampler().plan((16,))
    fused = fuse_sample_extract(plan)
    kinds = [type(s).__name__ for s in fused.steps]
    assert "FusedSampleExtractStep" in kinds
    fse = next(
        s for s in fused.steps if isinstance(s, FusedSampleExtractStep)
    )
    assert fse.count == 16
    assert fse.extract.kind == "bipartite"
    assert step_phase(fse) == "sampling"


def test_fuse_sample_extract_rejects_subgraph():
    with pytest.raises(ValueError, match="subgraph"):
        FusedSampleExtractStep(3, ExtractStep("subgraph", n_layers=2))
    # The pass never fuses SAMPLE with a subgraph EXTRACT either.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(1),
            ExtractStep("walk"),
            ExtractStep("subgraph", n_layers=2),
        )
    )
    fused = fuse_sample_extract(plan)
    assert isinstance(fused.steps[-1], ExtractStep)
    assert fused.steps[-1].kind == "subgraph"


def test_fuse_sample_extract_blocked_by_later_q_reader():
    # Two EXTRACTs share one SAMPLE's q_next: fusing the first would
    # leave nothing for the second to read.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            NormStep(),
            SampleStep(4),
            ExtractStep("compact"),
            ExtractStep("compact"),
        )
    )
    fused = fuse_sample_extract(plan)
    assert not any(
        isinstance(s, (FusedProbNormStep, FusedSampleExtractStep))
        for s in fused.steps
    )


def test_fuse_sample_extract_allows_q_rewrite_between():
    # A later SAMPLE rewrites q_next before the second EXTRACT reads it:
    # the first pair may fuse.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(4),
            ExtractStep("compact"),
            ProbStep("frontier"),
            SampleStep(2),
            ExtractStep("compact"),
        )
    )
    fused = fuse_sample_extract(plan)
    assert isinstance(fused.steps[1], FusedSampleExtractStep)
    assert isinstance(fused.steps[3], FusedSampleExtractStep)


def test_fastgcn_plan_has_no_norm_to_fuse():
    plan = FastGCNSampler().plan((8,))
    opt = optimize(plan)
    assert isinstance(opt.steps[0], ProbStep)
    assert not isinstance(opt.steps[0], FusedProbNormStep)
    assert isinstance(opt.steps[1], FusedSampleExtractStep)


# --------------------------------------------------------------------- #
# eliminate_dead_steps
# --------------------------------------------------------------------- #
def test_dse_removes_overwritten_prob_and_norm():
    plan = SamplingPlan(
        (
            ProbStep("indicator"),
            NormStep(),  # dead: P overwritten before any reader
            ProbStep("indicator"),
            NormStep(),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    out = eliminate_dead_steps(plan)
    assert len(out.steps) == 4
    assert isinstance(out.steps[0], ProbStep)
    assert isinstance(out.steps[1], NormStep)


def test_dse_never_removes_sample():
    # SAMPLE consumes RNG: even a sampled Q nobody extracts must stay.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            SampleStep(4),
            ProbStep("frontier"),
            SampleStep(2),
            ExtractStep("compact"),
        )
    )
    out = eliminate_dead_steps(plan)
    assert sum(isinstance(s, SampleStep) for s in out.steps) == 2


def test_dse_keeps_norm_read_by_debias():
    plan = SamplingPlan(
        (
            ProbStep("indicator"),
            NormStep(),
            SampleStep(4),
            ExtractStep("bipartite", debias=True),
        )
    )
    assert eliminate_dead_steps(plan).steps == plan.steps


def test_dse_removes_trailing_dead_norm():
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            NormStep(),
            SampleStep(4),
            ExtractStep("compact"),
            NormStep(),  # trailing: nothing reads P again
        )
    )
    out = eliminate_dead_steps(plan)
    assert len(out.steps) == 4
    assert not isinstance(out.steps[-1], NormStep)


def test_dse_frontier_guard_keeps_prob_before_walk():
    # frontier-source PROB also records the walk frontier, which a
    # non-frontier PROB does not rewrite: it stays live if a walk
    # extraction can still read it.
    plan = SamplingPlan(
        (
            ProbStep("frontier"),
            ProbStep("indicator"),
            SampleStep(1),
            ExtractStep("walk"),
        )
    )
    assert eliminate_dead_steps(plan).steps == plan.steps
    # Without a walk reader the first PROB really is dead.
    no_walk = SamplingPlan(
        (
            ProbStep("frontier"),
            ProbStep("indicator"),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    assert len(eliminate_dead_steps(no_walk).steps) == 3


def test_dse_fixpoint_cascades():
    plan = SamplingPlan(
        (
            ProbStep("indicator"),
            NormStep(),
            NormStep(),
            ProbStep("indicator"),
            NormStep(),
            SampleStep(4),
            ExtractStep("bipartite"),
        )
    )
    out = eliminate_dead_steps(plan)
    assert len(out.steps) == 4


def test_dse_preserves_stock_plans():
    for sampler, fanout in [
        (SageSampler(), (5, 3)),
        (LadiesSampler(), (16,)),
        (FastGCNSampler(), (16,)),
        (GraphSaintRWSampler(walk_length=3), (3, 3)),
    ]:
        plan = sampler.plan(fanout)
        assert eliminate_dead_steps(plan).steps == plan.steps


# --------------------------------------------------------------------- #
# describe() rendering
# --------------------------------------------------------------------- #
def test_describe_renders_fusions():
    text = optimize(SageSampler().plan((5, 3))).describe()
    assert text.splitlines() == [
        "probability  PROB+NORM(frontier)",
        "sampling     SAMPLE+EXTRACT(s=5, compact)",
        "probability  PROB+NORM(frontier)",
        "sampling     SAMPLE+EXTRACT(s=3, compact)",
    ]


def test_describe_saint_keeps_subgraph_interpreted():
    text = optimize(GraphSaintRWSampler(walk_length=2).plan((4,))).describe()
    lines = text.splitlines()
    assert lines[0] == "probability  PROB+NORM(frontier)"
    assert lines[1] == "sampling     SAMPLE+EXTRACT(s=1, walk)"
    assert lines[-1] == "extraction   EXTRACT(subgraph, n_layers=1)"


# --------------------------------------------------------------------- #
# In-place NORM bit-equality
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "sampler", [SageSampler(), LadiesSampler()], ids=["sage", "ladies"]
)
def test_norm_inplace_matches_norm(sampler):
    adj = _graph()
    p = get_kernel("hash").spgemm(
        SageSampler.make_q(np.arange(40, dtype=np.int64), adj.shape[0]),
        adj,
    )
    expected = sampler.norm(p)
    got = sampler.norm_inplace(
        type(p)(p.indptr.copy(), p.indices.copy(), p.data.copy(), p.shape)
    )
    assert np.array_equal(expected.indptr, got.indptr)
    assert np.array_equal(expected.indices, got.indices)
    assert np.array_equal(expected.data, got.data)


# --------------------------------------------------------------------- #
# Fused kernel helpers
# --------------------------------------------------------------------- #
def test_compact_layer_from_mask_matches_extract_batch_layer():
    adj = _graph()
    sampler = SageSampler(include_dst=True)
    dst = np.arange(20, dtype=np.int64)
    p = sampler.norm(
        get_kernel("hash").spgemm(sampler.make_q(dst, adj.shape[0]), adj)
    )
    sel = sampler.sample_mask(p, 3, np.random.default_rng(5))
    q_next = sampler.sample(p, 3, np.random.default_rng(5))
    want = sampler.extract_batch_layer(q_next, dst)
    got = compact_layer_from_mask(
        p, sel, 0, p.shape[0], dst, include_dst=True
    )
    assert np.array_equal(want.adj.indptr, got.adj.indptr)
    assert np.array_equal(want.adj.indices, got.adj.indices)
    assert np.array_equal(want.adj.data, got.adj.data)
    assert np.array_equal(want.src_ids, got.src_ids)
    assert np.array_equal(want.dst_ids, got.dst_ids)


class _RecordingKernel(KernelBackend):
    """A backend whose general SpGEMM logs every call."""

    name = "recording"

    def __init__(self) -> None:
        self.calls: list[int] = []

    def general_spgemm(self, a, b):
        self.calls.append(a.nnz)
        return spgemm_hash(a, b)


def test_selector_aware_spgemm_gather_is_bit_identical():
    """A unit row selector on the left turns every backend's SpGEMM into
    a row gather: same indptr/indices/data bytes as the general kernel,
    and the general kernel is never called."""
    adj = _graph()
    rng = np.random.default_rng(9)
    rows = rng.choice(adj.shape[0], 50, replace=True)  # duplicates allowed
    q = SageSampler.make_q(rows, adj.shape[0])
    want = spgemm(q, adj)
    recording = _RecordingKernel()
    for backend in [KERNELS.get(n) for n in KERNELS.names()] + [recording]:
        got = backend.spgemm(q, adj)
        assert np.array_equal(want.indptr, got.indptr)
        assert np.array_equal(want.indices, got.indices)
        assert np.array_equal(want.data, got.data)
        assert want.shape == got.shape
    assert recording.calls == []  # gather fast path, general kernel skipped


def test_selector_aware_spgemm_falls_through_for_non_selectors():
    """Indicator rows (multi-entry) and weighted selectors must take the
    general kernel — the gather is only exact for unit single-entry rows."""
    adj = _graph()
    batches = _batches(adj)
    q_ind = LadiesSampler.make_q(batches, adj.shape[0])
    backend = _RecordingKernel()
    out = backend.spgemm(q_ind, adj)
    assert len(backend.calls) == 1
    assert out.equal(spgemm_hash(q_ind, adj), 0.0)

    q_sel = SageSampler.make_q(np.arange(10), adj.shape[0])
    weighted = type(q_sel)(
        q_sel.indptr, q_sel.indices, q_sel.data * 2.0, q_sel.shape
    )
    backend.spgemm(weighted, adj)
    assert len(backend.calls) == 2


def test_compiled_executor_nulls_q_next():
    """A fused SAMPLE+EXTRACT drops the selection once extracted, so an
    (optimizer-excluded) later read would fail loudly."""
    adj = _graph()
    batches = _batches(adj)
    sampler = SageSampler()
    ex = LocalExecutor(
        sampler, adj, batches, np.random.default_rng(0),
        get_kernel("hash").spgemm,
    )
    ex.run(optimize(sampler.plan((4,))))
    assert ex.q_next is None


# --------------------------------------------------------------------- #
# End-to-end: run(optimize(plan)) == run(plan) on the one executor (spot
# check; the golden and differential suites are the full surface)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory,fanout",
    [
        (lambda: SageSampler(), (5, 3)),
        (lambda: SageSampler(include_dst=False), (5, 3)),
        (lambda: LadiesSampler(), (16,)),
        (lambda: LadiesSampler(debias=True), (16,)),
        (lambda: LadiesSampler(include_dst=True), (16,)),
        (lambda: FastGCNSampler(), (16,)),
        (lambda: GraphSaintRWSampler(walk_length=3), (3, 3)),
    ],
    ids=[
        "sage", "sage-nodst", "ladies", "ladies-debias", "ladies-dst",
        "fastgcn", "saint",
    ],
)
def test_compiled_local_matches_interpreted(factory, fanout):
    adj = _graph(seed=3)
    batches = _batches(adj, k=4)
    sampler = factory()
    plan = sampler.plan(fanout)
    assert optimize(plan).steps != plan.steps  # something was fused

    def run(program):
        return LocalExecutor(
            sampler, adj, batches, np.random.default_rng(11),
            get_kernel("esc").spgemm,
        ).run(program)

    want = run(plan)
    _layers_equal(want, run(optimize(plan)))
    _layers_equal(
        want,
        sampler.sample_bulk(adj, batches, fanout, np.random.default_rng(11)),
    )


def test_compiled_partitioned_matches_interpreted():
    adj = _graph(seed=3)
    batches = _batches(adj, k=4)
    grid = ProcessGrid(2, 2)
    blocks = BlockRows.partition(adj, grid.n_rows)
    sampler = SageSampler()
    plan = sampler.plan((5, 3))

    def run(program):
        return PartitionedExecutor(
            Communicator(2), grid, sampler, blocks, batches, 7
        ).run(program)

    want = run(plan)
    _layers_equal(want, run(optimize(plan)))
    got, _ = partitioned_bulk_sampling(
        Communicator(2), grid, sampler, blocks, batches, (5, 3), seed=7,
    )
    _layers_equal(want, got)
