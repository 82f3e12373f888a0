"""Differential plan-fuzzing: ``run(optimize(plan)) == run(plan)``, always.

Hypothesis generates random *valid* sampling plans — stage-structured
mixes of node-wise, layer-wise, global and random-walk stages with dead
steps injected, fusion-blocking double extractions, debiasing, destination
unioning, both NORM styles and both sample backends — and executes each
one on a random graph, plain and optimized, on the one executor per grid
and under two independent SpGEMM kernels.  The optimized plan (dead steps
dropped, PROB+NORM and SAMPLE+EXTRACT fused) must produce
**byte-identical** samples to the plain plan, for the local executor and
for the 1.5D partitioned executor; on the grid it must also charge the
same per-phase simulated time and send the same bytes whenever no dead
step was dropped.

The plans are run by a :class:`FuzzSampler` assembled from the real
samplers' own primitives (GraphSAGE compaction, LADIES row/column
extraction and debiasing, FastGCN's importance row, SAINT's subgraph
induction), so every generated plan exercises production extraction code
— the fuzz surface is the *plan space*, not toy kernels.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator, ProcessGrid
from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
    batch_rng,
)
from repro.core.compile import eliminate_dead_steps, optimize
from repro.core.plan import (
    ExtractStep,
    LocalExecutor,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
)
from repro.core.sampler_base import MatrixSampler
from repro.distributed.partitioned import PartitionedExecutor
from repro.graphs import rmat
from repro.partition import BlockRows
from repro.sparse import (
    CSRMatrix,
    indicator_rows,
    row_normalize,
    row_normalize_inplace,
    row_selector,
)
from repro.sparse.kernels import get_kernel

# Kernel names under differential test: two independent general SpGEMM
# implementations.
KERNELS_UNDER_TEST = ("esc", "hash")

GRAPHS = [
    rmat(7, 6, np.random.default_rng(101)),
    rmat(8, 4, np.random.default_rng(202)),
    rmat(6, 10, np.random.default_rng(303)),
]


class FuzzSampler(MatrixSampler):
    """Executes an arbitrary stored plan with the real samplers' pieces.

    ``make_q`` is polymorphic over the executor's PROB sources: a frontier
    array gets GraphSAGE's row selector, per-batch destination lists get
    LADIES' indicator rows.  Extraction primitives are the production
    implementations, referenced (not reimplemented) so the fuzz runs the
    same code paths the golden suites pin.
    """

    name = "fuzz"

    def __init__(
        self,
        steps,
        *,
        norm_mode="sage",
        include_dst=False,
        sample_backend="its",
        kernel=None,
    ):
        super().__init__(sample_backend, kernel)
        self._steps = tuple(steps)
        self.norm_mode = norm_mode
        self.include_dst = include_dst
        self.split_col_extract = True

    @staticmethod
    def make_q(arg, n):
        if isinstance(arg, np.ndarray):
            return row_selector(arg, n)
        return indicator_rows(arg, n)

    def norm(self, p):
        if self.norm_mode == "ladies":
            squared = CSRMatrix(
                p.indptr.copy(), p.indices.copy(), p.data**2, p.shape
            )
            return row_normalize(squared)
        return row_normalize(p)

    def norm_inplace(self, p):
        if self.norm_mode == "ladies":
            np.power(p.data, 2, out=p.data)
        return row_normalize_inplace(p)

    # Production primitives, by reference.
    extract_batch_layer = SageSampler.extract_batch_layer
    extract_batch_layer_from_mask = SageSampler.extract_batch_layer_from_mask
    row_extract = staticmethod(LadiesSampler.row_extract)
    col_extract = LadiesSampler.col_extract
    debias_layer = staticmethod(LadiesSampler.debias_layer)
    importance_row = staticmethod(FastGCNSampler.importance_row)
    induced_subgraph = GraphSaintRWSampler.induced_subgraph

    def plan(self, fanout):
        return SamplingPlan(self._steps)


class FuzzSamplerCustomExtract(FuzzSampler):
    """Overrides ``extract_batch_layer``: the executors must take the
    mask-materialization fallback instead of the fully lowered compact
    kernel, and still match bit for bit."""

    def extract_batch_layer(self, q_next_rows, dst_ids):
        return SageSampler.extract_batch_layer(self, q_next_rows, dst_ids)


# --------------------------------------------------------------------- #
# Plan generation
# --------------------------------------------------------------------- #
def _stage_steps(stage, draw_dead):
    """One plan stage: PROB [+NORM] + SAMPLE + EXTRACT, with optional dead
    PROB/NORM prefixes (overwritten before any read — DSE fodder that the
    plain plan must execute neutrally)."""
    kind = stage["kind"]
    steps = []
    if draw_dead:
        steps += [ProbStep(stage["dead_source"]), NormStep()]
    if kind == "node":
        steps.append(ProbStep("frontier"))
        if stage["norm"]:
            steps.append(NormStep())
        steps += [SampleStep(stage["count"]), ExtractStep("compact")]
    elif kind == "walk":
        steps.append(ProbStep("frontier"))
        if stage["norm"]:
            steps.append(NormStep())
        steps += [SampleStep(1), ExtractStep("walk")]
        if stage["double_extract"]:
            # A second walk advance off the same sampled Q: blocks
            # SAMPLE+EXTRACT fusion, both executors replay it identically.
            steps.append(ExtractStep("walk"))
    else:  # "layer" (indicator source) or "global"
        source = "indicator" if kind == "layer" else "global"
        steps.append(ProbStep(source))
        if stage["norm"]:
            steps.append(NormStep())
        steps.append(SampleStep(stage["count"]))
        steps.append(
            ExtractStep(
                "bipartite",
                union_dst=stage["union_dst"],
                debias=stage["debias"],
            )
        )
    return steps


@st.composite
def fuzz_cases(draw):
    graph_idx = draw(st.integers(0, len(GRAPHS) - 1))
    n = GRAPHS[graph_idx].shape[0]
    k = draw(st.integers(1, 3))
    batch_size = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    family = draw(st.sampled_from(["layered", "walk"]))
    n_stages = draw(st.integers(1, 3))
    stages = []
    for _ in range(n_stages):
        if family == "walk":
            kind = "walk"
        else:
            kind = draw(st.sampled_from(["node", "layer", "global"]))
        norm = draw(st.booleans())
        union_dst = debias = double = False
        if kind in ("layer", "global"):
            union_dst = draw(st.booleans())
            if norm and not union_dst:
                debias = draw(st.booleans())
        if kind == "walk":
            double = draw(st.booleans())
        stages.append(
            {
                "kind": kind,
                "norm": norm,
                "count": draw(st.integers(1, 4)),
                "union_dst": union_dst,
                "debias": debias,
                "double_extract": double,
                "dead": draw(st.booleans()),
                "dead_source": draw(
                    st.sampled_from(["frontier", "indicator", "global"])
                ),
            }
        )
    steps = []
    for stage in stages:
        steps += _stage_steps(stage, stage["dead"])
    if family == "walk":
        steps.append(
            ExtractStep("subgraph", n_layers=draw(st.integers(1, 2)))
        )
    return {
        "graph_idx": graph_idx,
        "steps": steps,
        "k": k,
        "batch_size": batch_size,
        "seed": seed,
        "norm_mode": draw(st.sampled_from(["sage", "ladies"])),
        "include_dst": draw(st.booleans()),
        "sample_backend": draw(st.sampled_from(["its", "gumbel"])),
        "custom_extract": draw(st.booleans()),
        "per_batch_rng": draw(st.booleans()),
        "n": n,
    }


def _make_batches(case):
    rng = np.random.default_rng(case["seed"] + 7)
    return [
        np.sort(
            rng.choice(case["n"], case["batch_size"], replace=False)
        ).astype(np.int64)
        for _ in range(case["k"])
    ]


def _make_sampler(case, kernel):
    cls = (
        FuzzSamplerCustomExtract if case["custom_extract"] else FuzzSampler
    )
    return cls(
        case["steps"],
        norm_mode=case["norm_mode"],
        include_dst=case["include_dst"],
        sample_backend=case["sample_backend"],
        kernel=kernel,
    )


def _digest(samples):
    h = hashlib.sha256()
    for mb in samples:
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


# --------------------------------------------------------------------- #
# Local differential: plain == optimized, esc == hash, on every plan
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(case=fuzz_cases())
def test_local_compiled_matches_interpreted(case):
    adj = GRAPHS[case["graph_idx"]]
    batches = _make_batches(case)

    def rng_for():
        if case["per_batch_rng"]:
            return [batch_rng(case["seed"], i) for i in range(case["k"])]
        return np.random.default_rng(case["seed"])

    digests = {}
    for kernel in KERNELS_UNDER_TEST:
        sampler = _make_sampler(case, kernel)
        plan = sampler.plan((1,))
        for label, program in (("plain", plan), ("optimized", optimize(plan))):
            ex = LocalExecutor(
                sampler, adj, batches, rng_for(), get_kernel(kernel).spgemm
            )
            digests[kernel, label] = _digest(ex.run(program))
        out = sampler.sample_bulk(adj, batches, (1,), rng_for())
        digests[kernel, "sample_bulk"] = _digest(out)
    assert len(set(digests.values())) == 1, digests


# --------------------------------------------------------------------- #
# Partitioned differential: plain == optimized on the 1.5D executor (and,
# transitively via the suite above, the local paths), with the same
# simulated cost when no dead step was dropped
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(case=fuzz_cases(), grid_shape=st.sampled_from([(2, 1), (2, 2), (4, 1)]))
def test_partitioned_compiled_matches_interpreted(case, grid_shape):
    adj = GRAPHS[case["graph_idx"]]
    batches = _make_batches(case)
    p, c = grid_shape
    grid = ProcessGrid(p, c)
    blocks = BlockRows.partition(adj, grid.n_rows)
    sampler = _make_sampler(case, "esc")
    plan = sampler.plan((1,))
    runs = {}
    for label, program in (("plain", plan), ("optimized", optimize(plan))):
        comm = Communicator(p)
        out = PartitionedExecutor(
            comm, grid, sampler, blocks, batches, case["seed"]
        ).run(program)
        sent = {ph: comm.ledger.sent(ph) for ph in comm.ledger.phases()}
        runs[label] = (_digest(out), comm.clock.breakdown(), sent)
    assert runs["plain"][0] == runs["optimized"][0], runs
    if eliminate_dead_steps(plan).steps == plan.steps:
        assert runs["plain"] == runs["optimized"], runs
