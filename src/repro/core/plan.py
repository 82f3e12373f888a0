"""The sampling-plan IR: Algorithm 1 as *data*, run by one executor per grid.

The paper's central claim is that LADIES, FastGCN, GraphSAGE (and, with one
extra step kind, GraphSAINT) are the *same* matrix program — PROB (an
SpGEMM), NORM, SAMPLE (inverse transform sampling), EXTRACT — differing
only in how each step is parameterized.  This module makes that claim
operational: a :class:`MatrixSampler` *emits* a declarative
:class:`SamplingPlan` built from four step types, the optimizer
(:func:`repro.core.compile.optimize`) rewrites it, and an executor runs
it.  There is one executor per grid:

* :class:`LocalExecutor` (here) — one device, serial SpGEMMs; the loop of
  Algorithm 1.
* :class:`~repro.distributed.partitioned.PartitionedExecutor` — the same
  program over the 1.5D ``p/c x c`` grid of Algorithm 2, with PROB and the
  row-extraction half of EXTRACT running as distributed SpGEMMs.

Each executor runs every step type, plain or fused, through one
``_dispatch``, so ``run(plan)`` and ``run(optimize(plan))`` give the same
samples (pinned by ``tests/test_compile_differential.py``).  SAMPLE never
builds the sampled ``Q^{l-1}`` as a CSR: it keeps the selection as a
boolean mask over ``P``'s nonzeros, and EXTRACT reads the selected
entries straight out of ``P``.

Because distribution is a property of the *executor* rather than of the
sampler, any sampler that emits a plan — including registry plugins — runs
partitioned for free, and per-phase time attribution (``probability`` /
``sampling`` / ``extraction``) is derived from step types via
:func:`step_phase` instead of hand-placed phase calls.

Step vocabulary (paper mapping)
-------------------------------
``ProbStep``
    ``P^l = Q^l A`` (Algorithm 1 line 2).  ``source`` picks how ``Q`` is
    built: ``"frontier"`` (one row-selector row per frontier vertex —
    node-wise), ``"indicator"`` (one indicator row per batch — layer-wise),
    or ``"global"`` (a batch-independent importance row from A's column
    norms — FastGCN; no per-layer SpGEMM).
``NormStep``
    ``P = NORM(P)`` — the sampler's row-local normalization.
``SampleStep``
    ``Q^{l-1} = SAMPLE(P, count)`` — ITS/Gumbel, ``count`` draws per row.
``ExtractStep``
    ``A^l = EXTRACT(...)``: ``"compact"`` (per-batch column compaction,
    section 4.1.3), ``"bipartite"`` (row-extraction SpGEMM + per-batch
    column extraction, section 4.2.4), ``"walk"`` (advance random-walk
    positions — GraphSAINT's inner step), or ``"subgraph"`` (induce ``A``
    on the visited set and emit all layers — GraphSAINT's EXTRACT).
``FusedProbNormStep`` / ``FusedSampleExtractStep``
    Adjacent pairs the optimizer fused: PROB+NORM normalizes the fresh
    product in place (no copy); SAMPLE+EXTRACT runs both halves back to
    back and drops the selection, which nothing later reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

from ..obs.trace import get_tracer, plan_step_name
from ..sparse import CSRMatrix, vstack
from .frontier import LayerSample, MinibatchSample
from .its import mask_row_counts, selected_row_cols

if TYPE_CHECKING:  # pragma: no cover
    from .sampler_base import MatrixSampler, SpGEMMFn

__all__ = [
    "ProbStep",
    "NormStep",
    "SampleStep",
    "ExtractStep",
    "FusedProbNormStep",
    "FusedSampleExtractStep",
    "Step",
    "SamplingPlan",
    "step_phase",
    "LocalExecutor",
]

_PROB_SOURCES = ("frontier", "indicator", "global")
_EXTRACT_KINDS = ("compact", "bipartite", "walk", "subgraph")


@dataclass(frozen=True)
class ProbStep:
    """PROB: build this stage's probability matrix ``P``."""

    source: str = "frontier"

    def __post_init__(self) -> None:
        if self.source not in _PROB_SOURCES:
            raise ValueError(
                f"unknown PROB source {self.source!r}; "
                f"expected one of {_PROB_SOURCES}"
            )

    def describe_args(self) -> list[str]:
        return [self.source]


@dataclass(frozen=True)
class NormStep:
    """NORM: the sampler's row-local normalization of ``P``."""

    def describe_args(self) -> list[str]:
        return []


@dataclass(frozen=True)
class SampleStep:
    """SAMPLE: draw ``count`` distinct columns per row of ``P``."""

    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"SAMPLE count must be positive, got {self.count}")

    def describe_args(self) -> list[str]:
        return [f"s={self.count}"]


@dataclass(frozen=True)
class ExtractStep:
    """EXTRACT: turn the sampled ``Q^{l-1}`` into layers / a new frontier.

    ``union_dst`` unions each batch's destination vertices into its sampled
    set (the root-term trick); ``debias`` importance-reweights the layer
    (pure LADIES only); ``n_layers`` is the GNN depth a ``"subgraph"``
    extraction emits.
    """

    kind: str = "compact"
    union_dst: bool = False
    debias: bool = False
    n_layers: int | None = None

    def describe_args(self) -> list[str]:
        args = [self.kind]
        if self.union_dst:
            args.append("union_dst")
        if self.debias:
            args.append("debias")
        if self.n_layers is not None:
            args.append(f"n_layers={self.n_layers}")
        return args

    def __post_init__(self) -> None:
        if self.kind not in _EXTRACT_KINDS:
            raise ValueError(
                f"unknown EXTRACT kind {self.kind!r}; "
                f"expected one of {_EXTRACT_KINDS}"
            )
        if self.kind == "subgraph" and (
            self.n_layers is None or self.n_layers <= 0
        ):
            raise ValueError("subgraph extraction needs n_layers >= 1")


@dataclass(frozen=True)
class FusedProbNormStep(ProbStep):
    """``PROB`` immediately followed by ``NORM``, as one step.

    The executor normalizes the probability product in place (it owns the
    freshly computed matrix), producing bit-identical values to the
    plain ``norm`` without the copy.  Subclassing :class:`ProbStep`
    keeps plan validation and :func:`step_phase` working unchanged; the
    whole step is attributed to the ``probability`` phase (NORM charges no
    simulated time, so the per-phase breakdown is the plain plan's).
    """

    display_name = "PROB+NORM"


@dataclass(frozen=True)
class FusedSampleExtractStep(SampleStep):
    """``SAMPLE`` immediately followed by a non-subgraph ``EXTRACT`` that
    is the only reader of the sampled ``Q^{l-1}``.

    Executors run the two halves back to back and then drop the
    selection, so a later read fails loudly.  The partitioned executor
    charges each half to its own Figure-7 phase.
    """

    extract: ExtractStep

    display_name = "SAMPLE+EXTRACT"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.extract, ExtractStep):
            raise TypeError(f"extract must be an ExtractStep, got {self.extract!r}")
        if self.extract.kind == "subgraph":
            raise ValueError(
                "subgraph extraction reads the walk history, not the "
                "sampled Q — it cannot fuse with SAMPLE"
            )

    def describe_args(self) -> list[str]:
        return [f"s={self.count}"] + self.extract.describe_args()


Step = Union[ProbStep, NormStep, SampleStep, ExtractStep]


def step_phase(step: Step) -> str:
    """The Figure-7 phase a step's work is attributed to, by step type."""
    if isinstance(step, ProbStep):
        return "probability"
    if isinstance(step, (NormStep, SampleStep)):
        return "sampling"
    if isinstance(step, ExtractStep):
        return "extraction"
    raise TypeError(f"not a plan step: {step!r}")


@dataclass(frozen=True)
class SamplingPlan:
    """A sampler's whole bulk computation as a linear program of steps.

    Plans are emitted for a *concrete* fanout (``SampleStep.count`` values
    are literal), so one plan fully describes one bulk call and can be
    interpreted by any executor.  Construction validates basic dataflow:
    SAMPLE needs a preceding PROB, and every EXTRACT needs a preceding
    SAMPLE (except ``"subgraph"``, which reads the walk history).
    """

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a sampling plan needs at least one step")
        have_p = have_q = False
        for step in self.steps:
            if isinstance(step, ProbStep):
                have_p = True
            elif isinstance(step, NormStep):
                if not have_p:
                    raise ValueError("NORM before any PROB step")
            elif isinstance(step, SampleStep):
                if not have_p:
                    raise ValueError("SAMPLE before any PROB step")
                have_q = True
            elif isinstance(step, ExtractStep):
                if step.kind != "subgraph" and not have_q:
                    raise ValueError(
                        f"EXTRACT {step.kind!r} before any SAMPLE step"
                    )
            else:
                raise TypeError(f"not a plan step: {step!r}")

    def __len__(self) -> int:
        return len(self.steps)

    def digest(self) -> str:
        """Stable content hash of the program (steps are frozen dataclasses
        with value reprs).  Worker pools key warm per-process sampler state
        by this digest so the hot-path task message carries 16 bytes, not
        a pickled plan; two plans share a digest iff they would execute
        identically."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for step in self.steps:
            h.update(type(step).__name__.encode())
            h.update(repr(step).encode())
        return h.hexdigest()

    def describe(self) -> str:
        """One line per step: ``phase  STEP(args)`` — for docs and debug.

        Fused steps (from :func:`repro.core.compile.optimize`) render under
        their own display names (``PROB+NORM``, ``SAMPLE+EXTRACT``) so an
        optimized program shows its fusions.
        """
        lines = []
        for step in self.steps:
            name = getattr(
                step,
                "display_name",
                type(step).__name__.removesuffix("Step").upper(),
            )
            args = step.describe_args()
            lines.append(f"{step_phase(step):<12} {name}({', '.join(args)})")
        return "\n".join(lines)


class LocalExecutor:
    """Run a :class:`SamplingPlan`, plain or optimized, on one device.

    Carries the executor state Algorithm 1 threads between steps: the
    per-batch frontiers, the current ``P`` and its row-to-batch
    ``bounds``, the sampled ``Q`` (as ``q_next = (P it was drawn from,
    selection mask over its nonzeros)``), the collected layers, and (for
    graph-wise plans) the walk history.  RNG handling matches the
    historical loops exactly — a single generator is consumed across the
    whole stacked bulk, per-batch generators draw per row block — so
    fixed-seed output is bit-identical to the pre-IR implementations
    (pinned by the golden digest suite).
    """

    def __init__(
        self,
        sampler: "MatrixSampler",
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        rng,
        spgemm_fn: "SpGEMMFn",
    ) -> None:
        self.sampler = sampler
        self.adj = adj
        self.n = adj.shape[0]
        self.batches = [np.asarray(b, dtype=np.int64) for b in batches]
        self.k = len(self.batches)
        self.rng = rng
        self.spgemm = spgemm_fn
        # Frontier state: per-batch destination lists, batch-outward layers.
        self.dst_lists: list[np.ndarray] = [b for b in self.batches]
        self.layers_rev: list[list[LayerSample]] = [[] for _ in range(self.k)]
        self.results: list[MinibatchSample | None] = [None] * self.k
        # Step-to-step dataflow.
        self.p: CSRMatrix | None = None
        self.q_next: tuple[CSRMatrix, np.ndarray] | None = None
        self.bounds: np.ndarray | None = None
        self.s: int | None = None
        self.frontier: np.ndarray | None = None
        self.importance: CSRMatrix | None = None
        self.visited: list[np.ndarray] | None = None

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def run(self, plan: SamplingPlan) -> list[MinibatchSample]:
        tracer = get_tracer()
        if tracer is None:
            for step in plan.steps:
                self._dispatch(step)
        else:
            # One wall-clock span per plan step (the sim clock is charged
            # per whole plan, not per step); a fused step is one span.
            for step in plan.steps:
                with tracer.span(
                    plan_step_name(step),
                    cat="plan",
                    domain="wall",
                    args={"phase": step_phase(step), "k": self.k},
                ):
                    self._dispatch(step)
        return [
            self.results[i]
            if self.results[i] is not None
            else MinibatchSample(
                self.batches[i], list(reversed(self.layers_rev[i]))
            )
            for i in range(self.k)
        ]

    def _dispatch(self, step: Step) -> None:
        """Run one step, plain or fused."""
        if isinstance(step, ProbStep):
            self._prob(step)
            if isinstance(step, FusedProbNormStep):
                self.p = self.sampler.norm_inplace(self.p)
        elif isinstance(step, NormStep):
            self.p = self.sampler.norm(self.p)
        elif isinstance(step, SampleStep):
            self._sample(step)
            if isinstance(step, FusedSampleExtractStep):
                self._extract(step.extract)
                self.q_next = None
        else:
            self._extract(step)

    # ------------------------------------------------------------------ #
    # PROB
    # ------------------------------------------------------------------ #
    def _prob(self, step: ProbStep) -> None:
        if step.source == "frontier":
            self.frontier = np.concatenate(self.dst_lists)
            self.bounds = np.cumsum([0] + [len(d) for d in self.dst_lists])
            q = self.sampler.make_q(self.frontier, self.n)
            self.p = self.spgemm(q, self.adj)
        elif step.source == "indicator":
            self.bounds = np.arange(self.k + 1)
            q = self.sampler.make_q(self.dst_lists, self.n)
            self.p = self.spgemm(q, self.adj)
        else:  # global importance: computed once, stacked per batch
            if self.importance is None:
                self.importance = self.sampler.importance_row(self.adj)
            self.bounds = np.arange(self.k + 1)
            self.p = vstack([self.importance] * self.k)

    # ------------------------------------------------------------------ #
    # SAMPLE
    # ------------------------------------------------------------------ #
    def _sample(self, step: SampleStep) -> None:
        self.s = step.count
        sel = self.sampler.sample_stacked_mask(
            self.p, step.count, self.rng, self.bounds
        )
        self.q_next = (self.p, sel)

    # ------------------------------------------------------------------ #
    # EXTRACT
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
        p, sel = self.q_next
        new_dsts: list[np.ndarray] = []
        for i in range(self.k):
            layer = self.sampler.extract_batch_layer_from_mask(
                p, sel, int(self.bounds[i]), int(self.bounds[i + 1]),
                self.dst_lists[i],
            )
            self.layers_rev[i].append(layer)
            new_dsts.append(layer.src_ids)
        self.dst_lists = new_dsts

    def _extract_bipartite(self, step: ExtractStep) -> None:
        p, sel = self.q_next
        sampled = [selected_row_cols(p, sel, i) for i in range(self.k)]
        if step.union_dst:
            sampled = [
                np.union1d(sv, dv) for sv, dv in zip(sampled, self.dst_lists)
            ]
        a_r = self.sampler.row_extract(
            self.adj, self.dst_lists, spgemm_fn=self.spgemm
        )
        a_s = self.sampler.col_extract(
            a_r, self.dst_lists, sampled, spgemm_fn=self.spgemm
        )
        for i in range(self.k):
            layer = LayerSample(a_s[i], sampled[i], self.dst_lists[i])
            if step.debias:
                probs = np.zeros(self.n)
                cols, vals = self.p.row(i)
                probs[cols] = vals
                layer = self.sampler.debias_layer(layer, probs, self.s)
            self.layers_rev[i].append(layer)
        self.dst_lists = sampled

    def _extract_walk(self) -> None:
        if self.visited is None:
            self.visited = [self.frontier]
        p, sel = self.q_next
        nxt = self.frontier.copy()
        picked = np.flatnonzero(mask_row_counts(p, sel) > 0)
        nxt[picked] = p.indices[sel]
        self.visited.append(nxt)
        self.dst_lists = [
            nxt[int(self.bounds[i]) : int(self.bounds[i + 1])]
            for i in range(self.k)
        ]

    def _extract_subgraph(self, step: ExtractStep) -> None:
        if self.visited is None:  # degenerate zero-step walk
            self.visited = [np.concatenate(self.dst_lists)]
            self.bounds = np.cumsum([0] + [len(d) for d in self.dst_lists])
        for i in range(self.k):
            batch = self.batches[i]
            lo, hi = int(self.bounds[i]), int(self.bounds[i + 1])
            mine = np.unique(
                np.concatenate([stepv[lo:hi] for stepv in self.visited])
            )
            verts = np.union1d(mine, batch)
            sub = self.sampler.induced_subgraph(
                self.adj, verts, spgemm_fn=self.spgemm
            )
            layers = [
                LayerSample(sub, verts, verts)
                for _ in range(step.n_layers - 1)
            ]
            pos = np.searchsorted(verts, batch)
            layers.append(LayerSample(sub.extract_rows(pos), verts, batch))
            self.results[i] = MinibatchSample(batch, layers)
