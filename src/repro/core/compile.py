"""The sampling-plan optimizer: semantics-preserving passes over plans.

Every plan a sampler emits is run through :func:`optimize` before an
executor sees it (:meth:`~repro.core.sampler_base.MatrixSampler.sample_bulk`,
:func:`~repro.distributed.partitioned.partitioned_bulk_sampling`), whatever
the kernel backend.  The passes remove interpretive overhead without
changing a single output bit:

* :func:`eliminate_dead_steps` — drop PROB/NORM steps whose results are
  overwritten before any step reads them.  SAMPLE steps are **never**
  eliminated even when their output is dead: they consume randomness, and
  the optimized plan must replay the plain plan's RNG stream exactly.
* :func:`fuse_prob_norm` — replace adjacent ``PROB, NORM`` with a single
  :class:`~repro.core.plan.FusedProbNormStep`: the probability product is
  normalized *in place* (the executor owns the freshly computed product),
  skipping the full indptr/indices/data copy of a plain NORM.
* :func:`fuse_sample_extract` — replace adjacent ``SAMPLE, EXTRACT`` with
  a :class:`~repro.core.plan.FusedSampleExtractStep` when nothing later
  reads the sampled ``Q^{l-1}``, so the executor drops the selection right
  after extracting.  Fusion is skipped for ``subgraph`` extraction and
  when a later step still reads ``Q^{l-1}``.

The fused step types live with the rest of the IR in
:mod:`repro.core.plan`, and both executors run them through the same
``_dispatch`` as plain steps.  Bit-identity is the contract and the test
surface: the golden-digest suites pin all four samplers, and
``tests/test_compile_differential.py`` fuzzes hundreds of random plans
through ``run(plan)`` and ``run(optimize(plan))`` asserting byte-equal
samples, locally and on the 1.5D grid.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .plan import (
    ExtractStep,
    FusedProbNormStep,
    FusedSampleExtractStep,
    NormStep,
    ProbStep,
    SampleStep,
    SamplingPlan,
)

__all__ = [
    "eliminate_dead_steps",
    "fuse_prob_norm",
    "fuse_sample_extract",
    "optimize",
    "DEFAULT_PASSES",
]


def _norm_is_dead(steps: list, i: int) -> bool:
    """NORM at ``i`` is dead iff ``P`` is overwritten before anything reads
    it.  Readers of ``P``: NORM, SAMPLE, and debiased bipartite EXTRACT."""
    for step in steps[i + 1 :]:
        if isinstance(step, ProbStep):
            return True
        if isinstance(step, (NormStep, SampleStep)):
            return False
        if isinstance(step, ExtractStep):
            if step.kind == "bipartite" and step.debias:
                return False
    return True  # nothing after reads P


def _prob_is_dead(steps: list, i: int) -> bool:
    """PROB at ``i`` is dead iff the very next step is another PROB (every
    other step type reads something PROB wrote), with one frontier caveat:
    a ``frontier``-source PROB also records the walk frontier, which a
    non-frontier PROB does not rewrite on the local executor — so it stays
    live if any walk extraction could still read it."""
    if i + 1 >= len(steps):
        return True  # trailing PROB: nothing reads it
    nxt = steps[i + 1]
    if not isinstance(nxt, ProbStep):
        return False
    if steps[i].source == "frontier" and nxt.source != "frontier":
        if any(
            isinstance(s, ExtractStep) and s.kind == "walk"
            for s in steps[i + 1 :]
        ):
            return False
    return True


def eliminate_dead_steps(plan: SamplingPlan) -> SamplingPlan:
    """Drop PROB/NORM steps whose output is overwritten before being read.

    SAMPLE steps are never dead — they consume RNG draws, and eliminating
    one would shift every later draw, breaking bit-identity with the
    plain plan.  EXTRACT steps always produce observable output.  Runs to
    a fixpoint; a plan that optimizes to nothing is returned unchanged
    (its output is layer-free either way, and plans must be non-empty).
    """
    steps = list(plan.steps)
    changed = True
    while changed:
        changed = False
        for i, step in enumerate(steps):
            if type(step) is NormStep and _norm_is_dead(steps, i):
                del steps[i]
                changed = True
                break
            if type(step) is ProbStep and _prob_is_dead(steps, i):
                del steps[i]
                changed = True
                break
    if not steps:
        return plan
    return SamplingPlan(tuple(steps))


def fuse_prob_norm(plan: SamplingPlan) -> SamplingPlan:
    """Fuse every adjacent ``PROB, NORM`` pair (always legal: nothing can
    observe the unnormalized ``P`` between two adjacent steps)."""
    steps = list(plan.steps)
    out: list = []
    i = 0
    while i < len(steps):
        if (
            type(steps[i]) is ProbStep
            and i + 1 < len(steps)
            and type(steps[i + 1]) is NormStep
        ):
            out.append(FusedProbNormStep(steps[i].source))
            i += 2
        else:
            out.append(steps[i])
            i += 1
    return SamplingPlan(tuple(out))


def _q_next_read_after(steps: list, j: int) -> bool:
    """Would a step at position >= ``j`` read the sampled ``Q^{l-1}``
    produced before ``j``?  True when the first relevant step is a
    q-reading EXTRACT; a SAMPLE (fused or not) rewrites ``Q`` first."""
    for step in steps[j:]:
        if isinstance(step, SampleStep):
            return False
        if type(step) is ExtractStep and step.kind in (
            "compact",
            "bipartite",
            "walk",
        ):
            return True
    return False


def fuse_sample_extract(plan: SamplingPlan) -> SamplingPlan:
    """Fuse adjacent ``SAMPLE, EXTRACT`` pairs where legal.

    Illegal when the extraction is ``subgraph`` (reads the walk history,
    not ``Q``) or when a *later* step still reads the sampled
    ``Q^{l-1}`` (e.g. two EXTRACTs sharing one SAMPLE) — those stay
    plain steps.
    """
    steps = list(plan.steps)
    out: list = []
    i = 0
    while i < len(steps):
        if (
            type(steps[i]) is SampleStep
            and i + 1 < len(steps)
            and type(steps[i + 1]) is ExtractStep
            and steps[i + 1].kind != "subgraph"
            and not _q_next_read_after(steps, i + 2)
        ):
            out.append(
                FusedSampleExtractStep(steps[i].count, steps[i + 1])
            )
            i += 2
        else:
            out.append(steps[i])
            i += 1
    return SamplingPlan(tuple(out))


DEFAULT_PASSES: tuple[Callable[[SamplingPlan], SamplingPlan], ...] = (
    eliminate_dead_steps,
    fuse_prob_norm,
    fuse_sample_extract,
)


def optimize(
    plan: SamplingPlan,
    passes: Sequence[Callable[[SamplingPlan], SamplingPlan]] = DEFAULT_PASSES,
) -> SamplingPlan:
    """Run the optimizer pass pipeline over a plan.

    Every pass is individually semantics-preserving (same samples, same
    RNG consumption), so any subset/ordering is safe; the default order is
    dead-step elimination first (so fusions see the cleaned plan), then
    the two fusions.
    """
    for pass_fn in passes:
        plan = pass_fn(plan)
    return plan
