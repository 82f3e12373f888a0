"""The matrix-based sampling abstraction (paper Algorithm 1).

Every sampling algorithm is the same program over layers::

    for l = L .. 1:
        P       = Q^l A          # generate probability distributions
        P       = NORM(P)        # sampler-specific normalization
        Q^{l-1} = SAMPLE(P, b, s)  # inverse transform sampling per row
        A^l     = EXTRACT(A, Q^l, Q^{l-1})

Samplers differ only in how ``Q`` is constructed, how ``NORM`` turns the
SpGEMM output into per-row distributions, and what ``EXTRACT`` keeps.  The
:class:`MatrixSampler` base class pins that contract: a sampler *emits*
that program as a declarative :class:`~repro.core.plan.SamplingPlan` (four
step types — PROB / NORM / SAMPLE / EXTRACT) via :meth:`MatrixSampler.plan`
and implements the row-local primitives the steps reference.  The SAMPLE
step is shared (ITS, with a Gumbel backend option) and lives in
:mod:`repro.core.its`.

Execution is an executor concern, not a sampler concern:
:meth:`MatrixSampler.sample_bulk` optimizes the plan
(:func:`~repro.core.compile.optimize`) and hands it to the single-device
:class:`~repro.core.plan.LocalExecutor`, while the distributed drivers
(:mod:`repro.distributed`) run the *same* plan with distributed
SpGEMMs substituted for the ``Q^l A`` products — so sampler semantics are
defined exactly once and distributed support is a derived capability
("the sampler has a plan").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence, Union

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.kernels import KernelSpec, get_kernel
from .compile import optimize
from .frontier import LayerSample, MinibatchSample
from .its import gumbel_select_mask, its_select_mask, sampled_rows_from_mask
from .plan import LocalExecutor, SamplingPlan

__all__ = ["MatrixSampler", "SpGEMMFn", "RngSpec"]

#: Signature of the SpGEMM used for the probability product; distributed
#: algorithms substitute their own.
SpGEMMFn = Callable[[CSRMatrix, CSRMatrix], CSRMatrix]

#: Randomness accepted by ``sample_bulk``: one generator consumed across the
#: whole stacked bulk (the historical behaviour), or one independent
#: generator per batch.  Per-batch streams make a batch's draws depend only
#: on its own stream and its own frontier — the property the replicated
#: driver uses to seed by *global* batch index so sampling output is
#: invariant to the world size.
RngSpec = Union[np.random.Generator, Sequence[np.random.Generator]]


class MatrixSampler(ABC):
    """Base class for matrix-expressible sampling algorithms.

    ``sample_backend`` selects the SAMPLE implementation: ``"its"`` (the
    paper's inverse transform sampling) or ``"gumbel"`` (equivalent
    distribution, single pass).  ``kernel`` selects the sparse-kernel
    backend (a :data:`repro.sparse.KERNELS` name or a
    :class:`~repro.sparse.KernelBackend` instance) used for the sampler's
    own SpGEMMs; ``None`` means the process-wide default.  The spec is
    kept as given and resolved per call, so a ``None``-kernel sampler
    tracks later :func:`~repro.sparse.set_default_kernel` /
    :func:`~repro.sparse.use_kernel` changes instead of snapshotting the
    default at construction.
    """

    name: str = "abstract"

    def __init__(
        self, sample_backend: str = "its", kernel: KernelSpec = None
    ) -> None:
        if sample_backend not in ("its", "gumbel"):
            raise ValueError(f"unknown sample backend {sample_backend!r}")
        self.sample_backend = sample_backend
        get_kernel(kernel)  # fail fast on a typo'd registry name
        self.kernel = kernel

    def _resolve_spgemm(self, spgemm_fn: SpGEMMFn | None) -> SpGEMMFn:
        """The SpGEMM to use: an explicit override (e.g. a distributed or
        recording wrapper) or this sampler's kernel backend."""
        return get_kernel(self.kernel).spgemm if spgemm_fn is None else spgemm_fn

    # ------------------------------------------------------------------ #
    # Algorithm-1 pieces
    # ------------------------------------------------------------------ #
    @abstractmethod
    def norm(self, p: CSRMatrix) -> CSRMatrix:
        """NORM(P): turn the raw ``Q A`` product into per-row distributions."""

    def norm_inplace(self, p: CSRMatrix) -> CSRMatrix:
        """NORM(P) overwriting ``p`` — the fused PROB+NORM kernel.

        Called only on probability matrices the executor freshly computed
        (and therefore owns).  Must produce bit-identical values to
        :meth:`norm`; the base delegates to it (copying), so overriding is
        a pure optimization samplers opt into.
        """
        return self.norm(p)

    def sample(
        self, p: CSRMatrix, s: int, rng: np.random.Generator
    ) -> CSRMatrix:
        """SAMPLE(P, s): ``min(s, nnz)`` distinct columns per row of ``p``,
        as the binary CSR built over :meth:`sample_mask`."""
        return sampled_rows_from_mask(
            p, self.sample_mask(p, s, rng), 0, p.shape[0]
        )

    def sample_mask(
        self, p: CSRMatrix, s: int, rng: np.random.Generator
    ) -> np.ndarray:
        """SAMPLE(P, s) as a boolean mask over ``p``'s nonzeros — the one
        RNG loop every SAMPLE runs, and the form the executors read."""
        if self.sample_backend == "gumbel":
            return gumbel_select_mask(p, s, rng)
        return its_select_mask(p, s, rng)

    @staticmethod
    def _normalize_rng(rng: RngSpec, k: int):
        """Normalize a ``sample_bulk`` rng argument, materializing and
        validating a per-batch sequence (which may be a one-shot iterator)
        exactly once.

        Returns a single generator unchanged (legacy stacked consumption)
        or a list of one generator per batch.
        """
        if isinstance(rng, np.random.Generator):
            return rng
        rngs = list(rng)
        if len(rngs) != k:
            raise ValueError(
                f"need one rng per batch: got {len(rngs)} for {k} batches"
            )
        if not all(isinstance(g, np.random.Generator) for g in rngs):
            raise TypeError("per-batch rngs must be numpy Generators")
        return rngs

    def sample_stacked(
        self,
        p: CSRMatrix,
        s: int,
        rng: RngSpec,
        bounds: Sequence[int] | np.ndarray,
    ) -> CSRMatrix:
        """SAMPLE on a stacked ``P`` whose row blocks belong to batches, as
        the binary CSR built over :meth:`sample_stacked_mask`."""
        return sampled_rows_from_mask(
            p, self.sample_stacked_mask(p, s, rng, bounds), 0, p.shape[0]
        )

    def sample_stacked_mask(
        self,
        p: CSRMatrix,
        s: int,
        rng: RngSpec,
        bounds: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """SAMPLE on a stacked ``P`` whose row blocks belong to batches, as
        a mask over ``p``'s nonzeros.

        With a single generator this is exactly :meth:`sample_mask` (one
        stream consumed across the whole stack).  With per-batch generators
        (a list from :meth:`_normalize_rng`) each zero-copy row block
        ``bounds[i]:bounds[i+1]`` is sampled from its own stream, so a
        batch's draws do not depend on what else happens to be stacked with
        it; the block masks concatenate back into ``p``'s global nonzero
        order, since the blocks tile ``p``'s nnz contiguously.  Rows are
        independent under ITS/Gumbel, so the distribution is identical
        either way.
        """
        if isinstance(rng, np.random.Generator):
            return self.sample_mask(p, s, rng)
        if len(rng) != len(bounds) - 1:
            raise ValueError(
                f"need one rng per row block: got {len(rng)} for "
                f"{len(bounds) - 1} blocks"
            )
        parts = [
            self.sample_mask(
                p.row_block(int(bounds[i]), int(bounds[i + 1])), s, g
            )
            for i, g in enumerate(rng)
        ]
        if not parts:
            return np.zeros(0, dtype=bool)
        return np.concatenate(parts)

    def extract_batch_layer_from_mask(
        self,
        p: CSRMatrix,
        sel: np.ndarray,
        lo: int,
        hi: int,
        dst_ids: np.ndarray,
    ) -> LayerSample:
        """Compact EXTRACT for the batch owning rows ``[lo, hi)`` of ``p``,
        read from the SAMPLE mask ``sel``.

        The base materializes the batch's sampled rows and hands them to
        the sampler's ``extract_batch_layer``; samplers may lower it to
        skip that block build (GraphSAGE does).
        """
        return self.extract_batch_layer(
            sampled_rows_from_mask(p, sel, lo, hi), dst_ids
        )

    # ------------------------------------------------------------------ #
    # Plan emission + whole-algorithm entry point (single device)
    # ------------------------------------------------------------------ #
    def plan(self, fanout: Sequence[int]) -> SamplingPlan | None:
        """Emit this sampler's declarative program for a concrete fanout.

        Returning a :class:`~repro.core.plan.SamplingPlan` is what makes a
        sampler executable — locally through :meth:`sample_bulk`, and
        under *every* distributed executor (replicated runs the local plan
        per rank; partitioned runs the same plan over the 1.5D
        grid).  The base returns ``None``: no matrix program, so only a
        hand-written ``sample_bulk`` override could run it.
        """
        return None

    def sample_bulk(
        self,
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        fanout: Sequence[int],
        rng: RngSpec,
        *,
        spgemm_fn: SpGEMMFn | None = None,
    ) -> list[MinibatchSample]:
        """Sample ``len(batches)`` minibatches in one bulk pass.

        ``fanout[0]`` is the sample count for the layer adjacent to the
        batch (the paper's layer ``L``) and ``fanout[-1]`` the furthest.
        Returns one :class:`MinibatchSample` per input batch, in order.
        ``rng`` is a single generator (draws consumed across the stacked
        bulk) or a sequence of one generator per batch (each batch draws
        only from its own stream — see :data:`RngSpec`).  ``spgemm_fn=None``
        uses the sampler's kernel backend; distributed drivers and cost
        recorders pass their own wrapper.

        The default implementation emits :meth:`plan`, optimizes it
        (:func:`~repro.core.compile.optimize`; bit-identical output) and
        runs it with the single-device
        :class:`~repro.core.plan.LocalExecutor`; samplers without a plan
        must override this method instead.
        """
        spgemm = self._resolve_spgemm(spgemm_fn)
        self._validate(adj, batches, fanout)
        program = self.plan(tuple(int(s) for s in fanout))
        if program is None:
            raise TypeError(
                f"{type(self).__name__} emits no sampling plan; implement "
                f"plan() (preferred — distribution comes for free) or "
                f"override sample_bulk()"
            )
        rng = self._normalize_rng(rng, len(batches))
        executor = LocalExecutor(self, adj, batches, rng, spgemm)
        return executor.run(optimize(program))

    # ------------------------------------------------------------------ #
    # Shared validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(
        adj: CSRMatrix,
        batches: Sequence[np.ndarray],
        fanout: Sequence[int],
    ) -> int:
        if adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got {adj.shape}")
        if not batches:
            raise ValueError("need at least one batch")
        if not fanout:
            raise ValueError("need at least one layer fanout")
        if any(s <= 0 for s in fanout):
            raise ValueError(f"fanout entries must be positive, got {fanout}")
        n = adj.shape[0]
        for b in batches:
            b = np.asarray(b)
            if b.ndim != 1 or b.size == 0:
                raise ValueError("each batch must be a non-empty 1-D array")
            if b.min() < 0 or b.max() >= n:
                raise ValueError(f"batch vertex out of range [0, {n})")
        return n
