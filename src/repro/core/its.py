"""Inverse transform sampling (ITS) over the rows of a CSR matrix.

Each row of ``P`` is an unnormalized probability distribution over its
stored nonzeros; :func:`its_sample_rows` draws up to ``s`` *distinct*
columns per row, exactly the SAMPLE step of the paper's Algorithm 1:

1. prefix-sum each row's values,
2. draw uniforms and binary-search them into the prefix sums,
3. repeat on the not-yet-chosen entries until ``s`` distinct columns per
   row are selected (or the row runs out of nonzeros).

Everything is vectorized across all rows at once — one global cumulative
sum and one batched ``searchsorted`` per round — which is the bulk-sampling
amortization the paper exploits (many minibatches stacked into ``P`` share
the same kernel launches).

:func:`gumbel_topk_rows` offers an equivalent single-pass alternative
(exponential races / Gumbel top-k), used in tests as a statistical
cross-check and available as an optional sampler backend.

The executors never build the sampled ``Q^{l-1}`` as a whole: SAMPLE keeps
its selection as a boolean mask over ``P``'s nonzeros
(:func:`its_select_mask`, :func:`gumbel_select_mask`) and EXTRACT reads
the selected entries through the mask readers :func:`mask_row_counts`,
:func:`selected_row_cols` and :func:`sampled_rows_from_mask`.
:func:`its_sample_rows` and :func:`gumbel_topk_rows` keep their own CSR
build and serve as the reference the mask path is tested against.
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix

__all__ = [
    "its_sample_rows",
    "its_select_mask",
    "gumbel_topk_rows",
    "gumbel_select_mask",
    "its_flops",
    "mask_row_counts",
    "selected_row_cols",
    "sampled_rows_from_mask",
]

_MAX_ROUNDS = 256  # termination backstop; each round makes progress


def its_select_mask(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
    *,
    replace: bool = False,
) -> np.ndarray:
    """ITS selection as a boolean mask over ``p``'s stored nonzeros.

    Draws exactly the same uniforms in the same order as
    :func:`its_sample_rows` (which is this function plus a CSR build), so
    the two are interchangeable under a fixed seed.  The mask form is what
    the executors' EXTRACT steps read — the selected entries come straight
    out of ``p`` without materializing the intermediate ``Q^{l-1}`` CSR.

    An empty ``p`` consumes no randomness and returns an empty mask.
    """
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    if np.any(p.data < 0):
        raise ValueError("P must be non-negative to be sampled")
    n_rows = p.shape[0]
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)

    row_ids = p.row_ids()
    selected = np.zeros(p.nnz, dtype=bool)
    # Target distinct picks per row: min(s, positive nonzeros in the row).
    positive = p.data > 0
    pos_per_row = np.bincount(row_ids[positive], minlength=n_rows)
    target = np.minimum(s, pos_per_row)

    have = np.zeros(n_rows, dtype=np.int64)
    for _ in range(1 if replace else _MAX_ROUNDS):
        need = target - have
        todo = np.flatnonzero(need > 0)
        if todo.size == 0:
            break
        # Mass of the not-yet-selected entries, cumulated globally; row
        # boundaries are recovered through indptr so one cumsum serves all rows.
        live = np.where(selected, 0.0, p.data)
        cums = np.cumsum(live)
        row_end = p.indptr[1:]
        row_start = p.indptr[:-1]
        base = np.where(row_start > 0, cums[row_start - 1], 0.0)
        mass = np.where(row_end > row_start, cums[row_end - 1], 0.0) - base

        counts = need[todo] if not replace else np.full(todo.size, s)
        draw_rows = np.repeat(todo, counts)
        u = rng.random(draw_rows.size)
        targets = base[draw_rows] + u * mass[draw_rows]
        picks = np.searchsorted(cums, targets, side="left")
        # Guard against floating-point landing exactly on a row boundary.
        picks = np.minimum(picks, p.indptr[draw_rows + 1] - 1)
        picks = np.maximum(picks, p.indptr[draw_rows])
        selected[picks] = True
        have = np.bincount(row_ids[selected], minlength=n_rows)
        if replace:
            break
    else:
        raise RuntimeError("ITS failed to converge; is P malformed?")

    return selected


def _mask_to_csr(p: CSRMatrix, selected: np.ndarray) -> CSRMatrix:
    """Materialize a selection mask as the binary sampled ``Q^{l-1}``."""
    if selected.size == 0:
        return CSRMatrix.zeros(p.shape)
    out_rows = p.row_ids()[selected]
    indptr = np.zeros(p.shape[0] + 1, dtype=np.int64)
    np.add.at(indptr, out_rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    # Column order within a row follows the original CSR order (sorted).
    return CSRMatrix(
        indptr,
        p.indices[selected],
        np.ones(int(selected.sum())),
        p.shape,
    )


def its_sample_rows(
    p: CSRMatrix,
    s: int,
    rng: np.random.Generator,
    *,
    replace: bool = False,
) -> CSRMatrix:
    """SAMPLE(P, s): draw ``min(s, nnz(row))`` distinct columns per row.

    Returns a binary CSR matrix of the same shape as ``p`` with the selected
    columns set to 1.  With ``replace=True`` a single round of draws is made
    (duplicates collapse, so rows may carry fewer than ``s`` ones — the
    with-replacement semantics of e.g. DGL's default neighbor sampler).

    Rows whose values sum to zero (including empty rows) yield no samples.
    """
    return _mask_to_csr(p, its_select_mask(p, s, rng, replace=replace))


def gumbel_select_mask(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> np.ndarray:
    """Gumbel top-k selection as a boolean mask over ``p``'s nonzeros.

    Same draws in the same order as :func:`gumbel_topk_rows`; see
    :func:`its_select_mask` for the mask contract.
    """
    if s <= 0:
        raise ValueError(f"sample count s must be positive, got {s}")
    if np.any(p.data < 0):
        raise ValueError("P must be non-negative to be sampled")
    if p.nnz == 0:
        return np.zeros(0, dtype=bool)
    row_ids = p.row_ids()
    with np.errstate(divide="ignore"):
        keys = np.log(p.data) + rng.gumbel(size=p.nnz)
    keys[p.data == 0] = -np.inf
    # Rank entries within each row by descending key: sort by (row, -key).
    order = np.lexsort((-keys, row_ids))
    ranks = np.empty(p.nnz, dtype=np.int64)
    starts = p.indptr[:-1]
    pos = np.arange(p.nnz, dtype=np.int64)
    ranks[order] = pos - np.repeat(starts, np.diff(p.indptr))
    return (ranks < s) & (p.data > 0)


def gumbel_topk_rows(
    p: CSRMatrix, s: int, rng: np.random.Generator
) -> CSRMatrix:
    """Weighted sampling without replacement via the Gumbel top-k trick.

    Draws the same distribution as sequential ITS without replacement, in a
    single vectorized pass: each nonzero gets the key ``log(w) + Gumbel``;
    the ``s`` largest keys per row win.
    """
    return _mask_to_csr(p, gumbel_select_mask(p, s, rng))


def mask_row_counts(p: CSRMatrix, sel: np.ndarray) -> np.ndarray:
    """Selected entries per row of ``p`` (== ``q_next.nnz_per_row()``)."""
    if sel.size == 0:
        return np.zeros(p.shape[0], dtype=np.int64)
    return np.bincount(p.row_ids()[sel], minlength=p.shape[0])


def selected_row_cols(p: CSRMatrix, sel: np.ndarray, i: int) -> np.ndarray:
    """Selected columns of row ``i`` (== ``q_next.row(i)[0]``)."""
    lo, hi = int(p.indptr[i]), int(p.indptr[i + 1])
    return p.indices[lo:hi][sel[lo:hi]]


def sampled_rows_from_mask(
    p: CSRMatrix, sel: np.ndarray, lo: int, hi: int
) -> CSRMatrix:
    """Rows ``[lo, hi)`` of the sampled ``Q^{l-1}`` (binary, ``p``'s
    column order) built from the selection mask over ``p``'s nonzeros."""
    a, b = int(p.indptr[lo]), int(p.indptr[hi])
    block_sel = sel[a:b]
    cols = p.indices[a:b][block_sel]
    local_rows = np.repeat(
        np.arange(hi - lo, dtype=np.int64), np.diff(p.indptr[lo : hi + 1])
    )[block_sel]
    indptr = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(np.bincount(local_rows, minlength=hi - lo), out=indptr[1:])
    return CSRMatrix(
        indptr, cols, np.ones(cols.size, dtype=np.float64),
        (hi - lo, p.shape[1]),
    )


def its_flops(p: CSRMatrix, s: int) -> int:
    """Operation count of ITS on ``p``: prefix sum + s binary searches/row.

    The paper argues (section 2.3) the prefix sum is a negligible cost; this
    estimate feeds the simulated compute model so that claim is measurable.
    """
    searches = p.shape[0] * s * max(1, int(np.log2(max(2, p.nnz))))
    return int(p.nnz + searches)
