"""Sparse-times-dense multiplication (SpMM), SDDMM, and flop accounting.

Forward propagation of a sampled minibatch is an SpMM between the sampled
adjacency matrix and the fetched feature matrix (paper section 6.2); the
backward pass reuses the same kernel with the transposed adjacency.
:func:`sddmm` is the companion sampled dense-dense product (per-edge score
computation, e.g. attention logits) restricted to a sparse pattern.

Summation order
---------------
Every pinned digest of the reproduction (golden sampler digests, the serve
and stream logits digests, training losses) depends on the exact bits
:func:`spmm` returns, so its summation order is a contract, not an
implementation detail.  The order is the one ``np.add.reduceat`` produces
over each row's products ``c_k = data[k] * dense[indices[k]]``: for a row
with terms ``c_0 … c_{d-1}`` the result is ``c_0 + P(c_1 … c_{d-1})``,
where ``P`` is numpy's pairwise summation of the ``n = d - 1`` tail terms:

* ``n < 8`` — added one by one, starting from ``-0.0``;
* ``8 <= n <= 128`` — eight lane accumulators seeded with the first eight
  terms, every later full block of eight added lane-wise, the lanes
  combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the ``n % 8``
  leftover terms added one by one;
* ``n > 128`` — numpy splits the tail recursively; such rows are handed to
  ``np.add.reduceat`` itself, which is exact by definition.

The kernel vectorises that order across rows rather than running the
reduction per (row, column): rows are sorted by how many terms they still
have to add, so the rows active at each step form a prefix and each step
is one gather-multiply-add over that prefix.  The Python loop count is
bounded by the maximum row degree and no ``nnz x f`` temporary is built.
``tests/test_spgemm_spmm.py`` checks the result byte for byte against the
plain ``reduceat`` formulation.  The one exception is a NaN's sign and
payload: which operand's NaN an addition propagates is not fixed even
inside numpy, whose SIMD, scalar and pairwise loops differ on it.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, _ranges

__all__ = ["spmm", "sddmm", "spmm_flops", "dense_operand"]


#: numpy's pairwise summation: accumulator lanes, and the tail length
#: above which it recurses (``PW_BLOCKSIZE``).
_LANES = 8
_PW_BLOCK = 128


def dense_operand(a: CSRMatrix, dense: np.ndarray) -> tuple[np.ndarray, bool]:
    """Validate the dense right operand of ``a @ dense``.

    Returns the operand as a 2-D float64 array, and whether it was 1-D (the
    caller squeezes its result back to 1-D).
    """
    dense = np.asarray(dense, dtype=np.float64)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    if a.shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {dense.shape}")
    return dense, squeeze


def spmm(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Compute ``a @ dense`` where ``dense`` is a 2-D (or 1-D) array.

    Bit-identical to ``np.add.reduceat`` over each row's products (see the
    module docstring for the order).
    """
    dense, squeeze = dense_operand(a, dense)
    if a.nnz and not 0 <= a.indices.min() <= a.indices.max() < a.shape[1]:
        raise IndexError(f"column index out of range for a {a.shape} matrix")
    out = np.zeros((a.shape[0], dense.shape[1]), dtype=np.float64)
    tail = np.diff(a.indptr) - 1  # terms after the head; -1 for empty rows
    rows = np.flatnonzero((tail >= 0) & (tail <= _PW_BLOCK))
    if rows.size:
        _pairwise_rows(a, dense, rows, tail[rows], out)
    rows = np.flatnonzero(tail > _PW_BLOCK)
    if rows.size:
        _reduceat_rows(a, dense, rows, tail[rows] + 1, out)
    return out[:, 0] if squeeze else out


def _terms(
    a: CSRMatrix,
    dense: np.ndarray,
    pos: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The products ``data[k] * dense[indices[k]]`` for positions ``pos``,
    written into ``out`` (a fresh array when None)."""
    if out is None:
        out = np.empty((pos.size, dense.shape[1]), dtype=np.float64)
    # mode="clip" lets take write straight into ``out`` (the default mode
    # buffers); spmm has checked every column index is in range.
    np.take(dense, a.indices[pos], axis=0, out=out, mode="clip")
    return np.multiply(a.data[pos, None], out, out=out)


def _active(steps: np.ndarray) -> list[int]:
    """For per-row step counts sorted in descending order, how many rows
    are still active at each step ``t`` (those with ``steps > t``)."""
    if not steps.size:
        return []
    return np.searchsorted(-steps, -np.arange(steps[0]), side="left").tolist()


def _pairwise_rows(
    a: CSRMatrix, dense: np.ndarray, rows: np.ndarray, n: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out[r] = c_0 + P(c_1 … c_n)`` for rows whose tail ``n`` is at most
    :data:`_PW_BLOCK`, vectorised across rows."""
    blocks = n // _LANES
    laned = blocks > 0
    # After its seed (c_1, or the combined lanes) a row adds ``steps``
    # terms one by one.  Sorting by steps makes every step's rows a
    # prefix; single-term rows, which add no tail at all, go last.
    steps = np.where(laned, n % _LANES, np.maximum(n - 1, 0))
    order = np.argsort(-(2 * steps + (n > 0)), kind="stable")
    rows, blocks, laned = rows[order], blocks[order], laned[order]
    steps = steps[order]
    head = a.indptr[rows]
    k = np.count_nonzero(n)
    buf = np.empty((rows.size, dense.shape[1]), dtype=np.float64)
    # -0.0 + c_1 == c_1 bit for bit, so c_1 seeds the rows summed one by
    # one; laned rows overwrite their seed with the combined lanes.
    acc = _terms(a, dense, head[:k] + 1)
    lane_rows = np.flatnonzero(laned)
    if lane_rows.size:
        lane_rows = lane_rows[np.argsort(-blocks[lane_rows], kind="stable")]
        acc[lane_rows] = _lane_sum(
            a, dense, head[lane_rows] + 1, blocks[lane_rows], buf
        )
    first = head + np.where(laned, 1 + _LANES * blocks, 2)
    for t, count in enumerate(_active(steps)):
        acc[:count] += _terms(a, dense, first[:count] + t, buf[:count])
    res = _terms(a, dense, head, buf)
    res[:k] += acc
    out[rows] = res


def _lane_sum(
    a: CSRMatrix, dense: np.ndarray, first: np.ndarray, blocks: np.ndarray,
    buf: np.ndarray,
) -> np.ndarray:
    """Combined eight-lane sums of ``blocks`` full blocks of eight terms
    starting at position ``first``, for rows sorted by ``blocks``
    descending."""
    active = _active(blocks)
    lanes = []
    for j in range(_LANES):
        acc = _terms(a, dense, first + j)
        for b, count in enumerate(active[1:], start=1):
            acc[:count] += _terms(
                a, dense, first[:count] + _LANES * b + j, buf[:count]
            )
        lanes.append(acc)
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    for width in (1, 2, 4):
        for j in range(0, _LANES, 2 * width):
            lanes[j] += lanes[j + width]
    return lanes[0]


def _reduceat_rows(
    a: CSRMatrix, dense: np.ndarray, rows: np.ndarray, lengths: np.ndarray,
    out: np.ndarray,
) -> None:
    """Rows longer than numpy's pairwise block, through ``np.add.reduceat``
    over just their products."""
    pos = _ranges(a.indptr[rows], lengths)
    out[rows] = np.add.reduceat(
        _terms(a, dense, pos), np.cumsum(lengths) - lengths, axis=0
    )


def sddmm(pattern: CSRMatrix, x: np.ndarray, y: np.ndarray) -> CSRMatrix:
    """Sampled dense-dense matmul: ``out[i, j] = pattern[i, j] * <x[i], y[j]>``
    for every stored ``(i, j)`` of ``pattern``.

    ``x`` is ``(m, f)`` and ``y`` is ``(n, f)`` for an ``(m, n)`` pattern —
    both operands row-major, as in per-edge attention scoring.  The output
    shares the pattern's structure exactly (explicit zeros included).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"operands must be 2-D with matching feature dims, got "
            f"{x.shape} and {y.shape}"
        )
    if x.shape[0] != pattern.shape[0] or y.shape[0] != pattern.shape[1]:
        raise ValueError(
            f"pattern {pattern.shape} needs x with {pattern.shape[0]} rows "
            f"and y with {pattern.shape[1]} rows, got {x.shape} and {y.shape}"
        )
    if pattern.nnz == 0:
        return pattern.copy()
    dots = np.einsum(
        "ij,ij->i", x[pattern.row_ids()], y[pattern.indices]
    )
    return CSRMatrix(
        pattern.indptr.copy(),
        pattern.indices.copy(),
        pattern.data * dots,
        pattern.shape,
    )


def spmm_flops(a: CSRMatrix, n_features: int) -> int:
    """Multiply-add count of an SpMM with ``n_features`` dense columns."""
    return 2 * a.nnz * int(n_features)
