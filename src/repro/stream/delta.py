"""Delta-CSR: a mutable overlay absorbing edge churn over a frozen CSR.

Everything upstream of this module — the samplers, the plan executors, the
feature and embedding caches — consumes a *frozen* :class:`~repro.sparse.CSRMatrix`.
Production graphs mutate under traffic, so :class:`DeltaCSR` gives them a
frozen view of a moving target: edge insertions and deletions accumulate in
a per-row delta log, :meth:`view` splices the rows changed since the
*previous* view into that view (each such row is re-merged from its base row
and its own log entries; every other row is block-copied), so a refresh
costs O(rows changed since the last view), not O(rows dirty since the last
compaction).  Once the log crosses ``compaction_threshold`` of the base size
the overlay *compacts* into a fresh frozen CSR.

Two invariants make the overlay safe to put under the sampling stack:

* **Canonical views.**  Every :meth:`view` satisfies the full CSR contract
  (sorted, duplicate-free columns — ``CSRMatrix.check``), so a view is
  indistinguishable from a from-scratch build of the same edge set and
  sampling from it is bit-identical.
* **Compaction parity.**  Every :meth:`compact` re-derives the matrix
  through the independent :meth:`CSRMatrix.from_coo` path (a global
  lexsort, no splicing) and asserts the incremental merge produced the
  exact same ``indptr``/``indices``/``data`` arrays before promoting it to
  the new base.

The delta log stores *final* per-edge outcomes (an insert overwrites a
pending insert; a delete cancels one), so the log is bounded by the number
of distinct touched edges, not the number of operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..sparse import CSRMatrix

__all__ = ["EdgeBatch", "UpdateResult", "DeltaCSR"]


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge mutations arriving at simulated time ``at``.

    ``op`` is ``"insert"`` or ``"delete"``; ``src``/``dst`` are equal-length
    integer vertex arrays (edge ``src[i] -> dst[i]``), ``vals`` optional
    finite insert weights (default 1.0, ignored for deletes) and ``at`` a
    finite, non-negative arrival time.
    """

    src: np.ndarray
    dst: np.ndarray
    op: str = "insert"
    vals: np.ndarray | None = None
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("insert", "delete"):
            raise ValueError(f"unknown edge op {self.op!r}; use insert or delete")
        src = _vertex_ids("src", self.src)
        dst = _vertex_ids("dst", self.dst)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be equal-length 1-D arrays")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if self.vals is not None:
            vals = np.asarray(self.vals, dtype=np.float64)
            if vals.shape != src.shape:
                raise ValueError("vals must align with src/dst")
            bad = ~np.isfinite(vals)
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValueError(
                    f"edge weights must be finite, got vals[{i}] = {vals[i]}"
                )
            object.__setattr__(self, "vals", vals)
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(
                f"arrival time must be finite and non-negative, got {self.at}"
            )

    @property
    def n_edges(self) -> int:
        return int(self.src.size)


def _vertex_ids(name: str, values) -> np.ndarray:
    """``values`` as int64 vertex ids; non-integral entries are rejected
    rather than truncated (``0.5`` must not silently become vertex 0)."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    as_float = arr.astype(np.float64)
    bad = ~(np.isfinite(as_float) & (as_float == np.round(as_float)))
    if bad.any():
        i = int(np.flatnonzero(bad.ravel())[0])
        raise ValueError(
            f"edge {name} must hold integer vertex ids, got "
            f"{name}[{i}] = {as_float.ravel()[i]}"
        )
    return as_float.astype(np.int64)


@dataclass
class UpdateResult:
    """What applying one :class:`EdgeBatch` did to the overlay."""

    dirty_rows: np.ndarray  # rows whose adjacency actually changed
    applied: int = 0  # edge ops that changed the edge set
    skipped: int = 0  # no-ops (duplicate inserts / missing deletes)
    compacted: bool = False
    pending: int = 0  # delta-log size after the batch
    sim_cost: dict[str, float] = field(default_factory=dict)


class DeltaCSR:
    """A frozen-CSR view over a sorted per-row delta log.

    ``compaction_threshold`` is the delta-log size (as a fraction of the
    base nnz, minimum one edge) at which :meth:`maybe_compact` folds the
    log into a fresh base; reaching the threshold *exactly* compacts.
    """

    def __init__(
        self, base: CSRMatrix, *, compaction_threshold: float = 0.25
    ) -> None:
        if base.shape[0] != base.shape[1]:
            raise ValueError(f"adjacency must be square, got {base.shape}")
        if compaction_threshold <= 0:
            raise ValueError("compaction_threshold must be positive")
        self.base = base
        self.compaction_threshold = float(compaction_threshold)
        # Final outcome per touched edge, by row then column: the value
        # (insert) or None (delete).  A row's map never holds an entry that
        # restores the base, and an emptied map is dropped.
        self._log: dict[int, dict[int, float | None]] = {}
        self._pending = 0  # entries in the log, kept by apply()/compact()
        # Rows dirty since the last compaction (the simulated re-merge
        # charge) and rows changed since the previous view (the host work
        # of the next refresh).
        self._dirty_rows: set[int] = set()
        self._changed_rows: set[int] = set()
        self._view: CSRMatrix = base
        self.compactions = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def pending(self) -> int:
        """Distinct edges with an outstanding (un-compacted) mutation."""
        return self._pending

    @property
    def compaction_limit(self) -> int:
        """Delta-log size that triggers :meth:`maybe_compact`."""
        return max(1, int(np.ceil(self.compaction_threshold * self.base.nnz)))

    @property
    def dirty_row_ids(self) -> np.ndarray:
        """Sorted rows changed since the last compaction — the rows a
        from-base re-merge would rewrite, which the simulated update cost
        charges.  :meth:`view` itself re-merges only the rows changed since
        the previous view."""
        return np.array(sorted(self._dirty_rows), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def apply(self, batch: EdgeBatch, *, strict: bool = False) -> UpdateResult:
        """Absorb one edge batch into the delta log.

        Inserting an edge that already exists with the same value, or
        deleting an edge that does not exist, is a *no-op*: it neither
        dirties the row nor grows the log.  With ``strict=True`` a missing
        delete raises instead (an actionable error naming the edge).
        Within one batch, later ops win (insert-then-delete deletes).
        """
        n = self.n
        if batch.n_edges and (
            batch.src.min() < 0 or batch.src.max() >= n
            or batch.dst.min() < 0 or batch.dst.max() >= n
        ):
            raise ValueError(
                f"edge endpoint out of range [0, {n}); streaming updates "
                f"mutate edges only — the vertex set is fixed at build time"
            )
        inserting = batch.op == "insert"
        vals = (
            batch.vals
            if batch.vals is not None
            else np.ones(batch.n_edges, dtype=np.float64)
        )
        dirty: set[int] = set()
        applied = skipped = 0
        for i in range(batch.n_edges):
            u, v = int(batch.src[i]), int(batch.dst[i])
            if inserting:
                val = float(vals[i])
                if self._edge_value(u, v) == val:
                    skipped += 1  # duplicate insert: already present as-is
                    continue
                new_op = val
            else:
                if self._edge_value(u, v) is None:
                    if strict:
                        raise ValueError(
                            f"cannot delete edge {u} -> {v}: not present in "
                            f"the current graph (pass strict=False to skip "
                            f"missing deletes)"
                        )
                    skipped += 1
                    continue
                new_op = None
            # Record the final outcome; an op that restores the base value
            # cancels the row's log entry (which must exist, since the
            # current value differs from the new one).
            row = self._log.setdefault(u, {})
            if new_op == self._base_value(u, v):
                del row[v]
                self._pending -= 1
                if not row:
                    del self._log[u]
            else:
                self._pending += v not in row
                row[v] = new_op
            dirty.add(u)
            applied += 1
        self._dirty_rows.update(dirty)
        self._changed_rows.update(dirty)  # stale: next view() re-splices
        return UpdateResult(
            dirty_rows=np.array(sorted(dirty), dtype=np.int64),
            applied=applied,
            skipped=skipped,
            pending=self.pending,
        )

    def insert_edges(
        self, src, dst, vals: np.ndarray | None = None
    ) -> UpdateResult:
        """Convenience wrapper: apply one insert batch."""
        return self.apply(EdgeBatch(np.asarray(src), np.asarray(dst), "insert", vals))

    def delete_edges(self, src, dst, *, strict: bool = False) -> UpdateResult:
        """Convenience wrapper: apply one delete batch."""
        return self.apply(
            EdgeBatch(np.asarray(src), np.asarray(dst), "delete"), strict=strict
        )

    def _base_value(self, u: int, v: int) -> float | None:
        cols, data = self.base.row(u)
        i = int(np.searchsorted(cols, v))
        if i < cols.size and cols[i] == v:
            return float(data[i])
        return None

    def _edge_value(self, u: int, v: int) -> float | None:
        """Edge value in the *current* (base + log) graph; None if absent."""
        row = self._log.get(u)
        if row is not None and v in row:
            return row[v]
        return self._base_value(u, v)

    # ------------------------------------------------------------------ #
    # The frozen view
    # ------------------------------------------------------------------ #
    def view(self) -> CSRMatrix:
        """The current graph as a canonical frozen CSR.

        Cached between mutations.  A refresh splices the rows changed since
        the *previous* view into that view: each changed row is re-merged
        (its base row minus deletes/overwrites, plus inserts, column-sorted)
        from its own log entries, and the clean segments between changed
        rows are copied from the previous view en bloc.  The previous view
        is never written, so callers holding it keep a valid matrix.
        """
        if not self._changed_rows:
            return self._view
        prev = self._view
        changed = sorted(self._changed_rows)
        merged = [self._merge_row(r) for r in changed]
        counts = prev.nnz_per_row()
        counts[changed] = [cols.size for cols, _ in merged]
        indptr = np.zeros(prev.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(int(indptr[-1]), dtype=np.float64)
        start = 0
        for r, (cols, vals) in zip(changed, merged):
            self._copy_clean(prev, indptr, indices, data, start, r)
            lo = indptr[r]
            indices[lo : lo + cols.size] = cols
            data[lo : lo + cols.size] = vals
            start = r + 1
        self._copy_clean(prev, indptr, indices, data, start, prev.shape[0])
        self._view = CSRMatrix(indptr, indices, data, prev.shape)
        self._changed_rows.clear()
        return self._view

    @staticmethod
    def _copy_clean(
        src: CSRMatrix,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        start: int,
        stop: int,
    ) -> None:
        """Copy rows ``[start, stop)`` of ``src`` to where ``indptr`` puts
        them (their lengths are unchanged, so it is one slice move)."""
        if start >= stop:
            return
        src_lo, src_hi = src.indptr[start], src.indptr[stop]
        dst_lo = indptr[start]
        span = src_hi - src_lo
        indices[dst_lo : dst_lo + span] = src.indices[src_lo:src_hi]
        data[dst_lo : dst_lo + span] = src.data[src_lo:src_hi]

    def _merge_row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``r`` of base merged with its pending ops, column-sorted."""
        cols, vals = self.base.row(r)
        ops = self._log.get(r)
        if not ops:
            return cols, vals
        touched = np.fromiter(ops, dtype=np.int64, count=len(ops))
        keep = ~np.isin(cols, touched)
        ins = [(v, op) for v, op in ops.items() if op is not None]
        out_cols = np.concatenate(
            [cols[keep], np.array([v for v, _ in ins], dtype=np.int64)]
        )
        out_vals = np.concatenate(
            [vals[keep], np.array([op for _, op in ins], dtype=np.float64)]
        )
        order = np.argsort(out_cols, kind="stable")
        return out_cols[order], out_vals[order]

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self) -> CSRMatrix:
        """Fold the delta log into a fresh frozen base CSR.

        Parity with a from-scratch rebuild is asserted on every call: the
        incremental splice (:meth:`view`) must equal the matrix built by
        filtering the base COO through the log and re-canonicalizing with
        :meth:`CSRMatrix.from_coo` — array-for-array, not just numerically.
        """
        spliced = self.view()
        rebuilt = self._rebuild_from_scratch()
        if not (
            np.array_equal(spliced.indptr, rebuilt.indptr)
            and np.array_equal(spliced.indices, rebuilt.indices)
            and np.array_equal(spliced.data, rebuilt.data)
        ):
            raise AssertionError(
                "delta-CSR compaction parity violated: incremental merge "
                "differs from the from-scratch rebuild of the same edge set"
            )
        spliced.check()
        self.base = spliced
        self._log.clear()
        self._pending = 0
        self._dirty_rows.clear()
        self.compactions += 1
        return spliced

    def maybe_compact(self) -> bool:
        """Compact iff the log has reached :attr:`compaction_limit`."""
        if self.pending >= self.compaction_limit:
            self.compact()
            return True
        return False

    def _rebuild_from_scratch(self) -> CSRMatrix:
        """The current edge set built through the independent COO path."""
        rows, cols, vals = self.base.to_coo()
        ops = [(u, v, op) for u, row in self._log.items() for v, op in row.items()]
        if ops:
            width = self.base.shape[1]
            op_keys = np.array([u * width + v for u, v, _ in ops], dtype=np.int64)
            keep = ~np.isin(rows * width + cols, op_keys)
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            ins = [(u, v, op) for u, v, op in ops if op is not None]
            if ins:
                rows = np.concatenate(
                    [rows, np.array([u for u, _, _ in ins], dtype=np.int64)]
                )
                cols = np.concatenate(
                    [cols, np.array([v for _, v, _ in ins], dtype=np.int64)]
                )
                vals = np.concatenate(
                    [vals, np.array([op for _, _, op in ins], dtype=np.float64)]
                )
        return CSRMatrix.from_coo(
            rows, cols, vals, self.base.shape, sum_duplicates=False
        )

    def __repr__(self) -> str:
        return (
            f"DeltaCSR(shape={self.shape}, base_nnz={self.base.nnz}, "
            f"pending={self.pending}, compactions={self.compactions})"
        )
