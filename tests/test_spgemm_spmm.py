"""SpGEMM and SpMM kernels vs the scipy oracle, plus flop accounting.

The SpMM kernel must also match the plain ``np.add.reduceat`` formulation
byte for byte (:func:`reduceat_oracle`): every pinned digest depends on its
summation order, so a numpy release that changes its reduction order shows
up here, named, rather than as a drifted serve digest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    CSRMatrix,
    required_rows,
    spgemm,
    spgemm_flops,
    sprand,
    spmm,
    spmm_flops,
)


class TestSpGEMM:
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.5])
    def test_matches_scipy(self, density, rng):
        a = sprand(40, 30, density, rng)
        b = sprand(30, 50, density, rng)
        ref = (a.to_scipy() @ b.to_scipy()).toarray()
        out = spgemm(a, b)
        assert np.allclose(out.to_dense(), ref)
        out.check()

    def test_identity_is_neutral(self, rng):
        a = sprand(12, 12, 0.3, rng)
        eye = CSRMatrix.identity(12)
        assert spgemm(a, eye).equal(a)
        assert spgemm(eye, a).equal(a)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            spgemm(sprand(3, 4, 0.5, rng), sprand(5, 3, 0.5, rng))

    def test_empty_operands(self, rng):
        a = CSRMatrix.zeros((4, 5))
        b = sprand(5, 6, 0.5, rng)
        assert spgemm(a, b).nnz == 0
        assert spgemm(a, b).shape == (4, 6)

    def test_associativity(self, rng):
        a = sprand(8, 9, 0.3, rng)
        b = sprand(9, 7, 0.3, rng)
        c = sprand(7, 6, 0.3, rng)
        left = spgemm(spgemm(a, b), c)
        right = spgemm(a, spgemm(b, c))
        assert np.allclose(left.to_dense(), right.to_dense(), atol=1e-10)

    def test_binary_selector_gathers_rows(self, rng):
        a = sprand(10, 10, 0.4, rng)
        sel = CSRMatrix.from_coo([0, 1, 2], [7, 2, 7], None, (3, 10))
        out = spgemm(sel, a)
        assert np.allclose(out.to_dense(), a.to_dense()[[7, 2, 7]])

    def test_flops_equal_expansion_size(self, rng):
        a = sprand(10, 12, 0.3, rng)
        b = sprand(12, 9, 0.3, rng)
        expected = int(b.nnz_per_row()[a.indices].sum())
        assert spgemm_flops(a, b) == expected

    def test_flops_zero_for_empty(self, rng):
        assert spgemm_flops(CSRMatrix.zeros((3, 3)), sprand(3, 3, 0.5, rng)) == 0

    def test_flops_dimension_check(self, rng):
        with pytest.raises(ValueError):
            spgemm_flops(sprand(3, 4, 0.5, rng), sprand(3, 4, 0.5, rng))

    def test_required_rows(self):
        a = CSRMatrix.from_coo([0, 1, 1], [3, 3, 8], None, (2, 10))
        assert np.array_equal(required_rows(a, 10), [3, 8])
        with pytest.raises(ValueError):
            required_rows(a, 5)

    def test_cancellation_prunes_cleanly(self):
        # +1 and -1 hitting the same output cell must sum to zero.
        a = CSRMatrix.from_coo([0, 0], [0, 1], [1.0, -1.0], (1, 2))
        b = CSRMatrix.from_coo([0, 1], [0, 0], [1.0, 1.0], (2, 1))
        out = spgemm(a, b).prune_zeros()
        assert out.nnz == 0


class TestSpMM:
    def test_matches_dense(self, rng):
        a = sprand(20, 15, 0.2, rng)
        x = rng.random((15, 7))
        assert np.allclose(spmm(a, x), a.to_dense() @ x)

    def test_vector_operand(self, rng):
        a = sprand(10, 10, 0.3, rng)
        v = rng.random(10)
        out = spmm(a, v)
        assert out.shape == (10,)
        assert np.allclose(out, a.to_dense() @ v)

    def test_empty_rows_are_zero(self):
        a = CSRMatrix.from_coo([0], [2], [2.0], (3, 3))
        x = np.ones((3, 2))
        out = spmm(a, x)
        assert np.allclose(out[1], 0) and np.allclose(out[2], 0)
        assert np.allclose(out[0], 2)

    def test_empty_matrix(self):
        out = spmm(CSRMatrix.zeros((4, 3)), np.ones((3, 2)))
        assert out.shape == (4, 2) and np.allclose(out, 0)

    def test_trailing_empty_rows(self, rng):
        # Regression guard: reduceat indexing at nnz boundary.
        a = CSRMatrix.from_coo([0], [0], [1.0], (5, 3))
        out = spmm(a, rng.random((3, 2)))
        assert np.allclose(out[1:], 0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            spmm(sprand(3, 4, 0.5, rng), np.ones((5, 2)))

    @pytest.mark.parametrize("col", [-1, 3])
    def test_rejects_out_of_range_column(self, col):
        a = CSRMatrix(np.array([0, 1]), np.array([col]), np.ones(1), (1, 3))
        with pytest.raises(IndexError):
            spmm(a, np.ones((3, 2)))

    def test_rejects_3d_operand(self, rng):
        with pytest.raises(ValueError):
            spmm(sprand(3, 3, 0.5, rng), np.ones((3, 2, 2)))

    def test_flops(self, rng):
        a = sprand(6, 6, 0.5, rng)
        assert spmm_flops(a, 10) == 2 * a.nnz * 10


def reduceat_oracle(a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """The segmented-reduction SpMM whose bits ``spmm`` reproduces."""
    dense = np.asarray(dense, dtype=np.float64)
    squeeze = dense.ndim == 1
    if squeeze:
        dense = dense[:, None]
    if dense.ndim != 2:
        raise ValueError(f"dense operand must be 1-D or 2-D, got {dense.ndim}-D")
    if a.shape[1] != dense.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {dense.shape}")
    out = np.zeros((a.shape[0], dense.shape[1]), dtype=np.float64)
    if a.nnz:
        contrib = a.data[:, None] * dense[a.indices]
        # CSR entries are already grouped by row, so a segmented reduction
        # over non-empty rows is exact (and far faster than scatter-add).
        nonempty = np.flatnonzero(np.diff(a.indptr) > 0)
        out[nonempty] = np.add.reduceat(contrib, a.indptr[nonempty], axis=0)
    return out[:, 0] if squeeze else out


#: Row degrees around every boundary of numpy's pairwise summation: the
#: sequential tail (< 8 terms after the head), one and several blocks of
#: eight lanes with and without leftovers, and the recursive split above
#: a 128-term tail.
SPMM_DEGREES = (0, 1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 130, 300)
SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _rows_of_degrees(degrees, n_cols, rng) -> CSRMatrix:
    """A CSR matrix whose rows have exactly ``degrees`` nonzeros, with
    values spread over many magnitudes so summation order shows."""
    cols = [np.sort(rng.choice(n_cols, d, replace=False)) for d in degrees]
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = np.concatenate([np.zeros(0, np.int64), *cols])
    data = rng.standard_normal(indices.size) * 10.0 ** rng.integers(
        -6, 7, indices.size
    )
    a = CSRMatrix(indptr, indices, data, (len(degrees), n_cols))
    a.check()
    return a


def _operand(n_rows, n_features, special, rng) -> np.ndarray:
    x = rng.standard_normal((n_rows, n_features)) * 10.0 ** rng.integers(
        -6, 7, (n_rows, n_features)
    )
    if special and x.size:
        hits = rng.integers(0, x.size, max(1, x.size // 10))
        x.flat[hits] = rng.choice(SPECIAL_VALUES, hits.size)
    return x


def _canonical_nans(out: np.ndarray) -> np.ndarray:
    """``out`` with every NaN replaced by one canonical NaN.

    Which operand's NaN an addition propagates (and so the NaN's sign bit)
    is not fixed even within numpy: its compiled loops pick a different
    operand in the SIMD body, the scalar remainder and the pairwise
    reduction.  NaN positions must match exactly; NaN payloads are not
    part of the contract.  Every other bit, signed zeros and infinities
    included, is.
    """
    return np.where(np.isnan(out), np.nan, out)


def assert_matches_oracle(a: CSRMatrix, x: np.ndarray) -> None:
    with np.errstate(invalid="ignore"):  # inf - inf in the special cases
        got, want = spmm(a, x), reduceat_oracle(a, x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert _canonical_nans(got).tobytes() == _canonical_nans(want).tobytes()


class TestSpMMOracle:
    """``spmm`` is bit-identical to the ``reduceat`` oracle."""

    @pytest.mark.parametrize("degree", SPMM_DEGREES)
    @pytest.mark.parametrize("special", [False, True])
    def test_every_row_of_one_degree(self, degree, special):
        rng = np.random.default_rng(degree)
        a = _rows_of_degrees([degree] * 9, 320, rng)
        assert_matches_oracle(a, _operand(320, 16, special, rng))

    @given(
        degrees=st.lists(st.sampled_from(SPMM_DEGREES), min_size=1, max_size=12),
        n_features=st.sampled_from([0, 1, 3, 16]),
        vector=st.booleans(),
        special=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixed_degrees(self, degrees, n_features, vector, special, seed):
        rng = np.random.default_rng(seed)
        n_cols = 320
        a = _rows_of_degrees(degrees, n_cols, rng)
        x = _operand(n_cols, n_features, special, rng)
        if vector:
            x = _operand(n_cols, 1, special, rng)[:, 0]
        assert_matches_oracle(a, x)

    def test_signed_zero_rows(self):
        # All-(-0.0) products: the tail's -0.0 start must not turn a
        # negative-zero row positive, at every summation regime.
        degrees = list(SPMM_DEGREES)
        rng = np.random.default_rng(0)
        a = _rows_of_degrees(degrees, 320, rng)
        a.data[:] = np.abs(a.data)
        for fill in (-0.0, 0.0):
            assert_matches_oracle(a, np.full((320, 3), fill))
        out = spmm(a, np.full((320, 3), -0.0))
        assert np.all(np.signbit(out[1:]))

    def test_all_empty_matrix(self):
        for shape in [(5, 7), (0, 7), (5, 0)]:
            a = CSRMatrix.zeros(shape)
            for x in (np.ones((shape[1], 4)), np.ones(shape[1])):
                assert_matches_oracle(a, x)

    def test_zero_column_operand(self):
        a = _rows_of_degrees([3, 0, 9, 130], 320, np.random.default_rng(1))
        out = spmm(a, np.ones((320, 0)))
        assert out.shape == (4, 0)
        assert_matches_oracle(a, np.ones((320, 0)))
