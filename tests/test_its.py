"""Inverse transform sampling: correctness, statistics, edge cases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    SageSampler,
    batch_rng,
    gumbel_topk_rows,
    its_flops,
    its_sample_rows,
)
from repro.sparse import CSRMatrix, row_normalize, sprand, vstack


class TestBasics:
    def test_exact_counts_without_replacement(self, rng):
        p = row_normalize(sprand(50, 40, 0.3, rng))
        q = its_sample_rows(p, 5, rng)
        counts = q.nnz_per_row()
        avail = np.minimum(5, p.nnz_per_row())
        assert np.array_equal(counts, avail)
        q.check()

    def test_samples_are_support_subset(self, rng):
        p = row_normalize(sprand(30, 30, 0.2, rng))
        q = its_sample_rows(p, 4, rng)
        dense_p = p.to_dense()
        rows, cols, _ = q.to_coo()
        assert np.all(dense_p[rows, cols] > 0)

    def test_binary_values(self, rng):
        p = row_normalize(sprand(10, 10, 0.5, rng))
        q = its_sample_rows(p, 3, rng)
        assert np.all(q.data == 1.0)

    def test_row_short_of_s_takes_all(self, rng):
        p = CSRMatrix.from_dense([[0.2, 0.8, 0.0], [0.0, 0.0, 0.0]])
        q = its_sample_rows(p, 5, rng)
        assert q.nnz_per_row()[0] == 2
        assert q.nnz_per_row()[1] == 0

    def test_empty_matrix(self, rng):
        q = its_sample_rows(CSRMatrix.zeros((3, 4)), 2, rng)
        assert q.nnz == 0 and q.shape == (3, 4)

    def test_zero_weight_entries_never_selected(self, rng):
        p = CSRMatrix.from_coo([0, 0, 0], [0, 1, 2], [0.0, 1.0, 0.0], (1, 3))
        for _ in range(20):
            q = its_sample_rows(p, 1, rng)
            assert np.array_equal(q.row(0)[0], [1])

    def test_validation(self, rng):
        p = sprand(3, 3, 0.5, rng)
        with pytest.raises(ValueError):
            its_sample_rows(p, 0, rng)
        neg = CSRMatrix.from_dense([[-1.0]])
        with pytest.raises(ValueError):
            its_sample_rows(neg, 1, rng)

    def test_with_replacement_single_round(self, rng):
        p = row_normalize(sprand(20, 20, 0.4, rng))
        q = its_sample_rows(p, 3, rng, replace=True)
        # With replacement duplicates collapse: counts are at most s.
        assert np.all(q.nnz_per_row() <= 3)

    def test_flops_positive_and_monotone(self, rng):
        p = sprand(10, 10, 0.3, rng)
        assert its_flops(p, 2) > 0
        assert its_flops(p, 8) > its_flops(p, 2)


class TestStatistics:
    def test_uniform_row_frequencies(self):
        """Sampling 1 of n uniform entries must be ~uniform over trials."""
        rng = np.random.default_rng(0)
        n = 8
        p = CSRMatrix.from_dense(np.full((1, n), 1.0 / n))
        counts = np.zeros(n)
        trials = 4000
        for _ in range(trials):
            q = its_sample_rows(p, 1, rng)
            counts[q.row(0)[0][0]] += 1
        expected = trials / n
        # Chi-square-ish sanity: within 5 sigma of the binomial std.
        sigma = np.sqrt(trials * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_weighted_frequencies(self):
        """Draw frequencies must track the weights."""
        rng = np.random.default_rng(1)
        weights = np.array([[0.1, 0.2, 0.3, 0.4]])
        p = CSRMatrix.from_dense(weights)
        counts = np.zeros(4)
        trials = 6000
        for _ in range(trials):
            q = its_sample_rows(p, 1, rng)
            counts[q.row(0)[0][0]] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - weights[0]) < 0.03)

    def test_many_rows_single_pass_matches_marginals(self):
        """The vectorized multi-row path draws the same marginals."""
        rng = np.random.default_rng(2)
        trials = 3000
        w = np.array([0.5, 0.25, 0.25])
        p = CSRMatrix.from_dense(np.tile(w, (trials, 1)))
        q = its_sample_rows(p, 1, rng)
        freq = np.bincount(q.indices, minlength=3) / trials
        assert np.all(np.abs(freq - w) < 0.04)

    def test_gumbel_matches_its_marginals(self):
        """Gumbel top-k and ITS draw indistinguishable 1-of-n marginals."""
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(4)
        trials = 4000
        w = np.array([0.6, 0.3, 0.1])
        p = CSRMatrix.from_dense(np.tile(w, (trials, 1)))
        f_its = np.bincount(
            its_sample_rows(p, 1, rng1).indices, minlength=3
        ) / trials
        f_gum = np.bincount(
            gumbel_topk_rows(p, 1, rng2).indices, minlength=3
        ) / trials
        assert np.all(np.abs(f_its - f_gum) < 0.05)

    def test_without_replacement_distinctness(self, rng):
        p = row_normalize(sprand(100, 50, 0.4, rng))
        q = its_sample_rows(p, 10, rng)
        for i in range(100):
            cols, _ = q.row(i)
            assert len(np.unique(cols)) == len(cols)


class TestGumbel:
    def test_exact_counts(self, rng):
        p = row_normalize(sprand(40, 30, 0.3, rng))
        q = gumbel_topk_rows(p, 5, rng)
        assert np.array_equal(q.nnz_per_row(), np.minimum(5, p.nnz_per_row()))
        q.check()

    def test_zero_weights_excluded(self, rng):
        p = CSRMatrix.from_coo([0, 0], [0, 1], [0.0, 1.0], (1, 2))
        q = gumbel_topk_rows(p, 2, rng)
        assert np.array_equal(q.row(0)[0], [1])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            gumbel_topk_rows(sprand(2, 2, 0.5, rng), 0, rng)

    def test_empty(self, rng):
        q = gumbel_topk_rows(CSRMatrix.zeros((2, 2)), 1, rng)
        assert q.nnz == 0


@given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_property_counts_and_support(n_rows, s, seed):
    """For any random P, ITS returns min(s, support) distinct in-support picks."""
    rng = np.random.default_rng(seed)
    p = sprand(n_rows, 16, 0.3, rng)
    q = its_sample_rows(p, s, rng)
    q.check()
    support = p.to_dense() > 0
    rows, cols, _ = q.to_coo()
    assert np.all(support[rows, cols])
    per_row_support = support.sum(axis=1)
    assert np.array_equal(q.nnz_per_row(), np.minimum(s, per_row_support))


class TestOneRngLoop:
    """``MatrixSampler.sample`` / ``sample_stacked`` are a CSR build over
    ``sample_mask`` / ``sample_stacked_mask``; the standalone
    ``its_sample_rows`` / ``gumbel_topk_rows`` are the reference."""

    @staticmethod
    def _same(a, b):
        assert a.shape == b.shape
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                     (a.data, b.data)):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("s", [1, 3, 17])
    @pytest.mark.parametrize("backend", ["its", "gumbel"])
    def test_sample_matches_reference(self, backend, s):
        reference = its_sample_rows if backend == "its" else gumbel_topk_rows
        sampler = SageSampler(sample_backend=backend)
        p = row_normalize(sprand(60, 80, 0.15, np.random.default_rng(s)))
        empty = CSRMatrix.zeros((4, 80))
        for mat in (p, empty):
            got = sampler.sample(mat, s, np.random.default_rng(9))
            self._same(got, reference(mat, s, np.random.default_rng(9)))

    @pytest.mark.parametrize("s", [1, 3, 17])
    @pytest.mark.parametrize("backend", ["its", "gumbel"])
    def test_sample_stacked_matches_reference(self, backend, s):
        reference = its_sample_rows if backend == "its" else gumbel_topk_rows
        sampler = SageSampler(sample_backend=backend)
        p = row_normalize(sprand(60, 80, 0.15, np.random.default_rng(s)))
        bounds = [0, 7, 7, 40, 60]  # one empty block
        rngs = [batch_rng(5, i) for i in range(4)]
        got = sampler.sample_stacked(p, s, rngs, bounds)
        want = vstack([
            reference(p.row_block(bounds[i], bounds[i + 1]), s,
                      batch_rng(5, i))
            for i in range(4)
        ])
        self._same(got, want)
        single = sampler.sample_stacked(p, s, np.random.default_rng(3), bounds)
        self._same(single, reference(p, s, np.random.default_rng(3)))
