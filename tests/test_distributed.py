"""Distributed algorithms: 1.5D SpGEMM, replicated & partitioned sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import Communicator, ProcessGrid
from repro.core import FastGCNSampler, LadiesSampler, SageSampler
from repro.distributed import (
    ProbCostInputs,
    RecordingSpGEMM,
    partitioned_bulk_sampling,
    predict_prob_costs,
    replicated_bulk_sampling,
    spgemm_15d,
    stage_blocks,
)
from repro.baselines import per_batch_sampling
from repro.partition import BlockRows
from repro.sparse import spgemm, sprand, vstack


class TestSpgemm15D:
    @pytest.mark.parametrize(
        "p,c,aware",
        [(4, 1, True), (4, 2, True), (8, 2, True), (8, 2, False),
         (8, 4, True), (16, 4, True), (16, 4, False)],
    )
    def test_matches_serial(self, p, c, aware, rng):
        q = sprand(50, 96, 0.03, rng)
        a = sprand(96, 96, 0.06, rng)
        comm = Communicator(p)
        grid = ProcessGrid(p, c)
        out = spgemm_15d(
            comm, grid,
            BlockRows.partition(q, grid.n_rows),
            BlockRows.partition(a, grid.n_rows),
            sparsity_aware=aware,
        )
        assert vstack(out).equal(spgemm(q, a))

    def test_stage_blocks_partition_the_rows(self):
        grid = ProcessGrid(12, 3)  # 4 rows, 3 columns
        all_blocks = sorted(sum((stage_blocks(grid, j) for j in range(3)), []))
        assert all_blocks == list(range(4))

    def test_sparsity_aware_sends_fewer_bytes(self, rng):
        """The Ballard-style optimization: only needed rows travel."""
        q = sprand(40, 128, 0.01, rng)  # very sparse Q
        a = sprand(128, 128, 0.08, rng)
        volumes = {}
        for aware in (True, False):
            comm = Communicator(8)
            grid = ProcessGrid(8, 2)
            with comm.phase("prob"):
                spgemm_15d(
                    comm, grid,
                    BlockRows.partition(q, 4),
                    BlockRows.partition(a, 4),
                    sparsity_aware=aware,
                )
            volumes[aware] = comm.ledger.sent("prob")
        assert volumes[True] < volumes[False]

    def test_block_count_validation(self, rng):
        comm = Communicator(8)
        grid = ProcessGrid(8, 2)
        q = BlockRows.partition(sprand(10, 20, 0.2, rng), 2)  # wrong count
        a = BlockRows.partition(sprand(20, 20, 0.2, rng), 4)
        with pytest.raises(ValueError):
            spgemm_15d(comm, grid, q, a)

    def test_dimension_validation(self, rng):
        comm = Communicator(4)
        grid = ProcessGrid(4, 2)
        q = BlockRows.partition(sprand(10, 15, 0.2, rng), 2)
        a = BlockRows.partition(sprand(20, 20, 0.2, rng), 2)
        with pytest.raises(ValueError):
            spgemm_15d(comm, grid, q, a)

    @given(
        st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4)]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_any_grid_matches_serial(self, grid_shape, seed):
        p, c = grid_shape
        rng = np.random.default_rng(seed)
        q = sprand(24, 40, 0.08, rng)
        a = sprand(40, 40, 0.1, rng)
        comm = Communicator(p)
        grid = ProcessGrid(p, c)
        out = spgemm_15d(
            comm, grid,
            BlockRows.partition(q, grid.n_rows),
            BlockRows.partition(a, grid.n_rows),
        )
        assert vstack(out).equal(spgemm(q, a))


class TestReplicated:
    def test_covers_all_batches(self, small_adj, batches):
        comm = Communicator(4)
        out = replicated_bulk_sampling(
            comm, SageSampler(), small_adj, batches, (4, 2), seed=0
        )
        assert sum(len(o) for o in out) == len(batches)

    def test_no_communication(self, small_adj, batches):
        """Section 5.1's headline property: sampling is communication-free."""
        comm = Communicator(8)
        replicated_bulk_sampling(
            comm, SageSampler(), small_adj, batches, (4, 2), seed=0
        )
        assert comm.ledger.sent() == 0
        assert comm.clock.phase_seconds("sampling", "comm") == 0.0

    def test_sampling_time_scales_with_p(self, small_adj, rng):
        """More ranks, fewer batches each: near-linear sampling scaling.

        Run at paper-scale work (work_scale) so the scalable flop/byte work
        dominates the fixed per-kernel overheads, as in the real system.
        """
        n = small_adj.shape[0]
        many = [rng.choice(n, 32, replace=False) for _ in range(32)]
        times = {}
        for p in (1, 2, 4, 8):
            comm = Communicator(p, work_scale=1e6)
            replicated_bulk_sampling(
                comm, SageSampler(), small_adj, many, (4, 2), seed=0
            )
            times[p] = comm.clock.phase_seconds("sampling")
        assert times[8] < times[4] < times[2] < times[1]
        assert times[1] / times[8] > 4  # at least halfway to linear

    @pytest.mark.parametrize(
        "make_sampler,fanout",
        [
            (lambda: SageSampler(), (4, 2)),
            (lambda: LadiesSampler(), (16,)),
            (lambda: FastGCNSampler(), (16,)),
        ],
    )
    def test_world_size_invariant(self, make_sampler, fanout, small_adj, batches):
        """Seeding by global batch index: the same batch draws the same
        sample at any world size (bug fixed in this revision — seeding by
        rank made p=2 and p=4 runs sample differently)."""

        def by_global_index(out):
            p = len(out)
            flat = {}
            for r, lst in enumerate(out):
                for x, mb in enumerate(lst):
                    flat[r + x * p] = mb
            return [flat[i] for i in sorted(flat)]

        runs = []
        for p in (1, 2, 4):
            out = replicated_bulk_sampling(
                Communicator(p), make_sampler(), small_adj, batches,
                fanout, seed=5,
            )
            runs.append(by_global_index(out))
        for a, b in zip(runs[0], runs[1]):
            for la, lb in zip(a.layers, b.layers):
                assert np.array_equal(la.src_ids, lb.src_ids)
                assert la.adj.equal(lb.adj)
        for a, b in zip(runs[0], runs[2]):
            for la, lb in zip(a.layers, b.layers):
                assert np.array_equal(la.src_ids, lb.src_ids)
                assert la.adj.equal(lb.adj)

    def test_bulk_matches_per_batch_samples(self, small_adj, batches):
        """Bulk and per-batch drivers share per-batch RNG streams, so the
        amortization ablation compares identical samples."""
        bulk = replicated_bulk_sampling(
            Communicator(4), SageSampler(), small_adj, batches, (4, 2), seed=2
        )
        solo = per_batch_sampling(
            Communicator(4), SageSampler(), small_adj, batches, (4, 2), seed=2
        )
        for ra, rb in zip(bulk, solo):
            for x, y in zip(ra, rb):
                assert np.array_equal(x.batch, y.batch)
                for la, lb in zip(x.layers, y.layers):
                    assert np.array_equal(la.src_ids, lb.src_ids)
                    assert la.adj.equal(lb.adj)

    def test_rng_list_length_validated(self, small_adj, batches):
        with pytest.raises(ValueError):
            SageSampler().sample_bulk(
                small_adj, batches, (4,),
                [np.random.default_rng(0)],  # one rng for many batches
            )

    def test_rng_one_shot_iterator_accepted(self, small_adj, batches):
        """A generator expression of per-batch rngs must work: it is
        materialized exactly once, not drained by validation."""
        from repro.core.bulk import batch_rng

        k = len(batches)
        a = SageSampler().sample_bulk(
            small_adj, batches, (4, 2), [batch_rng(1, i) for i in range(k)]
        )
        b = SageSampler().sample_bulk(
            small_adj, batches, (4, 2), (batch_rng(1, i) for i in range(k))
        )
        for x, y in zip(a, b):
            for la, lb in zip(x.layers, y.layers):
                assert np.array_equal(la.src_ids, lb.src_ids)
                assert la.adj.equal(lb.adj)

    def test_deterministic_given_seed(self, small_adj, batches):
        a = replicated_bulk_sampling(
            Communicator(4), SageSampler(), small_adj, batches, (4,), seed=3
        )
        b = replicated_bulk_sampling(
            Communicator(4), SageSampler(), small_adj, batches, (4,), seed=3
        )
        for ra, rb in zip(a, b):
            for x, y in zip(ra, rb):
                assert x.layers[0].adj.equal(y.layers[0].adj)

    def test_bulk_beats_per_batch(self, small_adj, rng):
        """The amortization claim (section 8.1.1): bulk sampling is faster
        than sampling the same batches one call each."""
        n = small_adj.shape[0]
        many = [rng.choice(n, 32, replace=False) for _ in range(32)]
        comm_bulk = Communicator(4)
        replicated_bulk_sampling(
            comm_bulk, SageSampler(), small_adj, many, (4, 2), seed=0
        )
        comm_solo = Communicator(4)
        per_batch_sampling(
            comm_solo, SageSampler(), small_adj, many, (4, 2), seed=0
        )
        assert (
            comm_bulk.clock.phase_seconds("sampling")
            < comm_solo.clock.phase_seconds("sampling")
        )


class TestPartitioned:
    @pytest.mark.parametrize("p,c", [(4, 1), (4, 2), (8, 2), (8, 4)])
    def test_sage_valid_samples(self, p, c, small_adj, batches):
        comm = Communicator(p)
        grid = ProcessGrid(p, c)
        ab = BlockRows.partition(small_adj, grid.n_rows)
        samples, owners = partitioned_bulk_sampling(
            comm, grid, SageSampler(), ab, batches, (4, 2), seed=0
        )
        assert len(samples) == len(batches)
        dense = small_adj.to_dense()
        for mb in samples:
            for layer in mb.layers:
                rows, cols, _ = layer.adj.to_coo()
                assert np.all(dense[layer.dst_ids[rows], layer.src_ids[cols]] != 0)

    def test_ladies_extraction_complete(self, small_adj, batches):
        comm = Communicator(8)
        grid = ProcessGrid(8, 2)
        ab = BlockRows.partition(small_adj, grid.n_rows)
        samples, _ = partitioned_bulk_sampling(
            comm, grid, LadiesSampler(), ab, batches, (16,), seed=0
        )
        dense = small_adj.to_dense()
        for mb in samples:
            layer = mb.layers[0]
            sub = dense[np.ix_(layer.dst_ids, layer.src_ids)]
            assert np.allclose(layer.adj.to_dense(), sub)

    def test_fastgcn_partitioned(self, small_adj, batches):
        comm = Communicator(8)
        grid = ProcessGrid(8, 2)
        ab = BlockRows.partition(small_adj, grid.n_rows)
        samples, _ = partitioned_bulk_sampling(
            comm, grid, FastGCNSampler(), ab, batches, (16,), seed=0
        )
        assert all(s.layers[0].n_src <= 16 for s in samples)

    def test_phases_are_attributed(self, small_adj, batches):
        comm = Communicator(8)
        grid = ProcessGrid(8, 2)
        ab = BlockRows.partition(small_adj, grid.n_rows)
        partitioned_bulk_sampling(
            comm, grid, SageSampler(), ab, batches, (4, 2), seed=0
        )
        bd = comm.clock.breakdown()
        assert {"probability", "sampling", "extraction"} <= set(bd)
        assert all(v > 0 for v in bd.values())

    def test_probability_has_communication(self, small_adj, batches):
        """Unlike the replicated algorithm, the 1.5D path communicates."""
        comm = Communicator(8)
        grid = ProcessGrid(8, 2)
        ab = BlockRows.partition(small_adj, grid.n_rows)
        partitioned_bulk_sampling(
            comm, grid, SageSampler(), ab, batches, (4,), seed=0
        )
        assert comm.ledger.sent("probability") > 0

    def test_wrong_block_count_rejected(self, small_adj, batches):
        comm = Communicator(8)
        grid = ProcessGrid(8, 2)
        ab = BlockRows.partition(small_adj, 2)
        with pytest.raises(ValueError):
            partitioned_bulk_sampling(
                comm, grid, SageSampler(), ab, batches, (4,), seed=0
            )

    def test_unsupported_sampler_rejected(self, small_adj, batches):
        comm = Communicator(4)
        grid = ProcessGrid(4, 2)
        ab = BlockRows.partition(small_adj, 2)

        class WeirdSampler:
            pass

        with pytest.raises(TypeError):
            partitioned_bulk_sampling(
                comm, grid, WeirdSampler(), ab, batches, (4,), seed=0
            )


class TestInstrumentAndAnalysis:
    def test_recording_spgemm_counts(self, rng):
        rec = RecordingSpGEMM()
        a = sprand(10, 10, 0.3, rng)
        b = sprand(10, 10, 0.3, rng)
        out = rec(a, b)
        assert out.equal(spgemm(a, b))
        assert rec.kernels == 2
        assert rec.flops > 0
        assert len(rec.outputs) == 1

    def test_prob_cost_prediction_shapes(self):
        """T_prob scales with the harmonic mean of p/c and c (section 5.2.1):
        for fixed p, row-data time falls with c while all-reduce time rises."""
        base = dict(k=64, b=1024, d=50.0)
        t_c2 = predict_prob_costs(ProbCostInputs(p=64, c=2, **base))
        t_c8 = predict_prob_costs(ProbCostInputs(p=64, c=8, **base))
        assert t_c8.t_rowdata < t_c2.t_rowdata
        assert t_c8.t_allreduce > t_c2.t_allreduce

    def test_prob_cost_validation(self):
        with pytest.raises(ValueError):
            ProbCostInputs(p=8, c=3, k=1, b=1, d=1.0)
        with pytest.raises(ValueError):
            ProbCostInputs(p=8, c=2, k=0, b=1, d=1.0)

    def test_measured_rowdata_volume_tracks_prediction(self, rng):
        """The simulator's per-rank received row-data bytes should be within
        a small factor of the closed-form kbd/c estimate."""
        from repro.graphs import erdos_renyi

        n, d = 512, 16
        adj = erdos_renyi(n, d, rng)
        k, b = 8, 32
        batches = [rng.choice(n, b, replace=False) for _ in range(k)]
        p, c = 8, 2
        comm = Communicator(p)
        grid = ProcessGrid(p, c)
        ab = BlockRows.partition(adj, grid.n_rows)
        partitioned_bulk_sampling(
            comm, grid, LadiesSampler(), ab, batches, (16,), seed=0
        )
        pred = predict_prob_costs(
            ProbCostInputs(p=p, c=c, k=k, b=b, d=adj.nnz / n)
        )
        measured = comm.ledger.received("probability") / p
        assert 0.1 * pred.rowdata_bytes_per_rank < measured < 10 * pred.rowdata_bytes_per_rank


#: Simulated sampling seconds of one replicated epoch (products 0.1, p=4,
#: batch 16, hidden 16, seed 0), recorded under the esc kernel.
REPLICATED_SAMPLING_S = {
    "sage": 0.005242255876527331,
    "ladies": 0.00543276407459807,
}


@pytest.mark.parametrize("sampler", sorted(REPLICATED_SAMPLING_S))
def test_replicated_sampling_cost_is_kernel_independent(sampler):
    """The kernel picks only the SpGEMM: every product — row gathers
    included — goes through ``RecordingSpGEMM``, so the simulated
    sampling time is the same under every registered kernel."""
    from repro.api import Engine, RunConfig
    from repro.sparse import KERNELS

    for kernel in KERNELS.names():
        cfg = RunConfig(
            dataset="products", scale=0.1, train_split=0.5, p=4,
            sampler=sampler, batch_size=16, hidden=16, seed=0, kernel=kernel,
        )
        stats = Engine(cfg).train_epoch(0)
        assert stats.sampling == REPLICATED_SAMPLING_S[sampler], kernel
