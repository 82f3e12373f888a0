"""Streaming graphs: the delta-CSR overlay, the dirty-vertex invalidation
protocol, and update-interleaved serving parity (with pinned digests)."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Engine, RunConfig
from repro.comm import Communicator, ProcessGrid
from repro.graphs import Graph
from repro.partition import CachedFeatureStore, FeatureStore
from repro.pipeline import layerwise_inference
from repro.serve import (
    EmbeddingCache,
    InferenceRequest,
    ServingEngine,
    TraceWorkload,
)
from repro.sparse import CSRMatrix
from repro.stream import (
    DeltaCSR,
    EdgeBatch,
    StreamingGraph,
    UpdateStream,
    dirty_closure,
)


def _small_base(n: int = 10, degree: int = 3, seed: int = 0) -> CSRMatrix:
    """A small canonical adjacency without self loops."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), degree)
    cols = (rows + rng.integers(1, n, rows.size)) % n
    return CSRMatrix.from_coo(
        rows, cols, np.ones(rows.size), (n, n), sum_duplicates=True
    )


def _edge_set(adj: CSRMatrix) -> dict[tuple[int, int], float]:
    rows, cols, vals = adj.to_coo()
    return {
        (int(u), int(v)): float(w)
        for u, v, w in zip(rows, cols, vals)
    }


def _from_edge_dict(edges: dict, shape) -> CSRMatrix:
    if not edges:
        return CSRMatrix.from_coo(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float64), shape,
        )
    keys = sorted(edges)
    rows = np.array([u for u, _ in keys], dtype=np.int64)
    cols = np.array([v for _, v in keys], dtype=np.int64)
    vals = np.array([edges[k] for k in keys], dtype=np.float64)
    return CSRMatrix.from_coo(rows, cols, vals, shape, sum_duplicates=False)


class TestEdgeBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1]), np.array([2]), "upsert")
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1, 2]), np.array([3]))
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1]), np.array([2]), at=-1.0)
        with pytest.raises(ValueError):
            EdgeBatch(np.array([1]), np.array([2]), vals=np.array([1.0, 2.0]))

    def test_coercion_and_count(self):
        b = EdgeBatch(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert b.src.dtype == np.int64 and b.dst.dtype == np.int64
        assert b.n_edges == 2
        assert EdgeBatch([], []).n_edges == 0

    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_rejects_non_finite_arrival(self, at):
        with pytest.raises(ValueError, match="finite and non-negative"):
            EdgeBatch(np.array([1]), np.array([2]), at=at)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        # A NaN weight never equals itself, so it used to count as a fresh
        # insert on every repeat and break the next compaction's parity.
        with pytest.raises(ValueError, match=r"finite, got vals\[1\]"):
            EdgeBatch([0, 1], [1, 2], vals=np.array([1.0, bad]))

    @pytest.mark.parametrize(
        "src, dst, where",
        [
            ([0.5], [1], r"src\[0\] = 0.5"),
            ([0, 1], [1.0, 2.25], r"dst\[1\] = 2.25"),
            ([float("nan")], [1], r"src\[0\] = nan"),
        ],
    )
    def test_rejects_non_integral_endpoints(self, src, dst, where):
        with pytest.raises(ValueError, match=f"integer vertex ids.*{where}"):
            EdgeBatch(src, dst)


class TestDeltaCSR:
    def test_insert_appears_in_view(self):
        base = _small_base()
        d = DeltaCSR(base)
        edges = _edge_set(base)
        absent = next(
            (u, v)
            for u in range(base.shape[0])
            for v in range(base.shape[0])
            if u != v and (u, v) not in edges
        )
        res = d.insert_edges([absent[0]], [absent[1]])
        assert res.applied == 1 and res.skipped == 0
        assert res.dirty_rows.tolist() == [absent[0]]
        view = d.view()
        view.check()
        assert _edge_set(view)[absent] == 1.0
        assert view.nnz == base.nnz + 1

    def test_delete_disappears_from_view(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        res = d.delete_edges([u], [v])
        assert res.applied == 1
        assert (u, v) not in _edge_set(d.view())
        assert d.view().nnz == base.nnz - 1

    def test_duplicate_insert_is_noop(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        res = d.insert_edges([u], [v])  # already present with value 1.0
        assert res.applied == 0 and res.skipped == 1
        assert d.pending == 0
        assert d.view() is base  # cache untouched: nothing changed

    def test_insert_with_new_value_overwrites(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        res = d.insert_edges([u], [v], vals=np.array([2.5]))
        assert res.applied == 1
        assert _edge_set(d.view())[(u, v)] == 2.5

    def test_missing_delete_skipped_then_strict_raises(self):
        base = _small_base()
        d = DeltaCSR(base)
        edges = _edge_set(base)
        absent = next(
            (u, v)
            for u in range(base.shape[0])
            for v in range(base.shape[0])
            if u != v and (u, v) not in edges
        )
        res = d.delete_edges([absent[0]], [absent[1]])
        assert res.applied == 0 and res.skipped == 1
        with pytest.raises(ValueError, match=f"{absent[0]} -> {absent[1]}"):
            d.delete_edges([absent[0]], [absent[1]], strict=True)

    def test_vertex_set_is_fixed(self):
        d = DeltaCSR(_small_base(n=10))
        with pytest.raises(ValueError, match="vertex set is fixed"):
            d.insert_edges([3], [10])

    def test_delete_then_reinsert_drains_log(self):
        base = _small_base()
        d = DeltaCSR(base)
        (u, v) = next(iter(_edge_set(base)))
        d.delete_edges([u], [v])
        assert d.pending == 1
        d.insert_edges([u], [v])  # restores the base value exactly
        assert d.pending == 0
        assert d.view().equal(base)

    def test_exact_threshold_boundary_compacts(self):
        base = _small_base(n=10, degree=2)  # nnz may shrink via duplicates
        limit = 4
        d = DeltaCSR(base, compaction_threshold=limit / base.nnz)
        assert d.compaction_limit == limit
        edges = _edge_set(base)
        absent = [
            (u, v)
            for u in range(10)
            for v in range(10)
            if u != v and (u, v) not in edges
        ][:limit]
        for u, v in absent[: limit - 1]:
            d.insert_edges([u], [v])
            assert not d.maybe_compact()  # below the threshold: no compaction
        d.insert_edges([absent[-1][0]], [absent[-1][1]])
        assert d.pending == limit
        assert d.maybe_compact()  # reaching the limit exactly compacts
        assert d.pending == 0 and d.compactions == 1

    def test_compact_promotes_parity_checked_base(self):
        base = _small_base()
        d = DeltaCSR(base)
        edges = _edge_set(base)
        (u, v) = next(iter(edges))
        absent = next(
            (a, b)
            for a in range(base.shape[0])
            for b in range(base.shape[0])
            if a != b and (a, b) not in edges
        )
        d.delete_edges([u], [v])
        d.insert_edges([absent[0]], [absent[1]], vals=np.array([3.0]))
        new_base = d.compact()
        assert d.base is new_base and d.view() is new_base
        assert d.pending == 0
        new_base.check()
        assert (u, v) not in _edge_set(new_base)
        assert _edge_set(new_base)[absent] == 3.0

    def test_randomized_churn_matches_reference(self):
        """30 rounds of random ins/del vs a plain dict-of-edges model,
        with periodic compactions, stay array-identical throughout."""
        base = _small_base(n=16, degree=4, seed=3)
        d = DeltaCSR(base, compaction_threshold=10 / base.nnz)
        reference = _edge_set(base)
        rng = np.random.default_rng(42)
        for round_ in range(30):
            u = int(rng.integers(0, 16))
            v = int((u + rng.integers(1, 16)) % 16)
            if rng.random() < 0.5 and (u, v) in reference:
                d.delete_edges([u], [v])
                del reference[(u, v)]
            else:
                val = float(rng.integers(1, 5))
                d.insert_edges([u], [v], vals=np.array([val]))
                reference[(u, v)] = val
            d.maybe_compact()
            view = d.view()
            want = _from_edge_dict(reference, base.shape)
            assert np.array_equal(view.indptr, want.indptr)
            assert np.array_equal(view.indices, want.indices)
            assert np.array_equal(view.data, want.data)
        assert d.compactions >= 1  # the sweep actually exercised compaction

    def test_view_is_cached_between_mutations(self):
        d = DeltaCSR(_small_base())
        d.insert_edges([0], [5])
        assert d.view() is d.view()

    def test_refresh_merges_only_rows_changed_since_previous_view(
        self, monkeypatch
    ):
        """A view refresh re-merges the rows changed since the previous
        view — not every row dirtied since the last compaction."""
        calls: list[int] = []
        merge = DeltaCSR._merge_row

        def counting(self, r):
            calls.append(r)
            return merge(self, r)

        monkeypatch.setattr(DeltaCSR, "_merge_row", counting)
        base = _small_base(n=16, degree=4, seed=5)
        d = DeltaCSR(base, compaction_threshold=1e6)  # never compacts
        reference = _edge_set(base)
        rng = np.random.default_rng(9)
        since_view: set[int] = set()
        for step in range(40):
            rows = rng.integers(0, 16, 3)
            cols = (rows + rng.integers(1, 16, 3)) % 16
            vals = rng.integers(1, 4, 3).astype(np.float64)
            res = d.insert_edges(rows, cols, vals)
            reference.update(
                {(int(u), int(v)): w for u, v, w in zip(rows, cols, vals)}
            )
            since_view |= set(res.dirty_rows.tolist())
            if step % 3 == 2:
                calls.clear()
                view = d.view()
                assert sorted(calls) == sorted(since_view)
                since_view.clear()
                calls.clear()
                assert d.view() is view and not calls  # cached: no merge
                want = _from_edge_dict(reference, base.shape)
                assert view.equal(want)
        # Rows dirtied since the last compaction keep accumulating (the
        # simulated update charge); the refresh work does not.
        assert d.dirty_row_ids.size > 3


def _model_apply(model: dict, batch: EdgeBatch) -> None:
    """Apply ``batch`` to a plain dict-of-edges model, later ops winning."""
    vals = batch.vals if batch.vals is not None else np.ones(batch.n_edges)
    for u, v, w in zip(batch.src.tolist(), batch.dst.tolist(), vals.tolist()):
        if batch.op == "insert":
            model[(u, v)] = w
        else:
            model.pop((u, v), None)


def _assert_same_arrays(got: CSRMatrix, want: CSRMatrix) -> None:
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@st.composite
def churn_scripts(draw):
    """A small base graph plus a sequence of multi-edge insert/delete
    batches drawn from few rows and few values, so one batch hits a row
    several times, ops restore base values and deletes miss."""
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([1.0, 2.0, 3.0])
    base_edges = draw(
        st.dictionaries(st.tuples(vertex, vertex), weight, max_size=n * n)
    )
    batches = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.lists(st.tuples(vertex, vertex, weight), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=25,
        )
    )
    view_every = draw(st.integers(1, 4))
    limit = draw(st.integers(1, 8))
    return n, base_edges, batches, view_every, limit


class TestIncrementalViewProperty:
    @given(churn_scripts())
    @settings(max_examples=150, deadline=None)
    def test_every_refresh_matches_rebuild_and_model(self, script):
        n, base_edges, batches, view_every, limit = script
        base = _from_edge_dict(base_edges, (n, n))
        d = DeltaCSR(base, compaction_threshold=limit / max(base.nnz, 1))
        model = dict(base_edges)
        held: list[tuple[CSRMatrix, CSRMatrix]] = []
        for i, (op, edges) in enumerate(batches):
            u, v, w = (np.array(x) for x in zip(*edges))
            batch = EdgeBatch(u, v, op, vals=w if op == "insert" else None)
            d.apply(batch)
            _model_apply(model, batch)
            # The log holds exactly the edges whose value differs from base.
            rows, cols, vals = d.base.to_coo()
            on_base = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
            assert d.pending == sum(
                model.get(e) != on_base.get(e) for e in model.keys() | on_base.keys()
            )
            d.maybe_compact()
            if (i + 1) % view_every:
                continue
            view = d.view()
            view.check()
            _assert_same_arrays(view, d._rebuild_from_scratch())
            _assert_same_arrays(view, _from_edge_dict(model, (n, n)))
            held.append((view, copy.deepcopy(view)))
        # A refresh never writes into a view a caller may still hold.
        for view, snapshot in held:
            _assert_same_arrays(view, snapshot)


class TestDirtyClosure:
    @pytest.fixture()
    def chain(self):
        # 0 -> 1 -> 2 (row u lists u's aggregation sources)
        return CSRMatrix.from_coo(
            np.array([0, 1]), np.array([1, 2]), np.ones(2), (3, 3)
        )

    def test_zero_hops_is_the_dirty_set(self, chain):
        assert dirty_closure(chain, np.array([2]), 0).tolist() == [2]

    def test_reverse_reachability(self, chain):
        assert dirty_closure(chain, np.array([2]), 1).tolist() == [1, 2]
        assert dirty_closure(chain, np.array([2]), 2).tolist() == [0, 1, 2]

    def test_empty_input(self, chain):
        assert dirty_closure(chain, np.empty(0, np.int64), 3).size == 0


class TestStreamingGraph:
    def _graph(self, n=12):
        adj = _small_base(n=n, degree=3, seed=5)
        rng = np.random.default_rng(0)
        return Graph(
            name="toy", adj=adj, features=rng.standard_normal((n, 4))
        )

    def test_apply_refreshes_graph_adj(self):
        g = self._graph()
        sg = StreamingGraph(g)
        before = g.adj
        edges = _edge_set(before)
        absent = next(
            (u, v)
            for u in range(g.n)
            for v in range(g.n)
            if u != v and (u, v) not in edges
        )
        result = sg.apply(EdgeBatch(np.array([absent[0]]), np.array([absent[1]])))
        assert g.adj is not before
        assert absent in _edge_set(g.adj)
        assert set(result.sim_cost) == {
            "batch_edges", "merged_nnz", "compacted_nnz",
        }

    def test_stats_accumulate(self):
        g = self._graph()
        sg = StreamingGraph(g)
        (u, v) = next(iter(_edge_set(g.adj)))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))  # skip
        assert sg.stats.batches == 2
        assert sg.stats.applied == 1 and sg.stats.skipped == 1
        assert sg.stats.dirty_vertices == 1
        assert sg.stats.row()["edits"] == 1

    def test_auto_compact_off_leaves_log(self):
        g = self._graph()
        sg = StreamingGraph(g, compaction_threshold=1 / g.adj.nnz,
                            auto_compact=False)
        (u, v) = next(iter(_edge_set(g.adj)))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))
        assert sg.delta.pending == 1 and sg.stats.compactions == 0
        sg.compact()
        assert sg.delta.pending == 0 and sg.stats.compactions == 1

    def test_rebuild_from_scratch_matches_current(self):
        g = self._graph()
        sg = StreamingGraph(g)
        (u, v) = next(iter(_edge_set(g.adj)))
        sg.apply(EdgeBatch(np.array([u]), np.array([v]), "delete"))
        rebuilt = sg.rebuild_from_scratch()
        assert rebuilt.name == "toy-rebuilt"
        assert rebuilt.adj is not g.adj
        assert rebuilt.adj.equal(g.adj)
        assert rebuilt.features is g.features  # vertex data is shared


class TestUpdateStream:
    def test_synthetic_is_deterministic_and_sorted(self, small_adj):
        pool = np.arange(64, dtype=np.int64)
        a = UpdateStream.synthetic(small_adj, pool, n_requests=16,
                                   update_ratio=0.5, seed=9)
        b = UpdateStream.synthetic(small_adj, pool, n_requests=16,
                                   update_ratio=0.5, seed=9)
        assert len(a.edge_batches) == len(b.edge_batches) == 8
        ats = [x.at for x in a.edge_batches]
        assert ats == sorted(ats)
        for x, y in zip(a.edge_batches, b.edge_batches):
            assert x.op == y.op and x.at == y.at
            assert np.array_equal(x.src, y.src)
            assert np.array_equal(x.dst, y.dst)
        assert a.n_update_edges == 8 * 8

    def test_deletes_exist_and_inserts_are_absent(self, small_adj):
        pool = np.arange(64, dtype=np.int64)
        wl = UpdateStream.synthetic(small_adj, pool, n_requests=16,
                                    update_ratio=0.5, edges_per_update=4,
                                    delete_fraction=0.5, seed=1)
        edges = _edge_set(small_adj)
        for batch in wl.edge_batches:
            for u, v in zip(batch.src, batch.dst):
                if batch.op == "delete":
                    assert (int(u), int(v)) in edges
                else:
                    assert (int(u), int(v)) not in edges

    def test_validation(self, small_adj):
        pool = np.arange(8, dtype=np.int64)
        with pytest.raises(ValueError):
            UpdateStream.synthetic(small_adj, pool, n_requests=4,
                                   update_ratio=-0.1)
        with pytest.raises(ValueError):
            UpdateStream.synthetic(small_adj, pool, n_requests=4,
                                   delete_fraction=1.5)
        with pytest.raises(ValueError):
            UpdateStream.synthetic(small_adj, pool, n_requests=4,
                                   edges_per_update=0)
        with pytest.raises(ValueError, match="distinct edges"):
            UpdateStream.synthetic(
                small_adj, pool, n_requests=4, update_ratio=1.0,
                edges_per_update=small_adj.nnz, delete_fraction=1.0,
            )

    def test_zero_ratio_has_no_updates(self, small_adj):
        wl = UpdateStream.synthetic(small_adj, np.arange(8, dtype=np.int64),
                                    n_requests=4, update_ratio=0.0)
        assert wl.updates() == []


class TestEmbeddingCacheInvalidate:
    """Satellite: the invalidate() hook, independent of any streaming."""

    def test_invalidate_drops_resident_rows_only(self):
        cache = EmbeddingCache(10, 3, budget_bytes=1e6)
        rows = np.arange(6, dtype=np.float64).reshape(2, 3)
        cache.insert(np.array([2, 5]), rows)
        dropped = cache.invalidate(np.array([5, 7]))
        assert dropped == 1
        mask, _ = cache.lookup(np.array([2, 5]))
        assert mask.tolist() == [True, False]

    def test_invalidations_counted_separately_from_evictions(self):
        cache = EmbeddingCache(10, 2, budget_bytes=2 * 8 * 2)  # 2 rows
        cache.insert(np.array([1, 2]), np.zeros((2, 2)))
        cache.insert(np.array([3]), np.ones((1, 2)))  # capacity eviction
        assert cache.stats.evictions == 1
        cache.invalidate(np.array(list(cache.cached_ids)))
        assert cache.stats.invalidations == 2
        assert cache.stats.evictions == 1  # unchanged by invalidation
        cache.stats.reset()
        assert cache.stats.invalidations == 0

    def test_out_of_range_raises(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        with pytest.raises(IndexError):
            cache.invalidate(np.array([10]))
        with pytest.raises(IndexError):
            cache.invalidate(np.array([-1]))

    def test_empty_and_duplicate_ids(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        cache.insert(np.array([4]), np.zeros((1, 2)))
        assert cache.invalidate(np.empty(0, np.int64)) == 0
        assert cache.invalidate(np.array([4, 4, 4])) == 1
        assert cache.stats.invalidations == 1

    def test_reinsert_after_invalidate(self):
        cache = EmbeddingCache(10, 2, budget_bytes=1e6)
        cache.insert(np.array([4]), np.zeros((1, 2)))
        cache.invalidate(np.array([4]))
        fresh = np.full((1, 2), 7.0)
        cache.insert(np.array([4]), fresh)
        mask, got = cache.lookup(np.array([4]))
        assert mask.all() and np.array_equal(got, fresh)


class TestCachedFeatureStoreInvalidate:
    """Satellite: the feature-replica invalidate() hook."""

    def _cache(self, p=4, c=2, n=64, f=8, rows=16):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((n, f))
        store = FeatureStore(feats, ProcessGrid(p, c))
        scores = rng.zipf(2.0, size=n).astype(np.float64)
        cache = CachedFeatureStore(
            store, budget_bytes=store.wire_bytes(rows), scores=scores
        )
        return feats, cache, Communicator(p)

    def test_invalidate_shrinks_residency(self):
        _, cache, _ = self._cache()
        resident = cache.cached_ids
        assert resident.size > 0
        drop = resident[: resident.size // 2]
        assert cache.invalidate(drop) == drop.size
        assert cache.stats.invalidations == drop.size
        left = cache.cached_ids
        assert np.intersect1d(left, drop).size == 0

    def test_fetch_stays_exact_after_invalidate(self, rng):
        feats, cache, comm = self._cache()
        cache.invalidate(cache.cached_ids[:5])
        needed = [rng.choice(64, 12, replace=True) for _ in range(4)]
        got = cache.fetch(comm, needed)
        for r in range(4):
            assert np.array_equal(got[r], feats[needed[r]])

    def test_nonresident_ids_are_free(self):
        _, cache, _ = self._cache()
        missing = np.setdiff1d(np.arange(64), cache.cached_ids)[:3]
        assert cache.invalidate(missing) == 0
        assert cache.stats.invalidations == 0

    def test_out_of_range_raises(self):
        _, cache, _ = self._cache()
        with pytest.raises(IndexError):
            cache.invalidate(np.array([64]))


# ---------------------------------------------------------------------- #
# Update-interleaved serving
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trained_engine() -> Engine:
    cfg = RunConfig(
        dataset="products", scale=0.1, train_split=0.5, p=1, c=1,
        algorithm="single", sampler="sage", fanout=(4, 3), batch_size=16,
        hidden=16, epochs=1, seed=0,
    )
    engine = Engine(cfg)
    engine.train(1)
    return engine


def _streaming_server(
    engine: Engine,
    *,
    embed_budget: float = 0.0,
    compaction_threshold: float = 0.25,
    serve_batch_size: int = 8,
    replicas: int = 1,
    server_cls: type = ServingEngine,
):
    """A fresh streaming server over a point-local graph copy (array
    payloads shared; churn must not leak into the module fixture)."""
    graph = copy.copy(engine.graph)
    cfg = engine.config.replace(
        serve_batch_size=serve_batch_size,
        embed_budget=embed_budget,
        compaction_threshold=compaction_threshold,
        stream_updates=True,
        replicas=replicas,
    )
    stream = StreamingGraph(graph, compaction_threshold=compaction_threshold)
    return server_cls(engine.model, graph, cfg, stream=stream)


def _churn_workload(engine: Engine, *, n_requests=32, update_ratio=0.5,
                    seed=0) -> UpdateStream:
    return UpdateStream.synthetic(
        engine.graph.adj, engine.graph.test_idx, n_requests=n_requests,
        update_ratio=update_ratio, seed=seed,
    )


# Digest of the 32-request / 0.5-ratio / seed-0 streaming run below.  The
# serving stack is bit-exact and row-stable, so this is platform-stable;
# an unexplained change means updates, sampling or inference drifted.
GOLDEN_STREAM_DIGEST = (
    "20fbc1adbf9e74aa3e7e652068e6768e25fa995c7b77a3df89fb149de7cd7961"
)


class TestStreamingServing:
    def test_post_churn_parity_cache_off_on_and_golden_digest(
        self, trained_engine
    ):
        digests = {}
        for budget in (0.0, 65536.0):
            server = _streaming_server(trained_engine, embed_budget=budget)
            report = server.process(_churn_workload(trained_engine))
            digests[budget] = report.digest()
            # Warm-cache serving on the churned graph vs layer-wise
            # inference on an independent from-scratch rebuild.
            verts = trained_engine.graph.test_idx[:48]
            rebuilt = server.stream.rebuild_from_scratch()
            reference = layerwise_inference(trained_engine.model, rebuilt)
            assert np.array_equal(server.serve(verts), reference[verts])
        assert digests[0.0] == digests[65536.0]
        assert digests[0.0] == GOLDEN_STREAM_DIGEST

    def test_compaction_during_serving_keeps_parity(self, trained_engine):
        limit = 40 / trained_engine.graph.adj.nnz
        server = _streaming_server(
            trained_engine, embed_budget=65536.0, compaction_threshold=limit
        )
        report = server.process(_churn_workload(trained_engine))
        assert server.stream.stats.compactions >= 1
        assert report.update_stats.compactions >= 1
        verts = trained_engine.graph.test_idx[:48]
        rebuilt = server.stream.rebuild_from_scratch()
        reference = layerwise_inference(trained_engine.model, rebuilt)
        assert np.array_equal(server.serve(verts), reference[verts])

    def test_updates_invalidate_cached_embeddings(self, trained_engine):
        server = _streaming_server(trained_engine, embed_budget=65536.0)
        report = server.process(_churn_workload(trained_engine))
        assert server.replicas[0].cache is not None
        assert report.cache_stats.invalidations > 0
        assert report.update_stats.batches == 16
        assert "update_batches" in report.row()

    def test_mid_stream_update_changes_the_served_vertex(self, trained_engine):
        """A vertex requested before and after an edge update must be
        served from the pre- and post-update graph respectively."""
        engine = trained_engine
        graph = copy.copy(engine.graph)
        v = int(graph.test_idx[0])
        # An insertion into v's own row always changes its aggregation.
        cols, _ = graph.adj.row(v)
        u = next(
            w for w in range(graph.n) if w != v and w not in set(cols.tolist())
        )
        ref_before = layerwise_inference(engine.model, graph)
        requests = [
            InferenceRequest(rid=0, vertices=np.array([v]), arrival=0.0),
            InferenceRequest(rid=1, vertices=np.array([v]), arrival=0.5),
        ]
        update = EdgeBatch(np.array([v]), np.array([u]), "insert", at=0.25)
        cfg = engine.config.replace(stream_updates=True)
        server = ServingEngine(
            engine.model, graph, cfg, stream=StreamingGraph(graph)
        )
        report = server.process(UpdateStream(TraceWorkload(requests), [update]))
        ref_after = layerwise_inference(engine.model, graph)
        first, second = report.results
        assert np.array_equal(first.logits, ref_before[[v]])
        assert np.array_equal(second.logits, ref_after[[v]])
        assert not np.array_equal(first.logits, second.logits)

    def test_update_workload_on_frozen_engine_raises(self, trained_engine):
        server = trained_engine.serving()  # stream_updates defaults off
        with pytest.raises(ValueError, match="frozen graph"):
            server.process(_churn_workload(trained_engine))
        with pytest.raises(ValueError, match="frozen graph"):
            server.apply_update(
                EdgeBatch(np.array([0]), np.array([1]), "insert")
            )

    def test_engine_serving_builds_stream_from_config(self, trained_engine):
        cfg = trained_engine.config.replace(stream_updates=True)
        engine = Engine(cfg, graph=copy.copy(trained_engine.graph))
        engine._pipeline = trained_engine.pipeline  # reuse trained weights
        server = engine.serving()
        assert server.stream is not None
        assert server.stream.compaction_threshold == cfg.compaction_threshold
        report = server.process(
            _churn_workload(trained_engine, n_requests=8, update_ratio=0.5)
        )
        assert report.n_requests == 8

    def test_runconfig_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="compaction_threshold"):
            RunConfig(compaction_threshold=0.0)
        cfg = RunConfig(stream_updates=True, compaction_threshold=0.1)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class _RecordingServer(ServingEngine):
    """Records every edge batch the serving loop hands to ``apply_update``
    (the one hook a subclass overrides to observe or time updates)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.applied: list[EdgeBatch] = []

    def apply_update(self, batch, at=None):
        self.applied.append(batch)
        return super().apply_update(batch, at=at)


class TestUpdateHook:
    def test_hooks_are_defined_on_the_engine_itself(self):
        # Instrumentation wraps these two methods by looking them up in the
        # class dict, so neither may move to a base class or helper.
        assert "process" in ServingEngine.__dict__
        assert "apply_update" in ServingEngine.__dict__

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_every_update_goes_through_apply_update(
        self, trained_engine, replicas
    ):
        server = _streaming_server(
            trained_engine, replicas=replicas, server_cls=_RecordingServer
        )
        workload = _churn_workload(trained_engine)
        report = server.process(workload)
        assert len(server.applied) == len(workload.updates()) == 16
        assert all(
            seen is batch
            for seen, batch in zip(server.applied, workload.updates())
        )
        # The direct router keeps every request on replica 0; the second
        # replica only absorbs the updates, so the bits do not move.
        assert report.digest() == GOLDEN_STREAM_DIGEST
        assert report.update_stats.batches == 16


class TestStreamCLI:
    def test_stream_command_verifies(self, capsys):
        from repro.cli import main

        rc = main([
            "stream", "products", "--scale", "0.05", "--requests", "8",
            "--hidden", "8", "--fanout", "3,2", "--verify",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "logits digest:" in out
        assert "verified: post-churn logits bit-identical" in out

    def test_stream_command_without_updates(self, capsys):
        from repro.cli import main

        rc = main([
            "stream", "products", "--scale", "0.05", "--requests", "4",
            "--hidden", "8", "--fanout", "3,2", "--update-ratio", "0",
        ])
        assert rc == 0
        assert "no edge updates" in capsys.readouterr().out
