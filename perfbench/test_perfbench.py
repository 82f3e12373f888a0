"""Tests of the benchmark's own helpers: the percentile rule, metric names,
BENCHMARK.json consistency, per-seed input generation and traced mode."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import perf_layers
import perf_workloads
from perf_stats import (
    END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
    beyond,
    check_name,
    median,
    min_samples,
    percentile,
    supports,
)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


# ---------------------------------------------------------------------- #
# The percentile rule
# ---------------------------------------------------------------------- #
def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 90) == 90
    assert percentile(data, 100) == 100
    assert percentile([3.0], 95) == 3.0
    assert median([4, 1, 3, 2]) == 2.5


@pytest.mark.parametrize("q, n_min", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, n_min):
    assert min_samples(q) == n_min
    assert supports(n_min, q) and beyond(n_min, q) == 10
    assert not supports(n_min - 1, q)
    data = list(range(n_min))
    assert sum(x > percentile(data, q) for x in data) == beyond(n_min, q)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# ---------------------------------------------------------------------- #
# Metric names and BENCHMARK.json
# ---------------------------------------------------------------------- #
def test_declared_metric_names_use_the_charset():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(set(names)) == len(names)
    for name in names:
        assert check_name(name) == name


@pytest.mark.parametrize(
    "bad", ["", "core.step.prob+norm.s", "a b", "-lead", ".lead", "x" * 65]
)
def test_check_name_rejects(bad):
    with pytest.raises(ValueError):
        check_name(bad)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert sorted(perf_workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == PER_LAYER
    setup = BENCHMARK["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


# ---------------------------------------------------------------------- #
# Inputs are a function of the seed
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_configs_are_deterministic_per_seed(name):
    cls = perf_workloads.WORKLOADS[name]
    assert cls.config(3) == cls.config(3)
    assert cls.config(3) != cls.config(4)
    assert cls.config(3).workers == 0
    assert cls.config(3).kernel == type(cls.config(3))().kernel


def test_derived_seeds_are_deterministic_and_distinct():
    a = perf_workloads.derived_seed(5, 211, 1)
    assert a == perf_workloads.derived_seed(5, 211, 1)
    assert a != perf_workloads.derived_seed(6, 211, 1)
    assert a != perf_workloads.derived_seed(5, 211, 2)


@pytest.fixture(scope="module")
def small_graph():
    from repro.graphs import load_dataset

    return load_dataset("products", scale=0.1, seed=0, with_labels=True)


def _chunk_key(chunk):
    requests = [
        (r.rid, r.arrival, tuple(int(v) for v in r.vertices))
        for r in chunk.initial()
    ]
    updates = [
        (b.at, b.op, tuple(b.src.tolist()), tuple(b.dst.tolist()))
        for b in chunk.updates()
    ]
    return requests, updates


@pytest.mark.parametrize("churn", [False, True])
def test_request_chunks_are_deterministic_per_seed(small_graph, churn):
    def chunk(seed, index):
        return perf_workloads.request_chunk(
            small_graph.adj, small_graph.test_idx, seed, index, 40, churn
        )

    first = _chunk_key(chunk(7, 1))
    assert first == _chunk_key(chunk(7, 1))
    assert first != _chunk_key(chunk(8, 1))
    assert first != _chunk_key(chunk(7, 2))
    requests, updates = first
    assert len(requests) == 40
    assert len(updates) == (20 if churn else 0)


def test_batch_seconds_skip_update_intervals():
    stamps = [1.0, 2.0, 5.0]
    updates = [(2.5, 3.0), (3.0, 4.0)]
    assert perf_workloads.batch_seconds(0.5, stamps, updates) == [0.5, 1.0, 1.0]


# ---------------------------------------------------------------------- #
# Traced mode
# ---------------------------------------------------------------------- #
def test_traced_mode_wraps_only_while_installed(small_graph):
    import importlib

    from repro.core.frontier import LayerSample
    from repro.gnn import layers

    spmm_module = importlib.import_module("repro.sparse.spmm")

    original_infer = layers.SAGEConv.infer
    original_spmm = spmm_module.spmm
    rec = perf_layers.Recorder()
    restore = perf_layers.install(rec)
    try:
        assert layers.SAGEConv.infer is not original_infer
        assert layers.spmm is not original_spmm
        conv = layers.SAGEConv(small_graph.n_features, 4, np.random.default_rng(0))
        ids = np.arange(small_graph.n)
        with rec.root():
            conv.infer(LayerSample(small_graph.adj, ids, ids), small_graph.features)
    finally:
        restore()
    assert layers.SAGEConv.infer is original_infer
    assert layers.spmm is original_spmm
    assert spmm_module.spmm is original_spmm
    assert rec.calls["gnn.infer"] == rec.calls["sparse.spmm"] == 1
    assert rec.counts["sparse.spmm.nnz"] == small_graph.adj.nnz
    # gnn.infer self time excludes the wrapped spmm; every layer's self
    # time plus the root's adds up to the traced time.
    assert rec.self_s["gnn.infer"] == pytest.approx(
        rec.busy["gnn.infer"] - rec.busy["sparse.spmm"]
    )
    assert sum(rec.layer_self.values()) == pytest.approx(rec.busy["bench"])
