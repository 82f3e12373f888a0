"""Multi-replica serving: routers, admission control, the engine's
replica loop, SLO autoscaling, and update broadcast — plus the pinned
single-server digest every replica count must keep bit-identical."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import Engine, RunConfig
from repro.pipeline import layerwise_inference
from repro.serve import (
    AdmissionController,
    Autoscaler,
    ClosedLoopWorkload,
    ConsistentHashRouter,
    DirectRouter,
    InferenceRequest,
    RoundRobinRouter,
    ServingEngine,
    TraceWorkload,
    make_router,
)
from repro.stream import StreamingGraph, UpdateStream


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


@pytest.fixture(scope="module")
def reference_logits(trained_engine) -> np.ndarray:
    return layerwise_inference(trained_engine.model, trained_engine.graph)


def _server(engine: Engine, **overrides) -> ServingEngine:
    return ServingEngine(
        engine.model, engine.graph, engine.config.replace(**overrides)
    )


def _trace(engine: Engine, n=20, seed=5, interarrival=1e-4) -> TraceWorkload:
    return TraceWorkload.synthetic(
        n, engine.graph.test_idx, seed=seed, interarrival=interarrival
    )


def _request(rid: int, vertex: int, arrival: float = 0.0) -> InferenceRequest:
    return InferenceRequest(
        rid=rid, vertices=np.array([vertex]), arrival=arrival
    )


# Digest of the 20-request / seed-5 synthetic trace under the module
# fixture config, pinned before serving was split into replicas.  Every
# replica count and router must reproduce it bit-identically — refactors
# move code, never floats.
GOLDEN_SERVE_DIGEST = (
    "f066470bfc98efbcce4a88da5bfaceef55d0349aa87a97dd9a990d20808dfc51"
)


# ---------------------------------------------------------------------- #
# Routers
# ---------------------------------------------------------------------- #
class TestRouters:
    def test_direct_routes_to_lowest_id(self):
        r = DirectRouter()
        r.rebalance([3, 1, 7])
        assert all(r.route(_request(i, i)) == 1 for i in range(5))

    def test_round_robin_cycles_in_id_order(self):
        r = RoundRobinRouter()
        r.rebalance([2, 0, 1])
        picks = [r.route(_request(i, i)) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_cursor_survives_rebalance(self):
        r = RoundRobinRouter()
        r.rebalance([0, 1])
        r.route(_request(0, 0))  # cursor advances past replica 0
        r.rebalance([0, 1, 2])
        assert r.route(_request(1, 1)) == 1  # continues, does not restart

    def test_consistent_hash_is_deterministic(self):
        a = ConsistentHashRouter(1000)
        b = ConsistentHashRouter(1000)
        a.rebalance([0, 1, 2])
        b.rebalance([0, 1, 2])
        for v in (0, 17, 500, 999):
            assert a.route(_request(v, v)) == b.route(_request(v, v))

    def test_consistent_hash_same_partition_same_replica(self):
        r = ConsistentHashRouter(1024, n_partitions=8)
        r.rebalance([0, 1, 2, 3])
        # 1024 vertices / 8 partitions: 0 and 100 share partition 0.
        assert r.partition_of(0) == r.partition_of(100)
        assert r.route(_request(0, 0)) == r.route(_request(1, 100))

    def test_consistent_hash_rebalance_is_stable(self):
        """Adding one replica must move only a minority of partitions —
        the consistent-hashing argument for keeping caches warm."""
        r = ConsistentHashRouter(4096, n_partitions=64)
        r.rebalance([0, 1, 2])
        before = r._owner.copy()
        r.rebalance([0, 1, 2, 3])
        moved = int((before != r._owner).sum())
        assert 0 < moved < 32  # some partitions moved, most did not
        # Every moved partition went to the new replica, none reshuffled
        # between the survivors.
        assert set(r._owner[before != r._owner].tolist()) == {3}

    def test_consistent_hash_covers_all_replicas(self):
        r = ConsistentHashRouter(4096, n_partitions=64)
        r.rebalance([0, 1, 2, 3])
        assert set(r._owner.tolist()) == {0, 1, 2, 3}

    def test_consistent_hash_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)

    def test_partitions_capped_at_vertex_count(self):
        r = ConsistentHashRouter(5, n_partitions=64)
        assert r.n_partitions == 5
        r.rebalance([0])
        assert r.route(_request(0, 4)) == 0

    def test_make_router_unknown_name(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random", 10)


# ---------------------------------------------------------------------- #
# Admission control
# ---------------------------------------------------------------------- #
class _FakeReplica:
    """Just enough replica surface for the controller: a queue + stats."""

    def __init__(self, pending=0):
        from repro.serve import RequestQueue
        from repro.serve.cache import ServeStats

        self.queue = RequestQueue()
        for i in range(pending):
            self.queue.push(_request(i, i))
        self.stats = ServeStats()


class TestAdmission:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown shed policy"):
            AdmissionController("drop_all")
        with pytest.raises(ValueError, match="queue_depth"):
            AdmissionController("queue", queue_depth=0)
        with pytest.raises(ValueError, match="deadline"):
            AdmissionController("deadline", deadline=0.0)

    def test_none_admits_everything(self):
        rep = _FakeReplica(pending=1000)
        ctrl = AdmissionController("none")
        assert ctrl.admit(rep, _request(0, 0))
        assert rep.stats.shed == 0

    def test_queue_depth_sheds_and_counts(self):
        rep = _FakeReplica(pending=4)
        ctrl = AdmissionController("queue", queue_depth=4)
        assert not ctrl.admit(rep, _request(9, 9))
        assert rep.stats.shed == 1
        assert ctrl.admit(_FakeReplica(pending=3), _request(9, 9))

    def test_deadline_filters_stale_batch_members(self):
        rep = _FakeReplica()
        ctrl = AdmissionController("deadline", deadline=0.1)
        batch = [_request(0, 0, arrival=0.0), _request(1, 1, arrival=0.25)]
        kept = ctrl.filter_batch(rep, batch, now=0.3)
        assert [r.rid for r in kept] == [1]  # waited 0.05 <= 0.1
        assert rep.stats.shed == 1

    def test_non_deadline_policy_never_filters(self):
        rep = _FakeReplica()
        batch = [_request(0, 0, arrival=0.0)]
        assert AdmissionController("queue").filter_batch(rep, batch, 99.0) == batch


# ---------------------------------------------------------------------- #
# Autoscaler decisions
# ---------------------------------------------------------------------- #
class TestAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(0.0)
        with pytest.raises(ValueError):
            Autoscaler(1.0, min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            Autoscaler(1.0, interval=0.0)

    def test_scale_up_on_slo_violation(self):
        scaler = Autoscaler(1e-3, max_replicas=4)
        assert scaler.decide(2e-3, 2) == 3
        assert scaler.decide(2e-3, 4) == 4  # capped

    def test_scale_down_with_hysteresis(self):
        scaler = Autoscaler(1e-3, min_replicas=1)
        assert scaler.decide(4e-4, 3) == 2  # under half the SLO
        assert scaler.decide(4e-4, 1) == 1  # floored
        assert scaler.decide(7e-4, 3) == 3  # inside the band: hold

    def test_empty_window_makes_no_decision(self):
        assert Autoscaler(1e-3).decide(None, 5) == 5


# ---------------------------------------------------------------------- #
# Fleet exactness: the refactor contract
# ---------------------------------------------------------------------- #
class TestFleetExactness:
    def test_single_server_engine_reproduces_pinned_digest(
        self, trained_engine
    ):
        report = trained_engine.serving().process(_trace(trained_engine))
        assert report.digest() == GOLDEN_SERVE_DIGEST

    def test_one_replica_fleet_bit_identical_to_engine(self, trained_engine):
        report = _server(trained_engine).process(_trace(trained_engine))
        assert report.digest() == GOLDEN_SERVE_DIGEST

    @pytest.mark.parametrize(
        "replicas,router,budget",
        [
            (2, "round_robin", 0.0),
            (4, "round_robin", 0.0),
            (4, "consistent_hash", 0.0),
            (3, "round_robin", 32768.0),
            (3, "consistent_hash", 32768.0),
        ],
    )
    def test_digest_invariant_to_fleet_shape(
        self, trained_engine, replicas, router, budget
    ):
        """Exact serving means routing and replica count move latency,
        never bits."""
        server = _server(
            trained_engine,
            replicas=replicas, router=router, embed_budget=budget,
        )
        report = server.process(_trace(trained_engine))
        assert report.digest() == GOLDEN_SERVE_DIGEST

    def test_one_shot_serve_matches_layerwise(
        self, trained_engine, reference_logits
    ):
        verts = trained_engine.graph.test_idx[:5]
        server = _server(trained_engine, replicas=3, router="round_robin")
        assert np.array_equal(
            server.serve(verts), reference_logits[verts]
        )

    def test_results_bit_identical_per_request(
        self, trained_engine, reference_logits
    ):
        server = _server(trained_engine, replicas=4, router="consistent_hash")
        report = server.process(_trace(trained_engine))
        for r in report.results:
            assert np.array_equal(
                r.logits, reference_logits[r.request.vertices]
            )


# ---------------------------------------------------------------------- #
# Fleet dynamics: throughput, locality, accounting
# ---------------------------------------------------------------------- #
class TestFleetDynamics:
    def test_four_replicas_out_throughput_one_at_high_load(
        self, trained_engine
    ):
        """The fleet acceptance criterion: at an offered load that saturates
        one server, a routed fleet strictly wins."""
        rates = {}
        for n in (1, 4):
            server = _server(
                trained_engine, replicas=n, router="round_robin"
            )
            wl = ClosedLoopWorkload(
                96, trained_engine.graph.test_idx, clients=48, seed=2
            )
            rates[n] = server.process(wl).throughput
        assert rates[4] > rates[1]

    def test_round_robin_spreads_work_across_replicas(self, trained_engine):
        server = _server(trained_engine, replicas=2, router="round_robin")
        report = server.process(_trace(trained_engine))
        assert sorted(report.per_replica) == [0, 1]
        assert all(count > 0 for count in report.per_replica.values())
        assert sum(report.per_replica.values()) == report.n_requests

    def test_consistent_hash_beats_round_robin_on_cache_locality(
        self, trained_engine
    ):
        """The point of locality-aware routing: a hot vertex's cached rows
        live on one replica instead of being diluted across the fleet."""
        pool = trained_engine.graph.test_idx[:8]
        hit_rates = {}
        for router in ("round_robin", "consistent_hash"):
            server = _server(
                trained_engine,
                replicas=4, router=router, embed_budget=65536.0,
            )
            wl = TraceWorkload.synthetic(
                64, pool, seed=7, interarrival=5e-5
            )
            hit_rates[router] = server.process(wl).cache_stats.hit_rate
        assert hit_rates["consistent_hash"] > hit_rates["round_robin"]

    def test_report_merges_phase_seconds_across_replicas(self, trained_engine):
        server = _server(trained_engine, replicas=3, router="round_robin")
        report = server.process(_trace(trained_engine))
        assert report.phase_seconds["sampling"] > 0
        assert report.phase_seconds["propagation"] > 0
        # No shedding configured: the report says so.
        assert report.shed == 0
        assert "shed" not in report.row()


# ---------------------------------------------------------------------- #
# Load shedding
# ---------------------------------------------------------------------- #
def _burst(engine: Engine, n=32) -> TraceWorkload:
    """n single-vertex requests all arriving at t=0 — a worst-case spike."""
    idx = engine.graph.test_idx
    return TraceWorkload(
        [_request(i, int(idx[i % 16])) for i in range(n)]
    )


class TestShedding:
    def test_queue_policy_sheds_the_burst_overflow(self, trained_engine):
        server = _server(
            trained_engine, shed_policy="queue", shed_queue_depth=4
        )
        report = server.process(_burst(trained_engine))
        assert report.shed > 0
        # Every request was either served or shed — none lost.
        assert report.n_requests + report.shed == 32
        assert report.row()["shed"] == report.shed

    def test_deadline_policy_bounds_queue_wait(self, trained_engine):
        deadline = 2e-4
        server = _server(
            trained_engine, shed_policy="deadline", shed_deadline=deadline
        )
        report = server.process(_burst(trained_engine))
        assert report.shed > 0
        assert report.n_requests + report.shed == 32
        # The surviving requests are exactly the ones served in time.
        assert all(r.queue_wait <= deadline + 1e-12 for r in report.results)

    def test_no_shedding_under_light_load(self, trained_engine):
        server = _server(
            trained_engine, shed_policy="queue", shed_queue_depth=64
        )
        report = server.process(_trace(trained_engine))
        assert report.shed == 0 and report.n_requests == 20


# ---------------------------------------------------------------------- #
# Autoscaling end to end
# ---------------------------------------------------------------------- #
class TestAutoscaling:
    def test_scales_up_under_slo_violating_load(self, trained_engine):
        server = _server(
            trained_engine,
            replicas=1, router="round_robin", slo_p99=2e-4,
            autoscale_max=4, autoscale_interval=5e-4,
        )
        wl = ClosedLoopWorkload(
            128, trained_engine.graph.test_idx, clients=32, seed=3
        )
        report = server.process(wl)
        counts = [n for _, n in report.replica_trace]
        assert counts[0] == 1
        assert counts[-1] > 1  # the violated SLO forced the fleet up
        assert counts == sorted(counts)  # pure scale-up, no thrash
        assert report.n_requests == 128  # nothing lost while scaling

    def test_scales_down_when_slo_trivially_met(self, trained_engine):
        server = _server(
            trained_engine,
            replicas=3, router="round_robin", slo_p99=1.0,
            autoscale_min=1, autoscale_max=4, autoscale_interval=5e-4,
        )
        report = server.process(
            _trace(trained_engine, n=40, seed=9, interarrival=2e-4)
        )
        counts = [n for _, n in report.replica_trace]
        assert counts[0] == 3
        assert counts[-1] == 1  # idle fleet drained to the minimum
        assert counts == sorted(counts, reverse=True)
        # Re-routed orphans from retired replicas all got served.
        assert report.n_requests == 40

    def test_retired_replicas_still_counted_in_report(self, trained_engine):
        server = _server(
            trained_engine,
            replicas=3, router="round_robin", slo_p99=1.0,
            autoscale_min=1, autoscale_interval=5e-4,
        )
        report = server.process(
            _trace(trained_engine, n=40, seed=9, interarrival=2e-4)
        )
        assert server.retired  # somebody was retired...
        assert len(server.replicas) == 1
        # ...but the per-replica accounting still covers the whole run.
        assert sum(report.per_replica.values()) == report.n_requests

    def test_autoscaled_run_stays_exact(self, trained_engine, reference_logits):
        server = _server(
            trained_engine,
            replicas=1, router="round_robin", slo_p99=2e-4,
            autoscale_max=4, autoscale_interval=5e-4,
        )
        report = server.process(_trace(trained_engine, n=30, interarrival=5e-5))
        for r in report.results:
            assert np.array_equal(
                r.logits, reference_logits[r.request.vertices]
            )

    def test_initial_count_below_minimum_rejected(self, trained_engine):
        server = _server(
            trained_engine,
            replicas=2, router="round_robin", slo_p99=1.0,
            autoscale_min=3, autoscale_max=4,
        )
        with pytest.raises(ValueError, match="below the autoscaler minimum"):
            server.process(_trace(trained_engine, n=4))


# ---------------------------------------------------------------------- #
# Streaming updates broadcast to the fleet
# ---------------------------------------------------------------------- #
def _streaming_server(engine: Engine, **overrides) -> ServingEngine:
    graph = copy.copy(engine.graph)
    cfg = engine.config.replace(
        stream_updates=True, serve_batch_size=8, **overrides
    )
    stream = StreamingGraph(graph, compaction_threshold=0.25)
    return ServingEngine(engine.model, graph, cfg, stream=stream)


def _churn(engine: Engine, n=32) -> UpdateStream:
    return UpdateStream.synthetic(
        engine.graph.adj, engine.graph.test_idx,
        n_requests=n, update_ratio=0.5, seed=0,
    )


class TestFleetUpdates:
    def test_one_replica_fleet_reproduces_stream_digest(self, trained_engine):
        """The engine's update interleaving at one replica is unchanged —
        pinned by the same streaming golden digest test_stream.py pins."""
        from test_stream import GOLDEN_STREAM_DIGEST

        server = _streaming_server(trained_engine)
        report = server.process(_churn(trained_engine))
        assert report.digest() == GOLDEN_STREAM_DIGEST

    def test_broadcast_invalidates_every_replica(self, trained_engine):
        server = _streaming_server(
            trained_engine,
            replicas=2, router="round_robin", embed_budget=65536.0,
        )
        report = server.process(_churn(trained_engine))
        # Each replica invalidated rows out of its *own* cache; churn is
        # counted as invalidations, never conflated with LFU evictions.
        for rep in server.replicas:
            assert rep.stats.invalidations > 0
        assert report.cache_stats.invalidations == sum(
            rep.stats.invalidations for rep in server.replicas
        )
        assert report.update_stats is not None
        assert report.update_stats.batches == 16

    def test_post_churn_fleet_serves_updated_graph(self, trained_engine):
        server = _streaming_server(
            trained_engine,
            replicas=2, router="round_robin", embed_budget=65536.0,
        )
        server.process(_churn(trained_engine))
        verts = trained_engine.graph.test_idx[:48]
        rebuilt = server.stream.rebuild_from_scratch()
        reference = layerwise_inference(trained_engine.model, rebuilt)
        assert np.array_equal(server.serve(verts), reference[verts])

    def test_frozen_fleet_rejects_update_workloads(self, trained_engine):
        server = _server(trained_engine, replicas=2, router="round_robin")
        with pytest.raises(ValueError, match="frozen graph"):
            server.process(_churn(trained_engine))


# ---------------------------------------------------------------------- #
# Config / api / CLI wiring
# ---------------------------------------------------------------------- #
class TestFleetWiring:
    def test_runconfig_fleet_fields_validate(self):
        with pytest.raises(ValueError):
            RunConfig(replicas=0)
        with pytest.raises(ValueError):
            RunConfig(router="random")
        with pytest.raises(ValueError):
            RunConfig(shed_policy="drop_all")
        with pytest.raises(ValueError):
            RunConfig(shed_policy="queue", shed_queue_depth=0)
        with pytest.raises(ValueError):
            RunConfig(shed_deadline=-1.0)
        with pytest.raises(ValueError):
            RunConfig(slo_p99=-1.0)
        with pytest.raises(ValueError):
            RunConfig(autoscale_min=3, autoscale_max=2)
        with pytest.raises(ValueError):
            RunConfig(autoscale_interval=0.0)
        with pytest.raises(ValueError):
            RunConfig(slo_p99=1e-3, replicas=9, autoscale_max=8)

    def test_runconfig_fleet_fields_roundtrip(self):
        cfg = RunConfig(
            replicas=4, router="consistent_hash", shed_policy="queue",
            shed_queue_depth=16, slo_p99=1e-3, autoscale_max=6,
        )
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_engine_serving_picks_the_fleet(self, trained_engine):
        server = trained_engine.serving()
        assert len(server.replicas) == 1 and server.autoscaler is None
        for overrides in (
            {"replicas": 2},
            {"router": "round_robin"},
            {"shed_policy": "queue"},
            {"slo_p99": 1e-3},
        ):
            engine = Engine(
                trained_engine.config.replace(**overrides),
                graph=trained_engine.graph,
            )
            engine._pipeline = trained_engine.pipeline
            server = engine.serving()
            assert isinstance(server, ServingEngine)
            assert len(server.replicas) == engine.config.replicas
            assert server.router.name == engine.config.router
            assert server.admission.policy == engine.config.shed_policy
            assert (server.autoscaler is not None) == (
                engine.config.slo_p99 > 0
            )

    def test_cli_serve_fleet_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--synthetic", "8",
            "--replicas", "2", "--router", "round_robin",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet:" in out
        assert "logits digest:" in out
        assert "per-replica" in out

    def test_cli_fleet_digest_matches_single_server(self, capsys):
        """The CLI surface of the exactness contract: same trace, same
        digest line, fleet or not."""
        from repro.cli import main

        argv = [
            "serve", "products", "--scale", "0.1", "--batch-size", "16",
            "--hidden", "16", "--fanout", "4,3", "--synthetic", "8",
        ]
        digests = []
        for extra in ([], ["--replicas", "4", "--router", "consistent_hash"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            digests.append(
                next(
                    line for line in out.splitlines()
                    if "logits digest:" in line
                )
            )
        assert digests[0] == digests[1]
