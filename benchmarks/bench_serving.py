"""Serving sweep: offered load vs latency/throughput, micro-batched vs not.

A closed-loop load generator (``clients`` concurrent callers, one request
in flight each) drives the :class:`~repro.serve.ServingEngine` at
increasing offered load, once with micro-batching (``serve_batch_size=8``)
and once serving one request at a time (``serve_batch_size=1``) — the
online analogue of the paper's bulk-vs-per-batch sampling comparison.  Per
point it reports p50/p95/p99 latency, simulated throughput and the
embedding-cache hit rate.

The script *asserts* the serving subsystem's contract as it runs:

* micro-batched serving achieves strictly higher throughput than
  per-request serving at the same offered load (for ``clients >= 8``),
* served logits are bit-identical to
  :func:`repro.pipeline.layerwise_inference` for the same vertices, with
  the embedding cache on and off,
* the run is deterministic: repeating a point reproduces the same logits
  digest.

**Fleet sweep** (``BENCH_serving_fleet.json``): the same closed-loop load
at fleet scale — replica count x router policy through the same
:class:`~repro.serve.ServingEngine` — asserting every fleet configuration
serves the *same* logits digest (exactness is replica-invariant), that a
routed N>1 fleet out-throughputs the single replica at high offered load,
and that the SLO autoscaler scales up and converges under an
SLO-violating load step.

Run as a script (also wired into the CI serving smoke jobs)::

    PYTHONPATH=src python benchmarks/bench_serving.py
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --replicas 4
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import Engine, RunConfig
from repro.bench import write_bench_artifact
from repro.bench.reporting import format_table
from repro.pipeline import layerwise_inference
from repro.serve import ClosedLoopWorkload, ServingEngine


def run_point(
    engine: Engine,
    *,
    clients: int,
    n_requests: int,
    serve_batch_size: int,
    embed_budget: float,
    seed: int,
):
    """One sweep point: a fresh server (fresh cache) over a fresh workload."""
    cfg = engine.config.replace(
        serve_batch_size=serve_batch_size, embed_budget=embed_budget,
    )
    server = ServingEngine(engine.model, engine.graph, cfg)
    workload = ClosedLoopWorkload(
        n_requests, engine.graph.test_idx, clients=clients, seed=seed
    )
    return server.process(workload)


def run_fleet_point(
    engine: Engine,
    *,
    replicas: int,
    router: str,
    clients: int,
    n_requests: int,
    embed_budget: float,
    seed: int,
    slo_p99: float = 0.0,
    autoscale_max: int = 8,
    autoscale_interval: float = 5e-4,
):
    """One fleet sweep point: a fresh server over a fresh closed loop."""
    cfg = engine.config.replace(
        replicas=replicas, router=router, embed_budget=embed_budget,
        slo_p99=slo_p99, autoscale_max=autoscale_max,
        autoscale_interval=autoscale_interval,
    )
    fleet = ServingEngine(engine.model, engine.graph, cfg)
    workload = ClosedLoopWorkload(
        n_requests, engine.graph.test_idx, clients=clients, seed=seed
    )
    return fleet.process(workload)


def run_fleet_sweep(engine: Engine, args, failures: list[str]):
    """Replica-count x router sweep + the autoscale scenario.

    Returns ``(rows, metrics)`` for the BENCH_serving_fleet artifact.
    """
    replica_counts = sorted(
        {int(x) for x in args.replicas.split(",")} | {1}
    )
    rows = []
    metrics: dict[str, float] = {}
    digests: set[str] = set()
    best_routed = 0.0
    single = 0.0
    for n in replica_counts:
        routers = ["direct"] if n == 1 else ["round_robin", "consistent_hash"]
        for router in routers:
            report = run_fleet_point(
                engine, replicas=n, router=router,
                clients=args.fleet_clients, n_requests=args.fleet_requests,
                embed_budget=args.embed_budget, seed=args.seed,
            )
            digests.add(report.digest())
            if n == 1:
                single = max(single, report.throughput)
            else:
                best_routed = max(best_routed, report.throughput)
            row = {
                "replicas": n,
                "router": router,
                "clients": args.fleet_clients,
                **report.row(),
            }
            row["spread"] = "/".join(
                str(c) for _, c in sorted(report.per_replica.items())
            )
            rows.append(row)
            metrics[f"fleet_req_per_s_n{n}_{router}"] = report.throughput
            metrics[f"fleet_p99_ms_n{n}_{router}"] = (
                report.latency_summary()["p99"] * 1e3
            )
    if len(digests) != 1:
        failures.append(
            f"fleet digests diverge across replica counts / routers: "
            f"{sorted(digests)} — exact serving must be replica-invariant"
        )
    metrics["fleet_speedup_vs_single"] = (
        best_routed / single if single > 0 else 0.0
    )
    if best_routed <= single:
        failures.append(
            f"no routed N>1 fleet out-throughputs the single replica at "
            f"clients={args.fleet_clients}: best {best_routed:.0f} vs "
            f"single {single:.0f} req/s"
        )

    # Autoscale scenario: start at one replica under an SLO-violating
    # closed-loop load step; the autoscaler must scale up and converge
    # (final two evaluation windows agree on the replica count).
    autoscale_max = max(replica_counts)
    report = run_fleet_point(
        engine, replicas=1, router="round_robin",
        clients=args.fleet_clients, n_requests=2 * args.fleet_requests,
        embed_budget=args.embed_budget, seed=args.seed,
        slo_p99=args.slo_p99, autoscale_max=autoscale_max,
        autoscale_interval=args.autoscale_interval,
    )
    trace = report.replica_trace
    final = trace[-1][1]
    metrics["autoscale_final_replicas"] = float(final)
    metrics["autoscale_req_per_s"] = report.throughput
    rows.append({
        "replicas": f"1->{final}",
        "router": "round_robin",
        "clients": args.fleet_clients,
        "trace": "->".join(str(c) for _, c in trace),
        **report.row(),
    })
    if final <= 1:
        failures.append(
            f"autoscaler did not scale up under an SLO-violating load "
            f"(slo_p99={args.slo_p99:g}, trace {trace})"
        )
    if len(trace) >= 2 and trace[-1][1] != trace[-2][1]:
        failures.append(
            f"autoscaler did not converge: replica count still moving at "
            f"the end of the run (trace {trace})"
        )
    return rows, metrics


def run_trace_overhead(engine: Engine, args, failures: list[str]) -> float:
    """Gate the observability layer's serving overhead.

    Serves the peak smoke point repeatedly with the process-wide tracer
    absent and installed, interleaved, taking the min wall time of each
    (min-of-N absorbs scheduler noise; the interleaving absorbs thermal /
    cache drift between the two arms).  Asserts the traced run stays
    within ``--overhead-budget`` (default 2%) of the untraced one and
    that both serve the identical logits digest — tracing must never
    perturb RNG or results.
    """
    from time import perf_counter

    from repro.obs import Tracer, get_tracer, set_tracer

    clients = max(int(x) for x in args.clients.split(","))
    prior = get_tracer()
    best = {False: float("inf"), True: float("inf")}
    digests: dict[bool, str] = {}
    spans = 0
    try:
        for _ in range(args.overhead_repeats):
            for traced in (False, True):
                tracer = Tracer() if traced else None
                set_tracer(tracer)
                t0 = perf_counter()
                report = run_point(
                    engine, clients=clients, n_requests=args.requests,
                    serve_batch_size=8, embed_budget=args.embed_budget,
                    seed=args.seed,
                )
                best[traced] = min(best[traced], perf_counter() - t0)
                digests[traced] = report.digest()
                if traced:
                    spans = len(tracer)
    finally:
        set_tracer(prior)
    ratio = best[True] / best[False]
    if digests[True] != digests[False]:
        failures.append(
            f"tracing perturbed the serving digest: "
            f"{digests[False]} (off) vs {digests[True]} (on)"
        )
    if not spans:
        failures.append("traced run recorded no spans — tracer not wired?")
    if ratio > 1.0 + args.overhead_budget:
        failures.append(
            f"tracing overhead {ratio:.3f}x exceeds the "
            f"{args.overhead_budget:.0%} budget (min of "
            f"{args.overhead_repeats}: {best[False] * 1e3:.1f}ms off vs "
            f"{best[True] * 1e3:.1f}ms on)"
        )
    print(
        f"trace overhead at clients={clients}: {ratio:.3f}x "
        f"(budget {1.0 + args.overhead_budget:.2f}x, {spans} spans/run, "
        f"digest stable)"
    )
    return ratio


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Offered load vs serving latency/throughput"
    )
    parser.add_argument("--dataset", default="products")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--fanout", default="4,3")
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--clients", default="1,4,8,16",
                        help="comma-separated closed-loop client counts")
    parser.add_argument("--requests", type=int, default=96,
                        help="requests per sweep point")
    parser.add_argument("--embed-budget", type=float, default=65536.0)
    parser.add_argument("--kernel", default=RunConfig.kernel,
                        help="sparse-kernel backend the server samples "
                        f"with (default {RunConfig.kernel!r})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI (fewer points and requests)")
    parser.add_argument("--gate", action="store_true",
                        help="pinned regression-gate profile (the smoke "
                        "sweep under fixed params): writes BENCH_serving_"
                        "gate.json for check_regression.py; metrics are "
                        "simulated, so the artifact is machine-independent")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="artifact path (default benchmarks/results/"
                        "BENCH_serving.json); 'none' disables")
    parser.add_argument("--replicas", default=None, metavar="N,N,...",
                        help="fleet sizes for the replica x router sweep "
                        "(1 is always included as the baseline); omit to "
                        "skip the fleet sweep")
    parser.add_argument("--fleet-clients", type=int, default=128,
                        dest="fleet_clients", metavar="N",
                        help="closed-loop clients for the fleet sweep "
                        "(high offered load), default 128")
    parser.add_argument("--fleet-requests", type=int, default=512,
                        dest="fleet_requests", metavar="N",
                        help="requests per fleet sweep point, default 512")
    parser.add_argument("--slo-p99", type=float, default=2e-4,
                        dest="slo_p99", metavar="SECONDS",
                        help="p99 SLO for the autoscale scenario, "
                        "default 2e-4")
    parser.add_argument("--autoscale-interval", type=float, default=5e-4,
                        dest="autoscale_interval", metavar="SECONDS",
                        help="autoscaler window for the scenario, "
                        "default 5e-4")
    parser.add_argument("--fleet-json", default=None, metavar="PATH",
                        dest="fleet_json",
                        help="fleet artifact path (default benchmarks/"
                        "results/BENCH_serving_fleet.json); 'none' disables")
    parser.add_argument("--trace-overhead", action="store_true",
                        dest="trace_overhead",
                        help="run only the observability overhead gate: "
                        "serve the peak point with the tracer off vs on, "
                        "assert wall-time ratio within --overhead-budget "
                        "and digest equality")
    parser.add_argument("--overhead-repeats", type=int, default=5,
                        dest="overhead_repeats", metavar="N",
                        help="min-of-N repeats per arm for the overhead "
                        "gate, default 5")
    parser.add_argument("--overhead-budget", type=float, default=0.02,
                        dest="overhead_budget", metavar="FRACTION",
                        help="allowed traced/untraced wall-time overhead, "
                        "default 0.02 (2%%)")
    args = parser.parse_args(argv)

    if args.gate:
        args.smoke = True
    if args.smoke:
        args.clients, args.requests = "1,8", 48
        args.fleet_clients = min(args.fleet_clients, 64)
        args.fleet_requests = min(args.fleet_requests, 256)

    cfg = RunConfig(
        dataset=args.dataset, scale=args.scale, train_split=0.5,
        sampler="sage", fanout=tuple(int(x) for x in args.fanout.split(",")),
        batch_size=16, hidden=args.hidden, epochs=args.epochs,
        seed=args.seed, kernel=args.kernel,
    )
    engine = Engine(cfg)
    engine.train(cfg.epochs)
    reference = layerwise_inference(engine.model, engine.graph)

    if args.trace_overhead:
        failures: list[str] = []
        run_trace_overhead(engine, args, failures)
        if failures:
            for f in failures:
                print(f"error: {f}", file=sys.stderr)
            return 1
        print("ok: tracing overhead within budget, digest unperturbed")
        return 0

    rows = []
    failures = []
    throughput: dict[tuple[int, int], float] = {}
    for clients in (int(x) for x in args.clients.split(",")):
        for batch_size, budget in (
            (1, 0.0),
            (8, 0.0),
            (8, args.embed_budget),
        ):
            report = run_point(
                engine, clients=clients, n_requests=args.requests,
                serve_batch_size=batch_size, embed_budget=budget,
                seed=args.seed,
            )
            throughput[(clients, batch_size)] = max(
                throughput.get((clients, batch_size), 0.0), report.throughput
            )
            mismatch = sum(
                not np.array_equal(r.logits, reference[r.request.vertices])
                for r in report.results
            )
            if mismatch:
                failures.append(
                    f"clients={clients} batch={batch_size} budget={budget:g}: "
                    f"{mismatch} request(s) not bit-identical to "
                    f"layerwise_inference"
                )
            repeat = run_point(
                engine, clients=clients, n_requests=args.requests,
                serve_batch_size=batch_size, embed_budget=budget,
                seed=args.seed,
            )
            if repeat.digest() != report.digest():
                failures.append(
                    f"clients={clients} batch={batch_size}: digest not "
                    f"deterministic across repeated runs"
                )
            rows.append(
                {
                    "clients": clients,
                    "batch_cap": batch_size,
                    "embed_budget": int(budget),
                    **report.row(),
                }
            )
    for clients in (int(x) for x in args.clients.split(",")):
        if clients < 8:
            continue
        if throughput[(clients, 8)] <= throughput[(clients, 1)]:
            failures.append(
                f"clients={clients}: micro-batched throughput "
                f"{throughput[(clients, 8)]:.0f} req/s not strictly above "
                f"per-request {throughput[(clients, 1)]:.0f} req/s"
            )

    peak = max(int(x) for x in args.clients.split(","))
    print(format_table(
        rows,
        title=f"serving sweep: {args.dataset} scale={args.scale} "
        f"fanout={args.fanout} requests/point={args.requests} "
        f"kernel={args.kernel}",
    ))

    fleet_rows: list[dict] = []
    fleet_metrics: dict[str, float] = {}
    if args.replicas is not None:
        fleet_rows, fleet_metrics = run_fleet_sweep(engine, args, failures)
        print(format_table(
            fleet_rows,
            title=f"serving fleet sweep: clients={args.fleet_clients} "
            f"requests/point={args.fleet_requests} "
            f"autoscale slo_p99={args.slo_p99:g}",
        ))

    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    print("ok: micro-batching beats per-request serving, logits "
          "bit-identical to layerwise inference (cache on or off), "
          "digests deterministic")
    if args.replicas is not None:
        print(f"ok: fleet digest replica-invariant, best routed fleet "
              f"{fleet_metrics['fleet_speedup_vs_single']:.2f}x the single "
              f"replica, autoscaler converged at "
              f"{int(fleet_metrics['autoscale_final_replicas'])} replicas")
    if args.json != "none":
        client_counts = [int(x) for x in args.clients.split(",")]
        metrics = {
            "peak_req_per_s_microbatch": throughput[(peak, 8)],
            "peak_req_per_s_per_request": throughput[(peak, 1)],
            "microbatch_speedup": throughput[(peak, 8)]
            / throughput[(peak, 1)],
        }
        path = write_bench_artifact(
            "serving_gate" if args.gate else "serving",
            params={
                "dataset": args.dataset, "scale": args.scale,
                "fanout": args.fanout, "hidden": args.hidden,
                "epochs": args.epochs, "clients": client_counts,
                "requests": args.requests,
                "embed_budget": args.embed_budget, "seed": args.seed,
                "kernel": args.kernel, "smoke": bool(args.smoke),
            },
            metrics=metrics,
            rows=rows,
            path=args.json,
        )
        print(f"wrote {path}")
    if args.replicas is not None and args.fleet_json != "none":
        path = write_bench_artifact(
            "serving_fleet",
            params={
                "dataset": args.dataset, "scale": args.scale,
                "fanout": args.fanout, "hidden": args.hidden,
                "epochs": args.epochs, "seed": args.seed,
                "kernel": args.kernel, "smoke": bool(args.smoke),
                "replicas": sorted(
                    {int(x) for x in args.replicas.split(",")} | {1}
                ),
                "fleet_clients": args.fleet_clients,
                "fleet_requests": args.fleet_requests,
                "embed_budget": args.embed_budget,
                "slo_p99": args.slo_p99,
                "autoscale_interval": args.autoscale_interval,
            },
            metrics=fleet_metrics,
            rows=fleet_rows,
            path=args.fleet_json,
        )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
