"""One measured process of the benchmark (started by ``run.py``).

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--setup-only] [--fixed] [--trace] --deadline T

Sets the workload up, then either stops (``--setup-only``) or warms up,
runs timed operations and checks the outputs.  Timed operations continue
until the workload has enough samples for its percentiles and, unless
``--fixed``, until ``S`` wall seconds have been timed; ``T`` is the
``perf_counter`` time (system-wide monotonic clock) by which it stops
regardless.  ``--trace`` installs the per-layer wrappers and the program's
own span tracer; without it nothing of the program is wrapped.

The last line of standard output is one JSON object; everything else the
process has to say goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fixed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def timed_loop(wl, rec, args) -> None:
    i = 0
    while True:
        payload = wl.prepare(i)
        root = rec.root() if rec is not None else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with root:
                out = wl.run(payload)
        except Exception:
            wl.timed_s += time.perf_counter() - start
            traceback.print_exc()
            wl.fail(payload)
            return
        seconds = time.perf_counter() - start
        wl.timed_s += seconds
        wl.record(payload, out, seconds)
        i += 1
        if wl.enough() and (args.fixed or wl.timed_s >= args.seconds):
            return
        if time.perf_counter() >= args.deadline:
            print(f"{wl.name}: deadline reached after {i} operations",
                  file=sys.stderr)
            return


def layer_metrics(wl, rec, tracer, load_s: float) -> dict[str, float]:
    """The traced run's per-layer metrics (``run.py`` adds
    ``trace_overhead_frac``, as it also ran the untraced twin).  A layer or entry
    point the workload never reached reads 0."""
    from perf_stats import PER_LAYER

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    del out["trace_overhead_frac"]

    def put(key: str, value: float) -> None:
        if key in out:
            out[key] += value

    busy, calls, counts = rec.busy, rec.calls, rec.counts
    for name, seconds in busy.items():
        put(f"{name}.s", seconds)
    for layer, seconds in rec.layer_self.items():
        put(f"{layer}.self_s", seconds)
    for name, amount in counts.items():
        put(name, amount)
    traced = busy["bench"]
    # Self times of every layer plus the root account for the traced time.
    total = sum(rec.layer_self.values())
    if not math.isclose(total, traced, rel_tol=1e-6):
        raise RuntimeError(
            f"layer self times sum to {total} s, traced time is {traced} s"
        )
    out.update({
        "pipeline.epoch.self_s": rec.self_s.get("pipeline.epoch", 0.0),
        "trace.traced_s": traced,
        "trace.accounted_frac": 1.0 - rec.layer_self["bench"] / traced,
        "sparse.spmm.calls": calls.get("sparse.spmm", 0),
        "core.sample_bulk.calls": calls.get("core.sample_bulk", 0),
        "serve.targets_per_batch": (
            counts["serve.targets"] / calls["serve.serve_batch"]
            if calls.get("serve.serve_batch")
            else 0.0
        ),
        "graphs.load_s": load_s,
    })
    # Plan steps: the wall spans the program's own tracer records.
    for sp in tracer.spans:
        if sp.cat == "plan" and sp.domain == "wall":
            key = f"core.step.{sp.name.lower().replace('+', '_')}.s"
            if key not in out:
                print(f"unlisted plan step {sp.name}", file=sys.stderr)
            put(key, sp.duration)
    # Simulated time beside wall time per training phase (train-sage).
    if hasattr(wl, "sim_phases"):
        sim, out["comm.sim_bytes_sent"] = wl.sim_phases()
        wall = {
            "sampling": busy["api.backend.sample_bulk"],
            "feature_fetch": busy["partition.fetch"],
            "propagation": sum(
                busy[k] for k in ("gnn.forward", "gnn.backward", "gnn.optim")
            ),
        }
        for phase, wall_s in wall.items():
            out[f"pipeline.wall_s.{phase}"] = wall_s
            out[f"pipeline.sim_s.{phase}"] = sim[phase]
            out[f"pipeline.sim_over_wall.{phase}"] = sim[phase] / wall_s
    out.update(wl.layer_counts())
    return out


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from perf_stats import env_stamp

    rec = restore = None
    if args.trace:
        from perf_layers import Recorder, install

        rec = Recorder()
        restore = install(rec)
    from perf_workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    ready_at = time.perf_counter()
    result: dict[str, object] = {"ready_at": ready_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0
    wl.warmup()
    result["warmup_s"] = time.perf_counter() - ready_at
    tracer = None
    if rec is not None:
        from repro.obs.trace import Tracer, set_tracer

        load_s = rec.busy.get("graphs.load", 0.0)
        rec.reset()
        tracer = Tracer()
        set_tracer(tracer)
    timed_loop(wl, rec, args)
    if rec is not None:
        set_tracer(None)
        restore()
    # Peak resident memory so far (Linux reports KiB).
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        result["layers"] = layer_metrics(wl, rec, tracer, load_s)
    if not wl.failed:
        wl.check()
    result.update({
        "timed_s": wl.timed_s,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "notes": wl.notes,
        "env": env_stamp(),
        "kernel": wl.engine.config.kernel,
        "workers": wl.engine.config.workers,
    })
    if wl.op_s:
        result["e2e"] = wl.e2e()
        result["report"] = wl.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
