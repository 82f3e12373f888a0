"""Wall-clock benchmark of the repro package: four workloads, end-to-end
metrics from an untraced run, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` sets the workload up three
times in fresh processes (``setup_s`` is the median, imports included; the
warm-up pass is not part of it) and measures the last of them untraced for
at least ``S`` seconds and until every reported percentile has ten samples
beyond it.  ``--trace 1`` runs the same fixed amount of work twice,
untraced and traced, and reports the per-layer breakdown plus the tracing
overhead.  Every measured process pins OpenBLAS to one thread and runs with
``workers=0``.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 when a result was printed, even if a check failed
(``correct`` is then false), and non-zero when no result could be made.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from perf_stats import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
    check_name,
    child_env,
    median,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Wall seconds the whole run may take before it gives up.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, deadline: float, *flags: str) -> tuple[float, dict]:
    """Run one measured process; returns its spawn time and its result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--deadline", repr(deadline - 20.0), *flags,
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(str(ROOT / "src")),
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured process exceeded the time budget: {exc}")
    if proc.returncode != 0:
        raise BenchError(f"measured process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("measured process printed no result")
    return start, json.loads(lines[-1])


def show(name: str, value: float, unit: str, domain: str = "", note: str = "") -> None:
    """One report line; ``domain`` is the time domain of a time metric."""
    domain = f"[{domain}]" if domain else ""
    print(f"  {check_name(name):34s} {value:14.6g} {unit:14s} {domain:6s} {note}")


def run_untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUPS - 1):
        spawned, res = spawn(args, deadline, "--setup-only")
        setups.append(res["ready_at"] - spawned)
    spawned, res = spawn(args, deadline)
    setups.append(res["ready_at"] - spawned)
    if "e2e" not in res:
        raise BenchError("no timed operation completed")
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        **res["e2e"],
    }
    show("setup_s", metrics["setup_s"], "s", "wall", f"n={len(setups)}")
    show("warmup_s", res["warmup_s"], "s", "wall", "n=1, not in setup_s")
    show("peak_rss_mb", res["peak_rss_mb"], "MB")
    for name, value, unit, note in res["report"]:
        show(name, value, unit, "wall", note)
    return metrics, res


def run_traced(args, deadline: float) -> tuple[dict, list[dict]]:
    _, plain = spawn(args, deadline, "--fixed")
    _, traced = spawn(args, deadline, "--fixed", "--trace")
    if "layers" not in traced:
        raise BenchError("the traced run produced no per-layer metrics")
    metrics = dict(traced["layers"])
    metrics["trace_overhead_frac"] = traced["timed_s"] / plain["timed_s"] - 1.0
    for name, unit, _ in PER_LAYER:
        domain = "sim" if "sim" in unit else "wall" if unit == "s" else ""
        show(name, metrics[name], unit, domain)
    plain["run"], traced["run"] = "untraced", "traced"
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + BUDGET_S
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            metrics, results = run_traced(args, deadline)
            declared = PER_LAYER
        else:
            metrics, res = run_untraced(args, deadline)
            results = [res]
            declared = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    first = results[0]
    env = {**first["env"], "workers": first["workers"], "kernel": first["kernel"]}
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    show("failed_frac", failed / max(1, attempted), "ratio",
         note=f"{failed} of {attempted} operations")
    for r in results:
        for note in r["notes"]:
            print(f"  check ({r.get('run', 'untraced')}): {note}")
    units = {entry[0]: entry[1] for entry in declared}
    values = {name: metrics[name] for name in units}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
