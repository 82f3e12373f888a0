"""Statistics, naming and environment helpers shared by the benchmark.

Kept free of numpy and of the ``repro`` package at import time, so
``run.py`` can import it before it knows whether the checkout holds a
program at all.
"""

from __future__ import annotations

import math
import os
import platform
import re
from statistics import median  # noqa: F401 - the benchmark's median

#: Metric names may use only these characters (dots separate the layer,
#: the entry point and the quantity, as in ``sparse.spmm.s``).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; otherwise the run was too short to support it.
MIN_BEYOND = 10

#: OpenBLAS threads of a measured process: one is at most ``nproc`` on any
#: host and keeps timings free of BLAS thread scheduling on a shared machine.
BLAS_THREADS = 1


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not NAME_RE.match(name):
        raise ValueError(
            f"metric name {name!r} must start with a letter or digit and "
            f"use at most 64 of [A-Za-z0-9_.-]"
        )
    return name


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return data[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return beyond(n, q) >= MIN_BEYOND


def min_samples(q: float) -> int:
    """The fewest samples that support the ``q``-th percentile."""
    n = 1
    while not supports(n, q):
        n += 1
    return n


def child_env(src_dir: str) -> dict[str, str]:
    """Environment of a measured process: pinned BLAS threads, the
    checkout's ``src`` first on the import path, tracing off."""
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = src_dir
    env.pop("REPRO_TRACE", None)
    return env


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def env_stamp() -> dict[str, object]:
    """The machine and library versions a measured process ran under.

    Called inside the measured process, after numpy/scipy import, so it
    records what was actually loaded.
    """
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "cpu_count": cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "openblas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


# ---------------------------------------------------------------------- #
# The workloads and metrics BENCHMARK.json declares
# ---------------------------------------------------------------------- #
WORKLOAD_NAMES = ("train-sage", "sample-bulk", "serve-exact", "serve-churn")

#: End-to-end metrics of an untraced run, all wall-clock: (name, unit,
#: better, bound).  Every workload reports every one of them:
#: ``work_per_s`` is its own work rate (training seeds, sampled minibatches
#: or served requests per second) and ``op_ms.p50`` the median wall time
#: of its repeated operation (an epoch, a bulk, a micro-batch).  The time
#: bounds are wide because a shared 2-core host's speed drifts by about
#: 15% over seconds to minutes.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
]

_LAYER_SELF = ("api", "core", "sparse", "gnn", "partition", "serve", "stream")
_STEPS = ("prob", "norm", "sample", "extract", "prob_norm", "sample_extract")
_PHASES = ("sampling", "feature_fetch", "propagation")

#: Per-layer metrics of a traced run: (name, unit, better).  Wall seconds
#: use ``s``; simulated quantities carry ``sim`` in their unit.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in _LAYER_SELF]
    + [
        ("pipeline.epoch.self_s", "s", "lower"),
        ("bench.self_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.accounted_frac", "ratio", "higher"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("sparse.spmm.s", "s", "lower"),
        ("sparse.spmm.calls", "count", "lower"),
        ("sparse.spmm.nnz", "count", "lower"),
        ("sparse.transpose.s", "s", "lower"),
        ("gnn.forward.s", "s", "lower"),
        ("gnn.backward.s", "s", "lower"),
        ("gnn.optim.s", "s", "lower"),
        ("gnn.infer.s", "s", "lower"),
        ("core.sample_bulk.s", "s", "lower"),
        ("core.sample_bulk.calls", "count", "lower"),
        ("core.sampled_edges", "count", "lower"),
    ]
    + [(f"core.step.{step}.s", "s", "lower") for step in _STEPS]
    + [
        ("partition.fetch.s", "s", "lower"),
        ("partition.fetch.rows", "count", "lower"),
        ("serve.serve_batch.s", "s", "lower"),
        ("serve.targets_per_batch", "count", "higher"),
        ("serve.embed_cache.s", "s", "lower"),
        ("serve.embed_cache.hit_ratio", "ratio", "higher"),
        ("serve.embed_cache.invalidations", "count", "lower"),
        ("serve.absorb_update.s", "s", "lower"),
        ("stream.apply.s", "s", "lower"),
        ("stream.compact.s", "s", "lower"),
        ("stream.compactions", "count", "lower"),
        ("stream.dirty_vertices", "count", "lower"),
        ("graphs.load_s", "s", "lower"),
        ("comm.sim_bytes_sent", "sim_bytes", "lower"),
    ]
    + [(f"pipeline.wall_s.{phase}", "s", "lower") for phase in _PHASES]
    + [(f"pipeline.sim_s.{phase}", "sim_s", "lower") for phase in _PHASES]
    + [(f"pipeline.sim_over_wall.{phase}", "sim/wall", "lower") for phase in _PHASES]
)
