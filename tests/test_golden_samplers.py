"""Golden regression tests: fixed-seed sampler runs have pinned outputs.

Kernel backends are allowed to differ in floating-point summation order,
but on the integer-valued probability matrices the built-in samplers
produce (neighbor counts, squared counts, exact divisions) every backend
must yield *bit-identical* sampled minibatches.  These tests pin the full
bulk output of each built-in sampler — frontier ids, per-layer adjacency
structure and values — as a digest, and assert it

1. is identical under every registered kernel backend (a kernel swap can
   never silently change sampling semantics), and
2. matches a recorded golden constant (any change to sampler logic or the
   RNG consumption pattern is loud, not silent).

If a deliberate sampler change invalidates a golden, regenerate with::

    PYTHONPATH=src python tests/test_golden_samplers.py --regen
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    FastGCNSampler,
    GraphSaintRWSampler,
    LadiesSampler,
    SageSampler,
)
from repro.core.compile import optimize
from repro.core.plan import LocalExecutor
from repro.graphs import rmat
from repro.sparse import KERNELS, get_kernel

SEED = 42
N_BATCHES = 6
BATCH_SIZE = 24

#: (name, factory, fanout) for every built-in sampler, training-shaped.
SAMPLER_CASES = [
    ("sage", lambda kernel: SageSampler(include_dst=True, kernel=kernel), (5, 3)),
    (
        "ladies",
        lambda kernel: LadiesSampler(include_dst=True, kernel=kernel),
        (32,),
    ),
    (
        "fastgcn",
        lambda kernel: FastGCNSampler(include_dst=True, kernel=kernel),
        (32,),
    ),
    (
        "saint",
        lambda kernel: GraphSaintRWSampler(walk_length=3, kernel=kernel),
        (3, 3),
    ),
]

#: Pinned digests of each sampler's full bulk output (see _bulk_digest).
GOLDEN_DIGESTS = {
    "sage": "2cef8be724c9b6ccfba7cd86bd7639e72bb8e07afef9788be3f139f2930e9535",
    "ladies": "5b1d2b40f518693813af57afd4be00f631dd2b6fdec4a0a76bbf686a09a16057",
    "fastgcn": "55577a0c1d7fbf92e2b21031fb5525b3dd5276987336c4940a0ae7ef808fbf0f",
    "saint": "3144055fffd1d93086a7c05dc7a18910a3bee5fbfdf061d9bbd7ba329a002662",
}


def _graph_and_batches():
    rng = np.random.default_rng(SEED)
    adj = rmat(9, 8, rng)
    batches = [
        rng.choice(adj.shape[0], BATCH_SIZE, replace=False)
        for _ in range(N_BATCHES)
    ]
    return adj, batches


def _bulk_digest(samples) -> str:
    """A canonical sha256 over every array of a bulk's minibatches."""
    h = hashlib.sha256()
    for mb in samples:
        h.update(np.ascontiguousarray(mb.batch, dtype=np.int64).tobytes())
        for layer in mb.layers:
            for arr in (
                layer.adj.indptr,
                layer.adj.indices,
                layer.adj.data,
                np.asarray(layer.src_ids, dtype=np.int64),
                np.asarray(layer.dst_ids, dtype=np.int64),
            ):
                h.update(np.ascontiguousarray(arr).tobytes())
            h.update(repr(layer.adj.shape).encode())
    return h.hexdigest()


def _run(name: str, kernel: str) -> str:
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    sampler = factory(kernel)
    samples = sampler.sample_bulk(
        adj, batches, fanout, np.random.default_rng(SEED)
    )
    assert len(samples) == N_BATCHES
    return _bulk_digest(samples)


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_kernels_sample_identically(name):
    """Swapping the kernel backend never changes what gets sampled."""
    digests = {kernel: _run(name, kernel) for kernel in KERNELS.names()}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_golden_digest(name):
    """Fixed-seed output matches the recorded golden, on every backend."""
    golden = GOLDEN_DIGESTS[name]
    for kernel in KERNELS.names():
        assert _run(name, kernel) == golden, (name, kernel)


@pytest.mark.parametrize("name", [c[0] for c in SAMPLER_CASES])
def test_golden_digest_compiled(name):
    """Every plan is compiled: ``sample_bulk`` runs ``optimize(plan)``
    (dead-step elimination, fused PROB+NORM / SAMPLE+EXTRACT).  Run by the
    one :class:`LocalExecutor`, both the optimized and the plain plan
    reproduce every golden digest bit for bit — the optimizer changes
    execution, never output."""
    adj, batches = _graph_and_batches()
    factory = dict((n, f) for n, f, _ in SAMPLER_CASES)[name]
    fanout = dict((n, fo) for n, _, fo in SAMPLER_CASES)[name]
    sampler = factory(None)
    plan = sampler.plan(fanout)
    assert optimize(plan).steps != plan.steps
    for program in (plan, optimize(plan)):
        ex = LocalExecutor(
            sampler, adj, batches, np.random.default_rng(SEED),
            get_kernel("esc").spgemm,
        )
        assert _bulk_digest(ex.run(program)) == GOLDEN_DIGESTS[name]


def test_run_twice_is_deterministic():
    """Same seed, same process: byte-identical output (no hidden state)."""
    for name in GOLDEN_DIGESTS:
        assert _run(name, "esc") == _run(name, "esc")


if __name__ == "__main__":  # golden regeneration helper
    import sys

    if "--regen" in sys.argv:
        for name in GOLDEN_DIGESTS:
            print(f'    "{name}": "{_run(name, "esc")}",')
    else:
        print(__doc__)
