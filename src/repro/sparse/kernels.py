"""Pluggable sparse-kernel backends: the :data:`KERNELS` registry.

The hot path of the whole reproduction — bulk matrix-based sampling — is a
handful of sparse kernels (SpGEMM, SpMM, SDDMM).  This module makes the
kernel implementation a pluggable axis, exactly like samplers, execution
algorithms and datasets: a :class:`KernelBackend` bundles one
implementation of each kernel, and the :data:`KERNELS` registry (the same
generic :class:`~repro.api.registry.Registry` the other axes use) maps
names to backend instances.

Built-ins:

* ``esc`` — the expand-sort-compress numpy kernel the reproduction started
  with (global lexsort of the expanded intermediate).  The default.
* ``hash`` — a row-wise hash-accumulator SpGEMM that skips the global sort;
  wins on the duplicate-heavy frontier products samplers produce.
* ``scipy`` — auto-registered only when ``scipy`` is importable; delegates
  to ``scipy.sparse``'s compiled CSR kernels.

The backend picks only the general SpGEMM.  :meth:`KernelBackend.spgemm`
first takes the row-gather fast path shared by every backend: when the
left operand is a unit row selector (one ``1.0`` per row — GraphSAGE's
``Q``, LADIES' ``Q_R``, every SAINT walk frontier), the product is a row
gather of the right operand, bit-identical to any general kernel.  How a
sampling plan runs is not a kernel property: every plan is optimized
(:func:`repro.core.compile.optimize`) and run by the one executor per
grid, whatever the backend.

Selection is threaded everywhere a kernel runs: ``CSRMatrix.__matmul__``
dispatches through the process-wide default (:func:`set_default_kernel`,
:func:`use_kernel`), samplers take ``kernel=`` at construction,
``spgemm_15d`` takes ``kernel=``, ``RunConfig`` carries a ``kernel`` field,
and the CLI exposes ``--kernel``.  Registering a custom backend makes it
available to all of them at once::

    from repro.sparse.kernels import KERNELS, KernelBackend

    class MyKernel(KernelBackend):
        name = "mine"
        def general_spgemm(self, a, b):
            ...

    KERNELS.register("mine", MyKernel(), description="...")
    # now valid: RunConfig(kernel="mine"), repro train --kernel mine

Every backend must be *semantically interchangeable*: identical results up
to floating-point summation order (enforced by the cross-backend
equivalence suite in ``tests/test_kernel_equivalence.py`` and the golden
sampler-determinism tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Union

import numpy as np

# repro.api.registry is a standalone module (no repro imports), so pulling
# it from here cannot cycle even while repro.api's own __init__ is still
# executing higher up the import chain.
from ..api.registry import Registry
from .csr import CSRMatrix
from .spgemm import spgemm, spgemm_hash
from .spmm import dense_operand, sddmm, spmm

__all__ = [
    "KERNELS",
    "KernelBackend",
    "ESCKernel",
    "HashKernel",
    "ScipyKernel",
    "KernelSpec",
    "get_kernel",
    "default_kernel",
    "set_default_kernel",
    "use_kernel",
]


def _is_unit_row_selector(q: CSRMatrix) -> bool:
    """True iff every row of ``q`` holds exactly one entry of value 1.0."""
    return (
        q.nnz == q.shape[0]
        and bool(np.all(np.diff(q.indptr) == 1))
        and bool(np.all(q.data == 1.0))
    )


class KernelBackend:
    """One interchangeable set of sparse kernels.

    Subclasses must implement :meth:`general_spgemm`; :meth:`spmm` and
    :meth:`sddmm` default to the shared numpy kernels, since SpGEMM is
    where implementations meaningfully diverge.  Backends are stateless —
    the registry stores one instance, shared by every caller.
    """

    name: str = "abstract"

    def spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        """Sparse @ sparse -> sparse (duplicates summed).

        When ``a`` is a unit row selector, output row ``i`` is
        ``1.0 * b[a.indices[i]]``: one source row, nothing to accumulate,
        ``1.0 * x == x`` exactly, and ``b``'s canonical column order kept.
        The product is then a row gather, bit-identical to every general
        kernel.  Everything else goes to :meth:`general_spgemm`.
        """
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
        if _is_unit_row_selector(a):
            return b.extract_rows(a.indices)
        return self.general_spgemm(a, b)

    def general_spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        """The backend's own SpGEMM, for any pair of operands."""
        raise NotImplementedError

    def spmm(self, a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
        """Sparse @ dense -> dense (1-D right operand allowed)."""
        return spmm(a, dense)

    def sddmm(
        self, pattern: CSRMatrix, x: np.ndarray, y: np.ndarray
    ) -> CSRMatrix:
        """Dense-dense product sampled at the pattern's nonzeros."""
        return sddmm(pattern, x, y)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ESCKernel(KernelBackend):
    """Expand-sort-compress: the original numpy kernel (global lexsort)."""

    name = "esc"

    def general_spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        return spgemm(a, b)


class HashKernel(KernelBackend):
    """Row-wise hash accumulator: sorts only the distinct output entries."""

    name = "hash"

    def general_spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        return spgemm_hash(a, b)


class ScipyKernel(KernelBackend):
    """Delegates to scipy.sparse's compiled CSR kernels (when available)."""

    name = "scipy"

    def general_spgemm(self, a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
        if a.nnz == 0 or b.nnz == 0:
            return CSRMatrix.zeros((a.shape[0], b.shape[1]))
        return CSRMatrix.from_scipy(a.to_scipy() @ b.to_scipy())

    def spmm(self, a: CSRMatrix, dense: np.ndarray) -> np.ndarray:
        dense, squeeze = dense_operand(a, dense)
        out = np.asarray(a.to_scipy() @ dense, dtype=np.float64)
        return out[:, 0] if squeeze else out


#: All registered kernel backends, built-in and plugin.
KERNELS = Registry("kernel")

KERNELS.register(
    "esc",
    ESCKernel(),
    description="expand-sort-compress (global lexsort); the default",
    requires=None,
)
KERNELS.register(
    "hash",
    HashKernel(),
    description="row-wise hash accumulator; fast on duplicate-heavy products",
    requires=None,
)


def _scipy_available() -> bool:
    try:
        import scipy.sparse  # noqa: F401
    except Exception:
        return False
    return True


if _scipy_available():
    KERNELS.register(
        "scipy",
        ScipyKernel(),
        description="scipy.sparse compiled CSR kernels",
        requires="scipy",
    )


#: Anything resolvable to a backend: a registry name, an instance, or None
#: (= the process-wide default).
KernelSpec = Union[str, KernelBackend, None]

_default_name = "esc"


def get_kernel(spec: KernelSpec = None) -> KernelBackend:
    """Resolve a kernel selection to a backend instance.

    ``None`` means the process-wide default; a string is a registry lookup
    (raising with the known names listed on a typo); a backend instance
    passes through, so callers can hand in unregistered ad-hoc backends.
    """
    if spec is None:
        return KERNELS.get(_default_name)
    if isinstance(spec, KernelBackend):
        return spec
    return KERNELS.get(spec)


def default_kernel() -> KernelBackend:
    """The backend ``CSRMatrix.__matmul__`` (and every unparameterized
    call site) currently dispatches to."""
    return KERNELS.get(_default_name)


def set_default_kernel(name: str) -> None:
    """Set the process-wide default backend (must be registered)."""
    global _default_name
    KERNELS.spec(name)  # raises RegistryKeyError with known names on typo
    _default_name = name


@contextmanager
def use_kernel(name: str) -> Iterator[KernelBackend]:
    """Temporarily switch the process-wide default backend::

        with use_kernel("hash"):
            p = q @ adj  # dispatches to the hash SpGEMM
    """
    global _default_name
    KERNELS.spec(name)
    previous = _default_name
    _default_name = name
    try:
        yield KERNELS.get(name)
    finally:
        _default_name = previous
