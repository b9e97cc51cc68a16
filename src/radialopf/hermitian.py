"""Dense complex Hermitian kernel for small matrices (dimension <= 6).

Provides the storage type, the real inner product <x, y> = Re(tr(x^H y)),
the eigendecomposition (LAPACK's Hermitian solver through
``numpy.linalg.eigh``), and projection onto the positive semidefinite
cone (keep the eigenpairs with strictly positive eigenvalues).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HermitianMatrix",
    "EigenDecomposition",
    "inner",
    "eigh",
    "psd_project",
]


@lru_cache(maxsize=None)
def _index_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions in the float view (re, im interleaved) of an n x n matrix.

    ``lower`` lists, in params order, the real diagonal and then (re, im)
    of each strict lower-triangle entry; ``upper`` lists the mirrored
    entries, and ``sign`` conjugates them.
    """
    pairs = [(i, j) for i in range(1, n) for j in range(i)]
    lower = [2 * i * (n + 1) for i in range(n)]
    upper = []
    for i, j in pairs:
        lower += [2 * (i * n + j), 2 * (i * n + j) + 1]
        upper += [2 * (j * n + i), 2 * (j * n + i) + 1]
    maps = (
        np.array(lower, dtype=np.intp),
        np.array(upper, dtype=np.intp),
        np.tile([1.0, -1.0], len(pairs)),
    )
    for arr in maps:  # the cache hands the same arrays to every caller
        arr.flags.writeable = False
    return maps


class HermitianMatrix:
    """Hermitian matrix stored by its n^2 real parameters.

    Layout: the n real diagonal entries first, then (re, im) of each strict
    lower-triangle entry in row-major order. Hermitian symmetry is a
    property of the storage, not something validated per operation, so it
    cannot drift across repeated arithmetic.
    """

    __slots__ = ("n", "params")

    def __init__(self, n: int, params: np.ndarray):
        params = np.asarray(params, dtype=float)
        if params.shape != (n * n,):
            raise ValueError(f"expected {n * n} parameters, got {params.shape}")
        self.n = n
        self.params = params

    @classmethod
    def zeros(cls, n: int) -> "HermitianMatrix":
        return cls(n, np.zeros(n * n))

    @classmethod
    def from_matrix(cls, a) -> "HermitianMatrix":
        """Build from a (numerically) Hermitian array.

        Equivalent to storing (a + a^H)/2: symmetric parts are averaged
        and the imaginary diagonal dust is dropped, which is exact for
        exactly-Hermitian input.
        """
        a = np.ascontiguousarray(a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        lower, upper, sign = _index_maps(n)
        flat = a.reshape(-1).view(float)
        params = flat[lower]
        params[n:] = 0.5 * (params[n:] + sign * flat[upper])
        return cls(n, params)

    def to_matrix(self) -> np.ndarray:
        n = self.n
        lower, upper, sign = _index_maps(n)
        a = np.zeros((n, n), dtype=complex)
        flat = a.reshape(-1).view(float)
        flat[lower] = self.params
        flat[upper] = sign * self.params[n:]
        return a

    def __repr__(self) -> str:
        return f"HermitianMatrix(n={self.n})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending and the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def inner(x, y) -> float:
    """Real inner product Re(tr(x^H y)) of two equal-shape complex arrays."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.vdot(x, y).real)


def eigh(w) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK.

    LAPACK reads one triangle only, so the input is first symmetrized as
    (a + a^H)/2; a HermitianMatrix is exactly Hermitian already.
    """
    if isinstance(w, HermitianMatrix):
        a = w.to_matrix()
    else:
        a = np.asarray(w, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        a = 0.5 * (a + a.conj().T)
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values[::-1], vectors[:, ::-1])


def psd_project(w) -> HermitianMatrix:
    """Nearest positive semidefinite matrix in Frobenius distance.

    Keeps exactly the eigenpairs with strictly positive eigenvalues:
    X = sum_{lambda_i > 0} lambda_i u_i u_i^H. Thresholding with
    tolerances is left to callers; the kernel follows the definition.
    """
    dec = eigh(w)
    # eigenvalues are descending, so the kept pairs are a leading prefix
    k = np.count_nonzero(dec.eigenvalues > 0.0)
    if k == 0:
        return HermitianMatrix.zeros(dec.eigenvectors.shape[0])
    u = dec.eigenvectors[:, :k]
    x = (u * dec.eigenvalues[:k]) @ u.conj().T
    return HermitianMatrix.from_matrix(x)
