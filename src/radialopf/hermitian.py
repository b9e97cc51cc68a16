"""Dense complex Hermitian kernel for small matrices (dimension <= 6).

Provides the real inner product <x, y> = Re(tr(x^H y)), the
eigendecomposition (LAPACK's Hermitian solver through
``numpy.linalg.eigh``), and projection onto the positive semidefinite
cone (keep the eigenpairs with strictly positive eigenvalues).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "inner",
    "eigh",
    "psd_project",
]


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
    (a + a^H)/2.
    """
    a = np.asarray(w, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = 0.5 * (a + a.conj().T)
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values[::-1], vectors[:, ::-1])


def psd_project(w) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius distance.

    Keeps exactly the eigenpairs with strictly positive eigenvalues:
    X = sum_{lambda_i > 0} lambda_i u_i u_i^H, returned exactly Hermitian
    as (X + X^H)/2. Thresholding with tolerances is left to callers; the
    kernel follows the definition.
    """
    dec = eigh(w)
    # eigenvalues are descending, so the kept pairs are a leading prefix
    k = np.count_nonzero(dec.eigenvalues > 0.0)
    u = dec.eigenvectors[:, :k]
    x = (u * dec.eigenvalues[:k]) @ u.conj().T
    return 0.5 * (x + x.conj().T)
