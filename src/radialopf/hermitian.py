"""Dense complex Hermitian kernel for small matrices (dimension <= 6).

Provides the real inner product <x, y> = Re(tr(x^H y)), the
eigendecomposition (LAPACK's Hermitian solver through
``numpy.linalg.eigh``), and projection onto the positive semidefinite
cone (keep the eigenpairs with strictly positive eigenvalues). The
decomposition and the projection take one matrix or a stack of shape
(..., n, n), so the x-step projects all blocks of one size in one call:
the 2 x 2 blocks of single-phase buses in closed form, without ``eigh``.
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

_EYE2 = np.eye(2)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending and the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues[..., None, :]) @ _adjoint(u)


def inner(x, y) -> float:
    """Real inner product Re(tr(x^H y)) of two equal-shape complex arrays."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.vdot(x, y).real)


def eigh(w) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack, by LAPACK.

    LAPACK reads one triangle only, so the input is first symmetrized as
    (a + a^H)/2.
    """
    a = np.asarray(w, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a = 0.5 * (a + _adjoint(a))
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(values[..., ::-1], vectors[..., ::-1])


def psd_project(w) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius distance, per matrix.

    Keeps exactly the eigenpairs of (W + W^H)/2 with strictly positive
    eigenvalues, X = sum_{lambda_i > 0} lambda_i u_i u_i^H, and returns it
    exactly Hermitian with a real diagonal. 2 x 2 blocks take a closed
    form; larger ones are decomposed by ``eigh`` with the other eigenvalues
    masked to zero, so a stack is projected in one product. The x-step's
    targets are Hermitian only to rounding, so the symmetrization is part
    of the result. Thresholding with tolerances is left to callers; the
    kernel follows the definition.
    """
    a = np.asarray(w, dtype=complex)
    if a.shape[-2:] == (2, 2):
        return _psd_project_2x2(a)
    return _psd_project_eigh(a)


def _psd_project_eigh(w: np.ndarray) -> np.ndarray:
    dec = eigh(w)
    kept = np.maximum(dec.eigenvalues, 0.0)  # NaN stays NaN
    u = dec.eigenvectors
    x = (u * kept[..., None, :]) @ _adjoint(u)
    return 0.5 * (x + _adjoint(x))


def _psd_project_2x2(w: np.ndarray) -> np.ndarray:
    """The Hermitian part [[a, b], [conj(b), d]] has the eigenvalues t +- r,
    t = (a + d)/2, r = hypot((a - d)/2, |b|). It is kept if t - r >= 0,
    zeroed if t + r <= 0, and else (t + r) u u^H is (t + r)/(2r) times the
    block shifted by -(t - r) I: all three are c * (block - s I), with
    c = (t + r)/(2r) clipped to [0, 1] (1 if r = 0) and s = min(t - r, 0).
    """
    x = 0.5 * (w + _adjoint(w))
    a, d = x[..., 0, 0].real, x[..., 1, 1].real
    t = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(x[..., 0, 1]))
    c = np.divide(t + r, 2.0 * r, out=np.ones_like(r), where=r > 0.0)
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    s = np.minimum(t - r, 0.0)
    return c[..., None, None] * (x - s[..., None, None] * _EYE2)
