"""Dense complex Hermitian kernel for small matrices (dimension <= 6).

Provides the eigendecomposition (LAPACK's Hermitian solver through
``numpy.linalg.eigh``) and projection onto the positive semidefinite
cone (keep the eigenpairs with strictly positive eigenvalues). Both take
one matrix or a stack of shape (..., n, n), so the x-step projects all
blocks of one size in one call: the 2 x 2 blocks of single-phase buses
in closed form, larger ones through ``eigh``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eigh",
    "psd_project",
]

_EYE2 = np.eye(2)


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def eigh(w) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and the matching orthonormal columns
    of a Hermitian matrix, or of each in a stack, by LAPACK.

    LAPACK reads one triangle only, so the input is first symmetrized as
    (a + a^H)/2.
    """
    a = np.asarray(w, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigh(0.5 * (a + _adjoint(a)))


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
    try:
        values, u = eigh(w)
    except np.linalg.LinAlgError:
        # LAPACK may fail to converge on a non-finite input: project it to NaN
        if np.isfinite(w).all():
            raise
        return np.full(w.shape, complex(np.nan, np.nan))
    kept = np.maximum(values, 0.0)  # NaN stays NaN
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
