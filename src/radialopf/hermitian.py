"""Dense complex Hermitian kernel for small matrices (dimension <= 6).

Provides the eigendecomposition (LAPACK's Hermitian solver through
``numpy.linalg.eigh``) and projection onto the positive semidefinite
cone (keep the eigenpairs with strictly positive eigenvalues). Both take
one matrix or a stack of shape (..., n, n), so the x-step projects all
blocks of one size in one call: the 2 x 2 blocks of single-phase buses
in closed form, larger ones through ``eigh``. As LAPACK, both read a
matrix's upper triangle alone, with its diagonal taken as real.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eigh",
    "psd_project",
]


def eigh(w) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and the matching orthonormal columns
    of a Hermitian matrix, or of each in a stack, by LAPACK, which reads
    the upper triangle (``UPLO="U"``), a finite imaginary diagonal ignored."""
    a = np.asarray(w, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigh(a, UPLO="U")


def psd_project(w) -> np.ndarray:
    """Nearest positive semidefinite matrix in Frobenius distance, per matrix.

    Keeps exactly the eigenpairs with strictly positive eigenvalues of the
    Hermitian matrix W that the upper triangle defines (the diagonal taken
    as real, the strict lower triangle unread), X = sum_{lambda_i > 0}
    lambda_i u_i u_i^H, and returns X exactly Hermitian with a real
    diagonal. 2 x 2 blocks take a closed form; larger ones are decomposed
    by ``eigh`` with the other eigenvalues masked to zero, so a stack is
    projected in one product. Thresholding with tolerances is left to
    callers; the kernel follows the definition. The contract holds for
    finite input: the 2 x 2 form never reads the imaginary diagonal, but
    LAPACK may read a NaN there.
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
        if np.isfinite(np.triu(w)).all():
            raise
        return np.full(w.shape, complex(np.nan, np.nan))
    kept = np.maximum(values, 0.0)  # NaN stays NaN
    x = (u * kept[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def _psd_project_2x2(w: np.ndarray) -> np.ndarray:
    """The target [[a, b], [conj(b), d]], a = Re w00, d = Re w11, b = w01,
    has the eigenvalues t +- r, t = (a + d)/2, r = hypot((a - d)/2, |b|).
    It is kept if t - r >= 0, zeroed if t + r <= 0, and else (t + r) u u^H
    is (t + r)/(2r) times the target shifted by -(t - r) I: all three are
    c * (target - s I), with c = (t + r)/(2r) clipped to [0, 1] (1 if
    r = 0) and s = min(t - r, 0).
    """
    a, d, b = w[..., 0, 0].real, w[..., 1, 1].real, w[..., 0, 1]
    t = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), np.abs(b))
    c = np.divide(t + r, 2.0 * r, out=np.ones_like(r), where=r > 0.0)
    c = np.minimum(np.maximum(c, 0.0), 1.0)
    s = np.minimum(t - r, 0.0)
    x = np.empty(w.shape, dtype=complex)
    x[..., 0, 0], x[..., 0, 1], x[..., 1, 1] = c * (a - s), c * b, c * (d - s)
    x[..., 1, 0] = x[..., 0, 1].conj()
    return x
