import numpy as np
import pytest

from radialopf.hermitian import HermitianMatrix, eigh, inner, psd_project


def random_hermitian(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (b + b.conj().T)


def random_psd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T


def test_inner_identity():
    assert inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_inner_is_squared_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert inner(x, x) == pytest.approx(np.linalg.norm(x) ** 2)
        assert inner(x, x) >= 0.0


def test_inner_traceless_pair():
    x = np.array([[0.0, 1j], [-1j, 0.0]])
    assert inner(x, np.eye(2)) == pytest.approx(0.0)


def test_inner_shape_mismatch():
    with pytest.raises(ValueError):
        inner(np.eye(2), np.eye(3))


def test_storage_round_trip():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        a = random_hermitian(rng, n)
        h = HermitianMatrix.from_matrix(a)
        back = h.to_matrix()
        assert np.allclose(back, a, atol=1e-15)
        # storage is Hermitian by construction, not by approximation
        assert np.array_equal(back, back.conj().T)


def test_storage_symmetrizes_dust():
    a = np.array([[1.0 + 1e-18j, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
    h = HermitianMatrix.from_matrix(a)
    m = h.to_matrix()
    assert m[0, 0] == 1.0
    assert m[1, 0] == np.conj(m[0, 1])


def test_storage_layout_worked_example():
    # diagonal first, then (re, im) of the strict lower triangle row by row:
    # a[1,0] = 2+3j, a[2,0] = 4-5j, a[2,1] = 7+8j
    a = np.array(
        [[1.0, 2 - 3j, 4 + 5j], [2 + 3j, 6.0, 7 - 8j], [4 - 5j, 7 + 8j, 9.0]]
    )
    h = HermitianMatrix.from_matrix(a)
    assert np.array_equal(h.params, [1.0, 6.0, 9.0, 2.0, 3.0, 4.0, -5.0, 7.0, 8.0])
    assert np.array_equal(h.to_matrix(), a)


def test_eigh_identity():
    dec = eigh(np.eye(3, dtype=complex))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_eigh_2x2_exchange():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(dec.eigenvalues, [1.0, -1.0])
    u_plus = dec.eigenvectors[:, 0]
    u_minus = dec.eigenvectors[:, 1]
    assert abs(abs(np.vdot(u_plus, [1, 1] / np.sqrt(2))) - 1.0) < 1e-12
    assert abs(abs(np.vdot(u_minus, [1, -1] / np.sqrt(2))) - 1.0) < 1e-12


def test_eigh_2x2_matches_characteristic_roots():
    # for 2x2 Hermitian [[a, b], [conj(b), d]] the roots are
    # (a+d)/2 +- sqrt(((a-d)/2)^2 + |b|^2)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, d = rng.standard_normal(2)
        b = complex(*rng.standard_normal(2))
        mean = 0.5 * (a + d)
        gap = np.hypot(0.5 * (a - d), abs(b))
        dec = eigh(np.array([[a, b], [np.conj(b), d]]))
        assert dec.eigenvalues[0] == pytest.approx(mean + gap, abs=1e-12)
        assert dec.eigenvalues[1] == pytest.approx(mean - gap, abs=1e-12)


def test_eigh_reconstruction_and_unitarity():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for _ in range(40):
            a = random_hermitian(rng, n)
            dec = eigh(a)
            assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_eigh_cross_check_against_lapack():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        for _ in range(50):
            a = random_hermitian(rng, n)
            ours = eigh(a).eigenvalues
            ref = np.linalg.eigvalsh(a)[::-1]
            assert np.allclose(ours, ref, atol=1e-11)


def test_eigh_symmetrizes_input():
    # LAPACK reads one triangle, so eigh must decompose (a + a^H)/2 exactly
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for _ in range(20):
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = random_hermitian(rng, n) + 1e-14 * noise
            assert not np.array_equal(a, a.conj().T)
            ours = eigh(a)
            ref = eigh(0.5 * (a + a.conj().T))
            assert np.array_equal(ours.eigenvalues, ref.eigenvalues)
            assert np.array_equal(ours.eigenvectors, ref.eigenvectors)


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones((2, 3), dtype=complex))


def test_psd_project_fixed_point():
    rng = np.random.default_rng(23)
    for n in (2, 3, 6):
        a = random_psd(rng, n)
        x = psd_project(a).to_matrix()
        assert np.linalg.norm(x - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_psd_project_diagonal():
    x = psd_project(np.diag([2.0, -3.0]).astype(complex)).to_matrix()
    assert np.allclose(x, np.diag([2.0, 0.0]))


def test_psd_project_exchange_matrix():
    x = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)).to_matrix()
    assert np.allclose(x, np.full((2, 2), 0.5), atol=1e-14)


def test_psd_project_idempotent():
    rng = np.random.default_rng(29)
    for n in range(2, 7):
        w = random_hermitian(rng, n)
        once = psd_project(w)
        twice = psd_project(once)
        assert np.linalg.norm(once.to_matrix() - twice.to_matrix()) <= 1e-10


def test_psd_project_minimizer_and_value():
    # projection beats random PSD candidates and attains
    # ||X - W||^2 = sum of squared nonpositive eigenvalues
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = random_hermitian(rng, n)
        x = psd_project(w).to_matrix()
        dist = np.linalg.norm(x - w)
        lams = np.linalg.eigvalsh(w)
        assert dist**2 == pytest.approx(float(np.sum(lams[lams <= 0] ** 2)), abs=1e-8)
        for _ in range(20):
            y = random_psd(rng, n)
            assert dist <= np.linalg.norm(y - w) + 1e-9


def test_psd_project_output_is_psd():
    rng = np.random.default_rng(37)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        w = random_hermitian(rng, n)
        x = psd_project(w).to_matrix()
        assert np.linalg.eigvalsh(x).min() >= -1e-10
