import math

import numpy as np
import pytest

from conftest import inner

from radialopf import hermitian
from radialopf.hermitian import _psd_project_eigh, eigh, psd_project
from radialopf.subproblems import solve_x0_matrix


def random_hermitian(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (b + b.conj().T)


def random_psd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T


# ``inner`` is the tests' oracle for the penalty terms (see conftest)


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


def test_storage_symmetrizes_dust():
    # triangles that differ by ~1e-14 still project to an exactly Hermitian X
    rng = np.random.default_rng(43)
    for n in range(1, 7):
        for _ in range(20):
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = random_hermitian(rng, n) + 1e-14 * noise
            assert not np.array_equal(a, a.conj().T)
            x = psd_project(a)
            assert np.array_equal(x, x.conj().T)
            assert np.all(x.diagonal().imag == 0.0)


def test_eigh_identity():
    values, _ = eigh(np.eye(3, dtype=complex))
    assert np.allclose(values, [1.0, 1.0, 1.0])


def test_eigh_2x2_exchange():
    values, vectors = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(values, [-1.0, 1.0])
    u_minus = vectors[:, 0]
    u_plus = vectors[:, 1]
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
        values, _ = eigh(np.array([[a, b], [np.conj(b), d]]))
        assert values[0] == pytest.approx(mean - gap, abs=1e-12)
        assert values[1] == pytest.approx(mean + gap, abs=1e-12)


def test_eigh_reconstruction_and_unitarity():
    rng = np.random.default_rng(5)
    for n in range(2, 7):
        for _ in range(40):
            a = random_hermitian(rng, n)
            w, u = eigh(a)
            assert np.linalg.norm((u * w) @ u.conj().T - a) <= 1e-10
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            assert np.all(np.diff(w) >= -1e-12)


def test_eigh_cross_check_against_lapack():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        for _ in range(50):
            a = random_hermitian(rng, n)
            ours, _ = eigh(a)
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(ours, ref, atol=1e-11)


def scramble_lower(rng, w):
    """A copy of ``w`` with every strict lower triangle redrawn, its bottom
    left entry NaN, and every diagonal given another finite imaginary
    part: the parts that eigh and the PSD projection do not read."""
    n = w.shape[-1]
    out = w.copy()
    rows, cols = np.tril_indices(n, -1)
    shape = out[..., rows, cols].shape
    out[..., rows, cols] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if n > 1:
        out[..., n - 1, 0] = math.nan
    diag = np.arange(n)
    out[..., diag, diag] = out[..., diag, diag].real + 1j * rng.standard_normal(out.shape[:-1])
    return out


def test_eigh_and_projection_read_the_upper_triangle():
    # the strict lower triangle and the imaginary diagonal do not reach
    # either result, bit for bit, whatever they hold
    rng = np.random.default_rng(41)
    for n in range(1, 7):
        for _ in range(20):
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bad = scramble_lower(rng, w)
            for ours, ref in zip(eigh(bad), eigh(w), strict=True):
                assert np.array_equal(ours, ref)
            x = solve_x0_matrix(bad)
            assert np.array_equal(x, solve_x0_matrix(w))
            assert np.all(np.isfinite(x))


def four_kinds(rng, n):
    """Hermitian n x n blocks by kind: random, rank one, negative definite,
    and with a zero eigenvalue."""
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    values, u = np.linalg.eigh(random_hermitian(rng, n))
    values[rng.integers(n)] = 0.0
    return {
        "random": random_hermitian(rng, n),
        "rank-1": np.outer(z, z.conj()),
        "negative-definite": -random_psd(rng, n) - np.eye(n),
        "zero-eigenvalue": (u * values) @ u.conj().T,
    }


@pytest.mark.parametrize("n, size", [(2, 4), (2, 6), (4, 6)])
def test_zero_padding_projects_the_block_alone(n, size):
    # the engine's widest slab holds narrower blocks in its top-left corner
    # with zeros around them: projected in one stack, each block part is
    # the block's own projection, the closed form or eigh at its size,
    # within 1e-14 ||W||, and the padding comes back as exact zeros
    rng = np.random.default_rng(29 + n + size)
    blocks = [(kind, w) for _ in range(50) for kind, w in four_kinds(rng, n).items()]
    padded = np.zeros((len(blocks), size, size), dtype=complex)
    padded[:, :n, :n] = [w for _, w in blocks]
    x = solve_x0_matrix(padded)
    own = hermitian._psd_project_2x2 if n == 2 else _psd_project_eigh
    for (kind, w), got in zip(blocks, x, strict=True):
        assert np.abs(got[:n, :n] - own(w)).max() <= 1e-14 * np.linalg.norm(w), kind
        assert np.all(got[n:, :] == 0) and np.all(got[:, n:] == 0), kind


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones((2, 3), dtype=complex))


def test_psd_project_fixed_point():
    rng = np.random.default_rng(23)
    for n in (2, 3, 6):
        a = random_psd(rng, n)
        x = psd_project(a)
        assert np.linalg.norm(x - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_psd_project_diagonal():
    x = psd_project(np.diag([2.0, -3.0]).astype(complex))
    assert np.allclose(x, np.diag([2.0, 0.0]))


def test_psd_project_exchange_matrix():
    x = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(x, np.full((2, 2), 0.5), atol=1e-14)


def test_psd_project_idempotent():
    rng = np.random.default_rng(29)
    for n in range(2, 7):
        w = random_hermitian(rng, n)
        once = psd_project(w)
        twice = psd_project(once)
        assert np.linalg.norm(once - twice) <= 1e-10


def test_psd_project_minimizer_and_value():
    # projection beats random PSD candidates and attains
    # ||X - W||^2 = sum of squared nonpositive eigenvalues
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = random_hermitian(rng, n)
        x = psd_project(w)
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
        x = psd_project(w)
        assert np.linalg.eigvalsh(x).min() >= -1e-10


# The 2 x 2 closed form, run as the engine runs it (solve_x0_matrix on a
# stack), against the eigh path that larger blocks take and eigvalsh.


def random_stack(rng, count, scale):
    return scale * (
        rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    )


def assert_exactly_hermitian(x):
    assert np.array_equal(x, x.conj().swapaxes(-1, -2))
    assert np.all(np.diagonal(x, axis1=-2, axis2=-1).imag == 0.0)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e2])
def test_psd_2x2_matches_eigh_path(scale):
    rng = np.random.default_rng(53)
    w = random_stack(rng, 500, scale)
    x = solve_x0_matrix(w)
    assert_exactly_hermitian(x)
    norm = np.linalg.norm(w, axis=(-2, -1))
    gap = np.linalg.norm(x - _psd_project_eigh(w), axis=(-2, -1))
    assert np.all(gap <= 1e-14 * norm)
    # the eigenvalues of X are those of the Hermitian matrix that the upper
    # triangle defines, clipped at 0
    lams = np.linalg.eigvalsh(w, UPLO="U")
    kept = np.linalg.eigvalsh(x)
    assert np.all(np.abs(kept - np.maximum(lams, 0.0)) <= 1e-14 * norm[:, None])


def test_psd_2x2_scalar_blocks():
    # r = 0: c * I is kept for c >= 0 and projects to exactly 0 for c < 0
    c = np.array([2.5, 1e-300, 0.0, -0.0, -1e-300, -3.0])
    w = c[:, None, None] * np.eye(2, dtype=complex)
    x = solve_x0_matrix(w)
    expected = np.maximum(c, 0.0)[:, None, None] * np.eye(2)
    assert np.array_equal(x, expected)
    assert np.allclose(x, _psd_project_eigh(w), rtol=1e-14, atol=0.0)


def test_psd_2x2_rank_one_kept():
    # u u^H with u = (3, 4j) has the exact eigenvalues 25 and 0: returned as is
    u = np.array([3.0, 4.0j])
    w = np.outer(u, u.conj())
    assert np.array_equal(solve_x0_matrix(w), w)
    rng = np.random.default_rng(59)
    for scale in (1e-6, 1.0, 1e3):
        u = scale * (rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2)))
        w = u[:, :, None] * u.conj()[:, None, :]
        x = solve_x0_matrix(w)
        norm = np.linalg.norm(w, axis=(-2, -1))
        assert np.all(np.linalg.norm(x - w, axis=(-2, -1)) <= 1e-14 * norm)
        assert np.all(np.linalg.norm(x - _psd_project_eigh(w), axis=(-2, -1)) <= 1e-14 * norm)


def test_psd_2x2_negative_definite_is_zero():
    rng = np.random.default_rng(61)
    w = -np.array([random_psd(rng, 2) + 0.1 * np.eye(2) for _ in range(100)])
    assert np.all(np.linalg.eigvalsh(w) < 0.0)
    assert np.array_equal(solve_x0_matrix(w), np.zeros_like(w))


def test_psd_2x2_stack_reads_the_upper_triangle():
    # a stack whose lower corners are redrawn, NaN in all, projects bit for
    # bit as the untouched stack, exactly Hermitian and finite
    rng = np.random.default_rng(67)
    w = random_stack(rng, 200, 1.0)
    bad = scramble_lower(rng, w)
    assert np.isnan(bad).any()
    x = solve_x0_matrix(bad)
    assert_exactly_hermitian(x)
    assert np.all(np.isfinite(x))
    assert np.array_equal(x, solve_x0_matrix(w))


@pytest.mark.parametrize(
    "bad",
    [
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, complex(0.0, math.nan)], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
        [[-math.inf, 0.0], [0.0, 1.0]],
    ],
)
def test_psd_2x2_non_finite_stays_non_finite(bad):
    # no eigenvalue masking turns a NaN or an infinity into a finite block
    w = np.array([np.eye(2), bad], dtype=complex)
    with np.errstate(invalid="ignore"):
        x = solve_x0_matrix(w)
    assert np.array_equal(x[0], np.eye(2))
    assert not np.all(np.isfinite(x[1]))


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psd_eigh_non_finite_stays_non_finite(n, bad):
    # the eigh path: a NaN eigenvalue is kept, not masked to zero
    w = np.array([np.eye(n), np.eye(n)], dtype=complex)
    w[1, 0, 0] = bad
    with np.errstate(invalid="ignore"):
        x = solve_x0_matrix(w)
    assert np.allclose(x[0], np.eye(n), rtol=0, atol=1e-14)
    assert not np.all(np.isfinite(x[1]))


def test_psd_eigh_non_converging_input_gives_nan():
    # NaN off the diagonal makes LAPACK fail to converge; the projection
    # then returns NaN rather than raising
    w = np.eye(4, dtype=complex)
    w[0, 3] = complex(0.0, math.nan)
    x = solve_x0_matrix(w)
    assert x.shape == (4, 4)
    assert not np.any(np.isfinite(x))


def test_psd_eigh_failure_on_finite_input_is_raised(monkeypatch):
    def fail(w):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(hermitian, "eigh", fail)
    with pytest.raises(np.linalg.LinAlgError):
        solve_x0_matrix(np.eye(4, dtype=complex))
