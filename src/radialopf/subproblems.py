"""Solver kernels for the distributed OPF iteration, on stacks of buses.

Each bus alternates between two kinds of local problems:

* an x-step that pulls its own variable copies toward the neighborhood
  observations: square completion collapses the weighted penalty terms
  into a single squared distance, after which the matrix part is a
  projection onto the PSD cone and the injection part splits into
  per-phase scalar problems with closed forms (box clamp, or half-disk
  with at most one positive multiplier root);
* a y-step that re-solves the neighborhood observations subject to the
  branch-flow equalities, a positive-diagonal quadratic over the float
  view of the observations (no parameterization) with a full-row-rank
  constraint matrix, solved in closed form.

The penalty weights of the observations (``y_weights``) are defined once
and read by both steps. The engine runs every kernel once per iteration
over the whole feeder, except the PSD projection, which runs once per
non-root phase count on a stack of (2m, 2m) blocks, in closed form for
m = 1: square completion is one weighted sum per primal entry, the box
projection and the voltage clamp work elementwise on flat arrays, and
one ``YNodeSolver`` serves every bus, with one stacked operator per
neighborhood shape. The half-disk projection alone runs per DER phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .hermitian import psd_project
from .network import PhaseSet

__all__ = [
    "XBlock",
    "HatConstants",
    "interleave",
    "scatter_add",
    "complete_square_x0",
    "solve_x0_matrix",
    "project_injection_box",
    "project_injection_disk",
    "solve_disk_multiplier",
    "disk_case",
    "solve_x1_voltage",
    "YContext",
    "YLocal",
    "YNodeSolver",
    "split_blocks",
    "y_signature",
    "y_weights",
]

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# x-update: square completion and block projection
# ---------------------------------------------------------------------------


@dataclass
class XBlock:
    """One bus's primal tuple (v, s, S, ell); S and ell are absent at the root."""

    v: np.ndarray
    s: np.ndarray
    S: np.ndarray | None = None
    ell: np.ndarray | None = None

    def copy(self) -> "XBlock":
        return XBlock(
            self.v.copy(),
            self.s.copy(),
            None if self.S is None else self.S.copy(),
            None if self.ell is None else self.ell.copy(),
        )


@dataclass
class HatConstants:
    """Hermitian block target of the x-step's PSD projection, for one bus
    or a stack: ``v_hat``/``S_hat``/``ell_hat`` are the square-completion
    targets of a non-root bus's v, S and ell. ``block`` is the reference
    for the engine, which gathers the same blocks through index maps."""

    v_hat: np.ndarray
    S_hat: np.ndarray
    ell_hat: np.ndarray

    def block(self) -> np.ndarray:
        m = self.v_hat.shape[-1]
        w = np.empty(self.v_hat.shape[:-2] + (2 * m, 2 * m), dtype=complex)
        w[..., :m, :m] = self.v_hat
        w[..., :m, m:] = self.S_hat
        w[..., m:, :m] = self.S_hat.conj().swapaxes(-1, -2)
        w[..., m:, m:] = self.ell_hat
        return w


def interleave(index: np.ndarray) -> np.ndarray:
    """The float-view positions 2i and 2i + 1 of the real and imaginary
    parts of each complex entry i of ``index``, in order."""
    return (2 * index[:, None] + np.arange(2)).ravel()


def scatter_add(slots: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The complex sums of ``values`` by ``index`` into ``size`` bins, as one
    ``bincount`` of their float view by ``slots = interleave(index)``; each
    bin is summed in the order of ``values``."""
    return np.bincount(slots, values.view(float), 2 * size).view(complex)


def complete_square_x0(
    y: np.ndarray,
    mu: np.ndarray,
    weight: np.ndarray,
    slots: np.ndarray,
    den: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Collapse the weighted observation penalties into prox targets.

    Each row e of the consensus table ties x entry i = ``pair[e]`` to an
    observation ``y[e]`` and adds <mu_e, x_i> + w_e/2 * rho * |x_i - y_e|^2
    to the x-step objective; completing the square gives the target
    sum_e (w_e y_e - mu_e / rho) / sum_e w_e. ``y``, ``mu`` and ``weight``
    are laid out by row, ``slots`` is ``interleave(pair)`` and ``den``
    holds sum_e w_e per x entry. The sums run over the rows of every bus
    at once, in row order; returns the targets laid out like x.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    hat = scatter_add(slots, weight * y - mu / rho, len(den))
    hat.real /= den
    hat.imag /= den
    return hat


def solve_x0_matrix(block: np.ndarray) -> np.ndarray:
    """Minimize the distance to the target block [[v, S], [S^H, ell]] over
    the PSD cone; returns the projected block, whose top-left, top-right
    and bottom-right m x m parts are (v, S, ell).

    A stack of targets is projected in one batched call: in closed form
    for 2 x 2 blocks (m = 1), by one ``eigh`` for larger ones.
    """
    return psd_project(block)


# ---------------------------------------------------------------------------
# x-update: per-phase injection projections
# ---------------------------------------------------------------------------


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def project_injection_box(a1, b1, a2, b2, p_lo, p_hi, q_lo, q_hi):
    """Minimize a1/2 p^2 + b1 p + a2/2 q^2 + b2 q over a rectangle.

    Separable strictly convex quadratic: clamp each unconstrained
    minimizer into its interval. Elementwise over arrays of phases. Any
    curvature entry <= 0 is rejected; NaN entries are not compared (fmin
    skips them).
    """
    least = np.fmin.reduce(a2, axis=None, initial=np.inf)
    if np.fmin.reduce(a1, axis=None, initial=least) <= 0:
        raise ValueError("nonpositive curvature")
    p = np.minimum(np.maximum(-b1 / a1, p_lo), p_hi)
    q = np.minimum(np.maximum(-b2 / a2, q_lo), q_hi)
    return p, q


def disk_case(a1: float, b1: float, a2: float, b2: float, c: float) -> int:
    """Which closed-form branch applies for the half-disk projection (1, 2, or 3)."""
    if a1 <= 0 or a2 <= 0 or c <= 0:
        raise ValueError("nonpositive curvature or radius")
    if b1 >= 0:
        return 1
    if (b1 / a1) ** 2 + (b2 / a2) ** 2 <= c * c:
        return 2
    return 3


def solve_disk_multiplier(
    a1: float, b1: float, a2: float, b2: float, c: float
) -> float:
    """Unique positive root of g(lam) = b1^2/(a1+2lam)^2 + b2^2/(a2+2lam)^2 - c^2.

    g is strictly decreasing and convex on lam >= 0 and g(0) > 0 whenever
    the unconstrained minimizer lies outside the disk, so a safeguarded
    Newton iteration from the left converges monotonically.
    """

    def g(lam: float) -> float:
        return (b1 / (a1 + 2.0 * lam)) ** 2 + (b2 / (a2 + 2.0 * lam)) ** 2 - c * c

    def dg(lam: float) -> float:
        return (
            -4.0 * b1 * b1 / (a1 + 2.0 * lam) ** 3
            - 4.0 * b2 * b2 / (a2 + 2.0 * lam) ** 3
        )

    lo = 0.0
    if g(lo) <= 0.0:
        raise ValueError("bracketing failure: minimizer already inside the disk")
    hi = max(
        1.0,
        0.5 * (SQRT2 * abs(b1) / c - a1),
        0.5 * (SQRT2 * abs(b2) / c - a2),
    )
    for _ in range(200):
        if g(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("bracketing failure: no sign change found")

    lam = lo
    val = g(lam)
    for _ in range(200):
        if abs(val) <= 1e-12:
            break
        step = lam - val / dg(lam)
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        lam = step
        val = g(lam)
        if val > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-16 * (1.0 + hi):
            break
    return lam


def project_injection_disk(
    a1: float, b1: float, a2: float, b2: float, c: float
) -> tuple[float, float]:
    """Minimize a1/2 p^2 + b1 p + a2/2 q^2 + b2 q over p >= 0, p^2 + q^2 <= c^2."""
    case = disk_case(a1, b1, a2, b2, c)
    if case == 1:
        return 0.0, _clamp(-b2 / a2, -c, c)
    if case == 2:
        return -b1 / a1, -b2 / a2
    lam = solve_disk_multiplier(a1, b1, a2, b2, c)
    return -b1 / (a1 + 2.0 * lam), -b2 / (a2 + 2.0 * lam)


# ---------------------------------------------------------------------------
# x-update: voltage magnitude clamp
# ---------------------------------------------------------------------------


def solve_x1_voltage(target: np.ndarray, diag: np.ndarray, v_lo, v_hi) -> None:
    """Prox of the voltage-limit indicator, in place on its square-completion target.

    Minimizing the voltage copy's consensus terms plus the indicator of
    the per-phase bounds clamps the diagonal entries of the target
    (``complete_square_x0``) into [v_lo, v_hi]; off-diagonal entries pass
    through. ``diag`` holds the positions of the diagonal entries in the
    flat ``target`` and ``v_lo``/``v_hi`` their bounds.
    """
    target[diag] = np.minimum(np.maximum(target[diag].real, v_lo), v_hi)


# ---------------------------------------------------------------------------
# y-update: equality-constrained quadratic over y's float view
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YContext:
    """Static shape of one bus's y-subproblem.

    ``z`` and ``parent_phases`` are None at the root; ``children`` lists
    (bus id, phases, line impedance) for each child in ascending id order.
    """

    bus_id: int
    phases: PhaseSet
    z: np.ndarray | None
    parent_phases: PhaseSet | None
    children: tuple[tuple[int, PhaseSet, np.ndarray], ...]

    @property
    def is_root(self) -> bool:
        return self.z is None


@dataclass
class YLocal:
    """Solution of one bus's y-subproblem, as named complex blocks."""

    v_self: np.ndarray
    s_self: np.ndarray
    S_self: np.ndarray | None
    ell_self: np.ndarray | None
    v_parent: np.ndarray | None
    child_flows: dict[int, tuple[np.ndarray, np.ndarray]]


def y_signature(ctx: YContext) -> tuple[tuple[int, ...], ...]:
    """The shapes of a bus's y-blocks: v, s, [S, ell, parent v], then
    (S, ell) per child. Buses with one signature share a stacked operator."""
    m = len(ctx.phases)
    blocks = [(m, m), (m,)]
    if not ctx.is_root:
        mp = len(ctx.parent_phases)
        blocks += [(m, m), (m, m), (mp, mp)]
    for _, cph, _ in ctx.children:
        blocks += [(len(cph), len(cph))] * 2
    return tuple(blocks)


def split_blocks(buf: np.ndarray, signature) -> list[np.ndarray]:
    """Views of the blocks of ``signature``, raveled one after another
    along the last axis of the complex buffer ``buf``."""
    lead = buf.shape[:-1]
    views, start = [], 0
    for shape in signature:
        end = start + math.prod(shape)
        views.append(buf[..., start:end].reshape(lead + shape))
        start = end
    return views


def y_weights(ctx: YContext) -> tuple[float, ...]:
    """The penalty weight of each block of ``y_signature(ctx)``.

    With |C| children, the bus's own copies of v, s, S and ell weigh 2, 1,
    2|C|+3 and |C|+1, and every copy it holds of a neighbor's variable
    (the parent's v, each child's S and ell) weighs 1. The weights on each
    of v and ell then sum to |C|+2 and those on S to twice that, so the
    x-step's square completion leaves one Hermitian block distance. Both
    the x-step and the y-step read these weights.
    """
    nc = len(ctx.children)
    weights = [2.0, 1.0]
    if not ctx.is_root:
        weights += [2.0 * nc + 3.0, nc + 1.0, 1.0]
    return tuple(weights + [1.0, 1.0] * nc)


def _local(blocks: list[np.ndarray], ctx: YContext) -> YLocal:
    """Name the blocks: v, s, [S, ell, parent v], then each child's (S, ell)."""
    v_self, s_self, *rest = blocks
    S_self = ell_self = v_parent = None
    if not ctx.is_root:
        S_self, ell_self, v_parent, *rest = rest
    flows = {
        cid: (rest[2 * k], rest[2 * k + 1]) for k, (cid, _, _) in enumerate(ctx.children)
    }
    return YLocal(v_self, s_self, S_self, ell_self, v_parent, flows)


def _constraint_values(local: YLocal, ctx: YContext) -> list[np.ndarray]:
    """Branch-flow residual blocks at a stack of candidate y points (linear in y).

    The voltage drop (m x m, absent at the root), then the power balance
    (one complex entry per phase). The balance reads each child's ell
    through its Hermitian part, so that conjugate-transposing every
    Hermitian block (v, ell, the parent's v, each child's ell) maps the
    drop to its adjoint and keeps the balance: the constraint set maps to
    itself. The phase projection and lift are index maps, so every block
    keeps its leading stack axes.
    """
    rows = []
    if not ctx.is_root:
        z = ctx.z
        zh = z.conj().T
        S = local.S_self
        idx = ctx.phases.indices_in(ctx.parent_phases)
        rows.append(
            local.v_parent[(Ellipsis,) + np.ix_(idx, idx)]
            - local.v_self
            + z @ S.conj().swapaxes(-1, -2)
            + S @ zh
            - z @ local.ell_self @ zh
        )
    acc = np.zeros(local.s_self.shape, dtype=complex)
    for cid, cph, zc in ctx.children:
        s_j, ell_j = local.child_flows[cid]
        ell_j = 0.5 * (ell_j + ell_j.conj().swapaxes(-1, -2))
        acc[..., cph.indices_in(ctx.phases)] += np.diagonal(
            s_j - zc @ ell_j, axis1=-2, axis2=-1
        )
    if not ctx.is_root:
        acc -= np.diagonal(local.S_self, axis1=-2, axis2=-1)
    rows.append(local.s_self + acc)
    return rows


class YNodeSolver:
    """Prefactored closed-form solver for the y-subproblems of a feeder's buses.

    Each bus's y-subproblem is the real quadratic min 1/2 y^T M y + c^T y
    subject to A y = 0 over the float view of its segment of y: the real
    and imaginary part of every entry of its blocks (``y_signature``),
    the lower triangles and imaginary diagonals of its Hermitian blocks
    included. ``a_mat[b]`` holds 2m^2 voltage-drop rows (off the root)
    and 2m power-balance rows and has full row rank; ``m_diag[b]`` is
    strictly positive. Both depend only on the network, so the full
    solution operator P = M^-1 A^T (A M^-1 A^T)^-1 A M^-1 - M^-1 is
    computed once. Buses next to each other in ``ctxs`` with one
    signature share one stacked operator, so every iteration is one
    stacked matrix-vector product per signature, from c straight into
    y's float view.

    M and the constraint set are invariant under conjugate-transposing
    every Hermitian block (``_constraint_values``), so where c is too,
    the unique minimizer is Hermitian in those blocks: the minimizer over
    Hermitian blocks alone. The engine's c is Hermitian only to rounding,
    and so are the blocks of y.

    The solver owns its linear terms ``c`` and its solution ``y``: a
    complex buffer whose bus b segment starts at ``offsets[b]``, bus
    after bus in ``ctxs`` order, and c a float buffer laid out like y's
    float view. ``assemble_c`` writes c in place, and ``solve`` writes y
    through views of both that are built once with the operators.

    The solver also holds the y side of the consensus table: row e
    observes y entry ``obs[e]`` with penalty weight ``weight[e]``. The
    first rows are the identity, one per y entry, weighted by
    ``y_weights``; after them comes one row of weight 1 per entry of each
    bus's own v, for the voltage-limit copy x1. M is rho times the
    weight sum of the rows on each y entry, on its real and imaginary
    part alike.
    """

    def __init__(self, ctxs, rho: float):
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.ctxs = tuple(ctxs)
        self.rho = rho
        signatures = [y_signature(ctx) for ctx in self.ctxs]
        sizes = [math.prod(shape) for blocks in signatures for shape in blocks]
        self.offsets = np.cumsum([0] + [sum(map(math.prod, blocks)) for blocks in signatures])
        ny = self.offsets[-1]

        # the table's rows: the identity, then the voltage copy's, weight 1
        own_v = [b + np.arange(len(c.phases) ** 2) for c, b in zip(self.ctxs, self.offsets)]
        self.obs = np.concatenate([np.arange(ny)] + own_v)
        weights = [w for ctx in self.ctxs for w in y_weights(ctx)]
        self.weight = np.concatenate([np.repeat(weights, sizes), np.ones(len(self.obs) - ny)])
        mass = np.repeat(self.rho * np.bincount(self.obs, self.weight), 2)

        self.c = np.zeros(2 * ny)
        self.y = np.zeros(ny, dtype=complex)
        flat = self.y.view(float)
        self.a_mat, self.m_diag = [], []
        self._stacks = []  # per run of one signature: operator, views of c and of y
        for _, run in groupby(range(len(self.ctxs)), key=signatures.__getitem__):
            run = list(run)
            part = slice(2 * self.offsets[run[0]], 2 * self.offsets[run[-1] + 1])
            m_diag = mass[part].reshape(len(run), -1)
            a_mat, operator = self._prefactor(
                [self.ctxs[b] for b in run], signatures[run[0]], m_diag
            )
            self.a_mat += list(a_mat)
            self.m_diag += list(m_diag)
            shape = operator.shape[:2] + (1,)
            self._stacks.append((operator, self.c[part].reshape(shape), flat[part].reshape(shape)))

    def _prefactor(self, ctxs, signature, m_diag: np.ndarray):
        """The constraint rows and the solution operators of buses of one
        signature, stacked, for the diagonals ``m_diag`` of their M."""
        n = m_diag.shape[-1]
        # the constraint rows at every unit float vector at once
        unit = split_blocks(np.eye(n).view(complex), signature)
        values = [_constraint_values(_local(unit, c), c) for c in ctxs]
        rows = np.stack([np.concatenate([b.reshape(n, -1) for b in v], axis=1) for v in values])
        a_mat = rows.view(float).swapaxes(-1, -2)
        for c, rank in zip(ctxs, np.linalg.matrix_rank(a_mat)):
            if rank != a_mat.shape[1]:
                raise ValueError(
                    f"bus {c.bus_id}: rank-deficient constraint matrix "
                    "(malformed phase data)"
                )

        minv = 1.0 / m_diag
        scaled = a_mat * minv[:, None, :]
        gram = scaled @ a_mat.swapaxes(-1, -2)
        operator = scaled.swapaxes(-1, -2) @ np.linalg.solve(gram, scaled)
        operator[:, np.arange(n), np.arange(n)] -= minv
        return a_mat, operator

    def assemble_c(self, mu: np.ndarray, x: np.ndarray) -> None:
        """Write the linear coefficients -mu - rho * x of every bus into ``c``,
        on the float view.

        ``mu`` and ``x`` are complex buffers laid out like y: per y entry,
        the sum of the multipliers of the table rows that observe it and
        the sum of their primal values times their weights.
        """
        np.negative(mu.view(float), out=self.c)
        self.c -= self.rho * x.view(float)

    def solve(self) -> None:
        """Write every bus's minimizer P c into its segment of ``y``."""
        for operator, c, y in self._stacks:
            np.matmul(operator, c, out=y)
