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

Each bus's y-blocks and their penalty weights (``y_blocks``) are defined
once; the y-solver alone lays y out by them, and both steps read the
weights. Both take the scaled multipliers u = mu / rho; only the
injection projections read the penalty rho. The engine runs
every kernel once per iteration over the whole feeder, except the PSD
projection, which runs once per slab of blocks, a stack of (2m, 2m)
blocks, narrower ones zero-padded, in closed form for 2 x 2 blocks
(``engine.State``): square completion is one
weighted sum per primal entry, the box projection is one clamp over
(p, q) pairs, the voltage clamp works elementwise on a flat array, and
one ``YNodeSolver`` serves every bus, prefactoring each distinct
neighborhood once and broadcasting, not copying, a shared one's operator.
The half-disk projection alone runs per DER phase.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hermitian import psd_project
from .network import FeederModel, PhaseSet

__all__ = [
    "XBlock",
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
    "y_context",
    "YNodeSolver",
    "named_blocks",
    "y_blocks",
    "y_signature",
]

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
    y: np.ndarray, u: np.ndarray, weight: np.ndarray, slots: np.ndarray, den: np.ndarray, out
) -> None:
    """Collapse the weighted observation penalties into prox targets.

    Each row e of the consensus table ties x entry i = ``pair[e]`` to an
    observation ``y[e]`` and adds rho * (<u_e, x_i> + w_e/2 * |x_i - y_e|^2)
    to the x-step objective, with u_e = mu_e / rho its scaled multiplier;
    completing the square gives the target sum_e (w_e y_e - u_e) / sum_e w_e,
    whatever rho. ``y``, ``u`` and ``weight`` are laid out by row, ``slots``
    is ``interleave(pair)`` and ``den`` holds sum_e w_e per x entry. The
    sums run over the rows of every bus at once, in row order; one
    division per part by ``den`` writes every target into ``out``, a
    complex buffer laid out like x, through its float views.
    """
    hat = scatter_add(slots, weight * y - u, len(den))
    np.divide(hat.real, den, out=out.real)
    np.divide(hat.imag, den, out=out.imag)


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


def project_injection_box(a, b, lo, hi):
    """Minimize a/2 t^2 + b t over lo <= t <= hi, elementwise.

    Separable strictly convex quadratic: clamp each unconstrained
    minimizer -b/a into its interval. The engine passes (B, 2) arrays of
    (p, q) pairs, one row per box phase. The curvature must be positive
    (a > 0); the caller checks that once, where it builds ``a``.
    """
    return np.minimum(np.maximum(-b / a, lo), hi)


def disk_case(a1: float, b1: float, a2: float, b2: float, c: float) -> int:
    """Which closed-form branch applies for the half-disk projection (1, 2, or 3)."""
    if a1 <= 0 or a2 <= 0 or c <= 0:
        raise ValueError("nonpositive curvature or radius")
    if b1 >= 0:
        return 1
    try:
        return 2 if (b1 / a1) ** 2 + (b2 / a2) ** 2 <= c * c else 3
    except OverflowError as err:
        raise ValueError(f"half-disk target out of range: {err}") from None


def solve_disk_multiplier(
    a1: float, b1: float, a2: float, b2: float, c: float
) -> float:
    """Unique positive root of g(lam) = b1^2/(a1+2lam)^2 + b2^2/(a2+2lam)^2 - c^2.

    g is strictly decreasing and convex on lam >= 0, and g(0) > 0 whenever
    the unconstrained minimizer lies outside the disk. Newton starts at the
    larger of 0 and the lam at which either term alone is c^2, where g >= 0
    still, and climbs to the root monotonically. It runs on g/c^2 = q1^2 +
    q2^2 - 1, with q = b/(a + 2lam)/c, which takes the same steps in units
    of the radius: from the start each |q| <= 1, so nothing in the loop
    overflows, and its derivative does not underflow at tiny radii as g',
    of order c^3, does. It stops where g <= 0 or where the step falls below
    4e-16 lam, so the point lands on the circle to rounding, relative to c.
    It raises ValueError if g(0) <= 0, if the target squared or |b|/c
    overflows, or if 200 steps do not converge.
    """
    try:
        if (b1 / a1) ** 2 + (b2 / a2) ** 2 <= c * c:
            raise ValueError("the unconstrained minimizer is already inside the disk")
        lam = max(0.0, 0.5 * (abs(b1) / c - a1), 0.5 * (abs(b2) / c - a2))
        if lam == math.inf:
            raise ValueError("half-disk target out of range: |b| / c overflows")
        for _ in range(200):
            d1, d2 = a1 + 2.0 * lam, a2 + 2.0 * lam
            q1, q2 = b1 / d1 / c, b2 / d2 / c
            val = q1 * q1 + q2 * q2 - 1.0
            if val <= 0.0:
                return lam
            step = val / (4.0 * (q1 * q1 / d1 + q2 * q2 / d2))
            lam += step
            if step <= 4e-16 * lam:
                return lam
    except ArithmeticError as err:
        raise ValueError(f"half-disk target out of range: {err}") from None
    raise ValueError("Newton's method did not converge in 200 steps")


def project_injection_disk(
    a1: float, b1: float, a2: float, b2: float, c: float
) -> tuple[float, float]:
    """Minimize a1/2 p^2 + b1 p + a2/2 q^2 + b2 q over p >= 0, p^2 + q^2 <= c^2;
    a non-finite b1 or b2, from a non-finite target, gives (nan, nan)."""
    if not (math.isfinite(b1) and math.isfinite(b2)):
        return math.nan, math.nan
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

    ``parent`` (the parent's bus id), ``z`` and ``parent_phases`` are None
    at the root; ``children`` lists (bus id, phases, line impedance) for
    each child in ascending id order.
    """

    bus_id: int
    parent: int | None
    phases: PhaseSet
    z: np.ndarray | None
    parent_phases: PhaseSet | None
    children: tuple[tuple[int, PhaseSet, np.ndarray], ...]

    @property
    def is_root(self) -> bool:
        return self.parent is None


def y_context(model: FeederModel, i: int) -> YContext:
    """Bus i's neighborhood in ``model``, as the y-solver reads it."""
    by_id, line = model.by_id, model.line.get(i)
    return YContext(
        bus_id=i,
        parent=None if line is None else line.parent,
        phases=by_id[i].phases,
        z=None if line is None else line.z,
        parent_phases=None if line is None else by_id[line.parent].phases,
        children=tuple((j, by_id[j].phases, model.line[j].z) for j in model.children[i]),
    )


def y_blocks(ctx: YContext) -> list[tuple[int, int, tuple[int, ...], float]]:
    """The blocks of a bus's y segment, in layout order, as (owner, kind,
    shape, weight): the copy of entry ``kind`` of bus ``owner``'s primal
    tuple (v, s, S, ell). They are the bus's own v, s[, S, ell, its
    parent's v], then each child's S and ell; the copies of its
    neighbors' variables are the bus's messages.

    With |C| children, the bus's own copies of v, s, S and ell weigh 2, 1,
    2|C|+3 and |C|+1, and every copy of a neighbor's variable weighs 1.
    The weights on each of v and ell then sum to |C|+2 and those on S to
    twice that, so the x-step's square completion leaves one Hermitian
    block distance. Both the x-step and the y-step read these weights.
    """
    i, m, nc = ctx.bus_id, len(ctx.phases), len(ctx.children)
    blocks = [(i, 0, (m, m), 2.0), (i, 1, (m,), 1.0)]
    if not ctx.is_root:
        mp = len(ctx.parent_phases)
        blocks += [(i, 2, (m, m), 2.0 * nc + 3.0), (i, 3, (m, m), nc + 1.0)]
        blocks.append((ctx.parent, 0, (mp, mp), 1.0))
    for j, cph, _ in ctx.children:
        blocks += [(j, kind, (len(cph), len(cph)), 1.0) for kind in (2, 3)]
    return blocks


def y_signature(ctx: YContext) -> tuple[tuple[int, ...], ...]:
    """The shapes of a bus's y-blocks. Buses with one signature and
    neighborhoods of their own share a stacked operator."""
    return tuple(shape for _, _, shape, _ in y_blocks(ctx))


def named_blocks(buf: np.ndarray, ctx: YContext) -> dict[tuple[int, int], np.ndarray]:
    """Views of a bus's y-blocks, raveled along ``buf``'s last axis, by (owner, kind)."""
    lead, views, start = buf.shape[:-1], {}, 0
    for owner, kind, shape, _ in y_blocks(ctx):
        end = start + math.prod(shape)
        views[owner, kind] = buf[..., start:end].reshape(lead + shape)
        start = end
    return views


def _right(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ b`` for a stack ``x`` of square blocks, as one matrix product."""
    return (x.reshape(-1, len(b)) @ b).reshape(x.shape)


def _left(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a stack ``x`` of square blocks, as one matrix product."""
    return _right(x.swapaxes(-1, -2), a.T).swapaxes(-1, -2)


def _constraint_values(y: dict, ctx: YContext) -> list[np.ndarray]:
    """Branch-flow residual blocks at a stack of candidate y points (linear
    in y), from the bus's y-blocks ``y`` by (owner, kind) (``named_blocks``).

    The voltage drop (m x m, absent at the root), then the power balance
    (one complex entry per phase). The balance reads each child's ell
    through its Hermitian part, so that conjugate-transposing every
    Hermitian block (v, ell, the parent's v, each child's ell) maps the
    drop to its adjoint and keeps the balance: the constraint set maps to
    itself. The phase projection and lift are index maps, so every block
    keeps its leading stack axes, and each impedance product is one GEMM
    over the whole stack, not one per block; z S^H is the adjoint of S z^H.
    """
    i, rows = ctx.bus_id, []
    if not ctx.is_root:
        z = ctx.z
        zh = z.conj().T
        sz = _right(y[i, 2], zh)
        idx = np.array(ctx.phases.indices_in(ctx.parent_phases))
        rows.append(
            y[ctx.parent, 0][..., idx[:, None], idx]
            - y[i, 0]
            + sz.conj().swapaxes(-1, -2)
            + sz
            - _right(_left(z, y[i, 3]), zh)
        )
    acc = np.zeros(y[i, 1].shape, dtype=complex)
    for cid, cph, zc in ctx.children:
        s_j, ell_j = y[cid, 2], y[cid, 3]
        ell_j = 0.5 * (ell_j + ell_j.conj().swapaxes(-1, -2))
        acc[..., cph.indices_in(ctx.phases)] += np.diagonal(
            s_j - _left(zc, ell_j), axis1=-2, axis2=-1
        )
    if not ctx.is_root:
        acc -= np.diagonal(y[i, 2], axis1=-2, axis2=-1)
    rows.append(y[i, 1] + acc)
    return rows


def _neighborhood(ctx: YContext) -> tuple:
    """What ``YNodeSolver._prefactor`` reads of a bus but bus ids, in str and bytes."""
    up = None if ctx.is_root else (ctx.parent_phases.letters, ctx.z.tobytes())
    return ctx.phases.letters, up, *[(p.letters, zc.tobytes()) for _, p, zc in ctx.children]


class YNodeSolver:
    """Prefactored closed-form solver for the y-subproblems of a feeder's buses.

    Each bus's y-subproblem is the real quadratic min 1/2 y^T M y + c^T y
    subject to A y = 0 over the float view of its segment of y: the real
    and imaginary part of every entry of its blocks (``y_blocks``),
    the lower triangles and imaginary diagonals of its Hermitian blocks
    included. ``a_mat[b]`` holds 2m^2 voltage-drop rows (off the root)
    and 2m power-balance rows and has full row rank; ``m_diag[b]`` is
    strictly positive. Both depend only on the bus's neighborhood, so
    the solution operator P = M^-1 A^T (A M^-1 A^T)^-1 A M^-1 - M^-1 is
    computed once per distinct ``_neighborhood`` of the feeder. Buses
    that share a neighborhood form one group, which applies its operator
    broadcast over them, not copied; every other bus joins the group of
    its ``y_signature``, a stack of their own operators. ``ctxs`` holds
    the contexts group by group, groups in first-seen order and contexts
    in the given order, so every iteration is one stacked matrix-vector
    product per group, from c straight into y's float view.

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
    first rows are the identity, one per y entry, weighted by its block's
    weight in ``y_blocks``; after them comes one row of weight 1 per entry
    of each bus's own v, for the voltage-limit copy x1. M is the weight
    sum of the rows on each y entry, on its real and imaginary part
    alike: the y-subproblem in scaled form, divided by the penalty rho.
    """

    def __init__(self, ctxs):
        keys = [_neighborhood(ctx) for ctx in ctxs]
        shared = Counter(keys)
        groups: dict[tuple, list[YContext]] = {}
        for ctx, key in zip(ctxs, keys):
            # a neighborhood's own group where buses share it, else the signature's
            groups.setdefault(key if shared[key] > 1 else y_signature(ctx), []).append(ctx)
        self.ctxs = tuple(ctx for group in groups.values() for ctx in group)
        blocks = [y_blocks(ctx) for ctx in self.ctxs]
        sizes = [[math.prod(shape) for _, _, shape, _ in table] for table in blocks]
        self.offsets = np.cumsum([0] + [sum(n) for n in sizes])
        ny = self.offsets[-1]

        # the table's rows: the identity, then the voltage copy's, weight 1
        own_v = [b + np.arange(len(c.phases) ** 2) for c, b in zip(self.ctxs, self.offsets)]
        self.obs = np.concatenate([np.arange(ny)] + own_v)
        weights = np.repeat([w for table in blocks for *_, w in table], sum(sizes, []))
        self.weight = np.concatenate([weights, np.ones(len(self.obs) - ny)])
        mass = np.repeat(np.bincount(self.obs, self.weight), 2)

        self.c = np.zeros(2 * ny)
        self.y = np.zeros(ny, dtype=complex)
        flat = self.y.view(float)
        self.a_mat, self.m_diag = [], []
        self._stacks = []  # per group: operator, views of c and of y
        end = 0
        for key, group in groups.items():
            start, end = end, end + len(group)
            part = slice(2 * self.offsets[start], 2 * self.offsets[end])
            m_diag = mass[part].reshape(len(group), -1)
            # one bus stands for a shared neighborhood, M included
            alike = group[:1] if shared[key] > 1 else group
            a_mat, operator = self._prefactor(alike, m_diag[: len(alike)])
            if len(alike) < len(group):
                operator = np.broadcast_to(operator, (len(group),) + operator.shape[1:])
            self.a_mat += list(a_mat) * (len(group) // len(alike))
            self.m_diag += list(m_diag)
            shape = operator.shape[:2] + (1,)
            self._stacks.append((operator, self.c[part].reshape(shape), flat[part].reshape(shape)))

    def _prefactor(self, ctxs, m_diag: np.ndarray):
        """The constraint rows and the solution operators of buses of one
        signature, stacked, for the diagonals ``m_diag`` of their M."""
        n = m_diag.shape[-1]
        # the constraint rows at every unit float vector at once
        unit = np.eye(n).view(complex)
        values = [_constraint_values(named_blocks(unit, c), c) for c in ctxs]
        rows = np.stack([np.concatenate([b.reshape(n, -1) for b in v], axis=1) for v in values])
        a_mat = rows.view(float).swapaxes(-1, -2)
        # full row rank: each row has a column that no other row uses
        used = a_mat != 0
        own = (used & (used.sum(axis=1, keepdims=True) == 1)).any(axis=2).all(axis=1)
        for c, full in zip(ctxs, own):
            if not full:
                raise ValueError(
                    f"bus {c.bus_id}: a constraint row has no column of its own "
                    "(malformed phase data)"
                )

        minv = 1.0 / m_diag
        scaled = a_mat * minv[:, None, :]
        gram = scaled @ a_mat.swapaxes(-1, -2)
        operator = scaled.swapaxes(-1, -2) @ np.linalg.solve(gram, scaled)
        operator[:, np.arange(n), np.arange(n)] -= minv
        return a_mat, operator

    def assemble_c(self, total: np.ndarray) -> None:
        """Write the linear coefficients -total of every bus into ``c``, on
        the float view.

        ``total`` is a complex buffer laid out like y: per y entry, the sum
        over the table rows that observe it of u_e + w_e x_e, their scaled
        multipliers plus their weighted primal values.
        """
        np.negative(total.view(float), out=self.c)

    def solve(self) -> None:
        """Write every bus's minimizer P c into its segment of ``y``."""
        for operator, c, y in self._stacks:
            np.matmul(operator, c, out=y)
