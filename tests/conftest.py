"""Helpers the test files share: the real inner product, a copy of a
bus's primal tuple, a NaN cost, the block target of the x-step's PSD
projection, a bus's y-blocks by role, one bus's named blocks of a run's
buffers, the Hermitian ones among a bus's y-blocks, and the x-step
penalty written out term by term."""

import math
from dataclasses import dataclass

import numpy as np

from radialopf.network import BusSpec, ObjectiveCoeffs
from radialopf.subproblems import XBlock, named_blocks


def inner(x, y) -> float:
    """Real inner product Re(tr(x^H y)) of two equal-shape complex arrays."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.vdot(x, y).real)


def copy_block(x: XBlock) -> XBlock:
    """A copy of a primal tuple that owns its arrays."""
    return XBlock(*(None if a is None else a.copy() for a in (x.v, x.s, x.S, x.ell)))


def nan_cost() -> ObjectiveCoeffs:
    """A cost with a NaN beta, which ``ObjectiveCoeffs`` rejects, set past
    its check: the way into the engine's handling of a non-finite iterate."""
    cost = ObjectiveCoeffs(0.0, 0.0)
    object.__setattr__(cost, "beta", math.nan)
    return cost


@dataclass
class HatConstants:
    """Hermitian block target of the x-step's PSD projection, for one bus
    or a stack: ``v_hat``/``S_hat``/``ell_hat`` are the square-completion
    targets of a non-root bus's v, S and ell. ``block`` is the oracle for
    the engine, which fills the same blocks in x."""

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


@dataclass
class YRoles:
    """A bus's y-blocks (or the multipliers of their rows) by role: its
    own copies, its copy of its parent's v and its copies of each child's
    (S, ell)."""

    v_self: np.ndarray
    s_self: np.ndarray
    S_self: np.ndarray | None
    ell_self: np.ndarray | None
    v_parent: np.ndarray | None
    child_flows: dict[int, tuple[np.ndarray, np.ndarray]]


def y_roles(blocks: dict, ctx) -> YRoles:
    """Name a bus's y-blocks, given by (owner, kind) (``named_blocks``)."""
    own = [blocks.get((ctx.bus_id, kind)) for kind in range(4)]
    flows = {j: (blocks[j, 2], blocks[j, 3]) for j, _, _ in ctx.children}
    return YRoles(*own, blocks.get((ctx.parent, 0)), flows)


@dataclass
class BusBlocks:
    """Bus i's named views of a ``State``'s buffers; writing into one
    writes the state.

    ``x0`` are the bus's primal copies, ``x1_v`` its voltage copy (in x)
    and ``u1`` the scaled multipliers of the voltage copy's table rows (in
    u). ``y`` and ``u`` name the blocks of its y segment and the scaled
    multipliers of their identity rows: its own copies, its copy of its
    parent's v (``v_parent``) and its copies of each child's (S, ell)
    (``child_flows``). The paper's multipliers mu are rho times the
    scaled ones. So the parent's copy of bus i's (S, ell) is
    ``bus_blocks(state, parent).y.child_flows[i]`` and child j's copy of
    bus i's v is ``bus_blocks(state, j).y.v_parent``.
    """

    bus: BusSpec
    parent: int | None
    children: tuple[int, ...]
    x0: XBlock
    x1_v: np.ndarray
    u1: np.ndarray
    y: YRoles
    u: YRoles

    @property
    def is_root(self) -> bool:
        return self.parent is None


def _live(buf, entries):
    """The view of ``buf`` at the evenly strided positions ``entries``."""
    first = entries.flat[0]
    steps = [np.diff(entries, axis=k).flat[0] if n > 1 else 0 for k, n in enumerate(entries.shape)]
    view = np.lib.stride_tricks.as_strided(
        buf[first:], entries.shape, [step * buf.itemsize for step in steps]
    )
    # the positions the view reads, which must be the entries themselves
    grid = np.indices(entries.shape)
    assert np.array_equal(first + np.tensordot(steps, grid, axes=1), entries)
    return view


def bus_blocks(state, i) -> BusBlocks:
    own = state.x_entries[i]
    solver = state.ysolver
    b = [ctx.bus_id for ctx in solver.ctxs].index(i)
    ctx, start = solver.ctxs[b], solver.offsets[b]
    segment = slice(start, solver.offsets[b + 1])
    # the voltage copy's rows: past the identity rows, those that observe
    # the bus's own v, which opens its segment
    ny = len(state.y)
    rows = ny + np.flatnonzero((state.obs[ny:] >= start) & (state.obs[ny:] < start + own[0].size))
    rows = rows.reshape(own[0].shape)
    return BusBlocks(
        bus=state.model.bus(i),
        parent=None if ctx.is_root else state.model.line[i].parent,
        children=tuple(j for j, _, _ in ctx.children),
        x0=XBlock(*(_live(state.x, e) for e in own)),
        x1_v=_live(state.x, state.v_copy[i]),
        u1=_live(state.u, rows),
        y=y_roles(named_blocks(state.y[segment], ctx), ctx),
        u=y_roles(named_blocks(state.u[segment], ctx), ctx),
    )


def hermitian_blocks(local: YRoles) -> list[np.ndarray]:
    """The y-blocks that observe Hermitian variables: v, ell and the
    parent's v (off the root), then each child's ell."""
    blocks = [local.v_self, local.ell_self, local.v_parent]
    blocks += [ell for _, ell in local.child_flows.values()]
    return [b for b in blocks if b is not None]


def direct_penalty(v, S, ell, s, state, i, rho):
    """Multiplier and penalty terms of bus i's x-step objective at
    (v, S, ell, s), written directly from the weighted observations of its
    x entries in ``state`` (independent of the square completion), in the
    paper's multipliers mu = rho * u."""
    me = bus_blocks(state, i)
    nc = len(me.children)

    def nsq(a, b):
        return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) ** 2)

    def mu(u):
        return rho * u

    y, u = me.y, me.u
    val = inner(mu(u.v_self), v) + inner(mu(u.s_self), s)
    val += 0.5 * rho * (2.0 * nsq(v, y.v_self) + nsq(s, y.s_self))
    if not me.is_root:
        par = bus_blocks(state, me.parent)
        (par_S, par_ell), (par_u_S, par_u_ell) = par.y.child_flows[i], par.u.child_flows[i]
        val += inner(mu(u.S_self), S) + inner(mu(u.ell_self), ell)
        val += 0.5 * rho * (
            (2.0 * nc + 3.0) * nsq(S, y.S_self) + (nc + 1.0) * nsq(ell, y.ell_self)
        )
        val += inner(mu(par_u_S), S) + inner(mu(par_u_ell), ell)
        val += 0.5 * rho * (nsq(S, par_S) + nsq(ell, par_ell))
    for j in me.children:
        kid = bus_blocks(state, j)
        val += inner(mu(kid.u.v_parent), v) + 0.5 * rho * nsq(v, kid.y.v_parent)
    return val
