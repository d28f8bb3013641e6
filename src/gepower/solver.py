"""Discounted policy iteration on a discretized belief square.

The square [0,1]^2 of per-channel beliefs is covered by a uniform lattice,
with bilinear interpolation supplying values at off-lattice continuation
beliefs. Their coordinates, the lambda pair and the drift images T(x_i),
are located once per grid and channel as one axis (see _Stencils), which
with the expected-reward table feeds every Q grid, transition and LP row.
The fixed point of the four-action Bellman operator is computed by Howard
policy iteration (Howard 1960; Puterman 1994, ch. 6): each policy is
evaluated on the small closed set of lattice points its transitions read,
and one final Bellman backup certifies the field with its residual. A solve
can start from a given field, such as a neighbouring parameter point's
solution, instead of the zero field: the start picks the first policy and
is where the first evaluation sets out from, and the certificate is the
same. Without one, or where it does not converge, a large lattice starts
from the solved half-size lattice (Chow and Tsitsiklis 1991, one-way
multigrid), and the zero field is the last start tried. The backup is
written so that a symmetric field stays bit-exactly symmetric, which the
downstream mirror checks depend on.

The hot kernels skip redundant work only where the result keeps its
bits: a bit-symmetric field's Q grids take the mirror path (see
action_value_grids), Q is computed only where it is read (_q_action), the
Jacobi steps check their spans a batch at a time and still stop at the
same step (see _evaluate), and the transition stencils are flat tables
built once per grid and channel (see _Stencils).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import (
    ACTION_PRIORITY,
    USES_CHANNEL,
    Action,
    ChannelParams,
    Discount,
    EconParams,
    ParameterError,
    expected_rewards,
    propagate,
    propagate_array,
)

__all__ = [
    "BeliefGrid",
    "ValueField",
    "SolverConfig",
    "SolveResult",
    "NonConvergence",
    "ValueFileError",
    "interpolate",
    "q_probe",
    "action_value_grids",
    "bellman_backup",
    "solve",
    "save_value_field",
    "load_value_field",
]


class NonConvergence(RuntimeError):
    """Policy-improvement budget exhausted, or the certified Bellman
    residual of the final field above tolerance."""

    def __init__(self, iterations, residual, tol):
        super().__init__(
            f"no convergence after {iterations} policy improvements: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )
        self.iterations = iterations
        self.residual = residual
        self.tol = tol


class ValueFileError(ValueError):
    """A value-field file does not match the documented layout."""


@dataclass(frozen=True)
class BeliefGrid:
    """Uniform n x n lattice over the belief square, corners included."""

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    # Largest n whose n x n float64 field numpy can address.
    _MAX_N = math.isqrt(np.iinfo(np.intp).max // 8)

    def __post_init__(self):
        if not isinstance(self.n, int) or not 2 <= self.n <= self._MAX_N:
            raise ParameterError(f"grid size 2 <= n <= {self._MAX_N} violated: n={self.n!r}")
        pts = np.arange(self.n, dtype=np.float64) / (self.n - 1)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True, eq=False)
class ValueField:
    """One value per lattice point.

    values[i, j] belongs to the belief (points[i], points[j]); the first
    index runs along the first channel. The array is frozen to keep backups
    honest about not updating in place.
    """

    grid: BeliefGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, order="C")
        if vals.shape != (self.grid.n, self.grid.n):
            raise ParameterError(
                f"values shape {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ParameterError("values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SolverConfig:
    discount: Discount
    tol: float = 1e-6
    max_iter: int = 5000

    def __post_init__(self):
        # A non-finite tol would also reach solve_report.json, which JSON
        # cannot hold.
        if not 0.0 < self.tol < math.inf:
            raise ParameterError(f"0 < tol < inf violated: tol={self.tol!r}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter >= 1 violated: max_iter={self.max_iter!r}")


@dataclass(frozen=True)
class SolveResult:
    """A solved field and its certificate.

    iterations counts policy improvements and residual is the sup-norm step
    of one Bellman backup of the field, so bound = beta/(1-beta) * residual
    bounds the field's distance from the discretized fixed point.
    evaluation_steps counts the Jacobi steps of all policy evaluations; a
    field loaded from file does not record it and carries 0.
    """

    field: ValueField
    iterations: int
    residual: float
    bound: float
    evaluation_steps: int = 0


def _axis(points, q):
    # Located coordinates: the lower and upper vertex of each one's cell and
    # their weights (1 - f, f). The fraction f is normalized by the actual
    # cell width so lattice queries come out exactly 0 or 1 and reproduce
    # stored values bit for bit.
    q = np.asarray(q, dtype=np.float64)
    idx = np.clip(np.searchsorted(points, q, side="right") - 1, 0, points.size - 2)
    frac = (q - points[idx]) / (points[idx + 1] - points[idx])
    return np.stack([idx, idx + 1]), np.stack([1.0 - frac, frac])


def _gather(values, ax, ay, mirror=False, pairwise=False):
    # Bilinear interpolation on the tensor product of two located axes (or
    # with pairwise, at their pairs (ax[k], ay[k]) only). The four corner
    # terms are summed diagonal pair first: on a symmetric field
    # this makes transposed queries agree bit for bit (addition commutes, it
    # only fails to associate), which the mirror-symmetry guarantees rely on.
    # mirror says that ay is ax and values is bit-symmetric. Then term(1, 0)
    # is term(0, 1).T entry for entry (both factors commute), and is not
    # computed.
    (cx, wx), (cy, wy) = ax, ay

    def term(a, b):
        # (wx * wy) * v, accumulated in place to hold few grid-sized temporaries
        if pairwise:
            t = wx[a] * wy[b]
            t *= values[cx[a], cy[b]]
        else:
            t = wx[a][:, None] * wy[b]
            t *= values[cx[a]][:, cy[b]]
        return t

    out = term(0, 0)
    out += term(1, 1)
    cross = term(0, 1)
    if mirror:
        cross = cross + cross.T
    else:
        cross += term(1, 0)
    out += cross
    return out


@lru_cache(maxsize=3)
def _reward_table(grid, econ):
    """Read-only n x n expected rewards of balanced, bet1 and bet2, (p1
    column, p2 row); the bet tables are views of one column and one row.
    Three are kept, one per lattice of a coarse-to-fine cold solve at n=401."""
    table = expected_rewards(grid.points[:, None], grid.points[None, :], econ)[:3]
    return tuple(np.broadcast_to(g, (grid.n, grid.n)) for g in table)


def interpolate(v, b):
    """Bilinearly interpolated field value at an arbitrary belief."""
    ax, ay = (_axis(v.grid.points, np.array([p])) for p in (b.p1, b.p2))
    return float(_gather(v.values, ax, ay)[0, 0])


def q_probe(v, ch, econ, discount):
    """Scalar Q values of all four actions against the frozen field v.

    Returns probe(p1, p2), which gives the four action values at the belief
    (p1, p2) as Python floats in ACTION_PRIORITY order. It repeats the
    arithmetic of action_value_grids one point at a time: _axis's cell
    search, _gather's summation order and the Q expressions'
    association, so it agrees with the grids bit for bit on the lattice.
    Field rows are converted to lists only when a probe first reads them.
    """
    pts = v.grid.points.tolist()
    last = len(pts) - 2
    rows = {}

    def row(i):
        r = rows.get(i)
        if r is None:
            r = rows[i] = v.values[i].tolist()
        return r

    def locate(q):
        i = min(max(bisect_right(pts, q) - 1, 0), last)
        return i, (q - pts[i]) / (pts[i + 1] - pts[i])

    def interp(at_x, at_y):
        (i, fx), (j, fy) = at_x, at_y
        gx = 1.0 - fx
        gy = 1.0 - fy
        r0 = row(i)
        r1 = row(i + 1)
        out = (gx * gy) * r0[j]
        out += (fx * fy) * r1[j + 1]
        return out + ((gx * fy) * r0[j + 1] + (fx * gy) * r1[j])

    l0 = locate(ch.lambda0)
    l1 = locate(ch.lambda1)
    v00, v01, v10, v11 = interp(l0, l0), interp(l0, l1), interp(l1, l0), interp(l1, l1)
    beta = discount.beta

    def probe(p1, p2):
        t1 = locate(propagate(p1, ch))
        t2 = locate(propagate(p2, ch))
        q_bb = (p1 + p2) * (econ.rl + econ.cl) - 2.0 * econ.cl + beta * (
            (((1.0 - p1) * (1.0 - p2)) * v00 + (p1 * p2) * v11)
            + ((p1 * (1.0 - p2)) * v10 + ((1.0 - p1) * p2) * v01)
        )
        q_b1 = (econ.rh + econ.ch) * p1 - econ.ch + beta * (
            p1 * interp(l1, t2) + (1.0 - p1) * interp(l0, t2)
        )
        q_b2 = (econ.rh + econ.ch) * p2 - econ.ch + beta * (
            p2 * interp(t1, l1) + (1.0 - p2) * interp(t1, l0)
        )
        return q_bb, q_b1, q_b2, beta * interp(t1, t2)

    return probe


def action_value_grids(v, ch, econ, discount):
    """Q grid for every action, evaluated against the frozen field v.

    Returns a dict ordered like ACTION_PRIORITY. The bet grids are exact
    transposes of each other whenever v is symmetric; see _gather.

    A bit-symmetric v (every field the solver builds is one) takes the
    mirror path, which skips work by two exact identities: the bet2 grid is
    the transpose of the bet1 grid (returned as that view), and the drift
    gather adds its cross term as T01 + T01.T (see _gather), with the
    general path's bits. Any other field takes the general path. Symmetry
    is tested on the bits, so mirrored entries 0.0 and -0.0 break it.
    """
    bits = v.values.view(np.uint64)
    return _q_grids(v, ch, econ, discount, bool(np.array_equal(bits, bits.T)))


def _q_grids(v, ch, econ, discount, mirror):
    """action_value_grids by the mirror path, which needs a bit-symmetric
    v, or with mirror False by the general path. One gather s on the
    located axis both x both (see _Stencils) reads every value they need:
    V(lambda_k, lambda_l) at s[:2, :2], the lambda rows at s[:2, 2:], the
    lambda columns at s[2:, :2] and the drift block at s[2:, 2:]."""
    both = _stencils(v.grid, ch).both
    s = _gather(v.values, both, both, mirror)
    near = s[:2, :2], s[:2, 2:], s[2:, :2].T[:, :, None], s[2:, 2:]
    x, table = v.grid.points, _reward_table(v.grid, econ)
    q = {}
    for k, a in enumerate(ACTION_PRIORITY):
        # With mirror, g_b2 is g_b1.T, col[:, k] is row[k] and p2 is p1.T,
        # bit for bit.
        q[a] = (q[Action.BET1].T if mirror and a is Action.BET2
                else _q(k, discount.beta, x[:, None], x, table, near[k]))
    return q


def _q_action(values, grid, ch, econ, discount, k, rows=slice(None), cols=slice(None)):
    """Q of action ACTION_PRIORITY[k] against values on the lattice box
    rows x cols (slices), or with rows None at the points (x_i, x_i), with
    _q_grids' bits: it gathers only the values that action reads, and the
    diagonal's drift term pairwise, (t00 + t11) + (t01 + t10), which the
    mirror path adds as cross + cross.T."""
    cells, w = _stencils(grid, ch).both
    lam = cells[:, :2], w[:, :2]
    diagonal = rows is None
    rows = cols if diagonal else rows
    at_rows, at_cols = ((cells[:, 2:][:, s], w[:, 2:][:, s]) for s in (rows, cols))
    p1, p2 = grid.points[rows] if diagonal else grid.points[rows, None], grid.points[cols]
    table = [np.diagonal(t) if diagonal else t[rows, cols] for t in _reward_table(grid, econ)]
    axes = ((lam, lam), (lam, at_cols), (at_rows, lam), (at_rows, at_cols))[k]
    near = _gather(values, *axes, pairwise=diagonal and k == 3)
    if k == 2:
        near = near.T if diagonal else near.T[:, :, None]
    return _q(k, discount.beta, p1, p2, table, near)


def _q(k, beta, p1, p2, table, near):
    """Q of action ACTION_PRIORITY[k] at the beliefs (p1, p2) from the
    reward tables and the successor values near: V(lambda_k, lambda_l),
    V(lambda_k, T(p2)), V(T(p1), lambda_k) or V(T(p1), T(p2))."""
    if k == 0:
        (v00, v01), (v10, v11) = near
        return table[0] + beta * (
            (((1.0 - p1) * (1.0 - p2)) * v00 + (p1 * p2) * v11)
            + ((p1 * (1.0 - p2)) * v10 + ((1.0 - p1) * p2) * v01)
        )
    if k == 3:
        # Resting earns nothing; adding a zero reward could only flip -0.0.
        return beta * near
    low, high = near
    p = p1 if k == 1 else p2
    return table[k] + beta * (p * high + (1.0 - p) * low)


def bellman_backup(v, ch, econ, discount):
    """One Bellman backup: pointwise max of the four Q grids against v.

    The input field is read only; a fresh field is returned, so results do
    not depend on any evaluation order.
    """
    return ValueField(v.grid, _q_max(action_value_grids(v, ch, econ, discount)))


def _q_max(q):
    """Pointwise max of the Q grids q in ACTION_PRIORITY order: the bits of
    np.maximum.reduce over them, without stacking the four grids."""
    first, second, *rest = (q[a] for a in ACTION_PRIORITY)
    out = np.maximum(first, second)
    for grid in rest:
        np.maximum(out, grid, out=out)
    return out


# Relative size below which a Q difference counts as rounding noise. The
# greedy step keeps the incumbent action unless another one wins by more
# than this times the field's magnitude, so near-ties cannot make the policy
# cycle.
_TIE_MARGIN = 2.0 ** -44


def _select(q, policy):
    """Per lattice point, the Q value of the action indexed by policy."""
    out = q[ACTION_PRIORITY[0]].copy()
    for k, a in enumerate(ACTION_PRIORITY[1:], 1):
        np.copyto(out, q[a], where=policy == k)
    return out


def _improve(v, incumbent, ch, econ, discount):
    """Greedy policy of v under a stable tie rule, and its gain Q(v) - v.

    A running argmax over the Q grids in priority order, so exact ties go
    to the earlier action; where an incumbent policy is given it is kept
    unless the argmax beats it by more than a rounding-level margin. The
    policy comes back as int8 indices into ACTION_PRIORITY, followed by the
    Q grids it was read from.
    """
    q = action_value_grids(v, ch, econ, discount)
    best = q[ACTION_PRIORITY[0]].copy()
    policy = np.zeros(best.shape, dtype=np.int8)
    for k, a in enumerate(ACTION_PRIORITY[1:], 1):
        better = q[a] > best
        np.copyto(best, q[a], where=better)
        policy[better] = k
    if incumbent is not None:
        held = _select(q, incumbent)
        keep = best - held <= _TIE_MARGIN * float(np.abs(v.values).max())
        np.copyto(policy, incumbent, where=keep)
        np.copyto(best, held, where=keep)
    best -= v.values
    return policy, best, q


# A point's 16 transition candidates in emission order: branch pair (x
# branch, y branch) as 00, 11, 10, 01, then x-vertex, then y-vertex. Slot
# 2 * branch + vertex picks one of a coordinate's four stencil slots.
_PAIRS = ((0, 0), (1, 1), (1, 0), (0, 1))
_SLOT_X = np.array([2 * bx + vx for bx, _ in _PAIRS for vx in (0, 1) for _ in (0, 1)])
_SLOT_Y = np.array([2 * by + vy for _, by in _PAIRS for _ in (0, 1) for vy in (0, 1)])

# Per action index: whether it observes the first and the second channel.
_OBSERVES = np.array([USES_CHANNEL[a] for a in ACTION_PRIORITY], dtype=np.intp)


class _Stencils:
    """Per-coordinate interpolation stencils of the successor beliefs.

    An observed coordinate branches to lambda0 with probability 1 - p and
    to lambda1 with probability p, each spread over the two lattice slots
    of its cell. An unobserved one drifts to T(x_i): the two slots of its
    cell with weights 1 - frac and frac, plus a branch of probability zero.
    `slots` holds the (probability, lattice index, weight) tables of these
    four slots, indexed [observed, lattice index, slot] with observed 0 for
    a drifting coordinate. `x` and `y` hold the same three tables per
    candidate (see _PAIRS) for the first and the second coordinate, as
    (2n, 16) arrays whose row observed * n + i belongs to lattice index i;
    x's lattice indices come multiplied by n, ready for a flat key. All
    are cut from `both`, the (cells, weights) of the located successor axis
    [lambda0, lambda1, T(x_0), ..., T(x_{n-1})], each (2, n + 2) with lower
    vertices in row 0. Every array is read-only, and _stencils builds them
    once per (grid, ch).
    """

    def __init__(self, grid, ch):
        self.points = p = grid.points
        n = p.size
        q = np.concatenate([[ch.lambda0, ch.lambda1], propagate_array(p, ch)])
        self.both = cells, w = _axis(p, q)
        drift = (np.broadcast_to([1.0, 1.0, 0.0, 0.0], (n, 4)),
                 np.tile(cells[:, 2:].T, 2), np.tile(w[:, 2:].T, 2))
        observed = (
            np.stack([1.0 - p, 1.0 - p, p, p], 1),
            np.broadcast_to(cells[:, :2].T.ravel(), (n, 4)),
            np.broadcast_to(w[:, :2].T.ravel(), (n, 4)),
        )
        self.slots = tuple(np.stack(rows) for rows in zip(drift, observed))
        (px, ix, wx), (py, iy, wy) = (
            [t[:, :, c].reshape(2 * n, c.size) for t in self.slots] for c in (_SLOT_X, _SLOT_Y)
        )
        self.x, self.y = (px, ix * n, wx), (py, iy, wy)
        for a in (*self.both, *self.slots, *self.x, *self.y):
            a.setflags(write=False)

    def transitions(self, flat, k):
        """Transition rows of the flat lattice points under action indices k.

        k holds one index into ACTION_PRIORITY per point, or one for all.
        Each point emits its 16 candidates (see _PAIRS) with weight
        ((prob1 * prob2) * wx) * wy; zero weights are dropped, and
        candidates landing on one lattice point are summed in emission
        order. Returns CSR arrays (indptr, cols, probs) whose columns are
        flat lattice indices, increasing within a row.
        """
        n = self.points.size
        size = n * n
        i, j = np.divmod(flat, n)
        sx, sy = _OBSERVES[k].T
        at_x = sx * n + i
        at_y = sy * n + j
        (px, ix, wx), (py, iy, wy) = self.x, self.y
        w = px.take(at_x, axis=0)
        w *= py.take(at_y, axis=0)
        w *= wx.take(at_x, axis=0)
        w *= wy.take(at_y, axis=0)
        kept = np.flatnonzero(w)
        rows = kept // w.shape[1]
        key = ix.take(at_x, axis=0)
        key += iy.take(at_y, axis=0)
        key = key.take(kept)
        key += rows * size
        # The sort is stable, so candidates on one point stay in emission
        # order.
        order = np.argsort(key, kind="stable")
        key, w = key[order], w.take(kept[order])
        head = np.empty(key.size, dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        if head.all():
            # No two candidates share a point: each sum is 0.0 + w, which
            # is w for the nonzero weights kept.
            probs = w
        else:
            probs = np.zeros(int(head.sum()))
            np.add.at(probs, np.cumsum(head) - 1, w)
        indptr = np.zeros(flat.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[head], minlength=flat.size), out=indptr[1:])
        return indptr, key[head] - rows[head] * size, probs


@lru_cache(maxsize=1)
def _stencils(grid, ch):
    """The _Stencils of (grid, ch), which the Q grids, _support, the
    transitions and the LP kernels all read. The solves that share it come
    one after another (a sweep's points on one channel, a cold solve's
    lattices coarse to fine), so one entry is kept: it takes 1.7n kB."""
    return _Stencils(grid, ch)


def _support(policy, st):
    """Sorted flat indices of the lattice points that P_policy reads.

    Every slot pair of every point's stencil, whatever its probability or
    weight, marked on an n x n mask from st.both's cells: an observed
    coordinate reads the four slots of the lambda pair, L, and a drifting
    one the two vertices of its cell. So balanced points mark L x L, bet1
    points L x the drift cells of their columns, bet2 points the mirror of
    that, and a conservative point (i, j) its drift cell (c_i, c_j) and the
    cell's three +1 shifts. Every successor of every point lies in this
    set, so it is closed under the policy's transitions and the policy's
    values on it determine the values everywhere.
    """
    lam, drift = st.both[0][:, :2].ravel(), st.both[0][:, 2:]
    mask = np.zeros(policy.shape, dtype=bool)
    # Action indices in ACTION_PRIORITY order: balanced, bet1, bet2, conservative.
    if (policy == 0).any():
        mask[lam[:, None], lam] = True
    mask[lam[:, None], drift[:, (policy == 1).any(axis=0)].ravel()] = True
    mask[drift[:, (policy == 2).any(axis=1)].ravel()[:, None], lam] = True
    ci, cj = (drift[0, idx] for idx in np.nonzero(policy == 3))
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mask[ci + di, cj + dj] = True
    return np.flatnonzero(mask)


def _restricted_kernel(support, policy, st):
    """P_policy restricted to its closed support, as a slot-major table.

    Returns (cols, probs), both of shape (w, m) for m support points and w
    entries in the longest row. Table column r holds row r's successors
    (as positions in support) and their probabilities in increasing
    successor order; a shorter row is padded at its end with successor 0
    and probability zero.
    """
    indptr, cols, probs = st.transitions(support, policy.ravel()[support])
    m = support.size
    widths = np.diff(indptr)
    shape = int(widths.max()), m
    # Entry e of row r goes to slot e - indptr[r] of column r.
    at = (np.arange(cols.size) - np.repeat(indptr[:-1], widths)) * m
    at += np.repeat(np.arange(m), widths)
    # Every successor lies in the closed support: a lattice-sized lookup
    # of positions finds it without a search.
    position = np.empty(policy.size, dtype=np.intp)
    position[support] = np.arange(m)
    table_cols = np.zeros(shape, dtype=np.intp)
    table_probs = np.zeros(shape)
    table_cols.flat[at] = position[cols]
    table_probs.flat[at] = probs
    return table_cols, table_probs


# Jacobi steps of _evaluate between two span checks, and the most entries
# its buffer of iterates may hold: a large support takes fewer steps per
# batch, down to one, so the buffers stay near the per-step vectors they
# replace.
_SPAN_BATCH = 8
_SPAN_ENTRIES = 1 << 14


def _evaluate(kernel, gain, beta, max_steps):
    """Solve delta = gain + beta * P @ delta by Jacobi steps, P the
    slot-major table (cols, probs) of _restricted_kernel.

    Each step sums a row's products left to right from +0.0, the order of
    a CSR matrix-vector product: np.add.reduce over the leading axis adds
    slot by slot (np.add.reduceat would sum pairwise). A sum that starts
    at +0.0 is never -0.0, so padding's zero products leave it unchanged.

    The span of the step contracts by at least beta per step; iteration
    stops once it stops shrinking, i.e. at rounding level. The MacQueen
    bounds place the solution within beta/(1-beta) * [min, max] of the
    last step, and the midpoint of that interval is returned, which removes
    the slowly decaying constant mode. Returns (delta, steps).

    The steps run in batches of up to _SPAN_BATCH into a buffer of
    iterates. The spans of a batch's steps are then taken all at once and
    replayed through the stop rule in order, so the evaluation stops at the
    step, and returns the bits, that a check after every step would give,
    max_steps included.
    """
    cols, probs = kernel
    m = gain.size
    batch = max(1, min(_SPAN_BATCH, _SPAN_ENTRIES // m - 1))
    iterates = np.empty((batch + 1, m))
    iterates[0] = 0.0
    diffs = np.empty((batch, m))
    buf = np.empty_like(probs)
    acc = np.empty_like(gain)
    prev = math.inf
    shift = beta / (1.0 - beta)
    done = 0
    while True:
        k = min(batch, max_steps - done)
        for delta, nxt in zip(iterates[:k], iterates[1:k + 1]):
            # Every index is in range; "clip" only spares take the buffered
            # copy that "raise" makes of out.
            delta.take(cols, out=buf, mode="clip")
            buf *= probs
            np.add.reduce(buf, axis=0, initial=0.0, out=acc)
            acc *= beta
            np.add(gain, acc, out=nxt)
        d = np.subtract(iterates[1:k + 1], iterates[:k], out=diffs[:k])
        lows, highs = d.min(axis=1).tolist(), d.max(axis=1).tolist()
        for s, (lo, hi) in enumerate(zip(lows, highs), 1):
            if hi - lo == 0.0 or hi - lo >= prev or done + s == max_steps:
                return iterates[s] + shift * 0.5 * (lo + hi), done + s
            prev = hi - lo
        done += k
        iterates[0] = iterates[k]


def _extend(grid, support, v_support, policy, ch, econ, discount):
    """The policy's values on the whole lattice from its values on its
    closed support, symmetrized. Every successor lies in the support, so
    one pass of each point's chosen-action Q is exact; each action's Q is
    computed on the bounding box of its points only (see _q_action)."""
    vals = np.zeros(grid.n * grid.n)
    vals[support] = v_support
    vals, out = vals.reshape(grid.n, grid.n), np.empty((grid.n, grid.n))
    for k in range(len(ACTION_PRIORITY)):
        at = policy == k
        r, c = np.flatnonzero(at.any(axis=1)), np.flatnonzero(at.any(axis=0))
        if r.size:
            box = slice(r[0], r[-1] + 1), slice(c[0], c[-1] + 1)
            np.copyto(out[box], _q_action(vals, grid, ch, econ, discount, k, *box), where=at[box])
    return ValueField(grid, (out + out.T) / 2.0)


# Cold solves on lattices above this size start from the solved half-size
# lattice. Below it a solve's cost is per-call overhead, not lattice size, and
# a coarse start does not pay.
_CASCADE_ABOVE = 101


def solve(cfg, ch, econ, grid, start=None):
    """Howard policy iteration to a repeated policy, from the greedy policy
    of the first start that converges.

    Each improvement takes the greedy policy of the current field (see
    _improve) and evaluates it on the closed set of lattice points its
    transitions read (see _support and _evaluate), then extends the values
    to the whole lattice. Once the policy repeats, one Bellman backup of the
    field certifies it: its step is the reported residual and its output,
    exactly mirror-symmetric, is the returned field.

    A start picks the first policy and is where the first evaluation sets
    out from; the certificate is the same whatever the start. The starts
    tried, until one converges, are: start (a ValueField on grid), if
    given; above _CASCADE_ABOVE points, this function's answer on the
    (n + 1) // 2 lattice, interpolated onto grid; the zero field (the
    myopic policy). The counts and the certificate describe the converged
    solve on grid only. Raises ParameterError when start lies on another
    grid, and NonConvergence when the zero start fails too: max_iter
    improvements are not enough or the certified residual exceeds cfg.tol.
    """
    if start is not None:
        if start.grid != grid:
            raise ParameterError(f"start field on grid n={start.grid.n}, solve on n={grid.n}")
        try:
            return _solve(cfg, ch, econ, grid, start)
        except NonConvergence:
            pass
    if grid.n > _CASCADE_ABOVE:
        try:
            # All passed unnamed: the coarse grid, field and located axis are
            # freed before the solve on grid, and the start once it is replaced.
            return _solve(cfg, ch, econ, grid, _refined(
                solve(cfg, ch, econ, BeliefGrid((grid.n + 1) // 2)).field, grid
            ))
        except NonConvergence:
            pass
    return _solve(cfg, ch, econ, grid, None)


def _refined(v, grid):
    """v interpolated onto the points of grid."""
    at = _axis(v.grid.points, grid.points)
    return ValueField(grid, _gather(v.values, at, at))


def _solve(cfg, ch, econ, grid, v):
    """Policy iteration on grid from the field v, or from the zero field if
    v is None; see solve."""
    if v is None:
        v = ValueField(grid, np.zeros((grid.n, grid.n)))
    discount = cfg.discount
    st = _stencils(grid, ch)
    # Enough Jacobi steps to contract any start by 2^-52 at rate beta; an
    # evaluation cut short by the cap still has to pass the certificate.
    max_steps = 100 + int(40.0 / (1.0 - discount.beta))
    policy = None
    steps = 0
    for iteration in range(1, cfg.max_iter + 1):
        new, gain, q = _improve(v, policy, ch, econ, discount)
        if policy is not None and np.array_equal(new, policy):
            return _certify(v, q, iteration, steps, cfg)
        # Release the Q grids before the kernel is built.
        del q
        residual = float(np.abs(gain).max())
        policy = new
        support = _support(policy, st)
        gain = gain.ravel()[support]
        delta, n_steps = _evaluate(
            _restricted_kernel(support, policy, st), gain, discount.beta, max_steps
        )
        steps += n_steps
        v = _extend(grid, support, v.values.ravel()[support] + delta, policy, ch, econ, discount)
    raise NonConvergence(cfg.max_iter, residual, cfg.tol)


def _certify(v, q, iteration, steps, cfg):
    """One Bellman backup of the converged field from its Q grids q: its
    step is the residual and its output the returned field."""
    nxt = ValueField(v.grid, _q_max(q))
    residual = float(np.max(np.abs(nxt.values - v.values)))
    if residual > cfg.tol:
        raise NonConvergence(iteration, residual, cfg.tol)
    if float(nxt.values.min()) < -cfg.tol:
        # Resting forever guarantees zero, so a negative value is a bug.
        raise RuntimeError(f"solved field has negative values (min {nxt.values.min():.3e})")
    beta = cfg.discount.beta
    return SolveResult(nxt, iteration, residual, beta / (1.0 - beta) * residual, steps)


_LAYOUT_NOTE = (
    "row-major: values[i*n + j] is the value at belief (i/(n-1), j/(n-1)); "
    "index i runs along the first channel's belief"
)


def save_value_field(path, result, ch, econ, discount):
    """Write a solved field plus its parameters as a single JSON document.

    The bytes are those of json.dumps: each value is its double's shortest
    round-trip decimal. orjson writes those digits, 16 rows at a time, but
    not Python's exponent form outside [1e-4, 1e16) (1e-7 for 1e-07, 1e16
    for 1e+16), so a nonzero value there is written with float.__repr__.
    """
    import orjson

    doc = {
        "layout": _LAYOUT_NOTE,
        "n": result.field.grid.n,
        "lambda0": ch.lambda0,
        "lambda1": ch.lambda1,
        "rh": econ.rh,
        "rl": econ.rl,
        "ch": econ.ch,
        "cl": econ.cl,
        "beta": discount.beta,
        "iterations": result.iterations,
        "residual": result.residual,
    }
    flat = result.field.values.ravel()
    step = 16 * result.field.grid.n
    with open(path, "wb") as fh:
        fh.write((json.dumps(doc)[:-1] + ', "values": [').encode())
        for start in range(0, flat.size, step):
            block = flat[start:start + step]
            text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            mag = np.abs(block)
            odd = np.flatnonzero((mag >= 1e16) | ((mag < 1e-4) & (mag > 0.0)))
            if odd.size:
                parts = text.split(b",")
                for k in odd.tolist():
                    parts[k] = repr(float(block[k])).encode()
                text = b",".join(parts)
            fh.write((b", " if start else b"") + text.replace(b",", b", "))
        fh.write(b"]}\n")


def load_value_field(path):
    """Inverse of save_value_field.

    Returns (SolveResult, ChannelParams, EconParams, Discount). Any content
    that does not describe a valid solved field raises ValueFileError. What
    orjson rejects (NaN, 1e400, a lone surrogate, a BOM, bytes that are not
    UTF-8) json reads again, to accept or reject it as it always did; an
    integer outside [-2**63, 2**64) reads as a float, where json kept it.
    """
    import orjson

    try:
        try:
            with open(path, "rb") as fh:
                doc = orjson.loads(fh.read())
        except orjson.JSONDecodeError:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        return _parse_value_doc(doc)
    except KeyError as exc:
        raise ValueFileError(f"value file {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueFileError(f"value file {path}: {exc}") from exc


def _parse_value_doc(doc):
    counts = doc["n"], doc["iterations"]
    if any(isinstance(c, bool) or not isinstance(c, (int, float)) or c != int(c) for c in counts):
        raise ValueFileError(f"n and iterations must be integral numbers, got {counts}")
    n, iterations = map(int, counts)
    if iterations < 0:
        raise ValueFileError(f"iterations must be >= 0, got {iterations}")
    ch = ChannelParams(doc["lambda0"], doc["lambda1"])
    econ = EconParams(doc["rh"], doc["rl"], doc["ch"], doc["cl"])
    discount = Discount(doc["beta"])
    values = np.asarray(doc["values"], dtype=np.float64)
    residual = float(doc["residual"])
    if values.size != n * n:
        raise ValueFileError(f"expected {n * n} values, found {values.size}")
    fld = ValueField(BeliefGrid(n), values.reshape(n, n))
    bound = discount.beta / (1.0 - discount.beta) * residual
    if not (residual >= 0.0 and math.isfinite(bound)):
        raise ValueFileError(f"residual must be >= 0 and give a finite bound, got {residual!r}")
    return SolveResult(fld, iterations, residual, bound), ch, econ, discount
