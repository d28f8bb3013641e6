"""Export of the discretized control problem as a text LP model.

One variable per lattice point. For every point p and action a the model
carries the constraint

    V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)

where the next-state weights f_a spread each successor belief over its
enclosing cell's vertices with the same bilinear weights the Bellman
backups use. Minimizing sum_p V(p) subject to all constraints reproduces the
discretized optimal values, so an external LP solver can cross-check the
solver from the file alone. Solving is deliberately out of scope
here; this module only builds kernels, writes the model, and parses the
emitted subset back for verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dynamics import ACTION_PRIORITY, Action, propagate_array
from .solver import _locate

__all__ = [
    "TransitionKernel",
    "LpConstraint",
    "LpModel",
    "build_kernel",
    "build_all_kernels",
    "reward_grid",
    "export_lp",
    "parse_lp",
    "feasibility_gap",
    "variable_name",
]

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Sparse next-state distribution over lattice points for one action.

    CSR-style storage: row p (flat, row-major) holds successors
    cols[indptr[p]:indptr[p+1]] with probabilities probs[...]. Rows sum to
    one and column indices are strictly increasing within a row.
    """

    action: Action
    n: int
    indptr: np.ndarray
    cols: np.ndarray
    probs: np.ndarray

    def row(self, p):
        lo, hi = self.indptr[p], self.indptr[p + 1]
        return self.cols[lo:hi], self.probs[lo:hi]

    def to_sparse(self):
        size = self.n * self.n
        return sparse.csr_matrix(
            (self.probs, self.cols, self.indptr), shape=(size, size)
        )


def _vertex_weights(points, coord):
    idx, frac = _locate(points, np.array([coord]))
    i, f = int(idx[0]), float(frac[0])
    return ((i, 1.0 - f), (i + 1, f))


def _successors(grid, ch, action):
    """Per lattice point: the action's successor beliefs and probabilities."""
    x = grid.points
    tx = propagate_array(x, ch)
    l0, l1 = ch.lambda0, ch.lambda1
    n = grid.n
    for i in range(n):
        p1 = x[i]
        for j in range(n):
            p2 = x[j]
            if action is Action.BALANCED:
                yield (
                    ((l0, l0), (1.0 - p1) * (1.0 - p2)),
                    ((l1, l1), p1 * p2),
                    ((l1, l0), p1 * (1.0 - p2)),
                    ((l0, l1), (1.0 - p1) * p2),
                )
            elif action is Action.BET1:
                yield (((l1, tx[j]), p1), ((l0, tx[j]), 1.0 - p1))
            elif action is Action.BET2:
                yield (((tx[i], l1), p2), ((tx[i], l0), 1.0 - p2))
            else:
                yield (((tx[i], tx[j]), 1.0),)


def build_kernel(grid, ch, action):
    """Bilinear spread of the action's successor beliefs onto the lattice.

    Zero-probability branches and zero-weight vertices are dropped, so a
    successor that happens to sit on a lattice point occupies one slot.
    """
    n = grid.n
    points = grid.points
    indptr = np.zeros(n * n + 1, dtype=np.int64)
    all_cols = []
    all_probs = []
    weight_cache = {}

    def vertex_weights(coord):
        got = weight_cache.get(coord)
        if got is None:
            got = _vertex_weights(points, coord)
            weight_cache[coord] = got
        return got

    for p, succ in enumerate(_successors(grid, ch, action)):
        acc = {}
        for (sx, sy), prob in succ:
            if prob == 0.0:
                continue
            for ivx, wx in vertex_weights(sx):
                if wx == 0.0:
                    continue
                for ivy, wy in vertex_weights(sy):
                    w = prob * wx * wy
                    if w == 0.0:
                        continue
                    flat = ivx * n + ivy
                    acc[flat] = acc.get(flat, 0.0) + w
        cols = sorted(acc)
        row = np.array([acc[c] for c in cols])
        total = float(row.sum())
        if abs(total - 1.0) > _ROW_SUM_TOL:
            raise AssertionError(
                f"kernel row {p} for {action.value} sums to {total!r}"
            )
        all_cols.extend(cols)
        all_probs.extend(row)
        indptr[p + 1] = len(all_cols)

    return TransitionKernel(
        action,
        n,
        indptr,
        np.asarray(all_cols, dtype=np.int64),
        np.asarray(all_probs, dtype=np.float64),
    )


def build_all_kernels(grid, ch):
    return {a: build_kernel(grid, ch, a) for a in ACTION_PRIORITY}


def reward_grid(grid, econ, action):
    """Immediate rewards of one action at every lattice point, as an n x n grid."""
    x = grid.points
    p1 = x[:, None]
    p2 = x[None, :]
    if action is Action.BET1:
        return (econ.rh + econ.ch) * p1 - econ.ch + 0.0 * p2
    if action is Action.BET2:
        return (econ.rh + econ.ch) * p2 - econ.ch + 0.0 * p1
    if action is Action.BALANCED:
        return (p1 + p2) * (econ.rl + econ.cl) - 2.0 * econ.cl
    return np.zeros((grid.n, grid.n))


def variable_name(n, flat):
    return f"V_{flat // n}_{flat % n}"


def _fmt(x):
    # 17 significant digits: decimal text round-trips to the same double.
    return format(x, "+.17g")


def _write_terms(fh, head, terms, per_line=6):
    chunks = [f"{_fmt(c)} {name}" for c, name in terms]
    fh.write(head)
    for start in range(0, len(chunks), per_line):
        fh.write(" " + " ".join(chunks[start:start + per_line]) + "\n")


def export_lp(path, grid, kernels, econ, discount, meta_path=None):
    """Write the LP model file (and optional metadata sidecar).

    Variables appear in row-major lattice order; constraints are grouped
    per point in the same order with actions in fixed priority order, so
    repeated exports are byte-identical.
    """
    n = grid.n
    size = n * n
    beta = discount.beta
    rewards = {a: reward_grid(grid, econ, a).ravel() for a in ACTION_PRIORITY}

    with open(path, "w") as fh:
        fh.write("\\ discretized two-channel power allocation, discounted value LP\n")
        fh.write(
            f"\\ V_i_j is the value at belief (i/(n-1), j/(n-1)), n = {n}\n"
        )
        fh.write(
            "\\ each constraint: V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)\n"
        )
        fh.write("Minimize\n")
        _write_terms(
            fh, " obj:\n", [(1.0, variable_name(n, p)) for p in range(size)]
        )
        fh.write("Subject To\n")
        for p in range(size):
            for a in ACTION_PRIORITY:
                cols, probs = kernels[a].row(p)
                coef = {p: 1.0}
                for y, f in zip(cols, probs):
                    y = int(y)
                    coef[y] = coef.get(y, 0.0) - beta * f
                terms = [
                    (coef[y], variable_name(n, y)) for y in sorted(coef) if coef[y] != 0.0
                ]
                head = f" {a.value}_{p // n}_{p % n}:\n"
                _write_terms(fh, head, terms)
                fh.write(f" >= {_fmt(rewards[a][p])}\n")
        fh.write("Bounds\n")
        for p in range(size):
            fh.write(f" {variable_name(n, p)} free\n")
        fh.write("End\n")

    if meta_path is not None:
        meta = {
            "n": n,
            "beta": beta,
            "rh": econ.rh,
            "rl": econ.rl,
            "ch": econ.ch,
            "cl": econ.cl,
            "variables": "V_i_j in row-major lattice order; i runs along the first channel's belief",
            "constraints": "grouped per lattice point in row-major order; actions in order "
            + ", ".join(a.value for a in ACTION_PRIORITY),
            "kernel": "successor beliefs spread over their enclosing cell's vertices "
            "with bilinear weights; this off-lattice treatment is a reconstruction "
            "choice, matching the interpolation used by the value sweeps",
            "coefficients": "printed with 17 significant digits so external solves reproduce",
        }
        with open(meta_path, "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class LpConstraint:
    name: str
    coeffs: dict
    sense: str
    rhs: float


@dataclass(frozen=True, eq=False)
class LpModel:
    objective: dict
    constraints: list
    free_variables: tuple


def parse_lp(path):
    """Parser for the subset this module emits; used to verify round-trips."""
    objective = {}
    constraints = []
    free_vars = []
    section = None
    current_name = None
    current_terms = None

    def flush_terms(tokens, target):
        k = 0
        while k < len(tokens):
            target[tokens[k + 1]] = target.get(tokens[k + 1], 0.0) + float(tokens[k])
            k += 2

    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("\\"):
                continue
            lowered = line.lower()
            if lowered == "minimize":
                section = "objective"
                continue
            if lowered == "subject to":
                section = "constraints"
                continue
            if lowered == "bounds":
                section = "bounds"
                continue
            if lowered == "end":
                break
            if section == "objective":
                if line.endswith(":"):
                    continue
                flush_terms(line.split(), objective)
            elif section == "constraints":
                if line.endswith(":"):
                    current_name = line[:-1]
                    current_terms = {}
                elif line.startswith(">=") or line.startswith("<="):
                    sense = line[:2]
                    rhs = float(line[2:])
                    constraints.append(
                        LpConstraint(current_name, current_terms, sense, rhs)
                    )
                    current_name = None
                    current_terms = None
                else:
                    flush_terms(line.split(), current_terms)
            elif section == "bounds":
                parts = line.split()
                if len(parts) == 2 and parts[1].lower() == "free":
                    free_vars.append(parts[0])

    return LpModel(objective, constraints, tuple(free_vars))


def feasibility_gap(values_flat, kernels, econ, discount, grid):
    """Worst constraint violation of a candidate value vector.

    Returns max over points and actions of g_a(p) + beta * f_a(p,.) V - V(p);
    anything above solver tolerance means the vector is not feasible for the
    exported model.
    """
    worst = -np.inf
    for a in ACTION_PRIORITY:
        g = reward_grid(grid, econ, a).ravel()
        q = g + discount.beta * (kernels[a].to_sparse() @ values_flat)
        worst = max(worst, float(np.max(q - values_flat)))
    return worst
