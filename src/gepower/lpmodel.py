"""Export of the discretized control problem as a text LP model.

One variable per lattice point. For every point p and action a the model
carries the constraint

    V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)

where the next-state weights f_a spread each successor belief over its
enclosing cell's vertices with the same bilinear weights the Bellman
backups use. The kernels are the CSR arrays of the solver's own
transition stencils (solver._Stencils.transitions), the ones its policy
evaluations read, and g_a is the Q grids' expected-reward table
(solver._reward_table). Minimizing sum_p V(p) subject to all constraints
reproduces the discretized optimal values, so an external LP solver can
cross-check the solver from the file alone. Solving is deliberately out of
scope here; this module only builds kernels and writes the model.

The text is gathered by index from a table of strings made once per
export, in which each distinct number, variable name and label piece is
formatted once. The constraints are assembled one block of lattice rows at
a time, so no term is formatted on its own and no whole-lattice constraint
rows are held.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .dynamics import ACTION_PRIORITY, _unique
from .solver import _reward_table, _stencils

__all__ = [
    "Kernel",
    "build_all_kernels",
    "export_lp",
    "variable_name",
]

_ROW_SUM_TOL = 1e-12
_TERMS_PER_LINE = 6
# Lattice rows per block of constraint text (see export_lp); measured.
_BLOCK_ROWS = 8


class Kernel(NamedTuple):
    """One action's (n*n, n*n) transition kernel over flat row-major
    lattice indices, as CSR arrays: row p's successors are
    cols[indptr[p]:indptr[p + 1]], increasing, with weights probs."""

    indptr: np.ndarray
    cols: np.ndarray
    probs: np.ndarray


def build_all_kernels(grid, ch):
    """Per action, the bilinear spread of its successor beliefs onto the
    lattice, as a Kernel.

    The rows are the solver's own transition stencils (see
    solver._Stencils.transitions), so the exported model and the policy
    evaluations read one encoding of the discretized dynamics.
    """
    st = _stencils(grid, ch)
    flat = np.arange(grid.n * grid.n)
    kernels = {}
    for k, action in enumerate(ACTION_PRIORITY):
        indptr, cols, probs = st.transitions(flat, k)
        totals = np.add.reduceat(probs, indptr[:-1])
        bad = np.flatnonzero(np.abs(totals - 1.0) > _ROW_SUM_TOL)
        if bad.size:
            p = int(bad[0])
            raise AssertionError(f"kernel row {p} for {action.value} sums to {float(totals[p])!r}")
        kernels[action] = Kernel(indptr, cols, probs)
    return kernels


def variable_name(n, flat):
    return f"V_{flat // n}_{flat % n}"


def _entries(kernel, beta, offset=0):
    """Per kernel entry: its row within kernel, whether it lies on the
    diagonal (column offset + row), and its constraint coefficient
    diag - beta*f."""
    indptr, cols, probs = kernel
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    diag = cols == rows + offset
    return rows, diag, diag - beta * probs


def _constraint_rows(kernel, beta, offset=0):
    """CSR arrays (indptr, cols, coefs) of the constraint rows I - beta * K.

    kernel's rows belong to the lattice points offset, offset + 1, ...: a
    whole Kernel, or a block of its rows with indptr rebased to 0. A
    diagonal entry is 1.0 - beta*f, or 1.0 where the row has no self loop,
    in its place in the row; every other entry is 0.0 - beta*f; entries
    that come out zero are dropped.
    """
    indptr, cols, _ = kernel
    size = indptr.size - 1
    rows, diag, values = _entries(kernel, beta, offset)
    loose = np.ones(size, dtype=bool)
    loose[rows[diag]] = False
    # A row without a self loop gains the identity's entry, placed before
    # its columns above the diagonal: an entry moves up by the entries
    # gained in earlier rows, plus one if it lies past its own row's.
    gained = np.concatenate([[0], np.cumsum(loose)])
    at = np.arange(cols.size) + gained[rows]
    at += loose[rows] & (cols > rows + offset)
    eye = np.ones(cols.size + int(gained[-1]), dtype=bool)
    eye[at] = False
    out_cols = np.empty(eye.size, dtype=cols.dtype)
    out_cols[at] = cols
    out_cols[eye] = np.flatnonzero(loose) + offset
    coefs = np.ones(eye.size)
    coefs[at] = values
    indptr = indptr + gained
    keep = coefs != 0.0
    if keep.all():
        # The usual case for beta > 0; selecting would copy for nothing.
        return indptr, out_cols, coefs
    kept = np.concatenate([[0], np.cumsum(keep)])
    return kept[indptr], out_cols[keep], coefs[keep]


def _distinct_coefficients(kernels, beta):
    """Sorted distinct nonzero values of the constraint rows' entries: each
    kernel entry's diag - beta*f (see _entries) and the 1.0 of a row without
    a self loop. One kernel's values at a time."""
    parts = [np.ones(1)]
    for kernel in kernels.values():
        values = _entries(kernel, beta)[2]
        values.sort()
        parts.append(values[np.concatenate([[True], values[1:] != values[:-1]])])
    values = _unique(np.concatenate(parts))
    return values[values != 0.0]


class _Table(NamedTuple):
    """Where each kind of piece starts in export_lp's string table."""

    rhs: int      # right-hand sides " >= c\n", in sorted order
    var: int      # per point " V_i_j", then its newline variant
    suffix: int   # per point the label suffix "_i_j:\n"
    label: int    # per action " name", in ACTION_PRIORITY order
    one: int      # the objective's " +1"
    free: int     # the bounds' " free\n"


def _block_ids(kernels, beta, first, stop, coefs, rhs_ids, base):
    """Table ids of the constraints of lattice points first..stop-1 in file
    order: per point, per action in ACTION_PRIORITY order, the label's
    action and point suffix, each term's coefficient and variable, and the
    right-hand side. A term's variable is its newline variant where it ends
    a line of _TERMS_PER_LINE terms or the constraint."""
    rows = []
    for a in ACTION_PRIORITY:
        indptr, cols, probs = kernels[a]
        lo, hi = indptr[first], indptr[stop]
        block = Kernel(indptr[first:stop + 1] - lo, cols[lo:hi], probs[lo:hi])
        rows.append(_constraint_rows(block, beta, first))
    counts = np.stack([np.diff(indptr) for indptr, _, _ in rows], axis=1)
    sizes = 2 * counts + 3
    ends = np.cumsum(sizes).reshape(sizes.shape)
    starts = ends - sizes
    ids = np.empty(int(ends[-1, -1]), dtype=np.intp)
    ids[starts] = base.label + np.arange(len(ACTION_PRIORITY))
    ids[starts + 1] = base.suffix + np.arange(first, stop)[:, None]
    ids[ends - 1] = base.rhs + rhs_ids
    # The terms of all four actions at once, action by action: the t-th
    # term of constraint (r, k) goes to starts[r, k] + 2 + 2t.
    counts = counts.T.ravel()
    last = np.cumsum(counts)
    t = np.arange(last[-1]) - np.repeat(last - counts, counts)
    pos = np.repeat(starts.T.ravel() + 2, counts) + 2 * t
    end = t % _TERMS_PER_LINE == _TERMS_PER_LINE - 1
    end[last[counts > 0] - 1] = True
    # Values repeat within a block, so only its distinct ones are searched.
    values, inverse = _unique(np.concatenate([row[2] for row in rows]), return_inverse=True)
    found = np.searchsorted(coefs, values)
    missing = values[coefs.take(found, mode="clip") != values]
    if missing.size:
        raise AssertionError(f"constraint coefficient {float(missing[0])!r} is not in the table")
    ids[pos] = found[inverse]
    ids[pos + 1] = base.var + 2 * np.concatenate([row[1] for row in rows]) + end
    return ids


def export_lp(path, grid, kernels, econ, discount, meta_path=None):
    """Write the LP model file (and optional metadata sidecar).

    Variables appear in row-major lattice order; constraints are grouped
    per point in the same order with actions in fixed priority order, so
    repeated exports are byte-identical.

    The text is gathered by index from one table of strings, made once:
    each distinct coefficient as " +c" and right-hand side as " >= c\n",
    each variable as " V_i_j" and " V_i_j\n", each label's action and point
    suffix. Constraints are written one block of _BLOCK_ROWS lattice rows
    at a time: _constraint_rows builds the block's rows from slices of the
    kernels, their table ids are scattered into one integer array in file
    order, and the gathered strings are joined and written. The objective
    and the bounds are gathered the same way, so no term is formatted on
    its own and no whole-lattice constraint rows are held.
    """
    n = grid.n
    size = n * n
    beta = discount.beta
    # Resting earns nothing.
    rewards = np.stack([*np.broadcast_arrays(*_reward_table(grid, econ)), np.zeros((n, n))], 2)
    rhs, rhs_ids = _unique(rewards, return_inverse=True)
    rhs_ids = rhs_ids.reshape(size, len(ACTION_PRIORITY))
    del rewards
    coefs = _distinct_coefficients(kernels, beta)
    var = coefs.size + rhs.size
    labels = var + 3 * size
    one = labels + len(ACTION_PRIORITY)
    base = _Table(coefs.size, var, var + 2 * size, labels, one, one + 1)
    table = np.empty(base.free + 1, dtype=object)
    # 17 significant digits: decimal text round-trips to the same double.
    table[:base.rhs] = [" %+.17g" % c for c in coefs.tolist()]
    table[base.rhs:base.var] = [" >= %+.17g\n" % r for r in rhs.tolist()]
    digits = np.array([str(j) for j in range(n)], dtype=object)
    heads = np.array([f"_{i}_" for i in range(n)], dtype=object)
    pair = np.stack([digits, digits + "\n"], axis=1)
    table[base.var:base.suffix] = np.add.outer(" V" + heads, pair).ravel()
    table[base.suffix:base.label] = np.add.outer(heads, digits + ":\n").ravel()
    table[base.label:base.one] = [" " + a.value for a in ACTION_PRIORITY]
    table[base.one:] = [" +1", " free\n"]

    step = _BLOCK_ROWS * n
    with open(path, "w") as fh:

        def write(ids):
            fh.write("".join(table.take(ids).tolist()))

        fh.write("\\ discretized two-channel power allocation, discounted value LP\n")
        fh.write(
            f"\\ V_i_j is the value at belief (i/(n-1), j/(n-1)), n = {n}\n"
        )
        fh.write(
            "\\ each constraint: V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)\n"
        )
        fh.write("Minimize\n obj:\n")
        for first in range(0, size, step):
            points = np.arange(first, min(first + step, size))
            end = points % _TERMS_PER_LINE == _TERMS_PER_LINE - 1
            end[-1] |= points[-1] == size - 1
            ids = np.full(2 * points.size, base.one)
            ids[1::2] = base.var + 2 * points + end
            write(ids)
        fh.write("Subject To\n")
        for first in range(0, size, step):
            stop = min(first + step, size)
            write(_block_ids(kernels, beta, first, stop, coefs, rhs_ids[first:stop], base))
        fh.write("Bounds\n")
        for first in range(0, size, step):
            points = np.arange(first, min(first + step, size))
            ids = np.full(2 * points.size, base.free)
            ids[0::2] = base.var + 2 * points
            write(ids)
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
