"""Export of the discretized control problem as a text LP model.

One variable per lattice point. For every point p and action a the model
carries the constraint

    V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)

where the next-state weights f_a spread each successor belief over its
enclosing cell's vertices with the same bilinear weights the Bellman
backups use. The kernels are the CSR arrays of the solver's own
transition stencils (solver._Stencils.transitions), the ones its policy
evaluations read, and g_a comes from the expected-reward table of the Q
grids (dynamics.expected_rewards). Minimizing sum_p V(p) subject to all
constraints reproduces the discretized optimal values, so an external LP
solver can cross-check the solver from the file alone. Solving is
deliberately out of scope here; this module only builds kernels and writes
the model.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .dynamics import ACTION_PRIORITY, expected_rewards
from .solver import _Stencils

__all__ = [
    "Kernel",
    "build_all_kernels",
    "export_lp",
    "variable_name",
]

_ROW_SUM_TOL = 1e-12
_TERMS_PER_LINE = 6


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
    st = _Stencils(grid, ch)
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


def _fmt(x):
    # 17 significant digits: decimal text round-trips to the same double.
    return format(x, "+.17g")


def _write_terms(fh, head, terms, per_line=_TERMS_PER_LINE):
    chunks = [f"{_fmt(c)} {name}" for c, name in terms]
    fh.write(head)
    for start in range(0, len(chunks), per_line):
        fh.write(" " + " ".join(chunks[start:start + per_line]) + "\n")


def _constraint_rows(kernel, beta):
    """CSR arrays (indptr, cols, coefs) of the constraint rows I - beta * K.

    A diagonal entry is 1.0 - beta*f, or 1.0 where the row has no self
    loop, in its place in the row; every other entry is 0.0 - beta*f;
    entries that come out zero are dropped.
    """
    indptr, cols, probs = kernel
    size = indptr.size - 1
    rows = np.repeat(np.arange(size), np.diff(indptr))
    diag = cols == rows
    loose = np.ones(size, dtype=bool)
    loose[rows[diag]] = False
    # A row without a self loop gains the identity's entry, placed before
    # its columns above the diagonal: an entry moves up by the entries
    # gained in earlier rows, plus one if it lies past its own row's.
    gained = np.concatenate([[0], np.cumsum(loose)])
    at = np.arange(cols.size) + gained[rows]
    at += loose[rows] & (cols > rows)
    eye = np.ones(cols.size + int(gained[-1]), dtype=bool)
    eye[at] = False
    out_cols = np.empty(eye.size, dtype=cols.dtype)
    out_cols[at] = cols
    out_cols[eye] = np.flatnonzero(loose)
    coefs = np.ones(eye.size)
    coefs[at] = diag - beta * probs
    indptr = indptr + gained
    keep = coefs != 0.0
    if keep.all():
        # The usual case for beta > 0; selecting would copy for nothing.
        return indptr, out_cols, coefs
    kept = np.concatenate([[0], np.cumsum(keep)])
    return kept[indptr], out_cols[keep], coefs[keep]


def _line_ends(indptr):
    """Per CSR entry: whether a term line ends after it."""
    nnz = int(indptr[-1])
    starts = np.repeat(indptr[:-1], np.diff(indptr))
    end = (np.arange(nnz) - starts) % _TERMS_PER_LINE == _TERMS_PER_LINE - 1
    end[indptr[1:] - 1] = True
    return end


def export_lp(path, grid, kernels, econ, discount, meta_path=None):
    """Write the LP model file (and optional metadata sidecar).

    Variables appear in row-major lattice order; constraints are grouped
    per point in the same order with actions in fixed priority order, so
    repeated exports are byte-identical. The text is built and written one
    lattice row (4n constraints) at a time.
    """
    n = grid.n
    size = n * n
    beta = discount.beta
    rows = [_constraint_rows(kernels[a], beta) for a in ACTION_PRIORITY]
    ends = [_line_ends(indptr) for indptr, _, _ in rows]
    lattice = np.meshgrid(grid.points, grid.points, indexing="ij")
    rewards = [g.ravel() for g in expected_rewards(*lattice, econ)]
    distinct = np.unique(np.concatenate([coefs for _, _, coefs in rows] + rewards))
    text = {c: _fmt(c) for c in distinct.tolist()}
    names = [variable_name(n, p) for p in range(size)]
    labels = [a.value for a in ACTION_PRIORITY]

    with open(path, "w") as fh:
        fh.write("\\ discretized two-channel power allocation, discounted value LP\n")
        fh.write(
            f"\\ V_i_j is the value at belief (i/(n-1), j/(n-1)), n = {n}\n"
        )
        fh.write(
            "\\ each constraint: V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)\n"
        )
        fh.write("Minimize\n")
        _write_terms(fh, " obj:\n", [(1.0, name) for name in names])
        fh.write("Subject To\n")
        for i in range(n):
            first, stop = i * n, (i + 1) * n
            blocks = []
            for (indptr, cols, coefs), end, g in zip(rows, ends, rewards):
                lo, hi = indptr[first], indptr[stop]
                terms = [
                    f" {text[c]} {names[y]}\n" if e else f" {text[c]} {names[y]}"
                    for c, y, e in zip(
                        coefs[lo:hi].tolist(), cols[lo:hi].tolist(), end[lo:hi].tolist()
                    )
                ]
                bounds = (indptr[first:stop + 1] - lo).tolist()
                rhs = [f" >= {text[r]}\n" for r in g[first:stop].tolist()]
                blocks.append((terms, bounds, rhs))
            parts = []
            for j in range(n):
                for label, (terms, bounds, rhs) in zip(labels, blocks):
                    parts.append(f" {label}_{i}_{j}:\n")
                    parts.extend(terms[bounds[j]:bounds[j + 1]])
                    parts.append(rhs[j])
            fh.write("".join(parts))
        fh.write("Bounds\n")
        for name in names:
            fh.write(f" {name} free\n")
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
