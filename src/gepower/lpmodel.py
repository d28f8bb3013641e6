"""Export of the discretized control problem as a text LP model.

One variable per lattice point. For every point p and action a the model
carries the constraint

    V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)

where the next-state weights f_a spread each successor belief over its
enclosing cell's vertices with the same bilinear weights the Bellman
backups use. The kernels are scipy CSR matrices of the solver's own
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

import numpy as np
from scipy import sparse

from .dynamics import ACTION_PRIORITY, expected_rewards
from .solver import _Stencils

__all__ = [
    "build_all_kernels",
    "export_lp",
    "variable_name",
]

_ROW_SUM_TOL = 1e-12
_TERMS_PER_LINE = 6


def build_all_kernels(grid, ch):
    """Per action, the bilinear spread of its successor beliefs onto the
    lattice: an (n*n, n*n) CSR matrix over flat row-major lattice indices.

    The rows are the solver's own transition stencils (see
    solver._Stencils.transitions), so the exported model and the policy
    evaluations read one encoding of the discretized dynamics.
    """
    st = _Stencils(grid, ch)
    size = grid.n * grid.n
    flat = np.arange(size)
    kernels = {}
    for k, action in enumerate(ACTION_PRIORITY):
        indptr, cols, probs = st.transitions(flat, k)
        totals = np.add.reduceat(probs, indptr[:-1])
        bad = np.flatnonzero(np.abs(totals - 1.0) > _ROW_SUM_TOL)
        if bad.size:
            p = int(bad[0])
            raise AssertionError(f"kernel row {p} for {action.value} sums to {float(totals[p])!r}")
        kernels[action] = sparse.csr_matrix((probs, cols, indptr), shape=(size, size))
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
    # Constraint rows I - beta * K: the diagonal is 1.0 - beta*f (1.0 where
    # the kernel has no self loop), every other entry 0.0 - beta*f, and
    # scipy drops the entries that come out zero.
    eye = sparse.identity(size, format="csr")
    rows = [eye - beta * kernels[a] for a in ACTION_PRIORITY]
    ends = [_line_ends(m.indptr) for m in rows]
    lattice = np.meshgrid(grid.points, grid.points, indexing="ij")
    rewards = [g.ravel() for g in expected_rewards(*lattice, econ)]
    distinct = np.unique(np.concatenate([m.data for m in rows] + rewards))
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
            for m, end, g in zip(rows, ends, rewards):
                indptr, cols, coefs = m.indptr, m.indices, m.data
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
