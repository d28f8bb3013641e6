"""Reader of the LP text model that gepower.lpmodel.export_lp writes, the
feasibility of a value vector under its kernels, and kernels as scipy
matrices.

Tests use these to check the exported model: parse_lp reads back the subset
of the LP format the exporter emits, highs_solve solves what it read with
scipy's HiGHS, feasibility_gap measures how far a candidate value vector is
from satisfying every constraint, and as_csr turns CSR arrays, such as a
build_all_kernels kernel, into the scipy matrix that the reference
computations multiply with.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from gepower.dynamics import ACTION_PRIORITY, expected_rewards
from gepower.lpmodel import variable_name


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


def highs_solve(model, n):
    """Solve a parse_lp model of an n x n lattice with HiGHS.

    Returns scipy's linprog result: x holds the values in flat lattice
    order, and ineqlin.marginals the duals in the order of
    model.constraints.
    """
    column = {variable_name(n, p): p for p in range(n * n)}
    rows, cols, coefs = [], [], []
    for r, con in enumerate(model.constraints):
        assert con.sense == ">="
        for name, c in con.coeffs.items():
            rows.append(r)
            cols.append(column[name])
            coefs.append(-c)
    cost = np.zeros(n * n)
    for name, c in model.objective.items():
        cost[column[name]] = c
    a_ub = sparse.csr_matrix((coefs, (rows, cols)), shape=(len(model.constraints), n * n))
    b_ub = -np.array([con.rhs for con in model.constraints])
    return linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")


def as_csr(indptr, cols, probs):
    """The square scipy CSR matrix of CSR arrays; as_csr(*kernel) for a
    build_all_kernels kernel."""
    size = indptr.size - 1
    return sparse.csr_matrix((probs, cols, indptr), shape=(size, size))


def feasibility_gap(values_flat, kernels, econ, discount, grid):
    """Worst constraint violation of a candidate value vector.

    Returns max over points and actions of g_a(p) + beta * f_a(p,.) V - V(p);
    anything above solver tolerance means the vector is not feasible for the
    exported model.
    """
    lattice = np.meshgrid(grid.points, grid.points, indexing="ij")
    worst = -np.inf
    for a, g in zip(ACTION_PRIORITY, expected_rewards(*lattice, econ)):
        q = g.ravel() + discount.beta * (as_csr(*kernels[a]) @ values_flat)
        worst = max(worst, float(np.max(q - values_flat)))
    return worst
