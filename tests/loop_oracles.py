"""Scalar and per-slot reference loops for the vectorised kernels and
policy supports, the table-driven Monte Carlo, the table-driven artifact
writers and LP text, the orjson value-file reader, the memoised Q grids,
the boxed policy extension, the unstacked policy argmax, the scalar Q
probe and the vectorised contiguity check, and scipy references for the
numpy support marking, policy evaluation and LP constraint rows.

These are the straightforward formulations: one dict per kernel row, a
mask marked per successor vertex pair, a Monte Carlo step that carries
float beliefs and recomputes every reward, writers that format every point,
slot or LP term on its own, a value-file reader that is one json.load, Q
grids that locate every coordinate and rebuild the reward table on each
call, an extension that reads each point's action off all four full Q
grids, a policy read off the stacked Q grids, one Q function per action
built on one-point numpy interpolation, a per-line hole search, sparse
matrix products for the support, Jacobi steps through a CSR matrix
product, and I - beta * K in scipy's sparse arithmetic. Tests require the
production code to match them bit for bit.
"""

import csv
import json
import math

import numpy as np
from scipy import sparse

from gepower import Action
from gepower.dynamics import (
    ACTION_PRIORITY,
    USES_CHANNEL,
    Belief,
    expected_rewards,
    propagate,
    propagate_array,
)
from gepower.lpmodel import _constraint_rows, variable_name
from gepower.policy import _PPM_COLORS, ContiguityViolation, PolicyField
from gepower.simulate import SimSummary, TraceBatch
from gepower.solver import (
    _LAYOUT_NOTE,
    ValueField,
    ValueFileError,
    _parse_value_doc,
    _select,
    action_value_grids,
    interpolate,
)
from lp_oracles import as_csr


def _locate(points, q):
    """Cell index plus intra-cell coordinate, normalized by the cell width."""
    q = np.asarray(q, dtype=np.float64)
    idx = np.searchsorted(points, q, side="right") - 1
    idx = np.clip(idx, 0, points.size - 2)
    frac = (q - points[idx]) / (points[idx + 1] - points[idx])
    return idx, frac


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


def loop_kernel(grid, ch, action):
    """The action's build_all_kernels matrix as one dict accumulation per
    lattice point."""
    n = grid.n
    indptr = np.zeros(n * n + 1, dtype=np.int64)
    all_cols = []
    all_probs = []
    for p, succ in enumerate(_successors(grid, ch, action)):
        acc = {}
        for (sx, sy), prob in succ:
            if prob == 0.0:
                continue
            for ivx, wx in _vertex_weights(grid.points, sx):
                if wx == 0.0:
                    continue
                for ivy, wy in _vertex_weights(grid.points, sy):
                    w = prob * wx * wy
                    if w == 0.0:
                        continue
                    flat = ivx * n + ivy
                    acc[flat] = acc.get(flat, 0.0) + w
        cols = sorted(acc)
        all_cols.extend(cols)
        all_probs.extend(acc[c] for c in cols)
        indptr[p + 1] = len(all_cols)
    return sparse.csr_matrix(
        (
            np.asarray(all_probs, dtype=np.float64),
            np.asarray(all_cols, dtype=np.int64),
            indptr,
        ),
        shape=(n * n, n * n),
    )



def loop_support(policy, grid, ch):
    """Sorted flat indices of the lattice points that the policy's
    transitions read: for each point, every vertex pair of the cells of its
    chosen action's successor beliefs, whatever the branch probability or
    vertex weight."""
    n = grid.n
    vertices = {}
    mask = np.zeros((n, n), dtype=bool)
    chosen = policy.ravel()
    for k, action in enumerate(ACTION_PRIORITY):
        for p, succ in enumerate(_successors(grid, ch, action)):
            if chosen[p] != k:
                continue
            for pair, _ in succ:
                for b in pair:
                    if b not in vertices:
                        vertices[b] = [i for i, _ in _vertex_weights(grid.points, b)]
                xs, ys = (vertices[b] for b in pair)
                for i in xs:
                    for j in ys:
                        mask[i, j] = True
    return np.flatnonzero(mask)


def sparse_support(policy, st):
    """The support as the nonzero pattern of the sum over action indices k
    of reach[sx]^T [policy == k] reach[sy], where reach[observed] is the
    n x n 0/1 CSR matrix whose row i marks the lattice indices of i's four
    stencil slots in st, and (sx, sy) says which coordinates k observes."""
    n = policy.shape[0]
    reach = [
        sparse.csr_matrix((np.ones(4 * n), cols.ravel(), np.arange(0, 4 * n + 1, 4)), shape=(n, n))
        for cols in st.slots[1]
    ]
    mask = sum(
        reach[sx].T @ (policy == k) @ reach[sy]
        for k, (sx, sy) in enumerate(USES_CHANNEL[a] for a in ACTION_PRIORITY)
    )
    return np.flatnonzero(mask)


def csr_restricted_kernel(support, policy, st):
    """P_policy restricted to its closed support, as a CSR matrix."""
    indptr, cols, probs = st.transitions(support, policy.ravel()[support])
    m = support.size
    return sparse.csr_matrix((probs, np.searchsorted(support, cols), indptr), shape=(m, m))


def csr_evaluate(kernel, gain, beta, max_steps):
    """solver._evaluate with each Jacobi step a CSR matrix-vector product."""
    delta = np.zeros_like(gain)
    prev = np.inf
    shift = beta / (1.0 - beta)
    for step in range(1, max_steps + 1):
        nxt = gain + beta * (kernel @ delta)
        d = nxt - delta
        delta = nxt
        lo, hi = float(d.min()), float(d.max())
        if hi - lo == 0.0 or hi - lo >= prev:
            break
        prev = hi - lo
    return delta + shift * 0.5 * (lo + hi), step


def sparse_constraint_rows(kernel, beta):
    """The LP constraint rows I - beta * K in scipy's sparse arithmetic."""
    size = kernel.indptr.size - 1
    return sparse.identity(size, format="csr") - beta * as_csr(*kernel)


def _select_actions(policy, beliefs, econ, u_act):
    if isinstance(policy, PolicyField):
        n = policy.grid.n
        i = np.rint(beliefs[:, 0] * (n - 1)).astype(np.intp)
        j = np.rint(beliefs[:, 1] * (n - 1)).astype(np.intp)
        return policy.primary[i, j].astype(np.intp)
    if policy == "always-balanced":
        return np.full(beliefs.shape[0], ACTION_PRIORITY.index(Action.BALANCED), dtype=np.intp)
    if policy == "always-conservative":
        return np.full(beliefs.shape[0], ACTION_PRIORITY.index(Action.CONSERVATIVE), dtype=np.intp)
    if policy == "random-uniform":
        return np.minimum((u_act * 4).astype(np.intp), 3)
    assert policy == "myopic"
    g = np.stack(
        [
            (beliefs[:, 0] + beliefs[:, 1]) * (econ.rl + econ.cl) - 2.0 * econ.cl,
            beliefs[:, 0] * (econ.rh + econ.ch) - econ.ch,
            beliefs[:, 1] * (econ.rh + econ.ch) - econ.ch,
            np.zeros(beliefs.shape[0]),
        ],
        axis=1,
    )
    return g.argmax(axis=1).astype(np.intp)


def loop_episodes(policy, cfg, ch, econ, discount, value_scale=None):
    """run_episodes as one pass over all episodes per slot, carrying float
    beliefs; returns (SimSummary, TraceBatch)."""
    E, H = cfg.episodes, cfg.horizon
    beta = discount.beta
    # Row k of one stream: two initial-state draws, then per slot one action
    # draw and two transition draws.
    u = np.random.default_rng(cfg.seed).random((E, 2 + 3 * H))

    b0 = cfg.initial_belief
    states = (u[:, 0:2] < np.array([b0.p1, b0.p2])).astype(np.int8)
    beliefs = np.tile(np.array([b0.p1, b0.p2]), (E, 1))

    total = np.zeros(E)
    counts = np.zeros(len(ACTION_PRIORITY), dtype=np.int64)
    bal_k = ACTION_PRIORITY.index(Action.BALANCED)
    b1_k = ACTION_PRIORITY.index(Action.BET1)
    b2_k = ACTION_PRIORITY.index(Action.BET2)

    tr_states = np.empty((E, H, 2), dtype=np.int8)
    tr_beliefs = np.empty((E, H, 2))
    tr_actions = np.empty((E, H), dtype=np.int8)
    tr_rewards = np.empty((E, H))
    tr_cum = np.empty((E, H))

    bt = 1.0
    for t in range(H):
        acts = _select_actions(policy, beliefs, econ, u[:, 2 + 3 * t])
        counts += np.bincount(acts, minlength=len(ACTION_PRIORITY))

        good1 = states[:, 0] == 1
        good2 = states[:, 1] == 1
        r_full1 = np.where(good1, econ.rh, -econ.ch)
        r_full2 = np.where(good2, econ.rh, -econ.ch)
        r_half = np.where(good1, econ.rl, -econ.cl) + np.where(good2, econ.rl, -econ.cl)
        rewards = np.select(
            [acts == bal_k, acts == b1_k, acts == b2_k],
            [r_half, r_full1, r_full2],
            default=0.0,
        )
        total += bt * rewards

        tr_states[:, t] = states
        tr_beliefs[:, t] = beliefs
        tr_actions[:, t] = acts
        tr_rewards[:, t] = rewards
        tr_cum[:, t] = total

        used1 = (acts == bal_k) | (acts == b1_k)
        used2 = (acts == bal_k) | (acts == b2_k)
        obs1 = np.where(good1, ch.lambda1, ch.lambda0)
        obs2 = np.where(good2, ch.lambda1, ch.lambda0)
        beliefs = np.column_stack(
            [
                np.where(used1, obs1, propagate_array(beliefs[:, 0], ch)),
                np.where(used2, obs2, propagate_array(beliefs[:, 1], ch)),
            ]
        )

        p_good1 = np.where(good1, ch.lambda1, ch.lambda0)
        p_good2 = np.where(good2, ch.lambda1, ch.lambda0)
        states = np.column_stack(
            [
                (u[:, 3 + 3 * t] < p_good1).astype(np.int8),
                (u[:, 4 + 3 * t] < p_good2).astype(np.int8),
            ]
        )
        bt *= beta

    mean = float(np.mean(total))
    se = float(np.std(total, ddof=1) / math.sqrt(E)) if E > 1 else 0.0
    if value_scale is None:
        value_scale = max(econ.rh, 2.0 * econ.rl) / (1.0 - beta) if beta > 0.0 else max(econ.rh, 2.0 * econ.rl)
    bound = beta ** H * value_scale
    summary = SimSummary(
        policy=policy if isinstance(policy, str) else "grid-policy",
        episodes=E,
        horizon=H,
        seed=cfg.seed,
        mean=mean,
        se=se,
        action_freq={
            a: float(counts[k] / (E * H)) for k, a in enumerate(ACTION_PRIORITY)
        },
        truncation_bound=float(bound),
        truncation_ok=bool(bound <= 0.01 * value_scale),
    )
    return summary, TraceBatch(tr_states, tr_beliefs, tr_actions, tr_rewards, tr_cum)


def loop_policy_csv(policy, path):
    """export_policy_csv as one f-string per lattice point."""
    x = policy.grid.points
    with open(path, "w") as fh:
        fh.write("# primary action resolves ties as balanced > bet1 > bet2 > conservative\n")
        fh.write("i,j,p1,p2,primary,best\n")
        for i in range(policy.grid.n):
            for j in range(policy.grid.n):
                names = "|".join(
                    ACTION_PRIORITY[k].value
                    for k in range(len(ACTION_PRIORITY))
                    if policy.best[i, j, k]
                )
                primary = ACTION_PRIORITY[policy.primary[i, j]].value
                fh.write(f"{i},{j},{float(x[i])!r},{float(x[j])!r},{primary},{names}\n")


def loop_policy_ppm(policy, path):
    """export_policy_ppm as one colour lookup per lattice point."""
    n = policy.grid.n
    lines = [
        "P3",
        "# primary action map; legend (r g b):",
    ]
    for a in ACTION_PRIORITY:
        r, g, b = _PPM_COLORS[a]
        lines.append(f"# {a.value} = {r} {g} {b}")
    lines.append("# column c is p1 = c/(n-1); row r is p2 = 1 - r/(n-1) (p2 falls top to bottom)")
    lines.append(f"{n} {n}")
    lines.append("255")
    for r in range(n):
        j = n - 1 - r
        row = []
        for c in range(n):
            col = _PPM_COLORS[ACTION_PRIORITY[policy.primary[c, j]]]
            row.append(f"{col[0]} {col[1]} {col[2]}")
        lines.append("  ".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def loop_value_field(path, result, ch, econ, discount):
    """save_value_field as one json.dump of the whole document."""
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
        "values": [float(x) for x in result.field.values.ravel()],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def json_load_value_field(path):
    """load_value_field with json alone: one json.load of the text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return _parse_value_doc(doc)
    except KeyError as exc:
        raise ValueFileError(f"value file {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueFileError(f"value file {path}: {exc}") from exc


def loop_traces_csv(batch, path):
    """write_traces_csv as one csv.writer row and four reprs per slot."""
    E, H = batch.actions.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["episode", "t", "g1", "g2", "b1", "b2", "action", "reward", "cum_discounted"]
        )
        for e in range(E):
            for t in range(H):
                writer.writerow(
                    [
                        e,
                        t,
                        int(batch.states[e, t, 0]),
                        int(batch.states[e, t, 1]),
                        repr(float(batch.beliefs[e, t, 0])),
                        repr(float(batch.beliefs[e, t, 1])),
                        ACTION_PRIORITY[batch.actions[e, t]].value,
                        repr(float(batch.rewards[e, t])),
                        repr(float(batch.cum_disc[e, t])),
                    ]
                )


def _lp_fmt(x):
    return format(x, "+.17g")


def _lp_terms(fh, head, terms, per_line=6):
    chunks = [f"{_lp_fmt(c)} {name}" for c, name in terms]
    fh.write(head)
    for start in range(0, len(chunks), per_line):
        fh.write(" " + " ".join(chunks[start:start + per_line]) + "\n")


def _lp_line_ends(indptr, per_line=6):
    """Per CSR entry: whether a term line ends after it."""
    nnz = int(indptr[-1])
    starts = np.repeat(indptr[:-1], np.diff(indptr))
    end = (np.arange(nnz) - starts) % per_line == per_line - 1
    end[indptr[1:] - 1] = True
    return end


def loop_export_lp(path, grid, kernels, econ, discount):
    """export_lp's model.lp from the whole-lattice constraint rows, one
    f-string per constraint term, one lattice row at a time."""
    n = grid.n
    size = n * n
    beta = discount.beta
    rows = [_constraint_rows(kernels[a], beta) for a in ACTION_PRIORITY]
    ends = [_lp_line_ends(indptr) for indptr, _, _ in rows]
    lattice = np.meshgrid(grid.points, grid.points, indexing="ij")
    rewards = [g.ravel() for g in expected_rewards(*lattice, econ)]
    distinct = np.unique(np.concatenate([coefs for _, _, coefs in rows] + rewards))
    text = {c: _lp_fmt(c) for c in distinct.tolist()}
    names = [variable_name(n, p) for p in range(size)]
    labels = [a.value for a in ACTION_PRIORITY]

    with open(path, "w") as fh:
        fh.write("\\ discretized two-channel power allocation, discounted value LP\n")
        fh.write(f"\\ V_i_j is the value at belief (i/(n-1), j/(n-1)), n = {n}\n")
        fh.write("\\ each constraint: V(p) - beta * sum_y f_a(p, y) V(y) >= g_a(p)\n")
        fh.write("Minimize\n")
        _lp_terms(fh, " obj:\n", [(1.0, name) for name in names])
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


def _tensor_interp(values, points, qx, qy):
    """Bilinear interpolation on the tensor product qx x qy, locating both
    axes on every call; corner terms summed diagonal pair first."""
    ix, fx = _locate(points, np.asarray(qx, dtype=np.float64))
    iy, fy = _locate(points, np.asarray(qy, dtype=np.float64))
    wx = ((1.0 - fx)[:, None], fx[:, None])
    wy = ((1.0 - fy)[None, :], fy[None, :])

    def term(a, b):
        t = wx[a] * wy[b]
        t *= values[np.ix_(ix + a, iy + b)]
        return t

    out = term(0, 0)
    out += term(1, 1)
    cross = term(0, 1)
    cross += term(1, 0)
    out += cross
    return out


def loop_action_value_grids(v, ch, econ, discount):
    """action_value_grids with every axis located, every block gathered on
    its own and the reward table rebuilt on each call."""
    x = v.grid.points
    vals = v.values
    beta = discount.beta
    tx = propagate_array(x, ch)
    lam = np.array([ch.lambda0, ch.lambda1])

    c = _tensor_interp(vals, x, lam, lam)
    v00, v01, v10, v11 = c[0, 0], c[0, 1], c[1, 0], c[1, 1]
    row = _tensor_interp(vals, x, lam, tx)
    col = _tensor_interp(vals, x, tx, lam)
    rest = _tensor_interp(vals, x, tx, tx)

    p1 = x[:, None]
    p2 = x[None, :]
    g_bb, g_b1, g_b2, _ = expected_rewards(p1, p2, econ)

    q_bb = g_bb + beta * (
        (((1.0 - p1) * (1.0 - p2)) * v00 + (p1 * p2) * v11)
        + ((p1 * (1.0 - p2)) * v10 + ((1.0 - p1) * p2) * v01)
    )
    q_b1 = g_b1 + beta * (p1 * row[1][None, :] + (1.0 - p1) * row[0][None, :])
    q_b2 = g_b2 + beta * (p2 * col[:, 1][:, None] + (1.0 - p2) * col[:, 0][:, None])
    return {
        Action.BALANCED: q_bb,
        Action.BET1: q_b1,
        Action.BET2: q_b2,
        Action.CONSERVATIVE: beta * rest,
    }


def _corner_values(v, ch):
    lam = np.array([ch.lambda0, ch.lambda1])
    c = _tensor_interp(v.values, v.grid.points, lam, lam)
    return c[0, 0], c[0, 1], c[1, 0], c[1, 1]


def q_balanced(v, b, ch, econ, discount):
    """Action value of splitting power across both channels."""
    v00, v01, v10, v11 = _corner_values(v, ch)
    cont = (((1.0 - b.p1) * (1.0 - b.p2)) * v00 + (b.p1 * b.p2) * v11) + (
        (b.p1 * (1.0 - b.p2)) * v10 + ((1.0 - b.p1) * b.p2) * v01
    )
    return (b.p1 + b.p2) * (econ.rl + econ.cl) - 2.0 * econ.cl + discount.beta * cont


def q_bet1(v, b, ch, econ, discount):
    """Action value of putting all power on channel 1."""
    t2 = propagate(b.p2, ch)
    lam = np.array([ch.lambda0, ch.lambda1])
    e = _tensor_interp(v.values, v.grid.points, lam, np.array([t2]))[:, 0]
    cont = b.p1 * e[1] + (1.0 - b.p1) * e[0]
    return (econ.rh + econ.ch) * b.p1 - econ.ch + discount.beta * cont


def q_bet2(v, b, ch, econ, discount):
    """Action value of putting all power on channel 2."""
    t1 = propagate(b.p1, ch)
    lam = np.array([ch.lambda0, ch.lambda1])
    e = _tensor_interp(v.values, v.grid.points, np.array([t1]), lam)[0, :]
    cont = b.p2 * e[1] + (1.0 - b.p2) * e[0]
    return (econ.rh + econ.ch) * b.p2 - econ.ch + discount.beta * cont


def q_conservative(v, b, ch, discount):
    """Action value of resting: no reward, beliefs drift toward stationary."""
    nxt = Belief(propagate(b.p1, ch), propagate(b.p2, ch))
    return discount.beta * interpolate(v, nxt)


def select_extend(grid, support, v_support, policy, ch, econ, discount):
    """solver._extend through all four full-lattice Q grids of the
    zero-filled support field, each point reading its action's grid."""
    vals = np.zeros(grid.n * grid.n)
    vals[support] = v_support
    q = action_value_grids(ValueField(grid, vals.reshape(grid.n, grid.n)), ch, econ, discount)
    vals = _select(q, policy)
    return ValueField(grid, (vals + vals.T) / 2.0)


def stack_extract_policy(v, ch, econ, discount, tie_tol=None):
    """extract_policy as one comparison of the stacked Q grids against
    their max."""
    q = action_value_grids(v, ch, econ, discount)
    stack = np.stack([q[a] for a in ACTION_PRIORITY])
    if tie_tol is None:
        spread = float(v.values.max() - v.values.min())
        tie_tol = 1e-8 * (spread if spread > 0.0 else 1.0)
    top = stack.max(axis=0)
    best = np.transpose(stack >= top - tie_tol, (1, 2, 0))
    primary = best.argmax(axis=2).astype(np.int8)
    return PolicyField(v.grid, best, primary, float(tie_tol))


def _first_hole(line):
    hits = np.flatnonzero(line)
    if hits.size < 2:
        return None
    inner = line[hits[0]:hits[-1] + 1]
    holes = np.flatnonzero(~inner)
    if holes.size == 0:
        return None
    start = int(hits[0] + holes[0])
    end = start
    while end + 1 < hits[-1] and not line[end + 1]:
        end += 1
    return (start, end)


def loop_contiguity(p):
    """check_contiguity as one hole search per lattice row and column."""
    out = []
    for k, a in enumerate(ACTION_PRIORITY):
        m = p.best[:, :, k]
        for i in range(p.grid.n):
            gap = _first_hole(m[i, :])
            if gap is not None:
                out.append(ContiguityViolation(a, "along-p2", i, gap))
        for j in range(p.grid.n):
            gap = _first_hole(m[:, j])
            if gap is not None:
                out.append(ContiguityViolation(a, "along-p1", j, gap))
    return out


def loop_runs(lines):
    """policy._runs as one scan per line: (line, start, stop) tuples."""
    out = []
    for li, line in enumerate(lines.reshape(-1, lines.shape[-1]).tolist()):
        start = None
        for j, hit in enumerate(line + [False]):
            if hit and start is None:
                start = j
            elif not hit and start is not None:
                out.append((li, start, j))
                start = None
    return out
