"""Optimal-policy extraction and structural checks on a solved belief grid.

The converged field induces, at every lattice point, the set of actions
within a tie tolerance of the best Q value. On top of those tie-aware sets
this module computes decision-region areas, verifies mirror symmetry across
the diagonal, per-line contiguity, single connectedness anchored at the four
corners, and the bet regions' diagonal dominance, locates the edge and
diagonal switching thresholds by bisection, and classifies the diagonal as a
one- or two-threshold structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import ACTION_PRIORITY, Action, ParameterError, propagate
from .solver import _axis, _gather, _q_action, _q_max, action_value_grids, q_probe

__all__ = [
    "PolicyField",
    "ContiguityViolation",
    "ConnectivityReport",
    "EdgeThresholds",
    "DiagonalStructure",
    "StructureReport",
    "ANCHOR_CORNERS",
    "extract_policy",
    "region_map",
    "check_contiguity",
    "check_symmetry",
    "check_connectivity",
    "bet_dominance_violations",
    "delta_funcs",
    "edge_thresholds",
    "diagonal_structure",
    "analyze_structure",
    "report_has_violations",
    "save_structure_report",
    "export_policy_csv",
    "export_policy_ppm",
]

_IDX = {a: k for k, a in enumerate(ACTION_PRIORITY)}

# Corner each region must reach: (row index sign, column index sign) with
# -1 meaning the last lattice index.
ANCHOR_CORNERS = {
    Action.CONSERVATIVE: (0, 0),
    Action.BET2: (0, -1),
    Action.BET1: (-1, 0),
    Action.BALANCED: (-1, -1),
}

ONE_THRESHOLD = "one-threshold"
TWO_THRESHOLD = "two-threshold"
OTHER = "other"


@dataclass(frozen=True, eq=False)
class PolicyField:
    """Tie-aware optimal actions on the lattice.

    best[i, j, k] marks action ACTION_PRIORITY[k] as within tie_tol of the
    max Q at point (i, j); primary[i, j] is the first such k in priority
    order (balanced > bet1 > bet2 > conservative).
    """

    grid: object
    best: np.ndarray
    primary: np.ndarray
    tie_tol: float

    def __post_init__(self):
        best = np.array(self.best, dtype=bool)
        primary = np.array(self.primary, dtype=np.int8)
        n = self.grid.n
        if best.shape != (n, n, len(ACTION_PRIORITY)) or primary.shape != (n, n):
            raise ValueError("policy arrays do not match the grid")
        if not best.any(axis=2).all():
            raise ValueError("every lattice point needs at least one best action")
        if not best[np.arange(n)[:, None], np.arange(n)[None, :], primary].all():
            raise ValueError("primary action must belong to the best set")
        best.setflags(write=False)
        primary.setflags(write=False)
        object.__setattr__(self, "best", best)
        object.__setattr__(self, "primary", primary)


def extract_policy(v, ch, econ, discount, tie_tol=None):
    """Tie-aware argmax of the four Q grids against a converged field.

    tie_tol defaults to 1e-8 of the field's value range: the diagonal ties
    the two bet actions exactly in theory, and the tolerance keeps that a
    testable statement on the grid. A given tie_tol must be finite and
    non-negative, or every point could lose its best action.
    """
    if tie_tol is not None and not 0.0 <= tie_tol < math.inf:
        raise ParameterError(f"0 <= tie_tol < inf violated: tie_tol={tie_tol!r}")
    planes, primary, tie_tol = _best_sets(action_value_grids(v, ch, econ, discount), v, tie_tol)
    return PolicyField(v.grid, planes.transpose(1, 2, 0), primary, tie_tol)


def _best_sets(q, v, tie_tol):
    """extract_policy's tie rule on the Q arrays q (one shape, priority
    order): the planes [k] of the actions within tie_tol (None: 1e-8 of v's
    value range) of the max, the first such k per point, and tie_tol."""
    if tie_tol is None:
        spread = float(v.values.max() - v.values.min())
        tie_tol = 1e-8 * (spread if spread > 0.0 else 1.0)
    # One action's plane at a time, against the running max, so the four
    # arrays are never stacked.
    low = _q_max(q)
    low -= tie_tol
    planes = np.empty((len(ACTION_PRIORITY),) + low.shape, dtype=bool)
    for plane, a in zip(planes, ACTION_PRIORITY):
        np.greater_equal(q[a], low, out=plane)
    # The first best action: the planes written over each other, last first.
    primary = np.full(low.shape, len(ACTION_PRIORITY) - 1, dtype=np.int8)
    for k in range(len(ACTION_PRIORITY) - 2, -1, -1):
        np.copyto(primary, k, where=planes[k])
    return planes, primary, float(tie_tol)


def region_map(p):
    """Normalized area of every action's decision region.

    Ties are split fractionally: a point carrying k tied actions adds 1/k
    to each of their areas, so the areas sum to one.
    """
    share = 1.0 / p.best.sum(axis=2)
    total = float(p.grid.n * p.grid.n)
    return {
        a: float((share * p.best[:, :, k]).sum() / total)
        for k, a in enumerate(ACTION_PRIORITY)
    }


@dataclass(frozen=True)
class ContiguityViolation:
    action: Action
    axis: str        # "along-p1": the line varies the first coordinate
    index: int       # lattice index of the fixed coordinate
    gap: tuple       # (first, last) lattice index of the first hole


def _runs(lines):
    """Every run of True along the last axis of a boolean array.

    Returns (line, start, stop) arrays, one entry per run in line-major
    order: the run's line as a flat index over the leading axes, its first
    index and one past its last.
    """
    n = lines.shape[-1]
    width = n + 1
    # Each line is followed by one False cell and the whole by one in front,
    # so the changes along the flat array alternate run start and run stop,
    # as line-major keys line * width + index.
    flat = np.zeros(lines.size // n * width + 1, dtype=bool)
    flat[1:].reshape(-1, width)[:, :n] = lines.reshape(-1, n)
    change = np.flatnonzero(flat[1:] != flat[:-1])
    line, start = np.divmod(change[0::2], width)
    return line, start, change[1::2] - line * width


def check_contiguity(p):
    """Membership along every lattice row and column must be an interval.

    A line's first hole is the gap between its first two runs.
    """
    n = p.grid.n
    m = np.moveaxis(p.best, 2, 0)  # m[k, i, j]: rows i run along p2
    # Lines (k, axis, i), so the runs come in report order.
    line, start, stop = _runs(np.stack([m, m.transpose(0, 2, 1)], axis=1))
    first = np.diff(line, prepend=-1) != 0
    r = np.flatnonzero(first[:-1] & (line[1:] == line[:-1]))
    out = []
    for at, lo, hi in zip(line[r].tolist(), stop[r].tolist(), start[r + 1].tolist()):
        k, axis, i = at // (2 * n), ("along-p2", "along-p1")[at // n % 2], at % n
        out.append(ContiguityViolation(ACTION_PRIORITY[k], axis, i, (lo, hi - 1)))
    return out


def check_symmetry(p):
    """Mirror test across the diagonal.

    Swapping the two belief coordinates must swap the two bet actions and
    fix balanced and conservative; best sets are compared, not single
    argmax picks, so exact ties do not trip the check.
    """
    swapped = p.best[:, :, [_IDX[Action.BALANCED], _IDX[Action.BET2],
                            _IDX[Action.BET1], _IDX[Action.CONSERVATIVE]]]
    bad = (np.transpose(p.best, (1, 0, 2)) != swapped).any(axis=2)
    return [(int(i), int(j)) for i, j in np.argwhere(bad) if i <= j]


@dataclass(frozen=True)
class ConnectivityReport:
    components: int
    anchor_present: bool


def _components(mask):
    """Number of 4-connected components of a 2-D boolean mask.

    Union-find over the runs of each row: a run joins every run of the
    previous row that shares a column with it (diagonal neighbours do not
    touch).
    """
    row, start, stop = _runs(mask)
    # Keys row * width + column order the runs row-major, and the previous
    # row's runs overlapping [start, stop) are those that stop after start
    # and begin before stop.
    width = mask.shape[1] + 1
    start = start + row * width
    stop = stop + row * width
    lo = np.searchsorted(stop, start - width, side="right").tolist()
    hi = np.searchsorted(start, stop - width, side="left").tolist()
    parent = list(range(start.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = start.size
    for b, (first, stop) in enumerate(zip(lo, hi)):
        for a in range(first, stop):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                count -= 1
    return count


def check_connectivity(p):
    """4-neighbor component count per region plus anchor-corner presence."""
    out = {}
    for k, a in enumerate(ACTION_PRIORITY):
        mask = p.best[:, :, k]
        ai, aj = ANCHOR_CORNERS[a]
        out[a] = ConnectivityReport(_components(mask), bool(mask[ai, aj]))
    return out


def bet_dominance_violations(p):
    """Bet regions may not cross the diagonal by more than one cell: bet1
    at lattice point (i, j) with i < j - 1, or bet2 with i > j + 1."""
    k = np.arange(p.grid.n)
    out = []
    for (a, bad_side) in ((Action.BET1, k[:, None] < k - 1), (Action.BET2, k[:, None] > k + 1)):
        for i, j in np.argwhere(p.best[:, :, _IDX[a]] & bad_side):
            out.append((a, int(i), int(j)))
    return out


def delta_funcs(v, p, ch):
    """Chord-above-curve gaps of the field along the two observed rows.

    For each fixed first coordinate (lambda0 and lambda1), compares the
    p-weighted chord between the field values at the two lattice-reachable
    second coordinates against the field value at the propagated belief.
    Convexity makes both gaps nonnegative up to interpolation error, and
    they vanish exactly at p = 0 and p = 1.
    """
    tp = propagate(p, ch)
    lam = _axis(v.grid.points, np.array([ch.lambda0, ch.lambda1]))
    c = _gather(v.values, lam, lam)
    e = _gather(v.values, lam, _axis(v.grid.points, np.array([tp])))[:, 0]
    d0 = ((1.0 - p) * c[0, 0] + p * c[0, 1]) - e[0]
    d1 = ((1.0 - p) * c[1, 0] + p * c[1, 1]) - e[1]
    return float(d0), float(d1)


# Bracket width at which every threshold bisection stops.
_XTOL = 1e-10


def _bisect(f, lo, hi):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        return None
    while hi - lo > _XTOL:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _q_gap(q, a, b, p1=None):
    """y -> Q(a) - Q(b) from the probe q at (p1, y), or at (y, y) if p1 is None."""
    ka, kb = _IDX[a], _IDX[b]

    def f(y):
        qs = q(y if p1 is None else p1, y)
        return qs[ka] - qs[kb]

    return f


@dataclass(frozen=True)
class EdgeThresholds:
    """Switching points of the one-dimensional edge restrictions.

    th1: conservative-to-bet2 switch along the p1 = 0 edge.
    th2: bet1-to-balanced switch along the p1 = 1 edge (mirrored on the
    other two edges by symmetry). A missing crossing means the edge is
    single-action for these parameters; that is reported, not fatal.
    """

    th1: float | None
    th2: float | None
    th1_residual: float | None
    th2_residual: float | None
    notes: tuple


def edge_thresholds(v, ch, econ, discount):
    notes = []
    q = q_probe(v, ch, econ, discount)
    th1 = _bisect(_q_gap(q, Action.BET2, Action.CONSERVATIVE, 0.0), 0.0, 1.0)
    th1_res = None
    if th1 is None:
        notes.append("edge p1=0 has no conservative/bet2 crossing")
    else:
        d0, _ = delta_funcs(v, th1, ch)
        th1_res = th1 * (econ.rh + econ.ch) - econ.ch + discount.beta * d0

    th2 = _bisect(_q_gap(q, Action.BALANCED, Action.BET1, 1.0), 0.0, 1.0)
    th2_res = None
    if th2 is None:
        notes.append("edge p1=1 has no bet1/balanced crossing")
    else:
        _, d1 = delta_funcs(v, th2, ch)
        th2_res = (
            th2 * (econ.rl + econ.cl)
            - (econ.rh - econ.rl)
            - econ.cl
            + discount.beta * d1
        )

    return EdgeThresholds(th1, th2, th1_res, th2_res, tuple(notes))


@dataclass(frozen=True)
class DiagonalStructure:
    """Action bands met while walking the diagonal from (0,0) to (1,1)."""

    kind: str                # one-threshold | two-threshold | other
    rho1: float | None
    rho2: float | None
    sequence: str            # run-compressed primary actions, for reports


def diagonal_structure(v, policy, ch, econ, discount):
    """Classify the diagonal action sequence and bisect its thresholds.

    Conservative-then-balanced yields one threshold (the rest/balanced
    crossing); conservative, a bet tie band, then balanced yields two (the
    rest/bet and bet/balanced crossings). Any other observed sequence is
    reported as-is rather than force-fitted.

    The best sets are policy's or, with policy None, those extract_policy
    gives at its default tie_tol, found from the diagonal's Q values alone.
    """
    n = v.grid.n
    x = v.grid.points
    if policy is None:
        q = {a: _q_action(v.values, v.grid, ch, econ, discount, k, None)
             for k, a in enumerate(ACTION_PRIORITY)}
        planes, primary, _ = _best_sets(q, v, None)
    else:
        planes, primary = np.diagonal(policy.best), np.diagonal(policy.primary)
    seq = " ".join(f"{ACTION_PRIORITY[k].value}*{b - a}" for a, b, k in _row_runs(primary))

    in_bal = planes[_IDX[Action.BALANCED]]
    in_bet = planes[_IDX[Action.BET1]]
    in_rest = planes[_IDX[Action.CONSERVATIVE]]
    covered = (in_bal | in_bet | in_rest).all()
    strict_bet = in_bet & ~in_bal & ~in_rest

    if not (in_rest[0] and in_bal[-1] and covered):
        return DiagonalStructure(OTHER, None, None, seq)

    q = q_probe(v, ch, econ, discount)
    # Rest one run from index 0, balanced one run ending at n, and the
    # strict bet band at most one run.
    line, start, stop = _runs(np.stack([in_rest, in_bal, strict_bet]))
    runs = np.bincount(line, minlength=3).tolist()
    ordered = runs[:2] == [1, 1] and runs[2] <= 1 and start[0] == 0 and stop[1] == n

    if runs[2]:
        margins = []
        for y in x[np.flatnonzero(strict_bet)].tolist():
            bal, bet1, _, rest = q(y, y)
            margins.append(bet1 - max(bal, rest))
        y_star = float(x[np.flatnonzero(strict_bet)[int(np.argmax(margins))]])
        rho1 = _bisect(_q_gap(q, Action.BET1, Action.CONSERVATIVE), 0.0, y_star)
        rho2 = _bisect(_q_gap(q, Action.BET1, Action.BALANCED), y_star, 1.0)
        if ordered and rho1 is not None and rho2 is not None and 0.0 < rho1 < rho2 < 1.0:
            return DiagonalStructure(TWO_THRESHOLD, float(rho1), float(rho2), seq)
        return DiagonalStructure(OTHER, rho1, rho2, seq)

    rho1 = _bisect(_q_gap(q, Action.BALANCED, Action.CONSERVATIVE), 0.0, 1.0)
    if ordered and rho1 is not None and 0.0 < rho1 < 1.0:
        return DiagonalStructure(ONE_THRESHOLD, float(rho1), None, seq)
    return DiagonalStructure(OTHER, rho1, None, seq)


@dataclass(frozen=True, eq=False)
class StructureReport:
    """Everything the structural checks produced for one solved field."""

    corners: dict            # corner label -> {"best": names, "anchor": name, "ok": bool}
    edges: EdgeThresholds
    diagonal: DiagonalStructure
    areas: dict              # action -> normalized region area
    symmetry_violations: list
    contiguity_violations: list
    connectivity: dict
    bet_dominance: list

    @property
    def flags(self):
        connected = all(
            r.components == 1 and r.anchor_present
            for r in self.connectivity.values()
        )
        return {
            "corners_ok": all(c["ok"] for c in self.corners.values()),
            "symmetry_ok": not self.symmetry_violations,
            "contiguity_ok": not self.contiguity_violations,
            "connectivity_ok": connected,
            "bet_dominance_ok": not self.bet_dominance,
        }


def analyze_structure(v, policy, ch, econ, discount):
    """Run every structural check against a converged field and its policy."""
    areas = region_map(policy)
    n = v.grid.n

    corners = {}
    for a, (ci, cj) in ANCHOR_CORNERS.items():
        i = ci % n
        j = cj % n
        names = tuple(
            ACTION_PRIORITY[k].value
            for k in range(len(ACTION_PRIORITY))
            if policy.best[i, j, k]
        )
        corners[f"{v.grid.points[i]:g},{v.grid.points[j]:g}"] = {
            "best": names,
            "anchor": a.value,
            "ok": bool(policy.best[i, j, _IDX[a]]),
        }

    return StructureReport(
        corners=corners,
        edges=edge_thresholds(v, ch, econ, discount),
        diagonal=diagonal_structure(v, policy, ch, econ, discount),
        areas={a.value: areas[a] for a in ACTION_PRIORITY},
        symmetry_violations=check_symmetry(policy),
        contiguity_violations=check_contiguity(policy),
        connectivity=check_connectivity(policy),
        bet_dominance=bet_dominance_violations(policy),
    )


def report_has_violations(report):
    return not all(report.flags.values())


_LIST_CAP = 50  # violation lists are truncated in files to keep them readable


def _report_dict(report):
    return {
        "corners": report.corners,
        "edge_thresholds": asdict(report.edges),
        "diagonal": asdict(report.diagonal),
        "areas": report.areas,
        "flags": report.flags,
        "symmetry_violation_count": len(report.symmetry_violations),
        "symmetry_violations": [list(v) for v in report.symmetry_violations[:_LIST_CAP]],
        "contiguity_violation_count": len(report.contiguity_violations),
        "contiguity_violations": [
            {"action": v.action.value, "axis": v.axis, "index": v.index, "gap": list(v.gap)}
            for v in report.contiguity_violations[:_LIST_CAP]
        ],
        "connectivity": {a.value: asdict(r) for a, r in report.connectivity.items()},
        "bet_dominance_violation_count": len(report.bet_dominance),
        "bet_dominance_violations": [
            {"action": a.value, "i": i, "j": j} for a, i, j in report.bet_dominance[:_LIST_CAP]
        ],
    }


def save_structure_report(report, path):
    with open(path, "w") as fh:
        json.dump(_report_dict(report), fh, indent=2)
        fh.write("\n")


# "primary,best-set" row ends, indexed by (primary << 4) | best-set bits with
# bit k standing for ACTION_PRIORITY[k].
_CSV_SUFFIXES = [
    "{},{}\n".format(
        ACTION_PRIORITY[code >> 4].value,
        "|".join(a.value for k, a in enumerate(ACTION_PRIORITY) if code >> k & 1),
    ).encode()
    for code in range(len(ACTION_PRIORITY) << 4)
]
_BEST_BITS = np.array([1 << k for k in range(len(ACTION_PRIORITY))], dtype=np.uint8)


def _row_runs(row):
    """The runs of equal values along a 1-D array, as (start, stop, value)."""
    cuts = (np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()
    starts = [0] + cuts
    return zip(starts, cuts + [len(row)], row[starts].tolist())


def export_policy_csv(policy, path):
    """One row per lattice point: indices, beliefs, primary and tied actions."""
    x = [repr(float(p)).encode() for p in policy.grid.points]
    # A row is "i," "j," x_i ",x_j," "primary,best\n". Column j's piece holds
    # \x00 for "i," and \x01 for x_i, which each row fills in; a run of
    # points with the same row end is one join.
    pieces = [b"\x00%d,\x01,%s," % (j, xj) for j, xj in enumerate(x)]
    with open(path, "wb") as fh:
        fh.write(b"# primary action resolves ties as balanced > bet1 > bet2 > conservative\n")
        fh.write(b"i,j,p1,p2,primary,best\n")
        for i in range(policy.grid.n):
            codes = (policy.primary[i].astype(np.uint8) << 4) | (policy.best[i] @ _BEST_BITS)
            text = b"".join(
                _CSV_SUFFIXES[c].join(pieces[a:b]) + _CSV_SUFFIXES[c]
                for a, b, c in _row_runs(codes)
            )
            fh.write(text.replace(b"\x00", b"%d," % i).replace(b"\x01", x[i]))


_PPM_COLORS = {
    Action.BALANCED: (0, 153, 0),
    Action.BET1: (204, 0, 0),
    Action.BET2: (0, 102, 204),
    Action.CONSERVATIVE: (128, 128, 128),
}
_PPM_PIXELS = ["%d %d %d" % _PPM_COLORS[a] for a in ACTION_PRIORITY]


def export_policy_ppm(policy, path):
    """Plain-text pixmap of the primary action, one pixel per lattice point."""
    n = policy.grid.n
    head = ["P3", "# primary action map; legend (r g b):"]
    head += [f"# {a.value} = {pixel}" for a, pixel in zip(ACTION_PRIORITY, _PPM_PIXELS)]
    head += ["# column c is p1 = c/(n-1); row r is p2 = 1 - r/(n-1) (p2 falls top to bottom)",
             f"{n} {n}", "255", ""]
    with open(path, "wb") as fh:
        fh.write("\n".join(head).encode())
        # A run of one colour is one repeat; the row drops its last gap.
        cells = [(pixel + "  ").encode() for pixel in _PPM_PIXELS]
        for row in policy.primary.T[::-1]:
            text = b"".join(cells[c] * (b - a) for a, b, c in _row_runs(row))
            fh.write(text[:-2] + b"\n")
