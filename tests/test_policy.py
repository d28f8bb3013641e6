from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from gepower import (
    Action,
    Belief,
    BeliefGrid,
    ChannelParams,
    Discount,
    EconParams,
    SolverConfig,
    ValueField,
    delta_funcs,
    diagonal_structure,
    edge_thresholds,
    extract_policy,
    region_map,
    solve,
)
from gepower.dynamics import ACTION_PRIORITY
from gepower.policy import (
    PolicyField,
    analyze_structure,
    bet_dominance_violations,
    check_connectivity,
    check_contiguity,
    check_symmetry,
    export_policy_csv,
    export_policy_ppm,
    _best_sets,
    _components,
    _IDX,
    _runs,
)
from gepower.solver import _q_action
from scipy import ndimage

from loop_oracles import (
    loop_contiguity,
    loop_runs,
    q_balanced,
    q_bet1,
    q_bet2,
    q_conservative,
    stack_extract_policy,
)

CH = ChannelParams(0.1, 0.9)
ECON_A = EconParams(3.0, 2.0, 1.2, 0.8)
DISC = Discount(0.9)


def _policy_from_primary(primary):
    """Build a PolicyField with singleton best sets from a primary grid."""
    primary = np.asarray(primary, dtype=np.int8)
    n = primary.shape[0]
    best = np.zeros((n, n, len(ACTION_PRIORITY)), dtype=bool)
    for k in range(len(ACTION_PRIORITY)):
        best[:, :, k] = primary == k
    return PolicyField(BeliefGrid(n), best, primary, 0.0)


class TestExtractPolicy:
    def test_corner_actions(self, policy_a):
        n = policy_a.grid.n
        assert policy_a.best[0, 0, _IDX[Action.CONSERVATIVE]]
        assert policy_a.best[0, n - 1, _IDX[Action.BET2]]
        assert policy_a.best[n - 1, 0, _IDX[Action.BET1]]
        assert policy_a.best[n - 1, n - 1, _IDX[Action.BALANCED]]

    def test_diagonal_bet_tie(self, policy_a):
        n = policy_a.grid.n
        for k in range(n):
            b1 = policy_a.best[k, k, _IDX[Action.BET1]]
            b2 = policy_a.best[k, k, _IDX[Action.BET2]]
            assert b1 == b2

    def test_primary_uses_priority_order(self, policy_a):
        n = policy_a.grid.n
        for i in range(0, n, 7):
            for j in range(0, n, 7):
                k = int(policy_a.primary[i, j])
                assert policy_a.best[i, j, k]
                assert not policy_a.best[i, j, :k].any()

    def test_argmax_invariant_under_constant_shift(self, solved_a):
        shifted = ValueField(solved_a.field.grid, solved_a.field.values + 5.0)
        base = extract_policy(solved_a.field, CH, ECON_A, DISC)
        moved = extract_policy(shifted, CH, ECON_A, DISC)
        np.testing.assert_array_equal(base.best, moved.best)
        np.testing.assert_array_equal(base.primary, moved.primary)


class TestExtractPolicyOracle:
    # extract_policy compares each Q grid with the running max; the oracle
    # compares the stacked grids with their max. Solved fields carry the
    # exact diagonal bet ties, random fields none, and a field of +0.0 and
    # -0.0 entries ties the actions whose Q grids come out zero.
    @staticmethod
    def _field(n, kind):
        grid = BeliefGrid(n)
        if kind == "solved":
            return solve(SolverConfig(DISC, 1e-6, 5000), CH, ECON_A, grid).field
        rng = np.random.default_rng(n)
        if kind == "random":
            return ValueField(grid, 10.0 * rng.standard_normal((n, n)))
        return ValueField(grid, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0))

    @pytest.mark.parametrize("tie_tol", [None, 0.0, 0.5])
    @pytest.mark.parametrize("kind", ["solved", "random", "signed-zeros"])
    @pytest.mark.parametrize("n", [2, 7, 22, 101])
    def test_matches_stacked_argmax(self, n, kind, tie_tol):
        v = self._field(n, kind)
        got = extract_policy(v, CH, ECON_A, DISC, tie_tol)
        ref = stack_extract_policy(v, CH, ECON_A, DISC, tie_tol)
        assert got.best.shape == ref.best.shape == (n, n, len(ACTION_PRIORITY))
        assert np.array_equal(got.best, ref.best)
        assert got.primary.dtype == np.int8
        assert np.array_equal(got.primary, ref.primary)
        assert got.tie_tol == ref.tie_tol


class TestRegionMap:
    def test_areas_sum_to_one(self, policy_a):
        areas = region_map(policy_a)
        assert sum(areas.values()) == pytest.approx(1.0, abs=1e-12)

    def test_all_four_regions_present(self, policy_a):
        areas = region_map(policy_a)
        for a in Action:
            assert areas[a] > 0.0

    def test_bet_regions_have_equal_area(self, policy_a):
        areas = region_map(policy_a)
        assert areas[Action.BET1] == pytest.approx(areas[Action.BET2], abs=1e-12)

    def test_single_action_field(self):
        primary = np.full((5, 5), _IDX[Action.CONSERVATIVE], dtype=np.int8)
        areas = region_map(_policy_from_primary(primary))
        assert areas[Action.CONSERVATIVE] == 1.0
        assert areas[Action.BALANCED] == 0.0

    def test_tie_counted_fractionally(self):
        n = 3
        best = np.zeros((n, n, 4), dtype=bool)
        best[:, :, _IDX[Action.CONSERVATIVE]] = True
        best[0, 0, :] = True  # four-way tie at one point
        primary = best.argmax(axis=2).astype(np.int8)
        areas = region_map(PolicyField(BeliefGrid(n), best, primary, 0.0))
        assert areas[Action.BALANCED] == pytest.approx(0.25 / 9)
        assert sum(areas.values()) == pytest.approx(1.0, abs=1e-12)


class TestDetectors:
    def test_contiguity_flags_split_run(self):
        primary = np.full((7, 7), _IDX[Action.CONSERVATIVE], dtype=np.int8)
        primary[3, 1] = _IDX[Action.BET1]
        primary[3, 5] = _IDX[Action.BET1]
        violations = check_contiguity(_policy_from_primary(primary))
        assert any(
            v.action is Action.BET1 and v.axis == "along-p2" and v.index == 3
            for v in violations
        )
        gap = [v for v in violations if v.action is Action.BET1][0].gap
        assert gap == (2, 4)

    def test_single_point_region_is_contiguous(self):
        # a lone point at the border: an interval of length one for bet2 and
        # no hole in the surrounding region
        primary = np.full((6, 6), _IDX[Action.BALANCED], dtype=np.int8)
        primary[0, 5] = _IDX[Action.BET2]
        assert check_contiguity(_policy_from_primary(primary)) == []

    def test_symmetry_flags_asymmetric_field(self):
        primary = np.full((5, 5), _IDX[Action.CONSERVATIVE], dtype=np.int8)
        primary[1, 3] = _IDX[Action.BALANCED]   # no mirror at (3, 1)
        violations = check_symmetry(_policy_from_primary(primary))
        assert (1, 3) in violations

    def test_symmetry_requires_bet_swap(self):
        primary = np.full((5, 5), _IDX[Action.CONSERVATIVE], dtype=np.int8)
        primary[1, 3] = _IDX[Action.BET1]
        primary[3, 1] = _IDX[Action.BET1]   # mirror must be BET2
        violations = check_symmetry(_policy_from_primary(primary))
        assert (1, 3) in violations
        primary[3, 1] = _IDX[Action.BET2]
        assert check_symmetry(_policy_from_primary(primary)) == []

    def test_transposed_policy_equals_bet_relabel(self, policy_a):
        swapped = policy_a.best[:, :, [0, 2, 1, 3]]
        np.testing.assert_array_equal(np.transpose(policy_a.best, (1, 0, 2)), swapped)

    def test_checkerboard_has_many_components(self):
        n = 8
        primary = np.fromfunction(
            lambda i, j: np.where((i + j) % 2 == 0, _IDX[Action.BET1], _IDX[Action.BET2]),
            (n, n),
        ).astype(np.int8)
        reports = check_connectivity(_policy_from_primary(primary))
        assert reports[Action.BET1].components == 32
        assert reports[Action.BET2].components == 32

    def test_anchor_presence_reported(self):
        primary = np.full((5, 5), _IDX[Action.BALANCED], dtype=np.int8)
        primary[0, 0] = _IDX[Action.CONSERVATIVE]
        reports = check_connectivity(_policy_from_primary(primary))
        assert reports[Action.CONSERVATIVE].anchor_present
        assert reports[Action.BET1].components == 0
        assert not reports[Action.BET1].anchor_present

    def test_bet_dominance_detector(self):
        primary = np.full((6, 6), _IDX[Action.CONSERVATIVE], dtype=np.int8)
        primary[0, 5] = _IDX[Action.BET1]   # deep on the wrong side
        bad = bet_dominance_violations(_policy_from_primary(primary))
        assert (Action.BET1, 0, 5) in bad

    def test_bet_dominance_index_rule_matches_float_rule(self):
        # The rule once read "one cell" as the spacing 1/(n-1) plus 1e-12 of
        # slack between the points' floats; the index rule must flag the same
        # points. Off the band of three cells each side of the diagonal the
        # gap is two cells or none, so the band holds every point where the
        # rules could part.
        def float_rule(p):
            x = p.grid.points
            slack = 1.0 / (p.grid.n - 1) + 1e-12
            p1, p2 = x[:, None], x[None, :]
            return [(a, int(i), int(j))
                    for a, bad in ((Action.BET1, p1 < p2 - slack),
                                   (Action.BET2, p2 < p1 - slack))
                    for i, j in np.argwhere(p.best[:, :, _IDX[a]] & bad)]

        for n in [*range(2, 401), 401, 801, 4001]:
            band = np.tri(n, k=3, dtype=bool) ^ np.tri(n, k=-4, dtype=bool)
            best = np.broadcast_to(band[:, :, None], (n, n, len(ACTION_PRIORITY)))
            p = SimpleNamespace(grid=BeliefGrid(n), best=best)
            want = float_rule(p)
            assert len(want) == 2 * (max(n - 2, 0) + max(n - 3, 0)), n
            assert bet_dominance_violations(p) == want, n


def _random_policy(rng, n, density):
    best = rng.uniform(size=(n, n, len(ACTION_PRIORITY))) < density
    empty = ~best.any(axis=2)
    best[empty, rng.integers(len(ACTION_PRIORITY), size=int(empty.sum()))] = True
    return PolicyField(BeliefGrid(n), best, best.argmax(axis=2), 0.0)


class TestContiguityMatchesLoop:
    @pytest.mark.parametrize("n", [2, 3, 7, 22, 101])
    def test_random_masks(self, n):
        rng = np.random.default_rng(n)
        for density in (0.05, 0.3, 0.5, 0.8, 0.97):
            for _ in range(3 if n == 101 else 30):
                p = _random_policy(rng, n, density)
                assert check_contiguity(p) == loop_contiguity(p)

    def test_tie_heavy_solved_policies(self, solved_a, solved_b):
        found = 0
        for v, econ in ((solved_a.field, ECON_A), (solved_b.field, EconParams(3.7, 2.0, 1.2, 0.8))):
            for tie_tol in (None, 0.5):
                p = extract_policy(v, CH, econ, DISC, tie_tol)
                got = check_contiguity(p)
                assert got == loop_contiguity(p)
                found += len(got)
        assert found > 0


class TestRuns:
    @pytest.mark.parametrize("n", [2, 3, 7, 22, 101])
    @pytest.mark.parametrize("lead", [(), (3,), (4, None)], ids=["line", "3-lines", "4-squares"])
    def test_random_masks(self, n, lead):
        rng = np.random.default_rng(n)
        shape = tuple(n if d is None else d for d in lead) + (n,)
        for density in (0.0, 0.05, 0.3, 0.5, 0.8, 0.97, 1.0):
            for _ in range(3 if n == 101 else 20):
                lines = rng.uniform(size=shape) < density
                if lines.ndim > 1:
                    # One all-False and one all-True line among the others.
                    lines.reshape(-1, n)[0] = False
                    lines.reshape(-1, n)[-1] = True
                got = list(zip(*(a.tolist() for a in _runs(lines))))
                assert got == loop_runs(lines)


def _spiral(n):
    """A one-cell-wide square spiral path from the corner inwards: one
    component whose rows hold many runs that join only further down."""
    mask = np.zeros((n, n), dtype=bool)
    r = c = 0
    mask[0, 0] = True
    lengths = [n - 1] * 3 + [k for k in range(n - 3, 0, -2) for _ in (0, 1)]
    for step, length in enumerate(lengths):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[step % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            mask[r, c] = True
    return mask


def _shapes():
    n = 9
    u = np.zeros((n, n), dtype=bool)
    u[:, 0] = u[:, -1] = u[-1, :] = True
    comb = np.zeros((n, n), dtype=bool)
    comb[:, ::2] = True
    comb[-1, :] = True
    yield "empty", np.zeros((n, n), dtype=bool)
    yield "full", np.ones((n, n), dtype=bool)
    yield "row", np.ones((1, n), dtype=bool)
    yield "column", np.ones((n, 1), dtype=bool)
    yield "split-row", np.array([[True, False, True, True, False, True]])
    yield "split-column", np.array([[True], [False], [True], [True]])
    yield "checkerboard", np.indices((n, n)).sum(axis=0) % 2 == 0
    yield "u", u
    yield "cap", u[::-1]
    yield "comb", comb
    for size in (2, 3, 8, 15, 40):
        yield f"spiral-{size}", _spiral(size)
        yield f"spiral-{size}-gaps", ~_spiral(size)


class TestComponentCount:
    # scipy's labelling with 4-connectivity is the reference.
    FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])

    def _check(self, mask):
        for m in (mask, mask.T, mask[::-1], mask[:, ::-1]):
            assert _components(m) == ndimage.label(m, structure=self.FOUR)[1]

    @pytest.mark.parametrize("name, mask", list(_shapes()), ids=[k for k, _ in _shapes()])
    def test_shapes(self, name, mask):
        self._check(mask)

    def test_checkerboard_counts_every_cell(self):
        assert _components(np.indices((9, 9)).sum(axis=0) % 2 == 0) == 41

    def test_spiral_is_one_component(self):
        assert _components(_spiral(40)) == 1

    def test_random_masks(self):
        rng = np.random.default_rng(15)
        for _ in range(600):
            rows, cols = rng.integers(1, 33, size=2)
            self._check(rng.random((rows, cols)) < rng.random())


class TestConvergedFieldChecks:
    def test_symmetry_clean_on_converged_field(self, policy_a, policy_b):
        assert check_symmetry(policy_a) == []
        assert check_symmetry(policy_b) == []

    def test_bet1_region_stays_on_its_side(self, policy_a, policy_b):
        assert bet_dominance_violations(policy_a) == []
        assert bet_dominance_violations(policy_b) == []

    def test_connectivity_clean_on_one_threshold_field(self, policy_a):
        reports = check_connectivity(policy_a)
        for a, r in reports.items():
            assert r.components == 1 and r.anchor_present

    def test_edge_restricted_to_bet2_and_rest(self, solved_a, policy_a):
        # on the first channel's zero edge the best set never needs bet1 or
        # balanced; their Q values are dominated pointwise
        v = solved_a.field
        for p2 in v.grid.points[::5]:
            b = Belief(0.0, float(p2))
            q2v = q_bet2(v, b, CH, ECON_A, DISC)
            assert q2v >= q_bet1(v, b, CH, ECON_A, DISC) - 1e-12
            assert q2v > q_balanced(v, b, CH, ECON_A, DISC) - 1e-12
        n = policy_a.grid.n
        edge_best = policy_a.best[0, :, :]
        allowed = edge_best[:, [_IDX[Action.BET2], _IDX[Action.CONSERVATIVE]]].any(axis=1)
        assert allowed.all()


class TestDeltaFuncs:
    def test_exact_zero_at_endpoints(self, solved_a):
        assert delta_funcs(solved_a.field, 0.0, CH) == (0.0, 0.0)
        assert delta_funcs(solved_a.field, 1.0, CH) == (0.0, 0.0)

    def test_nonnegative_up_to_interpolation_error(self, solved_a):
        spread = float(solved_a.field.values.max() - solved_a.field.values.min())
        floor = -1e-6 * spread
        for p in np.linspace(0.0, 1.0, 101):
            d0, d1 = delta_funcs(solved_a.field, float(p), CH)
            assert d0 >= floor and d1 >= floor


class TestEdgeThresholds:
    def test_fixed_point_residuals(self, solved_a):
        edges = edge_thresholds(solved_a.field, CH, ECON_A, DISC)
        assert edges.th1 is not None and edges.th2 is not None
        assert 0.0 < edges.th1 < 1.0
        assert 0.0 < edges.th2 < 1.0
        residual_tol = 1e-6 * (1 + DISC.beta)
        assert abs(edges.th1_residual) <= residual_tol
        assert abs(edges.th2_residual) <= residual_tol

    def test_threshold_lies_in_switch_cell(self, solved_a, policy_a):
        edges = edge_thresholds(solved_a.field, CH, ECON_A, DISC)
        x = policy_a.grid.points
        rest = policy_a.best[0, :, _IDX[Action.CONSERVATIVE]]
        last_rest = int(np.flatnonzero(rest).max())
        assert x[last_rest] <= edges.th1 <= x[last_rest + 1]

    def test_cross_resolution_agreement(self, solved_a, solved_a_51):
        fine = edge_thresholds(solved_a.field, CH, ECON_A, DISC)
        coarse = edge_thresholds(solved_a_51.field, CH, ECON_A, DISC)
        assert fine.th1 == pytest.approx(coarse.th1, abs=1e-3)
        assert fine.th2 == pytest.approx(coarse.th2, abs=1e-3)

    def test_bottom_edge_mirrors_left_edge(self, solved_a):
        # bet1 takes over from rest on the second channel's zero edge at the
        # mirrored threshold
        v = solved_a.field
        edges = edge_thresholds(v, CH, ECON_A, DISC)

        def f(y):
            b = Belief(y, 0.0)
            return q_bet1(v, b, CH, ECON_A, DISC) - q_conservative(v, b, CH, DISC)

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(edges.th1, abs=1e-8)


class TestDiagonal:
    def test_one_threshold_classification(self, solved_a, policy_a):
        diag = diagonal_structure(solved_a.field, policy_a, CH, ECON_A, DISC)
        assert diag.kind == "one-threshold"
        assert 0.0 < diag.rho1 < 1.0
        assert diag.rho2 is None
        # crossing actually sits where rest and balanced tie
        b = Belief(diag.rho1, diag.rho1)
        assert q_balanced(solved_a.field, b, CH, ECON_A, DISC) == pytest.approx(
            q_conservative(solved_a.field, b, CH, DISC), abs=1e-8
        )

    def test_two_threshold_classification(self, solved_b, policy_b):
        diag = diagonal_structure(solved_b.field, policy_b, CH, EconParams(3.7, 2.0, 1.2, 0.8), DISC)
        assert diag.kind == "two-threshold"
        assert 0.0 < diag.rho1 < diag.rho2 < 1.0

    def test_other_is_reported_not_forced(self):
        # a field engineered so the diagonal starts balanced: classification
        # must refuse both named structures
        n = 9
        primary = np.full((n, n), _IDX[Action.BALANCED], dtype=np.int8)
        policy = _policy_from_primary(primary)
        grid = BeliefGrid(n)
        v = ValueField(grid, np.zeros((n, n)))
        diag = diagonal_structure(v, policy, CH, ECON_A, DISC)
        assert diag.kind == "other"
        assert "balanced" in diag.sequence


class TestDiagonalWithoutPolicy:
    # With policy None, diagonal_structure finds the diagonal's best sets
    # from the diagonal's own Q values; they, the primary actions and the
    # classification must be what the full default-tie_tol policy gives.
    # Solved fields carry exact bet ties on the diagonal, random fields
    # none, and +0.0/-0.0 fields tie every action whose Q comes out zero.
    @staticmethod
    def _field(n, kind, ch, econ):
        grid = BeliefGrid(n)
        if kind == "solved":
            return solve(SolverConfig(DISC, 1e-6, 5000), ch, econ, grid).field
        rng = np.random.default_rng(n)
        if kind == "random":
            return ValueField(grid, 10.0 * rng.standard_normal((n, n)))
        return ValueField(grid, np.where(rng.random((n, n)) < 0.5, -0.0, 0.0))

    @pytest.mark.parametrize("ch", [CH, ChannelParams(0.13, 0.87)], ids=["lam-0.1", "lam-0.13"])
    @pytest.mark.parametrize("econ", [ECON_A, EconParams(3.7, 2.0, 1.2, 0.8)], ids=["A", "B"])
    @pytest.mark.parametrize("kind", ["solved", "random", "signed-zeros"])
    @pytest.mark.parametrize("n", [2, 7, 22, 101])
    def test_matches_the_full_policy(self, n, kind, econ, ch):
        v = self._field(n, kind, ch, econ)
        full = extract_policy(v, ch, econ, DISC)
        q = {a: _q_action(v.values, v.grid, ch, econ, DISC, k, None)
             for k, a in enumerate(ACTION_PRIORITY)}
        planes, primary, tie_tol = _best_sets(q, v, None)
        assert np.array_equal(planes, np.diagonal(full.best))
        assert primary.dtype == np.int8
        assert np.array_equal(primary, np.diagonal(full.primary))
        assert tie_tol == full.tie_tol
        got = diagonal_structure(v, None, ch, econ, DISC)
        assert asdict(got) == asdict(diagonal_structure(v, full, ch, econ, DISC))


class TestStructureReport:
    def test_report_flags_and_exports(self, solved_a, policy_a, tmp_path):
        report = analyze_structure(solved_a.field, policy_a, CH, ECON_A, DISC)
        assert report.flags["corners_ok"]
        assert report.flags["symmetry_ok"]
        assert report.flags["connectivity_ok"]
        assert report.flags["bet_dominance_ok"]
        assert report.diagonal.kind == "one-threshold"

        from gepower.policy import save_structure_report

        path = tmp_path / "structure.json"
        save_structure_report(report, path)
        import json

        doc = json.loads(path.read_text())
        assert doc["diagonal"]["kind"] == "one-threshold"
        assert set(doc["areas"]) == {a.value for a in Action}
        assert doc["edge_thresholds"]["th1"] == report.edges.th1

    def test_policy_csv_and_ppm(self, policy_a, tmp_path):
        csv_path = tmp_path / "policy.csv"
        ppm_path = tmp_path / "policy.ppm"
        export_policy_csv(policy_a, csv_path)
        export_policy_ppm(policy_a, ppm_path)

        lines = csv_path.read_text().splitlines()
        header_rows = [ln for ln in lines if ln.startswith("#")]
        data_rows = [ln for ln in lines if not ln.startswith("#")]
        assert len(data_rows) == 1 + policy_a.grid.n ** 2
        assert data_rows[0] == "i,j,p1,p2,primary,best"
        assert header_rows  # priority order documented

        ppm = ppm_path.read_text().splitlines()
        assert ppm[0] == "P3"
        body = [ln for ln in ppm if not ln.startswith("#")]
        assert body[1].split() == [str(policy_a.grid.n), str(policy_a.grid.n)]

        # repeated export is byte-identical
        csv2 = tmp_path / "again.csv"
        export_policy_csv(policy_a, csv2)
        assert csv2.read_bytes() == csv_path.read_bytes()
