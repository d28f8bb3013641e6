import functools
import hashlib

import numpy as np
import pytest
from loop_oracles import loop_export_lp, loop_kernel, sparse_constraint_rows
from lp_oracles import as_csr, feasibility_gap, highs_solve, parse_lp

from gepower import (
    Action,
    BeliefGrid,
    ChannelParams,
    Discount,
    EconParams,
    SolverConfig,
    build_all_kernels,
    export_lp,
    extract_policy,
    lpmodel,
    solve,
)
from gepower.dynamics import ACTION_PRIORITY, expected_rewards
from gepower.lpmodel import Kernel, _constraint_rows, _distinct_coefficients, variable_name

CH = ChannelParams(0.1, 0.9)
ECON = EconParams(3.0, 2.0, 1.2, 0.8)
DISC = Discount(0.9)
# lambda off the lattice, in one cell, on its last point, and at zero.
BLOCK_LAMS = [(0.1, 0.9), (0.3, 0.35), (0.25, 1.0), (0.0, 0.6)]


@functools.lru_cache(maxsize=None)
def _kernels(n, lam):
    return build_all_kernels(BeliefGrid(n), ChannelParams(*lam))


def _row(kernel, p):
    """Successor columns and probabilities of flat lattice point p."""
    lo, hi = kernel.indptr[p], kernel.indptr[p + 1]
    return kernel.cols[lo:hi], kernel.probs[lo:hi]


class TestKernels:
    @pytest.mark.parametrize("action", list(Action))
    def test_rows_are_distributions(self, action):
        grid = BeliefGrid(21)
        kernel = build_all_kernels(grid, CH)[action]
        size = grid.n ** 2
        for p in range(size):
            cols, probs = _row(kernel, p)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs > 0.0).all()
            assert (np.diff(cols) > 0).all()

    def test_support_limits(self):
        grid = BeliefGrid(11)
        limits = {
            Action.BALANCED: 16,
            Action.BET1: 8,
            Action.BET2: 8,
            Action.CONSERVATIVE: 4,
        }
        kernels = build_all_kernels(grid, CH)
        for action, cap in limits.items():
            kernel = kernels[action]
            widths = np.diff(kernel.indptr)
            assert widths.max() <= cap

    def test_on_lattice_successor_collapses_to_single_point(self):
        # lambda values land on lattice points for n=11, so resting at a
        # lattice point whose propagated belief is also on-lattice has a
        # one-point row
        grid = BeliefGrid(11)
        kernel = build_all_kernels(grid, CH)[Action.CONSERVATIVE]
        # p = (0, 0) propagates to (0.1, 0.1), on-lattice for n=11
        cols, probs = _row(kernel, 0)
        assert len(cols) == 1
        assert probs[0] == 1.0
        assert cols[0] == 1 * grid.n + 1

    def test_balanced_from_certainty_hits_one_successor(self):
        grid = BeliefGrid(11)
        kernel = build_all_kernels(grid, CH)[Action.BALANCED]
        p = grid.n ** 2 - 1   # belief (1, 1)
        cols, probs = _row(kernel, p)
        assert probs.sum() == pytest.approx(1.0, abs=1e-15)
        # single successor (0.9, 0.9), on-lattice
        assert list(cols) == [9 * grid.n + 9]

    def test_kernel_matches_interpolated_continuation(self, solved_a_51):
        # the kernel route and the interpolation route price continuations
        # identically; this is what makes the exported model a cross-check
        from gepower.solver import action_value_grids

        grid = solved_a_51.field.grid
        v = solved_a_51.field
        flat = v.values.ravel()
        grids = action_value_grids(v, CH, ECON, DISC)
        kernels = build_all_kernels(grid, CH)
        rewards = expected_rewards(*np.meshgrid(grid.points, grid.points, indexing="ij"), ECON)
        for action, g in zip(ACTION_PRIORITY, rewards):
            q_kernel = g.ravel() + DISC.beta * (as_csr(*kernels[action]) @ flat)
            np.testing.assert_allclose(
                q_kernel, grids[action].ravel(), rtol=1e-12, atol=1e-12
            )


class TestKernelOracle:
    # (0.3, 0.35) puts lambda0 and lambda1 in one lattice cell, so up to
    # four balanced candidates land on one point and the summation order
    # shows; (0.25, 1.0) puts lambda1 = T(1) on the last lattice point,
    # where the clipped cell search leaves a zero-weight vertex to drop.
    @pytest.mark.parametrize(
        "lam", [(0.1, 0.9), (0.13, 0.77), (0.0, 0.6), (0.3, 0.35), (0.25, 1.0)]
    )
    @pytest.mark.parametrize("n", [2, 3, 5, 11, 22, 37])
    def test_matches_dict_accumulation_loop(self, n, lam):
        grid = BeliefGrid(n)
        ch = ChannelParams(*lam)
        kernels = build_all_kernels(grid, ch)
        for action in ACTION_PRIORITY:
            got = as_csr(*kernels[action])
            ref = loop_kernel(grid, ch, action)
            assert got.shape == ref.shape == (n * n, n * n), action
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype, (action, name)
                assert np.array_equal(a, b), (action, name)


class TestConstraintRows:
    # lambda on the lattice (the kernels drop its zero-weight vertices)
    # and off it; beta 0 drops every off-diagonal entry.
    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
    @pytest.mark.parametrize("on_lattice", [True, False], ids=["on-lattice", "off-lattice"])
    @pytest.mark.parametrize("n", [7, 22, 41])
    def test_matches_scipy_arithmetic(self, n, on_lattice, beta):
        k = n - 1
        lam = (round(0.1 * k) / k, round(0.9 * k) / k) if on_lattice else (0.13, 0.77)
        ch = ChannelParams(*lam)
        for action, kernel in build_all_kernels(BeliefGrid(n), ch).items():
            indptr, cols, coefs = _constraint_rows(kernel, beta)
            ref = sparse_constraint_rows(kernel, beta)
            assert np.array_equal(indptr, ref.indptr), action
            assert np.array_equal(cols, ref.indices), action
            assert np.array_equal(coefs.view(np.uint64), ref.data.view(np.uint64)), action


class TestBlockRows:
    # The writer builds I - beta*K one block of lattice rows at a time;
    # each block must be the matching slice of the whole-lattice rows, for
    # one-row blocks, blocks that leave a partial last block, and the
    # writer's own size.
    @pytest.mark.parametrize("rows", [1, 3, lpmodel._BLOCK_ROWS])
    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
    @pytest.mark.parametrize("lam", BLOCK_LAMS)
    @pytest.mark.parametrize("n", [2, 7, 22])
    def test_slices_match_whole_lattice(self, n, lam, beta, rows):
        for action, kernel in _kernels(n, lam).items():
            indptr, cols, coefs = _constraint_rows(kernel, beta)
            for first in range(0, n * n, rows * n):
                stop = min(first + rows * n, n * n)
                lo, hi = kernel.indptr[first], kernel.indptr[stop]
                block = Kernel(
                    kernel.indptr[first:stop + 1] - lo, kernel.cols[lo:hi], kernel.probs[lo:hi]
                )
                got_indptr, got_cols, got_coefs = _constraint_rows(block, beta, first)
                a, b = indptr[first], indptr[stop]
                assert np.array_equal(got_indptr, indptr[first:stop + 1] - a), (action, first)
                assert np.array_equal(got_cols, cols[a:b]), (action, first)
                assert np.array_equal(
                    got_coefs.view(np.uint64), coefs[a:b].view(np.uint64)
                ), (action, first)

    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
    @pytest.mark.parametrize("lam", BLOCK_LAMS)
    @pytest.mark.parametrize("n", [2, 7, 22])
    def test_distinct_coefficients_cover_the_rows(self, n, lam, beta):
        # every entry's value is in the table, and the table holds nothing
        # else but the 1.0 of a row without a self loop
        kernels = _kernels(n, lam)
        table = _distinct_coefficients(kernels, beta)
        used = np.unique(np.concatenate(
            [_constraint_rows(kernels[a], beta)[2] for a in ACTION_PRIORITY]
        ))
        assert (np.diff(table) > 0).all()
        assert np.isin(used, table).all()
        assert set(np.setdiff1d(table, used).tolist()) <= {1.0}


class TestBlockExport:
    # export_lp gathers its text from string tables one block of lattice
    # rows at a time; the oracle writes one f-string per term from the
    # whole-lattice rows. beta 0 drops every zero coefficient.
    @staticmethod
    def _assert_same_bytes(tmp_path, n, lam, beta):
        grid = BeliefGrid(n)
        kernels = _kernels(n, lam)
        got, ref = tmp_path / "got.lp", tmp_path / "ref.lp"
        export_lp(got, grid, kernels, ECON, Discount(beta))
        loop_export_lp(ref, grid, kernels, ECON, Discount(beta))
        got, ref = got.read_bytes(), ref.read_bytes()
        if got != ref:
            at = next(
                (k for k, (x, y) in enumerate(zip(got, ref)) if x != y), min(len(got), len(ref))
            )
            pytest.fail(f"differs from byte {at}: {got[at:at + 60]!r} vs {ref[at:at + 60]!r}")

    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
    @pytest.mark.parametrize("lam", BLOCK_LAMS)
    @pytest.mark.parametrize("n", [2, 3, 7, 22, 101])
    def test_matches_per_term_writer(self, tmp_path, n, lam, beta):
        self._assert_same_bytes(tmp_path, n, lam, beta)

    # One-row blocks, and three-row blocks, which fit n = 3 exactly and
    # leave a partial last block at n = 2, 7 and 22 (the default size
    # leaves one at n = 22 and 101).
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.9, 0.99])
    @pytest.mark.parametrize("lam", BLOCK_LAMS)
    @pytest.mark.parametrize("n", [2, 3, 7, 22])
    def test_matches_per_term_writer_at_other_block_sizes(
        self, tmp_path, monkeypatch, n, lam, beta, rows
    ):
        monkeypatch.setattr(lpmodel, "_BLOCK_ROWS", rows)
        self._assert_same_bytes(tmp_path, n, lam, beta)


class TestCoefficientTable:
    @pytest.mark.parametrize("lam", BLOCK_LAMS)
    def test_a_value_missing_from_the_table_raises(self, tmp_path, monkeypatch, lam):
        # Every value but the 1.0 of a row without a self loop is written by
        # some constraint, so dropping any other one must fail the export.
        n = 5
        kernels = _kernels(n, lam)
        full = _distinct_coefficients(kernels, DISC.beta)
        for k in np.flatnonzero(full != 1.0).tolist():
            monkeypatch.setattr(
                lpmodel, "_distinct_coefficients", lambda kernels, beta: np.delete(full, k)
            )
            with pytest.raises(AssertionError, match="not in the table"):
                export_lp(tmp_path / "model.lp", BeliefGrid(n), kernels, ECON, DISC)


class TestLpDuals:
    """The paper's LP check, solved: HiGHS reads model.lp alone, and its
    values and dual-active constraints reproduce the solver's field and
    policy."""

    @pytest.mark.parametrize("beta", [0.9, 0.99])
    @pytest.mark.parametrize("n", [21, 41])
    def test_values_and_dual_active_actions(self, tmp_path, n, beta):
        grid, disc = BeliefGrid(n), Discount(beta)
        result = solve(SolverConfig(disc, 1e-12), CH, ECON, grid)
        path = tmp_path / "model.lp"
        export_lp(path, grid, build_all_kernels(grid, CH), ECON, disc)
        model = parse_lp(path)
        assert [c.name for c in model.constraints] == [
            f"{a.value}_{i}_{j}" for i in range(n) for j in range(n) for a in ACTION_PRIORITY
        ]
        out = highs_solve(model, n)
        assert out.status == 0
        # The solve lies within its certificate of the discretized fixed
        # point, and HiGHS within rounding of it (measured 5.7e-14 to
        # 2.4e-12 against certificates of 6.4e-14 to 8.4e-12).
        values = result.field.values.ravel()
        assert np.abs(out.x - values).max() <= result.bound + 1e-12 * np.abs(values).max()
        active = (np.abs(out.ineqlin.marginals) > 1e-9).reshape(n, n, len(ACTION_PRIORITY))
        assert active.any(axis=2).all()
        best = extract_policy(result.field, CH, ECON, disc).best
        assert not (active & ~best).any()


class TestExport:
    # sha256 of model.lp as the loop export wrote it; the file is part of
    # the byte-identity contract, so a faster writer must reproduce it.
    @pytest.mark.parametrize(
        "n, lam, digest",
        [
            (7, (0.1, 0.9), "4f11fc27941f72fb9830f221fc24efd77ef2d68ca23ec2edd0991fffba9915f8"),
            (22, (0.13, 0.77), "9a37b34397ed06bb3405d398c243c6643bc7783f341d592affc6897e68ab0378"),
            (5, (0.3, 0.35), "76fc5f727ebb9fdcc9d4d559f368ad18c389b54b4f7e9039647e493929609446"),
        ],
        ids=["n7", "n22-off-lattice", "n5-one-cell"],
    )
    def test_pinned_bytes(self, tmp_path, n, lam, digest):
        grid = BeliefGrid(n)
        path = tmp_path / "model.lp"
        export_lp(path, grid, build_all_kernels(grid, ChannelParams(*lam)), ECON, DISC)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_tiny_model_counts(self, tmp_path):
        grid = BeliefGrid(2)
        kernels = build_all_kernels(grid, CH)
        path = tmp_path / "model.lp"
        export_lp(path, grid, kernels, ECON, DISC, tmp_path / "meta.json")
        model = parse_lp(path)
        assert len(model.objective) == 4
        assert len(model.constraints) == 16
        assert len(model.free_variables) == 4
        assert (tmp_path / "meta.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        grid = BeliefGrid(5)
        kernels = build_all_kernels(grid, CH)
        p1 = tmp_path / "a.lp"
        p2 = tmp_path / "b.lp"
        export_lp(p1, grid, kernels, ECON, DISC)
        export_lp(p2, grid, kernels, ECON, DISC)
        assert p1.read_bytes() == p2.read_bytes()

    # (0.3, 0.35) sends both observed branches into neighbouring cells
    # that share a vertex, so candidates on one point are summed; (0.25,
    # 1.0) puts lambda1 on the last lattice point, leaving a zero-weight
    # vertex to drop.
    @pytest.mark.parametrize("lam", [(0.1, 0.9), (0.3, 0.35), (0.25, 1.0)])
    def test_round_trip_reproduces_coefficients_exactly(self, tmp_path, lam):
        grid = BeliefGrid(7)
        n = grid.n
        kernels = build_all_kernels(grid, ChannelParams(*lam))
        path = tmp_path / "model.lp"
        export_lp(path, grid, kernels, ECON, DISC)
        model = parse_lp(path)

        lattice = np.meshgrid(grid.points, grid.points, indexing="ij")
        rewards = {a: g.ravel() for a, g in zip(ACTION_PRIORITY, expected_rewards(*lattice, ECON))}
        k = 0
        for p in range(n * n):
            for a in ACTION_PRIORITY:
                con = model.constraints[k]
                k += 1
                assert con.name == f"{a.value}_{p // n}_{p % n}"
                assert con.sense == ">="
                assert con.rhs == rewards[a][p]
                cols, probs = _row(kernels[a], p)
                expect = {p: 1.0}
                for y, f in zip(cols, probs):
                    y = int(y)
                    expect[y] = expect.get(y, 0.0) - DISC.beta * f
                got = {
                    int(name.split("_")[1]) * n + int(name.split("_")[2]): c
                    for name, c in con.coeffs.items()
                }
                assert got == expect

    def test_beta_zero_model_decouples(self, tmp_path):
        # with no continuation the best feasible point is the myopic max
        disc0 = Discount(0.0)
        grid = BeliefGrid(5)
        kernels = build_all_kernels(grid, CH)
        path = tmp_path / "model.lp"
        export_lp(path, grid, kernels, ECON, disc0)
        model = parse_lp(path)
        best = np.full(grid.n ** 2, -np.inf)
        for con in model.constraints:
            (name, coef), = [(nm, c) for nm, c in con.coeffs.items()]
            assert coef == 1.0
            p = int(name.split("_")[1]) * grid.n + int(name.split("_")[2])
            best[p] = max(best[p], con.rhs)
        lattice = np.meshgrid(grid.points, grid.points, indexing="ij")
        expect = np.maximum.reduce([g.ravel() for g in expected_rewards(*lattice, ECON)])
        np.testing.assert_allclose(best, expect, atol=1e-15)


class TestFeasibility:
    def test_converged_field_is_feasible(self, solved_a_51):
        grid = solved_a_51.field.grid
        kernels = build_all_kernels(grid, CH)
        gap = feasibility_gap(solved_a_51.field.values.ravel(), kernels, ECON, DISC, grid)
        assert gap <= 1e-6

    def test_undervalued_field_is_infeasible(self, solved_a_51):
        grid = solved_a_51.field.grid
        kernels = build_all_kernels(grid, CH)
        low = solved_a_51.field.values.ravel() - 1.0
        gap = feasibility_gap(low, kernels, ECON, DISC, grid)
        assert gap > 1e-3

    def test_variable_names(self):
        assert variable_name(5, 0) == "V_0_0"
        assert variable_name(5, 7) == "V_1_2"
